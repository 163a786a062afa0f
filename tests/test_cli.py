"""Tests for the command-line interface (invoked in-process via main())."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main

SCALE = "0.02"


pytestmark = pytest.mark.usefixtures("fresh_bundle_cache")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    @pytest.mark.parametrize("command", ["filter", "analyze", "serve"])
    def test_kernels_option_removed(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--kernels", "numpy"])
        assert exc.value.code == 2
        assert "--kernels" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "batch"])
    def test_arena_dir_option_removed(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--arena-dir", "arena"])
        assert exc.value.code == 2
        assert "--arena-dir" in capsys.readouterr().err

    def test_kernels_subcommand_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["kernels"])
        assert exc.value.code == 2
        assert "invalid choice: 'kernels'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["filter", "analyze"])
    def test_unknown_partition_method_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--partition-method", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["filter", "analyze"])
    @pytest.mark.parametrize(
        "spelling, name",
        [("hd", "high_degree"), ("LD", "low_degree"), ("no", "natural"), ("rcm", "rcm"),
         ("high_degree", "high_degree")],
    )
    def test_ordering_abbreviation_resolves_to_the_canonical_name(self, command, spelling, name):
        assert build_parser().parse_args([command, "--ordering", spelling]).ordering == name

    @pytest.mark.parametrize("command", ["filter", "analyze"])
    def test_unknown_ordering_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--ordering", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown ordering 'bogus'" in err
        assert all(name in err for name in ("natural", "high_degree", "low_degree", "rcm"))

    def test_filter_defaults(self):
        args = build_parser().parse_args(["filter"])
        assert args.dataset == "CRE"
        assert args.method == "chordal"
        assert args.partitions == 1


class TestCommands:
    def test_datasets_command(self, capsys):
        assert main(["datasets", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        for name in ("YNG", "MID", "UNT", "CRE"):
            assert name in out

    def test_filter_command_writes_edge_list(self, capsys, tmp_path):
        output = tmp_path / "filtered.tsv"
        code = main([
            "filter", "--dataset", "YNG", "--scale", SCALE,
            "--method", "chordal", "--ordering", "high_degree",
            "--partitions", "4", "--output", str(output),
        ])
        assert code == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "edges_kept" in out

    def test_filter_json_is_byte_identical_across_runs(self, capsys, fresh_bundle_cache):
        argv = ["filter", "--dataset", "CRE", "--scale", SCALE, "--json"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        fresh_bundle_cache()  # the second run rebuilds the bundle cold
        assert main(argv) == 0
        assert capsys.readouterr().out == baseline

    @pytest.mark.parametrize("method", ["chordal", "chordal_comm"])
    def test_filter_json_is_byte_identical_across_backends(self, capsys, method):
        outputs = {}
        for backend in ("serial", "process", "process-shm"):
            argv = [
                "filter", "--dataset", "CRE", "--scale", SCALE, "--method", method,
                "--partitions", "2", "--backend", backend, "--json",
            ]
            assert main(argv) == 0
            outputs[backend] = capsys.readouterr().out
        assert outputs["process"] == outputs["serial"]
        assert outputs["process-shm"] == outputs["serial"]

    def test_filter_command_random_walk(self, capsys):
        assert main(["filter", "--dataset", "YNG", "--scale", SCALE, "--method", "random_walk"]) == 0
        assert "random_walk" in capsys.readouterr().out

    def test_analyze_command(self, capsys):
        code = main([
            "analyze", "--dataset", "CRE", "--scale", SCALE,
            "--method", "chordal", "--ordering", "natural", "--partitions", "2", "--top", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        assert "aees" in out

    def test_figure_command_fig08(self, capsys):
        assert main(["figure", "fig08", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "sensitivity" in out

    def test_figure_command_fig10(self, capsys):
        assert main(["figure", "fig10", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "processors" in out

    def test_figure_command_random_walk_control(self, capsys):
        assert main(["figure", "random-walk-control", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        assert "random_walk_clusters" in out

    def test_batch_command_runs_and_caches(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "batch", "--figures", "fig09", "--scale", SCALE,
            "--ordering", "high_degree", "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ran" in out
        assert list(cache.glob("fig09__*.json"))
        # Second invocation is a cache hit.
        assert main(argv) == 0
        assert "cached" in capsys.readouterr().out

    def test_batch_command_scale_alias(self, capsys, tmp_path):
        argv = [
            "batch", "--figures", "fig09", "--scale", "tiny",
            "--no-cache",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0.02" in out
