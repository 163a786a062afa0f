"""The shared driver of the tracked ``benchmarks/bench_<name>.py`` scripts.

Every case runs the real gate, identity rule and envelope of each script's
``BENCH`` spec on its committed ``BENCH_<name>.json`` rows, with the timed
grid replaced by those rows, so nothing here measures anything.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import harness  # noqa: E402

NAMES = ["pipeline", "parallel", "workflow", "enrichment", "serve", "incremental"]

#: Each committed file's headline ratio(s), at the precision the per-script
#: gates printed them before the harness replaced them.
COMMITTED_RATIOS = {
    "pipeline": {"nocomm/large/rcm/P16": (2.83, 2)},
    "parallel": {"nocomm/large/process-shm/P16": (2.29, 2), "nocomm/large/process/P4": (2.31, 2)},
    "workflow": {"CRE/large": (0.033, 3)},
    "enrichment": {"CRE/large": (0.0349, 4)},
    "serve": {"CRE/large": (0.00068, 5)},
    "incremental": {
        "CRE/large/single_sample": (13.2, 1),
        "CRE/large/single_annotation": (584.9, 1),
    },
}

#: Where the headline numerators live: (the fields a row must match, one
#: dict per gated kind; the timed field).
NUMERATORS = {
    "pipeline": ([dict(filter="nocomm", scale="large", ordering="rcm", n_partitions=16)], "seconds"),
    "parallel": (
        [
            dict(sampler="nocomm", scale="large", backend="process-shm", n_partitions=16),
            dict(sampler="nocomm", scale="large", backend="process", n_partitions=4),
        ],
        "seconds",
    ),
    "workflow": ([dict(scale="large", impl="csr")], "seconds"),
    "enrichment": ([dict(scale="large", impl="batched", backend="serial")], "seconds"),
    "serve": ([dict(scale="large", op="classify")], "warm_hit_p50"),
    "incremental": ([dict(scale="large")], "rebuild_seconds"),
}

#: One output-identity break per script that has one (pipeline has none):
#: (fields a row must match, field, the value that breaks identity).
BREAKS = {
    "parallel": (
        dict(sampler="nocomm", scale="large", backend="process", n_partitions=16),
        "edges_kept",
        -1,
    ),
    "workflow": (dict(scale="small", impl="csr"), "clusters_digest", "0"),
    "enrichment": (dict(scale="small", impl="batched", backend="serial"), "score_digest", "0"),
    "serve": (dict(scale="large", op="filter"), "identical", False),
    "incremental": (dict(scale="tiny", kind="single_term"), "identical", False),
}


def _bench(name: str) -> harness.Bench:
    return importlib.import_module(f"bench_{name}").BENCH


def _committed(name: str) -> dict:
    with (REPO_ROOT / f"BENCH_{name}.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def _rows(runs: list[dict], match: dict) -> list[dict]:
    rows = [r for r in runs if all(r.get(k) == v for k, v in match.items())]
    assert rows, f"no row matches {match}"
    return rows


def _headline_ratios(bench: harness.Bench, runs: list[dict]) -> dict[str, float]:
    cells = bench.cells(runs)
    return {cell: cells[cell][0] / cells[cell][1] for cell in bench.headline(list(cells))}


def _replayed(bench: harness.Bench, runs: list[dict]) -> harness.Bench:
    """The script's spec with its timed grid replaced by ``runs``."""
    return dataclasses.replace(bench, run=lambda quick: copy.deepcopy(runs))


@pytest.mark.parametrize("name", NAMES)
def test_committed_file_gates_against_itself(name, capsys):
    committed = _committed(name)
    assert harness.check(_bench(name), committed["runs"], committed, 0.25) == 0
    out = capsys.readouterr().out
    assert "relative 1.00" in out and "check: OK" in out


@pytest.mark.parametrize("name", NAMES)
def test_committed_headline_ratios_unchanged(name):
    ratios = _headline_ratios(_bench(name), _committed(name)["runs"])
    assert {cell: round(r, COMMITTED_RATIOS[name][cell][1]) for cell, r in ratios.items()} == {
        cell: value for cell, (value, _) in COMMITTED_RATIOS[name].items()
    }


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize(
    "move, expected", [(0.30, 1), (0.20, 0), (-0.30, 0)], ids=["worse30", "worse20", "better30"]
)
def test_gate_threshold(name, move, expected):
    bench, committed = _bench(name), _committed(name)
    # A speedup gets worse going down, an overhead ratio going up.
    factor = 1.0 - move if bench.higher_is_better else 1.0 + move
    fresh = copy.deepcopy(committed["runs"])
    matches, field = NUMERATORS[name]
    for match in matches:
        for row in _rows(fresh, match):
            row[field] *= factor
    old, new = _headline_ratios(bench, committed["runs"]), _headline_ratios(bench, fresh)
    assert {c: new[c] / old[c] for c in old} == pytest.approx({c: factor for c in old})
    assert harness.check(bench, fresh, committed, 0.25) == expected


@pytest.mark.parametrize("name", NAMES)
def test_disjoint_scales_exit_2(name):
    runs = _committed(name)["runs"]
    first = next(r["scale"] for r in runs if "scale" in r)
    fresh = [r for r in runs if r.get("scale", first) == first]
    committed = {"runs": [r for r in runs if r.get("scale") != first]}
    assert harness.check(_bench(name), fresh, committed, 0.25) == 2


@pytest.mark.parametrize("name", sorted(BREAKS))
@pytest.mark.parametrize("gated", [False, True], ids=["plain", "check"])
def test_identity_mismatch_fails_every_run(name, gated, tmp_path):
    committed = _committed(name)
    runs = copy.deepcopy(committed["runs"])
    match, field, broken = BREAKS[name]
    _rows(runs, match)[0][field] = broken
    bench = _bench(name)
    assert bench.mismatches(committed["runs"]) == []
    assert len(bench.mismatches(runs)) == 1
    out = tmp_path / "out.json"
    argv = ["--out", str(out)] + (["--check", str(REPO_ROOT / f"BENCH_{name}.json")] if gated else [])
    assert harness.main(_replayed(bench, runs), argv) == 1
    assert json.loads(out.read_text())["runs"] == runs


@pytest.mark.parametrize("name", NAMES)
def test_check_run_writes_fresh_file_and_keeps_committed(name, tmp_path, monkeypatch):
    committed_path = tmp_path / f"BENCH_{name}.json"
    committed_bytes = (REPO_ROOT / f"BENCH_{name}.json").read_bytes()
    committed_path.write_bytes(committed_bytes)
    committed = json.loads(committed_bytes)
    monkeypatch.chdir(tmp_path)
    bench = _replayed(_bench(name), committed["runs"])
    assert harness.main(bench, ["--check", committed_path.name]) == 0
    assert committed_path.read_bytes() == committed_bytes
    written = json.loads((tmp_path / f"bench_{name}_fresh.json").read_text())
    # Derived sections recompute from the rows; only provenance differs
    # (and pipeline's hand-merged baseline, which no run writes).
    provenance = {"created", "platform", "python", "cpu_count"}
    if name == "pipeline":
        provenance |= {"baseline", "speedup"}
    assert {k: v for k, v in committed.items() if k not in provenance} == {
        k: v for k, v in written.items() if k not in provenance
    }
    assert written["cpu_count"] >= 1


def test_interleaved_medians_alternates_order():
    seen: list[str] = []
    calls = {name: (lambda name=name: seen.append(name) or name) for name in "abc"}
    seconds, results = harness.interleaved_medians(calls, 3)
    assert seen == list("abccbaabc")
    assert results == {"a": "a", "b": "b", "c": "c"}
    assert set(seconds) == set("abc") and all(s >= 0 for s in seconds.values())



# ----------------------------------------------------------------------
# bench_parallel's two gated kinds
# ----------------------------------------------------------------------
def _parallel_runs(scales: set[str], drop_p4: bool = False) -> list[dict]:
    return [
        r
        for r in _committed("parallel")["runs"]
        if r["scale"] in scales
        and not (drop_p4 and r["backend"] == "process" and r["n_partitions"] == 4)
    ]


def test_parallel_headline_gates_the_largest_shared_scale_of_each_kind():
    bench = _bench("parallel")
    quick = _parallel_runs({"small", "medium"})
    cells = bench.cells(quick)
    assert bench.headline(list(cells)) == [
        "nocomm/medium/process-shm/P16",
        "nocomm/medium/process/P4",
    ]
    assert harness.check(bench, quick, _committed("parallel"), 0.25) == 0


@pytest.mark.parametrize("scale", ["small", "medium", "large"])
def test_parallel_p4_cell_is_process_p4_over_serial_p1(scale):
    # The ratio the retired scale-out gate measured, on the same networks.
    runs = _committed("parallel")["runs"]
    (p4,) = _rows(runs, dict(sampler="nocomm", scale=scale, backend="process", n_partitions=4))
    (p1,) = _rows(runs, dict(sampler="nocomm", scale=scale, backend="serial", n_partitions=1))
    assert _bench("parallel").cells(runs)[f"nocomm/{scale}/process/P4"] == (
        p4["seconds"],
        p1["seconds"],
    )


def test_parallel_gate_against_a_file_without_the_p4_cell(capsys):
    bench, runs = _bench("parallel"), _committed("parallel")["runs"]
    committed = {"runs": _parallel_runs({"small", "medium", "large"}, drop_p4=True)}
    assert harness.check(bench, runs, committed, 0.25) == 0
    out = capsys.readouterr().out
    assert "nocomm/large/process-shm/P16" in out and "process/P4" not in out
