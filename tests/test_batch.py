"""Tests for the batched experiment engine (specs, hashing, cache, dedup)."""

from __future__ import annotations

import json

import pytest

from repro.pipeline import batch as b
from repro.pipeline.batch import BatchRunResult, RunSpec, run_batch


@pytest.fixture
def fake_driver(monkeypatch):
    """Install a cheap instrumented driver under the name 'fakefig'."""
    calls: list[dict] = []

    def driver(scale=None, ordering="natural", seed=0):
        calls.append({"scale": scale, "ordering": ordering, "seed": seed})
        return {"rows": [{"scale": scale, "ordering": ordering, "seed": seed}]}

    monkeypatch.setitem(b.DRIVERS, "fakefig", driver)
    return calls


class TestRunSpec:
    def test_create_normalises(self):
        spec = RunSpec.create("FIG04", "tiny", ordering="natural")
        assert spec.figure == "fig04"
        assert spec.scale == 0.02
        assert spec.params == ()

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            RunSpec.create("fig99", 0.1)

    def test_hash_stable_and_param_order_insensitive(self):
        a = RunSpec.create("fig04", 0.1, datasets=["YNG"], orderings=["rcm"])
        c = RunSpec.create("fig04", 0.1, orderings=["rcm"], datasets=["YNG"])
        assert a.spec_hash() == c.spec_hash()
        assert len(a.spec_hash()) == 16

    def test_hash_differs_across_axes(self):
        base = RunSpec.create("fig04", 0.1)
        assert base.spec_hash() != RunSpec.create("fig05", 0.1).spec_hash()
        assert base.spec_hash() != RunSpec.create("fig04", 0.2).spec_hash()
        assert base.spec_hash() != RunSpec.create("fig04", 0.1, ordering="rcm").spec_hash()

    def test_parse_scale(self):
        assert b.parse_scale("tiny") == 0.02
        assert b.parse_scale("0.25") == 0.25
        with pytest.raises(ValueError):
            b.parse_scale("-1")


class TestEngine:
    def test_runs_and_caches(self, fake_driver, tmp_path):
        spec = RunSpec.create("fakefig", 0.5, ordering="rcm", seed=9)
        first = run_batch([spec], cache_dir=str(tmp_path))
        assert [r.status for r in first] == ["ran"]
        assert first[0].output == {"rows": [{"scale": 0.5, "ordering": "rcm", "seed": 9}]}
        assert len(fake_driver) == 1
        cache_files = list(tmp_path.glob("fakefig__*.json"))
        assert len(cache_files) == 1
        payload = json.loads(cache_files[0].read_text())
        assert payload["spec"]["figure"] == "fakefig"

        second = run_batch([spec], cache_dir=str(tmp_path))
        assert [r.status for r in second] == ["cached"]
        assert second[0].output == first[0].output
        assert len(fake_driver) == 1  # no re-run

    def test_force_reruns(self, fake_driver, tmp_path):
        spec = RunSpec.create("fakefig", 0.5, seed=1)
        run_batch([spec], cache_dir=str(tmp_path))
        run_batch([spec], cache_dir=str(tmp_path), force=True)
        assert len(fake_driver) == 2

    def test_duplicates_collapse(self, fake_driver):
        spec = RunSpec.create("fakefig", 0.5, seed=1)
        results = run_batch([spec, spec, spec], cache_dir=None)
        assert len(results) == 3
        assert len(fake_driver) == 1
        assert all(r.output == results[0].output for r in results)

    def test_derived_seeds_are_deterministic_and_distinct(self, fake_driver):
        specs = [
            RunSpec.create("fakefig", 0.5, ordering="natural"),
            RunSpec.create("fakefig", 0.5, ordering="rcm"),
        ]
        results = run_batch(specs, cache_dir=None, root_seed=42)
        seeds = [c["seed"] for c in fake_driver]
        assert len(set(seeds)) == 2  # independent streams per cell
        fake_driver.clear()
        again = run_batch(specs, cache_dir=None, root_seed=42)
        assert [c["seed"] for c in fake_driver] == seeds
        assert [r.output for r in again] == [r.output for r in results]

    def test_explicit_seed_wins(self, fake_driver):
        run_batch([RunSpec.create("fakefig", 0.5, seed=77)], cache_dir=None)
        assert fake_driver[0]["seed"] == 77

    def test_seed_rejected_for_seedless_driver(self):
        with pytest.raises(ValueError):
            run_batch([RunSpec.create("fig04", 0.02, seed=1)], cache_dir=None)

    def test_failures_are_reported_not_raised(self, monkeypatch, fake_driver):
        def boom(scale=None):
            raise RuntimeError("no data")

        monkeypatch.setitem(b.DRIVERS, "boomfig", boom)
        results = run_batch(
            [RunSpec.create("boomfig", 0.5), RunSpec.create("fakefig", 0.5, seed=0)],
            cache_dir=None,
        )
        assert [r.status for r in results] == ["failed", "ran"]
        assert "RuntimeError" in results[0].error

    def test_corrupt_cache_entry_is_rerun(self, fake_driver, tmp_path):
        spec = RunSpec.create("fakefig", 0.5, seed=1)
        run_batch([spec], cache_dir=str(tmp_path))
        path = next(tmp_path.glob("fakefig__*.json"))
        path.write_text("{not json")
        results = run_batch([spec], cache_dir=str(tmp_path))
        assert results[0].status == "ran"
        assert len(fake_driver) == 2

    def test_row_shape(self, fake_driver):
        (result,) = run_batch([RunSpec.create("fakefig", 0.5, seed=2)], cache_dir=None)
        row = result.row()
        assert row["figure"] == "fakefig"
        assert row["status"] == "ran"
        assert isinstance(result, BatchRunResult)

    def test_jsonify_handles_numpy_and_tuples(self):
        import numpy as np

        out = b._jsonify({"a": np.float64(1.5), "b": (1, 2), 3: {4: np.int32(7)}})
        assert out == {"a": 1.5, "b": [1, 2], "3": {"4": 7}}

    def test_real_driver_smoke(self, tmp_path, fresh_bundle_cache):
        """One real figure at tiny scale exercises the driver-kwarg plumbing."""
        (result,) = run_batch(
            [RunSpec.create("fig09", 0.02, ordering="high_degree")],
            cache_dir=str(tmp_path),
        )
        assert result.status == "ran"
        assert "best_improvement" in result.output
        (cached,) = run_batch(
            [RunSpec.create("fig09", 0.02, ordering="high_degree")],
            cache_dir=str(tmp_path),
        )
        assert cached.status == "cached"
        assert cached.output == result.output
