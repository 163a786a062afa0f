"""Incremental recompute engine: delta updates pinned to the cold oracle.

The contract under test is byte-identity: every canonical payload served from
a warm bundle that absorbed a sequence of delta updates must equal the payload
of a from-scratch build that replays the same update log through the cold
reference paths (``replay_reference``).  The schedule grid randomises the
*kind* ordering and sizes, so structural-sharing shortcuts (standardisation
memos, correlation tile deltas, term-index extensions, pair-table remaps,
reused cluster state) are exercised in interleaved combinations, not one at a
time.  The one-derivation rebuild (``replay_updates``, what a serve reload
runs) is pinned to the same oracle, layer by layer.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.expression.correlation import (
    correlated_pair_arrays,
    correlated_pair_arrays_delta,
)
from repro.faults import FaultPlan, active_plan
from repro.incremental import (
    UpdateSpec,
    apply_update,
    reference_apply_update,
    replay_reference,
    replay_updates,
    synthesize_update,
)
from repro.pipeline.workflow import (
    analysis_payload,
    analyze_filter,
    filter_payload,
    prepare_dataset,
)
from repro.serve import ReproServer, ServeClient, ServeError

SCALE = 0.02


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _classify_bytes(bundle, method: str = "chordal", seed: int = 0) -> str:
    return _canon(analysis_payload(analyze_filter(bundle, method=method, seed=seed)))


def _filter_bytes(bundle, method: str = "chordal", seed: int = 0) -> str:
    analysis = analyze_filter(bundle, method=method, seed=seed)
    return _canon(filter_payload(analysis.result, include_edges=True))


#: One spec per update kind, plus a mixed one — the grid draws from these.
KINDS = {
    "samples": dict(add_samples=2),
    "genes": dict(add_genes=3),
    "annotations": dict(add_annotations=4),
    "terms": dict(add_terms=2),
    "mixed": dict(add_samples=1, add_genes=2, add_annotations=2, add_terms=1),
}


def _mixed_log(seed: int, length: int = 8) -> list[UpdateSpec]:
    """A seeded log holding every kind of :data:`KINDS` at least once."""
    rng = random.Random(seed)
    kinds = list(KINDS) + [rng.choice(list(KINDS)) for _ in range(length - len(KINDS))]
    rng.shuffle(kinds)
    return [UpdateSpec(seed=1000 * seed + i, **KINDS[k]) for i, k in enumerate(kinds)]


def _state(bundle) -> tuple:
    """Every layer of a bundle, down to float bits and neighbour order."""
    matrix = bundle.study.matrix
    net, csr = bundle.network, bundle.network_csr
    dag = bundle.scorer.dag
    index = bundle.scorer.annotations.indexed()
    return (
        matrix.values.dtype.str,
        matrix.values.shape,
        matrix.values.tobytes(),
        tuple(matrix.genes),
        tuple(matrix.samples),
        tuple(matrix.conditions or ()),
        [
            (v, [(u, float(net.edge_attr(v, u, "rho")).hex()) for u in net.neighbors(v)])
            for v in net.vertices()
        ],
        csr.indptr.tobytes(),
        csr.indices.tobytes(),
        csr.labels,
        [(c.members, c.score.hex(), c.seed) for c in bundle.original_clusters],
        [(t, tuple(dag.term(t).parents)) for t in dag.terms()],
        index.genes,
        index.indptr.tobytes(),
        index.term_ids.tobytes(),
        bundle.generation,
        bundle.dirty,
    )


# ----------------------------------------------------------------------
# layer-level deltas
# ----------------------------------------------------------------------
class TestExpressionDeltas:
    def test_with_genes_extends_standardized_memo(self):
        matrix = prepare_dataset("YNG", scale=SCALE).study.matrix
        warm = matrix.standardized()  # prime the memo
        rng = np.random.default_rng(5)
        extra = rng.normal(size=(3, matrix.n_samples))
        extra[2, :] = 1.25  # zero-variance row exercises the std>0 guard
        grown = matrix.with_genes(extra, ["GX1", "GX2", "GX3"])
        assert grown._standardized is not None  # delta-extended, not dropped
        cold = type(matrix)(
            values=grown.values.copy(),
            genes=grown.genes,
            samples=grown.samples,
            conditions=grown.conditions,
        ).standardized()
        np.testing.assert_array_equal(grown.standardized().values, cold.values)
        # prefix rows are the memo's arrays, shared structurally
        np.testing.assert_array_equal(grown.standardized().values[: matrix.n_genes], warm.values)

    def test_with_samples_drops_memo(self):
        matrix = prepare_dataset("YNG", scale=SCALE).study.matrix
        matrix.standardized()
        grown = matrix.with_samples(
            np.ones((matrix.n_genes, 1)), ["SX1"]
        )
        assert grown._standardized is None  # every row's mean/std changed

    @pytest.mark.parametrize("block_size", [7, 64, 2048])
    def test_pair_delta_matches_cold(self, block_size):
        matrix = prepare_dataset("YNG", scale=SCALE).study.matrix
        old_n = matrix.n_genes
        cached = correlated_pair_arrays(matrix, block_size=block_size)
        rng = np.random.default_rng(11)
        grown = matrix.with_genes(
            rng.normal(size=(5, matrix.n_samples)), [f"GD{i}" for i in range(5)]
        )
        ii, jj, rho = correlated_pair_arrays_delta(
            grown, old_n, cached, block_size=block_size
        )
        cii, cjj, crho = correlated_pair_arrays(grown, block_size=block_size)
        np.testing.assert_array_equal(ii, cii)
        np.testing.assert_array_equal(jj, cjj)
        np.testing.assert_array_equal(rho, crho)


# ----------------------------------------------------------------------
# engine-level identity
# ----------------------------------------------------------------------
class TestUpdateScheduleGrid:
    @pytest.mark.parametrize("grid_seed", [0, 1, 2])
    def test_interleaved_schedule_matches_reference_at_every_step(self, grid_seed):
        """Randomised schedules: each intermediate state equals a cold replay."""
        rng = random.Random(grid_seed)
        kinds = list(KINDS)
        schedule = [rng.choice(kinds) for _ in range(4)]
        bundle = prepare_dataset("YNG", scale=SCALE)
        history: list[UpdateSpec] = []
        for step, kind in enumerate(schedule):
            spec = UpdateSpec(seed=100 * grid_seed + step, **KINDS[kind])
            bundle, report = apply_update(bundle, spec, history=history)
            history.append(spec)
            assert report.mode == "delta", (kind, step)
            reference = replay_reference("YNG", SCALE, None, history)
            assert _classify_bytes(bundle) == _classify_bytes(reference), (kind, step)
        # and the filter payload (inlined edge list) of the final state
        reference = replay_reference("YNG", SCALE, None, history)
        assert _filter_bytes(bundle) == _filter_bytes(reference)

    def test_annotation_only_update_reuses_network_state(self):
        bundle = prepare_dataset("YNG", scale=SCALE)
        net0, csr0, clusters0 = bundle.network, bundle.network_csr, bundle.original_clusters
        bundle, report = apply_update(bundle, UpdateSpec(add_annotations=3, seed=1))
        assert report.dirty == frozenset({"annotations"})
        assert bundle.network is net0
        assert bundle.network_csr is csr0
        assert bundle.original_clusters is clusters0
        assert bundle.generation == 1

    def test_synthesize_update_is_deterministic(self):
        bundle = prepare_dataset("YNG", scale=SCALE)
        spec = UpdateSpec(add_samples=1, add_genes=2, add_annotations=2, seed=9)
        a = synthesize_update(bundle, spec)
        b = synthesize_update(bundle, spec)
        np.testing.assert_array_equal(a.sample_values, b.sample_values)
        np.testing.assert_array_equal(a.gene_values, b.gene_values)
        assert a.sample_names == b.sample_names
        assert a.gene_names == b.gene_names
        assert a.term_specs == b.term_specs
        assert a.annotation_specs == b.annotation_specs

    def test_reference_apply_matches_delta_apply(self):
        spec = UpdateSpec(add_samples=1, add_genes=1, add_terms=1, seed=3)
        warm = prepare_dataset("YNG", scale=SCALE)
        cold = prepare_dataset("YNG", scale=SCALE)
        warm, _ = apply_update(warm, spec)
        cold = reference_apply_update(cold, synthesize_update(cold, spec))
        assert _classify_bytes(warm) == _classify_bytes(cold)


# ----------------------------------------------------------------------
# one-derivation rebuild
# ----------------------------------------------------------------------
class TestReplayUpdates:
    @pytest.mark.parametrize("dataset,log_seed", [("YNG", 0), ("CRE", 1)])
    def test_every_prefix_matches_reference(self, dataset, log_seed):
        """N = 0..8 over a mixed log: every layer equals the per-step oracle."""
        log = _mixed_log(log_seed)
        # The walk is replay_reference's own body, so each prefix's oracle
        # state is reached once instead of being replayed from scratch.
        reference = prepare_dataset(dataset, scale=SCALE)
        for n in range(len(log) + 1):
            if n:
                spec = log[n - 1]
                reference = reference_apply_update(
                    reference, synthesize_update(reference, spec)
                )
            rebuilt = replay_updates(dataset, SCALE, None, log[:n])
            assert _state(rebuilt) == _state(reference), n
            if n == 0:
                assert _classify_bytes(rebuilt) == _classify_bytes(reference)
                assert _filter_bytes(rebuilt) == _filter_bytes(reference)
        oracle = replay_reference(dataset, SCALE, None, log)
        assert _classify_bytes(rebuilt) == _classify_bytes(oracle)
        assert _filter_bytes(rebuilt) == _filter_bytes(oracle)

    def test_one_derivation_whatever_the_log_length(self, monkeypatch):
        """One correlation pass and one original MCODE run for 8 specs."""
        import repro.expression.datasets as datasets
        import repro.incremental as incremental
        import repro.pipeline.workflow as workflow

        calls = {"correlation": 0, "mcode": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            datasets,
            "correlated_pair_arrays",
            counted("correlation", datasets.correlated_pair_arrays),
        )
        for module in (workflow, incremental):
            monkeypatch.setattr(
                module, "mcode_clusters", counted("mcode", module.mcode_clusters)
            )
        log = _mixed_log(0)
        assert any(s.add_samples for s in log) and any(s.add_genes for s in log)
        replay_updates("YNG", SCALE, None, log)
        assert calls == {"correlation": 1, "mcode": 1}
        # The oracle derives after every spec: once cold plus once per spec.
        calls.update(correlation=0, mcode=0)
        replay_reference("YNG", SCALE, None, log)
        assert calls == {"correlation": len(log) + 1, "mcode": len(log) + 1}

    def test_delta_fallback_rebuilds_to_the_oracle(self):
        spec = UpdateSpec(add_genes=2, add_terms=1, seed=4)
        history = [UpdateSpec(add_samples=1, add_annotations=2, seed=3)]
        bundle = replay_updates("YNG", SCALE, None, history)
        with active_plan(FaultPlan(seed=0).fail("incremental.delta")):
            bundle, report = apply_update(bundle, spec, history=history)
        assert report.mode == "rebuild"
        assert bundle.generation == 2
        reference = replay_reference("YNG", SCALE, None, history + [spec])
        assert _state(bundle) == _state(reference)


# ----------------------------------------------------------------------
# serve-level warm updates
# ----------------------------------------------------------------------
class TestServeUpdate:
    def test_warm_update_matches_reload_and_scopes_cache(self):
        with ReproServer(default_scale=SCALE, workers=2, max_pending=16) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as c:
                f0 = c.result("filter", dataset="YNG", method="chordal")
                c.result("classify", dataset="YNG", method="chordal")

                up = c.result("update", dataset="YNG", add_annotations=2, seed=5)
                assert up["mode"] == "delta"
                assert up["dirty"] == ["annotations"]
                assert up["network_generation"] == 0
                assert up["ontology_generation"] == 1
                # annotation-only update: filter entries stay valid (cache hit,
                # identical bytes) while classify recomputes
                r = c.request("filter", dataset="YNG", method="chordal")
                assert r["cached"] is True
                assert r["result"] == f0
                assert (
                    c.request("classify", dataset="YNG", method="chordal")["cached"]
                    is False
                )

                up2 = c.result("update", dataset="YNG", add_samples=1, add_genes=1)
                assert up2["mode"] == "delta"
                assert up2["network_generation"] == 1
                warm_filter = c.result("filter", dataset="YNG", method="chordal")
                warm_classify = c.result("classify", dataset="YNG", method="chordal")
                assert warm_filter != f0

                # reload replays the absorbed update log from cold: identical state
                rel = c.result("reload", dataset="YNG")
                assert rel["generation"] == 1
                assert c.result("filter", dataset="YNG", method="chordal") == warm_filter
                assert (
                    c.result("classify", dataset="YNG", method="chordal")
                    == warm_classify
                )

                summary = c.result("datasets")[0]
                assert summary["updates"] == 2
                assert summary["health"] == "healthy"

    def test_reload_matches_reference_replay(self):
        """A reload after a mixed log serves the oracle's bytes."""
        log = [
            UpdateSpec(add_samples=1, seed=1),
            UpdateSpec(add_genes=2, seed=2),
            UpdateSpec(add_terms=2, seed=3),
            UpdateSpec(add_annotations=3, seed=4),
            UpdateSpec(add_samples=1, add_genes=1, add_annotations=2, add_terms=1, seed=5),
        ]
        with ReproServer(default_scale=SCALE, workers=2) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as c:
                for spec in log:
                    up = c.result(
                        "update",
                        dataset="CRE",
                        add_samples=spec.add_samples,
                        add_genes=spec.add_genes,
                        add_annotations=spec.add_annotations,
                        add_terms=spec.add_terms,
                        seed=spec.seed,
                    )
                    assert up["mode"] == "delta"
                before = c.result("stats")["datasets"][0]
                assert c.result("reload", dataset="CRE")["generation"] == (
                    before["generation"] + 1
                )
                classify = c.result("classify", dataset="CRE", method="chordal")
                filtered = c.result(
                    "filter", dataset="CRE", method="chordal", include_edges=True
                )
                after = c.result("stats")["datasets"][0]
        oracle = replay_reference("CRE", SCALE, None, log)
        assert _canon(classify) == _classify_bytes(oracle)
        assert _canon(filtered) == _filter_bytes(oracle)
        assert after["updates"] == before["updates"] == len(log)
        assert after["generation"] == before["generation"] + 1
        assert after["health"] == "healthy"

    def test_noop_update_is_rejected(self):
        with ReproServer(default_scale=SCALE, workers=1) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as c:
                with pytest.raises(ServeError):
                    c.result("update", dataset="YNG")
                with pytest.raises(ServeError):
                    c.result("update", dataset="YNG", add_samples=-1)
                with pytest.raises(ServeError):
                    c.result("update", dataset="YNG", add_samples=1, bogus=2)
