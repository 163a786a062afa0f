"""Unit tests for the cost model, the per-rank RNG streams and the retry backoff."""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.parallel import runner

from repro.parallel import (
    CostModel,
    RankWork,
    derive_seed,
    efficiency,
    rank_rngs,
    speedup,
)


class TestCostModel:
    def test_zero_work_costs_startup_only(self):
        model = CostModel()
        assert model.execution_time([]) == pytest.approx(model.startup)

    def test_execution_time_is_max_over_ranks(self):
        model = CostModel()
        light = RankWork(edges_examined=10)
        heavy = RankWork(edges_examined=10_000)
        t_pair = model.execution_time([light, heavy])
        t_heavy = model.execution_time([heavy])
        assert t_pair == pytest.approx(t_heavy)

    def test_communication_adds_cost(self):
        model = CostModel()
        work = RankWork(edges_examined=100, border_edges=50, messages=3, items_sent=50, max_degree=5)
        assert model.rank_time(work, with_communication=True) > model.rank_time(work, with_communication=False)

    def test_border_quadratic_term(self):
        model = CostModel()
        small_b = RankWork(border_edges=10, max_degree=5)
        large_b = RankWork(border_edges=100, max_degree=5)
        ratio = model.rank_time(large_b, True) / max(model.rank_time(small_b, True), 1e-12)
        assert ratio > 50  # quadratic growth dominates the 10x border increase

    def test_duplicate_postprocess_charged(self):
        model = CostModel()
        base = model.execution_time([RankWork(edges_examined=10)], duplicate_border_edges=0)
        with_dups = model.execution_time([RankWork(edges_examined=10)], duplicate_border_edges=1000)
        assert with_dups > base


class TestSpeedup:
    def test_speedup_and_efficiency(self):
        times = {1: 8.0, 2: 4.0, 4: 2.0}
        s = speedup(times)
        assert s[4] == pytest.approx(4.0)
        e = efficiency(times)
        assert e[2] == pytest.approx(1.0)

    def test_speedup_requires_single_processor_baseline(self):
        with pytest.raises(ValueError):
            speedup({2: 1.0})

    def test_zero_time_gives_infinite_speedup(self):
        assert speedup({1: 1.0, 2: 0.0})[2] == float("inf")


class TestRankRng:
    def test_streams_are_reproducible(self):
        a = rank_rngs(42, 4)
        b = rank_rngs(42, 4)
        for ra, rb in zip(a, b):
            assert np.allclose(ra.random(5), rb.random(5))

    def test_streams_are_independent(self):
        rngs = rank_rngs(7, 3)
        draws = [r.random(8).tolist() for r in rngs]
        assert draws[0] != draws[1]
        assert draws[1] != draws[2]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rank_rngs(0, 0)

    def test_rank_stream_does_not_depend_on_the_rank_count(self):
        # A (seed, rank) pair names one stream, whatever the number of ranks.
        assert np.array_equal(rank_rngs(9, 4)[2].random(4), rank_rngs(9, 3)[2].random(4))

    def test_derive_seed_deterministic_and_label_sensitive(self):
        assert derive_seed(1, "CRE", "natural") == derive_seed(1, "CRE", "natural")
        assert derive_seed(1, "CRE", "natural") != derive_seed(1, "CRE", "rcm")


class TestPinnedStreams:
    """Exact expected values locking the per-rank RNG stream contract.

    The batch engine keys disk caches by seeds from :func:`derive_seed`, and
    the random-walk sampler's ``extra.rng_stream`` contract promises that a
    (seed, rank) pair names one specific stream on every platform and every
    execution backend.  ``SeedSequence`` and CRC32 are specified to be
    platform-independent, so these literals must never change; if one of
    these assertions fails, the stream derivation was altered and every
    cached batch result and pinned random-walk regression is invalid.
    """

    def test_derive_seed_pinned_values(self):
        assert derive_seed(1, "CRE", "natural") == 948365281
        assert derive_seed(1, "CRE", "rcm") == 2105863250
        assert derive_seed(0, "fig10", 0.1, "-") == 2710746459
        assert derive_seed(7, "YNG", 2, "x") == 769117927

    def test_rank_rngs_pinned_streams(self):
        expected = [
            [2136330838, 3937386175, 2497266888],
            [320815255, 2007857611, 783414414],
            [3020187126, 305970046, 3315550404],
            [3863084840, 3281066682, 3959326385],
        ]
        draws = [r.integers(0, 1 << 32, size=3).tolist() for r in rank_rngs(42, 4)]
        assert draws == expected

    def test_rank_rngs_pinned_uniforms(self):
        # The exact doubles rank 1 of 2 draws for seed 0 (the random-walk
        # sampler's border stream shape).
        values = rank_rngs(0, 2)[1].random(3)
        expected = [0.677196856975102, 0.242986748542821, 0.611763796321812]
        assert np.allclose(values, expected, rtol=0, atol=1e-15)


class TestBackoff:
    """The one retry schedule (runtime, serve client, ``repro request``)."""

    def test_first_delays_are_the_seeded_capped_exponential(self, monkeypatch):
        slept = []
        monkeypatch.setattr(runner, "time", SimpleNamespace(sleep=slept.append))
        rng = random.Random(runner.BACKOFF_SEED)
        delays = [runner.backoff(rng, attempt) for attempt in range(1, 7)]
        # The pinned schedule: 0.05 * 2**(n-1) s, capped at 2 s, times a
        # jitter in [0.5, 1) drawn from Random(0).
        jitter = random.Random(0)
        want = [min(2.0, 0.05 * 2 ** (n - 1)) * (0.5 + 0.5 * jitter.random()) for n in range(1, 7)]
        assert delays == want
        assert slept == want

    def test_the_cap_holds(self, monkeypatch):
        monkeypatch.setattr(runner, "time", SimpleNamespace(sleep=lambda _: None))
        rng = random.Random(runner.BACKOFF_SEED)
        assert max(runner.backoff(rng, attempt) for attempt in range(1, 20)) < 2.0
