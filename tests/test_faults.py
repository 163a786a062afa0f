"""Chaos tier: deterministic fault injection against the parallel runtime.

The contract under test — the tentpole of the fault-tolerance layer — is
that for any fault schedule that permits eventual success, the *supervised*
output is byte-identical to the fault-free run: retries resubmit clean
payloads, an SPMD round retries as one deterministic unit, and a degraded
backend computes the same result as the requested one.  Schedules are seeded
(``REPRO_CHAOS_SEED`` varies the victims in CI's chaos matrix) so every
failure is reproducible.

Also covered here: the fault plane's own mechanics, the zero-cost
guarantee of disabled injection sites, and the ``process`` aliases
(``process-shm``, ``process-sock``) under the same faults: they retry on
their own name, step down from the ``process`` rung, and leave no worker
behind after a kill → worker-respawn cycle.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.parallel_comm import parallel_chordal_comm_filter
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.expression.datasets import make_study
from repro.faults import (
    FaultError,
    FaultPlan,
    active_plan,
    clear_plan,
    current_plan,
    fault_point,
)
from repro.parallel.runner import (
    DeadRankError,
    WorkerPoolError,
    configure_supervision,
    parallel_map,
    pop_supervision_events,
    reset_supervision_counters,
    run_spmd,
    shutdown_worker_pool,
    supervision_counters,
    supervision_policy,
    worker_pool_size,
)
from repro.pipeline.workflow import filter_payload

#: CI's chaos matrix varies this to shift which victims the schedules pick.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
SCALE = 0.02

#: The backend names that run the ``process`` path under another name.
ALIASES = ["process-shm", "process-sock"]


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture(autouse=True)
def _fault_hygiene():
    """No plan, drained events, zeroed counters before and after every test."""
    clear_plan()
    pop_supervision_events()
    reset_supervision_counters()
    yield
    clear_plan()
    pop_supervision_events()


@pytest.fixture(autouse=True)
def _fast_failure_detection(monkeypatch):
    """Shrink drain grace + backoff so injected failures resolve quickly."""
    from repro.parallel import sock

    monkeypatch.setattr(sock, "SOCK_DRAIN_TIMEOUT", 0.5)
    old = supervision_policy()
    configure_supervision(backoff_base=0.01, backoff_max=0.05)
    yield
    configure_supervision(
        max_retries=old.max_retries,
        degrade=old.degrade,
        backoff_base=old.backoff_base,
        backoff_factor=old.backoff_factor,
        backoff_max=old.backoff_max,
        seed=old.seed,
    )


def _times_ten(item: int) -> int:
    return item * 10


def _rank_add(comm, offset: int) -> int:
    return comm.rank + offset


def _arr_sum(arr) -> float:
    return float(arr.sum())


def _degrades(events: list[dict]) -> list[tuple[str, str, str]]:
    return [(e["entry"], e["backend"], e["to"]) for e in events if e["action"] == "degrade"]


# ----------------------------------------------------------------------
# the fault plane itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_no_plan_sites_are_inert(self):
        assert current_plan() is None
        fault_point("pool.dispatch")  # no plan → returns immediately

    def test_fail_fires_at_scheduled_hit_only(self):
        plan = FaultPlan()
        plan.fail("demo.site", at=2)
        with active_plan(plan):
            fault_point("demo.site")  # hit 1: clean
            with pytest.raises(FaultError, match="demo.site"):
                fault_point("demo.site")  # hit 2: fires
            fault_point("demo.site")  # hit 3: budget spent
        assert plan.hits("demo.site") == 3
        assert [f.hit for f in plan.fired("demo.site")] == [2]
        assert plan.exhausted()

    def test_custom_exception_and_message(self):
        plan = FaultPlan().fail("demo.site", exc=OSError, message="no descriptors left")
        with active_plan(plan):
            with pytest.raises(OSError, match="no descriptors left"):
                fault_point("demo.site")

    def test_active_plan_clears_even_on_error(self):
        plan = FaultPlan().fail("demo.site")
        with pytest.raises(FaultError):
            with active_plan(plan):
                fault_point("demo.site")
        assert current_plan() is None

    def test_hook_receives_site_and_context(self):
        seen = []
        plan = FaultPlan().hook("demo.site", lambda site, ctx: seen.append((site, ctx)))
        with active_plan(plan):
            fault_point("demo.site", tag=42)
        assert seen == [("demo.site", {"tag": 42})]

    def test_disabled_sites_cost_nothing(self):
        # The production path is one module-global None check; pin that it
        # stays that cheap (bound is ~50x slack over the observed cost).
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            fault_point("pool.dispatch")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{n} disabled fault points took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# supervised parallel_map
# ----------------------------------------------------------------------
class TestSupervisedMap:
    ITEMS = [(i,) for i in range(6)]
    EXPECTED = [i * 10 for i in range(6)]

    def test_spawn_failure_is_retried(self):
        shutdown_worker_pool()  # the next map must actually spawn
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", exc=OSError)
        with active_plan(plan):
            assert parallel_map(_times_ten, self.ITEMS, backend="process") == self.EXPECTED
        assert plan.exhausted()
        events = pop_supervision_events()
        assert any(e["action"] == "retry" for e in events)
        assert supervision_counters()["retries"] >= 1
        shutdown_worker_pool()

    def test_persistent_spawn_failure_degrades_to_thread(self):
        shutdown_worker_pool()
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", times=99, exc=OSError)
        with active_plan(plan):
            out = parallel_map(
                _times_ten, self.ITEMS, backend="process", max_retries=1
            )
        assert out == self.EXPECTED
        degrades = [e for e in pop_supervision_events() if e["action"] == "degrade"]
        assert degrades and degrades[0]["to"] == "thread"
        assert supervision_counters()["degrades"] >= 1

    def test_no_degrade_raises_the_original_error(self):
        shutdown_worker_pool()
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", times=99, exc=OSError)
        with active_plan(plan):
            with pytest.raises(OSError):
                parallel_map(
                    _times_ten, self.ITEMS, backend="process",
                    max_retries=0, degrade=False,
                )

    def test_growth_spawn_failure_is_retried_on_the_warm_hub(self):
        shutdown_worker_pool()
        assert parallel_map(_times_ten, [(1,)], backend="process", processes=1) == [10]
        # Growing the warm hub crosses pool.spawn again, before any spawn.
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", exc=OSError)
        with active_plan(plan):
            out = parallel_map(_times_ten, self.ITEMS, backend="process", processes=2)
        assert out == self.EXPECTED
        assert plan.fired("pool.spawn")
        assert [e["action"] for e in pop_supervision_events()] == ["retry"]
        assert worker_pool_size() == 2
        shutdown_worker_pool()

    def test_killed_worker_retries_to_identical_result(self):
        plan = FaultPlan(CHAOS_SEED)
        victim = plan.rng.randrange(len(self.ITEMS))
        plan.kill_task(at=1, index=victim)
        with active_plan(plan):
            assert parallel_map(_times_ten, self.ITEMS, backend="process") == self.EXPECTED
        assert plan.fired("pool.dispatch")
        assert supervision_counters()["retries"] >= 1
        shutdown_worker_pool()


    @pytest.mark.parametrize("alias", ALIASES)
    def test_alias_spawn_failure_degrades_to_thread(self, alias):
        # An alias stands on the process rung: a hub that cannot come up
        # steps it down to thread, and the event names the alias asked for.
        shutdown_worker_pool()
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", times=99, exc=OSError)
        with active_plan(plan):
            out = parallel_map(_times_ten, self.ITEMS, backend=alias, max_retries=0)
        assert out == self.EXPECTED
        assert _degrades(pop_supervision_events()) == [("parallel_map", alias, "thread")]

    @pytest.mark.parametrize("alias", ALIASES)
    def test_alias_no_degrade_raises_the_original_error(self, alias):
        shutdown_worker_pool()
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", times=99, exc=OSError)
        with active_plan(plan):
            with pytest.raises(OSError):
                parallel_map(
                    _times_ten, self.ITEMS, backend=alias, max_retries=0, degrade=False
                )
        assert _degrades(pop_supervision_events()) == []


# ----------------------------------------------------------------------
# supervised run_spmd
# ----------------------------------------------------------------------
class TestSupervisedSpmd:
    def test_dead_rank_round_is_retried(self):
        plan = FaultPlan(CHAOS_SEED)
        plan.kill_rank(at=1, rank=plan.rng.randrange(3))
        with active_plan(plan):
            report = run_spmd(_rank_add, 3, args=(7,), backend="process")
        assert report.values == [7, 8, 9]
        assert supervision_counters()["retries"] >= 1

    def test_dead_rank_fails_fast_without_retries(self):
        plan = FaultPlan(CHAOS_SEED).kill_rank(at=1, rank=0)
        with active_plan(plan):
            with pytest.raises(DeadRankError, match="died without reporting"):
                run_spmd(_rank_add, 2, args=(1,), backend="process", max_retries=0)


    @pytest.mark.parametrize("alias", ALIASES)
    def test_alias_dead_rank_round_is_retried_on_the_alias(self, alias):
        plan = FaultPlan(CHAOS_SEED)
        plan.kill_rank(at=1, rank=plan.rng.randrange(3))
        with active_plan(plan):
            report = run_spmd(_rank_add, 3, args=(7,), backend=alias)
        assert report.values == [7, 8, 9]
        assert report.backend == alias
        retries = [e for e in pop_supervision_events() if e["action"] == "retry"]
        assert retries and {e["backend"] for e in retries} == {alias}

    @pytest.mark.parametrize("alias", ALIASES)
    def test_alias_bringup_failure_degrades_to_thread(self, alias):
        shutdown_worker_pool()
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", times=99, exc=OSError)
        with active_plan(plan):
            report = run_spmd(_rank_add, 3, args=(7,), backend=alias, max_retries=0)
        assert report.values == [7, 8, 9]
        assert report.backend == "thread"
        assert _degrades(pop_supervision_events()) == [("run_spmd", alias, "thread")]


# ----------------------------------------------------------------------
# byte identity through the real filter engines (the tentpole contract)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def network():
    return make_study("CRE", scale=SCALE).network()


class TestFilterByteIdentity:
    def test_nocomm_filter_identical_under_spawn_and_kill_faults(self, network):
        baseline = _canon(
            filter_payload(
                parallel_chordal_nocomm_filter(
                    network, 2, ordering="natural", backend="process"
                )
            )
        )
        pop_supervision_events()
        shutdown_worker_pool()
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", at=1, exc=OSError)
        plan.kill_task(at=1, index=plan.rng.randrange(2))
        with active_plan(plan):
            result = parallel_chordal_nocomm_filter(
                network, 2, ordering="natural", backend="process"
            )
        assert plan.fired(), "the schedule must actually have fired"
        assert _canon(filter_payload(result)) == baseline
        # The turbulence is visible in extra (excluded from the canonical
        # payload, so byte identity and observability coexist).
        assert result.extra.get("supervision")
        shutdown_worker_pool()

    def test_comm_filter_identical_under_dead_rank(self, network):
        baseline = _canon(
            filter_payload(
                parallel_chordal_comm_filter(
                    network, 2, ordering="natural", backend="process"
                )
            )
        )
        pop_supervision_events()
        plan = FaultPlan(CHAOS_SEED)
        plan.kill_rank(at=1, rank=plan.rng.randrange(2))
        with active_plan(plan):
            result = parallel_chordal_comm_filter(
                network, 2, ordering="natural", backend="process"
            )
        assert plan.fired("spmd.ranks")
        assert _canon(filter_payload(result)) == baseline
        assert result.extra.get("supervision")

    @pytest.mark.parametrize(
        "filter_fn,entry",
        [(parallel_chordal_nocomm_filter, "parallel_map"), (parallel_chordal_comm_filter, "run_spmd")],
        ids=["nocomm", "comm"],
    )
    def test_alias_bringup_failure_degrades_filter_to_thread(self, network, filter_fn, entry):
        # process-shm is the process path under another name: a hub that
        # cannot come up retries, then the ladder steps down to thread — and
        # the output cannot tell.
        baseline = _canon(filter_payload(filter_fn(network, 2, ordering="natural", backend="serial")))
        pop_supervision_events()
        shutdown_worker_pool()
        plan = FaultPlan(CHAOS_SEED).fail("pool.spawn", times=99, exc=OSError)
        with active_plan(plan):
            result = filter_fn(network, 2, ordering="natural", backend="process-shm")
        assert plan.fired("pool.spawn")
        assert _canon(filter_payload(result)) == baseline
        assert _degrades(result.extra["supervision"]) == [(entry, "process-shm", "thread")]


# ----------------------------------------------------------------------
# crash-safe batch cache (atomic publish + corruption quarantine)
# ----------------------------------------------------------------------
class TestBatchCacheCrashSafety:
    PAYLOAD = {"output": {"rows": [1, 2, 3]}, "spec": {"figure": "fig04"}}

    def test_crash_between_write_and_publish_leaves_no_entry(self, tmp_path):
        from repro.pipeline.batch import _load_cache, _write_cache

        path = str(tmp_path / "entry.json")
        plan = FaultPlan(CHAOS_SEED).fail("batch.cache_replace", exc=OSError)
        with active_plan(plan):
            with pytest.raises(OSError):
                _write_cache(path, self.PAYLOAD)
        # Neither a torn entry nor a stranded tmp file survives the crash.
        assert list(tmp_path.iterdir()) == []
        _write_cache(path, self.PAYLOAD)
        assert _load_cache(path) == self.PAYLOAD

    def test_corrupt_entry_is_quarantined_not_fatal(self, tmp_path, capsys):
        from repro.pipeline.batch import _load_cache

        path = tmp_path / "entry.json"
        path.write_text('{"output": truncated', encoding="utf-8")
        assert _load_cache(str(path)) is None
        assert not path.exists()
        assert (tmp_path / "entry.json.corrupt").exists()
        assert "quarantined corrupt cache entry" in capsys.readouterr().err

    def test_read_fault_quarantines_and_recomputes(self, tmp_path):
        from repro.pipeline.batch import _load_cache, _write_cache

        path = str(tmp_path / "entry.json")
        _write_cache(path, self.PAYLOAD)
        plan = FaultPlan(CHAOS_SEED).fail("batch.cache_read", exc=OSError)
        with active_plan(plan):
            assert _load_cache(path) is None  # injected I/O error → miss
            # The unreadable entry was moved aside; a clean rewrite restores it.
            _write_cache(path, self.PAYLOAD)
            assert _load_cache(path) == self.PAYLOAD


# ----------------------------------------------------------------------
# kill → respawn → shutdown under the process-shm alias
# ----------------------------------------------------------------------
class TestAliasLeakAccounting:
    def test_kill_respawn_cycle_under_alias_leaves_no_worker(self):
        # The alias runs the process path: a killed task is retried on a
        # respawned worker, and shutdown leaves no worker behind.
        arr = np.arange(1024, dtype=np.float64)
        items = [(arr,) for _ in range(4)]
        plan = FaultPlan(CHAOS_SEED)
        plan.kill_task(at=1, index=plan.rng.randrange(4))
        with active_plan(plan):
            out = parallel_map(_arr_sum, items, backend="process-shm")
        assert out == [float(arr.sum())] * 4
        assert supervision_counters()["retries"] >= 1
        assert worker_pool_size() > 0  # the respawned hub is alive
        shutdown_worker_pool()
        assert worker_pool_size() == 0


class TestIncrementalFaults:
    """Failed delta updates degrade to the reference rebuild, byte-identically."""

    def test_delta_fault_falls_back_to_reference_rebuild(self):
        from repro.incremental import UpdateSpec, apply_update
        from repro.pipeline.workflow import analysis_payload, analyze_filter, prepare_dataset

        spec = UpdateSpec(add_samples=1, add_annotations=2, seed=CHAOS_SEED)
        clean = prepare_dataset("YNG", scale=SCALE)
        clean, clean_report = apply_update(clean, spec)
        assert clean_report.mode == "delta"

        bundle = prepare_dataset("YNG", scale=SCALE)
        with active_plan(FaultPlan(seed=CHAOS_SEED).fail("incremental.delta")) as plan:
            bundle, report = apply_update(bundle, spec)
        assert plan.fired("incremental.delta")
        assert report.mode == "rebuild"
        assert _canon(analysis_payload(analyze_filter(bundle))) == _canon(
            analysis_payload(analyze_filter(clean))
        )

    def test_delta_fault_propagates_without_fallback(self):
        from repro.incremental import UpdateSpec, apply_update
        from repro.pipeline.workflow import prepare_dataset

        bundle = prepare_dataset("YNG", scale=SCALE)
        with active_plan(FaultPlan(seed=CHAOS_SEED).fail("incremental.delta")):
            with pytest.raises(FaultError):
                apply_update(bundle, UpdateSpec(add_annotations=1), fallback=False)

    def test_serve_update_fault_degrades_to_rebuild(self):
        from repro.serve import ReproServer, ServeClient

        with ReproServer(default_scale=SCALE, workers=1) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as c:
                c.result("ping")
                clean = None
                with ReproServer(default_scale=SCALE, workers=1) as twin:
                    with ServeClient(port=twin.port, timeout=600.0) as tc:
                        tc.result("update", dataset="YNG", add_genes=2, seed=3)
                        clean = tc.result("classify", dataset="YNG", method="chordal")
                with active_plan(
                    FaultPlan(seed=CHAOS_SEED).fail("serve.update")
                ) as plan:
                    up = c.result("update", dataset="YNG", add_genes=2, seed=3)
                assert plan.fired("serve.update")
                assert up["mode"] == "rebuild"
                # the fallback rebuild reaches the same logical state the
                # unfaulted delta path produces on the twin server
                assert c.result("classify", dataset="YNG", method="chordal") == clean
                assert c.result("datasets")[0]["health"] == "healthy"
