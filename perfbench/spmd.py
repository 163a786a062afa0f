"""``spmd_sweep``: the paper's filters on real processes at paper scale.

A sweep is 4 orderings x {``chordal``, ``chordal_comm``} at two partitions
on ``backend="process"``, through ``apply_filter``, over the scale-1.0 CRE
network; the seed orders each sweep.  This is the real-core path of the
paper's parallel claim, where worker bring-up and re-import dominate; the
``serial`` backend runs none of it.  Every spec must reproduce the serial
backend's committed edge digest, and no supervised retry or degrade may
have stood in for the ``process`` backend.

Metrics: ``setup_s`` is warming the process pool from cold (the scale-1.0
network is built once per run as the input; its cost shows in
``cold_analyze``); ``primary_s`` / ``secondary_s`` are the median ``chordal_comm`` run (ranks
spawned per round) / ``chordal`` run (pooled workers); ``ops_per_s`` is
filter runs per second of sweep time; ``peak_rss_mb`` is this process's
peak RSS, which holds the network and the serial parts of every run.
Times are in reference-machine seconds (see :class:`common.Clock`).
"""

from __future__ import annotations

import os
import random
import resource
import time
from typing import Any

from common import Clock, Tally, median, metric

ORDERINGS = ("natural", "high_degree", "low_degree", "rcm")
METHODS = ("chordal", "chordal_comm")
SPECS = tuple((o, m) for o in ORDERINGS for m in METHODS)
N_PARTITIONS = 2
SETUP_REPEATS = 3
#: One sweep takes about 15 s on the reference 2-core machine; a run holds
#: one sweep per 10 s of ``--seconds``.
SWEEP_SECONDS = 10.0


def build_network():
    from repro.expression.datasets import make_study

    return make_study("CRE", scale=1.0).network()


def warm_pool() -> None:
    from repro.parallel.runner import parallel_map

    parallel_map(os.getpid, [()] * N_PARTITIONS, backend="process", processes=N_PARTITIONS)


def run_spec(network, ordering: str, method: str, backend: str):
    from repro.core.sampling import apply_filter

    return apply_filter(
        network, method=method, ordering=ordering, n_partitions=N_PARTITIONS, backend=backend
    )


def check_spec(result, ordering: str, method: str, tally: Tally, oracle: dict[str, Any]) -> None:
    from repro.pipeline.workflow import filter_payload

    digest = filter_payload(result)["edges_sha256"]
    expected = oracle["spmd_sweep"][f"{ordering}/{method}"]
    tally.check(digest == expected, f"{ordering}/{method}: edges {digest} != {expected}")
    supervision = result.extra.get("supervision")
    tally.check(not supervision, f"{ordering}/{method}: supervised {supervision}")
    backend = str(result.extra.get("backend"))
    if backend != "serial":
        # ``process`` must keep meaning real processes, whatever it aliases.
        tally.check(backend.startswith("process"), f"{ordering}/{method}: ran on {backend}")


def rank_noop(comm: Any) -> int:
    return comm.rank


def run(seed: int, seconds: int, tally: Tally, oracle: dict[str, Any]) -> tuple[dict, dict]:
    from repro.parallel.runner import shutdown_worker_pool, supervision_counters

    rng = random.Random(seed)
    counters_before = supervision_counters()
    clock = Clock()
    start = time.perf_counter()
    network = build_network()
    network_s = time.perf_counter() - start

    setups = []
    clock.calibrate()
    for _ in range(SETUP_REPEATS):
        shutdown_worker_pool()
        start = time.perf_counter()
        warm_pool()
        setups.append(time.perf_counter() - start)

    walls: dict[str, list[float]] = {m: [] for m in METHODS}
    sweeps = []
    for _ in range(max(1, round(seconds / SWEEP_SECONDS))):
        order = list(SPECS)
        rng.shuffle(order)
        sweep = 0.0
        for i, (ordering, method) in enumerate(order):
            if i % 2 == 0:
                clock.calibrate()
            start = time.perf_counter()
            result = run_spec(network, ordering, method, "process")
            wall = time.perf_counter() - start
            walls[method].append(wall)
            sweep += wall
            check_spec(result, ordering, method, tally, oracle)
        sweeps.append(sweep)
    shutdown_worker_pool()
    clock.calibrate()
    k = clock.factor

    counters_after = supervision_counters()
    tally.check(
        counters_after == counters_before,
        f"supervision counters moved: {counters_before} -> {counters_after}",
    )
    metrics = {
        "setup_s": metric(k * median(setups), "s"),
        "primary_s": metric(k * median(walls["chordal_comm"]), "s"),
        "secondary_s": metric(k * median(walls["chordal"]), "s"),
        "ops_per_s": metric(len(sweeps) * len(SPECS) / sum(sweeps) / k, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "network_build_s": network_s,
        "spmd_sweep_s": sweeps,
        "spmd_comm_s": walls["chordal_comm"],
        "spmd_nocomm_s": walls["chordal"],
        "setup_s": setups,
        "calibration_s": clock.samples,
    }
    return metrics, detail
