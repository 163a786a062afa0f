#!/usr/bin/env python
"""Execution-backend benchmark: serial vs thread vs process (and process-shm).

Times the parallel chordal samplers under every execution backend of
:func:`repro.parallel.runner.available_backends` across dataset scales and
partition counts, and writes the measured trajectory to
``BENCH_parallel.json``.  Where ``bench_pipeline.py`` tracks the end-to-end
filter latency of the index-native pipeline, this harness isolates the
*execution layer*: the same rank computation run under each backend —

* ``serial``      — in-process loop (the deterministic reference),
* ``thread``      — one GIL-bound thread per rank,
* ``process``     — resident worker processes, rank payloads pickled over
  the socket hub's TCP wire (``process-sock`` is an alias, not timed apart),
* ``process-shm`` — an alias of ``process`` since the shared-memory payload
  path was folded into it; its rows (and the headline and gate built on
  them) now time the ``process`` path again, kept so the committed
  trajectory and its gate stay comparable until the file is re-recorded.

Because the backends compute identical results, every (sampler, scale, P)
group is also an output-invariance check: the run fails outright when
``edges_kept`` differs inside a group.  Backends are measured interleaved
and reported as medians (:func:`harness.interleaved_medians`).  Flags,
envelope and ``--check`` come from :mod:`harness`.

JSON schema (``bench_parallel/v1``) extras::

    {
      "runs": [ {"sampler", "scale", "backend", "ordering", "n_partitions",
                 "n_vertices", "n_edges", "repeats", "seconds",
                 "edges_kept"} ],
      "headline": {"cell", "process_seconds", "process_shm_seconds",
                   "shm_speedup", "edges_kept_identical"}
    }

``--check`` gates two ratios over the same run's ``serial`` P1 time, each
at the largest scale both files share: the ``process-shm`` P16 time and
the ``process`` P4 time.  Each is the execution layer's overhead on top of
one serial pass, with machine speed cancelled.  It does not cancel core
topology (a P16 run on one core serialises the ranks a many-core box
overlaps), so the gate is calibrated for same-topology comparisons.
"""

from __future__ import annotations

import os
from multiprocessing import cpu_count
from typing import Any, Callable, Optional

import harness
from repro.core.parallel_comm import parallel_chordal_comm_filter
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.graph.generators import correlation_like_graph
from repro.parallel.runner import parallel_map, shutdown_worker_pool

ORDERING = "rcm"  # the headline ordering of the pipeline benchmark

#: Benchmark networks, shared with bench_pipeline.py so trajectories align.
SCALES: dict[str, dict[str, int]] = {
    "small": dict(n_modules=4, module_size=10, n_background=200),
    "medium": dict(n_modules=8, module_size=12, n_background=800),
    "large": dict(n_modules=16, module_size=14, n_background=2800),
}
SCALE_ORDER = ["small", "medium", "large"]

NOCOMM_BACKENDS = ["serial", "thread", "process", "process-shm"]


def _filter_call(sampler: str) -> Callable[..., Any]:
    if sampler == "nocomm":
        return lambda g, P, backend: parallel_chordal_nocomm_filter(
            g, P, ordering=ORDERING, backend=backend
        )
    return lambda g, P, backend: parallel_chordal_comm_filter(
        g, P, ordering=ORDERING, backend=backend
    )


def _groups(quick: bool) -> list[dict[str, Any]]:
    """Measurement groups: same (sampler, scale, P), several backends."""
    scales = ["small", "medium"] if quick else SCALE_ORDER
    groups: list[dict[str, Any]] = []
    for scale in scales:
        # The serial P1 base every check run normalizes against.
        groups.append(dict(sampler="nocomm", scale=scale, P=1, backends=["serial"], repeats=5))
        for P in (4, 16):
            repeats = 9 if (not quick and scale == "large" and P == 16) else 5
            groups.append(
                dict(sampler="nocomm", scale=scale, P=P, backends=list(NOCOMM_BACKENDS), repeats=repeats)
            )
    # The with-communication sampler routes every border message through the
    # worker hub on the process backends; keep its grid small but
    # representative.
    comm_scales = ["small"] if quick else ["small", "medium"]
    for scale in comm_scales:
        groups.append(dict(sampler="comm", scale=scale, P=4, backends=["thread"], repeats=3))
        groups.append(dict(sampler="comm", scale=scale, P=16, backends=["thread"], repeats=3))
    groups.append(
        dict(
            sampler="comm",
            scale="small",
            P=4,
            backends=["process", "process-shm"],
            repeats=1 if quick else 3,
        )
    )
    return groups


def run_grid(quick: bool, verbose: bool = True) -> list[dict[str, Any]]:
    """Measure every group.

    Hub growth is kept out of the medians: before a group's timed repeats
    one untimed call brings the resident hub to the group's worker count
    (see :func:`_warm_hub`).
    """
    graphs: dict[str, Any] = {}
    runs: list[dict[str, Any]] = []
    for group in _groups(quick):
        _measure_group(group, graphs, runs)
    shutdown_worker_pool()
    if verbose:
        for row in runs:
            print(
                f"{row['sampler']:>7} {row['scale']:>6} {row['backend']:>12} "
                f"P={row['n_partitions']:>2} {row['seconds']:8.4f}s  kept={row['edges_kept']}",
                flush=True,
            )
    return runs


def _warm_hub(group: dict[str, Any]) -> None:
    """Grow the resident worker hub to the group's worker count, untimed.

    The hub never shrinks, so only the first group that needs more workers
    pays the spawn; without this call that cost lands in one timed cell
    (e.g. a comm round at P4 after nocomm groups capped at one worker per
    core).  SPMD rounds take one worker per rank; nocomm maps at most one
    per core.
    """
    if not any(b.startswith("process") for b in group["backends"]):
        return
    n = group["P"] if group["sampler"] == "comm" else min(group["P"], cpu_count())
    parallel_map(os.getpid, [()] * n, backend="process", processes=n)


def _measure_group(
    group: dict[str, Any], graphs: dict[str, Any], runs: list[dict[str, Any]]
) -> None:
    scale = group["scale"]
    if scale not in graphs:
        graphs[scale] = correlation_like_graph(seed=7, **SCALES[scale])
    g = graphs[scale]
    call = _filter_call(group["sampler"])
    _warm_hub(group)
    seconds, results = harness.interleaved_medians(
        {b: lambda b=b: call(g, group["P"], b) for b in group["backends"]}, group["repeats"]
    )
    for backend in group["backends"]:
        runs.append(
            {
                "sampler": group["sampler"],
                "scale": scale,
                "backend": backend,
                "ordering": ORDERING,
                "n_partitions": group["P"],
                "n_vertices": g.n_vertices,
                "n_edges": g.n_edges,
                "repeats": group["repeats"],
                "seconds": round(seconds[backend], 6),
                "edges_kept": results[backend].n_edges_kept,
            }
        )


def _key(row: dict[str, Any]) -> str:
    return f"{row['sampler']}/{row['scale']}/{row['backend']}/P{row['n_partitions']}"


def _headline(runs: list[dict[str, Any]]) -> Optional[dict[str, Any]]:
    """The acceptance cell: nocomm process vs process-shm at the largest scale, P16."""
    by_key = {_key(r): r for r in runs}
    for scale in reversed(SCALE_ORDER):
        pickle_row = by_key.get(f"nocomm/{scale}/process/P16")
        shm_row = by_key.get(f"nocomm/{scale}/process-shm/P16")
        if pickle_row and shm_row:
            return {
                "cell": f"nocomm/{scale}/P16",
                "process_seconds": pickle_row["seconds"],
                "process_shm_seconds": shm_row["seconds"],
                "shm_speedup": round(pickle_row["seconds"] / shm_row["seconds"], 3)
                if shm_row["seconds"]
                else None,
                "edges_kept_identical": pickle_row["edges_kept"] == shm_row["edges_kept"],
            }
    return None


#: The gated (backend, P) cells, each timed over serial/P1 at its scale.
GATED = [("process-shm", 16), ("process", 4)]


def gate_cells(runs: list[dict[str, Any]]) -> dict[str, tuple[float, float]]:
    """Each gated nocomm time over serial/P1, per kind smallest scale first."""
    by = {_key(r): r["seconds"] for r in runs}
    cells: dict[str, tuple[float, float]] = {}
    for backend, P in GATED:
        for scale in SCALE_ORDER:
            head, base = f"nocomm/{scale}/{backend}/P{P}", f"nocomm/{scale}/serial/P1"
            if head in by and base in by:
                cells[head] = (by[head], by[base])
    return cells


def gate_headline(shared: list[str]) -> list[str]:
    """The largest shared scale of each gated kind."""
    last: dict[str, str] = {}
    for cell in shared:
        _, _, backend, P = cell.split("/")
        last[f"{backend}/{P}"] = cell
    return list(last.values())


def mismatches(runs: list[dict[str, Any]]) -> list[str]:
    """Groups whose backends disagree on ``edges_kept``."""
    kept: dict[str, set[int]] = {}
    for row in runs:
        kept.setdefault(f"{row['sampler']}/{row['scale']}/P{row['n_partitions']}", set()).add(
            row["edges_kept"]
        )
    return [f"edges_kept differs in {group}: {sorted(k)}" for group, k in kept.items() if len(k) > 1]


BENCH = harness.Bench(
    name="parallel",
    label="shm-runtime",
    description=__doc__.splitlines()[0],
    run=run_grid,
    cells=gate_cells,
    gated="overhead vs serial/P1",
    headline=gate_headline,
    mismatches=mismatches,
    extras=lambda runs: {"headline": _headline(runs)},
)


if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
