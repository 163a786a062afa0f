#!/usr/bin/env python
"""Execution-backend benchmark: serial vs thread vs process vs process-shm.

Times the parallel chordal samplers under every execution backend of
:func:`repro.parallel.runner.available_backends` across dataset scales and
partition counts, and writes the measured trajectory to
``BENCH_parallel.json``.  Where ``bench_pipeline.py`` tracks the end-to-end
filter latency of the index-native pipeline, this harness isolates the
*execution layer* introduced with the shared-memory runtime: the same rank
computation shipped four different ways —

* ``serial``      — in-process loop (the deterministic reference),
* ``thread``      — one GIL-bound thread per rank,
* ``process``     — resident worker processes, rank payloads pickled over
  the socket hub's TCP wire (``process-sock`` is an alias, not timed apart),
* ``process-shm`` — the same workers, the same per-rank arrays exported by
  the runner to a shared-memory arena in one bundle and shipped as refs
  (segment name, dtype, shape, offset), attached as zero-copy views.

Because the backends compute identical results, every (sampler, scale, P)
group is also an output-invariance check: the harness fails outright when
``edges_kept`` differs inside a group.

Backends are measured **interleaved** (round-robin per repeat) and the
reported ``seconds`` is the *median* over repeats — on a busy machine the
median of interleaved runs is far more stable than best-of for comparing
two backends whose difference is a few percent.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py                 # full grid
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick         # CI grid
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick \
        --check BENCH_parallel.json --threshold 0.25                   # CI gate

JSON schema (``bench_parallel/v1``)::

    {
      "schema": "bench_parallel/v1",
      "label": str, "quick": bool, "python": str, "platform": str,
      "cpu_count": int, "created": str,
      "runs": [ {"sampler", "scale", "backend", "ordering", "n_partitions",
                 "n_vertices", "n_edges", "repeats", "seconds",
                 "edges_kept"} ],
      "headline": {"cell", "process_seconds", "process_shm_seconds",
                   "shm_speedup", "edges_kept_identical"}
    }

``--check`` re-measures the headline sampler cells and gates on the
*hardware-normalized* ratio: the ``process-shm`` time at the largest shared
scale / P16 divided by the same run's ``serial`` P1 time.  Machine speed
cancels; what remains is the execution layer's overhead on top of one
serial pass — exactly what this runtime optimises.  The check exits
non-zero when that ratio regresses more than ``--threshold`` (default 25%)
against the committed file, or when any backend disagrees on
``edges_kept``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from datetime import datetime, timezone
from multiprocessing import cpu_count
from typing import Any, Callable, Optional

from repro.core.parallel_comm import parallel_chordal_comm_filter
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.graph.generators import correlation_like_graph
from repro.parallel.runner import parallel_map, shutdown_worker_pool
from repro.parallel.shm import arena_scope

SCHEMA = "bench_parallel/v1"
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


def run_grid(quick: bool, verbose: bool = True) -> tuple[list[dict[str, Any]], bool]:
    """Measure every group; returns (rows, edges_kept_consistent).

    The whole grid runs inside one :func:`arena_scope`, mirroring how the
    batch engine wraps a scale-group: ``process-shm`` cells therefore
    measure the runtime's steady state — the first call of a payload pays
    the export of the per-rank arrays, later calls content-dedup onto the
    existing segment and ship only refs.  The first (cold-export) call of
    each group is inside the median like any other repeat.  Hub growth is
    not: before a group's timed repeats one untimed call brings the
    resident hub to the group's worker count (see :func:`_warm_hub`).
    """
    graphs: dict[str, Any] = {}
    runs: list[dict[str, Any]] = []
    consistent = True
    with arena_scope():
        for group in _groups(quick):
            _measure_group(group, graphs, runs)
    shutdown_worker_pool()
    for group_key, kept in _kept_by_group(runs).items():
        if len(kept) > 1:
            consistent = False
            print(f"INCONSISTENT edges_kept in {group_key}: {sorted(kept)}", file=sys.stderr)
    if verbose:
        for row in runs:
            print(
                f"{row['sampler']:>7} {row['scale']:>6} {row['backend']:>12} "
                f"P={row['n_partitions']:>2} {row['seconds']:8.4f}s  kept={row['edges_kept']}",
                flush=True,
            )
    return runs, consistent


def _kept_by_group(runs: list[dict[str, Any]]) -> dict[str, set[int]]:
    by_group: dict[str, set[int]] = {}
    for row in runs:
        key = f"{row['sampler']}/{row['scale']}/P{row['n_partitions']}"
        by_group.setdefault(key, set()).add(row["edges_kept"])
    return by_group


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
    times: dict[str, list[float]] = {b: [] for b in group["backends"]}
    kept: dict[str, int] = {}
    for rep in range(group["repeats"]):
        # Alternate the visiting order each round so systematic drift
        # (cache warm-up, machine load ramps) cancels across backends.
        ordered = group["backends"] if rep % 2 == 0 else list(reversed(group["backends"]))
        for backend in ordered:
            t0 = time.perf_counter()
            result = call(g, group["P"], backend)
            times[backend].append(time.perf_counter() - t0)
            kept[backend] = result.n_edges_kept
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
                "seconds": round(statistics.median(times[backend]), 6),
                "edges_kept": kept[backend],
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


def check_regression(
    runs: list[dict[str, Any]], committed: dict[str, Any], threshold: float
) -> int:
    """Gate on the committed baseline, normalized for hardware speed.

    The gated quantity — process-shm P16 time over the same run's serial P1
    time — cancels clock speed but **not** core topology: a P16 run on one
    core serialises the ranks that a many-core box overlaps.  The gate is
    therefore calibrated for same-topology comparisons and prints a warning
    (rather than failing spuriously or silently tightening) when the fresh
    machine's core count differs from the committed baseline's.
    """
    committed_cpus = committed.get("cpu_count")
    if committed_cpus is not None and committed_cpus != cpu_count():
        print(
            f"check: WARNING — committed baseline measured with cpu_count="
            f"{committed_cpus}, this machine has {cpu_count()}; the normalized "
            f"ratio shifts with core topology, so treat this gate as coarse",
            file=sys.stderr,
        )
    committed_runs = {_key(r): r for r in committed.get("runs", [])}
    fresh = {_key(r): r for r in runs}
    shared_scales = [
        s
        for s in SCALE_ORDER
        if f"nocomm/{s}/process-shm/P16" in fresh
        and f"nocomm/{s}/process-shm/P16" in committed_runs
        and f"nocomm/{s}/serial/P1" in fresh
        and f"nocomm/{s}/serial/P1" in committed_runs
    ]
    if not shared_scales:
        print("check: no shared nocomm process-shm/P16 cell", file=sys.stderr)
        return 2
    scale = shared_scales[-1]
    head = f"nocomm/{scale}/process-shm/P16"
    base = f"nocomm/{scale}/serial/P1"
    old_ratio = committed_runs[head]["seconds"] / committed_runs[base]["seconds"]
    new_ratio = fresh[head]["seconds"] / fresh[base]["seconds"]
    rel = new_ratio / old_ratio if old_ratio else float("inf")
    print(
        f"check: {head}: committed {committed_runs[head]['seconds']:.4f}s, "
        f"fresh {fresh[head]['seconds']:.4f}s (absolute, informational)"
    )
    print(
        f"check: overhead vs {base}: committed {old_ratio:.2f}x, fresh {new_ratio:.2f}x, "
        f"relative {rel:.2f}"
    )
    if rel > 1.0 + threshold:
        print(
            f"check: FAIL — process-shm execution overhead regressed "
            f"{(rel - 1.0) * 100:.0f}% (> {threshold * 100:.0f}% allowed)",
            file=sys.stderr,
        )
        return 1
    print("check: OK")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI grid")
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default BENCH_parallel.json, or "
        "bench_parallel_fresh.json when --check is given)",
    )
    parser.add_argument("--label", default="shm-runtime", help="label for this runtime variant")
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="compare the fresh normalized process-shm/P16 overhead against a committed file",
    )
    parser.add_argument("--threshold", type=float, default=0.25, help="allowed regression for --check")
    args = parser.parse_args(argv)

    if args.out is None:
        args.out = "bench_parallel_fresh.json" if args.check else "BENCH_parallel.json"
    committed: Optional[dict[str, Any]] = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            committed = json.load(fh)

    runs, consistent = run_grid(args.quick)
    headline = _headline(runs)
    if headline:
        print(
            f"headline {headline['cell']}: process {headline['process_seconds']:.4f}s, "
            f"shm {headline['process_shm_seconds']:.4f}s, speedup {headline['shm_speedup']}"
        )

    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "label": args.label,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": cpu_count(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "runs": runs,
        "headline": headline,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(runs)} runs)")
    if not consistent:
        print("FAIL: edges_kept differed between backends", file=sys.stderr)
        return 1
    if committed is not None:
        return check_regression(runs, committed, args.threshold)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
