#!/usr/bin/env python
"""Scale-out runtime benchmark: file arenas, socket SPMD, streaming CSR.

Measures the three headline promises of the scale-out tier and writes the
trajectory to ``BENCH_scaleout.json``:

* **file-arena attach vs rebuild** — exporting a CSR-sized bundle into a
  fresh file-backed arena (cold: copy + manifest write) against re-opening
  the directory and re-exporting equal content (warm: manifest adoption +
  content-digest hit, no copy).  The warm path is what a restarted
  ``repro serve --arena-dir`` pays instead of rebuilding its bundles.
* **process-sock vs process-shm** — the nocomm parallel filter at the
  largest scale on the resident socket workers, with payloads pickled over
  TCP (``process-sock``, an alias of ``process``) against payloads passed
  as shared-memory segment names (``process-shm``), with the serial P1
  base for hardware normalization.  Both must keep the identical edge set
  (checked, fails the run otherwise).
* **huge-scale streaming build** — :meth:`CSRGraph.from_edge_stream` over
  the seeded ring-chord edge stream at ~100× the ``large`` filter scale,
  the graph size the in-RAM generators cannot reach.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaleout.py             # full grid
    PYTHONPATH=src python benchmarks/bench_scaleout.py --quick     # CI grid
    PYTHONPATH=src python benchmarks/bench_scaleout.py --quick \
        --check BENCH_scaleout.json --threshold 0.25               # CI gate

JSON schema (``bench_scaleout/v1``)::

    {
      "schema": "bench_scaleout/v1",
      "label": str, "quick": bool, "python": str, "platform": str,
      "cpu_count": int, "created": str,
      "runs": [ {"cell", "op", ..., "seconds"} ],
      "headline": {"attach_speedup", "sock_cell", "sock_seconds",
                   "shm_seconds", "edges_kept_identical",
                   "huge_n_vertices", "huge_build_seconds"}
    }

``--check`` gates on the *hardware-normalized* socket-transport overhead:
the ``process-sock`` time divided by the same run's ``serial`` P1 time.
Machine speed cancels; the gate fails when that ratio regresses more than
``--threshold`` (default 25%) against the committed file, or when the two
transports disagree on ``edges_kept``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
from datetime import datetime, timezone
from multiprocessing import cpu_count
from typing import Any, Optional

import numpy as np

from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.graph.csr import CSRGraph
from repro.graph.generators import correlation_like_graph, ring_chord_edge_stream
from repro.parallel.runner import shutdown_worker_pool
from repro.parallel.shm import SharedArena, arena_scope

SCHEMA = "bench_scaleout/v1"
ORDERING = "rcm"

#: Filter scales, aligned with bench_parallel.py so trajectories compare.
SCALES: dict[str, dict[str, int]] = {
    "medium": dict(n_modules=8, module_size=12, n_background=800),
    "large": dict(n_modules=16, module_size=14, n_background=2800),
}

#: ``huge`` is ~100× the ``large`` filter scale's vertex count — reachable
#: only through the streaming builder (the in-RAM generators build Python
#: structures edge by edge and would dominate the measurement).
HUGE_N = 300_000
HUGE_N_QUICK = 30_000


def bench_arena(quick: bool) -> list[dict[str, Any]]:
    """Cold export vs warm manifest re-adoption of a CSR-sized bundle."""
    n = 200_000 if not quick else 40_000
    payload = {
        "indptr": np.arange(n + 1, dtype=np.int64),
        "indices": np.arange(4 * n, dtype=np.int64),
        "position": np.arange(n, dtype=np.int64),
    }
    nbytes = sum(a.nbytes for a in payload.values())
    repeats = 3 if quick else 5
    cold_times, warm_times = [], []
    for _ in range(repeats):
        d = tempfile.mkdtemp(prefix="bench-arena-")
        try:
            t0 = time.perf_counter()
            arena = SharedArena(path=d)
            arena.export_bundle(payload)
            arena.close()
            cold_times.append(time.perf_counter() - t0)

            t0 = time.perf_counter()
            warm = SharedArena(path=d)
            warm.export_bundle({k: v.copy() for k, v in payload.items()})
            warm_times.append(time.perf_counter() - t0)
            warm.unlink()
        finally:
            shutil.rmtree(d, ignore_errors=True)
    return [
        {
            "cell": "arena",
            "op": "rebuild",
            "bytes": nbytes,
            "repeats": repeats,
            "seconds": round(statistics.median(cold_times), 6),
        },
        {
            "cell": "arena",
            "op": "attach",
            "bytes": nbytes,
            "repeats": repeats,
            "seconds": round(statistics.median(warm_times), 6),
        },
    ]


def bench_transports(quick: bool) -> tuple[list[dict[str, Any]], bool]:
    """nocomm filter per scale: serial base, process-shm and process-sock at P4."""
    scales = ["medium"] if quick else ["medium", "large"]
    backends = [("serial", 1), ("process-shm", 4), ("process-sock", 4)]
    repeats = 3 if quick else 5
    rows: list[dict[str, Any]] = []
    consistent = True
    with arena_scope():
        for scale in scales:
            g = correlation_like_graph(seed=7, **SCALES[scale])
            times: dict[str, list[float]] = {b: [] for b, _ in backends}
            kept: dict[str, int] = {}
            for rep in range(repeats):
                ordered = backends if rep % 2 == 0 else list(reversed(backends))
                for backend, P in ordered:
                    t0 = time.perf_counter()
                    result = parallel_chordal_nocomm_filter(
                        g, P, ordering=ORDERING, backend=backend
                    )
                    times[backend].append(time.perf_counter() - t0)
                    kept[backend] = result.n_edges_kept
            rows += [
                {
                    "cell": "transport",
                    "op": backend,
                    "scale": scale,
                    "n_partitions": P,
                    "n_vertices": g.n_vertices,
                    "n_edges": g.n_edges,
                    "repeats": repeats,
                    "seconds": round(statistics.median(times[backend]), 6),
                    "edges_kept": kept[backend],
                }
                for backend, P in backends
            ]
            # serial runs at P=1, so its kept set legitimately differs; the
            # identity pin is between the transports sharing the P=4 grid.
            if kept["process-shm"] != kept["process-sock"]:
                consistent = False
                print(
                    f"INCONSISTENT edges_kept at {scale}: {kept}", file=sys.stderr
                )
    shutdown_worker_pool()
    return rows, consistent


def bench_huge(quick: bool) -> list[dict[str, Any]]:
    """Streaming CSR build at the huge scale (chunked two-pass, bounded RSS)."""
    n = HUGE_N_QUICK if quick else HUGE_N
    stream = ring_chord_edge_stream(n, seed=2)
    repeats = 2 if quick else 3
    build_times = []
    n_edges = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        csr = CSRGraph.from_edge_stream(n, stream)
        build_times.append(time.perf_counter() - t0)
        n_edges = csr.n_edges
    return [
        {
            "cell": "huge",
            "op": "from_edge_stream",
            "n_vertices": n,
            "n_edges": n_edges,
            "repeats": repeats,
            "seconds": round(statistics.median(build_times), 6),
        }
    ]


def _by_cell_op(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Key rows by cell/op, with the scale spliced in for transport cells."""
    return {
        f"{r['cell']}/{r['scale']}/{r['op']}" if r["cell"] == "transport" else f"{r['cell']}/{r['op']}": r
        for r in runs
    }


def _largest_transport_scale(by: dict[str, dict[str, Any]]) -> Optional[str]:
    for scale in reversed(list(SCALES)):
        if f"transport/{scale}/process-sock" in by:
            return scale
    return None


def _headline(runs: list[dict[str, Any]]) -> dict[str, Any]:
    by = _by_cell_op(runs)
    rebuild, attach = by["arena/rebuild"], by["arena/attach"]
    scale = _largest_transport_scale(by)
    sock = by[f"transport/{scale}/process-sock"]
    shm = by[f"transport/{scale}/process-shm"]
    huge = by["huge/from_edge_stream"]
    return {
        "attach_speedup": round(rebuild["seconds"] / attach["seconds"], 3)
        if attach["seconds"]
        else None,
        "sock_cell": f"nocomm/{sock['scale']}/P{sock['n_partitions']}",
        "sock_seconds": sock["seconds"],
        "shm_seconds": shm["seconds"],
        "edges_kept_identical": sock["edges_kept"] == shm["edges_kept"],
        "huge_n_vertices": huge["n_vertices"],
        "huge_build_seconds": huge["seconds"],
    }


def check_regression(
    runs: list[dict[str, Any]], committed: dict[str, Any], threshold: float
) -> int:
    """Gate the normalized socket-transport overhead against the baseline."""
    committed_cpus = committed.get("cpu_count")
    if committed_cpus is not None and committed_cpus != cpu_count():
        print(
            f"check: WARNING — committed baseline measured with cpu_count="
            f"{committed_cpus}, this machine has {cpu_count()}; normalized "
            f"ratios shift with core topology, so treat this gate as coarse",
            file=sys.stderr,
        )
    old = _by_cell_op(committed.get("runs", []))
    new = _by_cell_op(runs)
    shared = [
        scale
        for scale in SCALES
        if all(
            f"transport/{scale}/{op}" in table
            for op in ("process-sock", "serial")
            for table in (old, new)
        )
    ]
    if not shared:
        print("check: no shared transport scale between baseline and fresh run", file=sys.stderr)
        return 2
    scale = shared[-1]
    old_ratio = (
        old[f"transport/{scale}/process-sock"]["seconds"]
        / old[f"transport/{scale}/serial"]["seconds"]
    )
    new_ratio = (
        new[f"transport/{scale}/process-sock"]["seconds"]
        / new[f"transport/{scale}/serial"]["seconds"]
    )
    rel = new_ratio / old_ratio if old_ratio else float("inf")
    print(
        f"check: process-sock overhead vs serial P1 at {scale}: committed "
        f"{old_ratio:.2f}x, fresh {new_ratio:.2f}x, relative {rel:.2f}"
    )
    if rel > 1.0 + threshold:
        print(
            f"check: FAIL — socket-transport overhead regressed "
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
        help="output JSON path (default BENCH_scaleout.json, or "
        "bench_scaleout_fresh.json when --check is given)",
    )
    parser.add_argument("--label", default="scaleout-runtime", help="label for this variant")
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="compare the fresh normalized process-sock overhead against a committed file",
    )
    parser.add_argument("--threshold", type=float, default=0.25, help="allowed regression for --check")
    args = parser.parse_args(argv)

    if args.out is None:
        args.out = "bench_scaleout_fresh.json" if args.check else "BENCH_scaleout.json"
    committed: Optional[dict[str, Any]] = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            committed = json.load(fh)

    runs = bench_arena(args.quick)
    transport_rows, consistent = bench_transports(args.quick)
    runs += transport_rows
    runs += bench_huge(args.quick)
    for row in runs:
        print(
            f"{row['cell']:>9} {row['op']:>17} {row['seconds']:8.4f}s"
            + (f"  kept={row['edges_kept']}" if "edges_kept" in row else ""),
            flush=True,
        )
    headline = _headline(runs)
    print(
        f"headline: attach speedup {headline['attach_speedup']}x, "
        f"{headline['sock_cell']} sock {headline['sock_seconds']:.4f}s vs "
        f"shm {headline['shm_seconds']:.4f}s, huge({headline['huge_n_vertices']}) "
        f"build {headline['huge_build_seconds']:.4f}s"
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
        print("FAIL: edges_kept differed between transports", file=sys.stderr)
        return 1
    if committed is not None:
        return check_regression(runs, committed, args.threshold)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
