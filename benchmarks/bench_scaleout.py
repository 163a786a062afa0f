#!/usr/bin/env python
"""Scale-out runtime benchmark: file arenas, socket SPMD, streaming CSR.

Measures the three headline promises of the scale-out tier and writes the
trajectory to ``BENCH_scaleout.json``:

* **file-arena attach vs rebuild** — exporting a CSR-sized bundle into a
  fresh file-backed arena (cold: copy + manifest write) against re-opening
  the directory and re-exporting equal content (warm: manifest adoption +
  content-digest hit, no copy) — the cost a snapshot store built on the
  arena would pay on a warm restart instead of a rebuild.
* **process-sock vs process-shm** — the nocomm parallel filter at the
  largest scale on the resident socket workers, with the serial P1 base
  for hardware normalization.  Both names are aliases of ``process`` since
  the shared-memory payload path was folded into it, so the two rows time
  one code path; they are kept so the committed trajectory stays
  comparable until the file is re-recorded.  Both must keep the identical
  edge set (checked, fails the run otherwise).
* **huge-scale streaming build** — :meth:`CSRGraph.from_edge_stream` over
  the seeded ring-chord edge stream at ~100× the ``large`` filter scale,
  the graph size the in-RAM generators cannot reach.

Flags, envelope and ``--check`` come from :mod:`harness`.

JSON schema (``bench_scaleout/v1``) extras::

    {
      "runs": [ {"cell", "op", ..., "seconds"} ],
      "headline": {"attach_speedup", "sock_cell", "sock_seconds",
                   "shm_seconds", "edges_kept_identical",
                   "huge_n_vertices", "huge_build_seconds"}
    }

``--check`` gates the *hardware-normalized* socket-transport overhead:
the ``process-sock`` time divided by the same run's ``serial`` P1 time at
the largest scale both files share.  The run fails outright when the two
transports disagree on ``edges_kept``.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from typing import Any, Optional

import numpy as np

import harness
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.graph.csr import CSRGraph
from repro.graph.generators import correlation_like_graph, ring_chord_edge_stream
from repro.parallel.runner import shutdown_worker_pool
from repro.parallel.shm import SharedArena

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


def bench_transports(quick: bool) -> list[dict[str, Any]]:
    """nocomm filter per scale: serial base, process-shm and process-sock at P4."""
    scales = ["medium"] if quick else ["medium", "large"]
    backends = {"serial": 1, "process-shm": 4, "process-sock": 4}
    repeats = 3 if quick else 5
    rows: list[dict[str, Any]] = []
    for scale in scales:
        g = correlation_like_graph(seed=7, **SCALES[scale])
        seconds, results = harness.interleaved_medians(
            {
                b: lambda b=b, P=P: parallel_chordal_nocomm_filter(
                    g, P, ordering=ORDERING, backend=b
                )
                for b, P in backends.items()
            },
            repeats,
        )
        rows += [
            {
                "cell": "transport",
                "op": backend,
                "scale": scale,
                "n_partitions": P,
                "n_vertices": g.n_vertices,
                "n_edges": g.n_edges,
                "repeats": repeats,
                "seconds": round(seconds[backend], 6),
                "edges_kept": results[backend].n_edges_kept,
            }
            for backend, P in backends.items()
        ]
    shutdown_worker_pool()
    return rows


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


def run_grid(quick: bool) -> list[dict[str, Any]]:
    runs = bench_arena(quick) + bench_transports(quick) + bench_huge(quick)
    for row in runs:
        print(
            f"{row['cell']:>9} {row['op']:>17} {row['seconds']:8.4f}s"
            + (f"  kept={row['edges_kept']}" if "edges_kept" in row else ""),
            flush=True,
        )
    return runs


def gate_cells(runs: list[dict[str, Any]]) -> dict[str, tuple[float, float]]:
    """process-sock P4 time over serial P1 time at each transport scale."""
    by = _by_cell_op(runs)
    cells: dict[str, tuple[float, float]] = {}
    for scale in SCALES:
        head, base = f"transport/{scale}/process-sock", f"transport/{scale}/serial"
        if head in by and base in by:
            cells[head] = (by[head]["seconds"], by[base]["seconds"])
    return cells


def mismatches(runs: list[dict[str, Any]]) -> list[str]:
    """Scales where the two P4 transports disagree on ``edges_kept``.

    serial runs at P=1, so its kept set legitimately differs; the identity
    pin is between the transports sharing the P=4 grid.
    """
    by = _by_cell_op(runs)
    out = []
    for scale in SCALES:
        shm = by.get(f"transport/{scale}/process-shm")
        sock = by.get(f"transport/{scale}/process-sock")
        if shm and sock and shm["edges_kept"] != sock["edges_kept"]:
            out.append(
                f"edges_kept differs at {scale}: process-shm {shm['edges_kept']}, "
                f"process-sock {sock['edges_kept']}"
            )
    return out


BENCH = harness.Bench(
    name="scaleout",
    label="scaleout-runtime",
    description=__doc__.splitlines()[0],
    run=run_grid,
    cells=gate_cells,
    gated="overhead vs serial/P1",
    mismatches=mismatches,
    extras=lambda runs: {"headline": _headline(runs)},
)


if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
