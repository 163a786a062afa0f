#!/usr/bin/env python
"""End-to-end sampler pipeline benchmark.

Times the three chordal filters (``sequential``, ``nocomm``, ``comm``) across
dataset scales x vertex orderings x partition counts and writes the measured
trajectory to ``BENCH_pipeline.json``.  It times the *whole* filter call —
ordering, partitioning, per-rank subgraph construction, kernel, border
admission and merge — because the paper's Figure 11 claim is about end-to-end
filter latency.  Every repeat runs on a new CSR view of the network (built
outside the timer), so none of them reads what an earlier one left in the
view's memo.  Flags, envelope and ``--check`` come from
:mod:`harness`.

JSON schema (``bench_pipeline/v1``) extras: ``runs`` rows are
``{"filter", "scale", "n_vertices", "n_edges", "ordering", "n_partitions",
"repeats", "seconds", "edges_kept"}`` with best-of-``repeats`` seconds.  The
committed file also keeps a ``baseline`` / ``speedup`` section recording the
index-native pipeline against the label pipeline it replaced.

``--check`` gates the *pipeline overhead ratio*: the nocomm / rcm / P16
time divided by the same run's sequential / rcm / P1 time at the largest
scale both files share.  Machine speed cancels; what remains is how much the
parallel pipeline costs on top of one kernel pass.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import harness
from repro.core.parallel_comm import parallel_chordal_comm_filter
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.core.sequential import sequential_chordal_filter
from repro.graph.csr import CSRGraph
from repro.graph.generators import correlation_like_graph

#: Benchmark networks: correlation-like graphs at three sizes.  ``large`` is
#: the scale the ISSUE's >=2x acceptance criterion is measured at.
SCALES: dict[str, dict[str, int]] = {
    "small": dict(n_modules=4, module_size=10, n_background=200),
    "medium": dict(n_modules=8, module_size=12, n_background=800),
    "large": dict(n_modules=16, module_size=14, n_background=2800),
}
SCALE_ORDER = ["small", "medium", "large"]

ORDERINGS = ["natural", "high_degree", "low_degree", "rcm"]
P_GRID = [1, 4, 16]
GRAPH_SEED = 7


def _filters() -> dict[str, Callable[..., Any]]:
    return {
        "sequential": lambda g, ordering, P: sequential_chordal_filter(g, ordering=ordering),
        "nocomm": lambda g, ordering, P: parallel_chordal_nocomm_filter(
            g, P, ordering=ordering
        ),
        "comm": lambda g, ordering, P: parallel_chordal_comm_filter(g, P, ordering=ordering),
    }


def _grid(quick: bool) -> list[dict[str, Any]]:
    """The (filter, scale, ordering, P, repeats) cells to measure."""
    scales = ["small", "medium"] if quick else SCALE_ORDER
    orderings = ["natural", "rcm"] if quick else ORDERINGS
    # Quick cells are milliseconds; extra repeats cost little and keep the
    # best-of time stable enough for the 25% CI regression gate.
    base_repeats = 5 if quick else 3
    cells: list[dict[str, Any]] = []
    for scale in scales:
        for ordering in orderings:
            cells.append(
                dict(filter="sequential", scale=scale, ordering=ordering, P=1, repeats=base_repeats)
            )
            for P in P_GRID:
                if quick and P == 1:
                    continue
                cells.append(
                    dict(filter="nocomm", scale=scale, ordering=ordering, P=P, repeats=base_repeats)
                )
            # The with-communication baseline is O(b^2/d) on the receiver side;
            # restrict its grid so the harness stays minutes, not hours.
            if ordering in ("natural", "rcm"):
                for P in (4, 16):
                    if scale == "large" and P == 4:
                        continue  # ~20s/run on the label pipeline; adds nothing
                    repeats = 1 if scale == "large" else base_repeats
                    cells.append(
                        dict(filter="comm", scale=scale, ordering=ordering, P=P, repeats=repeats)
                    )
    return cells


def run_grid(quick: bool, verbose: bool = True) -> list[dict[str, Any]]:
    filters = _filters()
    graphs = {}
    runs: list[dict[str, Any]] = []
    for cell in _grid(quick):
        scale = cell["scale"]
        if scale not in graphs:
            graphs[scale] = correlation_like_graph(seed=GRAPH_SEED, **SCALES[scale])
        g = graphs[scale]
        fn = filters[cell["filter"]]
        best = float("inf")
        result = None
        for _ in range(cell["repeats"]):
            # A new view per repeat, built untimed: the view memo would
            # otherwise hand every repeat after the first its ordering,
            # partition and border lists, and the cell would stop timing them.
            view = CSRGraph.from_graph(g)
            t0 = time.perf_counter()
            result = fn(view, cell["ordering"], cell["P"])
            best = min(best, time.perf_counter() - t0)
        row = {
            "filter": cell["filter"],
            "scale": scale,
            "n_vertices": g.n_vertices,
            "n_edges": g.n_edges,
            "ordering": cell["ordering"],
            "n_partitions": cell["P"],
            "repeats": cell["repeats"],
            "seconds": round(best, 6),
            "edges_kept": result.n_edges_kept,
        }
        runs.append(row)
        if verbose:
            print(
                f"{row['filter']:>10} {scale:>6} {row['ordering']:>12} "
                f"P={row['n_partitions']:>2}  {best:8.4f}s  kept={row['edges_kept']}",
                flush=True,
            )
    return runs


def gate_cells(runs: list[dict[str, Any]]) -> dict[str, tuple[float, float]]:
    """nocomm/rcm/P16 time over sequential/rcm/P1 time at each scale."""
    by = {(r["filter"], r["scale"], r["ordering"], r["n_partitions"]): r["seconds"] for r in runs}
    cells: dict[str, tuple[float, float]] = {}
    for scale in SCALE_ORDER:
        head, base = ("nocomm", scale, "rcm", 16), ("sequential", scale, "rcm", 1)
        if head in by and base in by:
            cells[f"nocomm/{scale}/rcm/P16"] = (by[head], by[base])
    return cells


BENCH = harness.Bench(
    name="pipeline",
    label="index-native",
    description=__doc__.splitlines()[0],
    run=run_grid,
    cells=gate_cells,
    gated="overhead vs sequential/rcm/P1",
)


if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
