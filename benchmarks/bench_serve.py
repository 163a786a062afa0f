#!/usr/bin/env python
"""Warm-serve vs cold-CLI benchmark for the resident analysis service.

Measures what the ``repro serve`` daemon actually buys: a cold CLI run pays
interpreter start-up, dataset generation, network thresholding, GO index and
scorer construction and original-cluster discovery on *every* invocation,
while the daemon pays them once and serves requests from warm state — with an
LRU result cache in front of the handlers.  For each grid cell this harness
times, per op (``classify`` is the headline, ``filter`` for context):

* ``cold_seconds`` — one ``python -m repro … --json`` subprocess (the real
  cold path, interpreter and all);
* ``warm_miss_seconds`` — the first served request of that spec: warm
  bundles, cache miss (the handler runs);
* ``warm_hit_p50`` / ``warm_hit_p99`` / ``req_per_s`` — repeated identical
  requests served from the result cache, i.e. steady-state serving.

Cold and warm responses are byte-compared in every cell (the ``identical``
flag) — the speedup is only meaningful while the bytes match.

Flags, envelope and ``--check`` come from :mod:`harness`.

JSON schema (``bench_serve/v1``) extras::

    {
      "dataset": "CRE",
      "server": {"workers", "cache_size"},
      "runs": [ {"dataset", "scale", "scale_factor", "op", "cold_seconds",
                 "warm_miss_seconds", "warm_hit_p50", "warm_hit_p99",
                 "req_per_s", "hit_requests", "identical"} ],
      "speedup": {"CRE/<scale>": {"cold_seconds", "warm_miss_seconds",
                  "warm_hit_p50", "warm_hit_p99", "req_per_s",
                  "speedup_p50", "miss_speedup", "identical"}}
    }

``--check`` gates the classify cell's ``warm_hit_p50 / cold_seconds``
ratio at the largest scale both files share — both sides measured in the
same run on the same machine, so hardware speed cancels.  Any row
(``filter`` or ``classify``) whose served and cold bytes differ fails the
run outright.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Any

import harness
from repro.serve import ReproServer, ServeClient

DATASET = "CRE"
#: Same scale ladder as ``bench_workflow.py``; ``large`` is the acceptance
#: cell (the ISSUE's >=5x warm-p50 criterion is measured on large classify).
SCALES: dict[str, float] = {
    "tiny": 0.02,
    "small": 0.05,
    "medium": 0.10,
    "large": 0.15,
}
SCALE_ORDER = ["tiny", "small", "medium", "large"]

SERVER = dict(workers=2, cache_size=256)

#: Repeated identical requests per cell (first = the miss, rest = hits).
HIT_REQUESTS = 20


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(int(round(q * (len(sorted_values) - 1))), len(sorted_values) - 1)
    return sorted_values[idx]


def _cold_cli(op: str, scale_factor: float) -> tuple[float, str]:
    """One cold CLI subprocess for ``op``; returns (seconds, canonical json)."""
    command = {"filter": "filter", "classify": "analyze"}[op]
    argv = [
        sys.executable, "-m", "repro", command,
        "--dataset", DATASET, "--scale", str(scale_factor), "--json",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = harness.SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    seconds = time.perf_counter() - t0
    return seconds, proc.stdout.strip()


def _warm_requests(
    client: ServeClient, op: str, scale_factor: float
) -> tuple[float, list[float], str]:
    """First-request (miss) seconds, sorted hit latencies, canonical payload."""
    params = {"dataset": DATASET, "scale": scale_factor}
    t0 = time.perf_counter()
    first = client.request(op, **params)
    miss_seconds = time.perf_counter() - t0
    assert first["ok"], first
    assert first["cached"] is False, "expected the first request to be a cache miss"
    hits: list[float] = []
    for _ in range(HIT_REQUESTS):
        t0 = time.perf_counter()
        response = client.request(op, **params)
        hits.append(time.perf_counter() - t0)
        assert response["ok"] and response["cached"] is True, response
    return miss_seconds, sorted(hits), harness.canonical(first["result"])


def run_grid(quick: bool, verbose: bool = True) -> list[dict[str, Any]]:
    scales = ["tiny", "small"] if quick else SCALE_ORDER
    runs: list[dict[str, Any]] = []
    for scale in scales:
        factor = SCALES[scale]
        # One daemon per scale cell: its default scale IS the cell, so the
        # served and cold requests name exactly the same work.
        with ReproServer(default_scale=factor, **SERVER) as server:
            with ServeClient(port=server.port, timeout=3600.0) as client:
                for op in ("filter", "classify"):
                    cold_seconds, cold_json = _cold_cli(op, factor)
                    miss_seconds, hits, warm_json = _warm_requests(client, op, factor)
                    row = {
                        "dataset": DATASET,
                        "scale": scale,
                        "scale_factor": factor,
                        "op": op,
                        "cold_seconds": round(cold_seconds, 6),
                        "warm_miss_seconds": round(miss_seconds, 6),
                        "warm_hit_p50": round(_percentile(hits, 0.50), 6),
                        "warm_hit_p99": round(_percentile(hits, 0.99), 6),
                        "req_per_s": round(len(hits) / sum(hits), 1) if sum(hits) else None,
                        "hit_requests": len(hits),
                        "identical": warm_json == cold_json,
                    }
                    runs.append(row)
                    if verbose:
                        print(
                            f"{DATASET:>4} {scale:>6} {op:>9}  cold {cold_seconds:7.3f}s  "
                            f"miss {miss_seconds:7.3f}s  hit p50 {row['warm_hit_p50'] * 1000:7.2f}ms  "
                            f"p99 {row['warm_hit_p99'] * 1000:7.2f}ms  "
                            f"{row['req_per_s']:>8} req/s  identical={row['identical']}",
                            flush=True,
                        )
    return runs


def _speedup_table(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    table: dict[str, dict[str, Any]] = {}
    for row in runs:
        if row["op"] != "classify":
            continue
        table[f"{row['dataset']}/{row['scale']}"] = {
            "cold_seconds": row["cold_seconds"],
            "warm_miss_seconds": row["warm_miss_seconds"],
            "warm_hit_p50": row["warm_hit_p50"],
            "warm_hit_p99": row["warm_hit_p99"],
            "req_per_s": row["req_per_s"],
            "speedup_p50": (
                round(row["cold_seconds"] / row["warm_hit_p50"], 1)
                if row["warm_hit_p50"]
                else None
            ),
            "miss_speedup": (
                round(row["cold_seconds"] / row["warm_miss_seconds"], 2)
                if row["warm_miss_seconds"]
                else None
            ),
            "identical": row["identical"],
        }
    return table


def gate_cells(runs: list[dict[str, Any]]) -> dict[str, tuple[float, float]]:
    """classify warm-hit p50 over cold CLI seconds at each scale."""
    by = {row["scale"]: row for row in runs if row["op"] == "classify"}
    return {
        f"{DATASET}/{scale}": (by[scale]["warm_hit_p50"], by[scale]["cold_seconds"])
        for scale in SCALE_ORDER
        if scale in by
    }


BENCH = harness.Bench(
    name="serve",
    label="warm-serve",
    description=__doc__.splitlines()[0],
    run=run_grid,
    cells=gate_cells,
    gated="warm-hit p50/cold CLI time",
    mismatches=lambda runs: [
        f"{row['dataset']}/{row['scale']} {row['op']}: served and cold payloads differ"
        for row in runs
        if not row["identical"]
    ],
    extras=lambda runs: {"dataset": DATASET, "server": SERVER, "speedup": _speedup_table(runs)},
)


if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
