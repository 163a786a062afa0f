"""One driver for the tracked ``benchmarks/bench_<name>.py`` scripts.

Each tracked script owns its measurement grid, its row builder and a
:class:`Bench` spec; this module owns everything they share — the
command line, the JSON envelope, the output-identity rule and the
hardware-normalized ``--check`` gate.  Every script runs the same way::

    PYTHONPATH=src python benchmarks/bench_<name>.py             # full grid -> BENCH_<name>.json
    PYTHONPATH=src python benchmarks/bench_<name>.py --quick     # CI grid
    PYTHONPATH=src python benchmarks/bench_<name>.py --quick \\
        --check BENCH_<name>.json --threshold 0.25              # CI gate

A ``--check`` run writes ``bench_<name>_fresh.json`` unless ``--out`` is
given, so it never clobbers the committed file it compares against.

**The gate.**  ``Bench.cells(runs)`` maps each gated cell to a
``(numerator, denominator)`` pair measured in the same run on the same
machine, so hardware speed cancels in the ratio.  ``Bench.headline``
picks the gated cell(s) at the largest scale both files share, and each
fails when its fresh ratio moves more than ``--threshold`` the wrong way
against the committed file's: up for an overhead ratio, down for a
speedup (``higher_is_better``).  Only the committed file's ``runs`` are
read; its derived sections are output, not input.  Exit codes: 0 OK,
1 regressed, 2 no shared headline cell.

**The identity rule.**  ``Bench.mismatches(runs)`` lists output-identity
failures (implementations or backends that disagree on the bytes they
produce).  Any mismatch fails the run, with or without ``--check``, after
the output file is written so the evidence is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Optional

Runs = list[dict[str, Any]]

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _no_mismatches(runs: Runs) -> list[str]:
    return []


def _no_extras(runs: Runs) -> dict[str, Any]:
    return {}


def _largest_cell(shared: list[str]) -> list[str]:
    return shared[-1:]


@dataclass(frozen=True)
class Bench:
    """What one tracked benchmark script tells the shared driver.

    ``cells`` must list its cells smallest scale first: the default
    ``headline`` gates the last cell both files share.
    """

    name: str
    label: str
    description: str
    run: Callable[[bool], Runs]
    cells: Callable[[Runs], dict[str, tuple[float, float]]]
    #: What the gated ratio means, e.g. ``"csr/label time"``.
    gated: str
    higher_is_better: bool = False
    headline: Callable[[list[str]], list[str]] = _largest_cell
    mismatches: Callable[[Runs], list[str]] = _no_mismatches
    extras: Callable[[Runs], dict[str, Any]] = _no_extras


def canonical(payload: Any) -> str:
    """The byte form two payloads are compared in."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def interleaved_medians(
    calls: dict[str, Callable[[], Any]], repeats: int
) -> tuple[dict[str, float], dict[str, Any]]:
    """Median seconds per call over ``repeats`` rounds, and each call's last result.

    The visiting order alternates every round so systematic drift (cache
    warm-up, machine load ramps) cancels across the calls being compared;
    on a busy machine the median of interleaved runs separates two calls a
    few percent apart far better than best-of.
    """
    times: dict[str, list[float]] = {name: [] for name in calls}
    results: dict[str, Any] = {}
    names = list(calls)
    for rep in range(repeats):
        for name in names if rep % 2 == 0 else reversed(names):
            t0 = time.perf_counter()
            results[name] = calls[name]()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(t) for name, t in times.items()}, results


def check(bench: Bench, runs: Runs, committed: dict[str, Any], threshold: float) -> int:
    """Gate the fresh headline ratio(s) against the committed file's."""
    recorded = committed.get("cpu_count")
    if recorded is not None and recorded != os.cpu_count():
        print(
            f"check: WARNING — committed baseline measured with cpu_count={recorded}, "
            f"this machine has {os.cpu_count()}; normalized ratios shift with core "
            f"topology, so treat this gate as coarse",
            file=sys.stderr,
        )
    old, new = bench.cells(committed["runs"]), bench.cells(runs)
    headline = bench.headline([cell for cell in new if cell in old])
    if not headline:
        print("check: no shared headline cell between fresh and committed runs", file=sys.stderr)
        return 2
    status = 0
    for cell in headline:
        (old_num, old_den), (new_num, new_den) = old[cell], new[cell]
        old_ratio, new_ratio = old_num / old_den, new_num / new_den
        rel = new_ratio / old_ratio if old_ratio else float("inf")
        print(
            f"check: {cell}: {bench.gated} committed {old_num:.4g}/{old_den:.4g} = "
            f"{old_ratio:.4g}, fresh {new_num:.4g}/{new_den:.4g} = {new_ratio:.4g}, "
            f"relative {rel:.2f}"
        )
        if (rel < 1.0 - threshold) if bench.higher_is_better else (rel > 1.0 + threshold):
            print(
                f"check: FAIL — {cell}: {bench.gated} regressed {abs(rel - 1.0) * 100:.0f}% "
                f"(> {threshold * 100:.0f}% allowed)",
                file=sys.stderr,
            )
            status = 1
    if status == 0:
        print("check: OK")
    return status


def main(bench: Bench, argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=bench.description)
    parser.add_argument("--quick", action="store_true", help="small CI grid")
    parser.add_argument(
        "--out",
        default=None,
        help=f"output JSON path (default BENCH_{bench.name}.json, or "
        f"bench_{bench.name}_fresh.json when --check is given)",
    )
    parser.add_argument("--label", default=bench.label, help="label for this variant")
    parser.add_argument(
        "--check",
        metavar="FILE",
        help=f"gate the fresh {bench.gated} ratio against a committed bench file",
    )
    parser.add_argument("--threshold", type=float, default=0.25, help="allowed regression for --check")
    args = parser.parse_args(argv)

    if args.out is None:
        args.out = f"bench_{bench.name}_fresh.json" if args.check else f"BENCH_{bench.name}.json"
    committed: Optional[dict[str, Any]] = None
    if args.check:
        # Load before writing: --out and --check may still name the same file.
        with open(args.check, "r", encoding="utf-8") as fh:
            committed = json.load(fh)

    runs = bench.run(args.quick)
    cells = bench.cells(runs)
    for cell in bench.headline(list(cells)):
        num, den = cells[cell]
        print(f"headline {cell}: {bench.gated} {num:.4g}/{den:.4g} = {num / den:.4g}")

    payload: dict[str, Any] = {
        "schema": f"bench_{bench.name}/v1",
        "label": args.label,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "runs": runs,
        **bench.extras(runs),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(runs)} runs)")

    mismatches = bench.mismatches(runs)
    for message in mismatches:
        print(f"FAIL: {message}", file=sys.stderr)
    if mismatches:
        return 1
    if committed is not None:
        return check(bench, runs, committed, args.threshold)
    return 0
