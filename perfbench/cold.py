"""``cold_analyze``: cold ``repro analyze`` subprocesses at paper and large scale.

This is the wait a researcher has: interpreter start, imports, study
generation, network, filter, MCODE and classification, all in a fresh
process.  Paper scale (1.0: 28,145 genes, 44,806 edges) is dominated by the
compute layers, scale 0.15 mostly by imports, so each run measures both and
reports them apart: an import diet moves the 0.15 figure and a paper-scale
kernel fix the 1.0 figure, and neither can hide behind the other.

Metrics: ``setup_s`` is a cold ``repro datasets`` (interpreter plus CLI
import, the fixed cost of every command); ``primary_s`` / ``secondary_s``
are the median wall times at scale 1.0 / 0.15; ``ops_per_s`` is analyses
per second of the schedule at those medians; ``peak_rss_mb`` is the median
peak RSS of the scale-1.0 child.  Times are in reference-machine seconds
(see :class:`common.Clock`).
"""

from __future__ import annotations

import random
from typing import Any

from common import Clock, Tally, median, metric, run_child, sha256_hex

SCALES = {"paper": 1.0, "large": 0.15}
SETUP_REPEATS = 3
#: One cycle (one paper-scale and four large runs) takes about 17 s on the
#: reference 2-core machine; a run holds one cycle per 10 s of ``--seconds``.
CYCLE_SECONDS = 10.0


def analyze_args(scale: float) -> list[str]:
    return ["-m", "repro", "analyze", "--dataset", "CRE", "--scale", str(scale), "--json"]


def run(seed: int, seconds: int, tally: Tally, oracle: dict[str, Any]) -> tuple[dict, dict]:
    rng = random.Random(seed)
    digests = oracle["cold_analyze"]
    clock = Clock()

    setups = []
    clock.calibrate()
    for _ in range(SETUP_REPEATS):
        wall, _, out, code = run_child(["-m", "repro", "datasets", "--scale", "1.0"])
        tally.check(code == 0 and b"CRE" in out, f"repro datasets exited {code}")
        setups.append(wall)

    walls: dict[str, list[float]] = {"paper": [], "large": []}
    rss_kb: list[int] = []
    cycles = max(1, round(seconds / CYCLE_SECONDS))
    for _ in range(cycles):
        schedule = ["paper"] + ["large"] * 4
        rng.shuffle(schedule)
        for kind in schedule:
            clock.calibrate()
            wall, rss, out, code = run_child(analyze_args(SCALES[kind]))
            tally.check(
                code == 0 and sha256_hex(out) == digests[kind],
                f"analyze {kind}: exit {code}, digest {sha256_hex(out)[:16]}",
            )
            walls[kind].append(wall)
            if kind == "paper":
                rss_kb.append(rss)
    clock.calibrate()
    k = clock.factor
    # Analyses per second at the median wall times: the schedule's mix,
    # without letting one slow outlier set the rate.
    n_ops = sum(map(len, walls.values()))
    busy = sum(len(w) * median(w) for w in walls.values())
    metrics = {
        "setup_s": metric(k * median(setups), "s"),
        "primary_s": metric(k * median(walls["paper"]), "s"),
        "secondary_s": metric(k * median(walls["large"]), "s"),
        "ops_per_s": metric(n_ops / busy / k, "1/s"),
        "peak_rss_mb": metric(median(rss_kb) / 1024.0, "MB"),
    }
    detail = {
        "analyze_paper_s": walls["paper"],
        "analyze_large_s": walls["large"],
        "analyze_paper_rss_mb": [r / 1024.0 for r in rss_kb],
        "setup_s": setups,
        "calibration_s": clock.samples,
    }
    return metrics, detail
