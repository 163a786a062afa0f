"""The repository's benchmark: one entry point for every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_analyze --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

``cold_analyze``  cold ``repro analyze`` subprocesses at scale 1.0 and 0.15
``spmd_sweep``    the filter sweep on ``backend="process"`` at scale 1.0
``serve_mixed``   a closed loop of reads and writes against ``repro serve``

With ``--trace 0`` the run prints the end-to-end metrics.  Every workload
reports all five, each for its own operations:

=============  ====================  ======================  ======================
metric         cold_analyze          spmd_sweep              serve_mixed
=============  ====================  ======================  ======================
setup_s        cold ``repro          process pool warm-up    daemon spawn + preload
               datasets``                                    until the first ping
primary_s      analyze, scale 1.0    ``chordal_comm`` run    cache-miss classify
secondary_s    analyze, scale 0.15   ``chordal`` run         closing ``reload``
ops_per_s      analyses per second   filter runs per second  requests per second
peak_rss_mb    scale-1.0 child       benchmark process       daemon ``VmHWM``
=============  ====================  ======================  ======================

Times are medians over the run's samples, in reference-machine seconds
(see :class:`common.Clock`).  With ``--trace 1``
the run makes the traced layer pass (:mod:`layers`) instead and prints the
per-layer metrics.  Every output is checked against the digests
in ``oracle.json``; a mismatch, a failed request or anything left running
afterwards counts as a failed operation and makes the exit code 1.

The line before the last holds the environment (seed, ``nproc``, BLAS
threads, versions) and the raw samples; the last line is the result object.
A copy of both goes to ``.bench_out/result-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import common

WORKLOADS = ("cold_analyze", "spmd_sweep", "serve_mixed")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_workload(args: argparse.Namespace, tally: common.Tally, oracle: dict) -> tuple[dict, dict]:
    if args.trace:
        import layers

        return layers.run(args.workload, args.seed, tally, oracle)
    if args.workload == "cold_analyze":
        import cold as module
    elif args.workload == "spmd_sweep":
        import spmd as module
    else:
        import serve_mixed as module
    return module.run(args.seed, args.seconds, tally, oracle)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        common.prepare_paths()
        oracle = common.load_oracle()
    except (common.BenchError, OSError, ValueError) as err:
        print(f"perfbench: cannot run here: {err}", file=sys.stderr)
        return 2

    tally = common.Tally()
    segments_before = common.open_segments()
    try:
        metrics, detail = run_workload(args, tally, oracle)
    except Exception:
        traceback.print_exc()
        common.leak_report(segments_before)
        return 1
    for leak in common.leak_report(segments_before, sorted(common.OUT.glob("port-*"))):
        tally.fail(f"leak: {leak}")

    info = {
        "workload": args.workload,
        "trace": args.trace,
        "env": common.env_info(args.seed),
        "failures": tally.reasons,
        "detail": detail,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    common.write_out(f"result-{args.workload}-{args.seed}-{args.trace}.json", {**info, "result": result})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
