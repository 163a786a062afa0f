"""Regenerate ``oracle.json``, the digests every benchmark run checks against.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/make_oracle.py

The digests come from the cold CLI (``repro analyze --json`` stdout) and
from the ``serial`` backend, never from the paths the benchmark measures.
"""

from __future__ import annotations

import json
import sys

import common
import serve_mixed
import spmd
from cold import SCALES, analyze_args


def cli_digest(args: list[str]) -> str:
    _, _, out, code = common.run_child(args)
    if code != 0:
        raise SystemExit(f"repro {' '.join(args)} exited {code}")
    return common.sha256_hex(out)


def main() -> int:
    common.prepare_paths()
    from repro.pipeline.workflow import filter_payload

    oracle = {"cold_analyze": {kind: cli_digest(analyze_args(s)) for kind, s in SCALES.items()}}

    hot = {}
    for spec in serve_mixed.HOT:
        ordering, partitions, method = spec
        args = analyze_args(serve_mixed.SCALE)
        args += ["--ordering", ordering, "--partitions", str(partitions), "--method", method]
        hot[serve_mixed.spec_key(spec)] = cli_digest(args)
    oracle["serve_mixed"] = hot

    network = spmd.build_network()
    oracle["spmd_sweep"] = {
        f"{o}/{m}": filter_payload(spmd.run_spec(network, o, m, "serial"))["edges_sha256"]
        for o, m in spmd.SPECS
    }
    with open(common.ORACLE_FILE, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
