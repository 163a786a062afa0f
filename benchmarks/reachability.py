#!/usr/bin/env python3
"""Which functions of ``src/repro`` does a product path call?

The script runs every product surface in-process under a call tracer and
lists the functions of ``src/repro`` that none of them entered:

* ``repro analyze``: 3 methods x 4 orderings x P in {1, 4} on CRE and YNG;
* ``repro filter``: 4 partitioners x 3 backends (serial, thread, process),
  plus ``--output``;
* ``repro datasets``, every ``repro figure``, and ``repro batch --scale tiny``
  twice on one disk cache (the second run is all cache hits);
* the four ablations of :mod:`repro.pipeline.ablation`;
* the five examples;
* an in-process daemon answering ping, datasets, filter, classify, enrich
  (both sources), the four update kinds, reload, stats and shutdown.

An unreached function must be one of four kinds, recorded with a tag and a
reason in ``reachability_kept.txt`` beside this script:

``oracle``      a test pins a product kernel against it;
``public``      a CLI command, an example, a ``benchmarks/`` script or
                ``perfbench/`` calls it, and the reason names that file; a
                step the paper describes also counts, and its reason starts
                ``paper:``;
``harness``     test machinery that lives in ``src/``: only ``repro.faults``
                (worker processes import it) and the seeded generators of
                ``repro.graph.generators`` (inputs of the kernel pins);
``blind-spot``  a product path does reach it, but the trace cannot see the
                call (worker processes, error and shutdown paths).

Anything else is dead code.  Usage, from the root of a checkout::

    PYTHONPATH=src python benchmarks/reachability.py           # report
    PYTHONPATH=src python benchmarks/reachability.py --check   # gate

``--check`` exits 1 when a function is unreached but not listed, when a
listed function no longer exists, or when an entry breaks its tag's rule
(:func:`entry_errors`).  A listed function that the trace reaches is
reported but does not fail the check.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
KEPT_FILE = Path(__file__).resolve().parent / "reachability_kept.txt"
SCALE = "0.02"
TAGS = ("oracle", "public", "harness", "blind-spot")
#: The only modules whose functions may be tagged ``harness``.
HARNESS_MODULES = ("repro.faults", "repro.graph.generators")


# ----------------------------------------------------------------------
# the functions of src/repro
# ----------------------------------------------------------------------
def defined_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(path, first line) -> (module:qualname, end line)`` of every def.

    The first line is the code object's ``co_firstlineno``: the line of the
    first decorator when there is one.  Lambdas and comprehensions are left
    out; they run inside their enclosing function.
    """
    out: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(os.path.realpath(path), first)] = (f"{module}:{qualname}", child.end_lineno)
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


# ----------------------------------------------------------------------
# the product surfaces
# ----------------------------------------------------------------------
def _cli(*argv: str, expect: int = 0) -> None:
    from repro.cli import main

    code = main(list(argv))
    if code != expect:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}, expected {expect}")


def run_cli(tmp: Path) -> None:
    from repro.graph.ordering import ordering_names
    from repro.pipeline.batch import driver_names

    _cli("datasets", "--scale", SCALE)
    for dataset in ("CRE", "YNG"):
        for method in ("chordal", "chordal_comm", "random_walk"):
            for ordering in ordering_names():
                for parts in ("1", "4"):
                    _cli("analyze", "--dataset", dataset, "--scale", SCALE, "--method", method,
                         "--ordering", ordering, "--partitions", parts, "--json")
    _cli("analyze", "--dataset", "CRE", "--scale", SCALE)
    for partitioner in ("block", "bfs", "hash", "greedy"):
        for backend in ("serial", "thread", "process"):
            for method in ("chordal", "chordal_comm"):
                _cli("filter", "--dataset", "CRE", "--scale", SCALE, "--method", method,
                     "--partitions", "2", "--partition-method", partitioner,
                     "--backend", backend, "--json")
    _cli("filter", "--dataset", "CRE", "--scale", SCALE, "--method", "random_walk",
         "--partitions", "2", "--output", str(tmp / "filtered.tsv"))
    _cli("filter", "--dataset", "YNG", "--scale", SCALE, "--ordering", "rcm")
    for name in driver_names():
        _cli("figure", name, "--scale", SCALE)
    cache = tmp / "batch-cache"
    for _ in range(2):
        _cli("batch", "--scale", "tiny", "--cache-dir", str(cache))


def run_ablations() -> None:
    from repro.pipeline import ablation

    scale = float(SCALE)
    ablation.mcode_threshold_sweep(scale=scale)
    ablation.partitioner_ablation(scale=scale, n_partitions=4)
    ablation.hub_retention_study(scale=scale, n_partitions=4)
    ablation.quasi_chordality_study(scale=scale, processor_counts=(2, 8))


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def run_daemon(tmp: Path) -> None:
    """``repro serve`` on a thread, driven by ``repro request``."""
    port_file = str(tmp / "serve.port")
    server = threading.Thread(
        target=_cli, args=("serve", "--scale", SCALE, "--workers", "2", "--port-file", port_file)
    )
    server.start()

    def request(op: str, expect: int = 0, **params) -> None:
        _cli("request", op, "--port-file", port_file, "--connect-retries", "50",
             "--params", json.dumps({"dataset": "CRE", **params}) if params else "{}",
             expect=expect)

    try:
        request("ping")
        request("filter", expect=1, bogus=1)  # a bad request: the error reply path
        request("datasets")
        request("filter", method="chordal_comm", ordering="rcm", partitions=2, include_edges=True)
        for source in ("original", "filtered"):
            request("enrich", source=source)
        for _ in range(2):  # a miss, then a cache hit
            request("classify", method="chordal", partitions=2)
        for kind in ("add_annotations", "add_terms", "add_genes", "add_samples"):
            request("update", **{kind: 2})
            request("classify")
            request("enrich", source="filtered")
        request("reload")
        request("stats")
    finally:
        request("shutdown")
        server.join()


WORKLOADS = (run_cli, lambda tmp: run_ablations(), lambda tmp: run_examples(), run_daemon)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def trace_workloads() -> set[tuple[str, int]]:
    """Run the workloads and return ``(path, first line)`` of every entered code."""
    seen: set = set()
    add = seen.add

    def tracer(frame, event, arg):  # 'call' events only: no local tracer
        add(frame.f_code)

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
            for fn in WORKLOADS:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    fn(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        from repro.parallel.runner import shutdown_worker_pool

        shutdown_worker_pool()
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}


def read_kept(text: str) -> dict[str, tuple[str, str]]:
    """``module:qualname -> (tag, reason)`` from the text of a keep list."""
    kept: dict[str, tuple[str, str]] = {}
    for raw in text.splitlines():
        entry, _, reason = raw.partition("#")
        if not entry.strip():
            continue
        name, tag = entry.split()[:2]
        kept[name] = (tag, reason.strip())
    return kept


def _needle(name: str) -> str:
    """What a caller's file must contain: the def's own name or, for a
    special method (spelt by syntax: ``len(x)``, ``with x``), its class's."""
    parts = name.split(":", 1)[1].split(".")
    if parts[-1].startswith("__") and parts[-1].endswith("__") and len(parts) > 1:
        return parts[-2]
    return parts[-1]


def entry_errors(name: str, tag: str, reason: str, root: Path = ROOT) -> list[str]:
    """Why the keep-list entry ``name tag # reason`` breaks its tag's rule.

    A ``public`` reason starts ``paper:`` or names a file of the checkout
    outside ``tests/`` and other than the def's own module that contains
    the def's name (:func:`_needle`).  ``harness`` is refused outside
    :data:`HARNESS_MODULES`.
    """
    module = name.split(":", 1)[0]
    if tag not in TAGS:
        return [f"{name}: unknown tag {tag!r}"]
    if tag == "harness" and module not in HARNESS_MODULES:
        return [f"{name}: harness outside {', '.join(HARNESS_MODULES)}"]
    if tag != "public" or reason.startswith("paper:"):
        return []
    own = root / "src" / Path(*module.split(".")).with_suffix(".py")
    needle = _needle(name)
    for word in reason.replace(",", " ").replace(";", " ").split():
        path = root / word.strip("()`'\".:")
        if not path.is_file() or path == own or path.is_relative_to(root / "tests"):
            continue
        if needle in path.read_text(encoding="utf-8"):
            return []
        return [f"{name}: {path.relative_to(root)} does not mention {needle!r}"]
    return [f"{name}: public reason names no caller file outside tests/ and no paper: step"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached function that is not listed")
    args = parser.parse_args(argv)

    key = defined_functions()
    entered = trace_workloads()
    # An unreached def nested in an unreached def is not counted apart: the
    # outer one is listed (and deleted or kept) as a whole.
    unreached: dict[tuple[str, int], tuple[str, int]] = {}
    outer_end: dict[str, int] = {}
    for (path, first), (name, end) in sorted(key.items()):
        if (path, first) in entered or first <= outer_end.get(path, 0):
            continue
        outer_end[path] = end
        unreached[(path, first)] = (name, end)
    lines = sum(end - first + 1 for (_, first), (_, end) in unreached.items())

    kept = read_kept(KEPT_FILE.read_text(encoding="utf-8"))
    broken = [e for name, (tag, reason) in kept.items() for e in entry_errors(name, tag, reason)]
    unreached_names = {v[0] for v in unreached.values()}
    defined_names = {v[0] for v in key.values()}
    unlisted = sorted(unreached_names - set(kept))
    missing = sorted(set(kept) - defined_names)
    reached = sorted(set(kept) & defined_names - unreached_names)

    print(f"{len(unreached)} of {len(key)} functions unreached ({lines} lines)")
    by_tag = {tag: sum(1 for n in unreached_names if kept.get(n, ("",))[0] == tag) for tag in TAGS}
    print("listed: " + ", ".join(f"{tag} {count}" for tag, count in by_tag.items()))
    for name in reached:
        print(f"listed but reached: {name}")
    for name in missing:
        print(f"listed but not defined: {name}")
    for name in unlisted:
        print(f"unreached and not listed: {name}")
    for error in broken:
        print(f"entry breaks its rule: {error}")
    if args.check and (unlisted or missing or broken):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
