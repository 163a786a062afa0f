"""Command-line interface.

A small CLI so the pipeline can be driven without writing Python:

``python -m repro filter``
    generate (or load) a correlation network, apply a sampling filter and
    report / save the result;
``python -m repro analyze``
    run the full downstream analysis (MCODE + enrichment + overlap) for one
    dataset and filter configuration;
``python -m repro figure``
    regenerate one of the paper's figures and print its rows/series;
``python -m repro batch``
    run a sweep of figure experiments (dedup, disk cache, in-process);
``python -m repro datasets``
    list the built-in synthetic datasets and their scaled sizes;
``python -m repro serve``
    start the resident warm-state analysis daemon (see :mod:`repro.serve`);
``python -m repro request``
    send one request to a running daemon and print its canonical JSON result.

Every command accepts ``--scale`` (default: the benchmark scale, see
``REPRO_SCALE``) and prints plain-text tables via :mod:`repro.pipeline.report`.
``filter`` and ``analyze`` additionally take ``--json``, which prints the
*canonical result payload* instead of the tables — byte-identical to what the
daemon serves for the same request, which is how the serving tests pin
cold/warm equivalence.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Iterator, Optional, Sequence

from .core.sampling import apply_filter, filter_names
from .parallel.runner import BACKOFF_SEED, available_backends, backoff, configure_supervision
from .expression.datasets import DATASET_CONFIGS, dataset_names, default_scale, make_study
from .graph.io import write_edge_list
from .graph.ordering import canonical_ordering_name, ordering_names
from .graph.partition import INDEX_PARTITIONERS
from .pipeline.report import format_kv, format_table

__all__ = ["build_parser", "main"]


class _FigureNames:
    """The ``repro figure`` choices: the batch engine's driver registry.

    argparse reads choices only to check a parsed name or to print help, so
    the registry (and the experiment stack behind it) is imported then, not
    whenever the parser is built.
    """

    def __contains__(self, name: object) -> bool:
        from .pipeline.batch import DRIVERS

        return name in DRIVERS

    def __iter__(self) -> Iterator[str]:
        from .pipeline.batch import DRIVERS

        return iter(sorted(DRIVERS))


def _ordering_arg(name: str) -> str:
    """``--ordering``: a registry name or paper abbreviation, stored canonical."""
    try:
        return canonical_ordering_name(name)
    except KeyError as err:
        raise argparse.ArgumentTypeError(err.args[0]) from None


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel adaptive (chordal-subgraph) sampling for biological networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ordering_help = f"one of {ordering_names()} or a paper abbreviation (hd, ld, no)"

    datasets = sub.add_parser("datasets", help="list the built-in synthetic datasets")
    datasets.add_argument("--scale", type=float, default=None, help="dataset scale (default: REPRO_SCALE or 0.1)")

    filt = sub.add_parser("filter", help="apply a sampling filter to a dataset's correlation network")
    filt.add_argument("--dataset", choices=dataset_names(), default="CRE")
    filt.add_argument("--scale", type=float, default=None)
    filt.add_argument("--method", choices=filter_names(), default="chordal")
    filt.add_argument("--ordering", type=_ordering_arg, default="natural", help=ordering_help)
    filt.add_argument("--partitions", type=int, default=1, help="number of simulated processors")
    filt.add_argument("--partition-method", choices=list(INDEX_PARTITIONERS), default="block")
    filt.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="execution backend for the parallel chordal filters "
        "(default: each filter's own — serial for the no-communication "
        "sampler, threaded SPMD for the with-communication one); "
        "'process' runs ranks on resident worker processes over local sockets "
        "('process-sock' and 'process-shm' are aliases of it)",
    )
    filt.add_argument("--seed", type=int, default=0, help="seed for the random-walk filter")
    filt.add_argument("--output", default=None, help="write the filtered network as an edge list to this path")
    filt.add_argument(
        "--json",
        action="store_true",
        help="print the canonical result payload (one JSON line) instead of tables",
    )
    _add_supervision_args(filt)

    analyze = sub.add_parser("analyze", help="full analysis: filter + MCODE + enrichment + overlap")
    analyze.add_argument("--dataset", choices=dataset_names(), default="CRE")
    analyze.add_argument("--scale", type=float, default=None)
    analyze.add_argument("--method", choices=filter_names(), default="chordal")
    analyze.add_argument("--ordering", type=_ordering_arg, default="natural", help=ordering_help)
    analyze.add_argument("--partitions", type=int, default=1)
    analyze.add_argument("--partition-method", choices=list(INDEX_PARTITIONERS), default="block")
    analyze.add_argument("--seed", type=int, default=0, help="seed for the random-walk filter")
    analyze.add_argument("--top", type=int, default=10, help="number of clusters to list")
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the canonical result payload (one JSON line) instead of tables",
    )
    _add_supervision_args(analyze)

    serve = sub.add_parser(
        "serve",
        help="start the resident analysis daemon (warm bundles, caching, batching)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    serve.add_argument(
        "--preload",
        default="",
        help="comma-separated datasets to warm before accepting clients",
    )
    serve.add_argument("--scale", type=float, default=None)
    serve.add_argument("--workers", type=int, default=4, help="executor threads")
    serve.add_argument("--max-pending", type=int, default=64, help="admission queue bound")
    serve.add_argument("--cache-size", type=int, default=256, help="LRU result-cache entries")
    serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening (for scripts)",
    )
    _add_supervision_args(serve)

    request = sub.add_parser("request", help="send one request to a running daemon")
    request.add_argument("op", help="operation: filter / classify / enrich / ping / stats / reload / update / shutdown")
    request.add_argument("--host", default="127.0.0.1")
    request.add_argument("--port", type=int, default=None)
    request.add_argument("--port-file", default=None, help="read the daemon's port from this file")
    request.add_argument(
        "--params",
        default="{}",
        help='request parameters as one JSON object, e.g. \'{"dataset": "CRE"}\'',
    )
    request.add_argument("--timeout", type=float, default=600.0)
    request.add_argument(
        "--connect-retries",
        type=int,
        default=20,
        help="retry a refused connection (and a missing port file) this many "
        "times with seeded backoff, so a request issued right after "
        "`repro serve &` waits for the daemon instead of failing (0 disables)",
    )
    request.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a transient request failure (busy / timeout / dropped "
        "connection) this many times; requests are idempotent, so a retry "
        "returns the byte-identical payload",
    )
    update_opts = request.add_argument_group(
        "update op", "mutation sizes for the `update` op (merged into --params)"
    )
    update_opts.add_argument("--add-samples", type=int, default=None, metavar="N")
    update_opts.add_argument("--add-genes", type=int, default=None, metavar="N")
    update_opts.add_argument("--add-annotations", type=int, default=None, metavar="N")
    update_opts.add_argument("--add-terms", type=int, default=None, metavar="N")
    update_opts.add_argument(
        "--update-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed of the synthesised mutation payload (params key: seed)",
    )

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument(
        "name",
        choices=_FigureNames(),
        metavar="NAME",
        help="figure / claim to regenerate: %(choices)s",
    )
    figure.add_argument("--scale", type=float, default=None)

    batch = sub.add_parser(
        "batch",
        help="run a batch of figure experiments (dedup, disk cache, in-process)",
    )
    batch.add_argument(
        "--figures",
        default="all",
        help="comma-separated driver names (see `repro figure -h`) or 'all'",
    )
    batch.add_argument(
        "--scale",
        dest="scales",
        default=None,
        help="comma-separated scales: floats or tiny/small/default/full "
        "(default: REPRO_SCALE or 0.1)",
    )
    batch.add_argument(
        "--ordering",
        dest="orderings",
        default=None,
        help="comma-separated vertex orderings, applied to drivers that take one",
    )
    batch.add_argument(
        "--seed",
        dest="seeds",
        default=None,
        help="comma-separated seeds, applied to drivers that take one",
    )
    batch.add_argument(
        "--cache-dir",
        default=".repro-batch-cache",
        help="directory for per-run JSON results (spec-hash keyed)",
    )
    batch.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    batch.add_argument("--force", action="store_true", help="re-run even on cache hits")
    batch.add_argument("--root-seed", type=int, default=0, help="root of the per-run RNG streams")

    return parser


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Shared fault-supervision flags (filter / analyze / serve)."""
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry a failed parallel round this many times before giving up "
        "(default: the built-in supervision policy)",
    )
    parser.add_argument(
        "--no-degrade",
        action="store_true",
        help="fail instead of degrading to a simpler execution backend when "
        "the worker hub cannot be brought up",
    )


def _apply_supervision(args: argparse.Namespace) -> None:
    """Install the CLI's supervision overrides on the process-wide policy."""
    configure_supervision(
        max_retries=args.max_retries,
        degrade=False if args.no_degrade else None,
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    scale = args.scale if args.scale is not None else default_scale()
    rows = []
    for name in dataset_names():
        config = DATASET_CONFIGS[name].scaled(scale)
        rows.append(
            {
                "dataset": name,
                "genes": config.n_genes,
                "samples": config.n_samples,
                "modules": config.n_modules,
                "noise_chains": config.n_noise_chains,
                "noise_clumps": config.n_noise_clumps,
                "biological_signal": config.biological_signal,
            }
        )
    print(format_table(rows, title=f"Built-in synthetic datasets at scale {scale}"))
    return 0


def _cmd_filter(args: argparse.Namespace) -> int:
    _apply_supervision(args)
    scale = args.scale if args.scale is not None else default_scale()
    study = make_study(args.dataset, scale=scale)
    result = apply_filter(
        study.network_csr(),
        method=args.method,
        ordering=args.ordering if args.method != "random_walk" else None,
        n_partitions=args.partitions,
        partition_method=args.partition_method,
        seed=args.seed,
        backend=args.backend,
    )
    if args.json:
        from .pipeline.workflow import filter_payload

        print(_canonical_json(filter_payload(result)))
    else:
        print(format_kv(result.summary(), title=f"{args.dataset} @ scale {scale}: {args.method}"))
    if args.output:
        write_edge_list(result.graph, args.output)
        if not args.json:
            print(f"filtered network written to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .pipeline.workflow import analysis_payload, analyze_filter, prepare_dataset

    _apply_supervision(args)
    scale = args.scale if args.scale is not None else default_scale()
    bundle = prepare_dataset(args.dataset, scale=scale)
    analysis = analyze_filter(
        bundle,
        method=args.method,
        ordering=args.ordering if args.method != "random_walk" else None,
        n_partitions=args.partitions,
        partition_method=args.partition_method,
        seed=args.seed,
    )
    if args.json:
        print(_canonical_json(analysis_payload(analysis)))
        return 0
    print(format_kv(analysis.summary(), title=analysis.label))
    rows = []
    for cluster, aees in list(zip(analysis.clusters, analysis.cluster_aees()))[: args.top]:
        rows.append(
            {
                "cluster": cluster.cluster_id,
                "size": cluster.n_vertices,
                "edges": cluster.n_edges,
                "mcode_score": cluster.score,
                "aees": aees,
            }
        )
    print()
    print(format_table(rows, title=f"top {len(rows)} clusters"))
    return 0


def _canonical_json(payload: dict) -> str:
    """The byte-exact serialisation both the CLI and the daemon emit."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ReproServer  # deferred: the daemon is opt-in

    _apply_supervision(args)
    scale = args.scale if args.scale is not None else default_scale()
    preload = tuple(_split(args.preload))
    server = ReproServer(
        host=args.host,
        port=args.port,
        preload=preload,
        default_scale=scale,
        workers=args.workers,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
    )
    server.start()
    try:
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{server.port}\n")
        print(
            f"repro serve: listening on {server.host}:{server.port} "
            f"(scale {scale}, {args.workers} workers"
            + (f", preloaded {', '.join(preload)}" if preload else "")
            + ")",
            flush=True,
        )
        server.serve_forever()
    finally:
        server.stop()
    return 0


def _read_port_file(path: str, retries: int) -> int:
    """Read the daemon's port file, waiting for it to appear when asked to.

    A daemon started with ``repro serve --port-file ... &`` writes the file
    only once it is listening; retrying the read (missing or still-empty
    file) with seeded backoff lets a request race that startup safely.
    """
    rng = random.Random(BACKOFF_SEED)
    attempt = 0
    while True:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read().strip()
            if not text:
                raise OSError(f"port file {path} is empty")
            return int(text)
        except (OSError, ValueError):
            if attempt >= retries:
                raise
            attempt += 1
            backoff(rng, attempt)


def _cmd_request(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError, ServeTimeout  # deferred

    connect_retries = max(0, args.connect_retries)
    try:
        params = json.loads(args.params)
    except ValueError as err:
        print(f"repro request: --params is not valid JSON: {err}", file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("repro request: --params must be a JSON object", file=sys.stderr)
        return 2
    # Convenience flags for the `update` op; explicit flags win over --params.
    for flag, key in (
        (args.add_samples, "add_samples"),
        (args.add_genes, "add_genes"),
        (args.add_annotations, "add_annotations"),
        (args.add_terms, "add_terms"),
        (args.update_seed, "seed"),
    ):
        if flag is not None:
            params[key] = flag
    port = args.port
    try:
        if port is None and args.port_file:
            port = _read_port_file(args.port_file, connect_retries)
        if port is None:
            print("repro request: --port or --port-file is required", file=sys.stderr)
            return 2
        with ServeClient(
            host=args.host,
            port=port,
            timeout=args.timeout,
            connect_retries=connect_retries,
            max_retries=max(0, args.retries),
        ) as client:
            result = client.result(args.op, **params)
    except (ServeError, ServeTimeout, OSError, ValueError) as err:
        print(f"repro request: {err}", file=sys.stderr)
        return 1
    print(_canonical_json(result) if isinstance(result, dict) else json.dumps(result))
    return 0


def _split(raw: Optional[str]) -> list[str]:
    """Split a comma-separated CLI list, dropping empties; ``None`` → ``[]``."""
    if raw is None:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_batch(args: argparse.Namespace) -> int:
    from .pipeline.batch import (
        RunSpec,
        driver_accepts,
        driver_names,
        get_driver,
        parse_scale,
        run_batch,
    )

    figures = [f.lower() for f in _split(args.figures)]
    if not figures or figures == ["all"]:
        figures = driver_names()
    try:
        scales = [parse_scale(s) for s in _split(args.scales)] or [default_scale()]
        seeds = [int(s) for s in _split(args.seeds)] or [None]
        # Raises early, naming the valid orderings; an abbreviation runs
        # (and is cached) under its canonical name.
        orderings = [canonical_ordering_name(name) for name in _split(args.orderings)] or [None]
        for figure in figures:
            get_driver(figure)  # raises early, naming the valid drivers
    except (KeyError, ValueError) as err:
        message = err.args[0] if err.args else str(err)
        print(f"repro batch: {message}", file=sys.stderr)
        return 2

    # Cross-product of the swept axes; an axis only applies to drivers that
    # accept it (the spec dedup collapses the resulting duplicates).
    specs = []
    for figure in figures:
        takes_ordering = driver_accepts(figure, "ordering") or driver_accepts(figure, "orderings")
        takes_seed = driver_accepts(figure, "seed")
        for scale in scales:
            for ordering in orderings if takes_ordering else [None]:
                for seed in seeds if takes_seed else [None]:
                    specs.append(
                        RunSpec.create(figure, scale, ordering=ordering, seed=seed)
                    )

    results = run_batch(
        specs,
        cache_dir=None if args.no_cache else args.cache_dir,
        force=args.force,
        root_seed=args.root_seed,
    )
    print(format_table([r.row() for r in results], title=f"batch: {len(results)} runs"))
    failed = [r for r in results if r.status == "failed"]
    for r in failed:
        print(f"FAILED {r.spec.figure} @ {r.spec.scale}: {r.error}")
    if not args.no_cache:
        print(f"results cached under {args.cache_dir}")
    return 1 if failed else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .pipeline.batch import DRIVERS

    scale = args.scale if args.scale is not None else default_scale()
    out = DRIVERS[args.name](scale=scale)
    _print_figure(args.name, out)
    return 0


def _print_figure(name: str, out: dict) -> None:
    """Render a figure driver's output as text tables (best effort per figure)."""
    if "rows" in out:
        print(format_table(out["rows"], title=name))
        return
    if name == "fig05":
        for dataset, data in out["datasets"].items():
            print(format_table(data["overlap_points"][:30], title=f"{name} {dataset} (overlap, excerpt)"))
            print(f"{dataset}: new clusters = {len(data['new_cluster_points'])}")
    elif name in ("fig06", "fig07"):
        print(format_table(out["points"][:40], title=f"{name} (excerpt)"))
    elif name == "fig08":
        print(format_kv(out["node_overlap"], title="node overlap"))
        print(format_kv(out["edge_overlap"], title="edge overlap"))
    elif name == "fig09":
        print(format_kv(out["best_improvement"] or {}, title="largest AEES improvement"))
    elif name == "fig10":
        from .pipeline.report import format_series

        for label in ("small", "large"):
            print(format_series(out["series"][label], x_label="processors", title=f"{name} {label}"))
    elif name == "fig11":
        from .clustering.evaluation import EvaluationThresholds

        # fig11 keeps the clusters at or above its bundle's cut-off, which is
        # always the paper's.
        cut = EvaluationThresholds().aees_threshold
        for network, rows in out["top_clusters"].items():
            print(format_table(rows, title=f"{name}: {network} clusters with AEES >= {cut:g}"))
    else:  # pragma: no cover - defensive
        print(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "filter": _cmd_filter,
        "analyze": _cmd_analyze,
        "figure": _cmd_figure,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "request": _cmd_request,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
