"""The traced pass: per-layer laps measured around each layer's public calls.

Each ``repro`` subpackage is a layer.  The pass reruns, in this process,
the calls ``repro analyze`` makes (``prepare_dataset`` + ``analyze_filter``)
with spans around the layer functions they reach, and must reproduce the
cold CLI's payload digest, otherwise it would measure another program.
It then times the layers the other workloads lean on: the serial baseline
of the SPMD sweep, process bring-up and transport, the incremental update
paths, and a short ``serve_mixed`` session for the daemon's counters.

The pass is the same for every workload, so each workload's traced run
reports every per-layer metric.  :data:`MOVES` names, for each metric, the
end-to-end figures it should move.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from typing import Any

import serve_mixed
import spmd
from common import OUT, Tally, median, metric, percentile, run_child, sha256_hex
from spans import SpanRecorder

#: Per-layer metric -> the end-to-end figures (workload: metric) it should move.
MOVES = {
    "pipeline.import_s": "cold_analyze: secondary_s, primary_s (serve imports land in setup_s)",
    "parallel.worker_import_s": "spmd_sweep: primary_s",
    "expression.study_s": "cold_analyze: primary_s; serve_mixed: secondary_s",
    "expression.correlation_s": "cold_analyze: primary_s; serve_mixed: secondary_s",
    "expression.network_build_s": "cold_analyze: primary_s; serve_mixed: secondary_s",
    "ontology.build_s": "cold_analyze: primary_s, secondary_s; serve_mixed: secondary_s",
    "ontology.classify_s": "cold_analyze: all; serve_mixed: primary_s",
    "clustering.mcode_original_s": "cold_analyze: primary_s; serve_mixed: secondary_s",
    "clustering.mcode_filtered_s": "cold_analyze: primary_s; serve_mixed: primary_s",
    "clustering.match_s": "cold_analyze: primary_s, peak_rss_mb",
    "clustering.match_peak_mb": "cold_analyze: peak_rss_mb",
    "core.filter_s": "cold_analyze: all; serve_mixed: primary_s",
    "core.filter_serial_s": "spmd_sweep: secondary_s",
    "graph.ordering_s": "spmd_sweep: primary_s, secondary_s",
    "graph.partition_s": "spmd_sweep: primary_s, secondary_s",
    "parallel.spmd_bringup_s": "spmd_sweep: primary_s, ops_per_s",
    "parallel.transport_overhead_s": "spmd_sweep: primary_s, ops_per_s",
    "parallel.comm_messages": "spmd_sweep: primary_s",
    "pipeline.analyze_filter_s": "serve_mixed: primary_s (the rest is serve overhead)",
    "incremental.update_annotations_s": "serve_mixed: ops_per_s",
    "incremental.update_samples_s": "serve_mixed: ops_per_s",
    "incremental.replay_s": "serve_mixed: secondary_s",
    "serve.hit_p50_ms": "serve_mixed: ops_per_s",
    "serve.write_p50_ms": "serve_mixed: ops_per_s",
    "serve.miss_p90_ms": "serve_mixed: primary_s",
    "serve.cache_hit_ratio": "serve_mixed: ops_per_s, primary_s",
    "serve.invalidated": "serve_mixed: ops_per_s",
    "serve.rejected": "serve_mixed: ops_per_s",
    "serve.coalesced_per_batch": "serve_mixed: ops_per_s",
    "serve.update_log_len": "serve_mixed: secondary_s",
    "pipeline.unattributed_s": "cold_analyze: primary_s",
    "trace.overhead_frac": "none (tracing cost of this pass)",
    "error_frac": "none (share of this pass's checks that failed)",
}

#: The layer functions the analyze chain reaches, by the name its caller
#: looks up, and the lap each call is charged to.
CHAIN_PATCHES = (
    ("repro.pipeline.workflow.make_study", "expression.study"),
    ("repro.expression.datasets.correlated_pair_arrays", "expression.correlation"),
    ("repro.expression.datasets.network_from_pair_arrays", "expression.network_build"),
    ("repro.expression.datasets.csr_from_pair_arrays", "expression.network_build"),
    ("repro.pipeline.workflow.make_study_ontology", "ontology.build"),
    ("repro.pipeline.workflow.EnrichmentScorer", "ontology.build"),
    ("repro.pipeline.workflow.apply_filter", "core.filter"),
    ("repro.pipeline.workflow.match_and_lost_clusters", "clustering.match"),
    ("repro.pipeline.workflow.classify_matches", "ontology.classify"),
    ("repro.core.sequential.ordering_indices", "graph.ordering"),
    ("repro.core.parallel_nocomm.block_partition_indices", "graph.partition"),
)
SERVE_OPS = 40
IMPORT_REPEATS = 2


def _mcode_lap(*args: Any, **kwargs: Any) -> str:
    source = kwargs.get("source", "")
    return "clustering.mcode_original" if source.endswith("/original") else "clustering.mcode_filtered"


def analyze(scale: float):
    from repro.pipeline.workflow import analysis_payload, analyze_filter, prepare_dataset

    bundle = prepare_dataset("CRE", scale=scale)
    analysis = analyze_filter(bundle)
    return bundle, analysis, analysis_payload(analysis)


def import_laps(out: dict[str, float]) -> None:
    for key, module in (
        ("pipeline.import_s", "repro.cli"),
        ("parallel.worker_import_s", "repro.parallel.runner"),
    ):
        out[key] = median([run_child(["-c", f"import {module}"])[0] for _ in range(IMPORT_REPEATS)])


def chain_laps(rec: SpanRecorder, tally: Tally, oracle: dict[str, Any], out: dict[str, float]):
    """Analyze at 0.15 (warm-up, untraced, traced, untraced) and traced at 1.0."""
    digests = oracle["cold_analyze"]
    # The first call pays one-off costs (lazy imports, first-touch), so it
    # is not one of the untraced times the traced run is compared with.
    large_bundle, _, payload = analyze(0.15)
    tally.check(sha256_hex(serve_mixed.canonical(payload)) == digests["large"], "untraced 0.15 digest")
    start = time.perf_counter()
    analyze(0.15)
    plain = [time.perf_counter() - start]

    for target, name in CHAIN_PATCHES:
        rec.patch(target, name)
    rec.patch("repro.pipeline.workflow.mcode_clusters", _mcode_lap)
    try:
        with rec.span("pipeline.analyze_large") as large_span:
            _, _, payload = analyze(0.15)
        tally.check(sha256_hex(serve_mixed.canonical(payload)) == digests["large"], "traced 0.15 digest")
        first_paper = len(rec.spans)
        with rec.span("pipeline.analyze_paper") as paper_span:
            paper_bundle, paper_analysis, payload = analyze(1.0)
        tally.check(sha256_hex(serve_mixed.canonical(payload)) == digests["paper"], "traced 1.0 digest")
    finally:
        rec.unpatch()
    start = time.perf_counter()
    analyze(0.15)
    plain.append(time.perf_counter() - start)

    paper = [s for s in rec.spans[first_paper:] if s.parent == paper_span.id]
    for name in (
        "expression.study", "expression.correlation", "expression.network_build",
        "ontology.build", "ontology.classify", "clustering.mcode_original",
        "clustering.mcode_filtered", "clustering.match", "core.filter",
    ):
        out[f"{name}_s"] = sum(s.duration for s in paper if s.name == name)
    out["pipeline.unattributed_s"] = rec.self_time(paper_span)
    out["trace.overhead_frac"] = large_span.duration / median(plain) - 1.0

    from repro.clustering.overlap import match_and_lost_clusters

    tracemalloc.start()
    match_and_lost_clusters(paper_bundle.original_clusters, paper_analysis.clusters)
    out["clustering.match_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return large_bundle, paper_bundle.network


def spmd_laps(
    rec: SpanRecorder, network, tally: Tally, oracle: dict[str, Any], out: dict[str, float]
) -> None:
    """The sweep's serial baseline, then process bring-up and transport."""
    from repro.parallel.runner import run_spmd, shutdown_worker_pool

    serial = {}
    rec.patch("repro.core.sequential.ordering_indices", "graph.ordering")
    rec.patch("repro.core.parallel_nocomm.block_partition_indices", "graph.partition")
    try:
        with rec.span("core.filter_serial") as sweep_span:
            for ordering, method in spmd.SPECS:
                start = time.perf_counter()
                result = spmd.run_spec(network, ordering, method, "serial")
                serial[ordering, method] = time.perf_counter() - start
                spmd.check_spec(result, ordering, method, tally, oracle)
    finally:
        rec.unpatch()
    sweep = [s for s in rec.spans if s.parent == sweep_span.id]
    out["core.filter_serial_s"] = sweep_span.duration
    out["graph.ordering_s"] = sum(s.duration for s in sweep if s.name == "graph.ordering")
    out["graph.partition_s"] = sum(s.duration for s in sweep if s.name == "graph.partition")

    bringup = []
    for _ in range(2):
        start = time.perf_counter()
        report = run_spmd(spmd.rank_noop, spmd.N_PARTITIONS, backend="process")
        bringup.append(time.perf_counter() - start)
        tally.check(report.values == list(range(spmd.N_PARTITIONS)), "empty SPMD round")
    out["parallel.spmd_bringup_s"] = median(bringup)

    spmd.warm_pool()
    overhead = []
    for method in spmd.METHODS:
        start = time.perf_counter()
        result = spmd.run_spec(network, "natural", method, "process")
        overhead.append(time.perf_counter() - start - serial["natural", method])
        spmd.check_spec(result, "natural", method, tally, oracle)
        if method == "chordal_comm":
            per_rank = result.extra["comm_stats_per_rank"]
            out["parallel.comm_messages"] = float(sum(r["messages_sent"] for r in per_rank))
    shutdown_worker_pool()
    out["parallel.transport_overhead_s"] = sum(overhead) / len(overhead)


def incremental_laps(bundle, seed: int, tally: Tally, out: dict[str, float]) -> None:
    """Warm analyze, the two delta update paths, and the cold replay oracle."""
    from repro.incremental import UpdateSpec, apply_update, replay_reference
    from repro.pipeline.workflow import analysis_payload, analyze_filter

    walls = []
    for _ in range(3):
        start = time.perf_counter()
        analyze_filter(bundle)
        walls.append(time.perf_counter() - start)
    out["pipeline.analyze_filter_s"] = median(walls)

    log = [
        UpdateSpec(add_annotations=serve_mixed.ANNOTATIONS_PER_UPDATE, seed=seed),
        UpdateSpec(add_samples=serve_mixed.SAMPLES_PER_UPDATE, seed=seed + 1),
    ]
    for spec, key in zip(log, ("incremental.update_annotations_s", "incremental.update_samples_s")):
        start = time.perf_counter()
        bundle, _ = apply_update(bundle, spec, fallback=False)
        out[key] = time.perf_counter() - start
    start = time.perf_counter()
    replayed = replay_reference("CRE", bundle.scale, None, log)
    out["incremental.replay_s"] = time.perf_counter() - start
    warm = serve_mixed.canonical(analysis_payload(analyze_filter(bundle)))
    cold = serve_mixed.canonical(analysis_payload(analyze_filter(replayed)))
    tally.check(warm == cold, "delta-updated bundle differs from the cold replay")


def serve_laps(seed: int, tally: Tally, oracle: dict[str, Any], out: dict[str, float]) -> None:
    daemon = serve_mixed.Daemon("trace")
    try:
        rec = serve_mixed.session(daemon, seed, SERVE_OPS, tally, oracle)
    finally:
        daemon.close()
    lookups = rec["cache_hits"] + rec["cache_misses"]
    out["serve.hit_p50_ms"] = 1000 * median(rec["hit_s"]) if rec["hit_s"] else 0.0
    out["serve.write_p50_ms"] = 1000 * median(rec["write_s"])
    out["serve.miss_p90_ms"] = 1000 * percentile(rec["miss_s"], 90)
    out["serve.cache_hit_ratio"] = rec["cache_hits"] / lookups if lookups else 0.0
    out["serve.invalidated"] = float(rec["invalidated"])
    out["serve.rejected"] = float(rec["rejected"])
    out["serve.coalesced_per_batch"] = rec["coalesced"] / rec["batches"] if rec["batches"] else 0.0
    out["serve.update_log_len"] = float(rec["update_log_len"])


UNITS = {
    "clustering.match_peak_mb": "MB",
    "parallel.comm_messages": "count",
    "serve.hit_p50_ms": "ms",
    "serve.write_p50_ms": "ms",
    "serve.miss_p90_ms": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.invalidated": "count",
    "serve.rejected": "count",
    "serve.coalesced_per_batch": "count",
    "serve.update_log_len": "count",
    "trace.overhead_frac": "ratio",
    "error_frac": "ratio",
}


def run(workload: str, seed: int, tally: Tally, oracle: dict[str, Any]) -> tuple[dict, dict]:
    rec = SpanRecorder(run_id=f"{workload}-{seed}-{os.getpid()}")
    out: dict[str, float] = {}
    import_laps(out)
    large_bundle, network = chain_laps(rec, tally, oracle, out)
    spmd_laps(rec, network, tally, oracle, out)
    del network
    incremental_laps(large_bundle, seed, tally, out)
    serve_laps(seed, tally, oracle, out)
    out["error_frac"] = tally.failed / max(1, tally.attempted)

    rec.write(OUT / f"spans-{workload}-{seed}.jsonl")
    metrics = {name: metric(out[name], UNITS.get(name, "s")) for name in MOVES}
    return metrics, {"self_time": rec.summary()}
