"""Request handlers: the service's ops mapped onto the pipeline.

Three work ops mirror the CLI commands one-to-one — the byte-identity promise
(a served response equals a cold ``repro … --json`` run of the same request)
holds because both sides normalise parameters the same way here and serialise
through the canonical payload builders in :mod:`repro.pipeline.workflow`:

``filter``
    one sampling-filter run → :func:`~repro.pipeline.workflow.filter_payload`;
``classify``
    the full downstream analysis (filter + MCODE + enrichment + overlap) →
    :func:`~repro.pipeline.workflow.analysis_payload`;
``enrich``
    AEES scores of the original or a filtered network's clusters, one direct
    pass of the dataset's (locked) scorer →
    :func:`~repro.pipeline.workflow.enrichment_payload`.

:func:`normalize_params` is the admission-side gate: it fills the CLI's
defaults, validates against the same registries the CLI parsers use and
rejects unknown keys — so the *normalised* parameter set is what gets spec-
hashed, and two spellings of one request share one cache entry.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from ..clustering.mcode import mcode_clusters
from ..core.sampling import apply_filter, filter_names
from ..expression.datasets import dataset_names
from ..graph.ordering import canonical_ordering_name
from ..graph.partition import INDEX_PARTITIONERS
from ..parallel.runner import available_backends
from ..pipeline.workflow import (
    analysis_payload,
    analyze_filter,
    enrichment_payload,
    filter_payload,
)
from .state import DatasetState

__all__ = [
    "CACHEABLE_OPS",
    "HANDLERS",
    "normalize_params",
    "normalize_dataset_params",
    "normalize_update_params",
]

#: Ops whose responses are pure functions of their normalised params and the
#: dataset generation — exactly these go through the LRU result cache.
CACHEABLE_OPS = frozenset({"filter", "classify", "enrich"})

Handler = Callable[[DatasetState, dict[str, Any]], dict[str, Any]]


# ----------------------------------------------------------------------
# parameter normalisation
# ----------------------------------------------------------------------
def _bad(message: str) -> ValueError:
    return ValueError(message)


def _norm_common(params: dict[str, Any], default_scale: float) -> dict[str, Any]:
    dataset = str(params.get("dataset", "CRE")).upper()
    if dataset not in dataset_names():
        raise _bad(f"unknown dataset {dataset!r}; valid: {dataset_names()}")
    scale = params.get("scale", default_scale)
    if isinstance(scale, bool):
        raise _bad(f"scale must be a number, got {scale!r}")
    try:
        scale = round(float(scale), 6)
    except (TypeError, ValueError):
        raise _bad(f"scale must be a number, got {scale!r}") from None
    if not math.isfinite(scale) or scale <= 0:
        raise _bad(f"scale must be positive and finite, got {scale}")
    return {"dataset": dataset, "scale": scale}


def _norm_filter_spec(params: dict[str, Any]) -> dict[str, Any]:
    method = str(params.get("method", "chordal"))
    if method not in filter_names():
        raise _bad(f"unknown method {method!r}; valid: {filter_names()}")
    # The CLI forces ordering to None for the random walk; mirror it so both
    # spellings of a random-walk request hash identically.  Other methods
    # store the canonical name, so "hd" and "high_degree" are one spec.
    ordering: Optional[str] = None
    if method != "random_walk":
        try:
            ordering = canonical_ordering_name(str(params.get("ordering", "natural")))
        except KeyError as err:
            raise _bad(err.args[0]) from None
    partitions = params.get("partitions", 1)
    if not isinstance(partitions, int) or isinstance(partitions, bool) or partitions < 1:
        raise _bad(f"partitions must be an integer >= 1, got {partitions!r}")
    partition_method = str(params.get("partition_method", "block"))
    if partition_method not in INDEX_PARTITIONERS:
        raise _bad(
            f"unknown partition_method {partition_method!r}; valid: {list(INDEX_PARTITIONERS)}"
        )
    seed = params.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _bad(f"seed must be an integer, got {seed!r}")
    # Only the random walk draws from the seed, and only a parallel run
    # partitions: a value the filter ignores takes its default, so requests
    # whose payloads are identical share one spec hash and one cache entry.
    if method != "random_walk":
        seed = 0
    if partitions == 1:
        partition_method = "block"
    backend = params.get("backend")
    if backend is not None:
        backend = str(backend)
        if backend not in available_backends():
            raise _bad(f"unknown backend {backend!r}; valid: {available_backends()}")
    return {
        "method": method,
        "ordering": ordering,
        "partitions": partitions,
        "partition_method": partition_method,
        "seed": seed,
        "backend": backend,
    }


def _reject_unknown(op: str, params: dict[str, Any], known: set[str]) -> None:
    unknown = sorted(set(params) - known)
    if unknown:
        raise _bad(f"unknown parameter(s) for {op!r}: {unknown}")


_COMMON_KEYS = {"dataset", "scale"}
_FILTER_KEYS = {"method", "ordering", "partitions", "partition_method", "seed", "backend"}


def normalize_params(
    op: str, params: dict[str, Any], default_scale: float
) -> dict[str, Any]:
    """The canonical parameter set of one work request (what gets spec-hashed).

    Fills the CLI's defaults, validates against the CLI's registries and
    raises :class:`ValueError` (→ a ``bad-request`` response) on anything the
    CLI parser would reject.
    """
    if op == "filter":
        _reject_unknown(op, params, _COMMON_KEYS | _FILTER_KEYS | {"include_edges"})
        normalized = _norm_common(params, default_scale)
        normalized.update(_norm_filter_spec(params))
        include_edges = params.get("include_edges", False)
        if not isinstance(include_edges, bool):
            raise _bad(f"include_edges must be a boolean, got {include_edges!r}")
        normalized["include_edges"] = include_edges
        return normalized
    if op == "classify":
        _reject_unknown(op, params, _COMMON_KEYS | _FILTER_KEYS)
        normalized = _norm_common(params, default_scale)
        normalized.update(_norm_filter_spec(params))
        return normalized
    if op == "enrich":
        source = params.get("source", "original")
        if source not in ("original", "filtered"):
            raise _bad(f"enrich source must be 'original' or 'filtered', got {source!r}")
        if source == "original":
            _reject_unknown(op, params, _COMMON_KEYS | {"source"})
            normalized = _norm_common(params, default_scale)
        else:
            _reject_unknown(op, params, _COMMON_KEYS | _FILTER_KEYS | {"source"})
            normalized = _norm_common(params, default_scale)
            normalized.update(_norm_filter_spec(params))
        normalized["source"] = source
        return normalized
    raise _bad(f"unknown op {op!r}; valid: {sorted(CACHEABLE_OPS)}")


def normalize_dataset_params(
    params: dict[str, Any], default_scale: float
) -> dict[str, Any]:
    """Just the ``dataset``/``scale`` pair, validated (the ``reload`` op)."""
    _reject_unknown("reload", params, _COMMON_KEYS)
    return _norm_common(params, default_scale)


_UPDATE_COUNT_KEYS = ("add_samples", "add_genes", "add_annotations", "add_terms")


def normalize_update_params(
    params: dict[str, Any], default_scale: float
) -> dict[str, Any]:
    """Parameters of the ``update`` op: dataset/scale plus the mutation sizes.

    At least one ``add_*`` count must be positive — a no-op update is a
    request error, not a silent success.
    """
    _reject_unknown("update", params, _COMMON_KEYS | set(_UPDATE_COUNT_KEYS) | {"seed"})
    normalized = _norm_common(params, default_scale)
    total = 0
    for key in _UPDATE_COUNT_KEYS:
        value = params.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise _bad(f"{key} must be an integer >= 0, got {value!r}")
        normalized[key] = value
        total += value
    if total == 0:
        raise _bad(f"update must request at least one of {list(_UPDATE_COUNT_KEYS)}")
    seed = params.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _bad(f"seed must be an integer, got {seed!r}")
    normalized["seed"] = seed
    return normalized


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------
def _run_filter(state: DatasetState, params: dict[str, Any]):
    return apply_filter(
        state.bundle.network_csr,
        method=params["method"],
        ordering=params["ordering"],
        n_partitions=params["partitions"],
        partition_method=params["partition_method"],
        seed=params["seed"],
        backend=params["backend"],
    )


def handle_filter(state: DatasetState, params: dict[str, Any]) -> dict[str, Any]:
    result = _run_filter(state, params)
    return filter_payload(result, include_edges=params["include_edges"])


def handle_classify(state: DatasetState, params: dict[str, Any]) -> dict[str, Any]:
    analysis = analyze_filter(
        state.bundle,
        method=params["method"],
        ordering=params["ordering"],
        n_partitions=params["partitions"],
        partition_method=params["partition_method"],
        seed=params["seed"],
        backend=params["backend"],
    )
    return analysis_payload(analysis)


def handle_enrich(state: DatasetState, params: dict[str, Any]) -> dict[str, Any]:
    bundle = state.bundle
    if params["source"] == "original":
        clusters = bundle.original_clusters
        source = f"{bundle.name}/original"
    else:
        result = _run_filter(state, params)
        source = (
            f"{bundle.name}/{params['method']}/"
            f"{params['ordering'] or '-'}/{params['partitions']}P"
        )
        clusters = mcode_clusters(result.filtered_csr(), source=source)
    aees = bundle.scorer.cluster_aees(clusters)
    state.count_enrichment(len(clusters))
    return enrichment_payload(clusters, aees, source)


HANDLERS: dict[str, Handler] = {
    "filter": handle_filter,
    "classify": handle_classify,
    "enrich": handle_enrich,
}
