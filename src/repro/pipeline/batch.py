"""Batched experiment engine.

The per-figure drivers in :mod:`repro.pipeline.experiments` each regenerate
one figure at one scale.  Reproduction sweeps ("all figures at three scales
and two orderings") therefore used to be shell loops that re-derived shared
dataset bundles and re-ran anything that crashed halfway.  This module turns
such a sweep into a single batched run:

* a :class:`RunSpec` names one run — ``(figure, scale, ordering, seed)`` plus
  optional extra driver parameters — and has a stable content hash;
* duplicate specs are collapsed, and runs execute in-process grouped by
  scale, so the memoised dataset bundles
  (:func:`repro.pipeline.experiments.get_bundle`) are shared by every run
  of a scale;
* every run draws its randomness from a per-run stream derived with
  :func:`repro.parallel.rng.derive_seed`, so adding or reordering specs never
  changes another run's result;
* results are JSON files in a cache directory keyed by the spec hash — a
  re-run of the same batch is a cache read, and a crashed sweep resumes where
  it stopped.

The CLI front-end is ``repro batch`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from ..canonical import canonical_hash
from ..faults import fault_point
from ..parallel.rng import derive_seed
from ..parallel.runner import shutdown_worker_pool
from . import experiments as exp

__all__ = [
    "DRIVERS",
    "SCALE_ALIASES",
    "RunSpec",
    "BatchRunResult",
    "driver_names",
    "get_driver",
    "driver_accepts",
    "parse_scale",
    "run_batch",
]


#: Registry of batchable experiment drivers: every figure plus the two
#: in-text claims.  ``repro figure`` and ``repro batch`` share this table.
DRIVERS: dict[str, Callable[..., dict]] = {
    "fig04": exp.fig04_aees_by_ordering,
    "fig05": exp.fig05_overlap_scatter,
    "fig06": exp.fig06_node_overlap_vs_aees,
    "fig07": exp.fig07_edge_overlap_vs_aees,
    "fig08": exp.fig08_sensitivity_specificity,
    "fig09": exp.fig09_cluster_refinement,
    "fig10": exp.fig10_scalability,
    "fig11": exp.fig11_parallel_consistency,
    "random-walk-control": exp.random_walk_control,
    "border-edges": exp.border_edge_study,
}

#: Named dataset scales accepted wherever a float scale is (CLI ergonomics).
SCALE_ALIASES: dict[str, float] = {
    "tiny": 0.02,
    "small": 0.05,
    "default": 0.10,
    "full": 1.0,
}


def driver_names() -> list[str]:
    """All batchable driver names in presentation order."""
    return list(DRIVERS)


def get_driver(name: str) -> Callable[..., dict]:
    """Look up a driver by name (case-insensitive); raises ``KeyError``."""
    key = name.strip().lower()
    try:
        return DRIVERS[key]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; valid: {driver_names()}") from None


def driver_accepts(name: str, parameter: str) -> bool:
    """Return ``True`` when driver ``name`` has a parameter called ``parameter``."""
    return parameter in inspect.signature(get_driver(name)).parameters


def parse_scale(text: str) -> float:
    """Parse a scale argument: a float literal or one of :data:`SCALE_ALIASES`."""
    key = text.strip().lower()
    if key in SCALE_ALIASES:
        return SCALE_ALIASES[key]
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"scale must be positive and finite, got {text!r}")
    return value


@dataclass(frozen=True)
class RunSpec:
    """One experiment run: a driver plus the swept parameters.

    ``params`` holds extra driver keyword arguments as a sorted tuple of
    ``(name, value)`` pairs so that specs stay hashable and the content hash
    is insensitive to keyword order; build specs with :meth:`create` to get
    that normalisation for free.
    """

    figure: str
    scale: float
    ordering: Optional[str] = None
    seed: Optional[int] = None
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        figure: str,
        scale: float | str,
        ordering: Optional[str] = None,
        seed: Optional[int] = None,
        **params: Any,
    ) -> "RunSpec":
        """Build a normalised spec (validates the driver name and the scale)."""
        get_driver(figure)  # raises on unknown names
        if isinstance(scale, str):
            scale = parse_scale(scale)
        return cls(
            figure=figure.strip().lower(),
            scale=round(float(scale), 6),
            ordering=ordering,
            seed=seed,
            params=tuple(sorted(params.items())),
        )

    def canonical(self) -> dict[str, Any]:
        """JSON-stable representation used for hashing and cache metadata."""
        return {
            "figure": self.figure,
            "scale": self.scale,
            "ordering": self.ordering,
            "seed": self.seed,
            "params": [[k, _jsonify(v)] for k, v in self.params],
        }

    def spec_hash(self) -> str:
        """Stable 16-hex-digit content hash of the spec."""
        return canonical_hash(self.canonical())


@dataclass
class BatchRunResult:
    """Outcome of one spec inside a batch."""

    spec: RunSpec
    spec_hash: str
    status: str  # "ran" | "cached" | "failed"
    wall_time: float = 0.0
    output: Any = None
    cache_path: Optional[str] = None
    error: Optional[str] = None

    def row(self) -> dict[str, Any]:
        """Flat summary row for report tables."""
        return {
            "figure": self.spec.figure,
            "scale": self.spec.scale,
            "ordering": self.spec.ordering or "-",
            "seed": "-" if self.spec.seed is None else self.spec.seed,
            "status": self.status,
            "seconds": round(self.wall_time, 3),
            "hash": self.spec_hash,
        }


# ----------------------------------------------------------------------
# serialisation helpers
# ----------------------------------------------------------------------
def _jsonify(obj: Any) -> Any:
    """Recursively coerce a driver output into JSON-representable values.

    Dict keys become strings and unknown objects fall back to ``repr`` — the
    same canonical form is returned for fresh and cache-loaded results, so
    callers never see two shapes for one spec.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonify(v) for v in obj]
    # numpy scalars expose item(); dataclass-ish results expose as_dict()
    if hasattr(obj, "item") and callable(obj.item):
        try:
            return _jsonify(obj.item())
        except (TypeError, ValueError):
            pass
    if hasattr(obj, "as_dict") and callable(obj.as_dict):
        return _jsonify(obj.as_dict())
    return repr(obj)


def _resolve_seed(spec: RunSpec, root_seed: int) -> RunSpec:
    """Fill in the spec's effective seed for drivers that take one.

    An explicit seed wins; otherwise the run gets its own deterministic
    stream derived from the batch root seed and the spec coordinates, so
    every (figure, scale, ordering) cell is independent but reproducible.
    """
    if not driver_accepts(spec.figure, "seed"):
        if spec.seed is not None:
            raise ValueError(f"driver {spec.figure!r} does not take a seed")
        return spec
    if spec.seed is not None:
        return spec
    seed = derive_seed(root_seed, spec.figure, spec.scale, spec.ordering or "-")
    return replace(spec, seed=seed)


def _driver_kwargs(spec: RunSpec) -> dict[str, Any]:
    """Translate a spec into keyword arguments for its driver."""
    driver = get_driver(spec.figure)
    parameters = inspect.signature(driver).parameters
    kwargs: dict[str, Any] = {"scale": spec.scale}
    if spec.ordering is not None:
        if "ordering" in parameters:
            kwargs["ordering"] = spec.ordering
        elif "orderings" in parameters:
            kwargs["orderings"] = [spec.ordering]
        else:
            raise ValueError(f"driver {spec.figure!r} does not take an ordering")
    if spec.seed is not None:
        kwargs["seed"] = spec.seed
    for name, value in spec.params:
        if name not in parameters:
            raise ValueError(f"driver {spec.figure!r} has no parameter {name!r}")
        kwargs[name] = value
    return kwargs


def run_spec(spec: RunSpec) -> tuple[Any, float]:
    """Execute one (seed-resolved) spec; returns ``(jsonified output, seconds)``."""
    kwargs = _driver_kwargs(spec)
    driver = get_driver(spec.figure)
    t0 = time.perf_counter()
    output = driver(**kwargs)
    return _jsonify(output), time.perf_counter() - t0


def _run_group_keep_pool(specs: list["RunSpec"]) -> list[dict[str, Any]]:
    """Run one scale-group of specs, leaving the shared filter worker pool alive.

    Grouping by scale is the bundle dedup: the figure drivers share
    :func:`repro.pipeline.experiments.get_bundle`'s memoised bundles, so a
    (dataset, scale) pair is generated once per group instead of once per
    run.  Drivers receive ``params`` values exactly as the caller supplied
    them — the JSON coercion applies only to results and to the content hash.
    """
    out: list[dict[str, Any]] = []
    for spec in specs:
        try:
            output, seconds = run_spec(spec)
            out.append({"hash": spec.spec_hash(), "output": output, "seconds": seconds})
        except Exception as err:  # noqa: BLE001 — reported per-run, batch continues
            out.append({"hash": spec.spec_hash(), "error": f"{type(err).__name__}: {err}"})
    return out


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def _cache_file(cache_dir: str, spec: RunSpec, spec_hash: str) -> str:
    return os.path.join(cache_dir, f"{spec.figure}__{spec_hash}.json")


def _quarantine_cache(path: str, reason: str) -> None:
    """Move an unreadable cache entry aside (``.corrupt``) and log it.

    A half-written or truncated entry must not poison every future resume of
    the sweep, and silently deleting it would hide the evidence — the rename
    keeps the bytes for inspection while freeing the slot for a clean rerun.
    """
    quarantined = path + ".corrupt"
    try:
        os.replace(path, quarantined)
    except OSError:
        quarantined = "<rename failed>"
    print(
        f"repro batch: quarantined corrupt cache entry {path} -> {quarantined} ({reason})",
        file=sys.stderr,
    )


def _load_cache(path: str) -> Optional[dict[str, Any]]:
    """Read one cache entry; a missing file is a miss, a corrupt one is quarantined."""
    try:
        fault_point("batch.cache_read", path=path)
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        _quarantine_cache(path, f"{type(exc).__name__}: {exc}")
        return None
    if isinstance(data, dict) and "output" in data:
        return data
    _quarantine_cache(path, "unexpected structure")
    return None


def _write_cache(path: str, payload: dict[str, Any]) -> None:
    """Crash-safe cache write: serialise to a tmp file, fsync, then rename.

    ``os.replace`` is atomic on POSIX, so a reader (or a resumed sweep) only
    ever sees the old entry or the complete new one — never the torn write
    the old in-place ``json.dump`` could leave behind on a crash.
    """
    fault_point("batch.cache_write", path=path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        fault_point("batch.cache_replace", path=path)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run_batch(
    specs: Sequence[RunSpec],
    cache_dir: Optional[str] = None,
    force: bool = False,
    root_seed: int = 0,
) -> list[BatchRunResult]:
    """Run a batch of experiment specs in-process with dedup and caching.

    Parameters
    ----------
    specs:
        The requested runs; duplicates (same content hash) execute once and
        every occurrence receives the shared result.
    cache_dir:
        Directory for per-spec JSON result files.  ``None`` disables the disk
        cache entirely.
    force:
        Re-run specs even when a cache entry exists (the entry is rewritten).
    root_seed:
        Root of the per-run RNG streams (see :func:`_resolve_seed`).

    Returns
    -------
    One :class:`BatchRunResult` per *input* spec, in input order.
    """
    resolved = [_resolve_seed(spec, root_seed) for spec in specs]
    hashes = [spec.spec_hash() for spec in resolved]

    # Deduplicate while preserving first-occurrence order.
    unique: dict[str, RunSpec] = {}
    for spec, h in zip(resolved, hashes):
        unique.setdefault(h, spec)

    results: dict[str, BatchRunResult] = {}
    pending: list[tuple[str, RunSpec]] = []
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
    for h, spec in unique.items():
        path = _cache_file(cache_dir, spec, h) if cache_dir is not None else None
        if path is not None and not force:
            hit = _load_cache(path)
            if hit is not None:
                results[h] = BatchRunResult(
                    spec=spec,
                    spec_hash=h,
                    status="cached",
                    wall_time=float(hit.get("seconds", 0.0)),
                    output=hit["output"],
                    cache_path=path,
                )
                continue
        pending.append((h, spec))

    # Group pending runs by scale so each (dataset, scale) bundle is
    # generated once per batch (bundles are memoised in-process).
    groups: dict[float, list[tuple[str, RunSpec]]] = {}
    for h, spec in pending:
        groups.setdefault(spec.scale, []).append((h, spec))

    def _absorb(group: list[tuple[str, RunSpec]], outputs: list[dict[str, Any]]) -> None:
        by_hash = {h: spec for h, spec in group}
        for out in outputs:
            h = out["hash"]
            spec = by_hash[h]
            path = _cache_file(cache_dir, spec, h) if cache_dir is not None else None
            if "error" in out:
                results[h] = BatchRunResult(
                    spec=spec, spec_hash=h, status="failed", error=out["error"]
                )
                continue
            payload = {
                "spec": spec.canonical(),
                "output": out["output"],
                "seconds": out["seconds"],
            }
            if path is not None:
                _write_cache(path, payload)
            results[h] = BatchRunResult(
                spec=spec,
                spec_hash=h,
                status="ran",
                wall_time=out["seconds"],
                output=out["output"],
                cache_path=path,
            )

    # Drivers that run filters with backend="process" share one worker pool
    # across the whole batch; release it once at the end so a batch never
    # leaks worker processes.
    try:
        for group in groups.values():
            _absorb(group, _run_group_keep_pool([spec for _, spec in group]))
    finally:
        shutdown_worker_pool()

    return [results[h] for h in hashes]
