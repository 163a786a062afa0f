#!/usr/bin/env python
"""Delta-update vs cold-rebuild benchmark for the incremental recompute engine.

Measures what :mod:`repro.incremental` actually buys a warm service: a bundle
that has absorbed a history of dataset mutations can take the *next* mutation
as a structural-sharing delta (:func:`apply_update`), while the only correct
alternative for cold machinery is a full reference rebuild — ``prepare_dataset``
plus a replay of the entire update log that derives every layer after each
update (:func:`replay_reference`, the oracle; the daemon's ``reload`` reaches
the same state with one derivation, :func:`replay_updates`).  For each grid cell this harness warms a bundle with ``HISTORY`` mixed
updates, then times, per update kind:

* ``update_seconds`` — one delta absorption into the warm bundle;
* ``rebuild_seconds`` — the cold replay to the identical post-update state;
* ``speedup`` — their ratio, and ``identical`` — whether the delta bundle's
  canonical ``classify`` payload byte-equals the replay's (the speedup is
  only meaningful while the bytes match).

Flags, envelope and ``--check`` come from :mod:`harness`.

JSON schema (``bench_incremental/v1``) extras::

    {
      "dataset": "CRE", "history": int,
      "runs": [ {"dataset", "scale", "scale_factor", "kind", "mode",
                 "history_depth", "update_seconds", "rebuild_seconds",
                 "speedup", "identical"} ],
      "speedup": {"CRE/<scale>/<kind>": {"update_seconds", "rebuild_seconds",
                  "speedup", "identical"}}
    }

``--check`` gates the ``rebuild_seconds / update_seconds`` speedup of each
headline kind at the largest scale both files share — both sides measured
in the same run on the same machine, so hardware speed cancels — and fails
when a speedup drops more than ``--threshold``.  Any row whose delta and
replay bytes differ fails the run outright.
"""

from __future__ import annotations

import time
from typing import Any

import harness
from repro.incremental import UpdateSpec, apply_update, replay_reference
from repro.pipeline.workflow import analysis_payload, analyze_filter, prepare_dataset

DATASET = "CRE"
#: Same scale ladder as ``bench_serve.py``; ``large`` is the acceptance cell
#: (the ISSUE's >=10x single-sample / single-annotation criterion).
SCALES: dict[str, float] = {
    "tiny": 0.02,
    "small": 0.05,
    "medium": 0.10,
    "large": 0.15,
}
SCALE_ORDER = ["tiny", "small", "medium", "large"]

#: Mixed updates absorbed before measuring — the warm bundle's mutation
#: history, which a cold rebuild must replay in full.
HISTORY = 8

#: The measured update kinds, applied in this order (history keeps growing).
KINDS: dict[str, dict[str, int]] = {
    "single_annotation": dict(add_annotations=1),
    "single_term": dict(add_terms=1),
    "single_gene": dict(add_genes=1),
    "mixed": dict(add_samples=1, add_genes=2, add_annotations=2, add_terms=1),
    "single_sample": dict(add_samples=1),
}
KIND_ORDER = list(KINDS)

#: Acceptance cells: these kinds are gated by --check (and the ISSUE floor).
HEADLINE_KINDS = ("single_sample", "single_annotation")


def _classify_bytes(bundle) -> str:
    return harness.canonical(analysis_payload(analyze_filter(bundle)))


def _history_spec(step: int) -> UpdateSpec:
    """The warm-up history: deterministic mixed specs, one per step."""
    cycle = [
        dict(add_annotations=2),
        dict(add_samples=1, add_genes=1),
        dict(add_terms=1, add_annotations=1),
        dict(add_genes=2),
    ]
    return UpdateSpec(seed=700 + step, **cycle[step % len(cycle)])


def run_grid(quick: bool, verbose: bool = True) -> list[dict[str, Any]]:
    scales = ["tiny", "small"] if quick else SCALE_ORDER
    runs: list[dict[str, Any]] = []
    for scale in scales:
        factor = SCALES[scale]
        bundle = prepare_dataset(DATASET, scale=factor)
        history: list[UpdateSpec] = []
        for step in range(HISTORY):
            spec = _history_spec(step)
            bundle, _ = apply_update(bundle, spec, history=history)
            history.append(spec)
        for kind in KIND_ORDER:
            spec = UpdateSpec(seed=900 + len(history), **KINDS[kind])
            t0 = time.perf_counter()
            bundle, report = apply_update(bundle, spec, history=history)
            update_seconds = time.perf_counter() - t0
            history.append(spec)
            t0 = time.perf_counter()
            reference = replay_reference(DATASET, factor, None, history)
            rebuild_seconds = time.perf_counter() - t0
            row = {
                "dataset": DATASET,
                "scale": scale,
                "scale_factor": factor,
                "kind": kind,
                "mode": report.mode,
                "history_depth": len(history),
                "update_seconds": round(update_seconds, 6),
                "rebuild_seconds": round(rebuild_seconds, 6),
                "speedup": (
                    round(rebuild_seconds / update_seconds, 1) if update_seconds else None
                ),
                "identical": _classify_bytes(bundle) == _classify_bytes(reference),
            }
            runs.append(row)
            if verbose:
                print(
                    f"{DATASET:>4} {scale:>6} {kind:>17}  update {update_seconds * 1000:8.2f}ms  "
                    f"rebuild {rebuild_seconds:7.3f}s  {row['speedup']:>7}x  "
                    f"mode={report.mode}  identical={row['identical']}",
                    flush=True,
                )
    return runs


def _speedup_table(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    return {
        f"{row['dataset']}/{row['scale']}/{row['kind']}": {
            "update_seconds": row["update_seconds"],
            "rebuild_seconds": row["rebuild_seconds"],
            "speedup": row["speedup"],
            "identical": row["identical"],
        }
        for row in runs
    }


def gate_cells(runs: list[dict[str, Any]]) -> dict[str, tuple[float, float]]:
    """Rebuild time over update time per headline kind, smallest scale first."""
    by = {(row["scale"], row["kind"]): row for row in runs}
    return {
        f"{DATASET}/{scale}/{kind}": (
            by[scale, kind]["rebuild_seconds"],
            by[scale, kind]["update_seconds"],
        )
        for scale in SCALE_ORDER
        for kind in HEADLINE_KINDS
        if (scale, kind) in by
    }


def headline(shared: list[str]) -> list[str]:
    """Every headline kind at the largest scale that has them all."""
    for scale in reversed(SCALE_ORDER):
        cells = [f"{DATASET}/{scale}/{kind}" for kind in HEADLINE_KINDS]
        if all(cell in shared for cell in cells):
            return cells
    return []


BENCH = harness.Bench(
    name="incremental",
    label="delta-update",
    description=__doc__.splitlines()[0],
    run=run_grid,
    cells=gate_cells,
    gated="rebuild/update speedup",
    higher_is_better=True,
    headline=headline,
    mismatches=lambda runs: [
        f"{row['dataset']}/{row['scale']}/{row['kind']}: delta and replayed payloads differ"
        for row in runs
        if not row["identical"]
    ],
    extras=lambda runs: {"dataset": DATASET, "history": HISTORY, "speedup": _speedup_table(runs)},
)


if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
