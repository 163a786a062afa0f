"""Shared pytest configuration for the figure benchmarks.

Each ``bench_figXX_*.py`` file regenerates one table/figure of the paper's
evaluation section; README.md ("Reproduction guide: benchmarks ↔ paper
figures") maps each file to its figure and driver.  Dataset bundles are
memoised inside :mod:`repro.pipeline.experiments`, so figures sharing a
dataset do not pay for it twice within one pytest session.

The dataset scale defaults to ``repro.pipeline.experiments.default_scale()``
(0.10 — a few thousand genes); set ``REPRO_SCALE=1.0`` to run at the paper's
full network sizes (slower).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    """Fixture exposing :func:`run_once` to the benchmark modules."""
    return run_once
