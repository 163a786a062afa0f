"""Deterministic per-rank random number streams.

The random-walk sampler and the synthetic data generators need randomness
that is (a) reproducible for a given seed and (b) *independent* across ranks,
so that adding processors changes the partitioning but not the statistical
behaviour of each rank's walk.  NumPy's ``SeedSequence.spawn`` mechanism
provides exactly this: one root seed deterministically derives a separate,
well-mixed child stream per rank.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["rank_rngs", "derive_seed"]


def rank_rngs(seed: int, n_ranks: int) -> list[np.random.Generator]:
    """Return ``n_ranks`` independent generators derived from ``seed``."""
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    children = np.random.SeedSequence(seed).spawn(n_ranks)
    return [np.random.default_rng(c) for c in children]


def derive_seed(seed: int, *labels: Sequence) -> int:
    """Derive a new 32-bit seed from a root seed and a sequence of labels.

    Used to give each (dataset, ordering, filter) combination its own
    deterministic randomness without the combinations being correlated.  Label
    hashing uses CRC32 so the result is stable across processes and runs
    (Python's built-in string hash is salted per process).
    """
    import zlib

    entropy = [seed & 0xFFFFFFFF] + [zlib.crc32(str(l).encode("utf-8")) for l in labels]
    mix = np.random.SeedSequence(entropy)
    return int(mix.generate_state(1)[0])
