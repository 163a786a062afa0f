"""Leak accounting of the retired shared-array arena.

No code path maps a shared or file-backed segment any more (process
payloads travel pickled).  :func:`open_segment_count` stays only because
the benchmark's leak check (``perfbench/common.py``) imports it.
"""

from __future__ import annotations

__all__ = ["open_segment_count"]


def open_segment_count() -> int:
    """Arena segments this process holds open: always 0, no segment kind is left."""
    return 0
