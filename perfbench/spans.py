"""Spans recorded by the benchmark around calls into the ``repro`` layers.

The program has no tracer of its own yet, so the traced pass wraps public
functions from outside: :meth:`SpanRecorder.patch` replaces the name a caller
looks up (``module.attr``) with a wrapper that opens a span for the call.
Spans stay in memory and are written once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Single-threaded span stack plus the patches that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def patch(self, target: str, name: Union[str, Callable[..., str]]) -> None:
        """Wrap ``package.module.attr`` so each call records a span.

        ``name`` is a span name, or a function of the call's arguments that
        returns one (to split one function into two laps by its input).
        """
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_time(self, span: Span) -> float:
        children = sum(s.duration for s in self.spans if s.parent == span.id)
        return span.duration - children

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += self.self_time(s)
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {
                    "run_id": s.run_id,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self_s": self.self_time(s),
                }
                fh.write(json.dumps(row) + "\n")
