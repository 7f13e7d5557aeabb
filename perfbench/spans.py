"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files, around each call into a
layer of ``src/repro``: ``{unit, name, t0, t1, parent}`` records kept in
memory and handed to the driver when the child exits.  With tracing off,
``span`` is an empty context manager, so the traced and untraced units run
the same code and ``trace.overhead_pct`` is the cost of recording.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, Optional


class Tracer:
    def __init__(self, unit: str, enabled: bool) -> None:
        self.unit = unit
        self.enabled = enabled
        self.spans: List[dict] = []
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    def begin(self, name: str, **attrs) -> Optional[int]:
        if not self.enabled:
            return None
        index = len(self.spans)
        self.spans.append({
            "unit": self.unit,
            "name": name,
            "t0": time.perf_counter() - self._t0,
            "t1": None,
            "parent": self._open[-1] if self._open else None,
            **attrs,
        })
        self._open.append(index)
        return index

    def end(self) -> None:
        if self.enabled:
            self.spans[self._open.pop()]["t1"] = time.perf_counter() - self._t0

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        self.begin(name, **attrs)
        try:
            yield
        finally:
            self.end()

    # ------------------------------------------------------------ read-out
    def total_ms(self, name: str, progs=None) -> float:
        """Summed duration of the spans called ``name`` (of the programs in
        ``progs`` when given).  No recorded layer span has children, so
        this is also the layer's self time."""
        return 1e3 * sum(
            s["t1"] - s["t0"]
            for s in self.spans
            if s["name"] == name and (progs is None or s.get("prog") in progs)
        )
