"""Spans around the program's public calls, recorded from outside it.

The program has no tracing of its own, so :func:`instrumented` wraps a
fixed list of public functions and methods for the duration of a traced
run and restores them afterwards.  Each call becomes a span (name,
start, end, parent, root) kept in memory; a layer's self time is its
span's duration minus the time its child spans cover.

A wrapped attribute that no longer exists is skipped and reported, so
a refactor that removes a layer leaves its metric at zero instead of
breaking the benchmark.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any

import repro.core.convolution_miner as convolution_miner
import repro.core.results as results
from repro.core import ConvolutionMiner, MiningResult, PeriodicityTable, SpectralMiner
from repro.core.sequence import SymbolSequence
from repro.streaming import SlidingWindowMiner


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    root: int


class Tracer:
    """Collects spans; one root span per benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = index if parent is None else self.spans[parent].root
        record = Span(name, time.perf_counter(), 0.0, parent, root)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's durations."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def as_json(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]


def _full_scans_only(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Trace ``PeriodicityTable.periodicities`` only when it scans every
    period; the one-period reads inside pattern search stay part of it."""
    traced = tracer.wrap("table.periodicities", fn)

    @functools.wraps(fn)
    def dispatch(self: Any, psi: float, period: int | None = None, *args: Any, **kwargs: Any) -> Any:
        if period is None:
            return traced(self, psi, None, *args, **kwargs)
        return fn(self, psi, period, *args, **kwargs)

    return dispatch


#: (owner, attribute, span name) of every traced public call.
TRACED = (
    (SpectralMiner, "match_counts", "spectral.match_counts"),
    (SpectralMiner, "periodicity_table", "spectral.periodicity_table"),
    (convolution_miner, "binary_vector_bits", "mapping.binary_vector_bits"),
    (ConvolutionMiner, "periodicity_table", "convolution.periodicity_table"),
    (PeriodicityTable, "periodicities", "table.periodicities"),
    (results, "mine_patterns", "candidates.mine_patterns"),
    (SymbolSequence, "from_string", "sequence.from_string"),
    (MiningResult, "render", "results.render"),
    (SlidingWindowMiner, "extend_codes", "window.extend_codes"),
    (SlidingWindowMiner, "table", "window.table"),
    (SlidingWindowMiner, "periodicities", "window.periodicities"),
)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[list[str]]:
    """Wrap every :data:`TRACED` call; yields the names not found."""
    saved = []
    missing = []
    for owner, attribute, name in TRACED:
        original = vars(owner).get(attribute)
        if original is None:
            missing.append(name)
            continue
        if isinstance(original, classmethod):
            replacement: Any = classmethod(tracer.wrap(name, original.__func__))
        elif name == "table.periodicities":
            replacement = _full_scans_only(tracer, original)
        else:
            replacement = tracer.wrap(name, original)
        saved.append((owner, attribute, original))
        setattr(owner, attribute, replacement)
    try:
        yield missing
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
