"""Streaming periodicity mining: one miner, whole stream or sliding window.

The paper targets environments "(e.g., data streams)" that cannot abide
multiple passes; its own reference [4] extends the authors' work to
incremental and online mining.  A :class:`SlidingWindowMiner` maintains
the complete ``F2`` evidence of its scope while symbols arrive one at a
time or — the fast path — in blocks.  The scope is either the whole
stream (``window=None``, right for stationary data) or exactly the last
``window`` symbols (monitoring scenarios, which want the periodicities
of *the recent past*).  An unbounded miner is simply a window that never
evicts.

Appending symbol ``t_j`` creates exactly the match pairs ``(j - p, j)``
with ``t_{j-p} = t_j`` for ``p <= max_period``, so a block of ``m``
arrivals creates exactly the pairs of one ``(m, max_period)`` lag-sweep
comparison against the buffered history; the matches are scatter-added
into a dense :class:`~repro.streaming.counts.DenseCountStore` in a
handful of numpy calls — no re-scan, no second pass, no per-symbol
interpreter work.  With a window, evictions retract the pairs whose
earlier element just left, by one mirrored sweep over the evicted
symbols.  Because ``p <= max_period < window``, a pair is always added
(when its later element arrives) before it is retracted (when its
earlier element leaves), so the batched add/subtract order is exact —
the test suite asserts equality with batch mining of the scope at every
step and for every chunking, including blocks larger than the window.

Positions are the subtle part: Definition 1's ``l`` is relative to the
start of the (windowed) series, which moves every slide.  Internally the
counts are keyed by the *absolute* earlier index mod ``p`` — invariant
under sliding — and rotated to window-relative positions only when a
snapshot is taken.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from ..core.alphabet import Alphabet
from ..core.periodicity import PeriodicityTable, SymbolPeriodicity
from ..core.sequence import SymbolSequence
from .counts import DenseCountStore

__all__ = ["SlidingWindowMiner"]

#: ingestion block: :meth:`SlidingWindowMiner.extend_codes` sweeps at
#: most this many arrivals at a time — large enough to amortize the
#: numpy call overhead, small enough that the (block, max_period)
#: lag-sweep mask stays cache-resident.  Every split yields identical
#: evidence.
INGEST_BLOCK = 2048


def as_code_array(codes: Iterable[int] | np.ndarray) -> np.ndarray:
    """Coerce any code source into a contiguous ``int64`` array."""
    if isinstance(codes, np.ndarray):
        return np.ascontiguousarray(codes, dtype=np.int64)
    return np.asarray(list(codes), dtype=np.int64)


def check_code_range(codes: np.ndarray, sigma: int) -> None:
    """Reject any code outside ``0 .. sigma - 1`` (one vectorised scan)."""
    if codes.size == 0:
        return
    low = int(codes.min())
    high = int(codes.max())
    if low < 0 or high >= sigma:
        bad = low if low < 0 else high
        raise ValueError(f"code {bad} out of range")


class SlidingWindowMiner:
    """Evidence over the stream, or its last ``window`` symbols, incrementally.

    Parameters
    ----------
    alphabet:
        Alphabet of the stream.
    max_period:
        Largest period maintained; must be smaller than ``window``.
        Memory is the history buffer plus the dense count store
        (``sigma * max_period^2 / 2`` counters).
    window:
        Window length in symbols, or ``None`` to keep every symbol of
        the stream (the history buffer then holds ``max_period`` codes
        and nothing is ever evicted).
    """

    def __init__(
        self,
        alphabet: Alphabet,
        max_period: int,
        window: int | None = None,
    ) -> None:
        if max_period < 1:
            raise ValueError("max_period must be >= 1")
        if window is not None and window <= max_period:
            raise ValueError("window must exceed max_period")
        self._alphabet = alphabet
        self._max_period = max_period
        self._window = window
        self._buffer = np.full(
            max_period if window is None else window, -1, dtype=np.int64
        )
        self._n = 0  # total symbols consumed
        self._store = DenseCountStore(len(alphabet), max_period)

    # -- properties --------------------------------------------------------------

    @property
    def alphabet(self) -> Alphabet:
        """Alphabet of the stream."""
        return self._alphabet

    @property
    def window(self) -> int | None:
        """The window length (``None``: the whole stream)."""
        return self._window

    @property
    def max_period(self) -> int:
        """The period cap."""
        return self._max_period

    @property
    def n(self) -> int:
        """Total symbols consumed so far."""
        return self._n

    @property
    def start(self) -> int:
        """Absolute index of the oldest in-scope symbol."""
        if self._window is None:
            return 0
        return max(self._n - self._window, 0)

    @property
    def size(self) -> int:
        """Symbols in scope (< window until the window fills)."""
        if self._window is None:
            return self._n
        return min(self._n, self._window)

    # -- feeding -------------------------------------------------------------------

    def append(self, symbol: Hashable) -> None:
        """Consume one symbol."""
        self.append_code(self._alphabet.code(symbol))

    def append_code(self, code: int) -> None:
        """Consume one symbol given as an integer code.

        Compatibility wrapper over the chunked path.
        """
        self.extend_codes(np.array([code], dtype=np.int64))

    def extend(self, symbols: Iterable[Hashable]) -> None:
        """Consume many symbols."""
        encode = self._alphabet.code
        self.extend_codes(np.asarray([encode(s) for s in symbols], dtype=np.int64))

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> None:
        """Consume many symbols given as codes — the vectorised fast path."""
        block = as_code_array(codes)
        check_code_range(block, len(self._alphabet))
        for start in range(0, block.size, INGEST_BLOCK):
            self._ingest(block[start : start + INGEST_BLOCK])

    def consume(self, series: SymbolSequence) -> None:
        """Consume a whole series (must share this miner's alphabet)."""
        if series.alphabet != self._alphabet:
            raise ValueError("series alphabet differs from the stream alphabet")
        self.extend_codes(series.codes)

    def _ingest(self, chunk: np.ndarray) -> None:
        """One chunk: batched arrival additions and eviction retractions.

        Both sweeps read from the *pre-chunk* buffer plus the chunk
        itself, gathered before the buffer is mutated, so evicted
        symbols stay readable even when the chunk overwrites their
        slots.
        """
        first = self._n
        cap = self._max_period
        span = self._buffer.size  # buffer slot of index i is i % span

        # Additions: arrival j pairs with lags 1..min(cap, j).  The
        # earlier element j - p is always buffered at the time of
        # arrival because p <= cap <= span.
        depth = min(cap, first)
        held = np.arange(first - depth, first)
        history = self._buffer[held % span]
        self._store.add(self._store.arrival_keys(history, chunk, first))

        # Evictions: appending j pushes out index j - window, so this
        # chunk evicts indices first - window .. first + m - 1 - window
        # (clipped at 0).  Each evicted e retracts its pairs (e, e + p)
        # for p <= cap, every one of which was added when e + p arrived
        # (possibly earlier in this same chunk — adds run first, so the
        # batched order is exact).
        if self._window is not None:
            window = self._window
            evict_first = max(first - window, 0)
            evict_count = first + chunk.size - window - evict_first
            if evict_count > 0:
                end = evict_first + evict_count + cap  # exclusive span end
                spans = np.arange(evict_first, min(end, first))
                parts = [self._buffer[spans % window]]
                if end > first:  # chunk longer than window - cap: span
                    parts.append(chunk[: end - first])  # reaches into it
                evicted = np.concatenate(parts)
                self._store.subtract(
                    self._store.eviction_keys(evicted, evict_first, evict_first, evict_count)
                )

        tail = chunk[-min(chunk.size, span) :]
        positions = np.arange(first + chunk.size - tail.size, first + chunk.size)
        self._buffer[positions % span] = tail
        self._n += chunk.size

    # -- snapshots ------------------------------------------------------------------

    def table(self) -> PeriodicityTable:
        """Evidence table of the current scope (relative positions)."""
        return self._store.table(self.size, self._alphabet, start=self.start)

    def confidence(self, period: int) -> float:
        """Best support of any symbol periodicity at ``period`` right now.

        Reads the live dense counters — no table snapshot, no copies.
        """
        if period > self._max_period:
            raise ValueError(
                f"period {period} exceeds the maintained cap {self._max_period}"
            )
        return self._store.confidence(self.size, period, shift=self.start)

    def periodicities(self, psi: float) -> list[SymbolPeriodicity]:
        """Current symbol periodicities of the scope with support >= psi."""
        return self.table().periodicities(psi)
