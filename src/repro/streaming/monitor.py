"""Drift monitoring of a periodicity over a live stream.

The operational companion of the sliding-window miner: watch the
confidence of one period over the recent window and raise an alarm when
it stays below a floor for several consecutive checks — the "our weekly
rhythm broke" pager for the paper's data-stream setting.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from ..core.alphabet import Alphabet
from .window import SlidingWindowMiner, as_code_array, check_code_range

__all__ = ["DriftEvent", "PeriodicityMonitor"]


@dataclass(frozen=True, slots=True)
class DriftEvent:
    """One alarm: the watched period's confidence broke the floor.

    ``position`` is the stream index at which the alarm fired;
    ``confidence`` the window confidence at that moment.
    """

    position: int
    confidence: float


class PeriodicityMonitor:
    """Alarm when a period's windowed confidence drops and stays low.

    Parameters
    ----------
    alphabet:
        Stream alphabet.
    period:
        The period to watch.
    window:
        Sliding-window length (symbols).
    floor:
        Confidence floor; readings below it count toward an alarm.
    patience:
        Consecutive low checks required before an alarm fires.
    check_every:
        Run a confidence check every this many symbols.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        period: int,
        window: int | None = None,
        floor: float = 0.5,
        patience: int = 3,
        check_every: int | None = None,
    ) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0 < floor <= 1:
            raise ValueError("floor must lie in (0, 1]")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        window = 8 * period if window is None else window
        if window <= period:
            raise ValueError("window must exceed the period")
        self._period = period
        self._window = window
        self._floor = floor
        self._patience = patience
        self._check_every = period if check_every is None else check_every
        if self._check_every < 1:
            raise ValueError("check_every must be >= 1")
        self._miner = SlidingWindowMiner(alphabet, max_period=period, window=window)
        self._low_streak = 0
        self._alarmed = False
        self._events: list[DriftEvent] = []

    # -- feeding -------------------------------------------------------------------

    @property
    def events(self) -> tuple[DriftEvent, ...]:
        """All alarms raised so far."""
        return tuple(self._events)

    @property
    def alarmed(self) -> bool:
        """Whether the monitor is currently in the alarmed state."""
        return self._alarmed

    @property
    def confidence(self) -> float:
        """Current windowed confidence of the watched period."""
        return self._miner.confidence(self._period)

    def append(self, symbol: Hashable) -> DriftEvent | None:
        """Consume one symbol; returns an event iff an alarm fires now."""
        self._miner.append(symbol)
        return self._check()

    def append_code(self, code: int) -> DriftEvent | None:
        """Consume one symbol code; returns an event iff an alarm fires."""
        self._miner.append_code(code)
        return self._check()

    def extend_codes(self, codes: Iterable[int] | np.ndarray) -> list[DriftEvent]:
        """Consume many codes; returns every alarm fired along the way.

        Chunked fast path: confidence checks only ever happen at stream
        positions that are multiples of ``check_every``, so the codes
        are fed to the sliding-window miner in vectorised sub-chunks
        that end exactly on those boundaries and the check runs between
        them — the fired :class:`DriftEvent` sequence is identical to
        per-symbol feeding.
        """
        block = as_code_array(codes)
        check_code_range(block, len(self._miner.alphabet))
        fired: list[DriftEvent] = []
        consumed = 0
        while consumed < block.size:
            boundary = (self._miner.n // self._check_every + 1) * self._check_every
            upto = min(block.size, consumed + boundary - self._miner.n)
            self._miner.extend_codes(block[consumed:upto])
            consumed = upto
            event = self._check()
            if event is not None:
                fired.append(event)
        return fired

    def _check(self) -> DriftEvent | None:
        n = self._miner.n
        if n % self._check_every or n < self._window:
            return None
        confidence = self._miner.confidence(self._period)
        if confidence < self._floor:
            self._low_streak += 1
        else:
            self._low_streak = 0
            self._alarmed = False
        if self._low_streak >= self._patience and not self._alarmed:
            self._alarmed = True
            event = DriftEvent(position=n, confidence=confidence)
            self._events.append(event)
            return event
        return None
