"""Symbol periodicities and the table both miners produce.

Definition 1 of the paper: in a time series ``T`` of length ``n``, a
symbol ``s`` is *periodic with period p at position l* with respect to a
periodicity threshold ``psi`` iff::

    F2(s, pi_{p,l}(T)) / pairs(p, l) >= psi,   0 < psi <= 1

where ``pairs(p, l)`` is the number of adjacent pairs in the projection
(see :mod:`repro.core.projection`).  The left-hand side is the *support*
of the corresponding single-symbol pattern (Definition 2).

A :class:`PeriodicityTable` stores the complete evidence — the ``F2``
counts per ``(period, symbol, position)`` — produced by either mining
algorithm, and answers the threshold queries the rest of the pipeline
needs.  Both miners emit this exact structure, which is what makes them
interchangeable, and both fill it from one counting kernel,
:func:`residue_counts`.  The
paper reads ``F2(s_k, pi_{p,l})`` off the witness set ``W_{p,k,l}`` of
one convolution; over the integer codes the same number is the count of
``j = l (mod p)`` with ``t_j = t_{j+p} = s_k`` — one comparison of the
series against its shift by ``p`` plus one ``np.bincount`` keyed by
``k * p + j mod p``.  :func:`residue_table` reads such a block as a
``(symbol, position) -> F2`` dict.

One *layout* serves the miners, the streaming layer and the table:
every ``(period, symbol, position)`` triple up to a period cap flattened
into one key space.  Period ``p``'s block starts at
``dense_offsets(sigma, cap)[p]`` and holds ``sigma * p`` counters
ordered ``code * p + position``, so a kernel block is one contiguous
slice.  The streaming store counts the whole key space densely, with
``np.bincount`` scatter-adds; a :class:`PeriodicityTable` keeps only
the non-zero cells, as an ascending int64 key array beside their int64
counts, so :meth:`PeriodicityTable.from_dense` is one
``np.flatnonzero`` and every threshold query is a mask over the two
arrays.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet
from .projection import projection_pairs, projection_pairs_array

__all__ = [
    "SymbolPeriodicity",
    "PeriodicityTable",
    "dense_offsets",
    "dense_size",
    "residue_counts",
    "residue_table",
    "resolve_max_period",
]


def resolve_max_period(max_period: int | None, n: int) -> int:
    """The largest period a batch miner scans in a series of length ``n``.

    ``None`` means the paper's ``n // 2``; an explicit cap must be at
    least 1 and is clamped to ``n - 1``.  A series shorter than 2 has no
    period, so the result is 0.
    """
    if max_period is not None and max_period < 1:
        raise ValueError("max_period must be >= 1")
    cap = n // 2 if max_period is None else max_period
    return min(cap, n - 1) if n > 1 else 0


def residue_counts(codes: np.ndarray, sigma: int, period: int) -> np.ndarray:
    """Every ``F2(s_k, pi_{p,l}(T))`` of one period, as a dense block.

    Entry ``[k, l]`` of the ``(sigma, period)`` int64 result counts the
    ``j = l (mod period)`` with ``codes[j] == codes[j + period] == k``:
    the cardinality of the paper's witness set ``W_{p,k,l}``.  Row-major
    it is exactly period ``p``'s block of the :func:`dense_offsets`
    layout.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if codes.size <= period:
        return np.zeros((sigma, period), dtype=np.int64)
    j = np.flatnonzero(codes[:-period] == codes[period:])
    keys = codes[j] * period + j % period
    return np.bincount(keys, minlength=sigma * period).reshape(sigma, period)


def residue_table(block: np.ndarray) -> dict[tuple[int, int], int]:
    """The non-zero ``(symbol, position) -> F2`` entries of one block.

    ``block`` is a ``(sigma, period)`` count array such as
    :func:`residue_counts` returns.
    """
    codes, positions = np.divmod(np.flatnonzero(block), block.shape[1])
    return dict(zip(zip(codes.tolist(), positions.tolist()), block[codes, positions].tolist()))


def _block_starts(sigma: int, periods: np.ndarray | int) -> np.ndarray:
    """Flat index where each period's block starts in the dense layout."""
    return np.asarray(sigma * periods * (periods - 1) // 2, dtype=np.int64)


def dense_offsets(sigma: int, max_period: int) -> np.ndarray:
    """Block start of each period in the dense ``F2`` layout.

    Entry ``p`` (for ``1 <= p <= max_period``) is the flat index where
    period ``p``'s ``sigma * p`` counters begin; entry ``0`` is unused
    and zero.  The counter of ``(p, code, position)`` lives at
    ``offsets[p] + code * p + position``.
    """
    if sigma < 1 or max_period < 1:
        raise ValueError("sigma and max_period must be >= 1")
    return _block_starts(sigma, np.arange(max_period + 1, dtype=np.int64))


def dense_size(sigma: int, max_period: int) -> int:
    """Total number of counters in the dense layout."""
    if sigma < 1 or max_period < 1:
        raise ValueError("sigma and max_period must be >= 1")
    return sigma * max_period * (max_period + 1) // 2


@dataclass(frozen=True, slots=True, order=True)
class SymbolPeriodicity:
    """One detected periodicity: symbol ``s`` with period ``p`` at ``l``.

    Attributes
    ----------
    period:
        The period ``p``.
    position:
        The starting position ``l`` (``0 <= l < p``).
    symbol_code:
        Integer code of the periodic symbol.
    f2:
        The consecutive-occurrence count ``F2(s, pi_{p,l}(T))``.
    pairs:
        The support denominator (adjacent pairs of the projection).
    """

    period: int
    position: int
    symbol_code: int
    f2: int
    pairs: int

    @property
    def support(self) -> float:
        """The periodicity support ``F2 / pairs`` (0 when undefined)."""
        return self.f2 / self.pairs if self.pairs > 0 else 0.0

    def symbol(self, alphabet: Alphabet) -> Hashable:
        """Resolve the symbol code against an alphabet."""
        return alphabet.symbol(self.symbol_code)


class PeriodicityTable:
    """Complete ``F2`` evidence for every candidate period of a series.

    Held as the non-zero cells of the :func:`dense_offsets` layout: an
    ascending int64 key array, its int64 counts, and where each period's
    cells begin.

    Parameters
    ----------
    n:
        Length of the mined series.
    alphabet:
        The series alphabet.
    counts:
        Mapping ``period -> {(symbol_code, position): f2}``.  Only
        non-zero counts need to be present.  A period below 1, or a
        non-zero cell with a negative count or outside ``0 <= symbol_code
        < sigma``, ``0 <= position < period``, raises ``ValueError``.
    """

    def __init__(
        self,
        n: int,
        alphabet: Alphabet,
        counts: Mapping[int, Mapping[tuple[int, int], int]],
    ) -> None:
        sigma = len(alphabet)
        cells = [(p, k, l, v) for p, t in counts.items() for (k, l), v in t.items() if v]
        if any(p < 1 for p in counts) or not all(
            0 <= k < sigma and 0 <= l < p and v > 0 for p, k, l, v in cells
        ):
            raise ValueError(f"a cell cannot exist over {sigma} symbols, or its count is < 0")
        p, k, l, v = np.array(cells, dtype=np.int64).reshape(-1, 4).T
        keys = _block_starts(sigma, p) + k * p + l
        order = np.argsort(keys)
        self._set_cells(n, alphabet, keys[order], v[order], int(p.max(initial=0)))

    def _set_cells(
        self, n: int, alphabet: Alphabet, keys: np.ndarray, counts: np.ndarray, max_period: int
    ) -> "PeriodicityTable":
        """Hold ascending ``keys`` and counts; period p's are keys[_bounds[p - 1]:_bounds[p]]."""
        self._n = int(n)
        self._alphabet = alphabet
        self._keys = keys
        self._counts = counts
        starts = _block_starts(len(alphabet), np.arange(1, max_period + 2))
        self._bounds = np.searchsorted(keys, starts)
        return self

    @classmethod
    def from_dense(
        cls,
        n: int,
        alphabet: Alphabet,
        dense: np.ndarray,
        max_period: int,
    ) -> "PeriodicityTable":
        """Build a table from a dense flattened count array.

        ``dense`` must follow the layout of :func:`dense_offsets` for
        ``sigma = len(alphabet)`` and the given ``max_period``; its
        non-zero counters keep their keys.
        """
        if dense.shape != (dense_size(len(alphabet), max_period),):
            raise ValueError("dense array does not match the layout")
        keys = np.flatnonzero(dense)
        return cls.__new__(cls)._set_cells(n, alphabet, keys, dense[keys], max_period)

    @classmethod
    def from_blocks(
        cls,
        n: int,
        alphabet: Alphabet,
        blocks: Iterable[tuple[int, np.ndarray]],
    ) -> "PeriodicityTable":
        """Build a table from per-period ``(period, block)`` pairs.

        Each block is a ``(sigma, period)`` count array such as
        :func:`residue_counts` returns, at most one per period; only its
        non-zero entries are kept.  Both miners build their tables here.
        """
        sigma = len(alphabet)
        parts = [(0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))]
        for p, block in blocks:
            if block.shape != (sigma, p):
                raise ValueError(f"block of period {p} must have shape ({sigma}, {p})")
            cells = np.flatnonzero(block)
            parts.append((int(p), _block_starts(sigma, p) + cells, block.ravel()[cells]))
        parts.sort(key=lambda part: part[0])
        if len({part[0] for part in parts}) < len(parts):
            raise ValueError("a period appears in more than one block")
        keys, counts = (np.concatenate([part[i] for part in parts]) for i in (1, 2))
        return cls.__new__(cls)._set_cells(n, alphabet, keys, counts, parts[-1][0])

    # -- raw access ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Length of the mined series."""
        return self._n

    @property
    def alphabet(self) -> Alphabet:
        """Alphabet of the mined series."""
        return self._alphabet

    @property
    def periods(self) -> list[int]:
        """All periods with at least one non-zero ``F2`` count."""
        return (np.flatnonzero(np.diff(self._bounds)) + 1).tolist()

    def _cells(
        self, period: int | None = None, floor: float = 0.0, min_pairs: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(periods, codes, positions, counts)`` of all cells or one period's.

        A cell whose count is below ``floor`` times the fewest pairs of any
        position of its period (and ``min_pairs``) cannot reach support
        ``floor``; it is skipped before decoding.
        """
        first, last = (1, self._bounds.size - 1) if period is None else (period, period)
        span = np.arange(max(first, 1), min(last, self._bounds.size - 1) + 1)
        sizes = np.diff(self._bounds)[span - 1]
        lo = self._bounds[span[0] - 1] if span.size else 0
        fewest = np.maximum(projection_pairs_array(self._n, span, span - 1), min_pairs)
        counts = self._counts[lo : lo + sizes.sum()]
        keep = lo + np.flatnonzero(counts >= np.repeat(floor * fewest, sizes))
        periods = np.searchsorted(self._bounds, keep, side="right")
        relative = self._keys[keep] - _block_starts(len(self._alphabet), periods)
        codes, positions = np.divmod(relative, periods)
        return periods, codes, positions, self._counts[keep]

    def f2(self, period: int, symbol_code: int, position: int) -> int:
        """``F2(s_k, pi_{p,l}(T))`` — zero when not recorded."""
        return self.counts_for(period).get((symbol_code, position), 0)

    def counts_for(self, period: int) -> dict[tuple[int, int], int]:
        """The ``(symbol_code, position) -> F2`` table of one period."""
        _, codes, positions, counts = self._cells(period)
        return dict(zip(zip(codes.tolist(), positions.tolist()), counts.tolist()))

    def support(self, period: int, symbol_code: int, position: int) -> float:
        """Support of the single-symbol pattern ``(s_k, p, l)``."""
        pairs = projection_pairs(self._n, period, position)
        if pairs <= 0:
            return 0.0
        return self.f2(period, symbol_code, position) / pairs

    # -- threshold queries -----------------------------------------------------

    def _hits(self, psi: float, period: int | None, min_pairs: int) -> np.ndarray:
        """Rows ``period, position, code, f2, pairs``: a column per periodic cell."""
        if not 0 < psi <= 1:
            raise ValueError("the periodicity threshold must be in (0, 1]")
        if min_pairs < 1:
            raise ValueError("min_pairs must be >= 1")
        periods, codes, positions, counts = self._cells(period, psi, min_pairs)
        pairs = projection_pairs_array(self._n, periods, positions)
        hit = (pairs >= min_pairs) & (counts >= psi * pairs)
        return np.stack([column[hit] for column in (periods, positions, codes, counts, pairs)])

    def periodicities(
        self, psi: float, period: int | None = None, min_pairs: int = 1
    ) -> list[SymbolPeriodicity]:
        """All symbol periodicities with support ``>= psi`` (Definition 1).

        Restricted to one ``period`` when given; sorted by
        ``(period, position, symbol_code)``.  ``min_pairs`` (default 1,
        the paper's definition) discards periodicities whose projection
        has fewer adjacent pairs — raising it suppresses the trivial
        certainty of near-``n/2`` periods whose support denominator is 1.
        """
        hits = self._hits(psi, period, min_pairs)
        # lexsort's last key is the primary one: period, position, code.
        order = np.lexsort(hits[2::-1])
        return [SymbolPeriodicity(*cell) for cell in hits[:, order].T.tolist()]

    def candidate_periods(self, psi: float, min_pairs: int = 1) -> list[int]:
        """Periods at which at least one symbol is periodic w.r.t. ``psi``."""
        return np.unique(self._hits(psi, None, min_pairs)[0]).tolist()

    def confidence(self, period: int) -> float:
        """Maximum support of any symbol/position at ``period``.

        This is the "confidence" of the paper's experimental study
        (Sect. 4.1): the minimum periodicity threshold value at which the
        period would still be detected.
        """
        periods, _, positions, counts = self._cells(period)
        pairs = projection_pairs_array(self._n, periods, positions)
        valid = pairs > 0
        return float((counts[valid] / pairs[valid]).max()) if valid.any() else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicityTable):
            return NotImplemented
        return (
            self._n == other._n
            and self._alphabet == other._alphabet
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._counts, other._counts)
        )

    def __repr__(self) -> str:
        return (
            f"PeriodicityTable(n={self._n}, sigma={len(self._alphabet)}, "
            f"periods={len(self.periods)})"
        )
