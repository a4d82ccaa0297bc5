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
``k * p + j mod p``.  :func:`residue_table` turns such a block into the
``(symbol, position) -> F2`` dict the table stores.

The module also defines the *dense layout* used by the streaming layer:
every ``(period, symbol, position)`` triple up to a period cap flattened
into one contiguous array, so evidence can be scatter-added with
``np.bincount`` instead of nested dict updates.  Period ``p``'s block
starts at ``dense_offsets(sigma, cap)[p]`` and holds ``sigma * p``
counters ordered ``code * p + position``;
:meth:`PeriodicityTable.from_dense` converts such an array back into a
table in one vectorised pass.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet
from .projection import projection_pairs

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
    flat = block.ravel()
    nonzero = np.flatnonzero(flat)
    if nonzero.size == 0:
        return {}
    period = block.shape[1]
    keys = zip((nonzero // period).tolist(), (nonzero % period).tolist())
    return dict(zip(keys, flat[nonzero].tolist()))


def dense_offsets(sigma: int, max_period: int) -> np.ndarray:
    """Block start of each period in the dense ``F2`` layout.

    Entry ``p`` (for ``1 <= p <= max_period``) is the flat index where
    period ``p``'s ``sigma * p`` counters begin; entry ``0`` is unused
    and zero.  The counter of ``(p, code, position)`` lives at
    ``offsets[p] + code * p + position``.
    """
    if sigma < 1 or max_period < 1:
        raise ValueError("sigma and max_period must be >= 1")
    periods = np.arange(max_period + 1, dtype=np.int64)
    return sigma * periods * (periods - 1) // 2


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

    Parameters
    ----------
    n:
        Length of the mined series.
    alphabet:
        The series alphabet.
    counts:
        Mapping ``period -> {(symbol_code, position): f2}``.  Only
        non-zero counts need to be present.
    """

    def __init__(
        self,
        n: int,
        alphabet: Alphabet,
        counts: Mapping[int, Mapping[tuple[int, int], int]],
    ) -> None:
        self._n = n
        self._alphabet = alphabet
        self._counts: dict[int, dict[tuple[int, int], int]] = {
            int(p): {k: int(v) for k, v in table.items() if v}
            for p, table in counts.items()
        }

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
        ``sigma = len(alphabet)`` and the given ``max_period``.  Only
        non-zero counters are materialised; each period's block is a
        zero-copy view handed to :meth:`from_blocks`, so snapshots stay
        cheap even when the dense store is large.
        """
        sigma = len(alphabet)
        offsets = dense_offsets(sigma, max_period)
        if dense.shape != (dense_size(sigma, max_period),):
            raise ValueError("dense array does not match the layout")
        return cls.from_blocks(
            n,
            alphabet,
            (
                (p, dense[offsets[p] : offsets[p] + sigma * p].reshape(sigma, p))
                for p in range(1, max_period + 1)
            ),
        )

    @classmethod
    def from_blocks(
        cls,
        n: int,
        alphabet: Alphabet,
        blocks: Iterable[tuple[int, np.ndarray]],
    ) -> "PeriodicityTable":
        """Build a table from per-period ``(period, block)`` pairs.

        Each block is a ``(sigma, period)`` count array such as
        :func:`residue_counts` returns; only its non-zero entries are
        materialised (:func:`residue_table`).  Both miners and
        :meth:`from_dense` build their tables here.
        """
        counts: dict[int, dict[tuple[int, int], int]] = {}
        for p, block in blocks:
            table_p = residue_table(block)
            if table_p:
                counts[p] = table_p
        table = cls.__new__(cls)
        table._n = int(n)
        table._alphabet = alphabet
        table._counts = counts
        return table

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
        return sorted(p for p, t in self._counts.items() if t)

    def f2(self, period: int, symbol_code: int, position: int) -> int:
        """``F2(s_k, pi_{p,l}(T))`` — zero when not recorded."""
        return self._counts.get(period, {}).get((symbol_code, position), 0)

    def counts_for(self, period: int) -> dict[tuple[int, int], int]:
        """The ``(symbol_code, position) -> F2`` table of one period."""
        return dict(self._counts.get(period, {}))

    def support(self, period: int, symbol_code: int, position: int) -> float:
        """Support of the single-symbol pattern ``(s_k, p, l)``."""
        pairs = projection_pairs(self._n, period, position)
        if pairs <= 0:
            return 0.0
        return self.f2(period, symbol_code, position) / pairs

    # -- threshold queries -----------------------------------------------------

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
        if not 0 < psi <= 1:
            raise ValueError("the periodicity threshold must be in (0, 1]")
        if min_pairs < 1:
            raise ValueError("min_pairs must be >= 1")
        hits: list[SymbolPeriodicity] = []
        items: Iterator[tuple[int, dict[tuple[int, int], int]]]
        if period is None:
            items = iter(sorted(self._counts.items()))
        else:
            items = iter([(period, self._counts.get(period, {}))])
        for p, table in items:
            for (k, l), count in table.items():
                pairs = projection_pairs(self._n, p, l)
                if pairs >= min_pairs and count >= psi * pairs:
                    hits.append(SymbolPeriodicity(p, l, k, count, pairs))
        hits.sort(key=lambda h: (h.period, h.position, h.symbol_code))
        return hits

    def candidate_periods(self, psi: float, min_pairs: int = 1) -> list[int]:
        """Periods at which at least one symbol is periodic w.r.t. ``psi``."""
        return sorted({h.period for h in self.periodicities(psi, min_pairs=min_pairs)})

    def confidence(self, period: int) -> float:
        """Maximum support of any symbol/position at ``period``.

        This is the "confidence" of the paper's experimental study
        (Sect. 4.1): the minimum periodicity threshold value at which the
        period would still be detected.
        """
        table = self._counts.get(period)
        if not table:
            return 0.0
        best = 0.0
        for (k, l), count in table.items():
            pairs = projection_pairs(self._n, period, l)
            if pairs > 0:
                best = max(best, count / pairs)
        return best

    def merged_with(self, other: "PeriodicityTable") -> "PeriodicityTable":
        """Sum the ``F2`` evidence of two tables over the same alphabet.

        Used by the streaming layer to combine per-block tables.  The
        resulting ``n`` is the sum of the two lengths, which matches
        concatenation only approximately at the block seam (the seam
        pairs are accounted for separately by the online miner).
        """
        if other.alphabet != self._alphabet:
            raise ValueError("cannot merge tables over different alphabets")
        merged: dict[int, dict[tuple[int, int], int]] = {
            p: dict(t) for p, t in self._counts.items()
        }
        for p, table in other._counts.items():
            dst = merged.setdefault(p, {})
            for key, v in table.items():
                dst[key] = dst.get(key, 0) + v
        return PeriodicityTable(self._n + other.n, self._alphabet, merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicityTable):
            return NotImplemented
        mine = {p: t for p, t in self._counts.items() if t}
        theirs = {p: t for p, t in other._counts.items() if t}
        return (
            self._n == other._n
            and self._alphabet == other._alphabet
            and mine == theirs
        )

    def __repr__(self) -> str:
        return (
            f"PeriodicityTable(n={self._n}, sigma={len(self._alphabet)}, "
            f"periods={len(self.periods)})"
        )
