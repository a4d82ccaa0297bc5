"""Scalable FFT miner producing the same evidence as the exact miner.

The paper's exact convolution carries one witness power of two per
match, which forces big-integer arithmetic.  This miner keeps the
algorithmic idea — *one* batch of FFT correlations answers every shift
at once — but replaces the witness bookkeeping with two cheap stages:

1. **Spectral stage.**  For every symbol ``s_k`` the FFT
   autocorrelation of its 0/1 indicator vector gives the aggregate
   match counts ``M_k(p) = |{j : t_j = t_{j+p} = s_k}|`` for *all*
   shifts ``p`` simultaneously — ``O(sigma n log n)`` total, one pass
   over the data.  Because ``F2(s_k, pi_{p,l}) <= M_k(p)`` and the
   support denominator is at least ``min_pairs(p)``, any ``(k, p)``
   with ``M_k(p) < psi * min_pairs(p)`` can be discarded without ever
   looking at positions.
2. **Residue stage.**  For every period with a surviving symbol the
   per-position split ``F2(s_k, pi_{p,l})`` comes from the shared
   counting kernel :func:`repro.core.periodicity.residue_counts` — the
   same one :class:`repro.core.convolution_miner.ConvolutionMiner`
   uses — and the rows of pruned symbols are dropped.

A period with no surviving symbol skips stage 2.  The bound bites while
``M_k(p)`` is small next to ``psi * n / p``: for random codes
``M_k(p) ~ n / sigma**2``, so pruning pays for periods below about
``psi * sigma**2``.  Past that, and in the worst case (a constant
series, where every shift of every symbol survives), the miner costs
the FFTs plus the ``O(n * max_period)`` kernel pass, which
``max_period`` bounds.  ``docs/algorithm.md`` has the measured
crossover against the exact miner.

With ``psi = None`` (or ``psi`` close to 0) the miner returns the full,
unpruned evidence and is then *exactly* interchangeable with
:class:`repro.core.convolution_miner.ConvolutionMiner` — the test suite
asserts equality of the tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ..convolution.external import blocked_match_counts
from ..convolution.fft import correlate_fft
from .periodicity import PeriodicityTable, residue_counts, resolve_max_period
from .sequence import SymbolSequence

__all__ = ["SpectralMiner"]


def _min_pairs(n: int, periods: np.ndarray) -> np.ndarray:
    """Fewest adjacent pairs of any position of each period (at least 1).

    That is ``pairs(n, p, p - 1)``, the last position's projection.
    """
    return np.maximum(-(-(n - periods + 1) // np.maximum(periods, 1)) - 1, 1)


class SpectralMiner:
    """FFT-based miner, interchangeable with the exact convolution miner.

    Parameters
    ----------
    psi:
        Pruning threshold for the spectral stage.  ``None`` disables
        pruning (full table, exact-miner parity).  When set, the table
        only retains ``(period, symbol)`` cells that could reach support
        ``psi`` — mining with any threshold ``>= psi`` is unaffected.
    max_period:
        Largest period to analyse (at least 1); defaults to ``n // 2``.
    """

    def __init__(
        self, psi: float | None = None, max_period: int | None = None
    ) -> None:
        if psi is not None and not 0 < psi <= 1:
            raise ValueError("psi must be in (0, 1] or None")
        resolve_max_period(max_period, 0)  # reject a bad cap now, not on first use
        self._psi = psi
        self._max_period = max_period

    # -- stage 1: aggregate match counts ---------------------------------------

    def match_counts(self, series: SymbolSequence) -> np.ndarray:
        """``M_k(p)`` for every symbol and every shift ``0..max_period``.

        Shape ``(sigma, max_period + 1)``; column 0 holds occurrence
        counts.  This is the quantity one batch of FFT autocorrelations
        yields for all shifts at once.
        """
        n = series.length
        max_period = resolve_max_period(self._max_period, n)
        counts = np.zeros((series.sigma, max_period + 1), dtype=np.int64)
        if n == 0:
            return counts
        for k in range(series.sigma):
            indicator = series.indicator(k)
            if not indicator.any():
                continue
            corr = correlate_fft(indicator)
            upto = min(max_period + 1, corr.size)
            counts[k, :upto] = np.rint(corr[:upto]).astype(np.int64)
        return counts

    def candidate_period_symbols(
        self, series: SymbolSequence, psi: float
    ) -> list[tuple[int, int]]:
        """Periodicity-detection phase only: plausible ``(period, symbol)``.

        Returns the ``(p, k)`` pairs whose aggregate match count admits a
        support ``>= psi`` at some position — everything the spectral
        stage alone can decide, and the natural unit for the Fig. 5
        timing comparison (the periodic-trends baseline likewise only
        nominates periods, not positions).
        """
        if not 0 < psi <= 1:
            raise ValueError("psi must be in (0, 1]")
        n = series.length
        counts = self.match_counts(series)
        eligible = counts >= psi * _min_pairs(n, np.arange(counts.shape[1]))[None, :]
        eligible[:, 0] = False
        ks, ps = np.nonzero(eligible)
        return sorted((int(p), int(k)) for k, p in zip(ks, ps))

    # -- full mining --------------------------------------------------------------

    def periodicity_table(self, series: SymbolSequence) -> PeriodicityTable:
        """Mine the ``F2`` evidence table (pruned only if ``psi`` is set)."""
        return self._residue_stage(series, self.match_counts(series))

    def periodicity_table_out_of_core(
        self,
        code_blocks: Iterable[np.ndarray],
        series_for_residues: SymbolSequence,
    ) -> PeriodicityTable:
        """Variant running stage 1 through the blocked external kernel.

        ``code_blocks`` streams the same codes held by
        ``series_for_residues``; stage 1 then never materialises more
        than one block, demonstrating the paper's external-FFT remark.
        Stage 2 still needs the series (it is position-local and cheap).
        """
        series = series_for_residues
        max_period = resolve_max_period(self._max_period, series.length)
        match_counts = blocked_match_counts(code_blocks, series.sigma, max_period)
        return self._residue_stage(series, match_counts)

    # -- internals -------------------------------------------------------------------

    def _residue_stage(
        self, series: SymbolSequence, match_counts: np.ndarray
    ) -> PeriodicityTable:
        """Stage 2: split the surviving ``(k, p)`` cells by ``j mod p``.

        ``F2(s_k, pi_{p,l}) <= M_k(p)`` and every position of period
        ``p`` has at least ``pairs(n, p, p - 1)`` pairs, so a symbol
        whose ``M_k(p)`` is below ``psi`` times that (or zero) cannot be
        periodic at ``p``; its row is dropped, and a period with no
        surviving symbol is never counted.
        """
        n, sigma = series.length, series.sigma
        periods = np.arange(1, match_counts.shape[1])
        bound = np.ones(periods.size)
        if self._psi is not None:
            bound = np.maximum(self._psi * _min_pairs(n, periods), 1.0)
        survives = match_counts[:, 1:] >= bound
        codes = series.codes

        def blocks() -> Iterator[tuple[int, np.ndarray]]:
            for p in np.flatnonzero(survives.any(axis=0)) + 1:
                block = residue_counts(codes, sigma, int(p))
                block[~survives[:, p - 1]] = 0
                yield int(p), block

        return PeriodicityTable.from_blocks(n, series.alphabet, blocks())
