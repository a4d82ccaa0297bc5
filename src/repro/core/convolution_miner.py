"""The paper's one-pass convolution miner (Fig. 2), exactly.

Pipeline (Sect. 3):

1. map the series to the 0/1 vector ``T'`` (one ``sigma``-bit block per
   symbol, :mod:`repro.core.mapping`);
2. compute the modified convolution
   ``(x (*) y)_i = sum_j 2**j x_j y_{i-j}`` of ``reverse(T')`` with
   ``T'`` — exactly, because every match contributes one distinct power
   of two that must survive into the output;
3. read the witness set ``W_p`` out of the component for every
   symbol-shift ``p = 1 .. n/2`` and split it into the
   ``W_{p,k,l}`` sets, whose cardinalities are the
   ``F2(s_k, pi_{p,l}(T))`` counts of Definition 1.

Two exact engines compute step 2 and return the witness sets
(:meth:`ConvolutionMiner.witness_sets`), both literal to the paper:

``"kronecker"``
    One big-integer multiplication evaluates the whole convolution at
    once (Kronecker substitution) — the literal "one convolution" of the
    paper, with Python's sub-quadratic big-int product standing in for
    the exact FFT.  The product holds ``Theta((sigma n)**2)`` bits, so
    this engine is for small-to-moderate series.

``"bitand"`` (default)
    Evaluates each component lazily.  Because the inputs are 0/1 and the
    weights are ``2**j``, the component for bit-shift ``sigma p`` of the
    reversed convolution is literally ``X & (X >> sigma p)`` where ``X``
    is ``T'`` read as one big binary number (most-significant bit =
    position 0).  Each AND is one machine-speed pass over ``sigma n``
    bits; all components follow from the same single mapping of the
    data, read once.

Both engines produce bit-for-bit identical witness sets (property-tested
against each other and against the quadratic reference).

Step 3 needs only the cardinalities ``|W_{p,k,l}|``, and those do not
need the witnesses: :meth:`ConvolutionMiner.periodicity_table` reads
them straight off the codes with
:func:`repro.core.periodicity.residue_counts`, whichever engine is
selected.  The test suite pins that kernel to the decoded witness sets
of both engines and to the brute-force oracle.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..convolution.bigint import (
    bit_positions,
    pack_bits,
    weighted_convolution_witnesses,
)
from .mapping import binary_vector, binary_vector_bits
from .periodicity import PeriodicityTable, resolve_max_period, residue_counts
from .sequence import SymbolSequence

__all__ = ["ConvolutionMiner", "Engine", "ENGINES"]

Engine = Literal["bitand", "kronecker"]

#: the engine registry — the single source of truth the ``Engine``
#: alias, docs, and tests are all checked against (lint rule RL004).
ENGINES: tuple[Engine, ...] = ("bitand", "kronecker")

#: Kronecker products hold (sigma*n)**2 bits; past this the engine would
#: allocate gigabytes, so it refuses and points at the lazy engine.
_KRONECKER_MAX_BITS = 30_000


class ConvolutionMiner:
    """Exact miner implementing the paper's algorithm verbatim.

    Parameters
    ----------
    engine:
        ``"bitand"`` (default) or ``"kronecker"`` — the witness engine
        :meth:`witness_sets` runs; see the module docstring.  Outputs are
        identical.
    max_period:
        Largest period to analyse (at least 1); defaults to ``n // 2``
        per the paper's Fig. 2 loop.
    """

    def __init__(
        self, engine: Engine = "bitand", max_period: int | None = None
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        resolve_max_period(max_period, 0)  # reject a bad cap now, not on first use
        self._engine = engine
        self._max_period = max_period

    # -- public API ------------------------------------------------------------

    def witness_sets(self, series: SymbolSequence) -> dict[int, np.ndarray]:
        """The raw witness sets ``W_p`` for every period ``p``.

        Returns a mapping ``period -> ascending array of powers w`` with
        ``2**w`` present in the convolution component of that period.
        Periods with empty witness sets are omitted.
        """
        n = series.length
        max_period = resolve_max_period(self._max_period, n)
        if max_period < 1:
            return {}
        if self._engine == "kronecker":
            witnesses = self._kronecker_witnesses(series, max_period)
        else:
            witnesses = self._bitand_witnesses(series, max_period)
        return {p: w for p, w in witnesses.items() if w.size}

    def periodicity_table(self, series: SymbolSequence) -> PeriodicityTable:
        """Mine the full ``F2`` evidence table of the series.

        Every ``|W_{p,k,l}|`` comes from :func:`residue_counts`, one
        period at a time; the witness engine is not run.
        """
        max_period = resolve_max_period(self._max_period, series.length)
        codes, sigma = series.codes, series.sigma
        return PeriodicityTable.from_blocks(
            series.length,
            series.alphabet,
            ((p, residue_counts(codes, sigma, p)) for p in range(1, max_period + 1)),
        )

    # -- engines ---------------------------------------------------------------

    def _bitand_witnesses(
        self, series: SymbolSequence, max_period: int
    ) -> dict[int, np.ndarray]:
        sigma = series.sigma
        total = sigma * series.length
        # Bit e of X must be x[total - 1 - e]: the series' binary vector
        # read as a number whose most significant bit is position 0.
        big_x = pack_bits(total - 1 - binary_vector_bits(series), total)
        out: dict[int, np.ndarray] = {}
        for p in range(1, max_period + 1):
            component = big_x & (big_x >> (sigma * p))
            out[p] = bit_positions(component)
        return out

    def _kronecker_witnesses(
        self, series: SymbolSequence, max_period: int
    ) -> dict[int, np.ndarray]:
        vector = binary_vector(series)
        total = vector.size
        if total > _KRONECKER_MAX_BITS:
            raise ValueError(
                f"kronecker engine refuses sigma*n = {total:,} "
                f"(limit {_KRONECKER_MAX_BITS:,}): the product would hold "
                f"about {total * total:,} bits; use engine='bitand' "
                "or the SpectralMiner"
            )
        components = weighted_convolution_witnesses(vector[::-1], vector)
        sigma = series.sigma
        out: dict[int, np.ndarray] = {}
        for p in range(1, max_period + 1):
            # Reversing the convolution output maps component i to
            # total - 1 - i; the symbol-shift-p component sits at bit
            # offset sigma * p of the reversed sequence.
            out[p] = components[total - 1 - sigma * p]
        return out
