"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core import Alphabet, ConvolutionMiner, PeriodicityTable, SymbolSequence
from repro.core.mapping import witnesses_to_f2_table


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG per test."""
    return np.random.default_rng(20040314)


@pytest.fixture
def paper_series() -> SymbolSequence:
    """The paper's running example ``abcabbabcb``."""
    return SymbolSequence.from_string("abcabbabcb")


@pytest.fixture
def mapping_series() -> SymbolSequence:
    """The paper's mapping-scheme example ``acccabb``."""
    return SymbolSequence.from_string("acccabb")


def random_series(
    rng: np.random.Generator, n: int, sigma: int
) -> SymbolSequence:
    """An i.i.d. uniform series for randomised equivalence checks."""
    codes = rng.integers(0, sigma, size=n)
    return SymbolSequence.from_codes(codes.astype(np.int64), Alphabet.of_size(sigma))


def witness_table(
    engine: str, series: SymbolSequence, max_period: int | None = None
) -> PeriodicityTable:
    """The evidence table read off one witness engine's witness sets.

    Each ``|W_{p,k,l}|`` is decoded from the witnesses, independently of
    the counting kernel that ``periodicity_table`` uses.
    """
    miner = ConvolutionMiner(engine=engine, max_period=max_period)
    return PeriodicityTable(
        series.length,
        series.alphabet,
        {
            p: witnesses_to_f2_table(w, series.length, series.sigma, p)
            for p, w in miner.witness_sets(series).items()
        },
    )


# -- hypothesis strategies -----------------------------------------------------

def series_strategy(
    min_size: int = 2, max_size: int = 60, max_sigma: int = 5
) -> st.SearchStrategy[SymbolSequence]:
    """Random small symbol sequences (alphabet fixed by max_sigma)."""
    return st.integers(1, max_sigma).flatmap(
        lambda sigma: st.lists(
            st.integers(0, sigma - 1), min_size=min_size, max_size=max_size
        ).map(
            lambda codes: SymbolSequence.from_codes(
                np.array(codes, dtype=np.int64), Alphabet.of_size(sigma)
            )
        )
    )
