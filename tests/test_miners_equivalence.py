"""Property-based equivalence: both miners == the brute-force oracle.

The central correctness property of the reproduction: the paper's exact
convolution miner, the spectral miner, and the naive shift-and-compare
oracle all compute the same F2 evidence for every series.  Both miners
count with one kernel (``residue_counts``); the exact witness
engines are kept as oracles for it: decoding their witness sets
``W_{p,k,l}`` must give the kernel's table.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_table
from repro.core import ENGINES, ConvolutionMiner, SpectralMiner

from conftest import series_strategy, witness_table


@settings(max_examples=80, deadline=None)
@given(series=series_strategy(min_size=2, max_size=50))
def test_exact_miner_equals_oracle(series):
    assert ConvolutionMiner().periodicity_table(series) == brute_force_table(series)


@settings(max_examples=80, deadline=None)
@given(series=series_strategy(min_size=2, max_size=50))
def test_spectral_miner_equals_oracle(series):
    assert SpectralMiner().periodicity_table(series) == brute_force_table(series)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=40, deadline=None)
@given(
    series=series_strategy(min_size=2, max_size=40),
    cap=st.none() | st.integers(1, 45),
)
def test_engine_equals_kernel_and_oracle(engine, series, cap):
    """Decoded witness sets == the counting kernel == brute force, with
    the period range uncapped or capped (a cap past n//2 clamps to n-1)."""
    decoded = witness_table(engine, series, max_period=cap)
    kernel = ConvolutionMiner(max_period=cap).periodicity_table(series)
    assert decoded == kernel
    assert kernel == brute_force_table(series, max_period=cap)


@settings(max_examples=60, deadline=None)
@given(
    series=series_strategy(min_size=2, max_size=60),
    psi=st.floats(0.05, 1.0),
)
def test_pruned_spectral_periodicities_equal_oracle(series, psi):
    """The FFT bound only drops cells that cannot reach psi."""
    pruned = SpectralMiner(psi=psi).periodicity_table(series)
    assert pruned.periodicities(psi) == brute_force_table(series).periodicities(psi)


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=2, max_size=50), cap=st.integers(1, 12))
def test_max_period_restriction_consistent(series, cap):
    """Capped miners agree with the capped oracle."""
    exact = ConvolutionMiner(max_period=cap).periodicity_table(series)
    spectral = SpectralMiner(max_period=cap).periodicity_table(series)
    oracle = brute_force_table(series, max_period=cap)
    assert exact == oracle
    assert spectral == oracle


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=4, max_size=40))
def test_alphabet_permutation_invariance(series):
    """Relabelling symbols permutes the evidence but not its structure."""
    from repro.core import Alphabet, SymbolSequence

    sigma = series.sigma
    permuted_codes = (series.codes + 1) % sigma
    permuted = SymbolSequence.from_codes(permuted_codes, Alphabet.of_size(sigma))
    original = ConvolutionMiner().periodicity_table(series)
    relabelled = ConvolutionMiner().periodicity_table(permuted)
    for p in set(original.periods) | set(relabelled.periods):
        source = original.counts_for(p)
        target = relabelled.counts_for(p)
        mapped = {((k + 1) % sigma, l): v for (k, l), v in source.items()}
        assert mapped == target


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=2, max_size=40))
def test_confidence_bounded_by_one(series):
    table = SpectralMiner().periodicity_table(series)
    for p in table.periods:
        assert 0.0 <= table.confidence(p) <= 1.0
