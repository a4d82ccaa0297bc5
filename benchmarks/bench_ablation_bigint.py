"""Ablation — cost of the exact (paper-faithful) witness engines.

DESIGN.md documents why the evidence table is not read off the
witnesses: the paper's exact convolution carries Theta(n)-bit
witnesses, so its real cost grows super-linearly however it is
evaluated.  This bench times the decoded witness sets of both engines
against the shared counting kernel and the spectral miner on the same
series, and asserts all of them yield the same table.
"""

import numpy as np
import pytest

from repro.core import Alphabet, ConvolutionMiner, PeriodicityTable, SpectralMiner, SymbolSequence
from repro.core.mapping import witnesses_to_f2_table

N = 1_200
SIGMA = 4
MAX_PERIOD = 100


@pytest.fixture(scope="module")
def series():
    rng = np.random.default_rng(2004)
    return SymbolSequence.from_codes(
        rng.integers(0, SIGMA, size=N).astype(np.int64), Alphabet.of_size(SIGMA)
    )


def _decoded_table(engine, series):
    """The evidence table read off one engine's witness sets."""
    witnesses = ConvolutionMiner(engine=engine, max_period=MAX_PERIOD).witness_sets(series)
    return PeriodicityTable(
        series.length,
        series.alphabet,
        {p: witnesses_to_f2_table(w, N, SIGMA, p) for p, w in witnesses.items()},
    )


@pytest.mark.benchmark(group="ablation-bigint")
def test_exact_bitand_engine(benchmark, series):
    table = benchmark(lambda: _decoded_table("bitand", series))
    assert table.n == N


@pytest.mark.benchmark(group="ablation-bigint")
def test_exact_kronecker_engine(benchmark, series):
    table = benchmark.pedantic(
        lambda: _decoded_table("kronecker", series), rounds=1, iterations=1
    )
    assert table.n == N


@pytest.mark.benchmark(group="ablation-bigint")
def test_counting_kernel_same_series(benchmark, series):
    miner = ConvolutionMiner(max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.n == N


@pytest.mark.benchmark(group="ablation-bigint")
def test_spectral_miner_same_series(benchmark, series):
    miner = SpectralMiner(max_period=MAX_PERIOD)
    table = benchmark(lambda: miner.periodicity_table(series))
    assert table.n == N


@pytest.mark.benchmark(group="ablation-bigint")
def test_all_four_identical_output(benchmark, series):
    def run():
        return (
            _decoded_table("bitand", series),
            _decoded_table("kronecker", series),
            ConvolutionMiner(max_period=MAX_PERIOD).periodicity_table(series),
            SpectralMiner(max_period=MAX_PERIOD).periodicity_table(series),
        )

    bitand, kronecker, kernel, spectral = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bitand == kronecker == kernel == spectral
