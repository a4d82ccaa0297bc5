"""Tests for repro.core.results — the mine() facade."""

import pytest

from repro.core import (
    Alphabet,
    ConvolutionMiner,
    MiningResult,
    PeriodicityTable,
    SpectralMiner,
    SymbolSequence,
    mine,
)


class TestMineFacade:
    def test_paper_example_spectral(self, paper_series):
        result = mine(paper_series, psi=2 / 3)
        rendered = sorted(
            p.to_string(result.alphabet) for p in result.patterns_for(3)
        )
        assert rendered == ["*b*", "a**", "ab*"]

    def test_paper_example_convolution(self, paper_series):
        result = mine(paper_series, psi=2 / 3, algorithm="convolution")
        rendered = sorted(
            p.to_string(result.alphabet) for p in result.patterns_for(3)
        )
        assert rendered == ["*b*", "a**", "ab*"]

    def test_algorithms_agree(self, paper_series):
        spectral = mine(paper_series, psi=0.5)
        convolution = mine(paper_series, psi=0.5, algorithm="convolution")
        assert {(p.period, p.slots) for p in spectral.patterns} == {
            (p.period, p.slots) for p in convolution.patterns
        }

    def test_unknown_algorithm(self, paper_series):
        with pytest.raises(ValueError):
            mine(paper_series, psi=0.5, algorithm="magic")

    def test_candidate_periods_sorted(self, paper_series):
        result = mine(paper_series, psi=0.5)
        assert list(result.candidate_periods) == sorted(result.candidate_periods)

    def test_single_patterns_subset_of_patterns(self, paper_series):
        result = mine(paper_series, psi=0.5)
        all_slots = {(p.period, p.slots) for p in result.patterns}
        for single in result.single_patterns:
            assert (single.period, single.slots) in all_slots

    def test_periods_restriction(self, paper_series):
        result = mine(paper_series, psi=0.5, periods=[3])
        assert {p.period for p in result.patterns} == {3}
        # the evidence table still covers other periods
        assert result.confidence(4) > 0

    def test_max_period_limits_table(self, paper_series):
        result = mine(paper_series, psi=0.5, max_period=3)
        assert max(result.table.periods) <= 3

    def test_prune_false_keeps_full_table(self):
        series = SymbolSequence.from_string("abcabcabcaaa")
        pruned = mine(series, psi=0.9)
        full = mine(series, psi=0.9, algorithm="convolution")
        # the unpruned table can answer lower-threshold queries
        assert len(full.table.periodicities(0.1)) >= len(
            pruned.table.periodicities(0.1)
        )

    def test_confidence_passthrough(self, paper_series):
        result = mine(paper_series, psi=0.5)
        assert result.confidence(3) == result.table.confidence(3)

    def test_render_mentions_patterns(self, paper_series):
        text = mine(paper_series, psi=2 / 3).render()
        assert "ab*" in text and "psi=" in text

    def test_render_limit(self, paper_series):
        text = mine(paper_series, psi=0.4).render(limit=1)
        assert len(text.splitlines()) == 2

    def test_result_is_frozen(self, paper_series):
        result = mine(paper_series, psi=0.5)
        with pytest.raises(AttributeError):
            result.psi = 0.9


@pytest.mark.parametrize("psi", [1.5, 0.0, -1.0])
@pytest.mark.parametrize("algorithm", ["spectral", "convolution"])
def test_bad_psi_rejected_before_mining(monkeypatch, paper_series, psi, algorithm):
    """mine() checks psi up front, with one message, for every path."""

    def never(self, series):
        raise AssertionError("mined before checking psi")

    monkeypatch.setattr(ConvolutionMiner, "periodicity_table", never)
    monkeypatch.setattr(SpectralMiner, "periodicity_table", never)
    with pytest.raises(ValueError, match=r"psi must be in \(0, 1\], got"):
        mine(paper_series, psi=psi, algorithm=algorithm)


@pytest.mark.parametrize("algorithm", ["spectral", "convolution"])
@pytest.mark.parametrize("periods", [None, [3]])
def test_mine_scans_the_table_once(monkeypatch, paper_series, algorithm, periods):
    """Periodicities, single patterns and the searched periods all come
    from one full threshold scan; pattern search reads single periods."""
    scans = []
    original = PeriodicityTable.periodicities

    def spy(self, psi, period=None, min_pairs=1):
        scans.append(period)
        return original(self, psi, period, min_pairs)

    monkeypatch.setattr(PeriodicityTable, "periodicities", spy)
    result = mine(paper_series, psi=0.5, algorithm=algorithm, periods=periods)
    assert scans.count(None) == 1
    assert result.single_patterns
    assert {p.period for p in result.patterns} <= set(periods or result.candidate_periods)


def test_table_from_another_series_rejected(paper_series):
    table = mine(paper_series, psi=0.5).table
    longer = SymbolSequence.from_string("abcabbabcbab")
    relabelled = SymbolSequence.from_codes(paper_series.codes, Alphabet("xyz"))
    for other in (longer, relabelled):
        with pytest.raises(ValueError, match="another series"):
            mine(other, psi=0.5, table=table)
    assert mine(paper_series, psi=0.5, table=table).table is table
