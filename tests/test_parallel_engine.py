"""Tests for repro.parallel — sharded witness engine and count fast path.

The engine contract: ``engine="parallel"`` is bit-for-bit
indistinguishable from the serial exact engines, whatever the backend
(serial fallback, thread pool, process pool with shared memory) and
whichever result shape (witness sets or count-only ``F2`` tables).
``ConvolutionMiner.periodicity_table`` counts with ``residue_counts``
for every engine, so these tests drive the engine's own outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_table
from repro.core import ConvolutionMiner, SymbolSequence
from repro.core.mapping import witnesses_to_f2_table
from repro.parallel import (
    ParallelWitnessEngine,
    SharedWords,
    attach_words,
    component_f2_counts,
    plan_shards,
)
from repro.parallel.plan import Shard

from conftest import (
    parallel_count_table as _count_only_table,
    random_series,
    series_strategy,
    witness_table,
)


def _pack(series):
    return ConvolutionMiner(engine="parallel")._packed_words(series)


class TestCrossEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        series=series_strategy(min_size=2, max_size=50),
        workers=st.integers(1, 4),
    )
    def test_witness_sets_identical(self, series, workers):
        """Parallel witness sets == bitand == wordarray == kronecker."""
        reference = ConvolutionMiner(engine="bitand").witness_sets(series)
        for engine in ("wordarray", "kronecker"):
            other = ConvolutionMiner(engine=engine).witness_sets(series)
            assert reference.keys() == other.keys()
            for p in reference:
                assert reference[p].tolist() == other[p].tolist()
        parallel = ConvolutionMiner(
            engine="parallel", workers=workers
        ).witness_sets(series)
        assert reference.keys() == parallel.keys()
        for p in reference:
            assert reference[p].tolist() == parallel[p].tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        series=series_strategy(min_size=2, max_size=50),
        workers=st.integers(1, 4),
    )
    def test_f2_tables_identical(self, series, workers):
        """Count-only tables == every serial engine == the oracle."""
        parallel = _count_only_table(series, workers=workers)
        for engine in ("bitand", "wordarray", "kronecker"):
            assert parallel == witness_table(engine, series)
        assert parallel == ConvolutionMiner().periodicity_table(series)
        assert parallel == brute_force_table(series)

    @settings(max_examples=40, deadline=None)
    @given(
        series=series_strategy(min_size=2, max_size=40),
        cap=st.integers(1, 45),
    )
    def test_max_period_cap_respected(self, series, cap):
        """Capped parallel runs agree with capped serial runs, even when
        the cap exceeds n//2 (it clamps to n-1 like the serial path)."""
        reference = witness_table("wordarray", series, max_period=cap)
        parallel = ConvolutionMiner(
            engine="parallel", max_period=cap, workers=2
        ).witness_sets(series)
        assert parallel.keys() == ConvolutionMiner(
            engine="wordarray", max_period=cap
        ).witness_sets(series).keys()
        assert _count_only_table(series, workers=2, max_period=cap) == reference

    def test_sigma_one_series(self):
        series = SymbolSequence.from_string("aaaaaaa")
        parallel = witness_table("parallel", series)
        assert parallel == brute_force_table(series)
        assert _count_only_table(series) == parallel
        assert parallel.confidence(1) == pytest.approx(1.0)

    def test_tiny_series(self):
        for text in ("ab", "aa", "abc"):
            series = SymbolSequence.from_string(text)
            assert witness_table("parallel", series) == brute_force_table(series)
            assert _count_only_table(series) == brute_force_table(series)
        assert ConvolutionMiner(engine="parallel").witness_sets(
            SymbolSequence.from_string("a")
        ) == {}

    def test_more_workers_than_shards(self):
        # 8 periods at most, 32 workers: the planner must not starve or
        # duplicate shards.
        series = SymbolSequence.from_string("abcaabca" * 2)
        reference = witness_table("wordarray", series)
        assert witness_table("parallel", series) == reference
        parallel = ConvolutionMiner(engine="parallel", workers=32)
        assert parallel.witness_sets(series).keys() == ConvolutionMiner(
            engine="wordarray"
        ).witness_sets(series).keys()
        assert _count_only_table(series, workers=32) == reference

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ConvolutionMiner(engine="parallel", workers=0)
        with pytest.raises(ValueError):
            ParallelWitnessEngine(workers=-1)
        with pytest.raises(ValueError):
            ParallelWitnessEngine(mode="fiber")


class TestBackends:
    """Every backend produces the same results as the serial reference."""

    @pytest.fixture(scope="class")
    def medium(self):
        rng = np.random.default_rng(20040314)
        return random_series(rng, 2_000, 4)

    @pytest.fixture(scope="class")
    def reference(self, medium):
        table = witness_table("wordarray", medium, max_period=60)
        return {p: table.counts_for(p) for p in table.periods}

    def _run(self, series, mode, count_only):
        engine = ParallelWitnessEngine(workers=2, mode=mode)
        words = _pack(series)
        n, sigma = series.length, series.sigma
        if count_only:
            tables = engine.f2_tables(words, n, sigma, 60)
            return {p: t for p, t in tables.items() if t}
        return engine.witness_sets(words, n, sigma, 60)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_counts_match_reference(self, medium, reference, mode):
        assert self._run(medium, mode, count_only=True) == reference

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_witnesses_match_reference(self, medium, reference, mode):
        witnesses = self._run(medium, mode, count_only=False)
        rebuilt = {
            p: witnesses_to_f2_table(w, medium.length, medium.sigma, p)
            for p, w in witnesses.items()
            if w.size
        }
        assert rebuilt == reference


class TestCountFastPath:
    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(min_size=3, max_size=60))
    def test_component_counts_equal_witness_decode(self, series):
        """The popcount-per-residue-class decode == decode-then-group."""
        from repro.convolution.bitops import (
            shift_right,
            shifted_self_and,
            word_and,
        )

        words = _pack(series)
        n, sigma = series.length, series.sigma
        for p in range(1, max(2, n // 2) + 1):
            if p >= n:
                break
            component = word_and(words, shift_right(words, sigma * p))
            fast = component_f2_counts(component, n, sigma, p)
            slow = witnesses_to_f2_table(
                shifted_self_and(words, sigma * p), n, sigma, p
            )
            assert fast == {k: v for k, v in slow.items() if v}

    def test_out_of_range_period_is_empty(self):
        words = np.array([0xFFFF], dtype=np.uint64)
        assert component_f2_counts(words, n=4, sigma=2, period=4) == {}
        assert component_f2_counts(words, n=4, sigma=2, period=0) == {}


class TestShardPlanner:
    def test_covers_range_exactly(self):
        for max_period in (1, 2, 7, 63, 64, 1000):
            plan = plan_shards(max_period, total_bits=1 << 20, workers=4)
            periods = [p for s in plan.shards for p in s.periods()]
            assert periods == list(range(1, max_period + 1))

    def test_oversubscribes_but_balances(self):
        plan = plan_shards(1000, total_bits=1 << 20, workers=4)
        assert len(plan.shards) == 16
        sizes = [s.size for s in plan.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_range(self):
        plan = plan_shards(0, total_bits=64, workers=4)
        assert plan.shards == () and plan.max_period == 0

    def test_workers_clamped_to_periods(self):
        plan = plan_shards(3, total_bits=1 << 20, workers=16)
        assert plan.workers == 3

    def test_small_input_avoids_processes(self):
        plan = plan_shards(1000, total_bits=1 << 10, workers=4)
        assert not plan.use_processes

    def test_short_range_avoids_processes(self):
        plan = plan_shards(8, total_bits=1 << 20, workers=4)
        assert not plan.use_processes

    def test_large_input_uses_processes(self):
        plan = plan_shards(1000, total_bits=1 << 20, workers=4)
        assert plan.use_processes

    def test_mode_overrides(self):
        assert not plan_shards(
            1000, total_bits=1 << 20, workers=4, mode="thread"
        ).use_processes
        assert plan_shards(
            8, total_bits=64, workers=4, mode="process"
        ).use_processes

    def test_single_worker_single_shard(self):
        plan = plan_shards(1000, total_bits=1 << 20, workers=1)
        assert len(plan.shards) == 1 and not plan.use_processes

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(10, total_bits=64, workers=0)
        with pytest.raises(ValueError):
            plan_shards(10, total_bits=-1)
        with pytest.raises(ValueError):
            plan_shards(10, total_bits=64, mode="fiber")
        with pytest.raises(ValueError):
            Shard(3, 2)


class TestTransport:
    def test_roundtrip(self):
        words = np.arange(100, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        with SharedWords(words) as shared:
            view, shm = attach_words(shared.name, shared.n_words)
            try:
                np.testing.assert_array_equal(view, words)
            finally:
                del view
                shm.close()

    def test_empty_array(self):
        with SharedWords(np.array([], dtype=np.uint64)) as shared:
            assert shared.n_words == 0

    def test_unlinked_after_exit(self):
        with SharedWords(np.ones(4, dtype=np.uint64)) as shared:
            name = shared.name
        with pytest.raises(FileNotFoundError):
            attach_words(name, 4)

    def test_raising_worker_still_closes_attachment(self, monkeypatch):
        """Regression (lint RL002): a worker whose shard computation
        raises must still release its shared-memory attachment, or the
        parent's unlink leaks the segment until process exit."""
        from repro.parallel import engine as engine_module

        closed = []

        def tracking_attach(name, n_words):
            words, shm = attach_words(name, n_words)
            original_close = shm.close

            def close():
                closed.append(name)
                original_close()

            shm.close = close
            return words, shm

        def exploding_shard(*args, **kwargs):
            raise RuntimeError("worker blew up")

        monkeypatch.setattr(engine_module, "attach_words", tracking_attach)
        monkeypatch.setattr(engine_module, "_mine_shard", exploding_shard)
        words = np.ones(8, dtype=np.uint64)
        with SharedWords(words) as shared:
            with pytest.raises(RuntimeError, match="worker blew up"):
                engine_module._mine_shard_shm(
                    shared.name, shared.n_words, 8, 1, 1, 4, count_only=False
                )
            assert closed == [shared.name]

    def test_failed_attach_view_does_not_pin_segment(self):
        """A truncated segment must not leak the just-attached handle
        (attach_words closes on a failed ``np.frombuffer``)."""
        with SharedWords(np.ones(2, dtype=np.uint64)) as shared:
            with pytest.raises(ValueError):
                # Ask for more words than the segment holds.
                attach_words(shared.name, shared.n_words + 64)
        # The parent's unlink must now be effective: nothing pinned it.
        with pytest.raises(FileNotFoundError):
            attach_words(shared.name, 2)


class TestErrorMessages:
    def test_kronecker_refusal_states_product_and_limit(self, rng):
        series = random_series(rng, 20_000, 3)
        with pytest.raises(ValueError) as excinfo:
            ConvolutionMiner(engine="kronecker").witness_sets(series)
        message = str(excinfo.value)
        assert "60,000" in message  # sigma*n, the quantity the limit caps
        assert "30,000" in message  # the limit itself
        assert "3,600,000,000" in message  # the product's bit size
        assert "parallel" in message and "bitand" in message
