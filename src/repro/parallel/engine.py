"""The sharded parallel witness engine.

Evaluates the paper's exact convolution components
``X & (X >> sigma*p)`` for a whole period range by fanning contiguous
period shards (:mod:`repro.parallel.plan`) out over a process pool —
the packed word array travels once via shared memory
(:mod:`repro.parallel.transport`), never per task — with a thread pool
or a plain in-process loop as the small-input fallbacks.

Two result shapes:

* **witnesses** — the full ascending witness-power arrays ``W_p``,
  bit-for-bit identical to the serial ``bitand`` / ``wordarray``
  engines;
* **count-only** — the ``F2`` tables ``{(symbol, position): count}``
  directly, decoded from the components themselves (the miners count
  with :func:`repro.core.periodicity.residue_counts` instead).  This
  path sums the bits of the masked AND result per ``(k, l)`` class
  (one dense ``unpackbits`` of the component, one ``flatnonzero``, one
  ``bincount``) and skips the sparse position decode
  (``set_bit_positions``), its per-word scatter, and the ``np.unique``
  row-grouping of :func:`repro.core.mapping.witnesses_to_f2_table`.

The residue decode mirrors :mod:`repro.core.mapping`: a set bit
``w = sigma*q + k`` of the component for period ``p`` witnesses the
match ``t_j = t_{j+p} = s_k`` with ``j = n - p - 1 - q``, so the class
key is ``(k, j mod p)``.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from ..convolution.bitops import (
    shift_right,
    shifted_self_and,
    unpack_bits,
    word_and,
)
from .plan import ShardPlan, plan_shards
from .transport import SharedWords, attach_words

__all__ = ["ParallelWitnessEngine", "component_f2_counts"]


def component_f2_counts(
    component: np.ndarray, n: int, sigma: int, period: int
) -> dict[tuple[int, int], int]:
    """Count-only decode of one AND component into its ``F2`` table.

    Equals ``witnesses_to_f2_table(set_bit_positions(component), ...)``
    but never materialises sorted witness positions: the component's
    bits are expanded densely once, and one ``bincount`` over the
    ``(symbol, position)`` class keys yields every cardinality.
    """
    if period < 1 or period >= n:
        return {}
    # The shifted operand has no bits >= sigma*(n - period), so neither
    # does the AND; expanding only the valid prefix is pure economy.
    valid_bits = sigma * (n - period)
    w = np.flatnonzero(unpack_bits(component, valid_bits))
    if w.size == 0:
        return {}
    symbols = w % sigma
    earlier = (n - period - 1) - w // sigma
    positions = earlier % period
    counts = np.bincount(symbols * period + positions, minlength=sigma * period)
    return {
        (int(key // period), int(key % period)): int(counts[key])
        for key in np.flatnonzero(counts)
    }


def _mine_shard(
    words: np.ndarray,
    n: int,
    sigma: int,
    lo: int,
    hi: int,
    count_only: bool,
) -> dict[int, object]:
    """Evaluate one shard's components over an already-attached array."""
    out: dict[int, object] = {}
    for p in range(lo, hi + 1):
        if count_only:
            component = word_and(words, shift_right(words, sigma * p))
            out[p] = component_f2_counts(component, n, sigma, p)
        else:
            out[p] = shifted_self_and(words, sigma * p)
    return out


def _mine_shard_shm(
    shm_name: str,
    n_words: int,
    n: int,
    sigma: int,
    lo: int,
    hi: int,
    count_only: bool,
) -> dict[int, object]:
    """Process-pool entry point: attach, mine the shard, detach."""
    words, shm = attach_words(shm_name, n_words)
    try:
        return _mine_shard(words, n, sigma, lo, hi, count_only)
    except BaseException as error:
        # The in-flight traceback pins the numpy view of the mapping
        # through the raising frame's locals, so close() below would
        # fail with BufferError (masking the worker's real error) and
        # leak the attachment; drop those frame locals first.
        traceback.clear_frames(error.__traceback__)
        raise
    finally:
        del words
        shm.close()


class ParallelWitnessEngine:
    """Sharded evaluator of all exact components of one packed series.

    Parameters
    ----------
    workers:
        Worker cap (default: CPU count).
    mode:
        ``"auto"`` (default), ``"process"``, or ``"thread"`` — forwarded
        to the shard planner; ``"auto"`` picks processes only when the
        input is large enough to amortise the pool.
    """

    def __init__(self, workers: int | None = None, mode: str = "auto") -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in ("auto", "process", "thread"):
            raise ValueError(f"unknown mode {mode!r}")
        self._workers = workers
        self._mode = mode

    def witness_sets(
        self, words: np.ndarray, n: int, sigma: int, max_period: int
    ) -> dict[int, np.ndarray]:
        """Witness powers ``W_p`` for every ``p`` in ``1..max_period``."""
        return self._run(words, n, sigma, max_period, count_only=False)

    def f2_tables(
        self, words: np.ndarray, n: int, sigma: int, max_period: int
    ) -> dict[int, dict[tuple[int, int], int]]:
        """Count-only fast path: the ``F2`` table of every period."""
        return self._run(words, n, sigma, max_period, count_only=True)

    def plan(self, max_period: int, total_bits: int) -> ShardPlan:
        """The shard plan this engine would execute (exposed for tests)."""
        return plan_shards(
            max_period,
            total_bits=total_bits,
            workers=self._workers,
            mode=self._mode,
        )

    def _run(
        self,
        words: np.ndarray,
        n: int,
        sigma: int,
        max_period: int,
        count_only: bool,
    ) -> dict[int, object]:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        plan = self.plan(max_period, total_bits=words.size * 64)
        if not plan.shards:
            return {}
        if len(plan.shards) == 1:
            only = plan.shards[0]
            return _mine_shard(words, n, sigma, only.lo, only.hi, count_only)
        if plan.use_processes:
            with SharedWords(words) as shared:
                with ProcessPoolExecutor(max_workers=plan.workers) as pool:
                    futures = [
                        pool.submit(
                            _mine_shard_shm,
                            shared.name,
                            shared.n_words,
                            n,
                            sigma,
                            s.lo,
                            s.hi,
                            count_only,
                        )
                        for s in plan.shards
                    ]
                    results = [f.result() for f in futures]
        else:
            with ThreadPoolExecutor(max_workers=plan.workers) as pool:
                futures = [
                    pool.submit(
                        _mine_shard, words, n, sigma, s.lo, s.hi, count_only
                    )
                    for s in plan.shards
                ]
                results = [f.result() for f in futures]
        merged: dict[int, object] = {}
        for chunk in results:
            merged.update(chunk)
        return merged
