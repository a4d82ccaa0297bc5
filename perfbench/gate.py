"""Output gate: the benchmark refuses to time a wrong answer.

The gate checks invariants, not a frozen pattern list, so a lossless
change of pattern representation still passes:

* batch -- the exact table equals the brute-force oracle on a truncated
  period range; spectral and exact ``mine()`` agree on periodicities and
  patterns; every reported pattern's support, recomputed here from the
  raw codes by Definitions 2 and 3, equals the reported value and is
  at least psi;
* stream -- snapshot periodicities equal batch mining of the same
  window at sampled checkpoints, and the final window table equals
  ``SpectralMiner`` on the last ``window`` codes.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

import numpy as np

from repro.baselines.brute_force import brute_force_table
from repro.core import MiningResult, SpectralMiner, SymbolSequence
from repro.core.patterns import PeriodicPattern
from repro.streaming import SlidingWindowMiner

from workloads import WINDOW, Workload

#: brute-force budget: periods are truncated so n * periods stays near this.
_BRUTE_FORCE_PAIRS = 300_000


def check_batch(
    work: Workload, series: SymbolSequence, spectral: MiningResult, exact: MiningResult
) -> list[str]:
    """All batch invariants for one workload."""
    problems = []
    cut = max(4, _BRUTE_FORCE_PAIRS // series.length)
    oracle = brute_force_table(series, max_period=cut)
    for p in range(1, cut + 1):
        if exact.table.counts_for(p) != oracle.counts_for(p):
            problems.append(f"exact table differs from brute force at period {p}")
            break
    if spectral.periodicities != exact.periodicities:
        problems.append("spectral and exact mine() disagree on periodicities")
    if spectral.patterns != exact.patterns or [
        p.support for p in spectral.patterns
    ] != [p.support for p in exact.patterns]:
        problems.append("spectral and exact mine() disagree on patterns")
    if len(set(spectral.patterns)) != len(spectral.patterns):
        problems.append("duplicate patterns reported")
    if work.max_arity is not None and any(
        p.arity > work.max_arity for p in spectral.patterns
    ):
        problems.append("a pattern exceeds max_arity")
    supports = recomputed_supports(series.codes, spectral.patterns)
    for pattern, support in zip(spectral.patterns, supports):
        if abs(pattern.support - support) > 1e-9 or support < work.psi - 1e-12:
            problems.append(
                f"pattern {pattern} reports support {pattern.support}, "
                f"recomputed {support} (psi {work.psi})"
            )
            break
    return problems


def recomputed_supports(
    codes: np.ndarray, patterns: Sequence[PeriodicPattern]
) -> list[float]:
    """Supports of ``patterns`` from the raw codes, by definition.

    Row ``m`` of period ``p`` holds the item ``(l, k)`` when
    ``codes[m p + l] == codes[(m + 1) p + l] == k``.  A single-symbol
    pattern's support is its row count over the adjacent pairs of its
    projection (Definition 2); a multi-symbol pattern's is the number
    of rows holding all its items over ``ceil(n / p) - 1`` (Definition 3).
    """
    n = int(codes.size)
    by_period: dict[int, list[int]] = defaultdict(list)
    for index, pattern in enumerate(patterns):
        by_period[pattern.period].append(index)
    supports = [0.0] * len(patterns)
    for p, indexes in by_period.items():
        earlier = np.flatnonzero(codes[: n - p] == codes[p:])
        rows_of: dict[tuple[int, int], list[int]] = defaultdict(list)
        for j, k in zip(earlier.tolist(), codes[earlier].tolist()):
            rows_of[(j % p, k)].append(j // p)
        masks: dict[tuple[int, int], int] = {}
        for index in indexes:
            items = patterns[index].items
            rows = -1
            for item in items:
                if item not in masks:
                    masks[item] = sum(1 << m for m in rows_of.get(item, ()))
                rows &= masks[item]
            count = rows.bit_count()
            if len(items) == 1:
                l = items[0][0]
                denominator = len(range(l, n, p)) - 1
            else:
                denominator = -(-n // p) - 1
            supports[index] = count / denominator if denominator > 0 else 0.0
    return supports


def stream_checkpoints(work: Workload, n: int) -> list[int]:
    """Stream lengths after each ingest chunk, where snapshots are taken."""
    return list(range(work.snapshot_every, n, work.snapshot_every)) + [n]


def check_stream(work: Workload, series: SymbolSequence) -> tuple[list[str], int]:
    """Stream invariants; also returns the final periodicity count."""
    codes = series.codes
    checkpoints = stream_checkpoints(work, codes.size)
    sampled = {checkpoints[0], checkpoints[len(checkpoints) // 2], checkpoints[-1]}
    miner = SlidingWindowMiner(
        series.alphabet, max_period=work.stream_max_period, window=WINDOW
    )
    problems = []
    start = 0
    final_count = 0
    for end in checkpoints:
        miner.extend_codes(codes[start:end])
        start = end
        if end not in sampled:
            continue
        window = SymbolSequence(codes[max(0, end - WINDOW) : end], series.alphabet)
        batch = SpectralMiner(max_period=work.stream_max_period).periodicity_table(window)
        hits = miner.periodicities(work.psi)
        if hits != batch.periodicities(work.psi):
            problems.append(f"snapshot at {end} differs from batch mining")
        if end == checkpoints[-1]:
            final_count = len(hits)
            if miner.table() != batch:
                problems.append("final window table differs from SpectralMiner")
    return problems, final_count
