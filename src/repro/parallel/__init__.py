"""Sharded parallel evaluation of the exact convolution components.

The period range ``1..n/2`` of the paper's one-pass miner is
embarrassingly parallel — each component ``X & (X >> sigma*p)`` reads
the same packed array independently — so this package shards it across
a worker pool:

* :mod:`repro.parallel.plan` — shard planner (oversubscribed contiguous
  period ranges, process/thread backend choice);
* :mod:`repro.parallel.transport` — one-shot shared-memory export of
  the packed ``uint64`` words, so tasks ship a name, not megabytes;
* :mod:`repro.parallel.engine` — the executor plus a count-only ``F2``
  decode of each component.

Reached through ``ConvolutionMiner(engine="parallel", workers=...)``,
whose ``witness_sets`` it serves; the miner's evidence table comes from
:func:`repro.core.periodicity.residue_counts` instead.  Direct use is
for callers that already hold packed words.
"""

from .engine import ParallelWitnessEngine, component_f2_counts
from .plan import Shard, ShardPlan, plan_shards
from .transport import SharedWords, attach_words

__all__ = [
    "ParallelWitnessEngine",
    "component_f2_counts",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "SharedWords",
    "attach_words",
]
