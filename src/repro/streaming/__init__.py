"""Streaming substrate: one-pass readers and incremental miners.

* :class:`ChunkedReader` — block-wise, single-pass access to series on
  disk or in memory (:meth:`~ChunkedReader.feed_into` pipes blocks
  straight into any miner);
* :class:`SlidingWindowMiner` — incremental evidence over the whole
  stream (``window=None``) or its last ``window`` symbols (monitoring
  mode);
* :class:`DenseCountStore` — the flat scatter-add evidence store behind
  the miner's vectorised block ingestion.
"""

from .counts import DenseCountStore
from .reader import ChunkedReader, CodeSink, write_symbol_file
from .window import SlidingWindowMiner
from .monitor import DriftEvent, PeriodicityMonitor

__all__ = [
    "ChunkedReader",
    "CodeSink",
    "DenseCountStore",
    "write_symbol_file",
    "SlidingWindowMiner",
    "DriftEvent",
    "PeriodicityMonitor",
]
