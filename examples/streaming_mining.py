"""Streaming scenario: one-pass mining of data that never fits in memory.

Two one-pass modes beyond plain batch mining:

* **out-of-core batch** — the series lives in a file; a
  :class:`ChunkedReader` streams it block by block through the blocked
  correlation kernel (the paper's "external FFT" remark), producing the
  same evidence table as in-memory mining;
* **online** — symbols arrive over time; a :class:`SlidingWindowMiner`
  without a window maintains the evidence of the whole stream
  incrementally, so periodicities can be watched as they strengthen
  (the paper's data-stream motivation, and the incremental extension of
  its reference [4]).

Run:  python examples/streaming_mining.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import SlidingWindowMiner, SpectralMiner
from repro.data import generate_periodic, apply_noise
from repro.streaming import ChunkedReader, write_symbol_file


def main() -> None:
    rng = np.random.default_rng(2004)
    series = apply_noise(
        generate_periodic(length=120_000, period=48, sigma=8, rng=rng),
        ratio=0.1,
        kinds="R",
        rng=rng,
    )

    # --- out-of-core: mine from a file without loading it wholesale ----
    with tempfile.TemporaryDirectory() as tmp:
        path = write_symbol_file(series, Path(tmp) / "stream.txt")
        size = path.stat().st_size
        reader = ChunkedReader(path, alphabet=series.alphabet, block_size=8_192)
        miner = SpectralMiner(psi=0.5, max_period=256)
        table = miner.periodicity_table_out_of_core(iter(reader), series)
        print(f"out-of-core mining of {size / 1024:.0f} KiB on disk "
              f"(8 KiB blocks): confidence at 48 = {table.confidence(48):.2f}")
        in_memory = miner.periodicity_table(series)
        print(f"identical to in-memory mining: {table == in_memory}")

    # --- online: watch the evidence build up as symbols arrive ---------
    online = SlidingWindowMiner(series.alphabet, max_period=64)
    checkpoints = (500, 2_000, 10_000, 30_000)
    position = 0
    print("\nonline mining (confidence at the true period 48 over time):")
    for checkpoint in checkpoints:
        online.extend_codes(series.codes[position:checkpoint])
        position = checkpoint
        print(f"  after {checkpoint:>6} symbols: {online.confidence(48):.2f}")

    hits = online.periodicities(0.6)
    periods = sorted({h.period for h in hits})
    print(f"\nperiods with support >= 0.6 so far: {periods}")


if __name__ == "__main__":
    main()
