"""Perf-regression bench for the vectorized chunked streaming layer.

Standalone (not pytest-benchmark) so CI can run it via
``make bench-stream``::

    PYTHONPATH=src python benchmarks/bench_streaming_regress.py --out BENCH_PR3.json

Times the chunked ingestion path of :class:`SlidingWindowMiner`, without
a window ("online") and with one ("window"), against a faithful replica
of the old per-symbol update loop (the ``O(max_period)`` numpy gather plus
per-match dict bumps that used to live in ``append_code``), on the
``bench_streaming.py`` configuration (n=20k, sigma=8, max_period=128),
and emits a JSON trajectory file with the per-miner speedups.  Before
timing, every path is cross-checked for table equality against the
batch spectral miner — a bench that drifts from correctness is worse
than no bench.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _bench_utils import record

from repro.core import Alphabet, SymbolSequence
from repro.core.periodicity import PeriodicityTable
from repro.core.spectral_miner import SpectralMiner
from repro.streaming import SlidingWindowMiner


class BaselineOnline:
    """The pre-PR per-symbol online update, kept verbatim as the yardstick."""

    def __init__(self, alphabet: Alphabet, max_period: int):
        self._alphabet = alphabet
        self._max_period = max_period
        self._ring = np.full(max_period, -1, dtype=np.int64)
        self._n = 0
        self._counts: dict[int, dict[tuple[int, int], int]] = {}

    def extend_codes(self, codes: np.ndarray) -> None:
        for code in codes:
            self.append_code(int(code))

    def append_code(self, code: int) -> None:
        j = self._n
        window = min(self._max_period, j)
        if window:
            lags = np.arange(1, window + 1)
            slots = (j - lags) % self._max_period
            matching = lags[self._ring[slots] == code]
            for p in matching:
                p = int(p)
                key = (code, (j - p) % p)
                table = self._counts.setdefault(p, {})
                table[key] = table.get(key, 0) + 1
        self._ring[j % self._max_period] = code
        self._n += 1

    def table(self) -> PeriodicityTable:
        return PeriodicityTable(
            self._n, self._alphabet, {p: dict(t) for p, t in self._counts.items()}
        )


class BaselineWindow:
    """The pre-PR per-symbol sliding-window update (add + evict loops)."""

    def __init__(self, alphabet: Alphabet, max_period: int, window: int):
        self._alphabet = alphabet
        self._max_period = max_period
        self._window = window
        self._buffer = np.full(window, -1, dtype=np.int64)
        self._n = 0
        self._counts: dict[int, dict[tuple[int, int], int]] = {}

    def extend_codes(self, codes: np.ndarray) -> None:
        for code in codes:
            self.append_code(int(code))

    def append_code(self, code: int) -> None:
        if self._n >= self._window:
            self._evict(self._n - self._window)
        j = self._n
        start = max(j - self._window, 0)
        reach = min(self._max_period, j - start)
        if reach:
            lags = np.arange(1, reach + 1)
            slots = (j - lags) % self._window
            matching = lags[self._buffer[slots] == code]
            for p in matching:
                p = int(p)
                self._bump(p, code, (j - p) % p, +1)
        self._buffer[j % self._window] = code
        self._n += 1

    def _evict(self, index: int) -> None:
        code = int(self._buffer[index % self._window])
        reach = min(self._max_period, self._n - 1 - index)
        if reach < 1:
            return
        lags = np.arange(1, reach + 1)
        slots = (index + lags) % self._window
        matching = lags[self._buffer[slots] == code]
        for p in matching:
            p = int(p)
            self._bump(p, code, index % p, -1)

    def _bump(self, period: int, code: int, residue: int, delta: int) -> None:
        table = self._counts.setdefault(period, {})
        key = (code, residue)
        value = table.get(key, 0) + delta
        if value:
            table[key] = value
        else:
            table.pop(key, None)

    def table(self) -> PeriodicityTable:
        start = max(self._n - self._window, 0)
        rotated: dict[int, dict[tuple[int, int], int]] = {}
        for p, counts in self._counts.items():
            shift = start % p
            rotated[p] = {
                (code, (residue - shift) % p): value
                for (code, residue), value in counts.items()
            }
        return PeriodicityTable(
            min(self._n, self._window), self._alphabet, rotated
        )


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run(args: argparse.Namespace) -> dict:
    rng = np.random.default_rng(2004)
    codes = rng.integers(0, args.sigma, size=args.n).astype(np.int64)
    alphabet = Alphabet.of_size(args.sigma)
    series = SymbolSequence.from_codes(codes, alphabet)
    spectral = SpectralMiner(max_period=args.max_period)

    # -- correctness gates first ------------------------------------------------
    online = SlidingWindowMiner(alphabet, max_period=args.max_period)
    online.extend_codes(codes)
    batch = spectral.periodicity_table(series)
    if online.table() != batch:
        raise SystemExit("online table != spectral batch table — not timing a bug")

    window_miner = SlidingWindowMiner(
        alphabet, max_period=args.max_period, window=args.window
    )
    window_miner.extend_codes(codes)
    tail = SymbolSequence.from_codes(codes[-args.window :], alphabet)
    if window_miner.table() != spectral.periodicity_table(tail):
        raise SystemExit("window table != batch on window — not timing a bug")

    baseline_online = BaselineOnline(alphabet, args.max_period)
    baseline_online.extend_codes(codes[: min(args.n, 2_000)])
    check = SlidingWindowMiner(alphabet, max_period=args.max_period)
    check.extend_codes(codes[: min(args.n, 2_000)])
    if baseline_online.table() != check.table():
        raise SystemExit("baseline replica drifted from the real miner")

    # -- timings ----------------------------------------------------------------
    configs = [
        (
            "online",
            "per-symbol",
            lambda: BaselineOnline(alphabet, args.max_period).extend_codes(codes),
        ),
        (
            "online",
            "chunked",
            lambda: SlidingWindowMiner(
                alphabet, max_period=args.max_period
            ).extend_codes(codes),
        ),
        (
            "window",
            "per-symbol",
            lambda: BaselineWindow(
                alphabet, args.max_period, args.window
            ).extend_codes(codes),
        ),
        (
            "window",
            "chunked",
            lambda: SlidingWindowMiner(
                alphabet, max_period=args.max_period, window=args.window
            ).extend_codes(codes),
        ),
    ]
    records = []
    for miner, path, fn in configs:
        best = min(timed(fn) for _ in range(args.rounds))
        records.append(
            {
                "miner": miner,
                "path": path,
                "n": args.n,
                "sigma": args.sigma,
                "max_period": args.max_period,
                "window": args.window if miner == "window" else None,
                "seconds": round(best, 4),
                "symbols_per_second": round(args.n / best),
            }
        )
        print(
            f"{miner:>7} {path:>11}  {best:8.3f}s  "
            f"({args.n / best:>12,.0f} sym/s)",
            flush=True,
        )

    by_key = {(r["miner"], r["path"]): r["seconds"] for r in records}
    online_speedup = by_key[("online", "per-symbol")] / by_key[("online", "chunked")]
    window_speedup = by_key[("window", "per-symbol")] / by_key[("window", "chunked")]
    return {
        "bench": "bench_streaming_regress",
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "records": records,
        "speedup_online_chunked_vs_per_symbol": round(online_speedup, 2),
        "speedup_window_chunked_vs_per_symbol": round(window_speedup, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--sigma", type=int, default=8)
    parser.add_argument("--max-period", type=int, default=128)
    parser.add_argument("--window", type=int, default=2_048)
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per config (best is kept)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_PR3.json"))
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run (n=4k, max_period=64)")
    args = parser.parse_args(argv)
    if args.quick:
        args.n, args.max_period, args.window, args.rounds = 4_000, 64, 512, 1

    payload = run(args)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    summary = (
        f"n={args.n} sigma={args.sigma} max_period={args.max_period} "
        f"window={args.window}: chunked online is "
        f"{payload['speedup_online_chunked_vs_per_symbol']}x per-symbol, "
        f"chunked window is "
        f"{payload['speedup_window_chunked_vs_per_symbol']}x per-symbol"
    )
    record("bench_streaming_regress", summary)
    print(f"\n{summary}\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
