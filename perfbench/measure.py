"""Timed operations, the closed-loop rounds that run them, and the
traced re-run that splits them by layer.

Load comes from this one process, with no worker threads.  Every caller
is a closed loop: the next call starts only after the previous one
returns, and CLI calls are sequential subprocesses on the symbol files
written during set-up.  No operation selects ``engine="parallel"``.
"""

from __future__ import annotations

import gc
import io
import os
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import redirect_stdout
from pathlib import Path
from typing import Any

from repro import mine
from repro.cli import main as cli_main
from repro.core import MiningResult, SymbolSequence
from repro.core.periodicity import dense_size
from repro.streaming import SlidingWindowMiner

from launch import Launcher
from reference import reference_work, scale
from gate import check_batch, check_stream, stream_checkpoints
from spans import Tracer, instrumented
from workloads import WINDOW, Inputs, Workload, alphabet_spec

#: patterns / periodicities the CLI prints (its ``--top``).
CLI_TOP = 20

#: metrics timed over a whole operation, scaled by the reference work
#: run just before and after it (the stream pass scales per chunk)
WHOLE_OPERATIONS = ("mine_s", "mine_exact_s", "cli_mine_s", "cli_stream_s")


def table_cells(result: MiningResult) -> int:
    """Non-zero cells of a mined table."""
    return sum(len(result.table.counts_for(p)) for p in result.table.periods)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Bench:
    """One workload's operations, their output checks and samples."""

    def __init__(self, work: Workload, inputs: Inputs, root: Path, launcher: Launcher) -> None:
        self.work = work
        self.launcher = launcher
        self.inputs = inputs
        self.batch = SymbolSequence(inputs.batch_codes, inputs.alphabet)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: raw wall-clock samples, and the same samples scaled to nominal
        #: machine speed (reference.py)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = {}
        self._expected: dict[str, Any] = {}
        self._snapshot_counts: list[int] | None = None
        self._cells_checked = False
        spec = alphabet_spec(inputs.alphabet)
        self._cli_mine = [
            "mine", str(inputs.batch_file), "--psi", str(work.psi),
            "--alphabet", spec, "--max-period", str(work.max_period),
            "--top", str(CLI_TOP),
        ] + ([] if work.max_arity is None else ["--max-arity", str(work.max_arity)])
        self._cli_stream = [
            "stream", str(inputs.stream_file), "--psi", str(work.psi),
            "--max-period", str(work.stream_max_period),
            "--window", str(WINDOW), "--top", str(CLI_TOP),
        ]
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    # -- gate ----------------------------------------------------------------

    def _mine(self, algorithm: str = "spectral") -> MiningResult:
        work = self.work
        return mine(self.batch, work.psi, algorithm=algorithm,  # type: ignore[arg-type]
                    max_period=work.max_period, max_arity=work.max_arity)

    def gate(self) -> list[str]:
        """Run the output gate; record expected outputs and base counts."""
        spectral = self._mine()
        exact = self._mine("convolution")
        problems = check_batch(self.work, self.batch, spectral, exact)
        stream = SymbolSequence(self.inputs.stream_codes, self.inputs.alphabet)
        stream_problems, final_hits = check_stream(self.work, stream)
        problems += stream_problems
        cells = table_cells(spectral)
        self._expected = {
            "periodicities": spectral.periodicities,
            "patterns": len(spectral.patterns),
            "render": spectral.render(limit=CLI_TOP),
            "final_hits": final_hits,
            "cells": cells,
        }
        self.counts = {
            "table.cells": cells,
            "table.periodicities": len(spectral.periodicities),
            "table.useful_ratio": len(spectral.periodicities) / max(cells, 1),
            "candidates.periods": len(spectral.candidate_periods),
            "candidates.patterns_emitted": len(spectral.patterns),
            "store.counters": dense_size(
                self.batch.sigma, self.work.stream_max_period
            ),
            "stream.final_periodicities": final_hits,
        }
        return problems

    # -- operations ------------------------------------------------------------

    def _attempt(self, name: str, operation: Callable[[], bool]) -> None:
        """Run one operation; a raise or a failed output check is a failure."""
        self.attempted += 1
        try:
            ok = operation()
            reason = "output failed its check"
        except Exception as error:  # the benchmark must keep running
            ok = False
            reason = f"raised {error!r}"
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {reason}")

    def _checked_mine(self, algorithm: str, metric: str) -> bool:
        start = time.perf_counter()
        result = self._mine(algorithm)
        self.samples[metric].append(time.perf_counter() - start)
        expected = self._expected
        ok = (result.periodicities == expected["periodicities"]
              and len(result.patterns) == expected["patterns"])
        if ok and not self._cells_checked:
            # determinism self-test: a re-mine gives the gate's cell count
            ok = self._cells_checked = table_cells(result) == expected["cells"]
        return ok

    def _run_cli(self, args: list[str], metric: str) -> tuple[int, str]:
        output = self.inputs.batch_file.parent / "cli.out"
        reply = self.launcher.run([sys.executable, "-m", "repro", *args],
                                  self._env, str(output))
        self.samples[metric].append(reply["elapsed_s"])
        self.samples[f"{metric}.rss_mb"].append(reply["peak_rss_kib"] * 1024 / 1e6)
        return reply["code"], output.read_text(errors="replace")

    def _mine_output_ok(self, code: int, output: str) -> bool:
        header = f"series: n={self.batch.length}, sigma={self.batch.sigma}"
        return code == 0 and header in output and self._expected["render"] in output

    def _stream_output_ok(self, code: int, output: str) -> bool:
        return (code == 0
                and f"streamed {self.inputs.stream_codes.size} symbols" in output
                and f"periodicities at psi={self.work.psi:.2f}: "
                    f"{self._expected['final_hits']}" in output)

    def _stream_pass(self) -> bool:
        """Feed the stream in chunks, taking a snapshot after each chunk."""
        work = self.work
        codes = self.inputs.stream_codes
        miner = SlidingWindowMiner(self.inputs.alphabet,
                                   max_period=work.stream_max_period,
                                   window=WINDOW)
        counts = []
        start = 0
        ingest = ingest_scaled = 0.0
        before = self._reference(1)
        for end in stream_checkpoints(work, codes.size):
            t0 = time.perf_counter()
            miner.extend_codes(codes[start:end])
            t1 = time.perf_counter()
            hits = miner.periodicities(work.psi)
            t2 = time.perf_counter()
            after = self._reference(1)
            factor = scale(before, after)
            ingest += t1 - t0
            ingest_scaled += (t1 - t0) * factor
            self.samples["snapshot_s"].append(t2 - t1)
            self.scaled["snapshot_s"].append((t2 - t1) * factor)
            before = after
            counts.append(len(hits))
            start = end
        self.samples["ingest_rate"].append(codes.size / ingest)
        self.scaled["ingest_rate"].append(codes.size / ingest_scaled)
        if self._snapshot_counts is None:
            self._snapshot_counts = counts
        return counts[-1] == self._expected["final_hits"] and counts == self._snapshot_counts

    def _reference(self, count: int) -> list[float]:
        times = [reference_work() for _ in range(count)]
        self.samples["reference_s"].extend(times)
        return times

    def operations(self) -> dict[str, Callable[[], bool]]:
        return {
            "mine": lambda: self._checked_mine("spectral", "mine_s"),
            "mine_exact": lambda: self._checked_mine("convolution", "mine_exact_s"),
            "cli_mine": lambda: self._mine_output_ok(
                *self._run_cli(self._cli_mine, "cli_mine_s")),
            "cli_stream": lambda: self._stream_output_ok(
                *self._run_cli(self._cli_stream, "cli_stream_s")),
            "stream": self._stream_pass,
        }

    # -- untraced run ----------------------------------------------------------

    def run_rounds(self, seconds: float) -> None:
        """Closed-loop rounds of every operation until ``seconds`` elapse.

        The first round always runs whole; after it, an operation starts
        only if its last duration still fits before the deadline, and one
        shorter than half a second runs two or three times in a round.
        """
        operations = self.operations()
        deadline = time.perf_counter() + seconds
        last: dict[str, float] = {}
        references = [self._reference(4)]
        produced: list[dict[str, tuple[int, int]]] = []
        while True:
            ran = False
            for name, operation in operations.items():
                # short operations repeat, so each gets about a second a round
                repeats = min(3, max(1, round(1.0 / last[name]))) if name in last else 1
                for _ in range(repeats):
                    gc.collect()
                    start = time.perf_counter()
                    if name in last and start + last[name] > deadline:
                        break
                    counts = {metric: len(self.samples[metric]) for metric in WHOLE_OPERATIONS}
                    self._attempt(name, operation)
                    last[name] = time.perf_counter() - start
                    produced.append({metric: (count, len(self.samples[metric]))
                                     for metric, count in counts.items()})
                    references.append(self._reference(4))
                    ran = True
            if not ran:
                break
        # scale each operation by the reference work around it: the runs
        # after the operation before it, after it, and after the next one
        for i, ranges in enumerate(produced):
            factor = scale(references[i] + references[i + 1],
                           references[i + 2] if i + 2 < len(references) else [])
            for metric, (first, end) in ranges.items():
                self.scaled[metric].extend(x * factor for x in self.samples[metric][first:end])

    def end_to_end(self) -> tuple[dict[str, float], dict[str, Any]]:
        """End-to-end metric values, and the sample counts behind them."""
        median = statistics.median

        def values(s: dict[str, list[float]]) -> dict[str, float]:
            return {
                "mine_s": median(s["mine_s"]),
                "mine_exact_s": median(s["mine_exact_s"]),
                "cli_mine_s": median(s["cli_mine_s"]),
                "cli_stream_s": median(s["cli_stream_s"]),
                "ingest_symbols_per_s": median(s["ingest_rate"]),
                "snapshot_s": median(s["snapshot_s"]),
                "snapshot_tail_s": tail(s["snapshot_s"])[0],
            }

        rss = self.samples
        result = values(self.scaled)
        result["cli_peak_rss_mb"] = max(median(rss["cli_mine_s.rss_mb"]),
                                        median(rss["cli_stream_s.rss_mb"]))
        detail = {
            "raw": values(self.samples),
            "reference_s": median(self.samples["reference_s"]),
            "samples": {name: len(v) for name, v in self.samples.items()},
            "snapshot_tail_percentile": tail(self.samples["snapshot_s"])[1],
            "cli_mine_rss_mb": median(rss["cli_mine_s.rss_mb"]),
            "cli_stream_rss_mb": median(rss["cli_stream_s.rss_mb"]),
        }
        return result, detail

    # -- traced run --------------------------------------------------------------

    def _traced_repetition(self, tracer: Tracer) -> None:
        with tracer.span("op.mine"):
            self._attempt("traced mine", lambda: self._checked_mine("spectral", "traced.mine_s"))
        with tracer.span("op.mine_exact"):
            self._attempt("traced mine_exact",
                          lambda: self._checked_mine("convolution", "traced.mine_exact_s"))
        with tracer.span("op.cli_mine"):
            self._attempt("traced cli_mine", self._cli_in_process)
        with tracer.span("op.stream"):
            self._attempt("traced stream", self._stream_pass)

    def _cli_in_process(self) -> bool:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(self._cli_mine)
        return self._mine_output_ok(code, buffer.getvalue())

    def run_traced(self, seconds: float) -> tuple[dict[str, float], dict[str, Any], list]:
        """Untraced and traced repetitions until ``seconds`` elapse.

        Each repetition times one untraced ``mine()``, then re-runs the
        workload's operations with every layer call wrapped in a span.
        Returns per-layer metrics (medians over repetitions), detail for
        the base record, and every span recorded.
        """
        deadline = time.perf_counter() + seconds
        repetitions: list[dict[str, float]] = []
        spans: list[dict[str, Any]] = []
        missing: list[str] = []
        last = 0.0
        while not repetitions or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            self._attempt("mine", lambda: self._checked_mine("spectral", "mine_s"))
            tracer = Tracer()
            with instrumented(tracer) as missing:
                self._traced_repetition(tracer)
            repetitions.append(layer_metrics(tracer))
            spans.extend(tracer.as_json())
            last = time.perf_counter() - start
        metrics = {name: statistics.median(r[name] for r in repetitions)
                   for name in repetitions[0]}
        untraced = statistics.median(self.samples["mine_s"])
        metrics["trace.untraced_mine_s"] = untraced
        metrics["trace.overhead_s"] = metrics["trace.mine_s"] - untraced
        metrics.update(self.counts)
        shares = {
            name[: -len("_s")]: metrics[name] / metrics["trace.mine_s"]
            for name in ("spectral.match_counts_s", "spectral.periodicity_table_s",
                         "candidates.mine_patterns_s")
        }
        shares["table.periodicities"] = (
            metrics["table.periodicities_s"] * metrics["table.scans"] / metrics["trace.mine_s"]
        )
        detail = {"repetitions": len(repetitions), "untraced_layers": missing,
                  "mine_shares": shares}
        return metrics, detail, spans


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times of one traced repetition."""
    spans = tracer.spans
    own = tracer.self_times()
    roots = {s.name: i for i, s in enumerate(spans) if s.parent is None}

    def total(op: str, name: str) -> float:
        root = roots[op]
        return sum(own[i] for i, s in enumerate(spans) if s.root == root and s.name == name)

    def named(op: str, name: str) -> list[int]:
        root = roots[op]
        return [i for i, s in enumerate(spans) if s.root == root and s.name == name]

    def duration(i: int) -> float:
        return spans[i].end - spans[i].start

    scans = [own[i] for i in named("op.mine", "table.periodicities")]
    snapshot_tables = [duration(i) for i in named("op.stream", "window.table")]
    queries = [
        duration(i) - sum(duration(c) for c, s in enumerate(spans)
                          if s.parent == i and s.name == "window.table")
        for i in named("op.stream", "window.periodicities")
    ]
    median = statistics.median
    return {
        "spectral.match_counts_s": total("op.mine", "spectral.match_counts"),
        "spectral.periodicity_table_s": total("op.mine", "spectral.periodicity_table"),
        "mapping.binary_vector_bits_s": total("op.mine_exact", "mapping.binary_vector_bits"),
        "convolution.periodicity_table_s": total("op.mine_exact", "convolution.periodicity_table"),
        "table.periodicities_s": median(scans) if scans else 0.0,
        "table.scans": float(len(scans)),
        "candidates.mine_patterns_s": total("op.mine", "candidates.mine_patterns"),
        "sequence.from_string_s": total("op.cli_mine", "sequence.from_string"),
        "results.render_s": total("op.cli_mine", "results.render"),
        "window.extend_codes_s": total("op.stream", "window.extend_codes"),
        "window.table_s": median(snapshot_tables) if snapshot_tables else 0.0,
        "window.periodicities_s": median(queries) if queries else 0.0,
        "trace.mine_s": duration(roots["op.mine"]),
    }
