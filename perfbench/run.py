"""Repository benchmark: ``mine()``, ``repro mine`` and ``repro stream``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uniform_counts --seed 1 --seconds 25 --trace 0

``--trace 0`` times every operation end to end with tracing off;
``--trace 1`` re-runs the workload with a span around each layer call
and reports per-layer self times.  Either way the run first sets up its
inputs (several times; the median is ``setup_s``) and passes the output
gate.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's base record (versions, CPU count, seed, sizes,
exact counts, sample counts).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from launch import Launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} holds no src/repro package or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    # started first, while this process is small: see launch.py
    launcher = Launcher(str(ROOT))
    try:
        return run(args, spec, launcher)
    finally:
        launcher.close()


def run(args: argparse.Namespace, spec: dict, launcher: Launcher) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from measure import Bench
    from reference import reference_work, scale
    from workloads import WINDOW, WORKLOADS, set_up

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{work.name}-", dir=OUT))
    try:
        setup_times = []
        setup_scaled = []
        digests = set()
        before = [reference_work() for _ in range(2)]
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = set_up(work.name, args.seed, work_dir)
            setup_times.append(time.perf_counter() - start)
            after = [reference_work() for _ in range(2)]
            setup_scaled.append(setup_times[-1] * scale(before, after))
            before = after
            digests.add(inputs.digest)
        bench = Bench(work, inputs, ROOT, launcher)
        problems = bench.gate()
        if len(digests) != 1:
            problems.append("set-up is not deterministic for one seed")
        base = {
            "workload": work.name, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "n_batch": int(inputs.batch_codes.size),
            "n_stream": int(inputs.stream_codes.size), "sigma": len(inputs.alphabet),
            "params": vars(work), "window": WINDOW, "codes_digest": inputs.digest,
            "counts": bench.counts, "setup_raw_s": statistics.median(setup_times),
        }
        values: dict[str, float] = {"setup_s": statistics.median(setup_scaled)}
        section = "per_layer" if args.trace else "end_to_end"
        if problems:
            pass  # the gate failed: time nothing
        elif args.trace:
            layers, detail, spans = bench.run_traced(args.seconds)
            values.update(layers)
            base.update(detail)
            trace_file = OUT / f"trace-{work.name}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(spans))
        else:
            bench.run_rounds(args.seconds)
            e2e, detail = bench.end_to_end()
            values.update(e2e)
            base.update(detail)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems += bench.problems
    base["problems"] = problems[:20]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec[section] if m["name"] in values
    }
    result = {
        "correct": not problems,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed + (1 if problems and not bench.failed else 0),
        "metrics": metrics,
    }
    with open(OUT / "results.jsonl", "a") as log:
        log.write(json.dumps({"base": base, "result": result}) + "\n")
    print(json.dumps({"base": base}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
