"""Run-to-run spread of every end-to-end metric across seeds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workloads uniform_counts,eventlog_window --seeds 1-10

Runs ``perfbench/run.py --trace 0`` once per workload and seed, one run
at a time, and prints for each metric the median and the spread: the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), beside the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is flagged.  The
raw values go to ``perfbench/out/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_from(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds_from(args.seeds):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: run failed\n{done.stdout}{done.stderr}")
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            with open(HERE / "out" / "steadiness.jsonl", "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "seconds": seconds, "result": result}) + "\n")
        print(f"{workload}: {len(values['setup_s'])} seeds, {seconds} s runs")
        for name, bound in bounds.items():
            share = spread(values[name])
            flag = "" if share <= bound / 3 or name == "setup_s" else "  <-- above bound/3"
            steady &= bool(not flag)
            print(f"  {name:<22} median {statistics.median(values[name]):>14.6g}"
                  f"  spread {share:6.3f}  bound {bound:.2f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
