#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload paper-pipeline --seeds 1-10 --seconds 10

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, from
the repository root, and prints for each end-to-end metric and for the
machine's ``reference_s`` the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, then the failed and attempted commands over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(columns: dict[str, list[float]]) -> list[tuple[str, float, float, float, float]]:
    rows = []
    for name, values in columns.items():
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        rows.append((name, median, q1, q3, (q3 - q1) / median if median else 0.0))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()

    columns: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *_, machine_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        for name, metric in result["metrics"].items():
            columns.setdefault(name, []).append(metric["value"])
        columns.setdefault("reference_s", []).append(
            json.loads(machine_line)["machine"]["reference_s"])
        failed += result["failed"]
        attempted += result["attempted"]
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}, "
              f"correct {result['correct']}", file=sys.stderr)

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, median, q1, q3, spread in summarise(columns):
        print(f"{name:32} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    print(f"failed / attempted: {failed} / {attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
