#!/usr/bin/env python3
"""Run every workload in a fresh process and print all metrics as a table.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace 1]

Prints each end-to-end metric with its unit, the request count behind it
and error_rate = failed / attempted. With --trace 1 it also runs each
workload traced and prints the per-layer metrics, including the tracing
overhead (traced minus untraced requests_per_s). Exits non-zero if any
run fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}")
    comments = [line for line in lines if line.startswith("#")]
    return dict(json.loads(lines[-1]), comments=comments)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    all_correct = True
    for trace in sorted({0, args.trace}):
        for workload in workloads.WORKLOADS:
            result = run_one(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            for comment in result["comments"]:
                print(comment)
            requests = result["attempted"] - result["failed"]
            for name, metric in result["metrics"].items():
                print(
                    f"{workload:<20} {name:<44} {metric['value']:>14.6g} "
                    f"{metric['unit']:<6} n={requests}"
                )
            rate = result["failed"] / result["attempted"]
            print(
                f"{workload:<20} {'error_rate':<44} {rate:>14.6g} {'ratio':<6} "
                f"{result['failed']}/{result['attempted']} failed, correct={result['correct']}"
            )
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
