"""Steadiness check: run one workload N times and report each metric's spread.

Usage (from the repository root)::

    python3 servebench/steady.py --workload serve-distinct --runs 10 [--first-seed 1]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...).
For every end-to-end metric it prints the median of the runs, the
first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread ``(q3 - q1) / median`` and that spread as a share of the metric's
bound in ``BENCHMARK.json``.  A share of 1 or more means the metric is
too unsteady for its bound (``setup_s`` is exempt: only its median is
compared between two sets of runs).  The exit code is 1 when a run
failed, answered wrongly, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    shares, durations, healthy = [], [], True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [
            *spec["command"], "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        began = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        durations.append(time.perf_counter() - began)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        healthy &= result["correct"]
        shares.append(result["failed"] / result["attempted"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {durations[-1]:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}, "
              + ", ".join(f"{name} {values[name][-1]:.4g}" for name in bounds), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, median run {statistics.median(durations):.1f} s, "
          f"failed share {sorted(set(shares))}")
    print("| metric | median | q1 | q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|")
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        middle = statistics.median(series)
        spread = (q3 - q1) / middle
        share = spread / bounds[name]
        if name != "setup_s" and share >= 1:
            healthy = False
        print(f"| {name} | {middle:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | "
              f"{bounds[name]} | {share:.2f} |")
    return 0 if healthy and len(set(shares)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
