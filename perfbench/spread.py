"""Re-run every workload with seeds 1-10 and print each metric's spread against its bound.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py

For each workload and end-to-end metric it prints the median over the runs
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), beside the bound
BENCHMARK.json gives the metric, and the failed share of operations in every
run.  A spread is ``ok`` below a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, distance between the first and third quartile as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run_once(spec["command"], workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: correct={correct} failed shares={shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, spread = quartile_spread(values)
            worst = max(worst, spread / bound)
            verdict = "ok" if spread < bound / 3 else "WIDE"
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:<24} median {median:12.5g} {unit:<4} spread {spread:6.3f}"
                  f"  bound {bound:.2f} {verdict}")
            print("      runs: " + " ".join(f"{value:.4g}" for value in values))
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
