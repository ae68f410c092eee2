"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload eager_text_feedback --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's ``src`` directory; without it the
benchmark exits with code 2.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it makes a traced run
and prints the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object.  A
failed check prints ``INCORRECT: ...``, reports ``"correct": false`` with the
operation counts of the rounds completed before it, and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Where runs keep checkpoints and WALs (removed at exit) and span files.
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "point_read_p50_ms": "ms",
    "members_read_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Interval kinds reported as medians and p90s in the human-readable lines.
REPORTED_KINDS = (
    "feedback", "visible", "ryw_read", "point_read", "members_read", "edit", "checkpoint", "recovery",
)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program from it."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        raise SystemExit(2)


def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0


def describe(pooled: dict[str, tuple[list[float], list[float]]]) -> list[str]:
    """Median and p90 per interval kind, calibrated beside raw wall time."""
    from calibrate import percentile

    lines = []
    for kind in REPORTED_KINDS:
        if kind not in pooled:
            continue
        calibrated, raw = pooled[kind]
        tail = ""
        if len(calibrated) >= 40:
            tail = (f" p90 {percentile(calibrated, 0.9) * 1e3:.4f}"
                    f" (raw {percentile(raw, 0.9) * 1e3:.4f})")
        lines.append(f"  {kind:<13} n={len(calibrated):<6} p50 {_ms(calibrated):.4f} ref-ms "
                     f"(raw {_ms(raw):.4f} ms){tail}")
    return lines


def _summary(reports: list[dict]) -> dict:
    """One episode's check reports in one dict; label counts are summed."""
    merged: dict[str, object] = {}
    for report in reports:
        for key, value in report.items():
            merged[key] = merged.get(key, 0) + value if key.startswith("labels_") else value
    return merged


def run_episode(workload_class, seed: int, episode: int, seconds: float, workdir: Path) -> dict:
    """One episode in this process: set up, run, check; returns its intervals and counts."""
    from calibrate import Clock
    from corpus import BenchmarkError
    from workloads import EPISODES, ServedWire, run_loop

    with Clock(workload_class.handoff_kinds) as clock:
        workload = workload_class(f"{seed}.{episode}", workdir)
        workload.build(clock, kind="setup")
        loop = run_loop(workload, clock, seconds / EPISODES)
        try:
            reports = loop["checks"][-1:] + [workload.check(loop["rounds"], final=True)]
            if isinstance(workload, ServedWire):
                reports.append(workload.recover(clock))
        except BenchmarkError as error:
            error.attempted, error.failed = loop["attempted"], loop["failed"]
            raise
        workload.close()
    return {
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "rounds": loop["rounds"],
        "counts": loop["counts"],
        "reports": reports,
        "kernel_median_s": clock.kernel_median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "intervals": {
            kind: [clock.calibrated(kind), clock.raw(kind)]
            for kind in ("setup", *REPORTED_KINDS)
            if clock.count(kind)
        },
    }


def run_untraced(workload_class, seed: int, seconds: float, workdir: Path) -> dict:
    """Each episode in a fresh interpreter, then a replay of the first episode's opening rounds.

    Separate processes average out what one interpreter's thread placement
    and memory layout do to a run, which the kernel cannot see.
    """
    from calibrate import Clock
    from corpus import BenchmarkError
    from workloads import COUNT_ROUNDS, EPISODES, OP_KINDS, ServedWire, run_loop

    episodes = []
    attempted = failed = 0
    for episode in range(EPISODES):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_class.name,
                   "--seed", str(seed), "--seconds", str(seconds), "--episode", str(episode)]
        child = subprocess.run(command, capture_output=True, text=True, check=False,
                               timeout=seconds + 150)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            reason = [line for line in lines if line.startswith("INCORRECT")]
            reason = reason or child.stderr.strip().splitlines()[-1:] or ["no output"]
            error = BenchmarkError(f"episode {episode} exited {child.returncode}: {reason[0]}")
            # A failed episode's last line reports the counts it reached.
            partial = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            error.attempted = attempted + partial.get("attempted", 0)
            error.failed = failed + partial.get("failed", 0)
            raise error
        episodes.append(json.loads(lines[-1]))
        attempted += episodes[-1]["attempted"]
        failed += episodes[-1]["failed"]

    reports = [_summary(result["reports"]) for result in episodes]
    if not issubclass(workload_class, ServedWire):
        with Clock() as clock:
            replay = workload_class(f"{seed}.0", workdir / "replay")
            replay.build(clock)
            replayed = run_loop(replay, clock, 0, rounds=COUNT_ROUNDS, checks=False)
            replay.close()
        if replayed["counts"] != episodes[0]["counts"]:
            error = BenchmarkError(
                f"work counts after {COUNT_ROUNDS} rounds differ between two runs of the "
                f"same inputs: {episodes[0]['counts']} vs {replayed['counts']}"
            )
            error.attempted, error.failed = attempted, failed
            raise error
        reports.append({"work_counts_repeat": replayed["counts"]})

    pooled: dict[str, tuple[list[float], list[float]]] = {}
    for result in episodes:
        for kind, (calibrated, raw) in result["intervals"].items():
            pooled.setdefault(kind, ([], []))
            pooled[kind][0].extend(calibrated)
            pooled[kind][1].extend(raw)
    setups = [sum(result["intervals"]["setup"][0]) for result in episodes]
    raw_setups = [sum(result["intervals"]["setup"][1]) for result in episodes]
    busy = sum(sum(pooled[kind][0]) for kind in OP_KINDS if kind in pooled)
    raw_busy = sum(sum(pooled[kind][1]) for kind in OP_KINDS if kind in pooled)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - failed) / busy,
        "point_read_p50_ms": _ms(pooled["point_read"][0]),
        "members_read_p50_ms": _ms(pooled["members_read"][0]),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in episodes),
    }
    kernel = statistics.median(result["kernel_median_s"] for result in episodes)
    print(f"{workload_class.name} seed={seed}: {EPISODES} episodes, "
          f"{sum(result['rounds'] for result in episodes)} rounds, {attempted} operations "
          f"({failed} failed), kernel median {kernel * 1e6:.1f} us")
    print(f"  ops_per_s     {metrics['ops_per_s']:.1f} per ref-s "
          f"(raw {(attempted - failed) / raw_busy:.1f} per s)")
    print(f"  setup         {metrics['setup_s']:.4f} ref-s (raw {statistics.median(raw_setups):.4f} s)")
    for line in describe(pooled):
        print(line)
    for report in reports:
        print(f"  check         {report}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "units": UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episode", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from corpus import BenchmarkError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload_class = WORKLOADS[args.workload]
    workdir = ROOT / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.episode is not None:
            print(json.dumps(run_episode(workload_class, args.seed, args.episode, args.seconds, workdir)))
            return 0
        if args.trace:
            from trace_layers import run_traced

            result = run_traced(workload_class, args.seed, args.seconds, workdir, ROOT / TRACE_DIR)
        else:
            result = run_untraced(workload_class, args.seed, args.seconds, workdir)
    except BenchmarkError as error:
        print(f"INCORRECT: {error}")
        print(json.dumps(
            {"correct": False, "attempted": error.attempted, "failed": error.failed, "metrics": {}}
        ))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = result["units"]
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
