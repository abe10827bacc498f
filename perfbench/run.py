#!/usr/bin/env python3
"""Benchmark of the s2alloc allocator and its attack game.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload (heap-grow, heap-churn, uaf-game; all three when
--workload is not given) in a fresh single-threaded process of its own,
prints every metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` for a single workload, or
a map from workload to that object for all of them. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a traced run
and the tracing overhead. The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("heap-grow", "heap-churn", "uaf-game")
CHILD_TIMEOUT_S = 170


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Run one workload in a child process; return its result, or None if it crashed."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    log = out_dir / f"{name}-trace{trace}.stderr"
    with open(log, "w") as err:
        spawned_at = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE, stderr=err, env=env, text=True)
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = log.read_text().strip().splitlines()[-15:]
        print(f"{name}: exited with {child.returncode} and no result; end of {log}:",
              *tail, sep="\n", file=sys.stderr)
        return None


def show(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:34s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        show(name, result)
        results[name] = result
    print(json.dumps(results[names[0]] if args.workload else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
