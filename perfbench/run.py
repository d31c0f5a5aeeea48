"""Benchmark of the `umbilic` CLI: verify, analyze and sweep on generated meshes.

    python3 perfbench/run.py --workload verify_s6 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src`.  A run writes its workload's inputs in fresh processes
(set-up, repeated and timed), then runs one pass after another, each in a
fresh process, until `--seconds` have passed (the pass in progress is
finished).  This is a closed loop with one client.  Every pass is checked
against the references in `workloads.py`.

With `--trace 0` the run reports the end-to-end metrics:
  wall_s       median seconds of one pass, timed after imports
  peak_rss_mb  median peak resident set of the pass process
  setup_s      median seconds to write the inputs and import umbilic
With `--trace 1` every pass runs with the layer wrappers of `tracer.py`
and the run reports the per-layer metrics (medians over passes).

Each metric is printed as "name value unit"; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 1
when any pass failed its checks, 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"

# OpenBLAS at one thread: at verify_s6 its default (2 threads) spread
# 13.3-16.8 s over three processes, one thread 11.1-12.0 s.
PASS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "UMBILIC_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0          # a run must end within 180 s

UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class ProgramMissing(Exception):
    """The checkout has no `umbilic` sources to benchmark."""


def _worker(args: list[str], timeout: float) -> float:
    """Run one worker process to completion; return its wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PASS_ENV)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, timeout=max(timeout, 1.0),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return elapsed


def run(
    name: str,
    workload: workloads.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    references=workloads.REFERENCES,
) -> dict:
    """One benchmark run; returns the result object and its extra details."""
    if not (ROOT / "src" / "umbilic" / "__init__.py").is_file():
        raise ProgramMissing(f"no umbilic sources under {ROOT / 'src'}")
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_args = ["setup", str(work), workload.command, str(workload.subdivision), str(seed)]
        setups = [
            _worker(setup_args, remaining())
            for _ in range(1 if trace else SETUP_REPEATS)
        ]
        inputs = json.loads((work / "inputs.json").read_text())

        passes, failures, longest = [], [], 0.0
        measured = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                _worker(["pass", str(work), "1" if trace else "0"], remaining())
                result = json.loads((work / "pass.json").read_text())
                (work / "pass.json").unlink()
            except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
                result = {"error": str(exc)}
            misses = []
            if result.get("error"):
                misses.append(result["error"])
            elif result["rc"] != 0:
                misses.append(f"exit code {result['rc']}")
            else:
                misses = workloads.check(workload, inputs, work, references)
            result["misses"] = misses
            passes.append(result)
            if misses:
                failures.append(misses)
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - measured >= seconds or remaining() < 1.5 * longest:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    timed = [p for p in passes if "wall_s" in p]
    walls = [p["wall_s"] for p in timed]
    if trace:
        layers = [tracer.layer_metrics(p["trace"], p["wall_s"]) for p in timed]
        units = tracer.metric_units()
        metrics = {
            m: statistics.median(layer[m] for layer in layers) if layers else 0.0
            for m in units
        }
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed) if timed else 0.0,
            "setup_s": statistics.median(setups),
        }
        units = UNITS
    return {
        "correct": not failures,
        "attempted": len(passes),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "details": {
            "wall_s_all": walls,
            "misses": failures,
            "unwrapped": sorted({m for p in timed for m in p.get("trace", {}).get("missing", [])}),
            "env": inputs["env"],
        },
    }


def _exit_on_sigterm(signum, frame):
    # unwinds through subprocess.run, which kills the running worker, and
    # through run()'s cleanup of the work directory
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result = run(
            args.workload, workloads.WORKLOADS[args.workload], args.seed,
            args.seconds, bool(args.trace),
        )
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    details = result.pop("details")
    walls = details["wall_s_all"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(details['env'], sort_keys=True)}")
    for misses in details["misses"]:
        print(f"# failed pass: {'; '.join(misses)}", file=sys.stderr)
    for path in details["unwrapped"]:
        print(f"# {path} not found; its metric reads 0", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(f"failed_ratio {result['failed'] / result['attempted']!r} ratio")
    print(f"passes {len(walls)} count")
    if walls:
        # with fewer than 11 passes no percentile above the median has ten
        # samples beyond it, so the maximum is printed for information only
        print(f"{'traced.' if args.trace else ''}wall_s_max {max(walls)!r} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
