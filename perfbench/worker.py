"""One benchmark process: either writes a workload's inputs or runs one pass.

    python3 perfbench/worker.py setup <work dir> <command> <subdivision> <seed>
    python3 perfbench/worker.py pass <work dir> <trace 0|1>

The runner starts a fresh worker for every set-up and every pass, with
PYTHONPATH pointing at the checkout's `src`, so peak RSS and the lazily
cached `Mesh` properties never carry over from one pass to the next.
`setup` writes `inputs.json`; `pass` reads it, runs the CLI command in
process and writes `pass.json`.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_umbilic():
    import umbilic

    where = Path(umbilic.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"umbilic imported from {where}, not from {ROOT / 'src'}")


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "UMBILIC_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in threads},
    }


def setup(work: Path, command: str, subdivision: int, seed: int) -> None:
    _import_umbilic()
    inputs = workloads.make_inputs(workloads.Workload(command, subdivision), seed, work)
    inputs["env"] = _environment()
    (work / "inputs.json").write_text(json.dumps(inputs))


def run_pass(work: Path, trace: bool) -> None:
    _import_umbilic()
    from umbilic import cli

    argv = json.loads((work / "inputs.json").read_text())["argv"]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"rc": None, "error": None}
    t0 = time.perf_counter()
    try:
        result["rc"] = cli.main(argv)
    except Exception as exc:  # a crash is a failed pass, reported to the runner
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.dump()
    (work / "pass.json").write_text(json.dumps(result))


def main(argv: list[str]) -> None:
    mode, work = argv[0], Path(argv[1])
    if mode == "setup":
        setup(work, argv[2], int(argv[3]), int(argv[4]))
    elif mode == "pass":
        run_pass(work, argv[2] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
