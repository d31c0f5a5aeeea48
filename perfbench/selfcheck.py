"""Self-check of the benchmark at small subdivisions (about half a minute).

    python3 perfbench/selfcheck.py

Runs each workload's command at subdivision 3 through `run.main`, untraced
once and traced twice, and checks that:
  * the last line has exactly the contract keys, and the metrics are exactly
    the ones BENCHMARK.json names, with its units (end-to-end ones non-zero);
  * the traced counts repeat exactly between two runs of the same seed;
  * layers a workload never calls read zero (spectral on analyze, surfgen
    everywhere but sweep), and the ones it does call do not;
  * a deliberately corrupted reference makes every pass fail and the run
    exit with code 1.
Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run
import workloads
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    "verify_s3": Workload("verify", 3),
    "analyze_s3": Workload("analyze", 3),
    "sweep_l2_s3": Workload("sweep", 3),
}
CORRUPT = {
    "verify": ("lambda1", lambda v: v * (1 + 1e-6)),
    "analyze": ("H_sup", lambda v: v * (1 + 1e-6)),
    "sweep": ("fit_slope", lambda v: v + 0.2),
}
SEED = 7


def _run(name: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
        )
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def _check_metrics(name, result, declared, nonzero):
    _expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{name}: result keys {sorted(result)}",
    )
    got = {m: e["unit"] for m, e in result["metrics"].items()}
    _expect(got == declared, f"{name}: metrics and units match BENCHMARK.json")
    if nonzero:
        _expect(
            all(e["value"] > 0 for e in result["metrics"].values()),
            f"{name}: every end-to-end metric is non-zero",
        )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads.WORKLOADS.update(SMALL)
    counts = [m for m, unit in per_layer.items() if unit == "count"]

    for name, workload in SMALL.items():
        code, result = _run(name, 0)
        _expect(code == 0 and result["correct"] and result["failed"] == 0,
                f"{name}: untraced run passes its checks")
        _check_metrics(name, result, end_to_end, nonzero=True)

        code, first = _run(name, 1)
        _, second = _run(name, 1)
        _expect(code == 0 and first["correct"], f"{name}: traced run passes its checks")
        _check_metrics(name, first, per_layer, nonzero=False)
        layer = {m: e["value"] for m, e in first["metrics"].items()}
        again = {m: e["value"] for m, e in second["metrics"].items()}
        _expect(all(layer[m] == again[m] for m in counts),
                f"{name}: counts repeat exactly between runs")
        spectral = [m for m in layer if m.startswith("spectral.")]
        surfgen = [m for m in layer if m.startswith("surfgen.")]
        if workload.command == "analyze":
            _expect(all(layer[m] == 0 for m in spectral), f"{name}: spectral reads zero")
        else:
            timed = [m for m in spectral if m.endswith(("_s", "_calls"))]
            _expect(all(layer[m] > 0 for m in timed), f"{name}: spectral is measured")
        if workload.command == "sweep":
            _expect(all(layer[m] > 0 for m in surfgen), f"{name}: surfgen is measured")
            _expect(layer["pinching.ratio_evals"] > 0, f"{name}: ratio evaluations counted")
        else:
            _expect(all(layer[m] == 0 for m in surfgen), f"{name}: surfgen reads zero")

        key, corrupt = CORRUPT[workload.command]
        ref = workloads.REFERENCES[(workload.command, workload.subdivision)]
        good = ref[key]
        ref[key] = corrupt(good)
        try:
            code, result = _run(name, 0)
        finally:
            ref[key] = good
        _expect(
            code == 1 and not result["correct"] and result["failed"] == result["attempted"],
            f"{name}: a corrupted reference ({key}) fails the gate",
        )
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
