"""Workload inputs, the command each pass runs, and the output checks.

Every input is the paper's test family: a sphere of radius 1 perturbed by
delta * Y_2^0 with delta = 0.01, meshed on the icosphere.  The seed moves
the inputs without changing their size: mesh files get a seeded rigid
motion (a proper rotation and a translation), and the sweep gets a seeded
+-5% jitter of its epsilon grid.  The references below are invariants that
hold for every seed (lambda1, the curvature norms, area and volume do not
change under a rigid motion; every sweep row stays contained and the fitted
exponent stays near 2 + alpha), so a claim can be rechecked on a seed that
was never used while it was written.

`make_inputs` runs in the set-up process and needs numpy and `umbilic`;
`check` runs in the runner and reads only the files a pass wrote.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    command: str          # "verify", "analyze" or "sweep"
    subdivision: int


WORKLOADS = {
    "verify_s6": Workload("verify", 6),
    "analyze_s7": Workload("analyze", 7),
    "sweep_l2_s5": Workload("sweep", 5),
}

ALPHA = 0.5
VERIFY_EPSILON = 0.2
VERIFY_TOL = 1e-8               # the CLI default of `verify --tol`
SWEEP_EPS = (0.4, 0.2, 0.1)
SWEEP_JITTER = 0.05
MAX_TRANSLATION = 1.0

# lambda1 and the analyze norms were measured on the seed code (seed 1).
# Their tolerance sits far above the spread rigid motions cause (rounding
# only: at most 2e-12 relative over the seeds tried) and far below any real
# change, since delta moves these values by more than 1e-3 relative.  The
# sweep's reference is the paper's exponent 2 + alpha; the seed code fits
# 2.503-2.513 over jittered grids.
LAMBDA1_RTOL = 1e-9
NORM_RTOL = 1e-9
BARYCENTER_ATOL = 1e-9
SLOPE_ATOL = 0.05               # around the paper's exponent 2 + alpha
RATIO_RTOL = 0.01               # the amplitude search's own acceptance band

REFERENCES = {
    ("verify", 6): {"lambda1": 1.989824806613754},
    ("verify", 3): {"lambda1": 1.9899862623901916},
    ("analyze", 7): {
        "area": 12.566535693043468,
        "enclosed_volume": 4.188748621742363,
        "A_traceless_L2": 0.0346145002250823,
        "A_traceless_sup": 0.013468174600197896,
        "H_integral": 12.566436090736566,
        "H_min": 0.9936418797919382,
        "H_sup": 1.0124187005323655,
        "kappa1_min": 0.9841187326148931,
    },
    ("analyze", 3): {
        "area": 12.506883456688268,
        "enclosed_volume": 4.152836617072808,
        "A_traceless_L2": 0.03592910620913682,
        "A_traceless_sup": 0.014050809291052097,
        "H_integral": 12.50035632470874,
        "H_min": 0.9930070080753248,
        "H_sup": 1.0118208793940295,
        "kappa1_min": 0.9830991582253714,
    },
    ("sweep", 5): {"fit_slope": 2.0 + ALPHA},
    ("sweep", 3): {"fit_slope": 2.0 + ALPHA},
}


# -- set-up (fresh process, imports umbilic) -----------------------------------


def _rigid_motion(rng):
    import numpy as np

    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-MAX_TRANSLATION, MAX_TRANSLATION, 3)


def make_inputs(workload: Workload, seed: int, work: Path) -> dict:
    """Write the inputs of one workload under `work`.

    Returns the CLI argv a pass runs and what `check` needs to know about
    the inputs.
    """
    import numpy as np
    import umbilic

    rng = np.random.default_rng(seed)
    if workload.command == "sweep":
        eps = [e * (1.0 + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)) for e in SWEEP_EPS]
        argv = [
            "sweep", "--family", "l2", "--alpha", repr(ALPHA),
            "--eps", ",".join(repr(e) for e in eps),
            "--subdiv", str(workload.subdivision), "--out", str(work / "sweep.csv"),
        ]
        return {"argv": argv, "eps": eps}

    mesh = umbilic.generate(umbilic.PerturbedSphere(1.0, 0.01, 2, 0), workload.subdivision)
    rotation, translation = _rigid_motion(rng)
    moved = umbilic.Mesh(mesh.vertices @ rotation.T + translation, mesh.faces)
    path = work / "input.off"
    umbilic.save_mesh(moved, path)
    if workload.command == "verify":
        argv = [
            "verify", "--mesh", str(path), "--epsilon", repr(VERIFY_EPSILON),
            "--alpha", repr(ALPHA), "--tol", repr(VERIFY_TOL),
            "--out", str(work / "report.json"),
        ]
    else:
        argv = [
            "analyze", "--mesh", str(path), "--out", str(work / "table.csv"),
            "--json-out", str(work / "summary.json"),
        ]
    return {
        "argv": argv,
        "vertices": moved.n_vertices,
        "faces": moved.n_faces,
        "translation": translation.tolist(),
    }


# -- checks (runner process, reads outputs only) --------------------------------


def _rel_miss(name, got, want, rtol):
    if got is None or not math.isclose(got, want, rel_tol=rtol, abs_tol=0.0):
        return [f"{name} = {got!r}, reference {want!r} (rtol {rtol:g})"]
    return []


def _check_verify(inputs, work, ref):
    doc = json.loads((work / "report.json").read_text())
    rep = doc["report"]
    misses = _rel_miss("lambda1", rep["lambda1"], ref["lambda1"], LAMBDA1_RTOL)
    residual = rep["lambda1_residual"]
    if residual is None or not residual <= VERIFY_TOL:
        misses.append(f"lambda1_residual = {residual!r} > tol {VERIFY_TOL:g}")
    if rep["failure"] is not None:
        misses.append(f"failure = {rep['failure']!r}")
    if not (rep["annulus"] or {}).get("contained"):
        misses.append("annulus not contained")
    if rep["strictly_convex"] is not True:
        misses.append("not strictly convex")
    if rep["trace"] is None:
        misses.append("proof trace missing")
    return misses


def _check_analyze(inputs, work, ref):
    doc = json.loads((work / "summary.json").read_text())
    misses = []
    mesh = doc["mesh"]
    for key in ("vertices", "faces"):
        if mesh[key] != inputs[key]:
            misses.append(f"mesh.{key} = {mesh[key]!r}, expected {inputs[key]!r}")
    if mesh["euler_characteristic"] != 2:
        misses.append(f"euler_characteristic = {mesh['euler_characteristic']!r}")
    for key in ("area", "enclosed_volume"):
        misses += _rel_miss(key, mesh[key], ref[key], NORM_RTOL)
    for got, want in zip(mesh["barycenter"], inputs["translation"]):
        if not abs(got - want) <= BARYCENTER_ATOL:
            misses.append(f"barycenter {mesh['barycenter']!r}, expected {inputs['translation']!r}")
            break
    for key, want in ref.items():
        if key not in ("area", "enclosed_volume"):
            misses += _rel_miss(key, doc["norms"][key], want, NORM_RTOL)
    with open(work / "table.csv", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        widths = set()
        rows = 0
        for row in reader:
            widths.add(len(row))
            rows += 1
    if rows != inputs["vertices"] or widths != {len(header)}:
        misses.append(
            f"table.csv has {rows} rows of widths {sorted(widths)}, "
            f"expected {inputs['vertices']} rows of {len(header)}"
        )
    return misses


def _check_sweep(inputs, work, ref):
    with open(work / "sweep.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    data = [r for r in rows if not r["epsilon"].startswith("fit_")]
    misses = []
    if [float(r["epsilon"]) for r in data] != inputs["eps"]:
        misses.append(f"sweep rows {[r['epsilon'] for r in data]}, expected {inputs['eps']}")
    for r in data:
        eps = float(r["epsilon"])
        target = eps ** (2.0 + ALPHA)
        if not abs(float(r["achieved_ratio"]) - target) <= RATIO_RTOL * target:
            misses.append(f"eps {eps!r}: achieved ratio {r['achieved_ratio']} vs target {target!r}")
        if r["contained"] != "True":
            misses.append(f"eps {eps!r}: contained = {r['contained']!r}")
    # the trailing fit rows carry their value in the second ("delta") column
    slope = next((float(r["delta"]) for r in rows if r["epsilon"] == "fit_slope"), None)
    if slope is None or not abs(slope - ref["fit_slope"]) <= SLOPE_ATOL:
        misses.append(f"fit_slope = {slope!r}, expected {ref['fit_slope']} +- {SLOPE_ATOL}")
    return misses


_CHECKS = {"verify": _check_verify, "analyze": _check_analyze, "sweep": _check_sweep}


def check(workload: Workload, inputs: dict, work: Path, references=REFERENCES) -> list[str]:
    """Reference misses of the outputs one pass left in `work` (empty: pass)."""
    ref = references[(workload.command, workload.subdivision)]
    try:
        return _CHECKS[workload.command](inputs, work, ref)
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
