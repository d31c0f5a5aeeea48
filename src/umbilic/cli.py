"""Command-line interface: generate, analyze, verify, sweep, converge.

Each output has one format: the `verify` report and the `analyze` summary
are JSON (schema "umbilic/1"); the `analyze` table and the `sweep` and
`converge` tables are CSV.  JSON payloads are deterministic: keys sorted,
floats via repr, and the timestamp confined to the "meta" block so
identical runs are byte-identical outside it.  Every report embeds the
constants block in effect.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import diffgeo, fields, pinching, spectral, surfgen
from .mesh import Mesh, load_mesh, output_file, save_mesh, validate_mesh, write_rows

SCHEMA = "umbilic/1"

# kp = 6(n+1)/alpha: keep the exponent at or below 180
MIN_CLI_ALPHA = 0.1

# the shape options each `gen --kind` reads; gen rejects the others
GEN_OPTIONS = {"sphere": {"radius"}, "ellipsoid": {"axes"},
               "perturbed": {"radius", "delta", "degree", "order"}}


class CliError(Exception):
    """Validation/precondition failure with a machine-readable record."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error gets an error record, too
        raise CliError("config", message)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _hypothesis_summary(h):
    if h is None:
        return None
    return {
        "holds": h.holds,
        "worst_margin": h.worst_margin,
        "worst_vertex": h.worst_vertex,
        "epsilon_admissible": h.epsilon_admissible,
        "rhs_scale": h.rhs_scale,
        "margin_min": h.worst_margin,
        "margin_max": float(h.margins.max()),
    }


def _spectral_summary(res):
    if res is None:
        return None
    if isinstance(res, spectral.ConvergenceError):
        return _jsonable({
            "best_lambda1": res.best_lambda1,
            "best_residual": res.best_residual,
            "iterations": res.iterations,
        })
    return _jsonable({
        "iterations": res.iterations,
        "residual": res.residual,
        "ritz_values": res.ritz_values,
        "gap_warning": res.gap_warning,
        "factor_nnz": res.factor_nnz,
        "sigma": res.sigma,
        "basis_columns": res.basis_columns,
    })


def _output(out_path: str | None):
    """The file at `out_path` opened by `output_file`, or stdout when it is None."""
    return output_file(out_path) if out_path else contextlib.nullcontext(sys.stdout)


def _json_text(document: dict, meta: dict | None = None) -> str:
    """The document with its meta block: the timestamp and the run's `meta`."""
    meta = dict(meta or {}, timestamp=datetime.now(timezone.utc).isoformat())
    document = dict(document, meta=meta)
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _emit_json(document: dict, out_path: str | None, meta: dict | None = None) -> None:
    with _output(out_path) as fh:
        fh.write(_json_text(document, meta))


def _emit_csv(header, rows, out_path: str | None) -> None:
    """Write a header and rows; csv writes a float with str(), its shortest repr."""
    with _output(out_path) as fh:
        writer = csv.writer(fh, delimiter=",")
        writer.writerow(header)
        writer.writerows(rows)


def _load_validated(path) -> Mesh:
    try:
        mesh = load_mesh(path)
    except (OSError, ValueError, IndexError) as exc:
        raise CliError("load", str(exc)) from exc
    report = validate_mesh(mesh)
    if not report.all_passed:
        raise CliError("validate", report.failure)
    return mesh


def _surface_from_args(args) -> surfgen.AnalyticSurface:
    # a shape option is in args only when given, so the surface's defaults apply
    options = set().union(*GEN_OPTIONS.values())
    shape = {k: v for k, v in vars(args).items() if k in options}
    unread = ", ".join(f"--{k}" for k in sorted(shape.keys() - GEN_OPTIONS[args.kind]))
    if unread:
        raise CliError("config", f"--kind {args.kind} does not read {unread}")
    if args.kind == "ellipsoid":
        axes = shape.get("axes", "1,1,1")
        try:
            a, b, c = [float(x) for x in axes.split(",")]
        except ValueError:
            raise CliError("config", f"--axes must be 'a,b,c', got {axes!r}")
        return surfgen.Ellipsoid(a, b, c)
    return surfgen.PerturbedSphere(**shape)


def _floored_alpha(alpha: float) -> float:
    """Raise 0 < alpha < MIN_CLI_ALPHA to the floor; other values pass as given."""
    if 0.0 < alpha < MIN_CLI_ALPHA:
        print(
            f"warning: alpha floored to {MIN_CLI_ALPHA} (kp <= 180)",
            file=sys.stderr,
        )
        return MIN_CLI_ALPHA
    return alpha


def _check_tol(tol: float) -> None:
    """Reject a --tol before any mesh is loaded: with tol = inf any residual
    would certify, and a report could not hold it as JSON."""
    if not 0.0 < tol < math.inf:
        raise CliError("config", f"tol must be finite and positive, got {tol}")


def _check_paths(*flags) -> None:
    """Reject two (option, path) pairs naming one file, symlinks resolved: an
    output would overwrite the input mesh or the other output."""
    seen = {}
    for flag, path in flags:
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise CliError("config", f"{seen[real]} and {flag} are the same file: {path!r}")
            seen[real] = flag


# -- commands -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    surface = _surface_from_args(args)
    mesh = surfgen.generate(surface, args.subdiv)
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: V={mesh.n_vertices} F={mesh.n_faces}")
    return 0


def _cmd_analyze(args) -> int:
    _check_paths(("--out", args.out), ("--json-out", args.json_out), ("--mesh", args.mesh))
    mesh = _load_validated(args.mesh)
    geo = diffgeo.estimate_geometry(mesh)
    summary = _analyze_summary(mesh, geo)
    # both files are open before either is written, and `_output` removes
    # an opened file when the run fails: a failed run leaves neither
    table = _output(args.out) if args.out else contextlib.nullcontext()
    with _output(args.json_out) as json_fh, table as table_fh:
        if table_fh is not None:
            _write_table(mesh, geo, table_fh)
        json_fh.write(_json_text(summary))
    return 0


def _write_table(mesh: Mesh, geo, fh) -> None:
    """The per-vertex CSV, bytes as `csv.writer` writes them.

    `write_rows` formats the per-vertex arrays (`csv` writes a float as
    its repr, too), on two processes from two blocks of rows on.  Its
    OSError when the child fails becomes `main`'s error record, and
    `_output` removes the partial file.
    """
    csv.writer(fh).writerow([
        "vertex", "x", "y", "z", "area_weight", "kappa1", "kappa2",
        "H", "A_traceless_norm", "H2",
    ])
    columns = [np.arange(mesh.n_vertices), *mesh.vertices.T, mesh.vertex_areas,
               *geo.kappa.T, geo.H, geo.A_traceless_norm, geo.H2]
    write_rows(fh, columns, sep=",", end="\r\n")


def _analyze_summary(mesh: Mesh, geo) -> dict:
    anorm = fields.ScalarField(values=geo.A_traceless_norm, weights=mesh.vertex_areas)
    hfield = fields.ScalarField(values=geo.H, weights=mesh.vertex_areas)
    convexity = diffgeo.convexity_status(geo)
    return {
        "schema": SCHEMA,
        "command": "analyze",
        "mesh": {
            "vertices": mesh.n_vertices,
            "faces": mesh.n_faces,
            "euler_characteristic": mesh.euler_characteristic,
            "area": mesh.area,
            "enclosed_volume": mesh.enclosed_volume,
            "barycenter": [float(x) for x in mesh.barycenter],
        },
        "norms": {
            "A_traceless_L2": fields.lp_norm(anorm, 2.0),
            "A_traceless_sup": fields.lp_norm(anorm, float("inf")),
            "H_integral": fields.integrate(hfield),
            "H_sup": fields.lp_norm(hfield, float("inf")),
            "H_min": convexity.min_H,
            "kappa1_min": convexity.min_kappa1,
        },
        "convexity": _jsonable(convexity),
    }


def _cmd_verify(args) -> int:
    _check_tol(args.tol)
    _check_paths(("--out", args.out), ("--mesh", args.mesh))
    mesh = _load_validated(args.mesh)
    constants = pinching.PinchingConstants(
        alpha=_floored_alpha(args.alpha), epsilon=args.epsilon,
        L=args.L, c_n=args.cn, C_np_aubry=args.C_aubry,
    )
    report = pinching.verify_theorem(mesh, constants, tol=args.tol)
    # the solver's diagnostics go in meta; the report keeps lambda1 and its residual
    payload = _jsonable(dataclasses.replace(report, hypothesis=None, spectral=None))
    del payload["spectral"]
    document = {
        "schema": SCHEMA,
        "command": "verify",
        "constants": dict(
            _jsonable(constants), c_threshold=constants.c_threshold, kp=constants.kp
        ),
        "tolerances": {"lambda1_tol": args.tol, "ring_depth": diffgeo.RING_DEPTH},
        # the summary replaces the hypothesis, whose margins go unserialized
        "report": dict(payload, hypothesis=_hypothesis_summary(report.hypothesis)),
    }
    _emit_json(document, args.out, meta={"spectral": _spectral_summary(report.spectral)})
    return 0 if report.failure is None else 3


def _cmd_sweep(args) -> int:
    # ASCII digits only: \d and int() also take other scripts' digits
    match = re.fullmatch(r"l([0-9]+)(?:m(-?[0-9]+))?", args.family.lower().strip())
    if match is None:
        raise CliError(
            "config", f"--family must look like 'l2' or 'l3m1', got {args.family!r}"
        )
    degree, order = int(match[1]), int(match[2] or 0)
    try:
        eps_grid = [float(x) for x in args.eps.split(",")]
    except ValueError:
        raise CliError("config", f"--eps must be a comma list, got {args.eps!r}")
    alpha = _floored_alpha(args.alpha)
    result = pinching.sharpness_sweep(
        radius=args.radius,
        degree=degree,
        order=order,
        alpha=alpha,
        eps_grid=eps_grid,
        subdivision=args.subdiv,
        slack=args.slack,
    )
    header = [
        "epsilon", "delta", "achieved_ratio", "hypothesis_holds",
        "contained", "oscillation",
    ]
    rows = [
        [
            r.epsilon, r.delta, r.achieved_ratio,
            "" if r.hypothesis_holds is None else r.hypothesis_holds,
            "" if r.contained is None else r.contained,
            "" if r.oscillation is None else r.oscillation,
        ]
        for r in result.rows
    ]
    rows.append(["fit_slope", result.fit_slope, "", "", "", ""])
    rows.append(["fit_intercept", result.fit_intercept, "", "", "", ""])
    _emit_csv(header, rows, args.out)
    return 0


def _cmd_converge(args) -> int:
    _check_tol(args.tol)
    try:
        subdivs = [int(s) for s in args.subdivs.split(",")]
    except ValueError:
        raise CliError("config", f"--subdivs must be a comma list, got {args.subdivs!r}")
    if len(subdivs) < 2 or len(set(subdivs)) < len(subdivs):
        # an order needs two distinct refinement levels
        raise CliError(
            "config",
            f"--subdivs needs two or more subdivisions, none repeated, got {args.subdivs!r}",
        )
    radius = args.radius
    rows = []
    errors_h, errors_lam, hs = [], [], []
    for s in subdivs:
        mesh = surfgen.generate(surfgen.PerturbedSphere(radius), s)
        geo = diffgeo.estimate_geometry(mesh)
        h_err = float(np.abs(geo.H - 1.0 / radius).max())
        h_mean_err = float(np.abs(geo.H - 1.0 / radius).mean())
        try:
            lam = spectral.lambda1(mesh, tol=args.tol)
        except spectral.ConvergenceError as exc:
            raise CliError("lambda1", f"subdivision {s}: {exc}") from exc
        lam_exact = 2.0 / radius**2
        lam_err = abs(lam.lambda1 - lam_exact)
        area_err = abs(mesh.area - 4 * math.pi * radius**2)
        gauss = fields.integrate(
            fields.ScalarField(values=geo.H2, weights=mesh.vertex_areas)
        )
        rows.append([
            s, mesh.n_vertices, h_err, h_mean_err, lam.lambda1, lam_err,
            area_err, gauss,
        ])
        errors_h.append(h_err)
        errors_lam.append(lam_err)
        hs.append(2.0 ** -s)
    orders_h = [
        math.log2(errors_h[i] / errors_h[i + 1])
        for i in range(len(errors_h) - 1)
    ]
    slope_h = float(np.polyfit(np.log(hs), np.log(errors_h), 1)[0])
    header = [
        "subdivision", "vertices", "H_err_max", "H_err_mean", "lambda1",
        "lambda1_err", "area_err", "gauss_bonnet_integral",
    ]
    rows.append(["H_order_fit", slope_h, "", "", "", "", "", ""])
    for i, o in enumerate(orders_h):
        rows.append([f"H_order_{subdivs[i]}_to_{subdivs[i+1]}", o,
                     "", "", "", "", "", ""])
    _emit_csv(header, rows, args.out)
    lam_decreasing = all(
        errors_lam[i + 1] < errors_lam[i] for i in range(len(errors_lam) - 1)
    )
    print(
        f"H-error fitted order: {slope_h:.3f}; "
        f"lambda1 error decreasing: {lam_decreasing}",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="umbilic",
        description="Almost-umbilical pinching checks on triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an analytic surface mesh")
    p.add_argument("--kind", required=True,
                   choices=["sphere", "ellipsoid", "perturbed"])
    shape = p.add_argument_group("shape", argument_default=argparse.SUPPRESS)
    shape.add_argument("--radius", type=float)
    shape.add_argument("--axes", help="ellipsoid semi-axes a,b,c (default 1,1,1)")
    shape.add_argument("--delta", type=float)
    shape.add_argument("--degree", type=int)
    shape.add_argument("--order", type=int)
    p.add_argument("--subdiv", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="per-vertex curvature table and norms")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", help="CSV path for the per-vertex table")
    p.add_argument("--json-out", dest="json_out", help="summary JSON path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the pinching pipeline on a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--cn", type=float, default=1.0)
    p.add_argument("--C-aubry", dest="C_aubry", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="amplitude sweep over an epsilon grid")
    p.add_argument("--family", required=True, help="harmonic family, e.g. l2 or l3m1")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma list of epsilons")
    p.add_argument("--subdiv", type=int, default=4)
    p.add_argument("--slack", type=float, default=1.0)
    p.add_argument("--out", help="table path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("converge", help="refinement study on the round sphere")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--subdivs", default="3,4,5,6")
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, IndexError, OSError, OverflowError) as exc:
        # parsing raises only CliError, so args is set for the others
        stage = exc.stage if isinstance(exc, CliError) else args.command
        error = {"stage": stage, "message": str(exc)}
    # stdout, not --out: that file only ever holds a result
    _emit_json({"schema": SCHEMA, "error": error}, None)
    return 2


if __name__ == "__main__":
    sys.exit(main())
