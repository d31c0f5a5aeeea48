"""Command-line interface: generate, analyze, verify, sweep, converge.

Reports are JSON (schema "umbilic/1") or CSV.  JSON payloads are
deterministic: keys sorted, floats via repr, and the timestamp confined to
the "meta" block so identical runs are byte-identical outside it.  Every
report embeds the constants block in effect.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import diffgeo, fields, pinching, spectral, surfgen
from .mesh import Mesh, load_mesh, measures, save_mesh, validate_mesh

SCHEMA = "umbilic/1"

# kp = 6(n+1)/alpha: keep the exponent at or below 180
MIN_CLI_ALPHA = 0.1


class CliError(Exception):
    """Validation/precondition failure with a machine-readable record."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


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
        "margin_min": float(h.margins.min()),
        "margin_max": float(h.margins.max()),
    }


def _report_payload(report: pinching.PinchingReport) -> dict:
    out = _jsonable(report)
    out["hypothesis"] = _hypothesis_summary(report.hypothesis)
    return out


def _emit_json(document: dict, out_path: str | None) -> None:
    document = dict(document)
    document["meta"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, out_path: str | None) -> None:
    def fmt(x):
        if isinstance(x, float):
            return repr(float(x))
        return x

    target = open(out_path, "w", newline="", encoding="ascii") if out_path else sys.stdout
    try:
        writer = csv.writer(target, delimiter=",")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])
    finally:
        if out_path:
            target.close()


def _load_validated(path) -> Mesh:
    try:
        mesh = load_mesh(path)
    except (OSError, ValueError, IndexError) as exc:
        raise CliError("load", str(exc)) from exc
    report = validate_mesh(mesh)
    if not report.all_passed:
        raise CliError(
            "validate",
            f"mesh validation failed: closed={report.closed} "
            f"oriented={report.oriented} connected={report.connected} "
            f"min_face_area={report.min_face_area:g}",
        )
    return mesh


def _surface_from_args(args) -> surfgen.AnalyticSurface:
    kind = args.kind
    if kind == "sphere":
        return surfgen.Sphere(args.radius)
    if kind == "ellipsoid":
        try:
            a, b, c = [float(x) for x in args.axes.split(",")]
        except ValueError:
            raise CliError("config", f"--axes must be 'a,b,c', got {args.axes!r}")
        return surfgen.Ellipsoid(a, b, c)
    if kind == "perturbed":
        return surfgen.PerturbedSphere(
            args.radius, args.delta, args.degree, args.order
        )
    raise CliError("config", f"unknown surface kind {kind!r}")


def _floored_alpha(alpha: float) -> float:
    """Raise 0 < alpha < MIN_CLI_ALPHA to the floor; other values pass as given."""
    if 0.0 < alpha < MIN_CLI_ALPHA:
        print(
            f"warning: alpha floored to {MIN_CLI_ALPHA} (kp <= 180)",
            file=sys.stderr,
        )
        return MIN_CLI_ALPHA
    return alpha


def _constants_from_args(args) -> pinching.PinchingConstants:
    return pinching.PinchingConstants(
        alpha=_floored_alpha(args.alpha),
        epsilon=args.epsilon,
        p_roth=args.p_roth,
        L=args.L,
        c_n=args.cn,
        C_np_aubry=args.C_aubry,
    )


# -- commands -------------------------------------------------------------------


def _cmd_gen(args) -> int:
    surface = _surface_from_args(args)
    mesh = surfgen.generate(surface, args.subdiv)
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: V={mesh.n_vertices} F={mesh.n_faces}")
    return 0


def _cmd_analyze(args) -> int:
    mesh = _load_validated(args.mesh)
    geo = diffgeo.estimate_geometry(mesh, ring_depth=args.ring_depth)
    if args.out:
        header = [
            "vertex", "x", "y", "z", "area_weight", "kappa1", "kappa2",
            "H", "A_traceless_norm", "H2", "ricci_min", "scalar_curv",
        ]
        table = np.column_stack([
            mesh.vertices, mesh.vertex_areas, geo.kappa, geo.H,
            geo.A_traceless_norm, geo.H2, geo.ricci_min, geo.scalar_curv,
        ])
        rows = ([i, *row] for i, row in enumerate(table.tolist()))
        _emit_csv(header, rows, args.out)
    mm = measures(mesh)
    anorm = fields.ScalarField(values=geo.A_traceless_norm, weights=mesh.vertex_areas)
    hfield = fields.ScalarField(values=geo.H, weights=mesh.vertex_areas)
    summary = {
        "schema": SCHEMA,
        "command": "analyze",
        "mesh": {
            "vertices": mesh.n_vertices,
            "faces": mesh.n_faces,
            "euler_characteristic": mesh.euler_characteristic,
            "area": mm.area,
            "enclosed_volume": mm.enclosed_volume,
            "barycenter": [float(x) for x in mm.barycenter],
        },
        "norms": {
            "A_traceless_L2": fields.lp_norm(anorm, 2.0),
            "A_traceless_sup": fields.lp_norm(anorm, float("inf")),
            "H_integral": fields.integrate(hfield),
            "H_sup": fields.lp_norm(hfield, float("inf")),
            "H_min": float(geo.H.min()),
            "kappa1_min": float(geo.kappa[:, 0].min()),
        },
        "convexity": _jsonable(diffgeo.convexity_status(geo)),
    }
    _emit_json(summary, args.json_out)
    return 0


def _flatten(prefix: str, obj, out: list) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}{k}." if prefix else f"{k}.", obj[k], out)
        return
    key = prefix.rstrip(".")
    if isinstance(obj, list):
        out.append([key, json.dumps(obj)])
    else:
        out.append([key, obj if obj is not None else ""])


def _cmd_verify(args) -> int:
    mesh = _load_validated(args.mesh)
    constants = _constants_from_args(args)
    report = pinching.verify_theorem(
        mesh, constants, ring_depth=args.ring_depth, tol=args.tol
    )
    constants_block = _jsonable(constants)
    constants_block["c_threshold"] = constants.c_threshold
    constants_block["kp"] = constants.kp
    document = {
        "schema": SCHEMA,
        "command": "verify",
        "constants": constants_block,
        "tolerances": {"lambda1_tol": args.tol, "ring_depth": args.ring_depth},
        "report": _report_payload(report),
    }
    if args.format == "csv":
        rows: list = []
        _flatten("", document, rows)
        _emit_csv(["key", "value"], rows, args.out)
    else:
        _emit_json(document, args.out)
    return 0 if report.failure is None else 3


def _cmd_sweep(args) -> int:
    family = args.family.lower().strip()
    try:
        if "m" in family:
            degree = int(family[1:family.index("m")])
            order = int(family[family.index("m") + 1:])
        else:
            degree = int(family.lstrip("l"))
            order = 0
    except ValueError:
        raise CliError(
            "config", f"--family must look like 'l2' or 'l3m1', got {args.family!r}"
        )
    try:
        eps_grid = [float(x) for x in args.eps.split(",")]
    except ValueError:
        raise CliError("config", f"--eps must be a comma list, got {args.eps!r}")
    alpha = _floored_alpha(args.alpha)
    try:
        result = pinching.sharpness_sweep(
            radius=args.radius,
            degree=degree,
            order=order,
            alpha=alpha,
            eps_grid=eps_grid,
            subdivision=args.subdiv,
            slack=args.slack,
        )
    except ValueError as exc:
        raise CliError("sweep", str(exc)) from exc
    if args.format == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "sweep",
                "family": {"degree": degree, "order": order, "radius": args.radius},
                "alpha": alpha,
                "slack": args.slack,
                "subdivision": args.subdiv,
                "result": _jsonable(result),
            },
            args.out,
        )
        return 0
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
    try:
        subdivs = [int(s) for s in args.subdivs.split(",")]
    except ValueError:
        raise CliError("config", f"--subdivs must be a comma list, got {args.subdivs!r}")
    radius = args.radius
    rows = []
    errors_h, errors_lam, hs = [], [], []
    for s in subdivs:
        mesh = surfgen.generate(surfgen.Sphere(radius), s)
        geo = diffgeo.estimate_geometry(mesh, ring_depth=args.ring_depth)
        h_err = float(np.abs(geo.H - 1.0 / radius).max())
        h_mean_err = float(np.abs(geo.H - 1.0 / radius).mean())
        lam = spectral.lambda1(spectral.build_laplace(mesh), tol=args.tol)
        lam_exact = 2.0 / radius**2
        lam_err = abs(lam.lambda1 - lam_exact)
        area_err = abs(mesh.area - 4 * math.pi * radius**2)
        gauss = float(np.sum(geo.H2 * mesh.vertex_areas))
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
    parser = argparse.ArgumentParser(
        prog="umbilic",
        description="Almost-umbilical pinching checks on triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an analytic surface mesh")
    p.add_argument("--kind", required=True,
                   choices=["sphere", "ellipsoid", "perturbed"])
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--axes", default="1,1,1", help="ellipsoid semi-axes a,b,c")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--order", type=int, default=0)
    p.add_argument("--subdiv", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="per-vertex curvature table and norms")
    p.add_argument("--mesh", required=True)
    p.add_argument("--ring-depth", type=int, default=2, dest="ring_depth")
    p.add_argument("--out", help="CSV path for the per-vertex table")
    p.add_argument("--json-out", dest="json_out", help="summary JSON path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="run the pinching pipeline on a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p-roth", dest="p_roth", type=float, default=None)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--cn", type=float, default=1.0)
    p.add_argument("--C-aubry", dest="C_aubry", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--ring-depth", type=int, default=2, dest="ring_depth")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="amplitude sweep over an epsilon grid")
    p.add_argument("--family", required=True, help="harmonic family, e.g. l2 or l3m1")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma list of epsilons")
    p.add_argument("--subdiv", type=int, default=4)
    p.add_argument("--slack", type=float, default=1.0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="table path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("converge", help="refinement study on the round sphere")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--subdivs", default="3,4,5,6")
    p.add_argument("--ring-depth", type=int, default=2, dest="ring_depth")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        error, out = {"stage": exc.stage, "message": str(exc)}, getattr(args, "out", None)
    except (ValueError, IndexError, OSError) as exc:
        error, out = {"stage": args.command, "message": str(exc)}, None
    _emit_json({"schema": SCHEMA, "error": error}, out)
    return 2


if __name__ == "__main__":
    sys.exit(main())
