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
    # np.float64 is a float, whose repr names numpy: take its Python value first
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj):
        return _record(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _record(obj, /, *omit, **extra):
    """A dataclass's fields, or a ConvergenceError's attributes, as JSON
    values: those named in `omit` left out, the `extra` ones added.  None
    (a stage that did not run) stays None."""
    if obj is None:
        return None
    # fields(), not vars(): vars() misses the init=False class defaults
    names = vars(obj) if isinstance(obj, spectral.ConvergenceError) else [
        f.name for f in dataclasses.fields(obj)]
    record = {name: getattr(obj, name) for name in names if name not in omit}
    return _jsonable(dict(record, **extra))


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


def _emit_csv(header, rows, summaries, out_path: str | None) -> None:
    """Write the header, the dict rows, then the (label, value) summary rows.

    A row's cells follow the header: a column it lacks is an empty cell,
    and so is None.  A summary row's label and value fill the first two
    columns.  csv writes a float with str(), its shortest repr.
    """
    with _output(out_path) as fh:
        writer = csv.DictWriter(fh, header, restval="")
        writer.writeheader()
        writer.writerows(rows)
        writer.writerows(dict(zip(header, summary)) for summary in summaries)


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
    x, y, z = mesh.vertices.T
    kappa1, kappa2 = geo.kappa.T
    table = {
        "vertex": np.arange(mesh.n_vertices), "x": x, "y": y, "z": z,
        "area_weight": mesh.vertex_areas, "kappa1": kappa1, "kappa2": kappa2,
        "H": geo.H, "A_traceless_norm": geo.A_traceless_norm, "H2": geo.H2,
    }
    csv.writer(fh).writerow(table)
    write_rows(fh, list(table.values()), sep=",", end="\r\n")


def _analyze_summary(mesh: Mesh, geo) -> dict:
    w = mesh.vertex_areas
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
            "A_traceless_L2": fields.lp_norm(geo.A_traceless_norm, w, 2.0),
            "A_traceless_sup": fields.lp_norm(geo.A_traceless_norm, w, float("inf")),
            "H_integral": fields.integrate(geo.H, w),
            "H_sup": fields.lp_norm(geo.H, w, float("inf")),
            "H_min": convexity.min_H,
            "kappa1_min": convexity.min_kappa1,
        },
        "convexity": _jsonable(convexity),
    }


def _cmd_verify(args) -> int:
    _check_tol(args.tol)
    _check_paths(("--out", args.out), ("--mesh", args.mesh))
    constants = pinching.PinchingConstants(
        alpha=_floored_alpha(args.alpha), epsilon=args.epsilon,
        L=args.L, c_n=args.cn, C_np_aubry=args.C_aubry,
    )
    mesh = _load_validated(args.mesh)
    report = pinching.verify_theorem(mesh, constants, tol=args.tol)
    h = report.hypothesis
    # the margins' range stands for the per-vertex margins
    hypothesis = None if h is None else _record(
        h, "margins", margin_min=h.worst_margin, margin_max=h.margins.max()
    )
    document = {
        "schema": SCHEMA,
        "command": "verify",
        "constants": _record(constants, c_threshold=constants.c_threshold, kp=constants.kp),
        "tolerances": {"lambda1_tol": args.tol, "ring_depth": diffgeo.RING_DEPTH},
        "report": _record(report, "hypothesis", "spectral", hypothesis=hypothesis),
    }
    # the solver's diagnostics go in meta; the report keeps lambda1 and its residual
    spectral_meta = _record(report.spectral, "lambda1", "eigenfunction")
    _emit_json(document, args.out, meta={"spectral": spectral_meta})
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
        degree=degree,
        order=order,
        alpha=alpha,
        eps_grid=eps_grid,
        subdivision=args.subdiv,
        slack=args.slack,
    )
    _emit_csv(
        [f.name for f in dataclasses.fields(pinching.SweepRow)],
        [dataclasses.asdict(r) for r in result.rows],
        [("fit_slope", result.fit_slope), ("fit_intercept", result.fit_intercept)],
        args.out,
    )
    return 0


def _cmd_converge(args) -> int:
    try:
        subdivs = [int(s) for s in args.subdivs.split(",")]
    except ValueError:
        raise CliError("config", f"--subdivs must be a comma list, got {args.subdivs!r}")
    if len(subdivs) < 2 or any(a >= b for a, b in zip(subdivs, subdivs[1:])):
        # an order needs two refinement levels, and a step's order its gap
        raise CliError(
            "config",
            f"--subdivs needs two or more strictly increasing subdivisions, "
            f"got {args.subdivs!r}",
        )
    rows = []
    for s in subdivs:
        # the unit sphere: H = 1, lambda1 = 2, area 4 pi
        mesh = surfgen.generate(surfgen.PerturbedSphere(), s)
        geo = diffgeo.estimate_geometry(mesh)
        try:
            lam = spectral.lambda1(mesh).lambda1
        except spectral.ConvergenceError as exc:
            raise CliError("lambda1", f"subdivision {s}: {exc}") from exc
        rows.append({
            "subdivision": s,
            "vertices": mesh.n_vertices,
            "H_err_max": float(np.abs(geo.H - 1.0).max()),
            "H_err_mean": float(np.abs(geo.H - 1.0).mean()),
            "lambda1": lam,
            "lambda1_err": abs(lam - 2.0),
            "area_err": abs(mesh.area - 4 * math.pi),
            "gauss_bonnet_integral": fields.integrate(geo.H2, mesh.vertex_areas),
        })
    errors_h = [r["H_err_max"] for r in rows]
    errors_lam = [r["lambda1_err"] for r in rows]
    slope_h = float(np.polyfit(np.log([2.0 ** -s for s in subdivs]), np.log(errors_h), 1)[0])
    # each step's order is per halving of the mesh size
    orders_h = [
        (f"H_order_{a}_to_{b}", math.log2(e_a / e_b) / (b - a))
        for a, b, e_a, e_b in zip(subdivs, subdivs[1:], errors_h, errors_h[1:])
    ]
    _emit_csv(list(rows[0]), rows, [("H_order_fit", slope_h), *orders_h], args.out)
    lam_decreasing = all(b < a for a, b in zip(errors_lam, errors_lam[1:]))
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
    p.add_argument("--kind", required=True, choices=GEN_OPTIONS)
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
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma list of epsilons")
    p.add_argument("--subdiv", type=int, default=4)
    p.add_argument("--slack", type=float, default=1.0)
    p.add_argument("--out", help="table path (stdout when omitted)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("converge", help="refinement study on the unit sphere")
    p.add_argument("--subdivs", default="3,4,5,6")
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
