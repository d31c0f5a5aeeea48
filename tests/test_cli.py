import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from umbilic.cli import main
from umbilic.diffgeo import estimate_geometry
from umbilic.mesh import Mesh, load_mesh, save_mesh
from umbilic.pinching import SweepResult, SweepRow
from umbilic.spectral import ConvergenceError
from umbilic.surfgen import PerturbedSphere, generate

from conftest import make_torus
from test_diffgeo import fit_error, in_child, singular_mesh


def run(args):
    return main(args)


def csv_lines(path):
    """The CSV file's rows, each checked to have the header's width."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert {len(line) for line in lines} == {len(lines[0])}
    return lines


def load_payload(path):
    doc = json.loads(path.read_text())
    doc.pop("meta")
    return doc


def test_gen_and_verify_roundtrip(tmp_path):
    mesh_path = tmp_path / "s3.off"
    out = tmp_path / "report.json"
    assert run(["gen", "--kind", "sphere", "--radius", "1",
                "--subdiv", "3", "--out", str(mesh_path)]) == 0
    assert run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
                "--alpha", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "umbilic/1"
    assert doc["command"] == "verify"
    assert "timestamp" in doc["meta"]
    assert doc["constants"]["alpha"] == 0.5
    assert doc["constants"]["L"] == 1.0
    assert doc["report"]["hypothesis"]["holds"] is True
    assert doc["report"]["annulus"]["contained"] is True
    assert doc["report"]["failure"] is None
    assert doc["tolerances"] == {"lambda1_tol": 1e-08, "ring_depth": 2}
    # the solver's diagnostics sit in meta only
    spectral = doc["meta"]["spectral"]
    assert set(spectral) == {
        "iterations", "residual", "ritz_values", "gap_warning", "factor_nnz",
        "sigma", "basis_columns"}
    assert "spectral" not in doc["report"]
    assert spectral["residual"] == doc["report"]["lambda1_residual"]
    assert spectral["ritz_values"][0] == pytest.approx(doc["report"]["lambda1"], rel=1e-12)
    assert len(spectral["ritz_values"]) == 3
    assert spectral["iterations"] > 0 and spectral["factor_nnz"] > 0
    assert spectral["gap_warning"] is True   # the round sphere's triple lambda1
    area = load_mesh(mesh_path).area
    assert spectral["sigma"] == pytest.approx(1e-3 * 4 * np.pi / area, rel=1e-12)
    assert spectral["basis_columns"] == spectral["iterations"] + 4


def test_verify_uncertified_lambda1_meta(tmp_path):
    mesh_path = tmp_path / "s3.off"
    out = tmp_path / "report.json"
    run(["gen", "--kind", "sphere", "--subdiv", "3", "--out", str(mesh_path)])
    assert run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
                "--alpha", "0.5", "--tol", "1e-17", "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["report"]["failure"].startswith("lambda1: residual above tol")
    assert doc["report"]["lambda1"] is None
    spectral = doc["meta"]["spectral"]
    assert set(spectral) == {"best_lambda1", "best_residual", "iterations"}
    assert spectral["best_lambda1"] == pytest.approx(2.0, rel=1e-4)
    assert repr(spectral["best_lambda1"]) in doc["report"]["failure"]
    assert spectral["best_residual"] > 1e-17
    assert spectral["iterations"] > 0


def test_verify_mean_convexity_failure(tmp_path):
    # the pipeline stops at the hypothesis: no lambda1, no trace, no meta.spectral
    mesh_path = tmp_path / "bumpy.off"
    out = tmp_path / "report.json"
    save_mesh(generate(PerturbedSphere(1.0, 0.45, 4, 0), 3), mesh_path)
    assert run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
                "--alpha", "0.5", "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    report = doc["report"]
    # the vertex the message names is the first minimiser of H, which
    # last-bit rounding picks among congruent vertices, so it is not checked
    assert report["failure"].startswith("hypothesis: mean-convexity violated")
    assert report["hypothesis"] is None
    assert report["lambda1"] is None
    assert report["trace"] is None
    assert doc["meta"]["spectral"] is None


def test_verify_overflowing_hypothesis_is_strict_json(tmp_path):
    # at radius 1e-30 and eps 1e100, |M|^(-(2+alpha)/n) * eps^(2+alpha)
    # overflows: the hypothesis writes "inf" as the other records do, not
    # the bare Infinity that strict JSON rejects.  tol 1e-17 is below what
    # lambda1 can certify, so the run stops there, before the unit-area
    # rescale of eps overflows
    mesh_path = tmp_path / "tiny.off"
    out = tmp_path / "report.json"
    run(["gen", "--kind", "sphere", "--radius", "1e-30", "--subdiv", "2",
         "--out", str(mesh_path)])
    assert run(["verify", "--mesh", str(mesh_path), "--epsilon", "1e100",
                "--alpha", "0.5", "--tol", "1e-17", "--out", str(out)]) == 3

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    hypothesis = json.loads(out.read_text(), parse_constant=reject)["report"]["hypothesis"]
    assert hypothesis["rhs_scale"] == hypothesis["margin_max"] == "inf"


def test_verify_deterministic_payload(tmp_path):
    mesh_path = tmp_path / "s2.off"
    run(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh_path)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
         "--alpha", "0.5", "--out", str(a)])
    run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
         "--alpha", "0.5", "--out", str(b)])
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("meta")
    db.pop("meta")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_verify_invalid_mesh_error_record(tmp_path, capsys):
    bad = tmp_path / "open.off"
    mesh = generate(PerturbedSphere(1.0), 2)
    from umbilic.mesh import Mesh

    save_mesh(Mesh(mesh.vertices, mesh.faces[2:]), bad)
    code = run(["verify", "--mesh", str(bad), "--epsilon", "0.1", "--alpha", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "validate"
    assert "closed=False" in doc["error"]["message"]


def test_verify_pinched_vertex_error_record(tmp_path, capsys):
    from test_mesh import pinched_sphere

    path = tmp_path / "pinched.off"
    save_mesh(pinched_sphere(generate(PerturbedSphere(1.0), 3)), path)
    code = run(["verify", "--mesh", str(path), "--epsilon", "0.1", "--alpha", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "validate"
    assert "closed=True" in doc["error"]["message"]
    assert doc["error"]["message"].endswith("manifold=False (vertex 0)")


@pytest.mark.parametrize(
    "text", ["OFF\n10000000000000 1 0\n0 0 0\n", "OFF\n-1 0 0\n"],
    ids=["huge", "negative"],
)
def test_off_counts_error_record(tmp_path, capsys, text):
    # the counts line is checked before it sizes an allocation
    path = tmp_path / "counts.off"
    path.write_text(text)
    assert run(["analyze", "--mesh", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "load"
    assert "OFF declares" in doc["error"]["message"]


def test_obj_negative_index_error_record(tmp_path, capsys):
    # relative (negative) OBJ indices are rejected, not resolved
    path = tmp_path / "relative.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f -1 -2 -3\nf 1 2 3\nf 1 3 4\nf 1 4 2\n"
    )
    assert run(["verify", "--mesh", str(path), "--epsilon", "0.1",
                "--alpha", "0.5"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "load"
    assert "out of 1-based range" in doc["error"]["message"]


INWARD_FAILURE = (
    "mesh validation failed: closed=True oriented=True connected=True outward=False"
)


@pytest.mark.parametrize("command, stage, message", [
    (["analyze", "--mesh", "{open}", "--out", "{out}", "--json-out", "{out}.json"],
     "validate", "mesh validation failed: closed=False oriented=False"),
    (["verify", "--mesh", "{open}", "--epsilon", "0.2", "--alpha", "0.5",
      "--out", "{out}"],
     "validate", "mesh validation failed: closed=False oriented=False"),
    # every face reversed: the parent read all H < 0 (analyze) and a
    # mean-convexity failure (verify) from this structural defect
    (["analyze", "--mesh", "{inward}", "--out", "{out}", "--json-out", "{out}.json"],
     "validate", INWARD_FAILURE),
    (["verify", "--mesh", "{inward}", "--epsilon", "0.2", "--alpha", "0.5",
      "--out", "{out}"],
     "validate", INWARD_FAILURE),
    # converge runs on the unit sphere at lambda1's own tol, and the sweep
    # on the unit sphere: the options are gone
    (["converge", "--subdivs", "2,3", "--tol", "1e-9", "--out", "{out}"],
     "config", "unrecognized arguments: --tol 1e-9"),
    (["converge", "--subdivs", "2,3", "--radius", "2", "--out", "{out}"],
     "config", "unrecognized arguments: --radius 2"),
    (["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.2", "--radius", "2",
      "--out", "{out}"],
     "config", "unrecognized arguments: --radius 2"),
    # the constant harmonic never bends the sphere, so no amplitude reaches
    # the target
    (["sweep", "--family", "l0", "--alpha", "0.5", "--eps", "0.2", "--subdiv", "1",
      "--out", "{out}"],
     "sweep", "amplitude search failed: ratio at the positivity limit"),
    (["gen", "--kind", "ellipsoid", "--axes", "1,2", "--out", "{out}"],
     "config", "--axes must be 'a,b,c', got '1,2'"),
    (["verify", "--mesh", "{closed}", "--epsilon", "0.2", "--alpha", "0.5",
      "--out", "{out}/report.json"],
     "verify", "[Errno 2] No such file or directory"),
    (["analyze", "--mesh", "{closed}", "--out", "{out}", "--json-out",
      "{out}.dir/summary.json"],
     "analyze", "[Errno 2] No such file or directory"),
    (["analyze", "--mesh", "{closed}", "--out", "{out}.dir/table.csv",
      "--json-out", "{out}"],
     "analyze", "[Errno 2] No such file or directory"),
    (["verify", "--mesh", "{closed}", "--epsilon", "nan", "--alpha", "0.5",
      "--out", "{out}"],
     "verify", "epsilon must be finite, got nan"),
    (["verify", "--mesh", "{closed}", "--epsilon", "inf", "--alpha", "0.5",
      "--out", "{out}"],
     "verify", "epsilon must be finite, got inf"),
    (["verify", "--mesh", "{closed}", "--epsilon", "0.2", "--alpha", "0.5",
      "--L", "nan", "--out", "{out}"],
     "verify", "L must be finite, got nan"),
    # p = n + 1 is fixed: the option is gone
    (["verify", "--mesh", "{closed}", "--epsilon", "0.2", "--alpha", "0.5",
      "--p-roth", "inf", "--out", "{out}"],
     "config", "unrecognized arguments: --p-roth inf"),
    # with tol = inf any residual would certify
    (["verify", "--mesh", "{closed}", "--epsilon", "0.2", "--alpha", "0.5",
      "--tol", "inf", "--out", "{out}"],
     "config", "tol must be finite and positive, got inf"),
    # mean convexity fails, so the pipeline would stop before lambda1
    (["verify", "--mesh", "{bumpy}", "--epsilon", "0.2", "--alpha", "0.5",
      "--tol", "inf", "--out", "{out}"],
     "config", "tol must be finite and positive, got inf"),
    (["converge", "--subdivs", "3,x", "--out", "{out}"],
     "config", "--subdivs must be a comma list"),
    (["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.2,inf",
      "--subdiv", "1", "--out", "{out}"],
     "sweep", "eps grid must be finite and positive"),
    (["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.2,abc",
      "--subdiv", "1", "--out", "{out}"],
     "config", "--eps must be a comma list"),
    # one file for both outputs, rejected before the (missing) mesh is read
    (["analyze", "--mesh", "{out}", "--out", "{out}", "--json-out",
      "{out}.dir/../result.out"],
     "config", "--out and --json-out are the same file"),
    # a nan target fails before the search builds a mesh
    (["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.2", "--subdiv", "1",
      "--slack", "nan", "--out", "{out}"],
     "sweep", "amplitude search failed: target slack*eps^(2+alpha) = nan"),
    # a zero or infinite target would give meaningless rows
    (["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.2", "--subdiv", "1",
      "--slack", "0", "--out", "{out}"],
     "sweep", "amplitude search failed: target slack*eps^(2+alpha) = 0"),
    (["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.2", "--subdiv", "1",
      "--slack", "inf", "--out", "{out}"],
     "sweep", "amplitude search failed: target slack*eps^(2+alpha) = inf"),
    # eps^(2+alpha) overflows a float
    (["verify", "--mesh", "{closed}", "--epsilon", "1e200", "--alpha", "0.5",
      "--out", "{out}"],
     "verify", "epsilon^(2+alpha) overflows a float: epsilon = 1e+200, alpha = 0.5"),
    # lambda1 certifies the radius-1e-30 sphere as it does the unit sphere;
    # eps rescaled to unit area then overflows, as on the unit sphere at that eps
    (["verify", "--mesh", "{tiny}", "--epsilon", "1e100", "--alpha", "0.5",
      "--out", "{out}"],
     "verify", "epsilon^(2+alpha) overflows a float: epsilon = 2.847876344188605e+129"),
    # the constants are checked before the (missing) mesh is read
    (["verify", "--mesh", "{out}", "--epsilon", "-1", "--alpha", "0.5"],
     "verify", "epsilon must be positive"),
    (["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "1e200",
      "--subdiv", "1", "--out", "{out}"],
     "sweep", "epsilon^(2+alpha) overflows a float: epsilon = 1e+200, alpha = 0.5"),
    # usage errors found by the parser
    (["verify", "--mesh", "{closed}", "--alpha", "0.5", "--out", "{out}"],
     "config", "the following arguments are required: --epsilon"),
    (["verify", "--mesh", "{closed}", "--epsilon", "abc", "--alpha", "0.5",
      "--out", "{out}"],
     "config", "argument --epsilon: invalid float value: 'abc'"),
    (["gen", "--kind", "cube", "--out", "{out}"],
     "config", "argument --kind: invalid choice: 'cube'"),
    ([], "config", "the following arguments are required: command"),
    (["gen", "--kind", "sphere", "--radius", "nan", "--out", "{out}"],
     "gen", "radius must be finite, got nan"),
    # the icosahedron's 9-term fits are rank-deficient
    (["analyze", "--mesh", "{icosa}", "--out", "{out}", "--json-out", "{out}.json"],
     "analyze", "singular jet fit: vertex 0 has a rank-deficient 9-term basis"),
    # a mean-convex torus passes validation but is outside the theorem's setting
    (["verify", "--mesh", "{torus}", "--epsilon", "1.0", "--alpha", "0.5",
      "--out", "{out}"],
     "verify", "Euler characteristic 0 != 2: not a sphere"),
], ids=["analyze-open", "verify-open", "analyze-inward", "verify-inward", "converge-tol",
        "converge-radius", "sweep-radius", "sweep-amplitude",
        "gen-axes", "unwritable-out", "analyze-unwritable-json",
        "analyze-unwritable-table", "verify-eps-nan", "verify-eps-inf",
        "verify-L-nan", "verify-p-roth-inf", "verify-tol-inf",
        "verify-tol-inf-not-convex", "converge-subdivs-not-int",
        "sweep-eps-inf", "sweep-eps-not-float",
        "analyze-same-path", "sweep-slack-nan", "sweep-slack-zero",
        "sweep-slack-inf", "verify-eps-overflow", "verify-unit-area-eps-overflow",
        "verify-eps-before-load", "sweep-eps-overflow",
        "verify-no-epsilon", "verify-eps-not-float", "gen-kind-cube",
        "no-command", "gen-radius-nan", "analyze-singular-fit", "verify-torus"])
def test_error_record_on_stdout_not_out(tmp_path, capsys, command, stage, message):
    # --out only ever holds a result; the record goes to stdout
    mesh = generate(PerturbedSphere(1.0), 2)
    save_mesh(mesh, tmp_path / "closed.off")
    save_mesh(Mesh(mesh.vertices, mesh.faces[2:]), tmp_path / "open.off")
    save_mesh(Mesh(mesh.vertices, mesh.faces[:, ::-1]), tmp_path / "inward.off")
    save_mesh(generate(PerturbedSphere(1.0, 0.45, 4, 0), 3), tmp_path / "bumpy.off")
    save_mesh(generate(PerturbedSphere(1.0), 0), tmp_path / "icosa.off")
    save_mesh(make_torus(1.0, 0.3, 96, 48), tmp_path / "torus.off")
    save_mesh(generate(PerturbedSphere(1e-30), 2), tmp_path / "tiny.off")
    paths = dict(open=tmp_path / "open.off", inward=tmp_path / "inward.off",
                 closed=tmp_path / "closed.off",
                 bumpy=tmp_path / "bumpy.off", icosa=tmp_path / "icosa.off",
                 torus=tmp_path / "torus.off", tiny=tmp_path / "tiny.off",
                 out=tmp_path / "result.out")
    assert run([arg.format(**paths) for arg in command]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == stage
    assert doc["error"]["message"].startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bumpy.off", "closed.off", "icosa.off", "inward.off", "open.off", "tiny.off",
        "torus.off"]


@pytest.mark.parametrize("command", [
    ["analyze", "--mesh", "{mesh}"],
    ["verify", "--mesh", "{mesh}", "--epsilon", "0.2", "--alpha", "0.5"],
], ids=["analyze", "verify"])
def test_face_area_overflow_named_at_validation(tmp_path, capsys, command):
    # the axes are finite, but every face's area overflows a float
    mesh_path = tmp_path / "huge.off"
    assert run(["gen", "--kind", "ellipsoid", "--axes", "1e200,1,1",
                "--subdiv", "2", "--out", str(mesh_path)]) == 0
    capsys.readouterr()
    assert run([arg.format(mesh=mesh_path) for arg in command]) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["error"]["stage"] == "validate"
    assert doc["error"]["message"].endswith(
        "min_face_area=inf finite_areas=False (face 0)")
    assert err == ""


@pytest.mark.parametrize("command, mesh_name, message", [
    (["verify", "--mesh", "{dir}/m.off", "--epsilon", "0.2", "--alpha", "0.5",
      "--out", "{dir}/m.off"], "m.off", "--out and --mesh are the same file"),
    (["analyze", "--mesh", "{dir}/a.off", "--json-out", "{dir}/a.off"],
     "a.off", "--json-out and --mesh are the same file"),
    # link.off is a symlink to b.off
    (["analyze", "--mesh", "{dir}/link.off", "--out", "{dir}/b.off"],
     "b.off", "--out and --mesh are the same file"),
], ids=["verify-out", "analyze-json-out", "analyze-out-symlink"])
def test_output_cannot_overwrite_mesh(tmp_path, capsys, command, mesh_name, message):
    mesh_path = tmp_path / mesh_name
    save_mesh(generate(PerturbedSphere(1.0), 2), mesh_path)
    (tmp_path / "link.off").symlink_to(mesh_path)
    before = mesh_path.read_bytes()
    assert run([arg.format(dir=tmp_path) for arg in command]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "config"
    assert doc["error"]["message"].startswith(message)
    assert mesh_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([mesh_name, "link.off"])


def test_verify_missing_file_error(capsys):
    code = run(["verify", "--mesh", "/nonexistent.off",
                "--epsilon", "0.1", "--alpha", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "load"


def test_gen_ellipsoid_and_obj(tmp_path):
    path = tmp_path / "e.obj"
    assert run(["gen", "--kind", "ellipsoid", "--axes", "2,1,1",
                "--subdiv", "2", "--out", str(path)]) == 0
    mesh = load_mesh(path)
    assert mesh.n_vertices == 162
    assert np.abs(mesh.vertices[:, 0]).max() == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("kind, option", [
    ("sphere", ["--delta", "0.3"]),
    ("sphere", ["--degree", "3"]),
    ("sphere", ["--order", "1"]),
    ("sphere", ["--axes", "1,2,3"]),
    ("ellipsoid", ["--radius", "5"]),
    ("ellipsoid", ["--delta", "0.1"]),
    ("perturbed", ["--axes", "1,2,3"]),
])
def test_gen_rejects_option_kind_does_not_read(tmp_path, capsys, kind, option):
    out = tmp_path / "x.off"
    assert run(["gen", "--kind", kind, *option, "--subdiv", "0", "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {
        "stage": "config",
        "message": f"--kind {kind} does not read {option[0]}",
    }
    assert not out.exists()


def test_gen_bad_axes(tmp_path, capsys):
    code = run(["gen", "--kind", "ellipsoid", "--axes", "2;1;1",
                "--subdiv", "1", "--out", str(tmp_path / "x.off")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "config"
    assert not (tmp_path / "x.off").exists()


def test_analyze_outputs(tmp_path):
    mesh_path = tmp_path / "s3.off"
    run(["gen", "--kind", "sphere", "--subdiv", "3", "--out", str(mesh_path)])
    table = tmp_path / "table.csv"
    summary = tmp_path / "summary.json"
    assert run(["analyze", "--mesh", str(mesh_path), "--out", str(table),
                "--json-out", str(summary)]) == 0
    lines = table.read_text().splitlines()
    mesh = load_mesh(mesh_path)
    assert len(lines) == mesh.n_vertices + 1
    assert lines[0].startswith("vertex,x,y,z,")
    assert "." in lines[1] and ";" not in lines[1]
    doc = json.loads(summary.read_text())
    assert doc["mesh"]["euler_characteristic"] == 2
    assert doc["norms"]["A_traceless_sup"] < 1e-3
    assert doc["convexity"]["strictly_convex"] is True


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--family", "l2", "--alpha", "0.5",
                "--eps", "0.4,0.2", "--subdiv", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,delta,achieved_ratio,hypothesis_holds,contained,oscillation"
    assert len(lines) == 1 + 2 + 2  # header, two rows, slope + intercept
    assert lines[-2].startswith("fit_slope,")
    assert lines[1].split(",")[0] == "0.4"
    rows = csv_lines(out)
    assert rows[0] == [f.name for f in dataclasses.fields(SweepRow)]


def test_sweep_csv_none_cells(tmp_path, monkeypatch):
    # a row whose stages did not all run has empty cells, as do the fit
    # rows past their value
    row = SweepRow(epsilon=0.4, delta=0.25, achieved_ratio=0.1,
                   hypothesis_holds=None, contained=None, oscillation=None)
    monkeypatch.setattr("umbilic.pinching.sharpness_sweep",
                        lambda **kwargs: SweepResult((row,), float("nan"), -0.5))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.4",
                "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"epsilon,delta,achieved_ratio,hypothesis_holds,contained,oscillation\r\n"
        b"0.4,0.25,0.1,,,\r\n"
        b"fit_slope,nan,,,,\r\n"
        b"fit_intercept,-0.5,,,,\r\n"
    )


def test_sweep_family_parsing(tmp_path, capsys):
    # \u0662 and \u0661 are Arabic-Indic digits, which int() reads as 2 and 1
    for family in ["quux", "2", "ll2", "l+2", "l 2", "l\u0662", "l3m-\u0661"]:
        code = run(["sweep", "--family", family, "--alpha", "0.5", "--eps", "0.2"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["stage"] == "config"
        assert repr(family) in doc["error"]["message"]


@pytest.mark.parametrize("family", ["l2", "L2", "l3m-1"])
def test_sweep_family_accepts(tmp_path, family):
    assert run(["sweep", "--family", family, "--alpha", "0.5", "--eps", "0.4",
                "--subdiv", "1", "--out", str(tmp_path / "s.csv")]) == 0


def test_alpha_floor_warning(tmp_path, capsys):
    mesh_path = tmp_path / "s2.off"
    run(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh_path)])
    out = tmp_path / "r.json"
    assert run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
                "--alpha", "0.05", "--out", str(out)]) == 0
    assert "floored" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["constants"]["alpha"] == 0.1
    assert doc["report"]["trace"]["kp"] == 180.0


def test_converge_csv(tmp_path):
    out = tmp_path / "conv.csv"
    assert run(["converge", "--subdivs", "2,3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("subdivision,vertices,H_err_max")
    assert any(line.startswith("H_order_fit") for line in lines)
    assert any(line.startswith("H_order_2_to_3") for line in lines)
    assert len(csv_lines(out)) == 1 + 2 + 2  # header, two levels, fit + one step


def test_converge_uncertified_lambda1_error_record(tmp_path, capsys, monkeypatch):
    # a lambda1 that does not certify is an error record naming the level,
    # and no --out file is left
    def uncertified(mesh):
        raise ConvergenceError("residual above tol=1e-08", 2.0, 1e-7, 20)

    monkeypatch.setattr("umbilic.spectral.lambda1", uncertified)
    out = tmp_path / "conv.csv"
    assert run(["converge", "--subdivs", "2,3", "--out", str(out)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {
        "stage": "lambda1", "message": "subdivision 2: residual above tol=1e-08"}
    assert list(tmp_path.iterdir()) == []


def test_converge_step_order_divides_by_gap(tmp_path):
    # one step over two levels: its order is the two-point fit's slope
    out = tmp_path / "conv.csv"
    assert run(["converge", "--subdivs", "2,4", "--out", str(out)]) == 0
    rows = dict(line.split(",")[:2] for line in out.read_text().splitlines()
                if line.startswith("H_order"))
    assert float(rows["H_order_2_to_4"]) == pytest.approx(
        float(rows["H_order_fit"]), rel=1e-12)


@pytest.mark.parametrize("subdivs", ["3", "3,3", "2,3,2", "4,3"])
def test_converge_needs_two_distinct_subdivisions(capsys, subdivs):
    # one level gives no order, and a repeated or decreasing level a
    # spurious one
    assert run(["converge", "--subdivs", subdivs]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "config"
    assert repr(subdivs) in doc["error"]["message"]


def test_verify_reports_failure_exit_code(tmp_path):
    # strongly perturbed sphere: hypothesis false is NOT a failure (exit 0)
    from umbilic.mesh import save_mesh as save
    from umbilic.surfgen import PerturbedSphere

    mesh_path = tmp_path / "p.off"
    save(generate(PerturbedSphere(1.0, 0.3, 2, 0), 2), mesh_path)
    out = tmp_path / "r.json"
    code = run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.1",
                "--alpha", "0.5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["hypothesis"]["holds"] is False


def table_lines(mesh_path):
    """The analyze table's lines, one row formula per vertex."""
    mesh = load_mesh(mesh_path)
    geo = estimate_geometry(mesh)
    expected = [
        "vertex,x,y,z,area_weight,kappa1,kappa2,H,A_traceless_norm,H2"
    ]
    for i in range(mesh.n_vertices):
        values = [
            *mesh.vertices[i], mesh.vertex_areas[i], *geo.kappa[i], geo.H[i],
            geo.A_traceless_norm[i], geo.H2[i],
        ]
        expected.append(",".join([str(i)] + [repr(float(x)) for x in values]))
    return expected


def test_analyze_csv_rows_match_geometry(tmp_path):
    mesh_path = tmp_path / "s2.off"
    run(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh_path)])
    table = tmp_path / "table.csv"
    assert run(["analyze", "--mesh", str(mesh_path), "--out", str(table)]) == 0
    assert table.read_text().splitlines() == table_lines(mesh_path)


def test_analyze_csv_bytes_on_two_processes(tmp_path, sphere4, forked):
    # 2,562 rows span more than one default block: a forked child formats
    # rows 1281-2561
    mesh_path = tmp_path / "s4.off"
    save_mesh(sphere4, mesh_path)
    forked.clear()
    table = tmp_path / "table.csv"
    assert run(["analyze", "--mesh", str(mesh_path), "--out", str(table)]) == 0
    assert len(forked) == 1
    expected = "".join(line + "\r\n" for line in table_lines(mesh_path))
    assert table.read_bytes() == expected.encode("ascii")


def test_analyze_child_failure_exits_2(tmp_path, sphere4, capsys, monkeypatch, forked,
                                       failing_column):
    # only the child fails: it dies on the H2 cell of row 2048 (the child
    # formats rows 1281-2561 of 2,562)
    import umbilic.cli as cli

    write_rows = cli.write_rows

    def poisoned(fh, columns, **kwargs):
        column = failing_column(len(columns[0]), 2048, dies=True)
        write_rows(fh, [*columns[:-1], column], **kwargs)

    mesh_path = tmp_path / "s4.off"
    save_mesh(sphere4, mesh_path)
    monkeypatch.setattr(cli, "write_rows", poisoned)
    forked.clear()
    table, summary = tmp_path / "table.csv", tmp_path / "summary.json"
    capsys.readouterr()
    code = run(["analyze", "--mesh", str(mesh_path), "--out", str(table),
                "--json-out", str(summary)])
    assert code == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["stage"] == "analyze"
    assert "exited with status 1" in error["message"]
    assert not table.exists() and not summary.exists()
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "command", [["analyze"], ["verify", "--epsilon", "0.2", "--alpha", "0.5"]],
    ids=["analyze", "verify"],
)
def test_singular_fit_in_child_exits_2(command, tmp_path, capsys, monkeypatch, forked):
    # the rank-deficient vertex is fitted in the child: the one-process text
    from umbilic import diffgeo

    mesh = singular_mesh(last=True)
    expected = fit_error(mesh)
    mesh_path = tmp_path / "singular.off"
    save_mesh(mesh, mesh_path)
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 8)
    capsys.readouterr()
    assert run([*command, "--mesh", str(mesh_path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"stage": command[0], "message": expected}
    assert len(forked) == 1


def test_verify_fit_error_in_child_beats_lambda1_error(tmp_path, capsys, monkeypatch,
                                                      forked):
    # the child fits the rank-deficient vertex 34 while lambda1 raises its
    # own ValueError here: the fit's error is reported, as in one process
    from umbilic import diffgeo, spectral

    mesh = singular_mesh(last=True)
    expected = fit_error(mesh)
    mesh_path = tmp_path / "singular.off"
    save_mesh(mesh, mesh_path)
    calls = []

    def lambda1(mesh, tol):
        calls.append(mesh)
        raise ValueError("lambda1 failed")

    monkeypatch.setattr(spectral, "lambda1", lambda1)
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 8)
    capsys.readouterr()
    assert run(["verify", "--epsilon", "0.2", "--alpha", "0.5", "--mesh", str(mesh_path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"stage": "verify", "message": expected}
    assert len(calls) == 1 and len(forked) == 1


def test_analyze_fit_child_death_exits_2(tmp_path, sphere4, capsys, monkeypatch, forked):
    from umbilic import diffgeo

    mesh_path = tmp_path / "s4.off"
    save_mesh(sphere4, mesh_path)
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 1000)
    monkeypatch.setattr(diffgeo, "_fit_block", in_child(lambda: os._exit(1)))
    forked.clear()
    capsys.readouterr()
    assert run(["analyze", "--mesh", str(mesh_path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["stage"] == "analyze"
    assert "exited with status 1" in error["message"]
    assert len(forked) == 1


def test_gen_write_failure_leaves_no_file(tmp_path, capsys, monkeypatch, failing_column):
    # the child formatting face rows 640-1279 of 1,280 dies on row 1024
    import umbilic.mesh as mesh_module

    write_rows = mesh_module.write_rows

    def poisoned(fh, columns, prefix=""):
        if prefix == "3 ":
            columns = [*columns[:-1], failing_column(len(columns[0]), 1024, dies=True)]
        write_rows(fh, columns, prefix=prefix)

    monkeypatch.setattr(mesh_module, "write_rows", poisoned)
    out = tmp_path / "s3.off"
    capsys.readouterr()
    assert run(["gen", "--kind", "sphere", "--subdiv", "3", "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["stage"] == "gen"
    assert "exited with status 1" in error["message"]
    assert not out.exists()


def test_analyze_csv_independent_of_row_block(tmp_path, monkeypatch):
    import umbilic.mesh as mesh_module

    mesh_path = tmp_path / "s2.off"
    run(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh_path)])
    texts = []
    for block in (mesh_module.TEXT_BLOCK, 1, 7):
        monkeypatch.setattr(mesh_module, "TEXT_BLOCK", block)
        table = tmp_path / f"table{block}.csv"
        assert run(["analyze", "--mesh", str(mesh_path), "--out", str(table)]) == 0
        texts.append(table.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    assert len(texts[0].splitlines()) == load_mesh(mesh_path).n_vertices + 1


# floats whose shortest repr takes every form: signed zero, subnormal,
# exponent at and past 1e16, the largest double, a small fraction, and
# the non-finite values
EDGE_FLOATS = [
    -0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308, 2.5e-07, 123456789.0,
    float("inf"), float("-inf"), float("nan"), -1e-300,
]


def test_analyze_table_bytes_match_csv_writer(monkeypatch):
    import csv
    import io
    from types import SimpleNamespace

    import umbilic.cli as cli
    import umbilic.mesh as mesh_module

    n = 9
    cells = np.resize(np.array(EDGE_FLOATS), (n, 9))
    mesh = SimpleNamespace(
        n_vertices=n, vertices=cells[:, 0:3], vertex_areas=cells[:, 3]
    )
    geo = SimpleNamespace(
        kappa=cells[:, 4:6], H=cells[:, 6], A_traceless_norm=cells[:, 7],
        H2=cells[:, 8],
    )
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow([
        "vertex", "x", "y", "z", "area_weight", "kappa1", "kappa2",
        "H", "A_traceless_norm", "H2",
    ])
    writer.writerows([i, *map(float, row)] for i, row in enumerate(cells))
    for block in (mesh_module.TEXT_BLOCK, 1, 4):
        monkeypatch.setattr(mesh_module, "TEXT_BLOCK", block)
        got = io.StringIO()
        cli._write_table(mesh, geo, got)
        assert got.getvalue() == expected.getvalue(), block


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_verify_rejects_nonpositive_alpha(tmp_path, capsys, alpha):
    mesh_path = tmp_path / "s2.off"
    run(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh_path)])
    capsys.readouterr()
    code = run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
                "--alpha", alpha])
    assert code == 2
    captured = capsys.readouterr()
    assert "floored" not in captured.err
    doc = json.loads(captured.out)
    assert doc["error"]["stage"] == "verify"
    assert "alpha must be in (0, 1)" in doc["error"]["message"]


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_sweep_rejects_nonpositive_alpha(capsys, alpha):
    code = run(["sweep", "--family", "l2", "--alpha", alpha, "--eps", "0.2",
                "--subdiv", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "floored" not in captured.err
    doc = json.loads(captured.out)
    assert doc["error"]["stage"] == "sweep"
    assert "alpha must be in (0, 1)" in doc["error"]["message"]
