import json

import numpy as np
import pytest

from umbilic.cli import main
from umbilic.diffgeo import estimate_geometry
from umbilic.mesh import load_mesh, save_mesh
from umbilic.surfgen import Sphere, generate


def run(args):
    return main(args)


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
    mesh = generate(Sphere(1.0), 2)
    from umbilic.mesh import Mesh

    save_mesh(Mesh(mesh.vertices, mesh.faces[2:]), bad)
    code = run(["verify", "--mesh", str(bad), "--epsilon", "0.1", "--alpha", "0.5"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "validate"
    assert "closed=False" in doc["error"]["message"]


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


def test_gen_bad_axes(tmp_path, capsys):
    code = run(["gen", "--kind", "ellipsoid", "--axes", "2;1;1",
                "--subdiv", "1", "--out", str(tmp_path / "x.off")])
    assert code == 2
    doc = json.loads((tmp_path / "x.off").read_text())
    assert doc["error"]["stage"] == "config"


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


def test_sweep_family_parsing(tmp_path, capsys):
    code = run(["sweep", "--family", "quux", "--alpha", "0.5", "--eps", "0.2"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["stage"] == "config"


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


def test_verify_csv_format(tmp_path):
    mesh_path = tmp_path / "s2.off"
    run(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh_path)])
    out = tmp_path / "report.csv"
    assert run(["verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
                "--alpha", "0.5", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    keys = {l.split(",", 1)[0] for l in lines[1:]}
    assert "report.annulus.contained" in keys
    assert "constants.c_threshold" in keys
    assert "tolerances.lambda1_tol" in keys


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["sweep", "--family", "l2", "--alpha", "0.5", "--eps", "0.3",
                "--subdiv", "2", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "sweep"
    assert doc["family"] == {"degree": 2, "order": 0, "radius": 1.0}
    assert len(doc["result"]["rows"]) == 1


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


def test_analyze_csv_rows_match_geometry(tmp_path):
    mesh_path = tmp_path / "s2.off"
    run(["gen", "--kind", "sphere", "--subdiv", "2", "--out", str(mesh_path)])
    table = tmp_path / "table.csv"
    assert run(["analyze", "--mesh", str(mesh_path), "--out", str(table)]) == 0
    mesh = load_mesh(mesh_path)
    geo = estimate_geometry(mesh)
    expected = [
        "vertex,x,y,z,area_weight,kappa1,kappa2,H,A_traceless_norm,H2,"
        "ricci_min,scalar_curv"
    ]
    for i in range(mesh.n_vertices):
        values = [
            *mesh.vertices[i], mesh.vertex_areas[i], *geo.kappa[i], geo.H[i],
            geo.A_traceless_norm[i], geo.H2[i], geo.ricci_min[i], geo.scalar_curv[i],
        ]
        expected.append(",".join([str(i)] + [repr(float(x)) for x in values]))
    assert table.read_text().splitlines() == expected


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
