"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
per-criterion runtimes.  Stated time budgets are asserted.
"""

import json
import time

import numpy as np
import pytest

from umbilic.cli import _jsonable, main
from umbilic.diffgeo import estimate_geometry
from umbilic.fields import ScalarField, lp_norm
from umbilic.mesh import Mesh, measures, save_mesh
from umbilic.pinching import (
    PinchingConstants,
    check_hypothesis,
    fit_umbilical_mu,
    proof_trace,
    roth_condition,
    sharpness_sweep,
    unit_area,
)
from umbilic.spectral import aubry_lower_bound, build_laplace, lambda1
from umbilic.surfgen import (
    Ellipsoid,
    PerturbedSphere,
    generate,
    oracle_curvatures_at_vertices,
)


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            if elapsed >= self.seconds:
                raise AssertionError(
                    f"criterion {self.criterion} exceeded its "
                    f"{self.seconds:.0f}s budget: {elapsed:.1f}s"
                )
            print(f"ACCEPTANCE {self.criterion}: PASS ({elapsed:.1f}s)")
        else:
            print(f"ACCEPTANCE {self.criterion}: FAIL ({elapsed:.1f}s)")
        return False


def test_criterion_1_sphere_model_case():
    with Budget("1 (sphere model case)", 30):
        mesh = generate(PerturbedSphere(1.0), 5)
        geo = estimate_geometry(mesh)
        assert np.abs(geo.H - 1.0).mean() <= 1e-2
        assert geo.A_traceless_norm.max() <= 2e-2
        res = lambda1(build_laplace(mesh))
        assert 1.98 <= res.lambda1 <= 2.02
        total_k = float(np.sum(geo.H2 * mesh.vertex_areas))
        assert abs(total_k - 4 * np.pi) / (4 * np.pi) <= 0.005
        assert np.linalg.norm(measures(mesh).barycenter) <= 1e-6
        # the annulus sqrt(2/lambda1) -/+ 0.05 about the barycenter
        dist = np.linalg.norm(mesh.vertices - measures(mesh).barycenter, axis=1)
        r_lam = np.sqrt(2.0 / res.lambda1)
        assert r_lam - 0.05 <= dist.min() and dist.max() <= r_lam + 0.05


def test_criterion_2_exact_scaling_suite(sphere3):
    with Budget("2 (exact scaling)", 10):
        doubled = Mesh(sphere3.vertices * 2.0, sphere3.faces)
        a1 = float(np.sum(sphere3.face_areas))
        a2 = float(np.sum(doubled.face_areas))
        assert abs(a2 - 4.0 * a1) <= 1e-9 * a2

        surf1, surf2 = Ellipsoid(2.0, 1.0, 1.0), Ellipsoid(4.0, 2.0, 2.0)
        e1 = generate(surf1, 3)
        e2 = Mesh(e1.vertices * 2.0, e1.faces)
        o1 = oracle_curvatures_at_vertices(surf1, e1)
        o2 = oracle_curvatures_at_vertices(surf2, e2)
        assert np.allclose(o2.H, 0.5 * o1.H, rtol=1e-9, atol=0.0)
        assert np.allclose(
            o2.A_traceless_norm, 0.5 * o1.A_traceless_norm, rtol=1e-9, atol=1e-15
        )

        r1 = lambda1(build_laplace(sphere3), tol=1e-10)
        r2 = lambda1(build_laplace(doubled), tol=1e-10)
        assert abs(r2.lambda1 - 0.25 * r1.lambda1) <= 1e-9 * r1.lambda1

        c1 = PinchingConstants(alpha=0.5, epsilon=0.3)
        h1 = check_hypothesis(e1, o1, c1)
        h2 = check_hypothesis(e2, o2, c1.rescaled(2.0))
        assert h1.holds == h2.holds
        assert np.allclose(h2.margins, 0.5 * h1.margins, rtol=1e-9, atol=1e-16)


def test_criterion_3_gauss_formula_consistency(
    sphere4, geom_sphere4, sphere5, geom_sphere5,
    ellipsoid4, geom_ellipsoid4, perturbed4, geom_perturbed4,
):
    with Budget("3 (Gauss-formula consistency)", 30):
        cases = [
            geom_sphere4, geom_sphere5, geom_ellipsoid4, geom_perturbed4,
            estimate_geometry(generate(PerturbedSphere(2.0), 3)),
        ]
        for geo in cases:
            product = geo.kappa[:, 0] * geo.kappa[:, 1]
            assert np.abs(geo.H2 - product).max() <= 1e-10


def test_criterion_4_mu_fit_oracle_equivalence():
    with Budget("4 (mu-fit oracle equivalence)", 10):
        meshes = [
            (PerturbedSphere(1.0), 3),
            (PerturbedSphere(2.0), 3),
            (Ellipsoid(2.0, 1.0, 1.0), 3),
            (Ellipsoid(1.5, 1.2, 0.9), 3),
            (PerturbedSphere(1.0, 0.01, 2, 0), 3),
        ]
        for surf, s in meshes:
            mesh = generate(surf, s)
            geo = estimate_geometry(mesh)
            w = mesh.vertex_areas
            mean_h = float(np.sum(w * geo.H) / np.sum(w))
            mu = fit_umbilical_mu(geo, w, 2.0)
            assert abs(mu - mean_h) <= 1e-8 * abs(mean_h)

        # two-point toy field vs the 1e-6-step grid-scan oracle at p = 4
        from test_pinching import _toy_geometry

        geo = _toy_geometry([[1.0, 1.0], [3.0, 3.0]])
        mu = fit_umbilical_mu(geo, np.array([0.5, 0.5]), 4.0)
        mus = np.arange(1.0, 3.0 + 1e-12, 1e-6)
        vals = (2.0 * (1.0 - mus) ** 2) ** 2 + (2.0 * (3.0 - mus) ** 2) ** 2
        mu_grid = float(mus[np.argmin(vals)])
        assert abs(mu - mu_grid) <= 1e-5


def test_criterion_5_proof_trace_inequalities(perturbed4, geom_perturbed4):
    with Budget("5 (proof-trace inequalities)", 60):
        consts = PinchingConstants(alpha=0.5, epsilon=0.2)
        lam = lambda1(build_laplace(perturbed4)).lambda1
        tr = proof_trace(unit_area(perturbed4, geom_perturbed4, consts, lam))
        assert tr.mu0_bracket[0] <= tr.mu0 <= tr.mu0_bracket[1]
        assert tr.bad_set_Pgamma_measure <= tr.chebyshev_bound_Pgamma * (1 + 1e-12)

        h_inf = float(np.abs(geom_perturbed4.H).max())
        r_lam = np.sqrt(2.0 / lam)
        cap = 2.0 / (3.0 * h_inf)
        from umbilic.pinching import eta_of_epsilon

        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            eps = frac * cap
            eta = eta_of_epsilon(lam, h_inf, eps)
            assert eta >= min(r_lam * eps**2 / 3.0, 1.0 / (27.0 * h_inf**3)) * (
                1 - 1e-12
            )

        unit = unit_area(
            perturbed4, geom_perturbed4, PinchingConstants(alpha=0.5, epsilon=0.05),
            lam,
        )
        field = ScalarField(
            values=unit.geometries.A_traceless_norm, weights=unit.weights
        )
        n2, n8, n32 = (lp_norm(field, p) for p in (2.0, 8.0, 32.0))
        assert n2 <= n8 * (1 + 1e-12) and n8 <= n32 * (1 + 1e-12)


def test_criterion_6_sphere_equality_cases(
    sphere4, geom_sphere4, sphere5, geom_sphere5,
    ellipsoid4, geom_ellipsoid4, perturbed4, geom_perturbed4,
):
    with Budget("6 (sphere equality cases)", 30):
        for mesh, geo in [(sphere4, geom_sphere4), (sphere5, geom_sphere5)]:
            unit = unit_area(
                mesh, geo, PinchingConstants(alpha=0.5, epsilon=0.05),
                lambda1(build_laplace(mesh)).lambda1,
            )
            lam_t = unit.lambda1
            res = roth_condition(unit)
            # error budget: lhs decomposes exactly into these three deviation
            # terms about the sphere closed forms
            r_t = float(np.linalg.norm(mesh.vertices * unit.factor, axis=1).mean())
            lam_star = 2.0 / r_t**2
            int_h_star = 1.0 / r_t
            h2_sq_star = (1.0 / r_t**2) ** 2
            budget = (
                abs(lam_t - lam_star) * res.integral_H**2
                + lam_star * abs(res.integral_H**2 - int_h_star**2)
                + 2.0 * abs(res.h2_norm_2p**2 - h2_sq_star)
            )
            assert abs(res.lhs) <= 3.0 * budget
            assert budget <= 2e-3 * 2.0 * res.h2_norm_2p**2

        assert aubry_lower_bound(0.0, 1.0, p=36.0, C_np=1.0) == 2.0

        convex_cases = [
            (sphere4, geom_sphere4),
            (sphere5, geom_sphere5),
            (ellipsoid4, geom_ellipsoid4),
            (perturbed4, geom_perturbed4),
        ]
        for mesh, geo in convex_cases:
            assert geo.kappa[:, 0].min() > 0
            lam = lambda1(build_laplace(mesh)).lambda1
            # lambda1 <= 2 sup H^2 on a closed surface
            assert lam <= 2.0 * float(np.abs(geo.H).max()) ** 2 * 1.02


SWEEP_ARGS = dict(
    radius=1.0, degree=2, order=0, alpha=0.5,
    eps_grid=[0.4, 0.2, 0.1], subdivision=4, slack=0.99,
)


@pytest.fixture(scope="module")
def criterion7_sweep():
    start = time.perf_counter()
    result = sharpness_sweep(**SWEEP_ARGS)
    return result, time.perf_counter() - start


def test_criterion_7_theorem_end_to_end(criterion7_sweep):
    result, sweep_elapsed = criterion7_sweep
    with Budget("7 (theorem end-to-end)", 120 - sweep_elapsed):
        assert sweep_elapsed < 110
        rows = result.rows
        assert [r.epsilon for r in rows] == [0.4, 0.2, 0.1]
        assert all(r.contained for r in rows)
        osc = [r.oscillation for r in rows]
        assert osc[0] >= osc[1] >= osc[2]


def test_criterion_8_convergence_orders(tmp_path):
    with Budget("8 (convergence orders)", 180):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--subdivs", "3,4,5,6", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        data = [l.split(",") for l in lines[1:] if l[0].isdigit()]
        lam_errs = [float(row[header.index("lambda1_err")]) for row in data]
        assert all(lam_errs[i + 1] < lam_errs[i] for i in range(len(lam_errs) - 1))
        fit_rows = [l for l in lines if l.startswith("H_order_fit")]
        assert float(fit_rows[0].split(",")[1]) >= 1.5
        step_orders = [
            float(l.split(",")[1]) for l in lines if l.startswith("H_order_3_to_4")
            or l.startswith("H_order_4_to_5") or l.startswith("H_order_5_to_6")
        ]
        assert min(step_orders) >= 1.5


def test_criterion_9_determinism(criterion7_sweep, tmp_path):
    with Budget("9 (determinism)", 120):
        result, _ = criterion7_sweep
        rerun = sharpness_sweep(**SWEEP_ARGS)
        first = json.dumps(_jsonable(result), sort_keys=True)
        second = json.dumps(_jsonable(rerun), sort_keys=True)
        assert first == second

        # CLI verify leg: byte-identical payloads outside the meta block
        delta = result.rows[1].delta
        mesh = generate(PerturbedSphere(1.0, delta, 2, 0), 4)
        mesh_path = tmp_path / "c7.off"
        save_mesh(mesh, mesh_path)
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            assert main([
                "verify", "--mesh", str(mesh_path), "--epsilon", "0.2",
                "--alpha", "0.5", "--out", str(out),
            ]) == 0
        docs = []
        for out in outs:
            doc = json.loads(out.read_text())
            doc.pop("meta")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]
