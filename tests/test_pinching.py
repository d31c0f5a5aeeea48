import dataclasses
import math
import os
import time

import numpy as np
import pytest

from umbilic import diffgeo, pinching, spectral
from umbilic.diffgeo import SurfaceGeometry, estimate_geometry
from umbilic.fields import lp_norm
from umbilic.mesh import Mesh, validate_mesh
from umbilic.pinching import (
    PinchingConstants,
    _annulus,
    amplitude_for_ratio,
    check_hypothesis,
    eta_of_epsilon,
    fit_umbilical_mu,
    pinch_ratio,
    proof_trace,
    roth_condition,
    sharpness_sweep,
    unit_area,
    verify_theorem,
)
from umbilic.spectral import ConvergenceError, lambda1
from umbilic.surfgen import (
    Ellipsoid,
    PerturbedSphere,
    generate,
    harmonic_sup,
    oracle_curvatures_at_vertices,
)

from conftest import make_torus


def with_field(geometry, **overrides):
    """Copy of a geometry record with some per-vertex arrays replaced."""
    return dataclasses.replace(geometry, **overrides)


# -- constants ------------------------------------------------------------------


def test_constants_validation():
    with pytest.raises(ValueError):
        PinchingConstants(alpha=0.0, epsilon=0.1)
    with pytest.raises(ValueError):
        PinchingConstants(alpha=1.0, epsilon=0.1)
    for eps in (-1.0, 0.0):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            PinchingConstants(alpha=0.5, epsilon=eps)
    with pytest.raises(ValueError):
        PinchingConstants(alpha=0.5, epsilon=0.1, L=0.0)
    # eps^(2+alpha) is checked on every record, a rescaled one too
    with pytest.raises(ValueError, match=r"^epsilon\^\(2\+alpha\) overflows a float"):
        PinchingConstants(alpha=0.5, epsilon=0.1).rescaled(1e200)
    # p = n + 1 is fixed, like n
    with pytest.raises(TypeError):
        PinchingConstants(alpha=0.5, epsilon=0.1, p_roth=4.0)


def test_constants_derived_values():
    c = PinchingConstants(alpha=0.5, epsilon=0.2)
    assert c.n == 2 and c.rescaled(3.0).n == 2
    with pytest.raises(TypeError):
        PinchingConstants(alpha=0.5, epsilon=0.2, n=3)
    assert c.p_roth == 3.0  # n + 1
    assert c.kp == pytest.approx(36.0)   # k = 6/alpha = 12 times p = 3
    # (1/sqrt(2))^(1/2.5) = 2^(-0.2)
    assert c.c_threshold == pytest.approx(2.0 ** -0.2, rel=1e-14)
    scaled = c.rescaled(2.0)
    assert scaled.epsilon == 0.4
    assert scaled.alpha == c.alpha and scaled.L == c.L


# -- hypothesis -------------------------------------------------------------------


def test_hypothesis_sphere_holds(sphere4, geom_sphere4):
    c = PinchingConstants(alpha=0.5, epsilon=0.5)
    res = check_hypothesis(sphere4, geom_sphere4, c)
    assert res.holds
    assert res.worst_margin > 0
    assert res.epsilon_admissible
    assert res.margins.shape == (sphere4.n_vertices,)


def test_hypothesis_fails_beyond_threshold():
    # amplitude tuned 3x past the pinching target must give a negative margin
    eps, alpha = 0.3, 0.5
    c = PinchingConstants(alpha=alpha, epsilon=eps)
    delta, _, searched = amplitude_for_ratio(2, 0, c, 3, slack=3.0)
    surf = PerturbedSphere(1.0, delta, 2, 0)
    mesh = generate(surf, 3)
    # the search hands back the mesh its final ratio was measured on
    assert np.array_equal(searched.vertices, mesh.vertices)
    assert np.array_equal(searched.faces, mesh.faces)
    res = check_hypothesis(mesh, oracle_curvatures_at_vertices(surf, mesh), c)
    assert not res.holds
    assert res.worst_margin < 0


@pytest.mark.parametrize("slack", [0.0, -1.0, math.inf, math.nan])
def test_amplitude_search_rejects_bad_target(monkeypatch, slack):
    # the target is checked before any mesh is built (eps and alpha are
    # checked by the constants record the search takes)
    def no_mesh(*args):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr("umbilic.surfgen.generate", no_mesh)
    with pytest.raises(ValueError, match="not finite and positive"):
        amplitude_for_ratio(
            2, 0, PinchingConstants(alpha=0.5, epsilon=0.2), 1, slack=slack
        )


def test_hypothesis_requires_mean_convexity(torus):
    geo = estimate_geometry(torus)
    c = PinchingConstants(alpha=0.5, epsilon=0.1)
    with pytest.raises(ValueError, match="mean-convexity"):
        check_hypothesis(torus, geo, c)


def test_hypothesis_scale_covariance():
    surf1, surf2 = Ellipsoid(1.2, 1.0, 1.1), Ellipsoid(2.4, 2.0, 2.2)
    m1 = generate(surf1, 3)
    m2 = Mesh(m1.vertices * 2.0, m1.faces)
    c1 = PinchingConstants(alpha=0.5, epsilon=0.3)
    c2 = c1.rescaled(2.0)
    r1 = check_hypothesis(m1, oracle_curvatures_at_vertices(surf1, m1), c1)
    r2 = check_hypothesis(m2, oracle_curvatures_at_vertices(surf2, m2), c2)
    assert r1.holds == r2.holds
    assert r1.epsilon_admissible == r2.epsilon_admissible
    assert np.allclose(r2.margins, 0.5 * r1.margins, rtol=1e-9, atol=1e-15)


def test_epsilon_admissibility_threshold(sphere4, geom_sphere4):
    area = float(np.sum(sphere4.face_areas))
    c_small = PinchingConstants(alpha=0.5, epsilon=0.9 * 2.0**-0.2 * area**0.5)
    c_large = PinchingConstants(alpha=0.5, epsilon=1.1 * 2.0**-0.2 * area**0.5)
    assert check_hypothesis(sphere4, geom_sphere4, c_small).epsilon_admissible
    assert not check_hypothesis(sphere4, geom_sphere4, c_large).epsilon_admissible


# -- spectral condition ------------------------------------------------------------


@pytest.fixture(scope="module")
def normalized_sphere4(sphere4, geom_sphere4):
    return unit_area(
        sphere4, geom_sphere4, PinchingConstants(alpha=0.5, epsilon=0.2),
        lambda1(sphere4).lambda1,
    )


def test_roth_sphere_equality_case(normalized_sphere4):
    res = roth_condition(normalized_sphere4)
    # on the round sphere lambda1*(int H)^2 = n*||H2||^2 up to discretization
    scale = 2.0 * res.h2_norm_2p**2
    assert abs(res.lhs) <= 1e-3 * scale
    assert res.holds
    assert res.c_eps > 0
    assert res.threshold == -res.c_eps
    assert res.c_eps == pytest.approx(0.5 * min(res.constituents.values()), rel=1e-14)


def test_roth_c_eps_formula(normalized_sphere4):
    unit = normalized_sphere4
    consts = PinchingConstants(alpha=0.5, epsilon=0.2, L=0.001).rescaled(unit.factor)
    res = roth_condition(dataclasses.replace(unit, constants=consts))
    lam_t = unit.lambda1
    eps_t = consts.epsilon
    expected = 0.5 * min(
        0.001 * math.sqrt(2.0 / lam_t) * eps_t**2,
        0.001,
        1.0,
        0.5 * 2.0 * res.h2_norm_2p**2,
    )
    assert res.c_eps == pytest.approx(expected, rel=1e-12)


def test_roth_requires_unit_area(sphere4, geom_sphere4):
    unit = unit_area(
        sphere4, geom_sphere4, PinchingConstants(alpha=0.5, epsilon=0.05), 2.0
    )
    with pytest.raises(ValueError, match="unit-area"):
        roth_condition(dataclasses.replace(unit, weights=sphere4.vertex_areas))


def test_roth_requires_positive_h2(normalized_sphere4):
    geo_t = normalized_sphere4.geometries
    h2 = geo_t.H2.copy()
    h2[3] = -1e-3
    bad = dataclasses.replace(
        normalized_sphere4,
        geometries=with_field(geo_t, H2=h2),
        constants=PinchingConstants(alpha=0.5, epsilon=0.01),
    )
    with pytest.raises(ValueError, match="H2"):
        roth_condition(bad)


def test_roth_epsilon_too_large(normalized_sphere4):
    h_inf = float(np.abs(normalized_sphere4.geometries.H).max())
    eps_big = 2.0 / (3.0 * h_inf) * 1.01
    big = dataclasses.replace(
        normalized_sphere4, constants=PinchingConstants(alpha=0.5, epsilon=eps_big)
    )
    with pytest.raises(ValueError, match="eps"):
        roth_condition(big)


# -- annulus and phi ---------------------------------------------------------------


def verified(mesh, epsilon):
    """verify_theorem without the proof trace."""
    return verify_theorem(
        mesh, PinchingConstants(alpha=0.5, epsilon=epsilon), with_trace=False
    )


def barycenter_distances(mesh):
    center = mesh.barycenter
    return center, np.linalg.norm(mesh.vertices - center, axis=1)


def test_annulus_sphere_three():
    res = verified(generate(PerturbedSphere(3.0), 4), epsilon=0.05).annulus
    assert res.r_lambda == pytest.approx(3.0, rel=1e-3)
    assert res.min_dist == pytest.approx(3.0, rel=1e-12)
    assert res.max_dist == pytest.approx(3.0, rel=1e-12)
    assert res.contained
    assert res.oscillation <= 1e-10


def test_annulus_perturbed(perturbed4):
    surf_delta = 0.005
    mesh = generate(PerturbedSphere(1.0, surf_delta, 2, 0), 4)
    res = verified(mesh, epsilon=0.1).annulus
    assert res.contained
    assert res.oscillation <= 2 * surf_delta * harmonic_sup(2, 0) + 1e-6


def test_annulus_inner_radius_guard(sphere4, lam1_sphere4):
    lam = lam1_sphere4.lambda1
    center, dist = barycenter_distances(sphere4)
    with pytest.raises(ValueError, match="inner radius"):
        _annulus(center, dist, lam, math.sqrt(2.0 / lam) * 1.01)
    with pytest.raises(ValueError):
        _annulus(center, dist, 0.0, 0.1)


def test_annulus_containment_definition(perturbed4):
    res = verified(perturbed4, epsilon=0.2).annulus
    assert res.contained == (
        res.inner <= res.min_dist and res.max_dist <= res.outer
    )
    assert res.oscillation == pytest.approx(res.max_dist - res.min_dist)


def test_phi_sup_sphere(sphere5, lam1_sphere5):
    # vertices sit essentially at radius sqrt(2/lambda1): phi ~ 0
    report = verified(sphere5, epsilon=0.2)
    assert report.lambda1 == lam1_sphere5.lambda1
    assert report.phi_sup <= 1e-3


def phi_sup(mesh, lam):
    """sup of |X - x0| (|X - x0| - sqrt(2/lambda1))^2 over the vertices."""
    dist = barycenter_distances(mesh)[1]
    return float((dist * (dist - math.sqrt(2.0 / lam)) ** 2).max())


def test_phi_sup_formula(perturbed4):
    report = verified(perturbed4, epsilon=0.2)
    expected = phi_sup(perturbed4, report.lambda1)
    assert report.phi_sup == pytest.approx(expected, rel=1e-14)


def test_eta_inequality(geom_perturbed4, perturbed4):
    lam = lambda1(perturbed4).lambda1
    h_inf = float(np.abs(geom_perturbed4.H).max())
    r_lam = math.sqrt(2.0 / lam)
    cap = 2.0 / (3.0 * h_inf)
    for frac in (0.15, 0.3, 0.5, 0.7, 0.9):
        eps = frac * cap
        eta = eta_of_epsilon(lam, h_inf, eps)
        lower = min(r_lam * eps**2 / 3.0, 1.0 / (27.0 * h_inf**3))
        assert eta >= lower * (1 - 1e-12)


# -- umbilical fit ------------------------------------------------------------------


def test_mu_fit_p2_closed_form(geom_ellipsoid4, ellipsoid4):
    w = ellipsoid4.vertex_areas
    mu = fit_umbilical_mu(geom_ellipsoid4, w, 2.0)
    assert mu == pytest.approx(np.sum(w * geom_ellipsoid4.H) / np.sum(w), rel=1e-8)


def test_mu_fit_sphere_all_p(geom_sphere4, sphere4):
    for p in (2.0, 4.0, 36.0):
        mu = fit_umbilical_mu(geom_sphere4, sphere4.vertex_areas, p)
        assert mu == pytest.approx(1.0, abs=2e-3)
        dev = np.hypot(*(geom_sphere4.kappa - mu).T)
        assert lp_norm(dev, sphere4.vertex_areas, p) <= 1e-2


def test_mu_fit_two_point_toy_grid_oracle():
    # kappa = (1,1) and (3,3), equal weights, p = 4; independent grid scan
    geo = _toy_geometry([[1.0, 1.0], [3.0, 3.0]])
    weights = np.array([0.5, 0.5])
    mu = fit_umbilical_mu(geo, weights, 4.0)
    mus = np.arange(1.0, 3.0 + 1e-12, 1e-6)
    vals = 0.5 * (2.0 * (1.0 - mus) ** 2) ** 2 + 0.5 * (2.0 * (3.0 - mus) ** 2) ** 2
    mu_grid = mus[np.argmin(vals)]
    assert abs(mu - mu_grid) < 1e-5


def test_mu_fit_asymmetric_weights_grid_oracle():
    geo = _toy_geometry([[0.5, 1.0], [2.0, 2.5], [3.0, 3.0]])
    weights = np.array([0.2, 0.5, 0.3])
    mu = fit_umbilical_mu(geo, weights, 6.0)
    mus = np.arange(0.5, 3.0 + 1e-12, 1e-6)
    k = np.array([[0.5, 1.0], [2.0, 2.5], [3.0, 3.0]])
    dev2 = (k[:, 0][:, None] - mus) ** 2 + (k[:, 1][:, None] - mus) ** 2
    vals = (weights[:, None] * dev2**3.0).sum(axis=0)
    mu_grid = mus[np.argmin(vals)]
    assert abs(mu - mu_grid) < 1e-5
    lo = k[:, 0].min()
    hi = k[:, 1].max()
    assert lo <= mu <= hi


def _toy_geometry(kappas):
    kappa = np.asarray(kappas, dtype=float)
    return SurfaceGeometry.from_split(
        0.5 * (kappa[:, 0] + kappa[:, 1]), 0.5 * (kappa[:, 1] - kappa[:, 0])
    )


def test_mu_fit_rejects_small_p(geom_sphere4, sphere4):
    for p in (1.5, np.nan):
        with pytest.raises(ValueError):
            fit_umbilical_mu(geom_sphere4, sphere4.vertex_areas, p)


# -- proof trace --------------------------------------------------------------------


def test_proof_trace_sphere(sphere4, geom_sphere4, lam1_sphere4):
    c = PinchingConstants(alpha=0.5, epsilon=0.2)
    tr = proof_trace(unit_area(sphere4, geom_sphere4, c, lam1_sphere4.lambda1))
    assert tr.kp == pytest.approx(36.0)
    assert tr.mu0_bracket[0] <= tr.mu0 <= tr.mu0_bracket[1]
    assert tr.bad_set_P_measure == 0.0
    assert tr.bad_set_Pgamma_measure == 0.0
    assert tr.ricci_deficit_integral <= 1e-100
    assert tr.aubry_bound == pytest.approx(2.0, abs=1e-3)
    assert tr.aubry_bound_normalized == pytest.approx(tr.mu0**2 * tr.aubry_bound)
    assert tr.gamma == pytest.approx(tr.eps_tilde ** 2.25, rel=1e-12)
    assert tr.gamma_ok and not tr.warnings


def test_proof_trace_perturbed(perturbed4, geom_perturbed4):
    c = PinchingConstants(alpha=0.5, epsilon=0.2)
    lam = lambda1(perturbed4).lambda1
    tr = proof_trace(unit_area(perturbed4, geom_perturbed4, c, lam))
    assert tr.mu0_bracket[0] <= tr.mu0 <= tr.mu0_bracket[1]
    assert tr.bad_set_Pgamma_measure <= tr.chebyshev_bound_Pgamma * (1 + 1e-12)
    assert tr.bad_set_P_measure <= tr.bad_set_P_bound * (1 + 1e-12)
    assert np.isfinite(tr.dev_norm_kp)
    assert tr.eta_eps > 0
    assert tr.lambda1_normalized > 0


def test_proof_trace_gamma_warning(sphere4, geom_sphere4, lam1_sphere4):
    # epsilon past the normalized-unity scale violates the gamma requirement
    c = PinchingConstants(alpha=0.5, epsilon=4.0)
    tr = proof_trace(unit_area(sphere4, geom_sphere4, c, lam1_sphere4.lambda1))
    assert not tr.gamma_ok
    assert any("gamma" in w for w in tr.warnings)


def test_proof_trace_aubry_warning():
    # a constant this large puts the Ricci deficit past volume/C: the
    # bound is vacuous and the trace says so, but nothing fails
    mesh = generate(PerturbedSphere(1.0, 0.2, 2, 0), 3)
    c = PinchingConstants(alpha=0.5, epsilon=0.2, C_np_aubry=1e30)
    report = verify_theorem(mesh, c)
    assert report.failure is None
    assert report.trace.aubry_bound is None
    assert report.trace.aubry_bound_normalized is None
    assert len(report.trace.warnings) == 1
    assert "Ricci-deficit integral exceeds volume/C(n,p)" in report.trace.warnings[0]


def test_proof_trace_negative_aubry_bound_warns():
    # with C = 1e3 the deficit passes the volume/C test, but the bound
    # 2(1 - C (deficit/volume)^(1/p)) would be negative: it is vacuous
    mesh = generate(PerturbedSphere(1.0, 0.2, 2, 0), 3)
    c = PinchingConstants(alpha=0.5, epsilon=0.2, C_np_aubry=1e3)
    report = verify_theorem(mesh, c)
    assert report.failure is None
    assert report.trace.aubry_bound is None
    assert report.trace.aubry_bound_normalized is None
    assert len(report.trace.warnings) == 1
    assert "spectral lower bound vacuous" in report.trace.warnings[0]


def test_proof_trace_requires_convexity(torus):
    geo = estimate_geometry(torus)
    lam = lambda1(torus).lambda1
    unit = unit_area(torus, geo, PinchingConstants(alpha=0.5, epsilon=0.1), lam)
    with pytest.raises(ValueError, match="convexity"):
        proof_trace(unit)


# -- end-to-end -----------------------------------------------------------------------


def test_verify_sphere_model_case(sphere4):
    report = verify_theorem(sphere4, PinchingConstants(alpha=0.5, epsilon=0.2))
    assert report.failure is None
    assert report.hypothesis.holds
    assert report.strictly_convex
    assert report.roth.holds
    assert report.annulus.contained
    assert report.oscillation < 1e-10
    assert report.phi_sup < 1e-6
    assert report.trace is not None
    assert report.lambda1 == pytest.approx(2.0, rel=0.01)
    assert report.lambda1_normalized == pytest.approx(
        report.lambda1 * report.area, rel=1e-12
    )


def test_verify_strong_perturbation_reports_failure_diagnostics():
    # hypothesis fails but the annulus is still measured
    surf = PerturbedSphere(1.0, 0.3, 2, 0)
    mesh = generate(surf, 3)
    report = verify_theorem(mesh, PinchingConstants(alpha=0.5, epsilon=0.1))
    assert report.hypothesis is not None
    assert not report.hypothesis.holds
    assert report.annulus is not None
    assert report.oscillation > 0.1
    assert report.failure is None


def test_verify_lambda1_failure_carries_certificate(sphere3):
    # tol below double precision: the failure names the best pair it had
    report = verify_theorem(
        sphere3, PinchingConstants(alpha=0.5, epsilon=0.2), tol=1e-17
    )
    assert report.failure.startswith("lambda1: residual above tol")
    assert "best lambda1 1.99999" in report.failure
    assert "residual " in report.failure
    assert report.lambda1 is None
    # every field derived from lambda1's result stays None; spectral keeps
    # the error that carries the certificate
    for name in ("lambda1_normalized", "lambda1_residual", "roth", "annulus",
                 "oscillation", "phi_sup", "trace"):
        assert getattr(report, name) is None, name
    assert isinstance(report.spectral, ConvergenceError)


def test_verify_non_mean_convex_halts():
    # a genus-0 sphere with deep l4 dents: H < 0 inside them
    bumpy = generate(PerturbedSphere(1.0, 0.45, 4, 0), 3)
    report = verify_theorem(bumpy, PinchingConstants(alpha=0.5, epsilon=0.1))
    assert report.failure is not None
    assert "mean-convexity" in report.failure
    assert report.hypothesis is None
    assert report.strictly_convex is False
    assert report.lambda1 is None
    assert report.roth is None
    assert report.annulus is None
    assert report.trace is None


def test_verify_rejects_torus():
    # a mean-convex torus passes validation and gave lambda1 = 1.03 and a
    # contained annulus at eps = 1; the theorem's surfaces are spheres
    thin = make_torus(1.0, 0.3, 96, 48)
    assert validate_mesh(thin).all_passed
    with pytest.raises(ValueError, match=r"^Euler characteristic 0 != 2"):
        verify_theorem(thin, PinchingConstants(alpha=0.5, epsilon=1.0))


def test_verify_rejects_invalid_mesh(sphere3):
    from umbilic.mesh import Mesh

    open_mesh = Mesh(sphere3.vertices, sphere3.faces[1:])
    with pytest.raises(ValueError, match="validation failed: closed=False"):
        verify_theorem(open_mesh, PinchingConstants(alpha=0.5, epsilon=0.1))


def test_verify_rejects_invalid_mesh_after_cached_validation(sphere3):
    # the cached report of a failed validation still stops a direct call
    open_mesh = Mesh(sphere3.vertices, sphere3.faces[1:])
    assert not validate_mesh(open_mesh).all_passed
    with pytest.raises(ValueError, match="validation"):
        verify_theorem(open_mesh, PinchingConstants(alpha=0.5, epsilon=0.1))


def test_sweep_builds_each_mesh_once(monkeypatch):
    # one icosphere per pinch_ratio call; the verify reuses the search's mesh
    import umbilic.pinching as pinching

    calls = {"generate": 0, "ratio": 0}

    def count(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pinching.surfgen, "generate",
                        count("generate", pinching.surfgen.generate))
    monkeypatch.setattr(pinching, "pinch_ratio",
                        count("ratio", pinching.pinch_ratio))
    counts = []
    for _ in range(2):
        calls.update(generate=0, ratio=0)
        sharpness_sweep(2, 0, alpha=0.5, eps_grid=[0.3, 0.2], subdivision=2)
        assert calls["generate"] == calls["ratio"]
        counts.append(calls["ratio"])
    # the positivity limit plus nine search steps per eps, the same each run
    assert counts == [2 * (1 + 9)] * 2
    assert counts[0] <= 2 * 15


def test_sweep_verifies_without_trace(monkeypatch):
    # a sweep row reads no trace field, so the sweep never builds one
    import umbilic.pinching as pinching

    def no_trace(unit):
        raise AssertionError("proof_trace called by the sweep")

    monkeypatch.setattr(pinching, "proof_trace", no_trace)
    result = sharpness_sweep(2, 0, alpha=0.5, eps_grid=[0.3], subdivision=2)
    assert result.rows[0].contained


def test_verify_scale_covariance_booleans(sphere3):
    c1 = PinchingConstants(alpha=0.5, epsilon=0.2)
    r1 = verify_theorem(sphere3, c1, with_trace=False)
    doubled = Mesh(sphere3.vertices * 2.0, sphere3.faces)
    r2 = verify_theorem(doubled, c1.rescaled(2.0), with_trace=False)
    assert r1.hypothesis.holds == r2.hypothesis.holds
    assert r1.roth.holds == r2.roth.holds
    assert r1.annulus.contained == r2.annulus.contained
    assert r2.lambda1 == pytest.approx(r1.lambda1 / 4.0, rel=1e-9)
    assert r2.oscillation == pytest.approx(2.0 * r1.oscillation, rel=1e-6, abs=1e-12)


# -- sweep ------------------------------------------------------------------------


def test_pinch_ratio_nonconvex_guard(torus):
    # oracle route is only defined for the analytic families; use a surface
    # whose oracle loses mean-convexity: a heavily perturbed sphere
    surf = PerturbedSphere(1.0, 1.4, 2, 0)
    mesh = generate(surf, 2)
    c = PinchingConstants(alpha=0.5, epsilon=0.2)
    assert pinch_ratio(surf, mesh, c) == math.inf


def test_amplitude_search_reaches_small_eps():
    # the finite-difference oracle's noise stopped this search at 1.2% off
    c = PinchingConstants(alpha=0.5, epsilon=0.05)
    delta, achieved, _ = amplitude_for_ratio(2, 0, c, 4)
    assert delta > 0
    assert achieved == pytest.approx(0.05**2.5, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_amplitude_search_bisects_past_lost_convexity():
    # the oracle loses mean-convexity at the positivity limit (ratio inf),
    # so the first steps bisect; no inf/inf reaches the secant as a warning
    eps, alpha = 0.1, 0.5
    delta_max = 0.9 / harmonic_sup(3, -1)
    surf = PerturbedSphere(1.0, delta_max, 3, -1)
    c = PinchingConstants(alpha=alpha, epsilon=eps)
    assert pinch_ratio(surf, generate(surf, 3), c) == math.inf
    _, achieved, _ = amplitude_for_ratio(3, -1, c, 3)
    assert achieved == pytest.approx(eps**2.5, rel=1e-6)


def test_amplitude_search_positivity_failure():
    # the constant harmonic (l=0) never bends the sphere: no amplitude works
    with pytest.raises(ValueError, match="amplitude search failed"):
        amplitude_for_ratio(0, 0, PinchingConstants(alpha=0.5, epsilon=0.3), 2)


def test_sharpness_sweep_rows_and_fit():
    result = sharpness_sweep(2, 0, alpha=0.5, eps_grid=[0.4, 0.2, 0.1], subdivision=3)
    assert len(result.rows) == 3
    eps = [r.epsilon for r in result.rows]
    assert eps == [0.4, 0.2, 0.1]
    osc = [r.oscillation for r in result.rows]
    assert osc[0] >= osc[1] >= osc[2]
    assert all(r.contained for r in result.rows)
    assert all(r.delta > 0 for r in result.rows)
    # delta(eps) ~ eps^(2+alpha) forces the oscillation slope to 2+alpha
    assert result.fit_slope == pytest.approx(2.5, rel=0.1)


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sharpness_sweep(2, 0, alpha=0.5, eps_grid=[0.4, -0.1])


def test_verify_reports_phi_when_annulus_raises():
    # eps = 1.5 breaks both the spectral condition (eps~ >= 2/(3 sup H~)) and
    # the annulus (eps >= sqrt(2/lambda1)); phi_sup is still reported
    mesh = generate(PerturbedSphere(1.0), 3)
    report = verify_theorem(
        mesh, PinchingConstants(alpha=0.5, epsilon=1.5), with_trace=False
    )
    assert report.failure.startswith("spectral condition:")
    assert report.roth is None and report.annulus is None
    assert report.oscillation is None
    assert report.phi_sup == phi_sup(mesh, report.lambda1)


def test_verify_names_first_failure_and_runs_later_stages(sphere3):
    # the spectral condition fails first; the annulus fails too but is not
    # named, and phi and the proof trace still run
    report = verify_theorem(sphere3, PinchingConstants(alpha=0.5, epsilon=1.5))
    assert report.failure.startswith("spectral condition:")
    assert report.annulus is None
    assert report.phi_sup is not None
    assert report.trace is not None
    assert any(w.startswith("normalized eps = ") and ">= 2/(3 sup H)" in w
               for w in report.trace.warnings)


# -- the fit in a forked child beside lambda1 ------------------------------------
#
# verify_theorem fits the jets in one forked child while lambda1 runs here.
# With 256-vertex blocks the child's fit of an s3 mesh (642 vertices) spans
# three blocks, which a process that was not forked would split in halves.


def raising(exc):
    """A stand-in for `spectral.lambda1` that records its call and raises `exc`."""
    calls = []

    def lambda1(mesh, tol):
        calls.append(mesh)
        raise exc

    lambda1.calls = calls
    return lambda1


@pytest.mark.parametrize("delta, degree", [(0.01, 2), (0.45, 4)], ids=["l2", "bumpy"])
def test_verify_reads_the_child_fit_whole(delta, degree, monkeypatch, forked):
    # the curvature record comes back from the child bit for bit: the
    # margins and the convexity minima equal those of a fit made here
    mesh = generate(PerturbedSphere(1.0, delta, degree, 0), 3)
    geometries = estimate_geometry(mesh)
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 256)
    report = verify_theorem(mesh, PinchingConstants(alpha=0.5, epsilon=0.2))
    assert len(forked) == 1
    assert report.convexity == diffgeo.convexity_status(geometries)
    if report.hypothesis is None:
        with pytest.raises(ValueError) as error:
            check_hypothesis(mesh, geometries, PinchingConstants(alpha=0.5, epsilon=0.2))
        assert report.failure == f"hypothesis: {error.value}"
    else:
        expected = check_hypothesis(mesh, geometries, PinchingConstants(alpha=0.5, epsilon=0.2))
        assert np.array_equal(report.hypothesis.margins, expected.margins)
        assert report.lambda1 == lambda1(mesh).lambda1


@pytest.mark.parametrize("lambda1_raises", [
    None,
    ValueError("need at least 4 vertices"),
    ConvergenceError("no certified pair", 2.0, 1.0, 96),
], ids=["result", "value-error", "convergence-error"])
def test_verify_failed_hypothesis_discards_lambda1(lambda1_raises, monkeypatch, forked):
    # whatever lambda1 gave, the hypothesis fails first and every field
    # derived from lambda1 stays None
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 256)
    if lambda1_raises is not None:
        monkeypatch.setattr(spectral, "lambda1", raising(lambda1_raises))
    bumpy = generate(PerturbedSphere(1.0, 0.45, 4, 0), 3)
    report = verify_theorem(bumpy, PinchingConstants(alpha=0.5, epsilon=0.1))
    assert report.failure.startswith("hypothesis: mean-convexity violated")
    for name in ("hypothesis", "lambda1", "lambda1_normalized", "lambda1_residual",
                 "spectral", "roth", "annulus", "oscillation", "phi_sup", "trace"):
        assert getattr(report, name) is None, name
    assert report.strictly_convex is False
    assert len(forked) == 1
    if lambda1_raises is not None:
        assert spectral.lambda1.calls == [bumpy]


def test_verify_lambda1_failure_beside_the_fit(sphere3, monkeypatch, forked):
    # the ConvergenceError that lambda1 raises here is recorded as the
    # lambda1 failure, with its certificate
    with pytest.raises(ConvergenceError) as error:
        lambda1(sphere3, tol=1e-17)
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 256)
    report = verify_theorem(sphere3, PinchingConstants(alpha=0.5, epsilon=0.2),
                            tol=1e-17)
    assert len(forked) == 1
    assert report.failure == f"lambda1: {error.value}"
    assert isinstance(report.spectral, ConvergenceError)
    assert report.spectral.__reduce__() == error.value.__reduce__()
    assert report.hypothesis is not None and report.lambda1 is None


def test_verify_error_from_lambda1_raised_after_the_fit(sphere3, monkeypatch, forked):
    # an error other than ConvergenceError still leaves verify_theorem once
    # the hypothesis holds
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 256)
    monkeypatch.setattr(spectral, "lambda1", raising(ValueError("lambda1 failed")))
    with pytest.raises(ValueError, match="^lambda1 failed$"):
        verify_theorem(sphere3, PinchingConstants(alpha=0.5, epsilon=0.2))
    assert len(forked) == 1


def test_verify_interrupt_kills_fit_child(sphere3, monkeypatch, forked):
    # the child would fit for a minute; an interrupt in lambda1 ends it
    parent, fit = os.getpid(), pinching.estimate_geometry

    def slow_in_child(mesh):
        if os.getpid() != parent:
            time.sleep(60)
        return fit(mesh)

    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 256)
    monkeypatch.setattr(pinching, "estimate_geometry", slow_in_child)
    monkeypatch.setattr(spectral, "lambda1", raising(KeyboardInterrupt()))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify_theorem(sphere3, PinchingConstants(alpha=0.5, epsilon=0.2))
    assert time.monotonic() - start < 30
    assert len(forked) == 1


def test_verify_forks_one_child_that_forks_none(sphere3, tmp_path, monkeypatch, forked):
    # each fork call is logged by its caller's pid
    log, fork = tmp_path / "forks", os.fork

    def logged_fork():
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 256)
    monkeypatch.setattr(os, "fork", logged_fork)
    report = verify_theorem(sphere3, PinchingConstants(alpha=0.5, epsilon=0.2))
    assert report.failure is None
    assert log.read_text().split() == [str(os.getpid())]
    assert len(forked) == 1
