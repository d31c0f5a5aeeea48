import numpy as np
import pytest

from umbilic.fields import integrate, lp_norm, lp_norm_log_pth_power, sublevel_measure
from umbilic.diffgeo import estimate_geometry
from umbilic.mesh import Mesh
from umbilic.pinching import PinchingConstants, unit_area
from umbilic.surfgen import Ellipsoid, PerturbedSphere, generate, oracle_curvatures_at_vertices


def normalize(mesh, geometries):
    """Unit-area record of a mesh and its curvatures (eps = 0.1, lambda1 = 2)."""
    return unit_area(mesh, geometries, PinchingConstants(alpha=0.5, epsilon=0.1), 2.0)


def unit_area_field(values):
    """(values, weights) of a field on n equal cells of total area 1."""
    values = np.asarray(values, dtype=float)
    return values, np.full(len(values), 1.0 / len(values))


def test_constant_field_all_p():
    f = unit_area_field(np.ones(50))
    for p in (1.0, 2.0, 3.5, 32.0, np.inf):
        assert lp_norm(*f, p) == pytest.approx(1.0, rel=1e-12)


def test_sup_norm():
    f = unit_area_field([1.0, -3.0, 2.0])
    assert lp_norm(*f, np.inf) == 3.0


def test_traceless_norm_small_on_sphere(geom_sphere5, sphere5):
    f = (geom_sphere5.A_traceless_norm, sphere5.vertex_areas)
    for p in (1.0, 2.0, 8.0, np.inf):
        assert lp_norm(*f, p) <= 0.02


def test_invalid_p():
    f = unit_area_field([1.0, 2.0])
    for p in (0.5, -np.inf, np.nan):
        with pytest.raises(ValueError):
            lp_norm(*f, p)


def test_zero_field_norms():
    f = unit_area_field(np.zeros(10))
    assert lp_norm(*f, 3.0) == 0.0
    assert lp_norm_log_pth_power(*f, 3.0) == -np.inf
    assert integrate(*f) == 0.0


def test_integrate_sphere_fields(geom_sphere5, sphere5):
    ones = (np.ones(sphere5.n_vertices), sphere5.vertex_areas)
    assert integrate(*ones) == pytest.approx(4 * np.pi, rel=1e-3)
    h = (geom_sphere5.H, sphere5.vertex_areas)
    assert integrate(*h) == pytest.approx(4 * np.pi, rel=1e-2)


def test_large_exponent_log_space():
    f = unit_area_field(np.linspace(0.5, 2.0, 100))
    val = lp_norm(*f, 180.0)
    assert np.isfinite(val)
    assert lp_norm(*f, np.inf) * 0.9 < val <= lp_norm(*f, np.inf) * (1 + 1e-12)
    # log of the p-th power stays finite even when the power itself overflows
    g = unit_area_field(np.full(10, 50.0))
    logp = lp_norm_log_pth_power(*g, 500.0)
    assert logp == pytest.approx(500.0 * np.log(50.0), rel=1e-12)


def test_lp_matches_direct_small_p():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=64)
    wts = rng.uniform(0.1, 2.0, size=64)
    f = (vals, wts)
    direct = (np.sum(wts * np.abs(vals) ** 2.5)) ** (1 / 2.5)
    assert lp_norm(*f, 2.5) == pytest.approx(direct, rel=1e-12)


def test_holder_monotonicity_unit_area():
    rng = np.random.default_rng(3)
    f = unit_area_field(rng.uniform(0.0, 3.0, 200))
    norms = [lp_norm(*f, p) for p in (1.0, 2.0, 8.0, 32.0, 128.0)]
    assert all(norms[i] <= norms[i + 1] * (1 + 1e-12) for i in range(len(norms) - 1))
    assert norms[-1] <= lp_norm(*f, np.inf) * (1 + 1e-12)


def test_lp_tends_to_sup():
    rng = np.random.default_rng(11)
    f = unit_area_field(rng.uniform(0.5, 4.0, 150))
    sup = lp_norm(*f, np.inf)
    gaps = [sup - lp_norm(*f, p) for p in (2.0, 8.0, 32.0, 128.0)]
    assert all(g >= -1e-12 for g in gaps)
    assert all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))


def test_chebyshev_bound():
    rng = np.random.default_rng(5)
    f = unit_area_field(rng.uniform(0.0, 2.0, 500))
    for t in (0.5, 1.0, 1.5):
        for p in (2.0, 6.0, 12.0):
            above = sublevel_measure(*f, t)
            assert above <= (lp_norm(*f, p) / t) ** p * (1 + 1e-12)


def test_sublevel_traceless_norm_sphere(geom_sphere5, sphere5):
    f = (geom_sphere5.A_traceless_norm, sphere5.vertex_areas)
    assert sublevel_measure(*f, 0.1) == 0.0
    assert sublevel_measure(*f, 0.0) == pytest.approx(sphere5.area, rel=1e-14)


def test_sublevel_edges():
    w = np.array([1.0, 2.0, 4.0])
    assert sublevel_measure([1.0, 2.0, 3.0], w, 0.5) == 7.0
    assert sublevel_measure([1.0, 2.0, 3.0], w, 10.0) == 0.0
    assert sublevel_measure([1.0, 2.0, 3.0], w, 2.0) == 6.0   # threshold at a value: >= side
    # a nan value is not below the threshold, so it is measured
    assert sublevel_measure([1.0, np.nan, 3.0], w, 2.0) == 6.0


def test_normalize_mesh(sphere4, geom_sphere4):
    unit = normalize(sphere4, geom_sphere4)
    c = unit.factor
    area = float(np.sum(sphere4.face_areas))
    assert c == pytest.approx(area ** -0.5, rel=1e-14)
    assert c == pytest.approx((4 * np.pi) ** -0.5, rel=1e-3)
    assert abs(float(np.sum(unit.weights)) - 1.0) < 1e-10
    new_area = float(np.sum(Mesh(sphere4.vertices * c, sphere4.faces).face_areas))
    assert abs(new_area - 1.0) < 1e-10
    assert unit.constants.epsilon == pytest.approx(0.1 * c, rel=1e-15)
    assert np.allclose(unit.geometries.H, geom_sphere4.H / c, rtol=1e-15, atol=0.0)


def test_normalize_unit_area_mesh(sphere4, geom_sphere4):
    c1 = normalize(sphere4, geom_sphere4).factor
    once = Mesh(sphere4.vertices * c1, sphere4.faces)
    c2 = normalize(once, geom_sphere4.rescaled(c1)).factor
    twice = Mesh(once.vertices * c2, once.faces)
    assert c2 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(twice.vertices, once.vertices, rtol=1e-12)


def test_normalize_sphere2():
    # discrete area at subdivision 3 sits ~0.5% under 16*pi
    mesh = generate(PerturbedSphere(2.0), 3)
    c = normalize(mesh, estimate_geometry(mesh)).factor
    assert c == pytest.approx((16 * np.pi) ** -0.5, rel=5e-3)


def test_field_validation(sphere4):
    # every function checks its (values, weights) before reducing them
    calls = [
        integrate,
        lambda v, w: lp_norm(v, w, 2.0),
        lambda v, w: lp_norm(v, w, np.inf),
        lambda v, w: lp_norm_log_pth_power(v, w, 2.0),
        lambda v, w: sublevel_measure(v, w, 0.5),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="weights must be strictly positive"):
            call(np.ones(3), np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="must be equal-length 1-D arrays"):
            call(np.ones(3), np.ones(4))
    # the vertex areas partition the mesh area
    f = (np.ones(sphere4.n_vertices), sphere4.vertex_areas)
    assert integrate(*f) == pytest.approx(float(np.sum(sphere4.face_areas)), rel=1e-14)


def test_rescaling_law(sphere4, geom_sphere4):
    # X -> c X scales area by c^2, curvature by 1/c, Ricci and lambda1 by
    # 1/c^2 and the length eps by c
    unit = unit_area(
        sphere4, geom_sphere4, PinchingConstants(alpha=0.5, epsilon=0.1), 8.0
    )
    c = unit.factor
    assert np.array_equal(unit.weights, sphere4.vertex_areas * c**2)
    assert unit.lambda1 == 8.0 * c**-2
    assert np.array_equal(unit.geometries.kappa, geom_sphere4.kappa * (1.0 / c))
    assert np.array_equal(unit.geometries.H2, geom_sphere4.H2 * (1.0 / c) ** 2)
    assert unit.constants.epsilon == 0.1 * c


def test_pinching_ratio_scale_invariant():
    surf1, surf2 = Ellipsoid(2.0, 1.0, 1.0), Ellipsoid(4.0, 2.0, 2.0)
    m1 = generate(surf1, 3)
    m2 = Mesh(m1.vertices * 2.0, m1.faces)
    o1 = oracle_curvatures_at_vertices(surf1, m1)
    o2 = oracle_curvatures_at_vertices(surf2, m2)
    r1 = o1.A_traceless_norm / o1.H
    r2 = o2.A_traceless_norm / o2.H
    assert np.allclose(r1, r2, rtol=1e-12, atol=1e-14)


def test_deterministic_reduction(geom_sphere5, sphere5):
    f = (geom_sphere5.H, sphere5.vertex_areas)
    assert integrate(*f) == integrate(*f)
    assert lp_norm(*f, 7.3) == lp_norm(*f, 7.3)
