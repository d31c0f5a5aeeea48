import dataclasses

import numpy as np
import pytest

from umbilic.diffgeo import (
    convexity_status,
    estimate_geometry,
    ricci_deficit,
    ricci_from_gauss,
)
from umbilic.mesh import Mesh
from umbilic.surfgen import (
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    generate,
    oracle_curvatures_at_vertices,
)


def test_unit_sphere_estimates(geom_sphere5):
    assert np.abs(geom_sphere5.H - 1.0).max() < 0.01
    assert geom_sphere5.A_traceless_norm.max() < 0.02


def test_sphere_radius_two():
    mesh = generate(Sphere(2.0), 4)
    geo = estimate_geometry(mesh)
    assert np.abs(geo.H - 0.5).max() < 5e-3
    assert np.abs(geo.H2 - 0.25).max() < 5e-3


def test_ellipsoid_matches_fd_oracle():
    surf = Ellipsoid(2.0, 1.0, 1.0)
    mesh = generate(surf, 5)
    geo = estimate_geometry(mesh)
    o = oracle_curvatures_at_vertices(surf, mesh)
    assert np.max(np.abs(geo.kappa[:, 0] - o.kappa1) / np.abs(o.kappa1)) < 0.05
    assert np.max(np.abs(geo.kappa[:, 1] - o.kappa2) / np.abs(o.kappa2)) < 0.05
    assert np.max(np.abs(geo.H - o.H) / o.H) < 0.05


def test_kappa_ordering_and_identities(geom_ellipsoid4):
    g = geom_ellipsoid4
    assert np.all(g.kappa[:, 0] <= g.kappa[:, 1])
    assert np.allclose(g.H, g.kappa.mean(axis=1), atol=1e-14)
    # ||A - Hg||^2 = (k1-H)^2 + (k2-H)^2 = (k1-k2)^2/2
    lhs = g.A_traceless_norm**2
    rhs = (g.kappa[:, 0] - g.kappa[:, 1]) ** 2 / 2.0
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_am_gm_exact(geom_sphere5, geom_ellipsoid4, geom_perturbed4):
    for g in (geom_sphere5, geom_ellipsoid4, geom_perturbed4):
        assert np.all(g.H2 <= g.H * g.H)


def test_shape_operator_eigenvalues(geom_ellipsoid4):
    g = geom_ellipsoid4
    eig = np.linalg.eigvalsh(g.shape_operator)
    assert np.allclose(np.sort(eig, axis=1), g.kappa, atol=1e-10)
    assert np.allclose(
        g.shape_operator, np.swapaxes(g.shape_operator, 1, 2), atol=0.0
    )


def test_normals_outward(geom_sphere4, sphere4):
    radial = sphere4.vertices / np.linalg.norm(sphere4.vertices, axis=1)[:, None]
    dots = np.einsum("ij,ij->i", geom_sphere4.normal, radial)
    assert np.all(dots > 0.99)


@pytest.mark.parametrize(
    "kappa,n,expected_min,expected_scalar",
    [
        ((1.0, 1.0), 2, 1.0, 2.0),
        ((0.5, 0.5), 2, 0.25, 0.5),
        ((1.0, 3.0), 2, 3.0, 6.0),
    ],
)
def test_ricci_from_gauss_examples(kappa, n, expected_min, expected_scalar):
    rmin, scal = ricci_from_gauss(np.array(kappa), n)
    assert rmin == pytest.approx(expected_min, rel=1e-14)
    assert scal == pytest.approx(expected_scalar, rel=1e-14)
    if n == 2:
        assert scal == pytest.approx(2.0 * kappa[0] * kappa[1], rel=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("r", [1.0, 2.5])
def test_ricci_general_dimension_sphere(n, r):
    kappa = np.full(n, 1.0 / r)
    rmin, scal = ricci_from_gauss(kappa, n)
    assert rmin == pytest.approx((n - 1) / r**2, rel=1e-13)
    assert scal == pytest.approx(n * (n - 1) / r**2, rel=1e-13)


def test_ricci_from_gauss_dimension_mismatch():
    with pytest.raises(ValueError):
        ricci_from_gauss(np.array([1.0, 2.0, 3.0]), 2)


def test_ricci_trace_identity(geom_sphere4, geom_ellipsoid4, geom_perturbed4):
    for g in (geom_sphere4, geom_ellipsoid4, geom_perturbed4):
        k1, k2 = g.kappa[:, 0], g.kappa[:, 1]
        assert np.abs(g.scalar_curv - 2.0 * k1 * k2).max() < 1e-10


@pytest.mark.parametrize(
    "rmin,mu,expected",
    [(1.0, 1.0, 0.0), (0.5, 1.0, 0.5), (3.0, 1.0, 0.0)],
)
def test_ricci_deficit_values(rmin, mu, expected):
    assert ricci_deficit(rmin, mu, 2) == pytest.approx(expected, abs=1e-15)


def test_ricci_deficit_rescaling_and_errors(geom_sphere4):
    d = ricci_deficit(geom_sphere4, 1.0, 2)
    assert d.shape == (len(geom_sphere4),)
    assert d.max() < 0.05  # unit sphere: Ric ~ (n-1), deficit ~ estimator noise
    with pytest.raises(ValueError):
        ricci_deficit(1.0, 0.0, 2)


def test_convexity_status(geom_sphere4, torus):
    cs = convexity_status(geom_sphere4)
    assert cs.strictly_convex and cs.mean_convex
    assert cs.min_kappa1 == pytest.approx(1.0, abs=0.01)

    geo_t = estimate_geometry(torus)
    cs_t = convexity_status(geo_t)
    assert not cs_t.strictly_convex
    assert cs_t.min_kappa1 < 0
    assert not cs_t.mean_convex  # tube radius > half ring radius


def test_perturbed_sphere_convex(geom_perturbed4, perturbed4):
    assert convexity_status(geom_perturbed4).strictly_convex
    o = oracle_curvatures_at_vertices(PerturbedSphere(1.0, 0.01, 2, 0), perturbed4)
    assert o.kappa1.min() > 0


def test_exact_scaling_covariance(sphere3):
    base = estimate_geometry(sphere3)
    doubled = estimate_geometry(Mesh(sphere3.vertices * 2.0, sphere3.faces))
    assert np.allclose(doubled.kappa, base.kappa / 2.0, rtol=1e-12, atol=1e-15)
    assert np.allclose(doubled.H, base.H / 2.0, rtol=1e-12, atol=1e-15)
    assert np.allclose(
        doubled.A_traceless_norm, base.A_traceless_norm / 2.0,
        rtol=1e-12, atol=1e-16,
    )
    assert np.allclose(doubled.ricci_min, base.ricci_min / 4.0, rtol=1e-12)


def test_rescaled_record(geom_sphere4):
    g2 = geom_sphere4.rescaled(2.0)
    assert np.allclose(g2.kappa, geom_sphere4.kappa / 2.0, atol=0.0)
    assert np.allclose(g2.ricci_min, geom_sphere4.ricci_min / 4.0, atol=0.0)
    assert np.allclose(g2.H2, geom_sphere4.H2 / 4.0, atol=0.0)
    assert g2.normal is geom_sphere4.normal


def test_vertex_view(geom_sphere4):
    v = geom_sphere4[7]
    assert v.H == geom_sphere4.H[7]
    assert v.kappa.shape == (2,)
    assert dataclasses.is_dataclass(v)


def test_convergence_order_of_H():
    errs = []
    for s in (3, 4, 5):
        mesh = generate(Sphere(1.0), s)
        geo = estimate_geometry(mesh)
        errs.append(np.abs(geo.H - 1.0).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.5


def test_gauss_bonnet(geom_sphere4, sphere4, geom_sphere5, sphere5,
                      geom_ellipsoid4, ellipsoid4, geom_perturbed4, perturbed4):
    cases = [
        (geom_sphere4, sphere4),
        (geom_sphere5, sphere5),
        (geom_ellipsoid4, ellipsoid4),
        (geom_perturbed4, perturbed4),
    ]
    for geo, mesh in cases:
        total = float(np.sum(geo.H2 * mesh.vertex_areas))
        assert abs(total - 4 * np.pi) / (4 * np.pi) < 0.005


def test_underdetermined_neighborhood(tetra):
    from umbilic.mesh import load_mesh

    mesh = load_mesh(tetra)
    with pytest.raises(ValueError, match="underdetermined"):
        estimate_geometry(mesh, ring_depth=1)


def test_ring_depth_validation(sphere3):
    with pytest.raises(ValueError):
        estimate_geometry(sphere3, ring_depth=0)
