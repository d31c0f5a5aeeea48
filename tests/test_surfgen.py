import numpy as np
import pytest

from umbilic.mesh import validate_mesh
from umbilic.surfgen import (
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    fd_curvatures,
    generate,
    harmonic_sup,
    oracle_curvatures,
    oracle_curvatures_at_vertices,
    oracle_lambda1,
    real_sph_harm,
    unit_icosphere,
)


def dirs(theta, phi):
    """Unit directions at spherical chart angles (polar theta, azimuth phi)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.broadcast_to(np.asarray(phi, dtype=np.float64), theta.shape)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def test_generate_sphere_combinatorics():
    mesh = generate(Sphere(1.0), 3)
    assert mesh.n_faces == 1280
    norms = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    assert validate_mesh(mesh).all_passed


def test_generate_outward_orientation(sphere4):
    c = sphere4.face_corners
    vol = np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2])).sum() / 6.0
    assert vol > 0


def test_zero_perturbation_is_sphere():
    a = generate(PerturbedSphere(1.0, 0.0, 2, 0), 2)
    b = generate(Sphere(1.0), 2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_degenerate_ellipsoid_is_sphere():
    a = generate(Ellipsoid(1.0, 1.0, 1.0), 2)
    b = generate(Sphere(1.0), 2)
    assert np.allclose(a.vertices, b.vertices, atol=0.0)
    assert np.array_equal(a.faces, b.faces)


def test_subdivision_guard():
    with pytest.raises(ValueError):
        generate(Sphere(1.0), 9)
    with pytest.raises(ValueError):
        generate(Sphere(1.0), -1)


def test_positivity_guard():
    # delta * max|Y_20| >= radius
    bad_delta = 1.0 / harmonic_sup(2, 0) * 1.001
    with pytest.raises(ValueError):
        PerturbedSphere(1.0, bad_delta, 2, 0)
    PerturbedSphere(1.0, bad_delta * 0.9, 2, 0)  # just inside is fine


def test_face_diameter_halves():
    def max_diam(mesh):
        c = mesh.face_corners
        d01 = np.linalg.norm(c[:, 0] - c[:, 1], axis=1)
        d12 = np.linalg.norm(c[:, 1] - c[:, 2], axis=1)
        d20 = np.linalg.norm(c[:, 2] - c[:, 0], axis=1)
        return np.max([d01, d12, d20])

    prev = max_diam(generate(Sphere(1.0), 2))
    for s in (3, 4):
        cur = max_diam(generate(Sphere(1.0), s))
        assert abs(cur / prev - 0.5) < 0.05 * 0.5
        prev = cur


def test_oracle_sphere_values():
    o = oracle_curvatures(Sphere(2.0), dirs([0.3, 1.2, np.pi / 2], [0.0, 2.0, 4.0]))
    assert np.allclose(o.kappa1, 0.5, atol=0.0)
    assert np.allclose(o.kappa2, 0.5, atol=0.0)
    assert np.allclose(o.H, 0.5) and np.allclose(o.K, 0.25)
    assert np.allclose(o.traceless_norm, 0.0)


def test_oracle_ellipsoid_long_axis_pole():
    # at (+-2, 0, 0) on the (2,1,1)-ellipsoid both curvatures equal a/b^2 = 2
    o = oracle_curvatures(
        Ellipsoid(2.0, 1.0, 1.0), dirs([np.pi / 2, np.pi / 2], [0.0, np.pi])
    )
    assert np.allclose(o.kappa1, 2.0, atol=1e-12)
    assert np.allclose(o.kappa2, 2.0, atol=1e-12)
    fd = fd_curvatures(Ellipsoid(2.0, 1.0, 1.0), dirs([np.pi / 2], [0.0]))
    assert abs(fd.kappa1[0] - 2.0) < 1e-4
    assert abs(fd.kappa2[0] - 2.0) < 1e-4


def test_fd_matches_closed_forms():
    fd = fd_curvatures(Sphere(3.0), dirs([0.5, 1.5, np.pi - 0.2], [1.0, 3.0, 5.0]))
    assert np.abs(fd.kappa1 - 1 / 3).max() < 1e-5
    assert np.abs(fd.kappa2 - 1 / 3).max() < 1e-5
    ell = Ellipsoid(1.5, 1.0, 0.8)
    angles = ([0.4, 1.1, 2.0, np.pi / 2], [0.3, 2.5, 4.4, 1.0])
    fd = fd_curvatures(ell, dirs(*angles))
    cf = oracle_curvatures(ell, dirs(*angles))
    assert np.abs(fd.kappa1 - cf.kappa1).max() < 1e-4
    assert np.abs(fd.kappa2 - cf.kappa2).max() < 1e-4


def test_fd_handles_poles():
    o = fd_curvatures(Sphere(1.0), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.allclose(o.kappa1, 1.0, atol=1e-5)
    o = fd_curvatures(PerturbedSphere(1.0, 0.01, 2, 0), dirs([0.0, np.pi], [0.0, 0.0]))
    assert np.all(np.isfinite(o.kappa1)) and np.all(np.isfinite(o.kappa2))


def test_perturbed_mean_curvature_linearization():
    # for rho = 1 + delta*Y, H = 1 + delta*(l(l+1)/2 - 1)*Y + O(delta^2);
    # degree 2 gives coefficient 2
    delta = 0.01
    ps = PerturbedSphere(1.0, delta, 2, 0)
    thetas = np.array([0.0, 0.4, 1.0, np.pi / 2, 2.3, np.pi])
    fd = fd_curvatures(ps, dirs(thetas, 0.0))
    predicted = 1.0 + 2.0 * delta * real_sph_harm(2, 0, thetas, 0.0)
    assert np.abs(fd.H - predicted).max() < 30 * delta**2
    assert np.abs(fd.H - 1.0).max() < 5 * delta


def test_oracle_lambda1():
    assert oracle_lambda1(Sphere(1.0)) == 2.0
    assert oracle_lambda1(Sphere(3.0)) == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert oracle_lambda1(Sphere(1.0), n=5) == 5.0
    assert oracle_lambda1(Ellipsoid(2.0, 1.0, 1.0)) is None
    assert oracle_lambda1(PerturbedSphere(1.0, 0.01, 2, 0)) is None


def test_sphere_conclusion_radius_consistency():
    # on the model case 1/H = r = sqrt(n/lambda1) and the umbilicity defect is 0
    r = 1.7
    o = oracle_curvatures(Sphere(r), dirs([1.0], [0.0]))
    lam = oracle_lambda1(Sphere(r))
    assert np.allclose(o.traceless_norm, 0.0)
    assert np.sqrt(2.0 / lam) == pytest.approx(r, rel=1e-15)
    assert 1.0 / o.H[0] == pytest.approx(r, rel=1e-15)


def test_real_sph_harm_orthonormal():
    # independent quadrature oracle: Gauss-Legendre in cos(theta) x trapezoid in phi
    nodes, wts = np.polynomial.legendre.leggauss(64)
    theta = np.arccos(nodes)
    nphi = 128
    phi = 2 * np.pi * np.arange(nphi) / nphi
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    W = np.broadcast_to(wts[:, None], TH.shape) * (2 * np.pi / nphi)
    basis = [(l, m) for l in range(4) for m in range(-l, l + 1)]
    for i, (l1, m1) in enumerate(basis):
        y1 = real_sph_harm(l1, m1, TH, PH)
        for l2, m2 in basis[i:]:
            y2 = real_sph_harm(l2, m2, TH, PH)
            ip = float(np.sum(W * y1 * y2))
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(ip - expected) < 1e-12


def test_y20_closed_form():
    theta = np.array([0.0, np.pi / 2, np.pi / 3])
    got = real_sph_harm(2, 0, theta, 0.0)
    expected = np.sqrt(5.0 / (16.0 * np.pi)) * (3.0 * np.cos(theta) ** 2 - 1.0)
    assert np.allclose(got, expected, atol=1e-15)


def test_oracle_at_vertices_matches_positions(perturbed4):
    surf = PerturbedSphere(1.0, 0.01, 2, 0)
    o = oracle_curvatures_at_vertices(surf, perturbed4)
    assert len(o.kappa1) == perturbed4.n_vertices
    # vertices really lie on the surface: |X| = rho(direction)
    u = perturbed4.vertices / np.linalg.norm(perturbed4.vertices, axis=1)[:, None]
    theta = np.arccos(np.clip(u[:, 2], -1, 1))
    phi = np.arctan2(u[:, 1], u[:, 0])
    rho = 1.0 + 0.01 * real_sph_harm(2, 0, theta, phi)
    assert np.allclose(np.linalg.norm(perturbed4.vertices, axis=1), rho, atol=1e-12)


def reference_subdivide(verts, faces):
    """Midpoint split with row-wise unique edges (no integer edge keys)."""
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges.sort(axis=1)
    uniq, inverse = np.unique(edges, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    mid = verts[uniq[:, 0]] + verts[uniq[:, 1]]
    mid /= np.linalg.norm(mid, axis=1)[:, None]
    mid_index = len(verts) + np.arange(len(uniq))
    F = len(faces)
    m01 = mid_index[inverse[0:F]]
    m12 = mid_index[inverse[F:2 * F]]
    m20 = mid_index[inverse[2 * F:3 * F]]
    v0, v1, v2 = faces[:, 0], faces[:, 1], faces[:, 2]
    new_faces = np.concatenate([
        np.stack([v0, m01, m20], axis=1),
        np.stack([v1, m12, m01], axis=1),
        np.stack([v2, m20, m12], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])
    return np.vstack([verts, mid]), new_faces


def test_icosphere_matches_reference_subdivision():
    verts, faces = unit_icosphere(0)
    for s in range(1, 5):
        verts, faces = reference_subdivide(verts, faces)
        got_v, got_f = unit_icosphere(s)
        assert got_v.tobytes() == verts.tobytes() and got_v.shape == verts.shape
        assert np.array_equal(got_f, faces) and got_f.dtype == faces.dtype
