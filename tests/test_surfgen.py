import math

import numpy as np
import pytest
from scipy.special import lpmv

from umbilic.cli import main
from umbilic.diffgeo import (
    SurfaceGeometry,
    eigen_split,
    tangent_frame,
    weingarten_matrix,
)
from umbilic.mesh import Mesh, save_mesh, validate_mesh
from umbilic.surfgen import (
    Ellipsoid,
    PerturbedSphere,
    generate,
    harmonic_sup,
    oracle_curvatures,
    oracle_curvatures_at_vertices,
    real_sph_harm,
    surface_point,
    unit_icosphere,
)


def dirs(theta, phi):
    """Unit directions at spherical chart angles (polar theta, azimuth phi)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.broadcast_to(np.asarray(phi, dtype=np.float64), theta.shape)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def fd_reference(surface, u, h=1e-3):
    """Principal curvatures by centred differences of `surface_point`.

    An independent reference for the closed-form oracles: the fundamental
    forms come from a 9-point stencil in the normalized-offset chart
    u + s t1 + t t2 (rescaled to unit length) around each unit direction,
    which stays regular at the coordinate poles.  Truncation error is
    O(h^2); at h = 1e-3 round-off is about 1e-10.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    t1, t2 = tangent_frame(u)

    def X(s, t):
        v = u + s * t1 + t * t2
        return surface_point(surface, v / np.linalg.norm(v, axis=-1, keepdims=True))

    x0 = X(0.0, 0.0)
    xs_p, xs_m, xt_p, xt_m = X(h, 0.0), X(-h, 0.0), X(0.0, h), X(0.0, -h)
    x_s = (xs_p - xs_m) / (2 * h)
    x_t = (xt_p - xt_m) / (2 * h)
    x_ss = (xs_p - 2 * x0 + xs_m) / h**2
    x_tt = (xt_p - 2 * x0 + xt_m) / h**2
    x_st = (X(h, h) - X(h, -h) - X(-h, h) + X(-h, -h)) / (4 * h**2)
    nrm = np.cross(x_s, x_t)
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)

    def dot(a, b):
        return np.einsum("...i,...i", a, b)

    mean, disc = eigen_split(weingarten_matrix(
        dot(x_s, x_s), dot(x_s, x_t), dot(x_t, x_t),
        dot(x_ss, nrm), dot(x_st, nrm), dot(x_tt, nrm),
    ))
    return SurfaceGeometry.from_split(mean, disc)


def random_dirs(n, seed):
    u = np.random.default_rng(seed).normal(size=(n, 3))
    return u / np.linalg.norm(u, axis=1)[:, None]


POLES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])

# degree, order; m < 0 included, since `sweep --family l3m-1` is accepted
HARMONICS = [(2, 0), (2, 1), (2, -1), (2, 2), (2, -2), (3, -1), (4, 3)]


def test_generate_sphere_combinatorics():
    mesh = generate(PerturbedSphere(1.0), 3)
    assert mesh.n_faces == 1280
    norms = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    assert validate_mesh(mesh).all_passed


def test_generate_outward_orientation(sphere4):
    c = sphere4.face_corners
    vol = np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2])).sum() / 6.0
    assert vol > 0


def test_zero_perturbation_is_sphere(tmp_path):
    # the round sphere is delta = 0: radius * direction, bit for bit, from
    # the API and from `gen --kind sphere`
    for radius in (0.7, 1.0, 1.7, 3.0):
        for s in (0, 2):
            dirs_s, faces = unit_icosphere(s)
            mesh = generate(PerturbedSphere(radius), s)
            assert mesh.vertices.tobytes() == (radius * dirs_s).tobytes()
            assert np.array_equal(mesh.faces, faces)
            got, want = tmp_path / "gen.off", tmp_path / "want.off"
            assert main(["gen", "--kind", "sphere", "--radius", repr(radius),
                         "--subdiv", str(s), "--out", str(got)]) == 0
            save_mesh(Mesh(radius * dirs_s, faces), want)
            assert got.read_bytes() == want.read_bytes()


def test_degenerate_ellipsoid_is_sphere():
    a = generate(Ellipsoid(1.0, 1.0, 1.0), 2)
    dirs_2, faces = unit_icosphere(2)
    assert a.vertices.tobytes() == dirs_2.tobytes()
    assert np.array_equal(a.faces, faces)


def test_subdivision_guard():
    with pytest.raises(ValueError):
        generate(PerturbedSphere(1.0), 9)
    with pytest.raises(ValueError):
        generate(PerturbedSphere(1.0), -1)


def test_positivity_guard():
    # delta * max|Y_20| >= radius
    bad_delta = 1.0 / harmonic_sup(2, 0) * 1.001
    with pytest.raises(ValueError):
        PerturbedSphere(1.0, bad_delta, 2, 0)
    PerturbedSphere(1.0, bad_delta * 0.9, 2, 0)  # just inside is fine


@pytest.mark.parametrize("make, message", [
    (lambda: Ellipsoid(np.nan, 1.0, 1.0), "semi-axes must be finite"),
    (lambda: Ellipsoid(np.inf, 1.0, 1.0), "semi-axes must be finite"),
    (lambda: PerturbedSphere(radius=np.nan), "radius must be finite"),
    (lambda: PerturbedSphere(radius=np.inf), "radius must be finite"),
    (lambda: PerturbedSphere(delta=np.nan), "delta must be finite"),
    # values that failed before keep their messages
    (lambda: Ellipsoid(-1.0, np.inf, 1.0), "semi-axes must be positive"),
    (lambda: PerturbedSphere(radius=-np.inf), "base radius must be positive"),
    (lambda: PerturbedSphere(delta=np.inf), "radial positivity"),
], ids=["ellipsoid-nan", "ellipsoid-inf", "radius-nan", "radius-inf", "delta-nan",
        "ellipsoid-negative", "radius-minus-inf", "delta-inf"])
def test_non_finite_parameters_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_face_diameter_halves():
    def max_diam(mesh):
        c = mesh.face_corners
        d01 = np.linalg.norm(c[:, 0] - c[:, 1], axis=1)
        d12 = np.linalg.norm(c[:, 1] - c[:, 2], axis=1)
        d20 = np.linalg.norm(c[:, 2] - c[:, 0], axis=1)
        return np.max([d01, d12, d20])

    prev = max_diam(generate(PerturbedSphere(1.0), 2))
    for s in (3, 4):
        cur = max_diam(generate(PerturbedSphere(1.0), s))
        assert abs(cur / prev - 0.5) < 0.05 * 0.5
        prev = cur


def test_oracle_sphere_values():
    u = dirs([0.3, 1.2, np.pi / 2], [0.0, 2.0, 4.0])
    o = oracle_curvatures(PerturbedSphere(2.0), u)
    assert np.allclose(o.kappa, 0.5, atol=0.0)
    assert np.allclose(o.H, 0.5) and np.allclose(o.H2, 0.25)
    assert np.allclose(o.A_traceless_norm, 0.0)


def test_oracle_ellipsoid_long_axis_pole():
    # at (+-2, 0, 0) on the (2,1,1)-ellipsoid both curvatures equal a/b^2 = 2
    o = oracle_curvatures(
        Ellipsoid(2.0, 1.0, 1.0), dirs([np.pi / 2, np.pi / 2], [0.0, np.pi])
    )
    assert np.allclose(o.kappa, 2.0, atol=1e-12)
    fd = fd_reference(Ellipsoid(2.0, 1.0, 1.0), dirs([np.pi / 2], [0.0]))
    assert np.abs(fd.kappa - 2.0).max() < 1e-4


def test_fd_matches_closed_forms():
    fd = fd_reference(PerturbedSphere(3.0), dirs([0.5, 1.5, np.pi - 0.2], [1.0, 3.0, 5.0]))
    assert np.abs(fd.kappa - 1 / 3).max() < 1e-5
    ell = Ellipsoid(1.5, 1.0, 0.8)
    angles = ([0.4, 1.1, 2.0, np.pi / 2], [0.3, 2.5, 4.4, 1.0])
    fd = fd_reference(ell, dirs(*angles))
    cf = oracle_curvatures(ell, dirs(*angles))
    assert np.abs(fd.kappa - cf.kappa).max() < 1e-4


def test_fd_handles_poles():
    o = fd_reference(PerturbedSphere(1.0), POLES)
    assert np.allclose(o.kappa[:, 0], 1.0, atol=1e-5)
    # dirs() puts the south pole at sin(theta) = 1.2e-16, not at 0
    for u in (POLES, dirs([0.0, np.pi], [0.0, 0.0])):
        o = oracle_curvatures(PerturbedSphere(1.0, 0.01, 2, 0), u)
        assert np.all(np.isfinite(o.kappa))


@pytest.mark.parametrize("degree, order", HARMONICS)
@pytest.mark.parametrize("delta", [0.01, 0.1])
def test_perturbed_oracle_matches_reference(degree, order, delta):
    surf = PerturbedSphere(1.0, delta, degree, order)
    u = random_dirs(100, seed=degree * 10 + order)
    o, fd = oracle_curvatures(surf, u), fd_reference(surf, u)
    assert np.abs(o.kappa - fd.kappa).max() < 1e-5


@pytest.mark.parametrize("degree, order", HARMONICS + [(1, 1), (3, 3)])
def test_perturbed_oracle_at_poles(degree, order):
    # only |m| <= 2 harmonics have a 1- or 2-jet at a pole; the limit must
    # be the reference's value and be approached continuously
    surf = PerturbedSphere(1.0, 0.1, degree, order)
    near = POLES + np.array([[1e-9, -2e-9, 0.0]])
    o_near = oracle_curvatures(surf, near)
    for u in (POLES, dirs([0.0, np.pi], [0.0, 0.0]), near):
        o, fd = oracle_curvatures(surf, u), fd_reference(surf, u)
        assert np.all(np.isfinite(o.kappa))
        assert np.abs(o.kappa - fd.kappa).max() < 1e-5
        assert np.abs(o.kappa - o_near.kappa).max() < 1e-8


@pytest.mark.parametrize("radius", [1.0, 0.7, 3.0])
def test_unperturbed_oracle_is_exactly_round(radius):
    u = np.vstack([random_dirs(50, seed=3), POLES])
    for degree, order in HARMONICS:
        o = oracle_curvatures(PerturbedSphere(radius, 0.0, degree, order), u)
        assert np.all(o.kappa == 1.0 / radius)
        assert np.all(o.A_traceless_norm == 0.0)


def test_perturbed_mean_curvature_linearization():
    # for rho = 1 + delta*Y, H = 1 + delta*(l(l+1)/2 - 1)*Y + O(delta^2);
    # degree 2 gives coefficient 2
    delta = 0.01
    ps = PerturbedSphere(1.0, delta, 2, 0)
    thetas = np.array([0.0, 0.4, 1.0, np.pi / 2, 2.3, np.pi])
    o = oracle_curvatures(ps, dirs(thetas, 0.0))
    predicted = 1.0 + 2.0 * delta * real_sph_harm(2, 0, dirs(thetas, 0.0))
    assert np.abs(o.H - predicted).max() < 30 * delta**2
    assert np.abs(o.H - 1.0).max() < 5 * delta


def test_sphere_conclusion_radius_consistency():
    # on the model case 1/H = r = sqrt(2/lambda1) with lambda1 = 2/r^2, and
    # the umbilicity defect is 0
    r = 1.7
    o = oracle_curvatures(PerturbedSphere(r), dirs([1.0], [0.0]))
    lam = 2.0 / r**2
    assert np.allclose(o.A_traceless_norm, 0.0)
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
    U = dirs(TH, PH)
    basis = [(l, m) for l in range(4) for m in range(-l, l + 1)]
    for i, (l1, m1) in enumerate(basis):
        y1 = real_sph_harm(l1, m1, U)
        for l2, m2 in basis[i:]:
            y2 = real_sph_harm(l2, m2, U)
            ip = float(np.sum(W * y1 * y2))
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(ip - expected) < 1e-12


def test_y20_closed_form():
    theta = np.array([0.0, np.pi / 2, np.pi / 3])
    got = real_sph_harm(2, 0, dirs(theta, 0.0))
    expected = np.sqrt(5.0 / (16.0 * np.pi)) * (3.0 * np.cos(theta) ** 2 - 1.0)
    assert np.allclose(got, expected, atol=1e-15)


def test_real_sph_harm_matches_lpmv():
    # orthonormality leaves the normalization's sign free: pin it, with the
    # Condon-Shortley phase, to scipy's associated Legendre function on
    # chart angles away from the poles
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.1, np.pi - 0.1, 200)
    phi = rng.uniform(0.0, 2.0 * np.pi, 200)
    for l in range(5):
        for order in range(-l, l + 1):
            m = abs(order)
            norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                             * math.factorial(l - m) / math.factorial(l + m))
            expected = norm * lpmv(m, l, np.cos(theta))
            if order > 0:
                expected = math.sqrt(2.0) * expected * np.cos(m * phi)
            elif order < 0:
                expected = math.sqrt(2.0) * expected * np.sin(m * phi)
            got = real_sph_harm(l, order, dirs(theta, phi))
            assert np.abs(got - expected).max() < 1e-13


def test_oracle_at_vertices_matches_positions(perturbed4):
    surf = PerturbedSphere(1.0, 0.01, 2, 0)
    o = oracle_curvatures_at_vertices(surf, perturbed4)
    assert len(o.kappa) == perturbed4.n_vertices
    # vertices really lie on the surface: |X| = rho(direction)
    u = perturbed4.vertices / np.linalg.norm(perturbed4.vertices, axis=1)[:, None]
    rho = 1.0 + 0.01 * real_sph_harm(2, 0, u)
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


def test_icosphere_shared_read_only():
    # one cached pair per level: a caller that wrote into it would change
    # every later mesh of that level
    verts, faces = unit_icosphere(2)
    assert unit_icosphere(2)[0] is verts and unit_icosphere(2)[1] is faces
    with pytest.raises(ValueError):
        verts[0, 0] = 0.0
    with pytest.raises(ValueError):
        faces[0, 0] = 0
