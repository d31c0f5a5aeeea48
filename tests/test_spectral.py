import numpy as np
import pytest
import scipy.linalg

from umbilic.diffgeo import estimate_geometry
from umbilic.mesh import Mesh, load_mesh
from umbilic.spectral import (
    ConvergenceError,
    aubry_lower_bound,
    build_laplace,
    lambda1,
    lambda1_upper_bound,
)
from umbilic.surfgen import Ellipsoid, Sphere, generate


def test_stiffness_row_sums_zero(tetra):
    system = build_laplace(load_mesh(tetra))
    rows = np.asarray(system.stiffness.sum(axis=1)).ravel()
    scale = np.abs(system.stiffness.data).max()
    assert np.abs(rows).max() <= 1e-14 * scale


def test_stiffness_symmetric(sphere3):
    S = build_laplace(sphere3).stiffness
    diff = (S - S.T).tocoo()
    assert len(diff.data) == 0 or np.abs(diff.data).max() == 0.0


def test_mass_trace_is_area(sphere4):
    system = build_laplace(sphere4)
    area = float(np.sum(sphere4.face_areas))
    assert abs(system.mass_diagonal.sum() - area) <= 1e-12 * area
    assert np.all(system.mass_diagonal > 0)


def test_obtuse_mesh_still_psd(sphere3):
    # squashing the sphere produces obtuse triangles and negative weights
    squashed = Mesh(sphere3.vertices * [1.0, 1.0, 0.15], sphere3.faces)
    S = build_laplace(squashed).stiffness
    off = S.tocoo()
    off_diag = off.data[off.row != off.col]
    assert (-off_diag).min() < 0  # some negative cotangent weight exists
    rng = np.random.default_rng(42)
    for _ in range(8):
        x = rng.standard_normal(S.shape[0])
        quad = x @ (S @ x)
        assert quad >= -1e-10 * (x @ x) * np.abs(S.data).max()


def test_degenerate_face_rejected(sphere3):
    verts = sphere3.vertices.copy()
    j = sphere3.one_ring(0)[0]
    verts[0] = verts[j]
    with pytest.raises(ValueError, match="degenerate"):
        build_laplace(Mesh(verts, sphere3.faces))


def test_sphere_lambda1(lam1_sphere5):
    assert 1.98 <= lam1_sphere5.lambda1 <= 2.02
    assert lam1_sphere5.residual <= 1e-8
    assert lam1_sphere5.gap_warning  # sphere eigenspace has dimension 3


def test_sphere_radius_two_lambda1(sphere5):
    res = lambda1(build_laplace(Mesh(sphere5.vertices * 2.0, sphere5.faces)))
    assert res.lambda1 == pytest.approx(0.5, rel=0.01)


def test_matrix_level_scaling(sphere3):
    r1 = lambda1(build_laplace(sphere3), tol=1e-10)
    r2 = lambda1(build_laplace(Mesh(sphere3.vertices * 2.0, sphere3.faces)), tol=1e-10)
    assert r1.lambda1 == pytest.approx(4.0 * r2.lambda1, rel=1e-9)


def test_translation_rotation_invariance(sphere3):
    base = lambda1(build_laplace(sphere3), tol=1e-10).lambda1
    angle = 1.1
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(angle), -np.sin(angle)],
            [0.0, np.sin(angle), np.cos(angle)],
        ]
    )
    moved = Mesh(sphere3.vertices @ rot.T + [5.0, -2.0, 0.5], sphere3.faces)
    after = lambda1(build_laplace(moved), tol=1e-10).lambda1
    assert after == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_rayleigh_certificate(sphere4, lam1_sphere4):
    system = build_laplace(sphere4)
    u = lam1_sphere4.eigenfunction
    m = system.mass_diagonal
    rq = (u @ (system.stiffness @ u)) / (u @ (m * u))
    assert abs(rq - lam1_sphere4.lambda1) <= 2e-8 * lam1_sphere4.lambda1
    # deflation: mass-orthogonal to constants, mass-normalized
    assert abs(m @ u) <= 1e-8
    assert u @ (m * u) == pytest.approx(1.0, rel=1e-10)


def test_refinement_monotonicity():
    errs = []
    for s in (3, 4, 5):
        res = lambda1(build_laplace(generate(Sphere(1.0), s)))
        errs.append(abs(res.lambda1 - 2.0))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_nonconvergence_reports_best(sphere3):
    reference = lambda1(build_laplace(sphere3), tol=1e-10).lambda1
    with pytest.raises(ConvergenceError) as err:
        lambda1(build_laplace(sphere3), tol=1e-14, max_iter=1)
    assert err.value.best_lambda1 == pytest.approx(reference, rel=1e-9)
    assert err.value.best_residual > 1e-14
    assert err.value.iterations == 1
    assert repr(err.value.best_lambda1) in str(err.value)


def test_residual_above_tol_raises_with_certificate(sphere3):
    # ARPACK converges, but no double-precision pair meets tol = 1e-17
    with pytest.raises(ConvergenceError, match="residual above tol") as err:
        lambda1(build_laplace(sphere3), tol=1e-17)
    assert err.value.best_lambda1 == pytest.approx(2.0, rel=1e-4)
    assert err.value.best_residual > 1e-17


@pytest.mark.parametrize("surface", [Sphere(1.0), Ellipsoid(2.0, 1.0, 1.0)])
def test_dense_cross_check(surface):
    system = build_laplace(generate(surface, 2))
    dense = scipy.linalg.eigh(
        system.stiffness.toarray(), system.mass.toarray(), eigvals_only=True
    )
    res = lambda1(system)
    assert res.lambda1 == pytest.approx(dense[1], rel=1e-10)
    assert res.ritz_values[:3] == pytest.approx(dense[1:4], rel=1e-10)
    assert abs(system.mass_diagonal @ res.eigenfunction) <= 1e-12
    again = lambda1(system)
    assert again.lambda1 == res.lambda1
    assert np.array_equal(again.eigenfunction, res.eigenfunction)


@pytest.mark.parametrize("radius", [10.0, 1000.0])
def test_shift_follows_length_units(radius):
    base = lambda1(build_laplace(generate(Sphere(1.0), 3))).lambda1
    res = lambda1(build_laplace(generate(Sphere(radius), 3)))
    assert res.lambda1 * radius**2 == pytest.approx(base, rel=1e-9)


def test_invalid_tol(sphere3):
    with pytest.raises(ValueError):
        lambda1(build_laplace(sphere3), tol=0.0)


def test_upper_bounds_sphere(geom_sphere5, lam1_sphere5):
    bounds = lambda1_upper_bound(geom_sphere5, n=2)
    assert bounds.by_mean_curvature == pytest.approx(2.0, rel=0.03)
    assert bounds.by_scalar_curvature == pytest.approx(2.0, rel=0.03)
    # equality case with 2% discretization slack
    assert lam1_sphere5.lambda1 <= bounds.by_mean_curvature * 1.02
    assert lam1_sphere5.lambda1 <= bounds.by_scalar_curvature * 1.02


def test_upper_bound_ellipsoid():
    mesh = generate(Ellipsoid(2.0, 1.0, 1.0), 5)
    geo = estimate_geometry(mesh)
    res = lambda1(build_laplace(mesh))
    bounds = lambda1_upper_bound(geo, n=2)
    assert res.lambda1 <= bounds.by_mean_curvature * 1.02
    assert res.lambda1 <= bounds.by_scalar_curvature * 1.02
    assert bounds.by_scalar_curvature <= bounds.by_mean_curvature * (1 + 1e-12)


def test_aubry_bound_values():
    assert aubry_lower_bound(0.0, 1.0, p=3.0, C_np=1.0, n=2) == 2.0
    assert aubry_lower_bound(1.0, 10.0, p=3.0, C_np=10.0, n=2) is None
    got = aubry_lower_bound(1e-6, 1.0, p=3.0, C_np=10.0, n=2)
    assert got == pytest.approx(1.8, rel=1e-12)


def test_aubry_bound_monotone():
    vals = [
        aubry_lower_bound(d, 1.0, p=6.0, C_np=2.0, n=2)
        for d in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)
    ]
    assert vals[0] == 2.0
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_aubry_bound_errors():
    with pytest.raises(ValueError):
        aubry_lower_bound(0.0, 1.0, p=1.0, C_np=1.0, n=2)
    with pytest.raises(ValueError):
        aubry_lower_bound(0.0, 1.0, p=3.0, C_np=0.0, n=2)
    with pytest.raises(ValueError):
        aubry_lower_bound(-1.0, 1.0, p=3.0, C_np=1.0, n=2)
    with pytest.raises(ValueError):
        aubry_lower_bound(0.0, 0.0, p=3.0, C_np=1.0, n=2)
