import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

from umbilic.diffgeo import estimate_geometry, vertex_normals
from umbilic.mesh import Mesh, load_mesh
from umbilic import spectral
from umbilic.spectral import (
    ConvergenceError,
    aubry_lower_bound,
    build_laplace,
    lambda1,
    nested_dissection,
)
from umbilic.surfgen import Ellipsoid, PerturbedSphere, generate


def test_stiffness_row_sums_zero(tetra):
    system = build_laplace(load_mesh(tetra))
    rows = np.asarray(system.stiffness.sum(axis=1)).ravel()
    scale = np.abs(system.stiffness.data).max()
    assert np.abs(rows).max() <= 1e-14 * scale


def test_stiffness_symmetric(sphere3):
    S = build_laplace(sphere3).stiffness
    diff = (S - S.T).tocoo()
    assert len(diff.data) == 0 or np.abs(diff.data).max() == 0.0


def reference_assembly(mesh):
    """Stiffness, vertex areas and vertex normals as a per-corner COO
    assembly and np.add.at sums build them, without the edge table."""
    f, c, V = mesh.faces, mesh.face_corners, mesh.n_vertices
    rows, cols, vals = [], [], []
    for corner, (ja, jb) in enumerate([(1, 2), (2, 0), (0, 1)]):
        e1 = c[:, ja] - c[:, corner]
        e2 = c[:, jb] - c[:, corner]
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        cot = np.einsum("ij,ij->i", e1, e2) / cross
        # edge (ja, jb) opposite this corner gets weight cot/2
        rows += [f[:, ja], f[:, jb]]
        cols += [f[:, jb], f[:, ja]]
        vals += [-0.5 * cot, -0.5 * cot]
    off = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, V),
    )
    diag = -np.asarray(off.sum(axis=1)).ravel()
    stiffness = (off + sparse.diags(diag)).tocsr()
    areas = np.zeros(V)
    normals = np.zeros((V, 3))
    for k in range(3):
        np.add.at(areas, f[:, k], mesh.face_areas / 3.0)
        np.add.at(normals, f[:, k], mesh.face_cross)
    return stiffness, areas, normals / np.linalg.norm(normals, axis=1)[:, None]


def test_assembly_matches_reference(sphere3, torus, tetra, ellipsoid4):
    # no three-sheet mesh: the order in which a fin edge sums its three
    # cotangents is not fixed, and validation rejects such an edge
    cases = {
        "sphere3": sphere3,
        "squashed": Mesh(sphere3.vertices * [1.0, 1.0, 0.15], sphere3.faces),
        "holed": Mesh(sphere3.vertices, sphere3.faces[1:]),
        "torus": torus,
        "tetra": load_mesh(tetra),
        "ellipsoid4": ellipsoid4,
    }
    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for name, mesh in cases.items():
        stiffness, areas, normals = reference_assembly(mesh)
        S = build_laplace(mesh).stiffness
        for part in ("data", "indices", "indptr"):
            assert same_bits(getattr(S, part), getattr(stiffness, part)), (name, part)
        assert same_bits(mesh.vertex_areas, areas), name
        assert same_bits(vertex_normals(mesh), normals), name


def test_mass_trace_is_area(sphere4):
    system = build_laplace(sphere4)
    area = float(np.sum(sphere4.face_areas))
    assert abs(system.mass.sum() - area) <= 1e-12 * area
    assert np.all(system.mass > 0)


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
    j = sphere3.one_ring_matrix.indices[0]   # the first neighbour of vertex 0
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
    m = system.mass
    rq = (u @ (system.stiffness @ u)) / (u @ (m * u))
    assert abs(rq - lam1_sphere4.lambda1) <= 2e-8 * lam1_sphere4.lambda1
    # deflation: mass-orthogonal to constants, mass-normalized
    assert abs(m @ u) <= 1e-8
    assert u @ (m * u) == pytest.approx(1.0, rel=1e-10)


def test_refinement_monotonicity():
    errs = []
    for s in (3, 4, 5):
        res = lambda1(build_laplace(generate(PerturbedSphere(1.0), s)))
        errs.append(abs(res.lambda1 - 2.0))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_nonconvergence_reports_best(sphere4, monkeypatch):
    # s4, not s3: ARPACK needs several restarts there (79 solves), while on
    # s3 one restart may be enough under another elimination order
    reference = lambda1(build_laplace(sphere4), tol=1e-10).lambda1
    monkeypatch.setattr(spectral, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        lambda1(build_laplace(sphere4), tol=1e-14)
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


@pytest.mark.parametrize("surface", [PerturbedSphere(1.0), Ellipsoid(2.0, 1.0, 1.0)])
def test_dense_cross_check(surface):
    system = build_laplace(generate(surface, 2))
    dense = scipy.linalg.eigh(
        system.stiffness.toarray(), np.diag(system.mass), eigvals_only=True
    )
    res = lambda1(system)
    assert res.lambda1 == pytest.approx(dense[1], rel=1e-10)
    assert res.ritz_values[:3] == pytest.approx(dense[1:4], rel=1e-10)
    assert abs(system.mass @ res.eigenfunction) <= 1e-12
    again = lambda1(system)
    assert again.lambda1 == res.lambda1
    assert np.array_equal(again.eigenfunction, res.eigenfunction)


@pytest.mark.parametrize("radius", [10.0, 1000.0])
def test_shift_follows_length_units(radius):
    base = lambda1(build_laplace(generate(PerturbedSphere(1.0), 3))).lambda1
    res = lambda1(build_laplace(generate(PerturbedSphere(radius), 3)))
    assert res.lambda1 * radius**2 == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("surface", [PerturbedSphere(1.0), Ellipsoid(2.0, 1.0, 1.0)])
def test_factor_fill_below_colamd(surface):
    # COLAMD's nnz(L) + nnz(U) on the s5 sphere was 1,341,206
    res = lambda1(build_laplace(generate(surface, 5)))
    assert res.factor_nnz <= 0.8 * 1_341_206


def reference_dissection(points, adjacency):
    """Recursive nested dissection by the rule nested_dissection implements.

    Returns the order and every split as (left part, right part, separator).
    """
    neighbours = [set(row) for row in adjacency.tolil().rows]
    splits = []

    def order(part):
        if len(part) <= spectral.LEAF_SIZE:
            return sorted(part)
        x = points[part]
        axis = np.argmax(x.max(axis=0) - x.min(axis=0))
        ranked = np.array(part)[np.lexsort((part, x[:, axis]))].tolist()
        half = len(part) // 2
        right = set(ranked[half:])
        sep = sorted(v for v in ranked[:half] if neighbours[v] & right)
        left = sorted(set(ranked[:half]) - set(sep))
        splits.append((left, sorted(right), sep))
        return order(left) + order(sorted(right)) + sep

    return np.array(order(list(range(len(points))))), splits


def check_dissection(mesh):
    """Assert that nested_dissection is the reference's order, with separators last."""
    ring = mesh.one_ring_matrix
    order = nested_dissection(mesh.vertices, ring)
    assert np.array_equal(np.sort(order), np.arange(mesh.n_vertices))
    assert np.array_equal(nested_dissection(mesh.vertices, ring), order)
    expected, splits = reference_dissection(mesh.vertices, ring)
    assert np.array_equal(order, expected)
    position = np.argsort(order)
    assert len(splits) > 3
    for left, right, sep in splits:
        assert len(sep) > 0
        assert position[sep].min() > position[left + right].max()


@pytest.mark.parametrize("surface, subdiv", [
    (PerturbedSphere(1.0), 4), (Ellipsoid(2.0, 1.0, 1.0), 3),
])
def test_ordering_is_nested_dissection(surface, subdiv):
    check_dissection(generate(surface, subdiv))


def test_ordering_on_torus_and_small_leaves(torus, monkeypatch):
    # LEAF_SIZE is read at call time by both; at 8, a split can leave
    # an empty left part
    check_dissection(torus)
    monkeypatch.setattr(spectral, "LEAF_SIZE", 8)
    check_dissection(generate(Ellipsoid(2.0, 1.0, 1.0), 3))


def test_ordering_identity_up_to_leaf_size(tetra):
    mesh = generate(PerturbedSphere(1.0), 1)
    assert mesh.n_vertices <= spectral.LEAF_SIZE
    for m in (mesh, load_mesh(tetra)):
        order = nested_dissection(m.vertices, m.one_ring_matrix)
        assert np.array_equal(order, np.arange(m.n_vertices))


def test_invalid_tol(sphere3):
    with pytest.raises(ValueError):
        lambda1(build_laplace(sphere3), tol=0.0)


def upper_bounds(geo):
    """lambda1 <= sup|R| <= 2 sup H^2 on a closed surface in R^3."""
    by_mean = 2 * float(np.abs(geo.H).max()) ** 2
    by_scalar = float(np.abs(2.0 * geo.H2).max())
    return by_mean, by_scalar


def test_upper_bounds_sphere(geom_sphere5, lam1_sphere5):
    by_mean, by_scalar = upper_bounds(geom_sphere5)
    assert by_mean == pytest.approx(2.0, rel=0.03)
    assert by_scalar == pytest.approx(2.0, rel=0.03)
    # equality case with 2% discretization slack
    assert lam1_sphere5.lambda1 <= by_mean * 1.02
    assert lam1_sphere5.lambda1 <= by_scalar * 1.02


def test_upper_bound_ellipsoid():
    mesh = generate(Ellipsoid(2.0, 1.0, 1.0), 5)
    res = lambda1(build_laplace(mesh))
    by_mean, by_scalar = upper_bounds(estimate_geometry(mesh))
    assert res.lambda1 <= by_mean * 1.02
    assert res.lambda1 <= by_scalar * 1.02
    assert by_scalar <= by_mean * (1 + 1e-12)


def test_aubry_bound_values():
    assert aubry_lower_bound(0.0, 1.0, p=3.0, C_np=1.0) == 2.0
    assert aubry_lower_bound(1.0, 10.0, p=3.0, C_np=10.0) is None
    got = aubry_lower_bound(1e-6, 1.0, p=3.0, C_np=10.0)
    assert got == pytest.approx(1.8, rel=1e-12)


def test_aubry_bound_monotone():
    vals = [
        aubry_lower_bound(d, 1.0, p=6.0, C_np=2.0)
        for d in (0.0, 1e-8, 1e-6, 1e-4, 1e-2)
    ]
    assert vals[0] == 2.0
    assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_aubry_bound_errors():
    with pytest.raises(ValueError):
        aubry_lower_bound(0.0, 1.0, p=1.0, C_np=1.0)
    with pytest.raises(ValueError):
        aubry_lower_bound(0.0, 1.0, p=3.0, C_np=0.0)
    with pytest.raises(ValueError):
        aubry_lower_bound(-1.0, 1.0, p=3.0, C_np=1.0)
    with pytest.raises(ValueError):
        aubry_lower_bound(0.0, 0.0, p=3.0, C_np=1.0)
    with pytest.raises(ValueError):
        aubry_lower_bound(np.nan, 1.0, p=3.0, C_np=1.0)
    # an overflowed deficit integral violates the hypothesis, it is no error
    assert aubry_lower_bound(np.inf, 1.0, p=3.0, C_np=1.0) is None
