import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import eigsh

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

from conftest import alloc_peak, jittered


def test_stiffness_row_sums_zero(tetra):
    S = build_laplace(load_mesh(tetra))
    rows = np.asarray(S.sum(axis=1)).ravel()
    scale = np.abs(S.data).max()
    assert np.abs(rows).max() <= 1e-14 * scale


def test_stiffness_symmetric(sphere3):
    S = build_laplace(sphere3)
    diff = (S - S.T).tocoo()
    assert len(diff.data) == 0 or np.abs(diff.data).max() == 0.0


def reference_assembly(mesh):
    """Stiffness, vertex areas and vertex normals as a per-corner COO
    assembly and np.add.at sums build them, without the edge table."""
    f, c, V = mesh.faces, mesh.vertices[mesh.faces], mesh.n_vertices
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
        "jittered": jittered(PerturbedSphere(1.0, 0.01, 2, 0), 3, seed=1),
        "ellipsoid311": generate(Ellipsoid(3.0, 1.0, 1.0), 3),
    }
    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for name, mesh in cases.items():
        stiffness, areas, normals = reference_assembly(mesh)
        S = build_laplace(mesh)
        for part in ("data", "indices", "indptr"):
            assert same_bits(getattr(S, part), getattr(stiffness, part)), (name, part)
        assert same_bits(mesh.vertex_areas, areas), name
        assert same_bits(vertex_normals(mesh), normals), name


def test_build_laplace_memory_bounded(sphere5):
    # the half-edge gathers set the peak, about 290 B a face; np.cross's
    # input copies and np.linalg.norm's squared (3F, 3) array made it 384
    sphere5.euler_characteristic   # the edge table is cached, as after validation
    assert alloc_peak(lambda: build_laplace(sphere5)) < 320 * sphere5.n_faces


def test_mass_trace_is_area(sphere4):
    m = sphere4.vertex_areas
    area = float(np.sum(sphere4.face_areas))
    assert abs(m.sum() - area) <= 1e-12 * area
    assert np.all(m > 0)


def test_obtuse_mesh_still_psd(sphere3):
    # squashing the sphere produces obtuse triangles and negative weights
    squashed = Mesh(sphere3.vertices * [1.0, 1.0, 0.15], sphere3.faces)
    S = build_laplace(squashed)
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
    res = lambda1(Mesh(sphere5.vertices * 2.0, sphere5.faces))
    assert res.lambda1 == pytest.approx(0.5, rel=0.01)


def test_matrix_level_scaling(sphere3):
    r1 = lambda1(sphere3, tol=1e-10)
    r2 = lambda1(Mesh(sphere3.vertices * 2.0, sphere3.faces), tol=1e-10)
    assert r1.lambda1 == pytest.approx(4.0 * r2.lambda1, rel=1e-9)


def test_translation_rotation_invariance(sphere3):
    base = lambda1(sphere3, tol=1e-10).lambda1
    angle = 1.1
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, np.cos(angle), -np.sin(angle)],
            [0.0, np.sin(angle), np.cos(angle)],
        ]
    )
    moved = Mesh(sphere3.vertices @ rot.T + [5.0, -2.0, 0.5], sphere3.faces)
    after = lambda1(moved, tol=1e-10).lambda1
    assert after == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_rayleigh_certificate(sphere4, lam1_sphere4):
    u = lam1_sphere4.eigenfunction
    m = sphere4.vertex_areas
    rq = (u @ (build_laplace(sphere4) @ u)) / (u @ (m * u))
    assert abs(rq - lam1_sphere4.lambda1) <= 2e-8 * lam1_sphere4.lambda1
    # deflation: mass-orthogonal to constants, mass-normalized
    assert abs(m @ u) <= 1e-8
    assert u @ (m * u) == pytest.approx(1.0, rel=1e-10)


def test_refinement_monotonicity():
    errs = []
    for s in (3, 4, 5):
        res = lambda1(generate(PerturbedSphere(1.0), s))
        errs.append(abs(res.lambda1 - 2.0))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_nonconvergence_reports_best(sphere4, monkeypatch):
    # a basis capped at three blocks cannot reach tol = 1e-14
    reference = lambda1(sphere4, tol=1e-10).lambda1
    monkeypatch.setattr(spectral, "MAX_BASIS", 12)
    with pytest.raises(ConvergenceError, match="did not converge") as err:
        lambda1(sphere4, tol=1e-14)
    assert err.value.best_lambda1 == pytest.approx(reference, rel=1e-9)
    assert err.value.best_residual > 1e-14
    assert err.value.iterations == 8   # two solved blocks of four columns
    assert repr(err.value.best_lambda1) in str(err.value)


def test_block_and_arpack_agree(perturbed4):
    # ARPACK shift-invert Lanczos, run here as an independent reference
    res = lambda1(perturbed4)
    m = perturbed4.vertex_areas
    v0 = np.random.default_rng(0).standard_normal(len(m))
    vals = eigsh(
        build_laplace(perturbed4), k=spectral.BLOCK_SIZE + 1, M=sparse.diags(m),
        sigma=-res.sigma, v0=v0, tol=1e-14, return_eigenvectors=False,
    )
    reference = np.sort(vals)[1:]
    assert res.lambda1 == pytest.approx(reference[0], rel=1e-12)
    assert res.ritz_values == pytest.approx(reference, rel=1e-10)


def test_residual_above_tol_raises_with_certificate(sphere3):
    # no double-precision pair meets tol = 1e-17
    with pytest.raises(ConvergenceError, match="residual above tol") as err:
        lambda1(sphere3, tol=1e-17)
    assert err.value.best_lambda1 == pytest.approx(2.0, rel=1e-4)
    assert err.value.best_residual > 1e-17


def dense_spectrum(mesh):
    return scipy.linalg.eigh(
        build_laplace(mesh).toarray(), np.diag(mesh.vertex_areas), eigvals_only=True
    )


# Ellipsoid(3, 1, 1) at s2 and Ellipsoid(5, 1, 1) at s4 need the widest
# bases; a subspace iteration run past 16 steps on the latter certified a
# third Ritz value of 1.2093, where the true one is 0.9871
# the jittered meshes (seeds 0-2) have irregular triangles and no symmetry
@pytest.mark.parametrize("surface, subdiv, seed", [
    (PerturbedSphere(1.0), 2, None), (Ellipsoid(2.0, 1.0, 1.0), 2, None),
    (Ellipsoid(3.0, 1.0, 1.0), 2, None), (Ellipsoid(5.0, 1.0, 1.0), 4, None),
    *[(PerturbedSphere(1.0, 0.05, 3, 1), 2, seed) for seed in range(3)],
], ids=[*[f"surface{k}" for k in range(4)], *[f"jittered{k}" for k in range(3)]])
def test_dense_cross_check(surface, subdiv, seed):
    mesh = generate(surface, subdiv) if seed is None else jittered(surface, subdiv, seed)
    dense = dense_spectrum(mesh)
    res = lambda1(mesh)
    assert res.lambda1 == pytest.approx(dense[1], rel=1e-10)
    assert res.ritz_values == pytest.approx(dense[1:4], rel=1e-10)
    assert abs(mesh.vertex_areas @ res.eigenfunction) <= 1e-12
    again = lambda1(mesh)
    assert again.lambda1 == res.lambda1
    assert np.array_equal(again.eigenfunction, res.eigenfunction)


def test_block_finds_lowest_eigenvalues():
    # lambda2 of this ellipsoid belongs to an even eigenfunction, orthogonal
    # to the three coordinates by symmetry; only the random start column
    # can reach it
    mesh = generate(Ellipsoid(3.0, 1.0, 1.0), 2)
    dense = dense_spectrum(mesh)
    res = lambda1(mesh)
    assert res.basis_columns <= spectral.MAX_BASIS
    assert res.ritz_values == pytest.approx(dense[1:4], rel=1e-10)
    assert res.lambda1 == pytest.approx(dense[1], rel=1e-10)


def test_column_solve_count():
    # the subspace iteration this replaced took 32 and 99 column solves
    near = lambda1(generate(PerturbedSphere(1.0, 0.01, 2, 0), 5))
    prolate = lambda1(generate(Ellipsoid(3.0, 1.0, 1.0), 5))
    assert near.iterations == 16   # four blocks of four columns
    assert prolate.iterations <= 52
    for res in (near, prolate):
        assert res.basis_columns == res.iterations + spectral.BLOCK_SIZE + 1


def test_planar_mesh_basis_stops_growing():
    # a flat double-sided hexagon (closed, oriented, enclosed volume 0):
    # the centred z coordinate is zero and is dropped, and the basis stops
    # growing once it spans the five nonconstant functions
    t = 2 * np.pi * np.arange(6) / 6
    verts = np.c_[np.cos(t), np.sin(t) + 0.1 * np.cos(2 * t), np.zeros(6)]
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5],
             [1, 3, 2], [1, 4, 3], [1, 5, 4], [1, 0, 5]]
    mesh = Mesh(verts, faces)
    dense = dense_spectrum(mesh)
    res = lambda1(mesh)
    assert res.basis_columns == 5
    assert res.lambda1 == pytest.approx(dense[1], rel=1e-10)
    assert res.ritz_values == pytest.approx(dense[1:4], rel=1e-10)


def test_tetrahedron_against_dense(tetra):
    # four vertices: the three centred coordinates span every nonconstant
    # function, so the start block alone is exact
    mesh = load_mesh(tetra)
    dense = dense_spectrum(mesh)
    res = lambda1(mesh)
    assert res.basis_columns == 3
    assert res.iterations == 0
    assert res.lambda1 == pytest.approx(dense[1], rel=1e-10)
    assert res.ritz_values == pytest.approx(dense[1:4], rel=1e-10)


@pytest.mark.parametrize("radius", [10.0, 1000.0])
def test_shift_follows_length_units(radius):
    base = lambda1(generate(PerturbedSphere(1.0), 3)).lambda1
    res = lambda1(generate(PerturbedSphere(radius), 3))
    assert res.lambda1 * radius**2 == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("surface", [PerturbedSphere(1.0), Ellipsoid(2.0, 1.0, 1.0)])
def test_factor_fill_below_colamd(surface):
    # COLAMD's nnz(L) + nnz(U) on the s5 sphere was 1,341,206
    res = lambda1(generate(surface, 5))
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


def grid_mesh(nx, ny):
    """A flat nx-by-ny grid of integer points, two triangles per cell."""
    x, y = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    verts = np.c_[x.ravel(), y.ravel(), np.zeros(nx * ny)]
    corner = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    faces = np.r_[
        np.c_[corner, corner + 1, corner + nx + 1],
        np.c_[corner, corner + nx + 1, corner + nx],
    ]
    return Mesh(verts, faces)


@pytest.mark.parametrize("nx, ny", [(24, 24), (31, 13)])
def test_ordering_with_ties_at_the_median(nx, ny):
    # whole grid rows and columns share a coordinate, so most medians are
    # tied and the index order decides which tied vertices go left
    check_dissection(grid_mesh(nx, ny))


def test_ordering_identity_up_to_leaf_size(tetra):
    mesh = generate(PerturbedSphere(1.0), 1)
    assert mesh.n_vertices <= spectral.LEAF_SIZE
    for m in (mesh, load_mesh(tetra)):
        order = nested_dissection(m.vertices, m.one_ring_matrix)
        assert np.array_equal(order, np.arange(m.n_vertices))


def test_invalid_tol(sphere3):
    with pytest.raises(ValueError):
        lambda1(sphere3, tol=0.0)


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
    res = lambda1(mesh)
    by_mean, by_scalar = upper_bounds(estimate_geometry(mesh))
    assert res.lambda1 <= by_mean * 1.02
    assert res.lambda1 <= by_scalar * 1.02
    assert by_scalar <= by_mean * (1 + 1e-12)


def test_aubry_bound_values():
    assert aubry_lower_bound(0.0, 1.0, p=3.0, C_np=1.0) == 2.0
    assert aubry_lower_bound(1.0, 10.0, p=3.0, C_np=10.0) is None
    got = aubry_lower_bound(1e-6, 1.0, p=3.0, C_np=10.0)
    assert got == pytest.approx(1.8, rel=1e-12)


def test_aubry_bound_never_negative():
    # deficit/volume = 1e-3 < 1/C, but C * (1e-3)^(1/3) = 2: the bound
    # would read -2
    assert aubry_lower_bound(1e-3, 1.0, p=3.0, C_np=20.0) is None
    assert aubry_lower_bound(1e-3, 1.0, p=3.0, C_np=9.0) == pytest.approx(0.2)


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
