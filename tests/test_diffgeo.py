import dataclasses
import os
import time
import tracemalloc

import numpy as np
import pytest

from umbilic import diffgeo
from umbilic.diffgeo import (
    convexity_status,
    estimate_geometry,
    ricci_deficit,
)
from umbilic.mesh import Mesh, validate_mesh
from umbilic.surfgen import (
    Ellipsoid,
    PerturbedSphere,
    _subdivide,
    generate,
    oracle_curvatures_at_vertices,
)

from conftest import jittered


def subdivided_tetrahedron(levels=3) -> Mesh:
    """Midpoint-subdivided tetrahedron on the unit sphere.

    Its four valence-3 vertices have 9 ring-2 neighbors (the 5-term basis),
    every other vertex at least 14 (the 10-term basis).
    """
    verts = np.array(
        [[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]], dtype=float
    ) / np.sqrt(3.0)
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    for _ in range(levels):
        verts, faces = _subdivide(verts, faces)
    return Mesh(verts, faces)


def split_face0(mesh: Mesh, weights=(1 / 3, 1 / 3, 1 / 3), noise=0.0) -> Mesh:
    """`mesh` on the unit sphere with face 0 split at a projected point.

    The new vertex is the `weights` combination of face 0's corners, pushed
    to the sphere.  With `noise`, the vertices first move by that multiple
    of seeded normal noise and are projected back to the sphere.
    """
    v = mesh.vertices.copy()
    if noise:
        v += noise * np.random.default_rng(0).normal(size=v.shape)
        v /= np.linalg.norm(v, axis=1)[:, None]
    a, b, c = mesh.faces[0]
    point = np.asarray(weights) @ v[[a, b, c]]
    n = len(v)
    faces = np.vstack([mesh.faces[1:], [[a, b, n], [b, c, n], [c, a, n]]])
    return Mesh(np.vstack([v, point / np.linalg.norm(point)]), faces)


def assert_geometry_identical(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name


def test_unit_sphere_estimates(geom_sphere5):
    assert np.abs(geom_sphere5.H - 1.0).max() < 0.01
    assert geom_sphere5.A_traceless_norm.max() < 0.02


def test_sphere_radius_two():
    mesh = generate(PerturbedSphere(2.0), 4)
    geo = estimate_geometry(mesh)
    assert np.abs(geo.H - 0.5).max() < 5e-3
    assert np.abs(geo.H2 - 0.25).max() < 5e-3


def test_ellipsoid_matches_fd_oracle():
    surf = Ellipsoid(2.0, 1.0, 1.0)
    mesh = generate(surf, 5)
    geo = estimate_geometry(mesh)
    o = oracle_curvatures_at_vertices(surf, mesh)
    assert np.max(np.abs(geo.kappa - o.kappa) / np.abs(o.kappa)) < 0.05
    assert np.max(np.abs(geo.H - o.H) / o.H) < 0.05


def test_jittered_fit_error_near_uniform():
    # irregular triangles cost the two-ring jet fit at most a small factor
    # in max |H - H_oracle| at every resolution: no accuracy that rests on
    # the icosphere's symmetric neighborhoods
    surf = PerturbedSphere(1.0, 0.05, 3, 1)

    def h_error(mesh):
        exact = oracle_curvatures_at_vertices(surf, mesh)
        return np.abs(estimate_geometry(mesh).H - exact.H).max()

    for s in (3, 4, 5):
        uniform = h_error(generate(surf, s))
        for seed in range(3):
            assert h_error(jittered(surf, s, seed)) <= 4.0 * uniform, (s, seed)


def test_kappa_ordering_and_identities(geom_sphere5, geom_ellipsoid4, geom_perturbed4):
    u = np.finfo(float).eps
    elongated = estimate_geometry(generate(Ellipsoid(3.0, 1.0, 1.0), 4))
    for g in (geom_sphere5, geom_ellipsoid4, geom_perturbed4, elongated):
        k1, k2 = g.kappa.T
        assert np.all(k1 <= k2)
        assert np.allclose(g.H, g.kappa.mean(axis=1), atol=1e-14)
        # ||A - Hg||^2 = (k1-H)^2 + (k2-H)^2 = (k1-k2)^2/2, to the rounding of
        # k1 - k2: near-umbilic vertices lose digits to cancellation there,
        # so a fixed relative bound would hold only by luck
        lhs = g.A_traceless_norm**2
        diff = np.abs(k1 - k2)
        bound = diff * u * (np.abs(k1) + np.abs(k2) + diff / 2.0) + 4.0 * u * lhs
        assert np.all(np.abs(lhs - diff**2 / 2.0) <= bound)


def test_am_gm_exact(geom_sphere5, geom_ellipsoid4, geom_perturbed4):
    for g in (geom_sphere5, geom_ellipsoid4, geom_perturbed4):
        assert np.all(g.H2 <= g.H * g.H)


def test_shape_operator_eigenvalues():
    # random positive-definite first forms I and second forms II
    rng = np.random.default_rng(7)
    E, G = rng.uniform(0.5, 2.0, (2, 500))
    F = rng.uniform(-0.9, 0.9, 500) * np.sqrt(E * G)
    e, f, g = rng.uniform(-1.0, 1.0, (3, 500))
    W = diffgeo.weingarten_matrix(E, F, G, e, f, g)
    assert np.allclose(W, np.swapaxes(W, 1, 2), atol=0.0)
    mean, disc = diffgeo.eigen_split(W)
    split = np.stack([mean - disc, mean + disc], axis=1)
    assert np.allclose(split, np.linalg.eigvalsh(W), atol=1e-10)
    # W is similar to -I^-1 II, the Weingarten map in the coordinate frame
    first = np.stack([np.stack([E, F], -1), np.stack([F, G], -1)], -2)
    second = np.stack([np.stack([e, f], -1), np.stack([f, g], -1)], -2)
    coordinate = np.sort(np.linalg.eigvals(-np.linalg.solve(first, second)).real)
    assert np.allclose(split, coordinate, atol=1e-10)


def test_normals_outward(sphere4):
    radial = sphere4.vertices / np.linalg.norm(sphere4.vertices, axis=1)[:, None]
    dots = np.einsum("ij,ij->i", diffgeo.vertex_normals(sphere4), radial)
    assert np.all(dots > 0.99)


def test_normals_rank_deficient():
    # two coincident triangles of opposite orientation: the face normals cancel
    mesh = Mesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                [[0, 1, 2], [0, 2, 1]])
    with pytest.raises(ValueError, match=r"rank-deficient normal at vertices \[0 1 2\]"):
        diffgeo.vertex_normals(mesh)


@pytest.mark.parametrize(
    "rmin,mu,expected",
    [(1.0, 1.0, 0.0), (0.5, 1.0, 0.5), (3.0, 1.0, 0.0)],
)
def test_ricci_deficit_values(rmin, mu, expected):
    assert ricci_deficit(rmin, mu) == pytest.approx(expected, abs=1e-15)


def test_ricci_deficit_rescaling_and_errors(geom_sphere4):
    d = ricci_deficit(geom_sphere4.H2, 1.0)
    assert d.shape == geom_sphere4.H.shape
    assert d.max() < 0.05  # unit sphere: Ric ~ 1, deficit ~ estimator noise
    with pytest.raises(ValueError):
        ricci_deficit(1.0, 0.0)


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
    assert o.kappa[:, 0].min() > 0


def test_exact_scaling_covariance(sphere3):
    base = estimate_geometry(sphere3)
    doubled = estimate_geometry(Mesh(sphere3.vertices * 2.0, sphere3.faces))
    assert np.allclose(doubled.kappa, base.kappa / 2.0, rtol=1e-12, atol=1e-15)
    assert np.allclose(doubled.H, base.H / 2.0, rtol=1e-12, atol=1e-15)
    assert np.allclose(
        doubled.A_traceless_norm, base.A_traceless_norm / 2.0,
        rtol=1e-12, atol=1e-16,
    )
    assert np.allclose(doubled.H2, base.H2 / 4.0, rtol=1e-12)


def test_rescaled_record(geom_sphere4):
    g2 = geom_sphere4.rescaled(2.0)
    assert np.allclose(g2.kappa, geom_sphere4.kappa / 2.0, atol=0.0)
    assert np.allclose(g2.H2, geom_sphere4.H2 / 4.0, atol=0.0)


def test_convergence_order_of_H():
    errs = []
    for s in (3, 4, 5):
        mesh = generate(PerturbedSphere(1.0), s)
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
        estimate_geometry(mesh)


@pytest.mark.parametrize("mesh_name", ["perturbed4", "tetra"])
def test_fit_block_size_does_not_change_result(
    mesh_name, perturbed4, geom_perturbed4, monkeypatch
):
    if mesh_name == "tetra":
        mesh = subdivided_tetrahedron()
        counts = np.diff(diffgeo.neighborhoods(mesh).indptr)
        # at least two basis tiers in play
        assert counts.min() < diffgeo.CUBIC_MIN_NEIGHBORS
        assert counts.max() >= diffgeo.QUARTIC_MIN_NEIGHBORS
        reference = estimate_geometry(mesh)
    else:
        mesh, reference = perturbed4, geom_perturbed4
    for block in (1, 7, mesh.n_vertices + 1):
        monkeypatch.setattr(diffgeo, "FIT_BLOCK", block)
        assert_geometry_identical(estimate_geometry(mesh), reference)


def test_underdetermined_names_vertex_with_unit_blocks(monkeypatch):
    # every octahedron vertex has the 5 others within two rings, 0 first
    verts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    faces = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
             [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    mesh = Mesh(verts, faces)
    assert np.all(np.diff(diffgeo.neighborhoods(mesh).indptr) == 5)
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 1)
    with pytest.raises(ValueError, match=r"vertex 0 has only 5 neighbors at "
                       r"ring_depth=2 \(need >= 6\)"):
        estimate_geometry(mesh)


def reference_fit(mesh: Mesh):
    """(H, |A - Hg|) of each vertex's own least-squares jet, one at a time."""
    normals = diffgeo.vertex_normals(mesh)
    t1, t2 = diffgeo.tangent_frame(normals)
    nbr = diffgeo.neighborhoods(mesh)
    H, anorm, tiers = [], [], []
    for i in range(mesh.n_vertices):
        ring = nbr.indices[nbr.indptr[i]:nbr.indptr[i + 1]]
        d = mesh.vertices[ring] - mesh.vertices[i]
        scale = np.sqrt((d * d).sum() / len(ring))
        u, w, z = (d @ np.stack([t1[i], t2[i], normals[i]], axis=1)).T / scale
        basis = [u, w, u * u, u * w, w * w,
                 u**3, u * u * w, u * w * w, w**3, (u * u + w * w) ** 2]
        n_terms = (10 if len(ring) >= diffgeo.QUARTIC_MIN_NEIGHBORS else
                   9 if len(ring) >= diffgeo.CUBIC_MIN_NEIGHBORS else 5)
        p, q, a2, b, c2 = np.linalg.lstsq(
            np.stack(basis[:n_terms], axis=1), z, rcond=None)[0][:5]
        wn = np.sqrt(1.0 + p * p + q * q)
        W = diffgeo.weingarten_matrix(
            1.0 + p * p, p * q, 1.0 + q * q,
            2.0 * a2 / scale / wn, b / scale / wn, 2.0 * c2 / scale / wn)
        mean, disc = diffgeo.eigen_split(W)
        H.append(mean)
        anorm.append(np.sqrt(2.0) * disc)
        tiers.append(n_terms)
    return np.array(H), np.array(anorm), np.array(tiers)


def test_fit_matches_per_vertex_reference_in_every_tier():
    mesh = split_face0(subdivided_tetrahedron(2), noise=0.02)
    assert validate_mesh(mesh).all_passed
    H, anorm, tiers = reference_fit(mesh)
    assert np.array_equal(np.bincount(tiers)[[5, 9, 10]], [4, 1, 30])
    geo = estimate_geometry(mesh)
    assert np.abs(geo.H - H).max() < 1e-11
    assert np.abs(geo.A_traceless_norm - anorm).max() < 1e-11


@pytest.mark.parametrize("mesh_name", ["icosahedron", "split"])
def test_singular_fit_names_vertex(mesh_name):
    # every icosahedron vertex fits 9 terms on its 10 two-ring neighbors,
    # and so does vertex 0, a corner of the split face: both rank-deficient
    mesh = (generate(PerturbedSphere(1.0), 0) if mesh_name == "icosahedron"
            else split_face0(subdivided_tetrahedron(2)))
    with pytest.raises(ValueError, match=r"^singular jet fit: vertex 0 has a "
                       r"rank-deficient 9-term basis"):
        estimate_geometry(mesh)


def singular_mesh(last=False) -> Mesh:
    """The centroid-split tetrahedron (35 vertices): only vertex 0, or with
    `last` the same vertex relabelled 34, fails the rank test."""
    mesh = split_face0(subdivided_tetrahedron(2))
    if not last:
        return mesh
    label = (np.arange(mesh.n_vertices) - 1) % mesh.n_vertices
    verts = np.empty_like(mesh.vertices)
    verts[label] = mesh.vertices
    return Mesh(verts, label[mesh.faces])


def in_child(action):
    """A `_fit_block` that runs `action()` first in a forked child."""
    parent, fit_block = os.getpid(), diffgeo._fit_block

    def fit(*args):
        if os.getpid() != parent:
            action()
        return fit_block(*args)

    return fit


def test_two_process_fit_matches_one_process(perturbed4, geom_perturbed4, monkeypatch,
                                             forked):
    # the reference ran at the default block, which holds all 2,562 vertices
    assert perturbed4.n_vertices <= diffgeo.FIT_BLOCK
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 1000)
    assert_geometry_identical(estimate_geometry(perturbed4), geom_perturbed4)
    assert len(forked) == 1


def fit_error(mesh):
    """The message of the ValueError that `estimate_geometry(mesh)` raises."""
    with pytest.raises(ValueError) as error:
        estimate_geometry(mesh)
    return str(error.value)


@pytest.mark.parametrize("last", [False, True])
def test_singular_fit_on_two_processes_names_vertex(last, monkeypatch, forked):
    # vertex 0 is fitted in this process, vertex 34 in the child
    mesh = singular_mesh(last)
    expected = fit_error(mesh)
    assert f"vertex {34 if last else 0} " in expected and not forked
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 8)
    assert fit_error(mesh) == expected
    assert len(forked) == 1


def test_singular_fit_here_kills_child(monkeypatch, forked):
    # the child would fit for a minute; this process's error ends it
    mesh = singular_mesh()
    expected = fit_error(mesh)
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 8)
    monkeypatch.setattr(diffgeo, "_fit_block", in_child(lambda: time.sleep(60)))
    start = time.monotonic()
    assert fit_error(mesh) == expected
    assert time.monotonic() - start < 30
    assert len(forked) == 1


def test_fit_child_death_raises(perturbed4, monkeypatch, forked):
    monkeypatch.setattr(diffgeo, "FIT_BLOCK", 1000)
    monkeypatch.setattr(diffgeo, "_fit_block", in_child(lambda: os._exit(1)))
    with pytest.raises(OSError, match="exited with status 1"):
        estimate_geometry(perturbed4)
    assert len(forked) == 1


def test_off_centre_split_still_fits():
    # its smallest pivot ratio, 3.4e-7, sits far above MIN_PIVOT_RATIO
    geo = estimate_geometry(split_face0(subdivided_tetrahedron(2), (0.5, 0.3, 0.2)))
    assert np.all(np.isfinite(geo.H))


def test_fit_memory_bounded():
    # the bound sits between a block-wise fit (about 29 MiB) and one that
    # pads every vertex at once (about 201 MiB)
    mesh = generate(PerturbedSphere(1.0, 0.01, 2, 0), 6)
    mesh.one_ring_matrix
    tracemalloc.start()
    try:
        estimate_geometry(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
