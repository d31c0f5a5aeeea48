"""Analytic test surfaces: generation as meshes and closed-form oracles.

Three families are supported: round spheres, axis-aligned ellipsoids and
spheres perturbed radially by a single real spherical harmonic.  Meshes are
icospheres (subdivided icosahedra with vertices reprojected), which keeps
triangle quality near-uniform and avoids pole clustering.

Curvature oracles are independent of the mesh estimator: spheres and
ellipsoids use closed forms, perturbed spheres a centered finite-difference
second fundamental form of the radial graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, lpmv

from .diffgeo import (
    SurfaceGeometry,
    eigen_split,
    ricci_from_gauss,
    tangent_frame,
    weingarten_matrix,
)
from .mesh import Mesh, edge_table

MAX_SUBDIVISION = 8

# Step for the finite-difference fundamental forms; balances truncation
# against round-off for second derivatives at double precision.
FD_STEP = 1e-5


@dataclass(frozen=True)
class Sphere:
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True)
class Ellipsoid:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise ValueError("ellipsoid semi-axes must be positive")


@dataclass(frozen=True)
class PerturbedSphere:
    """Radial graph rho(theta, phi) = radius + delta * Y_lm(theta, phi)."""

    radius: float = 1.0
    delta: float = 0.0
    degree: int = 2
    order: int = 0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("base radius must be positive")
        if self.degree < 0 or abs(self.order) > self.degree:
            raise ValueError("need degree >= 0 and |order| <= degree")
        if abs(self.delta) * harmonic_sup(self.degree, self.order) >= self.radius:
            raise ValueError(
                "perturbation amplitude violates radial positivity: "
                f"|delta|*max|Y| = {abs(self.delta) * harmonic_sup(self.degree, self.order):g}"
                f" >= radius = {self.radius:g}"
            )


AnalyticSurface = Sphere | Ellipsoid | PerturbedSphere


@dataclass(frozen=True)
class CurvatureOracle:
    """Principal curvatures and derived quantities at sampled points."""

    kappa1: np.ndarray
    kappa2: np.ndarray

    @property
    def H(self) -> np.ndarray:
        return 0.5 * (self.kappa1 + self.kappa2)

    @property
    def traceless_norm(self) -> np.ndarray:
        return np.abs(self.kappa2 - self.kappa1) / np.sqrt(2.0)

    @property
    def K(self) -> np.ndarray:
        return self.kappa1 * self.kappa2


# -- real spherical harmonics -------------------------------------------------


def _sph_norm(degree: int, m: int) -> float:
    """Normalization of the order-m associated Legendre function, via logs."""
    return np.exp(0.5 * (
        np.log((2 * degree + 1) / (4.0 * np.pi))
        + gammaln(degree - m + 1)
        - gammaln(degree + m + 1)
    ))


def real_sph_harm(degree: int, order: int, theta, phi):
    """Real spherical harmonic, orthonormal w.r.t. the S^2 surface measure.

    Uses cos(m*phi) for order > 0 and sin(|m|*phi) for order < 0; the
    Condon-Shortley phase of lpmv is kept (any fixed sign convention gives
    an orthonormal family).
    """
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    m = abs(order)
    if degree < 0 or m > degree:
        raise ValueError("need degree >= 0 and |order| <= degree")
    val = _sph_norm(degree, m) * lpmv(m, degree, np.cos(theta))
    if order > 0:
        val = np.sqrt(2.0) * val * np.cos(m * phi)
    elif order < 0:
        val = np.sqrt(2.0) * val * np.sin(m * phi)
    return val


@lru_cache(maxsize=None)
def harmonic_sup(degree: int, order: int) -> float:
    """max over S^2 of |Y_lm|, by dense sampling of the polar profile."""
    theta = np.linspace(0.0, np.pi, 20001)
    m = abs(order)
    profile = _sph_norm(degree, m) * np.abs(lpmv(m, degree, np.cos(theta)))
    sup = float(profile.max())
    if order != 0:
        sup *= np.sqrt(2.0)
    # dense-grid max can undershoot slightly
    return sup * (1.0 + 1e-6)


# -- icosphere ----------------------------------------------------------------

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
        (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
        (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
    ],
    dtype=np.float64,
)

_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=np.int64,
)


@lru_cache(maxsize=None)
def unit_icosphere(subdivision: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere vertex directions and faces at the given subdivision.

    Faces are outward-oriented; every vertex lies exactly on the unit sphere
    (renormalized after each midpoint split).  Built once per subdivision
    level and shared by every caller, so both arrays are read-only.
    """
    if not 0 <= subdivision <= MAX_SUBDIVISION:
        raise ValueError(
            f"subdivision must be in [0, {MAX_SUBDIVISION}], got {subdivision}"
        )
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1)[:, None]
    faces = _ICO_FACES
    for _ in range(subdivision):
        verts, faces = _subdivide(verts, faces)
    verts.setflags(write=False)
    faces.setflags(write=False)
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray):
    V = len(verts)
    keys, inverse, _ = edge_table(faces, V)
    lo, hi = np.divmod(keys, V)
    mid = verts[lo] + verts[hi]
    mid /= np.linalg.norm(mid, axis=1)[:, None]
    new_verts = np.vstack([verts, mid])

    # midpoint of key k is vertex V + k
    m01, m12, m20 = (V + inverse).reshape(3, -1)
    v0, v1, v2 = faces.T
    new_faces = np.concatenate(
        [
            np.stack([v0, m01, m20], axis=1),
            np.stack([v1, m12, m01], axis=1),
            np.stack([v2, m20, m12], axis=1),
            np.stack([m01, m12, m20], axis=1),
        ]
    )
    return new_verts, new_faces


def generate(surface: AnalyticSurface, subdivision: int) -> Mesh:
    """Mesh an analytic surface on the icosphere with 20*4^subdivision faces."""
    dirs, faces = unit_icosphere(subdivision)
    return Mesh(surface_point(surface, dirs), faces)


# -- parametrization and oracles ----------------------------------------------


def surface_point(surface: AnalyticSurface, dirs: np.ndarray) -> np.ndarray:
    """Embedding evaluated at unit direction vectors, shape (..., 3)."""
    if isinstance(surface, Sphere):
        return surface.radius * dirs
    if isinstance(surface, Ellipsoid):
        return dirs * np.array([surface.a, surface.b, surface.c])
    if isinstance(surface, PerturbedSphere):
        theta = np.arccos(np.clip(dirs[..., 2], -1.0, 1.0))
        phi = np.arctan2(dirs[..., 1], dirs[..., 0])
        rho = surface.radius + surface.delta * real_sph_harm(
            surface.degree, surface.order, theta, phi
        )
        return rho[..., None] * dirs
    raise TypeError(f"unknown surface kind {type(surface).__name__}")


def fd_curvatures(surface: AnalyticSurface, dirs) -> CurvatureOracle:
    """Principal curvatures by centered finite differences at unit directions.

    Works in a normalized-offset chart around each direction, which stays
    regular at the coordinate poles.  Independent of the mesh estimator;
    the second fundamental form is taken w.r.t. the outward normal, so
    spheres come out with positive curvatures.
    """
    u = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    e1, e2 = tangent_frame(u)

    h = FD_STEP

    def X(s, t):
        v = u + s * e1 + t * e2
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        return surface_point(surface, v)

    x0 = X(0.0, 0.0)
    xs_p, xs_m = X(h, 0.0), X(-h, 0.0)
    xt_p, xt_m = X(0.0, h), X(0.0, -h)
    x_s = (xs_p - xs_m) / (2 * h)
    x_t = (xt_p - xt_m) / (2 * h)
    x_ss = (xs_p - 2 * x0 + xs_m) / h**2
    x_tt = (xt_p - 2 * x0 + xt_m) / h**2
    x_st = (X(h, h) - X(h, -h) - X(-h, h) + X(-h, -h)) / (4 * h**2)

    nrm = np.cross(x_s, x_t)
    nrm /= np.linalg.norm(nrm, axis=-1, keepdims=True)

    E = np.einsum("...i,...i", x_s, x_s)
    F = np.einsum("...i,...i", x_s, x_t)
    G = np.einsum("...i,...i", x_t, x_t)
    e = np.einsum("...i,...i", x_ss, nrm)
    f = np.einsum("...i,...i", x_st, nrm)
    g = np.einsum("...i,...i", x_tt, nrm)
    mean, disc = eigen_split(weingarten_matrix(E, F, G, e, f, g))
    return CurvatureOracle(kappa1=mean - disc, kappa2=mean + disc)


def oracle_curvatures(surface: AnalyticSurface, dirs) -> CurvatureOracle:
    """Closed-form curvatures for spheres/ellipsoids, FD for perturbed ones."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    dirs = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
    if isinstance(surface, Sphere):
        k = np.full(dirs.shape[:-1], 1.0 / surface.radius)
        return CurvatureOracle(kappa1=k, kappa2=k.copy())
    if isinstance(surface, Ellipsoid):
        return _ellipsoid_curvatures(surface, dirs)
    if isinstance(surface, PerturbedSphere):
        return fd_curvatures(surface, dirs)
    raise TypeError(f"unknown surface kind {type(surface).__name__}")


def _ellipsoid_curvatures(surface: Ellipsoid, dirs) -> CurvatureOracle:
    """Principal curvatures of the level set x^2/a^2 + y^2/b^2 + z^2/c^2 = 1.

    The shape operator is the tangential projection of the scaled Hessian
    P Hess(F) P / |grad F|; its two nonzero eigenvalues are the principal
    curvatures (positive: the ellipsoid is convex).
    """
    pts = surface_point(surface, dirs)
    inv_sq = np.array([surface.a, surface.b, surface.c]) ** -2.0
    grad = pts * inv_sq
    gn = np.linalg.norm(grad, axis=-1)
    n = grad / gn[..., None]
    eye = np.eye(3)
    P = eye - np.einsum("...i,...j->...ij", n, n)
    H = np.zeros(pts.shape[:-1] + (3, 3))
    H[..., 0, 0], H[..., 1, 1], H[..., 2, 2] = inv_sq
    B = np.einsum("...ij,...jk,...kl->...il", P, H, P) / gn[..., None, None]
    w = np.linalg.eigvalsh(B)  # ascending: (~0, kappa1, kappa2)
    return CurvatureOracle(kappa1=w[..., 1], kappa2=w[..., 2])


def oracle_curvatures_at_vertices(
    surface: AnalyticSurface, mesh: Mesh
) -> CurvatureOracle:
    """Oracle evaluated at each mesh vertex (vertices must lie on the surface)."""
    v = mesh.vertices
    if isinstance(surface, Ellipsoid):
        u = v / np.array([surface.a, surface.b, surface.c])
    else:
        u = v / np.linalg.norm(v, axis=1)[:, None]
    return oracle_curvatures(surface, u)


def oracle_geometry(surface: AnalyticSurface, mesh: Mesh):
    """Closed-form per-vertex curvature record in the mesh estimator's layout.

    Lets the pipeline run on exact curvature data.
    """
    o = oracle_curvatures_at_vertices(surface, mesh)
    kappa = np.stack([o.kappa1, o.kappa2], axis=1)
    ricci_min, scalar = ricci_from_gauss(kappa)
    return SurfaceGeometry(
        kappa=kappa,
        H=o.H,
        A_traceless_norm=o.traceless_norm,
        H2=o.K,
        ricci_min=ricci_min,
        scalar_curv=scalar,
    )
