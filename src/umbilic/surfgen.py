"""Analytic test surfaces: generation as meshes and closed-form oracles.

Three families are supported: round spheres, axis-aligned ellipsoids and
spheres perturbed radially by a single real spherical harmonic.  Meshes are
icospheres (subdivided icosahedra with vertices reprojected), which keeps
triangle quality near-uniform and avoids pole clustering.

Curvature oracles are closed forms, independent of the mesh estimator:
spheres and ellipsoids directly, perturbed spheres through the fundamental
forms of the radial graph, built from the exact gradient and Hessian of the
harmonic.  They return the estimator's record, `diffgeo.SurfaceGeometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, lpmv

from .diffgeo import (
    SurfaceGeometry,
    eigen_split,
    tangent_frame,
    weingarten_matrix,
)
from .mesh import Mesh, edge_table

MAX_SUBDIVISION = 8


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
        sup *= math.sqrt(2.0)
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


def oracle_curvatures(surface: AnalyticSurface, dirs) -> SurfaceGeometry:
    """Closed-form principal curvatures at unit directions (outward normal)."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    dirs = dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
    if isinstance(surface, Sphere):
        k = np.full(dirs.shape[:-1], 1.0 / surface.radius)
        return SurfaceGeometry.from_principal(k, k)
    if isinstance(surface, Ellipsoid):
        return _ellipsoid_curvatures(surface, dirs)
    if isinstance(surface, PerturbedSphere):
        return _perturbed_curvatures(surface, dirs)
    raise TypeError(f"unknown surface kind {type(surface).__name__}")


def _ellipsoid_curvatures(surface: Ellipsoid, dirs) -> SurfaceGeometry:
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
    return SurfaceGeometry.from_principal(w[..., 1], w[..., 2])


def _harmonic_jet(degree: int, order: int, u: np.ndarray, frame):
    """Y_lm at unit rows of u with its first and second derivatives on S^2.

    With m = |order| and lpmv's Condon-Shortley phase,
    Y_lm(u) = c P_l^(m)(z) A(w) with w = x + iy: P_l^(m) is the m-th
    derivative of the Legendre polynomial and A is Re w^m (order >= 0) or
    Im w^m (order < 0), i.e. sin^m(theta) cos(m phi) or sin(m phi) on the
    sphere.  That is a polynomial in R^3, so it is regular at the poles,
    where the (theta, phi) chart is not.  A tangent vector t of `frame`
    enters as t_x + i t_y and t_z.  Returns Y, its derivatives (Y_1, Y_2)
    along the frame and its covariant Hessian (Y_11, Y_12, Y_22): the
    ambient Hessian on the frame minus (u . grad Y) delta_ij.
    """
    m = abs(order)
    c = (-1) ** m * _sph_norm(degree, m) * (np.sqrt(2.0) if order else 1.0)
    z = u[:, 2]
    legendre = np.polynomial.Legendre.basis(degree)
    p0, p1, p2 = (c * legendre.deriv(k)(z) for k in (m, m + 1, m + 2))
    # w^m and its complex derivatives m w^(m-1), m(m-1) w^(m-2)
    w = u[:, 0] + 1j * u[:, 1]
    w0, w1, w2 = (math.perm(m, k) * w ** max(m - k, 0) for k in range(3))
    part = np.real if order >= 0 else np.imag
    a = part(w0)
    tw = [t[:, 0] + 1j * t[:, 1] for t in frame]
    tz = [t[:, 2] for t in frame]
    dw = [w1 * t for t in tw]
    grad = tuple(p0 * part(dw[i]) + p1 * a * tz[i] for i in range(2))
    # u . grad Y = c A (m P^(m) + z P^(m+1)): w^m is homogeneous of degree m
    radial = a * (m * p0 + z * p1)

    def hess(i, j):
        return (
            p0 * part(w2 * tw[i] * tw[j])
            + p1 * (tz[i] * part(dw[j]) + tz[j] * part(dw[i]))
            + p2 * a * tz[i] * tz[j]
            - (radial if i == j else 0.0)
        )

    return p0 * a, grad, (hess(0, 0), hess(0, 1), hess(1, 1))


def _perturbed_curvatures(surface: PerturbedSphere, u) -> SurfaceGeometry:
    """Principal curvatures of the radial graph X = rho(u) u, rho = R + delta Y.

    In an orthonormal tangent frame of the unit sphere at u, with
    q_i = rho_i / rho and q_ij = rho_ij / rho (rho_ij the covariant Hessian),
    the fundamental forms are I = rho^2 (delta_ij + q_i q_j) and, for the
    outward normal, II = rho (delta_ij + 2 q_i q_j - q_ij) / sqrt(1 + |q|^2)
    (Goldman, CAGD 22, 2005).  The shared Weingarten kernel gets I / rho^2
    and -II / rho, its sign convention; its eigenvalues are rho times the
    curvatures, so delta = 0 gives exactly 1/R.
    """
    y, (y1, y2), (y11, y12, y22) = _harmonic_jet(
        surface.degree, surface.order, u, tangent_frame(u)
    )
    rho = surface.radius + surface.delta * y
    s = surface.delta / rho
    q1, q2, q11, q12, q22 = s * y1, s * y2, s * y11, s * y12, s * y22
    w = np.sqrt(1.0 + q1 * q1 + q2 * q2)
    mean, disc = eigen_split(weingarten_matrix(
        1.0 + q1 * q1, q1 * q2, 1.0 + q2 * q2,
        -(1.0 + 2.0 * q1 * q1 - q11) / w,
        -(2.0 * q1 * q2 - q12) / w,
        -(1.0 + 2.0 * q2 * q2 - q22) / w,
    ))
    return SurfaceGeometry.from_principal((mean - disc) / rho, (mean + disc) / rho)


def oracle_curvatures_at_vertices(
    surface: AnalyticSurface, mesh: Mesh
) -> SurfaceGeometry:
    """Oracle record at each mesh vertex (vertices must lie on the surface)."""
    v = mesh.vertices
    if isinstance(surface, Ellipsoid):
        u = v / np.array([surface.a, surface.b, surface.c])
    else:
        u = v / np.linalg.norm(v, axis=1)[:, None]
    return oracle_curvatures(surface, u)
