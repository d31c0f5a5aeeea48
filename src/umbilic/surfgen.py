"""Analytic test surfaces: generation as meshes and closed-form oracles.

Two families: axis-aligned ellipsoids and spheres perturbed radially by a
real spherical harmonic (delta = 0 is the round sphere).  Meshes are
icospheres (subdivided icosahedra with vertices reprojected), which keeps
triangle quality near-uniform and avoids pole clustering.

Curvature oracles are closed forms, independent of the mesh estimator: the
exact fundamental forms of a chart over the unit sphere, with the harmonic
a polynomial in the direction (no angle chart, no pole case), go through
the estimator's Weingarten kernel into its record, `SurfaceGeometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .diffgeo import (
    SurfaceGeometry,
    eigen_split,
    tangent_frame,
    weingarten_matrix,
)
from .mesh import Mesh, edge_table

MAX_SUBDIVISION = 8


@dataclass(frozen=True)
class Ellipsoid:
    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0:
            raise ValueError("ellipsoid semi-axes must be positive")
        if not np.isfinite([self.a, self.b, self.c]).all():
            raise ValueError(f"ellipsoid semi-axes must be finite, got {self}")


@dataclass(frozen=True)
class PerturbedSphere:
    """Radial graph rho(u) = radius + delta * Y_lm(u) over unit directions u,
    Y_lm a polynomial in u (`real_sph_harm`); delta = 0 is the round sphere."""

    radius: float = 1.0
    delta: float = 0.0
    degree: int = 2
    order: int = 0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("base radius must be positive")
        # harmonic_sup rejects a degree < 0 or |order| > degree
        reach = abs(self.delta) * harmonic_sup(self.degree, self.order)
        if reach >= self.radius:
            raise ValueError(
                "perturbation amplitude violates radial positivity: "
                f"|delta|*max|Y| = {reach:g} >= radius = {self.radius:g}"
            )
        for name in ("radius", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


AnalyticSurface = Ellipsoid | PerturbedSphere


# -- real spherical harmonics -------------------------------------------------


@lru_cache(maxsize=None)
def _harmonic_factors(degree: int, order: int):
    """(m, c, d^m P_l / dz^m, Re or Im) with Y_lm(u) = c P_l^(m)(z) A(x + iy).

    m = |order|; A is Re w^m for order >= 0 and Im w^m for order < 0, that
    is sin^m(theta) cos(m phi) or sin(m phi) on the sphere; c holds the
    normalization, sqrt(2) for order != 0 and the Condon-Shortley phase (-1)^m.
    """
    m = abs(order)
    if degree < 0 or m > degree:
        raise ValueError("need degree >= 0 and |order| <= degree")
    # the order-m associated Legendre function's normalization, via logs
    norm = np.exp(0.5 * (
        np.log((2 * degree + 1) / (4.0 * np.pi))
        + gammaln(degree - m + 1)
        - gammaln(degree + m + 1)
    ))
    c = (-1) ** m * norm * (np.sqrt(2.0) if order else 1.0)
    legendre = np.polynomial.Legendre.basis(degree).deriv(m)
    return m, c, legendre, np.real if order >= 0 else np.imag


def real_sph_harm(degree: int, order: int, u):
    """Real spherical harmonic at unit vectors u (..., 3), orthonormal on S^2.

    A polynomial in the coordinates of u, so it is regular at the poles.
    """
    u = np.asarray(u, dtype=np.float64)
    m, c, legendre, part = _harmonic_factors(degree, order)
    return c * legendre(u[..., 2]) * part((u[..., 0] + 1j * u[..., 1]) ** m)


@lru_cache(maxsize=None)
def harmonic_sup(degree: int, order: int) -> float:
    """max over S^2 of |Y_lm|, by dense sampling of Y_l|m| on the meridian
    y = 0 (Y_l,-m is Y_lm rotated about the z-axis)."""
    theta = np.linspace(0.0, np.pi, 20001)
    meridian = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    sup = float(np.abs(real_sph_harm(degree, abs(order), meridian)).max())
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
    if isinstance(surface, Ellipsoid):
        return dirs * np.array([surface.a, surface.b, surface.c])
    rho = surface.radius + surface.delta * real_sph_harm(
        surface.degree, surface.order, dirs
    )
    return rho[..., None] * dirs


def oracle_curvatures(surface: AnalyticSurface, dirs) -> SurfaceGeometry:
    """Closed-form principal curvatures at unit directions (outward normal).

    Each family is a chart u -> X(u) over the unit sphere with exact
    fundamental forms in `tangent_frame(u)`; the estimator's Weingarten
    kernel turns them into the record.  A family returns its forms scaled
    so that the kernel's eigenvalues are `scale` times the curvatures.
    """
    u = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    forms = _ellipsoid_forms if isinstance(surface, Ellipsoid) else _perturbed_forms
    scale, fundamental = forms(surface, u, tangent_frame(u))
    mean, disc = eigen_split(weingarten_matrix(*fundamental))
    return SurfaceGeometry.from_split(mean / scale, disc / scale)


def _ellipsoid_forms(surface: Ellipsoid, u, frame):
    """Fundamental forms of the linear chart X = D u, D = diag(a, b, c).

    Along the great circles of the frame X_ij = -delta_ij X, and the outward
    normal is D^-1 u / |D^-1 u|, so I_ij = D t_i . D t_j and
    <X_ij, n> = -delta_ij / |D^-1 u|; the kernel takes -II, and scale is 1.
    """
    d = np.array([surface.a, surface.b, surface.c])
    t1, t2 = frame[0] * d, frame[1] * d
    e = -1.0 / np.linalg.norm(u / d, axis=-1)
    return 1.0, ((t1 * t1).sum(-1), (t1 * t2).sum(-1), (t2 * t2).sum(-1), e, 0.0, e)


def _harmonic_jet(degree: int, order: int, u: np.ndarray, frame):
    """Y_lm at unit rows of u with its first and second derivatives on S^2.

    Y_lm(u) = c P_l^(m)(z) A(w) with w = x + iy (see `_harmonic_factors`) is
    a polynomial in R^3, so it is regular at the poles.  A tangent vector t
    of `frame` enters as t_x + i t_y and t_z.  Returns Y, its derivatives
    (Y_1, Y_2) along the frame and its covariant Hessian (Y_11, Y_12, Y_22):
    the ambient Hessian on the frame minus (u . grad Y) delta_ij.
    """
    m, c, legendre, part = _harmonic_factors(degree, order)
    z = u[:, 2]
    p0, p1, p2 = (c * legendre.deriv(k)(z) for k in range(3))
    # w^m and its complex derivatives m w^(m-1), m(m-1) w^(m-2)
    w = u[:, 0] + 1j * u[:, 1]
    w0, w1, w2 = (math.perm(m, k) * w ** max(m - k, 0) for k in range(3))
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


def _perturbed_forms(surface: PerturbedSphere, u, frame):
    """Fundamental forms of the radial graph X = rho(u) u, rho = R + delta Y.

    In an orthonormal tangent frame of the unit sphere at u, with
    q_i = rho_i / rho and q_ij = rho_ij / rho (rho_ij the covariant Hessian),
    the fundamental forms are I = rho^2 (delta_ij + q_i q_j) and, for the
    outward normal, II = rho (delta_ij + 2 q_i q_j - q_ij) / sqrt(1 + |q|^2)
    (Goldman, CAGD 22, 2005).  The kernel gets I / rho^2 and -II / rho, its
    sign convention, so scale is rho and delta = 0 gives exactly 1/R.
    """
    y, (y1, y2), (y11, y12, y22) = _harmonic_jet(surface.degree, surface.order, u, frame)
    rho = surface.radius + surface.delta * y
    s = surface.delta / rho
    q1, q2, q11, q12, q22 = s * y1, s * y2, s * y11, s * y12, s * y22
    w = np.sqrt(1.0 + q1 * q1 + q2 * q2)
    return rho, (
        1.0 + q1 * q1, q1 * q2, 1.0 + q2 * q2,
        -(1.0 + 2.0 * q1 * q1 - q11) / w,
        -(2.0 * q1 * q2 - q12) / w,
        -(1.0 + 2.0 * q2 * q2 - q22) / w,
    )


def oracle_curvatures_at_vertices(
    surface: AnalyticSurface, mesh: Mesh
) -> SurfaceGeometry:
    """Oracle record at each mesh vertex (vertices must lie on the surface)."""
    v = mesh.vertices
    if isinstance(surface, Ellipsoid):
        v = v / np.array([surface.a, surface.b, surface.c])
    return oracle_curvatures(surface, v)
