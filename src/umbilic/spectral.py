"""Cotangent Laplace-Beltrami operator and its first nonzero eigenvalue.

The stiffness matrix uses the classical cotangent weights (positive
semidefinite, constants in the kernel), the mass matrix is barycentric
lumping.  lambda1 is sparse-direct shift-invert Lanczos: S + sigma M is
factored once by SuperLU (scipy splu, COLAMD ordering), with sigma tied
to the mesh's mass scale so nothing depends on length units, and ARPACK
(scipy eigsh) iterates with that factor as the inverse operator.  The
constant mode in the kernel of S is dropped, and the returned pair is
certified by its independently recomputed Rayleigh quotient and
generalized eigenvalue residual.

Also provides the closed-form spectral bounds the pinching pipeline needs:
the mean-curvature/scalar-curvature upper bounds and the Ricci-deficit
lower bound with its configurable constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .mesh import Mesh

_SEED = 0x1C05FEE
# sigma = _SHIFT * 4 pi / area: _SHIFT / r^2 on a sphere of radius r, far
# below its lambda1 = 2 / r^2, and scaling with it under any change of units
_SHIFT = 1e-3


class ConvergenceError(RuntimeError):
    """lambda1 found no certified pair; carries the best one found.

    best_lambda1 and best_residual are recomputed from the best nonzero
    eigenpair available (None when there is none).
    """

    def __init__(self, message, best_lambda1, best_residual, iterations):
        super().__init__(message)
        self.best_lambda1 = best_lambda1
        self.best_residual = best_residual
        self.iterations = iterations


@dataclass(frozen=True)
class LaplaceSystem:
    """Sparse stiffness/mass pair of the P1 Laplace-Beltrami discretization."""

    stiffness: sparse.csr_matrix
    mass: sparse.csr_matrix

    @property
    def mass_diagonal(self) -> np.ndarray:
        return np.asarray(self.mass.diagonal())

    @property
    def n(self) -> int:
        return self.stiffness.shape[0]


@dataclass(frozen=True)
class SpectralResult:
    """First nonzero eigenpair with its certificate and gap diagnostics."""

    lambda1: float
    eigenfunction: np.ndarray
    residual: float
    iterations: int
    ritz_values: tuple
    gap_warning: bool


def build_laplace(mesh: Mesh) -> LaplaceSystem:
    """Assemble cotangent stiffness and lumped mass for a validated mesh."""
    f = mesh.faces
    c = mesh.face_corners
    V = mesh.n_vertices

    rows, cols, vals = [], [], []
    for corner, (ja, jb) in enumerate([(1, 2), (2, 0), (0, 1)]):
        e1 = c[:, ja] - c[:, corner]
        e2 = c[:, jb] - c[:, corner]
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.einsum("ij,ij->i", e1, e2) / cross
        if not np.all(np.isfinite(cot)):
            raise ValueError("non-finite cotangent weight (degenerate face)")
        # edge (ja, jb) opposite this corner gets weight cot/2
        rows.append(f[:, ja])
        cols.append(f[:, jb])
        vals.append(-0.5 * cot)
        rows.append(f[:, jb])
        cols.append(f[:, ja])
        vals.append(-0.5 * cot)
    off = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, V),
    )
    diag = -np.asarray(off.sum(axis=1)).ravel()
    stiffness = (off + sparse.diags(diag)).tocsr()
    mass = sparse.diags(mesh.vertex_areas).tocsr()
    return LaplaceSystem(stiffness=stiffness, mass=mass)


def _nonzero_pairs(vals, vecs, m):
    """Eigenpairs in ascending order with the constant mode dropped.

    The kernel of the stiffness matrix is the constants, so the dropped
    pair is the one whose vector is mass-aligned with the constant vector
    (every other eigenvector is mass-orthogonal to it).
    """
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    cos2 = (m @ vecs) ** 2 / (m.sum() * np.einsum("ij,i,ij->j", vecs, m, vecs))
    keep = cos2 < 0.5
    return vals[keep], vecs[:, keep]


def _certify(S, m, u):
    """Deflate and mass-normalise u; return (Rayleigh quotient, u, residual)."""
    u = u - (m @ u) / m.sum()
    u = u / np.sqrt(u @ (m * u))
    lam = float(u @ (S @ u))
    residual = float(np.linalg.norm(S @ u - lam * (m * u)) / np.linalg.norm(m * u))
    return lam, u, residual


def lambda1(
    system: LaplaceSystem,
    tol: float = 1e-8,
    max_iter: int = 500,
    block_size: int = 4,
) -> SpectralResult:
    """Smallest nonzero generalized eigenvalue of (stiffness, mass).

    Factors S + sigma M once with SuperLU (COLAMD ordering), where
    sigma = _SHIFT * 4 pi / area puts the shift in the mesh's own units, and
    runs ARPACK shift-invert Lanczos for the block_size + 1 eigenvalues
    nearest -sigma from a start vector seeded by _SEED.  The constant mode
    is dropped; the next eigenvector is mass-orthogonalised against the
    constants and mass-normalised, and lambda1 is recomputed from it as the
    Rayleigh quotient.  The certificate is the residual
    ||S u - lambda1 M u|| / ||M u||, an absolute quantity in the units of
    lambda1 (1/length^2); it must be <= tol, else ConvergenceError.

    max_iter is ARPACK's restart limit (maxiter).  iterations counts the
    applications of the factor (one triangular solve pair each); it depends
    only on the matrices, so it repeats exactly.  ritz_values are the
    block_size nonzero eigenvalues in ascending order.  A multiple
    second/third Ritz value only sets gap_warning (spheres have a
    three-dimensional first eigenspace; that is expected, not an error).

    ConvergenceError carries the best pair's Rayleigh quotient and residual,
    recomputed from whatever eigenpairs ARPACK converged (None if none but
    the constant mode did).  Its iterations is max_iter when ARPACK ran out
    of restarts, else the number of factor solves.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    S = system.stiffness
    m = system.mass_diagonal
    V = system.n
    if V < 4:
        raise ValueError("need at least 4 vertices")
    b = int(min(block_size, V - 3))

    sigma = _SHIFT * 4.0 * np.pi / m.sum()
    lu = splu((S + sigma * system.mass).tocsc())
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    v0 = np.random.default_rng(_SEED).standard_normal(V)
    converged = True
    try:
        vals, vecs = eigsh(
            S, k=b + 1, M=system.mass, sigma=-sigma, v0=v0, maxiter=max_iter,
            OPinv=LinearOperator((V, V), matvec=solve, dtype=np.float64),
        )
    except ArpackNoConvergence as exc:
        converged = False
        vals, vecs = exc.eigenvalues, exc.eigenvectors
    vals, vecs = _nonzero_pairs(vals, vecs, m)
    lam = u = residual = None
    if vals.size:
        lam, u, residual = _certify(S, m, vecs[:, 0])
    if not converged or not residual <= tol:
        why = (
            f"ARPACK did not converge in {max_iter} iterations"
            if not converged
            else f"residual above tol={tol:g}"
        )
        raise ConvergenceError(
            f"{why} (best lambda1 {lam!r}, residual {residual!r})",
            best_lambda1=lam,
            best_residual=residual,
            iterations=solves if converged else max_iter,
        )
    ritz = tuple(float(t) for t in vals[:b])
    gap = len(ritz) >= 3 and abs(ritz[2] - ritz[1]) <= tol * max(1.0, abs(ritz[2]))
    return SpectralResult(
        lambda1=lam,
        eigenfunction=u,
        residual=residual,
        iterations=solves,
        ritz_values=ritz,
        gap_warning=bool(gap),
    )


@dataclass(frozen=True)
class Lambda1UpperBounds:
    """lambda1 <= by_scalar_curvature <= by_mean_curvature (closed surfaces)."""

    by_mean_curvature: float      # n * sup|H|^2
    by_scalar_curvature: float    # sup|R| / (n-1)


def lambda1_upper_bound(geometries, n: int = 2) -> Lambda1UpperBounds:
    """Mean-curvature and scalar-curvature upper bounds for lambda1."""
    h_inf = float(np.abs(geometries.H).max())
    r_inf = float(np.abs(geometries.scalar_curv).max())
    return Lambda1UpperBounds(
        by_mean_curvature=n * h_inf**2,
        by_scalar_curvature=r_inf / (n - 1),
    )


def aubry_lower_bound(
    deficit_integral: float,
    volume: float,
    p: float,
    C_np: float,
    n: int = 2,
) -> float | None:
    """Ricci-deficit lower bound n*(1 - C*(deficit/volume)^(1/p)) for lambda1.

    Returns None when the smallness hypothesis deficit < volume/C fails
    ("hypothesis violated"); the bound is vacuous there.  The constant
    C(n, p) is not quantified by the theory and must be supplied; results
    are conditional on it.
    """
    if p <= n / 2:
        raise ValueError(f"need p > n/2, got p={p}")
    if C_np <= 0:
        raise ValueError("C_np must be positive")
    if volume <= 0:
        raise ValueError("volume must be positive")
    if deficit_integral < 0:
        raise ValueError("deficit integral cannot be negative")
    if deficit_integral >= volume / C_np:
        return None
    return n * (1.0 - C_np * (deficit_integral / volume) ** (1.0 / p))
