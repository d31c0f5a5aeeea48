"""Cotangent Laplace-Beltrami operator and its first nonzero eigenvalue.

The stiffness matrix uses the classical cotangent weights (positive
semidefinite, constants in the kernel), the mass matrix is barycentric
lumping.  lambda1 is sparse-direct shift-invert Lanczos: S + sigma M is
factored once by SuperLU, with sigma tied to the mesh's mass scale so
nothing depends on length units, and ARPACK (scipy eigsh) iterates with
that factor as the inverse operator.  The constant mode in the kernel of
S is dropped, and the returned pair is certified by its independently
recomputed Rayleigh quotient and generalized eigenvalue residual.

The factor's fill is kept low by a coordinate nested dissection of the
mesh graph (George, SIAM J. Numer. Anal. 10, 1973; Lipton, Rose and
Tarjan, SIAM J. Numer. Anal. 16, 1979: a genus-0 mesh is planar, so the
fill is O(n log n)).  build_laplace computes the ordering once, and
lambda1 factors S + sigma M, which is symmetric positive definite, in
that order without pivoting.

Also provides the Ricci-deficit lower bound the proof trace needs, with
its configurable constant.
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
# nonzero eigenvalues lambda1 computes (as ritz_values), and ARPACK's
# restart limit
BLOCK_SIZE = 4
MAX_ITER = 500
# nested dissection stops splitting a part of at most this many vertices
LEAF_SIZE = 64
# the residual a lambda1 certificate must reach unless a caller sets another
DEFAULT_TOL = 1e-8


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
    """Sparse stiffness/mass pair of the P1 Laplace-Beltrami discretization.

    ordering is the nested-dissection elimination order of the vertices
    that lambda1 factors in (ordering[k] is the k-th vertex eliminated).
    """

    stiffness: sparse.csr_matrix
    mass: sparse.csr_matrix
    ordering: np.ndarray

    @property
    def mass_diagonal(self) -> np.ndarray:
        return np.asarray(self.mass.diagonal())

    @property
    def n(self) -> int:
        return self.stiffness.shape[0]


@dataclass(frozen=True)
class SpectralResult:
    """First nonzero eigenpair with its certificate and gap diagnostics.

    factor_nnz is nnz(L) + nnz(U) of the factor of S + sigma M (each
    counts the diagonal), the fill the ordering achieved.
    """

    lambda1: float
    eigenfunction: np.ndarray
    residual: float
    iterations: int
    ritz_values: tuple
    gap_warning: bool
    factor_nnz: int


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
    ordering = nested_dissection(mesh.vertices, mesh.edges)
    return LaplaceSystem(stiffness=stiffness, mass=mass, ordering=ordering)


def nested_dissection(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Elimination order of a graph by coordinate nested dissection.

    A part of more than LEAF_SIZE vertices is split at the median of its
    longest bounding-box axis: the lower half, ties broken by vertex
    index, goes left.  Its separator is the left vertices with a
    neighbour on the right (an edge of `edges`, (E, 2) vertex pairs).
    The left part without the separator comes first, then the right
    part, then the separator, so no edge joins the two halves and every
    separator follows both.  Leaves and separators keep vertex-index
    order.  The tree is built one level at a time; a graph of at most
    LEAF_SIZE vertices gets the identity.
    """
    V = len(points)
    order = np.empty(V, dtype=np.int64)
    # the vertices still to place, grouped by part, index order within each
    verts = np.arange(V)
    sizes = np.array([V])
    offset = np.array([0])   # first position of each part in `order`
    is_sep = np.array([False])
    # the edges inside a part still to split
    a, b = edges.T.copy()
    while verts.size:
        place = is_sep | (sizes <= LEAF_SIZE)
        part = np.repeat(np.arange(len(sizes)), sizes)
        rank = np.arange(verts.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        done = place[part]
        order[offset[part[done]] + rank[done]] = verts[done]
        if done.all():
            break
        split = ~place
        verts, rank = verts[~done], rank[~done]
        part = (np.cumsum(split) - 1)[part[~done]]
        sizes, offset = sizes[split], offset[split]

        x = points[verts]
        starts = np.cumsum(sizes) - sizes
        extent = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
        coord = x[np.arange(verts.size), np.argmax(extent, axis=1)[part]]
        # a stable sort: ties keep index order.  It keeps the parts in
        # place, so rank is the rank in the sort
        left = np.empty(verts.size, dtype=bool)
        left[np.lexsort((coord, part))] = rank < (sizes // 2)[part]

        label = np.full(V, -1)
        label[verts] = part
        la, lb = label[a], label[b]
        inside = (la == lb) & (la >= 0)
        a, b = a[inside], b[inside]
        on_left = np.zeros(V, dtype=bool)
        on_left[verts] = left
        cross = on_left[a] != on_left[b]
        in_sep = np.zeros(V, dtype=bool)
        in_sep[np.where(on_left[a], a, b)[cross]] = True

        # children (left, right, separator) of each part, in that order
        child = 3 * part + np.where(in_sep[verts], 2, np.where(left, 0, 1))
        counts = np.bincount(child, minlength=3 * len(sizes)).reshape(-1, 3)
        offset = (offset[:, None] + np.cumsum(counts, axis=1) - counts).ravel()
        sizes = counts.ravel()
        is_sep = np.tile([False, False, True], len(counts))
        verts = verts[np.argsort(child, kind="stable")]
    return order


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


def lambda1(system: LaplaceSystem, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Smallest nonzero generalized eigenvalue of (stiffness, mass).

    Factors S + sigma M once with SuperLU in the system's nested-dissection
    ordering, where sigma = _SHIFT * 4 pi / area puts the shift in the
    mesh's own units.  The matrix is symmetric positive definite, so it is
    permuted to that order and factored without pivoting (natural column
    order, SymmetricMode, diag_pivot_thresh 0); each solve permutes its
    vector in and out, and factor_nnz reports nnz(L) + nnz(U).  Then it
    runs ARPACK shift-invert Lanczos for the BLOCK_SIZE + 1 eigenvalues
    nearest -sigma from a start vector seeded by _SEED.  The constant mode
    is dropped; the next eigenvector is mass-orthogonalised against the
    constants and mass-normalised, and lambda1 is recomputed from it as the
    Rayleigh quotient.  The certificate is the residual
    ||S u - lambda1 M u|| / ||M u||, an absolute quantity in the units of
    lambda1 (1/length^2); it must be <= tol, else ConvergenceError.

    MAX_ITER is ARPACK's restart limit (maxiter).  iterations counts the
    applications of the factor (one triangular solve pair each); it depends
    only on the matrices, so it repeats exactly.  ritz_values are the
    BLOCK_SIZE nonzero eigenvalues in ascending order.  A multiple
    second/third Ritz value only sets gap_warning (spheres have a
    three-dimensional first eigenspace; that is expected, not an error).

    ConvergenceError carries the best pair's Rayleigh quotient and residual,
    recomputed from whatever eigenpairs ARPACK converged (None if none but
    the constant mode did).  Its iterations is MAX_ITER when ARPACK ran out
    of restarts, else the number of factor solves.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    S = system.stiffness
    m = system.mass_diagonal
    V = system.n
    if V < 4:
        raise ValueError("need at least 4 vertices")
    b = min(BLOCK_SIZE, V - 3)

    sigma = _SHIFT * 4.0 * np.pi / m.sum()
    p = system.ordering
    # relax=1: no relaxed supernodes, so lu.nnz counts no stored zeros
    # and is nnz(L) + nnz(U) without building the L and U copies
    lu = splu(
        (S + sigma * system.mass)[p][:, p].tocsc(), permc_spec="NATURAL",
        diag_pivot_thresh=0.0, relax=1, options={"SymmetricMode": True},
    )
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        y = np.empty_like(x)
        y[p] = lu.solve(x[p])
        return y

    v0 = np.random.default_rng(_SEED).standard_normal(V)
    converged = True
    try:
        vals, vecs = eigsh(
            S, k=b + 1, M=system.mass, sigma=-sigma, v0=v0, maxiter=MAX_ITER,
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
            f"ARPACK did not converge in {MAX_ITER} iterations"
            if not converged
            else f"residual above tol={tol:g}"
        )
        raise ConvergenceError(
            f"{why} (best lambda1 {lam!r}, residual {residual!r})",
            best_lambda1=lam,
            best_residual=residual,
            iterations=solves if converged else MAX_ITER,
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
        factor_nnz=int(lu.nnz),
    )


def aubry_lower_bound(
    deficit_integral: float,
    volume: float,
    p: float,
    C_np: float,
) -> float | None:
    """Ricci-deficit lower bound 2*(1 - C*(deficit/volume)^(1/p)) for lambda1.

    Returns None when the smallness hypothesis deficit < volume/C fails
    ("hypothesis violated"); the bound is vacuous there.  The constant
    C(2, p) is not quantified by the theory and must be supplied; results
    are conditional on it.
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got p={p}")
    if C_np <= 0:
        raise ValueError("C_np must be positive")
    if volume <= 0:
        raise ValueError("volume must be positive")
    if deficit_integral < 0:
        raise ValueError("deficit integral cannot be negative")
    if deficit_integral >= volume / C_np:
        return None
    return 2 * (1.0 - C_np * (deficit_integral / volume) ** (1.0 / p))
