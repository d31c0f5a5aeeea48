"""Cotangent Laplace-Beltrami operator and its first nonzero eigenvalue.

The stiffness matrix holds one cotangent weight per edge of the mesh's edge
table (Pinkall and Polthier, Experiment. Math. 2, 1993) and is positive
semidefinite; the mass is barycentric lumping, kept as its diagonal, the
vertex areas.  lambda1 is sparse-direct shift-invert: S + sigma M is
factored once by SuperLU, with sigma tied to the mesh's mass scale so
nothing depends on length units.  On that factor block shift-invert Lanczos
with full reorthogonalisation (Grimes, Lewis and Simon, SIAM J. Matrix
Anal. Appl. 15, 1994) grows a Krylov basis from the centred coordinate
functions, which are almost first eigenfunctions on an almost-umbilical
surface (they are the test functions of Reilly's inequality, Comment. Math.
Helv. 52, 1977), plus one seeded random vector, so an eigenfunction
orthogonal to the coordinates is not missed.  Each step solves only the
newest block and does Rayleigh-Ritz of (S, M) on the whole basis.  The
constant mode in the kernel of S is projected out of every block, and the
returned pair is certified by its independently recomputed Rayleigh
quotient and generalized eigenvalue residual.

The factor's fill is kept low by a coordinate nested dissection of the
mesh graph (George, SIAM J. Numer. Anal. 10, 1973; Lipton, Rose and
Tarjan, SIAM J. Numer. Anal. 16, 1979: a genus-0 mesh is planar, so the
fill is O(n log n)).  lambda1(mesh) is the one entry point: it assembles
S with build_laplace, computes the ordering on the mesh's cached one-ring
adjacency and factors S + sigma M, which is symmetric positive definite,
in that order without pivoting.

Also provides the Ricci-deficit lower bound the proof trace needs, with
its configurable constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .mesh import Mesh

_SEED = 0x1C05FEE
# sigma = _SHIFT * 4 pi / area: _SHIFT / r^2 on a sphere of radius r, far
# below its lambda1 = 2 / r^2, and scaling with it under any change of units
_SHIFT = 1e-3
# nonzero eigenvalues lambda1 certifies (as ritz_values); the Lanczos
# blocks carry one more column
BLOCK_SIZE = 3
# the widest Lanczos basis before lambda1 gives up (the widest any surface
# tried needed was 60 columns, Ellipsoid(1, 2, 0.4) at subdivision 2), and
# the fraction of its M-norm below which a new vector counts as already
# spanned
MAX_BASIS = 96
RANK_TOL = 1e-10
# nested dissection stops splitting a part of at most this many vertices
LEAF_SIZE = 64
# the residual a lambda1 certificate must reach unless a caller sets another
DEFAULT_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """lambda1 found no certified pair; carries the best one found.

    best_lambda1 and best_residual are recomputed from the first Ritz pair
    of the last basis, as a certified result's are.
    """

    def __init__(self, message, best_lambda1, best_residual, iterations):
        super().__init__(message)
        self.best_lambda1 = best_lambda1
        self.best_residual = best_residual
        self.iterations = iterations

    def __reduce__(self):   # all four arguments, so a pickle round-trip keeps them
        return type(self), (str(self), self.best_lambda1, self.best_residual, self.iterations)


@dataclass(frozen=True)
class SpectralResult:
    """First nonzero eigenpair with its certificate and gap diagnostics.

    ritz_values are the BLOCK_SIZE lowest nonzero eigenvalues, each
    certified, in ascending order; iterations counts the column solves with
    the factor and basis_columns the width of the final Lanczos basis.
    factor_nnz is nnz(L) + nnz(U) of the factor of S + sigma M (each
    counts the diagonal), the fill the ordering achieved; sigma is the
    shift.
    """

    lambda1: float
    eigenfunction: np.ndarray
    residual: float
    iterations: int
    ritz_values: tuple
    gap_warning: bool
    factor_nnz: int
    sigma: float
    basis_columns: int


def build_laplace(mesh: Mesh) -> sparse.csr_matrix:
    """Cotangent stiffness matrix of a validated mesh (its mass is mesh.vertex_areas)."""
    v = mesh.vertices
    tail, head, opposite, edge = mesh.half_edges
    e1 = v[tail] - v[opposite]
    e2 = v[head] - v[opposite]
    del tail, head, opposite   # the cross product below sets the memory peak
    cross = np.linalg.norm(np.cross(e1, e2), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = np.einsum("ij,ij->i", e1, e2) / cross
    if not np.all(np.isfinite(cot)):
        raise ValueError("non-finite cotangent weight (degenerate face)")
    # each edge weighs -1/2 the sum of the cotangents at its opposite corners
    off = mesh.edge_matrix(-0.5 * np.bincount(edge, weights=cot))
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sparse.diags(diag)).tocsr()


def nested_dissection(points: np.ndarray, adjacency: sparse.csr_matrix) -> np.ndarray:
    """Elimination order of a graph by coordinate nested dissection.

    `adjacency` is the graph's csr adjacency (the mesh's one-ring matrix).
    A part of more than LEAF_SIZE vertices is split at the median of its
    longest bounding-box axis: the lower half, ties broken by vertex
    index, goes left.  Its separator is the left vertices with a
    neighbour on the right.  The left part without the separator comes
    first, then the right part, then the separator, so no edge joins the
    two halves and every separator follows both.  Leaves and separators
    keep vertex-index order; a graph of at most LEAF_SIZE vertices gets
    the identity.  The right half of n vertices has ceil(n/2) < n, so the
    recursion is at most log2(V) + 1 deep.
    """
    indptr, indices = adjacency.indptr, adjacency.indices
    degree = np.diff(indptr)
    on_right = np.zeros(len(points), dtype=bool)

    def dissect(part):
        if len(part) <= LEAF_SIZE:
            return [part]
        x = points[part]
        coord = x[:, np.argmax(x.max(axis=0) - x.min(axis=0))]
        # the lower half: below the median value, then ties in index order
        half = len(part) // 2
        median = np.partition(coord, half - 1)[half - 1]
        is_left = coord < median
        tied = np.flatnonzero(coord == median)
        is_left[tied[:half - np.count_nonzero(is_left)]] = True
        left, right = part[is_left], part[~is_left]
        # the left vertices' neighbours, row after row
        counts = degree[left]
        row = np.repeat(np.arange(len(left)), counts)
        first = indptr[left] - np.cumsum(counts) + counts
        on_right[right] = True
        cut = on_right[indices[first[row] + np.arange(len(row))]]
        on_right[right] = False
        in_sep = np.zeros(len(left), dtype=bool)
        in_sep[row[cut]] = True
        return dissect(left[~in_sep]) + dissect(right) + [left[in_sep]]

    return np.concatenate(dissect(np.arange(len(points))))


def _certify(S, m, u):
    """Deflate and mass-normalise u; return (Rayleigh quotient, u, residual)."""
    u = u - (m @ u) / m.sum()
    u = u / np.sqrt(u @ (m * u))
    Su = S @ u
    lam = float(u @ Su)
    residual = float(np.linalg.norm(Su - lam * (m * u)) / np.linalg.norm(m * u))
    return lam, u, residual


def _orthonormalise(Y, basis, m):
    """The rows of Y made M-orthonormal to the constants, the basis and each other.

    Vectors are rows here, so every elementwise step runs along a vertex
    axis.  Two rounds of block Gram-Schmidt in the mass inner product take
    the constants and every block of `basis` out of Y; then each row, again
    twice, loses its part along the rows kept before it.  A row whose
    M-norm has fallen to RANK_TOL of its M-norm before projection lies in
    the span already built and is dropped, so fewer rows than Y has, or
    none, may come back.
    """
    norms = np.sqrt(np.einsum("ij,j,ij->i", Y, m, Y))
    for _ in range(2):
        Y = Y - (Y @ m)[:, None] / m.sum()
        MY = Y * m
        for q in basis:
            Y -= (MY @ q.T) @ q
    kept = []
    for y, norm in zip(Y, norms):
        for _ in range(2):
            for q in kept:
                y = y - (q @ (m * y)) * q
        r = np.sqrt(y @ (m * y))
        if r > RANK_TOL * norm:
            kept.append(y / r)
    return np.array(kept) if kept else Y[:0]


def lambda1(mesh: Mesh, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Smallest nonzero generalized eigenvalue of the mesh's (stiffness, mass).

    S is build_laplace(mesh) and M the diagonal of mesh.vertex_areas.
    Factors S + sigma M once with SuperLU in the nested-dissection ordering
    of the mesh's one-ring adjacency, where sigma = _SHIFT * 4 pi / area
    puts the shift in the mesh's own units.  The matrix is symmetric
    positive definite, so it is permuted to that order and factored
    without pivoting (natural column order, SymmetricMode,
    diag_pivot_thresh 0); each solve permutes its vectors in and out, and
    factor_nnz reports nnz(L) + nnz(U).

    Block shift-invert Lanczos with full reorthogonalisation then runs on
    that factor.  The first block is the mass-centred vertex positions and
    one random column seeded by _SEED, BLOCK_SIZE + 1 columns.  Each step
    solves (S + sigma M) Y = M Q for the newest block Q only, makes Y
    M-orthonormal to the constants and to every earlier block
    (_orthonormalise, which drops the directions already spanned), and
    does Rayleigh-Ritz of (S, M) on the whole basis.  It stops when each
    of the BLOCK_SIZE lowest Ritz vectors has a _certify residual <= tol *
    4 pi / area (that is, tol * sigma / _SHIFT), which scales with the
    mesh's units as the residual and sigma do.  A planar mesh's centred
    normal coordinate is zero and is dropped from the first block.  On a
    mesh with fewer than BLOCK_SIZE + 3 vertices the basis soon spans every
    nonconstant function and stops growing; its Ritz pairs are then exact.

    The first Ritz vector is mass-orthogonalised against the constants and
    mass-normalised, and lambda1 is recomputed from it as the Rayleigh
    quotient.  The certificate is the residual ||S u - lambda1 M u|| /
    ||M u||, an absolute quantity in the units of lambda1 (1/length^2).

    iterations counts the column solves with the factor (one triangular
    solve pair each); it depends only on the matrices, so it repeats
    exactly.  basis_columns is the width of the final basis and sigma the
    shift.  ritz_values are the BLOCK_SIZE lowest nonzero Ritz values in
    ascending order.  Second and third Ritz values that agree to tol
    relative to the third only set gap_warning (spheres have a
    three-dimensional first eigenspace; that is expected, not an error).

    When the basis reaches MAX_BASIS columns, or stops growing, without
    meeting the stop rule, ConvergenceError carries the first Ritz pair's
    Rayleigh quotient and residual and the column solves made.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    V = mesh.n_vertices
    if V < 4:
        raise ValueError("need at least 4 vertices")
    S, m = build_laplace(mesh), mesh.vertex_areas
    p = nested_dissection(mesh.vertices, mesh.one_ring_matrix)

    sigma = _SHIFT * 4.0 * np.pi / m.sum()
    threshold = tol * (sigma / _SHIFT)
    # relax=1: no relaxed supernodes, so lu.nnz counts no stored zeros
    # and is nnz(L) + nnz(U) without building the L and U copies
    lu = splu(
        (S + sigma * sparse.diags(m))[p][:, p].tocsc(), permc_spec="NATURAL",
        diag_pivot_thresh=0.0, relax=1, options={"SymmetricMode": True},
    )
    solves = 0
    # the basis is kept as its blocks, each a row per vector, and T = Q^T S Q
    # grows a block column at a time, so no step copies the whole basis
    basis, T = [], np.empty((0, 0))
    block = np.vstack(
        [mesh.vertices.T, np.random.default_rng(_SEED).standard_normal(V)]
    )
    block -= (block @ m)[:, None] / m.sum()
    while True:
        block = _orthonormalise(block, basis, m)
        b = len(block)
        if b:
            basis.append(block)
            SQ = S @ block.T
            C = np.concatenate([q @ SQ for q in basis])
            T = np.block([[T, C[:-b]], [C.T]])
        vals, W = np.linalg.eigh(T)
        rows = np.split(W[:, :BLOCK_SIZE], np.cumsum([len(q) for q in basis])[:-1])
        X = sum(w.T @ q for q, w in zip(basis, rows))   # the lowest Ritz vectors
        pairs = [_certify(S, m, x) for x in X]
        lam, u, residual = pairs[0]
        if all(r <= threshold for _, _, r in pairs):
            break
        if not b or len(T) >= MAX_BASIS:
            why = (
                f"the basis stopped growing at {len(T)} columns" if not b
                else f"did not converge within MAX_BASIS={MAX_BASIS} columns"
            )
            raise ConvergenceError(
                f"residual above tol={tol:g} * 4 pi/area among the lowest "
                f"Ritz pairs: {why} (best lambda1 {lam!r}, residual {residual!r})",
                best_lambda1=lam,
                best_residual=residual,
                iterations=solves,
            )
        solves += b
        x = lu.solve((block * m)[:, p].T)
        block = np.empty_like(block)
        block[:, p] = x.T
    ritz = tuple(float(t) for t in vals[:BLOCK_SIZE])
    gap = len(ritz) >= 3 and abs(ritz[2] - ritz[1]) <= tol * abs(ritz[2])
    return SpectralResult(
        lambda1=lam,
        eigenfunction=u,
        residual=residual,
        iterations=solves,
        ritz_values=ritz,
        gap_warning=bool(gap),
        factor_nnz=int(lu.nnz),
        sigma=float(sigma),
        basis_columns=len(T),
    )


def aubry_lower_bound(
    deficit_integral: float,
    volume: float,
    p: float,
    C_np: float,
) -> float | None:
    """Ricci-deficit lower bound 2*(1 - C*(deficit/volume)^(1/p)) for lambda1.

    Returns None when the smallness hypothesis deficit < volume/C fails
    ("hypothesis violated") or when C*(deficit/volume)^(1/p) >= 1, which
    that hypothesis allows for C > 1; the bound is vacuous there.  The
    constant C(2, p) is not quantified by the theory and must be supplied;
    results are conditional on it.
    """
    if not p > 1:
        raise ValueError(f"need p > 1, got p={p}")
    if not C_np > 0:
        raise ValueError("C_np must be positive")
    if not volume > 0:
        raise ValueError("volume must be positive")
    if not deficit_integral >= 0:
        raise ValueError("deficit integral cannot be negative")
    if deficit_integral >= volume / C_np:
        return None
    shrink = C_np * (deficit_integral / volume) ** (1.0 / p)
    return 2 * (1.0 - shrink) if shrink < 1 else None
