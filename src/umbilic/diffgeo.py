"""Per-vertex shape operator estimation and derived curvature quantities.

The estimator fits a local graph z = p*x + q*y + (a*x^2 + 2*b*xy + c*y^2)/2
+ higher terms over the two-ring neighborhood in a tangent frame, then
reads the Weingarten map off the fitted jet.  The higher terms are tiered
by neighborhood size: cubics absorb the odd third-order variation, and an
isotropic quartic (x^2 + y^2)^2 absorbs the dominant even fourth-order term
of near-umbilical graphs, which otherwise aliases into the curvatures.
Every vertex solves one 10-term least-squares system by its normal
equations, the columns beyond its tier masked out, with one Cholesky
factorization per vertex that also decides the fit's rank: a pivot that
is a tiny fraction of its diagonal entry (MIN_PIVOT_RATIO) rejects the
fit, naming the vertex, instead of letting rounding pick a number.
Signs follow the outward-normal convention: round spheres get positive
principal curvatures.  The tangent frame and the Weingarten map are the
same kernels both closed-form oracles in `surfgen` use.  The result is one
`SurfaceGeometry` of whole per-vertex arrays, built by `from_split` from
the Weingarten map's eigenvalue mean and half-gap, here and in every
oracle; `rescaled` gives the exact record of the mesh scaled by a factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import Mesh, _fork_halves

# Rings of neighbors each jet fit reads: every vertex within RING_DEPTH edges.
RING_DEPTH = 2

# Basis tiers by neighborhood size: each fit keeps at least one residual
# degree of freedom.
MIN_NEIGHBORS = 6
CUBIC_MIN_NEIGHBORS = 10
QUARTIC_MIN_NEIGHBORS = 12

# Vertices per jet-fit block: the padded offsets and design matrix of one
# block, not of the whole mesh, bound the fit's working memory in each
# process.  A mesh of more than one block is fitted on two processes, in
# halves, except in a forked child (`verify_theorem` fits there), which
# fits every block itself.
FIT_BLOCK = 4096

# Rank test of a fit: each Cholesky pivot d_j^2 of the normal matrix G must
# be at least this fraction of its own diagonal entry G_jj (a NaN ratio
# fails too).  d_j^2 / G_jj is the squared sine of the angle between basis
# column j and the columns before it.  The smallest ratio measured on
# healthy meshes: 3.0e-2 on perturbed spheres (s3-s7), 2.2e-2 and 2.8e-2 on
# the 2:1:1 (s4) and 1.5:1:0.8 (s6) ellipsoids, 3.7e-3 on a torus, 4.5e-3 on
# a subdivided tetrahedron, 5.2e-4 on the 1000:1:1 ellipsoid (s3) and
# 3.4e-7 on a tetrahedron with one face split off-centre.  Rank-deficient
# fits (the icosahedron, the centroid-split tetrahedron) read below 2e-15
# in absolute value.
MIN_PIVOT_RATIO = 1e-10


@dataclass(frozen=True)
class SurfaceGeometry:
    """Curvature record for every vertex of a mesh (arrays over vertices).

    All fields use the normalized mean curvature convention
    H = (kappa1 + kappa2)/2.
    """

    kappa: np.ndarray            # (V, 2) principal curvatures, kappa1 <= kappa2
    H: np.ndarray                # (V,) normalized mean curvature
    A_traceless_norm: np.ndarray  # (V,) ||A - H g|| = |k1 - k2|/sqrt(2)
    H2: np.ndarray               # (V,) Gauss curvature k1*k2 (= Ric_min)

    @classmethod
    def from_split(cls, mean, disc) -> "SurfaceGeometry":
        """Record of the principal curvatures mean -/+ disc (`eigen_split`)."""
        return cls(
            kappa=np.stack([mean - disc, mean + disc], axis=-1),
            H=mean,
            A_traceless_norm=np.sqrt(2.0) * disc,
            # keeps the AM-GM bound H2 <= H^2 exact in floating point
            H2=mean * mean - disc * disc,
        )

    def rescaled(self, factor: float) -> "SurfaceGeometry":
        """Exact curvature record of the mesh scaled by `factor`.

        Curvatures scale by 1/factor, H2 by 1/factor^2.
        """
        s = 1.0 / factor
        return SurfaceGeometry(
            kappa=self.kappa * s,
            H=self.H * s,
            A_traceless_norm=self.A_traceless_norm * s,
            H2=self.H2 * s**2,
        )


@dataclass(frozen=True)
class ConvexityStatus:
    mean_convex: bool       # min H > 0
    strictly_convex: bool   # min kappa1 > 0
    min_kappa1: float
    min_H: float


def vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted average of incident face normals, unit length."""
    acc = np.stack([mesh.vertex_sum(fc) for fc in mesh.face_cross.T], axis=1)
    norms = np.linalg.norm(acc, axis=1)
    # face_cross is 2*area-weighted, so the area sets the scale of acc
    bad = norms <= 1e-12 * mesh.face_areas.mean()
    if np.any(bad):
        raise ValueError(
            f"rank-deficient normal at vertices {np.flatnonzero(bad)[:5]}"
        )
    return acc / norms[:, None]


def tangent_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (t1, t2) with t1 orthogonal to the unit rows of n, t2 = n x t1."""
    ref = np.where(
        np.abs(n[:, 0:1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]
    )
    t1 = ref - n * np.einsum("ij,ij->i", ref, n)[:, None]
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(n, t1)
    return t1, t2


def weingarten_matrix(E, F, G, e, f, g) -> np.ndarray:
    """Symmetric Weingarten matrix from the fundamental forms, shape (..., 2, 2).

    With I = L L^T (Cholesky), this is L^-1 II L^-T in the metric-orthonormal
    frame, negated so outward-normal spheres are positively curved.
    """
    det = E * G - F * F
    sE = np.sqrt(E)
    l21 = F / sE
    l22 = np.sqrt(det) / sE
    s11 = e / E
    s12 = (f - l21 * s11 * sE) / (sE * l22)
    s22 = (g - 2.0 * l21 * s12 * l22 - l21 * l21 * s11) / (l22 * l22)
    return -np.stack(
        [np.stack([s11, s12], axis=-1), np.stack([s12, s22], axis=-1)], axis=-2
    )


def eigen_split(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, half-gap) of symmetric 2x2 matrices: eigenvalues mean -/+ gap."""
    mean = 0.5 * (sym[..., 0, 0] + sym[..., 1, 1])
    disc = np.sqrt(
        0.25 * (sym[..., 0, 0] - sym[..., 1, 1]) ** 2 + sym[..., 0, 1] ** 2
    )
    return mean, disc


def neighborhoods(mesh: Mesh) -> sparse.csr_matrix:
    """Boolean csr matrix whose row i holds the <=RING_DEPTH neighbors of i."""
    # bool: boolean sparse products take OR for +, so they record
    # reachability without path counts that could overflow, at one byte
    # per entry
    adj = mesh.one_ring_matrix.astype(bool)
    acc = adj.copy()
    for _ in range(RING_DEPTH - 1):
        acc = acc + acc @ adj
    acc = acc.tocsr()
    acc.setdiag(0)
    acc.eliminate_zeros()
    return acc


def _fit_block(verts, indices, lo, counts, m, n_terms, t1, t2, normals):
    """Jet coefficients (p, q, a/2, b, c/2) and scales of vertices lo, lo+1, ...

    `indices` holds the block's neighbors, row after row, `counts` how many
    each row has.  Rows are padded to the global width m with zero
    offsets, whose design columns are zero and add nothing to the normal
    equations.  Every vertex solves the 10-term system: the basis terms
    beyond its tier are zeroed and get a unit diagonal in G, so their
    coefficients solve to 0 and leave the tier's own system as it is.
    The products are one matrix product per vertex, and the Cholesky
    factor and both triangular solves are elementwise steps along the
    block axis, so a vertex's arithmetic is the same in any block.
    Raises ValueError naming the first vertex whose pivot ratio is below
    MIN_PIVOT_RATIO.
    """
    B = len(counts)
    pad = np.zeros((B, m), dtype=np.int64)
    mask = np.arange(m)[None, :] < counts[:, None]
    pad[mask] = indices
    d = verts[pad] - verts[lo:lo + B, None, :]
    d[~mask] = 0.0

    # rows u, w, z: the offsets in the frame (t1, t2, normal)
    uwz = np.stack([t1, t2, normals], axis=1) @ d.transpose(0, 2, 1)
    scale = np.sqrt((uwz * uwz).sum(axis=(1, 2)) / counts)
    uwz /= scale[:, None, None]
    u, w, z = uwz[:, 0], uwz[:, 1], uwz[:, 2]

    # the design matrix, monomial-major
    uu, ww = u * u, w * w
    A = np.stack([u, w, uu, u * w, ww, uu * u, uu * w, u * ww, ww * w,
                  (uu + ww) ** 2], axis=1)
    n = A.shape[1]
    off_tier = np.arange(n)[None, :] >= n_terms[:, None]
    A[off_tier] = 0.0

    G = A @ A.transpose(0, 2, 1)
    # batch axis last: every step below is elementwise over whole rows
    L = np.ascontiguousarray(G.transpose(1, 2, 0))
    x = np.ascontiguousarray((A @ z[:, :, None])[:, :, 0].T)
    diag = np.arange(n)
    L[diag, diag] += off_tier.T
    gdiag = L[diag, diag]

    # G = L L^T, L overwriting the lower triangle, then L L^T x = b
    for j in range(n):
        pivot = L[j, j]
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = pivot / gdiag[j]
        bad = ~(ratio >= MIN_PIVOT_RATIO)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"singular jet fit: vertex {lo + k} has a rank-deficient "
                f"{n_terms[k]}-term basis (pivot ratio {ratio[k]:.3g} "
                f"< {MIN_PIVOT_RATIO:g})"
            )
        L[j, j] = np.sqrt(pivot)
        col = L[j + 1:, j]
        col *= 1.0 / L[j, j]
        L[j + 1:, j + 1:] -= col[:, None] * col[None, :]
    for j in range(n):
        x[j] /= L[j, j]
        x[j + 1:] -= L[j + 1:, j] * x[j]
    for j in reversed(range(n)):
        x[j] /= L[j, j]
        x[:j] -= L[j, :j] * x[j]
    return x[:5].T, scale


def estimate_geometry(mesh: Mesh) -> SurfaceGeometry:
    """Estimate the shape operator and derived curvatures at every vertex.

    Requires every two-ring neighborhood to contain at least 6 vertices
    and every fit to pass the rank test (`MIN_PIVOT_RATIO`); per-vertex
    fits are deterministic and independent, so results do not depend on
    evaluation order.  The fits run FIT_BLOCK vertices at a time,
    so beyond the O(V) records and the neighborhood matrix the working
    memory does not grow with the mesh.

    The fits are split by `mesh._fork_halves` with FIT_BLOCK: everything
    up to the fits runs here, then beyond one block a forked child fits
    rows [V//2, V) while this process fits [0, V//2).  A rank test
    failing in this process's half is raised here; otherwise the child's
    is raised again here, with the same message.  Inside a forked child
    (as `verify_theorem` runs the fit) every row is fitted in that child.
    """
    V = mesh.n_vertices
    normals = vertex_normals(mesh)
    nbr = neighborhoods(mesh)
    counts = np.diff(nbr.indptr)
    if counts.min() < MIN_NEIGHBORS:
        bad = int(np.argmin(counts))
        raise ValueError(
            f"underdetermined fit: vertex {bad} has only {counts[bad]} "
            f"neighbors at ring_depth={RING_DEPTH} (need >= {MIN_NEIGHBORS})"
        )

    t1, t2 = tangent_frame(normals)
    # every block pads to the global width m, so the zero padding enters
    # each reduction in the same positions whatever the block size
    m = int(counts.max())
    n_terms = np.full(V, 5)
    n_terms[counts >= CUBIC_MIN_NEIGHBORS] = 9
    n_terms[counts >= QUARTIC_MIN_NEIGHBORS] = 10
    coef = np.zeros((V, 5))
    scale = np.empty(V)

    def fit(start, stop):
        for lo in range(start, stop, FIT_BLOCK):
            hi = min(lo + FIT_BLOCK, stop)
            blk = slice(lo, hi)
            coef[blk], scale[blk] = _fit_block(
                mesh.vertices, nbr.indices[nbr.indptr[lo]:nbr.indptr[hi]],
                lo, counts[blk], m, n_terms[blk], t1[blk], t2[blk], normals[blk],
            )

    def child_half(mid, stop):
        fit(mid, stop)
        return coef[mid:], scale[mid:]

    def receive(spool, mid):
        # the child's rows are read back straight into this process's arrays
        for half in (coef[mid:], scale[mid:]):
            spool.readinto(half)

    _fork_halves(V, FIT_BLOCK, child_half, fit, receive)

    p = coef[:, 0]
    q = coef[:, 1]
    fxx = 2.0 * coef[:, 2] / scale
    fxy = coef[:, 3] / scale
    fyy = 2.0 * coef[:, 4] / scale

    # first/second fundamental forms of the graph in the fit frame
    E = 1.0 + p * p
    F = p * q
    Gm = 1.0 + q * q
    wn = np.sqrt(1.0 + p * p + q * q)
    e = fxx / wn
    f = fxy / wn
    g = fyy / wn

    return SurfaceGeometry.from_split(
        *eigen_split(weingarten_matrix(E, F, Gm, e, f, g))
    )


def ricci_deficit(ric, reference: float):
    """Negative part of (Ric_min/mu^2 - 1) after rescaling by mu.

    `ric` is a scalar or an array of smallest Ricci eigenvalues; by the
    Gauss equation a surface in R^3 has Ric = K g, so that is the record's H2.
    """
    if reference <= 0:
        raise ValueError("reference scale mu must be positive")
    r = np.asarray(ric, dtype=np.float64)
    return np.maximum(0.0, 1 - r / reference**2)


def convexity_status(geometries: SurfaceGeometry) -> ConvexityStatus:
    """Pointwise minima of kappa1 and H with the convexity booleans."""
    min_k1 = float(geometries.kappa[:, 0].min())
    min_h = float(geometries.H.min())
    return ConvexityStatus(
        mean_convex=bool(min_h > 0.0),
        strictly_convex=bool(min_k1 > 0.0),
        min_kappa1=min_k1,
        min_H=min_h,
    )
