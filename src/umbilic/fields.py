"""Area-weighted vertex fields: L^p norms, integrals, rescaling, sublevels.

Fields pair per-vertex values with barycentric vertex areas, so integrals
are vertex-lumped quadrature against the surface measure.  Large exponents
(the pipeline uses p up to 6*(n+1)/alpha) are evaluated in log space to
avoid overflow.  All reductions use numpy's pairwise summation over the
fixed vertex order, so results are independent of any caller-side
parallel schedule.

The rescaling calculus tracks how quantities transform under X -> c*X:
area by c^n, curvature by 1/c, the Laplace spectrum and Ricci bounds by
1/c^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .mesh import Mesh


@dataclass(frozen=True)
class ScalarField:
    """Per-vertex values with positive area weights summing to the mesh area."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if v.shape != w.shape or v.ndim != 1:
            raise ValueError("values and weights must be equal-length 1-D arrays")
        if not np.all(w > 0.0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @classmethod
    def on_mesh(cls, mesh: Mesh, values) -> "ScalarField":
        values = np.broadcast_to(
            np.asarray(values, dtype=np.float64), (mesh.n_vertices,)
        ).copy()
        return cls(values=values, weights=mesh.vertex_areas)

    @property
    def total_area(self) -> float:
        return float(np.sum(self.weights))

    def __len__(self) -> int:
        return len(self.values)


def _select(field: ScalarField, region):
    if region is None:
        return field.values, field.weights
    v = field.values[region]
    w = field.weights[region]
    if v.size == 0:
        raise ValueError("empty region")
    return v, w


def lp_norm(field: ScalarField, p, region=None) -> float:
    """(integral over the region of |f|^p)^(1/p); sup norm for p = inf.

    Powers are accumulated in log space, so non-integer and very large p
    (e.g. kp = 18/alpha) stay finite.
    """
    if np.isinf(p):
        return float(np.abs(_select(field, region)[0]).max())
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.exp(lp_norm_log_pth_power(field, p, region) / p))


def lp_norm_log_pth_power(field: ScalarField, p, region=None) -> float:
    """log of the integral of |f|^p (i.e. log of the p-th power of lp_norm).

    -inf for an identically zero field.  Used for Chebyshev-type bounds
    whose plain values can overflow.
    """
    v, w = _select(field, region)
    absv = np.abs(v)
    nz = absv > 0.0
    if not np.any(nz):
        return float("-inf")
    return float(logsumexp(np.log(w[nz]) + p * np.log(absv[nz])))


def integrate(field: ScalarField, region=None) -> float:
    """Integral of f against the surface measure (vertex-lumped)."""
    v, w = _select(field, region)
    return float(np.sum(w * v))


def sublevel_measure(field: ScalarField, threshold: float) -> tuple[float, float]:
    """(measure of {f < t}, measure of {f >= t}); the two sum to the area."""
    below = field.values < threshold
    m_below = float(np.sum(field.weights[below]))
    m_above = float(np.sum(field.weights[~below]))
    return m_below, m_above


_BASE_EXPONENTS = {
    "position": 1,
    "length": 1,
    "curvature": -1,
    "traceless_norm": -1,
    "h2": -2,
    "lambda1": -2,
    "ricci": -2,
    "scalar_curvature": -2,
}


@dataclass(frozen=True)
class RescalingLaw:
    """Powers of the scale factor for each geometric quantity under X -> c*X."""

    factor: float
    n: int = 2

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("scale factor must be positive")

    def exponent(self, quantity: str) -> int:
        table = {**_BASE_EXPONENTS, "area": self.n, "volume": self.n + 1}
        try:
            return table[quantity]
        except KeyError:
            raise KeyError(
                f"unknown quantity {quantity!r}; known: {sorted(table)}"
            ) from None

    def apply(self, quantity: str, value):
        """Value of `quantity` on the rescaled surface, given its value on X."""
        return value * self.factor ** self.exponent(quantity)
