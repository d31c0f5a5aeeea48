"""Area-weighted vertex fields: L^p norms, integrals and sublevel measures.

Fields pair per-vertex values with barycentric vertex areas, so integrals
are vertex-lumped quadrature against the surface measure.  Large exponents
(the proof trace uses p = 18/alpha) are evaluated in log space to
avoid overflow.  All reductions use numpy's pairwise summation over the
fixed vertex order, so repeated runs give identical results.  The
unit-area rescaling of the weights and of the curvature record lives in
`pinching.unit_area`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp


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


def lp_norm(field: ScalarField, p) -> float:
    """(integral of |f|^p)^(1/p); sup norm for p = inf.

    Powers are accumulated in log space, so non-integer and very large p
    (e.g. kp = 18/alpha) stay finite.
    """
    if np.isinf(p):
        return float(np.abs(field.values).max())
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.exp(lp_norm_log_pth_power(field, p) / p))


def lp_norm_log_pth_power(field: ScalarField, p) -> float:
    """log of the integral of |f|^p (i.e. log of the p-th power of lp_norm).

    -inf for an identically zero field.  Used for Chebyshev-type bounds
    whose plain values can overflow.
    """
    absv = np.abs(field.values)
    nz = absv > 0.0
    if not np.any(nz):
        return float("-inf")
    return float(logsumexp(np.log(field.weights[nz]) + p * np.log(absv[nz])))


def integrate(field: ScalarField) -> float:
    """Integral of f against the surface measure (vertex-lumped)."""
    return float(np.sum(field.weights * field.values))


def sublevel_measure(field: ScalarField, threshold: float) -> float:
    """Measure of {f >= t}, the complement of the sublevel set: nan counts."""
    return float(np.sum(field.weights[~(field.values < threshold)]))

