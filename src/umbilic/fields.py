"""Area-weighted vertex fields: L^p norms, integrals and sublevel measures.

Each function takes per-vertex values and their barycentric vertex areas
as two arrays, so integrals are vertex-lumped quadrature against the
surface measure.  Large exponents (the proof trace uses p = 18/alpha) are
evaluated in log space to avoid overflow.  All reductions use numpy's
pairwise summation over the fixed vertex order, so repeated runs give
identical results.  The unit-area rescaling of the weights and of the
curvature record lives in `pinching.unit_area`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp


def _checked(values, weights) -> tuple[np.ndarray, np.ndarray]:
    """Both arrays as float64, checked: equal-length 1-D, positive weights."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError("values and weights must be equal-length 1-D arrays")
    if not np.all(w > 0.0):
        raise ValueError("weights must be strictly positive")
    return v, w


def lp_norm(values, weights, p) -> float:
    """(integral of |f|^p)^(1/p); sup norm for p = inf.

    Powers are accumulated in log space, so non-integer and very large p
    (e.g. kp = 18/alpha) stay finite.
    """
    values, weights = _checked(values, weights)
    if p == np.inf:
        return float(np.abs(values).max())
    if not p >= 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.exp(lp_norm_log_pth_power(values, weights, p) / p))


def lp_norm_log_pth_power(values, weights, p) -> float:
    """log of the integral of |f|^p (i.e. log of the p-th power of lp_norm).

    -inf for an identically zero field.  Used for Chebyshev-type bounds
    whose plain values can overflow.
    """
    values, weights = _checked(values, weights)
    absv = np.abs(values)
    nz = absv > 0.0
    if not np.any(nz):
        return float("-inf")
    return float(logsumexp(np.log(weights[nz]) + p * np.log(absv[nz])))


def integrate(values, weights) -> float:
    """Integral of f against the surface measure (vertex-lumped)."""
    values, weights = _checked(values, weights)
    return float(np.sum(weights * values))


def sublevel_measure(values, weights, threshold: float) -> float:
    """Measure of {f >= t}, the complement of the sublevel set: nan counts."""
    values, weights = _checked(values, weights)
    return float(np.sum(weights[~(values < threshold)]))
