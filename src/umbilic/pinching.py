"""Pinching-theorem pipeline for almost-umbilical closed surfaces in R^3.

Checks the pointwise hypothesis ||A - H g|| <= H |M|^(-(2+a)/n) eps^(2+a),
the admissibility threshold on eps, strict convexity, the spectral
condition lambda1 (int H)^2 - n ||H2||_{2p}^2 > -C_eps on the unit-area
rescaling, and the annulus conclusion that the surface lies between the
spheres of radius sqrt(n/lambda1) -/+ eps about its barycenter, with n = 2.
The spectral condition and the proof trace read one `unit_area` record.

The proof trace reproduces the intermediate objects of the containment
argument: the best-fit umbilical factor mu0, the rescaled surface
comparison sets {||A - mu0 g|| < gamma} with their Chebyshev measure
bounds, the Ricci-deficit integral, and the resulting spectral lower
bound.  Analytic constants the theory leaves unquantified (L, c_n, the
Ricci-deficit constant) are configuration inputs, echoed in every report;
all conclusions are conditional on them.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import logsumexp

from . import fields, spectral, surfgen
from .diffgeo import (
    ConvexityStatus,
    SurfaceGeometry,
    convexity_status,
    estimate_geometry,
    ricci_deficit,
)
from .fields import lp_norm, lp_norm_log_pth_power, sublevel_measure
from .mesh import Mesh, _fork_child, validate_mesh

# Amplitude search (a proportional step with a bisection fallback): stop at
# this relative error of the pinching ratio, or after this many steps (enough
# for bisection alone to narrow [0, delta_max] by 2^-60).
RATIO_RTOL = 1e-6
MAX_SEARCH_STEPS = 60


@dataclass(frozen=True)
class PinchingConstants:
    """Run configuration: exponents, eps, and the free analytic constants.

    alpha is the pinching order (the hypothesis uses eps^(2+alpha)); L and
    c_n parametrize C_eps; C_np_aubry is the Ricci-deficit constant.  All
    three default to 1 and are stamped into every report, as are the
    dimension n = 2 and the integrability exponent p_roth = n + 1, which
    are not settable.
    """

    alpha: float
    epsilon: float
    n: int = field(default=2, init=False)
    p_roth: float = field(default=3.0, init=False)
    L: float = 1.0
    c_n: float = 1.0
    C_np_aubry: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        for name in ("epsilon", "L", "c_n", "C_np_aubry"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if min(self.L, self.c_n, self.C_np_aubry) <= 0:
            raise ValueError("L, c_n and C_np_aubry must be positive")
        try:
            self.epsilon ** (2.0 + self.alpha)
        except OverflowError:
            raise ValueError(f"epsilon^(2+alpha) overflows a float: epsilon = "
                             f"{self.epsilon}, alpha = {self.alpha}") from None

    @property
    def c_threshold(self) -> float:
        """Admissibility coefficient: eps < c_threshold * |M|^(1/n).

        The quantified convexity requirement (1/sqrt(n(n-1)))^(1/(2+alpha));
        the remaining smallness conditions surface as trace warnings.
        """
        return (1.0 / math.sqrt(self.n * (self.n - 1))) ** (1.0 / (2.0 + self.alpha))

    @property
    def kp(self) -> float:
        """Large integrability exponent k*p with k = 6/alpha and p = p_roth."""
        return 6.0 / self.alpha * self.p_roth

    def rescaled(self, factor: float) -> "PinchingConstants":
        """Constants for the mesh scaled by `factor` (eps is a length)."""
        return replace(self, epsilon=self.epsilon * factor)


@dataclass(frozen=True)
class HypothesisResult:
    """Pointwise pinching margins H*rhs_scale - ||A - H g|| over vertices."""

    holds: bool
    margins: np.ndarray
    worst_margin: float
    worst_vertex: int
    epsilon_admissible: bool
    rhs_scale: float


@dataclass(frozen=True)
class RothResult:
    """Spectral pinching condition on the unit-area surface."""

    lhs: float                 # lambda1*(int H)^2 - n*||H2||_{2p}^2
    c_eps: float
    threshold: float           # -c_eps; the condition is lhs > threshold
    holds: bool
    integral_H: float
    h2_norm_2p: float
    constituents: dict         # the four terms whose min/2 gives c_eps


@dataclass(frozen=True)
class AnnulusResult:
    """Distance range to the barycenter against the conclusion annulus."""

    center: np.ndarray
    r_lambda: float            # sqrt(n / lambda1)
    inner: float               # r_lambda - eps
    outer: float               # r_lambda + eps
    min_dist: float
    max_dist: float
    contained: bool
    oscillation: float         # max_dist - min_dist


@dataclass(frozen=True)
class ProofTrace:
    """Intermediate quantities of the containment argument (unit-area scale)."""

    kp: float
    eps_tilde: float
    gamma: float
    mu0: float
    mu0_bracket: tuple
    mean_H_normalized: float
    mu0_mean_gap: float
    dev_norm_kp: float                 # ||A~ - mu0 g~||_kp
    bad_set_P_measure: float           # |{||A^ - g^|| >= 1}| on mu0-rescaled surface
    bad_set_P_bound: float
    bad_set_Pgamma_measure: float      # |{||A~ - mu0 g~|| >= gamma}|
    chebyshev_bound_Pgamma: float      # (||A~ - mu0 g~||_kp / gamma)^kp
    eps_rate_bound_Pgamma: float       # (eps~^(2+alpha)/gamma)^kp, constant-free rate
    ricci_deficit_integral: float
    aubry_bound: float | None                # lower bound for the mu0-rescaled surface
    aubry_bound_normalized: float | None     # times mu0^2: bound for the unit-area surface
    lambda1_normalized: float
    eta_eps: float
    gamma_ok: bool
    warnings: tuple


@dataclass(frozen=True)
class PinchingReport:
    """Full hypothesis/conclusion ledger of one verify run.

    Stages that failed or did not run stay None (serialized as null); the
    failure message names the first stage that failed.  spectral is
    lambda1's full result, or its ConvergenceError when it did not certify
    (None when it did not run): the solver diagnostics the CLI writes to
    its meta block.
    """

    constants: PinchingConstants
    area: float
    hypothesis: HypothesisResult | None
    strictly_convex: bool | None
    convexity: ConvexityStatus | None
    lambda1: float | None
    lambda1_normalized: float | None
    lambda1_residual: float | None
    spectral: spectral.SpectralResult | spectral.ConvergenceError | None
    roth: RothResult | None
    annulus: AnnulusResult | None
    oscillation: float | None
    phi_sup: float | None
    trace: ProofTrace | None
    failure: str | None


@dataclass(frozen=True)
class UnitArea:
    """A surface and its curvature record rescaled by c = |M|^(-1/2) to |M| = 1."""

    factor: float
    weights: np.ndarray            # vertex areas * c^2, summing to 1
    geometries: SurfaceGeometry    # curvatures / c, H2 / c^2
    constants: PinchingConstants   # eps * c
    lambda1: float                 # lambda1 / c^2


def unit_area(
    mesh: Mesh, geometries: SurfaceGeometry, constants: PinchingConstants, lam1: float
) -> UnitArea:
    """Rescale the weights, curvatures, eps and lambda1 of `mesh` to unit area."""
    c = mesh.area ** (-1.0 / constants.n)
    return UnitArea(
        factor=c,
        weights=mesh.vertex_areas * c ** 2,
        geometries=geometries.rescaled(c),
        constants=constants.rescaled(c),
        lambda1=lam1 * c ** -2,
    )


def _require_positive(values: np.ndarray, what: str) -> None:
    """Raise naming the first minimiser of `values` when any is <= 0."""
    if np.any(values <= 0.0):
        bad = int(np.argmin(values))
        raise ValueError(f"{what}({bad}) = {values[bad]:g} <= 0")


# -- hypothesis --------------------------------------------------------------


def check_hypothesis(
    mesh: Mesh, geometries: SurfaceGeometry, constants: PinchingConstants
) -> HypothesisResult:
    """Pointwise pinching margins; requires mean-convexity (H > 0 everywhere)."""
    H = geometries.H
    _require_positive(H, "mean-convexity violated: H")
    area = mesh.area
    n, alpha, eps = constants.n, constants.alpha, constants.epsilon
    rhs_scale = area ** (-(2.0 + alpha) / n) * eps ** (2.0 + alpha)
    margins = H * rhs_scale - geometries.A_traceless_norm
    worst = int(np.argmin(margins))
    return HypothesisResult(
        holds=bool(margins[worst] >= 0.0),
        margins=margins,
        worst_margin=float(margins[worst]),
        worst_vertex=worst,
        epsilon_admissible=bool(eps < constants.c_threshold * area ** (1.0 / n)),
        rhs_scale=rhs_scale,
    )


# -- spectral pinching condition ----------------------------------------------


def roth_condition(unit: UnitArea) -> RothResult:
    """Evaluate lambda1*(int H)^2 - n*||H2||_{2p}^2 > -C_eps on |M| = 1.

    `unit` is the unit-area record of `unit_area`, with its lambda1; H2 > 0
    everywhere and eps < 2/(3 sup H) are hypotheses, violated ones raise.
    """
    weights, geometries, constants = unit.weights, unit.geometries, unit.constants
    area = float(weights.sum())
    if abs(area - 1.0) > 1e-6:
        raise ValueError(f"spectral condition needs unit-area weights, |M| = {area:g}")
    _require_positive(geometries.H2, "H2")
    n = constants.n
    eps = constants.epsilon
    h_inf = float(np.abs(geometries.H).max())
    if eps >= 2.0 / (3.0 * h_inf):
        raise ValueError(
            f"eps = {eps:g} >= 2/(3 sup H) = {2.0 / (3.0 * h_inf):g}"
        )
    integral_h = fields.integrate(geometries.H, weights)
    h2_norm = lp_norm(geometries.H2, weights, 2.0 * constants.p_roth)
    lhs = unit.lambda1 * integral_h**2 - n * h2_norm**2
    constituents = {
        "L_sqrt_term": constants.L * _r_lambda(unit.lambda1) * eps**2,
        "L": constants.L,
        "c_n": constants.c_n,
        "half_n_h2_norm_sq": 0.5 * n * h2_norm**2,
    }
    c_eps = 0.5 * min(constituents.values())
    return RothResult(
        lhs=lhs,
        c_eps=c_eps,
        threshold=-c_eps,
        holds=bool(lhs > -c_eps),
        integral_H=integral_h,
        h2_norm_2p=h2_norm,
        constituents=constituents,
    )


# -- conclusion geometry -------------------------------------------------------


def _r_lambda(lam1: float) -> float:
    """sqrt(n/lambda1) with n = 2: the radius of the round sphere with lambda1."""
    if lam1 <= 0:
        raise ValueError("lambda1 must be positive")
    return math.sqrt(2 / lam1)


def _annulus(center, dist, lam1, epsilon) -> AnnulusResult:
    """Containment of the surface in the annulus of width 2*eps about x0."""
    r_lam = _r_lambda(lam1)
    if epsilon >= r_lam:
        raise ValueError(
            f"inner radius not positive: eps = {epsilon:g} >= sqrt(n/lambda1) = {r_lam:g}"
        )
    dmin, dmax = float(dist.min()), float(dist.max())
    inner, outer = r_lam - epsilon, r_lam + epsilon
    return AnnulusResult(
        center=center,
        r_lambda=r_lam,
        inner=inner,
        outer=outer,
        min_dist=dmin,
        max_dist=dmax,
        contained=bool(inner <= dmin and dmax <= outer),
        oscillation=dmax - dmin,
    )


def _phi_sup(dist, lam1) -> float:
    """sup over vertices of |X - x0| (|X - x0| - sqrt(2/lambda1))^2."""
    r_lam = _r_lambda(lam1)
    return float((dist * (dist - r_lam) ** 2).max())


def eta_of_epsilon(lam1: float, h_inf: float, epsilon: float) -> float:
    """min((sqrt(n/lambda1) - eps) eps^2, 1/(27 sup|H|^3))."""
    return min((_r_lambda(lam1) - epsilon) * epsilon**2, 1.0 / (27.0 * h_inf**3))


# -- best-fit umbilical factor --------------------------------------------------


def fit_umbilical_mu(
    geometries: SurfaceGeometry, weights: np.ndarray, p: float
) -> float:
    """Minimize ||A - mu g||_p over mu on the bracket [min k1, max k2].

    The p-th power objective is convex in mu, so the minimizer is located
    by bisecting the sign of its derivative; a value-based search would
    stall at a sqrt(machine-eps) plateau around the minimum.  For p = 2
    the result is the weighted mean of H to round-off.
    """
    if not p >= 2:
        raise ValueError("p must be >= 2")
    k1, k2 = geometries.kappa.T
    logw = np.log(weights)

    def sign_at(mu: float) -> float:
        # sign of d/dmu sum w ((k1-mu)^2 + (k2-mu)^2)^(p/2) = -p sum w sq^(p/2-1) lin,
        # by a signed log-sum so large p stays stable
        sq = (k1 - mu) ** 2 + (k2 - mu) ** 2
        lin = (k1 - mu) + (k2 - mu)
        nz = (sq > 0.0) & (lin != 0.0)
        if not np.any(nz):
            return 0.0
        logs = logw[nz] + (0.5 * p - 1.0) * np.log(sq[nz]) + np.log(np.abs(lin[nz]))
        total, sign = logsumexp(logs, b=np.sign(lin[nz]), return_sign=True)
        if not np.isfinite(total):
            return 0.0
        return -float(sign)

    a, b = float(k1.min()), float(k2.max())
    width_tol = 1e-12 * max(abs(a), abs(b))
    for _ in range(200):
        if b - a <= width_tol:
            break
        mid = 0.5 * (a + b)
        s = sign_at(mid)
        if s < 0.0:
            a = mid
        elif s > 0.0:
            b = mid
        else:
            a = b = mid
    return float(0.5 * (a + b))


# -- proof trace ----------------------------------------------------------------


def proof_trace(unit: UnitArea) -> ProofTrace:
    """Trace the containment argument on the unit-area record `unit`.

    Requires strict convexity and the record's lambda1 (see `unit_area`).
    """
    geo_t = unit.geometries
    k1, k2 = geo_t.kappa.T
    _require_positive(k1, "strict convexity violated: kappa1")
    lam1_t, constants, w_t = unit.lambda1, unit.constants, unit.weights
    n, alpha, kp, eps_t = constants.n, constants.alpha, constants.kp, constants.epsilon

    mu0 = fit_umbilical_mu(geo_t, w_t, kp)
    mean_h = fields.integrate(geo_t.H, w_t) / float(np.sum(w_t))
    bracket = (float(k1.min()), float(k2.max()))
    gamma = eps_t ** (2.0 + 0.5 * alpha)

    dev = np.sqrt((k1 - mu0) ** 2 + (k2 - mu0) ** 2)
    log_dev_kp = lp_norm_log_pth_power(dev, w_t, kp)   # log int ||A~-mu0 g~||^kp

    pgamma_bad = sublevel_measure(dev, w_t, gamma)
    log_cheb_pgamma = log_dev_kp - kp * math.log(gamma)
    cheb_pgamma = math.exp(log_cheb_pgamma) if log_cheb_pgamma < 700 else math.inf
    eps_rate = eps_t ** (0.5 * alpha * kp)

    # mu0-rescaled surface: curvature kappa/mu0, measure mu0^n * measure
    w_hat = w_t * mu0**n
    p_bad = sublevel_measure(dev / mu0, w_hat, 1.0)
    log_p_bound = (n - kp) * math.log(mu0) + log_dev_kp
    p_bound = math.exp(log_p_bound) if log_p_bound < 700 else math.inf

    deficit = ricci_deficit(geo_t.H2, mu0)
    log_def = lp_norm_log_pth_power(deficit, w_hat, kp)
    deficit_integral = math.exp(log_def) if log_def < 700 else math.inf
    aubry = spectral.aubry_lower_bound(
        deficit_integral, volume=mu0**n, p=kp, C_np=constants.C_np_aubry
    )

    h_inf_t = float(np.abs(geo_t.H).max())
    eta = eta_of_epsilon(lam1_t, h_inf_t, eps_t)

    warnings = []
    gamma_ok = gamma < min(1.0, mu0**2)
    if not gamma_ok:
        warnings.append(
            f"gamma = {gamma:g} violates gamma < min(1, mu0^2) = "
            f"{min(1.0, mu0**2):g}; eps too large for the trace constants"
        )
    if eps_t >= 2.0 / (3.0 * h_inf_t):
        warnings.append(
            f"normalized eps = {eps_t:g} >= 2/(3 sup H) = "
            f"{2.0 / (3.0 * h_inf_t):g}"
        )
    if aubry is None:
        warnings.append(
            "Ricci-deficit integral exceeds volume/C(n,p), or "
            "C(n,p)*(deficit/volume)^(1/p) >= 1: spectral lower bound "
            "vacuous for the configured constant"
        )

    return ProofTrace(
        kp=kp,
        eps_tilde=eps_t,
        gamma=gamma,
        mu0=mu0,
        mu0_bracket=bracket,
        mean_H_normalized=mean_h,
        mu0_mean_gap=abs(mu0 - mean_h),
        dev_norm_kp=math.exp(log_dev_kp / kp) if log_dev_kp > -math.inf else 0.0,
        bad_set_P_measure=p_bad,
        bad_set_P_bound=p_bound,
        bad_set_Pgamma_measure=pgamma_bad,
        chebyshev_bound_Pgamma=cheb_pgamma,
        eps_rate_bound_Pgamma=eps_rate,
        ricci_deficit_integral=deficit_integral,
        aubry_bound=aubry,
        aubry_bound_normalized=None if aubry is None else mu0**2 * aubry,
        lambda1_normalized=lam1_t,
        eta_eps=eta,
        gamma_ok=bool(gamma_ok),
        warnings=tuple(warnings),
    )


# -- end-to-end -----------------------------------------------------------------


def verify_theorem(
    mesh: Mesh,
    constants: PinchingConstants,
    tol: float = spectral.DEFAULT_TOL,
    with_trace: bool = True,
) -> PinchingReport:
    """Run the full pipeline and assemble the report.

    Structural mesh defects and a mesh that is not a sphere (Euler
    characteristic != 2) raise, as does a failed fit; analytic failures
    are recorded.  A failed hypothesis discards lambda1's outcome and
    skips all after it, a failed lambda1 every unit-area stage; the
    spectral condition, annulus, phi and trace run independently, and
    `failure` names the first that failed.  The fit runs in a forked
    child (`_fork_child`) while lambda1 runs here.
    """
    report = validate_mesh(mesh)
    if not report.all_passed:
        raise ValueError(report.failure)
    chi = mesh.euler_characteristic
    if chi != 2:  # the theorem's closed convex surfaces are spheres
        raise ValueError(f"Euler characteristic {chi} != 2: not a sphere")

    def spectrum():   # lambda1's result or exception, read after the hypothesis
        try:
            return spectral.lambda1(mesh, tol=tol)
        except Exception as exc:
            return exc

    outcome, geometries = _fork_child(
        lambda: [pickle.dumps(estimate_geometry(mesh))], spectrum, pickle.load)
    convexity = convexity_status(geometries)
    failure = res = unit = roth = annulus = phi = trace = None

    def stage(name, fn, *args):
        nonlocal failure
        try:
            return fn(*args)
        except ValueError as exc:
            failure = failure or f"{name}: {exc}"

    hypothesis = stage("hypothesis", check_hypothesis, mesh, geometries, constants)
    if failure is None:
        res = outcome
        if isinstance(res, spectral.ConvergenceError):
            failure = f"lambda1: {res}"
        elif isinstance(res, Exception):
            raise res
        else:
            unit = unit_area(mesh, geometries, constants, res.lambda1)
            roth = stage("spectral condition", roth_condition, unit)
            center = mesh.barycenter
            dist = np.linalg.norm(mesh.vertices - center, axis=1)
            annulus = stage(
                "annulus", _annulus, center, dist, res.lambda1, constants.epsilon
            )
            phi = _phi_sup(dist, res.lambda1)
            if with_trace and convexity.strictly_convex:
                trace = stage("proof trace", proof_trace, unit)

    return PinchingReport(
        constants=constants,
        area=mesh.area,
        hypothesis=hypothesis,
        strictly_convex=convexity.strictly_convex,
        convexity=convexity,
        lambda1=None if unit is None else res.lambda1,
        lambda1_normalized=None if unit is None else unit.lambda1,
        lambda1_residual=None if unit is None else res.residual,
        spectral=res,
        roth=roth,
        annulus=annulus,
        oscillation=None if annulus is None else annulus.oscillation,
        phi_sup=phi,
        trace=trace,
        failure=failure,
    )


# -- sharpness sweep --------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    delta: float
    achieved_ratio: float      # max ||A-Hg||/H * |M|^((2+alpha)/n) on the oracle
    hypothesis_holds: bool | None
    contained: bool | None
    oscillation: float | None


@dataclass(frozen=True)
class SweepResult:
    """Rows in grid order plus the log-log oscillation-vs-eps fit."""

    rows: tuple
    fit_slope: float
    fit_intercept: float


def pinch_ratio(surface: surfgen.AnalyticSurface, mesh: Mesh, constants) -> float:
    """Worst pinching ratio max(||A - Hg|| / H) * |M|^((2+alpha)/n).

    Computed from the analytic curvature oracle at the mesh vertices; the
    hypothesis holds (on the oracle field) iff this is <= eps^(2+alpha).
    +inf when the oracle loses mean-convexity.
    """
    o = surfgen.oracle_curvatures_at_vertices(surface, mesh)
    if np.any(o.H <= 0.0):
        return math.inf
    ratio = float((o.A_traceless_norm / o.H).max())
    return ratio * float(mesh.area) ** ((2.0 + constants.alpha) / constants.n)


def amplitude_for_ratio(
    degree: int,
    order: int,
    constants: PinchingConstants,
    subdivision: int,
    slack: float = 1.0,
) -> tuple[float, float, Mesh]:
    """Search for the harmonic amplitude realizing the pinching ratio.

    Finds delta with pinch_ratio = slack * eps^(2+alpha) on the unit
    sphere perturbed by delta * Y_lm (a sphere of radius r is the unit one
    at eps / r, rescaled) to a relative error of RATIO_RTOL.  The ratio is
    0 at delta = 0 and nearly proportional to delta, so each step scales
    the newest delta by target / ratio, or bisects the bracket kept from
    [0, delta_max] when that point leaves it or the ratio is not finite and
    positive (+inf: the oracle lost mean-convexity).  About five to nine
    ratio evaluations, at most MAX_SEARCH_STEPS steps; the result must be
    within 1% of the target.  Raises before any mesh is built unless the
    target is finite and positive, and when the radial positivity limit is
    reached before the target.  Returns (delta, achieved ratio, the mesh at
    delta that ratio was measured on).
    """
    target = slack * constants.epsilon ** (2.0 + constants.alpha)
    if not 0.0 < target < math.inf:
        raise ValueError(
            f"amplitude search failed: target slack*eps^(2+alpha) = {target:g} "
            "is not finite and positive"
        )
    delta_max = 0.9 / surfgen.harmonic_sup(degree, order)

    def ratio_at(delta: float) -> tuple[float, Mesh]:
        surf = surfgen.PerturbedSphere(1.0, delta, degree, order)
        mesh = surfgen.generate(surf, subdivision)
        return pinch_ratio(surf, mesh, constants), mesh

    achieved, mesh = ratio_at(delta_max)
    if achieved < target:
        raise ValueError(
            f"amplitude search failed: ratio at the positivity limit "
            f"delta = {delta_max:g} is below the target {target:g}"
        )
    # [lo, hi] brackets the target; a nan ratio counts as above it
    lo, hi, delta = 0.0, delta_max, delta_max
    for _ in range(MAX_SEARCH_STEPS):
        if abs(achieved - target) <= RATIO_RTOL * target:
            break
        lo, hi = (delta, hi) if achieved < target else (lo, delta)
        delta = delta * target / achieved if 0.0 < achieved < math.inf else lo
        if not lo < delta < hi:
            delta = 0.5 * (lo + hi)
        achieved, mesh = ratio_at(delta)
    # `not <=` also fails a nan ratio
    if not abs(achieved - target) <= 0.01 * target:
        raise ValueError(
            f"amplitude search failed: achieved ratio {achieved:g} not "
            f"within 1% of target {target:g}"
        )
    return delta, achieved, mesh


def sharpness_sweep(
    degree: int,
    order: int,
    alpha: float,
    eps_grid,
    subdivision: int = 4,
    slack: float = 1.0,
) -> SweepResult:
    """For each eps, tune the amplitude on the unit sphere and verify.

    Each row builds one constants record for its search and its verify.
    Rows keep the grid order.  The fit is least squares of log(oscillation)
    against log(eps) over rows with positive oscillation.
    """
    eps_grid = [float(e) for e in eps_grid]
    if not all(0.0 < e < math.inf for e in eps_grid):
        raise ValueError(f"eps grid must be finite and positive, got {eps_grid}")

    def run_one(eps: float) -> SweepRow:
        constants = PinchingConstants(alpha=alpha, epsilon=eps)
        delta, achieved, msh = amplitude_for_ratio(
            degree, order, constants, subdivision, slack=slack
        )
        # a row reads no trace field
        report = verify_theorem(msh, constants, with_trace=False)
        return SweepRow(
            epsilon=eps,
            delta=delta,
            achieved_ratio=achieved,
            hypothesis_holds=(
                None if report.hypothesis is None else report.hypothesis.holds
            ),
            contained=(
                None if report.annulus is None else report.annulus.contained
            ),
            oscillation=report.oscillation,
        )

    rows = tuple(run_one(e) for e in eps_grid)

    pts = [
        (math.log(r.epsilon), math.log(r.oscillation))
        for r in rows
        if r.oscillation is not None and r.oscillation > 0.0
    ]
    if len(pts) >= 2 and len({x for x, _ in pts}) >= 2:
        slope, intercept = np.polyfit(*zip(*pts), deg=1)
    else:
        slope = intercept = float("nan")
    return SweepResult(
        rows=rows, fit_slope=float(slope), fit_intercept=float(intercept)
    )
