"""Geometry checks for almost-umbilical closed surfaces in R^3.

Pipeline: mesh ingestion/validation, analytic test families with
closed-form oracles, per-vertex shape-operator estimation, area-weighted
L^p field calculus, the first Laplace-Beltrami eigenvalue, and the
pinching hypothesis/annulus-conclusion verification with its proof trace.
"""

from .diffgeo import (
    ConvexityStatus,
    SurfaceGeometry,
    convexity_status,
    estimate_geometry,
    ricci_deficit,
)
from .fields import integrate, lp_norm, sublevel_measure
from .mesh import (
    Mesh,
    MeshFormatError,
    ValidationReport,
    load_mesh,
    save_mesh,
    validate_mesh,
)
from .pinching import (
    AnnulusResult,
    HypothesisResult,
    PinchingConstants,
    PinchingReport,
    ProofTrace,
    RothResult,
    amplitude_for_ratio,
    check_hypothesis,
    eta_of_epsilon,
    fit_umbilical_mu,
    pinch_ratio,
    proof_trace,
    roth_condition,
    sharpness_sweep,
    verify_theorem,
)
from .spectral import (
    ConvergenceError,
    SpectralResult,
    aubry_lower_bound,
    build_laplace,
    lambda1,
)
from .surfgen import (
    Ellipsoid,
    PerturbedSphere,
    generate,
    oracle_curvatures,
    oracle_curvatures_at_vertices,
    real_sph_harm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
