"""Well-posedness toolkit for vector optimization over box lattices.

Polyhedral ordering cones, oriented cone distances, efficiency
classification, scalar and vector well-posedness diagnostics, and
regularization pipelines that certify a nearby well-posed problem.
"""

__version__ = "0.1.0"  # [project] version in pyproject.toml; tests/test_imports.py checks it

from .errors import (
    WellposedError,
    InputError,
    ConeValidationError,
    NotInteriorPoint,
    ConfigError,
    NumericalFailure,
    HypothesisNotMet,
    NoBoundingFunctional,
    CertificateFailure,
)
from .cone import OrderingCone, orthant
from .distance import (
    OrientedDistanceResult,
    project_dual_cone,
    project_neg_cone,
    oriented_distance,
    oriented_distance_batch,
    oriented_distance_sampled,
)
from .problem import (
    Box,
    VectorProblem,
    ScalarProblem,
    diameter,
    perturb,
    scalarize_linear,
    scalarize_oriented,
    level_set,
    function_distance,
)
from .config import load_problem, problem_from_mapping
from .analysis import (
    StructuralVerdict,
    BoundingSearch,
    SionGap,
    EVIDENCE,
    COUNTEREXAMPLE,
    is_C_convex,
    is_star_quasiconvex,
    is_C_bounded_below,
    find_bounding_functional,
    sion_gap,
)
from .diagnostics import (
    EfficiencyVerdict,
    WellPosednessReport,
    LinearRouteResult,
    YES,
    NO,
    INCONCLUSIVE,
    WELL_POSED,
    NOT_WELL_POSED,
    classify_point,
    weff_via_distance,
    tykhonov_diagnostic,
    dh_diagnostic,
    dh_via_scalarization,
    dh_sufficient_linear,
    geometric_schedule,
)
from .perturb import (
    TikhonovCertificate,
    EkelandResult,
    PipelineCertificate,
    ProbeMember,
    ProbeReport,
    tikhonov_regularize,
    ekeland_point,
    density_pipeline,
    genericity_probe,
)
from . import registry

# importing the perturb submodule above rebinds the package attribute to the
# module; restore the operator so `wellposed.perturb(problem, ...)` works
from .problem import perturb  # noqa: E402

__all__ = [
    "__version__",
    "WellposedError",
    "InputError",
    "ConeValidationError",
    "NotInteriorPoint",
    "ConfigError",
    "NumericalFailure",
    "HypothesisNotMet",
    "NoBoundingFunctional",
    "CertificateFailure",
    "OrderingCone",
    "orthant",
    "OrientedDistanceResult",
    "project_dual_cone",
    "project_neg_cone",
    "oriented_distance",
    "oriented_distance_batch",
    "oriented_distance_sampled",
    "Box",
    "VectorProblem",
    "ScalarProblem",
    "diameter",
    "perturb",
    "scalarize_linear",
    "scalarize_oriented",
    "level_set",
    "function_distance",
    "load_problem",
    "problem_from_mapping",
    "StructuralVerdict",
    "BoundingSearch",
    "SionGap",
    "EVIDENCE",
    "COUNTEREXAMPLE",
    "is_C_convex",
    "is_star_quasiconvex",
    "is_C_bounded_below",
    "find_bounding_functional",
    "sion_gap",
    "EfficiencyVerdict",
    "WellPosednessReport",
    "LinearRouteResult",
    "YES",
    "NO",
    "INCONCLUSIVE",
    "WELL_POSED",
    "NOT_WELL_POSED",
    "classify_point",
    "weff_via_distance",
    "tykhonov_diagnostic",
    "dh_diagnostic",
    "dh_via_scalarization",
    "dh_sufficient_linear",
    "geometric_schedule",
    "TikhonovCertificate",
    "EkelandResult",
    "PipelineCertificate",
    "ProbeMember",
    "ProbeReport",
    "tikhonov_regularize",
    "ekeland_point",
    "density_pipeline",
    "genericity_probe",
    "registry",
]
