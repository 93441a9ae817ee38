"""curvlab: chart-based curvature for almost-Hermitian manifolds.

The package computes metric, connection, curvature, and their covariant
derivatives from truncated Taylor jets of the metric entries (no finite
differencing anywhere), classifies almost-Hermitian structures by the
residuals of their defining identities, and verifies a family of
curvature identities and Schur-type constancy statements on builtin and
user-supplied manifolds.

Typical use::

    from curvlab import build_builtin, classify, full_report, CheckConfig

    spec = build_builtin("cpn", n=2, c=4.0)
    print(classify(spec, [0.1, 0.2, -0.3, 0.4]))
    report = full_report(spec, CheckConfig(points=8, seed=0))
"""

from .errors import (
    CurvlabError,
    DegenerateMetricError,
    DerivativeExhaustedError,
    DimensionError,
    DomainError,
    EvaluationDomainError,
    ExprError,
    ExprSyntaxError,
    FrameConstructionError,
    HypothesisNotMetError,
    SchemaError,
    UnknownIdentifierError,
    UnsupportedOrderError,
    VariableRangeError,
)
from .exprlang import evaluate, evaluate_values, parse, to_source, variables_used
from .geometry import (
    CallableMatrixField,
    ExprMatrixField,
    ManifoldSpec,
    PointGeometry,
    SampleBox,
    metric_positive_definite,
    metric_symmetry_residual,
    sample_points,
)
from .hermitian import (
    CLASS_NAMES,
    ClassificationReport,
    ClassResult,
    HermitianData,
    classify,
    hermitian_data,
    merge_classifications,
    relative_residual,
)
from .jets import Jet, constant, cos, exp, log, seed, sin, sqrt
from .modelspaces import (
    BUILTIN_MODELS,
    build_builtin,
    make_cdn,
    make_cpn,
    make_flat,
    make_kahler_bump,
    make_perturbed_flat,
    make_s6,
)
from .planes import (
    AdaptedFrame,
    NuEstimate,
    Plane,
    adapted_frame,
    estimate_nu,
    nu_from_formula,
    orthonormal_frame,
    sample_planes,
    sectional_curvature,
)
from .verify import (
    IDENTITY_TAGS,
    CheckConfig,
    IdentityResult,
    Report,
    SchurStatistics,
    check_identity,
    full_report,
    schur_check,
)
from .cli import RunConfig, load_manifold_file

__version__ = "0.1.0"

__all__ = [
    "AdaptedFrame",
    "BUILTIN_MODELS",
    "CLASS_NAMES",
    "CallableMatrixField",
    "CheckConfig",
    "ClassResult",
    "ClassificationReport",
    "CurvlabError",
    "DegenerateMetricError",
    "DerivativeExhaustedError",
    "DimensionError",
    "DomainError",
    "EvaluationDomainError",
    "ExprError",
    "ExprMatrixField",
    "ExprSyntaxError",
    "FrameConstructionError",
    "HermitianData",
    "HypothesisNotMetError",
    "IDENTITY_TAGS",
    "IdentityResult",
    "Jet",
    "ManifoldSpec",
    "NuEstimate",
    "Plane",
    "PointGeometry",
    "Report",
    "RunConfig",
    "SampleBox",
    "SchemaError",
    "SchurStatistics",
    "UnknownIdentifierError",
    "UnsupportedOrderError",
    "VariableRangeError",
    "adapted_frame",
    "build_builtin",
    "check_identity",
    "classify",
    "constant",
    "cos",
    "estimate_nu",
    "evaluate",
    "evaluate_values",
    "exp",
    "full_report",
    "hermitian_data",
    "load_manifold_file",
    "log",
    "make_cdn",
    "make_cpn",
    "make_flat",
    "make_kahler_bump",
    "make_perturbed_flat",
    "make_s6",
    "merge_classifications",
    "metric_positive_definite",
    "metric_symmetry_residual",
    "nu_from_formula",
    "orthonormal_frame",
    "parse",
    "relative_residual",
    "sample_planes",
    "sample_points",
    "schur_check",
    "sectional_curvature",
    "seed",
    "sin",
    "sqrt",
    "to_source",
    "variables_used",
]
