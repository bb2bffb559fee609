"""Kernel cometrics on landmark and discrete-shape spaces: curvature in three
independent forms, a Christoffel cross-oracle, Hamiltonian geodesics, shape
matching, and Riemannian-submersion consistency checks."""

from .charts import (
    CometricDef,
    catalog_cometric,
    cometric_from_json,
    cometric_jet,
    cometric_to_json,
    euclidean,
    hyperbolic_half_plane,
    sphere_stereographic,
)
from .christoffel import christoffel, riemann, sectional_numerator_oracle
from .curvature import (
    CurvatureBreakdown,
    force,
    numerator_coordinate,
    numerator_covariant,
    numerator_force_stress,
    stress,
)
from .dynamics import (
    ConservationReport,
    IntegratorConfig,
    MatchResult,
    ShootResult,
    integrate,
    landmark_system,
    match,
    shape_system,
    shoot,
)
from .errors import (
    ConditioningError,
    ConfigurationError,
    DegenerateConfigurationError,
    DivergenceError,
    DomainEvaluationError,
    GeometryError,
    MetricDegeneracyError,
    ParseError,
)
from .jets import CometricJet, assemble_jet
from .kernels import (
    KernelSpec,
    gram_matrix,
    kernel_fourier_oracle,
    kernel_grad,
    kernel_hess,
    kernel_value,
    spec_from_json,
    spec_to_json,
)
from .landmark import LandmarkMetric, landmark_cometric_jet
from .shapes import DiscreteSubmanifold, closed_curve, landmark_shape, make_circle
from .submersion import SubmersionCase, catalog_case, hopf_case, oneill_check, product_case
from .validation import TOLERANCES, SuiteResult, render_table, run_suites

__version__ = "0.1.0"

__all__ = [
    "CometricDef", "CometricJet", "ConservationReport", "CurvatureBreakdown",
    "DiscreteSubmanifold", "IntegratorConfig", "KernelSpec",
    "LandmarkMetric", "MatchResult", "ShootResult", "SubmersionCase",
    "SuiteResult", "TOLERANCES",
    "GeometryError", "ConfigurationError", "ParseError", "DomainEvaluationError",
    "MetricDegeneracyError", "DegenerateConfigurationError", "ConditioningError",
    "DivergenceError",
    "assemble_jet", "catalog_case", "catalog_cometric", "christoffel",
    "closed_curve", "cometric_from_json", "cometric_jet", "cometric_to_json",
    "euclidean", "force", "gram_matrix", "hopf_case", "hyperbolic_half_plane",
    "integrate", "kernel_fourier_oracle", "kernel_grad", "kernel_hess",
    "kernel_value", "landmark_cometric_jet", "landmark_shape",
    "landmark_system", "make_circle", "match", "numerator_coordinate",
    "numerator_covariant", "numerator_force_stress", "oneill_check",
    "product_case", "render_table", "riemann", "run_suites",
    "sectional_numerator_oracle", "shape_system",
    "shoot", "spec_from_json", "spec_to_json", "sphere_stereographic",
    "stress", "__version__",
]
