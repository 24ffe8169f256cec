"""Numerical geometry of tangent bundles over para-Kahler-Norden manifolds.

Structure verification, geodesic and F-geodesic integration on the tangent
bundle and on the phi-unit tangent bundle, invariant monitoring, and Frenet
analysis of projected curves, validated against built-in closed-form
solution families.
"""

from .bundle import (
    BundleState,
    BundleSystem,
    FPlanarCoefficients,
    FTensor,
    geodesic_residual,
    lorentz_force,
    normalized_unit_state,
    phi_mirror,
    sasaki_metric,
)
from .catalog import CatalogEntry, ClosedForm, entry, entry_names
from .errors import (
    BundleFlowError,
    ConstraintError,
    EvalDomainError,
    ExprSyntaxError,
    IntegrationBlowUp,
    ParameterError,
    ScenarioError,
    SignatureError,
    SingularMetricError,
    UnknownEntryError,
    VerticalCurveError,
)
from .expressions import ScalarField
from .frenet import (
    ArcLength,
    FrenetResult,
    arc_length_reparam,
    covariant_jets,
    frenet_curvatures,
)
from .geometry import (
    CheckReport,
    CurvatureOperator,
    FieldTensor,
    MetricStructure,
    PointGeometry,
    check_curvature_purity,
    check_norden,
    check_parallel_phi,
    curvature_power,
    curvature_power_closed,
)
from .integrate import IntegratorConfig, Trajectory, convergence_order, integrate
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"
