"""Numerics for prescribed Gaussian curvature on the sphere with cone points."""

from .divisor import (
    ConePoint,
    Divisor,
    WeightSpec,
    cone_angle,
    divisor,
    equatorial_divisor,
    euler_characteristic,
    flagship_divisor,
    geodesic_distance,
    solver_scope_check,
    troyanov_check,
    weight_admissible,
)
from .background import (
    ConicalBackground,
    build_background,
    curvature_map,
    delta_beta_apply,
    gauss_bonnet,
    mean_laplacian_zero,
    weighted_norm,
)
from .diagnostics import (
    conformal_killing_residual,
    exact_football,
    football_divisor,
    kernel_gap,
    spectrum,
    triangle_double_divisor,
)
from .errors import (
    BackgroundError,
    ClosureViolation,
    ConesphereError,
    ConfigError,
    ContinuationStall,
    DomainError,
    GeometryError,
    MeshError,
    NewtonDivergence,
    NonPositiveTarget,
    NormalizationError,
    ScopeError,
    ShapeError,
    SingularLinearization,
    SpectralError,
)
from .mesh import SphereMesh, build_mesh, icosphere, write_csv, write_off
from .moebius import (
    MoebiusMap,
    StereoChart,
    conformal_distortion,
    enumerate_conformal_symmetries,
    identity_map,
    moebius_from_triples,
    stereographic_chart,
)
from .solver import (
    SolverConfig,
    SolverReport,
    continuation_solve,
    linearize,
    newton_solve,
    pinned_test_factor,
    self_adjointness_defect,
)

__version__ = "0.1.0"
