"""Motion-planner complexity toolkit.

Exact zero-divisor cup-length arithmetic in cohomology algebras, a catalog
of configuration spaces with certified complexity bounds, executable
minimal motion planners (circle, spheres, tori, sphere products, robot
arms), and a seeded verification harness for their section, coverage,
continuity and geometry contracts.
"""

from .catalog import (
    BadSpec,
    BoundsReport,
    SpaceDescriptor,
    SpaceSpec,
    UnsupportedParameter,
    canonical,
    catalog_space,
    parse_spec,
    tc_bounds,
)
from .graded_algebra import (
    AlgebraError,
    AlgebraMismatch,
    AlgElement,
    AssociativityViolation,
    CommutativityViolation,
    GradedAlgebra,
    GradingViolation,
    UnitMissing,
    ZdclResult,
    canonical_divisor,
    cup_hom,
    tensor_product,
    validate_algebra,
    zdcl,
    zero_divisor_basis,
)
from .geometry import ConfigPoint, Geometry, InvalidPoint, ParityError, PathFn, make_point
from .planner_core import (
    CoverageGap,
    Decision,
    Decisions,
    DomainMiss,
    HomotopyEndpointMismatch,
    LengthMismatch,
    Planner,
    PlannerRule,
    PlanResult,
    arm_planner,
    build_planner,
    circle_planner,
    even_vector_field,
    forward_kinematics,
    odd_vector_field,
    plan,
    product_planner,
    punctured_plane_planner,
    sample_path,
    sphere_planner,
    straight_line_planner,
    transfer_planner,
)
from .verifier import (
    DivergenceReport,
    FamilyLeavesDomain,
    Mismatch,
    ReconcileReport,
    VerifyConfig,
    VerifyReport,
    demonstrate_discontinuity,
    reconcile,
    verify_planner,
)

__version__ = "0.1.0"
