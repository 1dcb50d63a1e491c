"""Verification engine for the contracted-gauge-group electroweak model.

Exact contraction-parameter arithmetic, SU(2;j) matrix checks, a small
symbolic field algebra with a pretty-printer, the j-weighted bosonic
Lagrangian, and the contraction-limit analyses, wired to a CLI harness.
"""

from .contraction import (
    CR_I,
    CR_ONE,
    ComplexRational,
    DivisionUndefinedError,
    J_NILPOTENT,
    J_ONE,
    JMode,
)
from .fields import (
    ArityError,
    Expression,
    IndexConflictError,
    UnknownFieldError,
    conjugate,
    const,
    divide_by_j,
    euler_lagrange,
    field,
    first_order_variation,
    instantiate_params,
    j_decompose,
    jpow,
    param,
    reduce_mode,
    substitute,
)
from .limits import (
    ScalingReport,
    decoupling_check,
    mass_invariance_check,
    scaling_sweep,
)
from .matrices import (
    Mat2,
    verify_group,
)
from .model import (
    MassSpectrum,
    ModelConfig,
    ParameterError,
    build_L27,
    build_LA,
    build_Lphi,
    build_matter_radial,
    check_su2_invariance,
    check_u1_invariance,
    extract_masses,
    physical_basis,
    transformed_lagrangian,
    verify_grading,
    verify_matter_radial,
    verify_trace_identity,
)
from .numeric import (
    MissingAssignmentError,
    eval_expression,
)
from .parser import to_text
from .report import VerificationReport

__version__ = "0.1.0"
