"""Verification engine for the contracted-gauge-group electroweak model.

Exact contraction-parameter arithmetic, SU(2;j) matrix checks, a small
symbolic field algebra with a text grammar, the j-weighted bosonic Lagrangian,
and the contraction-limit analyses, wired to a CLI harness.
"""

from .contraction import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    ComplexRational,
    ContractionScalar,
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
    derive,
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
    random_pythagorean_config,
    scaling_sweep,
)
from .matrices import (
    Mat2,
    NotUnimodularError,
    su2_element,
    verify_group,
)
from .model import (
    DEFAULT_CONFIG,
    PYTHAGOREAN_TRIPLES,
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
    EqualsResult,
    FieldSample,
    MissingAssignmentError,
    assignment_from_components,
    equals,
    eval_expression,
)
from .parser import ParseError, parse, to_text
from .report import VerificationReport

__version__ = "0.1.0"
