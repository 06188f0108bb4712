"""Weighted smooth function classes: weight sequences, their growth and
regularity conditions, and the finite moment problems they control."""

from .errors import (ConditionRefused, DepthExceeded,
                     ExtrapolationDivergence, GsmomentError, HorizonExceeded,
                     IllConditioned, IndexOutOfHorizon, InvalidParameter,
                     NotAWeightSequence, RequiresLogConvexity,
                     SingularMultiplier, TargetTooLarge, UnsupportedAtom,
                     UnsupportedSupport)
from .weightseq import (DEFAULT_HORIZON, MAX_HORIZON, MIN_HORIZON,
                        AssociatedFunction, WeightSequence,
                        associated_function, from_expr, from_table, gevrey,
                        is_log_convex, make_sequence, q_gevrey)
from .conditions import (DEFAULT_CONDITIONS, FAILS, HOLDS, INCONCLUSIVE,
                         ConditionReport, check_condition, classify)
from .interpolating import (InterpolatedPair, interpolation_agreement,
                            two_interpolate)
from .atoms import (MAX_DERIVATIVE_ORDER, Atom, TestFunction,
                    dual_seminorm_pair, flat, gauss_poly, log_seminorm,
                    seminorm)
from .transforms import (OPERATORS, apply_operator, divide_by_x,
                         even_entries, even_odd_parts, even_part, fold,
                         interleave, multiplier_shift, multiplier_unshift,
                         multiply_by_x, odd_entries, odd_part,
                         reciprocal_jet, reflect, sign_twist,
                         sqrt_substitute, square_substitute)
from .solver import (DEGREE_CAP, MomentSolution, ReductionResult,
                     SequenceTarget, lambda_log_norm, lambda_norm,
                     membership_report, reduction_roundtrip, solve_moments,
                     unit_ball_target)
from .halfplane import (BorelRittResult, HalfPlaneFunction, borel_ritt_solve,
                        holomorphy_residual, uhf_norm)

__version__ = "0.1.0"

__all__ = [
    "AssociatedFunction", "Atom", "BorelRittResult", "ConditionRefused",
    "ConditionReport", "DEFAULT_CONDITIONS", "DEFAULT_HORIZON", "DEGREE_CAP",
    "DepthExceeded", "ExtrapolationDivergence", "FAILS",
    "GsmomentError", "HOLDS", "HalfPlaneFunction", "HorizonExceeded",
    "IllConditioned", "INCONCLUSIVE", "IndexOutOfHorizon",
    "InterpolatedPair", "InvalidParameter", "MAX_DERIVATIVE_ORDER",
    "MAX_HORIZON", "MIN_HORIZON", "MomentSolution", "NotAWeightSequence",
    "OPERATORS",
    "ReductionResult", "RequiresLogConvexity", "SequenceTarget",
    "SingularMultiplier", "TargetTooLarge", "TestFunction",
    "UnsupportedAtom", "UnsupportedSupport", "WeightSequence",
    "apply_operator", "associated_function", "borel_ritt_solve",
    "check_condition", "classify", "divide_by_x", "dual_seminorm_pair",
    "even_entries", "even_odd_parts", "even_part", "flat", "fold",
    "from_expr", "from_table", "gauss_poly", "gevrey",
    "holomorphy_residual", "interleave", "interpolation_agreement",
    "is_log_convex", "lambda_log_norm", "lambda_norm", "log_seminorm",
    "make_sequence", "membership_report", "multiplier_shift",
    "multiplier_unshift", "multiply_by_x", "odd_entries", "odd_part",
    "q_gevrey", "reciprocal_jet", "reduction_roundtrip", "reflect",
    "seminorm", "sign_twist", "solve_moments", "sqrt_substitute",
    "square_substitute", "two_interpolate", "uhf_norm", "unit_ball_target",
]
