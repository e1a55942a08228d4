"""Prover for terminating hypergeometric identities.

Creative telescoping (Gosper/WZ and the telescoping linear system) plus a
determinant-vanishing method for multi-parameter identities: existence of the
telescoping recurrence is proved by evaluating the system determinant at
integer grid points bounded a priori through permanents, at a user-chosen
certainty level from sampled (semi-rigorous) to exhaustive (rigorous).
"""

__version__ = "0.1.0"

from .gosper import gosper_antidifference
from .gridproof import (
    NormalizedIdentity, ProofReport, initial_conditions_check,
    leading_coeff_check, normalize_and_delta, prove,
)
from .linalg import PolyMatrix, permanent_degree_bound, solve_nullspace
from .polys import BigRational, MultiPoly, RationalFunction, poly_gcd
from .telescope import (
    Certificate, Recurrence, assemble, creative_telescope, verify_certificate,
)
from .terms import (
    LinearForm, TermExpression, eval_term, evaluate, natural_support,
    parse_affine, parse_rational, parse_sum, parse_term, render,
    shift_quotient,
)

__all__ = [
    "BigRational", "Certificate", "LinearForm", "MultiPoly",
    "NormalizedIdentity", "PolyMatrix", "ProofReport", "RationalFunction",
    "Recurrence", "TermExpression", "assemble", "creative_telescope",
    "eval_term", "evaluate", "gosper_antidifference",
    "initial_conditions_check", "leading_coeff_check", "natural_support",
    "normalize_and_delta", "parse_affine", "parse_rational", "parse_sum",
    "parse_term", "permanent_degree_bound", "poly_gcd", "prove", "render",
    "shift_quotient", "solve_nullspace", "verify_certificate",
]
