"""Prover for terminating hypergeometric identities.

Creative telescoping (Gosper/WZ and the telescoping linear system) plus a
determinant-vanishing method for multi-parameter identities: existence of the
telescoping recurrence is proved by evaluating the system determinant at the
integer points of a lower set cut out by max-weight assignment bounds, at a
user-chosen certainty level from sampled (semi-rigorous) to exhaustive
(rigorous).
"""

__version__ = "0.1.0"

from .gridproof import (
    NormalizedIdentity, ProofReport, initial_conditions_check,
    leading_coeff_check, normalize_and_delta, prove,
)
from .linalg import PolyMatrix, solve_nullspace
from .factored import Factored
from .polys import MultiPoly, poly_gcd
from .telescope import (
    Certificate, Recurrence, assemble, solve_order, verify_certificate,
)
from .terms import (
    LinearForm, TermExpression, natural_support, parse_affine,
    parse_rational, parse_sum, parse_term, render, shift_quotient, term_value,
)

__all__ = [
    "Certificate", "Factored", "LinearForm", "MultiPoly",
    "NormalizedIdentity", "PolyMatrix", "ProofReport", "Recurrence",
    "TermExpression", "assemble", "initial_conditions_check",
    "leading_coeff_check", "natural_support", "normalize_and_delta",
    "parse_affine", "parse_rational", "parse_sum", "parse_term", "poly_gcd",
    "prove", "render", "shift_quotient", "solve_nullspace", "solve_order",
    "term_value", "verify_certificate",
]
