"""Gosper's algorithm: decide whether a hypergeometric term has a
hypergeometric antidifference and construct the rational certificate.

It is creative telescoping at order 0: telescope.solve_order on the order-0
system of telescope.assemble, q(k) b(k+1) - r(k-1) b(k) = a_0 pbar(k).
"""

from __future__ import annotations

from .polys import RationalFunction
from .telescope import Certificate, assemble, solve_order
from .terms import TermExpression


def gosper_antidifference(f: TermExpression, k: str):
    """Certificate R with G = R*f and G(k+1) - G(k) = f, or None.

    R satisfies R(k+1)*rho(k) - R(k) = 1 exactly, rho the shift quotient of f.
    It is the certificate of the order-0 system, whose recurrence solve_order
    makes [1]; certificate_from_solution reduces it.
    """
    if f.is_zero():
        return Certificate(RationalFunction.constant(f.symbols, 0))
    sys = assemble(f, 0, k=k)
    out = None if sys is None else solve_order(sys)
    return None if out is None else out[1]
