"""Gosper's algorithm: decide whether a hypergeometric term has a
hypergeometric antidifference and construct the rational certificate.

Gosper's algorithm is creative telescoping at order 0, so it runs on the
order-0 system of telescope.assemble: q(k) b(k+1) - r(k-1) b(k) = a_0 pbar(k)
with the Gosper normal form pbar, q, r of the shift quotient and the degree
bound of telescope.gosper_degree_bound.
"""

from __future__ import annotations

from .linalg import solve_nullspace
from .polys import MultiPoly, RationalFunction
from .telescope import Certificate, assemble
from .terms import TermExpression


def gosper_antidifference(f: TermExpression, k: str):
    """Certificate R with G = R*f and G(k+1) - G(k) = f, or None.

    R satisfies R(k+1)*rho(k) - R(k) = 1 exactly, rho the shift quotient of f.
    The first nullspace vector of the order-0 system with a_0 != 0, lifted to
    (a_0, b_0..b_K), gives b(k) = sum_i (b_i/a_0) k^i and
    R = b(k) r(k-1) / pbar(k), returned reduced.
    """
    vars = f.symbols
    if f.is_zero():
        return Certificate(RationalFunction.constant(vars, 0))
    sys = assemble(f, 0, k=k)
    if sys is None:
        return None
    kpoly = MultiPoly.variable(vars, k)
    for vec in solve_nullspace(sys.matrix):
        if vec[0].is_zero():
            continue
        a0, *bs = sys.lift(vec)
        b = MultiPoly.zero(vars)
        for i, c in enumerate(bs):
            b = b + c.embed(vars) * kpoly ** i
        return Certificate(RationalFunction(
            b * sys.r.shift(k, -1), a0.embed(vars) * sys.pbar))
    return None
