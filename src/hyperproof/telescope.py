"""Creative telescoping: find polynomials a_0..a_J and a certificate G = R*F
with sum_j a_j(n) F(n+j,k) = G(n,k+1) - G(n,k), by assembling the linear
system from the expanded telescoping equation and solving (or, downstream,
testing) it.  Includes independent certificate verification.

`assemble` is the one builder of the telescoping system.  Its order-0 case
q(k) b(k+1) - r(k-1) b(k) = a_0 pbar(k) is Gosper's equation, and
gosper.gosper_antidifference solves it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factored import (
    Factored, factored_lcm, factored_quotient, from_ratio_parts, gosper_normal,
    integer_roots_in_var,
)
from .linalg import PolyMatrix, clear_and_primitive, solve_nullspace
from .polys import (
    MultiPoly, RationalFunction, _as_fraction, clear_denominators,
    common_denominator,
)
from .terms import TermExpression, TermError


@dataclass(frozen=True)
class Recurrence:
    """sum_j coefficients[j](n, params) * A(n+j) = 0, order = len-1."""
    order: int
    coefficients: tuple  # MultiPoly over (rec var, params)

    def __str__(self):
        return ", ".join(str(c) for c in self.coefficients)


@dataclass(frozen=True)
class Certificate:
    """R with G = R*F for the antidifference G of F."""
    ratio: RationalFunction

    def __str__(self):
        return str(self.ratio)


@dataclass(frozen=True)
class TelescoperAnsatz:
    order: int          # J
    degree: int         # K, degree of the unknown polynomial b(k)
    unknowns: tuple     # column labels a0..aJ, b0..bK


@dataclass
class AssembledSystem:
    ansatz: TelescoperAnsatz
    matrix: PolyMatrix          # over (rec var, params); k eliminated
    k: str
    n: str
    vars: tuple                 # full variable tuple of the term
    matrix_vars: tuple
    u_polys: list               # expanded u_j, the a_j multiplier polynomials
    pbar: MultiPoly
    q: MultiPoly
    r: MultiPoly
    denominator: Factored       # Q(k), the cleared common denominator


def _default_vars(f: TermExpression, k, n):
    if k is None:
        k = f.symbols[0]
    if n is None:
        n = next((s for s in f.symbols if s != k), None)
    return k, n


def gosper_degree_bound(deg_p: int, q: MultiPoly, r: MultiPoly, k: str):
    """Largest admissible degree for the polynomial solution b(k) of
    q(k) b(k+1) - r(k-1) b(k) = p(k), or None when no degree works.

    Two standard cases; when both candidate formulas apply the maximum wins.
    """
    rm = r.shift(k, -1)
    A = q - rm
    B = q + rm
    degA = A.degree(k)
    degB = B.degree(k)
    if degA >= degB:
        K = deg_p - degA
        return K if K >= 0 else None
    m = degB
    candidates = [deg_p - m + 1]
    lcB = B.to_univar(k)[m]
    coefA = A.to_univar(k)[m - 1] if degA >= m - 1 and m >= 1 else None
    if coefA is not None and not coefA.is_zero():
        ratio = RationalFunction(coefA.scale(-2), lcB)
        if ratio.is_constant():
            c = _as_fraction(ratio.as_constant())
            if c.denominator == 1 and c >= 0:
                candidates.append(int(c))
    else:
        candidates.append(0)
    return max((c for c in candidates if c >= 0), default=None)


def assemble(f: TermExpression, J: int, k=None, n=None):
    """Build the telescoping linear system for order J; None if the degree
    bound rules the order out.  Order 0 does no shift in n, so it also takes
    a summand whose only symbol is k."""
    k, n = _default_vars(f, k, n)
    vars = f.symbols
    sigmas = [(Factored.one(vars), Factored.one(vars))]  # f(n,k)/f(n,k)
    for j in range(1, J + 1):
        const, affine, opaque = f.shift_ratio_parts(n, step=j)
        sigmas.append(from_ratio_parts(vars, const, affine, opaque).split())
    Q = factored_lcm([den for _, den in sigmas])
    u_facts = []
    for num, den in sigmas:
        u = num.copy().mul(factored_quotient(Q, den))
        u_facts.append(u)
    # H = f/Q has ratio rho_f * Q(k)/Q(k+1); Gosper-normalized it gives the
    # equation q(k) b(k+1) - r(k-1) b(k) = pbar(k) * sum_j a_j u_j(k)
    const, affine, opaque = f.shift_ratio_parts(k)
    rho = from_ratio_parts(vars, const, affine, opaque)
    rho_num, rho_den = rho.split()
    h_num = rho_num.copy().mul(Q)
    h_den = rho_den.copy().mul(Q.shift(k, 1))
    pbar_f, q_f, r_f = gosper_normal(h_num, h_den, k)
    pbar = pbar_f.expand()
    q_poly = q_f.expand()
    r_poly = r_f.expand()
    u_polys = [u.expand() * pbar for u in u_facts]
    deg_p = max(u.degree(k) for u in u_polys)
    K = gosper_degree_bound(deg_p, q_poly, r_poly, k)
    if K is None:
        return None
    kpoly = MultiPoly.variable(vars, k)
    rm = r_poly.shift(k, -1)
    cols = [-u for u in u_polys]
    for i in range(K + 1):
        ki = kpoly ** i
        cols.append(q_poly * ki.shift(k, 1) - rm * ki)
    matrix_vars = tuple(v for v in vars if v != k)
    maxdeg = max(c.degree(k) for c in cols)
    rows = []
    for d in range(maxdeg + 1):
        row = []
        for c in cols:
            cu = c.to_univar(k)
            entry = cu[d] if d < len(cu) else MultiPoly.zero(vars)
            row.append(entry.restrict(matrix_vars))
        if any(not e.is_zero() for e in row):
            den = common_denominator(row)
            rows.append([p.scale(den) for p in row] if den != 1 else row)
    labels = tuple([f"a{j}" for j in range(J + 1)] + [f"b{i}" for i in range(K + 1)])
    ansatz = TelescoperAnsatz(J, K, labels)
    avoid = _collect_avoid([Q, q_f, r_f, pbar_f, rho_den], k, matrix_vars)
    matrix = PolyMatrix(rows, avoid=avoid)
    return AssembledSystem(ansatz, matrix, k, n, vars, matrix_vars,
                           u_polys, pbar, q_poly, r_poly, Q)


def _collect_avoid(facts, k, matrix_vars):
    """Integer values of single variables at which a cleared factor collapses
    identically in k; grid construction steps over them."""
    avoid = {}
    for fct in facts:
        for p, e, is_aff, form in fct.factors():
            if is_aff:
                if form.var_coeff(k) != 0:
                    continue  # k-coefficient is a nonzero constant
                live = [s for s in form.coeffs if s != k]
                if len(live) != 1:
                    continue
                v = live[0]
                root = -_as_fraction(form.const) / _as_fraction(form.coeffs[v])
                if root.denominator == 1:
                    avoid.setdefault(v, set()).add(int(root))
            else:
                candidates = [p] if p.degree(k) == 0 else p.to_univar(k)[-1:]
                for g in candidates:
                    if g.is_constant():
                        continue
                    live = [v for v in matrix_vars if g.degree(v) > 0]
                    if len(live) != 1:
                        continue
                    try:
                        roots = integer_roots_in_var(g.restrict((live[0],)), live[0])
                    except (ArithmeticError, ValueError):
                        continue
                    for rt in roots:
                        avoid.setdefault(live[0], set()).add(rt)
    return avoid


def certificate_from_solution(sys: AssembledSystem, b_coeffs, extra_den=None):
    """R = b(k) * r(k-1) / (pbar(k) * Q(k)), the certificate G = R*f.

    Left unreduced: cancelling the fraction needs a multivariate gcd that can
    dwarf the whole proof, and verification never requires it.
    """
    vars = sys.vars
    kpoly = MultiPoly.variable(vars, sys.k)
    b_num = MultiPoly.zero(vars)
    for i, c in enumerate(b_coeffs):
        b_num = b_num + c.embed(vars) * (kpoly ** i)
    qnum, qden = sys.denominator.split()
    den = sys.pbar * qnum.expand()
    if extra_den is not None:
        den = den * extra_den.embed(vars)
    num = b_num * sys.r.shift(sys.k, -1) * qden.expand()
    small = num.total_degree() + den.total_degree() <= 24
    return Certificate(RationalFunction(num, den, reduce=small))


def creative_telescope(f: TermExpression, max_order: int = 6, k=None, n=None):
    """Smallest-order telescoper up to max_order, with its certificate, or
    None.  Orders are tried in turn; each candidate solution is re-verified
    exactly before being returned."""
    k, n = _default_vars(f, k, n)
    for J in range(max_order + 1):
        sys = assemble(f, J, k, n)
        if sys is None:
            continue
        basis = solve_nullspace(sys.matrix)
        best = None
        for vec in basis:
            a_part = vec[:J + 1]
            top = max((i for i, a in enumerate(a_part) if not a.is_zero()),
                      default=None)
            if top is None:
                continue
            key = (top, a_part[top].num.total_degree())
            if best is None or key < best[0]:
                best = (key, vec, top)
        if best is None:
            continue
        _, vec, top = best
        polys = [v.num for v in vec]  # denominators already cleared
        a_polys = polys[:top + 1]
        b_polys = polys[J + 1:]
        # joint normalization: divide the whole solution by the scale that
        # makes the a-part content-free, so (a, b) stay a matched pair;
        # sign fixed by the leading recurrence coefficient
        normed = clear_and_primitive(a_polys)
        if normed[top].leading_coeff() < 0:
            normed = [-p for p in normed]
        scale = next(RationalFunction(orig, new)
                     for orig, new in zip(a_polys, normed) if not orig.is_zero())
        rec = Recurrence(top, tuple(normed))
        b_scaled = [RationalFunction.from_poly(p) / scale for p in b_polys]
        den, b_nums = clear_denominators(sys.matrix_vars, b_scaled)
        cert = certificate_from_solution(sys, b_nums, extra_den=den)
        if not verify_certificate(f, rec, cert, k=k, n=n):
            raise RuntimeError("telescoper failed exact re-verification")
        return rec, cert
    return None


def verify_certificate(f: TermExpression, rec: Recurrence, cert: Certificate,
                       k=None, n=None) -> bool:
    """Exact check of sum_j a_j(n) sigma_j(n,k) = R(n,k+1) rho(n,k) - R(n,k),
    sigma_j = f(n+j,k)/f(n,k) and rho = f(n,k+1)/f(n,k), after clearing
    denominators.  False on any mismatch.

    Both sides are cleared over unreduced numerator/denominator pairs and
    compared by cross-multiplication, so no polynomial gcd is ever needed.
    """
    try:
        k, n = _default_vars(f, k, n)
        vars = f.symbols
        # lhs = (sum_j a_j u_j) / Q over the common factored denominator
        sigmas = []
        for j in range(rec.order + 1):
            const, affine, opaque = f.shift_ratio_parts(n, step=j)
            sigmas.append(from_ratio_parts(vars, const, affine, opaque).split())
        Q = factored_lcm([den for _, den in sigmas])
        lhs_num = MultiPoly.zero(vars)
        for a, (num, den) in zip(rec.coefficients, sigmas):
            u = num.copy().mul(factored_quotient(Q, den))
            lhs_num = lhs_num + a.embed(vars) * u.expand()
        lhs_den = Q.expand()
        const, affine, opaque = f.shift_ratio_parts(k)
        rho_num, rho_den = from_ratio_parts(vars, const, affine, opaque).split()
        pn = rho_num.expand()
        pd = rho_den.expand()
        R = cert.ratio if cert.ratio.vars == vars else cert.ratio.embed(vars)
        rn, rd = R.num, R.den
        rn1 = rn.shift(k, 1)
        rd1 = rd.shift(k, 1)
        # rhs = (rn1 pn rd - rn pd rd1) / (rd1 pd rd)
        rhs_num = rn1 * pn * rd - rn * pd * rd1
        rhs_den = rd1 * pd * rd
        return lhs_num * rhs_den == rhs_num * lhs_den
    except (TermError, ZeroDivisionError, ValueError):
        return False
