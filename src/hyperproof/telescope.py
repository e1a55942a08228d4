"""Creative telescoping: find polynomials a_0..a_J and a certificate G = R*F
with sum_j a_j(n) F(n+j,k) = G(n,k+1) - G(n,k), by assembling the linear
system from the expanded telescoping equation and solving (or, downstream,
testing) it.  Includes independent certificate verification.

`verify_certificate` decides exactly whether the certificate identity holds
with the one zero test of factored sums, factored.sum_vanishes, which also
decides the small cases of gridproof: for sigma_j = u_j/Q, rho = pn/pd and
R = N/D, the terms (sum_j a_j u_j)/Q, -N(k+1) pn/(pd D(k+1)) and N/D, each
times the lcm of their factored denominators, are expanded and summed.  A
certificate keeps its unreduced denominator D as a product
(Certificate.factored_den), so the lcm is read off the factors; any other D
is split by exact division over the factors of Q, the cofactor left one
opaque factor.  A check of the system's own order reads the factored shift
ratios u_j, Q and rho that `assemble` built (AssembledSystem.ratios), not
new ones: they are a deterministic function of the term and the order, and
the check builds everything else itself, the recurrence side, N, N(k+1),
D(k+1) and the three expansions over the lcm.

`assemble` is the one builder of the telescoping system.  It builds M', the
system M with each column divided by its k-free content c_j, which it reads
off the factored system; `AssembledSystem.lift` maps a kernel vector of M'
back to one of M.  `solve_order` turns the kernel of one system into an
unverified (recurrence, certificate); gridproof.prove walks the orders with
it and verifies what it publishes.  The order-0 system
q(k) b(k+1) - r(k-1) b(k) = a_0 pbar(k) is Gosper's equation, so Gosper's
algorithm is solve_order at order 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .factored import (
    Factored, factored_common, factored_free_of, factored_lcm,
    factored_quotient, from_ratio_parts, gosper_normal, sum_vanishes,
)
from .linalg import PolyMatrix, clear_and_primitive, solve_nullspace
from .polys import (
    MultiPoly, RationalFunction, _as_fraction, _poly_list_gcd,
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
    """R with G = R*F for the antidifference G of F.  factored_den, when R
    is left unreduced, is its denominator as a product, with
    factored_den.expand() == ratio.den; verify_certificate clears by it."""
    ratio: RationalFunction
    factored_den: Factored | None = field(default=None, compare=False)

    def __str__(self):
        return str(self.ratio)


@dataclass(frozen=True)
class TelescoperAnsatz:
    order: int          # J
    degree: int         # K, degree of the unknown polynomial b(k)


@dataclass
class AssembledSystem:
    """The telescoping system M' of one order: column j of the system M of
    the expanded equation, divided by its k-free content c_j = contents[j].
    Column scaling by nonzero polynomials keeps the rank over Q(n, params),
    and for a square system det M = det M' * prod_j c_j.  pbar and r, the
    Gosper normal form's parts that only a certificate reads, stay factored;
    certificate_from_solution expands them.  ratios is the
    _shift_ratios (us, Q, (pn, pd)) of the term at this order, unchanged,
    which verify_certificate can take instead of building them again."""
    ansatz: TelescoperAnsatz
    matrix: PolyMatrix          # M' over (rec var, params); k eliminated
    k: str
    n: str
    vars: tuple                 # full variable tuple of the term
    matrix_vars: tuple
    pbar: Factored
    r: Factored
    ratios: tuple               # (us, Q, (pn, pd)); Q(k) the common denominator
    contents: list              # Factored k-free divisor of each column

    def lift(self, vec):
        """The kernel vector of M, as polynomials over matrix_vars, that the
        polynomial kernel vector vec of M' gives: entry j times L / c_j, L the
        lcm of the contents."""
        L = factored_lcm(self.contents)
        return [v * factored_quotient(L, c).expand().restrict(
                    self.matrix_vars) for v, c in zip(vec, self.contents)]


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
        try:
            c = _as_fraction(coefA.scale(-2).divexact(lcB).as_constant())
        except ValueError:  # -2 coefA / lcB is not a constant
            pass
        else:
            if c.denominator == 1 and c >= 0:
                candidates.append(int(c))
    else:
        candidates.append(0)
    return max((c for c in candidates if c >= 0), default=None)


def _shift_ratios(f: TermExpression, J: int, k, n):
    """([u_0..u_J], Q, (rho_num, rho_den)): sigma_j = f(n+j,k)/f(n,k) =
    u_j/Q over their common denominator Q(k), and rho = f(n,k+1)/f(n,k)
    split, all factored.  sigma_0 = 1 is taken without a shift in n, so
    order 0 also takes a summand in k alone."""
    vars = f.symbols
    sigmas = [(Factored.one(vars), Factored.one(vars))]
    for j in range(1, J + 1):
        sigmas.append(
            from_ratio_parts(vars, *f.shift_ratio_parts(n, step=j)).split())
    Q = factored_lcm([den for _, den in sigmas])
    us = [num.copy().mul(factored_quotient(Q, den)) for num, den in sigmas]
    return us, Q, from_ratio_parts(vars, *f.shift_ratio_parts(k)).split()


def assemble(f: TermExpression, J: int, k=None, n=None):
    """Build the content-free telescoping system M' for order J; None if the
    degree bound rules the order out.  Order 0 does no shift in n, so it also
    takes a summand whose only symbol is k."""
    k, n = _default_vars(f, k, n)
    vars = f.symbols
    ratios = _shift_ratios(f, J, k, n)
    us, Q, (rho_num, rho_den) = ratios
    # H = f/Q has ratio rho_f * Q(k)/Q(k+1); Gosper-normalized it gives the
    # equation q(k) b(k+1) - r(k-1) b(k) = pbar(k) * sum_j a_j u_j(k)
    h_num = rho_num.copy().mul(Q)
    h_den = rho_den.copy().mul(Q.shift(k, 1))
    pbar_f, q_f, r_f = gosper_normal(h_num, h_den, k)
    # column a_j is -u_j pbar, built on copies, so that ratios stays the
    # _shift_ratios of (f, J) for verify_certificate; every b_i column is a
    # combination of q(k) and r(k-1), and a shift in k leaves their shared
    # k-free factors in place.
    # Dividing q and r by the same k-free factor changes neither their
    # k-degrees nor the ratio of their coefficients, so K stays the same.
    a_facts = [u.copy().mul(pbar_f) for u in us]
    contents = [factored_free_of(a, k) for a in a_facts]
    b_content = factored_free_of(factored_common(q_f, r_f), k)
    cols = [-factored_quotient(a, c).expand() for a, c in zip(a_facts, contents)]
    q_poly = factored_quotient(q_f, b_content).expand()
    r_poly = factored_quotient(r_f, b_content).expand()
    K = gosper_degree_bound(max(c.degree(k) for c in cols), q_poly, r_poly, k)
    if K is None:
        return None
    contents += [b_content] * (K + 1)
    # column b_i is P_i - M_i, P_i = q(k) (k+1)^i and M_i = r(k-1) k^i, so
    # P_(i+1) = P_i + P_i k and M_(i+1) = M_i k: shifts of exponents in k
    ki = vars.index(k)

    def times_k(p):
        return MultiPoly(vars, {e[:ki] + (e[ki] + 1,) + e[ki + 1:]: c
                                for e, c in p.terms.items()})

    P, M = q_poly, r_poly.shift(k, -1)
    cols.append(P - M)
    for _ in range(K):
        P, M = P + times_k(P), times_k(M)
        cols.append(P - M)
    matrix_vars = tuple(v for v in vars if v != k)
    ansatz = TelescoperAnsatz(J, K)
    matrix = PolyMatrix(_split_rows(cols, ki, matrix_vars))
    return AssembledSystem(ansatz, matrix, k, n, vars, matrix_vars,
                           pbar_f, r_f, ratios, contents)


def _split_rows(cols, ki, matrix_vars):
    """Rows of the system whose columns are the polynomials cols: row d holds
    the coefficients of k^d (k the variable at index ki) over matrix_vars,
    the variables without k in the same order, scaled by the row's common
    denominator.  Each column's terms are walked once; zero rows are left
    out."""
    by_row = {}
    for j, c in enumerate(cols):
        for e, v in c.terms.items():
            row = by_row.get(e[ki])
            if row is None:
                row = by_row[e[ki]] = [{} for _ in cols]
            row[j][e[:ki] + e[ki + 1:]] = v
    rows = []
    for d in sorted(by_row):
        row = [MultiPoly(matrix_vars, t) for t in by_row[d]]
        den = common_denominator(row)
        rows.append([p.scale(den) for p in row] if den != 1 else row)
    return rows


def certificate_from_solution(sys: AssembledSystem, b_coeffs, extra_den=None):
    """R = b(k) * r(k-1) / (pbar(k) * Q(k)), the certificate G = R*f.

    Reduced at order 0, where it is published as the Gosper/WZ certificate,
    and when it is small.  Otherwise left unreduced: cancelling the fraction
    needs a multivariate gcd that can dwarf the whole proof, and verification
    never requires it.  An unreduced certificate keeps its denominator, the
    numerator of Q times pbar(k) times extra_den, as a product
    (Certificate.factored_den), which verify_certificate clears by.
    """
    vars = sys.vars
    kpoly = MultiPoly.variable(vars, sys.k)
    b_num = MultiPoly.zero(vars)
    for i, c in enumerate(b_coeffs):
        b_num = b_num + c.embed(vars) * (kpoly ** i)
    qnum, qden = sys.ratios[1].split()
    D = qnum.mul(sys.pbar)
    if extra_den is not None:
        D.mul_poly(extra_den.embed(vars), 1)
    den = D.expand()
    num = b_num * qden.mul(sys.r.shift(sys.k, -1)).expand()
    reduced = (sys.ansatz.order == 0
               or num.total_degree() + den.total_degree() <= 24)
    ratio = RationalFunction(num, den, reduce=reduced)
    if reduced or num.is_zero():
        return Certificate(ratio)
    # the unreduced ratio divides num and den by the leading coefficient
    return Certificate(ratio, D.mul_const(den.leading_coeff(), -1))


def solve_order(sys: AssembledSystem):
    """(recurrence, certificate) from the kernel of one assembled system, or
    None when no kernel vector has an a_j != 0.  Of the kernel vectors, the
    one with the lowest top order, then the lowest degree of that
    coefficient, wins.  The pair is not verified.  The recurrence is made
    primitive, so at order 0 it is [1]."""
    J = sys.ansatz.order
    best = None
    for vec in solve_nullspace(sys.matrix):
        polys = sys.lift(vec)
        top = max((i for i in range(J + 1) if not polys[i].is_zero()),
                  default=None)
        if top is None:
            continue
        key = (top, polys[top].total_degree())
        if best is None or key < best[0]:
            best = (key, polys, top)
    if best is None:
        return None
    _, polys, top = best
    a_polys = polys[:top + 1]
    b_polys = polys[J + 1:]
    # joint normalization: divide the whole solution by the scale that
    # makes the a-part content-free, so (a, b) stay a matched pair;
    # sign fixed by the leading recurrence coefficient
    normed = clear_and_primitive(a_polys)
    if normed[top].leading_coeff() < 0:
        normed = [-p for p in normed]
    # b / scale over the monic lcm den of its reduced denominators, which is
    # scale over its gcd h with every b_i
    scale = next(orig.divexact(new)
                 for orig, new in zip(a_polys, normed) if not orig.is_zero())
    h = _poly_list_gcd([scale, *b_polys])
    den = scale.divexact(h).monic()
    b_nums = [(p * den).divexact(scale) for p in b_polys]
    return (Recurrence(top, tuple(normed)),
            certificate_from_solution(sys, b_nums, extra_den=den))


def verify_certificate(f: TermExpression, rec: Recurrence, cert: Certificate,
                       k=None, n=None, ratios=None) -> bool:
    """Exact check of sum_j a_j(n) sigma_j(n,k) = R(n,k+1) rho(n,k) - R(n,k),
    sigma_j = f(n+j,k)/f(n,k) and rho = f(n,k+1)/f(n,k).  False on any
    mismatch.  ratios, when given, is _shift_ratios(f, rec.order, k, n) as
    assemble built it for the same term and order (AssembledSystem.ratios),
    and is read, not built again; it is a deterministic function of the
    term and the order, so the check loses no independence.

    With sigma_j = u_j/Q, rho = pn/pd and R = N/D, all over factored
    denominators (D from cert.factored_den, else R.den split by
    _factor_over), the check is whether the three factored terms
    (sum_j a_j u_j)/Q, -N(k+1) pn/(pd D(k+1)) and N/D sum to zero, decided
    by factored.sum_vanishes: each term times the factored lcm of the
    denominators is expanded once and the three polynomials are summed, so
    no polynomial gcd is needed.  The recurrence side is summed into one
    polynomial first; N, the primitive part of R's numerator with its
    content in the constant, is shifted on integer coefficients.
    """
    try:
        k, n = _default_vars(f, k, n)
        vars = f.symbols
        us, Q, (pn, pd) = ratios or _shift_ratios(f, rec.order, k, n)
        R = cert.ratio if cert.ratio.vars == vars else cert.ratio.embed(vars)
        D = cert.factored_den
        if D is None or D.vars != vars:
            D = _factor_over(R.den, Q)
        lhs = MultiPoly.zero(vars)
        for a, u in zip(rec.coefficients, us):
            lhs = lhs + a.embed(vars) * u.expand()
        N = Factored.one(vars).mul_poly(R.num, 1)
        return sum_vanishes(
            [Factored.one(vars).mul_poly(lhs, 1).mul(Q, -1),
             N.copy().mul(D, -1)],
            [N.shift(k, 1).mul(pn).mul(pd, -1).mul(D.shift(k, 1), -1)])
    except (TermError, ZeroDivisionError, ValueError):
        return False


def _factor_over(p, F):
    """p as a Factored: every factor of F, as often as it divides p exactly,
    and the cofactor left as one opaque factor.  Over Q this finds what a
    certificate's denominator shares with Q, which the lcm of
    factored.sum_vanishes then clears once."""
    out = Factored.one(p.vars)
    for g in F.factors():
        while not p.is_constant():
            try:
                p = p.divexact(g)
            except ValueError:
                break
            out.mul_poly(g, 1)
    return out.mul_poly(p, 1)
