"""Creative telescoping: find polynomials a_0..a_J and a certificate G = R*F
with sum_j a_j(n) F(n+j,k) = G(n,k+1) - G(n,k), by assembling the linear
system from the expanded telescoping equation and solving (or, downstream,
testing) it, and verify certificates independently.  Every shift quotient
is built once per proof, into a ShiftQuotients table.

`verify_certificate` decides exactly whether the certificate identity holds
with the one zero test of factored sums, factored.sum_vanishes, which also
decides the small cases of gridproof: for sigma_j = u_j/Q, rho = pn/pd and
R = N/D, the terms (sum_j a_j u_j)/Q, -N(k+1) pn/(pd D(k+1)) and N/D, each
times the lcm of their factored denominators, are expanded and summed.  A
certificate is a numerator polynomial N over a denominator D kept as a
product (Certificate), so the lcm is read off the factors; an opaque factor
of D that Q does not hold, such as a printed denominator that `hyperproof
verify` parses, is split by exact division over the factors of Q.  The one
gcd on a certificate is the one that prints it reduced
(printed_certificate).  The shift ratios a check reads are a deterministic
function of the term and the order; it builds everything else itself.

`assemble` builds M', the system M with each column divided by its k-free
content c_j, read off the factored system; `AssembledSystem.lift` maps a
kernel vector of M' back to one of M.  `solve_order` turns the kernel of
one system into an unverified (recurrence, certificate); gridproof.prove
walks the orders with it and verifies what it publishes.  The order-0
system q(k) b(k+1) - r(k-1) b(k) = a_0 pbar(k) is Gosper's equation, so
Gosper's algorithm is solve_order at order 0.
"""

from __future__ import annotations

from .factored import (
    Factored, factored_common, factored_free_of, factored_lcm,
    factored_quotient, factored_split_over, gosper_normal, sum_vanishes,
)
from .linalg import PolyMatrix, clear_and_primitive, solve_nullspace
from .polys import (
    FrozenRecord, MultiPoly, Record, _as_fraction, _poly_list_gcd,
    common_denominator, poly_gcd,
)
from .terms import TermExpression, TermError, shift_quotient


class Recurrence(FrozenRecord):
    """sum_j coefficients[j](n, params) * A(n+j) = 0, order = len-1."""
    _fields = ("order", "coefficients")  # coefficients over (rec var, params)

    def __str__(self):
        return ", ".join(str(c) for c in self.coefficients)


class Certificate(FrozenRecord):
    """R = num/den with G = R*F for the antidifference G of F: num a
    polynomial and den a product over the same variables, not necessarily
    coprime; verify_certificate clears by den's factors.  It prints as
    num/den with den expanded and both divided by den's leading
    coefficient."""
    _fields = ("num", "den")

    def __str__(self):
        den = self.den.expand()
        lc = den.leading_coeff()
        num, den = self.num._over(lc), den._over(lc)
        return str(num) if den.is_constant() else f"({num})/({den})"


def printed_certificate(cert: Certificate, order: int) -> Certificate:
    """cert as it is published: reduced at order 0, where it is the
    Gosper/WZ certificate, and when its total degree is at most 24, else as
    it is: cancelling needs a multivariate gcd that can dwarf the whole
    proof, and verification never requires it.  The gcd of num and den
    expanded is divided out of their integer-primitive parts, and den is
    left one factor."""
    num, den = cert.num, cert.den
    # the total degree of den is that of its factors, with no expansion
    degree = sum(p.total_degree() * e
                 for p, (_, e) in zip(den.factors(), den.facs.values()))
    if order and num.total_degree() + degree > 24:
        return cert
    (sn, pn), (sd, pd) = num.primitive(), den.expand().primitive()
    g = poly_gcd(pn, pd)
    if g.is_constant():
        return cert
    g = g.primitive()[1]
    return Certificate(pn.divexact(g).scale(sn), Factored(
        den.vars, sd).mul_poly(pd.divexact(g), 1))


class TelescoperAnsatz(FrozenRecord):
    _fields = ("order", "degree")  # J, and K the degree of b(k)


class AssembledSystem(Record):
    """The telescoping system M' of one order: column j of the system M of
    the expanded equation, divided by its k-free content c_j = contents[j].
    Column scaling by nonzero polynomials keeps the rank over Q(n, params),
    and for a square system det M = det M' * prod_j c_j.  pbar and r, the
    Gosper normal form's parts that only a certificate reads, stay factored,
    as does Q, the common denominator of the shift ratios sigma_j;
    certificate_from_solution expands them.  matrix is M' over matrix_vars,
    the rec var and params; vars is the term's full variable tuple."""
    _fields = ("ansatz", "matrix", "k", "n", "vars", "matrix_vars", "pbar",
               "r", "Q", "contents")

    def lift(self, vec):
        """The kernel vector of M, as polynomials over matrix_vars, that the
        polynomial kernel vector vec of M' gives: entry j times L / c_j, L the
        lcm of the contents, expanded once per distinct content."""
        L = factored_lcm(self.contents)
        over = {c: factored_quotient(L, c).expand().restrict(self.matrix_vars)
                for c in dict.fromkeys(self.contents)}
        return [v * over[c] for v, c in zip(vec, self.contents)]


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


class ShiftQuotients:
    """f(var+step)/f(var) for one term f, each built once and kept split;
    a read returns copies, since Factored is mutable.  known seeds some.
    gridproof.prove makes one table per term it proves."""

    def __init__(self, f: TermExpression, known=None):
        self.f, self.split = f, dict(known or {})

    def __call__(self, var, step=1):
        parts = self.split.get((var, step))
        if parts is None:
            parts = self.split[var, step] = shift_quotient(
                self.f, var, step).split()
        return parts[0].copy(), parts[1].copy()


def _shift_ratios(f: TermExpression, J: int, k, n, shifts=None):
    """([u_0..u_J], Q, (rho_num, rho_den)): sigma_j = f(n+j,k)/f(n,k) =
    u_j/Q over their common denominator Q(k), and rho = f(n,k+1)/f(n,k)
    split, all factored, read from the table shifts of f (a new one when
    None).  sigma_0 = 1 is taken without a shift in n, so
    order 0 also takes a summand in k alone."""
    shifts = shifts or ShiftQuotients(f)
    sigmas = [(Factored.one(f.symbols), Factored.one(f.symbols))] + [
        shifts(n, j) for j in range(1, J + 1)]
    Q = factored_lcm([den for _, den in sigmas])
    us = [num.mul(factored_quotient(Q, den)) for num, den in sigmas]
    return us, Q, shifts(k)


def assemble(f: TermExpression, J: int, k=None, n=None, shifts=None):
    """Build the content-free telescoping system M' for order J, from the
    table shifts of f; None if the degree bound rules the order out.
    Order 0 does no shift in n, so it also takes a summand whose only
    symbol is k."""
    k, n = _default_vars(f, k, n)
    vars = f.symbols
    us, Q, (rho_num, rho_den) = _shift_ratios(f, J, k, n, shifts)
    # H = f/Q has ratio rho_f * Q(k)/Q(k+1); Gosper-normalized it gives the
    # equation q(k) b(k+1) - r(k-1) b(k) = pbar(k) * sum_j a_j u_j(k)
    pbar_f, q_f, r_f = gosper_normal(rho_num.mul(Q),
                                     rho_den.mul(Q.shift(k, 1)), k)
    # column a_j is -u_j pbar; each b_i column combines q(k) and r(k-1),
    # whose shared k-free factors a shift in k leaves in place, and dividing
    # both by one changes neither their k-degrees nor the ratio of their
    # coefficients, so K stays the same.
    a_facts = [u.mul(pbar_f) for u in us]
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
                           pbar_f, r_f, Q, contents)


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


def certificate_from_solution(sys: AssembledSystem, b_coeffs, extra_den):
    """R = b(k) * r(k-1) / (pbar(k) * Q(k)), the certificate G = R*f.

    Its denominator, the numerator of Q times pbar(k) times extra_den, is a
    product, and the fraction is left unreduced (printed_certificate
    reduces what is published).  b_coeffs are over the variables but k.
    """
    vars, ki = sys.vars, sys.vars.index(sys.k)
    b_num = MultiPoly(vars, {e[:ki] + (i,) + e[ki:]: c
                             for i, p in enumerate(b_coeffs)
                             for e, c in p.terms.items()})
    D = sys.Q.copy().mul(sys.pbar).mul_poly(extra_den.embed(vars), 1)
    return Certificate(b_num * sys.r.shift(sys.k, -1).expand(), D)


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
    a_polys, b_polys = polys[:top + 1], polys[J + 1:]
    # joint normalization: divide the whole solution by the scale that
    # makes the a-part content-free, so (a, b) stay a matched pair;
    # sign fixed by the leading recurrence coefficient
    normed = clear_and_primitive(a_polys)
    if normed[top].leading_coeff() < 0:
        normed = [-p for p in normed]
    # b / scale over den, the monic lcm of its reduced denominators: with h
    # the gcd of scale and every b_i, den = (scale/h)/lc, so b_i den/scale
    # is b_i/(h lc)
    scale = next(orig.divexact(new)
                 for orig, new in zip(a_polys, normed) if not orig.is_zero())
    h = _poly_list_gcd([scale, *b_polys])
    den = scale.divexact(h)
    h, den = h.scale(den.leading_coeff()), den.monic()
    b_nums = [p.divexact(h) for p in b_polys]
    return (Recurrence(top, tuple(normed)),
            certificate_from_solution(sys, b_nums, den))


def verify_certificate(f: TermExpression, rec: Recurrence, cert: Certificate,
                       k=None, n=None, ratios=None) -> bool:
    """Exact check of sum_j a_j(n) sigma_j(n,k) = R(n,k+1) rho(n,k) - R(n,k),
    sigma_j = f(n+j,k)/f(n,k) and rho = f(n,k+1)/f(n,k), as the module
    docstring sums it.  False on any mismatch.  ratios, when given, is
    _shift_ratios(f, rec.order, k, n), read from the proof's table.  A
    certificate over other variables than f's is read over f's."""
    try:
        k, n = _default_vars(f, k, n)
        vars = f.symbols
        us, Q, (pn, pd) = ratios or _shift_ratios(f, rec.order, k, n)
        num, den = cert.num, cert.den
        if num.vars != vars or den.vars != vars:  # read over f's symbols
            num, den = num.embed(vars), Factored.one(vars).mul_poly(
                den.expand().embed(vars), 1)
        D = factored_split_over(den, Q)
        lhs = MultiPoly.zero(vars)
        for a, u in zip(rec.coefficients, us):
            lhs = lhs + a.embed(vars) * u.expand()
        N = Factored.one(vars).mul_poly(num, 1)
        return sum_vanishes(
            [Factored.one(vars).mul_poly(lhs, 1).mul(Q, -1),
             N.copy().mul(D, -1)],
            [N.shift(k, 1).mul(pn).mul(pd, -1).mul(D.shift(k, 1), -1)])
    except (TermError, ZeroDivisionError, ValueError):
        return False

