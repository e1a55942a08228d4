"""Reference implementations the tests compare the program against."""

import re
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm, prod

from hyperproof.factored import (
    _next_prime, factored_lcm, factored_quotient,
)
from hyperproof.linalg import (
    PolyMatrix, _GridEvaluator, _cofactor_vector, _integer_cleared,
    _interpolate_int, _max_assignment, _pivot_rows,
    clear_and_primitive, solve_nullspace,
)
from hyperproof.polys import (
    MultiPoly, _as_fraction, _cleared, _poly_list_gcd, common_denominator,
    poly_gcd,
)
from hyperproof.gridproof import _window
from hyperproof.telescope import Certificate, Recurrence
from hyperproof.terms import (
    EvalError, LinearForm, _ZeroTerm, _special_factors,
)


class Quotient:
    """A quotient of polynomials kept reduced, with a monic denominator, by
    one poly_gcd after every operation: the reference arithmetic of the
    nullspace and value oracles, built on MultiPoly alone and so
    independent of factored.Factored, the program's rational type."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly = None):
        if den is None:
            den = MultiPoly.constant(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MultiPoly.constant(num.vars, 1)
        else:
            g = poly_gcd(num, den)
            num, den = num.divexact(g), den.divexact(g)
        lc = den.leading_coeff()
        self.num, self.den = num.scale(Fraction(1) / lc), den.monic()

    @classmethod
    def constant(cls, vars, c):
        return cls(MultiPoly.constant(vars, c))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def as_constant(self):
        return Fraction(self.num.as_constant()) / self.den.as_constant()

    def __eq__(self, other):
        if not isinstance(other, Quotient):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __add__(self, other):
        return Quotient(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __neg__(self):
        return Quotient(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Quotient(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return Quotient(self.num * other.den, self.den * other.num)


def poly_lcm(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic lcm of two polynomials, zero if either is."""
    if p.is_zero() or q.is_zero():
        return MultiPoly.zero(p.vars)
    return (p * q).divexact(poly_gcd(p, q)).monic()


def _primitive_reference(coeffs):
    g = gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _dense_prem_reference(u, v):
    """Remainder of u by v, up to a nonzero integer factor; dense integer
    coefficient lists, lowest degree first, no trailing zeros."""
    n = len(v) - 1
    lead = v[n]
    r = list(u)
    while len(r) > n:
        top = r.pop()
        if top:
            g = gcd(top, lead)
            s, t = lead // g, top // g
            if s != 1:
                r = [c * s for c in r]
            base = len(r) - n
            for j in range(n):
                r[base + j] -= t * v[j]
    while r and not r[-1]:
        r.pop()
    return r


def _prem_reference(u, v):
    """Pseudo-remainder of dense lists u, v of MultiPoly coefficients, as
    from to_univar."""
    m, n = len(u) - 1, len(v) - 1
    lead = v[n]
    r = list(u)
    for i in range(m - n, -1, -1):
        top = r[n + i]
        if top.is_zero():
            continue
        r = [c * lead for c in r]
        for j in range(n + 1):
            r[i + j] = r[i + j] - top * v[j]
    while r and r[-1].is_zero():
        r.pop()
    return r


def _list_gcd_reference(polys):
    g = None
    for p in polys:
        if not p.is_zero():
            g = p if g is None else prs_gcd_reference(g, p)
    return g


def prs_gcd_reference(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Monic gcd by primitive pseudo-remainder sequences, with no GCDHEU
    (Knuth, TAOCP 2, 4.6.1).  When one variable occurs, the sequence runs
    on dense integer coefficient lists.  Otherwise the contents in the first
    variable that occurs are split off, their gcd is taken the same way,
    and the sequence runs on the primitive parts.  Slow on large inputs:
    the reference for the gcd, not a fallback."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant():
        return MultiPoly.constant(p.vars, 1)
    occurring = {i for e in (*p.terms, *q.terms) for i, x in enumerate(e) if x}
    if len(occurring) == 1:
        i = occurring.pop()
        a, b = ([0] * (max(e[i] for e in m.terms) + 1) for m in (p, q))
        for dense, m in ((a, p), (b, q)):
            for e, c in _cleared(m)[1]:
                dense[e[i]] = c
        a, b = _primitive_reference(a), _primitive_reference(b)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _primitive_reference(_dense_prem_reference(a, b))
        zero = (0,) * len(p.vars)
        return MultiPoly.from_terms(p.vars, [
            (zero[:i] + (d,) + zero[i + 1:], Fraction(c, a[-1]))
            for d, c in enumerate(a)])
    var = next(v for v in p.vars if p.degree(v) > 0 or q.degree(v) > 0)
    pu, qu = p.to_univar(var), q.to_univar(var)
    if len(pu) == 1 or len(qu) == 1:
        # one operand free of var: the gcd divides its coefficient content
        return _list_gcd_reference(pu + qu).monic()
    cont_p, cont_q = _list_gcd_reference(pu), _list_gcd_reference(qu)
    pp = [c.divexact(cont_p) for c in pu]
    qp = [c.divexact(cont_q) for c in qu]
    a, b = (pp, qp) if len(pp) >= len(qp) else (qp, pp)
    while b:
        r = _prem_reference(a, b)
        if r:
            rc = _list_gcd_reference(r)
            r = [c.divexact(rc) for c in r]
        a, b = b, r
    cont_a = _list_gcd_reference(a)
    i = p.vars.index(var)
    g = MultiPoly(p.vars, {e[:i] + (e[i] + d,) + e[i + 1:]: c
                           for d, coeff in enumerate(a)
                           for e, c in coeff.divexact(cont_a).terms.items()})
    return (g * prs_gcd_reference(cont_p, cont_q)).monic()


def clear_denominators(vars, rfs):
    """(den, nums): den the monic lcm of the denominators of the Quotients
    rfs over vars, and nums the polynomials den * r."""
    den = MultiPoly.constant(vars, 1)
    for r in rfs:
        if not r.is_zero():
            den = poly_lcm(den, r.den)
    return den, [r.num * den.divexact(r.den) if not r.is_zero()
                 else MultiPoly.zero(vars) for r in rfs]


def poly_matrix(vars, rows) -> PolyMatrix:
    """A PolyMatrix over vars from nested lists of polynomials and numbers."""
    return PolyMatrix([[e if isinstance(e, MultiPoly)
                        else MultiPoly.constant(tuple(vars), e) for e in row]
                       for row in rows])


def det_symbolic(m: PolyMatrix) -> MultiPoly:
    """Symbolic determinant by cofactor expansion (small matrices only)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows

    def rec(rows, cols):
        if len(cols) == 1:
            return m.entries[rows[0]][cols[0]]
        total = MultiPoly.zero(m.vars)
        r = rows[0]
        for idx, c in enumerate(cols):
            sub = rec(rows[1:], cols[:idx] + cols[idx + 1:])
            term = m.entries[r][c] * sub
            total = total + term if idx % 2 == 0 else total - term
        return total

    return rec(tuple(range(n)), tuple(range(n)))


def nullspace_rational(m: PolyMatrix) -> list:
    """Right nullspace basis, as lists of polynomials, the way
    solve_nullspace once computed it, in Quotient arithmetic:
    Gaussian elimination with the same pivot rule (first nonzero entry at
    or below the current row), then, per free
    column, back-substitution from that coordinate set to 1 and the other
    free ones to 0; each vector has its denominators cleared and is made
    primitive with its first nonzero coordinate positive."""
    rows = [[Quotient(e) for e in row] for row in m.entries]
    pivots = []  # (row, column)
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if not rows[i][c].is_zero()),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m.rows):
            if not rows[i][c].is_zero():
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
    zero = Quotient.constant(m.vars, 0)
    basis = []
    for free in range(m.cols):
        if any(c == free for _, c in pivots):
            continue
        vec = [zero] * m.cols
        vec[free] = Quotient.constant(m.vars, 1)
        for pr, pc in reversed(pivots):
            s = zero
            for j in range(pc + 1, m.cols):
                if not vec[j].is_zero() and not rows[pr][j].is_zero():
                    s = s + rows[pr][j] * vec[j]
            vec[pc] = -(s / rows[pr][pc])
        _, polys = clear_denominators(m.vars, vec)
        basis.append(clear_and_primitive_reference(polys))
    return basis


def nullspace_univar_reference(m: PolyMatrix):
    """linalg._nullspace_univar the way it once was: pivot rows in file
    order, a full fraction-free elimination per node (_cofactor_vector),
    interpolation to Fractions, and the content and re-verification in
    MultiPoly arithmetic."""
    var = m.vars[0]
    cleared = _integer_cleared(m)
    best_pivots = []
    probes = _GridEvaluator(cleared, {var: [101, 137, 211]})
    for _, _, a in probes.matrices(range(3)):
        pivots = _pivot_rows(a)
        if len(pivots) > len(best_pivots):
            best_pivots = pivots
        if len(best_pivots) == m.cols:
            return []
    if len(best_pivots) < m.cols - 1:
        return None
    sub = PolyMatrix([cleared.entries[i] for i in best_pivots])
    bound = _max_assignment([[e.degree(var) for e in col]
                             for col in zip(*sub.entries)])
    nodes = list(range((bound or 0) + 1))
    cofactors = [_cofactor_vector(a) for _, _, a in
                 _GridEvaluator(sub, {var: nodes}).matrices(nodes)]
    vec = [MultiPoly.from_terms(m.vars, [((d,), c) for d, c in
                                         enumerate(_interpolate_int(values))
                                         if c])
           for values in zip(*cofactors)]
    if all(p.is_zero() for p in vec):
        return None
    vec = clear_and_primitive(vec)
    for row in m.entries:
        s = MultiPoly.zero(m.vars)
        for e, p in zip(row, vec):
            s = s + e * p
        if not s.is_zero():
            return None
    return [vec]


def clear_and_primitive_reference(polys):
    """linalg.clear_and_primitive the way it once was: the common polynomial
    factor divided out as the monic gcd, then the rational content, with the
    first nonzero polynomial positively led."""
    content = _poly_list_gcd(polys)
    if content is None:
        return list(polys)
    if not content.is_constant():
        polys = [p.divexact(content) if not p.is_zero() else p for p in polys]
    num = 0
    den = 1
    for p in polys:
        c = p.content()
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    scale = Fraction(num, den)
    first = next(p for p in polys if not p.is_zero())
    if first.leading_coeff() < 0:
        scale = -scale
    return [p.scale(1 / scale) for p in polys]


def pow_reference(p: MultiPoly, n: int) -> MultiPoly:
    """p^n by square-and-multiply over MultiPoly products, the way
    MultiPoly.__pow__ once computed it."""
    if n < 0:
        raise ValueError("negative power")
    result = MultiPoly.constant(p.vars, 1)
    base = p
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _entries(f):
    """(is_affine, factor, exponent) of every stored factor of the Factored
    f, in storage order."""
    return [(fid[0] == "aff", g, e) for fid, (g, e) in f.facs.items()]


def _mul_factor(out, affine, g, e):
    """out times g^e through mul_affine or mul_poly, which normalize g."""
    return out.mul_affine(g, e) if affine else out.mul_poly(g, e)


def expand_reference(f) -> MultiPoly:
    """A factored.Factored product multiplied out one factor at a time, each
    a pow_reference, the way Factored.expand once did."""
    out = MultiPoly.constant(f.vars, f.const)
    for affine, g, e in _entries(f):
        if e < 0:
            raise ValueError("cannot expand negative exponents")
        out = out * pow_reference(g.to_poly(f.vars) if affine else g, e)
    return out


def factored_mul_reference(f, g):
    """f * g as Factored.mul once computed it: every factor of g through
    mul_affine or mul_poly, which normalize it again."""
    out = f.copy().mul_const(g.const)
    for affine, h, e in _entries(g):
        _mul_factor(out, affine, h, e)
    return out


def factored_split_reference(f):
    """(numerator, denominator) of f as Factored.split once computed them:
    every factor through mul_affine or mul_poly on its side, which
    normalize it again."""
    num, den = type(f)(f.vars, f.const), type(f)(f.vars)
    for affine, g, e in _entries(f):
        _mul_factor(num if e > 0 else den, affine, g, abs(e))
    return num, den


def factored_value_reference(f, point):
    """The Fraction value of the Factored f at point, factor by factor."""
    value = Fraction(f.const)
    for affine, g, e in _entries(f):
        value *= Fraction(g.at(point) if affine else g.eval(point)) ** e
    return value


def factored_shift_reference(f, var, delta):
    """f with var replaced by var + delta as Factored.shift once computed
    it: every shifted factor through mul_affine or mul_poly."""
    out = type(f)(f.vars, f.const)
    for affine, g, e in _entries(f):
        _mul_factor(out, affine, g.shift(var, delta), e)
    return out


def rows_by_to_univar(cols, k, matrix_vars) -> list:
    """The rows of the telescoping system with columns cols, split the way
    assemble once did: row d takes to_univar(k)[d] of every column, restricted
    to matrix_vars and scaled by the row's common denominator; zero rows are
    left out."""
    vars = cols[0].vars
    rows = []
    for d in range(max(c.degree(k) for c in cols) + 1):
        row = []
        for c in cols:
            cu = c.to_univar(k)
            entry = cu[d] if d < len(cu) else MultiPoly.zero(vars)
            row.append(entry.restrict(matrix_vars))
        if any(not e.is_zero() for e in row):
            den = common_denominator(row)
            rows.append([p.scale(den) for p in row] if den != 1 else row)
    return rows


def unpack_reference(key, radices):
    """Exponent tuple of a packed key, one digit at a time; digit i has
    radix radices[i], the first digit is the least significant."""
    exp = []
    for r in radices:
        key, d = divmod(key, r)
        exp.append(d)
    return tuple(exp)


def annihilates_reference(m: PolyMatrix, vec) -> bool:
    """Whether m times the polynomial vector vec is zero: each row's sum as
    a dense convolution of integer lists after Kronecker substitution, with
    sizes past every exponent of the sum, so that no two of its terms
    meet."""
    sizes = [max(e.degree(v) for row in m.entries for e in row)
             + max(p.degree(v) for p in vec) + 1 for v in m.vars]
    radices = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    def kronecker(p):  # the ascending coefficients of p(y^radices)
        index = [sum(x * r for x, r in zip(exp, radices)) for exp in p.terms]
        out = [0] * (max(index, default=-1) + 1)
        for t, c in zip(index, p.terms.values()):
            out[t] += c
        return out

    vec = [kronecker(p) for p in vec]
    for row in m.entries:
        acc = [0] * prod(sizes)
        for e, p in zip(row, vec):
            for exp, c in e.terms.items():
                start = sum(x * r for x, r in zip(exp, radices))
                for t, x in enumerate(p, start):
                    acc[t] += c * x
        if any(acc):
            return False
    return True


def solve_order_reference(sys):
    """telescope.solve_order on an assembled system, with the tail it had
    before one-pass lifting: every column's L / c_j expanded on its own,
    b_i = b_i' den / scale as a product divided back, and b(k) summed from
    powers of k."""
    J, vars = sys.ansatz.order, sys.vars
    L = factored_lcm(sys.contents)
    best = None
    for vec in solve_nullspace(sys.matrix):
        polys = [v * factored_quotient(L, c).expand().restrict(
            sys.matrix_vars) for v, c in zip(vec, sys.contents)]
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
    normed = clear_and_primitive(a_polys)
    if normed[top].leading_coeff() < 0:
        normed = [-p for p in normed]
    scale = next(orig.divexact(new)
                 for orig, new in zip(a_polys, normed) if not orig.is_zero())
    den = scale.divexact(_poly_list_gcd([scale, *b_polys])).monic()
    kpoly = MultiPoly.variable(vars, sys.k)
    b_num = MultiPoly.zero(vars)
    for i, p in enumerate(b_polys):
        b_num = b_num + (p * den).divexact(scale).embed(vars) * kpoly ** i
    qnum, qden = sys.Q.split()
    D = qnum.mul(sys.pbar).mul_poly(den.embed(vars), 1)
    return Recurrence(top, tuple(normed)), Certificate(
        b_num * qden.mul(sys.r.shift(sys.k, -1)).expand(), D)


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    if n > 10 ** 12:
        raise ArithmeticError("constant term too large for divisor enumeration")
    small = []
    big = []
    d = 1
    while d <= isqrt(n):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                big.append(n // d)
        d += 1
    return small + big[::-1]


def _roots_mod_p(ints, p):
    cs = [c % p for c in ints]
    if not any(cs):
        return None  # polynomial vanishes mod p; prime gives no information
    roots = []
    for t in range(p):
        total = 0
        for c in reversed(cs):
            total = (total * t + c) % p
        if total == 0:
            roots.append(t)
    return roots


def _integer_roots_modular(ints, val):
    """Integer root search via roots modulo enough primes: every integer
    root is bounded by the Lagrange bound B and determined by its residues
    modulo primes with product > 2B; candidate residues are CRT-combined
    and verified exactly.  ArithmeticError when the combinations pass
    200000."""
    lead = abs(ints[-1])
    B = 1 + max(abs(c) for c in ints) // lead
    need = 2 * B + 1
    primes = []
    residues = []  # list of root lists per prime
    modulus = 1
    start = 10007
    while modulus <= need:
        p = _next_prime(start)
        start = p + 2
        rs = _roots_mod_p(ints, p)
        if rs is None:
            continue  # cannot happen for content-free input, kept for safety
        if not rs:
            return []  # no roots mod p: no integer roots at all
        primes.append(p)
        residues.append(rs)
        modulus *= p
        combos = 1
        for r_ in residues:
            combos *= len(r_)
        if combos > 200000:
            raise ArithmeticError("too many modular root candidates")
    cands = [0]
    m = 1
    for p, rs in zip(primes, residues):
        new = []
        inv = pow(m % p, -1, p)
        for c in cands:
            for r in rs:
                t = ((r - c) * inv) % p
                new.append(c + m * t)
        cands = new
        m *= p
    roots = []
    for c in cands:
        r = c if c <= m // 2 else c - m
        if abs(r) <= B and val(r) == 0:
            roots.append(r)
    return roots


def integer_roots_reference(coeffs) -> list:
    """Integer roots of a univariate polynomial given by Fraction/int coeffs
    (ascending), the way factored.integer_roots_univar once found them:
    divisor enumeration of the trailing coefficient up to 10^12, a modular
    CRT search under the Lagrange root bound past it.  Either can give up
    with ArithmeticError."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("zero polynomial has every integer as a root")
    den = 1
    for c in coeffs:
        f = _as_fraction(c)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(_as_fraction(c) * den) for c in coeffs]
    roots = []
    shift = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        if shift == 0:
            roots.append(0)
        shift += 1
    if len(ints) <= 1:
        return sorted(set(roots))
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    ints = [c // content for c in ints]
    c0 = ints[0]

    def val(x):
        total = 0
        for c in reversed(ints):
            total = total * x + c
        return total

    if abs(c0) <= 10 ** 12:
        for d in _divisors(c0):
            for cand in (d, -d):
                if val(cand) == 0:
                    roots.append(cand)
    else:
        roots.extend(_integer_roots_modular(ints, val))
    return sorted(set(roots))


def shift_candidates_reference(fq, fr, k) -> list:
    """The generic shift candidates of a factor pair with at least one
    opaque factor, both factors involving k, the set factored._candidates
    must contain: the nonnegative integer roots in j of the resultant over
    all of the pair's variables and j, with no variable specialized.  An
    affine factor's root in k is substituted into the other factor; two
    opaque factors give the multivariate Sylvester determinant.  fq, fr are (poly, is_affine,
    form); an affine factor's poly is not read, and may be None."""
    pq, aq, Lq = fq
    pr, ar, Lr = fr
    assert not (aq and ar), "two affine factors have a closed form"
    jvars = (pr if aq else pq).vars + ("_j",)
    jpoly = MultiPoly.variable(jvars, "_j")
    if aq != ar:
        # one affine, one opaque: substitute the affine root into the other
        if aq:
            alpha = _as_fraction(Lq.var_coeff(k))
            beta = LinearForm({s: c for s, c in Lq.coeffs.items() if s != k},
                              Lq.const).to_poly(jvars)
            g = pr.embed(jvars)
            # root of fq: k* = -beta/alpha; need g(k* + j) == 0
            arg = jpoly.scale(alpha) - beta
        else:
            alpha = _as_fraction(Lr.var_coeff(k))
            beta = LinearForm({s: c for s, c in Lr.coeffs.items() if s != k},
                              Lr.const).to_poly(jvars)
            g = pq.embed(jvars)
            # root of fr(k+j): k* = -(beta + alpha*j)/alpha; need g(k*) == 0
            arg = -(beta + jpoly.scale(alpha))
        coeffs = g.to_univar(k)
        d = len(coeffs) - 1
        # h = alpha^d * g(arg/alpha) = sum_i g_i * arg^i * alpha^(d-i)
        h = MultiPoly.zero(jvars)
        argpow = MultiPoly.constant(jvars, 1)
        for i, c in enumerate(coeffs):
            h = h + c * argpow * MultiPoly.constant(jvars, alpha ** (d - i))
            if i < d:
                argpow = argpow * arg
    else:
        h = resultant_reference(pq.embed(jvars), pr.embed(jvars), k, "_j")
    assert not h.is_zero(), "degenerate shift structure"
    if h.degree("_j") <= 0:
        return []
    return [j for j in integer_roots_in_var_reference(h, "_j") if j >= 0]


def shifted_by(p: MultiPoly, k, j) -> MultiPoly:
    """p with k replaced by k + j, j another variable of p."""
    i = p.vars.index(k)
    kj = MultiPoly.variable(p.vars, k) + MultiPoly.variable(p.vars, j)
    out = MultiPoly.zero(p.vars)
    for exp, c in p.terms.items():
        rest = MultiPoly.from_terms(p.vars, [(exp[:i] + (0,) + exp[i + 1:], c)])
        out = out + rest * kj ** exp[i]
    return out


def sylvester_reference(f_coeffs, g_coeffs, vars) -> MultiPoly:
    """Resultant of two univariate polynomials with MultiPoly coefficients
    (ascending lists): Bareiss on their Sylvester matrix over vars."""
    m = len(f_coeffs) - 1
    n = len(g_coeffs) - 1
    size = m + n
    if size == 0:
        return MultiPoly.constant(vars, 1)
    zero = MultiPoly.zero(vars)
    rows = [[zero] * i + f_coeffs[::-1] + [zero] * (size - i - m - 1)
            for i in range(n)]
    rows += [[zero] * i + g_coeffs[::-1] + [zero] * (size - i - n - 1)
             for i in range(m)]
    return det_bareiss_reference(rows)


def det_bareiss_reference(a) -> MultiPoly:
    """Determinant of a square MultiPoly matrix (eliminated in place) by
    fraction-free (Bareiss) elimination, each division exact (divexact),
    the way linalg's elimination kernel once ran on polynomials."""
    n, sign, prev = len(a), 1, None
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return a[0][0] - a[0][0]
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = a[i][j] * a[c][c] - a[i][c] * a[c][j]
                a[i][j] = num if prev is None else num.divexact(prev)
        prev = a[c][c]
    return a[-1][-1] if sign > 0 else -a[-1][-1]


def resultant_reference(q: MultiPoly, r: MultiPoly, k, j) -> MultiPoly:
    """Res_k(q(k), r(k+j)) as a polynomial over q's variables, which hold
    k and j: the Sylvester determinant of the symbolic shift."""
    return sylvester_reference(q.to_univar(k), shifted_by(r, k, j).to_univar(k),
                               q.vars)


def resultant_in_j_reference(pq, pr, k, point) -> list:
    """Ascending coefficients in j of Res_k(pq(k, s), pr(k+j, s)) at the
    point s of the variables other than k, the way
    factored._resultant_in_j once found them: one Sylvester determinant
    over (k, _j)."""
    jvars = (k, "_j")
    h = resultant_reference(pq.eval_partial(point).restrict(jvars),
                            pr.eval_partial(point).restrict(jvars), k, "_j")
    return [h.terms.get((0, d), 0) for d in range(h.degree("_j") + 1)]


def integer_roots_in_var_reference(p: MultiPoly, var) -> list:
    """Integers v0 with p(var=v0) identically zero in the other variables,
    ascending: the integer_roots_reference roots of one slice, the
    coefficients in var of one monomial of p's leading coefficient (a root
    of p is a root of every slice), each checked on all of p."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    coeffs = p.to_univar(var)
    mono = min(coeffs[-1].terms)
    slice_ = [c.terms.get(mono, 0) for c in coeffs]
    return [v for v in integer_roots_reference(slice_)
            if p.eval_partial({var: v}).is_zero()]


def poly_key_reference(p: MultiPoly):
    """MultiPoly.key as it was built with every coefficient boxed as a
    Fraction."""
    return (p.vars, tuple(sorted((e, Fraction(c)) for e, c in p.terms.items())))


def sort_key_reference(L: LinearForm):
    """LinearForm.sort_key as it was built with every coefficient boxed as a
    Fraction."""
    return (tuple(sorted((s, Fraction(c)) for s, c in L.coeffs.items())),
            Fraction(L.const))


def constant_products_reference(f, point, zero_conventions=False) -> Fraction:
    """The value of a term whose factors are binomials and rising factorials,
    at a point that assigns every symbol, the way terms.evaluate once found
    it: one Fraction factor at a time, binomials first, then rising
    factorials, each in stored order."""
    value = Fraction(1)

    def mul_val(v, e):
        nonlocal value
        if v == 0 and e < 0:
            raise EvalError("division by a zero factor")
        value *= Fraction(v) ** e

    for u, l, e in f.binomials:
        x = u.eval(point)
        m = l.eval(point)
        if m < 0:
            if zero_conventions and e > 0:
                raise _ZeroTerm
            raise EvalError(f"negative binomial lower index {m}")
        for t in range(m):
            mul_val(x - t, e)
        mul_val(factorial(m), -e)
    for b, c, e in f.risings:
        x = b.eval(point)
        count = c.eval(point)
        if count < 0:
            raise EvalError(f"negative rising-factorial count {count}")
        for t in range(count):
            mul_val(x + t, e)
    return value * f.rational.const  # a term without a rational factor


def max_assignment_reference(degs):
    """linalg._max_assignment as a bitmask DP over column subsets, the way
    it was computed before the Hungarian method: one entry per column, all
    rows distinct, -1 forbidden, None when every assignment uses a
    forbidden entry; exponential in the number of columns."""
    nrows = len(degs)
    ncols = len(degs[0])
    if nrows < ncols:
        raise ValueError("need at least as many rows as columns")
    full = (1 << ncols) - 1
    # dp[mask] = best weight using some rows so far covering exactly `mask`
    dp = {0: 0}
    for i in range(nrows):
        ndp = dict(dp)  # skipping row i is allowed when rows > cols
        row = degs[i]
        for mask, w in dp.items():
            for j in range(ncols):
                if mask & (1 << j) or row[j] < 0:
                    continue
                nm = mask | (1 << j)
                nw = w + row[j]
                if ndp.get(nm, -1) < nw:
                    ndp[nm] = nw
        if nrows == ncols:
            # every row must be used: states must have popcount == i+1
            ndp = {mask: w for mask, w in ndp.items()
                   if bin(mask).count("1") == i + 1}
        dp = ndp
        if not dp:
            return None
    return dp.get(full)


def lane_reference(matrix, values, chain) -> int:
    """linalg._GridEvaluator's lane width B, bounded the way it once was:
    prod max|node|^e taken anew for every term of every entry, then grown
    along the pivot chain."""
    tops = [max(map(abs, values[v])) for v in matrix.vars]
    bound = [[sum(abs(c) * prod(map(pow, tops, exp))
                  for exp, c in entry.terms.items()) for entry in row]
             for row in matrix.entries]
    for i, j, targets, _ in chain.steps:
        c = matrix.entries[i][j].as_constant()
        for r in targets:
            f = bound[r][j]
            bound[r] = [abs(c) * a + f * b
                        for a, b in zip(bound[r], bound[i])]
    return max(map(max, bound)).bit_length() + 1


def evaluate_reference(f, point, zero_conventions=False):
    """The value of f at point, symbolic in the symbols point leaves, the
    way terms.evaluate found it before the small cases were summed over
    factored terms: the constant of the special factors
    (terms._special_factors) times their symbolic affine factors multiplied
    out into a MultiPoly numerator and denominator, times the rational part
    reduced first, a Quotient product of its stored factors, then through
    eval_partial and restrict, in Quotient arithmetic (a gcd per
    operation), an EvalError where that reduced denominator vanishes.  Also
    at a point that assigns every symbol; with zero_conventions, a zero
    convention raises _ZeroTerm."""
    remaining = tuple(s for s in f.symbols if s not in point)
    top, bottom, affine = _special_factors(f, point, zero_conventions)
    num = den = MultiPoly.constant(remaining, 1)
    for L, e in affine:
        for _ in range(abs(e)):
            if e > 0:
                num = num * L.to_poly(remaining)
            else:
                den = den * L.to_poly(remaining)
    reduced = Quotient.constant(f.symbols, f.rational.const)
    for affine, g, e in _entries(f.rational):
        g = Quotient(g.to_poly(f.symbols) if affine else g)
        for _ in range(abs(e)):
            reduced = reduced * g if e > 0 else reduced / g
    num_r, den_r = (p.eval_partial(point).restrict(remaining)
                    for p in (reduced.num, reduced.den))
    if den_r.is_zero():
        raise EvalError("denominator vanishes under the substitution")
    rf = Quotient(num_r, den_r)
    return Quotient(num.scale(Fraction(top, bottom)), den) * rf


def small_cases_reference(nid, term, rhs_terms, upto, point=None):
    """gridproof._small_cases the way it summed before the factored sums:
    for n = 0..upto, each window term (evaluate_reference with zero
    conventions, a zero term skipped) added and each right-side term
    subtracted in Quotient arithmetic, one difference per n."""
    for nv in range(upto + 1):
        at = {**(point or {}), nid.n: nv}
        lo, hi = _window(nid, term, nv, point)
        free = tuple(s for s in term.symbols if s != nid.k and s not in at)
        diff = Quotient.constant(free, 0)
        for kv in range(lo, hi + 1):
            try:
                diff = diff + evaluate_reference(term, {**at, nid.k: kv},
                                                 True)
            except _ZeroTerm:
                pass
        for t in rhs_terms:
            diff = diff - evaluate_reference(t, {**at, nid.k: 0})
        yield diff


def _binomial_reference(a, b):
    if b.denominator != 1:
        raise ValueError("binomial with a non-integer lower argument")
    if b < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(int(b)):
        out = out * (a - i) / (i + 1)
    return out


def _rf_reference(a, k):
    if k.denominator != 1 or k < 0:
        raise ValueError("rising factorial of a non-natural length")
    out = Fraction(1)
    for i in range(int(k)):
        out *= a + i
    return out


def _factorial_reference(a):
    if a.denominator != 1 or a < 0:
        raise ValueError("factorial of a non-natural number")
    return Fraction(factorial(int(a)))


def identity_sides_reference(ident, nv, params=None):
    """(the sum of the summand over its window, the right side) of an
    identity file at rec_var = nv and the parameter values params (a dict;
    none for an identity without parameters), in Fraction arithmetic
    straight from the file's text, or None where a term is undefined there
    (a zero denominator, a factorial of a negative number).

    The text is rewritten into a Python expression: postfix ! into a call,
    ^ into **, every integer literal into a Fraction; binomial(a, b) is
    a(a-1)...(a-b+1)/b! for natural b and 0 for negative b."""
    def python(text):
        while "!" in text:
            text = re.sub(r"(\w+|\([^()]*\))!", r"_fact(\1)", text)
        return re.sub(r"(?<![\w.])(\d+)", r"_q(\1)", text.replace("^", "**"))

    names = {"binomial": _binomial_reference, "rf": _rf_reference,
             "_fact": _factorial_reference, "_q": Fraction}

    def value(text, **point):
        return eval(python(text), {"__builtins__": {}, **names},
                    {ident.rec_var: Fraction(nv), **(params or {}), **point})

    try:
        lo, hi = value(ident.lower), value(ident.upper)
        total = sum((value(ident.summand, **{ident.sum_var: Fraction(kv)})
                     for kv in range(int(lo), int(hi) + 1)), Fraction(0))
        return total, value(ident.rhs)
    except (ZeroDivisionError, ValueError):
        return None
