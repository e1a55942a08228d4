"""Products of affine and opaque polynomial factors, kept unexpanded: the
program's one rational-function type.

Shift quotients of hypergeometric terms are products of affine forms (plus
numerators/denominators of rational factors).  Keeping the factorization
makes shift-gcd structure (dispersions) cheap to read off, which is what the
Gosper normal form needs.  Both kinds share one table, keyed by a factor id
that names the kind (Factored).  A product or quotient cancels factors by
their ids, never by a gcd.  Expansion happens only at the end, and only
of the products that are read: `Factored.expand` multiplies every factor
into one accumulator keyed by packed exponents (`polys._product`).  Two
affine factors are compared by their normalized forms, with no polynomial
built.  `factored_sum` adds values over the lcm of their denominators, with
no gcd: the parser's sums, rho_n - 1 of the WZ normalization, and
`sum_vanishes`, the one exact zero test of a sum of factored terms, for the
small cases of gridproof and for telescope.verify_certificate.

Each factor pair keeps its own candidate shifts j, and the normal form tests
a pair only there, or at every shift when both factors have a nonconstant
k-content (a k-free factor, which a resultant in k cannot see).  Two affine
factors have one candidate in closed form.  For the other pairs, every
factor is specialized once, at one integer point s of the other variables
where every leading coefficient in k is nonzero, and a pair's candidates
are the integer differences beta - alpha >= 0 of a root alpha of its q
factor and a root beta of its r factor there: the nonnegative integer roots
of Res_k(fq(k, s), fr(k+j, s)), among which is every generic shift (Abramov
1971; Man and Wright, ISSAC 1994; Gerhard, Giesbrecht, Storjohann and Zima,
ISSAC 2003).  When one factor is linear in k, its root is rational, and so
are the roots it differs from by an integer: the candidates are differences
of rational roots.  Otherwise they come from the integer roots of
prod (x - f g (beta - alpha)), f and g the leading coefficients, built from
the power sums of the scaled roots f alpha and g beta with integers only.
Those roots, the rational roots, and a leading recurrence coefficient's
roots come from one complete integer-root finder, integer_roots_univar:
p-adic lifting modulo one prime on dense integer lists, from the
square-free part that a GCDHEU gcd with the derivative gives, with every
candidate checked exactly.
"""

from __future__ import annotations

from itertools import product
from math import comb, gcd as _igcd, isqrt, lcm, prod

from .polys import (
    LinearForm, MultiPoly, _cleared, _dense_quotient, _heuristic_gcd,
    _norm_coef, _parts, _poly_list_gcd, _primitive_ints, _product, _ratio,
    _rational_quotient, poly_gcd,
)


def _normalize_affine(L: LinearForm, order):
    """Scale an affine form to coprime integer coefficients, sign-canonical
    w.r.t. the given symbol order.  Returns (scale, normal form) with
    L = scale * normal."""
    parts = [_parts(c) for c in L.coeffs.values()]
    cn, cd = _parts(L.const)
    num = _igcd(cn, *(n for n, _ in parts))
    den = lcm(cd, *(d for _, d in parts))
    if num == 0:
        raise ValueError("zero affine form")
    lead = next((L.coeffs[s] for s in order if s in L.coeffs), L.const)
    if lead < 0:
        num = -num
    # each coefficient n/d times den/num: d divides den and num divides n
    return _ratio(num, den), LinearForm(
        {s: n // num * (den // d) for s, (n, d) in zip(L.coeffs, parts)},
        cn // num * (den // cd))


class Factored:
    """const * prod(factor ^ e) over one table, facs, of entries
    fid -> [factor, e].  The id says what the factor is: ("aff", key) an
    affine LinearForm in _normalize_affine's normal form, key its
    sort_key(), and ("opq", key) an integer-primitive MultiPoly of total
    degree >= 2, key its key().  Beyond insertion and shift, the kind is
    read only by the test for a variable (_involves), by _as_poly, which
    builds a factor as a polynomial, by the Gosper code's pair tests, and by
    factored_split_over, which splits opaque factors only."""

    __slots__ = ("vars", "const", "facs")

    def __init__(self, vars, const=1, facs=None):
        self.vars = tuple(vars)
        self.const = _norm_coef(const)
        self.facs = facs or {}   # fid -> [factor, exp]

    @classmethod
    def one(cls, vars):
        return cls(vars)

    def copy(self):
        return Factored(self.vars, self.const,
                        {fid: [f, e] for fid, (f, e) in self.facs.items()})

    def is_zero(self):
        return self.const == 0

    def is_constant(self):
        return self.const == 0 or not self.facs

    def _value_key(self):
        # the constant and each factor id's exponent; 0 for every zero
        return 0 if self.const == 0 else (self.const, self.vars, frozenset(
            (fid, e) for fid, (_, e) in self.facs.items()))

    def __eq__(self, other):
        """Equal values with equal factor tables; every zero is equal."""
        if not isinstance(other, Factored):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self):  # a TermExpression hashes the factor it never mutates
        return hash(self._value_key())

    # -- building ----------------------------------------------------------

    def mul_const(self, c, e: int = 1):
        """Multiply the constant by c^e, c a nonzero int or Fraction, or 0
        with e >= 0."""
        num, den = _parts(c)
        if e < 0:
            num, den, e = den, num, -e
        n, d = _parts(self.const)
        self.const = _ratio(n * num ** e, d * den ** e)
        return self

    def mul_affine(self, L: LinearForm, e: int):
        if e == 0:
            return self
        if L.is_constant():
            if L.const == 0:
                if e > 0:
                    self.const = 0
                    return self
                raise ZeroDivisionError("division by zero factor")
            return self.mul_const(L.const, e)
        scale, normal = _normalize_affine(L, self.vars)
        self.mul_const(scale, e)
        return self._mul_stored(("aff", normal.sort_key()), normal, e)

    def _mul_stored(self, fid, factor, e):
        """Multiply by factor^e, factor already in the normal form of its
        id fid."""
        entry = self.facs.setdefault(fid, [factor, 0])
        entry[1] += e
        if entry[1] == 0:
            del self.facs[fid]
        return self

    def mul_poly(self, p: MultiPoly, e: int):
        """Multiply by p^e.  A monomial is stored as its constant and one
        affine factor per variable, so that no value has two tables."""
        if e == 0:
            return self
        if p.is_zero():
            if e > 0:
                self.const = 0
                return self
            raise ZeroDivisionError("division by zero factor")
        if len(p.terms) == 1:
            (exp, c), = p.terms.items()
            self.mul_const(c, e)
            for v, d in zip(self.vars, exp):
                if d:
                    self.mul_affine(LinearForm.symbol(v), d * e)
            return self
        if p.total_degree() == 1:
            return self.mul_affine(LinearForm.from_poly(p), e)
        scale, prim = p.primitive()
        self.mul_const(scale, e)
        return self._mul_stored(("opq", prim.key()), prim, e)

    def mul(self, other: "Factored", e: int = 1):
        """Multiply by other^e, other over the same vars and nonzero when
        e < 0; its factors are stored normalized, so they are taken as they
        are."""
        self.mul_const(other.const, e)
        for fid, (f, d) in other.facs.items():
            self._mul_stored(fid, f, d * e)
        return self

    def shift(self, var, delta: int) -> "Factored":
        """The product with var replaced by var + delta, an integer.  Such a
        shift changes only the constant of an affine factor, which leaves
        its coefficients' gcd and its sign, and so its normal form; an
        opaque factor is normalized again."""
        out = Factored(self.vars, self.const)
        for (kind, _), (f, e) in self.facs.items():
            g = f.shift(var, delta)
            if kind == "aff":
                out._mul_stored(("aff", g.sort_key()), g, e)
            else:
                out.mul_poly(g, e)
        return out

    def split(self):
        """Separate into (numerator, denominator), both with positive
        exponents.  Every stored factor is already in normal form (an
        affine one normalizes to itself with scale 1, an opaque one is
        integer-primitive with a positive leading coefficient), so each
        entry is copied under its id, with no normalization."""
        num, den = Factored(self.vars, self.const), Factored(self.vars)
        for fid, (f, e) in self.facs.items():
            (num if e > 0 else den).facs[fid] = [f, abs(e)]
        return num, den

    # -- inspection -----------------------------------------------------------

    def factors(self):
        """Every factor as a polynomial."""
        return [_as_poly(fid, f, self.vars)
                for fid, (f, _) in self.facs.items()]

    def expand(self) -> MultiPoly:
        """The product as one polynomial, by polys._product: each factor is
        multiplied in once per unit of its exponent, with packed keys that
        are unpacked once, at the end."""
        exps = [e for _, e in self.facs.values()]
        if any(e < 0 for e in exps):
            raise ValueError("cannot expand negative exponents")
        return _product(self.vars, zip(self.factors(), exps), self.const)

    def divide_factor(self, fid, d_poly: MultiPoly):
        """Divide one copy of the stored factor fid by d_poly, which is
        known to divide it; the cofactor stays in the product."""
        quo = _as_poly(fid, self.facs[fid][0], self.vars).divexact(d_poly)
        self._mul_stored(fid, None, -1)
        self.mul_poly(quo, 1)

    def __str__(self):
        """The constant, then each factor with its exponent, in a form that
        terms.parse_rational reads back to an equal Factored."""
        return " * ".join([f"({self.const})"] + [
            f"({f})^{e}" for f, e in self.facs.values()])


def _as_poly(fid, factor, vars) -> MultiPoly:
    """A stored factor, of id fid, as a polynomial over vars."""
    return factor.to_poly(vars) if fid[0] == "aff" else factor


def _involves(fid, factor, var) -> bool:
    """Whether a stored factor, of id fid, involves var."""
    return (factor.var_coeff(var) if fid[0] == "aff"
            else factor.degree(var)) != 0


def factored_lcm(items) -> Factored:
    """lcm of factored products with positive exponents (constants dropped)."""
    items = list(items)
    out = Factored.one(items[0].vars)
    for it in items:
        for fid, (f, e) in it.facs.items():
            entry = out.facs.setdefault(fid, [f, e])
            entry[1] = max(entry[1], e)
    return out


def factored_common(a: Factored, b: Factored) -> Factored:
    """The factors a and b share, each with the smaller of its two positive
    exponents (constants dropped).  Factors are matched by their normalized
    form only, so this is a common divisor, not necessarily the gcd."""
    return Factored(a.vars, 1, {fid: [f, min(e, b.facs[fid][1])]
                                for fid, (f, e) in a.facs.items()
                                if fid in b.facs})


def factored_free_of(a: Factored, var) -> Factored:
    """The factors of a that do not involve var (constant dropped)."""
    return Factored(a.vars, 1, {fid: [f, e] for fid, (f, e) in a.facs.items()
                                if not _involves(fid, f, var)})


def factored_quotient(a: Factored, b: Factored) -> Factored:
    """a / b where every factor of b occurs in a with at least its exponent."""
    out = a.copy().mul_const(b.const, -1)
    for fid, (f, e) in b.facs.items():
        entry = out.facs.get(fid)
        if entry is None or entry[1] < e:
            raise ValueError("inexact factored quotient")
        out._mul_stored(fid, f, -e)
    return out


def factored_split_over(a: Factored, b: Factored) -> Factored:
    """a with each opaque factor that b does not hold split over b: every
    factor of b, as often as it divides it exactly, and the cofactor left
    as one opaque factor.  Over a certificate's shift ratio Q this finds
    what the certificate's denominator shares with Q, which the lcm of
    sum_vanishes then clears once."""
    out = Factored(a.vars, a.const)
    over = b.factors()
    for fid, (p, e) in a.facs.items():
        if fid[0] == "aff" or fid in b.facs:
            out._mul_stored(fid, p, e)
            continue
        for g in over:
            while not p.is_constant():
                try:
                    p = p.divexact(g)
                except ValueError:
                    break
                out.mul_poly(g, e)
        out.mul_poly(p, e)
    return out


def factored_sum(plus, minus=()) -> Factored:
    """The Factored values of plus minus those of minus, at least one value
    over the same variables, summed as P / L with no gcd: L, the lcm of
    their denominators, holds each stored factor with the largest of its
    negative exponents, and P, one factor, is the sum of each value times
    L, expanded once (Factored.expand).  A zero value is dropped first,
    with the denominator it may still carry."""
    vars = next(iter((*plus, *minus))).vars
    values = [(sign, v) for sign, side in ((1, plus), (-1, minus))
              for v in side if not v.is_zero()]
    lcm = Factored.one(vars)
    for _, v in values:
        for fid, (f, e) in v.facs.items():
            if e < 0:
                entry = lcm.facs.setdefault(fid, [f, -e])
                entry[1] = max(entry[1], -e)
    acc = {}
    for sign, v in values:
        for exp, c in v.copy().mul(lcm).expand().terms.items():
            acc[exp] = acc.get(exp, 0) + sign * c
    total = MultiPoly(vars, {e: _norm_coef(c) for e, c in acc.items() if c})
    if total.is_zero():
        return Factored(vars, 0)
    return Factored.one(vars).mul_poly(total, 1).mul(lcm, -1)


def sum_vanishes(plus, minus=()) -> bool:
    """Whether the Factored values of plus sum to those of minus: whether
    P of their factored_sum is zero, L being nonzero."""
    return not (plus or minus) or factored_sum(plus, minus).is_zero()


# ---------------------------------------------------------------------------
# integer roots


def _next_prime(n):
    """The least odd prime >= n."""
    p = max(n, 3) | 1
    while any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += 2
    return p


def _value_mod(ints, x, m):
    total = 0
    for c in reversed(ints):
        total = (total * x + c) % m
    return total


def _value(ints, x):
    total = 0
    for c in reversed(ints):
        total = total * x + c
    return total


def integer_roots_univar(coeffs) -> list:
    """Integer roots, ascending, of the univariate polynomial with the
    ascending Fraction/int coefficients coeffs, by p-adic lifting (Loos,
    SIAM J. Comput. 12, 1983; von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 15), on dense integer lists.  The denominators, the zero
    root and the content are cleared off, and f is the integer square-free
    part of the rest: its quotient by its gcd with its derivative, from
    GCDHEU (polys._heuristic_gcd, polys._dense_quotient).  Its discriminant
    is nonzero, so some prime p divides neither it nor f's leading
    coefficient: every root of f mod p is then simple, and Newton's
    iteration lifts it to the one p-adic root above it, modulo p^m > 2B,
    B = 1 + max|c_i|/|lead| the Cauchy bound.  An integer root is the
    symmetric residue of one of these, with |r| <= B and f(r) = 0 exactly.
    The search is complete: it never gives up.  ValueError for the zero
    polynomial.
    """
    parts = [_parts(c) for c in coeffs]
    den = lcm(*(d for _, d in parts))
    f = [n * (den // d) for n, d in parts]
    while f and not f[-1]:
        f.pop()
    if not f:
        raise ValueError("zero polynomial has every integer as a root")
    low = next(d for d, c in enumerate(f) if c)
    roots = [0] if low else []
    f = f[low:]
    if len(f) == 1:
        return roots
    g = _heuristic_gcd({(d,): c for d, c in enumerate(f) if c},
                       {(d - 1,): d * c for d, c in enumerate(f) if d and c})
    dense = [0] * (max(g)[0] + 1)
    for (d,), c in g.items():
        dense[d] = c
    ints = _primitive_ints(_dense_quotient(f, dense))
    deriv = [d * c for d, c in enumerate(ints)][1:]
    bound = 1 + max(abs(c) for c in ints) // abs(ints[-1])
    p = 1
    while True:
        p = _next_prime(p + 1)
        if ints[-1] % p:
            residues = [r for r in range(p) if _value_mod(ints, r, p) == 0]
            if all(_value_mod(deriv, r, p) for r in residues):
                break
    for r in residues:
        q = p
        while q <= 2 * bound:
            q *= q
            r = (r - _value_mod(ints, r, q)
                 * pow(_value_mod(deriv, r, q), -1, q)) % q
        r = r if r <= q // 2 else r - q
        if abs(r) <= bound and _value(ints, r) == 0:
            roots.append(r)
    return sorted(roots)


# ---------------------------------------------------------------------------
# dispersion and the Gosper normal form


def _shared_point(polys, k):
    """The first integer point of the variables other than k at which the
    leading coefficient in k of every one of polys (over one variable
    tuple) is nonzero, in a box from 3, 5, 7, ... of 1 + the sum of their
    degrees in v consecutive integers per variable v: their product is a
    nonzero polynomial of at most that degree in v, which cannot vanish on
    all of the box.  Each leading coefficient is evaluated on its own."""
    vars = polys[0].vars
    i = vars.index(k)
    leads = []
    for p in polys:
        d = p.degree(k)
        leads.append([(e, c) for e, c in p.terms.items() if e[i] == d])
    others = [t for t in range(len(vars)) if t != i]
    box = [range(3 + 2 * n, 4 + 2 * n + sum(max(e[t] for e, _ in lead)
                                            for lead in leads))
           for n, t in enumerate(others)]
    for values in product(*box):
        at = list(values)
        at.insert(i, 1)
        if all(sum(c * prod(map(pow, at, e)) for e, c in lead)
               for lead in leads):
            return {vars[t]: v for t, v in zip(others, values)}


class _AtPoint:
    """One k-factor at the shared point s.  An affine factor a*k + c keeps
    only its root -c(s)/a.  An opaque one is its primitive integer
    coefficient list in k, with leading coefficient lc != 0; its rational
    roots (r/lc for the integer roots r of the monic lc^(d-1) h(x/lc)) and
    the power sums of its roots times lc are found once, when a pair first
    asks."""

    __slots__ = ("degree", "coeffs", "_roots", "_sums")

    def __init__(self, fid, factor, k, point):
        self._sums = None
        if fid[0] == "aff":
            self.degree, self.coeffs = 1, None
            self._roots = [_rational_quotient(-factor.at({**point, k: 0}),
                                              factor.var_coeff(k))]
            return
        _, terms = _cleared(factor)
        i = factor.vars.index(k)
        at = [1 if v == k else point[v] for v in factor.vars]
        coeffs = [0] * (factor.degree(k) + 1)
        for e, c in terms:
            coeffs[e[i]] += c * prod(map(pow, at, e))
        self.coeffs = _primitive_ints(coeffs)
        self.degree = len(coeffs) - 1
        self._roots = None

    def _monic(self):
        """lc^(d-1) h(x/lc), ascending: monic, with the roots of h times lc."""
        h = self.coeffs
        lc, d = h[-1], self.degree
        return [c * lc ** (d - 1 - i) for i, c in enumerate(h[:-1])] + [1]

    def roots(self):
        if self._roots is None:
            lc = self.coeffs[-1]
            self._roots = [_ratio(r, lc)
                           for r in integer_roots_univar(self._monic())]
        return self._roots

    def power_sums(self, count):
        """p_0..p_count of the roots times lc, by Newton's identities on the
        monic _monic(): integers."""
        if self._sums is None or len(self._sums) <= count:
            a = self._monic()[::-1]  # a[i], the coefficient of x^(d-i)
            d = self.degree
            sums = [d]
            for t in range(1, count + 1):
                s = t * a[t] if t <= d else 0
                for i in range(1, min(t - 1, d) + 1):
                    s += a[i] * sums[t - i]
                sums.append(-s)
            self._sums = sums
        return self._sums[:count + 1]


def _composed_difference(a: _AtPoint, b: _AtPoint) -> list:
    """Ascending integer coefficients of prod (x - f g (beta - alpha)) over
    the roots alpha of a and beta of b, f and g their leading coefficients:
    monic, of degree D = deg a * deg b.  Its power sums are those of
    f (g beta) - g (f alpha), by the binomial theorem on the power sums of
    the scaled roots, and Newton's identities turn them into coefficients
    with exact divisions.  Up to a nonzero constant it is
    Res_k(a(k), b(k + j)) at j = x / (f g)."""
    f, g = a.coeffs[-1], b.coeffs[-1]
    count = a.degree * b.degree
    pa = [c * (-g) ** u for u, c in enumerate(a.power_sums(count))]
    pb = [c * f ** u for u, c in enumerate(b.power_sums(count))]
    sums = [sum(comb(t, u) * pb[u] * pa[t - u] for u in range(t + 1))
            for t in range(1, count + 1)]
    e = [1]  # e[t], the coefficient of x^(D-t)
    for t in range(1, count + 1):
        e.append(-sum(e[t - i] * sums[i - 1] for i in range(1, t + 1)) // t)
    return e[::-1]


def _affine_shift(Lq, Lr, k):
    """[j] if Lr(k + j) is a multiple of Lq(k) for an integer j >= 0, else
    []: the parts free of k must be proportional, by alpha2/alpha1, and j
    is the difference of the roots."""
    alpha1 = Lq.var_coeff(k)
    alpha2 = Lr.var_coeff(k)
    if {s: c * alpha2 for s, c in Lq.coeffs.items() if s != k} != \
            {s: c * alpha1 for s, c in Lr.coeffs.items() if s != k}:
        return []
    n, d = _parts(Lq.const * alpha2 - Lr.const * alpha1)
    m, e = _parts(alpha1 * alpha2)
    j = _ratio(n * e, d * m)
    return [j] if type(j) is int and j >= 0 else []


def _pair_candidates(a: _AtPoint, b: _AtPoint) -> list:
    """The nonnegative integers j, ascending, with a(k) and b(k + j)
    sharing a root at the point: the differences beta - alpha of their
    rational roots when one of them is linear in k (then an integer shift
    takes a rational root to a rational root), else the integer roots of
    _composed_difference divisible by f g, over f g."""
    if a.degree == 1 or b.degree == 1:
        js = {_norm_coef(beta - alpha)
              for alpha in a.roots() for beta in b.roots()}
        return sorted(j for j in js if type(j) is int and j >= 0)
    fg = a.coeffs[-1] * b.coeffs[-1]
    roots = integer_roots_univar(_composed_difference(a, b))
    return sorted(x // fg for x in roots if x % fg == 0 and x // fg >= 0)


def _candidates(qside, rside, k) -> list:
    """Candidate shifts j >= 0 of every pair of a factor of qside with one
    of rside, as rows per qside factor: a superset of the j at which the
    two share a factor that involves k.  Factors are (fid, factor), all
    involving k.  Two affine factors have one candidate in closed form.  For
    any other pair, every factor is specialized once at one shared point s
    (_shared_point, where every leading coefficient in k is nonzero), and
    the pair's candidates are its shifts there (_pair_candidates): the
    nonnegative integer roots of Res_k(fq(k, s), fr(k+j, s)), never the
    zero polynomial, among which is every generic shift (Man and Wright, ISSAC 1994; Gerhard, Giesbrecht,
    Storjohann and Zima, ISSAC 2003)."""
    opaque = [p for fid, p in qside + rside if fid[0] == "opq"]
    if not opaque:
        return [[_affine_shift(Lq, Lr, k) for _, Lr in rside]
                for _, Lq in qside]
    point = _shared_point(opaque, k)
    qs = [_AtPoint(fid, p, k, point) for fid, p in qside]
    rs = [_AtPoint(fid, p, k, point) for fid, p in rside]
    return [[_affine_shift(gq, gr, k) if fq[0] == fr[0] == "aff"
             else _pair_candidates(a, b) for (fr, gr), b in zip(rside, rs)]
            for (fq, gq), a in zip(qside, qs)]


def _k_factors(f: Factored, k):
    """The factors of f that involve k, as (fid, factor), affine ones first,
    each kind in storage order, so that the normal form tries its pairs in
    one fixed order."""
    return sorted(((fid, g) for fid, (g, e) in f.facs.items()
                   if e > 0 and _involves(fid, g, k)), key=lambda t: t[0][0])


def dispersion_set(num: Factored, den: Factored, k) -> dict:
    """For each pair (num factor, den factor), both involving k, candidate
    shifts j >= 0 (_candidates, at one point for all of them), among them
    every j at which the two share a factor that involves k."""
    qf, rf = _k_factors(num, k), _k_factors(den, k)
    return {(fq, fr): js for (fq, _), row in zip(qf, _candidates(qf, rf, k))
            for (fr, _), js in zip(rf, row)}


def gosper_normal(ratio_num: Factored, ratio_den: Factored, k):
    """Decompose num/den = pbar(k+1)/pbar(k) * q(k)/r(k) with
    gcd(q(k), r(k+j)) = 1 for every integer j >= 0.

    The peeled factors accumulate in pbar; q keeps the constant.  Dispersion
    j = 0 doubles as plain cancellation of common factors.  At each j, the
    first factor pair (q side outer) with a nontrivial gcd at shift j is
    peeled until none is left.  A pair is tested only at its candidates from
    dispersion_set, or at every j if both factors have a nonconstant k-content
    (gcd of the k-coefficients).  A candidate at which the pair shares no
    factor fails the exact gcd test and changes nothing.  A quotient left by
    a peel divides its parent, so it inherits the parent's candidates and
    flag.
    """
    if ratio_num.is_zero():
        raise ValueError("zero shift quotient")
    q = ratio_num.copy()
    r = ratio_den.copy()
    vars = q.vars
    pbar = Factored.one(vars)
    cands = dispersion_set(q, r, k)
    content = {fid: fid[0] == "opq" and not _poly_list_gcd(p.to_univar(k)).is_constant()
               for f in (q, r) for fid, p in _k_factors(f, k)}
    for j in sorted(set().union(*cands.values())):
        while True:
            rfacts = _k_factors(r, k)
            pairs = ((fq, gq, fr, gr)
                     for fq, gq in _k_factors(q, k) for fr, gr in rfacts
                     if j in cands[fq, fr] or content[fq] and content[fr])
            for fq, gq, fr, gr in pairs:
                if fq[0] == fr[0] == "aff":
                    if gr.shift(k, j) == gq:  # both stay normalized
                        g = gq.to_poly(vars)
                        break
                else:
                    g = poly_gcd(_as_poly(fq, gq, vars),
                                 _as_poly(fr, gr, vars).shift(k, j))
                    if not g.is_constant():
                        break
            else:
                break
            _peel(q, fq, g, 0, cands, content)
            _peel(r, fr, g.shift(k, -j), 1, cands, content)
            for t in range(1, j + 1):
                pbar.mul_poly(g.shift(k, -t), 1)
    return pbar, q, r


def _peel(f: Factored, fid, d_poly, side, cands, content):
    """Divide one copy of factor fid of f by d_poly.  A new factor left by
    the quotient inherits fid's content flag and its candidates on side 0
    (q) or 1 (r) of each pair."""
    before = set(f.facs)
    f.divide_factor(fid, d_poly)
    for new in f.facs.keys() - before:
        content[new] = content[fid]
        for pair, js in list(cands.items()):
            if pair[side] == fid:
                cands[(new, pair[1]) if side == 0 else (pair[0], new)] = js
