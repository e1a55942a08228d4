"""Products of affine and opaque polynomial factors, kept unexpanded.

Shift quotients of hypergeometric terms are products of affine forms (plus
numerators/denominators of rational factors).  Keeping the factorization
makes shift-gcd structure (dispersions) cheap to read off, which is what the
Gosper normal form needs.  Expansion happens only at the end, and only of
the products that are read: `Factored.expand` multiplies every factor into
one accumulator keyed by packed exponents (`polys._product`).  Two affine
factors are compared by their normalized forms, with no polynomial built.
`sum_vanishes` is the one exact zero test of a sum of factored terms, for
the small cases of gridproof and for telescope.verify_certificate.

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
p-adic lifting modulo one prime on dense integer lists, with every
candidate checked exactly.
"""

from __future__ import annotations

from itertools import product
from math import comb, gcd as _igcd, lcm, prod

from .polys import (
    MultiPoly, _cleared, _dense_gcd, _dense_quotient, _norm_coef, _parts,
    _poly_list_gcd, _primitive_ints, _product, _ratio, _rational_quotient,
    poly_gcd,
)
from .terms import LinearForm


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
    """const * prod(affine_i ^ e_i) * prod(opaque_j ^ e_j)."""

    __slots__ = ("vars", "const", "aff", "opq")

    def __init__(self, vars, const=1, aff=None, opq=None):
        self.vars = tuple(vars)
        self.const = _norm_coef(const)
        self.aff = aff or {}   # key -> [LinearForm, exp]
        self.opq = opq or {}   # key -> [MultiPoly, exp]

    @classmethod
    def one(cls, vars):
        return cls(vars)

    def copy(self):
        return Factored(self.vars, self.const,
                        {k: [f, e] for k, (f, e) in self.aff.items()},
                        {k: [p, e] for k, (p, e) in self.opq.items()})

    def is_zero(self):
        return self.const == 0

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
        return self._mul_stored(self.aff, normal.sort_key(), normal, e)

    def _mul_stored(self, table, key, factor, e):
        """Multiply by factor^e, factor already in the normal form of table
        (aff or opq) under key."""
        if key in table:
            table[key][1] += e
            if table[key][1] == 0:
                del table[key]
        else:
            table[key] = [factor, e]
        return self

    def mul_poly(self, p: MultiPoly, e: int):
        if e == 0:
            return self
        if p.is_zero():
            if e > 0:
                self.const = 0
                return self
            raise ZeroDivisionError("division by zero factor")
        if p.is_constant():
            return self.mul_const(p.as_constant(), e)
        if p.total_degree() == 1:
            return self.mul_affine(LinearForm.from_poly(p), e)
        scale, prim = p.primitive()
        self.mul_const(scale, e)
        return self._mul_stored(self.opq, prim.key(), prim, e)

    def mul(self, other: "Factored", e: int = 1):
        """Multiply by other^e, other over the same vars and nonzero when
        e < 0; its factors are stored normalized, so they are taken as they
        are."""
        self.mul_const(other.const, e)
        for key, (f, d) in other.aff.items():
            self._mul_stored(self.aff, key, f, d * e)
        for key, (p, d) in other.opq.items():
            self._mul_stored(self.opq, key, p, d * e)
        return self

    def shift(self, var, delta: int) -> "Factored":
        """The product with var replaced by var + delta, an integer.  Such a
        shift changes only the constant of an affine factor, which leaves
        its coefficients' gcd and its sign, and so its normal form; an
        opaque factor is normalized again."""
        out = Factored(self.vars, self.const)
        for f, e in self.aff.values():
            g = f.shift(var, delta)
            out._mul_stored(out.aff, g.sort_key(), g, e)
        for p, e in self.opq.values():
            out.mul_poly(p.shift(var, delta), e)
        return out

    def split(self):
        """Separate into (numerator, denominator), both with positive exponents."""
        num = Factored(self.vars, self.const)
        den = Factored.one(self.vars)
        for f, e in self.aff.values():
            (num if e > 0 else den).mul_affine(f, abs(e))
        for p, e in self.opq.values():
            (num if e > 0 else den).mul_poly(p, abs(e))
        return num, den

    # -- inspection -----------------------------------------------------------

    def factors(self):
        """All factors as (poly, exponent, is_affine, form-or-None)."""
        out = []
        for f, e in self.aff.values():
            out.append((f.to_poly(self.vars), e, True, f))
        for p, e in self.opq.values():
            out.append((p, e, False, None))
        return out

    def expand(self) -> MultiPoly:
        """The product as one polynomial, by polys._product: each factor is
        multiplied in once per unit of its exponent, with packed keys that
        are unpacked once, at the end."""
        factors = [(f.to_poly(self.vars), e) for f, e in self.aff.values()]
        factors += self.opq.values()
        if any(e < 0 for _, e in factors):
            raise ValueError("cannot expand negative exponents")
        return _product(self.vars, factors, self.const)

    def divide_factor(self, kind, key, d_poly: MultiPoly):
        """Divide one copy of the stored factor (kind, key) by d_poly, which
        is known to divide it; the cofactor stays in the product."""
        if kind == "aff":
            form, e = self.aff[key]
            quo = form.to_poly(self.vars).divexact(d_poly)  # a constant
            self.aff[key][1] -= 1
            if self.aff[key][1] == 0:
                del self.aff[key]
            self.mul_const(quo.as_constant())
        else:
            p, e = self.opq[key]
            quo = p.divexact(d_poly)
            self.opq[key][1] -= 1
            if self.opq[key][1] == 0:
                del self.opq[key]
            self.mul_poly(quo, 1)

    def __str__(self):
        parts = [str(self.const)]
        for f, e in self.aff.values():
            parts.append(f"({f})^{e}")
        for p, e in self.opq.values():
            parts.append(f"({p})^{e}")
        return " * ".join(parts)


def from_ratio_parts(vars, const, affine, opaque) -> Factored:
    out = Factored(vars, const)
    for L, e in affine:
        out.mul_affine(L, e)
    for p, e in opaque:
        out.mul_poly(p.embed(vars) if p.vars != tuple(vars) else p, e)
    return out


def factored_lcm(items) -> Factored:
    """lcm of factored products with positive exponents (constants dropped)."""
    items = list(items)
    out = Factored.one(items[0].vars)
    for it in items:
        for key, (f, e) in it.aff.items():
            if key not in out.aff:
                out.aff[key] = [f, e]
            else:
                out.aff[key][1] = max(out.aff[key][1], e)
        for key, (p, e) in it.opq.items():
            if key not in out.opq:
                out.opq[key] = [p, e]
            else:
                out.opq[key][1] = max(out.opq[key][1], e)
    return out


def factored_common(a: Factored, b: Factored) -> Factored:
    """The factors a and b share, each with the smaller of its two positive
    exponents (constants dropped).  Factors are matched by their normalized
    form only, so this is a common divisor, not necessarily the gcd."""
    out = Factored.one(a.vars)
    for key, (f, e) in a.aff.items():
        if key in b.aff:
            out.aff[key] = [f, min(e, b.aff[key][1])]
    for key, (p, e) in a.opq.items():
        if key in b.opq:
            out.opq[key] = [p, min(e, b.opq[key][1])]
    return out


def factored_free_of(a: Factored, var) -> Factored:
    """The factors of a that do not involve var (constant dropped)."""
    out = Factored.one(a.vars)
    for key, (f, e) in a.aff.items():
        if f.var_coeff(var) == 0:
            out.aff[key] = [f, e]
    for key, (p, e) in a.opq.items():
        if p.degree(var) == 0:
            out.opq[key] = [p, e]
    return out


def factored_quotient(a: Factored, b: Factored) -> Factored:
    """a / b where every factor of b occurs in a with at least its exponent."""
    out = a.copy()
    out.mul_const(b.const, -1)
    for key, (f, e) in b.aff.items():
        cur = out.aff.get(key)
        if cur is None or cur[1] < e:
            raise ValueError("inexact factored quotient")
        cur[1] -= e
        if cur[1] == 0:
            del out.aff[key]
    for key, (p, e) in b.opq.items():
        cur = out.opq.get(key)
        if cur is None or cur[1] < e:
            raise ValueError("inexact factored quotient")
        cur[1] -= e
        if cur[1] == 0:
            del out.opq[key]
    return out


def sum_vanishes(plus, minus=()) -> bool:
    """Whether the Factored values of plus, over the same variables with
    exponents of either sign, sum to those of minus: each times L, the
    factored_lcm of their denominators, is expanded once (Factored.expand),
    and the two sides' sums of these polynomials are compared; no gcd.  L
    is nonzero, so the sum is zero exactly when these polynomials sum to
    zero.  A zero value is dropped first, with the denominator it may still
    carry."""
    values = [(sign, v) for sign, side in ((1, plus), (-1, minus))
              for v in side if not v.is_zero()]
    if not values:
        return True
    lcm = factored_lcm(v.split()[1] for _, v in values)
    acc = {}
    for sign, v in values:
        for exp, c in v.copy().mul(lcm).expand().terms.items():
            acc[exp] = acc.get(exp, 0) + sign * c
    return not any(acc.values())


# ---------------------------------------------------------------------------
# integer roots


def _primes_from(start, count):
    out = []
    cand = start | 1
    while len(out) < count:
        p = cand
        is_p = p > 1
        d = 3
        if p % 2 == 0:
            is_p = p == 2
        while is_p and d * d <= p:
            if p % d == 0:
                is_p = False
            d += 2
        if is_p:
            out.append(p)
        cand += 2
    return out


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
    part of the rest: its quotient by the primitive PRS gcd with its
    derivative (polys._dense_gcd, polys._dense_quotient).  Its discriminant
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
    ints = _primitive_ints(_dense_quotient(
        f, _dense_gcd(f, [d * c for d, c in enumerate(f)][1:])))
    deriv = [d * c for d, c in enumerate(ints)][1:]
    bound = 1 + max(abs(c) for c in ints) // abs(ints[-1])
    p = 1
    while True:
        p = _primes_from(p + 1, 1)[0]
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

    def __init__(self, poly, form, k, point):
        self._sums = None
        if form is not None:
            self.degree, self.coeffs = 1, None
            self._roots = [_rational_quotient(-form.at({**point, k: 0}),
                                              form.var_coeff(k))]
            return
        _, terms = _cleared(poly)
        i = poly.vars.index(k)
        at = [1 if v == k else point[v] for v in poly.vars]
        coeffs = [0] * (poly.degree(k) + 1)
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
    two share a factor that involves k.  Factors are (id, poly, form), all
    involving k, with poly None for an affine one and form None for an
    opaque one.  Two affine factors have one candidate in closed form.  For
    any other pair, every factor is specialized once at one shared point s
    (_shared_point, where every leading coefficient in k is nonzero), and
    the pair's candidates are its shifts there (_pair_candidates): the
    nonnegative integer roots of Res_k(fq(k, s), fr(k+j, s)), never the
    zero polynomial, among which is every generic shift (Man and Wright, ISSAC 1994; Gerhard, Giesbrecht,
    Storjohann and Zima, ISSAC 2003)."""
    opaque = [p for _, p, L in qside + rside if L is None]
    if not opaque:
        return [[_affine_shift(Lq, Lr, k) for _, _, Lr in rside]
                for _, _, Lq in qside]
    point = _shared_point(opaque, k)
    qs = [_AtPoint(p, L, k, point) for _, p, L in qside]
    rs = [_AtPoint(p, L, k, point) for _, p, L in rside]
    return [[_affine_shift(Lq, Lr, k) if Lq is not None and Lr is not None
             else _pair_candidates(a, b) for (_, _, Lr), b in zip(rside, rs)]
            for (_, _, Lq), a in zip(qside, qs)]


def _shift_candidates(fq, fr, k):
    """The candidates of one pair (poly, is_affine, form), at the pair's own
    shared point; the poly of an affine factor is not read."""
    (pq, aq, Lq), (pr, ar, Lr) = fq, fr
    return _candidates([(None, None if aq else pq, Lq if aq else None)],
                       [(None, None if ar else pr, Lr if ar else None)],
                       k)[0][0]


def _k_factors(f: Factored, k):
    """The factors of f that involve k, as ((kind, key), poly, form), affine
    ones first, each group in storage order.  An affine factor comes as its
    normalized form with poly None, an opaque one as its poly with form
    None: affine pairs are compared on their forms, and a caller builds
    L.to_poly(f.vars) only where a polynomial is needed."""
    out = [(("aff", key), None, L) for key, (L, e) in f.aff.items()
           if e > 0 and L.var_coeff(k) != 0]
    out += [(("opq", key), p, None) for key, (p, e) in f.opq.items()
            if e > 0 and p.degree(k) > 0]
    return out


def dispersion_set(num: Factored, den: Factored, k) -> dict:
    """For each pair (num factor, den factor), both involving k, candidate
    shifts j >= 0 (_candidates, at one point for all of them), among them
    every j at which the two share a factor that involves k."""
    qf, rf = _k_factors(num, k), _k_factors(den, k)
    return {(fq, fr): js for (fq, _, _), row in zip(qf, _candidates(qf, rf, k))
            for (fr, _, _), js in zip(rf, row)}


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
               for f in (q, r) for fid, p, _ in _k_factors(f, k)}
    for j in sorted(set().union(*cands.values())):
        while True:
            rfacts = _k_factors(r, k)
            pairs = ((fq, pq, Lq, fr, pr, Lr)
                     for fq, pq, Lq in _k_factors(q, k) for fr, pr, Lr in rfacts
                     if j in cands[fq, fr] or content[fq] and content[fr])
            for fq, pq, Lq, fr, pr, Lr in pairs:
                if Lq is not None and Lr is not None:
                    if Lr.shift(k, j) == Lq:  # both stay normalized
                        g = Lq.to_poly(vars)
                        break
                else:
                    g = poly_gcd(pq or Lq.to_poly(vars),
                                 (pr or Lr.to_poly(vars)).shift(k, j))
                    if not g.is_constant():
                        break
            else:
                break
            _peel(q, fq, g, 0, cands, content)
            _peel(r, fr, g.shift(k, -j), 1, cands, content)
            for t in range(1, j + 1):
                pbar.mul_poly(g.shift(k, -t), 1)
    return pbar, q, r


def _fids(f: Factored):
    return {("aff", key) for key in f.aff} | {("opq", key) for key in f.opq}


def _peel(f: Factored, fid, d_poly, side, cands, content):
    """Divide one copy of factor fid of f by d_poly.  A new factor left by
    the quotient inherits fid's content flag and its candidates on side 0
    (q) or 1 (r) of each pair."""
    before = _fids(f)
    f.divide_factor(fid[0], fid[1], d_poly)
    for new in _fids(f) - before:
        content[new] = content[fid]
        for pair, js in list(cands.items()):
            if pair[side] == fid:
                cands[(new, pair[1]) if side == 0 else (pair[0], new)] = js
