"""Sparse multivariate polynomials and affine forms over exact rationals;
rational functions are products of them, factored.Factored.

Coefficients are arbitrary-precision rationals.  A stored coefficient is
never zero, and it is a plain int unless it is a non-integral rational, which
alone is a `fractions.Fraction`.  The kernels keep that invariant without
building Fractions on the way: they split a coefficient into its integer
numerator and denominator (`_parts`), work on ints, and build a Fraction only
where a denominator survives (`_ratio`).  They test a coefficient's class
with `type(c) is Fraction`, never with an `isinstance` check: Fraction is
registered with the numbers ABCs, so that check goes through
`ABCMeta.__instancecheck__` and costs about ten times the exact type test.
No floating point anywhere.  The monomial order is graded lexicographic over
a fixed variable tuple.

Products run over the integers: each operand is scaled by the lcm of its
coefficient denominators (`common_denominator`), and the one common
denominator is divided out when the product is stored.  A product of many
factors or a power (`_product`) runs in one accumulator, into which each
factor is multiplied in turn, so each key is unpacked only once, at the
end (Monagan and Pearce, CASC 2007; Johnson, SIGSAM Bull. 8, 1974).
Products and exact divisions pack each exponent tuple into a single int, so
that adding packed keys adds exponents.  The division's packing also orders
keys graded-lexicographically and keeps a spare top bit in every exponent
field, so one subtraction tests monomial divisibility; its remainder is
updated in place.  Packed keys never leave a kernel: stored terms stay keyed
by exponent tuples.

The one gcd is GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7,
1989): each variable in turn is set to a large integer xi, down to one
big-integer gcd, and the polynomial is read back from the xi-adic digits of
the result.  It is accepted only if it divides both operands exactly, and
then it is the gcd, so the answer never depends on the heuristic.  A
rejected candidate only makes xi grow: the search has no give-up and no
other algorithm behind it.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import comb, gcd as _igcd, lcm
from operator import mul


def _norm_coef(c):
    """Prefer plain ints over integral Fractions (much faster arithmetic)."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _as_fraction(c) -> Fraction:
    return c if type(c) is Fraction else Fraction(c)


def _parts(c):
    """(numerator, denominator) of an int or a Fraction, building nothing."""
    if type(c) is Fraction:
        return c.numerator, c.denominator
    return c, 1


def _ratio(num: int, den: int):
    """num/den as a coefficient: an int when den divides num, else a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def common_denominator(polys) -> int:
    """Least common multiple of the coefficient denominators of `polys`."""
    den = 1
    for p in polys:
        for c in p.terms.values():
            if type(c) is Fraction and den % c.denominator:
                den = lcm(den, c.denominator)
    return den


def _cleared(p):
    """(den, [(exp, int)]): the common denominator of p and den * p's terms."""
    den = common_denominator((p,))
    return den, [(e, c.numerator * (den // c.denominator)
                  if type(c) is Fraction else c * den)
                 for e, c in p.terms.items()]


def _unpacked(acc: dict, radices, den: int = 1) -> dict:
    """{exponent tuple: c / den} of acc, keyed by packed exponents (digit i
    of radix radices[i], the first least significant): one comprehension
    per arity up to four, else digit lists zipped."""
    if den != 1:
        acc = {k: _ratio(c, den) for k, c in acc.items()}
    if len(radices) == 1:
        return {(k,): c for k, c in acc.items()}
    if len(radices) == 2:
        a = radices[0]
        return {(k % a, k // a): c for k, c in acc.items()}
    if len(radices) == 3:
        a, b, _ = radices
        return {(k % a, k // a % b, k // (a * b)): c for k, c in acc.items()}
    if len(radices) == 4:
        a, b, c3, _ = radices
        ab, abc = a * b, a * b * c3
        return {(k % a, k // a % b, k // ab % c3, k // abc): c
                for k, c in acc.items()}
    digits, w = [], 1
    for r in radices:
        digits.append([k // w % r for k in acc])
        w *= r
    return dict(zip(zip(*digits) if digits else [()], acc.values()))


def _rational_quotient(r, c):
    n, d = _parts(r)
    m, e = _parts(c)
    return _ratio(n * e, d * m)


def _integer_quotient(r, c):
    q, m = divmod(r, c)
    return None if m else q


def _divide(a: dict, b: dict, quotient):
    """Terms of a / b for term dicts b nonconstant and a over the same
    variables, or None when b does not divide a.  quotient(r, c) divides a
    remainder coefficient by b's leading one, None if it cannot."""
    # graded-lex order as one int: the total degree above n fields of w bits,
    # e_0 most significant.  Every exponent met stays below 2^(w-1), so the
    # top bit of each field is a guard: (k | guard) - dkey borrows into no
    # other field, and keeps every guard bit iff k's monomial is divisible
    n = len(next(iter(b)))
    w = max(sum(e) for e in (*a, *b)).bit_length() + 1
    shifts = [w * (n - 1 - i) for i in range(n)]
    weights = [(1 << w * n) + (1 << s) for s in shifts]
    guard = sum(1 << s + w - 1 for s in shifts)
    divisor = {sum(map(mul, e, weights)): c for e, c in b.items()}
    dkey = max(divisor)
    dcoef = divisor.pop(dkey)
    rem = {sum(map(mul, e, weights)): c for e, c in a.items()}
    heap = [-k for k in rem]
    heapq.heapify(heap)
    out = {}
    while rem:
        k = -heapq.heappop(heap)
        r = rem.pop(k, None)
        if r is None:
            continue  # stale heap entry of a cancelled term
        if ((k | guard) - dkey) & guard != guard:
            return None
        q = quotient(r, dcoef)
        if q is None:
            return None
        qk = k - dkey
        out[qk] = q
        for ek, c in divisor.items():
            kk = qk + ek
            old = rem.get(kk)
            if old is None:
                rem[kk] = _norm_coef(-q * c)
                heapq.heappush(heap, -kk)
            else:
                s = old - q * c
                if s:
                    rem[kk] = _norm_coef(s)
                else:
                    del rem[kk]
    mask = (1 << w) - 1
    return {tuple(k >> s & mask for s in shifts): q for k, q in out.items()}


class MultiPoly:
    """Sparse polynomial: map from exponent tuples to nonzero coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: dict):
        # Takes ownership of `terms`; callers must not pass zero coefficients.
        self.vars = vars
        self.terms = terms

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(tuple(vars), {})

    @classmethod
    def constant(cls, vars, c):
        vars, c = tuple(vars), _norm_coef(c)
        return cls(vars, {(0,) * len(vars): c} if c else {})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {exp: 1})

    @classmethod
    def from_terms(cls, vars, items):
        terms = {}
        for exp, c in items:
            terms[exp] = terms.get(exp, 0) + c
        return cls(tuple(vars), {e: _norm_coef(c) for e, c in terms.items()
                                 if c})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or len(self.terms) == 1 and \
            not any(next(iter(self.terms)))

    def as_constant(self):
        if not self.terms:
            return 0
        (exp, c), = self.terms.items()
        if any(exp):
            raise ValueError("not a constant polynomial")
        return c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Hashable canonical form (for use as a dict key)."""
        return (self.vars, tuple(sorted(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = _norm_coef(terms.get(exp, 0) + c)
            if s == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return MultiPoly(self.vars, terms)

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a, b = self, other
        if len(a.terms) > len(b.terms):
            a, b = b, a
        if not a.terms:
            return MultiPoly(self.vars, {})
        radices = [x + y + 1 for x, y in zip(map(max, zip(*a.terms)),
                                             map(max, zip(*b.terms)))]
        weights = [1]
        for r in radices[:-1]:
            weights.append(weights[-1] * r)
        den_a, ia = _cleared(a)
        den_b, ib = _cleared(b)
        ib = [(sum(map(mul, e, weights)), c) for e, c in ib]
        acc = {}
        get = acc.get
        for e1, c1 in ia:
            k1 = sum(map(mul, e1, weights))
            for k2, c2 in ib:
                k = k1 + k2
                s = get(k, 0) + c1 * c2
                if s:
                    acc[k] = s
                else:
                    del acc[k]
        return MultiPoly(self.vars, _unpacked(acc, radices, den_a * den_b))

    def scale(self, c):
        c = _norm_coef(c)
        if c == 0:
            return MultiPoly.zero(self.vars)
        return MultiPoly(self.vars, {e: _norm_coef(v * c) for e, v in self.terms.items()})

    def __pow__(self, n: int):
        """self^n by repeated multiplication in one packed accumulator
        (`_product`); self^0 is 1, also for the zero polynomial."""
        if n < 0:
            raise ValueError("negative power")
        return _product(self.vars, [(self, n)])

    # -- degrees and leading terms ------------------------------------------

    def degree(self, var) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_exponent(self):
        """Exponent of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=lambda e: (sum(e), e))

    def leading_coeff(self):
        return self.terms[self.leading_exponent()]

    # -- evaluation and substitution ------------------------------------------

    def eval(self, point: dict):
        """Full evaluation; every variable must be assigned."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise ValueError(f"unassigned variables: {missing}")
        total = 0
        vals = [point[v] for v in self.vars]
        for exp, c in self.terms.items():
            t = c
            for v, e in zip(vals, exp):
                if e:
                    t *= v ** e
            total += t
        return _norm_coef(total) if total else 0

    def eval_partial(self, point: dict):
        """Substitute a subset of the variables; result keeps the full tuple."""
        out = {}
        vals = {self.vars.index(v): point[v] for v in point if v in self.vars}
        for exp, c in self.terms.items():
            nexp = list(exp)
            for i, val in vals.items():
                if exp[i]:
                    c *= val ** exp[i]
                nexp[i] = 0
            nexp = tuple(nexp)
            out[nexp] = out.get(nexp, 0) + c
        return MultiPoly(self.vars, {e: _norm_coef(c) for e, c in out.items()
                                     if c})

    def shift(self, var, delta):
        """Substitute var -> var + delta for a rational constant delta."""
        if delta == 0:
            return self
        i = self.vars.index(var)
        acc = {}  # each (var + delta)^e expanded binomially
        for exp, c in self.terms.items():
            e = exp[i]
            for t in range(e + 1):
                x = exp[:i] + (t,) + exp[i + 1:]
                acc[x] = acc.get(x, 0) + c * comb(e, t) * delta ** (e - t)
        return MultiPoly(self.vars, {e: _norm_coef(c) for e, c in acc.items()
                                     if c})

    def restrict(self, vars):
        """Project onto a smaller variable tuple (dropped vars must not occur)."""
        vars = tuple(vars)
        for j, v in enumerate(self.vars):
            if v not in vars and any(e[j] for e in self.terms):
                raise ValueError(f"variable {v} occurs, cannot drop")
        idx = [(vars.index(v), j)
               for j, v in enumerate(self.vars) if v in vars]
        terms = {}
        for exp, c in self.terms.items():
            nexp = [0] * len(vars)
            for tgt, src in idx:
                nexp[tgt] = exp[src]
            terms[tuple(nexp)] = c
        return MultiPoly(vars, terms)

    def embed(self, vars):
        """Reinterpret over a larger variable tuple."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        terms = {}
        for exp, c in self.terms.items():
            nexp = [0] * len(vars)
            for p, e in zip(pos, exp):
                nexp[p] = e
            terms[tuple(nexp)] = c
        return MultiPoly(vars, terms)

    # -- content, division, univariate views --------------------------------

    def _content_parts(self):
        """(gcd of the numerators, lcm of the denominators), both positive,
        of a nonzero polynomial."""
        num = 0
        den = 1
        for c in self.terms.values():
            n, d = _parts(c)
            num = _igcd(num, n)
            if den % d:
                den = lcm(den, d)
        return num, den

    def content(self):
        """Positive rational content (gcd of coefficients); 0 for zero poly."""
        if not self.terms:
            return 0
        return _ratio(*self._content_parts())

    def primitive(self):
        """Return (scale, prim) with self = scale*prim, prim integer-primitive
        with positive graded-lex leading coefficient."""
        if not self.terms:
            return 1, self
        num, den = self._content_parts()
        if self.leading_coeff() < 0:
            num = -num
        scale = _ratio(num, den)
        return scale, self._over(scale)

    def monic(self):
        """Divide by the graded-lex leading coefficient."""
        if not self.terms:
            return self
        return self._over(self.leading_coeff())

    def _over(self, c) -> "MultiPoly":
        """self / c for a nonzero int or Fraction c = num/den: each
        coefficient n/d becomes the integer quotient n*den / (d*num), or a
        Fraction where a denominator is left."""
        num, den = _parts(c)
        terms = {}
        for e, v in self.terms.items():
            n, d = _parts(v)
            terms[e] = _ratio(n * den, d * num)
        return MultiPoly(self.vars, terms)

    def divexact(self, other: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError if the division has a remainder."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if other.is_constant():
            return self._over(other.as_constant())
        out = _divide(self.terms, other.terms, _rational_quotient)
        if out is None:
            raise ValueError("inexact polynomial division")
        return MultiPoly(self.vars, out)

    def to_univar(self, var):
        """Dense coefficient list in `var`; entries keep the full tuple."""
        i = self.vars.index(var)
        d = self.degree(var)
        coeffs = [MultiPoly.zero(self.vars) for _ in range(d + 1)]
        for exp, c in self.terms.items():  # distinct exponents, no sums
            coeffs[exp[i]].terms[exp[:i] + (0,) + exp[i + 1:]] = c
        return coeffs

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exp) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def __repr__(self):
        return f"MultiPoly({self})"


def _product(vars, factors, const=1) -> MultiPoly:
    """const * prod(p^e) over the pairs (p, e) of factors, every p over the
    variable tuple vars and every e >= 0.  One dict keyed by packed exponents
    is multiplied by each factor e times over the integers.  The radix of
    variable i is 1 plus the sum of e * deg_i(p), so no digit carries; each
    factor's denominator is cleared once, and each key is unpacked and the
    common denominator divided out once, at the end."""
    num, den = _parts(const)
    factors = [(p, e) for p, e in factors if e]
    if not num or any(not p.terms for p, _ in factors):
        return MultiPoly(vars, {})
    radices = [1] * len(vars)
    for p, e in factors:
        for i, d in enumerate(map(max, zip(*p.terms))):
            radices[i] += e * d
    weights = [1]
    for r in radices[:-1]:
        weights.append(weights[-1] * r)
    acc = {0: num}
    for p, e in factors:
        d, terms = _cleared(p)
        den *= d ** e
        packed = [(sum(map(mul, exp, weights)), c) for exp, c in terms]
        for _ in range(e):
            out = {}
            get = out.get
            for k2, c2 in packed:
                for k1, c1 in acc.items():
                    k = k1 + k2
                    s = get(k, 0) + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        del out[k]
            acc = out
    return MultiPoly(vars, _unpacked(acc, radices, den))


def _poly_list_gcd(polys):
    g = None
    for p in polys:
        if p.is_zero():
            continue
        g = p if g is None else poly_gcd(g, p)
        if g.is_constant():
            break
    return g


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized to leading coefficient 1: GCDHEU
    on the integer-cleared operands (`_heuristic_gcd`), whose answer has
    passed an exact division of both."""
    if p.vars != q.vars:
        raise ValueError("operands must share one variable list")
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_constant() or q.is_constant():
        return MultiPoly.constant(p.vars, 1)
    g = _heuristic_gcd(dict(_cleared(p)[1]), dict(_cleared(q)[1]))
    return MultiPoly(p.vars, g).monic()


def _heuristic_gcd(f: dict, g: dict) -> dict:
    """gcd(f, g) up to sign, for integer term dicts f, g keyed by exponent
    tuples and not both zero: GCDHEU (B. Char, K. Geddes, G. Gonnet,
    J. Symbolic Comput. 7, 1989).

    With the integer contents split off, the last variable that occurs is
    set to xi >= 2 min(|f|, |g|) + 2 and the gcd h of the two evaluations is
    taken recursively, down to math.gcd.  The primitive part G of the
    polynomial whose coefficients are the symmetric xi-adic digits of h is
    the gcd of the primitive parts if it divides both (their theorem), and it
    is accepted only then; otherwise xi grows by the factor 73794/27011 and
    the level runs again.  Each level returns the whole gcd, content
    included, because the level above rebuilds its digits from it.

    The search ends, by induction on the number of variables that occur.
    Let D be the gcd of the primitive parts, which are D a and D b.  The
    cofactors a and b are coprime, so s a + t b = R for some polynomials
    s, t and a nonzero R free of the variable (their resultant in it, or
    the one of them that is free of it).  Every common factor of a(xi) and
    b(xi) divides R.  An irreducible factor of R of positive degree divides
    both for only finitely many xi, or it would divide a and b.  So for all
    but finitely many xi, h = C D(xi) up to sign, with C an integer that
    divides the content of R: |C| is bounded by a constant fixed by the
    inputs.  xi grows geometrically, so it passes those finitely many values
    and 2 |C| |D|; from there the digits of h are the coefficients of C D,
    G is D, and the division test passes.

    Cost: setting a variable to xi makes integers of about its degree times
    the bits of xi, so the one big-integer gcd at the bottom has about the
    product of the degrees times the bits of xi.  Nothing caps it: a large
    input is slow, never wrong.
    """
    if not f or not g:
        return f or g
    cf, cg = _igcd(*f.values()), _igcd(*g.values())
    gamma = _igcd(cf, cg)
    fdeg = list(map(max, zip(*f)))
    gdeg = list(map(max, zip(*g)))
    if not any(fdeg) or not any(gdeg):
        # a constant operand: the gcd is the gcd of the contents
        return {(0,) * len(fdeg): gamma}
    i = max(j for j, (a, b) in enumerate(zip(fdeg, gdeg)) if a or b)
    if cf > 1:
        f = {e: c // cf for e, c in f.items()}
    if cg > 1:
        g = {e: c // cg for e, c in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    degree = min(fdeg[i], gdeg[i])
    while True:
        h = _heuristic_gcd(_evaluate(f, i, xi), _evaluate(g, i, xi))
        G = _xi_adic(h, i, xi, degree)
        if G:
            c = _igcd(*G.values())
            if c > 1:
                G = {e: v // c for e, v in G.items()}
            if len(G) == 1 and not any(next(iter(G))) or (
                    _divide(f, G, _integer_quotient) is not None
                    and _divide(g, G, _integer_quotient) is not None):
                return {e: v * gamma for e, v in G.items()} if gamma > 1 else G
        xi = xi * 73794 // 27011


def _evaluate(f: dict, i: int, xi: int) -> dict:
    """f with the variable at index i set to xi; the slot stays, as 0."""
    powers = [1]
    for _ in range(max(e[i] for e in f)):
        powers.append(powers[-1] * xi)
    out = {}
    for e, c in f.items():
        if e[i]:
            c *= powers[e[i]]
            e = e[:i] + (0,) + e[i + 1:]
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _xi_adic(h: dict, i: int, xi: int, degree: int):
    """The polynomial in the variable at index i whose coefficients are the
    symmetric xi-adic digits of h (in (-xi/2, xi/2]), so that it is h at xi;
    None when it would pass the given degree."""
    half = xi >> 1
    out = {}
    for d in range(degree + 1):
        rest = {}
        for e, c in h.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e[:i] + (d,) + e[i + 1:]] = r
            if c != r:
                rest[e] = (c - r) // xi
        h = rest
        if not h:
            return out
    return None


def _dense_quotient(u, v):
    """u / v for dense integer coefficient lists, lowest degree first, with
    no trailing zeros, where v divides u in Z[x]; ArithmeticError if a
    division step is inexact."""
    n = len(v) - 1
    r = list(u)
    out = []
    while len(r) > n:
        t, rem = divmod(r.pop(), v[n])
        if rem:
            raise ArithmeticError("inexact dense quotient")
        out.append(t)
        if t:
            base = len(r) - n
            for j in range(n):
                r[base + j] -= t * v[j]
    if any(r):
        raise ArithmeticError("inexact dense quotient")
    return out[::-1]


def _primitive_ints(coeffs):
    g = _igcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


# ---------------------------------------------------------------------------
# affine forms, and the errors of reading and evaluating terms


class TermError(ValueError):
    pass


class ParseError(TermError):
    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at position {pos})")


class EvalError(TermError):
    pass


class LinearForm:
    """Affine combination of symbols with rational coefficients."""

    __slots__ = ("coeffs", "const", "_over")

    def __init__(self, coeffs=None, const=0):
        cs = {}
        for s, c in (coeffs or {}).items():
            c = _norm_coef(_as_fraction(c)) if not isinstance(c, int) else c
            if c != 0:
                cs[s] = c
        self.coeffs = cs
        self.const = _norm_coef(_as_fraction(const)) if not isinstance(const, int) else const
        self._over = None  # (den, [(symbol, int)], int constant)

    @classmethod
    def symbol(cls, name):
        return cls({name: 1}, 0)

    @classmethod
    def number(cls, c):
        return cls({}, c)

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "LinearForm":
        """The affine form of a polynomial of total degree at most 1."""
        if p.total_degree() > 1:
            raise ParseError(f"not affine: {p}")
        coeffs = {}
        const = 0
        for exp, c in p.terms.items():
            if any(exp):
                coeffs[p.vars[exp.index(1)]] = c
            else:
                const = c
        return cls(coeffs, const)

    def __add__(self, other):
        cs = dict(self.coeffs)
        for s, c in other.coeffs.items():
            cs[s] = cs.get(s, 0) + c
        return LinearForm(cs, self.const + other.const)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if c == 0:
            return LinearForm({}, 0)
        return LinearForm({s: v * c for s, v in self.coeffs.items()}, self.const * c)

    def add_const(self, c):
        return LinearForm(self.coeffs, self.const + c)

    def var_coeff(self, s):
        return self.coeffs.get(s, 0)

    def is_constant(self):
        return not self.coeffs

    def shift(self, var, delta):
        """Substitute var -> var + delta."""
        c = self.coeffs.get(var, 0)
        if c == 0 or delta == 0:
            return self
        return LinearForm(self.coeffs, self.const + c * delta)

    def substitute(self, point: dict):
        cs = {}
        const = self.const
        for s, c in self.coeffs.items():
            if s in point:
                const += c * point[s]
            else:
                cs[s] = c
        return LinearForm(cs, const)

    def at(self, point: dict):
        """The number self is at point where point assigns every symbol,
        an integer sum over one common denominator and one division; else
        the substituted form."""
        if self._over is None:
            parts = [(s, *_parts(c)) for s, c in self.coeffs.items()]
            cn, cd = _parts(self.const)
            den = lcm(cd, *(d for _, _, d in parts))
            self._over = den, [(s, n * (den // d)) for s, n, d in parts], \
                cn * (den // cd)
        den, terms, total = self._over
        try:
            for s, c in terms:
                total += c * point[s]
        except KeyError:
            return self.substitute(point)
        if type(total) is not int:
            return _norm_coef(total / den)
        return total if den == 1 else _ratio(total, den)

    def eval(self, point: dict):
        v = self.at(point)
        if type(v) is LinearForm:
            raise EvalError(f"unassigned symbols in {self}")
        return v

    def to_poly(self, vars) -> MultiPoly:
        items = [(tuple(1 if v == s else 0 for v in vars), c)
                 for s, c in self.coeffs.items()]
        if self.const != 0:
            items.append(((0,) * len(vars), self.const))
        return MultiPoly.from_terms(vars, items)

    def sort_key(self):
        # coefficients are stored normalized, and an int and the equal
        # Fraction compare and hash alike
        return tuple(sorted(self.coeffs.items())), self.const

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash(self.sort_key())

    def __str__(self):
        parts = []
        for s in sorted(self.coeffs):
            c = self.coeffs[s]
            if c == 1:
                parts.append(f"+{s}" if parts else s)
            elif c == -1:
                parts.append(f"-{s}")
            else:
                cs = str(c) if c > 0 or not parts else str(c)
                parts.append(f"+{cs}*{s}" if parts and c > 0 else f"{cs}*{s}")
        if self.const != 0 or not parts:
            c = self.const
            parts.append(f"+{c}" if parts and c > 0 else str(c))
        return "".join(parts)

    def __repr__(self):
        return f"LinearForm({self})"


class Record:
    """Fields named in order by the class's _fields: equal only to a record
    of the same class with equal fields, shown as Class(field=value, ...),
    and unhashable, since they can change.  Not dataclasses, which would
    slow every run's start-up (README, "Start-up")."""

    _fields = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self._fields
        given = dict(zip(names, args), **kwargs)
        values = {**self._defaults(), **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        vars(self).update(values)

    def _defaults(self):
        """The fields that may be left out, with fresh values."""
        return {}

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A Record whose fields are set only in __init__, through vars(self),
    and that hashes by them."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__
