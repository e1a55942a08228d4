"""Products of affine and opaque polynomial factors, kept unexpanded.

Shift quotients of hypergeometric terms are products of affine forms (plus
numerators/denominators of rational factors).  Keeping the factorization
makes shift-gcd structure (dispersions) cheap to read off, which is what the
Gosper normal form needs; expansion happens only at the end.  Each factor
pair keeps its own candidate shifts, the integer roots in j of its resultant
in k, and the normal form tests a pair only there, or at every shift when both
factors have a nonconstant k-content (a k-free factor, which the resultant
cannot see).  Those roots, and the roots of a leading recurrence coefficient,
come from one complete integer-root finder, integer_roots_univar: p-adic
lifting modulo one prime, with every candidate checked exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd

from .linalg import _int_det
from .polys import MultiPoly, _as_fraction, _norm_coef, _poly_list_gcd, poly_gcd
from .terms import LinearForm, TermError


def _normalize_affine(L: LinearForm, order):
    """Scale an affine form to coprime integer coefficients, sign-canonical
    w.r.t. the given symbol order.  Returns (scale, normal form) with
    L = scale * normal."""
    entries = [(s, _as_fraction(c)) for s, c in L.coeffs.items()]
    entries.append((None, _as_fraction(L.const)))
    num = 0
    den = 1
    for _, c in entries:
        num = _igcd(num, abs(c.numerator))
        den = den * c.denominator // _igcd(den, c.denominator)
    if num == 0:
        raise ValueError("zero affine form")
    scale = Fraction(num, den)
    lead = None
    for s in order:
        if s in L.coeffs:
            lead = L.coeffs[s]
            break
    if lead is None:
        lead = L.const
    if lead < 0:
        scale = -scale
    return scale, L.scale(1 / scale)


class Factored:
    """const * prod(affine_i ^ e_i) * prod(opaque_j ^ e_j)."""

    __slots__ = ("vars", "const", "aff", "opq")

    def __init__(self, vars, const=1, aff=None, opq=None):
        self.vars = tuple(vars)
        self.const = const
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

    def mul_const(self, c):
        self.const = _norm_coef(_as_fraction(self.const) * _as_fraction(c))
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
            return self.mul_const(_as_fraction(L.const) ** e)
        scale, normal = _normalize_affine(L, self.vars)
        self.mul_const(_as_fraction(scale) ** e)
        key = normal.sort_key()
        if key in self.aff:
            self.aff[key][1] += e
            if self.aff[key][1] == 0:
                del self.aff[key]
        else:
            self.aff[key] = [normal, e]
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
            return self.mul_const(_as_fraction(p.as_constant()) ** e)
        if p.total_degree() == 1:
            return self.mul_affine(LinearForm.from_poly(p), e)
        scale, prim = p.primitive()
        self.mul_const(_as_fraction(scale) ** e)
        key = prim.key()
        if key in self.opq:
            self.opq[key][1] += e
            if self.opq[key][1] == 0:
                del self.opq[key]
        else:
            self.opq[key] = [prim, e]
        return self

    def mul(self, other: "Factored"):
        self.mul_const(other.const)
        for f, e in other.aff.values():
            self.mul_affine(f, e)
        for p, e in other.opq.values():
            self.mul_poly(p, e)
        return self

    def shift(self, var, delta) -> "Factored":
        out = Factored(self.vars, self.const)
        for f, e in self.aff.values():
            out.mul_affine(f.shift(var, delta), e)
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
        out = MultiPoly.constant(self.vars, self.const)
        for f, e in self.aff.values():
            if e < 0:
                raise ValueError("cannot expand negative exponents")
            out = out * (f.to_poly(self.vars) ** e)
        for p, e in self.opq.values():
            if e < 0:
                raise ValueError("cannot expand negative exponents")
            out = out * (p ** e)
        return out

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
    out.mul_const(Fraction(1, 1) / _as_fraction(b.const))
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


def integer_roots_univar(coeffs) -> list:
    """Integer roots, ascending, of the univariate polynomial with the
    ascending Fraction/int coefficients coeffs, by p-adic lifting (Loos,
    SIAM J. Comput. 12, 1983; von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 15).  The zero root and the content are split off and f is
    the integer square-free part of the rest.  Its discriminant is nonzero,
    so some prime p divides neither it nor f's leading coefficient: every
    root of f mod p is then simple, and Newton's iteration lifts it to the
    one p-adic root above it, modulo p^m > 2B, B = 1 + max|c_i|/|lead| the
    Cauchy bound.  An integer root is the symmetric residue of one of these,
    with |r| <= B and f(r) = 0 exactly.  The search is complete: it never
    gives up.
    """
    x = ("x",)
    f = MultiPoly.from_terms(x, [((d,), c) for d, c in enumerate(coeffs)])
    if f.is_zero():
        raise ValueError("zero polynomial has every integer as a root")
    low = min(f.terms)[0]
    roots = [0] if low else []
    f = MultiPoly(x, {(d - low,): c for (d,), c in f.terms.items()})
    df = MultiPoly(x, {(d - 1,): _norm_coef(d * c)
                       for (d,), c in f.terms.items() if d})
    if df.is_zero():
        return roots
    f = f.divexact(poly_gcd(f, df)).primitive()[1]
    ints = [f.terms.get((d,), 0) for d in range(f.degree("x") + 1)]
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
        if abs(r) <= bound and f.eval({"x": r}) == 0:
            roots.append(r)
    return sorted(roots)


def integer_roots_in_var(p: MultiPoly, var) -> list:
    """Integers v0 with p(var=v0) identically zero in the other variables,
    ascending.  The candidates are the integer roots of one slice, the
    coefficients in var of one monomial of p's leading coefficient: a root
    of p is a root of every slice."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    coeffs = p.to_univar(var)
    mono = min(coeffs[-1].terms)
    slice_ = [c.terms.get(mono, 0) for c in coeffs]
    return [v for v in integer_roots_univar(slice_)
            if p.eval_partial({var: v}).is_zero()]


# ---------------------------------------------------------------------------
# dispersion and the Gosper normal form


def _sylvester_resultant(f_coeffs, g_coeffs, vars):
    """Resultant of two univariate polynomials with MultiPoly coefficients
    (ascending lists): the determinant of the Sylvester matrix."""
    m = len(f_coeffs) - 1
    n = len(g_coeffs) - 1
    if m < 0 or n < 0:
        return MultiPoly.zero(vars)
    size = m + n
    if size == 0:
        return MultiPoly.constant(vars, 1)
    zero = MultiPoly.zero(vars)
    rows = []
    frow = list(reversed(f_coeffs))
    grow = list(reversed(g_coeffs))
    for i in range(n):
        rows.append([zero] * i + frow + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + grow + [zero] * (size - i - n - 1))
    return _int_det(rows)


_JVAR = "_j"


def _shift_candidates(fq, fr, k, vars):
    """Nonnegative integers j with gcd(fq(k), fr(k+j)) nontrivial, for one
    factor from each side.  fq, fr are (poly, is_affine, form)."""
    pq, aq, Lq = fq
    pr, ar, Lr = fr
    if aq and Lq.var_coeff(k) == 0:
        return []
    if ar and Lr.var_coeff(k) == 0:
        return []
    if not aq and pq.degree(k) == 0:
        return []
    if not ar and pr.degree(k) == 0:
        return []
    if aq and ar:
        alpha1 = _as_fraction(Lq.var_coeff(k))
        alpha2 = _as_fraction(Lr.var_coeff(k))
        lam = alpha2 / alpha1
        c1 = {s: c for s, c in Lq.coeffs.items() if s != k}
        c2 = {s: c for s, c in Lr.coeffs.items() if s != k}
        if {s: _as_fraction(c) * lam for s, c in c1.items()} != \
                {s: _as_fraction(c) for s, c in c2.items()}:
            return []
        j = _as_fraction(Lq.const) / alpha1 - _as_fraction(Lr.const) / alpha2
        if j.denominator == 1 and j >= 0:
            return [int(j)]
        return []
    jvars = vars + (_JVAR,)
    jpoly = MultiPoly.variable(jvars, _JVAR)
    kpoly = MultiPoly.variable(jvars, k)
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
        gq = pq.embed(jvars)
        gr = pr.embed(jvars).subst_linear(k, kpoly + jpoly)
        h = _sylvester_resultant(gq.to_univar(k), gr.to_univar(k), jvars)
    if h.is_zero():
        raise TermError("degenerate shift structure (identically zero resultant)")
    if h.is_constant():
        return []
    if h.degree(_JVAR) <= 0:
        return []
    return [j for j in integer_roots_in_var(h, _JVAR) if j >= 0]


def _k_factors(f: Factored, k):
    """The factors of f that involve k, as ((kind, key), poly, form-or-None),
    affine ones first, each group in storage order."""
    out = [(("aff", key), L.to_poly(f.vars), L) for key, (L, e) in f.aff.items()
           if e > 0 and L.var_coeff(k) != 0]
    out += [(("opq", key), p, None) for key, (p, e) in f.opq.items()
            if e > 0 and p.degree(k) > 0]
    return out


def dispersion_set(num: Factored, den: Factored, k) -> dict:
    """For each pair (num factor, den factor), both involving k, the
    integers j >= 0 at which the two share a factor that involves k."""
    return {(fq, fr): _shift_candidates((pq, Lq is not None, Lq),
                                        (pr, Lr is not None, Lr), k, num.vars)
            for fq, pq, Lq in _k_factors(num, k)
            for fr, pr, Lr in _k_factors(den, k)}


def gosper_normal(ratio_num: Factored, ratio_den: Factored, k):
    """Decompose num/den = pbar(k+1)/pbar(k) * q(k)/r(k) with
    gcd(q(k), r(k+j)) = 1 for every integer j >= 0.

    The peeled factors accumulate in pbar; q keeps the constant.  Dispersion
    j = 0 doubles as plain cancellation of common factors.  At each j, the
    first factor pair (q side outer) with a nontrivial gcd at shift j is
    peeled until none is left.  A pair is tested only at its candidates from
    dispersion_set, or at every j if both factors have a nonconstant k-content
    (gcd of the k-coefficients).  A quotient left by a peel divides its
    parent, so it inherits the parent's candidates and flag.
    """
    if ratio_num.is_zero():
        raise ValueError("zero shift quotient")
    q = ratio_num.copy()
    r = ratio_den.copy()
    pbar = Factored.one(q.vars)
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
                    if _normalize_affine(Lr.shift(k, j), q.vars)[1] == Lq:
                        g = pq
                        break
                else:
                    g = poly_gcd(pq, pr.shift(k, j))
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
