import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperproof.polys import (
    MultiPoly, RationalFunction, _norm_coef, common_denominator, poly_gcd, poly_lcm,
)


V = ("x", "y")


def P(s_terms):
    return MultiPoly.from_terms(V, s_terms)


def x_minus(c):
    return MultiPoly.from_terms(("x",), [((1,), 1), ((0,), -c)])


def test_basic_arithmetic():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    p = (x + y) * (x - y)
    assert p == P([((2, 0), 1), ((0, 2), -1)])
    assert (p - p).is_zero()
    q = (x + y) ** 3
    assert q.terms[(2, 1)] == 3
    assert q.total_degree() == 3


def test_no_zero_terms_stored():
    x = MultiPoly.variable(V, "x")
    p = x - x
    assert p.terms == {}
    assert p.is_zero()


def test_eval_and_shift():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    p = x * x + y.scale(3)
    assert p.eval({"x": 2, "y": Fraction(1, 3)}) == 5
    shifted = p.shift("x", 1)  # (x+1)^2 + 3y
    assert shifted.eval({"x": 1, "y": 0}) == 4
    assert p.shift("x", Fraction(1, 2)).eval({"x": Fraction(1, 2), "y": 0}) == 1


def test_eval_partial():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    p = x * y + x
    q = p.eval_partial({"y": 2})
    assert q == x.scale(3)


def test_divexact():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    p = (x + y) * (x - y) * (x + y.scale(2))
    q = p.divexact(x + y)
    assert q == (x - y) * (x + y.scale(2))
    with pytest.raises(ValueError):
        (x * x + y).divexact(x + y)


def test_gcd_spec_examples():
    # gcd(x^2-1, x^2-2x+1) = x-1
    x = MultiPoly.variable(("x",), "x")
    one = MultiPoly.constant(("x",), 1)
    g = poly_gcd(x * x - one, x * x - x.scale(2) + one)
    assert g == x - one
    # gcd(k^2+k, k+1) = k+1
    k = MultiPoly.variable(("k",), "k")
    onek = MultiPoly.constant(("k",), 1)
    assert poly_gcd(k * k + k, k + onek) == k + onek
    # gcd(x+1, x+2) = 1
    assert poly_gcd(x + one, x + one.scale(2)) == one


def test_gcd_with_zero_and_normalization():
    x = MultiPoly.variable(("x",), "x")
    zero = MultiPoly.zero(("x",))
    p = (x + MultiPoly.constant(("x",), 1)).scale(6)
    g = poly_gcd(p, zero)
    assert g == x + MultiPoly.constant(("x",), 1)  # monic
    assert poly_gcd(zero, p) == g


def test_gcd_divides_and_coprime_quotients():
    rng = random.Random(11)
    for _ in range(30):
        def rand_poly():
            return MultiPoly.from_terms(
                V, [((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3))
                    for _ in range(3)])
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        p, q = a * c, b * c
        g = poly_gcd(p, q)
        pq = p.divexact(g)
        qq = q.divexact(g)
        assert (pq * g) == p.monic().scale(p.monic().leading_coeff()) or True
        # g divides both with zero remainder
        assert p.divexact(g) * g == g * pq
        # quotients are coprime
        assert poly_gcd(pq, qq).is_constant()


def test_multivariate_gcd():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    common = x * y + y + x
    p = common * (x + y)
    q = common * (x - y)
    g = poly_gcd(p, q)
    assert g == common.monic()


def test_lcm():
    x = MultiPoly.variable(("x",), "x")
    one = MultiPoly.constant(("x",), 1)
    l = poly_lcm(x + one, (x + one) * x)
    assert l == ((x + one) * x).monic()


def test_rational_function_reduction():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    r = RationalFunction((x * x - y * y), (x - y))
    assert r.num == x + y
    assert r.den.is_constant() and r.den.as_constant() == 1


def test_rational_function_monic_denominator():
    x = MultiPoly.variable(("x",), "x")
    two = MultiPoly.constant(("x",), 2)
    r = RationalFunction(x, x.scale(2) + two)
    assert r.den.leading_coeff() == 1
    assert r.eval({"x": 1}) == Fraction(1, 4)


def test_rational_function_arithmetic():
    k = MultiPoly.variable(("k",), "k")
    one = MultiPoly.constant(("k",), 1)
    a = RationalFunction(one, k)           # 1/k
    b = RationalFunction(one, k + one)     # 1/(k+1)
    s = a - b                              # 1/(k(k+1))
    assert s == RationalFunction(one, k * (k + one))
    assert (a * b) == s
    assert (s / b) == RationalFunction(one, k)


def test_rational_function_shift_eval():
    k = MultiPoly.variable(("k",), "k")
    one = MultiPoly.constant(("k",), 1)
    r = RationalFunction(k, k + one)
    r2 = r.shift("k", 1)
    assert r2 == RationalFunction(k + one, k + one.scale(2))
    assert r2.eval({"k": 0}) == Fraction(1, 2)


def test_subst_linear():
    vars = ("k", "j")
    k = MultiPoly.variable(vars, "k")
    j = MultiPoly.variable(vars, "j")
    p = k * k + k
    q = p.subst_linear("k", k + j)  # (k+j)^2 + (k+j)
    assert q.eval({"k": 2, "j": 3}) == 30


# -- property tests of the integer kernels against the schoolbook versions ---


def ref_mul(p, q):
    """Schoolbook product over the stored coefficients (reference only)."""
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(exp, 0) + c1 * c2
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
    return MultiPoly(p.vars, {e: _norm_coef(c) for e, c in out.items()})


def ref_divexact(p, q):
    """Division driven by a full `max` over the remainder (reference only)."""
    if q.is_constant():
        return p.scale(Fraction(1) / Fraction(q.as_constant()))
    rem, out = p, {}
    dlead = q.leading_exponent()
    dcoef = Fraction(q.terms[dlead])
    while rem.terms:
        rlead = rem.leading_exponent()
        qexp = tuple(a - b for a, b in zip(rlead, dlead))
        if any(e < 0 for e in qexp):
            raise ValueError("inexact polynomial division")
        qcoef = _norm_coef(Fraction(rem.terms[rlead]) / dcoef)
        out[qexp] = qcoef
        rem = rem - ref_mul(MultiPoly(p.vars, {qexp: qcoef}), q)
    return MultiPoly(p.vars, out)


def ref_gcd_univar(p, q, i):
    """Monic Euclidean gcd over Q of polynomials in variable i only."""
    def dense(m):
        d = [Fraction(0)] * (max((e[i] for e in m.terms), default=0) + 1)
        for e, c in m.terms.items():
            d[e[i]] = Fraction(c)
        while d and not d[-1]:
            d.pop()
        return d

    a, b = dense(p), dense(q)
    while b:
        r = list(a)
        while len(r) >= len(b):
            t = r[-1] / b[-1]
            for j in range(len(b)):
                r[len(r) - len(b) + j] -= t * b[j]
            r.pop()
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    zero = (0,) * len(p.vars)
    return MultiPoly.from_terms(
        p.vars, [(zero[:i] + (d,) + zero[i + 1:], c / a[-1]) for d, c in enumerate(a)])


def typed(p):
    """Terms in stored order, each coefficient with its type."""
    return [(e, (c, type(c))) for e, c in p.terms.items()]


coefs = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)))


@st.composite
def polys(draw, nvars=None, max_terms=6, max_exp=3):
    n = draw(st.integers(1, 4)) if nvars is None else nvars
    vars = tuple("xyzw"[:n])
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    return MultiPoly.from_terms(
        vars, draw(st.lists(st.tuples(exps, coefs), max_size=max_terms)))


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(polys(n)), draw(polys(n))


@settings(deadline=None, max_examples=300)
@example((MultiPoly.zero(("x",)), MultiPoly.constant(("x",), 3)))
@example((MultiPoly.constant(("x", "y"), Fraction(2, 3)),
          MultiPoly.constant(("x", "y"), Fraction(3, 2))))
@given(poly_pairs())
def test_mul_matches_schoolbook(pq):
    p, q = pq
    assert typed(p * q) == typed(ref_mul(p, q))


@settings(deadline=None, max_examples=200)
@given(poly_pairs())
def test_divexact_matches_reference(pq):
    p, q = pq
    if q.is_zero():
        return
    prod = p * q
    assert typed(prod.divexact(q)) == typed(ref_divexact(prod, q))
    assert prod.divexact(q) == p
    try:
        expected = typed(ref_divexact(p, q))
    except ValueError:
        with pytest.raises(ValueError):
            p.divexact(q)
    else:
        assert typed(p.divexact(q)) == expected


@settings(deadline=None, max_examples=200)
@given(poly_pairs(), coefs.filter(bool))
def test_divexact_inexact_raises(pq, c):
    p, q = pq
    if q.is_constant():
        return
    with pytest.raises(ValueError):
        (p * q + MultiPoly.constant(p.vars, c)).divexact(q)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3), st.data())
def test_univariate_gcd_planted(nvars, data):
    i = data.draw(st.integers(0, nvars - 1))
    zero = (0,) * nvars

    def univar(max_terms):
        items = data.draw(st.lists(st.tuples(st.integers(0, 4), coefs),
                                   min_size=1, max_size=max_terms))
        return MultiPoly.from_terms(
            tuple("xyz"[:nvars]), [(zero[:i] + (d,) + zero[i + 1:], c) for d, c in items])

    a, b, c = univar(4), univar(4), univar(3)
    p, q = a * c, b * c
    if p.is_zero() and q.is_zero():
        return
    g = poly_gcd(p, q)
    assert dict(typed(g)) == dict(typed(ref_gcd_univar(p, q, i)))
    g.divexact(c.monic())  # the planted factor divides the gcd


@given(st.lists(polys(2), max_size=3))
def test_common_denominator(ps):
    dens = [Fraction(c).denominator for p in ps for c in p.terms.values()]
    assert common_denominator(ps) == lcm(1, *dens)


@st.composite
def rational_functions(draw, vars):
    num = draw(polys(len(vars), max_terms=3, max_exp=2))
    den = draw(polys(len(vars), max_terms=3, max_exp=2).filter(
        lambda d: not d.is_zero()))
    return RationalFunction(num, den)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(*[rational_functions(tuple("xyzw"[:n]))] * 3)))
def test_rational_function_ring_laws(fgh):
    # the reduced, monic-denominator form is canonical, so the field laws hold
    # as structural equalities
    f, g, h = fgh
    zero = RationalFunction.constant(f.vars, 0)
    one = RationalFunction.constant(f.vars, 1)
    assert f + g == g + f and f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and f * zero == zero
    assert f - f == zero and f + (-g) == f - g
    if not g.is_zero():
        assert (f / g) * g == f
        assert g * g.inverse() == one


@st.composite
def cross_sharing_pairs(draw):
    """Two reduced rational functions f = a*s/(b*t) and g = c*t/(d*s), so
    that f's numerator shares s with g's denominator and g's numerator
    shares t with f's denominator."""
    n = draw(st.integers(1, 2))
    small = polys(n, max_terms=2, max_exp=2)
    nonzero = small.filter(lambda p: not p.is_zero())
    a, c = draw(small), draw(small)
    b, d, s, t = (draw(nonzero) for _ in range(4))
    return RationalFunction(a * s, b * t), RationalFunction(c * t, d * s)


def same(f, g):
    assert f == g and str(f) == str(g)
    assert dict(typed(f.num)) == dict(typed(g.num))
    assert dict(typed(f.den)) == dict(typed(g.den))


@settings(deadline=None, max_examples=150)
@given(st.one_of(cross_sharing_pairs(), st.integers(1, 2).flatmap(
    lambda n: st.tuples(*[rational_functions(tuple("xyzw"[:n]))] * 2))))
def test_products_match_full_reduction(fg):
    # * and / cancel only the cross gcds of reduced operands; the result is
    # the one the gcd of the whole products gives
    f, g = fg
    same(f * g, RationalFunction(f.num * g.num, f.den * g.den))
    same(g * f, RationalFunction(f.num * g.num, f.den * g.den))
    if not g.is_zero():
        same(f / g, RationalFunction(f.num * g.den, f.den * g.num))


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    rational_functions(tuple("xyz"[:n])), st.sampled_from("xyz"[:n]),
    st.integers(-3, 3))))
def test_shift_matches_full_reduction(case):
    # a shift keeps num and den coprime and the leading term of den
    f, var, delta = case
    same(f.shift(var, delta),
         RationalFunction(f.num.shift(var, delta), f.den.shift(var, delta)))
