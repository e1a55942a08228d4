import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperproof.factored import (
    Factored, factored_common, factored_free_of, factored_lcm,
    factored_quotient, sum_vanishes,
)
from hyperproof.linalg import clear_and_primitive
from hyperproof.polys import (
    MultiPoly, _cleared, _heuristic_gcd, _norm_coef, _unpacked,
    common_denominator, poly_gcd,
)
from hyperproof.terms import LinearForm
from oracles import (
    Quotient, clear_and_primitive_reference, expand_reference,
    factored_mul_reference, factored_shift_reference, factored_split_reference,
    factored_value_reference, poly_key_reference, poly_lcm, pow_reference,
    prs_gcd_reference, sort_key_reference, unpack_reference,
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


# the oracles' reduced quotient, the reference arithmetic of the tests


def test_rational_function_reduction():
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    r = Quotient((x * x - y * y), (x - y))
    assert r.num == x + y
    assert r.den.is_constant() and r.den.as_constant() == 1


def test_rational_function_monic_denominator():
    x = MultiPoly.variable(("x",), "x")
    two = MultiPoly.constant(("x",), 2)
    r = Quotient(x, x.scale(2) + two)
    assert r.den.leading_coeff() == 1
    assert (r.num, r.den) == (x.scale(Fraction(1, 2)),
                              x + MultiPoly.constant(("x",), 1))


def test_rational_function_arithmetic():
    k = MultiPoly.variable(("k",), "k")
    one = MultiPoly.constant(("k",), 1)
    a = Quotient(one, k)           # 1/k
    b = Quotient(one, k + one)     # 1/(k+1)
    s = a - b                      # 1/(k(k+1))
    assert s == Quotient(one, k * (k + one))
    assert (a * b) == s
    assert (s / b) == Quotient(one, k)


def test_rational_function_shift_eval():
    # Factored, the program's rational type: a shift moves each factor
    k = MultiPoly.variable(("k",), "k")
    one = MultiPoly.constant(("k",), 1)
    r = factored_of(k, k + one)
    r2 = r.shift("k", 1)
    assert r2 == factored_of(k + one, k + one.scale(2))
    num, den = (side.expand() for side in r2.split())
    assert Fraction(num.eval({"k": 0}), den.eval({"k": 0})) == Fraction(1, 2)


def factored_of(num: MultiPoly, den: MultiPoly) -> Factored:
    """num/den as a Factored of the two polynomials, with no gcd."""
    return Factored.one(num.vars).mul_poly(num, 1).mul_poly(den, -1)


def same_value(f: Factored, r: Quotient):
    """Whether a Factored and a Quotient are one rational function: equal
    by cross-multiplication."""
    num, den = (side.expand() for side in f.split())
    return num * r.den == r.num * den


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


def well_typed(p):
    """Every stored coefficient is nonzero, and an int unless it is a
    non-integral rational."""
    return all(c and (type(c) is int or type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def outcome(compute):
    """The variables and the terms, each coefficient with its type, of the
    well-typed polynomial compute() returns, or the class and message of
    the ValueError it raises."""
    try:
        p = compute()
    except ValueError as exc:
        return type(exc), str(exc)
    assert well_typed(p), p
    return p.vars, sorted(typed(p))


@st.composite
def factored_products(draw, nvars=None):
    """A Factored product over 1-4 variables (nvars if given): an int,
    Fraction or zero constant, affine forms with Fraction coefficients and
    opaque factors, exponents 0-3, now and then -1."""
    n = draw(st.integers(1, 4)) if nvars is None else nvars
    vars = tuple("xyzw"[:n])
    f = Factored(vars, draw(coefs) if draw(st.integers(0, 7)) else 0)
    exps = st.sampled_from((0, 1, 2, 3) * 4 + (-1,))
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            L = LinearForm(dict(zip(vars, draw(st.lists(coefs, min_size=n,
                                                        max_size=n)))),
                           draw(coefs))
            if L.coeffs or L.const:
                f.mul_affine(L, draw(exps))
        else:
            p = draw(polys(n, max_terms=4, max_exp=2))
            if p:
                f.mul_poly(p, draw(exps))
    return f


@settings(deadline=None, max_examples=300)
@given(factored_products())
def test_expand_matches_the_factor_by_factor_product(f):
    assert outcome(f.expand) == outcome(lambda: expand_reference(f))


def stored(f):
    """The constant and the factor table of a Factored, ids included."""
    return f.const, {fid: (g, e) for fid, (g, e) in f.facs.items()}


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    factored_products(n), factored_products(n),
    st.sampled_from("xyzw"[:n]), st.integers(-3, 3))))
def test_mul_and_shift_take_the_stored_factors_as_normalized(case):
    # mul and an integer shift skip _normalize_affine: they must store what
    # mul_affine would
    f, g, var, delta = case
    assert stored(f.copy().mul(g)) == stored(factored_mul_reference(f, g))
    assert stored(f.shift(var, delta)) == \
        stored(factored_shift_reference(f, var, delta))


def in_order(f):
    """The constant and the factor table of a Factored, in storage order."""
    return f.const, [(fid, g if fid[0] == "aff" else typed(g), e)
                     for fid, (g, e) in f.facs.items()]


def quotients(n):
    """f / g for Factored products f, g over n variables, g nonzero: mixed
    exponents, an int, Fraction or zero constant."""
    return st.tuples(factored_products(n), factored_products(n).filter(
        lambda g: not g.is_zero())).map(lambda fg: fg[0].copy().mul(fg[1], -1))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.integers(1, 4).flatmap(quotients))
def test_split_copies_the_stored_normal_forms(f):
    # split runs no normalization: each side holds the keys, forms and
    # exponents, in the same order, that normalizing every factor again
    # gives, and expands to the same polynomial
    got, ref = f.split(), factored_split_reference(f)
    for side, ref_side in zip(got, ref):
        assert in_order(side) == in_order(ref_side)
        assert typed(side.expand()) == typed(ref_side.expand())
    # the sides are copies: growing one leaves f as it was
    before = in_order(f)
    for side in got:
        for entry in side.facs.values():
            entry[1] += 1
    assert in_order(f) == before


def _points(values, rng, count=3):
    """count random integer points of the values' variables at which no
    factor of any value vanishes."""
    points = []
    while len(points) < count:
        point = {v: rng.randint(-10 ** 4, 10 ** 4) for v in values[0].vars}
        if all(p.eval(point) for v in values for p in v.factors()):
            points.append(point)
    return points


def _as_one_fraction(a, b):
    """a + b as one Factored: the expanded numerator over the product of
    the two denominators, as factored_split_reference gives them."""
    (an, ad), (bn, bd) = factored_split_reference(a), \
        factored_split_reference(b)
    num = an.mul(bd).expand() + bn.mul(ad).expand()
    return Factored(a.vars).mul_poly(num, 1).mul(ad, -1).mul(bd, -1)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(quotients(n), min_size=1,
                                                     max_size=3)))
def test_sum_vanishes_matches_fraction_values(values):
    # against the exact Fraction sum at random points: random sums, which
    # do not vanish unless they cancel, and sums made to vanish by one
    # value equal to the sum of two others, with and without a constant
    # added
    rng = random.Random(len(values))
    points = _points(values, rng)

    def vanishes_at_points(plus, minus=()):
        return all(sum(factored_value_reference(v, pt) for v in plus)
                   == sum(factored_value_reference(v, pt) for v in minus)
                   for pt in points)

    assert sum_vanishes(values) == vanishes_at_points(values)
    if len(values) >= 2:
        a, b, *rest = values
        both = _as_one_fraction(a, b)
        assert vanishes_at_points([a, b], [both])
        assert sum_vanishes([a, b], [both])
        assert sum_vanishes(values, [both] + rest)
        one = Factored(a.vars, 1)
        assert not sum_vanishes([a, b, one], [both])
        assert not vanishes_at_points([a, b, one], [both])



def numerators(n):
    """Factored products over n variables with positive exponents: the
    numerators of factored_products."""
    return factored_products(n).map(lambda f: f.split()[0])


def values_agree(lhs, rhs, factors):
    """Whether the products of the Factored lists lhs and rhs have the same
    exact value at three random points where no factor of factors
    vanishes."""
    for point in _points(factors, random.Random(len(factors))):
        if prod(factored_value_reference(v, point) for v in lhs) != \
                prod(factored_value_reference(v, point) for v in rhs):
            return False
    return True


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    numerators(n), numerators(n).filter(lambda b: not b.is_zero()))))
def test_quotient_times_the_divisor_is_the_dividend(case):
    c, b = case
    a = c.copy().mul(b)
    q = factored_quotient(a, b)
    assert stored(q.copy().mul(b)) == stored(a)
    assert values_agree([q, b], [a], [a, b, c])


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    numerators(n).filter(lambda f: not f.is_zero()), min_size=1,
    max_size=4)))
def test_every_item_divides_the_lcm_exactly(items):
    # the lcm has constant 1, and each cofactor lcm / item has positive
    # exponents only: its split leaves no denominator
    lcm_ = factored_lcm(items)
    assert lcm_.const == 1
    for item in items:
        q = factored_quotient(lcm_, item)
        assert q.split()[1].expand() == MultiPoly.constant(item.vars, 1)
        assert values_agree([q, item], [lcm_], items)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    numerators(n), numerators(n), numerators(n))))
def test_the_common_part_divides_both_sides(case):
    # a and b share at least the factors of s, which divides their common
    # part
    s, a0, b0 = case
    a, b = a0.copy().mul(s), b0.copy().mul(s)
    common = factored_common(a, b)
    assert common.const == 1
    for side in (a, b):
        q = factored_quotient(side, common)
        assert values_agree([q, common], [side], [a, b])
    if not s.is_zero():
        q = factored_quotient(common, s)
        assert values_agree([q, s], [common], [a, b])


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    quotients(n), st.sampled_from("xyzw"[:n]))))
def test_free_of_has_no_var_and_divides(case):
    a, var = case
    free = factored_free_of(a, var)
    assert free.const == 1
    for side in free.split():
        assert side.expand().degree(var) == 0
    q = factored_quotient(a, free)
    assert values_agree([q, free], [a], [a])


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    numerators(n), polys(n, max_terms=3, max_exp=2).filter(
        lambda p: not p.is_constant()),
    polys(n, max_terms=3, max_exp=2).filter(bool), st.integers(1, 3))))
def test_divide_factor_keeps_the_value_with_the_divisor_multiplied_back(case):
    # a nonconstant divisor p of a stored factor p * s, not a monomial,
    # which is stored as affine factors, and every stored factor with a
    # positive exponent by itself
    f, p, s, e = case
    assume(len((p * s).terms) > 1)
    (fid,) = Factored(f.vars).mul_poly(p * s, 1).facs
    f.mul_poly(p * s, e)
    g = f.copy()
    g.divide_factor(fid, p)
    assert values_agree([g.mul_poly(p, 1)], [f], [f])
    for (fid, (_, exp)), d in zip(f.facs.items(), f.factors()):
        if exp > 0:
            g = f.copy()
            g.divide_factor(fid, d)
            assert values_agree([g.mul_poly(d, 1)], [f], [f])


@settings(deadline=None, max_examples=300)
@given(polys(max_terms=4), st.integers(-1, 4))
def test_pow_matches_square_and_multiply(p, n):
    assert outcome(lambda: p ** n) == outcome(lambda: pow_reference(p, n))


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(polys(n, max_terms=3, max_exp=2), min_size=1, max_size=4),
    polys(n, max_terms=3, max_exp=2).filter(bool))))
def test_clear_and_primitive_matches_the_monic_division(case):
    # the vector shares the polynomial factor s, which may be a constant
    ps, s = case
    vec = [p * s for p in ps]
    got = clear_and_primitive(vec)
    assert [sorted(typed(p)) for p in got] == \
        [sorted(typed(p)) for p in clear_and_primitive_reference(vec)]
    assert all(map(well_typed, got))


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


def is_coefficient(c):
    """A stored coefficient: a nonzero int, or a Fraction that is not one."""
    return type(c) is int and c != 0 or type(c) is Fraction and c.denominator != 1


def normalized(p):
    return all(map(is_coefficient, p.terms.values()))


@settings(deadline=None, max_examples=300)
@given(poly_pairs(), coefs.filter(bool))
def test_kernels_store_ints_unless_a_denominator_survives(pq, c):
    p, q = pq
    assert normalized(p + q) and normalized(p - q) and normalized(p * q)
    assert normalized(p.scale(c)) and normalized(p.monic())
    assert normalized(p.divexact(MultiPoly.constant(p.vars, c)))
    if not q.is_zero():
        assert normalized((p * q).divexact(q))
        rf = Quotient(p, q)
        assert normalized(rf.num) and normalized(rf.den)
    if not p.is_zero():
        scale, prim = p.primitive()
        assert is_coefficient(p.content()) and is_coefficient(scale)
        assert normalized(prim) and prim.scale(scale) == p
        assert all(type(v) is int for v in prim.terms.values())


linear_forms = st.builds(
    LinearForm, st.dictionaries(st.sampled_from("kna"), coefs, max_size=3),
    coefs)


@settings(deadline=None, max_examples=300)
@given(st.lists(polys(2), max_size=4), st.lists(linear_forms, max_size=4))
def test_unboxed_keys_match_the_boxed_ones(ps, forms):
    # an int and the equal Fraction compare and hash alike, so dict lookups
    # and factor sort order are those of the Fraction-boxed keys
    for p in ps:
        assert p.key() == poly_key_reference(p)
        assert hash(p.key()) == hash(poly_key_reference(p))
    for L in forms:
        assert L.sort_key() == sort_key_reference(L)
        assert hash(L.sort_key()) == hash(sort_key_reference(L))
    assert sorted(forms, key=LinearForm.sort_key) == \
        sorted(forms, key=sort_key_reference)


@st.composite
def packed_accumulators(draw):
    """(acc, radices, den): 0-6 radices of 1-40, and an accumulator of up
    to 30 distinct keys below their product with nonzero integer values,
    some past 2^64, over a common denominator den."""
    radices = draw(st.lists(st.integers(1, 40), max_size=6))
    keys = st.integers(0, prod(radices) - 1)
    values = st.integers(-2 ** 70, 2 ** 70).filter(bool)
    acc = draw(st.dictionaries(keys, values, max_size=30))
    return acc, radices, draw(st.sampled_from([1, 1, 2, 6, 35]))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(packed_accumulators())
def test_unpacking_in_one_pass_matches_the_key_by_key_digits(case):
    # one comprehension per arity from one to four variables, digit lists
    # zipped beyond: the tuples, values and order of unpacking one key at a
    # time, each value over den as _product and __mul__ store it
    acc, radices, den = case
    got = _unpacked(acc, radices, den)
    want = {unpack_reference(k, radices): _norm_coef(Fraction(c, den))
            for k, c in acc.items()}
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


@settings(deadline=None, max_examples=300, derandomize=True)
@given(linear_forms, st.dictionaries(st.sampled_from("kna"), st.one_of(
    st.integers(-10 ** 6, 10 ** 6), coefs), max_size=3))
def test_linear_form_at_matches_the_fraction_sum(L, point):
    # the form over one integer common denominator gives the value of the
    # Fraction sum, with its type, at integer and rational points, and the
    # substituted form where point leaves a symbol of L free; a second
    # evaluation reads the same
    if L.coeffs.keys() <= point.keys():
        want = _norm_coef(Fraction(L.const) + sum(
            Fraction(c) * point[s] for s, c in L.coeffs.items()))
        assert (L.at(point), type(L.at(point))) == (want, type(want))
    else:
        assert L.at(point) == L.substitute(point)
    assert L.at(point) == L.at(point)


@st.composite
def rational_functions(draw, vars):
    num = draw(polys(len(vars), max_terms=3, max_exp=2))
    den = draw(polys(len(vars), max_terms=3, max_exp=2).filter(
        lambda d: not d.is_zero()))
    return num, den


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(*[rational_functions(tuple("xyzw"[:n]))] * 3)))
def test_rational_function_ring_laws(fgh):
    # the oracles' reduced, monic-denominator form is canonical, so the
    # field laws hold as structural equalities
    f, g, h = (Quotient(*nd) for nd in fgh)
    zero = Quotient.constant(f.vars, 0)
    one = Quotient.constant(f.vars, 1)
    assert f + g == g + f and f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and f * zero == zero
    assert f - f == zero and f + (-g) == f - g
    if not g.is_zero():
        assert (f / g) * g == f
        assert g * (one / g) == one


@st.composite
def cross_sharing_pairs(draw):
    """Two quotients f = a*s/(b*t) and g = c*t/(d*s), as (num, den) pairs,
    so that f's numerator shares s with g's denominator and g's numerator
    shares t with f's denominator."""
    n = draw(st.integers(1, 2))
    small = polys(n, max_terms=2, max_exp=2)
    nonzero = small.filter(lambda p: not p.is_zero())
    a, c = draw(small), draw(small)
    b, d, s, t = (draw(nonzero) for _ in range(4))
    return (a * s, b * t), (c * t, d * s)


@settings(deadline=None, max_examples=150)
@given(st.one_of(cross_sharing_pairs(), st.integers(1, 2).flatmap(
    lambda n: st.tuples(*[rational_functions(tuple("xyzw"[:n]))] * 2))))
def test_products_match_full_reduction(fg):
    # a Factored product or quotient, which cancels factors by their ids
    # only, is the oracles' fully reduced one, and the operands stay as
    # they were
    (fn, fd), (gn, gd) = fg
    f, g = factored_of(fn, fd), factored_of(gn, gd)
    before = (f.copy(), g.copy())
    product = Quotient(fn * gn, fd * gd)
    assert same_value(f.copy().mul(g), product)
    assert same_value(g.copy().mul(f), product)
    if not g.is_zero():
        assert same_value(f.copy().mul(g, -1), Quotient(fn * gd, fd * gn))
    assert (f, g) == before


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    rational_functions(tuple("xyz"[:n])), st.sampled_from("xyz"[:n]),
    st.integers(-3, 3))))
def test_shift_matches_full_reduction(case):
    # a Factored shift, factor by factor, is the shift of its value
    (num, den), var, delta = case
    assert same_value(factored_of(num, den).shift(var, delta),
                      Quotient(num.shift(var, delta), den.shift(var, delta)))


def heuristic_gcd(p, q):
    """GCDHEU on its own, made monic."""
    return MultiPoly(p.vars, _heuristic_gcd(dict(_cleared(p)[1]),
                                            dict(_cleared(q)[1]))).monic()


def test_heuristic_gcd_matches_the_prs():
    rng = random.Random(19)

    def rand(vars, terms, deg, bits):
        items = []
        for _ in range(rng.randint(1, terms)):
            c = rng.randint(-2 ** bits, 2 ** bits)
            if rng.random() < 0.3:
                c = Fraction(c, rng.randint(1, 12))
            items.append((tuple(rng.randint(0, deg) for _ in vars), c))
        return MultiPoly.from_terms(vars, items)

    kinds = ("planted", "coprime", "divides", "content", "constant", "zero")
    ran = dict.fromkeys(kinds, 0)
    for trial in range(240):
        nvars = trial % 4 + 1
        vars = tuple("wxyz"[:nvars])
        terms, deg = (4, 3) if nvars < 3 else (3, 2 if nvars == 3 else 1)
        bits = rng.choice((2, 8, 40))
        a, b, c = (rand(vars, terms, deg, bits) for _ in range(3))
        kind = kinds[trial % len(kinds)]
        if kind == "planted":
            p, q = a * c, b * c
        elif kind == "coprime":
            p, q = a, b
        elif kind == "divides":
            p, q = a * c, c
        elif kind == "content":
            mono = MultiPoly.from_terms(
                vars, [(tuple(rng.randint(0, 2) for _ in vars), rng.randint(1, 60))])
            p, q = (a * mono * c).scale(6), (b * mono).scale(Fraction(10, 7))
        elif kind == "constant":
            p, q = a * c, MultiPoly.constant(vars, Fraction(rng.randint(1, 9), 4))
        else:
            p, q = a, MultiPoly.zero(vars)
        if p.is_zero() and q.is_zero():
            continue
        ran[kind] += 1
        expected = prs_gcd_reference(p, q)
        assert poly_gcd(p, q) == expected, (p, q)
        if not p.is_zero() and not q.is_zero():
            assert heuristic_gcd(p, q) == expected, (p, q)
    assert min(ran.values()) >= 30, ran


def test_heuristic_gcd_keeps_the_content_of_inner_levels():
    # the level below must return the whole integer gcd, content included:
    # a primitive part there reconstructs a^3 here, which divides both
    V3 = ("a", "b", "c")
    p = MultiPoly.from_terms(V3, [((3, 2, 3), 36)])
    q = MultiPoly.from_terms(V3, [((4, 2, 2), 36), ((4, 1, 3), -42)])
    expected = MultiPoly.from_terms(V3, [((3, 1, 2), 1)])
    assert heuristic_gcd(p, q) == expected
    assert poly_gcd(p, q) == expected


def test_heuristic_gcd_passes_unlucky_points():
    # at each of the first six evaluation points xi, xi divides M, so the
    # evaluated gcd xi (xi + 1) reads back as x (x + 1), which does not
    # divide g: the search must go on to a seventh point
    x = MultiPoly.variable(("x",), "x")
    one = MultiPoly.constant(("x",), 1)
    points = [4]
    while len(points) < 6:
        points.append(points[-1] * 73794 // 27011)
    assert points == [4, 10, 27, 73, 199, 543]
    M = lcm(*points)
    f, g = x * (x + one), (x + one) * (x + one.scale(M))
    assert heuristic_gcd(f, g) == x + one
    assert poly_gcd(f, g) == x + one


def test_heuristic_gcd_past_the_old_bit_budget():
    # degrees 20 and 30 with coefficients of about 2000 bits: the first
    # evaluation makes integers of about 60000 bits, and the search must
    # still end with the gcd
    rng = random.Random(44)
    x = ("x",)

    def rand(deg):
        return MultiPoly.from_terms(x, [((d,), rng.getrandbits(1000) - 2 ** 999)
                                        for d in range(deg + 1)])

    a, b, c = rand(10), rand(20), rand(10)
    p, q = a * c, b * c
    # the bits of the first xi, 2 min(|p|, |q|) + 2, times the larger degree
    xi = 2 * min(max(map(abs, r.terms.values())) for r in (p, q)) + 2
    assert xi.bit_length() * 30 > 1 << 15
    expected = prs_gcd_reference(p, q)
    expected.divexact(c.monic())
    assert heuristic_gcd(p, q) == expected
    assert poly_gcd(p, q) == expected
