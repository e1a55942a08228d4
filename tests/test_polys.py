import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperproof import polys as polys_module
from hyperproof.factored import Factored, sum_vanishes
from hyperproof.linalg import clear_and_primitive
from hyperproof.polys import (
    MultiPoly, RationalFunction, _cleared, _heuristic_gcd, _norm_coef,
    common_denominator, poly_gcd,
)
from hyperproof.terms import LinearForm
from oracles import (
    clear_and_primitive_reference, expand_reference, factored_mul_reference,
    factored_shift_reference, factored_split_reference,
    factored_value_reference, poly_key_reference, poly_lcm, pow_reference,
    sort_key_reference,
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
    assert (r.num, r.den) == (x.scale(Fraction(1, 2)),
                              x + MultiPoly.constant(("x",), 1))


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
    assert Fraction(r2.num.eval({"k": 0}), r2.den.eval({"k": 0})) == \
        Fraction(1, 2)


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
    """The constant and the factor tables of a Factored, keys included."""
    return (f.const, {key: (L, e) for key, (L, e) in f.aff.items()},
            {key: (p, e) for key, (p, e) in f.opq.items()})


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
    """The constant and the factor tables of a Factored, in storage order."""
    return (f.const, [(key, L, e) for key, (L, e) in f.aff.items()],
            [(key, typed(p), e) for key, (p, e) in f.opq.items()])


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
        for table in (side.aff, side.opq):
            for entry in table.values():
                entry[1] += 1
    assert in_order(f) == before


def _points(values, rng, count=3):
    """count random integer points of the values' variables at which no
    factor of any value vanishes."""
    points = []
    while len(points) < count:
        point = {v: rng.randint(-10 ** 4, 10 ** 4) for v in values[0].vars}
        if all(L.at(point) for v in values for L, _ in v.aff.values()) and \
                all(p.eval(point) for v in values for p, _ in v.opq.values()):
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
        rf = RationalFunction(p, q)
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


def heuristic_gcd(p, q):
    """GCDHEU on its own, made monic; None when it gives up."""
    g = _heuristic_gcd(dict(_cleared(p)[1]), dict(_cleared(q)[1]))
    return None if g is None else MultiPoly(p.vars, g).monic()


def prs_gcd(p, q, monkeypatch):
    """poly_gcd with the heuristic off: the primitive remainder sequences."""
    with monkeypatch.context() as m:
        m.setattr(polys_module, "_HEU_BITS", 0)
        return poly_gcd(p, q)


def test_heuristic_gcd_matches_the_prs(monkeypatch):
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
        expected = prs_gcd(p, q, monkeypatch)
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


def test_heuristic_gives_way_to_the_prs(monkeypatch):
    x = MultiPoly.variable(V, "x")
    y = MultiPoly.variable(V, "y")
    common = x * y + y.scale(3) + x
    p, q = common * (x + y) * (x - y), common * (x * x - y.scale(2))
    assert poly_gcd(p, q) == common.monic()
    # over the bit budget: the heuristic gives up at once
    monkeypatch.setattr(polys_module, "_HEU_BITS", 8)
    assert heuristic_gcd(p, q) is None
    assert poly_gcd(p, q) == common.monic()
    monkeypatch.undo()
    # every division check fails: the heuristic gives up after its tries
    evaluations = [0]
    real_evaluate = polys_module._evaluate

    def counted(f, i, xi):
        evaluations[0] += 1
        return real_evaluate(f, i, xi)

    monkeypatch.setattr(polys_module, "_evaluate", counted)
    monkeypatch.setattr(polys_module, "_integer_quotient", lambda r, c: None)
    u = MultiPoly.variable(("x",), "x")
    one = MultiPoly.constant(("x",), 1)
    f, g = (u + one) * (u - one.scale(2)), (u + one) * (u + one.scale(5))
    assert heuristic_gcd(f, g) is None
    assert evaluations[0] == 2 * polys_module._HEU_TRIES
    assert poly_gcd(f, g) == u + one
    assert poly_gcd(p, q) == common.monic()
