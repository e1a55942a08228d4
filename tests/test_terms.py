import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperproof.factored import Factored
from hyperproof.linalg import _lower_set
from hyperproof.polys import MultiPoly
from hyperproof.terms import (
    EvalError, LinearForm, ParseError, _ZeroTerm, factored_value,
    natural_support, parse_affine, parse_rational, parse_sum, parse_term,
    render, shift_quotient, term_value,
)
from oracles import constant_products_reference


SYMS = ("k", "n", "a")


def rf_of(text, symbols=("k", "n", "a")):
    return parse_term(text, symbols)


def ratfn(num_text, den_text, symbols):
    t = parse_term(f"({num_text})/({den_text})", symbols)
    return t.rational


def value(r, point):
    """A Factored value at a point, by its two sides expanded."""
    num, den = (side.expand() for side in r.split())
    return Fraction(num.eval(point)) / den.eval(point)


def test_parse_binomial_product():
    t = parse_term("binomial(n,k)*binomial(a,k)", SYMS)
    assert len(t.binomials) == 2
    assert not t.factorials and not t.risings and not t.powers
    assert t.rational == Factored.one(SYMS)


def test_parse_power_rf_factorial():
    t = parse_term("(-1)^k*rf(a,k)/k!", SYMS)
    assert len(t.powers) == 1
    assert t.powers[0][0] == -1
    assert len(t.risings) == 1
    assert len(t.factorials) == 1 and t.factorials[0][1] == -1


def test_parse_syntax_error():
    with pytest.raises(ParseError):
        parse_term("binomial(n,)", SYMS)


def test_parse_non_affine_argument():
    with pytest.raises(ParseError):
        parse_term("binomial(n*n,k)", SYMS)


def test_parse_power_base_not_constant():
    with pytest.raises(ParseError):
        parse_term("n^k", SYMS)


def test_parse_affine_and_rational():
    L = parse_affine("(3*n - a)/2 + 1", SYMS)
    assert L == LinearForm({"n": Fraction(3, 2), "a": Fraction(-1, 2)}, 1)
    assert LinearForm.from_poly(L.to_poly(SYMS)) == L
    assert parse_rational("(n+1)/(n+1-k)", SYMS) == ratfn("n+1", "n+1-k", SYMS)
    for text in ("n*n", "1/n", "2^n", "n!", "binomial(n,k)", "rf(a,k)", "m"):
        with pytest.raises(ParseError):
            parse_affine(text, SYMS)
    for text in ("2^n", "n!", "binomial(n,k)", "rf(a,k)", "m", "0^(-1)"):
        with pytest.raises(ParseError):
            parse_rational(text, SYMS)


def test_an_argument_affine_only_after_a_cancellation_is_rejected():
    # arguments and limits are read straight into affine forms, so a
    # quotient that would cancel to one is not affine
    for text in ("binomial((n^2-1)/(n-1),k)", "rf(k,(2*n^2+2*n)/(n+1))",
                 "(n*k/k)!"):
        with pytest.raises(ParseError, match="not affine"):
            parse_term(text, SYMS)
    with pytest.raises(ParseError, match="not affine"):
        parse_affine("(2*n^2+2*n)/(n+1)", SYMS)
    # as a rational factor the same quotient is read without a gcd, and a
    # term holding it has the reduced quotient's values, at n = 1 too
    r = parse_rational("(n^2-1)/(n-1)", SYMS)
    assert r != parse_rational("n+1", SYMS)
    assert all(value(r, {"k": 0, "n": v, "a": 0}) == v + 1
               for v in (0, 2, 3, -5))
    t = parse_term("(n^2-1)/(n-1)", SYMS)
    assert all(term_value(t, {"k": 0, "n": v, "a": 0}) == v + 1
               for v in (0, 1, 2, 3, -5))


def test_a_removable_pole_has_the_reduced_value():
    # k^2 - k is one opaque factor and k - 1 an affine one, so their ids
    # never cancel; at k = 1 the expanded denominator vanishes, and the
    # value is that of the reduced k * binomial(n,k)
    t = parse_term("binomial(n,k)*(k^2-k)/(k-1)", SYMS)
    assert term_value(t, {"k": 1, "n": 5, "a": 0}) == 5
    assert factored_value(t, {"k": 1}) == Factored(("n", "a")).mul_affine(
        LinearForm.symbol("n"), 1)
    # a pole that does not cancel is still an error
    pole = parse_term("binomial(n,k)*(k^2-k)/(k-1)^2", SYMS)
    with pytest.raises(EvalError, match="denominator vanishes"):
        term_value(pole, {"k": 1, "n": 5, "a": 0})
    with pytest.raises(EvalError, match="denominator vanishes"):
        factored_value(pole, {"k": 1})


def test_parse_rational_factor_and_integer_power():
    t = parse_term("(n+1)/(n+1-k)*binomial(n,k)^2", SYMS)
    assert len(t.binomials) == 2
    assert t.rational == ratfn("n+1", "n+1-k", SYMS)


def test_parse_sum_splits_addends():
    terms = parse_sum("2^n+1", ("n",))
    assert len(terms) == 2


def test_parsing_and_lower_sets_leave_no_reference_cycles():
    # with the collector off, every object these calls drop is freed by its
    # reference count; a recursive closure would leave a cycle behind
    gc.collect()
    gc.disable()
    try:
        parse_sum("binomial(n,k)*(2*k+1)/(n-k)! - rf(a,k)^2*2^k + 3", SYMS)
        parse_term("(-1)^k*binomial(2*n,k)^3/(k+1)!", SYMS)
        _lower_set({1: 3, 2: 2, 4: 4, 3: 4, 7: 6})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_roundtrip_render_parse():
    texts = [
        "binomial(n,k)*binomial(a,k)",
        "(-1)^k*rf(a,k)/k!",
        "binomial(n,k)^2",
        "(a+b+n)!/a!/b!/n!",
        "rf(x-z+1/2,k)/rf(2*x-2*z+1,k)",
        "(2)^(-n)*binomial(n,k)",
    ]
    symtabs = [SYMS, SYMS, ("k", "n"), ("k", "n", "a", "b"),
               ("k", "n", "x", "z"), ("k", "n")]
    for text, syms in zip(texts, symtabs):
        t = parse_term(text, syms)
        assert parse_term(render(t), syms) == t


_FRAC = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _affine_text(draw, coef=_FRAC):
    parts = [f"({draw(coef)})*{s}" for s in SYMS if draw(st.booleans())]
    return "+".join(parts + [f"({draw(coef)})"])


@st.composite
def _factor_text(draw):
    kind = draw(st.sampled_from(("binomial", "rf", "factorial", "power",
                                 "rational")))
    if kind in ("binomial", "rf"):
        return f"{kind}({draw(_affine_text())},{draw(_affine_text())})"
    if kind == "factorial":
        return f"({draw(_affine_text())})!"
    if kind == "power":
        # constant base, exponent affine with integer coefficients
        base = draw(_FRAC.filter(lambda b: b not in (0, 1)))
        return f"({base})^({draw(_affine_text(st.integers(-3, 3)))})"
    # distinct exponents and nonzero coefficients: a nonzero polynomial
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(SYMS)),
                                 _FRAC.filter(bool), min_size=1, max_size=3))
    monomials = ["*".join([f"({c})"] + [f"{s}^{d}" for s, d in zip(SYMS, e) if d])
                 for e, c in terms.items()]
    return f"({'+'.join(monomials)})"


@st.composite
def _term_text(draw):
    text = draw(_factor_text())
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from("*/")) + draw(_factor_text())
    return text


@settings(deadline=None, max_examples=300)
@given(_term_text())
def test_roundtrip_render_parse_property(text):
    # products of every factor kind, multiplied or divided, with rational
    # affine arguments and rational function factors
    t = parse_term(text, SYMS)
    assert parse_term(render(t), SYMS) == t


_INT = st.integers(-3, 3)


@st.composite
def _rational_term_text(draw):
    """A binomial or rising factorial, or 1, times affine and quadratic
    factors with integer coefficients over SYMS, each multiplied or
    divided."""
    def affine():
        coeffs = [draw(_INT) for _ in SYMS]
        if not any(coeffs):
            coeffs[0] = 1
        return "+".join(f"({c})*{s}" for c, s in zip(coeffs, SYMS)) + \
            f"+({draw(_INT)})"

    text = draw(st.sampled_from(["1", "binomial(n,k)", "rf(a,k)",
                                 "binomial(n+a,k)/rf(a+1,k)"]))
    for _ in range(draw(st.integers(1, 4))):
        factor = f"({affine()})" if draw(st.booleans()) else \
            f"(({affine()})*({affine()})+({draw(_INT)}))"
        text += draw(st.sampled_from("*/")) + factor
    return text


@settings(deadline=None, max_examples=150)
@given(_rational_term_text(), st.integers(-2, 3),
       st.randoms(use_true_random=False))
def test_shift_quotient_times_the_term_is_the_shifted_term(text, step, rng):
    # f(v+step) = shift_quotient(f, v, step)(v) * f(v) at integer points
    # where both values are defined; and the factor-by-factor rendering
    # reads back to an equal term with an equal hash
    t = parse_term(text, SYMS)
    back = parse_term(render(t), SYMS)
    assert back == t and hash(back) == hash(t)
    for var in ("k", "n"):
        q = shift_quotient(t, var, step)
        for _ in range(10):
            pt = {s: rng.randint(-2, 6) for s in SYMS}
            try:
                v0 = term_value(t, pt)
                v1 = term_value(t, {**pt, var: pt[var] + step})
                qv = value(q, pt)
            except (EvalError, ZeroDivisionError):
                continue
            assert v1 == qv * v0, (var, pt)


@settings(deadline=None, max_examples=100)
@given(_rational_term_text(), st.booleans(),
       st.randoms(use_true_random=False))
def test_factored_value_at_a_full_point_is_term_value(text, zero_conventions,
                                                      rng):
    # with no symbol left, factored_value is the constant term_value
    # gives, or the same exception with the same message
    t = parse_term(text, SYMS)
    for _ in range(10):
        pt = {s: rng.randint(-2, 6) for s in SYMS}
        expected = outcome(term_value, t, pt, zero_conventions)
        got = outcome(factored_value, t, pt, zero_conventions)
        if isinstance(expected, tuple):
            assert got == expected, pt
        else:
            assert got == Factored((), expected), pt


def test_products_leave_their_operands_unchanged():
    # times, inverted, divided_by and with_rational build a new rational
    # factor: changing the result changes neither operand
    f_text, g_text = "binomial(n,k)*(n+1)/(k+2)", "(k^2+a)/(n-k)*rf(a,k)"
    f, g = parse_term(f_text, SYMS), parse_term(g_text, SYMS)
    k = MultiPoly.variable(SYMS, "k")
    for out in (f.times(g), g.times(f), f.inverted(), f.divided_by(g),
                f.with_rational(g.rational)):
        out.rational.mul_const(5).mul_poly(k * k + k.scale(3) + k ** 0, 2)
        out.rational.mul_affine(LinearForm.symbol("a"), -1)
        out.rational.mul(g.rational, 2)
        assert f == parse_term(f_text, SYMS) and g == parse_term(g_text, SYMS)


def test_at_is_the_number_where_every_symbol_is_assigned():
    # a point that assigns every symbol of the form gives the number the
    # substituted form holds, with ints normalized; any other point the
    # substituted form itself
    for text in ["x+2*n+2", "(x+1)/2", "x-z+1/2", "3", "-2*n-1"]:
        L = parse_affine(text, ("n", "x", "z"))
        for point in [{"n": 2, "x": 3, "z": 5}, {"n": 1, "x": Fraction(1, 3),
                                                  "z": -1}, {"n": 4}, {}]:
            want = L.substitute(point)
            got = L.at(point)
            if want.is_constant():
                assert type(got) is not LinearForm and got == want.const
                assert type(got) is type(want.const) and L.eval(point) == got
            else:
                assert got == want


def test_eval_binomial():
    t = parse_term("binomial(n,k)", ("k", "n"))
    assert term_value(t, {"n": 5, "k": 2}) == 10
    # the product formula hits zero
    assert term_value(t, {"n": 5, "k": 7}) == 0


def test_eval_rf_half():
    t = parse_term("rf(a,k)", ("k", "a"))
    assert term_value(t, {"a": Fraction(1, 2), "k": 3}) == Fraction(15, 8)


def test_eval_negative_factorial_errors():
    t = parse_term("k!", ("k",))
    with pytest.raises(EvalError):
        term_value(t, {"k": -1})


def test_eval_zero_conventions():
    t = parse_term("binomial(n,k)", ("k", "n"))
    with pytest.raises(EvalError):
        term_value(t, {"n": 5, "k": -1})
    assert term_value(t, {"n": 5, "k": -1}, True) == 0
    t2 = parse_term("1/k!", ("k",))
    assert term_value(t2, {"k": -2}, True) == 0
    # a zero factor of a constant product makes a numerator zero, and in a
    # denominator it is an error that the zero conventions do not hide
    assert term_value(t, {"n": 1, "k": 10000}, True) == 0
    assert term_value(parse_term("rf(n,k)", ("k", "n")),
                      {"n": -3, "k": 5}, True) == 0
    for text, n in [("1/binomial(n,k)", 3), ("1/rf(n,k)", -3), ("1/rf(n,k)", 0),
                    ("binomial(-n,k)/rf(n,k)", -3)]:
        with pytest.raises(EvalError, match="division by a zero factor"):
            term_value(parse_term(text, ("k", "n")), {"n": n, "k": 5}, True)


PRODUCT_TERMS = ["rf(a,k)", "1/rf(a,k)", "rf(a,k)^2", "rf(a,k)^(-2)",
                 "binomial(a,k)", "1/binomial(a,k)", "binomial(a,k)^2",
                 "binomial(a,k)^(-2)", "binomial(a,k)/rf(a,k)",
                 "rf(a,k)/binomial(a,k)"]


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EvalError, _ZeroTerm) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("zero_conventions", [False, True])
@pytest.mark.parametrize("text", PRODUCT_TERMS)
def test_constant_products_match_the_per_factor_loop(text, zero_conventions):
    # bases p/q, nonpositive integers among them, and counts -2..12: the same
    # value, or the same exception with the same message
    t = parse_term(text, ("k", "a"))
    for p in range(-5, 6):
        for q in (1, 2, 3):
            for count in range(-2, 13):
                point = {"a": Fraction(p, q), "k": count}
                expected = outcome(constant_products_reference, t, point,
                                   zero_conventions)
                if expected == (_ZeroTerm, ""):
                    expected = 0  # term_value's zero by convention
                assert outcome(term_value, t, point, zero_conventions) == \
                    expected, (p, q, count)


def test_eval_symbolic_in_params():
    # binomial(a+b,a)*a!*b!/(a+b)! == 1 identically
    t = parse_term("binomial(a+b,a+k)*a!*b!/(a+b+n)!", ("k", "n", "a", "b"))
    assert factored_value(t, {"k": 0, "n": 0}) == Factored.one(("a", "b"))


def test_eval_symbolic_rising_product():
    t = parse_term("binomial(a,k)", ("k", "a"))
    v = factored_value(t, {"k": 2})  # a(a-1)/2
    assert v.const == Fraction(1, 2)
    assert [(str(L), e) for L, e in v.facs.values()] == [("a", 1),
                                                         ("a-1", 1)]


def test_shift_quotient_binomial_in_k():
    t = parse_term("binomial(n,k)", ("k", "n"))
    q = shift_quotient(t, "k")
    expect = ratfn("n-k", "k+1", ("k", "n"))
    assert q == expect


def test_shift_quotient_rf_in_k():
    t = parse_term("rf(a,k)", ("k", "a"))
    q = shift_quotient(t, "k")
    assert q == parse_rational("a+k", ("k", "a"))


def test_shift_quotient_binomial_in_n():
    t = parse_term("binomial(n,k)", ("k", "n"))
    q = shift_quotient(t, "n")
    assert q == ratfn("n+1", "n+1-k", ("k", "n"))


def test_shift_quotient_numeric_consistency():
    # random valid integer points: f(v+1) = f(v) * Q(v)
    rng = random.Random(23)
    cases = [
        ("binomial(n,k)*binomial(a,k)", ("k", "n", "a")),
        ("(-1)^k*rf(a,k)/k!", ("k", "a")),
        ("binomial(n,k)^2", ("k", "n")),
        ("k!*(n-k)!/(n+a+1)!", ("k", "n", "a")),
    ]
    for text, syms in cases:
        t = parse_term(text, syms)
        for var in ("k", "n"):
            if var not in syms:
                continue
            q = shift_quotient(t, var)
            checked = 0
            while checked < 50:
                pt = {s: rng.randint(0, 6) for s in syms}
                if "n" in pt and "k" in pt:
                    pt["n"] = pt["k"] + rng.randint(0, 6)  # keep n >= k
                try:
                    v0 = term_value(t, pt)
                    pt2 = dict(pt)
                    pt2[var] = pt[var] + 1
                    v1 = term_value(t, pt2)
                    qv = value(q, pt)
                except (EvalError, ZeroDivisionError):
                    continue
                assert v1 == v0 * qv
                checked += 1


def test_shift_quotient_rational_multiplier():
    # multiplying by a rational factor multiplies the quotient accordingly
    syms = ("k", "n")
    t = parse_term("binomial(n,k)", syms)
    w = ratfn("2*k-n-1", "2*(n+1-k)", syms)
    t2 = t.with_rational(w)
    q1 = shift_quotient(t, "k")
    q2 = shift_quotient(t2, "k")
    assert q2 == q1.copy().mul(w.shift("k", 1)).mul(w, -1)


def test_integrality_precondition():
    t = parse_term("(k/2)!", ("k",))
    with pytest.raises(Exception):
        shift_quotient(t, "k")


def test_natural_support_binomial():
    t = parse_term("binomial(n,k)", ("k", "n"))
    assert natural_support(t, {"n": 5}) == (0, 5)


def test_natural_support_dixon():
    t = parse_term(
        "(-1)^k*binomial(a+b,a+k)*binomial(a+n,n+k)*binomial(b+n,b+k)",
        ("k", "n", "a", "b"))
    assert natural_support(t, {"a": 1, "b": 1, "n": 1}) == (-1, 1)


def test_natural_support_reciprocal_factorial():
    t = parse_term("1/k!", ("k",))
    assert natural_support(t, {}) == (0, None)


def test_natural_support_rising_terminating():
    t = parse_term("rf(-2*n-1,k)/k!", ("k", "n"))
    assert natural_support(t, {"n": 2}) == (0, 5)


def test_natural_support_empty():
    t = parse_term("binomial(n,k)", ("k", "n")).with_rational(
        Factored(("k", "n"), 0))
    assert natural_support(t, {"n": 3}) == (0, -1)


def test_divide_terms():
    syms = ("k", "n", "a")
    f = parse_term("binomial(n,k)*binomial(a,k)", syms)
    rhs = parse_term("binomial(a+n,a)", syms)
    fhat = f.divided_by(rhs)
    # value check: fhat(n,k) = C(n,k)C(a,k)/C(n+a,n)
    val = term_value(fhat, {"n": 3, "k": 2, "a": 4})
    assert val == Fraction(3 * 6, 35)
