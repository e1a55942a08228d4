import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.terms import (
    EvalError, LinearForm, ParseError, TermExpression, eval_summand, eval_term,
    evaluate, natural_support, parse_sum, parse_term, render, shift_quotient,
)


SYMS = ("k", "n", "a")


def rf_of(text, symbols=("k", "n", "a")):
    return parse_term(text, symbols)


def ratfn(num_text, den_text, symbols):
    t = parse_term(f"({num_text})/({den_text})", symbols)
    return t.rational


def test_parse_binomial_product():
    t = parse_term("binomial(n,k)*binomial(a,k)", SYMS)
    assert len(t.binomials) == 2
    assert not t.factorials and not t.risings and not t.powers
    assert t.rational.is_constant() and t.rational.as_constant() == 1


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


def test_parse_rational_factor_and_integer_power():
    t = parse_term("(n+1)/(n+1-k)*binomial(n,k)^2", SYMS)
    assert len(t.binomials) == 2
    assert t.rational == ratfn("n+1", "n+1-k", SYMS)


def test_parse_sum_splits_addends():
    terms = parse_sum("2^n+1", ("n",))
    assert len(terms) == 2


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


def test_eval_binomial():
    t = parse_term("binomial(n,k)", ("k", "n"))
    assert eval_term(t, {"n": 5, "k": 2}) == 10
    assert eval_term(t, {"n": 5, "k": 7}) == 0  # product formula hits zero


def test_eval_rf_half():
    t = parse_term("rf(a,k)", ("k", "a"))
    assert eval_term(t, {"a": Fraction(1, 2), "k": 3}) == Fraction(15, 8)


def test_eval_negative_factorial_errors():
    t = parse_term("k!", ("k",))
    with pytest.raises(EvalError):
        eval_term(t, {"k": -1})


def test_eval_zero_conventions():
    t = parse_term("binomial(n,k)", ("k", "n"))
    with pytest.raises(EvalError):
        eval_term(t, {"n": 5, "k": -1})
    assert eval_summand(t, {"n": 5, "k": -1}).is_zero()
    t2 = parse_term("1/k!", ("k",))
    assert eval_summand(t2, {"k": -2}).is_zero()


def test_eval_symbolic_in_params():
    # binomial(a+b,a)*a!*b!/(a+b)! == 1 identically
    t = parse_term("binomial(a+b,a+k)*a!*b!/(a+b+n)!", ("k", "n", "a", "b"))
    v = evaluate(t, {"k": 0, "n": 0})
    assert v.is_constant() and v.as_constant() == 1


def test_eval_symbolic_rising_product():
    t = parse_term("binomial(a,k)", ("k", "a"))
    v = evaluate(t, {"k": 2})  # a(a-1)/2
    va = v.eval({"a": 7})
    assert va == 21


def test_shift_quotient_binomial_in_k():
    t = parse_term("binomial(n,k)", ("k", "n"))
    q = shift_quotient(t, "k")
    expect = ratfn("n-k", "k+1", ("k", "n"))
    assert q == expect


def test_shift_quotient_rf_in_k():
    t = parse_term("rf(a,k)", ("k", "a"))
    q = shift_quotient(t, "k")
    assert q == RationalFunction.from_poly(
        parse_term("(a+k)", ("k", "a")).rational.num)


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
                    v0 = eval_term(t, pt)
                    pt2 = dict(pt)
                    pt2[var] = pt[var] + 1
                    v1 = eval_term(t, pt2)
                    qv = q.eval(pt)
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
    assert q2 == q1 * (w.shift("k", 1) / w)


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
        RationalFunction.constant(("k", "n"), 0))
    assert natural_support(t, {"n": 3}) == (0, -1)


def test_divide_terms():
    syms = ("k", "n", "a")
    f = parse_term("binomial(n,k)*binomial(a,k)", syms)
    rhs = parse_term("binomial(a+n,a)", syms)
    fhat = f.divided_by(rhs)
    # value check: fhat(n,k) = C(n,k)C(a,k)/C(n+a,n)
    val = eval_term(fhat, {"n": 3, "k": 2, "a": 4})
    assert val == Fraction(3 * 6, 35)


def test_substituted():
    syms = ("k", "n", "x")
    t = parse_term("rf(x+n+1,k)/k!", syms)
    s = t.substituted({"x": 1})
    assert s.symbols == ("k", "n")
    assert eval_term(s, {"n": 2, "k": 3}) == eval_term(t, {"n": 2, "k": 3, "x": 1})
