import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from hyperproof.gridproof import (
    NormalizedIdentity, Inconclusive, initial_conditions_check,
    leading_coeff_check, normalize_and_delta, prove, vanishing_test,
    _degenerate_on_support, _positive_integer_roots, _rank_deficiency_test,
)
from hyperproof.cli import load_identity
from hyperproof.linalg import PolyMatrix, det_symbolic
from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.terms import LinearForm, eval_summand, parse_sum, parse_term


def lf(text, syms):
    t = parse_term(text, syms)
    r = t.rational
    assert r.den.is_constant()
    p = r.num
    coeffs = {}
    const = 0
    for exp, c in p.terms.items():
        if sum(exp) == 0:
            const = c
        else:
            coeffs[syms[exp.index(1)]] = c
    return LinearForm(coeffs, const)


CHU = ("binomial(n,k)*binomial(a,k)", "binomial(a+n,a)",
       ("k", "n", "a"), ("a",), "0", "n")


def make_nid(summand, rhs, syms, params, lo, hi):
    F = parse_term(summand, syms)
    rhs_terms = parse_sum(rhs, syms) if rhs != "0" else []
    return normalize_and_delta(F, rhs_terms, params, "k", "n",
                               lf(lo, syms), lf(hi, syms))


def test_normalize_binomial_2n():
    syms = ("k", "n")
    F = parse_term("binomial(n,k)", syms)
    rhs = parse_sum("2^n", syms)
    nid = normalize_and_delta(F, rhs, (), "k", "n",
                              lf("0", syms), lf("n", syms))
    # multiplier rho_n - 1 = (2k-n-1)/(2(n+1-k))
    w = nid.ftil.rational / nid.fhat.rational
    expect = parse_term("(2*k-n-1)/(2*(n+1-k))", syms).rational
    assert w == expect
    # numeric cross-check: fhat(n+1,k) - fhat(n,k) = fhat * multiplier
    rng = random.Random(2)
    done = 0
    while done < 20:
        nv = rng.randint(0, 9)
        kv = rng.randint(0, nv)
        pt = {"n": nv, "k": kv}
        lhs = eval_summand(nid.fhat, {"n": nv + 1, "k": kv}).as_constant() \
            - eval_summand(nid.fhat, pt).as_constant()
        rhs_v = eval_summand(nid.ftil, pt)
        assert lhs == rhs_v.as_constant()
        done += 1


def test_normalize_chu_ratio():
    nid = make_nid(*CHU)
    # rho_n = (n+1)^2 / ((n+1-k)(n+a+1))
    expect = parse_term("(n+1)^2/((n+1-k)*(n+a+1))", CHU[2]).rational
    assert nid.n_ratio == expect


def test_normalize_zero_rhs_passthrough():
    syms = ("k", "n", "x", "z")
    F = parse_term("rf(-2*n-1,k)/k!", syms)
    nid = normalize_and_delta(F, [], ("x", "z"), "k", "n", None, None)
    assert nid.rhs_is_zero
    assert nid.fhat == F


def test_vanishing_test_rank_one_passes():
    vars = ("n", "a")
    n = MultiPoly.variable(vars, "n")
    a = MultiPoly.variable(vars, "a")
    m = PolyMatrix([[n, a], [n * n, n * a]])
    res = vanishing_test(m, Fraction(1), seed=0)
    assert res.passed and res.witness is None
    assert res.grid_tested == res.grid_total


def test_vanishing_test_nonsingular_witness():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    zero = MultiPoly.zero(vars)
    m = PolyMatrix([[n, zero], [zero, one]])
    res = vanishing_test(m, Fraction(1), seed=0)
    assert not res.passed
    assert res.witness is not None and res.witness["n"] != 0


def test_vanishing_test_fraction_of_grid():
    # singular matrix with degree bound 9: grid of 10 points, certainty 1/2
    # tests ceil(10/2) = 5 of them
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n ** 4, n ** 4], [n ** 5, n ** 5]])
    res = vanishing_test(m, Fraction(1, 2), seed=3)
    assert res.passed
    assert res.grid_total == 10 and res.grid_tested == 5
    # a witness aborts the scan early instead
    m2 = PolyMatrix([[n ** 9]])
    res2 = vanishing_test(m2, Fraction(1, 2), seed=3)
    assert not res2.passed and res2.witness is not None


def test_vanishing_test_non_square_errors():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n, n]])
    with pytest.raises(ValueError):
        vanishing_test(m, Fraction(1), 0)


def test_vanishing_test_avoid_values():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n ** 2]], avoid={"n": {0}})
    res = vanishing_test(m, Fraction(1), seed=0)
    # grid would be {-1,0,1}; 0 is stepped over, so no point vanishes
    assert not res.passed


def _random_poly(rng, vars, maxexp=1, coef=3):
    return MultiPoly.from_terms(
        vars, [(tuple(rng.randint(0, maxexp) for _ in vars),
                rng.randint(-coef, coef)) for _ in range(2)])


def test_grid_kernel_soundness():
    # 50 constructed singular and 50 nonsingular matrices: the exhaustive
    # vanishing test passes exactly the singular ones
    rng = random.Random(99)
    vars = ("n", "a")
    singular = nonsingular = 0
    while singular < 50 or nonsingular < 50:
        rows = [[_random_poly(rng, vars) for _ in range(3)] for _ in range(2)]
        if rng.random() < 0.5 and nonsingular < 50:
            third = [_random_poly(rng, vars) for _ in range(3)]
            m = PolyMatrix(rows + [third])
            if det_symbolic(m).is_zero():
                continue
            res = vanishing_test(m, Fraction(1), seed=singular + nonsingular)
            assert not res.passed and res.witness is not None
            nonsingular += 1
        elif singular < 50:
            p = _random_poly(rng, vars)
            q = _random_poly(rng, vars)
            third = [p * rows[0][j] + q * rows[1][j] for j in range(3)]
            m = PolyMatrix(rows + [third])
            res = vanishing_test(m, Fraction(1), seed=singular + nonsingular)
            assert res.passed, str(m.entries)
            singular += 1


def test_rank_test_rectangular():
    # 3 rows, 2 cols, rank 1 symbolically: passes; full-rank case fails
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    zero = MultiPoly.zero(vars)
    m = PolyMatrix([[n, n], [n * n, n * n], [n, n]])
    res = _rank_deficiency_test(m, Fraction(1), 0)
    assert res.passed
    m2 = PolyMatrix([[n, zero], [zero, one], [n, n]])
    res2 = _rank_deficiency_test(m2, Fraction(1), 0)
    assert not res2.passed


def test_positive_integer_roots():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    p = (n - one.scale(3)) * (n + one)
    assert _positive_integer_roots(p, "n") == [3]
    q = (n + one) * (n + one.scale(2))
    assert _positive_integer_roots(q, "n") == []


def test_leading_coeff_check_chu():
    nid = make_nid(*CHU)
    n0, point = leading_coeff_check(nid, 1, seed=5)
    assert n0 is None
    assert set(point) == {"a"}


def mrr_nid():
    ident = load_identity(Path(__file__).resolve().parent.parent / "corpus" / "mrr.txt")
    F, rhs_terms, lower, upper = ident.parsed()
    return normalize_and_delta(F, rhs_terms, ident.params, "k", "n", lower, upper)


def test_degenerate_on_support_denominator_form_in_n():
    # at x=15, z=-4 the denominator factor rf(2z+2n+2, k) becomes rf(2n-6, k),
    # a nonpositive integer base for n <= 3
    nid = mrr_nid()
    point = {"x": Fraction(15), "z": Fraction(-4)}
    assert _degenerate_on_support(nid, nid.delta_term.substituted(point), point)
    point = {"x": Fraction(3, 7), "z": Fraction(5, 11)}
    assert not _degenerate_on_support(nid, nid.delta_term.substituted(point), point)


def test_leading_coeff_check_skips_degenerate_first_draw():
    # prove seed 160630457 first draws x=7/2, z=-11, where rf(2z+2n+2, k)
    # becomes rf(2n-20, k); telescoping that specialization stalled for minutes
    def too_slow(signum, frame):
        raise TimeoutError("leading_coeff_check took more than 60 s")

    nid = mrr_nid()
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        _, point = leading_coeff_check(nid, 2, 160630457)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert point != {"x": Fraction(7, 2), "z": Fraction(-11)}


def test_initial_conditions_chu():
    nid = make_nid(*CHU)
    checks = initial_conditions_check(nid, 1, None)
    assert all(ok for _, _, ok in checks)
    labels = [c[0] for c in checks]
    assert "base" in labels and "delta" in labels


def test_initial_conditions_mrr_n0():
    # the k-sum over [0,1] at n=0 vanishes identically in (x,z)
    syms = ("k", "n", "x", "z")
    F = parse_term(
        "rf(-2*n-1,k)*rf(x+2*n+2,k)*rf(x-z+1/2,k)*rf(x+n+1,k)*rf(z+n+1,k)"
        "/(rf((x+1)/2,k)*rf(x/2+1,k)*rf(2*z+2*n+2,k)*rf(2*x-2*z+1,k)*k!)",
        syms)
    nid = normalize_and_delta(F, [], ("x", "z"), "k", "n",
                              lf("0", syms), lf("2*n+1", syms))
    checks = initial_conditions_check(nid, 1, None)
    assert checks == [("sum", 0, True)]


def test_prove_chu_vandermonde_rigorous():
    F = parse_term(*CHU[:1], CHU[2])
    rhs = parse_sum(CHU[1], CHU[2])
    rep = prove(F, rhs, "k", "n", lf("0", CHU[2]), lf("n", CHU[2]), ("a",))
    assert rep.verdict == "rigorous"
    assert rep.order is not None and rep.order <= 2
    assert all(ok for _, _, ok in rep.initial_checks)


def test_prove_binomial_2n():
    syms = ("k", "n")
    F = parse_term("binomial(n,k)", syms)
    rhs = parse_sum("2^n", syms)
    rep = prove(F, rhs, "k", "n", lf("0", syms), lf("n", syms), ())
    assert rep.verdict == "rigorous"


def test_prove_refuted_plus_one():
    syms = ("k", "n")
    F = parse_term("binomial(n,k)", syms)
    rhs = parse_sum("2^n+1", syms)
    rep = prove(F, rhs, "k", "n", lf("0", syms), lf("n", syms), ())
    assert rep.verdict == "refuted"
    assert rep.initial_checks[0][1] == 0 and rep.initial_checks[0][2] is False


def test_prove_false_single_term_rhs():
    # sum C(n,k) = 2^(n+1) is false at n=0; normalization succeeds but the
    # base initial condition refutes it
    syms = ("k", "n")
    F = parse_term("binomial(n,k)", syms)
    rhs = parse_sum("2^(n+1)", syms)
    rep = prove(F, rhs, "k", "n", lf("0", syms), lf("n", syms), ())
    assert rep.verdict == "refuted"


def test_prove_determinism():
    F = parse_term(*CHU[:1], CHU[2])
    rhs = parse_sum(CHU[1], CHU[2])
    reps = [prove(F, rhs, "k", "n", lf("0", CHU[2]), lf("n", CHU[2]), ("a",),
                  certainty=Fraction(1, 2), seed=11) for _ in range(2)]
    assert reps[0] == reps[1]
