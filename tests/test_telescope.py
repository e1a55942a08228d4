import random
from fractions import Fraction

import pytest

from hyperproof.linalg import solve_nullspace
from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.telescope import (
    Certificate, Recurrence, assemble, creative_telescope, verify_certificate,
)
from hyperproof.terms import eval_summand, eval_term, parse_term


def poly_of(text, syms):
    r = parse_term(text, syms).rational
    assert r.den.is_constant()
    return r.num


def brute_sum(f, n_val, lo, hi, extra=None):
    total = Fraction(0)
    for kv in range(lo, hi + 1):
        pt = {"k": kv, "n": n_val}
        if extra:
            pt.update(extra)
        v = eval_summand(f, pt)
        assert v.is_constant()
        total += Fraction(v.as_constant())
    return total


def test_assemble_binomial_j1_shape():
    f = parse_term("binomial(n,k)", ("k", "n"))
    sys = assemble(f, 1)
    ansatz, matrix = sys.ansatz, sys.matrix
    assert ansatz.order == 1
    assert matrix.cols == ansatz.order + 1 + ansatz.degree + 1
    assert matrix.vars == ("n",)


def _lifted_ratio(f):
    # a1/a0 of the first kernel vector of the J=1 system, lifted to M
    sys = assemble(f, 1)
    basis = solve_nullspace(sys.matrix)
    assert basis
    vec = sys.lift(basis[0])
    return RationalFunction(vec[1], vec[0])


def test_assemble_nullspace_ratio_binomial():
    # nullspace of the J=1 system gives a1/a0 = -1/2
    f = parse_term("binomial(n,k)", ("k", "n"))
    ratio = _lifted_ratio(f)
    assert ratio == RationalFunction.constant(("n",), Fraction(-1, 2))


def test_assemble_nullspace_ratio_central_binomial():
    f = parse_term("binomial(n,k)^2", ("k", "n"))
    ratio = _lifted_ratio(f)
    # a1/a0 = -(n+1)/(4n+2)
    n = MultiPoly.variable(("n",), "n")
    one = MultiPoly.constant(("n",), 1)
    assert ratio == RationalFunction(-(n + one), n.scale(4) + one.scale(2))


def test_creative_telescope_binomial():
    f = parse_term("binomial(n,k)", ("k", "n"))
    out = creative_telescope(f)
    assert out is not None
    rec, cert, degree = out
    assert rec.order == 1
    # the degree of b in the order-1 system the telescoper was solved from
    assert degree == assemble(f, 1).ansatz.degree
    a0, a1 = rec.coefficients
    assert a0.as_constant() == -2 and a1.as_constant() == 1
    # R = -k/(n+1-k)
    vars = ("k", "n")
    k = MultiPoly.variable(vars, "k")
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    assert cert.ratio == RationalFunction(-k, n + one - k)
    assert verify_certificate(f, rec, cert)


def test_creative_telescope_central_binomial():
    f = parse_term("binomial(n,k)^2", ("k", "n"))
    out = creative_telescope(f)
    assert out is not None
    rec, cert, _ = out
    assert rec.order == 1
    a0, a1 = rec.coefficients
    # (a0, a1) proportional to (-2(2n+1), n+1)
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    assert a1 == n + one
    assert a0 == (n.scale(2) + one).scale(-2)
    assert verify_certificate(f, rec, cert)


def test_partial_sum_oracle_binomial():
    # exact partial-sum oracle for n = 0..20
    f = parse_term("binomial(n,k)", ("k", "n"))
    rec, _, _ = creative_telescope(f)
    A = [brute_sum(f, nv, 0, nv) for nv in range(22)]
    assert all(A[nv] == 2 ** nv for nv in range(22))
    for nv in range(20):
        total = sum(Fraction(c.eval({"n": nv})) * A[nv + j]
                    for j, c in enumerate(rec.coefficients))
        assert total == 0


def test_partial_sum_oracle_central_binomial():
    from math import comb
    f = parse_term("binomial(n,k)^2", ("k", "n"))
    rec, _, _ = creative_telescope(f)
    A = [brute_sum(f, nv, 0, nv) for nv in range(22)]
    assert all(A[nv] == comb(2 * nv, nv) for nv in range(22))
    for nv in range(20):
        total = sum(Fraction(c.eval({"n": nv})) * A[nv + j]
                    for j, c in enumerate(rec.coefficients))
        assert total == 0


def test_creative_telescope_vandermonde_with_parameter():
    f = parse_term("binomial(n,k)*binomial(a,k)", ("k", "n", "a"))
    out = creative_telescope(f)
    assert out is not None
    rec, cert, _ = out
    assert rec.order == 1
    assert verify_certificate(f, rec, cert)
    # oracle: A(n) = C(n+a, n) at integer a; recurrence must annihilate it
    for av in (2, 3, 5):
        A = [brute_sum(f, nv, 0, nv, {"a": av}) for nv in range(12)]
        for nv in range(10):
            total = sum(Fraction(c.eval({"n": nv, "a": av})) * A[nv + j]
                        for j, c in enumerate(rec.coefficients))
            assert total == 0


def test_creative_telescope_dixon():
    f = parse_term(
        "(-1)^k*binomial(a+b,a+k)*binomial(a+n,n+k)*binomial(b+n,b+k)",
        ("k", "n", "a", "b"))
    out = creative_telescope(f, max_order=2)
    assert out is not None
    rec, cert, _ = out
    assert rec.order <= 2
    assert verify_certificate(f, rec, cert)
    # recurrence is consistent with the closed form (a+b+n)!/(a!b!n!):
    # its ratio in n is (a+b+n+1)/(n+1)
    for av, bv in ((1, 1), (2, 3)):
        from math import factorial
        def closed(nv):
            return Fraction(factorial(av + bv + nv),
                            factorial(av) * factorial(bv) * factorial(nv))
        for nv in range(8):
            total = sum(Fraction(c.eval({"n": nv, "a": av, "b": bv}))
                        * closed(nv + j)
                        for j, c in enumerate(rec.coefficients))
            assert total == 0
        # and against brute-force sums of the summand itself
        A = [brute_sum(f, nv, -nv, nv, {"a": av, "b": bv}) for nv in range(8)]
        assert all(A[nv] == closed(nv) for nv in range(8))


def test_verify_certificate_rejects_perturbation():
    f = parse_term("binomial(n,k)", ("k", "n"))
    rec, cert, _ = creative_telescope(f)
    vars = ("k", "n")
    k = MultiPoly.variable(vars, "k")
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    bad = RationalFunction(-k, n + one.scale(2) - k)  # -k/(n+2-k)
    assert not verify_certificate(f, rec, Certificate(bad))


def test_verify_certificate_rejects_zero():
    f = parse_term("binomial(n,k)", ("k", "n"))
    rec, _, _ = creative_telescope(f)
    zero = Certificate(RationalFunction.constant(("k", "n"), 0))
    assert not verify_certificate(f, rec, zero)


def test_scaling_invariance():
    f = parse_term("binomial(n,k)", ("k", "n"))
    g = f.with_rational(RationalFunction.constant(("k", "n"), Fraction(7, 3)))
    rec_f, _, _ = creative_telescope(f)
    rec_g, _, _ = creative_telescope(g)
    assert rec_f.coefficients == rec_g.coefficients


def test_telescope_mrr_specialized():
    # two-parameter identity specialized to x=1, z=1/2: pure (n, k) summand
    f = parse_term(
        "rf(-2*n-1,k)*rf(2*n+3,k)*rf(1,k)*rf(n+2,k)*rf(n+3/2,k)"
        "/(rf(1,k)*rf(3/2,k)*rf(2*n+3,k)*rf(2,k)*k!)",
        ("k", "n"))
    out = creative_telescope(f, max_order=4)
    assert out is not None
    rec, cert, _ = out
    assert verify_certificate(f, rec, cert)
    # the sum vanishes for every n: recurrence + zero initial values
    for nv in range(0, 6):
        assert brute_sum(f, nv, 0, 2 * nv + 1) == 0


def test_order_zero_needs_no_rec_var():
    # sigma_0 = 1 takes no shift in n, so a summand in k alone is assembled,
    # solved and verified at order 0
    rec, cert, _ = creative_telescope(parse_term("k", ("k",)), 0, k="k")
    assert rec.order == 0
    f = parse_term("k*2^k", ("k",))
    R = RationalFunction(poly_of("k-2", ("k",)), poly_of("k", ("k",)))
    one = Recurrence(0, (MultiPoly.constant((), 1),))
    assert verify_certificate(f, one, Certificate(R), k="k")
    assert not verify_certificate(f, one, Certificate(R.shift("k", 1)), k="k")
