from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperproof import gridproof, telescope
from hyperproof.factored import Factored, factored_split_over
from hyperproof.cli import load_identity, run_prove
from hyperproof.gridproof import normalize_and_delta
from hyperproof.linalg import _grid_values, solve_nullspace
from hyperproof.polys import MultiPoly
from hyperproof.telescope import (
    Certificate, Recurrence, ShiftQuotients, _default_vars, _shift_ratios,
    assemble, printed_certificate, solve_order, verify_certificate,
)
from hyperproof.terms import TermError, parse_term, term_value
from oracles import rows_by_to_univar, solve_order_reference


def cross_multiplied(f, rec, cert, k=None, n=None):
    """lhs_num * rhs_den - rhs_num * lhs_den of the certificate identity,
    both products expanded: a zero test by cross-multiplication, the
    oracle of verify_certificate's sum over the lcm of the denominators."""
    k, n = _default_vars(f, k, n)
    vars = f.symbols
    us, Q, (rho_num, rho_den) = _shift_ratios(f, rec.order, k, n)
    lhs_num = MultiPoly.zero(vars)
    for a, u in zip(rec.coefficients, us):
        lhs_num = lhs_num + a.embed(vars) * u.expand()
    lhs_den = Q.expand()
    pn = rho_num.expand()
    pd = rho_den.expand()
    rn, rd = cert.num, cert.den.expand()
    rn1 = rn.shift(k, 1)
    rd1 = rd.shift(k, 1)
    rhs_num = rn1 * pn * rd - rn * pd * rd1
    rhs_den = rd1 * pd * rd
    return lhs_num * rhs_den - rhs_num * lhs_den


def oracle_verify(f, rec, cert, k=None, n=None):
    try:
        return cross_multiplied(f, rec, cert, k, n).is_zero()
    except (TermError, ZeroDivisionError, ValueError):
        return False


def poly_of(text, syms):
    num, den = parse_term(text, syms).rational.split()
    assert not den.facs
    return num.expand()


def certificate(num, den):
    """The certificate num/den, its denominator one factor."""
    return Certificate(num, Factored.one(num.vars).mul_poly(den, 1))


def has_ratio(cert, num, den):
    """Whether the certificate is num/den, by cross-multiplication."""
    return cert.num * den == num * cert.den.expand()


def brute_sum(f, n_val, lo, hi, extra=None):
    total = Fraction(0)
    for kv in range(lo, hi + 1):
        pt = {"k": kv, "n": n_val}
        if extra:
            pt.update(extra)
        total += term_value(f, pt, True)
    return total


def test_assemble_binomial_j1_shape():
    f = parse_term("binomial(n,k)", ("k", "n"))
    sys = assemble(f, 1)
    ansatz, matrix = sys.ansatz, sys.matrix
    assert ansatz.order == 1
    assert matrix.cols == ansatz.order + 1 + ansatz.degree + 1
    assert matrix.vars == ("n",)


def _lifted_ratio(f):
    # (a1, a0) of the first kernel vector of the J=1 system, lifted to M
    sys = assemble(f, 1)
    basis = solve_nullspace(sys.matrix)
    assert basis
    vec = sys.lift(basis[0])
    return vec[1], vec[0]


def test_assemble_nullspace_ratio_binomial():
    # nullspace of the J=1 system gives a1/a0 = -1/2
    f = parse_term("binomial(n,k)", ("k", "n"))
    a1, a0 = _lifted_ratio(f)
    assert a1 == a0.scale(Fraction(-1, 2))


def test_assemble_nullspace_ratio_central_binomial():
    f = parse_term("binomial(n,k)^2", ("k", "n"))
    a1, a0 = _lifted_ratio(f)
    # a1/a0 = -(n+1)/(4n+2)
    n = MultiPoly.variable(("n",), "n")
    one = MultiPoly.constant(("n",), 1)
    assert a1 * (n.scale(4) + one.scale(2)) == -(n + one) * a0


def test_creative_telescope_binomial():
    f = parse_term("binomial(n,k)", ("k", "n"))
    rec, cert = solve_order(assemble(f, 1))
    assert rec.order == 1
    a0, a1 = rec.coefficients
    assert a0.as_constant() == -2 and a1.as_constant() == 1
    # R = -k/(n+1-k)
    vars = ("k", "n")
    k = MultiPoly.variable(vars, "k")
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    assert has_ratio(cert, -k, n + one - k)
    assert verify_certificate(f, rec, cert)


def test_creative_telescope_central_binomial():
    f = parse_term("binomial(n,k)^2", ("k", "n"))
    rec, cert = solve_order(assemble(f, 1))
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
    rec, _ = solve_order(assemble(f, 1))
    A = [brute_sum(f, nv, 0, nv) for nv in range(22)]
    assert all(A[nv] == 2 ** nv for nv in range(22))
    for nv in range(20):
        total = sum(Fraction(c.eval({"n": nv})) * A[nv + j]
                    for j, c in enumerate(rec.coefficients))
        assert total == 0


def test_partial_sum_oracle_central_binomial():
    from math import comb
    f = parse_term("binomial(n,k)^2", ("k", "n"))
    rec, _ = solve_order(assemble(f, 1))
    A = [brute_sum(f, nv, 0, nv) for nv in range(22)]
    assert all(A[nv] == comb(2 * nv, nv) for nv in range(22))
    for nv in range(20):
        total = sum(Fraction(c.eval({"n": nv})) * A[nv + j]
                    for j, c in enumerate(rec.coefficients))
        assert total == 0


def test_creative_telescope_vandermonde_with_parameter():
    f = parse_term("binomial(n,k)*binomial(a,k)", ("k", "n", "a"))
    rec, cert = solve_order(assemble(f, 1))
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
    rec, cert = solve_order(assemble(f, 1))
    assert rec.order == 1
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
    rec, cert = solve_order(assemble(f, 1))
    vars = ("k", "n")
    k = MultiPoly.variable(vars, "k")
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    bad = certificate(-k, n + one.scale(2) - k)  # -k/(n+2-k)
    assert not verify_certificate(f, rec, bad)


def test_verify_certificate_rejects_zero():
    f = parse_term("binomial(n,k)", ("k", "n"))
    rec, _ = solve_order(assemble(f, 1))
    zero = Certificate(MultiPoly.zero(("k", "n")), Factored.one(("k", "n")))
    assert not verify_certificate(f, rec, zero)


def test_scaling_invariance():
    f = parse_term("binomial(n,k)", ("k", "n"))
    g = f.with_rational(Factored(("k", "n"), Fraction(7, 3)))
    rec_f, _ = solve_order(assemble(f, 1))
    rec_g, _ = solve_order(assemble(g, 1))
    assert rec_f.coefficients == rec_g.coefficients


def test_telescope_mrr_specialized():
    # two-parameter identity specialized to x=1, z=1/2: pure (n, k) summand
    f = parse_term(
        "rf(-2*n-1,k)*rf(2*n+3,k)*rf(1,k)*rf(n+2,k)*rf(n+3/2,k)"
        "/(rf(1,k)*rf(3/2,k)*rf(2*n+3,k)*rf(2,k)*k!)",
        ("k", "n"))
    rec, cert = solve_order(assemble(f, 1))
    assert verify_certificate(f, rec, cert)
    # the sum vanishes for every n: recurrence + zero initial values
    for nv in range(0, 6):
        assert brute_sum(f, nv, 0, 2 * nv + 1) == 0


def test_order_zero_needs_no_rec_var():
    # sigma_0 = 1 takes no shift in n, so a summand in k alone is assembled,
    # solved and verified at order 0
    rec, cert = solve_order(assemble(parse_term("k", ("k",)), 0, k="k"))
    assert rec.order == 0
    f = parse_term("k*2^k", ("k",))
    num, den = poly_of("k-2", ("k",)), poly_of("k", ("k",))
    one = Recurrence(0, (MultiPoly.constant((), 1),))
    assert verify_certificate(f, one, certificate(num, den), k="k")
    assert not verify_certificate(
        f, one, certificate(num.shift("k", 1), den.shift("k", 1)), k="k")


# Certificates of the kinds the corpus and the benchmark's symbolic workload
# verify: parameter-free and parametric, orders 1 and 2.  The mrr entries
# are specializations at x = a/7, z = b/11; their certificates are left
# unreduced (229/122 terms at x = 3/7, z = 5/11), so their denominators stay
# products of many factors.  Each entry is (summand, symbols, order of its
# telescoper).
CERTIFIED = {
    "binomial": ("binomial(n,k)", ("k", "n"), 1),
    "vandermonde": ("binomial(n,k)*binomial(a,k)", ("k", "n", "a"), 1),
    "dixon": ("(-1)^k*binomial(a+b,a+k)*binomial(a+n,n+k)*binomial(b+n,b+k)",
              ("k", "n", "a", "b"), 1),
    "dixon-a2-b3": ("(-1)^k*binomial(5,2+k)*binomial(2+n,n+k)"
                    "*binomial(3+n,3+k)", ("k", "n"), 1),
    "mrr-x3o7-z5o11": ("rf(-2*n-1,k)*rf(2*n+17/7,k)*rf(73/154,k)*rf(n+10/7,k)"
                       "*rf(n+16/11,k)/(rf(5/7,k)*rf(17/14,k)*rf(2*n+32/11,k)"
                       "*rf(73/77,k)*k!)", ("k", "n"), 2),
    "mrr-x6o7-z6o11": ("rf(-2*n-1,k)*rf(2*n+20/7,k)*rf(125/154,k)"
                       "*rf(n+13/7,k)*rf(n+17/11,k)/(rf(13/14,k)*rf(10/7,k)"
                       "*rf(2*n+34/11,k)*rf(125/77,k)*k!)", ("k", "n"), 2),
    "mrr-x5o7-z9o11": ("rf(-2*n-1,k)*rf(2*n+19/7,k)*rf(61/154,k)"
                       "*rf(n+12/7,k)*rf(n+20/11,k)/(rf(6/7,k)*rf(19/14,k)"
                       "*rf(2*n+40/11,k)*rf(61/77,k)*k!)", ("k", "n"), 2),
}
MRR_SPECIALIZATIONS = [name for name in CERTIFIED if name.startswith("mrr")]


@cache
def certified(name):
    text, symbols, J = CERTIFIED[name]
    f = parse_term(text, symbols)
    rec, cert = solve_order(assemble(f, J))
    return f, rec, printed_certificate(cert, J)


@st.composite
def perturbed_certificates(draw):
    """A certified (f, rec, cert) with at most one term added to R's
    numerator or denominator or to one recurrence coefficient.  A
    certificate keeps its factored denominator unless the denominator
    changed, which makes it one factor."""
    f, rec, cert = certified(draw(st.sampled_from(sorted(CERTIFIED))))
    c = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 2)))
    where = draw(st.sampled_from(["none", "num", "den", "rec"]))
    if where == "none":
        return f, rec, cert
    if where == "rec":
        j = draw(st.integers(0, rec.order))
        vars = rec.coefficients[j].vars
        exp = tuple(draw(st.integers(0, 2)) for _ in vars)
        coeffs = list(rec.coefficients)
        coeffs[j] = coeffs[j] + MultiPoly.from_terms(vars, [(exp, c)])
        return f, Recurrence(rec.order, tuple(coeffs)), cert
    num, den = cert.num, cert.den.expand()
    target = num if where == "num" else den
    # a term R already has, or any small monomial
    exp = draw(st.sampled_from(sorted(target.terms))
               | st.tuples(*[st.integers(0, 3)] * len(f.symbols)))
    target = target + MultiPoly.from_terms(f.symbols, [(exp, c)])
    assume(not target.is_zero())
    if where == "num":
        return f, rec, Certificate(target, cert.den)
    return f, rec, certificate(num, target)


@settings(deadline=None, max_examples=60)
@given(perturbed_certificates())
def test_verify_matches_the_cross_multiplied_oracle(case):
    f, rec, cert = case
    assert verify_certificate(f, rec, cert) == \
        cross_multiplied(f, rec, cert).is_zero()


@pytest.mark.parametrize("name", ["binomial", "dixon", "mrr-x3o7-z5o11"])
def test_perturbation_at_the_degree_bound_is_rejected(name):
    # R + 3 n^D, D the n-degree bound of the valid certificate's identity
    # cleared by the lcm of its denominators: the perturbed identity is
    # 3 n^D (L/pd) (pd - pn), whose n-degree sits exactly on that bound, so
    # a zero test on a grid one node short in n could miss it
    D = {"binomial": 2, "dixon": 4, "mrr-x3o7-z5o11": 30}[name]
    f, rec, cert = certified(name)
    assert verify_certificate(f, rec, cert)
    n = MultiPoly.variable(f.symbols, "n")
    bad = Certificate(cert.num + (n ** D).scale(3) * cert.den.expand(),
                      cert.den)
    assert not verify_certificate(f, rec, bad)
    assert not oracle_verify(f, rec, bad)


def test_factored_denominator_expands_to_the_certificate_denominator():
    # a certificate prints its denominator expanded and made monic, the
    # numerator divided by the same leading coefficient; the unreduced mrr
    # certificates keep their denominator as a product of many factors, and
    # the reduced ones as one factor
    for name in CERTIFIED:
        _, _, cert = certified(name)
        den = cert.den.expand()
        lc = den.leading_coeff()
        num, den = cert.num.scale(Fraction(1) / lc), den.monic()
        assert str(cert) == (str(num) if den.is_constant()
                             else f"({num})/({den})"), name
        assert (len(cert.den.facs) > 1) == (name in MRR_SPECIALIZATIONS), name


def test_a_denominator_without_factors_is_split_by_exact_division():
    # every factor of the given products is peeled as often as it divides;
    # the cofactor stays one opaque factor
    vars = ("k", "n")
    k, n = (MultiPoly.variable(vars, v) for v in vars)
    one = MultiPoly.constant(vars, 1)
    over = Factored.one(vars).mul_poly(k + one, 1).mul_poly(n.scale(2), 1)
    p = ((k + one) ** 2 * (n + one) * (n * n + one)).scale(Fraction(3, 2))
    split = factored_split_over(Factored.one(vars).mul_poly(p, 1), over)
    assert split.expand() == p
    assert [(fid[0], e) for fid, (_, e) in split.facs.items()] == \
        [("aff", 2), ("opq", 1)]
    assert split.factors()[1] == (n + one) * (n * n + one)
    # the reduced dixon certificate's denominator k - n - 1 is a factor of
    # Q, and the unreduced mrr certificate's, expanded into one factor as a
    # printed certificate is read, splits into factors of Q alone: the lcm
    # of the identity's denominators clears no opaque cofactor
    for name in ("dixon", "mrr-x3o7-z5o11"):
        f, rec, cert = certified(name)
        Q = _shift_ratios(f, rec.order, "k", "n")[1]
        den = cert.den.expand()
        one_factor = Factored.one(f.symbols).mul_poly(den, 1)
        split = factored_split_over(one_factor, Q)
        assert split.expand() == den
        assert all(fid[0] == "aff" for fid in split.facs), name
        assert set(split.facs) <= set(Q.facs), name
    assert len(split.facs) == sum(fid[0] == "aff" for fid in Q.facs)


def _corpus_certificates(monkeypatch):
    """(name, f, rec, cert, k, n, ratios) for every certificate a proof of
    the corpus verifies, at certainty 1/10, seed 0; ratios are the shift
    ratios the proof passed, or None."""
    out = []
    real = gridproof.verify_certificate

    def record(f, rec, cert, **kw):
        out.append((path.stem, f, rec, cert, kw.get("k"), kw.get("n"),
                    kw.get("ratios")))
        return real(f, rec, cert, **kw)

    monkeypatch.setattr(gridproof, "verify_certificate", record)
    for path in sorted((Path(__file__).parent.parent / "corpus").glob("*.txt")):
        run_prove(load_identity(path), Fraction(1, 10), 0, 6, 1)
    monkeypatch.undo()
    return out


def test_with_and_without_factors_and_the_oracle_agree(monkeypatch):
    # on every certificate the corpus proofs verify and on the mrr
    # specializations, each as published and with its recurrence broken:
    # the factored denominator, the one found by exact division, the shift
    # ratios of the proof's table, fresh ones and the cross-multiplied
    # oracle give one verdict
    cases = _corpus_certificates(monkeypatch)
    assert {c[0] for c in cases} >= {"binomial-2n", "dixon-cubes",
                                     "mrr-specialized"}
    assert any(c[6] is not None for c in cases)
    for name in MRR_SPECIALIZATIONS:
        f, rec, cert = certified(name)
        cases.append((name, f, rec, cert, "k", "n",
                      _shift_ratios(f, rec.order, "k", "n")))
    factored = 0
    for name, f, rec, cert, k, n, ratios in cases:
        a = list(rec.coefficients)
        broken = Recurrence(rec.order, tuple(
            a[:-1] + [a[-1] + MultiPoly.constant(a[-1].vars, 1)]))
        one_factor = certificate(cert.num, cert.den.expand())
        for r, expected in ((rec, True), (broken, False)):
            for c in (cert, one_factor):
                for shared in ((None,) if ratios is None else (None, ratios)):
                    assert verify_certificate(f, r, c, k=k, n=n,
                                              ratios=shared) == expected, name
            assert oracle_verify(f, r, cert, k, n) == expected, name
        factored += len(cert.den.facs) > 1
    assert factored >= len(MRR_SPECIALIZATIONS)


def test_perturbation_nonzero_at_one_node_only_is_rejected():
    # f = 1 and a_0 = 0 certify with R = 0.  R = k N(n) gives P = -N(n), of
    # n-degree D; N vanishes at all but the last of the D + 1 nodes that a
    # grid in n would need, so a grid one node short would accept it
    vars = ("k", "n")
    f = parse_term("1", vars)
    rec = Recurrence(0, (MultiPoly.zero(("n",)),))
    assert verify_certificate(f, rec, Certificate(MultiPoly.zero(vars),
                                                  Factored.one(vars)))
    k, n = (MultiPoly.variable(vars, v) for v in vars)
    D = 6
    N = MultiPoly.constant(vars, 1)
    for t in _grid_values(D)[:-1]:
        N = N * (n - MultiPoly.constant(vars, t))
    bad = Certificate(k * N, Factored.one(vars))
    assert not verify_certificate(f, rec, bad)
    assert not oracle_verify(f, rec, bad)


def test_a_certificate_over_other_variables_is_embedded():
    # a certificate over the term's variables in another order, or over
    # fewer of them, is read over the term's own variables
    f = parse_term("binomial(n,k)", ("k", "n", "a"))
    rec = Recurrence(1, tuple(MultiPoly.constant(("n",), c) for c in (-2, 1)))
    for vars in (("n", "k"), ("k", "n"), ("a", "n", "k"), f.symbols):
        k, n = (MultiPoly.variable(vars, v) for v in ("k", "n"))
        one = MultiPoly.constant(vars, 1)
        den = Factored.one(vars).mul_poly(n + one - k, 1)
        assert verify_certificate(f, rec, Certificate(-k, den)), vars
        assert not verify_certificate(f, rec, Certificate(k, den)), vars
        assert not verify_certificate(f, rec, Certificate(-k * n, den)), vars


def _assembled_term(name):
    """(term, k, n): the differenced term of a corpus identity, or a
    certified specialization."""
    if name not in CERTIFIED:
        ident = load_identity(Path(__file__).parent.parent / "corpus"
                              / f"{name}.txt")
        F, rhs, lower, upper = ident.parsed()
        nid = normalize_and_delta(F, rhs, ident.params, "k", "n", lower, upper)
        return nid.delta_term, nid.k, nid.n
    return parse_term(*CERTIFIED[name][:2]), "k", "n"


@pytest.mark.parametrize("name", ["mrr", "mrr-x3o7-z5o11"])
def test_assemble_rows_match_the_to_univar_split(name, monkeypatch):
    # the one-pass row split gives the old per-row to_univar matrix, entry by
    # entry, with the same term order and coefficient types
    f, k, n = _assembled_term(name)
    seen = []
    real = telescope._split_rows

    def record(cols, ki, matrix_vars):
        seen.append((cols, matrix_vars))
        return real(cols, ki, matrix_vars)

    monkeypatch.setattr(telescope, "_split_rows", record)
    sys = assemble(f, 2, k=k, n=n)
    (cols, matrix_vars), = seen
    ref = rows_by_to_univar(cols, k, matrix_vars)
    assert len(ref) == sys.matrix.rows
    for row, ref_row in zip(sys.matrix.entries, ref):
        for e, r in zip(row, ref_row):
            assert e.vars == r.vars
            assert [(x, c, type(c)) for x, c in e.terms.items()] == \
                [(x, c, type(c)) for x, c in r.terms.items()]


@pytest.mark.parametrize("name", ["mrr", "mrr-x3o7-z5o11"])
@pytest.mark.parametrize("J", [1, 2])
def test_gosper_operator_columns_by_shifting(name, J, monkeypatch):
    # the b_i columns, stepped from column i by shifts of exponents in k,
    # are q(k) (k+1)^i - r(k-1) k^i with powers and a shift in k, for every
    # i up to the degree bound K
    f, k, n = _assembled_term(name)
    seen = {}
    real_bound, real_split = telescope.gosper_degree_bound, telescope._split_rows

    def bound(deg_p, q, r, var):
        seen["q"], seen["r"] = q, r
        return real_bound(deg_p, q, r, var)

    def split(cols, ki, matrix_vars):
        seen["cols"] = cols
        return real_split(cols, ki, matrix_vars)

    monkeypatch.setattr(telescope, "gosper_degree_bound", bound)
    monkeypatch.setattr(telescope, "_split_rows", split)
    K = assemble(f, J, k=k, n=n).ansatz.degree
    kpoly = MultiPoly.variable(f.symbols, k)
    rm = seen["r"].shift(k, -1)
    assert seen["cols"][J + 1:] == [
        seen["q"] * (kpoly ** i).shift(k, 1) - rm * kpoly ** i
        for i in range(K + 1)]


def test_assemble_leaves_its_shift_ratios_as_built():
    # assemble multiplies through the copies a table hands out, so the
    # ratios that verify_certificate reads from the proof's table after it
    # are those of a fresh table, also at the order-0 systems, where pbar
    # is not 1
    def tables(ratios):
        us, Q, rho = ratios
        return [(v.const, v.facs) for v in (*us, Q, *rho)]

    nontrivial = 0
    for name in ("central-binomial", "dixon-cubes", "mrr"):
        f, k, n = _assembled_term(name)
        shifts = ShiftQuotients(f)
        for J in range(3):
            sys = assemble(f, J, k=k, n=n, shifts=shifts)
            if sys is None:
                continue
            fresh = tables(_shift_ratios(f, J, k, n))
            assert tables(_shift_ratios(f, J, k, n, shifts)) == fresh
            assert (sys.Q.const, sys.Q.facs) == fresh[J + 1]
            nontrivial += bool(sys.pbar.facs)
    assert nontrivial >= 2


def test_solve_order_matches_the_reference_tail_on_the_corpora(monkeypatch):
    # every system the proofs of corpus/ and corpus/extra/ solve gives the
    # recurrence and certificate of the tail that expanded each L / c_j on
    # its own, built b(k) from powers of k and divided b_i den by scale
    systems = []
    real = gridproof.solve_order

    def record(sys):
        systems.append(sys)
        return real(sys)

    monkeypatch.setattr(gridproof, "solve_order", record)
    root = Path(__file__).parent.parent / "corpus"
    for path in sorted([*root.glob("*.txt"), *root.glob("extra/*.txt")]):
        run_prove(load_identity(path), Fraction(1, 10), 0, 6, 1)
    assert {sys.ansatz.order for sys in systems} == {0, 1}
    # and the orders up to the telescoper's of the certified terms, mrr's
    # specializations at order 2 among them
    for text, symbols, J in CERTIFIED.values():
        f = parse_term(text, symbols)
        systems += filter(None, (assemble(f, j) for j in range(J + 1)))
    solved = 0
    for sys in systems:
        got = solve_order(sys)
        assert got == solve_order_reference(sys)
        solved += got is not None
    assert solved >= 15

