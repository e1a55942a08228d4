import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperproof import factored, polys, telescope
from hyperproof.cli import load_identity
from hyperproof.factored import (
    Factored, _normalize_affine, _sylvester_resultant, dispersion_set,
    gosper_normal, integer_roots_univar, integer_roots_in_var,
)
from hyperproof.gosper import gosper_antidifference
from hyperproof.gridproof import normalize_and_delta
from hyperproof.linalg import PolyMatrix, solve_nullspace
from hyperproof.polys import MultiPoly, RationalFunction, poly_gcd
from hyperproof.telescope import assemble
from hyperproof.terms import EvalError, eval_summand, eval_term, parse_term, shift_quotient
from oracles import det_symbolic, integer_roots_reference


def ratio(num_text, den_text, syms=("k",)):
    t = parse_term(f"({num_text})/({den_text})", syms)
    return t.rational


def gosper_form(rat, k="k"):
    """Expanded Gosper normal form (p, q, r) of a rational shift quotient."""
    num = Factored.one(rat.vars).mul_poly(rat.num, 1)
    den = Factored.one(rat.vars).mul_poly(rat.den, 1)
    return tuple(f.expand() for f in gosper_normal(num, den, k))


def check_gosper_form(form, rat, k="k"):
    p, q, r = form
    # reconstructs the ratio: p(k+1) q(k) / (p(k) r(k)) == rat
    lhs = RationalFunction(p.shift(k, 1) * q, p * r)
    assert lhs == rat
    # independent re-verification of gcd(q(k), r(k+j)) = 1 for all j >= 0:
    # the resultant of q(k) and r(k+j), a polynomial in j, must have no
    # nonnegative integer roots
    if q.degree(k) > 0 and r.degree(k) > 0:
        jvars = q.vars + ("_j",)
        qj = q.embed(jvars)
        kpoly = MultiPoly.variable(jvars, k)
        jpoly = MultiPoly.variable(jvars, "_j")
        rj = r.embed(jvars).subst_linear(k, kpoly + jpoly)
        res = _sylvester_resultant(qj.to_univar(k), rj.to_univar(k), jvars)
        assert not res.is_zero()
        if not res.is_constant() and res.degree("_j") > 0:
            roots = integer_roots_in_var(res, "_j")
            assert all(j < 0 for j in roots)
    for j in range(0, 13):
        assert poly_gcd(q, r.shift(k, j)).is_constant()


def test_integer_roots_univar():
    # (j-3)(j+1) = j^2 - 2j - 3
    assert integer_roots_univar([-3, -2, 1]) == [-1, 3]
    # j*(j-2)
    assert integer_roots_univar([0, -2, 1]) == [0, 2]
    # no integer roots
    assert integer_roots_univar([1, 1, 1]) == []


def test_integer_roots_in_var():
    vars = ("j", "n")
    j = MultiPoly.variable(vars, "j")
    n = MultiPoly.variable(vars, "n")
    p = (j - MultiPoly.constant(vars, 2)) * (j * n + n)  # roots j=2, j=-1
    assert integer_roots_in_var(p, "j") == [-1, 2]


def _dense_product(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# (j-1)(j-2)...(j-10)(j^2+10^13): ten roots modulo every prime above 10, and a
# trailing coefficient past 10^12
TEN_ROOTS_AND_A_BIG_CONSTANT = _dense_product(
    *[[-r, 1] for r in range(1, 11)], [10 ** 13, 0, 1])


def test_integer_roots_univar_ten_roots_and_a_big_constant():
    assert integer_roots_univar(TEN_ROOTS_AND_A_BIG_CONSTANT) == \
        list(range(1, 11))


def test_integer_roots_in_var_ten_roots_and_a_big_constant():
    vars = ("j", "n")
    p = MultiPoly.from_univar("j", [MultiPoly.constant(vars, c)
                                    for c in TEN_ROOTS_AND_A_BIG_CONSTANT])
    p = p * (MultiPoly.variable(vars, "n") + MultiPoly.constant(vars, 1))
    assert integer_roots_in_var(p, "j") == list(range(1, 11))


def test_integer_roots_match_the_reference():
    # repeated roots, rational coefficients, a zero root, and trailing
    # coefficients on both sides of the reference's 10^12 switch; the
    # reference's give-ups are skipped, and every root is checked exactly
    rng = random.Random(21)
    compared = 0
    for _ in range(40):
        roots = [rng.randint(-30, 30) for _ in range(rng.randint(0, 4))]
        big = rng.random() < 0.5
        c = rng.randint(10 ** 12, 10 ** 15) if big else rng.randint(1, 99)
        other = rng.choice([[c, 0, 1], [c, rng.choice([-1, 1]) * rng.randint(2, 9)],
                            [c, rng.randint(-5, 5), 0, 1]])
        zeros = [0] * rng.choice([0, 0, 1, 2])
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                         rng.randint(1, 9))
        linear = [[-r, 1] for r in roots for _ in range(rng.randint(1, 2))]
        coeffs = [scale * x for x in _dense_product(zeros + [1], other, *linear)]
        got = integer_roots_univar(coeffs)
        assert got == sorted(set(got))
        assert set(roots) | ({0} if zeros else set()) <= set(got)
        assert all(sum(x * r ** d for d, x in enumerate(coeffs)) == 0
                   for r in got)
        try:
            expected = integer_roots_reference(coeffs)
        except ArithmeticError:
            continue
        assert got == expected
        compared += 1
    assert compared >= 30


def test_pqr_k_over_k_plus_2():
    form = gosper_form(ratio("k", "k+2"))
    check_gosper_form(form, ratio("k", "k+2"))
    p, q, r = form
    assert p.is_constant()
    assert q == MultiPoly.variable(("k",), "k")


def test_pqr_k_plus_3_over_k():
    rat = ratio("k+3", "k")
    form = gosper_form(rat)
    check_gosper_form(form, rat)
    p, q, r = form
    # p = k(k+1)(k+2) up to normalization
    k = MultiPoly.variable(("k",), "k")
    one = MultiPoly.constant(("k",), 1)
    expected = k * (k + one) * (k + one.scale(2))
    assert p.monic() == expected.monic()
    assert q.is_constant() and r.is_constant()


def test_pqr_constant_ratio():
    rat = ratio("2", "1")
    form = gosper_form(rat)
    check_gosper_form(form, rat)
    p, q, r = form
    assert q.as_constant() == 2
    assert p.is_constant() and r.is_constant()


def test_pqr_zero_ratio_errors():
    with pytest.raises(ValueError):
        gosper_form(RationalFunction.constant(("k",), 0))


def test_pqr_random_reconstruction():
    rng = random.Random(9)
    k = MultiPoly.variable(("k",), "k")
    one = MultiPoly.constant(("k",), 1)
    for _ in range(25):
        def lin():
            return k.scale(rng.randint(1, 2)) + one.scale(rng.randint(-4, 4))
        num = lin() * lin()
        den = lin() * lin()
        rat = RationalFunction(num, den)
        if rat.is_constant() or rat.num.degree("k") <= 0:
            continue
        check_gosper_form(gosper_form(rat), rat)


def test_gosper_k_times_k_factorial():
    # sum of k*k! telescopese to k!: R = 1/k
    f = parse_term("k*k!", ("k",))
    cert = gosper_antidifference(f, "k")
    assert cert is not None
    assert cert.ratio == ratio("1", "k")


def test_gosper_reciprocal_k_k_plus_1():
    f = parse_term("1/(k*(k+1))", ("k",))
    cert = gosper_antidifference(f, "k")
    assert cert is not None
    assert cert.ratio == ratio("-k-1", "1")


def test_gosper_k_factorial_unsummable():
    f = parse_term("k!", ("k",))
    # the degree bound rules out the order-0 system of k!
    assert assemble(f, 0, k="k") is None
    # independent oracle: for no degree 0..5 has the order-0 system of k!,
    # (k+1) b(k+1) - b(k) = a_0, a nullspace vector with a_0 != 0
    vars = ("k",)
    k = MultiPoly.variable(vars, "k")
    one = MultiPoly.constant(vars, 1)
    for deg in range(6):
        cols = [-one] + [(k + one) * (k + one) ** i - k ** i
                         for i in range(deg + 1)]
        rows = [[(c.to_univar("k")[d] if d <= c.degree("k")
                  else MultiPoly.zero(vars)).restrict(())
                 for c in cols] for d in range(deg + 2)]
        basis = solve_nullspace(PolyMatrix(rows))
        assert all(vec[0].is_zero() for vec in basis)
    # numeric oracle: no small-height rational R satisfies
    # R(k+1)(k+1) - R(k) = 1 at many points simultaneously
    # (check that the functional would force R to blow up)
    rho = shift_quotient(f, "k")
    vals = {}
    R = Fraction(1)  # suppose R(1) = 1; recurrence forces the rest
    k0 = 1
    vals[k0] = R
    for i in range(1, 15):
        # R(k+1) = (1 + R(k)) / rho(k)
        vals[k0 + i] = (1 + vals[k0 + i - 1]) / rho.eval({"k": k0 + i - 1})
    # denominators of a rational function of bounded degree cannot keep
    # growing factorially; detect super-polynomial growth
    assert vals[14].denominator > 10 ** 8
    assert gosper_antidifference(f, "k") is None


def test_gosper_skips_homogeneous_solutions():
    # a rational summand's order-0 system has a nullspace vector with a_0 = 0
    # (G constant in k); only a vector with a_0 != 0 gives a certificate
    f = parse_term("k", ("k",))
    basis = solve_nullspace(assemble(f, 0, k="k").matrix)
    assert basis[0][0].is_zero() and not basis[1][0].is_zero()
    assert gosper_antidifference(f, "k").ratio == ratio("k-1", "2")
    # 1/k (harmonic numbers) has only the homogeneous vector
    f = parse_term("1/k", ("k",))
    basis = solve_nullspace(assemble(f, 0, k="k").matrix)
    assert basis and all(vec[0].is_zero() for vec in basis)
    assert gosper_antidifference(f, "k") is None


def test_gosper_certificate_identity():
    # R(k+1) rho(k) - R(k) = 1 identically, after clearing denominators
    cases = [
        ("k*k!", ("k",)),
        ("1/(k*(k+1))", ("k",)),
        ("k/(k+1)!", ("k",)),
        ("(4*k+1)*k!/(2*k+1)!", ("k",)),
    ]
    for text, syms in cases:
        f = parse_term(text, syms)
        cert = gosper_antidifference(f, "k")
        assert cert is not None, text
        rho = shift_quotient(f, "k")
        one = RationalFunction.constant(syms, 1)
        lhs = cert.ratio.shift("k", 1) * rho - cert.ratio
        assert lhs == one, text


def test_gosper_telescoping_windows():
    # sums over random windows match G(b+1) - G(a) exactly
    rng = random.Random(31)
    f = parse_term("k*k!", ("k",))
    cert = gosper_antidifference(f, "k")

    def G(kv):
        return cert.ratio.eval({"k": kv}) * eval_term(f, {"k": kv})

    for _ in range(20):
        a = rng.randint(1, 10)
        b = a + rng.randint(0, 8)
        total = sum(eval_term(f, {"k": kv}) for kv in range(a, b + 1))
        assert total == G(b + 1) - G(a)


def test_gosper_zero_term():
    f = parse_term("k!", ("k",)).with_rational(
        RationalFunction.constant(("k",), 0))
    cert = gosper_antidifference(f, "k")
    assert cert is not None and cert.ratio.is_zero()


def test_gosper_with_parameters():
    # rf(a,k) has antidifference rf(a,k)*(k+a-1)/(a-1)... verify identity form
    f = parse_term("rf(a,k)/k!", ("k", "a"))
    cert = gosper_antidifference(f, "k")
    if cert is not None:
        rho = shift_quotient(f, "k")
        one = RationalFunction.constant(("k", "a"), 1)
        assert cert.ratio.shift("k", 1) * rho - cert.ratio == one


@st.composite
def summable_terms(draw):
    """(f, base, R0) with f = G(k+1) - G(k) for G = R0(k) * base, base k! or
    rf(a,k), and R0 a small nonzero rational function of k."""
    vars = draw(st.sampled_from([("k",), ("k", "a")]))
    base = parse_term("k!" if len(vars) == 1 else "rf(a,k)", vars)
    pad = (0,) * (len(vars) - 1)
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)
                  .filter(any))
    num = MultiPoly.from_terms(vars, [((d,) + pad, c)
                                      for d, c in enumerate(coeffs)])
    k = MultiPoly.variable(vars, "k")
    den = MultiPoly.constant(vars, 1)
    for c in draw(st.lists(st.integers(0, 3), max_size=2)):
        den = den * (k.scale(draw(st.integers(1, 2))) + MultiPoly.constant(vars, c))
    R0 = RationalFunction(num, den)
    # G(k+1) - G(k) = base(k) * (R0(k+1) rho_base(k) - R0(k))
    S = R0.shift("k", 1) * shift_quotient(base, "k") - R0
    return base.with_rational(S), base, R0


@settings(deadline=None, max_examples=40)
@given(summable_terms())
def test_gosper_finds_planted_antidifference(case):
    f, base, R0 = case
    vars = f.symbols
    cert = gosper_antidifference(f, "k")
    assert cert is not None
    R = cert.ratio
    rho = shift_quotient(f, "k")
    assert R.shift("k", 1) * rho - R == RationalFunction.constant(vars, 1)
    # R*f and G = R0*base differ by a constant
    diffs = set()
    for kv in range(1, 11):
        point = {"k": kv, "a": Fraction(7, 3)} if len(vars) == 2 else {"k": kv}
        try:
            diffs.add(R.eval(point) * eval_term(f, point)
                      - R0.eval(point) * eval_term(base, point))
        except (ZeroDivisionError, EvalError):
            continue
    assert len(diffs) == 1


@st.composite
def coefficient_lists(draw):
    """Two ascending coefficient lists with MultiPoly coefficients over one
    or two variables; formal degrees m + n <= 4, leading terms may vanish."""
    vars = ("a", "b")[:draw(st.integers(1, 2))]
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    coef = st.lists(st.tuples(exps, st.integers(-3, 3)), max_size=2).map(
        lambda terms: MultiPoly.from_terms(vars, terms))
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 4 - m))
    return (draw(st.lists(coef, min_size=m + 1, max_size=m + 1)),
            draw(st.lists(coef, min_size=n + 1, max_size=n + 1)), vars)


@settings(deadline=None, max_examples=150)
@given(coefficient_lists())
def test_sylvester_resultant_matches_cofactor_expansion(fgv):
    f, g, vars = fgv
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    res = _sylvester_resultant(f, g, vars)
    if size == 0:
        assert res == MultiPoly.constant(vars, 1)
        return
    zero = MultiPoly.zero(vars)
    # row i < n holds f's coefficients, highest first, from column i; row
    # n + i holds g's from column i
    rows = [[f[m - (j - i)] if 0 <= j - i <= m else zero for j in range(size)]
            for i in range(n)]
    rows += [[g[n - (j - i)] if 0 <= j - i <= n else zero for j in range(size)]
             for i in range(m)]
    assert res == det_symbolic(PolyMatrix(rows))


# -- the Gosper normal form against the all-pairs loop ------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def all_pairs_gosper_normal(num, den, k):
    """Reference normal form: at each dispersion j, peel the first factor
    pair (q side outer, r side inner, each in storage order) whose gcd at
    shift j is nontrivial, testing every pair, until none is left."""
    q, r = num.copy(), den.copy()
    pbar = Factored.one(q.vars)
    for j in sorted(set().union(*dispersion_set(num, den, k).values())):
        while True:
            qf = [("aff", key, L.to_poly(q.vars), L) for key, (L, e) in q.aff.items()
                  if e > 0 and L.var_coeff(k) != 0]
            qf += [("opq", key, p, None) for key, (p, e) in q.opq.items()
                   if e > 0 and p.degree(k) > 0]
            rf = [("aff", key, L.to_poly(r.vars), L) for key, (L, e) in r.aff.items()
                  if e > 0 and L.var_coeff(k) != 0]
            rf += [("opq", key, p, None) for key, (p, e) in r.opq.items()
                   if e > 0 and p.degree(k) > 0]
            hit = None
            for kq, keyq, pq, Lq in qf:
                for kr, keyr, pr, Lr in rf:
                    if kq == "aff" and kr == "aff":
                        if _normalize_affine(Lr.shift(k, j), q.vars)[1] == Lq:
                            hit = pq, kq, keyq, kr, keyr
                    else:
                        g = factored.poly_gcd(pq, pr.shift(k, j))
                        if not g.is_constant():
                            hit = g, kq, keyq, kr, keyr
                    if hit:
                        break
                if hit:
                    break
            if hit is None:
                break
            g, kq, keyq, kr, keyr = hit
            q.divide_factor(kq, keyq, g)
            r.divide_factor(kr, keyr, g.shift(k, -j))
            for t in range(1, j + 1):
                pbar.mul_poly(g.shift(k, -t), 1)
    return pbar, q, r


def expanded(form):
    return tuple(f.expand() for f in form)


def assemble_inputs(name, orders=(0, 1, 2)):
    """The (num, den, k) that assemble passes to gosper_normal for the
    differenced summand of a corpus identity, at each order."""
    ident = load_identity(CORPUS / f"{name}.txt")
    F, rhs_terms, lower, upper = ident.parsed()
    nid = normalize_and_delta(F, rhs_terms, ident.params, "k", "n", lower, upper)
    seen = []

    def record(num, den, k):
        seen.append((num.copy(), den.copy(), k))
        return gosper_normal(num, den, k)

    telescope.gosper_normal, real = record, telescope.gosper_normal
    try:
        for J in orders:
            assemble(nid.delta_term, J, k=nid.k, n=nid.n)
    finally:
        telescope.gosper_normal = real
    return seen


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.txt")))
def test_gosper_normal_matches_all_pairs_loop(name):
    for num, den, k in assemble_inputs(name):
        assert expanded(gosper_normal(num, den, k)) == \
            expanded(all_pairs_gosper_normal(num, den, k))


def test_gosper_normal_peels_shared_k_free_content():
    # (a^2+b) divides a q-side and an r-side factor at every shift; the
    # resultant in k misses it, and only the affine pair puts j = 3 in the
    # dispersion set
    vars = ("k", "a", "b")
    k, a, b = (MultiPoly.variable(vars, v) for v in vars)
    one = MultiPoly.constant(vars, 1)
    c = a * a + b
    num = Factored.one(vars).mul_poly(k + one.scale(3), 1).mul_poly(c * (k + a), 1)
    den = Factored.one(vars).mul_poly(k, 1).mul_poly(c * (k + b), 1)
    form = expanded(gosper_normal(num, den, "k"))
    assert form == expanded(all_pairs_gosper_normal(num, den, "k"))
    pbar, q, r = form
    assert pbar.degree("k") == 3
    assert q == k + a
    assert r == k + b
    ratio_ = RationalFunction(num.expand(), den.expand())
    assert RationalFunction(pbar.shift("k", 1) * q, pbar * r) == ratio_


def test_gosper_normal_skips_known_trivial_gcds(monkeypatch):
    inputs = assemble_inputs("dixon", orders=(0, 1))
    calls = [0]

    def counted(p, q):
        calls[0] += 1
        return real_gcd(p, q)

    real_gcd = polys.poly_gcd
    monkeypatch.setattr(polys, "poly_gcd", counted)
    monkeypatch.setattr(factored, "poly_gcd", counted)
    counts = []
    for normal_form in (all_pairs_gosper_normal, gosper_normal):
        calls[0] = 0
        forms = [expanded(normal_form(num, den, k)) for num, den, k in inputs]
        counts.append(calls[0])
    assert forms == [expanded(all_pairs_gosper_normal(*i)) for i in inputs]
    assert counts[1] < counts[0] / 2, counts


def _reference_gosper(f, k):
    """Gosper's construction on its own: the first kernel vector of the
    order-0 system with a_0 != 0, lifted to (a_0, b_0..b_K), gives
    R = b(k) r(k-1) / (a_0 pbar), reduced."""
    vars = f.symbols
    sys = assemble(f, 0, k=k)
    kpoly = MultiPoly.variable(vars, k)
    for vec in solve_nullspace(sys.matrix):
        if vec[0].is_zero():
            continue
        a0, *bs = sys.lift(vec)
        b = MultiPoly.zero(vars)
        for i, c in enumerate(bs):
            b = b + c.embed(vars) * kpoly ** i
        return RationalFunction(b * sys.r.shift(k, -1), a0.embed(vars) * sys.pbar)
    return None


def _wz_delta_terms():
    """(name, delta term) of the corpus identities the WZ route proves and
    of specializations of dixon (a, b in 1..4) and chu-vandermonde
    (a in 2..9)."""
    out = []
    for name in ("binomial-2n", "central-binomial", "chu-vandermonde", "dixon"):
        ident = load_identity(CORPUS / f"{name}.txt")
        F, rhs, lower, upper = ident.parsed()
        nid = normalize_and_delta(F, rhs, ident.params, ident.sum_var,
                                  ident.rec_var, lower, upper)
        out.append((name, nid.delta_term))
    syms = ("k", "n")
    specs = [(f"dixon-a{a}-b{b}",
              f"(-1)^k*binomial({a + b},{a}+k)*binomial({a}+n,n+k)"
              f"*binomial({b}+n,{b}+k)", f"({a + b}+n)!/{a}!/{b}!/n!")
             for a in range(1, 5) for b in range(1, 5)]
    specs += [(f"chu-vandermonde-a{a}", f"binomial(n,k)*binomial({a},k)",
               f"binomial({a}+n,{a})") for a in range(2, 10)]
    for name, summand, rhs in specs:
        nid = normalize_and_delta(parse_term(summand, syms),
                                  [parse_term(rhs, syms)], (), "k", "n")
        out.append((name, nid.delta_term))
    return out


def test_gosper_matches_the_reference_construction():
    # the reduced order-0 certificate of solve_order is the certificate
    # Gosper's own construction gives, character for character
    cases = _wz_delta_terms()
    assert len(cases) == 28
    for name, g in cases:
        ref = _reference_gosper(g, "k")
        assert ref is not None, name
        assert str(gosper_antidifference(g, "k").ratio) == str(ref), name
