import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperproof import factored, polys, telescope
from hyperproof.cli import IdentityFile, load_identity, run_prove
from hyperproof.factored import (
    Factored, _AtPoint, _candidates, _composed_difference, _k_factors,
    _normalize_affine, _pair_candidates, _shared_point, dispersion_set,
    gosper_normal, integer_roots_univar,
)
from hyperproof.gridproof import normalize_and_delta
from hyperproof.linalg import PolyMatrix, solve_nullspace
from hyperproof.polys import MultiPoly, RationalFunction, poly_gcd
from hyperproof.telescope import assemble, solve_order
from hyperproof.terms import (
    EvalError, LinearForm, parse_term, shift_quotient, term_value,
)
from oracles import (
    integer_roots_in_var_reference, integer_roots_reference,
    resultant_in_j_reference, resultant_reference, shift_candidates_reference,
)


def ratio(num_text, den_text, syms=("k",)):
    t = parse_term(f"({num_text})/({den_text})", syms)
    return t.rational


def value(r, point):
    """The rational function r at a point that assigns all its variables;
    ZeroDivisionError where its denominator vanishes."""
    return Fraction(r.num.eval(point)) / r.den.eval(point)


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
        res = resultant_reference(q.embed(jvars), r.embed(jvars), k, "_j")
        assert not res.is_zero()
        if not res.is_constant() and res.degree("_j") > 0:
            roots = integer_roots_in_var_reference(res, "_j")
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


@st.composite
def planted_root_lists(draw):
    """Ascending coefficients of c * x^z * prod (x - r_i)^(m_i) * h, with c
    an int or a Fraction, z >= 0 zero roots, repeated nonzero roots, h a
    constant or a polynomial with no integer root, and high-degree zeros
    appended; with the planted roots."""
    roots = draw(st.lists(st.integers(-40, 40).filter(bool), max_size=3,
                          unique=True))
    mults = [draw(st.integers(1, 3)) for _ in roots]
    zeros = draw(st.integers(0, 3))
    h = draw(st.sampled_from([[1], [2, 0, 1], [3, -2], [-7, 0, 0, 2],
                              [10 ** 13, 1, 1]]))
    scale = draw(st.one_of(
        st.integers(-9, 9).filter(bool),
        st.builds(Fraction, st.integers(-9, 9).filter(bool),
                  st.integers(2, 9))))
    factors = [[0, 1]] * zeros + [[-r, 1] for r, m in zip(roots, mults)
                                  for _ in range(m)] + [h]
    coeffs = [scale * c for c in _dense_product(*factors)]
    return coeffs + [0] * draw(st.integers(0, 2)), set(roots) | (
        {0} if zeros else set())


@settings(deadline=None, max_examples=150)
@given(planted_root_lists())
def test_integer_roots_univar_matches_the_reference(case):
    coeffs, planted = case
    got = integer_roots_univar(coeffs)
    assert got == sorted(planted)
    try:
        assert got == integer_roots_reference(coeffs)
    except ArithmeticError:  # the reference gave up
        pass


def test_integer_roots_univar_constants_and_zero():
    assert integer_roots_univar([5]) == []
    assert integer_roots_univar([Fraction(-2, 3), 0, 0]) == []
    assert integer_roots_univar([0, 0, 0, 7, 0]) == [0]
    for zero in ([], [0], [0, Fraction(0), 0]):
        with pytest.raises(ValueError):
            integer_roots_univar(zero)


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
    _, cert = solve_order(assemble(f, 0, k="k"))
    assert cert.ratio == ratio("1", "k")


def test_gosper_reciprocal_k_k_plus_1():
    f = parse_term("1/(k*(k+1))", ("k",))
    _, cert = solve_order(assemble(f, 0, k="k"))
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
        vals[k0 + i] = (1 + vals[k0 + i - 1]) / value(rho, {"k": k0 + i - 1})
    # denominators of a rational function of bounded degree cannot keep
    # growing factorially; detect super-polynomial growth
    assert vals[14].denominator > 10 ** 8


def test_gosper_skips_homogeneous_solutions():
    # a rational summand's order-0 system has a nullspace vector with a_0 = 0
    # (G constant in k); only a vector with a_0 != 0 gives a certificate
    f = parse_term("k", ("k",))
    sys = assemble(f, 0, k="k")
    basis = solve_nullspace(sys.matrix)
    assert basis[0][0].is_zero() and not basis[1][0].is_zero()
    assert solve_order(sys)[1].ratio == ratio("k-1", "2")
    # 1/k (harmonic numbers) has only the homogeneous vector
    f = parse_term("1/k", ("k",))
    sys = assemble(f, 0, k="k")
    basis = solve_nullspace(sys.matrix)
    assert basis and all(vec[0].is_zero() for vec in basis)
    assert solve_order(sys) is None


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
        _, cert = solve_order(assemble(f, 0, k="k"))
        rho = shift_quotient(f, "k")
        one = RationalFunction.constant(syms, 1)
        lhs = cert.ratio.shift("k", 1) * rho - cert.ratio
        assert lhs == one, text


def test_gosper_telescoping_windows():
    # sums over random windows match G(b+1) - G(a) exactly
    rng = random.Random(31)
    f = parse_term("k*k!", ("k",))
    _, cert = solve_order(assemble(f, 0, k="k"))

    def F(kv):
        return term_value(f, {"k": kv})

    def G(kv):
        return value(cert.ratio, {"k": kv}) * F(kv)

    for _ in range(20):
        a = rng.randint(1, 10)
        b = a + rng.randint(0, 8)
        total = sum(F(kv) for kv in range(a, b + 1))
        assert total == G(b + 1) - G(a)


def test_gosper_with_parameters():
    # rf(a,k)/k! has the antidifference (k/a) rf(a,k)/k!
    f = parse_term("rf(a,k)/k!", ("k", "a"))
    _, cert = solve_order(assemble(f, 0, k="k"))
    assert cert.ratio == ratio("k", "a", ("k", "a"))
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
    _, cert = solve_order(assemble(f, 0, k="k"))
    R = cert.ratio
    rho = shift_quotient(f, "k")
    assert R.shift("k", 1) * rho - R == RationalFunction.constant(vars, 1)
    # R*f and G = R0*base differ by a constant
    diffs = set()
    for kv in range(1, 11):
        point = {"k": kv, "a": Fraction(7, 3)} if len(vars) == 2 else {"k": kv}
        try:
            diffs.add(value(R, point) * term_value(f, point)
                      - value(R0, point) * term_value(base, point))
        except (ZeroDivisionError, EvalError):
            continue
    assert len(diffs) == 1


# -- the Gosper normal form against the all-pairs loop ------------------------

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def k_factors_reference(f, k):
    """(fid, (poly, is_affine, form)) of every factor of f with a positive
    exponent that involves k: affine ones first, each kind in storage order,
    an affine factor's poly built from its form and an opaque one's form
    None."""
    out = []
    for kind in ("aff", "opq"):
        for fid, (g, e) in f.facs.items():
            if fid[0] != kind or e <= 0:
                continue
            affine = kind == "aff"
            p = g.to_poly(f.vars) if affine else g
            if p.degree(k) > 0:
                out.append((fid, (p, affine, g if affine else None)))
    return out


def all_pairs_gosper_normal(num, den, k):
    """Reference normal form: at each dispersion j, peel the first factor
    pair (q side outer, r side inner, each in storage order) whose gcd at
    shift j is nontrivial, testing every pair, until none is left."""
    q, r = num.copy(), den.copy()
    pbar = Factored.one(q.vars)
    for j in sorted(set().union(*dispersion_set(num, den, k).values())):
        while True:
            hit = None
            for fq, (pq, _, Lq) in k_factors_reference(q, k):
                for fr, (pr, _, Lr) in k_factors_reference(r, k):
                    if Lq is not None and Lr is not None:
                        if _normalize_affine(Lr.shift(k, j), q.vars)[1] == Lq:
                            hit = pq, fq, fr
                    else:
                        g = factored.poly_gcd(pq, pr.shift(k, j))
                        if not g.is_constant():
                            hit = g, fq, fr
                    if hit:
                        break
                if hit:
                    break
            if hit is None:
                break
            g, fq, fr = hit
            q.divide_factor(fq, g)
            r.divide_factor(fr, g.shift(k, -j))
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


# -- shift candidates at an integer point against the generic resultant ------

def _identity(name, summand, rhs, lower, upper):
    return IdentityFile(name=name, summand=summand, rhs=rhs, sum_var="k",
                        rec_var="n", lower=lower, upper=upper, params=())


# the dixon-cubes summand is left out: its generic resultants take over 30 s
PROVED = [load_identity(p) for p in sorted(CORPUS.glob("*.txt"))
          + sorted((CORPUS / "extra").glob("*.txt"))
          if "dixon-cubes" not in p.stem] + [
    _identity("mrr-x6o7-z6o11",
              "rf(-2*n-1,k)*rf(2*n+20/7,k)*rf(125/154,k)*rf(n+13/7,k)"
              "*rf(n+17/11,k)/(rf(13/14,k)*rf(10/7,k)*rf(2*n+34/11,k)"
              "*rf(125/77,k)*k!)", "0", "0", "2*n+1"),
    _identity("dixon-a2-b3",
              "(-1)^k*binomial(5,2+k)*binomial(2+n,n+k)*binomial(3+n,3+k)",
              "(5+n)!/2!/3!/n!", "-n", "n"),
    _identity("chu-vandermonde-a5", "binomial(n,k)*binomial(5,k)",
              "binomial(5+n,5)", "0", "n"),
]


def _pair_candidates_alone(fq, fr, k):
    """The candidates _candidates gives the one pair fq, fr, each as
    (poly, is_affine, form), at the pair's own shared point; an affine
    factor's poly is not read."""
    return _candidates([_stored(fq)], [_stored(fr)], k)[0][0]


def _stored(f):
    """The factor f = (poly, is_affine, form) as a _k_factors entry
    (fid, factor), the key of its id left out."""
    poly, affine, form = f
    return (("aff", None), form) if affine else (("opq", None), poly)


def _reference_candidates(fq, fr, k):
    if fq[1] and fr[1]:
        return _pair_candidates_alone(fq, fr, k)
    return shift_candidates_reference(fq, fr, k)


def proof_opaque_pairs(ident, monkeypatch):
    """(num, den, k, opaque pairs) of every gosper_normal call of ident's
    proof, with each pair of k-factors of which one at least is opaque as
    ((poly, is_affine, form), (poly, is_affine, form)); an affine factor's
    poly is built from its form."""
    seen = []

    def record(num, den, k):
        seen.append((num.copy(), den.copy(), k))
        return gosper_normal(num, den, k)

    monkeypatch.setattr(telescope, "gosper_normal", record)
    run_prove(ident, Fraction(1, 10), 0, 6, 1)
    monkeypatch.undo()

    def side(f, k):
        # _k_factors lists the factors in the reference's order
        assert [fid for fid, _ in _k_factors(f, k)] == \
            [fid for fid, _ in k_factors_reference(f, k)]
        return [factor for _, factor in k_factors_reference(f, k)]

    return [(num, den, k, [(fq, fr) for fq in side(num, k)
                           for fr in side(den, k) if not (fq[1] and fr[1])])
            for num, den, k in seen]


@pytest.mark.parametrize("ident", PROVED, ids=lambda i: i.name)
def test_point_candidates_contain_the_generic_ones(ident, monkeypatch):
    # every gosper_normal call of the proof: each pair with an opaque factor,
    # taken alone at its own shared point, keeps every generic candidate;
    # the normal form is compared in the test that follows
    for num, den, k, pairs in proof_opaque_pairs(ident, monkeypatch):
        for fq, fr in pairs:
            assert set(shift_candidates_reference(fq, fr, k)) <= \
                set(_pair_candidates_alone(fq, fr, k))


def _generic_dispersion_set(num, den, k):
    """dispersion_set with every pair's generic candidates."""
    return {(fq, fr): _reference_candidates(a, b, k)
            for fq, a in k_factors_reference(num, k)
            for fr, b in k_factors_reference(den, k)}


@pytest.mark.parametrize("ident", PROVED, ids=lambda i: i.name)
def test_shared_point_gives_the_generic_normal_form(ident, monkeypatch):
    # the candidates of one point shared by all factors of a call may add
    # shifts to a pair, but the exact gcd test rejects every added one
    for num, den, k, _ in proof_opaque_pairs(ident, monkeypatch):
        form = [str(f) for f in gosper_normal(num, den, k)]
        monkeypatch.setattr(factored, "dispersion_set", _generic_dispersion_set)
        assert [str(f) for f in gosper_normal(num, den, k)] == form
        monkeypatch.undo()


def _at_point(f, k, point):
    """The factor f = (poly, is_affine, form) specialized at point."""
    return _AtPoint(*_stored(f), k, point)


def assert_candidates_are_the_resultant_roots(fq, fr, k, point):
    """fq, fr as (poly, is_affine, form), not both affine, each with its
    poly: at point, where both leading coefficients in k are nonzero, the
    candidates are the nonnegative integer roots of the reference
    resultant in j; for two factors of degree >= 2 in k, the composed
    difference at x = f g j is that resultant up to a nonzero constant."""
    res = resultant_in_j_reference(fq[0], fr[0], k, point)
    a, b = _at_point(fq, k, point), _at_point(fr, k, point)
    assert _pair_candidates(a, b) == \
        [j for j in integer_roots_univar(res) if j >= 0]
    if a.degree > 1 and b.degree > 1:
        comp = _composed_difference(a, b)
        fg = a.coeffs[-1] * b.coeffs[-1]
        assert len(comp) == len(res) == a.degree * b.degree + 1
        assert comp[-1] == 1
        scaled = [c * fg ** t for t, c in enumerate(comp)]
        assert all(x * res[-1] == y * scaled[-1] for x, y in zip(scaled, res))


# dixon-cubes with (-2)^k: refuted only after order 3, whose Gosper normal
# forms meet 81 pairs of two opaque factors of degree >= 2 in k
MINUS_TWO = _identity("dixon-cubes-minus-two", "(-2)^k*binomial(2*n,k)^3",
                      "(-1)^n*(3*n)!/(n!)^3", "0", "2*n")


@pytest.mark.parametrize(
    "ident", [load_identity(p) for p in sorted(CORPUS.glob("*.txt"))]
    + [MINUS_TWO], ids=lambda i: i.name)
def test_resultant_matches_the_reference_on_the_corpus(ident, monkeypatch):
    # every pair with an opaque factor that the proof meets, at the one
    # point its gosper_normal call shares among all of its factors
    for num, den, k, pairs in proof_opaque_pairs(ident, monkeypatch):
        if not pairs:
            continue
        point = _shared_point([p for f in (num, den) for _, (p, affine, _)
                               in k_factors_reference(f, k) if not affine], k)
        for fq, fr in pairs:
            assert_candidates_are_the_resultant_roots(fq, fr, k, point)


def test_point_walk_passes_a_vanishing_leading_coefficient():
    # lc_k = n - 3 vanishes at the first point n = 3; the walk moves to n = 4,
    # where the shift j = 2 between f(k) and f(k - 2) is still a root
    vars = ("k", "n")
    k, n = (MultiPoly.variable(vars, v) for v in vars)
    one = MultiPoly.constant(vars, 1)
    f = (n - one.scale(3)) * k * k + k + one
    g = f.shift("k", -2)
    assert _shared_point([f, g], "k") == {"n": 4}
    assert 2 in _pair_candidates_alone((f, False, None), (g, False, None), "k")
    num = Factored.one(vars).mul_poly(f, 1)
    den = Factored.one(vars).mul_poly(g, 1)
    pbar, q, r = expanded(gosper_normal(num, den, "k"))
    assert q.is_constant() and r.is_constant()
    assert RationalFunction(pbar.shift("k", 1) * q, pbar * r) == \
        RationalFunction(f, g)
    # one point for every factor: each axis holds 1 + the sum of the
    # leading coefficients' degrees, here n = 3, 4, 5 against n - 3 and n - 4
    h = (n - one.scale(4)) * k * k + one
    assert _shared_point([f, h], "k") == {"n": 5}
    assert _shared_point([f, g, h], "k") == {"n": 5}


_VARS = ("k", "a", "b")
_COEF = st.one_of(st.integers(-3, 3),
                  st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6)))


@st.composite
def k_factors(draw):
    """A factor over (k, a, b) that involves k, as (poly, is_affine, form):
    an affine form with int or Fraction coefficients, random terms, or a
    product of planted pieces, repeated linear factors (rational roots at
    every point) and irreducible quadratics (none)."""
    k, a, b = (MultiPoly.variable(_VARS, v) for v in _VARS)
    one = MultiPoly.constant(_VARS, 1)
    kind = draw(st.sampled_from(["affine", "terms", "planted"]))
    if kind == "affine":
        L = LinearForm({"k": draw(_COEF.filter(bool)), "a": draw(_COEF),
                        "b": draw(_COEF)}, draw(_COEF))
        return L.to_poly(_VARS), True, L
    if kind == "terms":
        exps = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
        p = MultiPoly.from_terms(_VARS, draw(st.lists(st.tuples(exps, _COEF),
                                                      min_size=1, max_size=5)))
        assume(p.degree("k") > 0)
        return p, False, None
    quadratics = [k * k - one.scale(2), k * k + a * a + one,
                  k * k + k + one, (k * k).scale(2) - a * a - one]
    p = one
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            p = p * draw(st.sampled_from(quadratics))
        else:
            root = LinearForm({"a": draw(_COEF), "b": draw(_COEF)},
                              draw(_COEF)).to_poly(_VARS)
            p = p * (k.scale(draw(_COEF.filter(bool))) - root) ** \
                draw(st.integers(1, 3))
    assume(p.total_degree() > 1)
    return p, False, None


@st.composite
def pairs_at_a_point(draw):
    """Two factors of k_factors, not both affine, the second sometimes the
    first shifted in k by -j0 (so that j0 is a candidate) times another
    factor, and an integer point of (a, b) at which both leading
    coefficients in k are nonzero."""
    fq = draw(k_factors())
    fr = draw(k_factors())
    if not fq[1] and draw(st.booleans()):
        shifted = fq[0].shift("k", -draw(st.integers(0, 4)))
        fr = (shifted * fr[0], False, None) if draw(st.booleans()) \
            else (shifted, False, None)
    assume(not (fq[1] and fr[1]))
    point = {"a": draw(st.integers(-4, 4)), "b": draw(st.integers(-4, 4))}
    for p, _, _ in (fq, fr):
        assume(p.to_univar("k")[-1].eval({**point, "k": 0}) != 0)
    return fq, fr, point


@settings(deadline=None, max_examples=200)
@given(pairs_at_a_point())
def test_resultant_at_a_good_point_has_full_degree_in_j(case):
    # at a point where both leading coefficients in k are nonzero: the
    # candidates of every kind of pair are the nonnegative integer roots of
    # the reference resultant, and the composed difference of two factors
    # of degree >= 2 in k has its full degree m n in j
    fq, fr, point = case
    assert_candidates_are_the_resultant_roots(fq, fr, "k", point)


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
        return RationalFunction(b * sys.r.expand().shift(k, -1),
                                a0.embed(vars) * sys.pbar.expand())
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
        assert str(solve_order(assemble(g, 0, k="k"))[1].ratio) == str(ref), \
            name
