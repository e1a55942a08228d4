import random
import signal
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperproof import gridproof
from hyperproof.gridproof import (
    NormalizedIdentity, Inconclusive, initial_conditions_check,
    leading_coeff_check, normalize_and_delta, prove,
    _degenerate_on_support, _gosper_columns_independent, _grid_point,
    _grid_values, _leading_root_bound, _lower_set, _rank_deficiency_test,
    _support_bounds, _termination_guard,
)
from hyperproof.cli import load_identity
from hyperproof.linalg import (
    PolyMatrix, _GridEvaluator, _grid_digits, _int_rank, _integer_cleared,
    det_symbolic, permanent_degree_bound,
)
from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.telescope import Recurrence, assemble
from hyperproof.terms import (
    EvalError, LinearForm, TermExpression, eval_summand, natural_support,
    parse_affine as lf, parse_sum, parse_term,
)


CHU = ("binomial(n,k)*binomial(a,k)", "binomial(a+n,a)",
       ("k", "n", "a"), ("a",), "0", "n")


def make_nid(summand, rhs, syms, params, lo, hi):
    F = parse_term(summand, syms)
    rhs_terms = parse_sum(rhs, syms)
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
    res = _rank_deficiency_test(m, Fraction(1), seed=0)
    assert res.passed and res.witness is None
    assert res.grid_tested == res.grid_total


def test_vanishing_test_nonsingular_witness():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    zero = MultiPoly.zero(vars)
    m = PolyMatrix([[n, zero], [zero, one]])
    res = _rank_deficiency_test(m, Fraction(1), seed=0)
    assert not res.passed
    assert res.witness is not None and res.witness["n"] != 0


def test_vanishing_test_fraction_of_grid():
    # singular matrix with degree bound 9: grid of 10 points, certainty 1/2
    # tests ceil(10/2) = 5 of them
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n ** 4, n ** 4], [n ** 5, n ** 5]])
    res = _rank_deficiency_test(m, Fraction(1, 2), seed=3)
    assert res.passed
    assert res.grid_total == 10 and res.grid_tested == 5
    # a witness aborts the scan early instead
    m2 = PolyMatrix([[n ** 9]])
    res2 = _rank_deficiency_test(m2, Fraction(1, 2), seed=3)
    assert not res2.passed and res2.witness is not None


def test_vanishing_test_non_square_errors():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n, n]])
    with pytest.raises(ValueError):
        _rank_deficiency_test(m, Fraction(1), 0)


def test_vanishing_test_avoid_values():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n ** 2]], avoid={"n": {0}})
    res = _rank_deficiency_test(m, Fraction(1), seed=0)
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
            res = _rank_deficiency_test(m, Fraction(1), seed=singular + nonsingular)
            assert not res.passed and res.witness is not None
            nonsingular += 1
        elif singular < 50:
            p = _random_poly(rng, vars)
            q = _random_poly(rng, vars)
            third = [p * rows[0][j] + q * rows[1][j] for j in range(3)]
            m = PolyMatrix(rows + [third])
            res = _rank_deficiency_test(m, Fraction(1), seed=singular + nonsingular)
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


def _evaluated(matrix, values, indices):
    """Run the grid evaluator over indices; return the integer matrices it
    yielded and whether each has full column rank."""
    seen = [a for _, _, a in _GridEvaluator(matrix, values).matrices(indices)]
    flags = [_int_rank([list(row) for row in a]) == matrix.cols for a in seen]
    return seen, flags


def _evaluated_at(matrix, point):
    return [[e.eval(point) for e in row] for row in matrix.entries]


@st.composite
def grid_matrices(draw, min_vars=0):
    """Small integer polynomial matrices (rows >= cols) over min_vars-3
    variables, with zero, constant and sparse entries, plus grid values per
    variable."""
    vars = ("n", "x", "z")[:draw(st.integers(min_vars, 3))]
    cols = draw(st.integers(1, 3))
    rows = cols + draw(st.integers(0, 1))
    coef = st.integers(-9, 9)
    exps = st.tuples(*[st.integers(0, 4) for _ in vars])

    def entry():
        kind = draw(st.sampled_from(("zero", "constant", "sparse", "sparse")))
        if kind == "zero":
            return MultiPoly.zero(vars)
        if kind == "constant":
            return MultiPoly.constant(vars, draw(coef.filter(bool)))
        # few terms with exponents up to 4, so intermediate powers are missing
        return MultiPoly.from_terms(
            vars, draw(st.lists(st.tuples(exps, coef), max_size=4)))

    matrix = PolyMatrix([[entry() for _ in range(cols)] for _ in range(rows)])
    values = {v: _grid_values(draw(st.integers(0, 3)),
                              draw(st.sets(st.integers(-2, 2), max_size=2)))
              for v in vars}
    return matrix, values


@settings(deadline=None, max_examples=200)
@given(grid_matrices(), st.randoms(use_true_random=False))
def test_grid_evaluator_matches_eval(case, rng):
    matrix, values = case
    points = list(product(*(values[v] for v in matrix.vars)))
    sample = sorted(rng.sample(range(len(points)), rng.randint(1, len(points))))
    for indices in (range(len(points)), sample):
        seen, flags = _evaluated(matrix, values, indices)
        assert len(seen) == len(flags) == len(indices)
        for index, numeric, full in zip(indices, seen, flags):
            point = dict(zip(matrix.vars, points[index]))
            assert _grid_point(matrix.vars, values, index) == point
            expected = _evaluated_at(matrix, point)
            assert numeric == expected
            assert full == (_int_rank(expected) == matrix.cols)


def _brute_support_bound(matrix, w):
    """h(w) by brute force: the largest sum of entry weights max_{e in supp}
    w.e over every row subset and column permutation that meets no zero
    entry, or None when every one meets a zero entry."""
    best = None
    for rows in combinations(range(matrix.rows), matrix.cols):
        for cols in permutations(range(matrix.cols)):
            picked = [matrix.entries[i][j] for i, j in zip(rows, cols)]
            if any(p.is_zero() for p in picked):
                continue
            weight = sum(max(sum(a * b for a, b in zip(w, exp))
                             for exp in p.terms) for p in picked)
            best = weight if best is None else max(best, weight)
    return best


def _reference_rank_test(matrix, certainty, seed):
    """Brute force: filter the lower set S out of the box with h(w) from
    _brute_support_bound for every w in {0,1}^r minus 0, then evaluate every
    tested point with MultiPoly.eval."""
    r = len(matrix.vars)
    weights = [w for w in product((0, 1), repeat=r) if any(w)]
    h = {w: _brute_support_bound(matrix, w) for w in weights}
    if None in h.values():
        return True, 0, 0, None
    values = {}
    for i, v in enumerate(matrix.vars):
        unit = tuple(int(j == i) for j in range(r))
        values[v] = _grid_values(h[unit], matrix.avoid.get(v, set()))
    points = [
        {v: values[v][d] for v, d in zip(matrix.vars, e)}
        for e in product(*(range(len(values[v])) for v in matrix.vars))
        if all(sum(a * b for a, b in zip(w, e)) <= h[w] for w in weights)]
    total = len(points)
    count = max(1, min(ceil(certainty * total), total))
    indices = range(total)
    if count < total:
        indices = sorted(random.Random(seed).sample(range(total), count))
    for pos, index in enumerate(indices):
        point = points[index]
        if _int_rank(_evaluated_at(matrix, point)) == matrix.cols:
            return False, total, pos + 1, point
    return True, total, count, None


def _rank_test_cases():
    vars = ("n", "a")
    n = MultiPoly.variable(vars, "n")
    a = MultiPoly.variable(vars, "a")
    def c(value):
        return MultiPoly.constant(vars, value)

    def vanishing_on(var, roots):
        return prod((var - c(r) for r in roots), start=c(1))

    # degree 24 in n and a: 25 x 25 = 625 points, so both certainty 1 and
    # 1/2 reach the parallel scan with two jobs
    # nonzero only at n = 12, a = 0, the 613th grid point
    late = vanishing_on(n, range(-12, 12)) * vanishing_on(
        a, [r for r in range(-12, 13) if r])
    # nonzero only at n = 2 and n = 7: past the serial head of 256 points at
    # certainty 1, in the first and in the second chunk of the pool
    two_blocks = vanishing_on(
        n, [-12] + [r for r in range(-12, 13) if r not in (2, 7)]) * (
        a ** 24 + c(1))
    p, q, r = n ** 20 + a, a ** 20 - n, n * a + c(1)
    return {
        "late": PolyMatrix([[late]]),
        "two-blocks": PolyMatrix([[two_blocks]]),
        "singular": PolyMatrix([[p, p * q], [r, r * q]]),
        "dense": PolyMatrix([[p, q], [r, c(1)]]),
        "rectangular": PolyMatrix([[p, q], [p * r, q * r], [r, c(1)]]),
        "avoid": PolyMatrix([[late]], avoid={"n": {0, 12}, "a": {-1}}),
    }


@pytest.mark.parametrize(
    "name", ["late", "two-blocks", "singular", "dense", "rectangular",
             "avoid"])
def test_rank_deficiency_test_matches_brute_force(name):
    matrix = _rank_test_cases()[name]
    for certainty, seed in ((Fraction(1), 0), (Fraction(1, 2), 3)):
        expected = _reference_rank_test(matrix, certainty, seed)
        for jobs in (1, 2):
            res = _rank_deficiency_test(matrix, certainty, seed, jobs=jobs)
            assert (res.passed, res.grid_total, res.grid_tested,
                    res.witness) == expected, (certainty, jobs)


@settings(deadline=None, max_examples=200)
@given(grid_matrices(min_vars=1))
def test_lower_set_contains_every_maximal_minor_support(case):
    matrix, _ = case
    minors = [det_symbolic(PolyMatrix([matrix.entries[i] for i in rows]))
              for rows in combinations(range(matrix.rows), matrix.cols)]
    bounds = _support_bounds(matrix)
    if bounds is None:
        assert all(d.is_zero() for d in minors)
        return
    sizes = [bounds[1 << i] + 1 for i in range(len(matrix.vars))]
    lower = _lower_set(sizes, bounds)
    # exactly the box points within every bound, in sorted order
    assert list(lower) == [
        i for i in range(prod(sizes))
        if all(sum(d for j, d in enumerate(_grid_digits(i, sizes))
                   if mask >> j & 1) <= h for mask, h in bounds.items())]
    exponents = {tuple(_grid_digits(i, sizes)) for i in lower}
    for d in minors:
        assert set(d.terms) <= exponents


def _newton(vars, values, e):
    """prod over v of prod_{j < e_v} (v - values[v][j]): on the grid it is
    nonzero exactly at the points whose digits are >= e."""
    out = MultiPoly.constant(vars, 1)
    for v, d in zip(vars, e):
        x = MultiPoly.variable(vars, v)
        for node in values[v][:d]:
            out = out * (x - MultiPoly.constant(vars, node))
    return out


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=3),
       st.sets(st.integers(-2, 2), max_size=2))
def test_scan_reports_the_corner_of_the_lower_set(e, avoid):
    # the lower set of a 1x1 Newton product is the box below e, whose only
    # maximal point e is the last one scanned and the only nonzero one
    vars = ("n", "x", "z")[:len(e)]
    values = {v: _grid_values(d, avoid) for v, d in zip(vars, e)}
    matrix = PolyMatrix([[_newton(vars, values, e)]],
                        avoid={v: avoid for v in vars})
    res = _rank_deficiency_test(matrix, Fraction(1), 0)
    assert not res.passed
    assert res.witness == {v: values[v][d] for v, d in zip(vars, e)}
    assert res.grid_tested == res.grid_total == prod(d + 1 for d in e)


def test_scan_reports_a_corner_of_a_triangular_lower_set():
    # rows N_(2,0) and N_(0,2): h(w) = 2 for every w, so S is the triangle
    # e_n + e_a <= 2 of 6 points, and on it the two rows are nonzero only at
    # its corners (2, 0) and (0, 2); (0, 2) comes first in grid order
    vars = ("n", "a")
    values = {v: _grid_values(2, set()) for v in vars}
    matrix = PolyMatrix([[_newton(vars, values, (2, 0))],
                         [_newton(vars, values, (0, 2))]])
    res = _rank_deficiency_test(matrix, Fraction(1), 0)
    assert (res.passed, res.grid_total, res.grid_tested) == (False, 6, 3)
    assert res.witness == {"n": values["n"][0], "a": values["a"][2]}


def test_grid_evaluator_on_mrr_order_two():
    nid = mrr_nid()
    matrix = _integer_cleared(assemble(nid.delta_term, 2, k=nid.k, n=nid.n).matrix)
    values = {v: _grid_values(permanent_degree_bound(matrix, v).degree, set())
              for v in matrix.vars}
    total = prod(len(values[v]) for v in matrix.vars)
    indices = sorted(random.Random(7).sample(range(total), 36))
    # two consecutive indices share their (n, x) prefix
    indices = sorted(set(indices) | {indices[0] + 1})
    seen, _ = _evaluated(matrix, values, indices)
    for index, numeric in zip(indices, seen):
        point = _grid_point(matrix.vars, values, index)
        assert numeric == _evaluated_at(matrix, point), point


def test_positive_integer_roots():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    p = (n - one.scale(3)) * (n + one)
    assert _leading_root_bound(Recurrence(1, (one, p)), "n") == 3
    q = (n + one) * (n + one.scale(2))
    assert _leading_root_bound(Recurrence(1, (one, q)), "n") is None


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


def test_gosper_columns_independent():
    # the order-0 system of f = k has a kernel vector with a_0 = 0
    # (test_gosper_skips_homogeneous_solutions), so its b columns are dependent
    f = parse_term("k", ("k",))
    assert not _gosper_columns_independent(assemble(f, 0, k="k"))
    nid = mrr_nid()
    assert _gosper_columns_independent(
        assemble(nid.delta_term, 2, k=nid.k, n=nid.n))


def test_prove_inconclusive_without_independent_gosper_columns(monkeypatch):
    monkeypatch.setattr(gridproof, "_gosper_columns_independent",
                        lambda sys: False)
    F = parse_term(*CHU[:1], CHU[2])
    rhs = parse_sum(CHU[1], CHU[2])
    rep = prove(F, rhs, "k", "n", lf("0", CHU[2]), lf("n", CHU[2]), ("a",),
                fast_path=False)
    assert (rep.verdict, rep.method, rep.order) == (
        "inconclusive", "determinant-grid", 1)
    assert rep.message.startswith("order 1:")


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


def _guard_nid(F, lower, upper):
    # the guard reads only the summand, k and the window
    return NormalizedIdentity(F, F, (), "k", "n", lower, upper, True,
                              RationalFunction.constant(F.symbols, 1))


def test_termination_guard_needs_integer_lower_index():
    # binomial(n, k+1/2) is never zero, so it bounds no window
    syms = ("k", "n")
    F = parse_term("binomial(n,k+1/2)/k!", syms)
    reason = _termination_guard(_guard_nid(F, lf("0", syms), lf("n", syms)))
    assert reason is not None and "above the upper limit" in reason


_AFFINE = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3))
_FACTOR = st.one_of(st.tuples(st.just("binomial"), _AFFINE, _AFFINE),
                    st.tuples(st.just("rf"), _AFFINE, _AFFINE),
                    st.tuples(st.just("1/factorial"), _AFFINE))
_LIMIT = st.one_of(st.none(), st.tuples(st.integers(-1, 2), st.integers(-2, 2)))


def _affine(a, b, c):
    return LinearForm({"k": a, "n": b}, c)


@settings(deadline=None, max_examples=300)
@given(st.lists(_FACTOR, min_size=1, max_size=3), st.tuples(_LIMIT, _LIMIT))
@example([("binomial", (0, -1, 4), (1, 0, 0))], (None, None))
@example([("binomial", (0, 1, 0), (1, 0, 2))], ((0, 0), None))
def test_termination_guard_sound(factors, window):
    # whenever the guard accepts, the summand vanishes beyond each declared
    # limit, and the natural support is bounded at each limit of all
    binomials, risings, factorials = [], [], []
    for kind, *args in factors:
        forms = [_affine(*a) for a in args]
        if kind == "binomial":
            binomials.append((*forms, 1))
        elif kind == "rf":
            risings.append((*forms, 1))
        else:
            factorials.append((forms[0], -1))
    F = TermExpression(("k", "n"), tuple(factorials), tuple(binomials),
                       tuple(risings))
    lower, upper = (None if w is None else LinearForm({"n": w[0]}, w[1])
                    for w in window)
    if _termination_guard(_guard_nid(F, lower, upper)) is not None:
        return
    for nv in range(7):
        lo, hi = natural_support(F, {"n": nv})
        assert lower is not None or lo is not None, nv
        assert upper is not None or hi is not None, nv
        outside = []
        if lower is not None:
            edge = lower.eval({"n": nv})
            outside += range(edge - 6, edge)
        if upper is not None:
            edge = upper.eval({"n": nv})
            outside += range(edge + 1, edge + 7)
        for kv in outside:
            try:
                value = eval_summand(F, {"k": kv, "n": nv})
            except EvalError:
                continue
            assert value.is_zero(), (nv, kv)
