import os
import random
import re
import signal
import warnings
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperproof import factored, gridproof, linalg, polys
from hyperproof.gridproof import (
    NormalizedIdentity, Inconclusive, initial_conditions_check,
    leading_coeff_check, normalize_and_delta, prove,
    _gosper_columns_independent,
    _grid_point, _point_check,
    _first_full_rank, _leading_root_bound, _rank_deficiency_test,
    _small_cases, _support_bounds, _termination_guard,
)
from hyperproof.cli import load_identity, report_record, run_prove
from hyperproof.factored import (
    Factored, factored_lcm, factored_quotient, from_ratio_parts, gosper_normal,
)
from hyperproof.linalg import (
    PolyMatrix, _DET_WIDTH, _GridEvaluator, _constant_pivots, _grid_digits,
    _grid_values, _int_det, _int_rank, _integer_cleared, _lower_set,
    _probe_values, solve_nullspace,
)
from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.telescope import Recurrence, assemble, gosper_degree_bound
from hyperproof.terms import (
    EvalError, LinearForm, TermError, TermExpression, _ZeroTerm,
    natural_support, parse_affine as lf, parse_rational, parse_sum,
    parse_term, term_value, value_parts,
)
from oracles import (
    det_symbolic, evaluate_reference, lane_reference, poly_matrix,
    small_cases_reference,
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
        lhs = term_value(nid.fhat, {"n": nv + 1, "k": kv}, True) \
            - term_value(nid.fhat, pt, True)
        assert lhs == term_value(nid.ftil, pt, True)
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
def grid_matrices(draw, min_vars=0, min_nodes=1):
    """Small integer polynomial matrices (rows >= cols) over min_vars-3
    variables, with zero, constant and sparse entries, plus min_nodes-4 grid
    values per variable: sorted distinct integers, not only the consecutive
    ones of _grid_values, as _univar_minors and the nullspace nodes use
    them."""
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
    values = {v: sorted(draw(st.sets(st.integers(-3, 6), min_size=min_nodes,
                                     max_size=4)))
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


@settings(deadline=None, max_examples=200)
@given(grid_matrices())
def test_kernel_without_chain_decides_full_rank(case):
    # zero entries, rows > cols, exponent gaps in the last variable and no
    # variable at all: without a chain the kernel returns the determinant of
    # the evaluated matrix when square, else its rows, and its full-rank
    # decision is _int_rank's on the matrix MultiPoly.eval gives
    matrix, values = case
    evaluator = _GridEvaluator(matrix, values)
    kernel = evaluator.kernel()
    assert evaluator.determinant == (matrix.rows == matrix.cols)
    for _, index, s, v in evaluator.inputs(
            range(prod(len(values[v]) for v in matrix.vars))):
        point = _grid_point(matrix.vars, values, index)
        expected = _evaluated_at(matrix, point)
        out = kernel(s, v)
        if evaluator.determinant:
            assert out == _int_det([list(row) for row in expected])
            assert (out != 0) == (_int_rank(expected) == matrix.cols)
        else:
            assert out == expected


@st.composite
def packed_cases(draw):
    """Integer polynomial matrices (rows >= cols) over 0-3 variables with
    signed coefficients up to 2^80, some rows and columns all zero, and
    grid values per variable: sorted distinct integers of either sign."""
    vars = ("n", "x", "z")[:draw(st.integers(0, 3))]
    cols = draw(st.integers(1, 3))
    rows = cols + draw(st.integers(0, 2))
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1))
    coef = st.integers(-2 ** 80, 2 ** 80)
    exps = st.tuples(*[st.integers(0, 3) for _ in vars])

    def entry(i, j):
        if i in zero_rows or j in zero_cols:
            return MultiPoly.zero(vars)
        return MultiPoly.from_terms(
            vars, draw(st.lists(st.tuples(exps, coef), max_size=3)))

    matrix = PolyMatrix([[entry(i, j) for j in range(cols)]
                         for i in range(rows)])
    values = {v: sorted(draw(st.sets(st.integers(-40, 40), min_size=1,
                                     max_size=4)))
              for v in vars}
    return matrix, values


@settings(deadline=None, max_examples=200)
@given(packed_cases())
@example((poly_matrix((), [[2 ** 80, -2 ** 80], [0, 0], [-2 ** 80, 1]]), {}))
def test_packed_rows_match_eval(case):
    # every point of the box, so the nodes at both ends of every axis and
    # the corners, where the lane bound is nearest
    matrix, values = case
    indices = range(prod(len(values[v]) for v in matrix.vars))
    for _, index, a in _GridEvaluator(matrix, values).matrices(indices):
        assert a == _evaluated_at(matrix,
                                  _grid_point(matrix.vars, values, index))


def test_lane_bound_met_with_equality():
    # 3x^2y + 2y + 5 at the corner (3, 2) is 63, its bound sum |c| * prod
    # max|node|^e: a lane one bit narrower reads it out wrong
    vars = ("x", "y")
    x, y = MultiPoly.variable(vars, "x"), MultiPoly.variable(vars, "y")
    peak = (x * x * y).scale(3) + y.scale(2) + MultiPoly.constant(vars, 5)
    matrix = PolyMatrix([[peak, x - y, -peak], [y, x * y, x],
                         [x, y - x, y]])
    values = {"x": [-2, -1, 0, 1, 2, 3], "y": [-1, 0, 1, 2]}
    evaluator = _GridEvaluator(matrix, values)
    assert evaluator.lane == 63 .bit_length() + 1
    indices = range(6 * 4)
    seen = {index: a for _, index, a in evaluator.matrices(indices)}
    assert seen[23][0] == [63, 1, -63]
    for index in indices:
        assert seen[index] == _evaluated_at(
            matrix, _grid_point(vars, values, index))


@pytest.mark.parametrize("n", range(1, _DET_WIDTH + 1))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_straight_line_determinant_is_int_det(n, data):
    rows = data.draw(st.lists(
        st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=n, max_size=n),
        min_size=n, max_size=n))
    copy = data.draw(st.integers(-1, n - 1))
    if 0 <= copy < n - 1:
        rows[-1] = list(rows[copy])  # singular
    evaluator = _GridEvaluator(poly_matrix((), rows), {})
    assert evaluator.determinant
    kernel = evaluator.kernel()
    assert kernel(evaluator.coefs, 0) == _int_det([list(r) for r in rows])


def test_kernel_reads_out_rows_beyond_the_width_limit():
    n = _DET_WIDTH + 1
    rows = [[(i + 2) ** j for j in range(n)] for i in range(n)]
    evaluator = _GridEvaluator(poly_matrix((), rows), {})
    assert not evaluator.determinant
    assert evaluator.kernel()(evaluator.coefs, 0) == rows


@pytest.mark.parametrize("singular", [True, False])
def test_kernel_of_degree_300_in_the_last_variable(singular):
    # 300 Horner steps in one entry: nested as one expression they would
    # exceed the parser's limit on nested parentheses
    vars = ("a", "n")
    p = MultiPoly.variable(vars, "n") ** 300 + MultiPoly.variable(vars, "a")
    one = MultiPoly.constant(vars, 1)
    matrix = PolyMatrix([[p, p if singular else p + one], [one, one]])
    res = _rank_deficiency_test(matrix, Fraction(1), 0)
    assert res.passed == singular
    # e_a <= 1 and e_a + e_n <= 300
    assert res.grid_total == 601
    assert res.grid_tested == (601 if singular else 1)


@pytest.mark.parametrize("rows, singular", [
    ([[1, 2], [2, 4]], True), ([[1, 2], [2, 5]], False),
    ([[0, 2], [0, 5], [1, 0]], False)])
def test_rank_deficiency_test_without_variables(rows, singular):
    # one grid point, the empty one; the kernel reads the coefficients
    res = _rank_deficiency_test(poly_matrix((), rows), Fraction(1), 0)
    assert (res.passed, res.grid_total, res.grid_tested) == (singular, 1, 1)
    assert res.witness == (None if singular else {})


@pytest.fixture
def forks(monkeypatch):
    """The pids that called os.fork, through a wrapper around the real one."""
    calls, real = [], os.fork

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(gridproof.os, "fork", fork)
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_scan_starts_at_most_one_worker_per_cpu(monkeypatch, forks):
    # the caller ranks the first chunk, so 3 CPUs take 2 forked children
    monkeypatch.setattr(gridproof.os, "cpu_count", lambda: 3)
    matrix = _rank_test_cases()["singular"]
    res = _rank_deficiency_test(matrix, Fraction(1), 0, jobs=5000)
    assert res.passed and res.grid_tested > gridproof._SERIAL_HEAD
    assert len(forks) == 2
    _assert_no_child_left()
    monkeypatch.setattr(gridproof.os, "cpu_count", lambda: None)
    assert _rank_deficiency_test(matrix, Fraction(1), 0, jobs=5000) == res
    assert len(forks) == 2


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
        values[v] = _grid_values(h[unit])
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
    }


@pytest.mark.parametrize(
    "name", ["late", "two-blocks", "singular", "dense", "rectangular"])
def test_rank_deficiency_test_matches_brute_force(name):
    matrix = _rank_test_cases()[name]
    for certainty, seed in ((Fraction(1), 0), (Fraction(1, 2), 3)):
        expected = _reference_rank_test(matrix, certainty, seed)
        for jobs in (1, 2):
            with warnings.catch_warnings():
                # 3.12 warns when it forks while another thread is alive
                warnings.simplefilter("error")
                res = _rank_deficiency_test(matrix, certainty, seed, jobs=jobs)
            assert (res.passed, res.grid_total, res.grid_tested,
                    res.witness) == expected, (certainty, jobs)
            _assert_no_child_left()


@pytest.mark.parametrize("name", ["late", "two-blocks"])
def test_a_child_that_dies_leaves_the_result_unchanged(monkeypatch, forks,
                                                        name):
    parent, real = os.getpid(), gridproof._rank_chunk

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(gridproof, "_rank_chunk", dying)
    monkeypatch.setattr(gridproof.os, "cpu_count", lambda: 2)
    matrix = _rank_test_cases()[name]
    for certainty, seed in ((Fraction(1), 0), (Fraction(1, 2), 3)):
        res = _rank_deficiency_test(matrix, certainty, seed, jobs=2)
        assert (res.passed, res.grid_total, res.grid_tested, res.witness) == \
            _reference_rank_test(matrix, certainty, seed), certainty
        _assert_no_child_left()
    # two-blocks at 1/2 has its hit in the serial head, before any fork
    assert len(forks) == (2 if name == "late" else 1)


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
    lower = _lower_set(bounds)
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
@given(st.lists(st.integers(0, 5), min_size=1, max_size=3))
def test_scan_reports_the_corner_of_the_lower_set(e):
    # the lower set of a 1x1 Newton product is the box below e, whose only
    # maximal point e is the last one scanned and the only nonzero one
    vars = ("n", "x", "z")[:len(e)]
    values = {v: _grid_values(d) for v, d in zip(vars, e)}
    matrix = PolyMatrix([[_newton(vars, values, e)]])
    res = _rank_deficiency_test(matrix, Fraction(1), 0)
    assert not res.passed
    assert res.witness == {v: values[v][d] for v, d in zip(vars, e)}
    assert res.grid_tested == res.grid_total == prod(d + 1 for d in e)


def test_scan_reports_a_corner_of_a_triangular_lower_set():
    # rows N_(2,0) and N_(0,2): h(w) = 2 for every w, so S is the triangle
    # e_n + e_a <= 2 of 6 points, and on it the two rows are nonzero only at
    # its corners (2, 0) and (0, 2); (0, 2) comes first in grid order
    vars = ("n", "a")
    values = {v: _grid_values(2) for v in vars}
    matrix = PolyMatrix([[_newton(vars, values, (2, 0))],
                         [_newton(vars, values, (0, 2))]])
    res = _rank_deficiency_test(matrix, Fraction(1), 0)
    assert (res.passed, res.grid_total, res.grid_tested) == (False, 6, 3)
    assert res.witness == {"n": values["n"][0], "a": values["a"][2]}


def test_grid_evaluator_on_mrr_order_two():
    nid = mrr_nid()
    matrix = _integer_cleared(assemble(nid.delta_term, 2, k=nid.k, n=nid.n).matrix)
    bounds = _support_bounds(matrix)
    values = {v: _grid_values(bounds[1 << i])
              for i, v in enumerate(matrix.vars)}
    total = prod(len(values[v]) for v in matrix.vars)
    indices = sorted(random.Random(7).sample(range(total), 36))
    # two consecutive indices share their (n, x) prefix
    indices = sorted(set(indices) | {indices[0] + 1})
    seen, _ = _evaluated(matrix, values, indices)
    for index, numeric in zip(indices, seen):
        point = _grid_point(matrix.vars, values, index)
        assert numeric == _evaluated_at(matrix, point), point


@st.composite
def chain_cases(draw):
    """Small integer polynomial matrices in x, y (rows >= cols) with planted
    zero and constant entries, and integer points to evaluate them at."""
    vars = ("x", "y")
    cols = draw(st.integers(1, 4))
    rows = cols + draw(st.integers(0, 2))
    coef = st.integers(-3, 3)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def entry():
        kind = draw(st.sampled_from(("zero", "constant", "constant", "poly")))
        if kind == "zero":
            return MultiPoly.zero(vars)
        if kind == "constant":
            return MultiPoly.constant(vars, draw(coef.filter(bool)))
        return MultiPoly.from_terms(
            vars, draw(st.lists(st.tuples(exps, coef), min_size=1, max_size=3)))

    matrix = PolyMatrix([[entry() for _ in range(cols)] for _ in range(rows)])
    point = st.fixed_dictionaries({v: st.integers(-3, 3) for v in vars})
    return matrix, draw(st.lists(point, min_size=1, max_size=6))


def _chain_decides(matrix, values, indices, jobs=1):
    """The grid scan's full-rank decisions at the sorted grid indices: one
    _first_full_rank call with the given jobs from each point after its
    last hit, checked against _int_rank of the matrix MultiPoly.eval
    gives."""
    indices = list(indices)
    decided = []
    while len(decided) < len(indices):
        hit = _first_full_rank(matrix, values, indices[len(decided):], jobs)
        misses = len(indices) - len(decided) if hit is None else hit[0]
        decided += [False] * misses + [True] * (hit is not None)
    assert decided == [
        _int_rank(_evaluated_at(matrix, _grid_point(matrix.vars, values, i)))
        == matrix.cols for i in indices]
    return decided


@settings(deadline=None, max_examples=400)
@given(chain_cases())
def test_pivot_chain_decides_full_column_rank(case):
    matrix, points = case
    chain = _constant_pivots(matrix)
    assert len(chain.steps) < matrix.cols
    assert len(chain.steps) + len(chain.cols) == matrix.cols
    assert len(chain.steps) + len(chain.rows) == matrix.rows
    for i, j, _, _ in chain.steps:
        assert matrix.entries[i][j].is_constant()
    for point in points:
        _chain_decides(matrix, {v: [x] for v, x in point.items()}, [0])


_X = MultiPoly.variable(("x",), "x")


@pytest.mark.parametrize("rows, steps, rest, full", [
    # pivot (0, 0) puts x^2 into row 1's column 1, which is zero in M; the
    # next pivot (2, 1) must update row 1 too.  At x = -1 only that update
    # leaves the remainder nonzero: M has full rank at every integer x.
    ([[1, _X, 0], [_X, 0, _X + MultiPoly.constant(("x",), 1)], [0, 1, _X],
      [0, _X, 1]],
     [(0, 0, [1], [1, 2]), (2, 1, [1, 3], [2])], ([1, 3], [2]),
     lambda v: True),
    # after pivot (0, 0) row 1 reads (0, 0, x): its constant 1 in column 1
    # is gone, so row 1 is no pivot and (2, 2) ends the chain; det M = -x^2
    ([[1, 1, 0], [1, 1, _X], [0, _X, 1]],
     [(0, 0, [1], [1, 2]), (2, 2, [1], [1])], ([1], [1]),
     lambda v: v != 0),
], ids=["fill", "updated-row"])
def test_pivot_chain_hand_built(rows, steps, rest, full):
    matrix = poly_matrix(("x",), rows)
    chain = _constant_pivots(matrix)
    assert chain.steps == steps
    assert (chain.rows, chain.cols) == rest
    xs = list(range(-3, 4))
    assert _chain_decides(matrix, {"x": xs}, range(len(xs))) == \
        [full(v) for v in xs]


@pytest.mark.parametrize("rows, remainder, full", [
    # pivot (0, 0) zeroes row 1, x times row 0: the square remainder's
    # determinant is 0 everywhere
    ([[1, _X, 2], [_X, _X * _X, _X.scale(2)], [0, _X, _X]], (2, 2),
     lambda v: False),
    # remainder [[1 - x^2, 0], [0, x]]: determinant zero at x = -1, 0, 1
    ([[1, _X, 0], [_X, 1, 0], [0, 0, _X]], (2, 2), lambda v: v not in (-1, 0, 1)),
    # remainder [[1 - x^2], [x - x^2]], 2 x 1: rank 0 only at x = 1
    ([[1, _X], [_X, 1], [_X, _X]], (2, 1), lambda v: v != 1),
], ids=["square-zero", "square-nonzero", "non-square"])
def test_kernel_decision_by_remainder_shape(rows, remainder, full):
    matrix = poly_matrix(("x",), rows)
    chain = _constant_pivots(matrix)
    assert (len(chain.rows), len(chain.cols)) == remainder
    xs = list(range(-3, 4))
    evaluator = _GridEvaluator(matrix, {"x": xs}, chain)
    assert evaluator.determinant == (remainder[0] == remainder[1])
    assert _chain_decides(matrix, {"x": xs}, range(len(xs))) == \
        [full(v) for v in xs]


def test_chain_lane_bound_grows_with_the_pivot():
    # pivot 256 scales row 1 to (0, 256x): at x = +-4 the remainder is
    # +-1024, which a lane bound missing the factor |c| reads out as 0
    matrix = poly_matrix(("x",), [[256, 0], [1, _X]])
    xs = list(range(-4, 5))
    assert _GridEvaluator(matrix, {"x": xs}, _constant_pivots(matrix)).lane \
        == 1024 .bit_length() + 1
    assert _chain_decides(matrix, {"x": xs}, range(len(xs))) == \
        [v != 0 for v in xs]


@pytest.mark.parametrize("J, pivots, remainder", [(1, 1, (4, 3)),
                                                  (2, 5, (4, 4))])
def test_pivot_chain_on_mrr(J, pivots, remainder):
    nid = mrr_nid()
    matrix = _integer_cleared(assemble(nid.delta_term, J, k=nid.k, n=nid.n).matrix)
    chain = _constant_pivots(matrix)
    assert len(chain.steps) == pivots
    assert (len(chain.rows), len(chain.cols)) == remainder
    bounds = _support_bounds(matrix)
    values = {v: _grid_values(bounds[1 << i])
              for i, v in enumerate(matrix.vars)}
    lower = _lower_set(bounds)
    sample = sorted(random.Random(13).sample(list(lower), min(500, len(lower))))
    flags = set(_chain_decides(matrix, values, sample))
    # order 1 has full-rank points (its witness is the 2nd); order 2 none
    assert flags == ({False, True} if J == 1 else {False})


def _sampled(values, vars, rng):
    """A sorted random sample of the box indices of the grid values."""
    total = prod(len(values[v]) for v in vars)
    return sorted(rng.sample(range(total), rng.randint(1, total)))


@settings(deadline=None, max_examples=200)
@given(grid_matrices(min_vars=2, min_nodes=2), st.randoms(use_true_random=False))
def test_compiled_prefix_level_matches_substitute(case, rng):
    # at every prefix a scan visits, the compiled last prefix level returns
    # what _substitute returns, and inputs() yields the same last-level
    # inputs with it as without; it is built only at a second prefix
    matrix, values = case
    indices = _sampled(values, matrix.vars, rng)
    plain, compiled = (_GridEvaluator(matrix, values) for _ in range(2))
    compiled.compile_prefix()
    prefix, level, real = (plain._compiled_prefix(), len(plain.levels) - 2,
                           plain._substitute)
    visited = []

    def substitute(L, v, src):
        out = real(L, v, src)
        if L == level:
            visited.append(v)
            assert prefix(src, v) == out
        return out

    plain._substitute = substitute
    assert [s for _, _, s, _ in compiled.inputs(indices)] == \
        [s for _, _, s, _ in plain.inputs(indices)]
    heads = {i // len(values[matrix.vars[-1]]) for i in indices}
    assert len(visited) == len(heads)
    assert (compiled.prefix is not None) == (len(heads) > 1)


@settings(deadline=None, max_examples=100)
@given(grid_matrices(min_vars=2, min_nodes=2), st.randoms(use_true_random=False))
def test_scan_with_the_compiled_prefix_decides_full_rank(case, rng):
    # every decision of _first_full_rank, which compiles the last prefix
    # level, is _int_rank's on the matrix MultiPoly.eval gives, at one job
    # and at two
    matrix, values = case
    indices = _sampled(values, matrix.vars, rng)
    for jobs in (1, 2):
        _chain_decides(matrix, values, indices, jobs)


def test_forked_scan_with_the_compiled_prefix_past_the_serial_head(
        monkeypatch):
    # 8 nodes per axis of n, x, z, so 512 points: N is nonzero exactly at
    # the digits >= (6, 0, 1), first at index 385, in the second chunk of
    # two jobs after the serial head.  The caller builds the compiled prefix
    # level in the serial head, before it forks, so the child that ranks
    # the hit inherits it
    monkeypatch.setattr(gridproof.os, "cpu_count", lambda: 2)
    vars = ("n", "x", "z")
    values = {v: _grid_values(7) for v in vars}
    n, x, z = (MultiPoly.variable(vars, v) for v in vars)
    one = MultiPoly.constant(vars, 1)
    matrix = PolyMatrix([[_newton(vars, values, (6, 0, 1)), x * z ** 3 + one],
                         [MultiPoly.zero(vars), n * n * x + one]])
    built, at_fork = [], []
    real_build, real_fork = _GridEvaluator._compiled_prefix, os.fork
    monkeypatch.setattr(_GridEvaluator, "_compiled_prefix",
                        lambda self: built.append(1) or real_build(self))
    monkeypatch.setattr(gridproof.os, "fork",
                        lambda: at_fork.append(len(built)) or real_fork())
    assert _first_full_rank(matrix, values, range(512), 2) == (385, 385)
    assert at_fork == [1] and len(built) == 1
    _assert_no_child_left()
    sample = sorted(random.Random(5).sample(range(512), 400))
    for indices in (range(512), sample):
        hit = _chain_decides(matrix, values, indices, 2).index(True)
        assert hit > gridproof._SERIAL_HEAD
    _assert_no_child_left()


@pytest.mark.parametrize("vars", [(), ("x",)])
def test_no_prefix_level_is_compiled_without_two_variables(monkeypatch, vars):
    # over one variable every point has the same empty prefix, and without
    # variables there is no level at all: a scan of 601 points (of one)
    # builds no compiled prefix level
    built = []
    real = _GridEvaluator._compiled_prefix
    monkeypatch.setattr(_GridEvaluator, "_compiled_prefix",
                        lambda self: built.append(1) or real(self))
    entry = MultiPoly.variable(vars, "x") if vars else MultiPoly.constant(
        vars, 2)
    matrix = PolyMatrix([[entry, MultiPoly.constant(vars, 1)],
                         [entry * entry, entry]])
    values = {v: list(range(-300, 301)) for v in vars}
    indices = range(601 if vars else 1)
    evaluator = _GridEvaluator(matrix, values)
    evaluator.compile_prefix()
    assert len(list(evaluator.inputs(indices))) == len(indices)
    assert _first_full_rank(matrix, values, indices) is None
    assert built == [] and evaluator.prefix is None


def test_positive_integer_roots():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    p = (n - one.scale(3)) * (n + one)
    assert _leading_root_bound(Recurrence(1, (one, p)), "n") == 3
    q = (n + one) * (n + one.scale(2))
    assert _leading_root_bound(Recurrence(1, (one, q)), "n") is None


def test_zero_root_of_the_leading_coefficient_counts():
    # a_J = n^2 + 2n = n (n + 2): at n = 0 the recurrence does not fix the
    # value at n = J, so the bound is 0 and the base cases reach n = J
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    one = MultiPoly.constant(vars, 1)
    a = n * n + n.scale(2)
    assert _leading_root_bound(Recurrence(1, (one, a)), "n") == 0
    assert _leading_root_bound(Recurrence(1, (one, a + one)), "n") is None


@pytest.mark.parametrize("name", ["zero-root-central-binomial",
                                  "zero-root-dixon-cubes-2",
                                  "zero-root-dixon-cubes-4"])
def test_false_identity_with_a_zero_root_is_refuted(name):
    # each holds at n = 0 and 1 only; its telescoper's leading coefficient
    # vanishes at n = 0, so the base cases must reach n = 1
    rep = run_prove(load_identity(CORPUS / "extra" / f"{name}.txt"),
                    Fraction(1), 0, 6, 1)
    assert (rep.verdict, rep.method, rep.leading_root_bound) == (
        "refuted", "telescope", 0)
    assert rep.initial_checks[-1] == ["delta", 1, False]


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_nid(name):
    ident = load_identity(CORPUS / f"{name}.txt")
    F, rhs_terms, lower, upper = ident.parsed()
    return normalize_and_delta(F, rhs_terms, ident.params, "k", "n", lower, upper)


def mrr_nid():
    return corpus_nid("mrr")


def _system(vars, rows, J, contents=None):
    """A hand-built order-J system with matrix M' and the other parts that
    leading_coeff_check reads."""
    matrix = poly_matrix(vars, rows)
    ones = [Factored.one(vars)] * matrix.cols
    return SimpleNamespace(matrix=matrix, ansatz=SimpleNamespace(order=J),
                           n="n", contents=contents or ones)


def _rank_two_of_three(v0, v1, v2):
    # every row is orthogonal to (v0, v1, v2), and any two rows have rank 2
    zero = v0 - v0
    return [[v1, -v0, zero], [zero, v2, -v1], [v2, zero, -v0]]


def _nx():
    vars = ("n", "x")
    return vars, MultiPoly.variable(vars, "n"), MultiPoly.variable(vars, "x")


def test_leading_coeff_check_finds_a_generic_root():
    vars, n, x = _nx()
    one = MultiPoly.constant(vars, 1)
    a1 = (n - one.scale(3)) * (n + x.scale(2) + one)
    sys = _system(vars, _rank_two_of_three(n + x, a1, one), 1)
    n0, points = leading_coeff_check(sys, Fraction(1), 0)
    assert n0 == 3
    assert len(points) == 3 and all(set(p) == {"x"} for p in points)
    assert all(isinstance(v, int) for p in points for v in p.values())


def test_leading_coeff_check_drops_roots_of_special_parameters():
    # a_1 = n - x has the positive root n = x only where x is a positive
    # integer; the gcd over the specializations drops it
    vars, n, x = _nx()
    one = MultiPoly.constant(vars, 1)
    sys = _system(vars, _rank_two_of_three(n + x, n - x, n + one), 1)
    assert leading_coeff_check(sys, Fraction(1), 0)[0] is None


def test_leading_coeff_check_reads_parameter_free_contents():
    # the parameter-free parts of the column contents divide a_J's multiple
    # L / c_J: n - 5, and n - 6 inside the unsplit (n - 6)(n + x); n - x is
    # not free of x, so its root is not generic
    vars, n, x = _nx()
    one = MultiPoly.constant(vars, 1)
    rows = _rank_two_of_three(n + x, n - x, n + one)
    contents = [Factored.one(vars).mul_poly(n - one.scale(5), 1),
                Factored.one(vars).mul_poly(n - x, 1), Factored.one(vars)]
    sys = _system(vars, rows, 1, contents)
    assert leading_coeff_check(sys, Fraction(1), 0)[0] == 5
    contents[2] = Factored.one(vars).mul_poly((n - one.scale(6)) * (n + x), 1)
    assert contents[2].factors()[0].total_degree() == 2
    sys = _system(vars, rows, 1, contents)
    assert leading_coeff_check(sys, Fraction(1), 0)[0] == 6


def _corank_two():
    # kernel spanned by (p, n - 4, 1, 0) and (s, 0, 0, 1); a_1 = n - 4 on the
    # columns a0, a1, b0, while the 4 columns together have rank 2 only
    vars, n, x = _nx()
    one = MultiPoly.constant(vars, 1)
    zero = one - one
    p, q, s = n + x, n - one.scale(4), x * n + one

    def row(r0, r1):
        return [r0, r1, -(r0 * p + r1 * q), -(r0 * s)]

    return _system(vars, [row(one, zero), row(zero, one), row(n, one),
                          row(one, x)], 1)


def test_leading_coeff_check_tests_the_chosen_columns(monkeypatch):
    calls = []
    real = gridproof._rank_deficiency_test

    def spy(matrix, certainty, seed, jobs=1):
        calls.append((matrix.cols, jobs))
        return real(matrix, certainty, seed, jobs)

    monkeypatch.setattr(gridproof, "_rank_deficiency_test", spy)
    sys = _corank_two()
    assert leading_coeff_check(sys, Fraction(1), 0, jobs=3)[0] == 4
    assert calls == [(3, 3)]


def test_leading_coeff_check_needs_a_j_in_the_span_of_the_others(monkeypatch):
    # b0 = n * a0 gives the kernel (n, 0, -1): no telescoper of order 1, and
    # the independent a1 column is turned down before any scan
    calls = []
    monkeypatch.setattr(gridproof, "_rank_deficiency_test",
                        lambda *args, **kw: calls.append(args))
    vars, n, x = _nx()
    one = MultiPoly.constant(vars, 1)
    sys = _system(vars, [[one, x, n], [x, one, n * x],
                                 [n, n + x, n * n]], 1)
    with pytest.raises(Inconclusive, match="^order 1: the a_1 column is not"):
        leading_coeff_check(sys, Fraction(1), 0)
    assert calls == []


def test_leading_coeff_check_inconclusive_when_columns_not_dependent(
        monkeypatch):
    monkeypatch.setattr(gridproof, "_rank_deficiency_test",
                        lambda *args, **kw: gridproof.VanishingResult(
                            False, 1, 1, {}))
    sys = _corank_two()
    with pytest.raises(Inconclusive, match="^order 1: "):
        leading_coeff_check(sys, Fraction(1), 0)


def test_leading_coeff_check_mrr_seed_160630457():
    # the old check telescoped a specialization drawn from this prove seed,
    # x=7/2, z=-11, and stalled for minutes
    def too_slow(signum, frame):
        raise TimeoutError("leading_coeff_check took more than 60 s")

    nid = mrr_nid()
    sys = assemble(nid.delta_term, 2, k=nid.k, n=nid.n)
    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        n0, points = leading_coeff_check(sys, Fraction(1, 100), 160630457)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert n0 is None
    assert len(points) == 3 and all(set(p) == {"x", "z"} for p in points)


def test_numeric_check_finds_a_wrong_right_side():
    nid = make_nid(*CHU)
    syms = CHU[2]
    F = parse_term(CHU[0], syms)
    assert _point_check(nid, F, parse_sum(CHU[1], syms), 0) is None
    checks, message = _point_check(
        nid, F, parse_sum("binomial(a+n+1,a)", syms), 0)
    assert checks == [("identity", 0, False)]
    assert re.fullmatch(r"numeric check failed at n=0, a=[1-9]", message)


IDENTITY_FILES = sorted(CORPUS.glob("*.txt")) + sorted(
    CORPUS.glob("extra/*.txt"))


def full_points(path):
    """(identity file, its terms, and 3 seeded points: every parameter in
    1..9 and n = 0..4, k left to the caller).  The terms are the summand,
    the right side and, where it normalizes, the normalized and the
    differenced summand, whose rational parts have denominators."""
    ident = load_identity(path)
    F, rhs_terms, lower, upper = ident.parsed()
    terms = [F] + rhs_terms
    try:
        nid = normalize_and_delta(F, rhs_terms, ident.params, ident.sum_var,
                                  ident.rec_var, lower, upper)
        terms += [nid.fhat, nid.ftil]
    except gridproof.GridProofError:
        pass
    rng = random.Random(path.name)
    points = [{p: rng.randint(1, 9) for p in ident.params} for _ in range(3)]
    return ident, terms, [{**p, ident.rec_var: nv} for p in points
                          for nv in range(5)]


def value_or_error(fn, *args):
    try:
        return fn(*args)
    except (gridproof.GridProofError, TermError, ZeroDivisionError,
            _ZeroTerm) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("path", IDENTITY_FILES, ids=lambda p: p.name)
def test_full_point_values_match_the_rational_path(path):
    # every term at k = -2 .. 2n+3, with and without zero conventions:
    # term_value and the RationalFunction path give the same number, or the
    # same exception with the same message (term_value gives 0 for a
    # zero-convention term)
    ident, terms, points = full_points(path)
    raised = 0
    for t in terms:
        for point in points:
            for kv in range(-2, 2 * point[ident.rec_var] + 4):
                at = {**point, ident.sum_var: kv}
                for zero_conventions in (False, True):
                    expected = value_or_error(evaluate_reference, t, at,
                                              zero_conventions)
                    if expected == (_ZeroTerm, ""):
                        expected = 0
                    elif not isinstance(expected, tuple):
                        expected = expected.as_constant()
                    assert value_or_error(term_value, t, at,
                                          zero_conventions) == expected, at
                    raised += isinstance(expected, tuple)
    assert raised


def upto_error(cases):
    """The items of cases up to the first error, then that error's type
    and message."""
    out = []
    try:
        out.extend(cases)
    except (gridproof.GridProofError, TermError, ZeroDivisionError) as exc:
        out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("path", IDENTITY_FILES, ids=lambda p: p.name)
def test_small_cases_sum_fractions_as_the_rational_path_did(path):
    # the declared window minus the right side for n = 0..4, at the seeded
    # parameter points (the one empty point without parameters): the same
    # differences up to the same exception
    ident, _, points = full_points(path)
    F, rhs_terms, lower, upper = ident.parsed()
    nid = NormalizedIdentity(F, F, ident.params, ident.sum_var, ident.rec_var,
                             lower, upper, True,
                             RationalFunction.constant(F.symbols, 1))
    for point in points[::5]:
        point = {p: point[p] for p in ident.params} or None
        got = upto_error(_small_cases(nid, F, rhs_terms, 4, point))
        # no symbol is left: each n is one constant, the exact difference
        got = [v if isinstance(v, tuple) else (v[0].vars, v[0].const)
               for v in got]
        assert got == [d if isinstance(d, tuple) else ((), d.as_constant())
                       for d in upto_error(small_cases_reference(
                           nid, F, rhs_terms, 4, point))]


def symbolic_cases(path):
    """(nid, [(term, right-side terms)]) for an identity file: the summand
    with its right side and, where the identity normalizes, fhat and the
    delta term with none, each term once; nid is the normalized identity,
    or one that reads the summand as a zero-right-side sum."""
    ident = load_identity(path)
    F, rhs_terms, lower, upper = ident.parsed()
    try:
        nid = normalize_and_delta(F, rhs_terms, ident.params, ident.sum_var,
                                  ident.rec_var, lower, upper)
    except gridproof.GridProofError:
        nid = NormalizedIdentity(F, F, ident.params, ident.sum_var,
                                 ident.rec_var, lower, upper, True,
                                 RationalFunction.constant(F.symbols, 1))
    cases = [(F, rhs_terms)]
    for t in (nid.fhat, nid.delta_term):
        if all(t != c for c, _ in cases):
            cases.append((t, []))
    return nid, cases


def factored_value(t, at, zero_conventions=False):
    free = tuple(s for s in t.symbols if s not in at)
    return from_ratio_parts(free, *value_parts(t, at, zero_conventions))


@pytest.mark.parametrize("path", IDENTITY_FILES, ids=lambda p: p.name)
def test_factored_values_match_the_rational_path(path):
    # each term symbolic in the parameters, at n = 0..4 and k from two
    # before the window to two past it (the right side at k = 0), with and
    # without zero conventions: value_parts gives the value of the
    # RationalFunction path, or the same exception with the same message,
    # and 0 where the zero conventions make the term zero
    nid, cases = symbolic_cases(path)
    for term, rhs_terms in cases:
        for nv in range(5):
            try:
                lo, hi = gridproof._window(nid, term, nv)
            except gridproof.GridProofError:
                continue
            for t, ks in [(term, range(lo - 2, hi + 3))] + [
                    (r, [0]) for r in rhs_terms]:
                for kv, zero_conventions in product(ks, (False, True)):
                    at = {nid.n: nv, nid.k: kv}
                    expected = value_or_error(evaluate_reference, t, at,
                                              zero_conventions)
                    got = value_or_error(factored_value, t, at,
                                         zero_conventions)
                    if expected == (_ZeroTerm, ""):
                        assert got.is_zero(), at
                    elif isinstance(expected, tuple):
                        assert got == expected, at
                    else:
                        num, den = got.split()
                        assert num.expand() * expected.den == \
                            expected.num * den.expand(), at


@pytest.mark.parametrize("path", IDENTITY_FILES, ids=lambda p: p.name)
def test_factored_small_cases_match_the_rational_path(path):
    # n = 0..4, symbolic in the parameters: a factored window sum minus the
    # right side vanishes exactly where the RationalFunction sum does, up
    # to the same exception with the same message
    nid, cases = symbolic_cases(path)
    for term, rhs_terms in cases:
        assert upto_error(map(factored.sum_vanishes, _small_cases(
            nid, term, rhs_terms, 4))) == upto_error(
            d.is_zero() for d in small_cases_reference(nid, term, rhs_terms,
                                                       4))


def test_a_zero_window_term_adds_nothing_to_a_factored_sum():
    # past the support binomial(n, k) is 0 as a product while 1/rf(a+1, k)
    # stays symbolic: that zero term, denominator and all, adds nothing
    syms = ("k", "n", "a")
    F = parse_term("binomial(n,k)/rf(a+1,k)", syms)
    nid = NormalizedIdentity(F, F, ("a",), "k", "n", lf("0", syms),
                             lf("n+1", syms), True,
                             RationalFunction.constant(syms, 1))
    assert [factored.sum_vanishes(v)
            for v in _small_cases(nid, F, [], 3)] == \
        [d.is_zero() for d in small_cases_reference(nid, F, [], 3)]


_VARS = ("x", "z")
_FORMS = ["x", "x+1", "2*x+2", "z", "x-z+1/2", "x+2*z", "-x-2"]
_OPAQUE = ["x^2+z+1", "x*z-3", "z^2+2*x"]


@st.composite
def _factored_values(draw):
    """1..5 Factored values over (x, z): a constant, zero now and then
    (a zero term keeps its factors, denominators too), affine factors from
    a small shared pool (2*x+2 and x+1 normalize alike) with exponents
    -2..2, and opaque quadratic factors with exponents -1..1."""
    values = []
    for _ in range(draw(st.integers(1, 5))):
        const = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        affine = [(lf(text, _VARS), draw(st.integers(-2, 2)))
                  for text in draw(st.lists(st.sampled_from(_FORMS),
                                            max_size=4))]
        opaque = [(parse_rational(text, _VARS).num, draw(st.integers(-1, 1)))
                  for text in draw(st.lists(st.sampled_from(_OPAQUE),
                                            max_size=2))]
        values.append(from_ratio_parts(_VARS, const, affine, opaque))
    return values


def _rational(v):
    """A Factored value as a RationalFunction, by RationalFunction
    arithmetic."""
    r = RationalFunction.constant(v.vars, v.const)
    for p, (_, e) in zip(v.factors(), v.facs.values()):
        q = RationalFunction.from_poly(p)
        for _ in range(abs(e)):
            r = r * q if e > 0 else r / q
    return r


@settings(deadline=None, max_examples=150)
@given(_factored_values())
@example([from_ratio_parts(_VARS, 0, [(lf("x+1", _VARS), -1)], []),
          from_ratio_parts(_VARS, 1, [(lf("z", _VARS), -1)], [])])
def test_vanishes_agrees_with_rational_function_sums(values):
    # shared and cancelling affine factors and an opaque rational part:
    # the factored sum vanishes exactly when the RationalFunction sum does,
    # and it equals that sum, as one opaque quotient, but not the sum plus 1
    total = RationalFunction.constant(_VARS, 0)
    for v in values:
        total = total + _rational(v)
    assert factored.sum_vanishes(values) == total.is_zero()

    def opaque(r):
        return from_ratio_parts(_VARS, 1, [], [(r.num, 1), (r.den, -1)])

    assert factored.sum_vanishes(values, [opaque(total)])
    assert factored.sum_vanishes(values + [opaque(-total)])
    one = RationalFunction.constant(_VARS, 1)
    assert not factored.sum_vanishes(values, [opaque(total + one)])


def test_small_cases_take_no_gcd_and_build_no_rational_function(
        monkeypatch):
    # the symbolic initial conditions of mrr (zero right side) and of
    # chu-vandermonde (base and delta), and the symbolic finite check of a
    # parametric identity, in factored sums only
    mrr, chu = mrr_nid(), corpus_nid("chu-vandermonde")
    ident = load_identity(CORPUS / "extra" / "pfaff-saalschutz-b-shifted.txt")
    F, rhs_terms, _, _ = ident.parsed()
    pfaff = normalize_and_delta(F, rhs_terms, ident.params, ident.sum_var,
                                ident.rec_var, *ident.parsed()[2:])
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module in (polys, factored, gridproof, linalg):
        if hasattr(module, "poly_gcd"):
            monkeypatch.setattr(module, "poly_gcd",
                                counted("poly_gcd", module.poly_gcd))
    monkeypatch.setattr(RationalFunction, "__init__", counted(
        "RationalFunction", RationalFunction.__init__))
    assert initial_conditions_check(mrr, 2, 1) == [
        ("sum", nv, True) for nv in range(4)]
    assert all(ok for _, _, ok in initial_conditions_check(chu, 1, 2))
    assert gridproof._identity_checks(pfaff, F, rhs_terms)[-1] == (
        "identity", 1, False)
    assert calls == []


def test_lane_bound_unchanged_on_every_recorded_matrix(monkeypatch):
    # every evaluator built while proving corpus/*.txt and the false
    # identities of corpus/extra: the lane width from one weight per
    # distinct exponent tuple is the per-term one
    built = []
    real = _GridEvaluator.__init__

    def recording(self, matrix, values, chain=None):
        real(self, matrix, values, chain)
        built.append((self.lane, matrix, values, self.chain))

    monkeypatch.setattr(_GridEvaluator, "__init__", recording)
    for path in sorted(CORPUS.glob("*.txt")) + sorted(
            CORPUS.glob("extra/*.txt")):
        run_prove(load_identity(path), Fraction(1, 10), 13, 6, 1)
    assert len(built) > 10
    for lane, matrix, values, chain in built:
        assert lane == lane_reference(matrix, values, chain)


def test_prove_refutes_on_numeric_mismatch(monkeypatch):
    # twice the right side has the same ratio in n, so it would pass the
    # grid; the integer-point small cases refute it before any scan, even
    # with the symbolic base case forced through
    monkeypatch.setattr(gridproof, "initial_conditions_check",
                        lambda nid, J, n0: [("base", 0, True)])
    syms = CHU[2]
    rep = prove(parse_term(CHU[0], syms), parse_sum("2*binomial(a+n,a)", syms),
                "k", "n", lf("0", syms), lf("n", syms), ("a",),
                fast_path=False)
    assert (rep.verdict, rep.method, rep.grid_tested) == (
        "refuted", "finite-check", 0)
    assert rep.message.startswith("numeric check failed at n=0, a=")


@pytest.mark.parametrize("name", ["pfaff-saalschutz-b-shifted",
                                  "pfaff-saalschutz-rhs-shifted"])
def test_false_parametric_twin_refuted_before_the_grid(monkeypatch, name):
    # both twins satisfy a recurrence, so only the small cases at integer
    # points, run before the first scan, can refute them that early
    def never(*args, **kwargs):
        raise AssertionError("no grid work expected")

    monkeypatch.setattr(gridproof, "_rank_deficiency_test", never)
    monkeypatch.setattr(gridproof, "leading_coeff_check", never)
    rep = run_prove(load_identity(CORPUS / "extra" / f"{name}.txt"),
                    Fraction(1), 0, 6, 1)
    assert (rep.verdict, rep.method, rep.grid_tested) == (
        "refuted", "finite-check", 0)
    assert rep.message.startswith("numeric check failed at n=1, a=")
    assert rep.initial_checks[-1] == ["identity", 1, False]


@pytest.mark.parametrize("name,summand,rhs,params", [
    ("binomial-2n", "binomial(n,k)", "2^n+0", ""),
    ("chu-vandermonde", "binomial(n,k)*binomial(a,k)", "binomial(a+n,a)+0*a",
     "a"),
])
def test_zero_right_side_terms_are_dropped(tmp_path, name, summand, rhs,
                                           params):
    path = tmp_path / "zero-term.txt"
    path.write_text(f"name: zero-term\nsummand: {summand}\nrhs: {rhs}\n"
                    f"sum_var: k\nrec_var: n\nlower: 0\nupper: n\n"
                    f"params: {params}\n")
    records = []
    for p in (path, CORPUS / f"{name}.txt"):
        ident = load_identity(p)
        records.append(report_record(ident, run_prove(ident, Fraction(1), 0,
                                                      6, 1)))
    assert records[0]["verdict"] == "rigorous"
    assert records[0].pop("name") == "zero-term"
    assert records[1].pop("name") == name
    assert records[0] == records[1]


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


def test_gosper_columns_independent_probes_three_distinct_points():
    # six variables: a b entry that vanishes at the first two probe points
    # of the nullspace solver and not at the third
    vars = tuple(f"v{i}" for i in range(6))
    v0 = MultiPoly.variable(vars, "v0")
    one = MultiPoly.constant(vars, 1)
    first, second, third = _probe_values(vars, 0)["v0"]
    assert third not in (first, second)
    entry = (v0 - one.scale(first)) * (v0 - one.scale(second))
    assert _gosper_columns_independent(_system(vars, [[one, entry]], 0))


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


def _full_system(f, J, k="k", n="n"):
    """The rows of the telescoping system M, built from the expanded column
    polynomials u_j pbar and the full q and r of the Gosper normal form, and
    its degree K; assemble builds M' from the same factored parts."""
    vars = f.symbols
    sigmas = [(Factored.one(vars), Factored.one(vars))]
    for j in range(1, J + 1):
        parts = f.shift_ratio_parts(n, step=j)
        sigmas.append(from_ratio_parts(vars, *parts).split())
    Q = factored_lcm([den for _, den in sigmas])
    rho_num, rho_den = from_ratio_parts(vars, *f.shift_ratio_parts(k)).split()
    pbar, q, r = (p.expand() for p in gosper_normal(
        rho_num.copy().mul(Q), rho_den.copy().mul(Q.shift(k, 1)), k))
    u = [num.copy().mul(factored_quotient(Q, den)).expand() * pbar
         for num, den in sigmas]
    K = gosper_degree_bound(max(c.degree(k) for c in u), q, r, k)
    kpoly = MultiPoly.variable(vars, k)
    cols = [-c for c in u] + [
        q * (kpoly ** i).shift(k, 1) - r.shift(k, -1) * kpoly ** i
        for i in range(K + 1)]
    mvars = tuple(v for v in vars if v != k)
    rows = []
    for d in range(max(c.degree(k) for c in cols) + 1):
        row = [c.to_univar(k)[d].restrict(mvars) if d <= c.degree(k)
               else MultiPoly.zero(mvars) for c in cols]
        if any(not e.is_zero() for e in row):
            rows.append(row)
    return rows, K


# lower-set sizes of the system matrix M and of M' = M with every column
# divided by its k-free content
@pytest.mark.parametrize("name,J,full,content_free", [
    ("mrr", 1, 2203, 480),
    ("mrr", 2, 72728, 6704),
    ("dixon", 1, 2620, 886),
    ("dixon", 2, 41255, 7281),
    ("chu-vandermonde", 1, 149, 80),
])
def test_content_free_columns(name, J, full, content_free):
    nid = corpus_nid(name)
    sys = assemble(nid.delta_term, J, k=nid.k, n=nid.n)
    rows, K = _full_system(nid.delta_term, J, k=nid.k, n=nid.n)
    assert K == sys.ansatz.degree
    contents = [c.expand().restrict(sys.matrix_vars) for c in sys.contents]
    assert not any(c.is_constant() for c in contents)
    # column j of M' times c_j is column j of M, up to a constant per row
    assert len(rows) == sys.matrix.rows
    for row, reduced_row in zip(rows, sys.matrix.entries):
        scaled = [r * c for r, c in zip(reduced_row, contents)]
        e, r = next((e, r) for e, r in zip(row, scaled) if not e.is_zero())
        lam = Fraction(r.leading_coeff()) / Fraction(e.leading_coeff())
        assert scaled == [e.scale(lam) for e in row]

    def lower_set_size(m):
        # one sampled point; grid_total is |S| whatever that point shows
        return _rank_deficiency_test(m, Fraction(1, 10 ** 6), 0).grid_total

    assert lower_set_size(PolyMatrix(rows)) == full
    assert lower_set_size(sys.matrix) == content_free


@pytest.mark.parametrize("text,syms", [
    ("binomial(n,k)", ("k", "n")),
    ("binomial(n,k)^2", ("k", "n")),
    (CHU[0], CHU[2]),
])
def test_lifted_kernel_vectors_solve_the_full_system(text, syms):
    f = parse_term(text, syms)
    sys = assemble(f, 1)
    rows, _ = _full_system(f, 1)
    basis = solve_nullspace(sys.matrix)
    assert basis
    for vec in basis:
        lifted = sys.lift(vec)
        assert any(not a.is_zero() for a in lifted)
        for row in rows:
            assert sum((e * x for e, x in zip(row, lifted)),
                       MultiPoly.zero(sys.matrix_vars)).is_zero()


def test_mrr_order_one_witness_is_full_rank_without_contents():
    ident = load_identity(CORPUS / "mrr.txt")
    F, rhs_terms, lower, upper = ident.parsed()
    rep = prove(F, rhs_terms, "k", "n", lower, upper, ident.params,
                max_order=1)
    assert (rep.verdict, rep.method) == ("inconclusive", "determinant-grid")
    assert rep.nonzero_point is not None
    nid = mrr_nid()
    reduced = _integer_cleared(
        assemble(nid.delta_term, 1, k=nid.k, n=nid.n).matrix)
    a = [[int(v) for v in row]
         for row in _evaluated_at(reduced, rep.nonzero_point)]
    assert _int_rank(a) == reduced.cols


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
                value = term_value(F, {"k": kv, "n": nv}, True)
            except EvalError:
                continue
            assert value == 0, (nv, kv)
