import random
import signal
from fractions import Fraction
from itertools import product
from math import factorial, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hyperproof import gridproof, linalg, telescope
from hyperproof.cli import load_identity, run_prove
from hyperproof.gridproof import _support_bounds
from hyperproof.polys import MultiPoly
from hyperproof.linalg import (
    PolyMatrix, _DET_WIDTH, _GridEvaluator, _annihilates, _cofactor_vector,
    _constant_pivots, _from_dense, _int_det, _int_rank, _integer_cleared,
    _interpolate_scaled, _max_assignment, _primitive_vector, _probe_values,
    _univar_minors, clear_and_primitive, solve_nullspace,
)
from hyperproof.terms import parse_rational
from oracles import (
    annihilates_reference, det_symbolic, interpolate_reference,
    max_assignment_reference, nullspace_rational, nullspace_univar_reference,
    poly_matrix,
)


def degree_bounds(m):
    """{var: h of its unit weight} from the support bounds of the grid, or
    None when every maximal minor is structurally zero."""
    bounds = _support_bounds(m)
    return None if bounds is None else \
        {v: bounds[1 << i] for i, v in enumerate(m.vars)}


def det_at_point(m, point):
    """det m at an integer or rational point: _int_det of its values times
    their common denominator d, divided by d^rows."""
    vals = [[Fraction(e.eval(point)) for e in row] for row in m.entries]
    d = lcm(*(v.denominator for row in vals for v in row))
    return Fraction(_int_det([[int(v * d) for v in row] for row in vals]),
                    d ** m.rows)


def test_det_at_point_constant():
    m = poly_matrix((), [[1, 2], [3, 4]])
    assert det_at_point(m, {}) == -2


def test_det_at_point_rank_one_symbolic():
    vars = ("n", "a")
    n = MultiPoly.variable(vars, "n")
    a = MultiPoly.variable(vars, "a")
    m = PolyMatrix([[n, a], [n * n, n * a]])
    assert det_at_point(m, {"n": 7, "a": 3}) == 0


def test_det_at_point_fractions():
    m = poly_matrix(
        (), [[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])
    assert det_at_point(m, {}) == Fraction(1, 12)


def test_det_symbolic_matches_points():
    rng = random.Random(3)
    vars = ("x", "y")
    for _ in range(10):
        entries = [[MultiPoly.from_terms(
            vars, [((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-4, 4))
                   for _ in range(2)]) for _ in range(3)] for _ in range(3)]
        m = PolyMatrix(entries)
        d = det_symbolic(m)
        for _ in range(4):
            pt = {"x": rng.randint(-5, 5), "y": rng.randint(-5, 5)}
            assert d.eval(pt) == det_at_point(m, pt)


def test_nullspace_proportional_rows():
    m = poly_matrix((), [[1, 1], [2, 2]])
    basis = solve_nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert [e.as_constant() for e in v] == [1, -1]


def test_nullspace_symbolic():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n, MultiPoly.constant(vars, 1)], [n * n, n]])
    basis = solve_nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    # normalized to (1, -n)
    assert v == [MultiPoly.constant(vars, 1), -n]


def test_nullspace_full_rank():
    m = poly_matrix((), [[1, 0], [0, 1]])
    assert solve_nullspace(m) == []


def test_nullspace_product_is_zero():
    rng = random.Random(17)
    vars = ("n", "a")
    for _ in range(15):
        entries = [[MultiPoly.from_terms(
            vars, [((rng.randint(0, 1), rng.randint(0, 1)), rng.randint(-3, 3))
                   for _ in range(2)]) for _ in range(4)] for _ in range(3)]
        m = PolyMatrix(entries)
        for v in solve_nullspace(m):
            for row in m.entries:
                assert sum((e * x for e, x in zip(row, v)),
                           MultiPoly.zero(vars)).is_zero()


@st.composite
def nullspace_cases(draw):
    """Matrices over 1-3 variables, up to 4 x 5, entries of at most 3 terms
    of total degree at most 2 with small integer or Fraction coefficients;
    at times one row is a polynomial multiple of another, and up to two
    columns polynomial combinations of the columns before them, so that
    coranks 0-2 occur with as many rows as columns, and a free column can
    lie between pivot columns.  One to three rows under five columns give
    rows < cols - 1."""
    vars = ("x", "y", "z")[:draw(st.integers(1, 3))]
    exps = st.sampled_from([e for e in product(range(3), repeat=len(vars))
                            if sum(e) <= 2])
    coefs = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])
    terms = st.lists(st.tuples(exps, coefs), max_size=3)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entries = [[MultiPoly.from_terms(vars, draw(terms)) for _ in range(cols)]
               for _ in range(rows)]
    for j in draw(st.lists(st.integers(1, cols - 1), max_size=2)
                  if cols > 1 else st.just([])):
        lam = [MultiPoly.from_terms(vars, draw(terms)) for _ in range(j)]
        for row in entries:
            row[j] = sum((c * e for c, e in zip(lam, row)),
                         MultiPoly.zero(vars))
    if rows > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, rows - 1), min_size=2,
                             max_size=2, unique=True))
        f = MultiPoly.from_terms(vars, draw(terms))
        entries[i] = [f * e for e in entries[j]]
    return PolyMatrix(entries)


def typed_basis(basis):
    """A nullspace basis coordinate by coordinate, each polynomial as its
    sorted terms with their coefficient types."""
    return [[sorted((e, type(c), c) for e, c in p.terms.items()) for p in vec]
            for vec in basis]


@settings(deadline=None, max_examples=150, derandomize=True)
@given(nullspace_cases())
def test_nullspace_matches_rational_elimination(m):
    assert typed_basis(solve_nullspace(m)) == \
        typed_basis(nullspace_rational(m))


@st.composite
def kernel_checks(draw):
    """(m, vec, must_vanish): an integer m over 1-3 variables with a column
    that is a polynomial combination of the others, and a vector: a kernel
    vector of m (must_vanish), that vector with one coefficient moved by
    +-1 where its column of m is nonzero, or a vector drawn at random.
    Coefficients are signed, up to 2^40."""
    vars = ("x", "y", "z")[:draw(st.integers(1, 3))]
    exps = st.sampled_from([e for e in product(range(3), repeat=len(vars))
                            if sum(e) <= 2])
    coefs = st.integers(-2 ** 40, 2 ** 40).filter(bool)
    terms = st.lists(st.tuples(exps, coefs), min_size=1, max_size=3)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    entries = [[MultiPoly.from_terms(vars, draw(terms)) for _ in range(cols)]
               for _ in range(rows)]
    lam = [MultiPoly.from_terms(vars, draw(terms)) for _ in range(cols - 1)]
    for row in entries:
        row[-1] = sum((c * e for c, e in zip(lam, row)), MultiPoly.zero(vars))
    m = PolyMatrix(entries)
    kind = draw(st.sampled_from(["kernel", "near", "random"]))
    if kind == "random":
        return m, [MultiPoly.from_terms(vars, draw(terms))
                   for _ in range(cols)], None
    vec = draw(st.sampled_from(solve_nullspace(m)))
    if kind == "kernel":
        return m, vec, True
    j = draw(st.sampled_from([j for j in range(cols)
                              if any(row[j] for row in entries)]))
    e = draw(exps)
    vec[j] = vec[j] + MultiPoly.from_terms(vars, [(e, draw(
        st.sampled_from([1, -1])))])
    return m, vec, False


@settings(deadline=None, max_examples=200, derandomize=True)
@given(kernel_checks())
def test_annihilates_matches_the_dense_convolution(case):
    # one big-integer evaluation per entry decides what the dense
    # convolution of the Kronecker images decides: kernel vectors pass,
    # and a kernel vector with one coefficient moved by one fails
    m, vec, must_vanish = case
    assert _annihilates(m, vec) == annihilates_reference(m, vec)
    if must_vanish is not None:
        assert _annihilates(m, vec) == must_vanish


def test_annihilates_at_the_edge_of_its_bound():
    # x - 2^b is nonzero but vanishes at x = 2^b: the row [x, -2^b] times
    # [1, 1] is rejected only if the evaluation point is past 2^b, and
    # [2^b, x] is in the kernel
    vars = ("x",)
    x = MultiPoly.variable(vars, "x")
    one = MultiPoly.constant(vars, 1)
    for b in range(70):
        m = PolyMatrix([[x, MultiPoly.constant(vars, -2 ** b)]])
        assert not _annihilates(m, [one, one])
        assert _annihilates(m, [MultiPoly.constant(vars, 2 ** b), x])


def vanishing_at_probes(vars, var, round=0):
    """The product of var - v over the values v of var in a probe round."""
    out = MultiPoly.constant(vars, 1)
    for value in _probe_values(vars, round)[var]:
        out = out * (MultiPoly.variable(vars, var)
                     - MultiPoly.constant(vars, value))
    return out


def test_nullspace_univar_rejects_a_vector_that_fails_a_row():
    # the last row vanishes at every point of the first round, so that round
    # reads corank 1 though the matrix has full rank: the cofactor vector of
    # the other rows fails the last row, and the second round finds no kernel
    vars = ("x",)
    x = MultiPoly.variable(vars, "x")
    vanish = vanishing_at_probes(vars, "x")
    m = poly_matrix(vars, [[1, x, 0, 2], [0, 1, x, 3], [x, 0, 1, x],
                           [vanish, vanish * x, vanish, 0]])
    assert det_symbolic(m)
    rounds = []
    real = linalg._probe

    def probe(m, round=0):
        rounds.append(round)
        return real(m, round)

    with mock.patch.object(linalg, "_probe", probe):
        assert solve_nullspace(m) == []
    assert rounds == [0, 1]


def test_nullspace_probes_again_where_the_first_points_miss_a_pivot():
    # column 0 vanishes at every point of the first round, which reads the
    # right rank but pivot column 1; the vector of free column 0 then ends
    # past it, and the second round finds the pivot column 0
    vars = ("x", "y")
    one = MultiPoly.constant(vars, 1)
    m = PolyMatrix([[vanishing_at_probes(vars, "y"), one, one]])
    assert linalg._probe(m) == ([0], [1])
    assert solve_nullspace(m) == nullspace_rational(m)


def test_nullspace_raises_when_every_probe_reads_too_low(monkeypatch):
    # a probe that reads rank 0 at every round: each unit vector fails a row
    rounds = []

    def probe(m, round=0):
        rounds.append(round)
        return [], []

    monkeypatch.setattr(linalg, "_probe", probe)
    with pytest.raises(ArithmeticError, match="rounds of rank probes"):
        solve_nullspace(poly_matrix((), [[1, 2], [2, 4]]))
    assert rounds == list(range(linalg._PROBE_ROUNDS))


def test_nullspace_three_variables_without_rational_arithmetic():
    # back-substitution in reduced-quotient arithmetic ran for minutes here
    text = (
        "x*y^2*z^2 | -5*x^2*z - 3/2*x^2 + 2*y | 3/2*z"
        " | 1/3*x^2*y^2*z - 5/3*y^2 - 3*y*z | -2*y*z^2 - 4*z^2;"
        " -3*y*z | 0 | -4/3*x^2*y^2*z - x*z^2 | -y*z^2 + 2/3*z^2 + 5/3*y"
        " | -5*x^2*y + z + 3/2;"
        " 0 | -4*x^2*y^2*z - 3*x^2*y*z^2 - 1/3*x*y | 2*x*z^2"
        " | -5/2*x*y*z^2 | 0;"
        " x^2 + 4*x*z | 0 | -2*x*y^2*z - 5*x*y*z^2"
        " | -5/3*y^2*z - x*y - 4/3*x*z | -2/3*x*y*z^2 + 5/2*z")
    vars = ("x", "y", "z")
    m = PolyMatrix([[parse_rational(e, vars).expand() for e in row.split("|")]
                    for row in text.split(";")])
    basis = solve_nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m.entries:
        assert sum((e * p for e, p in zip(row, v)), MultiPoly.zero(vars)).is_zero()


def test_permanent_bound_simple():
    # [[x, x^2], [x^3, 1]] w.r.t. x -> 5
    vars = ("x",)
    x = MultiPoly.variable(vars, "x")
    one = MultiPoly.constant(vars, 1)
    m = PolyMatrix([[x, x * x], [x * x * x, one]])
    assert degree_bounds(m) == {"x": 5}
    d = det_symbolic(m)  # x - x^5
    assert d.degree("x") == 5


def test_permanent_bound_identity():
    vars = ("v",)
    one = MultiPoly.constant(vars, 1)
    zero = MultiPoly.zero(vars)
    m = PolyMatrix([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    assert degree_bounds(m) == {"v": 0}


def test_permanent_bound_structural_zero():
    vars = ("v",)
    v = MultiPoly.variable(vars, "v")
    zero = MultiPoly.zero(vars)
    m = PolyMatrix([[v, v], [zero, zero]])
    assert degree_bounds(m) is None


def _random_matrix(rng, vars, size=3, nterms=3, maxexp=2, coef=4):
    return PolyMatrix([[MultiPoly.from_terms(
        vars, [(tuple(rng.randint(0, maxexp) for _ in vars),
                rng.randint(-coef, coef)) for _ in range(nterms)])
        for _ in range(size)] for _ in range(size)])


def test_permanent_bound_dominates_det_degree():
    # 100 random 3x3 two-variable matrices: bound >= true degree per variable
    rng = random.Random(42)
    for _ in range(100):
        m = _random_matrix(rng, ("x", "y"))
        d = det_symbolic(m)
        bounds = degree_bounds(m)
        if bounds is None:
            assert d.is_zero()
        else:
            assert all(bounds[v] >= d.degree(v) for v in ("x", "y"))


def test_permanent_bound_rectangular_bounds_every_maximal_minor():
    rng = random.Random(8)
    vars = ("x", "y")
    for _ in range(30):
        rows = _random_matrix(rng, vars, size=3).entries
        m = PolyMatrix([row[:2] for row in rows])  # 3x2
        minors = [det_symbolic(PolyMatrix([m.entries[i], m.entries[j]]))
                  for i, j in ((0, 1), (0, 2), (1, 2))]
        bounds = degree_bounds(m)
        if bounds is None:
            assert all(d.is_zero() for d in minors)
        else:
            assert all(bounds[v] >= d.degree(v) for v in vars for d in minors)


def test_grid_soundness_kernel_small():
    # det vanishes on a full tensor grid with d_v+1 points per variable
    # iff the symbolic determinant is zero
    rng = random.Random(5)
    vars = ("x", "y")
    checked_zero = checked_nonzero = 0
    while checked_zero < 5 or checked_nonzero < 5:
        m = _random_matrix(rng, vars, size=2, nterms=2, maxexp=1, coef=2)
        d = det_symbolic(m)
        bounds = degree_bounds(m)
        if bounds is None:
            assert d.is_zero()
            continue
        xs = range(-(bounds["x"] // 2), -(bounds["x"] // 2) + bounds["x"] + 1)
        ys = range(-(bounds["y"] // 2), -(bounds["y"] // 2) + bounds["y"] + 1)
        all_zero = all(
            det_at_point(m, {"x": xv, "y": yv}) == 0 for xv in xs for yv in ys)
        assert all_zero == d.is_zero()
        if d.is_zero():
            checked_zero += 1
        else:
            checked_nonzero += 1


# -- property test of the integer Newton interpolation -------------------------


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(-10**12, 10**12), max_size=12))
def test_interpolate_int_matches_fraction_newton(values):
    # integer coefficients of s f, s = (len-1)!, for the f of the Fraction
    # Newton form
    coeffs = _interpolate_scaled(values)
    s = factorial(max(len(values) - 1, 0))
    assert all(type(c) is int for c in coeffs)
    assert [Fraction(c, s) for c in coeffs] == interpolate_reference(values)
    for t, v in enumerate(values):
        assert sum(c * t ** d for d, c in enumerate(coeffs)) == s * v


# -- property tests of the fraction-free elimination kernel ---------------

# small entries with many zeros, so singular matrices and row swaps are common
small_ints = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 5, 12])


@st.composite
def int_matrices(draw, square):
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(small_ints, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    # zero leading columns, and a zero in the first row under the first
    # pivot column, so the kernel has to skip columns and swap rows
    lead = draw(st.integers(0, cols - 1))
    for row in a:
        row[:lead] = [0] * lead
    if draw(st.booleans()):
        a[0][lead] = 0
    return a


def ref_rank_pivots(a):
    """Gaussian elimination over Fraction with the kernel's pivot rule (first
    nonzero row at or below the current one); returns (rank, pivot rows)."""
    a = [[Fraction(x) for x in row] for row in a]
    order = list(range(len(a)))
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        order[r], order[piv] = order[piv], order[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r, sorted(order[:r])


@settings(deadline=None, max_examples=300)
@given(int_matrices(square=True))
def test_int_kernel_det_matches_cofactor_expansion(a):
    expected = det_symbolic(poly_matrix((), a)).eval({})
    assert _int_det([list(row) for row in a]) == expected


@settings(deadline=None, max_examples=300)
@given(int_matrices(square=False))
def test_int_kernel_rank_and_pivot_rows_match_fraction_reference(a):
    rank, pivots = ref_rank_pivots(a)
    order = list(range(len(a)))
    assert _int_rank([list(row) for row in a], order) == rank
    assert sorted(order[:rank]) == pivots
    assert _int_rank([list(row) for row in a]) == rank


@st.composite
def cofactor_cases(draw):
    """r x (r+1) integer matrices, r from 1 to 7: random, with a row that is
    a multiple of another (rank < r), or with a column before the last that
    is a multiple of an earlier one or zero (a free column not the last)."""
    r = draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(small_ints, min_size=r + 1, max_size=r + 1),
                      min_size=r, max_size=r))
    kind = draw(st.sampled_from(("random", "row", "column")))
    if kind == "row" and r > 1:
        i, j = draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2,
                             unique=True))
        a[i] = [draw(small_ints) * x for x in a[j]]
    elif kind == "column":
        j = draw(st.integers(0, r - 1))
        f, src = draw(small_ints), draw(st.integers(0, j))
        for row in a:
            row[j] = f * row[src] if src < j else 0
    return a


@settings(deadline=None, max_examples=300)
@given(cofactor_cases())
def test_cofactor_vector_matches_minors(a):
    expected = [(-1) ** j * _int_det([row[:j] + row[j + 1:] for row in a])
                for j in range(len(a) + 1)]
    vec = _cofactor_vector([list(row) for row in a])
    assert vec == expected
    assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a)


def test_int_kernel_rejects_inexact_step():
    # integer input always divides exactly; a non-integer entry is the only
    # way to reach a Bareiss step with a remainder
    with pytest.raises(ArithmeticError, match="inexact fraction-free step"):
        _int_rank([[1, Fraction(1, 2)], [1, 0]])


fraction_entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(fraction_entries, min_size=n, max_size=n), min_size=n, max_size=n)),
    fraction_entries)
def test_det_at_point_fractions_match_symbolic(rows, x):
    # entries a + b*x with Fraction a, b, evaluated at a rational point
    vars = ("x",)
    xv = MultiPoly.variable(vars, "x")
    m = PolyMatrix([[MultiPoly.constant(vars, c) + xv.scale(c * c) for c in row]
                    for row in rows])
    assert det_at_point(m, {"x": x}) == det_symbolic(m).eval({"x": x})


@st.composite
def univariate_systems(draw):
    """Univariate matrices with 4-5 columns: corank 0 (random rows), or
    corank 1 (one column a polynomial combination of the others, at a
    random position).  Entries may be
    nonzero constants other than +-1, so that a chain of constant pivots
    with nontrivial pivots exists; row degrees may fall from the first row
    to the last, so that the rows of lowest degree are not the first ones;
    one row may carry a factor x - t, t a small node, so that the remainder
    of the chain (which never takes that row as a pivot row) loses rank at
    that node.  Some rows are scaled by 1/d so their coefficients are
    Fractions."""
    vars = ("x",)
    x = MultiPoly.variable(vars, "x")

    def poly(degree, bound):
        coeffs = draw(st.lists(st.integers(-bound, bound),
                               min_size=degree + 1, max_size=degree + 1))
        return sum((x ** i * MultiPoly.constant(vars, c)
                    for i, c in enumerate(coeffs)), MultiPoly.zero(vars))

    constants = draw(st.booleans())
    falling = draw(st.booleans())

    def row(i, size):
        degree = max(3 - i, 0) if falling else 2
        return [MultiPoly.constant(vars, draw(st.sampled_from((-4, -3, -2,
                                                                2, 3, 4))))
                if constants and draw(st.integers(0, 2)) == 0
                else poly(degree, 4) for _ in range(size)]

    cols = draw(st.integers(4, 5))
    if draw(st.booleans()):
        rows = [row(i, cols) for i in range(cols + draw(st.integers(0, 1)))]
    else:
        lam = [poly(1, 3) for _ in range(cols - 1)]
        at = draw(st.integers(0, cols - 1))
        rows = []
        for i in range(cols - 1 + draw(st.integers(0, 2))):
            r = row(i, cols - 1)
            dep = sum((c * e for c, e in zip(lam, r)), MultiPoly.zero(vars))
            rows.append(r[:at] + [dep] + r[at:])
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        root = x - MultiPoly.constant(vars, draw(st.integers(0, 3)))
        rows[i] = [root * e for e in rows[i]]
    dens = st.sampled_from((1, 1, 2, 3, 6))
    return PolyMatrix([[e.scale(Fraction(1, d)) for e in row]
                       for row, d in zip(rows, [draw(dens) for _ in rows])])


@settings(deadline=None, max_examples=150)
@given(univariate_systems())
def test_nullspace_univar_matches_elimination(m):
    basis = typed_basis(solve_nullspace(m))
    assert basis == typed_basis(nullspace_rational(m))
    old = nullspace_univar_reference(m)
    if old is not None:
        assert basis == typed_basis(old)


@st.composite
def dense_vectors(draw):
    """1-4 ascending integer coefficient lists, not all zero, times a
    planted common factor of degree 0-2 and an integer content."""
    vars = ("x",)
    coeffs = st.lists(st.integers(-6, 6), max_size=4)
    factor = _from_dense(draw(coeffs.filter(any)), vars)
    content = draw(st.sampled_from((1, -1, 2, 6, -35)))
    polys = [_from_dense(draw(coeffs), vars).scale(content) * factor
             for _ in range(draw(st.integers(1, 4)))]
    assume(any(polys))
    return [[p.terms.get((d,), 0) for d in range(p.degree("x") + 1)]
            if p else [] for p in polys]


@settings(deadline=None, max_examples=200)
@given(dense_vectors())
@example([[1, 1], [2], [0, 1]])  # gcd(x + 1, 2 + 2x) divides no [2]
def test_primitive_vector_matches_clear_and_primitive(vec):
    vars = ("x",)
    got = [_from_dense(p, vars) for p in _primitive_vector(vec, vars)]
    want = clear_and_primitive([_from_dense(p, vars) for p in vec])
    assert [sorted((e, type(c), c) for e, c in p.terms.items())
            for p in got] == \
        [sorted((e, type(c), c) for e, c in p.terms.items()) for p in want]


def _identity(name, summand, rhs, lower, upper):
    return (f"name: {name}\nsummand: {summand}\nrhs: {rhs}\nsum_var: k\n"
            f"rec_var: n\nlower: {lower}\nupper: {upper}\n")


# specializations of the parametric corpus entries, as the benchmark draws
# them: mrr at x = a/7, z = b/11, dixon at (a, b), chu-vandermonde at a
SPECIALIZATIONS = [
    _identity("mrr-x-2o7-z6o11",
              "rf(-2*n-1,k)*rf(2*n+12/7,k)*rf(-51/154,k)*rf(n+5/7,k)"
              "*rf(n+17/11,k)/(rf(5/14,k)*rf(6/7,k)*rf(2*n+34/11,k)"
              "*rf(-51/77,k)*k!)", "0", "0", "2*n+1"),
    _identity("mrr-x3o7-z2o11",
              "rf(-2*n-1,k)*rf(2*n+17/7,k)*rf(115/154,k)*rf(n+10/7,k)"
              "*rf(n+13/11,k)/(rf(5/7,k)*rf(17/14,k)*rf(2*n+26/11,k)"
              "*rf(115/77,k)*k!)", "0", "0", "2*n+1"),
    _identity("dixon-a2-b3",
              "(-1)^k*binomial(5,2+k)*binomial(2+n,n+k)*binomial(3+n,3+k)",
              "(5+n)!/2!/3!/n!", "-n", "n"),
    _identity("chu-vandermonde-a5", "binomial(n,k)*binomial(5,k)",
              "binomial(5+n,5)", "0", "n"),
]


def test_nullspace_matches_the_references_on_the_proofs(tmp_path):
    # every system the telescope route solves while proving the corpus and
    # the specializations, coordinate for coordinate against the old paths:
    # the univariate one (pivot rows in file order, a full elimination per
    # node) where it gave a vector, else elimination over the
    # rational-function field
    systems = []

    def record(m):
        systems.append(m)
        return solve_nullspace(m)

    paths = sorted((Path(__file__).resolve().parent.parent / "corpus")
                   .glob("*.txt"))
    for i, text in enumerate(SPECIALIZATIONS):
        paths.append(tmp_path / f"s{i}.txt")
        paths[-1].write_text(text)
    with mock.patch.object(telescope, "solve_nullspace", record):
        for path in paths:
            run_prove(load_identity(path), Fraction(1, 10), 0, 4, 1)
    assert {(m.rows, m.cols) for m in systems} >= {(7, 6), (3, 4), (9, 9)}
    assert {len(m.vars) for m in systems} >= {1, 2, 3}
    chained = 0
    for m in systems:
        basis = typed_basis(solve_nullspace(m))
        old = nullspace_univar_reference(m) if len(m.vars) == 1 else None
        assert basis == typed_basis(nullspace_rational(m) if old is None
                                    else old)
        if basis and len(m.vars) == 1:
            chained += bool(_constant_pivots(_integer_cleared(m)).steps)
    assert chained


# -- the max-weight assignment ------------------------------------------------

def assignment_outcome(fn, degs):
    try:
        return fn(degs)
    except ValueError as exc:
        return ValueError, str(exc)


@st.composite
def assignment_weights(draw):
    """Up to 7 columns and up to 3 more rows (or one fewer, an error), each
    weight -1 (forbidden) with probability about one third, 0 as often (so
    a forbidden entry often ties with a valid one), else 0..30; some rows
    or columns forbidden throughout, so that no assignment exists."""
    cols = draw(st.integers(1, 7))
    rows = draw(st.integers(max(cols - 1, 1), cols + 3))
    weight = st.one_of(st.just(-1), st.just(0), st.integers(0, 30))
    degs = draw(st.lists(st.lists(weight, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        degs[i] = [-1] * cols
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in degs:
            row[j] = -1
    return degs


@settings(deadline=None, max_examples=600)
@given(assignment_weights())
@example([[-1], [0]])
def test_max_assignment_matches_the_bitmask_dp(degs):
    assert assignment_outcome(_max_assignment, degs) == \
        assignment_outcome(max_assignment_reference, degs)


def test_max_assignment_dense_21_by_20_within_5_s():
    # weights (a+1)(b+1) with rows and columns shuffled: by the
    # rearrangement inequality the optimum pairs rows 2..21 with columns
    # 1..20 in order, sum (j+1)j = 3080.  A DP over column subsets takes
    # minutes here.
    rng = random.Random(21)
    a, b = list(range(21)), list(range(20))
    rng.shuffle(a)
    rng.shuffle(b)
    degs = [[(i + 1) * (j + 1) for j in b] for i in a]

    def expire(signum, frame):
        raise TimeoutError("_max_assignment took more than 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        best = _max_assignment(degs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert best == sum((j + 1) * j for j in range(1, 21))


# -- leading-coefficient minors on the pivot chain ---------------------------

def assert_minors_match_int_det(m, var, points, cols):
    """_univar_minors against _int_det of the MultiPoly.eval matrix times
    bound!, sign included, at every interpolation node and two beyond each
    end."""
    bound = max_assignment_reference([[row[j].degree(var) for j in cols]
                                      for row in m.entries]) or 0
    for point, coeffs in zip(points, _univar_minors(m, var, points, cols)):
        assert all(type(c) is int for c in coeffs)
        for x in range(-2, bound + 3):
            a = [[row[j].eval({**point, var: x}) for j in cols]
                 for row in m.entries]
            assert sum(c * x ** d for d, c in enumerate(coeffs)) == \
                factorial(bound) * _int_det(a), (point, x)


def univar_pivot_case(rng, size, constants, zeros=()):
    """A size x size matrix over (y, n), integer entries of degree at most
    1 in each variable; the entries at the positions in constants are
    nonzero constants in +-(2..4), those at zeros (and not in constants)
    zero, and every other entry is nonconstant."""
    vars = ("y", "n")
    y, n = (MultiPoly.variable(vars, v) for v in vars)
    one = MultiPoly.constant(vars, 1)

    def entry(i, j):
        if (i, j) in constants:
            return one.scale(rng.choice((-4, -3, -2, 2, 3, 4)))
        if (i, j) in zeros:
            return MultiPoly.zero(vars)
        return (y.scale(rng.randint(-3, 3))
                + n.scale(rng.choice((-2, -1, 1, 2)))
                + one.scale(rng.randint(-5, 5)))

    return PolyMatrix([[entry(i, j) for j in range(size)]
                       for i in range(size)])


def minors_evaluator(m, cols):
    sub = PolyMatrix([[row[j] for j in cols] for row in m.entries])
    chain = _constant_pivots(sub)
    return chain, _GridEvaluator(sub, {v: [0] for v in sub.vars}, chain)


def test_univar_minors_of_mrr_on_its_pivot_chain(monkeypatch):
    # the minor leading_coeff_check interpolates for mrr at order 2
    calls = []
    real = gridproof._univar_minors

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gridproof, "_univar_minors", record)
    mrr = Path(__file__).resolve().parent.parent / "corpus" / "mrr.txt"
    rep = run_prove(load_identity(mrr), Fraction(1, 10), 1, 4, 1)
    assert rep.verdict == "semi-rigorous" and len(calls) == 1
    m, var, points, cols = calls[0]
    chain, evaluator = minors_evaluator(m, cols)
    assert chain.steps and evaluator.determinant
    assert_minors_match_int_det(m, var, points, cols)


def test_univar_minors_without_constant_entries():
    rng = random.Random(4)
    m = univar_pivot_case(rng, 4, ())
    chain, evaluator = minors_evaluator(m, range(4))
    assert not chain.steps and evaluator.determinant
    assert_minors_match_int_det(m, "n", [{"y": -3}, {"y": 2}, {"y": 7}],
                                list(range(4)))


def test_univar_minors_with_a_remainder_wider_than_the_expansion():
    # one constant pivot with eight targets leaves an 8 x 8 remainder, which
    # the kernel reads out for _int_det
    rng = random.Random(9)
    m = univar_pivot_case(rng, _DET_WIDTH + 2, {(4, 6)})
    chain, evaluator = minors_evaluator(m, range(_DET_WIDTH + 2))
    assert len(chain.steps) == 1 and len(chain.steps[0][2]) == _DET_WIDTH + 1
    assert not evaluator.determinant
    assert_minors_match_int_det(m, "n", [{"y": 5}, {"y": -1}],
                                list(range(_DET_WIDTH + 2)))


def test_univar_minors_on_random_pivot_chains():
    # constant diagonals over mostly zero lower triangles, rows and columns
    # shuffled: chains of up to five steps with up to a dozen targets in
    # scattered rows and columns, so both permutation signs and the powers
    # of the pivots matter
    rng = random.Random(17)
    shapes = []
    for _ in range(60):
        size = rng.randint(2, 7)
        rp, cp = rng.sample(range(size), size), rng.sample(range(size), size)
        constants = {(rp[i], cp[i]) for i in range(size) if rng.random() < 0.8}
        zeros = {(rp[i], cp[j]) for i in range(size) for j in range(i)
                 if rng.random() < 0.7}
        m = univar_pivot_case(rng, size, constants, zeros)
        cols = rng.sample(range(size), size)
        steps = minors_evaluator(m, cols)[0].steps
        shapes.append((len(steps), sum(len(t) for _, _, t, _ in steps)))
        assert_minors_match_int_det(m, "n", [{"y": rng.randint(-9, 9)}],
                                    cols)
    assert max(shapes) >= (4, 10)
