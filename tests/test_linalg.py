import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hyperproof import linalg
from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.linalg import (
    PolyMatrix, _int_rank, _interpolate_int, _nullspace_univar,
    _permutation_sign, _poly_eliminate, det_at_point, det_symbolic,
    permanent_degree_bound, solve_nullspace,
)


def test_det_at_point_constant():
    m = PolyMatrix.from_rows((), [[1, 2], [3, 4]])
    assert det_at_point(m, {}) == -2


def test_det_at_point_rank_one_symbolic():
    vars = ("n", "a")
    n = MultiPoly.variable(vars, "n")
    a = MultiPoly.variable(vars, "a")
    m = PolyMatrix([[n, a], [n * n, n * a]])
    assert det_at_point(m, {"n": 7, "a": 3}) == 0


def test_det_at_point_fractions():
    m = PolyMatrix.from_rows(
        (), [[1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]])
    assert det_at_point(m, {}) == Fraction(1, 12)


def test_det_at_point_non_square():
    m = PolyMatrix.from_rows((), [[1, 2]])
    with pytest.raises(ValueError):
        det_at_point(m, {})


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
    m = PolyMatrix.from_rows((), [[1, 1], [2, 2]])
    basis = solve_nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    assert [e.num.as_constant() for e in v] == [1, -1]


def test_nullspace_symbolic():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n, MultiPoly.constant(vars, 1)], [n * n, n]])
    basis = solve_nullspace(m)
    assert len(basis) == 1
    v = basis[0]
    # normalized to (1, -n)
    assert v[0] == RationalFunction.constant(vars, 1)
    assert v[1] == RationalFunction.from_poly(-n)


def test_nullspace_full_rank():
    m = PolyMatrix.from_rows((), [[1, 0], [0, 1]])
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
                s = RationalFunction.constant(vars, 0)
                for e, x in zip(row, v):
                    s = s + RationalFunction.from_poly(e) * x
                assert s.is_zero()


def test_permanent_bound_simple():
    # [[x, x^2], [x^3, 1]] w.r.t. x -> 5
    vars = ("x",)
    x = MultiPoly.variable(vars, "x")
    one = MultiPoly.constant(vars, 1)
    m = PolyMatrix([[x, x * x], [x * x * x, one]])
    r = permanent_degree_bound(m, "x")
    assert r.degree == 5 and not r.structurally_zero
    d = det_symbolic(m)  # x - x^5
    assert d.degree("x") == 5


def test_permanent_bound_identity():
    vars = ("v",)
    one = MultiPoly.constant(vars, 1)
    zero = MultiPoly.zero(vars)
    m = PolyMatrix([[one, zero, zero], [zero, one, zero], [zero, zero, one]])
    r = permanent_degree_bound(m, "v")
    assert r.degree == 0 and not r.structurally_zero


def test_permanent_bound_structural_zero():
    vars = ("v",)
    v = MultiPoly.variable(vars, "v")
    zero = MultiPoly.zero(vars)
    m = PolyMatrix([[v, v], [zero, zero]])
    r = permanent_degree_bound(m, "v")
    assert r.structurally_zero and r.degree == 0


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
        for v in ("x", "y"):
            r = permanent_degree_bound(m, v)
            if r.structurally_zero:
                assert d.is_zero()
            else:
                assert r.degree >= d.degree(v)


def test_permanent_bound_rectangular_bounds_every_maximal_minor():
    rng = random.Random(8)
    vars = ("x", "y")
    for _ in range(30):
        rows = _random_matrix(rng, vars, size=3).entries
        m = PolyMatrix([row[:2] for row in rows])  # 3x2
        minors = [det_symbolic(PolyMatrix([m.entries[i], m.entries[j]]))
                  for i, j in ((0, 1), (0, 2), (1, 2))]
        for v in vars:
            r = permanent_degree_bound(m, v)
            if r.structurally_zero:
                assert all(d.is_zero() for d in minors)
            else:
                assert all(r.degree >= d.degree(v) for d in minors)


def test_grid_soundness_kernel_small():
    # det vanishes on a full tensor grid with d_v+1 points per variable
    # iff the symbolic determinant is zero
    rng = random.Random(5)
    vars = ("x", "y")
    checked_zero = checked_nonzero = 0
    while checked_zero < 5 or checked_nonzero < 5:
        m = _random_matrix(rng, vars, size=2, nterms=2, maxexp=1, coef=2)
        d = det_symbolic(m)
        bounds = {}
        ok = True
        for v in vars:
            r = permanent_degree_bound(m, v)
            if r.structurally_zero:
                ok = False
                break
            bounds[v] = r.degree
        if not ok:
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


def ref_interpolate(values):
    """Newton divided differences over Fraction (reference only)."""
    n = len(values)
    dd = [Fraction(v) for v in values]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / level
    acc = [Fraction(0)] * n
    for m in range(n - 1, -1, -1):
        shifted = [Fraction(0)] * n
        for i in range(n - 1):
            if acc[i]:
                shifted[i + 1] += acc[i]
                shifted[i] -= acc[i] * m
        shifted[0] += dd[m]
        acc = shifted
    return acc


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(-10**12, 10**12), max_size=12))
def test_interpolate_int_matches_fraction_newton(values):
    coeffs = _interpolate_int(values)
    assert coeffs == ref_interpolate(values)
    assert all(type(c) is Fraction for c in coeffs)
    for t, v in enumerate(values):
        assert sum(c * t ** d for d, c in enumerate(coeffs)) == v


# -- property tests of the two fraction-free elimination kernels ---------------

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


def kernel_det(a):
    """Determinant through the integer kernel, as its callers compute it."""
    order = list(range(len(a)))
    if _int_rank(a, order) < len(a):
        return 0
    return _permutation_sign(order) * a[-1][-1]


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
    expected = det_symbolic(PolyMatrix.from_rows((), a)).eval({})
    assert kernel_det([list(row) for row in a]) == expected


@settings(deadline=None, max_examples=300)
@given(int_matrices(square=False))
def test_int_kernel_rank_and_pivot_rows_match_fraction_reference(a):
    rank, pivots = ref_rank_pivots(a)
    order = list(range(len(a)))
    assert _int_rank([list(row) for row in a], order) == rank
    assert sorted(order[:rank]) == pivots
    assert _int_rank([list(row) for row in a]) == rank


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
def poly_matrices(draw):
    vars = ("x", "y")[:draw(st.integers(1, 2))]
    size = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    terms = st.lists(st.tuples(exps, st.integers(-3, 3)), max_size=2)
    return PolyMatrix([[MultiPoly.from_terms(vars, draw(terms))
                        for _ in range(size)] for _ in range(size)])


@settings(deadline=None, max_examples=150)
@given(poly_matrices())
def test_poly_kernel_det_matches_cofactor_expansion(m):
    a = [list(row) for row in m.entries]
    pivots, sign = _poly_eliminate(a)
    det = a[-1][-1].scale(sign) if len(pivots) == m.rows else MultiPoly.zero(m.vars)
    assert det == det_symbolic(m)
    assert [r for r, _ in pivots] == list(range(len(pivots)))


@st.composite
def univariate_systems(draw):
    """Univariate matrices with 4-5 columns, as solve_nullspace's shortcut
    takes them: corank 0 (random rows), or corank 1 (one column a polynomial
    combination of the others, at a random position); some rows are scaled
    by 1/d so their coefficients are Fractions."""
    vars = ("x",)
    x = MultiPoly.variable(vars, "x")

    def poly(degree, bound):
        coeffs = draw(st.lists(st.integers(-bound, bound),
                               min_size=degree + 1, max_size=degree + 1))
        return sum((x ** i * MultiPoly.constant(vars, c)
                    for i, c in enumerate(coeffs)), MultiPoly.zero(vars))

    cols = draw(st.integers(4, 5))
    if draw(st.booleans()):
        rows = [[poly(2, 4) for _ in range(cols)]
                for _ in range(cols + draw(st.integers(0, 1)))]
    else:
        lam = [poly(1, 3) for _ in range(cols - 1)]
        at = draw(st.integers(0, cols - 1))
        rows = []
        for _ in range(cols - 1 + draw(st.integers(0, 2))):
            row = [poly(2, 4) for _ in range(cols - 1)]
            dep = sum((c * e for c, e in zip(lam, row)), MultiPoly.zero(vars))
            rows.append(row[:at] + [dep] + row[at:])
    dens = st.sampled_from((1, 1, 2, 3, 6))
    return PolyMatrix([[e.scale(Fraction(1, d)) for e in row]
                       for row, d in zip(rows, [draw(dens) for _ in rows])])


@settings(deadline=None, max_examples=100)
@given(univariate_systems())
def test_nullspace_univar_matches_elimination(m):
    with mock.patch.object(linalg, "_nullspace_univar", lambda m: None):
        expected = solve_nullspace(m)
    fast = _nullspace_univar(m)
    if len(expected) <= 1:
        assert fast == expected
    else:
        assert fast is None
