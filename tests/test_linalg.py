import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperproof.polys import MultiPoly, RationalFunction
from hyperproof.linalg import (
    PolyMatrix, _interpolate_int, det_at_point, det_symbolic,
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
