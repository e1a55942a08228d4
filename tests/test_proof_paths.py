"""Cross-validation between the grid route and the symbolic route, plus
concurrency and monotonicity properties of the vanishing test."""

from fractions import Fraction
from pathlib import Path

import pytest

from hyperproof import gridproof, telescope
from hyperproof.cli import load_identity, run_prove
from hyperproof.gridproof import (
    _leading_root_bound, _rank_deficiency_test, _support_bounds,
    normalize_and_delta, prove,
)
from hyperproof.linalg import PolyMatrix, solve_nullspace
from hyperproof.polys import MultiPoly
from hyperproof.terms import TermError
from hyperproof.telescope import assemble, solve_order

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _nid(name):
    ident = load_identity(CORPUS / name)
    F, rhs_terms, lower, upper = ident.parsed()
    return normalize_and_delta(F, rhs_terms, ident.params,
                               ident.sum_var, ident.rec_var, lower, upper), ident


def test_chu_determinant_path_matches_symbolic():
    # with the WZ shortcut disabled, the grid route still proves the identity,
    # and the accepted system indeed has a nontrivial symbolic nullspace
    nid, ident = _nid("chu-vandermonde.txt")
    F, rhs_terms, lower, upper = ident.parsed()
    rep = prove(F, rhs_terms, "k", "n", lower, upper, ident.params,
                fast_path=False)
    assert rep.verdict == "rigorous"
    assert rep.method == "determinant-grid"
    sys = assemble(nid.delta_term, rep.order, k=nid.k, n=nid.n)
    m = sys.matrix
    if m.rows >= m.cols:
        basis = solve_nullspace(m)
        assert basis, "grid pass must match a nontrivial symbolic nullspace"
        for vec in basis:
            for row in m.entries:
                s = None
                for e, x in zip(row, vec):
                    term = x * e
                    s = term if s is None else s + term
                assert s.is_zero()
    # the symbolic route agrees on solvability of the differenced summand
    assert solve_order(sys) is not None


def test_dixon_determinant_path():
    nid, ident = _nid("dixon.txt")
    F, rhs_terms, lower, upper = ident.parsed()
    rep = prove(F, rhs_terms, "k", "n", lower, upper, ident.params,
                fast_path=False)
    assert rep.verdict == "rigorous"
    assert rep.method == "determinant-grid"
    assert rep.order <= 3


@pytest.mark.parametrize("name", ["chu-vandermonde.txt", "dixon.txt"])
def test_leading_root_bound_covers_the_symbolic_telescoper(name):
    # the root bound from the order-J cofactors is at least that of the
    # telescoper the symbolic solve finds up to the same order
    nid, ident = _nid(name)
    F, rhs_terms, lower, upper = ident.parsed()
    rep = prove(F, rhs_terms, "k", "n", lower, upper, ident.params,
                fast_path=False)
    assert rep.method == "determinant-grid"
    rec, _ = solve_order(assemble(nid.delta_term, rep.order, k=nid.k,
                                  n=nid.n))
    symbolic = _leading_root_bound(rec, "n")
    grid = rep.leading_root_bound
    assert (grid if grid is not None else 0) >= \
        (symbolic if symbolic is not None else 0)


def test_vanishing_monotone_in_certainty():
    # a sampled subset of a passing grid always passes, any seed
    vars = ("n", "a")
    n = MultiPoly.variable(vars, "n")
    a = MultiPoly.variable(vars, "a")
    m = PolyMatrix([[n * a, a], [n * a * n, n * a]])  # singular
    full = _rank_deficiency_test(m, Fraction(1), seed=0)
    assert full.passed
    for certainty in (Fraction(1, 2), Fraction(1, 10)):
        for seed in (0, 1, 99):
            res = _rank_deficiency_test(m, certainty, seed)
            assert res.passed
            assert res.grid_total == full.grid_total


def test_parallel_scan_matches_sequential():
    vars = ("n", "a")
    n = MultiPoly.variable(vars, "n")
    a = MultiPoly.variable(vars, "a")
    # singular, with degree bounds large enough to trigger the pool path
    m = PolyMatrix([[(n ** 9) * (a ** 8), n ** 9], [(n ** 9) * (a ** 16), n ** 9 * (a ** 8)]])
    seq = _rank_deficiency_test(m, Fraction(1), 0, jobs=1)
    par = _rank_deficiency_test(m, Fraction(1), 0, jobs=4)
    assert seq == par and seq.passed
    assert seq.grid_total > 256  # past the serial head of the parallel scan
    # and a witness case reports the grid-order-first point either way
    one = MultiPoly.constant(vars, 1)
    m2 = PolyMatrix([[(n ** 9) * (a ** 9), one.scale(0)], [one.scale(0), one]])
    s2 = _rank_deficiency_test(m2, Fraction(1), 0, jobs=1)
    p2 = _rank_deficiency_test(m2, Fraction(1), 0, jobs=3)
    assert s2 == p2 and not s2.passed


def test_mrr_system_shapes():
    # the two-parameter system: unknowns (J+1)+(K+1); square at the accepted
    # order, underdetermined (trivially solvable) one order higher
    nid, _ = _nid("mrr.txt")
    sys2 = assemble(nid.delta_term, 2, k=nid.k, n=nid.n)
    m2 = sys2.matrix
    assert m2.rows == m2.cols == (2 + 1) + (sys2.ansatz.degree + 1) == 9
    assert m2.vars == ("n", "x", "z")
    sys3 = assemble(nid.delta_term, 3, k=nid.k, n=nid.n)
    assert sys3.matrix.rows < sys3.matrix.cols
    # per-variable bounds exist and the grid box sizes are bound+1
    bounds = _support_bounds(m2)
    assert all(bounds[1 << i] > 0 for i in range(len(m2.vars)))


def test_permanent_bound_non_square_errors():
    vars = ("n",)
    n = MultiPoly.variable(vars, "n")
    m = PolyMatrix([[n, n]])
    with pytest.raises(ValueError):
        _support_bounds(m)


def test_mrr_statement_is_numerically_true():
    # ground truth for the corpus entry: the sum vanishes exactly at integer
    # parameter points (x, z) where every factor is defined
    ident = load_identity(CORPUS / "mrr.txt")
    F, _, lower, upper = ident.parsed()
    from fractions import Fraction as Q
    from hyperproof.terms import term_value
    for xv, zv in ((1, 1), (2, 1), (3, 2), (5, 3)):
        for nv in range(0, 5):
            lo = int(lower.eval({"n": nv}))
            hi = int(upper.eval({"n": nv}))
            total = Q(0)
            for kv in range(lo, hi + 1):
                total += term_value(F, {"k": kv, "n": nv, "x": Q(xv),
                                        "z": Q(zv)}, True)
            assert total == 0, (xv, zv, nv)


def test_seed_changes_sample_not_verdict():
    ident = load_identity(CORPUS / "mrr.txt")
    reports = [run_prove(ident, Fraction(1, 50), seed, 6, 1)
               for seed in (1, 2)]
    assert all(r.verdict == "semi-rigorous" for r in reports)
    assert reports[0].grid_total == reports[1].grid_total
    assert reports[0].grid_tested == reports[1].grid_tested


def _recording(fn, log):
    def wrapper(*args, **kwargs):
        log.append(args[1])
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("name, method, orders", [
    ("mrr-specialized.txt", "telescope", [0, 1]),
    ("chu-vandermonde.txt", "gosper-wz", [0]),
])
def test_each_order_is_assembled_and_verified_once(monkeypatch, name, method,
                                                   orders):
    # one loop over the orders: order 0 is Gosper/WZ, and a parameter-free
    # identity goes on to order 1 without assembling order 0 again; the one
    # published certificate is verified once
    assembled, verified = [], []
    for mod in (gridproof, telescope):
        for attr, log in (("assemble", assembled),
                          ("verify_certificate", verified)):
            if hasattr(mod, attr):
                monkeypatch.setattr(mod, attr,
                                    _recording(getattr(mod, attr), log))
    rep = run_prove(load_identity(CORPUS / name), Fraction(1), 0, 6, 1)
    assert (rep.verdict, rep.method) == ("rigorous", method)
    assert assembled == orders
    assert len(verified) == 1


@pytest.mark.parametrize("name, verdict, method", [
    ("chu-vandermonde.txt", "rigorous", "determinant-grid"),
    ("binomial-2n.txt", "inconclusive", ""),
])
def test_term_error_at_order_zero(monkeypatch, name, verdict, method):
    # a parametric identity falls through to the grid, a parameter-free one
    # has no other route and ends inconclusive with the error's text
    original = gridproof.assemble

    def fails_at_zero(f, J, **kwargs):
        if J == 0:
            raise TermError("cannot shift at order 0")
        return original(f, J, **kwargs)

    monkeypatch.setattr(gridproof, "assemble", fails_at_zero)
    rep = run_prove(load_identity(CORPUS / name), Fraction(1), 0, 6, 1)
    assert (rep.verdict, rep.method) == (verdict, method)
    if verdict == "inconclusive":
        assert rep.message == "cannot shift at order 0"
