"""Proof orchestration for definite hypergeometric identities.

Normalizes sum F = RHS to sum Fhat = 1 and differences it (dropping the
recurrence order by one), then proves existence of a telescoping recurrence
without solving the symbolic system.  telescope.assemble builds the system
matrix M' with each column divided by its k-free content, read off the
factored system; M' is square (or handled by rank on maximal minors), and
its determinant is a polynomial whose support lies in a lower
(down-closed) set S of exponents.  For every weight w in {0,1}^r, w.e is at
most the max-weight assignment h(w) on the entry weights; the unit weights
give a degree bound per variable, so S lies in their box.  A polynomial
with support in a lower set that vanishes on the matching subgrid of integer
points is zero (N. Dyn and M. S. Floater, "Multivariate polynomial
interpolation on lower sets", J. Approx. Theory 177, 2014), so vanishing on
those |S| points is conclusive.  Certainty < 1 tests a sampled fraction of
them.  The induction is closed by a root bound for the leading coefficient
a_J, read off the cofactors of the same order-J system M' at integer
specializations (leading_coeff_check: one minor of M' per specialization,
interpolated in n from its compiled pivot-chain kernel at integer nodes,
and each distinct factor of the column contents rooted once), and by exact
initial conditions; the bound covers the roots generic in the parameters,
so a parametric verdict holds for generic values of them.  Every exact small-n
comparison is one stage, _small_cases, called in this order: as the whole
finite check of an identity that cannot be normalized or fails the
termination guard; at integer parameter points for n <= 4, just before the
first grid scan, to refute a false identity before any grid work; and,
after a route succeeds, symbolically for the initial conditions it needs.
A symbolic sum is one of factored terms, tested for zero by
factored.sum_vanishes, which also verifies certificates: the terms over the
lcm of their denominators, the expanded numerators summed, with no gcd.

Grid points are visited in sorted box index order, the first of matrix.vars
the most significant digit, on linalg._GridEvaluator, which reuses the
substitutions of the digit prefix a point shares with the previous one.
_first_full_rank compiles its kernel, the last variable's level and the
chain of constant pivots (see linalg), once per scan in the calling
process; with jobs > 1 the children it forks rank their chunks of the grid
with that function, inherited, and report their first hit through a pipe.
Where the kernel returns a determinant (mrr's 4x4 remainder at order 2), a
nonzero one is full rank; otherwise (mrr's 4x3 at order 1) _rank_chunk
ranks the remainder's rows with the integer rank kernel _int_rank.  Each
decision is exact.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import ceil

from .factored import (
    Factored, factored_sum, integer_roots_univar, sum_vanishes,
)
from .linalg import (
    PolyMatrix, _GridEvaluator, _constant_pivots, _grid_digits,
    _grid_values, _int_rank, _integer_cleared, _lower_set, _max_assignment,
    _pivot_rows, _probe, _univar_minors, _weighted_degrees,
)
from .polys import MultiPoly, Record, _as_fraction, _poly_list_gcd, poly_gcd
from .telescope import (
    Certificate, Recurrence, ShiftQuotients, _shift_ratios, assemble,
    printed_certificate, solve_order, verify_certificate,
)
from .terms import (
    LinearForm, TermError, TermExpression, factored_value, natural_support,
    shift_quotient, term_value, zero_rules,
)


class GridProofError(Exception):
    pass


class NotNormalizable(GridProofError):
    """RHS is not a single hypergeometric term (or not hypergeometric in n)."""


class NormalizedIdentity(Record):
    """Target statement after the WZ normalization.

    rhs_is_zero false: the claim is sum_k fhat(n,k) = 1 and ftil is the
    differenced summand fhat(n+1,k) - fhat(n,k) written as fhat * (ratio - 1).
    rhs_is_zero true: the claim is sum_k fhat(n,k) = 0 and fhat is the raw
    summand, used directly.  n_ratio is fhat's shift quotient in n, a
    product (1 for a zero right side).
    """
    _fields = ("fhat", "ftil", "params", "k", "n", "lower", "upper",
               "rhs_is_zero", "n_ratio")

    @property
    def delta_term(self):
        return self.fhat if self.rhs_is_zero else self.ftil


class VanishingResult(Record):
    _fields = ("passed", "grid_total", "grid_tested", "witness")


class ProofReport(Record):
    """verdict is rigorous, semi-rigorous, refuted or inconclusive; order is
    J of the proved recurrence and degree K, the ansatz polynomial degree;
    specialization holds the parameter points of the a_J gcd."""
    _fields = ("verdict", "certainty", "seed", "method", "order", "degree",
               "grid_total", "grid_tested", "nonzero_point",
               "leading_root_bound", "initial_checks", "specialization",
               "recurrence", "certificate", "message", "timings")

    def _defaults(self):
        return dict(method="", order=None, degree=None, grid_total=0,
                    grid_tested=0, nonzero_point=None, leading_root_bound=None,
                    initial_checks=[], specialization=None, recurrence=None,
                    certificate=None, message="", timings={})


def normalize_and_delta(F: TermExpression, rhs_terms, params, k, n,
                        lower=None, upper=None) -> NormalizedIdentity:
    """Divide by the conjectured right side and difference in n.

    rhs_terms is a list of TermExpressions; zero terms are dropped first, so
    [] and [0] both mean a zero right side.  A right side that depends on k
    is an error: dividing by it would prove another statement.  A right
    side of several nonzero terms cannot be normalized.  The quotients are
    products, and rho_n - 1 is one factored_sum: no gcd runs.
    """
    rhs_terms = [t for t in rhs_terms if not t.is_zero()]
    one = Factored.one(F.symbols)
    for t in rhs_terms:
        try:
            ratio = shift_quotient(t, k)
        except TermError:
            ratio = None
        if ratio != one:
            raise GridProofError(
                f"right side depends on the summation variable {k}")
    if not rhs_terms:
        return NormalizedIdentity(F, F, tuple(params), k, n, lower, upper,
                                  True, one)
    if len(rhs_terms) > 1:
        raise NotNormalizable("right side is a sum of several terms")
    rhs = rhs_terms[0]
    try:
        shift_quotient(rhs, n)
    except TermError as exc:
        raise NotNormalizable(f"right side is not hypergeometric in {n}: {exc}")
    fhat = F.divided_by(rhs)
    rho_n = shift_quotient(fhat, n)
    ftil = fhat.with_rational(factored_sum([rho_n], [one]))
    return NormalizedIdentity(fhat, ftil, tuple(params), k, n, lower, upper,
                              False, rho_n)


# ---------------------------------------------------------------------------
# grid machinery


def _grid_point(vars, values: dict, index: int) -> dict:
    """The grid point with the given index, as {var: value} in vars order."""
    axes = [values[v] for v in vars]
    digits = _grid_digits(index, [len(axis) for axis in axes])
    return {v: axis[d] for v, axis, d in zip(vars, axes, digits)}


def _support_bounds(matrix: PolyMatrix) -> dict | None:
    """h(w) for every weight w in {0,1}^r minus 0 over matrix.vars, keyed by
    the bitmask of w (bit i for vars[i]); None when no assignment exists.

    Each entry weighs max over its support of w.e (-1 for a zero entry), all
    2^r - 1 weights in one walk over its exponents (linalg's
    _weighted_degrees), and h(w) is the max-weight assignment on those
    weights (linalg's _max_assignment, the Hungarian method).  Every
    exponent e of every maximal minor has w.e <= h(w), since its monomials
    come from assignments; the unit weight of v bounds the degree in v, as a
    permanent of leading terms would.  ValueError when matrix has fewer rows
    than columns.
    """
    axes = range(len(matrix.vars))
    tables = [[_weighted_degrees(e, axes) for e in row]
              for row in matrix.entries]
    bounds = {}
    for mask in range(1, 1 << len(axes)):
        h = _max_assignment([[t[mask - 1] for t in row] for row in tables])
        if h is None:
            return None
        bounds[mask] = h
    return bounds


# Points ranked in the calling process before any child is forked: a witness
# this early (mrr's order 1 has it at position 1) needs no children.
_SERIAL_HEAD = 256


def _rank_chunk(evaluator, kernel, indices, lo, hi):
    """(position, index) of the first point of indices[lo:hi] where the
    compiled kernel finds full column rank, or None; position counts from
    the start of indices.  The rank is the chain length plus the
    remainder's, so full rank is a nonzero remainder determinant where the
    kernel ends in one (_GridEvaluator.determinant), else _int_rank of the
    remainder rows it reads out equal to their width; that call is made
    here, for mrr's 4x3 order-1 remainder among others."""
    width, determinant = len(evaluator.chain.cols), evaluator.determinant
    for pos, index, s, v in evaluator.inputs(indices[lo:hi]):
        out = kernel(s, v)
        if out if determinant else _int_rank(out) == width:
            return lo + pos, index
    return None


def _first_full_rank(matrix: PolyMatrix, values: dict, indices, jobs: int = 1):
    """(position, index) of the first point of the sorted index list where
    the integer-cleared matrix has full column rank, or None.

    The evaluator and its compiled kernel (_GridEvaluator.kernel) are built
    once, here, and its compiled prefix level (compile_prefix) at the
    scan's second prefix.  With one job, or without os.fork, every point is
    ranked here in order.  Otherwise the first _SERIAL_HEAD points are
    ranked here, and the rest is split into min(jobs, os.cpu_count())
    contiguous chunks of equal length: this process ranks the first, and one
    forked child per other chunk ranks it with the kernel it inherits
    (_forked_scan), and with the prefix level too when the serial head
    reached a second prefix, as on mrr; otherwise each child builds its
    own."""
    evaluator = _GridEvaluator(matrix, values, _constant_pivots(matrix))
    evaluator.compile_prefix()
    kernel = evaluator.kernel()

    def rank(lo, hi):
        return _rank_chunk(evaluator, kernel, indices, lo, hi)

    rest = len(indices) - _SERIAL_HEAD
    jobs = min(jobs, rest, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if jobs <= 1:
        return rank(0, len(indices))
    hit = rank(0, _SERIAL_HEAD)
    if hit is not None:
        return hit
    return _forked_scan(rank, [_SERIAL_HEAD + (i * rest) // jobs
                               for i in range(jobs + 1)])


def _forked_scan(rank, bounds):
    """The grid-order-first hit of rank over the chunks bounds[c] ..
    bounds[c + 1] - 1.  Chunk 0 is ranked here and every other chunk by a
    forked child (_spawn), read in chunk order; a chunk whose child could
    not be forked, failed or reported nothing is ranked here too, so the
    result never depends on a child.  Once the answer is known the children
    still running are killed, and every child is reaped before this
    returns."""
    from signal import SIGKILL  # here, so that a serial run never imports it
    children = {}
    try:
        for c in range(1, len(bounds) - 1):
            try:
                children[c] = _spawn(rank, bounds[c], bounds[c + 1])
            except OSError:
                pass  # the chunk is ranked here below
        for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            line = _reap(*children.pop(c)) if c in children else None
            if line is None:
                hit = rank(lo, hi)
            else:
                hit = tuple(map(int, line.split())) or None
            if hit is not None:
                return hit
        return None
    finally:
        for pid, fd in children.values():
            os.kill(pid, SIGKILL)
            _reap(pid, fd)


def _spawn(rank, lo, hi):
    """Fork a child that ranks lo .. hi - 1 and writes its hit to a pipe as
    the ASCII line "position index", or an empty line for none; returns its
    pid and the pipe's read end.  The child always leaves by os._exit, with
    status 0 only after a complete write."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            hit = rank(lo, hi)
            os.write(w, b"\n" if hit is None else b"%d %d\n" % hit)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _reap(pid, fd):
    """Read a child's pipe to its end and reap the child; the line it wrote,
    or None when it exited nonzero or wrote no complete line."""
    with open(fd, "rb") as pipe:
        out = pipe.read()
    _, status = os.waitpid(pid, 0)
    return out.decode("ascii") if status == 0 and out.endswith(b"\n") \
        else None


def _rank_deficiency_test(matrix: PolyMatrix, certainty, seed: int,
                          jobs: int = 1) -> VanishingResult:
    """Determinant-vanishing test on the lower-set integer grid.

    Support bound: for each weight w in W = {0,1}^r minus 0, every exponent e
    of every maximal minor satisfies w.e <= h(w) (_support_bounds).  The
    lattice points obeying all of them form a lower (down-closed) set S
    inside the box 0 <= e_i <= d_i, d_i = h of the unit weight of the i-th
    variable x_i.  Grid: per variable, d_i + 1 consecutive integers
    t_{i,0} < t_{i,1} < ... centered at 0 (_grid_values, the one node rule);
    the test points are the subgrid {(t_{1,e_1}, ..., t_{r,e_r}) : e in S},
    visited as sorted box indices.  A polynomial with support in the lower
    set S that vanishes on that subgrid is zero (N. Dyn and M. S. Floater,
    "Multivariate polynomial interpolation on lower sets", J. Approx. Theory
    177, 2014): the Newton products prod_i prod_{j<e_i} (x_i - t_{i,j}), e in
    S, span the same space as the monomials of S and are triangular on the
    subgrid.  That needs only distinct nodes, so no node value is special.
    So vanishing on all |S| points proves det = 0 identically.
    grid_total is |S|; certainty < 1 tests ceil(certainty * |S|) positions
    of the sorted list, drawn with random.Random(seed).  A nonzero value
    aborts the scan and is reported as a witness (grid-order-first).

    Square and overdetermined matrices share the test: it passes iff the
    matrix has rank < cols at every tested point.  For a square matrix that
    is exactly the vanishing of the determinant; in general it is the
    vanishing of every maximal square minor, each of which obeys the same
    bounds h(w) (the rectangular assignment maximizes over all row subsets).
    """
    matrix = _integer_cleared(matrix)
    bounds = _support_bounds(matrix)
    if bounds is None:
        # no assignment at all: every maximal minor is structurally zero
        return VanishingResult(True, 0, 0, None)
    values = {v: _grid_values(bounds[1 << i])
              for i, v in enumerate(matrix.vars)}
    lower = _lower_set(bounds)
    total = len(lower)
    certainty = _as_fraction(certainty)
    count = total if certainty == 1 else ceil(certainty * total)
    count = max(1, min(count, total))
    if count < total:
        rng = random.Random(seed)
        indices = [lower[p] for p in sorted(rng.sample(range(total), count))]
    else:
        indices = lower
    hit = _first_full_rank(matrix, values, indices, jobs)
    if hit is not None:
        pos, index = hit
        return VanishingResult(False, total, pos + 1,
                               _grid_point(matrix.vars, values, index))
    return VanishingResult(True, total, count, None)


# ---------------------------------------------------------------------------
# leading coefficient and initial conditions


class Inconclusive(GridProofError):
    pass


def _nonnegative_root_bound(p: MultiPoly, var):
    """Largest nonnegative integer root of p, a polynomial over (var,), or
    None.  ValueError for the zero polynomial.  The root 0 counts: the
    induction starts at n = 0, and where a_J(0) = 0 the recurrence at n = 0
    does not fix the value at n = J."""
    coeffs = [p.terms.get((d,), 0) for d in range(p.degree(var) + 1)]
    return max((r for r in integer_roots_univar(coeffs) if r >= 0),
               default=None)


def _leading_root_bound(rec: Recurrence, n):
    """Largest nonnegative integer root in n of the last recurrence
    coefficient, or None."""
    p = rec.coefficients[-1].restrict((n,))
    try:
        return _nonnegative_root_bound(p, n)
    except ValueError:
        return None


_LEAD_POINTS = 3     # parameter specializations whose a_J cofactors are gcd'ed
_LEAD_RANGE = 99     # their values, and that of the rank probe's n, lie in +-this


def _free_part(p: MultiPoly, n) -> MultiPoly:
    """The largest factor of p in n alone, up to a constant: the gcd
    (polys._poly_list_gcd) of its coefficients as a polynomial in the other
    variables, over (n,)."""
    i = p.vars.index(n)
    coeffs = {}
    for exp, c in p.terms.items():
        coeffs.setdefault(exp[:i] + exp[i + 1:], []).append(((exp[i],), c))
    return _poly_list_gcd([MultiPoly.from_terms((n,), items)
                           for items in coeffs.values()])


def leading_coeff_check(sys, certainty, seed: int, jobs: int = 1):
    """Largest nonnegative integer root n0 of the leading coefficient a_J of a
    telescoper from the order-J system the grid proved, as roots generic in
    the parameters; returns (n0 or None, the parameter points used).

    sys.matrix is that system's M' (column j of the full system divided by
    c_j = sys.contents[j]).  At one seeded integer point s_1 of the
    parameters and n, rows P and columns B (J not in B) of full rank r = rank
    M'(s_1) are chosen such that column J lies in the span of B.  M'[:, C],
    C = B + {J}, is then shown rank-deficient: by the grid already when C is
    every column, trivially when it has more columns than M' has rows, else by
    its own vanishing test at this certainty and seed, over jobs processes as
    the grid's.  Its kernel is then the cofactor vector of M'[P, C], whose
    entry J is w_J = det M'[P, B], nonzero at s_1.  So a_J = w_J * L / c_J up to the primitive part, L = lcm of the
    c_j.  Determinants commute with specialization, so the factors of w_J
    free of the parameters divide w_J(n; s_i) at every parameter point s_i;
    the gcd over the nonzero w_J(n; s_i), each interpolated from integer
    minors as one integer multiple of it, the same for every s_i (the gcd
    is monic), keeps them and drops roots that only special parameter
    values have.  n0 is the largest nonnegative integer root of that gcd or
    of the parameter-free part of a factor of any c_j.  Raises Inconclusive
    when no such B exists or the rank-deficiency test fails.
    """
    J = sys.ansatz.order
    n = sys.n
    matrix = _integer_cleared(sys.matrix)
    rng = random.Random(seed * 1000003 + 17)
    points = [{v: rng.randint(-_LEAD_RANGE, _LEAD_RANGE)
               for v in matrix.vars if v != n} for _ in range(_LEAD_POINTS)]
    probe = {**points[0], n: rng.randint(-_LEAD_RANGE, _LEAD_RANGE)}
    a = [[e.eval(probe) for e in row] for row in matrix.entries]
    others = [j for j in range(matrix.cols) if j != J]
    B = [others[i] for i in _pivot_rows([[row[j] for row in a] for j in others])]
    if not B or len(B) < len(_pivot_rows(a)):
        raise Inconclusive(
            f"order {J}: the a_{J} column is not shown dependent on the others")
    P = _pivot_rows([[row[j] for j in B] for row in a])
    C = sorted(B + [J])
    if len(C) < matrix.cols and matrix.rows >= len(C):
        sub = PolyMatrix([[row[j] for j in C] for row in matrix.entries])
        if not _rank_deficiency_test(sub, certainty, seed, jobs).passed:
            raise Inconclusive(
                f"order {J}: the a_{J} column and the {len(B)} columns it "
                "depends on were not shown dependent")
    minors = _univar_minors(PolyMatrix([matrix.entries[i] for i in P]), n,
                            points, B)
    g = MultiPoly.zero((n,))
    used = []
    for point, coeffs in zip(points, minors):
        w = MultiPoly.from_terms((n,), [((d,), c) for d, c in enumerate(coeffs)])
        if not w.is_zero():
            g = poly_gcd(g, w)
            used.append(point)
    if g.is_zero():
        raise Inconclusive(f"order {J}: the a_{J} cofactor vanished at every "
                           "parameter point tried")
    # the contents share most of their factors: each is rooted once
    factors = {f.key(): f for c in sys.contents for f in c.factors()}
    free = [_free_part(f, n) for f in factors.values()]
    roots = [_nonnegative_root_bound(p, n) for p in [g] + free]
    return max((r for r in roots if r is not None), default=None), used


def _window(nid: NormalizedIdentity, term, n_val: int, params=None):
    """Integer summation bounds of term at n = n_val and the parameter values
    params (if given): the declared limits, with a limit of all taken from
    that end of term's natural support."""
    at = {**(params or {}), nid.n: n_val}
    ends = [None if L is None else L.eval(at) for L in (nid.lower, nid.upper)]
    if None in ends:
        if params is None and nid.params:
            raise GridProofError(
                "cannot determine a finite support with symbolic parameters; "
                "declare summation limits")
        support = natural_support(term, at, k=nid.k)
        ends = [s if e is None else e for e, s in zip(ends, support)]
        if None in ends:
            raise GridProofError(f"unbounded support at {nid.n} = {n_val}")
    if any(_as_fraction(e).denominator != 1 for e in ends):
        raise GridProofError("summation limits are not integers")
    return int(ends[0]), int(ends[1])


_SMALL_CASES_UPTO = 4  # largest n the finite and point checks compare


def _small_cases(nid: NormalizedIdentity, term: TermExpression, rhs_terms,
                 upto: int, point=None):
    """The exact small-case stage: yield, for n = 0..upto in turn, the terms
    of the declared window's sum of term and the negated rhs_terms (terms
    free of k) as a list of Factored values, each terms.factored_value of
    a term over the symbols left, symbolic in the parameters or at their
    integer values point; where no symbol but k is left, one constant, the
    Fraction sum of term_values.  factored.sum_vanishes tests a list for
    zero.  A caller stops at the first n it does not need, so no window is
    summed in vain."""
    for nv in range(upto + 1):
        at = {**(point or {}), nid.n: nv}
        lo, hi = _window(nid, term, nv, point)
        free = tuple(s for s in term.symbols if s != nid.k and s not in at)
        if free:
            values = [factored_value(term, {**at, nid.k: kv}, True)
                      for kv in range(lo, hi + 1)]
            values += [factored_value(t, {**at, nid.k: 0}).mul_const(-1)
                       for t in rhs_terms]
        else:
            total = sum(term_value(term, {**at, nid.k: kv}, True)
                        for kv in range(lo, hi + 1))
            values = [Factored((), total - sum(
                term_value(t, {**at, nid.k: 0}) for t in rhs_terms))]
        yield values


def _identity_checks(nid: NormalizedIdentity, summand, rhs_terms,
                     point=None) -> list:
    """[("identity", n, passed), ...] for the identity as stated, n = 0 ..
    _SMALL_CASES_UPTO, up to and including the first failure."""
    checks = []
    for nv, values in enumerate(_small_cases(nid, summand, rhs_terms,
                                             _SMALL_CASES_UPTO, point)):
        checks.append(("identity", nv, sum_vanishes(values)))
        if not checks[-1][2]:
            break
    return checks


_NUMERIC_POINTS = 2       # parameter points the small cases are checked at
_NUMERIC_TRIES = 12       # candidate points drawn before it gives up
_NUMERIC_RANGE = 9        # their parameter values lie in 1..this


def _point_check(nid: NormalizedIdentity, summand, rhs_terms, seed: int):
    """_identity_checks at _NUMERIC_POINTS distinct seeded positive-integer
    parameter points; a point where some term cannot be evaluated is
    skipped.  Returns the checks of the first point where the sides differ
    and a message that names n and the point, or None."""
    rng = random.Random(seed * 1000033 + 29)
    tried, done = [], 0
    for _ in range(_NUMERIC_TRIES):
        point = {p: rng.randint(1, _NUMERIC_RANGE) for p in nid.params}
        if point in tried:
            continue
        tried.append(point)
        try:
            checks = _identity_checks(nid, summand, rhs_terms, point)
        except (GridProofError, TermError, ZeroDivisionError):
            continue
        if not checks[-1][2]:
            at = {nid.n: checks[-1][1], **point}
            return checks, "numeric check failed at " + ", ".join(
                f"{v}={x}" for v, x in at.items())
        done += 1
        if done == _NUMERIC_POINTS:
            break
    return None


def initial_conditions_check(nid: NormalizedIdentity, J: int,
                             n0: int | None) -> list:
    """Exact base cases for the induction, symbolic in the parameters.

    Checks n = 0 .. max(J-1, n0+J when n0 is present).  For a normalized
    identity the n = 0 entry also requires the undifferenced sum to equal 1;
    a zero right side requires the raw sums to vanish.  Each check is one
    factored.sum_vanishes over the factored window terms of _small_cases, so
    no polynomial gcd runs.  Returns [(label, n, passed), ...]; any False
    entry refutes the identity.
    """
    upto = J - 1
    if n0 is not None:
        upto = max(upto, n0 + J)
    if nid.rhs_is_zero:
        return [("sum", nv, sum_vanishes(values)) for nv, values in
                enumerate(_small_cases(nid, nid.fhat, [], upto))]
    sums = list(_small_cases(nid, nid.fhat, [], upto + 1))
    free = tuple(s for s in nid.fhat.symbols if s not in (nid.k, nid.n))
    return [("base", 0, sum_vanishes(sums[0], [Factored(free, 1)]))] + [
        ("delta", nv, sum_vanishes(sums[nv + 1], sums[nv]))
        for nv in range(upto + 1)]


# ---------------------------------------------------------------------------
# termination guard

# Summing the telescoped equation over k only yields the recurrence for the
# declared sum when the summand vanishes outside the declared window, so that
# the window sum equals the two-sided sum and the telescope collapses.  The
# check treats every parameter as a large nonnegative integer; conclusions
# extend to symbolic parameters because all later checks are rational
# identities in them.


def _nonpos_on_orthant(L: LinearForm) -> bool:
    """L(point) <= 0 whenever every symbol is >= 0."""
    return _as_fraction(L.const) <= 0 and \
        all(_as_fraction(c) <= 0 for c in L.coeffs.values())


def _covers_ray(cond_pairs, k, edge: LinearForm | None,
                direction: int) -> bool:
    """All conditions hold on the integer ray {k = edge + direction*t, t>=0},
    or, with edge None, on that ray from some t on for every fixed value of
    the other symbols.

    Each condition (L, op) requires L <= -1 (op '-') or L >= 0 (op '+') on the
    whole ray, given every non-k symbol >= 0."""
    for L, op in cond_pairs:
        alpha = _as_fraction(L.var_coeff(k))
        rest = LinearForm({s: c for s, c in L.coeffs.items() if s != k}, L.const)
        if edge is None:
            if alpha != 0:
                # far enough out, a k-slope pointing the condition's way wins
                if (alpha * direction < 0) != (op == "-"):
                    return False
                continue
            at_edge = rest
        else:
            at_edge = rest + edge.scale(alpha)
        if op == "-":
            # need alpha*direction <= 0 and value at the edge <= -1
            if alpha * direction > 0:
                return False
            if not _nonpos_on_orthant(at_edge.add_const(1)):
                return False
        else:
            # need alpha*direction >= 0 and value at the edge >= 0
            if alpha * direction < 0:
                return False
            if not _nonpos_on_orthant(at_edge.scale(-1)):
                return False
    return True


def _termination_guard(nid: NormalizedIdentity):
    """None if zero-forcing factors of the summand cover everything outside
    the declared window, or beyond a limit of all, everything far enough out
    on that side; otherwise a reason string.  Without this coverage the
    telescoping argument does not apply to the windowed sum."""
    # zero needed for k <= lower - 1 and k >= upper + 1; a limit of all
    # leaves that side to the natural support, which must then be bounded
    # there for every n >= 0 and parameter >= 0
    lo_edge = None if nid.lower is None else nid.lower.add_const(-1)
    hi_edge = None if nid.upper is None else nid.upper.add_const(1)
    rules = list(zero_rules(nid.fhat))
    if not any(_covers_ray(conds, nid.k, lo_edge, -1) for conds in rules):
        return ("summand is not forced to vanish below the lower limit; "
                "the telescoping argument does not apply to this window")
    if not any(_covers_ray(conds, nid.k, hi_edge, +1) for conds in rules):
        return ("summand is not forced to vanish above the upper limit; "
                "the telescoping argument does not apply to this window")
    return None


# ---------------------------------------------------------------------------
# orchestration


def _gosper_columns_independent(sys) -> bool:
    """The b columns of M', the Gosper operator
    b -> q(k) b(k+1) - r(k-1) b(k) over the k-free factor q and r share, have
    full column rank at one of the points of the nullspace solver's first
    probe round (linalg._probe).  Full rank at any point proves them
    independent, in M too, so every kernel vector has some a_j != 0 and a
    vanishing determinant does give a telescoper.  False only means no
    probe showed it.
    """
    block = _integer_cleared(PolyMatrix(
        [row[sys.ansatz.order + 1:] for row in sys.matrix.entries]))
    return len(_probe(block)[1]) == block.cols


def _finite_report(checks, message, certainty, seed) -> ProofReport:
    """The finite-check report of _identity_checks: refuted when the last
    check failed, else inconclusive."""
    return ProofReport(
        verdict="inconclusive" if checks[-1][2] else "refuted",
        certainty=certainty, seed=seed, method="finite-check",
        initial_checks=[list(c) for c in checks], message=message)


def _finish(report, nid, J, n0):
    """Close report with the exact initial conditions of an order-J route."""
    checks = initial_conditions_check(nid, J, n0)
    report.initial_checks = [list(c) for c in checks]
    failed = [c for c in checks if not c[2]]
    if failed:
        report.verdict = "refuted"
        report.message = (f"exact initial check failed at {failed[0][0]} "
                          f"n={failed[0][1]}")
    return report


def _telescoper_report(nid: NormalizedIdentity, sys, shifts, certainty,
                       seed):
    """The rigorous report from the solution of sys, the order-J system of
    the delta term g, or None when it has none or an order-0 certificate
    fails.  Order J >= 1 is published as telescope and certifies g.  Order
    0 is Gosper/WZ: its recurrence is [1], so its certificate R certifies
    g, which is fhat when the right side is zero; else R * (n_ratio - 1)
    certifies fhat with the recurrence [-1, 1].  The certificate is
    verified on the shift ratios of g's table shifts, or of fhat's, whose
    shift in n is n_ratio, and published as printed_certificate gives it."""
    out = solve_order(sys)
    if out is None:
        return None
    (rec, cert), term, wz = out, nid.delta_term, sys.ansatz.order == 0
    if wz and not nid.rhs_is_zero:
        rec = Recurrence(1, (-rec.coefficients[0], rec.coefficients[0]))
        w_num, w_den = factored_sum(
            [nid.n_ratio], [Factored.one(term.symbols)]).split()
        term, cert = nid.fhat, Certificate(
            cert.num * w_num.expand(), cert.den.copy().mul(w_den))
        shifts = ShiftQuotients(term, {(nid.n, 1): nid.n_ratio.split()})
    cert = printed_certificate(cert, sys.ansatz.order)
    if not verify_certificate(term, rec, cert, k=nid.k, n=nid.n, ratios=(
            _shift_ratios(term, rec.order, nid.k, nid.n, shifts))):
        if wz:
            return None
        raise RuntimeError("telescoper failed exact re-verification")
    n0 = None if wz else _leading_root_bound(rec, nid.n)
    report = ProofReport(
        verdict="rigorous", certainty=certainty, seed=seed,
        method="gosper-wz" if wz else "telescope", order=rec.order,
        degree=None if wz else sys.ansatz.degree, leading_root_bound=n0,
        recurrence=[str(c) for c in rec.coefficients],
        certificate=str(cert))
    return _finish(report, nid, 1 if wz else rec.order, n0)


def prove(summand: TermExpression, rhs_terms, k, n, lower, upper, params,
          certainty=Fraction(1), seed: int = 0, max_order: int = 6,
          jobs: int = 1, fast_path: bool = True) -> ProofReport:
    """Prove sum_k summand = RHS (RHS zero allowed) for all integers n >= 0.

    Normalizes and differences, and requires the summand to vanish outside
    the declared window; else the exact small cases n = 0..4, symbolic in
    the parameters, are the whole check (finite-check).  Then one loop over
    the orders J = 0..max_order (from 1 when fast_path is false) solves
    order 0 (Gosper/WZ) and every order of a parameter-free identity
    symbolically, verifying the certificate it publishes.  A parametric
    order J >= 1 runs the grid vanishing test instead, closed by the root
    bound of the order-J system's leading coefficient (leading_coeff_check);
    such a verdict holds for generic values of the parameters.  Just before
    the first grid scan, the small cases n = 0..4 at integer parameter
    points can refute the identity (finite-check, no grid point tested).
    A route that succeeds is closed by its exact initial conditions,
    symbolic in the parameters.  certainty 1 makes the grid exhaustive
    (rigorous); smaller values test that sampled fraction of its points
    (semi-rigorous).  A term the routes cannot shift or evaluate (TermError)
    makes the verdict inconclusive.
    """
    certainty = _as_fraction(certainty)
    if not (0 < certainty <= 1):
        raise ValueError("certainty must be in (0, 1]")
    try:
        return _prove_inner(summand, rhs_terms, k, n, lower, upper, params,
                            certainty, seed, max_order, jobs, fast_path)
    except (GridProofError, TermError) as exc:
        return ProofReport(verdict="inconclusive", certainty=certainty,
                           seed=seed, message=str(exc))


def _prove_inner(summand, rhs_terms, k, n, lower, upper, params,
                 certainty, seed, max_order, jobs, fast_path) -> ProofReport:
    try:
        nid = normalize_and_delta(summand, rhs_terms, params, k, n,
                                  lower, upper)
        # every route below sums a telescoped equation over the window
        reason = _termination_guard(nid)
    except NotNormalizable:
        nid = NormalizedIdentity(summand, summand, tuple(params), k, n,
                                 lower, upper, True,
                                 Factored.one(summand.symbols))
        reason = ("right side is not a single hypergeometric term; exact "
                  f"agreement verified for {n}=0..{_SMALL_CASES_UPTO} only")
    if reason is not None:
        checks = _identity_checks(nid, summand, rhs_terms)
        if not checks[-1][2]:
            reason = f"exact check failed at {n}={checks[-1][1]}"
        return _finite_report(checks, reason, certainty, seed)

    # ratio identically 1: the normalized sum is constant in n
    if not nid.rhs_is_zero and nid.ftil.is_zero():
        report = ProofReport(verdict="rigorous", certainty=certainty,
                             seed=seed, method="constant-ratio", order=0)
        return _finish(report, nid, 0, None)

    last_witness, points_checked = None, False
    shifts = ShiftQuotients(nid.delta_term)  # this proof's, and no other's
    for J in range(0 if fast_path else 1, max_order + 1):
        try:
            sys = assemble(nid.delta_term, J, k=k, n=n, shifts=shifts)
        except TermError:
            if J > 0 or not nid.params:
                raise
            continue  # the grid may still shift and evaluate the term
        if sys is None:
            continue
        if J == 0 or not nid.params:
            report = _telescoper_report(nid, sys, shifts, certainty, seed)
            if report:
                return report
            continue
        # parameters present: the small cases at integer points, once, then
        # determinant-vanishing on the degree-bounded grid
        if not points_checked:
            points_checked = True
            bad = _point_check(nid, summand, rhs_terms, seed)
            if bad is not None:
                return _finite_report(*bad, certainty, seed)
        m = sys.matrix
        if m.rows < m.cols:
            res = VanishingResult(True, 0, 0, None)
        else:
            res = _rank_deficiency_test(m, certainty, seed, jobs=jobs)
        if not res.passed:
            last_witness = res.witness
            continue
        try:
            if not _gosper_columns_independent(sys):
                raise Inconclusive(
                    f"order {J}: the Gosper-operator columns were not shown "
                    "independent, so a vanishing determinant need not give a "
                    "telescoper")
            n0, specialization = leading_coeff_check(sys, certainty, seed,
                                                     jobs)
        except Inconclusive as exc:
            return ProofReport(
                verdict="inconclusive", certainty=certainty, seed=seed,
                method="determinant-grid", order=J, degree=sys.ansatz.degree,
                grid_total=res.grid_total, grid_tested=res.grid_tested,
                message=str(exc))
        verdict = "rigorous" if certainty == 1 else "semi-rigorous"
        shape = f"system {m.rows}x{m.cols}"
        if m.rows > m.cols:
            shape += " (overdetermined: rank tested on the shared minor grid)"
        elif m.rows < m.cols:
            shape += " (underdetermined: nontrivial solution exists trivially)"
        shape += f"; holds for generic values of {', '.join(nid.params)}"
        report = ProofReport(
            verdict=verdict, certainty=certainty, seed=seed,
            method="determinant-grid", order=J, degree=sys.ansatz.degree,
            grid_total=res.grid_total, grid_tested=res.grid_tested,
            leading_root_bound=n0, specialization=specialization,
            message=shape)
        return _finish(report, nid, J, n0)
    return ProofReport(
        verdict="inconclusive", certainty=certainty, seed=seed,
        method="determinant-grid" if nid.params else "telescope",
        nonzero_point=last_witness,
        message=(f"no order up to {max_order} passed the vanishing test"
                 if nid.params else
                 f"no telescoper found up to order {max_order}"))
