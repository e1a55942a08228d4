"""Proof orchestration for definite hypergeometric identities.

Normalizes sum F = RHS to sum Fhat = 1 and differences it (dropping the
recurrence order by one), then proves existence of a telescoping recurrence
without solving the symbolic system: the system matrix is square (or handled
by rank on maximal minors), and its determinant is a polynomial whose
support lies in a lower (down-closed) set S of exponents.  For every weight
w in {0,1}^r, w.e is at most the max-weight assignment h(w) on the entry
weights; the unit weights give the permanent degree bounds, so S lies in
their box.  A polynomial with support in a lower set that vanishes on the
matching subgrid of integer points is zero (N. Dyn and M. S. Floater,
"Multivariate polynomial interpolation on lower sets", J. Approx. Theory
177, 2014), so vanishing on those |S| points is conclusive.  Certainty < 1
tests a sampled fraction of them.  The leading-coefficient specialization
check and exact initial conditions close the induction; parametric verdicts
hold for generic values of the parameters.

Grid points are visited in sorted box index order, the first of matrix.vars
the most significant digit.  linalg._GridEvaluator substitutes one variable
per level by Horner's rule, reusing the levels of the digit prefix a point
shares with the previous one; _first_full_rank, serial or in the pool
workers, ends each point in one call of the integer rank kernel _int_rank,
made here.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import ceil

from .factored import integer_roots_univar
from .gosper import gosper_antidifference
from .linalg import (
    PolyMatrix, _GridEvaluator, _grid_digits, _int_rank, _integer_cleared,
    _max_assignment,
)
from .polys import MultiPoly, RationalFunction, _as_fraction
from .telescope import (
    Certificate, Recurrence, assemble, creative_telescope, verify_certificate,
)
from .terms import (
    EvalError, LinearForm, TermError, TermExpression, eval_summand, evaluate,
    integer_form, natural_support, shift_quotient, zero_rules,
)


class GridProofError(Exception):
    pass


class NotNormalizable(GridProofError):
    """RHS is not a single hypergeometric term (or not hypergeometric in n)."""


@dataclass
class NormalizedIdentity:
    """Target statement after the WZ normalization.

    rhs_is_zero false: the claim is sum_k fhat(n,k) = 1 and ftil is the
    differenced summand fhat(n+1,k) - fhat(n,k) written as fhat * (ratio - 1).
    rhs_is_zero true: the claim is sum_k fhat(n,k) = 0 and fhat is the raw
    summand, used directly.
    """
    fhat: TermExpression
    ftil: TermExpression
    params: tuple
    k: str
    n: str
    lower: LinearForm
    upper: LinearForm
    rhs_is_zero: bool
    n_ratio: RationalFunction

    @property
    def delta_term(self):
        return self.fhat if self.rhs_is_zero else self.ftil


@dataclass
class VanishingResult:
    passed: bool
    grid_total: int
    grid_tested: int
    witness: dict | None


@dataclass
class ProofReport:
    verdict: str                      # rigorous | semi-rigorous | refuted | inconclusive
    certainty: Fraction
    seed: int
    method: str = ""
    order: int | None = None          # J of the proved recurrence
    degree: int | None = None         # K, ansatz polynomial degree
    grid_total: int = 0
    grid_tested: int = 0
    nonzero_point: dict | None = None
    leading_root_bound: int | None = None
    initial_checks: list = field(default_factory=list)
    specialization: dict | None = None
    recurrence: list | None = None
    certificate: str | None = None
    message: str = ""
    timings: dict = field(default_factory=dict)


def normalize_and_delta(F: TermExpression, rhs_terms, params, k, n,
                        lower=None, upper=None) -> NormalizedIdentity:
    """Divide by the conjectured right side and difference in n.

    rhs_terms is a list of TermExpressions ([] for an identically zero right
    side).  A multi-term right side cannot be normalized.
    """
    if not rhs_terms:
        return NormalizedIdentity(F, F, tuple(params), k, n, lower, upper,
                                  True, RationalFunction.constant(F.symbols, 1))
    if len(rhs_terms) > 1:
        raise NotNormalizable("right side is a sum of several terms")
    rhs = rhs_terms[0]
    if rhs.is_zero():
        return NormalizedIdentity(F, F, tuple(params), k, n, lower, upper,
                                  True, RationalFunction.constant(F.symbols, 1))
    try:
        shift_quotient(rhs, n)
    except TermError as exc:
        raise NotNormalizable(f"right side is not hypergeometric in {n}: {exc}")
    fhat = F.divided_by(rhs)
    rho_n = shift_quotient(fhat, n)
    one = RationalFunction.constant(F.symbols, 1)
    w = rho_n - one
    ftil = fhat.with_rational(w)
    return NormalizedIdentity(fhat, ftil, tuple(params), k, n, lower, upper,
                              False, rho_n)


# ---------------------------------------------------------------------------
# grid machinery


def _grid_values(degree: int, avoid) -> list:
    start = -(degree // 2)
    box = list(range(start, start + degree + 1))
    if not avoid:
        return box
    out = []
    nxt = start + degree + 1
    for x in box:
        if x in avoid:
            while nxt in avoid:
                nxt += 1
            out.append(nxt)
            nxt += 1
        else:
            out.append(x)
    return sorted(out)


def _grid_point(vars, values: dict, index: int) -> dict:
    """The grid point with the given index, as {var: value} in vars order."""
    axes = [values[v] for v in vars]
    digits = _grid_digits(index, [len(axis) for axis in axes])
    return {v: axis[d] for v, axis, d in zip(vars, axes, digits)}


def _support_bounds(matrix: PolyMatrix) -> dict | None:
    """h(w) for every weight w in {0,1}^r minus 0 over matrix.vars, keyed by
    the bitmask of w (bit i for vars[i]); None when no assignment exists.

    Each entry weighs max over its support of w.e (-1 for a zero entry), and
    h(w) is the max-weight assignment on those weights.  Every exponent e of
    every maximal minor has w.e <= h(w), since its monomials come from
    assignments; the unit weight of v gives permanent_degree_bound(matrix, v).
    """
    r = len(matrix.vars)
    bounds = {}
    for mask in range(1, 1 << r):
        w = tuple(mask >> i & 1 for i in range(r))
        h = _max_assignment(
            [[max(map(sum, map(compress, e.terms, repeat(w))), default=-1)
              for e in row] for row in matrix.entries])
        if h is None:
            return None
        bounds[mask] = h
    return bounds


def _lower_set(sizes, bounds: dict) -> array:
    """Sorted box indices (mixed radix over sizes, vars[0] most significant)
    of the lower set {e >= 0 : sum of e_i over w <= h(w) for every (w, h) in
    bounds}, bounds as from _support_bounds, in an int64 array (a quarter of
    the memory of a list).  Each digit's range follows from the slack its
    prefix leaves in every bound; every prefix so reached extends by zeros,
    so no box point is visited in vain."""
    out = array("q")
    if not sizes:
        out.append(0)
        return out
    last = len(sizes) - 1
    masks = list(bounds)

    def walk(level, index, slack):
        bit = 1 << level
        top = min(s for m, s in zip(masks, slack) if m & bit)
        index *= sizes[level]
        if level == last:
            out.extend(range(index, index + top + 1))
            return
        for d in range(top + 1):
            walk(level + 1, index + d,
                 [s - d if m & bit else s for m, s in zip(masks, slack)])

    walk(0, 0, list(bounds.values()))
    return out


# Points ranked in process before a parallel scan starts its pool: a witness
# this early (mrr's order 1 has it at position 1) needs no workers.
_SERIAL_HEAD = 256


def _first_full_rank(matrix: PolyMatrix, values: dict, indices):
    """(position, index) of the first point of the sorted index list where
    the integer-cleared matrix has full column rank, or None.  Serial scans,
    the serial head of _parallel_scan and its pool workers all run it."""
    for pos, index, a in _GridEvaluator(matrix, values).matrices(indices):
        if _int_rank(a) == matrix.cols:
            return pos, index
    return None


def _rank_deficiency_test(matrix: PolyMatrix, certainty, seed: int,
                          jobs: int = 1) -> VanishingResult:
    """Determinant-vanishing test on the lower-set integer grid.

    Support bound: for each weight w in W = {0,1}^r minus 0, every exponent e
    of every maximal minor satisfies w.e <= h(w) (_support_bounds).  The
    lattice points obeying all of them form a lower (down-closed) set S
    inside the box 0 <= e_i <= d_i, d_i the permanent degree bound of the
    i-th variable x_i.  Grid: per variable, d_i + 1 distinct integers
    t_{i,0} < t_{i,1} < ... centered at 0 (stepping over degenerate values);
    the test points are the subgrid {(t_{1,e_1}, ..., t_{r,e_r}) : e in S},
    visited as sorted box indices.  A polynomial with support in the lower
    set S that vanishes on that subgrid is zero (N. Dyn and M. S. Floater,
    "Multivariate polynomial interpolation on lower sets", J. Approx. Theory
    177, 2014): the Newton products prod_i prod_{j<e_i} (x_i - t_{i,j}), e in
    S, span the same space as the monomials of S and are triangular on the
    subgrid.  So vanishing on all |S| points proves det = 0 identically.
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
    values = {v: _grid_values(bounds[1 << i], matrix.avoid.get(v, set()))
              for i, v in enumerate(matrix.vars)}
    lower = _lower_set([len(values[v]) for v in matrix.vars], bounds)
    total = len(lower)
    certainty = _as_fraction(certainty)
    count = total if certainty == 1 else ceil(certainty * total)
    count = max(1, min(count, total))
    if count < total:
        rng = random.Random(seed)
        indices = [lower[p] for p in sorted(rng.sample(range(total), count))]
    else:
        indices = lower
    if jobs > 1 and count > _SERIAL_HEAD:
        hit = _parallel_scan(matrix, values, indices, jobs)
    else:
        hit = _first_full_rank(matrix, values, indices)
    if hit is not None:
        pos, index = hit
        return VanishingResult(False, total, pos + 1,
                               _grid_point(matrix.vars, values, index))
    return VanishingResult(True, total, count, None)


def _parallel_scan(matrix, values, indices, jobs):
    """Rank the first _SERIAL_HEAD indices in process, then the rest over
    worker processes in contiguous chunks of equal length; the reported hit
    is the grid-order-first full-rank point regardless of completion order."""
    from concurrent.futures import ProcessPoolExecutor
    hit = _first_full_rank(matrix, values, indices[:_SERIAL_HEAD])
    if hit is not None:
        return hit
    n = len(indices) - _SERIAL_HEAD
    jobs = min(jobs, n)
    bounds = [_SERIAL_HEAD + (i * n) // jobs for i in range(jobs + 1)]
    chunks = [indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    args = ([matrix] * jobs, [values] * jobs, chunks)
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_first_full_rank, *args))
    except (OSError, ImportError):
        results = list(map(_first_full_rank, *args))
    for offset, res in zip(bounds, results):
        if res is not None:
            return offset + res[0], res[1]
    return None


# ---------------------------------------------------------------------------
# leading coefficient and initial conditions


class Inconclusive(GridProofError):
    pass


def _leading_root_bound(rec: Recurrence, n):
    """Largest positive integer root in n of the last recurrence coefficient,
    or None."""
    p = rec.coefficients[-1].restrict((n,))
    coeffs = [_as_fraction(c.as_constant()) if not c.is_zero() else Fraction(0)
              for c in p.to_univar(n)]
    try:
        roots = integer_roots_univar(coeffs)
    except ValueError:
        return None
    return max((r for r in roots if r > 0), default=None)


def leading_coeff_check(nid: NormalizedIdentity, J: int, seed: int,
                        max_order: int = 6):
    """Largest positive integer root of the leading recurrence coefficient,
    taken from the minimal telescoper of one random rational specialization
    of the parameters.

    Returns (n0 or None, specialization); the specialization used is
    recorded.  This does not bound the roots of the generic leading
    coefficient a_J of the order-J system the grid proved: the specialized
    minimal telescoper can have a lower order than J, or a different leading
    coefficient, so a positive integer root of a_J can be missed.  A
    parametric verdict therefore holds for generic values of the parameters,
    not for every value.
    """
    term = nid.delta_term
    if not nid.params:
        out = creative_telescope(term, max_order, k=nid.k, n=nid.n)
        if out is None:
            raise Inconclusive("no recurrence found for the summand")
        rec, _ = out
        return _leading_root_bound(rec, nid.n), {}
    rng = random.Random(seed * 1000003 + 17)
    last_error = None
    for attempt in range(5):
        point = {}
        for p in nid.params:
            sign = 1 if rng.random() < 0.5 else -1
            point[p] = Fraction(sign * rng.randint(1, 20), rng.randint(1, 20))
        try:
            g = term.substituted(point)
        except (ZeroDivisionError, TermError) as exc:
            last_error = exc
            continue
        if g.is_zero() or _degenerate_on_support(nid, g, point):
            continue
        out = creative_telescope(g, max_order, k=nid.k, n=nid.n)
        if out is None:
            raise Inconclusive(
                f"specialized run found no recurrence up to order {max_order}")
        rec, _ = out
        return _leading_root_bound(rec, nid.n), point
    raise Inconclusive(f"no usable parameter specialization found: {last_error}")


def _degenerate_on_support(nid, g, point) -> bool:
    """Specialized summand g = nid.delta_term.substituted(point) unusable for
    the telescoping run.

    Structural rejections: identically zero, or a denominator-side rising
    factorial / factorial / binomial whose argument lands on a terminating
    nonpositive integer: as a constant, or, for an argument that mentions a
    parameter, as an integer-coefficient form in n at some n >= 0 (the
    specialized summand is then undefined inside the window for small n).
    Sampled evaluation (where the point values are even defined, e.g. at
    integer parameters) only rejects an all-zero window; points the product
    formulas cannot evaluate are simply skipped, since the telescoping run
    itself is formal."""
    if g.is_zero():
        return True

    def bad(L: LinearForm, strict: bool) -> bool:
        # an integer value at some n >= 0 that is negative, or zero too
        # when not strict; a form in n counts only if L mentions a parameter
        S = L.substitute(point)
        if not integer_form(S) or any(s != nid.n for s in S.coeffs):
            return False
        if S.coeffs and not any(s in point for s in L.coeffs):
            return False
        return S.var_coeff(nid.n) < 0 or (S.const < 0 if strict else S.const <= 0)

    term = nid.delta_term
    for b, c, e in term.risings:
        if e < 0 and bad(b, strict=False):
            return True
    for a_, e in term.factorials:
        if e < 0 and bad(a_, strict=True):
            return True
    for u, l, e in term.binomials:
        if e < 0 and (bad(l, strict=True) or bad(u - l, strict=True)):
            return True
    nonzero = 0
    evaluable = 0
    for nv in range(0, 4):
        try:
            lo, hi = _window(nid, nv)
        except GridProofError:
            continue
        for kv in range(lo, min(hi, lo + 8) + 1):
            try:
                v = eval_summand(g, {nid.k: kv, nid.n: nv})
            except (EvalError, ZeroDivisionError):
                continue
            evaluable += 1
            if not v.is_zero():
                nonzero += 1
    return evaluable > 0 and nonzero == 0


def _window(nid: NormalizedIdentity, n_val: int):
    """Integer summation bounds at n = n_val: the declared limits, with a
    limit of all taken from that end of the natural support."""
    ends = [None if L is None else L.eval({nid.n: n_val})
            for L in (nid.lower, nid.upper)]
    if None in ends:
        if nid.params:
            raise GridProofError(
                "cannot determine a finite support with symbolic parameters; "
                "declare summation limits")
        support = natural_support(nid.fhat, {nid.n: n_val}, k=nid.k)
        ends = [s if e is None else e for e, s in zip(ends, support)]
        if None in ends:
            raise GridProofError(f"unbounded support at {nid.n} = {n_val}")
    if any(_as_fraction(e).denominator != 1 for e in ends):
        raise GridProofError("summation limits are not integers")
    return int(ends[0]), int(ends[1])


def _symbolic_sum(nid: NormalizedIdentity, term: TermExpression, n_val: int):
    lo, hi = _window(nid, n_val)
    remaining = tuple(s for s in term.symbols
                      if s not in (nid.k, nid.n))
    total = RationalFunction.constant(remaining, 0)
    for kv in range(lo, hi + 1):
        total = total + eval_summand(term, {nid.k: kv, nid.n: n_val})
    return total


def initial_conditions_check(nid: NormalizedIdentity, J: int,
                             n0: int | None) -> list:
    """Exact base cases for the induction, symbolic in the parameters.

    Checks n = 0 .. max(J-1, n0+J when n0 is present).  For a normalized
    identity the n = 0 entry also requires the undifferenced sum to equal 1;
    a zero right side requires the raw sums to vanish.  Returns
    [(label, n, passed), ...]; any False entry refutes the identity.
    """
    upto = J - 1
    if n0 is not None:
        upto = max(upto, n0 + J)
    checks = []
    if nid.rhs_is_zero:
        for nv in range(0, upto + 1):
            total = _symbolic_sum(nid, nid.fhat, nv)
            checks.append(("sum", nv, total.is_zero()))
        return checks
    sums = [_symbolic_sum(nid, nid.fhat, nv) for nv in range(0, upto + 2)]
    one = RationalFunction.constant(sums[0].vars, 1)
    checks.append(("base", 0, sums[0] == one))
    for nv in range(0, upto + 1):
        checks.append(("delta", nv, (sums[nv + 1] - sums[nv]).is_zero()))
    return checks


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


_PROBE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_PROBE_MAX_PARAMS = 4  # more parameters go straight to the symbolic attempt
_SMALL_CASES_UPTO = 4  # largest n the finite check compares


def _gosper_columns_independent(sys) -> bool:
    """The b columns of the system, the Gosper operator
    b -> q(k) b(k+1) - r(k-1) b(k), have full column rank at one of three
    integer points off matrix.avoid.  Full rank at one point proves them
    independent, so every kernel vector has some a_j != 0 and a vanishing
    determinant does give a telescoper.  False only means no probe showed it.
    """
    m = sys.matrix
    block = PolyMatrix([row[sys.ansatz.order + 1:] for row in m.entries])
    width = len(m.vars)
    values = {}
    for i, v in enumerate(m.vars):
        usable = [p for p in _PROBE_PRIMES if p not in m.avoid.get(v, ())]
        values[v] = [usable[(t * width + i) % len(usable)] for t in range(3)]
    # point t takes the t-th value of every variable
    diagonal = sorted({t * (3 ** width - 1) // 2 for t in range(3)})
    return any(_int_rank(a) == block.cols for _, _, a in
               _GridEvaluator(block, values).matrices(diagonal))


def _fast_path_feasible(nid: NormalizedIdentity) -> bool:
    """Gate for the symbolic Gosper attempt: probe an integer specialization
    first.  A failed probe means the symbolic run would fail too (a symbolic
    solution specializes to a solution almost everywhere); probes that cannot
    be evaluated are skipped and the symbolic attempt proceeds."""
    if not nid.params:
        return True
    if len(nid.params) > _PROBE_MAX_PARAMS:
        return True
    for attempt in range(2):
        point = {p: Fraction(_PROBE_PRIMES[attempt * len(nid.params) + i])
                 for i, p in enumerate(nid.params)}
        try:
            g = nid.delta_term.substituted(point)
        except (TermError, ZeroDivisionError):
            continue
        if g.is_zero() or _degenerate_on_support(nid, g, point):
            continue
        try:
            return gosper_antidifference(g, nid.k) is not None
        except TermError:
            continue
    return True


def _report_failure(checks):
    failed = [c for c in checks if not c[2]]
    return (f"exact initial check failed at {failed[0][0]} n={failed[0][1]}"
            if failed else "")


def _compare_small_cases(summand, rhs_terms, params, k, n, lower, upper,
                         certainty, seed) -> ProofReport:
    """Fallback when the right side cannot be normalized or the termination
    guard fails: compare both sides exactly for small n (symbolic in the
    parameters).  A mismatch is a refutation; agreement alone is
    inconclusive."""
    nid = NormalizedIdentity(summand, summand, tuple(params), k, n,
                             lower, upper, True,
                             RationalFunction.constant(summand.symbols, 1))
    checks = []
    for nv in range(0, _SMALL_CASES_UPTO + 1):
        diff = _symbolic_sum(nid, summand, nv)
        for t in rhs_terms:
            diff = diff - evaluate(t, {n: nv, k: 0})
        ok = diff.is_zero()
        checks.append(("identity", nv, ok))
        if not ok:
            return ProofReport(
                verdict="refuted", certainty=certainty, seed=seed,
                method="finite-check", initial_checks=checks,
                message=f"exact check failed at {n}={nv}")
    return ProofReport(
        verdict="inconclusive", certainty=certainty, seed=seed,
        method="finite-check", initial_checks=checks,
        message=("right side is not a single hypergeometric term; "
                 f"exact agreement verified for {n}=0..{_SMALL_CASES_UPTO} only"))


def _finish(report, checks):
    report.initial_checks = [[label, nv, ok] for label, nv, ok in checks]
    if not all(ok for _, _, ok in checks):
        report.verdict = "refuted"
        report.message = _report_failure(checks)
    return report


def prove(summand: TermExpression, rhs_terms, k, n, lower, upper, params,
          certainty=Fraction(1), seed: int = 0, max_order: int = 6,
          jobs: int = 1, fast_path: bool = True) -> ProofReport:
    """Prove sum_k summand = RHS (RHS zero allowed) for all integers n >= 0.

    Orchestrates: normalize and difference; require the summand to vanish
    outside the declared window (else only compare both sides exactly for
    small n); try the direct Gosper/WZ route; with no parameters run plain
    creative telescoping; otherwise escalate the recurrence order, replacing
    the symbolic solve by the grid vanishing test, then close with the
    leading-coefficient specialization and exact initial conditions; such a
    verdict holds for generic values of the parameters.  certainty 1 makes
    the grid stage exhaustive (rigorous); smaller values test that sampled
    fraction of the grid's points (semi-rigorous).  A term the routes cannot
    shift or evaluate (TermError) makes the verdict inconclusive.
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
    except NotNormalizable:
        return _compare_small_cases(summand, rhs_terms, params, k, n,
                                    lower, upper, certainty, seed)

    # every route below sums a telescoped equation over the declared window
    reason = _termination_guard(nid)
    if reason is not None:
        report = _compare_small_cases(summand, rhs_terms, params, k, n,
                                      lower, upper, certainty, seed)
        if report.verdict != "refuted":
            report.message = reason
        return report

    # ratio identically 1: the normalized sum is constant in n
    if not nid.rhs_is_zero and nid.ftil.is_zero():
        checks = initial_conditions_check(nid, 0, None)
        report = ProofReport(verdict="rigorous", certainty=certainty,
                             seed=seed, method="constant-ratio", order=0)
        return _finish(report, checks)

    g = nid.delta_term

    # WZ fast path: a direct Gosper antidifference of the differenced summand
    if fast_path and _fast_path_feasible(nid):
        try:
            cert_g = gosper_antidifference(g, k)
        except TermError:
            cert_g = None
        if cert_g is not None:
            mv = tuple(s for s in summand.symbols if s != k)
            if nid.rhs_is_zero:
                rec = Recurrence(0, (MultiPoly.constant(mv, 1),))
                R = cert_g.ratio
            else:
                rec = Recurrence(1, (MultiPoly.constant(mv, -1),
                                     MultiPoly.constant(mv, 1)))
                R = cert_g.ratio * (nid.n_ratio
                                    - RationalFunction.constant(summand.symbols, 1))
            if verify_certificate(nid.fhat, rec, Certificate(R), k=k, n=n):
                checks = initial_conditions_check(nid, 1, None)
                report = ProofReport(
                    verdict="rigorous", certainty=certainty, seed=seed,
                    method="gosper-wz", order=rec.order, degree=None,
                    recurrence=[str(c) for c in rec.coefficients],
                    certificate=str(R))
                return _finish(report, checks)

    # no parameters: plain creative telescoping on the differenced summand
    if not nid.params:
        out = creative_telescope(g, max_order, k=k, n=n)
        if out is None:
            return ProofReport(
                verdict="inconclusive", certainty=certainty, seed=seed,
                method="telescope",
                message=f"no telescoper found up to order {max_order}")
        rec, cert = out
        n0 = _leading_root_bound(rec, n)
        checks = initial_conditions_check(nid, rec.order, n0)
        sys = assemble(g, rec.order, k, n)
        report = ProofReport(
            verdict="rigorous", certainty=certainty, seed=seed,
            method="telescope", order=rec.order,
            degree=sys.ansatz.degree if sys else None,
            leading_root_bound=n0,
            recurrence=[str(c) for c in rec.coefficients],
            certificate=str(cert.ratio))
        return _finish(report, checks)

    # parameters present: determinant-vanishing on the degree-bounded grid
    last_witness = None
    for J in range(1, max_order + 1):
        sys = assemble(nid.delta_term, J, k=nid.k, n=nid.n)
        if sys is None:
            continue
        m = sys.matrix
        if m.rows < m.cols:
            res = VanishingResult(True, 0, 0, None)
        else:
            res = _rank_deficiency_test(m, certainty, seed, jobs=jobs)
        if not res.passed:
            last_witness = res.witness
            continue
        if not _gosper_columns_independent(sys):
            return ProofReport(
                verdict="inconclusive", certainty=certainty, seed=seed,
                method="determinant-grid", order=J, degree=sys.ansatz.degree,
                grid_total=res.grid_total, grid_tested=res.grid_tested,
                message=(f"order {J}: the Gosper-operator columns were not "
                         "shown independent, so a vanishing determinant "
                         "need not give a telescoper"))
        try:
            n0, specialization = leading_coeff_check(nid, J, seed, max_order)
        except Inconclusive as exc:
            return ProofReport(
                verdict="inconclusive", certainty=certainty, seed=seed,
                method="determinant-grid", order=J, degree=sys.ansatz.degree,
                grid_total=res.grid_total, grid_tested=res.grid_tested,
                message=str(exc))
        checks = initial_conditions_check(nid, J, n0)
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
            leading_root_bound=n0,
            specialization={p: str(v) for p, v in specialization.items()},
            message=shape)
        return _finish(report, checks)
    return ProofReport(
        verdict="inconclusive", certainty=certainty, seed=seed,
        method="determinant-grid", nonzero_point=last_witness,
        message=f"no order up to {max_order} passed the vanishing test")
