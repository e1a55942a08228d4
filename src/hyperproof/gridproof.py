"""Proof orchestration for definite hypergeometric identities.

Normalizes sum F = RHS to sum Fhat = 1 and differences it (dropping the
recurrence order by one), then proves existence of a telescoping recurrence
without solving the symbolic system: the system matrix is square (or handled
by rank on maximal minors), its determinant is a polynomial with permanent-
bounded degrees, and vanishing on a full tensor grid of integer points is
conclusive.  Certainty < 1 tests a sampled fraction of that grid.  The
leading-coefficient specialization check and exact initial conditions close
the induction.

Grid points are visited in sorted index order, the first of matrix.vars the
most significant digit.  Each point substitutes one variable per level by
Horner's rule over flat, ragged coefficient arrays (see _GridEvaluator),
reusing the levels of the digit prefix it shares with the previous point, and
ends in one call of the integer rank kernel _int_rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .factored import integer_roots_univar
from .gosper import gosper_antidifference
from .linalg import PolyMatrix, _int_rank, permanent_degree_bound
from .polys import MultiPoly, RationalFunction, _as_fraction, common_denominator
from .telescope import (
    Certificate, Recurrence, assemble, creative_telescope, verify_certificate,
)
from .terms import (
    EvalError, LinearForm, TermError, TermExpression, eval_summand, evaluate,
    natural_support, shift_quotient,
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


def _grid_digits(index: int, sizes) -> list:
    """Mixed-radix digits of a grid index, most significant (vars[0]) first."""
    digits = []
    for size in reversed(sizes):
        index, d = divmod(index, size)
        digits.append(d)
    digits.reverse()
    return digits


def _grid_point(vars, values: dict, index: int) -> dict:
    """The grid point with the given index, as {var: value} in vars order."""
    axes = [values[v] for v in vars]
    digits = _grid_digits(index, [len(axis) for axis in axes])
    return {v: axis[d] for v, axis, d in zip(vars, axes, digits)}


class _GridEvaluator:
    """Rank test of an integer polynomial matrix on sorted grid indices.

    Ragged Horner layout.  Before level L, the values are one list over
    "slots" (entry position, exponents of vars[L:]), followed by a 0 that
    absent terms index as -1.  Level L substitutes vars[L]: its output slots
    are (position, exponents of vars[L+1:]), sorted by their degree in
    vars[L], highest first, so the coefficient block of each exponent is a
    prefix of them.  A block is a gather list into the level's input and
    Horner runs down the blocks.  The last level's output is gathered into
    the rows x cols matrix.  Consecutive sorted indices reuse the levels of
    their common digit prefix.
    """

    def __init__(self, matrix: PolyMatrix, values: dict):
        self.values = [values[v] for v in matrix.vars]
        self.sizes = [len(axis) for axis in self.values]
        self.cols = matrix.cols
        coefs = []
        slots = []
        for i, row in enumerate(matrix.entries):
            for j, entry in enumerate(row):
                for exp, c in entry.terms.items():
                    assert not isinstance(c, Fraction), \
                        "grid entries must be integer-cleared"
                    coefs.append(c)
                    slots.append((i * self.cols + j,) + exp)
        self.coefs = coefs + [0]
        # per level, highest exponent first: (block, its part beyond the
        # previous block)
        self.levels = []
        for _ in matrix.vars:
            where = {s: k for k, s in enumerate(slots)}
            degree = {}
            for s in slots:
                out = (s[0],) + s[2:]
                degree[out] = max(degree.get(out, 0), s[1])
            slots = sorted(degree, key=degree.get, reverse=True)
            blocks = []
            for e in range(max(degree.values(), default=0), -1, -1):
                width = sum(1 for s in slots if degree[s] >= e)
                blocks.append([where.get((s[0], e) + s[1:], -1)
                               for s in slots[:width]])
            self.levels.append([(blk, blk[len(prev):])
                                for prev, blk in zip([[]] + blocks, blocks)])
        where = {s[0]: k for k, s in enumerate(slots)}
        self.scatter = [[where.get(i * self.cols + j, -1)
                         for j in range(self.cols)]
                        for i in range(matrix.rows)]

    def full_rank_indices(self, indices):
        """Yield (position, index, full_rank) over the sorted index list."""
        depth = len(self.levels)
        prev_digits = None
        stack = [self.coefs]  # stack[L] = values after substituting L vars
        for pos, index in enumerate(indices):
            digits = _grid_digits(index, self.sizes)
            common = 0
            if prev_digits is not None:
                while common < depth and digits[common] == prev_digits[common]:
                    common += 1
            del stack[common + 1:]
            for level in range(common, depth):
                v = self.values[level][digits[level]]
                src = stack[level]
                acc = []
                for blk, tail in self.levels[level]:
                    acc = [a * v + src[k] for a, k in zip(acc, blk)]
                    acc += [src[k] for k in tail]
                acc.append(0)
                stack.append(acc)
            prev_digits = digits
            out = stack[-1]
            numeric = [[out[k] for k in row] for row in self.scatter]
            yield pos, index, _int_rank(numeric) == self.cols


def _integer_cleared(matrix: PolyMatrix) -> PolyMatrix:
    """Row-scale away rational coefficient denominators (positive constants,
    so rank and determinant vanishing are unchanged)."""
    dens = [common_denominator(row) for row in matrix.entries]
    if all(d == 1 for d in dens):
        return matrix
    return PolyMatrix([[p.scale(d) for p in row] if d != 1 else list(row)
                       for d, row in zip(dens, matrix.entries)], avoid=matrix.avoid)


def _grid_chunk_worker(args):
    """Evaluate one contiguous chunk of sorted grid indices in a subprocess;
    returns (local position of the first full-rank point, its index) or None."""
    vars, entry_terms, values, indices, cols = args
    entries = [[MultiPoly(tuple(vars), dict(t)) for t in row]
               for row in entry_terms]
    matrix = PolyMatrix(entries)
    ev = _GridEvaluator(matrix, values)
    for pos, index, full_rank in ev.full_rank_indices(indices):
        if full_rank:
            return pos, index
    return None


def _rank_deficiency_test(matrix: PolyMatrix, certainty, seed: int,
                          jobs: int = 1) -> VanishingResult:
    """Grid test shared by the square and overdetermined cases: passes iff the
    matrix has rank < cols at every tested point.  For a square matrix that is
    exactly the vanishing of the determinant; in general it is the vanishing
    of every maximal square minor, each of which obeys the same per-variable
    degree bounds (the rectangular assignment maximizes over all of them)."""
    matrix = _integer_cleared(matrix)
    values = {}
    for v in matrix.vars:
        bound = permanent_degree_bound(matrix, v)
        if bound.structurally_zero:
            # no assignment at all: every maximal minor is structurally zero
            return VanishingResult(True, 0, 0, None)
        values[v] = _grid_values(bound.degree, matrix.avoid.get(v, set()))
    total = 1
    for v in matrix.vars:
        total *= len(values[v])
    certainty = _as_fraction(certainty)
    count = total if certainty == 1 else ceil(certainty * total)
    count = max(1, min(count, total))
    if count < total:
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(total), count))
    else:
        indices = list(range(total))
    if jobs > 1 and count > 256:
        hit = _parallel_scan(matrix, values, indices, jobs)
    else:
        ev = _GridEvaluator(matrix, values)
        hit = None
        for pos, index, full_rank in ev.full_rank_indices(indices):
            if full_rank:
                hit = (pos, index)
                break
    if hit is not None:
        pos, index = hit
        return VanishingResult(False, total, pos + 1,
                               _grid_point(matrix.vars, values, index))
    return VanishingResult(True, total, count, None)


def _parallel_scan(matrix, values, indices, jobs):
    """Chunked multi-process scan; the reported hit is the grid-order-first
    full-rank point regardless of completion order."""
    from concurrent.futures import ProcessPoolExecutor
    entry_terms = [[e.terms for e in row] for row in matrix.entries]
    n = len(indices)
    jobs = min(jobs, n)
    bounds = [(i * n) // jobs for i in range(jobs + 1)]
    chunks = []
    for i in range(jobs):
        chunk = indices[bounds[i]:bounds[i + 1]]
        if chunk:
            chunks.append((bounds[i],
                           (list(matrix.vars), entry_terms, values, chunk,
                            matrix.cols)))
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_grid_chunk_worker,
                                    [args for _, args in chunks]))
    except (OSError, ImportError):
        results = [_grid_chunk_worker(args) for _, args in chunks]
    best = None
    for (offset, _), res in zip(chunks, results):
        if res is not None:
            pos, index = res
            if best is None or offset + pos < best[0]:
                best = (offset + pos, index)
    return best


def vanishing_test(matrix: PolyMatrix, certainty, seed: int,
                   jobs: int = 1) -> VanishingResult:
    """Determinant-vanishing test on the degree-bounded integer grid.

    Grid: per variable v, d_v + 1 distinct integers centered at 0 (stepping
    over degenerate values), d_v the permanent degree bound.  Tests
    ceil(certainty * total) points, all of them at certainty 1; vanishing on
    the full grid proves det = 0 identically, since a nonzero polynomial of
    degree d_v in each v cannot vanish on such a tensor grid.  A nonzero
    value aborts the scan and is reported as a witness (grid-order-first).
    """
    if not matrix.is_square():
        raise ValueError("vanishing test needs a square system matrix")
    return _rank_deficiency_test(matrix, certainty, seed, jobs=jobs)


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
    determined on a random rational specialization of the parameters.

    Returns (n0 or None, specialization).  If a root (n - n0) existed in the
    symbolic leading coefficient it survives every specialization, so checking
    one specialized run suffices; the specialization used is recorded.
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
        if not _integer_form(S) or any(s != nid.n for s in S.coeffs):
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
    if nid.lower is not None and nid.upper is not None:
        lo = nid.lower.eval({nid.n: n_val})
        hi = nid.upper.eval({nid.n: n_val})
        if _as_fraction(lo).denominator != 1 or _as_fraction(hi).denominator != 1:
            raise GridProofError("summation limits are not integers")
        return int(lo), int(hi)
    if nid.params:
        raise GridProofError(
            "cannot determine a finite support with symbolic parameters; "
            "declare summation limits")
    lo, hi = natural_support(nid.fhat, {nid.n: n_val}, k=nid.k)
    if lo is None or hi is None:
        raise GridProofError(f"unbounded support at {nid.n} = {n_val}")
    return lo, hi


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


def _integer_form(L: LinearForm) -> bool:
    return _as_fraction(L.const).denominator == 1 and \
        all(_as_fraction(c).denominator == 1 for c in L.coeffs.values())


def _covers_ray(cond_pairs, k, edge: LinearForm, direction: int) -> bool:
    """All conditions hold on the integer ray {k = edge + direction*t, t>=0}.

    Each condition (L, op) requires L <= -1 (op '-') or L >= 0 (op '+') on the
    whole ray, given every non-k symbol >= 0."""
    for L, op in cond_pairs:
        alpha = _as_fraction(L.var_coeff(k))
        rest = LinearForm({s: c for s, c in L.coeffs.items() if s != k}, L.const)
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
    the declared window; otherwise a reason string.  Without this coverage the
    telescoping argument does not apply to the windowed sum."""
    f = nid.fhat
    k = nid.k
    if nid.lower is None or nid.upper is None:
        # no declared window: the sum runs over the natural support, which
        # must at least be bounded on both sides by some forcing rule
        lo_edge = hi_edge = None
    else:
        lo_edge = nid.lower.add_const(-1)   # zero needed for k <= lower - 1
        hi_edge = nid.upper.add_const(1)    # zero needed for k >= upper + 1

    def covered(direction, edge) -> bool:
        for u, l, e in f.binomials:
            if e <= 0:
                continue
            if _integer_form(l):
                if edge is None:
                    if _as_fraction(l.var_coeff(k)) * direction < 0:
                        return True
                elif _covers_ray([(l, "-")], k, edge, direction):
                    return True
            if _integer_form(u):
                conds = [(u, "+"), (u - l, "-")]
                if edge is None:
                    au = _as_fraction(u.var_coeff(k))
                    ad = _as_fraction((u - l).var_coeff(k))
                    if au * direction >= 0 and ad * direction < 0:
                        return True
                elif _covers_ray(conds, k, edge, direction):
                    return True
        for b, c, e in f.risings:
            if e <= 0 or not _integer_form(b):
                continue
            conds = [(b.add_const(-1), "-"), ((b + c).add_const(-1), "+")]
            if edge is None:
                ab = _as_fraction(b.var_coeff(k))
                ac = _as_fraction((b + c).var_coeff(k))
                if ab * direction <= 0 and ac * direction >= 0 and \
                        not (ab == 0 and ac == 0):
                    return True
            elif _covers_ray(conds, k, edge, direction):
                return True
        for a_, e in f.factorials:
            if e >= 0 or not _integer_form(a_):
                continue
            if edge is None:
                if _as_fraction(a_.var_coeff(k)) * direction < 0:
                    return True
            elif _covers_ray([(a_, "-")], k, edge, direction):
                return True
        return False

    if not covered(-1, lo_edge):
        return ("summand is not forced to vanish below the lower limit; "
                "the telescoping argument does not apply to this window")
    if not covered(+1, hi_edge):
        return ("summand is not forced to vanish above the upper limit; "
                "the telescoping argument does not apply to this window")
    return None


# ---------------------------------------------------------------------------
# orchestration


_PROBE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_PROBE_MAX_PARAMS = 4  # more parameters go straight to the symbolic attempt
_SMALL_CASES_UPTO = 4  # largest n the finite check compares


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


def _finish(nid, report, checks):
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
    leading-coefficient specialization and exact initial conditions.
    certainty 1 makes the grid stage exhaustive (rigorous); smaller values
    test that sampled fraction (semi-rigorous).
    """
    certainty = _as_fraction(certainty)
    if not (0 < certainty <= 1):
        raise ValueError("certainty must be in (0, 1]")
    try:
        return _prove_inner(summand, rhs_terms, k, n, lower, upper, params,
                            certainty, seed, max_order, jobs, fast_path)
    except NotNormalizable:
        raise
    except GridProofError as exc:
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
        return _finish(nid, report, checks)

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
                return _finish(nid, report, checks)

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
        return _finish(nid, report, checks)

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
        report = ProofReport(
            verdict=verdict, certainty=certainty, seed=seed,
            method="determinant-grid", order=J, degree=sys.ansatz.degree,
            grid_total=res.grid_total, grid_tested=res.grid_tested,
            leading_root_bound=n0,
            specialization={p: str(v) for p, v in specialization.items()},
            message=shape)
        return _finish(nid, report, checks)
    return ProofReport(
        verdict="inconclusive", certainty=certainty, seed=seed,
        method="determinant-grid", nonzero_point=last_witness,
        message=f"no order up to {max_order} passed the vanishing test")
