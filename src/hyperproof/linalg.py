"""Exact linear algebra over polynomials: the nullspace over the
rational-function field, ranks and determinants at integer points, the
lower-set evaluation grid, and the max-weight assignment
(`_max_assignment`, the Hungarian method) that bounds the degrees of a
determinant, or of every maximal minor, on the weights of
`_weighted_degrees`.

One fraction-free (Bareiss) kernel on integers, `_int_rank`, carries every
exact elimination: rank probes, pivot rows, integer determinants
(`_int_det`), cofactor vectors, and the pivot-chain remainders too wide for
the compiled kernel's expansion.  The nullspace has one path, Brown's
evaluation and interpolation (`solve_nullspace`): each basis vector is the
cofactor vector of the pivot rows on the pivot columns and one free column,
evaluated at integer nodes and interpolated in one variable (with no
evaluation for a single pivot row), a matrix in several variables first
mapped to one by Kronecker substitution, and every vector is checked
exactly, by one big-integer evaluation per entry (`_annihilates`).  The
determinant grid takes its points from `_lower_set`, a lower set of
exponents cut out by weighted degree bounds, on `_grid_values` per
variable: consecutive integers centered at 0, since lower-set interpolation
needs only distinct nodes.

One evaluator, `_GridEvaluator`, computes a polynomial matrix at integer
points for the grid, the nullspace's probes and nodes, and
`_univar_minors`, the minors of the leading-coefficient check.  It packs
each matrix row into one integer, one signed B-bit lane per column, and
runs Horner's rule on whole rows.  `_GridEvaluator.kernel` compiles the
last variable's level and `_constant_pivots`' chain of constant pivots, as
division-free row operations on packed rows, into one straight-line
function per matrix, which ends in the remainder's determinant or rows.
Building it takes a few milliseconds for mrr's 9x9 order-2 system, repaid
over a scan of thousands of points, or over the hundred nodes of
`_univar_minors`; the other callers evaluate few points per matrix and
read the rows out (`_GridEvaluator.matrices`).  The grid scan also
compiles the level above the last variable's, which it runs again at
every new prefix of leading coordinates (`_GridEvaluator.compile_prefix`).
"""

from __future__ import annotations

import random
from array import array
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from operator import add, mul

from .polys import (
    MultiPoly, _dense_quotient, _poly_list_gcd,
    common_denominator, poly_gcd,
)


class PolyMatrix:
    """Rectangular matrix of polynomials over one shared variable list."""

    __slots__ = ("vars", "rows", "cols", "entries")

    def __init__(self, entries):
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        self.rows = len(entries)
        self.cols = len(entries[0])
        self.vars = entries[0][0].vars
        for row in entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.vars != self.vars:
                    raise ValueError("entries must share one variable list")
        self.entries = entries


# Rounds of seeded probe points solve_nullspace tries before it gives up,
# and the points of one round
_PROBE_ROUNDS = 4
_PROBE_POINTS = 3


def solve_nullspace(m: PolyMatrix) -> list:
    """Basis of the right nullspace over the rational-function field, as
    lists of polynomials: per free column f (one that depends on the columns
    before it) the primitive kernel vector that is zero past f and at the
    other free columns, first nonzero coordinate positively led.  Empty iff
    m has full column rank.

    By evaluation and interpolation (W. S. Brown, J. ACM 18, 1971): the
    vector of f is the cofactor vector of the pivot rows on the pivot
    columns and f (_probe, _cofactor_polys), checked exactly to vanish on
    every row and to end at f.  A probe reads at most m's rank, and m's
    pivot columns at that rank, so a check fails only where every point of
    a round was a root of a minor; then the next round probes new points,
    and after _PROBE_ROUNDS it raises ArithmeticError."""
    cleared = _integer_cleared(m)
    for round in range(_PROBE_ROUNDS):
        rows, pivots = _probe(cleared, round)
        basis = []
        for free in range(m.cols):
            if free in pivots:
                continue
            cols = sorted(pivots + [free])
            vec = [MultiPoly.zero(m.vars)] * m.cols
            vec[free] = MultiPoly.constant(m.vars, 1)  # stays so at rank 0
            if rows:
                sub = PolyMatrix([[cleared.entries[i][j] for j in cols]
                                  for i in rows])
                for j, p in zip(cols, _cofactor_polys(sub)):
                    vec[j] = p
            if not vec[free] or any(vec[free + 1:]) \
                    or not _annihilates(cleared, vec):
                break
            basis.append(vec)
        else:
            return basis
    raise ArithmeticError(f"no nullspace basis of a {m.rows}x{m.cols} matrix"
                          f" after {_PROBE_ROUNDS} rounds of rank probes")


def _probe(m: PolyMatrix, round: int = 0):
    """(rows, cols) of the integer-cleared m at the first point of highest
    rank of probe round `round` (_probe_values), up to the first of full
    rank: cols the pivot columns, each not a combination of those before
    it, and rows the first rows to raise the rank in ascending order of
    degree, then index, which keeps the degree bounds of the cofactors low.
    Both are sorted."""
    by_degree = sorted(range(m.rows), key=lambda i: (
        max(e.total_degree() for e in m.entries[i]), i))
    stride = sum(_PROBE_POINTS ** i for i in range(len(m.vars)))
    best = None
    for _, _, a in _GridEvaluator(m, _probe_values(m.vars, round)).matrices(
            [t * stride for t in range(_PROBE_POINTS)]):
        tp = [list(col) for col in zip(*(a[i] for i in by_degree))]
        rank = _int_rank(tp)
        if best is None or rank > best[0]:
            best = rank, a, tp
        if rank == min(m.rows, m.cols):
            break
    rank, a, tp = best
    rows = sorted(by_degree[next(j for j, x in enumerate(row) if x)]
                  for row in tp[:rank])
    echelon = [a[i] for i in rows]
    _int_rank(echelon)
    return rows, [next(j for j, x in enumerate(row) if x) for row in echelon]


def _probe_values(vars, round: int) -> dict:
    """{var: _PROBE_POINTS integers in 100..999}, drawn with
    random.Random(round): point t of probe round `round` gives each variable
    its t-th value."""
    rng = random.Random(round)
    return {v: [rng.randrange(100, 1000) for _ in range(_PROBE_POINTS)]
            for v in vars}


def _cofactor_polys(sub: PolyMatrix) -> list:
    """The cofactor vector of the r x (r+1) integer-cleared sub, primitive
    and positively led (_primitive_vector in one variable, else
    clear_and_primitive); zeros when it is zero.  size_i is 1 + the degree
    bound of the cofactors in x_i, an assignment of the columns to the rows.
    In other than one variable, sub is mapped to one by the Kronecker
    substitution x_i -> y^radices[i]: determinants commute with it, and
    every exponent of a cofactor lies in the box of the sizes, so each image
    coefficient maps back to one term.  A 1 x 2 sub [a, b] has the cofactor
    vector [b, -a], with no evaluation."""
    vars = sub.vars
    if sub.rows == 1:
        return clear_and_primitive([sub.entries[0][1], -sub.entries[0][0]])
    sizes = [(_max_assignment([[e.degree(v) for e in col]
                               for col in zip(*sub.entries)]) or 0) + 1
             for v in vars]
    if len(vars) == 1:
        vec = _cofactors(sub, sizes[0])
        return [_from_dense(p, vars) for p in _primitive_vector(vec, vars)] \
            if any(vec) else [MultiPoly.zero(vars)] * len(vec)
    radices = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    image = PolyMatrix([[MultiPoly.from_terms(("y",), [
        ((sum(map(mul, exp, radices)),), c) for exp, c in e.terms.items()])
        for e in row] for row in sub.entries])
    vec = [MultiPoly(vars, {tuple(_grid_digits(d, sizes)): c
                            for d, c in enumerate(p) if c})
           for p in _cofactors(image, prod(sizes))]
    return clear_and_primitive(vec) if any(vec) else vec


def _cofactors(sub: PolyMatrix, count: int) -> list:
    """The cofactor vector of the r x (r+1) integer univariate sub, of
    degree below count, times a nonzero constant, as ascending coefficient
    lists without trailing zeros.  Each node 0..count-1 runs the chain of
    constant pivots (_constant_pivots) on sub's values and takes the
    cofactor vector of the small remainder; the pivot rows, which no step
    changes, give the pivot coordinates by back-substitution without
    division, the vector scaled by each pivot in turn.  Each coordinate is
    interpolated on integers (_interpolate_scaled)."""
    nodes = list(range(count))
    chain = _constant_pivots(sub)
    steps = [(i, j, targets, live, sub.entries[i][j].as_constant())
             for i, j, targets, live in chain.steps]
    cofactors = []
    for _, _, a in _GridEvaluator(sub, {sub.vars[0]: nodes}).matrices(nodes):
        for i, j, targets, live, c in steps:
            pivot = a[i]
            for r in targets:
                row = a[r]
                f = row[j]
                for k in live:
                    row[k] = c * row[k] - f * pivot[k]
        vec = [0] * sub.cols
        rest = _cofactor_vector([[a[r][k] for k in chain.cols]
                                 for r in chain.rows])
        for k, x in zip(chain.cols, rest):
            vec[k] = x
        # pivot rows in reverse order, each zero in the pivot columns of the
        # steps before it: after scaling by c, vec[j] = -s zeroes row i's
        # sum (c*s - c*s) and leaves the later rows' sums zero
        for i, j, _, _, c in reversed(steps):
            s = sum(map(mul, a[i], vec))
            vec = [c * x for x in vec]
            vec[j] = -s
        cofactors.append(vec)
    vec = [_interpolate_scaled(values) for values in zip(*cofactors)]
    for p in vec:
        while p and not p[-1]:
            p.pop()
    return vec


def _annihilates(m: PolyMatrix, vec) -> bool:
    """Whether the integer m times the integer polynomial vector vec is
    zero, exactly: each row's sum under a Kronecker substitution (sizes
    past its every exponent) at y = 2^B, B one bit past the largest
    sum_j |e_j|_1 |v_j|_1 of a row, where a nonzero sum is nonzero."""
    sizes = [max(e.degree(v) for row in m.entries for e in row)
             + max(p.degree(v) for p in vec) + 1 for v in m.vars]
    radices = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    norms = [sum(map(abs, p.terms.values())) for p in vec]
    B = max(sum(sum(map(abs, e.terms.values())) * x
                for e, x in zip(row, norms))
            for row in m.entries).bit_length() + 1

    def at(p):  # x_i -> 2^(B radices[i])
        return sum(c << B * sum(map(mul, exp, radices))
                   for exp, c in p.terms.items())
    vec = [at(p) for p in vec]
    return not any(sum(at(e) * x for e, x in zip(row, vec))
                   for row in m.entries)


def _int_rank(a, order=None) -> int:
    """Rank of an integer matrix by fraction-free elimination (in place).

    Row swaps are applied to `order` too when it is given, so order[:rank]
    lists the pivot rows, and a[:rank] is an echelon form whose rows start at
    their pivots.  Every row below a pivot is transformed, so each entry stays
    a minor of the row-permuted input and each Bareiss division is exact;
    it is checked.  For a square matrix, a[-1][-1] ends as the determinant
    times the sign of the permutation `order`, and as a zero when the
    matrix is singular, since its last row is then zero.
    """
    rows = len(a)
    cols = len(a[0]) if a else 0
    r = 0
    prev = 1
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            if order is not None:
                order[r], order[piv] = order[piv], order[r]
        pv = a[r][c]
        for i in range(r + 1, rows):
            f = a[i][c]
            for j in range(c + 1, cols):
                q, rem = divmod(a[i][j] * pv - f * a[r][j], prev)
                if rem:
                    raise ArithmeticError("inexact fraction-free step")
                a[i][j] = q
            a[i][c] = 0
        prev = pv
        r += 1
        if r == rows:
            break
    return r


# steps: (row, column, target rows, live columns) per pivot, in order;
# rows and cols: the rows and columns of the remainder
PivotChain = namedtuple("PivotChain", ("steps", "rows", "cols"))


def _constant_pivots(matrix: PolyMatrix) -> PivotChain:
    """Division-free pivot chain on the constant entries of an integer
    polynomial matrix, read once before its values are ranked.

    Each pivot (i, j) has matrix[i][j] a nonzero constant c, and row i is
    structurally zero in every earlier pivot column, counting fill, so no
    step changes a pivot row.  A step sets row_r = c*row_r - f*row_i, f =
    row_r[j], on its targets (the other unpivoted rows structurally nonzero
    in column j) over its live (unpivoted) columns.  Fewest targets first,
    ties by row and column; the chain stops before the last column.
    """
    pattern = [{j for j, e in enumerate(row) if not e.is_zero()}
               for row in matrix.entries]
    free, live, steps = list(range(matrix.rows)), list(range(matrix.cols)), []
    while len(steps) < min(matrix.rows, matrix.cols) - 1:
        options = [(sum(j in pattern[r] for r in free) - 1, i, j)
                   for i in free if pattern[i].issubset(live)
                   for j in pattern[i] if matrix.entries[i][j].is_constant()]
        if not options:
            break
        _, i, j = min(options)
        free.remove(i)
        live = [c for c in live if c != j]
        targets = [r for r in free if j in pattern[r]]
        for r in targets:
            pattern[r] |= pattern[i]  # fill; j stays in as the mark of an update
        steps.append((i, j, targets, live))
    return PivotChain(steps, free, live)


def _int_det(a) -> int:
    """Determinant of a square integer matrix (eliminated in place)."""
    order = list(range(len(a)))
    _int_rank(a, order)
    return a[-1][-1] if _permutation_sign(order) > 0 else -a[-1][-1]


def _cofactor_vector(a) -> list:
    """[(-1)^j det a[:, all columns but j] for each j] of an r x (r+1)
    integer matrix a (eliminated in place): a kernel vector of a, zero when
    rank a < r.

    One elimination; at rank r its pivot columns give the coordinate of the
    free column, +-det a[:, pivots], and back-substitution on the echelon
    rows, bottom-up, the others.  Each is one division, checked to be
    exact: by Cramer's rule every coordinate is an integer."""
    r = len(a)
    order = list(range(r))
    vec = [0] * (r + 1)
    if _int_rank(a, order) < r:
        return vec
    pivots = [next(j for j, x in enumerate(row) if x) for row in a]
    free = next(j for j in range(r + 1) if j not in pivots)
    vec[free] = (-1) ** free * _permutation_sign(order) * a[-1][pivots[-1]]
    for row, p in zip(reversed(a), reversed(pivots)):
        q, rem = divmod(-sum(map(mul, row[p + 1:], vec[p + 1:])), row[p])
        if rem:
            raise ArithmeticError("inexact back-substitution")
        vec[p] = q
    return vec


def _permutation_sign(order) -> int:
    """Sign of `order` as a permutation of range(len(order))."""
    inversions = sum(x > y for i, x in enumerate(order) for y in order[i + 1:])
    return -1 if inversions % 2 else 1


def _grid_digits(index: int, sizes) -> list:
    """Mixed-radix digits of a grid index, most significant (vars[0]) first."""
    digits = []
    for size in reversed(sizes):
        index, d = divmod(index, size)
        digits.append(d)
    digits.reverse()
    return digits


def _weighted_degrees(p: MultiPoly, axes) -> list:
    """[max of w.e over the support of p, for w = 1 .. 2^len(axes) - 1]
    with bit b of the bitmask w weighing the exponent of p.vars[axes[b]];
    -1 each for the zero polynomial.  One walk over p's exponent columns:
    the sums of w are those of w minus its lowest bit plus that bit's
    column."""
    masks = range(1, 1 << len(axes))
    if not p.terms:
        return [-1] * len(masks)
    columns = list(zip(*p.terms))
    sums = [None]
    for w in masks:
        low = w & -w
        column = columns[axes[low.bit_length() - 1]]
        sums.append(column if w == low
                    else list(map(add, sums[w ^ low], column)))
    return [max(t) for t in sums[1:]]


def _grid_values(degree: int) -> list:
    """The grid nodes of one variable: degree + 1 consecutive integers
    centered at 0.  Lower-set interpolation needs only distinct nodes."""
    start = -(degree // 2)
    return list(range(start, start + degree + 1))


def _lower_set(bounds: dict) -> array:
    """Sorted box indices (mixed radix, vars[0] most significant, axis i of
    size bounds[1 << i] + 1) of the lower set {e >= 0 : sum of e_i over w <=
    h(w) for every (w, h) in bounds}, bounds keyed by the bitmask of w (bit i
    for vars[i]) and holding every unit weight, in an int64 array (a quarter
    of the memory of a list).  Each digit's range follows from the slack its
    prefix leaves in every bound; every prefix so reached extends by zeros,
    so no box point is visited in vain.  The walk runs on an explicit
    stack, its digits pushed highest first so that they pop in order."""
    out = array("q")
    if not bounds:
        out.append(0)
        return out
    sizes = [bounds[1 << i] + 1 for i in range(max(bounds).bit_length())]
    last = len(sizes) - 1
    masks = list(bounds)
    stack = [(0, 0, list(bounds.values()))]
    while stack:
        level, index, slack = stack.pop()
        bit = 1 << level
        top = min(s for m, s in zip(masks, slack) if m & bit)
        index *= sizes[level]
        if level == last:
            out.extend(range(index, index + top + 1))
            continue
        for d in range(top, -1, -1):
            stack.append((level + 1, index + d, [
                s - d if m & bit else s for m, s in zip(masks, slack)]))
    return out


# The widest square remainder whose determinant _GridEvaluator.kernel expands
# in line (_minor_expansion, n * 2^(n-1) - n products).  Measured against
# _int_rank on the read-out rows, on random integer matrices of full rank
# with 90-bit entries and of rank n - 1 with 30- and 90-bit entries (2-core
# x86_64, Python 3.11): the expansion is 2.4-3.2 times faster at 4 columns
# and 1.2-1.3 times at 7; at 8 _int_rank is faster.
_DET_WIDTH = 7


class _GridEvaluator:
    """Integer values of an integer polynomial matrix on sorted grid indices,
    one packed integer per matrix row.

    Row i is held as sum_j a_ij * 2^(B*j), one signed lane of B bits per
    column, as a polynomial in the variables with packed coefficients.
    Horner steps and the pivot chain's row_r = c*row_r - f*row_i are
    Z-linear in the lanes, so a packed row always equals sum_j v_j * 2^(B*j)
    for the true values v_j, and lane j reads out exactly as
    ((row + bias) >> B*j & mask) - 2^(B-1) whenever it and every lower lane
    lie in [-2^(B-1), 2^(B-1)).  B is fixed here from a bound on every value
    ever read out: sum |c| * prod max|node|^e over each entry's terms, grown
    by |c|*b_r + b_r[j]*b_i at each chain step, b_r the lane bounds of row r.

    Level L substitutes vars[L]: its input is one packed coefficient per
    (row, exponents of vars[L:]), every row keeping its constant term, and
    its output one per (row, exponents of vars[L+1:]), in sorted order.  It
    holds one gather list per exponent of vars[L], highest first, with -1
    reading the trailing 0 where a coefficient is absent, and Horner runs
    down them.  Consecutive sorted indices reuse the levels of their common
    digit prefix; inputs() yields the last level's input, which matrices()
    substitutes and reads out and kernel() compiles.  The level above it,
    levels[-2], runs again at every new prefix, so the grid scan has it
    compiled too (compile_prefix); every other caller, and every other
    level, runs the list comprehensions of _substitute, whose few calls
    would not repay a compile.
    """

    def __init__(self, matrix: PolyMatrix, values: dict, chain=None):
        self.values = [values[v] for v in matrix.vars]
        self.sizes = [len(axis) for axis in self.values]
        self.rows, self.cols = matrix.rows, matrix.cols
        self.chain = chain or PivotChain(
            [], list(range(matrix.rows)), list(range(matrix.cols)))
        self.pivots = [matrix.entries[i][j].as_constant()
                       for i, j, _, _ in self.chain.steps]
        tops = [max(map(abs, axis)) for axis in self.values]
        # prod max|node|^e once per distinct exponent tuple: mrr's order-2
        # M' has 2024 terms but only 128 distinct tuples
        weight = {exp: prod(map(pow, tops, exp)) for exp in {
            exp for row in matrix.entries for entry in row
            for exp in entry.terms}}
        bound = [[sum(abs(c) * weight[exp] for exp, c in entry.terms.items())
                  for entry in row] for row in matrix.entries]
        for (i, j, targets, _), c in zip(self.chain.steps, self.pivots):
            for r in targets:
                f = bound[r][j]
                bound[r] = [abs(c) * a + f * b
                            for a, b in zip(bound[r], bound[i])]
        self.lane = lane = max(map(max, bound)).bit_length() + 1
        packed = {(i,) + (0,) * len(tops): 0 for i in range(matrix.rows)}
        for i, row in enumerate(matrix.entries):
            for j, entry in enumerate(row):
                for exp, c in entry.terms.items():
                    assert type(c) is not Fraction, \
                        "grid entries must be integer-cleared"
                    key = (i,) + exp
                    packed[key] = packed.get(key, 0) + (c << lane * j)
        keys = sorted(packed)
        self.coefs = [packed[k] for k in keys] + [0]
        self.compiled = False  # compile_prefix()
        self.prefix = None  # the compiled last prefix level, once built
        self.levels = []
        for _ in matrix.vars:
            where = {k: t for t, k in enumerate(keys)}
            outs = sorted({(k[0],) + k[2:] for k in keys})
            top = max(k[1] for k in keys)
            self.levels.append([[where.get((o[0], e) + o[1:], -1)
                                 for o in outs] for e in range(top, -1, -1)])
            keys = outs

    def _substitute(self, level, v, src) -> list:
        gathers = self.levels[level]
        acc = [src[k] for k in gathers[0]]
        for gather in gathers[1:]:
            acc = [a * v + src[k] for a, k in zip(acc, gather)]
        acc.append(0)
        return acc

    def compile_prefix(self):
        """Have inputs() run the last prefix level, levels[-2], the one it
        runs again at every new leading prefix, as straight-line code
        (_compiled_prefix), built at the second distinct prefix, so that a
        scan that ends inside its first pays no compile.  With fewer than
        two variables inputs() meets one prefix at most and compiles
        nothing."""
        self.compiled = True

    def _compiled_prefix(self):
        """f(s, v) returning what _substitute(-2, v, s) does: one Horner
        chain per output, one line per step (_horner), the list closed by
        the trailing 0 that a -1 gather reads."""
        outs = list(zip(*self.levels[-2]))
        lines = ["def prefix(s, v):"]
        for o, slots in enumerate(outs):
            lines += _horner(f"o{o}", slots)
        lines.append(" return [" + "".join(f"o{o}, " for o in
                                           range(len(outs))) + "0]")
        return _compiled(lines, "prefix")

    def inputs(self, indices):
        """Yield (position, index, s, v) over the sorted index list: s the
        last level's input, v the last variable's value (s the packed rows
        and v 0 without variables).  Points that share every digit but the
        last share s.  After compile_prefix(), the last prefix level runs
        compiled from the second distinct prefix on; every other level runs
        _substitute."""
        if not self.levels:
            for pos, index in enumerate(indices):
                yield pos, index, self.coefs, 0
            return
        *sizes, size = self.sizes
        axis = self.values[-1]
        last = len(sizes) - 1
        stack = [self.coefs]  # stack[L] = values after substituting L vars
        digits = prefix = None
        for pos, index in enumerate(indices):
            head, d = divmod(index, size)
            if head != prefix:
                if self.compiled and self.prefix is None and prefix is not None:
                    self.prefix = self._compiled_prefix()
                prev, digits, prefix = digits, _grid_digits(head, sizes), head
                common = 0 if prev is None else next(
                    L for L, (a, b) in enumerate(zip(digits, prev)) if a != b)
                del stack[common + 1:]
                for level in range(common, len(sizes)):
                    v = self.values[level][digits[level]]
                    stack.append(
                        self.prefix(stack[level], v)
                        if level == last and self.prefix is not None
                        else self._substitute(level, v, stack[level]))
            yield pos, index, stack[-1], axis[d]

    def _read_out(self, high):
        """(bias, mask, half) that read out lanes 0..high of a packed row."""
        half = 1 << self.lane - 1
        bias = sum(half << self.lane * j for j in range(high + 1))
        return bias, (1 << self.lane) - 1, half

    def matrices(self, indices):
        """Yield (position, index, integer matrix) over the sorted index
        list, every lane read out."""
        bias, mask, half = self._read_out(self.cols - 1)
        shifts = range(0, self.lane * self.cols, self.lane)
        for pos, index, s, v in self.inputs(indices):
            rows = self._substitute(-1, v, s) if self.levels else s
            yield pos, index, [[(p >> t & mask) - half for t in shifts]
                               for p in (q + bias for q in rows[:self.rows])]

    @property
    def determinant(self) -> bool:
        """Whether kernel() ends in the remainder's determinant."""
        return len(self.chain.rows) == len(self.chain.cols) <= _DET_WIDTH

    def kernel(self):
        """Compile f(s, v), s and v as inputs() yields them: the chain's
        remainder at v, as its determinant when self.determinant, else as
        its rows (chain.rows x chain.cols) read out.

        Straight-line source, one line per step: Horner in v per packed row,
        one assignment per exponent; per chain step and target, f read out
        of the target and c*row - f*pivot row; the remainder's lanes read
        out; then the determinant by minors of the leading rows, without
        division (_minor_expansion).  It holds only slot indices, literals
        and generated names, and its nesting does not grow with any
        degree."""
        lane, chain = self.lane, self.chain
        lines = ["def kernel(s, v):"]
        for i in range(self.rows):
            lines += _horner(f"r{i}", [g[i] for g in self.levels[-1]]
                             if self.levels else [i])
        for (i, j, targets, _), c in zip(chain.steps, self.pivots):
            bias, mask, half = self._read_out(j)
            for r in targets:
                lines.append(f" f = ((r{r} + {bias}) >> {lane * j} & {mask})"
                             f" - {half}")
                lines.append(f" r{r} = {c} * r{r} - f * r{i}")
        bias, mask, half = self._read_out(max(chain.cols))
        for t, r in enumerate(chain.rows):
            lines.append(f" q = r{r} + {bias}")
            lines += [f" a{t}_{u} = (q >> {lane * k} & {mask}) - {half}"
                      for u, k in enumerate(chain.cols)]
        if self.determinant:
            lines += _minor_expansion(len(chain.cols))
        else:
            rows = ", ".join("[" + ", ".join(f"a{t}_{u}" for u in
                                             range(len(chain.cols))) + "]"
                             for t in range(len(chain.rows)))
            lines.append(f" return [{rows}]")
        return _compiled(lines, "kernel")


def _compiled(lines, name):
    """The function name that the source lines define, taken out of its
    globals so that the two form no reference cycle: the function and its
    code are freed with the evaluator, not by a later pass of the cyclic
    collector."""
    scope = {}
    exec(compile("\n".join(lines), f"<grid {name}>", "exec"), scope)
    return scope.pop(name)


def _horner(name, slots) -> list:
    """Source lines setting the local name to Horner's rule in v over the
    gathered coefficients s[k], k in slots, highest exponent first: leading
    absent slots (-1) are skipped and an inner one is a bare name *= v."""
    slots = slots[next(t for t, k in enumerate(slots) if k >= 0):]
    return [f" {name} = s[{slots[0]}]"] + [
        f" {name} = {name} * v + s[{k}]" if k >= 0 else f" {name} *= v"
        for k in slots[1:]]


def _minor_expansion(n: int) -> list:
    """Source lines returning the determinant of the n x n locals a{t}_{u}
    by minors of its leading rows, without division: m{S} is the minor on
    the first |S| rows and the columns of the bitmask S, each expanded along
    its last row from the minors one row smaller."""
    names = {1 << u: f"a0_{u}" for u in range(n)}
    lines = []
    for k in range(2, n + 1):
        for cols in combinations(range(n), k):
            mask = sum(1 << u for u in cols)
            terms = " ".join(f"{'-' if (k - 1 + t) % 2 else '+'} "
                             f"a{k - 1}_{u} * {names[mask ^ 1 << u]}"
                             for t, u in enumerate(cols))
            names[mask] = f"m{mask}"
            lines.append(f" m{mask} = {terms}")
    lines.append(f" return {names[(1 << n) - 1]}")
    return lines


def _integer_cleared(matrix: PolyMatrix) -> PolyMatrix:
    """Row-scale away rational coefficient denominators (positive constants,
    so rank and determinant vanishing are unchanged)."""
    dens = [common_denominator(row) for row in matrix.entries]
    if all(d == 1 for d in dens):
        return matrix
    return PolyMatrix([[p.scale(d) for p in row] if d != 1 else list(row)
                       for d, row in zip(dens, matrix.entries)])


def clear_and_primitive(polys):
    """Strip the common polynomial factor and rational content from a list of
    polynomials; make the first nonzero one positively led.  Returns new list.
    The factor is divided out as its primitive integer associate, so integer
    polynomials divide with integer quotients."""
    content = _poly_list_gcd(polys)
    if content is None:
        return list(polys)
    if not content.is_constant():
        content = content.primitive()[1]
        polys = [p.divexact(content) if not p.is_zero() else p for p in polys]
    num = 0
    den = 1
    for p in polys:
        c = p.content()
        num = gcd(num, c.numerator)
        den = lcm(den, c.denominator)
    scale = Fraction(num, den)
    first = next(p for p in polys if not p.is_zero())
    if first.leading_coeff() < 0:
        scale = -scale
    return [p.scale(1 / scale) for p in polys]


def _interpolate_scaled(values) -> list:
    """Integer coefficients of s*f, s = (n-1)!, for the polynomial f with
    the n given integer values at nodes 0..n-1.

    Newton forward form over the integers:
    s*f(x) = sum_m D^m f(0) * (s/m!) * x(x-1)...(x-m+1), with D the forward
    difference.
    """
    n = len(values)
    heads = []  # D^m f(0)
    diffs = list(values)
    while diffs:
        heads.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    acc = []
    w = 1  # s/m!
    for mth in range(n - 1, -1, -1):
        # acc := acc * (x - m) + w * D^m f(0)
        shifted = [0] + acc
        for i, c in enumerate(acc):
            shifted[i] -= mth * c
        shifted[0] += w * heads[mth]
        acc = shifted
        w *= mth
    return acc


def _pivot_rows(a) -> list:
    """Sorted indices of rows of the integer matrix a that form a basis of its
    row space (a is left unchanged)."""
    order = list(range(len(a)))
    rank = _int_rank([list(row) for row in a], order)
    return sorted(order[:rank])


def _univar_minors(m: PolyMatrix, var, points, cols) -> list:
    """Per point (fixing every variable of m but var at an integer), the
    integer coefficient list (ascending in var) of s * det m[:, cols], s a
    positive integer, the same at every point.

    m is integer-cleared with len(cols) rows.  The minor has degree at most
    the max-weight assignment on its entries' degrees in var, so it is
    evaluated at that many nodes 0, 1, ... and interpolated exactly on
    integers (_interpolate_scaled, s the factorial of the bound).  The
    evaluator substitutes var last, so the nodes of one point share the
    substitution of the others, and point t takes the t-th value of each.

    Each node runs the compiled kernel of the minor's chain of constant
    pivots (_constant_pivots, _GridEvaluator.kernel), which gives the
    remainder's determinant R, or its rows for _int_det when it is wider
    than _DET_WIDTH.  A step scales each of its targets by its pivot c_s and
    changes no pivot row, and the pivot rows and columns in step order,
    then the remainder's, make the result block triangular with diagonal
    c_1 .. c_p, R.  So det = sigma * R * prod c_s / prod c_s^|targets_s|,
    an exact division, sigma the signs of those row and column orders."""
    order = tuple(v for v in m.vars if v != var) + (var,)
    sub = PolyMatrix([[row[j].restrict(order) for j in cols]
                      for row in m.entries])
    bound = _max_assignment([[e.degree(var) for e in row]
                             for row in sub.entries])
    nodes = list(range((bound or 0) + 1))
    values = {v: [p[v] for p in points] for v in order[:-1]}
    values[var] = nodes
    # index of (t-th value of every fixed variable, node j)
    stride = sum(len(points) ** i for i in range(len(order) - 1)) * len(nodes)
    indices = [t * stride + j for t in range(len(points)) for j in nodes]
    chain = _constant_pivots(sub)
    evaluator = _GridEvaluator(sub, values, chain)
    kernel = evaluator.kernel()
    sign = _permutation_sign([i for i, _, _, _ in chain.steps] + chain.rows) \
        * _permutation_sign([j for _, j, _, _ in chain.steps] + chain.cols)
    scale = sign * prod(evaluator.pivots)
    divisor = prod(c ** len(targets) for c, (_, _, targets, _)
                   in zip(evaluator.pivots, chain.steps))
    dets = [[] for _ in points]
    for pos, _, s, v in evaluator.inputs(indices):
        out = kernel(s, v)
        det, rem = divmod(scale * (out if evaluator.determinant
                                   else _int_det(out)), divisor)
        if rem:
            raise ArithmeticError("inexact pivot-chain minor")
        dets[pos // len(nodes)].append(det)
    return [_interpolate_scaled(d) for d in dets]


def _from_dense(coeffs, vars) -> MultiPoly:
    """The univariate polynomial over vars with the ascending coefficient
    list coeffs."""
    return MultiPoly(vars, {(d,): c for d, c in enumerate(coeffs) if c})


def _dense_quotients(vec, g):
    """[p / g for p in vec] on ascending integer coefficient lists without
    trailing zeros, g divided out as its primitive integer associate, or
    None when one division leaves a remainder."""
    if g.is_constant():
        return vec
    b = [0] * (g.degree(g.vars[0]) + 1)
    for (d,), c in g.primitive()[1].terms.items():
        b[d] = c
    try:
        return [_dense_quotient(a, b) for a in vec]
    except ArithmeticError:
        return None


def _primitive_vector(vec, vars) -> list:
    """vec (ascending integer coefficient lists without trailing zeros, not
    all zero) as clear_and_primitive leaves it: divided by its integer
    content, then by the gcd of its entries as an integer primitive
    polynomial (which, by Gauss's lemma, leaves the content 1), the first
    nonzero entry positively led.

    The gcd is taken of the first nonzero entry and one combination of the
    others with the fixed multipliers 1, 2, 3, ...: a multiple of the gcd of
    all entries, and so that gcd when it divides every entry.  When one
    exact division fails, the gcd of all entries is taken (_poly_list_gcd).
    """
    c = gcd(*(x for p in vec for x in p))
    vec = [[x // c for x in p] for p in vec]
    first, *others = [p for p in vec if p]
    mix = [0] * max(map(len, others), default=0)
    for t, p in enumerate(others, 1):
        for d, x in enumerate(p):
            mix[d] += t * x
    quotients = _dense_quotients(vec, poly_gcd(_from_dense(first, vars),
                                               _from_dense(mix, vars)))
    if quotients is None:
        quotients = _dense_quotients(vec, _poly_list_gcd(
            [_from_dense(p, vars) for p in vec]))
    if next(p for p in quotients if p)[-1] < 0:
        return [[-x for x in p] for p in quotients]
    return quotients


_INF = float("inf")  # the slack of a row no path has reached yet


def _max_assignment(degs) -> int | None:
    """Max-weight assignment choosing one entry per column, all rows distinct.

    Rows may outnumber columns (any subset of rows of matching size is
    allowed); weights of -1 mark forbidden entries, and the result is None
    when every assignment uses one.  The Hungarian method by shortest
    augmenting paths (H. W. Kuhn, Naval Res. Logist. Q. 2, 1955; R. Jonker
    and A. Volgenant, Computing 38, 1987), O(c^2 r) for c columns and r
    rows: each column in turn is placed along a shortest alternating path
    of reduced costs under integer potentials.  A cost is a negated weight,
    and a forbidden entry costs 1 + the sum of the positive weights, more
    than any assignment can gain, so the optimum uses one only when no
    valid assignment exists.
    """
    nrows, ncols = len(degs), len(degs[0])
    if nrows < ncols:
        raise ValueError("need at least as many rows as columns")
    forbidden = 1 + sum(w for row in degs for w in row if w > 0)
    cost = [[-w if w >= 0 else forbidden for w in col] for col in zip(*degs)]
    # 1-based: owner[j] is the column placed in row j, 0 for none; row 0 is
    # the start of each path, owner[0] the column being placed
    u, v = [0] * (ncols + 1), [0] * (nrows + 1)
    owner, way = [0] * (nrows + 1), [0] * (nrows + 1)
    rows = range(1, nrows + 1)
    for col in range(1, ncols + 1):
        owner[0], j0 = col, 0
        slack = [_INF] * (nrows + 1)
        used = [False] * (nrows + 1)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            c, ui = cost[i0 - 1], u[i0]
            delta, j1 = _INF, 0
            for j in rows:
                if not used[j]:
                    reduced = c[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(nrows + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    weights = [degs[j - 1][owner[j] - 1] for j in rows if owner[j]]
    return None if min(weights, default=0) < 0 else sum(weights)
