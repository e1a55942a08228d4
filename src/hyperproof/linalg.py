"""Exact linear algebra over polynomials: fraction-free elimination,
nullspaces over the rational-function field, numeric determinants, and
permanent-based determinant degree bounds.

Two fraction-free (Bareiss) elimination kernels carry every exact
elimination in the package: `_int_rank` on integer matrices (grid rank,
pivot rows, numeric determinants) and `_poly_eliminate` on `MultiPoly`
matrices (nullspaces, symbolic determinants and resultants).  One evaluator,
`_GridEvaluator`, computes a polynomial matrix at integer points for the
determinant grid and for `_univar_minors`, which interpolates minors in one
variable for the univariate nullspace shortcut and the leading-coefficient
check.  The grid first applies `_constant_pivots`' chain of constant pivots
without division, so the Bareiss exactness check stays with `_int_rank` on
the remainder; the pivot rows form a triangular block with nonzero constant
diagonal above zeros, so the rank is the chain length plus the remainder's.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple

from .polys import (
    MultiPoly, RationalFunction, _as_fraction, _poly_list_gcd,
    clear_denominators, common_denominator,
)
from .polys import poly_gcd  # noqa: F401  perfbench/tracer.py wraps it here


class PolyMatrix:
    """Rectangular matrix of polynomials over one shared variable list."""

    __slots__ = ("vars", "rows", "cols", "entries", "avoid")

    def __init__(self, entries, avoid=None):
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
        # integer values per variable that grid construction should step over
        self.avoid = avoid or {}

    def is_square(self):
        return self.rows == self.cols

    @classmethod
    def from_rows(cls, vars, rows, avoid=None):
        """Build from nested lists of polynomials/ints/Fractions."""
        vars = tuple(vars)
        out = []
        for row in rows:
            out.append([
                e if isinstance(e, MultiPoly) else MultiPoly.constant(vars, e)
                for e in row
            ])
        return cls(out, avoid=avoid)


def det_at_point(m: PolyMatrix, point: dict) -> Fraction:
    """Exact determinant of m evaluated at an integer/rational point.

    Each row of values is scaled to integers by its common denominator, the
    integer kernel eliminates fraction-free, and the result is divided by the
    product of the row scales; no rounding.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    a = []
    scale = 1
    for row in m.entries:
        vals = [_as_fraction(e.eval(point)) for e in row]
        den = lcm(*(v.denominator for v in vals))
        a.append([v.numerator * (den // v.denominator) for v in vals])
        scale *= den
    return Fraction(_int_det(a), scale)


def det_symbolic(m: PolyMatrix) -> MultiPoly:
    """Symbolic determinant by cofactor expansion (oracle; small matrices only)."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows

    def rec(rows, cols):
        if len(cols) == 1:
            return m.entries[rows[0]][cols[0]]
        total = MultiPoly.zero(m.vars)
        r = rows[0]
        for idx, c in enumerate(cols):
            sub = rec(rows[1:], cols[:idx] + cols[idx + 1:])
            term = m.entries[r][c] * sub
            total = total + term if idx % 2 == 0 else total - term
        return total

    return rec(tuple(range(n)), tuple(range(n)))


def solve_nullspace(m: PolyMatrix) -> list:
    """Basis of the right nullspace over the rational-function field.

    Fraction-free forward elimination, then back-substitution.  Basis vectors
    are normalized: denominators cleared, content removed, first nonzero
    coordinate made positive.  Empty list iff m has full column rank.

    Univariate matrices of corank <= 1 take an evaluation/interpolation
    shortcut (numeric cofactor minors at enough integer points, then exact
    interpolation), which avoids the coefficient blowup of the symbolic
    elimination; the interpolated vector is re-verified symbolically.
    """
    if len(m.vars) == 1 and m.cols >= 4:
        fast = _nullspace_univar(m)
        if fast is not None:
            return fast
    rows = [list(r) for r in m.entries]
    ncols = m.cols
    pivots, _ = _poly_eliminate(rows)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    one = RationalFunction.constant(m.vars, 1)
    zero = RationalFunction.constant(m.vars, 0)
    for fc in free_cols:
        vec = [zero] * ncols
        vec[fc] = one
        for pr, pc in reversed(pivots):
            s = zero
            for j in range(pc + 1, ncols):
                if not vec[j].is_zero() and not rows[pr][j].is_zero():
                    s = s + RationalFunction.from_poly(rows[pr][j]) * vec[j]
            vec[pc] = -(s / RationalFunction.from_poly(rows[pr][pc]))
        basis.append(_normalize_vector(vec))
    return basis


def _int_rank(a, order=None) -> int:
    """Rank of an integer matrix by fraction-free elimination (in place).

    Row swaps are applied to `order` too when it is given, so order[:rank]
    lists the pivot rows.  For a square matrix of full rank, a[-1][-1] ends as
    the determinant times the sign of the permutation `order`.  Every Bareiss
    division is checked to be exact.
    """
    rows = len(a)
    cols = len(a[0])
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


class PivotChain(NamedTuple):
    steps: list  # (row, column, target rows, live columns) per pivot, in order
    rows: list   # rows of the remainder
    cols: list   # columns of the remainder


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
    if _int_rank(a, order) < len(a):
        return 0
    return _permutation_sign(order) * a[-1][-1]


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


class _GridEvaluator:
    """Integer values of an integer polynomial matrix on sorted grid indices.

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

    def matrices(self, indices):
        """Yield (position, index, integer matrix) over the sorted index list."""
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
            yield pos, index, [[out[k] for k in row] for row in self.scatter]


def _integer_cleared(matrix: PolyMatrix) -> PolyMatrix:
    """Row-scale away rational coefficient denominators (positive constants,
    so rank and determinant vanishing are unchanged)."""
    dens = [common_denominator(row) for row in matrix.entries]
    if all(d == 1 for d in dens):
        return matrix
    return PolyMatrix([[p.scale(d) for p in row] if d != 1 else list(row)
                       for d, row in zip(dens, matrix.entries)], avoid=matrix.avoid)


def _poly_eliminate(rows):
    """Fraction-free forward elimination of a MultiPoly matrix (in place).

    Returns (pivots, sign): the (row, col) pivot positions in elimination
    order and the sign of the row permutation.  Every row below a pivot is
    transformed, even where its entry in the pivot column is zero, so that
    entries stay minors of the input and each division is exact.  For a
    square matrix with len(pivots) == size, sign * rows[-1][-1] is the
    determinant.
    """
    nrows, ncols = len(rows), len(rows[0])
    vars = rows[0][0].vars
    pivots = []
    sign = 1
    prev = MultiPoly.constant(vars, 1)
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            for j in range(c + 1, ncols):
                rows[i][j] = (rows[i][j] * piv - fi * rows[r][j]).divexact(prev)
            rows[i][c] = MultiPoly.zero(vars)
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots, sign


def clear_and_primitive(polys):
    """Strip the common polynomial factor and rational content from a list of
    polynomials; make the first nonzero one positively led.  Returns new list."""
    content = _poly_list_gcd(polys)
    if content is None:
        return list(polys)
    if not content.is_constant():
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


def _normalize_vector(vec):
    """Clear denominators, strip content, make the first nonzero entry positive."""
    _, polys = clear_denominators(vec[0].vars, vec)
    polys = clear_and_primitive(polys)
    return [RationalFunction.from_poly(p) for p in polys]


def _interpolate_int(values) -> list:
    """Coefficients of the polynomial with given values at nodes 0..len-1.

    Newton forward form over the integers, scaled by s = (n-1)!:
    s*f(x) = sum_m D^m f(0) * (s/m!) * x(x-1)...(x-m+1), with D the forward
    difference; the coefficients become Fractions only at the end.
    """
    n = len(values)
    if not n:
        return []
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
    s = factorial(n - 1)
    return [Fraction(c, s) for c in acc]


def _pivot_rows(a) -> list:
    """Sorted indices of rows of the integer matrix a that form a basis of its
    row space (a is left unchanged)."""
    order = list(range(len(a)))
    rank = _int_rank([list(row) for row in a], order)
    return sorted(order[:rank])


def _univar_minors(m: PolyMatrix, var, points, column_sets) -> list:
    """Per point (fixing every variable of m but var at an integer), the
    coefficient lists (ascending in var) of det m[:, cols] per column set.

    m is integer-cleared with len(cols) rows.  Every minor has degree at most
    the max-weight assignment on its entries' degrees in var, so it is
    evaluated at that many nodes 0, 1, ... and interpolated exactly.  The
    evaluator substitutes var last, so the nodes of one point share the
    substitution of the others, and point t takes the t-th value of each."""
    deg_rows = [[e.degree(var) for e in row] for row in m.entries]
    bound = 0
    for cols in column_sets:
        b = _max_assignment([[r[j] for j in cols] for r in deg_rows])
        if b is not None:
            bound = max(bound, b)
    nodes = list(range(bound + 1))
    order = tuple(v for v in m.vars if v != var) + (var,)
    last = PolyMatrix([[e.restrict(order) for e in row] for row in m.entries])
    values = {v: [p[v] for p in points] for v in order[:-1]}
    values[var] = nodes
    # index of (t-th value of every fixed variable, node j)
    stride = sum(len(points) ** i for i in range(len(order) - 1)) * len(nodes)
    indices = [t * stride + j for t in range(len(points)) for j in nodes]
    dets = [[[] for _ in column_sets] for _ in points]
    for pos, _, a in _GridEvaluator(last, values).matrices(indices):
        for out, cols in zip(dets[pos // len(nodes)], column_sets):
            out.append(_int_det([[r[j] for j in cols] for r in a]))
    return [[_interpolate_int(d) for d in per_point] for per_point in dets]


def _nullspace_univar(m: PolyMatrix):
    """Evaluation/interpolation nullspace for univariate matrices.

    Handles corank 0 (full column rank at some probe point) and corank 1
    (one basis vector, recovered as the cofactor vector of a well-chosen
    row subset).  Returns None to fall back to symbolic elimination.
    """
    var = m.vars[0]
    cleared = _integer_cleared(m)
    # probe the rank at a few points clear of small-integer coincidences
    best_pivots = []
    probes = _GridEvaluator(cleared, {var: [101, 137, 211]})
    for _, _, a in probes.matrices(range(3)):
        pivots = _pivot_rows(a)
        if len(pivots) > len(best_pivots):
            best_pivots = pivots
        if len(best_pivots) == m.cols:
            return []
    if len(best_pivots) < m.cols - 1:
        return None  # corank >= 2: fall back to the symbolic path
    sub = PolyMatrix([cleared.entries[i] for i in best_pivots])
    others = [[c for c in range(m.cols) if c != j] for j in range(m.cols)]
    vec = []
    vars = m.vars
    for j, coeffs in enumerate(_univar_minors(sub, var, [{}], others)[0]):
        sign = 1 if j % 2 == 0 else -1
        vec.append(MultiPoly.from_terms(
            vars, [((d,), sign * c) for d, c in enumerate(coeffs) if c]))
    if all(p.is_zero() for p in vec):
        return None
    # exact re-verification against every row of the full matrix
    for row in m.entries:
        s = MultiPoly.zero(vars)
        for e, p in zip(row, vec):
            s = s + e * p
        if not s.is_zero():
            return None
    vec = clear_and_primitive(vec)
    return [[RationalFunction.from_poly(p) for p in vec]]


class DegreeBoundResult(NamedTuple):
    degree: int
    structurally_zero: bool


def permanent_degree_bound(m: PolyMatrix, var) -> DegreeBoundResult:
    """Upper bound for the determinant's degree in `var`.

    Replace every entry by its leading term w.r.t. var and take the permanent;
    a permanent of monomials has no cancellation, so its degree bounds the
    determinant's.  Equivalently: maximum over permutations of the summed
    per-entry degrees, a max-weight perfect assignment on the degree matrix.
    Zero entries admit no assignment; if no perfect assignment exists the
    determinant is structurally zero and the flag is set.

    A matrix with more rows than columns is accepted: the assignment then
    ranges over every choice of rows, so the bound holds for every maximal
    square minor at once.  Fewer rows than columns raise ValueError.
    """
    degs = [[e.degree(var) for e in row] for row in m.entries]  # -1 marks zero
    best = _max_assignment(degs)
    if best is None:
        return DegreeBoundResult(0, True)
    return DegreeBoundResult(best, False)


def _max_assignment(degs) -> int | None:
    """Max-weight assignment choosing one entry per row, all columns distinct.

    Rows may outnumber columns (any subset of rows of matching size is allowed);
    weights of -1 mark forbidden entries.  Bitmask DP over column subsets.
    """
    nrows = len(degs)
    ncols = len(degs[0])
    if nrows < ncols:
        raise ValueError("need at least as many rows as columns")
    NEG = None
    full = (1 << ncols) - 1
    # dp[mask] = best weight using some rows so far covering exactly `mask`
    dp = {0: 0}
    for i in range(nrows):
        ndp = dict(dp)  # skipping row i is allowed when rows > cols
        row = degs[i]
        for mask, w in dp.items():
            for j in range(ncols):
                if mask & (1 << j) or row[j] < 0:
                    continue
                nm = mask | (1 << j)
                nw = w + row[j]
                if ndp.get(nm, -1) < nw:
                    ndp[nm] = nw
        if nrows == ncols:
            # every row must be used: states must have popcount == i+1
            ndp = {mask: w for mask, w in ndp.items()
                   if bin(mask).count("1") == i + 1}
        dp = ndp
        if not dp:
            return NEG
    return dp.get(full, NEG)
