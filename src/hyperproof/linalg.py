"""Exact linear algebra over polynomials: fraction-free elimination,
nullspaces over the rational-function field, determinants, the lower-set
evaluation grid, and the max-weight assignment (`_max_assignment`, the
Hungarian method, polynomial in the matrix size) that bounds the degrees
of a determinant, or of every maximal minor, on the weights of
`_weighted_degrees`.

One fraction-free (Bareiss) elimination kernel, `_int_rank`, carries every
exact elimination in the package: the rank and determinant of pivot-chain
remainders too wide for the compiled kernel's expansion, pivot rows,
integer determinants (`_int_det`), cofactor vectors, and the symbolic
nullspace, its one use on `MultiPoly` matrices (`MultiPoly.__divmod__`
divides exactly or raises).  One back-substitution, `_back_substitute`,
solves the echelon rows it leaves for a kernel vector with checked exact
divisions.  One evaluator, `_GridEvaluator`, computes a polynomial matrix
at integer points for the determinant grid, for the univariate nullspace
shortcut (per node, the chain of constant pivots on integer lists and the
`_cofactor_vector` of its small remainder, the pivot coordinates
back-substituted), and for `_univar_minors`, which interpolates one minor
in one variable for the leading-coefficient check from its compiled
pivot-chain kernel.  The determinant grid takes its points from
`_lower_set`, the points of a lower set of exponents cut out by weighted
degree bounds, on `_grid_values` per variable: the one node rule,
consecutive integers centered at 0, since lower-set interpolation needs
only distinct nodes.

The evaluator packs each matrix row into one integer, sum_j a_ij 2^(B*j),
one signed B-bit lane per column, and runs Horner's rule on whole rows.
Every operation on packed rows is Z-linear in the lanes, so a lane reads
out exactly whenever it and every lower lane lie in [-2^(B-1), 2^(B-1));
B is fixed at construction from a bound on every value ever read out.  For
the grid only, `_GridEvaluator.kernel` compiles the last variable's Horner
level and `_constant_pivots`' chain of constant pivots, as division-free
row operations on packed rows, into one straight-line function per matrix.
The pivot rows form a triangular block with nonzero constant diagonal above
zeros, so the rank is the chain length plus the remainder's; the function
ends in the remainder's determinant, expanded by minors without division,
when the remainder is square and at most _DET_WIDTH wide (beyond that the
expansion's n 2^(n-1) products lose to Bareiss's cubic count, measured),
and otherwise returns its rows for `_int_rank`.  Its updates are
unconditional: where f = 0, row_r = c*row_r only scales the row by the
nonzero constant c, which keeps the rank.  Building it takes a few
milliseconds for mrr's 9x9 order-2 system, repaid over a scan of thousands
of points, or over the hundred nodes of `_univar_minors`, which divides
the known pivot powers back out; the other callers evaluate few points per
matrix and read the rows out (`_GridEvaluator.matrices`).  The grid scan
also compiles the level above the last variable's, which it runs again at
every new prefix of leading coordinates (`_GridEvaluator.compile_prefix`).
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import add, mul
from typing import NamedTuple

from .polys import (
    MultiPoly, RationalFunction, _dense_quotient, _poly_list_gcd,
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


def solve_nullspace(m: PolyMatrix) -> list:
    """Basis of the right nullspace over the rational-function field.

    One fraction-free elimination of m, then per free column (one without a
    pivot) one back-substitution from the last pivot at that column and
    zeros at the other free columns.  The last pivot is the determinant of
    the pivot block, so by Cramer's rule the pivot coordinates are
    polynomials, each one exact division.  Basis vectors are normalized:
    content removed, first nonzero coordinate made positive.  Empty list iff
    m has full column rank.

    Univariate matrices with at least 4 columns first try an
    evaluation/interpolation shortcut (_nullspace_univar: per node, a
    cofactor vector through the chain of constant pivots of the rows of
    lowest degree; then exact interpolation on integers, the primitive
    vector re-verified exactly against every row), kept because it is
    faster there than the symbolic path.
    """
    if len(m.vars) == 1 and m.cols >= 4:
        fast = _nullspace_univar(m)
        if fast is not None:
            return fast
    a = [list(r) for r in m.entries]
    echelon = a[:_int_rank(a)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in echelon]
    value = echelon[-1][pivots[-1]] if echelon else MultiPoly.constant(m.vars, 1)
    basis = []
    for free in range(m.cols):
        if free not in pivots:
            vec = [MultiPoly.zero(m.vars)] * m.cols
            _back_substitute(echelon, pivots, vec, free, value)
            basis.append([RationalFunction.from_poly(p)
                          for p in clear_and_primitive(vec)])
    return basis


def _int_rank(a, order=None) -> int:
    """Rank of an integer or MultiPoly matrix by fraction-free elimination
    (in place).

    Row swaps are applied to `order` too when it is given, so order[:rank]
    lists the pivot rows, and a[:rank] is an echelon form whose rows start at
    their pivots.  Every row below a pivot is transformed, so each entry stays
    a minor of the row-permuted input and each Bareiss division is exact;
    it is checked.  For a square matrix, a[-1][-1] ends as the determinant
    times the sign of the permutation `order`, and as a zero when the
    matrix is singular, since its last row is then zero.  An eliminated
    entry is set to f - f, a zero of the entries' type.
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
            a[i][c] = f - f
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


def _int_det(a):
    """Determinant of a square integer or MultiPoly matrix (eliminated in
    place), of the entries' type."""
    order = list(range(len(a)))
    _int_rank(a, order)
    return a[-1][-1] if _permutation_sign(order) > 0 else -a[-1][-1]


def _cofactor_vector(a) -> list:
    """[(-1)^j det a[:, all columns but j] for each j] of an r x (r+1)
    integer matrix a (eliminated in place): a kernel vector of a, zero when
    rank a < r.

    One elimination; at rank r its pivot columns give the coordinate of the
    free column, +-det a[:, pivots], and back-substitution on the echelon
    rows the others."""
    r = len(a)
    order = list(range(r))
    vec = [0] * (r + 1)
    if _int_rank(a, order) < r:
        return vec
    pivots = [next(j for j, x in enumerate(row) if x) for row in a]
    free = next(j for j in range(r + 1) if j not in pivots)
    _back_substitute(a, pivots, vec, free, (-1) ** free
                     * _permutation_sign(order) * a[-1][pivots[-1]])
    return vec


def _back_substitute(echelon, pivots, vec, free, value):
    """Set vec[free] = value and solve the echelon rows (row i starting at
    column pivots[i]) bottom-up for vec's pivot coordinates, in place; vec
    holds zeros of the entries' type elsewhere.  Each coordinate is one
    division, checked to be exact: with value a multiple of the last pivot,
    the determinant of the pivot block, Cramer's rule makes every coordinate
    an integer (a polynomial)."""
    vec[free] = value
    for row, p in zip(reversed(echelon), reversed(pivots)):
        # vec[p] is still zero, the sum's start of the entries' type
        s = sum((x * y for x, y in zip(row[p + 1:], vec[p + 1:])), vec[p])
        q, rem = divmod(-s, row[p])
        if rem:
            raise ArithmeticError("inexact back-substitution")
        vec[p] = q


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
    so no box point is visited in vain."""
    out = array("q")
    if not bounds:
        out.append(0)
        return out
    sizes = [bounds[1 << i] + 1 for i in range(max(bounds).bit_length())]
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


def _interpolate_int(values) -> list:
    """Coefficients of the polynomial with given values at nodes 0..len-1,
    as Fractions: those of _interpolate_scaled over (len-1)!."""
    s = factorial(max(len(values) - 1, 0))
    return [Fraction(c, s) for c in _interpolate_scaled(values)]


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
    coefficient list (ascending in var) of det m[:, cols].

    m is integer-cleared with len(cols) rows.  The minor has degree at most
    the max-weight assignment on its entries' degrees in var, so it is
    evaluated at that many nodes 0, 1, ... and interpolated exactly.  The
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
    return [_interpolate_int(d) for d in dets]


def _nullspace_univar(m: PolyMatrix):
    """Evaluation/interpolation nullspace of a univariate matrix (W. S.
    Brown, J. ACM 18, 1971): [] at corank 0 (full column rank at some probe
    point), one primitive vector at corank 1, and None at a higher corank or
    when the interpolated vector fails the exact check, for the symbolic
    path.

    At corank 1 the vector is the cofactor vector of cols - 1 rows of full
    rank at a probe point: the first such rows in ascending order of degree
    (then index), which keeps its degree bound, the max-weight assignment of
    the columns to those rows, low.  Each node 0..bound runs the rows' chain
    of constant pivots (_constant_pivots) on their integer values and takes
    the cofactor vector of the small remainder.  The pivot rows, which no
    step changes, then give the pivot coordinates by back-substitution
    without division, the vector scaled by each pivot in turn.  The result
    is the cofactor vector times a nonzero constant, the same at every node:
    the pivots and the signs of the row and column orders.  Each coordinate
    is interpolated on integers (_interpolate_scaled), the vector made
    primitive (_primitive_vector) and checked exactly against every row.
    """
    var = m.vars[0]
    cleared = _integer_cleared(m)
    by_degree = sorted(range(m.rows), key=lambda i: (
        max(e.degree(var) for e in cleared.entries[i]), i))
    # probe the rank at a few points clear of small-integer coincidences;
    # the pivot columns of the transpose, its columns in by_degree order,
    # are the first rows that raise the rank
    best = []
    probes = _GridEvaluator(cleared, {var: [101, 137, 211]})
    for _, _, a in probes.matrices(range(3)):
        t = [list(col) for col in zip(*(a[i] for i in by_degree))]
        rank = _int_rank(t)
        if rank == m.cols:
            return []
        if rank > len(best):
            best = [by_degree[next(j for j, x in enumerate(row) if x)]
                    for row in t[:rank]]
    if len(best) < m.cols - 1:
        return None  # corank >= 2: fall back to the symbolic path
    sub = PolyMatrix([cleared.entries[i] for i in sorted(best)])
    # the largest degree bound of the minors, each dropping one column: an
    # assignment of the columns to the rows
    bound = _max_assignment([[e.degree(var) for e in col]
                             for col in zip(*sub.entries)])
    nodes = list(range((bound or 0) + 1))
    chain = _constant_pivots(sub)
    steps = [(i, j, targets, live, sub.entries[i][j].as_constant())
             for i, j, targets, live in chain.steps]
    cofactors = []
    for _, _, a in _GridEvaluator(sub, {var: nodes}).matrices(nodes):
        for i, j, targets, live, c in steps:
            pivot = a[i]
            for r in targets:
                row = a[r]
                f = row[j]
                for k in live:
                    row[k] = c * row[k] - f * pivot[k]
        vec = [0] * m.cols
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
    if not any(vec):
        return None
    vec = _primitive_vector(vec, m.vars)
    # exact re-verification against every row of the integer-cleared matrix
    for row in cleared.entries:
        acc = [0] * (max(e.degree(var) for e in row)
                     + max(map(len, vec)))
        for e, p in zip(row, vec):
            for (d,), c in e.terms.items():
                for t, x in enumerate(p, d):
                    acc[t] += c * x
        if any(acc):
            return None
    return [[RationalFunction.from_poly(_from_dense(p, m.vars)) for p in vec]]


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
