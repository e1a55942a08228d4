"""Reference implementations the tests compare the program against."""

from hyperproof.linalg import PolyMatrix, clear_and_primitive
from hyperproof.polys import (
    MultiPoly, RationalFunction, clear_denominators, common_denominator,
)


def det_symbolic(m: PolyMatrix) -> MultiPoly:
    """Symbolic determinant by cofactor expansion (small matrices only)."""
    if m.rows != m.cols:
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


def nullspace_rational(m: PolyMatrix) -> list:
    """Right nullspace basis the way solve_nullspace once computed it, in
    RationalFunction arithmetic: Gaussian elimination with the same pivot
    rule (first nonzero entry at or below the current row), then, per free
    column, back-substitution from that coordinate set to 1 and the other
    free ones to 0; each vector has its denominators cleared and is made
    primitive with its first nonzero coordinate positive."""
    rows = [[RationalFunction.from_poly(e) for e in row] for row in m.entries]
    pivots = []  # (row, column)
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if not rows[i][c].is_zero()),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m.rows):
            if not rows[i][c].is_zero():
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
    zero = RationalFunction.constant(m.vars, 0)
    basis = []
    for free in range(m.cols):
        if any(c == free for _, c in pivots):
            continue
        vec = [zero] * m.cols
        vec[free] = RationalFunction.constant(m.vars, 1)
        for pr, pc in reversed(pivots):
            s = zero
            for j in range(pc + 1, m.cols):
                if not vec[j].is_zero() and not rows[pr][j].is_zero():
                    s = s + rows[pr][j] * vec[j]
            vec[pc] = -(s / rows[pr][pc])
        _, polys = clear_denominators(m.vars, vec)
        basis.append([RationalFunction.from_poly(p)
                      for p in clear_and_primitive(polys)])
    return basis


def rows_by_to_univar(cols, k, matrix_vars) -> list:
    """The rows of the telescoping system with columns cols, split the way
    assemble once did: row d takes to_univar(k)[d] of every column, restricted
    to matrix_vars and scaled by the row's common denominator; zero rows are
    left out."""
    vars = cols[0].vars
    rows = []
    for d in range(max(c.degree(k) for c in cols) + 1):
        row = []
        for c in cols:
            cu = c.to_univar(k)
            entry = cu[d] if d < len(cu) else MultiPoly.zero(vars)
            row.append(entry.restrict(matrix_vars))
        if any(not e.is_zero() for e in row):
            den = common_denominator(row)
            rows.append([p.scale(den) for p in row] if den != 1 else row)
    return rows
