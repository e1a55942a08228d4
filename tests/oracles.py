"""Reference implementations the tests compare the program against."""

from hyperproof.linalg import PolyMatrix
from hyperproof.polys import MultiPoly, common_denominator


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
