"""Reference implementations the tests compare the program against."""

from math import gcd, isqrt

from hyperproof.factored import _primes_from
from hyperproof.linalg import PolyMatrix, clear_and_primitive
from hyperproof.polys import (
    MultiPoly, RationalFunction, _as_fraction, clear_denominators,
    common_denominator,
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


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    if n > 10 ** 12:
        raise ArithmeticError("constant term too large for divisor enumeration")
    small = []
    big = []
    d = 1
    while d <= isqrt(n):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                big.append(n // d)
        d += 1
    return small + big[::-1]


def _roots_mod_p(ints, p):
    cs = [c % p for c in ints]
    if not any(cs):
        return None  # polynomial vanishes mod p; prime gives no information
    roots = []
    for t in range(p):
        total = 0
        for c in reversed(cs):
            total = (total * t + c) % p
        if total == 0:
            roots.append(t)
    return roots


def _integer_roots_modular(ints, val):
    """Integer root search via roots modulo enough primes: every integer
    root is bounded by the Lagrange bound B and determined by its residues
    modulo primes with product > 2B; candidate residues are CRT-combined
    and verified exactly.  ArithmeticError when the combinations pass
    200000."""
    lead = abs(ints[-1])
    B = 1 + max(abs(c) for c in ints) // lead
    need = 2 * B + 1
    primes = []
    residues = []  # list of root lists per prime
    modulus = 1
    start = 10007
    while modulus <= need:
        p = _primes_from(start, 1)[0]
        start = p + 2
        rs = _roots_mod_p(ints, p)
        if rs is None:
            continue  # cannot happen for content-free input, kept for safety
        if not rs:
            return []  # no roots mod p: no integer roots at all
        primes.append(p)
        residues.append(rs)
        modulus *= p
        combos = 1
        for r_ in residues:
            combos *= len(r_)
        if combos > 200000:
            raise ArithmeticError("too many modular root candidates")
    cands = [0]
    m = 1
    for p, rs in zip(primes, residues):
        new = []
        inv = pow(m % p, -1, p)
        for c in cands:
            for r in rs:
                t = ((r - c) * inv) % p
                new.append(c + m * t)
        cands = new
        m *= p
    roots = []
    for c in cands:
        r = c if c <= m // 2 else c - m
        if abs(r) <= B and val(r) == 0:
            roots.append(r)
    return roots


def integer_roots_reference(coeffs) -> list:
    """Integer roots of a univariate polynomial given by Fraction/int coeffs
    (ascending), the way factored.integer_roots_univar once found them:
    divisor enumeration of the trailing coefficient up to 10^12, a modular
    CRT search under the Lagrange root bound past it.  Either can give up
    with ArithmeticError."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("zero polynomial has every integer as a root")
    den = 1
    for c in coeffs:
        f = _as_fraction(c)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(_as_fraction(c) * den) for c in coeffs]
    roots = []
    shift = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        if shift == 0:
            roots.append(0)
        shift += 1
    if len(ints) <= 1:
        return sorted(set(roots))
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    ints = [c // content for c in ints]
    c0 = ints[0]

    def val(x):
        total = 0
        for c in reversed(ints):
            total = total * x + c
        return total

    if abs(c0) <= 10 ** 12:
        for d in _divisors(c0):
            for cand in (d, -d):
                if val(cand) == 0:
                    roots.append(cand)
    else:
        roots.extend(_integer_roots_modular(ints, val))
    return sorted(set(roots))
