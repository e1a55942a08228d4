"""Proper hypergeometric terms: symbolic model, text parser, shift quotients,
exact evaluation (numeric and in the parameter field), and the zero-forcing
rules with the natural support they give.

A term is a product of factorials, binomials, rising factorials, constant-base
powers, and one rational-function factor, each argument affine in the declared
symbols.  rf(a,k) denotes a(a+1)...(a+k-1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .polys import (
    MultiPoly, RationalFunction, _as_fraction, _norm_coef, _parts,
    _product as _poly_product, _ratio,
)


class TermError(ValueError):
    pass


class ParseError(TermError):
    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at position {pos})")


class EvalError(TermError):
    pass


class _ZeroTerm(Exception):
    """Internal: a zero-convention factor (binomial with negative lower index,
    reciprocal factorial of a negative integer) makes the whole term zero."""


# ---------------------------------------------------------------------------
# linear forms


class LinearForm:
    """Affine combination of symbols with rational coefficients."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        cs = {}
        for s, c in (coeffs or {}).items():
            c = _norm_coef(_as_fraction(c)) if not isinstance(c, int) else c
            if c != 0:
                cs[s] = c
        self.coeffs = cs
        self.const = _norm_coef(_as_fraction(const)) if not isinstance(const, int) else const

    @classmethod
    def symbol(cls, name):
        return cls({name: 1}, 0)

    @classmethod
    def number(cls, c):
        return cls({}, c)

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "LinearForm":
        """The affine form of a polynomial of total degree at most 1."""
        if p.total_degree() > 1:
            raise ParseError(f"not affine: {p}")
        coeffs = {}
        const = 0
        for exp, c in p.terms.items():
            if any(exp):
                coeffs[p.vars[exp.index(1)]] = c
            else:
                const = c
        return cls(coeffs, const)

    def __add__(self, other):
        cs = dict(self.coeffs)
        for s, c in other.coeffs.items():
            cs[s] = cs.get(s, 0) + c
        return LinearForm(cs, self.const + other.const)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if c == 0:
            return LinearForm({}, 0)
        return LinearForm({s: v * c for s, v in self.coeffs.items()}, self.const * c)

    def add_const(self, c):
        return LinearForm(self.coeffs, self.const + c)

    def var_coeff(self, s):
        return self.coeffs.get(s, 0)

    def is_constant(self):
        return not self.coeffs

    def shift(self, var, delta):
        """Substitute var -> var + delta."""
        c = self.coeffs.get(var, 0)
        if c == 0 or delta == 0:
            return self
        return LinearForm(self.coeffs, self.const + c * delta)

    def substitute(self, point: dict):
        cs = {}
        const = self.const
        for s, c in self.coeffs.items():
            if s in point:
                const += c * point[s]
            else:
                cs[s] = c
        return LinearForm(cs, const)

    def at(self, point: dict):
        """The number self is at point where point assigns every symbol,
        found with no form built; else the substituted form."""
        if not self.coeffs.keys() <= point.keys():
            return self.substitute(point)
        const = self.const
        for s, c in self.coeffs.items():
            const += c * point[s]
        return _norm_coef(const)

    def eval(self, point: dict):
        v = self.at(point)
        if type(v) is LinearForm:
            raise EvalError(f"unassigned symbols in {self}")
        return v

    def to_poly(self, vars) -> MultiPoly:
        items = [(tuple(1 if v == s else 0 for v in vars), c)
                 for s, c in self.coeffs.items()]
        if self.const != 0:
            items.append(((0,) * len(vars), self.const))
        return MultiPoly.from_terms(vars, items)

    def sort_key(self):
        # coefficients are stored normalized, and an int and the equal
        # Fraction compare and hash alike
        return tuple(sorted(self.coeffs.items())), self.const

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const

    def __hash__(self):
        return hash(self.sort_key())

    def __str__(self):
        parts = []
        for s in sorted(self.coeffs):
            c = self.coeffs[s]
            if c == 1:
                parts.append(f"+{s}" if parts else s)
            elif c == -1:
                parts.append(f"-{s}")
            else:
                cs = str(c) if c > 0 or not parts else str(c)
                parts.append(f"+{cs}*{s}" if parts and c > 0 else f"{cs}*{s}")
        if self.const != 0 or not parts:
            c = self.const
            parts.append(f"+{c}" if parts and c > 0 else str(c))
        return "".join(parts)

    def __repr__(self):
        return f"LinearForm({self})"


# ---------------------------------------------------------------------------
# term expressions


def _sorted_factors(lst, keyfn):
    return tuple(sorted(lst, key=keyfn))


@dataclass(frozen=True)
class TermExpression:
    """Product of special factors times a rational function.

    Factor lists hold (arguments..., exponent) with exponent +1 or -1;
    repeated factors appear as repeated entries.
    """
    symbols: tuple
    factorials: tuple = ()        # (arg: LinearForm, exp)
    binomials: tuple = ()         # (upper, lower, exp)
    risings: tuple = ()           # (base, count, exp)
    powers: tuple = ()            # (base: Fraction, exponent: LinearForm)
    rational: RationalFunction = None

    def __post_init__(self):
        object.__setattr__(self, "factorials", _sorted_factors(
            self.factorials, lambda f: (f[0].sort_key(), f[1])))
        object.__setattr__(self, "binomials", _sorted_factors(
            self.binomials, lambda f: (f[0].sort_key(), f[1].sort_key(), f[2])))
        object.__setattr__(self, "risings", _sorted_factors(
            self.risings, lambda f: (f[0].sort_key(), f[1].sort_key(), f[2])))
        object.__setattr__(self, "powers", _sorted_factors(
            self.powers, lambda f: (_as_fraction(f[0]), f[1].sort_key())))
        if self.rational is None:
            object.__setattr__(self, "rational", RationalFunction.constant(self.symbols, 1))

    def is_zero(self):
        return self.rational.is_zero()

    def with_rational(self, rf: RationalFunction) -> "TermExpression":
        return TermExpression(self.symbols, self.factorials, self.binomials,
                              self.risings, self.powers, self.rational * rf)

    def times(self, other: "TermExpression") -> "TermExpression":
        if self.symbols != other.symbols:
            raise TermError("symbol lists differ")
        return TermExpression(
            self.symbols,
            self.factorials + other.factorials,
            self.binomials + other.binomials,
            self.risings + other.risings,
            self.powers + other.powers,
            self.rational * other.rational)

    def inverted(self) -> "TermExpression":
        return TermExpression(
            self.symbols,
            tuple((a, -e) for a, e in self.factorials),
            tuple((u, l, -e) for u, l, e in self.binomials),
            tuple((b, c, -e) for b, c, e in self.risings),
            tuple((b, e.scale(-1)) for b, e in self.powers),
            self.rational.inverse())

    def divided_by(self, other: "TermExpression") -> "TermExpression":
        return self.times(other.inverted())

    # -- shift quotients ----------------------------------------------------

    def shift_ratio_parts(self, var, step=1):
        """Factored form of f(var+step)/f(var).

        Returns (const: Fraction, affine: list[(LinearForm, exp)],
        opaque: list[(MultiPoly, exp)]); the product of all parts with their
        exponents equals the shift quotient.  Raises on non-integer shifts of
        factorial-type count arguments.
        """
        const = Fraction(1)
        affine = []
        opaque = []

        def gamma_quotient(L: LinearForm, m):
            # Gamma(L+m)/Gamma(L) as affine factors
            if m != int(m):
                raise TermError(
                    f"shift in {var} changes factorial-type argument {L} "
                    f"by non-integer {m}")
            m = int(m)
            if m >= 0:
                return [(L.add_const(t), 1) for t in range(m)]
            return [(L.add_const(-t), -1) for t in range(1, -m + 1)]

        for a, e in self.factorials:
            m = a.var_coeff(var) * step
            for f, s in gamma_quotient(a.add_const(1), m):
                affine.append((f, s * e))
        for u, l, e in self.binomials:
            mu = u.var_coeff(var) * step
            ml = l.var_coeff(var) * step
            for f, s in gamma_quotient(u.add_const(1), mu):
                affine.append((f, s * e))
            for f, s in gamma_quotient(l.add_const(1), ml):
                affine.append((f, -s * e))
            for f, s in gamma_quotient((u - l).add_const(1), mu - ml):
                affine.append((f, -s * e))
        for b, c, e in self.risings:
            s_ = b.var_coeff(var) * step
            t_ = c.var_coeff(var) * step
            for f, sg in gamma_quotient(b + c, s_ + t_):
                affine.append((f, sg * e))
            for f, sg in gamma_quotient(b, s_):
                affine.append((f, -sg * e))
        for base, expo in self.powers:
            m = expo.var_coeff(var) * step
            if m != int(m):
                raise TermError(f"shift in {var} changes power exponent by non-integer")
            const *= _as_fraction(base) ** int(m)
        if not self.rational.is_constant():
            num, den = self.rational.num, self.rational.den
            if num.degree(var) > 0 or den.degree(var) > 0:
                ns = num.shift(var, step)
                ds = den.shift(var, step)
                if not num.is_constant():
                    opaque.append((ns, 1))
                    opaque.append((num, -1))
                if not den.is_constant():
                    opaque.append((den, 1))
                    opaque.append((ds, -1))
        return const, affine, opaque

    def __str__(self):
        return render(self)


def shift_quotient(f: TermExpression, var) -> RationalFunction:
    """f(var+1)/f(var) as a reduced rational function of all symbols."""
    if var not in f.symbols:
        raise TermError(f"{var} is not a symbol of the term")
    const, affine, opaque = f.shift_ratio_parts(var)
    parts = [(L.to_poly(f.symbols), e) for L, e in affine] + opaque
    return RationalFunction(
        _poly_product(f.symbols, [(p, e) for p, e in parts if e > 0], const),
        _poly_product(f.symbols, [(p, -e) for p, e in parts if e < 0]))


# ---------------------------------------------------------------------------
# evaluation


def _int_value(x, what):
    if type(x) is Fraction:
        if x.denominator != 1:
            raise EvalError(f"{what} is not an integer: {x}")
        return x.numerator
    return x


def _factorial(n):
    if n < 0:
        raise EvalError(f"factorial of negative integer {n}")
    return math.factorial(n)


def _product(p: int, d: int, count: int) -> int:
    """prod_{t < count} (p + t*d) for ints p and d != 0; 0, with nothing
    multiplied, when one factor is 0."""
    t, r = divmod(-p, d)
    if not r and 0 <= t < count:
        return 0
    return math.prod(range(p, p + count * d, d))


def term_value(f: TermExpression, point: dict, zero_conventions: bool = False):
    """The exact value of f at a point that assigns every symbol, an int or
    a Fraction.  Count-type arguments (factorial arguments, binomial lower
    indices, rising factorial counts) must be nonnegative integers there, or
    EvalError.  With zero_conventions, a negative binomial lower index or a
    reciprocal factorial of a negative integer makes the term 0 instead."""
    try:
        top, bottom, _ = _special_factors(f, point, zero_conventions)
    except _ZeroTerm:
        return 0
    d = f.rational.den.eval(point)
    if not d:
        raise EvalError("denominator vanishes under the substitution")
    (p, q), (r, t) = _parts(f.rational.num.eval(point)), _parts(d)
    return _ratio(top * p * t, bottom * q * r)


def value_parts(f: TermExpression, point: dict, zero_conventions: bool = False):
    """f at a point that may leave symbols free, as shift_ratio_parts gives
    a quotient: (const, affine, opaque) over the symbols left, the rational
    part as its unreduced numerator and denominator, with term_value's rules
    and errors; (0, [], []) where the zero conventions make f zero."""
    remaining = tuple(s for s in f.symbols if s not in point)
    try:
        top, bottom, affine = _special_factors(f, point, zero_conventions)
    except _ZeroTerm:
        return 0, [], []
    den = f.rational.den.eval_partial(point)
    if den.is_zero():
        raise EvalError("denominator vanishes under the substitution")
    num = f.rational.num.eval_partial(point)
    return _ratio(top, bottom), affine, [(num.restrict(remaining), 1),
                                         (den.restrict(remaining), -1)]


def _special_factors(f: TermExpression, point: dict, zero_conventions: bool):
    """(top, bottom, affine): the factorials, binomials, rising factorials
    and powers of f at point, as the constant top/bottom times the factors
    left symbolic, the pairs (LinearForm, exponent) of affine.

    A rising or falling product with a constant base p/q is the integer
    product of the p + t*q or p - t*q over q^count; the constant factor is
    kept as an integer numerator and denominator until the end.  A
    symbolic base gives one affine factor per step.  Factorials whose
    arguments stay symbolic must cancel in matched pairs (arguments with
    the same symbolic part and integer-spaced constants); each pair is a
    finite rising product.  With zero_conventions, a zero-convention factor
    raises _ZeroTerm.
    """
    affine = []
    top, bottom = 1, 1  # the constant factor top/bottom
    gammas = []  # (group key, symbolic part, constant, exponent)

    def mul_val(a: int, b: int, e: int):
        # the constant factor times (a/b)^e, b nonzero
        nonlocal top, bottom
        if a == 0 and e < 0:
            raise EvalError("division by a zero factor")
        if e < 0:
            a, b, e = b, a, -e
        top *= a ** e
        bottom *= b ** e

    def product(base, count: int, step: int, e: int):
        # (base)(base + step)...(base + (count-1)*step), to the power e, for
        # a number or a symbolic LinearForm base
        if type(base) is not LinearForm:
            p, q = _parts(base)
            value = _product(p, step * q, count)
            mul_val(value, q ** count if value else 1, e)
        else:
            affine.extend((base.add_const(step * t), e) for t in range(count))

    def rising_product(base, count: int, e: int):
        # (base)_count with count a nonnegative integer
        if count < 0:
            raise EvalError(f"negative rising-factorial count {count}")
        product(base, count, 1, e)

    def push_factorial(arg, e: int):
        if type(arg) is not LinearForm:
            n = _int_value(arg, "factorial argument")
            if n < 0:
                if e < 0 and zero_conventions:
                    raise _ZeroTerm  # 1/(negative)! = 0
                raise EvalError(f"factorial of negative integer {n}")
            mul_val(_factorial(n), 1, e)
        else:
            c = arg.const
            n, d = _parts(c)
            # grouped by the symbolic part and the residue of c mod 1
            key = (tuple(sorted(arg.coeffs.items())), _ratio(n % d, d))
            gammas.append((key, LinearForm(arg.coeffs, 0), c, e))

    for a, e in f.factorials:
        push_factorial(a.at(point), e)

    for u, l, e in f.binomials:
        lv = l.at(point)
        if type(lv) is not LinearForm:
            m = _int_value(lv, "binomial lower index")
            if m < 0:
                if zero_conventions and e > 0:
                    raise _ZeroTerm  # binomial(., negative) = 0
                raise EvalError(f"negative binomial lower index {m}")
            # binomial(x, m) = x(x-1)...(x-m+1)/m!
            product(u.at(point), m, -1, e)
            if top:  # m! is not zero: a zero value stays zero
                mul_val(_factorial(m), 1, -e)
        else:
            # symbolic lower index: fall back to factorial quotients
            push_factorial(u.at(point), e)
            push_factorial(lv, -e)
            push_factorial((u - l).at(point), -e)

    for b, c, e in f.risings:
        cv = c.at(point)
        if type(cv) is not LinearForm:
            rising_product(b.at(point),
                           _int_value(cv, "rising-factorial count"), e)
        else:
            push_factorial((b + c).add_const(-1).at(point), e)
            push_factorial(b.add_const(-1).at(point), -e)

    for base, expo in f.powers:
        ev = expo.at(point)
        if type(ev) is LinearForm:
            raise EvalError(f"power exponent {ev} not fully assigned")
        m = _int_value(ev, "power exponent")
        mul_val(*_parts(base), m)

    # cancel symbolic factorial groups pairwise
    groups = {}
    syms = {}
    for key, sym, const, e in gammas:
        groups.setdefault(key, []).append((const, e))
        syms[key] = sym
    for key, items in groups.items():
        pos = sorted(c for c, e in items for _ in range(max(e, 0)))
        neg = sorted(c for c, e in items for _ in range(max(-e, 0)))
        if len(pos) != len(neg):
            raise EvalError("symbolic factorial does not cancel; cannot evaluate")
        sym = syms[key]
        for cp, cn in zip(pos, neg):
            m = cp - cn  # integer by group construction
            if m >= 0:
                rising_product(sym.add_const(cn + 1), int(m), 1)
            else:
                rising_product(sym.add_const(cp + 1), int(-m), -1)

    return top, bottom, affine


# ---------------------------------------------------------------------------
# zero-forcing rules and natural support


def integer_form(L: LinearForm) -> bool:
    """Integer constant and coefficients, so L is an integer at every integer
    point."""
    return _as_fraction(L.const).denominator == 1 and \
        all(_as_fraction(c).denominator == 1 for c in L.coeffs.values())


def zero_rules(f: TermExpression, point=None):
    """Yield the rules that force f to zero, one condition list per rule,
    with point substituted.

    f vanishes wherever every condition (L, op) of one list holds, where
    op '-' means L <= -1 and op '+' means L >= 0.  The rules: binomial(u, l)
    with integer l vanishes for l < 0 and, when u is an integer too, for
    0 <= u < l; rf(b, c) with integer b vanishes for b <= 0 <= b + c - 1; and
    1/a! with integer a vanishes for a < 0.  These are the zeros term_value's
    zero conventions and the integer product formulas produce.
    """
    point = point or {}
    for u, l, e in f.binomials:
        if e <= 0:
            continue
        uv = u.substitute(point)
        lv = l.substitute(point)
        if integer_form(lv):
            yield [(lv, "-")]
            if integer_form(uv):
                yield [(uv, "+"), (uv - lv, "-")]
    for b, c, e in f.risings:
        if e <= 0:
            continue
        bv = b.substitute(point)
        if integer_form(bv):
            yield [(bv.add_const(-1), "-"),
                   ((bv + c.substitute(point)).add_const(-1), "+")]
    for a, e in f.factorials:
        if e >= 0:
            continue
        av = a.substitute(point)
        if integer_form(av):
            yield [(av, "-")]


def natural_support(f: TermExpression, point: dict, k="k"):
    """Smallest integer interval outside which f vanishes, or unbounded ends.

    Returns (lo, hi) where either end may be None (unbounded).  The zeros are
    those of zero_rules; a rule whose zero region is a bounded interval does
    not shrink the support.  An identically zero term reports (0, -1).
    """
    if f.is_zero():
        return (0, -1)
    unassigned = [s for s in f.symbols if s != k and s not in point]
    if unassigned:
        raise EvalError(f"natural support needs every symbol but {k} "
                        f"assigned; missing {unassigned}")
    lo, hi = -math.inf, math.inf
    for conds in zero_rules(f, point):
        # the rule's zero region: integers k with a*k + b >= 0 for every
        # condition, each rewritten in that form
        z_lo, z_hi = -math.inf, math.inf
        for L, op in conds:
            a = _as_fraction(L.var_coeff(k))
            b = _as_fraction(L.const)
            if op == "-":
                a, b = -a, -b - 1
            if a > 0:
                z_lo = max(z_lo, math.ceil(-b / a))
            elif a < 0:
                z_hi = min(z_hi, math.floor(-b / a))
            elif b < 0:
                break  # a condition free of k that fails: no zero region
        else:
            if z_lo == -math.inf:
                lo = max(lo, z_hi + 1)
            if z_hi == math.inf:
                hi = min(hi, z_lo - 1)
    if lo > hi:
        return (0, -1)
    return (None if lo == -math.inf else lo, None if hi == math.inf else hi)


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^(),!]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1):
            tokens.append(("num", int(m.group(1)), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        else:
            op = m.group(3)
            tokens.append(("op", "^" if op == "**" else op, pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


# AST nodes: ("num", Fraction) ("sym", name) ("+", a, b) ("-", a, b)
# ("*", a, b) ("/", a, b) ("neg", a) ("pow", a, b) ("fact", a)
# ("call", fname, a, b)


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse_expr(self):
        node = self.parse_product()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_product()
                node = (val, node, rhs)
            else:
                return node

    def parse_product(self):
        node = self.parse_unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.parse_unary()
                node = (val, node, rhs)
            else:
                return node

    def parse_unary(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.parse_unary())
        if kind == "op" and val == "+":
            self.next()
            return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_atom()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "!":
                self.next()
                node = ("fact", node)
            elif kind == "op" and val == "^":
                self.next()
                expo = self.parse_unary_exponent()
                node = ("pow", node, expo)
            else:
                return node

    def parse_unary_exponent(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.parse_unary_exponent())
        return self.parse_postfix()

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", Fraction(val))
        if kind == "name":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                self.next()
                if val not in ("binomial", "rf"):
                    raise ParseError(f"unknown function {val!r}", pos)
                a = self.parse_expr()
                self.expect_op(",")
                b = self.parse_expr()
                self.expect_op(")")
                return ("call", val, a, b)
            return ("sym", val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def parse_full(self):
        node = self.parse_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)
        return node


def _collect_symbols(node, acc):
    tag = node[0]
    if tag == "sym":
        acc.append(node[1])
    elif tag in ("+", "-", "*", "/", "pow"):
        _collect_symbols(node[1], acc)
        _collect_symbols(node[2], acc)
    elif tag in ("neg", "fact"):
        _collect_symbols(node[1], acc)
    elif tag == "call":
        _collect_symbols(node[2], acc)
        _collect_symbols(node[3], acc)


def _ast_to_rational(node, symbols) -> RationalFunction:
    tag = node[0]
    if tag == "num":
        return RationalFunction.constant(symbols, node[1])
    if tag == "sym":
        if node[1] not in symbols:
            raise ParseError(f"undeclared symbol {node[1]!r}")
        return RationalFunction.variable(symbols, node[1])
    if tag == "+":
        return _ast_to_rational(node[1], symbols) + _ast_to_rational(node[2], symbols)
    if tag == "-":
        return _ast_to_rational(node[1], symbols) - _ast_to_rational(node[2], symbols)
    if tag == "neg":
        return -_ast_to_rational(node[1], symbols)
    if tag == "*":
        return _ast_to_rational(node[1], symbols) * _ast_to_rational(node[2], symbols)
    if tag == "/":
        d = _ast_to_rational(node[2], symbols)
        if d.is_zero():
            raise ParseError("division by zero")
        return _ast_to_rational(node[1], symbols) / d
    if tag == "pow":
        e = _ast_to_rational(node[2], symbols)
        if not e.is_constant():
            raise ParseError("non-constant exponent in polynomial context")
        ev = _as_fraction(e.as_constant())
        if ev.denominator != 1:
            raise ParseError("fractional exponent in polynomial context")
        base = _ast_to_rational(node[1], symbols)
        n = ev.numerator
        if n >= 0:
            return RationalFunction(base.num ** n, base.den ** n)
        if base.is_zero():
            raise ParseError("division by zero")
        return RationalFunction(base.den ** (-n), base.num ** (-n))
    raise ParseError(f"factorial/binomial/rf not allowed inside a rational factor")


def _ast_to_linear(node, symbols) -> LinearForm:
    r = _ast_to_rational(node, symbols)
    if not r.den.is_constant():
        raise ParseError(f"not affine: {r}")
    return LinearForm.from_poly(r.num)  # a constant denominator is 1


def _is_pure_rational(node):
    tag = node[0]
    if tag in ("num", "sym"):
        return True
    if tag in ("+", "-", "*", "/"):
        return _is_pure_rational(node[1]) and _is_pure_rational(node[2])
    if tag == "neg":
        return _is_pure_rational(node[1])
    if tag == "pow":
        # integer constant exponent over rational base
        return (_is_pure_rational(node[1]) and node[2][0] in ("num", "neg")
                and _const_value(node[2]) is not None
                and _const_value(node[2]).denominator == 1)
    return False


def _const_value(node):
    if node[0] == "num":
        return node[1]
    if node[0] == "neg":
        v = _const_value(node[1])
        return None if v is None else -v
    return None


# The signs an operator gives its operands: a product's factors' exponent
# signs, and a sum's addends' signs
_PRODUCT_SIGNS = {"*": (1, 1), "/": (1, -1)}
_SUM_SIGNS = {"+": (1, 1), "-": (1, -1), "neg": (-1,)}


def _flatten(node, signs) -> list:
    """The (operand, sign) pairs, left to right, of the AST node split at
    every operator in signs, each sign the product of those on its path;
    on an explicit stack, since a recursive closure leaves a reference
    cycle at every call."""
    out, stack = [], [(node, 1)]
    while stack:
        nd, sgn = stack.pop()
        flips = signs.get(nd[0])
        if flips is None:
            out.append((nd, sgn))
        else:
            stack.extend(reversed([(child, sgn * f)
                                   for child, f in zip(nd[1:], flips)]))
    return out


def _compile_product(node, symbols) -> TermExpression:
    """Flatten a product AST into a TermExpression."""
    factors = _flatten(node, _PRODUCT_SIGNS)  # (node, exponent sign)
    facts, binos, riss, pows = [], [], [], []
    rat = RationalFunction.constant(symbols, 1)

    def add_rational(nd, sgn):
        nonlocal rat
        r = _ast_to_rational(nd, symbols)
        if r.is_zero() and sgn < 0:
            raise ParseError("division by zero factor")
        rat = rat * (r if sgn > 0 else r.inverse())

    for nd, sgn in factors:
        tag = nd[0]
        while tag == "neg":
            rat = rat * RationalFunction.constant(symbols, -1)
            nd = nd[1]
            tag = nd[0]
        if tag == "fact":
            facts.append((_ast_to_linear(nd[1], symbols), sgn))
        elif tag == "call":
            a = _ast_to_linear(nd[2], symbols)
            b = _ast_to_linear(nd[3], symbols)
            if nd[1] == "binomial":
                binos.append((a, b, sgn))
            else:
                riss.append((a, b, sgn))
        elif tag == "pow":
            base, expo = nd[1], nd[2]
            cv = _const_value(expo) if expo[0] in ("num", "neg") else None
            if cv is not None and cv.denominator == 1:
                # integer power: replicate the base factor
                n = cv.numerator * sgn
                sub = _compile_product(base, symbols)
                if n < 0 and sub.is_zero():
                    raise ParseError("division by zero factor")
                rep = sub if n >= 0 else sub.inverted()
                for _ in range(abs(n)):
                    facts.extend(rep.factorials)
                    binos.extend(rep.binomials)
                    riss.extend(rep.risings)
                    pows.extend(rep.powers)
                    rat = rat * rep.rational
            else:
                # constant base, affine exponent
                bv = _ast_to_rational(base, symbols)
                if not bv.is_constant():
                    raise ParseError(
                        "power base must be a rational constant (or -1)")
                bc = _as_fraction(bv.as_constant())
                if bc == 0:
                    raise ParseError("power base must be nonzero")
                expo_l = _ast_to_linear(expo, symbols)
                pows.append((bc, expo_l if sgn > 0 else expo_l.scale(-1)))
        elif _is_pure_rational(nd):
            add_rational(nd, sgn)
        else:
            raise ParseError("a sum inside a product must be a rational "
                             "function of the symbols")
    return TermExpression(symbols, tuple(facts), tuple(binos), tuple(riss),
                          tuple(pows), rat)


def _normalize_powers(term: TermExpression) -> TermExpression:
    """Fold constant powers into the rational factor; drop base-1 powers."""
    extra = Fraction(1)
    pows = []
    for b, e in term.powers:
        if b == 1:
            continue
        if e.is_constant():
            extra *= _as_fraction(b) ** _int_value(e.const, "constant power exponent")
        else:
            pows.append((b, e))
    rational = term.rational
    if extra != 1:
        rational = rational * RationalFunction.constant(term.symbols, extra)
    return TermExpression(term.symbols, term.factorials, term.binomials,
                          term.risings, tuple(pows), rational)


def parse_sum(text, symbols=None) -> list:
    """Parse text into a list of TermExpressions (top-level sum of products)."""
    ast = _Parser(text).parse_full()
    if symbols is None:
        acc = []
        _collect_symbols(ast, acc)
        seen = []
        for s in acc:
            if s not in seen:
                seen.append(s)
        symbols = tuple(seen)
    else:
        symbols = tuple(symbols)

    if _is_pure_rational(ast):
        # a polynomial/rational expression is one factor, not a sum of terms
        return [_normalize_powers(_compile_product(ast, symbols))]

    out = []
    for nd, sgn in _flatten(ast, _SUM_SIGNS):
        t = _compile_product(nd, symbols)
        if sgn < 0:
            t = t.with_rational(RationalFunction.constant(symbols, -1))
        out.append(_normalize_powers(t))
    return out


def parse_term(text, symbols=None) -> TermExpression:
    """Parse a single product into a TermExpression."""
    terms = parse_sum(text, symbols)
    if len(terms) != 1:
        raise ParseError("expected a single product, found a sum")
    return terms[0]


def parse_rational(text, symbols) -> RationalFunction:
    """Parse a rational function of the declared symbols.  Factorials,
    binomials, rf and powers with a non-constant exponent are rejected."""
    return _ast_to_rational(_Parser(text).parse_full(), tuple(symbols))


def parse_affine(text, symbols) -> LinearForm:
    """Parse an affine form in the declared symbols."""
    return _ast_to_linear(_Parser(text).parse_full(), tuple(symbols))


# ---------------------------------------------------------------------------
# rendering


def render(f: TermExpression) -> str:
    """Canonical text form; parse_term(render(f)) == f structurally."""
    num_parts = []
    den_parts = []

    def emit(s, e):
        (num_parts if e > 0 else den_parts).append(s)

    for u, l, e in f.binomials:
        emit(f"binomial({u},{l})", e)
    for a, e in f.factorials:
        emit(f"({a})!", e)
    for b, c, e in f.risings:
        emit(f"rf({b},{c})", e)
    for b, e in f.powers:
        base = str(b) if (isinstance(b, int) or b.denominator == 1) and b > 0 \
            else f"({b})"
        num_parts.append(f"{base}^({e})")
    if not (f.rational.is_constant() and f.rational.as_constant() == 1) or not num_parts:
        num_parts.append(f"(({f.rational.num}))" if f.rational.den.is_constant()
                         and f.rational.den.as_constant() == 1
                         else f"(({f.rational.num})/({f.rational.den}))")
    s = "*".join(num_parts) if num_parts else "1"
    for d in den_parts:
        s += f"/{d}"
    return s
