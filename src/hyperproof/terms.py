"""Proper hypergeometric terms: symbolic model, text parser, shift quotients,
exact evaluation (numeric and in the parameter field), and the zero-forcing
rules with the natural support they give.

A term is a product of factorials, binomials, rising factorials, constant-base
powers, and one rational-function factor, each argument affine in the declared
symbols.  rf(a,k) denotes a(a+1)...(a+k-1).

The rational factor, every shift quotient (shift_quotient) and a term's
value at a point that leaves symbols free (factored_value) are
factored.Factored products, each factor multiplied in where it is read:
the parser multiplies factors by their ids and adds sums over the lcm of
their denominators (factored.factored_sum), so no polynomial gcd runs while
a term is read, shifted or normalized.  The rational factor is evaluated
as its two sides expanded, reduced by a gcd only at a point where the
denominator vanishes, so a removable pole has the value of the reduced
quotient, as a term's value must.  Arguments and limits are evaluated
straight into a LinearForm; one that is affine only after a quotient
cancels, such as (n^2-1)/(n-1), is rejected as not affine.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .factored import Factored, factored_sum
from .polys import (
    EvalError, FrozenRecord, LinearForm, ParseError, TermError, _as_fraction,
    _parts, _ratio, poly_gcd,
)


class _ZeroTerm(Exception):
    """Internal: a zero-convention factor (binomial with negative lower index,
    reciprocal factorial of a negative integer) makes the whole term zero."""


# ---------------------------------------------------------------------------
# term expressions


def _sorted_factors(lst, keyfn):
    return tuple(sorted(lst, key=keyfn))


class TermExpression(FrozenRecord):
    """Product of special factors times a rational function.

    Factor lists hold (arguments..., exponent) with exponent +1 or -1;
    repeated factors appear as repeated entries.
    """
    _fields = ("symbols", "factorials", "binomials", "risings", "powers",
               "rational")

    def __init__(self, symbols: tuple,
                 factorials: tuple = (),    # (arg: LinearForm, exp)
                 binomials: tuple = (),     # (upper, lower, exp)
                 risings: tuple = (),       # (base, count, exp)
                 powers: tuple = (),        # (base: Fraction, exponent: LinearForm)
                 rational: Factored = None):  # the rational factor, a product
        vars(self).update(
            symbols=symbols,
            factorials=_sorted_factors(
                factorials, lambda f: (f[0].sort_key(), f[1])),
            binomials=_sorted_factors(
                binomials, lambda f: (f[0].sort_key(), f[1].sort_key(), f[2])),
            risings=_sorted_factors(
                risings, lambda f: (f[0].sort_key(), f[1].sort_key(), f[2])),
            powers=_sorted_factors(
                powers, lambda f: (_as_fraction(f[0]), f[1].sort_key())),
            rational=Factored.one(symbols) if rational is None else rational)

    def is_zero(self):
        return self.rational.is_zero()

    def with_rational(self, rf: Factored) -> "TermExpression":
        return self.times(TermExpression(self.symbols, rational=rf))

    def times(self, other: "TermExpression") -> "TermExpression":
        if self.symbols != other.symbols:
            raise TermError("symbol lists differ")
        return TermExpression(
            self.symbols,
            self.factorials + other.factorials,
            self.binomials + other.binomials,
            self.risings + other.risings,
            self.powers + other.powers,
            self.rational.copy().mul(other.rational))

    def inverted(self) -> "TermExpression":
        return TermExpression(
            self.symbols,
            tuple((a, -e) for a, e in self.factorials),
            tuple((u, l, -e) for u, l, e in self.binomials),
            tuple((b, c, -e) for b, c, e in self.risings),
            tuple((b, e.scale(-1)) for b, e in self.powers),
            Factored.one(self.symbols).mul(self.rational, -1))

    def divided_by(self, other: "TermExpression") -> "TermExpression":
        return self.times(other.inverted())

    def __str__(self):
        return render(self)


def shift_quotient(f: TermExpression, var, step=1) -> Factored:
    """f(var+step)/f(var) as one Factored product over all symbols.  The
    affine factors of each factorial, binomial (upper, lower, difference)
    and rising factorial (base plus count, base) are multiplied in turn,
    the powers into the constant, then each side of the rational factor
    that involves var, expanded, with its shift, the positive exponent
    first: factored._k_factors keeps this order for the normal form.
    Raises on non-integer shifts of factorial-type count arguments or of
    power exponents."""
    if var not in f.symbols:
        raise TermError(f"{var} is not a symbol of the term")
    out = Factored.one(f.symbols)

    def gamma_quotient(L: LinearForm, m, e):
        # times (Gamma(L+m)/Gamma(L))^e, as affine factors
        if m != int(m):
            raise TermError(
                f"shift in {var} changes factorial-type argument {L} "
                f"by non-integer {m}")
        m = int(m)
        if m >= 0:
            for t in range(m):
                out.mul_affine(L.add_const(t), e)
        else:
            for t in range(1, -m + 1):
                out.mul_affine(L.add_const(-t), -e)

    for a, e in f.factorials:
        gamma_quotient(a.add_const(1), a.var_coeff(var) * step, e)
    for u, l, e in f.binomials:
        mu = u.var_coeff(var) * step
        ml = l.var_coeff(var) * step
        gamma_quotient(u.add_const(1), mu, e)
        gamma_quotient(l.add_const(1), ml, -e)
        gamma_quotient((u - l).add_const(1), mu - ml, -e)
    for b, c, e in f.risings:
        s = b.var_coeff(var) * step
        gamma_quotient(b + c, s + c.var_coeff(var) * step, e)
        gamma_quotient(b, s, -e)
    for base, expo in f.powers:
        m = expo.var_coeff(var) * step
        if m != int(m):
            raise TermError(
                f"shift in {var} changes power exponent by non-integer")
        out.mul_const(base, int(m))
    if not f.rational.is_constant():
        for side, e in zip(f.rational.split(), (1, -1)):
            side = side.expand()
            if side.degree(var) > 0:
                up = side.shift(var, step)
                first, second = (up, side) if e > 0 else (side, up)
                out.mul_poly(first, 1).mul_poly(second, -1)
    return out


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
    if not f.rational.facs:  # a constant rational factor
        p, q = _parts(f.rational.const)
        return _ratio(top * p, bottom * q)
    num, den = _rational_at(f.rational, lambda p: p.eval(point))
    (p, q), (r, t) = _parts(num), _parts(den)
    return _ratio(top * p * t, bottom * q * r)


def factored_value(f: TermExpression, point: dict,
                   zero_conventions: bool = False) -> Factored:
    """f at a point that may leave symbols free, as a Factored product over
    the symbols left: the constant, the affine factors left symbolic, then
    the two sides of the rational part, each expanded (_rational_at), with
    term_value's rules and errors; zero where the zero conventions make f
    zero."""
    remaining = tuple(s for s in f.symbols if s not in point)
    try:
        top, bottom, affine = _special_factors(f, point, zero_conventions)
    except _ZeroTerm:
        return Factored(remaining, 0)
    out = Factored(remaining, _ratio(top, bottom))
    for L, e in affine:
        out.mul_affine(L, e)
    num, den = _rational_at(f.rational, lambda p: p.eval_partial(point))
    return out.mul_poly(num.restrict(remaining), 1).mul_poly(
        den.restrict(remaining), -1)


def _rational_at(rational: Factored, at):
    """(numerator, denominator) of a rational part, each side expanded and
    evaluated by at.  Where the denominator vanishes, both sides are
    divided by their gcd and evaluated again, so that a removable pole,
    such as k = 1 of (k^2-k)/(k-1), gets the value of the reduced
    quotient; EvalError if the reduced denominator vanishes too."""
    num, den = (side.expand() for side in rational.split())
    d = at(den)
    if not d:
        g = poly_gcd(num, den)
        num, den = num.divexact(g), den.divexact(g)
        d = at(den)
        if not d:
            raise EvalError("denominator vanishes under the substitution")
    return at(num), d


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


def _ast_to_rational(node, symbols) -> Factored:
    """A rational AST as a product: factors multiply by their ids, and a
    sum is one factored_sum of its addends, with no gcd."""
    tag = node[0]
    if tag == "num":
        return Factored(symbols, node[1])
    if tag == "sym":
        return Factored.one(symbols).mul_affine(_symbol(node[1], symbols), 1)
    if tag in ("+", "-"):
        addends = [(_ast_to_rational(nd, symbols), sgn)
                   for nd, sgn in _flatten(node, _SUM_SIGNS)]
        return factored_sum([v for v, sgn in addends if sgn > 0],
                            [v for v, sgn in addends if sgn < 0])
    if tag == "neg":
        return _ast_to_rational(node[1], symbols).mul_const(-1)
    if tag == "*":
        return _ast_to_rational(node[1], symbols).mul(
            _ast_to_rational(node[2], symbols))
    if tag == "/":
        d = _ast_to_rational(node[2], symbols)
        if d.is_zero():
            raise ParseError("division by zero")
        return _ast_to_rational(node[1], symbols).mul(d, -1)
    if tag == "pow":
        n = _integer_exponent(_ast_to_rational(node[2], symbols))
        base = _ast_to_rational(node[1], symbols)
        if n < 0 and base.is_zero():
            raise ParseError("division by zero")
        return Factored.one(symbols).mul(base, n)
    raise ParseError(f"factorial/binomial/rf not allowed inside a rational factor")


def _ast_to_linear(node, symbols) -> LinearForm:
    """An affine AST evaluated straight into a LinearForm: a product needs a
    constant operand, a quotient a constant divisor, and a power a constant
    base or the exponent 0 or 1.  Anything else is not affine, also where a
    quotient would cancel to an affine form."""
    tag = node[0]
    if tag == "num":
        return LinearForm.number(node[1])
    if tag == "sym":
        return _symbol(node[1], symbols)
    if tag == "neg":
        return _ast_to_linear(node[1], symbols).scale(-1)
    if tag not in ("+", "-", "*", "/", "pow"):
        raise ParseError("factorial/binomial/rf not allowed inside a "
                         "rational factor")
    a, b = (_ast_to_linear(nd, symbols) for nd in node[1:])
    if tag in ("+", "-"):
        return a + b if tag == "+" else a - b
    if tag == "pow":
        n = _integer_exponent(b)
        if a.is_constant():
            if n < 0 and a.const == 0:
                raise ParseError("division by zero")
            return LinearForm.number(_as_fraction(a.const) ** n)
        if n in (0, 1):
            return a if n else LinearForm.number(1)
    elif b.is_constant():
        if tag == "*":
            return a.scale(b.const)
        if b.const == 0:
            raise ParseError("division by zero")
        return a.scale(1 / _as_fraction(b.const))
    elif tag == "*" and a.is_constant():
        return b.scale(a.const)
    raise ParseError("not affine")


def _symbol(name, symbols) -> LinearForm:
    if name not in symbols:
        raise ParseError(f"undeclared symbol {name!r}")
    return LinearForm.symbol(name)


def _integer_exponent(e) -> int:
    """The value of an exponent, a Factored or a LinearForm that must be
    an integer constant."""
    if not e.is_constant():
        raise ParseError("non-constant exponent in polynomial context")
    ev = _as_fraction(e.const)
    if ev.denominator != 1:
        raise ParseError("fractional exponent in polynomial context")
    return ev.numerator


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
    rat = Factored.one(symbols)
    for nd, sgn in factors:
        tag = nd[0]
        while tag == "neg":
            rat.mul_const(-1)
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
                    rat.mul(rep.rational)
            else:
                # constant base, affine exponent
                bv = _ast_to_rational(base, symbols)
                if not bv.is_constant():
                    raise ParseError(
                        "power base must be a rational constant (or -1)")
                bc = _as_fraction(bv.const)
                if bc == 0:
                    raise ParseError("power base must be nonzero")
                expo_l = _ast_to_linear(expo, symbols)
                pows.append((bc, expo_l if sgn > 0 else expo_l.scale(-1)))
        elif _is_pure_rational(nd):
            r = _ast_to_rational(nd, symbols)
            if r.is_zero() and sgn < 0:
                raise ParseError("division by zero factor")
            rat.mul(r, sgn)
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
    return TermExpression(term.symbols, term.factorials, term.binomials,
                          term.risings, tuple(pows),
                          term.rational.copy().mul_const(extra))


def parse_sum(text, symbols=None) -> list:
    """Parse text into a list of TermExpressions (top-level sum of products)."""
    ast = _Parser(text).parse_full()
    if symbols is None:
        acc = []
        _collect_symbols(ast, acc)
        symbols = tuple(dict.fromkeys(acc))  # first occurrences, in order
    else:
        symbols = tuple(symbols)

    if _is_pure_rational(ast):
        # a polynomial/rational expression is one factor, not a sum of terms
        return [_normalize_powers(_compile_product(ast, symbols))]

    out = []
    for nd, sgn in _flatten(ast, _SUM_SIGNS):
        t = _compile_product(nd, symbols)
        if sgn < 0:
            t = t.with_rational(Factored(symbols, -1))
        out.append(_normalize_powers(t))
    return out


def parse_term(text, symbols=None) -> TermExpression:
    """Parse a single product into a TermExpression."""
    terms = parse_sum(text, symbols)
    if len(terms) != 1:
        raise ParseError("expected a single product, found a sum")
    return terms[0]


def parse_rational(text, symbols) -> Factored:
    """Parse a rational function of the declared symbols into a product,
    with no gcd.  Factorials, binomials, rf and powers with a non-constant
    exponent are rejected."""
    return _ast_to_rational(_Parser(text).parse_full(), tuple(symbols))


def parse_affine(text, symbols) -> LinearForm:
    """Parse an affine form in the declared symbols; ParseError where it is
    not affine before any cancellation."""
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
    if f.rational != Factored.one(f.symbols) or not num_parts:
        num_parts.append(f"({f.rational})")  # factor by factor
    s = "*".join(num_parts) if num_parts else "1"
    for d in den_parts:
        s += f"/{d}"
    return s
