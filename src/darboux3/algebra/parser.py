"""Parser for operator expressions in the q/p/D text grammar.

Grammar (EBNF, also reproduced in the README):

    expr    ::= term { ("+" | "-") term }
    term    ::= unary { ("*" | "/") unary }
    unary   ::= { "+" | "-" } power
    power   ::= atom [ "^" exponent ]
    exponent::= [ "-" ] integer | "(" [ "-" ] integer ")"
    atom    ::= integer | "i" | "lambda" | "omega" | "hbar" | "D"
              | "q" index | "p" index | "(" expr ")"

Indices run from 1 to N.  Division is only defined when the divisor is a
scalar (a Gaussian-rational constant) or a power of D times a scalar; negative
exponents are likewise restricted to such invertible atoms.  Values live on
three levels.  Every atom but p_k is a monomial ``(key, re, im, den, e)``, i.e.
(re + i*im)/den * m(key) * D^e with ``key`` packed as in ``ring``, so products,
quotients and powers of atoms add keys and multiply integers.  A monomial
becomes a ``Coefficient`` at + and - or where it meets a Coefficient or an
``OperatorExpr``; a value becomes an OperatorExpr only when it meets a p_k
operand, and a momentum-free result is wrapped at the end.  So the result is
always normal-ordered, every product with a momentum on the left being
evaluated inside the operator algebra; its coefficients are reduced when it is
printed or compared.

Parentheses nest at most ``MAX_NESTING`` levels deep, counted over atoms and
exponents together.
"""

from __future__ import annotations

import re
from math import comb, gcd

from .ring import Coefficient, Poly, _check, _d_power, _guard, _key, _reduced
from .operators import OperatorExpr


# each level costs the descent six frames (nested, expr .. atom), so this
# stays far below the interpreter's recursion limit; verify's residuals nest
# at most 3 levels
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or semantics error, carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"(?P<op>[-+*/^()])|(?P<name>lambda|omega|hbar|D|i|q\d+|p\d+)|(?P<int>\d+)"
    r"|(?P<space>\s+)|(?P<minus>−)|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text):
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "op" or kind == "name":
            append((kind, m[0], m.start()))
        elif kind == "int":
            append((kind, int(m[0]), m.start()))
        elif kind == "minus":  # unicode minus
            append(("op", "-", m.start()))
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", m.start())
    append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, nq):
        self.nq = nq
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.advance()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def nested(self, inner, pos):
        """``inner()`` between the parenthesis opened at ``pos`` and its close."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        out = inner()
        self.expect_op(")")
        self.depth -= 1
        return out

    # expr := term { (+|-) term }
    def expr(self):
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                out, rhs = self.coefficient(out), self.coefficient(self.term())
                if type(out) is not type(rhs):
                    out, rhs = self.promote(out), self.promote(rhs)
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    # term := unary { (*|/) unary }
    def term(self):
        out = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                pos = self.peek()[2]
                rhs = self.unary()
                out = self.multiply(out, rhs if val == "*" else _invert(rhs, self.nq, pos))
            else:
                return out

    def coefficient(self, x):
        """x as a Coefficient when it is a monomial, else x itself."""
        if type(x) is not tuple:
            return x
        key, re, im, den, e = x
        num = Poly(self.nq, {key: (re, im)} if re or im else {}, den)  # already reduced
        return Coefficient(num, -e) if e <= 0 else Coefficient(num * _d_power(self.nq, e))

    def promote(self, x):
        """x as an OperatorExpr (a Coefficient becomes a multiplication operator)."""
        x = self.coefficient(x)
        return OperatorExpr.from_coefficient(self.nq, x) if isinstance(x, Coefficient) else x

    def multiply(self, x, y):
        if type(x) is tuple and type(y) is tuple:
            return _product(self.nq, x, y)
        x, y = self.coefficient(x), self.coefficient(y)
        # a coefficient on the left scales every term; only an operator on
        # the left needs the push-through product
        if isinstance(x, Coefficient):
            return x * y if isinstance(y, Coefficient) else y.scale(x)
        return x * self.promote(y)

    # unary := {+|-} power
    def unary(self):
        kind, val, _ = self.peek()
        sign = 1
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            self.advance()
            kind, val, _ = self.peek()
        out = self.power()
        if sign < 0:
            out = _product(self.nq, _MINUS_ONE, out) if type(out) is tuple else -out
        return out

    # power := atom [ ^ exponent ]
    def power(self):
        pos = self.peek()[2]
        out = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            n = self.exponent()
            if n < 0:
                out, n = _invert(out, self.nq, pos), -n
            out = _power(self.nq, out, n) if type(out) is tuple else out ** n
        return out

    def exponent(self):
        kind, val, pos = self.advance()
        if kind == "op" and val == "(":
            return self.nested(self.exponent, pos)
        if kind == "op" and val == "-":
            kind2, val2, pos2 = self.advance()
            if kind2 != "int":
                raise ParseError("expected integer exponent", pos2)
            return -val2
        if kind == "int":
            return val
        raise ParseError("expected integer exponent", pos)

    def atom(self):
        kind, val, pos = self.advance()
        nq = self.nq
        if kind == "int":
            return 0, val, 0, 1, 0
        if kind == "name":
            if val == "i":
                return 0, 0, 1, 1, 0
            if val in _SYMBOLS:
                return _key(nq, _SYMBOLS[val](nq), 1), 1, 0, 1, 0
            if val == "D":
                return 0, 1, 0, 1, 1
            idx = int(val[1:]) - 1
            if not 0 <= idx < nq:
                raise ParseError(f"index of {val!r} out of range for N={nq}", pos)
            if val[0] == "q":
                return _key(nq, idx, 1), 1, 0, 1, 0
            return OperatorExpr.momentum(nq, idx)
        if kind == "op" and val == "(":
            return self.nested(self.expr, pos)
        raise ParseError("expected a value", pos)


_SYMBOLS = {"lambda": Poly.idx_lambda, "omega": Poly.idx_omega, "hbar": Poly.idx_hbar}
_ZERO, _ONE, _MINUS_ONE = (0, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, -1, 0, 1, 0)


def _monomial(nq, key, re, im, den, e):
    """The monomial (re + i*im)/den * m(key) * D^e in lowest terms, its key
    checked as ``Poly.__mul__`` checks a product; zero is ``_ZERO``."""
    if not (re or im):
        return _ZERO
    if key & _guard(nq):
        _check(nq, (key,))
    g = gcd(re, im, den)
    return key, re // g, im // g, den // g, e


def _product(nq, x, y):
    k1, a, b, d1, e1 = x
    k2, c, d, d2, e2 = y
    return _monomial(nq, k1 + k2, a * c - b * d, a * d + b * c, d1 * d2, e1 + e2)


def _power(nq, x, n):
    """x^n for n >= 0 along the chain of squares and products of
    ``Poly.__pow__``, so that an overflow names the same variable."""
    out = _ONE
    while n:
        if n & 1:
            out = _product(nq, out, x)
        n >>= 1
        if n:
            x = _product(nq, x, x)
    return out


def _invert(x, nq, pos):
    """Inverse of a scalar or (scalar * D-power) divisor that starts at
    ``pos``: a monomial for a monomial, else a Coefficient; rejects the rest."""
    if type(x) is tuple:
        key, re, im, den, e = x
        if key:  # zero has key 0
            raise ParseError("division only by scalars and powers of D", pos)
        if not (re or im):
            raise ParseError("division by zero", pos)
        return _monomial(nq, 0, den * re, -den * im, re * re + im * im, -e)
    if isinstance(x, OperatorExpr):
        zero_alpha = (0,) * nq
        if x.terms.keys() - {zero_alpha}:
            raise ParseError("division only by scalars and powers of D", pos)
        x = x.terms.get(zero_alpha, Coefficient.zero(nq))
    num, extra = x.num, 0
    if not num.is_constant():
        # s * D^k has lambda-degree k, constant term s and all comb(k + nq, nq)
        # monomials of D^k; every Poly is in normal form, so it equals
        # s * _d_power(nq, k) field by field, and nothing else divides out
        k = num.degree_in(Poly.idx_lambda(nq))
        s = num.terms.get(0)
        if s is not None and len(num.terms) == comb(k + nq, nq):
            s = _reduced(nq, {0: s}, num.den)
            if num == s * _d_power(nq, k):
                num, extra = s, k
        if not num.is_constant():
            raise ParseError("division only by scalars and powers of D", pos)
    if not num:
        raise ParseError("division by zero", pos)
    # x = s * D^extra / D^dpow  =>  1/x = (1/s) * D^dpow / D^extra, where
    # 1/s = 1/((a + i*b)/den) = den*(a - i*b)/(a^2 + b^2)
    (a, b), = num.terms.values()
    inverse = _reduced(nq, {0: (num.den * a, -num.den * b)}, a * a + b * b)
    if x.dpow:
        inverse = inverse * _d_power(nq, x.dpow)
    return Coefficient(inverse, extra)


def parse(text, nq):
    """Parse an operator expression string for dimension ``nq``.

    Returns the normal-ordered OperatorExpr; raises ParseError with the
    offending position on bad syntax or an illegal division, and
    OverflowError past ``ring.MAX_EXPONENT`` or ``ring.MAX_D_POWER``.
    """
    p = _Parser(text, nq)
    out = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return p.promote(out)
