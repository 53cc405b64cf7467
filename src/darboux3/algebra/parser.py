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
exponents are likewise restricted to such invertible atoms.  Atoms without a
momentum (integers, i, q_k, lambda, omega, hbar, D) are ``Coefficient``s and
stay in that ring through + - * / and ^; a value becomes an ``OperatorExpr``
only when it meets a p_k operand, and a momentum-free result is wrapped at the
end.  So the result is always normal-ordered, every product with a momentum
on the left being evaluated inside the operator algebra; its coefficients are
reduced when it is printed or compared.
"""

from __future__ import annotations

import re
from math import comb

from .ring import Coefficient, Poly, _d_power, _reduced, d_poly
from .operators import OperatorExpr


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
        self.text = text
        self.nq = nq
        self.tokens = _tokenize(text)
        self.k = 0

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

    # expr := term { (+|-) term }
    def expr(self):
        out = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
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

    def promote(self, x):
        """x as an OperatorExpr (a Coefficient becomes a multiplication operator)."""
        return OperatorExpr.from_coefficient(self.nq, x) if isinstance(x, Coefficient) else x

    def multiply(self, x, y):
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
        return out if sign > 0 else -out

    # power := atom [ ^ exponent ]
    def power(self):
        pos = self.peek()[2]
        out = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            n = self.exponent()
            if n >= 0:
                out = out ** n
            else:
                out = _invert(out, self.nq, pos) ** (-n)
        return out

    def exponent(self):
        kind, val, pos = self.advance()
        if kind == "op" and val == "(":
            n = self.exponent()
            self.expect_op(")")
            return n
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
            return Coefficient(Poly.constant(nq, val))
        if kind == "name":
            if val == "i":
                return Coefficient(Poly.constant(nq, 0, 1))
            if val in _SYMBOLS:
                return Coefficient(Poly.variable(nq, _SYMBOLS[val](nq)))
            if val == "D":
                return Coefficient(d_poly(nq))
            idx = int(val[1:]) - 1
            if not 0 <= idx < nq:
                raise ParseError(f"index of {val!r} out of range for N={nq}", pos)
            if val[0] == "q":
                return Coefficient(Poly.variable(nq, idx))
            return OperatorExpr.momentum(nq, idx)
        if kind == "op" and val == "(":
            out = self.expr()
            self.expect_op(")")
            return out
        raise ParseError("expected a value", pos)


_SYMBOLS = {"lambda": Poly.idx_lambda, "omega": Poly.idx_omega, "hbar": Poly.idx_hbar}


def _invert(x, nq, pos):
    """Inverse Coefficient of a scalar or (scalar * D-power) divisor that
    starts at ``pos``; rejects the rest."""
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
    OverflowError when an exponent passes ``ring.MAX_EXPONENT``.
    """
    p = _Parser(text, nq)
    out = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return p.promote(out)
