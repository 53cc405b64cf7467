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
exponents are likewise restricted to such invertible atoms.  The result of a
parse is always normal-ordered because every product is evaluated inside the
operator algebra; its coefficients are reduced when it is printed or compared.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ring import Coefficient, Poly, divide_by_d, d_poly
from .operators import OperatorExpr


class ParseError(ValueError):
    """Syntax or semantics error, carrying the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>lambda|omega|hbar|D|i|q\d+|p\d+)|(?P<op>[-+*/^()−]))"
)


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            if op == "−":  # unicode minus
                op = "-"
            tokens.append(("op", op, m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
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
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    # term := unary { (*|/) unary }
    def term(self):
        out = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                if val == "*":
                    out = out * rhs
                else:
                    out = out * _invert(rhs, self.nq, pos)
            else:
                return out

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
        out = self.atom()
        kind, val, pos = self.peek()
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
        if kind == "int":
            return OperatorExpr.scalar(self.nq, val)
        if kind == "name":
            if val == "i":
                i_unit = Coefficient(Poly.constant(self.nq, 0, 1))
                return OperatorExpr.from_coefficient(self.nq, i_unit)
            if val in ("lambda", "omega", "hbar"):
                return OperatorExpr.symbol(self.nq, val)
            if val == "D":
                return OperatorExpr.d_factor(self.nq)
            idx = int(val[1:]) - 1
            if not 0 <= idx < self.nq:
                raise ParseError(f"index of {val!r} out of range for N={self.nq}", pos)
            if val[0] == "q":
                return OperatorExpr.position(self.nq, idx)
            return OperatorExpr.momentum(self.nq, idx)
        if kind == "op" and val == "(":
            out = self.expr()
            self.expect_op(")")
            return out
        raise ParseError("expected a value", pos)


def _invert(x, nq, pos):
    """Inverse of a scalar or (scalar * D-power) operator; rejects the rest."""
    zero_alpha = (0,) * nq
    if x.term_count() != 1 or zero_alpha not in x.terms:
        raise ParseError("division only by scalars and powers of D", pos)
    c = x.terms[zero_alpha]
    num, extra = c.num, 0
    while not num.is_constant():
        q = divide_by_d(num)
        if q is None:
            raise ParseError("division only by scalars and powers of D", pos)
        num, extra = q, extra + 1
    if not num:
        raise ParseError("division by zero", pos)
    # x = s * D^extra / D^dpow  =>  1/x = (1/s) * D^dpow / D^extra, where
    # 1/s = 1/((a + i*b)/den) = den*(a - i*b)/(a^2 + b^2)
    (a, b), = num.terms.values()
    n = a * a + b * b
    inverse = Poly.constant(nq, Fraction(num.den * a, n), Fraction(-num.den * b, n))
    coeff = Coefficient(d_poly(nq) ** c.dpow * inverse, extra)
    return OperatorExpr.from_coefficient(nq, coeff)


def parse(text, nq):
    """Parse an operator expression string for dimension ``nq``.

    Returns the normal-ordered OperatorExpr; raises ParseError with
    the offending position on bad syntax or an illegal division.
    """
    p = _Parser(text, nq)
    out = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return out
