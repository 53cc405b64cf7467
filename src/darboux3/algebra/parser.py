"""Parser for operator expressions in the q/p/D text grammar.

Grammar (EBNF, also reproduced in the README):

    expr    ::= term { ("+" | "-") term }
    term    ::= unary { ("*" | "/") unary }
    unary   ::= { "+" | "-" } power
    power   ::= atom [ "^" exponent ]
    exponent::= [ "-" ] integer | "(" exponent ")"
    atom    ::= integer | "i" | "lambda" | "omega" | "hbar" | "D"
              | "q" index | "p" index | "(" expr ")"

Indices run from 1 to N.  Division is only defined when the divisor is a
scalar (a Gaussian-rational constant) or a power of D times a scalar; negative
exponents are likewise restricted to such invertible atoms.

``parse`` reads the token list in one loop per parenthesis level: ``_value``
reads terms in an outer loop and their factors in an inner one, each factor
inline as its signs, its atom and an optional exponent, and recurses only at
"(".  Values live on three levels.  Every atom but p_k is a monomial
``(key, re, im, den, e)``, i.e. (re + i*im)/den * m(key) * D^e with ``key``
packed as in ``ring``, so products, quotients and powers of atoms add keys and
multiply integers.  A monomial becomes a ``Coefficient`` at + and - or where
it meets a Coefficient or an ``OperatorExpr``; a value becomes an OperatorExpr
only when it meets a p_k operand, and a momentum-free result is wrapped at the
end.  So the result is always normal-ordered, every product with a momentum
on the left being evaluated inside the operator algebra; its coefficients are
reduced when it is printed or compared.

Parentheses nest at most ``MAX_NESTING`` levels deep, counted over atoms and
exponents together.
"""

from __future__ import annotations

import re
from math import gcd

from .ring import Coefficient, Poly, _check, _d_power, _guard, _key, _reduced, divide_by_d
from .operators import OperatorExpr


# each level around a value costs one ``_value`` frame and a level inside an
# exponent none, so this stays far below the interpreter's recursion limit;
# verify's residuals nest at most 3 levels
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


def _value(toks, k, nq, depth):
    """Read an ``expr`` from token k; return its value and the index past it.

    The outer loop reads terms and the inner loop their factors, each factor
    inline: its signs, its atom and an optional ``^exponent``.  Only "("
    recurses, one level deeper.
    """
    out = None
    while True:
        term = None
        while True:
            kind, val, pos = toks[k]
            start, negative = pos, False
            while kind == "op" and val in "+-":
                negative ^= val == "-"
                k += 1
                kind, val, pos = toks[k]
            k += 1
            if kind == "int":
                x = 0, val, 0, 1, 0
            elif kind == "name":
                x = _name(val, pos, nq)
            elif val == "(":
                if depth == MAX_NESTING:
                    raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
                x, k = _value(toks, k, nq, depth + 1)
                if toks[k][1] != ")":
                    raise ParseError("expected ')'", toks[k][2])
                k += 1
            else:
                raise ParseError("expected a value", pos)
            kind, val, _ = toks[k]
            if kind == "op" and val == "^":
                n, k = _exponent(toks, k + 1, depth)
                if n < 0:
                    x, n = _invert(x, nq, pos), -n
                x = _power(nq, x, n) if type(x) is tuple else x ** n
            if negative:
                x = _product(nq, _MINUS_ONE, x) if type(x) is tuple else -x
            if term is None:
                term = x
            else:
                term = _multiply(nq, term, x if op == "*" else _invert(x, nq, start))
            kind, op, _ = toks[k]
            if kind != "op" or op not in "*/":
                break
            k += 1
        if out is None:
            out = term
        else:
            term = _coefficient(nq, term)
            if type(out) is not type(term):
                out, term = _promote(nq, out), _promote(nq, term)
            out = out + term if sign == "+" else out - term
        kind, sign, _ = toks[k]
        if kind != "op" or sign not in "+-":
            return out, k
        k += 1
        out = _coefficient(nq, out)


def _exponent(toks, k, depth):
    """Read ``exponent`` from token k, its parentheses counted on top of
    ``depth``; return the integer and the index past it."""
    kind, val, pos = toks[k]
    opened = 0
    while kind == "op" and val == "(":
        if depth + opened == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        opened += 1
        k += 1
        kind, val, pos = toks[k]
    sign = 1
    if kind == "op" and val == "-":
        sign = -1
        k += 1
        kind, val, pos = toks[k]
    if kind != "int":
        raise ParseError("expected integer exponent", pos)
    k += 1
    for _ in range(opened):
        if toks[k][1] != ")":
            raise ParseError("expected ')'", toks[k][2])
        k += 1
    return sign * val, k


def _name(val, pos, nq):
    """The atom named ``val`` at ``pos``: a monomial, or the operator p_k."""
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


def _coefficient(nq, x):
    """x as a Coefficient when it is a monomial, else x itself."""
    if type(x) is not tuple:
        return x
    key, re, im, den, e = x
    num = Poly(nq, {key: (re, im)} if re or im else {}, den)  # already reduced
    return Coefficient(num, -e) if e <= 0 else Coefficient(num * _d_power(nq, e))


def _promote(nq, x):
    """x as an OperatorExpr (a Coefficient becomes a multiplication operator)."""
    x = _coefficient(nq, x)
    return OperatorExpr.from_coefficient(nq, x) if isinstance(x, Coefficient) else x


def _multiply(nq, x, y):
    if type(x) is tuple and type(y) is tuple:
        return _product(nq, x, y)
    x, y = _coefficient(nq, x), _coefficient(nq, y)
    # a coefficient on the left scales every term; only an operator on
    # the left needs the push-through product
    if isinstance(x, Coefficient):
        return x * y if isinstance(y, Coefficient) else y.scale(x)
    return x * _promote(nq, y)


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
    # s * D^k for a constant s: D is irreducible, so dividing D out until a
    # constant is left finds k, and a quotient that fails proves x is no such
    num, extra = x.num, 0
    while not num.is_constant():
        num = divide_by_d(num)
        if num is None:
            raise ParseError("division only by scalars and powers of D", pos)
        extra += 1
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
    toks = _tokenize(text)
    out, k = _value(toks, 0, nq, 0)
    kind, _, pos = toks[k]
    if kind != "end":
        raise ParseError("trailing input", pos)
    return _promote(nq, out)
