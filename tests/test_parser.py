"""The parser against plain OperatorExpr arithmetic, and golden printed forms.

``parse`` keeps products of momentum-free atoms as packed monomials, their
sums in the Coefficient ring, and builds an operator only when a momentum
appears.  The differential test draws expressions from the README grammar and
compares each parse with the same expression built term by term with
OperatorExpr arithmetic, where every atom is an operator and every product
goes through normal ordering.  The README's own examples run as doctests.
"""

import doctest
import re
import time
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from darboux3.algebra import Coefficient, OperatorExpr, ParseError, Poly, d_poly, parse, ring

NQ = 2


def _op(c):
    return OperatorExpr.from_coefficient(NQ, c)


def _d_inverse(k):
    return _op(Coefficient(Poly.constant(NQ, 1), k))


_D = ("D", _op(Coefficient(d_poly(NQ))))
# (text, value) leaves: every atom of the grammar, and negative D-powers in
# both exponent spellings
_LEAVES = [
    *((str(k), _op(Coefficient.constant(NQ, k))) for k in (0, 1, 2, 3, 7)),
    ("i", _op(Coefficient(Poly.constant(NQ, 0, 1)))),
    *((name, OperatorExpr.symbol(NQ, name)) for name in ("lambda", "omega", "hbar")),
    _D,
    *((f"q{k + 1}", OperatorExpr.position(NQ, k)) for k in range(NQ)),
    *((f"p{k + 1}", OperatorExpr.momentum(NQ, k)) for k in range(NQ)),
    ("D^-1", _d_inverse(1)),
    ("D^(-2)", _d_inverse(2)),
]


_OPS = {"+": OperatorExpr.__add__, "-": OperatorExpr.__sub__, "*": OperatorExpr.__mul__}


def _binary(op, a, b):
    return f"({a[0]}) {op} ({b[0]})", _OPS[op](a[1], b[1])


def _power(a, n):
    return f"({a[0]})^{n}", a[1] ** n


def _over_gaussian(a, re, im):
    n = re * re + im * im
    inverse = Poly.constant(NQ, Fraction(re, n), Fraction(-im, n))
    return f"({a[0]})/({re} + {im}*i)", a[1] * _op(Coefficient(inverse))


def _over_d_power(a, k):
    return f"({a[0]})/D^{k}", a[1] * _d_inverse(k)


def _over_scaled_d_power(a, c, k):
    inverse = Coefficient(Poly.constant(NQ, Fraction(1, c)), k)
    return f"({a[0]})/({c}*D^{k})", a[1] * _op(inverse)


def _extend(children):
    return st.one_of(
        st.builds(_binary, st.sampled_from("+-*"), children, children),
        children.map(lambda a: (f"-({a[0]})", -a[1])),
        st.builds(_power, children, st.integers(0, 4)),
        st.builds(_over_gaussian, children, st.integers(1, 5), st.integers(-2, 2)),
        st.builds(_over_d_power, children, st.integers(1, 2)),
        st.builds(_over_scaled_d_power, children, st.integers(-3, 3).filter(bool),
                  st.integers(0, 2)),
    )


_EXPRESSIONS = st.recursive(st.sampled_from(_LEAVES), _extend, max_leaves=6)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_EXPRESSIONS)
# D^16 at N = 2: 153 monomials, past ring.MAX_D_POWER
@example(_power(_power(_D, 4), 4))
def test_parse_matches_operator_arithmetic(case):
    text, value = case
    try:
        parsed = parse(text, NQ)
    except OverflowError as exc:
        # the arithmetic builds every power of D, parse refuses one past
        # ring.MAX_D_POWER; with that bound lifted the text parses to the value
        m = re.fullmatch(rf"exponent (\d+) of D is outside 0\.\.{ring.MAX_D_POWER}", str(exc))
        assert m and int(m[1]) > ring.MAX_D_POWER, exc
        with patch.object(ring, "MAX_D_POWER", ring.MAX_EXPONENT), patch.object(ring, "_D_POWERS", {}):
            assert parse(text, NQ) == value
        return
    assert parsed == value
    printed = str(value)
    assert str(parse(printed, NQ)) == printed


# The README's tokens at N = 2: every operator, every name (indices in range
# and out of it), small integers, blanks, the unicode minus and a character
# outside the grammar.
_TOKENS = ("+", "-", "*", "/", "^", "(", ")", "i", "lambda", "omega", "hbar", "D",
           "q1", "q2", "q3", "p1", "p2", "p0", "0", "1", "2", "7", " ", "\u2212", "@")
_SOUP = st.builds(str.join, st.sampled_from(("", " ")), st.lists(st.sampled_from(_TOKENS), max_size=24))
# one atom to a power up to 10^6, in each exponent spelling, with the
# largest packed exponent and the first one past it drawn often
_BIG_POWER = st.builds("{}^{}".format, st.sampled_from(("q1", "p2", "D", "lambda", "hbar", "i", "7")),
                       st.builds(str.format, st.sampled_from(("{}", "-{}", "({})", "(-{})")),
                                 st.integers(0, 10**6) | st.sampled_from((32767, 32768, 10**6))))
# up to 300 levels of parentheses, around token soup or inside an exponent
_NESTED = st.one_of(
    st.builds(lambda d, e, soup: "(" * d + soup + ")" * e,
              st.integers(0, 300), st.integers(0, 300), _SOUP),
    st.builds(lambda d, soup: f"q1^{'(' * d}2{')' * d}{soup}", st.integers(0, 300), _SOUP),
)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_SOUP, _BIG_POWER, _NESTED))
def test_parse_is_total_on_random_text(text):
    # parse returns or raises ParseError or OverflowError, within 1 s CPU.
    # Large powers come one to an example: the exact product of two of them,
    # or of one with a D-inverse, grows without bound (p1^160*D^-1 has 161
    # terms over D^1..D^161).  Hypothesis raises the recursion limit while it
    # runs a test, so the nesting bound itself is held by
    # test_algebra_core.py::test_parse_nesting_bound.
    start = time.process_time()
    try:
        parse(text, NQ)
    except (ParseError, OverflowError):
        pass
    assert time.process_time() - start < 1, text


# The ten shapes of the benchmark's round-trip expressions, holes filled at
# one fixed seed, with the forms the operator-arithmetic parser printed.
TEMPLATE_FORMS = (
    ('3*q2*p1 + p2*q2', 2,
     '(3*q2)*p1 + (q2)*p2 + (-1*i*hbar)'),
    ('p3^2*D^-1 - 5*q1^2', 3,
     '(1)/D*p3^2 + (4*i*q3*lambda*hbar)/D^2*p3 + (-5*q1^8*lambda^3 - '
     '15*q1^6*q2^2*lambda^3 - 15*q1^6*q3^2*lambda^3 - 15*q1^6*lambda^2 - '
     '15*q1^4*q2^4*lambda^3 - 30*q1^4*q2^2*q3^2*lambda^3 - '
     '30*q1^4*q2^2*lambda^2 - 15*q1^4*q3^4*lambda^3 - 30*q1^4*q3^2*lambda^2 - '
     '15*q1^4*lambda - 5*q1^2*q2^6*lambda^3 - 15*q1^2*q2^4*q3^2*lambda^3 - '
     '15*q1^2*q2^4*lambda^2 - 15*q1^2*q2^2*q3^4*lambda^3 - '
     '30*q1^2*q2^2*q3^2*lambda^2 - 15*q1^2*q2^2*lambda - 5*q1^2*q3^6*lambda^3 '
     '- 15*q1^2*q3^4*lambda^2 - 15*q1^2*q3^2*lambda + 2*q1^2*lambda^2*hbar^2 '
     '- 5*q1^2 + 2*q2^2*lambda^2*hbar^2 - 6*q3^2*lambda^2*hbar^2 + '
     '2*lambda*hbar^2)/D^3'),
    ('((q1 + 3*hbar)*p2 + lambda*D)/9', 2,
     '(1/9*q1 + 1/3*hbar)*p2 + (1/9*q1^2*lambda^2 + 1/9*q2^2*lambda^2 + '
     '1/9*lambda)'),
    ('p1*D^(-2)*(p3 - q2) - i*5', 3,
     '(1)/D^2*p1*p3 + (-q2)/D^2*p1 + (4*i*q1*lambda*hbar)/D^3*p3 + '
     '(-5*i*q1^6*lambda^3 - 15*i*q1^4*q2^2*lambda^3 - 15*i*q1^4*q3^2*lambda^3 '
     '- 15*i*q1^4*lambda^2 - 15*i*q1^2*q2^4*lambda^3 - '
     '30*i*q1^2*q2^2*q3^2*lambda^3 - 30*i*q1^2*q2^2*lambda^2 - '
     '15*i*q1^2*q3^4*lambda^3 - 30*i*q1^2*q3^2*lambda^2 - 15*i*q1^2*lambda - '
     '4*i*q1*q2*lambda*hbar - 5*i*q2^6*lambda^3 - 15*i*q2^4*q3^2*lambda^3 - '
     '15*i*q2^4*lambda^2 - 15*i*q2^2*q3^4*lambda^3 - 30*i*q2^2*q3^2*lambda^2 '
     '- 15*i*q2^2*lambda - 5*i*q3^6*lambda^3 - 15*i*q3^4*lambda^2 - '
     '15*i*q3^2*lambda - 5*i)/D^3'),
    ('D*(p2 - q2) - 7*p2^2*q1^2', 2,
     '(-7*q1^2)*p2^2 + (q1^2*lambda + q2^2*lambda + 1)*p2 + (-q1^2*q2*lambda '
     '- q2^3*lambda - q2)'),
    ('q3^2*p2/D + 6*omega*p2', 3,
     '(6*q1^2*lambda*omega + 6*q2^2*lambda*omega + 6*q3^2*lambda*omega + q3^2 '
     '+ 6*omega)/D*p2 + (2*i*q2*q3^2*lambda*hbar)/D^2'),
    ('hbar*D^-1*p2^2 + 6*lambda*q1*p2', 2,
     '(hbar)/D*p2^2 + (6*q1*lambda)*p2'),
    ('(p2 + q2)^2 - D/3', 3,
     '(1)*p2^2 + (2*q2)*p2 + (-1/3*q1^2*lambda - 1/3*q2^2*lambda + q2^2 - '
     '1/3*q3^2*lambda - 1*i*hbar - 1/3)'),
    ('i*p2*q2*D^-1 + p2*q2/8', 2,
     '(1/8*q1^2*q2*lambda + 1/8*q2^3*lambda + (1/8+i)*q2)/D*p2 + '
     '(-1/8*i*q1^4*lambda^2*hbar - 1/4*i*q1^2*q2^2*lambda^2*hbar + '
     '(1-1/4*i)*q1^2*lambda*hbar - 1/8*i*q2^4*lambda^2*hbar + '
     '(-1-1/4*i)*q2^2*lambda*hbar + (1-1/8*i)*hbar)/D^2'),
    ('6*p2^2 - omega^2*q3^2*D^-1', 3,
     '(6)*p2^2 + (-q3^2*omega^2)/D'),
)


def test_template_forms_are_golden():
    for text, n, printed in TEMPLATE_FORMS:
        x = parse(text, n)
        assert str(x) == printed, text
        assert parse(printed, n) == x


def test_readme_examples_run_as_doctests():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted == 3 and result.failed == 0
