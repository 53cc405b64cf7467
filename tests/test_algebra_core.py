"""Exact ring arithmetic, normal ordering, parsing, and algebra properties."""

import random
import time
from fractions import Fraction
from math import comb, perm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from darboux3.algebra import operators, parser, ring, verify
from darboux3.algebra import (
    Coefficient,
    OperatorExpr,
    ParseError,
    Poly,
    d_poly,
    divide_by_d,
    parse,
    verify_theorem,
    weighted_adjoint,
)


def test_divide_by_d_exact_and_refused():
    nq = 2
    d = d_poly(nq)
    s = Poly.variable(nq, 0, 2) + Poly.variable(nq, 1)  # q1^2 + q2
    assert divide_by_d(d * s) == s
    assert divide_by_d(d * d * s) == d * s
    assert divide_by_d(s) is None
    assert divide_by_d(Poly.constant(nq, 3)) is None
    assert divide_by_d(Poly.zero(nq)).is_zero()


# -- divide_by_d against a plain trial-division reference --------------------
#
# Polynomials are built from {exponent tuple: (re, im)} dicts of Fraction
# pairs through the public constructors; the reference divides those dicts
# directly, with D = 1 + lambda*S, S = sum q_i^2: b_0 = c_0,
# b_k = c_k - b_(k-1)*S, and D divides iff c_kmax - b_(kmax-1)*S is zero.


def _poly_of(nq, terms):
    out = Poly.zero(nq)
    for e, c in terms.items():
        out = out + Poly.monomial(nq, e, *c)
    return out


_ZERO, _ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def _dict_add(out, e, c):
    old = out.get(e, _ZERO)
    s = (old[0] + c[0], old[1] + c[1])
    if s != _ZERO:
        out[e] = s
    else:
        out.pop(e, None)


def _dict_mul(a, b):
    out = {}
    for e1, (a1, b1) in a.items():
        for e2, (a2, b2) in b.items():
            _dict_add(out, tuple(x + y for x, y in zip(e1, e2)),
                      (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2))
    return out


def _d_dict(nq):
    d = {(0,) * (nq + 3): _ONE}
    for i in range(nq):
        e = [0] * (nq + 3)
        e[i], e[nq] = 2, 1
        d[tuple(e)] = _ONE
    return d


def _reference_divide_by_d(nq, terms):
    if not terms:
        return {}
    kmax = max(e[nq] for e in terms)
    if kmax == 0:
        return None
    slices = [{} for _ in range(kmax + 1)]
    for e, c in terms.items():
        slices[e[nq]][e[:nq] + (0,) + e[nq + 1:]] = c
    s_terms = {}
    for i in range(nq):
        e = [0] * (nq + 3)
        e[i] = 2
        s_terms[tuple(e)] = _ONE
    b = [slices[0]]
    for k in range(1, kmax + 1):
        nxt = dict(slices[k])
        for e, c in _dict_mul(b[k - 1], s_terms).items():
            _dict_add(nxt, e, (-c[0], -c[1]))
        b.append(nxt)
    if b.pop():
        return None
    return {e[:nq] + (k,) + e[nq + 1:]: c for k, part in enumerate(b) for e, c in part.items()}


def _check_against_reference(nq, terms):
    got = divide_by_d(_poly_of(nq, terms))
    want = _reference_divide_by_d(nq, terms)
    if want is None:
        assert got is None
    else:
        assert got == _poly_of(nq, want)
    return want


_scalars = st.tuples(
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.sampled_from([0, 0, 1, -2, Fraction(1, 3)]),
).map(lambda c: (Fraction(c[0]), Fraction(c[1])))


@st.composite
def _poly_terms(draw, nq, max_terms=5):
    exps = st.tuples(*[st.integers(0, 3)] * (nq + 3))
    return draw(st.dictionaries(exps, _scalars.filter(lambda c: c != _ZERO), max_size=max_terms))


_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(st.data(), st.sampled_from([2, 3]), st.integers(1, 3))
def test_divide_by_d_exact_multiples_match_reference(data, nq, k):
    terms = data.draw(_poly_terms(nq))
    multiple = terms
    for _ in range(k):
        multiple = _dict_mul(multiple, _d_dict(nq))
    want = _check_against_reference(nq, multiple)
    if terms:
        assert want is not None


@_PROPERTY
@given(st.data(), st.sampled_from([2, 3]))
def test_divide_by_d_random_polynomials_match_reference(data, nq):
    _check_against_reference(nq, data.draw(_poly_terms(nq, max_terms=8)))


# A rational point of D = 0: q_i the first N primes, lambda = -1/sum q_i^2,
# omega and hbar the next two primes.  x0 of q1, omega and hbar there, per N.
_D_ZERO_X0 = {2: (2, 5, 7), 3: (2, 7, 11)}


@_PROPERTY
@given(st.data(), st.sampled_from([2, 3]), st.integers(0, 2))
def test_divide_by_d_vanishing_non_multiples_match_reference(data, nq, slot):
    # r * (x - x0) vanishes at that point (x one of q1, omega, hbar) and, plus
    # a multiple of D, is divisible by D only when r is; a test of the value
    # at one point of D = 0 cannot decide these
    idx = (0, nq + 1, nq + 2)[slot]
    x = {tuple(int(j == idx) for j in range(nq + 3)): _ONE,
         (0,) * (nq + 3): (Fraction(-_D_ZERO_X0[nq][slot]), Fraction(0))}
    r = data.draw(_poly_terms(nq, max_terms=3))
    m = data.draw(_poly_terms(nq, max_terms=3))
    terms = _dict_mul(r, x)
    for e, c in _dict_mul(m, _d_dict(nq)).items():
        _dict_add(terms, e, c)
    _check_against_reference(nq, terms)


def test_cached_d_powers_unchanged_by_verification():
    nq = 2
    cached = [ring._d_power(nq, k) for k in range(7)]
    before = [(dict(p.terms), p.den) for p in cached]
    verify_theorem("tlb", nq)
    assert [(dict(p.terms), p.den) for p in cached] == before
    assert cached[1] is d_poly(nq)
    expected = {(0,) * (nq + 3): _ONE}
    for k, p in enumerate(cached):
        assert p == _poly_of(nq, expected) and ring._d_power(nq, k) is p
        expected = _dict_mul(expected, _d_dict(nq))


def test_coefficient_canonical_form():
    nq = 2
    d = d_poly(nq)
    # D^2*q1 / D^3 is stored as built and reduces to q1/D
    c = Coefficient(d * d * Poly.variable(nq, 0), 3)
    assert c.dpow == 3
    assert c.canonical().dpow == 1
    assert c.canonical().num == Poly.variable(nq, 0)
    assert c == Coefficient(Poly.variable(nq, 0), 1)
    # equality needs neither side canonical: D^2*q1/D^2 (num*D over D^(k+1))
    # against D*q1/D (num over D^k, num still divisible by D) is q1 twice,
    # while D*q1/D^2 = q1/D is not q1
    q1_d = d * Poly.variable(nq, 0)
    assert Coefficient(q1_d * d, 2) == Coefficient(q1_d, 1)
    assert Coefficient(q1_d, 2) != Coefficient(q1_d, 1)
    # zero is unique
    z = Coefficient(Poly.zero(nq), 5).canonical()
    assert z.dpow == 0 and z.is_zero()
    # sums recombine: q1/D + lambda*q1*q^2/D = q1 * D / D = q1
    lam_q2 = d - Poly.constant(nq, 1)
    total = Coefficient(Poly.variable(nq, 0), 1) + Coefficient(lam_q2 * Poly.variable(nq, 0), 1)
    assert total.canonical().dpow == 0
    assert total.canonical().num == Poly.variable(nq, 0)
    assert str(total) == "(q1)"


@_PROPERTY
@given(st.data(), st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 2))
def test_canonical_form_ignores_stored_d_factors(data, nq, j, k):
    n = _poly_of(nq, data.draw(_poly_terms(nq)))
    padded = Coefficient(n * d_poly(nq) ** j, k + j)
    plain = Coefficient(n, k)
    assert padded == plain
    assert str(padded) == str(plain)
    canon = padded.canonical()
    again = canon.canonical()
    assert (again.num, again.dpow) == (canon.num, canon.dpow)
    if canon.dpow > 0:
        assert divide_by_d(canon.num) is None


def _d_power_guard(num, dpow):
    f = OperatorExpr.from_coefficient(2, Coefficient(num, dpow))
    return verify._commutator_check("f", f, "p1", OperatorExpr.momentum(2, 0))


def test_commutator_d_power_guard_reads_canonical_power():
    # [q1/D^k, p1] = i*hbar*(D - 2k*lambda*q1^2)/D^(k+1), canonical power k+1
    q1, d3 = Poly.variable(2, 0), d_poly(2) ** 3
    with pytest.raises(AssertionError, match="D-power 7"):
        _d_power_guard(q1, 6)
    with pytest.raises(AssertionError, match="D-power 7"):
        _d_power_guard(q1 * d3, 9)  # q1/D^6 stored above the bound
    check = _d_power_guard(q1 * d3, 7)  # q1/D^4: stored power 8 after [., p1]
    assert not check.commutator_zero and check.residual.endswith("/D^5")


def test_canonical_commutation_relation():
    assert parse("q1*p1 - p1*q1", 2) == parse("i*hbar", 2)
    assert parse("q1*p2 - p2*q1", 2).is_zero()
    assert parse("p1*q1", 2) == parse("q1*p1 - i*hbar", 2)


def test_momentum_past_d_inverse():
    # p1 * D^-1 = D^-1 p1 + 2 i hbar lambda q1 D^-2 (hand differentiation)
    lhs = parse("p1 * D^-1", 2)
    rhs = parse("(1/D)*p1 + 2*i*hbar*lambda*q1/(D^2)", 2)
    assert lhs == rhs


def test_identity_and_scalars():
    x = parse("(1/(2*D))*(p1^2+p2^2)", 2)
    assert x * OperatorExpr.identity(2) == x
    assert OperatorExpr.identity(2) * x == x
    assert (x - x).is_zero()
    assert x + OperatorExpr.zero(2) == x


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse("q1 +* p1", 2)
    with pytest.raises(ParseError):
        parse("q3", 2)  # index out of range
    with pytest.raises(ParseError):
        parse("1/(q1)", 2)  # division by a non-scalar
    with pytest.raises(ParseError):
        parse("1/(D+q1)", 2)
    with pytest.raises(ParseError):
        parse("p1^(-1)", 2)  # momentum is not invertible
    with pytest.raises(ParseError):
        parse("q1 @ p1", 2)
    err = None
    try:
        parse("q1 * (p1", 2)
    except ParseError as exc:
        err = exc
    assert err is not None and err.pos >= 0


def test_parse_division_by_d_powers_and_scalars():
    assert parse("D^2/D^2", 2) == OperatorExpr.identity(2)
    assert parse("(3/4)*D/D", 2) == parse("3/4", 2)
    assert parse("1/(2*D^2)", 2) == parse("(1/2) * D^-2", 2)
    assert parse("D^(-2)*D^2", 2) == OperatorExpr.identity(2)
    # a Gaussian-rational divisor: 1/((a + i*b)/den) = den*(a - i*b)/(a^2 + b^2)
    assert parse("(2 - 3*i)/((2 + 3*i)/5)", 2) * parse("2 + 3*i", 2) == parse("5*(2 - 3*i)", 2)
    assert parse("1/(i*D)", 2) == parse("-i*D^-1", 2)
    # a divisor that carries its own D-power
    assert parse("q1/D^-1", 2) == parse("q1*D", 2)
    assert parse("q1/(2*D^-1*D^-1)", 2) == parse("q1*D^2/2", 2)
    # sums are recognized as s*D^k by dividing D out until a constant is left
    d_inverse = parse("D^-1", 2)
    assert parse("1/(D + 0)", 2) == d_inverse
    assert parse("1/(1 + lambda*q1^2 + lambda*q2^2)", 2) == d_inverse
    assert parse("q1/(2*D*D + 0)", 2) == parse("q1*D^-2/2", 2)
    # past ring.MAX_D_POWER too: the quotient stays over D^13, as D^-1000 does
    assert str(parse("q1/(1 + lambda*q1^2 + lambda*q2^2)^13", 2)) == "(q1)/D^13"


@pytest.mark.parametrize("text, pos", [("1/0", 2), ("1/(2-2)", 2), ("0^-1", 0), ("q1/(p1-p1)", 3),
                                       ("1/(0*q1)", 2)])
def test_division_by_zero_is_reported_at_the_divisor(text, pos):
    with pytest.raises(ParseError) as exc:
        parse(text, 2)
    assert str(exc.value) == f"division by zero (at position {pos})" and exc.value.pos == pos


def test_tokens_and_error_positions():
    assert parse("q1 \u2212 p1", 2) == parse("q1 - p1", 2)  # unicode minus
    for text, pos, message in (("q1 @ p1", 3, "unexpected character '@'"),
                               ("2*q1/(q1)", 5, "division only by scalars and powers of D"),
                               ("q1^-1", 0, "division only by scalars and powers of D"),
                               ("q1^lambda", 3, "expected integer exponent"),
                               ("q1^-q2", 4, "expected integer exponent"),
                               ("q1 p1", 3, "trailing input"),
                               ("q1*(p1 q2)", 7, "expected ')'"),
                               ("q1^((2)", 7, "expected ')'"),
                               ("q1*)", 3, "expected a value"),
                               ("2*q3", 2, "index of 'q3' out of range for N=2"),
                               # a signed divisor starts at its sign, a power at its atom
                               ("1/-0", 2, "division by zero"),
                               ("-q1^-1", 1, "division only by scalars and powers of D")):
        with pytest.raises(ParseError) as exc:
            parse(text, 2)
        assert str(exc.value) == f"{message} (at position {pos})" and exc.value.pos == pos


def test_packed_exponent_bound():
    top = ring.MAX_EXPONENT
    x = parse(f"q2^{top}*hbar^{top}*p1", 2)
    assert str(x) == f"(q2^{top}*hbar^{top})*p1"
    # past the bound through a power, a product, a push-through and a D-power
    for text, name in ((f"q1^{top + 1}", "q1"), (f"q1^{top}*q1", "q1"),
                       (f"lambda^{top // 2 + 1}*lambda^{top // 2 + 1}", "lambda"),
                       (f"p1*q2^{top}*q2", "q2"), (f"omega^{top}*(1 + 2*omega)^3", "omega")):
        with pytest.raises(OverflowError, match=f"exponent of {name} exceeds {top}"):
            parse(text, 2)
    # a power names the first variable past the bound on its chain of squares
    for text, name in (("(q1*q2^2)^20000", "q2"), ("(q1*q2)^40000", "q1")):
        with pytest.raises(OverflowError) as exc:
            parse(text, 2)
        assert str(exc.value) == f"exponent of {name} exceeds {top}"
    # a zero product has no monomial left to overflow
    assert parse("(0*q1)^40000", 2).is_zero()
    assert parse(f"0*q1^{top}*q1", 2).is_zero()
    with pytest.raises(OverflowError, match="outside"):
        Poly.variable(2, 0, top + 1)
    # a quotient at the bound, and a partial quotient past it, which proves
    # that D does not divide
    s = Poly.variable(2, 0, top - 2)
    assert divide_by_d(s * d_poly(2)) == s
    x = parse(f"(q1^{top - 1} + lambda*q1^{top - 1})/D", 2)
    assert str(x) == f"(q1^{top - 1}*lambda + q1^{top - 1})/D"


def test_d_power_bound():
    # a power of D is expanded only up to ring.MAX_D_POWER; a larger one, or
    # a sum whose D-powers differ by more, raises OverflowError naming D at
    # once, without recursing once per power
    top = ring.MAX_D_POWER
    for text, k in (("q1*D^-1000 + 1", 1000), ("D^1000", 1000),
                    (f"D^{top + 1} + q1", top + 1), (f"q1*D^-{top + 1} + 1", top + 1)):
        start = time.process_time()
        with pytest.raises(OverflowError) as exc:
            parse(text, 2)
        assert time.process_time() - start < 1
        assert str(exc.value) == f"exponent {k} of D is outside 0..{top}"
    # at the bound D^top is built, each power from the one below it
    assert parse(f"q1*D^-{top} + 1", 2) == parse(f"(q1 + D^{top})*D^-{top}", 2)
    assert ring._d_power(2, top) == ring._d_power(2, top - 1) * d_poly(2)
    assert len(ring._d_power(2, top).terms) == comb(top + 2, 2)
    assert str(parse("D^-1000", 2)) == "(1)/D^1000"


def test_parse_nesting_bound():
    # 200 levels used to raise RecursionError through atom, 1200 through
    # exponent; past parser.MAX_NESTING the opening parenthesis that crosses
    # it is reported
    top = parser.MAX_NESTING
    for text, pos in (("(" * 200 + "q1" + ")" * 200, top),
                      ("q1^" + "(" * 1200 + "2" + ")" * 1200, top + 3),
                      # atoms and exponents count together
                      ("(" * (top - 1) + "q1^((2))" + ")" * (top - 1), top + 3)):
        with pytest.raises(ParseError) as exc:
            parse(text, 2)
        assert str(exc.value) == f"parentheses nested deeper than {top} (at position {pos})"
    assert parse("(" * top + "q1" + ")" * top, 2) == parse("q1", 2)
    assert parse("q1^" + "(" * top + "2" + ")" * top, 2) == parse("q1^2", 2)


def test_momentum_power_bound():
    # p1^2000 took seconds (n products, each re-expanding p1^k past the
    # constant coefficient of p1); a momentum degree past ring.MAX_EXPONENT
    # now raises OverflowError at once
    start = time.process_time()
    assert str(parse("p1^2000", 2)) == "(1)*p1^2000"
    assert time.process_time() - start < 1
    # a polynomial coefficient is differentiated only up to its degree in
    # each q_i, not over the whole box of orders below p1^1000*p2^1000
    start = time.process_time()
    x = parse("p1^1000*p2^1000*q1", 2)
    assert time.process_time() - start < 1
    assert str(x) == "(q1)*p1^1000*p2^1000 + (-1000*i*hbar)*p1^999*p2^1000"
    top = ring.MAX_EXPONENT
    for text, degree in (("p1^40000", 40000), ("(p1^300)^300", 90000),
                         (f"(p1*p2)^{top // 2 + 1}", top + 1), (f"(q1 + p2)^{top + 1}", top + 1)):
        start = time.process_time()
        with pytest.raises(OverflowError) as exc:
            parse(text, 2)
        assert time.process_time() - start < 1
        assert str(exc.value) == f"momentum degree {degree} exceeds {top}"
    # a constant coefficient's push-through table entry is empty, as the
    # expansion's entry past the leading pair is
    c = Coefficient.constant(2, 3)
    assert operators._pushed((5, 2), c) == list(operators._push_through((5, 2), c))[1:] == []


def test_large_scalar_powers_are_exact():
    assert parse("2^3000", 2) == parse("2^1500*2^1500", 2)
    assert str(parse("2^3000", 2)) == f"({2**3000})"
    assert parse("(1+i)^200", 2) == parse(str(2**100), 2)
    assert parse("(2*i)^101/2^100", 2) == parse("2*i", 2)
    assert parse("(-3/2*i)^-3", 2) == parse("-8/27*i", 2)
    assert str(parse("(2*q1/(3*D))^3", 2)) == "(8/27*q1^3)/D^3"


def _random_expression(rng, depth=0):
    atoms = ["q1", "q2", "p1", "p2", "lambda", "omega", "hbar", "D", "i", "2", "3"]
    if depth > 2 or rng.random() < 0.35:
        return rng.choice(atoms)
    op = rng.choice(["+", "-", "*", "*"])
    return f"({_random_expression(rng, depth + 1)} {op} {_random_expression(rng, depth + 1)})"


def test_parse_multiplicativity_randomized():
    # parse(a)*parse(b) == parse("(a)*(b)") for random expression pairs
    rng = random.Random(20240817)
    for _ in range(40):
        a = _random_expression(rng)
        b = _random_expression(rng)
        assert parse(a, 2) * parse(b, 2) == parse(f"({a})*({b})", 2)


def _random_operator(rng, nq=2):
    out = OperatorExpr.zero(nq)
    for _ in range(rng.randint(1, 3)):
        text = _random_expression(rng)
        out = out + parse(text, nq)
    return out


def test_jacobi_identity_randomized():
    rng = random.Random(99)
    for _ in range(12):
        a, b, c = (_random_operator(rng) for _ in range(3))
        jac = (
            a.commutator(b).commutator(c)
            + b.commutator(c).commutator(a)
            + c.commutator(a).commutator(b)
        )
        assert jac.is_zero()


def test_commutator_is_the_product_difference():
    # commutator forms only the push-through terms; its normal form must be
    # that of the full difference of the two products
    rng = random.Random(16)
    for nq in (2, 3):
        fixed = [parse(t, nq) for t in ("q1^2/D + 3*lambda", "p1*q2/D^2 - i*hbar*p2^2",
                                        f"q{nq}*p1*p{nq}/D + q1")]
        assert all((0,) * nq in x.terms for x in fixed)
        assert all(any(c.dpow for c in x.terms.values()) for x in fixed)
        ops = fixed + [_random_operator(rng, nq) for _ in range(5)]
        for a in ops:
            assert a.commutator(a).is_zero()
            for b in ops:
                ab = a.commutator(b)
                assert ab == a * b - b * a
                assert b.commutator(a) == -ab


def _stored(x):
    """The terms of x as stored, before any canonical form is taken."""
    return {alpha: (c.num, c.dpow) for alpha, c in x.terms.items()}


def test_operator_product_is_associative():
    rng = random.Random(5)
    for _ in range(10):
        a, b, c = (_random_operator(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_products_with_warm_tables_match_cold_copies():
    # the push-through tables of x and y fill during the first products; a
    # freshly parsed copy starts with empty tables and must give the same
    # stored terms, not only the same canonical form
    rng = random.Random(31)
    for _ in range(8):
        texts = [_random_expression(rng) for _ in range(2)]
        x, y = (parse(t, 2) for t in texts)
        warm = [x * y, y * x, x * x, x.commutator(y)]
        x, y = (parse(t, 2) for t in texts)
        cold = [x * y, y * x, x * x, x.commutator(y)]
        assert [_stored(w) for w in warm] == [_stored(c) for c in cold]


def test_push_through_tables_match_fresh_expansions(monkeypatch):
    # verify_theorem("tlb", 3) pushes the Schrödinger-frame Hamiltonian, the
    # preimage of H_tlb, through every invariant; afterwards its coefficients
    # are as built and every table entry is the expansion _push_through
    # derives anew, less the leading (alpha, c) pair
    built, original = [], verify.build_hamiltonian

    def record(flavor, nq):
        h = original(flavor, nq)
        if flavor == "schrodinger":
            built.append(h)
        return h

    monkeypatch.setattr(verify, "build_hamiltonian", record)
    verify_theorem("tlb", 3)
    h, = built
    assert _stored(h) == _stored(original("schrodinger", 3))
    entries = 0
    for c in h.terms.values():
        for alpha, pairs in (c.pushed or {}).items():
            assert any(alpha)
            fresh = list(operators._push_through(alpha, Coefficient(c.num, c.dpow)))
            assert fresh[0][0] == alpha and fresh[0][1].num is c.num
            assert [(a, d.num, d.dpow) for a, d in pairs] == [(a, d.num, d.dpow) for a, d in fresh[1:]]
            assert all(d is not c for _, d in pairs)
            entries += 1
    assert entries >= len(h.terms)


def test_conjugation_is_homomorphism_and_invertible():
    rng = random.Random(7)
    a = Fraction(3, 4)
    for _ in range(8):
        x = _random_operator(rng)
        y = _random_operator(rng)
        lhs = (x * y).conjugate_by_d_power(a)
        rhs = x.conjugate_by_d_power(a) * y.conjugate_by_d_power(a)
        assert lhs == rhs
        assert x.conjugate_by_d_power(a).conjugate_by_d_power(-a) == x
    assert parse("q1*p2", 2).conjugate_by_d_power(0) == parse("q1*p2", 2)


def test_adjoint_is_involutive_and_antimultiplicative():
    rng = random.Random(13)
    for _ in range(8):
        x = _random_operator(rng)
        y = _random_operator(rng)
        assert x.adjoint().adjoint() == x
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()


def test_weighted_adjoint_reduces_to_plain_adjoint():
    x = parse("q1*p1^2 + i*lambda*p2", 2)
    assert weighted_adjoint(x, 0) == x.adjoint()


def test_substitute_lambda_zero():
    x = parse("(1/(2*D))*(p1^2+p2^2) + (omega^2/(2*D))*(q1^2+q2^2)", 2)
    flat = x.substitute_lambda_zero()
    assert flat == parse("(1/2)*(p1^2+p2^2) + (omega^2/2)*(q1^2+q2^2)", 2)


def test_printing_roundtrip_is_stable():
    x = parse("(1/(2*D))*p1^2 - (i*hbar*lambda*q1/(D^2))*p1", 2)
    assert parse(str(x), 2) == x


# Golden printed forms.  They pin the coefficient format, quirks included:
# a bare i prints as (i), -i as -1*i, and a complex part as (1/2-3/4*i).
PRINTED_FORMS = (
    ('(1/2 - (3/4)*i)*q1 + i*p1 - (2/3)*i*hbar',
     '(i)*p1 + ((1/2-3/4*i)*q1 - 2/3*i*hbar)'),
    ('-i*q1*p2/D^3 + (5/7)*lambda',
     '(-1*i*q1)/D^3*p2 + (5/7*q1^8*lambda^5 + 20/7*q1^6*q2^2*lambda^5 + '
     '20/7*q1^6*lambda^4 + 30/7*q1^4*q2^4*lambda^5 + 60/7*q1^4*q2^2*lambda^4 + '
     '30/7*q1^4*lambda^3 + 20/7*q1^2*q2^6*lambda^5 + 60/7*q1^2*q2^4*lambda^4 + '
     '60/7*q1^2*q2^2*lambda^3 + 20/7*q1^2*lambda^2 + 6*q1*q2*lambda*hbar + '
     '5/7*q2^8*lambda^5 + 20/7*q2^6*lambda^4 + 30/7*q2^4*lambda^3 + '
     '20/7*q2^2*lambda^2 + 5/7*lambda)/D^4'),
    ('(2-i)^3*p1^5*q1/(3*D)',
     '((2/3-11/3*i)*q1)/D*p1^5 + ((55/3+10/3*i)*q1^2*lambda*hbar + '
     '(-55/3-10/3*i)*q2^2*lambda*hbar + (-55/3-10/3*i)*hbar)/D^2*p1^4 + '
     '((-40/3+220/3*i)*q1^3*lambda^2*hbar^2 + (40-220*i)*q1*q2^2*lambda^2*hbar^2 + '
     '(40-220*i)*q1*lambda*hbar^2)/D^3*p1^3 + ((-220-40*i)*q1^4*lambda^3*hbar^3 + '
     '(1320+240*i)*q1^2*q2^2*lambda^3*hbar^3 + (1320+240*i)*q1^2*lambda^2*hbar^3 + '
     '(-220-40*i)*q2^4*lambda^3*hbar^3 + (-440-80*i)*q2^2*lambda^2*hbar^3 + '
     '(-220-40*i)*lambda*hbar^3)/D^4*p1^2 + ((80-440*i)*q1^5*lambda^4*hbar^4 + '
     '(-800+4400*i)*q1^3*q2^2*lambda^4*hbar^4 + '
     '(-800+4400*i)*q1^3*lambda^3*hbar^4 + (400-2200*i)*q1*q2^4*lambda^4*hbar^4 + '
     '(800-4400*i)*q1*q2^2*lambda^3*hbar^4 + '
     '(400-2200*i)*q1*lambda^2*hbar^4)/D^5*p1 + ((440+80*i)*q1^6*lambda^5*hbar^5 + '
     '(-6600-1200*i)*q1^4*q2^2*lambda^5*hbar^5 + '
     '(-6600-1200*i)*q1^4*lambda^4*hbar^5 + '
     '(6600+1200*i)*q1^2*q2^4*lambda^5*hbar^5 + '
     '(13200+2400*i)*q1^2*q2^2*lambda^4*hbar^5 + '
     '(6600+1200*i)*q1^2*lambda^3*hbar^5 + (-440-80*i)*q2^6*lambda^5*hbar^5 + '
     '(-1320-240*i)*q2^4*lambda^4*hbar^5 + (-1320-240*i)*q2^2*lambda^3*hbar^5 + '
     '(-440-80*i)*lambda^2*hbar^5)/D^6'),
)


@pytest.mark.parametrize("text, printed", PRINTED_FORMS,
                         ids=("gaussian_parts", "minus_i_over_d3", "cube_of_2_minus_i"))
def test_printed_forms_are_golden(text, printed):
    x = parse(text, 2)
    assert str(x) == printed
    assert parse(printed, 2) == x


def test_push_through_constant_table():
    # p1^5 q1^5 = sum_g C(5,g) 5!/(5-g)! (-i*hbar)^g q1^(5-g) p1^(5-g); the
    # right side takes its powers of -i*hbar from Poly products, and g = 0..5
    # covers every residue of g mod 4
    rhs = OperatorExpr.zero(2)
    for g in range(6):
        rhs = rhs + parse(f"{comb(5, g) * perm(5, g)}*(-i*hbar)^{g}*q1^{5 - g}*p1^{5 - g}", 2)
    assert parse("p1^5*q1^5", 2) == rhs


def test_exact_eval_is_real_or_refused():
    point = (Fraction(1, 2), 3, Fraction(-1, 3), 2, 5)  # q1, q2, lambda, omega, hbar
    assert parse("i*i*q1*hbar", 2).terms[(0, 0)].num.eval(point) == Fraction(-5, 2)
    d = 1 + Fraction(-1, 3) * (Fraction(1, 4) + 9)
    assert parse("(3/4)*q1*hbar/D", 2).terms[(0, 0)].eval(point) == Fraction(15, 8) / d
    imag = parse("(3/4 + 2*i)*q1*hbar", 2).terms[(0, 0)].num
    with pytest.raises(ValueError, match="not real"):
        imag.eval(point)
    assert imag.eval([float(x) for x in point]) == pytest.approx((0.75 + 2j) * 2.5)
