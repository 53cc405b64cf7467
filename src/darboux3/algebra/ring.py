"""Exact coefficient ring for the curved-oscillator operator algebra.

Coefficients of normal-ordered operators live in the ring

    Q(i)[q_1..q_N, lambda, omega, hbar][1/D],      D = 1 + lambda*(q_1^2+...+q_N^2),

i.e. polynomials with Gaussian-rational coefficients divided by powers of the
single irreducible polynomial D.  Arithmetic never reduces: a sum keeps its
numerator over the larger D-power and a product adds the powers.  Only
printing and the verifier's D-power guard need the canonical form, and
``Coefficient.canonical`` gets it by dividing D out of the numerator for as
long as D divides it.  That question is settled by trial division in
``divide_by_d``, so no general multivariate GCD machinery lives here.  The
verifier asks only whether a result is zero, and num/D^k is zero exactly when
num is, so a passing check never divides at all; equality asks the same of the
difference.

Packed monomials.  The variables are q_1..q_N, lambda, omega, hbar, in that
order, and a monomial is one int: each of its nq+3 exponents sits in a slot of
``SLOT_BITS`` = 16 bits, q_1 in the most significant slot and hbar in the least,

    key = sum_k e_k << 16*(nq + 2 - k).

Integer order is therefore the order of the exponent tuples, and the product of
two monomials is the sum of their keys.  The top bit of every slot is a guard:
an exponent is at most ``MAX_EXPONENT`` = 2^15 - 1, so adding two keys never
carries from one slot into the next, and a product that sets a guard bit raises
``OverflowError`` instead of wrapping.  Only the constructors, printing,
``eval`` and the per-variable methods (``diff``, ``substitute_zero``,
``degree_in``) read or write single slots.

All arithmetic is exact: a ``Poly`` holds Gaussian-integer numerators over one
positive integer denominator, the only exact scalar type.  A scalar factor is
an ``int`` or a ``Fraction``, and both operands of a sum are ``Poly``; i, or
any Gaussian rational, enters as a constant ``Poly`` built from its real and
imaginary parts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import or_

SLOT_BITS = 16
MAX_EXPONENT = (1 << (SLOT_BITS - 1)) - 1
# largest power of D the ring expands into a polynomial: verify at N = 2..8
# and the parse round trips of the verify-residual corpus reach D^3, and
# D^12 has 125,970 monomials at N = 8
MAX_D_POWER = 12
_MASK = (1 << SLOT_BITS) - 1


def _shift(nq, idx):
    """Bit offset of the slot of variable ``idx`` (q_1 highest, hbar at 0)."""
    return SLOT_BITS * (nq + 2 - idx)


def _names(nq):
    return [f"q{i+1}" for i in range(nq)] + ["lambda", "omega", "hbar"]


def _key(nq, idx, power):
    """Packed key of variable ``idx`` to the ``power``."""
    if not 0 <= power <= MAX_EXPONENT:
        raise OverflowError(f"exponent {power} of {_names(nq)[idx]} is outside 0..{MAX_EXPONENT}")
    return power << _shift(nq, idx)


def _pack(nq, exps):
    """Packed key of the monomial with exponents ``exps``, in variable order."""
    if len(exps) != nq + 3:
        raise ValueError(f"{len(exps)} exponents for {nq + 3} variables")
    return sum(_key(nq, idx, k) for idx, k in enumerate(exps))


def _unpack(nq, key):
    """The exponents of ``key``, in variable order."""
    return tuple(key >> s & _MASK for s in range(SLOT_BITS * (nq + 2), -1, -SLOT_BITS))


@cache
def _guard(nq):
    """The top bit of every slot of a key."""
    return sum(1 << (_shift(nq, idx) + SLOT_BITS - 1) for idx in range(nq + 3))


def _check(nq, terms):
    """Raise OverflowError when a key of ``terms`` has a guard bit set."""
    bad = reduce(or_, terms, 0) & _guard(nq)
    if bad:
        idx = nq + 2 - (bad.bit_length() - 1) // SLOT_BITS
        raise OverflowError(f"exponent of {_names(nq)[idx]} exceeds {MAX_EXPONENT}")


class Poly:
    """Multivariate polynomial over Gaussian rationals, sparse dict of monomials.

    ``nq`` is the spatial dimension.  ``terms`` maps each packed monomial key
    (see the module docstring) to a nonzero Gaussian integer ``(re, im)``; the
    polynomial is ``sum (re + i*im) * monomial / den``.  ``den`` is positive
    and its gcd with all the re and im parts is 1, so equal polynomials
    compare equal field by field.  A Poly is never modified after construction.
    """

    __slots__ = ("nq", "terms", "den")

    def __init__(self, nq, terms=None, den=1):
        self.nq = nq
        self.terms = terms if terms is not None else {}
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nq):
        return Poly(nq)

    @staticmethod
    def constant(nq, re, im=0):
        """The constant re + i*im, for int or Fraction parts."""
        return _term(nq, 0, re, im)

    @staticmethod
    def monomial(nq, exps, re=1, im=0):
        """(re + i*im) * monomial, for int or Fraction parts; ``exps`` holds
        the nq+3 exponents in variable order."""
        return _term(nq, _pack(nq, exps), re, im)

    @staticmethod
    def variable(nq, idx, power=1):
        return Poly(nq, {_key(nq, idx, power): (1, 0)})

    # symbolic variable indices
    @staticmethod
    def idx_lambda(nq):
        return nq

    @staticmethod
    def idx_omega(nq):
        return nq + 1

    @staticmethod
    def idx_hbar(nq):
        return nq + 2

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nq == other.nq
            and self.den == other.den
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return Poly(self.nq, {e: (-a, -b) for e, (a, b) in self.terms.items()}, self.den)

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        out = dict(self.terms) if m1 == 1 else {
            e: (a * m1, b * m1) for e, (a, b) in self.terms.items()
        }
        for e, (a, b) in other.terms.items():
            if m2 != 1:
                a, b = a * m2, b * m2
            old = out.get(e)
            if old is not None:
                a, b = a + old[0], b + old[1]
                if not (a or b):
                    del out[e]
                    continue
            out[e] = (a, b)
        return _reduced(self.nq, out, d1 * m1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.nq)
            c = other.numerator
            terms = {e: (a * c, b * c) for e, (a, b) in self.terms.items()}
            return _reduced(self.nq, terms, self.den * other.denominator)
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        if len(small) == 1:
            # one monomial: e -> e + m is injective, so nothing merges, and
            # Gaussian integers have no zero divisors, so nothing vanishes
            (m, (c, d)), = small.items()
            if d == 0 and c == 1:
                out = {e + m: v for e, v in large.items()}
            else:
                out = {e + m: (a * c - b * d, a * d + b * c) for e, (a, b) in large.items()}
        else:
            out = {}
            get = out.get
            for e1, (a, b) in small.items():
                for e2, (c, d) in large.items():
                    e = e1 + e2
                    re, im = a * c - b * d, a * d + b * c
                    old = get(e)
                    out[e] = (re, im) if old is None else (re + old[0], im + old[1])
            # a product term vanishes only where two products landed on one monomial
            if len(out) < len(small) * len(large):
                out = {e: v for e, v in out.items() if v[0] or v[1]}
        _check(self.nq, out)
        return _reduced(self.nq, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Poly.constant(self.nq, 1)
        out, base = None, self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def diff(self, idx):
        """Partial derivative with respect to variable ``idx``."""
        s = _shift(self.nq, idx)
        one = 1 << s
        out = {}
        for e, (a, b) in self.terms.items():
            k = e >> s & _MASK
            if k:
                out[e - one] = (a * k, b * k)
        return _reduced(self.nq, out, self.den)

    def conjugate(self):
        """Complex conjugation of numeric coefficients (all variables real)."""
        return Poly(self.nq, {e: (a, -b) for e, (a, b) in self.terms.items()}, self.den)

    def substitute_zero(self, idx):
        """Set variable ``idx`` to zero (keep only exponent-0 terms in it)."""
        mask = _MASK << _shift(self.nq, idx)
        out = {e: c for e, c in self.terms.items() if not e & mask}
        return _reduced(self.nq, out, self.den)

    def degree_in(self, idx):
        s = _shift(self.nq, idx)
        return max((e >> s & _MASK for e in self.terms), default=0)

    def eval(self, values):
        """Value at ``values``, nq+3 numbers: complex for floats; for ints and
        Fractions an exact Fraction, and ValueError when it is not real."""
        exact = all(isinstance(x, (int, Fraction)) for x in values)
        terms = {_unpack(self.nq, e): c for e, c in self.terms.items()}
        s, top = 1, 0
        if exact:  # integers n = s*x, and a term of degree d times s^(top - d)
            s = lcm(*(x.denominator for x in values))
            values = [x.numerator * (s // x.denominator) for x in values]
            top = max(map(sum, terms), default=0)
        re = im = 0
        for e, (a, b) in terms.items():
            m = s ** (top - sum(e))
            for k, x in zip(e, values):
                if k:
                    m *= x**k
            re += a * m
            im += b * m
        if not exact:
            return complex(re, im) / self.den
        if im:
            raise ValueError("exact value is not real")
        return Fraction(re, self.den * s**top)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = _names(self.nq)
        parts = []
        for e, (a, b) in sorted(self.terms.items(), reverse=True):
            exps = _unpack(self.nq, e)
            factors = [f"{n}^{k}" if k > 1 else n for n, k in zip(names, exps) if k]
            coef = _format_scalar(a, b, self.den)
            if factors and coef == "1":
                parts.append("*".join(factors))
            elif factors and coef == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([coef] + factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


def _format_scalar(a, b, den):
    """(a + i*b)/den as printed: "3/2", "i", "-1*i", "2/3*i", "(1/2-3/4*i)"."""
    if not b and den == 1:
        return str(a)
    re, im = Fraction(a, den), Fraction(b, den)
    if not im:
        return str(re)
    if not re:
        return f"{im}*i" if im != 1 else "i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    return f"({re}{sign}{'i' if mag == 1 else f'{mag}*i'})"


def _term(nq, key, re, im):
    """(re + i*im) * the monomial ``key``, for int or Fraction parts."""
    if type(re) is int and type(im) is int:
        den = 1
    else:
        re, im = Fraction(re), Fraction(im)
        den = lcm(re.denominator, im.denominator)
        re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
    if not (re or im):
        return Poly(nq)
    return _reduced(nq, {key: (re, im)}, den)


def _reduced(nq, terms, den):
    """Poly of ``terms``/``den`` with the common factor of den and all parts divided out."""
    if den == 1:
        return Poly(nq, terms)
    g = den
    for a, b in terms.values():
        g = gcd(g, a, b)
        if g == 1:
            return Poly(nq, terms, den)
    if not terms:
        return Poly(nq)
    return Poly(nq, {e: (a // g, b // g) for e, (a, b) in terms.items()}, den // g)


# D^0..D^k per nq, built on demand; a longer list replaces a shorter one, so
# a reader never sees a list being extended
_D_POWERS = {}


def _d_power(nq, k):
    """D**k, built once per (nq, k) and shared by every caller.

    Each missing power is the one below it times D, from the largest power
    built so far.  D^k has comb(k + nq, nq) monomials, so a power above
    ``MAX_D_POWER`` raises OverflowError.
    """
    powers = _D_POWERS.get(nq)
    if powers is None or k >= len(powers):
        if k > MAX_D_POWER:
            raise OverflowError(f"exponent {k} of D is outside 0..{MAX_D_POWER}")
        if powers is None:
            lam = _key(nq, Poly.idx_lambda(nq), 1)
            powers = [Poly.constant(nq, 1),
                      Poly(nq, {0: (1, 0), **{_key(nq, i, 2) + lam: (1, 0) for i in range(nq)}})]
        powers = list(powers)
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        _D_POWERS[nq] = powers
    return powers[k]


def d_poly(nq):
    """The conformal factor D = 1 + lambda*(q1^2 + ... + qN^2)."""
    return _d_power(nq, 1)


def q_squared(nq):
    """q1^2 + ... + qN^2 (no lambda factor)."""
    return Poly(nq, {_key(nq, i, 2): (1, 0) for i in range(nq)})


def divide_by_d(p):
    """Exact quotient p / D, or None when D does not divide p.

    p is viewed as a polynomial in lambda with coefficients in the remaining
    variables; since D = 1 + lambda*S with S = q^2, the quotient coefficients
    satisfy b_0 = c_0, b_k = c_k - b_{k-1}*S, closing only when the top
    lambda-coefficient matches.  The numerators are divided; the common
    denominator carries over unchanged.
    """
    if p.is_zero():
        return Poly(p.nq)
    nq = p.nq
    il = Poly.idx_lambda(nq)
    kmax = p.degree_in(il)
    if kmax == 0:
        return None
    # split into lambda-degree slices (with the lambda exponent removed)
    sl = _shift(nq, il)
    slices = [{} for _ in range(kmax + 1)]
    for e, c in p.terms.items():
        k = e >> sl & _MASK
        slices[k][e - (k << sl)] = c
    steps = [_key(nq, i, 2) for i in range(nq)]
    guard = _guard(nq)
    b_parts = [slices[0]]
    for k in range(1, kmax + 1):
        # c_k - b_{k-1}*S, with S*x shifting one q_i exponent by 2
        rest = dict(slices[k])
        for e, (a, b) in b_parts[k - 1].items():
            for step in steps:
                e2 = e + step
                old = rest.get(e2)
                a2, b2 = (-a, -b) if old is None else (old[0] - a, old[1] - b)
                if a2 or b2:
                    rest[e2] = (a2, b2)
                else:
                    del rest[e2]
        # if D divides p, b_k is a lambda-slice of p/D, whose degree in each
        # q_i is that of p minus 2: a part past the bound proves it does not
        if reduce(or_, rest, 0) & guard:
            return None
        b_parts.append(rest)
    # the last part is the remainder c_kmax - b_(kmax-1)*S
    if b_parts.pop():
        return None
    # reassemble quotient with lambda exponents reattached
    out = {}
    for k, part in enumerate(b_parts):
        for e, c in part.items():
            out[e + (k << sl)] = c
    return _reduced(nq, out, p.den)


class Coefficient:
    """Rational function numerator / D^dpow, stored as built.

    The arguments are kept as given, so the numerator may still hold factors
    of D.  ``canonical`` divides them out; printing and
    ``OperatorExpr.max_d_power`` read that form, equality and arithmetic
    never do.

    A Coefficient is never modified after construction: every operation
    returns a new one, and results may share ``num`` with their operands.
    ``pushed`` is the one slot written later, by the operator layer: None, or
    a table of this coefficient's push-through expansions by momentum power
    (see ``operators._pushed``), which depend only on the immutable value and
    hold only derivatives, never the coefficient itself.
    """

    __slots__ = ("num", "dpow", "pushed")

    def __init__(self, num, dpow=0):
        self.num = num
        self.dpow = dpow
        self.pushed = None

    @staticmethod
    def zero(nq):
        return Coefficient(Poly.zero(nq))

    @staticmethod
    def constant(nq, c):
        return Coefficient(Poly.constant(nq, c))

    def canonical(self):
        """The same function with D divided out of the numerator.

        Canonical: zero is (0, 0); a nonzero numerator with dpow > 0 is not
        divisible by D.  D is irreducible, so this form is unique.
        """
        num, dpow = self.num, self.dpow
        while dpow > 0:
            q = divide_by_d(num)
            if q is None:
                break
            num, dpow = q, dpow - 1
        return Coefficient(num, dpow)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return isinstance(other, Coefficient) and (self - other).is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __neg__(self):
        return Coefficient(-self.num, self.dpow)

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        k = max(self.dpow, other.dpow)
        nq = self.num.nq
        n1 = self.num * _d_power(nq, k - self.dpow) if k > self.dpow else self.num
        n2 = other.num * _d_power(nq, k - other.dpow) if k > other.dpow else other.num
        return Coefficient(n1 + n2, k)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Coefficient):
            return Coefficient(self.num * other.num, self.dpow + other.dpow)
        return Coefficient(self.num * other, self.dpow)

    __rmul__ = __mul__

    def __pow__(self, n):
        return Coefficient(self.num**n, self.dpow * n)

    def diff_q(self, i):
        """d/dq_i of num/D^k, staying inside the D-power ring."""
        nq = self.num.nq
        dn = self.num.diff(i)
        if self.dpow == 0:
            return Coefficient(dn)
        # (dn*D - 2*k*lambda*q_i*num) / D^(k+1)
        lam_qi = Poly(nq, {_key(nq, i, 1) + _key(nq, Poly.idx_lambda(nq), 1): (2 * self.dpow, 0)})
        return Coefficient(dn * _d_power(nq, 1) - lam_qi * self.num, self.dpow + 1)

    def conjugate(self):
        return Coefficient(self.num.conjugate(), self.dpow)

    def substitute_lambda_zero(self):
        """Set lambda = 0 (D becomes 1, the denominator disappears)."""
        nq = self.num.nq
        return Coefficient(self.num.substitute_zero(Poly.idx_lambda(nq)))

    def eval(self, values):
        if not self.dpow:
            return self.num.eval(values)
        d = _d_power(self.num.nq, 1).eval(values)
        return self.num.eval(values) / d ** self.dpow

    def __str__(self):
        c = self.canonical()
        if c.dpow == 0:
            return f"({c.num})"
        suffix = "/D" if c.dpow == 1 else f"/D^{c.dpow}"
        return f"({c.num}){suffix}"

    __repr__ = __str__
