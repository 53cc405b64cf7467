"""Exact coefficient ring for the curved-oscillator operator algebra.

Coefficients of normal-ordered operators live in the ring

    Q(i)[q_1..q_N, lambda, omega, hbar][1/D],      D = 1 + lambda*(q_1^2+...+q_N^2),

i.e. polynomials with Gaussian-rational coefficients divided by powers of the
single irreducible polynomial D.  Arithmetic never reduces: a sum keeps its
numerator over the larger D-power and a product adds the powers.  Only
printing and comparison need the canonical form, and ``Coefficient.canonical``
gets it by dividing D out of the numerator for as long as D divides it.  That
question is settled by trial division in ``divide_by_d``, so no general
multivariate GCD machinery lives here.  The verifier asks only whether a
result is zero, and num/D^k is zero exactly when num is, so a passing check
never divides at all.

Variable layout inside exponent tuples: q_1..q_N first, then lambda, omega,
hbar.  All arithmetic is exact: a ``Poly`` holds Gaussian-integer numerators
over one positive integer denominator, the only exact scalar type.  Scalar
operands are ``int`` and ``Fraction``; i, or any Gaussian rational, enters as a
constant ``Poly`` built from its real and imaginary parts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add


class Poly:
    """Multivariate polynomial over Gaussian rationals, sparse dict of monomials.

    ``nq`` is the spatial dimension; exponent tuples have length nq + 3 with
    lambda, omega, hbar occupying the last three slots.  ``terms`` maps each
    exponent tuple to a nonzero Gaussian integer ``(re, im)``; the polynomial
    is ``sum (re + i*im) * monomial / den``.  ``den`` is positive and its gcd
    with all the re and im parts is 1, so equal polynomials compare equal
    field by field.  A Poly is never modified after construction.
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
        return Poly.monomial(nq, (0,) * (nq + 3), re, im)

    @staticmethod
    def monomial(nq, exps, re=1, im=0):
        """(re + i*im) * monomial, for int or Fraction parts."""
        if type(re) is int and type(im) is int:
            den = 1
        else:
            re, im = Fraction(re), Fraction(im)
            den = lcm(re.denominator, im.denominator)
            re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        if not (re or im):
            return Poly(nq)
        return _reduced(nq, {tuple(exps): (re, im)}, den)

    @staticmethod
    def variable(nq, idx, power=1):
        e = [0] * (nq + 3)
        e[idx] = power
        return Poly.monomial(nq, e)

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
        if not self.terms:
            return True
        zero_exp = (0,) * (self.nq + 3)
        return len(self.terms) == 1 and zero_exp in self.terms

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
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nq, other)
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

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nq, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly(self.nq)
            c = other.numerator
            terms = {e: (a * c, b * c) for e, (a, b) in self.terms.items()}
            return _reduced(self.nq, terms, self.den * other.denominator)
        out = {}
        get = out.get
        for e1, (a, b) in self.terms.items():
            for e2, (c, d) in other.terms.items():
                e = tuple(map(add, e1, e2))
                re, im = a * c - b * d, a * d + b * c
                old = get(e)
                out[e] = (re, im) if old is None else (re + old[0], im + old[1])
        # Gaussian integers have no zero divisors: a product term vanishes
        # only where two products landed on one monomial
        if len(out) < len(self.terms) * len(other.terms):
            out = {e: v for e, v in out.items() if v[0] or v[1]}
        return _reduced(self.nq, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.constant(self.nq, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def diff(self, idx):
        """Partial derivative with respect to variable ``idx``."""
        out = {}
        for e, (a, b) in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            e2 = list(e)
            e2[idx] = k - 1
            out[tuple(e2)] = (a * k, b * k)
        return _reduced(self.nq, out, self.den)

    def conjugate(self):
        """Complex conjugation of numeric coefficients (all variables real)."""
        return Poly(self.nq, {e: (a, -b) for e, (a, b) in self.terms.items()}, self.den)

    def substitute_zero(self, idx):
        """Set variable ``idx`` to zero (keep only exponent-0 terms in it)."""
        out = {e: c for e, c in self.terms.items() if e[idx] == 0}
        return _reduced(self.nq, out, self.den)

    def degree_in(self, idx):
        return max((e[idx] for e in self.terms), default=0)

    def eval(self, values):
        """Value at ``values``, nq+3 numbers: complex for floats; for ints and
        Fractions an exact Fraction, and ValueError when it is not real."""
        exact = all(isinstance(x, (int, Fraction)) for x in values)
        s, top = 1, 0
        if exact:  # integers n = s*x, and a term of degree d times s^(top - d)
            s = lcm(*(x.denominator for x in values))
            values = [x.numerator * (s // x.denominator) for x in values]
            top = max(map(sum, self.terms), default=0)
        re = im = 0
        for e, (a, b) in self.terms.items():
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
        names = [f"q{i+1}" for i in range(self.nq)] + ["lambda", "omega", "hbar"]
        parts = []
        for e, (a, b) in sorted(self.terms.items(), reverse=True):
            factors = [f"{n}^{k}" if k > 1 else n for n, k in zip(names, e) if k]
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
    re, im = Fraction(a, den), Fraction(b, den)
    if not im:
        return str(re)
    if not re:
        return f"{im}*i" if im != 1 else "i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    return f"({re}{sign}{'i' if mag == 1 else f'{mag}*i'})"


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


@cache
def _d_power(nq, k):
    """D**k, built once per (nq, k) and shared by every caller."""
    if k == 0:
        return Poly.constant(nq, 1)
    if k > 1:
        return _d_power(nq, k - 1) * _d_power(nq, 1)
    il = Poly.idx_lambda(nq)
    out = Poly.constant(nq, 1)
    for i in range(nq):
        e = [0] * (nq + 3)
        e[i] = 2
        e[il] = 1
        out = out + Poly.monomial(nq, e)
    return out


def d_poly(nq):
    """The conformal factor D = 1 + lambda*(q1^2 + ... + qN^2)."""
    return _d_power(nq, 1)


def q_squared(nq):
    """q1^2 + ... + qN^2 (no lambda factor)."""
    out = Poly.zero(nq)
    for i in range(nq):
        e = [0] * (nq + 3)
        e[i] = 2
        out = out + Poly.monomial(nq, e)
    return out


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
    slices = [{} for _ in range(kmax + 1)]
    for e, c in p.terms.items():
        slices[e[il]][e[:il] + (0,) + e[il + 1:]] = c
    b_parts = [slices[0]]
    for k in range(1, kmax + 1):
        # c_k - b_{k-1}*S, with S*x shifting one q_i exponent by 2
        rest = dict(slices[k])
        for e, (a, b) in b_parts[k - 1].items():
            for i in range(nq):
                e2 = e[:i] + (e[i] + 2,) + e[i + 1:]
                old = rest.get(e2)
                a2, b2 = (-a, -b) if old is None else (old[0] - a, old[1] - b)
                if a2 or b2:
                    rest[e2] = (a2, b2)
                else:
                    del rest[e2]
        b_parts.append(rest)
    # the last part is the remainder c_kmax - b_(kmax-1)*S
    if b_parts.pop():
        return None
    # reassemble quotient with lambda exponents reattached
    out = {}
    for k, part in enumerate(b_parts):
        for e, c in part.items():
            out[e[:il] + (k,) + e[il + 1:]] = c
    return _reduced(nq, out, p.den)


class Coefficient:
    """Rational function numerator / D^dpow, stored as built.

    The arguments are kept as given, so the numerator may still hold factors
    of D.  ``canonical`` divides them out; equality, printing and
    ``OperatorExpr.max_d_power`` read that form, arithmetic never does.
    """

    __slots__ = ("num", "dpow")

    def __init__(self, num, dpow=0):
        self.num = num
        self.dpow = dpow

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
        if not isinstance(other, Coefficient):
            return False
        a, b = self.canonical(), other.canonical()
        return a.dpow == b.dpow and a.num == b.num

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

    def diff_q(self, i):
        """d/dq_i of num/D^k, staying inside the D-power ring."""
        nq = self.num.nq
        dn = self.num.diff(i)
        if self.dpow == 0:
            return Coefficient(dn)
        # (dn*D - 2*k*lambda*q_i*num) / D^(k+1)
        e = [0] * (nq + 3)
        e[i] = 1
        e[Poly.idx_lambda(nq)] = 1
        lam_qi = Poly.monomial(nq, e, 2 * self.dpow)
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
