"""Normal-ordered differential operators on R^N with D-power rational coefficients.

An OperatorExpr is a finite sum sum_alpha c_alpha(q) * p^alpha with all
position dependence collected to the left of all momentum factors under
[q_i, p_j] = i*hbar*delta_ij.  Products are renormal-ordered with the exact
push-through rule

    p^alpha f(q) = sum_{gamma <= alpha} binom(alpha, gamma) (-i*hbar)^|gamma|
                   (d^gamma f) p^(alpha - gamma),

so two operators are equal iff their term maps have the same keys and equal
coefficients, which compare by their difference, never in canonical form.
Coefficients commute, so the gamma = 0 terms c_alpha*d_beta*p^(alpha+beta)
of A*B and B*A are equal: a commutator is formed from the gamma != 0 terms
of the two products alone.

The expansion of p^alpha f(q) depends only on alpha and f, and a Coefficient
is never modified after construction (only ``OperatorExpr.terms`` is, by
``_put``), so each Coefficient keeps the finished expansion for every nonzero
alpha it has been pushed through in its ``pushed`` table, less the leading
gamma = 0 term, which is the coefficient itself.  A Hamiltonian multiplied
into every invariant of a verification derives each expansion once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from math import comb, prod

from .ring import MAX_EXPONENT, Coefficient, Poly, _key

# powers of -i cycle with period 4, as (re, im) pairs
_MINUS_I_POW = ((1, 0), (0, -1), (-1, 0), (0, 1))


class OperatorExpr:
    """Finite sum of normal-ordered terms c(q) * p^alpha."""

    __slots__ = ("nq", "terms")

    def __init__(self, nq, terms=None):
        self.nq = nq
        self.terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nq):
        return OperatorExpr(nq)

    @staticmethod
    def identity(nq):
        return OperatorExpr(nq, {(0,) * nq: Coefficient.constant(nq, 1)})

    @staticmethod
    def from_coefficient(nq, coeff):
        """Pure multiplication operator by a rational function of q."""
        return OperatorExpr(nq, {(0,) * nq: coeff} if coeff else {})

    @staticmethod
    def position(nq, i):
        return OperatorExpr.from_coefficient(nq, Coefficient(Poly.variable(nq, i)))

    @staticmethod
    def momentum(nq, i):
        alpha = [0] * nq
        alpha[i] = 1
        return OperatorExpr(nq, {tuple(alpha): Coefficient.constant(nq, 1)})

    @staticmethod
    def symbol(nq, name):
        idx = {"lambda": Poly.idx_lambda(nq), "omega": Poly.idx_omega(nq), "hbar": Poly.idx_hbar(nq)}[name]
        return OperatorExpr.from_coefficient(nq, Coefficient(Poly.variable(nq, idx)))

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, OperatorExpr) and self.nq == other.nq and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def term_count(self):
        return len(self.terms)

    def momentum_degree(self):
        return max((sum(a) for a in self.terms), default=0)

    def max_d_power(self):
        """Largest D-power of any coefficient in canonical form."""
        return max((c.canonical().dpow for c in self.terms.values()), default=0)

    def _put(self, alpha, coeff):
        old = self.terms.get(alpha)
        s = coeff if old is None else old + coeff
        if s:
            self.terms[alpha] = s
        elif alpha in self.terms:
            del self.terms[alpha]

    # -- linear operations ---------------------------------------------------

    def __neg__(self):
        return OperatorExpr(self.nq, {a: -c for a, c in self.terms.items()})

    def __add__(self, other):
        out = OperatorExpr(self.nq, dict(self.terms))
        for a, c in other.terms.items():
            out._put(a, c)
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a scalar or by a pure function of q (a Coefficient)."""
        if isinstance(c, (int, Fraction)):
            if not c:
                return OperatorExpr.zero(self.nq)
            return OperatorExpr(self.nq, {a: v * c for a, v in self.terms.items()})
        out = OperatorExpr(self.nq)
        for a, v in self.terms.items():
            out._put(a, v * c)
        return out

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = OperatorExpr(self.nq)
        for alpha, c in self.terms.items():
            for beta, d in other.terms.items():
                out._put(tuple(a + b for a, b in zip(alpha, beta)), c * d)
        _add_pushed(out, self, other, negate=False)
        return out

    def __pow__(self, n):
        """self multiplied in n times (repeated squaring made (q1 + p1)^30
        three times slower); OverflowError when the momentum degree would pass
        ring.MAX_EXPONENT, the bound of every exponent of q."""
        if n < 0:
            raise ValueError("negative operator power")
        if self.momentum_degree() * n > MAX_EXPONENT:
            raise OverflowError(f"momentum degree {self.momentum_degree() * n} exceeds {MAX_EXPONENT}")
        out = OperatorExpr.identity(self.nq)
        for _ in range(n):
            out = out * self
        return out

    def commutator(self, other):
        """self*other - other*self from the push-through terms alone: each
        leading product c_alpha*d_beta*p^(alpha+beta) of one order equals one
        of the other, because coefficients commute, so neither is formed."""
        out = OperatorExpr(self.nq)
        _add_pushed(out, self, other, negate=False)
        _add_pushed(out, other, self, negate=True)
        return out

    # -- involutions ---------------------------------------------------------

    def adjoint(self):
        """Formal adjoint in the unweighted L2 product: reverse factors,
        conjugate i, renormal-order."""
        out = OperatorExpr(self.nq)
        for alpha, c in self.terms.items():
            for gamma_alpha, coeff in _push_through(alpha, c.conjugate()):
                out._put(gamma_alpha, coeff)
        return out

    def conjugate_by_d_power(self, a):
        """D^a * X * D^(-a) for rational a, via p_i -> p_i + 2i*hbar*a*lambda*q_i/D.

        Exact for fractional a because only the logarithmic derivative of D
        enters the shifted momentum.
        """
        a = Fraction(a)
        nq = self.nq
        if a == 0 or self.is_zero():
            return OperatorExpr(nq, dict(self.terms))
        shifted = []
        for i in range(nq):
            e = [0] * (nq + 3)
            e[i] = 1
            e[Poly.idx_lambda(nq)] = 1
            e[Poly.idx_hbar(nq)] = 1
            extra = Coefficient(Poly.monomial(nq, e, 0, 2 * a), 1)
            shifted.append(OperatorExpr.momentum(nq, i) + OperatorExpr.from_coefficient(nq, extra))
        # cache powers of each shifted momentum
        maxpow = [0] * nq
        for alpha in self.terms:
            for i, k in enumerate(alpha):
                maxpow[i] = max(maxpow[i], k)
        powers = []
        for i in range(nq):
            row = [OperatorExpr.identity(nq)]
            for _ in range(maxpow[i]):
                row.append(row[-1] * shifted[i])
            powers.append(row)
        out = OperatorExpr.zero(nq)
        for alpha, c in self.terms.items():
            piece = OperatorExpr.from_coefficient(nq, c)
            for i, k in enumerate(alpha):
                if k:
                    piece = piece * powers[i][k]
            out = out + piece
        return out

    def substitute_lambda_zero(self):
        """Flat-space limit lambda -> 0 of every coefficient."""
        out = OperatorExpr(self.nq)
        for a, c in self.terms.items():
            out._put(a, c.substitute_lambda_zero())
        return out

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            mono = "*".join(
                f"p{i+1}^{k}" if k > 1 else f"p{i+1}" for i, k in enumerate(alpha) if k
            )
            c = str(self.terms[alpha])
            parts.append(f"{c}*{mono}" if mono else c)
        return " + ".join(parts)

    __repr__ = __str__


def _add_pushed(out, left, right, negate):
    """Add to ``out`` the push-through terms of left*right past the leading
    products, negated when ``negate``: the sum over alpha != 0 and beta of
    c_alpha * (p^alpha d_beta less d_beta p^alpha) * p^beta."""
    for alpha, c in left.terms.items():
        if not any(alpha):
            continue
        if negate:
            c = -c
        for beta, d in right.terms.items():
            for gamma_alpha, coeff in _pushed(alpha, d):
                out._put(tuple(g + b for g, b in zip(gamma_alpha, beta)), c * coeff)


def _pushed(alpha, coeff):
    """The (new_alpha, coefficient) pairs of p^alpha * coeff(q) after the
    leading (alpha, coeff) one, for a nonzero coeff and alpha; derived by
    ``_push_through`` on the first request and read from coeff's table after.

    The table leaves the leading pair out, so it never refers back to coeff
    and a coefficient with a table is still freed by reference counting.
    """
    table = coeff.pushed
    if table is None:
        table = coeff.pushed = {}
    out = table.get(alpha)
    if out is None:
        # every derivative of a constant is zero: only the leading pair
        constant = coeff.dpow == 0 and coeff.num.is_constant()
        out = table[alpha] = [] if constant else list(_push_through(alpha, coeff))[1:]
    return out


def _push_through(alpha, coeff):
    """Yield (new_alpha, coefficient) pairs for p^alpha * coeff(q).

    Each derivative d^gamma coeff is taken once, from d^(gamma - e_i) coeff
    with i the last axis of gamma; a zero derivative stays out of the table,
    and so does every derivative above it.
    """
    nq = coeff.num.nq
    if all(k == 0 for k in alpha):
        yield alpha, coeff
        return
    ih = Poly.idx_hbar(nq)
    derivs = {}
    for gamma in _cartesian(*(range(k + 1) for k in alpha)):
        g = sum(gamma)
        c = coeff
        if g:
            i = max(j for j, gj in enumerate(gamma) if gj)
            lower = derivs.get(gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:])
            if lower is None:
                continue
            c = lower.diff_q(i)
        if c.is_zero():
            continue
        derivs[gamma] = c
        if g:
            binom = 1
            for ai, gi in zip(alpha, gamma):
                binom *= comb(ai, gi)
            re, im = _MINUS_I_POW[g % 4]
            c = c * Poly(nq, {_key(nq, ih, g): (re * binom, im * binom)})
        yield tuple(a - g_ for a, g_ in zip(alpha, gamma)), c


def symbol_gradients(ops, q, p, lam, omega):
    """Gradients of the hbar = 0 symbols of ``ops`` at the point (q, p), one
    row per operator: d/dq_1..d/dq_N, then d/dp_1..d/dp_N.

    The symbol of sum_alpha c_alpha(q) p^alpha is that sum with commuting q
    and p; every entry is exact (see Poly.eval) for Fraction arguments.
    """
    nq = len(q)
    values = (*q, lam, omega, 0)
    rows = []
    for op in ops:
        row = [0] * (2 * nq)
        for alpha, c in op.terms.items():
            c = Coefficient(c.num.substitute_zero(Poly.idx_hbar(nq)), c.dpow)
            value, mono = c.eval(values), prod(x**a for x, a in zip(p, alpha) if a)
            for i, k in enumerate(alpha):
                if dq := c.diff_q(i):
                    row[i] += dq.eval(values) * mono
                if k:  # d/dp_i p^alpha = k p^(alpha - e_i)
                    lower = alpha[:i] + (k - 1,) + alpha[i + 1:]
                    row[nq + i] += k * value * prod(x**a for x, a in zip(p, lower) if a)
        rows.append(row)
    return rows


def weighted_adjoint(x, weight_power):
    """Adjoint with respect to the inner product with weight D^weight_power.

    A^dagger_W = W^(-1) (formal adjoint) W with W = D^w.
    """
    return x.adjoint().conjugate_by_d_power(-Fraction(weight_power))
