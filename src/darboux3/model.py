"""Closed-form functions of the curved oscillator model.

Everything here is a pure function of a ModelParams instance; the deformation
parameter lambda controls the departure from the flat isotropic oscillator,
and every formula reduces exactly to its flat counterpart at lambda = 0
(analytic limits, never small-lambda evaluation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INVERSE_TOL = 1e-12


class FlatteningError(ArithmeticError, RuntimeError):
    """inverse_flattening did not converge.  That happens when Q is nan or
    too large for float arithmetic to meet the tolerance, so it is an
    ArithmeticError, like numpy's floating-point errors, and a RuntimeError
    for callers that catch a failed iteration."""


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: dimension N >= 2, deformation lambda >= 0,
    frequency omega >= 0, Planck constant hbar > 0."""

    dim: int
    lam: float = 0.02
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 2:
            raise ValueError("dimension must be an integer >= 2")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True)
class EffectiveMinimum:
    """Location and value of an effective-potential minimum."""

    r_min: float
    u_min: float


def conformal_factor(params, r):
    """D(r) = 1 + lambda*r^2."""
    return 1.0 + params.lam * r * r


def scalar_curvature(params, r):
    """Scalar curvature R(r) = -lambda*(N-1)*(2N + 3*(N-2)*lambda*r^2) / D^3.

    Negative and increasing, with minimum R(0) = -2*lambda*N*(N-1) (the value
    of the hyperbolic space of sectional curvature -2*lambda) and R -> 0 at
    infinity.
    """
    n, lam = params.dim, params.lam
    d = conformal_factor(params, r)
    return -lam * (n - 1) * (2 * n + 3 * (n - 2) * lam * r * r) / d**3


def oscillator_potential(params, r):
    """Intrinsic oscillator potential U(r) = omega^2 r^2 / (2 D).

    Increasing from U(0) = 0 to the asymptotic plateau omega^2/(2*lambda)
    (infinite in the flat case).
    """
    return params.omega**2 * r * r / (2.0 * conformal_factor(params, r))


def continuum_threshold(params):
    """Bottom of the continuous spectrum, omega^2/(2*lambda).

    Returns math.inf for lambda = 0 (flat oscillator: purely discrete).
    """
    if params.lam == 0:
        return math.inf
    return params.omega**2 / (2.0 * params.lam)


def flattening_coordinate(params, r):
    """Canonical flattening coordinate Q(r) = r*sqrt(D)/2 + arcsinh(sqrt(lambda)*r)/(2*sqrt(lambda)).

    Strictly increasing with dQ/dr = sqrt(D); Q = r at lambda = 0 by the
    analytic limit.  r may be a scalar or an ndarray.
    """
    lam = params.lam
    if lam == 0:
        return r
    sl = math.sqrt(lam)
    q = 0.5 * r * np.sqrt(1.0 + lam * r * r) + np.arcsinh(sl * r) / (2.0 * sl)
    return float(q) if np.ndim(q) == 0 else q


def bracketed_newton(residual, x, lo, hi, target):
    """Root of an increasing function, elementwise on an ndarray (0-d included).

    ``residual(x)`` returns (f, df/dx) and lo <= root <= hi brackets every
    element.  Newton iteration, with a bisection of the bracket whenever a
    step leaves it, runs on every element at once; an element stops updating
    once |f| <= target, its own tolerance.  Returns (x, failed), ``failed``
    the mask of the elements still unconverged after 100 iterations.
    """
    active = np.ones(np.shape(x), dtype=bool)
    for _ in range(100):
        f, slope = residual(x)
        active &= ~(np.abs(f) <= target)  # a nan never meets the rule
        if not active.any():
            break
        hi = np.where(f > 0, x, hi)
        lo = np.where(f > 0, lo, x)
        step = x - f / slope
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        x = np.where(active, step, x)
    return x, active


def inverse_flattening(params, q):
    """Inverse of the flattening coordinate: the r >= 0 with Q(r) = q.

    q may be a scalar (a float is returned) or an ndarray.  Every element is
    solved by bracketed_newton (dQ/dr = sqrt(D) >= 1) until
    |Q(r) - q| <= INVERSE_TOL*(1 + |q|).
    """
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0):
        raise ValueError("flattening coordinate must be nonnegative")
    lam = params.lam
    if lam == 0:
        return float(q_arr) if q_arr.ndim == 0 else q_arr.copy()
    # Q(r) >= r, so r = q is an upper bound and 2q + 1 brackets the root
    r, failed = bracketed_newton(
        lambda r: (flattening_coordinate(params, r) - q_arr, np.sqrt(1.0 + lam * r * r)),
        q_arr.copy(), np.zeros_like(q_arr), 2.0 * q_arr + 1.0,
        INVERSE_TOL * (1.0 + np.abs(q_arr)),
    )
    if failed.any():
        bad = float(q_arr[failed][0])
        raise FlatteningError(f"inverse flattening failed to converge for Q={bad!r}")
    return float(r) if r.ndim == 0 else r


def classical_effective_potential(params, c_n, r):
    """Radial effective potential c_N/(2 D r^2) + omega^2 r^2/(2 D).

    c_n is the conserved squared total angular momentum.  Diverges at the
    origin for c_n > 0 and tends to omega^2/(2*lambda) at infinity.
    """
    if r <= 0:
        if c_n > 0:
            raise ValueError("r must be positive (centrifugal pole at r = 0)")
        if r < 0:
            raise ValueError("r must be nonnegative")
        return 0.0
    d = conformal_factor(params, r)
    return c_n / (2.0 * d * r * r) + params.omega**2 * r * r / (2.0 * d)


def classical_effective_minimum(params, c_n):
    """Minimum of the classical effective potential.

    r_min^2 = (lambda*c_N + sqrt(lambda^2 c_N^2 + omega^2 c_N)) / omega^2 and
    u_min = -lambda*c_N + sqrt(lambda^2 c_N^2 + omega^2 c_N); both reduce to
    the flat values sqrt(c_N)/omega and omega*sqrt(c_N) at lambda = 0.
    """
    if c_n <= 0:
        raise ValueError("no interior minimum for c_N <= 0")
    if params.omega <= 0:
        raise ValueError("omega must be positive for a confining potential")
    lam, om = params.lam, params.omega
    root = math.sqrt(lam * lam * c_n * c_n + om * om * c_n)
    r_min = math.sqrt((lam * c_n + root) / om**2)
    return EffectiveMinimum(r_min=r_min, u_min=-lam * c_n + root)


def quantum_effective_potential(params, l, r):
    """Effective potential of the one-dimensional reduced problem in the
    flattening coordinate:

        (1/(2D)) * ( hbar^2 (8D - 5) / (4 r^2 D^2)
                     + (hbar^2/r^2) (l(l+N-2) + N(N-4)/4)
                     + omega^2 r^2 ).

    Positive with a unique minimum except for N = 2, l = 0, where it is
    unbounded below at the origin; in all cases it tends to omega^2/(2*lambda)
    at infinity.  r may be a scalar or an ndarray.
    """
    if np.any(np.asarray(r) <= 0):
        raise ValueError("r must be positive")
    n, lam, om, hb = params.dim, params.lam, params.omega, params.hbar
    d = 1.0 + lam * r * r
    cent = hb * hb * (8.0 * d - 5.0) / (4.0 * r * r * d * d)
    cent += hb * hb / (r * r) * (l * (l + n - 2) + n * (n - 4) / 4.0)
    return (cent + om * om * r * r) / (2.0 * d)


def quantum_effective_minimum(params, l):
    """Numerical minimum of the quantum effective potential over r > 0.

    No closed form exists in the deformed case; at lambda = 0 it reduces to
    r_min^2 = hbar*sqrt(l(l+N-2) + (N-1)(N-3)/4)/omega with value
    hbar*omega*sqrt(l(l+N-2) + (N-1)(N-3)/4).  An interior minimum requires
    the short-range coefficient l(l+N-2) + (N-1)(N-3)/4 to be positive:
    it is negative only for N = 2, l = 0 (unbounded below) and zero only for
    N = 3, l = 0 (monotone, infimum at the origin).
    """
    from scipy.optimize import minimize_scalar

    n = params.dim
    c = l * (l + n - 2) + (n - 1) * (n - 3) / 4.0
    if c < 0:
        raise ValueError("no minimum exists for N = 2, l = 0 (unbounded below)")
    if c == 0:
        raise ValueError("no interior minimum for N = 3, l = 0 (infimum at r = 0)")
    r_flat = math.sqrt(params.hbar * math.sqrt(c) / params.omega)
    res = minimize_scalar(
        lambda r: quantum_effective_potential(params, l, r),
        bracket=(r_flat / 4.0, r_flat, r_flat * 8.0),
        options={"xtol": 1e-12},
    )
    return EffectiveMinimum(r_min=float(res.x), u_min=float(res.fun))


def closed_form_energy(params, n):
    """Discrete level E_n = -lambda*hbar^2*nu^2 + hbar*nu*sqrt(hbar^2 lambda^2 nu^2 + omega^2)
    with nu = n + N/2.

    Strictly increasing in n, bounded by omega^2/(2*lambda), and equal to
    hbar*omega*(n + N/2) in the flat limit.
    """
    if n < 0:
        raise ValueError("quantum number n must be nonnegative")
    nu = n + params.dim / 2.0
    lam, om, hb = params.lam, params.omega, params.hbar
    return -lam * hb * hb * nu * nu + hb * nu * math.sqrt(hb * hb * lam * lam * nu * nu + om * om)


def effective_frequency(params, energy):
    """Energy-dependent frequency Omega(E) = sqrt(omega^2 - 2*lambda*E).

    Real for every bound level (E < omega^2/(2*lambda)); satisfies
    E_n = hbar*Omega(E_n)*(n + N/2) identically.
    """
    val = params.omega**2 - 2.0 * params.lam * energy
    if val < 0:
        raise ValueError("energy above the continuum threshold")
    return math.sqrt(val)
