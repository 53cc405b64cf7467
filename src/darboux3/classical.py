"""Classical mechanics of the curved oscillator: trajectories, conserved
quantities, and an exact superintegrability certificate.

The flow is integrated by an adaptive high-order Runge-Kutta scheme (DOP853)
with the drift of the full invariant family as the accuracy certificate.  It
is also solvable in closed form: in the time tau with d tau = dt/D it is the
flat isotropic oscillator dq/d tau = p, dp/d tau = -Omega^2 q at the
frequency Omega = sqrt(omega^2 - 2 lambda H) of model.effective_frequency.
So every bounded orbit closes, with the period closed_form_period(), and
exact_state() gives the trajectory that measures the integrator's global
error, which the invariant drift cannot see.

The Poisson brackets and the independence rank are exact: they use the
gradients of the hbar = 0 symbols of the Schrödinger invariant family that
verify reads too (algebra.schrodinger_family), evaluated at Fraction(q, p),
which is the float state exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from .algebra import schrodinger_family, symbol_gradients
from .model import (bracketed_newton, classical_effective_potential, continuum_threshold,
                    effective_frequency)

CLOSURE_THRESHOLD = 1e-4


class IntegrationError(RuntimeError):
    """Adaptive integration failed (step-size underflow or solver abort)."""


@dataclass
class PhaseState:
    """Classical phase-space point (q, p) at time t."""

    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("phase-space coordinates must be finite")

    @property
    def dim(self):
        return self.q.size

    def as_vector(self):
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_vector(z, t=0.0):
        n = z.size // 2
        return PhaseState(q=z[:n].copy(), p=z[n:].copy(), t=t)


@dataclass
class TrajectoryRecord:
    """Sampled trajectory plus per-invariant relative drift.

    ``t`` has shape (T,) and ``y`` shape (2N, T), one (q, p) column per
    sample time; ``global_error`` is max_t |z(t) - z_exact(t)|, nan for
    unbounded motion.  ``dense`` is the solver's dense output, callable on
    times, over at least 1.01 periods for bounded motion, None otherwise.
    """

    t: np.ndarray
    y: np.ndarray
    drift: dict
    global_error: float
    dense: object

    @property
    def samples(self):
        """The samples as PhaseStates, built on each access."""
        return [PhaseState.from_vector(col, t=float(t)) for col, t in zip(self.y.T, self.t)]

    @property
    def max_drift(self):
        return max(self.drift.values()) if self.drift else 0.0


def _energy(params, qq, pp):
    return (pp + params.omega**2 * qq) / (2.0 * (1.0 + params.lam * qq))


def classical_hamiltonian(params, state):
    """H(q, p) = (p^2 + omega^2 q^2) / (2 (1 + lambda q^2))."""
    q, p = state.q, state.p
    return float(_energy(params, q @ q, p @ p))


def _rhs(params):
    """The flow as the integrator's right-hand side f(t, z), z = (q, p):

        dq/dt = p/D,  dp/dt = s q,  s = (lambda (p^2 + omega^2 q^2)/D - omega^2)/D.

    It works on Python floats and returns a list, which solve_ivp converts:
    on the 2N values of one call numpy's per-call overhead costs more than
    the arithmetic.
    """
    lam, om2 = params.lam, params.omega**2

    def rhs(_t, z):
        z = z.tolist()
        n = len(z) // 2
        q, p = z[:n], z[n:]
        qq = sum([x * x for x in q])
        d = 1.0 + lam * qq
        s = (lam * (sum([x * x for x in p]) + om2 * qq) / d - om2) / d
        return [x / d for x in p] + [x * s for x in q]

    return rhs


def equations_of_motion(params, state):
    """Canonical equations (dq/dt, dp/dt) = (dH/dp, -dH/dq) at a state, as
    two arrays: the values of the integrator's right-hand side _rhs."""
    z = _rhs(params)(state.t, state.as_vector())
    return np.array(z[: state.dim]), np.array(z[state.dim :])


def invariant_names(dim):
    """Stable ordering of the full invariant family for reports."""
    names = ["H"]
    names += [f"C^({m})" for m in range(2, dim + 1)]
    names += [f"C_({m})" for m in range(2, dim)]  # C_(N) duplicates C^(N)
    names += [f"I_{i+1}{j+1}" for i in range(dim) for j in range(i, dim)]
    return names


def invariant_values(params, q, p):
    """Values of the invariant family, one row per name of invariant_names().

    q and p have shape (N,) for one phase-space point or (N, T) for T points;
    the result has shape (K,) or (K, T).  The Fradkin tensor enters on and
    above the diagonal (it is symmetric).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q.shape[0]
    h = _energy(params, np.sum(q * q, axis=0), np.sum(p * p, axis=0))
    lsq = (q[:, None] * p[None, :] - p[:, None] * q[None, :]) ** 2
    rows = [h]
    rows += [lsq[:m, :m][np.triu_indices(m, 1)].sum(axis=0) for m in range(2, n + 1)]
    rows += [lsq[n - m :, n - m :][np.triu_indices(m, 1)].sum(axis=0) for m in range(2, n)]
    i, j = np.triu_indices(n)
    rows += list(p[i] * p[j] - (2.0 * params.lam * h - params.omega**2) * (q[i] * q[j]))
    return np.array(rows)


def _row_index(dim):
    """Row of invariant_values() for every invariant name, C_(N) included."""
    index = {name: k for k, name in enumerate(invariant_names(dim))}
    index[f"C_({dim})"] = index[f"C^({dim})"]  # the two ladders meet at m = N
    return index


def classical_invariants(params, state):
    """Values of {H, C^(m), C_(m), I_ij} at a phase-space point.

    Returns a dict keyed like invariant_names() plus C_(N), an alias of
    C^(N); the trace identity H = (1/2) sum_i I_ii holds to machine precision.
    """
    vals = invariant_values(params, state.q, state.p).tolist()
    return {name: vals[k] for name, k in _row_index(state.dim).items()}


def closed_form_period(params, energy):
    """Period of every bounded orbit at energy H:

        T(H) = 2 pi (omega^2 - lambda H) / (omega^2 - 2 lambda H)^(3/2),

    which is 2 pi / omega at lambda = 0.  Raises ValueError at or above the
    continuum threshold, where the motion is unbounded.
    """
    if energy >= continuum_threshold(params):
        raise ValueError("no period at or above the continuum threshold")
    om = effective_frequency(params, energy)
    return 2.0 * math.pi * (om * om + params.lam * energy) / om**3


def exact_state(params, initial, t):
    """Closed-form solution of the flow at time t (a float or an ndarray).

    In tau (d tau = dt/D, tau = 0 at t = initial.t) the motion is
    q = q0 cos(Omega tau) + (p0/Omega) sin(Omega tau) with p = dq/d tau, and

        t - t0 = tau + lambda [ |q0|^2 c s + (q0.p0) s^2 + H (tau - c s)/Omega^2 ],

    c = cos(Omega tau), s = sin(Omega tau)/Omega.  It is increasing in tau
    (dt/d tau = D >= 1), so every element is solved by model.bracketed_newton
    until |t(tau) - t| <= 1e-13*(1 + |t - t0|).  A float t gives a
    PhaseState, an ndarray of shape (T,) gives an ndarray of shape (2N, T).
    Raises ValueError for unbounded motion (H at or above the continuum
    threshold).
    """
    energy = classical_hamiltonian(params, initial)
    if energy >= continuum_threshold(params):
        raise ValueError("no closed form at or above the continuum threshold")
    om = effective_frequency(params, energy)
    q0, p0 = initial.q, initial.p
    qq0, qp0, pp0 = q0 @ q0, q0 @ p0, p0 @ p0
    lam = params.lam
    elapsed = np.asarray(t, dtype=float) - initial.t

    def residual(tau):
        c, s = np.cos(om * tau), np.sin(om * tau) / om
        f = tau + lam * (qq0 * c * s + qp0 * s * s + energy * (tau - c * s) / om**2) - elapsed
        return f, 1.0 + lam * (qq0 * c * c + 2.0 * qp0 * c * s + pp0 * s * s)

    # t(tau) - tau has the sign of tau, so tau lies between 0 and t - t0;
    # the first guess inverts the secular part of t(tau)
    tau, failed = bracketed_newton(
        residual, elapsed / (1.0 + lam * energy / om**2),
        np.minimum(elapsed, 0.0), np.maximum(elapsed, 0.0), 1e-13 * (1.0 + np.abs(elapsed)),
    )
    if failed.any():
        raise RuntimeError("exact_state: time inversion did not converge")
    c, s = np.cos(om * tau), np.sin(om * tau) / om
    q = np.multiply.outer(q0, c) + np.multiply.outer(p0, s)
    p = np.multiply.outer(p0, c) - om * om * np.multiply.outer(q0, s)
    if elapsed.ndim == 0:
        return PhaseState(q=q, p=p, t=float(t))
    return np.concatenate([q, p])


def integrate(params, initial, t_end, tolerance=1e-10, n_samples=501):
    """Integrate the flow and record the drift of every invariant.

    One DOP853 solve, sampled at n_samples times on [t0, t0 + t_end]; for
    bounded motion it runs to t0 + max(t_end, 1.01 T), T the
    closed_form_period(), and keeps the dense output that orbit_closure()
    reads.  Returns a TrajectoryRecord whose drift entries are
    max_t |I(t) - I(0)| / max(1, |I(0)|) over the sample times, and whose
    global_error compares the samples with exact_state() (nan above the
    continuum threshold).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    z0 = initial.as_vector()
    t0 = initial.t
    energy = classical_hamiltonian(params, initial)
    bounded = energy < continuum_threshold(params)
    t_stop = t0 + (max(t_end, 1.01 * closed_form_period(params, energy)) if bounded else t_end)
    sol = solve_ivp(
        _rhs(params), (t0, t_stop), z0, method="DOP853", rtol=tolerance, atol=tolerance,
        t_eval=np.linspace(t0, t0 + t_end, n_samples), dense_output=bounded,
    )
    if not sol.success:
        raise IntegrationError(f"integrator aborted: {sol.message}")
    n = initial.dim
    ref = invariant_values(params, initial.q, initial.p)
    vals = invariant_values(params, sol.y[:n], sol.y[n:])
    worst = (np.max(np.abs(vals - ref[:, None]), axis=1) / np.maximum(1.0, np.abs(ref))).tolist()
    global_error = math.nan
    if bounded:
        exact = exact_state(params, initial, sol.t)
        global_error = float(np.max(np.linalg.norm(sol.y - exact, axis=0)))
    return TrajectoryRecord(
        t=sol.t,
        y=sol.y,
        drift={name: worst[k] for name, k in _row_index(n).items()},
        global_error=global_error,
        dense=sol.sol,
    )


def orbit_closure(params, initial, record):
    """Distance of the trajectory from its initial point after one period,
    read from the dense output of ``record``, the integrate() record of the
    same initial state.

    Returns a dict with ``period`` = T, the closed_form_period() of the
    initial energy, ``closure_distance`` = |z(t0 + T) - z0|,
    ``period_measured``, the time in [0.99 T, 1.01 T] after t0 where
    |z - z0| is least, and ``conclusive``, true when the distance is at most
    CLOSURE_THRESHOLD * max(1, |z0|); both follow the record's tolerance.
    Unbounded motion (H at or above the continuum threshold) has no period:
    it is reported as inconclusive.
    """
    energy = classical_hamiltonian(params, initial)
    if energy >= continuum_threshold(params):
        return {"period": math.nan, "period_measured": math.nan,
                "closure_distance": math.inf, "conclusive": False}
    period = closed_form_period(params, energy)
    z0, t0, dense = initial.as_vector(), initial.t, record.dense
    if dense is None or dense.t_max < t0 + 1.01 * period:
        raise ValueError("the record's dense output does not cover 1.01 periods of this orbit")
    dist = float(np.linalg.norm(dense(t0 + period) - z0))
    # the bounded minimizer stops at about 1.5e-8 times its argument; in the
    # offset u = t - T that resolves the return time to about 1e-12
    res = minimize_scalar(
        lambda u: float(np.linalg.norm(dense(t0 + period + u) - z0)),
        bounds=(-0.01 * period, 0.01 * period), method="bounded",
        options={"xatol": 1e-13},
    )
    return {
        "period": period,
        "period_measured": period + float(res.x),
        "closure_distance": dist,
        "conclusive": dist <= CLOSURE_THRESHOLD * max(1.0, float(np.linalg.norm(z0))),
    }


@lru_cache(maxsize=1)
def _point_rows(q, p, lam, omega):
    """The exact gradient rows computed so far at one rational point, by
    invariant name.  The brackets and the rank of a state share rows, so the
    last point is kept, with each row computed once at any N."""
    return {}


def _symbol_rows(params, names, state):
    """Exact gradients in z = (q, p) of the named invariants, one row of
    Fractions per name, at Fraction(z), which is the float state exactly."""
    point = [tuple(map(Fraction, x.tolist())) for x in (state.q, state.p)]
    point += [Fraction(params.lam), Fraction(params.omega)]
    rows = _point_rows(*point)
    for name in names:
        if name not in rows:
            rows[name] = tuple(symbol_gradients([schrodinger_family(state.dim)[name]], *point)[0])
    return [rows[name] for name in names]


def involution_matrix(params, names, state):
    """Pairwise Poisson brackets among named invariants, exact, then rounded
    to floats."""
    n = state.dim
    grad = np.array(_symbol_rows(params, names, state), dtype=object)
    upper = np.triu(grad[:, :n] @ grad[:, n:].T - grad[:, n:] @ grad[:, :n].T, 1)
    return (upper - upper.T).astype(float)


def poisson_bracket_with_h(params, name, state):
    """Exact Poisson bracket {H, I_name} at a state, as a float."""
    return float(involution_matrix(params, ["H", name], state)[0, 1])


def independence_names(dim):
    """The 2N-1 member family {H, C^(m), C_(m), I_11}, the first 2N-1 names of
    invariant_names() (C_(N) coincides with C^(N) and is listed once)."""
    return invariant_names(dim)[: 2 * dim - 1]


def independence_rank(params, state, names=None):
    """Exact rank, by Gaussian elimination over the rationals, of the
    invariant Jacobian at a phase-space point: 2N-1 for a generic state of
    the full family; full rank at one point certifies independence on an
    open set around it."""
    rows = _symbol_rows(params, names or independence_names(state.dim), state)
    rank = 0
    for col in range(2 * state.dim):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            rank += 1
            rows = [[a - r[col] / pivot[col] * b for a, b in zip(r, pivot)] if r[col] else r
                    for r in rows if r is not pivot]
    return rank


def random_state(params, rng, *, bounded=True):
    """Random phase-space point with q and p uniform on the cube [-1, 1]^N,
    N = params.dim, redrawn while |q| or |p| is below 0.2 and, when
    ``bounded``, while H is at or above 0.9 times the continuum threshold."""
    threshold = continuum_threshold(params)
    for _ in range(1000):
        q = rng.uniform(-1.0, 1.0, params.dim)
        p = rng.uniform(-1.0, 1.0, params.dim)
        if np.linalg.norm(q) < 0.2 or np.linalg.norm(p) < 0.2:
            continue
        state = PhaseState(q=q, p=p)
        if bounded and classical_hamiltonian(params, state) >= 0.9 * threshold:
            continue
        return state
    raise RuntimeError("failed to sample a generic state")


def radial_reduction_check(params, state, tol=1e-12):
    """Triple equality of the Hamiltonian in Cartesian, spherical and
    flattened-coordinate form, with the radial momentum p_r = q.p/|q| and
    L^2 = C^(N); returns True within tolerance."""
    h_cart = classical_hamiltonian(params, state)
    r = float(np.linalg.norm(state.q))
    if r <= 0:
        raise ValueError("no radial momentum at the origin")
    p_r = float(state.q @ state.p) / r
    lsq = classical_invariants(params, state)[f"C^({state.dim})"]
    d = 1.0 + params.lam * r * r
    h_sph = (p_r**2 + lsq / r**2) / (2.0 * d) + params.omega**2 * r**2 / (2.0 * d)
    p_flat = p_r / math.sqrt(d)
    h_flat = 0.5 * p_flat**2 + classical_effective_potential(params, lsq, r)
    scale = max(1.0, abs(h_cart))
    return abs(h_sph - h_cart) <= tol * scale and abs(h_flat - h_cart) <= tol * scale
