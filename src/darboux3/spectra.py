"""Radial bound-state solvers and closed-form eigenfunctions.

Two independent numerical routes to the same spectrum; each solves both grids
of the pair (M//2, M) for the k levels it reports and Richardson-extrapolates:

* solve_bound_states discretizes the common one-dimensional form
  -hbar^2/2 u'' + U_eff,l(Q) u = E u in the flattening coordinate Q, with
  the Frobenius power factored out (u = Q^s w, s = l + (N-1)/2) so that the
  equation for w is a flux form with p(0) = 0 (cell-centred, symmetric
  tridiagonal, Dirichlet at the outer end);

* flavor_radial_solve discretizes each flavor's own radial equation in r
  (Sturm-Liouville flux form, symmetrized by that flavor's natural measure),
  which makes the isospectrality comparison across flavors non-vacuous.

Bound levels are paired with the closed-form spectrum through n = 2 n_r + l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .algebra.builders import FLAVORS, conjugation_exponent
from .model import (
    ModelParams,
    closed_form_energy,
    continuum_threshold,
    effective_frequency,
    flattening_coordinate,
    inverse_flattening,
    quantum_effective_potential,
)

# box states sitting within this fraction of the continuum threshold are
# discretization artifacts of the finite grid and are not trusted
THRESHOLD_MARGIN = 0.05

# finer grid M of the Richardson pair (M//2, M): DEFAULT_GRID for the Q-form
# solver, ISOSPECTRAL_GRID for the flavor solvers behind isospectrality_check,
# whose flavors must agree pairwise to ISOSPECTRAL_TOLERANCE.  M = 3000 keeps
# that with a margin of 17 or more over N = 2..6, l <= 10 (M = 1000 misses it
# at N = 2 and 6, l = 0); a finer M gains nothing pairwise, as bisection's
# tolerance grows like 1/h^2
DEFAULT_GRID = 1000
ISOSPECTRAL_GRID = 3000
ISOSPECTRAL_TOLERANCE = 1e-8

TAIL = 1e-12
CONVERGENCE_GRIDS = (1000, 2000, 4000)
NODE_TOL = 1e-8
RESOLVED_FRACTION = 0.75


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: M cells on (0, q_max), Dirichlet at the outer end."""

    q_max: float
    m: int = DEFAULT_GRID

    def __post_init__(self):
        if self.q_max <= 0:
            raise ValueError("q_max must be positive")
        if self.m < 100:
            raise ValueError("at least 100 grid points are required")


@dataclass(frozen=True)
class RadialProblem:
    """One radial eigenproblem: parameters, angular number l, flavor, grid."""

    params: ModelParams
    l: int
    flavor: str = "tlb"
    grid: GridSpec | None = None

    def __post_init__(self):
        if self.l < 0 or int(self.l) != self.l:
            raise ValueError("l must be a nonnegative integer")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    def centrifugal_eigenvalue(self):
        """Exact angular eigenvalue l(l+N-2)."""
        return self.l * (self.l + self.params.dim - 2)


@dataclass
class LevelRecord:
    n_r: int
    n: int
    e_numeric: float
    e_closed: float

    @property
    def abs_residual(self):
        return abs(self.e_numeric - self.e_closed)

    @property
    def rel_residual(self):
        return self.abs_residual / abs(self.e_closed)

    def to_json(self):
        return {
            "n_r": self.n_r,
            "n": self.n,
            "E_numeric": self.e_numeric,
            "E_closed": self.e_closed,
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
        }


@dataclass
class SpectrumReport:
    problem: RadialProblem
    levels: list = field(default_factory=list)
    threshold: float = math.inf
    warnings: list = field(default_factory=list)

    @property
    def max_rel_residual(self):
        return max((lv.rel_residual for lv in self.levels), default=math.nan)

    def to_json(self):
        dim = self.problem.params.dim
        levels = []
        for lv in self.levels:
            rec = lv.to_json()
            # degeneracy bookkeeping: the angular multiplicity of this tower
            # and the full multiplicity of the level n across towers
            rec["dim_Y_l"] = spherical_harmonic_dimension(dim, self.problem.l)
            rec["level_degeneracy"] = math.comb(lv.n + dim - 1, dim - 1)
            levels.append(rec)
        return {
            "params": {
                "N": dim,
                "lambda": self.problem.params.lam,
                "omega": self.problem.params.omega,
                "hbar": self.problem.params.hbar,
            },
            "l": self.problem.l,
            "flavor": self.problem.flavor,
            "grid": {"q_max": self.problem.grid.q_max, "M": self.problem.grid.m},
            "threshold": self.threshold,
            "max_rel_residual": self.max_rel_residual,
            "levels": levels,
            "warnings": list(self.warnings),
        }


def gaussian_tail_radius(params, n):
    """Radius where the level-n Gaussian-Hermite tail drops below TAIL.

    Solves beta^2 r^2 / 2 - n*log(1 + beta*r) = -log(TAIL) by stepping
    outward; beta is the closed-form decay rate of level n.
    """
    e_n = closed_form_energy(params, n)
    beta = math.sqrt(effective_frequency(params, e_n) / params.hbar)
    goal = -math.log(TAIL)
    r = 1.0 / beta
    while beta * beta * r * r / 2.0 - n * math.log1p(beta * r) < goal:
        r *= 1.1
    return r


def default_grid(params, l, k=6, m=DEFAULT_GRID):
    """Automatic grid for the lowest ``k`` radial levels at angular number l.

    q_max is the flattening image of the radius where the highest target
    level (n = 2(k-1)+l) has decayed below TAIL; keeping the box this
    tight is what lets the default M, with extrapolation, resolve the levels
    to better than 1e-6.
    """
    n_top = 2 * (k - 1) + l
    q_max = flattening_coordinate(params, gaussian_tail_radius(params, n_top))
    return GridSpec(q_max=q_max, m=m)


def effective_1d_problem(problem, m=None):
    """Symmetric tridiagonal flux form of the reduced problem in Q.

    With s = l + (N-1)/2 the reduced wave function behaves like Q^s at the
    origin; writing u = Q^s w gives

        -hbar^2/(2 Q^(2s)) (Q^(2s) w')' + [U_eff,l - hbar^2 s(s-1)/(2 Q^2)] w = E w,

    whose bracket is bounded at Q = 0 (the subtracted term cancels the 1/Q^2
    pole of U_eff, since Q = r + O(r^3)).  Cells of width h = q_max/m have
    centres (i-1/2)h, where w and the bracket are sampled, and faces i*h,
    where p = Q^(2s) is; the face at Q = 0 carries p(0) = 0 and the outer end
    is Dirichlet.  The cell mass W_i is the cell mean of Q^(2s), so the
    ratios p/W depend on i and s only: they cannot overflow, and they grow
    polynomially in s (the centre value (i-1/2)^(2s) h^(2s) would make the
    first row grow like 4^s and swamp the levels at large l in bisection's
    tolerance).  Symmetrized by W^(1/2), the eigenvectors are u at the
    centres to second order.  ``m`` overrides the grid's M (the coarse grid
    of the Richardson pair).  Returns (diag, offdiag, q_centres, r_centres).
    """
    params, grid = problem.params, problem.grid
    if grid is None:
        raise ValueError("problem has no grid; use default_grid()")
    m = grid.m if m is None else m
    h = grid.q_max / m
    q = h * (np.arange(1, m + 1) - 0.5)
    r = inverse_flattening(params, q)
    s = problem.l + (params.dim - 1) / 2.0
    hb2 = params.hbar**2
    v = quantum_effective_potential(params, problem.l, r) - hb2 * s * (s - 1.0) / (2.0 * q * q)
    # cell i spans [(i-1)h, ih], so W_i = (ih)^(2s) g_i with
    # g_i = i (1 - x^(2s+1)) / (2s+1) and x = (i-1)/i; p/W is 1/g_i at the
    # upper face and x^(2s)/g_i at the lower face, 0 at i = 1 (p(0) = 0)
    i = np.arange(1, m + 1, dtype=float)
    x = (i - 1.0) / i
    g = i * (1.0 - x ** (2.0 * s + 1.0)) / (2.0 * s + 1.0)
    upper, lower = 1.0 / g, x ** (2.0 * s) / g
    c = hb2 / (2.0 * h * h)
    diag = c * (lower + upper) + v
    off = -c * np.sqrt(upper[:-1] * lower[1:])
    return diag, off, q, r


def _grid_solve(problem, m, k, eigenvectors=False):
    """Lowest min(k, m) levels of the flux form on m cells: (values, vectors,
    q_centres, r_centres), vectors (u at the centres) None unless asked for."""
    diag, off, q, r = effective_1d_problem(problem, m=m)
    result = eigh_tridiagonal(diag, off, select="i", select_range=(0, min(k, m) - 1),
                              eigvals_only=not eigenvectors)
    vals, vecs = result if eigenvectors else (result, None)
    return vals, vecs, q, r


def _richardson(coarse, fine, ratio):
    """Second-order Richardson extrapolation; ``ratio`` is h_coarse / h_fine."""
    rho = ratio * ratio
    return (rho * fine - coarse) / (rho - 1.0)


def _grid_warnings(problem, h):
    """Heuristic coarseness warning: 20 points per de Broglie wavelength at
    the continuum threshold."""
    params = problem.params
    e_top = continuum_threshold(params)
    if math.isinf(e_top):
        e_top = closed_form_energy(params, 2 * 12 + problem.l)
    k_wave = math.sqrt(2.0 * e_top) / params.hbar
    wavelength = 2.0 * math.pi / k_wave
    if h > wavelength / 20.0:
        return [f"grid too coarse: dQ={h:.3g} exceeds 1/20 de Broglie wavelength {wavelength/20:.3g}"]
    return []


def solve_bound_states(problem, k=6, eigenvectors=False):
    """Lowest-k bound levels of the reduced problem, paired with closed form.

    Each grid of the pair (M//2, M) is solved for the lowest k levels, which
    are Richardson-extrapolated; the fine grid M also supplies the
    eigenvectors (u at the cell centres) when asked for.  Extrapolated levels
    above (1 - margin) times the continuum threshold are spurious box states
    on a finite grid and are dropped; the report is truncated when fewer than
    k trusted levels resolve (the true discrete family is infinite,
    accumulating at the threshold; threshold_accumulation counts it).
    """
    if k < 1:
        raise ValueError("at least one level must be requested")
    if problem.grid is None:
        problem = RadialProblem(
            params=problem.params, l=problem.l, flavor=problem.flavor,
            grid=default_grid(problem.params, problem.l, k=k),
        )
    grid = problem.grid
    coarse_m = grid.m // 2
    coarse = _grid_solve(problem, coarse_m, k)[0]
    fine, vecs, q, r = _grid_solve(problem, grid.m, k, eigenvectors)
    extrapolated = _richardson(coarse, fine[: coarse.size], grid.m / coarse_m)
    threshold = continuum_threshold(problem.params)
    trusted = extrapolated[extrapolated < (1.0 - THRESHOLD_MARGIN) * threshold]
    report = SpectrumReport(
        problem=problem,
        threshold=threshold,
        warnings=_grid_warnings(problem, grid.q_max / grid.m),
    )
    for n_r, e in enumerate(trusted[:k]):
        n = 2 * n_r + problem.l
        report.levels.append(
            LevelRecord(
                n_r=n_r, n=n,
                e_numeric=float(e),
                e_closed=closed_form_energy(problem.params, n),
            )
        )
    if vecs is not None:
        report.eigenvectors = vecs[:, : len(report.levels)]
        report.q_nodes = q
        report.r_nodes = r
    return report


def convergence_order(problem, k=6):
    """Measured eigenvalue convergence order of single grids (no
    extrapolation) from the grid-doubling sequence CONVERGENCE_GRIDS.

    Fits |E(h) - E(h/2)| ratios over the lowest k levels that sit below the
    threshold margin; a second-order scheme gives ~2, which is what the
    Richardson extrapolation in solve_bound_states relies on.
    """
    take = min(k, *CONVERGENCE_GRIDS)
    e = np.array([_grid_solve(problem, m, take)[0] for m in CONVERGENCE_GRIDS])
    d1, d2 = np.abs(e[1] - e[0]), np.abs(e[2] - e[1])
    threshold = continuum_threshold(problem.params)
    keep = (d2 > 0) & (e[2] < (1.0 - THRESHOLD_MARGIN) * threshold)
    orders = np.log2(d1[keep] / d2[keep])
    return float(np.min(orders)) if orders.size else math.nan


# ---------------------------------------------------------------------------
# flavor-specific radial discretizations (independent of the Q-form solver)
# ---------------------------------------------------------------------------


def _sl_weights(flavor, r, params):
    """Sturm-Liouville data (p, w) with L = -(hbar^2/2w) d/dr (p d/dr) + V of
    the flavor D^a H D^(-a), a = conjugation_exponent: p = r^(N-1) D^(-2a) and
    w = p*D, the flavor's natural measure r^(N-1) D^(1-2a)."""
    a = conjugation_exponent(flavor, params.dim)
    d = 1.0 + params.lam * r * r
    p = r ** (params.dim - 1) * d ** float(-2 * a)
    return p, p * d


def _sl_potential(flavor, r, params, l):
    """Local potential of the flavor's radial equation: centrifugal term, well
    and the central term hbar^2 a lambda (N + lambda r^2 (N - 2a - 2)) / D^3
    of D^a H D^(-a) (U2 for tlb, V2 for tpdm, 0 for schrodinger)."""
    n, lam, om, hb = params.dim, params.lam, params.omega, params.hbar
    a = float(conjugation_exponent(flavor, n))
    d = 1.0 + lam * r * r
    v = hb * hb * l * (l + n - 2) / (2.0 * d * r * r) + om * om * r * r / (2.0 * d)
    return v + hb * hb * a * lam * (n + lam * r * r * (n - 2 * a - 2)) / d**3


def flavor_radial_solve(params, l, flavor, r_max, k=6, m=ISOSPECTRAL_GRID):
    """Lowest-k levels of one flavor's own radial equation in r on (0, r_max).

    Finite-volume flux discretization on cell centers (i-1/2)h with fluxes on
    faces i*h, i = 0..m.  The face at r = 0 carries p(0) = 0 (p has the factor
    r^(N-1)), which encodes the regularity condition without referencing a
    ghost point; the outer face is Dirichlet and still contributes its flux
    to the last cell.  The matrix is symmetrized by the flavor's own measure.
    """
    h = r_max / m
    p_face, _ = _sl_weights(flavor, h * np.arange(m + 1), params)
    centers = h * (np.arange(1, m + 1) - 0.5)
    _, w_cent = _sl_weights(flavor, centers, params)
    v = _sl_potential(flavor, centers, params, l)
    c = params.hbar**2 / (2.0 * h * h)
    diag = c * (p_face[:-1] + p_face[1:]) / w_cent + v
    off = -c * p_face[1:-1] / np.sqrt(w_cent[:-1] * w_cent[1:])
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True)


def isospectrality_check(params, l, k=6, m=ISOSPECTRAL_GRID):
    """Pairwise spectral agreement of the three independently discretized
    radial flavors on the lowest k levels.

    Each flavor is solved on the grid pair (m//2, m) over one common box and
    Richardson-extrapolated.  Returns a dict with the per-flavor level
    arrays, the worst pairwise relative deviation, and a boolean verdict at
    ISOSPECTRAL_TOLERANCE.  For N = 2 the schrodinger and tlb radial operators
    are identical before discretization; this is asserted separately in
    identical_radial_operators.
    """
    r_max = 1.25 * gaussian_tail_radius(params, 2 * (k - 1) + l)
    levels = {
        fl: _richardson(flavor_radial_solve(params, l, fl, r_max, k=k, m=m // 2),
                        flavor_radial_solve(params, l, fl, r_max, k=k, m=m), m / (m // 2))
        for fl in FLAVORS
    }
    worst = 0.0
    pairs = {}
    for fa, fb in combinations(FLAVORS, 2):
        dev = float(np.max(np.abs(levels[fa] - levels[fb]) / np.abs(levels[fb])))
        pairs[f"{fa}/{fb}"] = dev
        worst = max(worst, dev)
    return {
        "levels": levels,
        "pairwise_rel": pairs,
        "max_pairwise_rel": worst,
        "agree": worst <= ISOSPECTRAL_TOLERANCE,
    }


def identical_radial_operators(params, l):
    """True when the schrodinger and tlb flavors have identical radial
    Sturm-Liouville data on 97 sample radii in [0.1, 10].

    In two dimensions the Laplace-Beltrami corrections vanish, so the two
    problems coincide operator-by-operator.
    """
    r = np.linspace(0.1, 10.0, 97)
    pa, wa = _sl_weights("schrodinger", r, params)
    pb, wb = _sl_weights("tlb", r, params)
    va = _sl_potential("schrodinger", r, params, l)
    vb = _sl_potential("tlb", r, params, l)
    return (
        np.allclose(pa, pb, rtol=1e-15, atol=0)
        and np.allclose(wa, wb, rtol=1e-15, atol=0)
        and np.allclose(va, vb, rtol=1e-15, atol=0)
    )


# ---------------------------------------------------------------------------
# closed-form eigenfunctions
# ---------------------------------------------------------------------------


def hermite_values(n, x):
    """Physicists' Hermite H_0..H_n at x (ndarray ok) by the recurrence
    H_{k+1} = 2x H_k - 2k H_{k-1}."""
    x = np.asarray(x, dtype=float)
    values = [np.ones_like(x)]
    if n >= 1:
        values.append(2.0 * x)
    for k in range(1, n):
        values.append(2.0 * x * values[k] - 2.0 * k * values[k - 1])
    return values


@dataclass(frozen=True)
class CartesianEigenfunction:
    """Unnormalized product eigenfunction with quantum numbers (n_1..n_N).

    The product of Gaussian-Hermite factors solves the rescaled flat problem
    (-hbar^2 Lap + Omega^2 q^2) Psi = 2 E_n Psi with Omega = Omega(E_n); the
    flavor enters only through the factor D^a of D^a H D^(-a), with
    a = conjugation_exponent(flavor, N).
    """

    params: ModelParams
    partition: tuple
    flavor: str = "tlb"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if len(self.partition) != self.params.dim:
            raise ValueError("partition length must equal the dimension")
        if any(int(k) != k or k < 0 for k in self.partition):
            raise ValueError("partition entries must be nonnegative integers")
        object.__setattr__(self, "partition", tuple(int(k) for k in self.partition))

    @property
    def n(self):
        return sum(self.partition)

    @property
    def energy(self):
        return closed_form_energy(self.params, self.n)

    @property
    def beta(self):
        omega_eff = effective_frequency(self.params, self.energy)
        return math.sqrt(omega_eff / self.params.hbar)


def eigenfunction_value(ef, q):
    """Evaluate the closed-form eigenfunction at one point or a batch.

    q has shape (N,) or (batch, N); Hermite factors come from the recurrence,
    and the flavor's factor D^a multiplies the flat product.
    """
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    pts = q[None, :] if single else q
    beta = ef.beta
    core = np.ones(pts.shape[0])
    for i, n_i in enumerate(ef.partition):
        x = beta * pts[:, i]
        h = hermite_values(n_i, x)[n_i]
        core = core * np.exp(-0.5 * x * x) * h
    expo = conjugation_exponent(ef.flavor, ef.params.dim)
    if expo:
        d = 1.0 + ef.params.lam * np.sum(pts * pts, axis=1)
        core = core * d ** float(expo)
    return float(core[0]) if single else core


def _axis_factor_derivatives(n_i, beta, x):
    """(phi, phi'') for phi(x) = exp(-beta^2 x^2/2) H_n(beta x), by the
    derivative rule H_n' = 2n H_{n-1} applied twice (no oscillator identity
    is used, so the residual check below stays independent)."""
    xs = beta * x
    h = hermite_values(n_i, xs)
    gauss = np.exp(-0.5 * xs * xs)
    hn = h[n_i]
    hm1 = h[n_i - 1] if n_i >= 1 else np.zeros_like(xs)
    hm2 = h[n_i - 2] if n_i >= 2 else np.zeros_like(xs)
    phi = gauss * hn
    b2 = beta * beta
    phi2 = gauss * (
        (b2 * b2 * x * x - b2) * hn
        - 4.0 * n_i * b2 * beta * x * hm1
        + 4.0 * n_i * (n_i - 1) * b2 * hm2
    )
    return phi, phi2


def residual_check(ef, sample_points, energy_override=None):
    """Max relative residual of (-hbar^2 Lap + Omega^2 q^2) Psi - 2 E_n Psi
    over sample points, with Psi the flat Gaussian-Hermite product.

    Derivatives are assembled analytically from the Hermite recurrence and
    Gaussian factor rules; points sitting on nodes (|Psi| below NODE_TOL
    times the batch maximum) are excluded from the maximum.  energy_override
    replaces E_n in the residual only (mutation control).
    """
    params = ef.params
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    beta = ef.beta
    e_n = ef.energy if energy_override is None else energy_override
    omega_eff = effective_frequency(params, e_n)
    hb2 = params.hbar**2
    phis, phi2s = [], []
    for i, n_i in enumerate(ef.partition):
        phi, phi2 = _axis_factor_derivatives(n_i, beta, pts[:, i])
        phis.append(phi)
        phi2s.append(phi2)
    psi = np.prod(phis, axis=0)
    lap = np.zeros_like(psi)
    for i in range(params.dim):
        term = phi2s[i].copy()
        for j in range(params.dim):
            if j != i:
                term = term * phis[j]
        lap += term
    qsq = np.sum(pts * pts, axis=1)
    lhs = -hb2 * lap + omega_eff**2 * qsq * psi
    rhs = 2.0 * e_n * psi
    scale = np.abs(lhs) + np.abs(rhs) + hb2 * np.abs(lap)
    keep = np.abs(psi) > NODE_TOL * np.max(np.abs(psi))
    if not np.any(keep):
        raise ValueError("all sample points sit on nodes")
    rel = np.abs(lhs - rhs)[keep] / scale[keep]
    return float(np.max(rel))


def sample_points_avoiding_nodes(ef, rng, count=100, box=None):
    """Draw ``count`` points where the eigenfunction is not vanishingly small."""
    if box is None:
        box = 3.5 / ef.beta
    pts = rng.uniform(-box, box, size=(8 * count, ef.params.dim))
    vals = np.abs(eigenfunction_value(ef, pts))
    keep = vals > NODE_TOL * vals.max()
    if np.sum(keep) < count:
        raise RuntimeError("could not find enough off-node sample points")
    return pts[keep][:count]


# ---------------------------------------------------------------------------
# degeneracy bookkeeping and threshold behavior
# ---------------------------------------------------------------------------


def spherical_harmonic_dimension(dim, l):
    """dim Y_l = (2l+N-2) (l+N-3)! / (l! (N-2)!), with dim Y_0 = 1."""
    if l == 0:
        return 1
    n = dim
    return (2 * l + n - 2) * math.factorial(l + n - 3) // (
        math.factorial(l) * math.factorial(n - 2)
    )


def degeneracy_census(params, n):
    """Cartesian vs radial degeneracy count of level n.

    Cartesian: compositions of n into N parts, C(n+N-1, N-1).  Radial: sum of
    spherical-harmonic dimensions over l = n, n-2, ... >= 0.  Returns a dict
    with both counts and their agreement.
    """
    dim = params.dim
    cartesian = math.comb(n + dim - 1, dim - 1)
    radial = sum(spherical_harmonic_dimension(dim, l) for l in range(n % 2, n + 1, 2))
    return {"n": n, "cartesian": cartesian, "radial": radial, "agree": cartesian == radial}


def threshold_accumulation(params, l, doublings=3, k_cap=400):
    """Spectral counting on successively larger boxes (q_max doubling).

    For lambda > 0 the count of levels below the continuum threshold grows
    with the box and the top resolved levels approach omega^2/(2*lambda) from
    below.  Gap monotonicity (E_{n+1} - E_n decreasing) is evaluated on the
    resolved range below RESOLVED_FRACTION of the threshold: second
    differences are far more sensitive to box distortion than the levels
    themselves, and nearer the threshold the finite box takes over.  At most
    the lowest ``k_cap`` levels below the threshold are counted per grid,
    the first on default_grid(params, l).  Returns a list of per-grid
    summaries.
    """
    if params.lam <= 0:
        raise ValueError("threshold accumulation needs lambda > 0")
    base = default_grid(params, l)
    threshold = continuum_threshold(params)
    out = []
    for stage in range(doublings):
        grid = GridSpec(q_max=base.q_max * 2**stage, m=base.m * 2**stage)
        problem = RadialProblem(params, l, "tlb", grid)
        diag, off, _q, _r = effective_1d_problem(problem)
        # every level below the threshold, selected by value; the lowest
        # min(k_cap, m - 1) of them are kept
        vals = eigh_tridiagonal(diag, off, select="v", select_range=(-math.inf, threshold),
                                eigvals_only=True)
        below = vals[vals < threshold][: min(k_cap, grid.m - 1)]
        resolved = below[below < RESOLVED_FRACTION * threshold]
        out.append(
            {
                "q_max": grid.q_max,
                "m": grid.m,
                "count_below_threshold": int(below.size),
                "top_resolved": float(below[-1]) if below.size else math.nan,
                "gaps_decreasing": bool(np.all(np.diff(np.diff(resolved)) < 0.0))
                if resolved.size > 2 else True,
            }
        )
    return out


def radial_wavefunctions(problem, k=6):
    """Numeric radial wave functions of every flavor from one reduced solve.

    The reduced eigenvector u(Q) converts to the flavor functions through
    Phi_tlb = r^((1-N)/2) D^(-(N-1)/4) u and Phi_f = D^(a_f - a_tlb) Phi_tlb,
    a = conjugation_exponent, on the fine grid's cell centres.  Returns
    (r_nodes, {flavor: array (k, M)}, report).
    """
    report = solve_bound_states(problem, k=k, eigenvectors=True)
    r = report.r_nodes
    params = report.problem.params
    d = 1.0 + params.lam * r * r
    n = params.dim
    u = report.eigenvectors.T  # (k, M)
    phi_tlb = u * r ** ((1 - n) / 2.0) * d ** (-(n - 1) / 4.0)
    a_tlb = conjugation_exponent("tlb", n)
    out = {f: phi_tlb * d ** float(conjugation_exponent(f, n) - a_tlb) for f in FLAVORS}
    return r, out, report
