"""Closed-form scalar functions: figure landmarks, flat limits, monotonicity."""

import math

import numpy as np
import pytest

from darboux3.model import (
    EffectiveMinimum,
    ModelParams,
    bracketed_newton,
    classical_effective_minimum,
    classical_effective_potential,
    closed_form_energy,
    continuum_threshold,
    effective_frequency,
    flattening_coordinate,
    inverse_flattening,
    oscillator_potential,
    quantum_effective_minimum,
    quantum_effective_potential,
    scalar_curvature,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(dim=1)
    with pytest.raises(ValueError):
        ModelParams(dim=3, lam=-0.1)
    with pytest.raises(ValueError):
        ModelParams(dim=3, hbar=0.0)
    with pytest.raises(ValueError):
        ModelParams(dim=3, omega=-1.0)


def test_curvature_at_origin_matches_figure1_landmark():
    # figure-1 landmark: N=3, lambda=0.1 gives R(0) = -1.2
    params = ModelParams(dim=3, lam=0.1)
    assert scalar_curvature(params, 0.0) == pytest.approx(-1.2, abs=1e-12)
    # and equals the hyperbolic-space value -2*lambda*N*(N-1) in general
    for n in (2, 3, 5):
        p = ModelParams(dim=n, lam=0.07)
        assert scalar_curvature(p, 0.0) == pytest.approx(-2 * 0.07 * n * (n - 1), rel=1e-14)


def test_curvature_flat_and_direct_substitution():
    for n in (2, 3, 4):
        assert scalar_curvature(ModelParams(dim=n, lam=0.0), 1.7) == 0.0
    # direct substitution oracle at N=3, lambda=0.1, r=2
    lam, n, r = 0.1, 3, 2.0
    expected = -2 * lam * n * (n - 1) * (2 * n + 3 * (n - 2) * lam * r * r) / (
        2 * n * (1 + lam * r * r) ** 3
    )
    assert scalar_curvature(ModelParams(dim=n, lam=lam), r) == pytest.approx(expected, rel=1e-14)


def test_curvature_monotone_increasing_to_zero():
    params = ModelParams(dim=3, lam=0.1)
    rs = np.linspace(0.0, 50.0, 400)
    vals = [scalar_curvature(params, r) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0
    assert abs(scalar_curvature(params, 1e6)) < 1e-10


def test_oscillator_potential_figure2_asymptotes():
    # figure-2 landmark: omega=1, plateau omega^2/(2*lambda)
    for lam, plateau in ((0.02, 25.0), (0.04, 12.5), (0.06, 25.0 / 3.0), (0.1, 5.0)):
        params = ModelParams(dim=3, lam=lam)
        assert continuum_threshold(params) == pytest.approx(plateau, rel=1e-12)
        assert oscillator_potential(params, 1e9) == pytest.approx(plateau, rel=1e-6)
    lam01 = ModelParams(dim=3, lam=0.1)
    assert oscillator_potential(lam01, 0.0) == 0.0
    assert oscillator_potential(ModelParams(dim=3, lam=0.0), 2.0) == pytest.approx(2.0)
    assert continuum_threshold(ModelParams(dim=3, lam=0.0)) == math.inf


def test_oscillator_potential_increasing():
    params = ModelParams(dim=3, lam=0.04)
    rs = np.linspace(0.0, 40.0, 300)
    vals = [oscillator_potential(params, r) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_flattening_flat_limit_and_roundtrip():
    flat = ModelParams(dim=3, lam=0.0)
    assert flattening_coordinate(flat, 3.7) == 3.7
    assert inverse_flattening(flat, 3.7) == 3.7
    params = ModelParams(dim=3, lam=0.02)
    q = flattening_coordinate(params, 3.49)
    assert inverse_flattening(params, q) == pytest.approx(3.49, abs=1e-10)
    # direct substitution at lambda=1, r=1
    unit = ModelParams(dim=3, lam=1.0)
    assert flattening_coordinate(unit, 1.0) == pytest.approx(
        math.sqrt(2.0) / 2.0 + math.asinh(1.0) / 2.0, rel=1e-14
    )


def test_flattening_strictly_increasing_and_inverse_residual():
    params = ModelParams(dim=3, lam=0.3)
    rs = np.linspace(0.0, 20.0, 200)
    qs = [flattening_coordinate(params, r) for r in rs]
    assert all(b > a for a, b in zip(qs, qs[1:]))
    for q in (0.0, 0.3, 2.0, 17.5, 240.0):
        r = inverse_flattening(params, q)
        assert abs(flattening_coordinate(params, r) - q) <= 1e-12 * (1.0 + q)


@pytest.mark.parametrize("lam", (0.005, 0.02, 0.04, 0.1))
def test_inverse_flattening_array_matches_scalar_loop(lam):
    params = ModelParams(dim=3, lam=lam)
    rng = np.random.default_rng(7)
    qs = np.concatenate([np.linspace(200.0 / 4000, 200.0, 4000), rng.uniform(1e-9, 200.0, 500)])
    rs = inverse_flattening(params, qs)
    assert isinstance(rs, np.ndarray) and rs.shape == qs.shape
    loop = np.array([inverse_flattening(params, float(q)) for q in qs])
    assert np.max(np.abs(rs - loop) / loop) <= 1e-15
    # every element meets the per-element stop rule
    assert np.all(np.abs(flattening_coordinate(params, rs) - qs) <= 1e-12 * (1.0 + qs))


def test_inverse_flattening_edge_entries_and_types():
    params = ModelParams(dim=3, lam=0.02)
    rs = inverse_flattening(params, np.array([0.0, 1.5, 0.0, 40.0]))
    assert rs[0] == 0.0 and rs[2] == 0.0
    assert rs[1] == inverse_flattening(params, 1.5)
    flat = ModelParams(dim=3, lam=0.0)
    qs = np.array([0.0, 2.5, 7.0])
    assert np.array_equal(inverse_flattening(flat, qs), qs)
    with pytest.raises(ValueError):
        inverse_flattening(params, np.array([1.0, -1e-12, 3.0]))
    with pytest.raises(ValueError):
        inverse_flattening(params, -0.5)
    with pytest.raises(RuntimeError), np.errstate(invalid="ignore"):
        inverse_flattening(params, np.array([1.0, np.inf]))  # Q(inf) - inf is nan
    # a scalar returns a Python float, whatever the scalar's type
    for q in (2.0, np.float64(2.0), 0.0, 3):
        assert type(inverse_flattening(params, q)) is float
        assert type(inverse_flattening(flat, q)) is float


def test_bracketed_newton_bisects_when_a_step_leaves_the_bracket():
    # from x = 10 or -30 a plain Newton step on arctan(x) - 1/2 lands far
    # outside [-50, 50]
    def residual(x):
        return np.arctan(x) - 0.5, 1.0 / (1.0 + x * x)

    x, failed = bracketed_newton(residual, np.array([10.0, -30.0, 0.0]),
                                 np.full(3, -50.0), np.full(3, 50.0), np.array([1e-15, 1e-15, 1e-3]))
    assert not failed.any()
    assert np.all(np.abs(np.arctan(x) - 0.5) <= [1e-15, 1e-15, 1e-3])
    # 0-d input, and an element that never converges is flagged, not raised
    x, failed = bracketed_newton(residual, np.asarray(2.0), -50.0, 50.0, 1e-15)
    assert x.ndim == 0 and not failed and abs(np.arctan(x) - 0.5) <= 1e-15
    x, failed = bracketed_newton(residual, np.array([1.0, np.nan]), -50.0, 50.0, 1e-15)
    assert failed.tolist() == [False, True] and abs(np.arctan(x[0]) - 0.5) <= 1e-15


def test_quantum_effective_potential_accepts_arrays():
    params = ModelParams(dim=4, lam=0.03, omega=1.1, hbar=0.9)
    rs = np.linspace(0.05, 40.0, 300)
    vals = quantum_effective_potential(params, 2, rs)
    assert np.array_equal(vals, [quantum_effective_potential(params, 2, float(r)) for r in rs])
    with pytest.raises(ValueError):
        quantum_effective_potential(params, 2, np.array([1.0, 0.0]))


def test_classical_effective_potential_figure3_values():
    # figure-3 landmarks
    deformed = ModelParams(dim=3, lam=0.02)
    assert classical_effective_potential(deformed, 100.0, 3.49) == pytest.approx(8.2, abs=0.05)
    flat = ModelParams(dim=3, lam=0.0)
    assert classical_effective_potential(flat, 100.0, math.sqrt(10.0)) == pytest.approx(10.0, rel=1e-12)
    assert classical_effective_potential(flat, 0.0, 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        classical_effective_potential(deformed, 100.0, 0.0)


def test_classical_effective_minimum_matches_figure3():
    deformed = ModelParams(dim=3, lam=0.02)
    m = classical_effective_minimum(deformed, 100.0)
    assert round(m.r_min, 2) == 3.49
    assert round(m.u_min, 2) == 8.2
    flat = classical_effective_minimum(ModelParams(dim=3, lam=0.0), 100.0)
    assert flat.r_min == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert flat.u_min == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        classical_effective_minimum(deformed, 0.0)


def test_classical_minimum_flat_identity_and_consistency():
    # flat identity r_min^2 = sqrt(c)/omega, u_min = omega*sqrt(c)
    for c in (1.0, 25.0, 400.0):
        for om in (0.5, 1.0, 2.0):
            m = classical_effective_minimum(ModelParams(dim=3, lam=0.0, omega=om), c)
            assert m.r_min**2 == pytest.approx(math.sqrt(c) / om, rel=1e-12)
            assert m.u_min == pytest.approx(om * math.sqrt(c), rel=1e-12)
    # substituting r_min back reproduces u_min and a vanishing derivative
    params = ModelParams(dim=3, lam=0.02)
    for c in (4.0, 100.0, 777.0):
        m = classical_effective_minimum(params, c)
        val = classical_effective_potential(params, c, m.r_min)
        assert val == pytest.approx(m.u_min, rel=1e-12)
        h = 1e-6
        deriv = (
            classical_effective_potential(params, c, m.r_min + h)
            - classical_effective_potential(params, c, m.r_min - h)
        ) / (2 * h)
        assert abs(deriv) < 1e-6


def test_deformed_minimum_ordering_vs_flat():
    # deformation pushes the minimum out and down
    flat = ModelParams(dim=3, lam=0.0)
    for lam in (0.01, 0.02, 0.1):
        params = ModelParams(dim=3, lam=lam)
        for c in (10.0, 100.0):
            m, m0 = classical_effective_minimum(params, c), classical_effective_minimum(flat, c)
            assert m.r_min > m0.r_min
            assert m.u_min < m0.u_min


def test_quantum_effective_minima_match_figure4():
    # figure-4 landmarks: N=3, l=10
    deformed = ModelParams(dim=3, lam=0.02)
    m = quantum_effective_minimum(deformed, 10)
    assert round(m.r_min, 2) == 3.59
    assert round(m.u_min, 2) == 8.52
    flat = quantum_effective_minimum(ModelParams(dim=3, lam=0.0), 10)
    assert flat.u_min == pytest.approx(math.sqrt(110.0), rel=1e-9)
    assert flat.r_min == pytest.approx(110.0**0.25, rel=1e-6)


def test_quantum_effective_potential_exceptional_case():
    # N=2, l=0: negative near the origin, still tends to omega^2/(2*lambda)
    params = ModelParams(dim=2, lam=0.1)
    assert quantum_effective_potential(params, 0, 0.05) < 0
    assert quantum_effective_potential(params, 0, 1e5) == pytest.approx(5.0, rel=1e-6)
    with pytest.raises(ValueError):
        quantum_effective_minimum(params, 0)
    with pytest.raises(ValueError):
        quantum_effective_potential(params, 0, 0.0)
    # N=3, l=0: positive but monotone, infimum at the origin -> no interior minimum
    with pytest.raises(ValueError):
        quantum_effective_minimum(ModelParams(dim=3, lam=0.02), 0)
    # N=4 keeps an interior minimum even at l=0
    m4 = quantum_effective_minimum(ModelParams(dim=4, lam=0.02), 0)
    assert m4.r_min > 0 and m4.u_min > 0


def test_quantum_effective_flat_reduction():
    # lambda=0 collapses to the radial oscillator with centrifugal constant
    # l(l+N-2) + N(N-4)/4 + 3/4
    for n in (2, 3, 4):
        params = ModelParams(dim=n, lam=0.0)
        for l in (0, 1, 3):
            c = l * (l + n - 2) + n * (n - 4) / 4.0 + 0.75
            for r in (0.3, 1.1, 4.0):
                expected = c / (2 * r * r) + 0.5 * r * r
                assert quantum_effective_potential(params, l, r) == pytest.approx(expected, rel=1e-12)


def test_closed_form_energy_figure5_values():
    # figure-5 landmarks: N=3, hbar=omega=1
    expected = {0.0: 1.5, 0.01: 1.48, 0.02: 1.46, 0.04: 1.41}
    for lam, e0 in expected.items():
        params = ModelParams(dim=3, lam=lam)
        assert round(closed_form_energy(params, 0), 2) == e0
    assert continuum_threshold(ModelParams(dim=3, lam=0.01)) == pytest.approx(50.0)
    assert continuum_threshold(ModelParams(dim=3, lam=0.04)) == pytest.approx(12.5)


def test_closed_form_energy_flat_ladder():
    for n_dim in (2, 3, 5):
        params = ModelParams(dim=n_dim, lam=0.0, omega=1.3, hbar=0.7)
        for n in range(8):
            assert closed_form_energy(params, n) == pytest.approx(
                0.7 * 1.3 * (n + n_dim / 2.0), rel=1e-14
            )


def test_closed_form_energy_structure():
    params = ModelParams(dim=3, lam=0.02)
    threshold = continuum_threshold(params)
    es = [closed_form_energy(params, n) for n in range(300)]
    assert all(b > a for a, b in zip(es, es[1:]))
    assert all(e < threshold for e in es)
    assert es[-1] > 0.99 * threshold
    gaps = np.diff(es)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01 * gaps[0]
    # frequency identity E_n = hbar * Omega(E_n) * (n + N/2)
    for n in (0, 1, 7, 40):
        e = closed_form_energy(params, n)
        nu = n + params.dim / 2.0
        assert e == pytest.approx(params.hbar * effective_frequency(params, e) * nu, rel=1e-12)


def test_flat_limit_grid():
    # lambda=0 reduces every operation to its textbook flat value
    for n_dim in (2, 3, 4):
        params = ModelParams(dim=n_dim, lam=0.0, omega=1.1, hbar=0.9)
        for r in (0.5, 1.0, 2.5):
            assert scalar_curvature(params, r) == 0.0
            assert oscillator_potential(params, r) == pytest.approx(0.5 * 1.1**2 * r * r, rel=1e-14)
            assert flattening_coordinate(params, r) == r
        for n in (0, 2, 5):
            assert closed_form_energy(params, n) == pytest.approx(
                0.9 * 1.1 * (n + n_dim / 2), rel=1e-14
            )


def test_effective_minimum_dataclass():
    m = EffectiveMinimum(r_min=1.0, u_min=2.0)
    assert m.r_min == 1.0 and m.u_min == 2.0
