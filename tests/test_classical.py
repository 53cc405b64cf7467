"""Classical dynamics: canonical equations, conservation, superintegrability."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from darboux3.algebra import (
    build_fradkin, build_hamiltonian, corrupt_fradkin, symbol_gradients,
)
from darboux3.model import ModelParams, closed_form_energy, continuum_threshold
from darboux3 import classical as cl
from darboux3 import reports as rp


PARAMS = ModelParams(dim=3, lam=0.02)


def test_hamiltonian_values():
    flat = ModelParams(dim=3, lam=0.0)
    st = cl.PhaseState(q=np.array([1.0, 2.0, 0.0]), p=np.array([0.5, 0.0, 1.0]))
    assert cl.classical_hamiltonian(flat, st) == pytest.approx(
        0.5 * (st.p @ st.p) + 0.5 * (st.q @ st.q), rel=1e-14
    )
    # q = 0: kinetic only, independent of lambda
    origin = cl.PhaseState(q=np.zeros(3), p=np.array([1.0, 2.0, 2.0]))
    assert cl.classical_hamiltonian(PARAMS, origin) == pytest.approx(4.5, rel=1e-14)
    # hand substitution: omega=1, lambda=0.1, q=(1,0,0), p=(0,1,0) -> 10/11
    st2 = cl.PhaseState(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
    assert cl.classical_hamiltonian(ModelParams(dim=3, lam=0.1), st2) == pytest.approx(
        10.0 / 11.0, rel=1e-14
    )


def test_phase_state_validation():
    with pytest.raises(ValueError):
        cl.PhaseState(q=np.array([1.0, np.inf]), p=np.zeros(2))
    with pytest.raises(ValueError):
        cl.PhaseState(q=np.zeros(3), p=np.zeros(2))


def test_equations_of_motion_flat_and_signs():
    flat = ModelParams(dim=2, lam=0.0)
    st = cl.PhaseState(q=np.array([0.3, -0.7]), p=np.array([1.0, 0.2]))
    dq, dp = cl.equations_of_motion(flat, st)
    assert np.allclose(dq, st.p)
    assert np.allclose(dp, -st.q)
    # p = 0: no motion of q, force points inward for small lambda*q^2
    rest = cl.PhaseState(q=np.array([0.4, 0.0]), p=np.zeros(2))
    dq, dp = cl.equations_of_motion(ModelParams(dim=2, lam=0.05), rest)
    assert np.allclose(dq, 0.0)
    assert dp[0] < 0


def test_equations_of_motion_match_gradient_oracle():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(5):
        st = cl.random_state(PARAMS, rng)
        dq, dp = cl.equations_of_motion(PARAMS, st)
        z = st.as_vector()
        for k in range(6):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            grad = (
                cl.classical_hamiltonian(PARAMS, cl.PhaseState.from_vector(zp))
                - cl.classical_hamiltonian(PARAMS, cl.PhaseState.from_vector(zm))
            ) / (2 * h)
            # dH/dq = -dp/dt, dH/dp = dq/dt
            expect = -dp[k] if k < 3 else dq[k - 3]
            assert grad == pytest.approx(expect, abs=1e-6)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_equations_of_motion_match_exact_gradients(dim):
    # (dq/dt, dp/dt) = (dH/dp, -dH/dq), with the gradient of the hbar = 0
    # symbol of H taken exactly at Fraction(q, p), the float state itself
    omega = 1.3
    h = build_hamiltonian("schrodinger", dim)
    rng = np.random.default_rng(300 + dim)
    for lam in (0.0, 0.02, 0.3):
        params = ModelParams(dim=dim, lam=lam, omega=omega)
        for _ in range(10):
            st = cl.random_state(params, rng, bounded=False)
            dq, dp = cl.equations_of_motion(params, st)
            q, p = ([Fraction(x) for x in v.tolist()] for v in (st.q, st.p))
            grad = symbol_gradients([h], q, p, Fraction(lam), Fraction(omega))[0]
            expect = list(grad[dim:]) + [-g for g in grad[:dim]]
            got = dq.tolist() + dp.tolist()
            worst = max(abs(Fraction(x) - e) for x, e in zip(got, expect))
            assert worst <= 1e-15 * max(1, max(abs(e) for e in expect)), (lam, st)
            if lam == 0.0:
                assert np.array_equal(dq, st.p)
                assert np.array_equal(dp, -(omega**2) * st.q)


def test_invariants_structure():
    rng = np.random.default_rng(1)
    st = cl.random_state(PARAMS, rng)
    inv = cl.classical_invariants(PARAMS, st)
    # trace identity to near machine precision
    h = inv["H"]
    assert 0.5 * (inv["I_11"] + inv["I_22"] + inv["I_33"]) == pytest.approx(h, rel=1e-14)
    # parallel q and p annihilate every angular invariant
    par = cl.PhaseState(q=np.array([1.0, 2.0, -0.5]), p=np.array([2.0, 4.0, -1.0]))
    invp = cl.classical_invariants(PARAMS, par)
    assert abs(invp["C^(2)"]) < 1e-14 and abs(invp["C^(3)"]) < 1e-14 and abs(invp["C_(2)"]) < 1e-14
    # flat Fradkin tensor
    flat = ModelParams(dim=3, lam=0.0)
    invf = cl.classical_invariants(flat, st)
    for i in range(3):
        for j in range(i, 3):
            assert invf[f"I_{i+1}{j+1}"] == pytest.approx(
                st.p[i] * st.p[j] + st.q[i] * st.q[j], rel=1e-12
            )


def test_integration_drift_and_error_paths():
    rng = np.random.default_rng(5)
    st = cl.random_state(PARAMS, rng)
    rec = cl.integrate(PARAMS, st, 100.0, tolerance=1e-10)
    assert rec.max_drift < 1e-7
    assert len(rec.samples) == 501
    ts = [s.t for s in rec.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    with pytest.raises(ValueError):
        cl.integrate(PARAMS, st, 10.0, tolerance=0.0)


def test_integration_self_consistency_two_tolerances():
    # energy drift < 1e-8 at t_end = 1e3, certified by two tolerances 1e2 apart
    rng = np.random.default_rng(11)
    st = cl.random_state(PARAMS, rng)
    loose = cl.integrate(PARAMS, st, 1000.0, tolerance=1e-10)
    tight = cl.integrate(PARAMS, st, 1000.0, tolerance=1e-12)
    assert tight.drift["H"] < 1e-8
    assert loose.drift["H"] < 1e-7
    # drift shrinks with the tolerance (about two orders here)
    assert tight.drift["H"] < loose.drift["H"] / 10.0


def test_unbounded_motion_above_threshold():
    # energy above omega^2/(2*lambda) escapes monotonically
    q = np.array([0.1, 0.0, 0.0])
    p = np.array([8.0, 0.5, 0.0])  # H ~ 32 > 25
    st = cl.PhaseState(q=q, p=p)
    assert cl.classical_hamiltonian(PARAMS, st) > continuum_threshold(PARAMS)
    rec = cl.integrate(PARAMS, st, 50.0, tolerance=1e-9)
    radii = [np.linalg.norm(s.q) for s in rec.samples]
    assert radii[-1] > 50.0
    tail = radii[len(radii) // 2 :]
    assert all(b > a for a, b in zip(tail, tail[1:]))


def test_bounded_motion_below_threshold():
    rng = np.random.default_rng(3)
    st = cl.random_state(PARAMS, rng)
    assert cl.classical_hamiltonian(PARAMS, st) < continuum_threshold(PARAMS)
    rec = cl.integrate(PARAMS, st, 200.0, tolerance=1e-9)
    assert max(np.linalg.norm(s.q) for s in rec.samples) < 10.0


def test_orbit_closure_flat_period():
    flat = ModelParams(dim=3, lam=0.0)
    st = cl.PhaseState(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
    # integrate runs a short t_end on to 1.01 T for the closure
    res = cl.orbit_closure(flat, st, cl.integrate(flat, st, 1.0, tolerance=1e-12))
    assert res["conclusive"]
    assert res["period"] == pytest.approx(2.0 * math.pi, abs=1e-8)
    assert res["period_measured"] == pytest.approx(2.0 * math.pi, abs=1e-8)
    assert res["closure_distance"] < 1e-6


def test_orbit_closure_deformed_and_inconclusive():
    rng = np.random.default_rng(17)
    st = cl.random_state(PARAMS, rng)
    res = cl.orbit_closure(PARAMS, st, cl.integrate(PARAMS, st, 1.0, tolerance=1e-10))
    assert res["conclusive"]
    assert res["closure_distance"] < 1e-4
    # unbounded data: no recurrence expected
    far = cl.PhaseState(q=np.array([0.1, 0.0, 0.0]), p=np.array([8.0, 0.5, 0.0]))
    res2 = cl.orbit_closure(PARAMS, far, cl.integrate(PARAMS, far, 1.0, tolerance=1e-9))
    assert not res2["conclusive"]
    # a bounded orbit that does not close: read from the record of a state
    # with q shifted by 1e-3, it ends 1.9e-3 away, above the threshold
    # 1e-4 * |z0| = 1.8e-4
    a = cl.random_state(PARAMS, np.random.default_rng(0))
    b = cl.PhaseState(q=a.q + 1e-3, p=a.p)
    res3 = cl.orbit_closure(PARAMS, a, cl.integrate(PARAMS, b, 10.0))
    assert res3["conclusive"] is False
    assert 1.5e-3 < res3["closure_distance"] < 2.5e-3


def test_nonunit_omega_period_and_drift():
    # flat period 2*pi/omega, deformed conservation, omega = 2
    flat = ModelParams(dim=3, lam=0.0, omega=2.0)
    st = cl.PhaseState(q=np.array([0.5, 0.0, 0.2]), p=np.array([0.0, 0.8, 0.1]))
    res = cl.orbit_closure(flat, st, cl.integrate(flat, st, 1.0, tolerance=1e-12))
    assert res["period"] == pytest.approx(math.pi, abs=1e-8)
    assert res["period_measured"] == pytest.approx(math.pi, abs=1e-8)
    deformed = ModelParams(dim=3, lam=0.05, omega=2.0)
    rng = np.random.default_rng(1)
    st2 = cl.random_state(deformed, rng)
    rec = cl.integrate(deformed, st2, 100.0, tolerance=1e-10)
    assert rec.max_drift < 1e-7
    res2 = cl.orbit_closure(deformed, st2, rec)
    assert res2["conclusive"]


def test_poisson_brackets_vanish_with_h():
    rng = np.random.default_rng(23)
    st = cl.random_state(PARAMS, rng)
    for name in cl.invariant_names(3):
        if name == "H":
            continue
        assert cl.poisson_bracket_with_h(PARAMS, name, st) == 0.0


def test_involution_sets():
    rng = np.random.default_rng(29)
    st = cl.random_state(PARAMS, rng)
    sets = (
        ["H", "C^(2)", "C^(3)"],
        ["H", "C_(2)", "C^(3)"],  # C_(3) = C^(3)
        ["I_11", "I_22", "I_33"],
    )
    for names in sets:
        mat = cl.involution_matrix(PARAMS, names, st)
        assert np.max(np.abs(mat)) == 0.0


def test_independence_ranks():
    rng = np.random.default_rng(31)
    st3 = cl.random_state(PARAMS, rng)
    assert cl.independence_rank(PARAMS, st3) == 5
    involutive = ["H", "C_(2)", "C^(3)"]
    assert cl.independence_rank(PARAMS, st3, names=involutive) == 3
    p2 = ModelParams(dim=2, lam=0.02)
    st2 = cl.random_state(p2, rng)
    assert cl.independence_rank(p2, st2) == 3


def test_random_state_takes_its_dimension_from_the_parameters():
    # the same draws as before, now sized by params.dim; a dimension passed
    # where it used to go is refused, not taken for ``bounded``
    for dim in (2, 3, 5):
        params = ModelParams(dim=dim, lam=0.02)
        st = cl.random_state(params, np.random.default_rng(dim))
        rng = np.random.default_rng(dim)
        q, p = rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim)
        assert st.dim == dim and np.array_equal(st.q, q) and np.array_equal(st.p, p)
    with pytest.raises(TypeError):
        cl.random_state(PARAMS, np.random.default_rng(0), 5)


def test_each_gradient_row_is_computed_once_per_command(monkeypatch):
    # the brackets of a classical command and its independence rank share
    # the rows of one state; at N = 40 the 2N - 1 rows must each be computed
    # once.  Counting stubs stand in for the exact algebra: the row of the
    # name at position j of invariant_names is the unit vector e_j
    dim = 40
    order = {name: j for j, name in enumerate(cl.invariant_names(dim))}
    computed = []

    def gradients(ops, q, p, lam, omega):
        computed.extend(ops)
        return [[int(j == order[op]) for j in range(2 * len(q))] for op in ops]

    monkeypatch.setattr(cl, "schrodinger_family", lambda n: {name: name for name in order})
    monkeypatch.setattr(cl, "symbol_gradients", gradients)
    cl._point_rows.cache_clear()
    params = ModelParams(dim=dim, lam=0.02)
    state = cl.random_state(params, np.random.default_rng(4))
    try:
        names = cl.independence_names(dim)
        for name in names[1:]:
            cl.poisson_bracket_with_h(params, name, state)
        rank = cl.independence_rank(params, state)
    finally:
        cl._point_rows.cache_clear()
    assert rank == 2 * dim - 1
    assert sorted(computed) == sorted(names) and len(computed) == 2 * dim - 1


def test_radial_reduction_triple_equality():
    rng = np.random.default_rng(41)
    for dim in (2, 3, 4, 5):
        params, flat = ModelParams(dim=dim, lam=0.02), ModelParams(dim=dim, lam=0.0)
        for _ in range(5):
            st = cl.random_state(params, rng)
            assert cl.radial_reduction_check(params, st)
            # p^2 = p_r^2 + L^2/r^2 with p_r = q.p/|q|, and L^2 = C^(N)
            r = np.linalg.norm(st.q)
            p_r = (st.q @ st.p) / r
            lsq = sum((st.q[i] * st.p[j] - st.q[j] * st.p[i]) ** 2
                      for i in range(dim) for j in range(i + 1, dim))
            assert st.p @ st.p == pytest.approx(p_r**2 + lsq / r**2, rel=1e-12)
            assert cl.classical_invariants(params, st)[f"C^({dim})"] == pytest.approx(lsq, rel=1e-12)
        st = cl.random_state(flat, rng, bounded=False)
        assert cl.radial_reduction_check(flat, st)
        # radial state: vanishing angular momentum
        radial = cl.PhaseState(q=np.linspace(0.7, 0.1, dim), p=np.linspace(0.7, 0.1, dim))
        assert cl.radial_reduction_check(params, radial)
        with pytest.raises(ValueError):
            cl.radial_reduction_check(params, cl.PhaseState(q=np.zeros(dim), p=np.ones(dim)))


def _reference_gradient(fun, state, h=1e-6):
    """Central differences of fun(PhaseState) in z = (q, p), one coordinate at a time."""
    z = state.as_vector()
    out = np.empty(z.size)
    for k in range(z.size):
        step = h * max(1.0, abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += step
        zm[k] -= step
        out[k] = (fun(cl.PhaseState.from_vector(zp)) - fun(cl.PhaseState.from_vector(zm))) / (2 * step)
    return out


def _reference_bracket(params, f, g, state):
    n = state.dim
    gf = _reference_gradient(lambda s: cl.classical_invariants(params, s)[f], state)
    gg = _reference_gradient(lambda s: cl.classical_invariants(params, s)[g], state)
    return gf[:n] @ gg[n:] - gf[n:] @ gg[:n]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_integrate_drift_matches_per_sample_loop(dim):
    params = ModelParams(dim=dim, lam=0.03)
    st = cl.random_state(params, np.random.default_rng(100 + dim))
    rec = cl.integrate(params, st, 30.0, tolerance=1e-10)
    ref = cl.classical_invariants(params, st)
    worst = {name: 0.0 for name in ref}
    for sample in rec.samples:
        vals = cl.classical_invariants(params, sample)
        for name, v0 in ref.items():
            worst[name] = max(worst[name], abs(vals[name] - v0) / max(1.0, abs(v0)))
    assert rec.drift.keys() == worst.keys()
    assert f"C_({dim})" in rec.drift
    for name in worst:
        assert abs(rec.drift[name] - worst[name]) <= 1e-15, name
    # the array evaluator agrees with the dict view column by column
    qs = np.array([s.q for s in rec.samples]).T
    ps = np.array([s.p for s in rec.samples]).T
    table = cl.invariant_values(params, qs, ps)
    names = cl.invariant_names(dim)
    assert table.shape == (len(names), len(rec.samples))
    for col, sample in zip(table.T[::50], rec.samples[::50]):
        inv = cl.classical_invariants(params, sample)
        assert np.allclose(col, [inv[name] for name in names], rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_fd_brackets_and_rank_match_reference(dim):
    params = ModelParams(dim=dim, lam=0.02, omega=1.3)
    st = cl.random_state(params, np.random.default_rng(200 + dim))
    names = cl.invariant_names(dim) + [f"C_({dim})"]
    for name in names[1:]:
        expect = _reference_bracket(params, "H", name, st)
        assert abs(cl.poisson_bracket_with_h(params, name, st) - expect) < 1e-8, name
    family = cl.independence_names(dim)
    mat = cl.involution_matrix(params, family, st)
    for a, fa in enumerate(family):
        assert mat[a, a] == 0.0
        for b in range(a + 1, len(family)):
            expect = _reference_bracket(params, fa, family[b], st)
            assert abs(mat[a, b] - expect) < 1e-8, (fa, family[b])
            assert mat[b, a] == -mat[a, b]
    # the rank of the reference Jacobian, with the same singular-value rule
    for subset in (family, ["H", f"C^({dim})", "I_11", "I_22"], names):
        jac = np.array([
            _reference_gradient(lambda s, _n=name: cl.classical_invariants(params, s)[_n], st)
            for name in subset
        ])
        sv = np.linalg.svd(jac, compute_uv=False)
        assert cl.independence_rank(params, st, names=subset) == int(np.sum(sv > 1e-8 * sv[0]))
    assert cl.independence_rank(params, st) == 2 * dim - 1


def test_exact_certificate_mutation_controls():
    # the exact brackets and rank still see what is not an invariant or not
    # independent
    st = cl.random_state(PARAMS, np.random.default_rng(7))
    q = [Fraction(x) for x in st.q.tolist()]
    p = [Fraction(x) for x in st.p.tolist()]
    lam, omega = Fraction(PARAMS.lam), Fraction(PARAMS.omega)
    h = build_hamiltonian("schrodinger", 3)
    bad = corrupt_fradkin(build_fradkin("schrodinger", 3), "I11")[0][0]
    gh, gb = symbol_gradients([h, bad], q, p, lam, omega)
    bracket = sum(gh[i] * gb[3 + i] - gh[3 + i] * gb[i] for i in range(3))
    # the dropped -omega^2 q1^2 leaves {H, I_11 - omega^2 q1^2} = 2 omega^2 q1 p1 / D
    expect = 2 * omega**2 * q[0] * p[0] / (1 + lam * sum(x * x for x in q))
    assert expect != 0 and bracket == expect
    assert cl.involution_matrix(PARAMS, ["I_11", "I_12"], st)[0, 1] != 0.0
    assert cl.independence_rank(PARAMS, st, names=["H", "I_11", "I_22", "I_33"]) == 3
    assert cl.independence_rank(PARAMS, st, names=["H", "C_(2)", "C^(3)"]) == 3


def test_involution_matrix_accepts_c_lower_n():
    rng = np.random.default_rng(43)
    st = cl.random_state(PARAMS, rng)
    mat = cl.involution_matrix(PARAMS, ["H", "C_(2)", "C_(3)", "C^(3)"], st)
    assert mat.shape == (4, 4)
    assert np.max(np.abs(mat)) == 0.0
    inv = cl.classical_invariants(PARAMS, st)
    assert inv["C_(3)"] == inv["C^(3)"]


# (lambda, omega) pairs of the closed-form checks, deformed so that Omega != omega
DEFORMED = ((0.02, 1.0), (0.1, 1.3), (0.05, 2.0))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("lam, omega, hbar", [(0.02, 1.0, 1.0), (0.1, 1.3, 1.0), (0.05, 2.0, 0.7)])
def test_bohr_correspondence(dim, lam, omega, hbar):
    # dE_n/d nu = 2 pi hbar / T(E_n) with nu = n + N/2: the classical period
    # sets the spacing of the quantum levels; dE/d nu by a five-point stencil,
    # from n = 1 so that the stencil stays at n >= 0
    params = ModelParams(dim=dim, lam=lam, omega=omega, hbar=hbar)
    h = 1e-3
    for n in range(1, 9):
        e = [closed_form_energy(params, n + k * h) for k in (-2, -1, 1, 2)]
        slope = (e[0] - 8.0 * e[1] + 8.0 * e[2] - e[3]) / (12.0 * h)
        period = cl.closed_form_period(params, closed_form_energy(params, n))
        assert slope == pytest.approx(2.0 * math.pi * hbar / period, rel=1e-9)


def test_closed_form_period_limits():
    for omega in (1.0, 2.0, 0.7):
        flat = ModelParams(dim=3, lam=0.0, omega=omega)
        assert cl.closed_form_period(flat, 3.0) == pytest.approx(2.0 * math.pi / omega, rel=1e-15)
    # deformed: longer than the flat period, growing towards the threshold
    periods = [cl.closed_form_period(PARAMS, e) for e in (0.0, 5.0, 20.0, 24.9)]
    assert periods[0] == pytest.approx(2.0 * math.pi, rel=1e-15)
    # H = 20: Omega^2 = 1 - 2*0.02*20 = 0.2, omega^2 - lambda*H = 0.6
    assert periods[2] == pytest.approx(2.0 * math.pi * 0.6 / 0.2**1.5, rel=1e-14)
    assert all(b > a for a, b in zip(periods, periods[1:]))
    for energy in (continuum_threshold(PARAMS), 30.0):
        with pytest.raises(ValueError):
            cl.closed_form_period(PARAMS, energy)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_closed_form_period_matches_measured_return(dim):
    rng = np.random.default_rng(40 + dim)
    for lam, omega in DEFORMED:
        params = ModelParams(dim=dim, lam=lam, omega=omega)
        for _ in range(2):
            st = cl.random_state(params, rng)
            res = cl.orbit_closure(params, st, cl.integrate(params, st, 1.0, tolerance=1e-12))
            period = cl.closed_form_period(params, cl.classical_hamiltonian(params, st))
            assert res["period"] == period
            assert abs(res["period_measured"] - period) <= 1e-7 * period
            assert res["conclusive"] and res["closure_distance"] <= 1e-9


def test_orbit_closure_unbounded_skips_integration(monkeypatch):
    far = cl.PhaseState(q=np.array([0.1, 0.0, 0.0]), p=np.array([8.0, 0.5, 0.0]))
    spans = []

    def spy(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        return solve_ivp(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(cl, "solve_ivp", spy)
    # unbounded motion is integrated to t_end alone, without dense output
    rec = cl.integrate(PARAMS, far, 5.0, tolerance=1e-9)
    assert spans == [(0.0, 5.0)] and rec.dense is None
    res = cl.orbit_closure(PARAMS, far, rec)
    assert len(spans) == 1
    assert math.isnan(res["period"]) and math.isnan(res["period_measured"])
    assert res["closure_distance"] == math.inf and res["conclusive"] is False


def test_closure_reads_the_one_solve_past_a_short_t_end():
    rng = np.random.default_rng(17)
    st = cl.random_state(PARAMS, rng)
    period = cl.closed_form_period(PARAMS, cl.classical_hamiltonian(PARAMS, st))
    rec = cl.integrate(PARAMS, st, 1.0)
    # sampled on [0, t_end], solved on to 1.01 T for the closure
    assert rec.t[0] == 0.0 and rec.t[-1] == 1.0 and rec.y.shape == (6, 501)
    assert rec.dense.t_max == 1.01 * period
    res = cl.orbit_closure(PARAMS, st, rec)
    assert res["conclusive"] and res["closure_distance"] <= 1e-8
    assert abs(res["period_measured"] - period) <= 1e-9 * period
    # a record whose dense output does not reach 1.01 T is refused
    with pytest.raises(ValueError):
        cl.orbit_closure(PARAMS, st, dataclasses.replace(rec, dense=None))
    # as is one read from a later start, whose 1.01 T ends 5 later
    later = cl.PhaseState(q=st.q, p=st.p, t=5.0)
    with pytest.raises(ValueError):
        cl.orbit_closure(PARAMS, later, rec)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_closure_conclusive_over_the_command_grid(dim):
    # the states and defaults of `classical --dim N --seed s`, at the default
    # --t-end and at one shorter than a period
    params = ModelParams(dim=dim, lam=0.02)
    for seed in (0, 1, 3, 7, 42):
        st = cl.random_state(params, np.random.default_rng(seed))
        period = cl.closed_form_period(params, cl.classical_hamiltonian(params, st))
        for t_end in (100.0, 1.0):
            res = cl.orbit_closure(params, st, cl.integrate(params, st, t_end))
            assert res["conclusive"] is True, (seed, t_end)
            assert res["closure_distance"] <= 1e-8, (seed, t_end)
            assert abs(res["period_measured"] - period) <= 1e-9 * period, (seed, t_end)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_exact_state_matches_dop853(dim):
    rng = np.random.default_rng(60 + dim)
    for lam, omega in DEFORMED:
        params = ModelParams(dim=dim, lam=lam, omega=omega)
        st = cl.random_state(params, rng)
        rec = cl.integrate(params, st, 100.0, tolerance=1e-10)
        exact = cl.exact_state(params, st, rec.t)
        assert exact.shape == rec.y.shape
        err = float(np.max(np.linalg.norm(rec.y - exact, axis=0)))
        assert err <= 1e-7
        assert rec.global_error == err
        # a float time gives the PhaseState on the same trajectory
        last = cl.exact_state(params, st, float(rec.t[-1]))
        assert last.t == rec.t[-1]
        assert np.allclose(last.as_vector(), exact[:, -1], rtol=0.0, atol=1e-14)


def test_exact_state_time_origin_and_unbounded():
    rng = np.random.default_rng(8)
    st = cl.random_state(PARAMS, rng)
    shifted = cl.PhaseState(q=st.q, p=st.p, t=5.0)
    # the initial time is tau = 0; going back in time inverts t(tau) too
    assert np.array_equal(cl.exact_state(PARAMS, shifted, 5.0).as_vector(), st.as_vector())
    back = cl.exact_state(PARAMS, shifted, 5.0 - 3.0)
    fwd = cl.exact_state(PARAMS, back, 5.0)
    assert np.allclose(fwd.as_vector(), st.as_vector(), rtol=0.0, atol=1e-12)
    far = cl.PhaseState(q=np.array([0.1, 0.0, 0.0]), p=np.array([8.0, 0.5, 0.0]))
    with pytest.raises(ValueError):
        cl.exact_state(PARAMS, far, 1.0)
    assert math.isnan(cl.integrate(PARAMS, far, 5.0, tolerance=1e-9).global_error)


def test_trajectory_samples_and_csv_read_the_arrays():
    rng = np.random.default_rng(9)
    st = cl.random_state(PARAMS, rng)
    rec = cl.integrate(PARAMS, st, 10.0, n_samples=21)
    assert rec.t.shape == (21,) and rec.y.shape == (6, 21)
    samples = rec.samples
    assert [s.t for s in samples] == rec.t.tolist()
    assert all(np.array_equal(s.as_vector(), col) for s, col in zip(samples, rec.y.T))
    lines = rp.trajectory_csv(rec).splitlines()
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3"
    assert len(lines) == 22
    row = [samples[4].t, *samples[4].q.tolist(), *samples[4].p.tolist()]
    assert lines[5] == ",".join(repr(x) for x in row)
