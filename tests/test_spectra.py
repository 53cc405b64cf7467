"""Radial solvers, eigenfunctions, degeneracy bookkeeping, threshold behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest

from darboux3.algebra import build_hamiltonian
from darboux3.model import ModelParams, closed_form_energy, continuum_threshold
from darboux3 import spectra as sp


P001 = ModelParams(dim=3, lam=0.01)
P002 = ModelParams(dim=3, lam=0.02)
FLAT = ModelParams(dim=3, lam=0.0)


def test_radial_problem_validation():
    with pytest.raises(ValueError):
        sp.RadialProblem(P001, l=-1)
    with pytest.raises(ValueError):
        sp.RadialProblem(P001, l=0, flavor="lb")
    with pytest.raises(ValueError):
        sp.GridSpec(q_max=-1.0)
    with pytest.raises(ValueError):
        sp.GridSpec(q_max=10.0, m=10)


def test_effective_problem_is_symmetric_and_located():
    from darboux3.model import quantum_effective_minimum, quantum_effective_potential

    l, m = 10, 800
    prob = sp.RadialProblem(P002, l=l, grid=sp.GridSpec(q_max=12.0, m=m))
    diag, off, q, r = sp.effective_1d_problem(prob)
    assert diag.shape == (m,) and off.shape == (m - 1,) and q.shape == r.shape == (m,)
    assert np.all(np.isfinite(diag)) and np.all(np.isfinite(off)) and np.all(off < 0)
    h = 12.0 / m
    assert np.allclose(q, h * (np.arange(1, m + 1) - 0.5), rtol=1e-14, atol=0)
    # u = Q^s w: a constant w carries no flux through any face but the outer
    # wall, so W^(1/2) (W the cell mean of Q^(2s)) is a null vector of the
    # matrix minus the bracket V = U_eff - hbar^2 s(s-1)/(2Q^2) on every row
    # but the last; in the first row only the upward flux enters (p(0) = 0)
    s = l + (P002.dim - 1) / 2.0
    faces = h * np.arange(0, m + 1)
    y = np.sqrt(np.diff(faces ** (2 * s + 1)) / ((2 * s + 1) * h))
    bracket = np.empty(m - 1)
    bracket[0] = diag[0] + off[0] * y[1] / y[0]
    bracket[1:] = diag[1:-1] + (off[:-1] * y[:-2] + off[1:] * y[2:]) / y[1:-1]
    expected = quantum_effective_potential(P002, l, r) - s * (s - 1) / (2.0 * q * q)
    assert np.allclose(bracket, expected[:-1], rtol=1e-9, atol=1e-9)
    # the potential recovered from the matrix has its minimum at the
    # quantum-effective minimum
    u_eff = bracket + s * (s - 1) / (2.0 * q[:-1] ** 2)
    assert r[np.argmin(u_eff)] == pytest.approx(quantum_effective_minimum(P002, l).r_min, abs=0.05)


def test_ground_state_figure5_value():
    rep = sp.solve_bound_states(sp.RadialProblem(P001, l=0), k=1)
    assert rep.levels[0].e_numeric == pytest.approx(1.4777, abs=5e-4)
    assert round(rep.levels[0].e_numeric, 2) == 1.48


def test_flat_ladder():
    rep = sp.solve_bound_states(sp.RadialProblem(FLAT, l=0), k=6)
    for lv in rep.levels:
        assert lv.e_closed == pytest.approx(2 * lv.n_r + 1.5, rel=1e-14)
        assert lv.e_numeric == pytest.approx(lv.e_closed, rel=2e-5)
    assert math.isinf(rep.threshold)


def test_levels_match_closed_form_with_extrapolation_oracle():
    # N=3, l=1, lambda=0.02: the single-grid levels on (4000, 8000),
    # extrapolated once here, vs closed form to 1e-6; the default solve
    # (its own ladder over (M//4, M//2, M)) agrees with this oracle to 1e-5
    prob = sp.RadialProblem(P002, 1, grid=sp.default_grid(P002, 1, k=6))
    coarse, fine = (
        sp.eigh_tridiagonal(*sp.effective_1d_problem(prob, m=m)[:2], select="i",
                            select_range=(0, 5), eigvals_only=True)
        for m in (4000, 8000)
    )
    oracle = (4.0 * fine - coarse) / 3.0
    for n_r, val in enumerate(oracle):
        closed = closed_form_energy(P002, 2 * n_r + 1)
        assert val == pytest.approx(closed, rel=1e-6)
    rep = sp.solve_bound_states(prob, k=6)
    assert len(rep.levels) == 6
    for lv, val in zip(rep.levels, oracle):
        assert lv.e_numeric == pytest.approx(val, rel=1e-5)


def test_direct_solve_tolerance_and_order():
    rep = sp.solve_bound_states(sp.RadialProblem(P002, l=2), k=6)
    assert rep.max_rel_residual <= 1e-5
    # the single-grid order, read from the ladder's own differences
    assert 1.9 <= rep.observed_order <= 2.1
    assert "observed_order" not in rep.to_json()


def test_spectrum_report_structure():
    rep = sp.solve_bound_states(sp.RadialProblem(P002, l=0), k=6)
    es = [lv.e_numeric for lv in rep.levels]
    assert all(b > a for a, b in zip(es, es[1:]))
    assert all(e < rep.threshold for e in es)
    body = rep.to_json()
    assert body["levels"][0]["n"] == 0
    assert body["threshold"] == 25.0
    # n = 2 n_r + l bookkeeping
    rep1 = sp.solve_bound_states(sp.RadialProblem(P002, l=3), k=3)
    assert [lv.n for lv in rep1.levels] == [3, 5, 7]


@pytest.mark.parametrize("eigenvectors", (False, True))
def test_each_grid_is_solved_for_exactly_k_levels(monkeypatch, eigenvectors):
    from scipy.linalg import eigh_tridiagonal

    calls = []

    def recording(*args, **kwargs):
        calls.append((len(args[0]), kwargs["select_range"], kwargs["eigvals_only"]))
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(sp, "eigh_tridiagonal", recording)
    problem = sp.RadialProblem(P002, l=1, grid=sp.default_grid(P002, 1, k=4))
    rep = sp.solve_bound_states(problem, k=4, eigenvectors=eigenvectors)
    assert len(rep.levels) == 4
    # the ladder (M//4, M//2, M) at M = DEFAULT_GRID; vectors on M alone
    assert sorted(calls) == [(200, (0, 3), True), (400, (0, 3), True),
                             (800, (0, 3), not eigenvectors)]
    assert (rep.eigenvectors is None) is not eigenvectors


@pytest.mark.parametrize("lam,m", ((0.02, 800), (0.04, 401)))
def test_ladder_inverts_the_flattening_once(monkeypatch, lam, m):
    # the ladder inverts the centres of its three grids in one call, and
    # every grid's matrix is bit-identical to its own assembly
    from darboux3.model import inverse_flattening

    params = ModelParams(dim=3, lam=lam)
    problem = sp.RadialProblem(params, l=2, grid=sp.default_grid(params, 2, k=6, m=m))
    separate = {c: sp.effective_1d_problem(problem, m=c) for c in sp.ladder_cells(m)}
    assemble = sp.effective_1d_problem
    inverted, assembled = [], {}

    def counting(params, q):
        inverted.append(len(q))
        return inverse_flattening(params, q)

    def recording(problem, m=None, r=None):
        assembled[m] = assemble(problem, m=m, r=r)
        return assembled[m]

    monkeypatch.setattr(sp, "inverse_flattening", counting)
    monkeypatch.setattr(sp, "effective_1d_problem", recording)
    sp.solve_bound_states(problem, k=6)
    assert inverted == [sum(sp.ladder_cells(m))]
    assert sorted(assembled) == sorted(separate)
    for c, arrays in separate.items():
        assert all(np.array_equal(a, b) for a, b in zip(arrays, assembled[c])), c


@pytest.mark.parametrize("m", (800, 401))
def test_richardson_ladder_cancels_h2_and_h4(m):
    # E(c) = E0 + a/c^2 + b/c^4 over the ladder's grids: the quadratic in h^2
    # through them is exact, so the extrapolation returns E0 to rounding
    e0, a, b = np.array([1.5, 3.5, 5.5, 7.5]), np.array([2.0, -7.0, 30.0, 90.0]), 5e3
    runs = [e0 + a / c**2 + b / c**4 for c in sp.ladder_cells(m)]
    levels, orders = sp._richardson_ladder(runs, m)
    np.testing.assert_allclose(levels, e0, rtol=1e-13)
    # without the h^4 term each single grid is exactly second order; the
    # differences are 1e-5 of the levels, so they keep about 11 digits
    if m == 800:
        _, orders = sp._richardson_ladder([e0 + a / c**2 for c in sp.ladder_cells(m)], m)
        np.testing.assert_allclose(orders, 2.0, rtol=1e-10)
    # runs of unequal length are cut to the shortest
    levels, orders = sp._richardson_ladder([runs[0][:2], runs[1], runs[2][:3]], m)
    assert levels.shape == orders.shape == (2,)
    np.testing.assert_allclose(levels, e0[:2], rtol=1e-13)


def test_ladder_weights_are_computed_once_per_grid():
    # three flavors per isospectrality check, two checks: one computation
    sp._ladder_weights.cache_clear()
    for _ in range(2):
        sp.isospectrality_check(P002, 0, k=3, m=400)
    info = sp._ladder_weights.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    # M divisible by 4: (E_(M/4) - 20 E_(M/2) + 64 E_M) / 45
    assert sp._ladder_weights(400) == tuple(float(Fraction(n, 45)) for n in (1, -20, 64))


def test_grid_warning_heuristic():
    coarse = sp.RadialProblem(P002, l=0, grid=sp.GridSpec(q_max=40.0, m=150))
    rep = sp.solve_bound_states(coarse, k=2)
    assert any("grid too coarse" in w for w in rep.warnings)
    n2_l0 = sp.RadialProblem(
        ModelParams(dim=2, lam=0.02), l=0, grid=sp.GridSpec(q_max=12.0, m=2000)
    )
    rep2 = sp.solve_bound_states(n2_l0, k=2)
    assert not any("N=2, l=0" in w for w in rep2.warnings)


@pytest.mark.parametrize("dim", (2, 3, 4, 5))
def test_default_spectrum_sweep(dim):
    # default grid, the ladder (200, 400, 800): every level within 5e-7 of
    # the closed form (8.2e-8 at worst here), N = 2, l = 0 (s = 1/2) included
    for l in (0, 1, 3):
        for lam, omega in ((0.02, 1.0), (0.04, 0.8), (0.005, 1.2), (0.0, 1.0)):
            params = ModelParams(dim=dim, lam=lam, omega=omega)
            rep = sp.solve_bound_states(sp.RadialProblem(params, l), k=6)
            assert len(rep.levels) == 6
            assert rep.max_rel_residual <= 5e-7, (l, lam, omega, rep.max_rel_residual)


@pytest.mark.parametrize("dim", (3, 2))
def test_richardson_ladder_is_sixth_order(dim):
    params = ModelParams(dim=dim, lam=0.02)
    q_max = sp.default_grid(params, 0, k=6).q_max
    closed = np.array([closed_form_energy(params, 2 * n_r) for n_r in range(6)])
    errors = []
    for m in (500, 1000):  # the ladders (125, 250, 500) and (250, 500, 1000)
        rep = sp.solve_bound_states(sp.RadialProblem(params, 0, grid=sp.GridSpec(q_max, m)), k=6)
        levels = np.array([lv.e_numeric for lv in rep.levels])
        errors.append(np.max(np.abs(levels - closed) / closed))
    # halving h divides a sixth-order error by 64 (fourth order: 16)
    assert errors[0] / errors[1] >= 40.0, errors


def test_ladder_sweep_against_closed_form():
    # both routes at their default grids over N in {2, 3, 4, 6}, l in
    # {0, 1, 3, 10} and (lambda, omega) in {(0, 1), (0.02, 1), (0.04, 0.8)}:
    # worst here 1.2e-6 (Q-form), 7.7e-10 (flavor route) and 2.4e-11
    # (pairwise); the two-grid pair gave 5.6e-6, 1.1e-9 and 1.3e-10
    for dim in (2, 3, 4, 6):
        for l in (0, 1, 3, 10):
            for lam, omega in ((0.0, 1.0), (0.02, 1.0), (0.04, 0.8)):
                params = ModelParams(dim=dim, lam=lam, omega=omega)
                case = (dim, l, lam, omega)
                rep = sp.solve_bound_states(sp.RadialProblem(params, l), k=6)
                assert len(rep.levels) == 6, case
                iso = sp.isospectrality_check(params, l, k=6)
                closed = np.array([closed_form_energy(params, 2 * n_r + l) for n_r in range(6)])
                flavor = max(float(np.max(np.abs(v - closed) / closed)) for v in iso["levels"].values())
                assert rep.max_rel_residual <= 2e-6, (case, rep.max_rel_residual)
                assert flavor <= 1e-8, (case, flavor)
                assert iso["max_pairwise_rel"] <= 1e-9, (case, iso["max_pairwise_rel"])


def test_isospectrality_three_flavors():
    out = sp.isospectrality_check(P002, l=0, k=6)
    assert out["agree"]
    assert out["max_pairwise_rel"] <= 1e-8
    # all flavors also agree with the closed form after extrapolation
    for fl, vals in out["levels"].items():
        for n_r, e in enumerate(vals):
            assert e == pytest.approx(closed_form_energy(P002, 2 * n_r), rel=1e-7), fl


def test_isospectrality_flat_reduces_to_ladder():
    out = sp.isospectrality_check(FLAT, l=1, k=5)
    assert out["agree"]
    ladder = np.array([2 * n_r + 1 + 1.5 for n_r in range(5)])
    for vals in out["levels"].values():
        assert np.allclose(vals, ladder, rtol=1e-8)


def test_flavor_route_asks_each_grid_for_min_k_cells(monkeypatch):
    # the rule of solve_bound_states: k = 30 on the ladder (25, 50, 100) used
    # to ask the 25-cell grid for 30 levels, which SciPy refuses
    from scipy.linalg import eigh_tridiagonal

    calls = []

    def recording(*args, **kwargs):
        calls.append((len(args[0]), kwargs["select_range"]))
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(sp, "eigh_tridiagonal", recording)
    out = sp.isospectrality_check(ModelParams(dim=3), 0, k=30, m=100)
    assert {fl: vals.size for fl, vals in out["levels"].items()} == dict.fromkeys(sp.FLAVORS, 25)
    assert sorted(set(calls)) == [(25, (0, 24)), (50, (0, 29)), (100, (0, 29))]
    calls.clear()
    sp.isospectrality_check(ModelParams(dim=3), 0, k=25, m=100)  # k <= m//4: k levels each
    assert sorted(set(calls)) == [(25, (0, 24)), (50, (0, 24)), (100, (0, 24))]


@pytest.mark.parametrize(
    "dim,l,lam,omega,hbar,k",
    [
        (6, 0, 0.054034, 1.277319, 2.0, 6),  # pairwise 1.2e-8 at M = 1000
        (3, 9, 0.002105, 0.526841, 0.5, 8),  # closed form 2.3e-7 at M = 1000
        (2, 0, 0.06, 0.5, 2.0, 8),  # pairwise 4.7e-8 at M = 1000
    ],
)
def test_isospectral_default_grid_margin(dim, l, lam, omega, hbar, k):
    # the worst cases of a sweep over N = 2..6, l <= 10, lambda <= 0.06,
    # omega in [0.5, 2], hbar in {0.5, 1, 2}, k in {6, 8}: the default grid
    # keeps the pairwise and closed-form bounds of spectrum --flavor all
    from darboux3.cli import SPECTRUM_TOLERANCE

    params = ModelParams(dim=dim, lam=lam, omega=omega, hbar=hbar)
    out = sp.isospectrality_check(params, l, k=k)
    assert out["agree"] and out["max_pairwise_rel"] <= 1e-8
    closed = np.array([closed_form_energy(params, 2 * n_r + l) for n_r in range(k)])
    for vals in out["levels"].values():
        assert np.max(np.abs(vals - closed) / closed) <= SPECTRUM_TOLERANCE


def test_n2_schrodinger_tlb_identical_operators():
    assert build_hamiltonian("tlb", 2) == build_hamiltonian("schrodinger", 2)
    assert build_hamiltonian("tlb", 3) != build_hamiltonian("schrodinger", 3)


def test_flavor_wavefunction_relations():
    prob = sp.RadialProblem(P002, l=0, grid=sp.default_grid(P002, 0, k=4, m=1200))
    r, phis, rep = sp.radial_wavefunctions(prob, k=3)
    d = 1.0 + P002.lam * r * r
    n = P002.dim
    assert np.allclose(phis["tpdm"], phis["tlb"] * d ** (n / 4.0), rtol=0, atol=1e-12)
    assert np.allclose(phis["tlb"], phis["schrodinger"] * d ** ((2 - n) / 4.0), rtol=0, atol=1e-12)


def test_report_without_eigenvectors_has_none():
    rep = sp.solve_bound_states(sp.RadialProblem(P002, l=1), k=3)
    assert rep.eigenvectors is None and rep.r_nodes is None
    assert len(rep.levels) == 3


def test_eigenvector_orthogonality_and_node_count():
    rep = sp.solve_bound_states(sp.RadialProblem(P002, l=1), k=5, eigenvectors=True)
    vecs = rep.eigenvectors
    gram = vecs.T @ vecs
    assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)
    for n_r in range(vecs.shape[1]):
        v = vecs[:, n_r]
        big = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
        sign_changes = int(np.sum(np.diff(np.sign(big)) != 0))
        assert sign_changes == n_r


def test_eigenfunction_closed_forms():
    ef = sp.CartesianEigenfunction(P002, (0, 0, 0), "tlb")
    beta = ef.beta
    # ground state: (1+lambda q^2)^(-1/4) * exp(-beta^2 q^2 / 2) for N=3
    pt = np.array([0.3, -0.2, 0.5])
    qsq = pt @ pt
    expected = (1 + P002.lam * qsq) ** (-0.25) * math.exp(-0.5 * beta**2 * qsq)
    assert sp.eigenfunction_value(ef, pt) == pytest.approx(expected, rel=1e-12)
    # flat case: pure Hermite-Gaussian product
    ef_flat = sp.CartesianEigenfunction(FLAT, (2, 1, 0), "tlb")
    x = np.array([0.7, -0.4, 0.2])
    h2 = 4 * x[0] ** 2 - 2
    h1 = 2 * x[1]
    expected_flat = math.exp(-0.5 * (x @ x)) * h2 * h1
    assert sp.eigenfunction_value(ef_flat, x) == pytest.approx(expected_flat, rel=1e-12)
    # parity
    ef2 = sp.CartesianEigenfunction(P002, (1, 0, 2), "schrodinger")
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, size=(50, 3))
    assert np.allclose(
        sp.eigenfunction_value(ef2, -pts),
        (-1) ** ef2.n * sp.eigenfunction_value(ef2, pts),
        rtol=1e-12,
    )


def test_eigenfunction_validation():
    with pytest.raises(ValueError):
        sp.CartesianEigenfunction(P002, (1, 0), "tlb")  # wrong length
    with pytest.raises(ValueError):
        sp.CartesianEigenfunction(P002, (1, 0, -1), "tlb")
    with pytest.raises(ValueError):
        sp.CartesianEigenfunction(P002, (1, 0, 0), "lb")
    ef = sp.CartesianEigenfunction(P002, (1, 2, 0), "tpdm")
    assert ef.n == 3
    assert ef.beta**2 * P002.hbar == pytest.approx(
        math.sqrt(P002.omega**2 - 2 * P002.lam * ef.energy), rel=1e-12
    )


def test_residual_flat_and_deformed():
    rng = np.random.default_rng(8)
    flat2 = ModelParams(dim=2, lam=0.0)
    ef = sp.CartesianEigenfunction(flat2, (3, 0), "tlb")
    pts = sp.sample_points_avoiding_nodes(ef, rng, 100)
    assert sp.residual_check(ef, pts) < 1e-12
    ef2 = sp.CartesianEigenfunction(P002, (1, 0, 1), "tlb")
    pts2 = sp.sample_points_avoiding_nodes(ef2, rng, 100)
    assert sp.residual_check(ef2, pts2) < 1e-10


def test_residual_holds_through_n6():
    # module invariant: residual < 1e-10 for partitions up to n = 6
    rng = np.random.default_rng(10)
    for dim, partition in ((2, (3, 3)), (2, (6, 0)), (3, (2, 2, 2)), (3, (5, 0, 1))):
        params = ModelParams(dim=dim, lam=0.02)
        ef = sp.CartesianEigenfunction(params, partition, "tlb")
        pts = sp.sample_points_avoiding_nodes(ef, rng, 100)
        assert sp.residual_check(ef, pts) < 1e-10


def test_residual_detects_corrupted_energy():
    rng = np.random.default_rng(9)
    ef = sp.CartesianEigenfunction(P002, (1, 1, 0), "tlb")
    pts = sp.sample_points_avoiding_nodes(ef, rng, 100)
    assert sp.residual_check(ef, pts, energy_override=ef.energy * 1.01) > 1e-3


def test_degeneracy_census():
    assert sp.degeneracy_census(P002, 2)["cartesian"] == 6
    assert sp.degeneracy_census(ModelParams(dim=2, lam=0.01), 3)["cartesian"] == 4
    for n in range(11):
        res = sp.degeneracy_census(P002, n)
        assert res["agree"], res
        res2 = sp.degeneracy_census(ModelParams(dim=2, lam=0.01), n)
        assert res2["agree"], res2
        res4 = sp.degeneracy_census(ModelParams(dim=4, lam=0.01), n)
        assert res4["agree"], res4


def test_spherical_harmonic_dimensions():
    assert sp.spherical_harmonic_dimension(3, 0) == 1
    assert sp.spherical_harmonic_dimension(3, 2) == 5
    assert sp.spherical_harmonic_dimension(2, 5) == 2
    assert sp.spherical_harmonic_dimension(4, 1) == 4


def test_threshold_accumulation():
    stages = sp.threshold_accumulation(P002, l=0, doublings=3)
    counts = [s["count_below_threshold"] for s in stages]
    tops = [s["top_resolved"] for s in stages]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert all(b > a for a, b in zip(tops, tops[1:]))
    assert all(t < 25.0 for t in tops)
    assert tops[-1] > 0.99 * 25.0
    assert all(s["gaps_decreasing"] for s in stages)
    with pytest.raises(ValueError):
        sp.threshold_accumulation(FLAT, l=0)


def _threshold_by_index(params, l, doublings, k_cap):
    """Threshold stages with the lowest min(k_cap, m - 1) levels selected by
    index, on the threshold's own base grid."""
    from scipy.linalg import eigh_tridiagonal

    base = sp.default_grid(params, l, k=6, m=sp.THRESHOLD_GRID)
    threshold = continuum_threshold(params)
    out = []
    for stage in range(doublings):
        grid = sp.GridSpec(q_max=base.q_max * 2**stage, m=base.m * 2**stage)
        diag, off, _q, _r = sp.effective_1d_problem(sp.RadialProblem(params, l, "tlb", grid))
        k = min(k_cap, grid.m - 1)
        vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1), eigvals_only=True)
        out.append(vals[vals < threshold])
    return out


@pytest.mark.parametrize("k_cap", (400, 5))
def test_threshold_value_selection_matches_index_selection(k_cap):
    stages = sp.threshold_accumulation(P002, l=0, doublings=2, k_cap=k_cap)
    reference = _threshold_by_index(P002, 0, 2, k_cap)
    for stage, below in zip(stages, reference):
        assert stage["count_below_threshold"] == below.size
        assert stage["top_resolved"] == pytest.approx(below[-1], rel=1e-10)
    if k_cap == 5:
        assert [s["count_below_threshold"] for s in stages] == [5, 5]


def test_flat_gaps_constant():
    rep = sp.solve_bound_states(sp.RadialProblem(FLAT, l=2), k=6)
    es = np.array([lv.e_numeric for lv in rep.levels])
    gaps = np.diff(es)
    assert np.allclose(gaps, 2.0, atol=1e-4)


def test_gaussian_tail_radius_monotonic():
    r0 = sp.gaussian_tail_radius(P002, 0)
    r10 = sp.gaussian_tail_radius(P002, 10)
    assert r10 > r0 > 0


@pytest.mark.parametrize(
    "dim,lam,omega,hbar,l",
    [(2, 0.03, 2.0, 0.5, 1), (4, 0.015, 0.7, 1.3, 0), (3, 0.05, 1.7, 0.8, 2)],
)
def test_solver_across_dimensions_and_units(dim, lam, omega, hbar, l):
    # nothing in the pipeline may assume omega = hbar = 1 or N = 3
    params = ModelParams(dim=dim, lam=lam, omega=omega, hbar=hbar)
    rep = sp.solve_bound_states(sp.RadialProblem(params, l), k=5)
    assert rep.max_rel_residual <= 1e-5
    iso = sp.isospectrality_check(params, l, k=5)
    assert iso["max_pairwise_rel"] <= 1e-8
