"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] PASS/FAIL criterion k` line (visible with
pytest -s) and asserts the same condition, the extended N=4 symbolic sweep
included.
"""

import math
import time

import numpy as np
import pytest

from darboux3.algebra import (
    build_hamiltonian,
    similarity_checks,
    verify_theorem,
)
from darboux3.model import (
    ModelParams,
    classical_effective_minimum,
    closed_form_energy,
    continuum_threshold,
    quantum_effective_minimum,
    scalar_curvature,
)
from darboux3 import classical as cl
from darboux3 import spectra as sp


def _report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {verdict} criterion {criterion}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# -- 1. symbolic superintegrability -----------------------------------------


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("flavor", ("schrodinger", "tlb", "tpdm"))
def test_criterion_1_symbolic_superintegrability(dim, flavor):
    t0 = time.time()
    rep = verify_theorem(flavor, dim, parts=("i", "ii"))
    elapsed = time.time() - t0
    ok = rep.all_zero and elapsed < 300.0
    _report(
        1, ok,
        f"N={dim} {flavor}: {len(rep.checks)} commutators identically zero "
        f"in {elapsed:.1f}s (budget 300s)",
    )


@pytest.mark.parametrize("flavor", ("schrodinger", "tlb", "tpdm"))
def test_criterion_1_extended_n4(flavor):
    t0 = time.time()
    rep = verify_theorem(flavor, 4)
    elapsed = time.time() - t0
    ok = rep.all_zero and elapsed < 300.0
    _report(1, ok, f"extended N=4 {flavor}: all zero in {elapsed:.1f}s")


# -- 2. similarity identities -------------------------------------------------


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_criterion_2_similarity_identities(dim):
    checks = similarity_checks(dim)
    failures = [f"{c.lhs} != {c.rhs}" for c in checks if not c.commutator_zero]
    _report(
        2, not failures,
        f"N={dim}: conjugation + conformal + adjoint identities exact"
        + (f"; failed: {failures}" if failures else ""),
    )


# -- 3. figure-landmark regression ---------------------------------------------


def test_criterion_3_figure_landmarks():
    problems = []
    if round(scalar_curvature(ModelParams(dim=3, lam=0.1), 0.0), 2) != -1.2:
        problems.append("R(0)")
    for lam, plateau in ((0.02, 25.0), (0.04, 12.5), (0.06, 8.33), (0.1, 5.0)):
        if round(continuum_threshold(ModelParams(dim=3, lam=lam)), 2) != plateau:
            problems.append(f"U_inf({lam})")
    m = classical_effective_minimum(ModelParams(dim=3, lam=0.02), 100.0)
    if (round(m.r_min, 2), round(m.u_min, 2)) != (3.49, 8.2):
        problems.append("classical minimum deformed")
    m0 = classical_effective_minimum(ModelParams(dim=3, lam=0.0), 100.0)
    if (round(m0.r_min, 2), round(m0.u_min, 2)) != (3.16, 10.0):
        problems.append("classical minimum flat")
    qm = quantum_effective_minimum(ModelParams(dim=3, lam=0.02), 10)
    if (round(qm.r_min, 2), round(qm.u_min, 2)) != (3.59, 8.52):
        problems.append("quantum minimum deformed")
    qm0 = quantum_effective_minimum(ModelParams(dim=3, lam=0.0), 10)
    if (round(qm0.r_min, 2), round(qm0.u_min, 2)) != (3.24, 10.49):
        problems.append("quantum minimum flat")
    e0_expect = {0.0: 1.5, 0.01: 1.48, 0.02: 1.46, 0.04: 1.41}
    einf_expect = {0.0: math.inf, 0.01: 50.0, 0.02: 25.0, 0.04: 12.5}
    for lam in e0_expect:
        params = ModelParams(dim=3, lam=lam)
        if round(closed_form_energy(params, 0), 2) != e0_expect[lam]:
            problems.append(f"E0({lam})")
        einf = continuum_threshold(params)
        if einf != einf_expect[lam] and round(einf, 2) != einf_expect[lam]:
            problems.append(f"E_inf({lam})")
    _report(
        3, not problems,
        "all figure landmarks at two-decimal rounding"
        + (f"; failed: {problems}" if problems else ""),
    )


# -- 4. numeric spectrum vs closed form ----------------------------------------


def test_criterion_4_spectrum_matches_closed_form():
    t0 = time.time()
    worst_rel, worst_order = 0.0, math.inf
    for lam in (0.01, 0.02):
        params = ModelParams(dim=3, lam=lam)
        for l in (0, 1, 2):
            problem = sp.RadialProblem(params, l, grid=sp.default_grid(params, l, k=6))
            rep = sp.solve_bound_states(problem, k=6)
            worst_rel = max(worst_rel, rep.max_rel_residual)
            worst_order = min(worst_order, rep.observed_order)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-5 and worst_order >= 1.9 and elapsed < 120.0
    _report(
        4, ok,
        f"lowest 6 levels, N=3, lambda in (0.01, 0.02), l in (0,1,2): "
        f"max rel {worst_rel:.2e} <= 1e-5, order {worst_order:.2f} >= 1.9, {elapsed:.0f}s",
    )


# -- 5. isospectrality ----------------------------------------------------------


def test_criterion_5_isospectrality():
    worst = 0.0
    for lam in (0.01, 0.02):
        params = ModelParams(dim=3, lam=lam)
        for l in (0, 1, 2):
            out = sp.isospectrality_check(params, l, k=6)
            worst = max(worst, out["max_pairwise_rel"])
    # N=2: schrodinger and tlb operators identical before discretization
    identical = build_hamiltonian("schrodinger", 2) == build_hamiltonian("tlb", 2)
    ok = worst <= 1e-8 and identical
    _report(
        5, ok,
        f"pairwise flavor agreement {worst:.2e} <= 1e-8; "
        f"N=2 schrodinger/tlb operators identical: {identical}",
    )


# -- 6. eigenfunction residuals + degeneracy -----------------------------------


def _partitions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _partitions(total - head, parts - 1):
            yield (head, *rest)


def test_criterion_6_eigenfunction_residuals_and_census():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for dim in (2, 3):
        params = ModelParams(dim=dim, lam=0.02)
        for n in range(5):
            for partition in _partitions(n, dim):
                ef = sp.CartesianEigenfunction(params, partition, "tlb")
                pts = sp.sample_points_avoiding_nodes(ef, rng, 100)
                worst = max(worst, sp.residual_check(ef, pts))
                count += 1
    census_ok = all(
        sp.degeneracy_census(ModelParams(dim=dim, lam=0.02), n)["agree"]
        for dim in (2, 3)
        for n in range(11)
    )
    ok = worst < 1e-10 and census_ok
    _report(
        6, ok,
        f"{count} partitions (n <= 4, N in (2,3)) max residual {worst:.2e} < 1e-10; "
        f"degeneracy census n <= 10 agrees: {census_ok}",
    )


# -- 7. classical suite ----------------------------------------------------------


def test_criterion_7_classical_suite():
    t0 = time.time()
    params = ModelParams(dim=3, lam=0.02)
    rng = np.random.default_rng(7)
    worst_drift, worst_bracket, worst_closure = 0.0, 0.0, 0.0
    ranks = set()
    for _ in range(20):
        state = cl.random_state(params, rng)
        record = cl.integrate(params, state, 100.0, tolerance=1e-10)
        worst_drift = max(worst_drift, record.max_drift)
        for name in cl.invariant_names(3):
            if name != "H":
                worst_bracket = max(
                    worst_bracket, abs(cl.poisson_bracket_with_h(params, name, state))
                )
        ranks.add(cl.independence_rank(params, state))
        closure = cl.orbit_closure(params, state, record)
        worst_closure = max(worst_closure, closure["closure_distance"])
    elapsed = time.time() - t0
    ok = (
        worst_drift < 1e-7
        and worst_bracket == 0.0
        and ranks == {5}
        and worst_closure < 1e-4
        and elapsed < 180.0
    )
    _report(
        7, ok,
        f"20 bounded orbits: drift {worst_drift:.2e} < 1e-7, "
        f"brackets {worst_bracket:.2e} == 0, ranks {sorted(ranks)} == [5], "
        f"closure {worst_closure:.2e} < 1e-4, {elapsed:.0f}s (budget 180s)",
    )


# -- 8. flat-limit oracle ----------------------------------------------------------


def test_criterion_8_flat_limit():
    problems = []
    flat = ModelParams(dim=3, lam=0.0)
    # closed form collapses to the ladder exactly
    for n in range(12):
        if abs(closed_form_energy(flat, n) - (n + 1.5)) > 1e-12:
            problems.append(f"closed form n={n}")
    # numeric radial pipeline: grid-converged levels against the ladder
    for l in (0, 1):
        out = sp.isospectrality_check(flat, l, k=6)
        ladder = np.array([2 * n_r + l + 1.5 for n_r in range(6)])
        for flavor, vals in out["levels"].items():
            rel = float(np.max(np.abs(vals - ladder) / ladder))
            if rel > 1e-8:
                problems.append(f"spectrum l={l} {flavor} rel={rel:.2e}")
    # classical pipeline: period 2*pi/omega
    state = cl.PhaseState(q=np.array([1.0, 0.2, 0.0]), p=np.array([0.0, 1.0, 0.3]))
    # integrate runs a short t_end on to 1.01 T for the closure
    closure = cl.orbit_closure(flat, state, cl.integrate(flat, state, 1.0, tolerance=1e-12))
    for key in ("period", "period_measured"):
        if abs(closure[key] - 2.0 * math.pi) > 1e-8:
            problems.append(f"{key} {closure[key]!r}")
    _report(
        8, not problems,
        "flat-limit energies and period reproduce textbook values to 1e-8"
        + (f"; failed: {problems}" if problems else ""),
    )
