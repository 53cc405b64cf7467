"""Cross-validation between the symbolic engine and the numeric modules.

The operator expressions built symbolically are applied to concrete functions
through numeric coefficient evaluation plus finite-difference derivatives and
compared against closed-form predictions computed by entirely different code
paths (model.py spectrum, spectra.py eigenfunctions, the radial operator
forms).  Agreement here ties the three layers together end to end.
"""

import numpy as np
import pytest

from darboux3.algebra import build_hamiltonian, conjugation_exponent, potential_u2, potential_v2
from darboux3.model import ModelParams, closed_form_energy
from darboux3 import spectra as sp


def fd_derivative(f, q, axes, h=1e-2):
    """Nested fourth-order central differences: d^len(axes) f / prod dq_axes."""
    if not axes:
        return f(q)
    ax, rest = axes[0], axes[1:]

    def shifted(step):
        qs = q.copy()
        qs[ax] += step
        return fd_derivative(f, qs, rest, h)

    return (-shifted(2 * h) + 8 * shifted(h) - 8 * shifted(-h) + shifted(-2 * h)) / (12 * h)


def apply_operator(expr, params, f, q):
    """Evaluate (expr f)(q) for a normal-ordered operator: each term is
    c(q) * (-i*hbar)^|alpha| * d^alpha f."""
    values = list(q) + [params.lam, params.omega, params.hbar]
    total = 0j
    for alpha, coeff in expr.terms.items():
        axes = []
        for i, k in enumerate(alpha):
            axes.extend([i] * k)
        deriv = fd_derivative(f, np.asarray(q, dtype=float), tuple(axes))
        total += coeff.eval(values) * (-1j * params.hbar) ** sum(alpha) * deriv
    return total


FLAVORS = ("schrodinger", "tlb", "tpdm")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_symbolic_hamiltonian_has_closed_form_eigenfunction(flavor):
    # H_flavor Psi_flavor = E_n Psi_flavor with everything off unity
    params = ModelParams(dim=3, lam=0.03, omega=1.2, hbar=0.9)
    ef = sp.CartesianEigenfunction(params, (1, 0, 2), flavor)
    e_n = closed_form_energy(params, ef.n)
    h_op = build_hamiltonian(flavor, 3)
    rng = np.random.default_rng(5)
    pts = sp.sample_points_avoiding_nodes(ef, rng, 12, box=1.5)

    def psi(q):
        return sp.eigenfunction_value(ef, q)

    for q in pts:
        lhs = apply_operator(h_op, params, psi, q)
        rhs = e_n * psi(q)
        scale = abs(rhs) + abs(e_n)
        assert abs(lhs - rhs) / scale < 1e-7
        assert abs(lhs.imag) / scale < 1e-7  # real operator on a real function


def _radial_operator_1d(flavor, params, l, g, r):
    """The flavor's radial operator applied to g(r) with 1d finite differences."""
    n, lam, om, hb = params.dim, params.lam, params.omega, params.hbar
    d = 1.0 + lam * r * r
    h = 2e-2
    g1 = (-g(r + 2 * h) + 8 * g(r + h) - 8 * g(r - h) + g(r - 2 * h)) / (12 * h)
    g2 = (-g(r + 2 * h) + 16 * g(r + h) - 30 * g(r) + 16 * g(r - h) - g(r - 2 * h)) / (
        12 * h * h
    )
    if flavor == "schrodinger":
        drift, extra = (n - 1) / r, 0.0
    elif flavor == "tlb":
        drift = (n - 1) / r + lam * (n - 2) * r / d
        extra = -hb * hb * lam * (n - 2) * (2 * n + 3 * lam * r * r * (n - 2)) / (8 * d**3)
    else:
        drift = (n - 1) / r - 2 * lam * r / d
        extra = hb * hb * lam * (n + lam * r * r * (n - 3)) / (2 * d**3)
    cent = l * (l + n - 2) / (r * r)
    kinetic = -hb * hb / (2 * d) * (g2 + drift * g1 - cent * g(r))
    return kinetic + (om * om * r * r / (2 * d) + extra) * g(r)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_nd_operator_reduces_to_radial_form(flavor):
    # applying the ND symbolic operator to a radial profile f(|q|) matches the
    # 1d radial operator at l = 0, for every flavor
    params = ModelParams(dim=3, lam=0.04, omega=1.1, hbar=0.8)
    h_op = build_hamiltonian(flavor, 3)

    def profile(r):
        return np.exp(-0.4 * r * r) * (1.0 + 0.3 * r * r)

    def f(q):
        return profile(np.linalg.norm(q))

    for q in ([0.5, 0.4, -0.3], [1.2, -0.1, 0.8], [-0.6, 0.9, 0.25]):
        q = np.asarray(q, dtype=float)
        r = float(np.linalg.norm(q))
        nd_val = apply_operator(h_op, params, f, q)
        radial_val = _radial_operator_1d(flavor, params, 0, profile, r)
        assert nd_val.real == pytest.approx(radial_val, rel=2e-6)
        assert abs(nd_val.imag) < 1e-8 * abs(radial_val)


def test_quantum_effective_potential_consistent_with_radial_operator():
    # the reduced 1d form -hbar^2/2 u'' + U_eff,l u reproduces the tlb radial
    # operator under the substitution u = r^((N-1)/2) D^((N-1)/4) Phi at Q(r)
    from darboux3.model import (
        flattening_coordinate,
        inverse_flattening,
        quantum_effective_potential,
    )

    params = ModelParams(dim=3, lam=0.02, omega=1.0, hbar=1.0)
    l = 1

    def phi(r):
        return np.exp(-0.45 * r * r) * r**l

    def u_of_q(q_coord):
        r = inverse_flattening(params, q_coord)
        d = 1.0 + params.lam * r * r
        return phi(r) * r ** ((params.dim - 1) / 2.0) * d ** ((params.dim - 1) / 4.0)

    h = 2e-2
    for r0 in (0.8, 1.7, 2.6):
        q0 = flattening_coordinate(params, r0)
        u2 = (
            -u_of_q(q0 + 2 * h) + 16 * u_of_q(q0 + h) - 30 * u_of_q(q0)
            + 16 * u_of_q(q0 - h) - u_of_q(q0 - 2 * h)
        ) / (12 * h * h)
        lhs = -0.5 * params.hbar**2 * u2 + quantum_effective_potential(params, l, r0) * u_of_q(q0)
        rhs_phi = _radial_operator_1d("tlb", params, l, phi, r0)
        d = 1.0 + params.lam * r0 * r0
        rhs = rhs_phi * r0 ** ((params.dim - 1) / 2.0) * d ** ((params.dim - 1) / 4.0)
        assert lhs == pytest.approx(rhs, rel=2e-6)


@pytest.mark.parametrize("nq", [2, 3, 4, 5, 6])
def test_radial_flavor_data_match_the_exact_engine(nq):
    # the flavor route's central term is the engine's U2 (tlb), V2 (tpdm) or
    # 0 (schrodinger) at q = (r, 0, ...), and its flux coefficient is
    # p = r^(N-1) D^(-2a) with the weight w = p D
    params = ModelParams(dim=nq, lam=0.03, omega=1.2, hbar=0.9)
    r = np.linspace(0.2, 3.0, 15)
    d = 1.0 + params.lam * r * r
    base = sp._sl_potential("schrodinger", r, params, 0)
    for flavor, central in (("schrodinger", None), ("tlb", potential_u2(nq)),
                            ("tpdm", potential_v2(nq))):
        got = sp._sl_potential(flavor, r, params, 0) - base
        if central is None:
            assert np.all(got == 0.0)
        else:
            assert set(central.terms) <= {(0,) * nq}
            want = [sum(c.eval((x,) + (0.0,) * (nq - 1) + (params.lam, params.omega, params.hbar))
                        for c in central.terms.values()) for x in r]
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0 if nq > 2 else 1e-300)
        p, w = sp._sl_weights(flavor, r, params)
        a = conjugation_exponent(flavor, nq)
        np.testing.assert_allclose(p * d ** float(2 * a) / r ** (nq - 1), 1.0, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(w, p * d)


def test_flavor_route_is_the_conjugate_for_every_n():
    # for symbolic N and a, D^a L0 D^(-a) is the flux form with p = r^(N-1)
    # D^(-2a), w = p D and the central term W_a of spectra._sl_potential
    # (L0 the schrodinger radial operator at l = 0)
    sym = pytest.importorskip("sympy")
    r, lam, hb, om, n, a = sym.symbols("r lambda hbar omega N a", positive=True)
    u = sym.Function("u")(r)
    d = 1 + lam * r**2

    def l0(f):
        return (-hb**2 / (2 * d) * (sym.diff(f, r, 2) + (n - 1) / r * sym.diff(f, r))
                + om**2 * r**2 / (2 * d) * f)

    p = r ** (n - 1) * d ** (-2 * a)
    w_a = hb**2 * a * lam * (n + lam * r**2 * (n - 2 * a - 2)) / d**3
    flux = -hb**2 / (2 * p * d) * sym.diff(p * sym.diff(u, r), r) + (om**2 * r**2 / (2 * d) + w_a) * u
    residual = sym.powsimp(sym.expand(d**a * l0(d ** (-a) * u) - flux), force=True)
    assert sym.cancel(residual) == 0
