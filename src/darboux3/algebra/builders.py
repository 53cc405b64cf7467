"""Constructors for the curved-oscillator operators, exact in lambda, omega, hbar.

Dimension N is a concrete small integer; lambda, omega and hbar stay symbolic
indeterminates so every verification is parameter-independent.  Each flavor
enters only through its conjugation exponent a: its Hamiltonian and Fradkin
tensor are the D^a conjugates of the direct quantization's, written out in
closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from .ring import Coefficient, Poly, q_squared
from .operators import OperatorExpr

# the three quantizations related by similarity; conjugation_exponent maps
# each to its exponent, and every per-flavor factor derives from that
FLAVORS = ("schrodinger", "tlb", "tpdm")


def _omega_sq(nq):
    return Poly.variable(nq, Poly.idx_omega(nq), 2)


def _hbar(nq, power=1):
    return Poly.variable(nq, Poly.idx_hbar(nq), power)


def _lam(nq, power=1):
    return Poly.variable(nq, Poly.idx_lambda(nq), power)


def _alpha(nq, *axes):
    """Momentum exponents with one power of p_i per listed axis i."""
    return tuple(axes.count(i) for i in range(nq))


def _q_dot_p(nq, a):
    """First-order part of D^a H D^(-a) - H: 2a*i*hbar*lambda/D^2 * (q.p)."""
    out = OperatorExpr.zero(nq)
    for i in range(nq):
        num = Poly.variable(nq, i) * _hbar(nq) * _lam(nq) * Poly.constant(nq, 0, 2 * a)
        out._put(_alpha(nq, i), Coefficient(num, 2))
    return out


def _central(nq, a):
    """Central part of D^a H D^(-a) - H:
    hbar^2*a*lambda*(N + lambda*q^2*(N - 2a - 2)) / D^3."""
    inner = Poly.constant(nq, nq) + _lam(nq) * q_squared(nq) * (nq - 2 * a - 2)
    num = _hbar(nq, 2) * _lam(nq) * inner * a
    return OperatorExpr.from_coefficient(nq, Coefficient(num, 3))


def potential_u2(nq):
    """The tlb central part, the quantum potential that the conformal identity
    ties to the scalar curvature:
    -hbar^2*lambda*(N-2)*(2N + 3*lambda*q^2*(N-2)) / (8 D^3)."""
    return _central(nq, conjugation_exponent("tlb", nq))


def build_hamiltonian(flavor, nq):
    """Quantum Hamiltonian H_flavor = D^a H D^(-a), a = conjugation_exponent.

    H = (p^2 + omega^2 q^2) / (2 D) is the direct quantization (schrodinger,
    a = 0); the conjugate adds the first-order part _q_dot_p and the central
    part _central, both zero at a = 0.  tlb (a = (2-N)/4) is the
    Laplace-Beltrami kinetic operator plus the conformal potential U2, tpdm
    (a = 1/2) the symmetric position-dependent-mass ordering plus its central
    potential.  ValueError outside FLAVORS.
    """
    if nq < 2:
        raise ValueError("dimension must be at least 2")
    a = conjugation_exponent(flavor, nq)
    half = Coefficient(Poly.constant(nq, Fraction(1, 2)), 1)
    terms = {_alpha(nq, i, i): half for i in range(nq)}
    terms[(0,) * nq] = Coefficient(_omega_sq(nq) * q_squared(nq) * Fraction(1, 2), 1)
    return OperatorExpr(nq, terms) + _q_dot_p(nq, a) + _central(nq, a)


def conjugation_exponent(flavor, nq):
    """Exponent a with H_flavor = D^a H D^(-a): 0, (2-N)/4 and 1/2 for
    schrodinger, tlb and tpdm; ValueError outside FLAVORS."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return (Fraction(0), Fraction(2 - nq, 4), Fraction(1, 2))[FLAVORS.index(flavor)]


def angular_momentum_component(nq, i, j):
    """L_ij = q_i p_j - q_j p_i."""
    qi, qj = OperatorExpr.position(nq, i), OperatorExpr.position(nq, j)
    pi, pj = OperatorExpr.momentum(nq, i), OperatorExpr.momentum(nq, j)
    return qi * pj - qj * pi


def build_angular_invariants(nq):
    """The 2N-3 distinct angular observables, keyed 'C^(m)' and 'C_(m)'.

    C^(m) sums the squared angular momenta L_ij^2 over the pairs of the first
    m axes, C_(m) over the last m; both ladders are one sum over an axis
    range, and at m = N the two ranges are the same, so C^(N) and C_(N) are
    one object stored under both keys.
    """
    if nq < 2:
        raise ValueError("dimension must be at least 2")
    squares = {}
    for i, j in combinations(range(nq), 2):
        lij = angular_momentum_component(nq, i, j)
        squares[i, j] = lij * lij
    out, sums = {}, {}
    for m in range(2, nq + 1):
        for name, axes in ((f"C^({m})", range(m)), (f"C_({m})", range(nq - m, nq))):
            if axes not in sums:  # range(N) and range(0, N) are equal keys
                sums[axes] = sum((squares[ij] for ij in combinations(axes, 2)), OperatorExpr.zero(nq))
            out[name] = sums[axes]
    return out


def build_fradkin(flavor, nq):
    """N x N symmetric tensor of Fradkin-type invariants for a flavor.

    Every entry carries the corresponding Hamiltonian inside the
    -2*lambda*q_i*q_j*H_flavor term, so the trace identity
    H_flavor = (1/2) sum_i I_ii holds exactly.
    """
    a = conjugation_exponent(flavor, nq)
    h = build_hamiltonian(flavor, nq)
    lam = _lam(nq)
    om2 = _omega_sq(nq)
    hb2 = _hbar(nq, 2)
    tensor = [[None] * nq for _ in range(nq)]
    for i in range(nq):
        for j in range(i, nq):
            qij = Poly.variable(nq, i) * Poly.variable(nq, j)
            entry = OperatorExpr(nq, {_alpha(nq, i, j): Coefficient.constant(nq, 1)})
            # -2*lambda*q_i*q_j*H + omega^2*q_i*q_j, shared by all flavors
            entry = entry + h.scale(Coefficient(qij * lam * (-2)))
            entry._put((0,) * nq, Coefficient(qij * om2))
            if a:
                # the D^a conjugate adds 2a*i*hbar*lambda*(q_i p_j + q_j p_i)/D,
                # -4a(1+a)*hbar^2*lambda^2*q_i*q_j/D^2 and, on the diagonal,
                # 2a*hbar^2*lambda/D
                c = Poly.constant(nq, 0, 2 * a)
                for k, b in ((i, j), (j, i)):
                    num = Poly.variable(nq, k) * _hbar(nq) * lam * c
                    entry._put(_alpha(nq, b), Coefficient(num, 1))
                entry._put((0,) * nq, Coefficient(qij * hb2 * _lam(nq, 2) * (-4 * a * (1 + a)), 2))
                if i == j:
                    entry._put((0,) * nq, Coefficient(hb2 * lam * (2 * a), 1))
            tensor[i][j] = tensor[j][i] = entry
    return tensor


def fradkin_entries(tensor):
    """The entries of a Fradkin tensor on and above its diagonal, keyed 'I_ij'."""
    return {f"I_{i+1}{j+1}": row[j] for i, row in enumerate(tensor) for j in range(i, len(row))}


@cache
def schrodinger_family(nq):
    """H, the C ladders and the Fradkin entries of the direct quantization,
    keyed like classical.invariant_names (plus C_(N)): built once per N and
    process, shared by verify and classical, and never to be mutated."""
    return {"H": build_hamiltonian("schrodinger", nq), **build_angular_invariants(nq),
            **fradkin_entries(build_fradkin("schrodinger", nq))}


def sl2_generators(nq):
    """Realization (J+, J-, J3) = (p^2, q^2, q.p - i*hbar*N/2)."""
    jp = OperatorExpr(nq, {_alpha(nq, i, i): Coefficient.constant(nq, 1) for i in range(nq)})
    jm = OperatorExpr.from_coefficient(nq, Coefficient(q_squared(nq)))
    j3 = OperatorExpr(nq, {_alpha(nq, i): Coefficient(Poly.variable(nq, i)) for i in range(nq)})
    j3._put((0,) * nq, Coefficient(_hbar(nq) * Poly.constant(nq, 0, Fraction(-nq, 2))))
    return jp, jm, j3


def curvature_coefficient(nq):
    """Scalar curvature of the metric D*dq^2 as an exact rational function:
    R = -lambda*(N-1)*(2N + 3*(N-2)*lambda*q^2) / D^3."""
    inner = Poly.constant(nq, 2 * nq) + _lam(nq) * q_squared(nq) * (3 * (nq - 2))
    return Coefficient(_lam(nq) * inner * (-(nq - 1)), 3)
