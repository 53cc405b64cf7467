"""Constructors for the curved-oscillator operators, exact in lambda, omega, hbar.

Dimension N is a concrete small integer; lambda, omega and hbar stay symbolic
indeterminates so every verification is parameter-independent.
"""

from __future__ import annotations

from fractions import Fraction

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
    alpha = [0] * nq
    for i in axes:
        alpha[i] += 1
    return tuple(alpha)


def base_hamiltonian(nq):
    """H = (p^2 + omega^2 q^2) / (2 D), the direct quantization."""
    half = Coefficient(Poly.constant(nq, Fraction(1, 2)), 1)
    terms = {_alpha(nq, i, i): half for i in range(nq)}
    terms[(0,) * nq] = Coefficient(_omega_sq(nq) * q_squared(nq) * Fraction(1, 2), 1)
    return OperatorExpr(nq, terms)


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


def potential_u1(nq):
    """Momentum-dependent correction of the Laplace-Beltrami kinetic term:
    -i*hbar*lambda*(N-2)/(2 D^2) * (q.p)."""
    return _q_dot_p(nq, conjugation_exponent("tlb", nq))


def potential_u2(nq):
    """Central quantum potential restoring the full symmetry of the LB choice:
    -hbar^2*lambda*(N-2)*(2N + 3*lambda*q^2*(N-2)) / (8 D^3)."""
    return _central(nq, conjugation_exponent("tlb", nq))


def potential_v1(nq):
    """Momentum-dependent correction of the symmetric PDM kinetic term:
    +i*hbar*lambda/D^2 * (q.p)."""
    return _q_dot_p(nq, conjugation_exponent("tpdm", nq))


def potential_v2(nq):
    """Central quantum potential restoring the full symmetry of the PDM choice:
    +hbar^2*lambda*(N + lambda*q^2*(N-3)) / (2 D^3)."""
    return _central(nq, conjugation_exponent("tpdm", nq))


def build_hamiltonian(flavor, nq):
    """Quantum Hamiltonian for one of the five quantization prescriptions.

    schrodinger: H            (direct division by the conformal factor)
    lb:          H + U1       (Laplace-Beltrami kinetic operator)
    tlb:         H + U1 + U2  (= D^((2-N)/4) H D^(-(2-N)/4))
    pdm:         H + V1       (symmetric position-dependent-mass ordering)
    tpdm:        H + V1 + V2  (= D^(1/2) H D^(-1/2))
    """
    if nq < 2:
        raise ValueError("dimension must be at least 2")
    h = base_hamiltonian(nq)
    if flavor == "schrodinger":
        return h
    if flavor == "lb":
        return h + potential_u1(nq)
    if flavor == "tlb":
        return h + potential_u1(nq) + potential_u2(nq)
    if flavor == "pdm":
        return h + potential_v1(nq)
    if flavor == "tpdm":
        return h + potential_v1(nq) + potential_v2(nq)
    raise ValueError(f"unknown flavor {flavor!r}")


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

    C^(m) sums the squared angular momenta over the first m axes, C_(m) over
    the last m; the two ladders meet at m = N where C^(N) = C_(N) (stored once
    under both keys).
    """
    if nq < 2:
        raise ValueError("dimension must be at least 2")
    squares = {}
    for i in range(nq):
        for j in range(i + 1, nq):
            lij = angular_momentum_component(nq, i, j)
            squares[(i, j)] = lij * lij
    out = {}
    for m in range(2, nq + 1):
        acc = OperatorExpr.zero(nq)
        for i in range(m):
            for j in range(i + 1, m):
                acc = acc + squares[(i, j)]
        out[f"C^({m})"] = acc
        acc = OperatorExpr.zero(nq)
        for i in range(nq - m, nq):
            for j in range(i + 1, nq):
                acc = acc + squares[(i, j)]
        out[f"C_({m})"] = acc
    return out


def build_fradkin(flavor, nq):
    """N x N symmetric tensor of Fradkin-type invariants for a flavor.

    Every entry carries the corresponding Hamiltonian inside the
    -2*lambda*q_i*q_j*H_flavor term, so the trace identity
    H_flavor = (1/2) sum_i I_ii holds exactly.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"no Fradkin tensor for flavor {flavor!r}")
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
            tensor[i][j] = entry
            tensor[j][i] = entry
    return tensor


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
