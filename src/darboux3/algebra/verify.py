"""Symbolic verification suites: commutator checks, similarity identities.

Every check reduces an operator identity to normal-ordered form and asks for
the exact zero operator; no numeric evaluation is involved.  A
nonzero residual is kept (pretty-printed) so a failing run shows what is left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .operators import OperatorExpr, weighted_adjoint
from .builders import (
    FRADKIN_FLAVORS,
    build_angular_invariants,
    build_fradkin,
    build_hamiltonian,
    conjugation_exponent,
    curvature_coefficient,
    potential_u2,
    sl2_generators,
)
from .ring import Coefficient, Poly

# commutators arising from degree-2 observables stay within these bounds
# (the D-power in canonical form); anything larger signals a bug upstream
MAX_COMMUTATOR_MOMENTUM_DEGREE = 4
MAX_COMMUTATOR_D_POWER = 6

ALL_PARTS = ("i", "ii", "sl2", "conjugation")
# whether a part reads Fradkin entry (i, j)
PART_READS_ENTRY = {"i": lambda i, j: True, "ii": lambda i, j: i == j,
                    "sl2": lambda i, j: False, "conjugation": lambda i, j: True}


@dataclass
class Check:
    """Outcome of one residual-is-zero test."""

    lhs: str
    rhs: str
    commutator_zero: bool
    residual_terms: int
    residual: str = ""

    def to_json(self):
        out = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "commutator_zero": self.commutator_zero,
            "residual_terms": self.residual_terms,
        }
        if not self.commutator_zero:
            out["residual"] = self.residual
        return out


@dataclass
class VerifyReport:
    flavor: str
    dim: int
    checks: list = field(default_factory=list)

    @property
    def all_zero(self):
        return all(c.commutator_zero for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.commutator_zero]

    def to_json(self):
        return {
            "flavor": self.flavor,
            "N": self.dim,
            "all_zero": self.all_zero,
            "checks": [c.to_json() for c in self.checks],
        }


def _residual_check(name_lhs, name_rhs, residual):
    ok = residual.is_zero()
    return Check(
        lhs=name_lhs,
        rhs=name_rhs,
        commutator_zero=ok,
        residual_terms=residual.term_count(),
        residual="" if ok else str(residual),
    )


def _commutator_check(name_a, a, name_b, b):
    res = a.commutator(b)
    if res.momentum_degree() > MAX_COMMUTATOR_MOMENTUM_DEGREE or res.max_d_power() > MAX_COMMUTATOR_D_POWER:
        raise AssertionError(
            f"commutator [{name_a}, {name_b}] exceeded degree bounds: "
            f"momentum {res.momentum_degree()}, D-power {res.max_d_power()}"
        )
    return _residual_check(f"[{name_a}, {name_b}]", "0", res)


def verify_theorem(flavor, nq, parts=ALL_PARTS, fradkin=None):
    """Run the symmetry-algebra suite for one quantization flavor.

    parts is any subset of:
      'i'            commutation of the Hamiltonian with every invariant,
                     plus the trace identity H = (1/2) sum I_ii
      'ii'           involution inside each N-member set (C ladders, I_ii)
      'sl2'          the sl(2,R) commutation relations in the q/p realization
      'conjugation'  Fradkin entries match the D-power conjugates of the
                     direct-quantization tensor

    A prebuilt (possibly corrupted) ``fradkin`` tensor may be injected for
    mutation testing.  Functional independence (part iii of the statements)
    is not checked here: classical.independence_rank certifies it, as the
    exact rank of the gradients of these operators' hbar = 0 symbols at a
    rational point.
    """
    if flavor not in FRADKIN_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if isinstance(parts, str):
        parts = (parts,)
    unknown = set(parts) - set(ALL_PARTS)
    if unknown:
        raise ValueError(f"unknown theorem parts {sorted(unknown)}")
    report = VerifyReport(flavor=flavor, dim=nq)
    h = build_hamiltonian(flavor, nq)
    hname = f"H_{flavor}"
    angular = build_angular_invariants(nq)
    if fradkin is None:
        fradkin = build_fradkin(flavor, nq)

    if "i" in parts:
        for name, c in angular.items():
            report.checks.append(_commutator_check(hname, h, name, c))
        for i in range(nq):
            for j in range(i, nq):
                report.checks.append(
                    _commutator_check(hname, h, f"I_{i+1}{j+1}", fradkin[i][j])
                )
        trace = sum((fradkin[i][i] for i in range(nq)), OperatorExpr.zero(nq))
        report.checks.append(_residual_check(hname, "(1/2) sum_i I_ii", h + h - trace))

    if "ii" in parts:
        for prefix in ("C^", "C_"):
            names = [f"{prefix}({m})" for m in range(2, nq + 1)]
            for a, b in combinations(names, 2):
                report.checks.append(_commutator_check(a, angular[a], b, angular[b]))
        for i, j in combinations(range(nq), 2):
            report.checks.append(_commutator_check(
                f"I_{i+1}{i+1}", fradkin[i][i], f"I_{j+1}{j+1}", fradkin[j][j]))

    if "sl2" in parts:
        jp, jm, j3 = sl2_generators(nq)
        ih = OperatorExpr.symbol(nq, "hbar").scale(Coefficient(Poly.constant(nq, 0, 1)))
        report.checks.append(
            _residual_check("[J3, J+]", "2i*hbar*J+", j3.commutator(jp) - (ih * jp) * 2)
        )
        report.checks.append(
            _residual_check("[J3, J-]", "-2i*hbar*J-", j3.commutator(jm) + (ih * jm) * 2)
        )
        report.checks.append(
            _residual_check("[J-, J+]", "4i*hbar*J3", jm.commutator(jp) - (ih * j3) * 4)
        )

    if "conjugation" in parts:
        a = conjugation_exponent(flavor, nq)
        base = build_fradkin("schrodinger", nq)
        for i in range(nq):
            for j in range(i, nq):
                conj = base[i][j].conjugate_by_d_power(a)
                report.checks.append(
                    _residual_check(
                        f"I_{flavor},{i+1}{j+1}",
                        f"D^({a}) I_{i+1}{j+1} D^(-{a})",
                        fradkin[i][j] - conj,
                    )
                )
    return report


def similarity_checks(nq):
    """The exact similarity identities tying the three flavors together:

      H_tlb  = D^((2-N)/4) H D^(-(2-N)/4)
      H_tpdm = D^(1/2)     H D^(-1/2)
      H_tpdm = D^(N/4) H_tlb D^(-N/4)

    plus the conformal-potential identity U2 = hbar^2 (N-2) R / (8 (N-1)) and
    the self-adjointness of each Hamiltonian in its own weighted product
    (weights D, D^(N/2) and 1).
    """
    h = build_hamiltonian("schrodinger", nq)
    tlb = build_hamiltonian("tlb", nq)
    tpdm = build_hamiltonian("tpdm", nq)
    checks = [
        _residual_check(
            "H_tlb", "D^((2-N)/4) H D^(-(2-N)/4)",
            tlb - h.conjugate_by_d_power(Fraction(2 - nq, 4)),
        ),
        _residual_check(
            "H_tpdm", "D^(1/2) H D^(-1/2)",
            tpdm - h.conjugate_by_d_power(Fraction(1, 2)),
        ),
        _residual_check(
            "H_tpdm", "D^(N/4) H_tlb D^(-N/4)",
            tpdm - tlb.conjugate_by_d_power(Fraction(nq, 4)),
        ),
        _conformal_check(nq),
        _residual_check(
            "H^dagger (weight D)", "H", weighted_adjoint(h, 1) - h
        ),
        _residual_check(
            "H_tlb^dagger (weight D^(N/2))", "H_tlb",
            weighted_adjoint(tlb, Fraction(nq, 2)) - tlb,
        ),
        _residual_check(
            "H_tpdm^dagger (standard L2)", "H_tpdm", tpdm.adjoint() - tpdm
        ),
    ]
    return checks


def _conformal_check(nq):
    r = curvature_coefficient(nq) * Fraction(nq - 2, 8 * (nq - 1))
    hbar_sq = Coefficient(Poly.variable(nq, Poly.idx_hbar(nq), 2))
    rhs = OperatorExpr.from_coefficient(nq, r).scale(hbar_sq)
    return _residual_check("U2", "hbar^2 (N-2) R / (8 (N-1))", potential_u2(nq) - rhs)


def conformal_potential_identity(nq):
    """True iff U2 equals hbar^2 (N-2)/(8(N-1)) times the scalar curvature."""
    return _conformal_check(nq).commutator_zero


def fradkin_label_indices(label, nq):
    """Zero-based indices (i, j) of a Fradkin tensor label such as 'I13'.

    Raises ValueError when the label is malformed or names an entry outside
    the N x N tensor.
    """
    if len(label) != 3 or label[0] != "I" or not all(c in "0123456789" for c in label[1:]):
        raise ValueError(f"bad invariant label {label!r} (expected e.g. 'I11')")
    i, j = int(label[1]) - 1, int(label[2]) - 1
    if not (0 <= i < nq and 0 <= j < nq):
        raise ValueError(f"invariant label {label!r} out of range for N={nq}")
    return i, j


def corrupt_fradkin(tensor, label):
    """Drop the omega^2 q_i q_j term from one tensor entry (mutation control).

    ``label`` looks like 'I11' or 'I13'; returns a new tensor with the entry
    (and its symmetric partner) corrupted.
    """
    nq = len(tensor)
    i, j = fradkin_label_indices(label, nq)
    qij = Poly.variable(nq, i) * Poly.variable(nq, j) * Poly.variable(
        nq, Poly.idx_omega(nq), 2
    )
    bad = tensor[i][j] - OperatorExpr.from_coefficient(nq, Coefficient(qij))
    out = [row[:] for row in tensor]
    out[i][j] = bad
    out[j][i] = bad
    return out
