"""Symbolic verification suites: commutator checks, similarity identities.

Every check reduces an operator identity to normal-ordered form and asks for
the exact zero operator; no numeric evaluation is involved.  A
nonzero residual is kept (pretty-printed) so a failing run shows what is left.
Every flavor's suite is computed in the Schrödinger frame and carried over
by the similarity H_X = D^a H D^(-a), which each run proves exactly for the
operators it reads.  The frame is built once per N and process: its
operators, their D^a conjugates, the commutators among them and the sl(2)
relations (see ``verify_theorem``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations

from .operators import OperatorExpr, weighted_adjoint
from .builders import (
    FLAVORS,
    angular_momentum_component,
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


def _commutator_check(name_a, a, name_b, b, expo=0):
    """[a, b] carried to the frame D^expo, as a check that it is zero.  Each
    operand is an operator or a frame key (``_op``); two keys read the
    frame's commutator."""
    if type(a) is tuple and type(b) is tuple:
        res = _frame_commutator(a, b)
    else:
        res = _op(a).commutator(_op(b))
    res = res.conjugate_by_d_power(expo)
    if res.momentum_degree() > MAX_COMMUTATOR_MOMENTUM_DEGREE or res.max_d_power() > MAX_COMMUTATOR_D_POWER:
        raise AssertionError(
            f"commutator [{name_a}, {name_b}] exceeded degree bounds: "
            f"momentum {res.momentum_degree()}, D-power {res.max_d_power()}"
        )
    return _residual_check(f"[{name_a}, {name_b}]", "0", res)


@cache
def _frame(nq):
    """The Schrödinger frame at N = nq, built once per process: H as 'H', the
    C ladders by their names and the Fradkin entries by (i, j), i <= j."""
    fradkin = build_fradkin("schrodinger", nq)
    ops = {"H": build_hamiltonian("schrodinger", nq), **build_angular_invariants(nq)}
    ops.update({(i, j): fradkin[i][j] for i in range(nq) for j in range(i, nq)})
    return ops


def _op(x):
    """x itself, or the frame operator of the key x = (nq, name)."""
    return _frame(x[0])[x[1]] if type(x) is tuple else x


@cache
def _frame_commutator(a, b):
    """[a, b] of two frame keys, computed once per process."""
    return _op(a).commutator(_op(b))


@cache
def _frame_conjugate(nq, a, name):
    """D^a X D^(-a) of the frame operator X named ``name``."""
    return _frame(nq)[name].conjugate_by_d_power(a)


@cache
def _fixes_ladders(nq, a):
    """Whether D^a fixes every L_ij, and so every C ladder (a sum of L_ij^2)."""
    lij = [angular_momentum_component(nq, i, j) for i, j in combinations(range(nq), 2)]
    return all(l.conjugate_by_d_power(a) == l for l in lij)


@cache
def _sl2_relations(nq):
    """(lhs, rhs, residual) of the three sl(2,R) relations at N = nq."""
    jp, jm, j3 = sl2_generators(nq)
    ih = OperatorExpr.symbol(nq, "hbar").scale(Coefficient(Poly.constant(nq, 0, 1)))
    return (("[J3, J+]", "2i*hbar*J+", j3.commutator(jp) - (ih * jp) * 2),
            ("[J3, J-]", "-2i*hbar*J-", j3.commutator(jm) + (ih * jm) * 2),
            ("[J-, J+]", "4i*hbar*J3", jm.commutator(jp) - (ih * j3) * 4))


def _preimage(x, key, gap, expo):
    """The Schrödinger-frame preimage of x, whose D^expo conjugate is x: the
    frame key ``key`` when ``gap`` = x - D^expo X D^(-expo) is zero, X being
    the frame's operator, else x conjugated back."""
    return key if gap.is_zero() else x.conjugate_by_d_power(-expo)


def verify_theorem(flavor, nq, parts=ALL_PARTS, fradkin=None):
    """Run the symmetry-algebra suite for one quantization flavor.

    parts is any subset of:
      'i'            commutation of the Hamiltonian with every invariant,
                     plus the trace identity H = (1/2) sum I_ii
      'ii'           involution inside each N-member set (C ladders, I_ii)
      'sl2'          the sl(2,R) commutation relations in the q/p realization
      'conjugation'  Fradkin entries match the D-power conjugates of the
                     direct-quantization tensor

    Every flavor is checked in the Schrödinger frame.  Conjugation by D^a
    (a = conjugation_exponent) is an algebra automorphism, so
    [H_X, I_X] = D^a [H, I] D^(-a): each check is computed on the preimages
    of the operators it reads and its residual is conjugated back by D^a,
    which gives the operator, text and degree bounds of the flavor's own
    commutator.  The frame (H, the C ladders and the schrodinger Fradkin
    entries) is built once per N and process, and so are its D^a
    conjugates, the commutators among its operators and the sl(2)
    relations.  Each call builds the flavor's closed-form H and proves its
    preimages anew: H_X and every entry read, less the frame's D^a
    conjugate, must be exactly zero (the entries' differences are the
    conjugation part's residuals).  A check reads the frame only when all
    its operands are so proven; any other operand, such as a corrupted
    entry, is the flavor's operator conjugated by D^(-a), and its check is
    computed directly.  The C ladders are their own preimages once every
    L_ij is fixed by D^a.

    A prebuilt (possibly corrupted) ``fradkin`` tensor may be injected for
    mutation testing.  Functional independence (part iii of the statements)
    is not checked here: classical.independence_rank certifies it, as the
    exact rank of the gradients of these operators' hbar = 0 symbols at a
    rational point.
    """
    expo = conjugation_exponent(flavor, nq)  # ValueError on an unknown flavor
    if isinstance(parts, str):
        parts = (parts,)
    unknown = set(parts) - set(ALL_PARTS)
    if unknown:
        raise ValueError(f"unknown theorem parts {sorted(unknown)}")
    report = VerifyReport(flavor=flavor, dim=nq)
    hname = f"H_{flavor}"
    if fradkin is None:
        fradkin = build_fradkin(flavor, nq)
    read = [(i, j) for i in range(nq) for j in range(i, nq)
            if any(PART_READS_ENTRY[p](i, j) for p in parts)]
    # each entry read less the D^a conjugate of the frame's entry: the
    # conjugation part's residual, and the proof of the entry's preimage
    gap = {(i, j): fradkin[i][j] - _frame_conjugate(nq, expo, (i, j)) for i, j in read}
    entry = {(i, j): _preimage(fradkin[i][j], (nq, (i, j)), gap[i, j], expo) for i, j in read}

    if "i" in parts:
        h = build_hamiltonian(flavor, nq)
        h = _preimage(h, (nq, "H"), h - _frame_conjugate(nq, expo, "H"), expo)
        fixed = _fixes_ladders(nq, expo)
        for m in range(2, nq + 1):
            for name in (f"C^({m})", f"C_({m})"):
                c = (nq, name) if fixed else _frame(nq)[name].conjugate_by_d_power(-expo)
                report.checks.append(_commutator_check(hname, h, name, c, expo))
        for i, j in read:
            report.checks.append(
                _commutator_check(hname, h, f"I_{i+1}{j+1}", entry[i, j], expo)
            )
        trace = sum((_op(entry[i, i]) for i in range(nq)), OperatorExpr.zero(nq))
        residual = (_op(h) + _op(h) - trace).conjugate_by_d_power(expo)
        report.checks.append(_residual_check(hname, "(1/2) sum_i I_ii", residual))

    if "ii" in parts:
        for prefix in ("C^", "C_"):
            names = [f"{prefix}({m})" for m in range(2, nq + 1)]
            for a, b in combinations(names, 2):
                report.checks.append(_commutator_check(a, (nq, a), b, (nq, b)))
        for i, j in combinations(range(nq), 2):
            report.checks.append(_commutator_check(
                f"I_{i+1}{i+1}", entry[i, i], f"I_{j+1}{j+1}", entry[j, j], expo))

    if "sl2" in parts:
        for lhs, rhs, residual in _sl2_relations(nq):
            report.checks.append(_residual_check(lhs, rhs, residual))

    if "conjugation" in parts:
        for i, j in read:
            report.checks.append(
                _residual_check(
                    f"I_{flavor},{i+1}{j+1}",
                    f"D^({expo}) I_{i+1}{j+1} D^(-{expo})",
                    gap[i, j],
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
    (weight D^(1-2a): D, D^(N/2) and 1).
    """
    hs = {f: build_hamiltonian(f, nq) for f in FLAVORS[1:]}
    hs["schrodinger"] = _frame(nq)["H"]
    a = {f: conjugation_exponent(f, nq) for f in FLAVORS}
    # H_to = D^b H_from D^(-b) with b = a_to - a_from
    checks = [
        _residual_check(f"H_{to}", label, hs[to] - hs[fr].conjugate_by_d_power(a[to] - a[fr]))
        for fr, to, label in (("schrodinger", "tlb", "D^((2-N)/4) H D^(-(2-N)/4)"),
                              ("schrodinger", "tpdm", "D^(1/2) H D^(-1/2)"),
                              ("tlb", "tpdm", "D^(N/4) H_tlb D^(-N/4)"))
    ]
    r = curvature_coefficient(nq) * Fraction(nq - 2, 8 * (nq - 1))
    rhs = OperatorExpr.from_coefficient(nq, r).scale(Coefficient(Poly.variable(nq, Poly.idx_hbar(nq), 2)))
    checks.append(_residual_check("U2", "hbar^2 (N-2) R / (8 (N-1))", potential_u2(nq) - rhs))
    for f, name, weight in (("schrodinger", "H", "weight D"),
                            ("tlb", "H_tlb", "weight D^(N/2)"),
                            ("tpdm", "H_tpdm", "standard L2")):
        residual = weighted_adjoint(hs[f], 1 - 2 * a[f]) - hs[f]
        checks.append(_residual_check(f"{name}^dagger ({weight})", name, residual))
    return checks


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
