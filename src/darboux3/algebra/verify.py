"""Symbolic verification suites: commutator checks, similarity identities.

Every check reduces an operator identity to normal-ordered form and asks for
the exact zero operator; no numeric evaluation is involved.  A nonzero
residual is kept (pretty-printed) so a failing run shows what is left.  A
part is a list of checks over the names of the Schrödinger invariant family
(builders.schrodinger_family), and every flavor's checks are computed on
that family and carried over by the similarity H_X = D^a H D^(-a), which
each run proves exactly for the operators it reads (see ``verify_theorem``).
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
    build_fradkin,
    build_hamiltonian,
    conjugation_exponent,
    curvature_coefficient,
    fradkin_entries,
    potential_u2,
    schrodinger_family,
    sl2_generators,
)
from .ring import Coefficient, Poly

# commutators arising from degree-2 observables stay within these bounds
# (the D-power in canonical form); anything larger signals a bug upstream
MAX_COMMUTATOR_MOMENTUM_DEGREE = 4
MAX_COMMUTATOR_D_POWER = 6

ALL_PARTS = ("i", "ii", "sl2", "conjugation")


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


def _op(x):
    """x itself, or the family operator of the key x = (nq, name)."""
    return schrodinger_family(x[0])[x[1]] if type(x) is tuple else x


@cache
def _frame_commutator(a, b):
    """[a, b] of two frame keys, computed once per process."""
    return _op(a).commutator(_op(b))


@cache
def _frame_conjugate(nq, a, name):
    """D^a X D^(-a) of the family operator X named ``name``."""
    return schrodinger_family(nq)[name].conjugate_by_d_power(a)


@cache
def _fixes_ladders(nq, a):
    """Whether D^a fixes every L_ij, and so every C ladder (a sum of L_ij^2)."""
    lij = [angular_momentum_component(nq, i, j) for i, j in combinations(range(nq), 2)]
    return all(l.conjugate_by_d_power(a) == l for l in lij)


@cache
def _sl2_relations(nq):
    """(lhs, rhs, residual) of the sl(2,R) relations at N = nq by their rhs generator."""
    jp, jm, j3 = sl2_generators(nq)
    ih = OperatorExpr.symbol(nq, "hbar").scale(Coefficient(Poly.constant(nq, 0, 1)))
    return {"J+": ("[J3, J+]", "2i*hbar*J+", j3.commutator(jp) - (ih * jp) * 2),
            "J-": ("[J3, J-]", "-2i*hbar*J-", j3.commutator(jm) + (ih * jm) * 2),
            "J3": ("[J-, J+]", "4i*hbar*J3", jm.commutator(jp) - (ih * j3) * 4)}


def _preimage(x, nq, name, expo):
    """(preimage, gap) of the flavor's operator x named ``name``: the gap is
    x less the D^expo conjugate of the family's operator, and the preimage,
    whose D^expo conjugate is x, is the family key when the gap is zero,
    else x conjugated back."""
    gap = x - _frame_conjugate(nq, expo, name)
    return ((nq, name) if gap.is_zero() else x.conjugate_by_d_power(-expo)), gap


def part_checks(part, nq):
    """The checks of one part at N = nq in report order, each a tuple
    (kind, *names) over the names of builders.schrodinger_family:
      ("[]", a, b)           the commutator [a, b] is zero
      ("trace", "H", *I_ii)  the trace identity H = (1/2) sum_i I_ii
      ("conjugation", x)     the flavor's x is D^a x D^(-a)
      ("sl2", g)             the sl(2,R) relation with the generator g on its right
    """
    ladders = [f"C{s}({m})" for m in range(2, nq + 1) for s in "^_"]
    entries = [f"I_{i}{j}" for i in range(1, nq + 1) for j in range(i, nq + 1)]
    diagonal = [f"I_{i}{i}" for i in range(1, nq + 1)]
    if part == "i":
        return [("[]", "H", x) for x in ladders + entries] + [("trace", "H", *diagonal)]
    if part == "ii":
        return [("[]", *ab) for xs in (ladders[::2], ladders[1::2], diagonal) for ab in combinations(xs, 2)]
    if part == "sl2":
        return [("sl2", g) for g in ("J+", "J-", "J3")]
    return [("conjugation", x) for x in entries]


def entries_read(parts, nq):
    """The Fradkin entries, by family name, that the checks of ``parts`` name."""
    return {x for part in parts for _, *names in part_checks(part, nq)
            for x in names if x.startswith("I_")}


def verify_theorem(flavor, nq, parts=ALL_PARTS, fradkin=None):
    """Run the symmetry-algebra suite for one quantization flavor.

    parts is any subset of:
      'i'            commutation of the Hamiltonian with every invariant,
                     plus the trace identity H = (1/2) sum I_ii
      'ii'           involution inside each N-member set (C ladders, I_ii)
      'sl2'          the sl(2,R) commutation relations in the q/p realization
      'conjugation'  Fradkin entries match the D-power conjugates of the
                     direct-quantization tensor
    whose checks part_checks lists over the names of the Schrödinger
    invariant family (builders.schrodinger_family).

    Every flavor is checked in that family's frame.  Conjugation by D^a
    (a = conjugation_exponent) is an algebra automorphism, so
    [H_X, I_X] = D^a [H, I] D^(-a): each check is computed on the preimages
    of the operators it names and its residual is conjugated back by D^a,
    which gives the operator, text and degree bounds of the flavor's own
    commutator.  The family, its D^a conjugates, the commutators among its
    operators and the sl(2) relations are built once per N and process.
    Each call resolves every name read once, by _preimage: H_X and every
    entry read, less the family's D^a conjugate, must be exactly zero (an
    entry's difference is its conjugation residual).  A check reads the
    family only when all its operands are so proven; any other operand, such
    as a corrupted entry, is the flavor's operator conjugated by D^(-a), and
    its check is computed directly.  The C ladders are their own preimages
    once every L_ij is fixed by D^a.

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
    entries = fradkin_entries(build_fradkin(flavor, nq) if fradkin is None else fradkin)
    checks = [c for part in ALL_PARTS if part in parts for c in part_checks(part, nq)]
    family = schrodinger_family(nq)
    # every family name read, resolved once; an entry's gap is its conjugation residual
    pre, gap = {}, {}
    for x in dict.fromkeys(x for _, *names in checks for x in names if x in family):
        if x.startswith("C"):
            pre[x] = (nq, x) if _fixes_ladders(nq, expo) else family[x].conjugate_by_d_power(-expo)
        else:
            own = build_hamiltonian(flavor, nq) if x == "H" else entries[x]
            pre[x], gap[x] = _preimage(own, nq, x, expo)
    label = {"H": f"H_{flavor}"}
    for kind, *names in checks:
        if kind == "[]":
            a, b = names
            check = _commutator_check(label.get(a, a), pre[a], label.get(b, b), pre[b], expo)
        elif kind == "trace":
            h, *diagonal = (_op(pre[x]) for x in names)
            residual = (h + h - sum(diagonal, OperatorExpr.zero(nq))).conjugate_by_d_power(expo)
            check = _residual_check(label["H"], "(1/2) sum_i I_ii", residual)
        elif kind == "conjugation":
            x, = names
            check = _residual_check(f"I_{flavor},{x[2:]}", f"D^({expo}) {x} D^(-{expo})", gap[x])
        else:
            check = _residual_check(*_sl2_relations(nq)[names[0]])
        report.checks.append(check)
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
    hs = {"schrodinger": schrodinger_family(nq)["H"], **{f: build_hamiltonian(f, nq) for f in FLAVORS[1:]}}
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
