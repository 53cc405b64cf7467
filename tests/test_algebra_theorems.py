"""Operator constructors and symmetry-algebra verification (unit scale).

The full N in {2,3} x flavor sweep lives in the acceptance suite; here the
builders' structural identities are checked plus one complete dimension, and
verify_theorem's reports against the direct commutators of each flavor's own
operators at N = 2..4.
"""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import pytest

from darboux3.algebra import (
    FLAVORS,
    Coefficient,
    OperatorExpr,
    Poly,
    build_angular_invariants,
    build_fradkin,
    build_hamiltonian,
    conjugation_exponent,
    corrupt_fradkin,
    parse,
    potential_u2,
    similarity_checks,
    sl2_generators,
    symbol_gradients,
    verify_theorem,
)
from darboux3.algebra import verify


def test_hamiltonian_text_form():
    h = build_hamiltonian("schrodinger", 2)
    assert h == parse("(1/(2*D))*(p1^2+p2^2) + (omega^2/(2*D))*(q1^2+q2^2)", 2)


def _flavor_parts(flavor, nq):
    """H_flavor - H as (first-order part, momentum-free part); nothing else
    may be left."""
    diff = build_hamiltonian(flavor, nq) - build_hamiltonian("schrodinger", nq)
    assert {sum(alpha) for alpha in diff.terms} <= {0, 1}
    return (OperatorExpr(nq, {a: c for a, c in diff.terms.items() if sum(a) == 1}),
            OperatorExpr(nq, {a: c for a, c in diff.terms.items() if sum(a) == 0}))


def test_lb_equals_schrodinger_only_at_n2():
    # the Laplace-Beltrami flavor's corrections carry the factor N - 2
    assert build_hamiltonian("tlb", 2) == build_hamiltonian("schrodinger", 2)
    for nq in (3, 4, 5):
        assert build_hamiltonian("tlb", nq) != build_hamiltonian("schrodinger", nq)
    assert potential_u2(2).is_zero()
    first, free = _flavor_parts("tpdm", 2)
    assert not first.is_zero() and not free.is_zero()  # PDM corrections survive at N=2


def test_flavor_decompositions():
    # H_f - H = 2a*i*hbar*lambda/D^2 (q.p) + a momentum-free part, the
    # conformal potential U2 for tlb and V2 for tpdm
    for nq in (2, 3):
        qp = " + ".join(f"D^-2*q{i}*p{i}" for i in range(1, nq + 1))
        q2 = "(" + " + ".join(f"q{i}^2" for i in range(1, nq + 1)) + ")"
        for flavor in FLAVORS:
            a = conjugation_exponent(flavor, nq)
            first, free = _flavor_parts(flavor, nq)
            assert first == parse(f"({2 * a})*i*hbar*lambda*({qp})", nq)
            if flavor == "tlb":
                assert free == potential_u2(nq) == parse(
                    f"-hbar^2*lambda*({nq - 2})*({2 * nq} + 3*lambda*{q2}*({nq - 2}))/8*D^-3", nq)
            if flavor == "tpdm":
                assert free == parse(f"hbar^2*lambda*({nq} + lambda*{q2}*({nq - 3}))/2*D^-3", nq)
    for flavor in ("weyl", "lb", "pdm"):
        with pytest.raises(ValueError):
            build_hamiltonian(flavor, 3)


def test_tlb_flat_limit_is_flat_oscillator():
    flat = build_hamiltonian("tlb", 3).substitute_lambda_zero()
    assert flat == parse("(1/2)*(p1^2+p2^2+p3^2) + (omega^2/2)*(q1^2+q2^2+q3^2)", 3)


def test_angular_invariant_counts_and_n2_form():
    inv2 = build_angular_invariants(2)
    assert set(inv2) == {"C^(2)", "C_(2)"}
    assert inv2["C^(2)"] == inv2["C_(2)"]  # single distinct operator at N=2
    assert inv2["C^(2)"] == parse("(q1*p2-q2*p1)^2", 2)
    inv3 = build_angular_invariants(3)
    distinct = {str(v) for v in inv3.values()}
    assert len(distinct) == 3  # 2N-3 with C^(3) = C_(3)
    assert inv3["C^(3)"] is inv3["C_(3)"]  # one sum over the axis range 0..N-1
    assert inv2["C^(2)"] is inv2["C_(2)"]


def test_fradkin_flat_limit_and_trace():
    for flavor in ("schrodinger", "tlb", "tpdm"):
        t = build_fradkin(flavor, 2)
        flat = t[0][1].substitute_lambda_zero()
        assert flat == parse("p1*p2 + omega^2*q1*q2", 2)
        # trace identity
        h2 = build_hamiltonian(flavor, 2)
        assert t[0][0] + t[1][1] == h2 + h2
    t3 = build_fradkin("schrodinger", 3)
    h3 = build_hamiltonian("schrodinger", 3)
    assert t3[0][0] + t3[1][1] + t3[2][2] == h3 + h3
    with pytest.raises(ValueError):
        build_fradkin("lb", 3)


def test_tlb_fradkin_reduces_to_direct_form_at_n2():
    # the (N-2) factors vanish, leaving the direct-quantization tensor shape
    t = build_fradkin("tlb", 2)
    h = build_hamiltonian("tlb", 2)
    direct = parse("p1*p2", 2) + h.scale(parse("-2*lambda*q1*q2", 2).terms[(0, 0)]) \
        + parse("omega^2*q1*q2", 2)
    assert t[0][1] == direct


def test_sl2_relations():
    for nq in (2, 3):
        jp, jm, j3 = sl2_generators(nq)
        ih = parse("i*hbar", nq)
        assert j3.commutator(jp) == (ih * jp) * 2
        assert j3.commutator(jm) == -((ih * jm) * 2)
        assert jm.commutator(jp) == (ih * j3) * 4
        # J3 = q.p - i*hbar*N/2 in normal order
        qp = sum(
            (parse(f"q{i}*p{i}", nq) for i in range(1, nq + 1)),
            OperatorExpr.zero(nq),
        )
        assert j3 == qp - parse("i*hbar", nq).scale(Fraction(nq, 2))


def test_intermediate_flavors_keep_angular_symmetry():
    # H plus the first-order part alone (the Laplace-Beltrami and the
    # symmetric PDM kinetic operators, without their central corrections)
    # still commutes with the full angular ladder; only the Fradkin tensor
    # needs the transformed forms
    h = build_hamiltonian("schrodinger", 3)
    for flavor in ("tlb", "tpdm"):
        first, _ = _flavor_parts(flavor, 3)
        assert not first.is_zero()
        for c in build_angular_invariants(3).values():
            assert (h + first).commutator(c).is_zero()


def test_verify_theorem_full_n2_all_flavors():
    for flavor in ("schrodinger", "tlb", "tpdm"):
        rep = verify_theorem(flavor, 2)
        assert rep.all_zero, [c.lhs for c in rep.failures()]
        assert len(rep.checks) > 0


def test_exact_engine_loads_no_numerics():
    # in a fresh interpreter, because this test session has numpy loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    script = (
        "import sys, darboux3.algebra as a\n"
        "assert a.verify_theorem('schrodinger', 2).all_zero\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_theorem_spot_n3():
    rep = verify_theorem("tpdm", 3, parts=("i",))
    assert rep.all_zero


def test_verify_theorem_rejects_bad_args():
    with pytest.raises(ValueError):
        verify_theorem("lb", 2)
    with pytest.raises(ValueError):
        verify_theorem("schrodinger", 2, parts=("iv",))


def test_corrupted_invariant_reports_residual():
    fradkin = corrupt_fradkin(build_fradkin("tlb", 3), "I11")
    rep = verify_theorem("tlb", 3, parts=("i",), fradkin=fradkin)
    assert not rep.all_zero
    fails = rep.failures()
    assert any("I_11" in c.lhs for c in fails)
    assert all(c.residual_terms > 0 and c.residual for c in fails)
    with pytest.raises(ValueError):
        corrupt_fradkin(build_fradkin("tlb", 3), "I14")
    with pytest.raises(ValueError):
        corrupt_fradkin(build_fradkin("tlb", 3), "X11")


def test_conformal_potential_identity_dimensions():
    # U2 = hbar^2 (N-2) R / (8 (N-1)), as similarity_checks reports it
    for nq in (2, 3, 5):
        (u2,) = [c for c in similarity_checks(nq) if c.lhs == "U2"]
        assert u2.commutator_zero and u2.rhs == "hbar^2 (N-2) R / (8 (N-1))"


def test_similarity_checks_n2_n3():
    for nq in (2, 3):
        checks = similarity_checks(nq)
        assert all(c.commutator_zero for c in checks), [
            (c.lhs, c.rhs) for c in checks if not c.commutator_zero
        ]


def test_report_json_shape():
    rep = verify_theorem("schrodinger", 2, parts=("sl2",))
    body = rep.to_json()
    assert body["flavor"] == "schrodinger"
    assert body["N"] == 2
    assert body["all_zero"] is True
    for check in body["checks"]:
        assert set(check) >= {"lhs", "rhs", "commutator_zero", "residual_terms"}


# -- the direct route: every check on the flavor's own operators ------------


def _direct_check(lhs, rhs, residual):
    out = {"lhs": lhs, "rhs": rhs, "commutator_zero": residual.is_zero(),
           "residual_terms": residual.term_count()}
    if residual:
        out["residual"] = str(residual)
    return out


def _direct_commutator(name_a, a, name_b, b):
    res = a.commutator(b)
    assert res.momentum_degree() <= verify.MAX_COMMUTATOR_MOMENTUM_DEGREE
    assert res.max_d_power() <= verify.MAX_COMMUTATOR_D_POWER
    return _direct_check(f"[{name_a}, {name_b}]", "0", res)


def _direct_checks(flavor, nq, fradkin):
    """The checks of each part, from H_flavor, the C ladders and ``fradkin``
    commuted directly; the sl2 relations and the conjugation residuals as
    the statements write them."""
    h, hname = build_hamiltonian(flavor, nq), f"H_{flavor}"
    angular = build_angular_invariants(nq)
    entries = [(i, j) for i in range(nq) for j in range(i, nq)]
    trace = sum((fradkin[i][i] for i in range(nq)), OperatorExpr.zero(nq))
    part_i = [_direct_commutator(hname, h, name, c) for name, c in angular.items()]
    part_i += [_direct_commutator(hname, h, f"I_{i+1}{j+1}", fradkin[i][j]) for i, j in entries]
    part_i.append(_direct_check(hname, "(1/2) sum_i I_ii", h + h - trace))
    part_ii = [_direct_commutator(a, angular[a], b, angular[b])
               for prefix in ("C^", "C_")
               for a, b in combinations([f"{prefix}({m})" for m in range(2, nq + 1)], 2)]
    part_ii += [_direct_commutator(f"I_{i+1}{i+1}", fradkin[i][i], f"I_{j+1}{j+1}", fradkin[j][j])
                for i, j in combinations(range(nq), 2)]
    jp, jm, j3 = sl2_generators(nq)
    ih = parse("i*hbar", nq)
    sl2 = [_direct_check("[J3, J+]", "2i*hbar*J+", j3 * jp - jp * j3 - ih * jp * 2),
           _direct_check("[J3, J-]", "-2i*hbar*J-", j3 * jm - jm * j3 + ih * jm * 2),
           _direct_check("[J-, J+]", "4i*hbar*J3", jm * jp - jp * jm - ih * j3 * 4)]
    a, base = conjugation_exponent(flavor, nq), build_fradkin("schrodinger", nq)
    conj = [_direct_check(f"I_{flavor},{i+1}{j+1}", f"D^({a}) I_{i+1}{j+1} D^(-{a})",
                          fradkin[i][j] - base[i][j].conjugate_by_d_power(a))
            for i, j in entries]
    return {"i": part_i, "ii": part_ii, "sl2": sl2, "conjugation": conj}


def _direct_report(flavor, nq, parts, checks):
    body = [c for part in verify.ALL_PARTS if part in parts for c in checks[part]]
    return {"flavor": flavor, "N": nq, "all_zero": all(c["commutator_zero"] for c in body),
            "checks": body}


@pytest.mark.parametrize("nq", [2, 3, 4])
@pytest.mark.parametrize("flavor", ["schrodinger", "tlb", "tpdm"])
def test_verify_theorem_matches_direct_commutators(flavor, nq):
    # tlb and tpdm are verified in the Schrödinger frame and carried back by
    # D^a; each part alone and all together must give the report of the
    # flavor's own commutators, and every check is zero
    checks = _direct_checks(flavor, nq, build_fradkin(flavor, nq))
    for parts in [(part,) for part in verify.ALL_PARTS] + [verify.ALL_PARTS]:
        expected = _direct_report(flavor, nq, parts, checks)
        assert verify_theorem(flavor, nq, parts=parts).to_json() == expected
        assert expected["all_zero"]


PART_SUBSETS = [parts for k in range(1, len(verify.ALL_PARTS) + 1)
                for parts in combinations(verify.ALL_PARTS, k)]


@pytest.mark.parametrize("nq", [2, 3, 4])
def test_frame_gives_the_same_reports_cold_and_warm(nq, clear_frame, monkeypatch):
    # the Schrödinger frame is built once per N and process: every report is
    # the same with the frame cold and warm after the other two flavors, and
    # a warm report takes every commutator from the frame
    cold = {}
    for flavor in FLAVORS:
        for parts in PART_SUBSETS:
            clear_frame()
            cold[flavor, parts] = verify_theorem(flavor, nq, parts=parts).to_json()
    commutator, computed = OperatorExpr.commutator, []

    def counted(a, b):
        computed.append(1)
        return commutator(a, b)

    for flavor in FLAVORS:
        clear_frame()
        for other in FLAVORS:
            if other != flavor:
                verify_theorem(other, nq)
        monkeypatch.setattr(OperatorExpr, "commutator", counted)
        for parts in PART_SUBSETS:
            assert verify_theorem(flavor, nq, parts=parts).to_json() == cold[flavor, parts]
        monkeypatch.setattr(OperatorExpr, "commutator", commutator)
    assert not computed


def test_mutated_tlb_tensor_matches_direct_commutators():
    # -4a(1+a) -> -4a(1-a) in the hbar^2*lambda^2*q_i*q_j/D^2 term of every
    # tlb entry at N = 3: no entry is the conjugate of the schrodinger one,
    # so every entry is carried over by D^(-a), and the residuals carried
    # back must be the direct commutators, text and all
    nq = 3
    a = conjugation_exponent("tlb", nq)
    tensor = build_fradkin("tlb", nq)
    mutant = [[tensor[i][j] + parse(f"{8 * a * a}*hbar^2*lambda^2*q{i+1}*q{j+1}*D^-2", nq)
               for j in range(nq)] for i in range(nq)]
    report = verify_theorem("tlb", nq, fradkin=mutant).to_json()
    assert report == _direct_report("tlb", nq, verify.ALL_PARTS,
                                    _direct_checks("tlb", nq, mutant))
    failed = [c for c in report["checks"] if not c["commutator_zero"]]
    assert len(failed) == 16
    assert all(c["residual_terms"] and c["residual"] for c in failed)
    # a first-order change to I_11 leaves a residual with momenta in the
    # trace identity, which the carrying back must conjugate too
    mutant = [row[:] for row in tensor]
    mutant[0][0] = tensor[0][0] + parse("hbar*lambda*q1*p1/D", nq)
    report = verify_theorem("tlb", nq, fradkin=mutant).to_json()
    assert report == _direct_report("tlb", nq, verify.ALL_PARTS,
                                    _direct_checks("tlb", nq, mutant))
    trace, = [c for c in report["checks"] if c["rhs"] == "(1/2) sum_i I_ii"]
    assert "p1" in trace["residual"]


# a rational phase-space point at N = 3, lambda = 1/50, omega = 1
POINT = (
    [Fraction(k + 2, 7) for k in range(3)],
    [Fraction(3 - 2 * k, 5) for k in range(3)],
    Fraction(1, 50),
    Fraction(1),
)


def _classical_symbol(op):
    """The hbar = 0 part of a normal-ordered operator, as an operator."""
    ih = Poly.idx_hbar(op.nq)
    out = OperatorExpr(op.nq)
    for alpha, c in op.terms.items():
        out._put(alpha, Coefficient(c.num.substitute_zero(ih), c.dpow))
    return out


def _hbar_one_symbol(op, q, p, lam, omega):
    """The hbar^1 coefficient of the normal-ordered symbol of op at (q, p)."""
    ih = Poly.idx_hbar(op.nq)
    return sum(
        Coefficient(c.num.diff(ih), c.dpow).eval((*q, lam, omega, 0))
        * prod(x**k for x, k in zip(p, alpha))
        for alpha, c in op.terms.items()
    )


@pytest.mark.parametrize("flavor", ["schrodinger", "tlb", "tpdm"])
def test_commutator_hbar_one_symbol_is_i_times_poisson_bracket(flavor):
    # symbol of [A, B] = -i hbar (d_p a d_q b - d_p b d_q a) + O(hbar^2), so a
    # zero commutator implies classical involution of the hbar = 0 symbols
    h = build_hamiltonian(flavor, 3)
    fradkin = build_fradkin(flavor, 3)
    for a, b, zero in ((fradkin[0][0], fradkin[0][1], False), (h, fradkin[0][1], True)):
        ga, gb = symbol_gradients([a, b], *POINT)
        bracket = sum(ga[i] * gb[3 + i] - ga[3 + i] * gb[i] for i in range(3))
        assert (bracket == 0) == zero
        minus_i = Coefficient(Poly.constant(3, 0, -1))
        assert _hbar_one_symbol(a.commutator(b).scale(minus_i), *POINT) == bracket


def test_classical_symbols_agree_across_flavors():
    # why the classical certificate may read the schrodinger operators
    for nq in (2, 3):
        h = build_hamiltonian("schrodinger", nq)
        base = build_fradkin("schrodinger", nq)
        assert _classical_symbol(h) == h
        for flavor in ("tlb", "tpdm"):
            assert _classical_symbol(build_hamiltonian(flavor, nq)) == h
            fradkin = build_fradkin(flavor, nq)
            for i in range(nq):
                for j in range(i, nq):
                    assert _classical_symbol(fradkin[i][j]) == _classical_symbol(base[i][j])
