"""Exact symbolic verification of the symmetry algebra.

Demonstrates the Weyl-algebra engine: operators are normal-ordered sums of
c(q) * p^alpha with Gaussian-rational coefficients over powers of
D = 1 + lambda*q^2, and every theorem check reduces a commutator to the exact
zero operator with lambda, omega, hbar symbolic.
"""

from fractions import Fraction

from darboux3.algebra import (
    build_angular_invariants,
    build_fradkin,
    build_hamiltonian,
    corrupt_fradkin,
    parse,
    similarity_checks,
    verify_theorem,
)

print("=" * 70)
print("1. Normal ordering at work")
print("=" * 70)
print("q1*p1 - p1*q1        ->", parse("q1*p1 - p1*q1", 2))
print("p1*q1                ->", parse("p1*q1", 2))
print("p1*D^-1              ->", parse("p1*D^-1", 2))
print()

print("=" * 70)
print("2. The three Hamiltonian flavors H_X = D^a H D^(-a) (N=3)")
print("=" * 70)
h = build_hamiltonian("schrodinger", 3)
print("H           =", h)
print()
print("H_tlb - H   =", build_hamiltonian("tlb", 3) - h)
print()
print("H_tpdm - H  =", build_hamiltonian("tpdm", 3) - h)
print()

print("=" * 70)
print("3. Commutators vanish identically (Theorem suite, N=3, all flavors)")
print("=" * 70)
for flavor in ("schrodinger", "tlb", "tpdm"):
    rep = verify_theorem(flavor, 3)
    status = "all zero" if rep.all_zero else "FAILED"
    print(f"{flavor:12s}: {len(rep.checks):3d} checks -> {status}")
print()

print("=" * 70)
print("4. One commutator in detail: [H, I_12] for the direct quantization")
print("=" * 70)
fradkin = build_fradkin("schrodinger", 3)
print("I_12 =", fradkin[0][1])
res = build_hamiltonian("schrodinger", 3).commutator(fradkin[0][1])
print("[H, I_12] =", res)
print()

print("=" * 70)
print("5. Similarity identities and the conformal-potential relation")
print("=" * 70)
for check in similarity_checks(3):
    print(f"{check.lhs:38s} == {check.rhs:38s} {check.commutator_zero}")
print("conformal identity U2 = hbar^2 (N-2) R / (8 (N-1)), N in (2,3,4,5):",
      [c.commutator_zero for n in (2, 3, 4, 5) for c in similarity_checks(n) if c.lhs == "U2"])
print()

print("=" * 70)
print("6. Mutation control: drop omega^2 q1^2 from I_11 and watch it fail")
print("=" * 70)
bad = corrupt_fradkin(build_fradkin("tlb", 3), "I11")
rep = verify_theorem("tlb", 3, parts=("i",), fradkin=bad)
for check in rep.failures()[:2]:
    print(f"{check.lhs}: residual has {check.residual_terms} terms")
    print("  residual =", check.residual[:120], "...")
print()

print("=" * 70)
print("7. Conjugation as a Fradkin-tensor generator")
print("=" * 70)
tlb_direct = build_fradkin("tlb", 3)[0][0]
tlb_conjugated = build_fradkin("schrodinger", 3)[0][0].conjugate_by_d_power(Fraction(-1, 4))
print("I_tlb,11 equals D^(-1/4) I_11 D^(1/4):", tlb_direct == tlb_conjugated)
angular = build_angular_invariants(3)
print("angular observables are conjugation-invariant:",
      angular["C^(2)"].conjugate_by_d_power(Fraction(-1, 4)) == angular["C^(2)"])
