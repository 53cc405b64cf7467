"""Classical dynamics: conserved quantities, closed orbits, independence.

Integrates random bounded initial data of the deformed oscillator, watches
the full invariant family stay constant, measures the global error against the
closed-form trajectory, checks that the orbit closes after the closed-form
period T(H), and counts functionally independent invariants by the exact
Jacobian rank.
"""

import numpy as np

from darboux3.model import ModelParams, continuum_threshold
from darboux3 import classical as cl

params = ModelParams(dim=3, lam=0.02)
rng = np.random.default_rng(7)

print("=" * 70)
print("1. A bounded orbit and its invariant drift (t in [0, 100], tol 1e-10)")
print("=" * 70)
state = cl.random_state(params, rng)
energy = cl.classical_hamiltonian(params, state)
print(f"initial energy H = {energy:.6f} < threshold {continuum_threshold(params)}")
record = cl.integrate(params, state, 100.0, tolerance=1e-10)
for name, drift in sorted(record.drift.items()):
    print(f"  {name:7s} drift = {drift:.3e}")
print(f"max drift = {record.max_drift:.3e}")
print(f"global error against the closed form = {record.global_error:.3e}\n")

print("=" * 70)
print("2. Orbit closure (superintegrability makes every bounded orbit periodic)")
print("=" * 70)
# integrate carries its one solve on to 1.01 T, where the closure is read
closure = cl.orbit_closure(params, state, cl.integrate(params, state, 1.0, tolerance=1e-12))
print(f"closed-form period T(H) = {closure['period']:.10f}")
print(f"measured return time   = {closure['period_measured']:.10f}")
print(f"closure distance |z(T) - z0| = {closure['closure_distance']:.3e}")
flat_state = cl.PhaseState(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 1.0, 0.0]))
flat_params = ModelParams(dim=3, lam=0.0)
flat = cl.orbit_closure(flat_params, flat_state,
                        cl.integrate(flat_params, flat_state, 1.0, tolerance=1e-12))
print(f"flat-limit measured period {flat['period_measured']:.10f} vs 2*pi = {2*np.pi:.10f}\n")

print("=" * 70)
print("3. Unbounded motion above the threshold")
print("=" * 70)
fast = cl.PhaseState(q=np.array([0.1, 0.0, 0.0]), p=np.array([8.0, 0.5, 0.0]))
print(f"H = {cl.classical_hamiltonian(params, fast):.3f} > {continuum_threshold(params)}")
rec = cl.integrate(params, fast, 50.0, tolerance=1e-9)
radii = [np.linalg.norm(s.q) for s in rec.samples]
print(f"|q| grows without bound: r(0)={radii[0]:.2f} -> r(50)={radii[-1]:.2f}\n")

print("=" * 70)
print("4. Poisson brackets with H vanish (exact, at the rational point of the state)")
print("=" * 70)
for name in cl.invariant_names(3):
    if name == "H":
        continue
    pb = cl.poisson_bracket_with_h(params, name, state)
    print(f"  {{H, {name:7s}}} = {pb:+.3e}")
print()

print("=" * 70)
print("5. Functional independence: Jacobian ranks")
print("=" * 70)
rank_full = cl.independence_rank(params, state)
print(f"full family {cl.independence_names(3)}:")
print(f"  rank = {rank_full} (2N-1 = 5)")
involutive = ["H", "C_(2)", "C^(3)"]
print(f"involutive set {involutive}:")
print(f"  rank = {cl.independence_rank(params, state, names=involutive)} (N = 3)\n")

print("=" * 70)
print("6. Radial reduction sanity")
print("=" * 70)
r = np.linalg.norm(state.q)
p_r = (state.q @ state.p) / r  # radial momentum q.p/|q|
lsq = cl.classical_invariants(params, state)["C^(3)"]  # L^2 = C^(N)
print(f"p^2 == p_r^2 + C^(N)/r^2 : {state.p @ state.p:.12f} == {p_r**2 + lsq/r**2:.12f}")
print(f"triple Hamiltonian equality holds: {cl.radial_reduction_check(params, state)}")
