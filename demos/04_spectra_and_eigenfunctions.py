"""Quantum spectra: bound states, isospectrality, exact eigenfunctions.

Solves the reduced radial problem on the flattening coordinate, compares the
numeric levels with the closed-form spectrum, checks that three independently
discretized quantizations agree, and probes the closed-form eigenfunctions
with an analytic-derivative residual.
"""

import numpy as np

from darboux3.algebra import FLAVORS
from darboux3.model import ModelParams, continuum_threshold
from darboux3 import spectra as sp

params = ModelParams(dim=3, lam=0.02)

print("=" * 70)
print("1. Bound states vs closed form (N=3, lambda=0.02, l=0)")
print("=" * 70)
report = sp.solve_bound_states(sp.RadialProblem(params, l=0), k=6)
print(f"grid: q_max = {report.problem.grid.q_max:.2f}, M = {report.problem.grid.m}")
print(" n_r   n   E_numeric        E_closed         rel")
for lv in report.levels:
    print(f"  {lv.n_r}    {lv.n:2d}  {lv.e_numeric:.10f}   {lv.e_closed:.10f}   {lv.rel_residual:.1e}")
print(f"threshold = {report.threshold}, {len(report.levels)} trusted levels below "
      f"{1 - sp.THRESHOLD_MARGIN} x threshold\n")

print("=" * 70)
print("2. Isospectrality of three independent discretizations (l=1)")
print("=" * 70)
iso = sp.isospectrality_check(params, l=1, k=6)
print(" n_r  " + "".join(f"{fl:<20s}" for fl in FLAVORS))
for n_r in range(6):
    row = f"  {n_r}   "
    for fl in FLAVORS:
        row += f"{iso['levels'][fl][n_r]:<20.12f}"
    print(row)
print(f"max pairwise relative deviation: {iso['max_pairwise_rel']:.2e}\n")

print("=" * 70)
print("3. Closed-form eigenfunctions and their residual")
print("=" * 70)
rng = np.random.default_rng(0)
for partition in ((0, 0, 0), (1, 0, 1), (2, 1, 0)):
    ef = sp.CartesianEigenfunction(params, partition, "tlb")
    pts = sp.sample_points_avoiding_nodes(ef, rng, 100)
    res = sp.residual_check(ef, pts)
    print(f"partition {partition}: n={ef.n}, E_n={ef.energy:.6f}, "
          f"beta={ef.beta:.6f}, residual={res:.2e}")
bad = sp.residual_check(ef, pts, energy_override=ef.energy * 1.01)
print(f"corrupting E_n by 1% blows the residual up to {bad:.2e}\n")

print("=" * 70)
print("4. Degeneracy census: Cartesian partitions vs radial towers")
print("=" * 70)
print("  n   C(n+N-1, N-1)   sum over (l, n_r)")
for n in range(7):
    res = sp.degeneracy_census(params, n)
    print(f"  {n}   {res['cartesian']:8d}        {res['radial']:8d}")
print()

print("=" * 70)
print("5. Spectrum accumulates at the threshold as the box grows")
print("=" * 70)
for stage in sp.threshold_accumulation(params, l=0, doublings=3):
    print(f"q_max = {stage['q_max']:7.1f}: {stage['count_below_threshold']:3d} levels "
          f"below {continuum_threshold(params)}, top resolved = {stage['top_resolved']:.3f}, "
          f"gaps decreasing: {stage['gaps_decreasing']}")
print()

print("=" * 70)
print("6. Flavor wave functions from one reduced eigenvector")
print("=" * 70)
r, phis, rep = sp.radial_wavefunctions(sp.RadialProblem(params, l=0), k=1)
d = 1.0 + params.lam * r * r
ratio = phis["tpdm"][0] / phis["tlb"][0]
print("Phi_tpdm / Phi_tlb == D^(N/4):",
      bool(np.allclose(ratio, d ** (params.dim / 4.0))))
mid = len(r) // 3
print(f"sample: r={r[mid]:.3f}, Phi={phis['schrodinger'][0][mid]:.6e}, "
      f"Phi_tlb={phis['tlb'][0][mid]:.6e}, Phi_tpdm={phis['tpdm'][0][mid]:.6e}")
