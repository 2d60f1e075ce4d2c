"""Bi-Lipschitz metrics sound alike: eigenvalue ratios under a computable bound.

If two metrics are pointwise comparable, their energies and volumes are too,
and the Min-Max principle squeezes every eigenvalue ratio between computable
symbol/volume bounds.  This script compares a drifted torus against its
Riemannian base and against a rescaled copy, and also exercises the
weighted-Laplacian comparison with the symbol metric.
"""

import numpy as np

from fspec import (ExperimentConfig, RandersMetric, SymbolField, TorusGrid,
                   assemble, run_experiment, solve)

print("== experiment runner: Randers eta = 0.5 vs its Riemannian base")
cfg = ExperimentConfig.from_text("""
kind = bilipschitz-check
metric.type = torus
metric.h = 2
metric.eta = 0.5
reference = base
grid = 48
k = 10
""")
result = run_experiment(cfg)
summary = result.rows[0]
eta = cfg.get("metric.eta")
print(f"  F/F0 in [1 - eta, 1 + eta] = [{1 - eta:.4f}, {1 + eta:.4f}]")
print(f"  computable bound: [1/S', S] = [{1 / summary['S_prime']:.6f}, "
      f"{summary['S']:.6f}]")
for row in result.rows[1:4]:
    print(f"  k = {row['k']}: lambda ratio = {row['ratio']:.6f}")
for verdict in result.verdicts:
    print(f"  [{'PASS' if verdict.passed else 'FAIL'}] {verdict.name}: "
          f"{verdict.detail}")

print("\n== scaling law: doubling the metric quarters the spectrum, exactly")
cfg2 = ExperimentConfig.from_text("""
kind = bilipschitz-check
metric.type = conformal
metric.f = log(2)
metric.base.type = torus
metric.base.h = 2
reference.type = torus
reference.h = 2
grid = 32
k = 6
expect_ratio = 0.25
""")
result2 = run_experiment(cfg2)
ratios = [r["ratio"] for r in result2.rows if r["row_type"] == "eigenvalue"]
print(f"  eigenvalue ratios: min {min(ratios):.15f}, max {max(ratios):.15f}")

print("\n== weighted-Laplacian comparison against the symbol metric")
spec = RandersMetric.axis_drift_torus(2.0, 0.9, profile="0.5 + 0.4*sin(2*pi*y)")
grid = TorusGrid.square(48)
field = SymbolField.compute(spec, grid)
sigma_field = SymbolField(grid=grid, sigma_star=field.sigma_star,
                          mu=field.mu / field.a, fiber_nodes=field.fiber_nodes)
lam_f = solve(assemble(field), 8).values
lam_s = solve(assemble(sigma_field), 8).values
big_c = float(field.a.max() / field.a.min())
print(f"  C = sup a / inf a = {big_c:.4f}")
print("   k   lambda(F)    lambda(sigma)   ratio")
for k in range(1, 9):
    print(f"  {k:2d}   {lam_f[k]:9.4f}   {lam_s[k]:12.4f}   "
          f"{lam_f[k] / lam_s[k]:.4f}")
print(f"  all ratios within [1/C, C]: "
      f"{bool(np.all((lam_f[1:] / lam_s[1:] <= big_c) & (lam_f[1:] / lam_s[1:] >= 1 / big_c)))}")
