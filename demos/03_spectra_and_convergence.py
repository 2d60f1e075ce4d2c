"""Assembling and solving the weighted-Laplacian eigenproblem.

Flux-form stiffness + diagonal mass on a periodic grid; the spectrum of the
flat and drifted torus against the exact Fourier oracle, Rayleigh quotients
f'Kf / f'Mf of trial functions, and a grid-refinement study showing
second-order convergence, run as the config-driven ``convergence``
experiment.
"""

import numpy as np

from fspec import (ExperimentConfig, RandersMetric, RiemannianMetric,
                   SymbolField, TorusGrid, assemble, fourier_oracle,
                   randers_axis_symbol, run_experiment, solve)

NODES = 256  # the fiber oracle's trapezoid rule
FOUR_PI2 = 4 * np.pi**2

print("== flat torus, N = 64")
field = SymbolField.compute(RiemannianMetric.euclidean(), TorusGrid.square(64),
                            NODES)
problem = assemble(field)
spectrum = solve(problem, 5)
print(f"  lambda_0..5 / 4pi^2 : "
      + ", ".join(f"{v / FOUR_PI2:.6f}" for v in spectrum.values))
print(f"  max residual ||Ku - lambda Mu||/||Mu|| = "
      f"{float(spectrum.residuals.max()):.2e}")

print("\n== drifted torus vs Fourier oracle (constant coefficients)")
h, eta = 2.0, 0.6
spec = RandersMetric.axis_drift_torus(h, eta)
A, B = randers_axis_symbol(h, 1 / h, eta)
field = SymbolField.compute(spec, TorusGrid.square(64), NODES)
problem = assemble(field)
got = solve(problem, 8).values
want = fourier_oracle(np.diag([A, B]), 8)
print("   k   solver        oracle        rel gap")
for k in range(1, 9):
    print(f"  {k:2d}   {got[k]:10.4f}   {want[k]:10.4f}   "
          f"{abs(got[k] - want[k]) / want[k]:.2e}")

print("\n== Rayleigh quotients of explicit trial functions")
x, y = field.grid.mesh()
for label, f, target in [
        ("sin 2 pi x", np.broadcast_to(np.sin(2 * np.pi * x), (64, 64)),
         FOUR_PI2 * A),
        ("sin 2 pi y", np.broadcast_to(np.sin(2 * np.pi * y), (64, 64)),
         FOUR_PI2 * B)]:
    f = f.ravel()
    got_r = (f @ (problem.K @ f)) / (f @ (problem.M @ f))
    print(f"  R({label}) = {got_r:10.4f}  vs 4 pi^2 (A or B) = {target:10.4f}")

print("\n== convergence study (errors shrink 4x per grid doubling)")
report = run_experiment(ExperimentConfig.from_text(
    "kind = convergence\nmetric.type = riemannian\n"
    "grids = 16, 32, 64, 128\nk = 1\n"))
print("    N    lambda_1      error        order")
for row in report.rows:
    order = row["order_lambda1"]
    print(f"  {row['n']:4d}   {row['lambda1']:.6f}   "
          f"{row['error_lambda1']:.3e}   "
          + (f"{order:.3f}" if order else "  -  "))
