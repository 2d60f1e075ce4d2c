"""Tour of the three metric families and their fiberwise calculus.

Builds a Riemannian, a Randers, and a conformal metric on the flat 2-torus,
then walks through the operations everything else is built on: forward norm,
dual norm, Legendre transform and its inverse, the closed-form
quasireversibility and bi-Lipschitz ratios of the drifted torus, and the
admissibility check every operation makes.
"""

import numpy as np

from fspec import (ConformalMetric, IllPosedMetricError, RandersMetric,
                   RiemannianMetric)

h, eta = 2.0, 0.6
riemann = RiemannianMetric.stretched(h)            # diag(h^2, 1/h^2), unit area
randers = RandersMetric.axis_drift_torus(h, eta)   # adds the drift eta*h dx
conformal = ConformalMetric(randers, "0.3*sin(2*pi*x)")

x, y = 0.3, 0.7
v = np.array([1.0, 0.0])

print("== forward norms at (0.3, 0.7), v = (1, 0)")
print(f"  riemannian : F = {float(riemann.value(x, y, v)):.6f}   (= h)")
print(f"  randers    : F = {float(randers.value(x, y, v)):.6f}   (= h (1 + eta))")
print(f"  conformal  : F = {float(conformal.value(x, y, v)):.6f}")
print(f"  reversed v : randers F(-v) = {float(randers.value(x, y, -v)):.6f}"
      f"   (= h (1 - eta), the drift is one-way)")

print("\n== dual norms (closed-form support function)")
p = np.array([0.7, -0.4])
for name, spec in [("riemannian", riemann), ("randers", randers),
                   ("conformal", conformal)]:
    print(f"  {name:10s}: F*(p) = {float(spec.dual(x, y, p)):.12f}")

print("\n== Legendre transform and its inverse")
for name, spec in [("riemannian", riemann), ("randers", randers)]:
    u = v / float(spec.value(x, y, v))          # F-unit vector
    cov = spec.legendre(x, y, u)
    back = spec.dual_gradient(x, y, cov)
    print(f"  {name:10s}: p(v) = {float(cov @ u):.12f} (unit), "
          f"F*(p) = {float(spec.dual(x, y, cov)):.12f} (unit), "
          f"round-trip gap = {float(np.abs(back - u).max()):.2e}")

print("\n== coarse geometric constants (closed forms of the drifted torus)")
print(f"  quasireversibility of the Randers metric: q = (1+eta)/(1-eta) = "
      f"{(1 + eta) / (1 - eta):.6f}")
print(f"  F/F0 against the Riemannian base: [1 - eta, 1 + eta] = "
      f"[{1 - eta:.6f}, {1 + eta:.6f}]")
bad = RandersMetric(RiemannianMetric.euclidean(), 1.05, 0.0)
try:
    bad.value(x, y, v)
except IllPosedMetricError as exc:
    print(f"  |rho| = 1.05 (inadmissible): IllPosedMetricError: {exc}")
