"""Tour of the three metric families and their fiberwise calculus.

Builds a Riemannian, a Randers, and a conformal metric on the flat 2-torus,
then walks through the operations everything else is built on: forward norm,
dual norm (with its brute-force support-function check), Legendre transform
and its inverse, quasireversibility, bi-Lipschitz ratios, and the
admissibility check every operation makes.
"""

import numpy as np

from fspec import (ConformalMetric, IllPosedMetricError, RandersMetric,
                   RiemannianMetric, bilipschitz_ratio, check_strong_convexity,
                   dual_norm_sampled, quasireversibility)

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

print("\n== dual norms: closed form vs support-function sampling")
p = np.array([0.7, -0.4])
for name, spec in [("riemannian", riemann), ("randers", randers),
                   ("conformal", conformal)]:
    closed = float(spec.dual(x, y, p))
    sampled = float(dual_norm_sampled(spec, x, y, p, n_directions=50_000))
    print(f"  {name:10s}: F*(p) = {closed:.12f}, oracle gap = "
          f"{abs(closed - sampled):.2e}")

print("\n== Legendre transform and its inverse")
for name, spec in [("riemannian", riemann), ("randers", randers)]:
    u = v / float(spec.value(x, y, v))          # F-unit vector
    cov = spec.legendre(x, y, u)
    back = spec.dual_gradient(x, y, cov)
    print(f"  {name:10s}: p(v) = {float(cov @ u):.12f} (unit), "
          f"F*(p) = {float(spec.dual(x, y, cov)):.12f} (unit), "
          f"round-trip gap = {float(np.abs(back - u).max()):.2e}")

print("\n== coarse geometric constants")
print(f"  quasireversibility of the Randers metric: "
      f"{quasireversibility(randers):.6f}  (closed form (1+eta)/(1-eta) = "
      f"{(1 + eta) / (1 - eta):.6f})")
lo, hi = bilipschitz_ratio(randers, riemann)
print(f"  F/F0 against the Riemannian base: [{lo:.6f}, {hi:.6f}] "
      f"(= [1 - eta, 1 + eta])")
print(f"  strong convexity of admissible Randers: "
      f"{check_strong_convexity(randers, x, y)}")
bad = RandersMetric(RiemannianMetric.euclidean(), 1.05, 0.0)
try:
    bad.value(x, y, v)
except IllPosedMetricError as exc:
    print(f"  |rho| = 1.05 (inadmissible): IllPosedMetricError: {exc}")
