"""The three fields behind the spectral problem: mu, sigma*, and the weight a.

The discrete operator takes them from a closed form; this script computes
them by quadrature on the dual direction circle, the oracle route the closed
form is checked against.  It shows the Riemannian reductions (mu = sqrt(det
g), sigma* = g^{-1}, a = 1), the Randers volume identity (drift never changes
the volume), the closed-form symbol of the drifted torus, and the averaged
Binet-Legendre metric with its bi-Lipschitz bounds.
"""

import numpy as np

from fspec import (FiberQuadrature, RandersMetric, RiemannianMetric,
                   SymbolField, TorusGrid, binet_legendre, quasireversibility,
                   randers_angular_closed_forms, randers_angular_integrals,
                   randers_axis_symbol, symbol_matrix, volume_density)

quad = FiberQuadrature.trapezoid(512)
x, y = 0.25, 0.6

print("== Riemannian reduction")
g = RiemannianMetric(3.0, 0.7, 2.0)
mu = float(volume_density(g, x, y, quad))
sig = symbol_matrix(g, x, y, quad)
print(f"  mu = {mu:.12f} vs sqrt(det g) = {np.sqrt(3 * 2 - 0.7**2):.12f}")
print(f"  |sigma* - g^-1| = {float(np.abs(sig - g.inverse_matrix(x, y)).max()):.2e}")

print("\n== Randers volume identity (mu ignores the drift)")
spec = RandersMetric.axis_drift_torus(2.0, 0.9, profile="0.5 + 0.4*sin(2*pi*y)")
for yv in (0.0, 0.25, 0.6):
    mu_r = float(volume_density(spec, x, yv, quad))
    mu_0 = float(volume_density(spec.base, x, yv, quad))
    print(f"  y = {yv:4.2f}: mu_randers - mu_base = {mu_r - mu_0:+.2e}")

print("\n== drifted-torus symbol: quadrature vs closed forms")
h, eta = 2.0, 0.6
torus = RandersMetric.axis_drift_torus(h, eta)
A, B = randers_axis_symbol(h, 1 / h, eta)
sig = symbol_matrix(torus, x, y, quad)
print(f"  closed form: A = {A:.12f}, B = {B:.12f}")
print(f"  quadrature : {sig[0, 0]:.12f}, {sig[1, 1]:.12f} "
      f"(cross {sig[0, 1]:+.1e})")
c2, cross, s2 = randers_angular_integrals(eta, 512)
c2x, _, s2x = randers_angular_closed_forms(eta)
print(f"  angular integrals: cos^2 gap {abs(c2 - c2x):.1e}, "
      f"sin^2 gap {abs(s2 - s2x):.1e}, cross term {cross:+.1e}")

print("\n== assembled field on a grid (with the weight a = mu sqrt(det sigma*))")
field = SymbolField.compute(spec, TorusGrid.square(16), quad)
print(f"  fiber nodes {field.fiber_nodes}, total volume = "
      f"{field.total_volume():.12f} (Riemannian volume h r = 1)")
print(f"  weight a ranges [{field.a.min():.6f}, {field.a.max():.6f}] "
      f"(non-constant drift makes the operator a weighted Laplacian)")
field.to_csv("symbol_field.csv")
print("  wrote symbol_field.csv (node, sigma11, sigma12, sigma22, mu, a)")

print("\n== Binet-Legendre averaged metric")
bl = binet_legendre(torus, x, y, quad)
c = quasireversibility(torus)
rng = np.random.default_rng(0)
vs = rng.normal(size=(2000, 2))
ratio = torus.value(x, y, vs) / np.sqrt(np.einsum("ij,ki,kj->k", bl, vs, vs))
print(f"  g_BL = [[{bl[0, 0]:.6f}, {bl[0, 1]:.6f}], "
      f"[{bl[1, 0]:.6f}, {bl[1, 1]:.6f}]]")
print(f"  F/sqrt(g_BL) over 2000 directions: [{ratio.min():.4f}, "
      f"{ratio.max():.4f}], bound [(2c)^-3, (2c)^3] with c = {c:.3f}")
