"""The three fields behind the spectral problem: mu, sigma*, and the weight a.

The discrete operator takes them from a closed form; this script also
computes them by quadrature on the dual direction circle, the oracle route
the closed form is checked against: ``SymbolField.compute(spec, grid,
NODES)`` runs the equal-weight trapezoid rule of NODES nodes, and
``SymbolField.compute(spec, grid)`` the closed form.  It shows the
Riemannian reductions (mu = sqrt(det g), sigma* = g^{-1}, a = 1), the
Randers volume identity (drift never changes the volume), the closed-form
symbol of the drifted torus, and the closed-form Binet-Legendre metric with
its bi-Lipschitz bounds.
"""

import numpy as np

from fspec import (RandersMetric, RiemannianMetric, SymbolField, TorusGrid,
                   binet_legendre,
                   randers_angular_closed_forms, randers_angular_integrals,
                   randers_axis_symbol)

NODES = 512
grid = TorusGrid.square(16)


def gap(spec):
    """Largest |rule - closed form| of mu and of sigma* over the grid."""
    rule = SymbolField.compute(spec, grid, NODES)
    closed = SymbolField.compute(spec, grid)
    return (float(np.abs(rule.mu - closed.mu).max()),
            float(np.abs(rule.sigma_star - closed.sigma_star).max()), rule)


print("== Riemannian reduction")
g = RiemannianMetric(3.0, 0.7, 2.0)
mu_gap, sig_gap, rule = gap(g)
print(f"  mu = {float(rule.mu[0, 0]):.12f} vs sqrt(det g) = "
      f"{np.sqrt(3 * 2 - 0.7**2):.12f}")
g_inv = np.array([[2.0, -0.7], [-0.7, 3.0]]) / (3.0 * 2.0 - 0.7 * 0.7)
print(f"  |sigma* - g^-1| = {float(np.abs(rule.sigma_star - g_inv).max()):.2e}, "
      f"|a - 1| = {float(np.abs(rule.a - 1.0).max()):.2e}")
print(f"  rule vs closed form: mu gap {mu_gap:.1e}, sigma* gap {sig_gap:.1e}")

print("\n== Randers volume identity (mu ignores the drift)")
spec = RandersMetric.axis_drift_torus(2.0, 0.9, profile="0.5 + 0.4*sin(2*pi*y)")
mu_r = SymbolField.compute(spec, grid, NODES).mu
mu_0 = SymbolField.compute(spec.base, grid, NODES).mu
print(f"  max |mu_randers - mu_base| over the grid = "
      f"{float(np.abs(mu_r - mu_0).max()):.2e}")

print("\n== drifted-torus symbol: quadrature vs closed forms")
h, eta = 2.0, 0.6
torus = RandersMetric.axis_drift_torus(h, eta)
A, B = randers_axis_symbol(h, 1 / h, eta)
sig = SymbolField.compute(torus, grid, NODES).sigma_star[0, 0]
print(f"  closed form: A = {A:.12f}, B = {B:.12f}")
print(f"  quadrature : {sig[0, 0]:.12f}, {sig[1, 1]:.12f} "
      f"(cross {sig[0, 1]:+.1e})")
c2, cross, s2 = randers_angular_integrals(eta, NODES)
c2x, _, s2x = randers_angular_closed_forms(eta)
print(f"  angular integrals: cos^2 gap {abs(c2 - c2x):.1e}, "
      f"sin^2 gap {abs(s2 - s2x):.1e}, cross term {cross:+.1e}")

print("\n== assembled field on a grid (with the weight a = mu sqrt(det sigma*))")
mu_gap, sig_gap, field = gap(spec)
print(f"  rule of {field.fiber_nodes} nodes vs closed form: mu gap "
      f"{mu_gap:.1e}, sigma* gap {sig_gap:.1e}")
print(f"  total volume = {field.total_volume():.12f} (Riemannian volume h r = 1)")
print(f"  weight a ranges [{field.a.min():.6f}, {field.a.max():.6f}] "
      f"(non-constant drift makes the operator a weighted Laplacian)")

print("\n== Binet-Legendre averaged metric (closed form)")
x, y = 0.25, 0.6
bl = binet_legendre(torus, x, y)
c = (1 + eta) / (1 - eta)  # the torus's quasireversibility, in closed form
rng = np.random.default_rng(0)
vs = rng.normal(size=(2000, 2))
ratio = torus.value(x, y, vs) / np.sqrt(np.einsum("ij,ki,kj->k", bl, vs, vs))
print(f"  g_BL = [[{bl[0, 0]:.6f}, {bl[0, 1]:.6f}], "
      f"[{bl[1, 0]:.6f}, {bl[1, 1]:.6f}]]")
print(f"  F/sqrt(g_BL) over 2000 directions: [{ratio.min():.4f}, "
      f"{ratio.max():.4f}], bound [(2c)^-3, (2c)^3] with c = {c:.3f}")
