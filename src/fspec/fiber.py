"""Symbol fields: the closed form, and fiber-circle quadrature as its oracle.

For every supported metric F = exp(f) (sqrt(g) + rho) (rho = 0: Riemannian;
f = 0: pure Randers; nested conformal exponents add up) the per-point fields
of the spectral problem are, with b = g^-1 rho and s = sqrt(1 - |rho|_{g*}^2),

    mu(x)        = e^{2f} sqrt(det g)
    sigma*(x)    = e^{-2f} [ 2/(1+s) g^-1 + 2/(s (1+s)^2) b b' ]
    a(x)         = mu(x) sqrt(det sigma*(x))

The generic route, which the closed form is checked against, integrates on
the dual direction circle.  Writing p_hat(phi) = (cos phi, sin phi) for the
Euclidean-unit covector in direction phi,

    mu(x)        = (1/2pi) Int  F*(x, p_hat)^(-2) dphi
    sigma*[p,p]  = (1/(pi mu(x))) Int  F*(x, p_hat)^(-2) (p . v(phi))^2 dphi

where v(phi) = grad_p F*(x, p_hat(phi)) is the forward-unit vector whose
Legendre image points in direction phi.  The measure F*^(-2) dphi is the
push-forward of the canonical fiber angle measure to the dual circle, so mu
is the density of the Holmes-Thompson volume against dx dy and the fiber
density (1/mu) F*^(-2) integrates to exactly 2 pi at every point.

Both integrals come from one metric evaluation on the fiber
(``_fiber_symbol``): grad = F* grad_p F* = spec.dual_gradient(p_hat).
Euler's identity for the 1-homogeneous F* gives F*^2 = p_hat . grad and
v = grad / F*, so the integrands are F*^-2 and F*^-4 (p . grad)^2.
``volume_density`` takes F* from spec.dual instead, an independent route to
the same mu.  The integrands are smooth and periodic, so the
trapezoid rule converges geometrically; drifts near |rho| = 1 sharpen them,
which the adaptive doubling in ``resolve_fiber_nodes`` absorbs up to its
cap, past which it raises QuadratureError.

The tangent-circle energy ``randers_energy_direct`` pairs df and rho with
the g-orthonormal circle through the Cholesky factor of g, one cos and one
sin coefficient per node, without forming the circle's direction vectors.

Every fiber oracle (``volume_density``, ``symbol_matrix``, the rule branch
of ``SymbolField.compute``, ``binet_legendre``, ``randers_energy_direct``
and the probe of ``resolve_fiber_nodes``) is a per-node kernel run by one
loop, ``_over_nodes``, over blocks of about _BLOCK node x fiber pairs, so
its fiber temporaries stay bounded on any grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid
from .metrics import (ConformalMetric, IllPosedMetricError, RandersMetric,
                      RiemannianMetric, _apply_form, _eigen_extremes, _inverse,
                      _pair, _symmetric, base_metric)

_TWO_PI = 2.0 * np.pi

# Node x fiber pairs per block of a grid-wide fiber rule; bounds the fiber
# temporaries to a few MiB each.
_BLOCK = 2**18

# F* below this on any fiber node means the metric degenerated numerically.
_DUAL_FLOOR = 1e-8
_COLLAPSED = ("dual norm collapsed below 1e-8 on the fiber; "
              "the metric is numerically degenerate")


class QuadratureError(RuntimeError):
    """A fiber integral failed to resolve (e.g. produced a non-SPD symbol)."""


@dataclass(frozen=True, eq=False)
class FiberQuadrature:
    """Node/weight rule on the direction circle; weights sum to 2 pi."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(self.weights.sum()) - _TWO_PI) > 1e-12:
            raise ValueError("quadrature weights must sum to 2 pi")

    @classmethod
    def trapezoid(cls, n):
        """Equal-weight rule at angles 2 pi j / n (spectrally accurate on the circle)."""
        n = int(n)
        if n < 16:
            raise ValueError("fiber quadrature needs at least 16 nodes")
        phi = _TWO_PI * np.arange(n) / n
        return cls(nodes=phi, weights=np.full(n, _TWO_PI / n))

    @property
    def size(self):
        return self.nodes.size

    def unit_covectors(self):
        return np.stack([np.cos(self.nodes), np.sin(self.nodes)], axis=-1)


def _over_nodes(kernel, x, y, fiber_size):
    """Per-node arrays of kernel over the broadcast nodes of (x, y).

    kernel(xs, ys) takes (m, 1) columns of node coordinates, m about
    _BLOCK / fiber_size so its node x fiber temporaries stay bounded, and
    returns a tuple of arrays whose leading axis runs over those m nodes.
    Each comes back in the broadcast shape of (x, y) followed by its own
    trailing axes: a scalar or a (2, 2) matrix for scalar input.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    xs, ys = x.reshape(-1, 1), y.reshape(-1, 1)
    step = max(1, _BLOCK // fiber_size)
    out = None
    for lo in range(0, xs.shape[0], step):
        parts = kernel(xs[lo:lo + step], ys[lo:lo + step])
        if out is None:
            out = [np.empty(xs.shape[:1] + part.shape[1:]) for part in parts]
        for whole, part in zip(out, parts):
            whole[lo:lo + step] = part
    return tuple(whole.reshape(x.shape + whole.shape[1:])[()] for whole in out)


def volume_density(spec, x, y, quad):
    """Holmes-Thompson density mu(x) of the metric's volume against dx dy."""
    p = quad.unit_covectors()

    def density(xs, ys):
        dual = spec.dual(xs, ys, p)
        if np.any(dual < _DUAL_FLOOR):
            raise IllPosedMetricError(_COLLAPSED)
        return ((quad.weights / dual**2).sum(axis=-1) / _TWO_PI,)

    return _over_nodes(density, x, y, quad.size)[0]


def _fiber_symbol(spec, x, y, quad):
    """(sigma*, mu) on the fiber (module docstring) from one metric evaluation.

    grad = spec.dual_gradient(p_hat) = F* grad_p F* is the only call per
    block of nodes; Euler's identity for the 1-homogeneous F* gives
    F*^2 = p_hat . grad, and v = grad / F*.  Raises IllPosedMetricError if F*
    falls below _DUAL_FLOOR on a fiber node, and QuadratureError if sigma*
    fails to be SPD, which signals an under-resolved fiber rule.
    """
    p = quad.unit_covectors()

    def moments(xs, ys):
        grad = spec.dual_gradient(xs, ys, p)
        dual_sq = _pair(p, grad)
        if not np.all(dual_sq >= _DUAL_FLOOR**2):
            raise IllPosedMetricError(_COLLAPSED)
        g1, g2 = grad[..., 0], grad[..., 1]
        # density = w F*^-2 and v = grad / F*, so density v v' = w grad grad' F*^-4
        density = quad.weights / dual_sq
        mu = density.sum(axis=-1) / _TWO_PI
        moment = density / dual_sq
        norm = np.pi * mu
        return ((moment * g1 * g1).sum(axis=-1) / norm,
                (moment * g1 * g2).sum(axis=-1) / norm,
                (moment * g2 * g2).sum(axis=-1) / norm, mu)

    s11, s12, s22, mu = _over_nodes(moments, x, y, quad.size)
    if np.any(s11 <= 0.0) or np.any(s11 * s22 - s12 * s12 <= 0.0):
        raise QuadratureError("assembled symbol is not positive-definite; "
                              "raise the fiber node count")
    return _symmetric(s11, s12, s22), mu


def symbol_matrix(spec, x, y, quad):
    """Dual quadratic form sigma*(x) of the averaged second-order operator.

    Raises QuadratureError if it fails to be SPD, which signals an
    under-resolved fiber rule.
    """
    return _fiber_symbol(spec, x, y, quad)[0]


def weight(sigma_star, mu):
    """Drift weight a = mu sqrt(det sigma*), the density of the metric volume
    against the Riemannian volume of the symbol metric."""
    sigma_star = np.asarray(sigma_star, dtype=float)
    det = (sigma_star[..., 0, 0] * sigma_star[..., 1, 1]
           - sigma_star[..., 0, 1] * sigma_star[..., 1, 0])
    return np.asarray(mu) * np.sqrt(det)


def conformal_transform(sigma_star, mu, f_value):
    """Rescale a symbol/density pair under F -> exp(f) F on a surface:
    sigma* picks up exp(-2f), mu picks up exp(+2f)."""
    f_value = np.asarray(f_value, dtype=float)
    scale = np.exp(2.0 * f_value)
    return sigma_star / scale[..., None, None], np.asarray(mu) * scale


# ---------------------------------------------------------------------------
# Randers closed forms
# ---------------------------------------------------------------------------

def randers_axis_symbol(h, r, eta):
    """Closed-form symbol entries for the flat torus diag(h^2, r^2) with
    constant drift eta*h dx:

        A = 2 h^-2 / ((1 + s) s),   B = 2 r^-2 / (1 + s),   s = sqrt(1 - eta^2)

    Reduces to (h^-2, r^-2) at eta = 0 and must agree with symbol_matrix on
    the same data to quadrature tolerance.
    """
    h = float(h)
    r = float(r)
    eta = float(eta)
    if h <= 0.0 or r <= 0.0:
        raise ValueError("axis lengths must be positive")
    if not 0.0 <= eta < 1.0:
        raise IllPosedMetricError("Randers drift ratio must satisfy 0 <= eta < 1")
    s = np.sqrt(1.0 - eta * eta)
    return 2.0 / (h * h * (1.0 + s) * s), 2.0 / (r * r * (1.0 + s))


def randers_angular_integrals(eta, n_nodes=512):
    """Trapezoid values of the three drift-averaged angular integrals

        Int cos^2 / (1 + eta cos),  Int 2 cos sin / (1 + eta cos),
        Int sin^2 / (1 + eta cos)      over [0, 2pi).
    """
    eta = float(eta)
    if not 0.0 <= eta < 1.0:
        raise IllPosedMetricError("Randers drift ratio must satisfy 0 <= eta < 1")
    theta = _TWO_PI * np.arange(int(n_nodes)) / int(n_nodes)
    w = _TWO_PI / int(n_nodes)
    den = 1.0 + eta * np.cos(theta)
    c2 = float((np.cos(theta) ** 2 / den).sum() * w)
    cs = float((2.0 * np.cos(theta) * np.sin(theta) / den).sum() * w)
    s2 = float((np.sin(theta) ** 2 / den).sum() * w)
    return c2, cs, s2


def randers_angular_closed_forms(eta):
    """Exact values of the integrals above: (2pi/((1+s)s), 0, 2pi/(1+s))."""
    eta = float(eta)
    s = np.sqrt(1.0 - eta * eta)
    return _TWO_PI / ((1.0 + s) * s), 0.0, _TWO_PI / (1.0 + s)


# ---------------------------------------------------------------------------
# Binet-Legendre averaging
# ---------------------------------------------------------------------------

def binet_legendre(spec, x, y, quad):
    """Averaged Riemannian metric from second moments of the forward unit ball.

    The dual form is (n+2)/vol(B) * Int_B p(v) q(v) dv over the F-unit ball,
    evaluated in polar form: fiber nodes for the angle, and the exact radial
    moments Int_0^R t dt = R^2/2 and Int_0^R t^3 dt = R^4/4 up to
    R(theta) = 1/F(x, u(theta)).  Affine invariance makes the result equal g
    itself for Riemannian input; in general the metric is bi-Lipschitz to F
    with constants controlled by the quasireversibility.
    """
    u = quad.unit_covectors()  # tangent directions this time

    def moments(xs, ys):
        fv = spec.value(xs, ys, u)
        if np.any(fv < _DUAL_FLOOR):
            raise IllPosedMetricError("forward norm collapsed on the unit circle")
        r2 = fv**-2
        r4 = r2 * r2
        area = (quad.weights * r2).sum(axis=-1) * 0.5
        n11 = (quad.weights * r4 * u[..., 0] ** 2).sum(axis=-1) * 0.25
        n12 = (quad.weights * r4 * u[..., 0] * u[..., 1]).sum(axis=-1) * 0.25
        n22 = (quad.weights * r4 * u[..., 1] ** 2).sum(axis=-1) * 0.25
        return 4.0 * n11 / area, 4.0 * n12 / area, 4.0 * n22 / area

    d11, d12, d22 = _over_nodes(moments, x, y, quad.size)
    det = d11 * d22 - d12 * d12
    if np.any(det <= 0.0):
        raise QuadratureError("Binet-Legendre dual form is not positive-definite")
    return _inverse(d11, d12, d22, det)


# ---------------------------------------------------------------------------
# Field assembly over a grid
# ---------------------------------------------------------------------------

def resolve_fiber_nodes(spec, start=256, cap=4096, tol=1e-10, probe=8):
    """Double the trapezoid node count until mu and sigma* both stabilize.

    On an evenly spaced probe x probe point set, returns the first rule whose
    doubling changed mu by less than tol and sigma* by less than tol times its
    largest entry at each point; raises QuadratureError if none up to the cap
    does.
    """
    t = np.arange(probe) / probe
    xs, ys = t[:, None], t[None, :]

    n = max(int(start), 16)
    sig_prev, mu_prev = _fiber_symbol(spec, xs, ys, FiberQuadrature.trapezoid(n))
    change = np.inf
    while n < cap:
        n *= 2
        quad = FiberQuadrature.trapezoid(n)
        sig, mu = _fiber_symbol(spec, xs, ys, quad)
        sig_change = (np.abs(sig - sig_prev).max(axis=(-2, -1))
                      / np.abs(sig).max(axis=(-2, -1)))
        change = max(np.abs(mu - mu_prev).max(), sig_change.max())
        if change < tol:
            return quad
        mu_prev, sig_prev = mu, sig
    raise QuadratureError(f"fiber rule did not settle by the cap of {cap} nodes: "
                          f"the last doubling changed mu or sigma* by "
                          f"{change:.3e} (tol {tol:g})")


def _closed_form_symbol(spec, x, y):
    """(sigma*, mu) of exp(f) (sqrt(g) + rho) in closed form (module docstring)."""
    f = 0.0
    while isinstance(spec, ConformalMetric):
        f = f + spec.exponent(x, y)
        spec = spec.base
    rho = spec.drift(x, y) if isinstance(spec, RandersMetric) else np.zeros(2)
    base = base_metric(spec)
    if not isinstance(base, RiemannianMetric):
        raise TypeError(f"no closed-form symbol for {type(spec).__name__}; "
                        "pass a FiberQuadrature to integrate it on the fiber")
    g11, g12, g22, det = base._coefficients(x, y)
    gi = _inverse(g11, g12, g22, det)
    b = _apply_form(gi, rho)
    slack = 1.0 - _pair(rho, b)
    if np.any(slack <= 0.0):
        raise IllPosedMetricError("Randers drift reaches |rho|_{g*} >= 1 at a "
                                  "grid node; the metric is not admissible there")
    s = np.sqrt(slack)[..., None, None]
    sigma = (2.0 / (1.0 + s) * gi
             + 2.0 / (s * (1.0 + s) ** 2) * (b[..., :, None] * b[..., None, :]))
    mu = np.sqrt(det)
    return conformal_transform(sigma, mu, f)


@dataclass
class SymbolField:
    """Per-node symbol data on a torus grid: sigma* (SPD), mu > 0, weight a."""

    grid: TorusGrid
    sigma_star: np.ndarray  # (nx, ny, 2, 2)
    mu: np.ndarray          # (nx, ny)
    fiber_nodes: int        # 0 for the closed form

    @classmethod
    def compute(cls, spec, grid, quad=None):
        """Evaluate mu and sigma* at every grid node.

        With no rule: the closed form (module docstring), which raises
        IllPosedMetricError where |rho|_{g*} >= 1 and TypeError for a metric
        outside the three families.  With a FiberQuadrature: the trapezoid
        oracle, one dual_gradient evaluation per block of about _BLOCK node x
        fiber pairs.
        """
        x, y = grid.mesh()
        if quad is None:
            sig, mu = _closed_form_symbol(spec, x, y)
        else:
            sig, mu = _fiber_symbol(spec, x, y, quad)
        return cls(grid=grid, sigma_star=sig, mu=mu,
                   fiber_nodes=0 if quad is None else quad.size)

    @property
    def a(self):
        """Weight a = mu sqrt(det sigma*) at every node (see ``weight``)."""
        return weight(self.sigma_star, self.mu)

    def sigma_min_eigenvalues(self):
        s = self.sigma_star
        return _eigen_extremes(s[..., 0, 0], s[..., 0, 1], s[..., 1, 1])[0]

    def total_volume(self):
        return float(self.mu.sum()) * self.grid.cell_area

    def to_csv(self, path):
        """Flat table (node, sigma11, sigma12, sigma22, mu, a) for inspection."""
        s = self.sigma_star.reshape(-1, 2, 2)
        mu = self.mu.ravel()
        a = self.a.ravel()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "sigma11", "sigma12", "sigma22", "mu", "a"])
            for n in range(mu.size):
                writer.writerow([n,
                                 format(s[n, 0, 0], ".17g"),
                                 format(s[n, 0, 1], ".17g"),
                                 format(s[n, 1, 1], ".17g"),
                                 format(mu[n], ".17g"),
                                 format(a[n], ".17g")])


# ---------------------------------------------------------------------------
# Two-route energies (tangent-side oracle for Randers data)
# ---------------------------------------------------------------------------

def energy_from_symbol(field, grad_fn):
    """Energy Int sigma*(df, df) mu dx dy of an analytic gradient field."""
    x, y = field.grid.mesh()
    df = grad_fn(x, y)
    s = field.sigma_star
    dens = (s[..., 0, 0] * df[..., 0] ** 2
            + 2.0 * s[..., 0, 1] * df[..., 0] * df[..., 1]
            + s[..., 1, 1] * df[..., 1] ** 2) * field.mu
    return float(dens.sum()) * field.grid.cell_area


def randers_energy_direct(spec, grad_fn, grid, quad):
    """Tangent-circle route to the Randers energy, bypassing sigma* entirely:

        E(f) = (1/pi) Int_M [ Int (df . v(t))^2 / (1 + rho(v(t))) dt ] sqrt(det g) dx dy

    with v(t) = cos t e1 + sin t e2 running over the g-orthonormal unit
    circle, e1 and e2 the columns of L'^-1 for the Cholesky factor g = L L'.
    A covector w pairs with v(t) as w1 cos t + w2 sin t, where
    w1 = w_x / l11 and w2 = (w_y - l21 w1) / l22, so no direction array is
    formed, and (df . v)^2 expands into w1^2 cos^2 + 2 w1 w2 cos sin +
    w2^2 sin^2: the inner integral takes three moments of 1 / (1 + rho(v))
    per node, one matrix product.  Agreement with ``energy_from_symbol``
    validates the dual-circle route end to end.
    """
    base = base_metric(spec)
    cos, sin = np.cos(quad.nodes), np.sin(quad.nodes)
    trig = quad.weights[:, None] * np.stack([cos * cos, 2.0 * cos * sin,
                                             sin * sin], axis=-1)

    def density(xs, ys):
        a, b, c, det = base._coefficients(xs, ys)
        l11 = np.sqrt(a)
        l21 = b / l11
        l22 = np.sqrt(c - l21**2)

        def on_circle(w):
            w1 = w[..., 0] / l11
            return w1, (w[..., 1] - l21 * w1) / l22

        r1, r2 = on_circle(spec.drift(xs, ys))
        den = 1.0 + r1 * cos + r2 * sin
        if np.any(den <= 0.0):
            raise IllPosedMetricError("drift exceeds the unit ball on the fiber")
        c2, cs, s2 = np.split((1.0 / den) @ trig, 3, axis=-1)
        w1, w2 = on_circle(grad_fn(xs, ys))
        fiber = w1 * w1 * c2 + w1 * w2 * cs + w2 * w2 * s2
        return ((fiber * np.sqrt(det))[:, 0] / np.pi,)

    dens = _over_nodes(density, *grid.mesh(), quad.size)[0]
    return float(dens.sum()) * grid.cell_area
