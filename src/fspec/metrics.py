"""Finsler metric families on the flat 2-torus.

Three families, closed under every operation used downstream:

* Riemannian:  F(x, v) = sqrt(v' g(x) v)
* Randers:     F(x, v) = sqrt(v' g(x) v) + rho(x) . v,  with |rho|_{g*} < 1
* Conformal:   F(x, v) = exp(f(x)) F_base(x, v)

Each metric exposes the forward norm, the dual co-norm, the fiberwise
Legendre transform and its inverse gradient map, all vectorized: x and y
broadcast against the leading axes of v or p, whose final axis has length 2.

Duality conventions.  The dual norm is the support function

    F*(x, p) = sup { p(v) : F(x, v) = 1 }.

For a Randers metric, after normalizing g to the identity the dual unit ball
is the Euclidean unit ball translated by the drift covector; solving
|p/t - beta| = 1 for t gives the closed form

    F*(p) = (sqrt(<p,p>* (1 - |rho|*^2) + <p,rho>*^2) - <p,rho>*) / (1 - |rho|*^2)

where <.,.>* is the g-inverse pairing.  Note the minus sign: the support of
the translated ball is smaller against the drift than along it.
``dual_norm_sampled`` is the brute-force support-function oracle the closed
form is validated against in the test suite.

The Legendre transform L(x, v) = (1/2) d/dt F^2(x, v + t u)|_{t=0} and the
inverse map grad_p (1/2) F*^2 satisfy L(v)(v) = F(v)^2, F*(L(v)) = F(v), and
round-trip to the identity on nonzero vectors.
"""

from __future__ import annotations

import numpy as np

from .fields import as_field


class IllPosedMetricError(ValueError):
    """The metric data violates an admissibility condition."""


# The 2x2 algebra below is written out in components: on the broadcast
# (nodes, fiber) shapes of the quadrature oracle einsum falls back to its
# generic loop, several times slower than these elementwise products.

def _quad_form(g, u, w):
    """u' g w over the trailing axes of g (..., 2, 2), u and w (..., 2)."""
    u0, u1 = u[..., 0], u[..., 1]
    w0, w1 = w[..., 0], w[..., 1]
    return (g[..., 0, 0] * (u0 * w0) + g[..., 0, 1] * (u0 * w1)
            + g[..., 1, 0] * (u1 * w0) + g[..., 1, 1] * (u1 * w1))


def _apply_form(g, u):
    """g u over the trailing axes of g (..., 2, 2) and u (..., 2)."""
    u0, u1 = u[..., 0], u[..., 1]
    return np.stack([g[..., 0, 0] * u0 + g[..., 0, 1] * u1,
                     g[..., 1, 0] * u0 + g[..., 1, 1] * u1], axis=-1)


def _pair(p, v):
    """p . v over the trailing axes of p and v (..., 2)."""
    return p[..., 0] * v[..., 0] + p[..., 1] * v[..., 1]


def _symmetric(a, b, c):
    """The symmetric matrix field [[a, b], [b, c]], shape (..., 2, 2)."""
    m = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c)) + (2, 2))
    m[..., 0, 0] = a
    m[..., 0, 1] = b
    m[..., 1, 0] = b
    m[..., 1, 1] = c
    return m


def _inverse(a, b, c, det):
    """The inverse of [[a, b], [b, c]] given its determinant det."""
    return _symmetric(c / det, -b / det, a / det)


def _eigen_extremes(a, b, c):
    """(smallest, largest) eigenvalue of [[a, b], [b, c]], elementwise."""
    half_trace = 0.5 * (a + c)
    disc = np.sqrt(np.maximum((0.5 * (a - c)) ** 2 + b**2, 0.0))
    return half_trace - disc, half_trace + disc


def _require_nonzero(v, what):
    v = np.asarray(v, dtype=float)
    if np.any(np.all(v == 0.0, axis=-1)):
        raise ValueError(f"{what} is undefined on the zero vector")
    return v


class RiemannianMetric:
    """F(x, v) = sqrt(v' g(x) v) for a symmetric positive-definite matrix field g."""

    variant = "riemannian"

    def __init__(self, g11, g12=0.0, g22=1.0):
        self.g11 = as_field(g11)
        self.g12 = as_field(g12)
        self.g22 = as_field(g22)

    @classmethod
    def euclidean(cls):
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def stretched(cls, h, r=None):
        """Constant diag(h^2, r^2); r defaults to 1/h so the torus has unit area."""
        h = float(h)
        r = 1.0 / h if r is None else float(r)
        return cls(h * h, 0.0, r * r)

    def _coefficients(self, x, y):
        a = self.g11(x, y)
        b = self.g12(x, y)
        c = self.g22(x, y)
        det = a * c - b * b
        if np.any(a <= 0.0) or np.any(det <= 0.0):
            raise IllPosedMetricError("metric matrix is not positive-definite "
                                      "at a sampled point")
        return a, b, c, det

    def matrix(self, x, y):
        a, b, c, _ = self._coefficients(x, y)
        return _symmetric(a, b, c)

    def inverse_matrix(self, x, y):
        return _inverse(*self._coefficients(x, y))

    def value(self, x, y, v):
        v = np.asarray(v, dtype=float)
        q = _quad_form(self.matrix(x, y), v, v)
        return np.sqrt(np.maximum(q, 0.0))

    def dual(self, x, y, p):
        p = np.asarray(p, dtype=float)
        q = _quad_form(self.inverse_matrix(x, y), p, p)
        return np.sqrt(np.maximum(q, 0.0))

    def legendre(self, x, y, v):
        v = _require_nonzero(v, "the Legendre transform")
        return _apply_form(self.matrix(x, y), v)

    def dual_gradient(self, x, y, p):
        p = _require_nonzero(p, "the inverse Legendre map")
        return _apply_form(self.inverse_matrix(x, y), p)


class RandersMetric:
    """F = sqrt(g) + rho for a Riemannian base g and a drift 1-form rho.

    Admissibility requires |rho(x)|_{g*} < 1 at every sampled point; evaluation
    raises IllPosedMetricError otherwise.  Construct with check_admissible=False
    only to probe deliberately ill-posed data (e.g. convexity diagnostics).
    """

    variant = "randers"

    def __init__(self, base, rho_x, rho_y, check_admissible=True):
        if not isinstance(base, RiemannianMetric):
            raise TypeError("Randers base must be a RiemannianMetric")
        self.base = base
        self.rho_x = as_field(rho_x)
        self.rho_y = as_field(rho_y)
        self.check_admissible = bool(check_admissible)

    @classmethod
    def axis_drift_torus(cls, h, eta, r=None, profile=1.0):
        """diag(h^2, r^2) base with drift eta*h*profile(x, y) dx; r defaults to 1/h."""
        base = RiemannianMetric.stretched(h, r)
        rho_x = float(eta) * float(h) * as_field(profile)
        return cls(base, rho_x, 0.0)

    def drift(self, x, y):
        rx = self.rho_x(x, y)
        ry = self.rho_y(x, y)
        rho = np.empty(np.broadcast_shapes(np.shape(rx), np.shape(ry)) + (2,))
        rho[..., 0] = rx
        rho[..., 1] = ry
        return rho

    def _drift_slack(self, x, y, gi=None, rho=None):
        # w = 1 - |rho|_{g*}^2; admissible iff w > 0
        if gi is None:
            gi = self.base.inverse_matrix(x, y)
        if rho is None:
            rho = self.drift(x, y)
        return np.asarray(1.0 - _quad_form(gi, rho, rho))

    def _require_admissible(self, w):
        if np.any(w <= 0.0):
            raise IllPosedMetricError(
                "Randers drift reaches |rho|_{g*} >= 1 at a sampled point; "
                "the metric is not admissible there")

    def value(self, x, y, v):
        if self.check_admissible:
            self._require_admissible(self._drift_slack(x, y))
        v = np.asarray(v, dtype=float)
        return self.base.value(x, y, v) + _pair(self.drift(x, y), v)

    def dual(self, x, y, p):
        p = np.asarray(p, dtype=float)
        gi = self.base.inverse_matrix(x, y)
        rho = self.drift(x, y)
        w = self._drift_slack(x, y, gi, rho)
        self._require_admissible(w)
        c = _pair(p, _apply_form(gi, rho))
        q2 = _quad_form(gi, p, p)
        root = np.sqrt(np.maximum(w * q2 + c * c, 0.0))
        return (root - c) / w

    def legendre(self, x, y, v):
        v = _require_nonzero(v, "the Legendre transform")
        g = self.base.matrix(x, y)
        rho = self.drift(x, y)
        alpha = np.sqrt(np.maximum(_quad_form(g, v, v), 0.0))
        if self.check_admissible:
            self._require_admissible(self._drift_slack(x, y))
        value = alpha + _pair(rho, v)
        return value[..., None] * (_apply_form(g, v) / alpha[..., None] + rho)

    def dual_gradient(self, x, y, p):
        p = _require_nonzero(p, "the inverse Legendre map")
        gi = self.base.inverse_matrix(x, y)
        rho = self.drift(x, y)
        w = self._drift_slack(x, y, gi, rho)
        self._require_admissible(w)
        gi_rho = _apply_form(gi, rho)
        gi_p = _apply_form(gi, p)
        c = _pair(p, gi_rho)
        q2 = _pair(p, gi_p)
        root = np.sqrt(np.maximum(w * q2 + c * c, 0.0))
        dual = (root - c) / w
        # F* grad_p F* with grad_p F* = ((w g^-1 p + c g^-1 rho) / root
        # - g^-1 rho) / w, which folds to F* (g^-1 p - F* g^-1 rho) / root;
        # one component at a time, as a trailing axis of 2 is slow to broadcast
        scale = dual / root
        return np.stack([scale * (gi_p[..., i] - dual * gi_rho[..., i])
                         for i in (0, 1)], axis=-1)


class ConformalMetric:
    """F(x, v) = exp(f(x)) F_base(x, v) for a scalar exponent field f."""

    variant = "conformal"

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = as_field(exponent)

    def scale(self, x, y):
        return np.exp(self.exponent(x, y))

    def value(self, x, y, v):
        return self.scale(x, y) * self.base.value(x, y, v)

    def dual(self, x, y, p):
        return self.base.dual(x, y, p) / self.scale(x, y)

    def legendre(self, x, y, v):
        s2 = self.scale(x, y) ** 2
        return s2[..., None] * self.base.legendre(x, y, v)

    def dual_gradient(self, x, y, p):
        s2 = self.scale(x, y) ** 2
        return self.base.dual_gradient(x, y, p) / s2[..., None]


def base_metric(spec):
    """Strip Randers drift / conformal factors down to the Riemannian core."""
    if isinstance(spec, RandersMetric):
        return spec.base
    if isinstance(spec, ConformalMetric):
        return base_metric(spec.base)
    return spec


# ---------------------------------------------------------------------------
# Sampling-based operations and oracles
# ---------------------------------------------------------------------------

def unit_directions(n):
    """n equispaced Euclidean-unit vectors on the circle."""
    phi = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def _point_mesh(n_points):
    m = max(int(np.ceil(np.sqrt(n_points))), 1)
    t = np.arange(m) / m
    return t[:, None, None], t[None, :, None]


def _refine_peak(vals, axis=-1, mode="max"):
    """Sharpen a sampled periodic extremum with a 3-point parabola fit."""
    vals = np.moveaxis(np.asarray(vals, dtype=float), axis, -1)
    idx = np.argmax(vals, axis=-1) if mode == "max" else np.argmin(vals, axis=-1)
    n = vals.shape[-1]
    f0 = np.take_along_axis(vals, idx[..., None], -1)[..., 0]
    fp = np.take_along_axis(vals, ((idx + 1) % n)[..., None], -1)[..., 0]
    fm = np.take_along_axis(vals, ((idx - 1) % n)[..., None], -1)[..., 0]
    a = 0.5 * (fp + fm) - f0
    b = 0.5 * (fp - fm)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = f0 - np.where(a != 0.0, b * b / (4.0 * a), 0.0)
    good = (a < 0.0) if mode == "max" else (a > 0.0)
    return np.where(good, vertex, f0)


def dual_norm_sampled(spec, x, y, p, n_directions=10_000, refine=True):
    """Brute-force support function: maximize p(v)/F(x, v) over unit directions.

    With refine=True the sampled maximum is sharpened by a parabola fit, which
    drops the O((2pi/n)^2) sampling bias to O((2pi/n)^4).
    """
    u = unit_directions(n_directions)
    fv = spec.value(x, y, u)
    p = np.asarray(p, dtype=float)
    ratios = np.einsum("...i,ki->...k", p, u) / fv
    if refine:
        return _refine_peak(ratios)
    return ratios.max(axis=-1)


def quasireversibility(spec, direction_samples=1024, point_samples=256, refine=True):
    """Sampled sup of F(x, -v) over F-unit v, i.e. sup F(x,-u)/F(x,u).

    Equals 1 exactly for reversible metrics.  The raw sampled supremum
    (refine=False) is monotone nondecreasing under nested sample refinement
    (directions doubled, point mesh doubled per axis); refine=True sharpens
    the direction maximum with a parabola fit.
    """
    if direction_samples < 16 or point_samples < 16:
        raise ValueError("quasireversibility needs at least 16 samples each way")
    xs, ys = _point_mesh(point_samples)
    u = unit_directions(direction_samples)
    forward = spec.value(xs, ys, u)
    backward = spec.value(xs, ys, -u)
    ratio = backward / forward
    if refine:
        return float(np.max(_refine_peak(ratio)))
    return float(ratio.max())


def bilipschitz_ratio(spec, reference, direction_samples=1024, point_samples=256,
                      refine=True):
    """Sampled (inf, sup) of F/F_reference over points and nonzero directions."""
    if direction_samples < 16 or point_samples < 16:
        raise ValueError("bilipschitz_ratio needs at least 16 samples each way")
    xs, ys = _point_mesh(point_samples)
    u = unit_directions(direction_samples)
    ratio = spec.value(xs, ys, u) / reference.value(xs, ys, u)
    if refine:
        lo = float(np.min(_refine_peak(ratio, mode="min")))
        hi = float(np.max(_refine_peak(ratio, mode="max")))
        return lo, hi
    return float(ratio.min()), float(ratio.max())


def check_strong_convexity(spec, x, y, samples=64, rel_step=1e-5, tol=1e-10):
    """Finite-difference test that the v-Hessian of F^2 is positive-definite.

    Central differences with step rel_step * |v| on Euclidean-unit directions;
    accepts iff the smallest Hessian eigenvalue exceeds tol times the largest
    at every sampled direction.  Inadmissible Randers data can be diagnosed
    when built with check_admissible=False.
    """

    def fsq(v):
        return spec.value(x, y, v) ** 2

    v = unit_directions(samples)
    h = rel_step
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    f0 = fsq(v)
    hxx = (fsq(v + ex) - 2.0 * f0 + fsq(v - ex)) / h**2
    hyy = (fsq(v + ey) - 2.0 * f0 + fsq(v - ey)) / h**2
    hxy = (fsq(v + ex + ey) - fsq(v + ex - ey)
           - fsq(v - ex + ey) + fsq(v - ex - ey)) / (4.0 * h**2)
    lam_min, lam_max = _eigen_extremes(hxx, hxy, hyy)
    return bool(np.all(lam_max > 0.0) and np.all(lam_min > tol * lam_max))


def legendre_numeric(spec, x, y, v, rel_step=1e-5):
    """Generic-path Legendre transform: central differences of F^2 / 2."""
    v = np.asarray(v, dtype=float)
    h = rel_step * float(np.linalg.norm(v))
    if h == 0.0:
        raise ValueError("the Legendre transform is undefined on the zero vector")
    out = np.empty(2)
    for i, e in enumerate(np.eye(2)):
        out[i] = (spec.value(x, y, v + h * e) ** 2
                  - spec.value(x, y, v - h * e) ** 2) / (4.0 * h)
    return out


def dual_gradient_numeric(spec, x, y, p, rel_step=1e-5, n_directions=200_000):
    """Generic-path inverse Legendre map: differences of the sampled F*^2 / 2."""
    p = np.asarray(p, dtype=float)
    h = rel_step * float(np.linalg.norm(p))
    if h == 0.0:
        raise ValueError("the inverse Legendre map is undefined on the zero covector")

    def half_dual_sq(q):
        return 0.5 * float(dual_norm_sampled(spec, x, y, q, n_directions)) ** 2

    out = np.empty(2)
    for i, e in enumerate(np.eye(2)):
        out[i] = (half_dual_sq(p + h * e) - half_dual_sq(p - h * e)) / (2.0 * h)
    return out
