"""Finsler metric families on the flat 2-torus.

Three families, closed under every operation used downstream:

* Riemannian:  F(x, v) = sqrt(v' g(x) v)
* Randers:     F(x, v) = sqrt(v' g(x) v) + rho(x) . v,  with |rho|_{g*} < 1
* Conformal:   F(x, v) = exp(f(x)) F_base(x, v)

Since exp(f) (sqrt(g) + rho) = sqrt(e^{2f} g) + e^f rho, every family is a
Randers metric: each supplies its per-node (f, g, rho), and one shared core
folds the factor into the pair (e^{2f} g, e^f rho) and writes each operation
once.  Each metric exposes the forward norm, the dual co-norm, the fiberwise
Legendre transform and its inverse gradient map, all vectorized: x and y
broadcast against the leading axes of v or p, whose final axis has length 2.
Each per-node piece keeps the shape its fields broadcast to, so a constant
metric yields one value per direction whatever the shape of x and y.
Every operation raises IllPosedMetricError wherever |rho|_{g*} >= 1, where F
fails to be strongly convex.

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

from typing import NamedTuple

import numpy as np

from .fields import as_field


class IllPosedMetricError(ValueError):
    """The metric data violates an admissibility condition."""


# The 2x2 algebra below is written out in components: on the broadcast
# (nodes, fiber) shapes of the quadrature oracle einsum falls back to its
# generic loop, several times slower than these elementwise products.  The
# per-node fold and the fiber formulas of _Folded take each piece as its own
# component array, so neither stacks a trailing axis of 2 nor reads one back
# through strided views; (..., 2, 2) matrices are built only for results.

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


class _Folded(NamedTuple):
    """Per-node pieces of the folded pair (e^{2f} g, e^f rho), in components,
    and each operation's fiber formula on them.

    g = [[g11, g12], [g12, g22]], its inverse [[i11, i12], [i12, i22]],
    rho = (r1, r2), b = g^-1 rho and w = 1 - |rho|_{g*}^2.  The pieces
    broadcast against the leading axes of v or p (..., 2), whose components
    are read once; the vector results (legendre, dual_gradient) come back as
    their two components.
    """

    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    i11: np.ndarray
    i12: np.ndarray
    i22: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    w: np.ndarray

    def _alpha_drift(self, v):
        """(sqrt(v' g v), rho . v)."""
        v0, v1 = v[..., 0], v[..., 1]
        alpha_sq = (self.g11 * (v0 * v0) + self.g12 * (v0 * v1)
                    + self.g12 * (v1 * v0) + self.g22 * (v1 * v1))
        return np.sqrt(np.maximum(alpha_sq, 0.0)), self.r1 * v0 + self.r2 * v1

    def value(self, v):
        alpha, drift = self._alpha_drift(v)
        return alpha + drift

    def dual(self, p):
        p0, p1 = p[..., 0], p[..., 1]
        c = p0 * self.b1 + p1 * self.b2
        q2 = (self.i11 * (p0 * p0) + self.i12 * (p0 * p1)
              + self.i12 * (p1 * p0) + self.i22 * (p1 * p1))
        root = np.sqrt(np.maximum(self.w * q2 + c * c, 0.0))
        return (root - c) / self.w

    def legendre(self, v):
        alpha, drift = self._alpha_drift(v)
        value = alpha + drift
        v0, v1 = v[..., 0], v[..., 1]
        return (value * ((self.g11 * v0 + self.g12 * v1) / alpha + self.r1),
                value * ((self.g12 * v0 + self.g22 * v1) / alpha + self.r2))

    def dual_gradient(self, p):
        # F* grad_p F* with grad_p F* = ((w g^-1 p + c g^-1 rho) / root
        # - g^-1 rho) / w, which folds to F* (g^-1 p - F* g^-1 rho) / root
        p0, p1 = p[..., 0], p[..., 1]
        gp1 = self.i11 * p0 + self.i12 * p1
        gp2 = self.i12 * p0 + self.i22 * p1
        c = p0 * self.b1 + p1 * self.b2
        q2 = p0 * gp1 + p1 * gp2
        root = np.sqrt(np.maximum(self.w * q2 + c * c, 0.0))
        dual = (root - c) / self.w
        scale = dual / root
        return scale * (gp1 - dual * self.b1), scale * (gp2 - dual * self.b2)


class _RandersCore:
    """exp(f) (sqrt(g) + rho) = sqrt(e^{2f} g) + e^f rho: every family is Randers.

    Each family supplies _parts(x, y) = (f, (g11, g12, g22, det), (r1, r2)), and
    each operation is the per-node fold of the pair (e^{2f} g, e^f rho),
    ``_folded``, followed by its fiber formula on the folded pieces
    (``_Folded``).  Every symbol route of ``fspec.fiber`` reads the metric
    through ``_folded``: the closed form and the direct energy take the
    folded pieces as they are, and the fiber oracles fold once over all
    their nodes and stream the fiber formula over blocks of them.
    Every operation and every route thus requires |rho|_{g*} < 1, which a
    conformal factor leaves unchanged.
    """

    def _folded(self, x, y):
        """The _Folded pieces at the nodes (x, y); raises IllPosedMetricError
        where w = 1 - |rho|_{g*}^2 <= 0.  Every symbol route reads the
        families' _parts through here."""
        f, (a, b, c, det), (r1, r2) = self._parts(x, y)
        s = np.exp(f)
        s2 = s * s
        r1, r2 = r1 * s, r2 * s
        det = det * s2
        i11, i12, i22 = c / det, -b / det, a / det
        b1 = i11 * r1 + i12 * r2
        b2 = i12 * r1 + i22 * r2
        w = 1.0 - (r1 * b1 + r2 * b2)
        if np.any(w <= 0.0):
            raise IllPosedMetricError(
                "Randers drift reaches |rho|_{g*} >= 1 at a sampled point; "
                "the metric is not admissible there")
        return _Folded(a * s2, b * s2, c * s2, i11, i12, i22, r1, r2, b1, b2, w)

    def value(self, x, y, v):
        return self._folded(x, y).value(np.asarray(v, dtype=float))

    def dual(self, x, y, p):
        return self._folded(x, y).dual(np.asarray(p, dtype=float))

    def legendre(self, x, y, v):
        v = _require_nonzero(v, "the Legendre transform")
        return np.stack(self._folded(x, y).legendre(v), axis=-1)

    def dual_gradient(self, x, y, p):
        p = _require_nonzero(p, "the inverse Legendre map")
        return np.stack(self._folded(x, y).dual_gradient(p), axis=-1)


class RiemannianMetric(_RandersCore):
    """F(x, v) = sqrt(v' g(x) v) for a symmetric positive-definite matrix field g."""

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
        if not (h > 0.0 and (r is None or float(r) > 0.0)):
            raise ValueError("axis lengths must be positive")
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

    def _parts(self, x, y):
        return 0.0, self._coefficients(x, y), (0.0, 0.0)


class RandersMetric(_RandersCore):
    """F = sqrt(g) + rho for a Riemannian base g and a drift 1-form rho.

    Admissibility requires |rho(x)|_{g*} < 1 at every sampled point; every
    operation raises IllPosedMetricError otherwise.
    """

    def __init__(self, base, rho_x, rho_y):
        if not isinstance(base, RiemannianMetric):
            raise TypeError("Randers base must be a RiemannianMetric")
        self.base = base
        self.rho_x = as_field(rho_x)
        self.rho_y = as_field(rho_y)

    @classmethod
    def axis_drift_torus(cls, h, eta, r=None, profile=1.0):
        """diag(h^2, r^2) base with drift eta*h*profile(x, y) dx; r defaults to 1/h."""
        base = RiemannianMetric.stretched(h, r)
        scale, profile = float(eta) * float(h), as_field(profile)
        return cls(base, lambda x, y: profile(x, y) * scale, 0.0)

    def _parts(self, x, y):
        return (0.0, self.base._coefficients(x, y),
                (self.rho_x(x, y), self.rho_y(x, y)))


class ConformalMetric(_RandersCore):
    """F(x, v) = exp(f(x)) F_base(x, v) for a scalar exponent field f."""

    def __init__(self, base, exponent):
        if not isinstance(base, _RandersCore):
            raise TypeError("conformal base must be one of the three families")
        self.base = base
        self.exponent = as_field(exponent)

    def _parts(self, x, y):
        f, g, rho = self.base._parts(x, y)
        return self.exponent(x, y) + f, g, rho


def base_metric(spec):
    """Strip Randers drift / conformal factors down to the Riemannian core."""
    if isinstance(spec, (RandersMetric, ConformalMetric)):
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


def _refine_peak(vals, mode="max"):
    """Sharpen a sampled periodic extremum along the last axis with a 3-point
    parabola fit."""
    vals = np.asarray(vals, dtype=float)
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


def dual_norm_sampled(spec, x, y, p, n_directions=10_000):
    """Brute-force support function: maximize p(v)/F(x, v) over unit directions.

    The sampled maximum is sharpened by a parabola fit, which drops the
    O((2pi/n)^2) sampling bias to O((2pi/n)^4).
    """
    u = unit_directions(n_directions)
    fv = spec.value(x, y, u)
    p = np.asarray(p, dtype=float)
    return _refine_peak(np.einsum("...i,ki->...k", p, u) / fv)


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


def bilipschitz_ratio(spec, reference, direction_samples=1024, point_samples=256):
    """Sampled (inf, sup) of F/F_reference over points and nonzero directions,
    each direction extremum sharpened by a parabola fit."""
    if direction_samples < 16 or point_samples < 16:
        raise ValueError("bilipschitz_ratio needs at least 16 samples each way")
    xs, ys = _point_mesh(point_samples)
    u = unit_directions(direction_samples)
    ratio = spec.value(xs, ys, u) / reference.value(xs, ys, u)
    return (float(np.min(_refine_peak(ratio, mode="min"))),
            float(np.max(_refine_peak(ratio, mode="max"))))


def check_strong_convexity(spec, x, y):
    """Finite-difference test that the v-Hessian of F^2 is positive-definite.

    Central differences with step 1e-5 on 64 Euclidean-unit directions;
    accepts iff the smallest Hessian eigenvalue exceeds 1e-10 times the
    largest at every sampled direction.  The three families raise
    IllPosedMetricError on inadmissible data before F is ever sampled, so
    the test is for any object with a ``value(x, y, v)`` method.
    """

    def fsq(v):
        return spec.value(x, y, v) ** 2

    v = unit_directions(64)
    h = 1e-5
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    f0 = fsq(v)
    hxx = (fsq(v + ex) - 2.0 * f0 + fsq(v - ex)) / h**2
    hyy = (fsq(v + ey) - 2.0 * f0 + fsq(v - ey)) / h**2
    hxy = (fsq(v + ex + ey) - fsq(v + ex - ey)
           - fsq(v - ex + ey) + fsq(v - ex - ey)) / (4.0 * h**2)
    lam_min, lam_max = _eigen_extremes(hxx, hxy, hyy)
    return bool(np.all(lam_max > 0.0) and np.all(lam_min > 1e-10 * lam_max))


def legendre_numeric(spec, x, y, v):
    """Generic-path Legendre transform: central differences of F^2 / 2, step
    1e-5 |v|."""
    v = np.asarray(v, dtype=float)
    h = 1e-5 * float(np.linalg.norm(v))
    if h == 0.0:
        raise ValueError("the Legendre transform is undefined on the zero vector")
    out = np.empty(2)
    for i, e in enumerate(np.eye(2)):
        out[i] = (spec.value(x, y, v + h * e) ** 2
                  - spec.value(x, y, v - h * e) ** 2) / (4.0 * h)
    return out


def dual_gradient_numeric(spec, x, y, p):
    """Generic-path inverse Legendre map: central differences, step 1e-5 |p|,
    of F*^2 / 2 sampled on 200000 directions."""
    p = np.asarray(p, dtype=float)
    h = 1e-5 * float(np.linalg.norm(p))
    if h == 0.0:
        raise ValueError("the inverse Legendre map is undefined on the zero covector")

    def half_dual_sq(q):
        return 0.5 * float(dual_norm_sampled(spec, x, y, q, 200_000)) ** 2

    out = np.empty(2)
    for i, e in enumerate(np.eye(2)):
        out[i] = (half_dual_sq(p + h * e) - half_dual_sq(p - h * e)) / (2.0 * h)
    return out
