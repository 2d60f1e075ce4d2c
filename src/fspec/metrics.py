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
fails to be strongly convex, and wherever the folded data is not finite.

Duality conventions.  The dual norm is the support function

    F*(x, p) = sup { p(v) : F(x, v) = 1 }.

For a Randers metric, after normalizing g to the identity the dual unit ball
is the Euclidean unit ball translated by the drift covector; solving
|p/t - beta| = 1 for t gives the closed form

    F*(p) = (sqrt(<p,p>* (1 - |rho|*^2) + <p,rho>*^2) - <p,rho>*) / (1 - |rho|*^2)

where <.,.>* is the g-inverse pairing.  Note the minus sign: the support of
the translated ball is smaller against the drift than along it.
The test suite validates the closed form against a brute-force
support-function oracle (``tests/oracles.py``).

The Legendre transform L(x, v) = (1/2) d/dt F^2(x, v + t u)|_{t=0} and the
inverse map grad_p (1/2) F*^2 satisfy L(v)(v) = F(v)^2, F*(L(v)) = F(v), and
round-trip to the identity on nonzero vectors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fields import Field, as_field


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
        unless w = 1 - |rho|_{g*}^2 > 0 everywhere (so NaN data is refused
        too), and unless every piece, and the determinant the inverse divides
        by, is finite (data such as g11 = g22 = 1e308, or a factor e^{2f}
        that overflows, passes every admissibility test with a determinant
        of inf).  Every symbol route reads the families' _parts through
        here.  numpy's overflow, division and invalid-value warnings are
        silenced over this arithmetic, _parts included: the two tests refuse
        such data with an error of their own."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            f, (a, b, c, det), (r1, r2) = self._parts(x, y)
            s = np.exp(f)
            s2 = s * s
            r1, r2 = r1 * s, r2 * s
            det = det * s2
            i11, i12, i22 = c / det, -b / det, a / det
            b1 = i11 * r1 + i12 * r2
            b2 = i12 * r1 + i22 * r2
            w = 1.0 - (r1 * b1 + r2 * b2)
            if not np.all(w > 0.0):
                raise IllPosedMetricError(
                    "Randers drift reaches |rho|_{g*} >= 1 (or the metric data is "
                    "NaN) at a sampled point; the metric is not admissible there")
            pieces = (a * s2, b * s2, c * s2, i11, i12, i22, r1, r2, b1, b2, w)
            # piece * 0 is 0 where the piece is finite and NaN where it is not:
            # one sum tests them all, for less than a test of each
            if np.isnan(sum(piece * 0.0 for piece in pieces) + det * 0.0).any():
                raise IllPosedMetricError(
                    "the folded metric overflows double precision at a sampled "
                    "point; the metric is not admissible there")
        return _Folded(*pieces)

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
        if not (np.all(a > 0.0) and np.all(det > 0.0)):  # NaN fails too
            raise IllPosedMetricError("metric matrix is not positive-definite "
                                      "(or is NaN) at a sampled point")
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
        # a Field as it stands, not a callable for as_field to wrap: the
        # profile reduces the coordinates it reads, a constant none
        return cls(base, Field(lambda x, y: profile(x, y) * scale, "<lambda>"), 0.0)

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
