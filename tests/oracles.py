"""Reference oracles that the tests compare the package against.

Sampling-based metric constants and brute-force fiberwise maps (support
function, quasireversibility, bi-Lipschitz ratios, finite-difference
convexity, Legendre transform and its inverse), pointwise fiber quadrature
of the volume density, the symbol and the Binet-Legendre metric, the
edge-form Rayleigh quotient of a grid function, and the exact spectrum of
the assembled operator on a constant symbol field.  The package computes
each of these in closed form or not at all; the tests import them from
here as they import ``conftest``.

The quadrature oracles take the node count n of their trapezoid rule and
share the package's fiber pieces (``fspec.fiber``): the rule ``_circle``,
the fold ``_fold`` and the blocked loop ``_over_nodes`` over the fold's
distinct metric lines.  ``volume_density`` takes F* from the dual formula,
a route to mu independent of the Euler identity of ``_fiber_symbol``.
"""

import numpy as np

from fspec.experiments import _constant_symbol
from fspec.fiber import (_COLLAPSED, _DUAL_FLOOR, _TWO_PI, QuadratureError,
                         _circle, _fiber_symbol, _fold, _over_nodes)
from fspec.metrics import (IllPosedMetricError, _eigen_extremes, _Folded,
                           _symmetric)
from fspec.solver import _OFFSETS


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


def volume_density(spec, x, y, n):
    """Holmes-Thompson density mu(x) of the metric's volume against dx dy,
    by the n-node rule."""
    p, w = _circle(n)
    fold, shape = _fold(spec, x, y)

    def density(*rows):
        dual = _Folded(*rows).dual(p)
        if np.any(dual < _DUAL_FLOOR):
            raise IllPosedMetricError(_COLLAPSED)
        return ((w / dual**2).sum(axis=-1) / _TWO_PI,)

    return np.broadcast_to(_over_nodes(density, fold, n)[0], shape)[()]


def symbol_matrix(spec, x, y, n):
    """Dual quadratic form sigma*(x) of the averaged second-order operator,
    by the n-node rule.

    Raises QuadratureError if it fails to be SPD, which signals an
    under-resolved fiber rule.
    """
    nodes = _fold(spec, x, y)
    return np.broadcast_to(_fiber_symbol(nodes, n)[0], nodes[1] + (2, 2))


def _inverse(a, b, c, det):
    """The inverse of [[a, b], [b, c]] given its determinant det."""
    return _symmetric(c / det, -b / det, a / det)


def binet_legendre(spec, x, y, n):
    """Averaged Riemannian metric from second moments of the forward unit ball.

    The dual form is (n+2)/vol(B) * Int_B p(v) q(v) dv over the F-unit ball,
    evaluated in polar form: the n-node rule for the angle, and the exact radial
    moments Int_0^R t dt = R^2/2 and Int_0^R t^3 dt = R^4/4 up to
    R(theta) = 1/F(x, u(theta)).  Affine invariance makes the result equal g
    itself for Riemannian input; in general the metric is bi-Lipschitz to F
    with constants controlled by the quasireversibility.
    """
    u, w = _circle(n)  # tangent directions this time
    fold, shape = _fold(spec, x, y)

    def moments(*rows):
        fv = _Folded(*rows).value(u)
        if np.any(fv < _DUAL_FLOOR):
            raise IllPosedMetricError("forward norm collapsed on the unit circle")
        r2 = fv**-2
        r4 = r2 * r2
        area = (w * r2).sum(axis=-1) * 0.5
        n11 = (w * r4 * u[..., 0] ** 2).sum(axis=-1) * 0.25
        n12 = (w * r4 * u[..., 0] * u[..., 1]).sum(axis=-1) * 0.25
        n22 = (w * r4 * u[..., 1] ** 2).sum(axis=-1) * 0.25
        return 4.0 * n11 / area, 4.0 * n12 / area, 4.0 * n22 / area

    d11, d12, d22 = _over_nodes(moments, fold, n)
    det = d11 * d22 - d12 * d12
    if np.any(det <= 0.0):
        raise QuadratureError("Binet-Legendre dual form is not positive-definite")
    return np.broadcast_to(_inverse(d11, d12, d22, det), shape + (2, 2))


def rayleigh(problem, f):
    """Rayleigh quotient f'Kf / f'Mf of a grid function (flat or grid-shaped).

    f'Kf is taken in edge form, the sum over offsets e of
    w_e (f - np.roll(f, -e))^2, from the stencil's weights alone: it shares
    no kernel with the solver's K or its gate, so it checks both
    independently.  The edge form avoids the cancellation of K f on smooth
    functions, whose rounding is of order eps lambda_max and would swamp the
    smallest eigenvalues.
    """
    f = np.asarray(f, dtype=float).ravel()
    if f.size != problem.n_nodes:
        raise ValueError("grid function has the wrong number of nodes")
    if not np.any(f):
        raise ValueError("Rayleigh quotient of the zero function")
    u = f.reshape(problem.grid.nx, problem.grid.ny)
    energy = 0
    for offset, weight in zip(_OFFSETS, problem.reduced[0]):
        du = u - np.roll(u, np.negative(offset), axis=(0, 1))
        energy += float((np.square(du) * weight).sum())
    return energy / float(problem.mass.ravel() @ f**2)


def discrete_fourier_oracle(field, k):
    """Exact first k+1 eigenvalues of assemble(field) for a constant field.

    Every periodic grid mode exp(2 pi i (m x + l y)) is an eigenvector of the
    constant flux-form stencil; with theta_x = pi m / nx, theta_y = pi l / ny
    and the constant mu cancelling between K and M,

        lambda_ml = 4 s11 sin^2(theta_x) / dx^2 + 4 s22 sin^2(theta_y) / dy^2
                    + 2 s12 sin(2 theta_x) sin(2 theta_y) / (dx dy)

    for sigma* = [[s11, s12], [s12, s22]].  Raises ValueError if sigma* or mu
    varies over the grid.
    """
    sig = _constant_symbol(field)
    if sig is None:
        raise ValueError("the discrete Fourier oracle needs a constant "
                         "symbol field")
    grid = field.grid
    if k + 1 > grid.node_count:
        raise ValueError(f"requested {k + 1} eigenvalues from a "
                         f"{grid.node_count}-node grid")
    tx = np.pi * np.arange(grid.nx)[:, None] / grid.nx
    ty = np.pi * np.arange(grid.ny)[None, :] / grid.ny
    vals = (4.0 * sig[0, 0] * np.sin(tx) ** 2 / grid.dx ** 2
            + 4.0 * sig[1, 1] * np.sin(ty) ** 2 / grid.dy ** 2
            + 2.0 * sig[0, 1] * np.sin(2.0 * tx) * np.sin(2.0 * ty)
            / (grid.dx * grid.dy))
    return np.sort(vals.ravel())[:k + 1]

