"""Reference oracles that the tests compare the package against.

Sampling-based metric constants and brute-force fiberwise maps (support
function, quasireversibility, bi-Lipschitz ratios, finite-difference
convexity, Legendre transform and its inverse), the edge-form Rayleigh
quotient of a grid function, and the exact spectrum of the assembled
operator on a constant symbol field.  The package computes each of these
in closed form or not at all; the tests import them from here as they
import ``conftest``.
"""

import numpy as np

from fspec.experiments import _constant_symbol
from fspec.metrics import _eigen_extremes
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


def rayleigh(problem, f):
    """Rayleigh quotient f'Kf / f'Mf of a grid function (flat or grid-shaped).

    f'Kf is taken in edge form, the sum over offsets e of
    w_e (f - np.roll(f, -e))^2, from the stencil's weights alone: it shares
    no kernel with the solver's gate, so it checks the gate's flat shifts
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

