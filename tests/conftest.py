"""Shared randomized-metric generators for the property suites (fixed seeds)."""

import numpy as np
import pytest

from fspec import ConformalMetric, RandersMetric, RiemannianMetric


def random_spd(rng, scale=1.0):
    """Random well-conditioned SPD 2x2 matrix."""
    angle = rng.uniform(0.0, np.pi)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    eigs = rng.uniform(0.3, 3.0, size=2) * scale
    return rot @ np.diag(eigs) @ rot.T


def random_riemannian(rng, varying=False):
    if not varying:
        g = random_spd(rng)
        return RiemannianMetric(g[0, 0], g[0, 1], g[1, 1])
    base = rng.uniform(0.8, 2.5)
    amp = rng.uniform(0.05, 0.25) * base
    kx, ky = rng.integers(1, 3, size=2)
    g11 = f"{base} + {amp}*sin(2*pi*{kx}*x)"
    g22 = f"{rng.uniform(0.8, 2.5)} + {amp}*cos(2*pi*{ky}*y)"
    return RiemannianMetric(g11, 0.0, g22)


def random_randers(rng, eta_max=0.9, varying=False):
    if varying:
        h = rng.uniform(1.2, 3.0)
        eta = rng.uniform(0.1, eta_max)
        lo, hi = sorted(rng.uniform(0.2, 0.95, size=2))
        amp = 0.5 * (hi - lo)
        profile = f"{lo + amp} + {amp}*sin(2*pi*y)"
        return RandersMetric.axis_drift_torus(h, eta, profile=profile)
    g = random_spd(rng)
    eta = rng.uniform(0.0, eta_max)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    u = np.array([np.cos(angle), np.sin(angle)])
    # rho = eta * g^(1/2) u has |rho|_{g*} = eta exactly
    w, v = np.linalg.eigh(g)
    rho = eta * (v @ np.diag(np.sqrt(w)) @ v.T) @ u
    return RandersMetric(RiemannianMetric(g[0, 0], g[0, 1], g[1, 1]),
                         rho[0], rho[1])


def random_metric(rng, allow_conformal=True):
    """Random admissible metric across all three families."""
    roll = rng.integers(0, 4 if allow_conformal else 3)
    if roll == 0:
        return random_riemannian(rng, varying=bool(rng.integers(0, 2)))
    if roll == 1:
        return random_randers(rng, varying=False)
    if roll == 2:
        return random_randers(rng, varying=True)
    inner = random_metric(rng, allow_conformal=False)
    amp = rng.uniform(-0.4, 0.4)
    return ConformalMetric(inner, f"{amp}*sin(2*pi*x)")


def metric_matrix(spec, x, y):
    """The matrix g of a RiemannianMetric at the point (x, y), read from its
    public coefficient fields."""
    g11, g12, g22 = (float(field(x, y)) for field in (spec.g11, spec.g12, spec.g22))
    return np.array([[g11, g12], [g12, g22]])


def circle_rule(n):
    """(unit covectors, weight) of the n-node equal-weight rule on the
    circle, built here for sums that check the package's own rule."""
    phi = 2.0 * np.pi * np.arange(n) / n
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1), 2.0 * np.pi / n


def random_point(rng):
    return float(rng.random()), float(rng.random())


def random_vector(rng):
    v = rng.normal(size=2)
    while np.linalg.norm(v) < 1e-3:
        v = rng.normal(size=2)
    return v


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
