"""Metric families: norms, duals, Legendre maps, coarse constants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize_scalar

from fspec import (ConformalMetric, IllPosedMetricError, RandersMetric,
                   RiemannianMetric, bilipschitz_ratio, check_strong_convexity,
                   dual_gradient_numeric, dual_norm_sampled, legendre_numeric,
                   quasireversibility)
from fspec.metrics import _apply_form, _pair, _quad_form
from conftest import random_metric, random_point, random_randers, random_vector


class TestFormHelpers:
    # the component-wise 2x2 helpers against einsum, on broadcast shapes
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=4,
                                             max_side=3),
           st.integers(0, 2**32 - 1))
    def test_match_einsum(self, shapes, seed):
        rng = np.random.default_rng(seed)
        g_shape, u_shape, w_shape = shapes.input_shapes
        g = rng.standard_normal(g_shape + (2, 2))
        u = rng.standard_normal(u_shape + (2,))
        w = rng.standard_normal(w_shape + (2,))
        cases = [
            (_quad_form(g, u, w), "...ij,...i,...j->...", (g, u, w)),
            (_apply_form(g, u), "...ij,...j->...i", (g, u)),
            (_pair(u, w), "...i,...i->...", (u, w)),
        ]
        for got, subscripts, operands in cases:
            want = np.einsum(subscripts, *operands)
            scale = np.einsum(subscripts, *map(np.abs, operands))
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * scale)


class TestForwardNorm:
    def test_riemannian_axis(self):
        g = RiemannianMetric.stretched(2.0, 0.5)
        assert np.isclose(float(g.value(0.3, 0.8, [1.0, 0.0])), 2.0, rtol=1e-15)

    def test_randers_axis(self):
        # drift eta*h dx adds eta*h along the x axis
        spec = RandersMetric.axis_drift_torus(2.0, 0.6, r=0.5)
        assert np.isclose(float(spec.value(0.1, 0.2, [1.0, 0.0])),
                          2.0 * 1.6, rtol=1e-15)

    def test_zero_vector(self, rng):
        for _ in range(20):
            spec = random_metric(rng)
            x, y = random_point(rng)
            assert float(spec.value(x, y, [0.0, 0.0])) == 0.0

    def test_homogeneity(self, rng):
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            f1 = float(spec.value(x, y, v))
            for lam in (0.5, 2.0, 10.0):
                np.testing.assert_allclose(float(spec.value(x, y, lam * v)),
                                           lam * f1, rtol=1e-12)

    def test_randers_admissibility_rejected(self):
        bad = RandersMetric(RiemannianMetric.euclidean(), 1.05, 0.0)
        with pytest.raises(IllPosedMetricError):
            bad.value(0.1, 0.1, [1.0, 0.0])
        with pytest.raises(IllPosedMetricError):
            bad.dual(0.1, 0.1, [1.0, 0.0])


class TestDualNorm:
    def test_euclidean_345(self):
        e = RiemannianMetric.euclidean()
        assert np.isclose(float(e.dual(0.0, 0.0, [3.0, 4.0])), 5.0, rtol=1e-15)

    def test_riemannian_closed_form(self, rng):
        for _ in range(30):
            spec = random_metric(rng, allow_conformal=False)
            if spec.variant != "riemannian":
                continue
            x, y = random_point(rng)
            p = random_vector(rng)
            gi = spec.inverse_matrix(x, y)
            np.testing.assert_allclose(float(spec.dual(x, y, p)),
                                       np.sqrt(p @ gi @ p), rtol=1e-14)

    def test_randers_closed_form_vs_support_oracle(self, rng):
        # Gate for the Randers dual closed form: it must track the brute-force
        # support function (>= 1e4 directions) to 1e-8 before being trusted.
        worst = 0.0
        for _ in range(40):
            spec = random_randers(rng, varying=bool(rng.integers(0, 2)))
            x, y = random_point(rng)
            p = random_vector(rng)
            closed = float(spec.dual(x, y, p))
            oracle = float(dual_norm_sampled(spec, x, y, p, n_directions=20_000))
            worst = max(worst, abs(closed - oracle) / oracle)
        assert worst < 1e-8

    def test_conformal_dual_scale(self, rng):
        for _ in range(20):
            base = random_metric(rng, allow_conformal=False)
            conf = ConformalMetric(base, "0.4*cos(2*pi*y)")
            x, y = random_point(rng)
            p = random_vector(rng)
            scale = float(np.exp(0.4 * np.cos(2 * np.pi * y)))
            np.testing.assert_allclose(float(conf.dual(x, y, p)),
                                       float(base.dual(x, y, p)) / scale,
                                       rtol=1e-13)


class TestLegendre:
    def test_riemannian_is_matrix_product(self, rng):
        g = RiemannianMetric(3.0, 0.7, 2.0)
        v = random_vector(rng)
        np.testing.assert_allclose(g.legendre(0.2, 0.4, v),
                                   g.matrix(0.2, 0.4) @ v, rtol=1e-14)

    def test_legendre_identities(self, rng):
        # L(v)(v) = F(v)^2 and F*(L(v)) = F(v)
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            p = spec.legendre(x, y, v)
            f = float(spec.value(x, y, v))
            np.testing.assert_allclose(float(p @ v), f * f, rtol=1e-11)
            np.testing.assert_allclose(float(spec.dual(x, y, p)), f, rtol=1e-11)

    def test_one_homogeneity(self, rng):
        for _ in range(20):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            np.testing.assert_allclose(spec.legendre(x, y, 2.0 * v),
                                       2.0 * spec.legendre(x, y, v), rtol=1e-12)

    def test_randers_unit_vector_maps_to_unit_covector(self, rng):
        for _ in range(20):
            spec = random_randers(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            v = v / float(spec.value(x, y, v))
            p = spec.legendre(x, y, v)
            np.testing.assert_allclose(float(p @ v), 1.0, rtol=1e-12)
            np.testing.assert_allclose(float(spec.dual(x, y, p)), 1.0, rtol=1e-12)

    def test_zero_vector_raises(self, rng):
        spec = random_metric(rng)
        with pytest.raises(ValueError):
            spec.legendre(0.1, 0.1, [0.0, 0.0])
        with pytest.raises(ValueError):
            spec.dual_gradient(0.1, 0.1, [0.0, 0.0])


class TestDualGradient:
    def test_euclidean_identity(self):
        e = RiemannianMetric.euclidean()
        np.testing.assert_allclose(e.dual_gradient(0.0, 0.0, [1.0, 0.0]),
                                   [1.0, 0.0], atol=1e-15)

    def test_inverse_of_legendre(self, rng):
        # legendre(dual_gradient(p)) returns p itself
        for _ in range(60):
            spec = random_metric(rng)
            x, y = random_point(rng)
            p = random_vector(rng)
            v = spec.dual_gradient(x, y, p)
            np.testing.assert_allclose(spec.legendre(x, y, v), p, rtol=1e-8)

    def test_defining_identities(self, rng):
        # p(v) = F*(p)^2 and F(v) = F*(p)
        for _ in range(60):
            spec = random_metric(rng)
            x, y = random_point(rng)
            p = random_vector(rng)
            v = spec.dual_gradient(x, y, p)
            fs = float(spec.dual(x, y, p))
            np.testing.assert_allclose(float(p @ v), fs * fs, rtol=1e-11)
            np.testing.assert_allclose(float(spec.value(x, y, v)), fs, rtol=1e-11)

    def test_roundtrip_on_unit_vectors(self, rng):
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            v = v / float(spec.value(x, y, v))
            back = spec.dual_gradient(x, y, spec.legendre(x, y, v))
            np.testing.assert_allclose(back, v, rtol=1e-6)

    def test_roundtrip_generic_numeric_path(self, rng):
        # sampled dual norm + finite differences, no closed forms
        spec = random_randers(rng)
        for _ in range(3):
            x, y = random_point(rng)
            v = random_vector(rng)
            v = v / float(spec.value(x, y, v))
            p = legendre_numeric(spec, x, y, v)
            back = dual_gradient_numeric(spec, x, y, p)
            np.testing.assert_allclose(back, v, rtol=1e-4)

    def test_conformal_scaling_with_finite_differences(self, rng):
        # dual_gradient of e^f F is e^(-2f) times the base one; cross-check the
        # implementation against central differences of (1/2) F*^2.
        base = random_randers(rng)
        conf = ConformalMetric(base, "0.3*sin(2*pi*x)")
        for _ in range(5):
            x, y = random_point(rng)
            p = random_vector(rng)
            scale = float(np.exp(-2 * 0.3 * np.sin(2 * np.pi * x)))
            got = conf.dual_gradient(x, y, p)
            np.testing.assert_allclose(got, scale * base.dual_gradient(x, y, p),
                                       rtol=1e-12)
            h = 1e-5 * float(np.linalg.norm(p))
            fd = np.empty(2)
            for i, e in enumerate(np.eye(2)):
                fd[i] = (float(conf.dual(x, y, p + h * e)) ** 2
                         - float(conf.dual(x, y, p - h * e)) ** 2) / (4 * h)
            np.testing.assert_allclose(got, fd, rtol=1e-7)


class TestQuasireversibility:
    def test_riemannian_is_one(self, rng):
        for varying in (False, True):
            spec = random_metric(rng, allow_conformal=False)
            while spec.variant != "riemannian":
                spec = random_metric(rng, allow_conformal=False)
            assert abs(quasireversibility(spec) - 1.0) < 1e-9

    def test_randers_closed_form_and_oracle(self):
        eta = 0.6
        spec = RandersMetric.axis_drift_torus(2.0, eta)

        # 1-d maximization oracle over the unit circle at a fixed point
        def neg_ratio(phi):
            v = np.array([np.cos(phi), np.sin(phi)])
            return -float(spec.value(0.0, 0.0, -v)) / float(spec.value(0.0, 0.0, v))

        res = minimize_scalar(neg_ratio, bounds=(0.0, 2 * np.pi), method="bounded",
                              options={"xatol": 1e-12})
        oracle = -res.fun
        expected = (1 + eta) / (1 - eta)
        c1 = quasireversibility(spec, direction_samples=4096)
        np.testing.assert_allclose(oracle, expected, rtol=1e-10)
        np.testing.assert_allclose(c1, expected, rtol=1e-9)

    def test_eta_zero_reversible(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.0)
        assert abs(quasireversibility(spec) - 1.0) < 1e-12

    def test_monotone_under_nested_refinement(self):
        # sampled sup grows when the sample sets are refined in place
        # (directions double, point mesh doubles per axis)
        spec = RandersMetric.axis_drift_torus(1.5, 0.8,
                                              profile="0.6 + 0.3*sin(2*pi*y)")
        values = [quasireversibility(spec, direction_samples=n, point_samples=m,
                                     refine=False)
                  for n, m in [(64, 64), (128, 256), (256, 1024), (512, 4096)]]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_minimum_samples(self):
        spec = RiemannianMetric.euclidean()
        with pytest.raises(ValueError):
            quasireversibility(spec, direction_samples=8)


class TestBilipschitzRatio:
    def test_identical_metrics(self):
        g = RiemannianMetric(2.0, 0.3, 1.5)
        lo, hi = bilipschitz_ratio(g, g)
        np.testing.assert_allclose([lo, hi], [1.0, 1.0], rtol=1e-12)

    def test_constant_scaling(self):
        g = RiemannianMetric(2.0, 0.3, 1.5)
        doubled = ConformalMetric(g, np.log(2.0))
        lo, hi = bilipschitz_ratio(doubled, g)
        np.testing.assert_allclose([lo, hi], [2.0, 2.0], rtol=1e-12)

    def test_randers_vs_base(self):
        # F/sqrt(g) = 1 + rho(u)/|u|_g ranges over [1 - eta_max, 1 + eta_max]
        spec = RandersMetric.axis_drift_torus(2.0, 0.8,
                                              profile="0.5 + 0.4*sin(2*pi*y)")
        lo, hi = bilipschitz_ratio(spec, spec.base, direction_samples=4096,
                                   point_samples=4096)
        eta_max = 0.8 * 0.9
        np.testing.assert_allclose([lo, hi], [1 - eta_max, 1 + eta_max],
                                   rtol=1e-5)

    def test_metric_constants_bundle(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.5)
        lo, hi = bilipschitz_ratio(spec, spec.base)
        assert quasireversibility(spec) == pytest.approx(3.0, rel=1e-9)
        assert lo == pytest.approx(0.5, rel=1e-9)
        assert hi == pytest.approx(1.5, rel=1e-9)


class TestStrongConvexity:
    def test_riemannian(self, rng):
        g = random_metric(rng, allow_conformal=False)
        assert check_strong_convexity(g, 0.3, 0.6)

    def test_admissible_randers(self, rng):
        spec = random_randers(rng, eta_max=0.9)
        assert check_strong_convexity(spec, 0.3, 0.6)

    def test_inadmissible_randers_fails(self):
        bad = RandersMetric(RiemannianMetric.euclidean(), 1.05, 0.0,
                            check_admissible=False)
        assert not check_strong_convexity(bad, 0.3, 0.6)


class TestDualityConsistency:
    def test_dual_of_legendre_everywhere(self, rng):
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            p = spec.legendre(x, y, v)
            np.testing.assert_allclose(float(spec.dual(x, y, p)),
                                       float(spec.value(x, y, v)), rtol=1e-11)

    def test_conformal_duality(self, rng):
        for _ in range(100):
            base = random_metric(rng, allow_conformal=False)
            amp = float(rng.uniform(-0.5, 0.5))
            conf = ConformalMetric(base, amp)
            x, y = random_point(rng)
            p = random_vector(rng)
            np.testing.assert_allclose(
                float(conf.dual(x, y, p)),
                float(base.dual(x, y, p)) * np.exp(-amp), rtol=1e-13)
