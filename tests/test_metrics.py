"""Metric families: norms, duals, Legendre maps, coarse constants."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fspec import (ConformalMetric, IllPosedMetricError, RandersMetric,
                   RiemannianMetric, as_field)
from conftest import (metric_matrix, random_metric, random_point, random_randers,
                      random_vector)
from oracles import (bilipschitz_ratio, check_strong_convexity,
                     dual_gradient_numeric, dual_norm_sampled, legendre_numeric,
                     quasireversibility)


class TestFields:
    # nodes on a dyadic grid, so that x + 1 and y - 3 reduce back to them
    # exactly
    X = np.arange(8)[:, None] / 8.0
    Y = np.arange(4)[None, :] / 4.0

    @pytest.mark.parametrize("field", [
        as_field("x + 10*y"), as_field(lambda x, y: x + 10 * y)],
        ids=["expression", "callable"])
    def test_coordinates_reduced_where_read(self, field):
        # x + 10 y is not periodic: unreduced coordinates would move it by -29
        want = self.X + 10 * self.Y
        assert np.array_equal(field(self.X, self.Y), want)
        assert np.array_equal(field(self.X + 1.0, self.Y - 3.0), want)

    def test_constant_returns_its_value(self):
        value = as_field(2.5)(self.X + 1.0, self.Y - 3.0)
        assert value.shape == () and value == 2.5


class TestForwardNorm:
    def test_riemannian_axis(self):
        g = RiemannianMetric.stretched(2.0, 0.5)
        assert np.isclose(float(g.value(0.3, 0.8, [1.0, 0.0])), 2.0, rtol=1e-15)

    @pytest.mark.parametrize("h, r", [(0.0, None), (-1.0, None), (2.0, 0.0),
                                      (2.0, -0.5)])
    def test_stretched_rejects_nonpositive_lengths(self, h, r):
        # squaring a negative length would hide its sign
        with pytest.raises(ValueError, match="positive"):
            RiemannianMetric.stretched(h, r)

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
            if not isinstance(spec, RiemannianMetric):
                continue
            x, y = random_point(rng)
            p = random_vector(rng)
            gi = np.linalg.inv(metric_matrix(spec, x, y))
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
                                   metric_matrix(g, 0.2, 0.4) @ v, rtol=1e-14)

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
            while not isinstance(spec, RiemannianMetric):
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
        class Inadmissible:
            """F = |v| + 1.05 v_x: a drift outside the unit ball, which the
            three families refuse to evaluate."""

            def value(self, x, y, v):
                v = np.asarray(v, dtype=float)
                return np.hypot(v[..., 0], v[..., 1]) + 1.05 * v[..., 0]

        assert not check_strong_convexity(Inadmissible(), 0.3, 0.6)


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


def pointwise_randers(spec, x, y):
    """(g, rho) with spec = sqrt(g) + rho at the point (x, y), read from the
    public coefficient fields of each family: a factor e^f gives
    (e^{2f} g, e^f rho)."""
    if isinstance(spec, ConformalMetric):
        g, rho = pointwise_randers(spec.base, x, y)
        s = float(np.exp(spec.exponent(x, y)))
        return s * s * g, s * rho
    if isinstance(spec, RandersMetric):
        rho = np.array([float(spec.rho_x(x, y)), float(spec.rho_y(x, y))])
        return metric_matrix(spec.base, x, y), rho
    return metric_matrix(spec, x, y), np.zeros(2)


class TestRandersCore:
    def test_conformal_equals_folded_randers(self, rng):
        # every family is the Randers metric of its folded pair
        # (e^{2f} g, e^f rho); nested factors come from random_metric
        for _ in range(60):
            base = random_metric(rng)
            amp = float(rng.uniform(-0.5, 0.5))
            spec = ConformalMetric(base, f"{amp}*cos(2*pi*(x - y))")
            x, y = random_point(rng)
            g, rho = pointwise_randers(spec, x, y)
            folded = RandersMetric(RiemannianMetric(g[0, 0], g[0, 1], g[1, 1]),
                                   rho[0], rho[1])
            for _ in range(3):
                v = random_vector(rng)
                for op in ("value", "dual", "legendre", "dual_gradient"):
                    np.testing.assert_allclose(
                        getattr(spec, op)(x, y, v), getattr(folded, op)(x, y, v),
                        rtol=1e-13, err_msg=op)

    def test_conformal_base_must_be_a_family(self):
        # the factor folds into the base's (g, rho), which only the three
        # families supply
        with pytest.raises(TypeError):
            ConformalMetric(object(), 0.1)

    def test_inadmissible_drift_raises_under_a_factor(self):
        # every operation checks |rho|_{g*} < 1, also through a conformal
        # factor, which leaves |rho|_{g*} unchanged
        bad = RandersMetric(RiemannianMetric.euclidean(), 1.05, 0.0)
        for spec in (bad, ConformalMetric(bad, 0.2)):
            for op in (spec.value, spec.legendre, spec.dual, spec.dual_gradient):
                with pytest.raises(IllPosedMetricError):
                    op(0.3, 0.6, [1.0, 0.0])

    @pytest.mark.parametrize("spec", [
        RiemannianMetric(np.nan, 0.0, 1.0),
        RiemannianMetric(1.0, np.nan, 1.0),
        RandersMetric(RiemannianMetric.euclidean(), np.nan, 0.0),
        RandersMetric.axis_drift_torus(2.0, 0.5, profile=np.nan),
        ConformalMetric(RiemannianMetric.euclidean(), np.nan),
    ], ids=["g11", "g12", "drift", "profile", "factor"])
    def test_nan_data_raises(self, spec):
        # NaN compares false both ways: the admissibility tests ask that
        # every entry pass, so a NaN entry fails them
        for op in (spec.value, spec.legendre, spec.dual, spec.dual_gradient):
            with pytest.raises(IllPosedMetricError):
                op(0.3, 0.6, [1.0, 0.0])
