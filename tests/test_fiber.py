"""Fiber quadrature: volume density, symbol, weight, Binet-Legendre, conformal."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

import fspec.fiber
import oracles
from fspec import (ConformalMetric, IllPosedMetricError,
                   QuadratureError, RandersMetric, RiemannianMetric,
                   SymbolField, TorusGrid, as_field,
                   binet_legendre, conformal_transform, energy_from_symbol,
                   randers_angular_closed_forms, randers_angular_integrals,
                   randers_axis_symbol, randers_energy_direct)
from fspec.metrics import _Folded
from conftest import (circle_rule, metric_matrix, random_metric, random_point,
                      random_randers)
from oracles import (bilipschitz_ratio, quasireversibility, symbol_matrix,
                     volume_density)
from oracles import binet_legendre as binet_legendre_rule

NODES = 256

# One Randers metric per shape of variation over the grid
VARYING_METRICS = {
    "constant": RandersMetric(RiemannianMetric(1.5, 0.3, 1.0), 0.2, 0.1),
    "x-only": RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*x)", 0.3, 1.0),
                            "0.2*cos(2*pi*x)", 0.1),
    "y-only": RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*y)", 0.3, 1.0),
                            "0.2*cos(2*pi*y)", 0.1),
    "2-d": RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*x)", 0.3, 1.0),
                         "0.2*cos(2*pi*y)", "0.1*sin(2*pi*x)"),
}
# the drift profile steps up on the line x = 0.25 alone
ONE_LINE_METRIC = RandersMetric.axis_drift_torus(
    2.0, 0.9, profile=lambda x, y: 0.5 + 0.2 * (abs(x - 0.25) < 1e-12))


ORACLE = 4096


@st.composite
def admissible_metrics(draw, eta_max=0.99):
    """Constant SPD g with g12 != 0, optionally a y-varying drift with both
    components and |rho|_{g*} <= eta_max, wrapped in zero to two conformal
    factors."""
    angle = draw(st.floats(0.1, 1.4))
    low = draw(st.floats(0.3, 3.0))
    eigs = np.array([low, low * draw(st.floats(1.5, 8.0))])
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    g = rot @ np.diag(eigs) @ rot.T
    spec = RiemannianMetric(g[0, 0], g[0, 1], g[1, 1])
    if draw(st.booleans()):
        eta = draw(st.floats(0.0, eta_max))
        phi = draw(st.floats(0.0, 2.0 * np.pi))
        # rho = eta p(y) g^(1/2) u with 0.5 <= p <= 1 has |rho|_{g*} <= eta
        root_g = rot @ np.diag(np.sqrt(eigs)) @ rot.T
        rx, ry = map(float, eta * root_g @ [np.cos(phi), np.sin(phi)])
        profile = "(0.75 + 0.25*sin(2*pi*y))"
        spec = RandersMetric(spec, f"{rx!r}*{profile}", f"{ry!r}*{profile}")
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
        spec = ConformalMetric(spec, f"{a!r}*sin(2*pi*x) + {b!r}*cos(2*pi*y)")
    return spec


def node_gap(a, b):
    """Largest entry of |a - b| over the largest of |b|, at each node of
    (..., 2, 2) matrix fields: cross terms can be roundoff in one route and
    exactly 0 in the other."""
    return np.abs(a - b).max(axis=(-2, -1)) / np.abs(b).max(axis=(-2, -1))


class TestQuadratureRule:
    def test_rule_integrates_one_to_2pi(self):
        # F* = 1 on the Euclidean circle, so mu = 1 iff the n weights sum
        # to 2 pi
        for n in (16, 256, 1000):
            mu = volume_density(RiemannianMetric.euclidean(), 0.3, 0.7, n)
            assert abs(float(mu) - 1.0) < 1e-12

    @pytest.mark.parametrize("count", [0, 8, 512.5])
    @pytest.mark.parametrize("entry", [
        "volume_density", "symbol_matrix",
        "randers_energy_direct", "randers_angular_integrals",
        "SymbolField.compute"])
    def test_bad_node_count_raises(self, entry, count):
        # every entry point that takes a node count, the package's and the
        # pointwise oracles built on its rule, refuses fewer than 16 nodes
        # and a count that is not an integer
        spec = RandersMetric.axis_drift_torus(2.0, 0.6)
        grid = TorusGrid.square(8)
        calls = {
            "volume_density": lambda: volume_density(spec, 0.3, 0.7, count),
            "symbol_matrix": lambda: symbol_matrix(spec, 0.3, 0.7, count),
            "randers_energy_direct": lambda: randers_energy_direct(
                spec, [sin_x_cos_y_gradient], grid, count),
            "randers_angular_integrals": lambda: randers_angular_integrals(
                0.5, count),
            "SymbolField.compute": lambda: SymbolField.compute(spec, grid, count),
        }
        with pytest.raises(ValueError, match="at least 16"):
            calls[entry]()


class TestVolumeDensity:
    def test_euclidean_is_one(self):
        mu = volume_density(RiemannianMetric.euclidean(), 0.3, 0.7, NODES)
        assert isinstance(mu, np.floating)  # a scalar node gives a scalar
        np.testing.assert_allclose(mu, 1.0, rtol=1e-12)

    def test_riemannian_sqrt_det(self):
        h, r = 2.0, 0.5
        g = RiemannianMetric.stretched(h, r)
        mu = float(volume_density(g, 0.1, 0.9, NODES))

        # independent oracle: (1/2pi) Int dphi / (cos^2/h^2 + sin^2/r^2)
        oracle, _ = scipy_quad(
            lambda t: 1.0 / (np.cos(t) ** 2 / h**2 + np.sin(t) ** 2 / r**2),
            0.0, 2 * np.pi)
        oracle /= 2 * np.pi
        np.testing.assert_allclose(mu, oracle, rtol=1e-10)
        np.testing.assert_allclose(mu, h * r, rtol=1e-10)

    def test_randers_volume_identity(self):
        # the drift does not change the volume density, constant or not
        grid_t = np.linspace(0.0, 1.0, 9)[:-1]
        for profile in (1.0, "0.5 + 0.4*sin(2*pi*y)"):
            spec = RandersMetric.axis_drift_torus(2.0, 0.9, profile=profile)
            mu_r = volume_density(spec, grid_t[:, None], grid_t[None, :], NODES)
            mu_0 = volume_density(spec.base, grid_t[:, None], grid_t[None, :], NODES)
            assert float(np.abs(mu_r - mu_0).max()) < 1e-8

    @pytest.mark.parametrize("spec", [
        RandersMetric(RiemannianMetric("2 + 0.3*sin(2*pi*x)",
                                       "0.4*cos(2*pi*(x - y))",
                                       "1 + 0.2*cos(2*pi*y)"),
                      "0.5*sin(2*pi*(x + y))", "0.3*cos(2*pi*x)"),
        ConformalMetric(RandersMetric.axis_drift_torus(
            2.0, 0.9, profile="0.5 + 0.4*sin(2*pi*y)"),
            "0.3*sin(2*pi*x)*cos(2*pi*y)"),
    ], ids=["randers-xy", "conformal"])
    def test_symbol_density_matches_dual_route(self, spec):
        # the oracle's mu takes F*^2 = p . dual_gradient(p) (Euler);
        # volume_density takes spec.dual: two routes to the same integral
        grid = TorusGrid(12, 16)
        mu_dual = volume_density(spec, *grid.mesh(), NODES)
        mu_euler = SymbolField.compute(spec, grid, NODES).mu
        np.testing.assert_allclose(mu_euler, mu_dual, rtol=1e-14, atol=0.0)


class TestSymbol:
    def test_euclidean_identity(self):
        sig = symbol_matrix(RiemannianMetric.euclidean(), 0.2, 0.4, NODES)
        assert sig.shape == (2, 2)
        np.testing.assert_allclose(sig, np.eye(2), atol=1e-12)

    def test_riemannian_inverse(self, rng):
        for _ in range(10):
            spec = random_metric(rng, allow_conformal=False)
            while not isinstance(spec, RiemannianMetric):
                spec = random_metric(rng, allow_conformal=False)
            x, y = random_point(rng)
            gi = np.linalg.inv(metric_matrix(spec, x, y))
            sig = symbol_matrix(spec, x, y, NODES)
            assert float(np.abs(sig - gi).max() / np.abs(gi).max()) < 1e-8

    def test_randers_axis_closed_form(self):
        h, eta = 2.0, 0.6
        spec = RandersMetric.axis_drift_torus(h, eta)
        A, B = randers_axis_symbol(h, 1.0 / h, eta)
        sig = symbol_matrix(spec, 0.3, 0.3, NODES)
        np.testing.assert_allclose(sig, np.diag([A, B]), atol=1e-10 * max(A, B))

    def test_spd_property(self, rng):
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            sig = symbol_matrix(spec, x, y, NODES)
            assert sig[0, 0] > 0
            assert np.linalg.det(sig) > 0
            np.testing.assert_allclose(sig[0, 1], sig[1, 0], rtol=1e-12)

    def test_fiber_normalization(self, rng):
        # the fiber density (1/mu) F*^(-2) integrates to 2 pi at every point
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            covs, weight = circle_rule(NODES)
            dual = spec.dual(np.asarray(x)[..., None], np.asarray(y)[..., None], covs)
            mu = float(volume_density(spec, x, y, NODES))
            total = float((weight / dual**2).sum()) / mu
            assert abs(total - 2 * np.pi) < 1e-10

    def test_quadrature_convergence_doubling(self, rng):
        # smooth specs: 256 -> 512 nodes moves mu and sigma* by < 1e-10
        for _ in range(5):
            spec = random_randers(rng, eta_max=0.7)
            x, y = random_point(rng)
            mu_a = float(volume_density(spec, x, y, NODES))
            mu_b = float(volume_density(spec, x, y, 512))
            assert abs(mu_a - mu_b) < 1e-10
            sig_a = symbol_matrix(spec, x, y, NODES)
            sig_b = symbol_matrix(spec, x, y, 512)
            assert float(np.abs(sig_a - sig_b).max()) < 1e-10

    def test_mu_bound_from_bilipschitz(self, rng):
        # C-bi-Lipschitz to Euclidean controls mu within [C^-2, C^2]
        e = RiemannianMetric.euclidean()
        for _ in range(10):
            spec = random_metric(rng)
            lo, hi = bilipschitz_ratio(spec, e, direction_samples=2048,
                                       point_samples=1024)
            big_c = max(hi, 1.0 / lo) * (1 + 1e-9)
            x, y = random_point(rng)
            mu = float(volume_density(spec, x, y, NODES))
            assert big_c**-2 <= mu <= big_c**2

    def test_degenerate_guard(self):
        # exp(f) with huge f drives F* below the safety floor
        tiny = ConformalMetric(RiemannianMetric.euclidean(), 20.0)
        with pytest.raises(IllPosedMetricError):
            volume_density(tiny, 0.1, 0.1, NODES)
        with pytest.raises(IllPosedMetricError):
            symbol_matrix(tiny, 0.1, 0.1, NODES)


class TestRandersClosedForms:
    def test_axis_symbol_eta_zero(self):
        A, B = randers_axis_symbol(2.0, 0.5, 0.0)
        np.testing.assert_allclose([A, B], [0.25, 4.0], rtol=1e-15)

    def test_axis_symbol_frozen_values(self):
        # h = r = 1, eta = 0.6: s = 0.8, A = 2/(1.8*0.8) = 25/18, B = 2/1.8 = 10/9
        A, B = randers_axis_symbol(1.0, 1.0, 0.6)
        np.testing.assert_allclose(A, 25.0 / 18.0, rtol=1e-15)
        np.testing.assert_allclose(B, 10.0 / 9.0, rtol=1e-15)

    def test_axis_symbol_algebraic_identity(self, rng):
        for _ in range(50):
            h = float(rng.uniform(0.5, 4.0))
            eta = float(rng.uniform(0.0, 0.999))
            A, _ = randers_axis_symbol(h, 1.0, eta)
            s = np.sqrt(1 - eta**2)
            np.testing.assert_allclose(A * (1 + s) * s * h**2 / 2.0, 1.0,
                                       rtol=1e-12)

    def test_axis_symbol_rejects_bad_eta(self):
        with pytest.raises(IllPosedMetricError):
            randers_axis_symbol(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("eta", [1.0, 1.5, -0.5])
    def test_angular_closed_forms_reject_bad_eta(self, eta):
        # the integrals refuse these drifts; their closed forms must too,
        # not return inf or nan, nor a value for a negative ratio
        with pytest.raises(IllPosedMetricError):
            randers_angular_closed_forms(eta)

    def test_angular_integrals_match_closed_forms(self):
        for eta in (0.1, 0.5, 0.9, 0.99):
            got = randers_angular_integrals(eta, 512)
            want = randers_angular_closed_forms(eta)
            assert abs(got[0] - want[0]) < 1e-8
            assert abs(got[1]) < 1e-10
            assert abs(got[2] - want[2]) < 1e-8

    def test_angular_integrals_against_adaptive_quadrature(self):
        # independent oracle for the same integrals
        for eta in (0.3, 0.8):
            c2, _ = scipy_quad(lambda t: np.cos(t) ** 2 / (1 + eta * np.cos(t)),
                               0.0, 2 * np.pi)
            s2, _ = scipy_quad(lambda t: np.sin(t) ** 2 / (1 + eta * np.cos(t)),
                               0.0, 2 * np.pi)
            got = randers_angular_integrals(eta, 512)
            np.testing.assert_allclose(got[0], c2, rtol=1e-10)
            np.testing.assert_allclose(got[2], s2, rtol=1e-10)

    def test_axis_symbol_vs_quadrature(self):
        # A = h^-2/pi * Int cos^2/(1 + eta cos)
        h, eta = 1.7, 0.85
        A, B = randers_axis_symbol(h, 1.0 / h, eta)
        c2, _, s2 = randers_angular_integrals(eta, 512)
        np.testing.assert_allclose(A, c2 / (np.pi * h**2), rtol=1e-12)
        np.testing.assert_allclose(B, s2 * h**2 / np.pi, rtol=1e-12)


def weight(sig, mu):
    """The weight a of SymbolField at one node given sigma* and mu."""
    return SymbolField(TorusGrid.square(8), sig, mu, 0).a[0, 0]


class TestWeight:
    def test_riemannian_weight_is_one(self, rng):
        for _ in range(10):
            spec = random_metric(rng, allow_conformal=False)
            while not isinstance(spec, RiemannianMetric):
                spec = random_metric(rng, allow_conformal=False)
            x, y = random_point(rng)
            mu = volume_density(spec, x, y, NODES)
            sig = symbol_matrix(spec, x, y, NODES)
            np.testing.assert_allclose(float(weight(sig, mu)), 1.0, rtol=1e-8)

    def test_randers_torus_constant_weight(self):
        # unit-volume torus: mu = 1, so a = sqrt(A B)
        h, eta = 2.0, 0.6
        spec = RandersMetric.axis_drift_torus(h, eta)
        A, B = randers_axis_symbol(h, 1.0 / h, eta)
        mu = volume_density(spec, 0.4, 0.2, NODES)
        sig = symbol_matrix(spec, 0.4, 0.2, NODES)
        np.testing.assert_allclose(float(weight(sig, mu)), np.sqrt(A * B),
                                   rtol=1e-10)

    def test_weight_is_conformal_invariant_on_surfaces(self, rng):
        for _ in range(20):
            sig = np.array([[2.0, 0.3], [0.3, 1.0]])
            mu = 1.7
            f = float(rng.uniform(-1.0, 1.0))
            sig2, mu2 = conformal_transform(sig, mu, f)
            np.testing.assert_allclose(float(weight(sig2, mu2)),
                                       float(weight(sig, mu)), rtol=1e-12)


class TestBinetLegendre:
    def test_euclidean_identity(self):
        bl = binet_legendre(RiemannianMetric.euclidean(), 0.2, 0.8)
        assert bl.shape == (2, 2)
        assert np.array_equal(bl, np.eye(2))

    def test_riemannian_reduction(self, rng):
        # rho = 0 and w = 1: the closed form returns g bit for bit, at a
        # point and on a grid, as a view at the nodes' shape
        for _ in range(10):
            spec = random_metric(rng, allow_conformal=False)
            while not isinstance(spec, RiemannianMetric):
                spec = random_metric(rng, allow_conformal=False)
            x, y = random_point(rng)
            assert np.array_equal(binet_legendre(spec, x, y),
                                  metric_matrix(spec, x, y))
        grid = TorusGrid(12, 16)
        x, y = grid.mesh()
        for spec in (RiemannianMetric(2.0, 0.3, 1.0),
                     RiemannianMetric("2 + 0.3*sin(2*pi*x)",
                                      "0.4*cos(2*pi*(x - y))",
                                      "1 + 0.2*cos(2*pi*y)")):
            g = [np.broadcast_to(part(x, y), (12, 16))
                 for part in (spec.g11, spec.g12, spec.g22)]
            bl = binet_legendre(spec, x, y)
            assert bl.shape == (12, 16, 2, 2)
            assert np.array_equal(bl, np.stack(
                [np.stack(g[:2], -1), np.stack(g[1:], -1)], -2))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(admissible_metrics(eta_max=0.9))
    def test_matches_quadrature_oracle(self, spec):
        # the Zermelo ellipse's second moment in closed form against the
        # moments of the forward unit ball by the 4096-node rule, per node
        # relative to its largest entry
        grid = TorusGrid(12, 16)
        x, y = grid.mesh()
        rule = binet_legendre_rule(spec, x, y, ORACLE)
        assert float(node_gap(binet_legendre(spec, x, y), rule).max()) <= 1e-13

    @pytest.mark.parametrize("spec", [
        RandersMetric.axis_drift_torus(2.0, 0.99),
        ConformalMetric(RandersMetric.axis_drift_torus(
            2.0, 0.99, profile="0.5 + 0.5*sin(2*pi*y)"), "0.3*sin(2*pi*x)"),
    ], ids=["axis-torus", "conformal-y-profile"])
    def test_near_degenerate_drift(self, spec):
        # at eta = 0.99 the ball's far end sharpens the rule's integrand;
        # the oracle's rule still resolves it, and the closed form stays SPD
        grid = TorusGrid(12, 16)
        x, y = grid.mesh()
        bl = binet_legendre(spec, x, y)
        rule = binet_legendre_rule(spec, x, y, ORACLE)
        assert float(node_gap(bl, rule).max()) <= 1e-13
        assert np.all(np.linalg.det(bl) > 0.0)

    def test_randers_bilipschitz_bounds(self, rng):
        # F and sqrt(g_BL) are (2c)^3-bi-Lipschitz for measured quasireversibility c
        spec = RandersMetric.axis_drift_torus(2.0, 0.5)
        c = quasireversibility(spec)
        lo, hi = (2 * c) ** -3, (2 * c) ** 3
        xs = rng.random(100)
        ys = rng.random(100)
        bl = binet_legendre(spec, xs[:, None], ys[:, None])[:, 0]
        vs = rng.normal(size=(100, 2))
        fv = spec.value(xs, ys, vs)
        bl_norm = np.sqrt(np.einsum("kij,ki,kj->k", bl, vs, vs))
        ratio = fv / bl_norm
        assert float(ratio.min()) > lo
        assert float(ratio.max()) < hi

    def test_symbol_vs_binet_legendre_ratio_bounded(self, rng):
        # the symbol form stays positive and bounded against the averaged metric
        for _ in range(10):
            spec = random_metric(rng)
            x, y = random_point(rng)
            sig = symbol_matrix(spec, x, y, NODES)
            bl = binet_legendre(spec, x, y)
            bl_dual = np.linalg.inv(bl)
            for p in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      np.array([1.0, 1.0])):
                ratio = float(p @ sig @ p) / float(p @ bl_dual @ p)
                assert 0.0 < ratio < np.inf
                assert 1e-6 < ratio < 1e6


class TestConformalTransform:
    def test_zero_exponent_identity(self):
        sig = np.array([[2.0, 0.1], [0.1, 0.5]])
        sig2, mu2 = conformal_transform(sig, 1.3, 0.0)
        np.testing.assert_allclose(sig2, sig)
        np.testing.assert_allclose(mu2, 1.3)

    def test_log2_scales_by_four(self):
        sig = np.array([[2.0, 0.1], [0.1, 0.5]])
        sig2, mu2 = conformal_transform(sig, 1.3, np.log(2.0))
        np.testing.assert_allclose(mu2, 4 * 1.3, rtol=1e-15)
        np.testing.assert_allclose(sig2, sig / 4, rtol=1e-15)

    def test_pipeline_composite(self):
        # symbol of exp(f) F from scratch vs transformed symbol of F
        base = RandersMetric.axis_drift_torus(2.0, 0.6)
        conf = ConformalMetric(base, "0.3*sin(2*pi*x)")
        t = np.linspace(0.0, 1.0, 13)[:-1]
        x, y = t[:, None], t[None, :]
        sig_scratch = symbol_matrix(conf, x, y, NODES)
        mu_scratch = volume_density(conf, x, y, NODES)
        sig_base = symbol_matrix(base, x, y, NODES)
        mu_base = volume_density(base, x, y, NODES)
        f_vals = conf.exponent(x, y)
        sig_t, mu_t = conformal_transform(sig_base, mu_base, f_vals)
        assert float(np.abs(sig_scratch - sig_t).max()) < 1e-8
        assert float(np.abs(mu_scratch - mu_t).max()) < 1e-8


class TestSymbolField:
    def test_compute_matches_pointwise(self):
        # the second case spans about four row blocks of a drift that varies
        # in x and y, so a block written to the wrong rows would show
        h, r, eta = 2.0, 0.5, 0.6
        profile = "0.5 + 0.4*sin(2*pi*x)*cos(2*pi*y)"
        cases = [(1.0, TorusGrid.square(8), NODES),
                 (profile, TorusGrid(40, 24), 1024)]
        for prof, grid, nodes in cases:
            spec = RandersMetric.axis_drift_torus(h, eta, profile=prof)
            field = SymbolField.compute(spec, grid, nodes)
            x, y = grid.mesh()
            np.testing.assert_allclose(field.mu, volume_density(spec, x, y, nodes),
                                       rtol=1e-14)
            np.testing.assert_allclose(field.sigma_star,
                                       symbol_matrix(spec, x, y, nodes),
                                       rtol=1e-14)
            # a = h r sqrt(A B) with the local drift ratio eta p(x, y)
            etas = eta * np.broadcast_to(as_field(prof)(x, y), field.mu.shape)
            a = [h * r * np.sqrt(np.prod(randers_axis_symbol(h, r, e)))
                 for e in etas.ravel()]
            np.testing.assert_allclose(field.a.ravel(), a, rtol=1e-10)

    def test_compute_evaluates_dual_once(self, monkeypatch):
        # F*^2 comes from Euler's identity p . dual_gradient(p), so each
        # block of the nodes the kernel sees needs one dual_gradient fiber
        # formula on the folded metric and no dual: one distinct line for a
        # constant metric, all 64 nodes of the 8 x 8 grid for a 2-D one
        calls = []
        for name in ("dual", "dual_gradient"):
            def counting(fold, p, name=name, formula=getattr(_Folded, name)):
                calls.append(name)
                return formula(fold, p)

            monkeypatch.setattr(_Folded, name, counting)
        for spec, lines in ((RandersMetric.axis_drift_torus(2.0, 0.6), 1),
                            (VARYING_METRICS["2-d"], 64)):
            calls.clear()
            SymbolField.compute(spec, TorusGrid.square(8), NODES)
            blocks = -(-lines * NODES // fspec.fiber._BLOCK)
            assert calls == ["dual_gradient"] * blocks

    def test_kernel_rows_per_metric_shape(self, monkeypatch):
        # every fiber oracle runs its kernel once per distinct metric line:
        # the axes along which the folded metric repeats exactly are dropped
        grid = TorusGrid(40, 24)
        nodes = 1024
        x, y = grid.mesh()
        over_nodes = fspec.fiber._over_nodes
        rows = []

        def counting(kernel, columns, fiber_size):
            def counted(*block):
                rows[-1] += len(block[0])
                return kernel(*block)

            return over_nodes(counted, columns, fiber_size)

        # the pointwise oracles of the tests run the package's loop too
        monkeypatch.setattr(fspec.fiber, "_over_nodes", counting)
        monkeypatch.setattr(oracles, "_over_nodes", counting)
        for name, lines in (("constant", 1), ("x-only", 40), ("y-only", 24),
                            ("2-d", 960)):
            spec = VARYING_METRICS[name]
            rows.clear()
            for oracle in (lambda: SymbolField.compute(spec, grid, nodes),
                           lambda: randers_energy_direct(
                               spec, [sin_x_cos_y_gradient], grid, nodes),
                           lambda: volume_density(spec, x, y, nodes),
                           lambda: symbol_matrix(spec, x, y, nodes),
                           lambda: binet_legendre_rule(spec, x, y, nodes)):
                rows.append(0)
                oracle()
            assert rows == [lines] * 5, name

    @pytest.mark.parametrize("name", [*VARYING_METRICS, "one-line"])
    def test_oracles_equal_pointwise_evaluation(self, name):
        # the field at a node is the oracle at that node alone, bit for bit,
        # and so is the closed-form Binet-Legendre metric; "one-line" differs
        # from the rest on the interior line x = 0.25 only, so a reduction
        # that compares some lines and not all fails
        spec = VARYING_METRICS.get(name, ONE_LINE_METRIC)
        grid = TorusGrid(40, 24)
        nodes = 512
        x, y = grid.mesh()
        field = SymbolField.compute(spec, grid, nodes)
        full = (volume_density(spec, x, y, nodes), symbol_matrix(spec, x, y, nodes),
                binet_legendre_rule(spec, x, y, nodes), field.sigma_star,
                field.mu, binet_legendre(spec, x, y))
        for i, j in ((0, 0), (10, 0), (10, 17), (11, 17), (39, 23), (23, 9)):
            xi, yj = x[i, 0], y[0, j]
            sig, mu = fspec.fiber._fiber_symbol(fspec.fiber._fold(spec, xi, yj),
                                                nodes)
            point = (volume_density(spec, xi, yj, nodes),
                     symbol_matrix(spec, xi, yj, nodes),
                     binet_legendre_rule(spec, xi, yj, nodes), sig, mu,
                     binet_legendre(spec, xi, yj))
            for whole, value in zip(full, point):
                assert np.array_equal(whole[i, j], value), (i, j)

        # the energy takes a grid: a trial supported on node (10, 17) reads
        # that node's moments, which must equal those of a twin metric that
        # agrees there and varies in x and y elsewhere, so no axis drops
        def spike(x, y):
            on = (np.abs(x - x[10, 0]) < 1e-12) & (np.abs(y - y[0, 17]) < 1e-12)
            return np.stack(np.broadcast_arrays(np.where(on, 3.0, 0.0),
                                                np.where(on, -2.0, 0.0)), axis=-1)

        def off_node(x, y):
            return 1e-3 * ((np.abs(x - 0.25) > 1e-12)
                           | (np.abs(y - 17 / 24) > 1e-12))

        twin = RandersMetric(spec.base, spec.rho_x,
                             lambda x, y: spec.rho_y(x, y) + off_node(x, y))
        energy = randers_energy_direct(spec, [spike], grid, nodes)[0]
        assert energy == randers_energy_direct(twin, [spike], grid, nodes)[0]

    def test_each_oracle_folds_once(self, monkeypatch):
        # TorusGrid(40, 24) x 1024 fiber nodes spans several blocks and the
        # settled field two rules; every oracle reads the metric's per-node
        # parts once and streams only fiber work over the blocks
        spec = RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*x)", 0.3, 1.0),
                             "0.2*cos(2*pi*y)", "0.1*sin(2*pi*x)")
        grid = TorusGrid(40, 24)
        nodes = 1024
        x, y = grid.mesh()
        calls = []
        parts = RandersMetric._parts

        def counting(metric, x, y):
            calls[-1] += 1
            return parts(metric, x, y)

        monkeypatch.setattr(RandersMetric, "_parts", counting)
        for oracle in (lambda: SymbolField.compute(spec, grid, nodes),
                       lambda: SymbolField.compute(spec, grid, "auto"),
                       lambda: randers_energy_direct(
                           spec, [sin_x_cos_y_gradient], grid, nodes),
                       lambda: volume_density(spec, x, y, nodes),
                       lambda: binet_legendre_rule(spec, x, y, nodes),
                       lambda: binet_legendre(spec, x, y)):
            calls.append(0)
            oracle()
        assert calls == [1, 1, 1, 1, 1, 1]

    def test_compute_memory_is_blocked(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.9,
                                              profile="0.5 + 0.4*sin(2*pi*y)")
        grid = TorusGrid.square(64)
        nodes = 512
        tracemalloc.start()
        try:
            SymbolField.compute(spec, grid, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one unblocked 64^2 x 512 fiber array alone is 16 MiB; blocks of
        # 2**18 node x fiber pairs peaked at 22.3 MiB, cache-sized ones at 1.2
        assert peak < 4 * 2**20

    def test_oracle_energy_and_volume_memory_is_blocked(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.9,
                                              profile="0.5 + 0.4*sin(2*pi*y)")
        grid = TorusGrid.square(64)
        nodes = 512

        def grad(x, y):
            return np.stack(np.broadcast_arrays(
                2 * np.pi * np.cos(2 * np.pi * x), 0.0 * y), axis=-1)

        x, y = grid.mesh()
        peaks = []
        for call in (lambda: randers_energy_direct(spec, [grad], grid, nodes)[0],
                     lambda: volume_density(spec.base, x, y, nodes),
                     lambda: symbol_matrix(spec, x, y, nodes),
                     lambda: binet_legendre_rule(spec, x, y, nodes)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # unblocked: 96.7 MiB for the energy, 48.2 MiB for the density,
        # 176.3 MiB for the symbol and 80.2 MiB for Binet-Legendre; in
        # blocks of 2**18 pairs 4.3, 10.2, 22.3 and 10.3 MiB, and in
        # cache-sized blocks 0.7, 0.8, 1.2 and 0.9 MiB
        assert all(peak < 4 * 2**20 for peak in peaks)

    def test_blocked_oracles_match_one_block(self, monkeypatch):
        # TorusGrid(40, 24) x 1024 fiber nodes spans several blocks; a drift
        # varying in x and y would show a block evaluated on the wrong rows
        spec = RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*x)", 0.3, 1.0),
                             "0.2*cos(2*pi*y)", "0.1*sin(2*pi*x)")
        grid = TorusGrid(40, 24)
        nodes = 1024
        x, y = grid.mesh()

        def grad(x, y):
            return np.stack(np.broadcast_arrays(
                2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y),
                -2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)),
                axis=-1)

        def evaluate():
            field = SymbolField.compute(spec, grid, nodes)
            settled = SymbolField.compute(spec, grid, "auto")
            return (randers_energy_direct(spec, [grad], grid, nodes)[0],
                    volume_density(spec, x, y, nodes),
                    symbol_matrix(spec, x, y, nodes),
                    field.sigma_star, field.mu,
                    binet_legendre_rule(spec, x, y, nodes),
                    settled.sigma_star, settled.mu, settled.fiber_nodes)

        blocked = evaluate()
        # one block for all nodes, then one node per block
        for size in (2**40, 1):
            monkeypatch.setattr(fspec.fiber, "_BLOCK", size)
            for got, other in zip(blocked, evaluate()):
                np.testing.assert_allclose(got, other, rtol=1e-14)
        shapes = [np.shape(value) for value in blocked]
        assert shapes == [(), (40, 24), (40, 24, 2, 2), (40, 24, 2, 2),
                          (40, 24), (40, 24, 2, 2), (40, 24, 2, 2), (40, 24), ()]

    def test_settled_rule_smooth(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.6)
        field = SymbolField.compute(spec, TorusGrid.square(8), "auto")
        assert field.fiber_nodes == 512  # first doubling already stabilizes mu

    def test_settled_rule_cap(self):
        # sigma* still moves by 2e-4 between 2048 and 4096 nodes
        spec = RandersMetric.axis_drift_torus(1.0, 0.99999)
        with pytest.raises(QuadratureError, match="did not settle"):
            SymbolField.compute(spec, TorusGrid.square(8), "auto")

    def test_settled_rule_watches_sigma(self):
        # near eta = 1 mu settles at 512 nodes while sigma*_11 is still off
        # by 2e-4; the accepted rule must resolve sigma* as well
        h, eta = 2.0, 0.99999
        spec = RandersMetric.axis_drift_torus(h, eta)
        sig = SymbolField.compute(spec, TorusGrid.square(8), "auto").sigma_star
        closed = np.broadcast_to(randers_axis_symbol(h, 1.0 / h, eta), (8, 8, 2))
        np.testing.assert_allclose(np.stack([sig[..., 0, 0], sig[..., 1, 1]], -1),
                                   closed, rtol=1e-8)

    @pytest.mark.parametrize("spec", [
        ConformalMetric(RandersMetric.axis_drift_torus(2.0, 0.6),
                        "0.3*sin(2*pi*x)"),
        RandersMetric.axis_drift_torus(2.0, 0.9, profile="0.5 + 0.4*sin(2*pi*y)"),
        RandersMetric.axis_drift_torus(2.0, 0.99999),
    ], ids=["conformal-x", "drift-y", "near-degenerate"])
    @pytest.mark.parametrize("start", [16, fspec.fiber._SETTLE_START])
    def test_settled_rule_equals_direct_rule(self, spec, start, monkeypatch):
        # the nested doubling merges midpoint halves into the settled rule;
        # only the summation order differs from evaluating that rule at once.
        # The near-degenerate drift settles at 4096 nodes, where each earlier
        # rule is still 1e-4 off, so a wrong node count or shift shows; from
        # 16 nodes the halves differ in mu as well, so a wrong merge shows
        monkeypatch.setattr(fspec.fiber, "_SETTLE_START", start)
        grid = TorusGrid(12, 16)
        settled = SymbolField.compute(spec, grid, "auto")
        direct = SymbolField.compute(
            spec, grid, settled.fiber_nodes)
        np.testing.assert_allclose(settled.mu, direct.mu, rtol=1e-14)
        # cross terms are roundoff here, so sigma* is measured against its
        # largest entry at each node
        assert float(node_gap(settled.sigma_star, direct.sigma_star).max()) <= 1e-14


class TestClosedFormSymbol:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(admissible_metrics())
    def test_matches_quadrature_oracle(self, spec):
        grid = TorusGrid.square(8)
        field = SymbolField.compute(spec, grid)
        x, y = grid.mesh()
        mu = volume_density(spec, x, y, ORACLE)
        sig = symbol_matrix(spec, x, y, ORACLE)
        assert float(node_gap(field.sigma_star, sig).max()) <= 1e-12
        np.testing.assert_allclose(field.mu, mu, rtol=1e-12)
        np.testing.assert_allclose(
            field.a, field.mu * np.sqrt(np.linalg.det(field.sigma_star)),
            rtol=1e-14)
        assert field.fiber_nodes == 0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(admissible_metrics())
    def test_settled_rule_matches_closed_form(self, spec):
        grid = TorusGrid.square(8)
        try:
            settled = SymbolField.compute(spec, grid, "auto")
        except QuadratureError:
            return  # the cap is the raising path, tested on the axis torus
        field = SymbolField.compute(spec, grid)
        assert float(node_gap(settled.sigma_star, field.sigma_star).max()) <= 1e-8
        np.testing.assert_allclose(settled.mu, field.mu, rtol=1e-8)

    def test_inadmissible_drift_raises(self):
        # every route reads the metric through its fold, which refuses
        # |rho|_{g*} >= 1, also under a conformal factor
        bad = RandersMetric(RiemannianMetric.euclidean(), "1.2*sin(2*pi*x)", 0.0)
        grid = TorusGrid.square(8)
        x, y = grid.mesh()
        routes = {
            "closed form": lambda spec: SymbolField.compute(spec, grid),
            "rule": lambda spec: SymbolField.compute(spec, grid, NODES),
            "auto": lambda spec: SymbolField.compute(spec, grid, "auto"),
            "volume_density": lambda spec: volume_density(spec, x, y, NODES),
            "symbol_matrix": lambda spec: symbol_matrix(spec, x, y, NODES),
            "binet_legendre": lambda spec: binet_legendre(spec, x, y),
            "binet_legendre rule": lambda spec: binet_legendre_rule(spec, x, y,
                                                                    NODES),
            "randers_energy_direct": lambda spec: randers_energy_direct(
                spec, [sin_x_cos_y_gradient], grid, NODES),
        }
        for spec in (bad, ConformalMetric(bad, "0.3*sin(2*pi*y)")):
            for route in routes.values():
                with pytest.raises(IllPosedMetricError, match="not admissible"):
                    route(spec)

    @pytest.mark.parametrize("spec", [
        RiemannianMetric(np.nan, 0.0, 1.0),
        # log is NaN for y < 0.5 and -inf at y = 0.5, so 0 * log is NaN there
        RandersMetric.axis_drift_torus(
            2.0, 0.5, profile="0.5 + 0.4*sin(2*pi*y) + 0*log(y - 0.5)"),
    ], ids=["nan-metric", "nan-half-torus"])
    @pytest.mark.parametrize("nodes", [None, NODES, "auto"],
                             ids=["closed form", "rule", "auto"])
    def test_nan_metric_raises(self, spec, nodes):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(IllPosedMetricError, match="NaN"):
                SymbolField.compute(spec, TorusGrid.square(16), nodes)

    @pytest.mark.parametrize("spec", [
        # the determinant is inf, which passes det > 0, and the inverse 0
        RiemannianMetric(1e308, 0.0, 1e308),
        # e^{2f} = e^800 overflows, so the folded g is inf
        ConformalMetric(RiemannianMetric.stretched(2.0), 400.0),
    ], ids=["overflowing-metric", "overflowing-factor"])
    @pytest.mark.parametrize("nodes", [None, NODES, "auto"],
                             ids=["closed form", "rule", "auto"])
    def test_overflowing_metric_raises(self, spec, nodes):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IllPosedMetricError, match="overflows"):
                SymbolField.compute(spec, TorusGrid.square(16), nodes)

    def test_foreign_metric_has_no_route(self):
        class Reversed:
            """F(x, v) = F_base(x, -v): a metric outside the three families."""

            def __init__(self, base):
                self.base = base

            def dual(self, x, y, p):
                return self.base.dual(x, y, -np.asarray(p))

            def dual_gradient(self, x, y, p):
                return -self.base.dual_gradient(x, y, -np.asarray(p))

        # every symbol route reads the folded pair of the three families, so
        # the closed form, a rule and the settled rule all refuse it alike
        spec = Reversed(RandersMetric.axis_drift_torus(2.0, 0.6))
        grid = TorusGrid.square(8)
        for nodes in (None, NODES, "auto"):
            with pytest.raises(TypeError, match="three metric families"):
                SymbolField.compute(spec, grid, nodes)


def sin_x_cos_y_gradient(x, y):
    """Gradient of sin(2 pi x) cos(2 pi y), shape (..., 2)."""
    gx = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    gy = -2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


class TestTwoRouteEnergy:
    def test_symbol_route_equals_fiber_route(self):
        # the sheared base and two-component drift reach every term of the
        # Cholesky-frame pairing that the axis torus leaves at zero
        sheared = RandersMetric(
            RiemannianMetric("2 + 0.3*sin(2*pi*x)", "0.4*cos(2*pi*(x - y))",
                             "1 + 0.2*cos(2*pi*y)"),
            "0.5*sin(2*pi*(x + y))", "0.3*cos(2*pi*x)")
        grid = TorusGrid.square(24)
        grad = sin_x_cos_y_gradient
        for spec in (RandersMetric.axis_drift_torus(
                2.0, 0.9, profile="0.5 + 0.4*sin(2*pi*y)"), sheared):
            field = SymbolField.compute(spec, grid, NODES)
            e_sym = energy_from_symbol(field, grad)
            e_dir = randers_energy_direct(spec, [grad], grid, NODES)[0]
            np.testing.assert_allclose(e_sym, e_dir, rtol=1e-6)

    def test_one_moment_pass_for_every_trial(self, monkeypatch):
        # the fiber moments do not depend on the trial, so a list of trials
        # takes one pass over the nodes and gives each trial's own energy
        spec = RandersMetric.axis_drift_torus(2.0, 0.9,
                                              profile="0.5 + 0.4*sin(2*pi*y)")
        grid = TorusGrid.square(16)
        trials = [sin_x_cos_y_gradient,
                  lambda x, y: 2.0 * sin_x_cos_y_gradient(x, y),
                  lambda x, y: sin_x_cos_y_gradient(y, x)[..., ::-1]]
        alone = [randers_energy_direct(spec, [grad], grid, NODES)[0]
                 for grad in trials]
        passes = []
        over_nodes = fspec.fiber._over_nodes

        def counting(*args):
            passes.append(1)
            return over_nodes(*args)

        monkeypatch.setattr(fspec.fiber, "_over_nodes", counting)
        together = randers_energy_direct(spec, trials, grid, NODES)
        assert len(passes) == 1
        np.testing.assert_allclose(together, alone, rtol=1e-15)
        np.testing.assert_allclose(together[1], 4.0 * together[0], rtol=1e-14)

    @pytest.mark.parametrize("spec", [
        ConformalMetric(RandersMetric.axis_drift_torus(2.0, 0.6),
                        "0.3*sin(2*pi*x)"),
        RiemannianMetric(2.0, 0.3, 1.0),
    ], ids=["conformal", "riemannian"])
    def test_every_family_against_the_closed_form(self, spec):
        # the energy is conformally invariant on a surface, so the tangent
        # route reads (g, rho) of any family and meets the closed-form field
        grid = TorusGrid.square(16)
        grad = sin_x_cos_y_gradient
        e_sym = energy_from_symbol(SymbolField.compute(spec, grid), grad)
        e_dir = randers_energy_direct(spec, [grad], grid, NODES)[0]
        np.testing.assert_allclose(e_dir, e_sym, rtol=1e-12)
