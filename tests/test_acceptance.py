"""Acceptance gate: every headline claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); the assertions carry the same bounds, so the suite is green iff every
criterion holds.  Runtime limits are asserted where the criterion states one.
"""

import time

import numpy as np

from fspec import (ConformalMetric, ExperimentConfig, FiberQuadrature,
                   RandersMetric, RiemannianMetric, SymbolField, TorusGrid,
                   assemble, binet_legendre, conformal_transform,
                   quasireversibility, randers_angular_closed_forms,
                   randers_angular_integrals, run_experiment, solve,
                   symbol_matrix, threshold_eta, volume_density)
from conftest import random_metric, random_point, random_vector

FOUR_PI2 = 4.0 * np.pi**2
QUAD = FiberQuadrature.trapezoid(256)


def report(number, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


class TestAcceptance:
    def test_criterion_01_riemannian_reduction(self):
        t0 = time.perf_counter()
        g = RiemannianMetric.stretched(2.0, 0.5)
        field = SymbolField.compute(g, TorusGrid.square(64), QUAD)
        lam1 = float(solve(assemble(field), 1).values[1])
        elapsed = time.perf_counter() - t0
        err = abs(lam1 / np.pi**2 - 1.0)
        report(1, "riemannian reduction", err < 0.01 and elapsed < 10.0,
               f"lambda1 = {lam1:.6f} vs pi^2 = {np.pi**2:.6f} "
               f"(rel err {err:.2e}, {elapsed:.2f}s)")

    def test_criterion_02_angular_integrals(self):
        t0 = time.perf_counter()
        worst = 0.0
        worst_cross = 0.0
        for eta in (0.1, 0.5, 0.9, 0.99):
            got = randers_angular_integrals(eta, 512)
            want = randers_angular_closed_forms(eta)
            worst = max(worst, abs(got[0] - want[0]), abs(got[2] - want[2]))
            worst_cross = max(worst_cross, abs(got[1]))
        elapsed = time.perf_counter() - t0
        report(2, "closed-form angular integrals",
               worst < 1e-8 and worst_cross < 1e-10 and elapsed < 1.0,
               f"max closed-form error {worst:.2e} (tol 1e-8), cross term "
               f"{worst_cross:.2e} (tol 1e-10), {elapsed:.2f}s")

    def test_criterion_03_randers_volume_identity(self):
        t0 = time.perf_counter()
        quad = FiberQuadrature.trapezoid(512)
        grid = TorusGrid.square(64)
        x, y = grid.mesh()
        worst = 0.0
        for profile in (1.0, "0.5 + 0.4*sin(2*pi*y)"):
            spec = RandersMetric.axis_drift_torus(2.0, 0.9, profile=profile)
            mu_r = volume_density(spec, x, y, quad)
            mu_0 = volume_density(spec.base, x, y, quad)
            worst = max(worst, float(np.abs(mu_r - mu_0).max()))
        elapsed = time.perf_counter() - t0
        report(3, "randers volume identity",
               worst < 1e-8 and elapsed < 5.0,
               f"max |mu_randers - mu_base| over all nodes = {worst:.2e} "
               f"(tol 1e-8), {elapsed:.2f}s")

    def test_criterion_04_torus_theorem(self):
        t0 = time.perf_counter()
        eta = threshold_eta(2.0, margin=1e-6)
        spec = RandersMetric.axis_drift_torus(2.0, eta)
        field = SymbolField.compute(spec, TorusGrid.square(128))
        lam1 = float(solve(assemble(field), 1).values[1])
        vol = field.total_volume()
        elapsed = time.perf_counter() - t0
        ok = (lam1 >= 16 * np.pi**2 * 0.99) and abs(vol - 1.0) < 1e-8 \
            and elapsed < 60.0
        report(4, "large first eigenvalue on the unit-volume torus", ok,
               f"eta = {eta:.10f}: lambda1 = {lam1:.4f} >= 0.99 * 16 pi^2 = "
               f"{16 * np.pi**2 * 0.99:.4f}, |vol - 1| = {abs(vol - 1):.2e} "
               f"({elapsed:.2f}s)")

    def test_criterion_05_unbounded_growth(self):
        cfg = ExperimentConfig.from_text(
            "kind = torus-large-eigenvalue\n"
            "h = 2, 4, 8\n"
            "eta = threshold\n"
            "grid = 64\n"
            "fiber_nodes = auto\n"
            "k = 1\n")
        result = run_experiment(cfg)
        sweep = [r for r in result.rows if r["row_type"] == "sweep"]
        baseline = [r for r in result.rows if r["row_type"] == "baseline"][0]
        values = [r["lambda1_vol"] for r in sorted(sweep, key=lambda r: r["h"])]
        increasing = all(b > a for a, b in zip(values, values[1:]))
        factor = values[-1] / baseline["lambda1_vol"]
        ok = increasing and factor >= 10.0 and result.passed
        report(5, "lambda1 * vol grows without bound", ok,
               "lambda1 * vol at threshold = "
               + ", ".join(f"{v:.1f}" for v in values)
               + f"; top/baseline = {factor:.1f}x (needs >= 10x)")

    def test_criterion_06_bilipschitz_spectral_control(self):
        pair_configs = {
            "identity": ("kind = bilipschitz-check\n"
                         "metric.type = torus\nmetric.h = 2\n"
                         "reference.type = torus\nreference.h = 2\n"
                         "grid = 64\nk = 10\nexpect_ratio = 1.0\n"),
            "constant scaling t=2": ("kind = bilipschitz-check\n"
                                     "metric.type = conformal\n"
                                     "metric.f = log(2)\n"
                                     "metric.base.type = torus\n"
                                     "metric.base.h = 2\n"
                                     "reference.type = torus\nreference.h = 2\n"
                                     "grid = 64\nk = 10\nexpect_ratio = 0.25\n"),
            "randers eta=0.5 vs base": ("kind = bilipschitz-check\n"
                                        "metric.type = torus\nmetric.h = 2\n"
                                        "metric.eta = 0.5\n"
                                        "reference = base\n"
                                        "grid = 64\nk = 10\n"),
        }
        details = []
        all_ok = True
        for label, text in pair_configs.items():
            result = run_experiment(ExperimentConfig.from_text(text))
            eig = [r for r in result.rows if r["row_type"] == "eigenvalue"]
            ratios = [r["ratio"] for r in eig]
            all_ok &= result.passed and len(eig) == 10
            details.append(f"{label}: ratios in [{min(ratios):.6f}, "
                           f"{max(ratios):.6f}] within [1/S', S] = "
                           f"[{eig[0]['bound_lower']:.6f}, "
                           f"{eig[0]['bound_upper']:.6f}]")
        report(6, "bi-Lipschitz spectral control", all_ok, "; ".join(details))

    def test_criterion_07_weighted_laplacian_bound(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.9,
                                              profile="0.5 + 0.4*sin(2*pi*y)")
        grid = TorusGrid.square(48)
        field = SymbolField.compute(spec, grid, QUAD)
        # Laplace-Beltrami of the symbol metric: volume density sqrt(det sigma)
        sigma_field = SymbolField(grid=grid, sigma_star=field.sigma_star,
                                  mu=field.mu / field.a,
                                  fiber_nodes=field.fiber_nodes)
        lam_f = solve(assemble(field), 10).values
        lam_s = solve(assemble(sigma_field), 10).values
        big_c = float(field.a.max() / field.a.min())
        ratios = lam_f[1:] / lam_s[1:]
        ok = bool(np.all(ratios <= big_c * (1 + 1e-9))
                  and np.all(ratios >= (1 - 1e-9) / big_c))
        report(7, "weighted-Laplacian two-sided bound", ok,
               f"lambda_k(F)/lambda_k(sigma) in [{ratios.min():.4f}, "
               f"{ratios.max():.4f}] within [1/C, C], C = sup a/inf a = "
               f"{big_c:.4f}, k <= 10")

    def test_criterion_08_conformal_lemma(self):
        base = RandersMetric.axis_drift_torus(2.0, 0.6)
        conf = ConformalMetric(base, "0.3*sin(2*pi*x)")
        grid = TorusGrid.square(32)
        x, y = grid.mesh()
        sig_scratch = symbol_matrix(conf, x, y, QUAD)
        mu_scratch = volume_density(conf, x, y, QUAD)
        sig_base = symbol_matrix(base, x, y, QUAD)
        mu_base = volume_density(base, x, y, QUAD)
        f_vals = conf.exponent(x, y)
        sig_trans, mu_trans = conformal_transform(sig_base, mu_base, f_vals)
        sig_err = float(np.abs(sig_scratch - sig_trans).max())
        ratio_err = float(np.abs(mu_scratch / mu_base
                                 - np.exp(2 * f_vals)).max())
        ok = sig_err < 1e-8 and ratio_err < 1e-8
        report(8, "conformal rescaling lemma", ok,
               f"pointwise symbol gap {sig_err:.2e}, mu-ratio gap "
               f"{ratio_err:.2e} (tol 1e-8)")

    def test_criterion_09_binet_legendre_bounds(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.5)
        c = quasireversibility(spec)
        lo, hi = (2 * c) ** -3, (2 * c) ** 3
        rng = np.random.default_rng(42)
        n = 10_000
        xs = rng.random(n)
        ys = rng.random(n)
        vs = rng.normal(size=(n, 2))
        bl = binet_legendre(spec, xs[:, None], ys[:, None], QUAD)[:, 0]
        fv = spec.value(xs, ys, vs)
        bl_norm = np.sqrt(np.einsum("kij,ki,kj->k", bl, vs, vs))
        ratio = fv / bl_norm
        violations = int(np.sum((ratio <= lo) | (ratio >= hi)))
        report(9, "Binet-Legendre bi-Lipschitz bounds", violations == 0,
               f"10^4 samples: F/sqrt(g_BL) in [{ratio.min():.4f}, "
               f"{ratio.max():.4f}] within [(2c)^-3, (2c)^3] = "
               f"[{lo:.2e}, {hi:.2e}], c = {c:.4f}, violations = {violations}")

    def test_criterion_10_invariant_suites(self):
        rng = np.random.default_rng(7)
        failures = []

        # homogeneity of the forward norm
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            f1 = float(spec.value(x, y, v))
            for lam in (0.5, 2.0, 10.0):
                if abs(float(spec.value(x, y, lam * v)) - lam * f1) \
                        > 1e-12 * lam * f1:
                    failures.append("homogeneity")

        # Legendre round-trip on unit vectors
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            v = v / float(spec.value(x, y, v))
            back = spec.dual_gradient(x, y, spec.legendre(x, y, v))
            if float(np.abs(back - v).max()) > 1e-6:
                failures.append("legendre-roundtrip")

        # duality consistency F*(L(v)) = F(v)
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            v = random_vector(rng)
            f = float(spec.value(x, y, v))
            if abs(float(spec.dual(x, y, spec.legendre(x, y, v))) - f) > 1e-9 * f:
                failures.append("duality")

        # symbol positive-definiteness
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            sig = symbol_matrix(spec, x, y, QUAD)
            if not (sig[0, 0] > 0 and np.linalg.det(sig) > 0):
                failures.append("symbol-spd")

        # fiber normalization (1/mu) Int F*^-2 = 2 pi
        covs = QUAD.unit_covectors()
        for _ in range(100):
            spec = random_metric(rng)
            x, y = random_point(rng)
            dual = spec.dual(np.asarray(x)[..., None], np.asarray(y)[..., None],
                             covs)
            mu = float(volume_density(spec, x, y, QUAD))
            if abs(float((QUAD.weights / dual**2).sum()) / mu - 2 * np.pi) > 1e-10:
                failures.append("normalization")

        # stiffness symmetry and constant kernel
        grid = TorusGrid.square(8)
        for _ in range(100):
            sig = np.diag(rng.uniform(0.5, 2.0, size=2))
            sig[0, 1] = sig[1, 0] = rng.uniform(-0.4, 0.4) * np.sqrt(
                sig[0, 0] * sig[1, 1])
            mu = float(rng.uniform(0.5, 2.0))
            field = SymbolField(
                grid=grid,
                sigma_star=np.broadcast_to(sig, (8, 8, 2, 2)).copy(),
                mu=np.full((8, 8), mu),
                fiber_nodes=0)
            problem = assemble(field)
            scale = float(np.abs(problem.K.data).max())
            if (problem.K != problem.K.T).nnz != 0:
                failures.append("stiffness-symmetry")
            if float(np.abs(problem.K @ np.ones(64)).max()) > 1e-12 * scale:
                failures.append("stiffness-kernel")

        report(10, "invariant property suites (6 x 100 cases)", not failures,
               "all suites clean" if not failures else
               f"failing suites: {sorted(set(failures))}")
