"""Discrete operators, eigensolvers, oracles, and convergence behavior."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st

import fspec.experiments
import fspec.solver
from fspec import (ConfigError, ConformalMetric, ExperimentConfig,
                   FiberQuadrature, RandersMetric, RiemannianMetric,
                   SolverError, SymbolField, TorusGrid, assemble,
                   discrete_fourier_oracle, fourier_oracle,
                   randers_axis_symbol, rayleigh, run_experiment, solve)
from fspec.cli import main as cli_main
from conftest import random_spd

QUAD = FiberQuadrature.trapezoid(256)
FOUR_PI2 = 4 * np.pi**2


def euclid_field(n, quad=QUAD):
    return SymbolField.compute(RiemannianMetric.euclidean(), TorusGrid.square(n),
                               quad)


# every route solve can take, in the order it tries them
ALL_ROUTES = ["fourier", "block", "shift-invert"]


def switch_off(patch, *routes):
    for route in routes:
        patch.setattr(fspec.solver, f"_{route}_route", lambda *args: None)


def solve_routes(problem, k, routes):
    """solve(problem, k) once per route in `routes`, the routes the problem
    qualifies for in the order solve tries them: as is, then with each
    route switched off after its turn, so that every later route is checked
    on problems an earlier one would take."""
    spectra = []
    with pytest.MonkeyPatch.context() as patch:
        for route in routes:
            spectra.append(solve(problem, k))
            if route != "shift-invert":
                switch_off(patch, route)
    assert [s.route for s in spectra] == list(routes)
    return spectra


def constant_routes(field):
    """The routes a constant field qualifies for: all three, less the block
    route where sigma* has a cross term."""
    if np.any(field.sigma_star[..., 0, 1]):
        return ["fourier", "shift-invert"]
    return ALL_ROUTES


# one metric per symmetry, with the shape its field and stencil are kept at
# on TorusGrid(24, 40)
SHAPED_METRICS = {
    "constant": (RandersMetric(RiemannianMetric(1.5, 0.3, 1.0), 0.2, 0.1),
                 (1, 1)),
    "x-only": (RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*x)", 0.0, 1.0),
                             "0.2*cos(2*pi*x)", 0.0), (24, 1)),
    "y-only": (RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*y)", 0.0, 1.0),
                             "0.2*cos(2*pi*y)", 0.0), (1, 40)),
    # a cross term rules out the block route, not the cut to one line
    "sheared y-only": (RandersMetric(
        RiemannianMetric("1.5 + 0.2*sin(2*pi*y)", 0.3, 1.0),
        "0.2*cos(2*pi*y)", 0.1), (1, 40)),
    "2-d": (RandersMetric(RiemannianMetric(1.0, 0.0, 1.0),
                          "0.2*cos(2*pi*y)", "0.1*sin(2*pi*x)"), (24, 40)),
    "sheared 2-d": (RandersMetric(RiemannianMetric("1.5 + 0.2*sin(2*pi*x)", 0.3, 1.0),
                                  "0.2*cos(2*pi*y)", "0.1*sin(2*pi*x)"), (24, 40)),
}
ROUTE_OF_SHAPED = {"constant": "fourier", "x-only": "block", "y-only": "block",
                   "sheared y-only": "shift-invert", "2-d": "shift-invert",
                   "sheared 2-d": "shift-invert"}


def make_constant_field(n, sig, mu):
    grid = TorusGrid.square(n)
    shape = (n, n)
    return SymbolField(grid=grid,
                       sigma_star=np.broadcast_to(np.asarray(sig, float),
                                                  shape + (2, 2)).copy(),
                       mu=np.full(shape, float(mu)),
                       fiber_nodes=0)


class TestGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            TorusGrid(4, 16)

    def test_mesh_and_ravel(self):
        grid = TorusGrid(8, 16)
        x, y = grid.mesh()
        assert x.shape == (8, 1) and y.shape == (1, 16)
        assert grid.node_count == 128


class TestAssembly:
    def test_energy_of_sine_euclidean(self):
        # Int (d/dx sin 2 pi x)^2 dx dy = 2 pi^2, reproduced to O(dx^2)
        n = 32
        field = euclid_field(n)
        problem = assemble(field)
        x, _ = field.grid.mesh()
        f = np.broadcast_to(np.sin(2 * np.pi * x), (n, n)).ravel()
        energy = float(f @ (problem.K @ f))
        assert abs(energy / (2 * np.pi**2) - 1.0) < (np.pi / n) ** 2 * 1.5

    def test_constant_field_is_scaled_five_point_stencil(self):
        # hand-assembled anisotropic 5-point operator, independent construction
        n = 8
        A, B, mu = 1.7, 0.4, 1.3
        field = make_constant_field(n, np.diag([A, B]), mu)
        problem = assemble(field)
        K_hand = np.zeros((n * n, n * n))
        wx = mu * A  # (1/dx^2) * dx * dy = 1 on a square unit grid
        wy = mu * B
        for i in range(n):
            for j in range(n):
                row = i * n + j
                K_hand[row, row] += 2 * wx + 2 * wy
                K_hand[row, ((i + 1) % n) * n + j] -= wx
                K_hand[row, ((i - 1) % n) * n + j] -= wx
                K_hand[row, i * n + (j + 1) % n] -= wy
                K_hand[row, i * n + (j - 1) % n] -= wy
        np.testing.assert_allclose(problem.K.toarray(), K_hand, atol=1e-12 * wx)

    def test_varying_stencil_matches_flux_form(self):
        # independent construction: Dx' W11 Dx + Dy' W22 Dy + (Gx' W12 Gy +
        # transpose) with periodic forward differences D, centered
        # differences G, edge means of D11, D22 and nodal D12, D = mu sigma*
        grid = TorusGrid(12, 20)
        nx, ny, cell = grid.nx, grid.ny, grid.cell_area
        x, y = grid.mesh()

        def shift(m, s):  # (S f)[i] = f[i + s], periodic
            return np.roll(np.eye(m), s, axis=1)

        ex, ey = np.eye(nx), np.eye(ny)
        Dx = np.kron((shift(nx, 1) - ex) / grid.dx, ey)
        Dy = np.kron(ex, (shift(ny, 1) - ey) / grid.dy)
        Gx = np.kron((shift(nx, 1) - shift(nx, -1)) / (2 * grid.dx), ey)
        Gy = np.kron(ex, (shift(ny, 1) - shift(ny, -1)) / (2 * grid.dy))
        mu = 1.0 + 0.2 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
        s11 = 1.5 + 0.4 * np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y)
        s22 = 0.8 + 0.3 * np.cos(2 * np.pi * (x + y))
        for s12 in (0.0 * s11, 0.3 * np.sin(2 * np.pi * (x - 2 * y))):
            sigma = np.stack([np.stack([s11, s12], -1),
                              np.stack([s12, s22], -1)], -1)
            field = SymbolField(grid=grid, sigma_star=sigma, mu=mu,
                                fiber_nodes=0)
            D = mu[..., None, None] * sigma
            w11 = 0.5 * (D[..., 0, 0] + np.roll(D[..., 0, 0], -1, axis=0))
            w22 = 0.5 * (D[..., 1, 1] + np.roll(D[..., 1, 1], -1, axis=1))
            cross = Gx.T @ np.diag(D[..., 0, 1].ravel() * cell) @ Gy
            K_ref = (Dx.T @ np.diag(w11.ravel() * cell) @ Dx
                     + Dy.T @ np.diag(w22.ravel() * cell) @ Dy
                     + cross + cross.T)
            K = assemble(field).K
            scale = float(np.abs(K_ref).max())
            assert float(np.abs(K.toarray() - K_ref).max()) <= 1e-14 * scale
            assert K.nnz == (9 if np.any(s12) else 5) * grid.node_count

    def test_symmetry_and_kernel(self, rng):
        for _ in range(5):
            n = 12
            sig = np.array([[rng.uniform(0.5, 2.0), 0.0],
                            [0.0, rng.uniform(0.5, 2.0)]])
            sig[0, 1] = sig[1, 0] = rng.uniform(-0.3, 0.3) * np.sqrt(
                sig[0, 0] * sig[1, 1])
            field = make_constant_field(n, sig, rng.uniform(0.5, 2.0))
            problem = assemble(field)
            asym = sparse.linalg.norm(problem.K - problem.K.T)
            assert asym == 0.0
            ones = np.ones(problem.n_nodes)
            scale = float(np.abs(problem.K.data).max())
            assert float(np.abs(problem.K @ ones).max()) <= 1e-12 * scale
            assert float(problem.M.diagonal().min()) > 0.0

    @pytest.mark.parametrize("defect, message", [
        ("asymmetric", "symmetry"), ("diagonal-shift", "sum to zero")])
    def test_broken_stiffness_raises(self, monkeypatch, defect, message):
        build = fspec.solver._stiffness

        def broken(weights, grid):
            K = build(weights, grid)
            bump = 1e-6 * float(np.abs(K.data).max())
            if defect == "asymmetric":
                return K + sparse.csr_matrix(([bump], ([0], [1])), shape=K.shape)
            return K + bump * sparse.identity(K.shape[0], format="csr")

        monkeypatch.setattr(fspec.solver, "_stiffness", broken)
        problem = assemble(euclid_field(12))  # K is built on first use
        with pytest.raises(SolverError, match=message):
            problem.K

    @pytest.mark.parametrize("name", SHAPED_METRICS)
    @pytest.mark.parametrize("quad", [None, QUAD], ids=["closed", "rule"])
    def test_field_and_stencil_keep_the_shape_they_vary_over(self, name, quad):
        spec, shape = SHAPED_METRICS[name]
        field = SymbolField.compute(spec, TorusGrid(24, 40), quad)
        problem = assemble(field)
        sigma, mu = field.reduced
        weights, mass = problem.reduced
        assert (sigma.shape, mu.shape) == (shape + (2, 2), shape)
        assert (weights.shape, mass.shape) == ((4,) + shape, shape)
        # the public arrays read the kept ones at every node
        for public, kept, full in ((field.sigma_star, sigma, (24, 40, 2, 2)),
                                   (field.mu, mu, (24, 40)),
                                   (problem.weights, weights, (4, 24, 40)),
                                   (problem.mass, mass, (24, 40))):
            assert np.array_equal(public, np.broadcast_to(kept, full))

    def test_randers_rayleigh_of_sine_y(self):
        # R(sin 2 pi y) -> 4 pi^2 B for the drifted torus
        n = 64
        spec = RandersMetric.axis_drift_torus(2.0, 0.6)
        field = SymbolField.compute(spec, TorusGrid.square(n), QUAD)
        problem = assemble(field)
        _, y = field.grid.mesh()
        f = np.broadcast_to(np.sin(2 * np.pi * y), (n, n)).ravel()
        _, B = randers_axis_symbol(2.0, 0.5, 0.6)
        got = rayleigh(problem, f)
        assert abs(got / (FOUR_PI2 * B) - 1.0) < (np.pi / n) ** 2 * 1.5


class TestSolve:
    def test_euclidean_eigenvalues_and_multiplicity(self):
        spectrum = solve(assemble(euclid_field(64)), 3)
        lam = spectrum.values
        assert abs(lam[0]) < 1e-10 * lam[1]
        u0 = spectrum.vectors[:, 0]
        assert float(np.abs(u0 - u0.mean()).max()) < 1e-8 * abs(u0.mean())
        for k in (1, 2, 3):
            assert abs(lam[k] / FOUR_PI2 - 1.0) < 0.01
        # the first nonzero level is a single multiplet
        assert np.ptp(lam[1:4]) <= 1e-6 * lam[1]

    def test_anisotropic_first_eigenvalue(self):
        g = RiemannianMetric.stretched(2.0)
        field = SymbolField.compute(g, TorusGrid.square(64), QUAD)
        spectrum = solve(assemble(field), 1)
        assert abs(spectrum.values[1] / np.pi**2 - 1.0) < 0.01

    # closed-form fields: a rule's roundoff cross term would rule out the
    # block route
    def test_eigenvectors_m_orthonormal(self):
        problem = assemble(euclid_field(16, quad=None))
        for spectrum in solve_routes(problem, 4, ALL_ROUTES):
            gram = spectrum.vectors.T @ (problem.M @ spectrum.vectors)
            np.testing.assert_allclose(gram, np.eye(5), atol=1e-9)

    def test_residuals_small(self):
        problem = assemble(euclid_field(64, quad=None))
        for spectrum in solve_routes(problem, 5, ALL_ROUTES):
            rel = spectrum.residuals / np.maximum(spectrum.values,
                                                  spectrum.values[1])
            assert float(rel.max()) < 1e-9

    def test_dense_and_sparse_agree(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.6)
        problem = assemble(SymbolField.compute(spec, TorusGrid.square(32)))
        dense = scipy.linalg.eigh(problem.K.toarray(), problem.M.toarray(),
                                  eigvals_only=True, subset_by_index=(0, 6))
        for sparse_s in solve_routes(problem, 6, ALL_ROUTES):
            np.testing.assert_allclose(dense[1:], sparse_s.values[1:],
                                       rtol=1e-9)

    @pytest.mark.parametrize("name", SHAPED_METRICS)
    def test_gate_reads_the_weights(self, name):
        # only shift-invert builds K; the residuals the gate forms in edge
        # form match ||K u - lambda M u|| / ||M u|| from CSR within one
        # rounding floor eps ||abs(K) abs(u)|| / ||M u|| (0.42 at most on
        # these and on 64^2 and 256 x 8 grids).  The vectors array is formed
        # after the gate, by the same writer: gating its columns gives back
        # the residuals bitwise
        problem = assemble(SymbolField.compute(SHAPED_METRICS[name][0],
                                               TorusGrid(24, 40)))
        spectrum = solve(problem, 8)
        assert spectrum.route == ROUTE_OF_SHAPED[name]
        assert ("K" in problem.__dict__) == (spectrum.route == "shift-invert")
        u = spectrum.vectors
        assert np.array_equal(spectrum.residuals, fspec.solver._gate(
            problem, spectrum.values, fspec.solver._column_writer(u))[0])
        Mu = problem.mass.reshape(-1, 1) * u
        csr = (np.linalg.norm(problem.K @ u - spectrum.values * Mu, axis=0)
               / np.linalg.norm(Mu, axis=0))
        floor = (np.finfo(float).eps
                 * np.linalg.norm(abs(problem.K) @ np.abs(u), axis=0)
                 / np.linalg.norm(Mu, axis=0))
        assert np.all(np.abs(spectrum.residuals - csr) <= floor)

    @pytest.mark.parametrize("shape", [(8, 13), (13, 8), (9, 8)])
    def test_flat_shifts_equal_roll(self, rng, shape):
        # the gate and rayleigh read every periodic shift as a flat shift in
        # two blocks plus the wrap column; both kernels equal np.roll exactly
        x = rng.standard_normal(shape)
        out = np.empty(shape)
        for offset in fspec.solver._OFFSETS:
            for step in (offset, tuple(np.negative(offset))):
                rolled = fspec.solver._rolled(step, shape)
                want = np.roll(x, step, axis=(0, 1))
                assert np.array_equal(fspec.solver._shift(x, rolled, out), want)
                assert np.array_equal(
                    fspec.solver._difference(x, rolled, out), x - want)

    def test_gate_matches_csr_on_random_vectors(self, rng):
        # random vectors, not eigenpairs: an eigenvector smooth across the
        # wrap column hides a wrong shift there.  A sheared 2-D field on a
        # non-square grid keeps all four offsets live
        problem = assemble(SymbolField.compute(SHAPED_METRICS["sheared 2-d"][0],
                                               TorusGrid(24, 40)))
        assert all(np.any(w) for w in problem.reduced[0])
        u = np.asfortranarray(rng.standard_normal((problem.n_nodes, 5)))
        values = np.sort(rng.uniform(0.0, 100.0, 5))
        Mu = problem.mass.reshape(-1, 1) * u
        csr = (np.linalg.norm(problem.K @ u - values * Mu, axis=0)
               / np.linalg.norm(Mu, axis=0))
        residuals = fspec.solver._gate(problem, values,
                                       fspec.solver._column_writer(u))[0]
        np.testing.assert_allclose(residuals, csr, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("route,profile", [
        ("fourier", 1.0), ("block", "0.5 + 0.35*sin(2*pi*y)")],
        ids=["fourier", "block"])
    def test_solve_holds_no_vector_array(self, route, profile):
        # the reduced routes keep their vectors factored and the gate forms
        # one at a time, so solve's peak stays below one (n, k+1) array
        spec = RandersMetric.axis_drift_torus(2.0, 0.9, profile=profile)
        problem = assemble(SymbolField.compute(spec, TorusGrid.square(128)))
        solve(problem, 10)  # lazy imports and caches settle first
        tracemalloc.start()
        try:
            spectrum = solve(problem, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.route == route
        assert peak < problem.n_nodes * 11 * 8
        assert "vectors" not in vars(spectrum)

    def test_k_too_large(self):
        problem = assemble(euclid_field(8))
        for k in (64, 62):  # solve needs k + 2 < n = 64
            with pytest.raises(ValueError):
                solve(problem, k)

    @pytest.mark.parametrize("route", ALL_ROUTES)
    def test_pairs_in_any_order_give_one_spectrum(self, monkeypatch, route):
        # each route hands back raw pairs and solve orders them: a route
        # that returns its pairs reversed gives the same Spectrum, up to the
        # order among pairs of one eigenvalue, with contiguous vector columns
        problem = assemble(SymbolField.compute(
            RandersMetric.axis_drift_torus(2.0, 0.6), TorusGrid(12, 16)))
        switch_off(monkeypatch, *ALL_ROUTES[:ALL_ROUTES.index(route)])
        want = solve(problem, 6)
        name = "_shift_invert" if route == "shift-invert" else f"_{route}_route"
        original = getattr(fspec.solver, name)

        def reversed_pairs(*args):
            values, write = original(*args)
            last = values.size - 1
            return values[::-1], lambda j, out: write(last - j, out)

        monkeypatch.setattr(fspec.solver, name, reversed_pairs)
        got = solve(problem, 6)
        assert got.route == want.route == route
        assert want.vectors.flags.f_contiguous and got.vectors.flags.f_contiguous
        assert np.array_equal(got.values, want.values)
        assert got.floor_ratio == want.floor_ratio
        for value in np.unique(want.values):
            tie = np.flatnonzero(want.values == value)
            pairs = [sorted((s.residuals[j], s.vectors[:, j].tobytes())
                            for j in tie) for s in (got, want)]
            assert pairs[0] == pairs[1]


class TestRayleigh:
    def test_constant_in_kernel(self):
        problem = assemble(euclid_field(16))
        assert abs(rayleigh(problem, np.ones(problem.n_nodes))) < 1e-12

    def test_eigenvector_gives_eigenvalue(self):
        problem = assemble(euclid_field(32))
        spectrum = solve(problem, 1)
        got = rayleigh(problem, spectrum.vectors[:, 1])
        np.testing.assert_allclose(got, spectrum.values[1], rtol=1e-10)

    def test_sine_x_on_randers(self):
        n = 64
        spec = RandersMetric.axis_drift_torus(2.0, 0.6)
        field = SymbolField.compute(spec, TorusGrid.square(n), QUAD)
        problem = assemble(field)
        x, _ = field.grid.mesh()
        f = np.broadcast_to(np.sin(2 * np.pi * x), (n, n)).ravel()
        A, _ = randers_axis_symbol(2.0, 0.5, 0.6)
        assert abs(rayleigh(problem, f) / (FOUR_PI2 * A) - 1.0) \
            < (np.pi / n) ** 2 * 1.5

    def test_zero_function_rejected(self):
        problem = assemble(euclid_field(16))
        with pytest.raises(ValueError):
            rayleigh(problem, np.zeros(problem.n_nodes))

    def test_above_lambda1_when_orthogonal_to_constants(self, rng):
        problem = assemble(euclid_field(16))
        spectrum = solve(problem, 1)
        m_diag = problem.M.diagonal()
        for _ in range(20):
            f = rng.normal(size=problem.n_nodes)
            f -= (f @ m_diag) / m_diag.sum()
            assert rayleigh(problem, f) >= spectrum.values[1] * (1 - 1e-12)


class TestFourierOracle:
    def test_flat_torus(self):
        np.testing.assert_allclose(fourier_oracle(np.eye(2), 4),
                                   [0.0] + [FOUR_PI2] * 4, rtol=1e-15)

    def test_frozen_randers_values(self):
        # eta = 0.6, h = r = 1: lambda_1 = 4 pi^2 B = 4 pi^2 * 10/9
        lam = fourier_oracle(np.diag([25.0 / 18.0, 10.0 / 9.0]), 1)
        np.testing.assert_allclose(lam[1], FOUR_PI2 * 10.0 / 9.0, rtol=1e-15)

    def test_lambda1_is_min_coefficient(self, rng):
        for _ in range(20):
            A = float(rng.uniform(0.1, 10.0))
            B = float(rng.uniform(0.1, 10.0))
            lam = fourier_oracle(np.diag([A, B]), 1)
            np.testing.assert_allclose(lam[1], FOUR_PI2 * min(A, B), rtol=1e-15)

    def test_against_bruteforce_enumeration(self, rng):
        window = np.arange(-40, 41)
        m, l = window[:, None], window[None, :]
        for _ in range(5):
            A = float(rng.uniform(0.2, 5.0))
            B = float(rng.uniform(0.2, 5.0))
            brute = np.sort((FOUR_PI2 * (A * m**2 + B * l**2)).ravel())
            np.testing.assert_allclose(fourier_oracle(np.diag([A, B]), 25),
                                       brute[:26], rtol=1e-14)
        for _ in range(5):
            sig = random_spd(rng)
            sig[1, 0] = sig[0, 1]
            assert abs(sig[0, 1]) > 1e-3
            brute = np.sort((FOUR_PI2 * (sig[0, 0] * m**2 + 2 * sig[0, 1] * m * l
                                         + sig[1, 1] * l**2)).ravel())
            np.testing.assert_allclose(fourier_oracle(sig, 25), brute[:26],
                                       rtol=1e-14)

    def test_rejects_nonpositive(self):
        for sig in (np.diag([0.0, 1.0]), np.array([[1.0, 2.0], [2.0, 1.0]])):
            with pytest.raises(ValueError):
                fourier_oracle(sig, 3)

    def test_overflow_only_where_the_answer_needs_it(self):
        # window values past the largest double do not matter while the
        # (k+1)-th value is finite; an infinite one or a NaN does
        np.testing.assert_allclose(fourier_oracle(np.diag([1e306, 1.0]), 1),
                                   [0.0, FOUR_PI2], rtol=1e-15)
        for sig in (np.diag([1e308, 1e308]), np.diag([np.inf, 1.0]),
                    np.array([[1e308, -0.99e308], [-0.99e308, 1e308]])):
            with pytest.raises(ValueError):
                fourier_oracle(sig, 1)


@st.composite
def constant_metrics(draw):
    """Constant SPD g: Riemannian, Randers with |rho|_{g*} <= 0.9, or either
    under a constant conformal factor.  Sheared draws have g12 != 0 and both
    drift components; aligned draws have g12 = 0 and a drift along one axis,
    so that the stencil has no cross term and the block route applies."""
    aligned = draw(st.booleans())
    angle = (draw(st.sampled_from([0.0, 0.5 * np.pi])) if aligned
             else draw(st.floats(0.1, 1.4)))
    low = draw(st.floats(0.3, 3.0))
    eigs = np.array([low, low * draw(st.floats(1.5, 8.0))])
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    if aligned:
        rot = np.round(rot)  # an exact permutation, so g12 is exactly 0
    g = rot @ np.diag(eigs) @ rot.T
    spec = RiemannianMetric(g[0, 0], g[0, 1], g[1, 1])
    family = draw(st.sampled_from(["riemannian", "randers", "conformal"]))
    if family != "riemannian":
        eta = draw(st.floats(0.1, 0.9))
        phi = (draw(st.sampled_from([0.0, 0.5 * np.pi])) if aligned
               else draw(st.floats(0.2, 1.3)))
        # rho = eta g^(1/2) u has |rho|_{g*} = eta
        root_g = rot @ np.diag(np.sqrt(eigs)) @ rot.T
        u = np.round([np.cos(phi), np.sin(phi)]) if aligned else [
            np.cos(phi), np.sin(phi)]
        rx, ry = map(float, eta * root_g @ u)
        spec = RandersMetric(spec, rx, ry)
    if family == "conformal":
        spec = ConformalMetric(spec, repr(draw(st.floats(-0.5, 0.5))))
    return spec


class TestDiscreteFourierOracle:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(constant_metrics(),
           st.sampled_from([(16, 20), (20, 12), (12, 16), (24, 24), (9, 15)]),
           st.integers(1, 8))
    def test_solver_matches_discrete_oracle(self, spec, shape, k):
        # (9, 15) has odd sides, so no mode but (0, 0) is self-conjugate
        field = SymbolField.compute(spec, TorusGrid(*shape))
        spectra = solve_routes(assemble(field), k, constant_routes(field))
        want = discrete_fourier_oracle(field, k)
        assert want[0] == 0.0
        for spectrum in spectra:
            got = spectrum.values
            assert abs(got[0]) <= 1e-10 * want[1]
            np.testing.assert_allclose(got[1:], want[1:], rtol=1e-9)

    def test_shift_invert_keeps_every_copy_of_a_repeated_eigenvalue(
            self, monkeypatch):
        # lambda_5..lambda_8 are one 4-fold eigenvalue (modes (+-1, +-1));
        # a single-vector Krylov run can converge past one of its copies
        field = SymbolField.compute(RandersMetric.axis_drift_torus(1.0, 0.9),
                                    TorusGrid.square(32))
        problem = assemble(field)
        want = discrete_fourier_oracle(field, 10)
        switch_off(monkeypatch, "fourier", "block")
        for seed in range(8):
            spectrum = solve(problem, 10, seed=seed)
            assert spectrum.route == "shift-invert"
            np.testing.assert_allclose(spectrum.values[1:], want[1:], rtol=1e-9)

    def test_shift_invert_refines_pairs_that_miss_the_residual_gate(
            self, monkeypatch):
        # on each (torus, grid, k, seed) ARPACK splits a degenerate cluster
        # and leaves its edge pair at a relative residual of 1.4e-9 to
        # 1.9e-9, above _RESTOL, on a well-posed problem; the route's own
        # gate must see it fail, so that the pair is solved again
        cases = [(RiemannianMetric.euclidean(), 32, 1, 60),
                 (RandersMetric.axis_drift_torus(1.0, 0.5), 32, 5, 1),
                 (RandersMetric.axis_drift_torus(1.0, 0.5), 32, 5, 71)]
        switch_off(monkeypatch, "fourier", "block")
        gate = fspec.solver._gate
        failures = []

        def counted(*args):
            result = gate(*args)
            failures.append(result[1].size)
            return result

        monkeypatch.setattr(fspec.solver, "_gate", counted)
        for spec, n, k, seed in cases:
            field = SymbolField.compute(spec, TorusGrid.square(n))
            failures.clear()
            spectrum = solve(assemble(field), k, seed=seed)
            assert spectrum.route == "shift-invert"
            assert failures == [1, 0]  # the route's gate, then solve's
            np.testing.assert_allclose(spectrum.values[1:],
                                       discrete_fourier_oracle(field, k)[1:],
                                       rtol=1e-9)

    def test_rejects_varying_field(self):
        spec = RandersMetric.axis_drift_torus(2.0, 0.9,
                                              profile="0.5 + 0.4*sin(2*pi*y)")
        drifted = SymbolField.compute(spec, TorusGrid(16, 20))
        varying_mu = make_constant_field(16, np.eye(2), 1.0)
        x, _ = varying_mu.grid.mesh()
        varying_mu.mu = varying_mu.mu * (1.0 + 0.1 * np.sin(2 * np.pi * x))
        for field in (drifted, varying_mu):
            with pytest.raises(ValueError, match="constant"):
                discrete_fourier_oracle(field, 4)


class TestFourierRoute:
    @pytest.mark.parametrize("grid", [TorusGrid.square(32), TorusGrid(8, 40)],
                             ids=["32x32", "8x40"])
    def test_hexagonal_torus_matches_oracle(self, grid):
        # g proportional to [[1, 1/2], [1/2, 1]] with volume 1: a cross term,
        # so the block route declines and this used to take shift-invert
        c = 2.0 / np.sqrt(3.0)
        field = SymbolField.compute(RiemannianMetric(c, 0.5 * c, c), grid)
        problem = assemble(field)
        spectrum = solve(problem, 10)
        assert spectrum.route == "fourier"
        want = discrete_fourier_oracle(field, 10)
        assert abs(spectrum.values[0]) <= 1e-10 * want[1]
        np.testing.assert_allclose(spectrum.values[1:], want[1:], rtol=1e-12)
        gram = spectrum.vectors.T @ (problem.M @ spectrum.vectors)
        np.testing.assert_allclose(gram, np.eye(11), rtol=0, atol=1e-12)

    def test_square_torus_splits_a_fourfold_lambda1(self):
        # k = 2 keeps two of the four modes (+-1, 0), (0, +-1) of lambda_1
        field = euclid_field(16, quad=None)
        problem = assemble(field)
        spectrum = solve(problem, 2)
        assert spectrum.route == "fourier"
        want = discrete_fourier_oracle(field, 4)
        assert np.ptp(want[1:]) <= 1e-14 * want[1]
        np.testing.assert_allclose(spectrum.values, want[:3], rtol=1e-14)
        gram = spectrum.vectors.T @ (problem.M @ spectrum.vectors)
        np.testing.assert_allclose(gram, np.eye(3), rtol=0, atol=1e-12)
        assert float(spectrum.residuals.max()) <= 1e-12 * want[1]

    def test_one_entry_off_fails_the_gate(self, monkeypatch):
        # a vector off by 1e-6 of its largest entry at one node sits far
        # outside both _RESTOL and the rounding floor
        problem = assemble(SymbolField.compute(
            RandersMetric.axis_drift_torus(2.0, 0.6), TorusGrid.square(32)))
        assert solve(problem, 6).route == "fourier"
        route = fspec.solver._fourier_route

        def perturbed(*args):
            values, write = route(*args)

            def write_off(j, out):
                write(j, out)
                if j == 1:
                    out[3, 5] += 1e-6 * np.abs(out).max()

            return values, write_off

        monkeypatch.setattr(fspec.solver, "_fourier_route", perturbed)
        with pytest.raises(SolverError, match="rounding floor"):
            solve(problem, 6)

    def test_one_ulp_of_mass_leaves_the_route(self):
        # the field is given as full arrays that repeat exactly: the field
        # and the stencil keep one node, and so does a full copy of the
        # mass, where one ulp at one node keeps them whole
        problem = assemble(make_constant_field(12, [[1.5, 0.3], [0.3, 0.8]],
                                               1.2))
        assert solve(problem, 4).route == "fourier"
        field = make_constant_field(12, [[1.5, 0.3], [0.3, 0.8]], 1.2)
        mu = field.mu.copy()
        mu[3, 5] = np.nextafter(mu[3, 5], np.inf)
        assert dataclasses.replace(field, mu=mu).reduced[1].shape == (12, 12)
        mass = problem.mass.copy()
        assert dataclasses.replace(problem, mass=mass).reduced[1].shape == (1, 1)
        mass[3, 5] = np.nextafter(mass[3, 5], np.inf)
        perturbed = dataclasses.replace(problem, mass=mass)
        assert perturbed.reduced[1].shape == (12, 12)
        assert fspec.solver._fourier_route(perturbed, 4) is None
        spectrum = solve(perturbed, 4)
        assert spectrum.route == "shift-invert"
        np.testing.assert_allclose(spectrum.values[1:],
                                   dense_spectrum(perturbed, 4)[1:], rtol=1e-9)


@st.composite
def axis_invariant_metrics(draw):
    """A metric varying along one axis t only.

    Constant g with g11 and g22 log-uniform in [1/8, 8], so that on either
    axis the lowest nonzero modes often have m != 0; a Randers drift varying
    along t with |rho|_{g*} <= 0.9; optionally a conformal factor varying
    along t.  Sheared draws have a g12 / sqrt(g11 g22) of 0.1 to 0.9 in size
    and both drift components, so the stencil carries a cross term and the
    block route must decline; the others have g12 = 0 and a drift along one
    axis, so the block route applies and its mode sweep is pruned.
    """
    t = draw(st.sampled_from(["x", "y"]))
    sheared = draw(st.booleans())
    g11 = 2.0 ** draw(st.floats(-3.0, 3.0))
    g22 = 2.0 ** draw(st.floats(-3.0, 3.0))
    corr = (draw(st.floats(0.1, 0.9)) * draw(st.sampled_from([-1.0, 1.0]))
            if sheared else 0.0)
    g = np.array([[g11, corr * np.sqrt(g11 * g22)],
                  [corr * np.sqrt(g11 * g22), g22]])
    spec = RiemannianMetric(g[0, 0], g[0, 1], g[1, 1])
    if draw(st.booleans()):
        eta = draw(st.floats(0.1, 0.9))
        phi = (draw(st.floats(0.2, 1.3)) if sheared
               else draw(st.sampled_from([0.0, np.pi / 2])))
        # rho = eta g^(1/2) u has |rho|_{g*} <= eta wherever the profile <= 1
        w, v = np.linalg.eigh(g)
        rx, ry = map(float, eta * (v * np.sqrt(w)) @ v.T @ [np.cos(phi),
                                                          np.sin(phi)])
        if not sheared:
            rx, ry = (rx, 0.0) if phi == 0.0 else (0.0, ry)
        amp = draw(st.floats(0.0, 0.5))
        profile = f"(1 - {amp!r}*(1 + sin(2*pi*{t})) / 2)"
        spec = RandersMetric(spec, f"{rx!r}*{profile}", f"{ry!r}*{profile}")
    if draw(st.booleans()):
        spec = ConformalMetric(
            spec, f"{draw(st.floats(-0.4, 0.4))!r}*cos(2*pi*{t})")
    return spec


def dense_spectrum(problem, k):
    return scipy.linalg.eigh(problem.K.toarray(), problem.M.toarray(),
                             eigvals_only=True, subset_by_index=(0, k))


class TestBlockRoute:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(axis_invariant_metrics(),
           st.sampled_from([(12, 20), (20, 16), (16, 12), (10, 24)]),
           st.integers(1, 9))
    def test_matches_dense_eigh(self, spec, shape, k):
        field = SymbolField.compute(spec, TorusGrid(*shape))
        problem = assemble(field)
        spectrum = solve(problem, k)
        # a constant draw takes the Fourier route; otherwise a cross term
        # makes the mode blocks complex: those go to shift-invert
        constant = (np.all(field.sigma_star == field.sigma_star[0, 0])
                    and np.all(field.mu == field.mu[0, 0]))
        cross = np.any(field.sigma_star[..., 0, 1])
        assert spectrum.route == ("fourier" if constant else
                                  "shift-invert" if cross else "block")
        want = dense_spectrum(problem, k)
        assert abs(spectrum.values[0]) <= 1e-10 * want[1]
        np.testing.assert_allclose(spectrum.values[1:], want[1:], rtol=1e-9)
        gram = spectrum.vectors.T @ (problem.M @ spectrum.vectors)
        np.testing.assert_allclose(gram, np.eye(k + 1), rtol=0, atol=1e-12)

    # the constant fields of the next two tests would take the Fourier
    # route; each switches it off to check the block route on them

    def test_small_eigenvalues_exact_on_a_fine_grid(self, monkeypatch):
        # lambda_max / lambda_1 grows like n^2: at 512^2 vectors accurate
        # only to eps lambda_max (a dense block solve's) miss _RESTOL (max
        # rel residual 1.6e-9) and their Rayleigh quotients K u . u lose
        # about 1e-10 of lambda_1; inverse iteration at each eigenvalue and
        # the edge-form quotients keep both at roundoff
        switch_off(monkeypatch, "fourier")
        field = SymbolField.compute(RandersMetric.axis_drift_torus(4.0, 0.5),
                                    TorusGrid.square(512))
        spectrum = solve(assemble(field), 8)
        assert spectrum.route == "block"
        np.testing.assert_allclose(spectrum.values[1:],
                                   discrete_fourier_oracle(field, 8)[1:],
                                   rtol=1e-12)

    def test_long_rings_pass_within_their_rounding_floor(self, monkeypatch):
        # rings of 16384 nodes leave relative residuals of up to 3.7e-9,
        # above _RESTOL, yet within about 1.7 rounding floors
        # eps ||abs(K) abs(u)|| / ||M u||, where a gate of _RESTOL alone
        # raised SolverError.  A 1e-6 error in one vector stays far outside
        # both
        switch_off(monkeypatch, "fourier")
        field = SymbolField.compute(RandersMetric.axis_drift_torus(4.0, 0.5),
                                    TorusGrid(16384, 8))
        problem = assemble(field)
        spectrum = solve(problem, 10)
        assert spectrum.route == "block"
        assert 0.0 < spectrum.floor_ratio <= fspec.solver._FLOOR_FACTOR
        u = spectrum.vectors
        floor = (np.finfo(float).eps
                 * np.linalg.norm(abs(problem.K) @ np.abs(u), axis=0)
                 / np.linalg.norm(problem.mass.ravel()[:, None] * u, axis=0))
        # the mass is constant, so each value lies within its residual, and
        # so within _FLOOR_FACTOR floors, of an exact discrete eigenvalue
        error = np.abs(spectrum.values - discrete_fourier_oracle(field, 10))
        assert np.all(error <= fspec.solver._FLOOR_FACTOR * floor)
        # the values read off the line vectors are the grid vectors' own
        # edge-form quotients (lambda_0 is gated as a numerical zero)
        quotients = [rayleigh(problem, v) for v in u.T[1:]]
        np.testing.assert_allclose(spectrum.values[1:], quotients, rtol=1e-13,
                                   atol=0)

        blocks = fspec.solver._block_eigenvectors

        def perturbed(*args):
            values, write = blocks(*args)

            def write_perturbed(j, out):
                write(j, out)
                if j == 1:
                    noise = np.random.default_rng(0).standard_normal(out.shape)
                    out += (1e-6 * np.linalg.norm(out)
                            / np.linalg.norm(noise)) * noise

            return values, write_perturbed

        monkeypatch.setattr(fspec.solver, "_block_eigenvectors", perturbed)
        with pytest.raises(SolverError, match="rounding floor"):
            solve(problem, 10)

    @pytest.mark.parametrize("axis", ["y", "x"])
    def test_pairs_come_back_ascending_and_written_once(self, monkeypatch, axis):
        # a varying-field draw whose cos/sin pairs used to come back one ulp
        # out of order: the pairs now come back ascending, so solve keeps the
        # block's order, and each grid vector is written once per reader, in
        # the grid's node order (the x-only field's too): once by the gate,
        # once when the vectors are first read, which keeps them.  Each value
        # is the grid vector's edge-form quotient
        spec = RandersMetric.axis_drift_torus(
            2.0, 0.9, profile=f"0.5 + 0.35*sin(2*pi*{axis})")
        problem = assemble(SymbolField.compute(spec, TorusGrid.square(128)))
        blocks = fspec.solver._block_eigenvectors
        returned, written = [], []

        def kept(*args):
            values, write = blocks(*args)
            returned.append(values)

            def counted(j, out):
                written.append(j)
                write(j, out)

            return values, counted

        monkeypatch.setattr(fspec.solver, "_block_eigenvectors", kept)
        spectrum = solve(problem, 10)
        assert spectrum.route == "block"
        assert np.all(np.diff(returned[0]) >= 0)
        assert written == list(range(11))
        vectors = spectrum.vectors
        assert spectrum.vectors is vectors and vectors.flags.f_contiguous
        assert written == 2 * list(range(11))
        quotients = [rayleigh(problem, v) for v in spectrum.vectors.T[1:]]
        np.testing.assert_allclose(spectrum.values[1:], quotients, rtol=1e-13,
                                   atol=0)

    @pytest.mark.parametrize("width", [16, 128])
    @pytest.mark.parametrize("cluster", ["split", "double"])
    def test_cluster_inside_one_block(self, monkeypatch, width, cluster):
        # two eigenvalues of one mode block, 1e-10 apart or equal, each need
        # a vector of their own.  "split": a y-only g11 whose cos(4 pi y)
        # part splits the line's l = +-1 pair by about 1e-10 relative in
        # modes 0 and 1.  "double": a constant line, with the Fourier route
        # off, whose blocks have exact double eigenvalues
        if cluster == "split":
            spec = RiemannianMetric("1 + 1e-10*cos(4*pi*y)", 0.0, 1.0)
        else:
            switch_off(monkeypatch, "fourier")
            spec = RiemannianMetric.euclidean()
        problem = assemble(SymbolField.compute(spec, TorusGrid(8, width)))
        spectrum = solve(problem, 10)
        assert spectrum.route == "block"
        want = dense_spectrum(problem, 10)
        gaps = np.diff(want[1:]) / want[2:]
        if cluster == "split":
            assert np.any((gaps > 5e-11) & (gaps < 2e-10))
        else:
            assert np.count_nonzero(gaps == 0.0) >= 3
        np.testing.assert_allclose(spectrum.values[1:], want[1:], rtol=1e-12,
                                   atol=0)
        gram = spectrum.vectors.T @ (problem.M @ spectrum.vectors)
        np.testing.assert_allclose(gram, np.eye(11), rtol=0, atol=1e-12)

    def test_memory_grows_with_the_line_not_its_square(self, monkeypatch):
        # lines of 2048 nodes: one dense 2048-wide block alone takes 32 MiB,
        # where the banded blocks and the kept line vectors take O(k w)
        # (scipy.linalg is imported above, so its import is not counted)
        spec = RandersMetric(RiemannianMetric(4.0, 0.0, 0.25),
                             "1.8*(0.5 + 0.4*sin(2*pi*y))", "0")
        problem = assemble(SymbolField.compute(spec, TorusGrid(8, 2048)))
        blocks = fspec.solver._block_eigenvectors
        peaks = []

        def traced(*args):
            tracemalloc.start()
            try:
                return blocks(*args)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(fspec.solver, "_block_eigenvectors", traced)
        assert solve(problem, 10).route == "block"
        assert peaks[0] < 8 * 2**20

    def test_singular_band_raises_solver_error(self, monkeypatch, tmp_path,
                                               capsys):
        # an exactly singular shifted band (dgbtrf info > 0) is a solver
        # failure, which the CLI reports with exit code 2
        factor = scipy.linalg.lapack.dgbtrf

        def singular(*args):
            lu, pivots, _ = factor(*args)
            return lu, pivots, 3

        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", singular)
        spec = RandersMetric(RiemannianMetric(4.0, 0.0, 0.25),
                             "1.8*(0.5 + 0.4*sin(2*pi*y))", "0")
        problem = assemble(SymbolField.compute(spec, TorusGrid(16, 12)))
        with pytest.raises(SolverError, match="exactly singular"):
            solve(problem, 4)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("kind = bilipschitz-check\nmetric.type = torus\n"
                            "metric.h = 2\nmetric.eta = 0.5\n"
                            "metric.profile = 0.5 + 0.3*sin(2*pi*y)\n"
                            "grid = 16\nk = 2\n")
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "exactly singular" in capsys.readouterr().err

    def test_low_modes_off_the_zero_mode(self):
        # g11 = 8 makes x the cheap direction: on a y-varying field the
        # first eigenvalues all come from x modes m != 0, which pruning
        # must not skip
        spec = RandersMetric(RiemannianMetric(8.0, 0.0, 1.0),
                             "0.5*(1 + 0.5*sin(2*pi*y))", 0.0)
        problem = assemble(SymbolField.compute(spec, TorusGrid(16, 12)))
        spectrum = solve(problem, 6)
        assert spectrum.route == "block"
        np.testing.assert_allclose(spectrum.values[1:],
                                   dense_spectrum(problem, 6)[1:], rtol=1e-9)
        u = spectrum.vectors[:, 1].reshape(16, 12)
        assert float(np.abs(u - u.mean(axis=0)).max()) > 1e-3

    def test_two_dimensional_field_takes_shift_invert(self):
        spec = RandersMetric(RiemannianMetric(1.5, 0.3, 1.0),
                             "0.2*cos(2*pi*y)", "0.1*sin(2*pi*x)")
        problem = assemble(SymbolField.compute(spec, TorusGrid(16, 20)))
        spectrum = solve(problem, 6)
        assert spectrum.route == "shift-invert"
        np.testing.assert_allclose(spectrum.values[1:],
                                   dense_spectrum(problem, 6)[1:], rtol=1e-9)

    def test_perturbed_stiffness_takes_shift_invert(self):
        # one edge weight nudged: K stays symmetric with zero row sums but is
        # no longer constant, nor invariant along either axis
        spec = RandersMetric.axis_drift_torus(2.0, 0.6)
        problem = assemble(SymbolField.compute(spec, TorusGrid(12, 16)))
        solve_routes(problem, 4, ALL_ROUTES)
        weights = problem.weights.copy()
        weights[1, 0, 5] *= 1 + 1e-9  # the y-edge between nodes 5 and 6
        perturbed = dataclasses.replace(problem, weights=weights)
        spectrum = solve(perturbed, 4)
        assert spectrum.route == "shift-invert"
        np.testing.assert_allclose(spectrum.values[1:],
                                   dense_spectrum(perturbed, 4)[1:], rtol=1e-9)


class TestOracleEquivalence:
    def test_constant_coefficient_solver_matches_oracle(self):
        # second-order agreement at N = 64 for the first ten nonzero eigenvalues;
        # the per-k truncation error scales like lambda_k^2 / min(A, B), so the
        # lambda_1-scale bound only applies at k = 1
        # the quadrature field of the first two tori carries a roundoff
        # cross term (|sigma*_12| ~ 1e-17 to 1e-16), which rules out the
        # block route; the closed-form field takes all three routes
        n = 64
        grid = TorusGrid.square(n)
        for h, eta in [(1.0, 0.0), (2.0, 0.6), (1.0, 0.9)]:
            if eta > 0:
                spec = RandersMetric.axis_drift_torus(h, eta)
            else:
                spec = RiemannianMetric.stretched(h)
            A, B = randers_axis_symbol(h, 1.0 / h, eta)
            want = fourier_oracle(np.diag([A, B]), 10)
            lam1_bound = 1.5 * (FOUR_PI2 * max(A, B)) * (np.pi / n) ** 2
            bounds = 1.5 * (np.pi / n) ** 2 * want[1:] ** 2 / (FOUR_PI2 * min(A, B))
            for field in (SymbolField.compute(spec, grid, QUAD),
                          SymbolField.compute(spec, grid)):
                for spectrum in solve_routes(assemble(field), 10,
                                             constant_routes(field)):
                    got = spectrum.values
                    assert abs(got[1] - want[1]) < lam1_bound
                    assert np.all(np.abs(got[1:] - want[1:]) < bounds)


class TestMinMaxMonotonicity:
    def test_prolonged_coarse_eigenvector_bounds_fine(self):
        coarse_field = euclid_field(16)
        fine_field = euclid_field(32)
        coarse_problem = assemble(coarse_field)
        fine_problem = assemble(fine_field)
        lam_fine = solve(fine_problem, 1).values[1]
        coarse_spec = solve(coarse_problem, 1)
        u = coarse_spec.vectors[:, 1].reshape(16, 16)
        # bilinear prolongation: even fine nodes copy the coarse nodes, odd
        # ones average their two periodic neighbours, along x then along y
        along_x = np.stack([u, 0.5 * (u + np.roll(u, -1, axis=0))], axis=1).reshape(32, 16)
        u_fine = np.stack([along_x, 0.5 * (along_x + np.roll(along_x, -1, axis=1))],
                          axis=2).reshape(32, 32).ravel()
        m_diag = fine_problem.M.diagonal()
        u_fine -= (u_fine @ m_diag) / m_diag.sum()
        assert rayleigh(fine_problem, u_fine) >= lam_fine * (1 - 1e-12)


class TestWeightedLaplacianBound:
    def test_two_sided_bound_nonconstant_randers(self):
        # lambda_k(F) within [1/C, C] of the symbol-metric spectrum,
        # C = sup a / inf a measured from the field
        spec = RandersMetric.axis_drift_torus(2.0, 0.9,
                                              profile="0.5 + 0.4*sin(2*pi*y)")
        grid = TorusGrid.square(48)
        field = SymbolField.compute(spec, grid, QUAD)
        sigma_field = SymbolField(
            grid=grid, sigma_star=field.sigma_star,
            mu=field.mu / field.a,  # = 1/sqrt(det sigma*), the sigma-metric volume
            fiber_nodes=field.fiber_nodes)
        lam_f = solve(assemble(field), 10).values
        lam_s = solve(assemble(sigma_field), 10).values
        big_c = float(field.a.max() / field.a.min()) * (1 + 1e-9)
        assert big_c > 1.05  # the test is vacuous if a is near-constant
        for k in range(1, 11):
            assert lam_f[k] <= big_c * lam_s[k]
            assert lam_f[k] >= lam_s[k] / big_c


class TestScaling:
    def test_constant_conformal_scaling_is_exact(self):
        # metric times t: K unchanged, M times t^2, eigenvalues divided by t^2
        t = 1.7
        spec = RandersMetric.axis_drift_torus(2.0, 0.6)
        field = SymbolField.compute(spec, TorusGrid.square(24), QUAD)
        scaled = SymbolField(grid=field.grid,
                             sigma_star=field.sigma_star / t**2,
                             mu=field.mu * t**2,
                             fiber_nodes=field.fiber_nodes)
        lam = solve(assemble(field), 6).values
        lam_scaled = solve(assemble(scaled), 6).values
        np.testing.assert_allclose(lam_scaled[1:] * t**2, lam[1:], rtol=1e-10)


def convergence_rows(metric, grids="16, 32, 64"):
    """Level rows of a k = 1 convergence experiment on the metric.* lines."""
    cfg = ExperimentConfig.from_text(
        f"kind = convergence\n{metric}grids = {grids}\nk = 1\n")
    return run_experiment(cfg).rows


class TestConvergence:
    def test_euclidean_second_order(self):
        rows = convergence_rows("metric.type = riemannian\n")
        assert rows[0]["reference"] == "oracle"
        for row in rows[1:]:
            # errors shrink 4x per doubling, within 20 percent
            assert 1.678 <= row["order_lambda1"] <= 2.322

    def test_randers_constant_oracle_referenced(self):
        # sheared constant metrics get the oracle reference too
        for metric in ("metric.type = torus\nmetric.h = 2\nmetric.eta = 0.6\n",
                       "metric.type = riemannian\nmetric.g12 = 0.5\n",
                       "metric.type = randers\nmetric.g11 = 2\n"
                       "metric.g12 = 0.7\nmetric.g22 = 0.8\n"
                       "metric.rho_x = 0.4\nmetric.rho_y = 0.3\n"):
            rows = convergence_rows(metric)
            assert rows[0]["reference"] == "oracle"
            for row in rows[1:]:
                assert 1.678 <= row["order_lambda1"] <= 2.322

    def test_nonconstant_self_convergence(self):
        rows = convergence_rows("metric.type = torus\nmetric.h = 2\n"
                                "metric.eta = 0.9\n"
                                "metric.profile = 0.5 + 0.4*sin(2*pi*y)\n",
                                grids="16, 32, 64, 128")
        assert rows[0]["reference"] == "finest"
        lams = [row["lambda1"] for row in rows]
        gaps = [abs(b - a) for a, b in zip(lams, lams[1:])]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_varying_conformal_factor_is_not_oracle_referenced(self):
        # mu sigma* is conformally invariant in 2-D, so it stays constant
        # while the spectrum moves; the second factor vanishes at the nodes
        # of the 16 and 32 grids and varies only on the 64 grid
        for f in ("0.3*sin(2*pi*x)", "0.3*sin(2*pi*16*x)"):
            rows = convergence_rows(f"metric.type = conformal\nmetric.f = {f}\n"
                                    "metric.base.type = torus\n"
                                    "metric.base.h = 2\n")
            assert rows[0]["reference"] == "finest"

    @pytest.mark.parametrize("grids", ["16, 32, 64, 128", "16, 24, 32, 48",
                                       "16, 32, 48"])
    def test_first_order_ladder_fails_the_order_verdict(self, monkeypatch,
                                                        grids):
        # a c/n term taken off lambda_1 makes the ladder first order: its gaps
        # still shrink, so the Cauchy verdict passes, but the gap orders drop
        # out of the second-order band.  The order comes from three levels,
        # so a ladder whose ratio is not constant reads second order unperturbed
        metric = ("metric.type = torus\nmetric.h = 2\nmetric.eta = 0.9\n"
                  "metric.profile = 0.5 + 0.4*sin(2*pi*y)\n")
        solve_exact = fspec.experiments.solve

        def first_order(problem, k, seed=0):
            spectrum = solve_exact(problem, k, seed=seed)
            spectrum.values[1] -= 2.0 / problem.grid.nx
            return spectrum

        verdicts = {}
        for perturb in (False, True):
            if perturb:
                monkeypatch.setattr(fspec.experiments, "solve", first_order)
            cfg = ExperimentConfig.from_text(
                f"kind = convergence\n{metric}grids = {grids}\nk = 1\n")
            verdicts[perturb] = {v.name: v.passed
                                 for v in run_experiment(cfg).verdicts}
        assert verdicts[False] == {"self-convergence-cauchy": True,
                                   "self-convergence-order": True}
        assert verdicts[True] == {"self-convergence-cauchy": True,
                                  "self-convergence-order": False}

    @pytest.mark.parametrize("ladder", [(16, 24, 32), (16, 32, 48),
                                        (12, 20, 28, 64)])
    @pytest.mark.parametrize("order", [1.0, 2.0, 3.0])
    def test_three_level_order_of_exact_errors(self, ladder, order):
        # gaps of errors exactly C n^-p give back p on any ladder; the
        # two-level log(gap ratio) / log(n ratio) does so only when the
        # ratio of successive sizes is constant
        rows = [{"row_type": "level", "n": n, "reference": "finest",
                 "gap_lambda1": "" if i == 0 else
                 3.0 * (ladder[i - 1] ** -order - n ** -order)}
                for i, n in enumerate(ladder)]
        orders = [fspec.experiments._three_level_order(
            a["n"], b["n"], c["n"], b["gap_lambda1"] / c["gap_lambda1"])
            for a, b, c in zip(rows, rows[1:], rows[2:])]
        np.testing.assert_allclose(orders, order, rtol=1e-12)
        passed = {v.name: v.passed
                  for v in fspec.experiments._verdicts_convergence(rows)}
        assert passed["self-convergence-order"] == (order == 2.0)

    def test_extrapolated_lambda1(self):
        # Richardson's (4 lambda_n - lambda_{n/2}) / 3 removes the h^2 term:
        # from 32/64 and from 64/128 it agrees far closer than lambda_128
        rows = convergence_rows("metric.type = torus\nmetric.h = 2\n"
                                "metric.eta = 0.9\n"
                                "metric.profile = 0.5 + 0.4*sin(2*pi*y)\n",
                                grids="16, 32, 64, 128")
        assert rows[0]["lambda1_extrapolated"] == rows[0]["error_estimate"] == ""
        lam = [row["lambda1"] for row in rows]
        extrapolated = [row["lambda1_extrapolated"] for row in rows[1:]]
        assert extrapolated[1] == (4 * lam[2] - lam[1]) / 3
        assert rows[3]["error_estimate"] == abs(lam[3] - lam[2]) / 3
        assert (abs(extrapolated[2] - extrapolated[1])
                < 0.01 * abs(lam[3] - extrapolated[2]))

    def test_needs_three_grids(self):
        with pytest.raises(ConfigError):
            convergence_rows("metric.type = riemannian\n", grids="16, 32")
