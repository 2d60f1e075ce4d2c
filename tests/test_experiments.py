"""Experiment configs, runners, verdict recomputability, CLI surface."""

import csv
import dataclasses
import inspect
import itertools
import json
import re
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import fspec.cli
import fspec.experiments
from fspec import (ConfigError, ConformalMetric, ExperimentConfig,
                   RandersMetric, RiemannianMetric, SymbolField, TorusGrid,
                   assemble, build_metric, run_experiment, solve,
                   threshold_eta, verdicts_from_rows)
from fspec.cli import main as cli_main
from fspec.experiments import parse_config_text

TORUS_CFG = """
# sweep the stretch at the drift threshold
kind = torus-large-eigenvalue
h = 2, 4
eta = threshold
grid = 32
fiber_nodes = auto   # threshold drifts sharpen the fiber integrand
k = 1
"""

BILIPSCHITZ_CFG = """
kind = bilipschitz-check
metric.type = torus
metric.h = 2
metric.eta = 0.5
reference = base
grid = 32
k = 6
"""

SCALING_CFG = """
kind = bilipschitz-check
metric.type = conformal
metric.f = log(2)
metric.base.type = torus
metric.base.h = 2
reference.type = torus
reference.h = 2
grid = 24
k = 6
expect_ratio = 0.25
"""

IDENTITIES_CFG = """
kind = randers-identities
metric.type = torus
metric.h = 2
metric.eta = 0.9
metric.profile = 0.5 + 0.4*sin(2*pi*y)
grid = 24
fiber_nodes = 512
"""

CONFORMAL_CFG = """
kind = conformal-check
metric.type = torus
metric.h = 2
metric.eta = 0.6
f = 0.3*sin(2*pi*x)
grid = 16
"""

CONFORMAL_CONST_CFG = """
kind = conformal-check
metric.type = torus
metric.h = 2
metric.eta = 0.6
f = log(2)
grid = 16
k = 4
"""

CONVERGENCE_CFG = """
kind = convergence
metric.type = torus
metric.h = 1
grids = 16, 32, 64
k = 1
"""

CONVERGENCE_VARYING_CFG = """
kind = convergence
metric.type = torus
metric.h = 2
metric.eta = 0.9
metric.profile = 0.5 + 0.4*sin(2*pi*y)
k = 1
"""

ALL_CONFIGS = [TORUS_CFG, BILIPSCHITZ_CFG, SCALING_CFG, IDENTITIES_CFG,
               CONFORMAL_CFG, CONFORMAL_CONST_CFG, CONVERGENCE_CFG]


def _readme_key_table():
    """{kind: [(key, default text or None)]} from the README's per-kind key
    table, which lists each key in backticks as `key` or `key = default`,
    with notes in parentheses and blocks as `metric.*`."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        kind = cells[0].strip("`")
        if len(cells) == 3 and kind in fspec.experiments.KINDS:
            entries = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cells[2]))
            table[kind] = [(key.strip().removesuffix(".*"),
                            default.strip() if sep else None)
                           for key, sep, default in
                           (entry.partition("=") for entry in entries)]
    return table


class TestConfigParsing:
    def test_types_lists_nesting_comments(self):
        params = parse_config_text("""
        # comment line
        kind = convergence
        grids = 16, 32, 64   # trailing comment
        alpha = 0.5
        name = threshold
        metric.type = torus
        metric.h = 2
        """)
        assert params["kind"] == "convergence"
        assert params["grids"] == [16, 32, 64]
        assert params["alpha"] == 0.5
        assert params["name"] == "threshold"
        assert params["metric"] == {"type": "torus", "h": 2}

    def test_bad_lines_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_text("kind = no-such-kind\n")

    def test_key_replacing_a_block_is_refused(self):
        # neither a block nor a scalar of the same name may replace the other
        # in silence
        with pytest.raises(ConfigError,
                           match=r"line 4: key 'metric' would replace"):
            parse_config_text("kind = torus-large-eigenvalue\n"
                              "metric.type = torus\nmetric.h = 2\nmetric = 3\n")
        with pytest.raises(ConfigError,
                           match=r"line 2: key 'metric.h' conflicts with an "
                                 "earlier scalar"):
            parse_config_text("metric = 3\nmetric.h = 2\n")
        # a repeated key, scalar or in a block, still overrides
        assert parse_config_text("k = 1\nk = 2\nmetric.h = 1\nmetric.h = 2\n") \
            == {"k": 2, "metric": {"h": 2}}

    def test_hash_tracks_text(self):
        a = ExperimentConfig.from_text(CONVERGENCE_CFG)
        b = ExperimentConfig.from_text(CONVERGENCE_CFG)
        c = ExperimentConfig.from_text(CONVERGENCE_CFG + "k = 2\n")
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_echo_prints_full_precision(self, tmp_path):
        cfg = ExperimentConfig.from_text(
            "kind = convergence\nmetric.type = torus\nmetric.h = 1\n"
            "metric.eta = 0.1\ngrids = 16, 32, 64\n")
        report = run_experiment(cfg)
        echoed = report.echo["metric.eta"]
        assert echoed == "0.10000000000000001"
        assert float(echoed) == 0.1

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # a misspelled key used to be ignored: this run took the default
        # 64^2 grid and a constant drift, and passed
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("kind = bilipschitz-check\nmetric.type = torus\n"
                            "metric.h = 2\nmetric.eta = 0.5\ngird = 16\n"
                            "metric.profil = 0.5 + 0.3*sin(2*pi*y)\n"
                            "tol_spectrl = 0.5\n")
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "reads no key" in capsys.readouterr().err
        # top-level keys the kind does not read, the tolerances included
        for text in [BILIPSCHITZ_CFG + "gird = 16\n",
                     BILIPSCHITZ_CFG + "tol_spectral = 0.5\n",
                     CONVERGENCE_CFG + "grid = 16\n",
                     IDENTITIES_CFG + "seed = 3\n",
                     TORUS_CFG + "metric.h = 2\n"]:
            with pytest.raises(ConfigError, match="reads no key"):
                ExperimentConfig.from_text(text)
        # metric.* and reference.* keys the block's type does not read
        for block in [{"type": "torus", "h": 2, "profil": "0.5"},
                      {"type": "riemannian", "g11": 2, "rho_x": 0.1},
                      {"type": "randers", "eta": 0.5},
                      {"type": "conformal", "h": 2, "base": {"type": "torus"}},
                      {"type": "conformal", "base": {"type": "torus", "hh": 2}}]:
            with pytest.raises(ConfigError, match="reads no key"):
                build_metric(block)

    def test_readme_key_table_matches_kinds(self):
        assert {kind: tuple(key for key, _ in keys)
                for kind, keys in _readme_key_table().items()} == \
            {kind: entry.keys for kind, entry in fspec.experiments.KINDS.items()}

    def test_readme_key_defaults_match_runners(self):
        # a key the table gives without a default has None or "" as its
        # runner default: it is required, or its verdict is skipped
        for kind, keys in _readme_key_table().items():
            parameters = inspect.signature(fspec.experiments.KINDS[kind].run).parameters
            for key, text in keys:
                default = parameters[key].default
                if text is None:
                    assert default in (None, ""), (kind, key)
                else:
                    value = parse_config_text(f"{key} = {text}")[key]
                    expected = list(default) if isinstance(default, tuple) else default
                    assert value == expected, (kind, key, text, default)

    def test_readme_tolerance_defaults_match(self):
        # the paragraph that opens with "Tolerance defaults:" pairs each
        # tolerance key with its default, both in backticks
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = readme.split("Tolerance defaults:", 1)[1].split("\n\n", 1)[0]
        pairs = re.findall(r"`([a-z_]+)` `([^`]+)`", paragraph)
        assert {key: float(value) for key, value in pairs} == \
            fspec.experiments._DEFAULT_TOLERANCES

    def test_sizes_must_be_integers(self):
        # 24.9 used to run as n = 24 while the echo said 24.899999999999999
        for text in [CONVERGENCE_CFG + "grids = 16, 24.9, 32\n",
                     CONVERGENCE_CFG + "k = 1.7\n",
                     CONVERGENCE_CFG + "seed = 2.5\n",
                     BILIPSCHITZ_CFG + "grid = 32.0\n",
                     BILIPSCHITZ_CFG + "grid = 16, 32\n",
                     IDENTITIES_CFG + "fiber_nodes = 512.5\n",
                     IDENTITIES_CFG + "fiber_nodes = many\n"]:
            with pytest.raises(ConfigError, match="must be an integer"):
                ExperimentConfig.from_text(text)
        cfg = ExperimentConfig.from_text(IDENTITIES_CFG + "fiber_nodes = auto\n")
        assert cfg.get("fiber_nodes") == "auto"

    def test_benchmark_configs_parse(self):
        # every config the benchmark generates passes the key and size
        # checks; workloads.py is compiled from its text, so no bytecode is
        # written next to it
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        workloads = types.ModuleType("workloads")
        exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
        for name in workloads.WORKLOADS:
            for seed in range(3):
                for config in workloads.generate(name, seed)["configs"]:
                    cfg = ExperimentConfig.from_text(config["text"])
                    assert cfg.config_hash == config["hash"]
                    for block in (cfg.get("metric"), cfg.get("reference")):
                        if isinstance(block, dict):
                            build_metric(block)


class TestMetricBuilding:
    def test_torus_shorthand(self):
        spec = build_metric({"type": "torus", "h": 2, "eta": 0.5})
        assert isinstance(spec, RandersMetric)
        assert float(spec.base.g11(0, 0)) == 4.0
        assert float(spec.base.g22(0, 0)) == 0.25
        riem = build_metric({"type": "torus", "h": 2})
        assert isinstance(riem, RiemannianMetric)

    def test_explicit_fields_and_conformal(self):
        spec = build_metric({
            "type": "conformal",
            "f": "0.2*sin(2*pi*x)",
            "base": {"type": "randers", "g11": 4.0, "g22": 0.25,
                     "rho_x": "0.5*(0.5 + 0.4*sin(2*pi*y))"},
        })
        assert isinstance(spec, ConformalMetric)
        assert isinstance(spec.base, RandersMetric)

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            build_metric({"type": "hyperbolic"})

    def test_profiled_drift_ratio_is_not_capped(self):
        # eta = 1.5 with profile 0.5 asks for the admissible drift ratio
        # 0.75; capping eta before the profile multiplied in ran another metric
        grid = TorusGrid.square(16)
        spectra = [solve(assemble(SymbolField.compute(build_metric(block), grid)),
                         4).values
                   for block in ({"type": "torus", "h": 2, "eta": 1.5,
                                  "profile": 0.5},
                                 {"type": "torus", "h": 2, "eta": 0.75})]
        np.testing.assert_allclose(*spectra, rtol=1e-13)


class TestThresholdEta:
    def test_h2_closed_form(self):
        # s (1 + s) = 1/8  =>  s = (sqrt(3/2) - 1) / 2
        s = (np.sqrt(1.5) - 1.0) / 2.0
        np.testing.assert_allclose(threshold_eta(2.0), np.sqrt(1 - s * s),
                                   rtol=1e-14)

    def test_h1_needs_no_drift(self):
        assert threshold_eta(1.0) == 0.0

    def test_condition_tightness(self):
        # at the threshold the small symbol entry equals 1/r^2 (the slack
        # 1 - eta^2 loses ~1e-10 relative accuracy for h = 8, hence the rtol)
        from fspec import randers_axis_symbol
        for h in (2.0, 4.0, 8.0):
            eta = threshold_eta(h)
            A, _ = randers_axis_symbol(h, 1.0 / h, eta)
            np.testing.assert_allclose(A, h * h, rtol=1e-8)

    def test_margin_pushes_past_condition(self):
        from fspec import randers_axis_symbol
        for h in (2.0, 4.0, 8.0):
            eta = threshold_eta(h, margin=1e-6)
            A, _ = randers_axis_symbol(h, 1.0 / h, eta)
            assert A > h * h


def _perturbed(fn, index, scale=1.0, shift=0.0):
    """fn with entry `index` of its result scaled by `scale`, then shifted by
    `shift`."""
    def wrapper(*args):
        out = list(fn(*args))
        out[index] = out[index] * scale + shift
        return tuple(out)
    return wrapper


def _volume_scaled(cls, oracle=False):
    """A stand-in for SymbolField whose mu is 1e-6 relative high on the
    closed-form fields (the base's volume in randers-identities, every
    field's volume in torus-large-eigenvalue) or, with oracle, on the
    fiber-rule fields (the from-scratch field of conformal-check)."""
    def compute(spec, grid, n=None):
        field = cls.compute(spec, grid, n)
        if (n is not None) == oracle:
            field = cls(grid=grid, sigma_star=field.sigma_star,
                        mu=field.mu * (1 + 1e-6), fiber_nodes=field.fiber_nodes)
        return field
    return types.SimpleNamespace(compute=compute)


def _values_scaled(solve, scale, call=None):
    """solve with every eigenvalue of its Spectrum scaled by `scale`, or with
    `call`, those of its call-th Spectrum alone (0 for the first)."""
    calls = []

    def wrapper(*args, **kwargs):
        spectrum = solve(*args, **kwargs)
        calls.append(None)
        if call is not None and len(calls) != call + 1:
            return spectrum
        return dataclasses.replace(spectrum, values=spectrum.values * scale)
    return wrapper


class TestRunners:
    @pytest.mark.parametrize("text", ALL_CONFIGS)
    def test_all_kinds_pass(self, text):
        report = run_experiment(ExperimentConfig.from_text(text))
        assert report.verdicts
        for verdict in report.verdicts:
            assert verdict.name and verdict.criterion and verdict.detail
        assert report.passed

    def test_auto_fiber_nodes_is_closed_form(self):
        report = run_experiment(ExperimentConfig.from_text(TORUS_CFG))
        assert {row["fiber_nodes"] for row in report.rows} == {"closed-form"}
        assert report.solver_info["fiber_nodes"] == "closed-form"

    @pytest.mark.parametrize("text", [TORUS_CFG, BILIPSCHITZ_CFG, CONVERGENCE_CFG],
                             ids=["torus-large-eigenvalue", "bilipschitz-check",
                                  "convergence"])
    def test_spectral_kinds_reject_integer_fiber_nodes(self, text):
        cfg = ExperimentConfig.from_text(text + "fiber_nodes = 256\n")
        with pytest.raises(ConfigError, match="fiber_nodes must be 'auto'"):
            run_experiment(cfg)
        cfg = ExperimentConfig.from_text(text + "fiber_nodes = auto\n")
        assert run_experiment(cfg).passed

    @pytest.mark.parametrize("verdict, name, perturb", [
        ("volume-density-equals-base", "SymbolField", _volume_scaled),
        # entry 0 is cos^2 of the closed forms and 1 the cross integral
        ("angular-integrals-match-closed-forms", "randers_angular_closed_forms",
         lambda closed: _perturbed(closed, 0, scale=1 + 1e-7)),
        ("cross-term-vanishes", "randers_angular_integrals",
         lambda integrals: _perturbed(integrals, 1, shift=1e-9)),
        ("energy-two-route-agreement", "randers_energy_direct",
         lambda direct: _perturbed(direct, 0, scale=1 + 1e-5)),
    ], ids=["volume", "angular", "cross", "energy"])
    def test_identities_verdict_fails_on_a_perturbed_route(self, monkeypatch,
                                                           verdict, name, perturb):
        # each verdict reads the program, not fixed rows: perturbing the one
        # route it checks fails that verdict alone
        monkeypatch.setattr(fspec.experiments, name,
                            perturb(getattr(fspec.experiments, name)))
        report = run_experiment(ExperimentConfig.from_text(IDENTITIES_CFG))
        assert {v.name: v.passed for v in report.verdicts} == {
            other: other != verdict for other in (
                "volume-density-equals-base",
                "angular-integrals-match-closed-forms", "cross-term-vanishes",
                "energy-two-route-agreement")}

    @pytest.mark.parametrize("verdict, name, perturb", [
        ("volume-equals-riemannian-volume", "SymbolField", _volume_scaled),
        # the verdict gates at tol_spectral = 1e-2, against a measured error
        # of 8e-4 at 128^2 (perfbench drift-sweep lambda1_rel_err) and of at
        # most 3.2e-3 (below) on this config's 32^2 grid: values 2% high fail
        # it, while values 1.1% high still pass
        ("lambda1-matches-constant-symbol", "solve",
         lambda solve: _values_scaled(solve, 1.02)),
    ], ids=["volume", "lambda1"])
    def test_large_eigenvalue_verdict_fails_on_a_perturbed_route(
            self, monkeypatch, verdict, name, perturb):
        names = [v.name for v in run_experiment(
            ExperimentConfig.from_text(TORUS_CFG)).verdicts]
        assert verdict in names
        monkeypatch.setattr(fspec.experiments, name,
                            perturb(getattr(fspec.experiments, name)))
        report = run_experiment(ExperimentConfig.from_text(TORUS_CFG))
        assert {v.name: v.passed for v in report.verdicts} == {
            other: other != verdict for other in names}

    @pytest.mark.parametrize("text, verdict, also, name, perturb", [
        # past the threshold 4pi^2 min(A, B) >= 4pi^2/r^2, so under one
        # tol_spectral the closed-form match implies this bound: values low
        # enough to break it (2% low, against its margin of 0.7% on this
        # config) break the match too
        (TORUS_CFG, "lambda1-above-4pi2-over-r2",
         {"lambda1-matches-constant-symbol"}, "solve",
         lambda solve: _values_scaled(solve, 0.98)),
        # lambda1 * vol grows by 10.24 from the baseline to h = 3.2; the
        # baseline (the first solve) 4% high brings that below 10, within a
        # closed-form match widened to 5%
        (TORUS_CFG + "h = 2, 3.2\ntol_spectral = 0.05\n",
         "exceeds-10x-riemannian-baseline", set(), "solve",
         lambda solve: _values_scaled(solve, 1.04, call=0)),
        # at the threshold drift lambda1 * vol grows as h^2, and past it with
        # the drift: it can fall only where two rows lie within the
        # closed-form tolerance of each other.  h = 4.002 reads 0.10% above
        # h = 4, and the drift 0.99369 0.21% above the threshold's 0.993666
        # on h = 2: the later row's values 0.3% low fail the verdict, while
        # the closed-form match (error 3.2e-3 against tol 1e-2) and the
        # 4pi^2/r^2 bound (margin 0.7%) still pass.  The solves run the
        # baseline first, then the sweep in config order
        (TORUS_CFG + "h = 4, 4.002\n", "lambda1-vol-grows-with-stretch",
         set(), "solve", lambda solve: _values_scaled(solve, 0.997, call=2)),
        (TORUS_CFG + "h = 2\neta = threshold, 0.99369\n",
         "lambda1-vol-monotone-in-drift-h2", set(), "solve",
         lambda solve: _values_scaled(solve, 0.997, call=2)),
    ], ids=["above", "10x", "stretch", "drift"])
    def test_large_eigenvalue_bound_verdict_fails_on_a_perturbed_route(
            self, monkeypatch, text, verdict, also, name, perturb):
        # the verdict, and the ones listed with it, fail; every other verdict
        # of the config passes
        names = [v.name for v in run_experiment(
            ExperimentConfig.from_text(text)).verdicts]
        assert verdict in names and also <= set(names)
        monkeypatch.setattr(fspec.experiments, name,
                            perturb(getattr(fspec.experiments, name)))
        report = run_experiment(ExperimentConfig.from_text(text))
        assert {v.name: v.passed for v in report.verdicts} == {
            other: other not in also | {verdict} for other in names}

    @pytest.mark.parametrize("text, verdict, also, perturb", [
        # lambda_1 16/n low on the constant ladder, against errors of 0.50,
        # 0.13 and 0.03 on 16, 32 and 64: the first-order term takes the
        # orders against the Fourier oracle from 1.99 to 1.26 and 1.15
        (CONVERGENCE_CFG, "second-order-convergence", set(),
         lambda lam1, n: lam1 - 16.0 / n),
        # lambda_1 0.01 n high on the varying ladder: its gaps, 0.128 and
        # 0.032 unperturbed, grow from 0.29 to 0.35, and a growing gap fits
        # no positive order, so the order verdict fails with it
        (CONVERGENCE_VARYING_CFG, "self-convergence-cauchy",
         {"self-convergence-order"}, lambda lam1, n: lam1 + 0.01 * n),
    ], ids=["oracle-order", "cauchy"])
    def test_convergence_verdict_fails_on_a_perturbed_route(
            self, monkeypatch, text, verdict, also, perturb):
        # the verdict, and the ones listed with it, fail; every other verdict
        # of the config passes
        names = [v.name for v in run_experiment(
            ExperimentConfig.from_text(text)).verdicts]
        assert verdict in names and also <= set(names)
        solve = fspec.experiments.solve

        def perturbed(problem, k, seed=0):
            spectrum = solve(problem, k, seed=seed)
            values = spectrum.values.copy()
            values[1] = perturb(values[1], problem.grid.nx)
            return dataclasses.replace(spectrum, values=values)

        monkeypatch.setattr(fspec.experiments, "solve", perturbed)
        report = run_experiment(ExperimentConfig.from_text(text))
        assert {v.name: v.passed for v in report.verdicts} == {
            other: other not in also | {verdict} for other in names}

    @pytest.mark.parametrize("text, verdict, name, perturb", [
        # S halves: the ratios, which meet the bound with equality under a
        # constant factor, leave it
        (SCALING_CFG, "spectral-ratio-within-computable-bound",
         "_pencil_extremes", lambda extremes: _perturbed(extremes, 1, scale=0.5)),
        # F's spectrum (the first solve) 1e-6 high; the bound's slack is
        # widened so that the ratio's shift cannot reach the bound verdict
        (SCALING_CFG + "bound_slack = 1e-5\n", "ratio-matches-exact-scaling",
         "solve", lambda solve: _values_scaled(solve, 1 + 1e-6, call=0)),
        (CONFORMAL_CONST_CFG, "symbol-pipeline-vs-transform",
         "conformal_transform",
         lambda transform: _perturbed(transform, 0, scale=1 + 1e-6)),
        (CONFORMAL_CONST_CFG, "volume-scales-as-exp-2f", "SymbolField",
         lambda cls: _volume_scaled(cls, oracle=True)),
        # the base's spectrum (the first solve) 1e-8 high
        (CONFORMAL_CONST_CFG, "eigenvalues-scale-exactly", "solve",
         lambda solve: _values_scaled(solve, 1 + 1e-8, call=0)),
    ], ids=["bound", "ratio", "sigma", "volume", "eigenvalues"])
    def test_verdict_fails_on_a_perturbed_route(self, monkeypatch, text,
                                                verdict, name, perturb):
        # every other verdict of the config is out of the perturbation's
        # reach and must still pass
        names = [v.name for v in run_experiment(
            ExperimentConfig.from_text(text)).verdicts]
        assert verdict in names
        monkeypatch.setattr(fspec.experiments, name,
                            perturb(getattr(fspec.experiments, name)))
        report = run_experiment(ExperimentConfig.from_text(text))
        assert {v.name: v.passed for v in report.verdicts} == {
            other: other != verdict for other in names}

    def test_rows_carry_config_hash(self):
        cfg = ExperimentConfig.from_text(BILIPSCHITZ_CFG)
        report = run_experiment(cfg)
        assert all(row["config_hash"] == cfg.config_hash for row in report.rows)
        assert all(list(row)[:2] == ["row_type", "config_hash"]
                   for row in report.rows)

    def test_eta_sweep_required(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig.from_text(
                "kind = torus-large-eigenvalue\nh = 2\ngrid = 32\n"))

    def test_sub_threshold_rows_get_no_bound_verdict(self):
        # eta = 0 fails the drift condition: no large-eigenvalue claim is made
        cfg = ExperimentConfig.from_text(
            "kind = torus-large-eigenvalue\nh = 2\neta = 0.0\ngrid = 32\n")
        report = run_experiment(cfg)
        names = {v.name for v in report.verdicts}
        assert "lambda1-above-4pi2-over-r2" not in names
        assert report.passed
        row = [r for r in report.rows if r["row_type"] == "sweep"][0]
        assert row["condition"] == 0
        np.testing.assert_allclose(row["lambda1"], np.pi**2, rtol=1e-2)

    def test_eta_sweep_monotone_past_threshold(self):
        # for fixed h, lambda1 * vol is nondecreasing in eta once past the
        # threshold (min(A, B) grows with the drift there)
        cfg = ExperimentConfig.from_text(
            "kind = torus-large-eigenvalue\nh = 2\n"
            "eta = threshold, 0.9995, 0.9999\ngrid = 32\nfiber_nodes = auto\n")
        report = run_experiment(cfg)
        names = {v.name: v for v in report.verdicts}
        assert "lambda1-vol-monotone-in-drift-h2" in names
        assert names["lambda1-vol-monotone-in-drift-h2"].passed
        assert report.passed

    def test_verdicts_recomputable_from_csv(self, tmp_path):
        cfg = ExperimentConfig.from_text(SCALING_CFG)
        report = run_experiment(cfg, out_dir=tmp_path)
        with open(tmp_path / "rows.csv", newline="") as fh:
            raw_rows = list(csv.DictReader(fh))
        rows = []
        for raw in raw_rows:
            row = {}
            for key, value in raw.items():
                if value == "":
                    row[key] = ""
                    continue
                try:
                    row[key] = int(value)
                except ValueError:
                    try:
                        row[key] = float(value)
                    except ValueError:
                        row[key] = value
            rows.append(row)
        recomputed = verdicts_from_rows(report.kind, rows)
        assert [vars(v) for v in recomputed] == [vars(v) for v in report.verdicts]

    def test_rows_reproducible_bitwise(self, tmp_path):
        cfg = ExperimentConfig.from_text(BILIPSCHITZ_CFG)
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "rows.csv").read_bytes() \
            == (tmp_path / "b" / "rows.csv").read_bytes()
        assert a.rows_csv_text() == b.rows_csv_text()

    @pytest.mark.parametrize("text, routes", [
        (TORUS_CFG, {"fourier": 3}), (BILIPSCHITZ_CFG, {"fourier": 2}),
        (BILIPSCHITZ_CFG.replace("metric.eta = 0.5", "metric.eta = 0.5\n"
                                 "metric.profile = 0.5 + 0.3*sin(2*pi*x)"
                                 "*cos(2*pi*y)"),
         {"shift-invert": 1, "fourier": 1}),
        (CONFORMAL_CFG, {}), (CONFORMAL_CONST_CFG, {"fourier": 2}),
        (CONVERGENCE_CFG, {"fourier": 3})],
        ids=["torus", "bilipschitz", "bilipschitz-2d", "conformal",
             "conformal-const", "convergence"])
    def test_solver_routes_recorded(self, tmp_path, text, routes):
        run_experiment(ExperimentConfig.from_text(text), out_dir=tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["solver"]["routes"] == routes
        assert ("max_residual" in data["solver"]) == bool(routes)

    def test_report_json_contents(self, tmp_path):
        cfg = ExperimentConfig.from_text(CONVERGENCE_CFG)
        run_experiment(cfg, out_dir=tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["kind"] == "convergence"
        assert data["config_hash"] == cfg.config_hash
        assert data["passed"] is True
        assert data["verdicts"][0]["criterion"] == "discretization-order"
        assert "total_seconds" in data["timings"]

    def test_total_seconds_survive_a_wall_clock_step(self, monkeypatch):
        # the wall clock can be set back while a run is under way; the run
        # is timed on a monotonic clock, so its time stays nonnegative
        wall = itertools.count(1e9, -60.0)  # a minute back at every read
        monkeypatch.setattr(time, "time", lambda: next(wall))
        report = run_experiment(ExperimentConfig.from_text(TORUS_CFG))
        assert report.timings["total_seconds"] >= 0.0


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BILIPSCHITZ_CFG)
        code = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "rows.csv").exists()

    def test_run_fail_exit_one(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        # unattainable pointwise tolerance forces a failing verdict
        cfg_path.write_text(CONFORMAL_CFG + "tol_pointwise = 1e-30\n")
        code = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_bad_config_exit_two(self, tmp_path, capsys):
        # an unknown kind, a grid below 8 nodes a side, k + 2 >= the node
        # count, a convergence ladder of two grids, one with a repeated grid
        # size (its zero gap used to fail the Cauchy verdict), and k = 0
        # (no lambda_1); then values that do not read as what their key
        # takes: a number, a field expression, a rule of at least 16 nodes;
        # then torus axis lengths that are not positive and a negative drift
        # ratio, which would run the torus with its drift reversed; then a
        # torus sweep with k below 1, which used to run as k = 1, and a
        # negative seed on the block route (ignored) and on shift-invert
        # (numpy's seeding raised); then torus stretches of nan and inf,
        # which passed the h >= 1 check and escaped as a bare ValueError
        shift_invert = ("kind = bilipschitz-check\nmetric.type = randers\n"
                        "metric.g12 = 0.2\n"
                        "metric.rho_x = 0.3*sin(2*pi*x)*cos(2*pi*y)\n"
                        "grid = 16\nk = 3\n")
        cfg_path = tmp_path / "exp.cfg"
        for text in ["kind = nonsense\n",
                     BILIPSCHITZ_CFG + "grid = 4\n",
                     BILIPSCHITZ_CFG + "grid = 8\nk = 62\n",
                     BILIPSCHITZ_CFG + "k = 0\n",
                     CONVERGENCE_CFG + "grids = 16, 32\n",
                     CONVERGENCE_VARYING_CFG + "grids = 16, 32, 32, 64\n",
                     CONVERGENCE_CFG + "k = 0\n",
                     BILIPSCHITZ_CFG + "metric.h = two\n",
                     BILIPSCHITZ_CFG + "metric.profile = 0.5 + sin(2*pi*z)\n",
                     CONFORMAL_CFG + "f = sin(q)\n",
                     CONFORMAL_CFG + "f = sin(2*pi*x\n",
                     TORUS_CFG + "h = two\n",
                     IDENTITIES_CFG + "eta_values = 0.1, abc\n",
                     CONFORMAL_CFG + "tol_scaling = tight\n",
                     IDENTITIES_CFG + "fiber_nodes = 8\n",
                     IDENTITIES_CFG + "fiber_nodes = -4\n",
                     CONFORMAL_CFG + "fiber_nodes = 8\n",
                     CONFORMAL_CFG + "fiber_nodes = -4\n",
                     BILIPSCHITZ_CFG + "metric.h = -1\nmetric.eta = 0.5\n",
                     BILIPSCHITZ_CFG + "metric.eta = -0.5\n",
                     BILIPSCHITZ_CFG + "metric.h = 0\n",
                     BILIPSCHITZ_CFG + "metric.r = -0.5\n",
                     TORUS_CFG + "k = 0\n",
                     TORUS_CFG + "k = -4\n",
                     BILIPSCHITZ_CFG + "seed = -1\n",
                     shift_invert + "seed = -1\n",
                     TORUS_CFG + "h = nan\n",
                     TORUS_CFG + "h = 2, inf\n"]:
            cfg_path.write_text(text)
            assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_convergence_reads_seed(self, tmp_path, monkeypatch):
        seeds = []
        solve = fspec.experiments.solve

        def recording(problem, k, seed=0):
            seeds.append(seed)
            return solve(problem, k, seed=seed)

        monkeypatch.setattr(fspec.experiments, "solve", recording)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONVERGENCE_CFG + "seed = 5\n")
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert seeds == [5, 5, 5]

    def test_conformal_constant_only_on_probe_is_not_constant(self, tmp_path):
        # every point of a 13 x 13 probe is a zero of this 1/13-periodic
        # wave, but not every node of the 32 x 32 grid, so the exact scaling
        # law does not apply and no eigenvalue rows may be written
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("kind = conformal-check\nmetric.type = torus\n"
                            "metric.h = 2\nmetric.eta = 0.6\n"
                            "f = 0.1*sin(26*pi*x)\ngrid = 32\nk = 5\n")
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "rows.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["row_type"] for row in rows] == ["field"]

    @pytest.mark.parametrize("text, cause", [
        ("kind = conformal-check\nmetric.type = torus\nmetric.h = 1\n"
         "metric.eta = 0.99999\nf = 0.1*sin(2*pi*x)\ngrid = 16\n",
         "did not settle"),
        # the drift reaches |rho| = 1 - 1e-6 only in a narrow band around
        # x = 1/16, a node of this grid: a rule settled on other points
        # misses it and leaves sigma* 12% off
        ("kind = conformal-check\nmetric.type = torus\nmetric.h = 2\n"
         "metric.eta = 1\nmetric.profile = 0.3 + 0.699999*exp(-200*sin(pi*(x - "
         "0.0625))**2)\nf = 0.2\ngrid = 16\nk = 3\n", "did not settle"),
        ("kind = bilipschitz-check\nmetric.type = randers\n"
         "metric.rho_x = 1.2*sin(2*pi*y)\ngrid = 16\nk = 2\n",
         "not admissible"),
        # a drift ratio past 1 is refused, not capped to 1 - 1e-9
        (BILIPSCHITZ_CFG + "metric.eta = 1.5\n", "not admissible"),
        ("kind = torus-large-eigenvalue\nh = 2\neta = 0.5, 1.7\ngrid = 16\n",
         "not admissible"),
        # NaN data used to pass every admissibility test: the first solved
        # to a failed verdict (exit 1), the second ended in scipy's
        # "Factor is exactly singular"
        (BILIPSCHITZ_CFG + "metric.profile = nan\n", "NaN"),
        (BILIPSCHITZ_CFG + "metric.profile = 0.5 + 0.4*sin(2*pi*y) + "
         "0*log(y - 0.5)\ngrid = 16\nk = 3\n", "NaN"),
        # data that overflows used to pass admissibility and end in the
        # stencil's "weights and masses must be finite" (exit 1)
        ("kind = bilipschitz-check\nmetric.type = riemannian\n"
         "metric.g11 = 1e308\nmetric.g22 = 1e308\n", "overflows"),
        ("kind = bilipschitz-check\nmetric.type = conformal\nmetric.f = 400\n"
         "metric.base.type = torus\nmetric.base.h = 2\n", "overflows"),
    ], ids=["quadrature-error", "quadrature-error-off-probe", "ill-posed-metric",
            "inadmissible-torus-drift", "inadmissible-eta-sweep", "nan-profile",
            "nan-half-torus", "overflowing-metric", "overflowing-factor"])
    def test_numerical_error_exit_two(self, tmp_path, capsys, text, cause):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and cause in err

    def test_unreadable_config_or_out_exit_two(self, tmp_path, capsys):
        # a directory as the config, a config that is not UTF-8 and an --out
        # that is an existing file used to end in a traceback (exit 1)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BILIPSCHITZ_CFG)
        latin = tmp_path / "latin.cfg"
        latin.write_bytes(BILIPSCHITZ_CFG.encode() + "# caf\xe9\n".encode("latin-1"))
        for args in ([str(tmp_path)], [str(latin)],
                     [str(cfg_path), "--out", str(cfg_path)]):
            assert cli_main(["run", *args]) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_out_naming_a_file_is_refused_before_any_solve(self, tmp_path,
                                                            capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before --out was checked")

        monkeypatch.setattr(fspec.experiments, "solve", refuse)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BILIPSCHITZ_CFG)
        out = tmp_path / "taken"
        out.write_text("")
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err

    @pytest.mark.parametrize("text", [
        "kind = bilipschitz-check\nmetric.type = riemannian\n"
        "metric.g11 = 1e308\nmetric.g22 = 1e308\n",
        "kind = bilipschitz-check\nmetric.type = conformal\nmetric.f = 400\n"
        "metric.base.type = torus\nmetric.base.h = 2\n",
    ], ids=["overflowing-metric", "overflowing-factor"])
    def test_overflow_prints_the_error_line_alone(self, tmp_path, capsys, text):
        # numpy's overflow warnings used to reach stderr ahead of the error
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows" in err
        assert err.count("\n") == 1

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        latin = tmp_path / "latin.cfg"
        head = BILIPSCHITZ_CFG.encode() + b"# caf"
        latin.write_bytes(head + "\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_file(latin)
        assert str(latin) in str(exc.value)
        assert f"byte {len(head)} " in str(exc.value)
        assert cli_main(["run", str(latin)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_config_keys_have_no_override_flags(self, tmp_path):
        # grid, k and fiber_nodes are set by config lines alone
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(BILIPSCHITZ_CFG)
        for flag in ("--grid", "--k", "--fiber-nodes"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["run", str(cfg_path), flag, "24"])
            assert exc.value.code == 2

    def test_plots_emitted(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TORUS_CFG)
        out = tmp_path / "out"
        code = cli_main(["run", str(cfg_path), "--out", str(out), "--plots"])
        assert code == 0
        svgs = list(out.glob("*.svg"))
        assert svgs
        assert svgs[0].read_text().startswith("<svg")

    def test_parser_is_built_once_per_process(self, tmp_path, capsys):
        # one parser serves every call in a process, and each call still
        # returns and prints its own result
        fspec.cli._build_parser.cache_clear()
        assert cli_main(["oracle", "--A", "1", "--B", "1", "--k", "2"]) == 0
        oracle_out = capsys.readouterr().out
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONFORMAL_CFG + "tol_pointwise = 1e-30\n")
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
        run_out = capsys.readouterr().out
        info = fspec.cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert len(oracle_out.splitlines()) == 3 and "[FAIL]" not in oracle_out
        assert "[FAIL]" in run_out and f"outputs in {tmp_path}" in run_out

    def test_oracle_subcommand(self, capsys):
        assert cli_main(["oracle", "--A", "1", "--B", "1", "--k", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        k, lam = lines[1].split()
        assert k == "1"
        np.testing.assert_allclose(float(lam), 4 * np.pi**2, rtol=1e-15)
        # bad input is an error line; unchecked, a negative count, a
        # non-finite coefficient or one whose values overflow would widen the
        # oracle's lattice window without end
        for args in (["--A", "1", "--B", "1", "--k", "-1"],
                     ["--A", "0", "--B", "1", "--k", "3"],
                     ["--A", "inf", "--B", "1", "--k", "1"],
                     ["--A", "1", "--B", "nan", "--k", "1"],
                     ["--A", "1e308", "--B", "1e308", "--k", "1"]):
            assert cli_main(["oracle", *args]) == 2
            assert capsys.readouterr().err.startswith("error:")
