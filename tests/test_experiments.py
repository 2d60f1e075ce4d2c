"""Experiment configs, runners, verdict recomputability, CLI surface."""

import csv
import json

import numpy as np
import pytest

import fspec.experiments
from fspec import (ConfigError, ExperimentConfig, RandersMetric,
                   RiemannianMetric, build_metric, run_experiment,
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

    def test_hash_tracks_text(self):
        a = ExperimentConfig.from_text(CONVERGENCE_CFG)
        b = ExperimentConfig.from_text(CONVERGENCE_CFG)
        c = ExperimentConfig.from_text(CONVERGENCE_CFG + "k = 2\n")
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_echo_prints_full_precision(self, tmp_path):
        cfg = ExperimentConfig.from_text(
            "kind = convergence\nmetric.type = torus\nmetric.h = 1\n"
            "grids = 16, 32, 64\nalpha = 0.1\n")
        report = run_experiment(cfg)
        echoed = report.echo["alpha"]
        assert echoed == "0.10000000000000001"
        assert float(echoed) == 0.1


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
        assert spec.variant == "conformal"
        assert spec.base.variant == "randers"

    def test_unknown_type(self):
        with pytest.raises(ConfigError):
            build_metric({"type": "hyperbolic"})


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
        cfg = ExperimentConfig.from_text(text)
        cfg.override("fiber_nodes", 256)
        with pytest.raises(ConfigError, match="fiber_nodes must be 'auto'"):
            run_experiment(cfg)
        cfg.override("fiber_nodes", "auto")
        assert run_experiment(cfg).passed

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
        (TORUS_CFG, {"block": 3}), (BILIPSCHITZ_CFG, {"block": 2}),
        (BILIPSCHITZ_CFG.replace("metric.eta = 0.5", "metric.eta = 0.5\n"
                                 "metric.profile = 0.5 + 0.3*sin(2*pi*x)"
                                 "*cos(2*pi*y)"),
         {"shift-invert": 1, "block": 1}),
        (CONFORMAL_CFG, {}), (CONFORMAL_CONST_CFG, {"block": 2}),
        (CONVERGENCE_CFG, {"block": 3})],
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
        # (no lambda_1)
        cfg_path = tmp_path / "exp.cfg"
        for text in ["kind = nonsense\n",
                     BILIPSCHITZ_CFG + "grid = 4\n",
                     BILIPSCHITZ_CFG + "grid = 8\nk = 62\n",
                     BILIPSCHITZ_CFG + "k = 0\n",
                     CONVERGENCE_CFG + "grids = 16, 32\n",
                     CONVERGENCE_VARYING_CFG + "grids = 16, 32, 32, 64\n",
                     CONVERGENCE_CFG + "k = 0\n"]:
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
        ("kind = bilipschitz-check\nmetric.type = randers\n"
         "metric.rho_x = 1.2*sin(2*pi*y)\ngrid = 16\nk = 2\n",
         "not admissible"),
    ], ids=["quadrature-error", "ill-posed-metric"])
    def test_numerical_error_exit_two(self, tmp_path, capsys, text, cause):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(text)
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and cause in err

    def test_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(CONFORMAL_CONST_CFG)
        out = tmp_path / "out"
        code = cli_main(["run", str(cfg_path), "--out", str(out),
                         "--grid", "24", "--k", "3", "--fiber-nodes", "128"])
        assert code == 0
        with open(out / "rows.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["grid"] == "24"
        assert rows[0]["fiber_nodes"] == "128"
        eig_rows = [r for r in rows if r["row_type"] == "eigenvalue"]
        assert len(eig_rows) == 3

    def test_plots_emitted(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TORUS_CFG)
        out = tmp_path / "out"
        code = cli_main(["run", str(cfg_path), "--out", str(out), "--plots"])
        assert code == 0
        svgs = list(out.glob("*.svg"))
        assert svgs
        assert svgs[0].read_text().startswith("<svg")

    def test_oracle_subcommand(self, capsys):
        assert cli_main(["oracle", "--A", "1", "--B", "1", "--k", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        k, lam = lines[1].split()
        assert k == "1"
        np.testing.assert_allclose(float(lam), 4 * np.pi**2, rtol=1e-15)
        # bad input is an error line; unchecked, a negative count would widen
        # the oracle's lattice window without end
        for args in (["--A", "1", "--B", "1", "--k", "-1"],
                     ["--A", "0", "--B", "1", "--k", "3"]):
            assert cli_main(["oracle", *args]) == 2
            assert capsys.readouterr().err.startswith("error:")
