"""Command-line front end: ``fspec run <config>`` and ``fspec oracle``."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import ConfigError, ExperimentConfig, run_experiment
from .fiber import QuadratureError
from .metrics import IllPosedMetricError
from .solver import SolverError, fourier_oracle


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fspec",
        description="Finsler-Laplacian spectra on flat 2-tori: run experiment "
                    "configs or print the constant-coefficient Fourier oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config file")
    run.add_argument("config", help="plain-text key = value experiment file")
    run.add_argument("--out", default=".", help="output directory "
                     "(report.json, rows.csv, optional plots)")
    run.add_argument("--plots", action="store_true", help="emit SVG plots")
    run.add_argument("--grid", type=int, default=None, help="override grid size")
    run.add_argument("--fiber-nodes", type=int, default=None,
                     help="override the fiber node count of the quadrature "
                          "oracle (conformal-check, randers-identities); the "
                          "spectral kinds accept only 'auto'")
    run.add_argument("--k", type=int, default=None,
                     help="override eigenvalue count")

    oracle = sub.add_parser("oracle", help="print the exact spectrum "
                            "4 pi^2 (A m^2 + B n^2)")
    oracle.add_argument("--A", type=float, required=True)
    oracle.add_argument("--B", type=float, required=True)
    oracle.add_argument("--k", type=int, required=True)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "oracle":
        try:
            values = fourier_oracle(np.diag([args.A, args.B]), args.k)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for k, lam in enumerate(values):
            print(f"{k} {lam:.17g}")
        return 0

    try:
        cfg = ExperimentConfig.from_file(args.config)
        cfg.override("grid", args.grid)
        cfg.override("fiber_nodes", args.fiber_nodes)
        cfg.override("k", args.k)
        report = run_experiment(cfg, out_dir=args.out, plots=args.plots)
    except (ConfigError, FileNotFoundError, IllPosedMetricError,
            QuadratureError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for verdict in report.verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        print(f"[{status}] {verdict.name} ({verdict.criterion}): {verdict.detail}")
    n_pass = sum(v.passed for v in report.verdicts)
    print(f"{n_pass}/{len(report.verdicts)} verdicts passed; "
          f"config {report.config_hash}; outputs in {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
