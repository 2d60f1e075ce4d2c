"""Spectral geometry of the Finsler Laplacian on flat 2-tori.

Metric families (Riemannian, Randers, conformal), closed-form volume / symbol
/ weight fields checked by the n-node trapezoid rule on the fiber circle, the
closed-form Binet-Legendre metric, a flux-form weighted Laplacian with three
eigensolve routes (exact 2-D Fourier modes for constant stencils, cross term
included; exact Fourier blocks for stencils invariant along one axis without
a cross term; shift-invert for the rest), and config-driven experiments.
The pointwise quadrature references the closed forms are checked against
live with the tests, in ``tests/oracles.py``.
"""

from .fields import Field, as_field
from .metrics import (ConformalMetric, IllPosedMetricError, RandersMetric,
                      RiemannianMetric, base_metric)
from .fiber import (QuadratureError, SymbolField, binet_legendre,
                    conformal_transform, energy_from_symbol,
                    randers_angular_closed_forms, randers_angular_integrals,
                    randers_axis_symbol, randers_energy_direct)
from .grid import TorusGrid
from .solver import (SolverError, SpectralProblem, Spectrum, assemble,
                     fourier_oracle, solve)
from .experiments import (ConfigError, ExperimentConfig, Report, Verdict,
                          build_metric, run_experiment, threshold_eta,
                          verdicts_from_rows)

__version__ = "0.1.0"

__all__ = [
    "Field", "as_field",
    "RiemannianMetric", "RandersMetric", "ConformalMetric", "base_metric",
    "IllPosedMetricError",
    "QuadratureError", "SymbolField",
    "binet_legendre", "conformal_transform", "randers_axis_symbol",
    "randers_angular_integrals", "randers_angular_closed_forms",
    "randers_energy_direct", "energy_from_symbol",
    "TorusGrid", "SpectralProblem", "Spectrum", "SolverError",
    "assemble", "solve", "fourier_oracle",
    "ExperimentConfig", "ConfigError", "Report", "Verdict",
    "build_metric", "run_experiment", "threshold_eta", "verdicts_from_rows",
    "__version__",
]
