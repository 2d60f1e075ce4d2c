"""Spectral geometry of the Finsler Laplacian on flat 2-tori.

Metric families (Riemannian, Randers, conformal), closed-form volume / symbol
/ weight fields checked by fiber-circle quadrature, a flux-form weighted
Laplacian with an exact Fourier-block eigensolve for fields invariant along
one axis without a cross term and shift-invert for the rest, and
config-driven experiments.
"""

from .fields import Field, as_field, reduce_mod1
from .metrics import (ConformalMetric, IllPosedMetricError, RandersMetric,
                      RiemannianMetric, base_metric, bilipschitz_ratio,
                      check_strong_convexity, dual_gradient_numeric,
                      dual_norm_sampled, legendre_numeric, quasireversibility,
                      unit_directions)
from .fiber import (FiberQuadrature, QuadratureError, SymbolField,
                    binet_legendre, conformal_transform, energy_from_symbol,
                    randers_angular_closed_forms, randers_angular_integrals,
                    randers_axis_symbol, randers_energy_direct,
                    resolve_fiber_nodes, symbol_matrix, volume_density, weight)
from .grid import TorusGrid
from .solver import (SolverError, SpectralProblem, Spectrum, assemble,
                     discrete_fourier_oracle, fourier_oracle, rayleigh, solve)
from .experiments import (ConfigError, ExperimentConfig, Report, Verdict,
                          build_metric, run_experiment, threshold_eta,
                          verdicts_from_rows)

__version__ = "0.1.0"

__all__ = [
    "Field", "as_field", "reduce_mod1",
    "RiemannianMetric", "RandersMetric", "ConformalMetric", "base_metric",
    "IllPosedMetricError", "quasireversibility", "bilipschitz_ratio",
    "check_strong_convexity", "dual_norm_sampled", "dual_gradient_numeric",
    "legendre_numeric", "unit_directions",
    "FiberQuadrature", "QuadratureError", "SymbolField",
    "volume_density", "symbol_matrix", "weight", "binet_legendre",
    "conformal_transform", "randers_axis_symbol", "randers_angular_integrals",
    "randers_angular_closed_forms", "randers_energy_direct",
    "energy_from_symbol", "resolve_fiber_nodes",
    "TorusGrid", "SpectralProblem", "Spectrum", "SolverError",
    "assemble", "solve", "rayleigh", "fourier_oracle",
    "discrete_fourier_oracle",
    "ExperimentConfig", "ConfigError", "Report", "Verdict",
    "build_metric", "run_experiment", "threshold_eta", "verdicts_from_rows",
    "__version__",
]
