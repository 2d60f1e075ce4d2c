"""Config-driven experiments with CSV/JSON reports and pass/fail verdicts.

An experiment is one plain-text key-value file (``key = value`` lines, ``#``
comments, dotted keys nest, commas make lists).  Five kinds are supported:

* torus-large-eigenvalue : drift sweeps on the unit-volume stretched torus,
  checking lambda_1 >= 4 pi^2 / r^2 past the drift threshold and the
  unbounded growth of lambda_1 * vol with the stretch.
* bilipschitz-check      : eigenvalue ratios of two metrics against the
  computable symbol/volume ratio bound.
* randers-identities     : volume identity, drift-averaged angular integrals
  vs closed forms, and the two-route energy agreement.
* conformal-check        : from-scratch symbol of exp(f) F vs the transformed
  symbol, and exact eigenvalue scaling when f is constant on the grid nodes.
* convergence            : grid-refinement orders for lambda_1.

Each kind is one entry of ``KINDS``: its runner, its verdict function and
its plot (or None).  A runner's parameters are the kind's schema: the first
takes the kind's name, and each other one is a top-level config key with
its default (``ExperimentKind.keys`` lists them, and a config naming any
other key is refused).  To add a kind, write the runner (config keys in,
result rows and solver_info out) and the verdict function (rows in, verdicts
out) and add the entry; config parsing, verdicts, plots and
``run_experiment`` all dispatch through the table.
Runners leave ``config_hash`` out of their rows: ``run_experiment`` stamps
it into every row, after ``row_type``.

Verdicts are pure functions of the result rows (``verdicts_from_rows``), so a
report can be re-audited from rows.csv alone.  rows.csv is bit-for-bit
reproducible for a fixed config and seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field as dataclass_field
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .fields import as_field
from .fiber import (SymbolField, _circle, randers_angular_closed_forms,
                    randers_angular_integrals, randers_axis_symbol,
                    randers_energy_direct, energy_from_symbol,
                    conformal_transform)
from .grid import TorusGrid
from .metrics import ConformalMetric, RandersMetric, RiemannianMetric, base_metric
from .solver import (_stiffness_condition_estimate, assemble, fourier_oracle,
                     solve)

# threshold_eta caps its ratio here: beyond it the slack 1 - |rho|^2 is
# dominated by double-precision rounding and the fiber integrand can no
# longer be resolved.  A requested ratio is never capped: one at or past 1
# is refused where the metric is folded.
ETA_CAP = 1.0 - 1e-9

_DEFAULT_TOLERANCES = {
    "tol_spectral": 1e-2,    # discretization-limited comparisons
    "tol_pointwise": 1e-8,   # quadrature-limited field identities
    "tol_cross": 1e-10,      # vanishing cross term
    "tol_energy": 1e-6,      # two-route energy agreement
    "tol_scaling": 1e-10,    # exact discrete scaling laws
    "bound_slack": 1e-9,     # roundoff guard on ratio bounds met with equality
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _parse_scalar(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text):
    """Parse ``key = value`` lines into a nested parameter dict.

    A repeated key overrides the earlier value; raises ConfigError where a
    dotted key would nest under an earlier scalar, or a key would replace
    the block of earlier dotted keys under it."""
    params = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if "," in value:
            parsed = [_parse_scalar(v) for v in value.split(",") if v.strip()]
        else:
            parsed = _parse_scalar(value)
        node = params
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: key {key!r} conflicts with "
                                  "an earlier scalar")
        if isinstance(node.get(parts[-1]), dict):
            raise ConfigError(f"line {lineno}: key {key!r} would replace the "
                              f"block of earlier '{key}.*' keys")
        node[parts[-1]] = parsed
    return params


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    text: str
    config_hash: str

    @classmethod
    def from_text(cls, text):
        """Parse a config; raises ConfigError for an unknown kind, a top-level
        key the kind does not read, a size (grid, grids, k, seed,
        fiber_nodes other than 'auto') that is not an integer, or a negative
        seed."""
        params = parse_config_text(text)
        kind = params.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"unknown or missing experiment kind {kind!r}; "
                              f"expected one of {sorted(KINDS)}")
        _reject_unknown(params, ("kind",) + KINDS[kind].keys, kind)
        for key in ("grid", "grids", "k", "seed", "fiber_nodes"):
            value = params.get(key, 0)
            for item in value if key == "grids" and isinstance(value, list) else [value]:
                if not isinstance(item, int) and (key, item) != ("fiber_nodes", "auto"):
                    raise ConfigError(f"{key} must be an integer, got {item!r}")
        if params.get("seed", 0) < 0:
            raise ConfigError(f"seed must be non-negative, got {params['seed']}")
        digest = hashlib.sha256(text.replace("\r\n", "\n").encode()).hexdigest()
        return cls(kind=kind, params=params, text=text, config_hash=digest[:16])

    @classmethod
    def from_file(cls, path):
        """Parse the config file at path, read as UTF-8; raises ConfigError
        naming the path and the byte offset if it is not UTF-8."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8: byte {exc.start} "
                              f"({exc.object[exc.start]:#04x}) does not decode") from exc
        return cls.from_text(text)

    def get(self, key, default=None):
        node = self.params
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                return default
            node = node[part]
        return node


def _read(key, value, convert):
    """convert(value), raising ConfigError naming key for a value it rejects."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _reject_unknown(params, known, owner):
    """Raise ConfigError naming the keys of params that are not in known."""
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigError(f"{owner} reads no key {', '.join(unknown)}; "
                          f"it reads {', '.join(known)}")


# The keys each metric block type reads, besides its type
_METRIC_KEYS = {"torus": ("h", "r", "eta", "profile"),
                "riemannian": ("g11", "g12", "g22"),
                "randers": ("g11", "g12", "g22", "rho_x", "rho_y"),
                "conformal": ("f", "base")}


def build_metric(d):
    """Construct a metric from a config block (nested dict or 'base');
    raises ConfigError for an unknown type or a key the type does not read."""
    if not isinstance(d, dict):
        raise ConfigError(f"expected a metric block, got {d!r}")
    kind = str(d.get("type", "torus")).lower()
    if kind not in _METRIC_KEYS:
        raise ConfigError(f"unknown metric type {kind!r}")
    _reject_unknown(d, ("type",) + _METRIC_KEYS[kind], f"a {kind} metric block")

    def value(key, default, convert=as_field):
        return _read(f"{key} of a {kind} metric block", d.get(key, default), convert)

    if kind == "torus":
        h = value("h", 1.0, float)
        r = value("r", None, float) if "r" in d else None
        eta = value("eta", 0.0, float)
        # a negative length or ratio would run the torus with its drift reversed
        if not h > 0.0 or not (r is None or r > 0.0):
            raise ConfigError("axis lengths h and r of a torus metric block "
                              "must be positive")
        if not eta >= 0.0:
            raise ConfigError("the drift ratio eta of a torus metric block "
                              "must satisfy eta >= 0")
        if eta == 0.0:
            return RiemannianMetric.stretched(h, r)
        return RandersMetric.axis_drift_torus(h, eta, r, value("profile", 1.0))
    if kind == "conformal":
        if "base" not in d:
            raise ConfigError("conformal metric block needs a base.* block")
        return ConformalMetric(build_metric(d["base"]), value("f", 0.0))
    g = RiemannianMetric(value("g11", 1.0), value("g12", 0.0), value("g22", 1.0))
    if kind == "riemannian":
        return g
    return RandersMetric(g, value("rho_x", 0.0), value("rho_y", 0.0))


def threshold_eta(h, r=None, margin=0.0):
    """Smallest drift ratio for which the stretched-torus symbol satisfies
    A >= 1/r^2: eta = sqrt(1 - s^2) with s the root in (0, 1] of
    s (1 + s) = t, t = 2 r^2 / h^2, taken in the cancellation-free form
    s = 2 t / (1 + sqrt(1 + 4 t)).

    margin > 0 shrinks s by that relative amount, nudging the returned ratio
    just past the threshold so the condition holds robustly under roundoff.
    """
    h = float(h)
    r = 1.0 / h if r is None else float(r)
    target = 2.0 * r * r / (h * h)
    if target >= 2.0:
        return 0.0
    s = 2.0 * target / (1.0 + np.sqrt(1.0 + 4.0 * target)) * (1.0 - margin)
    return min(float(np.sqrt(max(1.0 - s * s, 0.0))), ETA_CAP)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    name: str
    criterion: str
    passed: bool
    detail: str


@dataclass
class Report:
    kind: str
    config_hash: str
    echo: dict
    rows: list
    verdicts: list
    timings: dict = dataclass_field(default_factory=dict)
    solver_info: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self):
        return all(v.passed for v in self.verdicts)

    def rows_csv_text(self):
        """The rows as CSV: every column any row has, in first-seen order,
        with floats at full precision and a column a row lacks left empty."""
        columns = list(dict.fromkeys(key for row in self.rows for key in row))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, columns, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows({key: _echo_value(value) for key, value in row.items()}
                         for row in self.rows)
        return buf.getvalue()

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "config_hash": self.config_hash,
            "echo": self.echo,
            "rows": self.rows,
            "verdicts": [vars(v) for v in self.verdicts],
            "timings": self.timings,
            "solver": self.solver_info,
            "passed": self.passed,
        }

    def write(self, out_dir, plots=False):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "rows.csv").write_text(self.rows_csv_text())
        # encoded whole, then written once: json.dump would write chunk by chunk
        (out_dir / "report.json").write_text(json.dumps(
            self.to_json_dict(), indent=2,
            default=lambda o: o.item() if isinstance(o, np.generic) else str(o)))
        written = [out_dir / "report.json", out_dir / "rows.csv"]
        if plots:
            written += self._write_plots(out_dir)
        return written

    def _write_plots(self, out_dir):
        from .svgplot import line_plot

        plot = KINDS[self.kind].plot
        if plot is None:
            return []
        rows = [r for r in _rows_of(self.rows, plot.row_type)
                if all(r.get(column) for column in plot.series.values())]
        if len(rows) < 2:
            return []
        path = out_dir / plot.file
        line_plot(path, [r[plot.x] for r in rows],
                  {label: [r[column] for r in rows]
                   for label, column in plot.series.items()},
                  title=plot.title, xlabel=plot.xlabel, ylabel=plot.ylabel,
                  logy=plot.logy)
        return [path]


def _echo_value(value):
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, list):
        return [_echo_value(v) for v in value]
    return value


def _flatten(params, prefix=""):
    flat = {}
    for key, value in params.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        else:
            flat[name] = _echo_value(value)
    return flat


# ---------------------------------------------------------------------------
# Verdicts as pure functions of the rows
# ---------------------------------------------------------------------------

def verdicts_from_rows(kind, rows):
    """Recompute all verdicts from result rows (as written to rows.csv)."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    return KINDS[kind].verdicts(rows)


def _rows_of(rows, row_type):
    return [r for r in rows if r.get("row_type") == row_type]


def _within_tolerance(rows, error, tol_key, name, criterion, measured):
    """[Verdict] that the largest error over rows is at most the largest
    tol_key value, or [] if there are no rows.  error is a column name or a
    function of a row; the detail reads '<measured> = <error> (tol <tol>)'."""
    if not rows:
        return []
    error = error if callable(error) else itemgetter(error)
    err = max(error(r) for r in rows)
    tol = max(r[tol_key] for r in rows)
    return [Verdict(name, criterion, err <= tol,
                    f"{measured} = {err:.3e} (tol {tol:g})")]


def _verdicts_large_eigenvalue(rows):
    verdicts = []
    sweep = _rows_of(rows, "sweep")
    baseline = _rows_of(rows, "baseline")

    conditioned = [r for r in sweep if r["condition"]]
    if conditioned:
        worst = min(r["lambda1"] / (r["target"] * (1.0 - r["tol_spectral"]))
                    for r in conditioned)
        verdicts.append(Verdict(
            "lambda1-above-4pi2-over-r2", "large-eigenvalue-theorem",
            worst >= 1.0,
            f"{len(conditioned)} rows past the drift threshold; min "
            f"lambda1/((1-tol) 4pi^2/r^2) = {worst:.6f}"))

    verdicts += _within_tolerance(
        sweep + baseline,
        lambda r: abs(r["lambda1"] - r["lambda1_closed"]) / r["lambda1_closed"],
        "tol_spectral", "lambda1-matches-constant-symbol",
        "fourier-oracle-equivalence", "max |lambda1 - 4pi^2 min(A,B)| / value")
    verdicts += _within_tolerance(
        sweep + baseline, lambda r: abs(r["vol"] - r["h"] * r["r"]),
        "tol_pointwise", "volume-equals-riemannian-volume",
        "randers-volume-identity", "max |vol - h r|")

    by_h = sorted({r["h"] for r in conditioned})
    if len(by_h) >= 2:
        best = [max(r["lambda1_vol"] for r in conditioned if r["h"] == h)
                for h in by_h]
        increasing = all(b > a for a, b in zip(best, best[1:]))
        verdicts.append(Verdict(
            "lambda1-vol-grows-with-stretch", "unbounded-first-eigenvalue",
            increasing,
            "lambda1 * vol at threshold drift: "
            + ", ".join(f"h={h:g}: {v:.4g}" for h, v in zip(by_h, best))))

    # the unboundedness claim lives in the stretch h, not the drift: a single-h
    # drift sweep saturates at 2/r^2, so the 10x target only applies to h sweeps
    if baseline and conditioned and len(by_h) >= 2:
        base_val = baseline[0]["lambda1_vol"]
        top = max(r["lambda1_vol"] for r in conditioned)
        verdicts.append(Verdict(
            "exceeds-10x-riemannian-baseline", "unbounded-first-eigenvalue",
            top >= 10.0 * base_val,
            f"max lambda1 * vol = {top:.4g} vs baseline {base_val:.4g} "
            f"(factor {top / base_val:.2f})"))

    for h in sorted({r["h"] for r in sweep}):
        past = sorted((r for r in sweep if r["h"] == h and r["condition"]),
                      key=lambda r: r["eta"])
        if len(past) >= 2:
            vals = [r["lambda1_vol"] for r in past]
            ok = all(b >= a * (1.0 - 1e-9) for a, b in zip(vals, vals[1:]))
            verdicts.append(Verdict(
                f"lambda1-vol-monotone-in-drift-h{h:g}",
                "threshold-monotonicity", ok,
                "lambda1 * vol over the drift sweep past threshold: "
                + ", ".join(f"{v:.6g}" for v in vals)))
    return verdicts


def _verdicts_bilipschitz(rows):
    eig = _rows_of(rows, "eigenvalue")
    inside = all(r["bound_lower"] * (1.0 - r["bound_slack"]) <= r["ratio"]
                 <= r["bound_upper"] * (1.0 + r["bound_slack"]) for r in eig)
    margin = min(min(r["ratio"] / r["bound_lower"], r["bound_upper"] / r["ratio"])
                 for r in eig)
    return [Verdict(
        "spectral-ratio-within-computable-bound", "bilipschitz-spectral-control",
        inside,
        f"{len(eig)} eigenvalue ratios inside [1/S', S]; worst margin factor "
        f"{margin:.6f}")] + _within_tolerance(
        [r for r in eig if r.get("expect_ratio") not in (None, "")],
        lambda r: abs(r["ratio"] - r["expect_ratio"]) / r["expect_ratio"],
        "tol_scaling", "ratio-matches-exact-scaling", "discrete-scaling-law",
        "max |ratio - expected| / expected")


def _verdicts_randers_identities(rows):
    integ = _rows_of(rows, "integral")
    return (
        _within_tolerance(
            _rows_of(rows, "volume"), "max_mu_diff", "tol_pointwise",
            "volume-density-equals-base", "randers-volume-identity",
            "max |mu_randers - mu_base|")
        + _within_tolerance(
            integ, lambda r: max(r["err_cos2"], r["err_sin2"]), "tol_pointwise",
            "angular-integrals-match-closed-forms", "drift-averaged-integrals",
            "max quadrature error over eta sweep")
        + _within_tolerance(
            integ, lambda r: abs(r["cross_quad"]), "tol_cross",
            "cross-term-vanishes", "drift-averaged-integrals",
            "max |cross integral|")
        + _within_tolerance(
            _rows_of(rows, "energy"), "rel_diff", "tol_energy",
            "energy-two-route-agreement", "symbol-route-validation",
            "max relative symbol-route vs fiber-route energy gap"))


def _verdicts_conformal(rows):
    fld = _rows_of(rows, "field")
    return (
        _within_tolerance(
            fld, "max_sigma_rel_diff", "tol_pointwise",
            "symbol-pipeline-vs-transform", "conformal-rescaling-lemma",
            "max relative sigma* difference")
        + _within_tolerance(
            fld, "max_mu_ratio_err", "tol_pointwise", "volume-scales-as-exp-2f",
            "conformal-rescaling-lemma", "max |mu'/mu - exp(2f)| / exp(2f)")
        + _within_tolerance(
            _rows_of(rows, "eigenvalue"), "scaling_err", "tol_scaling",
            "eigenvalues-scale-exactly", "discrete-scaling-law",
            "max |lambda_conf exp(2f) - lambda_base| / lambda_base"))


def _second_order(orders):
    """True if there is an order and each lies within 1.678-2.322, an error
    ratio of 4x +/- 20% per doubling."""
    return bool(orders) and all(1.678 <= o <= 2.322 for o in orders)


def _three_level_order(n0, n1, n2, ratio):
    """The order p at which errors C n^-p on grids n0 < n1 < n2 leave the
    gap ratio (n0^-p - n1^-p) / (n1^-p - n2^-p) = ratio, which is r^p on a
    geometric ladder of ratio r.

    The gap ratio rises strictly with p, from log(n1/n0) / log(n2/n1) as
    p -> 0, so bisection finds p; a ratio at or below that limit fits no
    positive order and reads 0.
    """
    up, down = np.log(n1 / n0), np.log(n2 / n1)

    def excess(p):
        # log of the gap ratio at order p, its terms multiplied by n1^p,
        # less log(ratio)
        return (np.log(np.expm1(p * up)) - np.log(-np.expm1(-p * down))
                - np.log(ratio))

    if ratio <= up / down:
        return 0.0
    lo, hi = 0.0, 1.0
    while excess(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _verdicts_convergence(rows):
    data = _rows_of(rows, "level")
    orders = [r["order_lambda1"] for r in data if r.get("order_lambda1") not in (None, "")]
    if data and data[0]["reference"] == "oracle":
        return [Verdict(
            "second-order-convergence", "discretization-order",
            _second_order(orders),
            "observed lambda_1 orders: " + ", ".join(f"{o:.3f}" for o in orders))]
    gaps = [r["gap_lambda1"] for r in data[1:]]
    ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    # a vanishing gap has no order, and reads inf
    gap_orders = [_three_level_order(lo["n"], mid["n"], hi["n"],
                                     mid["gap_lambda1"] / hi["gap_lambda1"])
                  if mid["gap_lambda1"] > 0.0 and hi["gap_lambda1"] > 0.0
                  else float("inf")
                  for lo, mid, hi in zip(data, data[1:], data[2:])]
    return [
        Verdict("self-convergence-cauchy", "discretization-order",
                len(gaps) >= 2 and ok,
                "successive |lambda_1 gaps|: "
                + ", ".join(f"{g:.3e}" for g in gaps)),
        Verdict("self-convergence-order", "discretization-order",
                _second_order(gap_orders),
                "observed lambda_1 gap orders: "
                + ", ".join(f"{o:.3f}" for o in gap_orders)),
    ]


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _closed_form_solver_info(kind, fiber_nodes):
    """The solver_info of a spectral kind before its first solve.

    Raises ConfigError unless fiber_nodes is auto: the spectral kinds always
    use the closed-form symbol field, which a fiber rule would only reproduce
    with quadrature error and at a higher cost.
    """
    if fiber_nodes != "auto":
        raise ConfigError(f"{kind} uses the closed-form symbol field; "
                          f"fiber_nodes must be 'auto', got {fiber_nodes!r}")
    return {"fiber_nodes": "closed-form", "routes": {}}


def _metric(kind, block):
    """The metric of the config's metric.* block, which the kind requires."""
    if block is None:
        raise ConfigError(f"{kind} needs a metric.* block")
    return build_metric(block)


def _oracle_rule(fiber_nodes):
    """The fiber rule of an oracle kind: "auto" (SymbolField.compute settles
    it on the grid) or the node count fiber_nodes of the trapezoid rule,
    raising ConfigError for a count the rule refuses (``_circle``)."""
    if fiber_nodes != "auto":
        _read("fiber_nodes", fiber_nodes, _circle)
    return fiber_nodes


def _as_list(value):
    """A list key's entries: a config list as it is, nothing for None, and
    any other value as a list of one."""
    if value is None:
        return []
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _square_grid(n):
    """TorusGrid.square(n), raising ConfigError for a size it rejects."""
    try:
        return TorusGrid.square(n)
    except ValueError as exc:
        raise ConfigError(f"grid {n}: {exc}") from exc


def _solve(field, k, seed, solver_info):
    """(problem, spectrum): assemble(field) and its first k+1 pairs.

    Raises ConfigError unless 1 <= k and k + 2 < n for the n grid nodes:
    every kind needs lambda_1, and the solver needs the margin.  Counts the
    route in solver_info["routes"], keeps the largest residual in
    solver_info["max_residual"] and the largest residual-to-floor ratio of
    a pair the rounding floor admitted (0.0 if none) in
    solver_info["max_floor_ratio"].  assemble and solve are looked up in this
    module at each call, so a wrapper bound to either name here sees every
    solve of every runner.
    """
    n = field.grid.node_count
    if not 1 <= k < n - 2:
        raise ConfigError(f"k = {k} needs 1 <= k and k + 2 < {n}, the node "
                          f"count of grid {field.grid.nx}x{field.grid.ny}")
    problem = assemble(field)
    spectrum = solve(problem, k, seed=seed)
    routes = solver_info["routes"]
    routes[spectrum.route] = routes.get(spectrum.route, 0) + 1
    solver_info["max_residual"] = max(solver_info.get("max_residual", 0.0),
                                      float(spectrum.residuals.max()))
    solver_info["max_floor_ratio"] = max(solver_info.get("max_floor_ratio", 0.0),
                                         spectrum.floor_ratio)
    return problem, spectrum


def run_torus_large_eigenvalue(kind, h=2.0, eta=None, grid=128, k=1, seed=0,
                               fiber_nodes="auto",
                               tol_spectral=_DEFAULT_TOLERANCES["tol_spectral"],
                               tol_pointwise=_DEFAULT_TOLERANCES["tol_pointwise"]):
    h_list = [_read("h", value, float) for value in _as_list(h)]
    if not all(1.0 <= value < np.inf for value in h_list):
        raise ConfigError(f"stretch values must be finite and satisfy h >= 1, "
                          f"got {h_list}")
    eta_items = _as_list(eta)
    if not eta_items:
        raise ConfigError(f"{kind} needs an eta sweep "
                          "(numbers and/or 'threshold')")
    solver_info = _closed_form_solver_info(kind, fiber_nodes)
    rows = []

    def run_case(h, eta, requested, grid_n, row_type):
        r = 1.0 / h
        if eta > 0.0:
            spec = RandersMetric.axis_drift_torus(h, eta)
        else:
            spec = RiemannianMetric.stretched(h)
        field = SymbolField.compute(spec, _square_grid(grid_n))
        problem, spectrum = _solve(field, k, seed, solver_info)
        A, B = randers_axis_symbol(h, r, eta)
        lam1 = float(spectrum.values[1])
        vol = field.total_volume()
        rows.append({
            "row_type": row_type,
            "h": h, "r": r, "eta": eta, "requested_eta": str(requested),
            "grid": grid_n, "fiber_nodes": "closed-form",
            "A": A, "B": B,
            "lambda1": lam1,
            "lambda1_closed": 4.0 * np.pi**2 * min(A, B),
            "vol": vol,
            "lambda1_vol": lam1 * vol,
            "target": 4.0 * np.pi**2 / r**2,
            "condition": int(A >= (1.0 / r**2) * (1.0 - 1e-12)),
            "threshold_eta": threshold_eta(h, r),
            "stiffness_cond": _stiffness_condition_estimate(problem),
            "tol_spectral": tol_spectral,
            "tol_pointwise": tol_pointwise,
        })

    run_case(1.0, 0.0, "baseline", min(grid, 64), "baseline")
    for stretch in h_list:
        for item in eta_items:
            if isinstance(item, str):
                if item != "threshold":
                    raise ConfigError(f"eta entries must be numbers or "
                                      f"'threshold', got {item!r}")
                # nudge just past the threshold so A >= 1/r^2 survives roundoff
                drift = threshold_eta(stretch, margin=1e-6)
            else:
                drift = float(item)
            run_case(stretch, drift, item, grid, "sweep")
    return rows, solver_info


def _pencil_extremes(sig_f, sig_0):
    """Per-node extreme generalized eigenvalues of sigma*_F against sigma*_F0,
    on arrays of (..., 2, 2) symbols that broadcast against each other."""
    f11, f12, f22 = sig_f[..., 0, 0], sig_f[..., 0, 1], sig_f[..., 1, 1]
    o11, o12, o22 = sig_0[..., 0, 0], sig_0[..., 0, 1], sig_0[..., 1, 1]
    a2 = o11 * o22 - o12**2
    b = f11 * o22 + f22 * o11 - 2.0 * f12 * o12
    a0 = f11 * f22 - f12**2
    disc = np.sqrt(np.maximum(b * b - 4.0 * a2 * a0, 0.0))
    return (b - disc) / (2.0 * a2), (b + disc) / (2.0 * a2)


def run_bilipschitz_check(kind, metric=None, reference="base", grid=64, k=10,
                          seed=0, fiber_nodes="auto", expect_ratio="",
                          bound_slack=_DEFAULT_TOLERANCES["bound_slack"],
                          tol_scaling=_DEFAULT_TOLERANCES["tol_scaling"]):
    spec = _metric(kind, metric)
    ref = base_metric(spec) if reference == "base" else build_metric(reference)
    if expect_ratio != "":
        expect_ratio = _read("expect_ratio", expect_ratio, float)
    solver_info = _closed_form_solver_info(kind, fiber_nodes)

    square = _square_grid(grid)
    field_f = SymbolField.compute(spec, square)
    field_0 = SymbolField.compute(ref, square)

    # on the fields' reduced arrays, which broadcast to at most the grid:
    # the extremes are taken over the same per-node values
    (sig_f, mu_f), (sig_0, mu_0) = field_f.reduced, field_0.reduced
    lo_pencil, hi_pencil = _pencil_extremes(sig_f, sig_0)
    mu_ratio = mu_f / mu_0
    spread = float(mu_ratio.max() / mu_ratio.min())
    S = float(hi_pencil.max()) * spread
    S_prime = float((1.0 / lo_pencil).max()) * spread

    _, spec_f = _solve(field_f, k, seed, solver_info)
    _, spec_0 = _solve(field_0, k, seed, solver_info)

    rows = [{
        "row_type": "pair-summary",
        "grid": grid, "fiber_nodes": "closed-form", "k": k,
        "S": S, "S_prime": S_prime,
        "mu_ratio_spread": spread,
    }]
    for j in range(1, k + 1):
        ratio = float(spec_f.values[j] / spec_0.values[j])
        rows.append({
            "row_type": "eigenvalue",
            "k": j,
            "lambda_f": float(spec_f.values[j]),
            "lambda_ref": float(spec_0.values[j]),
            "ratio": ratio,
            "bound_lower": 1.0 / S_prime,
            "bound_upper": S,
            "bound_slack": bound_slack,
            "expect_ratio": expect_ratio,
            "tol_scaling": tol_scaling,
        })
    return rows, solver_info


_ENERGY_TRIALS = {
    "sin_2pi_x": lambda x, y: np.stack(np.broadcast_arrays(
        2.0 * np.pi * np.cos(2.0 * np.pi * x), 0.0 * y), axis=-1),
    "cos_2pi_y": lambda x, y: np.stack(np.broadcast_arrays(
        0.0 * x, -2.0 * np.pi * np.sin(2.0 * np.pi * y)), axis=-1),
    "sin_2pi_x_cos_2pi_y": lambda x, y: np.stack(np.broadcast_arrays(
        2.0 * np.pi * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y),
        -2.0 * np.pi * np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)),
        axis=-1),
}


def run_randers_identities(kind, metric=None, grid=48, fiber_nodes="auto",
                           eta_values=(0.1, 0.5, 0.9, 0.99),
                           tol_pointwise=_DEFAULT_TOLERANCES["tol_pointwise"],
                           tol_cross=_DEFAULT_TOLERANCES["tol_cross"],
                           tol_energy=_DEFAULT_TOLERANCES["tol_energy"]):
    spec = _metric(kind, metric)
    if not isinstance(spec, RandersMetric):
        raise ConfigError(f"{kind} needs a Randers metric")
    eta_values = [_read("eta_values", v, float) for v in _as_list(eta_values)]

    square = _square_grid(grid)
    field = SymbolField.compute(spec, square, _oracle_rule(fiber_nodes))
    nodes = field.fiber_nodes
    mu_base = SymbolField.compute(spec.base, square).mu
    rows = [{
        "row_type": "volume",
        "grid": grid, "fiber_nodes": nodes,
        "max_mu_diff": float(np.abs(field.mu - mu_base).max()),
        "tol_pointwise": tol_pointwise,
    }]
    for eta in eta_values:
        c2, cross, s2 = randers_angular_integrals(eta, nodes)
        c2_exact, _, s2_exact = randers_angular_closed_forms(eta)
        rows.append({
            "row_type": "integral",
            "eta": eta, "fiber_nodes": nodes,
            "cos2_quad": c2, "cos2_closed": c2_exact,
            "cross_quad": cross,
            "sin2_quad": s2, "sin2_closed": s2_exact,
            "err_cos2": abs(c2 - c2_exact),
            "err_sin2": abs(s2 - s2_exact),
            "tol_pointwise": tol_pointwise,
            "tol_cross": tol_cross,
        })
    energies = randers_energy_direct(spec, _ENERGY_TRIALS.values(), square, nodes)
    for (name, grad_fn), e_dir in zip(_ENERGY_TRIALS.items(), energies):
        e_sym = energy_from_symbol(field, grad_fn)
        rows.append({
            "row_type": "energy",
            "trial": name,
            "energy_symbol": e_sym,
            "energy_direct": e_dir,
            "rel_diff": abs(e_sym - e_dir) / max(abs(e_dir), 1e-300),
            "tol_energy": tol_energy,
        })
    return rows, {"fiber_nodes": nodes}


def run_conformal_check(kind, metric=None, f=0.0, grid=32, k=5, seed=0,
                        fiber_nodes="auto",
                        tol_pointwise=_DEFAULT_TOLERANCES["tol_pointwise"],
                        tol_scaling=_DEFAULT_TOLERANCES["tol_scaling"]):
    base = _metric(kind, metric)
    f_field = _read("f", f, as_field)
    spec = ConformalMetric(base, f_field)

    square = _square_grid(grid)
    field_base = SymbolField.compute(base, square)
    scratch = SymbolField.compute(spec, square, _oracle_rule(fiber_nodes))
    sigma_scratch, mu_scratch = scratch.sigma_star, scratch.mu
    f_values = f_field(*square.mesh())
    sigma_trans, mu_trans = conformal_transform(field_base.sigma_star,
                                                field_base.mu, f_values)
    sigma_scale = np.abs(sigma_trans).max(axis=(-2, -1))
    sigma_err = float((np.abs(sigma_scratch - sigma_trans).max(axis=(-2, -1))
                       / sigma_scale).max())
    mu_err = float((np.abs(mu_scratch - mu_trans) / mu_trans).max())
    ratio_err = float((np.abs(mu_scratch / field_base.mu - np.exp(2.0 * f_values))
                       / np.exp(2.0 * f_values)).max())
    rows = [{
        "row_type": "field",
        "grid": grid, "fiber_nodes": scratch.fiber_nodes,
        "max_sigma_rel_diff": sigma_err,
        "max_mu_rel_diff": mu_err,
        "max_mu_ratio_err": ratio_err,
        "tol_pointwise": tol_pointwise,
    }]

    const_f = f_field.constant_value(*square.mesh())
    solver_info = {"fiber_nodes": scratch.fiber_nodes, "routes": {}}
    if const_f is not None:
        field_conf = SymbolField.compute(spec, square)
        _, spec_base = _solve(field_base, k, seed, solver_info)
        _, spec_conf = _solve(field_conf, k, seed, solver_info)
        scale = np.exp(2.0 * const_f)
        for j in range(1, k + 1):
            lb = float(spec_base.values[j])
            lc = float(spec_conf.values[j])
            rows.append({
                "row_type": "eigenvalue",
                "k": j,
                "lambda_base": lb,
                "lambda_conformal": lc,
                "scaling_err": abs(lc * scale - lb) / lb,
                "tol_scaling": tol_scaling,
            })
    return rows, solver_info


def _constant_symbol(field):
    """sigma* at node 0 if sigma* and mu are the same at every node to roundoff,
    else None.

    Not the exact test of ``cut_to_lines``: a field computed by quadrature,
    or from an expression constant only up to roundoff, still counts here.
    """
    sig = field.sigma_star[0, 0]
    mu = float(field.mu[0, 0])
    if (np.abs(field.sigma_star - sig).max() <= 1e-12 * np.abs(sig).max()
            and np.abs(field.mu - mu).max() <= 1e-12 * mu):
        return sig
    return None


def run_convergence(kind, metric=None, grids=(16, 32, 64), k=1, seed=0,
                    fiber_nodes="auto"):
    """One level row per grid size, ascending: lambda_1, its error against
    the reference and the observed order between successive sizes, and from
    each size and the one below it (ratio r) the Richardson extrapolation
    (r^2 lambda_n - lambda_prev) / (r^2 - 1) of a second-order scheme with
    its error estimate |lambda_n - lambda_prev| / (r^2 - 1); for r = 2 these
    are (4 lambda_n - lambda_{n/2}) / 3 and |lambda_n - lambda_{n/2}| / 3.

    The reference is the continuous Fourier oracle when sigma* and mu are
    constant on every level, else the finest grid, which then has no error.
    """
    spec = _metric(kind, metric)
    sizes = sorted(_as_list(grids))
    if len(set(sizes)) < len(sizes) or len(sizes) < 3:
        raise ConfigError(f"{kind} needs at least 3 distinct grid "
                          f"sizes, got {sizes}")
    solver_info = _closed_form_solver_info(kind, fiber_nodes)

    lambdas, symbols = [], []
    for n in sizes:
        field = SymbolField.compute(spec, _square_grid(n))
        _, spectrum = _solve(field, k, seed, solver_info)
        lambdas.append(float(spectrum.values[1]))
        symbols.append(_constant_symbol(field))
    if all(sig is not None for sig in symbols):
        reference, exact = "oracle", float(fourier_oracle(symbols[0], k)[1])
    else:
        reference, exact = "finest", lambdas[-1]

    rows = [{"row_type": "level", "n": n, "lambda1": lam1,
             "reference": reference, "error_lambda1": abs(lam1 - exact),
             "order_lambda1": "", "gap_lambda1": "",
             "lambda1_extrapolated": "", "error_estimate": ""}
            for n, lam1 in zip(sizes, lambdas)]
    if reference == "finest":
        rows[-1]["error_lambda1"] = ""
    for prev, cur in zip(rows, rows[1:]):
        cur["gap_lambda1"] = abs(cur["lambda1"] - prev["lambda1"])
        r2 = (cur["n"] / prev["n"]) ** 2
        cur["lambda1_extrapolated"] = ((r2 * cur["lambda1"] - prev["lambda1"])
                                       / (r2 - 1.0))
        cur["error_estimate"] = cur["gap_lambda1"] / (r2 - 1.0)
        e0, e1 = prev["error_lambda1"], cur["error_lambda1"]
        if e0 and e1:
            cur["order_lambda1"] = float(np.log2(e0 / e1)
                                         / np.log2(cur["n"] / prev["n"]))
    return rows, solver_info


# ---------------------------------------------------------------------------
# The kinds table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plot:
    """One SVG line plot: series label -> column, against column x, over
    the rows of row_type whose plotted values are all set and nonzero."""

    file: str
    row_type: str
    x: str
    series: dict
    title: str
    xlabel: str
    ylabel: str
    logy: bool = False


@dataclass(frozen=True)
class ExperimentKind:
    run: Callable        # (kind, **top-level config keys) -> (rows, solver_info)
    verdicts: Callable   # rows -> [Verdict]
    plot: Plot | None = None

    @property
    def keys(self):
        """The top-level config keys run reads besides kind: its parameters
        after the first, in order."""
        code = self.run.__code__
        return code.co_varnames[1:code.co_argcount]


KINDS = {
    "torus-large-eigenvalue": ExperimentKind(
        run_torus_large_eigenvalue, _verdicts_large_eigenvalue,
        Plot("lambda1_vol.svg", "sweep", "h",
             {"lambda1 * vol": "lambda1_vol", "4 pi^2 / r^2": "target"},
             "First eigenvalue times volume", "h", "lambda1 * vol",
             logy=True)),
    "bilipschitz-check": ExperimentKind(
        run_bilipschitz_check, _verdicts_bilipschitz,
        Plot("eigenvalue_ratios.svg", "eigenvalue", "k",
             {"ratio": "ratio", "S": "bound_upper", "1/S'": "bound_lower"},
             "Eigenvalue ratios vs computable bound", "k",
             "lambda_k(F) / lambda_k(F0)")),
    "randers-identities": ExperimentKind(
        run_randers_identities, _verdicts_randers_identities),
    "conformal-check": ExperimentKind(run_conformal_check, _verdicts_conformal),
    "convergence": ExperimentKind(
        run_convergence, _verdicts_convergence,
        Plot("convergence.svg", "level", "n",
             {"|lambda1 error|": "error_lambda1"},
             "Grid convergence of lambda_1", "N", "error", logy=True)),
}


def run_experiment(cfg, out_dir=None, plots=False):
    """Run one config through its kind's runner and verdicts: the runner
    takes the config's top-level keys, the tolerances read as floats.  Every
    row gets the config hash, directly after its row_type.  out_dir, if
    given, is made first, so a path that cannot be a directory is refused
    before any solve."""
    t_start = time.perf_counter()
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    params = {key: _read(key, value, float) if key in _DEFAULT_TOLERANCES else value
              for key, value in cfg.params.items()}
    rows, solver_info = KINDS[cfg.kind].run(**params)
    rows = [{"row_type": row["row_type"], "config_hash": cfg.config_hash, **row}
            for row in rows]
    report = Report(kind=cfg.kind, config_hash=cfg.config_hash,
                    echo=_flatten(cfg.params), rows=rows,
                    verdicts=verdicts_from_rows(cfg.kind, rows),
                    timings={"total_seconds": time.perf_counter() - t_start},
                    solver_info=solver_info)
    if out_dir is not None:
        report.write(out_dir, plots=plots)
    return report
