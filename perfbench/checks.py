"""Output checks: every repetition's report.json and rows.csv against references
the benchmark computes or recorded itself.

References come from three places, none of them the program's own code:

* closed forms written out here: the conformal-Randers symbol
  ``mu = e^{2f} sqrt(det g)``,
  ``sigma* = e^{-2f} [2/(1+s) g^-1 + 2/(s(1+s)^2) b b']`` with
  ``b = g^-1 rho`` and ``s = sqrt(1 - rho' g^-1 rho)``, its stretched-torus
  entries ``A``, ``B`` and the drift-averaged angular integrals;
* an exact discrete oracle for metrics that vary in y only, whose flux-form
  operator splits into one small periodic problem per x Fourier mode;
* values recorded with ``record_reference.py`` at the commit that introduced
  the benchmark (``reference.json``), for columns that do not depend on the seed.

Each comparison uses the tolerance of the verdict that owns the column, except
the one against the exact discrete spectrum, which allows only solver error.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

FOUR_PI2 = 4.0 * np.pi ** 2
TOL = {"tol_spectral": 1e-2, "tol_pointwise": 1e-8, "tol_cross": 1e-10,
       "tol_energy": 1e-6, "tol_scaling": 1e-10}
# against the exact discrete spectrum only the eigensolve's own error remains;
# the solver gates residuals at 1e-9 relative
TOL_DISCRETE = 1e-8
SAMPLED_NODES = 64

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def reference(workload):
    return json.loads(REFERENCE_PATH.read_text())[workload]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_symbol(g, rho, f=0.0):
    """(mu, sigma*) of exp(f) (sqrt(g) + rho) from the closed form above."""
    g = np.asarray(g, dtype=float)
    rho = np.asarray(rho, dtype=float)
    f = np.asarray(f, dtype=float)
    gi = np.linalg.inv(g)
    b = np.einsum("...ij,...j->...i", gi, rho)
    s = np.sqrt(1.0 - np.einsum("...i,...i->...", rho, b))[..., None, None]
    sigma = (2.0 / (1.0 + s) * gi
             + 2.0 / (s * (1.0 + s) ** 2) * b[..., :, None] * b[..., None, :])
    sigma = sigma * np.exp(-2.0 * f)[..., None, None]
    mu = np.exp(2.0 * f) * np.sqrt(np.linalg.det(g))
    return mu, sigma


def axis_symbol(h, eta, r=None):
    """Entries (A, B) of sigma* for diag(h^2, r^2) with drift eta h dx."""
    r = 1.0 / h if r is None else r
    s = np.sqrt(1.0 - eta * eta)
    return 2.0 / (h * h * (1.0 + s) * s), 2.0 / (r * r * (1.0 + s))


def profile_values(profile, y):
    return profile["c0"] + profile["c1"] * np.sin(2.0 * np.pi * (y + profile["phase"]))


def profile_field(profile, n):
    """Closed-form (mu, sigma*) of the y-varying Randers torus and of its base
    on the n x n grid, each of shape (n, n) and (n, n, 2, 2)."""
    h, eta = profile["h"], profile["eta"]
    y = np.arange(n) / n
    g = np.broadcast_to(np.diag([h * h, 1.0 / (h * h)]), (n, 2, 2))
    rho = np.zeros((n, 2))
    rho[:, 0] = eta * h * profile_values(profile, y)
    fields = []
    for drift in (rho, np.zeros_like(rho)):
        mu, sigma = closed_form_symbol(g, drift)
        fields.append((np.broadcast_to(mu, (n, n)),
                       np.broadcast_to(sigma, (n, n, 2, 2))))
    return fields


def pencil_extremes(sig_f, sig_0):
    """Per-node extreme generalized eigenvalues of sig_f against sig_0."""
    f11, f12, f22 = sig_f[..., 0, 0], sig_f[..., 0, 1], sig_f[..., 1, 1]
    o11, o12, o22 = sig_0[..., 0, 0], sig_0[..., 0, 1], sig_0[..., 1, 1]
    a2 = o11 * o22 - o12 ** 2
    b = f11 * o22 + f22 * o11 - 2.0 * f12 * o12
    a0 = f11 * f22 - f12 ** 2
    disc = np.sqrt(np.maximum(b * b - 4.0 * a2 * a0, 0.0))
    return (b - disc) / (2.0 * a2), (b + disc) / (2.0 * a2)


def y_only_spectrum(mu, sigma, k):
    """Exact first k+1 eigenvalues of the flux-form problem on an n x n grid
    for coefficients that depend on y only and have no cross term.

    An x Fourier mode m turns the x-difference part into the multiplier
    4 sin^2(pi m / n) n^2, leaving one periodic n x n problem in y per mode.
    mu: (n,), sigma: (n, 2, 2) sampled at y_j = j / n.
    """
    n = mu.size
    cell = 1.0 / (n * n)
    d11 = mu * sigma[:, 0, 0] * cell
    w22 = 0.5 * (mu * sigma[:, 1, 1] + np.roll(mu * sigma[:, 1, 1], -1)) * cell
    fwd = (np.roll(np.eye(n), 1, axis=1) - np.eye(n)) * n
    ly = fwd.T @ (w22[:, None] * fwd)
    scale = 1.0 / np.sqrt(mu * cell)
    values = []
    for m in range(n // 2 + 1):
        km = ly + np.diag(d11 * 4.0 * np.sin(np.pi * m / n) ** 2 * n * n)
        lam = np.linalg.eigvalsh(scale[:, None] * km * scale[None, :])[:k + 1]
        values.extend(lam if m in (0, n // 2) else np.repeat(lam, 2))
    return np.sort(values)[:k + 1]


_ENERGY_TRIALS = {
    "sin_2pi_x": lambda x, y: (2.0 * np.pi * np.cos(2.0 * np.pi * x) + 0.0 * y,
                               0.0 * x * y),
    "cos_2pi_y": lambda x, y: (0.0 * x * y,
                               -2.0 * np.pi * np.sin(2.0 * np.pi * y) + 0.0 * x),
    "sin_2pi_x_cos_2pi_y": lambda x, y: (
        2.0 * np.pi * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y),
        -2.0 * np.pi * np.sin(2.0 * np.pi * x) * np.sin(2.0 * np.pi * y)),
}


def closed_form_energy(profile, n, trial):
    (mu, sigma), _ = profile_field(profile, n)
    x = (np.arange(n) / n)[:, None]
    y = (np.arange(n) / n)[None, :]
    gx, gy = _ENERGY_TRIALS[trial](x, y)
    dens = (sigma[..., 0, 0] * gx ** 2 + 2.0 * sigma[..., 0, 1] * gx * gy
            + sigma[..., 1, 1] * gy ** 2) * mu
    return float(dens.sum()) / (n * n)


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------

def _number(key, text):
    if key == "config_hash":
        return text
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(out_dir):
    """(report dict, rows as dicts of floats/strings) from one ``fspec run``."""
    out_dir = Path(out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    with open(out_dir / "rows.csv", newline="") as fh:
        rows = [{key: _number(key, value) for key, value in row.items() if value != ""}
                for row in csv.DictReader(fh)]
    return report, rows


def _rel(a, b):
    return abs(a - b) / abs(b)


class Problems(list):
    def require(self, ok, message):
        if not ok:
            self.append(message)


# ---------------------------------------------------------------------------
# Per-workload checks; each returns (problems, lambda1 relative error)
# ---------------------------------------------------------------------------

def check_common(problems, label, exit_code, report, rows, expected_hash):
    problems.require(exit_code == 0, f"{label}: fspec run exited {exit_code}")
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    problems.require(report["passed"] and not failed and report["verdicts"],
                     f"{label}: verdicts failed: {failed}")
    problems.require(report["config_hash"] == expected_hash,
                     f"{label}: report hash {report['config_hash']} != {expected_hash}")
    bad = {r.get("config_hash") for r in rows} - {expected_hash}
    problems.require(rows and not bad, f"{label}: rows carry foreign hashes {bad}")


def check_drift_sweep(outputs):
    problems = Problems()
    (_, rows), = outputs.values()
    recorded = reference("drift-sweep")
    problems.require(len(rows) == len(recorded),
                     f"drift-sweep: {len(rows)} rows, expected {len(recorded)}")
    worst = 0.0
    for row, ref in zip(rows, recorded):
        key = (row["row_type"], row["h"], str(row["requested_eta"]))
        problems.require(key == (ref["row_type"], ref["h"], ref["requested_eta"]),
                         f"drift-sweep: row {key} where {ref} was expected")
        A, B = axis_symbol(row["h"], row["eta"])
        exact = FOUR_PI2 * min(A, B)
        err = _rel(row["lambda1"], exact)
        worst = max(worst, err)
        problems.require(err <= TOL["tol_spectral"],
                         f"drift-sweep {key}: lambda1 {row['lambda1']} vs "
                         f"4 pi^2 min(A,B) {exact} (rel {err:.3e})")
        problems.require(_rel(row["A"], A) <= TOL["tol_pointwise"]
                         and _rel(row["B"], B) <= TOL["tol_pointwise"],
                         f"drift-sweep {key}: (A, B) = ({row['A']}, {row['B']}) "
                         f"vs closed form ({A}, {B})")
        if ref["requested_eta"] == "threshold":
            problems.require(A >= row["h"] ** 2 * (1.0 - 1e-12),
                             f"drift-sweep {key}: eta {row['eta']} not past threshold")
        problems.require(abs(row["vol"] - 1.0) <= TOL["tol_pointwise"],
                         f"drift-sweep {key}: vol {row['vol']} != 1")
        problems.require(_rel(row["lambda1"], ref["lambda1"]) <= TOL["tol_spectral"],
                         f"drift-sweep {key}: lambda1 {row['lambda1']} vs "
                         f"recorded {ref['lambda1']}")
    return problems, worst


def varying_field_oracle(params):
    """Closed-form fields and the exact discrete spectrum of the Randers torus;
    computed once per run, before any repetition."""
    n, k = 128, 10
    (mu_f, sig_f), (mu_0, sig_0) = profile_field(params["profile"], n)
    lo, hi = pencil_extremes(sig_f, sig_0)
    ratio = mu_f / mu_0
    spread = float(ratio.max() / ratio.min())
    return {"fields": ((mu_f, sig_f), (mu_0, sig_0)),
            "S": float(hi.max()) * spread,
            "S_prime": float((1.0 / lo).max()) * spread,
            "spread": spread,
            "lambda_f": y_only_spectrum(mu_f[0], sig_f[0], k)}


def check_varying_field(outputs, fields, oracle, rng):
    problems = Problems()
    (_, rows), = outputs.values()
    summary = [r for r in rows if r["row_type"] == "pair-summary"]
    eig = [r for r in rows if r["row_type"] == "eigenvalue"]
    problems.require(len(summary) == 1 and len(eig) == 10,
                     f"varying-field: {len(summary)} summary and {len(eig)} "
                     "eigenvalue rows, expected 1 and 10")
    for name, col in (("S", "S"), ("S_prime", "S_prime"),
                      ("spread", "mu_ratio_spread")):
        got = summary[0][col] if summary else float("nan")
        problems.require(_rel(got, oracle[name]) <= TOL["tol_pointwise"],
                         f"varying-field: {col} {got} vs closed form {oracle[name]}")
    lambda_ref = reference("varying-field")["lambda_ref"]
    for row in eig:
        j = int(row["k"])
        problems.require(_rel(row["lambda_f"], oracle["lambda_f"][j]) <= TOL_DISCRETE,
                         f"varying-field k={j}: lambda_f {row['lambda_f']} vs exact "
                         f"discrete {oracle['lambda_f'][j]}")
        problems.require(_rel(row["lambda_ref"], lambda_ref[j - 1]) <= TOL["tol_spectral"],
                         f"varying-field k={j}: lambda_ref {row['lambda_ref']} vs "
                         f"recorded {lambda_ref[j - 1]}")
    problems.require(len(fields) == 2,
                     f"varying-field: {len(fields)} symbol fields computed, expected 2")
    for field, (mu, sigma), name in zip(fields, oracle["fields"], ("metric", "base")):
        flat = rng.choice(mu.size, size=SAMPLED_NODES, replace=False)
        i, j = np.unravel_index(flat, mu.shape)
        mu_err = float((np.abs(field.mu[i, j] - mu[i, j]) / mu[i, j]).max())
        sig_err = float((np.abs(field.sigma_star[i, j] - sigma[i, j]).max(axis=(-2, -1))
                         / np.abs(sigma[i, j]).max(axis=(-2, -1))).max())
        problems.require(max(mu_err, sig_err) <= TOL["tol_pointwise"],
                         f"varying-field {name} field: sampled nodes differ from the "
                         f"closed form (mu {mu_err:.3e}, sigma* {sig_err:.3e})")
    base_exact = FOUR_PI2 * min(oracle["fields"][1][1][0, 0, 0, 0],
                                oracle["fields"][1][1][0, 0, 1, 1])
    err = _rel(eig[0]["lambda_ref"], base_exact) if eig else float("inf")
    return problems, err


def check_oracle_checks(outputs, params):
    problems = Problems()
    _, rows = outputs["randers-identities"]
    vol = [r for r in rows if r["row_type"] == "volume"]
    problems.require(len(vol) == 1 and vol[0]["max_mu_diff"] <= TOL["tol_pointwise"],
                     f"randers-identities: volume rows {vol}")
    integ = [r for r in rows if r["row_type"] == "integral"]
    problems.require([r["eta"] for r in integ] == params["eta_values"],
                     f"randers-identities: eta values {[r['eta'] for r in integ]}")
    for row in integ:
        s = np.sqrt(1.0 - row["eta"] ** 2)
        c2, s2 = 2.0 * np.pi / ((1.0 + s) * s), 2.0 * np.pi / (1.0 + s)
        problems.require(abs(row["cos2_quad"] - c2) <= TOL["tol_pointwise"]
                         and abs(row["sin2_quad"] - s2) <= TOL["tol_pointwise"]
                         and abs(row["cross_quad"]) <= TOL["tol_cross"],
                         f"randers-identities eta={row['eta']}: integrals "
                         f"{row['cos2_quad']}, {row['cross_quad']}, {row['sin2_quad']} "
                         f"vs closed forms {c2}, 0, {s2}")
    energy = {r["trial"]: r for r in rows if r["row_type"] == "energy"}
    problems.require(sorted(energy) == sorted(_ENERGY_TRIALS),
                     f"randers-identities: energy trials {sorted(energy)}")
    for trial, row in energy.items():
        exact = closed_form_energy(params["profile"], 64, trial)
        for col in ("energy_symbol", "energy_direct"):
            problems.require(_rel(row[col], exact) <= TOL["tol_energy"],
                             f"randers-identities {trial}: {col} {row[col]} vs "
                             f"closed-form symbol energy {exact}")

    _, rows = outputs["conformal-check"]
    fld = [r for r in rows if r["row_type"] == "field"]
    problems.require(len(fld) == 1 and all(
        fld[0][c] <= TOL["tol_pointwise"]
        for c in ("max_sigma_rel_diff", "max_mu_rel_diff", "max_mu_ratio_err")),
        f"conformal-check: field rows {fld}")
    eig = [r for r in rows if r["row_type"] == "eigenvalue"]
    lambda_base = reference("oracle-checks")["conformal_lambda_base"]
    problems.require(len(eig) == len(lambda_base),
                     f"conformal-check: {len(eig)} eigenvalue rows")
    scale = np.exp(2.0 * params["f"])
    for row, ref in zip(eig, lambda_base):
        problems.require(_rel(row["lambda_base"], ref) <= TOL["tol_spectral"],
                         f"conformal-check k={row['k']}: lambda_base "
                         f"{row['lambda_base']} vs recorded {ref}")
        problems.require(_rel(row["lambda_conformal"] * scale, row["lambda_base"])
                         <= TOL["tol_scaling"],
                         f"conformal-check k={row['k']}: lambda_conformal "
                         f"{row['lambda_conformal']} is not lambda_base exp(-2f)")
    A, B = axis_symbol(params["conformal_base"]["h"], params["conformal_base"]["eta"])
    err = _rel(eig[0]["lambda_base"], FOUR_PI2 * min(A, B)) if eig else float("inf")
    return problems, err
