"""Workload generator: a seed in, plain-text experiment configs out.

Each workload is a list of ``(label, config_text)`` pairs plus the drawn
parameters the output checks need.  The program only ever sees the config
text; the parameters stay on the benchmark's side.  Pure standard library, so
run.py stays light.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("drift-sweep", "varying-field", "oracle-checks")

# Drift profile p(y) = c0 + c1 sin(2 pi (y + phase)) on the h = 2 torus with
# eta = 0.9.  The largest drift ratio is 0.9 (c0 + c1) <= 0.945 < 1, and the
# adaptive fiber rule settles at Q = 512 over this whole range, so every seed
# does the same amount of work.
_C0_RANGE = (0.40, 0.60)
_C1_RANGE = (0.30, 0.45)
_PROFILE_H = 2.0
_PROFILE_ETA = 0.9

# The conformal-check base is fixed so its spectrum is a recorded reference;
# the seed draws the constant exponent.
_CONFORMAL_BASE_H = 2.0
_CONFORMAL_BASE_ETA = 0.6
_CONFORMAL_F_RANGE = (-0.5, 0.5)

_ETA_VALUES_RANGE = (0.1, 0.99)


def config_hash(text):
    """The hash fspec stamps into every row: sha256 of the text, 16 hex digits."""
    return hashlib.sha256(text.replace("\r\n", "\n").encode()).hexdigest()[:16]


def _draw_profile(rng):
    c0 = round(rng.uniform(*_C0_RANGE), 6)
    c1 = round(rng.uniform(*_C1_RANGE), 6)
    phase = round(rng.random(), 6)
    return {"h": _PROFILE_H, "eta": _PROFILE_ETA, "c0": c0, "c1": c1,
            "phase": phase,
            "profile": f"{c0!r} + {c1!r}*sin(2*pi*(y + {phase!r}))"}


def _drift_sweep(rng, seed):
    text = ("kind = torus-large-eigenvalue\n"
            "h = 2, 3, 4\n"
            "eta = 0, 0.5, threshold, 0.99\n"
            "grid = 128\n"
            "k = 1\n"
            "fiber_nodes = auto\n"
            f"seed = {seed}\n")
    return [("drift-sweep", text)], {}


def _varying_field(rng, seed):
    p = _draw_profile(rng)
    text = ("kind = bilipschitz-check\n"
            "metric.type = torus\n"
            f"metric.h = {p['h']!r}\n"
            f"metric.eta = {p['eta']!r}\n"
            f"metric.profile = {p['profile']}\n"
            "reference = base\n"
            "grid = 128\n"
            "k = 10\n"
            "fiber_nodes = auto\n"
            f"seed = {seed}\n")
    return [("varying-field", text)], {"profile": p}


def _oracle_checks(rng, seed):
    p = _draw_profile(rng)
    eta_values = sorted(round(rng.uniform(*_ETA_VALUES_RANGE), 6)
                        for _ in range(4))
    f = round(rng.uniform(*_CONFORMAL_F_RANGE), 6)
    identities = ("kind = randers-identities\n"
                  "metric.type = torus\n"
                  f"metric.h = {p['h']!r}\n"
                  f"metric.eta = {p['eta']!r}\n"
                  f"metric.profile = {p['profile']}\n"
                  f"eta_values = {', '.join(repr(e) for e in eta_values)}\n"
                  "grid = 64\n"
                  "fiber_nodes = 512\n")
    conformal = ("kind = conformal-check\n"
                 "metric.type = torus\n"
                 f"metric.h = {_CONFORMAL_BASE_H!r}\n"
                 f"metric.eta = {_CONFORMAL_BASE_ETA!r}\n"
                 f"f = {f!r}\n"
                 "grid = 32\n"
                 "k = 5\n"
                 f"seed = {seed}\n")
    params = {"profile": p, "eta_values": eta_values, "f": f,
              "conformal_base": {"h": _CONFORMAL_BASE_H,
                                 "eta": _CONFORMAL_BASE_ETA}}
    return [("randers-identities", identities),
            ("conformal-check", conformal)], params


_GENERATORS = {"drift-sweep": _drift_sweep, "varying-field": _varying_field,
               "oracle-checks": _oracle_checks}


def generate(name, seed):
    """Configs and drawn parameters for one workload; the same seed gives the
    same text.  Returns ``{"configs": [{label, text, hash}], "params": {...}}``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    seed = int(seed) % (1 << 32)
    rng = random.Random(f"{name}:{seed}")
    configs, params = _GENERATORS[name](rng, seed)
    return {"workload": name, "seed": seed,
            "configs": [{"label": label, "text": text, "hash": config_hash(text)}
                        for label, text in configs],
            "params": params}
