"""Layer-by-layer scaling of the spectral pipeline: field, assemble, solve, vectors.

For four drifted tori (on the h = 2 stretched torus with eta = 0.9: a
constant drift, a drift varying in y only and a drift varying in x and y;
on a sheared base: a drift varying in y only) and the hexagonal torus
(g proportional to [[1, 1/2], [1/2, 1]], volume 1, the sheared constant
case) and the square grids ``GRIDS``, times the three layers of one
spectral problem and the first read of the spectrum's eigenvectors
(``vectors``: the solve keeps them factored and forms the (n, k+1) array
only when it is read), records the tracemalloc peak of each, the route
``solve`` took, its largest eigenpair residual and its floor ratio (how
close the pairs the rounding-floor gate admitted came to that gate's
bound, 0.0 if none needed it), the stored nonzeros of the stiffness K
where the solve built it (``K_nnz``; the Fourier and block routes read the
edge weights and build no K), and writes one JSON file.  Up to
``_ORACLE_MAX_GRID`` it also times the quadrature oracle, the same symbol
field by an ``ORACLE_NODES``-node fiber rule, and records its largest
sigma* difference from the closed form.  Single process, one stage at a
time:

    PYTHONPATH=src python benchmarks/scaling.py --out BENCH.json

Each stage is timed ``REPEATS`` times without tracemalloc (the minimum is
kept, and the minor page faults per call, the mean ``getrusage`` ``ru_minflt``
delta over those runs, are recorded), then ``REPEATS`` times more under
tracemalloc, and the least of those peaks is kept: one traced run carries
sub-KiB allocator noise.  The peak counts numpy and Python allocations but
not memory that compiled libraries allocate themselves (SuperLU's factors,
for one).  The
2-D and the sheared y-only field go to shift-invert, whose LU factors grow
much faster than the grid; a field that took shift-invert stops at
``_SHIFT_INVERT_MAX_GRID`` so the run stays within a few hundred MiB, while
the fields on the Fourier and block routes run up to 1024^2.  Grids and
repeats are fixed so that the outputs of different versions compare.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import tracemalloc

import numpy as np
import scipy

import fspec
from fspec import (FiberQuadrature, RandersMetric, RiemannianMetric,
                   SymbolField, TorusGrid, assemble, solve)

SCHEMA = "fspec-scaling/7"
K = 10
GRIDS = (64, 128, 256, 512, 1024)
REPEATS = 3
# name -> RandersMetric(RiemannianMetric(g11, g12, g22), rho_x, rho_y)
FIELDS = {
    "constant": ((4.0, 0.0, 0.25), "1.8", "0"),
    "y-only": ((4.0, 0.0, 0.25), "1.8*(0.5 + 0.4*sin(2*pi*y))", "0"),
    "2-D": ((4.0, 0.0, 0.25), "1.8*(0.5 + 0.4*sin(2*pi*x)*cos(2*pi*y))",
            "0"),
    "sheared y-only": ((2.0, 0.7, 0.8), "0.3*(0.5 + 0.4*sin(2*pi*y))",
                       "0.2*(0.5 + 0.4*sin(2*pi*y))"),
    "hexagonal": ((2.0 / 3.0**0.5, 1.0 / 3.0**0.5, 2.0 / 3.0**0.5), "0", "0"),
}
_SHIFT_INVERT_MAX_GRID = 256
ORACLE_NODES = 512
_ORACLE_MAX_GRID = 256


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _stage(fn):
    """(result, min seconds over REPEATS, minor page faults per call over
    those runs, least tracemalloc peak MiB over REPEATS more runs)."""
    best = np.inf
    faults = _minor_faults()
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    faults = (_minor_faults() - faults) // REPEATS
    peak = np.inf
    for _ in range(REPEATS):
        tracemalloc.start()
        try:
            result = fn()
            peak = min(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return result, best, faults, peak / 2**20


def run_case(g, rho_x, rho_y, n):
    spec = RandersMetric(RiemannianMetric(*g), rho_x, rho_y)
    grid = TorusGrid.square(n)
    field, t_field, f_field, m_field = _stage(
        lambda: SymbolField.compute(spec, grid))
    problem, t_asm, f_asm, m_asm = _stage(lambda: assemble(field))
    spectrum, t_solve, f_solve, m_solve = _stage(lambda: solve(problem, K))
    # a copy of the Spectrum has not formed its vectors yet
    _, t_vec, f_vec, m_vec = _stage(lambda: dataclasses.replace(spectrum).vectors)
    case = {
        "grid": n, "nodes": grid.node_count, "k": K,
        "route": spectrum.route,
        "lambda1": float(spectrum.values[1]),
        "max_residual": float(spectrum.residuals.max()),
        "floor_ratio": spectrum.floor_ratio,
        "seconds": {"field": t_field, "assemble": t_asm, "solve": t_solve,
                    "vectors": t_vec},
        "peak_mib": {"field": m_field, "assemble": m_asm, "solve": m_solve,
                     "vectors": m_vec},
        "minor_faults": {"field": f_field, "assemble": f_asm,
                         "solve": f_solve, "vectors": f_vec},
    }
    if "K" in vars(problem):  # reading problem.K would build it
        case["K_nnz"] = int(problem.K.nnz)
    if n <= _ORACLE_MAX_GRID:
        quad = FiberQuadrature.trapezoid(ORACLE_NODES)
        oracle, t_oracle, f_oracle, m_oracle = _stage(
            lambda: SymbolField.compute(spec, grid, quad))
        case["seconds"]["oracle"] = t_oracle
        case["peak_mib"]["oracle"] = m_oracle
        case["minor_faults"]["oracle"] = f_oracle
        case["oracle_sigma_rel_diff"] = float(
            np.abs(oracle.sigma_star - field.sigma_star).max()
            / np.abs(field.sigma_star).max())
    return case


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    cases = []
    for name, (g, rho_x, rho_y) in FIELDS.items():
        for n in GRIDS:
            if (n > _SHIFT_INVERT_MAX_GRID and cases
                    and cases[-1]["route"] == "shift-invert"):
                break
            case = {"field": name, "g": list(g), "rho": [rho_x, rho_y],
                    **run_case(g, rho_x, rho_y, n)}
            cases.append(case)
            sec = case["seconds"]
            oracle = (f"  oracle {sec['oracle']:.3f}s "
                      f"{case['minor_faults']['oracle']} faults"
                      if "oracle" in sec else "")
            print(f"{name:14s} {n:4d}^2  {case['route']:12s} field "
                  f"{sec['field']:.3f}s  assemble {sec['assemble']:.3f}s  "
                  f"solve {sec['solve']:.3f}s  solve peak "
                  f"{case['peak_mib']['solve']:.1f} MiB  vectors "
                  f"{sec['vectors']:.3f}s{oracle}", flush=True)

    result = {
        "schema": SCHEMA,
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpu_count": os.cpu_count(),
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset")},
        "versions": {"python": sys.version.split()[0],
                     "fspec": fspec.__version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "metric": "RandersMetric(RiemannianMetric(*g), *rho)",
        "repeats": REPEATS,
        "oracle_nodes": ORACLE_NODES,
        "cases": cases,
        "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
