"""The workload process: imports fspec from the checkout, runs repetitions of
``fspec.cli.main(["run", <cfg>, "--out", <dir>])`` for a fixed time, checks
every repetition's outputs and prints one JSON line of raw samples.

After each repetition it also times a fixed reference kernel for a share of
that repetition's time, so that run.py can state repetition times relative to
the machine's speed over the same stretch of the run (``report_rel``).

Started by ``run.py``; not meant to be run by hand.  It prints ``READY`` once
fspec is imported and the configs are parsed, so the parent can time set-up.

    python3 perfbench/worker.py PLAN.json [--setup-only]
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import mmap
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_REPS = 3         # repetitions per run, at least
MIN_TRACED_REPS = 4  # two traced, two untraced


class ReferenceKernel:
    """Fixed work, independent of fspec, of the kinds the workloads spend their
    time on: filling fresh pages and streaming numpy arithmetic through them
    (the field's chunk temporaries are mapped and faulted in anew on every
    call), a sparse LU factorization and solve of a 64x64 five-point
    Laplacian, and an interpreted loop.  One call takes about 50 ms.

    The array lives in one 16 MiB anonymous mapping whose pages are dropped
    after each pass, so every pass faults them in again while the kernel adds
    at most 16 MiB to the workload's resident memory."""

    PASSES = 4
    SHARE = 0.15  # kernel time after each repetition, as a share of its time

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        n = 64
        lap = sp.diags_array([-1.0, 2.0, -1.0], offsets=[-1, 0, 1], shape=(n, n))
        eye = sp.eye_array(n)
        self.matrix = (sp.kron(lap, eye) + sp.kron(eye, lap)
                       + 0.1 * sp.eye_array(n * n)).tocsc()
        self.rhs = np.ones(n * n)
        self.buffer = mmap.mmap(-1, 16 << 20)
        self.array = np.frombuffer(self.buffer, dtype=float)
        self.run()  # warm-up: first calls pay for lazy imports

    def run(self):
        import numpy as np
        from scipy.sparse.linalg import splu
        x = self.array
        total = 0.0
        for _ in range(self.PASSES):
            x.fill(0.5)
            np.sqrt(x, out=x)
            total += float(x.sum())
            self.buffer.madvise(mmap.MADV_DONTNEED)
        total += float(splu(self.matrix).solve(self.rhs)[0])
        for i in range(50_000):
            total += i % 7
        return total

    def times(self, budget):
        """Time the kernel until `budget` seconds have passed, at least once."""
        samples = []
        end = time.perf_counter() + budget
        while not samples or time.perf_counter() < end:
            start = time.perf_counter()
            self.run()
            samples.append(time.perf_counter() - start)
        return samples


def import_fspec():
    """Import fspec from <checkout>/src only; exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fspec
        import fspec.cli
    except ImportError as exc:
        print(f"perfbench: cannot import fspec from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src not in Path(fspec.__file__).resolve().parents:
        print(f"perfbench: fspec was imported from {fspec.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return fspec


def blas_threads():
    """Thread counts OpenBLAS reports for numpy's and scipy's bundled copies."""
    import numpy
    import scipy
    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in glob.glob(str(libs / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[package.__name__] = fn()
                    break
    return found


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "isolation": "none: no CPU pinning, no cache drop"}


def run_rep(cli_main, configs, rep_dir):
    """One repetition: every config of the workload through the CLI.
    Returns (seconds, exit codes, error text or None)."""
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            for cfg in configs:
                codes.append(cli_main(["run", cfg["path"], "--out",
                                       str(rep_dir / cfg["label"])]))
    except Exception:  # a raising repetition counts as failed, the run goes on
        return time.perf_counter() - start, codes, traceback.format_exc()
    return time.perf_counter() - start, codes, None


def main(argv):
    plan = json.loads(Path(argv[0]).read_text())
    fspec = import_fspec()
    from fspec.experiments import ExperimentConfig
    parsed = [ExperimentConfig.from_file(cfg["path"]) for cfg in plan["configs"]]
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    import numpy as np
    import checks
    import tracing

    workload, seed = plan["workload"], plan["seed"]
    params = plan["params"]
    problems_at_parse = [f"{cfg['label']}: parsed hash {p.config_hash} != {cfg['hash']}"
                         for cfg, p in zip(plan["configs"], parsed)
                         if p.config_hash != cfg["hash"]]
    oracle = checks.varying_field_oracle(params) if workload == "varying-field" else None
    rng = np.random.default_rng(seed)

    fields = []
    uncapture = None
    if workload == "varying-field":
        uncapture = tracing.capture_fields(fspec.SymbolField, fields)
    tracer = tracing.Tracer() if plan["trace"] else None

    kernel = ReferenceKernel()
    work = Path(plan["work_dir"])
    reps = []
    deadline = time.perf_counter() + plan["seconds"]
    last = 0.0
    min_reps = MIN_TRACED_REPS if tracer else MIN_REPS
    while len(reps) < min_reps or time.perf_counter() + last <= deadline:
        rep = len(reps)
        traced = tracer is not None and rep % 2 == 1
        rep_dir = work / f"rep-{rep}"
        fields.clear()
        uninstall = root = None
        if traced:
            uninstall = tracer.install(fspec.experiments, fspec.solver,
                                       fspec.SymbolField, fspec.Field, fspec.Report)
            root = tracer.start_rep(rep)
        seconds, codes, error = run_rep(fspec.cli.main, plan["configs"], rep_dir)
        if traced:
            tracer.end_rep(root)
            uninstall()
        probe_s = kernel.times(kernel.SHARE * seconds)
        last = seconds * (1.0 + kernel.SHARE)
        problems = checks.Problems(problems_at_parse)
        lambda1_rel_err = None
        if error is not None:
            problems.append(error)
        else:
            try:
                outputs = {cfg["label"]: checks.read_outputs(rep_dir / cfg["label"])
                           for cfg in plan["configs"]}
                for cfg, code in zip(plan["configs"], codes):
                    report, rows = outputs[cfg["label"]]
                    checks.check_common(problems, cfg["label"], code, report, rows,
                                        cfg["hash"])
                if workload == "drift-sweep":
                    found, lambda1_rel_err = checks.check_drift_sweep(outputs)
                elif workload == "varying-field":
                    found, lambda1_rel_err = checks.check_varying_field(
                        outputs, fields, oracle, rng)
                else:
                    found, lambda1_rel_err = checks.check_oracle_checks(outputs, params)
                problems.extend(found)
            except Exception:  # outputs the checks cannot read fail the repetition
                problems.append("output check raised:\n" + traceback.format_exc())
        for problem in problems:
            print(f"perfbench: rep {rep} FAILED: {problem}", file=sys.stderr)
        reps.append({"rep": rep, "traced": traced, "seconds": seconds,
                     "passed": not problems, "lambda1_rel_err": lambda1_rel_err,
                     "probe_s": probe_s,
                     "counts": dict(tracer.counts[rep]) if traced else None,
                     "self_times": dict(tracer.self_times(rep)) if traced else None})
        shutil.rmtree(rep_dir, ignore_errors=True)
    if uncapture is not None:
        uncapture()

    if tracer is not None:
        trace_path = Path(plan["trace_path"])
        trace_path.write_text(json.dumps(tracer.to_json()))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"reps": reps, "peak_rss_mib": rss_mib, "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
