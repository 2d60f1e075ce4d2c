"""fspec benchmark: time to a verified report, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of drift-sweep, varying-field, oracle-checks, or ``all``.  Run from
the root of a checkout; fspec is imported from its ``src`` directory.

Per run the benchmark generates the workload's config text from the seed,
times set-up in fresh interpreters (``setup_s``), then starts one workload
process that repeats ``fspec.cli.main(["run", <cfg>, "--out", <dir>])`` for
S seconds and checks every repetition's report.json and rows.csv.  After
each repetition the workload process also times a fixed reference kernel for
15% of that repetition's time; ``report_rel`` is the median repetition time
over the mean kernel time, so it follows the program while the shared
machine's speed drifts.  With
``--trace 1`` every other repetition runs with spans around the layer entry
points, and the per-layer metrics come from those.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Raw samples,
the environment and the spans go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, generate  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench-out"
WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_SAMPLES = 5          # fresh interpreters timed per run, the worker included
BLAS_THREADS = 1           # fixed, at most nproc; recorded with the result
TIME_LIMIT = 170.0         # seconds for the whole run before it gives up

# the metrics of BENCHMARK.json; report_s and probe_s are printed beside them
END_TO_END = {"report_rel": "1", "setup_s": "s", "peak_rss_mib": "MiB",
              "lambda1_rel_err": "1"}
PRINTED = dict(END_TO_END, report_s="s", probe_s="s")
# per-layer metric -> (unit, span name for a self time or counter name)
PER_LAYER = {
    "fiber.field_s": ("s", "fiber.field"),
    "fiber.field_calls": ("count", "field_calls"),
    "fiber.field_node_evals": ("count", "field_node_evals"),
    "fiber.field_peak_mib": ("MiB", "field_peak_mib"),
    "fiber.resolve_s": ("s", "fiber.resolve"),
    "fiber.fiber_nodes": ("count", "fiber_nodes"),
    "fields.constant_value_calls": ("count", "constant_value_calls"),
    "fiber.oracle_s": ("s", "fiber.oracle"),
    "solver.assemble_s": ("s", "solver.assemble"),
    "solver.K_nnz": ("count", "K_nnz"),
    "solver.solve_s": ("s", "solver.solve"),
    "solver.solve_calls": ("count", "solve_calls"),
    "solver.solve_nodes": ("count", "solve_nodes"),
    "solver.max_rel_residual": ("1", "max_rel_residual"),
    "metrics.bilipschitz_s": ("s", "metrics.bilipschitz"),
    "experiments.self_s": ("s", "experiments"),
    "experiments.write_s": ("s", "experiments.write"),
    "experiments.write_bytes": ("bytes", "write_bytes"),
    "trace.overhead_s": ("s", None),
}
# work counts printed next to the timing they explain; all are computed
WORK_COUNTS = {
    "fiber.field_s": ("fiber.field_node_evals", "grid nodes x fiber nodes, 1 x Q when constant"),
    "solver.assemble_s": ("solver.K_nnz", "stored nonzeros of K, summed over assemblies"),
    "solver.solve_s": ("solver.solve_nodes", "grid nodes, summed over solves"),
    "experiments.write_s": ("experiments.write_bytes", "bytes of report.json + rows.csv"),
}


class BenchError(RuntimeError):
    """The run could not produce a result (no program, a crashed worker)."""


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values):
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Children:
    """Every process this run starts; all are stopped and reaped on exit."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline
        self.procs = []

    def start(self, plan_path, *extra):
        """Start a worker; return it and the seconds until it printed READY."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), str(plan_path), *extra],
                                stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True)
        self.procs.append(proc)
        if not select.select([proc.stdout], [], [], self.remaining())[0]:
            raise BenchError("worker did not become ready in time")
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            proc.wait(timeout=self.remaining())
            raise BenchError(f"worker exited {proc.returncode} before it was ready")
        return proc, ready

    def finish(self, proc):
        out, _ = proc.communicate(timeout=self.remaining())
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return out

    def remaining(self):
        return max(self.deadline - time.perf_counter(), 0.1)

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


def run_workload(name, seed, seconds, trace, deadline):
    """One workload run: returns the result dict and printable summary lines."""
    spec = generate(name, seed)
    tag = f"{name}-seed{spec['seed']}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS), MKL_NUM_THREADS=str(BLAS_THREADS))
    children = Children(env, deadline)
    try:
        for cfg in spec["configs"]:
            cfg["path"] = str(work / f"{cfg['label']}.cfg")
            Path(cfg["path"]).write_text(cfg["text"])
        plan = dict(spec, seconds=seconds, trace=bool(trace), work_dir=str(work),
                    trace_path=str(OUT / f"trace-{tag}.json"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))

        setup = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = children.start(plan_path, "--setup-only")
            children.finish(proc)
            setup.append(ready)
        proc, ready = children.start(plan_path)
        setup.append(ready)
        raw = json.loads(children.finish(proc).strip().splitlines()[-1])
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    result, lines = report(name, spec, raw, setup, trace)
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"result": result, "configs": [{k: c[k] for k in ("label", "hash", "text")}
                                       for c in spec["configs"]],
         "setup_s": setup, "raw": raw}, indent=1))
    return result, lines


def report(name, spec, raw, setup, trace):
    reps = raw["reps"]
    plain = [r for r in reps if not r["traced"]]
    # a run without a passing repetition still reports its times, as incorrect
    passed = [r for r in plain if r["passed"]] or plain
    failed = sum(not r["passed"] for r in reps)
    lines = [f"# workload {name}, seed {spec['seed']}, trace {int(trace)}",
             "# configs: " + ", ".join(f"{c['label']} {c['hash']}" for c in spec["configs"]),
             "# env: " + json.dumps(raw["env"])]

    probes = [t for r in plain for t in r["probe_s"]]
    # the mean: the machine flips between speeds, and the mean kernel time
    # moves in proportion to the time spent in each
    probe_mean = statistics.fmean(probes)
    e2e = {"report_s": summarize([r["seconds"] for r in passed]),
           "report_rel": summarize([r["seconds"] / probe_mean for r in passed]),
           "probe_s": summarize(probes),
           "setup_s": summarize(setup),
           "peak_rss_mib": summarize([raw["peak_rss_mib"]]),
           "lambda1_rel_err": summarize([r["lambda1_rel_err"] for r in passed
                                         if r["lambda1_rel_err"] is not None] or [float("nan")])}
    for metric, stats in e2e.items():
        lines.append(f"{metric:<28} {stats['median']:.6g} {PRINTED[metric]}  "
                     f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']})")
    lines.append(f"# report_rel = median report_s / mean probe_s; probe_s is the reference "
                 f"kernel, mean {probe_mean:.6g} s over {len(probes)} calls")
    lines.append(f"{'failed_ratio':<28} {failed / len(reps):.6g} fraction  "
                 f"({failed} failed of {len(reps)} repetitions)")

    metrics = {}
    if not trace:
        metrics = {m: {"value": e2e[m]["median"], "unit": unit}
                   for m, unit in END_TO_END.items()}
    else:
        traced = [r for r in reps if r["traced"]]
        layer = {}
        for metric, (unit, key) in PER_LAYER.items():
            if key is None:
                samples = [r["seconds"] - e2e["report_s"]["median"] for r in traced]
            elif unit == "s":
                samples = [r["self_times"].get(key, 0.0) for r in traced]
            else:
                samples = [r["counts"].get(key, 0) for r in traced]
            layer[metric] = summarize(samples)
            value = max(samples) if metric == "solver.max_rel_residual" else layer[metric]["median"]
            metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"# per layer, over {len(traced)} traced repetitions "
                     "(solver.max_rel_residual is their maximum)")
        for metric, stats in layer.items():
            line = (f"{metric:<28} {metrics[metric]['value']:.10g} {PER_LAYER[metric][0]}  "
                    f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n {stats['n']})")
            if metric in WORK_COUNTS:
                count, meaning = WORK_COUNTS[metric]
                line += f"  [{count} = {metrics[count]['value']:.10g}, computed: {meaning}]"
            lines.append(line)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + TIME_LIMIT * len(names)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace,
                                         deadline)
            print("\n".join(lines), flush=True)
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as exc:
        print(f"perfbench: no result: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
