"""Benchmark for oqwalk: seeded workloads of `oqw` subcommands and library calls.

Run from the repository root:

    python3 bench/run.py --workload route_check --seed 1 --seconds 20 --trace 0

One client runs the workload's fixed job list back to back in this one
process, a closed loop in which each job starts when the previous one has
returned, the way a researcher runs `oqw` commands one after another. The
list is repeated until ``--seconds`` have passed. Every output is checked
against a reference computed before timing starts (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics:
  wall_s       median time to run the job list once (sum of its job times)
  job_p50_ms   median job latency, over every job of every pass
  job_p90_ms   90th-percentile job latency, same samples
  setup_s      median time to import oqwalk afresh and generate the seeded
               inputs, repeated three times before the first pass and once
               after every pass so the repetitions spread over the run like
               the passes do; only the first pays for importing numpy
  peak_rss_mb  peak resident memory of this process
  ok_frac      jobs whose output passed its check over jobs attempted, that
               is 1 - failed_frac; ``failed`` and ``attempted`` are printed too

``--trace 1`` alternates untraced and traced passes of the same job list.
Traced passes wrap oqwalk's public functions (``tracer.py``) and report, for
each function in ``interactions.json``, calls, self time and errors per pass,
its counters, each layer's share of the traced pass time, and the tracing
overhead: median traced pass time minus median untraced pass time. A traced
output that differs by a byte from the untraced one fails its job. Spans of
the first traced pass and the full per-function table go to
``.bench_out/trace-<workload>-seed<seed>.json``.

No per-layer wait time is reported: with one client in one process no job
ever waits in a queue, so there is no wait to measure.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The program exits 2 without a
result when the checkout holds no oqwalk source.
"""

import os

# one BLAS thread, set before numpy loads, so a run uses a single core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MAX_FAILURES_SHOWN = 5


# --- machine facts -------------------------------------------------------------

def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_version,
            "blas_threads": _openblas_threads(),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


# --- set-up ----------------------------------------------------------------------

def import_oqwalk():
    modules = {"package": importlib.import_module("oqwalk")}
    for layer in tracer.LAYERS:
        modules[layer] = importlib.import_module(f"oqwalk.{layer}")
    origin = Path(modules["package"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"imported oqwalk from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def set_up(workload: str, seed: int, workdir: Path):
    """Import oqwalk afresh and build the job list; returns the time taken,
    the modules and the jobs."""
    for name in [m for m in sys.modules if m == "oqwalk" or m.startswith("oqwalk.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    oq = import_oqwalk()
    jobs = workloads.build(workload, seed, oq, workdir)
    return time.perf_counter() - t0, oq, jobs


# --- measurement ---------------------------------------------------------------

class Tally:
    """Attempts, failures and latencies over every job run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.failures = []

    def fail(self, index: int, job, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(f"job {index} ({' '.join(job.argv or [job.kind])}): {problem}")


def run_job(index: int, job, oq, tally: Tally, digests=None) -> float:
    """Run, time and check one job; returns its latency in seconds."""
    t0 = time.perf_counter()
    try:
        code, out, err = workloads.execute(job, oq)
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        latency = time.perf_counter() - t0
        code, out, problem = None, "", f"raised {type(exc).__name__}: {exc}"
    else:
        latency = time.perf_counter() - t0
        problem = f"exit code {code}: {err.strip()}" if code != 0 else workloads.check(job, out)
    tally.attempted += 1
    if problem:
        tally.fail(index, job, problem)
    if digests is not None:
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    return latency


def run_pass(jobs, oq, tally: Tally, trace=None, digests=None) -> float:
    """Run the job list once; returns the sum of job latencies."""
    wall = 0.0
    for index, job in enumerate(jobs):
        if trace is not None:
            trace.job = index
        latency = run_job(index, job, oq, tally, digests)
        tally.latencies.append(latency)
        wall += latency
    return wall


def warm_up(jobs, oq, tally: Tally) -> None:
    """Run the first job of each kind once, untimed but checked."""
    seen = set()
    for index, job in enumerate(jobs):
        if job.kind not in seen:
            seen.add(job.kind)
            run_job(index, job, oq, tally)


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(jobs, oq, seconds: float, tally: Tally, setup_times: list, set_up_again):
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(run_pass(jobs, oq, tally))
        setup_times.append(set_up_again())
    lat_ms = [x * 1e3 for x in tally.latencies]
    summary = {"passes": len(walls), "latency_samples": len(lat_ms),
               "pass_wall_s": ",".join(f"{w:.3f}" for w in walls)}
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (_quantile(lat_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return metrics, summary


def traced(jobs, oq, seconds: float, tally: Tally, interactions: dict):
    trace = tracer.Tracer([oq.package] + [getattr(oq, layer) for layer in tracer.LAYERS])
    plain_walls, traced_walls, passes = [], [], []
    plain_digests, differing = None, 0
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        digests = []
        plain_walls.append(run_pass(jobs, oq, tally, digests=digests))
        plain_digests = plain_digests or digests
        traced_digests = []
        trace.reset()
        trace.spans = [] if not traced_walls else None
        with trace.installed():
            traced_walls.append(run_pass(jobs, oq, tally, trace=trace, digests=traced_digests))
        for label, outputs in (("untraced", digests), ("traced", traced_digests)):
            for index, (got, want) in enumerate(zip(outputs, plain_digests)):
                if got != want:
                    differing += 1
                    tally.fail(index, jobs[index],
                               f"{label} stdout differs from the first untraced pass")
        passes.append({"wall_s": traced_walls[-1],
                       "self_total_s": sum(s[1] for s in trace.stats.values()),
                       "stats": trace.stats, "counts": trace.counts,
                       "spans": trace.spans})

    def per_pass(fn):
        return statistics.median(fn(p) for p in passes)

    none = (0, 0.0, 0)
    names = {n for p in passes for n in p["stats"]} | set(interactions["functions"])
    functions = {name: {"calls": per_pass(lambda p: p["stats"].get(name, none)[0]),
                        "self_s": per_pass(lambda p: p["stats"].get(name, none)[1]),
                        "errors": sum(p["stats"].get(name, none)[2] for p in passes)}
                 for name in sorted(names)}
    metrics = {}
    for name in interactions["functions"]:
        for field, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count")):
            metrics[f"{name}.{field}"] = (functions[name][field], unit)
    for name in interactions["counts"]:
        metrics[name] = (per_pass(lambda p: p["counts"][name]), "count")
    shares = {}
    for layer in tracer.LAYERS:
        def layer_self(p, layer=layer):
            return sum(s[1] for n, s in p["stats"].items() if n.split(".")[0] == layer)
        shares[layer] = per_pass(lambda p: 100.0 * layer_self(p) / p["wall_s"])
        metrics[f"share.{layer}"] = (shares[layer], "%")
    metrics["tracing.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["tracing.overhead_s"] = (statistics.median(traced_walls)
                                     - statistics.median(plain_walls), "s")
    detail = {"untraced_pass_wall_s": plain_walls, "traced_pass_wall_s": traced_walls,
              "self_total_s": [p["self_total_s"] for p in passes],
              "stdout_identical": differing == 0, "jobs_per_pass": len(jobs),
              "layer_share_pct": shares, "functions": functions,
              "span_fields": ["name", "start", "end", "parent", "job", "id"],
              "spans_first_traced_pass": passes[0]["spans"]}
    return metrics, detail


# --- entry point ---------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oqwalk" / "__init__.py").is_file():
        print(f"error: no oqwalk source at {SRC / 'oqwalk'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            took, oq, jobs = set_up(args.workload, args.seed, workdir)
            setup_times.append(took)
        for job in jobs:
            job.expected = workloads.reference(job, oq)
        facts = machine_facts()
        tally = Tally()
        warm_up(jobs, oq, tally)
        if args.trace:
            interactions = json.loads((BENCH / "interactions.json").read_text())
            metrics, detail = traced(jobs, oq, args.seconds, tally, interactions)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "machine": facts, **detail}))
            summary = {"passes": len(detail["traced_pass_wall_s"]), "trace_file": str(trace_path)}
        else:
            metrics, summary = end_to_end(
                jobs, oq, args.seconds, tally, setup_times,
                lambda: set_up(args.workload, args.seed, workdir)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# machine: {json.dumps(facts)}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs_per_pass={len(jobs)} "
          + " ".join(f"{k}={v}" for k, v in summary.items()))
    print(f"# failed_frac={tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} jobs); "
          "no per-layer wait time: one client, one process, no queue")
    for line in tally.failures:
        print(f"# FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
