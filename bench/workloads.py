"""Seeded job lists for the benchmark workloads, and the checks on their outputs.

A job is an ``oqw`` subcommand run in-process through ``cli.main(argv)`` or a
library call; both produce text. Each job's reference is computed once, before
timing starts, and every output is checked against it, so a wrong answer counts
as a failed job just as a crash or a nonzero exit does.

Sizes and step counts are fixed per workload. The seed draws the continuous
inputs (omega, eta, channel parameters, Haar unitaries, start states) and the
job order. Draws that change how much work a job does are stratified, one
value from each of k equal slices of the range, so the work in a job list
barely changes from seed to seed while the inputs do.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("chain_dynamics", "route_check", "synthesis")

# tolerances of the output checks
EXACT_TOL = 1e-12      # bench's own recursion vs steady/profile/coefficients
ROUTE_TOL = 1e-10      # evolve vs the birth-death routes; verify and channel distances


@dataclass
class Job:
    kind: str
    argv: list | None = None      # `oqw` arguments, for subcommand jobs
    params: dict = field(default_factory=dict)
    expected: object = None       # set by `reference`


def _strata(rng, k: int, lo: float, hi: float) -> list:
    """k draws from [lo, hi), one from each of k equal slices, in random order."""
    values = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
    return [float(v) for v in rng.permutation(values)]


def _int_strata(rng, k: int, lo: int, hi: int) -> list:
    return [int(v) for v in _strata(rng, k, lo, hi + 1)]


def _seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def _haar_chain(oq, rng, n: int, d: int, omega: float):
    return oq.core.LinearChainSpec(n, omega, [oq.matrixkit.haar_unitary(d, rng)
                                              for _ in range(n - 1)])


def _bias(k: int, omega: float) -> tuple:
    """Alternate between passing omega and passing eta = 2 - 1/omega; returns
    the arguments and the omega the CLI derives from them."""
    if k % 2 == 0:
        return ["--omega", repr(omega)], omega
    eta = 2.0 - 1.0 / omega
    return ["--eta", repr(eta)], 1.0 / (2.0 - eta)


# --- job lists ---------------------------------------------------------------

def _chain_dynamics(oq, rng, workdir) -> list:
    jobs = []
    for n in (20, 50, 200):
        for k, (steps, omega) in enumerate(zip(_int_strata(rng, 10, 1000, 5000),
                                               _strata(rng, 10, 0.55, 0.9))):
            bias, omega = _bias(k, omega)
            jobs.append(Job("steady", ["steady", "--N", str(n), *bias, "--steps", str(steps)],
                            {"N": n, "omega": omega, "steps": steps}))
    for n in (100, 200, 400):
        for omega in _strata(rng, 4, 0.55, 0.85):
            jobs.append(Job("profile", ["profile", "--N", str(n), "--omega", repr(omega)],
                            {"N": n, "omega": omega}))
    for name in ("dephasing", "depolarizing"):
        omegas = _strata(rng, 12, 0.4, 0.7)
        for k, param in enumerate(_strata(rng, 25, 0.05, 0.95)):
            argv = ["channel", name, "--param", repr(param), "--seed", str(_seed(rng))]
            if k < len(omegas):
                argv += ["--omega", repr(omegas[k])]
            jobs.append(Job("channel", argv, {"channel": name, "param": param}))
    for n in (16, 64, 256):
        dims = rng.permutation([2, 3, 4])
        for d, steps, omega in zip(dims, _int_strata(rng, 3, 100, 200),
                                   _strata(rng, 3, 0.55, 0.85)):
            chain = _haar_chain(oq, rng, n, int(d), omega)
            psi = oq.matrixkit.random_pure_state(int(d), rng)
            jobs.append(Job("evolve", None, {"chain": chain, "psi": psi, "steps": steps}))
    for n in (16, 32, 48, 64):
        (steps,), (omega,) = _int_strata(rng, 1, 100, 200), _strata(rng, 1, 0.55, 0.85)
        masses = rng.dirichlet(np.ones(n))
        chain = oq.core.LinearChainSpec(n, omega, [np.eye(2)] * (n - 1))
        jobs.append(Job("coefficients", None,
                        {"chain": chain, "masses": masses, "steps": steps}))
    return jobs


# (N, dH, jobs); counts are multiples of 3 so steps 3, 4 and 5 occur equally
VERIFY_CONFIGS = ((4, 2, 45), (5, 2, 27), (8, 2, 21), (5, 3, 3), (8, 3, 3), (16, 2, 3))


def _route_check(oq, rng, workdir) -> list:
    jobs = []
    for n, d, count in VERIFY_CONFIGS:
        steps_list = rng.permutation([3, 4, 5] * (count // 3))
        for k, (steps, omega) in enumerate(zip(steps_list, _strata(rng, count, 0.55, 0.85))):
            steps = int(steps)
            if k % 3 == 0:
                path = workdir / f"chain-{n}-{d}-{k}.json"
                path.write_text(oq.core.chain_to_json(_haar_chain(oq, rng, n, d, omega)))
                argv = ["verify", "--spec", str(path), "--steps", str(steps)]
            else:
                bias = _bias(k, omega)[0] if k % 3 == 1 else []
                argv = ["verify", "--N", str(n), "--dH", str(d), "--seed", str(_seed(rng)),
                        *bias, "--steps", str(steps)]
            jobs.append(Job("verify", argv, {"steps": steps}))
    return jobs


# N -> distinct omegas; each runs under both cost models. Few at large N,
# where one `resources` job builds tens of thousands of gates.
RESOURCE_CONFIGS = {4: 12, 8: 12, 16: 8, 32: 4, 64: 2}


def _synthesis(oq, rng, workdir) -> list:
    jobs = []
    for n, count in RESOURCE_CONFIGS.items():
        for k, omega in enumerate(_strata(rng, count, 0.76, 0.84)):
            bias, omega = _bias(k, omega)
            for model in ("linear", "quadratic"):
                jobs.append(Job("resources",
                                ["resources", "--N", str(n), *bias, "--cost-model", model],
                                {"N": n, "omega": omega, "model": model}))
    for n in (4, 8, 16, 32):
        for kind in ("qasm", "json"):
            for steps, omega in zip(rng.permutation([5, 10, 15]), _strata(rng, 3, 0.55, 0.85)):
                jobs.append(Job(kind, None, {"chain": _haar_chain(oq, rng, n, 2, omega),
                                             "steps": int(steps)}))
    return jobs


_BUILDERS = {"chain_dynamics": _chain_dynamics, "route_check": _route_check,
             "synthesis": _synthesis}


def build(workload: str, seed: int, oq, workdir) -> list:
    """The workload's job list for this seed, in run order. Writes any input
    files the jobs read into ``workdir``."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = _BUILDERS[workload](oq, rng, workdir)
    return [jobs[i] for i in rng.permutation(len(jobs))]


# --- running a job -----------------------------------------------------------

def _evolve(p, oq) -> str:
    chain = p["chain"]
    spec = oq.core.chain_to_spec(chain)
    start = oq.core.DiagonalState.pure(p["psi"], 0, chain.n_nodes)
    state = oq.core.evolve(spec, start, p["steps"])
    return "".join(f"{x!r}\n" for x in oq.core.node_distribution(state))


def _coefficients(p, oq) -> str:
    a = oq.channels.coefficient_evolution(p["chain"], p["masses"], p["steps"])
    return "".join(",".join(repr(float(x)) for x in row) + "\n" for row in a)


def _qasm(p, oq) -> str:
    return oq.circuit.circuit_to_qasm(oq.circuit.build_walk(p["chain"], p["steps"]))


def _json(p, oq) -> str:
    return oq.circuit.circuit_to_json(oq.circuit.build_walk(p["chain"], p["steps"]))


_LIBRARY = {"evolve": _evolve, "coefficients": _coefficients, "qasm": _qasm, "json": _json}


def execute(job: Job, oq) -> tuple:
    """Run one job; returns (exit code, stdout text, stderr text)."""
    if job.argv is None:
        return 0, _LIBRARY[job.kind](job.params, oq), ""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = oq.cli.main(job.argv)
        except SystemExit as exc:   # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# --- references, computed before timing ---------------------------------------

def _birth_death(dist: np.ndarray, omega: float, steps: int) -> np.ndarray:
    """The chain's tridiagonal occupation recursion, applied along axis 0."""
    lam = 1.0 - omega
    for _ in range(steps):
        nxt = np.empty_like(dist)
        nxt[0] = lam * dist[0] + lam * dist[1]
        nxt[1:-1] = omega * dist[:-2] + lam * dist[2:]
        nxt[-1] = omega * dist[-2] + omega * dist[-1]
        dist = nxt
    return dist


def _unit(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[0] = 1.0
    return e


def _closed_form(n: int, omega: float) -> np.ndarray:
    """Stationary distribution, x_m proportional to (lambda/omega)^(N-1-m)."""
    x = ((1.0 - omega) / omega) ** np.arange(n - 1, -1, -1, dtype=float)
    return x / x.sum()


def _gaussian(m: int, n: int, omega: float) -> float:
    v = 2.0 * omega - 1.0
    return math.exp(-((m - v * n) ** 2) / (2.0 * n)) / math.sqrt(2.0 * math.pi * n)


def reference(job: Job, oq):
    """What a correct output must contain. May call oqwalk; never timed."""
    p = job.params
    if job.kind == "steady":
        return {"simulated": _birth_death(_unit(p["N"]), p["omega"], p["steps"]),
                "closed": _closed_form(p["N"], p["omega"])}
    if job.kind == "profile":
        grid = range(100, 501, 50)
        dist, done, out = _unit(p["N"]), 0, {}
        for n in grid:
            dist, done = _birth_death(dist, p["omega"], n - done), n
            out[n] = (dist, [_gaussian(m, n, p["omega"]) for m in range(p["N"])])
        return out
    if job.kind == "evolve":
        chain, e0 = p["chain"], _unit(p["chain"].n_nodes)
        params = oq.analysis.ChainParams(chain.n_nodes, chain.omega)
        return (oq.analysis.iterate_master(e0, params, p["steps"]),
                oq.channels.coefficient_evolution(chain, e0, p["steps"]) @ e0)
    if job.kind == "coefficients":
        return _birth_death(np.eye(p["chain"].n_nodes), p["chain"].omega, p["steps"])
    if job.kind == "resources":
        params = oq.analysis.ChainParams(p["N"], p["omega"])
        steps = oq.analysis.estimate_steps(params, "conservative")
        model = {"linear": "linear-ancilla", "quadratic": "quadratic-ancilla-free"}[p["model"]]
        chain = oq.core.LinearChainSpec(p["N"], p["omega"], [np.eye(2)] * (p["N"] - 1))
        per_step, _ = oq.circuit.cost_estimate(oq.circuit.build_step(chain), model)
        return {"steps": steps, "cnot": steps * per_step, "model": model}
    if job.kind in ("qasm", "json"):
        walk = oq.circuit.build_walk(p["chain"], p["steps"])
        return {"gates": len(walk.gates), "registers": list(walk.registers)}
    return None   # channel and verify carry their own pass criteria


# --- checks ------------------------------------------------------------------

def _csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _far(a, b, tol: float) -> float:
    """Largest deviation when it exceeds tol, else 0."""
    dev = float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
    return dev if not dev <= tol else 0.0


def _check_steady(job, text):
    rows = _csv_rows(text, "m,simulated,closed_form,abs_diff")
    if [int(r[0]) for r in rows] != list(range(job.params["N"])):
        return "node column is not 0..N-1"
    cols = np.array([[float(x) for x in r[1:]] for r in rows])
    ref = job.expected
    for label, got, want in (("simulated", cols[:, 0], ref["simulated"]),
                             ("closed_form", cols[:, 1], ref["closed"]),
                             ("abs_diff", cols[:, 2], np.abs(cols[:, 0] - cols[:, 1]))):
        if dev := _far(got, want, EXACT_TOL):
            return f"{label} off by {dev:.3e}"
    return None


def _check_profile(job, text):
    rows = _csv_rows(text, "n,m,P_master,P_gaussian")
    n_nodes = job.params["N"]
    if len(rows) != len(job.expected) * n_nodes:
        return f"{len(rows)} rows"
    for k, (n, (dist, gauss)) in enumerate(job.expected.items()):
        block = rows[k * n_nodes:(k + 1) * n_nodes]
        if [(int(r[0]), int(r[1])) for r in block] != [(n, m) for m in range(n_nodes)]:
            return f"rows for n={n} out of order"
        if dev := _far([float(r[2]) for r in block], dist, EXACT_TOL):
            return f"P_master at n={n} off by {dev:.3e}"
        if dev := _far([float(r[3]) for r in block], gauss, EXACT_TOL):
            return f"P_gaussian at n={n} off by {dev:.3e}"
    return None


def _check_channel(job, text):
    report = json.loads(text)
    if report["channel"] != job.params["channel"] or report["param"] != job.params["param"]:
        return "report names another channel or parameter"
    if not report["trace_distance_to_analytic"] <= ROUTE_TOL:
        return f"trace distance {report['trace_distance_to_analytic']:.3e}"
    if not report["steps_to_converge"] >= 1:
        return f"steps_to_converge {report['steps_to_converge']}"
    return None


def _check_evolve(job, text):
    dist = [float(x) for x in text.split()]
    if len(dist) != job.params["chain"].n_nodes:
        return f"{len(dist)} node probabilities"
    if not abs(sum(dist) - 1.0) <= ROUTE_TOL:
        return f"trace drifted to {sum(dist)!r}"
    master, coeff = job.expected
    if dev := _far(dist, master, ROUTE_TOL):
        return f"differs from iterate_master by {dev:.3e}"
    if dev := _far(dist, coeff, ROUTE_TOL):
        return f"differs from coefficient_evolution by {dev:.3e}"
    return None


def _check_coefficients(job, text):
    got = [[float(x) for x in line.split(",")] for line in text.splitlines()]
    if np.shape(got) != job.expected.shape:
        return f"shape {np.shape(got)}"
    if dev := _far(got, job.expected, EXACT_TOL):
        return f"off by {dev:.3e}"
    return None


def _check_verify(job, text):
    report = json.loads(text)
    if report["pass"] is not True:
        return "verify did not pass"
    for key in ("max_dilation_distance", "max_circuit_distance"):
        if not report[key] <= ROUTE_TOL:
            return f"{key} {report[key]:.3e}"
    if len(report["per_step"]) != job.params["steps"]:
        return f"{len(report['per_step'])} steps reported"
    return None


def _check_resources(job, text):
    rows = _csv_rows(text, "method,dH,G,n,dim_total,cnot_estimate,depth_estimate")
    ref = job.expected
    if [r[0] for r in rows] != ["stinespring", "sznagy", "local", f"circuit-{ref['model']}",
                                "slope_stinespring", "slope_local"]:
        return "unexpected rows"
    circuit_row = rows[3]
    if int(circuit_row[3]) != ref["steps"]:
        return f"{circuit_row[3]} steps, expected {ref['steps']}"
    if int(circuit_row[5]) != ref["cnot"]:
        return f"counted CNOT {circuit_row[5]}, expected steps x per-step = {ref['cnot']}"
    return None


def _check_qasm(job, text):
    ref = job.expected
    want = 1 + len(ref["registers"]) + ref["gates"]
    lines = text.splitlines()
    if len(lines) != want or lines[0] != "OPENQASM 3.0;":
        return f"{len(lines)} lines, expected header + registers + gates = {want}"
    return None


def _check_json(job, text):
    obj = json.loads(text)
    ref = job.expected
    if list(obj["registers"]) != ref["registers"] or len(obj["gates"]) != ref["gates"]:
        return f"{len(obj['gates'])} gates in registers {list(obj['registers'])}"
    return None


_CHECKS = {"steady": _check_steady, "profile": _check_profile, "channel": _check_channel,
           "evolve": _check_evolve, "coefficients": _check_coefficients,
           "verify": _check_verify, "resources": _check_resources,
           "qasm": _check_qasm, "json": _check_json}


def check(job: Job, text: str) -> str | None:
    """None when the output is right, else what is wrong with it."""
    try:
        return _CHECKS[job.kind](job, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
