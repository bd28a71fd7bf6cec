"""Command-line front end.

Subcommands run the experiments behind the package's headline results and
emit CSV or JSON artifacts: steady-state comparison, drift-diffusion
profiles, channel realization reports, dilation/circuit verification, and
resource accounting. Output is deterministic for a fixed configuration;
floats are printed in shortest round-trip form.

Exit codes: 0 success, 1 numeric or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, channels, circuit, core, dilation
from .matrixkit import haar_unitaries, projector, random_pure_state, trace_distance

DEFAULT_TOL = 1e-10
DEFAULT_DH = 2


class UsageError(Exception):
    pass


class NumericError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oqw-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        raise OSError(f"cannot write --out {out_path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _resolve_omega(args) -> float:
    if args.omega is not None:
        return args.omega
    if args.eta is not None:
        return analysis.omega_for_success(args.eta)
    raise UsageError("provide --omega (or --eta to derive it)")


def _tolerance() -> float:
    raw = os.environ.get("OQW_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise UsageError(f"OQW_TOL={raw!r} is not a number") from exc
    if not 0.0 <= tol < math.inf:
        raise UsageError(f"OQW_TOL={raw!r} must be a finite number at least 0")
    return tol


def cmd_steady(args) -> str:
    params = analysis.ChainParams(args.N, _resolve_omega(args))
    start = np.zeros(args.N)
    start[0] = 1.0
    simulated = analysis.iterate_master(start, params, args.steps).tolist()
    closed = analysis.steady_state(params).tolist()
    lines = ["m,simulated,closed_form,abs_diff"]
    lines += [f"{m},{s!r},{c!r},{abs(s - c)!r}"
              for m, (s, c) in enumerate(zip(simulated, closed))]
    return "\n".join(lines) + "\n"


def cmd_profile(args) -> str:
    params = analysis.ChainParams(args.N, _resolve_omega(args))
    grid = [args.steps] if args.steps is not None else list(range(100, 501, 50))
    dist = np.zeros(args.N)
    dist[0] = 1.0
    done = 0
    lines = ["n,m,P_master,P_gaussian"]
    for n in sorted(grid):
        dist = analysis.iterate_master(dist, params, n - done)
        done = n
        lines += [f"{n},{m},{p!r},{analysis.gaussian_profile(m, n, params)!r}"
                  for m, p in enumerate(dist.tolist())]
    return "\n".join(lines) + "\n"


def cmd_channel(args) -> str:
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    if args.seed is not None:
        rho = projector(random_pure_state(2, rng))
    else:
        rho = projector(np.array([1.0, 1.0]) / math.sqrt(2))
    omega = args.omega if args.omega is not None else 0.5
    if args.name == "dephasing":
        real = channels.dephasing_realization(args.param, rho, omega)
    elif args.name == "depolarizing":
        real = channels.depolarizing_realization(args.param, rho, omega)
    else:
        raise UsageError(f"unknown channel {args.name!r} "
                         "(expected dephasing or depolarizing)")
    try:
        iterated, steps = channels.iterate_limit(real)
    except RuntimeError as exc:
        raise NumericError(str(exc)) from exc
    dist = trace_distance(iterated, real.analytic_limit)
    report = {"channel": args.name, "param": args.param,
              "trace_distance_to_analytic": dist, "steps_to_converge": steps}
    return json.dumps(report, indent=1) + "\n"


def _read_chain_spec(path: str) -> tuple:
    """(N, omega, matrices) from a chain spec file; every fault is a usage error."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from exc
    try:
        return core.chain_fields_from_json(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _chain_from_args(args) -> core.LinearChainSpec:
    if args.spec is not None:
        n, omega, mats = _read_chain_spec(args.spec)
        # validate the jump operators before unitarity, so a tampered file
        # produces a completeness report rather than a parse failure
        violations = core.validate(core.OqwSpec(n, mats[0].shape[0],
                                                core.chain_jumps(omega, mats)))
        if violations:
            report = {"pass": False,
                      "violations": [{"node": node, "deviation": dev}
                                     for node, dev in violations]}
            raise NumericError(json.dumps(report, indent=1))
        return core.LinearChainSpec(n, omega, mats)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    dh = args.dH if args.dH is not None else DEFAULT_DH
    if args.omega is None and args.eta is None:
        omega = 2.0 / 3.0
    else:
        omega = _resolve_omega(args)
    return core.LinearChainSpec(args.N, omega, haar_unitaries(args.N - 1, dh, rng))


def cmd_verify(args) -> str:
    chain = _chain_from_args(args)
    steps = args.steps if args.steps is not None else 5
    tol = _tolerance()
    spec = core.chain_to_spec(chain)
    rng = np.random.default_rng((args.seed if args.seed is not None else 0) + 1)
    psi = random_pure_state(chain.walker_dim, rng)
    initial = core.DiagonalState.pure(psi, 0, chain.n_nodes)

    dil = dilation.build_u_loc(chain)
    step_circ = circuit.build_step(chain)

    direct, via_dil, via_circ = initial, initial, initial
    exact, dilated, simulated = [], [], []
    for _ in range(steps):
        direct = core.step(spec, direct)
        via_dil = dilation.step_via_dilation(dil, via_dil, chain.omega)
        via_circ = circuit.simulate_density(step_circ, via_circ, chain.omega)
        exact.append(direct.blocks)
        dilated.append(via_dil.blocks)
        simulated.append(via_circ.blocks)
    # one call for every block of both routes at every step; then the
    # per-step maximum over nodes
    worst = trace_distance(np.array([exact, exact]), np.array([dilated, simulated])).max(axis=-1)
    per_step = [{"step": k, "dilation": d_dil, "circuit": d_circ}
                for k, d_dil, d_circ in zip(range(1, steps + 1), *worst.tolist())]
    worst_dil = max(e["dilation"] for e in per_step)
    worst_circ = max(e["circuit"] for e in per_step)
    report = {"pass": bool(worst_dil <= tol and worst_circ <= tol),
              "tolerance": tol,
              "max_dilation_distance": worst_dil,
              "max_circuit_distance": worst_circ,
              "per_step": per_step}
    if chain.n_nodes == 2 and steps >= 2:
        report["stabilization_delta"] = float(trace_distance(exact[0], exact[1]).max())
    text = json.dumps(report, indent=1) + "\n"
    if not report["pass"]:
        raise NumericError(text)
    return text


def cmd_resources(args) -> str:
    omega = _resolve_omega(args)
    dh = args.dH if args.dH is not None else DEFAULT_DH
    params = analysis.ChainParams(args.N, omega)
    steps = args.steps if args.steps is not None else analysis.estimate_steps(
        params, "conservative")
    lines = ["method,dH,G,n,dim_total,cnot_estimate,depth_estimate"]
    for method in ("stinespring", "sznagy", "local"):
        lines.append(dilation.resource_report(method, dh, args.N, steps).csv_row())
    # counted costs of the synthesized circuit under the selected model;
    # gate counts depend only on the register structure, not the unitaries
    model = {"linear": "linear-ancilla", "quadratic": "quadratic-ancilla-free"}
    chain = core.LinearChainSpec(args.N, omega, [np.eye(dh)] * (args.N - 1))
    walk = circuit.build_walk(chain, steps)
    cnot, depth = circuit.cost_estimate(walk, model[args.cost_model])
    h, g = len(walk.registers["qH"]), len(walk.registers["qG"])
    lines.append(f"circuit-{model[args.cost_model]},{dh},{args.N},{steps},"
                 f"{steps * 2 ** (h + g + 2)},{cnot},{depth}")
    sizes, methods = [4, 8, 16, 32], ("stinespring", "local")
    costs = [[dilation.resource_report(method, dh, g, steps).cnot_estimate for method in methods]
             for g in sizes]
    for method, slope in zip(methods, analysis.fit_loglog_slope(sizes, costs)):
        lines.append(f"slope_{method},{dh},,{steps},,{_fmt(slope)},")
    return "\n".join(lines) + "\n"


class Command(NamedTuple):
    handler: Callable
    help: str
    reads: frozenset     # option dests the handler reads; no other is accepted
    needs: tuple = ()    # dests that must be given, checked in this order
    least_steps: int = 0


# every option some subcommand reads: dest -> (flag, add_argument keywords),
# in --help order
OPTIONS = {
    "name": ("name", {"help": "dephasing or depolarizing"}),
    "spec": ("--spec", {"help": "chain spec JSON file"}),
    "N": ("--N", {"type": int, "help": "number of nodes / graph size"}),
    "dH": ("--dH", {"type": int, "help": "walker dimension (default 2)"}),
    "omega": ("--omega", {"type": float, "help": "rightward jump probability"}),
    "steps": ("--steps", {"type": int, "help": "step count"}),
    "eta": ("--eta", {"type": float,
                      "help": "target success probability; sets omega = 1/(2-eta)"}),
    "param": ("--param", {"type": float, "help": "channel parameter"}),
    "seed": ("--seed", {"type": int, "help": "seed for random chains/states"}),
    "cost_model": ("--cost-model", {"choices": ["linear", "quadratic"],
                                    "default": "linear"}),
}

# a --spec file gives the whole chain, so these cannot be given with it
SPEC_GIVES = ("N", "dH", "omega", "eta")

# the interval each probability option must lie in: dest -> (low, high, closing
# bracket); nan lies in none. Stricter library checks still apply after these.
RANGES = {"omega": (0.0, 1.0, "]"), "eta": (0.0, 1.0, ")"), "param": (0.0, 1.0, "]")}

# verify compares at least one step; the Gaussian profile needs n >= 1;
# resources fits log-log slopes, and a zero-step walk costs nothing
COMMANDS = {
    "steady": Command(cmd_steady, "steady state: power iteration vs closed form (CSV)",
                      frozenset({"N", "omega", "eta", "steps"}), ("N", "steps")),
    "profile": Command(cmd_profile, "node occupation vs drift-diffusion profile (CSV)",
                       frozenset({"N", "omega", "eta", "steps"}), ("N",), least_steps=1),
    "channel": Command(cmd_channel, "channel realization report (JSON)",
                       frozenset({"name", "param", "omega", "seed"}), ("param",)),
    "verify": Command(cmd_verify, "dilation and circuit equivalence report (JSON)",
                      frozenset({"spec", "N", "dH", "omega", "eta", "steps", "seed"}),
                      ("N",), least_steps=1),
    "resources": Command(cmd_resources, "dimension and gate-cost accounting (CSV)",
                         frozenset({"N", "dH", "omega", "eta", "steps", "cost_model"}),
                         ("N",), least_steps=1),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``oqw`` parser: each subcommand takes only the options it reads.
    Built once per process and shared, so callers must not change it;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="oqw",
        description="Linear open-quantum-walk simulation and circuit synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        bias = p.add_mutually_exclusive_group()   # --omega, or --eta to derive it
        for dest, (flag, kwargs) in OPTIONS.items():
            if dest in command.reads:
                (bias if dest in ("omega", "eta") else p).add_argument(flag, **kwargs)
        p.add_argument("--out", help="output file (written atomically)")
    return parser


def _check_options(args) -> None:
    """Usage errors argparse cannot see: options given with --spec, counts
    below their floor, probabilities out of range and missing options, in
    that order."""
    command, opts = COMMANDS[args.command], vars(args)
    spec = opts.get("spec")
    if spec is not None:
        for dest in SPEC_GIVES:
            if opts.get(dest) is not None:
                raise UsageError(f"{OPTIONS[dest][0]} cannot be given with --spec, "
                                 "which sets the chain")
    if opts.get("dH") is not None and opts["dH"] < 1:
        raise UsageError(f"--dH must be at least 1, got {opts['dH']}")
    if opts.get("N") is not None and opts["N"] < 2:
        raise UsageError(f"--N must be at least 2, got {opts['N']}")
    if opts.get("steps") is not None and opts["steps"] < command.least_steps:
        scope = " for profile" if args.command == "profile" else ""
        raise UsageError(f"--steps must be at least {command.least_steps}{scope}, "
                         f"got {opts['steps']}")
    for dest, (low, high, bracket) in RANGES.items():
        value = opts.get(dest)
        if value is not None and not (low <= value < high or bracket == "]" and value == high):
            raise UsageError(f"{OPTIONS[dest][0]} must be in [{low:g}, {high:g}{bracket}, "
                             f"got {value}")
    for dest in command.needs:
        if opts[dest] is None and (spec is None or dest not in SPEC_GIVES):
            raise UsageError(f"{OPTIONS[dest][0]} is required for this command")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        _write_out(COMMANDS[args.command].handler(args), args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError, RuntimeError, OSError, KeyError, MemoryError) as exc:
        print(f"failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
