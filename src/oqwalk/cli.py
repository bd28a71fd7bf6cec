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
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import analysis, channels, circuit, core, dilation
from .matrixkit import haar_unitary, projector, random_pure_state, trace_distance

DEFAULT_TOL = 1e-10


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


def _need(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for this command")


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
    _need(args, "N", "steps")
    params = analysis.ChainParams(args.N, _resolve_omega(args))
    t = analysis.transition_matrix(params)
    start = np.zeros(args.N)
    start[0] = 1.0
    simulated = analysis.power_iterate(t, start, args.steps)
    closed = analysis.steady_state(params)
    lines = ["m,simulated,closed_form,abs_diff"]
    for m in range(args.N):
        lines.append(f"{m},{_fmt(simulated[m])},{_fmt(closed[m])},"
                     f"{_fmt(abs(simulated[m] - closed[m]))}")
    return "\n".join(lines) + "\n"


def cmd_profile(args) -> str:
    _need(args, "N")
    params = analysis.ChainParams(args.N, _resolve_omega(args))
    grid = [args.steps] if args.steps is not None else list(range(100, 501, 50))
    dist = np.zeros(args.N)
    dist[0] = 1.0
    done = 0
    lines = ["n,m,P_master,P_gaussian"]
    for n in sorted(grid):
        dist = analysis.iterate_master(dist, params, n - done)
        done = n
        for m in range(args.N):
            lines.append(f"{n},{m},{_fmt(dist[m])},"
                         f"{_fmt(analysis.gaussian_profile(m, n, params))}")
    return "\n".join(lines) + "\n"


def cmd_channel(args) -> str:
    _need(args, "param")
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
            obj = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"spec file is not valid JSON: {exc}") from exc
    missing = [k for k in ("N", "omega", "unitaries") if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise UsageError(f"spec file is missing the keys {missing}")
    n, omega = obj["N"], obj["omega"]
    if not isinstance(omega, (int, float)) or not 0 <= omega <= 1:
        raise UsageError(f"spec omega must be a number in [0, 1], got {omega!r}")
    try:
        mats = [core.matrix_from_json(u) for u in obj["unitaries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"spec unitaries must be a list of re/im matrices ({exc!r})") from exc
    if not isinstance(n, int) or n < 2 or len(mats) != n - 1:
        raise UsageError(f"spec needs an integer N >= 2 and N - 1 unitaries, "
                         f"got N={n!r} and {len(mats)} unitaries")
    shapes = list(dict.fromkeys(m.shape for m in mats))
    if len(shapes) > 1 or shapes[0][0] != shapes[0][1]:
        raise UsageError(f"spec unitaries must be square matrices of one size, "
                         f"got shapes {shapes}")
    return n, omega, mats


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
    _need(args, "N")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    if args.omega is None and args.eta is None:
        omega = 2.0 / 3.0
    else:
        omega = _resolve_omega(args)
    return core.LinearChainSpec(args.N, omega,
                                [haar_unitary(args.dH, rng) for _ in range(args.N - 1)])


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
    per_step, first_two = [], []
    for k in range(1, steps + 1):
        direct = core.step(spec, direct)
        if k <= 2:
            first_two.append(direct)
        via_dil = dilation.step_via_dilation(dil, via_dil, chain.omega)
        via_circ = circuit.simulate_density(step_circ, via_circ, chain.omega)
        d_dil = max(trace_distance(direct.block(i), via_dil.block(i))
                    for i in range(chain.n_nodes))
        d_circ = max(trace_distance(direct.block(i), via_circ.block(i))
                     for i in range(chain.n_nodes))
        per_step.append({"step": k, "dilation": d_dil, "circuit": d_circ})
    worst_dil = max(e["dilation"] for e in per_step)
    worst_circ = max(e["circuit"] for e in per_step)
    report = {"pass": bool(worst_dil <= tol and worst_circ <= tol),
              "tolerance": tol,
              "max_dilation_distance": worst_dil,
              "max_circuit_distance": worst_circ,
              "per_step": per_step}
    if chain.n_nodes == 2 and steps >= 2:
        one, two = first_two
        report["stabilization_delta"] = max(
            trace_distance(one.block(i), two.block(i)) for i in range(2))
    text = json.dumps(report, indent=1) + "\n"
    if not report["pass"]:
        raise NumericError(text)
    return text


def cmd_resources(args) -> str:
    _need(args, "N")
    omega = _resolve_omega(args)
    dh = args.dH
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
    sizes = [4, 8, 16, 32]
    for method in ("stinespring", "local"):
        costs = [dilation.resource_report(method, dh, g, steps).cnot_estimate
                 for g in sizes]
        slope = analysis.fit_loglog_slope(sizes, costs)
        lines.append(f"slope_{method},{dh},,{steps},,{_fmt(slope)},")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqw",
        description="Linear open-quantum-walk simulation and circuit synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "steady": "steady state: power iteration vs closed form (CSV)",
        "profile": "node occupation vs drift-diffusion profile (CSV)",
        "channel": "channel realization report (JSON)",
        "verify": "dilation and circuit equivalence report (JSON)",
        "resources": "dimension and gate-cost accounting (CSV)",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name == "channel":
            p.add_argument("name", help="dephasing or depolarizing")
        p.add_argument("--spec", help="chain spec JSON file")
        p.add_argument("--N", type=int, help="number of nodes / graph size")
        p.add_argument("--dH", type=int, default=2, help="walker dimension (default 2)")
        p.add_argument("--omega", type=float, help="rightward jump probability")
        p.add_argument("--steps", type=int, help="step count")
        p.add_argument("--eta", type=float,
                       help="target success probability; sets omega = 1/(2-eta)")
        p.add_argument("--param", type=float, help="channel parameter")
        p.add_argument("--seed", type=int, help="seed for random chains/states")
        p.add_argument("--cost-model", choices=["linear", "quadratic"],
                       default="linear", dest="cost_model")
        p.add_argument("--out", help="output file (written atomically)")
    return parser


_HANDLERS = {
    "steady": cmd_steady,
    "profile": cmd_profile,
    "channel": cmd_channel,
    "verify": cmd_verify,
    "resources": cmd_resources,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # verify compares at least one step; the Gaussian profile needs n >= 1;
    # resources fits log-log slopes, and a zero-step walk costs nothing
    least_steps = 1 if args.command in ("verify", "profile", "resources") else 0
    try:
        if args.dH < 1:
            raise UsageError(f"--dH must be at least 1, got {args.dH}")
        if args.N is not None and args.N < 2:
            raise UsageError(f"--N must be at least 2, got {args.N}")
        if args.steps is not None and args.steps < least_steps:
            scope = " for profile" if args.command == "profile" else ""
            raise UsageError(f"--steps must be at least {least_steps}{scope}, got {args.steps}")
        _write_out(_HANDLERS[args.command](args), args.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
