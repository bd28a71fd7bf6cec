"""Span tracer that wraps oqwalk's public functions from outside the package.

Each public function of the layer modules is replaced, at every module
attribute through which callers reach it, by a wrapper that records a span:
name, start, end, parent span and job id. A function imported into another
module (``from .matrixkit import trace_distance`` in ``channels``) is wrapped
in the importing module too, under its home name (``matrixkit.trace_distance``).
``uninstall`` puts every original back.

Self time is a span's duration minus the durations of its child spans. The
wrapper's own bookkeeping, including the counters below, is charged to no
span, so it shows only as the difference between traced and untraced wall
time.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager

LAYERS = ("cli", "core", "analysis", "channels", "dilation", "circuit", "matrixkit")


def live_qubits_max(circ) -> int:
    """Peak qubit count held by a simulator that keeps the walker and node
    registers, attaches an ancilla at its first gate and traces it out after
    its last one (the policy ``circuit.simulate_density`` documents).

    Computed from the circuit, not observed inside the simulator.
    """
    main = set(circ.registers["qH"]) | set(circ.registers["qG"])
    first, last = {}, {}
    for pos, gate in enumerate(circ.gates):
        for q in gate.qubits:
            if q not in main:
                first.setdefault(q, pos)
                last[q] = pos
    opens = sorted(first.values())
    closes = sorted(last.values())
    live = peak = 0
    j = 0
    for pos in opens:
        while closes[j] < pos:
            live -= 1
            j += 1
        live += 1
        peak = max(peak, live)
    return len(main) + peak


def _iterate_limit_steps(counts, args, kwargs, result):
    counts["channels.iterate_limit.steps"] += result[1]


def _unitary_dim(counts, args, kwargs, result):
    counts["dilation.unitary_dim_max"] = max(counts["dilation.unitary_dim_max"],
                                             result.matrix.shape[0])


def _gates_simulated(counts, args, kwargs, result):
    circ = args[0] if args else kwargs["circuit"]
    counts["circuit.gates_simulated"] += len(circ.gates)
    counts["circuit.live_qubits_max"] = max(counts["circuit.live_qubits_max"],
                                            live_qubits_max(circ))


def _gates_built(counts, args, kwargs, result):
    counts["circuit.gates_built"] += len(result.gates)


# counters recorded at a span boundary, from the call's arguments and result
COUNTERS = {
    "channels.iterate_limit": _iterate_limit_steps,
    "dilation.build_u_loc": _unitary_dim,
    "circuit.simulate_density": _gates_simulated,
    "circuit.build_walk": _gates_built,
}
COUNT_NAMES = ("channels.iterate_limit.steps", "dilation.unitary_dim_max",
               "circuit.gates_simulated", "circuit.live_qubits_max",
               "circuit.gates_built")


# matrixkit.asmatrix coerces every jump operator and gate matrix: it runs
# >100k times per pass, and a span around it would cost more than its work
UNTRACED = {"asmatrix"}


def _traceable(module, name: str, value) -> bool:
    if name.startswith("_") or name in UNTRACED or not isinstance(value, types.FunctionType):
        return False
    home = value.__module__.rpartition(".")
    if home[0] != "oqwalk" or home[2] not in LAYERS:
        return False
    # the subcommand handlers are reached through cli's dispatch table, never
    # through the module attribute, so their time is cli.main's self time
    return not (module.__name__ == "oqwalk.cli" and name.startswith("cmd_"))


class Tracer:
    """Per-function calls, self time and errors, counters, and optionally the
    raw spans, for the oqwalk modules passed in."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.job = None
        self.spans = None          # a list while spans are being kept
        self._stack = []
        self._next_id = 0
        self._wrappers = {}        # original function -> its wrapper
        self._patches = []         # (module, attribute, original)
        self.reset()

    def reset(self) -> None:
        """Zero the statistics and counters (wrappers stay installed)."""
        self.stats = {}            # name -> [calls, self_s, errors]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def install(self) -> None:
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if _traceable(module, name, value):
                    setattr(module, name, self._wrap(value))
                    self._patches.append((module, name, value))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        counter = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = [self._next_id, 0.0]   # span id, time covered by children
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(entry)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = [0, 0.0, 0]
                stat[0] += 1
                stat[1] += (t1 - t0) - entry[1]
                stat[2] += failed
                if counter is not None and not failed:
                    counter(self.counts, args, kwargs, result)
                if self.spans is not None:
                    self.spans.append((name, t0, t1, parent[0] if parent else None,
                                       self.job, entry[0]))
                if parent is not None:
                    parent[1] += clock() - t0

        self._wrappers[fn] = traced
        return traced
