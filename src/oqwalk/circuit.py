"""Gate-level compiler and density-matrix simulator for the chain walk.

Circuits are built from one gate grammar: X, RY, arbitrary-unitary gates
(optionally multi-controlled with explicit per-control polarity), plus
non-selective measurement and reset. Qubit 0 is the most significant bit
of the basis index; registers are laid out walker, node, ancillas.

The one-step construction conditions a rightward block on the ancilla
being |1> and a leftward block on |0>, shifts the node register with
increment/decrement ladders, and patches the two boundary nodes through a
second ancilla. The second ancilla is traced and reinitialized between
the two blocks: each block's boundary bookkeeping leaves it flipped on
branches that just arrived at the far node, and the other block must not
condition on that stale flag.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .matrixkit import asmatrix

GATE_KINDS = ("x", "ry", "u", "measure_nonsel", "reset")


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple
    controls: tuple = ()
    angle: float | None = None
    matrix: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        ctrl_qubits = {q for q, _ in self.controls}
        if ctrl_qubits & set(self.targets):
            raise ValueError("control qubits must be disjoint from targets")
        for _, pol in self.controls:
            if pol not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {pol}")
        if self.kind == "u":
            m = asmatrix(self.matrix)
            if m.shape != (2 ** len(self.targets),) * 2:
                raise ValueError(f"matrix shape {m.shape} does not cover "
                                 f"{len(self.targets)} target qubits")

    @property
    def qubits(self) -> tuple:
        return tuple(q for q, _ in self.controls) + self.targets


@dataclass
class Circuit:
    """Named registers plus an ordered gate list."""

    registers: dict
    gates: list = field(default_factory=list)

    @property
    def n_qubits(self) -> int:
        return sum(len(qs) for qs in self.registers.values())

    def all_qubits(self) -> list:
        return [q for qs in self.registers.values() for q in qs]

    def validate(self) -> None:
        declared = set(self.all_qubits())
        for gate in self.gates:
            missing = set(gate.qubits) - declared
            if missing:
                raise ValueError(f"gate references undeclared qubits {sorted(missing)}")


def _ry_matrix(theta: float) -> np.ndarray:
    # exp(i theta Y / 2); the first column is (cos t/2, -sin t/2)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, s], [-s, c]], dtype=complex)


def rotation_angle(omega: float) -> float:
    """RY angle that maps |0> to sqrt(1-omega)|0> + sqrt(omega)|1>."""
    return -2.0 * math.asin(math.sqrt(omega))


# --- block builders ---------------------------------------------------------

def _bits(value: int, width: int) -> list:
    return [(value >> (width - 1 - b)) & 1 for b in range(width)]


def _pattern(qg, value: int) -> tuple:
    return tuple(zip(qg, _bits(value, len(qg))))


def _inc_gates(qg, extra=()) -> list:
    """Cyclic +1 ladder: X on each bit controlled on all lower bits."""
    g = len(qg)
    out = []
    for t in range(g):
        ctrls = tuple((qg[b], 1) for b in range(t + 1, g)) + tuple(extra)
        out.append(Gate("x", (qg[t],), ctrls))
    return out


def _dec_gates(qg, extra=()) -> list:
    """Cyclic -1 ladder: the +1 gates in reverse order (each is self-inverse,
    so reversing the sequence inverts the product)."""
    return _inc_gates(qg, extra)[::-1]


def build_increment(g: int) -> Circuit:
    """|i> -> |(i+1) mod 2^g> on a g-qubit register."""
    if g < 1:
        raise ValueError("need at least one qubit")
    qg = tuple(range(g))
    return Circuit({"qG": qg}, _inc_gates(qg))


def build_decrement(g: int) -> Circuit:
    """|i> -> |(i-1) mod 2^g> on a g-qubit register."""
    inc = build_increment(g)
    return Circuit(inc.registers, inc.gates[::-1])


def _padded_unitary(u: np.ndarray, h_dim: int) -> np.ndarray:
    """Extend U to the register dimension by a direct sum with the identity."""
    d = u.shape[0]
    if d == h_dim:
        return u
    out = np.eye(h_dim, dtype=complex)
    out[:d, :d] = u
    return out


class _Layout:
    """Register sizing and qubit indices for one chain."""

    def __init__(self, chain: core.LinearChainSpec):
        self.chain = chain
        self.h = max(1, (chain.walker_dim - 1).bit_length())
        self.g = max(1, (chain.n_nodes - 1).bit_length())
        self.qh = tuple(range(self.h))
        self.qg = tuple(range(self.h, self.h + self.g))
        self.h_dim = 2 ** self.h

    def padded(self, u):
        return _padded_unitary(u, self.h_dim)


def _right_gates(lay: _Layout, qa: int) -> list:
    chain = lay.chain
    gates = []
    for j in range(chain.n_nodes - 1):
        ctrls = _pattern(lay.qg, j) + ((qa, 1),)
        gates.append(Gate("u", lay.qh, ctrls,
                          matrix=lay.padded(chain.unitaries[j]), label=f"U{j}"))
    gates += _inc_gates(lay.qg, extra=((qa, 1),))
    return gates


def _left_gates(lay: _Layout, qa: int) -> list:
    chain = lay.chain
    gates = []
    for j in range(1, chain.n_nodes):
        ctrls = _pattern(lay.qg, j) + ((qa, 0),)
        gates.append(Gate("u", lay.qh, ctrls,
                          matrix=lay.padded(chain.unitaries[j - 1].conj().T),
                          label=f"U{j - 1}dg"))
    gates += _dec_gates(lay.qg, extra=((qa, 0),))
    return gates


def _right_boundary_gates(lay: _Layout, qa: int, qap: int) -> list:
    # detect the right boundary node; for a power-of-two chain this is the
    # all-ones pattern
    detect = _pattern(lay.qg, lay.chain.n_nodes - 1) + ((qa, 1),)
    mcx = Gate("x", (qap,), detect)
    return [mcx] + _right_gates(lay, qa) + _dec_gates(lay.qg, extra=((qap, 1),)) + [mcx]


def _left_boundary_gates(lay: _Layout, qa: int, qap: int) -> list:
    detect = _pattern(lay.qg, 0) + ((qa, 0),)
    mcx = Gate("x", (qap,), detect)
    return [mcx] + _left_gates(lay, qa) + _inc_gates(lay.qg, extra=((qap, 1),)) + [mcx]


def _block_circuit(chain, gates_fn, with_qap: bool) -> Circuit:
    lay = _Layout(chain)
    qa = lay.h + lay.g
    regs = {"qH": lay.qh, "qG": lay.qg, "qA": (qa,)}
    if with_qap:
        regs["qAp"] = (qa + 1,)
        gates = gates_fn(lay, qa, qa + 1)
    else:
        gates = gates_fn(lay, qa)
    c = Circuit(regs, gates)
    c.validate()
    return c


def build_right(chain: core.LinearChainSpec) -> Circuit:
    """Rightward block: U_j on the walker at each node j < N-1, then the
    node register increments; everything conditioned on the ancilla |1>."""
    return _block_circuit(chain, _right_gates, with_qap=False)


def build_left(chain: core.LinearChainSpec) -> Circuit:
    """Leftward block: U_{j-1}† at each node j > 0, then the node register
    decrements; everything conditioned on the ancilla |0>."""
    return _block_circuit(chain, _left_gates, with_qap=False)


def build_right_boundary(chain: core.LinearChainSpec) -> Circuit:
    """Rightward block with the hold-at-the-last-node correction.

    A flag qubit is set when the walker sits at the last node wanting to
    move right; the wrapped-around shift is then undone and the flag
    uncomputed. Walkers that arrive at the last node leave the flag
    flipped, which is harmless once the flag is traced.
    """
    return _block_circuit(chain, _right_boundary_gates, with_qap=True)


def build_left_boundary(chain: core.LinearChainSpec) -> Circuit:
    """Leftward mirror of the boundary-corrected block, holding at node 0."""
    return _block_circuit(chain, _left_boundary_gates, with_qap=True)


def _step_gates(lay: _Layout, qa: int, qap: int, omega: float, order: str) -> list:
    blocks = {
        "rb-lb": (_right_boundary_gates, _left_boundary_gates),
        "lb-rb": (_left_boundary_gates, _right_boundary_gates),
    }
    if order not in blocks:
        raise ValueError(f"unknown step order {order!r}")
    first, second = blocks[order]
    gates = [Gate("ry", (qa,), angle=rotation_angle(omega)),
             Gate("measure_nonsel", (qa,))]
    gates += first(lay, qa, qap)
    # the flag can be left set by arrival branches of the first block; the
    # second block must see a clean flag
    gates.append(Gate("reset", (qap,)))
    gates += second(lay, qa, qap)
    return gates


def build_step(chain: core.LinearChainSpec, order: str = "rb-lb") -> Circuit:
    """One walk step: prepare the direction ancilla as a lambda/omega
    mixture (RY then non-selective measurement), then both boundary-
    corrected blocks with a flag reset in between."""
    return build_walk(chain, 1, order=order)


def build_walk(chain: core.LinearChainSpec, n: int, ancilla_policy: str = "reuse",
               order: str = "rb-lb") -> Circuit:
    """n concatenated steps.

    ``fresh`` allocates one (direction, flag) ancilla pair per step, for
    h + g + 2n qubits total; ``reuse`` keeps a single pair and resets it
    after every step. The two policies produce identical simulated states
    because each pair is traced as soon as its step is over.

    A step's gates are built once per ancilla pair, so under ``reuse`` every
    step is the same list of frozen ``Gate`` objects, repeated. Right-move
    ``u`` gates also share the chain's unitary arrays whenever d = 2^h.
    """
    if n < 0:
        raise ValueError("step count must be non-negative")
    lay = _Layout(chain)
    base = lay.h + lay.g
    if ancilla_policy == "fresh":
        qa_reg = tuple(range(base, base + n))
        qap_reg = tuple(range(base + n, base + 2 * n))
        gates = [gate for qa, qap in zip(qa_reg, qap_reg)
                 for gate in _step_gates(lay, qa, qap, chain.omega, order)]
    elif ancilla_policy == "reuse":
        qa_reg, qap_reg = (base,), (base + 1,)
        step = _step_gates(lay, base, base + 1, chain.omega, order) if n else []
        resets = [Gate("reset", qa_reg), Gate("reset", qap_reg)]
        gates = (step + resets) * max(n - 1, 0) + step
    else:
        raise ValueError(f"unknown ancilla policy {ancilla_policy!r}")
    c = Circuit({"qH": lay.qh, "qG": lay.qg, "qA": qa_reg, "qAp": qap_reg}, gates)
    c.validate()
    return c


# --- gate-local simulation ---------------------------------------------------

def _apply_local(t: np.ndarray, gate: Gate, axis: dict, conj: bool = False) -> None:
    """Apply a unitary gate in place to the tensor axes ``axis[q]`` of its qubits.

    Only the basic-index slice where every control axis holds its polarity
    changes; the base matrix (conjugated when acting on bra axes) is
    contracted with the target axes of that slice. An X is a permutation,
    so it flips the target axis instead of multiplying.
    """
    idx = [slice(None)] * t.ndim
    for q, pol in gate.controls:
        idx[axis[q]] = pol
    idx = tuple(idx)
    ctrl_axes = [axis[q] for q, _ in gate.controls]
    # target axes inside the slice, where the control axes are gone
    tgt = [axis[q] - sum(a < axis[q] for a in ctrl_axes) for q in gate.targets]
    view = t[idx]
    if gate.kind == "x":
        t[idx] = np.flip(view, tgt[0])
        return
    base = _ry_matrix(gate.angle) if gate.kind == "ry" else asmatrix(gate.matrix)
    if conj:
        base = base.conj()
    k = len(tgt)
    out = np.tensordot(base.reshape((2,) * (2 * k)), view, axes=(range(k, 2 * k), tgt))
    t[idx] = np.moveaxis(out, range(k), tgt)


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Total unitary of a measurement-free circuit on its declared qubits."""
    nq = circuit.n_qubits
    qubit_pos = {q: i for i, q in enumerate(sorted(circuit.all_qubits()))}
    total = np.eye(2 ** nq, dtype=complex).reshape((2,) * nq + (2 ** nq,))
    for gate in circuit.gates:
        if gate.kind in ("measure_nonsel", "reset"):
            raise ValueError("circuit_matrix requires a unitary circuit")
        _apply_local(total, gate, qubit_pos)
    return total.reshape(2 ** nq, 2 ** nq)


class _DensitySim:
    """Density-matrix state over a live subset of the circuit qubits.

    The state is a ``(2,) * 2nq`` tensor, ket axes first and bra axes after,
    both in ``live`` order; every gate acts on its own axes only. Ancilla
    qubits enter the state lazily (as |0><0|) when first touched and are
    traced out as soon as no later gate references them, so the live
    dimension stays at walker x node x one ancilla pair even for the fresh
    ancilla policy.
    """

    def __init__(self, rho: np.ndarray, live: list):
        self.live = list(live)
        # a copy: gates write the state in place
        self.rho = np.array(rho, dtype=complex).reshape((2,) * (2 * len(self.live)))

    def dense(self) -> np.ndarray:
        dim = 2 ** len(self.live)
        return self.rho.reshape(dim, dim)

    def _attach(self, q: int):
        nq = len(self.live)
        rho = np.zeros((2,) * (2 * nq + 2), dtype=complex)
        rho[(slice(None),) * nq + (0,) + (slice(None),) * nq + (0,)] = self.rho
        self.rho = rho
        self.live.append(q)

    def ensure(self, qubits):
        for q in qubits:
            if q not in self.live:
                self._attach(q)

    def apply(self, gate: Gate):
        self.ensure(gate.qubits)
        nq = len(self.live)
        if gate.kind == "measure_nonsel":
            (q,) = gate.targets
            pos = self.live.index(q)
            for ket, bra in ((0, 1), (1, 0)):
                idx = [slice(None)] * (2 * nq)
                idx[pos], idx[pos + nq] = ket, bra
                self.rho[tuple(idx)] = 0.0
        elif gate.kind == "reset":
            (q,) = gate.targets
            self.trace_out(q)
            self._attach(q)
        else:
            ket = {q: i for i, q in enumerate(self.live)}
            _apply_local(self.rho, gate, ket)
            _apply_local(self.rho, gate, {q: i + nq for q, i in ket.items()}, conj=True)

    def trace_out(self, q: int):
        pos = self.live.index(q)
        self.rho = np.trace(self.rho, axis1=pos, axis2=pos + len(self.live))
        self.live.pop(pos)


def simulate_density(circuit: Circuit, initial: core.DiagonalState,
                     omega: float | None = None) -> core.DiagonalState:
    """Run the circuit on a diagonal walker-node state, tracing all ancillas.

    Non-selective measurements zero the measured qubit's coherences; reset
    traces and reinitializes. When ``omega`` is given, the RY preparation
    angles found in the circuit are checked against it. The node register
    must come back diagonal, with no mass left in padded levels; both are
    checked by ``DiagonalState.from_dense``.
    """
    circuit.validate()
    qh, qg = circuit.registers["qH"], circuit.registers["qG"]
    h, g = len(qh), len(qg)
    main = list(qh) + list(qg)
    if main != list(range(h + g)):
        raise ValueError("walker and node registers must occupy the leading qubits")
    if omega is not None:
        want = rotation_angle(omega)
        for gate in circuit.gates:
            if gate.kind == "ry" and abs(gate.angle - want) > 1e-12:
                raise ValueError(f"RY angle {gate.angle} does not prepare omega={omega}")
    dims = (2 ** h, 2 ** g)
    sim = _DensitySim(initial.to_dense(dims), main)

    last_use = {}
    for pos, gate in enumerate(circuit.gates):
        for q in gate.qubits:
            last_use[q] = pos
    for pos, gate in enumerate(circuit.gates):
        sim.apply(gate)
        for q in [q for q in sim.live if q not in main and last_use.get(q, -1) <= pos]:
            sim.trace_out(q)
    for q in [q for q in sim.live if q not in main]:
        sim.trace_out(q)

    return core.DiagonalState.from_dense(sim.dense(), initial.n_nodes, initial.walker_dim,
                                         dims, trace=initial.total_trace())


# --- cost model --------------------------------------------------------------

COST_MODELS = ("linear-ancilla", "quadratic-ancilla-free")


def _base_cnot_cost(n_targets: int) -> int:
    # generic n-qubit unitary lower bound, ceil((4^n - 3n - 1)/4); equals 3
    # for the two-qubit case and 0 for single-qubit gates
    if n_targets <= 1:
        return 0
    return math.ceil((4 ** n_targets - 3 * n_targets - 1) / 4)


def cost_estimate(circuit: Circuit, model: str = "linear-ancilla",
                  alpha: float = 16.0, beta: float = 0.0) -> tuple:
    """(cnot, depth) under a configurable multi-control decomposition cost.

    A gate with c >= 1 controls contributes f(c) CNOTs - alpha*c + beta for
    the ancilla-assisted linear model, alpha*c^2 for the ancilla-free
    quadratic one - plus the base gate's own cost (3 for a generic
    two-qubit unitary). Depth is greedy earliest-slot layering over
    qubit-disjoint gates; measurements and resets occupy a slot but cost
    no CNOTs.
    """
    if model == "linear-ancilla":
        f = lambda c: alpha * c + beta
    elif model == "quadratic-ancilla-free":
        f = lambda c: alpha * c * c
    else:
        raise ValueError(f"unknown cost model {model!r}, expected one of {COST_MODELS}")
    cnot = 0.0
    depth_by_qubit: dict = {}
    deepest = 0
    for gate in circuit.gates:
        if gate.kind not in ("measure_nonsel", "reset"):
            c = len(gate.controls)
            cnot += (f(c) if c else 0.0) + _base_cnot_cost(len(gate.targets))
        layer = 1 + max((depth_by_qubit.get(q, 0) for q in gate.qubits), default=0)
        for q in gate.qubits:
            depth_by_qubit[q] = layer
        deepest = max(deepest, layer)
    return int(round(cnot)), deepest


# --- export ------------------------------------------------------------------

def circuit_to_json(circuit: Circuit) -> str:
    """Stable JSON gate list with a register manifest."""
    gates = []
    for gate in circuit.gates:
        entry = {"kind": gate.kind,
                 "controls": [[q, pol] for q, pol in gate.controls],
                 "targets": list(gate.targets),
                 "params": {}}
        if gate.kind == "ry":
            entry["params"]["angle"] = gate.angle
        if gate.kind == "u":
            entry["params"]["label"] = gate.label
            entry["params"]["re"] = gate.matrix.real.tolist()
            entry["params"]["im"] = gate.matrix.imag.tolist()
        gates.append(entry)
    return json.dumps({"registers": {name: list(qs) for name, qs in circuit.registers.items()},
                       "gates": gates}, indent=1)


def circuit_to_qasm(circuit: Circuit) -> str:
    """OpenQASM-3-style text; multi-controls stay as ctrl/negctrl modifiers
    and named composite gates rather than being decomposed."""
    names = {}
    for reg, qs in circuit.registers.items():
        for k, q in enumerate(qs):
            names[q] = f"{reg}[{k}]"
    lines = ["OPENQASM 3.0;"]
    lines += [f"qubit[{len(qs)}] {reg};" for reg, qs in circuit.registers.items()]
    for gate in circuit.gates:
        mods = "".join("ctrl @ " if pol else "negctrl @ " for _, pol in gate.controls)
        args = ", ".join(names[q] for q in gate.qubits)
        if gate.kind == "x":
            lines.append(f"{mods}x {args};")
        elif gate.kind == "ry":
            lines.append(f"{mods}ry({gate.angle!r}) {args};")
        elif gate.kind == "u":
            lines.append(f"{mods}{gate.label or 'u'} {args};  // composite unitary")
        elif gate.kind == "measure_nonsel":
            lines.append(f"measure {args};  // non-selective, outcome discarded")
        elif gate.kind == "reset":
            lines.append(f"reset {args};")
    return "\n".join(lines) + "\n"
