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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby, islice, product
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import core
from .compiled import Plan, compile_gates
from .matrixkit import asmatrix

GATE_KINDS = ("x", "ry", "u", "measure_nonsel", "reset")


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate. Gates compare and hash by identity: a ``u`` gate's matrix is
    an array, so field-wise equality would be ambiguous. ``qubits``, the
    control qubits then the targets, is computed once at construction."""

    kind: str
    targets: tuple
    controls: tuple = ()
    angle: float | None = None
    matrix: np.ndarray | None = None
    label: str = ""
    qubits: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = (*[q for q, _ in self.controls], *self.targets)
        if not set(self.targets).isdisjoint(qubits[:len(self.controls)]):
            raise ValueError("control qubits must be disjoint from targets")
        for _, pol in self.controls:
            if pol not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {pol}")
        if self.kind == "u":
            shape = asmatrix(self.matrix).shape
            if shape != (2 ** len(self.targets),) * 2:
                raise ValueError(f"matrix shape {shape} does not cover "
                                 f"{len(self.targets)} target qubits")
        object.__setattr__(self, "qubits", qubits)


@dataclass
class Circuit:
    """Named registers plus a gate list held as ``block`` applied ``repeat``
    times, then the block's first ``tail`` gates (a block applied no times
    is kept as its tail, applied once). Only ``gates`` expands the list, so
    a repeated gate is validated, priced, written and compiled once. Every
    reader takes the structure through ``_structure``, so fields changed
    after construction are checked as the constructor checks them."""

    registers: dict
    block: list = field(default_factory=list)
    repeat: int = 1
    tail: int = 0
    # the compiled simulate_density plans, see _density_plan
    _plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.block, self.repeat, self.tail = self._structure()

    def _structure(self) -> tuple:
        """(block, repeat, tail), checked in O(1): raises ``ValueError`` unless
        repeat >= 0 and 0 <= tail < len(block) (tail 0 for an empty block);
        a block applied no times reads as its tail applied once."""
        block, repeat, tail = self.block, self.repeat, self.tail
        if repeat < 0 or not 0 <= tail < max(len(block), 1):
            raise ValueError(f"need repeat >= 0 and 0 <= tail < {len(block)} gates "
                             f"in the block, got repeat={repeat} and tail={tail}")
        return (block, repeat, tail) if repeat else (block[:tail], 1, 0)

    @property
    def gates(self) -> list:
        block, repeat, tail = self._structure()
        return block * repeat + block[:tail]

    @property
    def n_qubits(self) -> int:
        return sum(len(qs) for qs in self.registers.values())

    def all_qubits(self) -> list:
        return [q for qs in self.registers.values() for q in qs]

    def validate(self) -> None:
        """Raise if a gate touches an undeclared qubit; each block gate is
        checked once."""
        declared = set(self.all_qubits())
        for gate in self._structure()[0]:
            missing = set(gate.qubits) - declared
            if missing:
                raise ValueError(f"gate references undeclared qubits {sorted(missing)}")


def rotation_angle(omega: float) -> float:
    """RY angle that maps |0> to sqrt(1-omega)|0> + sqrt(omega)|1>."""
    return -2.0 * math.asin(math.sqrt(omega))


# --- block builders ---------------------------------------------------------

def _inc_gates(qg, extra=()) -> list:
    """Cyclic +1 ladder: X on each bit controlled on all lower bits."""
    return [Gate("x", (qg[t],), tuple([(q, 1) for q in qg[t + 1:]]) + tuple(extra))
            for t in range(len(qg))]


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
    return Circuit(inc.registers, inc.block[::-1])


def _padded_unitary(u: np.ndarray, h_dim: int) -> np.ndarray:
    """Extend U to the register dimension by a direct sum with the identity."""
    d = u.shape[0]
    if d == h_dim:
        return u
    out = np.eye(h_dim, dtype=complex)
    out[:d, :d] = u
    return out


class _Layout:
    """Register sizing and qubit indices for one chain, and the node
    register's control pattern of each node, most significant qubit first."""

    def __init__(self, chain: core.LinearChainSpec):
        self.chain = chain
        self.h = max(1, (chain.walker_dim - 1).bit_length())
        self.g = max(1, (chain.n_nodes - 1).bit_length())
        self.qh = tuple(range(self.h))
        self.qg = tuple(range(self.h, self.h + self.g))
        self.h_dim = 2 ** self.h
        self.patterns = list(islice(product(*[((q, 0), (q, 1)) for q in self.qg]),
                                    chain.n_nodes))

    def padded(self, u):
        return _padded_unitary(u, self.h_dim)


def _right_gates(lay: _Layout, qa: int) -> list:
    chain = lay.chain
    gates = [Gate("u", lay.qh, lay.patterns[j] + ((qa, 1),),
                  matrix=lay.padded(chain.unitaries[j]), label=f"U{j}")
             for j in range(chain.n_nodes - 1)]
    return gates + _inc_gates(lay.qg, extra=((qa, 1),))


def _left_gates(lay: _Layout, qa: int) -> list:
    chain = lay.chain
    gates = [Gate("u", lay.qh, lay.patterns[j] + ((qa, 0),),
                  matrix=lay.padded(chain.unitaries[j - 1].conj().T), label=f"U{j - 1}dg")
             for j in range(1, chain.n_nodes)]
    return gates + _dec_gates(lay.qg, extra=((qa, 0),))


def _right_boundary_gates(lay: _Layout, qa: int, qap: int) -> list:
    # detect the right boundary node; for a power-of-two chain this is the
    # all-ones pattern
    detect = lay.patterns[-1] + ((qa, 1),)
    mcx = Gate("x", (qap,), detect)
    return [mcx] + _right_gates(lay, qa) + _dec_gates(lay.qg, extra=((qap, 1),)) + [mcx]


def _left_boundary_gates(lay: _Layout, qa: int, qap: int) -> list:
    detect = lay.patterns[0] + ((qa, 0),)
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


_STEP_ORDERS = {
    "rb-lb": (_right_boundary_gates, _left_boundary_gates),
    "lb-rb": (_left_boundary_gates, _right_boundary_gates),
}


def _step_gates(lay: _Layout, qa: int, qap: int, omega: float, order: str) -> list:
    first, second = _STEP_ORDERS[order]
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
    h + g + 2n qubits total, and returns one block; ``reuse`` keeps a single
    pair and resets it after every step. The two policies produce identical
    simulated states because each pair is traced as soon as its step is over.

    A step's gates are built once per ancilla pair; under ``reuse`` the
    block is step + resets, repeated n - 1 times with the step as its tail.
    Right-move ``u`` gates share the chain's unitary arrays when d = 2^h.
    """
    if n < 0:
        raise ValueError("step count must be non-negative")
    if order not in _STEP_ORDERS:
        raise ValueError(f"unknown step order {order!r}")
    lay = _Layout(chain)
    base = lay.h + lay.g
    if ancilla_policy == "fresh":
        qa_reg = tuple(range(base, base + n))
        qap_reg = tuple(range(base + n, base + 2 * n))
        structure = ([gate for qa, qap in zip(qa_reg, qap_reg)
                      for gate in _step_gates(lay, qa, qap, chain.omega, order)],)
    elif ancilla_policy == "reuse":
        qa_reg, qap_reg = (base,), (base + 1,)
        step = _step_gates(lay, base, base + 1, chain.omega, order) if n else []
        resets = [Gate("reset", qa_reg), Gate("reset", qap_reg)]
        structure = (step + resets, n - 1, len(step)) if n >= 2 else (step,)
    else:
        raise ValueError(f"unknown ancilla policy {ancilla_policy!r}")
    c = Circuit({"qH": lay.qh, "qG": lay.qg, "qA": qa_reg, "qAp": qap_reg}, *structure)
    c.validate()
    return c


# --- simulation ------------------------------------------------------------

class _DensityPlan(NamedTuple):
    """The compiled ``simulate_density`` plans and what they were compiled
    from: ``plan`` runs the block, ``tail_plan`` (None without a tail) its
    first ``tail`` gates."""

    source: tuple                  # a copy of (block, repeat, tail, registers)
    dims: tuple
    ry_angles: list
    plan: Plan
    tail_plan: Plan | None


def _density_plan(circuit: Circuit) -> _DensityPlan:
    """The circuit's compiled plans, made on first use and again whenever
    its block (by gate identity), repeat count, tail or registers have
    changed. The block and the tail are compiled once each, however often
    the block repeats; a block whose output feeds another run must give the
    node register back classical."""
    block, repeat, tail = circuit._structure()
    cached = circuit._plan
    if cached is not None and cached.source == (block, repeat, tail, circuit.registers):
        return cached
    circuit.validate()
    qh, qg = circuit.registers["qH"], circuit.registers["qG"]
    h, g = len(qh), len(qg)
    main = list(qh) + list(qg)
    if main != list(range(h + g)):
        raise ValueError("walker and node registers must occupy the leading qubits")
    plan = compile_gates(block, main, classical=qg)
    if (repeat > 1 or tail) and not plan.classical:
        raise ValueError("a block that repeats or has a tail must end with the node "
                         "register classical")
    tail_plan = compile_gates(block[:tail], main, classical=qg) if tail else None
    cached = _DensityPlan((list(block), repeat, tail, dict(circuit.registers)), (2 ** h, 2 ** g),
                          [gate.angle for gate in block if gate.kind == "ry"], plan, tail_plan)
    circuit._plan = cached
    return cached


def simulate_density(circuit: Circuit, initial: core.DiagonalState,
                     omega: float | None = None) -> core.DiagonalState:
    """Run the circuit on a diagonal walker-node state, tracing all ancillas.

    The circuit is validated, and its block and tail are compiled once each
    (``compile_gates``) and kept on the circuit until its structure or
    registers change; the block plan runs ``repeat`` times, then the tail
    plan once. The node register is classical, so the state is its padded
    (2^g, 2^h, 2^h) block stack; a state with more nodes or walker levels
    than that raises ``ValueError``. When ``omega`` is given, the RY
    preparation angles are checked against it. A one-block circuit that
    leaves a node qubit in superposition ends on the dense matrix, which
    must come back diagonal (``DiagonalState.from_dense``); either way no
    mass may be left in padded levels (``DiagonalState.from_padded``).
    """
    compiled = _density_plan(circuit)
    if omega is not None:
        want = rotation_angle(omega)
        for angle in compiled.ry_angles:
            if abs(angle - want) > 1e-12:
                raise ValueError(f"RY angle {angle} does not prepare omega={omega}")
    (dw, dn), n, d = compiled.dims, initial.n_nodes, initial.walker_dim
    if n > dn or d > dw:
        raise ValueError(f"state (N, d) = ({n}, {d}) does not fit the registers "
                         f"(2^g, 2^h) = ({dn}, {dw})")
    out = np.zeros((dn, dw, dw), dtype=complex)
    out[:n, :d, :d] = initial.blocks
    _, repeat, tail, _ = compiled.source
    runs = [compiled.plan] * repeat + [compiled.tail_plan] * bool(tail)
    for plan in runs:
        out = plan.run(out)
    trace = initial.total_trace()
    if runs[-1].classical:
        return core.DiagonalState.from_padded(out.reshape(dn, dw, dw), n, d, trace)
    return core.DiagonalState.from_dense(out, n, d, compiled.dims, trace=trace)


# --- cost model --------------------------------------------------------------

COST_MODELS = ("linear-ancilla", "quadratic-ancilla-free")


def _base_cnot_cost(n_targets: int) -> int:
    # generic n-qubit unitary lower bound, ceil((4^n - 3n - 1)/4); equals 3
    # for the two-qubit case and 0 for single-qubit gates
    if n_targets <= 1:
        return 0
    return math.ceil((4 ** n_targets - 3 * n_targets - 1) / 4)


def _layer_runs(gates: list, rows: dict) -> None:
    """Greedy-layer ``gates`` onto ``rows`` in place, one list per qubit:
    its layer, as ``[layer]``, or its row of a max-plus frontier map.

    A gate gives its qubits one shared row, the column-wise maximum of
    theirs plus one. After a run's first gate its qubits share that row, so
    each run of consecutive gates on one qubit tuple is one update, which
    adds the run's length.
    """
    for qubits, run in groupby([gate.qubits for gate in gates]):
        if qubits:
            c = len(list(run))
            merged = {id(rows[q]): rows[q] for q in qubits}
            top = map(max, *merged.values()) if len(merged) > 1 else rows[qubits[0]]
            row = [x + c for x in top]
            for q in qubits:
                rows[q] = row


def cost_estimate(circuit: Circuit, model: str = "linear-ancilla",
                  alpha: float = 16.0, beta: float = 0.0) -> tuple:
    """(cnot, depth) under a configurable multi-control decomposition cost.

    A gate with c >= 1 controls contributes f(c) CNOTs - alpha*c + beta for
    the ancilla-assisted linear model, alpha*c^2 for the ancilla-free
    quadratic one - plus the base gate's own cost (3 for a generic
    two-qubit unitary). Depth is greedy earliest-slot layering over
    qubit-disjoint gates; measurements and resets occupy a slot but cost
    no CNOTs.

    The circuit's block is costed once: each of its gates is priced once.
    A block applied once is layered run by run straight onto the per-qubit
    frontier. A repeated block's effect on the frontier, a max-plus linear
    map, is found in one sweep and raised to the ``repeat``-th power by
    max-plus squaring; the tail, the block's first gates, takes the map
    saved at that point of the sweep.
    """
    if model == "linear-ancilla":
        f = lambda c: alpha * c + beta
    elif model == "quadratic-ancilla-free":
        f = lambda c: alpha * c * c
    else:
        raise ValueError(f"unknown cost model {model!r}, expected one of {COST_MODELS}")

    def gate_cnots(gate):
        if gate.kind in ("measure_nonsel", "reset"):
            return 0.0
        c = len(gate.controls)
        return (f(c) if c else 0.0) + _base_cnot_cost(len(gate.targets))

    block, k, shared = circuit._structure()
    prices = np.array([gate_cnots(gate) for gate in block], dtype=float)
    if k == 1:
        rows = defaultdict(lambda: [0])
        _layer_runs(block + block[:shared], rows)
        layers = [row[0] for row in rows.values()]
    else:
        qubits = sorted({q for gate in block for q in gate.qubits})
        rows = {q: [0 if p == q else -math.inf for p in qubits] for q in qubits}
        _layer_runs(block[:shared], rows)
        prefix = [rows[q] for q in qubits]
        _layer_runs(block[shared:], rows)
        layers = np.zeros(len(qubits))
        if qubits:
            # the map applied k times, by max-plus squaring, (a ⊗ b)[i, j] =
            # max_l a[i, l] + b[l, j]; the entries are small integers and
            # -inf, so the float sums are exact
            power, reps = np.array([rows[q] for q in qubits]), k
            while reps:
                if reps & 1:
                    layers = (power + layers).max(axis=1)
                reps >>= 1
                if reps:
                    power = (power[:, :, None] + power).max(axis=1)
            if shared:
                layers = (np.array(prefix) + layers).max(axis=1)
    if np.all(prices % 1 == 0) and (k + 1) * np.abs(prices).sum() < 2 ** 53:
        # integer prices whose sums stay below 2^53: every running sum is
        # exact, so k block sums and the tail's give the gate-order bits
        cnot = k * prices.sum() + prices[:shared].sum()
    else:
        # a running total in gate order, as one float: a non-integer alpha
        # or beta then rounds as the per-gate sum does, which a block sum
        # times k does not always (it can land on the other side of a .5)
        cnot = np.cumsum(np.concatenate(([0.0], np.tile(prices, k), prices[:shared])))[-1]
    # the frontier never decreases, so its maximum is the deepest layer; a
    # circuit whose gates touch no qubit still has one layer
    deepest = int(max(layers, default=1 if block else 0))
    return int(round(float(cnot))), deepest


# --- export ------------------------------------------------------------------

def _joined(circuit: Circuit, render, sep: str) -> str:
    """``sep.join(render(gate) for gate in circuit.gates)``, calling
    ``render`` once per distinct gate object (keyed by identity); the
    block's text is joined once and repeated."""
    memo = {}

    def text(gate):
        if gate not in memo:
            memo[gate] = render(gate)
        return memo[gate]

    block, repeat, tail = circuit._structure()
    texts = [text(gate) for gate in block]
    return sep.join([sep.join(texts)] * repeat + texts[:tail])


def _json_slots(shape: tuple, indent: str) -> str:
    """json's ``indent=1`` layout of a nested list of this shape, on a line
    that starts with ``indent``, with a ``%s`` slot for each scalar."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = indent + " "
    item = _json_slots(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + indent + "]"


def _json_template(kind: str, n_controls: int, n_targets: int) -> tuple:
    """(template, indents) for the gates of one shape: the text ``json.dumps``
    gives a gate's entry {kind, controls, targets, params} two levels deep
    in the document, with a ``%s`` slot for each scalar (control qubit and
    polarity, target, angle, label, matrix entry), and each slot's line
    start (a newline and the spaces before the value)."""
    i3, i4 = "\n   ", "\n    "    # line starts of the entry's keys and of params' keys
    params = []
    if kind == "ry":
        params = ['"angle": %s']
    elif kind == "u":
        square = _json_slots((2 ** n_targets,) * 2, i4)
        params = ['"label": %s', f'"re": {square}', f'"im": {square}']
    params = "{" + i4 + ("," + i4).join(params) + i3 + "}" if params else "{}"
    text = (f'  {{{i3}"kind": "{kind}",{i3}"controls": {_json_slots((n_controls, 2), i3)},'
            f'{i3}"targets": {_json_slots((n_targets,), i3)},{i3}"params": {params}\n  }}')
    indents = ["\n" + " " * (len(line) - len(line.lstrip(" ")))
               for line in text.split("\n") for _ in range(line.count("%s"))]
    return text, indents


def circuit_to_json(circuit: Circuit) -> str:
    """Stable JSON gate list with a register manifest.

    The text is that of ``json.dumps({"registers": ..., "gates": [...]},
    indent=1)``. Each distinct gate object is written once, by filling the
    template of its shape (kind, control count, target count), made once
    per call (a cache local to the call), with its scalars; the block's
    text is joined once per repeat (see ``_joined``).
    """
    template_of = lru_cache(maxsize=None)(_json_template)

    def entry(gate):
        template, indents = template_of(gate.kind, len(gate.controls), len(gate.targets))
        values = [x for pair in gate.controls for x in pair] + list(gate.targets)
        if gate.kind == "ry":
            values.append(gate.angle)
        elif gate.kind == "u":
            values += [gate.label] + [x for part in (gate.matrix.real, gate.matrix.imag)
                                      for row in part.tolist() for x in row]
        # an exact int or a finite float goes in as it is (%s gives its
        # repr), a string by json's rule, anything else (bools, nan, numpy
        # scalars, None) through json itself at its slot's line start
        return template % tuple([
            x if type(x) in (int, float) and x - x == 0 else encode_basestring_ascii(x)
            if type(x) is str else json.dumps(x, indent=1).replace("\n", i)
            for x, i in zip(values, indents)])

    registers = json.dumps({name: list(qs) for name, qs in circuit.registers.items()},
                           indent=1).replace("\n", "\n ")
    gates = _joined(circuit, entry, ",\n")
    gates = "[\n" + gates + "\n ]" if gates else "[]"
    return '{\n "registers": ' + registers + ',\n "gates": ' + gates + "\n}"


def circuit_to_qasm(circuit: Circuit) -> str:
    """OpenQASM-3-style text; multi-controls stay as ctrl/negctrl modifiers
    and named composite gates rather than being decomposed. Each distinct
    gate object's line is formatted once (see ``_joined``)."""
    names = {}
    for reg, qs in circuit.registers.items():
        for k, q in enumerate(qs):
            names[q] = f"{reg}[{k}]"

    def line(gate):
        mods = "".join("ctrl @ " if pol else "negctrl @ " for _, pol in gate.controls)
        args = ", ".join(names[q] for q in gate.qubits)
        if gate.kind == "x":
            return f"{mods}x {args};"
        if gate.kind == "ry":
            return f"{mods}ry({gate.angle!r}) {args};"
        if gate.kind == "u":
            return f"{mods}{gate.label or 'u'} {args};  // composite unitary"
        if gate.kind == "measure_nonsel":
            return f"measure {args};  // non-selective, outcome discarded"
        return f"reset {args};"

    lines = ["OPENQASM 3.0;"]
    lines += [f"qubit[{len(qs)}] {reg};" for reg, qs in circuit.registers.items()]
    body = _joined(circuit, line, "\n")
    if body:
        lines.append(body)
    return "\n".join(lines) + "\n"
