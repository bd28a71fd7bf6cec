"""Compiled gate lists: the kernel of the circuit simulator.

``compile_gates`` turns a gate list into ops on a density state once: the
ancilla attach and trace-out schedule, a run of X gates on classical qubits
as one basis permutation, a run of ``u`` gates on the same targets under the
same control qubits as one multiplexor. A ``Plan`` runs the ops.
``circuit.simulate_density`` is built on it.

A density state holds each qubit as classical or quantum, marked by the
compiler at every op from the gate list alone. A classical qubit's ket and
bra are equal, so it has one axis, shared by both sides; a quantum qubit has
a ket axis and a bra axis. The state tensor is the classical axes, then the
quantum ket axes (in attach order), then the quantum bra axes: one classical
index times a dense ket/bra part. The qubits a caller declares classical (a
walk's node register) start so, and each ancilla is classical after its
attach, ``measure_nonsel`` or reset: a measurement lays a quantum qubit's
diagonal on a new classical axis. A ``u`` or RY on a classical qubit, or an
X on one under a quantum control, first makes it quantum. Over classical
qubits an X run is one gather on the classical index, and a ``u`` run with
classical select qubits one batched product over it. A state with no
classical qubit is the dense ``(2,) * 2nq`` tensor.

A gate list is compiled once into ops. Each op is (fn, swaps): fn(t, spare)
takes the state tensor t and a spare buffer at least as large as any state
in the schedule. It changes t in place and returns it, or (swaps) writes
the new state into spare and returns that, after which the old buffer is
the spare one. Two buffers therefore hold every state and temporary.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple

import numpy as np

from .matrixkit import asmatrix


def ry_matrix(theta: float) -> np.ndarray:
    # exp(i theta Y / 2); the first column is (cos t/2, -sin t/2)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _slice_view(shape: tuple, fixed: tuple, select: tuple, targets: tuple) -> tuple:
    """How to view a state tensor inside one control slice.

    ``shape`` has one size-2 axis per qubit side; ``fixed`` holds (axis,
    value) pairs for the axes fixed in the slice; ``select`` and ``targets``
    list axes in significance order.
    Returns (how, flat): ``_view(t, how)`` is a view of the slice with the
    select axes first, then the target axes, then the rest. Neighbouring
    axes of one kind are merged into one axis, so numpy copies and
    multiplies long runs rather than many size-2 axes; ``flat`` says that
    each kind is then one axis, so the view reshapes to (select, targets,
    rest) without a copy.
    """
    fixed = dict(fixed)
    role = {a: ("f", 0) for a in fixed}
    role.update((a, ("s", i)) for i, a in enumerate(select))
    role.update((a, ("t", j)) for j, a in enumerate(targets))
    groups = []                    # [kind, rank of the last axis, size, fixed value]
    for a, size in enumerate(shape):
        kind, rank = role.get(a, ("r", 0))
        last = groups[-1] if groups else None
        if last and last[0] == kind and (kind in "fr" or rank == last[1] + 1):
            last[1], last[2], last[3] = rank, last[2] * size, last[3] * size + fixed.get(a, 0)
        else:
            groups.append([kind, rank, size, fixed.get(a, 0)])
    merged = tuple(g[2] for g in groups)
    # the Ellipsis keeps a fully indexed slice a 0-d view, not a scalar copy
    index = tuple(g[3] if g[0] == "f" else slice(None) for g in groups) + (Ellipsis,)
    kept = [g[:2] for g in groups if g[0] != "f"]
    order = sorted(range(len(kept)), key=lambda i: ("str".index(kept[i][0]), kept[i][1]))
    flat = all([g[0] for g in kept].count(kind) <= 1 for kind in "str")
    return (merged, index, tuple(order)), flat


def _view(t: np.ndarray, how: tuple) -> np.ndarray:
    merged, index, order = how
    return t.reshape(merged)[index].transpose(order)


class _GateShape(NamedTuple):
    """What compiling needs of a gate: everything but its angle or matrix."""

    kind: str
    targets: tuple
    controls: tuple
    qubits: tuple


def _joins(run: list, patterns: set, gate: _GateShape, classical) -> bool:
    """Whether ``gate`` extends the fusable run: an X on ``classical``
    qubits alone joins an X run of such gates; a ``u`` joins a ``u`` run on
    the same targets under the same control qubits with a control pattern
    the run does not have yet."""
    if not run or gate.kind != run[0][1].kind or gate.kind not in ("x", "u"):
        return False
    first = run[0][1]
    if gate.kind == "x":
        return classical(gate) and classical(first)
    return (
        gate.targets == first.targets
        and {q for q, _ in gate.controls} == {q for q, _ in first.controls}
        and len(gate.controls) == len(first.controls)
        and frozenset(gate.controls) not in patterns)


class _UnitarySlots(NamedTuple):
    """A multiplexor without its matrices: which gate fills which pattern of
    the (2^c, 2^k, 2^k) stack, and how each side is viewed."""

    positions: tuple
    slots: tuple
    dims: tuple
    kernels: tuple                 # ((how, flat), conjugated) per side


def _unitary_slots(run: list, sides: list, shape: tuple) -> _UnitarySlots:
    """One RY or ``u`` gate, or a run of ``u`` gates on the same targets
    under the same control qubits applied as one multiplexor.

    Controls whose polarity the whole run shares fix a slice; the other
    ("select") controls index a stack holding each gate's matrix at its
    pattern and the identity at unused ones.
    """
    first = run[0][1]
    pols = [dict(gate.controls) for _, gate in run]
    fixed = {q: p for q, p in pols[0].items() if all(d[q] == p for d in pols)}
    select = sorted((q for q in pols[0] if q not in fixed), key=sides[0][0].get)
    c = len(select)
    slots = tuple(sum(pol[q] << (c - 1 - i) for i, q in enumerate(select)) for pol in pols)
    kernels = tuple((_slice_view(shape, tuple((axis[q], p) for q, p in fixed.items()),
                                 tuple(axis[q] for q in select),
                                 tuple(axis[q] for q in first.targets)), conj)
                    for axis, conj in sides)
    return _UnitarySlots(tuple(pos for pos, _ in run), slots, (c, len(first.targets)), kernels)


def _unitary_op(spec: _UnitarySlots, gates: list) -> tuple:
    """The multiplexor of ``spec`` with its stack filled from ``gates``.
    Per side, the slice is viewed as (select, targets, rest) and multiplied
    by one batched ``matmul``, conjugated on the bra side: each pattern gets
    the (2^k x 2^k) @ (2^k x rest) product its gate alone would."""
    c, k = spec.dims
    stack = np.empty((2 ** c, 2 ** k, 2 ** k), dtype=complex)
    stack[:] = np.eye(2 ** k)
    for pos, slot in zip(spec.positions, spec.slots):
        gate = gates[pos]
        stack[slot] = ry_matrix(gate.angle) if gate.kind == "ry" else asmatrix(gate.matrix)
    kernels = [(how, stack.conj() if conj else stack) for how, conj in spec.kernels]
    rows = (2 ** c, 2 ** k, -1)

    def op(t, spare):
        for (how, flat), m in kernels:
            view = _view(t, how)
            n = view.size
            work = spare if spare.size >= 2 * n else np.empty(2 * n, dtype=complex)
            if flat:
                x = view.reshape(rows)
            else:
                x = work[n:2 * n].reshape(view.shape)
                x[...] = view
                x = x.reshape(rows)
            out = work[:n].reshape(x.shape)
            np.matmul(m, x, out=out)
            view[...] = out.reshape(view.shape)
        return t
    return op, False


def _flip_op(gate: _GateShape, sides: list, shape: tuple) -> tuple:
    """One X gate: inside its control slice, swap the target's two halves.
    A gate on classical qubits alone has one set of axes for both sides, so
    it flips once."""
    axes = {tuple(axis[q] for q in gate.qubits): axis for axis, _ in sides}
    views = [_slice_view(shape, tuple((axis[q], p) for q, p in gate.controls), (),
                         (axis[gate.targets[0]],))[0] for axis in axes.values()]

    def op(t, spare):
        for how in views:
            view = _view(t, how)
            view[...] = view[::-1]
        return t
    return op, False


def _perm_op(run: list, axis: dict, lead: int) -> tuple:
    """A run of X gates on the qubits of the ``lead`` leading (classical)
    axes as one basis permutation, found by flipping an index tensor gate by
    gate; applied as one gather of rows of the classical index."""
    dim = 2 ** lead
    index = np.arange(dim).reshape((2,) * lead)
    for _, gate in run:
        index = _flip_op(gate, [(axis, False)], index.shape)[0](index, None)
    perm = index.reshape(dim)
    perm.flags.writeable = False   # shared by every plan of this schedule

    def op(t, spare):
        m = t.reshape(dim, -1)
        rows = spare[:m.size].reshape(m.shape)
        # mode="clip": every index is in range, and "raise" would buffer out
        np.take(m, perm, axis=0, out=rows, mode="clip")
        return rows.reshape(t.shape)
    return op, True


def _embed_op(shape: tuple, out_shape: tuple, pairs: list) -> tuple:
    """The state written into zeros of a larger layout: for each (fixed,
    out_fixed) of ``pairs``, the input's slice at ``fixed`` goes to the
    output's slice at ``out_fixed``. Attaching a qubit puts the whole state
    at its |0><0|; making a classical qubit quantum puts its slice v at the
    new ket/bra pair's |v><v|."""
    hows = [(_slice_view(shape, fixed, (), ())[0], _slice_view(out_shape, out_fixed, (), ())[0])
            for fixed, out_fixed in pairs]
    size = math.prod(out_shape)

    def op(t, spare):
        out = spare[:size].reshape(out_shape)
        out.fill(0.0)
        for how, out_how in hows:
            view = _view(out, out_how)
            view[...] = _view(t, how).reshape(view.shape)
        return out
    return op, True


def _diagonal_op(shape: tuple, axes: tuple, stack: bool) -> tuple:
    """The two slices where every axis of ``axes`` (one qubit's) holds v,
    v = 0, 1: added, the partial trace over the qubit; or, with ``stack``,
    laid on a new leading axis, which makes a measured qubit classical."""
    zero, one = (_slice_view(shape, tuple((a, v) for a in axes), (), ())[0] for v in (0, 1))
    rest = tuple(n for a, n in enumerate(shape) if a not in axes)

    def trace(t, spare):
        a, b = _view(t, zero), _view(t, one)
        out = spare[:a.size].reshape(a.shape)
        np.add(a, b, out=out)
        return out.reshape(rest)

    def split(t, spare):
        a, b = _view(t, zero), _view(t, one)
        out = spare[:2 * a.size].reshape((2,) + a.shape)
        out[0], out[1] = a, b
        return out.reshape((2,) + rest)
    return (split if stack else trace), True


class Plan:
    """A gate list compiled against a qubit layout. ``live`` is the qubit
    order of the result, whose first ``len(classical)`` qubits are classical
    (one axis each) and the rest quantum (a ket and a bra axis each);
    ``size`` is the largest state, in entries, on the way.

    The two state buffers are made on the first ``run`` and kept for later
    ones; a lock keeps concurrent runs of one plan apart.
    """

    def __init__(self, ops: list, live: list, size: int, classical: tuple):
        self.ops = ops
        self.live = live
        self.size = size
        self.classical = classical
        self._buffers = None
        self._lock = threading.Lock()

    def run(self, t: np.ndarray) -> np.ndarray:
        """The state after every op, as a new array; ``t`` is not changed."""
        with self._lock:
            if self._buffers is None:
                self._buffers = (np.empty(self.size, dtype=complex),
                                 np.empty(self.size, dtype=complex))
            state, spare = self._buffers
            x = state[:t.size].reshape(t.shape)
            x[...] = t
            for fn, swaps in self.ops:
                x = fn(x, spare)
                if swaps:
                    state, spare = spare, state
            return x.copy()


def compile_gates(gates: list, live, classical=()) -> Plan:
    """Compile a gate list once into fused ops.

    A maximal run of X gates on classical qubits alone becomes one
    permutation (``_perm_op``); a maximal run of ``u`` gates on the same
    targets under the same control qubits with distinct patterns becomes one
    multiplexor (``_unitary_op``). Any other X flips its slice (``_flip_op``)
    and a lone ``u`` or RY is a multiplexor without select controls. A run
    never spans a change of layout (an attach, a trace-out, a qubit made
    classical or quantum), so every op sees one layout.

    The state holds the qubits of ``live`` in the order ``classical``, then
    the rest of ``live`` (see the module docstring). ``classical`` lists
    qubits whose ket and bra are equal in the input: each is then one axis
    of the classical index. A qubit enters the state as |0><0| when first
    touched, and one outside ``live`` is traced out as soon as no later gate
    references it; so the live dimension stays at walker x node x one
    ancilla pair even for the fresh ancilla policy. A reset traces its qubit
    out, and re-attaches it unless it is outside ``live`` and never used
    again. A circuit that ends in the input layout gives the state back in
    it. Any other (say one that leaves a qubit of ``classical`` in
    superposition) ends by making every qubit quantum, so the result is the
    dense ``(2,) * 2nq`` tensor in attach order and the plan's ``classical``
    is empty.

    Everything but the gates' matrices and angles depends on the gate
    shapes alone (``_schedule``), so circuits of one shape share that work.
    """
    shapes = tuple(_GateShape(g.kind, g.targets, tuple(g.controls), g.qubits) for g in gates)
    steps, final, size, held = _schedule(shapes, tuple(live), tuple(classical))
    ops = [_unitary_op(step, gates) if isinstance(step, _UnitarySlots) else step
           for step in steps]
    return Plan(ops, list(final), size, held)


@functools.lru_cache(maxsize=64)
def _schedule(gates: tuple, live: tuple, classical: tuple) -> tuple:
    """The ops of ``compile_gates`` for gates of these shapes, with each
    multiplexor left as its ``_UnitarySlots``; the final qubit order; the
    largest state size; the classical qubits the plan takes and gives.

    The quantum qubits stay in attach order (``order``), so a state whose
    qubits are all quantum is the dense tensor in that order."""
    cl = list(classical)
    qu = [q for q in live if q not in cl]
    # live qubits in attach order; trace-outs follow it, as the per-gate
    # simulator's do, so their sums round alike
    order = list(live)
    size = 0
    last_use = {}
    for pos, gate in enumerate(gates):
        for q in gate.qubits:
            last_use[q] = pos
    # where a trace-out can fall due: a last use, or the first gate for a
    # qubit that no gate touches
    ends = set(last_use.values()) | {0}
    steps, run, patterns, layout = [], [], set(), {}

    def relayout():
        nonlocal size
        nc, nq = len(cl), len(qu)
        ket = {q: i for i, q in enumerate(cl + qu)}
        layout["shape"] = (2,) * (nc + 2 * nq)
        layout["sides"] = [(ket, False), ({q: a + nq * (a >= nc) for q, a in ket.items()}, True)]
        size = max(size, math.prod(layout["shape"]))

    def axes(q):
        # one per side; a classical qubit's one axis serves both
        return tuple(dict.fromkeys(axis[q] for axis, _ in layout["sides"]))

    def classical_x(gate):
        # an X run permutes the classical index only
        return all(q in cl for q in gate.qubits)

    def flush():
        if run and run[0][1].kind != "x":
            steps.append(_unitary_slots(run, layout["sides"], layout["shape"]))
        elif len(run) > 1:
            steps.append(_perm_op(run, layout["sides"][0][0], len(cl)))
        elif run:
            steps.append(_flip_op(run[0][1], layout["sides"], layout["shape"]))
        run.clear()
        patterns.clear()

    def attach(q, quantum):
        flush()
        shape = layout["shape"]
        order.append(q)
        if quantum:
            qu.append(q)
        else:
            cl.insert(0, q)
        relayout()
        steps.append(_embed_op(shape, layout["shape"], [((), tuple((a, 0) for a in axes(q)))]))

    def promote(q):
        flush()
        shape, axis = layout["shape"], cl.index(q)
        cl.remove(q)
        qu[:] = [p for p in order if p == q or p in qu]
        relayout()
        steps.append(_embed_op(shape, layout["shape"],
                               [(((axis, v),), tuple((a, v) for a in axes(q))) for v in (0, 1)]))

    def measure(q):
        flush()
        if q in cl:
            return                 # a classical qubit is measured already
        steps.append(_diagonal_op(layout["shape"], axes(q), True))
        qu.remove(q)
        cl.insert(0, q)
        relayout()

    def trace_out(q):
        flush()
        steps.append(_diagonal_op(layout["shape"], axes(q), False))
        order.remove(q)
        (cl if q in cl else qu).remove(q)
        relayout()

    relayout()
    for pos, gate in enumerate(gates):
        # the targets this gate can put in superposition must be quantum
        quantum_control = any(q in qu for q, _ in gate.controls)
        lifted = gate.targets if gate.kind in ("u", "ry") or gate.kind == "x" and quantum_control \
            else ()
        for q in dict.fromkeys(gate.qubits):
            if q not in order:
                attach(q, q in lifted)
            elif q in cl and q in lifted:
                promote(q)
        if gate.kind == "measure_nonsel":
            measure(gate.targets[0])
        elif gate.kind == "reset":
            trace_out(gate.targets[0])
            if gate.targets[0] in live or last_use[gate.targets[0]] > pos:
                attach(gate.targets[0], False)
        else:
            if not _joins(run, patterns, gate, classical_x):
                flush()
            run.append((pos, gate))
            patterns.add(frozenset(gate.controls))
        if pos in ends:
            for q in [q for q in order if q not in live and last_use.get(q, -1) <= pos]:
                trace_out(q)
    flush()
    for q in [q for q in order if q not in live]:
        trace_out(q)
    if (cl, qu) != (list(classical), [q for q in live if q not in classical]):
        for q in list(cl):
            promote(q)
    return tuple(steps), tuple(cl + qu), size, tuple(cl)
