"""Compiled gate lists: the kernels of the circuit simulators.

``compile_gates`` turns a gate list into ops once, for a density state or
for the ket side alone: the ancilla attach and trace-out schedule, a run of
X gates as one basis permutation, a run of ``u`` gates on the same targets
under the same control qubits as one multiplexor. A ``Plan`` runs the ops.
``circuit.simulate_density`` and ``circuit.circuit_matrix`` are built on it.

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

    ``shape`` has one size-2 axis per qubit side (and may end in one larger
    axis); ``fixed`` holds (axis, value) pairs for the axes fixed in the
    slice; ``select`` and ``targets`` list axes in significance order.
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

    @property
    def qubits(self) -> tuple:
        return tuple(q for q, _ in self.controls) + self.targets


def _joins(run: list, patterns: set, gate: _GateShape) -> bool:
    """Whether ``gate`` extends the fusable run: any X joins an X run; a
    ``u`` joins a ``u`` run on the same targets under the same control
    qubits with a control pattern the run does not have yet."""
    if not run or gate.kind != run[0][1].kind or gate.kind not in ("x", "u"):
        return False
    first = run[0][1]
    return gate.kind == "x" or (
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
    """One X gate: inside its control slice, swap the target's two halves."""
    views = [_slice_view(shape, tuple((axis[q], p) for q, p in gate.controls), (),
                         (axis[gate.targets[0]],))[0] for axis, _ in sides]

    def op(t, spare):
        for how in views:
            view = _view(t, how)
            view[...] = view[::-1]
        return t
    return op, False


def _perm_op(run: list, sides: list, nq: int) -> tuple:
    """A run of X gates as one basis permutation, found by flipping an index
    tensor gate by gate; applied as a gather of ket rows, then (for a
    density) of bra columns."""
    dim = 2 ** nq
    index = np.arange(dim).reshape((2,) * nq)
    for _, gate in run:
        index = _flip_op(gate, sides[:1], index.shape)[0](index, None)
    perm = index.reshape(dim)
    perm.flags.writeable = False   # shared by every plan of this schedule
    density = len(sides) == 2

    def op(t, spare):
        m = t.reshape(dim, -1)
        rows = spare[:m.size].reshape(m.shape)
        # mode="clip": every index is in range, and "raise" would buffer out
        np.take(m, perm, axis=0, out=rows, mode="clip")
        if density:
            np.take(rows, perm, axis=1, out=m, mode="clip")
        else:
            m[...] = rows
        return t
    return op, False


def _attach_op(nq: int) -> tuple:
    """A new qubit, last in the live order, as |0><0|."""
    shape = (2,) * (2 * nq + 2)
    how = _slice_view(shape, ((nq, 0), (2 * nq + 1, 0)), (), ())[0]

    def op(t, spare):
        out = spare[:4 * t.size].reshape(shape)
        out.fill(0.0)
        view = _view(out, how)
        view[...] = t.reshape(view.shape)
        return out
    return op, True


def _trace_op(pos: int, nq: int) -> tuple:
    """The partial trace over one qubit: the sum of its two diagonal slices."""
    shape = (2,) * (2 * nq)
    zero, one = (_slice_view(shape, ((pos, v), (pos + nq, v)), (), ())[0] for v in (0, 1))

    def op(t, spare):
        a, b = _view(t, zero), _view(t, one)
        out = spare[:a.size].reshape(a.shape)
        np.add(a, b, out=out)
        return out.reshape((2,) * (2 * nq - 2))
    return op, True


def _measure_op(pos: int, nq: int) -> tuple:
    """Non-selective measurement: zero the ket != bra slices of one qubit."""
    shape = (2,) * (2 * nq)
    views = [_slice_view(shape, ((pos, ket), (pos + nq, 1 - ket)), (), ())[0] for ket in (0, 1)]

    def op(t, spare):
        for how in views:
            _view(t, how)[...] = 0.0
        return t
    return op, False


class Plan:
    """A gate list compiled against a qubit layout. ``live`` is the qubit
    order of the result; ``size`` the largest state, in entries, on the way.

    The two state buffers are made on the first ``run`` and kept for later
    ones; a lock keeps concurrent runs of one plan apart.
    """

    def __init__(self, ops: list, live: list, size: int):
        self.ops = ops
        self.live = live
        self.size = size
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


def compile_gates(gates: list, live, keep, density: bool = True) -> Plan:
    """Compile a gate list once into fused ops.

    A maximal run of X gates becomes one permutation (``_perm_op``); a
    maximal run of ``u`` gates on the same targets under the same control
    qubits with distinct patterns becomes one multiplexor (``_unitary_op``).
    A lone X flips its slice (``_flip_op``) and a lone ``u`` or RY is a
    multiplexor without select controls. A run never spans an attach or a
    trace-out, so every op sees one qubit layout.

    ``density``: the state is a ``(2,) * 2nq`` tensor, ket axes first and
    bra axes after, both in ``live`` order. A qubit enters the state (as
    |0><0|, last in the order) when first touched, and one not in ``keep``
    is traced out as soon as no later gate references it; so the live
    dimension stays at walker x node x one ancilla pair even for the fresh
    ancilla policy. Otherwise the state is ``(2,) * nq`` plus one trailing
    axis of size 2^nq, ket side only, and ``live`` must cover every qubit.

    Everything but the gates' matrices and angles depends on the gate
    shapes alone (``_schedule``), so circuits of one shape share that work.
    """
    shapes = tuple(_GateShape(g.kind, tuple(g.targets), tuple(g.controls)) for g in gates)
    steps, final, size = _schedule(shapes, tuple(live), frozenset(keep), density)
    ops = [_unitary_op(step, gates) if isinstance(step, _UnitarySlots) else step
           for step in steps]
    return Plan(ops, list(final), size)


@functools.lru_cache(maxsize=64)
def _schedule(gates: tuple, live: tuple, keep: frozenset, density: bool) -> tuple:
    """The ops of ``compile_gates`` for gates of these shapes, with each
    multiplexor left as its ``_UnitarySlots``; the final qubit order; the
    largest state size."""
    live = list(live)
    size = 4 ** len(live)
    last_use = {}
    for pos, gate in enumerate(gates):
        for q in gate.qubits:
            last_use[q] = pos
    # where a trace-out can fall due: a last use, or the first gate for a
    # qubit that no gate touches
    ends = set(last_use.values()) | {0}
    steps, run, patterns, layout = [], [], set(), {}

    def relayout():
        nq = len(live)
        ket = {q: i for i, q in enumerate(live)}
        if density:
            layout["shape"] = (2,) * (2 * nq)
            layout["sides"] = [(ket, False), ({q: i + nq for q, i in ket.items()}, True)]
        else:
            layout["shape"] = (2,) * nq + (2 ** nq,)
            layout["sides"] = [(ket, False)]

    def flush():
        if run and run[0][1].kind != "x":
            steps.append(_unitary_slots(run, layout["sides"], layout["shape"]))
        elif len(run) > 1:
            steps.append(_perm_op(run, layout["sides"], len(live)))
        elif run:
            steps.append(_flip_op(run[0][1], layout["sides"], layout["shape"]))
        run.clear()
        patterns.clear()

    def attach(q):
        nonlocal size
        steps.append(_attach_op(len(live)))
        live.append(q)
        size = max(size, 4 ** len(live))
        relayout()

    def trace_out(q):
        steps.append(_trace_op(live.index(q), len(live)))
        live.remove(q)
        relayout()

    relayout()
    for pos, gate in enumerate(gates):
        new = [q for q in dict.fromkeys(gate.qubits) if q not in live]
        if new or not _joins(run, patterns, gate):
            flush()
        for q in new:
            attach(q)
        if gate.kind == "measure_nonsel":
            steps.append(_measure_op(live.index(gate.targets[0]), len(live)))
        elif gate.kind == "reset":
            trace_out(gate.targets[0])
            attach(gate.targets[0])
        else:
            run.append((pos, gate))
            patterns.add(frozenset(gate.controls))
        if pos in ends:
            done = [q for q in live if q not in keep and last_use.get(q, -1) <= pos]
            if done:
                flush()
            for q in done:
                trace_out(q)
    flush()
    for q in [q for q in live if q not in keep]:
        trace_out(q)
    return tuple(steps), tuple(live), size

