"""Open-quantum-walk formalism: validated walk specifications, the one-step
recursion on diagonal states, and the linear-chain computation model.

A walk is a graph whose directed edges (i, j) carry jump operators B_i^j on
the walker's internal space, subject to the completeness condition
sum_j B_i^j† B_i^j = I at every node. States are kept in diagonal form,
one unnormalized block per node; evolution never produces cross-node
blocks, so the representation is closed under stepping.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .matrixkit import asmatrix, dagger, unitary_deviation

CONSTRUCTION_TOL = 1e-10

# largest walker dimension whose edges ``evolve`` applies as d²×d² superoperators
SUPEROPERATOR_MAX_DIM = 4


@dataclass(frozen=True, eq=False)
class OqwSpec:
    """Walk specification: node count, walker dimension, jump operators.

    ``jumps`` maps (source, target) to the jump operator for that edge;
    absent pairs are zero operators (omitted edges). It is kept as a
    read-only copy, and stepping compiles the edges at first use.
    """

    n_nodes: int
    walker_dim: int
    jumps: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.walker_dim < 1:
            raise ValueError("walker dimension must be positive")
        for (i, j), b in self.jumps.items():
            b = asmatrix(b)
            if b.shape != (self.walker_dim, self.walker_dim):
                raise ValueError(f"jump ({i},{j}) has shape {b.shape}, "
                                 f"expected {(self.walker_dim,) * 2}")
            for node in (i, j):
                if not 0 <= node < self.n_nodes:
                    raise ValueError(f"jump ({i},{j}) references a node outside "
                                     f"0..{self.n_nodes - 1}")
        object.__setattr__(self, "jumps", MappingProxyType(dict(self.jumps)))

    def jump(self, i: int, j: int) -> np.ndarray:
        return self.jumps.get((i, j), np.zeros((self.walker_dim,) * 2, dtype=complex))

    @cached_property
    def _compiled(self) -> tuple:
        """The edges compiled once for ``evolve``, grouped by arrival rank.

        An edge has rank r when it is the r-th edge into its target, counting
        in the insertion order of ``jumps``. Nodes are relabelled by
        descending in-degree, ``position[node]``, so the targets of rank r
        are exactly positions 0..n_r-1. Returns (position, sources, ops,
        ranks): the edge operators and their sources' positions list rank
        0's edges in target order, then rank 1's, and so on; ``ranks`` holds
        each rank's (start, stop) in that list. Adding the ranks in order
        sums each target's terms in ``jumps`` order.

        ``ops`` takes one of two forms, chosen by the walker dimension d
        alone. For d <= SUPEROPERATOR_MAX_DIM it is ``(S,)``, the (E, d², d²)
        stack of superoperators S = B ⊗ conj(B), for which
        vec(B ρ B†) = S vec ρ with ρ flattened row-major. Measured per step
        on chains (N = 16-256, 1 BLAS thread), one matvec per edge beats the
        two d×d products 3-10× at d = 2-4 and about 2× at d = 5, breaks even
        at d = 6 (1.7× faster at N = 16, 1.4× slower from N = 64) and loses
        beyond; its O(E d⁴) memory would also reach 4 GiB for a 16-edge chain
        at d = 64. Larger walkers keep ``(B, B†)``, the two (E, d, d) stacks.
        """
        arrivals: dict = {}
        for (i, j), b in self.jumps.items():
            arrivals.setdefault(j, []).append((i, asmatrix(b)))
        order = sorted(arrivals, key=lambda j: len(arrivals[j]), reverse=True)
        order += [j for j in range(self.n_nodes) if j not in arrivals]
        position = np.empty(self.n_nodes, dtype=np.intp)
        position[order] = np.arange(self.n_nodes)
        edges, ranks = [], []
        for r in range(max(map(len, arrivals.values()))):
            targets = [j for j in order if len(arrivals.get(j, ())) > r]
            ranks.append((len(edges), len(edges) + len(targets)))
            edges += [arrivals[j][r] for j in targets]
        jumps = np.array([b for _, b in edges], dtype=complex)
        sources = np.array([position[i] for i, _ in edges], dtype=np.intp)
        d = self.walker_dim
        if d <= SUPEROPERATOR_MAX_DIM:
            # S[:, (a, c), (k, l)] = B[:, a, k] conj(B[:, c, l]), written once
            sup = np.multiply(jumps[:, :, None, :, None], jumps.conj()[:, None, :, None, :])
            ops = (sup.reshape(len(edges), d * d, d * d),)
        else:
            ops = (jumps, jumps.conj().transpose(0, 2, 1))
        return position, sources, ops, tuple(ranks)


@dataclass(eq=False)
class DiagonalState:
    """Diagonal-form state: one unnormalized PSD block per node.

    ``blocks`` is one (n_nodes, d, d) complex array in node order, +0.0
    where a node holds no mass; an array passed in must be complex128 and
    is kept as it is. A state has at least one node.
    The public input form, a dict from node to block, is converted once:
    keys are nodes 0..n_nodes-1, blocks square of one size, absent nodes
    zero, and an empty dict leaves the walker dimension unknown. States
    compare by identity. Total trace should be 1 for a normalized state.
    """

    n_nodes: int
    blocks: np.ndarray = field(default_factory=dict)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        blocks = self.blocks
        if not isinstance(blocks, dict):
            if getattr(blocks, "dtype", None) != complex:
                raise ValueError(f"blocks must be a complex128 array, got "
                                 f"{getattr(blocks, 'dtype', type(blocks).__name__)}")
            shape = np.shape(blocks)
            if len(shape) != 3 or shape[0] != self.n_nodes or shape[1] != shape[2]:
                raise ValueError(f"blocks have shape {shape}, expected ({self.n_nodes}, d, d)")
            return
        first = None
        for i, b in blocks.items():
            if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n_nodes:
                raise ValueError(f"block key {i!r} is not a node in 0..{self.n_nodes - 1}")
            shape = np.shape(b)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"block {i} has shape {shape}, expected a square matrix")
            if first is None:
                first = (i, shape)
            elif shape != first[1]:
                raise ValueError(f"block {i} has shape {shape}, but block {first[0]} "
                                 f"has shape {first[1]}")
        d = first[1][0] if first else 0
        self.blocks = np.zeros((self.n_nodes, d, d), dtype=complex)
        self.blocks[list(blocks)] = list(blocks.values())

    def block(self, i: int) -> np.ndarray:
        self.walker_dim    # raises for an empty state, which has no blocks
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n_nodes:
            raise ValueError(f"node {i!r} is not in 0..{self.n_nodes - 1}")
        return self.blocks[i]

    @property
    def walker_dim(self) -> int:
        if not self.blocks.shape[1]:
            raise ValueError("state has no blocks, so its walker dimension is unknown")
        return self.blocks.shape[1]

    def total_trace(self) -> float:
        return float(sum(node_distribution(self)))    # added in node order

    def validate(self, tol: float = CONSTRUCTION_TOL) -> None:
        if abs(self.total_trace() - 1.0) > tol:
            raise ValueError(f"state trace {self.total_trace()} is not 1")
        b = self.blocks
        lows = np.linalg.eigvalsh((b + b.conj().transpose(0, 2, 1)) / 2).min(axis=1)
        bad = np.flatnonzero(lows < -tol)
        if bad.size:
            raise ValueError(f"block {bad[0]} is not PSD (min eigenvalue {lows[bad[0]]:.3e})")

    @staticmethod
    def pure(psi, node: int, n_nodes: int) -> "DiagonalState":
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        return DiagonalState(n_nodes, {node: np.outer(psi, psi.conj())})

    def to_dense(self, dims: tuple | None = None) -> np.ndarray:
        """Dense walker ⊗ node matrix, walker index most significant; ``dims``
        pads the (walker, node) registers, whose extra levels stay empty."""
        d, n = self.walker_dim, self.n_nodes
        dw, dn = dims or (d, n)
        if dw < d or dn < n:
            raise ValueError(f"state dims {(d, n)} do not fit register dims {(dw, dn)}")
        tensor = np.zeros((dw, dn, dw, dn), dtype=complex)
        np.einsum("aibi->iab", tensor)[:n, :d, :d] = self.blocks   # a view of the node diagonal
        return tensor.reshape(dw * dn, dw * dn)

    @staticmethod
    def from_dense(rho, n_nodes: int, walker_dim: int, dims: tuple | None = None,
                   trace: float | None = None) -> "DiagonalState":
        """The node-diagonal blocks of a dense walker ⊗ node matrix laid out as
        by ``to_dense``, copied into one (n, d, d) array.

        The check that a state is still in diagonal form: raises if a
        cross-node entry exceeds 1e-10 or, given the input state's
        ``trace``, if more than 1e-9 of it is missing (left in padded levels).
        """
        dw, dn = dims or (walker_dim, n_nodes)
        tensor = np.asarray(rho).reshape(dw, dn, dw, dn)
        magnitude = np.abs(tensor)
        np.einsum("aibi->aib", magnitude)[...] = 0.0    # a view of the node diagonal
        residue = magnitude.max()
        if residue > 1e-10:
            raise RuntimeError(f"node register left the diagonal form "
                               f"(off-diagonal residue {residue:.3e})")
        diagonal = np.diagonal(tensor, axis1=1, axis2=3).transpose(2, 0, 1)
        return DiagonalState.from_padded(diagonal, n_nodes, walker_dim, trace)

    @staticmethod
    def from_padded(blocks, n_nodes: int, walker_dim: int,
                    trace: float | None = None) -> "DiagonalState":
        """The leading ``n_nodes`` blocks, each cut to its leading
        ``walker_dim`` levels, of a padded (dn, dw, dw) block stack, copied.
        Given the input state's ``trace``, raises if more than 1e-9 of it is
        missing (left in padded levels)."""
        d = walker_dim
        out = DiagonalState(n_nodes, blocks[:n_nodes, :d, :d].astype(complex, order="C"))
        if trace is not None:
            leaked = abs(out.total_trace() - trace)
            if leaked > 1e-9:
                raise RuntimeError(f"probability leaked into padded sectors ({leaked:.3e})")
        return out


@dataclass(frozen=True, eq=False)
class LinearChainSpec:
    """Linear-chain computation model: N nodes, rightward bias omega, and
    unitaries U_0 .. U_{N-2} applied on the rightward jumps.

    The walker steps right with probability omega applying U_i, left with
    probability 1 - omega applying U_{i-1}†, and holds at the boundaries.
    """

    n_nodes: int
    omega: float
    unitaries: tuple

    def __init__(self, n_nodes: int, omega: float, unitaries):
        if n_nodes < 2:
            raise ValueError("a chain needs at least two nodes")
        if not 0.0 <= omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {omega}")
        us = tuple(asmatrix(u) for u in unitaries)
        if len(us) != n_nodes - 1:
            raise ValueError(f"need {n_nodes - 1} unitaries for {n_nodes} nodes, got {len(us)}")
        dim = us[0].shape[0]
        fits = next((k for k, u in enumerate(us) if u.shape != (dim, dim)), len(us))
        # one product for the matrices before the first misshapen one, and
        # the first fault in index order is the one reported
        if fits:
            unitary = unitary_deviation(np.array(us[:fits])) <= CONSTRUCTION_TOL
            if not unitary.all():
                raise ValueError(f"matrix {np.argmin(unitary)} is not unitary "
                                 f"within {CONSTRUCTION_TOL}")
        if fits < len(us):
            raise ValueError(f"unitary {fits} has shape {us[fits].shape}, expected {(dim, dim)}")
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "omega", float(omega))
        object.__setattr__(self, "unitaries", us)

    @property
    def lam(self) -> float:
        return 1.0 - self.omega

    @property
    def walker_dim(self) -> int:
        return self.unitaries[0].shape[0]


def validate(spec: OqwSpec, tol: float = CONSTRUCTION_TOL) -> list:
    """Check the completeness sum at every node.

    Returns a list of (node, deviation) pairs, empty iff
    max |sum_j B_i^j† B_i^j - I| <= tol at every node i.
    """
    d = spec.walker_dim
    acc = np.zeros((spec.n_nodes, d, d), dtype=complex)
    for (src, _), b in spec.jumps.items():
        acc[src] += dagger(b) @ asmatrix(b)
    devs = np.abs(acc - np.eye(d)).max(axis=(1, 2))
    return [(i, float(dev)) for i, dev in enumerate(devs) if dev > tol]


def step(spec: OqwSpec, state: DiagonalState) -> DiagonalState:
    """One walk step: rho'_j = sum_i B_i^j rho_i B_i^j†; ``evolve(spec, state, 1)``.

    Total trace is preserved (to roundoff) whenever the spec satisfies the
    completeness condition.
    """
    return evolve(spec, state, 1)


def evolve(spec: OqwSpec, state: DiagonalState, n: int) -> DiagonalState:
    """n walk steps; n = 0 returns the input unchanged.

    The blocks are scattered once into the compiled node order, and gathered
    back once at the end. Each step forms every edge's B rho B† in one
    batched product and adds the products into zeros rank by rank
    (``OqwSpec._compiled``), so each node's terms are summed in ``jumps``
    order. For d <= 4 the product is one matvec per edge, its superoperator
    times the (d², 1) row-major vector of rho: this agrees with B rho B† to
    roundoff (within 1e-14 on normalized states), not bit for bit. Larger
    walkers take ``B @ rho @ B†`` as two batched products. The result holds
    every node's block, +0.0 where nothing arrived.
    """
    if n < 0:
        raise ValueError("step count must be non-negative")
    if n == 0:
        return state
    if state.n_nodes != spec.n_nodes:
        raise ValueError(f"state has {state.n_nodes} nodes, spec has {spec.n_nodes}")
    d = state.walker_dim
    if d != spec.walker_dim:
        raise ValueError(f"state walker dim {d} != spec dim {spec.walker_dim}")
    if not spec.jumps:
        return DiagonalState(spec.n_nodes, np.zeros((spec.n_nodes, d, d), dtype=complex))
    position, sources, ops, ranks = spec._compiled
    x = np.empty((spec.n_nodes, d, d), dtype=complex)
    x[position] = state.blocks
    if len(ops) == 1:
        x = x.reshape(spec.n_nodes, d * d, 1)
    for _ in range(n):
        terms = ops[0] @ x.take(sources, axis=0)
        if len(ops) == 2:
            terms = terms @ ops[1]
        x = np.zeros(x.shape, dtype=complex)
        for start, stop in ranks:
            x[:stop - start] += terms[start:stop]
    return DiagonalState(spec.n_nodes, x.reshape(spec.n_nodes, d, d)[position])


def node_distribution(state: DiagonalState) -> list:
    """Per-node occupation probabilities Tr(rho_i), one entry per node."""
    return state.blocks.trace(axis1=1, axis2=2).real.tolist()


def chain_jumps(omega: float, unitaries) -> dict:
    """Edge map of the linear chain on len(unitaries) + 1 nodes.

    Edge rules: B_i^{i+1} = sqrt(omega) U_i, B_i^{i-1} = sqrt(lambda) U_{i-1}†,
    plus the two boundary self-loops sqrt(lambda) I at node 0 and
    sqrt(omega) I at node N-1. Unitarity is not checked here, so a tampered
    chain reaches ``validate`` and gets a completeness report.
    """
    right, left = np.sqrt(omega), np.sqrt(1.0 - omega)
    jumps = {(i, i + 1): right * u for i, u in enumerate(unitaries)}
    jumps.update({(i + 1, i): left * u.conj().T for i, u in enumerate(unitaries)})
    eye = np.eye(unitaries[0].shape[0], dtype=complex)
    last = len(unitaries)
    jumps[(0, 0)] = left * eye
    jumps[(last, last)] = right * eye
    return jumps


def chain_to_spec(chain: LinearChainSpec) -> OqwSpec:
    """Jump operators of the linear-chain model (``chain_jumps``); they
    satisfy the completeness condition because omega + lambda = 1."""
    return OqwSpec(chain.n_nodes, chain.walker_dim, chain_jumps(chain.omega, chain.unitaries))


# --- JSON wire format ------------------------------------------------------
#
# Matrices are encoded as {"re": [[...]], "im": [[...]]}. Python floats
# round-trip exactly through json, so parse(emit(x)) is the identity.

def _matrix_to_json(m) -> dict:
    m = asmatrix(m)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj) -> np.ndarray:
    return asmatrix(np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float))


def spec_to_json(spec: OqwSpec) -> str:
    jumps = [{"from": i, "to": j, **_matrix_to_json(b)}
             for (i, j), b in sorted(spec.jumps.items())]
    return json.dumps({"N": spec.n_nodes, "dH": spec.walker_dim, "jumps": jumps}, indent=1)


def _fields(obj, keys) -> list:
    """``obj[key]`` for each key; a ValueError names every missing one."""
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise ValueError(f"spec file is missing the keys {missing}")
    return [obj[k] for k in keys]


def spec_from_json(text: str) -> OqwSpec:
    n, dh, entries = _fields(json.loads(text), ("N", "dH", "jumps"))
    jumps = {}
    for entry in entries:
        i, j, _, _ = _fields(entry, ("from", "to", "re", "im"))
        jumps[(i, j)] = matrix_from_json(entry)
    return OqwSpec(n, dh, jumps)


def chain_to_json(chain: LinearChainSpec) -> str:
    return json.dumps({"N": chain.n_nodes, "omega": chain.omega,
                       "unitaries": [_matrix_to_json(u) for u in chain.unitaries]}, indent=1)


def chain_fields_from_json(text: str) -> tuple:
    """(N, omega, matrices) of a chain document, checked as far as the
    format goes: keys, omega in [0, 1] (a bool, which json gives for true,
    is no number), N - 1 re/im matrices, all square and of one size. Each
    fault is a ValueError naming it; unitarity and completeness are left to
    the caller."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file is not valid JSON: {exc}") from exc
    n, omega, unitaries = _fields(obj, ("N", "omega", "unitaries"))
    if type(omega) not in (int, float) or not 0 <= omega <= 1:
        raise ValueError(f"spec omega must be a number in [0, 1], got {omega!r}")
    try:
        mats = [matrix_from_json(u) for u in unitaries]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"spec unitaries must be a list of re/im matrices ({exc!r})") from exc
    if type(n) is not int or n < 2 or len(mats) != n - 1:
        raise ValueError(f"spec needs an integer N >= 2 and N - 1 unitaries, "
                         f"got N={n!r} and {len(mats)} unitaries")
    shapes = list(dict.fromkeys(m.shape for m in mats))
    if len(shapes) > 1 or shapes[0][0] != shapes[0][1]:
        raise ValueError(f"spec unitaries must be square matrices of one size, "
                         f"got shapes {shapes}")
    return n, omega, mats


def chain_from_json(text: str) -> LinearChainSpec:
    return LinearChainSpec(*chain_fields_from_json(text))
