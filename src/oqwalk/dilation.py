"""Unitary dilations of the walk dynamics and their resource accounting.

Three constructions: the single stacked-Kraus unitary, the per-Kraus
two-block unitary, and the locality-based unitary whose ancilla is only as
large as the node out-degree. The locality construction generalizes to any
walk with a fixed number k of scaled-unitary jumps per node and matching
weight multisets.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import core
from .matrixkit import asmatrix, complete_isometry, is_unitary, partial_trace, psd_sqrt

UNITARY_TOL = 1e-10

# Largest dense locality dilation d·N·k. On 2 vCPUs with one BLAS thread,
# `oqw verify --steps 1` at 1024 took 1.2–4.3 s and 0.17–0.47 GB peak RSS;
# at 2048 it took 7–18 s and 0.5–1.7 GB.
MAX_DENSE_DIM = 1024


@dataclass
class DilationUnitary:
    """A dilation: the unitary matrix, its tensor-factor layout, and kind.

    ``factor_dims`` orders the subsystems; for the locality kinds it is
    (walker, node, ancilla). ``ancilla_weights`` holds the mixed ancilla
    preparation for the generalized construction. The matrix is checked to
    be unitary by the dense product u†u, unless ``unitary_checked`` says its
    builder has already checked it block by block (``_locality_unitary``).
    """

    matrix: np.ndarray
    factor_dims: tuple
    kind: str
    ancilla_weights: tuple | None = None
    unitary_checked: InitVar[bool] = False

    def __post_init__(self, unitary_checked):
        dim = int(np.prod(self.factor_dims))
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match "
                             f"factor dims {self.factor_dims}")
        if not unitary_checked and not is_unitary(self.matrix, UNITARY_TOL):
            raise ValueError("dilation matrix is not unitary")


@dataclass(frozen=True)
class ResourceReport:
    """Dimension and gate-cost accounting for one simulation method."""

    method: str
    walker_dim: int
    graph_size: int
    steps: int
    dim_per_step: int
    dim_total: int
    cnot_estimate: int
    depth_estimate: int

    def csv_row(self) -> str:
        return (f"{self.method},{self.walker_dim},{self.graph_size},{self.steps},"
                f"{self.dim_total},{self.cnot_estimate},{self.depth_estimate}")


def stinespring_unitary(kraus) -> DilationUnitary:
    """Single unitary whose first block column stacks the Kraus operators.

    Acting on |0>⊗|psi> it produces sum_i |i>⊗K_i|psi>; the unspecified
    columns are filled by deterministic orthonormal completion.
    """
    ks = [asmatrix(k) for k in kraus]
    if not ks:
        raise ValueError("need at least one Kraus operator")
    d = ks[0].shape[1]
    acc = sum(k.conj().T @ k for k in ks)
    dev = np.abs(acc - np.eye(d)).max()
    if dev > UNITARY_TOL:
        raise ValueError(f"Kraus completeness violated: max |sum K†K - I| = {dev:.3e}")
    column = np.vstack(ks)
    u = complete_isometry(column)
    return DilationUnitary(u, (len(ks), d), "stinespring")


def sznagy_unitary(k) -> DilationUnitary:
    """Two-block dilation [[K, sqrt(I-KK†)], [sqrt(I-K†K), -K†]] of a
    single contraction K (operator norm at most 1)."""
    k = asmatrix(k)
    d = k.shape[0]
    if k.shape != (d, d):
        raise ValueError("contraction must be square")
    top = np.linalg.norm(k, 2)
    if top > 1.0 + 1e-10:
        raise ValueError(f"operator norm {top} exceeds 1")
    eye = np.eye(d)
    u = np.block([
        [k, psd_sqrt(eye - k @ k.conj().T)],
        [psd_sqrt(eye - k.conj().T @ k), -k.conj().T],
    ])
    return DilationUnitary(u, (2, d), "sznagy")


def _locality_unitary(factor_dims, entries, kind: str,
                      ancilla_weights: tuple | None = None) -> DilationUnitary:
    """Dense locality dilation on walker ⊗ node ⊗ ancilla, written block by
    block: entry (source, target, level_in, level_out, U) maps |source,
    level_in> to |target, level_out> applying U.

    Unitarity is checked on the blocks instead of by the dense product: the
    entries must map the (node, level) pairs one to one onto themselves,
    and each U must be unitary to ``UNITARY_TOL``. Then u†u is block
    diagonal with blocks U†U, so this is the dense check.
    """
    _, n, k = factor_dims
    dim = int(np.prod(factor_dims))
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"dilation dimension {dim} exceeds the dense cap {MAX_DENSE_DIM}")
    pairs = {(node, level) for node in range(n) for level in range(k)}
    sources = {(source, level_in) for source, _, level_in, _, _ in entries}
    targets = {(target, level_out) for _, target, _, level_out, _ in entries}
    if len(entries) != len(pairs) or sources != pairs or targets != pairs:
        raise ValueError("dilation matrix is not unitary: its blocks do not map the "
                         "(node, level) pairs one to one")
    ops = np.array([op for *_, op in entries], dtype=complex)
    gram = ops.conj().swapaxes(1, 2) @ ops - np.eye(ops.shape[-1])
    deviation = np.abs(gram).reshape(len(ops), -1).max(axis=1)
    if deviation.max() > UNITARY_TOL:
        source, target, level_in, level_out, _ = entries[int(np.argmax(deviation > UNITARY_TOL))]
        raise ValueError(f"dilation matrix is not unitary: block ({source}, {level_in}) "
                         f"-> ({target}, {level_out}) is not")
    u = np.zeros((dim, dim), dtype=complex)
    blocks = u.reshape(factor_dims * 2)
    for source, target, level_in, level_out, op in entries:
        blocks[:, target, level_out, :, source, level_in] = op
    return DilationUnitary(u, factor_dims, kind, ancilla_weights, unitary_checked=True)


def build_u_loc(chain: core.LinearChainSpec) -> DilationUnitary:
    """Locality dilation on walker ⊗ node ⊗ ancilla-qubit.

    Ancilla |1> drives a right move applying U_i, |0> a left move applying
    U_{i-1}†; the boundary cases hold the position and flip the ancilla,
    which is what makes the whole map unitary.
    """
    n, d = chain.n_nodes, chain.walker_dim
    eye_d = np.eye(d, dtype=complex)
    entries = [(i, i + 1, 1, 1, chain.unitaries[i]) for i in range(n - 1)]
    entries += [(i, i - 1, 0, 0, chain.unitaries[i - 1].conj().T) for i in range(1, n)]
    entries += [(n - 1, n - 1, 1, 0, eye_d), (0, 0, 0, 1, eye_d)]
    return _locality_unitary((d, n, 2), entries, "local")


def _scaled_unitary_decomposition(b, tol=UNITARY_TOL):
    """Split B = sqrt(w) U into (w, U); returns None if B is not a scaled
    unitary."""
    b = asmatrix(b)
    d = b.shape[0]
    w = float(np.trace(b.conj().T @ b).real) / d
    if w <= tol:
        return None
    if np.abs(b.conj().T @ b - w * np.eye(d)).max() > tol * max(1.0, w):
        return None
    return w, b / np.sqrt(w)


def build_generalized(spec: core.OqwSpec, k: int) -> DilationUnitary:
    """Locality dilation with a k-level ancilla for k jumps per node.

    Requirements checked: every node has exactly k nonzero jumps, each a
    scaled unitary sqrt(w) U, and all nodes share the same weight multiset
    (so one ancilla preparation serves every node). Ancilla level l selects
    the jump whose weight is the l-th entry of the weight list sorted
    descending (ties broken by target node); on arrival the level is
    relabeled per node, first-free-slot cyclically, which keeps the map
    unitary at the boundaries and under degenerate weights.
    """
    n, d = spec.n_nodes, spec.walker_dim
    per_node = {i: [] for i in range(n)}
    for (i, j), b in spec.jumps.items():
        if np.abs(b).max() == 0.0:
            continue
        dec = _scaled_unitary_decomposition(b)
        if dec is None:
            raise ValueError(f"condition 2 violated: jump ({i},{j}) is not a scaled unitary")
        per_node[i].append((dec[0], j, dec[1]))
    canonical = None
    for i in range(n):
        if len(per_node[i]) != k:
            raise ValueError(f"condition 1 violated: node {i} has {len(per_node[i])} "
                             f"jumps, expected {k}")
        per_node[i].sort(key=lambda t: (-t[0], t[1]))
        weights = np.array([t[0] for t in per_node[i]])
        if canonical is None:
            canonical = weights
            if abs(weights.sum() - 1.0) > UNITARY_TOL:
                raise ValueError(f"node {i} weights sum to {weights.sum()}, expected 1")
        elif np.abs(weights - canonical).max() > UNITARY_TOL:
            raise ValueError(f"condition 3 violated: node {i} weight multiset "
                             f"{weights} differs from node 0's {canonical}")
    in_degree = [sum(1 for i in range(n) for (_, j, _) in per_node[i] if j == node)
                 for node in range(n)]
    if any(deg != k for deg in in_degree):
        raise ValueError(f"condition 1 violated: in-degrees {in_degree} are not all {k}")

    # Arrival relabeling: per target node, walk the incoming edges in
    # (level, source) order and give each the first free level at or
    # cyclically after its own.
    taken = {j: set() for j in range(n)}
    out_level = {}
    incoming = sorted((lvl, i, j) for i in range(n)
                      for lvl, (_, j, _) in enumerate(per_node[i]))
    for lvl, i, j in incoming:
        slot = lvl
        while slot in taken[j]:
            slot = (slot + 1) % k
        taken[j].add(slot)
        out_level[(i, lvl)] = slot

    return _locality_unitary((d, n, k), [(i, j, lvl, out_level[(i, lvl)], uij)
                                         for i in range(n)
                                         for lvl, (_, j, uij) in enumerate(per_node[i])],
                             "generalized", tuple(canonical.tolist()))


def step_via_dilation(dil: DilationUnitary, state: core.DiagonalState,
                      omega: float) -> core.DiagonalState:
    """One walk step through the dilation: adjoin the mixed ancilla, apply
    the unitary, trace the ancilla, re-extract the diagonal blocks.

    The ancilla is prepared as diag(1-omega, omega) for the plain locality
    dilation and as the canonical weight mixture for the generalized one.
    Off-diagonal residue on the node register after tracing flags an
    internal inconsistency (``DiagonalState.from_dense`` raises).
    """
    if dil.kind not in ("local", "generalized"):
        raise ValueError(f"stepping requires a locality dilation, got {dil.kind!r}")
    d, n, k = dil.factor_dims
    if state.n_nodes != n or state.walker_dim != d:
        raise ValueError("state dimensions do not match the dilation")
    if dil.ancilla_weights is not None:
        anc = np.diag(np.array(dil.ancilla_weights, dtype=complex))
    else:
        anc = np.diag(np.array([1.0 - omega, omega], dtype=complex))
    evolved = dil.matrix @ np.kron(state.to_dense(), anc) @ dil.matrix.conj().T
    reduced = partial_trace(evolved, [d, n, k], keep=(0, 1))
    return core.DiagonalState.from_dense(reduced, n, d)


_METHODS = ("stinespring", "sznagy", "local")


def resource_report(method: str, walker_dim: int, graph_size: int, steps: int) -> ResourceReport:
    """Dimension and asymptotic gate-cost accounting, unit constants.

    Per step: the stacked-Kraus unitary needs m*d with m = 2|G| Kraus
    operators on d = dH*|G|; the per-Kraus method needs m separate 2d
    dilations (counted as duplicated ancillas, m*2d); the locality method
    needs 4*dH*|G| (walker, node, and the two ancilla qubits). Totals are
    per-step values times the step count. CNOT estimates follow the
    asymptotic formulas dH^2 |G|^3 (stacked-Kraus and per-Kraus) and
    dH^2 |G|^2 (locality); depth is proportional to the CNOT count except
    for the per-Kraus method, whose dilations run in parallel.
    """
    dh, g, n = walker_dim, graph_size, steps
    m, d = 2 * g, dh * g
    if method == "stinespring":
        per_step = m * d
        cnot = dh ** 2 * g ** 3
        depth = cnot
    elif method == "sznagy":
        per_step = m * 2 * d
        cnot = dh ** 2 * g ** 3
        depth = dh ** 2 * g ** 2
    elif method == "local":
        per_step = 4 * dh * g
        cnot = dh ** 2 * g ** 2
        depth = cnot
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {_METHODS}")
    return ResourceReport(method, dh, g, n, per_step, n * per_step, n * cnot, n * depth)
