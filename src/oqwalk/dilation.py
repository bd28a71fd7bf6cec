"""Unitary dilations of the walk dynamics and their resource accounting.

Three constructions: the single stacked-Kraus unitary, the per-Kraus
two-block unitary, and the locality-based unitary whose ancilla is only as
large as the node out-degree. The locality construction generalizes to any
walk with a fixed number k of scaled-unitary jumps per node and matching
weight multisets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .matrixkit import asmatrix, complete_isometry, is_unitary, psd_sqrt, unitary_deviation

UNITARY_TOL = 1e-10

# Largest locality dilation d·N·k whose dense view ``LocalityDilation.matrix``
# assembles: 64 MiB of complex entries at 2048. Stepping never reads the
# view, so the cap bounds only the tests and oracles that do.
MAX_DENSE_DIM = 2048


@dataclass(eq=False)
class DilationUnitary:
    """A dense dilation: the unitary matrix, its tensor-factor layout, and kind.

    ``factor_dims`` orders the subsystems; for a locality kind it is
    (walker, node, ancilla), and ``ancilla_weights`` is its mixed ancilla
    preparation, if any. The matrix is checked to be unitary by the dense
    product u†u.
    """

    matrix: np.ndarray
    factor_dims: tuple
    kind: str
    ancilla_weights: tuple | None = None

    def __post_init__(self):
        dim = int(np.prod(self.factor_dims))
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match "
                             f"factor dims {self.factor_dims}")
        if not is_unitary(self.matrix, UNITARY_TOL):
            raise ValueError("dilation matrix is not unitary")


@dataclass(frozen=True, eq=False)
class LocalityDilation:
    """A locality dilation on walker ⊗ node ⊗ ancilla, held as its block table.

    ``factor_dims`` is (d, N, k). Row t of the table is the one block that
    lands on (target, level out) = divmod(t, k): it maps |sources[t],
    levels_in[t]> there, applying the d x d unitary ``ops[t]``. The
    ancilla is prepared as ``ancilla_weights`` (the generalized kind) or
    as diag(1-omega, omega) (the plain one). ``matrix`` assembles the dense
    unitary anew on every read.
    """

    factor_dims: tuple
    kind: str
    ancilla_weights: tuple | None
    sources: np.ndarray
    levels_in: np.ndarray
    ops: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        d, n, k = self.factor_dims
        dim = d * n * k
        if dim > MAX_DENSE_DIM:
            raise ValueError(f"dilation dimension {dim} exceeds the dense cap {MAX_DENSE_DIM}")
        u = np.zeros((d, n * k, d, n * k), dtype=complex)
        u[:, np.arange(n * k), :, self.sources * k + self.levels_in] = self.ops
        return u.reshape(dim, dim)


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
                      ancilla_weights: tuple | None = None) -> LocalityDilation:
    """Locality dilation on walker ⊗ node ⊗ ancilla from its blocks: entry
    (source, target, level_in, level_out, U) maps |source, level_in> to
    |target, level_out> applying U.

    The entries must map the (node, level) pairs one to one onto
    themselves, and each U must be unitary to ``UNITARY_TOL``. Then u†u is
    block diagonal with blocks U†U, so the dilation is unitary.
    """
    _, n, k = factor_dims
    pairs = {(node, level) for node in range(n) for level in range(k)}
    sources = {(source, level_in) for source, _, level_in, _, _ in entries}
    targets = {(target, level_out) for _, target, _, level_out, _ in entries}
    if len(entries) != len(pairs) or sources != pairs or targets != pairs:
        raise ValueError("dilation matrix is not unitary: its blocks do not map the "
                         "(node, level) pairs one to one")
    entries = sorted(entries, key=lambda e: (e[1], e[3]))
    ops = np.array([op for *_, op in entries], dtype=complex)
    unitary = unitary_deviation(ops) <= UNITARY_TOL
    if not unitary.all():
        source, target, level_in, level_out, _ = entries[int(np.argmin(unitary))]
        raise ValueError(f"dilation matrix is not unitary: block ({source}, {level_in}) "
                         f"-> ({target}, {level_out}) is not")
    return LocalityDilation(factor_dims, kind, ancilla_weights,
                            np.array([e[0] for e in entries]),
                            np.array([e[2] for e in entries]), ops)


def build_u_loc(chain: core.LinearChainSpec) -> LocalityDilation:
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


def build_generalized(spec: core.OqwSpec, k: int) -> LocalityDilation:
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


def step_via_dilation(dil: LocalityDilation | DilationUnitary, state: core.DiagonalState,
                      omega: float) -> core.DiagonalState:
    """One walk step through a locality dilation, with the ancilla prepared
    in a mixture of levels a with weights p_a, then traced out.

    On the block table this is rho'_target = sum p_level_in U rho_source U†
    over the blocks landing on the target, one batched product and one
    sum, O(N k d³). A matrix given directly (``DilationUnitary``) may move
    a node into a superposition of nodes, which only the full space shows:
    it steps through its Kraus operators sqrt(p_a) V_ab, the dN x dN blocks
    from level a to level b, into the shared diagonal-form check
    (``DiagonalState.from_dense`` raises). The route reads the dilation's
    own labelling, never ``core``'s jumps, because it is an oracle for
    ``core.evolve``.
    """
    if dil.kind not in ("local", "generalized"):
        raise ValueError(f"stepping requires a locality dilation, got {dil.kind!r}")
    d, n, k = dil.factor_dims
    if state.n_nodes != n or state.walker_dim != d:
        raise ValueError("state dimensions do not match the dilation")
    p = np.array(dil.ancilla_weights if dil.ancilla_weights is not None else (1.0 - omega, omega))
    if isinstance(dil, DilationUnitary):
        # kraus[b, a] = sqrt(p_a) V_ab: the rows with ancilla b of the columns with ancilla a
        kraus = dil.matrix.reshape(d * n, k, d * n, k).transpose(1, 3, 0, 2)
        kraus = kraus * np.sqrt(p)[:, None, None]
        evolved = (kraus @ state.to_dense() @ kraus.conj().swapaxes(2, 3)).sum((0, 1))
        return core.DiagonalState.from_dense(evolved, n, d)
    ops = dil.ops
    out = ops @ state.blocks[dil.sources] @ ops.conj().swapaxes(1, 2) * p[dil.levels_in, None, None]
    return core.DiagonalState(n, out.reshape(n, k, d, d).sum(1))


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
