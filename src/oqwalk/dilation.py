"""Unitary dilations of the walk dynamics and their resource accounting.

Three constructions: the single stacked-Kraus unitary, the per-Kraus
two-block unitary, and the locality-based unitary whose ancilla is only as
large as the node out-degree. The locality construction generalizes to any
walk with a fixed number k of scaled-unitary jumps per node and matching
weight multisets.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import core
from .matrixkit import asmatrix, complete_isometry, is_unitary, psd_sqrt, unitary_deviation

UNITARY_TOL = 1e-10

# Largest dense locality dilation d·N·k: the largest power of two at which
# `oqw verify --steps 1` stays within what 1024 cost when it became the cap,
# 4.3 s and 0.47 GB peak RSS (2 vCPUs, one BLAS thread; 2048 then took 7–18 s
# and 0.5–1.7 GB). With the circuit on its classical node index and the
# Kraus-stack step, 2048 takes 1.9–2.8 s and 0.42 GB for d = 2, 3, 4 (1024:
# 0.4–0.7 s, 0.13 GB). At 4096 the unitary and its Kraus stack alone would
# hold 0.8 GB.
MAX_DENSE_DIM = 2048


@dataclass
class DilationUnitary:
    """A dilation: the unitary matrix, its tensor-factor layout, and kind.

    ``factor_dims`` orders the subsystems; for the locality kinds it is
    (walker, node, ancilla). ``ancilla_weights`` holds the mixed ancilla
    preparation for the generalized construction. The matrix is checked to
    be unitary by the dense product u†u, unless ``unitary_checked`` says its
    builder has already checked it block by block (``_locality_unitary``).
    ``step_via_dilation`` keeps the Kraus stack of its last ancilla weights
    here, so the matrix must not change after the first step.
    """

    matrix: np.ndarray
    factor_dims: tuple
    kind: str
    ancilla_weights: tuple | None = None
    unitary_checked: InitVar[bool] = False
    _kraus: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    unitary = unitary_deviation([op for *_, op in entries]) <= UNITARY_TOL
    if not unitary.all():
        source, target, level_in, level_out, _ = entries[int(np.argmin(unitary))]
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


def _kraus_stack(dil: DilationUnitary, weights: tuple) -> tuple:
    """The reduced step's Kraus operators W_ab = sqrt(p_a) V_ab, where V_ab
    is the dN x dN block of the dilation from ancilla level a to level b and
    p_a > 0 the ancilla weight of level a: as one (dN, K dN) row of them
    and as the (K, dN, dN) stack of their adjoints. Made once per weights
    and kept on ``dil``."""
    cached = dil._kraus
    if cached is not None and cached[0] == weights:
        return cached[1:]
    d, n, k = dil.factor_dims
    dim = d * n
    p = np.array(weights, dtype=float)
    levels = np.flatnonzero(p > 0.0)
    # blocks[a, b] = V_ab: the rows with ancilla b of the columns with ancilla a
    blocks = dil.matrix.reshape(dim, k, dim, k).transpose(3, 1, 0, 2)[levels]
    stack = (blocks * np.sqrt(p[levels])[:, None, None, None]).reshape(-1, dim, dim)
    row = np.ascontiguousarray(stack.transpose(1, 0, 2)).reshape(dim, -1)
    adjoints = np.ascontiguousarray(stack.conj().transpose(0, 2, 1))
    dil._kraus = (weights, row, adjoints)
    return row, adjoints


def step_via_dilation(dil: DilationUnitary, state: core.DiagonalState,
                      omega: float) -> core.DiagonalState:
    """One walk step through the dilation: with the ancilla prepared in a
    mixture of levels a with weights p_a, applying the unitary and tracing
    the ancilla is the map rho -> sum_ab W_ab rho W_ab†, W_ab = sqrt(p_a) V_ab
    (``_kraus_stack``); then the diagonal blocks are re-extracted.

    The ancilla is prepared as diag(1-omega, omega) for the plain locality
    dilation and as the canonical weight mixture for the generalized one.
    The step stays dense and independent of ``core.evolve``, because this
    route is an oracle for it. Off-diagonal residue on the node register flags an
    internal inconsistency (``DiagonalState.from_dense`` raises).
    """
    if dil.kind not in ("local", "generalized"):
        raise ValueError(f"stepping requires a locality dilation, got {dil.kind!r}")
    d, n, k = dil.factor_dims
    if state.n_nodes != n or state.walker_dim != d:
        raise ValueError("state dimensions do not match the dilation")
    weights = dil.ancilla_weights if dil.ancilla_weights is not None else (1.0 - omega, omega)
    row, adjoints = _kraus_stack(dil, tuple(weights))
    # one product per operator, rho W†, stacked; then sum_ab W_ab (rho W_ab†) as one product
    evolved = row @ np.matmul(state.to_dense(), adjoints).reshape(-1, d * n)
    return core.DiagonalState.from_dense(evolved, n, d)


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
