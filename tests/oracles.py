"""Test oracles: routes the package once took and replaced.

The birth-death chain as a matrix, for ``analysis.iterate_master``: ``oqw
steady`` once built this N x N matrix and applied it by repeated
matrix-vector products. BLAS rounds those products differently from the
recursion, so assertions against this route carry a tolerance.

The gate-by-gate density simulator, for ``circuit.simulate_density``, which
now runs a compiled, fused op list. Each fused op does per pattern the
arithmetic this oracle does per gate. So the density of a walk, whose node
register stays diagonal, agrees bit for bit; on a state with coherence
between two patterns of a multiplexor the fused op may apply their ket and
bra sides in the other order, which rounds differently. The same per-gate
kernel on the identity gives a unitary circuit's matrix
(``circuit_matrix``), which the package no longer computes; the tests check
the shift ladders and walk blocks with it.

The birth-death recursion run step by step, for ``analysis.iterate_master``,
which skips whole periods once the state repeats bit for bit; it must agree
bit for bit, and so must the ``oqw steady`` and ``oqw profile`` CSV, here
formatted one numpy cell at a time. The channel limit checked after every
step, for ``channels.iterate_limit``, which steps and checks in windows; it
must give the same block, step count and errors.

The dilation step through the full space, for
``dilation.step_via_dilation``, which steps a locality dilation on its
block table instead, rho'_target = sum p_level_in U rho_source U†: here the
dense unitary (``matrix``, assembled from the table) on state ⊗ ancilla,
then the partial trace over the ancilla (``partial_trace``, a dense
reduction the package does not need). The two add the same terms in
another order, so they agree to roundoff, not bit for bit.

The Haar draw one matrix at a time, for ``matrixkit.haar_unitaries``, which
draws a stack and factors it in one QR call; matrix i must equal the i-th
one-at-a-time draw bit for bit.

The per-block loops of ``core.DiagonalState``, which once held a dict from
node to block and now holds one (N, d, d) array: its traces, dense matrix
and PSD check taken one block at a time. They do the same arithmetic per
block, so the array forms agree with them bit for bit.

And ``random_density``, the random density matrix the tests draw, which the
package does not need.
"""

import numpy as np

from oqwalk import analysis, channels, circuit, compiled, core
from oqwalk.matrixkit import asmatrix, trace_distance


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix: normalized G G† for complex Gaussian G."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def transition_matrix(p) -> np.ndarray:
    """Column-stochastic N x N transition matrix of the chain.

    Column i holds the outgoing probabilities of node i: omega down one row
    (right jump), lambda up one row (left jump), with lazy self-loops at
    both boundaries. Every column sums to exactly 1.
    """
    n = p.n_nodes
    t = np.zeros((n, n))
    for i in range(n):
        t[min(i + 1, n - 1), i] += p.omega
        t[max(i - 1, 0), i] += p.lam
    return t


def power_iterate(t: np.ndarray, dist, n_steps: int) -> np.ndarray:
    """Repeated application of a transition matrix to a distribution."""
    dist = np.asarray(dist, dtype=float)
    for _ in range(n_steps):
        dist = t @ dist
    return dist


def iterate_master(dist, p, n_steps: int) -> np.ndarray:
    """``analysis.iterate_master`` running every one of the n_steps."""
    x = np.array(dist, dtype=float)
    n, w, lam = p.n_nodes, p.omega, p.lam
    nodes = np.arange(n)
    src = np.concatenate(([0], nodes[:-1], nodes[1:], [n - 1]))
    coef = np.concatenate(([lam], np.full(n - 1, w), np.full(n - 1, lam), [w]))
    coef = coef.reshape((2 * n,) + (1,) * (x.ndim - 1))
    terms = np.empty((2 * n,) + x.shape[1:])
    first, second = terms[:n], terms[n:]
    for _ in range(n_steps):
        x.take(src, axis=0, out=terms, mode="clip")
        np.multiply(coef, terms, out=terms)
        np.add(first, second, out=x)
    return x


def _fmt(x) -> str:
    return repr(float(x))


def steady_csv(n: int, omega: float, steps: int) -> str:
    """``oqw steady --N n --omega omega --steps steps``, cell by cell."""
    params = analysis.ChainParams(n, omega)
    simulated = iterate_master(np.eye(n)[0], params, steps)
    closed = analysis.steady_state(params)
    lines = ["m,simulated,closed_form,abs_diff"]
    for m in range(n):
        lines.append(f"{m},{_fmt(simulated[m])},{_fmt(closed[m])},"
                     f"{_fmt(abs(simulated[m] - closed[m]))}")
    return "\n".join(lines) + "\n"


def profile_csv(n_nodes: int, omega: float, grid) -> str:
    """``oqw profile`` over the step counts in ``grid``, cell by cell."""
    params = analysis.ChainParams(n_nodes, omega)
    lines = ["n,m,P_master,P_gaussian"]
    for n in grid:
        dist = iterate_master(np.eye(n_nodes)[0], params, n)
        for m in range(n_nodes):
            lines.append(f"{n},{m},{_fmt(dist[m])},"
                         f"{_fmt(analysis.gaussian_profile(m, n, params))}")
    return "\n".join(lines) + "\n"


def iterate_limit(real, max_steps: int = 2000, tol: float = 1e-12) -> tuple:
    """``channels.iterate_limit`` stepping, post-selecting and comparing once
    per step."""
    state = core.evolve(real.spec, real.initial, 1)
    first = 1
    while first < max_steps and np.trace(state.block(real.target_node)).real <= 1e-14:
        state = core.step(real.spec, state)
        first += 1
    prev = channels.postselect(state, real.target_node)
    quiet, n, delta = 0, first, float("nan")
    for k in range(first + 1, max_steps + 1):
        state = core.step(real.spec, state)
        cur = channels.postselect(state, real.target_node)
        delta = trace_distance(cur, prev)
        if delta < tol:
            if quiet == 0:
                n = k - 1
            quiet += 1
            if quiet >= 3:
                return cur, n
        else:
            quiet = 0
        prev = cur
    raise RuntimeError(f"no convergence within {max_steps} steps "
                       f"(last delta {delta:.3e} vs tol {tol})")


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Reduced matrix over the kept tensor factors.

    ``dims`` lists the dimension of each factor (their product must equal
    the matrix dimension); ``keep`` is an iterable of factor indices to
    retain, in their original order. Trace is preserved.
    """
    rho = asmatrix(rho)
    dims = list(dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"dims {dims} do not match matrix shape {rho.shape}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    traced = [i for i in range(len(dims)) if i not in keep]
    tensor = rho.reshape(dims + dims)
    for i in reversed(traced):
        n = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=i, axis2=i + n)
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return tensor.reshape(kept_dim, kept_dim)


def step_via_dilation(dil, state, omega):
    """``dilation.step_via_dilation`` as U (rho ⊗ anc) U† and the partial
    trace over the ancilla."""
    d, n, k = dil.factor_dims
    weights = dil.ancilla_weights if dil.ancilla_weights is not None else (1.0 - omega, omega)
    anc = np.diag(np.array(weights, dtype=complex))
    evolved = dil.matrix @ np.kron(state.to_dense(), anc) @ dil.matrix.conj().T
    reduced = partial_trace(evolved, [d, n, k], keep=(0, 1))
    return core.DiagonalState.from_dense(reduced, n, d)


def haar_unitary(dim: int, rng) -> np.ndarray:
    """One Haar unitary: the QR of one complex Gaussian matrix, phases fixed."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# --- the per-block state loops ----------------------------------------------------

def block_traces(state) -> list:
    """Tr(rho_i) for each node, one ``np.trace`` per block."""
    return [float(np.trace(state.block(i)).real) for i in range(state.n_nodes)]


def total_trace(state) -> float:
    """The block traces added one by one in node order."""
    return float(sum(np.trace(b).real for b in state.blocks))


def to_dense(state, dims=None) -> np.ndarray:
    """``DiagonalState.to_dense`` written block by block."""
    d, n = state.walker_dim, state.n_nodes
    dw, dn = dims or (d, n)
    tensor = np.zeros((dw, dn, dw, dn), dtype=complex)
    for i in range(n):
        tensor[:d, i, :d, i] = state.block(i)
    return tensor.reshape(dw * dn, dw * dn)


def first_non_psd(state, tol: float):
    """(node, min eigenvalue) of the first block below -tol, or None."""
    for i in range(state.n_nodes):
        b = state.block(i)
        lo = np.linalg.eigvalsh((b + b.conj().T) / 2).min()
        if lo < -tol:
            return i, lo
    return None


# --- the per-gate density simulator ------------------------------------------------

def apply_local(t: np.ndarray, gate, axis: dict, conj: bool = False) -> None:
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
    base = compiled.ry_matrix(gate.angle) if gate.kind == "ry" else np.asarray(gate.matrix,
                                                                               dtype=complex)
    if conj:
        base = base.conj()
    k = len(tgt)
    out = np.tensordot(base.reshape((2,) * (2 * k)), view, axes=(range(k, 2 * k), tgt))
    t[idx] = np.moveaxis(out, range(k), tgt)


class DensitySim:
    """Density-matrix state over a live subset of the circuit qubits, one
    gate at a time: the simulator ``circuit.simulate_density`` ran before it
    compiled a circuit into fused ops.

    The state is a ``(2,) * 2nq`` tensor, ket axes first and bra axes after,
    both in ``live`` order; every gate acts on its own axes only, through
    ``apply_local``. Ancillas attach as |0><0| when first touched.
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

    def apply(self, gate):
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
            apply_local(self.rho, gate, ket)
            apply_local(self.rho, gate, {q: i + nq for q, i in ket.items()}, conj=True)

    def trace_out(self, q: int):
        pos = self.live.index(q)
        self.rho = np.trace(self.rho, axis1=pos, axis2=pos + len(self.live))
        self.live.pop(pos)


def simulate_density(circ, initial, omega=None):
    """``circuit.simulate_density`` gate by gate, validating and scheduling
    the ancilla trace-outs on every call."""
    circ.validate()
    qh, qg = circ.registers["qH"], circ.registers["qG"]
    h, g = len(qh), len(qg)
    main = list(qh) + list(qg)
    if main != list(range(h + g)):
        raise ValueError("walker and node registers must occupy the leading qubits")
    if omega is not None:
        want = circuit.rotation_angle(omega)
        for gate in circ.gates:
            if gate.kind == "ry" and abs(gate.angle - want) > 1e-12:
                raise ValueError(f"RY angle {gate.angle} does not prepare omega={omega}")
    dims = (2 ** h, 2 ** g)
    sim = DensitySim(initial.to_dense(dims), main)

    last_use = {}
    for pos, gate in enumerate(circ.gates):
        for q in gate.qubits:
            last_use[q] = pos
    for pos, gate in enumerate(circ.gates):
        sim.apply(gate)
        for q in [q for q in sim.live if q not in main and last_use.get(q, -1) <= pos]:
            sim.trace_out(q)
    for q in [q for q in sim.live if q not in main]:
        sim.trace_out(q)

    return core.DiagonalState.from_dense(sim.dense(), initial.n_nodes, initial.walker_dim,
                                         dims, trace=initial.total_trace())


def circuit_matrix(circ) -> np.ndarray:
    """The total unitary of a measurement-free circuit on its declared
    qubits, gate by gate on the identity."""
    nq = circ.n_qubits
    qubit_pos = {q: i for i, q in enumerate(sorted(circ.all_qubits()))}
    total = np.eye(2 ** nq, dtype=complex).reshape((2,) * nq + (2 ** nq,))
    for gate in circ.gates:
        if gate.kind in ("measure_nonsel", "reset"):
            raise ValueError("circuit_matrix requires a unitary circuit")
        apply_local(total, gate, qubit_pos)
    return total.reshape(2 ** nq, 2 ** nq)
