import numpy as np
import pytest

from oqwalk import circuit, core
from oqwalk.analysis import fit_loglog_slope
from oqwalk.circuit import Circuit, Gate
from oqwalk.matrixkit import (
    Z,
    haar_unitary,
    is_unitary,
    projector,
    random_density,
    random_pure_state,
    trace_distance,
)


def random_chain(n, omega, rng, dim=2):
    return core.LinearChainSpec(n, omega, [haar_unitary(dim, rng) for _ in range(n - 1)])


def random_diagonal_state(n, dim, rng):
    weights = rng.dirichlet(np.ones(n))
    return core.DiagonalState(n, {i: weights[i] * random_density(dim, rng)
                                  for i in range(n)})


def basis_vector(dim, idx):
    v = np.zeros(dim, dtype=complex)
    v[idx] = 1.0
    return v


def walker_node_ancilla(psi, node, n_dim, *ancillas):
    vec = np.kron(psi, basis_vector(n_dim, node))
    for a in ancillas:
        vec = np.kron(vec, basis_vector(2, a))
    return vec


# --- shift ladders -----------------------------------------------------------

@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_increment_truth_table(g):
    m = circuit.circuit_matrix(circuit.build_increment(g))
    size = 2 ** g
    expected = np.zeros((size, size))
    for i in range(size):
        expected[(i + 1) % size, i] = 1.0
    assert np.array_equal(m.real, expected)
    assert np.abs(m.imag).max() == 0.0


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_decrement_truth_table(g):
    m = circuit.circuit_matrix(circuit.build_decrement(g))
    size = 2 ** g
    expected = np.zeros((size, size))
    for i in range(size):
        expected[(i - 1) % size, i] = 1.0
    assert np.array_equal(m.real, expected)


def test_shift_ladders_are_inverse_pair():
    for g in (1, 2, 3, 4):
        s = circuit.circuit_matrix(circuit.build_increment(g))
        p = circuit.circuit_matrix(circuit.build_decrement(g))
        assert np.allclose(s @ p, np.eye(2 ** g), atol=1e-14)
        assert np.allclose(p, s.conj().T, atol=1e-14)
        cyc = np.linalg.matrix_power(p, 2 ** g)
        assert np.allclose(cyc, np.eye(2 ** g), atol=1e-12)


def test_increment_g2_sequence():
    qb = circuit.build_increment(2).gates
    assert [gate.kind for gate in qb] == ["x", "x"]
    assert qb[0].targets == (0,) and qb[0].controls == ((1, 1),)
    assert qb[1].targets == (1,) and qb[1].controls == ()


# --- conditional blocks --------------------------------------------------------

def test_right_block_matches_figure_layout():
    rng = np.random.default_rng(0)
    chain = random_chain(4, 0.7, rng)
    gates = circuit.build_right(chain).gates
    # three conditional unitaries on node patterns 00, 01, 10, then the
    # increment ladder, everything carrying a filled control on the ancilla
    qg, qa = (1, 2), 3
    assert [g.kind for g in gates[:3]] == ["u", "u", "u"]
    assert [g.label for g in gates[:3]] == ["U0", "U1", "U2"]
    assert gates[0].controls == ((qg[0], 0), (qg[1], 0), (qa, 1))
    assert gates[1].controls == ((qg[0], 0), (qg[1], 1), (qa, 1))
    assert gates[2].controls == ((qg[0], 1), (qg[1], 0), (qa, 1))
    assert gates[3].controls == ((qg[1], 1), (qa, 1)) and gates[3].targets == (qg[0],)
    assert gates[4].controls == ((qa, 1),) and gates[4].targets == (qg[1],)


def test_right_block_action():
    rng = np.random.default_rng(1)
    chain = random_chain(4, 0.7, rng)
    m = circuit.circuit_matrix(circuit.build_right(chain))
    psi = random_pure_state(2, rng)
    for j in range(3):
        got = m @ walker_node_ancilla(psi, j, 4, 1)
        want = walker_node_ancilla(chain.unitaries[j] @ psi, j + 1, 4, 1)
        np.testing.assert_allclose(got, want, atol=1e-12)
    # open ancilla: identity
    vec = walker_node_ancilla(psi, 2, 4, 0)
    np.testing.assert_allclose(m @ vec, vec, atol=1e-12)


def test_left_block_action():
    rng = np.random.default_rng(2)
    chain = random_chain(4, 0.7, rng)
    m = circuit.circuit_matrix(circuit.build_left(chain))
    psi = random_pure_state(2, rng)
    for j in range(1, 4):
        got = m @ walker_node_ancilla(psi, j, 4, 0)
        want = walker_node_ancilla(chain.unitaries[j - 1].conj().T @ psi, j - 1, 4, 0)
        np.testing.assert_allclose(got, want, atol=1e-12)
    vec = walker_node_ancilla(psi, 2, 4, 1)
    np.testing.assert_allclose(m @ vec, vec, atol=1e-12)


def test_left_undoes_right_on_interior():
    rng = np.random.default_rng(3)
    chain = random_chain(4, 0.7, rng)
    right = circuit.circuit_matrix(circuit.build_right(chain))
    left = circuit.circuit_matrix(circuit.build_left(chain))
    psi = random_pure_state(2, rng)
    moved = right @ walker_node_ancilla(psi, 1, 4, 1)
    # moved = U1 psi at node 2 with ancilla 1; toggle the ancilla and go back
    back_in = moved.reshape(8, 2)[:, 1]  # strip ancilla |1>
    got = left @ np.kron(back_in, basis_vector(2, 0))
    np.testing.assert_allclose(got, walker_node_ancilla(psi, 1, 4, 0), atol=1e-12)


def test_right_boundary_holds_last_node():
    rng = np.random.default_rng(4)
    chain = random_chain(4, 0.7, rng)
    m = circuit.circuit_matrix(circuit.build_right_boundary(chain))
    psi = random_pure_state(2, rng)
    got = m @ walker_node_ancilla(psi, 3, 4, 1, 0)
    want = walker_node_ancilla(psi, 3, 4, 1, 0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_right_boundary_interior_arrival_flips_flag():
    # jumping 2 -> 3 satisfies the boundary detector after the move, so the
    # flag comes out flipped; the step stays correct because the flag is
    # traced before anything else reads it
    rng = np.random.default_rng(5)
    chain = random_chain(4, 0.7, rng)
    m = circuit.circuit_matrix(circuit.build_right_boundary(chain))
    psi = random_pure_state(2, rng)
    got = m @ walker_node_ancilla(psi, 2, 4, 1, 0)
    want = walker_node_ancilla(chain.unitaries[2] @ psi, 3, 4, 1, 1)
    np.testing.assert_allclose(got, want, atol=1e-12)
    # non-boundary move keeps the flag clean
    got = m @ walker_node_ancilla(psi, 0, 4, 1, 0)
    want = walker_node_ancilla(chain.unitaries[0] @ psi, 1, 4, 1, 0)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_right_boundary_open_ancilla_identity():
    rng = np.random.default_rng(6)
    chain = random_chain(4, 0.7, rng)
    m = circuit.circuit_matrix(circuit.build_right_boundary(chain))
    psi = random_pure_state(2, rng)
    for j in range(4):
        vec = walker_node_ancilla(psi, j, 4, 0, 0)
        np.testing.assert_allclose(m @ vec, vec, atol=1e-12)


def test_left_boundary_holds_node_zero():
    rng = np.random.default_rng(7)
    chain = random_chain(4, 0.7, rng)
    m = circuit.circuit_matrix(circuit.build_left_boundary(chain))
    psi = random_pure_state(2, rng)
    got = m @ walker_node_ancilla(psi, 0, 4, 0, 0)
    np.testing.assert_allclose(got, walker_node_ancilla(psi, 0, 4, 0, 0), atol=1e-12)
    got = m @ walker_node_ancilla(psi, 2, 4, 0, 0)
    want = walker_node_ancilla(chain.unitaries[1].conj().T @ psi, 1, 4, 0, 0)
    np.testing.assert_allclose(got, want, atol=1e-12)
    vec = walker_node_ancilla(psi, 2, 4, 1, 0)
    np.testing.assert_allclose(m @ vec, vec, atol=1e-12)


def test_block_matrices_unitary():
    rng = np.random.default_rng(8)
    for n in (2, 4, 8):
        chain = random_chain(n, rng.uniform(0.1, 0.9), rng)
        for build in (circuit.build_right, circuit.build_left,
                      circuit.build_right_boundary, circuit.build_left_boundary):
            assert is_unitary(circuit.circuit_matrix(build(chain)), 1e-10)


# --- one step and full walks ----------------------------------------------------

def test_step_deterministic_directions():
    rng = np.random.default_rng(9)
    psi = random_pure_state(2, rng)
    right = random_chain(4, 1.0, rng)
    state = circuit.simulate_density(circuit.build_step(right),
                                     core.DiagonalState.pure(psi, 1, 4), 1.0)
    np.testing.assert_allclose(state.block(2), projector(right.unitaries[1] @ psi),
                               atol=1e-12)
    left = core.LinearChainSpec(4, 0.0, right.unitaries)
    state = circuit.simulate_density(circuit.build_step(left),
                                     core.DiagonalState.pure(psi, 1, 4), 0.0)
    np.testing.assert_allclose(state.block(0), projector(left.unitaries[0].conj().T @ psi),
                               atol=1e-12)


def test_step_orders_agree_and_match_direct():
    rng = np.random.default_rng(10)
    chain = random_chain(4, 0.64, rng)
    spec = core.chain_to_spec(chain)
    state = random_diagonal_state(4, 2, rng)
    direct = core.step(spec, state)
    results = {}
    for order in ("rb-lb", "lb-rb"):
        out = circuit.simulate_density(circuit.build_step(chain, order), state, chain.omega)
        results[order] = out
        for i in range(4):
            assert trace_distance(out.block(i), direct.block(i)) <= 1e-12
    for i in range(4):
        assert trace_distance(results["rb-lb"].block(i),
                              results["lb-rb"].block(i)) <= 1e-12


# --- walk assembly -----------------------------------------------------------

def reference_walk(chain, n, ancilla_policy, order):
    """The former assembly loop: every step's gates are built anew."""
    lay = circuit._Layout(chain)
    base = lay.h + lay.g
    if ancilla_policy == "fresh":
        qa_reg = tuple(range(base, base + n))
        qap_reg = tuple(range(base + n, base + 2 * n))
        pairs = list(zip(qa_reg, qap_reg))
    else:
        qa_reg, qap_reg = (base,), (base + 1,)
        pairs = [(base, base + 1)] * n
    gates = []
    for k, (qa, qap) in enumerate(pairs):
        gates += circuit._step_gates(lay, qa, qap, chain.omega, order)
        if ancilla_policy == "reuse" and k < n - 1:
            gates += [Gate("reset", (qa,)), Gate("reset", (qap,))]
    return Circuit({"qH": lay.qh, "qG": lay.qg, "qA": qa_reg, "qAp": qap_reg}, gates)


def assert_same_circuit(got, want):
    assert got.registers == want.registers
    assert len(got.gates) == len(want.gates)
    for a, b in zip(got.gates, want.gates):
        assert (a.kind, a.targets, a.controls, a.angle, a.label) == \
            (b.kind, b.targets, b.controls, b.angle, b.label)
        assert (a.matrix is None) == (b.matrix is None)
        assert a.matrix is None or np.array_equal(a.matrix, b.matrix)
    assert circuit.circuit_to_qasm(got) == circuit.circuit_to_qasm(want)
    assert circuit.circuit_to_json(got) == circuit.circuit_to_json(want)
    for model in circuit.COST_MODELS:
        assert circuit.cost_estimate(got, model) == circuit.cost_estimate(want, model)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 8, 16, 33])
def test_walk_equals_per_step_assembly(n_nodes, d):
    chain = random_chain(n_nodes, 0.7, np.random.default_rng(100 * n_nodes + d), dim=d)
    for order in ("rb-lb", "lb-rb"):
        for policy in ("reuse", "fresh"):
            for n in (0, 1, 2, 5):
                assert_same_circuit(circuit.build_walk(chain, n, policy, order),
                                    reference_walk(chain, n, policy, order))
        assert_same_circuit(circuit.build_step(chain, order),
                            reference_walk(chain, 1, "reuse", order))


def test_walk_builds_each_step_once_per_ancilla_pair(monkeypatch):
    pairs = []
    step_gates = circuit._step_gates

    def counted(lay, qa, qap, omega, order):
        pairs.append((qa, qap))
        return step_gates(lay, qa, qap, omega, order)

    monkeypatch.setattr(circuit, "_step_gates", counted)
    chain = random_chain(5, 0.7, np.random.default_rng(31))
    # one walker qubit and three node qubits come before the ancillas
    circuit.build_walk(chain, 7)
    assert pairs == [(4, 5)]
    pairs.clear()
    circuit.build_walk(chain, 7, "fresh")
    assert pairs == [(4 + k, 11 + k) for k in range(7)]


def test_walk_register_sizing():
    rng = np.random.default_rng(11)
    chain = random_chain(4, 0.7, rng)
    fresh = circuit.build_walk(chain, 5, "fresh")
    assert fresh.n_qubits == 1 + 2 + 2 * 5
    assert len(fresh.registers["qA"]) == 5 and len(fresh.registers["qAp"]) == 5
    reuse = circuit.build_walk(chain, 5, "reuse")
    assert reuse.n_qubits == 1 + 2 + 2


def test_walk_zero_steps_empty():
    rng = np.random.default_rng(12)
    chain = random_chain(4, 0.7, rng)
    walk = circuit.build_walk(chain, 0)
    assert walk.gates == []
    state = random_diagonal_state(4, 2, rng)
    out = circuit.simulate_density(walk, state)
    for i in range(4):
        np.testing.assert_allclose(out.block(i), state.block(i), atol=1e-14)


def test_walk_policies_identical():
    rng = np.random.default_rng(13)
    chain = random_chain(4, 0.58, rng)
    state = random_diagonal_state(4, 2, rng)
    outs = [circuit.simulate_density(circuit.build_walk(chain, 5, policy), state, chain.omega)
            for policy in ("fresh", "reuse")]
    for i in range(4):
        assert trace_distance(outs[0].block(i), outs[1].block(i)) <= 1e-12


def test_walk_matches_direct_evolution():
    rng = np.random.default_rng(14)
    chain = random_chain(4, 0.66, rng)
    spec = core.chain_to_spec(chain)
    state = random_diagonal_state(4, 2, rng)
    direct = core.evolve(spec, state, 5)
    sim = circuit.simulate_density(circuit.build_walk(chain, 5), state, chain.omega)
    for i in range(4):
        assert trace_distance(sim.block(i), direct.block(i)) <= 1e-10


def test_walk_preserves_trace_each_step():
    rng = np.random.default_rng(15)
    chain = random_chain(4, 0.66, rng)
    state = random_diagonal_state(4, 2, rng)
    step_circ = circuit.build_walk(chain, 1)
    for _ in range(6):
        state = circuit.simulate_density(step_circ, state, chain.omega)
        assert abs(state.total_trace() - 1.0) <= 1e-12


def test_dephasing_chain_circuit():
    # one step of the N=2 chain with U0 = Z, post-selected on node 1, is the
    # dephasing channel output
    chain = core.LinearChainSpec(2, 0.6, [Z])
    rng = np.random.default_rng(16)
    rho = projector(random_pure_state(2, rng))
    p = 0.3
    state = core.DiagonalState(2, {0: p * rho, 1: (1 - p) * rho})
    out = circuit.simulate_density(circuit.build_step(chain), state, 0.6)
    block = out.block(1)
    post = block / np.trace(block).real
    np.testing.assert_allclose(post, (1 - p) * rho + p * (Z @ rho @ Z), atol=1e-12)


def test_walk_non_power_of_two_nodes():
    rng = np.random.default_rng(17)
    chain = random_chain(3, 0.7, rng)
    spec = core.chain_to_spec(chain)
    state = random_diagonal_state(3, 2, rng)
    direct = core.evolve(spec, state, 4)
    sim = circuit.simulate_density(circuit.build_walk(chain, 4), state, chain.omega)
    for i in range(3):
        assert trace_distance(sim.block(i), direct.block(i)) <= 1e-10


def test_walk_padded_walker_dimension():
    rng = np.random.default_rng(18)
    chain = random_chain(2, 0.7, rng, dim=3)
    spec = core.chain_to_spec(chain)
    state = core.DiagonalState.pure(random_pure_state(3, rng), 0, 2)
    direct = core.evolve(spec, state, 3)
    sim = circuit.simulate_density(circuit.build_walk(chain, 3), state, chain.omega)
    for i in range(2):
        assert trace_distance(sim.block(i), direct.block(i)) <= 1e-10


def test_node_register_stays_diagonal():
    # the simulator checks the invariant internally and raises on violation;
    # a long random walk exercising the boundaries should never trip it
    rng = np.random.default_rng(19)
    chain = random_chain(4, 0.75, rng)
    state = random_diagonal_state(4, 2, rng)
    circuit.simulate_density(circuit.build_walk(chain, 8), state, chain.omega)


def test_simulate_checks_ry_angle():
    rng = np.random.default_rng(20)
    chain = random_chain(4, 0.7, rng)
    state = random_diagonal_state(4, 2, rng)
    with pytest.raises(ValueError, match="RY angle"):
        circuit.simulate_density(circuit.build_walk(chain, 1), state, 0.3)


def test_circuit_matrix_rejects_measurement():
    c = Circuit({"q": (0,)}, [Gate("measure_nonsel", (0,))])
    with pytest.raises(ValueError, match="unitary"):
        circuit.circuit_matrix(c)


def test_gate_validation():
    with pytest.raises(ValueError, match="disjoint"):
        Gate("x", (0,), ((0, 1),))
    with pytest.raises(ValueError, match="polarity"):
        Gate("x", (0,), ((1, 2),))
    with pytest.raises(ValueError, match="kind"):
        Gate("hadamard", (0,))


# --- gate-local kernel against the dense embedding ---------------------------------

def dense_controlled_matrix(gate):
    """Reference: gate matrix over (controls..., targets...), controls as high bits."""
    if gate.kind == "x":
        base = np.array([[0, 1], [1, 0]], dtype=complex)
    elif gate.kind == "ry":
        base = circuit._ry_matrix(gate.angle)
    else:
        base = np.asarray(gate.matrix, dtype=complex)
    c = len(gate.controls)
    if c == 0:
        return base
    t_dim = base.shape[0]
    full = np.eye((2 ** c) * t_dim, dtype=complex)
    sel = 0
    for _, pol in gate.controls:
        sel = (sel << 1) | pol
    s = sel * t_dim
    full[s:s + t_dim, s:s + t_dim] = base
    return full


def dense_embed(op, positions, nq):
    """Reference: expand an operator on the given tensor positions to all nq qubits."""
    k = len(positions)
    rest = [p for p in range(nq) if p not in positions]
    order = list(positions) + rest
    full = np.kron(op, np.eye(2 ** (nq - k), dtype=complex))
    tensor = full.reshape((2,) * (2 * nq))
    perm = [0] * nq
    for j, pos in enumerate(order):
        perm[pos] = j
    tensor = tensor.transpose(perm + [p + nq for p in perm])
    return tensor.reshape(2 ** nq, 2 ** nq)


def random_gate(rng, nq):
    """X, RY or u on 1-2 targets with 0-3 controls of mixed polarity."""
    kind = rng.choice(["x", "ry", "u"])
    n_targets = int(rng.integers(1, 3)) if kind == "u" and nq >= 2 else 1
    n_controls = int(rng.integers(0, min(3, nq - n_targets) + 1))
    qubits = [int(q) for q in rng.permutation(nq)[:n_targets + n_controls]]
    targets = tuple(qubits[:n_targets])
    controls = tuple((q, int(rng.integers(2))) for q in qubits[n_targets:])
    if kind == "x":
        return Gate("x", targets, controls)
    if kind == "ry":
        return Gate("ry", targets, controls, angle=float(rng.uniform(-np.pi, np.pi)))
    return Gate("u", targets, controls, matrix=haar_unitary(2 ** n_targets, rng))


def dense_gate(gate, nq):
    return dense_embed(dense_controlled_matrix(gate), list(gate.qubits), nq)


def test_unitary_gate_step_matches_dense_conjugation():
    rng = np.random.default_rng(30)
    kinds = set()
    for _ in range(300):
        nq = int(rng.integers(1, 7))
        gate = random_gate(rng, nq)
        kinds.add((gate.kind, len(gate.targets), len(gate.controls)))
        rho = random_density(2 ** nq, rng)
        sim = circuit._DensitySim(rho, list(range(nq)))
        sim.apply(gate)
        g = dense_gate(gate, nq)
        assert np.abs(sim.dense() - g @ rho @ g.conj().T).max() <= 1e-13
    assert {("x", 1, c) for c in range(4)} <= kinds
    assert {("u", 2, c) for c in range(4)} <= kinds


def test_circuit_matrix_matches_dense_product():
    rng = np.random.default_rng(31)
    for _ in range(40):
        nq = int(rng.integers(1, 7))
        gates = [random_gate(rng, nq) for _ in range(6)]
        total = np.eye(2 ** nq, dtype=complex)
        for gate in gates:
            total = dense_gate(gate, nq) @ total
        got = circuit.circuit_matrix(Circuit({"q": tuple(range(nq))}, gates))
        assert np.abs(got - total).max() <= 1e-13


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("pol", [0, 1])
def test_controlled_ladders_are_exact_permutations(g, pol):
    # the walk's ladders carry an ancilla control; with the control open
    # the register is untouched, with it closed the register shifts
    qg, qa = tuple(range(g)), g
    for ladder, shift in ((circuit._inc_gates, 1), (circuit._dec_gates, -1)):
        m = circuit.circuit_matrix(Circuit({"qG": qg, "qA": (qa,)},
                                           ladder(qg, extra=((qa, pol),))))
        size = 2 ** g
        expected = np.zeros((2 * size, 2 * size))
        for i in range(size):
            for a in (0, 1):
                j = (i + shift) % size if a == pol else i
                expected[2 * j + a, 2 * i + a] = 1.0
        assert np.array_equal(m.real, expected)
        assert not np.any(m.imag)


def test_measurement_step_matches_dense_projectors():
    rng = np.random.default_rng(32)
    for nq in range(1, 7):
        for q in range(nq):
            rho = random_density(2 ** nq, rng)
            sim = circuit._DensitySim(rho, list(range(nq)))
            sim.apply(Gate("measure_nonsel", (q,)))
            want = sum(p @ rho @ p for p in (
                dense_embed(np.diag([1.0, 0.0]).astype(complex), [q], nq),
                dense_embed(np.diag([0.0, 1.0]).astype(complex), [q], nq)))
            assert np.abs(sim.dense() - want).max() <= 1e-13


def test_reset_step_matches_dense_kraus_operators():
    rng = np.random.default_rng(33)
    for nq in range(1, 7):
        for q in range(nq):
            rho = random_density(2 ** nq, rng)
            sim = circuit._DensitySim(rho, list(range(nq)))
            sim.apply(Gate("reset", (q,)))
            kraus = [dense_embed(np.outer([1.0, 0.0], e).astype(complex), [q], nq)
                     for e in np.eye(2)]
            want = sum(k @ rho @ k.conj().T for k in kraus)
            # reset re-attaches the qubit last in the live order
            assert sim.live == [p for p in range(nq) if p != q] + [q]
            order = sim.live + [p + nq for p in sim.live]
            want = want.reshape((2,) * (2 * nq)).transpose(order).reshape(2 ** nq, 2 ** nq)
            assert np.abs(sim.dense() - want).max() <= 1e-13


def test_gate_on_a_new_qubit_attaches_it_as_zero():
    rng = np.random.default_rng(34)
    rho = random_density(8, rng)
    gate = Gate("u", (3, 1), ((0, 0),), matrix=haar_unitary(4, rng))
    sim = circuit._DensitySim(rho, [0, 1, 2])
    sim.apply(gate)
    assert sim.live == [0, 1, 2, 3]
    g = dense_gate(gate, 4)
    want = g @ np.kron(rho, np.diag([1.0, 0.0])) @ g.conj().T
    assert np.abs(sim.dense() - want).max() <= 1e-13


# --- cost model ------------------------------------------------------------------

def test_cost_parallel_single_qubit_gates():
    c = Circuit({"q": (0, 1, 2)}, [Gate("x", (q,)) for q in range(3)])
    assert circuit.cost_estimate(c) == (0, 1)


def test_cost_sequential_depth():
    c = Circuit({"q": (0,)}, [Gate("x", (0,)) for _ in range(4)])
    assert circuit.cost_estimate(c) == (0, 4)


def test_cost_counts_controls_and_base():
    two_qubit = np.eye(4, dtype=complex)
    c = Circuit({"q": (0, 1, 2, 3)}, [
        Gate("x", (3,), ((0, 1), (1, 0))),            # 2 controls
        Gate("u", (2, 3), ((0, 1),), matrix=two_qubit),  # 1 control + 2q base
    ])
    cnot, _ = circuit.cost_estimate(c, "linear-ancilla", alpha=16, beta=0)
    assert cnot == 16 * 2 + (16 * 1 + 3)
    cnot_q, _ = circuit.cost_estimate(c, "quadratic-ancilla-free", alpha=16)
    assert cnot_q == 16 * 4 + (16 * 1 + 3)
    with pytest.raises(ValueError, match="cost model"):
        circuit.cost_estimate(c, "cubic")


def expected_walk_cnots(n_nodes, g, steps, f):
    """Closed-form recount of the walk's gate population under cost f(c):
    per step, 4 boundary detectors and 2(N-1) walker unitaries at g+1
    controls each, plus 4 shift ladders at 1..g controls."""
    per_step = (4 + 2 * (n_nodes - 1)) * f(g + 1) + 4 * sum(f(c) for c in range(1, g + 1))
    return steps * per_step


@pytest.mark.parametrize("model,f", [
    ("linear-ancilla", lambda c: 16 * c),
    ("quadratic-ancilla-free", lambda c: 16 * c * c),
])
def test_walk_cost_matches_recount(model, f):
    rng = np.random.default_rng(21)
    for n, g in ((4, 2), (8, 3), (16, 4)):
        chain = random_chain(n, 0.7, rng)
        walk = circuit.build_walk(chain, 3)
        cnot, _ = circuit.cost_estimate(walk, model)
        assert cnot == expected_walk_cnots(n, g, 3, f)


def test_walk_cost_scaling_follows_model():
    """The fitted growth of the walk's counted CNOTs equals the growth of
    the closed-form recount: slightly above linear in the graph size (the
    dominant population is 2(N-1) multi-controls of log N controls each),
    well below the quadratic scaling of the dense-unitary estimate."""
    sizes, measured, recounted = [4, 8, 16, 32], [], []
    rng = np.random.default_rng(22)
    for n in sizes:
        chain = random_chain(n, 0.7, rng)
        cnot, _ = circuit.cost_estimate(circuit.build_walk(chain, 2))
        measured.append(cnot)
        recounted.append(expected_walk_cnots(n, int(np.log2(n)), 2, lambda c: 16 * c))
    assert measured == recounted
    slope = fit_loglog_slope(sizes, measured)
    assert abs(slope - fit_loglog_slope(sizes, recounted)) < 1e-12
    assert 1.0 < slope < 1.5


# --- export ----------------------------------------------------------------------

def test_circuit_json_deterministic():
    rng = np.random.default_rng(23)
    chain = random_chain(4, 0.7, rng)
    walk = circuit.build_walk(chain, 2)
    text1, text2 = circuit.circuit_to_json(walk), circuit.circuit_to_json(walk)
    assert text1 == text2
    import json
    obj = json.loads(text1)
    assert set(obj["registers"]) == {"qH", "qG", "qA", "qAp"}
    kinds = {g["kind"] for g in obj["gates"]}
    assert {"ry", "measure_nonsel", "u", "x", "reset"} <= kinds


def test_circuit_qasm_emission():
    rng = np.random.default_rng(24)
    chain = random_chain(4, 0.7, rng)
    text = circuit.circuit_to_qasm(circuit.build_step(chain))
    assert text.startswith("OPENQASM 3.0;")
    assert "qubit[2] qG;" in text
    assert "negctrl @" in text and "ctrl @" in text
    assert "measure qA[0];" in text
    assert "U0 " in text
