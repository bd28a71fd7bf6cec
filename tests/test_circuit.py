import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oqwalk import circuit, compiled, core
from oqwalk.analysis import fit_loglog_slope
from oqwalk.circuit import Circuit, Gate
from oqwalk.matrixkit import (
    Z,
    haar_unitary,
    is_unitary,
    projector,
    random_pure_state,
    trace_distance,
)
import oracles
from oracles import random_density


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
    m = oracles.circuit_matrix(circuit.build_increment(g))
    size = 2 ** g
    expected = np.zeros((size, size))
    for i in range(size):
        expected[(i + 1) % size, i] = 1.0
    assert np.array_equal(m.real, expected)
    assert np.abs(m.imag).max() == 0.0


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_decrement_truth_table(g):
    m = oracles.circuit_matrix(circuit.build_decrement(g))
    size = 2 ** g
    expected = np.zeros((size, size))
    for i in range(size):
        expected[(i - 1) % size, i] = 1.0
    assert np.array_equal(m.real, expected)


def test_shift_ladders_are_inverse_pair():
    for g in (1, 2, 3, 4):
        s = oracles.circuit_matrix(circuit.build_increment(g))
        p = oracles.circuit_matrix(circuit.build_decrement(g))
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
    m = oracles.circuit_matrix(circuit.build_right(chain))
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
    m = oracles.circuit_matrix(circuit.build_left(chain))
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
    right = oracles.circuit_matrix(circuit.build_right(chain))
    left = oracles.circuit_matrix(circuit.build_left(chain))
    psi = random_pure_state(2, rng)
    moved = right @ walker_node_ancilla(psi, 1, 4, 1)
    # moved = U1 psi at node 2 with ancilla 1; toggle the ancilla and go back
    back_in = moved.reshape(8, 2)[:, 1]  # strip ancilla |1>
    got = left @ np.kron(back_in, basis_vector(2, 0))
    np.testing.assert_allclose(got, walker_node_ancilla(psi, 1, 4, 0), atol=1e-12)


def test_right_boundary_holds_last_node():
    rng = np.random.default_rng(4)
    chain = random_chain(4, 0.7, rng)
    m = oracles.circuit_matrix(circuit.build_right_boundary(chain))
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
    m = oracles.circuit_matrix(circuit.build_right_boundary(chain))
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
    m = oracles.circuit_matrix(circuit.build_right_boundary(chain))
    psi = random_pure_state(2, rng)
    for j in range(4):
        vec = walker_node_ancilla(psi, j, 4, 0, 0)
        np.testing.assert_allclose(m @ vec, vec, atol=1e-12)


def test_left_boundary_holds_node_zero():
    rng = np.random.default_rng(7)
    chain = random_chain(4, 0.7, rng)
    m = oracles.circuit_matrix(circuit.build_left_boundary(chain))
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
            assert is_unitary(oracles.circuit_matrix(build(chain)), 1e-10)


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


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("policy", ["reuse", "fresh"])
def test_walk_rejects_unknown_order_at_any_step_count(n, policy):
    chain = random_chain(4, 0.7, np.random.default_rng(12))
    with pytest.raises(ValueError, match="unknown step order 'bogus'"):
        circuit.build_walk(chain, n, policy, order="bogus")


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


def test_plan_is_kept_and_remade_when_the_gate_list_changes():
    rng = np.random.default_rng(21)
    chain = random_chain(5, 0.7, rng)
    state = random_diagonal_state(5, 2, rng)
    walk = circuit.build_walk(chain, 1)
    one = circuit.simulate_density(walk, state, chain.omega)
    plan = walk._plan
    circuit.simulate_density(walk, state, chain.omega)
    assert walk._plan is plan
    # a circuit never changes, so a changed gate list is a new circuit with
    # its own plan: a two-step walk (a block of step and resets, repeated
    # once with the step as its tail), then that walk with one U gate
    # replaced by one for another walker unitary
    steps = circuit.build_walk(chain, 2)
    two = circuit.simulate_density(steps, state, chain.omega)
    want = oracles.simulate_density(steps, state, chain.omega)
    block = list(steps.block)
    pos = next(i for i, g in enumerate(block) if g.kind == "u")
    old = block[pos]
    block[pos] = Gate("u", old.targets, old.controls, matrix=haar_unitary(2, rng))
    other = Circuit(steps.registers, block, steps.repeat, steps.tail)
    changed = circuit.simulate_density(other, state, chain.omega)
    assert walk._plan is plan and other._plan is not steps._plan
    assert all(np.array_equal(two.block(i), want.block(i)) for i in range(5))
    assert not all(np.array_equal(one.block(i), two.block(i)) for i in range(5))
    recheck = oracles.simulate_density(other, state)
    assert all(np.array_equal(changed.block(i), recheck.block(i)) for i in range(5))
    assert not all(np.array_equal(changed.block(i), two.block(i)) for i in range(5))


def test_concurrent_runs_of_one_plan_agree():
    # a plan keeps two state buffers for all its runs; its lock keeps
    # threads simulating one circuit apart
    rng = np.random.default_rng(23)
    chain = random_chain(8, 0.6, rng)
    state = random_diagonal_state(8, 2, rng)
    walk = circuit.build_walk(chain, 2)
    want = circuit.simulate_density(walk, state, chain.omega)
    results, errors = [], []

    def work():
        try:
            for _ in range(25):
                results.append(circuit.simulate_density(walk, state, chain.omega))
        except Exception as exc:  # reported below, with the thread's result count
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 100
    for got in results:
        assert all(np.array_equal(got.block(i), want.block(i)) for i in range(8))


def test_one_step_at_n128_peaks_below_36_mib():
    # the state alone is 16 MiB (walker 1, node 7 and two ancilla qubits),
    # and the first run allocates it and one spare buffer of that size
    rng = np.random.default_rng(22)
    chain = random_chain(128, 0.6, rng)
    state = random_diagonal_state(128, 2, rng)
    step = circuit.build_walk(chain, 1)
    tracemalloc.start()
    try:
        circuit.simulate_density(step, state, chain.omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2 ** 20


def test_one_classical_step_at_n128_peaks_below_1_mib():
    # the node register and the ancillas are a classical index, so the state
    # is (2^9, 2, 2) blocks, 32 KiB, where the dense one is 16 MiB
    rng = np.random.default_rng(24)
    chain = random_chain(128, 0.6, rng)
    state = random_diagonal_state(128, 2, rng)
    step = circuit.build_walk(chain, 1)
    tracemalloc.start()
    try:
        circuit.simulate_density(step, state, chain.omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step._plan.plan.classical == step.registers["qG"]
    assert peak <= 2 ** 20


@pytest.mark.parametrize("node, gates", [
    (1, [Gate("x", (1,))]),                    # a lone flip: node 1 (01) to 3 (11)
    (2, circuit._inc_gates((1, 2))),           # a permutation run: node 2 (10) to 3
])
def test_mass_moved_to_a_padded_node_pattern_leaks_on_the_classical_path(node, gates):
    # three nodes pad the node register to four patterns
    circ = Circuit({"qH": (0,), "qG": (1, 2)}, gates)
    state = core.DiagonalState.pure([1.0, 0.0], node, 3)
    with pytest.raises(RuntimeError, match="probability leaked into padded sectors"):
        circuit.simulate_density(circ, state)
    assert circ._plan.plan.classical == (1, 2)


def test_a_node_qubit_in_superposition_runs_all_quantum():
    # two Hadamards on the node qubit give the state back, through the
    # dense matrix: the node register is not classical in between
    rng = np.random.default_rng(25)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    circ = Circuit({"qH": (0,), "qG": (1,)}, [Gate("u", (1,), matrix=hadamard)] * 2)
    state = random_diagonal_state(2, 2, rng)
    out = circuit.simulate_density(circ, state)
    assert circ._plan.plan.classical == ()
    assert np.abs(out.blocks - state.blocks).max() <= 1e-15


def test_a_repeated_block_must_give_the_node_register_back_classical():
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    h = Gate("u", (1,), matrix=hadamard)
    state = random_diagonal_state(2, 2, np.random.default_rng(26))
    for shape in (([h], 2, 0), ([h, h], 2, 0), ([h, Gate("x", (0,))], 1, 1)):
        with pytest.raises(ValueError, match="a block that repeats or has a tail must end "
                                             "with the node register classical"):
            circuit.simulate_density(Circuit({"qH": (0,), "qG": (1,)}, *shape), state)


@pytest.mark.parametrize("n_nodes, d", [(9, 2), (8, 3)])
def test_simulate_rejects_a_state_that_does_not_fit_the_registers(n_nodes, d):
    rng = np.random.default_rng(27)
    walk = circuit.build_walk(random_chain(8, 0.7, rng), 2)
    with pytest.raises(ValueError, match=rf"state \(N, d\) = \({n_nodes}, {d}\) does not fit "
                                         rf"the registers \(2\^g, 2\^h\) = \(8, 2\)"):
        circuit.simulate_density(walk, random_diagonal_state(n_nodes, d, rng))


@pytest.mark.parametrize("n", [2, 10, 100])
def test_reuse_walk_compiles_its_block_and_tail_once(monkeypatch, n):
    calls = []
    compile_gates = circuit.compile_gates

    def counted(gates, *args, **kwargs):
        calls.append(len(gates))
        return compile_gates(gates, *args, **kwargs)

    monkeypatch.setattr(circuit, "compile_gates", counted)
    rng = np.random.default_rng(28)
    chain = random_chain(5, 0.7, rng)
    state = random_diagonal_state(5, 2, rng)
    walk = circuit.build_walk(chain, n)
    got = circuit.simulate_density(walk, state, chain.omega)
    again = circuit.simulate_density(walk, state, chain.omega)
    assert calls == [len(walk.block), walk.tail]
    want = oracles.simulate_density(walk, state, chain.omega)
    assert all(np.array_equal(got.block(i), want.block(i)) for i in range(5))
    assert all(np.array_equal(again.block(i), want.block(i)) for i in range(5))


def test_a_block_applied_only_as_its_tail():
    rng = np.random.default_rng(29)
    chain = random_chain(5, 0.7, rng, dim=3)
    walk = circuit.build_walk(chain, 3)
    step = Circuit(walk.registers, walk.block, 0, walk.tail)
    assert step.gates == list(walk.block[:walk.tail])
    state = random_diagonal_state(5, 3, rng)
    got = circuit.simulate_density(step, state, chain.omega)
    want = oracles.simulate_density(step, state, chain.omega)
    assert all(np.array_equal(got.block(i), want.block(i)) for i in range(5))
    assert_cost_and_exports_match_reference(step)
    # a gate after the tail is not applied, so it is not checked
    bad = Gate("x", (9,))
    Circuit(walk.registers, walk.block + (bad,), 0, walk.tail).validate()
    assert_cost_and_exports_match_reference(Circuit({"q": (0, 1, 2, 3)}, [bad], 0, 0))


def test_circuit_matrix_rejects_measurement():
    c = Circuit({"q": (0,)}, [Gate("measure_nonsel", (0,))])
    with pytest.raises(ValueError, match="unitary"):
        oracles.circuit_matrix(c)


def test_gate_validation():
    with pytest.raises(ValueError, match="disjoint"):
        Gate("x", (0,), ((0, 1),))
    with pytest.raises(ValueError, match="polarity"):
        Gate("x", (0,), ((1, 2),))
    with pytest.raises(ValueError, match="kind"):
        Gate("hadamard", (0,))


# --- gate-local kernel against the dense embedding ---------------------------------

def apply_gate(rho, live, gate):
    """One gate through the compiled ops on a dense state over ``live``:
    the new dense state and its qubit order. A qubit outside ``live`` is
    traced out after the gate."""
    plan = compiled.compile_gates([gate], live)
    out = plan.run(np.asarray(rho, dtype=complex).reshape((2,) * (2 * len(live))))
    dim = 2 ** len(plan.live)
    return out.reshape(dim, dim), plan.live


def dense_controlled_matrix(gate):
    """Reference: gate matrix over (controls..., targets...), controls as high bits."""
    if gate.kind == "x":
        base = np.array([[0, 1], [1, 0]], dtype=complex)
    elif gate.kind == "ry":
        base = compiled.ry_matrix(gate.angle)
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


def random_gate(rng, nq, kind=None):
    """X, RY or u on 1-2 targets with 0-3 controls of mixed polarity."""
    kind = kind or rng.choice(["x", "ry", "u"])
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
        got, _ = apply_gate(rho, list(range(nq)), gate)
        g = dense_gate(gate, nq)
        assert np.abs(got - g @ rho @ g.conj().T).max() <= 1e-13
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
        got = oracles.circuit_matrix(Circuit({"q": tuple(range(nq))}, gates))
        assert np.abs(got - total).max() <= 1e-13


def random_mux_run(rng, nq):
    """u gates the compiler fuses into one multiplexor: the same targets and
    control qubits (scattered, listed in a different order by each gate),
    distinct control patterns of mixed polarity."""
    k = int(rng.integers(1, min(2, nq - 1) + 1))
    qubits = [int(q) for q in rng.permutation(nq)]
    targets, ctrl = tuple(qubits[:k]), qubits[k:k + int(rng.integers(1, min(3, nq - k) + 1))]
    patterns = rng.permutation(2 ** len(ctrl))[:int(rng.integers(2, 2 ** len(ctrl) + 1))]
    run = []
    for p in patterns:
        controls = [(q, (int(p) >> b) & 1) for b, q in enumerate(ctrl)]
        run.append(Gate("u", targets, tuple(controls[i] for i in rng.permutation(len(ctrl))),
                        matrix=haar_unitary(2 ** k, rng)))
    return run


def random_fusable_circuit(rng, nq):
    """Lone gates of every kind mixed with X runs and multiplexor runs."""
    gates = []
    for _ in range(int(rng.integers(2, 6))):
        choice = int(rng.integers(3)) if nq >= 2 else 0
        if choice == 0:
            gates.append(random_gate(rng, nq))
        elif choice == 1:
            gates += [random_gate(rng, nq, "x") for _ in range(int(rng.integers(2, 5)))]
        else:
            gates += random_mux_run(rng, nq)
    return gates


def test_fused_runs_on_a_density_match_dense_conjugation():
    # off the walk the ket and bra sides of two patterns may round in another
    # order than gate by gate, so this compares with the dense product
    rng = np.random.default_rng(36)
    for _ in range(60):
        nq = int(rng.integers(1, 6))
        gates = random_fusable_circuit(rng, nq)
        rho = random_density(2 ** nq, rng)
        plan = compiled.compile_gates(gates, list(range(nq)))
        got = plan.run(rho.reshape((2,) * (2 * nq))).reshape(2 ** nq, 2 ** nq)
        total = np.eye(2 ** nq, dtype=complex)
        for gate in gates:
            total = dense_gate(gate, nq) @ total
        assert np.abs(got - total @ rho @ total.conj().T).max() <= 1e-13


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("pol", [0, 1])
def test_controlled_ladders_are_exact_permutations(g, pol):
    # the walk's ladders carry an ancilla control; with the control open
    # the register is untouched, with it closed the register shifts
    qg, qa = tuple(range(g)), g
    for ladder, shift in ((circuit._inc_gates, 1), (circuit._dec_gates, -1)):
        m = oracles.circuit_matrix(Circuit({"qG": qg, "qA": (qa,)},
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
            got, _ = apply_gate(rho, list(range(nq)), Gate("measure_nonsel", (q,)))
            want = sum(p @ rho @ p for p in (
                dense_embed(np.diag([1.0, 0.0]).astype(complex), [q], nq),
                dense_embed(np.diag([0.0, 1.0]).astype(complex), [q], nq)))
            assert np.abs(got - want).max() <= 1e-13


def test_reset_step_matches_dense_kraus_operators():
    rng = np.random.default_rng(33)
    for nq in range(1, 7):
        for q in range(nq):
            rho = random_density(2 ** nq, rng)
            got, live = apply_gate(rho, list(range(nq)), Gate("reset", (q,)))
            kraus = [dense_embed(np.outer([1.0, 0.0], e).astype(complex), [q], nq)
                     for e in np.eye(2)]
            want = sum(k @ rho @ k.conj().T for k in kraus)
            # reset re-attaches the qubit last in the live order
            assert live == [p for p in range(nq) if p != q] + [q]
            order = live + [p + nq for p in live]
            want = want.reshape((2,) * (2 * nq)).transpose(order).reshape(2 ** nq, 2 ** nq)
            assert np.abs(got - want).max() <= 1e-13


def test_gate_on_a_new_qubit_attaches_it_as_zero():
    rng = np.random.default_rng(34)
    rho = random_density(8, rng)
    gate = Gate("u", (3, 1), ((0, 0),), matrix=haar_unitary(4, rng))
    got, live = apply_gate(rho, [0, 1, 2], gate)
    # qubit 3 has no later use, so it is traced out again
    assert live == [0, 1, 2]
    g = dense_gate(gate, 4)
    want = oracles.partial_trace(g @ np.kron(rho, np.diag([1.0, 0.0])) @ g.conj().T,
                                 [2, 2, 2, 2], keep=(0, 1, 2))
    assert np.abs(got - want).max() <= 1e-13


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


def reference_cost(c, model="linear-ancilla", alpha=16.0, beta=0.0):
    """The per-gate cost loop: every gate is costed and layered in turn."""
    f = (lambda k: alpha * k + beta) if model == "linear-ancilla" else \
        (lambda k: alpha * k * k)
    cnot = 0.0
    depth_by_qubit = {}
    deepest = 0
    for gate in c.gates:
        if gate.kind not in ("measure_nonsel", "reset"):
            k = len(gate.controls)
            cnot += (f(k) if k else 0.0) + circuit._base_cnot_cost(len(gate.targets))
        layer = 1 + max((depth_by_qubit.get(q, 0) for q in gate.qubits), default=0)
        for q in gate.qubits:
            depth_by_qubit[q] = layer
        deepest = max(deepest, layer)
    return int(round(cnot)), deepest


def reference_json(c):
    """The per-gate JSON encoder: one entry built per gate, one json.dumps."""
    gates = []
    for gate in c.gates:
        entry = {"kind": gate.kind,
                 "controls": [[q, pol] for q, pol in gate.controls],
                 "targets": list(gate.targets),
                 "params": {}}
        if gate.kind == "ry":
            entry["params"]["angle"] = gate.angle
        if gate.kind == "u":
            entry["params"]["label"] = gate.label
            entry["params"]["re"] = gate.matrix.real.tolist()
            entry["params"]["im"] = gate.matrix.imag.tolist()
        gates.append(entry)
    return json.dumps({"registers": {name: list(qs) for name, qs in c.registers.items()},
                       "gates": gates}, indent=1)


def reference_qasm(c):
    """The per-gate QASM writer: one line formatted per gate occurrence."""
    names = {q: f"{reg}[{k}]" for reg, qs in c.registers.items() for k, q in enumerate(qs)}
    lines = ["OPENQASM 3.0;"] + [f"qubit[{len(qs)}] {reg};" for reg, qs in c.registers.items()]
    for gate in c.gates:
        mods = "".join("ctrl @ " if pol else "negctrl @ " for _, pol in gate.controls)
        args = ", ".join(names[q] for q in [q for q, _ in gate.controls] + list(gate.targets))
        lines.append({"x": f"{mods}x {args};",
                      "ry": f"{mods}ry({gate.angle!r}) {args};",
                      "u": f"{mods}{gate.label or 'u'} {args};  // composite unitary",
                      "measure_nonsel": f"measure {args};  // non-selective, outcome discarded",
                      "reset": f"reset {args};"}[gate.kind])
    return "\n".join(lines) + "\n"


COST_PARAMS = [(16.0, 0.0), (2.5, 0.5), (3.3, -1.7)]


def assert_cost_and_exports_match_reference(c):
    for model in circuit.COST_MODELS:
        for alpha, beta in COST_PARAMS:
            got = circuit.cost_estimate(c, model, alpha, beta)
            assert got == reference_cost(c, model, alpha, beta)
            assert type(got[0]) is int and type(got[1]) is int
    assert circuit.circuit_to_json(c) == reference_json(c)
    assert circuit.circuit_to_qasm(c) == reference_qasm(c)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 8, 16, 33])
def test_walk_cost_and_json_equal_per_gate_references(n_nodes, d):
    chain = random_chain(n_nodes, 0.7, np.random.default_rng(200 * n_nodes + d), dim=d)
    for order in ("rb-lb", "lb-rb"):
        for policy in ("reuse", "fresh"):
            for n in (0, 1, 2, 5, 9):
                assert_cost_and_exports_match_reference(
                    circuit.build_walk(chain, n, policy, order))


def test_noninteger_cost_rounds_as_the_per_gate_sum():
    # the exact sum here is 4651.5: the per-gate running sum lands just above
    # it, a block sum times the repeat count just below
    chain = random_chain(16, 0.7, np.random.default_rng(42), dim=3)
    walk = circuit.build_walk(chain, 7, "reuse", "lb-rb")
    assert circuit.cost_estimate(walk, "linear-ancilla", 2.7, 0.15) == \
        reference_cost(walk, "linear-ancilla", 2.7, 0.15) == (4652, 377)


def hand_built_gates():
    rng = np.random.default_rng(40)
    a = Gate("u", (0, 1), ((2, 1),), matrix=haar_unitary(4, rng), label="A")
    b = Gate("x", (2,), ((0, 0), (3, 1)))
    c = Gate("ry", (3,), ((1, 1),), angle=0.25)
    m = Gate("measure_nonsel", (1,))
    return a, b, c, m


@pytest.mark.parametrize("case", ["first-recurs", "tail", "period-one", "empty",
                                  "block-with-measure", "no-qubits"])
def test_hand_built_cost_and_json_equal_per_gate_references(case):
    a, b, c, m = hand_built_gates()
    none = Gate("x", ())
    gates, shape = {
        "first-recurs": ([a, b, a, c], ([a, b, a, c],)),
        "tail": ([a, b] * 3 + [a], ([a, b], 3, 1)),
        "period-one": ([a] * 5, ([a], 5, 0)),
        "empty": ([], ([],)),
        "block-with-measure": ([c, m, b] * 4 + [a, a, c], ([c, m, b] * 4 + [a, a, c],)),
        "no-qubits": ([none] * 3, ([none], 3, 0)),
    }[case]
    c = Circuit({"q": (0, 1, 2, 3)}, *shape)
    assert c.gates == gates
    assert_cost_and_exports_match_reference(c)


def adversarial_gates():
    """Gates whose JSON entries take every path of json's own encoder."""
    rng = np.random.default_rng(43)
    signed_zeros = np.array([[-0.0, 1.0], [1.0, -0.0]]) + 1j * np.array([[-0.0, 0.0], [0.0, 0.0]])
    return [Gate("ry", (0,), angle=np.float64(0.1)), Gate("ry", (0,), angle=3),
            Gate("ry", (1,), ((0, 1),), angle=math.nan), Gate("ry", (0,), angle=math.inf),
            Gate("ry", (0,), angle=-math.inf), Gate("ry", (0,)),
            Gate("x", (0,), ((1, True), (2, False))), Gate("x", ()),
            Gate("u", (0,), matrix=signed_zeros, label='quote" back\\slash\nnewline é ψ'),
            Gate("u", (), ((3, 0),), matrix=np.array([[1.0]]), label=""),
            Gate("u", (0, 2), ((1, 1),), matrix=haar_unitary(4, rng), label="U\t4"),
            Gate("u", (1,), matrix=np.eye(2, dtype=int)),
            Gate("measure_nonsel", (3,)), Gate("reset", (2,))]


def test_json_writer_equals_json_dumps_on_adversarial_gates():
    gates = adversarial_gates()
    c = Circuit({"q": (0, 1, 2, 3)}, gates + gates[::-1])
    assert circuit.circuit_to_json(c) == reference_json(c)
    assert circuit.circuit_to_qasm(c) == reference_qasm(c)
    for gate in gates:
        single = Circuit({"q": (0, 1, 2, 3)}, [gate] * 3)
        assert circuit.circuit_to_json(single) == reference_json(single)


@pytest.mark.parametrize("gate", [Gate("x", (np.int64(1),)),
                                  Gate("x", (0,), ((np.int64(1), 1),)),
                                  Gate("x", (0,), ((1, np.int64(1)),))],
                         ids=["numpy-target", "numpy-control", "numpy-polarity"])
def test_json_writer_raises_where_json_dumps_raises(gate):
    c = Circuit({"q": (0, 1)}, [gate])
    with pytest.raises(Exception) as want:
        reference_json(c)
    with pytest.raises(want.type):
        circuit.circuit_to_json(c)


def test_gate_qubits_are_kept():
    gate = Gate("x", (2,), ((0, 1), (1, 0)))
    assert gate.qubits == (0, 1, 2) and gate.qubits is gate.qubits


def test_gates_compare_and_hash_by_identity():
    a = Gate("u", (0,), matrix=np.eye(2), label="U")
    twin = Gate("u", (0,), matrix=np.eye(2), label="U")
    # equal matrices, yet neither == nor `in` compares the arrays
    assert a == a and not a == twin and a != twin
    assert twin not in [a] and a in [twin, a]
    assert hash(a) == hash(a) and hash(twin) == hash(twin)
    assert {a: 1, twin: 2}[twin] == 2 and len({a, twin, a}) == 2


@pytest.mark.parametrize("where", ["block", "tail"])
def test_validate_rejects_undeclared_qubit_in_block_or_tail(where):
    a, b, c, _ = hand_built_gates()
    bad = Gate("x", (9,), ((0, 1),))
    # in the tail case the block is applied only as its tail, which covers bad
    shape = ([a, bad, b, c], 3, 1) if where == "block" else ([a, b, bad, c], 0, 3)
    with pytest.raises(ValueError, match=r"undeclared qubits \[9\]"):
        Circuit({"q": (0, 1, 2, 3)}, *shape).validate()


def test_circuit_rejects_a_bad_repeat_or_tail():
    a, b, _, _ = hand_built_gates()
    regs = {"q": (0, 1, 2, 3)}
    for shape in (([a], -1, 0), ([a, b], 1, 2), ([a, b], 1, -1), ([], 1, 1)):
        with pytest.raises(ValueError, match="need repeat >= 0 and 0 <= tail <"):
            Circuit(regs, *shape)
    assert Circuit(regs, [a, b]).gates == [a, b]
    assert Circuit(regs, [a, b], 0, 1).gates == [a]
    assert Circuit(regs, [a, b], 2, 1).gates == [a, b, a, b, a]


def test_long_reuse_walk_holds_one_step():
    chain = core.LinearChainSpec(1024, 0.8, [np.eye(2)] * 1023)
    step = circuit.build_step(chain)
    walk = circuit.build_walk(chain, 1707)
    # the expanded walk would be 3.58 M gate references
    assert len(walk.block) == len(step.block) + 2
    assert (walk.repeat, walk.tail) == (1706, len(step.block))
    assert [g.kind for g in walk.block[walk.tail:]] == ["reset", "reset"]


def test_walk_cost_work_does_not_grow_with_reused_steps(monkeypatch):
    calls = []
    base_cost = circuit._base_cnot_cost

    def counted(n_targets):
        calls.append(n_targets)
        return base_cost(n_targets)

    monkeypatch.setattr(circuit, "_base_cnot_cost", counted)
    chain = random_chain(8, 0.7, np.random.default_rng(41))
    per_steps = {}
    for n in (4, 8, 16):
        walk = circuit.build_walk(chain, n)
        want = reference_cost(walk)
        calls.clear()
        assert circuit.cost_estimate(walk) == want
        per_steps[n] = len(calls)
    step_gates = [g for g in circuit.build_step(chain).gates
                  if g.kind not in ("measure_nonsel", "reset")]
    # one block (a step and two resets); the final step is the block's first
    # gates, priced with it
    assert per_steps == {n: len(step_gates) for n in (4, 8, 16)}


@pytest.mark.parametrize("n_nodes, steps", [(16, 50), (33, 20)])
def test_fresh_walk_cost_equals_per_gate_reference(n_nodes, steps):
    # one block of every step, applied once: layered straight onto the frontier
    chain = random_chain(n_nodes, 0.7, np.random.default_rng(n_nodes))
    walk = circuit.build_walk(chain, steps, "fresh")
    assert (walk.repeat, walk.tail) == (1, 0)
    for model in circuit.COST_MODELS:
        for alpha, beta in COST_PARAMS:
            assert circuit.cost_estimate(walk, model, alpha, beta) == \
                reference_cost(walk, model, alpha, beta)


@pytest.mark.parametrize("case", ["run-straddles-tail", "run-wraps-the-block",
                                  "once-with-tail", "two-tuple-orders"])
def test_runs_of_same_qubit_gates_cost_as_the_per_gate_reference(case):
    a, b, c, _ = hand_built_gates()
    # the same qubit set {0, 1}, as (1, 0) and as (0, 1)
    p, q = Gate("x", (0,), ((1, 1),)), Gate("x", (1,), ((0, 1),))
    shape = {
        "run-straddles-tail": ([a, a, a, b, c], 3, 2),
        "run-wraps-the-block": ([a, b, a, a], 4, 1),
        "once-with-tail": ([a, c, a, a], 1, 1),
        "two-tuple-orders": ([p, q, p, p, q, c, q], 3, 4),
    }[case]
    assert_cost_and_exports_match_reference(Circuit({"q": (0, 1, 2, 3)}, *shape))


def test_integer_prices_cost_a_long_walk_without_tiling():
    chain = core.LinearChainSpec(1024, 0.8, [np.eye(2)] * 1023)
    walk = circuit.build_walk(chain, 1707)
    tracemalloc.start()
    try:
        cost = circuit.cost_estimate(walk, "quadratic-ancilla-free")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 3.58 M gate prices tiled in gate order would be a 27 MiB array
    assert peak < 2 ** 20
    block = Circuit(walk.registers, walk.block)
    cnots = circuit.cost_estimate(block, "quadratic-ancilla-free")[0]
    tail = circuit.cost_estimate(Circuit(walk.registers, walk.block[:walk.tail]),
                                 "quadratic-ancilla-free")[0]
    assert cost[0] == 1706 * cnots + tail


BAD_STRUCTURES = [("repeat", -1), ("tail", -1), ("tail", "len"), ("tail", "len+1")]


def _break_structure(walk, field, value):
    size = len(walk.block)
    setattr(walk, field, {"len": size, "len+1": size + 1}.get(value, value))


def _same_reading(a, b):
    if isinstance(a, core.DiagonalState):
        return np.array_equal(a.blocks, b.blocks)
    return a == b


@pytest.mark.parametrize("field, value", BAD_STRUCTURES)
@pytest.mark.parametrize("reader", [
    lambda w: w.gates,
    lambda w: w.validate(),
    lambda w: circuit.cost_estimate(w),
    lambda w: circuit.circuit_to_json(w),
    lambda w: circuit.circuit_to_qasm(w),
    lambda w: circuit.simulate_density(w, core.DiagonalState.pure(np.array([1, 0]), 0, 4)),
], ids=["gates", "validate", "cost", "json", "qasm", "simulate"])
def test_structure_changed_after_construction_is_checked(reader, field, value):
    # a structure that breaks the repeat/tail rule cannot be set after
    # construction (a repeat of -1 made cost_estimate loop forever), and every
    # reader reads the circuit as it was built
    walk = circuit.build_walk(random_chain(4, 0.7, np.random.default_rng(44)), 3)
    built, before = (walk.block, walk.repeat, walk.tail), reader(walk)
    with pytest.raises(dataclasses.FrozenInstanceError):
        _break_structure(walk, field, value)
    assert (walk.block, walk.repeat, walk.tail) == built
    assert _same_reading(reader(walk), before)


def test_repeat_set_to_zero_after_construction_reads_as_at_construction():
    # a repeat of 0 set after construction made simulate_density raise
    # IndexError; it is refused, and the walk reads as a fresh build, while
    # a repeat of 0 given to the constructor keeps only the tail
    chain = random_chain(4, 0.7, np.random.default_rng(45))
    start = core.DiagonalState.pure(np.array([1, 0]), 0, 4)
    for tail in (0, 5):
        walk = circuit.build_walk(chain, 3)
        circuit.simulate_density(walk, start)
        with pytest.raises(dataclasses.FrozenInstanceError):
            walk.repeat, walk.tail = 0, tail
        fresh = circuit.build_walk(chain, 3)
        assert (walk.repeat, walk.tail) == (fresh.repeat, fresh.tail)
        assert circuit.cost_estimate(walk) == circuit.cost_estimate(fresh)
        assert circuit.circuit_to_json(walk) == circuit.circuit_to_json(fresh)
        assert circuit.circuit_to_qasm(walk) == circuit.circuit_to_qasm(fresh)
        got = circuit.simulate_density(walk, start)
        assert np.array_equal(got.blocks, circuit.simulate_density(fresh, start).blocks)
        built = Circuit(walk.registers, walk.block, 0, tail)
        assert built.gates == list(walk.block[:tail])


def test_a_built_circuit_is_frozen():
    walk = circuit.build_walk(random_chain(4, 0.7, np.random.default_rng(44)), 3)
    assert type(walk.block) is tuple
    # a repeat of -1 set after construction made cost_estimate loop forever
    for name, value in [("block", []), ("repeat", -1), ("tail", 0), ("registers", {})]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(walk, name, value)
    with pytest.raises(TypeError):
        walk.registers["qA"] = (9,)
    assert walk.repeat == 2 and walk.registers["qA"] == (3,)


def json_template_gates():
    """One gate per entry path of the template writer."""
    rng = np.random.default_rng(46)
    nan_entries = (np.array([[math.nan, 1.0], [-0.0, 0.5]])
                   + 1j * np.array([[-0.0, 0.0], [math.nan, 0.0]]))
    return [Gate("x", (0,), ((1, True), (2, 0))),
            Gate("ry", (0,), angle=np.float64(0.3)),
            Gate("ry", (1,), angle=math.nan), Gate("ry", (1,), angle=math.inf),
            Gate("ry", (1,), angle=-0.0),
            Gate("ry", (2,), ((0, 1), (1, 0)), angle=0.7),
            Gate("u", (3,), ((0, 1),), matrix=nan_entries,
                 label='say "hi" 100%s %d ünïcode ψ\u2028'),
            Gate("u", (1, 3), ((0, 0), (2, 1)), matrix=haar_unitary(4, rng), label="two"),
            Gate("u", (2,), matrix=np.eye(2, dtype=bool), label="bools"),
            Gate("measure_nonsel", (1,)), Gate("reset", (3,))]


def test_json_templates_equal_json_dumps_on_hand_built_gates():
    gates = json_template_gates()
    regs = {"a": (0, 1), "b": (2, 3)}
    for shape in ((gates,), (gates, 3, 4), (gates[::-1], 2, 7)):
        c = Circuit(regs, *shape)
        assert circuit.circuit_to_json(c) == reference_json(c)


@pytest.mark.parametrize("gate", [
    Gate("ry", (0,), angle=[0.5, [1.5, math.nan]]),
    Gate("ry", (0,), angle={"a": 1}),
    Gate("u", (0,), matrix=np.eye(2), label=("multi", "line")),
    Gate("u", (0,), matrix=np.eye(2), label=None),
    Gate("x", (1,), ((0, np.float64(1.0)),)),
], ids=["list-angle", "dict-angle", "tuple-label", "none-label", "numpy-float-polarity"])
def test_other_values_go_through_json_dumps_at_their_indent(gate):
    c = Circuit({"q": (0, 1)}, [Gate("x", (1,)), gate, gate])
    assert circuit.circuit_to_json(c) == reference_json(c)


def test_numpy_int_qubit_raises_as_json_dumps_does():
    c = Circuit({"q": (0, 1, 2)}, [Gate("ry", (np.int64(2),), ((0, 1),), angle=0.1)])
    with pytest.raises(TypeError) as want:
        reference_json(c)
    with pytest.raises(TypeError, match=str(want.value)):
        circuit.circuit_to_json(c)


# --- export ----------------------------------------------------------------------

def test_circuit_json_deterministic():
    rng = np.random.default_rng(23)
    chain = random_chain(4, 0.7, rng)
    walk = circuit.build_walk(chain, 2)
    text1, text2 = circuit.circuit_to_json(walk), circuit.circuit_to_json(walk)
    assert text1 == text2
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
