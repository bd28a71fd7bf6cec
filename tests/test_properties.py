"""Property tests over random chains: the birth-death kernel against the
per-node loop, against its step-by-step oracle (which never skips a
repeating period), against its matrix and against exact block evolution, and
``oqw steady`` against the per-node loop, the walk kernel against the
per-edge loop it replaced, trace and positivity under evolution, the
dense <-> diagonal boundary shared by the dilation and circuit routes,
the agreement of the exact, dilation and circuit steps, the fused circuit
simulator against the per-gate one, the analytic against the iterated
channel limit, and the windowed channel limit against the per-step one."""

import io
import re
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oqwalk import circuit, core, dilation
from oqwalk.cli import main
from oqwalk.analysis import CYCLE_CHECK, ChainParams, iterate_master
from oqwalk.channels import (
    ChannelRealization,
    coefficient_evolution,
    dephasing_realization,
    depolarizing_realization,
    embed_random_unitary,
    iterate_limit,
    limit_state,
)
from oqwalk.matrixkit import (
    asmatrix,
    haar_unitary,
    random_density,
    random_pure_state,
    trace_distance,
)
import oracles
from oracles import transition_matrix

sizes = st.integers(min_value=2, max_value=40)
omegas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
FEW = settings(max_examples=40, deadline=None)


def loop_master_step(dist, n, w, lam):
    """The per-node loop that the vectorized kernel replaced."""
    out = np.empty(n)
    out[0] = lam * dist[0] + lam * dist[1]
    for m in range(1, n - 1):
        out[m] = w * dist[m - 1] + lam * dist[m + 1]
    out[n - 1] = w * dist[n - 2] + w * dist[n - 1]
    return out


def loop_iterate(dist, p, steps):
    """``loop_master_step`` applied ``steps`` times to each column of ``dist``."""
    columns = np.asarray(dist, dtype=float).reshape(p.n_nodes, -1).T
    out = []
    for col in columns:
        for _ in range(steps):
            col = loop_master_step(col, p.n_nodes, p.omega, p.lam)
        out.append(col)
    return np.array(out).T.reshape(np.shape(dist))


@FEW
@given(n=sizes, omega=omegas, seed=seeds)
def test_master_step_equals_per_node_loop_bitwise(n, omega, seed):
    p = ChainParams(n, omega)
    dist = np.random.default_rng(seed).dirichlet(np.ones(n))
    assert np.array_equal(iterate_master(dist, p, 1),
                          loop_master_step(dist, n, p.omega, p.lam))


@FEW
@given(n=st.integers(2, 200), omega=omegas, steps=st.integers(0, 300),
       columns=st.sampled_from([None, 1, 2, 3]), seed=seeds)
def test_iterate_master_equals_per_node_loop_bitwise(n, omega, steps, columns, seed):
    p = ChainParams(n, omega)
    dist = np.random.default_rng(seed).dirichlet(np.ones(n), size=columns).T
    assert np.array_equal(iterate_master(dist, p, steps), loop_iterate(dist, p, steps))


# step counts just below, at and just above a multiple of CYCLE_CHECK (up to
# 40 of them), where the repeat check runs
cycle_steps = st.builds(lambda k, off: max(0, k * CYCLE_CHECK + off),
                        st.integers(0, 40), st.integers(-1, 1))
omegas_and_ends = st.one_of(st.sampled_from([0.5, 1.0]), omegas)


def master_input(kind, n, rng):
    if kind == "vector":
        return rng.dirichlet(np.ones(n))
    if kind == "signed":    # negative entries give -0.0, which must keep its bits
        return rng.normal(size=n)
    if kind == "matrix":
        return rng.dirichlet(np.ones(n), size=3).T
    return np.eye(n)


@FEW
@given(kind=st.sampled_from(["vector", "signed", "matrix", "identity"]),
       omega=omegas_and_ends, steps=cycle_steps, data=st.data())
def test_iterate_master_equals_stepwise_oracle_bitwise(kind, omega, steps, data):
    # identity inputs are N x N, so they stay small enough to run every step
    n = data.draw(st.integers(2, 64 if kind == "identity" else 300), label="n")
    p = ChainParams(n, omega)
    dist = master_input(kind, n, np.random.default_rng(data.draw(seeds, label="seed")))
    got = iterate_master(dist, p, steps)
    want = oracles.iterate_master(dist, p, steps)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


# chains that settle into a fixed point or a 2-cycle within 44 periods
@pytest.mark.parametrize("n, omega", [(2, 0.5), (3, 1.0), (7, 0.3), (20, 0.5), (50, 0.8),
                                      (100, 0.7)])
@pytest.mark.parametrize("periods, off", [(60, -1), (60, 0), (60, 1), (97, 1)])
def test_iterate_master_skips_settled_periods_bitwise(n, omega, periods, off):
    p, steps = ChainParams(n, omega), periods * CYCLE_CHECK + off
    start = np.eye(n)[0]
    settled = oracles.iterate_master(start, p, steps)
    assert np.array_equal(oracles.iterate_master(settled, p, CYCLE_CHECK), settled)
    assert np.array_equal(iterate_master(start, p, steps), settled)


@FEW
@given(n=st.integers(2, 60), omega=omegas, steps=st.integers(0, 300))
def test_steady_simulated_column_equals_per_node_loop_bitwise(n, omega, steps):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["steady", "--N", str(n), "--omega", repr(omega),
                     "--steps", str(steps)]) == 0
    simulated = [float(line.split(",")[1]) for line in out.getvalue().splitlines()[1:]]
    start = np.zeros(n)
    start[0] = 1.0
    assert np.array_equal(simulated, loop_iterate(start, ChainParams(n, omega), steps))


@FEW
@given(n=sizes, omega=omegas, steps=st.integers(0, 60), seed=seeds)
def test_iterate_master_equals_matrix_power(n, omega, steps, seed):
    p = ChainParams(n, omega)
    dist = np.random.default_rng(seed).dirichlet(np.ones(n))
    expected = np.linalg.matrix_power(transition_matrix(p), steps) @ dist
    assert np.abs(iterate_master(dist, p, steps) - expected).max() <= 1e-12


@FEW
@given(n=sizes, omega=omegas, d=st.sampled_from([2, 3]), steps=st.integers(0, 25),
       data=st.data())
def test_coefficient_column_equals_block_traces(n, omega, d, steps, data):
    rng = np.random.default_rng(data.draw(seeds))
    start = data.draw(st.integers(0, n - 1))
    chain = core.LinearChainSpec(n, omega, [haar_unitary(d, rng) for _ in range(n - 1)])
    coeffs = coefficient_evolution(chain, np.full(n, 1.0 / n), steps)
    initial = core.DiagonalState.pure(random_pure_state(d, rng), start, n)
    exact = core.node_distribution(core.evolve(core.chain_to_spec(chain), initial, steps))
    assert np.abs(coeffs[:, start] - exact).max() <= 1e-10


def random_state(rng, n, d):
    """Diagonal state whose occupied nodes are a random nonempty subset."""
    occupied = [i for i in range(n) if rng.random() < 0.6] or [int(rng.integers(n))]
    weights = rng.dirichlet(np.ones(len(occupied)))
    return core.DiagonalState(n, {i: w * random_density(d, rng)
                                  for i, w in zip(occupied, weights)})


def padded_dims(draw, n, d):
    return (d + draw(st.integers(0, 2)), n + draw(st.integers(0, 3)))


@FEW
@given(n=st.integers(1, 12), d=st.integers(1, 4), padded=st.booleans(), data=st.data())
def test_dense_round_trip_is_exact(n, d, padded, data):
    rng = np.random.default_rng(data.draw(seeds))
    state = random_state(rng, n, d)
    dims = padded_dims(data.draw, n, d) if padded else None
    back = core.DiagonalState.from_dense(state.to_dense(dims), n, d, dims,
                                         trace=state.total_trace())
    for i in range(n):
        assert np.array_equal(back.block(i), state.block(i))


def test_dense_round_trip_qutrit_padded():
    # d = 3 walker on N = 5 nodes, as the circuit registers hold it: 4 x 8
    rng = np.random.default_rng(11)
    state = random_state(rng, 5, 3)
    rho = state.to_dense((4, 8))
    assert rho.shape == (32, 32)
    back = core.DiagonalState.from_dense(rho, 5, 3, (4, 8), trace=state.total_trace())
    for i in range(5):
        assert np.array_equal(back.block(i), state.block(i))


@pytest.mark.parametrize("n,d,dims", [(5, 3, (4, 8)), (5, 2, None), (33, 3, (4, 64)),
                                      (33, 2, None), (1, 2, None)])
def test_dense_round_trip_matches_the_block_loop(n, d, dims):
    rng = np.random.default_rng(12 + n + d)
    state = random_state(rng, n, d)
    rho = state.to_dense(dims)
    assert np.array_equal(rho, oracles.to_dense(state, dims))
    back = core.DiagonalState.from_dense(rho, n, d, dims, trace=state.total_trace())
    assert np.array_equal(back.blocks, state.blocks)
    # the blocks are the state's own array, also where the diagonal slice of
    # rho is already contiguous (one node, no padding)
    assert back.blocks.flags.c_contiguous and back.blocks.flags.writeable
    assert not np.shares_memory(back.blocks, rho)


@FEW
@given(n=st.integers(1, 40), d=st.integers(1, 9), data=st.data())
def test_mapping_and_array_build_the_same_state(n, d, data):
    rng = np.random.default_rng(data.draw(seeds))
    occupied = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1))))
    mapping = {i: random_density(d, rng) / len(occupied) for i in occupied}
    stack = np.zeros((n, d, d), dtype=complex)
    for i, b in mapping.items():
        stack[i] = b
    from_map, from_array = core.DiagonalState(n, mapping), core.DiagonalState(n, stack)
    assert np.array_equal(from_map.blocks, from_array.blocks)
    empty = [i for i in range(n) if i not in mapping]
    assert not np.signbit(from_map.blocks[empty].view(float)).any()
    # node_distribution and total_trace against their per-block loops, bit
    # for bit; d up to 9 reaches numpy's unrolled sums (8 terms and up)
    for state in (from_map, from_array):
        assert core.node_distribution(state) == oracles.block_traces(state)
        assert state.total_trace() == oracles.total_trace(state)


@FEW
@given(n=st.integers(1, 12), d=st.integers(2, 4), data=st.data())
def test_validate_reports_the_block_the_loop_finds(n, d, data):
    rng = np.random.default_rng(data.draw(seeds))
    state = random_state(rng, n, d)
    # a traceless shift that leaves a negative eigenvalue and the trace at 1
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        state.blocks[i, 0, 0] += 2.0
        state.blocks[i, 1, 1] -= 2.0
    found = oracles.first_non_psd(state, core.CONSTRUCTION_TOL)
    if found is None:
        state.validate()
    else:
        node, lo = found
        message = f"block {node} is not PSD (min eigenvalue {lo:.3e})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state.validate()


@FEW
@given(n=st.integers(2, 12), d=st.integers(1, 4), padded=st.booleans(), data=st.data())
def test_planted_cross_node_coherence_raises(n, d, padded, data):
    rng = np.random.default_rng(data.draw(seeds))
    state = random_state(rng, n, d)
    dims = padded_dims(data.draw, n, d) if padded else None
    dw, dn = dims or (d, n)
    rho = state.to_dense(dims).reshape(dw, dn, dw, dn)
    i = data.draw(st.integers(0, dn - 1))
    j = data.draw(st.integers(0, dn - 1).filter(lambda j: j != i))
    a, b = data.draw(st.integers(0, dw - 1)), data.draw(st.integers(0, dw - 1))
    rho[a, i, b, j] = rho[b, j, a, i] = 1e-9
    with pytest.raises(RuntimeError, match="node register left the diagonal form"):
        core.DiagonalState.from_dense(rho.reshape(dw * dn, dw * dn), n, d, dims)


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_dilation_and_circuit_reject_coherence_through_the_shared_check():
    # a Hadamard on the node register of a two-node chain spreads node 0
    # into a superposition of both nodes, which no walk step can produce
    state = core.DiagonalState.pure([1.0, 0.0], 0, 2)
    mixer = np.kron(np.kron(np.eye(2), HADAMARD), np.eye(2))
    dil = dilation.DilationUnitary(mixer, (2, 2, 2), "local")
    with pytest.raises(RuntimeError, match="node register left the diagonal form"):
        dilation.step_via_dilation(dil, state, 0.5)
    circ = circuit.Circuit({"qH": (0,), "qG": (1,)},
                           [circuit.Gate("u", (1,), matrix=HADAMARD)])
    with pytest.raises(RuntimeError, match="node register left the diagonal form"):
        circuit.simulate_density(circ, state)


@FEW
@given(n=st.integers(2, 20), omega=omegas, d=st.sampled_from([2, 3]),
       steps=st.integers(1, 3), data=st.data())
def test_step_equals_dilation_equals_circuit(n, omega, d, steps, data):
    rng = np.random.default_rng(data.draw(seeds))
    chain = core.LinearChainSpec(n, omega, [haar_unitary(d, rng) for _ in range(n - 1)])
    spec = core.chain_to_spec(chain)
    dil = dilation.build_u_loc(chain)
    step_circ = circuit.build_walk(chain, 1)
    direct = via_dil = via_circ = random_state(rng, n, d)
    for _ in range(steps):
        direct = core.step(spec, direct)
        via_dil = dilation.step_via_dilation(dil, via_dil, omega)
        via_circ = circuit.simulate_density(step_circ, via_circ, omega)
        for i in range(n):
            assert trace_distance(direct.block(i), via_dil.block(i)) <= 1e-10
            assert trace_distance(direct.block(i), via_circ.block(i)) <= 1e-10


def walk_qubits(n, d):
    """Live qubits of a simulated walk: walker, node and one ancilla pair."""
    return max(1, (d - 1).bit_length()) + max(1, (n - 1).bit_length()) + 2


@settings(max_examples=20, deadline=None)
@given(n=sizes, d=st.integers(1, 4), order=st.sampled_from(["rb-lb", "lb-rb"]),
       policy=st.sampled_from(["reuse", "fresh"]), data=st.data())
def test_fused_simulation_equals_per_gate_oracle_bitwise(n, d, order, policy, data):
    # every step costs 4^qubits; keep the 10-qubit walks to one step
    most = {10: 1, 9: 2}.get(walk_qubits(n, d), 5)
    steps = data.draw(st.integers(1, most))
    rng = np.random.default_rng(data.draw(seeds))
    chain = core.LinearChainSpec(n, data.draw(omegas),
                                 [haar_unitary(d, rng) for _ in range(n - 1)])
    state = random_state(rng, n, d)
    walk = circuit.build_walk(chain, steps, policy, order)
    got = circuit.simulate_density(walk, state, chain.omega)
    want = oracles.simulate_density(walk, state, chain.omega)
    for i in range(n):
        assert np.array_equal(got.block(i), want.block(i))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 20), d=st.integers(1, 4), order=st.sampled_from(["rb-lb", "lb-rb"]),
       policy=st.sampled_from(["reuse", "fresh"]), data=st.data())
def test_classical_path_equals_per_gate_oracle_bitwise(n, d, order, policy, data):
    # a walk keeps its node register and ancillas classical throughout, so it
    # runs as (2^(g+2), 2^h, 2^h) blocks; the oracle's 4^qubits dense steps
    # limit the 9-qubit walks to two steps
    steps = data.draw(st.integers(2, 2 if walk_qubits(n, d) == 9 else 4))
    rng = np.random.default_rng(data.draw(seeds))
    chain = core.LinearChainSpec(n, data.draw(omegas),
                                 [haar_unitary(d, rng) for _ in range(n - 1)])
    state = random_state(rng, n, d)
    walk = circuit.build_walk(chain, steps, policy, order)
    got = circuit.simulate_density(walk, state, chain.omega)
    assert walk._plan.plan.classical == walk.registers["qG"]
    want = oracles.simulate_density(walk, state, chain.omega)
    assert np.array_equal(got.blocks, want.blocks)


def random_register_circuit(rng, h, g, superpose):
    """Gates over a walker register (h qubits), a node register (g) and one
    ancilla: ``u`` or RY on walker and node qubits, runs of X gates on any
    qubit, and ``measure_nonsel`` or reset on the ancilla, each under random
    controls. ``superpose`` starts with a ``u`` on the last node qubit. Every
    node qubit is measured at the end, so the node register ends diagonal."""
    anc = h + g
    main, qubits = list(range(anc)), list(range(anc + 1))

    def controls(target):
        pool = [q for q in qubits if q != target]
        picked = rng.permutation(pool)[:int(rng.integers(0, 3))]
        return tuple((int(q), int(rng.integers(2))) for q in picked)

    gates = [circuit.Gate("u", (anc - 1,), matrix=haar_unitary(2, rng))] if superpose else []
    for _ in range(int(rng.integers(1, 7))):
        kind = str(rng.choice(["u", "ry", "x", "measure_nonsel", "reset"]))
        if kind in ("measure_nonsel", "reset"):
            gates.append(circuit.Gate(kind, (anc,)))
        elif kind == "x":
            for t in rng.choice(qubits, int(rng.integers(1, 4))):
                gates.append(circuit.Gate("x", (int(t),), controls(t)))
        else:
            t = int(rng.choice(main))
            gates.append(circuit.Gate("u", (t,), controls(t), matrix=haar_unitary(2, rng))
                         if kind == "u" else
                         circuit.Gate("ry", (t,), controls(t), angle=float(rng.uniform(-4, 4))))
    gates += [circuit.Gate("measure_nonsel", (q,)) for q in range(h, anc)]
    return circuit.Circuit({"qH": tuple(main[:h]), "qG": tuple(main[h:]), "qA": (anc,)}, gates)


@FEW
@example(n=4, d=2, superpose=True, seed=1)
@given(n=st.one_of(st.integers(1, 4).map(lambda k: 2 ** k),
                   st.integers(3, 15).filter(lambda n: n & (n - 1))),
       d=st.integers(1, 4), superpose=st.booleans(), seed=seeds)
def test_register_circuits_equal_per_gate_oracle(n, d, superpose, seed):
    # off the walk a circuit may leave node qubits in superposition, so the
    # compiled state can end all-quantum; either route may find mass moved
    # into a padded level, and then both must say so
    rng = np.random.default_rng(seed)
    h, g = max(1, (d - 1).bit_length()), max(1, (n - 1).bit_length())
    circ = random_register_circuit(rng, h, g, superpose)
    state = random_state(rng, n, d)
    outcomes = []
    for simulate in (circuit.simulate_density, oracles.simulate_density):
        try:
            outcomes.append(simulate(circ, state).blocks)
        except RuntimeError as err:
            outcomes.append(str(err).split(" (")[0])
    got, want = outcomes
    if superpose and g >= 2:
        # the last node qubit is measured last, out of its input order
        assert circ._plan.plan.classical == ()
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.abs(got - want).max() <= 1e-13


# --- the walk kernel ---------------------------------------------------------

def loop_step(spec, state):
    """The per-edge loop that the batched ``core.evolve`` kernel replaced."""
    out = {}
    for (i, j), b in spec.jumps.items():
        b = asmatrix(b)
        contrib = b @ state.block(i) @ b.conj().T
        if j in out:
            out[j] += contrib
        else:
            out[j] = contrib
    return core.DiagonalState(spec.n_nodes, out)


def complete_kraus_spec(rng, n, d):
    """Complete graph, every node's jumps the blocks of a random isometry in a
    random target order: in-degree n, each arrival order shuffled."""
    jumps = {}
    for i in range(n):
        iso = haar_unitary(n * d, rng)[:, :d]
        for t, j in enumerate(rng.permutation(n)):
            jumps[(i, int(j))] = iso[t * d:(t + 1) * d, :]
    return core.OqwSpec(n, d, jumps)


def circulant_spec(rng, n, d, weights=(0.5, 0.3, 0.2)):
    """3-regular circulant walk: node i jumps to i + s (mod n), scaled unitaries."""
    return core.OqwSpec(n, d, {(i, (i + s) % n): np.sqrt(w) * haar_unitary(d, rng)
                               for i in range(n) for s, w in enumerate(weights, start=1)})


def start_state(rng, n, d, pure):
    if pure:
        return core.DiagonalState.pure(random_pure_state(d, rng), int(rng.integers(n)), n)
    return random_state(rng, n, d)


def loop_evolve(spec, state, steps):
    for _ in range(steps):
        state = loop_step(spec, state)
    return state


def assert_matches_loop_bitwise(spec, state, steps):
    expected = loop_evolve(spec, state, steps)
    out = core.evolve(spec, state, steps)
    for i in range(spec.n_nodes):
        assert np.array_equal(out.block(i), expected.block(i))
    # the loop assigned each target's first term, so an exactly-zero term (a
    # zero jump at omega = 1) could leave -0.0; the kernel adds into +0.0
    assert repr(core.node_distribution(out)) == repr(
        [p + 0.0 for p in core.node_distribution(expected)])


# the superoperator product (d <= 4) reassociates each B rho B† sum; on
# normalized states every entry stays within this of the loop's
SUPEROPERATOR_TOL = 1e-14


def assert_matches_loop_within_tol(spec, state, steps):
    expected = loop_evolve(spec, state, steps)
    out = core.evolve(spec, state, steps)
    for i in range(spec.n_nodes):
        assert np.abs(out.block(i) - expected.block(i)).max() <= SUPEROPERATOR_TOL


@FEW
@given(n=st.integers(2, 64), omega=omegas, d=st.sampled_from([1, 2, 3, 4]),
       pure=st.booleans(), steps=st.integers(1, 60), seed=seeds)
def test_evolve_matches_edge_loop_within_tol_on_chains(n, omega, d, pure, steps, seed):
    rng = np.random.default_rng(seed)
    chain = core.LinearChainSpec(n, omega, [haar_unitary(d, rng) for _ in range(n - 1)])
    assert_matches_loop_within_tol(core.chain_to_spec(chain), start_state(rng, n, d, pure),
                                   steps)


@FEW
@given(kind=st.sampled_from(["complete", "circulant"]), n=st.integers(5, 9),
       d=st.sampled_from([1, 2, 3, 4]), pure=st.booleans(), steps=st.integers(1, 30),
       seed=seeds)
def test_evolve_matches_edge_loop_within_tol_on_generic_specs(kind, n, d, pure, steps, seed):
    rng = np.random.default_rng(seed)
    spec = (complete_kraus_spec if kind == "complete" else circulant_spec)(rng, n, d)
    assert_matches_loop_within_tol(spec, start_state(rng, n, d, pure), steps)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["chain", "circulant"]), n=st.integers(3, 24), omega=omegas,
       d=st.sampled_from([5, 6]), pure=st.booleans(), steps=st.integers(1, 30), seed=seeds)
def test_evolve_equals_edge_loop_bitwise_for_large_walkers(kind, n, omega, d, pure, steps,
                                                           seed):
    # walkers above SUPEROPERATOR_MAX_DIM keep the two batched d×d products
    rng = np.random.default_rng(seed)
    if kind == "chain":
        chain = core.LinearChainSpec(n, omega, [haar_unitary(d, rng) for _ in range(n - 1)])
        spec = core.chain_to_spec(chain)
    else:
        spec = circulant_spec(rng, n, d)
    assert_matches_loop_bitwise(spec, start_state(rng, n, d, pure), steps)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_compiled_superoperator_applies_b_rho_b_dagger(d):
    # complete_kraus_spec's jumps are isometry blocks, neither unitary nor
    # Hermitian, so a transposed or unconjugated factor would show
    rng = np.random.default_rng(40 + d)
    spec = complete_kraus_spec(rng, 4, d)
    position, sources, ops, ranks = spec._compiled
    assert len(ops) == 1 and ops[0].shape == (16, d * d, d * d)
    node = np.argsort(position)
    rho = random_density(d, rng) + 0.3j * rng.standard_normal((d, d))
    for start, stop in ranks:
        for k in range(start, stop):
            b = spec.jumps[(node[sources[k]], node[k - start])]
            got = (ops[0][k] @ rho.reshape(-1)).reshape(d, d)
            assert np.abs(got - b @ rho @ b.conj().T).max() <= SUPEROPERATOR_TOL


def assert_trace_and_positivity(spec, state, steps):
    for _ in range(steps):
        state = core.evolve(spec, state, 1)
        assert abs(state.total_trace() - 1.0) <= 1e-12
        for block in state.blocks:
            assert np.linalg.eigvalsh((block + block.conj().T) / 2).min() >= -1e-10


@FEW
@given(n=sizes, omega=omegas, d=st.sampled_from([2, 3]), pure=st.booleans(),
       steps=st.integers(1, 40), seed=seeds)
def test_evolve_preserves_trace_and_positivity_on_chains(n, omega, d, pure, steps, seed):
    rng = np.random.default_rng(seed)
    chain = core.LinearChainSpec(n, omega, [haar_unitary(d, rng) for _ in range(n - 1)])
    assert_trace_and_positivity(core.chain_to_spec(chain), start_state(rng, n, d, pure), steps)


@FEW
@given(n=st.integers(5, 9), d=st.sampled_from([1, 2, 3]), pure=st.booleans(),
       steps=st.integers(1, 40), seed=seeds)
def test_evolve_preserves_trace_and_positivity_on_generic_specs(n, d, pure, steps, seed):
    rng = np.random.default_rng(seed)
    assert_trace_and_positivity(complete_kraus_spec(rng, n, d),
                                start_state(rng, n, d, pure), steps)


# --- channel limits ----------------------------------------------------------

@FEW
@given(pairs=st.integers(1, 6), d=st.sampled_from([2, 3]), seed=seeds)
def test_analytic_limit_equals_iterated_limit(pairs, d, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(pairs))
    real = embed_random_unitary([(q, haar_unitary(d, rng)) for q in weights],
                                random_density(d, rng))
    analytic = limit_state(real, mode="analytic")
    # the stopping settings of `oqw channel`: iteration stops once steps move
    # the state by less than tol, which leaves it up to ~5 tol from the limit
    iterated = limit_state(real, mode="iterate", max_steps=2000, tol=1e-12)
    assert trace_distance(analytic, iterated) <= 1e-10


def limit_outcome(solver, real, max_steps, tol):
    """(block, steps) from ``solver``, or the type and text of its error; any
    warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            block, steps = solver(real, max_steps, tol)
        except (RuntimeError, ValueError) as exc:
            return type(exc), str(exc)
    return block.tolist(), steps


def fading_readout(rng, n, omega, d):
    """All mass starts on the readout node of a chain biased to the left, so
    the readout's occupation decays until post-selection is undefined."""
    chain = core.LinearChainSpec(n, omega, [haar_unitary(d, rng) for _ in range(n - 1)])
    rho = random_density(d, rng)
    return ChannelRealization(chain, core.chain_to_spec(chain),
                              core.DiagonalState(n, {n - 1: rho}), n - 1, rho)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["dephasing", "depolarizing", "mixture", "fading"]),
       max_steps=st.one_of(st.integers(1, 40), st.just(2000)),
       tol=st.sampled_from([0.0, 1e-14, 1e-12, 1e-8, 1e-3]), data=st.data())
def test_iterate_limit_equals_stepwise_oracle(kind, max_steps, tol, data):
    rng = np.random.default_rng(data.draw(seeds, label="seed"))
    param = data.draw(st.floats(0.0, 1.0), label="param")
    omega = data.draw(st.floats(0.05, 0.95), label="omega")
    rho = random_density(2, rng)
    if kind == "dephasing":
        real = dephasing_realization(param, rho, omega)
    elif kind == "depolarizing":
        real = depolarizing_realization(param, rho, omega)
    elif kind == "mixture":
        d = data.draw(st.sampled_from([2, 3]), label="d")
        weights = rng.dirichlet(np.ones(data.draw(st.integers(1, 6), label="pairs")))
        real = embed_random_unitary([(q, haar_unitary(d, rng)) for q in weights],
                                    random_density(d, rng))
    else:
        real = fading_readout(rng, data.draw(st.integers(3, 8), label="n"),
                              data.draw(st.floats(1e-4, 1e-2), label="bias"), 2)
    got = limit_outcome(iterate_limit, real, max_steps, tol)
    assert got == limit_outcome(oracles.iterate_limit, real, max_steps, tol)


def test_iterate_limit_raises_the_oracle_errors():
    rng = np.random.default_rng(5)
    real = fading_readout(rng, 6, 1e-3, 2)
    faded = limit_outcome(iterate_limit, real, 2000, 0.0)
    assert faded[0] is ValueError and faded[1].startswith("cannot post-select node 5:")
    assert faded == limit_outcome(oracles.iterate_limit, real, 2000, 0.0)
    real = depolarizing_realization(0.3, random_density(2, rng), 0.6)
    stuck = limit_outcome(iterate_limit, real, 7, 1e-12)
    assert stuck[0] is RuntimeError and stuck[1].startswith("no convergence within 7 steps")
    assert stuck == limit_outcome(oracles.iterate_limit, real, 7, 1e-12)
