"""Property tests over random chains: the birth-death kernel against its
matrix and against exact block evolution, the dense <-> diagonal
boundary shared by the dilation and circuit routes, and the agreement of
the exact, dilation and circuit steps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqwalk import circuit, core, dilation
from oqwalk.analysis import ChainParams, iterate_master, master_step, transition_matrix
from oqwalk.channels import coefficient_evolution
from oqwalk.matrixkit import haar_unitary, random_density, random_pure_state, trace_distance

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


@FEW
@given(n=sizes, omega=omegas, seed=seeds)
def test_master_step_equals_per_node_loop_bitwise(n, omega, seed):
    p = ChainParams(n, omega)
    dist = np.random.default_rng(seed).dirichlet(np.ones(n))
    assert np.array_equal(master_step(dist, p), loop_master_step(dist, n, p.omega, p.lam))


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
