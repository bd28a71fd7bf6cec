import dataclasses
import json
import operator
import tracemalloc

import numpy as np
import pytest

from oqwalk import channels, core, dilation
from oqwalk.analysis import ChainParams
from oqwalk.matrixkit import X, haar_unitaries, haar_unitary, projector, random_pure_state
from oracles import power_iterate, random_density, transition_matrix


def random_chain(n, omega, rng, dim=2):
    return core.LinearChainSpec(n, omega, [haar_unitary(dim, rng) for _ in range(n - 1)])


def random_valid_spec(n, dim, rng, max_out=3):
    """Random walk spec: each node's jumps are blocks of a random isometry,
    so the completeness sum holds by construction."""
    jumps = {}
    for i in range(n):
        k = int(rng.integers(1, min(max_out, n) + 1))
        iso = haar_unitary(k * dim, rng)[:, :dim]
        targets = rng.choice(n, size=k, replace=False)
        for t, j in enumerate(targets):
            jumps[(i, int(j))] = iso[t * dim:(t + 1) * dim, :]
    return core.OqwSpec(n, dim, jumps)


def random_diagonal_state(n, dim, rng):
    weights = rng.dirichlet(np.ones(n))
    return core.DiagonalState(n, {i: weights[i] * random_density(dim, rng)
                                  for i in range(n)})


def test_validate_single_node_identity():
    spec = core.OqwSpec(1, 2, {(0, 0): np.eye(2, dtype=complex)})
    assert core.validate(spec) == []


def test_validate_chain_example():
    # two-node chain at omega = 2/3: node 1 carries sqrt(1/3) U0-dagger left
    # and sqrt(2/3) U1 right
    rng = np.random.default_rng(0)
    chain = random_chain(3, 2 / 3, rng)
    spec = core.chain_to_spec(chain)
    assert core.validate(spec) == []
    np.testing.assert_allclose(spec.jump(1, 0),
                               np.sqrt(1 / 3) * chain.unitaries[0].conj().T, atol=1e-15)
    np.testing.assert_allclose(spec.jump(1, 2),
                               np.sqrt(2 / 3) * chain.unitaries[1], atol=1e-15)


def test_validate_reports_deviation():
    spec = core.OqwSpec(1, 2, {(0, 0): np.eye(2, dtype=complex)})
    bad = core.OqwSpec(2, 2, {(0, 0): np.eye(2, dtype=complex),
                              (0, 1): np.eye(2, dtype=complex),
                              (1, 1): np.eye(2, dtype=complex)})
    violations = core.validate(bad)
    assert len(violations) == 1
    node, deviation = violations[0]
    assert node == 0
    assert abs(deviation - 1.0) < 1e-12
    assert core.validate(spec) == []


def test_step_two_node_closed_form():
    rng = np.random.default_rng(1)
    u = haar_unitary(2, rng)
    chain = core.LinearChainSpec(2, 0.61, [u])
    spec = core.chain_to_spec(chain)
    p = 0.3
    rho0, rho1 = random_density(2, rng), random_density(2, rng)
    state = core.DiagonalState(2, {0: p * rho0, 1: (1 - p) * rho1})
    lam, w = chain.lam, chain.omega
    out = core.step(spec, state)
    np.testing.assert_allclose(
        out.block(0), lam * p * rho0 + (1 - p) * lam * (u.conj().T @ rho1 @ u), atol=1e-14)
    np.testing.assert_allclose(
        out.block(1), w * p * (u @ rho0 @ u.conj().T) + w * (1 - p) * rho1, atol=1e-14)


def test_step_trace_preserved_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        spec = random_valid_spec(n, 2, rng)
        state = random_diagonal_state(n, 2, rng)
        out = core.step(spec, state)
        assert abs(out.total_trace() - 1.0) <= 1e-12


def test_step_dim_mismatch():
    rng = np.random.default_rng(3)
    spec = core.chain_to_spec(random_chain(3, 0.5, rng))
    state = random_diagonal_state(2, 2, rng)
    with pytest.raises(ValueError):
        core.step(spec, state)


def test_evolve_zero_steps_identity():
    rng = np.random.default_rng(4)
    spec = core.chain_to_spec(random_chain(4, 0.7, rng))
    state = random_diagonal_state(4, 2, rng)
    out = core.evolve(spec, state, 0)
    assert out is state


def test_two_node_stabilizes_after_one_step():
    rng = np.random.default_rng(5)
    for _ in range(10):
        chain = random_chain(2, rng.uniform(0.1, 0.9), rng)
        spec = core.chain_to_spec(chain)
        state = random_diagonal_state(2, 2, rng)
        one = core.evolve(spec, state, 1)
        two = core.evolve(spec, state, 2)
        for i in range(2):
            np.testing.assert_allclose(two.block(i), one.block(i), atol=1e-12)


def test_chain_blocks_follow_classical_weights():
    # pure start: node i holds p_i^(n) U_{i-1}...U_0 |psi><psi| U†...U†
    rng = np.random.default_rng(6)
    chain = random_chain(5, 2 / 3, rng)
    spec = core.chain_to_spec(chain)
    psi = random_pure_state(2, rng)
    state = core.DiagonalState.pure(psi, 0, 5)
    t = transition_matrix(ChainParams(5, 2 / 3))
    weights = np.eye(5)[0]
    for n in range(1, 8):
        state = core.step(spec, state)
        weights = t @ weights
        vec = psi.copy()
        for i in range(5):
            np.testing.assert_allclose(state.block(i), weights[i] * projector(vec),
                                       atol=1e-12)
            if i < 4:
                vec = chain.unitaries[i] @ vec


def test_classical_reduction():
    rng = np.random.default_rng(7)
    chain = random_chain(6, 0.58, rng)
    spec = core.chain_to_spec(chain)
    state = random_diagonal_state(6, 2, rng)
    start = np.array(core.node_distribution(state))
    evolved = core.evolve(spec, state, 9)
    expected = power_iterate(transition_matrix(ChainParams(6, 0.58)), start, 9)
    np.testing.assert_allclose(core.node_distribution(evolved), expected, atol=1e-12)


def test_positivity_preserved():
    rng = np.random.default_rng(8)
    spec = core.chain_to_spec(random_chain(4, 0.66, rng))
    state = random_diagonal_state(4, 2, rng)
    evolved = core.evolve(spec, state, 12)
    for block in evolved.blocks:
        assert np.linalg.eigvalsh((block + block.conj().T) / 2).min() >= -1e-10


def test_node_distribution():
    state = core.DiagonalState.pure([1, 0], 0, 3)
    assert core.node_distribution(state) == [1.0, 0.0, 0.0]


def test_node_distribution_steady_limit():
    chain = core.LinearChainSpec(20, 2 / 3, [np.eye(2)] * 19)
    spec = core.chain_to_spec(chain)
    state = core.evolve(spec, core.DiagonalState.pure([1, 0], 0, 20), 1000)
    dist = np.array(core.node_distribution(state))
    assert abs(dist.sum() - 1.0) < 1e-10
    a = 2.0
    closed = a ** np.arange(20) * (a - 1) / (a ** 20 - 1)
    np.testing.assert_allclose(dist, closed, atol=1e-6)


def test_chain_to_spec_x_chain():
    chain = core.LinearChainSpec(2, 2 / 3, [X])
    spec = core.chain_to_spec(chain)
    np.testing.assert_allclose(spec.jump(0, 0), np.sqrt(1 / 3) * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(spec.jump(0, 1), np.sqrt(2 / 3) * X, atol=1e-15)
    np.testing.assert_allclose(spec.jump(1, 0), np.sqrt(1 / 3) * X, atol=1e-15)
    np.testing.assert_allclose(spec.jump(1, 1), np.sqrt(2 / 3) * np.eye(2), atol=1e-15)
    assert core.validate(spec) == []


def test_chain_to_spec_random_chains_valid():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        chain = random_chain(n, rng.uniform(0.05, 0.95), rng)
        assert core.validate(core.chain_to_spec(chain)) == []


def test_deterministic_right_jump():
    rng = np.random.default_rng(10)
    chain = random_chain(2, 1.0, rng)
    spec = core.chain_to_spec(chain)
    out = core.step(spec, core.DiagonalState.pure([1, 0], 0, 2))
    dist = core.node_distribution(out)
    assert abs(dist[1] - 1.0) < 1e-14


def test_linear_chain_validation():
    with pytest.raises(ValueError):
        core.LinearChainSpec(1, 0.5, [])
    with pytest.raises(ValueError):
        core.LinearChainSpec(2, 1.5, [np.eye(2)])
    with pytest.raises(ValueError):
        core.LinearChainSpec(2, 0.5, [np.diag([1.0, 0.5])])
    with pytest.raises(ValueError):
        core.LinearChainSpec(3, 0.5, [np.eye(2)])


@pytest.mark.parametrize("faults, message", [
    ({2: "scale", 4: "scale"}, "matrix 2 is not unitary"),
    ({1: "scale", 3: "shape"}, "matrix 1 is not unitary"),
    ({1: "shape", 3: "scale"}, r"unitary 1 has shape \(3, 3\), expected \(2, 2\)"),
    ({0: "nan"}, "matrix 0 is not unitary"),
], ids=["first-of-two", "unitarity-before-shape", "shape-before-unitarity", "nan"])
def test_linear_chain_names_its_first_faulty_matrix(faults, message):
    us = list(haar_unitaries(5, 2, np.random.default_rng(13)))
    for k, fault in faults.items():
        us[k] = {"scale": us[k] * (1 + 1e-9), "shape": np.eye(3),
                 "nan": np.full((2, 2), np.nan)}[fault]
    with pytest.raises(ValueError, match=message):
        core.LinearChainSpec(6, 0.5, us)


def test_spec_json_round_trip():
    rng = np.random.default_rng(11)
    spec = random_valid_spec(4, 2, rng)
    back = core.spec_from_json(core.spec_to_json(spec))
    assert back.n_nodes == spec.n_nodes and back.walker_dim == spec.walker_dim
    assert set(back.jumps) == set(spec.jumps)
    for key in spec.jumps:
        assert np.array_equal(back.jumps[key], spec.jumps[key])


def test_chain_json_round_trip():
    rng = np.random.default_rng(12)
    chain = random_chain(4, 0.625, rng)
    back = core.chain_from_json(core.chain_to_json(chain))
    assert back.n_nodes == chain.n_nodes
    assert back.omega == chain.omega
    for u1, u2 in zip(back.unitaries, chain.unitaries):
        assert np.array_equal(u1, u2)


CHAIN_DOC = {"N": 2, "omega": 0.5,
             "unitaries": [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]}


@pytest.mark.parametrize("reader", [core.chain_from_json, core.chain_fields_from_json])
@pytest.mark.parametrize("key", ["N", "omega", "unitaries"])
def test_chain_readers_name_a_missing_key(reader, key):
    doc = {k: v for k, v in CHAIN_DOC.items() if k != key}
    with pytest.raises(ValueError, match=rf"spec file is missing the keys \['{key}'\]"):
        reader(json.dumps(doc))


@pytest.mark.parametrize("reader", [core.chain_from_json, core.chain_fields_from_json])
@pytest.mark.parametrize("text, fault", [
    ("{not json", "spec file is not valid JSON"),
    ("[]", r"missing the keys \['N', 'omega', 'unitaries'\]"),
    (json.dumps({**CHAIN_DOC, "omega": "0.5"}), "spec omega must be a number"),
    (json.dumps({**CHAIN_DOC, "unitaries": [{"re": [[1.0]]}]}), "list of re/im matrices"),
    (json.dumps({**CHAIN_DOC, "N": 3}), "got N=3 and 1 unitaries"),
    (json.dumps({**CHAIN_DOC, "omega": True}), "spec omega must be a number"),
    (json.dumps({**CHAIN_DOC, "omega": False}), "spec omega must be a number"),
    (json.dumps({**CHAIN_DOC, "N": True, "unitaries": []}), "integer N >= 2"),
], ids=["malformed", "not-an-object", "omega-string", "missing-im", "count", "omega-true",
        "omega-false", "N-true"])
def test_chain_readers_raise_value_errors(reader, text, fault):
    with pytest.raises(ValueError, match=fault):
        reader(text)


def test_chain_fields_reader_leaves_unitarity_to_the_caller():
    doc = {**CHAIN_DOC, "unitaries": [{"re": [[1.0, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}]}
    n, omega, mats = core.chain_fields_from_json(json.dumps(doc))
    assert (n, omega) == (2, 0.5) and np.array_equal(mats[0], np.diag([1.0, 0.5]))
    with pytest.raises(ValueError, match="matrix 0 is not unitary"):
        core.chain_from_json(json.dumps(doc))


@pytest.mark.parametrize("key", ["N", "dH", "jumps", "from", "to", "re", "im"])
def test_spec_reader_names_a_missing_key(key):
    doc = json.loads(core.spec_to_json(core.chain_to_spec(core.LinearChainSpec(2, 0.5, [X]))))
    if key in doc:
        del doc[key]
    else:
        del doc["jumps"][1][key]
    with pytest.raises(ValueError, match=rf"spec file is missing the keys \['{key}'\]"):
        core.spec_from_json(json.dumps(doc))


def test_spec_json_schema_fields():
    chain = core.LinearChainSpec(2, 0.5, [X])
    obj = json.loads(core.spec_to_json(core.chain_to_spec(chain)))
    assert obj["N"] == 2 and obj["dH"] == 2
    entry = obj["jumps"][0]
    assert {"from", "to", "re", "im"} <= set(entry)


def test_empty_state_has_no_walker_dim():
    state = core.DiagonalState(3, {})
    with pytest.raises(ValueError, match="no blocks"):
        state.walker_dim
    with pytest.raises(ValueError, match="no blocks"):
        state.block(0)


@pytest.mark.parametrize("node", [7, -1])
def test_block_rejects_a_node_outside_the_walk(node):
    state = core.DiagonalState.pure([1, 0], 0, 3)
    with pytest.raises(ValueError, match=rf"^node {node} is not in 0\.\.2$"):
        state.block(node)


def test_states_compare_by_identity():
    a = core.DiagonalState(2, {0: np.eye(2) / 2})
    b = core.DiagonalState(2, {0: np.eye(2) / 2})
    assert a == a and a != b


@pytest.mark.parametrize("make", [
    lambda: core.LinearChainSpec(3, 0.7, [X, X]),
    lambda: core.OqwSpec(2, 2, {(0, 1): np.eye(2), (1, 0): np.eye(2)}),
    lambda: dilation.sznagy_unitary(np.eye(2) / 2),
    lambda: channels.dephasing_realization(0.3, np.eye(2) / 2),
], ids=["LinearChainSpec", "OqwSpec", "DilationUnitary", "ChannelRealization"])
def test_array_holding_values_compare_and_hash_by_identity(make):
    a, twin = make(), make()
    # equal arrays, yet neither == nor `in` compares them
    assert a == a and not a == twin and a != twin
    assert twin not in [a] and a in [twin, a]
    assert len({a, twin, a}) == 2


@pytest.mark.parametrize("make, change, error", [
    # a jump changed after a first evolve failed core.validate while evolve
    # kept stepping the edges it had compiled
    (lambda: core.chain_to_spec(core.LinearChainSpec(3, 0.7, [X, X])),
     lambda spec: operator.setitem(spec.jumps, (0, 1), 5 * X), TypeError),
    (lambda: dilation.sznagy_unitary(np.eye(2) / 2),
     lambda dil: setattr(dil, "matrix", np.zeros((4, 4))), dataclasses.FrozenInstanceError),
    (lambda: channels.dephasing_realization(0.3, np.eye(2) / 2),
     lambda real: setattr(real, "target_node", 0), dataclasses.FrozenInstanceError),
], ids=["OqwSpec", "DilationUnitary", "ChannelRealization"])
def test_checked_values_cannot_change_after_construction(make, change, error):
    with pytest.raises(error):
        change(make())


def test_to_dense_rejects_registers_too_small():
    state = core.DiagonalState.pure([1.0, 0.0, 0.0], 0, 5)
    with pytest.raises(ValueError, match="do not fit"):
        state.to_dense((2, 8))


def test_from_dense_rejects_mass_in_padded_levels():
    # qutrit walker on 5 nodes in a 4 x 8 register; one unit of mass sits on
    # the unused fourth walker level of node 2
    state = core.DiagonalState.pure([1.0, 0.0, 0.0], 0, 5)
    rho = state.to_dense((4, 8)).reshape(4, 8, 4, 8)
    rho[0, 0, 0, 0], rho[3, 2, 3, 2] = 0.5, 0.5
    rho = rho.reshape(32, 32)
    out = core.DiagonalState.from_dense(rho, 5, 3, (4, 8))
    assert core.node_distribution(out) == [0.5, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(RuntimeError, match="leaked into padded sectors"):
        core.DiagonalState.from_dense(rho, 5, 3, (4, 8), trace=1.0)


def test_chain_jumps_skip_the_unitarity_check():
    broken = np.diag([1.0, 0.5]).astype(complex)
    spec = core.OqwSpec(2, 2, core.chain_jumps(0.6, [broken]))
    assert [node for node, _ in core.validate(spec)] == [0, 1]
    with pytest.raises(ValueError, match="not unitary"):
        core.LinearChainSpec(2, 0.6, [broken])


# --- state construction checks ----------------------------------------------

@pytest.mark.parametrize("node", [3, 5, -1])
def test_pure_state_rejects_a_node_outside_the_walk(node):
    with pytest.raises(ValueError, match=f"block key {node} is not a node in 0..2"):
        core.DiagonalState.pure([1, 0], node, 3)


@pytest.mark.parametrize("key", ["0", 1.0, None])
def test_state_rejects_keys_that_are_not_ints(key):
    with pytest.raises(ValueError, match="is not a node in 0..2"):
        core.DiagonalState(3, {key: np.eye(2, dtype=complex) / 2})


def test_state_accepts_numpy_integer_keys():
    state = core.DiagonalState(2, {np.int64(1): np.eye(2, dtype=complex) / 2})
    assert core.node_distribution(state) == [0.0, 1.0]


def test_state_rejects_blocks_of_mixed_sizes():
    blocks = {0: np.eye(2, dtype=complex) / 4, 2: np.eye(3, dtype=complex) / 4}
    with pytest.raises(ValueError, match=r"block 2 has shape \(3, 3\), but block 0 "
                                         r"has shape \(2, 2\)"):
        core.DiagonalState(3, blocks)


@pytest.mark.parametrize("block", [np.ones((2, 3)), np.ones(2), np.ones((2, 2, 2))],
                         ids=["non-square", "vector", "three-axes"])
def test_state_rejects_blocks_that_are_not_square_matrices(block):
    with pytest.raises(ValueError, match="block 1 has shape .* expected a square matrix"):
        core.DiagonalState(2, {0: np.eye(2), 1: block})


@pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3), (3, 4), (3, 2, 2, 2)])
def test_state_rejects_block_arrays_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"blocks have shape .*, expected \(3, d, d\)"):
        core.DiagonalState(3, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("n_nodes", [0, -1])
def test_state_rejects_fewer_than_one_node(n_nodes):
    with pytest.raises(ValueError, match="^need at least one node$"):
        core.DiagonalState(n_nodes, {})


@pytest.mark.parametrize("blocks, kind", [(np.zeros((3, 2, 2), dtype=int), "int64"),
                                          (np.zeros((3, 2, 2)), "float64"),
                                          (np.zeros((3, 2, 2), dtype=np.complex64), "complex64"),
                                          (np.zeros((3, 2, 2)).tolist(), "list")])
def test_state_rejects_block_arrays_that_are_not_complex128(blocks, kind):
    with pytest.raises(ValueError, match=f"^blocks must be a complex128 array, got {kind}$"):
        core.DiagonalState(3, blocks)


def test_from_dense_of_a_real_matrix_holds_complex_blocks():
    rho = core.DiagonalState.pure([1.0, 0.0], 1, 3).to_dense().real
    out = core.DiagonalState.from_dense(rho, 3, 2)
    assert out.blocks.dtype == complex and out.blocks.flags.c_contiguous
    assert core.node_distribution(out) == [0.0, 1.0, 0.0]


# --- kernel edge cases -------------------------------------------------------

def test_step_mismatch_messages():
    rng = np.random.default_rng(14)
    spec = core.chain_to_spec(random_chain(3, 0.5, rng))
    with pytest.raises(ValueError, match="^state has 2 nodes, spec has 3$"):
        core.step(spec, random_diagonal_state(2, 2, rng))
    with pytest.raises(ValueError, match=r"^state walker dim 3 != spec dim 2$"):
        core.evolve(spec, random_diagonal_state(3, 3, rng), 4)


def test_spec_without_edges_returns_an_empty_state():
    spec = core.OqwSpec(3, 2, {})
    state = core.DiagonalState.pure([1, 0], 1, 3)
    for out in (core.step(spec, state), core.evolve(spec, state, 3)):
        assert out.n_nodes == 3 and out.blocks.shape == (3, 2, 2)
        assert not out.blocks.any()
        assert not np.signbit(out.blocks.view(float)).any()


def test_source_without_outgoing_edges_loses_its_mass():
    eye = np.eye(2, dtype=complex)
    spec = core.OqwSpec(3, 2, {(0, 1): eye, (1, 2): eye})
    state = core.DiagonalState(3, {0: 0.25 * eye, 2: 0.25 * eye})
    out = core.step(spec, state)
    assert core.node_distribution(out) == [0.0, 0.5, 0.0]
    assert core.node_distribution(core.step(spec, out)) == [0.0, 0.0, 0.5]


def test_evolve_returns_every_node_with_positive_zeros():
    # from node 0 one step reaches nodes 0 and 1 only; the others hold
    # blocks of +0.0, never -0.0, so their probabilities print as 0.0
    rng = np.random.default_rng(15)
    for omega in (0.6, 1.0):
        spec = core.chain_to_spec(random_chain(6, omega, rng))
        out = core.step(spec, core.DiagonalState.pure(random_pure_state(2, rng), 0, 6))
        assert out.blocks.shape == (6, 2, 2)
        for i in range(2, 6):
            block = out.block(i)
            assert not block.any()
            assert not np.signbit(block.view(float)).any()


def test_evolve_from_a_node_outside_the_walk_fails_before_stepping():
    rng = np.random.default_rng(16)
    spec = core.chain_to_spec(random_chain(4, 0.6, rng))
    with pytest.raises(ValueError, match="block key -1 is not a node"):
        core.evolve(spec, core.DiagonalState.pure([1, 0], -1, 4), 2)


def test_evolve_keeps_large_walkers_out_of_superoperator_memory():
    # a d = 16 chain as superoperators would hold E·d⁴ complex entries,
    # 16 MiB here; the (B, B†) pair it keeps is 1/128 of that
    n, d = 8, 16
    rng = np.random.default_rng(17)
    spec = core.chain_to_spec(random_chain(n, 0.6, rng, dim=d))
    state = core.DiagonalState.pure(random_pure_state(d, rng), 0, n)
    superoperators = len(spec.jumps) * d ** 4 * 16
    tracemalloc.start()
    try:
        core.evolve(spec, state, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < superoperators / 16
