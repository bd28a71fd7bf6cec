import time
import tracemalloc

import numpy as np
import pytest

from oqwalk import circuit, core, dilation
from oqwalk.cli import main
from oqwalk.matrixkit import (
    I2,
    X,
    haar_unitary,
    is_unitary,
    projector,
    random_density,
    random_pure_state,
    trace_distance,
)
import oracles
from oracles import partial_trace


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


# --- stacked-Kraus dilation -------------------------------------------------

def test_stinespring_single_unitary():
    rng = np.random.default_rng(0)
    u = haar_unitary(2, rng)
    dil = dilation.stinespring_unitary([u])
    assert dil.factor_dims == (1, 2)
    np.testing.assert_allclose(dil.matrix, u, atol=1e-12)


def test_stinespring_reproduces_channel():
    ks = [np.sqrt(0.75) * I2, np.sqrt(0.25) * X]
    dil = dilation.stinespring_unitary(ks)
    rng = np.random.default_rng(1)
    rho = random_density(2, rng)
    big = np.zeros((4, 4), dtype=complex)
    big[:2, :2] = rho  # ancilla starts in |0>
    evolved = dil.matrix @ big @ dil.matrix.conj().T
    reduced = partial_trace(evolved, [2, 2], keep=[1])
    direct = sum(k @ rho @ k.conj().T for k in ks)
    assert trace_distance(reduced, direct) <= 1e-12


def test_stinespring_action_on_zero_sector():
    ks = [np.sqrt(0.75) * I2, np.sqrt(0.25) * X]
    dil = dilation.stinespring_unitary(ks)
    rng = np.random.default_rng(2)
    psi = random_pure_state(2, rng)
    out = dil.matrix @ np.kron(basis_vector(2, 0), psi)
    expected = np.concatenate([ks[0] @ psi, ks[1] @ psi])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_stinespring_full_chain_kraus_dimension():
    # four-node chain: 2|G| = 8 edge operators on the 8-dimensional
    # walker-node space, so the dilation acts on 64 dimensions per step
    rng = np.random.default_rng(3)
    chain = random_chain(4, 0.6, rng)
    spec = core.chain_to_spec(chain)
    kraus = []
    for (i, j), b in sorted(spec.jumps.items()):
        hop = np.zeros((4, 4), dtype=complex)
        hop[j, i] = 1.0
        kraus.append(np.kron(b, hop))
    assert len(kraus) == 8
    dil = dilation.stinespring_unitary(kraus)
    assert dil.matrix.shape == (64, 64)
    assert dil.factor_dims == (8, 8)


def test_stinespring_rejects_incomplete_kraus():
    with pytest.raises(ValueError, match="completeness"):
        dilation.stinespring_unitary([I2, X])


# --- per-Kraus dilation -------------------------------------------------------

def test_sznagy_identity_and_zero():
    dil = dilation.sznagy_unitary(np.eye(2))
    np.testing.assert_allclose(dil.matrix,
                               np.block([[np.eye(2), np.zeros((2, 2))],
                                         [np.zeros((2, 2)), -np.eye(2)]]), atol=1e-12)
    dil0 = dilation.sznagy_unitary(np.zeros((2, 2)))
    np.testing.assert_allclose(dil0.matrix,
                               np.block([[np.zeros((2, 2)), np.eye(2)],
                                         [np.eye(2), np.zeros((2, 2))]]), atol=1e-12)


def test_sznagy_contraction_block():
    k = np.sqrt(0.25) * X
    dil = dilation.sznagy_unitary(k)
    assert is_unitary(dil.matrix, 1e-9)
    np.testing.assert_allclose(dil.matrix[:2, :2], k, atol=1e-12)


def test_sznagy_rejects_expanding_operator():
    with pytest.raises(ValueError, match="norm"):
        dilation.sznagy_unitary(1.2 * I2)


# --- locality dilation --------------------------------------------------------

def test_u_loc_interior_action():
    chain = core.LinearChainSpec(2, 0.5, [X])
    dil = dilation.build_u_loc(chain)
    rng = np.random.default_rng(4)
    psi = random_pure_state(2, rng)
    vec = np.kron(np.kron(psi, basis_vector(2, 0)), basis_vector(2, 1))
    expected = np.kron(np.kron(X @ psi, basis_vector(2, 1)), basis_vector(2, 1))
    np.testing.assert_allclose(dil.matrix @ vec, expected, atol=1e-12)


def test_u_loc_boundary_flips_ancilla():
    rng = np.random.default_rng(5)
    chain = random_chain(4, 0.7, rng)
    dil = dilation.build_u_loc(chain)
    psi = random_pure_state(2, rng)
    vec = np.kron(np.kron(psi, basis_vector(4, 3)), basis_vector(2, 1))
    expected = np.kron(np.kron(psi, basis_vector(4, 3)), basis_vector(2, 0))
    np.testing.assert_allclose(dil.matrix @ vec, expected, atol=1e-12)
    vec0 = np.kron(np.kron(psi, basis_vector(4, 0)), basis_vector(2, 0))
    expected0 = np.kron(np.kron(psi, basis_vector(4, 0)), basis_vector(2, 1))
    np.testing.assert_allclose(dil.matrix @ vec0, expected0, atol=1e-12)


def test_u_loc_unitary_random_chains():
    rng = np.random.default_rng(6)
    for n in (2, 4, 8):
        for _ in range(17):
            chain = random_chain(n, rng.uniform(0.05, 0.95), rng)
            dil = dilation.build_u_loc(chain)
            assert is_unitary(dil.matrix, 1e-10)


def test_step_via_dilation_matches_direct():
    rng = np.random.default_rng(7)
    for n in (2, 4, 8):
        chain = random_chain(n, rng.uniform(0.2, 0.9), rng)
        spec = core.chain_to_spec(chain)
        dil = dilation.build_u_loc(chain)
        state = random_diagonal_state(n, 2, rng)
        direct = state
        for _ in range(10):
            state = dilation.step_via_dilation(dil, state, chain.omega)
            direct = core.step(spec, direct)
            for i in range(n):
                assert trace_distance(state.block(i), direct.block(i)) <= 1e-12
            assert abs(state.total_trace() - 1.0) <= 1e-12


def test_step_via_dilation_deterministic_transport():
    rng = np.random.default_rng(8)
    chain = random_chain(4, 1.0, rng)
    dil = dilation.build_u_loc(chain)
    psi = random_pure_state(2, rng)
    state = core.DiagonalState.pure(psi, 0, 4)
    for k in range(3):
        state = dilation.step_via_dilation(dil, state, 1.0)
        psi = chain.unitaries[k] @ psi
        np.testing.assert_allclose(state.block(k + 1), projector(psi), atol=1e-12)


def test_step_via_dilation_rejects_wrong_kind():
    dil = dilation.sznagy_unitary(np.eye(2))
    with pytest.raises(ValueError, match="locality"):
        dilation.step_via_dilation(dil, core.DiagonalState.pure([1, 0], 0, 2), 0.5)


# --- generalized locality dilation ---------------------------------------------

def circulant_spec(rng, weights=(0.5, 0.3, 0.2)):
    """3-regular circulant walk on 4 nodes with scaled-unitary jumps."""
    jumps = {}
    for i in range(4):
        for s, w in enumerate(weights, start=1):
            jumps[(i, (i + s) % 4)] = np.sqrt(w) * haar_unitary(2, rng)
    return core.OqwSpec(4, 2, jumps)


def test_generalized_matches_u_loc_on_chain():
    rng = np.random.default_rng(9)
    chain = random_chain(4, 0.7, rng)
    spec = core.chain_to_spec(chain)
    gen = dilation.build_generalized(spec, 2)
    loc = dilation.build_u_loc(chain)
    assert gen.matrix.shape == loc.matrix.shape
    state = random_diagonal_state(4, 2, rng)
    via_gen = dilation.step_via_dilation(gen, state, chain.omega)
    via_loc = dilation.step_via_dilation(loc, state, chain.omega)
    for i in range(4):
        assert trace_distance(via_gen.block(i), via_loc.block(i)) <= 1e-12


def test_generalized_circulant_against_direct():
    rng = np.random.default_rng(10)
    spec = circulant_spec(rng)
    assert core.validate(spec) == []
    gen = dilation.build_generalized(spec, 3)
    assert is_unitary(gen.matrix, 1e-10)
    state = random_diagonal_state(4, 2, rng)
    direct = state
    for _ in range(5):
        state = dilation.step_via_dilation(gen, state, 0.0)
        direct = core.step(spec, direct)
        for i in range(4):
            assert trace_distance(state.block(i), direct.block(i)) <= 1e-10


def test_generalized_worst_case_is_stinespring_sized():
    # complete graph with k = N jumps per node: the ancilla is as large as
    # the graph and the dimension collapses to the grouped-Kraus stacked
    # dilation, k * (dH * N)
    rng = np.random.default_rng(11)
    n, weights = 4, (0.4, 0.3, 0.2, 0.1)
    jumps = {}
    for i in range(n):
        for s, w in enumerate(weights):
            jumps[(i, (i + s) % n)] = np.sqrt(w) * haar_unitary(2, rng)
    spec = core.OqwSpec(n, 2, jumps)
    gen = dilation.build_generalized(spec, n)
    assert int(np.prod(gen.factor_dims)) == n * (2 * n)
    state = random_diagonal_state(n, 2, rng)
    via_gen = dilation.step_via_dilation(gen, state, 0.0)
    direct = core.step(spec, state)
    for i in range(n):
        assert trace_distance(via_gen.block(i), direct.block(i)) <= 1e-10


def test_generalized_degenerate_weights():
    rng = np.random.default_rng(12)
    spec = circulant_spec(rng, weights=(1 / 3, 1 / 3, 1 / 3))
    gen = dilation.build_generalized(spec, 3)
    assert is_unitary(gen.matrix, 1e-10)
    state = random_diagonal_state(4, 2, rng)
    via_gen = dilation.step_via_dilation(gen, state, 0.0)
    direct = core.step(spec, state)
    for i in range(4):
        assert trace_distance(via_gen.block(i), direct.block(i)) <= 1e-10


def test_generalized_condition_errors():
    rng = np.random.default_rng(13)
    good = circulant_spec(rng)
    with pytest.raises(ValueError, match="condition 1"):
        dilation.build_generalized(good, 2)
    not_unitary = dict(good.jumps)
    not_unitary[(0, 1)] = np.sqrt(0.5) * np.diag([1.0, 0.5])
    with pytest.raises(ValueError, match="condition 2"):
        dilation.build_generalized(core.OqwSpec(4, 2, not_unitary), 3)
    mismatched = dict(good.jumps)
    mismatched[(0, 1)] = np.sqrt(0.45) * haar_unitary(2, rng)
    mismatched[(0, 2)] = np.sqrt(0.35) * haar_unitary(2, rng)
    with pytest.raises(ValueError, match="condition 3"):
        dilation.build_generalized(core.OqwSpec(4, 2, mismatched), 3)


# --- block writer against the kron-sum construction ----------------------------

def kron_u_loc(chain):
    """Reference: the locality dilation as a sum of full-size kron products."""
    n, d = chain.n_nodes, chain.walker_dim
    eye_d = np.eye(d, dtype=complex)

    def hop(j, i):
        e = np.zeros((n, n), dtype=complex)
        e[j, i] = 1.0
        return e

    def abit(b_out, b_in):
        e = np.zeros((2, 2), dtype=complex)
        e[b_out, b_in] = 1.0
        return e

    u = np.zeros((d * n * 2,) * 2, dtype=complex)
    for i in range(n - 1):
        u += np.kron(np.kron(chain.unitaries[i], hop(i + 1, i)), abit(1, 1))
    for i in range(1, n):
        u += np.kron(np.kron(chain.unitaries[i - 1].conj().T, hop(i - 1, i)), abit(0, 0))
    u += np.kron(np.kron(eye_d, hop(n - 1, n - 1)), abit(0, 1))
    u += np.kron(np.kron(eye_d, hop(0, 0)), abit(1, 0))
    return u


def kron_generalized(spec, k):
    """Reference: the generalized dilation's level labelling and its kron-sum
    assembly; returns (matrix, ancilla weights)."""
    n, d = spec.n_nodes, spec.walker_dim
    per_node = {i: [] for i in range(n)}
    for (i, j), b in spec.jumps.items():
        if np.abs(b).max() > 0.0:
            w, unit = dilation._scaled_unitary_decomposition(b)
            per_node[i].append((w, j, unit))
    for i in range(n):
        per_node[i].sort(key=lambda t: (-t[0], t[1]))
    taken = {j: set() for j in range(n)}
    out_level = {}
    for lvl, i, j in sorted((lvl, i, j) for i in range(n)
                            for lvl, (_, j, _) in enumerate(per_node[i])):
        slot = lvl
        while slot in taken[j]:
            slot = (slot + 1) % k
        taken[j].add(slot)
        out_level[(i, lvl)] = slot
    u = np.zeros((d * n * k,) * 2, dtype=complex)
    for i in range(n):
        for lvl, (_, j, uij) in enumerate(per_node[i]):
            hop = np.zeros((n, n), dtype=complex)
            hop[j, i] = 1.0
            lev = np.zeros((k, k), dtype=complex)
            lev[out_level[(i, lvl)], lvl] = 1.0
            u += np.kron(np.kron(uij, hop), lev)
    return u, tuple(t[0] for t in per_node[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 33, 64])
def test_u_loc_blocks_equal_kron_sum(n):
    rng = np.random.default_rng(200 + n)
    for d in (1, 2, 3, 4):
        unitaries = [haar_unitary(d, rng) for _ in range(n - 1)]
        # neither construction reads omega, so one reference serves all four
        reference = kron_u_loc(core.LinearChainSpec(n, 0.5, unitaries))
        for omega in (0.0, 0.5, 0.7, 1.0):
            chain = core.LinearChainSpec(n, omega, unitaries)
            assert np.array_equal(dilation.build_u_loc(chain).matrix, reference)


def regular_spec(rng, n, weights, dim=2):
    """len(weights)-regular circulant walk: node i jumps to i + s (mod n)."""
    return core.OqwSpec(n, dim, {(i, (i + s) % n): np.sqrt(w) * haar_unitary(dim, rng)
                                 for i in range(n) for s, w in enumerate(weights, start=1)})


def generalized_specs():
    rng = np.random.default_rng(300)
    for n in (2, 3, 4, 5, 8, 16, 33):
        for d in (1, 2, 3):
            for omega in (0.5, 0.7):
                spec = core.chain_to_spec(random_chain(n, omega, rng, d))
                yield pytest.param(spec, 2, id=f"chain-{n}-{d}-{omega}")
    for n in (4, 5, 7):
        for weights in ((0.5, 0.3, 0.2), (1 / 3,) * 3, (0.4, 0.4, 0.2)):
            yield pytest.param(regular_spec(rng, n, weights), 3,
                               id=f"circulant-{n}-" + "-".join(f"{w:.2f}" for w in weights))
    for n in (3, 4, 5):
        weights = np.arange(n, 0, -1) / (n * (n + 1) / 2)
        yield pytest.param(regular_spec(rng, n, weights), n, id=f"complete-{n}")


@pytest.mark.parametrize("spec, k", generalized_specs())
def test_generalized_blocks_equal_kron_sum(spec, k):
    gen = dilation.build_generalized(spec, k)
    matrix, weights = kron_generalized(spec, k)
    assert np.array_equal(gen.matrix, matrix)
    assert gen.ancilla_weights == weights


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 33, 64, 100])
def test_kraus_step_equals_full_space_step_on_chains(n):
    # one dilation per chain serves every omega
    rng = np.random.default_rng(400 + n)
    for d in (1, 2, 3, 4):
        dil = dilation.build_u_loc(random_chain(n, 0.5, rng, d))
        for omega in (0.0, 0.5, 0.7, 1.0):
            got = want = random_diagonal_state(n, d, rng)
            for _ in range(3):
                got = dilation.step_via_dilation(dil, got, omega)
                want = oracles.step_via_dilation(dil, want, omega)
                assert np.abs(got.blocks - want.blocks).max() <= 1e-15


@pytest.mark.parametrize("spec, k", [p for p in generalized_specs() if p.values[1] >= 3])
def test_kraus_step_equals_full_space_step_on_generalized_walks(spec, k):
    rng = np.random.default_rng(500 + spec.n_nodes)
    dil = dilation.build_generalized(spec, k)
    got = want = random_diagonal_state(spec.n_nodes, spec.walker_dim, rng)
    for _ in range(3):
        got = dilation.step_via_dilation(dil, got, 0.5)
        want = oracles.step_via_dilation(dil, want, 0.5)
        assert np.abs(got.blocks - want.blocks).max() <= 1e-15


def test_dense_cap_refuses_before_allocating():
    n = dilation.MAX_DENSE_DIM // 4 + 1
    dil = dilation.build_u_loc(core.LinearChainSpec(n, 0.6, [np.eye(2)] * (n - 1)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match=f"dimension {4 * n} exceeds the dense cap "
                                             f"{dilation.MAX_DENSE_DIM}"):
            dil.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < (4 * n) ** 2  # a 16 bytes/entry matrix was never allocated


def test_verify_over_the_dense_cap_passes(capsys):
    # the step runs on the block table, so the cap on the dense view does
    # not reach verify
    n = dilation.MAX_DENSE_DIM // 4 + 1
    start = time.perf_counter()
    code = main(["verify", "--N", str(n), "--steps", "1"])
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert '"pass": true' in captured.out


@pytest.mark.parametrize("n, d", [(1000, 2), (1024, 2), (4096, 2), (1024, 3)])
def test_routes_agree_past_the_dense_view_cap(n, d):
    # every dilation here is larger than the dense view's cap of 2048
    rng = np.random.default_rng(600 + n + d)
    chain = random_chain(n, rng.uniform(0.2, 0.8), rng, d)
    spec = core.chain_to_spec(chain)
    dil = dilation.build_u_loc(chain)
    step_circ = circuit.build_walk(chain, 1)
    direct = via_dil = via_circ = random_diagonal_state(n, d, rng)
    for _ in range(2):
        direct = core.step(spec, direct)
        via_dil = dilation.step_via_dilation(dil, via_dil, chain.omega)
        via_circ = circuit.simulate_density(step_circ, via_circ, chain.omega)
        for via in (via_dil, via_circ):
            assert trace_distance(direct.blocks, via.blocks).max() <= 1e-10


# --- resource accounting --------------------------------------------------------

@pytest.mark.parametrize("g,n,stine,local", [
    (4, 21, 1344, 672),
    (8, 21, 5376, 1344),
    (16, 41, 41984, 5248),
])
def test_resource_dimension_totals(g, n, stine, local):
    assert dilation.resource_report("stinespring", 2, g, n).dim_total == stine
    assert dilation.resource_report("local", 2, g, n).dim_total == local


def test_resource_sznagy_duplicated_ancillas():
    rep = dilation.resource_report("sznagy", 2, 4, 21)
    assert rep.dim_per_step == 2 * dilation.resource_report("stinespring", 2, 4, 21).dim_per_step


def test_resource_cnot_scaling_exponents():
    sizes = [4, 8, 16, 32]
    from oqwalk.analysis import fit_loglog_slope
    stine = fit_loglog_slope(sizes, [dilation.resource_report("stinespring", 2, g, 10).cnot_estimate
                                     for g in sizes])
    local = fit_loglog_slope(sizes, [dilation.resource_report("local", 2, g, 10).cnot_estimate
                                     for g in sizes])
    assert abs(stine - 3.0) < 1e-9
    assert abs(local - 2.0) < 1e-9
    assert abs((stine - local) - 1.0) < 1e-9


def test_resource_csv_row():
    rep = dilation.resource_report("local", 2, 4, 21)
    assert rep.csv_row() == "local,2,4,21,672,1344,1344"


def test_resource_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        dilation.resource_report("qubitization", 2, 4, 21)


def test_dilation_unitary_validation():
    with pytest.raises(ValueError, match="unitary"):
        dilation.DilationUnitary(np.diag([1.0, 0.5]), (2,), "local")


# --- the block-wise unitarity check of the locality dilations ---------------------

def u_loc_entries(chain):
    """The blocks of ``build_u_loc``: (source, target, level_in, level_out, U)."""
    n, d = chain.n_nodes, chain.walker_dim
    entries = [(i, i + 1, 1, 1, chain.unitaries[i]) for i in range(n - 1)]
    entries += [(i, i - 1, 0, 0, chain.unitaries[i - 1].conj().T) for i in range(1, n)]
    return entries + [(n - 1, n - 1, 1, 0, np.eye(d)), (0, 0, 0, 1, np.eye(d))]


def dense_assembly(dims, entries):
    """Reference: the blocks written into a dense matrix with no check."""
    u = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for source, target, level_in, level_out, op in entries:
        u.reshape(dims * 2)[:, target, level_out, :, source, level_in] = op
    return u


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 3), (8, 2), (16, 4)])
def test_block_check_accepts_what_the_dense_check_accepts(n, d):
    chain = random_chain(n, 0.6, np.random.default_rng(400 + n), dim=d)
    dil = dilation._locality_unitary((d, n, 2), u_loc_entries(chain), "local")
    assert np.array_equal(dil.matrix, dense_assembly((d, n, 2), u_loc_entries(chain)))
    assert is_unitary(dil.matrix, dilation.UNITARY_TOL)
    assert np.array_equal(dil.matrix, dilation.build_u_loc(chain).matrix)


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 3), (8, 2)])
def test_block_check_rejects_a_non_unitary_block(n, d):
    chain = random_chain(n, 0.6, np.random.default_rng(410 + n), dim=d)
    entries = u_loc_entries(chain)
    source, target, level_in, level_out, op = entries[n // 2]
    entries[n // 2] = (source, target, level_in, level_out, op * (1 + 1e-9))
    assert not is_unitary(dense_assembly((d, n, 2), entries), dilation.UNITARY_TOL)
    with pytest.raises(ValueError, match=rf"not unitary: block \({source}, {level_in}\)"):
        dilation._locality_unitary((d, n, 2), entries, "local")


def test_block_check_rejects_a_nan_block():
    chain = random_chain(3, 0.6, np.random.default_rng(415), dim=2)
    entries = u_loc_entries(chain)
    source, target, level_in, level_out, op = entries[1]
    entries[1] = (source, target, level_in, level_out, np.full_like(op, np.nan))
    with pytest.raises(ValueError, match=rf"not unitary: block \({source}, {level_in}\)"):
        dilation._locality_unitary((2, 3, 2), entries, "local")


@pytest.mark.parametrize("n, d", [(2, 1), (3, 2), (5, 3), (8, 2)])
def test_block_check_rejects_two_blocks_with_one_output(n, d):
    chain = random_chain(n, 0.6, np.random.default_rng(420 + n), dim=d)
    entries = u_loc_entries(chain)
    # the right boundary's hold now lands on node n-1, level 1, where the
    # move from node n-2 already lands
    source, _, level_in, _, op = entries[-2]
    entries[-2] = (source, n - 1, level_in, 1, op)
    assert not is_unitary(dense_assembly((d, n, 2), entries), dilation.UNITARY_TOL)
    with pytest.raises(ValueError, match="one to one"):
        dilation._locality_unitary((d, n, 2), entries, "local")


def test_directly_built_locality_dilation_keeps_the_dense_check():
    with pytest.raises(ValueError, match="not unitary"):
        dilation.DilationUnitary(np.diag([1.0, 0.5, 1.0, 1.0]), (1, 2, 2), "local")
