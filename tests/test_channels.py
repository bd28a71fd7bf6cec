import dataclasses

import numpy as np
import pytest

from oqwalk import channels, circuit, core, dilation
from oqwalk.analysis import ChainParams, steady_state
from oqwalk.matrixkit import (
    I2,
    X,
    Y,
    Z,
    haar_unitary,
    projector,
    random_density,
    random_pure_state,
    trace_distance,
)
from oracles import transition_matrix

PLUS = projector(np.array([1, 1]) / np.sqrt(2))
MINUS = projector(np.array([1, -1]) / np.sqrt(2))


def identity_chain(n, omega=0.5):
    return core.LinearChainSpec(n, omega, [np.eye(2)] * (n - 1))


def test_coefficient_evolution_starts_at_identity():
    a = channels.coefficient_evolution(identity_chain(4), np.ones(4) / 4, 0)
    assert np.array_equal(a, np.eye(4))


def test_coefficient_evolution_matches_transition_matrix():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        omega = rng.uniform(0.1, 0.9)
        steps = int(rng.integers(1, 12))
        chain = identity_chain(n, omega)
        a = channels.coefficient_evolution(chain, np.ones(n) / n, steps)
        t = np.linalg.matrix_power(transition_matrix(ChainParams(n, omega)), steps)
        for j in range(n):
            np.testing.assert_allclose(a[:, j], t @ np.eye(n)[j], atol=1e-15)


def test_coefficient_evolution_long_run_limit():
    # every column converges to the stationary occupation of the row node
    chain = identity_chain(8, 2 / 3)
    a = channels.coefficient_evolution(chain, np.ones(8) / 8, 2000)
    x = steady_state(ChainParams(8, 2 / 3))
    for j in range(8):
        np.testing.assert_allclose(a[:, j], x, atol=1e-8)


def test_coefficient_evolution_rejects_bad_masses():
    with pytest.raises(ValueError):
        channels.coefficient_evolution(identity_chain(3), [0.5, 0.2, 0.2], 1)


def test_postselect():
    state = core.DiagonalState(2, {0: 0.25 * I2})
    out = channels.postselect(state, 0)
    np.testing.assert_allclose(out, 0.5 * I2, atol=1e-15)
    assert abs(np.trace(out) - 1.0) < 1e-14
    with pytest.raises(ValueError, match="post-select"):
        channels.postselect(state, 1)


@pytest.mark.parametrize("node", [7, -1])
def test_postselect_rejects_a_node_outside_the_walk(node):
    state = core.DiagonalState(3, {0: 0.5 * I2, 2: 0.5 * I2})
    with pytest.raises(ValueError, match=r"is not in 0\.\.2"):
        channels.postselect(state, node)


@pytest.mark.parametrize("p,rho,expected", [
    (0.0, PLUS, PLUS),
    (1.0, PLUS, MINUS),
    (0.5, PLUS, np.eye(2) / 2),
])
def test_dephasing_special_cases(p, rho, expected):
    real = channels.dephasing_realization(p, rho)
    np.testing.assert_allclose(channels.limit_state(real), expected, atol=1e-14)


def test_dephasing_one_step_is_channel_output():
    rng = np.random.default_rng(1)
    for p in (0.1, 0.37, 0.8):
        rho = projector(random_pure_state(2, rng))
        real = channels.dephasing_realization(p, rho, omega=0.6)
        after = core.step(real.spec, real.initial)
        out = channels.postselect(after, 1)
        np.testing.assert_allclose(out, (1 - p) * rho + p * (Z @ rho @ Z), atol=1e-14)


def test_dephasing_converges_in_one_step():
    real = channels.dephasing_realization(0.3, PLUS)
    iterated, steps = channels.iterate_limit(real)
    assert steps == 1
    np.testing.assert_allclose(iterated, channels.limit_state(real), atol=1e-14)


@pytest.mark.parametrize("lam,rho,expected", [
    (0.0, PLUS, PLUS),
    (1.0, PLUS, np.eye(2) / 2),
    (0.4, projector([1, 0]), np.diag([0.8, 0.2])),
])
def test_depolarizing_special_cases(lam, rho, expected):
    real = channels.depolarizing_realization(lam, np.asarray(rho, dtype=complex))
    np.testing.assert_allclose(channels.limit_state(real), expected, atol=1e-14)


def test_depolarizing_matches_mixture_form():
    rng = np.random.default_rng(2)
    for lam in (0.15, 0.4, 0.9):
        rho = random_density(2, rng)
        real = channels.depolarizing_realization(lam, rho)
        np.testing.assert_allclose(channels.limit_state(real),
                                   (1 - lam) * rho + lam * np.eye(2) / 2, atol=1e-13)


def test_depolarizing_iterate_agrees_with_analytic():
    real = channels.depolarizing_realization(0.4, PLUS)
    iterated = channels.limit_state(real, "iterate", max_steps=500, tol=1e-10)
    assert trace_distance(iterated, channels.limit_state(real)) <= 1e-9


def test_iterated_limit_defaults_reach_the_analytic_limit():
    # six pairs, d=2, seed 10: the worst of 720 random-unitary draws under
    # the former defaults (500 steps, tol 1e-10), which stopped 3.6e-10 away
    rng = np.random.default_rng(10)
    weights = rng.dirichlet(np.ones(6))
    real = channels.embed_random_unitary([(q, haar_unitary(2, rng)) for q in weights],
                                         random_density(2, rng))
    assert trace_distance(channels.limit_state(real, "iterate"),
                          channels.limit_state(real, "analytic")) <= 1e-10


def test_iterate_waits_for_mass_to_arrive():
    # all weight on the first node of a three-node chain: the readout node
    # is empty after one step and becomes populated later
    rng = np.random.default_rng(20)
    rho = random_density(2, rng)
    pairs = [(1.0, haar_unitary(2, rng)), (0.0, I2), (0.0, Z)]
    real = channels.embed_random_unitary(pairs, rho)
    iterated, steps = channels.iterate_limit(real, max_steps=2000, tol=1e-12)
    assert steps >= 2
    assert trace_distance(iterated, real.analytic_limit) <= 1e-10


def test_iterate_reports_nonconvergence():
    real = channels.depolarizing_realization(0.4, PLUS, omega=0.5)
    with pytest.raises(RuntimeError, match="convergence"):
        channels.iterate_limit(real, max_steps=3, tol=1e-30)


def test_embed_single_pair():
    rng = np.random.default_rng(3)
    rho = random_density(2, rng)
    real = channels.embed_random_unitary([(1.0, np.eye(2))], rho)
    np.testing.assert_allclose(channels.limit_state(real), rho, atol=1e-14)


def test_embed_reproduces_dephasing():
    rng = np.random.default_rng(4)
    rho = projector(random_pure_state(2, rng))
    for p in np.linspace(0, 1, 11):
        via_embed = channels.limit_state(
            channels.embed_random_unitary([(1 - p, I2), (p, Z)], rho))
        via_dephasing = channels.limit_state(channels.dephasing_realization(p, rho))
        np.testing.assert_allclose(via_embed, via_dephasing, atol=1e-13)


def test_embed_four_pauli_mix_equals_depolarizing():
    rng = np.random.default_rng(5)
    rho = random_density(2, rng)
    lam = 0.62
    pairs = [(1 - 3 * lam / 4, I2), (lam / 4, X), (lam / 4, Y), (lam / 4, Z)]
    via_embed = channels.limit_state(channels.embed_random_unitary(pairs, rho))
    depol = channels.depolarizing_realization(lam, rho)
    assert trace_distance(via_embed, depol.analytic_limit) <= 1e-12


def test_embed_validation():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError, match="sum"):
        channels.embed_random_unitary([(0.6, I2), (0.6, Z)], rho)
    with pytest.raises(ValueError, match="unitary"):
        channels.embed_random_unitary([(1.0, np.diag([1.0, 0.5]))], rho)
    with pytest.raises(ValueError, match="non-negative"):
        channels.embed_random_unitary([(1.5, I2), (-0.5, Z)], rho)


def test_embed_qutrit_walker():
    rng = np.random.default_rng(6)
    rho = random_density(3, rng)
    pairs = [(0.5, haar_unitary(3, rng)), (0.3, haar_unitary(3, rng)),
             (0.2, haar_unitary(3, rng))]
    real = channels.embed_random_unitary(pairs, rho)
    expected = sum(q * v @ rho @ v.conj().T for q, v in pairs)
    np.testing.assert_allclose(channels.limit_state(real), expected, atol=1e-13)
    iterated = channels.limit_state(real, "iterate", max_steps=2000, tol=1e-12)
    assert trace_distance(iterated, expected) <= 1e-8


def test_limits_do_not_depend_on_omega():
    rng = np.random.default_rng(7)
    rho = projector(random_pure_state(2, rng))
    omegas = (0.5, 0.6, 0.7, 0.9)
    deph = [channels.limit_state(channels.dephasing_realization(0.3, rho, w), "iterate",
                                 max_steps=2000, tol=1e-13) for w in omegas]
    depol = [channels.limit_state(channels.depolarizing_realization(0.4, rho, w), "iterate",
                                  max_steps=5000, tol=1e-13) for w in omegas]
    for group in (deph, depol):
        for other in group[1:]:
            assert trace_distance(group[0], other) <= 1e-12


def test_analytic_limits_are_states():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(m))
        pairs = [(weights[i], haar_unitary(2, rng)) for i in range(m)]
        real = channels.embed_random_unitary(pairs, random_density(2, rng))
        limit = channels.limit_state(real)
        assert abs(np.trace(limit).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh((limit + limit.conj().T) / 2).min() >= -1e-12


def test_embedded_maps_are_unital():
    # feeding the maximally mixed state returns it unchanged
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(m))
        pairs = [(weights[i], haar_unitary(2, rng)) for i in range(m)]
        real = channels.embed_random_unitary(pairs, np.eye(2) / 2)
        assert trace_distance(channels.limit_state(real), np.eye(2) / 2) <= 1e-12


def test_nonconvergence_message_reports_last_delta():
    real = channels.depolarizing_realization(0.4, PLUS, omega=0.5)
    with pytest.raises(RuntimeError) as info:
        channels.iterate_limit(real, max_steps=4, tol=1e-30)
    # the last delta is the trace distance between the post-selected states
    # of steps 3 and 4
    state = core.evolve(real.spec, real.initial, 3)
    prev = channels.postselect(state, 2)
    cur = channels.postselect(core.step(real.spec, state), 2)
    assert f"last delta {trace_distance(cur, prev):.3e} vs tol 1e-30" in str(info.value)


def loop_analytic_limit(real):
    """The per-node product rebuild that the backward sweep replaced."""
    chain, n = real.chain, real.chain.n_nodes
    d = real.initial.walker_dim
    out = np.zeros((d, d), dtype=complex)
    for j in range(n):
        u = np.eye(d, dtype=complex)
        for k in range(j, n - 1):
            u = chain.unitaries[k] @ u
        out += u @ real.initial.block(j) @ u.conj().T
    return out


def test_analytic_limit_sweep_matches_per_node_products():
    rng = np.random.default_rng(7)
    rho = random_density(2, rng)
    weights = rng.dirichlet(np.ones(200))
    real = channels.embed_random_unitary(
        [(q, haar_unitary(2, rng)) for q in weights], rho)
    # the same initial blocks pushed through a Haar chain, so the products
    # between a node and the target are not all the identity
    haar = dataclasses.replace(real, chain=core.LinearChainSpec(
        200, 0.5, [haar_unitary(2, rng) for _ in range(199)]))
    for case in (real, haar):
        assert np.abs(channels.limit_state(case) - loop_analytic_limit(case)).max() <= 1e-12


# --- the realizations through the circuit and the dilation ----------------------

def route_realizations():
    rng = np.random.default_rng(40)
    for omega in (0.3, 0.5, 0.8):
        for p in (0.0, 0.3, 0.7, 1.0):
            real = channels.dephasing_realization(p, random_density(2, rng), omega)
            yield pytest.param(real, id=f"dephasing-{p}-{omega}")
        for lam in (0.1, 0.4, 1.0):
            real = channels.depolarizing_realization(lam, random_density(2, rng), omega)
            yield pytest.param(real, id=f"depolarizing-{lam}-{omega}")
    # d = 3 runs the circuit on padded walker sectors, and 3, 5 or 6 nodes
    # on a padded node register
    for d in (2, 3):
        for m in range(1, 7):
            pairs = [(q, haar_unitary(d, rng)) for q in rng.dirichlet(np.ones(m))]
            yield pytest.param(channels.embed_random_unitary(pairs, random_density(d, rng)),
                               id=f"embed-{m}-d{d}")


@pytest.mark.parametrize("real", route_realizations())
def test_realization_runs_through_every_route(real):
    # each route's state equals core.evolve's at every step, and at the step
    # iterate_limit stops at, each post-selects to the channel's output
    _, steps = channels.iterate_limit(real)
    omega = real.chain.omega
    step_circ = circuit.build_walk(real.chain, 1)
    dil = dilation.build_u_loc(real.chain)
    direct = via_circ = via_dil = real.initial
    for _ in range(steps):
        direct = core.evolve(real.spec, direct, 1)
        via_circ = circuit.simulate_density(step_circ, via_circ, omega)
        via_dil = dilation.step_via_dilation(dil, via_dil, omega)
        for via in (via_circ, via_dil):
            assert np.abs(via.blocks - direct.blocks).max() <= 1e-12
    for state in (direct, via_circ, via_dil):
        limit = channels.postselect(state, real.target_node)
        assert trace_distance(limit, real.analytic_limit) <= 1e-10
