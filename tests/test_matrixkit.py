import numpy as np
import pytest

from oqwalk.matrixkit import (
    I2,
    X,
    Z,
    complete_isometry,
    dagger,
    haar_unitaries,
    haar_unitary,
    is_unitary,
    projector,
    psd_sqrt,
    random_pure_state,
    trace_distance,
    unitary_deviation,
)
import oracles
from oracles import partial_trace, random_density


def test_is_unitary():
    assert is_unitary(np.eye(8), 1e-12)
    theta = 0.7
    ry = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                   [np.sin(theta / 2), np.cos(theta / 2)]])
    assert is_unitary(ry, 1e-12)
    assert not is_unitary(np.diag([1.0, 0.5]), 1e-12)


def test_is_unitary_rejects_non_square():
    with pytest.raises(ValueError):
        is_unitary(np.ones((2, 3)))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_unitary_deviation_decides_each_matrix_of_a_stack_as_alone(d):
    rng = np.random.default_rng(60 + d)
    stack = haar_unitaries(7, d, rng)
    stack[1] *= 1 + 1e-9                    # just outside the default tolerance
    stack[3] *= 1 + 1e-13                   # just inside it
    stack[4] = rng.normal(size=(d, d))
    stack[5, 0, 0] = np.nan
    deviation = unitary_deviation(stack)
    assert deviation.shape == (7,)
    for u, dev in zip(stack, deviation):
        alone = np.abs(u.conj().T @ u - np.eye(d)).max()
        assert dev == pytest.approx(alone, rel=1e-12, abs=1e-15) or np.isnan(alone)
        assert bool(dev <= 1e-10) == is_unitary(u)
    assert [is_unitary(u) for u in stack] == [True, False, True, True, False, False, True]
    assert np.isnan(deviation[5])
    assert unitary_deviation(stack.reshape(7, 1, d, d)).shape == (7, 1)
    assert unitary_deviation(stack[0]).shape == ()


@pytest.mark.parametrize("shape", [(2, 3), (4, 2, 3), (3,)])
def test_unitary_deviation_rejects_non_square(shape):
    with pytest.raises(ValueError, match="square matrices"):
        unitary_deviation(np.ones(shape))


def test_psd_sqrt_basics():
    assert np.allclose(psd_sqrt(I2), I2)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_projector():
    a = 0.25 * (I2 + X)
    s = psd_sqrt(a)
    np.testing.assert_allclose(s @ s, a, atol=1e-9)


def test_psd_sqrt_random_psd():
    rng = np.random.default_rng(42)
    for dim in (2, 3, 8, 17, 32):
        a = random_density(dim, rng) * rng.uniform(0.5, 4.0)
        s = psd_sqrt(a)
        assert np.abs(s - s.conj().T).max() < 1e-12
        np.testing.assert_allclose(s @ s, a, atol=1e-9)


def test_psd_sqrt_rejections():
    with pytest.raises(ValueError):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_partial_trace_product_state():
    rho = np.kron(projector([1, 0]), projector([1, 1] / np.sqrt(2)))
    np.testing.assert_allclose(partial_trace(rho, [2, 2], keep=[0]),
                               projector([1, 0]), atol=1e-14)


def test_partial_trace_bell():
    bell = projector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    for keep in ([0], [1]):
        np.testing.assert_allclose(partial_trace(bell, [2, 2], keep=keep),
                                   np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho = random_density(8, rng)
        reduced = partial_trace(rho, [2, 4], keep=[1])
        assert abs(np.trace(reduced) - np.trace(rho)) < 1e-13


def test_partial_trace_composes():
    rng = np.random.default_rng(2)
    rho = random_density(12, rng)
    two_calls = partial_trace(partial_trace(rho, [2, 3, 2], keep=[0, 1]),
                              [2, 3], keep=[0])
    one_call = partial_trace(rho, [2, 3, 2], keep=[0])
    np.testing.assert_allclose(two_calls, one_call, atol=1e-13)


def test_partial_trace_dim_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), [2, 2], keep=[0])


def test_trace_distance_values():
    rho = projector([1, 0])
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(projector([1, 0]), projector([0, 1])) - 1.0) < 1e-14
    assert abs(trace_distance(projector([1, 0]), np.eye(2) / 2) - 0.5) < 1e-14


def test_trace_distance_metric_properties():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = (random_density(4, rng) for _ in range(3))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-13
        assert trace_distance(a, a) < 1e-13
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-13


def test_trace_distance_dim_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_stacked_trace_distance_equals_per_block_calls_bitwise(n, d):
    rng = np.random.default_rng(10 * n + d)
    a = np.stack([random_density(d, rng) / n for _ in range(n)])
    b = np.stack([random_density(d, rng) / n for _ in range(n)])
    b[0] = a[0]
    got = trace_distance(a, b)
    assert got.shape == (n,)
    assert np.array_equal(got, [trace_distance(x, y) for x, y in zip(a, b)])
    assert got[0] == 0.0
    grid = trace_distance(a.reshape(1, n, d, d), b.reshape(1, n, d, d))
    assert np.array_equal(grid, got.reshape(1, n))


def test_stacked_trace_distance_checks_every_block():
    rng = np.random.default_rng(4)
    a = np.stack([random_density(3, rng) for _ in range(5)])
    b = a.copy()
    b[3, 0, 1] += 1e-6            # one block no longer Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        trace_distance(a, b)
    with pytest.raises(ValueError, match="shape mismatch"):
        trace_distance(a, a[:4])
    with pytest.raises(ValueError, match="Hermitian"):
        trace_distance(np.zeros((5, 2, 3)), np.zeros((5, 2, 3)))
    with pytest.raises(ValueError, match="2-D matrix"):
        trace_distance(np.zeros(3), np.zeros(3))
    assert trace_distance(a[:0], a[:0]).shape == (0,)


def test_complete_isometry_basis_column():
    v = np.zeros((4, 1), dtype=complex)
    v[0, 0] = 1.0
    u = complete_isometry(v)
    assert np.array_equal(u[:, :1], v)
    assert is_unitary(u, 1e-10)


def test_complete_isometry_stacked_kraus():
    # noise-channel Kraus pair stacked into a single column block: acting on
    # |0> x |psi| the completion must branch into both Kraus images
    k0, k1 = np.sqrt(0.75) * I2, np.sqrt(0.25) * X
    v = np.vstack([k0, k1])
    u = complete_isometry(v)
    assert is_unitary(u, 1e-10)
    rng = np.random.default_rng(4)
    psi = random_pure_state(2, rng)
    padded = np.concatenate([psi, np.zeros(2)])
    expected = np.concatenate([k0 @ psi, k1 @ psi])
    np.testing.assert_allclose(u @ padded, expected, atol=1e-12)


def test_complete_isometry_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        dim = rng.integers(2, 9)
        cols = rng.integers(1, dim + 1)
        v = haar_unitary(dim, rng)[:, :cols]
        u = complete_isometry(v)
        assert is_unitary(u, 1e-10)
        assert np.array_equal(u[:, :cols], v)


def test_complete_isometry_rejects_bad_columns():
    with pytest.raises(ValueError, match="orthonormal"):
        complete_isometry(np.array([[1.0], [1.0]]))


def test_dagger():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.array_equal(dagger(m), m.conj().T)


def test_haar_unitary_deterministic():
    u1 = haar_unitary(4, np.random.default_rng(11))
    u2 = haar_unitary(4, np.random.default_rng(11))
    assert np.array_equal(u1, u2)
    assert is_unitary(u1, 1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_haar_unitaries_equal_one_at_a_time_draws_bitwise(dim):
    for count in (1, 3, 7, 31, 127):
        rng, loop = np.random.default_rng(100 * dim + count), np.random.default_rng(100 * dim + count)
        stack = haar_unitaries(count, dim, rng)
        assert stack.shape == (count, dim, dim)
        for u in stack:
            assert np.array_equal(u, oracles.haar_unitary(dim, loop))
        # both used the same draws, so the generators are left in one state
        assert rng.random() == loop.random()


def test_z_on_plus():
    plus = projector([1, 1] / np.sqrt(2))
    minus = projector([1, -1] / np.sqrt(2))
    np.testing.assert_allclose(Z @ plus @ Z, minus, atol=1e-15)
