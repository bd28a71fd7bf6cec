"""Dense complex-matrix kernels shared by every other module.

All operators and density matrices are plain ``numpy`` arrays of complex
numbers in row-major order. Functions here are pure: they never mutate
their inputs and are safe to call from multiple threads.
"""

from __future__ import annotations

import numpy as np

# Pauli matrices, used all over the test suite and the channel builders.
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

DEFAULT_TOL = 1e-10


def asmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex ndarray without copying when possible."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return asmatrix(a).conj().T


def unitary_deviation(u) -> np.ndarray:
    """``max |U†U - I|`` for each matrix U of a (..., d, d) stack, in one
    batched product; a 2-D input gives one value. nan where U holds a nan."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"unitarity is only defined for square matrices, got {u.shape}")
    gram = u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])
    return np.abs(gram).max(axis=(-2, -1))


def is_unitary(u, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``max |u†u - I|`` is at most ``tol``. Rejects non-square input."""
    return unitary_deviation(asmatrix(u)) <= tol


def psd_sqrt(a, herm_tol: float = 1e-8, eig_floor: float = -1e-10) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in ``[eig_floor, 0)`` are clamped to zero; anything below
    ``eig_floor`` means the input is not PSD and is rejected. Needed for the
    defect operators sqrt(I - K K†), whose spectra dip slightly below zero
    when ``norm(K)`` is close to 1.
    """
    a = asmatrix(a)
    dev = np.abs(a - a.conj().T).max()
    if dev > herm_tol:
        raise ValueError(f"psd_sqrt requires a Hermitian matrix (deviation {dev:.3e})")
    vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
    if vals.min() < eig_floor:
        raise ValueError(f"matrix is not PSD: min eigenvalue {vals.min():.3e}")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return (root + root.conj().T) / 2


def trace_distance(a, b):
    """Half the trace norm of (a - b), via eigenvalues of the difference.

    ``a`` and ``b`` may also be stacks of matrices, shape (..., d, d): the
    result is then an array with one distance per block, equal to the 2-D
    call on that block, and every block must pass the Hermitian check.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim < 2:
        raise ValueError(f"expected a 2-D matrix or a stack of them, got shape {a.shape}")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    herm = diff.swapaxes(-1, -2).conj()
    if a.shape[-1] != a.shape[-2] or np.abs(diff - herm).max(initial=0.0) > 1e-8:
        raise ValueError("trace_distance requires Hermitian operands")
    dist = 0.5 * np.abs(np.linalg.eigvalsh((diff + herm) / 2)).sum(axis=-1)
    return float(dist) if a.ndim == 2 else dist


def complete_isometry(v, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extend an isometry to a square unitary.

    The leading columns of the result are ``v`` itself, copied verbatim.
    The remaining columns come from Gram-Schmidt over the canonical basis
    vectors taken in index order; candidates whose residual drops below
    1e-8 are skipped. The completion is deterministic.
    """
    v = asmatrix(v)
    rows, cols = v.shape
    if cols > rows:
        raise ValueError(f"isometry cannot have more columns ({cols}) than rows ({rows})")
    dev = np.abs(v.conj().T @ v - np.eye(cols)).max()
    if dev > tol:
        raise ValueError(f"columns are not orthonormal: max |v†v - I| = {dev:.3e}")
    u = np.zeros((rows, rows), dtype=complex)
    u[:, :cols] = v
    have = cols
    for k in range(rows):
        if have == rows:
            break
        cand = np.zeros(rows, dtype=complex)
        cand[k] = 1.0
        # two rounds of classical Gram-Schmidt for numerical stability
        for _ in range(2):
            cand = cand - u[:, :have] @ (u[:, :have].conj().T @ cand)
        norm = np.linalg.norm(cand)
        if norm < 1e-8:
            continue
        u[:, have] = cand / norm
        have += 1
    if have != rows:
        raise ValueError("failed to complete isometry to a unitary basis")
    return u


def haar_unitaries(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-distributed unitaries, shape (count, dim, dim), each
    from the QR of a complex Gaussian matrix: one stacked QR over matrices
    drawn in turn, real parts then imaginary, so matrix i is the i-th of
    ``count`` calls to ``haar_unitary``.

    The R factor's diagonal phases are normalized away so the output is a
    deterministic function of the generator state.
    """
    x = rng.normal(size=(count, 2, dim, dim))
    q, r = np.linalg.qr(x[:, 0] + 1j * x[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary, ``haar_unitaries(1, dim, rng)[0]``."""
    return haar_unitaries(1, dim, rng)[0]


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix: normalized G G† for complex Gaussian G."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random pure-state vector, uniform on the sphere."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def projector(psi) -> np.ndarray:
    """|psi><psi| for a state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())
