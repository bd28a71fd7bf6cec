"""The birth-death chain as a matrix: a test oracle for ``analysis.iterate_master``.

``oqw steady`` once built this N x N matrix and applied it by repeated
matrix-vector products. BLAS rounds those products differently from the
recursion, so assertions against this route carry a tolerance.
"""

import numpy as np


def transition_matrix(p) -> np.ndarray:
    """Column-stochastic N x N transition matrix of the chain.

    Column i holds the outgoing probabilities of node i: omega down one row
    (right jump), lambda up one row (left jump), with lazy self-loops at
    both boundaries. Every column sums to exactly 1.
    """
    n = p.n_nodes
    t = np.zeros((n, n))
    for i in range(n):
        t[min(i + 1, n - 1), i] += p.omega
        t[max(i - 1, 0), i] += p.lam
    return t


def power_iterate(t: np.ndarray, dist, n_steps: int) -> np.ndarray:
    """Repeated application of a transition matrix to a distribution."""
    dist = np.asarray(dist, dtype=float)
    for _ in range(n_steps):
        dist = t @ dist
    return dist
