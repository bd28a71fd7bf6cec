"""Classical predictions for the linear chain: transition matrix, steady
state, success probability, the sufficiency bound on omega, the
drift-diffusion profile, and the step-count estimate.

The chain's occupation probabilities evolve as a classical birth-death
Markov chain; everything here is derived from that reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChainParams:
    """Chain size and bias, with the derived drift/diffusion constants.

    a = omega / (1 - omega)  (inf when omega = 1)
    v = 2*omega - 1          (drift velocity, sites per step)
    D = 1/2                  (diffusion coefficient, sites^2 per step)
    """

    n_nodes: int
    omega: float

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least two nodes")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")

    @property
    def lam(self) -> float:
        return 1.0 - self.omega

    @property
    def a(self) -> float:
        return math.inf if self.omega == 1.0 else self.omega / (1.0 - self.omega)

    @property
    def v(self) -> float:
        return 2.0 * self.omega - 1.0

    D = 0.5


def transition_matrix(p: ChainParams) -> np.ndarray:
    """Column-stochastic N x N transition matrix of the chain.

    Column i holds the outgoing probabilities of node i: omega down one row
    (right jump), lambda up one row (left jump), with lazy self-loops at
    both boundaries. Every column sums to exactly 1.
    """
    return master_step(np.eye(p.n_nodes), p)


def steady_state(p: ChainParams) -> np.ndarray:
    """Closed-form stationary distribution x_m = a^m (a-1) / (a^N - 1).

    The omega = 1/2 case (a = 1) is the 0/0 limit of the formula and is
    returned as the uniform distribution. Evaluation is done in the log
    domain so large a^N never overflows.
    """
    n = p.n_nodes
    if p.omega == 0.5:
        return np.full(n, 1.0 / n)
    if p.omega == 1.0:
        out = np.zeros(n)
        out[n - 1] = 1.0
        return out
    m = np.arange(n)
    la = math.log(p.a)  # log(a) != 0 here
    # log x_m = m log a + log(a - 1) - log(a^N - 1), all via expm1/log1p
    if la > 0:
        log_num = math.log(math.expm1(la))
        log_den = n * la + math.log1p(-math.exp(-n * la))
    else:
        # a < 1: a - 1 and a^N - 1 are both negative; signs cancel
        log_num = math.log(-math.expm1(la))
        log_den = math.log(-math.expm1(n * la))
    return np.exp(m * la + (log_num - log_den))


def success_probability(p: ChainParams) -> float:
    """Steady-state mass at the last node, where results are read out."""
    return float(steady_state(p)[-1])


def omega_for_success(eta: float) -> float:
    """Bias that guarantees long-run success probability >= eta for any N.

    Returns 1 / (2 - eta); valid for eta in [0, 1).
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
    return 1.0 / (2.0 - eta)


def master_step(dist, p: ChainParams) -> np.ndarray:
    """One step of the birth-death recursion, the one place it is written.

    Interior: P(m) <- omega P(m-1) + lambda P(m+1); the boundaries are lazy:
    node 0 keeps lambda of itself plus lambda of node 1, node N-1 keeps
    omega of itself plus omega of node N-2. Runs along axis 0, so ``dist``
    is a length-N vector or an N x k matrix of columns; ``p`` is anything
    with ``n_nodes``, ``omega`` and ``lam`` (a ``LinearChainSpec`` too).
    """
    dist = np.asarray(dist, dtype=float)
    n, w, lam = p.n_nodes, p.omega, p.lam
    if dist.ndim not in (1, 2) or dist.shape[0] != n:
        raise ValueError(f"distribution length {dist.shape} does not match N={n}")
    out = np.empty_like(dist)
    out[0] = lam * dist[0] + lam * dist[1]
    np.multiply(w, dist[:-2], out=out[1:-1])
    out[1:-1] += lam * dist[2:]
    out[-1] = w * dist[-2] + w * dist[-1]
    return out


def iterate_master(dist, p: ChainParams, n_steps: int) -> np.ndarray:
    """Apply ``master_step`` n_steps times."""
    if n_steps < 0:
        raise ValueError("step count must be non-negative")
    dist = np.asarray(dist, dtype=float)
    for _ in range(n_steps):
        dist = master_step(dist, p)
    return dist


def power_iterate(t: np.ndarray, dist, n_steps: int) -> np.ndarray:
    """Repeated application of a transition matrix to a distribution. BLAS
    rounds differently from ``iterate_master``; ``oqw steady`` prints this."""
    if n_steps < 0:
        raise ValueError("step count must be non-negative")
    dist = np.asarray(dist, dtype=float)
    for _ in range(n_steps):
        dist = t @ dist
    return dist


def gaussian_profile(m: float, n: int, p: ChainParams) -> float:
    """Drift-diffusion profile P(m, n) = (4 pi D n)^(-1/2) exp(-(m-vn)^2/4Dn).

    The continuum-limit solution: a normal distribution drifting at v with
    dispersion D = 1/2. Rejects n = 0, where the profile is singular.
    """
    if n < 1:
        raise ValueError("profile is defined for n >= 1")
    d, v = ChainParams.D, p.v
    return math.exp(-((m - v * n) ** 2) / (4 * d * n)) / math.sqrt(4 * math.pi * d * n)


def estimate_steps(p: ChainParams, rounding: str = "conservative") -> int:
    """Steps for the distribution mean to reach the right boundary: N / v.

    Modes: ``exact`` rounds N/v to the nearest integer when within 1e-9
    (otherwise rounds up); ``conservative`` (the default, used by the
    resource accounting) adds one step of slack on top of that. The 1e-9
    snap absorbs float noise in v = 2*omega - 1 (e.g. omega = 0.6 gives
    N/v = 20.000000000000004, which must round to 20, not 21).
    """
    if p.omega <= 0.5:
        raise ValueError("step estimate requires positive drift (omega > 1/2)")
    x = p.n_nodes / p.v
    base = round(x) if abs(x - round(x)) <= 1e-9 else math.ceil(x)
    if rounding == "exact":
        return int(base)
    if rounding == "conservative":
        return int(base) + 1
    raise ValueError(f"unknown rounding mode {rounding!r}")


def steps_bound_for_eta(n_nodes: int, eta: float) -> float:
    """Upper bound on the step estimate when omega >= 1/(2 - eta):
    n_steps <= N (2 - eta) / eta."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    return n_nodes * (2.0 - eta) / eta


def total_variation(p, q) -> float:
    """Total variation distance between two distributions: 0.5 * sum |p - q|."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    return 0.5 * float(np.abs(p - q).sum())


def kolmogorov_distance(p, q) -> float:
    """Largest absolute difference between the two cumulative distributions."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    return float(np.abs(np.cumsum(p) - np.cumsum(q)).max())


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); every value must be positive."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a slope")
    if not (np.all(x > 0) and np.all(y > 0)):
        raise ValueError("a log-log fit needs positive x and y values")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def distribution_csv(dist) -> str:
    """CSV for a single node distribution: columns ``m, probability``."""
    lines = ["m,probability"]
    lines += [f"{m},{repr(float(p))}" for m, p in enumerate(np.asarray(dist, dtype=float))]
    return "\n".join(lines) + "\n"


def time_series_csv(series) -> str:
    """CSV for distributions over time: columns ``n, node, probability``.

    ``series`` is an iterable of (n, distribution) pairs.
    """
    lines = ["n,node,probability"]
    for n, dist in series:
        lines += [f"{n},{m},{repr(float(p))}"
                  for m, p in enumerate(np.asarray(dist, dtype=float))]
    return "\n".join(lines) + "\n"
