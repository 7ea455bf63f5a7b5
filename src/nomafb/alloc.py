"""Max-min power allocation: the two-user kernel the experiments run.

Closed form for two receivers, applied to true or fed-back gains alike, and
bisection on the feasibility function varpi for any number of receivers.
Rates are bits/s/Hz (log base 2); noise power is 1, so p is the transmit SNR.
Array inputs broadcast elementwise.
"""

import math
from dataclasses import dataclass

import numpy as np

ITERATION_CAP = 64


@dataclass(frozen=True)
class PowerAllocation:
    """Power fractions in decoding order plus the order itself.

    alphas[k] belongs to the receiver with the (k+1)-th largest gain;
    order[k] is that receiver's original index.
    """

    alphas: np.ndarray
    order: np.ndarray


@dataclass(frozen=True)
class SolverResult:
    r_max: float
    allocation: PowerAllocation
    iterations: int
    residual: float


def _check_power(p):
    if np.any(np.asarray(p) <= 0):
        raise ValueError("power must be positive")


def _split_den(x, y, p):
    """Denominator of sic_snr and of the equal-rate split when x decodes last."""
    s = x + y
    return np.sqrt(s * s + 4.0 * x * y * y * p) + s


def sic_snr(h_last, h_first, p):
    """Equivalent SNR of the max-min split when h_last decodes last.

    This is the crossing point of the two per-receiver rate curves; the
    max-min rate is log2(1 + p * sic_snr).
    """
    x = np.asarray(h_last, dtype=np.float64)
    y = np.asarray(h_first, dtype=np.float64)
    return 2.0 * x * y / _split_den(x, y, p)


def equal_rate_split(g_strong, g_weak, p):
    """Power fraction of the stronger receiver that gives both the same rate;
    0 where g_weak is 0, so neither is served. Needs g_strong >= g_weak >= 0."""
    gs = np.asarray(g_strong, dtype=np.float64)
    gw = np.asarray(g_weak, dtype=np.float64)
    _check_power(p)
    if np.any(gw < 0) or np.any(gs < gw):
        raise ValueError("need g_strong >= g_weak >= 0; order the gains first")
    den = _split_den(gs, gw, p)
    return np.divide(2.0 * gw, den, out=np.zeros_like(den), where=gw > 0.0)


def two_user_rates(a, g_strong, g_weak, p):
    """(strong, weak) rates when the strong receiver gets power fraction a and
    decodes last; the weak one treats that share as interference."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a < 0) or np.any(a > 1):
        raise ValueError("alpha must lie in [0, 1]")
    r_strong = np.log2(1.0 + p * a * g_strong)
    r_weak = np.log2(1.0 + p * g_weak * (1.0 - a) / (p * g_weak * a + 1.0))
    return r_strong, r_weak


def outage_conditions(h1, h2, q1, q2, p, beta):
    """(system, receiver 1, receiver 2) outage masks on true gains h1, h2 when
    power is split on fed-back gains q1, q2 (receiver 1 is strong on ties) and
    both messages are sent at log2(1 + beta). Each rate test log2(1 + sinr) <
    log2(1 + beta) is made as sinr < beta, the weak denominator multiplied out.
    """
    rx1_strong = q1 >= q2
    qs = np.where(rx1_strong, q1, q2)
    qw = np.where(rx1_strong, q2, q1)
    a = equal_rate_split(qs, qw, p)
    hs = np.where(rx1_strong, h1, h2)
    hw = np.where(rx1_strong, h2, h1)
    bad_strong = p * a * hs < beta
    bad_weak = p * hw * (1.0 - a) < beta * (p * hw * a + 1.0)
    out_rx1 = np.where(rx1_strong, bad_strong, bad_weak)
    out_rx2 = np.where(rx1_strong, bad_weak, bad_strong)
    return bad_strong | bad_weak, out_rx1, out_rx2


def optimal_alpha_two_user(h_strong, h_weak, p):
    """Power fraction of the stronger receiver that equalizes both rates."""
    if np.any(np.asarray(h_weak) <= 0):
        raise ValueError("gains must be positive")
    a = equal_rate_split(h_strong, h_weak, p)
    return float(a) if a.ndim == 0 else a


def max_min_rate_two_user(h1, h2, p):
    """Largest achievable min rate over all power splits, either ordering."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    _check_power(p)
    if np.any(h1 <= 0) or np.any(h2 <= 0):
        raise ValueError("gains must be positive")
    r = np.log2(1.0 + p * sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p))
    return float(r) if r.ndim == 0 else r


def sic_rates(alphas, gains, p):
    """All K rates for allocation rows applied to gain rows in the given order.

    alphas and gains are (..., K); column k is decoded k-th from the end of
    the SIC chain, i.e. sees interference from columns before it.
    """
    a = np.asarray(alphas, dtype=np.float64)
    g = np.asarray(gains, dtype=np.float64)
    _check_power(p)
    interference = np.cumsum(a, axis=-1) - a
    return np.log2(1.0 + a / (interference + 1.0 / (p * g)))


def varpi(r, gains_desc, p):
    """Feasibility measure of equal rate r; its root at 1 is the max-min rate."""
    g = np.asarray(gains_desc, dtype=np.float64)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gains must be a nonempty vector")
    if np.any(g <= 0):
        raise ValueError("gains must be positive")
    if np.any(np.diff(g) > 0):
        raise ValueError("gains must be sorted in descending order")
    _check_power(p)
    if r < 0:
        raise ValueError("rate must be nonnegative")
    return float(_varpi_rows(r, list(p * g)))


def alloc_from_rate(r, gains_desc, p):
    """Power fractions giving every receiver exactly rate r.

    gains_desc is (..., K), descending along the last axis, and r broadcasts
    against its leading axes: a scalar r with a gain vector, or n rates with
    n rows of gains.
    """
    r = np.asarray(r, dtype=np.float64)
    g = np.asarray(gains_desc, dtype=np.float64)
    _check_power(p)
    if np.any(r < 0) or np.any(g <= 0):
        raise ValueError("need a nonnegative rate and positive gains")
    b = 2.0**r - 1.0
    out = np.empty_like(g)
    consumed = np.zeros_like(b)
    for k in range(g.shape[-1]):
        out[..., k] = b * (consumed + 1.0 / (p * g[..., k]))
        consumed += out[..., k]
    return out


def _row_sum(cols):
    """Elementwise sum of equal-length arrays, in the order np.sum(axis=1)
    adds one contiguous row of them, so the result is bit-identical.

    numpy adds a row pairwise: in order below 8 terms, into 8 interleaved
    partial sums up to 128 terms, and by halves above that.
    """
    n = len(cols)
    if n < 8:
        return sum(cols[1:], cols[0])
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _row_sum(cols[:half]) + _row_sum(cols[half:])
    stop = n - n % 8
    acc = [sum(cols[j + 8:stop:8], cols[j]) for j in range(8)]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    return sum(cols[stop:], total)


def _varpi_rows(r, pg_cols):
    """varpi of rows at rates r (n,); pg_cols[j] is p * gains_desc[:, j].

    Term j is 2^(r (K-1-j)) / pg_cols[j]. The exponent-1 power is the 2^r
    that (2^r - 1) needs anyway and the exponent-0 power is exactly 1, so
    only K-2 powers per row are computed.
    """
    k = len(pg_cols)
    x = 2.0**r
    terms = [2.0 ** (r * float(k - 1 - j)) / pg_cols[j] for j in range(k - 2)]
    if k > 1:
        terms.append(x / pg_cols[k - 2])
    terms.append(1.0 / pg_cols[k - 1])
    return (x - 1.0) * _row_sum(terms)


def batch_max_min_rate(gains_desc, p, eps):
    """Bisection over rows: gains_desc is (n, K), descending along axis 1.

    Returns (r, iterations) with each r on the feasible (low) side of its
    bracket, within eps of the root.
    """
    g = np.asarray(gains_desc, dtype=np.float64)
    if g.ndim != 2 or g.size == 0:
        raise ValueError("gains_desc must be a nonempty (n, K) array")
    if np.any(g <= 0):
        raise ValueError("gains must be positive")
    _check_power(p)
    if eps <= 0:
        raise ValueError("eps must be positive")
    r_ub = np.log2(1.0 + p * g[:, -1])
    top = float(r_ub.max())
    if top <= eps:
        return np.zeros(g.shape[0]), 0
    n_iter = math.ceil(math.log2(top / eps))
    if n_iter > ITERATION_CAP:
        raise RuntimeError("bisection would need %d iterations (cap %d)" % (n_iter, ITERATION_CAP))
    pg_cols = list(np.ascontiguousarray((p * g).T))
    lo = np.zeros(g.shape[0])
    hi = r_ub
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        feasible = (_varpi_rows(mid, pg_cols) < 1.0).astype(np.float64)
        # 0 <= lo <= mid <= hi, so these maxima pick exactly what
        # np.where(feasible, ...) would, at a fraction of its cost.
        lo = np.maximum(lo, mid * feasible)
        hi = np.maximum(mid, hi * feasible)
    return lo, n_iter


def solve_max_min_k(gains, p, eps=1e-4):
    """Max-min rate and allocation for any number of receivers.

    Gains may arrive in any order; the result carries the descending
    permutation so callers can map fractions back to receiver indices.
    """
    g = np.asarray(gains, dtype=np.float64)
    if g.ndim != 1:
        raise ValueError("gains must be a nonempty vector")
    order = np.argsort(-g, kind="stable")
    gd = g[order]
    r, n_iter = batch_max_min_rate(gd[None, :], p, eps)
    r_max = float(r[0])
    alphas = alloc_from_rate(r_max, gd, p)
    residual = abs(varpi(r_max, gd, p) - 1.0)
    alloc = PowerAllocation(alphas=alphas, order=order)
    return SolverResult(r_max=r_max, allocation=alloc, iterations=n_iter, residual=residual)


def tdma_min_rate(gains, p):
    """Worst per-receiver rate when K receivers each get a 1/K time share."""
    g = np.asarray(gains, dtype=np.float64)
    if g.size == 0:
        raise ValueError("gains must be nonempty")
    if np.any(g <= 0):
        raise ValueError("gains must be positive")
    _check_power(p)
    k = g.shape[-1]
    r = np.log2(1.0 + p * np.min(g, axis=-1)) / k
    return float(r) if np.ndim(r) == 0 else r
