"""Analytic rate-loss bound and the decodability check of limited feedback.

The base station sees only quantized gains: it orders receivers by them,
splits power with the same closed form as the full-CSI case, and transmits
at the rates the quantized gains support (all of it in ``alloc``). What
remains here judges that pipeline on the true channels.
"""

import numpy as np

from . import alloc


def achievable_check(h1, h2, q1, q2, p, tol=1e-12):
    """Can the adapted rates be decoded on the true channels?

    h1, h2 are the true gains of the receivers whose quantized gains are
    q1 >= q2 (same order). Three capacities must clear: the weak receiver
    decoding its own message under interference, the strong receiver
    decoding the weak message before SIC, and the strong receiver decoding
    its own message after SIC.
    """
    a = alloc.equal_rate_split(q1, q2, p)
    r1q, r2q = alloc.two_user_rates(a, q1, q2, p)
    c_strong_own, c_weak_own = alloc.two_user_rates(a, h1, h2, p)
    _, c_strong_cross = alloc.two_user_rates(a, h1, h1, p)
    ok = (c_weak_own >= r2q - tol) & (c_strong_cross >= r2q - tol) & (c_strong_own >= r1q - tol)
    return bool(ok) if np.ndim(ok) == 0 else ok


def rate_loss_bound(p, delta, t, lambda1, lambda2):
    """Analytic cap on the mean rate loss of the lower-edge quantizer."""
    if min(p, delta, lambda1, lambda2) <= 0 or t < 1:
        raise ValueError("all parameters must be positive")
    c0 = max(4.0 + lambda1 / lambda2, lambda2)
    tail = max(np.exp(-t * delta / lambda1), delta)
    return float(np.log2(1.0 + c0 * p * tail))
