"""Analytic rate-loss bound of limited feedback.

The base station sees only quantized gains: it orders receivers by them,
splits power with the same closed form as the full-CSI case, and transmits
at the rates the quantized gains support (all of it in ``alloc``). The bound
here caps what that costs in mean rate against full channel knowledge.
"""

import numpy as np


def rate_loss_bound(p, delta, t, lambda1, lambda2):
    """Analytic cap on the mean rate loss of the lower-edge quantizer."""
    if min(p, delta, lambda1, lambda2) <= 0 or t < 1:
        raise ValueError("all parameters must be positive")
    c0 = max(4.0 + lambda1 / lambda2, lambda2)
    tail = max(np.exp(-t * delta / lambda1), delta)
    return float(np.log2(1.0 + c0 * p * tail))
