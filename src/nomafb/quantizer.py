"""Uniform gain quantizers and the feedback codecs.

Two flavors: "rate" snaps to the lower bin edge and never overstates a gain;
"outage" snaps to the upper edge, never understates one, and never returns
zero. Levels are encoded either with the variable-length enumeration
0, 1, 00, 01, 10, 11, 000, ... (level n costs floor(log2(n+2)) bits) or with
plain fixed-length indices.
"""

import math

import numpy as np

RATE = "rate"
OUTAGE = "outage"


def rate_levels(x, delta, t):
    """Bin indices under the lower-edge quantizer, saturating at t.

    Float division can land floor(x/delta) one bin off when x sits on a bin
    boundary (0.3/0.1 -> 2.9999...), so the index is nudged until
    n*delta <= x < (n+1)*delta holds exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("gain must be nonnegative")
    n = np.floor(x / delta)
    n = np.where((n + 1.0) * delta <= x, n + 1.0, n)
    n = np.where(n * delta > x, n - 1.0, n)
    return np.minimum(n, float(t)).astype(np.int64)


def outage_levels(x, delta, t):
    """Bin indices under the upper-edge quantizer: 1..t+1, never zero."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("gain must be positive; zero would quantize to zero")
    m = np.ceil(x / delta)
    m = np.where((m - 1.0) * delta >= x, m - 1.0, m)
    m = np.where(m * delta < x, m + 1.0, m)
    return np.clip(m, 1.0, float(t + 1)).astype(np.int64)


def _check_delta_for_default(delta):
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1) for the default bin-count rule")


def default_t_rate(delta, lambda1=1.0):
    """Bin count making the saturation tail as small as one bin: T*delta = lambda1*ln(1/delta)."""
    _check_delta_for_default(delta)
    if not lambda1 > 0:
        raise ValueError("lambda1 must be positive")
    return math.ceil(lambda1 / delta * math.log(1.0 / delta))


def default_t_outage(delta, lambda1=1.0):
    """Half the rate rule: saturation tail sqrt(delta) instead of delta."""
    _check_delta_for_default(delta)
    if not lambda1 > 0:
        raise ValueError("lambda1 must be positive")
    return math.ceil(lambda1 / (2.0 * delta) * math.log(1.0 / delta))


def vle_length(level):
    """Codeword length for one level: floor(log2(level+2))."""
    return int(vle_lengths(level))


def vle_lengths(levels):
    """Codeword lengths floor(log2(level+2)), exact for every int64 level up to 2^63 - 3.

    The frexp exponent of level+2 is floor(log2(level+2)) + 1 while the
    float conversion is exact (below 2^53). Above that the conversion may
    round up to the next power of two (2^63 at the top), so those lengths
    are capped at 62 and step back by one where 2^length exceeds level+2.
    """
    v = np.asarray(levels, dtype=np.int64) + 2
    if v.size == 0:
        return v
    if v.min() < 2:
        raise ValueError("levels must be nonnegative")
    n = np.frexp(v.astype(np.float64))[1].astype(np.int64) - 1
    if v.max() >= 1 << 53:
        n = np.minimum(n, 62)
        n -= np.left_shift(1, n) > v
    return n


def vle_encode(level):
    """The (level+1)-th nonempty binary string, ordered by length then value."""
    n = int(level)
    if n < 0:
        raise ValueError("level must be nonnegative")
    length = vle_length(n)
    value = n + 2 - (1 << length)
    return format(value, "0%db" % length)


def vle_decode(bits):
    """Inverse of vle_encode; the caller supplies the length out-of-band."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError("bits must be a nonempty string of 0s and 1s")
    return int(bits, 2) + (1 << len(bits)) - 2


def fle_bits(t, flavor):
    """Fixed-length cost: ceil(log2(#levels)) for t+1 rate or t+2 outage levels."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if flavor == RATE:
        return int(t).bit_length()
    if flavor == OUTAGE:
        return (int(t) + 1).bit_length()
    raise ValueError("flavor must be %r or %r" % (RATE, OUTAGE))


def vle_rate_bound(delta, lam):
    """Analytic cap on expected VLE bits per channel state for mean gain lam."""
    if not delta > 0 or not lam > 0:
        raise ValueError("delta and lam must be positive")
    return 2.0 / math.log(2.0) + 1.0 + math.log2(1.0 + lam / delta)
