"""Uniform gain quantizers and the feedback codecs.

Two flavors: "rate" snaps to the lower bin edge and never overstates a gain;
"outage" snaps to the upper edge, never understates one, and never returns
zero. Levels are encoded either with the variable-length enumeration
0, 1, 00, 01, 10, 11, 000, ... (level n costs floor(log2(n+2)) bits) or with
plain fixed-length indices.
"""

import math

import numpy as np

def _certified_floor(x, delta, t):
    """floor(min(x/delta, t + 1/2)) as float64 (t[j] in column j), or None
    when some row may need a bin-edge nudge; x holds gains >= 0 or NaN.

    Let u = eps/2, q = fl(x/delta) and n = floor(q) of the capped q, with
    the exact fraction f = q - n. The block is certified when every f lies
    in (M, 1 - M), M = 4 eps (t_max + 2); a NaN fails both tests, and so
    does every row once t_max >= 2^49, where M >= 1/2.
      - Errors. An uncapped row (q < t + 1/2) has n <= t_max and
        q >= f > M, so q is a normal float: q = (x/delta)(1 + e), |e| <= u.
        Each fl(k delta), k >= 1, errs by at most u k delta: k delta >= delta
        is normal for a normal delta, and a subnormal k delta is an exact
        multiple of 2^-1074. An overflow to +inf only raises fl((n+1) delta).
      - Uncapped rows. fl(n delta) <= n delta (1 + u) < x needs
        f > n (2u + u^2), and fl((n+1) delta) >= (n+1) delta (1 - u) > x
        needs 1 - f > (n+1) 2u. M > 2u (t_max + 1) (1 + u) gives both, so
        fl(n delta) < x < fl((n+1) delta): no nudge fires, the level is n.
      - Capped rows. The capped q is t + 1/2 exactly (t < 2^49), so f = 1/2
        and n = t; the uncapped q >= t + 1/2 puts x above fl(t delta) <=
        t delta (1 + u), as t (2u + u^2) < 1/2. A nudge moves a level by
        one, and below t it would need fl(t delta) > x: the level is t.
    Every row thus has fl(n delta) < x, so the upper edge is n + 1. Blocks
    fall back where x/delta underflows (f = q <= M) and from q = 2^52 on
    (f = 0). M is four times the bound, which covers its own rounding.
    """
    q = np.asarray(x / delta)
    np.minimum(q, t + 0.5, out=q)
    n = np.floor(q)
    q -= n
    margin = 4.0 * 2.0**-52 * (float(t.max()) + 2.0)
    # np.min and np.max keep NaN, which fails both; empty x passes
    if q.min(initial=np.inf) > margin and q.max(initial=-np.inf) < 1.0 - margin:
        return n
    return None


def _lower_edge(x, delta, t):
    """The lower-edge levels of x as float64, capped at t (t[j] in column j),
    and whether _certified_floor gave them.

    floor(fl(x/delta)) can land one bin off on a bin edge (0.3/0.1 ->
    2.9999...), so it is nudged up once where (n+1)*delta <= x, then down
    once where n*delta > x, leaving n*delta <= x < (n+1)*delta in floats.
    Once each way is enough: below 2^51 bins, fl(x/delta) and every
    fl(n*delta) err by under a quarter bin, so the floor is n* - 1, n* or
    n* + 1 for the true level n*; most blocks skip them (_certified_floor).
    """
    t = np.asarray(t, dtype=np.float64)
    n = _certified_floor(x, delta, t)
    if n is not None:
        return n, True
    # In place: one edge buffer and one mask serve both nudges (np.asarray
    # keeps 0-d an array for out=), and a mask adds an exact 1.0 or 0.0.
    n = np.asarray(x / delta)
    np.floor(n, out=n)
    edge = np.asarray(n + 1.0)
    edge *= delta
    mask = np.asarray(edge <= x)
    n += mask
    np.multiply(n, delta, out=edge)
    np.greater(edge, x, out=mask)
    n -= mask
    del edge, mask
    np.minimum(n, t, out=n)
    return n, False


def rate_levels(x, delta, t):
    """Lower-edge bin indices: the largest n <= t (t[j] in column j) with fl(n*delta) <= x."""
    x = np.asarray(x, dtype=np.float64)
    # One pass that keeps NaN, which has no level; empty x reads as +inf.
    if not np.minimum.reduce(x, axis=None, initial=np.inf) >= 0:
        raise ValueError("gain must be nonnegative, not NaN")
    return _lower_edge(x, delta, t)[0].astype(np.int64)[()]


def outage_levels(x, delta, t):
    """Bin indices under the upper-edge quantizer: 1..t+1 (t[j]+1 in column j), never zero.

    The least m with fl(m*delta) >= x, capped at t + 1: up to 2^52 the edges
    fl(k*delta) strictly increase with k (their spacing is below delta), and
    the lower edge n is the largest level <= t with fl(n*delta) <= x, so m
    is n + [fl(n*delta) < x]. A capped n = t has x >= fl((t+1)*delta) >
    fl(t*delta), and x > 0 gives m >= 1. A config's t_outage is at most 2^52
    (ExperimentConfig._bin refuses t_rate >= 2^53). Past it, where only a
    direct call goes, two edges can tie as floats: this picks the larger
    tied level, ceil with nudges the smaller; both feed back the same float.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.minimum.reduce(x, axis=None, initial=np.inf) > 0:
        raise ValueError("gain must be positive, not NaN; zero would quantize to zero")
    m, certified = _lower_edge(x, delta, t)
    m += 1.0 if certified else m * delta < x  # see _certified_floor
    return m.astype(np.int64)[()]


def _bin_count(delta, lambda1, per):
    """ceil(lambda1*ln(1/delta) / (per*delta)), refused from 2^53 on (inf and NaN
    too), where levels stop being exact floats; per*delta is delta at per = 1.0."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1) for the default bin-count rule")
    if not lambda1 > 0:
        raise ValueError("lambda1 must be positive")
    count = lambda1 / (per * delta) * math.log(1.0 / delta)
    if not count < 2.0**53:
        raise ValueError("delta=%g needs 2^53 or more bins at lambda1=%g" % (delta, lambda1))
    return math.ceil(count)


def default_t_rate(delta, lambda1=1.0):
    """Bin count making the saturation tail as small as one bin: T*delta = lambda1*ln(1/delta)."""
    return _bin_count(delta, lambda1, 1.0)


def default_t_outage(delta, lambda1=1.0):
    """Half the rate rule: saturation tail sqrt(delta) instead of delta."""
    return _bin_count(delta, lambda1, 2.0)


def distinct_words(levels):
    """The distinct rows of an (n, K) array of nonnegative int64 levels.

    Each row is read as one int64 key, a number in base (largest level + 1),
    so equal keys are equal rows, and the distinct keys are decoded back into
    rows. Returns (words, inverse) with words[inverse] equal to levels, row
    for row, or None when base**K reaches 2**63, the int64 range.
    """
    k = levels.shape[1]
    base = int(levels.max()) + 1
    if base**k >= 1 << 63:
        return None
    key = levels[:, 0].copy()
    for j in range(1, k):
        key *= base
        key += levels[:, j]
    key, inverse = np.unique(key, return_inverse=True)
    words = np.empty((key.size, k), dtype=np.int64)
    for j in range(k - 1, 0, -1):
        key, words[:, j] = np.divmod(key, base)
    words[:, 0] = key
    return words, inverse


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
    # frexp converts v to float64 a buffer at a time, so no float copy is made.
    n = np.subtract(np.frexp(v)[1], 1, dtype=np.int64)
    if v.max() >= 1 << 53:
        n = np.minimum(n, 62)
        n -= np.left_shift(1, n) > v
    return n


def vle_encode(level):
    """The (level+1)-th nonempty binary string, ordered by length then value."""
    n = int(level)
    if n < 0:
        raise ValueError("level must be nonnegative")
    length = int(vle_lengths(n))
    value = n + 2 - (1 << length)
    return format(value, "0%db" % length)


def vle_decode(bits):
    """Inverse of vle_encode; the caller supplies the length out-of-band."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError("bits must be a nonempty string of 0s and 1s")
    return int(bits, 2) + (1 << len(bits)) - 2


def fle_bits(top):
    """Fixed-length cost: the bits that index levels 0..top, ceil(log2(top + 1))."""
    if top < 1:
        raise ValueError("top must be at least 1")
    return int(top).bit_length()
