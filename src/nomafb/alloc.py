"""Max-min power allocation: the two-user kernel the experiments run.

Closed form for two receivers, applied to true or fed-back gains alike, and
bisection on the feasibility function varpi for any number of receivers.
Rates are bits/s/Hz (log base 2); noise power is 1, so p is the transmit SNR.
Array inputs broadcast elementwise.
"""

import math

import numpy as np

ITERATION_CAP = 64


def _check_power(p):
    """The power rule of every function here that takes p: positive and
    finite, elementwise for an array, so NaN and +-inf fail. A scalar takes
    one chained comparison, since the hot kernels check p on every chunk."""
    if isinstance(p, (int, float, np.generic)):
        ok = 0 < p < math.inf
    else:
        p = np.asarray(p)  # min and max keep NaN; the initials let an empty p pass
        ok = p.min(initial=math.inf) > 0 and p.max(initial=-math.inf) < math.inf
    if not ok:
        raise ValueError("p must be positive and finite")


def _lowest(x):
    """Smallest entry of x in one pass, NaN skipped; +inf if x is empty or all
    NaN. So `_lowest(x) < c` is `np.any(x < c)`, which reads x twice."""
    return np.fmin.reduce(x, axis=None, initial=np.inf)


def _highest(x):
    """Largest entry of x, as _lowest: `_highest(x) > c` is `np.any(x > c)`."""
    return np.fmax.reduce(x, axis=None, initial=-np.inf)


def _split_den(x, y, p):
    """Denominator of sic_snr and of the equal-rate split when x decodes last,
    sqrt((x + y)^2 + 4 x y^2 p) + (x + y).

    The steps run in place, each rounding as in that expression, so no more
    than two block-sized arrays are alive at once: the sum x + y is formed
    again for the last step rather than kept. A 0-d result is made an array
    so the in-place steps apply to it.
    """
    den = np.asarray(4.0 * x * y * y * p)
    s2 = x + y
    s2 *= s2
    den += s2
    del s2
    np.sqrt(den, out=den)
    den += x + y
    return den


def sic_snr(h_last, h_first, p):
    """Equivalent SNR of the max-min split when h_last decodes last.

    This is the crossing point of the two per-receiver rate curves; the
    max-min rate is log2(1 + p * sic_snr).
    """
    x = np.asarray(h_last, dtype=np.float64)
    y = np.asarray(h_first, dtype=np.float64)
    _check_power(p)
    den = _split_den(x, y, p)
    snr = np.multiply(2.0, x, out=np.empty_like(den))
    snr *= y
    snr /= den
    return snr[()]


def equal_rate_split(g_strong, g_weak, p):
    """Power fraction of the stronger receiver that gives both the same rate;
    0 where g_weak is 0, so neither is served. Needs g_strong >= g_weak >= 0."""
    gs = np.asarray(g_strong, dtype=np.float64)
    gw = np.asarray(g_weak, dtype=np.float64)
    _check_power(p)
    if _lowest(gw) < 0 or (gs < gw).any():
        raise ValueError("need g_strong >= g_weak >= 0; order the gains first")
    with np.errstate(invalid="ignore"):  # 0/0 where both gains are 0: unserved, set below
        a = _served_split(gs, gw, p)
    np.copyto(a, 0.0, where=~(gw > 0.0))
    return a


def _served_split(g_strong, g_weak, p):
    """equal_rate_split, unchecked, for float64 gains g_strong >= g_weak > 0
    and a valid p: 2 g_weak / _split_den. The quantized outage test calls it
    on fed-back upper-edge gains, which are never 0."""
    a = _split_den(g_strong, g_weak, p)
    return np.divide(2.0 * g_weak, a, out=a)


def two_user_rates(a, g_strong, g_weak, p):
    """(strong, weak) rates when the strong receiver gets power fraction a and
    decodes last; the weak one treats that share as interference."""
    a = np.asarray(a, dtype=np.float64)
    _check_power(p)
    if _lowest(a) < 0 or _highest(a) > 1:
        raise ValueError("alpha must lie in [0, 1]")
    # Two buffers, each step rounding as in log2(1 + p gw (1 - a) / (p gw a + 1))
    # and log2(1 + p a gs): a product of two factors is the same either way round.
    shape = np.broadcast_shapes(np.shape(p), a.shape, np.shape(g_strong), np.shape(g_weak))
    r_weak = np.subtract(1.0, a, out=np.empty(shape))
    den = np.multiply(p, g_weak, out=np.empty(shape))
    r_weak *= den
    den *= a
    den += 1.0
    r_weak /= den
    del den
    r_weak += 1.0
    np.log2(r_weak, out=r_weak)
    r_strong = np.multiply(p, a, out=np.empty(shape))
    r_strong *= g_strong
    r_strong += 1.0
    np.log2(r_strong, out=r_strong)
    return r_strong[()], r_weak[()]


def outage_conditions(h1, h2, a, rx1_strong, p, beta):
    """(system, receiver 1, receiver 2) outage masks on true gains h1, h2 when
    the strong receiver (receiver 1 where rx1_strong) gets power fraction a, as
    in two_user_rates, and both messages are sent at log2(1 + beta). Each rate
    test is made as sinr < beta, the weak denominator multiplied out.

    Each receiver is tested both as the strong and as the weak receiver, and
    boolean & and | keep the test of its role: the same float expressions as
    a select of the strong and weak gains, so the same bits, with no select.
    """
    rx1_strong = np.asarray(rx1_strong, dtype=bool)  # ~ of a Python bool is an int
    _check_power(p)

    def bad(h, strong):
        # Two buffers: p h (1 - a) < beta (p h a + 1), then p a h < beta.
        shape = np.broadcast_shapes(np.shape(p), np.shape(h), np.shape(a))
        ph = np.multiply(p, h, out=np.empty(shape))
        sinr = np.subtract(1.0, a, out=np.empty(shape))
        sinr *= ph
        ph *= a
        ph += 1.0
        ph *= beta
        weak = sinr < ph
        np.multiply(p, a, out=sinr)
        sinr *= h
        return strong & (sinr < beta) | ~strong & weak

    out_rx1 = bad(h1, rx1_strong)
    out_rx2 = bad(h2, ~rx1_strong)
    return out_rx1 | out_rx2, out_rx1, out_rx2


def outage_floor(p, beta, delta=None, top=None):
    """A gain c such that a row whose smaller true gain is at least c has no
    outage at power p and SINR threshold beta: no full-CSI outage
    (p * sic_snr < beta) with delta None, else no mask of outage_conditions
    set when both receivers feed back upper-edge levels of bin size delta,
    at most the top level `top`, with the split of their level pair. inf
    where no floor is certified: every row must then be tested.

    Let S(x, y) = p * sic_snr(x, y), the equal SINR of the split. It solves
    S^2 + S (x/y + 1) = p x, so it increases in both gains, and S(c, c) =
    sqrt(1 + p c) - 1.
      - Full CSI: both gains are at least c, so S >= S(c, c); c solves
        S(c, c) = beta (1 + 1e-6).
      - Fed-back gains. Level m feeds back q = m delta, and q >= max(delta,
        min(h, top delta)) and q < h + delta: below the top level m is the
        least level with m delta >= h, the lower edge's level plus the edge
        test, so (m - 1) delta < h <= q, and the top level's q = top delta
        lies under h + delta, as the level below it caps below h. For h >= c,
        q >= c' = max(delta, min(c, top delta)) and h/q > c/(c + delta);
        for c >= top delta every row is in the top bin, with h/q >= 1.
      - The split of (q_s, q_w) gives both receivers SINR S_q = S(q_s, q_w)
        >= S(c', c') at their fed-back gains. The strong test reads
        p a h_s = S_q h_s/q_s. The weak SINR f(h) = p h (1 - a)/(p h a + 1)
        has f(h)/h decreasing and f(q_w) = S_q, so f(h) >= S_q min(1, h/q_w).
        Both are at least S(c', c') min(1, h/q). From c = top delta on that
        is S(top delta, top delta), which any floor needs above beta (1 +
        1e-6), so the floor is at most top delta; below it, it is the least
        c where S(c', c') c/(c + delta) reaches beta (1 + 1e-6), found by
        bisection on this nondecreasing function of c.
      - The strong receiver's SIC step, its SINR f(h_s) for the weak
        message, is covered too: where the levels differ, h_s > (m_s - 1)
        delta >= q_w, so f(h_s) >= S_q; where they tie, q_w = q_s and
        h_s/q_w > c/(c + delta), or h_s/q_w >= 1 in the top bin.
    Every bound above holds for the floats the kernels form, up to a few
    ulps: q = fl(m delta), and the tests round each SINR by a few eps. The
    1e-6 margin is far wider than that rounding.
    """
    _check_power(p)
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    target = beta * (1.0 + 1e-6)

    def snr(c):  # S(c, c) = sqrt(1 + p c) - 1, free of cancellation at small p c
        pc = p * c
        return pc / (math.sqrt(1.0 + pc) + 1.0)

    if delta is None:
        return target * (2.0 + target) / p  # S(c, c) = target; inf past float64
    if not (0 < delta < math.inf and top >= 1):
        raise ValueError("need delta > 0 and top >= 1")
    cap = top * delta
    if not snr(cap) > target:
        return math.inf

    def safe(c):  # for c <= cap; cap itself is safe
        return snr(max(delta, c)) * c / (c + delta) >= target

    lo, hi = 0.0, cap
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if safe(mid) else (mid, hi)
    return hi


def max_min_rate_two_user(h1, h2, p):
    """Largest achievable min rate over all power splits, either ordering."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    if _lowest(h1) <= 0 or _lowest(h2) <= 0:
        raise ValueError("gains must be positive")
    r = np.asarray(sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p))
    r *= p
    r += 1.0
    np.log2(r, out=r)
    return float(r) if r.ndim == 0 else r


def sic_rates(alphas, gains, p):
    """All K rates for allocation rows applied to gain rows in the given order.

    alphas and gains are (..., K); column k is decoded k-th from the end of
    the SIC chain, i.e. sees interference from columns before it.
    """
    a = np.asarray(alphas, dtype=np.float64)
    g = np.asarray(gains, dtype=np.float64)
    _check_power(p)
    # noise + interference in one buffer in g's layout, rounding as in
    # log2(1 + a / (interference + noise)). p * g underflows to 0 for a tiny
    # gain at low power; noise 1/0 = +inf is then right: that receiver gets rate 0.
    den = np.empty_like(g, shape=np.broadcast_shapes(np.shape(p), a.shape, g.shape))
    with np.errstate(divide="ignore"):
        np.divide(1.0, np.multiply(p, g, out=den), out=den)
    # The interference as a running sum, a column at a time: the additions of
    # np.cumsum along the last axis, in its order, without its row-by-row loop.
    running = np.zeros(den.shape[:-1])
    for k in range(den.shape[-1]):
        running += a[..., k]
        den[..., k] += running - a[..., k]
    np.divide(a, den, out=den)
    den += 1.0
    return np.log2(den, out=den)


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
    consumed = np.zeros(np.broadcast_shapes(b.shape, g.shape[:-1]))
    for k in range(g.shape[-1]):
        out[..., k] = b * (consumed + 1.0 / (p * g[..., k]))
        consumed += out[..., k]
    return out


def _varpi_rows(r, pg):
    """varpi of rows at rates r (n,); pg is (p * gains_desc).T, (K, n).

    Term j is 2^(r (K-1-j)) / (p g_j), formed in a C-contiguous (n, K) array
    so that each row is summed by np.sum's pairwise order, whatever n is.
    """
    k = pg.shape[0]
    terms = 2.0 ** np.multiply.outer(r, np.arange(k - 1.0, -1.0, -1.0))
    terms /= pg.T
    return (2.0**r - 1.0) * terms.sum(axis=1)


def _varpi_horner(y, inv_pg, out=None):
    """varpi of rows at y = 2^r by Horner's rule, one power for all terms:
    (y - 1) * (((c_0 y + c_1) y + ...) y + c_(K-1)), c_j = inv_pg[j] = 1/(p g_j).

    Its last bits differ from _varpi_rows, which defines them; _horner_band
    bounds by how much. The steps run in out (a new array if None), and y is
    left holding y - 1.
    """
    s = inv_pg[0]
    for c in inv_pg[1:]:
        s = np.multiply(s, y, out=out)
        out = s
        s += c
    y -= 1.0
    return np.multiply(s, y, out=out)


def _horner_band(k, top, pg_max):
    """Half-width W of the band around 1 outside which _varpi_horner at
    y' = np.exp2(r) and _varpi_rows decide `varpi < 1` alike, for K
    receivers, rates r <= top and every p g_j <= pg_max. A row is decided by
    its Horner value v where (min(|v - 1|, 1) - W) d' > 16 eps, d' = y' - 1:
    the slack grows as y' nears 1, where exp2's last bit is all of d'.

    Let eps = 2^-52, u = eps/2, y = 2.0**r and d = y - 1 as _varpi_rows
    forms them, and V = d S(y) exactly, S(y) = sum_j y^(K-1-j) / (p g_j).
    _varpi_rows gives V (1 + b):
      - Term j is 2.0**(r*m) / (p g_j), m = K-1-j. The powers m = 1 and
        m = 0 are exact: r*1.0 == r, so the first is y, and 2.0**0.0 == 1.
        For m >= 2, rounding r*m moves the exponent by at most r m u, a
        factor of 1 + ln2 top K u. pow errs by up to 4 ulp: numpy's float64
        accuracy tests allow its transcendental ufuncs up to 2 ulp
        (_core/tests/data/umath-validation-set-*.csv) and list no pow, and
        numpy may run its own SIMD pow, not libm's. So the power costs 4 eps,
        and 2^(r m) differs from y^m by y's own error to the m-th power,
        4 K eps. The division, the K-term sum of positive terms and the
        product with d add (K + 1) u. In all, |b| <= (4.5 K + 0.35 K top + 4.5) eps.
    Those tests allow exp2 1 ulp (all 714 float64 rows of its file), so
    |y' - y| <= 5 eps y'. Horner gives v = d' S(y') (1 + e), |e| <= K eps
    for its 2K roundings; S(y)/S(y') is within 5 (K-1) eps of 1; and
    |d/d' - 1| <= rho = 6 eps + 5 x, x = eps/d' (y - 1 and y' - 1 are exact
    below 2, u off above). So _varpi_rows gives v (1 -+ rho)(1 -+ c), with
    c = (10.5 K + 0.35 K top + 4.5) eps. Let k = 6 eps + c; W =
    16 (K (1 + top) + 1) eps >= 1.5 k. A decided row has x < 1/16, so
    rho < 0.32 and d > 0, and |v - 1| > W + 16 x. If v > 1, the reference
    exceeds (1 + W + 16 x)(1 - 5 x - k) >= 1 + W - (1 + W) k +
    x (6 - 5 W - 16 k) > 1, as 80 x^2 <= 5 x and W < 0.1 (K (1 + top) <
    10^13). If v < 1, it is below (1 - W - 16 x)(1 + 5 x + 6 eps + 1.32 c)
    <= 1 + k + 0.32 c - W - 11 x < 1. The margins cover second-order terms
    and the test's own roundings.

    This needs every p g_j <= 2^960: then every 1/(p g_j), term and partial
    sum is a normal float, so the relative bounds hold, and a form that
    overflows to +inf has V >= eps * 2^1024 / 2^960 > 1 (times 1 - rho > 0.6
    for Horner at y'), so both call the row infeasible; y' stays finite, as
    top <= 961. Past 2^960 W is 1, which
    decides no row: every row takes the reference. The CLI's p <= 10^100
    keeps p g far below that.
    """
    return 16.0 * (k * (1.0 + top) + 1.0) * 2.0**-52 if pg_max <= 2.0**960 else 1.0


def _distrusted(v, d, band, t):
    """Mask of the rows _horner_band's test leaves to the reference (NaN ones
    too), or None if none; v holds Horner's values, d each y - 1. Rounding is
    monotone: if the smallest |v - 1| and smallest d pass, every row does."""
    slack = 16.0 * 2.0**-52
    np.abs(np.subtract(v, 1.0, out=t), out=t)
    if (min(float(t.min()), 1.0) - band) * float(d.min()) > slack:
        return None
    np.minimum(t, 1.0, out=t)
    t -= band
    t *= d
    return None if t.min() > slack else ~(t > slack)


def batch_max_min_rate(gains_desc, p, eps):
    """Bisection over rows: gains_desc is (n, K), descending along axis 1.

    Returns (r, iterations) with each r on the feasible (low) side of its
    bracket, within eps of the root.

    Each step decides `varpi < 1` by _varpi_horner at np.exp2(mid), and
    re-evaluates by _varpi_rows the rows _distrusted names, NaN rows too.
    Elsewhere both forms decide alike, and the brackets depend on nothing
    but those decisions, so every rate is bit-identical to a bisection that
    runs _varpi_rows on every row.
    """
    g = np.asarray(gains_desc, dtype=np.float64)
    if g.ndim != 2 or g.size == 0:
        raise ValueError("gains_desc must be a nonempty (n, K) array")
    if not (g.min() > 0 and g.max() < math.inf):  # np.min and np.max keep NaN
        raise ValueError("gains must be positive and finite")
    _check_power(p)
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    pg = np.ascontiguousarray((p * g).T)
    r_ub = np.log2(1.0 + pg[-1])
    top = float(r_ub.max())
    if top == math.inf:
        raise ValueError("p * gains overflows float64")
    if top <= eps:
        return np.zeros(g.shape[0]), 0
    n_iter = math.ceil(math.log2(top / eps))
    if n_iter > ITERATION_CAP:
        raise RuntimeError("bisection would need %d iterations (cap %d)" % (n_iter, ITERATION_CAP))
    band = _horner_band(g.shape[1], top, pg.max())
    lo = np.zeros(g.shape[0])
    hi = r_ub
    # Each step runs in these buffers, every rounding as in
    # mid = 0.5 * (lo + hi) and v = _varpi_horner(np.exp2(mid), inv_pg).
    mid, y, v, t = (np.empty(g.shape[0]) for _ in range(4))
    # A power or sum past the float64 range is +inf, varpi's correct
    # "infeasible" verdict on a valid row, so it is no cause for a warning.
    with np.errstate(over="ignore"):
        inv_pg = 1.0 / pg
        for _ in range(n_iter):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            _varpi_horner(np.exp2(mid, out=y), inv_pg, out=v)
            near = _distrusted(v, y, band, t)  # y holds the y - 1 Horner leaves
            if near is not None:
                v[near] = _varpi_rows(mid[near], pg[:, near])
            np.less(v, 1.0, out=t)  # 1.0 where feasible, else 0.0
            # 0 <= lo <= mid <= hi, so these maxima pick exactly what
            # np.where(feasible, ...) would, at a fraction of its cost.
            hi *= t
            np.maximum(mid, hi, out=hi)
            t *= mid
            np.maximum(lo, t, out=lo)
    return lo, n_iter
