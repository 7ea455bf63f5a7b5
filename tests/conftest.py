"""Shared independent oracles for the test suite.

Everything here is written from the defining formulas, not from the package
internals, so tests compare two independent routes to the same number. The
exceptions are not oracles: quantized_outage is an adapter that feeds the
package's own outage test, and glibc and minor_faults probe the C library's
heap. One autouse fixture, no_pool_thread_left, guards every test.
"""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import nomafb
from nomafb import alloc, harness


@pytest.fixture(autouse=True)
def no_pool_thread_left():
    """Fail a test that leaves a thread pool's worker alive: every scan shuts
    its pool down, whether it ends, stops early or fails."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor-")]
    assert left == [], "pool threads left alive: %s" % left


def glibc():
    """Whether this interpreter runs on glibc, whose malloc thresholds a sweep sets."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def minor_faults(script):
    """The int script prints last, run in a fresh interpreter on this package
    with glibc's default malloc thresholds: its environment sets none."""
    env = {k: v for k, v in os.environ.items()
           if k not in harness._MALLOC_ENV + ("GLIBC_TUNABLES",)}
    env["PYTHONPATH"] = str(Path(nomafb.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def grid_min_rate(h1, h2, p, step=1e-5):
    """Brute-force max-min over a power-split grid; returns (alpha, value).

    alpha is the share of the receiver with the larger gain, which decodes
    last; the other receiver treats that share as interference.
    """
    hs, hw = max(h1, h2), min(h1, h2)
    a = np.arange(0.0, 1.0 + 0.5 * step, step)
    r_strong = np.log2(1.0 + p * a * hs)
    r_weak = np.log2(1.0 + p * hw * (1.0 - a) / (p * hw * a + 1.0))
    rmin = np.minimum(r_strong, r_weak)
    i = int(np.argmax(rmin))
    return float(a[i]), float(rmin[i])


def random_triples(count, rng, p_db_low=-10.0, p_db_high=30.0):
    """(H1, H2, P) draws matching the experiment setup, P log-uniform in dB."""
    h1 = rng.exponential(1.0, count)
    h2 = rng.exponential(0.5, count)
    p = 10.0 ** (rng.uniform(p_db_low, p_db_high, count) / 10.0)
    return h1, h2, p


def vle_mean_analytic(delta, lam, t):
    """Exact expected VLE bits for an exponential gain under the lower-edge
    quantizer: sum the codeword length over every bin's probability mass."""
    total = 0.0
    for n in range(t):
        p_bin = math.exp(-n * delta / lam) - math.exp(-(n + 1) * delta / lam)
        total += math.floor(math.log2(n + 2)) * p_bin
    total += math.floor(math.log2(t + 2)) * math.exp(-t * delta / lam)
    return total


def outage_prob_analytic(p, delta, t, lams, beta):
    """Exact (rx1, rx2, system) outage probabilities of the upper-edge pipeline.

    Level m in 1..t covers the gains ((m-1)delta, m*delta] and feeds back
    m*delta; level t+1 covers (t*delta, inf) and feeds back (t+1)*delta. For
    each pair of levels the split is the equal-rate root of
    log2(1 + p*a*qs) = log2(1 + p*qw*(1-a) / (p*qw*a + 1)), that is of
    p*qs*qw*a^2 + (qs+qw)*a - qw = 0. The strong receiver (the larger
    fed-back gain, receiver 1 on ties) fails when its true gain is below
    beta/(p*a); the weak one when p*h*(1-a) < beta*(p*h*a + 1). Each failure
    is a threshold on one true gain, and the gains are independent, so the
    mass of every event inside a bin pair is a product of exponential masses.
    """
    lam1, lam2 = lams

    def mass(lo, hi, lam, below=math.inf):
        """P(lo < h <= hi and h < below) for h ~ Exp(mean lam)."""
        top = min(hi, below)
        if top <= lo:
            return 0.0
        return math.exp(-lo / lam) * -math.expm1(-(top - lo) / lam)

    def edges(m):
        return (m - 1) * delta, (m * delta if m <= t else math.inf)

    out1 = out2 = out_sys = 0.0
    for m1 in range(1, t + 2):
        lo1, hi1 = edges(m1)
        for m2 in range(1, t + 2):
            lo2, hi2 = edges(m2)
            q1, q2 = m1 * delta, m2 * delta
            qs, qw = max(q1, q2), min(q1, q2)
            s = qs + qw
            a = 2.0 * qw / (s + math.sqrt(s * s + 4.0 * p * qs * qw * qw))
            c_strong = beta / (p * a)
            slack = p * (1.0 - a - beta * a)
            c_weak = beta / slack if slack > 0 else math.inf
            c1, c2 = (c_strong, c_weak) if m1 >= m2 else (c_weak, c_strong)
            w1, w2 = mass(lo1, hi1, lam1), mass(lo2, hi2, lam2)
            b1, b2 = mass(lo1, hi1, lam1, c1), mass(lo2, hi2, lam2, c2)
            out1 += b1 * w2
            out2 += w1 * b2
            out_sys += b1 * w2 + w1 * b2 - b1 * b2
    return out1, out2, out_sys


def enumerate_binary_strings(count):
    """First `count` nonempty binary strings ordered by length then value."""
    out = []
    length = 1
    while len(out) < count:
        for v in range(1 << length):
            out.append(format(v, "0%db" % length))
            if len(out) == count:
                break
        length += 1
    return out


def varpi(r, gains_desc, p):
    """Total power fraction that gives every receiver rate r under SIC.

    Receivers are taken in descending gain order; receiver k decodes after
    the ones before it, whose shares it sees as interference, so it needs
    (2^r - 1) * (those shares + 1/(p * g_k)). The max-min rate is the root
    of varpi(r) = 1.
    """
    b = 2.0**r - 1.0
    used = 0.0
    for g in gains_desc:
        used += b * (used + 1.0 / (p * g))
    return used


def achievable_check(h1, h2, q1, q2, p, tol=1e-12):
    """Can the rates adapted to fed-back gains q1 >= q2 be decoded on the
    true gains h1, h2 of the same receivers?

    The split a of receiver 1 is the equal-rate root of
    p*q1*q2*a^2 + (q1+q2)*a - q2 = 0 (0 when q2 is 0, so nothing is sent).
    Three capacities must clear: receiver 2 decoding its own message under
    receiver 1's share, receiver 1 decoding that message before SIC, and
    receiver 1 decoding its own message after SIC.
    """
    h1, h2, q1, q2 = (np.asarray(x, dtype=np.float64) for x in (h1, h2, q1, q2))
    s = q1 + q2
    den = s + np.sqrt(s * s + 4.0 * p * q1 * q2 * q2)
    a = np.divide(2.0 * q2, den, out=np.zeros_like(den), where=q2 > 0)

    def weak_rate(g):
        return np.log2(1.0 + p * g * (1.0 - a) / (p * g * a + 1.0))

    r_weak = weak_rate(q2)
    return ((weak_rate(h2) >= r_weak - tol) & (weak_rate(h1) >= r_weak - tol)
            & (np.log2(1.0 + p * a * h1) >= np.log2(1.0 + p * a * q1) - tol))


def vle_rate_bound(delta, lam):
    """Analytic cap on the expected VLE bits per channel state for an
    exponential gain of mean lam under bins of width delta."""
    return 2.0 / math.log(2.0) + 1.0 + math.log2(1.0 + lam / delta)


def quantized_outage(h1, h2, q1, q2, p, beta):
    """alloc.outage_conditions with the power split and roles of fed-back
    gains q1, q2: the strong receiver is the one with the larger fed-back
    gain, receiver 1 on ties, and the split is equal_rate_split of the pair."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    a = alloc.equal_rate_split(np.maximum(q1, q2), np.minimum(q1, q2), p)
    return alloc.outage_conditions(h1, h2, a, q1 >= q2, p, beta)
