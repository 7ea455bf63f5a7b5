"""Monte Carlo experiment drivers.

Each driver sweeps one variable, runs a vectorized per-chunk kernel over the
trial stream, and reduces per-chunk partial sums with math.fsum in fixed
chunk order. Chunks are keyed by index, so the worker count changes nothing
but wall time; adaptive stopping picks the shortest chunk prefix meeting the
event target, which is again a property of the ordered chunks alone.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import alloc
from .channel import CHUNK, ChannelParams, sample_block
from .evaluator import rate_loss_bound
from .quantizer import (
    OUTAGE,
    RATE,
    default_t_outage,
    default_t_rate,
    fle_bits,
    outage_levels,
    rate_levels,
    vle_lengths,
)

KINDS = ("minrate", "rateloss", "outage", "outageloss", "feedback", "diversity", "kuser")
POLICIES = ("fixed", "pcube", "min02-pcube")
WORKERS_ENV = "NOMAFB_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    variances: tuple = (1.0, 0.5)
    p_db: tuple = (10.0,)
    deltas: tuple = (0.01,)
    delta_policy: str = "fixed"
    r_th: float = 1.0
    eps: float = 1e-4
    trials: int = 100_000
    min_outage_events: int = 10_000
    trial_cap: int = 1_000_000_000
    seed: int = 0
    workers: int = 0  # 0 = env var, else all cores

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown experiment kind %r" % (self.kind,))
        if len(self.variances) == 0 or any(not v > 0 for v in self.variances):
            raise ValueError("variances must be positive")
        if any(a < b for a, b in zip(self.variances, self.variances[1:])):
            raise ValueError("variances must be nonincreasing (receiver 1 strongest)")
        if len(self.p_db) == 0:
            raise ValueError("p_db sweep must be nonempty")
        if len(self.deltas) == 0 or any(not 0 < d < 1 for d in self.deltas):
            raise ValueError("every delta must lie in (0, 1)")
        if self.delta_policy not in POLICIES:
            raise ValueError("unknown delta policy %r" % (self.delta_policy,))
        if not self.r_th > 0:
            raise ValueError("r_th must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.min_outage_events < 1:
            raise ValueError("min_outage_events must be at least 1")
        if self.trial_cap < 1:
            raise ValueError("trial_cap must be at least 1")
        if self.seed < 0 or self.workers < 0:
            raise ValueError("seed and workers must be nonnegative")


@dataclass(frozen=True)
class MetricPoint:
    sweep_value: float
    metric: str
    value: float
    stderr: float
    n: int


@dataclass
class RunStats:
    experiment: str
    sweep: str
    seed: int
    points: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def resolve_workers(requested):
    if requested:
        return requested
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError("%s must be an integer, got %r" % (WORKERS_ENV, env))
        if n < 1:
            raise ValueError("%s must be at least 1" % WORKERS_ENV)
        return n
    return os.cpu_count() or 1


def policy_delta(policy, fixed_delta, p):
    """Bin size for one sweep point under the configured policy."""
    if policy == "fixed":
        return fixed_delta
    if policy == "pcube":
        return p ** (-1.0 / 3.0)
    if policy == "min02-pcube":
        return min(0.2, p ** (-1.0 / 3.0))
    raise ValueError("unknown delta policy %r" % (policy,))


# ---------------------------------------------------------------------------
# chunk scanning

def _run_jobs(job, indices, workers):
    if workers <= 1 or len(indices) <= 1:
        return [job(ci) for ci in indices]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(job, indices))


def _scan_fixed(params, seed, trials, workers, kernel):
    """All chunks of a fixed-trial run; returns fsum-reduced column sums."""
    n_chunks = (trials + CHUNK - 1) // CHUNK
    tail = trials - CHUNK * (n_chunks - 1)

    def job(ci):
        count = CHUNK if ci < n_chunks - 1 else tail
        return kernel(sample_block(params, seed, ci, count))

    partials = _run_jobs(job, range(n_chunks), workers)
    return [math.fsum(col) for col in zip(*partials)]


def _scan_adaptive(params, seed, workers, kernel, event_cols, target, cap):
    """Extend the scan wave by wave until every event column reaches target.

    The kept prefix is the shortest one meeting the target, determined from
    per-chunk counts in index order, so the wave width (worker count) cannot
    change the result. Returns (sums, trials, capped).
    """
    max_chunks = max(1, cap // CHUNK)
    wave = max(1, workers)

    def job(ci):
        return kernel(sample_block(params, seed, ci))

    partials = []
    cum = [0.0] * len(event_cols)
    scanned = 0
    stop = None
    while stop is None and len(partials) < max_chunks:
        lo = len(partials)
        hi = min(lo + wave, max_chunks)
        partials.extend(_run_jobs(job, range(lo, hi), workers))
        while scanned < len(partials):
            for j, col in enumerate(event_cols):
                cum[j] += partials[scanned][col]
            scanned += 1
            if all(c >= target for c in cum):
                stop = scanned - 1
                break
    capped = stop is None
    keep = max_chunks if capped else stop + 1
    sums = [math.fsum(col) for col in zip(*partials[:keep])]
    return sums, keep * CHUNK, capped


# ---------------------------------------------------------------------------
# statistics

def _stat_point(sweep_value, metric, total, total_sq, n):
    mean = total / n
    var = (total_sq - n * mean * mean) / (n - 1) if n > 1 else 0.0
    se = math.sqrt(max(var, 0.0) / n)
    return MetricPoint(sweep_value, metric, mean, se, n)


def _flag_point(sweep_value, metric, count, n):
    # indicator data: sum of squares equals the sum
    return _stat_point(sweep_value, metric, count, count, n)


def _const_point(sweep_value, metric, value, n):
    return MetricPoint(sweep_value, metric, float(value), 0.0, n)


def _vle_points(sweep_value, metric_prefix, sums, n):
    """vle_rx1/vle_rx2/vle_min points from ((s1, s1sq), (s2, s2sq))."""
    (s1, s1q), (s2, s2q) = sums
    p1 = _stat_point(sweep_value, metric_prefix + "_rx1", s1, s1q, n)
    p2 = _stat_point(sweep_value, metric_prefix + "_rx2", s2, s2q, n)
    low = p1 if p1.value <= p2.value else p2
    pmin = MetricPoint(sweep_value, metric_prefix + "_min", low.value, low.stderr, n)
    return [p1, p2, pmin]


def _add_points(stats, pts):
    stats.points.extend(sorted(pts, key=lambda m: m.metric))


def _fmt(x):
    return "%g" % x


# ---------------------------------------------------------------------------
# two-user kernels

def _two_user_params(cfg):
    if len(cfg.variances) != 2:
        raise ValueError("%s needs exactly two receivers" % cfg.kind)
    return ChannelParams(cfg.variances)


def _expect(cfg, kind):
    if cfg.kind != kind:
        raise ValueError("config kind is %r, expected %r" % (cfg.kind, kind))


def _full_csi_rate(h1, h2, p):
    snr = np.where(h1 >= h2, alloc.sic_snr(h1, h2, p), alloc.sic_snr(h2, h1, p))
    return np.log2(1.0 + p * snr), snr


def _rate_pipeline_min(q1, q2, p):
    """Min adapted rate of the lower-edge quantizer pipeline, per trial;
    q1 and q2 are the fed-back gains, rate_levels * delta."""
    qs = np.maximum(q1, q2)
    qw = np.minimum(q1, q2)
    live = qw > 0.0
    s = qs + qw
    den = np.where(live, s, 1.0)
    a = np.where(live, 2.0 * qw / (np.sqrt(den * den + 4.0 * qs * qw * qw * p) + den), 0.0)
    r1 = np.log2(1.0 + p * a * qs)
    r2 = np.log2(1.0 + p * qw * (1.0 - a) / (p * qw * a + 1.0))
    return np.minimum(r1, r2)


def _outage_conditions(h1, h2, q1, q2, p, beta):
    """(outage_system, outage_rx1, outage_rx2) for the upper-edge pipeline;
    h1 and h2 are the true gains, q1 and q2 the fed-back outage_levels * delta."""
    rx1_strong = q1 >= q2
    qs = np.where(rx1_strong, q1, q2)
    qw = np.where(rx1_strong, q2, q1)
    s = qs + qw
    a = 2.0 * qw / (np.sqrt(s * s + 4.0 * qs * qw * qw * p) + s)
    hs = np.where(rx1_strong, h1, h2)
    hw = np.where(rx1_strong, h2, h1)
    bad_strong = p * a * hs < beta
    bad_weak = p * hw * (1.0 - a) < beta * (p * hw * a + 1.0)
    out_rx1 = np.where(rx1_strong, bad_strong, bad_weak)
    out_rx2 = np.where(rx1_strong, bad_weak, bad_strong)
    return bad_strong | bad_weak, out_rx1, out_rx2


# ---------------------------------------------------------------------------
# drivers

def run_min_rate(cfg, progress=None):
    _expect(cfg, "minrate")
    if cfg.delta_policy != "fixed":
        raise ValueError("minrate does not take a delta policy; give --delta values")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    dts = [(d, default_t_rate(d, cfg.variances[0])) for d in cfg.deltas]
    stats = RunStats(experiment=cfg.kind, sweep="p_db", seed=cfg.seed)
    for pdb in cfg.p_db:
        p = 10.0 ** (pdb / 10.0)

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            rf, _ = _full_csi_rate(h1, h2, p)
            cols = [rf.sum(), (rf * rf).sum()]
            for d, t in dts:
                rq = _rate_pipeline_min(rate_levels(h1, d, t) * d, rate_levels(h2, d, t) * d, p)
                cols += [rq.sum(), (rq * rq).sum()]
            rt = 0.5 * np.log2(1.0 + p * np.minimum(h1, h2))
            cols += [rt.sum(), (rt * rt).sum()]
            return cols

        sums = _scan_fixed(params, cfg.seed, cfg.trials, workers, kernel)
        n = cfg.trials
        pts = [_stat_point(pdb, "r_full", sums[0], sums[1], n)]
        for i, (d, _) in enumerate(dts):
            pts.append(_stat_point(pdb, "r_qr[delta=%s]" % _fmt(d), sums[2 + 2 * i], sums[3 + 2 * i], n))
        pts.append(_stat_point(pdb, "r_tdma", sums[-2], sums[-1], n))
        _add_points(stats, pts)
        if progress:
            progress("minrate p_db=%s: %d trials" % (_fmt(pdb), n))
    return stats


def run_rate_loss(cfg, progress=None):
    _expect(cfg, "rateloss")
    if len(cfg.p_db) != 1:
        raise ValueError("rateloss sweeps delta; give exactly one p_db value")
    if cfg.delta_policy != "fixed":
        raise ValueError("rateloss does not take a delta policy; give --delta values")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    lam1, lam2 = cfg.variances
    p = 10.0 ** (cfg.p_db[0] / 10.0)
    dts = [(d, default_t_rate(d, lam1)) for d in cfg.deltas]

    def kernel(block):
        h1, h2 = block[:, 0], block[:, 1]
        rf, _ = _full_csi_rate(h1, h2, p)
        rt = 0.5 * np.log2(1.0 + p * np.minimum(h1, h2))
        cols = [rt.sum(), (rt * rt).sum()]
        for d, t in dts:
            n1, n2 = rate_levels(h1, d, t), rate_levels(h2, d, t)
            rq = _rate_pipeline_min(n1 * d, n2 * d, p)
            loss = rf - rq
            l1 = vle_lengths(n1).astype(np.float64)
            l2 = vle_lengths(n2).astype(np.float64)
            cols += [rq.sum(), (rq * rq).sum(), loss.sum(), (loss * loss).sum(),
                     l1.sum(), (l1 * l1).sum(), l2.sum(), (l2 * l2).sum()]
        return cols

    sums = _scan_fixed(params, cfg.seed, cfg.trials, workers, kernel)
    n = cfg.trials
    stats = RunStats(experiment=cfg.kind, sweep="delta", seed=cfg.seed)
    for i, (d, t) in enumerate(dts):
        base = 2 + 8 * i
        pts = [
            _stat_point(d, "r_qr", sums[base], sums[base + 1], n),
            _stat_point(d, "r_tdma", sums[0], sums[1], n),
            _stat_point(d, "rate_loss", sums[base + 2], sums[base + 3], n),
            _const_point(d, "rate_loss_bound", rate_loss_bound(p, d, t, lam1, lam2), n),
        ]
        pts += _vle_points(d, "vle", ((sums[base + 4], sums[base + 5]),
                                      (sums[base + 6], sums[base + 7])), n)
        _add_points(stats, pts)
        if progress:
            progress("rateloss delta=%s: %d trials" % (_fmt(d), n))
    return stats


def run_outage(cfg, progress=None):
    _expect(cfg, "outage")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    lam1 = cfg.variances[0]
    beta = 2.0**cfg.r_th - 1.0
    beta_tdma = 2.0 ** (2.0 * cfg.r_th) - 1.0
    policy = cfg.delta_policy
    stats = RunStats(experiment=cfg.kind, sweep="p_db", seed=cfg.seed)
    for pdb in cfg.p_db:
        p = 10.0 ** (pdb / 10.0)
        if policy == "fixed":
            dts = [(d, default_t_outage(d, lam1)) for d in cfg.deltas]
            labels = ["out_qo[delta=%s]" % _fmt(d) for d in cfg.deltas]
        else:
            d = policy_delta(policy, cfg.deltas[0], p)
            dts = [(d, default_t_outage(d, lam1))]
            labels = ["out_qo[policy=%s]" % policy]

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            _, snr = _full_csi_rate(h1, h2, p)
            cols = [float(np.count_nonzero(p * snr < beta))]
            for d, t in dts:
                out_sys, _, _ = _outage_conditions(
                    h1, h2, outage_levels(h1, d, t) * d, outage_levels(h2, d, t) * d, p, beta)
                cols.append(float(np.count_nonzero(out_sys)))
            cols.append(float(np.count_nonzero(p * np.minimum(h1, h2) < beta_tdma)))
            return cols

        sums, n, capped = _scan_adaptive(params, cfg.seed, workers, kernel,
                                         event_cols=(0,), target=cfg.min_outage_events,
                                         cap=cfg.trial_cap)
        if capped:
            stats.notes.append("p_db=%s: trial cap %d reached with %d/%d events"
                               % (_fmt(pdb), n, int(sums[0]), cfg.min_outage_events))
        pts = [_flag_point(pdb, "out_full", sums[0], n)]
        for label, s in zip(labels, sums[1:-1]):
            pts.append(_flag_point(pdb, label, s, n))
        pts.append(_flag_point(pdb, "out_tdma", sums[-1], n))
        _add_points(stats, pts)
        if progress:
            progress("outage p_db=%s: %d trials, %d events" % (_fmt(pdb), n, int(sums[0])))
    return stats


def run_outage_loss(cfg, progress=None):
    _expect(cfg, "outageloss")
    if cfg.delta_policy != "fixed":
        raise ValueError("outageloss does not take a delta policy; give --delta values")
    if len(cfg.p_db) > 1 and len(cfg.deltas) > 1:
        raise ValueError("outageloss sweeps either p_db or delta, not both")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    lam1 = cfg.variances[0]
    beta = 2.0**cfg.r_th - 1.0
    by_p = len(cfg.p_db) > 1
    sweep = "p_db" if by_p else "delta"
    stats = RunStats(experiment=cfg.kind, sweep=sweep, seed=cfg.seed)
    grid = cfg.p_db if by_p else cfg.deltas
    for value in grid:
        pdb = value if by_p else cfg.p_db[0]
        d = cfg.deltas[0] if by_p else value
        p = 10.0 ** (pdb / 10.0)
        t = default_t_outage(d, lam1)

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            _, snr = _full_csi_rate(h1, h2, p)
            out_full = p * snr < beta
            m1, m2 = outage_levels(h1, d, t), outage_levels(h2, d, t)
            out_sys, _, _ = _outage_conditions(h1, h2, m1 * d, m2 * d, p, beta)
            l1 = vle_lengths(m1).astype(np.float64)
            l2 = vle_lengths(m2).astype(np.float64)
            return [float(np.count_nonzero(out_full)),
                    float(np.count_nonzero(out_sys)),
                    float(np.count_nonzero(out_sys & ~out_full)),
                    l1.sum(), (l1 * l1).sum(), l2.sum(), (l2 * l2).sum()]

        sums = _scan_fixed(params, cfg.seed, cfg.trials, workers, kernel)
        n = cfg.trials
        pts = [
            _flag_point(value, "out_full", sums[0], n),
            _flag_point(value, "out_qo", sums[1], n),
            _flag_point(value, "outage_loss", sums[2], n),
            _const_point(value, "sqrt_delta", math.sqrt(d), n),
        ]
        pts += _vle_points(value, "vle", ((sums[3], sums[4]), (sums[5], sums[6])), n)
        _add_points(stats, pts)
        if progress:
            progress("outageloss %s=%s: %d trials" % (sweep, _fmt(value), n))
    return stats


def run_feedback_rate(cfg, progress=None):
    _expect(cfg, "feedback")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    lam1 = cfg.variances[0]
    by_policy = cfg.delta_policy != "fixed"
    sweep = "p_db" if by_policy else "delta"
    stats = RunStats(experiment=cfg.kind, sweep=sweep, seed=cfg.seed)
    grid = cfg.p_db if by_policy else cfg.deltas
    for value in grid:
        if by_policy:
            # the adaptive-bin-size story is an outage design, so use q_o bins
            p = 10.0 ** (value / 10.0)
            d = policy_delta(cfg.delta_policy, cfg.deltas[0], p)
            t = default_t_outage(d, lam1)
            level_fn, flavor = outage_levels, OUTAGE
        else:
            d = value
            t = default_t_rate(d, lam1)
            level_fn, flavor = rate_levels, RATE

        def kernel(block):
            l1 = vle_lengths(level_fn(block[:, 0], d, t)).astype(np.float64)
            l2 = vle_lengths(level_fn(block[:, 1], d, t)).astype(np.float64)
            return [l1.sum(), (l1 * l1).sum(), l2.sum(), (l2 * l2).sum()]

        sums = _scan_fixed(params, cfg.seed, cfg.trials, workers, kernel)
        n = cfg.trials
        pts = [
            _const_point(value, "fle_bits", fle_bits(t, flavor), n),
            _const_point(value, "t_bins", t, n),
        ]
        if by_policy:
            pts.append(_const_point(value, "delta_used", d, n))
        pts += _vle_points(value, "vle", ((sums[0], sums[1]), (sums[2], sums[3])), n)
        _add_points(stats, pts)
        if progress:
            progress("feedback %s=%s: %d trials" % (sweep, _fmt(value), n))
    return stats


def estimate_diversity(curve, window=None):
    """Least-squares slope of -log10(prob) against log10(P) over a dB window.

    curve is a sequence of (p_db, probability) pairs; window a (lo, hi) pair
    in dB, defaulting to the top 10 dB of the sweep.
    """
    pts = [(float(a), float(b)) for a, b in curve]
    if not pts:
        raise ValueError("curve is empty")
    if window is None:
        hi = max(a for a, _ in pts)
        window = (hi - 10.0, hi)
    lo, hi = window
    sel = [(a, b) for a, b in pts if lo - 1e-9 <= a <= hi + 1e-9]
    if len(sel) < 3:
        raise ValueError("need at least 3 points in the window, got %d" % len(sel))
    if any(b <= 0 for _, b in sel):
        raise ValueError("zero-probability point in window; not enough events")
    x = np.array([a / 10.0 for a, _ in sel])  # log10 of linear power
    y = np.array([-math.log10(b) for _, b in sel])
    return float(np.polyfit(x, y, 1)[0])


def run_diversity(cfg, progress=None):
    _expect(cfg, "diversity")
    if len(cfg.deltas) != 1:
        raise ValueError("diversity uses a single fixed delta plus the policy curve")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    lam1 = cfg.variances[0]
    beta = 2.0**cfg.r_th - 1.0
    d_fix = cfg.deltas[0]
    t_fix = default_t_outage(d_fix, lam1)
    policy = cfg.delta_policy if cfg.delta_policy != "fixed" else "min02-pcube"
    names = [
        "out_full",
        "out_qo_fixed[delta=%s]" % _fmt(d_fix),
        "out_qo_policy[%s]" % policy,
        "out_rx1_fixed[delta=%s]" % _fmt(d_fix),
        "out_rx2_fixed[delta=%s]" % _fmt(d_fix),
    ]
    curves = {name: [] for name in names}
    stats = RunStats(experiment=cfg.kind, sweep="p_db", seed=cfg.seed)
    for pdb in cfg.p_db:
        p = 10.0 ** (pdb / 10.0)
        d_pol = policy_delta(policy, d_fix, p)
        t_pol = default_t_outage(d_pol, lam1)

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            _, snr = _full_csi_rate(h1, h2, p)
            out_full = p * snr < beta
            sys_fix, rx1_fix, rx2_fix = _outage_conditions(
                h1, h2, outage_levels(h1, d_fix, t_fix) * d_fix,
                outage_levels(h2, d_fix, t_fix) * d_fix, p, beta)
            sys_pol, _, _ = _outage_conditions(
                h1, h2, outage_levels(h1, d_pol, t_pol) * d_pol,
                outage_levels(h2, d_pol, t_pol) * d_pol, p, beta)
            return [float(np.count_nonzero(c))
                    for c in (out_full, sys_fix, sys_pol, rx1_fix, rx2_fix)]

        sums, n, capped = _scan_adaptive(params, cfg.seed, workers, kernel,
                                         event_cols=tuple(range(5)),
                                         target=cfg.min_outage_events, cap=cfg.trial_cap)
        if capped:
            stats.notes.append("p_db=%s: trial cap %d reached before %d events on every curve"
                               % (_fmt(pdb), n, cfg.min_outage_events))
        pts = []
        for name, s in zip(names, sums):
            pts.append(_flag_point(pdb, name, s, n))
            curves[name].append((pdb, s / n))
        _add_points(stats, pts)
        if progress:
            progress("diversity p_db=%s: %d trials" % (_fmt(pdb), n))

    last = float(max(cfg.p_db))
    n_window = sum(1 for a in cfg.p_db if a >= last - 10.0 - 1e-9)
    slope_pts = []
    for name in names:
        try:
            slope = estimate_diversity(curves[name])
        except ValueError as e:
            stats.notes.append("slope[%s]: %s" % (name, e))
            continue
        slope_pts.append(_const_point(last, "slope[%s]" % name, slope, n_window))
    _add_points(stats, slope_pts)
    return stats


def run_k_user(cfg, progress=None):
    _expect(cfg, "kuser")
    if len(cfg.p_db) != 1:
        raise ValueError("kuser sweeps delta; give exactly one p_db value")
    if cfg.delta_policy != "fixed":
        raise ValueError("kuser does not take a delta policy; give --delta values")
    if len(cfg.variances) < 2:
        raise ValueError("kuser needs at least two receivers")
    params = ChannelParams(cfg.variances)
    workers = resolve_workers(cfg.workers)
    k = len(cfg.variances)
    p = 10.0 ** (cfg.p_db[0] / 10.0)
    stats = RunStats(experiment=cfg.kind, sweep="delta", seed=cfg.seed)
    for d in cfg.deltas:
        t_r = [default_t_rate(d, lam) for lam in cfg.variances]
        t_o = [default_t_outage(d, lam) for lam in cfg.variances]

        def kernel(block):
            gains_desc = np.sort(block, axis=1)[:, ::-1]
            r_true, _ = alloc.batch_max_min_rate(gains_desc, p, cfg.eps)
            out_full = r_true < cfg.r_th

            qv = np.empty_like(block)
            lens_r = np.empty_like(block)
            for i in range(k):
                levels = rate_levels(block[:, i], d, t_r[i])
                qv[:, i] = levels.astype(np.float64) * d
                lens_r[:, i] = vle_lengths(levels)
            live = np.all(qv > 0.0, axis=1)
            r_q = np.zeros(block.shape[0])
            if live.any():
                qd = np.sort(qv[live], axis=1)[:, ::-1]
                r_q[live] = alloc.batch_max_min_rate(qd, p, cfg.eps)[0]
            loss = r_true - r_q

            ov = np.empty_like(block)
            lens_o = np.empty_like(block)
            for i in range(k):
                levels = outage_levels(block[:, i], d, t_o[i])
                ov[:, i] = levels.astype(np.float64) * d
                lens_o[:, i] = vle_lengths(levels)
            perm = np.argsort(-ov, axis=1, kind="stable")
            ov_desc = np.take_along_axis(ov, perm, axis=1)
            r_qo = alloc.batch_max_min_rate(ov_desc, p, cfg.eps)[0]
            alphas = alloc._alloc_from_rate_rows(r_qo, ov_desc, p)
            true_perm = np.take_along_axis(block, perm, axis=1)
            rates = alloc.sic_rates(alphas, true_perm, p)
            out_q = rates.min(axis=1) < cfg.r_th

            cols = [loss.sum(), (loss * loss).sum(),
                    float(np.count_nonzero(out_full)),
                    float(np.count_nonzero(out_q)),
                    float(np.count_nonzero(out_q & ~out_full))]
            for arr in (lens_r, lens_o):
                for i in range(k):
                    cols += [arr[:, i].sum(), (arr[:, i] * arr[:, i]).sum()]
            return cols

        sums = _scan_fixed(params, cfg.seed, cfg.trials, workers, kernel)
        n = cfg.trials

        def vle_min_point(metric, base):
            per_rx = [_stat_point(d, metric, sums[base + 2 * i], sums[base + 2 * i + 1], n)
                      for i in range(k)]
            low = min(per_rx, key=lambda m: m.value)
            return MetricPoint(d, metric, low.value, low.stderr, n)

        pts = [
            _stat_point(d, "rate_loss", sums[0], sums[1], n),
            _flag_point(d, "out_full", sums[2], n),
            _flag_point(d, "out_qo", sums[3], n),
            _flag_point(d, "outage_loss", sums[4], n),
            vle_min_point("vle_r_min", 5),
            vle_min_point("vle_o_min", 5 + 2 * k),
        ]
        _add_points(stats, pts)
        if progress:
            progress("kuser delta=%s: %d trials" % (_fmt(d), n))
    return stats


RUNNERS = {
    "minrate": run_min_rate,
    "rateloss": run_rate_loss,
    "outage": run_outage,
    "outageloss": run_outage_loss,
    "feedback": run_feedback_rate,
    "diversity": run_diversity,
    "kuser": run_k_user,
}


def run_experiment(cfg, progress=None):
    return RUNNERS[cfg.kind](cfg, progress=progress)
