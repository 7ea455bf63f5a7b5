"""Monte Carlo experiment drivers.

Each driver sweeps one variable and runs a vectorized per-chunk kernel over
the trial stream. A kernel names its metrics, each a per-trial array or an
event mask; one scan reduces them per chunk and with math.fsum in fixed
chunk order. Chunks are keyed by index, so the worker count changes nothing
but wall time; adaptive stopping picks the shortest chunk prefix meeting the
event target, which is again a property of the ordered chunks alone.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
FIXED_DELTA_KINDS = ("minrate", "rateloss", "outageloss", "kuser")
WORKERS_ENV = "NOMAFB_WORKERS"
# More threads cannot run at once; in an adaptive scan they only widen the
# waves that run past the stopping point.
MAX_WORKERS_PER_CPU = 4


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
    """Worker threads for a run: requested, else $NOMAFB_WORKERS, else one per
    CPU; never more than MAX_WORKERS_PER_CPU per CPU."""
    cpus = os.cpu_count() or 1
    n = requested
    env = os.environ.get(WORKERS_ENV, "").strip()
    if not n and env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError("%s must be an integer, got %r" % (WORKERS_ENV, env))
        if n < 1:
            raise ValueError("%s must be at least 1" % WORKERS_ENV)
    return min(n or cpus, MAX_WORKERS_PER_CPU * cpus)


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
    with ThreadPoolExecutor(max_workers=min(workers, len(indices))) as ex:
        return list(ex.map(job, indices))


def _moments(x):
    """(sum, sum of squares) of one chunk of a metric; an event mask is 0/1 data,
    so both are its count."""
    if x.dtype == bool:
        count = float(np.count_nonzero(x))
        return count, count
    return x.sum(), (x * x).sum()


def _scan(params, seed, workers, kernel, trials, events=(), target=0):
    """Reduce the kernel's metrics over the first `trials` trials, chunk by chunk.

    kernel yields (metric, per-trial array or event mask) pairs for a block of
    gains; each is reduced as it comes, so a chunk holds few arrays at once.
    Without events every chunk runs in one wave. With events the scan grows
    wave by wave (one chunk per worker) and keeps the shortest chunk prefix in
    which every named event count reaches target; that prefix follows from
    the per-chunk counts in index order, so the wave width cannot change it.
    Returns (moments, n, capped): moments maps each metric to its fsum-reduced
    (sum, sum of squares) over the n kept trials, and capped says the target
    was not reached within `trials`.
    """
    n_chunks = (trials + CHUNK - 1) // CHUNK
    wave = max(1, workers) if events else n_chunks

    def job(ci):
        block = sample_block(params, seed, ci, min(CHUNK, trials - ci * CHUNK))
        return {metric: _moments(x) for metric, x in kernel(block)}

    partials = []
    counts = dict.fromkeys(events, 0.0)
    keep = None
    while keep is None and len(partials) < n_chunks:
        lo = len(partials)
        partials.extend(_run_jobs(job, range(lo, min(lo + wave, n_chunks)), workers))
        for ci in range(lo, len(partials)):
            for e in events:
                counts[e] += partials[ci][e][0]
            if events and all(c >= target for c in counts.values()):
                keep = ci + 1
                break
    capped = keep is None and bool(events)
    kept = partials[:keep]
    moments = {metric: (math.fsum(part[metric][0] for part in kept),
                        math.fsum(part[metric][1] for part in kept))
               for metric in kept[0]}
    return moments, min(len(kept) * CHUNK, trials), capped


# ---------------------------------------------------------------------------
# statistics

def _points(sweep_value, moments, n):
    """{metric: MetricPoint} with each mean and its standard error."""
    points = {}
    for metric, (total, total_sq) in moments.items():
        mean = total / n
        var = (total_sq - n * mean * mean) / (n - 1) if n > 1 else 0.0
        se = math.sqrt(max(var, 0.0) / n)
        points[metric] = MetricPoint(sweep_value, metric, mean, se, n)
    return points


def _const_point(sweep_value, metric, value, n):
    return MetricPoint(sweep_value, metric, float(value), 0.0, n)


def _min_point(metric, points):
    """The lowest of points (the first on ties), renamed to metric."""
    return replace(min(points, key=lambda m: m.value), metric=metric)


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
    if kind in FIXED_DELTA_KINDS and cfg.delta_policy != "fixed":
        raise ValueError("%s does not take a delta policy; give --delta values" % kind)


def _full_csi_snr(h1, h2, p):
    return alloc.sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p)


def _quantized_min_rate(q1, q2, p):
    """Min adapted rate of the lower-edge quantizer pipeline, per trial;
    q1 and q2 are the fed-back gains, rate_levels * delta."""
    qs, qw = np.maximum(q1, q2), np.minimum(q1, q2)
    return np.minimum(*alloc.two_user_rates(alloc.equal_rate_split(qs, qw, p), qs, qw, p))


# ---------------------------------------------------------------------------
# drivers

def run_min_rate(cfg, progress=None):
    _expect(cfg, "minrate")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    dts = [(d, default_t_rate(d, cfg.variances[0])) for d in cfg.deltas]
    stats = RunStats(experiment=cfg.kind, sweep="p_db", seed=cfg.seed)
    for pdb in cfg.p_db:
        p = 10.0 ** (pdb / 10.0)

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            yield "r_full", alloc.max_min_rate_two_user(h1, h2, p)
            yield "r_tdma", 0.5 * np.log2(1.0 + p * np.minimum(h1, h2))
            for d, t in dts:
                yield "r_qr[delta=%s]" % _fmt(d), _quantized_min_rate(
                    rate_levels(h1, d, t) * d, rate_levels(h2, d, t) * d, p)

        moments, n, _ = _scan(params, cfg.seed, workers, kernel, cfg.trials)
        _add_points(stats, _points(pdb, moments, n).values())
        if progress:
            progress("minrate p_db=%s: %d trials" % (_fmt(pdb), n))
    return stats


def run_rate_loss(cfg, progress=None):
    _expect(cfg, "rateloss")
    if len(cfg.p_db) != 1:
        raise ValueError("rateloss sweeps delta; give exactly one p_db value")
    params = _two_user_params(cfg)
    workers = resolve_workers(cfg.workers)
    lam1, lam2 = cfg.variances
    p = 10.0 ** (cfg.p_db[0] / 10.0)
    dts = [(d, default_t_rate(d, lam1)) for d in cfg.deltas]

    # Every delta shares one scan; metrics are keyed (name, delta), with
    # delta None for those that do not depend on it.
    def kernel(block):
        h1, h2 = block[:, 0], block[:, 1]
        rf = alloc.max_min_rate_two_user(h1, h2, p)
        yield ("r_tdma", None), 0.5 * np.log2(1.0 + p * np.minimum(h1, h2))
        for d, t in dts:
            n1, n2 = rate_levels(h1, d, t), rate_levels(h2, d, t)
            rq = _quantized_min_rate(n1 * d, n2 * d, p)
            yield ("r_qr", d), rq
            yield ("rate_loss", d), rf - rq
            yield ("vle_rx1", d), vle_lengths(n1)
            yield ("vle_rx2", d), vle_lengths(n2)

    moments, n, _ = _scan(params, cfg.seed, workers, kernel, cfg.trials)
    stats = RunStats(experiment=cfg.kind, sweep="delta", seed=cfg.seed)
    for d, t in dts:
        pts = _points(d, {name: m for (name, at), m in moments.items() if at in (d, None)}, n)
        pts["rate_loss_bound"] = _const_point(d, "rate_loss_bound",
                                              rate_loss_bound(p, d, t, lam1, lam2), n)
        pts["vle_min"] = _min_point("vle_min", (pts["vle_rx1"], pts["vle_rx2"]))
        _add_points(stats, pts.values())
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
            dts = [("out_qo[delta=%s]" % _fmt(d), d, default_t_outage(d, lam1))
                   for d in cfg.deltas]
        else:
            d = policy_delta(policy, cfg.deltas[0], p)
            dts = [("out_qo[policy=%s]" % policy, d, default_t_outage(d, lam1))]

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            yield "out_full", p * _full_csi_snr(h1, h2, p) < beta
            yield "out_tdma", p * np.minimum(h1, h2) < beta_tdma
            for label, d, t in dts:
                yield label, alloc.outage_conditions(
                    h1, h2, outage_levels(h1, d, t) * d, outage_levels(h2, d, t) * d, p, beta)[0]

        moments, n, capped = _scan(params, cfg.seed, workers, kernel, cfg.trial_cap,
                                   events=("out_full",), target=cfg.min_outage_events)
        events = int(moments["out_full"][0])
        if capped:
            stats.notes.append("p_db=%s: trial cap %d reached with %d/%d events"
                               % (_fmt(pdb), n, events, cfg.min_outage_events))
        _add_points(stats, _points(pdb, moments, n).values())
        if progress:
            progress("outage p_db=%s: %d trials, %d events" % (_fmt(pdb), n, events))
    return stats


def run_outage_loss(cfg, progress=None):
    _expect(cfg, "outageloss")
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
            out_full = p * _full_csi_snr(h1, h2, p) < beta
            m1, m2 = outage_levels(h1, d, t), outage_levels(h2, d, t)
            out_qo = alloc.outage_conditions(h1, h2, m1 * d, m2 * d, p, beta)[0]
            yield from (("out_full", out_full), ("out_qo", out_qo),
                        ("outage_loss", out_qo & ~out_full))
            yield "vle_rx1", vle_lengths(m1)
            yield "vle_rx2", vle_lengths(m2)

        moments, n, _ = _scan(params, cfg.seed, workers, kernel, cfg.trials)
        pts = _points(value, moments, n)
        pts["sqrt_delta"] = _const_point(value, "sqrt_delta", math.sqrt(d), n)
        pts["vle_min"] = _min_point("vle_min", (pts["vle_rx1"], pts["vle_rx2"]))
        _add_points(stats, pts.values())
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
            yield "vle_rx1", vle_lengths(level_fn(block[:, 0], d, t))
            yield "vle_rx2", vle_lengths(level_fn(block[:, 1], d, t))

        moments, n, _ = _scan(params, cfg.seed, workers, kernel, cfg.trials)
        pts = _points(value, moments, n)
        pts["vle_min"] = _min_point("vle_min", (pts["vle_rx1"], pts["vle_rx2"]))
        pts["fle_bits"] = _const_point(value, "fle_bits", fle_bits(t, flavor), n)
        pts["t_bins"] = _const_point(value, "t_bins", t, n)
        if by_policy:
            pts["delta_used"] = _const_point(value, "delta_used", d, n)
        _add_points(stats, pts.values())
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
    names = (
        "out_full",
        "out_qo_fixed[delta=%s]" % _fmt(d_fix),
        "out_qo_policy[%s]" % policy,
        "out_rx1_fixed[delta=%s]" % _fmt(d_fix),
        "out_rx2_fixed[delta=%s]" % _fmt(d_fix),
    )
    curves = {name: [] for name in names}
    stats = RunStats(experiment=cfg.kind, sweep="p_db", seed=cfg.seed)
    for pdb in cfg.p_db:
        p = 10.0 ** (pdb / 10.0)
        d_pol = policy_delta(policy, d_fix, p)
        t_pol = default_t_outage(d_pol, lam1)

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            fixed = alloc.outage_conditions(
                h1, h2, outage_levels(h1, d_fix, t_fix) * d_fix,
                outage_levels(h2, d_fix, t_fix) * d_fix, p, beta)
            sys_pol = alloc.outage_conditions(
                h1, h2, outage_levels(h1, d_pol, t_pol) * d_pol,
                outage_levels(h2, d_pol, t_pol) * d_pol, p, beta)[0]
            yield from zip(names, (p * _full_csi_snr(h1, h2, p) < beta, fixed[0], sys_pol,
                                   fixed[1], fixed[2]))

        moments, n, capped = _scan(params, cfg.seed, workers, kernel, cfg.trial_cap,
                                   events=names, target=cfg.min_outage_events)
        if capped:
            stats.notes.append("p_db=%s: trial cap %d reached before %d events on every curve"
                               % (_fmt(pdb), n, cfg.min_outage_events))
        pts = _points(pdb, moments, n)
        for name in names:
            curves[name].append((pdb, pts[name].value))
        _add_points(stats, pts.values())
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
            for i in range(k):
                levels = rate_levels(block[:, i], d, t_r[i])
                qv[:, i] = levels.astype(np.float64) * d
                yield "vle_r%d" % i, vle_lengths(levels)
            live = np.all(qv > 0.0, axis=1)
            r_q = np.zeros(block.shape[0])
            if live.any():
                qd = np.sort(qv[live], axis=1)[:, ::-1]
                r_q[live] = alloc.batch_max_min_rate(qd, p, cfg.eps)[0]

            ov = np.empty_like(block)
            for i in range(k):
                levels = outage_levels(block[:, i], d, t_o[i])
                ov[:, i] = levels.astype(np.float64) * d
                yield "vle_o%d" % i, vle_lengths(levels)
            perm = np.argsort(-ov, axis=1, kind="stable")
            ov_desc = np.take_along_axis(ov, perm, axis=1)
            r_qo = alloc.batch_max_min_rate(ov_desc, p, cfg.eps)[0]
            alphas = alloc.alloc_from_rate(r_qo, ov_desc, p)
            true_perm = np.take_along_axis(block, perm, axis=1)
            out_q = alloc.sic_rates(alphas, true_perm, p).min(axis=1) < cfg.r_th

            yield from (("rate_loss", r_true - r_q), ("out_full", out_full), ("out_qo", out_q),
                        ("outage_loss", out_q & ~out_full))

        moments, n, _ = _scan(params, cfg.seed, workers, kernel, cfg.trials)
        pts = _points(d, moments, n)
        _add_points(stats, [
            pts["rate_loss"], pts["out_full"], pts["out_qo"], pts["outage_loss"],
            _min_point("vle_r_min", [pts["vle_r%d" % i] for i in range(k)]),
            _min_point("vle_o_min", [pts["vle_o%d" % i] for i in range(k)]),
        ])
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
