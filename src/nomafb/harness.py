"""Monte Carlo experiment drivers.

Each driver sweeps one variable and runs a vectorized per-chunk kernel for
each sweep point over the trial stream. A kernel names its metrics, each a
per-trial array or an event mask; a scan reduces them per chunk and adds the
chunks' sums exactly, as ints. Chunks are keyed by index, so the worker
count changes nothing but wall time; adaptive stopping keeps one prefix per
point, the shortest whose own chunks meet its event target, so the points of
a sweep can share a scan that samples each block once.
"""

import functools
import itertools
import math
import os
from collections import Counter, deque, namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import alloc
from .channel import CHUNK, ChannelParams, sample_block
from .evaluator import rate_loss_bound
from .quantizer import (
    default_t_outage,
    default_t_rate,
    distinct_words,
    fle_bits,
    outage_levels,
    rate_levels,
    vle_lengths,
)

POLICIES = ("fixed", "pcube", "min02-pcube")
# The options every kind takes; each EXPERIMENTS entry names its others.
SHARED_OPTIONS = ("variances", "p_db", "deltas", "seed", "workers")
WORKERS_ENV = "NOMAFB_WORKERS"
# More threads cannot run at once (_scan says which threads draw and which run kernels).
MAX_WORKERS_PER_CPU = 4
# Largest |p_db|: P = 10^(p_db/10) and every kernel stay finite to 10^(+-100).
P_DB_MAX = 1000.0
# Most receivers a kuser run takes. At 64, `kuser --k 64 --trials 16384 --workers 1`
# peaks at 78 MB RSS and `--trials 65536 --workers 2` at 121 MB.
MAX_RECEIVERS = 64
# Chunks per scan job of a row-local kernel. Two threads overlap numpy calls
# on 32,768-element arrays (x1.7 on 2 CPUs) far more reliably than on
# 16,384-element ones (x1.0 to x1.8), so a job draws two chunks as one block
# and runs its kernels on it. A K-user job is one chunk: its bisection reads the
# whole block (the largest r_ub sets its step count, the largest p g its Horner
# band, and it bisects distinct words).
JOB_CHUNKS = 2
# A bin size and, for each edge's quantizer, its level count at each receiver.
# Outputs of one count (t_bins, fle_bits, rate_loss_bound's t) give receiver 1's.
Bin = namedtuple("Bin", "delta t_rate t_outage")


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
        if self.kind not in EXPERIMENTS:
            raise ValueError("unknown experiment kind %r" % (self.kind,))
        exp = EXPERIMENTS[self.kind]
        if self.delta_policy not in POLICIES:
            raise ValueError("unknown delta policy %r; choose from %s"
                             % (self.delta_policy, ", ".join(POLICIES)))
        for f in fields(self)[1:]:
            # array_equal, as an array's != is an array, whose truth numpy refuses
            if f.name not in self.options and not np.array_equal(getattr(self, f.name), f.default):
                under = " under delta_policy " + self.policy if f.name in SHARED_OPTIONS else ""
                raise ValueError("%s%s does not read %s" % (self.kind, under, f.name))
        rx = len(self.variances)
        if not 2 <= rx <= (MAX_RECEIVERS if exp.k_user else 2):
            raise ValueError("%s needs %s receivers, got %d" % (
                self.kind, "2 to %d" % MAX_RECEIVERS if exp.k_user else "exactly two", rx))
        if not all(abs(v) <= P_DB_MAX for v in self.p_db):  # NaN fails too
            raise ValueError("every p_db must be finite and within +-%g dB" % P_DB_MAX)
        ChannelParams(self.variances)  # checks the means: the one gain-mean rule
        for name in ("r_th", "eps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite" % name)
        # Every r_ub = log2(1 + p g) of a finite p g is at most 2^10, so a
        # bisection to eps >= 2^10 / 2^alloc.ITERATION_CAP stays within its cap.
        least = alloc.ITERATION_CAP - 10
        if self.eps < 2.0**-least:
            raise ValueError("eps must be at least 2^-%d: a finer one could need more than %d "
                             "bisection steps" % (least, alloc.ITERATION_CAP))
        if any(a < b for a, b in zip(self.variances, self.variances[1:])):
            raise ValueError("variances must be nonincreasing (receiver 1 strongest)")
        if len(self.p_db) == 0:
            raise ValueError("p_db sweep must be nonempty")
        if len(self.deltas) == 0 or any(not 0 < d < 1 for d in self.deltas):
            raise ValueError("every delta must lie in (0, 1)")
        if self.sweep == "delta" and len(self.p_db) != 1:
            raise ValueError("%s sweeps delta; give exactly one p_db value" % self.kind)
        if self.sweep == "p_db" and exp.one_delta and len(self.deltas) != 1:
            raise ValueError("%s sweeps p_db at one delta; give exactly one delta value"
                             % self.kind)
        # Each sweep value, and each fixed delta's curve label in a p_db
        # sweep, names its own rows: a repeat would print them twice or let
        # one delta's rows overwrite another's.
        again = _first_repeat(self.p_db if self.sweep == "p_db" else self.deltas)
        if again is not None:
            raise ValueError("%s=%s is given twice; give each sweep value once"
                             % (self.sweep, _fmt(again)))
        if self.sweep == "p_db" and self.policy == "fixed":
            again = _first_repeat(_fmt(d) for d in self.deltas)
            if again is not None:
                raise ValueError("two deltas label their curves delta=%s; give deltas "
                                 "that differ in %%g" % again)
        if self.r_th >= exp.r_th_max:
            raise ValueError("%s needs r_th below %g, where its outage threshold overflows"
                             % (self.kind, exp.r_th_max))
        for name in ("trials", "min_outage_events", "trial_cap"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1" % name)
        if self.seed < 0 or self.workers < 0:
            raise ValueError("seed and workers must be nonnegative")
        self.points  # resolves, and so checks, every point's bins

    @property
    def sweep(self):
        """The swept variable, "p_db" or "delta": any policy but "fixed" sweeps p_db."""
        axis = EXPERIMENTS[self.kind].axis
        if axis == "either":
            axis = "p_db" if len(self.p_db) > 1 else "delta"
        return "p_db" if self.policy != "fixed" else axis

    @property
    def options(self):
        """The options its run reads: SHARED_OPTIONS and its kind's, less
        those its kind leaves unread under its policy."""
        exp = EXPERIMENTS[self.kind]
        return set(SHARED_OPTIONS + exp.options) - set(exp.unread[self.policy != "fixed"])

    @property
    def policy(self):
        """The bin-size rule of a p_db sweep; diversity, which always adds a
        policy curve, defaults to min02-pcube."""
        if self.kind == "diversity" and self.delta_policy == "fixed":
            return "min02-pcube"
        return self.delta_policy

    @property
    def points(self):
        """(sweep value, linear power p, bins) of each sweep point, a Bin for
        each bin size it runs. A delta sweep runs each delta at the one p_db;
        a p_db sweep runs the fixed deltas, or the bin the policy gives at
        that power (diversity runs its fixed delta and that bin)."""
        points = []
        fixed = self.deltas if "deltas" in self.options else ()
        for pdb in self.p_db:
            p = 10.0 ** (pdb / 10.0)
            if self.sweep == "delta":
                points += [(d, p, (d,)) for d in self.deltas]
            else:
                policy = () if self.policy == "fixed" else (policy_delta(self.policy, p),)
                points.append((pdb, p, fixed + policy))
        return [(value, p, tuple(self._bin(d, value) for d in ds)) for value, p, ds in points]

    def _bin(self, d, value):
        """The Bin of size d at sweep value `value`: kuser counts each receiver's
        levels from its own mean gain, the two-user kinds both from lambda1."""
        lams = self.variances if EXPERIMENTS[self.kind].k_user else self.variances[:1] * 2
        try:
            return Bin(d, tuple(default_t_rate(d, lam) for lam in lams),
                       tuple(default_t_outage(d, lam) for lam in lams))
        except ValueError:
            what = ("delta=%g" % d if d in self.deltas
                    else "%s gives delta=%g at p_db=%g" % (self.policy, d, value))
            raise ValueError(what + (", which needs 2^53 or more bins at lambda1=%g"
                                     % self.variances[0] if 0 < d < 1 else ", outside (0, 1)"))


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


def usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(requested):
    """Worker threads for a run: requested, else $NOMAFB_WORKERS, else one per
    usable CPU; never more than MAX_WORKERS_PER_CPU per usable CPU."""
    cpus = usable_cpus()
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


def policy_delta(policy, p):
    """Bin size at linear power p under policy "pcube" or "min02-pcube"."""
    d = p ** (-1.0 / 3.0)
    return min(0.2, d) if policy == "min02-pcube" else d


# ---------------------------------------------------------------------------
# chunk scanning

def _moments(x):
    """(sum, sum of squares) of one chunk of a metric, of an event mask both its
    count, as exact ints in units of 2^-1074, as every finite float is. Ints add
    exactly, and CPython rounds int / int correctly, as fsum does: see _scan."""
    if x.dtype == bool:  # a count is an int already, and its own sum of squares
        return (int(np.count_nonzero(x)) << 1074,) * 2
    (n1, d1), (n2, d2) = (float(s).as_integer_ratio() for s in (x.sum(), (x * x).sum()))
    return n1 << (1075 - d1.bit_length()), n2 << (1075 - d2.bit_length())  # n * 2^1074 / d


def _scan(params, seed, workers, kernels, trials, events=(), target=0, job_chunks=JOB_CHUNKS):
    """Reduce each kernel's metrics over the first `trials` trials, chunk by chunk.

    Each kernel (an adaptive sweep passes one per point) yields (metric,
    per-trial array or event mask) pairs for a block. A job draws job_chunks
    consecutive chunks as one block, sampled once for every kernel, runs each
    live kernel on it and reduces each metric as it comes, per chunk on its
    rows, so a row-local kernel gives each chunk the bits it gives the chunk
    alone. Jobs are consumed in index order, at most T = max(pool threads, 1)
    submitted past the one consumed: at most T + 1 are in flight, whatever the
    trial count. Of W = min(workers, jobs), a scan without events runs whole
    jobs on W pool threads. With events each kernel keeps the shortest chunk
    prefix in which every named event count of its own reaches target, and
    leaves the live kernels at the chunk that settles it; W - 1 pool threads
    only draw, and the calling thread runs every kernel: on small floored tests
    two threads trade the interpreter lock at each numpy call. At W = 1 each
    job runs inline. Only a failed scan cancels a job: an adaptive scan draws
    its first min(jobs, last job consumed + W) jobs, each once. Returns one
    (moments, n) per kernel: moments maps each metric to its (sum, sum of
    squares) over the n kept trials, a running total of the chunks' _moments,
    one pair per metric whatever the trial count, over 2^1074: CPython's int
    division rounds it correctly, as fsum rounds the chunks' floats.
    """
    n_chunks = (trials + CHUNK - 1) // CHUNK
    n_jobs = (n_chunks + job_chunks - 1) // job_chunks

    def draw(ji):
        chunks = range(ji * job_chunks, min((ji + 1) * job_chunks, n_chunks))
        rows = [min(CHUNK, trials - ci * CHUNK) for ci in chunks]
        if len(rows) == 1:
            return sample_block(params, seed, chunks[0], rows[0])
        block = np.empty((sum(rows), len(params.variances)), order="F")
        for i, (ci, n) in enumerate(zip(chunks, rows)):
            block[i * CHUNK:i * CHUNK + n] = sample_block(params, seed, ci, n)
        return block

    def step(block, live):
        parts = {k: [{} for _ in range(0, len(block), CHUNK)] for k in live}
        for k in live:
            for metric, x in kernels[k](block):
                for i, part in enumerate(parts[k]):
                    part[metric, 1], part[metric, 2] = _moments(x[i * CHUNK:(i + 1) * CHUNK])
                del x  # so the kernel computes its next metric without this one
        return parts

    totals, kept, live = [Counter() for _ in kernels], [0] * len(kernels), [*range(len(kernels))]
    width = min(workers, n_jobs)
    threads = width - bool(events) if width > 1 else 0  # an adaptive scan's caller runs kernels
    ahead = max(threads, 1)  # T, the jobs submitted past the one consumed
    task = draw if events else lambda ji: step(draw(ji), live)
    with ThreadPoolExecutor(threads) if threads else nullcontext() as pool:
        def submit(ji):  # a call that gives job ji's result; inline, it runs the job
            return pool.submit(task, ji).result if pool else functools.partial(task, ji)
        window = deque(map(submit, range(min(ahead, n_jobs))))
        try:
            for ji in range(n_jobs):
                job = window.popleft()  # drops the last job's block before the next draw
                if ji + ahead < n_jobs:
                    window.append(submit(ji + ahead))
                for k, chunk_parts in (step(job(), live) if events else job()).items():
                    for part in chunk_parts:
                        kept[k] += 1
                        totals[k].update(part)  # adds each moment; Counter's += drops those <= 0
                        if events and min(totals[k][e, 1] for e in events) >= target << 1074:
                            live.remove(k)
                            break
                if not live:
                    break
            for job in window if pool else ():
                job()  # a draw past the last job, read so that its error is raised
        finally:  # a failed or interrupted scan drops its queued jobs
            if pool:
                pool.shutdown(cancel_futures=True)
    return [({metric: (sums[metric, 1] / (1 << 1074), sums[metric, 2] / (1 << 1074))
              for metric, power in sums if power == 1}, min(chunks * CHUNK, trials))
            for sums, chunks in zip(totals, kept)]


# ---------------------------------------------------------------------------
# the sweep loop

# glibc's mallopt parameters, and the environment settings that already set them
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
_MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold")


@functools.cache
def fix_malloc_thresholds():
    """Stop glibc from mapping and trimming heap pages for every chunk temporary.

    A two-user job stacks two chunks, so a float64 column temporary is 256 KiB,
    above glibc's default 128 KiB mmap threshold: each would map fresh pages
    (or trim freed ones) and fault them in again. Raising the mmap threshold to
    4 MiB and the trim threshold to 64 MiB lets freed temporaries be reused in
    place. Runs once per process; a no-op off glibc or where the environment
    already sets either threshold. True if the thresholds were set.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = None
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if (not libc or any(k in os.environ for k in _MALLOC_ENV)
            or any(t in tunables for t in _MALLOC_TUNABLES)):
        return False
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, 4 << 20)) and bool(mallopt(M_TRIM_THRESHOLD, 64 << 20))


def _points(sweep_value, moments, n):
    """{metric: MetricPoint} with each mean and its standard error."""
    points = {}
    for metric, (total, total_sq) in moments.items():
        mean = total / n
        var = (total_sq - n * mean * mean) / (n - 1) if n > 1 else 0.0
        se = math.sqrt(max(var, 0.0) / n)
        points[metric] = MetricPoint(sweep_value, metric, mean, se, n)
    return points


def _fmt(x):
    return "%g" % x


def _first_repeat(keys):
    """The first key equal to an earlier one, or None."""
    seen = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)
    return None


def _sweep(cfg, kind, scans, progress, events=(), mins=None, drop=()):
    """The per-point loop of every driver: scan, reduce, report.

    scans yields (kernel, views) pairs. Each kernel is scanned once and views
    lists the (sweep value, constants) it reports at: a metric the kernel
    keys (name, value) belongs to that sweep value alone, a plain name to
    every one. constants maps metric names to exact values, mins maps a
    metric to the metrics it is the lowest of (the first on ties), and drop
    names metrics that are not reported. Without events each kernel is
    scanned alone, made once the one before it is dropped. With events a
    point's kernel stops at the first chunk where each named event count of
    its own reaches cfg.min_outage_events, or at cfg.trial_cap trials; the
    points all share one scan.
    """
    if cfg.kind != kind:
        raise ValueError("config kind is %r, expected %r" % (cfg.kind, kind))
    fix_malloc_thresholds()
    params = ChannelParams(cfg.variances)
    workers = resolve_workers(cfg.workers)
    trials = cfg.trial_cap if events else cfg.trials
    stats = RunStats(experiment=kind, sweep=cfg.sweep, seed=cfg.seed)
    job_chunks = 1 if EXPERIMENTS[kind].k_user else JOB_CHUNKS
    scans = iter(scans)
    while batch := list(itertools.islice(scans, None if events else 1)):
        kernels, group = zip(*batch)
        found = _scan(params, cfg.seed, workers, kernels, trials, events,
                      cfg.min_outage_events, job_chunks)
        del batch, kernels  # what they hold, such as tables, goes before the next are made
        for (moments, n), views in zip(found, group):
            fewest = min((int(moments[e][0]) for e in events), default=None)
            for value, constants in views:
                own = {}
                for key, m in moments.items():
                    name, at = key if isinstance(key, tuple) else (key, value)
                    if at == value:
                        own[name] = m
                pts = _points(value, own, n)
                for name, c in constants.items():
                    pts[name] = MetricPoint(value, name, float(c), 0.0, n)
                for name, of in (mins or {}).items():
                    low = min((pts[s] for s in of), key=lambda m: m.value)
                    pts[name] = replace(low, metric=name)
                stats.points.extend(sorted((m for m in pts.values() if m.metric not in drop),
                                           key=lambda m: m.metric))
                # The exact value: points %g prints alike get their own labels.
                where = "%s=%r" % (stats.sweep, float(value))
                if events and fewest < cfg.min_outage_events:  # so the cap was reached
                    stats.notes.append("%s: trial cap %d reached with %d/%d events"
                                       % (where, n, fewest, cfg.min_outage_events))
                if progress:
                    progress("%s %s: %d trials" % (kind, where, n)
                             + (", %d events" % fewest if events else ""))
    return stats


# ---------------------------------------------------------------------------
# two-user kernels

VLE_MIN = {"vle_min": ("vle_rx1", "vle_rx2")}


def _snr_threshold(rate):
    """2^rate - 1, the SNR below which a link cannot carry `rate`: beta at r_th."""
    return 2.0**rate - 1.0


def _full_csi_outage(block, p, beta):
    """Outage event of full-CSI max-min NOMA on a two-user block of gains:
    its SIC SNR falls below beta."""
    h1, h2 = block[:, 0], block[:, 1]
    return p * alloc.sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p) < beta


def _floored(test, rows, *arrays):
    """An iterator over the masks of test(*arrays), a row-local outage test
    run only on the block rows the bool mask `rows` marks, those below its
    floor: the others are in no outage, so False either way. Up to half the
    block, those rows are gathered by index a column at a time (a take along
    axis 0 of an F-ordered block costs several times as much) and a mask is
    scattered back when taken; past half, where that costs more than it
    saves, the test runs on the whole block."""
    if 2 * np.count_nonzero(rows) > rows.size:
        return iter(test(*arrays))
    at = np.flatnonzero(rows)

    def gather(x):
        out = np.empty((at.size, x.shape[1]), dtype=x.dtype, order="F")
        for j in range(x.shape[1]):
            x[:, j].take(at, out=out[:, j])
        return out

    def scatter(mask):
        full = np.zeros(rows.size, dtype=bool)
        full[at] = mask
        return full

    return map(scatter, test(*map(gather, arrays)))


def _order_keys(levels, d, top):
    """Int keys of levels at most top that order and tie as the fed-back
    gains levels * d do. Below 2^52 the levels are their own keys: level * d
    is strictly increasing there, as neighbouring levels' products lie d
    apart and each rounds by under d/2. From 2^52 on two levels can differ
    as ints and tie as floats, so the ranks of the floats stand in."""
    if top < 1 << 52:
        return levels
    return np.unique(levels * d, return_inverse=True)[1].reshape(levels.shape)


def _quantized_outage(block, levels, b, p, beta):
    """outage_conditions on a two-user block of true gains when both receivers
    feed back upper-edge levels of the Bin b, with power split by the
    fed-back gains of each row's (strong, weak) level pair. Each int array
    is dropped once it is scaled, levels once both are picked, so a caller
    passes them as a temporary: a local or the args tuple of f(*args) would
    keep them alive through the split, 512 KiB more at a two-chunk job's peak.
    """
    d = b.delta
    rx1_strong = np.greater_equal(*_order_keys(levels, d, max(b.t_outage) + 1).T)
    # picked before the multiply by d, as _pair_lookup's per-row gains are
    strong, weak = np.maximum(levels[:, 0], levels[:, 1]), np.minimum(levels[:, 0], levels[:, 1])
    del levels
    qs = strong * d
    del strong
    qw = weak * d
    del weak
    a = alloc._served_split(qs, qw, p)  # upper-edge levels are at least 1
    del qs, qw
    return alloc.outage_conditions(block[:, 0], block[:, 1], a, rx1_strong, p, beta)


def _outage_masks(p, beta, bins):
    """masks(block, hmin[, levels]): a generator of a two-user block's
    full-CSI outage mask at power p and SINR threshold beta, then for each
    upper-edge Bin an iterator of its (system, rx1, rx2) masks of
    _quantized_outage. The floors are made once per point. masks forms each
    alloc.outage_floor's row mask from hmin, the smaller gain of each row,
    and drops hmin before its first test; each test runs through _floored.
    levels, where given, are every row's levels at the one bin; else each
    test quantizes its own rows.
    """
    floors = [alloc.outage_floor(p, beta)] + [
        alloc.outage_floor(p, beta, b.delta, min(b.t_outage) + 1) for b in bins]

    def masks(block, hmin, *levels):
        full, *below = [hmin < c for c in floors]  # the rows each test must run on
        del hmin
        yield from _floored(lambda g: (_full_csi_outage(g, p, beta),), full, block)
        for b, r in zip(bins, below):
            yield _floored(lambda g, m=None: _quantized_outage(
                g, outage_levels(g, b.delta, b.t_outage) if m is None else m, b, p, beta),
                r, block, *levels)

    return masks


# Most entries of a level-pair table: 1 MiB of float64, which holds every
# pair of levels up to 510 (delta >= ~0.009 at lambda1 = 1). A finer bin
# splits power per row: its table would outweigh a job's arrays (563,391
# entries at delta = 0.005, 191 MB at 1e-3).
PAIR_TABLE_MAX = 1 << 17
# Most entries a table is built on at once: the main thread builds it, on a heap
# the worker threads do not share, so its temporaries add to a run's peak RSS.
PAIR_SLAB = 1 << 13


def _table_pays(size, rows):
    """Whether a scan of `rows` trials builds a per-scan table of `size`
    entries: at most PAIR_TABLE_MAX, and fewer than its rows, which a short
    scan computes faster than it could build the table."""
    return size <= PAIR_TABLE_MAX and size < rows


def _pair_lookup(fn, d, t, rows):
    """(key, read): read(key(levels)) is fn(s * d, w * d) of the (strong,
    weak) level pair w <= s <= t of each row of a two-user block of levels.

    The transmitter adapts to the fed-back levels alone, so a trial's min
    adapted rate is a function of its level pair. Where _table_pays for its
    (t + 1)(t + 2)/2 pairs and a scan of `rows` trials, fn is tabulated on
    slabs of at most PAIR_SLAB entries: key gives each row's index
    s(s+1)/2 + w and read takes its entry, formed from s * d and w * d as a
    row forms them, so with the row's bits. Otherwise key gives the
    fed-back gains and read runs fn on them. A caller drops levels between
    the two steps, so they are not alive through a per-row fn.
    """
    size = (t + 1) * (t + 2) // 2
    if not _table_pays(size, rows):
        def gains(levels):
            # picked before the multiply by d, which is monotone: the bits of
            # picking from levels * d, without a float copy of the block
            return (np.maximum(levels[:, 0], levels[:, 1]) * d,
                    np.minimum(levels[:, 0], levels[:, 1]) * d)

        return gains, lambda fed: fn(*fed)
    table = np.empty(size)
    step = PAIR_SLAB // (t + 1)  # strong levels per slab, t + 1 <= 511
    for lo in range(0, t + 1, step):
        s = np.arange(lo, min(lo + step, t + 1))
        s = np.repeat(s, s + 1)
        first = lo * (lo + 1) // 2
        w = np.arange(first, first + s.size) - (s * (s + 1) >> 1)
        table[first:first + s.size] = fn(s * d, w * d)

    def key(levels):
        s = np.maximum(levels[:, 0], levels[:, 1])
        k = s + 1
        k *= s
        del s
        k >>= 1
        k += np.minimum(levels[:, 0], levels[:, 1])
        return k

    return key, table.take


def _min_rate_lookup(b, p, rows):
    """_pair_lookup of the Bin b's lower-edge min adapted rate at power p, up
    to its largest count."""
    def min_rate(qs, qw):
        r_strong, r_weak = alloc.two_user_rates(alloc.equal_rate_split(qs, qw, p), qs, qw, p)
        return np.minimum(r_strong, r_weak, out=r_strong)

    return _pair_lookup(min_rate, b.delta, max(b.t_rate), rows)


def _vle_lookup(top, rows):
    """The codeword lengths of levels 0..top as vle_lengths gives them: the take
    of a table of all top + 1, built once per scan where _table_pays, or vle_lengths."""
    return vle_lengths(np.arange(top + 1)).take if _table_pays(top + 1, rows) else vle_lengths


# ---------------------------------------------------------------------------
# drivers

def run_min_rate(cfg, progress=None):
    def kernel_at(p, bins):
        lookups = [(b, _min_rate_lookup(b, p, cfg.trials)) for b in bins]

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            yield "r_full", alloc.max_min_rate_two_user(h1, h2, p)
            yield "r_tdma", 0.5 * np.log2(1.0 + p * np.minimum(h1, h2))
            for (d, t, _), (key, read) in lookups:
                yield "r_qr[delta=%s]" % _fmt(d), read(key(rate_levels(block, d, t)))

        return kernel

    # Only _sweep holds a point's kernel, so its tables go after its scan.
    scans = ((kernel_at(p, bins), [(value, {})]) for value, p, bins in cfg.points)
    return _sweep(cfg, "minrate", scans, progress)


def run_rate_loss(cfg, progress=None):
    # One scan serves every delta: each block is sampled once.
    def scans():
        points = cfg.points
        _, p, _ = points[0]
        bins = [b for _, _, (b,) in points]
        lookups = [_min_rate_lookup(b, p, cfg.trials) for b in bins]
        vles = [_vle_lookup(max(b.t_rate), cfg.trials) for b in bins]

        def kernel(block):
            h1, h2 = block[:, 0], block[:, 1]
            rf = alloc.max_min_rate_two_user(h1, h2, p)
            yield "r_tdma", 0.5 * np.log2(1.0 + p * np.minimum(h1, h2))
            for (d, t, _), (key, read), lengths in zip(bins, lookups, vles):
                n = rate_levels(block, d, t)
                yield ("vle_rx1", d), lengths(n[:, 0])
                yield ("vle_rx2", d), lengths(n[:, 1])
                # Each array goes once it is used, so none of them is alive
                # through the split or the next delta's quantizer.
                fed = key(n)
                del n
                rq = read(fed)
                del fed
                yield ("r_qr", d), rq
                yield ("rate_loss", d), rf - rq
                del rq

        yield kernel, [(d, {"rate_loss_bound": rate_loss_bound(p, d, t[0], *cfg.variances)})
                       for d, t, _ in bins]

    return _sweep(cfg, "rateloss", scans(), progress, mins=VLE_MIN)


def run_outage(cfg, progress=None):
    def kernel_at(p, bins):
        beta_tdma = _snr_threshold(2.0 * cfg.r_th)
        labels = ["out_qo[delta=%s]" % _fmt(b.delta) if cfg.policy == "fixed"
                  else "out_qo[policy=%s]" % cfg.policy for b in bins]
        masks = _outage_masks(p, _snr_threshold(cfg.r_th), bins)

        def kernel(block):
            hmin = np.minimum(block[:, 0], block[:, 1])
            out_tdma = p * hmin < beta_tdma
            found = masks(block, hmin)
            del hmin
            yield "out_full", next(found)
            yield "out_tdma", out_tdma
            for label in labels:
                yield label, next(next(found))  # the system mask

        return kernel

    scans = ((kernel_at(p, bins), [(value, {})]) for value, p, bins in cfg.points)
    return _sweep(cfg, "outage", scans, progress, events=("out_full",))


def run_outage_loss(cfg, progress=None):
    def kernel_at(p, b):
        masks = _outage_masks(p, _snr_threshold(cfg.r_th), (b,))
        lengths = _vle_lookup(max(b.t_outage) + 1, cfg.trials)

        def kernel(block):
            # every row's levels, for the VLE lengths; the outage test reads its rows'
            levels = outage_levels(block, b.delta, b.t_outage)
            yield "vle_rx1", lengths(levels[:, 0])
            yield "vle_rx2", lengths(levels[:, 1])
            out_full, found = masks(block, np.minimum(block[:, 0], block[:, 1]), levels)
            out_qo = next(found)
            yield from (("out_full", out_full), ("out_qo", out_qo),
                        ("outage_loss", out_qo & ~out_full))

        return kernel

    scans = ((kernel_at(p, b), [(value, {"sqrt_delta": math.sqrt(b.delta)})])
             for value, p, (b,) in cfg.points)
    return _sweep(cfg, "outageloss", scans, progress, mins=VLE_MIN)


def run_feedback_rate(cfg, progress=None):
    fixed = cfg.policy == "fixed"
    # the adaptive-bin-size story is an outage design, so use q_o bins (1..t+1)
    level_fn, top = (rate_levels, 0) if fixed else (outage_levels, 1)

    def kernel_at(d, ts):
        lengths = _vle_lookup(max(ts) + top, cfg.trials)

        def kernel(block):
            levels = level_fn(block, d, ts)
            yield "vle_rx1", lengths(levels[:, 0])
            yield "vle_rx2", lengths(levels[:, 1])

        return kernel

    def scans():
        for value, _, (b,) in cfg.points:
            ts = b.t_rate if fixed else b.t_outage
            constants = {"fle_bits": fle_bits(ts[0] + top), "t_bins": ts[0]}
            if not fixed:
                constants["delta_used"] = b.delta
            yield kernel_at(b.delta, ts), [(value, constants)]

    return _sweep(cfg, "feedback", scans(), progress, mins=VLE_MIN)


def _in_slope_window(p_db, top):
    """Whether p_db lies in the slope fit's window, the top 10 dB below top."""
    return p_db >= top - 10.0 - 1e-9


def estimate_diversity(curve):
    """Least-squares slope of -log10(prob) against log10(P) over the top 10 dB.

    curve is a sequence of (p_db, probability) pairs.
    """
    pts = [(float(a), float(b)) for a, b in curve]
    hi = max((a for a, _ in pts), default=math.inf)
    sel = [(a, b) for a, b in pts if _in_slope_window(a, hi)]
    if len(sel) < 3:
        raise ValueError("need at least 3 points in the window, got %d" % len(sel))
    if any(b <= 0 for _, b in sel):
        raise ValueError("zero-probability point in window; not enough events")
    x = np.array([a / 10.0 for a, _ in sel])  # log10 of linear power
    y = np.array([-math.log10(b) for _, b in sel])
    return float(np.polyfit(x, y, 1)[0])


def run_diversity(cfg, progress=None):
    d_fix = cfg.deltas[0]
    names = (
        "out_full",
        "out_qo_fixed[delta=%s]" % _fmt(d_fix),
        "out_qo_policy[%s]" % cfg.policy,
        "out_rx1_fixed[delta=%s]" % _fmt(d_fix),
        "out_rx2_fixed[delta=%s]" % _fmt(d_fix),
    )

    def kernel_at(p, bins):
        masks = _outage_masks(p, _snr_threshold(cfg.r_th), bins)

        def kernel(block):
            full, (fixed, rx1, rx2), policy = masks(block, np.minimum(block[:, 0], block[:, 1]))
            yield from zip(names, (full, fixed, next(policy), rx1, rx2))

        return kernel

    scans = ((kernel_at(p, bins), [(value, {})]) for value, p, bins in cfg.points)
    stats = _sweep(cfg, "diversity", scans, progress, events=names)
    last = float(max(cfg.p_db))
    n_window = sum(1 for a in cfg.p_db if _in_slope_window(a, last))
    slope_pts = []
    for name in names:
        try:
            slope = estimate_diversity([(m.sweep_value, m.value)
                                        for m in stats.points if m.metric == name])
        except ValueError as e:
            stats.notes.append("slope[%s]: %s" % (name, e))
            continue
        slope_pts.append(MetricPoint(last, "slope[%s]" % name, slope, 0.0, n_window))
    stats.points.extend(sorted(slope_pts, key=lambda m: m.metric))
    return stats


def _row_min(x):
    """np.min(x, axis=1), one column at a time: on a block of a few columns
    numpy's own reduction loops over every short row and costs over ten times as much."""
    return functools.reduce(np.minimum, x.T)


@functools.lru_cache(maxsize=None)
def _network(k):
    """Batcher's odd-even merge sort on k wires, as the (i, j) comparators,
    i < j, it runs in turn; dropping those that reach past k sorts any k."""
    pairs, p = [], 1
    while p < k:
        for q in (p >> s for s in range(p.bit_length())):
            pairs += [(i, i + q) for j in range(q % p, k - q, 2 * q)
                      for i in range(j, min(j + q, k - q)) if i // (2 * p) == (i + q) // (2 * p)]
        p *= 2
    return tuple(pairs)


def _sort_desc(a):
    """Sort each column of the (K, n) array a in place, largest first: each
    comparator of _network(K) is a np.minimum, a np.maximum and a row copy."""
    t = np.empty_like(a[0])
    for i, j in _network(len(a)):
        np.minimum(a[i], a[j], out=t)
        np.maximum(a[i], a[j], out=a[i])
        a[j] = t
    return a


def _fed_back_order(levels, d, top):
    """Flat indices into the (K, n) array levels, each at most top, each
    column in the stable np.argsort order of -(levels * d): by fed-back gain,
    ties by receiver. _sort_desc sorts keys _order_keys << 6 | 63 - i for
    receiver i < 64."""
    k, n = levels.shape
    key = _sort_desc(_order_keys(levels, d, top) << 6 | np.arange(63, 63 - k, -1)[:, None])
    at = np.bitwise_and(key, 63, out=key)
    at *= -n
    at += np.arange(63 * n, 64 * n)  # (63 - i) n + column
    return at


def _quantized_max_min(levels_desc, d, p, eps, split=False):
    """Max-min rate of each row of fed-back gains levels_desc * d or, with
    split, only its power fractions; levels_desc is (n, K) int64, descending.

    Each distinct level word is bisected once and its result scattered back
    to every row that fed it back. This gives every row the bits of a
    bisection over all rows: a row's bisection reads the block only through
    the largest r_ub, which sets the step count, and the largest p g, which
    sets the Horner band, and the row that sets each is among the words.
    """
    found = distinct_words(levels_desc)
    g = (levels_desc if found is None else found[0]).astype(np.float64) * d
    r = alloc.batch_max_min_rate(g, p, eps)[0]
    x = alloc.alloc_from_rate(r, g, p) if split else r
    # gathered along the rows of x.T, so the split comes back column-major
    return x if found is None else x.T.take(found[1], axis=-1).T


def run_k_user(cfg, progress=None):
    k = len(cfg.variances)

    def kernel_at(p, d, t_r, t_o):
        vle_r = _vle_lookup(max(t_r), cfg.trials)
        vle_o = _vle_lookup(max(t_o) + 1, cfg.trials)

        def kernel(block):
            n = block.shape[0]
            # F-ordered (n, K), so the solver's (p * g).T is a view
            r_true, _ = alloc.batch_max_min_rate(_sort_desc(np.array(block.T)).T, p, cfg.eps)
            out_full = r_true < cfg.r_th

            lv = np.empty((k, n), dtype=np.int64)
            for i in range(k):
                lv[i] = rate_levels(block[:, i], d, t_r[i])
                yield "vle_r%d" % i, vle_r(lv[i])
            _sort_desc(lv)
            live = lv[-1] > 0
            r_q = np.zeros(n)
            if live.any():
                r_q[live] = _quantized_max_min(lv[:, live].T, d, p, cfg.eps)

            for i in range(k):
                lv[i] = outage_levels(block[:, i], d, t_o[i])
                yield "vle_o%d" % i, vle_o(lv[i])
            # Each (K, n) int array goes at its last read.
            at = _fed_back_order(lv, d, max(t_o) + 1)
            fed = lv.take(at).T
            del lv
            alphas = _quantized_max_min(fed, d, p, cfg.eps, split=True)
            del fed
            gains = np.ravel(block, order="F").take(at).T
            del at
            out_q = _row_min(alloc.sic_rates(alphas, gains, p)) < cfg.r_th

            yield from (("rate_loss", r_true - r_q), ("out_full", out_full),
                        ("out_qo", out_q), ("outage_loss", out_q & ~out_full))

        return kernel

    scans = ((kernel_at(p, *b), [(value, {})]) for value, p, (b,) in cfg.points)
    # Only the lowest receiver's feedback cost of each quantizer is reported.
    per_rx = {"vle_%s_min" % q: tuple("vle_%s%d" % (q, i) for i in range(k)) for q in "ro"}
    return _sweep(cfg, "kuser", scans, progress, mins=per_rx,
                  drop=sum(per_rx.values(), ()))


# One experiment kind. axis: what it sweeps under the fixed policy ("either":
# p_db when several are given, else delta); a delta sweep takes one p_db.
# options: the options it takes beyond SHARED_OPTIONS; under a delta_policy it
# sweeps p_db. unread: those it leaves unread under the fixed policy and under
# any other, as a policy's p_db sweep runs the policy's bin alone and feedback
# bits change with P only through it. one_delta: a p_db sweep takes one delta.
# k_user: two or more receivers, not exactly two. r_th_max: where its outage
# threshold 2^r_th or 2^(2 r_th) overflows.
Experiment = namedtuple("Experiment", "run axis help options unread one_delta k_user r_th_max",
                        defaults=(((), ()), False, False, math.inf))
ADAPTIVE = ("delta_policy", "r_th", "min_outage_events", "trial_cap")

EXPERIMENTS = {
    "minrate": Experiment(run_min_rate, "p_db",
                          "mean min rate vs P: full CSI, quantized feedback, TDMA", ("trials",)),
    "rateloss": Experiment(run_rate_loss, "delta",
                           "mean rate loss and feedback bits vs delta at fixed P", ("trials",)),
    "outage": Experiment(run_outage, "p_db", "outage probability vs P with adaptive stopping",
                         ADAPTIVE, ((), ("deltas",)), r_th_max=512.0),
    "outageloss": Experiment(run_outage_loss, "either",
                             "quantization-added outage probability vs delta or P",
                             ("r_th", "trials"), one_delta=True, r_th_max=1024.0),
    "feedback": Experiment(run_feedback_rate, "delta",
                           "measured VLE/FLE feedback bits vs delta (or vs P under a policy)",
                           ("delta_policy", "trials"), (("p_db",), ("deltas",))),
    "diversity": Experiment(run_diversity, "p_db", "outage curves vs P plus fitted high-P slopes",
                            ADAPTIVE, one_delta=True, r_th_max=1024.0),
    "kuser": Experiment(run_k_user, "delta", "rate and outage losses vs delta for K receivers",
                        ("r_th", "eps", "trials", "k"), k_user=True),
}


def run_experiment(cfg, progress=None):
    return EXPERIMENTS[cfg.kind].run(cfg, progress=progress)
