"""Experiment drivers: determinism, adaptive stopping, and sweep behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import glibc, minor_faults, quantized_outage, vle_mean_analytic
from nomafb import alloc, harness
from nomafb.channel import CHUNK, ChannelParams, sample_block
from nomafb.quantizer import (
    default_t_outage,
    default_t_rate,
    distinct_words,
    outage_levels,
    rate_levels,
    vle_lengths,
)


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def tiny(kind, n=1000):
    """The field that keeps a run of `kind` to n trials: its trial count, or
    the cap of its adaptive stopping."""
    return {"trial_cap" if "trial_cap" in harness.EXPERIMENTS[kind].options else "trials": n}


def metrics_by_sweep(stats):
    out = {}
    for m in stats.points:
        out.setdefault(m.sweep_value, {})[m.metric] = m
    return out


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV, "3")
        assert harness.resolve_workers(2) == 2

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV, "3")
        assert harness.resolve_workers(0) == 3

    def test_bad_env_var(self, monkeypatch):
        monkeypatch.setenv(harness.WORKERS_ENV, "zero")
        with pytest.raises(ValueError):
            harness.resolve_workers(0)
        monkeypatch.setenv(harness.WORKERS_ENV, "0")
        with pytest.raises(ValueError):
            harness.resolve_workers(0)

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
        assert harness.resolve_workers(0) >= 1

    def test_clamped_to_a_few_per_cpu(self, monkeypatch):
        cap = 3 * harness.MAX_WORKERS_PER_CPU
        usable_cpus = harness.usable_cpus
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
        assert harness.resolve_workers(100_000) == cap
        assert harness.resolve_workers(cap) == cap
        assert harness.resolve_workers(cap - 1) == cap - 1
        assert harness.resolve_workers(0) == 3
        monkeypatch.setenv(harness.WORKERS_ENV, "100000")
        assert harness.resolve_workers(0) == cap
        monkeypatch.setattr(harness, "usable_cpus", usable_cpus)
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness.resolve_workers(100_000) == harness.MAX_WORKERS_PER_CPU

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert harness.usable_cpus() == 3
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert harness.usable_cpus() == 64

    def test_adaptive_scan_keeps_one_pool_per_shared_scan(self, monkeypatch):
        pools = []  # [width, jobs submitted] of each pool built

        class RecordingPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                self.record = [max_workers, 0]
                pools.append(self.record)
                super().__init__(max_workers)

            def submit(self, fn, *args, **kwargs):
                self.record[1] += 1
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        # A job is two chunks. At 0 dB almost every trial is a full-CSI
        # outage, so 60,000 events take 4 chunks (2 jobs); at 10 dB about
        # 38 % are, and the cap of 8 chunks (4 jobs) stops the point. Both
        # points share one scan, so one pool draws all four jobs, on
        # workers - 1 threads: the calling thread runs the kernels.
        cfg = harness.ExperimentConfig(kind="outage", p_db=(0.0, 10.0), deltas=(0.2,),
                                       min_outage_events=60_000, trial_cap=8 * CHUNK, workers=3)
        stats = harness.run_outage(cfg)
        assert pools == [[2, 4]]
        assert [m.n for m in stats.points if m.metric == "out_full"] == [4 * CHUNK, 8 * CHUNK]
        # A pool is no wider than the scan has jobs, less the calling
        # thread, and a one-job scan needs no pool at all.
        pools.clear()
        harness.run_outage(replace(cfg, trial_cap=4 * CHUNK))
        harness.run_outage(replace(cfg, trial_cap=2 * CHUNK))
        harness.run_outage(replace(cfg, trial_cap=CHUNK))
        assert pools == [[1, 2]]
        # kuser runs fixed scans, whose jobs run whole on the pool, and its
        # jobs are one chunk each: three chunks take three workers.
        pools.clear()
        harness.run_k_user(harness.ExperimentConfig(
            kind="kuser", variances=(1.0, 0.5, 0.25), trials=3 * CHUNK, workers=3))
        assert pools == [[3, 3]]


class TestPolicyDelta:
    def test_power_law(self):
        assert_allclose(harness.policy_delta("pcube", 1000.0), 0.1, rtol=1e-12)
        assert_allclose(harness.policy_delta("pcube", 8.0), 0.5, rtol=1e-12)

    def test_capped_power_law(self):
        assert harness.policy_delta("min02-pcube", 1.0) == 0.2
        assert harness.policy_delta("min02-pcube", 125.0) == pytest.approx(0.2)
        assert_allclose(harness.policy_delta("min02-pcube", 1000.0), 0.1, rtol=1e-12)


class TestConfigValidation:
    def test_accepts_defaults(self):
        cfg = harness.ExperimentConfig(kind="minrate")
        assert cfg.variances == (1.0, 0.5)

    def test_rejects_bad_fields(self):
        good = dict(kind="minrate")
        bad = [
            dict(kind="sideways"),
            dict(kind="minrate", variances=(0.5, 1.0)),
            dict(kind="minrate", variances=()),
            dict(kind="minrate", variances=(1.0, 0.0)),
            dict(kind="minrate", p_db=()),
            dict(kind="minrate", deltas=(0.0,)),
            dict(kind="minrate", deltas=(1.0,)),
            dict(kind="minrate", delta_policy="cube"),
            dict(kind="minrate", trials=0),
            dict(kind="minrate", seed=-1),
            dict(kind="minrate", workers=-2),
        ]
        harness.ExperimentConfig(**good)
        for kw in bad:
            with pytest.raises(ValueError):
                harness.ExperimentConfig(**kw)

    @pytest.mark.parametrize("kind, field, message", [
        ("outage", "r_th", "r_th must be positive and finite"),
        ("kuser", "eps", "eps must be positive and finite"),
        ("outage", "min_outage_events", "min_outage_events must be at least 1"),
        ("diversity", "trial_cap", "trial_cap must be at least 1"),
    ])
    def test_positivity_rules_hold_where_the_field_is_taken(self, kind, field, message):
        # A kind that does not take the field refuses it before this rule.
        with pytest.raises(ValueError, match=message):
            harness.ExperimentConfig(kind=kind, **{field: 0})

    @pytest.mark.parametrize("cap", [64, 70])
    def test_eps_floor_follows_the_bisection_cap(self, cap, monkeypatch):
        # Every r_ub of a finite p g is at most 2^10, so eps >= 2^10 / 2^cap
        # keeps each bisection within alloc.ITERATION_CAP = cap steps: the
        # least eps moves with the cap, and a float below it is refused.
        monkeypatch.setattr(alloc, "ITERATION_CAP", cap)
        least = 2.0 ** (10 - cap)
        assert harness.ExperimentConfig(kind="kuser", eps=least).eps == least
        message = ("eps must be at least 2\\^-%d: a finer one could need more than %d "
                   "bisection steps" % (cap - 10, cap))
        with pytest.raises(ValueError, match=message):
            harness.ExperimentConfig(kind="kuser", eps=math.nextafter(least, 0.0))


def _pcube(p_db, policy="pcube"):
    return harness.policy_delta(policy, 10.0 ** (p_db / 10.0))


class TestConfigBins:
    # Every quantizer takes its level counts from the bins of the config's
    # points: the two-user kinds count both receivers from lambda1, kuser
    # each receiver from its own mean gain. lambda2 = 0.5 would give other
    # counts, so a bin counted from it shows here.
    @pytest.mark.parametrize("kind, fields, deltas", [
        ("minrate", dict(p_db=(0.0, 10.0), deltas=(0.05, 0.2)), [(0.05, 0.2)] * 2),
        ("rateloss", dict(deltas=(0.05, 0.2)), [(0.05,), (0.2,)]),
        ("outage", dict(p_db=(10.0, 20.0), delta_policy="pcube"),
         [(_pcube(10.0),), (_pcube(20.0),)]),
        ("outageloss", dict(p_db=(10.0, 20.0), deltas=(0.05,)), [(0.05,)] * 2),
        ("feedback", dict(p_db=(10.0, 30.0), delta_policy="min02-pcube"),
         [(0.2,), (_pcube(30.0, "min02-pcube"),)]),
        ("diversity", dict(p_db=(20.0, 30.0), deltas=(0.05,)),
         [(0.05, 0.2), (0.05, _pcube(30.0, "min02-pcube"))]),
    ])
    def test_two_user_kinds_count_both_receivers_from_lambda1(self, kind, fields, deltas):
        cfg = harness.ExperimentConfig(kind=kind, variances=(2.0, 0.5), **fields)
        points = cfg.points
        assert [tuple(b.delta for b in bins) for _, _, bins in points] == deltas
        for _, _, bins in points:
            for b in bins:
                assert b.t_rate == (default_t_rate(b.delta, 2.0),) * 2
                assert b.t_outage == (default_t_outage(b.delta, 2.0),) * 2

    def test_kuser_counts_each_receiver_from_its_own_mean(self):
        lams = (1.0, 0.5, 0.25)
        cfg = harness.ExperimentConfig(kind="kuser", variances=lams, deltas=(0.05, 0.2))
        points = cfg.points
        assert [(value, tuple(b.delta for b in bins)) for value, _, bins in points] == [
            (0.05, (0.05,)), (0.2, (0.2,))]
        for d, _, (b,) in points:
            assert b.t_rate == tuple(default_t_rate(d, lam) for lam in lams)
            assert b.t_outage == tuple(default_t_outage(d, lam) for lam in lams)
        assert len(set(b.t_rate)) == 3


class TestDeterminism:
    def test_fixed_scan_ignores_worker_count(self):
        base = dict(kind="minrate", p_db=(10.0,), deltas=(0.05,),
                    trials=3 * CHUNK + 17, seed=12)
        one = harness.run_min_rate(harness.ExperimentConfig(workers=1, **base))
        five = harness.run_min_rate(harness.ExperimentConfig(workers=5, **base))
        assert one.points == five.points

    def test_adaptive_scan_ignores_worker_count(self):
        base = dict(kind="outage", p_db=(0.0, 10.0), deltas=(0.2,),
                    min_outage_events=300, seed=12)
        one = harness.run_outage(harness.ExperimentConfig(workers=1, **base))
        four = harness.run_outage(harness.ExperimentConfig(workers=4, **base))
        assert one.points == four.points
        assert one.notes == four.notes

    def test_same_seed_same_points(self):
        cfg = harness.ExperimentConfig(kind="rateloss", deltas=(0.05,), trials=20_000, seed=7)
        assert harness.run_rate_loss(cfg).points == harness.run_rate_loss(cfg).points

    def test_different_seed_different_points(self):
        a = harness.run_rate_loss(
            harness.ExperimentConfig(kind="rateloss", deltas=(0.05,), trials=20_000, seed=1)
        )
        b = harness.run_rate_loss(
            harness.ExperimentConfig(kind="rateloss", deltas=(0.05,), trials=20_000, seed=2)
        )
        assert a.points != b.points


class TestAgainstDirectComputation:
    def test_single_chunk_means_match_exactly(self):
        # recompute the first chunk by hand and compare to the driver output
        cfg = harness.ExperimentConfig(kind="minrate", p_db=(10.0,), deltas=(0.05,),
                                       trials=CHUNK, seed=3)
        stats = harness.run_min_rate(cfg)
        by = {m.metric: m for m in stats.points}

        block = sample_block(ChannelParams(cfg.variances), 3, 0)
        h1, h2 = block[:, 0], block[:, 1]
        p = 10.0
        rf = alloc.max_min_rate_two_user(h1, h2, p)
        rt = 0.5 * np.log2(1.0 + p * np.minimum(h1, h2))

        assert_allclose(by["r_full"].value, rf.sum() / CHUNK, rtol=1e-15)
        assert_allclose(by["r_tdma"].value, rt.sum() / CHUNK, rtol=1e-15)

        var = ((rf * rf).sum() - CHUNK * (rf.sum() / CHUNK) ** 2) / (CHUNK - 1)
        assert_allclose(by["r_full"].stderr, math.sqrt(var / CHUNK), rtol=1e-12)
        assert by["r_full"].n == CHUNK


class TestAdaptiveStopping:
    def test_event_target_met(self):
        cfg = harness.ExperimentConfig(kind="outage", p_db=(5.0, 15.0), deltas=(0.2,),
                                       min_outage_events=1000, seed=5)
        stats = harness.run_outage(cfg)
        assert stats.notes == []
        for sweep_value, bym in metrics_by_sweep(stats).items():
            full = bym["out_full"]
            assert full.n % CHUNK == 0
            assert round(full.value * full.n) >= 1000

    def test_trial_cap_is_reported(self):
        # the last chunk is trimmed, so the cap holds exactly, below CHUNK too
        gains = np.concatenate([sample_block(ChannelParams((1.0, 0.5)), 5, b) for b in (0, 1)])
        t = default_t_outage(0.2)
        for cap in (20_000, 1_000):
            cfg = harness.ExperimentConfig(kind="outage", p_db=(40.0,), deltas=(0.2,),
                                           min_outage_events=10_000_000, trial_cap=cap,
                                           seed=5)
            stats = harness.run_outage(cfg)
            assert len(stats.notes) == 1
            assert "trial cap %d reached" % cap in stats.notes[0]
            assert {m.n for m in stats.points} == {cap}
            # and the points count the first cap trials, no more
            h1, h2 = gains[:cap, 0], gains[:cap, 1]
            out_q = quantized_outage(h1, h2, outage_levels(h1, 0.2, t) * 0.2,
                                     outage_levels(h2, 0.2, t) * 0.2, 1e4, 1.0)[0]
            point = metrics_by_sweep(stats)[40.0]["out_qo[delta=0.2]"]
            assert round(point.value * cap) == np.count_nonzero(out_q) > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trial_cap_note_marks_a_missed_target(self, workers):
        # A point gets the note only when the cap stopped it short of its
        # target: one whose target is the count it reaches at its cap meets
        # it there, and one event more is missed, at the cap.
        cap = 2 * CHUNK + 1000
        base = dict(kind="outage", p_db=(10.0,), deltas=(0.2,), trial_cap=cap, seed=5,
                    workers=workers)
        stats = harness.run_outage(harness.ExperimentConfig(min_outage_events=cap, **base))
        full = metrics_by_sweep(stats)[10.0]["out_full"]
        events = round(full.value * full.n)
        assert full.n == cap and 0 < events < cap
        met = harness.run_outage(harness.ExperimentConfig(min_outage_events=events, **base))
        assert met.notes == [] and {m.n for m in met.points} == {cap}
        missed = harness.run_outage(harness.ExperimentConfig(min_outage_events=events + 1,
                                                             **base))
        assert missed.notes == ["p_db=10.0: trial cap %d reached with %d/%d events"
                                % (cap, events, events + 1)]
        assert {m.n for m in missed.points} == {cap}


class TestMetricLayout:
    def test_points_sorted_within_sweep_value(self):
        cfg = harness.ExperimentConfig(kind="minrate", p_db=(0.0, 10.0),
                                       deltas=(0.01, 0.05), trials=5000, seed=1)
        stats = harness.run_min_rate(cfg)
        assert stats.sweep == "p_db"
        assert stats.experiment == "minrate"
        seen = []
        for sweep_value in (0.0, 10.0):
            names = [m.metric for m in stats.points if m.sweep_value == sweep_value]
            assert names == sorted(names)
            assert "r_qr[delta=0.01]" in names and "r_qr[delta=0.05]" in names
            seen.append(names)
        assert seen[0] == seen[1]
        assert [m.sweep_value for m in stats.points] == sorted(
            m.sweep_value for m in stats.points
        )

    def test_run_experiment_dispatch(self):
        cfg = harness.ExperimentConfig(kind="minrate", trials=2000, seed=1)
        stats = harness.run_experiment(cfg)
        assert stats.experiment == "minrate"
        lines = []
        harness.run_experiment(cfg, progress=lines.append)
        assert any("minrate" in s for s in lines)


class TestEstimateDiversity:
    def test_recovers_synthetic_exponent(self):
        for c, d in [(3.7, 1.5), (0.9, 0.5), (12.0, 1.0)]:
            curve = [(pdb, c * 10.0 ** (-d * pdb / 10.0)) for pdb in range(10, 45, 5)]
            assert abs(harness.estimate_diversity(curve) - d) < 1e-6

    def test_window_selects_points(self):
        # steep tail above 20 dB, shallow start: the window must isolate the tail
        curve = [(0.0, 0.5), (10.0, 0.2), (20.0, 0.1), (25.0, 0.01),
                 (30.0, 0.001), (35.0, 0.0001)]
        slope = harness.estimate_diversity([pt for pt in curve if pt[0] >= 20.0])
        assert abs(slope - 2.0) < 1e-9

    def test_default_window_is_top_ten_db(self):
        # the flat low-power points would wreck the fit if they were included
        curve = [(0.0, 0.9), (5.0, 0.9)] + [
            (pdb, 10.0 ** (-pdb / 10.0)) for pdb in (20, 25, 30)
        ]
        assert abs(harness.estimate_diversity(curve) - 1.0) < 1e-9

    def test_rejects_thin_or_dead_curves(self):
        with pytest.raises(ValueError):
            harness.estimate_diversity([])
        with pytest.raises(ValueError):
            harness.estimate_diversity([(0.0, 0.1), (10.0, 0.01)])
        with pytest.raises(ValueError):
            harness.estimate_diversity([(20.0, 0.1), (25.0, 0.0), (30.0, 0.01)])

    def test_ignores_dead_points_outside_window(self):
        curve = [(0.0, 0.0)] + [(pdb, 10.0 ** (-pdb / 10.0)) for pdb in (20, 25, 30)]
        assert abs(harness.estimate_diversity(curve) - 1.0) < 1e-9


class TestMinRateExamples:
    def test_quantized_curve_hugs_full_csi(self):
        cfg = harness.ExperimentConfig(kind="minrate", p_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                                       deltas=(0.01, 0.05), trials=300_000, seed=2)
        stats = harness.run_min_rate(cfg)
        for sweep_value, by in metrics_by_sweep(stats).items():
            full = by["r_full"].value
            fine = by["r_qr[delta=0.01]"].value
            coarse = by["r_qr[delta=0.05]"].value
            tdma = by["r_tdma"].value
            if sweep_value == 10.0:
                # near-negligible loss with fine bins at moderate power
                assert full - fine <= 0.02
            assert fine <= full and coarse <= fine
            # both quantized curves clear TDMA across the whole sweep
            assert coarse > tdma

    def test_minrate_rejects_policy(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="minrate", delta_policy="pcube", trials=1000)


class TestRateLossExamples:
    def test_loss_monotone_and_bounded(self):
        deltas = (0.01, 0.05, 0.1, 0.12, 0.18, 0.2)
        cfg = harness.ExperimentConfig(kind="rateloss", p_db=(10.0,), deltas=deltas,
                                       trials=300_000, seed=2)
        stats = harness.run_rate_loss(cfg)
        by = metrics_by_sweep(stats)
        losses = [by[d]["rate_loss"].value for d in deltas]
        assert np.all(np.diff(losses) > 0)
        for d in deltas:
            assert by[d]["rate_loss"].value <= by[d]["rate_loss_bound"].value
            assert by[d]["rate_loss_bound"].stderr == 0.0

    def test_tdma_crossover_near_point_15(self):
        cfg = harness.ExperimentConfig(kind="rateloss", p_db=(10.0,), deltas=(0.12, 0.18),
                                       trials=300_000, seed=2)
        by = metrics_by_sweep(harness.run_rate_loss(cfg))
        assert by[0.12]["r_qr"].value > by[0.12]["r_tdma"].value
        assert by[0.18]["r_qr"].value < by[0.18]["r_tdma"].value

    def test_rejects_power_sweep(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="rateloss", p_db=(0.0, 10.0), trials=1000)


def pair_lookup(d, t, p, rows=math.inf):
    """The (key, read) a scan of `rows` trials at power p builds for bin size
    d and level count t: the min rate of every lower-edge pair."""
    return harness._min_rate_lookup(harness.Bin(d, (t, t), (t, t)), p, rows)


def table_of(lookup):
    """The table a (key, read) lookup reads, or None where it splits per row."""
    return getattr(lookup[1], "__self__", None)


def forced(monkeypatch, rows):
    """Make every level-pair lookup of a run as for a scan of `rows` trials."""
    build = harness._pair_lookup
    monkeypatch.setattr(harness, "_pair_lookup", lambda fn, d, t, _: build(fn, d, t, rows))


def tracking_table_builds(monkeypatch):
    """(builds, points, scans): each _pair_lookup call of a run as (d, t,
    built), the power of each point that makes lookups, in order, and the
    kernel count of each scan. It fails if a table is built during a scan,
    or if a point makes its tables while a table an earlier scan read is
    still alive: each point of the fixed kinds that build them is a scan of
    its own."""
    import weakref

    builds, points, scans, pending, scanned = [], [], [], [], []
    build, scan = harness._pair_lookup, harness._scan

    def lookup(fn, d, t, rows):
        assert not scans or scans[-1] is not None, "a table built during a scan"
        made = build(fn, d, t, rows)
        table = table_of(made)
        assert table is None or table.size == (t + 1) * (t + 2) // 2 <= harness.PAIR_TABLE_MAX
        builds.append((d, t, table is not None))
        if table is not None:
            pending.append(weakref.ref(table))
        return made

    def at_point(thin):
        def tracking(b, p, rows):
            if not points or points[-1] != p:
                assert all(ref() is None for ref in scanned), "point %d" % (len(points) + 1)
                points.append(p)
            return thin(b, p, rows)
        return tracking

    def recording(params, seed, workers, kernels, *args):
        scanned.extend(pending)
        pending.clear()
        scans.append(None)
        try:
            return scan(params, seed, workers, kernels, *args)
        finally:
            scans[-1] = len(kernels)

    monkeypatch.setattr(harness, "_pair_lookup", lookup)
    monkeypatch.setattr(harness, "_scan", recording)
    monkeypatch.setattr(harness, "_min_rate_lookup", at_point(harness._min_rate_lookup))
    return builds, points, scans


def same_points(a, b):
    return [(m.metric, m.sweep_value, m.value, m.stderr, m.n) for m in a.points] == \
        [(m.metric, m.sweep_value, m.value, m.stderr, m.n) for m in b.points]


class TestMinRateTable:
    """The transmitter adapts to the fed-back levels alone, so minrate and
    rateloss look each trial's min adapted rate up by its (strong, weak)
    level pair, in one table per scan and delta. Every entry must carry the
    bits of the per-row split it replaces."""

    @staticmethod
    def looked_up(levels, d, t, p):
        key, read = lookup = pair_lookup(d, t, p)
        assert table_of(lookup).size == (t + 1) * (t + 2) // 2
        return read(key(levels))

    @staticmethod
    def per_row(levels, d, t, p):
        key, read = lookup = pair_lookup(d, t, p, rows=0)
        assert table_of(lookup) is None
        return read(key(levels))

    @pytest.mark.parametrize("p_db", [-100.0, 10.0, 100.0])
    @pytest.mark.parametrize("d", [0.2, 0.05])
    def test_every_pair_has_the_per_row_bits(self, d, p_db):
        p = 10.0 ** (p_db / 10.0)
        t = default_t_rate(d)
        s, w = np.tril_indices(t + 1)  # every w <= s, in key order s(s+1)/2 + w
        # Each pair with receiver 1 strong, then with receiver 2 strong.
        levels = np.asfortranarray(np.concatenate([np.column_stack([s, w]),
                                                   np.column_stack([w, s])]))
        want = self.per_row(levels, d, t, p)
        got = self.looked_up(levels, d, t, p)
        assert got.dtype == np.float64
        assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert_array_equal(table_of(pair_lookup(d, t, p)).view(np.int64),
                           want[:s.size].view(np.int64))

    @pytest.mark.parametrize("p_db", [-100.0, 10.0, 100.0])
    def test_sampled_and_edge_pairs_have_the_per_row_bits(self, p_db):
        p = 10.0 ** (p_db / 10.0)
        d = 0.01
        t = default_t_rate(d)
        rng = np.random.default_rng(17)
        s = rng.integers(0, t + 1, 10**5)
        w = rng.integers(0, s + 1)
        edge = np.arange(t + 1)
        s = np.concatenate([s, edge, edge, np.full(t + 1, t)])  # w = 0, w = s, s = t
        w = np.concatenate([w, np.zeros(t + 1, dtype=np.int64), edge, edge])
        flip = rng.random(s.size) < 0.5  # either receiver the strong one
        levels = np.asfortranarray(np.column_stack([np.where(flip, w, s), np.where(flip, s, w)]))
        assert_array_equal(self.looked_up(levels, d, t, p).view(np.int64),
                           self.per_row(levels, d, t, p).view(np.int64))

    def test_no_table_outgrows_its_cap(self):
        # (t+1)(t+2)/2 pairs fit 2^17 entries up to t = 510; a finer bin
        # splits per row. The golden minrate and rateloss table-edge cases
        # run delta = 0.0092 (t = 510) and 0.00919 (t = 511).
        assert harness.PAIR_TABLE_MAX == 1 << 17
        assert (default_t_rate(0.0092), default_t_rate(0.00919)) == (510, 511)
        for t in range(505, 516):
            table = table_of(pair_lookup(1.0 / (t + 1), t, 10.0))
            if t <= 510:
                assert table.size == (t + 1) * (t + 2) // 2 <= harness.PAIR_TABLE_MAX
            else:
                assert table is None

    @pytest.mark.parametrize("kind", ["minrate", "rateloss"])
    def test_one_table_per_scan_and_delta(self, kind, monkeypatch):
        deltas, p_db = (0.2, 0.05, 0.00919), (0.0, 10.0, 20.0)
        cfg = harness.ExperimentConfig(kind=kind, p_db=p_db if kind == "minrate" else (10.0,),
                                       deltas=deltas, trials=5 * CHUNK - 3, seed=4, workers=2)
        builds, points, scans = tracking_table_builds(monkeypatch)
        looked_up = harness.run_experiment(cfg)
        # Every scan builds each delta's table once, whatever its job count.
        assert points == [10.0 ** (v / 10.0) for v in cfg.p_db] and scans == [1] * len(points)
        assert sorted(builds) == sorted((d, default_t_rate(d), d != 0.00919)
                                        for _ in points for d in deltas)
        # Split per row, every row, for the same metrics.
        forced(monkeypatch, rows=0)
        assert same_points(looked_up, harness.run_experiment(cfg))

    def test_a_points_tables_go_before_the_next_point_builds(self, monkeypatch):
        # The main thread builds the tables on a heap of its own, so tables
        # kept past their scan would add to the run's peak memory.
        cfg = harness.ExperimentConfig(kind="minrate", p_db=(0.0, 10.0, 20.0),
                                       deltas=(0.2, 0.05), trials=3 * CHUNK, workers=2)
        builds, points, scans = tracking_table_builds(monkeypatch)
        harness.run_experiment(cfg)
        assert len(points) == 3 and len(builds) == 6 and scans == [1, 1, 1]


class TestUpperEdgeSplit:
    """On the upper edge the outage kinds split power by each row's fed-back
    (strong, weak) gains, one row at a time, through alloc._served_split.
    Every outage mask must carry the bits of conftest.quantized_outage,
    which splits by the checked alloc.equal_rate_split."""

    @staticmethod
    def masks(levels, d, t, p, seed):
        """quantized_outage's three masks, checked against _quantized_outage's
        bit for bit, on true gains drawn inside each row's bins, at r_th = 1."""
        u = np.random.default_rng(seed).random(levels.shape)
        block = np.asfortranarray((levels - u) * d)  # level m holds gains in ((m-1)d, md]
        want = quantized_outage(block[:, 0], block[:, 1], levels[:, 0] * d, levels[:, 1] * d,
                                p, 1.0)
        got = harness._quantized_outage(block, levels, harness.Bin(d, (t, t), (t, t)), p, 1.0)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == bool and np.array_equal(g, w)
        return want

    @staticmethod
    def both_ways(s, w, flip):
        """Level rows of the pairs (s, w), receiver 2 the strong one where flip."""
        return np.asfortranarray(np.column_stack([np.where(flip, w, s), np.where(flip, s, w)]))

    @pytest.mark.parametrize("p_db", [-100.0, 10.0, 100.0])
    @pytest.mark.parametrize("d", [0.2, 0.05])
    def test_every_pair_has_the_checked_splits_bits(self, d, p_db):
        p = 10.0 ** (p_db / 10.0)
        t = default_t_outage(d)
        # The levels a quantizer feeds back, 1 <= w <= s <= t + 1, each pair
        # with receiver 1 strong and then with receiver 2 strong.
        s, w = np.tril_indices(t + 2)
        s, w = s[w > 0], w[w > 0]
        flip = np.repeat([False, True], s.size)
        system, _, _ = self.masks(self.both_ways(np.tile(s, 2), np.tile(w, 2), flip),
                                  d, t, p, seed=5)
        assert 0 < np.count_nonzero(system) < system.size or p_db != 10.0

    @pytest.mark.parametrize("p_db", [-100.0, 10.0, 100.0])
    def test_sampled_and_edge_pairs_have_the_checked_splits_bits(self, p_db):
        p = 10.0 ** (p_db / 10.0)
        d = 0.01
        t = default_t_outage(d)
        rng = np.random.default_rng(19)
        s = rng.integers(1, t + 2, 10**5)
        w = rng.integers(1, s + 1)
        edge = np.arange(1, t + 2)
        s = np.concatenate([s, edge, edge, np.full(t + 1, t + 1)])  # w = 1, w = s, s = t + 1
        w = np.concatenate([w, np.ones(t + 1, dtype=np.int64), edge, edge])
        self.masks(self.both_ways(s, w, rng.random(s.size) < 0.5), d, t, p, seed=7)

    @pytest.mark.parametrize("p_db", [-100.0, 10.0, 100.0])
    def test_every_pair_of_the_table_edge_bins_has_the_checked_splits_bits(self, p_db):
        # The bins of the golden *_table_edge cases: t = 509 at delta 0.00518,
        # where (t + 2)(t + 3) / 2 level pairs fill PAIR_TABLE_MAX, and 510 at
        # 0.00517. Both split every fed-back pair per row, as the checked
        # split does.
        p = 10.0 ** (p_db / 10.0)
        for d in (0.00518, 0.00517):
            t = default_t_outage(d)
            s, w = np.tril_indices(t + 2)
            s, w = s[w > 0], w[w > 0]
            flip = np.repeat([False, True], s.size)
            self.masks(self.both_ways(np.tile(s, 2), np.tile(w, 2), flip), d, t, p, seed=9)

    @pytest.mark.parametrize("kind, fields", [
        ("outage", dict(p_db=(0.0, 10.0, 20.0), deltas=(0.2, 0.05, 0.00517),
                        min_outage_events=3000)),
        ("outageloss", dict(p_db=(10.0,), deltas=(0.2, 0.05, 0.00517), trials=5 * CHUNK - 3)),
        ("diversity", dict(p_db=(0.0, 10.0, 20.0), deltas=(0.05,), min_outage_events=500)),
    ])
    def test_outage_kinds_build_no_pair_table(self, kind, fields, monkeypatch):
        # _pair_lookup builds the lower edge's tables alone: no outage kind
        # calls it, whatever its bins and trial counts.
        cfg = harness.ExperimentConfig(kind=kind, seed=4, workers=2, **fields)

        def lookup(*args):
            raise AssertionError("an outage kind built a level-pair table")

        monkeypatch.setattr(harness, "_pair_lookup", lookup)
        stats = harness.run_experiment(cfg)
        assert {m.sweep_value for m in stats.points} >= {value for value, _, _ in cfg.points}


class TestTableUse:
    """Where a scan reads a level-pair table, and what it may read from it."""

    @pytest.mark.parametrize("d", [0.9, 0.5, 1.0 / 3.0, 0.2, 0.1, 0.05, 0.00518, 2e-15])
    def test_role_mask_is_the_fed_back_floats_mask(self, d):
        # _quantized_outage compares the _order_keys of the levels: the
        # levels themselves below 2^52 and the ranks of their floats from
        # there on. Either way every pair gives its floats' mask, up to 510
        # and on both sides of 2^52.
        bounds = [(np.arange(511), 510)] + [(np.arange(2**52 - 2, top + 1), top)
                                             for top in range(2**52 - 2, 2**52 + 3)]
        for levels, top in bounds:
            s, w = (x.ravel() for x in np.meshgrid(levels, levels))
            keys = harness._order_keys(np.asfortranarray(np.column_stack([s, w])), d, top)
            assert_array_equal(keys[:, 0] >= keys[:, 1], s * d >= w * d)

    def test_a_table_needs_more_rows_than_entries(self):
        calls = []

        def fn(qs, qw):
            calls.append(qs.size)
            return qs - qw

        t = 30
        size = (t + 1) * (t + 2) // 2
        for rows in (1, size - 1, size):
            assert table_of(harness._pair_lookup(fn, 0.1, t, rows)) is None
        assert not calls
        assert table_of(harness._pair_lookup(fn, 0.1, t, size + 1)).size == size
        assert table_of(harness._pair_lookup(fn, 0.1, t, math.inf)).size == size

    @pytest.mark.parametrize("kind, fields", [
        ("minrate", dict(p_db=(0.0, 20.0), deltas=(0.01,), trials=1000)),
        ("rateloss", dict(p_db=(10.0,), deltas=(0.2, 0.01), trials=1000)),
    ])
    def test_a_short_scan_splits_per_row_with_the_tables_bits(self, kind, fields, monkeypatch):
        # minrate --trials 1000 --delta 0.01 would build 106,953 entries to
        # read 1,000 rows; it splits them per row, to the same bits.
        cfg = harness.ExperimentConfig(kind=kind, seed=6, workers=2, **fields)
        builds, _, _ = tracking_table_builds(monkeypatch)
        per_row = harness.run_experiment(cfg)
        small = [built for d, _, built in builds if d == 0.2]
        assert small == [True] * len(small)  # 231 entries, fewer than 1,000 rows
        assert not any(built for d, _, built in builds if d == 0.01) and builds
        forced(monkeypatch, rows=math.inf)
        assert same_points(per_row, harness.run_experiment(cfg))


class TestVleTable:
    """A scan reads each row's codeword lengths from a table of
    vle_lengths(0..top), built once per scan and bin."""

    @pytest.mark.parametrize("top", [0, 1, 2, 9, 61, 462, 1061, harness.PAIR_TABLE_MAX - 1])
    def test_table_lengths_are_vle_lengths(self, top):
        lengths = harness._vle_lookup(top, math.inf)
        assert lengths is not vle_lengths
        pow2 = [(1 << k) + d for k in range(18) for d in (-1, 0, 1) if 0 <= (1 << k) + d <= top]
        block = np.random.default_rng(5).integers(0, top + 1, (500, 2))
        for levels in (np.arange(top + 1), np.array(pow2, dtype=np.int64), block[:, 1]):
            got = lengths(levels)
            assert got.dtype == np.int64
            assert_array_equal(got, vle_lengths(levels))

    def test_a_table_needs_more_rows_than_entries(self):
        assert harness._vle_lookup(30, 31) is vle_lengths
        assert harness._vle_lookup(30, 32) is not vle_lengths
        assert harness._vle_lookup(harness.PAIR_TABLE_MAX, math.inf) is vle_lengths
        assert harness._vle_lookup(2**53, math.inf) is vle_lengths

    @pytest.mark.parametrize("kind, fields", [
        ("rateloss", dict(p_db=(10.0,), deltas=(0.2, 0.05, 0.001), trials=5000)),
        ("outageloss", dict(p_db=(10.0,), deltas=(0.05,), trials=5000)),
        ("feedback", dict(deltas=(0.2, 0.05), trials=5000)),
        ("feedback", dict(p_db=(10.0, 30.0), delta_policy="pcube", trials=5000)),
        ("kuser", dict(variances=(1.0, 0.5, 0.25), deltas=(0.1, 0.2), trials=3000)),
    ])
    def test_scans_give_the_per_row_lengths(self, kind, fields, monkeypatch):
        cfg = harness.ExperimentConfig(kind=kind, seed=4, workers=2, **fields)
        lookup, built = harness._vle_lookup, []

        def tracking(top, rows):
            lengths = lookup(top, rows)
            built.append(lengths is not vle_lengths)
            return lengths

        monkeypatch.setattr(harness, "_vle_lookup", tracking)
        tables = harness.run_experiment(cfg)
        # rateloss at delta = 0.001 has 6,908 levels for 5,000 rows
        assert built and built.count(False) == (0.001 in cfg.deltas)
        monkeypatch.setattr(harness, "_vle_lookup", lambda top, rows: vle_lengths)
        assert same_points(tables, harness.run_experiment(cfg))


class TestOutageExamples:
    def test_fine_bins_track_full_csi(self):
        cfg = harness.ExperimentConfig(kind="outage", p_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                                       deltas=(0.01, 0.2), min_outage_events=1000, seed=5)
        stats = harness.run_outage(cfg)
        by = metrics_by_sweep(stats)
        ratios = {}
        for pdb, m in by.items():
            full = m["out_full"]
            fine = m["out_qo[delta=0.01]"]
            assert abs(fine.value - full.value) <= 2.0 * (fine.stderr + full.stderr)
            ratios[pdb] = m["out_qo[delta=0.2]"].value / full.value
        # the coarse curve peels away at high power: diversity deficit
        assert ratios[10.0] <= 1.3
        assert ratios[20.0] < ratios[25.0] < ratios[30.0]
        assert ratios[30.0] >= 2.0

    def test_all_curves_meet_at_low_power(self):
        cfg = harness.ExperimentConfig(kind="outage", p_db=(-10.0, 0.0), deltas=(0.01, 0.2),
                                       min_outage_events=1000, seed=5)
        by = metrics_by_sweep(harness.run_outage(cfg))
        for pdb, m in by.items():
            vals = [m["out_full"].value, m["out_qo[delta=0.01]"].value,
                    m["out_qo[delta=0.2]"].value]
            assert max(vals) - min(vals) <= 0.02
            assert min(vals) > 0.95

    def test_tdma_needs_double_rate(self):
        cfg = harness.ExperimentConfig(kind="outage", p_db=(10.0,), deltas=(0.2,),
                                       min_outage_events=1000, seed=5)
        by = metrics_by_sweep(harness.run_outage(cfg))
        assert by[10.0]["out_tdma"].value > by[10.0]["out_full"].value


class TestOutageLossExamples:
    def test_loss_monotone_in_delta(self):
        deltas = (0.01, 0.05, 0.1, 0.2)
        cfg = harness.ExperimentConfig(kind="outageloss", p_db=(10.0,), deltas=deltas,
                                       trials=400_000, seed=2)
        stats = harness.run_outage_loss(cfg)
        assert stats.sweep == "delta"
        by = metrics_by_sweep(stats)
        losses = [by[d]["outage_loss"].value for d in deltas]
        assert np.all(np.diff(losses) > 0)
        for d in deltas:
            assert_allclose(by[d]["sqrt_delta"].value, math.sqrt(d), rtol=1e-12)
            assert by[d]["out_qo"].value >= by[d]["out_full"].value
            assert_allclose(by[d]["outage_loss"].value,
                            by[d]["out_qo"].value - by[d]["out_full"].value, rtol=1e-9)

    def test_rejects_double_sweep(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="outageloss", p_db=(0.0, 10.0),
                                     deltas=(0.01, 0.2), trials=1000)


class TestFeedbackExamples:
    def test_fixed_bin_costs_match_analytic_means(self):
        cfg = harness.ExperimentConfig(kind="feedback", deltas=(0.01, 0.05),
                                       trials=200_000, seed=2)
        stats = harness.run_feedback_rate(cfg)
        assert stats.sweep == "delta"
        by = metrics_by_sweep(stats)
        assert by[0.01]["fle_bits"].value == 9
        assert by[0.05]["fle_bits"].value == 6
        assert by[0.01]["t_bins"].value == 461
        assert by[0.05]["t_bins"].value == 60
        for d in (0.01, 0.05):
            t = int(by[d]["t_bins"].value)
            for lam, name in ((1.0, "vle_rx1"), (0.5, "vle_rx2")):
                want = vle_mean_analytic(d, lam, t)
                assert abs(by[d][name].value - want) < 0.015
            assert by[d]["vle_min"].value == by[d]["vle_rx2"].value

    def test_policy_curve_flat_then_rising(self):
        cfg = harness.ExperimentConfig(kind="feedback", delta_policy="min02-pcube",
                                       p_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                                       trials=100_000, seed=9)
        stats = harness.run_feedback_rate(cfg)
        assert stats.sweep == "p_db"
        by = metrics_by_sweep(stats)
        flat = [by[pdb]["vle_min"].value for pdb in (0.0, 5.0, 10.0, 15.0, 20.0)]
        assert len(set(flat)) == 1  # same bins, same trials: identical cost
        assert by[25.0]["vle_min"].value > by[20.0]["vle_min"].value
        assert by[30.0]["vle_min"].value > by[25.0]["vle_min"].value
        used = [by[pdb]["delta_used"].value for pdb in cfg.p_db]
        assert_allclose(used, [0.2] * 5 + [10.0 ** (-2.5 / 3.0), 0.1], rtol=1e-9)
        assert "delta_used" not in {
            m.metric
            for m in harness.run_feedback_rate(
                harness.ExperimentConfig(kind="feedback", deltas=(0.2,), trials=1000)
            ).points
        }


class TestKUser:
    def test_two_receivers_reduce_to_closed_form_drivers(self):
        trials, seed = 150_000, 9
        shared = dict(variances=(1.0, 1.0), p_db=(10.0,), deltas=(0.05,),
                      trials=trials, seed=seed)
        ku = metrics_by_sweep(harness.run_k_user(
            harness.ExperimentConfig(kind="kuser", **shared)))[0.05]
        rl = metrics_by_sweep(harness.run_rate_loss(
            harness.ExperimentConfig(kind="rateloss", **shared)))[0.05]
        ol = metrics_by_sweep(harness.run_outage_loss(
            harness.ExperimentConfig(kind="outageloss", **shared)))[0.05]

        # bisection eps is the only daylight between the two paths
        assert abs(ku["rate_loss"].value - rl["rate_loss"].value) <= 2e-4
        assert abs(ku["out_full"].value - ol["out_full"].value) <= 1e-3
        assert abs(ku["out_qo"].value - ol["out_qo"].value) <= 1e-3
        assert abs(ku["outage_loss"].value - ol["outage_loss"].value) <= 1e-3
        # identical quantizers see identical levels
        assert abs(ku["vle_r_min"].value - rl["vle_min"].value) <= 1e-12
        assert abs(ku["vle_o_min"].value - ol["vle_min"].value) <= 1e-12

    def test_four_receivers_qualitative_shape(self):
        cfg = harness.ExperimentConfig(kind="kuser", variances=(1.0, 0.5, 1.0 / 3.0, 0.25),
                                       p_db=(10.0,), deltas=(0.05, 0.1, 0.2),
                                       trials=60_000, seed=9)
        by = metrics_by_sweep(harness.run_k_user(cfg))
        losses = [by[d]["rate_loss"].value for d in (0.05, 0.1, 0.2)]
        assert 0 < losses[0] < losses[1] < losses[2]
        assert by[0.05]["vle_r_min"].value > by[0.2]["vle_r_min"].value
        for d in (0.05, 0.1, 0.2):
            assert by[d]["out_qo"].value >= by[d]["out_full"].value
            assert by[d]["outage_loss"].value >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="kuser", p_db=(0.0, 10.0), trials=1000)
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="kuser", variances=(1.0,), trials=1000)
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="kuser", delta_policy="pcube", trials=1000)


def kuser_levels(k, d, p_db, seed, rows=CHUNK):
    """The lower-edge live rows (sorted) and the upper-edge rows (in the
    fed-back order) of one kuser block, as the kuser kernel builds them."""
    lams = tuple(1.0 / (i + 1) for i in range(k))
    block = sample_block(ChannelParams(lams), seed, 0, rows)
    lower = np.stack([rate_levels(block[:, i], d, default_t_rate(d, lam))
                      for i, lam in enumerate(lams)], axis=1)
    lower = np.sort(lower[np.all(lower > 0, axis=1)], axis=1)[:, ::-1]
    upper = np.stack([outage_levels(block[:, i], d, default_t_outage(d, lam))
                      for i, lam in enumerate(lams)], axis=1)
    perm = np.argsort(-(upper * d), axis=1, kind="stable")
    return lower, np.take_along_axis(upper, perm, axis=1), 10.0 ** (p_db / 10.0)


class TestDistinctWordBisection:
    """Bisecting each distinct fed-back level word once gives every row the
    bits that bisecting all rows gives."""

    @pytest.mark.parametrize("p_db", [0.0, 10.0, 30.0])
    @pytest.mark.parametrize("k, d", [(2, 0.05), (3, 0.05), (4, 0.05), (4, 0.2), (9, 0.1),
                                      (16, 0.1), (16, 0.01)])
    def test_distinct_rows_match_every_row(self, k, d, p_db):
        lower, upper, p = kuser_levels(k, d, p_db, seed=k)
        # at K = 16 and delta = 0.01 no key fits, and every row is bisected
        assert (distinct_words(upper) is None) == (k == 16 and d == 0.01)
        for levels in (lower, upper):
            if levels.size == 0:  # K = 16 at delta 0.1: no row feeds back every gain
                continue
            g = levels * d
            r, _ = alloc.batch_max_min_rate(g, p, 1e-4)
            assert_array_equal(harness._quantized_max_min(levels, d, p, 1e-4), r)
        alphas = harness._quantized_max_min(upper, d, p, 1e-4, split=True)
        assert_array_equal(alphas, alloc.alloc_from_rate(r, g, p))

    def test_row_min_is_the_row_reduction(self):
        x = np.random.default_rng(0).standard_normal((1000, 5))
        x[3, 2], x[4, 0] = np.nan, -np.inf
        assert_array_equal(harness._row_min(x), x.min(axis=1))
        levels = np.random.default_rng(1).integers(0, 3, (1000, 4))
        assert_array_equal(harness._row_min(levels) > 0, np.all(levels > 0, axis=1))

    def test_single_row_block(self):
        _, upper, p = kuser_levels(4, 0.1, 10.0, seed=1, rows=1)
        r, _ = alloc.batch_max_min_rate(upper * 0.1, p, 1e-4)
        assert_array_equal(harness._quantized_max_min(upper, 0.1, p, 1e-4), r)

    def test_quantized_bisections_see_each_word_once(self, monkeypatch):
        calls = []
        bisect = alloc.batch_max_min_rate

        def recording(gains_desc, p, eps):
            calls.append(np.array(gains_desc))
            return bisect(gains_desc, p, eps)

        monkeypatch.setattr(alloc, "batch_max_min_rate", recording)
        cfg = harness.ExperimentConfig(kind="kuser", variances=(1.0, 0.5, 1.0 / 3.0, 0.25),
                                       p_db=(10.0,), deltas=(0.05, 0.1, 0.2),
                                       trials=40_000, seed=2, workers=1)
        harness.run_k_user(cfg)
        blocks = [CHUNK, CHUNK, 40_000 - 2 * CHUNK] * 3
        # per block, in order: true gains, lower-edge live rows, upper-edge rows
        assert len(calls) == 3 * len(blocks)
        for rows, true, lower, upper in zip(blocks, *(calls[i::3] for i in range(3))):
            assert true.shape == (rows, 4)
            for g in (lower, upper):
                assert np.unique(g, axis=0).shape == g.shape
                assert g.shape[0] < rows


# One config of each kind, with its scans kept short; feedback runs under the
# fixed policy (lower-edge levels) and under a policy (upper-edge levels).
LAYOUT_CONFIGS = {
    "minrate": dict(p_db=(0.0, 30.0), deltas=(0.01, 0.2)),
    "rateloss": dict(p_db=(20.0,), deltas=(0.05, 0.3)),
    "outage": dict(p_db=(10.0,), deltas=(0.05, 0.2), r_th=2.0),
    "outageloss": dict(p_db=(20.0,), deltas=(0.1,)),
    "feedback": dict(deltas=(0.01, 0.1)),
    "feedback-pcube": dict(p_db=(10.0, 20.0), delta_policy="pcube"),
    "diversity": dict(p_db=(10.0, 15.0, 20.0), deltas=(0.1,)),
    "kuser": dict(variances=(1.0, 0.5, 0.25, 0.2), deltas=(0.05, 0.2)),
}


class TestSortingNetwork:
    """run_k_user sorts a block's K columns with one comparator network:
    the true gains and the lower-edge levels by value, and the upper-edge
    levels in the stable order of their fed-back gains."""

    SIZES = [*range(1, 11), 16, 31, 32, 33, 64]

    @pytest.mark.parametrize("k", SIZES)
    def test_values_are_the_row_sort(self, k):
        rng = np.random.default_rng(50 + k)
        gains = rng.exponential(1.0, (2000, k))
        gains[:300] = gains[:300, :1]  # tied rows
        gains[300:600, k // 2:] = gains[300:600, :1]  # rows with a tie
        levels = rng.integers(0, 4, (2000, k))  # ties in most rows
        for rows in (gains, levels):
            cols = np.array(rows.T)
            got = harness._sort_desc(cols)
            assert got is cols and got.dtype == rows.dtype
            assert_array_equal(got.T, np.sort(rows, axis=1)[:, ::-1])

    @pytest.mark.parametrize("k", range(1, 17))
    def test_every_zero_one_column_sorts(self, k):
        # A comparator network that sorts every 0/1 input sorts every input.
        cols = (np.arange(1 << k) >> np.arange(k)[:, None]) & 1
        assert_array_equal(harness._sort_desc(cols), np.sort(cols, axis=0)[::-1])

    def test_comparator_counts(self):
        # Batcher's odd-even merge sort on a power of two, 2^p wires:
        # (p^2 - p + 4) 2^(p-2) - 1 comparators.
        for p in range(1, 7):
            assert len(harness._network(2**p)) == (p * p - p + 4) * 2 ** (p - 2) - 1
        assert all(i < j < k for k in self.SIZES for i, j in harness._network(k))

    @staticmethod
    def argsort_order(levels, d, top):
        """_fed_back_order of levels at most top as an (n, K) permutation, and
        the argsort it replaces."""
        n = levels.shape[0]
        before = levels.copy()
        at = harness._fed_back_order(np.array(levels.T), d, top)
        assert_array_equal(levels, before)
        assert_array_equal(at % n, np.broadcast_to(np.arange(n), at.shape))
        return (at // n).T, np.argsort(-(levels * d), axis=1, kind="stable")

    @pytest.mark.parametrize("k", SIZES)
    def test_order_is_the_stable_argsort(self, k):
        rng = np.random.default_rng(80 + k)
        for d in (0.2, 0.05, 0.00518, 1.0 / 3.0):
            levels = rng.integers(1, 6, (3000, k))  # ties in most rows
            levels[:100] = 1 << 51
            levels[100:200] = rng.integers((1 << 52) - 8, 1 << 52, (100, k))
            # the levels as their own keys, and the ranks of their floats
            for top in (int(levels.max()), 1 << 53):
                got, want = self.argsort_order(levels, d, top)
                assert_array_equal(got, want)

    @pytest.mark.parametrize("k", [2, 3, 4, 9, 33, 64])
    def test_order_past_two_to_the_52_is_the_floats(self, k):
        # From 2^52 on, neighbouring levels can round to one float: those
        # tie, and keep receiver order, though their ints differ.
        rng = np.random.default_rng(90 + k)
        for d in (0.1, 0.3, 1.0 / 3.0, 0.7):
            top = 1 << 53
            levels = np.concatenate([
                rng.integers((1 << 52) - 4, (1 << 52) + 4, (500, k)),  # across 2^52
                rng.integers(top - 8, top + 1, (500, k)),  # up to 2^53
                rng.integers(1, 6, (500, k)),  # small levels beside them
            ])
            f = levels * d  # some distinct ints tie as floats
            assert np.any((f[:, :1] == f) & (levels[:, :1] != levels))
            got, want = self.argsort_order(levels, d, top)
            assert_array_equal(got, want)


class TestBlockLayout:
    """sample_block returns column-major blocks. Every kernel must give the
    same per-trial metrics, bit for bit, on a row-major copy of a block, so a
    host whose strided and unit-stride ufunc loops differ fails here."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_CONFIGS))
    def test_kernels_ignore_the_block_layout(self, name, monkeypatch):
        kernels = []
        scan = harness._scan

        def recording(params, seed, workers, scanned, *args):
            kernels.extend(scanned)
            return scan(params, seed, workers, scanned, *args)

        monkeypatch.setattr(harness, "_scan", recording)
        kind = name.split("-")[0]
        cfg = harness.ExperimentConfig(kind=kind, workers=1, **tiny(kind), **LAYOUT_CONFIGS[name])
        harness.run_experiment(cfg)
        assert kernels
        block = sample_block(ChannelParams(cfg.variances), 3, 0)
        assert block.flags.f_contiguous
        for kernel in kernels:
            cols = list(kernel(block))
            rows = list(kernel(np.ascontiguousarray(block)))
            assert [m for m, _ in cols] == [m for m, _ in rows]
            for (metric, x), (_, y) in zip(cols, rows):
                assert x.dtype == y.dtype and np.array_equal(x, y), (name, metric)


def scanned_kernels(cfg, monkeypatch):
    """(params, kernels, job_chunks) of each scan a run of cfg makes, in order."""
    kernels = []
    scan = harness._scan

    def recording(params, seed, workers, scanned, trials, events, target, job_chunks):
        kernels.append((params, scanned, job_chunks))
        return scan(params, seed, workers, scanned, trials, events, target, job_chunks)

    monkeypatch.setattr(harness, "_scan", recording)
    harness.run_experiment(cfg)
    monkeypatch.setattr(harness, "_scan", scan)
    assert kernels
    return kernels


class TestJobs:
    """A two-user scan job runs its kernel once on two stacked chunks, so
    each kernel must be row-local: a chunk's rows give the same per-trial
    metrics whatever rows share its block."""

    @pytest.mark.parametrize("tail", [1, 7, 576, 7232, CHUNK])
    @pytest.mark.parametrize("name", sorted(set(LAYOUT_CONFIGS) - {"kuser"}))
    def test_two_user_kernels_are_row_local(self, name, tail, monkeypatch):
        kind = name.split("-")[0]
        cfg = harness.ExperimentConfig(kind=kind, workers=1, **tiny(kind), **LAYOUT_CONFIGS[name])
        assert not harness.EXPERIMENTS[cfg.kind].k_user
        params = ChannelParams(cfg.variances)
        first, last = sample_block(params, 3, 0), sample_block(params, 3, 1, tail)
        stacked = np.asfortranarray(np.concatenate([first, last]))
        for _, kernels, job_chunks in scanned_kernels(cfg, monkeypatch):
            assert job_chunks == harness.JOB_CHUNKS == 2  # as every kind but a K-user one
            for kernel in kernels:
                alone = [dict(kernel(first)), dict(kernel(last))]
                together = list(kernel(stacked))
                assert [m for m, _ in together] == list(alone[0]) == list(alone[1])
                for metric, x in together:
                    for part, want in zip((x[:CHUNK], x[CHUNK:]),
                                          (alone[0][metric], alone[1][metric])):
                        assert part.dtype == want.dtype and np.array_equal(part, want), \
                            (name, metric)

    def test_kuser_bisects_one_chunk_at_a_time(self, monkeypatch):
        # Its bisection reads the whole block (the largest r_ub and p g), so
        # stacking two chunks could change the bits: a K-user kind's jobs
        # stay one chunk.
        cfg = harness.ExperimentConfig(kind="kuser", variances=(1.0, 0.5, 0.25), deltas=(0.2,),
                                       trials=3 * CHUNK - 5, workers=2)
        assert harness.EXPERIMENTS[cfg.kind].k_user
        assert [chunks for _, _, chunks in scanned_kernels(cfg, monkeypatch)] == [1]
        rows = []
        bisect = alloc.batch_max_min_rate

        def recording(g, *args):
            rows.append(np.shape(g)[0])
            return bisect(g, *args)

        monkeypatch.setattr(alloc, "batch_max_min_rate", recording)
        harness.run_k_user(cfg)
        # one true-gain bisection per chunk, and no call sees more rows
        assert max(rows) == CHUNK and rows.count(CHUNK) == 2 and len(rows) == 9


@pytest.mark.parametrize("name", sorted(LAYOUT_CONFIGS))
def test_kernels_can_all_be_held_at_once(name, monkeypatch):
    # Every driver makes each point's kernel in a factory, so no kernel
    # reads a loop variable late: kernels all made before any scan report
    # what kernels made one at a time report.
    kind = name.split("-")[0]
    cfg = harness.ExperimentConfig(kind=kind, seed=3, workers=2, **tiny(kind, 3000),
                                   **LAYOUT_CONFIGS[name])
    lazy = harness.run_experiment(cfg)
    sweep = harness._sweep
    monkeypatch.setattr(harness, "_sweep", lambda cfg, kind, scans, *args, **kwargs: sweep(
        cfg, kind, list(scans), *args, **kwargs))
    held = harness.run_experiment(cfg)
    assert same_points(lazy, held) and lazy.notes == held.notes


class TestSharedScan:
    """An adaptive sweep scans its points together: each job samples its
    block once and runs every live point's kernel on it. A point keeps the
    shortest chunk prefix its own counts settle, so it reports what it
    reports when run alone."""

    FIELDS = {
        "outage": dict(deltas=(0.2, 0.05), min_outage_events=2000),
        "diversity": dict(deltas=(0.05,), min_outage_events=500),
    }

    @staticmethod
    def own(stats):
        """The points and notes of each sweep point, without the slope fits
        a diversity run makes over them."""
        return ([m for m in stats.points if not m.metric.startswith("slope[")],
                [note for note in stats.notes if not note.startswith("slope[")])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("p_db", [(0.0, 5.0, 10.0, 20.0, 30.0), (30.0, 20.0, 10.0, 5.0, 0.0)])
    @pytest.mark.parametrize("kind", sorted(FIELDS))
    def test_each_point_reads_as_run_alone(self, kind, p_db, workers):
        # The cap of 5 chunks and 100 trials ends the scan in a one-job
        # wave at 2 workers; 30 dB reaches it, and 0 to 10 dB retire
        # together in the first wave.
        cfg = harness.ExperimentConfig(kind=kind, p_db=p_db, trial_cap=5 * CHUNK + 100, seed=5,
                                       workers=workers, **self.FIELDS[kind])
        shared = self.own(harness.run_experiment(cfg))
        alone = [self.own(harness.run_experiment(replace(cfg, p_db=(v,)))) for v in p_db]
        assert shared == ([m for points, _ in alone for m in points],
                          [note for _, notes in alone for note in notes])
        n = {m.sweep_value: m.n for m in shared[0] if m.metric == "out_full"}
        assert n[30.0] == cfg.trial_cap and "p_db=30.0: trial cap" in shared[1][0]
        wave = workers * harness.JOB_CHUNKS * CHUNK
        assert len({-(-n[v] // wave) for v in (0.0, 5.0, 10.0)}) == 1 and n[10.0] < n[30.0]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_block_is_sampled_once(self, workers, monkeypatch):
        calls, runs = [], []
        sample, scan = harness.sample_block, harness._scan

        def counting(params, master, block_index, count=CHUNK):
            calls.append(block_index)
            return sample(params, master, block_index, count)

        def counted(point, kernel):
            def run(block):
                runs.append(point)
                return kernel(block)
            return run

        def recording(params, seed, workers, kernels, *args):
            return scan(params, seed, workers, [counted(*k) for k in enumerate(kernels)], *args)

        monkeypatch.setattr(harness, "sample_block", counting)
        monkeypatch.setattr(harness, "_scan", recording)
        # The cap's 11 chunks are 6 jobs; 25 dB reaches it, and without that
        # point the scan stops at the third job, 20 dB's last.
        for p_db in ((0.0, 20.0, 10.0, 25.0), (0.0, 20.0, 10.0)):
            calls.clear()
            runs.clear()
            cfg = harness.ExperimentConfig(kind="outage", p_db=p_db, deltas=(0.2,),
                                           min_outage_events=3000, trial_cap=11 * CHUNK - 9,
                                           seed=8, workers=workers)
            stats = harness.run_outage(cfg)
            # A point's kernel runs on the jobs of its own kept prefix, and
            # on no job after that.
            jobs = [-(-m.n // (harness.JOB_CHUNKS * CHUNK))
                    for m in stats.points if m.metric == "out_full"]
            assert jobs[:3] == [1, 3, 1]
            assert [runs.count(k) for k in range(len(p_db))] == jobs
            # The pool's workers - 1 threads keep that many jobs drawn ahead
            # of the one whose kernels run, and no draw is cancelled, so the
            # scan draws the blocks of that many jobs past its last, each once.
            drawn = min(6, max(jobs) + workers - 1) * harness.JOB_CHUNKS
            assert sorted(calls) == list(range(min(11, drawn)))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(FIELDS) + ["minrate"])
    def test_pool_threads_draw_and_the_caller_runs_adaptive_kernels(self, kind, workers,
                                                                     monkeypatch):
        # Two threads running the floored outage tests at once, numpy calls
        # on a few thousand rows, hand the interpreter lock back and forth on
        # every call; so an adaptive scan's pool threads only draw, and the
        # calling thread runs every kernel. A fixed kind's kernels read whole
        # blocks, which do overlap, and run on the pool beside their draws.
        import threading

        drew, ran = set(), set()
        sample, scan = harness.sample_block, harness._scan

        def drawing(*args):
            drew.add(threading.get_ident())
            return sample(*args)

        def running(kernel):
            def run(block):
                ran.add(threading.get_ident())
                yield from kernel(block)
            return run

        def recording(params, seed, workers, kernels, *args):
            return scan(params, seed, workers, [running(k) for k in kernels], *args)

        monkeypatch.setattr(harness, "sample_block", drawing)
        monkeypatch.setattr(harness, "_scan", recording)
        fields = self.FIELDS.get(kind, dict(deltas=(0.05,)))
        cfg = harness.ExperimentConfig(kind=kind, p_db=(0.0, 10.0, 30.0), workers=workers,
                                       **tiny(kind, 5 * CHUNK + 100), **fields)
        harness.run_experiment(cfg)
        caller = {threading.get_ident()}
        if workers == 1:
            assert drew == ran == caller
        elif kind in self.FIELDS:
            assert ran == caller and drew and not drew & caller
        else:
            assert drew == ran and not ran & caller

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_draws_repeat_and_few_blocks_are_alive(self, workers, monkeypatch):
        # bench/run.py checks that traced runs count the same sample_block
        # calls, so the draws past a scan's last job must not depend on how
        # the threads interleave. With one chunk a job, each draw is one
        # sample_block array, and weak references to them count the blocks
        # alive when one is made: the one whose kernels run, and at most
        # L = workers - 1 drawn ahead of it.
        import threading
        import weakref

        lock, alive, most = threading.Lock(), [], [0]
        sample, scan = harness.sample_block, harness._scan

        def tracking(params, master, block_index, count=CHUNK):
            block = sample(params, master, block_index, count)
            with lock:
                calls.append(block_index)
                alive.append(weakref.ref(block))
                most[0] = max(most[0], sum(ref() is not None for ref in alive))
            return block

        monkeypatch.setattr(harness, "sample_block", tracking)
        cfg = harness.ExperimentConfig(kind="outage", p_db=(0.0, 20.0, 10.0), deltas=(0.2,),
                                       min_outage_events=3000, trial_cap=11 * CHUNK - 9, seed=8,
                                       workers=workers)
        for job_chunks in (harness.JOB_CHUNKS, 1):
            monkeypatch.setattr(harness, "_scan", lambda *args: scan(*args[:-1], job_chunks))
            seen = []
            for _ in range(5):
                calls = []
                harness.run_outage(cfg)
                seen.append(sorted(calls))
            assert seen == [list(range(len(seen[0])))] * 5
        # One-chunk jobs: 20 dB keeps 6 chunks, so 6 + L jobs are drawn.
        assert len(seen[0]) == 6 + workers - 1
        assert 1 <= most[0] <= workers

    def test_an_adaptive_sweep_is_one_scan(self, monkeypatch):
        # Every point of an adaptive sweep shares one scan, however fine its
        # bins: diversity at delta = 0.00518 (t = 509) runs its 13 points'
        # kernels on each block, drawn by one pool.
        from nomafb import cli

        pools = []

        class RecordingPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        cfg, _ = cli.parse_config(["diversity", "--p-db", "10:34:2", "--delta", "0.00518",
                                   "--min-outage-events", "1", "--trial-cap", str(9 * CHUNK),
                                   "--seed", "2", "--workers", "2"])
        scans = scanned_kernels(cfg, monkeypatch)
        assert [len(kernels) for _, kernels, _ in scans] == [len(cfg.points)] == [13]
        assert len(pools) <= 1


def test_outage_kinds_share_one_quantized_outage():
    # outage, outageloss and diversity all test the upper-edge quantizer's
    # outage on the same blocks. At one point and exactly 40,000 trials each,
    # a fork between their paths would show as a different count.
    common = dict(seed=3, deltas=(0.1,))
    adaptive = dict(min_outage_events=10**9, trial_cap=40_000, **common)
    outage = metrics_by_sweep(harness.run_outage(harness.ExperimentConfig(
        kind="outage", p_db=(10.0,), **adaptive)))[10.0]
    loss = metrics_by_sweep(harness.run_outage_loss(harness.ExperimentConfig(
        kind="outageloss", p_db=(10.0,), trials=40_000, **common)))[0.1]
    diversity = metrics_by_sweep(harness.run_diversity(harness.ExperimentConfig(
        kind="diversity", p_db=(0.0, 5.0, 10.0), **adaptive)))[10.0]
    for name, runs in (("out_full", [outage["out_full"], loss["out_full"],
                                     diversity["out_full"]]),
                       ("out_qo", [outage["out_qo[delta=0.1]"], loss["out_qo"],
                                   diversity["out_qo_fixed[delta=0.1]"]])):
        assert [(m.value, m.n) for m in runs] == [(runs[0].value, 40_000)] * 3, name
    assert 0 < outage["out_full"].value < outage["out_qo[delta=0.1]"].value


# The upper-edge kinds, each at points from -10 to 60 dB: at the low end
# most rows lie below a floor, at the top almost none.
FLOOR_P_DB = (-10.0, 0.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0)
FLOOR_CONFIGS = {
    "outage": dict(deltas=(0.01, 0.2)),
    "outageloss": dict(deltas=(0.05,)),
    "diversity": dict(deltas=(0.1,)),  # beside its min02-pcube curve
}


@pytest.mark.parametrize("r_th", [0.01, 1.0, 8.0])
@pytest.mark.parametrize("kind", sorted(FLOOR_CONFIGS))
def test_floored_kernels_give_the_masks_of_every_row(kind, r_th, monkeypatch):
    # Each upper-edge kernel runs an outage test only on the rows below its
    # alloc.outage_floor, or on the whole block where those are more than
    # half of it. Every mask must be the one the test gives on every row, as
    # the kernels ran it before the floor.
    cfg = harness.ExperimentConfig(kind=kind, p_db=FLOOR_P_DB, r_th=r_th, seed=11,
                                   **tiny(kind, CHUNK), **FLOOR_CONFIGS[kind])
    params = ChannelParams(cfg.variances)
    block = np.asfortranarray(np.concatenate([sample_block(params, 11, i) for i in range(2)]))
    h1, h2 = block[:, 0], block[:, 1]
    beta = 2.0**r_th - 1.0
    paths = set()
    kernels = [k for _, scanned, _ in scanned_kernels(cfg, monkeypatch) for k in scanned]
    assert len(kernels) == len(cfg.points)
    for (value, p, bins), kernel in zip(cfg.points, kernels):
        full = p * alloc.sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p) < beta
        q = [harness._quantized_outage(block, outage_levels(block, b.delta, b.t_outage), b,
                                       p, beta)
             for b in bins]
        if kind == "outage":
            want = {"out_full": full,
                    "out_tdma": p * np.minimum(h1, h2) < 2.0**(2.0 * r_th) - 1.0}
            want.update(("out_qo[delta=%g]" % b.delta, x[0]) for b, x in zip(bins, q))
        elif kind == "outageloss":
            want = {"out_full": full, "out_qo": q[0][0], "outage_loss": q[0][0] & ~full}
        else:
            want = {"out_full": full, "out_qo_fixed[delta=0.1]": q[0][0],
                    "out_qo_policy[min02-pcube]": q[1][0], "out_rx1_fixed[delta=0.1]": q[0][1],
                    "out_rx2_fixed[delta=0.1]": q[0][2]}
        got = dict(kernel(block))
        for name, mask in want.items():
            assert got[name].dtype == bool
            assert_array_equal(got[name], mask, err_msg="%s at %g dB" % (name, value))
        hmin = np.minimum(h1, h2)
        floors = [alloc.outage_floor(p, beta)] + [
            alloc.outage_floor(p, beta, b.delta, min(b.t_outage) + 1) for b in bins]
        paths.update(2 * np.count_nonzero(hmin < c) <= hmin.size for c in floors)
    # the gathered rows ran and, at all but the lowest r_th, the whole block
    assert True in paths and (False in paths or r_th < 1.0)


def test_floored_runs_its_test_on_the_marked_rows_alone():
    # The masks of every row are checked above; here, that _floored skips
    # the unmarked rows where they are at least half the block, and hands
    # the test the marked rows of each array, F-ordered as the scan's blocks
    # are. Past half it runs the test on the block itself.
    block = np.asfortranarray(np.arange(20.0).reshape(10, 2))
    levels = np.asfortranarray(np.arange(20).reshape(10, 2))
    seen = []

    def test(g, m):
        seen.append((g, m))
        return g[:, 0] > 5, m[:, 1] < 15

    few = np.isin(np.arange(10), [1, 4, 7, 8, 9])
    masks = list(harness._floored(test, few, block, levels))
    (g, m), = seen
    assert_array_equal(g, block[few])
    assert_array_equal(m, levels[few])
    assert g.flags.f_contiguous and m.flags.f_contiguous
    assert_array_equal(masks[0], few & (block[:, 0] > 5))
    assert_array_equal(masks[1], few & (levels[:, 1] < 15))
    masks = list(harness._floored(test, np.arange(10) > 3, block, levels))
    assert seen[-1][0] is block and seen[-1][1] is levels
    assert_array_equal(masks[0], block[:, 0] > 5)


# The benchmark's two-user argvs, as the CLI parses them, and outageloss
# and diversity, the other upper-edge kinds.
JOB_PEAK_ARGV = {
    "minrate": ["minrate", "--p-db", "0:30:5", "--delta", "0.01,0.05", "--trials", "1e6"],
    "rateloss": ["rateloss", "--delta", "0.2,0.1,0.05,0.02,0.01,0.005", "--p-db", "10",
                 "--trials", "1e6"],
    "outage": ["outage", "--p-db", "10:30:5", "--delta", "0.01,0.2",
               "--min-outage-events", "10000"],
    "outageloss": ["outageloss", "--delta", "0.05", "--p-db", "10"],
    "diversity": ["diversity", "--p-db", "10:30:5", "--delta", "0.05",
                  "--min-outage-events", "10000"],
}
# Traced peak, in KiB, of one two-chunk job of the first sweep point at one
# worker: what the in-place kernels reach (1,860, 2,120, 2,117 and 2,116)
# plus 5 %, lowered since. Each block-sized float64 array is 256 KiB, so one
# more temporary alive at the peak fails here. Measured the same way, a
# one-chunk job peaked at 1,539, 2,053 and 1,508 KiB before jobs took two
# chunks, and a two-chunk job with the kernels as they were then at 2,819,
# 3,846 and 2,788. outageloss peaked at 2,660 KiB while it kept a float copy
# of the fed-back gains. minrate now peaks at 1,668 (its min rates looked up
# by level pair, the levels gone before the lookup) and outage at 1,892 (its
# levels gone before the split); their pins are those plus 5 %. outageloss,
# which keeps its levels for the VLE lengths, peaked at 2,148 and rateloss,
# whose finest delta still splits per row, at 2,120. With their power splits
# looked up by level pair, outage peaks at 1,667 and outageloss at 2,052,
# under the pins set for the per-row split, which are kept. With the
# certified quantizers, whose fraction buffer goes before the int cast,
# minrate peaks at 1,540 and outage at 1,571. With the outage tests run
# only below their floors, through one mask factory, outage peaks at 1,699,
# outageloss at 2,117 and diversity, which tests its fixed bin and its
# policy's, at 1,796; diversity's pin is that plus 5 %. Since an adaptive
# kind's points share one scan, its first job runs all five points' kernels:
# outage peaks at 1,701 and diversity at 1,825, under the pins kept. With
# every upper-edge row split on its own again, the int max and min of its
# levels scaled one at a time, outage peaks at 1,705, outageloss at 2,183
# and diversity at 1,829, under the pins kept.
JOB_PEAK_KIB = {"minrate": 1751, "rateloss": 2226, "outage": 1987, "outageloss": 2222,
                "diversity": 1886}


@pytest.mark.parametrize("kind", sorted(JOB_PEAK_ARGV))
def test_a_two_chunk_job_keeps_its_traced_peak(kind, monkeypatch):
    import tracemalloc

    from nomafb import cli

    cfg, _ = cli.parse_config(JOB_PEAK_ARGV[kind])
    # The first scan at the argv's own trial count and cap, which decide
    # whether it builds level-pair tables: a fixed kind's first point, or
    # every point of an adaptive kind, which share one scan, so their
    # kernels all run in turn on the job's block.
    adaptive = "min_outage_events" in cfg.options
    first = replace(cfg, min_outage_events=1) if adaptive else replace(cfg, p_db=cfg.p_db[:1])
    params, kernels, _ = scanned_kernels(first, monkeypatch)[0]
    assert len(kernels) == (len(cfg.points) if adaptive else 1)
    harness._scan(params, 1, 1, kernels, 2 * CHUNK)  # first calls set up numpy's caches
    tracemalloc.start()
    try:
        harness._scan(params, 1, 1, kernels, 2 * CHUNK)
        peak = tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
    assert peak <= JOB_PEAK_KIB[kind], "%s job peaked at %.0f KiB" % (kind, peak)


class FakeLibc:
    """Stands in for ctypes.CDLL(None) and records the mallopt calls."""

    def __init__(self, calls):
        def mallopt(param, value):
            calls.append((param, value))
            return 1

        self.mallopt = mallopt


class TestMallocThresholds:
    fix = staticmethod(harness.fix_malloc_thresholds.__wrapped__)

    @pytest.fixture
    def calls(self, monkeypatch):
        import ctypes

        calls = []
        for name in harness._MALLOC_ENV + ("GLIBC_TUNABLES",):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(harness.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(calls))
        return calls

    def test_sets_both_thresholds_on_glibc(self, calls):
        assert self.fix() is True
        assert calls == [(harness.M_MMAP_THRESHOLD, 4 << 20), (harness.M_TRIM_THRESHOLD, 64 << 20)]

    @pytest.mark.parametrize("name", harness._MALLOC_ENV)
    def test_leaves_a_threshold_set_in_the_environment(self, name, calls, monkeypatch):
        monkeypatch.setenv(name, "131072")
        assert self.fix() is False
        assert calls == []

    def test_leaves_thresholds_set_by_tunables(self, calls, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=65536")
        assert self.fix() is False
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.arena_max=2")
        assert self.fix() is True

    def test_no_op_off_glibc(self, calls, monkeypatch):
        def no_such_name(name):
            raise ValueError("unrecognized configuration name")

        monkeypatch.setattr(harness.os, "confstr", no_such_name)
        assert self.fix() is False
        monkeypatch.setattr(harness.os, "confstr", lambda name: None)
        assert self.fix() is False
        monkeypatch.delattr(harness.os, "confstr")
        assert self.fix() is False
        assert calls == []

    def test_no_op_without_mallopt(self, calls, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert self.fix() is False

    def test_once_per_process(self, calls):
        harness.fix_malloc_thresholds.cache_clear()
        try:
            assert harness.fix_malloc_thresholds() is harness.fix_malloc_thresholds() is True
            assert len(calls) == 2
        finally:
            harness.fix_malloc_thresholds.cache_clear()

    @pytest.mark.skipif(not glibc(), reason="mallopt is glibc's")
    def test_real_calls_can_repeat(self, monkeypatch):
        for name in harness._MALLOC_ENV + ("GLIBC_TUNABLES",):
            monkeypatch.delenv(name, raising=False)
        assert self.fix() is True
        assert self.fix() is True


# A fixed two-user scan, run twice through the library in a fresh interpreter;
# the faults of the second run are counted.
LIBRARY_FAULTS_SCRIPT = """
import resource
from nomafb.harness import ExperimentConfig, run_experiment
cfg = ExperimentConfig(kind="minrate", p_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                       trials=200_000, workers=%d)
run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not glibc(), reason="the thresholds are set on glibc only")
@pytest.mark.parametrize("workers", [1, 2])
def test_a_library_sweep_takes_few_page_faults(workers):
    # Every sweep sets the thresholds, not only the command line. With
    # glibc's defaults the second run takes 3,928 minor faults at 1 worker,
    # as its freed temporaries are unmapped or trimmed and faulted in again;
    # at 2 workers it varies from run to run, from about 15 to about 3,000.
    # With the thresholds set it takes 1 or 2 at 1 worker and about 15 at 2.
    assert minor_faults(LIBRARY_FAULTS_SCRIPT % workers) < 500


class KernelFailed(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("adaptive", [False, True])
def test_a_failing_scan_keeps_its_job_window(adaptive, workers, monkeypatch):
    # One rule bounds every scan: at most T = max(pool threads, 1) jobs are
    # submitted past the one consumed, whatever the trial count. A fixed
    # scan's W pool threads run whole jobs (T = W); an adaptive scan's
    # W - 1 only draw (T = max(W - 1, 1)). So a kernel that fails on the
    # first block of 10^9 trials (30,518 jobs) stops the scan after at most
    # T + 1 jobs are submitted or drawn, with its error, a few blocks
    # traced at the peak, and no pool thread left behind.
    import threading
    import tracemalloc

    submitted, drawn = [], set()
    submit, sample = harness.ThreadPoolExecutor.submit, harness.sample_block

    def counting(pool, fn, *args, **kwargs):
        submitted.append(args)
        return submit(pool, fn, *args, **kwargs)

    def drawing(params, master, block_index, count=CHUNK):
        drawn.add(block_index // harness.JOB_CHUNKS)
        return sample(params, master, block_index, count)

    def kernel(block):
        raise KernelFailed(len(block))
        yield  # a generator, as every driver's kernel is

    monkeypatch.setattr(harness.ThreadPoolExecutor, "submit", counting)
    monkeypatch.setattr(harness, "sample_block", drawing)
    events = ("out",) if adaptive else ()
    tracemalloc.start()
    try:
        with pytest.raises(KernelFailed, match=str(harness.JOB_CHUNKS * CHUNK)):
            harness._scan(ChannelParams((1.0, 0.5)), 1, workers, [kernel], 10**9, events, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window = max(workers - adaptive, 1) + 1  # T + 1
    assert len(submitted) <= (window if workers > 1 else 0)
    assert 1 <= len(drawn) <= window and min(drawn) == 0
    assert peak < 10 << 20, "peak %.1f MB" % (peak / 2**20)
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor-")] == []


@pytest.mark.parametrize("adaptive", [False, True])
def test_a_scan_holds_no_state_per_chunk(adaptive, monkeypatch):
    # A scan adds each chunk's moments into one running exact total per
    # metric, so what it holds does not grow with the trial count. The
    # kernel yields rateloss_dsweep's 25 metric keys, on zero blocks, so the
    # scan's own state is all that could grow: a scan that kept per-chunk
    # sums for one final fsum read 1.6 MB at 200 chunks and 9.1 MB at 2,000.
    import tracemalloc

    deltas = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
    names = ("vle_rx1", "vle_rx2", "r_qr", "rate_loss")
    events = ("out",) if adaptive else ()

    def kernel(block):
        yield "out", block[:, 0] > 0  # an event that never comes: an adaptive scan runs on
        for d in deltas:
            for name in names:
                yield (name, d), block[:, 1]

    def peak(chunks):
        tracemalloc.start()
        try:
            found = harness._scan(ChannelParams((1.0, 0.5)), 1, 1, [kernel], chunks * CHUNK,
                                  events, 1)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        moments, n = found[0][:2]
        assert n == chunks * CHUNK and len(moments) == 1 + len(deltas) * len(names)
        return traced

    monkeypatch.setattr(harness, "sample_block",
                        lambda params, master, block_index, count=CHUNK: np.zeros((count, 2)))
    harness._scan(ChannelParams((1.0, 0.5)), 1, 1, [kernel], 2 * CHUNK)  # sets up numpy's caches
    short, long = peak(200), peak(2000)
    assert long - short < 1 << 20, "peak %.1f MB at 200 chunks, %.1f MB at 2,000" % (
        short / 2**20, long / 2**20)


def moment_int(v):
    """The int _moments gives the sum of a chunk whose one row is v. Past
    2^511, where its square would overflow, v is scaled by 2^-500 first,
    which is exact there."""
    if abs(v) < 2.0**511:
        return harness._moments(np.array([v]))[0]
    return harness._moments(np.array([v / 2.0**500]))[0] << 500


FINITE = st.floats(min_value=-2.0**1000, max_value=2.0**1000)
TINY = st.floats(min_value=-2.0**-1000, max_value=2.0**-1000)  # subnormals and their sums
EDGES = st.sampled_from([1.0, 1.0 + 2**-52, 2**-53, -2**-53, 2**-54, 2**-1074, -2**-1074,
                         2.0**-1022, 2.0**1000, -2.0**1000])


@PROPERTY
@given(st.lists(st.one_of(FINITE, TINY, EDGES), max_size=40))
@example([1.0, 2**-53])  # halfway, to the even 1.0
@example([1.0 + 2**-52, 2**-53])  # halfway, up to the even neighbour
@example([1.0, 2**-53, 2**-1074])  # just past halfway
@example([2.0**1000, 1.0, -2.0**1000])  # the big terms cancel
@example([2**-1074, 2**-1074, -2.0**-1022])  # a subnormal total
def test_exact_totals_round_as_fsum_does(values):
    # A scan reports each metric's running int total over 2^1074, which
    # CPython's int division rounds correctly, as fsum rounds the floats.
    # A zero sum may differ in sign only: no metric sums to -0.0, as every
    # metric is at least +0.0 or a difference x - y, and x - x is +0.0.
    got, want = sum(map(moment_int, values)) / (1 << 1074), math.fsum(values)
    if want == 0:
        assert got == 0
    else:
        assert got.hex() == want.hex(), values


class TestDriverGuards:
    def test_kind_mismatch(self):
        cfg = harness.ExperimentConfig(kind="minrate", trials=1000)
        with pytest.raises(ValueError):
            harness.run_outage(cfg)
        with pytest.raises(ValueError):
            harness.run_rate_loss(cfg)

    def test_two_user_drivers_need_two_receivers(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="minrate", variances=(1.0, 0.5, 0.25), trials=1000)

    def test_diversity_needs_single_delta(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(kind="diversity", deltas=(0.1, 0.2), trials=1000)
