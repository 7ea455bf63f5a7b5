"""Experiment drivers: determinism, adaptive stopping, and sweep behavior."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import vle_mean_analytic
from nomafb import alloc, harness
from nomafb.channel import CHUNK, ChannelParams, sample_block
from nomafb.quantizer import default_t_outage, outage_levels


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
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        monkeypatch.delenv(harness.WORKERS_ENV, raising=False)
        assert harness.resolve_workers(100_000) == cap
        assert harness.resolve_workers(cap) == cap
        assert harness.resolve_workers(cap - 1) == cap - 1
        assert harness.resolve_workers(0) == 3
        monkeypatch.setenv(harness.WORKERS_ENV, "100000")
        assert harness.resolve_workers(0) == cap
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness.resolve_workers(100_000) == harness.MAX_WORKERS_PER_CPU

    def test_pool_is_no_wider_than_its_wave(self, monkeypatch):
        sizes = []

        class RecordingPool(harness.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
        assert harness._run_jobs(lambda ci: ci * ci, range(3), 8) == [0, 1, 4]
        assert harness._run_jobs(lambda ci: ci, range(5), 2) == list(range(5))
        assert sizes == [3, 2]


class TestPolicyDelta:
    def test_fixed(self):
        assert harness.policy_delta("fixed", 0.07, 1000.0) == 0.07

    def test_power_law(self):
        assert_allclose(harness.policy_delta("pcube", 0.2, 1000.0), 0.1, rtol=1e-12)
        assert_allclose(harness.policy_delta("pcube", 0.2, 8.0), 0.5, rtol=1e-12)

    def test_capped_power_law(self):
        assert harness.policy_delta("min02-pcube", 0.2, 1.0) == 0.2
        assert harness.policy_delta("min02-pcube", 0.2, 125.0) == pytest.approx(0.2)
        assert_allclose(harness.policy_delta("min02-pcube", 0.2, 1000.0), 0.1, rtol=1e-12)

    def test_unknown(self):
        with pytest.raises(ValueError):
            harness.policy_delta("square", 0.2, 10.0)


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
            dict(kind="minrate", r_th=0.0),
            dict(kind="minrate", eps=0.0),
            dict(kind="minrate", trials=0),
            dict(kind="minrate", min_outage_events=0),
            dict(kind="minrate", trial_cap=0),
            dict(kind="minrate", seed=-1),
            dict(kind="minrate", workers=-2),
        ]
        harness.ExperimentConfig(**good)
        for kw in bad:
            with pytest.raises(ValueError):
                harness.ExperimentConfig(**kw)


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
            out_q = alloc.outage_conditions(h1, h2, outage_levels(h1, 0.2, t) * 0.2,
                                            outage_levels(h2, 0.2, t) * 0.2, 1e4, 1.0)[0]
            point = metrics_by_sweep(stats)[40.0]["out_qo[delta=0.2]"]
            assert round(point.value * cap) == np.count_nonzero(out_q) > 0


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
        slope = harness.estimate_diversity(curve, window=(20.0, 35.0))
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
        assert abs(harness.estimate_diversity(curve, window=(20.0, 30.0)) - 1.0) < 1e-9


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
        cfg = harness.ExperimentConfig(kind="minrate", delta_policy="pcube", trials=1000)
        with pytest.raises(ValueError):
            harness.run_min_rate(cfg)


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
        cfg = harness.ExperimentConfig(kind="rateloss", p_db=(0.0, 10.0), trials=1000)
        with pytest.raises(ValueError):
            harness.run_rate_loss(cfg)


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
        cfg = harness.ExperimentConfig(kind="outageloss", p_db=(0.0, 10.0),
                                       deltas=(0.01, 0.2), trials=1000)
        with pytest.raises(ValueError):
            harness.run_outage_loss(cfg)


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
                                       deltas=(0.2,), trials=100_000, seed=9)
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
            harness.run_k_user(harness.ExperimentConfig(
                kind="kuser", p_db=(0.0, 10.0), trials=1000))
        with pytest.raises(ValueError):
            harness.run_k_user(harness.ExperimentConfig(
                kind="kuser", variances=(1.0,), trials=1000))
        with pytest.raises(ValueError):
            harness.run_k_user(harness.ExperimentConfig(
                kind="kuser", delta_policy="pcube", trials=1000))


class TestDriverGuards:
    def test_kind_mismatch(self):
        cfg = harness.ExperimentConfig(kind="minrate", trials=1000)
        with pytest.raises(ValueError):
            harness.run_outage(cfg)
        with pytest.raises(ValueError):
            harness.run_rate_loss(cfg)

    def test_two_user_drivers_need_two_receivers(self):
        cfg = harness.ExperimentConfig(kind="minrate", variances=(1.0, 0.5, 0.25),
                                       trials=1000)
        with pytest.raises(ValueError):
            harness.run_min_rate(cfg)

    def test_diversity_needs_single_delta(self):
        cfg = harness.ExperimentConfig(kind="diversity", deltas=(0.1, 0.2), trials=1000)
        with pytest.raises(ValueError):
            harness.run_diversity(cfg)
