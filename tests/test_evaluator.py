"""Quantized-CSI pipeline: splits, adapted rates, outage, loss bounds.

The pipeline is the two-user kernel in ``alloc`` applied to fed-back gains,
exactly as the experiment drivers run it.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nomafb import alloc, evaluator, harness, quantizer


def quantized_order(h1, h2, delta, t):
    """Rate-quantize both gains and order them the way the transmitter would."""
    q1 = quantizer.rate_levels(h1, delta, t) * delta
    q2 = quantizer.rate_levels(h2, delta, t) * delta
    rx1_strong = q1 >= q2
    qs = np.where(rx1_strong, q1, q2)
    qw = np.where(rx1_strong, q2, q1)
    ha = np.where(rx1_strong, h1, h2)
    hb = np.where(rx1_strong, h2, h1)
    return ha, hb, qs, qw, rx1_strong


def adapted_rates(q1, q2, p):
    """Rates the transmitter sends at, from quantized gains q1 >= q2."""
    return alloc.two_user_rates(alloc.equal_rate_split(q1, q2, p), q1, q2, p)


def achieved_min_rate(h1, h2, a, rx1_strong, p):
    """Min rate on the true gains when the receiver the transmitter believes
    stronger (receiver 1 where rx1_strong) gets power fraction a."""
    hs = np.where(rx1_strong, h1, h2)
    hw = np.where(rx1_strong, h2, h1)
    return np.minimum(*alloc.two_user_rates(a, hs, hw, p))


class TestAlphaFromQuantized:
    def test_zero_levels_mean_no_split(self):
        assert alloc.equal_rate_split(0.0, 0.0, 10.0) == 0.0
        assert alloc.equal_rate_split(0.4, 0.0, 10.0) == 0.0

    def test_matches_closed_form_when_live(self):
        a = alloc.equal_rate_split(1.0, 1.0, 3.0)
        assert_allclose(a, 1.0 / 3.0, rtol=1e-12)
        assert_allclose(
            alloc.equal_rate_split(0.8, 0.3, 7.0),
            alloc.optimal_alpha_two_user(0.8, 0.3, 7.0),
            rtol=1e-12,
        )

    def test_no_floating_point_warnings_on_zeros(self):
        q1 = np.array([0.0, 0.5, 0.2, 0.0])
        q2 = np.array([0.0, 0.0, 0.2, 0.0])
        with np.errstate(invalid="raise", divide="raise"):
            a = alloc.equal_rate_split(q1, q2, 10.0)
        assert_allclose(a, [0.0, 0.0, alloc.optimal_alpha_two_user(0.2, 0.2, 10.0), 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            alloc.equal_rate_split(0.2, 0.4, 10.0)
        with pytest.raises(ValueError):
            alloc.equal_rate_split(0.2, -0.1, 10.0)


class TestAdaptedRates:
    def test_dead_channel_sends_nothing(self):
        assert adapted_rates(0.0, 0.0, 10.0) == (0.0, 0.0)
        assert adapted_rates(0.7, 0.0, 10.0) == (0.0, 0.0)

    def test_equal_rates_when_live(self):
        rng = np.random.default_rng(301)
        q2 = rng.uniform(0.05, 2.0, 1000)
        q1 = q2 + rng.uniform(0.0, 2.0, 1000)
        p = 10.0 ** rng.uniform(-1, 3, 1000)
        r1, r2 = adapted_rates(q1, q2, p)
        assert_allclose(r1, r2, rtol=1e-9, atol=1e-12)

    def test_reference_point(self):
        r1, r2 = adapted_rates(1.0, 1.0, 3.0)
        assert_allclose((r1, r2), (1.0, 1.0), rtol=1e-12)


class TestAchievability:
    def test_quantized_rates_always_decode(self):
        rng = np.random.default_rng(302)
        n = 100_000
        h1 = rng.exponential(1.0, n)
        h2 = rng.exponential(0.5, n)
        for delta in (0.01, 0.2):
            t = quantizer.default_t_rate(delta)
            ha, hb, qs, qw, _ = quantized_order(h1, h2, delta, t)
            with np.errstate(invalid="raise", divide="raise"):
                ok = evaluator.achievable_check(ha, hb, qs, qw, 10.0)
            assert ok.all()

    def test_overstated_gain_fails(self):
        # a quantizer that rounds up the strong gain would promise too much
        assert not evaluator.achievable_check(1.0, 0.5, 2.0, 0.5, 10.0)

    def test_adapted_min_bounded_by_full_csi(self):
        rng = np.random.default_rng(303)
        n = 20_000
        h1 = rng.exponential(1.0, n)
        h2 = rng.exponential(0.5, n)
        ha, hb, qs, qw, _ = quantized_order(h1, h2, 0.05, 60)
        r1q, r2q = adapted_rates(qs, qw, 10.0)
        r_full = alloc.max_min_rate_two_user(h1, h2, 10.0)
        assert np.all(np.minimum(r1q, r2q) <= r_full + 1e-12)


class TestActualMinRate:
    def test_correct_split_recovers_full_csi(self):
        rng = np.random.default_rng(304)
        for _ in range(300):
            h1 = rng.exponential(1.0)
            h2 = rng.exponential(0.5)
            hs, hw = max(h1, h2), min(h1, h2)
            a = alloc.optimal_alpha_two_user(hs, hw, 10.0)
            r = achieved_min_rate(h1, h2, a, h1 >= h2, 10.0)
            assert_allclose(r, alloc.max_min_rate_two_user(h1, h2, 10.0), rtol=1e-12)

    def test_zero_split_means_zero_rate(self):
        assert achieved_min_rate(1.0, 0.5, 0.0, True, 10.0) == 0.0

    def test_never_beats_full_csi(self):
        rng = np.random.default_rng(305)
        n = 50_000
        h1 = rng.exponential(1.0, n)
        h2 = rng.exponential(0.5, n)
        ha, hb, qs, qw, rx1_strong = quantized_order(h1, h2, 0.2, 9)
        a = alloc.equal_rate_split(qs, qw, 10.0)
        r = achieved_min_rate(h1, h2, a, rx1_strong, 10.0)
        assert np.all(r <= alloc.max_min_rate_two_user(h1, h2, 10.0) + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            alloc.two_user_rates(1.2, 1.0, 0.5, 10.0)


class TestOutage:
    def test_beta(self):
        # beta = 2^r_th - 1 makes the log-free test the rate test min(r) < r_th
        rng = np.random.default_rng(310)
        h1 = rng.exponential(1.0, 20_000)
        h2 = rng.exponential(0.5, 20_000)
        q1 = rng.exponential(1.0, 20_000)
        q2 = rng.exponential(0.5, 20_000)
        for r_th in (1.0, 2.0):
            beta = 2.0**r_th - 1.0
            out_sys, out_rx1, out_rx2 = alloc.outage_conditions(h1, h2, q1, q2, 10.0, beta)
            rx1_strong = q1 >= q2
            a = alloc.equal_rate_split(np.maximum(q1, q2), np.minimum(q1, q2), 10.0)
            hs, hw = np.where(rx1_strong, h1, h2), np.where(rx1_strong, h2, h1)
            r_own, r_weak = alloc.two_user_rates(a, hs, hw, 10.0)
            # rates within 1e-12 of r_th may round either way; no draw lands there
            assert np.all(np.abs(np.concatenate([r_own, r_weak]) - r_th) > 1e-12)
            assert np.array_equal(out_sys, np.minimum(r_own, r_weak) < r_th)
            assert np.array_equal(np.where(rx1_strong, out_rx1, out_rx2), r_own < r_th)
            assert np.array_equal(np.where(rx1_strong, out_rx2, out_rx1), r_weak < r_th)
        assert out_sys.any() and not out_sys.all()

    def test_threshold_is_strict(self):
        # equal fed-back gains 0.125 at p = 10 split exactly 0.4 to receiver 1,
        # whose SIC rate on its true gain 0.25 then equals r_th = 1: no outage
        beta, p, q = 2.0**1.0 - 1.0, 10.0, 0.125
        a = alloc.equal_rate_split(q, q, p)
        assert a == 0.4 and math.log2(1.0 + p * a * 0.25) == 1.0
        assert not alloc.outage_conditions(0.25, 50.0, q, q, p, beta)[0]
        assert alloc.outage_conditions(0.25 * 0.999, 50.0, q, q, p, beta)[0]

    def test_full_csi_outage_implies_quantized_outage(self):
        rng = np.random.default_rng(306)
        n = 100_000
        h1 = rng.exponential(1.0, n)
        h2 = rng.exponential(0.5, n)
        p = 10.0
        beta = 2.0**1.0 - 1.0
        delta = 0.2
        t = quantizer.default_t_outage(delta)
        q1 = quantizer.outage_levels(h1, delta, t) * delta
        q2 = quantizer.outage_levels(h2, delta, t) * delta
        out_q = alloc.outage_conditions(h1, h2, q1, q2, p, beta)[0]
        out_full = p * alloc.sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p) < beta
        assert not np.any(out_full & ~out_q)

    def test_outage_loss_is_difference_under_dominance(self):
        # every full-CSI outage is a quantized one, so the drivers' loss count
        # (quantized outage on full-CSI success) is the exact count difference
        runs = [
            harness.run_outage_loss(harness.ExperimentConfig(
                kind="outageloss", p_db=(10.0,), deltas=(0.05, 0.2), trials=40_000, seed=7)),
            harness.run_k_user(harness.ExperimentConfig(
                kind="kuser", variances=(1.0, 0.5, 0.25), p_db=(10.0,), deltas=(0.2,),
                trials=20_000, seed=7)),
        ]
        for stats in runs:
            by = {}
            for m in stats.points:
                by.setdefault(m.sweep_value, {})[m.metric] = round(m.value * m.n)
            for counts in by.values():
                assert counts["outage_loss"] > 0
                assert counts["outage_loss"] == counts["out_qo"] - counts["out_full"]


class TestRateLossBound:
    def test_default_bins_reduce_to_delta_term(self):
        for p in (1.0, 10.0, 100.0):
            for delta in (0.01, 0.05, 0.2):
                t = quantizer.default_t_rate(delta)
                got = evaluator.rate_loss_bound(p, delta, t, 1.0, 0.5)
                assert_allclose(got, math.log2(1.0 + 6.0 * p * delta), rtol=1e-12)

    def test_large_second_moment_switches_constant(self):
        got = evaluator.rate_loss_bound(1.0, 0.1, 100, 1.0, 10.0)
        assert_allclose(got, math.log2(1.0 + 10.0 * 0.1), rtol=1e-12)

    def test_small_bins_kill_the_bound(self):
        t = quantizer.default_t_rate(1e-6)
        assert evaluator.rate_loss_bound(10.0, 1e-6, t, 1.0, 0.5) < 1e-3

    def test_saturation_tail_can_dominate(self):
        # tiny t leaves a big tail: exp term beats delta
        got = evaluator.rate_loss_bound(10.0, 0.01, 5, 1.0, 0.5)
        assert_allclose(got, math.log2(1.0 + 6.0 * 10.0 * math.exp(-0.05)), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluator.rate_loss_bound(0.0, 0.1, 10, 1.0, 0.5)
        with pytest.raises(ValueError):
            evaluator.rate_loss_bound(1.0, 0.1, 0, 1.0, 0.5)


class TestSnrDecomposition:
    # The full-CSI SNR is sic_snr with the stronger gain decoding last; the
    # other order is the branch the max-min rate must never pick.
    def test_consistent_with_max_min_rate(self):
        rng = np.random.default_rng(308)
        h1 = rng.exponential(1.0, 10_000)
        h2 = rng.exponential(0.5, 10_000)
        p = 10.0
        g_ge, g_lt = alloc.sic_snr(h1, h2, p), alloc.sic_snr(h2, h1, p)
        snr_max = alloc.sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p)
        assert_allclose(
            np.log2(1.0 + p * snr_max),
            alloc.max_min_rate_two_user(h1, h2, p),
            rtol=1e-10,
        )
        assert np.array_equal(snr_max, np.where(h1 >= h2, g_ge, g_lt))
        assert np.all(np.maximum(g_ge, g_lt) <= np.minimum(h1, h2) + 1e-12)

    def test_branches_swap_roles(self):
        ge1, lt1 = alloc.sic_snr(0.9, 0.4, 10.0), alloc.sic_snr(0.4, 0.9, 10.0)
        ge2, lt2 = alloc.sic_snr(0.4, 0.9, 10.0), alloc.sic_snr(0.9, 0.4, 10.0)
        assert_allclose(ge1, lt2, rtol=1e-15)
        assert_allclose(lt1, ge2, rtol=1e-15)
        assert ge1 > lt1

    def test_equal_gains_collapse(self):
        ge, lt = alloc.sic_snr(0.7, 0.7, 5.0), alloc.sic_snr(0.7, 0.7, 5.0)
        assert_allclose(ge, lt, rtol=1e-15)
        assert_allclose(ge, 0.7 / (math.sqrt(1.0 + 3.5) + 1.0), rtol=1e-12)


def run_trial(h1, h2, p, delta_rate, t_rate, delta_outage, t_outage, r_th):
    """One channel draw through both feedback pipelines, on the kernel the
    drivers call: (r_full, adapted min, achieved min, out_full, out_q, bits)."""
    r_full = alloc.max_min_rate_two_user(h1, h2, p)
    n1, n2 = quantizer.rate_levels([h1, h2], delta_rate, t_rate)
    q1, q2 = n1 * delta_rate, n2 * delta_rate
    rx1_strong = q1 >= q2
    qs, qw = max(q1, q2), min(q1, q2)
    a = alloc.equal_rate_split(qs, qw, p)
    r_adapted = min(adapted_rates(qs, qw, p))
    r_actual = achieved_min_rate(h1, h2, a, rx1_strong, p)
    m1, m2 = quantizer.outage_levels([h1, h2], delta_outage, t_outage)
    beta = 2.0**r_th - 1.0
    out_q = alloc.outage_conditions(h1, h2, m1 * delta_outage, m2 * delta_outage, p, beta)[0]
    bits = tuple(int(b) for b in quantizer.vle_lengths([n1, n2]))
    return r_full, r_adapted, r_actual, r_full < r_th, bool(out_q), bits


class TestRunTrial:
    def test_invariants_on_random_draws(self):
        rng = np.random.default_rng(309)
        for _ in range(400):
            h1 = rng.exponential(1.0)
            h2 = rng.exponential(0.5)
            p = 10.0 ** rng.uniform(-1, 3)
            r_full, r_adapted, r_actual, out_full, out_q, bits = run_trial(
                h1, h2, p, 0.05, 60, 0.05, 30, 1.0)
            assert r_full - r_adapted >= -1e-12
            assert r_adapted <= r_full + 1e-12
            assert r_actual >= r_adapted - 1e-12
            assert r_actual <= r_full + 1e-12
            assert out_q or not out_full
            assert len(bits) == 2
            assert all(b >= 1 for b in bits)

    def test_known_trial(self):
        r_full, r_adapted, _, out_full, _, bits = run_trial(0.8, 0.3, 10.0, 0.1, 23, 0.1, 12, 1.0)
        assert_allclose(r_full, alloc.max_min_rate_two_user(0.8, 0.3, 10.0))
        q1, q2 = quantizer.rate_levels([0.8, 0.3], 0.1, 23) * 0.1
        r1q, r2q = adapted_rates(q1, q2, 10.0)
        assert_allclose(r_adapted, min(r1q, r2q), rtol=1e-12)
        assert bits == (3, 2)
        assert not out_full
