"""Quantizer bins, default sizing, and the two feedback codecs."""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import enumerate_binary_strings, vle_mean_analytic
from nomafb import quantizer


class TestRateLevels:
    def test_small_example(self):
        assert quantizer.rate_levels(0.37, 0.1, 10) == 3
        assert quantizer.rate_levels(0.05, 0.1, 10) == 0

    def test_saturation(self):
        assert quantizer.rate_levels(1.5, 0.1, 10) == 10
        assert quantizer.rate_levels(123.0, 0.1, 10) == 10

    def test_boundary_points_are_exact(self):
        # n*delta must land in bin n despite float division noise
        for delta in (0.1, 0.05, 0.3, 0.7, 0.01):
            t = 40
            n = np.arange(0, t + 1)
            assert_array_equal(quantizer.rate_levels(n * delta, delta, t), n)

    def test_bracketing(self):
        rng = np.random.default_rng(201)
        x = rng.exponential(1.0, 100_000)
        for delta in (0.01, 0.05, 0.2):
            t = quantizer.default_t_rate(delta)
            n = quantizer.rate_levels(x, delta, t)
            q = n * delta
            assert np.all(q <= x)
            assert np.all((x < q + delta) | (n == t))
            assert np.all((n >= 0) & (n <= t))

    def test_monotone(self):
        rng = np.random.default_rng(202)
        x = np.sort(rng.exponential(1.0, 5000))
        n = quantizer.rate_levels(x, 0.05, 60)
        assert np.all(np.diff(n) >= 0)

    def test_idempotent_on_reconstructions(self):
        rng = np.random.default_rng(203)
        x = rng.exponential(1.0, 20_000)
        n = quantizer.rate_levels(x, 0.05, 60)
        again = quantizer.rate_levels(n * 0.05, 0.05, 60)
        assert_array_equal(n, again)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            quantizer.rate_levels(-0.1, 0.1, 10)


class TestOutageLevels:
    def test_small_example(self):
        assert quantizer.outage_levels(0.37, 0.1, 10) == 4
        assert quantizer.outage_levels(0.05, 0.1, 10) == 1
        assert quantizer.outage_levels(0.1, 0.1, 10) == 1

    def test_saturation(self):
        assert quantizer.outage_levels(1.5, 0.1, 10) == 11
        assert quantizer.outage_levels(50.0, 0.1, 10) == 11

    def test_never_zero(self):
        rng = np.random.default_rng(204)
        x = rng.exponential(0.5, 100_000)
        m = quantizer.outage_levels(x, 0.05, 30)
        assert np.all(m >= 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quantizer.outage_levels(0.0, 0.1, 10)
        with pytest.raises(ValueError):
            quantizer.outage_levels(-1.0, 0.1, 10)

    def test_boundary_points_are_exact(self):
        for delta in (0.1, 0.05, 0.3, 0.7):
            t = 40
            n = np.arange(1, t + 2)
            assert_array_equal(quantizer.outage_levels(n * delta, delta, t), n)

    def test_bracketing(self):
        rng = np.random.default_rng(205)
        x = rng.exponential(1.0, 100_000)
        for delta in (0.01, 0.05, 0.2):
            t = quantizer.default_t_outage(delta)
            m = quantizer.outage_levels(x, delta, t)
            q = m * delta
            assert np.all((q >= x) | (m == t + 1))
            assert np.all(q - delta < x)

    def test_idempotent_on_reconstructions(self):
        rng = np.random.default_rng(206)
        x = rng.exponential(1.0, 20_000)
        m = quantizer.outage_levels(x, 0.05, 30)
        again = quantizer.outage_levels(m * 0.05, 0.05, 30)
        assert_array_equal(m, again)


class TestDefaultBinCounts:
    def test_reference_values(self):
        assert quantizer.default_t_rate(0.01) == 461
        assert quantizer.default_t_rate(0.05) == 60
        assert quantizer.default_t_outage(0.01) == 231
        assert quantizer.default_t_outage(0.05) == 30

    def test_natural_log_pins_the_rule(self):
        # at delta = 1/e the product T*delta must be exactly one mean gain
        assert quantizer.default_t_rate(1.0 / math.e) == 3

    def test_scales_with_mean_gain(self):
        assert quantizer.default_t_rate(0.05, lambda1=0.5) == 30
        assert quantizer.default_t_outage(0.05, lambda1=0.5) == 15

    def test_outage_needs_at_most_the_rate_count(self):
        rng = np.random.default_rng(207)
        for delta in rng.uniform(0.002, 0.9, 50):
            assert quantizer.default_t_outage(delta) <= quantizer.default_t_rate(delta)

    def test_rejects_delta_outside_unit_interval(self):
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                quantizer.default_t_rate(bad)
            with pytest.raises(ValueError):
                quantizer.default_t_outage(bad)


class TestVle:
    def test_enumeration_order(self):
        # level n must map to the (n+1)-th binary string by length, then value
        want = enumerate_binary_strings(300)
        got = [quantizer.vle_encode(n) for n in range(300)]
        assert got == want

    def test_first_codewords(self):
        assert [quantizer.vle_encode(n) for n in range(6)] == [
            "0", "1", "00", "01", "10", "11",
        ]

    def test_lengths_match_codewords(self):
        for n in range(2000):
            assert quantizer.vle_length(n) == len(quantizer.vle_encode(n))

    def test_round_trip(self):
        for n in range(10_001):
            assert quantizer.vle_decode(quantizer.vle_encode(n)) == n

    def test_vectorized_lengths(self):
        levels = np.arange(0, 1 << 16)
        want = np.array([(int(n) + 2).bit_length() - 1 for n in levels])
        assert_array_equal(quantizer.vle_lengths(levels), want)

    def test_vectorized_lengths_at_every_power_of_two(self):
        # 2^k - 2 is the first level of length k; int64 max - 2 is the largest level.
        top = np.iinfo(np.int64).max - 2
        levels = [(1 << k) - 2 + d for k in range(2, 64) for d in range(-3, 2)]
        levels = np.array([n for n in levels if 0 <= n <= top], dtype=np.int64)
        assert levels[-1] == top
        want = np.array([(int(n) + 2).bit_length() - 1 for n in levels])
        assert_array_equal(quantizer.vle_lengths(levels), want)

    def test_decode_validation(self):
        with pytest.raises(ValueError):
            quantizer.vle_decode("")
        with pytest.raises(ValueError):
            quantizer.vle_decode("012")

    def test_encode_validation(self):
        with pytest.raises(ValueError):
            quantizer.vle_encode(-1)
        with pytest.raises(ValueError):
            quantizer.vle_lengths(np.array([-1, 3]))


class TestFle:
    def test_reference_values(self):
        assert quantizer.fle_bits(461, quantizer.RATE) == 9
        assert quantizer.fle_bits(60, quantizer.RATE) == 6
        assert quantizer.fle_bits(231, quantizer.OUTAGE) == 8
        assert quantizer.fle_bits(30, quantizer.OUTAGE) == 5

    def test_minimal_outage_code(self):
        # levels {1, 2} still need 2 bits because 0 is reserved
        assert quantizer.fle_bits(1, quantizer.OUTAGE) == 2
        assert quantizer.fle_bits(1, quantizer.RATE) == 1

    def test_matches_ceil_log(self):
        for t in range(1, 1000):
            assert quantizer.fle_bits(t, quantizer.RATE) == math.ceil(math.log2(t + 1))
            assert quantizer.fle_bits(t, quantizer.OUTAGE) == math.ceil(math.log2(t + 2))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            quantizer.fle_bits(0, quantizer.RATE)
        with pytest.raises(ValueError):
            quantizer.fle_bits(10, "other")


class TestVleBound:
    def test_reference_value(self):
        assert abs(quantizer.vle_rate_bound(0.01, 1.0) - 10.5436) < 1e-3

    def test_decreasing_in_delta(self):
        vals = [quantizer.vle_rate_bound(d, 1.0) for d in (0.005, 0.02, 0.1, 0.5)]
        assert np.all(np.diff(vals) < 0)

    def test_mean_vle_cost_stays_below_bound(self):
        # measured average codeword length against the analytic cap
        rng = np.random.default_rng(208)
        for lam in (1.0, 0.5):
            x = rng.exponential(lam, 500_000)
            for delta in (0.01, 0.05, 0.2):
                t = quantizer.default_t_rate(delta, lam)
                mean_bits = quantizer.vle_lengths(quantizer.rate_levels(x, delta, t)).mean()
                assert mean_bits <= quantizer.vle_rate_bound(delta, lam)

    def test_analytic_mean_agrees_with_sampling(self):
        rng = np.random.default_rng(209)
        x = rng.exponential(1.0, 2_000_000)
        t = quantizer.default_t_rate(0.05)
        mean_bits = quantizer.vle_lengths(quantizer.rate_levels(x, 0.05, t)).mean()
        assert abs(mean_bits - vle_mean_analytic(0.05, 1.0, t)) < 0.005


class TestConfigAndWords:
    def test_word_fields_are_consistent(self):
        # one fed-back word: level, codeword length and reconstructed gain
        level = int(quantizer.rate_levels(0.37, 0.1, 10))
        assert level == 3
        assert quantizer.vle_length(level) == len(quantizer.vle_encode(level)) == 2
        assert level * 0.1 == pytest.approx(0.3)

        level = int(quantizer.outage_levels(0.37, 0.1, 10))
        assert level == 4
        assert level * 0.1 == pytest.approx(0.4)
        assert quantizer.vle_lengths([level])[0] == len(quantizer.vle_encode(level))
