"""Quantizer bins, default sizing, and the two feedback codecs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import enumerate_binary_strings, vle_mean_analytic, vle_rate_bound
from nomafb import quantizer
from nomafb.harness import ExperimentConfig


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


# (level function, a gain it rejects); see KERNEL_CHECKS in test_alloc.py.
LEVEL_CHECKS = {"rate": (quantizer.rate_levels, -0.1), "outage": (quantizer.outage_levels, 0.0)}


@pytest.mark.parametrize("name", sorted(LEVEL_CHECKS))
class TestLevelInputChecks:
    def test_accepts_empty(self, name):
        levels, _ = LEVEL_CHECKS[name]
        assert levels(np.array([]), 0.1, 10).shape == (0,)

    def test_rejects_nan(self, name):
        # NaN has no level: cast to int64 it would read as -2^63.
        levels, _ = LEVEL_CHECKS[name]
        for x in ([np.nan, 0.25], [0.25, np.nan], [np.nan], np.nan, [[0.25, np.nan]]):
            with pytest.raises(ValueError, match="not NaN"):
                levels(np.array(x), 0.1, 10)

    def test_a_count_past_int64_saturates_nothing(self, name):
        # The count is taken as a float, so the top of the int64 range
        # neither wraps to a negative top nor falls back to object arrays.
        levels, _ = LEVEL_CHECKS[name]
        for t in (2**63 - 1, 2**70, (2**63 - 1, 2**70)):
            assert_array_equal(levels(np.array([[0.37, 123.0]]), 0.1, t),
                               levels(np.array([[0.37, 123.0]]), 0.1, 10**6))

    def test_rejects_a_bad_gain_beside_nan(self, name):
        levels, bad = LEVEL_CHECKS[name]
        for x in ([bad], [0.25, bad], [np.nan, bad], [bad, np.nan]):
            with pytest.raises(ValueError):
                levels(np.array(x), 0.1, 10)


class TestBlockLevels:
    # The two-user drivers quantize both receivers in one call on an (n, 2)
    # block. Gains on the bin edges of delta = 0.1 (0.3 among them) and their
    # float neighbours make both nudges of both quantizers fire.
    def edge_block(self, delta):
        k = np.arange(0, 400)
        edges = np.concatenate([k * delta, np.round(k * delta, 12)])
        x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        x = np.random.default_rng(9).permutation(x[x > 0])
        return x[: x.size - x.size % 2].reshape(-1, 2)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_block_call_matches_per_column_calls(self, order):
        delta, t = 0.1, 1000
        block = np.asarray(self.edge_block(delta), order=order)
        assert 0.3 in block
        for levels, rounded in ((quantizer.rate_levels, np.floor(block / delta)),
                                (quantizer.outage_levels, np.ceil(block / delta))):
            got = levels(block, delta, t)
            assert got.shape == block.shape and got.dtype == np.int64
            # nudged up on some gains, down on others
            assert (got > rounded).any() and (got < rounded).any()
            for i in range(2):
                assert_array_equal(got[:, i], levels(block[:, i], delta, t))
                assert_array_equal(got[:, i], [levels(float(x), delta, t) for x in block[:, i]])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_count_per_column_matches_per_column_calls(self, order):
        # kuser-style counts: receiver 2 saturates well below receiver 1.
        delta, ts = 0.1, (30, 7)
        block = np.asarray(self.edge_block(delta), order=order)
        for levels in (quantizer.rate_levels, quantizer.outage_levels):
            got = levels(block, delta, ts)
            assert got.shape == block.shape and got.dtype == np.int64
            assert list(got.max(axis=0)) == [t + (levels is quantizer.outage_levels) for t in ts]
            for i, t in enumerate(ts):
                assert_array_equal(got[:, i], levels(block[:, i], delta, t))
            assert_array_equal(levels(block, delta, (30, 30)), levels(block, delta, 30))


LEVELS = {"rate": quantizer.rate_levels, "outage": quantizer.outage_levels}


def nudged(levels, x, delta, t):
    """levels(x, delta, t) with no block certified: the bin-edge nudges alone."""
    with mock.patch.object(quantizer, "_certified_floor", lambda x, delta, t: None):
        return levels(x, delta, t)


def certifies(x, delta, t):
    return quantizer._certified_floor(np.asarray(x, dtype=np.float64), delta,
                                      np.asarray(t, dtype=np.float64)) is not None


def agrees_row_by_row(levels, x, delta, t):
    """Each gain of x, quantized alone, certified where it can be, gives the
    nudges' level; returns how many of them certified."""
    for g in x:
        assert levels(g, delta, t) == nudged(levels, g, delta, t), (g, delta, t)
    return sum(certifies(g, delta, t) for g in x)


class TestCertifiedLevels:
    """A block whose every fraction x/delta - n lies clear of a bin edge
    skips the nudges (quantizer._certified_floor); its levels must be the
    nudges' levels, bit for bit, on both edges."""

    DELTAS = (0.1, 0.3, 1.0 / 3.0, 0.2, 0.05, 0.01, 0.005)

    @pytest.mark.parametrize("name", sorted(LEVELS))
    @pytest.mark.parametrize("delta", DELTAS)
    def test_every_bin_edge_and_its_ulps(self, name, delta):
        levels = LEVELS[name]
        t = (quantizer.default_t_rate if name == "rate" else quantizer.default_t_outage)(delta)
        k = np.arange(0.0, t + 3)
        # The edges and their neighbours, which certify only past the cap
        # (k = t + 1 and t + 2), and mid-bin gains and gains just past the
        # margin, which all certify.
        margin = 4.0 * 2.0**-52 * (t + 2)
        x = np.concatenate([*around(k * delta, 2), (k + 0.5) * delta,
                            (k + 1.5 * margin) * delta, (k + 1.0 - 1.5 * margin) * delta])
        x = x[x > 0]
        assert agrees_row_by_row(levels, x, delta, t) == 3 * len(k) + 2 * 5
        assert_array_equal(levels(x, delta, t), nudged(levels, x, delta, t))

    @pytest.mark.parametrize("name", sorted(LEVELS))
    def test_one_count_per_column_and_rows_at_the_cap(self, name):
        # delta = 1/4 is exact, so x = (t + 1/2) delta sits on the cap itself.
        levels, delta, ts = LEVELS[name], 0.25, (30, 7)
        top = np.array(ts) + (name == "outage")
        cap = (np.array(ts) + 0.5) * delta
        block = np.array([[0.3, 0.3], [2.1, 2.1], cap, cap * 2, [1e300, 1e300],
                          [np.inf, np.inf], np.nextafter(cap, 0), np.nextafter(cap, np.inf)])
        assert certifies(block, delta, ts)
        got = levels(block, delta, ts)
        assert_array_equal(got, nudged(levels, block, delta, ts))
        assert_array_equal(got[2:6], np.broadcast_to(top, (4, 2)))
        for j, t in enumerate(ts):
            assert agrees_row_by_row(levels, block[:, j], delta, t) == len(block)

    @pytest.mark.parametrize("name", sorted(LEVELS))
    def test_odd_gains(self, name):
        levels, delta, t = LEVELS[name], 0.1, 10
        assert levels(np.inf, delta, t) == t + (name == "outage")
        assert certifies(np.inf, delta, t)
        with np.errstate(invalid="ignore"):  # NaN has no int64 level
            assert not certifies([0.25, np.nan], delta, t)
            assert not certifies([np.nan, 0.25], delta, t)
        with pytest.raises(ValueError, match="not NaN"):
            levels(np.array([0.25, np.nan]), delta, t)
        tiny = np.array([5e-324, 1e-310, 2.0**-1022, 1e-300])
        assert not any(certifies(g, delta, t) for g in tiny)
        assert_array_equal(levels(tiny, delta, t), [name == "outage"] * 4)
        empty = levels(np.array([]), delta, t)
        assert empty.shape == (0,) and empty.dtype == np.int64 and certifies([], delta, t)
        assert levels(np.zeros((0, 2)), delta, (t, t)).shape == (0, 2)
        scalar = levels(np.asarray(0.37), delta, t)
        assert scalar.shape == () and scalar.dtype == np.int64
        assert scalar == nudged(levels, np.asarray(0.37), delta, t) == 3 + (name == "outage")

    @pytest.mark.parametrize("name", sorted(LEVELS))
    def test_one_edge_row_sends_the_block_to_the_nudges(self, name):
        # 1.7 / 0.1 = 17.0, but 17 * 0.1 = 1.7000000000000002: the rate
        # level is nudged down to 16; 0.1 * 3 / 0.1 = 3.0000000000000004,
        # and the outage level is nudged down to 3.
        levels, delta, t = LEVELS[name], 0.1, 40
        edge, want = (1.7, 16) if name == "rate" else (0.1 * 3, 3)
        x = np.random.default_rng(12).uniform(0.01, 3.0, 1000)
        assert certifies(x, delta, t)
        x[517] = edge
        assert not certifies(x, delta, t)
        got = levels(x, delta, t)
        rounded = np.floor(edge / delta) if name == "rate" else np.ceil(edge / delta)
        assert got[517] == want == rounded - 1
        assert_array_equal(got, [levels(g, delta, t) for g in x])

    def test_counts_from_two_to_the_49_never_certify(self):
        # q = 2.5 exactly, a fraction of 1/2, the farthest from an edge. The
        # margin 4 eps (t + 2) reaches 1/2 at t = 2^49 - 2.
        assert certifies(1.25, 0.5, 2**49 - 3)
        for t in (2**49 - 2, 2**49, 2**52, 2**63 - 1, 2**70, (10, 2**49)):
            x = [[1.25, 1.25]] if isinstance(t, tuple) else 1.25
            assert not certifies(x, 0.5, t)
            for levels in LEVELS.values():
                assert_array_equal(levels(x, 0.5, t), nudged(levels, x, 0.5, t))

    def test_a_negative_gain_is_refused_before_any_level(self):
        # -0.25 / 0.1 has the fraction 1/2, which would certify.
        for levels in LEVELS.values():
            for x in ([0.25, -0.25], [-0.25], [np.nan, -0.25]):
                with pytest.raises(ValueError):
                    levels(np.array(x), 0.1, 10)

    PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

    @PROPERTY
    @given(st.sampled_from(DELTAS + (0.7, 1e-3)) | st.floats(1e-4, 0.99),
           st.lists(st.integers(0, 3000), min_size=1, max_size=2),
           st.lists(st.floats(0.0, 400.0) | st.integers(0, 3100).map(float), min_size=1,
                    max_size=40),
           st.integers(-2, 2))
    def test_random_blocks(self, delta, ts, gains, ulps):
        # Gains given as an integer are bin edges k * delta, moved a few ulps.
        x = np.array([g * delta if g.is_integer() else g for g in gains])
        for _ in range(abs(ulps)):
            x = np.nextafter(x, math.copysign(np.inf, ulps))
        x = np.abs(x)
        x = np.repeat(x, len(ts)).reshape(-1, len(ts))
        for name, levels in LEVELS.items():
            if name == "outage":
                x[x == 0] = 5e-324
            assert_array_equal(levels(x, delta, ts), nudged(levels, x, delta, ts))
            for j, t in enumerate(ts):
                agrees_row_by_row(levels, x[:, j], delta, t)


def _parent_outage_levels(x, delta, t):
    """The upper edge as it was written before it became the lower edge plus
    an edge test: ceil(x/delta), nudged once down and once up, then clipped."""
    m = np.asarray(x / delta)
    np.ceil(m, out=m)
    edge = np.asarray(m - 1.0)
    edge *= delta
    mask = np.asarray(edge >= x)
    m -= mask
    np.multiply(m, delta, out=edge)
    np.less(edge, x, out=mask)
    m += mask
    np.clip(m, 1.0, np.asarray(t, dtype=np.float64) + 1.0, out=m)
    return m.astype(np.int64)[()]


class TestUpperEdgeFromLowerEdge:
    """outage_levels is rate_levels' level plus the edge test fl(n delta) < x;
    up to 2^52 levels, every count a config can reach, that is the ceil with
    its own nudges, bit for bit, on the certified path and on the nudges."""

    DELTAS = TestCertifiedLevels.DELTAS + (1e-9, 1e-12, 3.7e-15)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_every_edge_and_exponential_gains(self, delta):
        t = quantizer.default_t_outage(delta)
        assert t <= 2**52
        rng = np.random.default_rng(29)
        if t < 20_000:
            k = np.arange(0.0, t + 3)
        else:  # the first and last 1,000 edges and a sample between
            k = np.concatenate([np.arange(0.0, 1000), np.arange(t - 1000.0, t + 3),
                                rng.integers(0, t + 3, 20_000).astype(np.float64)])
        x = np.concatenate([*around(k * delta, 2),
                            *(s * rng.exponential(1.0, 50_000) for s in (1.0, 8.0, 30.0))])
        x = x[x > 0]
        want = _parent_outage_levels(x, delta, t)
        assert_array_equal(quantizer.outage_levels(x, delta, t), want)
        assert_array_equal(nudged(quantizer.outage_levels, x, delta, t), want)
        # The rows that certify on their own make a block that certifies.
        q = np.minimum(x / delta, t + 0.5)
        q -= np.floor(q)
        margin = 4.0 * 2.0**-52 * (t + 2.0)
        ok = (q > margin) & (q < 1.0 - margin)
        assert ok.any() == (t < 2**49 - 2)
        assert certifies(x[ok], delta, t)
        assert_array_equal(quantizer.outage_levels(x[ok], delta, t), want[ok])

    def test_tied_edges_past_two_to_the_52_take_the_larger_level(self):
        # Past 2^52 levels the float spacing exceeds delta: k and k + 1 share
        # one float edge. The lower edge is the larger tied level, so the
        # upper edge is too; the ceil with nudges took the smaller. Both
        # feed back the same float.
        delta, k, t = 0.1, 3 * 2**51, 2**53
        x = k * delta
        assert x == (k + 1) * delta
        assert quantizer.rate_levels(x, delta, t) == k + 1
        assert quantizer.outage_levels(x, delta, t) == k + 1
        assert _parent_outage_levels(x, delta, t) == k


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

    def test_levels_keep_their_side_at_the_finest_accepted_bins(self):
        # ExperimentConfig refuses bins whose count reaches 2^53, where levels
        # stop being exact floats: 1e-15 at lambda1 = 1, but not 1e-14.
        delta = 1e-14
        ExperimentConfig(kind="rateloss", deltas=(delta,))
        with pytest.raises(ValueError, match="2\\^53"):
            ExperimentConfig(kind="rateloss", deltas=(1e-15,))
        x = np.random.default_rng(211).exponential(1.0, 200_000)
        n = quantizer.rate_levels(x, delta, quantizer.default_t_rate(delta))
        m = quantizer.outage_levels(x, delta, quantizer.default_t_outage(delta))
        assert np.all(n * delta <= x)
        assert np.all(m * delta >= x)

    @pytest.mark.parametrize("args", [(1e-320,), (0.1, 1e308), (1e-16,)])
    def test_counts_from_two_to_the_53_are_refused(self, args):
        # An infinite count, and a finite one whose levels are not exact floats.
        for count in (quantizer.default_t_rate, quantizer.default_t_outage):
            with pytest.raises(ValueError, match="2\\^53"):
                count(*args)

    def test_outage_count_is_refused_exactly_where_it_reaches_two_to_the_53(self):
        # At delta = 0.5 the outage count is lambda1 * ln 2: step lambda1 to
        # the last value whose count is below 2^53.
        delta, lam = 0.5, 2.0**53 / math.log(2.0)

        def count(lam):
            return lam / (2.0 * delta) * math.log(1.0 / delta)

        while count(lam) < 2.0**53:
            lam = math.nextafter(lam, math.inf)
        while count(lam) >= 2.0**53:
            lam = math.nextafter(lam, 0.0)
        assert 2**53 - 8 < quantizer.default_t_outage(delta, lam) < 2**53
        with pytest.raises(ValueError, match="2\\^53"):
            quantizer.default_t_outage(delta, math.nextafter(lam, math.inf))
        # The rate count is twice as large: refused at lambda1, not at half of it.
        with pytest.raises(ValueError, match="2\\^53"):
            quantizer.default_t_rate(delta, lam)
        assert quantizer.default_t_rate(delta, lam / 2.0) < 2**53

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
        want = [len(quantizer.vle_encode(n)) for n in range(2000)]
        assert_array_equal(quantizer.vle_lengths(np.arange(2000)), want)

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


class TestVleProperties:
    # Derandomized, with no example database, so every run checks the same draws.
    PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

    @PROPERTY
    @given(st.integers(0, np.iinfo(np.int64).max - 2))
    def test_decode_inverts_encode(self, level):
        bits = quantizer.vle_encode(level)
        assert len(bits) == (level + 2).bit_length() - 1 == quantizer.vle_lengths(level)
        assert quantizer.vle_decode(bits) == level

    @PROPERTY
    @given(st.text("01", min_size=1, max_size=62))
    def test_encode_inverts_decode(self, bits):
        assert quantizer.vle_encode(quantizer.vle_decode(bits)) == bits


def around(x, k=1):
    """x and its k nearest float neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


class TestLevelBoundaryProperties:
    # Every bin edge n*delta and its float neighbours, below saturation: the
    # level must bracket x by the same float products the reconstruction uses.
    # Derandomized, with no example database, so every run checks the same draws.
    PROPERTY = settings(max_examples=500, deadline=None, derandomize=True, database=None)

    @PROPERTY
    @given(st.integers(0, 10**7), st.floats(1e-4, 0.99))
    def test_rate_levels_at_bin_edges(self, n, delta):
        t = n + 2
        for x in around(n * delta):
            if x < 0:
                continue
            k = int(quantizer.rate_levels(x, delta, t))
            assert k < t
            assert k * delta <= x < (k + 1) * delta, (x, k)

    @PROPERTY
    @given(st.integers(1, 10**7), st.floats(1e-4, 0.99))
    def test_outage_levels_at_bin_edges(self, n, delta):
        t = n + 1
        for x in around(n * delta):
            m = int(quantizer.outage_levels(x, delta, t))
            assert m <= t
            assert (m - 1) * delta < x <= m * delta, (x, m)


class TestFle:
    def test_reference_values(self):
        # rate levels run 0..t; outage levels 1..t+1, so their top is t+1
        assert quantizer.fle_bits(461) == 9
        assert quantizer.fle_bits(60) == 6
        assert quantizer.fle_bits(231 + 1) == 8
        assert quantizer.fle_bits(30 + 1) == 5

    def test_minimal_outage_code(self):
        # levels {1, 2} still need 2 bits because 0 is reserved
        assert quantizer.fle_bits(1 + 1) == 2
        assert quantizer.fle_bits(1) == 1

    def test_matches_ceil_log(self):
        for t in range(1, 1000):
            assert quantizer.fle_bits(t) == math.ceil(math.log2(t + 1))
            assert quantizer.fle_bits(t + 1) == math.ceil(math.log2(t + 2))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            quantizer.fle_bits(0)


class TestVleBound:
    def test_reference_value(self):
        assert abs(vle_rate_bound(0.01, 1.0) - 10.5436) < 1e-3

    def test_decreasing_in_delta(self):
        vals = [vle_rate_bound(d, 1.0) for d in (0.005, 0.02, 0.1, 0.5)]
        assert np.all(np.diff(vals) < 0)

    def test_mean_vle_cost_stays_below_bound(self):
        # measured average codeword length against the analytic cap
        rng = np.random.default_rng(208)
        for lam in (1.0, 0.5):
            x = rng.exponential(lam, 500_000)
            for delta in (0.01, 0.05, 0.2):
                t = quantizer.default_t_rate(delta, lam)
                mean_bits = quantizer.vle_lengths(quantizer.rate_levels(x, delta, t)).mean()
                assert mean_bits <= vle_rate_bound(delta, lam)

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
        assert quantizer.vle_lengths(level) == len(quantizer.vle_encode(level)) == 2
        assert level * 0.1 == pytest.approx(0.3)

        level = int(quantizer.outage_levels(0.37, 0.1, 10))
        assert level == 4
        assert level * 0.1 == pytest.approx(0.4)
        assert quantizer.vle_lengths([level])[0] == len(quantizer.vle_encode(level))


@st.composite
def level_blocks(draw):
    """(n, K) int64 level rows drawn from a few distinct rows, so rows repeat;
    small tops give tied levels within a row, large ones keys near 2^63."""
    k = draw(st.integers(1, 8))
    top = draw(st.sampled_from([0, 1, 3, 40, 2**31 - 1, 3037000498, 3037000499, 2**62]))
    row = st.lists(st.integers(0, top), min_size=k, max_size=k)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return np.array([pool[i] for i in picks], dtype=np.int64)


class TestDistinctWords:
    # Derandomized, with no example database, so every run checks the same draws.
    PROPERTY = settings(max_examples=500, deadline=None, derandomize=True, database=None)

    @PROPERTY
    @given(level_blocks())
    def test_words_rebuild_the_rows_and_are_distinct(self, levels):
        found = quantizer.distinct_words(levels)
        if (int(levels.max()) + 1) ** levels.shape[1] >= 2**63:
            assert found is None
            return
        words, inverse = found
        assert words.dtype == np.int64 and inverse.shape == (levels.shape[0],)
        assert_array_equal(words[inverse], levels)
        assert len({tuple(w) for w in words.tolist()}) == words.shape[0]

    def test_single_row_and_tied_levels(self):
        words, inverse = quantizer.distinct_words(np.array([[3, 3, 3, 0]]))
        assert_array_equal(words, [[3, 3, 3, 0]])
        assert_array_equal(inverse, [0])
        levels = np.array([[2, 2], [2, 2], [2, 1], [2, 2]])
        words, inverse = quantizer.distinct_words(levels)
        assert words.shape == (2, 2)
        assert_array_equal(words[inverse], levels)

    def test_key_guard_is_at_two_to_the_63(self):
        # base 2 and 63 levels: base**K is 2^63, where the guard starts
        assert quantizer.distinct_words(np.ones((2, 63), dtype=np.int64)) is None
        words, _ = quantizer.distinct_words(np.ones((2, 62), dtype=np.int64))
        assert_array_equal(words, np.ones((1, 62)))
        top = np.full((1, 2), 3037000498)  # base^2 = 2^63 - 5,928,526,807
        assert_array_equal(quantizer.distinct_words(top)[0], top)
        assert quantizer.distinct_words(top + 1) is None
