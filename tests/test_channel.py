"""Channel sampling: distribution checks and reproducibility."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy import stats

from nomafb import channel, harness

PARAMS = channel.ChannelParams(variances=(1.0, 0.5))


class TestDistribution:
    def test_exponential_fit(self):
        # KS against the exact CDF, per receiver, fixed seed so no flakes
        block = channel.sample_block(PARAMS, master=7, block_index=0)
        more = [channel.sample_block(PARAMS, 7, b) for b in range(1, 7)]
        gains = np.vstack([block] + more)
        for k, lam in enumerate(PARAMS.variances):
            res = stats.kstest(gains[:, k], "expon", args=(0.0, lam))
            assert res.pvalue > 0.01

    def test_mean_and_median(self):
        blocks = [channel.sample_block(PARAMS, 11, b) for b in range(64)]
        gains = np.vstack(blocks)
        n = gains.shape[0]
        assert n == 64 * channel.CHUNK
        for k, lam in enumerate(PARAMS.variances):
            assert abs(gains[:, k].mean() - lam) < 0.01
            assert abs(np.median(gains[:, k]) - lam * np.log(2)) < 0.01

    def test_strictly_positive(self):
        for b in range(16):
            block = channel.sample_block(PARAMS, 3, b)
            assert np.all(block > 0.0)

    def test_receivers_uncorrelated(self):
        blocks = [channel.sample_block(PARAMS, 5, b) for b in range(8)]
        gains = np.vstack(blocks)
        rho = np.corrcoef(gains[:, 0], gains[:, 1])[0, 1]
        assert abs(rho) < 0.02


class TestDeterminism:
    def test_same_block_same_gains(self):
        a = channel.sample_block(PARAMS, master=42, block_index=3)
        b = channel.sample_block(PARAMS, master=42, block_index=3)
        assert_array_equal(a, b)

    def test_blocks_differ(self):
        a = channel.sample_block(PARAMS, 42, 0)
        b = channel.sample_block(PARAMS, 42, 1)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = channel.sample_block(PARAMS, 1, 0)
        b = channel.sample_block(PARAMS, 2, 0)
        assert not np.array_equal(a, b)

    def test_count_is_a_prefix(self):
        # asking for fewer rows must not reshuffle the stream
        full = channel.sample_block(PARAMS, 9, 2)
        part = channel.sample_block(PARAMS, 9, 2, count=100)
        assert_array_equal(part, full[:100])

    def test_single_trial_matches_block(self):
        # a scan of `trial + 1` trials ends on trial t = 3 * CHUNK + 57, which
        # is row 57 of block 3, whatever the worker count; the last job
        # stacks blocks 2 and 3, so t is the last of its CHUNK + 58 rows
        trial = 3 * channel.CHUNK + 57
        last = {}

        def kernel(block):
            last[block.shape[0]] = block[-1].copy()
            yield "h1", block[:, 0]

        for workers in (1, 3):
            last.clear()
            harness._scan(PARAMS, 13, workers, [kernel], trial + 1)
            assert sorted(last) == [channel.CHUNK + 58, 2 * channel.CHUNK]
            assert_array_equal(last[channel.CHUNK + 58], channel.sample_block(PARAMS, 13, 3)[57])

    def test_rng_is_stable_per_block(self):
        r1 = channel.block_rng(21, 4)
        r2 = channel.block_rng(21, 4)
        assert_array_equal(r1.random(8), r2.random(8))


def row_major_draw(params, master, block_index, count):
    """sample_block as first written: exponential(1.0) draws scaled by a
    broadcast multiply, in row-major order, zeros redrawn, then sliced."""
    rng = channel.block_rng(master, block_index)
    lam = np.asarray(params.variances, dtype=np.float64)
    g = rng.exponential(1.0, size=(channel.CHUNK, lam.size)) * lam
    bad = ~(g > 0)
    while bad.any():
        g[bad] = rng.exponential(1.0, size=int(bad.sum())) * np.broadcast_to(lam, g.shape)[bad]
        bad = ~(g > 0)
    return g[:count]


class TestLayout:
    # Blocks are column-major, so each receiver's column is contiguous for
    # the two-user kernels; the values are the row-major draw, unchanged.
    @pytest.mark.parametrize("k", [2, 4, 16])
    @pytest.mark.parametrize("count", [channel.CHUNK, 7232, 1])
    def test_columns_are_unit_stride_and_hold_the_row_major_draw(self, count, k):
        params = channel.ChannelParams(tuple(1.0 / (i + 1) for i in range(k)))
        block = channel.sample_block(params, 17, 5, count)
        assert block.shape == (count, k)
        assert block.flags.f_contiguous
        for i in range(k):
            # unit stride; numpy counts a one-row column contiguous at any stride
            assert block[:, i].flags.c_contiguous
        assert_array_equal(block, row_major_draw(params, 17, 5, count))

    @pytest.mark.parametrize("k", [2, 4, 16])
    @pytest.mark.parametrize("count", [channel.CHUNK, 7232, 1])
    def test_zero_gains_are_redrawn_as_in_the_row_major_draw(self, count, k):
        # A mean gain of 1e-320 (subnormal) scales about 1 draw in 800 to
        # zero, so the redraw loop runs, here with zeros in every block.
        params = channel.ChannelParams((1.0,) * (k - 1) + (1e-320,))
        draw = channel.block_rng(17, 5).exponential(1.0, size=(channel.CHUNK, k))
        assert (draw * np.asarray(params.variances) == 0).any()
        block = channel.sample_block(params, 17, 5, count)
        assert block.flags.f_contiguous and (block > 0).all()
        assert_array_equal(block, row_major_draw(params, 17, 5, count))


class TestValidation:
    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            channel.ChannelParams(variances=(1.0, 0.0))
        with pytest.raises(ValueError):
            channel.ChannelParams(variances=(1.0, -0.5))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_a_mean_that_is_not_finite(self, at, bad):
        lams = [1.0, 0.5, 0.25]
        lams[at] = bad
        with pytest.raises(ValueError, match="variances must be positive and finite"):
            channel.ChannelParams(tuple(lams))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            channel.ChannelParams(variances=())

    def test_rejects_oversized_count(self):
        with pytest.raises(ValueError):
            channel.sample_block(PARAMS, 0, 0, count=channel.CHUNK + 1)
        with pytest.raises(ValueError):
            channel.sample_block(PARAMS, 0, 0, count=0)

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            channel.sample_block(PARAMS, 0, -1)
        with pytest.raises(ValueError):
            channel.sample_block(PARAMS, -1, 0)

    def test_param_count(self):
        # one column per receiver
        assert channel.sample_block(PARAMS, 0, 0, 5).shape == (5, 2)
        assert channel.sample_block(channel.ChannelParams((1.0, 0.5, 0.25)), 0, 0, 5).shape == (5, 3)
