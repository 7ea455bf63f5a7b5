"""Power allocation: closed form, feasibility function, K-user bisection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import grid_min_rate, random_triples
from nomafb import alloc, evaluator, quantizer


def two_user_rates(hs, hw, a, p):
    r_strong = np.log2(1.0 + p * a * hs)
    r_weak = np.log2(1.0 + p * hw * (1.0 - a) / (p * hw * a + 1.0))
    return r_strong, r_weak


class TestTwoUserClosedForm:
    def test_symmetric_unit_case(self):
        # equal gains at p=3 split exactly 1/3 each way and hit rate 1
        a = alloc.optimal_alpha_two_user(1.0, 1.0, 3.0)
        assert_allclose(a, 1.0 / 3.0, rtol=1e-12)
        assert_allclose(alloc.max_min_rate_two_user(1.0, 1.0, 3.0), 1.0, rtol=1e-12)

    def test_equalizes_rates(self):
        rng = np.random.default_rng(101)
        h1, h2, p = random_triples(2000, rng)
        hs, hw = np.maximum(h1, h2), np.minimum(h1, h2)
        a = alloc.optimal_alpha_two_user(hs, hw, p)
        r_strong, r_weak = two_user_rates(hs, hw, a, p)
        assert_allclose(r_strong, r_weak, rtol=1e-9, atol=1e-12)

    def test_strong_user_never_gets_majority(self):
        rng = np.random.default_rng(102)
        h1, h2, p = random_triples(2000, rng)
        a = alloc.optimal_alpha_two_user(np.maximum(h1, h2), np.minimum(h1, h2), p)
        assert np.all(a <= 0.5 + 1e-12)
        assert np.all(a > 0.0)

    def test_low_power_limit(self):
        # as p -> 0 the split tends to hw / (hs + hw)
        assert_allclose(alloc.optimal_alpha_two_user(3.0, 1.0, 1e-9), 0.25, atol=1e-6)

    def test_high_power_limit(self):
        assert alloc.optimal_alpha_two_user(2.0, 1.0, 1e12) < 1e-5

    def test_rejects_misordered_gains(self):
        with pytest.raises(ValueError):
            alloc.optimal_alpha_two_user(0.5, 1.0, 10.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            alloc.optimal_alpha_two_user(1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            alloc.max_min_rate_two_user(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            alloc.max_min_rate_two_user(1.0, -1.0, 2.0)

    def test_order_symmetric(self):
        rng = np.random.default_rng(103)
        h1, h2, p = random_triples(500, rng)
        assert_allclose(
            alloc.max_min_rate_two_user(h1, h2, p),
            alloc.max_min_rate_two_user(h2, h1, p),
            rtol=0,
            atol=0,
        )

    def test_matches_grid_search(self):
        # independent brute-force oracle on a fine split grid
        rng = np.random.default_rng(104)
        h1, h2, p = random_triples(300, rng)
        for i in range(300):
            hs, hw = max(h1[i], h2[i]), min(h1[i], h2[i])
            a_grid, r_grid = grid_min_rate(h1[i], h2[i], p[i])
            a = alloc.optimal_alpha_two_user(hs, hw, p[i])
            r = alloc.max_min_rate_two_user(h1[i], h2[i], p[i])
            assert r >= r_grid - 1e-6
            assert abs(a - a_grid) <= 1e-4


class TestSicSnr:
    def test_rate_consistency(self):
        rng = np.random.default_rng(105)
        h1, h2, p = random_triples(2000, rng)
        snr = alloc.sic_snr(np.maximum(h1, h2), np.minimum(h1, h2), p)
        assert_allclose(
            np.log2(1.0 + p * snr), alloc.max_min_rate_two_user(h1, h2, p), rtol=1e-12
        )

    def test_bounded_by_weaker_gain(self):
        rng = np.random.default_rng(106)
        h1, h2, p = random_triples(2000, rng)
        snr = alloc.sic_snr(h1, h2, p)
        assert np.all(snr <= np.minimum(h1, h2) + 1e-12)

    def test_better_order_decodes_strong_last(self):
        rng = np.random.default_rng(107)
        h1, h2, p = random_triples(2000, rng)
        hs, hw = np.maximum(h1, h2), np.minimum(h1, h2)
        assert np.all(alloc.sic_snr(hs, hw, p) >= alloc.sic_snr(hw, hs, p) - 1e-15)

    def test_equal_gain_closed_form(self):
        # with x == y the equivalent SNR collapses to x / (sqrt(1+xp) + 1)
        for x, p in [(1.0, 3.0), (0.2, 50.0), (4.0, 0.7)]:
            assert_allclose(
                alloc.sic_snr(x, x, p), x / (math.sqrt(1.0 + x * p) + 1.0), rtol=1e-12
            )


class TestVarpi:
    def test_zero_rate(self):
        assert alloc.varpi(0.0, np.array([2.0, 1.0, 0.5]), 10.0) == 0.0

    def test_single_receiver_root(self):
        h, p = 0.7, 12.0
        r = math.log2(1.0 + p * h)
        assert_allclose(alloc.varpi(r, np.array([h]), p), 1.0, rtol=1e-12)

    def test_two_receiver_root_is_closed_form(self):
        rng = np.random.default_rng(108)
        h1, h2, p = random_triples(500, rng)
        for i in range(500):
            gd = np.sort([h1[i], h2[i]])[::-1]
            r = alloc.max_min_rate_two_user(h1[i], h2[i], p[i])
            assert abs(alloc.varpi(r, gd, p[i]) - 1.0) < 1e-9

    def test_strictly_increasing(self):
        gd = np.array([1.5, 0.8, 0.2])
        vals = [alloc.varpi(r, gd, 5.0) for r in np.linspace(0.0, 2.0, 40)]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_unsorted_gains(self):
        with pytest.raises(ValueError):
            alloc.varpi(1.0, np.array([0.5, 1.0]), 5.0)


class TestAllocFromRate:
    def test_zero_rate_gives_zero_power(self):
        out = alloc.alloc_from_rate(0.0, np.array([2.0, 1.0]), 10.0)
        assert_allclose(out, 0.0, atol=0)

    def test_achieves_exactly_the_target_rate(self):
        rng = np.random.default_rng(109)
        for _ in range(200):
            k = rng.integers(2, 6)
            gd = np.sort(rng.exponential(1.0, k))[::-1]
            p = 10.0 ** rng.uniform(-1, 3)
            r = 0.5 * alloc.max_min_rate_two_user(gd[0], gd[-1], p)
            a = alloc.alloc_from_rate(r, gd, p)
            rates = alloc.sic_rates(a, gd, p)
            assert_allclose(rates, r, rtol=1e-9, atol=1e-12)

    def test_two_user_matches_closed_form_alpha(self):
        rng = np.random.default_rng(110)
        h1, h2, p = random_triples(300, rng)
        for i in range(300):
            gd = np.sort([h1[i], h2[i]])[::-1]
            r = alloc.max_min_rate_two_user(h1[i], h2[i], p[i])
            a = alloc.alloc_from_rate(r, gd, p[i])
            a_star = alloc.optimal_alpha_two_user(gd[0], gd[1], p[i])
            assert abs(a[0] - a_star) < 1e-8
            assert abs(a.sum() - 1.0) < 1e-8

    def test_power_fractions_increase_with_weakness(self):
        gd = np.array([3.0, 1.0, 0.4, 0.1])
        a = alloc.alloc_from_rate(0.3, gd, 8.0)
        assert np.all(np.diff(a) > 0)


class TestSolver:
    def test_two_user_matches_closed_form(self):
        rng = np.random.default_rng(111)
        h1, h2, p = random_triples(300, rng)
        for i in range(300):
            res = alloc.solve_max_min_k(np.array([h1[i], h2[i]]), p[i], eps=1e-9)
            r_ref = alloc.max_min_rate_two_user(h1[i], h2[i], p[i])
            assert abs(res.r_max - r_ref) <= 1e-8

    def test_iteration_count_formula(self):
        gains = np.array([1.3, 0.6, 0.25, 0.11])
        for p, eps in [(10.0, 1e-4), (100.0, 1e-6), (0.5, 1e-3)]:
            res = alloc.solve_max_min_k(gains, p, eps=eps)
            r_ub = math.log2(1.0 + p * gains.min())
            assert res.iterations == math.ceil(math.log2(r_ub / eps))
            assert res.iterations <= alloc.ITERATION_CAP

    def test_equal_rates_at_solution(self):
        rng = np.random.default_rng(112)
        for _ in range(200):
            gains = rng.exponential(1.0, 4) / np.arange(1.0, 5.0)
            p = 10.0 ** rng.uniform(-1, 3)
            res = alloc.solve_max_min_k(gains, p, eps=1e-4)
            gd = gains[res.allocation.order]
            rates = alloc.sic_rates(res.allocation.alphas, gd, p)
            assert rates.max() - rates.min() <= 1e-9
            assert_allclose(rates, res.r_max, rtol=1e-9, atol=1e-12)
            assert res.allocation.alphas.sum() <= 1.0 + 1e-12

    def test_solution_is_on_the_feasible_side(self):
        # the root sits within eps above the returned rate
        rng = np.random.default_rng(113)
        for _ in range(100):
            gains = rng.exponential(1.0, 3)
            p = 10.0 ** rng.uniform(0, 2)
            eps = 1e-6
            res = alloc.solve_max_min_k(gains, p, eps=eps)
            gd = np.sort(gains)[::-1]
            assert alloc.varpi(res.r_max, gd, p) <= 1.0
            assert alloc.varpi(res.r_max + eps, gd, p) >= 1.0 - 1e-7

    def test_order_sorts_gains_descending(self):
        gains = np.array([0.4, 2.0, 1.1])
        res = alloc.solve_max_min_k(gains, 10.0, eps=1e-6)
        assert np.all(np.diff(gains[res.allocation.order]) <= 0)
        assert sorted(res.allocation.order.tolist()) == [0, 1, 2]

    def test_residual_definition(self):
        gains = np.array([1.0, 0.5])
        res = alloc.solve_max_min_k(gains, 10.0, eps=1e-6)
        gd = np.sort(gains)[::-1]
        assert_allclose(res.residual, abs(alloc.varpi(res.r_max, gd, 10.0) - 1.0))

    def test_monotone_in_power(self):
        gains = np.array([1.0, 0.3, 0.1])
        r = [alloc.solve_max_min_k(gains, p, eps=1e-8).r_max for p in (1.0, 5.0, 25.0)]
        assert r[0] < r[1] < r[2]

    def test_degenerate_low_power_returns_zero(self):
        res = alloc.solve_max_min_k(np.array([1e-12, 1e-13]), 1.0, eps=1e-4)
        assert res.r_max == 0.0
        assert res.iterations == 0

    def test_iteration_cap_enforced(self):
        with pytest.raises(RuntimeError):
            alloc.batch_max_min_rate(np.array([[1.0, 0.5]]), 10.0, eps=1e-30)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            alloc.batch_max_min_rate(np.array([1.0, 0.5]), 10.0, eps=1e-4)
        with pytest.raises(ValueError):
            alloc.batch_max_min_rate(np.array([[1.0, -0.5]]), 10.0, eps=1e-4)
        with pytest.raises(ValueError):
            alloc.batch_max_min_rate(np.array([[1.0, 0.5]]), 10.0, eps=0.0)


def _parent_varpi_rows(r, gains_desc, p):
    k = gains_desc.shape[1]
    expo = np.arange(k - 1, -1, -1, dtype=np.float64)
    powers = 2.0 ** (r[:, None] * expo[None, :])
    return (2.0 ** r - 1.0) * np.sum(powers / (p * gains_desc), axis=1)


def _parent_batch_max_min_rate(g, p, eps):
    """The bisection as first written, before its kernel was sped up; kept as
    the reference that the fast kernel must match bit for bit."""
    r_ub = np.log2(1.0 + p * g[:, -1])
    top = float(r_ub.max())
    if top <= eps:
        return np.zeros(g.shape[0]), 0
    n_iter = math.ceil(math.log2(top / eps))
    lo = np.zeros(g.shape[0])
    hi = r_ub.copy()
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        feasible = _parent_varpi_rows(mid, g, p) < 1.0
        lo = np.where(feasible, mid, lo)
        hi = np.where(feasible, hi, mid)
    return lo, n_iter


class TestBatchBitExact:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_reference_bisection(self, k):
        rng = np.random.default_rng(600 + k)
        gains = 10.0 ** rng.uniform(-6.0, 3.0, (400, k))
        gains[:20] = gains[:20, :1]  # rows of equal gains
        desc = np.sort(gains, axis=1)[:, ::-1]
        # The drivers pass negative-stride views; solve_max_min_k passes one row.
        for g in (desc, np.ascontiguousarray(desc), desc[:1]):
            for p_db in (-10.0, 0.0, 17.0, 40.0):
                p = 10.0 ** (p_db / 10.0)
                rates = rng.uniform(0.0, 1.2, g.shape[0]) * np.log2(1.0 + p * g[:, -1])
                pg_cols = list(np.ascontiguousarray((p * g).T))
                assert np.array_equal(alloc._varpi_rows(rates, pg_cols),
                                      _parent_varpi_rows(rates, g, p))
                for eps in (1e-2, 1e-4, 1e-6, 1e-8):
                    want_r, want_iter = _parent_batch_max_min_rate(g, p, eps)
                    r, iters = alloc.batch_max_min_rate(g, p, eps)
                    assert iters == want_iter
                    assert np.array_equal(r, want_r), (k, p_db, eps)

    def test_row_sum_matches_numpy_order(self):
        rng = np.random.default_rng(77)
        for k in list(range(1, 40)) + [127, 128, 129, 200, 300]:
            t = rng.exponential(1.0, (50, k)) * 10.0 ** rng.uniform(-8.0, 8.0, (50, k))
            got = alloc._row_sum(list(np.ascontiguousarray(t.T)))
            assert np.array_equal(got, np.sum(t, axis=1)), k


def rate_k(alphas, gains_desc, p, k):
    """Rate of the k-th receiver (1-based) under SIC in descending-gain order,
    from the definition: receivers 1..k-1 decode after it and interfere."""
    interference = alphas[: k - 1].sum()
    return math.log2(1.0 + alphas[k - 1] / (interference + 1.0 / (p * gains_desc[k - 1])))


class TestRateHelpers:
    def test_rate_k_matches_sic_rates(self):
        gd = np.array([2.0, 1.0, 0.5])
        a = np.array([0.1, 0.3, 0.6])
        rates = alloc.sic_rates(a, gd, 12.0)
        for k in (1, 2, 3):
            assert_allclose(rate_k(a, gd, 12.0, k), rates[k - 1], rtol=1e-12)


class TestTdma:
    def test_symmetric_case(self):
        assert_allclose(alloc.tdma_min_rate(np.array([1.0, 1.0]), 3.0), 1.0, rtol=1e-12)

    def test_single_receiver(self):
        assert_allclose(alloc.tdma_min_rate(np.array([0.5]), 2.0), 1.0, rtol=1e-12)

    def test_rows(self):
        g = np.array([[1.0, 0.5], [2.0, 2.0]])
        out = alloc.tdma_min_rate(g, 10.0)
        assert_allclose(out[0], math.log2(6.0) / 2.0, rtol=1e-12)
        assert_allclose(out[1], math.log2(21.0) / 2.0, rtol=1e-12)

    def test_noma_beats_tdma_with_disparate_gains(self):
        r_noma = alloc.max_min_rate_two_user(2.0, 0.5, 10.0)
        r_tdma = alloc.tdma_min_rate(np.array([2.0, 0.5]), 10.0)
        assert r_noma > r_tdma


# Hypothesis drives the two-user kernel that the experiment drivers call.
# Gains and powers stay in ranges where float64 neither overflows nor loses
# the split to rounding; derandomized, so every run checks the same draws.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
gain = st.floats(1e-4, 1e3)
power = st.floats(1e-3, 1e6)
bin_size = st.floats(1e-3, 0.9)


class TestTwoUserKernelProperties:
    @PROPERTY
    @given(gain, gain, power)
    def test_equal_adapted_rates_on_live_rows(self, x, y, p):
        qs, qw = max(x, y), min(x, y)
        r_strong, r_weak = alloc.two_user_rates(alloc.equal_rate_split(qs, qw, p), qs, qw, p)
        assert_allclose(r_strong, r_weak, rtol=1e-9, atol=1e-12)

    @PROPERTY
    @given(st.floats(0.0, 1e3), st.floats(0.0, 1e3), power)
    def test_split_lies_in_unit_interval(self, x, y, p):
        a = alloc.equal_rate_split(max(x, y), min(x, y), p)
        assert 0.0 <= a <= 1.0

    @PROPERTY
    @given(st.integers(0, 10**6), bin_size, power)
    def test_dead_rows_get_nothing_and_warn_nothing(self, level, delta, p):
        # A dead row: the weak receiver fed back level 0, the strong any level.
        q = np.array([level * delta, 0.0])
        with np.errstate(all="raise"):
            a = alloc.equal_rate_split(q, np.zeros(2), p)
            rates = alloc.two_user_rates(a, q, np.zeros(2), p)
        assert np.array_equal(a, [0.0, 0.0])
        assert np.array_equal(rates, np.zeros((2, 2)))

    @PROPERTY
    @given(gain, gain, power, bin_size)
    def test_lower_edge_rates_decode_on_true_gains(self, h1, h2, p, delta):
        t = quantizer.default_t_rate(delta)
        q1 = quantizer.rate_levels(h1, delta, t) * delta
        q2 = quantizer.rate_levels(h2, delta, t) * delta
        if q1 >= q2:
            assert evaluator.achievable_check(h1, h2, q1, q2, p)
        else:
            assert evaluator.achievable_check(h2, h1, q2, q1, p)

    @PROPERTY
    @given(gain, gain, power, bin_size, st.floats(0.01, 8.0))
    def test_full_csi_outage_implies_quantized_outage(self, h1, h2, p, delta, r_th):
        beta = 2.0**r_th - 1.0
        t = quantizer.default_t_outage(delta)
        q1 = quantizer.outage_levels(h1, delta, t) * delta
        q2 = quantizer.outage_levels(h2, delta, t) * delta
        out_q = alloc.outage_conditions(h1, h2, q1, q2, p, beta)[0]
        out_full = p * alloc.sic_snr(max(h1, h2), min(h1, h2), p) < beta
        assert out_q or not out_full
