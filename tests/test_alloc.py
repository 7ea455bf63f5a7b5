"""Power allocation: closed form, feasibility function, K-user bisection."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special

from conftest import achievable_check, grid_min_rate, quantized_outage, random_triples, varpi
from nomafb import alloc, channel, harness, quantizer


def two_user_rates(hs, hw, a, p):
    r_strong = np.log2(1.0 + p * a * hs)
    r_weak = np.log2(1.0 + p * hw * (1.0 - a) / (p * hw * a + 1.0))
    return r_strong, r_weak


class TestTwoUserClosedForm:
    def test_symmetric_unit_case(self):
        # equal gains at p=3 split exactly 1/3 each way and hit rate 1
        a = alloc.equal_rate_split(1.0, 1.0, 3.0)
        assert_allclose(a, 1.0 / 3.0, rtol=1e-12)
        assert_allclose(alloc.max_min_rate_two_user(1.0, 1.0, 3.0), 1.0, rtol=1e-12)

    def test_equalizes_rates(self):
        rng = np.random.default_rng(101)
        h1, h2, p = random_triples(2000, rng)
        hs, hw = np.maximum(h1, h2), np.minimum(h1, h2)
        a = alloc.equal_rate_split(hs, hw, p)
        r_strong, r_weak = two_user_rates(hs, hw, a, p)
        assert_allclose(r_strong, r_weak, rtol=1e-9, atol=1e-12)

    def test_strong_user_never_gets_majority(self):
        rng = np.random.default_rng(102)
        h1, h2, p = random_triples(2000, rng)
        a = alloc.equal_rate_split(np.maximum(h1, h2), np.minimum(h1, h2), p)
        assert np.all(a <= 0.5 + 1e-12)
        assert np.all(a > 0.0)

    def test_low_power_limit(self):
        # as p -> 0 the split tends to hw / (hs + hw)
        assert_allclose(alloc.equal_rate_split(3.0, 1.0, 1e-9), 0.25, atol=1e-6)

    def test_high_power_limit(self):
        assert alloc.equal_rate_split(2.0, 1.0, 1e12) < 1e-5

    def test_rejects_misordered_gains(self):
        with pytest.raises(ValueError):
            alloc.equal_rate_split(0.5, 1.0, 10.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            alloc.equal_rate_split(1.0, -1.0, 10.0)
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
            a = alloc.equal_rate_split(hs, hw, p[i])
            r = alloc.max_min_rate_two_user(h1[i], h2[i], p[i])
            assert r >= r_grid - 1e-6
            assert abs(a - a_grid) <= 1e-4


# Each public function that takes p, called on valid gains with the given p.
POWER_CALLS = {
    "sic_snr": lambda p: alloc.sic_snr(1.0, 0.5, p),
    "equal_rate_split": lambda p: alloc.equal_rate_split(1.0, 0.5, p),
    "two_user_rates": lambda p: alloc.two_user_rates(0.3, 1.0, 0.5, p),
    "outage_conditions": lambda p: alloc.outage_conditions(1.0, 0.5, 0.3, True, p, 1.0),
    "max_min_rate_two_user": lambda p: alloc.max_min_rate_two_user(1.0, 0.5, p),
    "sic_rates": lambda p: alloc.sic_rates([0.3, 0.7], [1.0, 0.5], p),
    "alloc_from_rate": lambda p: alloc.alloc_from_rate(1.0, [1.0, 0.5], p),
    "batch_max_min_rate": lambda p: alloc.batch_max_min_rate(np.array([[1.0, 0.5]]), p, 1e-4),
    "outage_floor": lambda p: alloc.outage_floor(p, 1.0, 0.01, 100),
}
# The two-user kernels take an array p elementwise, as random_triples draws it.
ARRAY_POWER = ("sic_snr", "equal_rate_split", "two_user_rates", "outage_conditions",
               "max_min_rate_two_user")


class TestPowerRule:
    """Every function that takes p refuses the same powers with the same words."""

    def test_every_function_taking_p_is_listed(self):
        takes_p = {name for name, f in vars(alloc).items() if inspect.isfunction(f)
                   and not name.startswith("_") and "p" in inspect.signature(f).parameters}
        assert takes_p == set(POWER_CALLS)

    @pytest.mark.parametrize("p", [0.0, -1.0, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", sorted(POWER_CALLS))
    def test_refuses_a_power_that_is_not_positive_and_finite(self, name, p):
        POWER_CALLS[name](10.0)
        with pytest.raises(ValueError, match="p must be positive and finite"):
            POWER_CALLS[name](p)

    @pytest.mark.parametrize("name", ARRAY_POWER)
    def test_checks_an_array_power_elementwise(self, name):
        _, _, p = random_triples(50, np.random.default_rng(105))
        POWER_CALLS[name](p)
        POWER_CALLS[name](np.array([]))
        for bad in (0.0, np.inf, np.nan):
            q = p.copy()
            q[7] = bad
            with pytest.raises(ValueError, match="p must be positive and finite"):
                POWER_CALLS[name](q)


# Each per-chunk input check of the two-user kernel, as (call that feeds x to
# the checked argument, a value the check accepts, one it rejects). A check
# reads x once, yet must accept and reject exactly what np.any(x < c) did:
# empty arrays and NaN pass, and a NaN beside a bad value does not hide it.
KERNEL_CHECKS = {
    "split_weak_gain": (lambda x: alloc.equal_rate_split(np.full_like(x, 2.0), x, 1.0), 0.5, -0.5),
    "split_order": (lambda x: alloc.equal_rate_split(x, np.ones_like(x), 1.0), 2.0, 0.5),
    "rates_alpha_low": (lambda x: alloc.two_user_rates(x, 1.0, 0.5, 1.0), 0.25, -0.1),
    "rates_alpha_high": (lambda x: alloc.two_user_rates(x, 1.0, 0.5, 1.0), 0.25, 1.5),
    "max_min_h1": (lambda x: alloc.max_min_rate_two_user(x, np.ones_like(x), 1.0), 0.25, 0.0),
    "max_min_h2": (lambda x: alloc.max_min_rate_two_user(np.ones_like(x), x, 1.0), 0.25, -1.0),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CHECKS))
class TestKernelInputChecks:
    def test_accepts_empty(self, name):
        call, _, _ = KERNEL_CHECKS[name]
        result = call(np.array([]))
        assert all(np.size(r) == 0 for r in (result if isinstance(result, tuple) else (result,)))

    def test_accepts_nan(self, name):
        call, good, _ = KERNEL_CHECKS[name]
        call(np.array([np.nan, good]))
        call(np.array([np.nan]))

    def test_rejects_a_bad_value_beside_nan(self, name):
        call, good, bad = KERNEL_CHECKS[name]
        for x in ([bad], [good, bad], [np.nan, bad], [bad, np.nan]):
            with pytest.raises(ValueError):
                call(np.array(x))


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


def varpi_rows(r, gains_desc, p):
    """The bisection's feasibility function at one rate and one gain vector."""
    pg = p * np.asarray(gains_desc, dtype=np.float64)[:, None]
    return float(alloc._varpi_rows(np.array([r]), pg)[0])


class TestVarpi:
    def test_zero_rate(self):
        assert varpi_rows(0.0, np.array([2.0, 1.0, 0.5]), 10.0) == 0.0

    def test_single_receiver_root(self):
        h, p = 0.7, 12.0
        r = math.log2(1.0 + p * h)
        assert_allclose(varpi_rows(r, np.array([h]), p), 1.0, rtol=1e-12)

    def test_two_receiver_root_is_closed_form(self):
        rng = np.random.default_rng(108)
        h1, h2, p = random_triples(500, rng)
        for i in range(500):
            gd = np.sort([h1[i], h2[i]])[::-1]
            r = alloc.max_min_rate_two_user(h1[i], h2[i], p[i])
            assert abs(varpi_rows(r, gd, p[i]) - 1.0) < 1e-9

    def test_strictly_increasing(self):
        gd = np.array([1.5, 0.8, 0.2])
        vals = [varpi_rows(r, gd, 5.0) for r in np.linspace(0.0, 2.0, 40)]
        assert np.all(np.diff(vals) > 0)
        # the summed closed form agrees with the receiver-by-receiver definition
        assert_allclose(vals, [varpi(r, gd, 5.0) for r in np.linspace(0.0, 2.0, 40)],
                        rtol=1e-12)


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
            a_star = alloc.equal_rate_split(gd[0], gd[1], p[i])
            assert abs(a[0] - a_star) < 1e-8
            assert abs(a.sum() - 1.0) < 1e-8

    def test_a_scalar_rate_serves_every_row(self):
        # r broadcasts against the leading axes of the gains: one rate for n
        # rows splits each row as n copies of it do.
        rng = np.random.default_rng(111)
        gd = np.sort(rng.exponential(1.0, (50, 3)), axis=1)[:, ::-1]
        for r in (0.0, 0.7, np.float64(1.3)):
            got = alloc.alloc_from_rate(r, gd, 10.0)
            assert_array_equal(got, alloc.alloc_from_rate(np.full(50, r), gd, 10.0))
        assert_array_equal(alloc.alloc_from_rate(1.0, np.array([[2.0, 1.0]]), 10.0),
                           alloc.alloc_from_rate([1.0], np.array([[2.0, 1.0]]), 10.0))

    def test_power_fractions_increase_with_weakness(self):
        gd = np.array([3.0, 1.0, 0.4, 0.1])
        a = alloc.alloc_from_rate(0.3, gd, 8.0)
        assert np.all(np.diff(a) > 0)


def solve_one(gains, p, eps):
    """(max-min rate, iterations) of the bisection on one gain vector."""
    r, iterations = alloc.batch_max_min_rate(np.sort(gains)[None, ::-1], p, eps)
    return float(r[0]), iterations


class TestSolver:
    def test_two_user_matches_closed_form(self):
        rng = np.random.default_rng(111)
        h1, h2, p = random_triples(300, rng)
        for i in range(300):
            r, _ = solve_one(np.array([h1[i], h2[i]]), p[i], eps=1e-9)
            r_ref = alloc.max_min_rate_two_user(h1[i], h2[i], p[i])
            assert abs(r - r_ref) <= 1e-8

    def test_iteration_count_formula(self):
        gains = np.array([1.3, 0.6, 0.25, 0.11])
        for p, eps in [(10.0, 1e-4), (100.0, 1e-6), (0.5, 1e-3)]:
            _, iterations = solve_one(gains, p, eps=eps)
            r_ub = math.log2(1.0 + p * gains.min())
            assert iterations == math.ceil(math.log2(r_ub / eps))
            assert iterations <= alloc.ITERATION_CAP

    def test_equal_rates_at_solution(self):
        rng = np.random.default_rng(112)
        for _ in range(200):
            gains = rng.exponential(1.0, 4) / np.arange(1.0, 5.0)
            p = 10.0 ** rng.uniform(-1, 3)
            r, _ = solve_one(gains, p, eps=1e-4)
            gd = np.sort(gains)[::-1]
            alphas = alloc.alloc_from_rate(r, gd, p)
            rates = alloc.sic_rates(alphas, gd, p)
            assert rates.max() - rates.min() <= 1e-9
            assert_allclose(rates, r, rtol=1e-9, atol=1e-12)
            assert alphas.sum() <= 1.0 + 1e-12

    def test_solution_is_on_the_feasible_side(self):
        # the root sits within eps above the returned rate
        rng = np.random.default_rng(113)
        for _ in range(100):
            gains = rng.exponential(1.0, 3)
            p = 10.0 ** rng.uniform(0, 2)
            eps = 1e-6
            r, _ = solve_one(gains, p, eps=eps)
            gd = np.sort(gains)[::-1]
            assert varpi(r, gd, p) <= 1.0
            assert varpi(r + eps, gd, p) >= 1.0 - 1e-7

    def test_monotone_in_power(self):
        gains = np.array([1.0, 0.3, 0.1])
        r = [solve_one(gains, p, eps=1e-8)[0] for p in (1.0, 5.0, 25.0)]
        assert r[0] < r[1] < r[2]

    def test_degenerate_low_power_returns_zero(self):
        assert solve_one(np.array([1e-12, 1e-13]), 1.0, eps=1e-4) == (0.0, 0)

    @pytest.mark.parametrize("p", [1.0, 10.0 ** (harness.P_DB_MAX / 10.0)])
    def test_the_least_config_eps_fits_the_cap(self, p):
        # The largest finite p g puts r_ub just under 2^10, so at the least
        # eps ExperimentConfig accepts, 2^10 / 2^ITERATION_CAP, the bisection
        # takes exactly ITERATION_CAP steps.
        g = np.full((1, 3), np.finfo(np.float64).max / p)
        r, iterations = alloc.batch_max_min_rate(g, p, 2.0**10 / 2.0**alloc.ITERATION_CAP)
        assert iterations == alloc.ITERATION_CAP and 0.0 < r[0] < 2.0**10

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
        # non-finite input fails with a ValueError that names it
        ok = np.array([[1.0, 0.5]])
        for gains in ([[1.0, 0.5], [np.nan, np.nan]], [[1.0, np.nan]], [[1.0, np.inf]],
                      [[np.inf, 0.5]]):
            with pytest.raises(ValueError, match="gains must be positive and finite"):
                alloc.batch_max_min_rate(np.array(gains), 10.0, eps=1e-4)
        for p in (np.inf, np.nan):
            with pytest.raises(ValueError, match="p must be positive and finite"):
                alloc.batch_max_min_rate(ok, p, eps=1e-4)
        for eps in (np.inf, np.nan):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                alloc.batch_max_min_rate(ok, 10.0, eps=eps)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
            alloc.batch_max_min_rate(ok * 1e300, 1e300, eps=1e-4)


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
    @pytest.mark.parametrize("k", [*range(1, 11), 64])
    def test_matches_reference_bisection(self, k):
        rng = np.random.default_rng(600 + k)
        gains = 10.0 ** rng.uniform(-6.0, 3.0, (400, k))
        gains[:20] = gains[:20, :1]  # rows of equal gains
        desc = np.sort(gains, axis=1)[:, ::-1]
        # The drivers pass negative-stride views of many rows, or of one.
        for g in (desc, np.ascontiguousarray(desc), desc[:1]):
            for p_db in (-1000.0, -10.0, 0.0, 17.0, 40.0, 1000.0):
                p = 10.0 ** (p_db / 10.0)
                rates = rng.uniform(0.0, 1.2, g.shape[0]) * np.log2(1.0 + p * g[:, -1])
                pg = np.ascontiguousarray((p * g).T)
                # the references overflow to +inf, silently, as the solver does
                with np.errstate(over="ignore"):
                    assert np.array_equal(alloc._varpi_rows(rates, pg),
                                          _parent_varpi_rows(rates, g, p))
                for eps in (1e-2, 1e-4, 1e-6, 1e-8):
                    with np.errstate(over="ignore"):
                        want_r, want_iter = _parent_batch_max_min_rate(g, p, eps)
                    r, iters = alloc.batch_max_min_rate(g, p, eps)
                    assert iters == want_iter
                    assert np.array_equal(r, want_r), (k, p_db, eps)

    @pytest.mark.parametrize("k", [*range(1, 11), 16, 31, 32, 33, 64])
    def test_fallback_bits_do_not_depend_on_the_rows_it_gets(self, k):
        # The solver hands _varpi_rows only the rows near the root, any
        # number of them: each row must get the bits it gets in a full block.
        rng = np.random.default_rng(700 + k)
        n = channel.CHUNK
        desc = np.sort(10.0 ** rng.uniform(-3.0, 3.0, (n, k)), axis=1)[:, ::-1]
        for p_db in (-30.0, 0.0, 40.0):
            p = 10.0 ** (p_db / 10.0)
            rates = rng.uniform(0.0, 1.2, n) * np.log2(1.0 + p * desc[:, -1])
            pg = np.ascontiguousarray((p * desc).T)
            full = alloc._varpi_rows(rates, pg)
            assert np.array_equal(full, _parent_varpi_rows(rates, desc, p))
            for rows in (rng.choice(n, m, replace=False) for m in (1, 3, 50, n)):
                got = alloc._varpi_rows(rates[rows], pg[:, rows])
                assert np.array_equal(got, full[rows]), (k, p_db, len(rows))
                assert np.array_equal(got, _parent_varpi_rows(rates[rows], desc[rows], p))


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

    @pytest.mark.parametrize("k", [1, 2, 4, 9, 64])
    def test_interference_is_the_cumsum_bit_for_bit(self, k):
        # sic_rates sums the interference a column at a time; the result must
        # be the np.cumsum form's, on rows of fractions and on one row.
        rng = np.random.default_rng(k)
        a = rng.dirichlet(np.ones(k), 1000) * rng.uniform(0.5, 1.0, (1000, 1))
        g = np.sort(rng.exponential(1.0, (1000, k)), axis=1)[:, ::-1]
        for alphas, gains in ((a, g), (a[7], g[7])):
            want = np.log2(1.0 + alphas / (np.cumsum(alphas, axis=-1) - alphas
                                           + 1.0 / (3.0 * gains)))
            assert np.array_equal(alloc.sic_rates(alphas, gains, 3.0), want)


def minrate_points(variances, p_db, trials, seed=4):
    """{metric: MetricPoint} of one minrate sweep point."""
    cfg = harness.ExperimentConfig(kind="minrate", variances=variances, p_db=(p_db,),
                                   trials=trials, seed=seed)
    return {m.metric: m for m in harness.run_min_rate(cfg).points}


class TestTdma:
    # r_tdma is the drivers' TDMA column: each receiver gets half the time,
    # so the worst rate is log2(1 + p * min(h1, h2)) / 2.
    def test_symmetric_case(self):
        # min(h1, h2) is exponential with mean m = 1/2, and for X of mean m
        # E[ln(1 + p X)] = e^(1/(p m)) E1(1/(p m)).
        p, m = 3.0, 0.5
        point = minrate_points((1.0, 1.0), 10.0 * math.log10(p), 200_000)["r_tdma"]
        exact = 0.5 * math.exp(1.0 / (p * m)) * special.exp1(1.0 / (p * m)) / math.log(2.0)
        assert abs(point.value - exact) <= 4.0 * point.stderr

    def test_rows(self):
        pts = minrate_points((1.0, 0.5), 10.0, 2)
        g = channel.sample_block(channel.ChannelParams((1.0, 0.5)), 4, 0, 2)
        rows = [math.log2(1.0 + 10.0 * min(h1, h2)) / 2.0 for h1, h2 in g]
        assert_allclose(pts["r_tdma"].value, sum(rows) / 2.0, rtol=1e-12)
        assert pts["r_tdma"].n == 2

    def test_noma_beats_tdma_with_disparate_gains(self):
        pts = minrate_points((1.0, 0.1), 10.0, 20_000)
        assert pts["r_full"].value > pts["r_tdma"].value


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
    @given(st.lists(st.tuples(st.floats(0.0, 1e60, exclude_min=True),
                              st.floats(0.0, 1e60, exclude_min=True)), min_size=1, max_size=8),
           st.floats(-100.0, 100.0))
    def test_unchecked_core_has_the_checked_splits_bits(self, pairs, p_db):
        # The quantized outage test splits fed-back upper-edge gains, never 0,
        # by alloc._served_split, equal_rate_split's core without its checks.
        g = np.array(pairs)
        gs, gw, p = g.max(axis=1), g.min(axis=1), 10.0 ** (p_db / 10.0)
        assert_array_equal(alloc._served_split(gs, gw, p).view(np.int64),
                           alloc.equal_rate_split(gs, gw, p).view(np.int64))

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
            assert achievable_check(h1, h2, q1, q2, p)
        else:
            assert achievable_check(h2, h1, q2, q1, p)

    @PROPERTY
    @given(gain, gain, power, bin_size, st.floats(0.01, 8.0))
    def test_full_csi_outage_implies_quantized_outage(self, h1, h2, p, delta, r_th):
        beta = 2.0**r_th - 1.0
        t = quantizer.default_t_outage(delta)
        q1 = quantizer.outage_levels(h1, delta, t) * delta
        q2 = quantizer.outage_levels(h2, delta, t) * delta
        out_q = quantized_outage(h1, h2, q1, q2, p, beta)[0]
        out_full = p * alloc.sic_snr(max(h1, h2), min(h1, h2), p) < beta
        assert out_q or not out_full


def _parent_outage_conditions(h1, h2, q1, q2, p, beta):
    """outage_conditions as first written, selecting the strong and weak
    gains with np.where; kept as the reference that the select-free kernel
    must match bit for bit."""
    rx1_strong = q1 >= q2
    qs = np.where(rx1_strong, q1, q2)
    qw = np.where(rx1_strong, q2, q1)
    a = alloc.equal_rate_split(qs, qw, p)
    hs = np.where(rx1_strong, h1, h2)
    hw = np.where(rx1_strong, h2, h1)
    bad_strong = p * a * hs < beta
    bad_weak = p * hw * (1.0 - a) < beta * (p * hw * a + 1.0)
    out_rx1 = np.where(rx1_strong, bad_strong, bad_weak)
    out_rx2 = np.where(rx1_strong, bad_weak, bad_strong)
    return bad_strong | bad_weak, out_rx1, out_rx2


class TestSelectFreeOutage:
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), power, bin_size, st.floats(0.01, 8.0))
    def test_masks_match_the_select_form(self, seed, p, delta, r_th):
        beta = 2.0**r_th - 1.0
        rng = np.random.default_rng(seed)
        h1, h2 = rng.exponential(1.0, 64), rng.exponential(0.5, 64)
        n1, n2 = rng.integers(0, 4, 64), rng.integers(0, 400, 64)
        n2[:32] = rng.integers(0, 4, 32)
        n2[:8] = n1[:8]  # ties, which receiver 1 wins
        n1[8:12] = n2[12:16] = 0  # dead rows: a weak level of 0, either receiver weak
        n2[16:18] = n1[16:18] = 0
        q1, q2 = n1 * delta, n2 * delta
        want = _parent_outage_conditions(h1, h2, q1, q2, p, beta)
        got = quantized_outage(h1, h2, q1, q2, p, beta)
        for w, g in zip(want, got):
            assert g.dtype == bool and np.array_equal(g, w)
        for i in range(0, 64, 4):  # scalar inputs, as Python floats
            args = (float(h1[i]), float(h2[i]), float(q1[i]), float(q2[i]), p, beta)
            scalar = [bool(g) for g in quantized_outage(*args)]
            assert scalar == [bool(w) for w in _parent_outage_conditions(*args)]
            assert scalar == [bool(w[i]) for w in want]

    def test_weak_threshold_is_strict(self):
        # A dead row (the weak receiver fed back 0) gives a = 0, so the weak
        # receiver's test is p h < beta: at p h = beta exactly it decodes,
        # whichever receiver is weak. The strong one, with no power, fails.
        for h, q, want in (((1.0, 0.25), (0.5, 0.0), [True, True, False]),
                           ((0.25, 1.0), (0.0, 0.5), [True, False, True])):
            got = [bool(x) for x in quantized_outage(*h, *q, 4.0, 1.0)]
            assert got == want
            assert got == [bool(x) for x in _parent_outage_conditions(*h, *q, 4.0, 1.0)]

    def test_roles_follow_the_fed_back_floats(self):
        # Levels 2^53 and 2^53 + 1 differ as ints but both feed back 2^52 at
        # delta 0.5: a tie of the fed-back gains, which receiver 1 wins. An
        # int compare of the levels would make receiver 2 strong and flip its
        # mask.
        block = np.array([[1e15, 3e15]])
        levels = np.array([[2**53, 2**53 + 1]], dtype=np.int64)
        q = levels * 0.5
        assert q[0, 0] == q[0, 1] == 2.0**52
        want = _parent_outage_conditions(block[:, 0], block[:, 1], q[:, 0], q[:, 1], 1e-15, 1.0)
        b = harness.Bin(0.5, (2**53,) * 2, (2**53,) * 2)
        assert harness._order_keys(levels, 0.5, 2**53 + 1).tolist() == [[0, 0]]
        got = harness._quantized_outage(block, levels, b, 1e-15, 1.0)
        assert [g.tolist() for g in got] == [w.tolist() for w in want] == [[True], [True], [False]]
        a = alloc.equal_rate_split(q[:, 0], q[:, 1], 1e-15)
        by_int = alloc.outage_conditions(block[:, 0], block[:, 1], a, levels[:, 0] >= levels[:, 1],
                                         1e-15, 1.0)
        assert by_int[2].tolist() == [True]


def _floor_bound(c, p, delta, top):
    """The bound alloc.outage_floor inverts, formed here by sic_snr: the
    equal SINR at the least fed-back gains max(delta, min(c, top delta)),
    times the least h/q: c/(c + delta), or 1 from top delta on, where every
    row is in the top bin."""
    q = max(delta, min(c, top * delta))
    return p * float(alloc.sic_snr(q, q, p)) * (1.0 if c >= top * delta else c / (c + delta))


class TestOutageFloor:
    """alloc.outage_floor(p, beta[, delta, top]): a row whose smaller gain is
    at or above it is in no outage, so the outage kernels test only the rows
    below it."""

    @PROPERTY
    @given(st.floats(-100.0, 100.0), st.floats(0.0, 512.0, exclude_min=True, exclude_max=True),
           st.floats(1e-4, 0.9), st.integers(0, 3), st.floats(1.0, 1e6))
    def test_rows_at_the_floor_are_in_no_outage(self, p_db, r_th, delta, ulps, spread):
        p = 10.0 ** (p_db / 10.0)
        beta = 2.0**r_th - 1.0
        t = quantizer.default_t_outage(delta)
        b = harness.Bin(delta, (t, t), (t, t))

        def at_floor(c):
            # the floor and a few ulps above it, never 0: gains are positive
            h = max(c, 5e-324)
            for _ in range(ulps):
                h = np.nextafter(h, math.inf)
            return h

        def both_orders(h, partners):
            rows = [(h, x) for x in partners if x >= h]
            return np.array(rows + [(x, y) for y, x in rows], order="F")

        c = alloc.outage_floor(p, beta)
        if c < 1e50:  # past it, sic_snr's own products overflow on these rows
            h = at_floor(c)
            block = both_orders(h, [h, np.nextafter(h, math.inf), h * (1 + 1e-9), h * spread])
            assert not harness._full_csi_outage(block, p, beta).any()

        c = alloc.outage_floor(p, beta, delta, t + 1)
        if c == math.inf:
            return
        h = at_floor(c)
        m = math.ceil(h / delta)
        # a level tie (h and its bin's upper edge), neighbouring bins, the
        # saturated top bin (a tie when h is in it too), and a spread of gains
        top = (t + 1) * delta
        block = both_orders(h, [h, m * delta, h + 0.5 * delta, h + delta, h * spread,
                                top, 2.0 * top, top * spread])
        levels = quantizer.outage_levels(block, delta, b.t_outage)
        masks = harness._quantized_outage(block, levels, b, p, beta)
        assert not any(mask.any() for mask in masks)
        # The strong receiver's SIC step, its SINR for the weak message, is
        # in no outage either, as the floor's docstring shows.
        q = levels * delta
        strong = (q[:, 1] > q[:, 0]).astype(int)[:, None]  # receiver 1 on a tie
        qs, qw = np.take_along_axis(q, strong, 1), np.take_along_axis(q, strong ^ 1, 1)
        a = alloc.equal_rate_split(qs, qw, p)
        hs = np.take_along_axis(block, strong, 1)
        assert not (p * hs * (1.0 - a) < beta * (p * hs * a + 1.0)).any()

    @PROPERTY
    @given(st.floats(-100.0, 100.0), st.floats(0.0, 512.0, exclude_min=True, exclude_max=True),
           st.floats(1e-4, 0.9))
    def test_the_floor_is_the_least_gain_its_bound_clears(self, p_db, r_th, delta):
        # The bound reaches beta (1 + 1e-6) at the floor and not below it, so
        # the floor is neither looser (its margin or a lower edge lost) nor
        # tighter (a constant lost) than its proof.
        p = 10.0 ** (p_db / 10.0)
        beta = 2.0**r_th - 1.0
        target = beta * (1.0 + 1e-6)
        c = alloc.outage_floor(p, beta)
        if 0 < c < 1e50:  # past it, sic_snr's own products overflow
            assert p * float(alloc.sic_snr(c, c, p)) == pytest.approx(target, rel=1e-12)
        top = quantizer.default_t_outage(delta) + 1
        c = alloc.outage_floor(p, beta, delta, top)
        if c == math.inf:
            # no gain clears it: the bound's supremum, at the top level, does not
            assert p * float(alloc.sic_snr(top * delta, top * delta, p)) <= target * (1 + 1e-12)
            return
        assert _floor_bound(c, p, delta, top) >= target * (1.0 - 1e-12)
        if beta > 0 and c < 1e6 * delta:  # where the bound moves more than its rounding
            assert _floor_bound(c * (1.0 - 1e-7), p, delta, top) < target

    def test_refuses_what_it_cannot_bound(self):
        for args in ((math.nan,), (-1.0,), (1.0, 0.0, 10), (1.0, 0.1, 0)):
            with pytest.raises(ValueError):
                alloc.outage_floor(10.0, *args)
        assert alloc.outage_floor(1e-10, 1.0, 0.1, 10) == math.inf


class TestHornerGuard:
    # The guard's premise over the whole range the CLI allows (2 to 64
    # receivers, |p_db| <= 1000) and past it: K from 1, gains over up to 16
    # decades.
    @PROPERTY
    @given(st.integers(1, 64), st.floats(-1000.0, 1000.0), st.floats(0.0, 16.0),
           st.integers(0, 2**32 - 1))
    def test_horner_decides_as_the_reference_outside_the_band(self, k, p_db, decades, seed):
        rng = np.random.default_rng(seed)
        p = 10.0 ** (p_db / 10.0)
        desc = np.sort(10.0 ** rng.uniform(-decades / 2, decades / 2, (300, k)), axis=1)[:, ::-1]
        pg = np.ascontiguousarray((p * desc).T)
        r_ub = np.log2(1.0 + pg[-1])
        # rates anywhere in [0, 1.2 r_ub], and rates 2^-60 to 2^-20 from each root
        root = alloc.batch_max_min_rate(desc, p, 1e-15)[0]
        offset = rng.choice([-1.0, 1.0], 300) * 2.0 ** -rng.uniform(20.0, 60.0, 300)
        rates = np.concatenate([rng.uniform(0.0, 1.2, 300) * r_ub, root * (1.0 + offset)])
        pg = np.concatenate([pg, pg], axis=1)
        with np.errstate(over="ignore"):
            v = alloc._varpi_horner(2.0**rates, 1.0 / pg)
            want = alloc._varpi_rows(rates, pg)
        outside = np.abs(v - 1.0) > alloc._horner_band(k, rates.max(), pg.max())
        assert np.array_equal((v < 1.0)[outside], (want < 1.0)[outside])

    def test_rows_near_the_root_take_the_reference(self, monkeypatch):
        # With eps far below the band's width the last brackets straddle the
        # root within the band, so those rows must take _varpi_rows.
        rows = []
        reference = alloc._varpi_rows

        def counted(r, pg):
            rows.append(len(r))
            return reference(r, pg)

        monkeypatch.setattr(alloc, "_varpi_rows", counted)
        rng = np.random.default_rng(604)
        for k in (1, 2, 4, 9, 64):
            g = np.sort(rng.exponential(1.0, (500, k)) / np.arange(1.0, k + 1), axis=1)[:, ::-1]
            for p, eps in ((10.0, 1e-15), (1e3, 1e-15), (1e100, 1e-13)):
                del rows[:]
                r, iters = alloc.batch_max_min_rate(g, p, eps)
                with np.errstate(over="ignore"):
                    want_r, want_iter = _parent_batch_max_min_rate(g, p, eps)
                assert iters == want_iter
                assert np.array_equal(r, want_r), (k, p, eps)
                assert 0 < sum(rows) < iters * len(g), (k, p, eps)
        # Past p g = 2^960 the band is infinite: every row, every step.
        del rows[:]
        g = np.array([[1e300, 1e299], [1e290, 1e280]])
        r, iters = alloc.batch_max_min_rate(g, 1.0, 1e-6)
        assert rows == [2] * iters
        assert np.array_equal(r, _parent_batch_max_min_rate(g, 1.0, 1e-6)[0])


class TestExp2Filter:
    """Each step evaluates Horner at np.exp2(mid), where _varpi_rows takes
    2.0**mid; _horner_band's derivation rests on the two lying within 5 ulp
    of each other (pow within 4 ulp of 2^x, exp2 within 1)."""

    def test_exp2_lies_within_five_ulp_of_pow(self):
        rng = np.random.default_rng(2024)
        x = np.concatenate([
            np.linspace(0.0, 1100.0, 2_000_001),
            rng.uniform(0.0, 1100.0, 10**6),
            rng.uniform(0.0, 1.0, 10**6),
            2.0 ** -rng.uniform(0.0, 60.0, 10**5),  # mids where exp2 rounds to 1
            1024.0 - 2.0 ** -rng.uniform(1.0, 52.0, 10**5),  # the last finite powers
            rng.uniform(1023.0, 1025.0, 10**5),  # and the first to overflow
        ])
        with np.errstate(over="ignore"):
            fast, ref = np.exp2(x), 2.0**x
        assert np.count_nonzero(fast == 1.0) > 10**4 and np.isinf(ref).any()
        # Positive floats are ordered as their bits, and +inf's follow the
        # largest finite float's, so the bit distance counts ulp, overflow too.
        assert np.abs(fast.view(np.int64) - ref.view(np.int64)).max() <= 5

    @PROPERTY
    @given(st.integers(1, 64), st.floats(-1000.0, 1000.0), st.floats(0.0, 16.0),
           st.integers(0, 2**32 - 1))
    def test_trusted_rows_decide_as_the_reference(self, k, p_db, decades, seed):
        rng = np.random.default_rng(seed)
        p = 10.0 ** (p_db / 10.0)
        desc = np.sort(10.0 ** rng.uniform(-decades / 2, decades / 2, (300, k)), axis=1)[:, ::-1]
        pg = np.ascontiguousarray((p * desc).T)
        r_ub = np.log2(1.0 + pg[-1])
        # rates anywhere in [0, 1.2 r_ub], 2^-60 to 2^-20 from each root, and
        # rates of 2^-60 to 2^-40, where y - 1 holds a few ulp of 1
        root = alloc.batch_max_min_rate(desc, p, 1e-15)[0]
        offset = rng.choice([-1.0, 1.0], 300) * 2.0 ** -rng.uniform(20.0, 60.0, 300)
        rates = np.concatenate([rng.uniform(0.0, 1.2, 300) * r_ub, root * (1.0 + offset),
                                2.0 ** -rng.uniform(40.0, 60.0, 300)])
        pg = np.concatenate([pg, pg, pg], axis=1)
        band = alloc._horner_band(k, rates.max(), pg.max())
        y = np.exp2(rates)
        with np.errstate(over="ignore"):
            v = alloc._varpi_horner(y, 1.0 / pg)
            want = alloc._varpi_rows(rates, pg)
        near = alloc._distrusted(v, y, band, np.empty_like(v))
        trusted = np.ones(v.size, bool) if near is None else ~near
        assert np.array_equal((v < 1.0)[trusted], (want < 1.0)[trusted])

    def test_rows_with_y_near_one_are_distrusted_however_far_v_is(self):
        # Where y - 1 is a few ulp of 1, a 1-ulp slip of exp2 can hold all of
        # it, so no value of v is far enough from 1 to decide the row.
        v = np.array([0.0, 0.5, 2.0, 1e6, 1e300, np.inf])
        for ulps in (0.0, 1.0, 4.0, 16.0):
            near = alloc._distrusted(v, np.full(6, ulps * 2.0**-52), 1e-13, np.empty(6))
            assert near is not None and near.all(), ulps
        assert alloc._distrusted(v, np.full(6, 2.0**-40), 1e-13, np.empty(6)) is None

    def test_the_block_passes_only_where_every_row_would(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            v = rng.choice([0.0, 0.5, 1.0, 2.0, 1e300, np.nan, np.inf], 50)
            v *= 1.0 + rng.normal(0.0, 1e-12, 50)
            d = rng.choice([0.0, 2.0**-52, 2.0**-48, 1e-3, 1.0, 2.0**1000], 50)
            band = rng.choice([1e-13, 1e-3, 1.0])
            near = alloc._distrusted(v, d, band, np.empty(50))
            alone = [alloc._distrusted(v[i:i + 1], d[i:i + 1], band, np.empty(1)) is not None
                     for i in range(50)]
            assert near is None if not any(alone) else near.tolist() == alone

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 16, 64])
    def test_forced_fallback_is_bit_exact(self, k, monkeypatch):
        # eps = 1e-12 leaves the last brackets inside the band, and gains
        # over 120 decades put many mids where exp2 rounds to 1; at -1000 dB
        # every rate is below eps and no step runs.
        rows = []
        reference = alloc._varpi_rows

        def counted(r, pg):
            rows.append(len(r))
            return reference(r, pg)

        monkeypatch.setattr(alloc, "_varpi_rows", counted)
        rng = np.random.default_rng(900 + k)
        g = np.sort(10.0 ** rng.uniform(-120.0, 0.0, (400, k)), axis=1)[:, ::-1]
        g[:20] = 1.0
        for p_db in (-1000.0, 0.0, 1000.0):
            p = 10.0 ** (p_db / 10.0)
            del rows[:]
            r, iters = alloc.batch_max_min_rate(g, p, 1e-12)
            with np.errstate(over="ignore"):
                want_r, want_iter = _parent_batch_max_min_rate(g, p, 1e-12)
            assert iters == want_iter and (iters == 0) == (p_db == -1000.0)
            assert np.array_equal(r, want_r), (k, p_db)
            assert (sum(rows) > 0) == (iters > 0)
