"""Acceptance runs: one test per criterion, heaviest checks in the suite.

Each test prints its measured numbers so a red line carries the evidence.
Criteria with stated runtime budgets assert them with a wall clock.
"""

import math
import time

import numpy as np

from nomafb import alloc, harness, quantizer
from nomafb.channel import CHUNK
from nomafb.harness import ExperimentConfig

from conftest import (achievable_check, outage_prob_analytic, quantized_outage, vle_mean_analytic,
                      vle_rate_bound)


def metrics_by_sweep(stats):
    out = {}
    for m in stats.points:
        out.setdefault(m.sweep_value, {})[m.metric] = m
    return out


def test_criterion_01_closed_form_matches_grid_search():
    rng = np.random.default_rng(20260818)
    n = 10_000
    h1 = rng.exponential(1.0, n)
    h2 = rng.exponential(0.5, n)
    p = 10.0 ** (rng.uniform(-10.0, 30.0, n) / 10.0)
    hs, hw = np.maximum(h1, h2), np.minimum(h1, h2)

    started = time.perf_counter()
    alpha = alloc.equal_rate_split(hs, hw, p)
    r_closed = alloc.max_min_rate_two_user(h1, h2, p)

    step = 1e-5
    a_grid = np.arange(0.0, 1.0 + 0.5 * step, step)
    worst_rate_gap = -1.0
    worst_alpha_gap = -1.0
    for i in range(n):
        r1 = np.log2(1.0 + (p[i] * hs[i]) * a_grid)
        r2 = np.log2(1.0 + p[i] * hw[i] * (1.0 - a_grid) / (p[i] * hw[i] * a_grid + 1.0))
        rmin = np.minimum(r1, r2)
        j = int(np.argmax(rmin))
        worst_rate_gap = max(worst_rate_gap, rmin[j] - r_closed[i])
        worst_alpha_gap = max(worst_alpha_gap, abs(alpha[i] - a_grid[j]))
    elapsed = time.perf_counter() - started

    r_strong = np.log2(1.0 + p * alpha * hs)
    r_weak = np.log2(1.0 + p * hw * (1.0 - alpha) / (p * hw * alpha + 1.0))
    rate_mismatch = float(np.max(np.abs(r_strong - r_weak)))

    print("criterion 1: grid shortfall %.3g (limit 1e-6), alpha gap %.3g (limit 1e-4), "
          "rate mismatch %.3g (limit 1e-9), %.1fs" %
          (worst_rate_gap, worst_alpha_gap, rate_mismatch, elapsed))
    assert worst_rate_gap <= 1e-6, \
        "criterion 1: grid search beats closed form by %.3g" % worst_rate_gap
    assert worst_alpha_gap <= 1e-4, \
        "criterion 1: alpha differs from grid argmax by %.3g" % worst_alpha_gap
    assert rate_mismatch <= 1e-9, \
        "criterion 1: per-receiver rates differ by %.3g at alpha*" % rate_mismatch
    assert elapsed < 60.0, "criterion 1: took %.1fs, budget 60s" % elapsed


def test_criterion_02_bisection_solver():
    rng = np.random.default_rng(20260819)
    n = 10_000
    h1 = rng.exponential(1.0, n)
    h2 = rng.exponential(0.5, n)
    p = 10.0 ** (rng.uniform(-10.0, 30.0, n) / 10.0)

    eps2 = 1e-9
    worst = -1.0
    for i in range(n):
        r, iterations = alloc.batch_max_min_rate(
            np.array([[max(h1[i], h2[i]), min(h1[i], h2[i])]]), p[i], eps2)
        r_ub = math.log2(1.0 + p[i] * min(h1[i], h2[i]))
        assert iterations <= math.ceil(math.log2(r_ub / eps2))
        worst = max(worst, abs(r[0] - alloc.max_min_rate_two_user(h1[i], h2[i], p[i])))

    eps4 = 1e-4
    gains = rng.exponential(1.0, (n, 4)) / np.array([1.0, 2.0, 3.0, 4.0])
    gd = np.sort(gains, axis=1)[:, ::-1]
    pk = 10.0
    r, iters = alloc.batch_max_min_rate(gd, pk, eps4)
    assert iters <= math.ceil(math.log2(float(np.log2(1.0 + pk * gd[:, -1]).max()) / eps4))
    alphas = alloc.alloc_from_rate(r, gd, pk)
    rates = alloc.sic_rates(alphas, gd, pk)
    spread = float((rates.max(axis=1) - rates.min(axis=1)).max())

    print("criterion 2: K=2 worst |bisection-closed| %.3g (limit 1e-8), "
          "K=4 rate spread %.3g (limit %.0e)" % (worst, spread, 10 * eps4))
    assert worst <= 1e-8, "criterion 2: K=2 solver off by %.3g" % worst
    assert spread <= 10 * eps4, "criterion 2: K=4 rate spread %.3g" % spread


def test_criterion_03_feedback_cost_table():
    started = time.perf_counter()
    cfg = ExperimentConfig(kind="feedback", deltas=(0.01, 0.05), trials=1_200_000, seed=0)
    by = metrics_by_sweep(harness.run_feedback_rate(cfg))
    elapsed = time.perf_counter() - started

    t01, t05 = by[0.01]["t_bins"].value, by[0.05]["t_bins"].value
    f01, f05 = by[0.01]["fle_bits"].value, by[0.05]["fle_bits"].value
    v = {(d, rx): by[d]["vle_rx%d" % rx].value for d in (0.01, 0.05) for rx in (1, 2)}
    print("criterion 3: T=(%g, %g) FLE=(%g, %g) VLE rx1=(%.4f, %.4f) rx2=(%.4f, %.4f), %.1fs"
          % (t01, t05, f01, f05, v[(0.01, 1)], v[(0.05, 1)], v[(0.01, 2)], v[(0.05, 2)],
             elapsed))

    assert elapsed < 120.0, "criterion 3: took %.1fs, budget 120s" % elapsed
    assert (t01, t05) == (461, 60)
    assert (f01, f05) == (9, 6)
    # Every cell against the exact mean of the documented code (level n costs
    # floor(log2(n+2)) bits) over the lower-edge bins, both receivers on T.
    for (d, rx), t, lam in (((0.01, 1), t01, 1.0), ((0.01, 2), t01, 0.5),
                            ((0.05, 1), t05, 1.0), ((0.05, 2), t05, 0.5)):
        point = by[d]["vle_rx%d" % rx]
        exact = vle_mean_analytic(d, lam, int(t))
        z = (point.value - exact) / point.stderr
        print("criterion 3: VLE rx%d delta=%g measured %.4f, exact %.4f, z=%+.2f"
              % (rx, d, point.value, exact, z))
        assert abs(z) <= 4.0, \
            "criterion 3: VLE rx%d delta=%g measured %.4f, exact %.4f, %.1f stderr off" \
            % (rx, d, point.value, exact, z)
    assert 5.1 <= v[(0.01, 1)] <= 5.5, \
        "criterion 3: VLE rx1 delta=0.01 measured %.4f, required 5.3 +/- 0.2" % v[(0.01, 1)]
    assert 4.4 <= v[(0.01, 2)] <= 4.8, \
        "criterion 3: VLE rx2 delta=0.01 measured %.4f, required 4.6 +/- 0.2" % v[(0.01, 2)]
    assert 2.5 <= v[(0.05, 2)] <= 2.9, \
        "criterion 3: VLE rx2 delta=0.05 measured %.4f, required 2.7 +/- 0.2" % v[(0.05, 2)]
    # The paper's table gives 3.6 for rx1 at delta=0.05, but the code above
    # has the exact mean sum_{n<60} floor(log2(n+2)) * (e^(-0.05n) - e^(-0.05(n+1)))
    # + floor(log2(62)) * e^(-3) = 3.365 bits, so no correct implementation
    # reaches 3.6 +/- 0.2; the exact check above holds this cell instead.
    print("criterion 3: VLE rx1 delta=0.05 paper 3.6, exact %.3f, measured %.4f"
          % (vle_mean_analytic(0.05, 1.0, int(t05)), v[(0.05, 1)]))


def test_criterion_04_bound_compliance():
    lam1, lam2 = 1.0, 0.5
    deltas = (0.01, 0.05, 0.2)
    rows = []
    for pdb in (0.0, 10.0, 20.0, 30.0):
        cfg = ExperimentConfig(kind="rateloss", p_db=(pdb,), deltas=deltas,
                               trials=250_000, seed=1)
        by = metrics_by_sweep(harness.run_rate_loss(cfg))
        for d in deltas:
            loss = by[d]["rate_loss"].value
            bound = by[d]["rate_loss_bound"].value
            rows.append((pdb, d, loss, bound))
            assert loss <= bound, \
                "criterion 4: rate loss %.4f exceeds bound %.4f at P=%gdB delta=%g" \
                % (loss, bound, pdb, d)
            for lam, name in ((lam1, "vle_rx1"), (lam2, "vle_rx2")):
                mean_bits = by[d][name].value
                cap = vle_rate_bound(d, lam)
                assert mean_bits <= cap, \
                    "criterion 4: %s %.4f exceeds analytic cap %.4f at delta=%g" \
                    % (name, mean_bits, cap, d)
    worst = max(loss / bound for _, _, loss, bound in rows)
    print("criterion 4: all losses below bounds; tightest ratio %.3f" % worst)


def test_criterion_05_outage_loss_shape():
    p_grid = tuple(float(x) for x in range(-10, 45, 5))
    cfg = ExperimentConfig(kind="outageloss", p_db=p_grid, deltas=(0.2,),
                           trials=400_000, seed=1)
    by = metrics_by_sweep(harness.run_outage_loss(cfg))
    losses = [by[pdb]["outage_loss"].value for pdb in p_grid]

    dcfg = ExperimentConfig(kind="outageloss", p_db=(10.0,),
                            deltas=(0.01, 0.05, 0.1, 0.2), trials=400_000, seed=1)
    dby = metrics_by_sweep(harness.run_outage_loss(dcfg))
    dlosses = [dby[d]["outage_loss"].value for d in dcfg.deltas]

    print("criterion 5: loss vs P %s; loss vs delta %s" %
          (["%.4f" % x for x in losses], ["%.5f" % x for x in dlosses]))
    peak = int(np.argmax(losses))
    assert 0 < peak < len(losses) - 1, "criterion 5: peak sits at a sweep endpoint"
    assert max(losses) > losses[0] and max(losses) > losses[-1]
    assert losses[0] <= 0.02, "criterion 5: loss %.4f at -10 dB" % losses[0]
    assert losses[-1] <= 0.02, "criterion 5: loss %.4f at 40 dB" % losses[-1]
    assert all(b >= a for a, b in zip(dlosses, dlosses[1:])), \
        "criterion 5: loss not monotone in delta: %s" % (dlosses,)


def test_criterion_06_exponential_decay_in_feedback_rate():
    deltas = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

    cfg = ExperimentConfig(kind="rateloss", p_db=(10.0,), deltas=deltas,
                           trials=1_000_000, seed=1)
    by = metrics_by_sweep(harness.run_rate_loss(cfg))
    pairs = sorted((by[d]["vle_min"].value, by[d]["rate_loss"].value) for d in deltas)
    tail = pairs[-3:]  # high-rate half of the sweep
    slope_rate = float(np.polyfit([x for x, _ in tail],
                                  [math.log2(y) for _, y in tail], 1)[0])

    ocfg = ExperimentConfig(kind="outageloss", p_db=(10.0,), deltas=deltas,
                            trials=4_000_000, seed=1)
    oby = metrics_by_sweep(harness.run_outage_loss(ocfg))
    opairs = sorted((oby[d]["vle_min"].value, oby[d]["outage_loss"].value) for d in deltas)
    otail = opairs[-3:]
    slope_outage = float(np.polyfit([x for x, _ in otail],
                                    [math.log2(y) for _, y in otail], 1)[0])

    print("criterion 6: rate-loss slope %.3f (limit -0.8), outage-loss slope %.3f "
          "(limit -0.4)" % (slope_rate, slope_outage))
    assert slope_rate <= -0.8, \
        "criterion 6: rate-loss decay slope %.3f, needs <= -0.8" % slope_rate
    assert slope_outage <= -0.4, \
        "criterion 6: outage-loss decay slope %.3f, needs <= -0.4" % slope_outage


def test_criterion_07_diversity_orders():
    # Exact local slope of the receiver-1 fixed-bin outage curve (delta=0.2,
    # bin sum from outage_prob_analytic): 0.662 over 20-30 dB, 0.558 over
    # 30-40, 0.519 over 40-50 and 0.501 over 60-80. The order 1/2 is the
    # asymptote, so the driver's top-10-dB slope is read over 30-40 dB.
    p_grid = tuple(float(x) for x in range(20, 42, 2))
    started = time.perf_counter()
    cfg = ExperimentConfig(kind="diversity", p_db=p_grid,
                           deltas=(0.2,), min_outage_events=10_000, seed=0)
    stats = harness.run_diversity(cfg)
    elapsed = time.perf_counter() - started

    by = {m.metric: m for m in stats.points if m.metric.startswith("slope[")}
    full = by["slope[out_full]"].value
    policy = by["slope[out_qo_policy[min02-pcube]]"].value
    rx1 = by["slope[out_rx1_fixed[delta=0.2]]"].value

    curves = {}
    for m in stats.points:
        curves.setdefault(m.metric, {})[m.sweep_value] = m
    events = {pdb: round(m.value * m.n) for pdb, m in curves["out_full"].items()}

    def slope_20_30(name):
        curve = [(pdb, m.value) for pdb, m in sorted(curves[name].items()) if pdb <= 30.0]
        return harness.estimate_diversity(curve)

    full_low = slope_20_30("out_full")
    policy_low = slope_20_30("out_qo_policy[min02-pcube]")
    print("criterion 7: 30-40 dB slopes full=%.3f policy=%.3f rx1=%.3f; 20-30 dB slopes "
          "full=%.3f policy=%.3f; min events %d, %.0fs"
          % (full, policy, rx1, full_low, policy_low, min(events.values()), elapsed))

    assert stats.notes == [], "criterion 7: %s" % (stats.notes,)
    assert min(events.values()) >= 10_000
    assert elapsed < 600.0, "criterion 7: took %.0fs, budget 600s" % elapsed

    t = quantizer.default_t_outage(0.2)
    beta = 2.0 ** cfg.r_th - 1.0

    def exact(pdb):
        return outage_prob_analytic(10.0 ** (pdb / 10.0), 0.2, t, cfg.variances, beta)

    # Every receiver-1 and fixed-bin system point against the exact bin sum.
    for name, col in (("out_rx1_fixed[delta=0.2]", 0), ("out_qo_fixed[delta=0.2]", 2)):
        zs = []
        for pdb in p_grid:
            point, want = curves[name][pdb], exact(pdb)[col]
            zs.append((point.value - want) / point.stderr)
            assert abs(zs[-1]) <= 4.0, \
                "criterion 7: %s at %g dB measured %.5g, exact %.5g, %.1f stderr off" \
                % (name, pdb, point.value, want, zs[-1])
        print("criterion 7: %s z vs exact %s" % (name, " ".join("%+.2f" % z for z in zs)))

    # The oracle's own slope far out pins the asymptote the band stands for.
    rx1_far = harness.estimate_diversity([(x, exact(x)[0]) for x in range(60, 82, 2)])
    print("criterion 7: exact receiver-1 slope over 60-80 dB %.4f" % rx1_far)
    assert abs(rx1_far - 0.5) <= 0.01, \
        "criterion 7: exact receiver-1 slope over 60-80 dB is %.4f, not 1/2" % rx1_far

    for name, slope, window in (("full-CSI", full, "30-40"),
                                ("full-CSI", full_low, "20-30"),
                                ("adaptive-bin", policy, "30-40"),
                                ("adaptive-bin", policy_low, "20-30")):
        assert 0.85 <= slope <= 1.15, \
            "criterion 7: %s slope over %s dB %.3f, required 1.0 +/- 0.15" \
            % (name, window, slope)
    assert 0.35 <= rx1 <= 0.65, \
        "criterion 7: receiver-1 fixed-bin slope %.3f, required 0.5 +/- 0.15" % rx1


def test_criterion_08_property_suites():
    rng = np.random.default_rng(20260820)

    # quantizer bracketing on a large random sample
    x = rng.exponential(1.0, 1_000_000)
    for delta in (0.01, 0.2):
        t = quantizer.default_t_rate(delta)
        n = quantizer.rate_levels(x, delta, t)
        q = n * delta
        assert np.all(q <= x) and np.all((x < q + delta) | (n == t))
        to = quantizer.default_t_outage(delta)
        m = quantizer.outage_levels(x, delta, to)
        qo = m * delta
        assert np.all((qo >= x) | (m == to + 1)) and np.all(qo - delta < x)

    # VLE round-trip
    for level in range(10_001):
        assert quantizer.vle_decode(quantizer.vle_encode(level)) == level

    # adapted rates decode on the true channels: zero violations over 1e6
    h1 = rng.exponential(1.0, 1_000_000)
    h2 = rng.exponential(0.5, 1_000_000)
    t = quantizer.default_t_rate(0.05)
    q1 = quantizer.rate_levels(h1, 0.05, t) * 0.05
    q2 = quantizer.rate_levels(h2, 0.05, t) * 0.05
    rx1_strong = q1 >= q2
    ok = achievable_check(np.where(rx1_strong, h1, h2), np.where(rx1_strong, h2, h1),
                          np.maximum(q1, q2), np.minimum(q1, q2), 10.0)
    violations_decode = int(np.count_nonzero(~ok))

    # full-CSI outage implies quantized outage: zero violations over 1e6
    p, r_th = 10.0, 1.0
    to = quantizer.default_t_outage(0.2)
    o1 = quantizer.outage_levels(h1, 0.2, to) * 0.2
    o2 = quantizer.outage_levels(h2, 0.2, to) * 0.2
    out_q = quantized_outage(h1, h2, o1, o2, p, 2.0**r_th - 1.0)[0]
    out_full = alloc.max_min_rate_two_user(h1, h2, p) < r_th
    violations_dom = int(np.count_nonzero(out_full & ~out_q))

    # worker count cannot change a single output bit
    base = dict(kind="minrate", p_db=(10.0,), deltas=(0.05,), trials=2 * CHUNK + 5, seed=6)
    fixed_same = (harness.run_min_rate(ExperimentConfig(workers=1, **base)).points
                  == harness.run_min_rate(ExperimentConfig(workers=6, **base)).points)
    abase = dict(kind="outage", p_db=(10.0, 20.0), deltas=(0.2,),
                 min_outage_events=500, seed=6)
    adaptive_same = (harness.run_outage(ExperimentConfig(workers=1, **abase)).points
                     == harness.run_outage(ExperimentConfig(workers=3, **abase)).points)

    print("criterion 8: decode violations %d, dominance violations %d, "
          "worker-invariant fixed=%s adaptive=%s" %
          (violations_decode, violations_dom, fixed_same, adaptive_same))
    assert violations_decode == 0
    assert violations_dom == 0
    assert fixed_same and adaptive_same
