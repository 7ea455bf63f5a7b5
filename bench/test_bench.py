"""Tests of the benchmark itself: tracer hygiene, exact counts, output checks.

Runs shrunken copies of the workloads, so it takes seconds.
"""

import concurrent.futures
import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layertrace import TARGETS, Tracer, layer_metrics
from workloads import CHUNK, WORKLOADS, check_output

SEED = 7
cli = run.load_cli()


def shrink(wl):
    """The workload with few trials (or a low event target) and no pinned hash."""
    argv = list(wl.argv)
    if wl.trials:
        argv[argv.index("--trials") + 1] = "40000"
        return dataclasses.replace(wl, argv=tuple(argv), trials=40_000)
    argv[argv.index("--min-outage-events") + 1] = "300"
    return dataclasses.replace(wl, argv=tuple(argv), min_events=300)


@pytest.fixture(params=sorted(WORKLOADS))
def bench(request, tmp_path):
    return run.Bench(cli, shrink(WORKLOADS[request.param]), SEED, workers=2,
                     pinned=None, out=tmp_path)


def output(bench):
    assert bench.run("untraced", SEED, bench.workers) is not None, bench.problems
    return (bench.out / ("%s.csv" % bench.wl.name)).read_text()


def traced_metrics(bench):
    tracer = Tracer()
    assert bench.run("traced", SEED, bench.workers, tracer) is not None, bench.problems
    return layer_metrics(tracer, bench.workers, bench.sizes)


def test_traced_run_restores_every_wrapped_name(bench):
    import nomafb.alloc
    import nomafb.channel
    import nomafb.cli
    import nomafb.evaluator
    import nomafb.harness
    import nomafb.quantizer

    home = {"sample_block": nomafb.channel, "rate_levels": nomafb.quantizer,
            "outage_levels": nomafb.quantizer, "vle_lengths": nomafb.quantizer,
            "rate_loss_bound": nomafb.evaluator, "batch_max_min_rate": nomafb.alloc,
            "sic_snr": nomafb.alloc, "sic_rates": nomafb.alloc,
            "parse_config": nomafb.cli, "run_experiment": nomafb.harness,
            "render_csv": nomafb.cli}
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in TARGETS}
    traced_metrics(bench)
    with pytest.raises(ZeroDivisionError), Tracer():
        assert nomafb.harness.sample_block is not nomafb.channel.sample_block
        1 / 0
    for m, a, _ in TARGETS:
        assert getattr(sys.modules[m], a) is before[(m, a)] is getattr(home[a], a), (m, a)
    assert nomafb.harness.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor


def test_exact_counts_repeat_across_traced_runs(bench):
    output(bench)
    first, second = traced_metrics(bench), traced_metrics(bench)
    assert {k: first[k] for k in run.EXACT} == {k: second[k] for k in run.EXACT}
    # parallel_eff and overhead_frac come from the untraced runs of a round.
    assert set(run.UNITS[1]) == set(first) | {"harness.parallel_eff", "trace.overhead_frac"}
    assert first["channel.calls"] > 0 and first["harness.kept_frac"] > 0
    assert bench.failed == 0, bench.problems


def test_counts_match_the_scan_structure(tmp_path):
    # 40,000 trials are 3 blocks per sweep point; every point scans its own.
    minrate = run.Bench(cli, shrink(WORKLOADS["minrate_psweep"]), SEED, 2, None, tmp_path)
    output(minrate)
    m = traced_metrics(minrate)
    assert (m["channel.calls"], m["channel.unique_frac"], m["harness.pools"]) == (21, 3 / 21, 7)
    # The last block of a point is sliced to 7,232 rows, but all 16,384 of
    # its two-user rows were drawn.
    assert m["channel.bytes_computed"] == 21 * CHUNK * 2 * 8
    assert m["alloc.bisect_calls"] == m["quantizer.vle_calls"] == 0
    # kuser bisects three times per block: true, rate-quantized, outage-quantized gains.
    kuser = run.Bench(cli, shrink(WORKLOADS["kuser4"]), SEED, 2, None, tmp_path)
    output(kuser)
    k = traced_metrics(kuser)
    assert (k["channel.calls"], k["alloc.bisect_calls"]) == (9, 27)
    assert 10 * 27 < k["alloc.bisect_iters"] < 20 * 27  # ceil(log2(r_max / 1e-4)) each


def _alter(text, metric, sweep_value, change):
    """The CSV with one value of `metric` (at the first or given point) changed."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[3] == metric and (sweep_value is None or float(cells[2]) == sweep_value):
            cells[4] = repr(change(float(cells[4])))
            lines[i] = ",".join(cells)
            return "".join(lines)
    raise AssertionError("no %s row" % metric)


# For each workload, one altered value that breaks an invariant it must keep:
# (metric, sweep value or None for the first, alteration).
BREAKS = {
    "minrate_psweep": ("r_qr[delta=0.05]", None, lambda v: v + 1.0),
    "rateloss_dsweep": ("vle_rx1", None, lambda v: v + 0.5),
    "outage_adaptive": ("out_full", 30.0, lambda v: v / 2),
    "kuser4": ("outage_loss", None, lambda v: v + 1.0),
}


def test_output_check_rejects_one_altered_value(bench):
    text = output(bench)
    assert check_output(bench.wl, text, SEED) == []
    assert bench.verify(SEED, text) == []
    altered = _alter(text, *BREAKS[bench.wl.name])
    assert check_output(bench.wl, altered, SEED)
    assert bench.verify(SEED, altered), "a changed CSV must not match the first run's hash"
    assert check_output(bench.wl, "\n".join(text.splitlines()[:-1]) + "\n", SEED)


def test_pinned_hash_is_enforced(tmp_path):
    wl = shrink(WORKLOADS["kuser4"])
    bench = run.Bench(cli, wl, run.DEFAULT_SEED, 2, pinned="0" * 64, out=tmp_path)
    assert bench.run("golden", run.DEFAULT_SEED, 2) is None
    assert "pinned" in bench.problems[0]


def test_every_named_workload_is_defined_and_pinned():
    names = sorted(w["name"] for w in run.SPEC["workloads"])
    assert names == sorted(WORKLOADS) == sorted(run.GOLDEN["sha256"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kuser4", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path, "bench", "out").exists()
