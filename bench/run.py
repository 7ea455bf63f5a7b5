"""nomafb benchmark: one workload, measured end to end or traced by layer.

usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each run of the workload goes through the
public entry point ``nomafb.cli.main(argv)``, from argv to the CSV it writes,
with ``--workers`` equal to the CPUs this process may use. Every output is
checked (bench/workloads.py, and bench/golden.json at the default seed). The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics with no wrappers installed;
--trace 1 reports the per-layer metrics of bench/layertrace.py. The workload
and metric names, the units and the default --seconds come from BENCHMARK.json.
A record of the run, with its manifest, goes to bench/out/. See bench/README.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layertrace import Tracer, layer_metrics, write_spans
from workloads import WORKLOADS, check_output, point_sizes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = json.loads((HERE / "golden.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {trace: {m["name"]: m["unit"] for m in SPEC[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}

DEFAULT_SEED = GOLDEN["seed"]
RSS_PROBES = 2  # fresh interpreters that set up and run the workload once
MIN_REPS = 3  # timed repetitions (rounds, when traced) even past --seconds
PROBE_TIMEOUT_S = 120

# Layer metrics that depend only on the inputs, so every traced run of one
# workload and seed must give the same value.
EXACT = (
    "channel.calls", "channel.unique_frac", "channel.bytes_computed",
    "quantizer.levels_calls", "quantizer.vle_calls",
    "alloc.bisect_calls", "alloc.bisect_iters",
    "harness.pools", "harness.chunks_scanned", "harness.kept_frac", "evaluator.calls",
)


def load_cli():
    """Import nomafb.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "nomafb" / "__init__.py").is_file():
        raise FileNotFoundError("no nomafb package under %s; run from a checkout" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nomafb.cli

    if Path(nomafb.cli.__file__).resolve().parent != SRC / "nomafb":
        raise ImportError("nomafb was imported from %s, not %s" % (nomafb.cli.__file__, SRC))
    return nomafb.cli


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Bench:
    """Runs one workload and counts, checks and times every run of it."""

    def __init__(self, cli, wl, seed, workers, pinned, out=OUT):
        """pinned: sha256 the output at DEFAULT_SEED must have, or None for no pin."""
        self.cli, self.wl, self.seed, self.workers = cli, wl, seed, workers
        self.pinned, self.out = pinned, out
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # seed -> sha256 of the first output at that seed
        self.passed = set()  # sha256 of outputs that passed check_output
        self.sizes = None  # {sweep_value: n} of the output at self.seed
        out.mkdir(exist_ok=True)

    def argv(self, seed, workers):
        return list(self.wl.argv) + ["--seed", str(seed), "--workers", str(workers)]

    def record(self, label, problems):
        """Count one attempted run, failed if it has problems; True if it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += ["%s: %s" % (label, p) for p in problems]
        return not problems

    def verify(self, seed, text):
        """Problems of one output: hash drift, pinned-hash mismatch, failed checks."""
        sha = hashlib.sha256(text.encode()).hexdigest()
        ref = self.reference.setdefault(seed, sha)
        if sha != ref:
            return ["CSV sha256 %s differs from %s of the first run at seed %d" % (sha, ref, seed)]
        if seed == DEFAULT_SEED and self.pinned is not None and sha != self.pinned:
            return ["CSV sha256 %s differs from the pinned %s" % (sha, self.pinned)]
        if sha not in self.passed:
            problems = check_output(self.wl, text, seed)
            if problems:
                return problems
            self.passed.add(sha)
        if seed == self.seed and self.sizes is None:
            self.sizes = point_sizes(text)
        return []

    def run(self, label, seed, workers, tracer=None):
        """One in-process cli.main call; its wall time in s, or None if it failed.

        With a tracer, the wrappers go in before the clock starts and come out
        after it stops.
        """
        path = self.out / ("%s.csv" % self.wl.name)
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
        argv = self.argv(seed, workers) + ["--out", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), tracer or contextlib.nullcontext():
            span = tracer.span("main", "cli") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception:
                rc = traceback.format_exc()
            wall = time.perf_counter() - start
        if rc != 0:
            problems = ["cli.main gave %r; stderr: %s" % (rc, err.getvalue()[-2000:])]
        elif not path.is_file():
            problems = ["cli.main wrote no %s" % path.name]
        else:
            problems = self.verify(seed, path.read_text())
        return wall if self.record(label, problems) else None

    def probe(self, run_once):
        """Set up (and with run_once, run) the workload in a fresh interpreter."""
        cmd = [sys.executable, str(HERE / "probe.py"), str(SRC),
               json.dumps(self.argv(self.seed, self.workers))]
        path = self.out / ("%s-probe.csv" % self.wl.name)
        if run_once:
            with contextlib.suppress(FileNotFoundError):
                path.unlink()
            cmd.append(str(path))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.record("probe", ["did not finish in %d s" % PROBE_TIMEOUT_S])
            return None
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            self.record("probe", ["exit %d, stderr: %s" % (proc.returncode, proc.stderr[-2000:])])
            return None
        if not run_once:
            self.record("probe", [])
        elif report["rc"] != 0:
            self.record("probe", ["cli.main gave %r; stderr: %s" % (report["rc"], proc.stderr[-2000:])])
            return None
        elif not path.is_file():
            self.record("probe", ["cli.main wrote no %s" % path.name])
            return None
        else:
            self.record("probe", self.verify(self.seed, path.read_text()))
        return report

    def warm_up(self):
        """One untimed run, at the default seed when an output there is pinned.

        Runs at self.seed check the pin themselves when that is the default.
        """
        self.run("warm-up", DEFAULT_SEED if self.pinned is not None else self.seed, self.workers)

    def manifest(self):
        import numpy

        cfg, _ = self.cli.parse_config(self.argv(self.seed, self.workers))
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": nproc(),
            "workers": sys.modules["nomafb.harness"].resolve_workers(cfg.workers),
            "argv": self.cli.render_args(cfg),
        }


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stolen_s():
    """CPU seconds the hypervisor has given to other guests while this machine's
    CPUs had work (steal time, summed over CPUs); 0.0 where it is not reported."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def repeat(seconds, fn):
    """Call fn until `seconds` have passed, and at least MIN_REPS times."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < MIN_REPS or time.perf_counter() < deadline:
        fn()
        done += 1


def end_to_end(bench, seconds):
    setup, setup_wall, rss, walls, steals = [], [], [], [], []

    def probe(run_once):
        report = bench.probe(run_once)
        if report:
            setup.append(report["setup_cpu_s"])
            setup_wall.append(report["setup_wall_s"])
            if run_once:
                rss.append(report["peak_rss_mb"])

    for _ in range(RSS_PROBES):
        probe(run_once=True)
    bench.warm_up()

    def one_round():
        before = stolen_s()
        walls.append(bench.run("timed", bench.seed, bench.workers))
        steals.append(stolen_s() - before)
        # Set-up probes are spread over the whole window, so that a slow
        # spell of the machine cannot hold every sample.
        probe(run_once=False)

    repeat(seconds, one_round)
    trials = sum(bench.sizes.values()) if bench.sizes else 0
    samples = {
        "trials_per_s": [trials / w for w in walls if w is not None],
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "peak_rss_mb": rss,
        "stolen_s": steals,
    }
    return {name: median(samples[name]) for name in UNITS[0]}, samples


def per_layer(bench, seconds):
    bench.warm_up()
    full, serial, traced, layers = [], [], [], []
    last = []  # the latest tracer whose run passed

    def one_round():
        full.append(bench.run("untraced", bench.seed, bench.workers))
        serial.append(bench.run("workers=1", bench.seed, 1))
        tracer = Tracer()
        wall = bench.run("traced", bench.seed, bench.workers, tracer)
        if wall is not None:
            traced.append(wall)
            layers.append(layer_metrics(tracer, bench.workers, bench.sizes))
            last[:] = [tracer]

    repeat(seconds, one_round)
    full = [w for w in full if w is not None]
    serial = [w for w in serial if w is not None]
    metrics = {name: median([m[name] for m in layers]) for name in layers[0]} if layers else {}
    for name in EXACT:
        seen = sorted({m[name] for m in layers})
        if len(seen) > 1:
            bench.failed += 1
            bench.problems.append("%s differs between traced runs: %s" % (name, seen))
        metrics[name] = seen[0] if seen else 0
    metrics["harness.parallel_eff"] = (
        median(serial) / (bench.workers * median(full)) if full and serial else 0.0)
    metrics["trace.overhead_frac"] = median(traced) / median(full) - 1.0 if full and traced else 0.0
    if last:
        write_spans(last[0], bench.out / ("%s-seed%d.spans.jsonl" % (bench.wl.name, bench.seed)))
    samples = {"untraced_s": full, "workers1_s": serial, "traced_s": traced}
    return {name: metrics.get(name, 0.0) for name in UNITS[1]}, samples


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = load_cli()
    except (OSError, ImportError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    bench = Bench(cli, WORKLOADS[args.workload], args.seed, nproc(),
                  pinned=GOLDEN["sha256"][args.workload])
    measure = per_layer if args.trace else end_to_end
    values, samples = measure(bench, args.seconds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS[args.trace].items()}
    record = {"manifest": bench.manifest(), "trace": args.trace, "metrics": metrics,
              "samples": samples, "problems": bench.problems}
    (bench.out / ("%s-seed%d-trace%d.json" % (bench.wl.name, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")

    print("manifest " + json.dumps(record["manifest"]))
    for name, m in metrics.items():
        print("%-30s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-30s %14.6g ratio (%d of %d runs failed)" % (
        "error_rate", bench.failed / bench.attempted, bench.failed, bench.attempted))
    for p in bench.problems:
        print("FAILED " + p)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
