"""Command-line front end.

One subcommand per experiment kind; results leave as long-format CSV
(or JSON with --json), one metric per row. Progress goes to stderr so
stdout stays machine-readable.
"""

import argparse
import csv
import io
import json
import sys
import time

from .harness import (
    POLICIES,
    WORKERS_ENV,
    ExperimentConfig,
    run_experiment,
)

COLUMNS = ("experiment", "sweep", "sweep_value", "metric", "value", "stderr", "n", "seed")

_USAGE_SWEEP = "use start:stop:step (inclusive) or a comma list"


def parse_sweep(text):
    """Inclusive start:stop:step grid or comma list, as a tuple of floats."""
    s = str(text).strip()
    if not s:
        raise argparse.ArgumentTypeError("empty sweep; " + _USAGE_SWEEP)
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("bad sweep %r; %s" % (s, _USAGE_SWEEP))
        try:
            a, b, step = (float(x) for x in parts)
        except ValueError:
            raise argparse.ArgumentTypeError("bad sweep %r; %s" % (s, _USAGE_SWEEP))
        if step == 0 or (b - a) * step < 0:
            raise argparse.ArgumentTypeError("sweep %r never reaches its stop value" % s)
        vals = []
        i = 0
        while True:
            v = a + i * step
            if (step > 0 and v > b + 1e-9) or (step < 0 and v < b - 1e-9):
                break
            vals.append(round(v, 12))
            i += 1
        return tuple(vals)
    try:
        return tuple(float(x) for x in s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("bad sweep %r; %s" % (s, _USAGE_SWEEP))


def parse_deltas(text):
    vals = parse_sweep(text)
    for d in vals:
        if not 0 < d < 1:
            raise argparse.ArgumentTypeError(
                "delta %g is outside (0, 1); the default bin-count rule needs 0 < delta < 1" % d)
    return vals


def parse_variances(text):
    vals = parse_sweep(text)
    if any(v <= 0 for v in vals):
        raise argparse.ArgumentTypeError("variances must be positive")
    return vals


def parse_count(text):
    try:
        f = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text)
    if f < 0 or f != int(f):
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    return int(f)


def parse_positive(text):
    try:
        f = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text)
    if not f > 0:
        raise argparse.ArgumentTypeError("expected a positive number, got %r" % text)
    return f


# dest -> (default, converter); converter also applies to --config file values
_OPTIONS = {
    "p_db": ((10.0,), parse_sweep),
    "deltas": ((0.01,), parse_deltas),
    "delta_policy": ("fixed", str),
    "variances": (None, parse_variances),
    "r_th": (1.0, parse_positive),
    "eps": (1e-4, parse_positive),
    "trials": (100_000, parse_count),
    "min_outage_events": (10_000, parse_count),
    "trial_cap": (1_000_000_000, parse_count),
    "seed": (0, parse_count),
    "workers": (0, parse_count),
    "k": (4, parse_count),
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p-db", dest="p_db", type=parse_sweep, default=None, metavar="SWEEP",
                        help="power sweep in dB, start:stop:step or comma list; "
                             "use --p-db=-10:40:5 for negative starts (default 10)")
    common.add_argument("--delta", dest="deltas", type=parse_deltas, default=None, metavar="LIST",
                        help="bin sizes in (0,1), comma list (default 0.01)")
    common.add_argument("--delta-policy", dest="delta_policy", choices=POLICIES, default=None,
                        help="bin-size rule over the power sweep (default fixed)")
    common.add_argument("--variances", type=parse_variances, default=None, metavar="LIST",
                        help="mean gains per receiver, nonincreasing (default 1,0.5; kuser 1/k)")
    common.add_argument("--r-th", dest="r_th", type=parse_positive, default=None,
                        help="target rate in bits/s/Hz for outage counting (default 1)")
    common.add_argument("--eps", type=parse_positive, default=None,
                        help="bisection accuracy (default 1e-4)")
    common.add_argument("--trials", type=parse_count, default=None,
                        help="trials per sweep point for fixed-size runs (default 1e5)")
    common.add_argument("--min-outage-events", dest="min_outage_events", type=parse_count,
                        default=None, help="event target for adaptive stopping (default 1e4)")
    common.add_argument("--trial-cap", dest="trial_cap", type=parse_count, default=None,
                        help="trial ceiling per point for adaptive stopping (default 1e9)")
    common.add_argument("--seed", type=parse_count, default=None,
                        help="master seed; results are bit-identical given (config, seed)")
    common.add_argument("--workers", type=parse_count, default=None,
                        help="worker threads; 0 means $%s or all cores; "
                             "never affects output bytes" % WORKERS_ENV)
    common.add_argument("--out", default=None, help="write results to this file instead of stdout")
    common.add_argument("--json", action="store_true", help="emit a JSON record array instead of CSV")
    common.add_argument("--config", default=None,
                        help="JSON file of option defaults; explicit flags win")

    parser = argparse.ArgumentParser(
        prog="nomafb",
        description="Monte Carlo experiments for max-min NOMA with quantized channel feedback.")
    sub = parser.add_subparsers(dest="kind", required=True, metavar="EXPERIMENT")
    helps = {
        "minrate": "mean min rate vs P: full CSI, quantized feedback, TDMA",
        "rateloss": "mean rate loss and feedback bits vs delta at fixed P",
        "outage": "outage probability vs P with adaptive stopping",
        "outageloss": "quantization-added outage probability vs delta or P",
        "feedback": "measured VLE/FLE feedback bits vs delta (or vs P under a policy)",
        "diversity": "outage curves vs P plus fitted high-P slopes",
        "kuser": "rate and outage losses vs delta for K receivers",
    }
    for kind, text in helps.items():
        sp = sub.add_parser(kind, parents=[common], help=text)
        if kind == "kuser":
            sp.add_argument("--k", type=parse_count, default=None,
                            help="receiver count when --variances is not given (default 4)")
    return parser


def _load_config_file(parser, path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error("--config %s: %s" % (path, e))
    if not isinstance(raw, dict):
        parser.error("--config %s: expected a JSON object of option values" % path)
    out = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in _OPTIONS:
            parser.error("--config %s: unknown option %r" % (path, key))
        _, conv = _OPTIONS[dest]
        try:
            if isinstance(value, (list, tuple)):
                out[dest] = conv(",".join(repr(v) for v in value))
            else:
                out[dest] = conv(value if isinstance(value, str) else repr(value))
        except argparse.ArgumentTypeError as e:
            parser.error("--config %s: option %r: %s" % (path, key, e))
    return out


def parse_config(argv=None):
    """argv -> (ExperimentConfig, io options dict). Flags beat --config beats defaults."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    file_vals = _load_config_file(parser, ns.config) if ns.config else {}

    def pick(dest):
        v = getattr(ns, dest, None)
        if v is not None:
            return v
        if dest in file_vals:
            return file_vals[dest]
        return _OPTIONS[dest][0]

    variances = pick("variances")
    if variances is None:
        if ns.kind == "kuser":
            k = pick("k")
            if k < 2:
                parser.error("--k must be at least 2")
            variances = tuple(1.0 / (i + 1) for i in range(k))
        else:
            variances = (1.0, 0.5)
    try:
        cfg = ExperimentConfig(
            kind=ns.kind,
            variances=tuple(variances),
            p_db=tuple(pick("p_db")),
            deltas=tuple(pick("deltas")),
            delta_policy=pick("delta_policy"),
            r_th=pick("r_th"),
            eps=pick("eps"),
            trials=pick("trials"),
            min_outage_events=pick("min_outage_events"),
            trial_cap=pick("trial_cap"),
            seed=pick("seed"),
            workers=pick("workers"),
        )
    except ValueError as e:
        parser.error(str(e))
    return cfg, {"out": ns.out, "json": ns.json}


def render_args(cfg, out=None, as_json=False):
    """Canonical argv for a config; parse_config(render_args(cfg)) round-trips.

    Values are glued on with '=' so negative sweep entries survive argparse.
    """
    argv = [
        cfg.kind,
        "--p-db=" + ",".join(repr(v) for v in cfg.p_db),
        "--delta=" + ",".join(repr(v) for v in cfg.deltas),
        "--delta-policy=" + cfg.delta_policy,
        "--variances=" + ",".join(repr(v) for v in cfg.variances),
        "--r-th=" + repr(cfg.r_th),
        "--eps=" + repr(cfg.eps),
        "--trials=" + str(cfg.trials),
        "--min-outage-events=" + str(cfg.min_outage_events),
        "--trial-cap=" + str(cfg.trial_cap),
        "--seed=" + str(cfg.seed),
        "--workers=" + str(cfg.workers),
    ]
    if out:
        argv += ["--out", out]
    if as_json:
        argv.append("--json")
    return argv


def stats_rows(stats):
    """RunStats -> list of row dicts in the output order."""
    return [
        {
            "experiment": stats.experiment,
            "sweep": stats.sweep,
            "sweep_value": point.sweep_value,
            "metric": point.metric,
            "value": point.value,
            "stderr": point.stderr,
            "n": point.n,
            "seed": stats.seed,
        }
        for point in stats.points
    ]


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(stats):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in stats_rows(stats):
        writer.writerow([_format_cell(row[c]) for c in COLUMNS])
    return buf.getvalue()


def render_json(stats):
    return json.dumps(stats_rows(stats), indent=1) + "\n"


def _write_out(text, path):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise RuntimeError("cannot write %s: %s" % (path, e))


def main(argv=None):
    cfg, opts = parse_config(argv)
    started = time.time()

    def progress(msg):
        print(msg, file=sys.stderr)

    try:
        stats = run_experiment(cfg, progress=progress)
        for note in stats.notes:
            print("note: %s" % note, file=sys.stderr)
        text = render_json(stats) if opts["json"] else render_csv(stats)
        _write_out(text, opts["out"])
    except (ValueError, RuntimeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print("done in %.1fs" % (time.time() - started), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
