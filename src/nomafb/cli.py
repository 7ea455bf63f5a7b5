"""Command-line front end.

One subcommand per experiment kind; results leave as long-format CSV
(or JSON with --json), one metric per row. Progress goes to stderr so
stdout stays machine-readable.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time

from .harness import (
    EXPERIMENTS,
    MAX_RECEIVERS,
    POLICIES,
    SHARED_OPTIONS,
    WORKERS_ENV,
    ExperimentConfig,
    run_experiment,
)

COLUMNS = ("experiment", "sweep", "sweep_value", "metric", "value", "stderr", "n", "seed")

_USAGE_SWEEP = "use start:stop:step (inclusive) or a comma list"
# Most points a start:stop:step range may hold; it is counted before it is built.
MAX_SWEEP_POINTS = 10_000


def parse_sweep(text):
    """Inclusive start:stop:step grid or comma list, as a tuple of finite floats."""
    s = str(text).strip()
    if not s:
        raise argparse.ArgumentTypeError("empty sweep; " + _USAGE_SWEEP)
    colon = ":" in s
    parts = s.split(":" if colon else ",")
    bad = argparse.ArgumentTypeError("bad sweep %r; %s" % (s, _USAGE_SWEEP))
    if colon and len(parts) != 3:
        raise bad
    try:
        vals = tuple(float(x) for x in parts)
    except ValueError:
        raise bad
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError("sweep %r holds a value that is not finite" % s)
    if not colon:
        return vals
    a, b, step = vals
    if step == 0 or (b - a) * step < 0:
        raise argparse.ArgumentTypeError("sweep %r never reaches its stop value" % s)
    if (abs(b - a) + 1e-9) / abs(step) >= MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError("sweep %r has more than %d points"
                                         % (s, MAX_SWEEP_POINTS))
    sign = math.copysign(1.0, step)  # negating is exact, so both tests round alike
    out = []
    while (v := a + len(out) * step) * sign <= b * sign + 1e-9:
        out.append(round(v, 12))
    return tuple(out)


def parse_count(text):
    """A nonnegative integer, written out or as a float such as 1e6."""
    f = parse_finite(text)
    if f < 0 or f != int(f):
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    try:
        return int(text)  # exact past 2**53, where f is rounded
    except ValueError:
        return int(f)


def parse_finite(text):
    try:
        f = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a number, got %r" % text)
    if not math.isfinite(f):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return f


def _joined(vals):
    return ",".join(repr(v) for v in vals)


# Every experiment option, once: dest -> (flag, converter, render_args form,
# metavar, help). The converter also reads --config values, and
# ExperimentConfig checks what it returns. The default is ExperimentConfig's
# field of that name; --k, which render_args leaves out (it renders the
# variances), defaults to K_DEFAULT. harness.EXPERIMENTS says which kinds take
# each.
OPTIONS = {
    "p_db": ("--p-db", parse_sweep, _joined, "SWEEP",
             "power sweep in dB, start:stop:step or comma list; "
             "use --p-db=-10:40:5 for negative starts"),
    "deltas": ("--delta", parse_sweep, _joined, "LIST", "bin sizes in (0,1), comma list"),
    "delta_policy": ("--delta-policy", str, str, "{%s}" % ",".join(POLICIES),
                     "bin-size rule over the power sweep"),
    "variances": ("--variances", parse_sweep, _joined, "LIST",
                  "mean gains per receiver, nonincreasing; kuser takes 1/k"),
    "r_th": ("--r-th", parse_finite, repr, None,
             "target rate in bits/s/Hz for outage counting"),
    "eps": ("--eps", parse_finite, repr, None, "bisection accuracy"),
    "trials": ("--trials", parse_count, str, None,
               "trials per sweep point for fixed-size runs"),
    "min_outage_events": ("--min-outage-events", parse_count, str, None,
                          "event target for adaptive stopping"),
    "trial_cap": ("--trial-cap", parse_count, str, None,
                  "trial ceiling per point for adaptive stopping"),
    "seed": ("--seed", parse_count, str, None,
             "master seed; results are bit-identical given (config, seed)"),
    "workers": ("--workers", parse_count, str, None,
                "worker threads; 0 means $%s or all cores; never affects output bytes"
                % WORKERS_ENV),
    "k": ("--k", parse_count, None, None,
          "receiver count, with variances 1/k; --variances, if given, must match it"),
}
K_DEFAULT = 4
DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)} | {"k": K_DEFAULT}


def build_parser():
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", default=None, help="write results to this file instead of stdout")
    io.add_argument("--json", action="store_true", help="emit a JSON record array instead of CSV")
    io.add_argument("--config", default=None,
                    help="JSON file of option defaults; explicit flags win")

    parser = argparse.ArgumentParser(
        prog="nomafb",
        description="Monte Carlo experiments for max-min NOMA with quantized channel feedback.")
    sub = parser.add_subparsers(dest="kind", required=True, metavar="EXPERIMENT")
    for kind, exp in EXPERIMENTS.items():
        # A group's add_argument skips the parser's metavar check, which
        # builds a help formatter per flag; OPTIONS' metavars are fixed.
        group = sub.add_parser(kind, parents=[io], help=exp.help).add_argument_group(
            "%s options" % kind)
        for dest, (flag, conv, render, metavar, text) in OPTIONS.items():
            if dest in SHARED_OPTIONS + exp.options:
                shown = render(DEFAULTS[dest]) if render else str(DEFAULTS[dest])
                if dest == "delta_policy":  # what the default runs: diversity's is a policy
                    runs = ExperimentConfig(kind).policy
                    shown += "" if runs == shown else ": its policy curve runs %s" % runs
                group.add_argument(flag, dest=dest, type=conv, default=None, metavar=metavar,
                                   help="%s (default %s)" % (text, shown))
    return parser


def _load_config_file(parser, path, kind):
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
        if dest not in SHARED_OPTIONS + EXPERIMENTS[kind].options:
            parser.error("--config %s: %s takes no option %r" % (path, kind, key))
        conv = OPTIONS[dest][1]
        try:
            if isinstance(value, (list, tuple)):
                out[dest] = conv(_joined(value))
            else:
                out[dest] = conv(value if isinstance(value, str) else repr(value))
        except argparse.ArgumentTypeError as e:
            parser.error("--config %s: option %r: %s" % (path, key, e))
    return out


def parse_config(argv=None):
    """argv -> (ExperimentConfig, io options dict). Flags beat --config beats defaults."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    values = _load_config_file(parser, ns.config, ns.kind) if ns.config else {}
    values.update((dest, v) for dest in OPTIONS if (v := getattr(ns, dest, None)) is not None)
    k = values.pop("k", None)
    if EXPERIMENTS[ns.kind].k_user and "variances" not in values:
        k = K_DEFAULT if k is None else k
        if k > MAX_RECEIVERS:
            parser.error("--k %d: kuser needs 2 to %d receivers" % (k, MAX_RECEIVERS))
        values["variances"] = tuple(1.0 / (i + 1) for i in range(k))
    if k is not None and k != len(values["variances"]):
        parser.error("--k %d does not match --variances, which gives %d receivers"
                     % (k, len(values["variances"])))
    try:
        cfg = ExperimentConfig(kind=ns.kind, **values)
    except ValueError as e:
        parser.error(str(e))
    return cfg, {"out": ns.out, "json": ns.json}


def render_args(cfg):
    """Canonical argv for a config; parse_config(render_args(cfg)) round-trips.

    Values are glued on with '=' so negative sweep entries survive argparse.
    """
    return [cfg.kind] + ["%s=%s" % (flag, render(getattr(cfg, dest)))
                         for dest, (flag, _, render, _, _) in OPTIONS.items()
                         if render and dest in cfg.options]


def stats_rows(stats):
    """RunStats -> list of row dicts in the output order."""
    return [dict(zip(COLUMNS, (stats.experiment, stats.sweep, point.sweep_value, point.metric,
                               point.value, point.stderr, point.n, stats.seed)))
            for point in stats.points]


def render_csv(stats):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in stats_rows(stats):
        writer.writerow([row[c] for c in COLUMNS])
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
    try:
        stats = run_experiment(cfg, progress=functools.partial(print, file=sys.stderr))
        for note in stats.notes:
            print("note: %s" % note, file=sys.stderr)
        text = render_json(stats) if opts["json"] else render_csv(stats)
        _write_out(text, opts["out"])
    except (ValueError, RuntimeError, ArithmeticError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    print("done in %.1fs" % (time.time() - started), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
