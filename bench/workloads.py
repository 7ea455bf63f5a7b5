"""The benchmark's workloads and the checks every output of theirs must pass.

A workload is a fixed argv for ``nomafb.cli.main``; each run appends its seed,
worker count and output path. The checks below hold for every seed, so they
run on every output the benchmark produces. Expectations are written out here
rather than derived from ``nomafb``'s own parser, so a parser change cannot
quietly move them.
"""

import csv
import io
import math
from dataclasses import dataclass

COLUMNS = ("experiment", "sweep", "sweep_value", "metric", "value", "stderr", "n", "seed")

# Trials per random block; an adaptive sweep point keeps a whole number of blocks.
CHUNK = 1 << 14

# A VLE mean may sit this many standard errors from its exact value. With 12
# cells per output, chance alone fails a correct output with probability ~7e-6.
VLE_Z = 5.0

VARIANCES = (1.0, 0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    sweep: str
    values: tuple
    metrics: tuple
    trials: int  # 0 for adaptive stopping
    min_events: int = 0

    @property
    def kind(self):
        return self.argv[0]


def _table(text):
    """CSV text -> {(sweep_value, metric): row}, rejecting malformed input."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("CSV header is not %s" % ",".join(COLUMNS))
    table = {}
    for row in csv.DictReader(io.StringIO(text)):
        try:
            row = dict(row, sweep_value=float(row["sweep_value"]), value=float(row["value"]),
                       stderr=float(row["stderr"]), n=int(row["n"]), seed=int(row["seed"]))
        except (TypeError, ValueError) as e:
            raise ValueError("unparseable row %r: %s" % (row, e))
        key = (row["sweep_value"], row["metric"])
        if key in table:
            raise ValueError("duplicate row for %s" % (key,))
        table[key] = row
    return table


def point_sizes(text):
    """{sweep_value: n} of one output; n sums to its point-trials."""
    return {value: row["n"] for (value, _), row in _table(text).items()}


def check_output(wl, text, seed):
    """Problems found in one output of workload wl at seed; empty when correct."""
    try:
        table = _table(text)
    except ValueError as e:
        return [str(e)]
    expected = {(v, m) for v in wl.values for m in wl.metrics}
    problems = ["missing row %s" % (k,) for k in sorted(expected - table.keys())]
    problems += ["unexpected row %s" % (k,) for k in sorted(table.keys() - expected)]
    for key, row in sorted(table.items()):
        if (row["experiment"], row["sweep"], row["seed"]) != (wl.kind, wl.sweep, seed):
            problems.append("row %s is labelled %s/%s/seed %d" % (
                key, row["experiment"], row["sweep"], row["seed"]))
        if not (math.isfinite(row["value"]) and math.isfinite(row["stderr"])
                and row["stderr"] >= 0):
            problems.append("row %s has value %r, stderr %r" % (key, row["value"], row["stderr"]))
    for v in wl.values:
        ns = {table[k]["n"] for k in table if k[0] == v}
        if len(ns) > 1:
            problems.append("sweep point %g mixes n values %s" % (v, sorted(ns)))
        for n in ns:
            if wl.trials and n != wl.trials:
                problems.append("sweep point %g has n=%d, expected %d" % (v, n, wl.trials))
            if not wl.trials and (n < CHUNK or n % CHUNK):
                problems.append("sweep point %g has n=%d, not whole blocks" % (v, n))
    if problems:
        return problems
    return INVARIANTS[wl.name](wl, table)


# ---------------------------------------------------------------------------
# seed-independent invariants, one function per workload

def _minrate(wl, table):
    problems = []
    for v in wl.values:
        full = table[(v, "r_full")]["value"]
        for m in wl.metrics:
            if m != "r_full" and table[(v, m)]["value"] > full:
                problems.append("p_db=%g: %s %r exceeds r_full %r"
                                % (v, m, table[(v, m)]["value"], full))
    return problems


def vle_mean_exact(delta, lam, t):
    """Exact mean VLE length of lower-edge levels of an exponential gain with mean lam.

    Level n < t covers [n*delta, (n+1)*delta) and costs floor(log2(n+2)) bits;
    level t takes the tail from t*delta on.
    """
    terms = [((n + 2).bit_length() - 1)
             * (math.exp(-n * delta / lam) - math.exp(-(n + 1) * delta / lam))
             for n in range(t)]
    terms.append(((t + 2).bit_length() - 1) * math.exp(-t * delta / lam))
    return math.fsum(terms)


def _rateloss(wl, table):
    from nomafb.quantizer import default_t_rate

    problems = []
    for d in wl.values:
        t = default_t_rate(d, VARIANCES[0])
        for rx, lam in zip((1, 2), VARIANCES):
            row = table[(d, "vle_rx%d" % rx)]
            exact = vle_mean_exact(d, lam, t)
            if abs(row["value"] - exact) > VLE_Z * row["stderr"]:
                problems.append("delta=%g: vle_rx%d %r is more than %g stderr (%r) from exact %r"
                                % (d, rx, row["value"], VLE_Z, row["stderr"], exact))
    return problems


def _outage(wl, table):
    problems = []
    for v in wl.values:
        for m in wl.metrics:
            if not 0.0 <= table[(v, m)]["value"] <= 1.0:
                problems.append("p_db=%g: %s %r is not a probability" % (v, m, table[(v, m)]["value"]))
        row = table[(v, "out_full")]
        if round(row["value"] * row["n"]) < wl.min_events:
            problems.append("p_db=%g: stopped at %d trials with %d < %d events"
                            % (v, row["n"], round(row["value"] * row["n"]), wl.min_events))
    return problems


def _kuser(wl, table):
    problems = []
    for d in wl.values:
        loss, out_q = table[(d, "outage_loss")]["value"], table[(d, "out_qo")]["value"]
        if not 0.0 <= loss <= out_q:
            problems.append("delta=%g: outage_loss %r is outside [0, out_qo=%r]" % (d, loss, out_q))
    return problems


INVARIANTS = {
    "minrate_psweep": _minrate,
    "rateloss_dsweep": _rateloss,
    "outage_adaptive": _outage,
    "kuser4": _kuser,
}

_P_SWEEP = tuple(float(p) for p in range(0, 31, 5))
_DELTAS = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="minrate_psweep",
        argv=("minrate", "--p-db", "0:30:5", "--delta", "0.01,0.05", "--trials", "1e6"),
        sweep="p_db", values=_P_SWEEP,
        metrics=("r_full", "r_qr[delta=0.01]", "r_qr[delta=0.05]", "r_tdma"),
        trials=1_000_000),
    Workload(
        name="rateloss_dsweep",
        argv=("rateloss", "--delta", ",".join(map(str, _DELTAS)), "--p-db", "10", "--trials", "1e6"),
        sweep="delta", values=_DELTAS,
        metrics=("r_qr", "r_tdma", "rate_loss", "rate_loss_bound", "vle_rx1", "vle_rx2", "vle_min"),
        trials=1_000_000),
    Workload(
        name="outage_adaptive",
        argv=("outage", "--p-db", "10:30:5", "--delta", "0.01,0.2", "--min-outage-events", "10000"),
        sweep="p_db", values=(10.0, 15.0, 20.0, 25.0, 30.0),
        metrics=("out_full", "out_qo[delta=0.01]", "out_qo[delta=0.2]", "out_tdma"),
        trials=0, min_events=10_000),
    Workload(
        name="kuser4",
        argv=("kuser", "--k", "4", "--delta", "0.05,0.1,0.2", "--p-db", "10", "--trials", "1e5"),
        sweep="delta", values=(0.05, 0.1, 0.2),
        metrics=("rate_loss", "out_full", "out_qo", "outage_loss", "vle_r_min", "vle_o_min"),
        trials=100_000),
)}
