"""Command-line parsing, config precedence, and output formats."""

import csv
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import glibc, minor_faults
from nomafb import alloc, cli, harness
from nomafb.harness import (
    EXPERIMENTS,
    P_DB_MAX,
    POLICIES,
    SHARED_OPTIONS,
    ExperimentConfig,
    RunStats,
    run_experiment,
)

# Derandomized, with no example database, so every run checks the same draws.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def tiny(kind, n=1000):
    """Flags that keep a run of `kind` to n trials: its trial count, or the
    cap of its adaptive stopping."""
    flag = "--trial-cap" if "trial_cap" in EXPERIMENTS[kind].options else "--trials"
    return [flag, str(n)]


class TestParseSweep:
    def test_colon_grid_is_inclusive(self):
        assert cli.parse_sweep("0:30:5") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    def test_negative_start(self):
        assert cli.parse_sweep("-10:10:10") == (-10.0, 0.0, 10.0)

    def test_descending(self):
        assert cli.parse_sweep("10:0:-5") == (10.0, 5.0, 0.0)

    def test_comma_list(self):
        assert cli.parse_sweep("0.01,0.05,0.2") == (0.01, 0.05, 0.2)

    def test_single_value(self):
        assert cli.parse_sweep("10") == (10.0,)

    def test_fractional_step_has_no_drift(self):
        got = cli.parse_sweep("0:1:0.1")
        assert len(got) == 11
        assert got[3] == 0.3
        assert got[-1] == 1.0

    def test_bad_sweeps(self):
        for text in ("", "1:2", "1:2:3:4", "a:b:c", "0:10:0", "0:10:-1", "1,two"):
            with pytest.raises(cli.argparse.ArgumentTypeError):
                cli.parse_sweep(text)

    def test_delta_range_check(self, capsys):
        for text in ("0.1,1.5", "0"):
            with pytest.raises(SystemExit) as exc:
                cli.parse_config(["minrate", "--delta", text])
            assert exc.value.code == 2
            assert "every delta must lie in (0, 1)" in capsys.readouterr().err

    def test_count_accepts_scientific(self):
        assert cli.parse_count("1e6") == 1_000_000
        with pytest.raises(cli.argparse.ArgumentTypeError):
            cli.parse_count("1.5")
        with pytest.raises(cli.argparse.ArgumentTypeError):
            cli.parse_count("-3")

    def test_range_limit_is_inclusive(self):
        limit = cli.MAX_SWEEP_POINTS
        assert len(cli.parse_sweep("1:%d:1" % limit)) == limit
        with pytest.raises(cli.argparse.ArgumentTypeError, match="more than %d points" % limit):
            cli.parse_sweep("0:%d:1" % limit)
        with pytest.raises(cli.argparse.ArgumentTypeError):
            cli.parse_sweep("0:0:1e-13")  # the 1e-9 stop tolerance alone spans 10,000 steps

    def test_huge_range_is_rejected_before_it_is_built(self, capsys):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(["minrate", "--p-db", "0:1e8:1", "--trials", "100"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "more than 10000 points" in err
        assert peak < 10 << 20  # the 10^8 points would take gigabytes

    def test_count_keeps_integers_past_float_precision(self):
        assert cli.parse_count(str(2**53 + 1)) == 2**53 + 1
        assert cli.parse_count(str(2**64 + 3)) == 2**64 + 3

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "-1e400", "Infinity"])
    def test_count_rejects_non_finite(self, text):
        with pytest.raises(cli.argparse.ArgumentTypeError):
            cli.parse_count(text)

    @pytest.mark.parametrize("flag", ["--trials", "--trial-cap", "--min-outage-events", "--seed"])
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_count_is_a_usage_error(self, flag, text, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["outage", flag + "=" + text])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestNonFiniteInput:
    # A non-finite range bound used to loop without end, and a non-finite
    # value used to run and print NaN rows; both are usage errors now.
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400", "1,inf", "nan,2",
                                      "0:inf:5", "-inf:0:5", "0:10:inf", "0:10:nan", "nan:1:1"])
    def test_sweep_rejects_non_finite(self, text):
        with pytest.raises(cli.argparse.ArgumentTypeError):
            cli.parse_sweep(text)

    @pytest.mark.parametrize("text", ["inf", "Infinity", "nan", "1e400"])
    def test_positive_rejects_non_finite(self, text):
        # --r-th and --eps: ExperimentConfig checks the sign, the parser finiteness
        with pytest.raises(cli.argparse.ArgumentTypeError):
            cli.parse_finite(text)

    @pytest.mark.parametrize("argv", [
        ["minrate", "--p-db", "inf", "--trials", "100"],
        ["minrate", "--p-db", "0:inf:5"],
        ["rateloss", "--delta", "nan"],
        ["minrate", "--variances", "inf,1"],
        ["outage", "--r-th", "inf"],
        ["kuser", "--eps", "inf"],
    ])
    def test_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("p-db", [math.inf]), ("p-db", "0:inf:5"), ("deltas", [math.nan]),
        ("variances", [math.inf, 1.0]), ("r-th", math.inf), ("eps", math.nan),
    ])
    def test_config_value_is_a_usage_error(self, key, value, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))  # JSON's Infinity and NaN
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["kuser", "--config", str(path)])
        assert exc.value.code == 2
        assert repr(key) in capsys.readouterr().err


class TestInputHoles:
    def test_minrate_infinite_variance_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["minrate", "--variances", "inf,1", "--trials", "100"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


# Every rule on the shape and range of a config, as a command line and as the
# ExperimentConfig fields it gives, with a fragment of both error messages. Each
# must fail before any work starts: a ValueError from the library, exit 2 from
# the CLI (flags or --config) with no progress line.
KIND_RULES = [
    (["rateloss", "--p-db", "0,10"], {"p_db": (0.0, 10.0)}, "exactly one p_db"),
    (["kuser", "--p-db", "0,10"], {"p_db": (0.0, 10.0)}, "exactly one p_db"),
    # fixed-bin feedback never reads P, so it takes none
    (["feedback", "--p-db", "0,10"], {"p_db": (0.0, 10.0)},
     "feedback under delta_policy fixed does not read p_db"),
    (["outageloss", "--p-db", "0,10", "--delta", "0.01,0.2"],
     {"p_db": (0.0, 10.0), "deltas": (0.01, 0.2)}, "exactly one delta"),
    (["diversity", "--delta", "0.1,0.2"], {"deltas": (0.1, 0.2)}, "exactly one delta"),
    (["minrate", "--variances", "1,0.5,0.2"], {"variances": (1.0, 0.5, 0.2)},
     "exactly two receivers"),
    (["outage", "--variances", "1"], {"variances": (1.0,)}, "exactly two receivers"),
    (["kuser", "--variances", "1"], {"variances": (1.0,)}, "2 to 64 receivers"),
    (["outage", "--r-th", "600"], {"r_th": 600.0}, "r_th below 512"),
    (["outage", "--r-th", "512"], {"r_th": 512.0}, "r_th below 512"),
    (["outageloss", "--r-th", "1100"], {"r_th": 1100.0}, "r_th below 1024"),
    (["diversity", "--r-th", "1024"], {"r_th": 1024.0}, "r_th below 1024"),
    (["minrate", "--p-db", "inf"], {"p_db": (math.inf,)}, "finite"),
    (["minrate", "--p-db", "0,nan"], {"p_db": (0.0, math.nan)}, "finite"),
    (["minrate", "--variances", "inf,1"], {"variances": (math.inf, 1.0)}, "finite"),
    (["outage", "--r-th", "inf"], {"r_th": math.inf}, "finite"),
    (["kuser", "--eps", "nan"], {"eps": math.nan}, "finite"),
    (["minrate", "--p-db", "4000"], {"p_db": (4000.0,)}, "within +-1000 dB"),
    (["minrate", "--p-db=-4000"], {"p_db": (-4000.0,)}, "within +-1000 dB"),
    (["kuser", "--k", "1e9"], {"variances": (1.0,) * 65}, "2 to 64 receivers"),
    # a policy bin must lie in (0, 1): pcube gives 1 or more at P <= 1
    (["outage", "--delta-policy", "pcube", "--p-db", "0,10"],
     {"delta_policy": "pcube", "p_db": (0.0, 10.0)}, "pcube gives delta=1 at p_db=0"),
    (["feedback", "--delta-policy", "pcube", "--p-db", "10,0"],
     {"delta_policy": "pcube", "p_db": (10.0, 0.0)}, "pcube gives delta=1 at p_db=0"),
    (["diversity", "--delta-policy", "pcube", "--p-db=-10:10:2"],
     {"delta_policy": "pcube", "p_db": tuple(float(v) for v in range(-10, 11, 2))},
     "outside (0, 1)"),
    (["outage", "--delta-policy", "pcube", "--p-db", "1e-300"],
     {"delta_policy": "pcube", "p_db": (1e-300,)}, "pcube gives delta=1 "),
    # fewer than 2^53 bins, through a small delta, a large mean gain or a policy
    (["rateloss", "--delta", "1e-16"], {"deltas": (1e-16,)}, "2^53"),
    (["minrate", "--variances", "1e308,1"], {"variances": (1e308, 1.0)}, "2^53"),
    (["feedback", "--delta-policy", "pcube", "--p-db", "1000"],
     {"delta_policy": "pcube", "p_db": (1000.0,)}, "2^53"),
    # a sweep value given twice, or two fixed deltas of a p_db sweep whose
    # %g curve labels collide
    (["minrate", "--p-db", "10,10"], {"p_db": (10.0, 10.0)}, "p_db=10 is given twice"),
    (["minrate", "--p-db", "0,-0"], {"p_db": (0.0, -0.0)}, "p_db=-0 is given twice"),
    (["rateloss", "--delta", "0.1,0.1"], {"deltas": (0.1, 0.1)}, "delta=0.1 is given twice"),
    (["minrate", "--p-db", "10", "--delta", "0.01000001,0.01000002"],
     {"p_db": (10.0,), "deltas": (0.01000001, 0.01000002)}, "curves delta=0.01;"),
    (["outage", "--p-db", "10", "--delta", "0.2000001,0.2000002"],
     {"p_db": (10.0,), "deltas": (0.2000001, 0.2000002)}, "curves delta=0.2;"),
    (["minrate", "--p-db", "0,10", "--delta", "0.1,0.1"],
     {"p_db": (0.0, 10.0), "deltas": (0.1, 0.1)}, "curves delta=0.1;"),
]
RULE_IDS = [" ".join(argv) for argv, _, _ in KIND_RULES]
PROGRESS = re.compile(r"^\w+ (p_db|delta)=", re.M)


class TestKindRules:
    @pytest.mark.parametrize("argv, fields, message", KIND_RULES, ids=RULE_IDS)
    def test_config_raises(self, argv, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(kind=argv[0], **fields)

    def assert_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + tiny(argv[0]))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and message in captured.err
        assert "Traceback" not in captured.err and not PROGRESS.search(captured.err)

    @pytest.mark.parametrize("argv, fields, message", KIND_RULES, ids=RULE_IDS)
    def test_flags_are_a_usage_error(self, argv, fields, message, capsys):
        self.assert_usage_error(argv, message, capsys)

    @pytest.mark.parametrize("argv, fields, message", KIND_RULES, ids=RULE_IDS)
    def test_config_file_is_a_usage_error(self, argv, fields, message, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(fields))  # JSON's Infinity and NaN
        self.assert_usage_error([argv[0], "--config", str(path)], message, capsys)

    def test_every_valid_kind_still_runs(self, capsys):
        # the shape each rule allows: one p_db for a delta sweep, one delta
        # for a single-curve p_db sweep, a policy where a kind takes one, and
        # deltas that print alike as %g where they head their own rows
        for argv in (["rateloss", "--delta", "0.1,0.2"], ["outageloss", "--p-db", "0,10"],
                     ["rateloss", "--delta", "0.2000001,0.2000002"],
                     ["feedback", "--delta-policy", "pcube", "--p-db", "10,20"],
                     ["diversity", "--delta-policy", "pcube", "--p-db", "10,20"],
                     ["outage", "--r-th", "511"], ["rateloss", "--delta", "1e-14"],
                     ["feedback", "--delta-policy", "pcube", "--p-db", "300"]):
            assert cli.main(argv + tiny(argv[0])) == 0
        assert PROGRESS.search(capsys.readouterr().err)

    @pytest.mark.parametrize("kind", [*EXPERIMENTS, "kuser --k 64", "kuser --variances 1,1e-300"])
    def test_every_kind_runs_at_the_power_limits(self, kind, capsys):
        # with fixed bins, and with RuntimeWarnings as errors; diversity's
        # min02-pcube bin reaches 2^53 bins near 433 dB, so it stops at 400.
        # Fixed-bin feedback reads no P, so it runs once, at the default.
        top = 400.0 if kind == "diversity" else P_DB_MAX
        name = kind.split()[0]
        unread = "p_db" in EXPERIMENTS[name].unread[0]
        for power in [[]] if unread else [["--p-db=%r" % p_db] for p_db in (-P_DB_MAX, top)]:
            argv = [*kind.split(), *power, *tiny(name)]
            assert cli.main(argv + (["--delta", "0.2"] if kind == "diversity" else [])) == 0
        capsys.readouterr()

    def test_huge_k_is_rejected_before_variances_are_built(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"k": 10**9}))
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(["kuser", "--config", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert "2 to 64 receivers" in capsys.readouterr().err
        assert peak < 10 << 20  # 10^9 variances would take gigabytes


# A value off the default for each option: its flags, and the same value as a
# --config entry (k has no ExperimentConfig field; it sets the variances).
OFF_DEFAULT = {
    "p_db": (["--p-db", "20"], [20.0]),
    "deltas": (["--delta", "0.2"], [0.2]),
    "delta_policy": (["--delta-policy", "pcube"], "pcube"),
    "variances": (["--variances", "1,0.25"], [1.0, 0.25]),
    "r_th": (["--r-th", "2"], 2.0),
    "eps": (["--eps", "0.01"], 0.01),
    "trials": (["--trials", "2000"], 2000),
    "min_outage_events": (["--min-outage-events", "10"], 10),
    "trial_cap": (["--trial-cap", "2000"], 2000),
    "seed": (["--seed", "5"], 5),
    "k": (["--k", "3"], 3),
}
TAKEN = [(kind, dest) for kind, exp in EXPERIMENTS.items() for dest in cli.OPTIONS
         if dest in SHARED_OPTIONS + exp.options and dest != "workers"]
NOT_TAKEN = [(kind, dest) for kind, exp in EXPERIMENTS.items() for dest in cli.OPTIONS
             if dest not in SHARED_OPTIONS + exp.options]
# Options a kind takes but leaves unread under one policy, with the policy
# flags that select it.
UNREAD = [
    ("outage", ["--delta-policy", "pcube"], "deltas"),
    ("feedback", ["--delta-policy", "pcube"], "deltas"),
    ("feedback", [], "p_db"),
]


def pair_ids(pairs):
    return ["%s-%s" % (kind, dest) for kind, dest in pairs]


def run_csv(argv, capsys):
    assert cli.main(argv + ["--workers", "1"]) == 0
    return capsys.readouterr().out


class TestOptionTable:
    """harness.EXPERIMENTS names the options each kind takes. The parser,
    --config and ExperimentConfig refuse every other one, and each one taken
    moves the output."""

    def assert_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        assert not PROGRESS.search(captured.err)

    @pytest.mark.parametrize("kind, dest", NOT_TAKEN, ids=pair_ids(NOT_TAKEN))
    def test_an_option_not_taken_is_refused(self, kind, dest, tmp_path, capsys):
        flags, value = OFF_DEFAULT[dest]
        self.assert_usage_error([kind, *flags, *tiny(kind)],
                                "unrecognized arguments: %s" % " ".join(flags), capsys)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({dest: value}))
        self.assert_usage_error([kind, "--config", str(path), *tiny(kind)],
                                "%s takes no option %r" % (kind, dest), capsys)
        if dest != "k":
            field = tuple(value) if isinstance(value, list) else value
            with pytest.raises(ValueError, match="^%s does not read %s$" % (kind, dest)):
                ExperimentConfig(kind=kind, **{dest: field})

    @pytest.mark.parametrize("kind, policy, dest", UNREAD)
    def test_an_option_the_policy_leaves_unread_is_refused(self, kind, policy, dest, tmp_path,
                                                           capsys):
        flags, value = OFF_DEFAULT[dest]
        name = policy[-1] if policy else "fixed"
        message = "%s under delta_policy %s does not read %s" % (kind, name, dest)
        self.assert_usage_error([kind, *policy, *flags, *tiny(kind)], message, capsys)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({dest: value}))
        self.assert_usage_error([kind, *policy, "--config", str(path), *tiny(kind)], message,
                                capsys)
        with pytest.raises(ValueError, match="^%s$" % message):
            ExperimentConfig(kind=kind, delta_policy=name, **{dest: tuple(value)})
        # and as a numpy array of several values, whose != has no one truth value
        with pytest.raises(ValueError, match="^%s$" % message):
            ExperimentConfig(kind=kind, delta_policy=name,
                             **{dest: np.array([value[0], 2.0 * value[0]])})
        # at its default value it is accepted, and the run is the one without it
        default = cli.OPTIONS[dest][2](cli.DEFAULTS[dest])
        assert (run_csv([kind, *policy, *tiny(kind), flags[0], default], capsys)
                == run_csv([kind, *policy, *tiny(kind)], capsys))

    @pytest.mark.parametrize("kind, dest", TAKEN, ids=pair_ids(TAKEN))
    def test_every_option_taken_moves_the_output(self, kind, dest, capsys):
        # Adaptive kinds run up to three chunks, so the event target also
        # moves the trial count; an option unread under the fixed policy is
        # changed under one. The worker count is the one exception: it never
        # moves a byte (TestOutputFormats).
        base = [kind, *tiny(kind, 3 * 16384 if "trial_cap" in EXPERIMENTS[kind].options else 1000)]
        if dest in EXPERIMENTS[kind].unread[0]:
            base += ["--delta-policy", "pcube"]
        assert run_csv(base + OFF_DEFAULT[dest][0], capsys) != run_csv(base, capsys)

    @pytest.mark.parametrize("kind", EXPERIMENTS)
    def test_help_lists_exactly_the_options_taken(self, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([kind, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        taken = [flag for dest, (flag, *_) in cli.OPTIONS.items()
                 if dest in SHARED_OPTIONS + EXPERIMENTS[kind].options]
        assert sorted(listed) == sorted(taken + ["--help", "--out", "--json", "--config"])

    @pytest.mark.parametrize("kind", [k for k, exp in EXPERIMENTS.items()
                                      if "delta_policy" in exp.options])
    def test_help_names_the_policy_the_default_runs(self, kind, capsys):
        # Under the default fixed, diversity still draws a policy curve, by
        # the config's policy; the help says which, not just "fixed".
        with pytest.raises(SystemExit):
            cli.main([kind, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        runs = ExperimentConfig(kind=kind).policy
        default = ("(default fixed)" if runs == "fixed"
                   else "(default fixed: its policy curve runs %s)" % runs)
        assert "bin-size rule over the power sweep " + default in text
        assert (runs != "fixed") == (kind == "diversity")


class TestParseSweepProperties:
    @PROPERTY
    @given(st.lists(finite, min_size=1, max_size=8))
    def test_comma_list_round_trips(self, vals):
        assert cli.parse_sweep(",".join(repr(v) for v in vals)) == tuple(vals)

    @PROPERTY
    @given(st.integers(-10**6, 10**6), st.integers(0, 50),
           st.integers(-1000, 1000).filter(lambda s: s != 0))
    def test_integer_grid_is_exact_and_inclusive(self, start, steps, step):
        stop = start + steps * step
        grid = cli.parse_sweep("%d:%d:%d" % (start, stop, step))
        assert grid == tuple(float(start + i * step) for i in range(steps + 1))
        assert cli.parse_sweep(",".join(repr(v) for v in grid)) == grid


@st.composite
def configs(draw):
    """Any config ExperimentConfig accepts; the shapes a kind rejects are dropped.

    Each kind draws only the options it takes, less those its policy leaves
    unread. Mean gains and deltas lean on typical values, since most of their
    float range needs 2^53 bins or more; one_of keeps the whole range.
    """
    kind = draw(st.sampled_from(tuple(EXPERIMENTS)))
    exp = EXPERIMENTS[kind]
    unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    options = dict(
        variances=st.lists(st.one_of(st.floats(1e-3, 1e3), positive), min_size=2,
                           max_size=5 if exp.k_user else 2).map(
            lambda v: tuple(sorted(v, reverse=True))),
        p_db=st.lists(st.floats(-P_DB_MAX, P_DB_MAX), min_size=1, max_size=4).map(tuple),
        deltas=st.lists(st.one_of(st.floats(1e-3, 0.999), unit), min_size=1,
                        max_size=4).map(tuple),
        delta_policy=st.sampled_from(POLICIES),
        r_th=positive,
        eps=positive,
        trials=st.integers(1, 2**70),
        min_outage_events=st.integers(1, 2**70),
        trial_cap=st.integers(1, 2**70),
        seed=st.integers(0, 2**70),
        workers=st.integers(0, 64),
    )
    fields = {name: draw(options[name]) for name in options
              if name in SHARED_OPTIONS + exp.options}
    unread = exp.unread[fields.get("delta_policy", "fixed") != "fixed"]
    try:
        return ExperimentConfig(kind=kind, **{k: v for k, v in fields.items() if k not in unread})
    except ValueError:
        assume(False)


class TestRenderArgsProperties:
    @PROPERTY
    @given(configs(), st.booleans())
    def test_render_then_parse_is_identity(self, cfg, as_json):
        back, opts = cli.parse_config(cli.render_args(cfg) + ["--json"] * as_json)
        assert back == cfg
        assert opts == {"out": None, "json": as_json}


class TestParseConfig:
    def test_minrate_example(self):
        cfg, opts = cli.parse_config(
            ["minrate", "--p-db", "0:30:5", "--delta", "0.01,0.05", "--trials", "1e6"]
        )
        assert cfg.kind == "minrate"
        assert cfg.p_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert cfg.deltas == (0.01, 0.05)
        assert cfg.trials == 1_000_000
        assert opts == {"out": None, "json": False}

    def test_policy_example(self):
        cfg, _ = cli.parse_config(["outage", "--p-db=-10:40:5", "--delta-policy", "min02-pcube"])
        assert cfg.delta_policy == "min02-pcube"
        assert cfg.p_db[0] == -10.0 and cfg.p_db[-1] == 40.0
        assert [bins[0].delta for _, _, bins in cfg.points[:3]] == [0.2] * 3

    def test_kuser_default_variances(self):
        cfg, _ = cli.parse_config(["kuser"])
        assert cfg.variances == (1.0, 0.5, 1.0 / 3.0, 0.25)

    def test_kuser_k_flag(self):
        cfg, _ = cli.parse_config(["kuser", "--k", "3"])
        assert cfg.variances == (1.0, 0.5, 1.0 / 3.0)
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["kuser", "--k", "1"])
        assert exc.value.code == 2

    def test_explicit_variances_beat_k(self):
        cfg, _ = cli.parse_config(["kuser", "--k", "2", "--variances", "1,1"])
        assert cfg.variances == (1.0, 1.0)

    def test_k_must_match_explicit_variances(self, tmp_path, capsys):
        # Variances of another length would run a K the user did not ask for.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"k": 3, "variances": [1, 0.5]}))
        for argv in (["kuser", "--k", "3", "--variances", "1,0.5"],
                     ["kuser", "--config", str(path)],
                     ["kuser", "--config", str(path), "--k", "3"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--trials", "1000"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not PROGRESS.search(captured.err)
            assert "--k 3 does not match --variances, which gives 2 receivers" in captured.err
        # a matching --k runs, from a flag or from the file
        assert cli.main(["kuser", "--config", str(path), "--k", "2", "--trials", "1000"]) == 0
        path.write_text(json.dumps({"k": 2, "variances": [1, 0.5]}))
        assert cli.main(["kuser", "--config", str(path), "--trials", "1000"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("kind", [k for k in EXPERIMENTS if not EXPERIMENTS[k].k_user])
    def test_k_in_config_is_refused_for_two_user_kinds(self, kind, tmp_path, capsys):
        # A two-user kind always runs two receivers; a "k" it dropped would
        # run something other than the file asks for.
        path = tmp_path / "run.json"
        for k in (2, 3):
            path.write_text(json.dumps({"k": k}))
            with pytest.raises(SystemExit) as exc:
                cli.main([kind, "--config", str(path), *tiny(kind)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not PROGRESS.search(captured.err)
            assert "%s takes no option 'k'" % kind in captured.err

    def test_bad_delta_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["rateloss", "--delta", "1.5"])
        assert exc.value.code == 2
        assert "delta" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["minrate", "--deltas", "0.1"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["--trials", "100"])
        assert exc.value.code == 2

    def test_config_rule_violation_exits_2(self, capsys):
        # increasing variances violate the receiver ordering rule
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["minrate", "--variances", "0.5,1.0"])
        assert exc.value.code == 2
        assert "nonincreasing" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["outage", "--delta-policy", "cube"])
        assert exc.value.code == 2
        assert "choose from fixed, pcube, min02-pcube" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"trials": 5000, "p-db": "0:10:5", "seed": 4}))
        cfg, _ = cli.parse_config(["minrate", "--config", str(path)])
        assert (cfg.trials, cfg.p_db, cfg.seed) == (5000, (0.0, 5.0, 10.0), 4)
        cfg, _ = cli.parse_config(["minrate", "--config", str(path), "--trials", "9"])
        assert cfg.trials == 9  # explicit flag wins
        assert cfg.seed == 4

    def test_file_accepts_native_lists(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"deltas": [0.01, 0.2], "variances": [1.0, 1.0]}))
        cfg, _ = cli.parse_config(["outageloss", "--config", str(path)])
        assert cfg.deltas == (0.01, 0.2)
        assert cfg.variances == (1.0, 1.0)

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"chunk": 5}))
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["minrate", "--config", str(path)])
        assert exc.value.code == 2
        assert "chunk" in capsys.readouterr().err

    def test_unreadable_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.parse_config(["minrate", "--config", str(tmp_path / "absent.json")])
        assert exc.value.code == 2


class TestRoundTrip:
    def test_render_then_parse_is_identity(self):
        configs = [
            ExperimentConfig(kind="minrate", p_db=(0.0, 10.0), deltas=(0.05,), trials=123),
            ExperimentConfig(kind="outage", p_db=(10.0, 40.0), delta_policy="pcube",
                             min_outage_events=77, trial_cap=10**6),
            ExperimentConfig(kind="kuser", variances=(1.0, 0.5, 1.0 / 3.0), p_db=(10.0,),
                             deltas=(0.05, 0.2), eps=1e-6, seed=11, workers=2),
            ExperimentConfig(kind="diversity", deltas=(0.2,), delta_policy="min02-pcube",
                             r_th=2.0),
        ]
        for cfg in configs:
            back, opts = cli.parse_config(cli.render_args(cfg))
            assert back == cfg
            assert opts == {"out": None, "json": False}

    def test_io_options_render(self):
        cfg = ExperimentConfig(kind="minrate")
        argv = cli.render_args(cfg) + ["--out", "x.csv", "--json"]
        back, opts = cli.parse_config(argv)
        assert back == cfg
        assert opts == {"out": "x.csv", "json": True}


class TestOutputFormats:
    def run_main(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_csv_shape_and_determinism(self, capsys):
        argv = ["minrate", "--p-db", "0,10", "--delta", "0.05", "--trials", "4000",
                "--seed", "3"]
        code, out1, err = self.run_main(argv, capsys)
        assert code == 0
        assert "done in" in err
        rows = list(csv.reader(io.StringIO(out1)))
        assert rows[0] == list(cli.COLUMNS)
        assert len(rows) == 1 + 2 * 3  # two sweep points, three metrics each
        for row in rows[1:]:
            assert row[0] == "minrate"
            assert row[1] == "p_db"
            float(row[4]), float(row[5])
            assert int(row[6]) == 4000
            assert int(row[7]) == 3

        code, out2, _ = self.run_main(argv, capsys)
        assert out2 == out1

    def test_worker_count_never_changes_bytes(self, capsys):
        base = ["outage", "--p-db", "5", "--delta", "0.2", "--min-outage-events", "200",
                "--seed", "8"]
        _, out1, _ = self.run_main(base + ["--workers", "1"], capsys)
        _, out4, _ = self.run_main(base + ["--workers", "4"], capsys)
        assert out1 == out4

    def test_row_order_matches_point_order(self, capsys):
        argv = ["minrate", "--p-db", "0,10", "--delta", "0.01,0.05", "--trials", "2000"]
        _, out, _ = self.run_main(argv, capsys)
        rows = list(csv.reader(io.StringIO(out)))[1:]
        sweep_vals = [float(r[2]) for r in rows]
        assert sweep_vals == sorted(sweep_vals)
        for value in (0.0, 10.0):
            names = [r[3] for r in rows if float(r[2]) == value]
            assert names == sorted(names)

    def test_json_output(self, capsys):
        argv = ["feedback", "--delta", "0.05", "--trials", "3000", "--json"]
        code, out, _ = self.run_main(argv, capsys)
        assert code == 0
        records = json.loads(out)
        assert all(set(r) == set(cli.COLUMNS) for r in records)
        byname = {r["metric"]: r for r in records}
        assert byname["fle_bits"]["value"] == 6
        assert byname["t_bins"]["value"] == 60

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "res.csv"
        argv = ["minrate", "--trials", "2000", "--out", str(target)]
        code, out, _ = self.run_main(argv, capsys)
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith(",".join(cli.COLUMNS))

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        # --out naming a directory: the run completes, and its CSV cannot be written
        argv = ["minrate", "--trials", "2000", "--out", str(tmp_path)]
        code, out, err = self.run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert "error: cannot write %s" % tmp_path in err and "usage:" not in err

    def test_driver_error_exits_1(self, capsys, monkeypatch):
        # An error raised inside a run, after its config passed, is a run error.
        def fail(*args):
            raise RuntimeError("bisection failed")

        monkeypatch.setattr(alloc, "batch_max_min_rate", fail)
        code, out, err = self.run_main(["kuser", "--trials", "2000"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: bisection failed")
        assert "usage:" not in err

    def test_an_eps_past_the_bisection_cap_is_a_usage_error(self, capsys, monkeypatch):
        # Every r_ub of a finite p g is at most 2^10, so eps >= 2^-54 keeps
        # each bisection within alloc.ITERATION_CAP steps; a finer eps is
        # refused before any block is drawn.
        drawn = []
        monkeypatch.setattr(harness, "sample_block", lambda *args: drawn.append(args))
        with pytest.raises(SystemExit) as exc:
            cli.main(["kuser", "--eps", "1e-20", "--trials", "100", "--delta", "0.1"])
        assert exc.value.code == 2 and drawn == []
        assert ("eps must be at least 2^-54: a finer one could need more than 64 bisection "
                "steps") in capsys.readouterr().err
        assert 2.0**-54 == 2.0**10 / 2.0**alloc.ITERATION_CAP
        monkeypatch.undo()
        argv = ["kuser", "--eps", repr(2.0**-54), "--trials", "100", "--delta", "0.1"]
        code, out, _ = self.run_main(argv, capsys)
        assert code == 0 and "kuser,delta,0.1,rate_loss," in out

    def test_cap_note_on_stderr(self, capsys):
        argv = ["outage", "--p-db", "40", "--delta", "0.2", "--min-outage-events", "1e6",
                "--trial-cap", "9000"]
        code, _, err = self.run_main(argv, capsys)
        assert code == 0
        assert "note:" in err and "trial cap" in err

    def test_progress_and_notes_name_the_exact_sweep_value(self, capsys):
        # Two deltas that print alike as %g still get their own progress
        # lines; the CSV keeps its own formatting of the values.
        argv = ["rateloss", "--delta", "0.2000001,0.2000002", "--trials", "1000"]
        code, _, err = self.run_main(argv, capsys)
        assert code == 0
        lines = [line for line in err.splitlines() if PROGRESS.match(line)]
        assert lines == ["rateloss delta=0.2000001: 1000 trials",
                         "rateloss delta=0.2000002: 1000 trials"]
        argv = ["outage", "--p-db", "40", "--delta", "0.2", "--min-outage-events", "1e6",
                "--trial-cap", "1000"]
        code, _, err = self.run_main(argv, capsys)
        assert code == 0
        assert "outage p_db=40.0: 1000 trials" in err
        assert "note: p_db=40.0: trial cap 1000 reached" in err

    def test_empty_stats_render_header_only(self):
        text = cli.render_csv(RunStats(experiment="minrate", sweep="p_db", seed=0))
        assert text == ",".join(cli.COLUMNS) + "\n"

    def test_float_cells_are_full_precision(self):
        stats = RunStats(experiment="minrate", sweep="p_db", seed=0)
        from nomafb.harness import MetricPoint
        stats.points.append(MetricPoint(10.0, "r_full", 1.0 / 3.0, 0.125, 7))
        text = cli.render_csv(stats)
        assert "0.3333333333333333" in text
        assert "0.125" in text

    def test_numpy_floats_render_as_python_floats(self):
        # A library caller may configure a run with numpy scalars; the CSV
        # holds the same bytes, never an "np.float64(...)" repr.
        def csv_of(f):
            cfg = ExperimentConfig(kind="minrate", variances=(f(1.0), f(0.5)),
                                   p_db=(f(10.0), f(12.5)), deltas=(f(0.01), f(0.2)),
                                   trials=2000, workers=1)
            return cli.render_csv(run_experiment(cfg))

        text = csv_of(np.float64)
        assert text == csv_of(float)
        assert "np." not in text and ",12.5," in text


# One fixed two-user scan, measured around cli.main in a fresh interpreter.
FAULTS_SCRIPT = """
import io, resource, sys
from contextlib import redirect_stdout
from nomafb import cli
argv = ["minrate", "--p-db", "0:30:5", "--trials", "2e5", "--workers", "2"]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not glibc(), reason="the thresholds are set on glibc only")
def test_a_scan_takes_few_page_faults():
    # A first call also pays the heap's first touch: with glibc's default
    # thresholds this scan took 2,300 to 6,100 minor faults over 8 runs; with
    # the ones every sweep sets, about 1,700.
    assert minor_faults(FAULTS_SCRIPT) < 5000
