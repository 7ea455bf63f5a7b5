"""Command-line parsing, config precedence, and output formats."""

import csv
import io
import json

import pytest

from nomafb import cli
from nomafb.harness import ExperimentConfig, RunStats


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
            with pytest.raises(Exception):
                cli.parse_sweep(text)

    def test_delta_range_check(self):
        with pytest.raises(Exception):
            cli.parse_deltas("0.1,1.5")
        with pytest.raises(Exception):
            cli.parse_deltas("0")

    def test_count_accepts_scientific(self):
        assert cli.parse_count("1e6") == 1_000_000
        with pytest.raises(Exception):
            cli.parse_count("1.5")
        with pytest.raises(Exception):
            cli.parse_count("-3")


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
        cfg, _ = cli.parse_config(
            ["outage", "--p-db=-10:40:5", "--delta-policy", "min02-pcube", "--delta", "0.2"]
        )
        assert cfg.delta_policy == "min02-pcube"
        assert cfg.p_db[0] == -10.0 and cfg.p_db[-1] == 40.0
        assert cfg.deltas == (0.2,)

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
        cfg, _ = cli.parse_config(["kuser", "--k", "3", "--variances", "1,1"])
        assert cfg.variances == (1.0, 1.0)

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
            ExperimentConfig(kind="outage", p_db=(-10.0, 40.0), delta_policy="pcube",
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
        argv = cli.render_args(cfg, out="x.csv", as_json=True)
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
        argv = ["minrate", "--trials", "2000", "--out", str(tmp_path)]
        code, _, err = self.run_main(argv, capsys)
        assert code == 1
        assert "error:" in err

    def test_driver_error_exits_1(self, capsys):
        argv = ["outageloss", "--p-db", "0,10", "--delta", "0.01,0.2", "--trials", "2000"]
        code, out, err = self.run_main(argv, capsys)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_cap_note_on_stderr(self, capsys):
        argv = ["outage", "--p-db", "40", "--delta", "0.2", "--min-outage-events", "1e6",
                "--trial-cap", "9000"]
        code, _, err = self.run_main(argv, capsys)
        assert code == 0
        assert "note:" in err and "trial cap" in err

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
