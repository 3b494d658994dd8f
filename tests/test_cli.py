"""CLI surface: happy paths, determinism, exit codes, manifests."""

import argparse
import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshtest import (DesignMatrix, DesignSpec, ExperimentConfig, McConfig,
                        confidence_region, cr_grid)
from threshtest.cli import _read_csv, _scenario_config, build_parser, main
from threshtest.exceptions import InvalidSpec
from threshtest.statistics import StatisticSpec


@pytest.fixture
def rng():
    return np.random.default_rng(314)


@pytest.fixture
def dataset(tmp_path, rng):
    """CSV with response column plus a subset-hypothesis JSON."""
    n, p = 30, 3
    x = rng.standard_normal((n, p))
    beta = np.array([1.5, 0.0, -1.0])
    y = 0.5 + x @ beta + rng.standard_normal(n)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["y", "x1", "x2", "x3"])
        for i in range(n):
            writer.writerow([repr(float(y[i]))] + [repr(float(v)) for v in x[i]])
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({"subset": {"j0": 1, "c": [0.0, 0.0, 0.0]}}))
    return data, hyp


def _read_record(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        values = next(reader)
    return dict(zip(header, values))


_DATA_FLAGS = ["--alpha", "--data", "--family", "--hypothesis", "--intercept", "--mc",
               "--out", "--response", "--seed", "--stat"]
_STUDY_FLAGS = ["--config", "--out", "--plot", "--seed", "--threads"]


class TestParser:
    def test_each_command_takes_the_flags_it_reads(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {name: sorted(flag for action in cmd._actions
                              for flag in action.option_strings if flag not in ("-h", "--help"))
                 for name, cmd in sub.choices.items()}
        assert flags == {
            "test": _DATA_FLAGS,
            "calibrate": _DATA_FLAGS,
            "region": sorted(_DATA_FLAGS + ["--grid", "--plot"]),
            "power": _STUDY_FLAGS,
            "level": _STUDY_FLAGS,
        }

    @pytest.mark.parametrize("command, flag, value", [
        ("test", "--threads", "2"),
        ("test", "--plot", "t.svg"),
        ("calibrate", "--threads", "2"),
        ("calibrate", "--plot", "c.svg"),
        ("region", "--threads", "2"),
        ("power", "--alpha", "0.5"),
        ("power", "--mc", "7"),
        ("power", "--stat", "nonsense"),
        ("level", "--alpha", "0.5"),
        ("level", "--mc", "7"),
        ("level", "--stat", "nonsense"),
    ])
    def test_unread_flag_is_a_usage_error(self, command, flag, value, capsys):
        if command in ("power", "level"):
            required = ["--config", "cfg.json"]
        else:
            required = ["--data", "d.csv", "--response", "y", "--hypothesis", "h.json"]
        with pytest.raises(SystemExit) as exc:
            main([command, *required, "--out", "o.csv", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestCmdTest:
    def test_happy_path(self, dataset, tmp_path):
        data, hyp = dataset
        out = tmp_path / "result.csv"
        code = main(["test", "--data", str(data), "--response", "y",
                     "--intercept", "--hypothesis", str(hyp),
                     "--mc", "400", "--out", str(out)])
        assert code == 0
        record = _read_record(out)
        assert set(record) == {"statistic", "observed", "lambda_alpha", "p_value",
                               "reject", "alpha", "M", "seed", "degenerate_note"}
        assert record["statistic"] == "sqrt_affine_lasso"
        assert record["reject"] == "1"  # strong planted signal
        manifest = json.loads((tmp_path / "result.csv.manifest.json").read_text())
        assert manifest["command"] == "test"
        assert "config_digest" in manifest and "tool_version" in manifest

    def test_rerun_byte_identical(self, dataset, tmp_path):
        data, hyp = dataset
        args = ["test", "--data", str(data), "--response", "y", "--intercept",
                "--hypothesis", str(hyp), "--mc", "200", "--seed", "3"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_composite_stat(self, dataset, tmp_path):
        data, hyp = dataset
        out = tmp_path / "comp.csv"
        code = main(["test", "--data", str(data), "--response", "y",
                     "--intercept", "--hypothesis", str(hyp),
                     "--stat", "composite", "--mc", "200", "--out", str(out)])
        assert code == 0
        assert _read_record(out)["statistic"].startswith("composite(")

    def test_missing_response_column_exit_2(self, dataset, tmp_path):
        data, hyp = dataset
        code = main(["test", "--data", str(data), "--response", "nope",
                     "--hypothesis", str(hyp), "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_insufficient_draws_exit_2(self, dataset, tmp_path):
        data, hyp = dataset
        code = main(["test", "--data", str(data), "--response", "y",
                     "--intercept", "--hypothesis", str(hyp),
                     "--mc", "5", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_untestable_exit_3(self, tmp_path, rng):
        # P > N dense design, j0 = P - 1: rank(X K_A) = N
        n, p = 4, 6
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        data = tmp_path / "wide.csv"
        with open(data, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["y"] + [f"x{j}" for j in range(p)])
            for i in range(n):
                writer.writerow([y[i]] + list(x[i]))
        hyp = tmp_path / "h.json"
        hyp.write_text(json.dumps({"subset": {"j0": p - 1, "c": [0.0]}}))
        code = main(["test", "--data", str(data), "--response", "y",
                     "--hypothesis", str(hyp), "--mc", "100",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3


def _rows_with_csv(path):
    """The data reader that one loadtxt call replaced: float() per cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    return header, np.asarray(rows, dtype=float)


class TestReadData:
    """``_read_csv`` gives the arrays a csv.reader loop gives, bit for bit."""

    @staticmethod
    def _assert_parity(path):
        want_header, want = _rows_with_csv(path)
        header, data = _read_csv(str(path))
        assert header == want_header
        assert data.shape == want.shape and data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", [
        b"y,x1\r\n1.5,2\r\n-3,4.25\r\n",
        b'"y","x1"\n"1.5",2\n-3,"4.25"\n',
        b"y,x1\n 1.5 , 2\n-3 ,4.25 \n",
        b"y,x1\n\n1.5,2\n\n-3,4.25\n\n",
        b"y,x1\n1.5,2\n-3,4.25",
        b"y,x1\nnan,inf\n-inf,NaN\nInfinity,2\n",
        b"y,x1\n1e-300,2.5E+10\n5e-324,1.7976931348623157e308\n-2.2250738585072014e-308,1E3\n",
    ], ids=["crlf", "quoted", "spaces", "blank_lines", "no_final_newline", "nan_inf",
            "scientific"])
    def test_equals_csv_loop(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        self._assert_parity(path)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
                         min_size=1, max_size=20),
           fmt=st.sampled_from(["{!r}", "{:.17g}", "{:.6e}", "{:.3f}"]))
    def test_random_values_equal_csv_loop(self, tmp_path_factory, rows, fmt):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text("x1,y,x2\n" + "".join(",".join(fmt.format(v) for v in row) + "\n"
                                             for row in rows))
        self._assert_parity(path)

    @pytest.mark.parametrize("text", ["", "y,x1\n", "y,x1", "y,x1\n\n\n"],
                             ids=["empty_file", "header_only", "header_no_newline",
                                  "blank_lines_only"])
    def test_no_data_rows_is_invalid(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(InvalidSpec):
            _read_csv(str(path))

    @pytest.mark.parametrize("text", [
        "y,x1,x2\n",
        "y,x1,x2\n1,2,oops\n",
        "y,x1,x2\n1,2,3\n4,5\n",
        "y,x1,x2\n1,2\n",
        "y,x1,x2\n1,2,3\n# note\n",
    ], ids=["header_only", "non_numeric", "ragged", "short_first_row", "comment_line"])
    def test_bad_data_exit_2(self, dataset, tmp_path, capsys, text):
        _, hyp = dataset
        data = tmp_path / "bad.csv"
        data.write_text(text)
        code = main(["test", "--data", str(data), "--response", "y",
                     "--hypothesis", str(hyp), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "internal error" not in capsys.readouterr().err


class TestCmdCalibrate:
    def test_writes_loadable_calibration(self, dataset, tmp_path):
        from threshtest import CalibrationResult

        data, hyp = dataset
        out = tmp_path / "cal.txt"
        code = main(["calibrate", "--data", str(data), "--response", "y",
                     "--intercept", "--hypothesis", str(hyp),
                     "--mc", "100", "--out", str(out)])
        assert code == 0
        cal = CalibrationResult.load(out)
        assert cal.m_draws == 100
        assert cal.sorted_null_stats.shape == (100,)


class TestStatisticNames:
    @pytest.mark.parametrize("command", ["test", "calibrate"])
    def test_glm_group_names_its_one_block(self, dataset, tmp_path, command):
        # the same id a power config's "glm_score_group" entry gets at P = 3
        from threshtest import CalibrationResult

        data, hyp = dataset
        out = tmp_path / "o.csv"
        assert main([command, "--data", str(data), "--response", "y", "--intercept",
                     "--hypothesis", str(hyp), "--stat", "glm_score_group",
                     "--family", "gaussian", "--mc", "100", "--out", str(out)]) == 0
        if command == "test":
            got = _read_record(out)["statistic"]
        else:
            got = CalibrationResult.load(out).statistic_id
        (spec,) = _scenario_config({"n": 30, "p": 3, "seed": 0,
                                    "statistics": ["glm_score_group"]}, None).statistics
        assert got == spec.fingerprint() == "glm_score_group|groups=0,1,2|family=gaussian"


    @pytest.mark.parametrize("command", ["test", "calibrate"])
    def test_unknown_stat_exit_2(self, dataset, tmp_path, capsys, command):
        data, hyp = dataset
        code = main([command, "--data", str(data), "--response", "y", "--intercept",
                     "--hypothesis", str(hyp), "--stat", "nonsense", "--mc", "100",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "unknown statistic 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nonsense", {"family": "nonsense"}])
    def test_unknown_power_config_stat_exit_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 30, "p": 3, "m_calib": 100, "n_reps": 50,
                                   "statistics": [entry], "seed": 1}))
        code = main(["power", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "unknown statistic 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "calibrate"])
    def test_glm_group_refuses_file_groups(self, dataset, tmp_path, capsys, command):
        data, _ = dataset
        hyp = tmp_path / "grouped.json"
        hyp.write_text(json.dumps({"subset": {"j0": 1, "c": [0.0, 0.0, 0.0]},
                                   "groups": [[0, 1], [2]]}))
        out = tmp_path / "o.csv"
        code = main([command, "--data", str(data), "--response", "y", "--intercept",
                     "--hypothesis", str(hyp), "--stat", "glm_score_group",
                     "--family", "gaussian", "--mc", "100", "--out", str(out)])
        assert code == 2
        assert "groups do not apply to glm_score_group" in capsys.readouterr().err
        assert not out.exists()


class TestCmdRegion:
    def test_interval_contiguous(self, dataset, tmp_path):
        data, _ = dataset
        hyp = tmp_path / "h1.json"
        hyp.write_text(json.dumps({"A": [[1.0, 0.0, 0.0]], "c": [0.0]}))
        out = tmp_path / "region.csv"
        svg = tmp_path / "region.svg"
        code = main(["region", "--data", str(data), "--response", "y",
                     "--hypothesis", str(hyp), "--grid=-3:3:41",
                     "--mc", "200", "--out", str(out), "--plot", str(svg)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        members = [i for i, r in enumerate(rows) if r["member"] == "1"]
        assert members
        assert members == list(range(members[0], members[-1] + 1))
        assert svg.read_text().startswith("<svg")

    def test_r2_rows_are_the_cr_grid_mask(self, dataset, tmp_path):
        data, _ = dataset
        a = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        hyp = tmp_path / "h2.json"
        hyp.write_text(json.dumps({"A": a, "c": [0.0, 0.0]}))
        out = tmp_path / "region2.csv"
        assert main(["region", "--data", str(data), "--response", "y",
                     "--hypothesis", str(hyp), "--grid=-1:3:5", "--grid=-2:2:4",
                     "--mc", "200", "--seed", "4", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        points = np.array([[float(r["c1"]), float(r["c2"])] for r in rows])
        # the first axis varies slowest
        assert points.tolist() == [[c1, c2] for c1 in np.linspace(-1.0, 3.0, 5)
                                   for c2 in np.linspace(-2.0, 2.0, 4)]
        values = np.loadtxt(data, delimiter=",", skiprows=1)
        y, x = values[:, 0], DesignMatrix(values[:, 1:])
        region = confidence_region(y, x, np.array(a), mc=McConfig(m_draws=200, seed=4))
        mask = cr_grid(y, x, np.array(a), StatisticSpec("sqrt_affine_lasso"),
                       region.lambda_alpha, points)
        assert [r["member"] == "1" for r in rows] == mask.tolist()
        assert 0 < mask.sum() < mask.size

    def test_r3_hypothesis_exit_2(self, dataset, tmp_path, capsys):
        data, hyp = dataset
        code = main(["region", "--data", str(data), "--response", "y", "--intercept",
                     "--hypothesis", str(hyp), "--grid=-1:1:3", "--grid=-1:1:3",
                     "--grid=-1:1:3", "--mc", "100", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "grids support R <= 2, got R = 3" in capsys.readouterr().err

    def test_wrong_grid_count_exit_2(self, dataset, tmp_path):
        data, _ = dataset
        hyp = tmp_path / "h1.json"
        hyp.write_text(json.dumps({"A": [[1.0, 0.0, 0.0]], "c": [0.0]}))
        code = main(["region", "--data", str(data), "--response", "y",
                     "--hypothesis", str(hyp), "--mc", "100",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestManifestDigest:
    # --intercept is in the digest too, but it changes P, so no hypothesis
    # file serves a pair of runs that differ in it alone
    @pytest.mark.parametrize("command, flag, value", [
        ("test", "--family", "bernoulli"),
        ("calibrate", "--response", "x1"),
        ("calibrate", "--family", "bernoulli"),
        ("region", "--response", "x1"),
        ("region", "--family", "bernoulli"),
    ])
    def test_digest_covers_argument(self, dataset, tmp_path, command, flag, value):
        data, hyp = dataset
        args = [command, "--data", str(data), "--intercept", "--mc", "100"]
        if command == "region":
            hyp = tmp_path / "h1.json"
            hyp.write_text(json.dumps({"A": [[0.0, 1.0, 0.0, 0.0]], "c": [0.0]}))
            args.append("--grid=-1:1:5")
        args += ["--hypothesis", str(hyp)]
        digests = []
        for i, extra in enumerate((["--response", "y"], ["--response", "y", flag, value])):
            out = tmp_path / f"run{i}.out"
            assert main(args + extra + ["--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"run{i}.out.manifest.json").read_text())
            digests.append(manifest["config_digest"])
        assert digests[0] != digests[1]


class TestScenarioConfig:
    def test_left_out_keys_take_the_dataclass_defaults(self):
        assert _scenario_config({"n": 30, "p": 3, "seed": 5}, None) == \
            ExperimentConfig(n=30, p=3, seed=5)

    def test_given_keys_are_converted(self):
        doc = {"n": "30", "p": 3, "seed": 5, "family": "poisson", "beta0": 1,
               "alpha": "0.1", "m_calib": 99.0, "n_reps": "40", "theta_grid": [0, "1.5"],
               "s_values": [1.0, 2], "design": {"kind": "identity", "rho": "0", "standardize": 0},
               "statistics": ["glm_score_sup", "lrt"]}
        cfg = _scenario_config(doc, 8)
        # a GlmFamily holds functions, so the statistics compare by fingerprint
        glm, lrt = cfg.statistics
        assert (glm.fingerprint(), lrt) == ("glm_score_sup|family=poisson", "lrt")
        assert dataclasses.replace(cfg, statistics=()) == ExperimentConfig(
            n=30, p=3, family="poisson", beta0=1.0, alpha=0.1, m_calib=99, n_reps=40,
            theta_grid=(0.0, 1.5), s_values=(1, 2),
            design_spec=DesignSpec(kind="identity", rho=0.0, standardize=False), seed=8)


    @pytest.mark.parametrize("doc", [
        {"design": {"standardize": "false"}},
        {"design": {"standardize": "true"}},
        {"design": {"standardize": 2}},
        {"s_values": 1},
        {"theta_grid": 0.5},
        {"theta_grid": "05"},
        {"beta0": [1.0]},
    ], ids=["standardize_false_string", "standardize_true_string", "standardize_2",
            "scalar_s_values", "scalar_theta_grid", "string_theta_grid", "list_beta0"])
    def test_wrong_type_is_invalid(self, doc):
        with pytest.raises(InvalidSpec):
            _scenario_config({"n": 20, "p": 3, "seed": 0, **doc}, None)

    @pytest.mark.parametrize("value", [True, False])
    def test_standardize_takes_json_booleans(self, value):
        cfg = _scenario_config({"n": 20, "p": 3, "seed": 0,
                                "design": {"standardize": value}}, None)
        assert cfg.design_spec.standardize is value

    @pytest.mark.parametrize("doc", [{"s_values": 1}, {"design": {"standardize": "false"}}],
                             ids=["scalar_s_values", "standardize_string"])
    def test_wrong_type_exit_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "p": 3, "seed": 0,
                                   "statistics": ["sqrt_affine_lasso"], **doc}))
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "internal error" not in capsys.readouterr().err


class TestCmdPower:
    def _config(self, tmp_path, threads_note=""):
        doc = {
            "n": 30, "p": 4, "family": "gaussian", "alpha": 0.05,
            "m_calib": 150, "n_reps": 150, "theta_grid": [0.0, 1.5],
            "s_values": [1], "statistics": ["sqrt_affine_lasso"], "seed": 11,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_power_table(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "power.csv"
        svg = tmp_path / "power.svg"
        code = main(["power", "--config", str(cfg), "--out", str(out),
                     "--plot", str(svg)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["theta"] for r in rows} == {"0.0", "1.5"}
        assert all(r["status"] == "ok" for r in rows)
        assert svg.exists()

    def test_thread_invariant_bytes(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert main(["power", "--config", str(cfg), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["power", "--config", str(cfg), "--out", str(out2),
                     "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_level_subcommand(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "level.csv"
        assert main(["level", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["theta"] == "0.0" for r in rows)

    def test_multi_scenario(self, tmp_path):
        doc = {"scenarios": [
            {"n": 25, "p": 3, "family": "gaussian", "m_calib": 100,
             "n_reps": 80, "theta_grid": [0.0], "s_values": [1],
             "statistics": ["sqrt_affine_lasso"], "seed": 1},
            {"n": 25, "p": 3, "family": "poisson", "beta0": 0.5,
             "m_calib": 100, "n_reps": 80, "theta_grid": [0.0],
             "s_values": [1], "statistics": ["glm_score_sup"], "seed": 2},
        ]}
        cfg = tmp_path / "multi.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "grid.csv"
        assert main(["power", "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "grid.csv.scenario1.csv").exists()
        assert (tmp_path / "grid.csv.scenario2.csv").exists()

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["power", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2
