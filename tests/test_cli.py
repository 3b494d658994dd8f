"""CLI surface: happy paths, determinism, exit codes, manifests."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import threshtest
from threshtest import (DesignMatrix, DesignSpec, ExperimentConfig, McConfig,
                        confidence_region, cr_grid)
from threshtest import cli
from threshtest.cli import _read_csv, _resolve_stat, _scenario_config, build_parser, main
from threshtest import exceptions
from threshtest.exceptions import InvalidSpec, ThreshTestError
from threshtest.statistics import StatisticSpec, build_evaluator


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

# each option of a command in parser order: (flag, default, required, type,
# action, help)
_DATA_OPTIONS = [
    ("--data", None, True, None, "store", "CSV data file with header"),
    ("--response", None, True, None, "store", "response column name"),
    ("--intercept", False, False, None, "store_true",
     "prepend an unpenalized all-ones column"),
    ("--hypothesis", None, True, None, "store", "hypothesis JSON file"),
    ("--stat", "sqrt_affine_lasso", False, None, "store", None),
    ("--family", None, False, None, "store", "glm family for glm_score statistics"),
    ("--alpha", 0.05, False, float, "store", None),
    ("--mc", 2000, False, int, "store", "number of Monte-Carlo calibration draws"),
    ("--seed", 0, False, int, "store", None),
    ("--out", None, True, None, "store", None),
]
_STUDY_OPTIONS = [
    ("--config", None, True, None, "store", "experiment config JSON"),
    ("--seed", None, False, int, "store", "replaces the seed of every scenario"),
    ("--out", None, True, None, "store", None),
    ("--threads", 1, False, int, "store", None),
    ("--plot", None, False, None, "store", "optional SVG output path"),
]
_ACTION_NAMES = {argparse._StoreAction: "store", argparse._StoreTrueAction: "store_true",
                 argparse._AppendAction: "append"}


class TestParser:
    def test_each_command_keeps_its_options_and_defaults(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        options = {name: [(flag, action.default, action.required, action.type,
                           _ACTION_NAMES[type(action)], action.help)
                          for action in cmd._actions for flag in action.option_strings
                          if flag not in ("-h", "--help")]
                   for name, cmd in sub.choices.items()}
        assert options == {
            "test": _DATA_OPTIONS,
            "calibrate": _DATA_OPTIONS,
            "region": _DATA_OPTIONS + [
                ("--grid", [], False, None, "append", "axis as lo:hi:count (repeat for R = 2)"),
                ("--plot", None, False, None, "store", "optional SVG output path")],
            "power": _STUDY_OPTIONS,
            "level": _STUDY_OPTIONS,
        }
        assert {name: cmd._defaults for name, cmd in sub.choices.items()} == {
            "test": {"func": cli._cmd_test}, "calibrate": {"func": cli._cmd_calibrate},
            "region": {"func": cli._cmd_region}, "power": {"func": cli._cmd_power},
            "level": {"func": cli._cmd_power}}

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


    def test_overflowing_response_exit_2(self, dataset, tmp_path, capsys):
        # the squares of a response of order 1e200 overflow: a refusal, not p = 1
        data, hyp = dataset
        with open(data) as fh:
            header, *rows = csv.reader(fh)
        with open(data, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([repr(float(row[0]) * 1e200)] + row[1:] for row in rows)
        out = tmp_path / "o.csv"
        assert main(["test", "--data", str(data), "--response", "y", "--intercept",
                     "--hypothesis", str(hyp), "--mc", "100", "--out", str(out)]) == 2
        assert "too large" in capsys.readouterr().err
        assert not out.exists()

# the CLI exit status of each library error type
_EXIT_CODES = {
    "ThreshTestError": 2, "DimensionMismatch": 2, "RankDeficient": 2, "Untestable": 3,
    "NotApplicable": 3, "DegenerateStatistic": 2, "InsufficientDraws": 2,
    "InvalidSpec": 2, "NoConvergence": 2, "SingularSystem": 2,
    "UnsupportedDimension": 2, "DomainError": 2, "OverflowGuard": 2,
}

_R1 = {"A": [[1.0, 0.0, 0.0]], "c": [0.0]}


class TestExitCodes:
    def test_each_error_type_carries_its_exit_code(self):
        types = {name: cls for name, cls in vars(exceptions).items()
                 if isinstance(cls, type) and issubclass(cls, ThreshTestError)}
        assert set(types) == set(_EXIT_CODES)
        for name, cls in types.items():
            assert cls.exit_code == cls("message").exit_code == _EXIT_CODES[name], name

    # one run per error type a command can raise; Untestable is
    # TestCmdTest::test_untestable_exit_3
    @pytest.mark.parametrize("error, command, hypothesis, flags, message", [
        ("InvalidSpec", "test", None, ["--response", "nope"], "response column 'nope'"),
        ("DimensionMismatch", "test", {"subset": {"j0": 1, "c": [0.0]}}, [],
         "c has length 1, expected 3"),
        ("RankDeficient", "test", {"A": [[0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]],
                                   "c": [0.0, 0.0]}, [], "numerical row rank 1 < R = 2"),
        ("InsufficientDraws", "test", None, ["--mc", "5"], "M = 5 < ceil(1/alpha) - 1"),
        ("DomainError", "test", None, ["--stat", "glm_score_sup", "--family", "bernoulli"],
         "bernoulli responses must be 0 or 1"),
        ("UnsupportedDimension", "region", None, ["--grid=-1:1:3"] * 3,
         "grids support R <= 2"),
        ("NotApplicable", "region", {"A": [[0.0, 1.0, 0.0, 0.0]], "c": [0.0]},
         ["--grid=-1:1:3", "--stat", "affine_lasso"],
         "confidence regions need a statistic pivotal"),
        ("OverflowGuard", "power", None, [], "exceeds the exp(30) guard"),
    ])
    def test_main_returns_the_exit_code_of_the_error(self, dataset, tmp_path, capsys, error,
                                                    command, hypothesis, flags, message):
        data, hyp = dataset
        if hypothesis is not None:
            hyp.write_text(json.dumps(hypothesis))
        if command == "power":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": 20, "p": 3, "seed": 0, "family": "poisson",
                                       "beta0": 31.0, "statistics": ["lrt"]}))
            argv = ["power", "--config", str(cfg)]
        else:
            argv = [command, "--data", str(data), "--response", "y", "--intercept",
                    "--hypothesis", str(hyp), "--mc", "100", *flags]
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == _EXIT_CODES[error]
        assert message in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("command", ["test", "power"])
    def test_alpha_outside_unit_interval_exit_2(self, dataset, tmp_path, capsys, command):
        # the exact-F test and a baseline-only study refuse it, as M-C tests do
        data, hyp = dataset
        if command == "power":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": 20, "p": 3, "seed": 0, "alpha": 1.5,
                                       "statistics": ["fisher", "lrt"]}))
            argv = ["power", "--config", str(cfg)]
        else:
            argv = ["test", "--data", str(data), "--response", "y", "--intercept",
                    "--hypothesis", str(hyp), "--stat", "fisher_weighted", "--alpha", "1.5"]
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "alpha must be in (0,1)" in capsys.readouterr().err
        assert not out.exists()


class TestReadHypothesis:
    @pytest.mark.parametrize("doc", [
        {"subset": {"j0": 2.7, "c": [0.0]}},
        {"subset": {"j0": True, "c": [0.0, 0.0]}},
        {"subset": {"j0": "2", "c": [0.0]}},
        [{"subset": {"j0": 1, "c": [0.0, 0.0]}}],
        {"subset": [1, [0.0, 0.0]]},
        {"subset": 1},
        {"A": {"row": [1.0, 0.0, 0.0]}, "c": [0.0]},
        {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "c": [0.0, 0.0], "groups": [[0.5, 1]]},
        {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "c": [0.0, 0.0], "groups": [[0], [True]]},
        {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "c": [0.0, 0.0], "groups": 1},
    ], ids=["fractional_j0", "boolean_j0", "string_j0", "top_level_list", "list_subset",
            "number_subset", "object_a", "fractional_group", "boolean_group", "number_groups"])
    def test_malformed_file_exit_2(self, dataset, tmp_path, capsys, doc):
        data, hyp = dataset
        hyp.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert main(["test", "--data", str(data), "--response", "y", "--hypothesis", str(hyp),
                     "--stat", "sqrt_affine_group_lasso", "--mc", "100",
                     "--out", str(out)]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "c": [0.0, 0.0], "grups": [[0, 1]]},
         "grups"),
        ({"subset": {"j0": 1, "c": [0.0, 0.0, 0.0]}, "grups": [[0, 1], [2]]}, "grups"),
        ({"subset": {"j0": 1, "c": [0.0, 0.0, 0.0], "groups": [[0, 1], [2]]}}, "groups"),
        ({"subset": {"j0": 1, "c": [0.0, 0.0, 0.0]}, "A": [[1.0, 0.0, 0.0]], "c": [5.0]}, "A"),
    ], ids=["linear", "subset", "inside_subset", "subset_and_a"])
    def test_unknown_key_exit_2(self, dataset, tmp_path, capsys, doc, key):
        data, hyp = dataset
        hyp.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert main(["test", "--data", str(data), "--response", "y", "--hypothesis", str(hyp),
                     "--stat", "sqrt_affine_group_lasso", "--mc", "100",
                     "--out", str(out)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_j0_reads_as_its_integer(self, dataset, tmp_path):
        data, hyp = dataset
        outs = []
        for j0 in (1, 1.0):
            hyp.write_text(json.dumps({"subset": {"j0": j0, "c": [0.0, 0.0]}}))
            outs.append(tmp_path / f"o{len(outs)}.csv")
            assert main(["test", "--data", str(data), "--response", "y",
                         "--hypothesis", str(hyp), "--mc", "100", "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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

    def test_out_holds_the_in_process_draws(self, dataset, tmp_path):
        from threshtest import (CalibrationResult, SubsetHypothesis, build_reduction,
                                calibrate, gaussian_pivotal_null)

        data, hyp = dataset
        out = tmp_path / "cal.txt"
        assert main(["calibrate", "--data", str(data), "--response", "y", "--intercept",
                     "--hypothesis", str(hyp), "--mc", "100", "--seed", "3",
                     "--out", str(out)]) == 0
        header, values = _read_csv(str(data))
        x = DesignMatrix(np.column_stack([np.ones(len(values)), values[:, 1:]]),
                         intercept_column=0)
        h0 = SubsetHypothesis(1, np.zeros(3)).expand(4)
        model = gaussian_pivotal_null(x, h0, build_reduction(x, h0))
        want = calibrate(StatisticSpec("sqrt_affine_lasso"), model, 100, 0.05, seed=3)
        got = CalibrationResult.load(out)
        assert header[0] == "y"
        # the file ends in the draws themselves, as raw little-endian float64
        assert out.read_bytes()[-800:] == want.sorted_null_stats.astype("<f8").tobytes()
        assert got.sorted_null_stats.tobytes() == want.sorted_null_stats.tobytes()
        assert (got.lambda_alpha, got.statistic_id) == (want.lambda_alpha, want.statistic_id)


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
        power_id = build_evaluator(spec, np.eye(30, 3)).statistic_id
        assert got == power_id == "glm_score_group|groups=0,1,2|family=gaussian"


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


class TestGroupBlocks:
    """A group statistic has one block over all its rows unless the
    hypothesis file or the study config gives its groups."""

    @pytest.mark.parametrize("stat", ["affine_group_lasso", "sqrt_affine_group_lasso"])
    def test_test_command(self, dataset, tmp_path, stat):
        data, _ = dataset

        def row(groups):
            doc = {"subset": {"j0": 1, "c": [0.0, 0.0, 0.0]}}
            if groups is not None:
                doc["groups"] = groups
            hyp = tmp_path / "hyp.json"
            hyp.write_text(json.dumps(doc))
            out = tmp_path / "o.csv"
            assert main(["test", "--data", str(data), "--response", "y", "--intercept",
                         "--hypothesis", str(hyp), "--stat", stat, "--mc", "100",
                         "--out", str(out)]) == 0
            return _read_record(out)

        default = row(None)
        assert default == row([[0, 1, 2]])
        assert default["statistic"] == f"{stat}|groups=0,1,2"
        singletons = row([[0], [1], [2]])
        assert singletons["statistic"] == f"{stat}|groups=0;1;2"
        assert singletons["observed"] != default["observed"]

    @pytest.mark.parametrize("family", ["sqrt_affine_group_lasso", "glm_score_group"])
    def test_power_command(self, tmp_path, family):
        def power(entry):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"n": 30, "p": 3, "seed": 2, "m_calib": 99, "n_reps": 40,
                                       "theta_grid": [0.0, 1.0], "statistics": [entry]}))
            out = tmp_path / "o.csv"
            assert main(["power", "--config", str(cfg), "--out", str(out)]) == 0
            return out.read_bytes()

        glm = {"glm_family": "gaussian"} if family.startswith("glm") else {}
        default = power(dict(family=family, **glm))
        assert default == power(family) == power(dict(family=family, groups=[[0, 1, 2]], **glm))
        assert f"{family}|groups=0,1,2".encode() in default
        singletons = power(dict(family=family, groups=[[0], [1], [2]], **glm))
        assert b"groups=0;1;2" in singletons and singletons != default

    def test_region_command_keeps_the_file_groups(self, dataset, tmp_path):
        data, _ = dataset
        a = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

        def region(groups):
            doc = {"A": a, "c": [0.0, 0.0]}
            if groups is not None:
                doc["groups"] = groups
            hyp = tmp_path / "hyp.json"
            hyp.write_text(json.dumps(doc))
            out = tmp_path / "o.csv"
            assert main(["region", "--data", str(data), "--response", "y", "--hypothesis",
                         str(hyp), "--stat", "sqrt_affine_group_lasso", "--grid=0:3:13",
                         "--grid=-1.5:1.5:13", "--mc", "200", "--out", str(out)]) == 0
            with open(out) as fh:
                return list(csv.DictReader(fh))

        default = region(None)
        assert default == region([[0, 1]])
        singletons = region([[0], [1]])
        # the file's groups reach the region: its mask is the library's
        # with singleton blocks, and not the one-block mask
        values = np.loadtxt(data, delimiter=",", skiprows=1)
        y, x = values[:, 0], DesignMatrix(values[:, 1:])
        points = np.array([[float(r["c1"]), float(r["c2"])] for r in singletons])
        spec = StatisticSpec("sqrt_affine_group_lasso", row_partition=[(0,), (1,)])
        threshold = confidence_region(y, x, np.array(a), spec,
                                      mc=McConfig(m_draws=200)).lambda_alpha
        mask = cr_grid(y, x, np.array(a), spec, threshold, points)
        assert [r["member"] == "1" for r in singletons] == mask.tolist()
        assert singletons != default


class TestCmdRegion:
    def test_plot_of_an_r2_region_exit_2(self, dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("threshtest.cli.confidence_region", None)  # nothing is calibrated
        data, _ = dataset
        hyp = tmp_path / "h2.json"
        hyp.write_text(json.dumps({"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "c": [0.0, 0.0]}))
        out, svg = tmp_path / "o.csv", tmp_path / "o.svg"
        assert main(["region", "--data", str(data), "--response", "y", "--hypothesis", str(hyp),
                     "--grid=-1:1:3", "--grid=-1:1:3", "--mc", "100", "--out", str(out),
                     "--plot", str(svg)]) == 2
        assert "--plot draws an R = 1 region only" in capsys.readouterr().err
        assert not out.exists() and not svg.exists()

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

    @pytest.mark.parametrize("grid", ["-1:1:0", "-1:1:-1", "-1:1:2.5", "-1:1:nan",
                                      "nan:1:3", "-1:inf:3", "-1:1", "-1:1:3:4", "a:1:3"])
    def test_bad_grid_axis_exit_2(self, dataset, tmp_path, capsys, grid):
        data, _ = dataset
        hyp = tmp_path / "h1.json"
        hyp.write_text(json.dumps(_R1))
        out = tmp_path / "o.csv"
        assert main(["region", "--data", str(data), "--response", "y", "--hypothesis", str(hyp),
                     f"--grid={grid}", "--mc", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--grid '{grid}'" in err and "Warning" not in err
        assert not out.exists()

    def test_wrong_grid_count_exit_2(self, dataset, tmp_path):
        data, _ = dataset
        hyp = tmp_path / "h1.json"
        hyp.write_text(json.dumps({"A": [[1.0, 0.0, 0.0]], "c": [0.0]}))
        code = main(["region", "--data", str(data), "--response", "y",
                     "--hypothesis", str(hyp), "--mc", "100",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2


class TestCacheDirectory:
    # separate processes share calibrations only through the directory

    @staticmethod
    def _run(argv, cache_dir=None):
        """``threshtest`` with ``argv`` in a new process, with
        THRESHTEST_CACHE_DIR set to ``cache_dir`` when given, unset otherwise."""
        env = {k: v for k, v in os.environ.items() if k != "THRESHTEST_CACHE_DIR"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(threshtest.__file__))]
            + [p for p in [env.get("PYTHONPATH")] if p])
        if cache_dir:
            env["THRESHTEST_CACHE_DIR"] = str(cache_dir)
        subprocess.run([sys.executable, "-m", "threshtest.cli", *argv],
                       env=env, check=True, timeout=120)

    def test_region_rerun_reads_the_cache(self, dataset, tmp_path):
        data, _ = dataset
        hyp = tmp_path / "h1.json"
        hyp.write_text(json.dumps({"A": [[0.0, 1.0, -1.0, 0.0]], "c": [0.0]}))
        cache = tmp_path / "cache"

        def region(name, cache_dir=None):
            out = tmp_path / f"{name}.csv"
            svg = tmp_path / f"{name}.svg"
            self._run(["region", "--data", str(data), "--response", "y", "--intercept",
                       "--hypothesis", str(hyp), "--grid=-3:3:41", "--mc", "300",
                       "--seed", "7", "--out", str(out), "--plot", str(svg)], cache_dir)
            return out.read_bytes(), svg.read_bytes()

        plain = region("plain")
        assert region("cold", cache) == plain
        files = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert len(files) == 1
        assert region("warm", cache) == plain
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == files

    def test_study_rerun_reads_the_cache(self, tmp_path):
        # a second power run, and a level run of the same config, read every
        # calibration from the directory and write no file into it
        doc = {"scenarios": [
            {"n": 30, "p": 4, "m_calib": 199, "n_reps": 40, "theta_grid": [0.0, 1.0],
             "s_values": [1, 2], "statistics": ["sqrt_affine_lasso", "composite"], "seed": 3},
            {"n": 30, "p": 4, "family": "bernoulli", "beta0": 0.0, "m_calib": 199,
             "n_reps": 40, "theta_grid": [0.0, 1.0], "s_values": [1],
             "statistics": ["glm_score_sup", "composite"], "seed": 4},
        ]}
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(doc))
        cache = tmp_path / "cache"

        def study(command, name, cache_dir=None):
            out = tmp_path / f"{name}.csv"
            svg = tmp_path / f"{name}.svg"
            self._run([command, "--config", str(cfg), "--out", str(out), "--plot", str(svg)],
                      cache_dir)
            return [(tmp_path / f"{name}.csv.scenario{i}.csv").read_bytes()
                    for i in (1, 2)] + [svg.read_bytes()]

        def files():
            return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in cache.iterdir()}

        plain = study("power", "plain")
        assert study("power", "cold", cache) == plain
        written = files()
        # per scenario: the sup and group components and the composite values
        assert len(written) == 6
        assert study("power", "warm", cache) == plain
        assert files() == written
        assert study("level", "level", cache) == study("level", "level_plain")
        assert files() == written


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


@pytest.mark.parametrize("call, command, flags, config, message", [
    (lambda: _resolve_stat("glm_score_sup", None), "test", ["--stat", "glm_score_sup"], None,
     "glm_score_sup requires --family"),
    (lambda: _scenario_config({"p": 3, "seed": 0}, None), "power", [],
     {"p": 3, "seed": 0, "statistics": ["lrt"]}, "config lacks n"),
], ids=["glm_score_without_family", "study_without_n"])
def test_each_refusal_is_invalid_spec_and_exit_2(dataset, tmp_path, capsys, call, command,
                                                 flags, config, message):
    with pytest.raises(InvalidSpec, match=message):
        call()
    data, hyp = dataset
    if config is None:
        argv = [command, "--data", str(data), "--response", "y", "--intercept",
                "--hypothesis", str(hyp), "--mc", "100", *flags]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
    out = tmp_path / "o.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_an_unexpected_error_is_an_internal_error_exit_4(dataset, tmp_path, capsys,
                                                         monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(cli, "run_test", broken)
    data, hyp = dataset
    out = tmp_path / "o.csv"
    assert main(["test", "--data", str(data), "--response", "y", "--intercept",
                 "--hypothesis", str(hyp), "--out", str(out)]) == 4
    assert "internal error: broken" in capsys.readouterr().err
    assert not out.exists()


class TestScenarioConfig:
    def test_left_out_keys_take_the_dataclass_defaults(self):
        assert _scenario_config({"n": 30, "p": 3, "seed": 5}, None) == \
            ExperimentConfig(n=30, p=3, seed=5)

    def test_given_keys_are_converted(self):
        doc = {"n": 30.0, "p": 3, "seed": 5, "family": "poisson", "beta0": 1,
               "alpha": "0.1", "m_calib": 99.0, "n_reps": 40, "theta_grid": [0, "1.5"],
               "s_values": [1.0, 2], "design": {"kind": "identity", "rho": "0", "standardize": 0},
               "statistics": ["glm_score_sup", "lrt"]}
        cfg = _scenario_config(doc, 8)
        # one GlmFamily per tag, so equal specs compare equal
        assert cfg.statistics == (StatisticSpec("glm_score_sup", glm_family="poisson"), "lrt")
        assert dataclasses.replace(cfg, statistics=()) == ExperimentConfig(
            n=30, p=3, family="poisson", beta0=1.0, alpha=0.1, m_calib=99, n_reps=40,
            theta_grid=(0.0, 1.5), s_values=(1, 2),
            design_spec=DesignSpec(kind="identity", rho=0.0, standardize=False), seed=8)
        assert all(type(v) is int for v in (cfg.n, cfg.m_calib, *cfg.s_values))


    @pytest.mark.parametrize("doc", [
        {"design": {"standardize": "false"}},
        {"design": {"standardize": "true"}},
        {"design": {"standardize": 2}},
        {"s_values": 1},
        {"theta_grid": 0.5},
        {"theta_grid": "05"},
        {"beta0": [1.0]},
        {"n": [20]},
        {"p": [3]},
        {"seed": [0]},
        {"statistics": [5]},
        {"design": [1]},
        {"n": 20.7}, {"p": 3.9}, {"seed": 1.5}, {"m_calib": 199.9}, {"n_reps": 10.5},
        {"s_values": [1.8]}, {"n": float("inf")}, {"seed": float("nan")},
        {"n": True}, {"s_values": [True]}, {"n": "20"}, {"m_calib": "199"},
    ], ids=["standardize_false_string", "standardize_true_string", "standardize_2",
            "scalar_s_values", "scalar_theta_grid", "string_theta_grid", "list_beta0",
            "list_n", "list_p", "list_seed", "number_statistic", "list_design",
            "fractional_n", "fractional_p", "fractional_seed", "fractional_m_calib",
            "fractional_n_reps", "fractional_s", "infinite_n", "nan_seed", "boolean_n",
            "boolean_s", "string_n", "string_m_calib"])
    def test_wrong_type_is_invalid(self, doc):
        with pytest.raises(InvalidSpec):
            _scenario_config({"n": 20, "p": 3, "seed": 0, **doc}, None)

    @pytest.mark.parametrize("value", [True, False])
    def test_standardize_takes_json_booleans(self, value):
        cfg = _scenario_config({"n": 20, "p": 3, "seed": 0,
                                "design": {"standardize": value}}, None)
        assert cfg.design_spec.standardize is value

    @pytest.mark.parametrize("doc", [
        {"s_values": 1}, {"design": {"standardize": "false"}}, {"n": [20]},
        {"statistics": [5]}, {"design": [1]}, {"scenarios": [5]},
        {"n": 20.7}, {"seed": True}, {"m_calib": "199"},
        {"theta_grid": [float("nan"), float("inf")]}, {"beta0": float("nan")},
    ], ids=["scalar_s_values", "standardize_string", "list_n", "number_statistic",
            "list_design", "number_scenario", "fractional_n", "boolean_seed",
            "string_m_calib", "non_finite_theta", "nan_beta0"])
    def test_wrong_type_exit_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "p": 3, "seed": 0,
                                   "statistics": ["sqrt_affine_lasso"], **doc}))
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "internal error" not in capsys.readouterr().err

    @pytest.mark.parametrize("doc, code, message", [
        ({"p": 9, "statistics": ["fisher"]}, 2, "needs p + 1 < n"),
        ({"p": 9, "statistics": ["composite", "lrt"]}, 2, "needs p + 1 < n"),
        ({"p": 3, "family": "poisson", "beta0": 0.5,
          "statistics": ["glm_score_sup", "sqrt_affine_lasso"]}, 3, "needs gaussian responses"),
        ({"p": 3, "family": "bernoulli", "beta0": 0.0,
          "statistics": [{"family": "lad_sign"}]}, 3, "needs gaussian responses"),
        ({"p": 3, "family": "poisson", "beta0": 0.5,
          "statistics": [{"family": "glm_score_sup", "glm_family": "bernoulli"}]}, 3,
         "scores bernoulli responses, not poisson"),
        ({"p": 3, "statistics": ["fisher", "fisher_weighted"]}, 2,
         'use the "fisher" tag for fisher_weighted'),
    ], ids=["fisher_at_p_n_minus_1", "lrt_at_p_n_minus_1", "affine_in_poisson",
            "lad_in_bernoulli", "bernoulli_score_in_poisson", "fisher_weighted"])
    def test_entry_the_study_cannot_run_is_refused(self, tmp_path, capsys, doc, code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, "seed": 0, "m_calib": 19, "n_reps": 5, **doc}))
        out = tmp_path / "o.csv"
        assert main(["power", "--config", str(cfg), "--out", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    _SCENARIO = {"n": 20, "p": 3, "seed": 0, "m_calib": 50, "n_reps": 10,
                 "theta_grid": [0.0], "s_values": [1], "statistics": ["sqrt_affine_lasso"]}

    @pytest.mark.parametrize("doc, key", [
        (dict(_SCENARIO, alhpa=0.5), "alhpa"),
        (dict(_SCENARIO, m_clib=10), "m_clib"),
        (dict(_SCENARIO, design={"rhoo": 0.9}), "rhoo"),
        (dict(_SCENARIO, statistics=[{"family": "sqrt_affine_group_lasso",
                                      "grups": [[0, 1, 2]]}]), "grups"),
        ({"scenarios": [dict(_SCENARIO, alhpa=0.5)]}, "alhpa"),
        ({"scenarios": [_SCENARIO], "seed": 3}, "seed"),
    ], ids=["config", "config_m_calib", "design", "statistic", "scenario", "scenarios_doc"])
    def test_unknown_key_exit_2(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert main(["power", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_every_known_key_is_read(self, tmp_path):
        doc = dict(self._SCENARIO, family="gaussian", beta0=0.0, alpha=0.05,
                   design={"kind": "identity", "rho": 0.0, "standardize": False},
                   statistics=[{"family": "sqrt_affine_group_lasso", "groups": [[0, 1, 2]],
                                "glm_family": None}])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": [doc]}))
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


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

    def test_a_cell_that_cannot_be_drawn_writes_error_rows(self, tmp_path):
        """A poisson cell whose linear predictor passes the exp(30) guard
        gives an error row per column; the study still exits 0, and its
        other cell's rows are those of a run without the failing cell."""
        doc = {"family": "poisson", "n": 30, "p": 3, "beta0": 0.0, "s_values": [3],
               "theta_grid": [0.1, 40], "seed": 3, "m_calib": 99, "n_reps": 20,
               "statistics": ["glm_score_sup", "lrt"]}

        def power(theta_grid):
            cfg, out = tmp_path / "cfg.json", tmp_path / "power.csv"
            cfg.write_text(json.dumps(dict(doc, theta_grid=theta_grid)))
            assert main(["power", "--config", str(cfg), "--out", str(out)]) == 0
            return out.read_text().splitlines()[1:]

        rows, alone = power([0.1, 40]), power([0.1])
        assert len(alone) == 2 and all(row.endswith(",ok") for row in alone)
        assert [row for row in rows if ",0.1," in row] == alone
        failed = [row for row in rows if ",40.0," in row]
        assert [row.split(",")[0] for row in failed] == ["baseline_lrt",
                                                         "glm_score_sup|family=poisson"]
        assert all(row.endswith(",nan,nan,20,error: poisson linear predictor exceeds the "
                                "exp(30) guard") for row in failed)
        assert len(rows) == 4

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

    @pytest.mark.parametrize("scenarios", [5, [], {"n": 20}, ["n"]],
                             ids=["number", "empty", "object", "string_entry"])
    def test_scenarios_must_be_a_list_of_objects(self, tmp_path, capsys, scenarios):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": scenarios}))
        out = tmp_path / "o.csv"
        assert main(["power", "--config", str(cfg), "--out", str(out)]) == 2
        assert "key 'scenarios'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command, doc", [
        ("power", {"theta_grid": []}), ("power", {"s_values": []}),
        ("power", {"statistics": []}), ("level", {"statistics": []}),
        ("power", {"theta_grid": [-0.5]}), ("level", {"theta_grid": [-0.5]}),
    ], ids=["no_theta", "no_s", "no_statistics", "level_no_statistics", "negative_theta",
            "level_negative_theta"])
    def test_study_that_estimates_nothing_exit_2(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "p": 3, "seed": 0, "m_calib": 50, "n_reps": 10,
                                   "statistics": ["sqrt_affine_lasso"], **doc}))
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setattr("threshtest.simulate._Harness", None)  # nothing is calibrated
        cfg = self._config(tmp_path)
        out = tmp_path / "o.csv"
        assert main(["power", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == 2
        assert f"threads must be an integer of at least 1, got {threads}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_reps", [0, -1])
    def test_fewer_than_one_replicate_exit_2(self, tmp_path, capsys, n_reps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "p": 3, "seed": 0, "n_reps": n_reps,
                                   "statistics": ["sqrt_affine_lasso"]}))
        assert main(["level", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "n_reps" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["power", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == 2


# The mutation tests put any JSON value at any key of a study config or a
# hypothesis file, or any string in --grid. The command must refuse the input
# (exit 2 or 3) or finish (exit 0), never fail internally (exit 4), and a
# finished command has written at least one data row. Sizes are tiny (n = 20,
# p = 3, M = 19, 5 replicates), and counts stay small: a count of 10**9 is
# valid input that would allocate gigabytes. The tier-1 run draws a few
# examples of each; `--hypothesis-profile=ci` (see conftest.py) draws more.

_MUTATION_STUDIES = tuple(
    {"n": 20, "p": 3, "seed": 1, "family": family, "beta0": beta0, "alpha": 0.1,
     "m_calib": 19, "n_reps": 5, "theta_grid": [0.0, 0.5], "s_values": [1, 3],
     "design": {"kind": "ar1", "rho": 0.5, "standardize": True},
     "statistics": ["composite", "fisher", "lrt", "sqrt_affine_lasso",
                    {"family": "sqrt_affine_group_lasso", "groups": [[0, 1], [2]]},
                    {"family": "glm_score_group", "glm_family": family}]}
    for family, beta0 in (("gaussian", -2.0), ("bernoulli", 0.0), ("poisson", 0.5)))
_MUTATION_HYPOTHESES = (
    {"A": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]], "c": [0.0, 0.5],
     "groups": [[0], [1]]},
    {"subset": {"j0": 1, "c": [0.0, 0.0, 0.0]}, "groups": [[0, 2], [1]]},
)
_WORDS = st.sampled_from(threshtest.statistics.ALL_FAMILIES + (
    "composite", "fisher", "lrt", "gaussian", "bernoulli", "poisson", "ar1", "identity",
    "A", "c", "j0", "subset", "groups", "family", "glm_family"))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, 1e-300])
    | st.text(max_size=6) | _WORDS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | _WORDS, inner, max_size=3),
    max_leaves=8)
_AXIS_PARTS = st.integers(-3, 60).map(str) | st.sampled_from(
    ["-1", "2.5", "41.0", "1e400", "nan", "-inf", "", " 3", "x"])


def _key_paths(doc, path=()):
    """The path to every value in a JSON document: each object key and list index."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    return [p for key, value in items
            for p in [path + (key,), *_key_paths(value, path + (key,))]]


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def mutation_data(tmp_path_factory):
    """A data CSV of n = 20 rows: y and three covariates."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 3))
    y = 0.5 + x @ np.array([1.0, 0.0, -0.5]) + rng.standard_normal(20)
    data = tmp_path_factory.mktemp("mutation") / "data.csv"
    np.savetxt(data, np.column_stack([y, x]), delimiter=",", header="y,x1,x2,x3",
               comments="")
    return data


class TestMutation:
    @staticmethod
    def _outcome(argv, out):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        if code == 0:
            with open(out) as fh:
                assert len(list(csv.reader(fh))) >= 2, "a header and no data rows"

    @settings(deadline=None)
    @given(command=st.sampled_from(["power", "level"]),
           case=st.sampled_from([(doc, path) for doc in _MUTATION_STUDIES
                                 for path in _key_paths(doc)]),
           value=_JSON)
    def test_mutation_study_config(self, tmp_path_factory, command, case, value):
        tmp = tmp_path_factory.mktemp("study")
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(_mutated(*case, value)))
        self._outcome([command, "--config", str(cfg), "--out", str(tmp / "o.csv")],
                      tmp / "o.csv")

    @settings(deadline=None)
    @given(case=st.sampled_from([(doc, path) for doc in _MUTATION_HYPOTHESES
                                 for path in _key_paths(doc)]),
           stat=st.sampled_from(["sqrt_affine_lasso", "sqrt_affine_group_lasso",
                                 "affine_group_lasso", "fisher_weighted", "lad_sign",
                                 "glm_score_group", "composite"]),
           value=_JSON)
    def test_mutation_hypothesis_file(self, tmp_path_factory, mutation_data, case, stat,
                                      value):
        tmp = tmp_path_factory.mktemp("hypothesis")
        hyp = tmp / "hyp.json"
        hyp.write_text(json.dumps(_mutated(*case, value)))
        self._outcome(["test", "--data", str(mutation_data), "--response", "y",
                       "--intercept", "--hypothesis", str(hyp), "--stat", stat,
                       "--family", "gaussian", "--mc", "19", "--alpha", "0.1",
                       "--out", str(tmp / "o.csv")], tmp / "o.csv")

    @settings(deadline=None)
    @given(grid=st.text(max_size=8) | st.lists(_AXIS_PARTS, min_size=1, max_size=4).map(
        ":".join))
    def test_mutation_grid(self, tmp_path_factory, mutation_data, grid):
        tmp = tmp_path_factory.mktemp("grid")
        hyp = tmp / "hyp.json"
        hyp.write_text(json.dumps({"A": [[0.0, 1.0, 0.0, 0.0]], "c": [0.0]}))
        self._outcome(["region", "--data", str(mutation_data), "--response", "y",
                       "--intercept", "--hypothesis", str(hyp), f"--grid={grid}",
                       "--mc", "19", "--alpha", "0.1", "--out", str(tmp / "o.csv")],
                      tmp / "o.csv")
