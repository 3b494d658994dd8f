"""Command-line surface: test, calibrate, region, power, level.

Inputs are CSV data files with a header (response column picked by
--response) and JSON hypothesis files; every output file is accompanied
by a ``<out>.manifest.json`` run manifest. Exit codes: 0 completed
inference, 2 parse/validation error, 3 untestable/not-applicable,
4 internal error.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
import time

import numpy as np

from . import __version__, _svg
from .calibration import calibrate
from .core import DesignMatrix, LinearHypothesis, SubsetHypothesis
from .exceptions import (
    DimensionMismatch,
    DomainError,
    InsufficientDraws,
    InvalidSpec,
    NotApplicable,
    OverflowGuard,
    RankDeficient,
    StatisticMismatch,
    UnsupportedDimension,
    Untestable,
)
from .inference import McConfig, _bind, confidence_region, run_composite, run_test
from .simulate import DesignSpec, ExperimentConfig, PowerRow, estimate_level, estimate_power
from .statistics import ALL_FAMILIES, GLM_FAMILIES, StatisticSpec

_PARSE_ERRORS = (InvalidSpec, InsufficientDraws, DimensionMismatch, RankDeficient,
                 StatisticMismatch, DomainError, OverflowGuard, UnsupportedDimension,
                 ValueError, KeyError, OSError, json.JSONDecodeError)
_SKIP_ERRORS = (Untestable, NotApplicable)


def _canonical_digest(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_manifest(out_path, command, config, seed, elapsed):
    manifest = {
        "command": command,
        "config_digest": _canonical_digest(config),
        "seed": seed,
        "tool_version": __version__,
        "timing_seconds": round(elapsed, 6),
    }
    with open(f"{out_path}.manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _data_config(args):
    """Every argument of the data commands that can change the result."""
    return {"data": args.data, "hypothesis": args.hypothesis, "stat": args.stat,
            "alpha": args.alpha, "mc": args.mc, "response": args.response,
            "intercept": args.intercept, "family": args.family}


def _read_csv(path):
    """The header and the N x K numbers of a CSV file: a header row, then at
    least one row of numbers, with no comment lines. Blank lines are skipped."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        body = fh.read()
    if not body.strip():
        raise InvalidSpec(f"{path} has no data rows")
    # one correctly rounded parse of every cell, as float() gives
    data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2,
                      quotechar='"')
    if data.shape[1] != len(header):
        raise InvalidSpec("ragged CSV data")
    return header, data


def _read_data(path, response, intercept):
    header, data = _read_csv(path)
    if response not in header:
        raise InvalidSpec(f"response column {response!r} not in {header}")
    y_idx = header.index(response)
    y = data[:, y_idx]
    x = np.delete(data, y_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != y_idx]
    if intercept:
        x = np.hstack([np.ones((x.shape[0], 1)), x])
        names = ["(intercept)"] + names
        return DesignMatrix(x, column_names=names, intercept_column=0), y
    return DesignMatrix(x, column_names=names), y


def _read_hypothesis(path, p):
    with open(path) as fh:
        doc = json.load(fh)
    if "subset" in doc:
        sub = doc["subset"]
        return SubsetHypothesis(int(sub["j0"]), np.asarray(sub["c"], dtype=float)).expand(
            p, row_partition=doc.get("groups"))
    a = np.asarray(doc["A"], dtype=float)
    c = np.asarray(doc["c"], dtype=float)
    return LinearHypothesis(a, c, row_partition=doc.get("groups"))


def _known_stat(name):
    """``name`` when it names a statistic family; InvalidSpec otherwise."""
    if name not in ALL_FAMILIES:
        raise InvalidSpec(f"unknown statistic {name!r}; expected one of "
                          + ", ".join(ALL_FAMILIES))
    return name


def _resolve_stat(name, family_tag, n_rows, groups=None):
    """The StatisticSpec a statistic name stands for.

    A group statistic over ``n_rows`` rows takes ``groups`` when some block
    holds more than one row, and one block over all its rows otherwise.
    ``family_tag`` is used by the GLM score statistics only.
    """
    if _known_stat(name) not in GLM_FAMILIES:
        family_tag = None
    elif family_tag is None:
        raise InvalidSpec(f"{name} requires --family")
    spec = StatisticSpec(name, glm_family=family_tag)
    if not spec.is_group:
        return spec
    if groups is None or all(len(block) == 1 for block in groups):
        groups = (tuple(range(n_rows)),)
    return dataclasses.replace(spec, row_partition=groups)


def _data_stat(args, x, hyp):
    """``--stat`` of a hypothesis-file command. A GLM score statistic has
    one row per tested column of X; any other has the rows of A and their
    groups from the hypothesis file. Those groups index rows of A, so a
    group block of more than one row cannot apply to glm_score_group."""
    if args.stat in GLM_FAMILIES:
        if args.stat == "glm_score_group" and any(
                len(block) > 1 for block in hyp.row_partition):
            raise InvalidSpec(
                "the hypothesis file's groups do not apply to glm_score_group: "
                "they group rows of A, and its blocks are the tested columns of X")
        return _resolve_stat(args.stat, args.family, x.tested_values().shape[1])
    return _resolve_stat(args.stat, args.family, hyp.r, hyp.row_partition)


def _write_record_csv(path, record):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(record.keys()))
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in record.values()])


def _cmd_test(args):
    x, y = _read_data(args.data, args.response, args.intercept)
    hyp = _read_hypothesis(args.hypothesis, x.p)
    mc = McConfig(m_draws=args.mc, seed=args.seed)
    if args.stat == "composite":
        result = run_composite(y, x, hyp, alpha=args.alpha, mc=mc)
    else:
        result = run_test(y, x, hyp, _data_stat(args, x, hyp), alpha=args.alpha, mc=mc)
    _write_record_csv(args.out, result.to_record())
    return _data_config(args)


def _cmd_calibrate(args):
    x, y = _read_data(args.data, args.response, args.intercept)
    hyp = _read_hypothesis(args.hypothesis, x.p)
    (evaluator,), model = _bind([_data_stat(args, x, hyp)], y, x, hyp)
    calibrate(evaluator, model, args.mc, args.alpha, args.seed).save(args.out)
    return _data_config(args)


def _parse_axis(spec):
    lo, hi, num = spec.split(":")
    return np.linspace(float(lo), float(hi), int(num))


def _cmd_region(args):
    x, y = _read_data(args.data, args.response, args.intercept)
    hyp = _read_hypothesis(args.hypothesis, x.p)
    r = hyp.r
    if len(args.grid) != r:
        raise InvalidSpec(f"need {r} --grid axes for an R = {r} hypothesis")
    region = confidence_region(y, x, hyp.a_matrix, stat=_data_stat(args, x, hyp),
                               alpha=args.alpha, mc=McConfig(m_draws=args.mc, seed=args.seed))
    axes = [_parse_axis(g) for g in args.grid]
    # every combination of the axis values, the last axis varying fastest
    points, lam = region.scan(
        np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r))
    member = lam <= region.lambda_alpha
    with open(args.out, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if r == 1:
            writer.writerow(["c", "lambda_cr", "member"])
            writer.writerows([repr(float(c)), repr(float(v)), int(m)]
                             for (c,), v, m in zip(points, lam, member))
        else:
            writer.writerow(["c1", "c2", "member"])
            writer.writerows([repr(float(c1)), repr(float(c2)), int(m)]
                             for (c1, c2), m in zip(points, member))
    if args.plot and r == 1:
        _svg.line_panels([{
            "title": f"lambda_CR(c), threshold {region.lambda_alpha:.4g}",
            "series": [
                ("lambda_CR", list(axes[0]), lam.tolist()),
                ("lambda_alpha", [axes[0][0], axes[0][-1]],
                 [region.lambda_alpha, region.lambda_alpha]),
            ],
        }], args.plot)
    return dict(_data_config(args), grid=args.grid)


def _tuple_of(convert):
    """A converter of a JSON list, item by item; any other value is refused."""
    def converter(value):
        if not isinstance(value, list):
            raise InvalidSpec(f"expected a list, got {value!r}")
        return tuple(convert(v) for v in value)
    return converter


def _flag(value):
    """A JSON boolean (or 0 or 1); ``bool`` would read the string "false"
    as True."""
    if value not in (0, 1):
        raise InvalidSpec(f"expected true or false, got {value!r}")
    return bool(value)


# converters of the keys a study config may set; a key it leaves out takes
# the default of ExperimentConfig or DesignSpec
_CONFIG_KEYS = {
    "family": lambda v: v,
    "beta0": float,
    "alpha": float,
    "m_calib": int,
    "n_reps": int,
    "theta_grid": _tuple_of(float),
    "s_values": _tuple_of(int),
}
_DESIGN_KEYS = {"kind": lambda v: v, "rho": float, "standardize": _flag}


def _given(doc, converters):
    given = {}
    for key, convert in converters.items():
        if key in doc:
            try:
                given[key] = convert(doc[key])
            except (TypeError, ValueError, InvalidSpec) as exc:
                raise InvalidSpec(f"config key {key!r}: {exc}") from None
    return given


def _scenario_config(doc, seed_override):
    cfg = ExperimentConfig(
        n=int(doc["n"]),
        p=int(doc["p"]),
        design_spec=DesignSpec(**_given(doc.get("design", {}), _DESIGN_KEYS)),
        seed=int(doc["seed"] if seed_override is None else seed_override),
        **_given(doc, _CONFIG_KEYS),
    )
    stats = []
    for entry in doc.get("statistics", []):
        if entry in ("composite", "fisher", "lrt"):
            stats.append(entry)
        elif isinstance(entry, str):
            # every statistic of a study tests all P covariates
            stats.append(_resolve_stat(entry, cfg.family, cfg.p))
        else:
            stats.append(StatisticSpec(
                _known_stat(entry["family"]),
                row_partition=entry.get("groups"),
                glm_family=entry.get("glm_family")))
    return dataclasses.replace(cfg, statistics=tuple(stats))


def _write_power_csv(path, rows):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(PowerRow.HEADER))
        for row in rows:
            writer.writerow(list(row.as_csv_row()))


def _plot_power(rows, path):
    panels = []
    keys = sorted({(r.family, r.s) for r in rows})
    for family, s in keys:
        series = []
        stat_ids = sorted({r.statistic_id for r in rows
                           if r.family == family and r.s == s})
        for sid in stat_ids:
            pts = sorted((r.theta, r.power_estimate) for r in rows
                         if r.family == family and r.s == s
                         and r.statistic_id == sid and r.status == "ok")
            if pts:
                series.append((sid, [p[0] for p in pts], [p[1] for p in pts]))
        panels.append({"title": f"{family}, s = {s}", "series": series})
    _svg.line_panels(panels, path)


def _cmd_power(args):
    """``power`` and ``level``: one CSV per scenario of the config."""
    with open(args.config) as fh:
        doc = json.load(fh)
    scenarios = doc["scenarios"] if "scenarios" in doc else [doc]
    runner = estimate_level if args.command == "level" else estimate_power
    all_rows = []
    for i, scenario in enumerate(scenarios):
        rows = runner(_scenario_config(scenario, args.seed), threads=args.threads)
        all_rows.extend(rows)
        path = args.out if len(scenarios) == 1 else f"{args.out}.scenario{i + 1}.csv"
        _write_power_csv(path, rows)
    if args.plot:
        _plot_power(all_rows, args.plot)
    return doc


def _add_data_command(sub, name, func):
    """A command on a CSV data file and a hypothesis file."""
    parser = sub.add_parser(name)
    parser.add_argument("--data", required=True, help="CSV data file with header")
    parser.add_argument("--response", required=True, help="response column name")
    parser.add_argument("--intercept", action="store_true",
                        help="prepend an unpenalized all-ones column")
    parser.add_argument("--hypothesis", required=True, help="hypothesis JSON file")
    parser.add_argument("--stat", default="sqrt_affine_lasso")
    parser.add_argument("--family", default=None,
                        help="glm family for glm_score statistics")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--mc", type=int, default=2000,
                        help="number of Monte-Carlo calibration draws")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    parser = argparse.ArgumentParser(prog="threshtest")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_data_command(sub, "test", _cmd_test)
    _add_data_command(sub, "calibrate", _cmd_calibrate)
    region = _add_data_command(sub, "region", _cmd_region)
    region.add_argument("--grid", action="append", default=[],
                        help="axis as lo:hi:count (repeat for R = 2)")
    region.add_argument("--plot", default=None, help="optional SVG output path")
    for name in ("power", "level"):
        study = sub.add_parser(name)
        study.add_argument("--config", required=True, help="experiment config JSON")
        study.add_argument("--seed", type=int, default=None,
                           help="replaces the seed of every scenario")
        study.add_argument("--out", required=True)
        study.add_argument("--threads", type=int, default=1)
        study.add_argument("--plot", default=None, help="optional SVG output path")
        study.set_defaults(func=_cmd_power)
    return parser


def main(argv=None):
    """Run one command. Each command writes its outputs and returns the
    config its manifest digests; the manifest is written here."""
    args = build_parser().parse_args(argv)
    try:
        started = time.time()
        config = args.func(args)
        _write_manifest(args.out, args.command, config, args.seed, time.time() - started)
        return 0
    except _SKIP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
