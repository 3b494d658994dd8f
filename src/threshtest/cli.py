"""Command-line surface: test, calibrate, region, power, level.

Inputs are CSV data files with a header (response column picked by
--response) and JSON hypothesis files; every output file is accompanied
by a ``<out>.manifest.json`` run manifest. Exit codes: 0 completed
inference, the ``exit_code`` of a library error (2 invalid input,
3 untestable/not-applicable), 2 for an unreadable or malformed file,
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
from .exceptions import InvalidSpec, ThreshTestError
from .inference import McConfig, _bind, confidence_region, run_composite, run_test
from .simulate import (_STUDY_TAGS, DesignSpec, ExperimentConfig, PowerRow, estimate_level,
                       estimate_power)
from .statistics import ALL_FAMILIES, GLM_FAMILIES, StatisticSpec


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
    if intercept:
        return DesignMatrix(np.hstack([np.ones((x.shape[0], 1)), x]), intercept_column=0), y
    return DesignMatrix(x), y


def _floats(value):
    return np.asarray(value, dtype=float)


def _read_hypothesis(path, p):
    """The hypothesis of a JSON file: an object with ``A`` and ``c``, or with
    a ``subset`` object of ``j0`` and ``c``, and optional ``groups``."""
    with open(path) as fh:
        doc = _object(json.load(fh))
    if "subset" in doc:
        _object(doc, ("subset", "groups"))
        sub = _given(_object(doc["subset"], ("j0", "c")), {"j0": _integer, "c": _floats})
        return SubsetHypothesis(sub["j0"], sub["c"]).expand(p, row_partition=doc.get("groups"))
    given = _given(_object(doc, ("A", "c", "groups")), {"A": _floats, "c": _floats})
    return LinearHypothesis(given["A"], given["c"], row_partition=doc.get("groups"))


def _known_stat(name):
    """``name`` when it names a statistic family; InvalidSpec otherwise."""
    if name not in ALL_FAMILIES:
        raise InvalidSpec(f"unknown statistic {name!r}; expected one of "
                          + ", ".join(ALL_FAMILIES))
    return name


def _resolve_stat(name, family_tag, groups=None):
    """The StatisticSpec a statistic name stands for, with ``groups`` as its
    partition; a group statistic given none has one block over all its rows.
    ``family_tag`` is used by the GLM score statistics only.
    """
    if _known_stat(name) not in GLM_FAMILIES:
        family_tag = None
    elif family_tag is None:
        raise InvalidSpec(f"{name} requires --family")
    return StatisticSpec(name, row_partition=groups, glm_family=family_tag)


def _data_stat(args, hyp):
    """``--stat`` of a hypothesis-file command. Any statistic but a GLM score
    one carries the file's groups, since ``region`` passes only A on; those
    groups index rows of A, so glm_score_group refuses any."""
    if args.stat not in GLM_FAMILIES:
        return _resolve_stat(args.stat, args.family, hyp.row_partition)
    if args.stat == "glm_score_group" and hyp.row_partition is not None:
        raise InvalidSpec(
            "the hypothesis file's groups do not apply to glm_score_group: "
            "they group rows of A, and its blocks are the tested columns of X")
    return _resolve_stat(args.stat, args.family)


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
        result = run_test(y, x, hyp, _data_stat(args, hyp), alpha=args.alpha, mc=mc)
    _write_record_csv(args.out, result.to_record())
    return _data_config(args)


def _cmd_calibrate(args):
    x, y = _read_data(args.data, args.response, args.intercept)
    hyp = _read_hypothesis(args.hypothesis, x.p)
    (evaluator,), model = _bind([_data_stat(args, hyp)], y, x, hyp)
    calibrate(evaluator, model, args.mc, args.alpha, args.seed).save(args.out)
    return _data_config(args)


def _parse_axis(spec):
    """One ``--grid`` axis ``lo:hi:count``: finite ends and an integer count
    of at least 1."""
    try:
        lo, hi, num = (float(part) for part in spec.split(":"))
        num = _integer(num)
    except (ValueError, InvalidSpec):
        raise InvalidSpec(f"--grid {spec!r} is not lo:hi:count with an integer count") from None
    if num < 1 or not np.isfinite([lo, hi]).all():
        raise InvalidSpec(f"--grid {spec!r} needs finite ends and a count of at least 1")
    return np.linspace(lo, hi, num)


def _cmd_region(args):
    x, y = _read_data(args.data, args.response, args.intercept)
    hyp = _read_hypothesis(args.hypothesis, x.p)
    r = hyp.r
    if len(args.grid) != r:
        raise InvalidSpec(f"need {r} --grid axes for an R = {r} hypothesis")
    axes = [_parse_axis(g) for g in args.grid]
    if args.plot and r != 1:
        raise InvalidSpec(f"--plot draws an R = 1 region only, got R = {r}")
    region = confidence_region(y, x, hyp.a_matrix, stat=_data_stat(args, hyp),
                               alpha=args.alpha, mc=McConfig(m_draws=args.mc, seed=args.seed))
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
    if args.plot:
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


def _integer(value):
    """A JSON integer, or a number with no fractional part; ``int`` would
    truncate 20.7 to 20 and read true as 1 and "20" as 20."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidSpec(f"expected an integer, got {value!r}")


def _flag(value):
    """A JSON boolean (or 0 or 1); ``bool`` would read the string "false"
    as True."""
    if value not in (0, 1):
        raise InvalidSpec(f"expected true or false, got {value!r}")
    return bool(value)


def _object(value, keys=None):
    """A JSON object, with no key outside ``keys`` unless that is None; any
    other value is refused, and so is an unknown key, by name, since a
    misspelt key would otherwise leave its default in place unseen."""
    if not isinstance(value, dict):
        raise InvalidSpec(f"expected an object, got {value!r}")
    if keys is not None:
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise InvalidSpec(f"unknown key {unknown[0]!r}; expected keys among "
                              + ", ".join(sorted(keys)))
    return value


# converters of the keys a study config may set besides design and
# statistics; a key it leaves out takes the default of ExperimentConfig or
# DesignSpec, except n, p and seed, which it must set, and any other key is
# refused
_CONFIG_KEYS = {
    "n": _integer,
    "p": _integer,
    "seed": _integer,
    "family": lambda v: v,
    "beta0": float,
    "alpha": float,
    "m_calib": _integer,
    "n_reps": _integer,
    "theta_grid": _tuple_of(float),
    "s_values": _tuple_of(_integer),
}
_DESIGN_KEYS = {"kind": lambda v: v, "rho": float, "standardize": _flag}


def _given(doc, converters):
    given = {}
    for key, convert in converters.items():
        if key in doc:
            try:
                given[key] = convert(doc[key])
            except (TypeError, ValueError, InvalidSpec) as exc:
                raise InvalidSpec(f"key {key!r}: {exc}") from None
    return given


def _study_stat(entry, cfg):
    """One ``statistics`` entry of a study config: a baseline tag, a
    statistic name, which tests all P covariates, or an object with a
    ``family`` and optional ``groups`` and ``glm_family``."""
    if isinstance(entry, str):
        return entry if entry in _STUDY_TAGS else _resolve_stat(entry, cfg.family)
    entry = _object(entry, ("family", "groups", "glm_family"))
    return StatisticSpec(_known_stat(entry["family"]), row_partition=entry.get("groups"),
                         glm_family=entry.get("glm_family"))


def _scenario_config(doc, seed_override):
    doc = _object(doc, (*_CONFIG_KEYS, "design", "statistics"))
    if seed_override is not None:
        doc = dict(doc, seed=seed_override)
    missing = [key for key in ("n", "p", "seed") if key not in doc]
    if missing:
        raise InvalidSpec(f"config lacks {', '.join(missing)}")
    design = _given(doc, {"design": lambda v: _object(v, _DESIGN_KEYS)}).get("design", {})
    cfg = ExperimentConfig(design_spec=DesignSpec(**_given(design, _DESIGN_KEYS)),
                           **_given(doc, _CONFIG_KEYS))
    stats = _given(doc, {"statistics": _tuple_of(lambda entry: _study_stat(entry, cfg))})
    return dataclasses.replace(cfg, **stats)


def _scenarios(value):
    """A config's ``scenarios``: a non-empty list of objects."""
    scenarios = _tuple_of(_object)(value)
    if not scenarios:
        raise InvalidSpec("expected at least one scenario, got []")
    return scenarios


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
        doc = _object(json.load(fh))
    if "scenarios" in doc:  # then the scenarios carry every setting
        _object(doc, ("scenarios",))
    scenarios = _given(doc, {"scenarios": _scenarios}).get("scenarios", [doc])
    runner = estimate_level if args.command == "level" else estimate_power
    configs = [_scenario_config(scenario, args.seed) for scenario in scenarios]
    all_rows = []
    for i, cfg in enumerate(configs):
        rows = runner(cfg, threads=args.threads)
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
    except ThreshTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
