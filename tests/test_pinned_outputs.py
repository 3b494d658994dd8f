"""Exact outputs of the user-facing tests, pinned to recorded values.

The values below were recorded from the implementation in which
``run_composite``, the power harness and the scalar statistic functions
each spelled out their own composite ratio, order statistic, p-value count
and evaluation path. Folding them into the shared ``Evaluator`` /
calibration / decision code must leave every output as it was.

p-values, reject flags, degenerate flags, notes, region masks and power
rows are compared exactly. Float statistics and thresholds are compared to
a relative 1e-9, which absorbs the last-bit differences of other CPUs and
BLAS thread counts.
"""

import math

import numpy as np
import pytest

from threshtest import (
    DesignMatrix,
    McConfig,
    StatisticSpec,
    SubsetHypothesis,
    build_reduction,
    confidence_region,
    cr_grid,
    run_composite,
    run_test,
)
from threshtest.inference import CalibrationCache
from threshtest.simulate import ExperimentConfig, estimate_level, estimate_power

MC = McConfig(m_draws=199, seed=11)


def _dataset():
    """(X with an intercept, H0: beta_3..5 = 0, gaussian y, 0/1 y, a y in
    the null fit space, where the square-root statistics are degenerate)."""
    rng = np.random.default_rng(2024)
    n, p = 40, 6
    x = DesignMatrix(np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))]),
                     intercept_column=0)
    hyp = SubsetHypothesis(3, np.zeros(3)).expand(p)
    y = x.values @ np.array([0.5, 1.0, -0.5, 0.4, 0.0, 0.0]) + rng.standard_normal(n)
    y_bin = (rng.random(n) < 0.4).astype(float)
    red = build_reduction(x, hyp)
    q = red.projector_factor
    y_null = red.x_fit_c + q @ rng.standard_normal(q.shape[1])
    return x, hyp, y, y_bin, y_null


def _result(res):
    return {
        "observed": res.observed.value,
        "degenerate": res.observed.degenerate,
        "lambda_alpha": res.lambda_alpha,
        "p_value": res.p_value,
        "reject": res.reject,
        "statistic_id": res.statistic_id,
        "m_draws": res.m_draws,
        "seed": res.seed,
        "note": res.degenerate_note,
    }


def _tests():
    x, hyp, y, y_bin, y_null = _dataset()
    cases = {
        "sqrt_affine_lasso": ("sqrt_affine_lasso", y),
        "sqrt_affine_group_lasso": (
            StatisticSpec("sqrt_affine_group_lasso", row_partition=((0, 2), (1,))), y),
        "fisher_weighted": ("fisher_weighted", y),
        "glm_score_sup": (StatisticSpec("glm_score_sup", glm_family="bernoulli"), y_bin),
        "lad_sign": ("lad_sign", y),
        "sqrt_affine_lasso_degenerate": ("sqrt_affine_lasso", y_null),
        "fisher_weighted_degenerate": ("fisher_weighted", x.values @ np.arange(6.0)),
    }
    out = {name: _result(run_test(yy, x, hyp, stat, mc=MC,
                                  cache=CalibrationCache(directory=False)))
           for name, (stat, yy) in cases.items()}
    # the F threshold of a y in the span of X scales with its RSS, which is
    # rounding noise
    del out["fisher_weighted_degenerate"]["lambda_alpha"]
    out["composite"] = _result(run_composite(y, x, hyp, mc=MC))
    out["composite_degenerate"] = _result(run_composite(y_null, x, hyp, mc=MC))
    return out


def _region():
    x, _, y, _, _ = _dataset()
    a = np.array([[0.0, 1.0, -1.0, 0.0, 0.0, 0.0]])
    region = confidence_region(y, x, a, mc=MC)
    grid = np.linspace(-1.0, 4.0, 26)
    mask, endpoints = cr_grid(y, x, a, StatisticSpec("sqrt_affine_lasso"),
                              region.lambda_alpha, grid)
    return {
        "lambda_alpha": region.lambda_alpha,
        "lambda_cr": [region.lambda_cr(c) for c in (0.0, 1.5, 3.0)],
        "mask": "".join("1" if member else "0" for member in mask),
        "endpoints": list(endpoints),
    }


def _power_configs():
    common = dict(n=40, p=4, m_calib=199, n_reps=60, theta_grid=(0.0, 0.7),
                  s_values=(1, 2), seed=5)
    gaussian = ExperimentConfig(
        family="gaussian",
        statistics=("composite", "fisher", "lrt", StatisticSpec("sqrt_affine_lasso"),
                    StatisticSpec("glm_score_group", glm_family="gaussian")),
        **common)
    bernoulli = ExperimentConfig(
        family="bernoulli", beta0=0.0,
        statistics=("composite", "fisher", "lrt",
                    StatisticSpec("glm_score_sup", glm_family="bernoulli")),
        **common)
    return {"gaussian": gaussian, "bernoulli": bernoulli}


def _power():
    out = {}
    for name, cfg in _power_configs().items():
        out[f"power_{name}"] = [",".join(r.as_csv_row()) for r in estimate_power(cfg)]
        out[f"level_{name}"] = [",".join(r.as_csv_row()) for r in estimate_level(cfg)]
    return out


def _assert_matches(got, want, path=""):
    """Exact equality, except floats other than p-values: relative 1e-9."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not path.endswith("p_value"):
        if math.isfinite(want):
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), path
        else:
            assert got == want, path
    else:
        assert type(got) is type(want) and got == want, path


PINNED = {'power': {'level_bernoulli': ['baseline_fisher,bernoulli,1,0.0,0.05,0.028136571693556888,60,ok',
                               'baseline_lrt,bernoulli,1,0.0,0.05,0.028136571693556888,60,ok',
                               'composite(glm_score_sup|family=bernoulli,glm_score_group|groups=0,1,2,3|family=bernoulli),bernoulli,1,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                               'glm_score_sup|family=bernoulli,bernoulli,1,0.0,0.05,0.028136571693556888,60,ok'],
           'level_gaussian': ['baseline_fisher,gaussian,1,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                              'baseline_lrt,gaussian,1,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                              'composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2,3),gaussian,1,0.0,0.08333333333333333,0.03568120160740314,60,ok',
                              'glm_score_group|groups=0,1,2,3|family=gaussian,gaussian,1,0.0,0.05,0.028136571693556888,60,ok',
                              'sqrt_affine_lasso,gaussian,1,0.0,0.06666666666666667,0.03220305943597653,60,ok'],
           'power_bernoulli': ['baseline_fisher,bernoulli,1,0.0,0.05,0.028136571693556888,60,ok',
                               'baseline_fisher,bernoulli,1,0.7,0.2833333333333333,0.05817438662555248,60,ok',
                               'baseline_fisher,bernoulli,2,0.0,0.016666666666666666,0.01652719420071502,60,ok',
                               'baseline_fisher,bernoulli,2,0.7,0.6,0.06324555320336758,60,ok',
                               'baseline_lrt,bernoulli,1,0.0,0.05,0.028136571693556888,60,ok',
                               'baseline_lrt,bernoulli,1,0.7,0.35,0.06157651067303722,60,ok',
                               'baseline_lrt,bernoulli,2,0.0,0.03333333333333333,0.023174059571793568,60,ok',
                               'baseline_lrt,bernoulli,2,0.7,0.6166666666666667,0.06276794416591015,60,ok',
                               'composite(glm_score_sup|family=bernoulli,glm_score_group|groups=0,1,2,3|family=bernoulli),bernoulli,1,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                               'composite(glm_score_sup|family=bernoulli,glm_score_group|groups=0,1,2,3|family=bernoulli),bernoulli,1,0.7,0.35,0.06157651067303722,60,ok',
                               'composite(glm_score_sup|family=bernoulli,glm_score_group|groups=0,1,2,3|family=bernoulli),bernoulli,2,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                               'composite(glm_score_sup|family=bernoulli,glm_score_group|groups=0,1,2,3|family=bernoulli),bernoulli,2,0.7,0.6166666666666667,0.06276794416591015,60,ok',
                               'glm_score_sup|family=bernoulli,bernoulli,1,0.0,0.05,0.028136571693556888,60,ok',
                               'glm_score_sup|family=bernoulli,bernoulli,1,0.7,0.26666666666666666,0.05708992257184502,60,ok',
                               'glm_score_sup|family=bernoulli,bernoulli,2,0.0,0.016666666666666666,0.01652719420071502,60,ok',
                               'glm_score_sup|family=bernoulli,bernoulli,2,0.7,0.5,0.06454972243679027,60,ok'],
           'power_gaussian': ['baseline_fisher,gaussian,1,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                              'baseline_fisher,gaussian,1,0.7,0.9666666666666667,0.023174059571793564,60,ok',
                              'baseline_fisher,gaussian,2,0.0,0.016666666666666666,0.01652719420071502,60,ok',
                              'baseline_fisher,gaussian,2,0.7,0.9833333333333333,0.016527194200715044,60,ok',
                              'baseline_lrt,gaussian,1,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                              'baseline_lrt,gaussian,1,0.7,0.9666666666666667,0.023174059571793564,60,ok',
                              'baseline_lrt,gaussian,2,0.0,0.03333333333333333,0.023174059571793568,60,ok',
                              'baseline_lrt,gaussian,2,0.7,0.9833333333333333,0.016527194200715044,60,ok',
                              'composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2,3),gaussian,1,0.0,0.08333333333333333,0.03568120160740314,60,ok',
                              'composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2,3),gaussian,1,0.7,0.9666666666666667,0.023174059571793564,60,ok',
                              'composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2,3),gaussian,2,0.0,0.05,0.028136571693556888,60,ok',
                              'composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2,3),gaussian,2,0.7,0.9166666666666666,0.035681201607403144,60,ok',
                              'glm_score_group|groups=0,1,2,3|family=gaussian,gaussian,1,0.0,0.05,0.028136571693556888,60,ok',
                              'glm_score_group|groups=0,1,2,3|family=gaussian,gaussian,1,0.7,0.95,0.0281365716935569,60,ok',
                              'glm_score_group|groups=0,1,2,3|family=gaussian,gaussian,2,0.0,0.05,0.028136571693556888,60,ok',
                              'glm_score_group|groups=0,1,2,3|family=gaussian,gaussian,2,0.7,0.9166666666666666,0.035681201607403144,60,ok',
                              'sqrt_affine_lasso,gaussian,1,0.0,0.06666666666666667,0.03220305943597653,60,ok',
                              'sqrt_affine_lasso,gaussian,1,0.7,0.95,0.0281365716935569,60,ok',
                              'sqrt_affine_lasso,gaussian,2,0.0,0.05,0.028136571693556888,60,ok',
                              'sqrt_affine_lasso,gaussian,2,0.7,0.9,0.03872983346207417,60,ok']},
 'region': {'endpoints': [1.6, 2.0],
            'lambda_alpha': 1.3286756940929416,
            'lambda_cr': [3.652675331893424, 1.0634182591672456, 3.085885117548187],
            'mask': '00000000000001110000000000'},
 'tests': {'composite': {'degenerate': False,
                         'lambda_alpha': 1.0320980035916376,
                         'm_draws': 199,
                         'note': None,
                         'observed': 1.3611315657283165,
                         'p_value': 0.005,
                         'reject': True,
                         'seed': 11,
                         'statistic_id': 'composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2)'},
           'composite_degenerate': {'degenerate': True,
                                    'lambda_alpha': 1.0320980035916376,
                                    'm_draws': 199,
                                    'note': 'component statistic degenerate; '
                                            'conservative no-reject',
                                    'observed': 0.0,
                                    'p_value': 1.0,
                                    'reject': False,
                                    'seed': 11,
                                    'statistic_id': 'composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2)'},
           'fisher_weighted': {'degenerate': False,
                               'lambda_alpha': 2.722648532927105,
                               'm_draws': 0,
                               'note': None,
                               'observed': 3.3246000747188673,
                               'p_value': 0.011265510670043803,
                               'reject': True,
                               'seed': 0,
                               'statistic_id': 'fisher_weighted|exact_f'},
           'fisher_weighted_degenerate': {'degenerate': True,
                                          'm_draws': 0,
                                          'note': 'statistic denominator vanished; '
                                                  'conservative no-reject',
                                          'observed': 44.39607203149547,
                                          'p_value': 1.0,
                                          'reject': False,
                                          'seed': 0,
                                          'statistic_id': 'fisher_weighted|exact_f'},
           'glm_score_sup': {'degenerate': False,
                             'lambda_alpha': 2.619632478149845,
                             'm_draws': 199,
                             'note': None,
                             'observed': 1.802504609105041,
                             'p_value': 0.38,
                             'reject': False,
                             'seed': 11,
                             'statistic_id': 'glm_score_sup|family=bernoulli'},
           'lad_sign': {'degenerate': False,
                        'lambda_alpha': 15.134138495083748,
                        'm_draws': 199,
                        'note': None,
                        'observed': 21.43640882130986,
                        'p_value': 0.005,
                        'reject': True,
                        'seed': 11,
                        'statistic_id': 'lad_sign'},
           'sqrt_affine_group_lasso': {'degenerate': False,
                                       'lambda_alpha': 2.4605556963181185,
                                       'm_draws': 199,
                                       'note': None,
                                       'observed': 3.3055827092921026,
                                       'p_value': 0.01,
                                       'reject': True,
                                       'seed': 11,
                                       'statistic_id': 'sqrt_affine_group_lasso|groups=0,2;1'},
           'sqrt_affine_lasso': {'degenerate': False,
                                 'lambda_alpha': 2.4121954637882492,
                                 'm_draws': 199,
                                 'note': None,
                                 'observed': 3.2833153884688424,
                                 'p_value': 0.01,
                                 'reject': True,
                                 'seed': 11,
                                 'statistic_id': 'sqrt_affine_lasso'},
           'sqrt_affine_lasso_degenerate': {'degenerate': True,
                                            'lambda_alpha': 2.4121954637882492,
                                            'm_draws': 199,
                                            'note': 'statistic denominator vanished; '
                                                    'conservative no-reject',
                                            'observed': 0.0,
                                            'p_value': 1.0,
                                            'reject': False,
                                            'seed': 11,
                                            'statistic_id': 'sqrt_affine_lasso'}}}


def test_run_test_and_run_composite():
    _assert_matches(_tests(), PINNED["tests"])


def test_confidence_region_r1():
    _assert_matches(_region(), PINNED["region"])


def test_power_and_level_grids():
    _assert_matches(_power(), PINNED["power"])
