"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every criterion is checked at a frozen seed so results are deterministic;
the printed line reports the measured quantities alongside the verdict.
"""

import csv
import itertools
import json
import pathlib
import time

import numpy as np
import pytest
from scipy import stats as sp_stats

from threshtest import (
    DesignMatrix,
    DesignSpec,
    ExperimentConfig,
    LinearHypothesis,
    McConfig,
    SubsetHypothesis,
    baseline_f_test,
    build_evaluator,
    build_reduction,
    confidence_region,
    constrained_ls,
    cr_member,
    estimate_level,
    estimate_power,
    fisher_F,
    gen_design,
    glm_family,
    link_identity_residual,
    oracle_zero_threshold,
    run_test,
    zt_affine_group_lasso,
    zt_affine_lasso,
    zt_lad,
    zt_sqrt_variant,
)
from threshtest.calibration import _simulate_batch, calibrate, gaussian_pivotal_null, substream
from threshtest.inference import CalibrationCache
from threshtest.simulate import _Harness, _glm_true_null
from threshtest.statistics import StatisticSpec
from threshtest.cli import _read_study, main as cli_main
from threshtest.exceptions import Untestable


def _report(num, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"\n[ACCEPTANCE {num:>2}] {name}: {verdict} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def _gaussian_stats(p):
    return (StatisticSpec("sqrt_affine_lasso"),
            StatisticSpec("sqrt_affine_group_lasso",
                          row_partition=(tuple(range(p)),)),
            "composite")


def _glm_stats(p, family):
    return (StatisticSpec("glm_score_sup", glm_family=family),
            StatisticSpec("glm_score_group", glm_family=family,
                          row_partition=(tuple(range(p)),)),
            "composite")


def test_criterion_01_fisher_equivalence():
    started = time.time()
    rng = np.random.default_rng(1001)
    worst_rel = 0.0
    agree = 0
    total = 100
    for i in range(total):
        n = 30
        p = int(rng.integers(3, 9))
        r = int(rng.integers(1, p + 1))
        x = DesignMatrix(rng.standard_normal((n, p)))
        a = rng.standard_normal((r, p))
        c = rng.standard_normal(r)
        hyp = LinearHypothesis(a, c)
        y = rng.standard_normal(n)
        f_got, df1, df2 = fisher_F(x, hyp, y)
        # independent two-fit evaluation
        beta_hat = np.linalg.lstsq(x.values, y, rcond=None)[0]
        rss = float(np.sum((y - x.values @ beta_hat) ** 2))
        red = build_reduction(x, hyp)
        fit0 = red.x_fit_c + red.project(y - red.x_fit_c)
        rss0 = float(np.sum((y - fit0) ** 2))
        f_direct = ((rss0 - rss) / r) / (rss / (n - p))
        worst_rel = max(worst_rel, abs(f_got - f_direct) / max(abs(f_direct), 1e-12))
        thresh = run_test(y, x, hyp, StatisticSpec("fisher_weighted"), alpha=0.05)
        exact = baseline_f_test(y, x, hyp, alpha=0.05)
        agree += int(thresh.reject == exact.reject)
    elapsed = time.time() - started
    _report(1, "fisher equivalence", worst_rel <= 1e-8 and agree == total
            and elapsed < 10.0,
            f"max rel err {worst_rel:.2e}, decisions {agree}/{total}, "
            f"{elapsed:.1f}s")


def test_criterion_02_sign_test_equivalence():
    started = time.time()
    n = 12
    x = np.ones((n, 1))
    mismatches = 0
    for bits in itertools.product((1.0, -1.0), repeat=n):
        y = np.array(bits)
        b = int(np.sum(y > 0))
        if int(zt_lad(x, y).value) != abs(2 * b - n):
            mismatches += 1
    elapsed = time.time() - started
    _report(2, "sign-test equivalence", mismatches == 0 and elapsed < 1.0,
            f"{2**n} sign patterns, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_03_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(1003)
    worst_oracle = 0.0
    worst_dual = 0.0
    for i in range(50):
        n = int(rng.integers(6, 11))
        p = int(rng.integers(2, 5))
        r = int(rng.integers(1, min(3, p) + 1))
        j = 1 if i % 2 == 0 else 2
        x_vals = rng.standard_normal((n, p))
        a = rng.standard_normal((r, p))
        c = rng.standard_normal(r)  # c != 0 with probability one
        y = rng.standard_normal(n)
        x = DesignMatrix(x_vals)
        red = build_reduction(x, LinearHypothesis(a, c))
        _, z_hat = constrained_ls(x_vals, y, a, c)
        if j == 1:
            closed = zt_affine_lasso(red, x, y).value
            dual = float(np.max(np.abs(z_hat)))
            oracle = oracle_zero_threshold(x_vals, y, a, c, j=1)
        else:
            partition = [tuple(range(r))]
            closed = zt_affine_group_lasso(red, x, y, partition=partition).value
            dual = float(np.linalg.norm(z_hat))
            oracle = oracle_zero_threshold(x_vals, y, a, c, j=2,
                                           partition=partition)
        worst_oracle = max(worst_oracle, abs(closed - oracle))
        worst_dual = max(worst_dual, abs(closed - dual) / max(closed, 1e-12))
    elapsed = time.time() - started
    _report(3, "oracle equivalence",
            worst_oracle <= 1e-5 and worst_dual <= 1e-8 and elapsed < 60.0,
            f"max |closed-oracle| {worst_oracle:.2e}, "
            f"max dual-norm rel err {worst_dual:.2e}, {elapsed:.1f}s")


def test_criterion_04_exact_pivotality():
    started = time.time()
    rng = np.random.default_rng(1004)
    n, p, r = 20, 6, 3
    x = DesignMatrix(rng.standard_normal((n, p)))
    a = rng.standard_normal((r, p))
    hyp = LinearHypothesis(a, rng.standard_normal(r))
    red = build_reduction(x, hyp)
    k = red.kernel_basis
    specs = [("lasso", None), ("group", [tuple(range(r))])]
    worst = 0.0
    count = 0
    e = rng.standard_normal(n)
    for base, partition in specs:
        ref = zt_sqrt_variant(red, x, red.x_fit_c + e, base=base,
                              partition=partition).value
        for _ in range(50):
            for sigma in (0.1, 1.0, 10.0):
                gamma = k @ rng.standard_normal(k.shape[1])
                y = red.x_fit_c + x.values @ gamma + sigma * e
                val = zt_sqrt_variant(red, x, y, base=base,
                                      partition=partition).value
                worst = max(worst, abs(val - ref) / ref)
                count += 1
    elapsed = time.time() - started
    _report(4, "exact pivotality", worst <= 1e-10 and elapsed < 5.0,
            f"{count} (gamma, sigma) combinations, max rel dev {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_05_level_control_nine_scenarios():
    started = time.time()
    levels = []
    for family in ("gaussian", "bernoulli", "poisson"):
        for p in (10, 40, 200):
            stats = _gaussian_stats(p) if family == "gaussian" \
                else _glm_stats(p, family)
            cfg = ExperimentConfig(
                n=100, p=p, family=family, beta0=-2.0, alpha=0.05,
                m_calib=2000, n_reps=2000, theta_grid=(0.0,), s_values=(0,),
                statistics=stats, seed=2026)
            for row in estimate_level(cfg, threads=4):
                assert row.status == "ok", row.status
                levels.append((family, p, row.statistic_id, row.power_estimate))
    out_of_band = [(f, p, s, lv) for f, p, s, lv in levels
                   if not 0.03 <= lv <= 0.07]
    lo = min(lv for *_, lv in levels)
    hi = max(lv for *_, lv in levels)
    elapsed = time.time() - started
    _report(5, "level control (nine scenarios)",
            not out_of_band and elapsed < 1800.0,
            f"{len(levels)} levels in [{lo:.3f}, {hi:.3f}], "
            f"{len(out_of_band)} outside [0.03, 0.07], {elapsed:.0f}s")


def test_criterion_06_power_ordering():
    started = time.time()
    theta_sparse, theta_dense = 0.35, 0.075  # tuned: better test's power ~ 0.6
    results = {}
    for s, theta in ((1, theta_sparse), (40, theta_dense)):
        cfg = ExperimentConfig(
            n=100, p=40, family="gaussian", alpha=0.05, m_calib=2000,
            n_reps=1000, theta_grid=(theta,), s_values=(s,),
            statistics=_gaussian_stats(40), seed=2026)
        for row in estimate_power(cfg, threads=4):
            key = "composite" if row.statistic_id.startswith("composite") else (
                "group" if "group" in row.statistic_id else "lasso")
            results[(s, key)] = (row.power_estimate, row.mc_standard_error)

    def margin_ok(hi, lo):
        (p_hi, se_hi), (p_lo, se_lo) = results[hi], results[lo]
        margin = p_hi - p_lo
        return margin >= 0.05 and margin > 3.0 * np.hypot(se_hi, se_lo), margin

    sparse_ok, sparse_margin = margin_ok((1, "lasso"), (1, "group"))
    dense_ok, dense_margin = margin_ok((40, "group"), (40, "lasso"))
    comp_gaps = []
    for s in (1, 40):
        best = max(results[(s, "lasso")][0], results[(s, "group")][0])
        comp_gaps.append(best - results[(s, "composite")][0])
    comp_ok = all(gap <= 0.10 for gap in comp_gaps)
    elapsed = time.time() - started
    _report(6, "power ordering",
            sparse_ok and dense_ok and comp_ok and elapsed < 900.0,
            f"sparse margin {sparse_margin:+.3f}, dense margin "
            f"{dense_margin:+.3f}, composite gaps "
            f"{comp_gaps[0]:+.3f}/{comp_gaps[1]:+.3f}, {elapsed:.0f}s")


def test_criterion_07_link_identity():
    started = time.time()
    grids = {
        "gaussian": np.linspace(-10.0, 10.0, 1000),
        "poisson": np.linspace(0.0, 20.0, 1000),
        "bernoulli": np.linspace(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, 1000),
    }
    worst = max(float(np.max(np.abs(link_identity_residual(tag, grid))))
                for tag, grid in grids.items())
    elapsed = time.time() - started
    _report(7, "link identity", worst <= 1e-10 and elapsed < 1.0,
            f"max |h'^2 - V(h)| {worst:.2e} over 3x1000 grid points, "
            f"{elapsed:.2f}s")


def test_criterion_08_glm_asymptotic_pivot():
    started = time.time()
    n, p = 100, 40
    levels = {}
    ks_stats = {}
    for family in ("bernoulli", "poisson"):
        cfg = ExperimentConfig(
            n=n, p=p, family=family, beta0=-2.0, alpha=0.05, m_calib=2000,
            n_reps=2000, theta_grid=(0.0,), s_values=(0,),
            statistics=(StatisticSpec("glm_score_sup", glm_family=family),),
            seed=2026)
        row = estimate_level(cfg, threads=4)[0]
        levels[family] = row.power_estimate
        # empirical T(Y) under the true null vs the gaussian sup-norm limit
        rng = substream(2026, 0)
        x = gen_design(n, p, DesignSpec(), rng)
        model = _glm_true_null(x, family, -2.0)
        ev = build_evaluator(StatisticSpec("glm_score_sup", glm_family=family), x)
        y0 = _simulate_batch(model, 2026, 5000, 0)
        t_draws, degen = ev.evaluate_batch(y0)
        t_draws = t_draws[~degen]
        xc = x.values - np.mean(x.values, axis=0)
        sigma = xc.T @ xc / n
        w = substream(2026, 99).multivariate_normal(
            np.zeros(p), sigma, size=5000, method="cholesky")
        ref = np.max(np.abs(w), axis=1)
        ks_stats[family] = float(sp_stats.ks_2samp(t_draws, ref).statistic)
    level_ok = all(0.03 <= lv <= 0.07 for lv in levels.values())
    ks_ok = all(ks < 0.05 for ks in ks_stats.values())
    elapsed = time.time() - started
    _report(8, "glm asymptotic pivot",
            level_ok and ks_ok and elapsed < 600.0,
            f"levels bern {levels['bernoulli']:.3f} / pois "
            f"{levels['poisson']:.3f}, KS bern {ks_stats['bernoulli']:.4f} / "
            f"pois {ks_stats['poisson']:.4f}, {elapsed:.0f}s")


def test_criterion_09_region_duality_and_coverage():
    started = time.time()
    rng = np.random.default_rng(1009)
    n, p = 30, 3
    x = DesignMatrix(rng.standard_normal((n, p)))
    a = np.array([[1.0, -0.5, 2.0]])
    beta = np.array([0.8, -0.3, 0.5])
    mc = McConfig(m_draws=2000, seed=17)
    stat = StatisticSpec("sqrt_affine_lasso")

    # duality on a 201-point scan for one dataset
    y = x.values @ beta + rng.standard_normal(n)
    region = confidence_region(y, x, a, stat=stat, mc=mc)
    duality_violations = 0
    for c in np.linspace(-4.0, 6.0, 201):
        c_vec = np.array([c])
        member = region.member(c_vec)
        member_pt = cr_member(c_vec, y, x, a, stat, region.lambda_alpha)
        # the level-alpha test of H0: A beta = c rejects iff c is excluded
        hyp_c = LinearHypothesis(a, c_vec)
        red_c = build_reduction(x, hyp_c)
        ev_c = build_evaluator(stat, x, hyp=hyp_c, red=red_c)
        obs = ev_c.evaluate(y)
        reject = (not obs.degenerate) and obs.value > region.lambda_alpha
        if member != member_pt or member == reject:
            duality_violations += 1
    # pivotality makes the single calibration valid at every c: spot-check
    hyp_far = LinearHypothesis(a, np.array([3.0]))
    red_far = build_reduction(x, hyp_far)
    cal_far = calibrate(build_evaluator(stat, x, hyp=hyp_far, red=red_far),
                        gaussian_pivotal_null(x, hyp_far, red_far),
                        mc.m_draws, 0.05, mc.seed)
    recal_dev = abs(cal_far.lambda_alpha - region.lambda_alpha)

    # coverage of the true A beta over 1000 replicates (shared design)
    c_true = a @ beta
    hyp_true = LinearHypothesis(a, c_true)
    red_true = build_reduction(x, hyp_true)
    ev_true = build_evaluator(stat, x, hyp=hyp_true, red=red_true)
    m_reps = 1000
    y_mat = (x.values @ beta)[:, None] + \
        np.column_stack([substream(909, m).standard_normal(n)
                         for m in range(m_reps)])
    vals, degen = ev_true.evaluate_batch(y_mat)
    covered = float(np.mean(np.where(degen, True, vals <= region.lambda_alpha)))
    elapsed = time.time() - started
    _report(9, "region duality and coverage",
            duality_violations == 0 and recal_dev < 1e-12
            and 0.93 <= covered <= 0.97 and elapsed < 300.0,
            f"201-point duality violations {duality_violations}, "
            f"recalibration dev {recal_dev:.1e}, coverage {covered:.3f}, "
            f"{elapsed:.0f}s")


def test_criterion_10_degenerate_handling():
    started = time.time()
    rng = np.random.default_rng(1010)
    # rank(X K_A) = N: no thresholding test exists
    x_wide = DesignMatrix(rng.standard_normal((5, 8)))
    hyp_wide = SubsetHypothesis(7, np.zeros(1)).expand(8)
    untestable_raised = False
    try:
        build_reduction(x_wide, hyp_wide)
    except Untestable:
        untestable_raised = True
    # all-ones bernoulli response: degenerate flag, conservative no-reject
    x = DesignMatrix(rng.standard_normal((12, 2)))
    hyp = LinearHypothesis(np.eye(2), np.zeros(2))
    res = run_test(np.ones(12), x, hyp,
                   StatisticSpec("glm_score_sup", glm_family="bernoulli"),
                   mc=McConfig(m_draws=100, seed=0),
                   cache=CalibrationCache(directory=False))
    degenerate_ok = (res.observed.degenerate and not res.reject
                     and res.p_value == 1.0 and bool(res.degenerate_note))
    elapsed = time.time() - started
    _report(10, "degenerate handling",
            untestable_raised and degenerate_ok and elapsed < 1.0,
            f"Untestable raised: {untestable_raised}, degenerate no-reject: "
            f"{degenerate_ok}, {elapsed:.2f}s")


def test_criterion_11_reproducibility(tmp_path):
    started = time.time()
    doc = {
        "n": 60, "p": 8, "family": "gaussian", "alpha": 0.05,
        "m_calib": 500, "n_reps": 400, "theta_grid": [0.0, 0.5, 1.0],
        "s_values": [1, 8],
        "statistics": ["sqrt_affine_lasso", "sqrt_affine_group_lasso",
                       "composite", "fisher"],
        "seed": 77,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    outputs = []
    for run_id, threads in ((1, 1), (2, 4)):
        out = tmp_path / f"power{run_id}.csv"
        code = cli_main(["power", "--config", str(cfg), "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    elapsed = time.time() - started
    _report(11, "reproducibility", identical and elapsed < 300.0,
            f"byte-identical across thread counts: {identical}, {elapsed:.0f}s")


PAPER_CLAIMS = pathlib.Path(__file__).resolve().parents[1] / "studies" / "paper_claims.json"


def _cell_rejections(cfg):
    """Each column's per-replicate rejections on the one cell of a study,
    keyed by its tag or statistic family."""
    harness = _Harness(cfg)
    (s,), (theta,) = cfg.s_values, cfg.theta_grid
    y = harness.simulate_cell(s, theta)
    shared = {}
    return {entry if isinstance(entry, str) else entry.family:
            np.asarray(decide(harness, y, shared), dtype=float)
            for entry, (_, decide) in zip(cfg.statistics, harness.columns)}


def _paired_gap(better, worse):
    """The mean per-replicate difference in units of its standard error:
    both columns are decided on the same replicates."""
    d = better - worse
    return d.mean() / (d.std(ddof=1) / np.sqrt(d.size))


def test_criterion_12_comparative_claim():
    started = time.time()
    _, (sparse_cfg, dense_cfg, glm_cfg) = _read_study(PAPER_CLAIMS, None)
    sparse, dense, glm = map(_cell_rejections, (sparse_cfg, dense_cfg, glm_cfg))
    sparse_gaps = [_paired_gap(sparse[key], sparse["fisher"])
                   for key in ("sqrt_affine_lasso", "composite")]
    dense_gap = _paired_gap(dense["composite"], dense["fisher"])
    levels = {key: rejects.mean() for key, rejects in glm.items()}
    lrt_miss = abs(levels["lrt"] - glm_cfg.alpha)
    glm_ok = all(abs(levels[key] - glm_cfg.alpha) < lrt_miss
                 for key in ("glm_score_sup", "composite"))
    elapsed = time.time() - started
    _report(12, "comparative claim",
            min(sparse_gaps) >= 5.0 and dense_gap >= -2.0 and glm_ok and elapsed < 60.0,
            f"sparse power sqrt lasso {sparse['sqrt_affine_lasso'].mean():.3f}, composite "
            f"{sparse['composite'].mean():.3f}, F {sparse['fisher'].mean():.3f} (gaps "
            f"{sparse_gaps[0]:+.1f}/{sparse_gaps[1]:+.1f} paired se); dense power composite "
            f"{dense['composite'].mean():.3f}, F {dense['fisher'].mean():.3f} (gap "
            f"{dense_gap:+.1f} paired se); bernoulli level glm_score_sup "
            f"{levels['glm_score_sup']:.3f}, composite {levels['composite']:.3f}, LRT "
            f"{levels['lrt']:.3f}; the GLM level row uses the harness's true-mean null, "
            f"and the gaussian cells compare with F, not with the sigma = 1 LRT; "
            f"{elapsed:.1f}s")
