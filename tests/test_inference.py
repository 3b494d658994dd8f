"""End-to-end tests of run_test, run_composite, and confidence regions."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshtest import (
    DesignMatrix,
    LinearHypothesis,
    McConfig,
    SubsetHypothesis,
    build_evaluator,
    build_reduction,
    calibrate_composite,
    confidence_region,
    cr_grid,
    cr_member,
    gaussian_pivotal_null,
    run_composite,
    run_test,
)
from threshtest import calibration, core, inference, statistics
from threshtest.inference import CalibrationCache
from threshtest.statistics import StatisticSpec
from threshtest.exceptions import (
    DimensionMismatch,
    DomainError,
    NotApplicable,
    Untestable,
    UnsupportedDimension,
)


MC = McConfig(m_draws=400, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


@pytest.fixture
def dataset(rng):
    n = 25
    x_cov = rng.standard_normal((n, 4))
    x = DesignMatrix(np.hstack([np.ones((n, 1)), x_cov]), intercept_column=0)
    hyp = SubsetHypothesis(1, np.zeros(4)).expand(5)
    return x, hyp


class TestRunTest:
    def test_null_fit_gives_p_one(self, rng):
        x = DesignMatrix(rng.standard_normal((10, 3)))
        hyp = LinearHypothesis(np.eye(3), rng.standard_normal(3))
        red = build_reduction(x, hyp)
        res = run_test(red.x_fit_c, x, hyp, StatisticSpec("affine_lasso"), mc=MC,
                       cache=CalibrationCache(directory=False))
        assert res.observed.value == pytest.approx(0.0, abs=1e-9)
        assert not res.reject
        assert res.p_value == pytest.approx(1.0)

    def test_strong_signal_rejects(self, dataset, rng):
        x, hyp = dataset
        beta = np.array([0.0, 5.0, -5.0, 5.0, 0.0])
        y = x.values @ beta + rng.standard_normal(x.n)
        res = run_test(y, x, hyp, StatisticSpec("sqrt_affine_lasso"), mc=MC,
                       cache=CalibrationCache(directory=False))
        assert res.reject
        assert res.p_value <= 0.05

    def test_threshold_p_duality(self, dataset, rng):
        x, hyp = dataset
        cache = CalibrationCache(directory=False)
        for _ in range(5):
            y = rng.standard_normal(x.n)
            res = run_test(y, x, hyp, StatisticSpec("sqrt_affine_lasso"),
                           mc=MC, cache=cache)
            assert res.reject == (res.observed.value > res.lambda_alpha)
            assert res.reject == (res.p_value <= res.alpha)

    def test_scale_invariant_decision(self, dataset, rng):
        x, hyp = dataset
        cache = CalibrationCache(directory=False)
        y = rng.standard_normal(x.n)
        res1 = run_test(y, x, hyp, StatisticSpec("sqrt_affine_lasso"),
                        mc=MC, cache=cache)
        res2 = run_test(7.5 * y, x, hyp, StatisticSpec("sqrt_affine_lasso"),
                        mc=MC, cache=cache)
        assert res1.observed.value == pytest.approx(res2.observed.value, rel=1e-10)
        assert res1.p_value == res2.p_value
        assert res1.reject == res2.reject

    def test_fisher_route_matches_exact_f(self, rng):
        from scipy import stats as sp_stats

        n, p = 30, 4
        x = DesignMatrix(rng.standard_normal((n, p)))
        hyp = LinearHypothesis(rng.standard_normal((2, p)), np.zeros(2))
        y = rng.standard_normal(n)
        res = run_test(y, x, hyp, StatisticSpec("fisher_weighted"), alpha=0.05)
        from threshtest import fisher_F
        f, df1, df2 = fisher_F(x, hyp, y)
        assert res.p_value == pytest.approx(float(sp_stats.f.sf(f, df1, df2)))
        assert res.statistic_id.endswith("|exact_f")

    def test_glm_degenerate_no_reject(self):
        x = DesignMatrix(np.hstack([np.arange(8, dtype=float).reshape(8, 1)]))
        hyp = LinearHypothesis(np.eye(1), np.zeros(1))
        y = np.ones(8)  # all-ones bernoulli sample: xi_hat = 0
        res = run_test(y, x, hyp,
                       StatisticSpec("glm_score_sup", glm_family="bernoulli"),
                       mc=MC, cache=CalibrationCache(directory=False))
        assert res.observed.degenerate
        assert not res.reject
        assert res.p_value == 1.0
        assert res.degenerate_note

    def test_untestable_propagates(self, rng):
        x = DesignMatrix(rng.standard_normal((4, 6)))
        hyp = SubsetHypothesis(5, np.zeros(1)).expand(6)
        with pytest.raises(Untestable):
            run_test(rng.standard_normal(4), x, hyp,
                     StatisticSpec("sqrt_affine_lasso"), mc=MC)

    def test_cache_reuse(self, dataset, rng):
        x, hyp = dataset
        cache = CalibrationCache(directory=False)
        y = rng.standard_normal(x.n)
        res1 = run_test(y, x, hyp, StatisticSpec("sqrt_affine_lasso"),
                        mc=MC, cache=cache)
        assert len(cache._memory) == 1
        run_test(rng.standard_normal(x.n), x, hyp,
                 StatisticSpec("sqrt_affine_lasso"), mc=MC, cache=cache)
        assert len(cache._memory) == 1  # second call reused the entry
        assert res1.m_draws == MC.m_draws

    def test_directory_cache_roundtrip(self, dataset, rng, tmp_path):
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        spec = StatisticSpec("sqrt_affine_lasso")
        res1 = run_test(y, x, hyp, spec, mc=MC,
                        cache=CalibrationCache(directory=str(tmp_path)))
        # a fresh cache instance reads the persisted calibration
        res2 = run_test(y, x, hyp, spec, mc=MC,
                        cache=CalibrationCache(directory=str(tmp_path)))
        assert res1.lambda_alpha == res2.lambda_alpha
        assert res1.p_value == res2.p_value
        assert list(tmp_path.glob("cal_*.txt"))

    @staticmethod
    def _group_partitions(rng):
        x = DesignMatrix(rng.standard_normal((80, 6)))
        y = x.values @ np.array([0.5, -0.3, 0.2, 0.0, 0.1, 0.0]) + rng.standard_normal(80)
        first = SubsetHypothesis(2, np.zeros(4)).expand(6)
        second = SubsetHypothesis(2, np.zeros(4)).expand(6, row_partition=[[0, 1, 2, 3]])
        return y, (x, first), (x, second), StatisticSpec("sqrt_affine_group_lasso")

    @staticmethod
    def _intercept_marking(rng):
        cols = np.column_stack([np.ones(60), rng.standard_normal((60, 4))])
        y = 1.0 + cols[:, 1] + rng.standard_normal(60)
        hyp = SubsetHypothesis(1, np.zeros(4)).expand(5)
        return (y, (DesignMatrix(cols, intercept_column=0), hyp),
                (DesignMatrix(cols), hyp), StatisticSpec("lad_sign"))

    @pytest.mark.parametrize("case", ["_group_partitions", "_intercept_marking"])
    def test_cache_key_tells_same_id_statistics_apart(self, rng, case):
        # both calls share data, A, c and the statistic id, but not the
        # statistic: the group partition or the centering differs
        y, (x1, hyp1), (x2, hyp2), spec = getattr(self, case)(rng)
        mc = McConfig(m_draws=999, seed=3)
        cache = CalibrationCache(directory=False)
        first = run_test(y, x1, hyp1, spec, mc=mc, cache=cache)
        second = run_test(y, x2, hyp2, spec, mc=mc, cache=cache)
        fresh = run_test(y, x2, hyp2, spec, mc=mc, cache=CalibrationCache(directory=False))
        assert first.statistic_id == second.statistic_id == spec.family
        assert first.lambda_alpha != fresh.lambda_alpha
        assert second == fresh
        assert len(cache._memory) == 2

    @pytest.mark.parametrize("damage", [
        lambda lines: lines[:len(lines) // 2],
        lambda lines: lines[:-1] + ["not a number\n"],
        lambda lines: lines[:5] + lines[6:] + ["1e308\n"],
        lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:],
    ], ids=["truncated", "unparsable", "shifted", "unsorted"])
    def test_damaged_cache_file_recomputed(self, dataset, rng, tmp_path, damage):
        x, hyp = dataset
        y = x.values @ np.array([0.0, 0.3, 0.0, 0.0, 0.0]) + rng.standard_normal(x.n)
        spec = StatisticSpec("sqrt_affine_lasso")
        fresh = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        (path,) = tmp_path.glob("cal_*.txt")
        good = path.read_text()
        path.write_text("".join(damage(good.splitlines(keepends=True))))
        again = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        assert again == fresh
        assert path.read_text() == good  # rewritten whole
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left

    @pytest.mark.parametrize("extra", ["\n", "# note=1\n"], ids=["blank", "comment"])
    def test_blank_or_comment_line_among_draws_recomputed(self, dataset, rng, tmp_path,
                                                          extra):
        # save writes neither, so the file was altered after it was written
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        spec = StatisticSpec("sqrt_affine_lasso")
        fresh = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        (path,) = tmp_path.glob("cal_*.txt")
        good = path.read_text()
        lines = good.splitlines(keepends=True)
        path.write_text("".join(lines[:50] + [extra] + lines[50:]))
        again = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        assert again == fresh
        assert path.read_text() == good

    def test_response_in_null_span_is_degenerate(self):
        # y = X[:, :2] b lies in the null fit space of H0: beta_3..5 = 0, so
        # the residual is rounding noise and the sqrt statistic is 0/0
        rng = np.random.default_rng(2)
        x = DesignMatrix(rng.standard_normal((30, 5)))
        y = x.values[:, :2] @ rng.standard_normal(2)
        res = run_test(y, x, SubsetHypothesis(2, np.zeros(3)),
                       StatisticSpec("sqrt_affine_lasso"),
                       mc=McConfig(m_draws=2000, seed=0),
                       cache=CalibrationCache(directory=False))
        assert res.observed.degenerate
        assert not res.reject and res.p_value == 1.0 and res.degenerate_note


    def test_fisher_response_in_span_is_degenerate(self):
        # y = X[:, :2] b leaves rounding noise in both the Fisher numerator
        # and the RSS; the exact-F path must not turn 0/0 into a p-value
        rng = np.random.default_rng(0)
        x = DesignMatrix(rng.standard_normal((30, 5)))
        y = x.values[:, :2] @ rng.standard_normal(2)
        res = run_test(y, x, SubsetHypothesis(2, np.zeros(3)),
                       StatisticSpec("fisher_weighted"))
        assert res.observed.degenerate
        assert not res.reject and res.p_value == 1.0 and res.degenerate_note


class TestDefaultCache:
    def test_keeps_most_recent_entries(self):
        cache = inference._BoundedCalibrationCache(3)
        for key in "abc":
            cache.get_or_compute(key, lambda k=key: k)
        assert cache.get_or_compute("a", lambda: "again") == "a"  # a is now newest
        cache.get_or_compute("d", lambda: "d")
        assert list(cache._memory) == ["c", "a", "d"]

    def test_fifty_designs_stay_bounded(self, monkeypatch):
        monkeypatch.delenv("THRESHTEST_CACHE_DIR", raising=False)
        monkeypatch.setattr(inference, "_default_cache", None)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = DesignMatrix(rng.standard_normal((12, 3)))
            run_test(rng.standard_normal(12), x, SubsetHypothesis(1, np.zeros(2)),
                     StatisticSpec("sqrt_affine_lasso"), mc=McConfig(m_draws=39))
        assert len(inference._get_default_cache()._memory) == \
            inference._DEFAULT_CACHE_ENTRIES

    def test_concurrent_use_stays_bounded(self):
        cache = inference._BoundedCalibrationCache(4)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(cache.get_or_compute, k % 11, lambda k=k: k % 11)
                           for k in range(3000)]
                got = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        assert got == [k % 11 for k in range(3000)]
        assert len(cache._memory) <= 4

    def test_explicit_cache_is_unbounded(self):
        cache = CalibrationCache(directory=False)
        for key in range(inference._DEFAULT_CACHE_ENTRIES + 5):
            cache.get_or_compute(key, lambda k=key: k)
        assert len(cache._memory) == inference._DEFAULT_CACHE_ENTRIES + 5


class TestInvalidResponse:
    """A response no valid test exists for raises a typed error, never a p-value."""

    @pytest.mark.parametrize("corrupt", [
        lambda y: np.where(np.arange(y.size) == 3, np.nan, y),
        lambda y: np.where(np.arange(y.size) == 3, np.inf, y),
        lambda y: y[:, None],
    ], ids=["nan", "inf", "2d"])
    def test_run_test(self, dataset, rng, corrupt):
        x, hyp = dataset
        with pytest.raises(DimensionMismatch):
            run_test(corrupt(rng.standard_normal(x.n)), x, hyp,
                     StatisticSpec("sqrt_affine_lasso"), mc=MC,
                     cache=CalibrationCache(directory=False))

    def test_run_composite(self, dataset, rng):
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        y[0] = np.nan
        with pytest.raises(DimensionMismatch):
            run_composite(y, x, hyp, mc=MC)

    @pytest.mark.parametrize("call", [
        lambda y, x, a, s: confidence_region(y, x, a, stat=s, mc=MC),
        lambda y, x, a, s: cr_grid(y, x, a, s, 2.0, np.linspace(-1.0, 1.0, 5)),
        lambda y, x, a, s: cr_member(np.array([0.0]), y, x, a, s, 2.0),
    ], ids=["confidence_region", "cr_grid", "cr_member"])
    def test_regions(self, dataset, rng, call):
        x, _ = dataset
        y = rng.standard_normal(x.n)
        y[0] = np.nan
        with pytest.raises(DimensionMismatch):
            call(y, x, np.eye(5)[1:2], StatisticSpec("sqrt_affine_lasso"))

    @pytest.mark.parametrize("family, bad", [
        ("bernoulli", 2.5), ("poisson", 1.5), ("poisson", -1.0)])
    def test_glm_response_outside_support(self, dataset, rng, family, bad):
        x, hyp = dataset
        y = rng.poisson(1.0, x.n).astype(float) if family == "poisson" else \
            (rng.random(x.n) < 0.5).astype(float)
        y[0] = bad
        with pytest.raises(DomainError):
            run_test(y, x, hyp, StatisticSpec("glm_score_sup", glm_family=family),
                     mc=MC, cache=CalibrationCache(directory=False))


class TestComposite:
    def test_null_behaviour(self, dataset, rng):
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        res = run_composite(y, x, hyp, mc=MC)
        assert res.statistic_id.startswith("composite(")
        assert res.reject == (res.observed.value > res.lambda_alpha)
        assert res.reject == (res.p_value <= res.alpha)

    def test_strong_signal_rejects(self, dataset, rng):
        x, hyp = dataset
        beta = np.array([0.0, 4.0, 4.0, -4.0, 4.0])
        y = x.values @ beta + rng.standard_normal(x.n)
        res = run_composite(y, x, hyp, mc=MC)
        assert res.reject

    def test_equal_stats_reduce_to_single(self, dataset, rng):
        x, hyp = dataset
        spec = StatisticSpec("sqrt_affine_lasso")
        cache = CalibrationCache(directory=False)
        for _ in range(3):
            y = rng.standard_normal(x.n)
            comp = run_composite(y, x, hyp, stat1=spec, stat2=spec, mc=MC)
            single = run_test(y, x, hyp, spec, mc=MC, cache=cache)
            assert comp.reject == single.reject

    def test_p_value_counts_composite_draws(self, dataset, rng):
        x, hyp = dataset
        y = x.values @ np.array([0.0, 0.5, 0.0, 0.0, 0.0]) + rng.standard_normal(x.n)
        res = run_composite(y, x, hyp, mc=MC)
        red = build_reduction(x, hyp)
        evs = [build_evaluator(spec, x, hyp=hyp, red=red)
               for spec in calibration._composite_pair(hyp.r)]
        comp = calibrate_composite(*evs, gaussian_pivotal_null(x, hyp, red),
                                   MC.m_draws, 0.05, MC.seed)
        assert res.statistic_id == comp.statistic_id == (
            f"composite({comp.cal_1.statistic_id},{comp.cal_2.statistic_id})")
        exceed = np.sum(comp.sorted_composite_stats >= res.observed.value)
        assert res.p_value == (1 + exceed) / (MC.m_draws + 1)

    def test_mixed_null_models_rejected(self, dataset, rng):
        x, hyp = dataset
        with pytest.raises(NotApplicable):
            run_composite(rng.standard_normal(x.n), x, hyp,
                          stat1=StatisticSpec("sqrt_affine_lasso"),
                          stat2=StatisticSpec("glm_score_sup",
                                              glm_family="gaussian"),
                          mc=MC)


class TestConfidenceRegion:
    def _fixture(self, rng, n=30, p=3):
        x = DesignMatrix(rng.standard_normal((n, p)))
        a = np.array([[1.0, -1.0, 0.5]])
        beta = rng.standard_normal(p)
        y = x.values @ beta + rng.standard_normal(n)
        return x, a, beta, y

    def test_ls_fit_always_member(self, rng):
        x, a, beta, y = self._fixture(rng)
        beta_ls = np.linalg.lstsq(x.values, y, rcond=None)[0]
        region = confidence_region(y, x, a, mc=MC)
        assert region.member(a @ beta_ls)

    def test_far_c_excluded(self, rng):
        x, a, beta, y = self._fixture(rng)
        region = confidence_region(y, x, a, mc=MC)
        assert not region.member(np.array([1e6]))

    def test_grid_interval_contiguous(self, rng):
        x, a, beta, y = self._fixture(rng)
        region = confidence_region(y, x, a, mc=MC)
        grid = np.linspace(-10, 10, 81)
        mask, endpoints = cr_grid(y, x, a, StatisticSpec("sqrt_affine_lasso"),
                                  region.lambda_alpha, grid)
        members = np.flatnonzero(mask)
        assert members.size > 0
        assert np.array_equal(members, np.arange(members[0], members[-1] + 1))
        assert endpoints == (grid[members[0]], grid[members[-1]])

    def test_duality_with_member(self, rng):
        x, a, beta, y = self._fixture(rng)
        region = confidence_region(y, x, a, mc=MC)
        for c in np.linspace(-5, 5, 21):
            assert region.member(np.array([c])) == cr_member(
                np.array([c]), y, x, a, StatisticSpec("sqrt_affine_lasso"),
                region.lambda_alpha)

    def test_empty_grid(self, rng):
        x, a, beta, y = self._fixture(rng)
        mask, endpoints = cr_grid(y, x, a, StatisticSpec("sqrt_affine_lasso"),
                                  1.0, np.array([]))
        assert mask.size == 0 and endpoints is None

    def test_non_pivotal_statistic_rejected(self, rng):
        x, a, beta, y = self._fixture(rng)
        with pytest.raises(NotApplicable):
            confidence_region(y, x, a, stat=StatisticSpec("affine_lasso"), mc=MC)

    def test_r3_grid_unsupported(self, rng):
        x = DesignMatrix(rng.standard_normal((10, 4)))
        a = np.eye(4)[:3]
        with pytest.raises(UnsupportedDimension):
            cr_grid(rng.standard_normal(10), x, a,
                    StatisticSpec("sqrt_affine_lasso"), 1.0,
                    np.zeros((5, 3)))

    def test_two_dimensional_grid(self, rng):
        x = DesignMatrix(rng.standard_normal((25, 3)))
        a = np.eye(3)[:2]
        beta = np.array([0.5, -0.5, 1.0])
        y = x.values @ beta + rng.standard_normal(25)
        region = confidence_region(y, x, a, mc=MC)
        beta_ls = np.linalg.lstsq(x.values, y, rcond=None)[0]
        pts = np.stack([np.array(beta_ls[:2]), np.array([50.0, 50.0])])
        mask = cr_grid(y, x, a, StatisticSpec("sqrt_affine_lasso"),
                       region.lambda_alpha, pts)
        assert mask[0] and not mask[1]


def _per_point_lambda(y, x, a, stat, c):
    """lambda_CR(c) through a fresh hypothesis and a full reduction."""
    hyp = LinearHypothesis(a, c, stat.row_partition)
    red = build_reduction(x, hyp)
    val = build_evaluator(stat, x, hyp=hyp, red=red).evaluate(y)
    return 0.0 if val.degenerate else val.value


@st.composite
def region_problems(draw):
    r = draw(st.integers(1, 2))
    n = draw(st.integers(8, 30))
    p = draw(st.integers(r + 1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["sqrt_affine_lasso", "sqrt_affine_group_lasso"]))
    blocks = draw(st.sampled_from([None, ((0,), (1,)), ((0, 1),)])) if r == 2 else None
    x = DesignMatrix(rng.standard_normal((n, p)))
    a = rng.standard_normal((r, p))
    y = x.values @ rng.standard_normal(p) + rng.standard_normal(n)
    if r == 1:
        grid = np.linspace(-3.0, 3.0, draw(st.integers(1, 9)))
        points = grid.reshape(-1, 1)
    else:
        g = np.linspace(-3.0, 3.0, draw(st.integers(1, 4)))
        grid = points = np.array([[u, v] for u in g for v in g])
    stat = StatisticSpec(family, row_partition=blocks if family.endswith("group_lasso")
                         else None)
    return y, x, a, stat, grid, points, draw(st.integers(0, len(points) - 1))


class TestRegionSharesOneReduction:
    @settings(max_examples=30, deadline=None)
    @given(region_problems())
    def test_grid_matches_per_point_reduction_bitwise(self, problem):
        y, x, a, stat, grid, points, k = problem
        want = np.array([_per_point_lambda(y, x, a, stat, c) for c in points])
        region = confidence_region(y, x, a, stat=stat, mc=McConfig(m_draws=19, seed=0))
        got = np.array([region.lambda_cr(c) for c in points])
        assert got.tobytes() == want.tobytes()
        # a threshold equal to one of the values makes the mask bit-sensitive
        out = cr_grid(y, x, a, stat, want[k], grid)
        mask = out[0] if a.shape[0] == 1 else out
        assert np.array_equal(mask, want <= want[k]) and mask[k]

    def test_one_reduction_per_call(self, monkeypatch, rng):
        x = DesignMatrix(rng.standard_normal((30, 4)))
        a = np.array([[1.0, -1.0, 0.0, 0.0]])
        y = x.values @ np.array([0.5, 0.1, -0.2, 0.3]) + rng.standard_normal(30)
        calls = {"factor": 0, "build": 0, "svd": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(inference, "factor_reduction",
                            counting("factor", core.factor_reduction))
        for module in (core, inference, statistics):
            monkeypatch.setattr(module, "build_reduction",
                                counting("build", core.build_reduction))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        stat = StatisticSpec("sqrt_affine_lasso")
        grid = np.linspace(-2.0, 2.0, 41)
        region = confidence_region(y, x, a, stat=stat, mc=MC)
        for c in grid:
            region.member(np.array([c]))
        assert calls == {"factor": 1, "build": 0, "svd": 2}  # the SVDs of A and X K_A
        cr_grid(y, x, a, stat, region.lambda_alpha, grid)
        assert calls == {"factor": 2, "build": 0, "svd": 4}

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("g", [1, 9, 40])
    def test_one_evaluator_per_region(self, monkeypatch, rng, r, g):
        x = DesignMatrix(rng.standard_normal((30, 4)))
        a = rng.standard_normal((r, 4))
        y = x.values @ np.array([0.5, 0.1, -0.2, 0.3]) + rng.standard_normal(30)
        built = []
        init = statistics.Evaluator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(statistics.Evaluator, "__init__", counting)
        stat = StatisticSpec("sqrt_affine_lasso")
        points = np.linspace(-2.0, 2.0, g * r).reshape(g, r)
        region = confidence_region(y, x, a, stat=stat, mc=MC)
        for c in points:
            region.lambda_cr(c)
            region.member(c)
        assert len(built) == 1
        cr_grid(y, x, a, stat, region.lambda_alpha, points)
        assert len(built) == 2
        cr_member(points[0], y, x, a, stat, region.lambda_alpha)
        assert len(built) == 3

    def test_one_svd_of_a_per_run_test(self, monkeypatch, rng):
        x = DesignMatrix(rng.standard_normal((50, 6)))
        y = rng.standard_normal(50)
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        run_test(y, x, SubsetHypothesis(2, np.zeros(4)), StatisticSpec("sqrt_affine_lasso"),
                 mc=MC, cache=CalibrationCache(directory=False))
        assert calls == [(4, 6), (50, 2)]  # A, when the hypothesis is expanded, and X K_A


@st.composite
def interval_problems(draw):
    p = draw(st.integers(2, 6))
    n = draw(st.integers(p + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = DesignMatrix(rng.standard_normal((n, p)))
    a = rng.standard_normal((1, p))
    noise = draw(st.sampled_from([0.01, 1.0, 10.0]))
    y = x.values @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    c_hat = float(a[0] @ np.linalg.lstsq(x.values, y, rcond=None)[0])
    width = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    grid = c_hat + width * np.linspace(-1.0, 1.0, draw(st.integers(2, 60)))
    stat = StatisticSpec(draw(st.sampled_from(["sqrt_affine_lasso",
                                               "sqrt_affine_group_lasso"])))
    return y, x, a, stat, grid, draw(st.floats(0.05, 1.2))


class TestRegionIsOneInterval:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(interval_problems())
    def test_r1_mask_is_contiguous(self, problem):
        # lambda_CR(c) = |h^T r(c)| / ||r(c)|| <= ||h||, h = (I - P) X A^+
        y, x, a, stat, grid, share = problem
        k_a = core.kernel_basis(a)
        q, _ = np.linalg.qr(x.values @ k_a)
        xa = x.values @ np.linalg.pinv(a)[:, 0]
        h_norm = np.linalg.norm(xa - q @ (q.T @ xa))
        region = inference._region(y, x, a, stat, share * h_norm)
        points, values = region.scan(grid)
        assert np.all(values <= h_norm * (1.0 + 1e-10))
        mask, endpoints = cr_grid(y, x, a, stat, share * h_norm, grid)
        assert np.array_equal(mask, values <= share * h_norm)
        members = np.flatnonzero(mask)
        if members.size:
            assert np.array_equal(members, np.arange(members[0], members[-1] + 1))
            assert endpoints == (grid[members[0]], grid[members[-1]])
        else:
            assert endpoints is None
