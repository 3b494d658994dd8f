"""End-to-end tests of run_test, run_composite, and confidence regions."""

import gc
import os
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshtest import (
    CalibrationResult,
    DesignMatrix,
    LinearHypothesis,
    McConfig,
    SubsetHypothesis,
    baseline_f_test,
    baseline_lrt,
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
    InsufficientDraws,
    InvalidSpec,
    NotApplicable,
    OverflowGuard,
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
        assert res.p_value == float(sp_stats.f.sf(f, df1, df2))
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
        first = SubsetHypothesis(2, np.zeros(4)).expand(6, row_partition=[[0], [1], [2], [3]])
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
        # both calls share data, A and c, but not the statistic: the group
        # partition, which the id names, or the centering, which it does not
        y, (x1, hyp1), (x2, hyp2), spec = getattr(self, case)(rng)
        mc = McConfig(m_draws=999, seed=3)
        cache = CalibrationCache(directory=False)
        first = run_test(y, x1, hyp1, spec, mc=mc, cache=cache)
        second = run_test(y, x2, hyp2, spec, mc=mc, cache=cache)
        fresh = run_test(y, x2, hyp2, spec, mc=mc, cache=CalibrationCache(directory=False))
        if case == "_group_partitions":
            assert first.statistic_id != second.statistic_id
        else:
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

    @pytest.mark.parametrize("other", [
        dict(stat=StatisticSpec("sqrt_affine_group_lasso")),
        dict(mc=McConfig(m_draws=401, seed=0)),
        dict(alpha=0.1),
        dict(mc=McConfig(m_draws=400, seed=1)),
    ], ids=["statistic_id", "m_draws", "alpha", "seed"])
    def test_file_of_another_calibration_recomputed(self, dataset, rng, tmp_path, other):
        # a consistent file that differs from the one asked for in one
        # header field
        x, hyp = dataset
        y = x.values @ np.array([0.0, 0.3, 0.0, 0.0, 0.0]) + rng.standard_normal(x.n)
        asked = dict(stat=StatisticSpec("sqrt_affine_lasso"), alpha=0.05, mc=MC)

        def run(cache, **args):
            args = dict(asked, **args)
            return run_test(y, x, hyp, args.pop("stat"), cache=cache, **args)

        run(CalibrationCache(directory=str(tmp_path)), **other)
        (wrong,) = tmp_path.glob("cal_*.txt")
        fresh = run(CalibrationCache(directory=False))
        run(CalibrationCache(directory=str(tmp_path)))
        (path,) = set(tmp_path.glob("cal_*.txt")) - {wrong}
        good = path.read_bytes()
        path.write_bytes(wrong.read_bytes())
        again = run(CalibrationCache(directory=str(tmp_path)))
        assert again == fresh
        assert again != run(CalibrationCache(directory=False), **other)
        assert path.read_bytes() == good  # rewritten

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


class TestGroupBlocks:
    """run_test and run_composite resolve a group statistic's blocks as the
    Evaluator does: one block over all rows unless a partition is given."""

    @staticmethod
    def _run(y, x, hyp, family, partition=None):
        tag = "bernoulli" if family.startswith("glm") else None
        return run_test(y, x, hyp, StatisticSpec(family, row_partition=partition,
                                                 glm_family=tag),
                        mc=MC, cache=CalibrationCache(directory=False))

    @pytest.mark.parametrize("family, sup", [
        ("affine_group_lasso", "affine_lasso"),
        ("sqrt_affine_group_lasso", "sqrt_affine_lasso"),
        ("glm_score_group", "glm_score_sup"),
    ])
    def test_no_partition_is_one_block(self, rng, family, sup):
        x = DesignMatrix(rng.standard_normal((60, 5)))
        hyp = SubsetHypothesis(2, np.zeros(3)).expand(5)
        if family.startswith("glm"):  # its rows are the five columns of X
            y, rows = (rng.random(60) < 0.4).astype(float), 5
        else:
            y, rows = x.values @ np.array([0.5, 0.0, 0.3, 0.2, 0.0]) + rng.standard_normal(60), 3
        default = self._run(y, x, hyp, family)
        assert default == self._run(y, x, hyp, family, [tuple(range(rows))])
        singletons = self._run(y, x, hyp, family, [(i,) for i in range(rows)])
        assert f"|groups={';'.join(map(str, range(rows)))}" in singletons.statistic_id
        assert singletons.statistic_id != default.statistic_id
        # singleton blocks give the sup statistic's value and threshold
        want = self._run(y, x, hyp, sup)
        got = (singletons.observed, singletons.lambda_alpha, singletons.p_value)
        assert got == (want.observed, want.lambda_alpha, want.p_value)
        assert default.lambda_alpha != want.lambda_alpha

    def test_composite_group_half_follows_the_rule(self, rng):
        x = DesignMatrix(rng.standard_normal((40, 5)))
        y = rng.standard_normal(40)
        ids = [run_composite(y, x, SubsetHypothesis(2, np.zeros(3)).expand(5, part),
                             mc=MC).statistic_id for part in (None, [(0,), (1, 2)])]
        assert ids == ["composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0,1,2)",
                       "composite(sqrt_affine_lasso,sqrt_affine_group_lasso|groups=0;1,2)"]


class TestDefaultCache:
    def test_keeps_most_recent_entries(self):
        cache = CalibrationCache(directory=False, max_entries=3)
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
        cache = CalibrationCache(directory=False, max_entries=4)
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


def _bits(value):
    return np.float64(value).tobytes()


def _same_calibration(cal, other):
    return (cal.sorted_null_stats.tobytes() == other.sorted_null_stats.tobytes()
            and _bits(cal.lambda_alpha) == _bits(other.lambda_alpha)
            and (cal.statistic_id, cal.m_draws, cal.alpha, cal.seed)
            == (other.statistic_id, other.m_draws, other.alpha, other.seed))


@pytest.fixture
def process_cache(monkeypatch):
    """Installs a new process cache, as a new process would make it, in
    memory (``directory=False``) or in a directory; returns it."""
    def install(directory=False):
        cache = CalibrationCache(directory=directory,
                                 max_entries=inference._DEFAULT_CACHE_ENTRIES)
        monkeypatch.setattr(inference, "_default_cache", cache)
        return cache
    return install


@pytest.fixture
def batches(monkeypatch):
    """The batch index of every null batch drawn, in order."""
    drawn = []
    simulate = calibration._simulate_batch

    def counted(model, seed, m_draws, batch):
        drawn.append(batch)
        return simulate(model, seed, m_draws, batch)

    monkeypatch.setattr(calibration, "_simulate_batch", counted)
    return drawn


class TestOneCalibrationCache:
    """Regions and composites take their calibrations through the cache
    run_test uses, under the keys run_test gives them."""

    @pytest.mark.parametrize("r, family", [
        (1, "sqrt_affine_lasso"), (2, "sqrt_affine_lasso"), (2, "sqrt_affine_group_lasso")])
    def test_region_after_run_test_draws_nothing(self, process_cache, batches, rng, r,
                                                 family):
        x = DesignMatrix(np.hstack([np.ones((30, 1)), rng.standard_normal((30, 3))]),
                         intercept_column=0)
        a = rng.standard_normal((r, 4))
        y = x.values @ np.array([0.5, 0.3, -0.2, 0.1]) + rng.standard_normal(30)
        spec = StatisticSpec(family)
        process_cache()
        cold = confidence_region(y, x, a, stat=spec, mc=MC)
        process_cache()
        tested = run_test(y, x, LinearHypothesis(a, np.zeros(r)), spec, mc=MC)
        assert len(batches) == 2
        region = confidence_region(y, x, a, stat=spec, mc=MC)
        assert len(batches) == 2
        assert _bits(region.lambda_alpha) == _bits(tested.lambda_alpha) == \
            _bits(cold.lambda_alpha)

    @pytest.mark.parametrize("where", ["memory", "disk"])
    def test_warm_equals_cold(self, process_cache, batches, dataset, rng, tmp_path, where):
        x, hyp = dataset
        y = x.values @ np.array([0.0, 0.4, 0.0, -0.3, 0.0]) + rng.standard_normal(x.n)
        a = hyp.a_matrix[:1]
        spec = StatisticSpec("sqrt_affine_lasso")
        grid = np.linspace(-2.0, 2.0, 41)
        directory = str(tmp_path) if where == "disk" else False

        def run():
            region = confidence_region(y, x, a, stat=spec, mc=MC)
            mask, ends = cr_grid(y, x, a, spec, region.lambda_alpha, grid)
            comp = run_composite(y, x, hyp, mc=MC)
            return ([_bits(region.lambda_cr(c)) for c in (-1.0, 0.0, 1.0)], mask.tolist(),
                    ends, _bits(region.lambda_alpha), _bits(comp.lambda_alpha),
                    _bits(comp.p_value), _bits(comp.observed.value), comp)

        cache = process_cache(directory)
        cold = run()
        assert batches == [0, 0, 1]  # the region's batch, the composite's two
        cold_entries = dict(cache._memory)
        if where == "disk":
            cache = process_cache(directory)
        assert run() == cold
        assert batches == [0, 0, 1]
        assert cache._memory.keys() == cold_entries.keys()
        assert all(_same_calibration(cal, cold_entries[key])
                   for key, cal in cache._memory.items())
        # the composite's three entries are calibrate_composite's calibrations
        red = build_reduction(x, hyp)
        ref = calibrate_composite(*[build_evaluator(s, x, hyp=hyp, red=red)
                                    for s in calibration._composite_pair()],
                                  gaussian_pivotal_null(x, hyp, red), MC.m_draws, 0.05,
                                  MC.seed)
        for cal in (ref.cal_1, ref.cal_2, ref.cal_kappa):
            assert any(_same_calibration(cal, entry) for entry in cache._memory.values())
        assert cold[-1].p_value == calibration.p_value(cold[-1].observed, ref)

    def test_composite_components_are_run_test_files(self, process_cache, dataset, rng,
                                                      tmp_path):
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        process_cache(str(tmp_path / "composite"))
        run_composite(y, x, hyp, mc=MC)
        for spec in calibration._composite_pair():
            run_test(y, x, hyp, spec, mc=MC,
                     cache=CalibrationCache(directory=str(tmp_path / "tests")))
        composite = {p.name: p.read_bytes() for p in (tmp_path / "composite").iterdir()}
        tested = {p.name: p.read_bytes() for p in (tmp_path / "tests").iterdir()}
        assert len(composite) == 3 and len(tested) == 2
        assert all(composite[name] == data for name, data in tested.items())
        (kappa,) = composite.keys() - tested.keys()
        cal = CalibrationResult.load(str(tmp_path / "composite" / kappa))
        assert cal.statistic_id == run_composite(y, x, hyp, mc=MC).statistic_id

    def test_cache_file_names_are_pinned(self, process_cache, tmp_path):
        # a directory that earlier releases filled keeps hitting: the names
        # are the keys of a run_test entry and of a composite's three entries
        vals = ((np.arange(48) * 7) % 11 - 5.0).reshape(12, 4)
        vals[:, 0] = 1.0
        x = DesignMatrix(vals, intercept_column=0)
        hyp = LinearHypothesis(np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]),
                               np.zeros(2))
        y = (np.arange(12) * 5) % 7 - 3.0
        mc = McConfig(m_draws=99, seed=4)
        run_test(y, x, hyp, "sqrt_affine_lasso", mc=mc,
                 cache=CalibrationCache(directory=str(tmp_path / "test")))
        process_cache(str(tmp_path / "composite"))
        run_composite(y, x, hyp, mc=mc)
        sqrt_lasso = "cal_c43e3b6736218bb294dc349f71c597976ce6eca8d059bb2aa2235e921c68a80f.txt"
        assert os.listdir(tmp_path / "test") == [sqrt_lasso]
        assert sorted(os.listdir(tmp_path / "composite")) == [
            "cal_4c4526a235430cfb095738b0182c5fd160379f448b49fdec6d5e48d656ef04e5.txt",
            "cal_9d7702e4c89860b3a1c723eb2d08ab2274e2f99fc94ab500c24eff7b84d47f25.txt",
            sqrt_lasso]

    def test_composite_after_its_components_draws_batch_1(self, process_cache, batches,
                                                          dataset, rng):
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        process_cache()
        for spec in calibration._composite_pair():
            run_test(y, x, hyp, spec, mc=MC)
        assert batches == [0, 0]
        run_composite(y, x, hyp, mc=MC)
        assert batches == [0, 0, 1]
        run_composite(y, x, hyp, mc=MC)
        assert batches == [0, 0, 1]


class TestMcSettings:
    """An alpha, a seed or a draw count no valid test exists for raises a
    typed error on every path, never a plausible-looking result."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, np.nan])
    @pytest.mark.parametrize("stat", ["fisher_weighted", "sqrt_affine_lasso", "composite"])
    def test_alpha_outside_unit_interval(self, dataset, rng, stat, alpha):
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        with pytest.raises(InsufficientDraws, match="alpha"):
            if stat == "composite":
                run_composite(y, x, hyp, alpha=alpha, mc=MC)
            else:
                run_test(y, x, hyp, stat, alpha=alpha, mc=MC)

    @pytest.mark.parametrize("kw", [
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"m_draws": 199.0}, {"m_draws": -1},
    ], ids=["negative_seed", "float_seed", "bool_seed", "float_draws", "negative_draws"])
    def test_seed_and_draws_are_non_negative_integers(self, kw):
        with pytest.raises(InvalidSpec, match=next(iter(kw))):
            McConfig(**kw)

    def test_zero_draws_and_numpy_integers_are_settings(self):
        assert McConfig(m_draws=0).m_draws == 0
        assert McConfig(m_draws=np.int64(99), seed=np.uint32(5)).seed == 5


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

    @pytest.mark.parametrize("call", [
        lambda y, x: run_test(y, x, None, StatisticSpec("sqrt_affine_lasso"), mc=MC),
        lambda y, x: run_test(y, x, None, StatisticSpec("glm_score_sup",
                                                        glm_family="gaussian"), mc=MC),
        lambda y, x: run_test(y, x, None, StatisticSpec("fisher_weighted")),
        lambda y, x: run_composite(y, x, None, mc=MC),
    ], ids=["affine", "glm", "fisher", "composite"])
    def test_no_hypothesis(self, dataset, rng, call):
        x, _ = dataset
        with pytest.raises(InvalidSpec, match="NoneType"):
            call(rng.standard_normal(x.n), x)

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


    @pytest.mark.parametrize("call", [
        lambda y, x, hyp: run_test(y, x, hyp, StatisticSpec("sqrt_affine_lasso"), mc=MC,
                                   cache=CalibrationCache(directory=False)),
        lambda y, x, hyp: run_composite(y, x, hyp, mc=MC),
        lambda y, x, hyp: baseline_f_test(y, x, hyp),
        lambda y, x, hyp: baseline_lrt(y, x, "gaussian"),
    ], ids=["run_test", "run_composite", "baseline_f_test", "baseline_lrt"])
    def test_squares_beyond_the_float_range(self, dataset, rng, call):
        # 1e200 is finite but its square is not: the statistic's denominator
        # did not vanish, so this is an OverflowGuard, not p = 1
        x, hyp = dataset
        with pytest.raises(OverflowGuard, match="too large"):
            call(1e200 * rng.standard_normal(x.n), x, hyp)


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
               for spec in calibration._composite_pair()]
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


def _counting_svds(monkeypatch):
    """The shape of each matrix np.linalg.svd is called on, in order."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


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
        # the design kept the factor of this A
        assert calls == {"factor": 2, "build": 0, "svd": 2}

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
        calls = _counting_svds(monkeypatch)
        run_test(y, x, SubsetHypothesis(2, np.zeros(4)), StatisticSpec("sqrt_affine_lasso"),
                 mc=MC, cache=CalibrationCache(directory=False))
        assert calls == [(4, 6), (50, 2)]  # A, when the hypothesis is expanded, and X K_A


def _same_factor(got, want):
    return all(getattr(got, name).tobytes() == getattr(want, name).tobytes()
               and getattr(got, name).shape == getattr(want, name).shape
               for name in ("kernel_basis", "projector_factor", "pseudo_u", "pseudo_s",
                            "pseudo_vt"))


class TestDesignKeepsItsFactor:
    """A DesignMatrix keeps the reduction factor of the last A it was
    factored with, over a read-only copy of its values."""

    A2 = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])

    @pytest.fixture
    def problem(self, rng):
        values = rng.standard_normal((30, 4))
        y = values @ np.array([0.5, 0.1, -0.2, 0.3]) + rng.standard_normal(30)
        return values, np.array([[1.0, -1.0, 0.0, 0.0]]), y

    @staticmethod
    def _results(y, x_test, x_region, a):
        """The record of a run_test of H0: A beta = 0.5 on ``x_test``, and the
        threshold and lambda_CR bytes of a region on ``x_region``."""
        stat = StatisticSpec("sqrt_affine_lasso")
        test = run_test(y, x_test, LinearHypothesis(a, [0.5]), stat, mc=MC,
                        cache=CalibrationCache(directory=False))
        region = confidence_region(y, x_region, a, stat=stat, mc=MC)
        _, lam = region.scan(np.linspace(-2.0, 2.0, 9))
        return test.to_record(), _bits(region.lambda_alpha), lam.tobytes()

    def test_repeated_calls_take_no_svd_and_match_a_new_design(self, monkeypatch, problem):
        values, a, y = problem
        x = DesignMatrix(values)
        first = self._results(y, x, x, a)
        calls = _counting_svds(monkeypatch)
        again = self._results(y, x, x, a)
        assert calls == [(1, 4)]  # the row-rank check of the new LinearHypothesis
        assert again == first == self._results(y, DesignMatrix(values), DesignMatrix(values), a)

    def test_values_are_a_read_only_copy(self, problem):
        values, a, y = problem
        x = DesignMatrix(values)
        assert x.values is not values
        with pytest.raises(ValueError):
            x.values[0, 0] = 1.0
        before = self._results(y, x, x, a)
        values[:, 0] = 0.0
        assert self._results(y, x, x, a) == before

    def test_a_design_is_freed_without_the_cyclic_collector(self, problem):
        values, a, y = problem
        x = DesignMatrix(values)
        ref = weakref.ref(x)
        gc.disable()
        try:
            self._results(y, x, x, a)
            del x
            assert ref() is None
        finally:
            gc.enable()

    def test_a_second_a_replaces_the_first(self, monkeypatch, problem):
        values, a1, _ = problem
        a2 = self.A2
        x = DesignMatrix(values)
        calls = _counting_svds(monkeypatch)
        f1 = core.factor_reduction(x, a1)
        f2 = core.factor_reduction(x, a2)
        assert core.factor_reduction(x, a2).design is x
        assert len(calls) == 4  # A and X K_A, once for each A
        back = core.factor_reduction(x, a1)
        assert len(calls) == 6
        assert _same_factor(back, f1)
        assert _same_factor(f1, core.factor_reduction(DesignMatrix(values), a1))
        assert _same_factor(f2, core.factor_reduction(DesignMatrix(values), a2))

    def test_threads_switching_a_on_one_design(self, problem):
        values, a1, _ = problem
        a_list = [a1, self.A2]
        want = [core.factor_reduction(DesignMatrix(values), a) for a in a_list]
        x = DesignMatrix(values)
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(core.factor_reduction, x, a_list[k % 2])
                           for k in range(600)]
                got = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(old_interval)
        assert all(_same_factor(f, want[k % 2]) for k, f in enumerate(got))


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
