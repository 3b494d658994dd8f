"""End-to-end tests of run_test, run_composite, and confidence regions."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshtest import (
    CalibrationResult,
    DesignMatrix,
    ExperimentConfig,
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
    estimate_power,
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


def _split(data):
    """A cache file of MC.m_draws draws as (header bytes, draw bytes)."""
    return data[:-8 * MC.m_draws], data[-8 * MC.m_draws:]


def _signed(head, draws):
    """``head`` with its last line, the draws' digest, made that of ``draws``."""
    head = head[:head.rindex(b"# draws_sha256=")]
    return head + f"# draws_sha256={hashlib.sha256(draws).hexdigest()}\n".encode() + draws


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
        lambda head, draws: (head + draws)[:(len(head) + len(draws)) // 2],
        lambda head, draws: head.replace(b"# m_draws=400\n", b"# m_draws=4o0\n") + draws,
        lambda head, draws: head + draws[8:] + np.float64(1e308).tobytes(),
        # a fresh digest: only is_consistent can tell
        lambda head, draws: _signed(head, draws[8:16] + draws[:8] + draws[16:]),
        lambda head, draws: head + draws + b"\n",
        lambda head, draws: head + b"# note=1\n" + draws,
    ], ids=["truncated", "unparsable", "shifted", "unsorted", "appended", "header_line"])
    def test_damaged_cache_file_recomputed(self, dataset, rng, tmp_path, damage):
        x, hyp = dataset
        y = x.values @ np.array([0.0, 0.3, 0.0, 0.0, 0.0]) + rng.standard_normal(x.n)
        spec = StatisticSpec("sqrt_affine_lasso")
        fresh = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        (path,) = tmp_path.glob("cal_*.txt")
        good = path.read_bytes()
        damaged = damage(*_split(good))
        assert damaged != good
        path.write_bytes(damaged)
        again = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        assert again == fresh
        assert path.read_bytes() == good  # rewritten whole
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left

    def test_edited_draw_that_keeps_them_sorted_recomputed(self, dataset, rng, tmp_path,
                                                           batches):
        # the draw below the observed value raised to it: the draws stay
        # sorted and lambda_alpha stays theirs, but the p-value would move
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        spec = StatisticSpec("sqrt_affine_lasso")
        fresh = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        (path,) = tmp_path.glob("cal_*.txt")
        good = path.read_bytes()
        cal = CalibrationResult.load(path)
        head, stored = _split(good)
        assert stored == cal.sorted_null_stats.tobytes()
        draws = cal.sorted_null_stats.copy()
        i = int(np.searchsorted(draws, fresh.observed.value)) - 1
        assert 0 <= i < calibration.order_stat_index(MC.m_draws, 0.05) - 1
        draws[i] = fresh.observed.value
        edited = dataclasses.replace(cal, sorted_null_stats=draws)
        assert edited.is_consistent()
        assert calibration.p_value(fresh.observed, edited) != fresh.p_value
        path.write_bytes(head + draws.tobytes())
        again = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        assert batches == [0, 0]  # recomputed
        assert again == fresh
        assert path.read_bytes() == good

    def test_text_file_of_earlier_releases_rewritten(self, dataset, rng, tmp_path, batches):
        # the same calibration in the text format files had before the draws
        # were stored raw, under the same name
        x, hyp = dataset
        y = rng.standard_normal(x.n)
        spec = StatisticSpec("sqrt_affine_lasso")
        fresh = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        (path,) = tmp_path.glob("cal_*.txt")
        good = path.read_bytes()
        cal = CalibrationResult.load(path)
        lines = [f"# statistic_id={cal.statistic_id}", f"# m_draws={cal.m_draws}",
                 f"# alpha={cal.alpha!r}", f"# seed={cal.seed}",
                 f"# lambda_alpha={cal.lambda_alpha!r}"]
        lines += map(repr, cal.sorted_null_stats.tolist())
        path.write_bytes(("\n".join(lines) + "\n").encode())
        again = run_test(y, x, hyp, spec, mc=MC,
                         cache=CalibrationCache(directory=str(tmp_path)))
        assert batches == [0, 0]  # recomputed
        assert again == fresh
        assert path.read_bytes() == good

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

    def test_file_with_another_header_is_recomputed_and_rewritten(self, tmp_path):
        stored = CalibrationResult(sorted_null_stats=np.arange(1.0, 100.0), lambda_alpha=95.0,
                                   alpha=0.05, m_draws=99, seed=0, statistic_id="t")
        assert stored.is_consistent()
        path = tmp_path / "cal_key.txt"
        stored.save(path)

        def never():
            raise AssertionError("a consistent file was recomputed")

        # with no header, any consistent file under the key is loaded
        loaded = CalibrationCache(directory=str(tmp_path)).get_or_compute("key", never)
        assert _same_calibration(loaded, stored)
        # the same file where another statistic id is asked for
        fresh = dataclasses.replace(stored, statistic_id="u")
        got = CalibrationCache(directory=str(tmp_path)).get_or_compute(
            "key", lambda: fresh, ("u", 99, 0.05, 0))
        assert got is fresh
        assert _same_calibration(CalibrationResult.load(path), fresh)
        # the rewritten file carries that header, so it is loaded
        loaded = CalibrationCache(directory=str(tmp_path)).get_or_compute(
            "key", never, ("u", 99, 0.05, 0))
        assert _same_calibration(loaded, fresh)


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
        assert cold[-1].p_value == calibration.p_value(cold[-1].observed, ref.cal_kappa)

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
        assert res.statistic_id == comp.cal_kappa.statistic_id == (
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
        calls = {"factor": 0, "build": 0, "svd": 0, "at": 0, "many": 0, "batch": 0}

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
        # a candidate builds no ReducedProblem and takes no evaluate_many layer
        monkeypatch.setattr(core.ReductionFactor, "at",
                            counting("at", core.ReductionFactor.at))
        monkeypatch.setattr(statistics, "evaluate_many",
                            counting("many", statistics.evaluate_many))
        # a scan makes one pass per block of 256 candidates, not one per candidate
        monkeypatch.setattr(statistics.Evaluator, "evaluate_batch",
                            counting("batch", statistics.Evaluator.evaluate_batch))
        stat = StatisticSpec("sqrt_affine_lasso")
        grid = np.linspace(-2.0, 2.0, 41)
        region = confidence_region(y, x, a, stat=stat, mc=MC)
        for c in grid:
            region.member(np.array([c]))
        # the SVDs of A and X K_A, and the reduction at c = 0
        assert calls == {"factor": 1, "build": 0, "svd": 2, "at": 1, "many": 0, "batch": 41}
        cr_grid(y, x, a, stat, region.lambda_alpha, grid)
        # the design kept the factor of this A
        assert calls == {"factor": 2, "build": 0, "svd": 2, "at": 2, "many": 0, "batch": 42}
        for g, passes in ((256, 1), (257, 2), (600, 3)):
            before = calls["batch"]
            region.scan(np.linspace(-2.0, 2.0, g))
            assert calls["batch"] - before == passes == math.ceil(g / inference._SCAN_BLOCK)

    def test_a_scan_holds_one_block_at_a_time(self, rng):
        # an R = 2 grid of 201 x 201 points on a 500 x 51 design: a stack of
        # every candidate's y - X beta_c would take 40401 * 500 * 8 bytes,
        # about 160 MB per array; a block of 256 takes about 1 MB
        x = DesignMatrix(np.column_stack([np.ones(500), rng.standard_normal((500, 50))]),
                         intercept_column=0)
        a = np.eye(51)[1:3]
        y = x.values @ rng.standard_normal(51) + rng.standard_normal(500)
        region = inference._region(y, x, a, StatisticSpec("sqrt_affine_lasso"), 2.0)
        axis = np.linspace(-1.0, 1.0, 201)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        tracemalloc.start()
        try:
            _, values = region.scan(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (201 * 201,)
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_candidate_is_refused_before_any_pass(self, monkeypatch, rng, bad):
        x = DesignMatrix(rng.standard_normal((30, 4)))
        a = np.array([[1.0, -1.0, 0.0, 0.0]])
        y = rng.standard_normal(30)
        stat = StatisticSpec("sqrt_affine_lasso")
        region = inference._region(y, x, a, stat, 1.0)
        passes = []
        batch = statistics.Evaluator.evaluate_batch
        monkeypatch.setattr(statistics.Evaluator, "evaluate_batch",
                            lambda ev, y_mat: passes.append(ev) or batch(ev, y_mat))
        grid = np.linspace(-2.0, 2.0, 600)
        grid[-1] = bad  # in the last of three blocks
        for call in (lambda: region.scan(grid),
                     lambda: cr_grid(y, x, a, stat, 1.0, grid),
                     lambda: cr_member(np.array([bad]), y, x, a, stat, 1.0),
                     lambda: region.lambda_cr(bad)):
            with pytest.raises(DimensionMismatch, match="c contains non-finite entries"):
                call()
        assert passes == []

    def test_squares_beyond_the_float_range(self, rng):
        # 1e200 is finite but its square is not: every candidate's pass keeps
        # the overflow guard, so no lambda_CR reads inf or 0
        x = DesignMatrix(rng.standard_normal((30, 4)))
        a = np.array([[1.0, -1.0, 0.0, 0.0]])
        y = 1e200 * rng.standard_normal(30)
        stat = StatisticSpec("sqrt_affine_lasso")
        region = confidence_region(y, x, a, stat=stat, mc=MC)
        grid = np.linspace(-2.0, 2.0, 5)
        for call in (lambda: region.lambda_cr(np.array([0.5])),
                     lambda: region.scan(grid),
                     lambda: cr_member(np.array([0.5]), y, x, a, stat, region.lambda_alpha),
                     lambda: cr_grid(y, x, a, stat, region.lambda_alpha, grid)):
            with pytest.raises(OverflowGuard, match="too large"):
                call()

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

    def test_a_subset_hypothesis_keeps_its_expansion(self, monkeypatch, rng):
        x = DesignMatrix(rng.standard_normal((50, 6)))
        y = rng.standard_normal(50)
        c = np.zeros(4)
        hyp = SubsetHypothesis(2, c)
        stat = StatisticSpec("sqrt_affine_lasso")
        cache = CalibrationCache(directory=False)
        first = run_test(y, x, hyp, stat, mc=MC, cache=cache)
        calls = _counting_svds(monkeypatch)
        second = run_test(y, x, hyp, stat, mc=MC, cache=cache)
        assert calls == []  # the hypothesis keeps its expansion, the design its factor
        assert second == first
        c[0] = 1.0  # the hypothesis holds a copy of c
        assert run_test(y, x, hyp, stat, mc=MC, cache=cache) == first
        # the kept expansion serves only its own P and no row partition
        with pytest.raises(DimensionMismatch, match="c has length 4, expected 5"):
            hyp.expand(7)
        blocks = hyp.expand(6, row_partition=[[0, 1], [2, 3]]).row_partition
        assert blocks == ((0, 1), (2, 3))
        assert hyp.expand(6) is hyp.expand(6) and hyp.expand(6).row_partition is None


def test_every_f_test_looks_up_fisher_batch_at_call_time(monkeypatch, rng):
    """``run_test``'s exact F, ``baseline_f_test`` and a study's fisher
    column call ``statistics._fisher_batch`` through its module, so a
    wrapper set on the module sees each of them."""
    batches = []
    fisher_batch = statistics._fisher_batch

    def counting(x, hyp, y_mat):
        batches.append(y_mat.shape[1])
        return fisher_batch(x, hyp, y_mat)

    monkeypatch.setattr(statistics, "_fisher_batch", counting)
    x = DesignMatrix(rng.standard_normal((30, 4)))
    y = rng.standard_normal(30)
    hyp = SubsetHypothesis(1, np.zeros(3))
    run_test(y, x, hyp, StatisticSpec("fisher_weighted"))
    baseline_f_test(y, x, hyp)
    assert batches == [1, 1]
    estimate_power(ExperimentConfig(n=30, p=3, n_reps=5, theta_grid=(0.0, 0.5),
                                    statistics=("fisher",)))
    assert batches == [1, 1, 5, 5]  # one batch per cell


@st.composite
def scan_problems(draw):
    """A region problem with a grid of 0, 1 or several blocks of candidates:
    R in {1, 2}, the square-root lasso or group lasso with one block or, for
    R = 2, two, on a design with P < N or, of rank N - 1, P > N."""
    r = draw(st.integers(1, 2))
    n = draw(st.integers(8, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.standard_normal((n, draw(st.integers(r + 1, 6))))
    else:  # rank N - 1, so that rank(X K_A) < N
        z = rng.standard_normal((n, n - 1))
        values = np.hstack([z, z[:, :r + 1]])
    x = DesignMatrix(values)
    a = rng.standard_normal((r, x.p))
    y = x.values @ rng.standard_normal(x.p) + rng.standard_normal(n)
    family = draw(st.sampled_from(["sqrt_affine_lasso", "sqrt_affine_group_lasso"]))
    blocks = None
    if family == "sqrt_affine_group_lasso" and r == 2:
        blocks = draw(st.sampled_from([None, ((0,), (1,))]))
    g = draw(st.sampled_from([0, 1, 255, 256, 257, 600]))
    points = 3.0 * rng.standard_normal((g, r))
    return y, x, a, StatisticSpec(family, row_partition=blocks), points


class TestScanIsEveryCandidateOnItsOwn:
    @settings(max_examples=24, deadline=None)
    @given(scan_problems())
    def test_scan_matches_per_point_reduction_bitwise(self, problem):
        y, x, a, stat, points = problem
        want = np.array([_per_point_lambda(y, x, a, stat, c) for c in points])
        # a threshold equal to a value makes membership bit-sensitive there
        threshold = float(np.median(want)) if len(want) else 1.0
        region = inference._region(y, x, a, stat, threshold)
        got_points, got = region.scan(points)
        assert got.dtype == np.float64 and got.shape == (len(points),)
        assert got_points.tobytes() == points.tobytes()
        assert got.tobytes() == want.tobytes()
        # the candidates at the ends of the blocks, and one more
        picks = {k for k in (0, 255, 256, 599, len(points) // 3) if k < len(points)}
        for k in sorted(picks):
            c = points[k]
            assert _bits(region.lambda_cr(c)) == _bits(got[k])
            assert region.member(c) == (got[k] <= threshold)
            assert cr_member(c, y, x, a, stat, threshold) == (got[k] <= threshold)


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


class TestCalibratedRequest:
    """``_calibrated`` answers a list of evaluators and pairs with one
    (statistic, calibration) per item, in order."""

    def test_items_come_back_in_order_as_their_own_calibrations(self, dataset):
        x, hyp = dataset
        red = build_reduction(x, hyp)
        model = gaussian_pivotal_null(x, hyp, red)
        lasso, group, affine = (build_evaluator(StatisticSpec(name), x, hyp=hyp, red=red)
                                for name in ("sqrt_affine_lasso", "sqrt_affine_group_lasso",
                                             "affine_lasso"))
        items = [affine, (lasso, group), lasso, (group, affine)]
        cache = CalibrationCache(directory=False)
        got = inference._calibrated(cache, hyp.a_matrix, hyp.c_vector, model, MC, 0.05, items)
        assert [stat for stat, _ in got][::2] == [affine, lasso]
        batch0 = dict(zip((affine, lasso, group), calibration.calibrate_many(
            [affine, lasso, group], model, MC.m_draws, 0.05, MC.seed)))
        assert _same_calibration(got[0][1], batch0[affine])
        assert _same_calibration(got[2][1], batch0[lasso])
        for (composite, cal), pair in zip(got[1::2], items[1::2]):
            assert composite.components == pair
            assert composite.thresholds == tuple(batch0[ev].lambda_alpha for ev in pair)
            ref = calibrate_composite(*pair, model, MC.m_draws, 0.05, MC.seed)
            assert _same_calibration(cal, ref.cal_kappa)
        # a second request reads the same calibrations from the cache
        again = inference._calibrated(cache, hyp.a_matrix, hyp.c_vector, model, MC, 0.05,
                                      items)
        assert all(cal is cached for (_, cal), (_, cached) in zip(again, got))


@pytest.mark.parametrize("call, error, message", [
    (lambda y, x, hyp: run_test(y, x, hyp, 5, mc=MC), InvalidSpec, "StatisticSpec, got 5"),
    (lambda y, x, hyp: run_test(y, x, hyp, "sqrt_affine_lasso", mc=5), InvalidSpec,
     "mc must be a McConfig"),
    (lambda y, x, hyp: run_composite(y, x, hyp, "sqrt_affine_lasso",
                                     "sqrt_affine_group_lasso", mc=MC),
     InvalidSpec, "StatisticSpec, got 'sqrt_affine_lasso'"),
    (lambda y, x, hyp: confidence_region(y, x, np.eye(5)[1:2], mc=5), InvalidSpec,
     "mc must be a McConfig"),
    (lambda y, x, hyp: confidence_region(y, x, np.eye(5)[1:2], stat="sqrt_affine_lasso"),
     InvalidSpec, "StatisticSpec, got 'sqrt_affine_lasso'"),
    (lambda y, x, hyp: cr_member(np.array([0.0]), y, x, np.eye(5)[1:2],
                                 StatisticSpec("sqrt_affine_lasso"), np.nan),
     DimensionMismatch, "threshold lambda_alpha is NaN"),
    (lambda y, x, hyp: cr_grid(y, x, np.eye(5)[1:2], StatisticSpec("sqrt_affine_lasso"),
                               np.nan, np.linspace(-1.0, 1.0, 5)),
     DimensionMismatch, "threshold lambda_alpha is NaN"),
    (lambda y, x, hyp: cr_member(np.array([0.0]), y, x, np.eye(5)[1:2],
                                 StatisticSpec("sqrt_affine_lasso"), "x"),
     InvalidSpec, "threshold lambda_alpha must be a real number, got 'x'"),
    (lambda y, x, hyp: cr_grid(y, x, np.eye(5)[1:2], StatisticSpec("sqrt_affine_lasso"),
                               [1.0], np.linspace(-1.0, 1.0, 5)),
     InvalidSpec, r"threshold lambda_alpha must be a real number, got \[1.0\]"),
    (lambda y, x, hyp: cr_member(np.array([0.0]), y, x, np.eye(5)[1:2],
                                 StatisticSpec("sqrt_affine_lasso"), None),
     InvalidSpec, "threshold lambda_alpha must be a real number, got None"),
    (lambda y, x, hyp: cr_member(np.array([0.0]), y, x, np.eye(5)[1:2],
                                 StatisticSpec("sqrt_affine_lasso"), np.array([2.0])),
     InvalidSpec, r"threshold lambda_alpha must be a real number, got array\(\[2\.\]\)"),
    (lambda y, x, hyp: cr_grid(y, x, np.eye(5)[1:2], StatisticSpec("sqrt_affine_lasso"),
                               2.0, np.zeros((3, 2))),
     UnsupportedDimension, r"R = 1 grids must be \(G, 1\) arrays"),
    (lambda y, x, hyp: cr_grid(y, x, np.eye(5)[1:3], StatisticSpec("sqrt_affine_lasso"),
                               2.0, np.zeros((3, 3))),
     UnsupportedDimension, r"R = 2 grids must be \(G, 2\) arrays"),
    # a (G, N, M) stack is an affine family's only
    (lambda y, x, hyp: build_evaluator(StatisticSpec("fisher_weighted"), x, hyp=hyp)
     .evaluate_batch(np.zeros((2, x.n, 3))), DimensionMismatch, "responses must be N x M"),
    (lambda y, x, hyp: build_evaluator(StatisticSpec("glm_score_sup", glm_family="gaussian"),
                                       x, hyp=hyp).evaluate_batch(np.zeros((2, x.n, 3))),
     DimensionMismatch, "responses must be N x M"),
    (lambda y, x, hyp: build_evaluator(StatisticSpec("lad_sign"), x, hyp=hyp)
     .evaluate_batch(np.zeros((2, x.n, 3))), DimensionMismatch, "responses must be N x M"),
], ids=["run_test_stat", "run_test_mc", "run_composite_names", "region_mc", "region_stat",
        "cr_member_nan_threshold", "cr_grid_nan_threshold", "cr_member_string_threshold",
        "cr_grid_list_threshold", "cr_member_no_threshold", "cr_member_array_threshold",
        "r1_grid_of_pairs",
        "r2_grid_of_triples", "fisher_stack", "glm_score_stack", "lad_sign_stack"])
def test_each_refusal_is_typed(dataset, rng, call, error, message):
    x, hyp = dataset
    with pytest.raises(error, match=message):
        call(rng.standard_normal(x.n), x, hyp)


@pytest.mark.parametrize("threshold", [np.array(1.5), np.float32(1.5), 1.5])
def test_a_real_scalar_threshold_is_its_value(dataset, rng, threshold):
    x, _ = dataset
    y = rng.standard_normal(x.n)
    a, stat = np.eye(5)[1:2], StatisticSpec("sqrt_affine_lasso")
    grid = np.linspace(-3.0, 3.0, 61)
    mask, ends = cr_grid(y, x, a, stat, threshold, grid)
    want_mask, want_ends = cr_grid(y, x, a, stat, 1.5, grid)
    assert mask.tobytes() == want_mask.tobytes() and ends == want_ends
    assert 0 < mask.sum() < grid.size  # the threshold cuts the grid
    for c in grid[::10]:
        assert cr_member(np.array([c]), y, x, a, stat, threshold) == \
            cr_member(np.array([c]), y, x, a, stat, 1.5)


# McConfig of the decision-rule tests
_MC_199 = McConfig(m_draws=199, seed=5)


def _decision_problem(kind, family):
    """(y, X, H0: beta_1..5 = 0) on a seeded intercept design of 40 rows and
    5 covariates. ``kind`` "null" draws y of ``family`` under H0, "signal"
    with beta_1 = 1, and "flat" gives y = 1, in the null fit space."""
    rng = np.random.default_rng(31)
    x = DesignMatrix(np.hstack([np.ones((40, 1)), rng.standard_normal((40, 5))]),
                     intercept_column=0)
    eta = (kind == "signal") * x.values[:, 1]
    if kind == "flat":
        y = np.ones(40)
    elif family == "gaussian":
        y = eta + rng.standard_normal(40)
    elif family == "bernoulli":
        y = (rng.random(40) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    return y, x, SubsetHypothesis(1, np.zeros(5))


# each path that returns a TestResult: (response family, call)
_DECISION_PATHS = {
    **{family: ("gaussian", lambda y, x, hyp, family=family: run_test(y, x, hyp, family,
                                                                      mc=_MC_199))
       for family in ("affine_lasso", "affine_group_lasso", "sqrt_affine_lasso",
                      "sqrt_affine_group_lasso", "lad_sign")},
    **{f"{family}_{tag}": (tag, lambda y, x, hyp, family=family, tag=tag: run_test(
        y, x, hyp, StatisticSpec(family, glm_family=tag), mc=_MC_199))
       for family, tag in (("glm_score_sup", "bernoulli"), ("glm_score_group", "poisson"))},
    "composite": ("gaussian", lambda y, x, hyp: run_composite(y, x, hyp, mc=_MC_199)),
    "fisher_weighted": ("gaussian", lambda y, x, hyp: run_test(y, x, hyp, "fisher_weighted")),
    "baseline_f_test": ("gaussian", baseline_f_test),
    "baseline_lrt": ("bernoulli", lambda y, x, hyp: baseline_lrt(y, x, "bernoulli")),
}


@pytest.mark.parametrize("kind", ["null", "signal", "flat"])
@pytest.mark.parametrize("path", list(_DECISION_PATHS))
def test_a_result_rejects_exactly_when_its_p_value_is_at_most_alpha(path, kind):
    """The invariant the benchmark checks on every request: a result
    rejects if and only if p <= alpha, and a degenerate one has p = 1 and
    no rejection."""
    family, call = _DECISION_PATHS[path]
    res = call(*_decision_problem(kind, family))
    if res.observed.degenerate:
        assert res.p_value == 1.0 and not res.reject and res.degenerate_note
    else:
        assert res.reject == (res.p_value <= res.alpha)
        assert res.degenerate_note is None


def _at_the_f_critical_value(seed, n=30, p=4, r=2):
    """(X, H0, responses) for H0: the last r of p coefficients are 0: the
    responses e + t X d, for seeded noise e and a direction d in the tested
    coefficients, at t on both sides of F = f_crit at alpha 0.05, as close
    as a bisection of t in floats gets. None when F >= f_crit at t = 0."""
    rng = np.random.default_rng(seed)
    x = DesignMatrix(rng.standard_normal((n, p)))
    hyp = SubsetHypothesis(p - r, np.zeros(r))
    noise = rng.standard_normal(n)
    signal = x.values[:, p - r:] @ rng.standard_normal(r)

    def above(t):
        res = baseline_f_test(noise + t * signal, x, hyp)
        return res.observed.value >= res.lambda_alpha  # F against f_crit

    lo, hi = 0.0, 1.0
    if above(lo):
        return None
    while not above(hi):
        hi *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if above(mid) else (mid, hi)
    return x, hyp, [noise + t * signal for t in (lo, hi)]


def test_the_exact_f_test_has_one_rejection_rule_at_its_critical_value():
    """At F within rounding of f_crit, ``run_test(..., "fisher_weighted")``,
    ``baseline_f_test`` and p <= alpha give one decision. A rejection by
    lambda_0 > lambda_alpha disagrees with the F-test's p there, as in a
    rejection at p = 0.05000000000000003 and alpha 0.05."""
    disagree, near = [], 0
    for seed in range(30):
        problem = _at_the_f_critical_value(seed)
        if problem is None:
            continue
        x, hyp, responses = problem
        for y in responses:
            fisher = run_test(y, x, hyp, "fisher_weighted")
            f_test = baseline_f_test(y, x, hyp)
            assert fisher.p_value == f_test.p_value
            near += abs(f_test.p_value - 0.05) < 1e-12
            if not fisher.reject == f_test.reject == (f_test.p_value <= 0.05):
                disagree.append((seed, fisher.reject, f_test.reject, f_test.p_value))
    assert near >= 40  # the responses do sit at the critical value
    assert disagree == []


# one child of the BLAS thread-count test: argv is the data CSV, the
# hypothesis file of the region and the region's output CSV
_BLAS_CHILD = """
import json, sys
import numpy as np
from threshtest import DesignMatrix, McConfig, SubsetHypothesis, cli, run_composite, run_test

data, hypothesis, out = sys.argv[1:]
table = np.loadtxt(data, delimiter=",", skiprows=1)
y = table[:, 0]
x = DesignMatrix(np.hstack([np.ones((len(y), 1)), table[:, 1:]]), intercept_column=0)
hyp = SubsetHypothesis(x.p - 10, np.zeros(10))
results = [run_test(y, x, hyp, "sqrt_affine_lasso", mc=McConfig(2000, seed=3)),
           run_composite(y, x, hyp, mc=McConfig(999, seed=3))]
assert cli.main(["region", "--data", data, "--response", "y", "--intercept",
                 "--hypothesis", hypothesis, "--mc", "2000", "--seed", "3",
                 "--grid=-1:1.6:121", "--out", out]) == 0
with open(out) as fh:
    member = [line.rstrip().split(",")[2] for line in fh][1:]
print(json.dumps({"tests": [[r.observed.value, r.p_value, r.reject] for r in results],
                  "member": member}))
"""


def test_the_blas_thread_count_moves_no_p_value_decision_or_membership(tmp_path):
    """One seeded 500 x 51 problem, at the benchmark's sizes, run in two
    child processes with OPENBLAS_NUM_THREADS at 1 and at 2: ``run_test``
    with ``sqrt_affine_lasso`` at M = 2000, ``run_composite`` at M = 999 and
    the CLI ``region`` on a 121-point grid give equal observed values,
    p-values, decisions and region memberships.

    The bits of ``lambda_alpha`` and ``lambda_CR`` are not compared: they
    can differ in the last bit between the two settings, since OpenBLAS sums
    some products of N-length vectors in another order on two threads (the
    N x M projection of a null batch, and the SVD of X K_A)."""
    rng = np.random.default_rng(12)
    n, p = 500, 50
    covariates = rng.standard_normal((n, p))
    beta = np.concatenate([[0.5, 0.4], rng.normal(0.0, 0.3, p - 12), 0.03 * np.ones(10)])
    y = 0.5 + covariates @ beta + rng.standard_normal(n)
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        fh.write(",".join(["y"] + [f"x{j}" for j in range(1, p + 1)]) + "\n")
        for row in np.column_stack([y, covariates]):
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    contrast = np.zeros(p + 1)
    contrast[1], contrast[2] = 1.0, -1.0  # beta_1 - beta_2
    hypothesis = tmp_path / "contrast.json"
    hypothesis.write_text(json.dumps({"A": [contrast.tolist()], "c": [0.0]}))
    env = {k: v for k, v in os.environ.items() if k != "THRESHTEST_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(inference.__file__))]
        + [path for path in [env.get("PYTHONPATH")] if path])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"region{threads}.csv"
        child = subprocess.run(
            [sys.executable, "-c", _BLAS_CHILD, str(data), str(hypothesis), str(out)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True, capture_output=True,
            text=True, timeout=300)
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    one, two = runs
    assert one["tests"] == two["tests"]
    assert one["member"] == two["member"]
    assert len(one["member"]) == 121 and 0 < one["member"].count("1") < 121
