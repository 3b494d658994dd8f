"""Simulation harness: generators, power/level grids, baselines."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sp_stats

from threshtest import (
    AlternativeSpec,
    DesignMatrix,
    DesignSpec,
    ExperimentConfig,
    LinearHypothesis,
    SubsetHypothesis,
    baseline_f_test,
    baseline_lrt,
    build_reduction,
    estimate_level,
    estimate_power,
    gen_beta,
    gen_design,
    gen_response,
    glm_family,
)
from threshtest import calibration, inference, simulate
from threshtest.calibration import calibrate_composite, calibrate_many, simulate_null, substream
from threshtest.inference import McConfig, run_test
from threshtest.simulate import PowerRow, _Harness
from threshtest.statistics import Composite, Evaluator, StatisticSpec, evaluate_many
from threshtest.exceptions import (
    DimensionMismatch,
    DomainError,
    InsufficientDraws,
    InvalidSpec,
    NotApplicable,
    OverflowGuard,
    RankDeficient,
)


@pytest.fixture
def rng():
    return np.random.default_rng(55)


class TestGenDesign:
    def test_identity_columns_uncorrelated(self, rng):
        x = gen_design(10_000, 2, DesignSpec(kind="identity"), rng)
        rho = np.corrcoef(x.values.T)[0, 1]
        assert abs(rho) < 0.1

    def test_ar1_adjacent_correlation(self, rng):
        x = gen_design(10_000, 5, DesignSpec(kind="ar1", rho=0.5), rng)
        corr = np.corrcoef(x.values.T)
        adjacent = [corr[j, j + 1] for j in range(4)]
        np.testing.assert_allclose(adjacent, 0.5, atol=0.05)

    def test_standardization(self, rng):
        x = gen_design(500, 3, DesignSpec(), rng)
        np.testing.assert_allclose(np.mean(x.values, axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.std(x.values, axis=0), 1.0, atol=1e-12)

    def test_single_column(self, rng):
        x = gen_design(50, 1, DesignSpec(), rng)
        assert x.values.shape == (50, 1)

    def test_intercept_option(self, rng):
        x = gen_design(20, 3, DesignSpec(), rng, intercept=True)
        assert x.intercept_column == 0
        np.testing.assert_array_equal(x.values[:, 0], 1.0)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            DesignSpec(kind="toeplitz")
        with pytest.raises(InvalidSpec):
            DesignSpec(rho=1.5)


class TestGenBeta:
    def test_zero_sparsity(self, rng):
        np.testing.assert_array_equal(gen_beta(AlternativeSpec(0, 1.0), 5, rng),
                                      np.zeros(5))

    def test_full_support(self, rng):
        beta = gen_beta(AlternativeSpec(4, 1.0), 4, rng)
        np.testing.assert_array_equal(np.abs(beta), 1.0)

    def test_exact_support_size_and_magnitude(self, rng):
        beta = gen_beta(AlternativeSpec(3, 0.7), 10, rng)
        nz = beta[beta != 0.0]
        assert nz.size == 3
        np.testing.assert_allclose(np.abs(nz), 0.7)

    def test_position_frequencies(self, rng):
        p, draws = 5, 10_000
        counts = np.zeros(p)
        for _ in range(draws):
            counts += gen_beta(AlternativeSpec(1, 1.0), p, rng) != 0.0
        # binomial(draws, 1/p): 3 sigma band
        sd = np.sqrt(draws * (1 / p) * (1 - 1 / p))
        np.testing.assert_array_less(np.abs(counts - draws / p), 3 * sd + 1)

    def test_s_exceeds_p(self, rng):
        with pytest.raises(InvalidSpec):
            gen_beta(AlternativeSpec(6, 1.0), 5, rng)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -1.0])
    def test_theta_must_be_finite_and_non_negative(self, theta):
        with pytest.raises(InvalidSpec):
            AlternativeSpec(1, theta)

    def test_signs_draw_what_choice_draws(self):
        # the signs index [-1, 1] by integers(0, 2): the values and the
        # generator state after the call are those of rng.choice([-1, 1])
        for seed in range(3000):
            for s in (1, 2, 5, 20):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = gen_beta(AlternativeSpec(s, 0.7), 20, rng)
                want = np.zeros(20)
                positions = ref.permutation(20)[:s]
                want[positions] = ref.choice([-1.0, 1.0], size=s) * 0.7
                assert got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref.bit_generator.state


class TestGenResponse:
    def test_gaussian_null_standard_normal(self, rng):
        x = gen_design(50_000, 2, DesignSpec(), rng)
        y = gen_response(x, 0.0, np.zeros(2), "gaussian", rng)
        assert np.mean(y) == pytest.approx(0.0, abs=0.02)
        assert np.std(y) == pytest.approx(1.0, abs=0.02)

    def test_bernoulli_mean_at_minus_two(self, rng):
        x = gen_design(100_000, 2, DesignSpec(), rng)
        y = gen_response(x, -2.0, np.zeros(2), "bernoulli", rng)
        assert np.mean(y) == pytest.approx(1.0 / (1.0 + np.exp(2.0)), abs=0.004)

    def test_poisson_mean_at_minus_two(self, rng):
        x = gen_design(100_000, 2, DesignSpec(), rng)
        y = gen_response(x, -2.0, np.zeros(2), "poisson", rng)
        assert np.mean(y) == pytest.approx(np.exp(-2.0), abs=0.004)

    def test_bernoulli_extreme_predictor_takes_the_limit(self, rng):
        # e^-eta would overflow at eta = -1000; the probability is about 1e-308
        x = DesignMatrix(np.array([[-1.0], [1.0]]))
        assert gen_response(x, 0.0, np.array([1000.0]), "bernoulli", rng).tolist() == [0, 1]

    def test_poisson_overflow_guard(self, rng):
        x = DesignMatrix(np.full((5, 1), 10.0))
        with pytest.raises(OverflowGuard):
            gen_response(x, 0.0, np.array([50.0]), "poisson", rng)

    @pytest.mark.parametrize("family,beta0", [("gaussian", -2.0), ("bernoulli", 0.0),
                                              ("poisson", 0.5)])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_draws_the_one_replicate_formula(self, family, beta0, layout):
        # beta0 + x @ beta through the canonical link, then one noise call:
        # the values and the generator state of the per-replicate loop
        for seed in range(20):
            wide = np.random.default_rng(seed).standard_normal((40, 10))
            x = wide[:, ::2] if layout == "strided" else np.ascontiguousarray(wide[:, ::2])
            beta = np.random.default_rng(seed + 1).uniform(-0.7, 0.7, 5)
            rng, ref = np.random.default_rng(seed + 2), np.random.default_rng(seed + 2)
            got = gen_response(x, beta0, beta, family, rng)
            eta = beta0 + x @ beta
            if family == "gaussian":
                want = eta + ref.standard_normal(40)
            elif family == "bernoulli":
                want = ref.binomial(1, 1.0 / (1.0 + np.exp(-eta))).astype(float)
            else:
                want = ref.poisson(np.exp(eta)).astype(float)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


class TestCellResponses:
    """A cell's responses are the one-replicate generators' column by column."""

    @pytest.mark.parametrize("family,beta0", [("gaussian", -2.0), ("bernoulli", 0.0),
                                              ("poisson", 0.5)])
    @pytest.mark.parametrize("s", [0, 1, 5])
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_cell_equals_per_replicate_draws(self, family, beta0, s, theta):
        cfg = ExperimentConfig(n=40, p=5, family=family, beta0=beta0, n_reps=30, seed=11,
                               s_values=(s,), theta_grid=(theta,), statistics=("lrt",))
        harness = _Harness(cfg)
        y = harness.simulate_cell(s, theta)
        alt = AlternativeSpec(s, theta)
        reference = np.column_stack([
            gen_response(harness.x_cov, beta0, gen_beta(alt, cfg.p, rng), family, rng)
            for rng in (substream(cfg.seed, 1, s, simulate._theta_key(theta), m)
                        for m in range(cfg.n_reps))])
        assert y.shape == (cfg.n, cfg.n_reps) and y.flags.c_contiguous
        assert y.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("family,beta0", [("gaussian", -2.0), ("bernoulli", 0.0),
                                              ("poisson", 0.5)])
    def test_level_cell_is_a_draw_of_the_true_null(self, family, beta0):
        # at s = 0 each replicate is a draw of the study's true null, the
        # plug-in null the harness calibrates a GLM score column on
        cfg = ExperimentConfig(n=40, p=5, family=family, beta0=beta0, n_reps=30, seed=11,
                               s_values=(0,), theta_grid=(0.0,), statistics=("lrt",))
        harness = _Harness(cfg)
        model = simulate._glm_true_null(harness.x_full, family, beta0)
        reference = np.column_stack([
            simulate_null(model, substream(cfg.seed, 1, 0, simulate._theta_key(0.0), m))
            for m in range(cfg.n_reps)])
        assert harness.simulate_cell(0, 0.0).tobytes() == reference.tobytes()

    def test_poisson_cell_above_the_guard_raises(self):
        cfg = ExperimentConfig(n=40, p=5, family="poisson", beta0=0.0, n_reps=30,
                               s_values=(5,), theta_grid=(20.0,), statistics=("lrt",))
        with pytest.raises(OverflowGuard, match="exp\\(30\\) guard"):
            _Harness(cfg).simulate_cell(5, 20.0)
        # the study does not raise: the cell's one column gets an error row
        (row,) = estimate_power(cfg)
        assert row.statistic_id == "baseline_lrt"
        assert row.status == "error: poisson linear predictor exceeds the exp(30) guard"


class TestPowerGrid:
    def _cfg(self, **kw):
        base = dict(
            n=40, p=5, family="gaussian", alpha=0.05, m_calib=200, n_reps=200,
            theta_grid=(0.0, 2.0), s_values=(1,),
            statistics=(StatisticSpec("sqrt_affine_lasso"),), seed=7)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_rows_and_reproducibility(self):
        rows1 = estimate_power(self._cfg())
        rows2 = estimate_power(self._cfg())
        assert [r.as_csv_row() for r in rows1] == [r.as_csv_row() for r in rows2]
        assert all(0.0 <= r.power_estimate <= 1.0 for r in rows1)
        assert all(r.status == "ok" for r in rows1)

    def test_thread_count_invariance(self):
        cfg = self._cfg(theta_grid=(0.0, 1.0, 2.0))
        serial = estimate_power(cfg, threads=1)
        parallel = estimate_power(cfg, threads=3)
        assert [r.as_csv_row() for r in serial] == [r.as_csv_row() for r in parallel]

    def test_signal_increases_power(self):
        rows = estimate_power(self._cfg())
        by_theta = {r.theta: r.power_estimate for r in rows}
        assert by_theta[2.0] > by_theta[0.0] + 0.3

    def test_level_row_matches_power_at_zero(self):
        cfg = self._cfg()
        level_rows = estimate_level(cfg)
        power_rows = [r for r in estimate_power(cfg) if r.theta == 0.0]
        assert [r.as_csv_row() for r in level_rows] == \
            [r.as_csv_row() for r in power_rows]

    def test_null_level_near_alpha(self):
        rows = estimate_level(self._cfg(n_reps=500))
        for r in rows:
            assert abs(r.power_estimate - 0.05) <= 0.03

    def test_composite_and_baselines(self):
        cfg = self._cfg(statistics=(StatisticSpec("sqrt_affine_lasso"),
                                    "composite", "fisher", "lrt"))
        rows = estimate_power(cfg)
        sids = {r.statistic_id for r in rows}
        assert "baseline_fisher" in sids and "baseline_lrt" in sids
        assert any(s.startswith("composite(") for s in sids)

    def test_gaussian_statistic_with_glm_family_refused(self, monkeypatch):
        # a gaussian statistic has no null model for these responses, so the
        # config refuses it before a design is drawn
        monkeypatch.setattr(simulate, "_Harness", None)
        for family in ("bernoulli", "poisson"):
            with pytest.raises(NotApplicable, match="sqrt_affine_lasso needs gaussian"):
                self._cfg(family=family, beta0=0.5,
                          statistics=(StatisticSpec("sqrt_affine_lasso"),
                                      StatisticSpec("glm_score_sup", glm_family=family)))

    def test_glm_score_of_another_family_refused(self, monkeypatch):
        # a bernoulli score of poisson counts has a negative variance, so
        # every replicate would be degenerate and the power read 0.0
        monkeypatch.setattr(simulate, "_Harness", None)
        for study, scored in (("poisson", "bernoulli"), ("bernoulli", "poisson"),
                              ("gaussian", "poisson"), ("poisson", "gaussian")):
            with pytest.raises(NotApplicable, match=f"scores {scored} responses, not {study}"):
                self._cfg(family=study, beta0=0.5,
                          statistics=(StatisticSpec("glm_score_sup", glm_family=study),
                                      StatisticSpec("glm_score_group", glm_family=scored)))

    @pytest.mark.parametrize("family,beta0,stats", [
        ("gaussian", -2.0, (StatisticSpec("sqrt_affine_lasso"), "composite", "fisher")),
        ("poisson", 0.5, (StatisticSpec("glm_score_sup", glm_family="poisson"),
                          "composite")),
    ])
    def test_rows_equal_per_key_reference(self, monkeypatch, family, beta0, stats):
        # the vectorised seeding of calibration and response draws must give
        # the rows of the old one-substream-call-per-replicate loop
        cfg = self._cfg(family=family, beta0=beta0, statistics=stats,
                        s_values=(0, 2), theta_grid=(0.0, 0.7), n_reps=150)
        batched = estimate_power(cfg)

        def per_key(seed, *prefix, count):
            return (substream(seed, *prefix, m) for m in range(count))

        monkeypatch.setattr(calibration, "_substreams", per_key)
        monkeypatch.setattr(simulate, "_substreams", per_key)
        monkeypatch.setattr(inference, "_default_cache", None)  # calibrate again
        reference = estimate_power(cfg)
        assert [r.as_csv_row() for r in batched] == [r.as_csv_row() for r in reference]

    @pytest.mark.parametrize("family,beta0,stat", [
        ("gaussian", -2.0, StatisticSpec("sqrt_affine_lasso")),
        ("bernoulli", 0.0, StatisticSpec("glm_score_sup", glm_family="bernoulli")),
    ])
    def test_one_draw_and_one_pass_per_batch(self, monkeypatch, family, beta0, stat):
        # the mc statistic and both composite components are calibrated on
        # one batch-0 draw, and every cell makes one shared evaluation pass
        cfg = self._cfg(family=family, beta0=beta0, statistics=(stat, "composite", "lrt"),
                        theta_grid=(0.0, 0.5, 1.0), n_reps=50)
        reference = estimate_power(cfg)
        batches, passes = [], []
        draw, parts = calibration._simulate_batch, Evaluator._parts

        def counted_draw(model, seed, m_draws, batch):
            batches.append(batch)
            return draw(model, seed, m_draws, batch)

        def counted_parts(self, y_mat):
            passes.append(y_mat.shape[1])
            return parts(self, y_mat)

        monkeypatch.setattr(calibration, "_simulate_batch", counted_draw)
        monkeypatch.setattr(Evaluator, "_parts", counted_parts)
        monkeypatch.setattr(inference, "_default_cache", None)  # a cold run
        rows = estimate_power(cfg)
        assert sorted(batches) == [0, 1]
        assert sorted(passes) == [50] * 3 + [200] * 2
        assert [r.as_csv_row() for r in rows] == [r.as_csv_row() for r in reference]

        # the rows of calibrating the statistic and the composite each on
        # its own draws, on the harness's intercept design and H0
        harness = _Harness(cfg)
        x, hyp = harness.x_full, harness.hyp
        if family == "gaussian":
            model = calibration.gaussian_pivotal_null(x, hyp, build_reduction(x, hyp))
        else:
            model = simulate._glm_true_null(x, family, beta0)
        ev, ev1, ev2 = (Evaluator(spec, x, hyp=hyp, red=model.reduced) for spec in
                        (stat, *calibration._composite_pair(None if family == "gaussian"
                                                            else family)))
        cal = calibrate_many([ev], model, cfg.m_calib, cfg.alpha, cfg.seed)[0]
        comp = calibrate_composite(ev1, ev2, model, cfg.m_calib, cfg.alpha, cfg.seed)
        composite = Composite(ev1, ev2, comp.cal_1.lambda_alpha, comp.cal_2.lambda_alpha)
        alone = []
        for theta in cfg.theta_grid:
            y = harness.simulate_cell(1, theta)
            (vals, degen), (kappas, kappa_degen) = evaluate_many([ev, composite], y)
            lrt = [baseline_lrt(y[:, m], harness.x_cov, family, cfg.alpha).reject
                   for m in range(cfg.n_reps)]
            for sid, rejects in [
                    (ev.statistic_id, ~degen & (vals > cal.lambda_alpha)),
                    (composite.statistic_id, ~kappa_degen & (kappas > comp.kappa_alpha)),
                    ("baseline_lrt", lrt)]:
                power = float(np.mean(rejects))
                alone.append(PowerRow(sid, family, 1, theta, power,
                                      float(np.sqrt(power * (1.0 - power) / cfg.n_reps)),
                                      cfg.n_reps))
        alone.sort(key=lambda r: (r.statistic_id, r.s, r.theta))
        assert [r.as_csv_row() for r in alone] == [r.as_csv_row() for r in reference]

    @pytest.mark.parametrize("family,beta0,stat", [
        ("gaussian", -2.0, StatisticSpec("sqrt_affine_lasso")),
        ("bernoulli", 0.0, StatisticSpec("glm_score_sup", glm_family="bernoulli")),
    ])
    def test_level_after_power_draws_no_calibration(self, monkeypatch, family, beta0, stat):
        # the grid and n_reps change no calibration, so a level run after a
        # power run of one config reads every calibration from the cache
        cfg = self._cfg(family=family, beta0=beta0, statistics=(stat, "composite"),
                        theta_grid=(0.0, 0.5), s_values=(1, 2), n_reps=60)
        cold = estimate_level(cfg)
        monkeypatch.setattr(inference, "_default_cache", None)
        estimate_power(cfg)
        batches = []
        draw = calibration._simulate_batch

        def counted_draw(model, seed, m_draws, batch):
            batches.append(batch)
            return draw(model, seed, m_draws, batch)

        monkeypatch.setattr(calibration, "_simulate_batch", counted_draw)
        warm = estimate_level(cfg)
        assert batches == []
        assert [r.as_csv_row() for r in warm] == [r.as_csv_row() for r in cold]
        estimate_power(dataclasses.replace(cfg, theta_grid=(0.3,), n_reps=20))
        assert batches == []

    def test_harness_reads_the_run_test_calibration(self, monkeypatch):
        # a gaussian harness keys its calibration as run_test does for the
        # same (X, H0, statistic, M, alpha, seed), so after that run_test
        # it draws only the responses, whose keys start with 1
        cfg = self._cfg(theta_grid=(0.0, 1.0), n_reps=50)
        cold = estimate_power(cfg)
        harness = _Harness(cfg)
        monkeypatch.setattr(inference, "_default_cache", None)
        y = np.random.default_rng(0).standard_normal(cfg.n)
        run_test(y, harness.x_full, harness.hyp, StatisticSpec("sqrt_affine_lasso"),
                 alpha=cfg.alpha, mc=McConfig(cfg.m_calib, cfg.seed))
        prefixes = []
        substreams = calibration._substreams

        def counted(seed, *prefix, count):
            prefixes.append(prefix)
            return substreams(seed, *prefix, count=count)

        monkeypatch.setattr(calibration, "_substreams", counted)
        monkeypatch.setattr(simulate, "_substreams", counted)
        warm = estimate_power(cfg)
        assert prefixes and all(prefix[0] == 1 for prefix in prefixes)
        assert [r.as_csv_row() for r in warm] == [r.as_csv_row() for r in cold]

    @pytest.mark.parametrize("family,beta0", [("gaussian", -2.0), ("bernoulli", 0.0)])
    def test_lrt_rejects_equal_per_replicate_baseline(self, family, beta0):
        cfg = self._cfg(family=family, beta0=beta0, statistics=("lrt",), n_reps=300)
        harness = _Harness(cfg)
        y = harness.simulate_cell(1, 0.5)
        results = [baseline_lrt(y[:, m], harness.x_cov, family, cfg.alpha)
                   for m in range(cfg.n_reps)]
        rejects = harness._lrt_rejects(y, {})
        assert rejects.tolist() == [res.reject for res in results]
        assert 0 < rejects.sum() < cfg.n_reps
        # one vectorised chi2.sf call gives the scalar calls' p-values bit for bit
        stats = np.array([res.observed.value for res in results])
        assert sp_stats.chi2.sf(stats, cfg.p).tolist() == [res.p_value for res in results]

    @pytest.mark.parametrize("kw", [
        {"theta_grid": (0.0, np.nan)}, {"theta_grid": (np.inf,)},
        {"beta0": np.nan}, {"beta0": -np.inf},
    ], ids=["nan_theta", "infinite_theta", "nan_beta0", "infinite_beta0"])
    def test_non_finite_theta_or_beta0_is_invalid(self, kw):
        with pytest.raises(InvalidSpec):
            ExperimentConfig(n=20, p=3, **kw)

    @pytest.mark.parametrize("n_reps", [0, -1])
    def test_fewer_than_one_replicate_is_invalid(self, n_reps):
        with pytest.raises(InvalidSpec, match="n_reps"):
            ExperimentConfig(n=20, p=3, n_reps=n_reps)

    @pytest.mark.parametrize("kw", [
        {"seed": -3}, {"seed": 1.5}, {"seed": True}, {"m_calib": 99.0}, {"m_calib": -1},
        {"n_reps": 2.5}, {"n": 20.0}, {"p": 3.0}, {"s_values": (1.5,)},
    ], ids=["negative_seed", "float_seed", "bool_seed", "float_m_calib", "negative_m_calib",
            "float_n_reps", "float_n", "float_p", "float_s"])
    def test_seed_and_counts_are_non_negative_integers(self, kw):
        with pytest.raises(InvalidSpec, match=next(iter(kw))):
            ExperimentConfig(**{"n": 20, "p": 3, **kw})

    def test_baseline_requires_p_less_than_n(self):
        with pytest.raises(InvalidSpec):
            self._cfg(n=4, p=5, statistics=("fisher",))

    @pytest.mark.parametrize("tag", ["fisher", "lrt"])
    def test_baseline_needs_an_intercept_and_p_columns_below_n(self, monkeypatch, tag):
        # the baselines fit an intercept and p columns, so p = n - 1 leaves
        # no residual; the config refuses it before a design is drawn
        self._cfg(n=10, p=8, statistics=(tag,))
        monkeypatch.setattr(simulate, "_Harness", None)
        with pytest.raises(InvalidSpec, match=r"needs p \+ 1 < n, got p = 9, n = 10"):
            self._cfg(n=10, p=9, statistics=(tag,))

    @pytest.mark.parametrize("entry", [5, None, Evaluator], ids=["int", "none", "class"])
    def test_entry_neither_tag_nor_spec_is_invalid(self, entry):
        with pytest.raises(InvalidSpec, match="a tag or a StatisticSpec"):
            self._cfg(statistics=(entry,))

    @pytest.mark.parametrize("tag", ["bernoulli", "poisson"])
    def test_equal_glm_specs_and_configs_are_equal(self, tag):
        # one family per tag, so specs and studies that name it compare
        # and hash equal
        assert glm_family(tag) is glm_family(tag)
        specs = [StatisticSpec("glm_score_sup", glm_family=tag) for _ in range(2)]
        assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])
        cfgs = [self._cfg(family=tag, beta0=0.0, statistics=(spec, "composite"))
                for spec in specs]
        assert cfgs[0] == cfgs[1] and hash(cfgs[0]) == hash(cfgs[1])

    def test_failed_column_row_carries_its_id(self):
        # nearly all-zero poisson responses at n = 5 make the LRT's IRLS
        # system singular; that cell's error row carries the lrt column's id
        cfg = ExperimentConfig(
            n=5, p=3, family="poisson", beta0=-20.0, theta_grid=(10.0,), s_values=(3,),
            m_calib=19, n_reps=20, seed=3, alpha=0.1,
            statistics=("composite", "fisher", "lrt",
                        StatisticSpec("glm_score_sup", glm_family="poisson")))
        rows = estimate_power(cfg)
        assert [r.statistic_id for r in rows if r.status != "ok"] == ["baseline_lrt"]

    def test_overflowing_responses_write_no_ok_rows(self):
        # a gaussian beta0 of 1e300 overflows every column's squares: each
        # row is an OverflowGuard error, not a power of 0
        cfg = ExperimentConfig(n=20, p=3, seed=1, alpha=0.1, m_calib=19, n_reps=5, beta0=1e300,
                               statistics=("composite", "fisher", "lrt",
                                           StatisticSpec("sqrt_affine_lasso")))
        rows = estimate_power(cfg)
        assert len(rows) == 4
        assert all(r.status.startswith("error: responses too large") for r in rows)

    def test_a_failed_shared_pass_is_made_once_per_cell(self, monkeypatch):
        # the Monte-Carlo columns share one evaluate_many pass per cell; when
        # it fails, each of them gets its error row and the pass is not retried
        calls = []

        def failing(evaluators, y_mat):
            calls.append(len(evaluators))
            raise OverflowGuard("responses too large")

        monkeypatch.setattr(simulate, "evaluate_many", failing)
        cfg = self._cfg(statistics=(StatisticSpec("sqrt_affine_lasso"), "composite", "fisher"))
        rows = estimate_power(cfg)
        assert calls == [2, 2]  # one pass of the two statistics per cell
        assert [r.status for r in rows if r.statistic_id != "baseline_fisher"] == \
            ["error: responses too large"] * 4
        assert [r.status for r in rows if r.statistic_id == "baseline_fisher"] == ["ok"] * 2

    @pytest.mark.parametrize("kw", [{"theta_grid": ()}, {"s_values": ()},
                                    {"theta_grid": np.array([])}],
                             ids=["no_theta", "no_s", "empty_array"])
    def test_empty_grid_is_invalid(self, kw):
        with pytest.raises(InvalidSpec, match="at least one value"):
            ExperimentConfig(n=20, p=3, **kw)

    def test_grid_may_be_an_array(self):
        cfg = ExperimentConfig(n=20, p=3, theta_grid=np.linspace(0.0, 1.0, 3),
                               s_values=np.array([1, 2]))
        assert list(cfg.theta_grid) == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("theta", [-0.5, -np.inf])
    def test_each_alternative_is_checked(self, theta):
        # the rule of AlternativeSpec, checked before any cell is simulated
        with pytest.raises(InvalidSpec, match=r"theta >= 0"):
            ExperimentConfig(n=20, p=3, theta_grid=(0.0, theta))

    def test_poisson_beta0_above_the_guard_is_refused(self):
        ExperimentConfig(n=20, p=3, family="poisson", beta0=30.0)
        with pytest.raises(OverflowGuard):
            ExperimentConfig(n=20, p=3, family="poisson", beta0=30.5)

    @pytest.mark.parametrize("estimate", [estimate_power, estimate_level])
    def test_no_statistics_is_invalid(self, estimate):
        with pytest.raises(InvalidSpec, match="at least one statistic"):
            estimate(ExperimentConfig(n=20, p=3, seed=5))

    @pytest.mark.parametrize("threads", [0, -4, 1.0, True])
    def test_threads_below_one_are_invalid(self, monkeypatch, threads):
        monkeypatch.setattr(simulate, "_Harness", None)  # refused before any calibration
        with pytest.raises(InvalidSpec, match="threads"):
            estimate_power(self._cfg(), threads=threads)

    @pytest.mark.parametrize("family,beta0", [("gaussian", -2.0), ("bernoulli", 0.0)])
    def test_fisher_rejects_equal_baseline_and_skip_degenerate(self, family, beta0):
        cfg = self._cfg(family=family, beta0=beta0, statistics=("fisher",), n_reps=200)
        harness = _Harness(cfg)
        y = harness.simulate_cell(1, 1.0)
        # three replicates in the column span of the intercept design: the
        # RSS is rounding noise, so they are degenerate and never reject
        in_span = [0, 7, 100]
        coef = np.random.default_rng(1).standard_normal((cfg.p + 1, len(in_span)))
        y[:, in_span] = harness.x_full.values @ coef
        x = DesignMatrix(np.hstack([np.ones((cfg.n, 1)), harness.x_cov]),
                         intercept_column=0)
        hyp = SubsetHypothesis(1, np.zeros(cfg.p))
        results = [baseline_f_test(y[:, m], x, hyp, cfg.alpha) for m in range(cfg.n_reps)]
        rejects = harness._fisher_rejects(y, {})
        assert rejects.tolist() == [res.reject for res in results]
        assert [results[m].observed.degenerate for m in in_span] == [True] * 3
        assert not rejects[in_span].any() and 0 < rejects.sum()


@st.composite
def small_studies(draw):
    """A small random ExperimentConfig with several (s, theta) cells."""
    family = draw(st.sampled_from(["gaussian", "bernoulli", "poisson"]))
    p = draw(st.integers(2, 4))
    if family == "gaussian":
        stats = (StatisticSpec("sqrt_affine_lasso"), "composite", "fisher", "lrt")
    else:
        stats = (StatisticSpec("glm_score_sup", glm_family=family), "composite", "lrt")
    return ExperimentConfig(
        n=draw(st.integers(12, 30)), p=p, family=family,
        beta0={"gaussian": -2.0, "bernoulli": 0.0, "poisson": 0.5}[family],
        m_calib=draw(st.integers(19, 60)), n_reps=draw(st.integers(5, 30)),
        theta_grid=tuple(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1,
                                       max_size=3, unique=True))),
        s_values=tuple(draw(st.lists(st.integers(0, p), min_size=1, max_size=2,
                                     unique=True))),
        design_spec=DesignSpec(kind=draw(st.sampled_from(["ar1", "identity"]))),
        statistics=draw(st.lists(st.sampled_from(stats), min_size=1, max_size=len(stats),
                                 unique=True).map(tuple)),
        seed=draw(st.integers(0, 2**32 - 1)))


class TestThreadInvariance:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_studies())
    def test_rows_equal_at_1_2_and_4_threads(self, cfg):
        serial = [r.as_csv_row() for r in estimate_power(cfg, threads=1)]
        for threads in (2, 4):
            assert [r.as_csv_row() for r in estimate_power(cfg, threads=threads)] == serial


class TestBaselines:
    @pytest.mark.parametrize("baseline", ["f_test", "lrt_gaussian", "lrt_poisson"])
    def test_response_is_a_finite_n_vector(self, baseline, rng):
        x = DesignMatrix(rng.standard_normal((20, 3)))
        y = np.round(np.exp(rng.standard_normal(20)))
        if baseline == "f_test":
            run = lambda y: baseline_f_test(y, x, SubsetHypothesis(1, np.zeros(2)))
        else:
            run = lambda y: baseline_lrt(y, x, baseline.split("_")[1])
        assert np.isfinite(run(y).p_value)
        for bad in (np.where(np.arange(20) == 3, np.nan, y), y[:-1], np.append(y, 1.0),
                    y[:, None]):
            with pytest.raises(DimensionMismatch):
                run(bad)

    def test_f_test_needs_a_hypothesis(self, rng):
        x = DesignMatrix(rng.standard_normal((20, 3)))
        with pytest.raises(InvalidSpec, match="NoneType"):
            baseline_f_test(rng.standard_normal(20), x, None)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, np.nan])
    def test_alpha_outside_unit_interval(self, alpha, rng):
        # the exact tests refuse such an alpha as the Monte-Carlo ones do
        x = DesignMatrix(rng.standard_normal((20, 3)))
        y = rng.standard_normal(20)
        with pytest.raises(InsufficientDraws, match="alpha"):
            baseline_f_test(y, x, SubsetHypothesis(1, np.zeros(2)), alpha=alpha)
        with pytest.raises(InsufficientDraws, match="alpha"):
            baseline_lrt(y, x, "gaussian", alpha=alpha)
        with pytest.raises(InsufficientDraws, match="alpha"):
            ExperimentConfig(n=20, p=3, alpha=alpha, statistics=("fisher", "lrt"))

    def test_f_test_response_in_span_is_degenerate(self):
        # y = X[:, :2] b: the F numerator and the RSS are both rounding noise
        rng = np.random.default_rng(0)
        x = DesignMatrix(rng.standard_normal((30, 5)))
        y = x.values[:, :2] @ rng.standard_normal(2)
        res = baseline_f_test(y, x, SubsetHypothesis(2, np.zeros(3)))
        assert res.observed.degenerate and res.degenerate_note
        assert res.p_value == 1.0 and not res.reject

    def test_f_test_null_distribution(self, rng):
        # exact test: p-values uniform; check rejection count at alpha = 0.2
        n, p = 25, 3
        x = DesignMatrix(rng.standard_normal((n, p)))
        hyp = LinearHypothesis(np.eye(p), np.zeros(p))
        rejects = sum(
            baseline_f_test(rng.standard_normal(n), x, hyp, alpha=0.2).reject
            for _ in range(400))
        assert abs(rejects / 400 - 0.2) < 0.07

    def test_lrt_gaussian_is_rss_difference(self, rng):
        n, p = 30, 4
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        res = baseline_lrt(y, x, "gaussian")
        x1 = np.hstack([np.ones((n, 1)), x])
        rss_full = np.sum((y - x1 @ np.linalg.lstsq(x1, y, rcond=None)[0]) ** 2)
        rss_null = np.sum((y - np.mean(y)) ** 2)
        assert res.observed.value == pytest.approx(rss_null - rss_full, rel=1e-8)

    def test_irls_recovers_poisson_coefficients(self, rng):
        n = 4000
        x1 = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        truth = np.array([0.5, 0.3, -0.2])
        y = rng.poisson(np.exp(x1 @ truth)).astype(float)
        beta, dev = simulate._irls_batch(x1, y[:, None], glm_family("poisson"))
        np.testing.assert_allclose(beta[:, 0], truth, atol=0.1)
        assert dev[0] >= 0.0

    def test_irls_on_responses_near_the_float_range_raises(self, rng, monkeypatch):
        x1 = np.hstack([np.ones((40, 1)), rng.standard_normal((40, 3))])
        y = rng.standard_normal(40)
        with pytest.raises(OverflowGuard):
            baseline_lrt(1e200 * y, x1[:, 1:], "gaussian")
        # at ordinary scales the guard changes no bit of the statistic
        cases = [(glm_family(family), resp[:, None]) for family, resp in (
            ("gaussian", 1e150 * y), ("gaussian", y), ("poisson", np.floor(np.exp(y))),
            ("bernoulli", 1.0 * (y > 0)))]
        guarded = [simulate._lrt_statistics(resp, x1, fam) for fam, resp in cases]
        monkeypatch.setattr(simulate, "_overflow_guard", contextlib.nullcontext)
        for (fam, resp), got in zip(cases, guarded):
            assert got.tobytes() == simulate._lrt_statistics(resp, x1, fam).tobytes()

    def test_irls_recovers_bernoulli_coefficients(self, rng):
        n = 8000
        x1 = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        truth = np.array([-1.0, 0.8, 0.0])
        prob = 1.0 / (1.0 + np.exp(-(x1 @ truth)))
        y = rng.binomial(1, prob).astype(float)
        beta, _ = simulate._irls_batch(x1, y[:, None], glm_family("bernoulli"))
        np.testing.assert_allclose(beta[:, 0], truth, atol=0.12)

    def test_lrt_null_level_poisson(self, rng):
        n, p = 60, 3
        x = rng.standard_normal((n, p))
        rejects = 0
        for _ in range(300):
            y = rng.poisson(np.exp(0.3), size=n).astype(float)
            rejects += baseline_lrt(y, x, "poisson", alpha=0.1).reject
        assert abs(rejects / 300 - 0.1) < 0.07


# The per-replicate IRLS the column-batched fit replaced: one lstsq per
# iteration and a scalar deviance. Kept verbatim as the reference.
_ETA_CLIP = 30.0


def _deviance(y, mu, tag):
    if tag == "gaussian":  # sigma = 1 known: deviance reduces to RSS
        return float(np.sum((y - mu) ** 2))
    if tag == "bernoulli":
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(y > 0, y * np.log(y / mu), 0.0)
            t2 = np.where(y < 1, (1 - y) * np.log((1 - y) / (1 - mu)), 0.0)
        return float(2.0 * np.sum(t1 + t2))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(y > 0, y * np.log(y / mu), 0.0)
    return float(2.0 * np.sum(t - (y - mu)))


def _reference_irls(x, y, family, tol=1e-8, max_iter=100):
    """Canonical-link GLM fit by iteratively reweighted least squares.

    Returns (coefficients, deviance). Desk-scale only (P < N full rank).
    """
    if isinstance(family, str):
        family = glm_family(family)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    if p >= n:
        raise NotApplicable("IRLS baseline requires P < N")
    if family.tag == "gaussian":
        beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        if rank < p:
            raise RankDeficient("design is rank deficient")
        mu = x @ beta
        return beta, _deviance(y, mu, "gaussian")
    beta = np.zeros(p)
    ybar = float(np.mean(y))
    # start from the intercept-only fit when an intercept column is present
    ones = np.where(np.all(x == 1.0, axis=0))[0]
    mustart = min(max(ybar, 1e-8), 1 - 1e-8) if family.tag == "bernoulli" \
        else max(ybar, 1e-8)
    if ones.size:
        beta[ones[0]] = float(family.canonical_link(mustart))
    dev = np.inf
    for _ in range(max_iter):
        eta = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
        mu = family.canonical_inverse_link(eta)
        w = np.asarray(family.variance(mu), dtype=float)  # canonical: dmu/deta = V(mu)
        w = np.maximum(w, 1e-10)
        z = eta + (y - mu) / w
        sw = np.sqrt(w)
        beta, _, _, _ = np.linalg.lstsq(x * sw[:, None], z * sw, rcond=None)
        new_dev = _deviance(y, family.canonical_inverse_link(
            np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)), family.tag)
        if abs(dev - new_dev) <= tol * (abs(new_dev) + 0.1):
            dev = new_dev
            break
        dev = new_dev
    return beta, dev


def _reference_lrt_statistic(y, x1, family):
    """Deviance drop from the intercept-only fit to the full fit on x1 (an
    intercept column followed by the tested columns)."""
    _, dev_full = _reference_irls(x1, y, family)
    ybar = float(np.mean(y))
    if family.tag == "bernoulli":
        mu0 = min(max(ybar, 1e-12), 1 - 1e-12)
    elif family.tag == "poisson":
        mu0 = max(ybar, 1e-12)
    else:
        mu0 = ybar
    dev_null = _deviance(y, np.full(y.shape[0], mu0), family.tag)
    return max(dev_null - dev_full, 0.0)


def _lrt_cell(family, beta0, s, theta, seed, width, n=100, p=4):
    """An intercept design and `width` responses drawn under (s, theta).

    At N = 100 and P = 5 the IRLS fits 262 columns per block, so a width of
    300 spans two blocks.
    """
    rng = np.random.default_rng(seed)
    x = gen_design(n, p, DesignSpec(), rng)
    y = np.column_stack([
        gen_response(x, beta0, gen_beta(AlternativeSpec(s, theta), p, rng), family, rng)
        for _ in range(width)])
    return np.hstack([np.ones((n, 1)), x.values]), y


class TestBatchedIrls:
    @pytest.mark.parametrize("family,beta0,s,theta", [
        ("gaussian", -2.0, 1, 0.4),
        ("bernoulli", 0.0, 2, 0.4),
        ("poisson", 0.5, 2, 0.3),
        ("bernoulli", 0.0, 4, 3.0),  # about a tenth of the columns are separated
        ("bernoulli", -3.0, 1, 0.4),  # rare events
    ], ids=["gaussian", "bernoulli", "poisson", "separated", "rare_events"])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), width=st.sampled_from([1, 2, 300]))
    @example(seed=0, width=1)
    @example(seed=1, width=2)
    @example(seed=2, width=300)
    def test_lrt_statistics_equal_per_column_reference(self, family, beta0, s, theta,
                                                       seed, width):
        x1, y = _lrt_cell(family, beta0, s, theta, seed, width)
        fam = glm_family(family)
        stats = simulate._lrt_statistics(y, x1, fam)
        reference = np.array([_reference_lrt_statistic(y[:, m], x1, fam)
                              for m in range(width)])
        np.testing.assert_allclose(stats, reference, rtol=1e-8, atol=0.0)
        p = x1.shape[1] - 1
        assert (sp_stats.chi2.sf(stats, p) <= 0.05).tolist() == \
            (sp_stats.chi2.sf(reference, p) <= 0.05).tolist()
        # a settled column is frozen: one more iteration moves a separated
        # fit's coefficients far more than the deviance rule notices
        beta, _ = simulate._irls_batch(x1, y, fam)
        for m in range(width):
            ref_beta, _ = _reference_irls(x1, y[:, m], fam)
            assert np.max(np.abs(beta[:, m] - ref_beta)) <= 1e-8 * np.max(np.abs(ref_beta))

    @pytest.mark.parametrize("family,beta0", [("bernoulli", 0.0), ("poisson", 0.5)])
    def test_column_active_at_max_iter_returns_last_deviance(self, family, beta0,
                                                               monkeypatch):
        x1, y = _lrt_cell(family, beta0, 2, 1.0, 3, 5)
        fam = glm_family(family)
        converged = simulate._irls_batch(x1, y, fam)[1]
        monkeypatch.setattr(simulate, "_IRLS_MAX_ITER", 2)
        beta, dev = simulate._irls_batch(x1, y, fam)
        for m in range(y.shape[1]):
            ref_beta, ref_dev = _reference_irls(x1, y[:, m], fam, max_iter=2)
            np.testing.assert_allclose(beta[:, m], ref_beta, rtol=1e-8, atol=1e-12)
            assert dev[m] == pytest.approx(ref_dev, rel=1e-10)
            # the deviance of the last update, not of the one before it
            mu = fam.canonical_inverse_link(np.clip(x1 @ beta[:, m], -30.0, 30.0))
            assert dev[m] == pytest.approx(_deviance(y[:, m], mu, family), rel=1e-12)
            one = simulate._irls_batch(x1, y[:, m:m + 1], fam)[1][0]
            assert one == pytest.approx(ref_dev, rel=1e-10)
        # every column was still active: the converged fits reach lower deviances
        assert np.all(dev > converged + 1e-6)

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson"])
    def test_rank_deficient_design_raises_for_every_family(self, family):
        x1, y = _lrt_cell(family, 0.0, 1, 0.5, 4, 1)
        dup = np.hstack([x1, x1[:, 1:2]])
        with pytest.raises(RankDeficient, match="design is rank deficient"):
            baseline_lrt(y[:, 0], dup[:, 1:], family)

    @pytest.mark.parametrize("bad", [0.5, 2.0, -1.0, np.nan])
    def test_bernoulli_response_outside_0_1_raises(self, bad):
        x1, y = _lrt_cell("bernoulli", 0.0, 1, 0.5, 5, 1)
        y = y[:, 0].copy()
        y[3] = bad
        with pytest.raises(DomainError, match="bernoulli responses must be 0 or 1"):
            baseline_lrt(y, x1[:, 1:], "bernoulli")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 9),
           per_column=st.booleans())
    def test_bernoulli_deviance_equals_two_term_formula(self, seed, n, m, per_column):
        # one log per entry gives the bits of y log(y/mu) + (1-y) log((1-y)/(1-mu))
        rng = np.random.default_rng(seed)
        y = (rng.random((n, m)) < 0.4).astype(float)
        eta = rng.uniform(-30.0, 30.0, m if per_column else (n, m))
        mu = glm_family("bernoulli").canonical_inverse_link(eta)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(y > 0, y * np.log(y / mu), 0.0)
            t2 = np.where(y < 1, (1 - y) * np.log((1 - y) / (1 - mu)), 0.0)
        two_term = 2.0 * np.sum(t1 + t2, axis=0)
        assert simulate._deviance(y, mu, "bernoulli").tobytes() == two_term.tobytes()


class TestOneResponseRule:
    """The GLM score test and the LRT baseline, the one entry to the IRLS
    fit, judge a response by one rule, so they refuse it with one exception
    type."""

    @pytest.mark.parametrize("family, bad, error", [
        ("bernoulli", 0.5, DomainError),
        ("bernoulli", 2.0, DomainError),
        ("bernoulli", -1.0, DomainError),
        ("poisson", -1.0, DomainError),
        ("poisson", 0.5, DomainError),
        ("poisson", np.nan, DimensionMismatch),
        ("gaussian", np.nan, DimensionMismatch),
        ("bernoulli", "short", DimensionMismatch),
        ("poisson", "short", DimensionMismatch),
        ("gaussian", "short", DimensionMismatch),
    ])
    def test_every_path_raises_the_same_error(self, family, bad, error):
        x1, y = _lrt_cell(family, 0.0, 1, 0.5, 7, 1)
        good = y[:, 0]
        y = good[:-1] if bad == "short" else np.where(np.arange(good.size) == 3, bad, good)
        x = DesignMatrix(x1, intercept_column=0)
        spec = StatisticSpec("glm_score_sup", glm_family=family)
        calls = [
            lambda y: run_test(y, x, SubsetHypothesis(1, np.zeros(x.p - 1)), spec,
                               mc=McConfig(m_draws=99),
                               cache=inference.CalibrationCache(directory=False)),
            lambda y: baseline_lrt(y, x1[:, 1:], family),
        ]
        for call in calls:
            call(good)  # the response as drawn is valid on every path
            with pytest.raises(error):
                call(y)


class TestGlmDesignRule:
    """The LRT baseline, the one entry to the IRLS fit, takes x as a finite
    2-d array of at least one column, and refuses any other x with
    DimensionMismatch."""

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli", "poisson"])
    @pytest.mark.parametrize("bad", ["no_columns", "1d", "3d", "nan"])
    def test_bad_x_raises_dimension_mismatch(self, family, bad):
        x1, y = _lrt_cell(family, 0.0, 1, 0.5, 9, 1, n=40)
        y = y[:, 0]
        x = {"no_columns": x1[:, :0], "1d": x1[:, 1], "3d": x1[:, :, None],
             "nan": np.where(np.arange(40)[:, None] == 3, np.nan, x1)}[bad]
        baseline_lrt(y, x1[:, 1:], family)  # the drawn design is valid
        with pytest.raises(DimensionMismatch):
            baseline_lrt(y, x, family)

    def test_design_of_only_an_intercept_leaves_no_tested_column(self):
        x1, y = _lrt_cell("poisson", 0.0, 1, 0.5, 9, 1, n=40)
        with pytest.raises(DimensionMismatch, match="at least one column"):
            baseline_lrt(y[:, 0], DesignMatrix(x1[:, :1], intercept_column=0), "poisson")


_X53 = np.arange(15.0).reshape(5, 3) / 7.0


@pytest.mark.parametrize("call, error, message", [
    (lambda rng: gen_response(_X53, 0.0, np.ones(2), "gaussian", rng), DimensionMismatch,
     "beta has length 2, x has 3 columns"),
    (lambda rng: gen_response(np.where(_X53 == _X53[2, 1], np.nan, _X53), 0.0, np.ones(3),
                              "gaussian", rng), DimensionMismatch, "non-finite"),
    (lambda rng: gen_response(_X53[:, 0], 0.0, np.ones(1), "gaussian", rng), DimensionMismatch,
     "must be 2-d"),
    (lambda rng: gen_response(_X53, np.nan, np.ones(3), "bernoulli", rng), InvalidSpec,
     "beta0 must be a finite number"),
    (lambda rng: AlternativeSpec(1.5, 0.3), InvalidSpec, "s must be a non-negative integer"),
    (lambda rng: AlternativeSpec(True, 0.3), InvalidSpec, "s must be a non-negative integer"),
    (lambda rng: AlternativeSpec(1, "0.3"), InvalidSpec, "finite theta"),
    (lambda rng: gen_beta(AlternativeSpec(1, 0.3), 2.5, rng), InvalidSpec,
     "p must be a non-negative integer"),
    (lambda rng: gen_beta((1, 0.3), 3, rng), InvalidSpec, "alt must be an AlternativeSpec"),
    (lambda rng: gen_design(10.5, 3, DesignSpec(), rng), InvalidSpec,
     "n must be a non-negative integer"),
    (lambda rng: gen_design(10, 3, None, rng), InvalidSpec, "design_spec must be a DesignSpec"),
    (lambda rng: gen_design(0, 3, DesignSpec(), rng), InvalidSpec, "need n, p >= 1"),
    (lambda rng: ExperimentConfig(n=20, p=3, alpha="0.05"), InvalidSpec,
     "alpha must be a number"),
    (lambda rng: ExperimentConfig(n=20, p=3, beta0="1"), InvalidSpec,
     "beta0 must be a finite number"),
    (lambda rng: ExperimentConfig(n=20, p=3, theta_grid=("0.1",)), InvalidSpec,
     "finite theta"),
    (lambda rng: ExperimentConfig(n=20, p=3, design_spec=None), InvalidSpec,
     "design_spec must be a DesignSpec"),
    (lambda rng: ExperimentConfig(n=20, p=3, s_values=(4,)), InvalidSpec,
     r"s = 4 outside \[0, 3\]"),
    (lambda rng: ExperimentConfig(n=20, p=3, statistics=("bogus",)), InvalidSpec,
     "unknown statistic tag 'bogus'"),
    (lambda rng: ExperimentConfig(n=20, p=3, statistics=(StatisticSpec("fisher_weighted"),)),
     InvalidSpec, 'use the "fisher" tag for fisher_weighted'),
    (lambda rng: ExperimentConfig(n=20, p=3, statistics=5), InvalidSpec,
     "statistics must be a sequence, got 5"),
    (lambda rng: ExperimentConfig(n=20, p=3, theta_grid=0.5), InvalidSpec,
     "theta_grid must be a sequence, got 0.5"),
    (lambda rng: ExperimentConfig(n=20, p=3, s_values=1), InvalidSpec,
     "s_values must be a sequence, got 1"),
    (lambda rng: baseline_lrt(np.array([0.0, 1.0, 2.0]), _X53[:3, :2], "poisson"), NotApplicable,
     "the IRLS fit needs P < N"),
], ids=["response_beta_length", "response_nan_x", "response_1d_x", "response_nan_beta0",
        "alternative_fractional_s", "alternative_bool_s", "alternative_string_theta",
        "beta_fractional_p", "beta_not_a_spec", "design_fractional_n", "design_no_spec",
        "design_no_rows", "config_string_alpha", "config_string_beta0",
        "config_string_theta", "config_no_design_spec", "config_s_beyond_p",
        "config_unknown_tag", "config_fisher_weighted", "config_scalar_statistics", "config_scalar_theta_grid",
        "config_scalar_s_values", "irls_p_not_below_n"])
def test_each_refusal_is_typed(call, error, message):
    with pytest.raises(error, match=message):
        call(np.random.default_rng(0))


def test_response_on_a_design_matrix_draws_on_its_tested_columns():
    x = DesignMatrix(np.column_stack([np.ones(5), _X53]), intercept_column=0)
    got = gen_response(x, 0.5, np.ones(3), "poisson", np.random.default_rng(1))
    want = gen_response(_X53, 0.5, np.ones(3), "poisson", np.random.default_rng(1))
    assert got.tobytes() == want.tobytes()
