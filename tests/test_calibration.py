"""Monte-Carlo calibration: order statistics, p-values, reproducibility."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from threshtest import (
    CalibrationResult,
    DesignMatrix,
    LinearHypothesis,
    SubsetHypothesis,
    build_reduction,
    calibrate,
    calibrate_composite,
    gaussian_pivotal_null,
    glm_plugin_null,
    glm_family,
    p_value,
    simulate_null,
    substream,
)
from threshtest import calibration
from threshtest.calibration import (
    _StateWords,
    _simulate_batch,
    _substreams,
    calibrate_many,
    order_stat_index,
)
from threshtest.simulate import _theta_key
from threshtest.statistics import StatisticSpec
from threshtest.exceptions import (
    DimensionMismatch,
    DomainError,
    InsufficientDraws,
    StatisticMismatch,
)


@pytest.fixture
def gaussian_model():
    rng = np.random.default_rng(42)
    n = 12
    x = DesignMatrix(np.hstack([np.ones((n, 1)), rng.standard_normal((n, 3))]),
                     intercept_column=0)
    hyp = SubsetHypothesis(1, np.zeros(3)).expand(4)
    red = build_reduction(x, hyp)
    return x, hyp, red, gaussian_pivotal_null(x, hyp, red)


class TestOrderStatIndex:
    def test_reference_arithmetic(self):
        # M = 99, alpha = 0.05: k = ceil(100 * 0.95) = 95
        assert order_stat_index(99, 0.05) == 95

    def test_boundary_single_draw(self):
        assert order_stat_index(1, 0.5) == 1

    def test_insufficient_draws(self):
        with pytest.raises(InsufficientDraws):
            order_stat_index(18, 0.05)  # needs >= 19

    def test_alpha_range_guard(self):
        with pytest.raises(InsufficientDraws):
            order_stat_index(100, 0.0)

    def test_frozen_draws_give_95(self):
        cal = CalibrationResult(
            sorted_null_stats=np.arange(1.0, 100.0),
            lambda_alpha=95.0, alpha=0.05, m_draws=99, seed=0, statistic_id="t")
        k = order_stat_index(cal.m_draws, cal.alpha)
        assert cal.sorted_null_stats[k - 1] == 95.0


class TestPValue:
    def _cal(self):
        return CalibrationResult(
            sorted_null_stats=np.arange(1.0, 100.0),
            lambda_alpha=95.0, alpha=0.05, m_draws=99, seed=0, statistic_id="t")

    def test_observed_above_all(self):
        assert p_value(1000.0, self._cal()) == pytest.approx(1.0 / 100.0)

    def test_observed_zero(self):
        assert p_value(0.0, self._cal()) == pytest.approx(1.0)

    def test_counting_between_order_stats(self):
        # between the 95th and 96th order statistics: 4 draws >= observed
        assert p_value(95.5, self._cal()) == pytest.approx(5.0 / 100.0)

    def test_tie_counts_as_exceedance(self):
        assert p_value(95.0, self._cal()) == pytest.approx(6.0 / 100.0)

    def test_duality_with_threshold(self):
        cal = self._cal()
        for obs in (10.0, 94.5, 95.5, 99.5):
            assert (p_value(obs, cal) <= cal.alpha) == (obs > cal.lambda_alpha)

    def test_statistic_mismatch(self):
        with pytest.raises(StatisticMismatch):
            p_value(1.0, self._cal(), statistic_id="other")


class TestSimulateNull:
    def test_gaussian_pivotal_zero_c(self, gaussian_model):
        x, hyp, red, model = gaussian_model
        y0 = simulate_null(model, substream(0, 0, 0))
        # beta_c = 0 here, so the draw is pure noise of the right shape
        assert y0.shape == (x.n,)
        np.testing.assert_array_equal(red.x_fit_c, 0.0)

    def test_bernoulli_fair_coin(self):
        x = DesignMatrix(np.ones((10, 2)))
        model = glm_plugin_null(x, glm_family("bernoulli"),
                                np.array([1.0, 0.0] * 5))
        draws = np.concatenate([
            simulate_null(model, substream(1, 0, m)) for m in range(200)])
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert abs(np.mean(draws) - 0.5) < 0.05

    def test_poisson_mean(self):
        x = DesignMatrix(np.ones((100, 2)))
        y_obs = np.full(100, 3.0)
        model = glm_plugin_null(x, glm_family("poisson"), y_obs)
        rng = substream(3, 0, 0)
        draws = np.concatenate([simulate_null(model, substream(3, 0, m))
                                for m in range(1000)])
        assert np.mean(draws) == pytest.approx(3.0, abs=0.02)

    @pytest.mark.parametrize("tag, bad, error", [
        ("gaussian", np.nan, DimensionMismatch),
        ("bernoulli", 0.5, DomainError),
        ("poisson", 2.5, DomainError),
    ])
    def test_plugin_null_rejects_response_outside_support(self, tag, bad, error):
        y = np.ones(10)
        y[0] = bad
        with pytest.raises(error):
            glm_plugin_null(DesignMatrix(np.ones((10, 2))), glm_family(tag), y)

    def test_bernoulli_all_ones_clipped(self):
        x = DesignMatrix(np.ones((10, 2)))
        model = glm_plugin_null(x, glm_family("bernoulli"), np.ones(10))
        assert model.null_mean == pytest.approx(1.0 - 1.0 / 20.0)


class TestCalibrate:
    def test_reproducible(self, gaussian_model):
        x, hyp, red, model = gaussian_model
        spec = StatisticSpec("sqrt_affine_lasso")
        c1 = calibrate(spec, model, 100, 0.05, seed=5)
        c2 = calibrate(spec, model, 100, 0.05, seed=5)
        np.testing.assert_array_equal(c1.sorted_null_stats, c2.sorted_null_stats)
        assert c1.lambda_alpha == c2.lambda_alpha

    def test_sorted_and_sized(self, gaussian_model):
        *_, model = gaussian_model
        cal = calibrate(StatisticSpec("sqrt_affine_lasso"), model, 60, 0.05, seed=1)
        assert cal.sorted_null_stats.shape == (60,)
        assert np.all(np.diff(cal.sorted_null_stats) >= 0)
        k = order_stat_index(60, 0.05)
        assert cal.lambda_alpha == cal.sorted_null_stats[k - 1]

    def test_shared_batch_consistency(self, gaussian_model):
        *_, model = gaussian_model
        specs = [StatisticSpec("sqrt_affine_lasso"),
                 StatisticSpec("affine_lasso")]
        many = calibrate_many(specs, model, 80, 0.05, seed=2)
        solo = calibrate(specs[0], model, 80, 0.05, seed=2)
        np.testing.assert_array_equal(many[0].sorted_null_stats,
                                      solo.sorted_null_stats)

    def test_insufficient_draws(self, gaussian_model):
        *_, model = gaussian_model
        with pytest.raises(InsufficientDraws):
            calibrate(StatisticSpec("sqrt_affine_lasso"), model, 10, 0.05, seed=0)

    def test_sqrt_pivotality_across_c_shift(self):
        # two null models with different c (hence different beta_c shifts):
        # square-root statistic draws are identical given the same seed
        rng = np.random.default_rng(11)
        x = DesignMatrix(rng.standard_normal((10, 4)))
        a = rng.standard_normal((2, 4))
        spec = StatisticSpec("sqrt_affine_lasso")
        cals = []
        for c in (np.zeros(2), np.array([3.0, -1.0])):
            hyp = LinearHypothesis(a, c)
            red = build_reduction(x, hyp)
            model = gaussian_pivotal_null(x, hyp, red)
            cals.append(calibrate(spec, model, 150, 0.05, seed=9))
        np.testing.assert_allclose(cals[0].sorted_null_stats,
                                   cals[1].sorted_null_stats, rtol=1e-10)


class TestComposite:
    def test_equal_components_match_single(self, gaussian_model):
        *_, model = gaussian_model
        spec = StatisticSpec("sqrt_affine_lasso")
        comp = calibrate_composite(spec, spec, model, 100, 0.05, seed=3)
        np.testing.assert_array_equal(comp.cal_1.sorted_null_stats,
                                      comp.cal_2.sorted_null_stats)
        # composite draws are the batch-2 single statistic / lambda_alpha
        assert comp.kappa_alpha > 0

    def test_kappa_is_order_statistic(self, gaussian_model):
        *_, model = gaussian_model
        comp = calibrate_composite(
            StatisticSpec("sqrt_affine_lasso"),
            StatisticSpec("sqrt_affine_group_lasso", row_partition=[(0, 1, 2)]),
            model, 99, 0.05, seed=4)
        k = order_stat_index(99, 0.05)
        assert comp.kappa_alpha == comp.sorted_composite_stats[k - 1]

    def test_infinite_component_thresholds_give_no_nan(self):
        # one 1 in six bernoulli responses: about a third of the plug-in null
        # draws are all zeros, so both component thresholds are +inf
        x = DesignMatrix(np.random.default_rng(0).standard_normal((6, 2)))
        y = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        model = glm_plugin_null(x, glm_family("bernoulli"), y)
        comp = calibrate_composite(*calibration._composite_pair(2, "bernoulli"),
                                   model, 199, 0.05, seed=0)
        assert comp.cal_1.lambda_alpha == comp.cal_2.lambda_alpha == np.inf
        draws = comp.sorted_composite_stats
        assert not np.any(np.isnan(draws))
        # a finite draw over an infinite threshold is 0, a degenerate one +inf
        assert set(np.unique(draws)) == {0.0, np.inf}
        assert comp.kappa_alpha == draws[order_stat_index(199, 0.05) - 1] == np.inf


class TestSaveLoad:
    def test_roundtrip(self, gaussian_model, tmp_path):
        *_, model = gaussian_model
        cal = calibrate(StatisticSpec("sqrt_affine_lasso"), model, 50, 0.1, seed=8)
        path = tmp_path / "cal.txt"
        cal.save(path)
        loaded = CalibrationResult.load(path)
        np.testing.assert_array_equal(loaded.sorted_null_stats, cal.sorted_null_stats)
        assert loaded.lambda_alpha == cal.lambda_alpha
        assert loaded.alpha == cal.alpha
        assert loaded.m_draws == cal.m_draws
        assert loaded.seed == cal.seed
        assert loaded.statistic_id == cal.statistic_id


    @settings(max_examples=80, deadline=None)
    @given(
        draws=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=40),
        n_inf=st.integers(0, 3),
        alpha=st.floats(1e-3, 0.999),
        seed=st.integers(0, 2**64),
        statistic_id=st.one_of(
            st.sampled_from(["sqrt_affine_lasso",
                             "glm_score_group|groups=0,1;2|family=bernoulli"]),
            st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
                    max_size=30)),
    )
    def test_roundtrip_is_identity(self, tmp_path_factory, draws, n_inf, alpha, seed,
                                   statistic_id):
        # degenerate null draws are stored as +inf and sort last
        stats = np.array(sorted(draws) + [np.inf] * n_inf)
        cal = CalibrationResult(sorted_null_stats=stats, lambda_alpha=float(stats[-1]),
                                alpha=alpha, m_draws=stats.size, seed=seed,
                                statistic_id=statistic_id)
        path = tmp_path_factory.mktemp("cal") / "cal.txt"
        cal.save(path)
        loaded = CalibrationResult.load(path)
        assert loaded.sorted_null_stats.tobytes() == cal.sorted_null_stats.tobytes()
        for name in ("lambda_alpha", "alpha", "m_draws", "seed", "statistic_id"):
            got, want = getattr(loaded, name), getattr(cal, name)
            assert type(got) is type(want) and got == want, name
        assert np.float64(loaded.lambda_alpha).tobytes() == np.float64(cal.lambda_alpha).tobytes()


def _write_line_by_line(cal, path):
    """The cache-file writer that one bulk write replaced: one write per line."""
    with open(path, "x", newline="\n") as fh:
        fh.write(f"# statistic_id={cal.statistic_id}\n")
        fh.write(f"# m_draws={cal.m_draws}\n")
        fh.write(f"# alpha={cal.alpha!r}\n")
        fh.write(f"# seed={cal.seed}\n")
        fh.write(f"# lambda_alpha={float(cal.lambda_alpha)!r}\n")
        for v in cal.sorted_null_stats:
            fh.write(f"{float(v)!r}\n")


def _parse_line_by_line(path):
    """The cache-file parser that one bulk conversion replaced: float() per
    line, blank lines skipped, a ``#`` line anywhere read as a header."""
    meta, draws = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key] = val
            else:
                draws.append(float(line))
    return meta, np.asarray(draws)


# finite floats of every magnitude (subnormals included), values that need
# all 17 significant digits, and the +inf a degenerate draw is stored as
_draw_values = st.one_of(
    st.floats(allow_nan=False),
    st.floats(min_value=-1e-307, max_value=1e-307, allow_nan=False),
    st.integers(1, 2**52 - 1).map(lambda k: 1.0 + k * 2.0**-52),
    st.sampled_from([np.inf, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3,
                     1.7976931348623157e308, -0.0]),
)


class TestBulkFileIo:
    """One write and one numpy conversion per cache file, with the bytes and
    values of the line-by-line code they replaced."""

    @staticmethod
    def _cal(draws, alpha=0.05, seed=3, statistic_id="sqrt_affine_lasso"):
        stats = np.sort(np.array(draws, dtype=float))
        return CalibrationResult(sorted_null_stats=stats, lambda_alpha=float(stats[-1]),
                                 alpha=alpha, m_draws=stats.size, seed=seed,
                                 statistic_id=statistic_id)

    @settings(max_examples=60, deadline=None)
    @given(draws=st.lists(_draw_values, min_size=1, max_size=60),
           alpha=st.floats(1e-3, 0.999), seed=st.integers(0, 2**64))
    def test_save_bytes_equal_line_by_line_writer(self, tmp_path_factory, draws, alpha,
                                                  seed):
        cal = self._cal(draws, alpha, seed)
        tmp = tmp_path_factory.mktemp("cal")
        cal.save(tmp / "bulk.txt")
        _write_line_by_line(cal, tmp / "lines.txt")
        assert (tmp / "bulk.txt").read_bytes() == (tmp / "lines.txt").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(draws=st.lists(_draw_values, min_size=1, max_size=60))
    def test_load_equals_line_by_line_parser(self, tmp_path_factory, draws):
        path = tmp_path_factory.mktemp("cal") / "cal.txt"
        _write_line_by_line(self._cal(draws), path)
        meta, want = _parse_line_by_line(path)
        got = CalibrationResult.load(path)
        assert got.sorted_null_stats.dtype == want.dtype
        assert got.sorted_null_stats.tobytes() == want.tobytes()
        assert np.float64(got.lambda_alpha).tobytes() == \
            np.float64(float(meta["lambda_alpha"])).tobytes()
        assert (got.m_draws, got.seed, got.statistic_id) == \
            (int(meta["m_draws"]), int(meta["seed"]), meta["statistic_id"])

    def test_crlf_file_loads(self, tmp_path):
        cal = self._cal([0.5, 1.5, 2.5])
        path = tmp_path / "cal.txt"
        cal.save(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert CalibrationResult.load(path).sorted_null_stats.tobytes() == \
            cal.sorted_null_stats.tobytes()


def _reference_draw(model, rng):
    """One null draw, written out per model kind."""
    n = model.design.n
    if model.kind == "gaussian_pivotal":
        return model.reduced.x_fit_c + rng.standard_normal(n)
    if model.family.tag == "bernoulli":
        return rng.binomial(1, model.null_mean, size=n).astype(float)
    if model.family.tag == "poisson":
        return rng.poisson(model.null_mean, size=n).astype(float)
    return model.null_mean + rng.standard_normal(n)


class TestSimulateBatch:
    """The block-filled batch equals the per-key draws bit for bit."""

    @pytest.fixture(params=["gaussian_pivotal", "bernoulli", "poisson", "gaussian"])
    def model(self, request):
        rng = np.random.default_rng(5)
        n = 37
        x = DesignMatrix(np.hstack([np.ones((n, 1)), rng.standard_normal((n, 3))]),
                         intercept_column=0)
        if request.param == "gaussian_pivotal":
            # c != 0, so X beta_c is not zero
            hyp = SubsetHypothesis(1, np.array([0.5, -1.0, 2.0])).expand(4)
            return gaussian_pivotal_null(x, hyp, build_reduction(x, hyp))
        y = {"bernoulli": (rng.random(n) < 0.3).astype(float),
             "poisson": rng.poisson(1.7, n).astype(float),
             "gaussian": rng.standard_normal(n) + 3.0}[request.param]
        return glm_plugin_null(x, glm_family(request.param), y)

    @pytest.mark.parametrize("m_draws", [1, 63, 64, 65, 199])
    def test_equals_per_key_simulate_null(self, model, m_draws):
        got = _simulate_batch(model, 2**33 + 7, m_draws, 3)
        per_key = np.column_stack([simulate_null(model, substream(2**33 + 7, 3, m))
                                   for m in range(m_draws)])
        reference = np.column_stack([_reference_draw(model, substream(2**33 + 7, 3, m))
                                     for m in range(m_draws)])
        assert got.shape == (model.design.n, m_draws) and got.flags.c_contiguous
        assert got.tobytes() == per_key.tobytes() == reference.tobytes()

    def test_simulate_null_leaves_generator_as_reference_does(self, model):
        rng, ref = substream(4, 0, 9), substream(4, 0, 9)
        assert simulate_null(model, rng).tobytes() == _reference_draw(model, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSubstream:
    def test_worker_count_independence(self):
        # the draw for replicate m depends only on (seed, batch, m)
        a = substream(123, 0, 7).standard_normal(5)
        b = substream(123, 0, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)
        c = substream(123, 0, 8).standard_normal(5)
        assert not np.allclose(a, c)


def _per_key_substreams(seed, *prefix, count):
    """The per-replicate reference: one substream call per key."""
    return (substream(seed, *prefix, m) for m in range(count))


_SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**200),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=6),
)
# (batch,) as in calibration; (1, s, theta key) as in the power harness,
# where theta = 0 and subnormal thetas give one-word keys and the rest two
_PREFIXES = st.one_of(
    st.tuples(st.integers(0, 3)),
    st.tuples(st.just(1), st.integers(0, 50),
              st.one_of(st.just(0.0), st.just(5e-324),
                        st.floats(0.0, 1e6, allow_nan=False)).map(_theta_key)),
)


class TestSubstreams:
    """One vectorised seeding pass equals the per-key substream bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, prefix=_PREFIXES,
           count=st.one_of(st.just(0), st.just(1), st.integers(2, 400)))
    @example(seed=0, prefix=(0,), count=0)
    @example(seed=2**32 - 1, prefix=(1, 3, _theta_key(0.0)), count=1)
    @example(seed=2**32, prefix=(1, 0, _theta_key(2.5)), count=300)
    @example(seed=2**70 + 5, prefix=(1,), count=300)
    def test_draws_equal_per_key_substream(self, seed, prefix, count):
        got = list(_substreams(seed, *prefix, count=count))
        assert len(got) == count
        for m, rng in enumerate(got):
            ref = substream(seed, *prefix, m)
            assert rng.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(rng.standard_normal(3), ref.standard_normal(3))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_raises_as_seed_sequence_does(self, seed):
        with pytest.raises((ValueError, TypeError)) as per_key:
            substream(seed, 0, 0)
        with pytest.raises(per_key.type) as batched:
            _substreams(seed, 0, count=3)
        assert str(batched.value) == str(per_key.value)

    @pytest.mark.parametrize("n_words,dtype", [
        (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_shim_serves_only_four_uint64_words(self, n_words, dtype):
        words = np.arange(4, dtype=np.uint64)
        assert _StateWords(words).generate_state(4, np.uint64) is words
        with pytest.raises(ValueError):
            _StateWords(words).generate_state(n_words, dtype)

    def test_calibrations_equal_per_key_reference(self, gaussian_model, monkeypatch):
        x, hyp, red, model = gaussian_model
        specs = [StatisticSpec("sqrt_affine_lasso"), StatisticSpec("affine_lasso")]
        pair = (StatisticSpec("sqrt_affine_lasso"),
                StatisticSpec("sqrt_affine_group_lasso", row_partition=[(0, 1, 2)]))
        bern = glm_plugin_null(x, glm_family("bernoulli"),
                               (np.arange(x.n) % 3 == 0).astype(float))
        glm_spec = StatisticSpec("glm_score_sup", glm_family="bernoulli")

        def run():
            return (calibrate_many(specs, model, 199, 0.05, seed=2**40 + 3, batch=2),
                    calibrate_composite(*pair, model, 199, 0.05, seed=11),
                    calibrate(glm_spec, bern, 199, 0.05, seed=5))

        batched = run()
        monkeypatch.setattr(calibration, "_substreams", _per_key_substreams)
        reference = run()
        many, comp, glm = batched
        ref_many, ref_comp, ref_glm = reference
        for got, ref in zip(many + [comp.cal_1, comp.cal_2, glm],
                            ref_many + [ref_comp.cal_1, ref_comp.cal_2, ref_glm]):
            np.testing.assert_array_equal(got.sorted_null_stats, ref.sorted_null_stats)
            assert got.lambda_alpha == ref.lambda_alpha
        np.testing.assert_array_equal(comp.sorted_composite_stats,
                                      ref_comp.sorted_composite_stats)
        assert comp.kappa_alpha == ref_comp.kappa_alpha
