"""Closed-form statistic tests: exact identities, invariances, small oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshtest import (
    DesignMatrix,
    LinearHypothesis,
    SubsetHypothesis,
    build_evaluator,
    build_reduction,
    fisher_F,
    glm_score_stat,
    kernel_basis,
    link_identity_residual,
    residual,
    sign_test,
    zt_affine_group_lasso,
    zt_affine_lasso,
    zt_fisher_weighted,
    zt_lad,
    zt_sqrt_variant,
)
from threshtest.statistics import (
    AFFINE_FAMILIES,
    ALL_FAMILIES,
    GLM_FAMILIES,
    StatisticSpec,
    StatValue,
    evaluate_many,
)
from threshtest.exceptions import (
    DegenerateStatistic,
    DimensionMismatch,
    DomainError,
    NotApplicable,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _random_problem(rng, n=8, p=3, r=2):
    x = DesignMatrix(rng.standard_normal((n, p)))
    a = rng.standard_normal((r, p))
    c = rng.standard_normal(r)
    hyp = LinearHypothesis(a, c)
    return x, hyp, build_reduction(x, hyp)


class TestAffineLasso:
    def test_orthonormal_identity_hypothesis(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        x = DesignMatrix(q)
        hyp = LinearHypothesis(np.eye(4), np.zeros(4))
        red = build_reduction(x, hyp)
        y = rng.standard_normal(10)
        got = zt_affine_lasso(red, x, y)
        assert got.value == pytest.approx(np.max(np.abs(q.T @ y)), rel=1e-12)

    def test_unpenalized_intercept_sup_form(self, rng):
        n = 12
        x_cov = rng.standard_normal((n, 3))
        x = DesignMatrix(np.hstack([np.ones((n, 1)), x_cov]), intercept_column=0)
        hyp = SubsetHypothesis(1, np.zeros(3)).expand(4)
        red = build_reduction(x, hyp)
        y = rng.standard_normal(n)
        got = zt_affine_lasso(red, x, y)
        expected = np.max(np.abs(x_cov.T @ (y - np.mean(y))))
        assert got.value == pytest.approx(expected, rel=1e-12)

    def test_positive_homogeneity(self, rng):
        x, hyp, red = _random_problem(rng)
        e = rng.standard_normal(x.n)
        base = zt_affine_lasso(red, x, red.x_fit_c + e).value
        for t in (0.25, 3.0, 17.0):
            scaled = zt_affine_lasso(red, x, red.x_fit_c + t * e).value
            assert scaled == pytest.approx(t * base, rel=1e-12)

    def test_dense_matrix_evaluation(self, rng):
        x, hyp, red = _random_problem(rng, n=7, p=4, r=2)
        y = rng.standard_normal(7)
        a = hyp.a_matrix
        r_vec = residual(red, x, y)
        z = np.linalg.solve(a @ a.T, a @ (x.values.T @ r_vec))
        assert zt_affine_lasso(red, x, y).value == pytest.approx(
            np.max(np.abs(z)), rel=1e-10)


class TestAffineGroupLasso:
    def test_singletons_equal_sup_norm(self, rng):
        x, hyp, red = _random_problem(rng, n=9, p=4, r=3)
        y = rng.standard_normal(9)
        sup = zt_affine_lasso(red, x, y).value
        grp = zt_affine_group_lasso(red, x, y, partition=[(0,), (1,), (2,)]).value
        assert grp == pytest.approx(sup, rel=1e-12)

    def test_single_block_is_two_norm(self, rng):
        x, hyp, red = _random_problem(rng, n=9, p=4, r=3)
        y = rng.standard_normal(9)
        a = hyp.a_matrix
        z = np.linalg.solve(a @ a.T, a @ (x.values.T @ residual(red, x, y)))
        got = zt_affine_group_lasso(red, x, y, partition=[(0, 1, 2)]).value
        assert got == pytest.approx(np.linalg.norm(z), rel=1e-10)

    def test_two_blocks_dense_evaluation(self, rng):
        x, hyp, red = _random_problem(rng, n=9, p=4, r=3)
        y = rng.standard_normal(9)
        a = hyp.a_matrix
        z = np.linalg.solve(a @ a.T, a @ (x.values.T @ residual(red, x, y)))
        expected = max(np.linalg.norm(z[[0, 2]]), abs(z[1]))
        got = zt_affine_group_lasso(red, x, y, partition=[(0, 2), (1,)]).value
        assert got == pytest.approx(expected, rel=1e-10)


class TestSqrtVariant:
    def test_compositional(self, rng):
        x, hyp, red = _random_problem(rng)
        y = rng.standard_normal(x.n)
        r_vec = residual(red, x, y)
        expected = zt_affine_lasso(red, x, y).value / np.linalg.norm(r_vec)
        assert zt_sqrt_variant(red, x, y).value == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self, rng):
        x, hyp, red = _random_problem(rng)
        e = rng.standard_normal(x.n)
        base = zt_sqrt_variant(red, x, red.x_fit_c + e).value
        scaled = zt_sqrt_variant(red, x, red.x_fit_c + 10.0 * e).value
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_exact_null_fit_is_degenerate(self, rng):
        x = DesignMatrix(rng.standard_normal((6, 3)))
        hyp = LinearHypothesis(np.eye(3), rng.standard_normal(3))
        red = build_reduction(x, hyp)
        got = zt_sqrt_variant(red, x, red.x_fit_c)
        assert got.degenerate

    def test_pivotal_invariance(self, rng):
        # shifting by X gamma with A gamma = 0 and rescaling the noise
        # leaves the square-root statistic unchanged
        x, hyp, red = _random_problem(rng, n=10, p=4, r=2)
        k = kernel_basis(hyp.a_matrix)
        e = rng.standard_normal(10)
        base = zt_sqrt_variant(red, x, red.x_fit_c + e).value
        for sigma in (0.1, 1.0, 10.0):
            gamma = k @ rng.standard_normal(k.shape[1])
            y = red.x_fit_c + x.values @ gamma + sigma * e
            assert zt_sqrt_variant(red, x, y).value == pytest.approx(
                base, rel=1e-10)


class TestFisherWeighted:
    def test_zero_at_constrained_optimum(self, rng):
        n, p = 15, 4
        x = DesignMatrix(rng.standard_normal((n, p)))
        a = rng.standard_normal((2, p))
        beta = rng.standard_normal(p)
        hyp = LinearHypothesis(a, a @ beta)
        y = x.values @ beta
        assert zt_fisher_weighted(x, hyp, y).value == pytest.approx(0.0, abs=1e-8)

    def test_orthonormal_full_hypothesis(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        x = DesignMatrix(q)
        hyp = LinearHypothesis(np.eye(4), np.zeros(4))
        y = rng.standard_normal(12)
        lam0 = zt_fisher_weighted(x, hyp, y).value
        assert lam0**2 == pytest.approx(np.sum((q.T @ y) ** 2), rel=1e-10)

    def test_matches_two_fit_oracle(self, rng):
        for _ in range(10):
            n, p, r = 20, 4, 2
            x_vals = rng.standard_normal((n, p))
            a = rng.standard_normal((r, p))
            c = rng.standard_normal(r)
            y = rng.standard_normal(n)
            hyp = LinearHypothesis(a, c)
            x = DesignMatrix(x_vals)
            # two independent dense least-squares fits
            beta_hat = np.linalg.lstsq(x_vals, y, rcond=None)[0]
            rss = np.sum((y - x_vals @ beta_hat) ** 2)
            red = build_reduction(x, hyp)
            shifted = y - red.x_fit_c
            fit0 = red.x_fit_c + red.project(shifted)
            rss0 = np.sum((y - fit0) ** 2)
            f_direct = ((rss0 - rss) / r) / (rss / (n - p))
            f_got, df1, df2 = fisher_F(x, hyp, y)
            assert (df1, df2) == (r, n - p)
            assert f_got == pytest.approx(f_direct, rel=1e-8)
            lam0 = zt_fisher_weighted(x, hyp, y).value
            assert lam0**2 == pytest.approx(rss0 - rss, rel=1e-8)

    def test_evaluator_flags_response_in_span(self):
        # y in the column span of X: the studentizing RSS is rounding noise
        rng = np.random.default_rng(0)
        x = DesignMatrix(rng.standard_normal((30, 5)))
        hyp = SubsetHypothesis(2, np.zeros(3)).expand(5)
        ev = build_evaluator(StatisticSpec("fisher_weighted"), x, hyp=hyp)
        y = x.values[:, :2] @ rng.standard_normal(2)
        assert ev.evaluate(y).degenerate
        assert not ev.evaluate(y + 1e-6 * rng.standard_normal(30)).degenerate

    def test_fisher_F_raises_for_response_in_span(self):
        rng = np.random.default_rng(0)
        x = DesignMatrix(rng.standard_normal((30, 5)))
        hyp = SubsetHypothesis(2, np.zeros(3)).expand(5)
        y = x.values[:, :2] @ rng.standard_normal(2)
        with pytest.raises(DegenerateStatistic):
            fisher_F(x, hyp, y)
        f, df1, df2 = fisher_F(x, hyp, y + 1e-6 * rng.standard_normal(30))
        assert np.isfinite(f) and (df1, df2) == (3, 25)

    def test_wide_design_not_applicable(self, rng):
        x = DesignMatrix(rng.standard_normal((4, 6)))
        hyp = LinearHypothesis(np.eye(6), np.zeros(6))
        with pytest.raises(NotApplicable):
            zt_fisher_weighted(x, hyp, rng.standard_normal(4))


class TestLadSign:
    def test_all_positive(self):
        x = np.ones((3, 1))
        assert zt_lad(x, np.array([1.0, 2.0, 3.0])).value == 3.0

    def test_sign_count_identity(self):
        y = np.array([1.0, -2.0, 3.0])
        assert zt_lad(np.ones((3, 1)), y).value == 1.0  # |2*2 - 3|

    def test_b_out_of_n(self, rng):
        y = rng.standard_normal(11)
        b = int(np.sum(y > 0))
        assert zt_lad(np.ones((11, 1)), y).value == abs(2 * b - 11)

    def test_median_centering(self, rng):
        x = rng.standard_normal((9, 2))
        y = rng.standard_normal(9)
        centered = y - np.median(y)
        expected = np.max(np.abs(x.T @ np.sign(centered)))
        assert zt_lad(x, y, center="median").value == pytest.approx(expected)

    @pytest.mark.parametrize("center", ["none", "median"])
    def test_matches_evaluator_per_column(self, rng, center):
        # integer entries make X^T sign(y) exact, whatever order BLAS sums in
        x = rng.integers(-9, 10, (40, 5)).astype(float)
        if center == "median":  # a marked intercept makes the evaluator center
            design = DesignMatrix(np.column_stack([np.ones(40), x]), intercept_column=0)
        else:
            design = DesignMatrix(x)
        y = rng.standard_normal((40, 30))
        vals, degen = build_evaluator(StatisticSpec("lad_sign"), design).evaluate_batch(y)
        want = [zt_lad(x, y[:, m], center=center).value for m in range(30)]
        assert vals.tolist() == want and not degen.any()

    def test_sign_test_values(self):
        u = np.zeros(4)
        assert sign_test(u, u) == (0, 4)
        assert sign_test(u, np.array([1.0, -1.0, 1.0, -1.0])) == (2, 0)
        u10 = np.zeros(10)
        v10 = np.array([1.0] * 7 + [-1.0] * 3)
        assert sign_test(u10, v10) == (7, 4)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            sign_test(np.zeros(3), np.zeros(4))


class TestGlmScore:
    def test_constant_response(self):
        x = np.arange(6, dtype=float).reshape(6, 1)
        got = glm_score_stat(x, np.full(6, 1.0), "poisson")
        assert got.value == 0.0 and not got.degenerate

    def test_bernoulli_arithmetic_case(self):
        # alternating response on a +-1 column: numerator 2, xi = 1/4
        x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        got = glm_score_stat(x, y, "bernoulli")
        assert got.value == pytest.approx(2.0, rel=1e-12)

    def test_poisson_form(self, rng):
        x = rng.standard_normal((10, 3))
        y = rng.poisson(3.0, size=10).astype(float)
        ybar = np.mean(y)
        expected = np.max(np.abs(x.T @ (y - ybar))) / np.sqrt(10 * ybar)
        assert glm_score_stat(x, y, "poisson").value == pytest.approx(expected)

    def test_degenerate_bernoulli(self):
        x = np.ones((5, 1))
        assert glm_score_stat(x, np.ones(5), "bernoulli").degenerate
        assert glm_score_stat(x, np.zeros(5), "bernoulli").degenerate

    def test_degenerate_gaussian_constant(self, rng):
        # np.var of a constant leaves rounding noise, judged against y's scale
        x = rng.standard_normal((30, 3))
        assert glm_score_stat(x, np.full(30, 0.1), "gaussian").degenerate
        assert glm_score_stat(x, np.full(30, -3e7), "gaussian").degenerate
        # a small spread on a large mean is a real variance
        assert not glm_score_stat(x, 1e8 + rng.standard_normal(30), "gaussian").degenerate

    def test_group_norm(self, rng):
        x = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        z = x.T @ (y - np.mean(y))
        xi = np.var(y, ddof=1)
        expected = max(np.linalg.norm(z[:2]), np.linalg.norm(z[2:])) / np.sqrt(12 * xi)
        got = glm_score_stat(x, y, "gaussian", norm="group",
                             partition=[(0, 1), (2, 3)])
        assert got.value == pytest.approx(expected, rel=1e-12)

    def test_gaussian_ratio_to_sqrt_lasso_constant(self, rng):
        # same numerator, denominators ||r||_2 vs sqrt(N * s^2):
        # the ratio is the deterministic sqrt((N-1)/N)
        n = 14
        x_cov = rng.standard_normal((n, 3))
        x = DesignMatrix(np.hstack([np.ones((n, 1)), x_cov]), intercept_column=0)
        hyp = SubsetHypothesis(1, np.zeros(3)).expand(4)
        red = build_reduction(x, hyp)
        expected_ratio = np.sqrt((n - 1) / n)
        for _ in range(5):
            y = rng.standard_normal(n)
            glm_val = glm_score_stat(x_cov, y, "gaussian").value
            sqrt_val = zt_sqrt_variant(red, x, y).value
            assert glm_val / sqrt_val == pytest.approx(expected_ratio, rel=1e-10)


class TestLinkIdentity:
    @pytest.mark.parametrize("tag,grid", [
        ("poisson", np.linspace(0.0, 20.0, 1000)),
        ("bernoulli", np.linspace(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, 1000)),
        ("gaussian", np.linspace(-10.0, 10.0, 1000)),
    ])
    def test_identity_on_grid(self, tag, grid):
        np.testing.assert_allclose(link_identity_residual(tag, grid), 0.0,
                                   atol=1e-10)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            link_identity_residual("poisson", np.array([-0.5]))
        with pytest.raises(DomainError):
            link_identity_residual("bernoulli", np.array([2.0]))


class TestEvaluator:
    def test_batch_matches_scalar(self, rng):
        x, hyp, red = _random_problem(rng, n=10, p=4, r=2)
        spec = StatisticSpec("sqrt_affine_lasso")
        ev = build_evaluator(spec, x, hyp=hyp, red=red)
        y_mat = rng.standard_normal((10, 6))
        vals, degen = ev.evaluate_batch(y_mat)
        for m in range(6):
            single = ev.evaluate(y_mat[:, m])
            assert vals[m] == pytest.approx(single.value, rel=1e-12)
            assert degen[m] == single.degenerate

    def test_glm_group_defaults_to_one_block(self, rng):
        x = rng.standard_normal((10, 3))
        spec = StatisticSpec("glm_score_group", glm_family="gaussian")
        ev = build_evaluator(spec, x)
        y = rng.standard_normal(10)
        z = x.T @ (y - np.mean(y))
        expected = np.linalg.norm(z) / np.sqrt(10 * np.var(y, ddof=1))
        assert ev.evaluate(y).value == pytest.approx(expected, rel=1e-12)

    def test_unknown_family_rejected(self):
        with pytest.raises(NotApplicable):
            StatisticSpec("ridge")

    def test_glm_spec_needs_family(self):
        with pytest.raises(NotApplicable):
            StatisticSpec("glm_score_sup")

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_wrong_row_count_raises_dimension_mismatch(self, family, rng):
        x, hyp, _ = _random_problem(rng, n=30, p=5, r=2)
        tag = "gaussian" if family in GLM_FAMILIES else None
        ev = build_evaluator(StatisticSpec(family, glm_family=tag), x, hyp=hyp)
        for n in (29, 31):
            with pytest.raises(DimensionMismatch):
                ev.evaluate(rng.standard_normal(n))
            with pytest.raises(DimensionMismatch):
                ev.evaluate_batch(rng.standard_normal((n, 3)))
            with pytest.raises(DimensionMismatch):
                evaluate_many([ev], rng.standard_normal((n, 3)))
        with pytest.raises(DimensionMismatch):
            ev.evaluate_batch(rng.standard_normal(30))
        if tag is not None:
            with pytest.raises(DimensionMismatch):
                glm_score_stat(x, rng.standard_normal(29), tag,
                               norm="group" if ev.spec.is_group else "sup")


def _random_blocks(rng, k):
    """A random partition of range(k) into contiguous runs of a permutation."""
    order = rng.permutation(k)
    cuts = np.sort(rng.choice(np.arange(1, k), size=rng.integers(0, k), replace=False)) \
        if k > 1 else np.array([], dtype=int)
    return tuple(tuple(int(i) for i in block) for block in np.split(order, cuts))


def _partitions(rng, k):
    """No partition, singletons, one block and a random partition of k rows."""
    return (None, tuple((i,) for i in range(k)), (tuple(range(k)),), _random_blocks(rng, k))


@st.composite
def shared_batches(draw):
    """Evaluators of every family on one (X, hypothesis), plus one N x M batch.

    The affine evaluators share one reduction, except one that builds its
    own and one at another c; the GLM score evaluators share the family,
    except one. Column ``degenerate_col`` of the batch lies in the null-model span
    (affine and Fisher) or is constant (GLM score).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 30))
    p = draw(st.integers(2, min(6, n - 2)))
    r = draw(st.integers(1, p))
    intercept = draw(st.booleans())
    m = draw(st.sampled_from([1, 2, 65]))
    tag = draw(st.sampled_from(["gaussian", "bernoulli", "poisson"]))
    values = rng.standard_normal((n, p))
    if intercept:
        values[:, 0] = 1.0
    x = DesignMatrix(values, intercept_column=0 if intercept else None)
    hyp = LinearHypothesis(rng.standard_normal((r, p)), rng.standard_normal(r),
                           row_partition=_random_blocks(rng, r))
    red = build_reduction(x, hyp)
    evs = []
    for fam in AFFINE_FAMILIES:
        parts = _partitions(rng, r) if "group" in fam else (None,)
        evs += [build_evaluator(StatisticSpec(fam, row_partition=part), x, hyp=hyp, red=red)
                for part in parts]
    evs.append(build_evaluator(StatisticSpec("sqrt_affine_lasso"), x, hyp=hyp))
    other_c = LinearHypothesis(hyp.a_matrix, hyp.c_vector + 1.0)
    evs.append(build_evaluator(StatisticSpec("sqrt_affine_lasso"), x, hyp=other_c))
    evs.append(build_evaluator(StatisticSpec("fisher_weighted"), x, hyp=hyp))
    evs.append(build_evaluator(StatisticSpec("lad_sign"), x))
    k = x.tested_values().shape[1]
    for fam in GLM_FAMILIES:
        parts = _partitions(rng, k) if fam == "glm_score_group" else (None,)
        evs += [build_evaluator(StatisticSpec(fam, row_partition=part, glm_family=tag), x)
                for part in parts]
    other_tag = "poisson" if tag == "gaussian" else "gaussian"
    evs.append(build_evaluator(StatisticSpec("glm_score_sup", glm_family=other_tag), x))
    evs = [evs[i] for i in rng.permutation(len(evs))]
    if tag == "gaussian":
        y = rng.standard_normal((n, m))
    elif tag == "bernoulli":
        y = (rng.random((n, m)) < 0.4).astype(float)
    else:
        y = rng.poisson(2.0, (n, m)).astype(float)
    j = draw(st.integers(0, m - 1))
    if draw(st.booleans()):
        y[:, j] = red.x_fit_c + red.projector_factor @ rng.standard_normal(
            red.projector_factor.shape[1])
    else:
        y[:, j] = y[0, j]
    return evs, y


class TestEvaluateMany:
    @settings(max_examples=60, deadline=None)
    @given(shared_batches())
    def test_equals_each_evaluate_batch_bit_for_bit(self, case):
        evs, y = case
        got = evaluate_many(evs, y)
        assert len(got) == len(evs)
        for ev, (vals, degen) in zip(evs, got):
            want_vals, want_degen = ev.evaluate_batch(y)
            assert vals.tobytes() == want_vals.tobytes(), ev.statistic_id
            assert np.array_equal(degen, want_degen), ev.statistic_id

    def test_null_span_column_is_degenerate_in_both_paths(self, rng):
        x, hyp, red = _random_problem(rng, n=12, p=4, r=2)
        evs = [build_evaluator(StatisticSpec(fam), x, hyp=hyp, red=red)
               for fam in ("affine_lasso", "sqrt_affine_lasso", "sqrt_affine_group_lasso")]
        y = rng.standard_normal((12, 3))
        y[:, 1] = red.x_fit_c + red.projector_factor @ rng.standard_normal(
            red.projector_factor.shape[1])
        for ev, (vals, degen) in zip(evs, evaluate_many(evs, y)):
            want_vals, want_degen = ev.evaluate_batch(y)
            assert vals.tobytes() == want_vals.tobytes()
            assert np.array_equal(degen, want_degen)
            assert list(degen) == ([False, True, False] if ev.spec.is_sqrt else [False] * 3)

    def test_one_pass_per_shared_design(self, rng, monkeypatch):
        from threshtest.statistics import Evaluator

        x, hyp, red = _random_problem(rng, n=12, p=4, r=2)
        calls = []
        original = Evaluator._parts

        def counted(self, y_mat):
            calls.append(self.spec.family)
            return original(self, y_mat)

        monkeypatch.setattr(Evaluator, "_parts", counted)
        evs = [build_evaluator(StatisticSpec(fam), x, hyp=hyp, red=red)
               for fam in ("affine_lasso", "sqrt_affine_lasso", "sqrt_affine_group_lasso")]
        evs += [build_evaluator(StatisticSpec(fam, glm_family="poisson"), x)
                for fam in GLM_FAMILIES]
        evs.append(build_evaluator(StatisticSpec("lad_sign"), x))
        evaluate_many(evs, rng.standard_normal((12, 5)))
        # one affine pass, from a square-root member so it carries ||r||
        assert sorted(calls) == sorted(["sqrt_affine_lasso", "glm_score_sup", "lad_sign"])


@st.composite
def family_batches(draw):
    """One evaluator of a drawn family on a random (X, hypothesis), an N x M
    batch and the statistic's scalar function (None for fisher_weighted).

    One column of the batch lies in the null-model span (affine and
    Fisher) or is constant (GLM score), so degenerate flags are exercised.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(ALL_FAMILIES))
    n = draw(st.integers(6, 30))
    p = draw(st.integers(2, min(6, n - 2)))
    r = draw(st.integers(1, p))
    m = draw(st.sampled_from([1, 2, 9]))
    intercept = draw(st.booleans())
    tag = draw(st.sampled_from(["gaussian", "bernoulli", "poisson"]))
    values = rng.standard_normal((n, p))
    if intercept:
        values[:, 0] = 1.0
    x = DesignMatrix(values, intercept_column=0 if intercept else None)
    hyp = LinearHypothesis(rng.standard_normal((r, p)), rng.standard_normal(r))
    red = build_reduction(x, hyp)
    k = x.tested_values().shape[1]
    part = None
    if family in GLM_FAMILIES:
        if family == "glm_score_group":
            part = _random_blocks(rng, k)
        spec = StatisticSpec(family, row_partition=part, glm_family=tag)
        norm = "group" if part is not None else "sup"
        scalar = lambda y: glm_score_stat(x, y, tag, norm=norm, partition=part)
    else:
        if "group" in family:
            part = _random_blocks(rng, r)
        spec = StatisticSpec(family, row_partition=part)
        scalar = {
            "affine_lasso": lambda y: zt_affine_lasso(red, x, y),
            "affine_group_lasso": lambda y: zt_affine_group_lasso(red, x, y, part),
            "sqrt_affine_lasso": lambda y: zt_sqrt_variant(red, x, y),
            "sqrt_affine_group_lasso": lambda y: zt_sqrt_variant(red, x, y, "group", part),
            "fisher_weighted": None,
            "lad_sign": lambda y: zt_lad(
                x.tested_values(), y, center="median" if intercept else "none"),
        }[family]
    ev = build_evaluator(spec, x, hyp=hyp, red=red if family in AFFINE_FAMILIES else None)
    if family in GLM_FAMILIES and tag == "bernoulli":
        y = (rng.random((n, m)) < 0.4).astype(float)
    elif family in GLM_FAMILIES and tag == "poisson":
        y = rng.poisson(2.0, (n, m)).astype(float)
    else:
        y = rng.standard_normal((n, m))
    j = draw(st.integers(0, m - 1))
    if family in GLM_FAMILIES:
        y[:, j] = y[0, j]
    else:
        y[:, j] = red.x_fit_c + red.projector_factor @ rng.standard_normal(
            red.projector_factor.shape[1])
    return ev, y, scalar


class TestBatchEqualsScalar:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(family_batches())
    def test_each_column_equals_its_scalar_evaluation(self, case):
        """GEMM and GEMV may differ in the last bits, so values agree to a
        relative 1e-12 of the batch's largest value; flags agree exactly."""
        ev, y, scalar = case
        vals, degen = ev.evaluate_batch(y)
        atol = 1e-12 * np.max(np.abs(vals))
        for m in range(y.shape[1]):
            single = [ev.evaluate(y[:, m])]
            if scalar is not None:
                single.append(scalar(y[:, m]))
            elif degen[m]:  # fisher_weighted: studentized lambda_0 = sqrt(F R)
                with pytest.raises(DegenerateStatistic):
                    fisher_F(ev.x, ev.hyp, y[:, m])
            else:
                f, df1, _ = fisher_F(ev.x, ev.hyp, y[:, m])
                single.append(StatValue(float(np.sqrt(f * df1))))
            for got in single:
                assert got.degenerate == degen[m], ev.statistic_id
                assert got.value == pytest.approx(vals[m], rel=1e-12, abs=atol), \
                    ev.statistic_id


@st.composite
def affine_problems(draw):
    """An affine evaluator on a random (X, hypothesis), a response y, a
    shift X K_A u along the directions H0 leaves free, and a scale s > 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(AFFINE_FAMILIES))
    p = draw(st.integers(1, 6))
    n = draw(st.integers(p + 1, 30))
    r = draw(st.integers(1, p))
    x = DesignMatrix(rng.standard_normal((n, p)))
    hyp = LinearHypothesis(rng.standard_normal((r, p)), rng.standard_normal(r))
    part = _random_blocks(rng, r) if "group" in family else None
    ev = build_evaluator(StatisticSpec(family, row_partition=part), x, hyp=hyp)
    size = draw(st.sampled_from([0.01, 1.0, 100.0]))
    y = size * rng.standard_normal(n)
    u = size * draw(st.sampled_from([0.0, 1.0, 10.0])) * rng.standard_normal(p - r)
    shift = x.values @ (kernel_basis(hyp.a_matrix) @ u)
    return ev, y, shift, draw(st.floats(0.01, 100.0))


class TestPivotality:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(affine_problems())
    def test_nuisance_shift_and_scale(self, case):
        """lambda(y + X K_A u) = lambda(y), and scaling y - X beta_c by s
        scales the affine statistics by s and leaves the square-root ones."""
        ev, y, shift, s = case
        base = ev.evaluate(y)
        assert not base.degenerate and base.value > 0.0
        assert ev.evaluate(y + shift).value == pytest.approx(base.value, rel=1e-10)
        fit = ev.red.x_fit_c
        scaled = ev.evaluate(fit + s * (y - fit)).value
        want = base.value if ev.spec.is_sqrt else s * base.value
        assert scaled == pytest.approx(want, rel=1e-10)
