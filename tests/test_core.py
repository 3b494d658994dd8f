"""Tests for the model types and the kernel/projector reduction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threshtest import (
    DesignMatrix,
    LinearHypothesis,
    ReducedProblem,
    SubsetHypothesis,
    build_reduction,
    factor_reduction,
    glm_family,
    kernel_basis,
    residual,
)
from threshtest.exceptions import DimensionMismatch, DomainError, RankDeficient, Untestable


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


class TestKernelBasis:
    def test_subset_hypothesis_kernel_is_leading_coordinates(self):
        j0, p = 2, 5
        a = np.hstack([np.zeros((p - j0, j0)), np.eye(p - j0)])
        k = kernel_basis(a)
        assert k.shape == (p, j0)
        np.testing.assert_allclose(a @ k, 0.0, atol=1e-12)
        np.testing.assert_allclose(k.T @ k, np.eye(j0), atol=1e-12)
        # spanned subspace is exactly the first j0 coordinates
        np.testing.assert_allclose(k[j0:, :], 0.0, atol=1e-12)

    def test_identity_hypothesis_has_trivial_kernel(self):
        k = kernel_basis(np.eye(4))
        assert k.shape == (4, 0)

    def test_symmetric_row_kernel(self):
        k = kernel_basis(np.array([[1.0, 1.0]]))
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(k[:, 0], expected) or np.allclose(k[:, 0], -expected)

    def test_rank_deficient_rejected(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            kernel_basis(a)

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankDeficient):
            kernel_basis(np.ones((3, 2)))


@pytest.mark.parametrize("call", [
    kernel_basis,
    lambda a: factor_reduction(np.arange(12.0 * a.shape[1]).reshape(12, -1) ** 0.5, a),
    lambda a: LinearHypothesis(a, np.zeros(a.shape[0])),
], ids=["kernel_basis", "factor_reduction", "LinearHypothesis"])
@pytest.mark.parametrize("a,message", [
    (np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]), "numerical row rank 1 < R = 2"),
    (np.ones((3, 2)), "3x2: cannot have full row rank"),
], ids=["dependent_rows", "wide"])
def test_one_row_rank_check(call, a, message):
    with pytest.raises(RankDeficient, match=message):
        call(a)


def _beta_c(a, c):
    """The minimum-norm solution of A beta = c, as a reduction takes it."""
    a = np.asarray(a, dtype=float)
    x = DesignMatrix(np.random.default_rng(5).standard_normal((10, a.shape[1])))
    return factor_reduction(x, a).at(c).beta_c


class TestMinNormSolution:
    def test_zero_rhs(self):
        np.testing.assert_allclose(_beta_c([[1.0, 2.0]], [0.0]), np.zeros(2))

    def test_identity(self, rng):
        c = rng.standard_normal(4)
        np.testing.assert_allclose(_beta_c(np.eye(4), c), c)

    def test_symmetry(self):
        np.testing.assert_allclose(_beta_c([[1.0, 1.0]], [2.0]), [1.0, 1.0])

    def test_orthogonal_to_kernel(self, rng):
        a = rng.standard_normal((2, 5))
        c = rng.standard_normal(2)
        beta_c = _beta_c(a, c)
        np.testing.assert_allclose(a @ beta_c, c, atol=1e-10)
        k = kernel_basis(a)
        np.testing.assert_allclose(k.T @ beta_c, 0.0, atol=1e-10)

    def test_equals_reduction_beta_c_bitwise(self, rng):
        # beta_c depends on (A, c) alone: every design and both entry points
        # take it from the same full SVD of A
        for r, p in [(1, 4), (2, 5), (3, 3)]:
            a = rng.standard_normal((r, p))
            c = rng.standard_normal(r)
            x = DesignMatrix(rng.standard_normal((10, p)))
            assert (_beta_c(a, c).tobytes()
                    == factor_reduction(x, a).at(c).beta_c.tobytes()
                    == build_reduction(x, LinearHypothesis(a, c)).beta_c.tobytes())


class TestBuildReduction:
    def test_unpenalized_intercept_gives_mean_projector(self, rng):
        x = DesignMatrix(
            np.hstack([np.ones((12, 1)), rng.standard_normal((12, 3))]),
            intercept_column=0)
        hyp = SubsetHypothesis(1, np.zeros(3)).expand(4)
        red = build_reduction(x, hyp)
        y = rng.standard_normal(12)
        np.testing.assert_allclose(residual(red, x, y), y - np.mean(y), atol=1e-12)

    def test_full_hypothesis_gives_identity_residual(self, rng):
        x = DesignMatrix(rng.standard_normal((8, 3)))
        hyp = LinearHypothesis(np.eye(3), np.zeros(3))
        red = build_reduction(x, hyp)
        assert red.kernel_basis.shape == (3, 0)
        y = rng.standard_normal(8)
        np.testing.assert_allclose(residual(red, x, y), y, atol=1e-12)

    def test_single_coefficient_in_overparametrized_model_untestable(self, rng):
        # j0 = P - 1 with dense X and P > N: rank(X K_A) = N
        x = DesignMatrix(rng.standard_normal((5, 8)))
        hyp = SubsetHypothesis(7, np.zeros(1)).expand(8)
        with pytest.raises(Untestable):
            build_reduction(x, hyp)

    def test_reduction_invariants(self, rng):
        x = DesignMatrix(rng.standard_normal((10, 5)))
        a = rng.standard_normal((2, 5))
        c = rng.standard_normal(2)
        red = build_reduction(x, LinearHypothesis(a, c))
        np.testing.assert_allclose(a @ red.kernel_basis, 0.0, atol=1e-10)
        np.testing.assert_allclose(a @ red.beta_c, c, atol=1e-10)
        v = rng.standard_normal(10)
        np.testing.assert_allclose(red.project(red.project(v)), red.project(v),
                                   atol=1e-10)

    def test_residual_matches_dense_projector(self, rng):
        n, p, r = 6, 3, 2
        x_vals = rng.standard_normal((n, p))
        a = rng.standard_normal((r, p))
        c = rng.standard_normal(r)
        x = DesignMatrix(x_vals)
        red = build_reduction(x, LinearHypothesis(a, c))
        # independent dense-matrix route
        k = kernel_basis(a)
        xka = x_vals @ k
        proj = xka @ np.linalg.pinv(xka)
        beta_c = a.T @ np.linalg.solve(a @ a.T, c)
        y = rng.standard_normal(n)
        expected = (np.eye(n) - proj) @ (y - x_vals @ beta_c)
        np.testing.assert_allclose(residual(red, x, y), expected, atol=1e-10)

    def test_null_invariance_under_kernel_shifts(self, rng):
        x = DesignMatrix(rng.standard_normal((10, 4)))
        a = rng.standard_normal((2, 4))
        hyp = LinearHypothesis(a, rng.standard_normal(2))
        red = build_reduction(x, hyp)
        y = rng.standard_normal(10)
        base = residual(red, x, y)
        for _ in range(5):
            gamma = red.kernel_basis @ rng.standard_normal(2)
            shifted = residual(red, x, y + x.values @ gamma)
            np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-10)

    def test_deterministic(self, rng):
        x = DesignMatrix(rng.standard_normal((9, 4)))
        hyp = LinearHypothesis(rng.standard_normal((2, 4)), rng.standard_normal(2))
        red1 = build_reduction(x, hyp)
        red2 = build_reduction(x, hyp)
        np.testing.assert_array_equal(red1.kernel_basis, red2.kernel_basis)
        np.testing.assert_array_equal(red1.beta_c, red2.beta_c)
        np.testing.assert_array_equal(red1.projector_factor, red2.projector_factor)


@st.composite
def factored_problems(draw):
    """A design, a full-row-rank A with R in {1, 2, 3}, a row partition of
    A and several right-hand sides c."""
    r = draw(st.integers(1, 3))
    p = draw(st.integers(r, 7))
    n = draw(st.integers(p + 1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=r, max_size=r))
    partition = [tuple(i for i in range(r) if labels[i] == b) for b in sorted(set(labels))]
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    cs = draw(st.lists(st.lists(finite, min_size=r, max_size=r), min_size=1, max_size=4))
    x = DesignMatrix(rng.standard_normal((n, p)))
    return x, rng.standard_normal((r, p)), [np.array(c) for c in cs], partition


def _assert_same_fields(got, want):
    for f in dataclasses.fields(ReducedProblem):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, DesignMatrix):
            a, b = a.values, b.values
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


class TestReductionFactor:
    @settings(max_examples=40, deadline=None)
    @given(factored_problems())
    def test_factor_at_c_is_build_reduction_bitwise(self, problem):
        x, a, cs, partition = problem
        factor = factor_reduction(x, a)
        for c in cs:  # one factor reused for every c, in turn
            red = factor.at(c)
            _assert_same_fields(red, build_reduction(x, LinearHypothesis(a, c, partition)))
            # re-taking a reduction at another c only replaces beta_c and X beta_c
            _assert_same_fields(red.at(cs[0]), factor.at(cs[0]))

    def test_hypothesis_keeps_its_own_a(self, rng):
        # build_reduction reuses the SVD of A taken at construction, so a
        # later write to the caller's array must not reach the hypothesis
        x = DesignMatrix(rng.standard_normal((8, 3)))
        a = rng.standard_normal((2, 3))
        hyp = LinearHypothesis(a, np.zeros(2))
        want = factor_reduction(x, a.copy()).at(np.zeros(2))
        a[0, 0] += 1.0
        _assert_same_fields(build_reduction(x, hyp), want)
        with pytest.raises(ValueError):
            hyp.a_matrix[0, 0] = 0.0

    @pytest.mark.parametrize("c", [[0.0], [0.0, np.nan], [np.inf, 0.0], [[0.0, 0.0]]])
    def test_at_rejects_bad_c(self, rng, c):
        factor = factor_reduction(DesignMatrix(rng.standard_normal((8, 3))),
                                  rng.standard_normal((2, 3)))
        with pytest.raises(DimensionMismatch):
            factor.at(np.array(c))

    def test_factor_checks_rank_and_testability(self, rng):
        x = DesignMatrix(rng.standard_normal((5, 8)))
        with pytest.raises(RankDeficient):
            factor_reduction(x, np.ones((2, 8)))
        with pytest.raises(Untestable):
            factor_reduction(x, np.eye(8)[7:])


class TestValidation:
    def test_design_needs_two_rows(self):
        with pytest.raises(DimensionMismatch):
            DesignMatrix(np.ones((1, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionMismatch):
            DesignMatrix(np.array([[1.0, np.nan], [1.0, 2.0]]))

    def test_intercept_column_checked(self):
        with pytest.raises(DimensionMismatch):
            DesignMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), intercept_column=0)

    def test_partition_must_cover(self):
        a = np.eye(3)
        with pytest.raises(DimensionMismatch):
            LinearHypothesis(a, np.zeros(3), row_partition=[(0, 1)])

    def test_partition_no_overlap(self):
        a = np.eye(3)
        with pytest.raises(DimensionMismatch):
            LinearHypothesis(a, np.zeros(3), row_partition=[(0, 1), (1, 2)])

    @pytest.mark.parametrize("partition", [
        [[0.7], [True], [2]], [[0, 1.9], [2]], [[0], [1], [2.0]], [[0], [np.bool_(1)], [2]],
        [[0, 1, 2], []], [[0, 0, 1], [2]], 5, [[0, 1], 2], [["0"], [1], [2]],
    ], ids=["fraction_and_bool", "fraction", "integral_float", "numpy_bool", "empty_block",
            "repeated_row", "not_a_list", "bare_index", "string_index"])
    def test_partition_takes_integer_blocks_only(self, partition):
        with pytest.raises(DimensionMismatch):
            LinearHypothesis(np.eye(3), np.zeros(3), row_partition=partition)

    def test_no_partition_stays_none(self):
        # so that an explicit singleton partition can be told from none
        assert LinearHypothesis(np.eye(3), np.zeros(3)).row_partition is None
        assert SubsetHypothesis(1, np.zeros(2)).expand(3).row_partition is None
        singletons = LinearHypothesis(np.eye(3), np.zeros(3), [[0], [1], [2]])
        assert singletons.row_partition == ((0,), (1,), (2,))

    def test_partition_takes_numpy_integers(self):
        hyp = LinearHypothesis(np.eye(3), np.zeros(3),
                               row_partition=[np.array([2, 0]), (np.uint8(1),)])
        assert hyp.row_partition == ((2, 0), (1,))
        assert all(type(i) is int for block in hyp.row_partition for i in block)

    @pytest.mark.parametrize("j0", [1.0, 1.5, True, np.bool_(True), "1", None],
                             ids=["integral_float", "fraction", "bool", "numpy_bool",
                                  "string", "none"])
    def test_subset_j0_takes_integers_only(self, j0):
        with pytest.raises(DimensionMismatch, match="j0 must be an integer"):
            SubsetHypothesis(j0, np.zeros(3))

    def test_subset_j0_takes_numpy_integers(self):
        hyp = SubsetHypothesis(np.int64(1), np.zeros(3)).expand(4)
        np.testing.assert_array_equal(hyp.a_matrix, np.eye(4)[1:])

    def test_subset_expansion_exact(self):
        hyp = SubsetHypothesis(2, np.array([1.0, 2.0])).expand(4)
        np.testing.assert_array_equal(
            hyp.a_matrix, np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=float))


class TestGlmFamilies:
    @pytest.mark.parametrize("tag", ["nonsense", [], {}, 1, None])
    def test_unknown_tag_is_a_domain_error(self, tag):
        with pytest.raises(DomainError, match="unknown family"):
            glm_family(tag)

    @pytest.mark.parametrize("tag", ["gaussian", "bernoulli", "poisson"])
    def test_a_family_is_returned_unchanged(self, tag):
        family = glm_family(tag)
        assert glm_family(family) is family

    @pytest.mark.parametrize("tag,grid", [
        ("gaussian", np.linspace(-5, 5, 101)),
        ("poisson", np.linspace(0, 20, 101)),
        ("bernoulli", np.linspace(-np.pi / 2 + 1e-9, np.pi / 2 - 1e-9, 101)),
    ])
    def test_pivotal_link_identity(self, tag, grid):
        fam = glm_family(tag)
        h = fam.pivotal_inverse_link(grid)
        resid = fam.pivotal_derivative(grid) ** 2 - fam.variance(h)
        np.testing.assert_allclose(resid, 0.0, atol=1e-12)


_X = DesignMatrix(np.arange(12.0).reshape(4, 3) ** 2)


@pytest.mark.parametrize("call, message", [
    (lambda: DesignMatrix(np.ones((3, 2)), intercept_column=2), "intercept_column out of range"),
    (lambda: LinearHypothesis(np.eye(2), np.zeros(3)), "c has length 3, expected 2"),
    (lambda: SubsetHypothesis(-1, np.zeros(2)), "j0 must be nonnegative"),
    (lambda: SubsetHypothesis(5, np.zeros(1)).expand(3), "j0=5 incompatible with P=3"),
    (lambda: factor_reduction(_X, np.eye(3)[1:]).at(np.zeros(3)), "c has length 3, expected 2"),
    (lambda: factor_reduction(_X, np.eye(2)), "A has 2 columns, X has P = 3"),
    (lambda: residual(build_reduction(_X, LinearHypothesis(np.eye(3)[1:], np.zeros(2))), _X,
                      np.zeros(5)), "y has length 5, expected N = 4"),
], ids=["intercept_column", "hypothesis_c", "negative_j0", "j0_beyond_p", "min_norm_c",
        "a_columns", "residual_y"])
def test_each_shape_refusal_is_a_dimension_mismatch(call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call()
