"""Brute-force oracle checks: solver KKT, bisection threshold, KKT system."""

import numpy as np
import pytest

from threshtest import (
    DesignMatrix,
    LinearHypothesis,
    build_reduction,
    constrained_ls,
    oracle_zero_threshold,
    solve_affine_lasso,
    zt_affine_group_lasso,
    zt_affine_lasso,
)
from threshtest import oracle
from threshtest.oracle import UnsupportedScale
from threshtest.exceptions import DimensionMismatch, NoConvergence, SingularSystem


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestSolver:
    def test_lambda_zero_is_least_squares(self, rng):
        x = rng.standard_normal((12, 4))
        y = rng.standard_normal(12)
        a = rng.standard_normal((2, 4))
        rep = solve_affine_lasso(x, y, a, np.zeros(2), lam=0.0)
        expected = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(rep.beta_hat, expected, atol=1e-6)

    def test_soft_threshold_case(self, rng):
        # orthonormal X, A = I, c = 0, j = 1: coordinatewise soft threshold
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        y = rng.standard_normal(10)
        lam = 0.3
        rep = solve_affine_lasso(q, y, np.eye(4), np.zeros(4), lam=lam)
        z = q.T @ y
        expected = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        np.testing.assert_allclose(rep.beta_hat, expected, atol=1e-6)

    def test_large_lambda_pins_constraint(self, rng):
        x = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        a = rng.standard_normal((2, 3))
        c = rng.standard_normal(2)
        red = build_reduction(DesignMatrix(x), LinearHypothesis(a, c))
        lam0 = zt_affine_lasso(red, DesignMatrix(x), y).value
        rep = solve_affine_lasso(x, y, a, c, lam=2.0 * lam0 + 1.0)
        np.testing.assert_allclose(a @ rep.beta_hat, c, atol=1e-6)

    def test_kkt_residual_reported(self, rng):
        x = rng.standard_normal((8, 3))
        rep = solve_affine_lasso(x, rng.standard_normal(8),
                                 np.eye(3), np.zeros(3), lam=0.5)
        assert rep.kkt_residual <= 1e-8

    def test_scale_guard(self, rng):
        with pytest.raises(UnsupportedScale):
            solve_affine_lasso(np.ones((300, 2)), np.ones(300),
                               np.eye(2), np.zeros(2), lam=1.0)

    def test_shape_guard(self, rng):
        with pytest.raises(DimensionMismatch):
            solve_affine_lasso(np.ones((5, 2)), np.ones(4),
                               np.eye(2), np.zeros(2), lam=1.0)


class TestZeroThreshold:
    def test_orthogonal_response(self, rng):
        # X^T y = 0 and c = 0: threshold is zero
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        y = rng.standard_normal(6)
        y = y - q @ (q.T @ y)
        lam0 = oracle_zero_threshold(q, y, np.eye(2), np.zeros(2))
        assert lam0 <= 1e-6

    def test_soft_threshold_extinction(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        y = rng.standard_normal(9)
        lam0 = oracle_zero_threshold(q, y, np.eye(3), np.zeros(3))
        assert lam0 == pytest.approx(np.max(np.abs(q.T @ y)), abs=1e-5)

    def test_matches_closed_form(self, rng):
        x_vals = rng.standard_normal((8, 3))
        a = rng.standard_normal((2, 3))
        c = rng.standard_normal(2)
        y = rng.standard_normal(8)
        x = DesignMatrix(x_vals)
        red = build_reduction(x, LinearHypothesis(a, c))
        closed = zt_affine_lasso(red, x, y).value
        assert oracle_zero_threshold(x_vals, y, a, c) == pytest.approx(
            closed, abs=1e-5)

    def test_matches_closed_form_group(self, rng):
        x_vals = rng.standard_normal((8, 3))
        a = rng.standard_normal((2, 3))
        c = rng.standard_normal(2)
        y = rng.standard_normal(8)
        x = DesignMatrix(x_vals)
        red = build_reduction(x, LinearHypothesis(a, c))
        closed = zt_affine_group_lasso(red, x, y, partition=[(0, 1)]).value
        got = oracle_zero_threshold(x_vals, y, a, c, j=2, partition=[(0, 1)])
        assert got == pytest.approx(closed, abs=1e-5)

    def test_bracketing_witness(self, rng):
        # slightly below the threshold the constraint is violated,
        # slightly above it is met
        x_vals = rng.standard_normal((8, 3))
        a = rng.standard_normal((1, 3))
        c = np.array([0.5])
        y = rng.standard_normal(8)
        x = DesignMatrix(x_vals)
        red = build_reduction(x, LinearHypothesis(a, c))
        lam0 = zt_affine_lasso(red, x, y).value
        below = solve_affine_lasso(x_vals, y, a, c, lam=0.99 * lam0)
        above = solve_affine_lasso(x_vals, y, a, c, lam=1.01 * lam0)
        assert np.max(np.abs(a @ below.beta_hat - c)) > 1e-8
        assert np.max(np.abs(a @ above.beta_hat - c)) <= 1e-6


class TestConstrainedLs:
    def test_inactive_constraint_zero_multiplier(self, rng):
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        a = rng.standard_normal((2, 3))
        beta_ls = np.linalg.lstsq(x, y, rcond=None)[0]
        _, z_hat = constrained_ls(x, y, a, a @ beta_ls)
        np.testing.assert_allclose(z_hat, 0.0, atol=1e-8)

    def test_identity_hypothesis(self, rng):
        x = rng.standard_normal((9, 3))
        y = rng.standard_normal(9)
        c = rng.standard_normal(3)
        beta_hat, z_hat = constrained_ls(x, y, np.eye(3), c)
        np.testing.assert_allclose(beta_hat, c, atol=1e-9)
        np.testing.assert_allclose(z_hat, x.T @ (y - x @ c), atol=1e-8)

    def test_multiplier_dual_norm_is_threshold(self, rng):
        x_vals = rng.standard_normal((10, 4))
        a = rng.standard_normal((2, 4))
        c = rng.standard_normal(2)
        y = rng.standard_normal(10)
        x = DesignMatrix(x_vals)
        red = build_reduction(x, LinearHypothesis(a, c))
        _, z_hat = constrained_ls(x_vals, y, a, c)
        assert np.max(np.abs(z_hat)) == pytest.approx(
            zt_affine_lasso(red, x, y).value, rel=1e-8)
        assert np.linalg.norm(z_hat) == pytest.approx(
            zt_affine_group_lasso(red, x, y, partition=[(0, 1)]).value, rel=1e-8)

    def test_fitted_values_identity(self, rng):
        # X beta_hat = X beta_c + P_{XK_A}(y - X beta_c)
        x_vals = rng.standard_normal((10, 4))
        a = rng.standard_normal((2, 4))
        c = rng.standard_normal(2)
        y = rng.standard_normal(10)
        x = DesignMatrix(x_vals)
        red = build_reduction(x, LinearHypothesis(a, c))
        beta_hat, _ = constrained_ls(x_vals, y, a, c)
        expected = red.x_fit_c + red.project(y - red.x_fit_c)
        np.testing.assert_allclose(x_vals @ beta_hat, expected, atol=1e-8)


def _refusal_problem():
    rng = np.random.default_rng(31)
    return rng.standard_normal((8, 3)), rng.standard_normal(8), np.eye(3)[1:], np.zeros(2)


@pytest.mark.parametrize("call, error, message", [
    (lambda x, y, a, c: solve_affine_lasso(x, y, a, c, lam=-1.0), DimensionMismatch,
     "lambda must be nonnegative"),
    (lambda x, y, a, c: solve_affine_lasso(x, y, a, c, lam=0.1), NoConvergence,
     "no convergence after 1 iterations"),
    # the threshold is of order 1e30, beyond the bracket's 2^80
    (lambda x, y, a, c: oracle_zero_threshold(x, 1e30 * y, a, c), NoConvergence,
     "could not bracket"),
    (lambda x, y, a, c: constrained_ls(x, y[:5], a, c), DimensionMismatch,
     "inconsistent shapes in constrained_ls"),
    (lambda x, y, a, c: constrained_ls(np.zeros((5, 2)), y[:5], np.zeros((1, 2)), c[:1]),
     SingularSystem, "KKT block system is singular"),
    (lambda x, y, a, c: constrained_ls(np.column_stack([np.ones(5), 1e-9 * np.arange(5.0)]),
                                       y[:5], np.eye(2)[:1], c[:1]),
     SingularSystem, "KKT block system is numerically singular"),
], ids=["negative_lambda", "iteration_cap", "no_bracket", "ls_shapes", "ls_singular",
        "ls_ill_conditioned"])
def test_each_refusal_is_typed(monkeypatch, call, error, message):
    # one FISTA step cannot reach the KKT tolerance; the other cases keep
    # the full cap, since their solves must converge
    if message.startswith("no convergence"):
        monkeypatch.setattr(oracle, "_MAX_ITER", 1)
    with pytest.raises(error, match=message):
        call(*_refusal_problem())
