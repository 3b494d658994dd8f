"""Dense recomputations of the statistics, independent of the library's
reduction: the projector onto range(X K_A) is applied through ``lstsq``
and (A A^T)^{-1} through ``solve``.
"""

import numpy as np

RTOL = 1e-8


def affine_statistic(xv, a, c, y, family):
    """Affine-lasso zero threshold of ``family`` (one group block over all rows)."""
    r = a.shape[0]
    k_a = np.linalg.svd(a)[2][r:].T
    beta_c = np.linalg.lstsq(a, c, rcond=None)[0]
    v = y - xv @ beta_c
    xk = xv @ k_a
    resid = v - xk @ np.linalg.lstsq(xk, v, rcond=None)[0]
    z = np.linalg.solve(a @ a.T, a @ (xv.T @ resid))
    if family in ("affine_lasso", "sqrt_affine_lasso"):
        num = np.max(np.abs(z))
    else:
        num = np.linalg.norm(z)
    if family.startswith("sqrt_"):
        return num / np.linalg.norm(resid)
    return num


def bernoulli_score(x_tested, y):
    """sup-norm GLM score statistic for a bernoulli response."""
    ybar = np.mean(y)
    num = np.max(np.abs(x_tested.T @ (y - ybar)))
    return num / np.sqrt(y.shape[0] * ybar * (1.0 - ybar))


def close(value, ref, shift=0.0):
    """Relative agreement; ``shift`` perturbs the reference (smoke mode)."""
    ref = ref * (1.0 + shift)
    return bool(np.isfinite(value)) and abs(value - ref) <= RTOL * max(abs(ref), 1e-12)
