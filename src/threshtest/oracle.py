"""Brute-force validation oracles for the closed-form statistics.

These solve the affine (group) lasso objective directly at toy scale and
locate the smallest penalty at which A beta_hat = c by bisection, fully
independently of the closed forms they are used to check.
"""

from dataclasses import dataclass

import numpy as np

from .core import DesignMatrix
from .exceptions import DimensionMismatch, NoConvergence, SingularSystem, ThreshTestError

__all__ = [
    "SolveReport",
    "solve_affine_lasso",
    "oracle_zero_threshold",
    "constrained_ls",
]

_MAX_N = 200
_MAX_P = 50
# FISTA stops at a KKT residual of _KKT_TOL, or fails after _MAX_ITER steps;
# A beta - c is zero up to _ACT_TOL; bisection stops at a _BISECT_TOL bracket
_KKT_TOL = 1e-9
_MAX_ITER = 200000
_ACT_TOL = 1e-8
_BISECT_TOL = 1e-6


class UnsupportedScale(ThreshTestError):
    """Problem too large for the validation-scale oracle."""


@dataclass
class SolveReport:
    beta_hat: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


def _check_scale(x):
    n, p = x.shape
    if n > _MAX_N or p > _MAX_P:
        raise UnsupportedScale(f"oracle limited to N <= {_MAX_N}, P <= {_MAX_P}")


def _blocks(partition, r):
    # one block by default; an l1 penalty is the same for any blocks
    return [np.arange(r)] if partition is None else [np.asarray(b, dtype=int) for b in partition]


def _prox(d, step_lam, blocks, j):
    out = d.copy()
    if j == 1:
        np.sign(d, out=out)
        out *= np.maximum(np.abs(d) - step_lam, 0.0)
        return out
    for b in blocks:
        nrm = np.linalg.norm(d[b])
        out[b] = 0.0 if nrm <= step_lam else (1.0 - step_lam / nrm) * d[b]
    return out


def _penalty(d, blocks, j):
    if j == 1:
        return float(np.sum(np.abs(d)))
    return float(sum(np.linalg.norm(d[b]) for b in blocks))


def _kkt_residual(x, y, a, beta, c, lam, blocks, j):
    """Stationarity violation for 0 in X^T(X beta - y) + lam A^T s."""
    g = x.T @ (x @ beta - y)
    scale = max(1.0, float(np.max(np.abs(x.T @ y))))
    if lam == 0.0:
        return float(np.max(np.abs(g))) / scale
    # least-squares subgradient candidate: s = -(A A^T)^{-1} A g / lam
    s = -np.linalg.solve(a @ a.T, a @ g) / lam
    res = float(np.max(np.abs(g + lam * (a.T @ s)))) / scale
    d = a @ beta - c
    viol = 0.0
    for b in blocks:
        db = d[b]
        sb = s[b]
        if j == 1:
            for r in range(db.shape[0]):
                if abs(db[r]) > _ACT_TOL:
                    viol = max(viol, abs(sb[r] - np.sign(db[r])))
                else:
                    viol = max(viol, abs(sb[r]) - 1.0)
        else:
            nrm = np.linalg.norm(db)
            if nrm > _ACT_TOL:
                viol = max(viol, float(np.max(np.abs(sb - db / nrm))))
            else:
                viol = max(viol, float(np.linalg.norm(sb)) - 1.0)
    return max(res, viol)


def solve_affine_lasso(x, y, a_matrix, c, lam, j=1, partition=None, init=None):
    """Solve min 0.5||y - X beta||^2 + lam sum_l ||A^{H_l} beta - c_{H_l}||_j.

    Uses FISTA after the change of variables beta = K_A u + A^+ (c + d),
    which makes the penalty separable in d. Validation scale only.
    """
    if isinstance(x, DesignMatrix):
        x = x.values
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    _check_scale(x)
    n, p = x.shape
    r = a.shape[0]
    if a.shape[1] != p or c.shape[0] != r or y.shape[0] != n:
        raise DimensionMismatch("inconsistent shapes in solve_affine_lasso")
    if lam < 0:
        raise DimensionMismatch("lambda must be nonnegative")
    blocks = _blocks(partition, r)

    u_a, s_a, vh_a = np.linalg.svd(a, full_matrices=True)
    k_a = vh_a[r:].T                       # basis of ker(A)
    a_pinv = vh_a[:r].T @ (u_a.T / s_a[:, None])   # A^+
    basis = np.hstack([k_a, a_pinv])       # beta = basis @ (u, c + d)
    xb = x @ basis
    lip = np.linalg.norm(xb, 2) ** 2
    step = 1.0 / lip if lip > 0 else 1.0
    offset = xb[:, p - r:] @ c             # X A^+ c
    grad_mat = xb.T @ xb
    grad_rhs = xb.T @ (y - offset)

    w = np.zeros(p) if init is None else init.copy()
    z = w.copy()
    t = 1.0
    check_every = 50
    it = 0
    for it in range(1, _MAX_ITER + 1):
        grad = grad_mat @ z - grad_rhs
        w_new = z - step * grad
        w_new[p - r:] = _prox(w_new[p - r:], step * lam, blocks, j)
        # gradient-scheme adaptive restart: recovers linear convergence on
        # strongly convex instances regardless of conditioning
        if np.dot(z - w_new, w_new - w) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = w_new + ((t - 1.0) / t_new) * (w_new - w)
        moved = np.max(np.abs(w_new - w))
        w, t = w_new, t_new
        if it % check_every == 0 or moved <= 1e-15:
            beta = basis[:, :p - r] @ w[:p - r] + a_pinv @ (c + w[p - r:])
            if _kkt_residual(x, y, a, beta, c, lam, blocks, j) <= _KKT_TOL:
                break
            if moved <= 1e-15:
                # machine-precision fixed point of the prox-gradient map:
                # the iterate cannot improve even if the subgradient
                # certificate is direction-limited on near-zero blocks
                break
    else:
        beta = basis[:, :p - r] @ w[:p - r] + a_pinv @ (c + w[p - r:])
        if _kkt_residual(x, y, a, beta, c, lam, blocks, j) > np.sqrt(_KKT_TOL):
            raise NoConvergence(f"no convergence after {_MAX_ITER} iterations")
    beta = basis[:, :p - r] @ w[:p - r] + a_pinv @ (c + w[p - r:])
    obj = 0.5 * np.sum((y - x @ beta) ** 2) + lam * _penalty(a @ beta - c, blocks, j)
    report = SolveReport(
        beta_hat=beta,
        objective=float(obj),
        kkt_residual=_kkt_residual(x, y, a, beta, c, lam, blocks, j),
        iterations=it,
    )
    report._w = w  # warm-start handle for the bisection driver
    return report


def oracle_zero_threshold(x, y, a_matrix, c, j=1, partition=None):
    """Bisection estimate of the smallest lambda with A beta_hat = c."""
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))

    warm = {"w": None}

    def reached(lam):
        rep = solve_affine_lasso(x, y, a, c, lam, j=j, partition=partition,
                                 init=warm["w"])
        warm["w"] = rep._w
        return np.max(np.abs(a @ rep.beta_hat - c)) <= _ACT_TOL

    if reached(0.0):
        return 0.0
    hi = 1.0
    for _ in range(80):
        if reached(hi):
            break
        hi *= 2.0
    else:
        raise NoConvergence("could not bracket the zero threshold")
    lo = 0.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def constrained_ls(x, y, a_matrix, c):
    """Equality-constrained least squares via the KKT block system.

    Returns (beta_hat, z_hat) where z_hat is the Lagrange multiplier
    z_hat = (A A^T)^{-1} A X^T (y - X beta_hat); its dual norm equals
    the closed-form zero threshold.
    """
    if isinstance(x, DesignMatrix):
        x = x.values
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n, p = x.shape
    r = a.shape[0]
    if a.shape[1] != p or c.shape[0] != r or y.shape[0] != n:
        raise DimensionMismatch("inconsistent shapes in constrained_ls")
    kkt = np.block([[x.T @ x, a.T], [a, np.zeros((r, r))]])
    rhs = np.concatenate([x.T @ y, c])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("KKT block system is singular") from exc
    cond = np.linalg.cond(kkt)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystem("KKT block system is numerically singular")
    return sol[:p], sol[p:]
