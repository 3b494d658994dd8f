"""Zero-thresholding statistics evaluated in closed form.

Each statistic is a pure function of the data; the affine family also
needs the precomputed :class:`~threshtest.core.ReducedProblem`. An
:class:`Evaluator` binds a :class:`StatisticSpec` to its design and
evaluates N x M response batches for the Monte-Carlo calibration, and, for
the affine families, (G, N, M) stacks of them for a confidence region's
candidates: the affine pass and the reductions act on the last two axes,
so both take the same code. The scalar statistic functions below are its
one-column case.

Every statistic is a norm of one score vector z, divided by a scale for
the square-root, Fisher and GLM score families. An evaluator's batch pass
(``_parts``) gives (z, scale, degenerate mask) per column: the affine
(A A^T)^{-1} A X^T r and ||r||, Fisher's lambda_0 as a 1 x M z and S_2,
lad_sign's X^T sign(y) with no scale, or the GLM score X_tested^T (Y - ybar)
and sqrt(N xi_hat). One rule (``_reduce``) takes the sup norm or the largest
block 2-norm of z and divides by the scale where the draw is not degenerate,
so ``evaluate_many`` makes one pass for a family's statistics on one design.
A :class:`Composite` is the larger of two evaluators' statistics over their
thresholds; ``evaluate_many`` evaluates its components in their shared passes.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from .core import (
    DesignMatrix,
    GlmFamily,
    _as_design,
    _partition_blocks,
    _validate_partition,
    build_reduction,
    glm_family,
    residual_parts,
)
from .exceptions import (
    DegenerateStatistic,
    DimensionMismatch,
    NotApplicable,
    OverflowGuard,
    RankDeficient,
)

__all__ = [
    "StatisticSpec",
    "StatValue",
    "ALL_FAMILIES",
    "AFFINE_FAMILIES",
    "SQRT_FAMILIES",
    "GLM_FAMILIES",
    "zt_affine_lasso",
    "zt_affine_group_lasso",
    "zt_sqrt_variant",
    "fisher_F",
    "zt_lad",
    "link_identity_residual",
    "build_evaluator",
    "Composite",
    "evaluate_many",
]

AFFINE_FAMILIES = (
    "affine_lasso",
    "affine_group_lasso",
    "sqrt_affine_lasso",
    "sqrt_affine_group_lasso",
)
SQRT_FAMILIES = ("sqrt_affine_lasso", "sqrt_affine_group_lasso")
GLM_FAMILIES = ("glm_score_sup", "glm_score_group")
ALL_FAMILIES = AFFINE_FAMILIES + ("fisher_weighted", "lad_sign") + GLM_FAMILIES


@dataclass(frozen=True)
class StatValue:
    """A nonnegative statistic value; ``degenerate`` marks a vanished denominator."""

    value: float
    degenerate: bool = False


@dataclass(frozen=True)
class StatisticSpec:
    """Which zero-thresholding statistic to use, plus its structure.

    ``row_partition`` (0-indexed blocks) only matters for the group
    families, and None leaves the blocks to the :class:`Evaluator`;
    ``glm_family`` only for the GLM score ones and may be a tag string.
    """

    family: str
    row_partition: Optional[Sequence[Sequence[int]]] = None
    glm_family: Optional[GlmFamily] = None

    def __post_init__(self):
        if self.family not in ALL_FAMILIES:
            raise NotApplicable(f"unknown statistic family {self.family!r}")
        if self.glm_family is not None:
            object.__setattr__(self, "glm_family", glm_family(self.glm_family))
        if self.family in GLM_FAMILIES and self.glm_family is None:
            raise NotApplicable(f"{self.family} requires a glm_family")
        if self.row_partition is not None:
            object.__setattr__(self, "row_partition", _partition_blocks(self.row_partition))

    @property
    def is_group(self):
        return self.family in ("affine_group_lasso", "sqrt_affine_group_lasso",
                               "glm_score_group")

    @property
    def is_sqrt(self):
        return self.family in SQRT_FAMILIES


def _statistic_id(family, blocks, glm_family):
    """``family|groups=...|family=tag``, leaving out a part that is None."""
    parts = [family]
    if blocks is not None:
        parts.append("groups=" + ";".join(",".join(str(i) for i in block) for block in blocks))
    if glm_family is not None:
        parts.append("family=" + glm_family.tag)
    return "|".join(parts)


def zt_affine_lasso(red, x, y):
    """lambda_0(y) = || (A A^T)^{-1} A X^T r ||_inf (affine lasso closed form)."""
    return Evaluator(StatisticSpec("affine_lasso"), x, red=red).evaluate(y)


def zt_affine_group_lasso(red, x, y, partition=None):
    """max over blocks of || [(A A^T)^{-1} A X^T r]^{H_l} ||_2.

    ``partition=None`` means one block over all rows of A.
    """
    spec = StatisticSpec("affine_group_lasso", row_partition=partition)
    return Evaluator(spec, x, red=red).evaluate(y)


def zt_sqrt_variant(red, x, y, base="lasso", partition=None):
    """Square-root variant: the base statistic divided by ||r||_2 (scale pivotal).

    ``base="group"`` with ``partition=None`` means one block over all rows of A.
    """
    family = {"lasso": "sqrt_affine_lasso", "group": "sqrt_affine_group_lasso"}.get(base)
    if family is None:
        raise NotApplicable(f"unknown base {base!r}")
    return Evaluator(StatisticSpec(family, row_partition=partition), x, red=red).evaluate(y)


@contextmanager
def _overflow_guard():
    """Raise a float overflow in the block as OverflowGuard: the inf or 0
    that follows from responses near the float range would read as a value."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise OverflowGuard(f"responses too large for the statistic: {exc}") from None


def _affine_parts(red, x, y_mat, with_norm):
    """(z, ||r||, degenerate mask) for each column y of an N x M batch or of
    a (G, N, M) stack, acting on the last two axes, with v = y - X beta_c,
    r = (I - Q Q^T) v and z = (A A^T)^{-1} A X^T r; ``||r||`` and the mask
    are None unless ``with_norm``. A stack takes the products of a batch
    item by item, so each column of it gets the bits it gets on its own."""
    r_mat, qtv = residual_parts(red, x, y_mat)
    z = red.apply_pseudo(x.values.T @ r_mat)
    if not with_norm:
        return z, None, None
    denom = _kernels.norm_cols(r_mat)
    # a y in the null fit space leaves only rounding noise in r, so ||r|| is
    # judged against ||y - X beta_c||^2 = ||r||^2 + ||Q^T v||^2
    scale = np.sqrt(denom * denom + (qtv * qtv).sum(axis=-2))
    return z, denom, denom <= max(x.n, x.p) * np.finfo(float).eps * scale


def _full_rank_ls(x, hyp):
    """Pieces for the Fisher-weighted statistic; requires rank(X) = P < N."""
    x = _as_design(x)
    n, p = x.n, x.p
    if p >= n:
        raise NotApplicable(f"fisher statistic needs P < N, got P={p}, N={n}")
    q, rr = np.linalg.qr(x.values)
    diag = np.abs(np.diag(rr))
    if np.min(diag) <= max(n, p) * np.finfo(float).eps * np.max(diag):
        raise RankDeficient("X is numerically column-rank deficient")
    # (X^T X)^{-1} A^T via the QR factor
    rinv_at = np.linalg.solve(rr, np.linalg.solve(rr.T, hyp.a_matrix.T))
    m = hyp.a_matrix @ rinv_at  # A (X^T X)^{-1} A^T
    l = np.linalg.cholesky(m)
    return x, q, rr, l


class _Fisher(NamedTuple):
    lam0: np.ndarray
    s2: np.ndarray  # S_2^2 = RSS / (N - P)
    f: np.ndarray  # lambda_0^2 / (S_2^2 R); 0 where degenerate
    df1: int
    df2: int
    degenerate: np.ndarray


def _fisher_batch(x, hyp, y_mat):
    """lambda_0, S_2^2 and the F-test of H0 for an N x M batch of responses.

    A y in the column span of X leaves ||y - X beta_hat|| of order
    max(N, P) eps ||y||. Such a column's RSS is rounding noise: it is marked
    degenerate and gets F = 0, so its F-test p-value is 1. A batch whose
    squares overflow raises OverflowGuard.
    """
    x, q, rr, l = _full_rank_ls(x, hyp)
    with _overflow_guard():
        qty = q.T @ y_mat
        beta = np.linalg.solve(rr, qty)
        fit = q @ qty
        rss = np.sum((y_mat - fit) ** 2, axis=0)
        d = hyp.a_matrix @ beta - hyp.c_vector[:, None]
        w = np.linalg.solve(l, d)
        lam0 = np.sqrt(np.maximum(np.sum(w * w, axis=0), 0.0))
        df2 = x.n - x.p
        s2 = rss / df2
        tol = max(x.n, x.p) * np.finfo(float).eps
        degen = rss <= tol * tol * np.sum(y_mat * y_mat, axis=0)
        f = np.zeros_like(lam0)
        np.divide(lam0 ** 2, s2 * hyp.r, out=f, where=~degen)
    return _Fisher(lam0, s2, f, hyp.r, df2, degen)


def _f_test(x, hyp, y_mat, alpha):
    """The exact F-test of H0 on each column of an N x M batch: its
    ``_fisher_batch`` pieces, its p-values and its rejections, p <= alpha.
    A degenerate column has F = 0, so p = 1 and no rejection."""
    fisher = _fisher_batch(x, hyp, y_mat)
    p = _f_sf(fisher.f, fisher.df1, fisher.df2)
    return fisher, p, p <= alpha


# The F and chi-squared tails of the classical baselines. Each calls the
# scipy.special function that scipy.stats' f or chi2 calls, so its values are
# bit-identical to scipy.stats'. scipy.special is imported at the first call:
# importing threshtest loads no scipy module, and scipy.stats costs seconds.

def _f_sf(x, df1, df2):
    """P(F > x) for F ~ F(df1, df2), as ``scipy.stats.f.sf``: 1 at x = 0.

    A negative x gives NaN where scipy.stats gives 1; no caller passes one,
    since F is 0 where degenerate.
    """
    from scipy import special
    return special.fdtrc(df1, df2, x)


def _f_ppf(q, df1, df2):
    """The q-quantile of F(df1, df2), as ``scipy.stats.f.ppf``."""
    from scipy import special
    return special.fdtri(df1, df2, q)


def _chi2_sf(x, df):
    """P(X > x) for X ~ chi-squared(df), as ``scipy.stats.chi2.sf``: 1 at x = 0.

    A negative x gives NaN where scipy.stats gives 1; no caller passes one,
    since the likelihood-ratio statistic is clipped at 0.
    """
    from scipy import special
    return special.chdtrc(df, x)


def _chi2_ppf(q, df):
    """The q-quantile of chi-squared(df), as ``scipy.stats.chi2.ppf``."""
    from scipy import special
    return 2 * special.gammaincinv(df / 2, q)


def fisher_F(x, hyp, y):
    """Classical F statistic computed through the thresholding route.

    Returns (F, df1, df2) with F = lambda_0^2 / (S_2^2 R),
    S_2^2 = RSS / (N - P). Raises DegenerateStatistic when y lies in the
    column span of X, where the RSS is rounding noise.
    """
    fisher = _fisher_batch(x, hyp, np.asarray(y, dtype=float)[:, None])
    if fisher.degenerate[0]:
        raise DegenerateStatistic("RSS vanished: y lies in the column span of X")
    return float(fisher.f[0]), fisher.df1, fisher.df2


def zt_lad(x, y):
    """LAD-lasso sign statistic ||X^T sign(y)||_inf over every column of x,
    with sign(0) = 0."""
    x = x.values if isinstance(x, DesignMatrix) else x
    return Evaluator(StatisticSpec("lad_sign"), x).evaluate(y)


def _glm_parts(x_mat, y_mat, family):
    """(z, sqrt(N xi_hat), degenerate mask) for each column y of an N x M
    batch, with z = X^T (y - ybar 1) and xi_hat the family's null variance
    (taken as 1 where it is degenerate)."""
    n = y_mat.shape[0]
    ybar = np.mean(y_mat, axis=0)
    z = x_mat.T @ (y_mat - ybar[None, :])
    if family.tag == "gaussian":
        xi = np.var(y_mat, axis=0, ddof=1)
        # a constant y leaves rounding noise of order (eps |y|)^2 in the
        # variance, so sqrt(xi) is judged against N eps rms(y)
        tol = n * np.finfo(float).eps
        degen = xi <= tol * tol * np.mean(y_mat * y_mat, axis=0)
    else:
        xi = ybar * (1.0 - ybar) if family.tag == "bernoulli" else ybar
        degen = xi <= 0.0
    return z, np.sqrt(n * np.where(degen, 1.0, xi)), degen


def link_identity_residual(family, x_grid):
    """Pointwise {h'(x)}^2 - V(h(x)) on the pivotal link's domain."""
    family = glm_family(family)
    x_grid = family.check_pivotal_domain(x_grid)
    h = family.pivotal_inverse_link(x_grid)
    return family.pivotal_derivative(x_grid) ** 2 - family.variance(h)


class Evaluator:
    """Bound statistic: evaluates one StatisticSpec on vectors or N x M batches.

    A group statistic's blocks are the spec's partition, else an affine
    family's hypothesis's, else one block over all its rows: the rows of A,
    or the tested columns for glm_score_group. ``block_ids`` maps each row
    to its block (None for the other families), and ``statistic_id`` names
    the blocks, so equal statistics have equal ids.
    """

    def __init__(self, spec, x, hyp=None, red=None):
        x = _as_design(x)
        fam = spec.family
        self.spec = spec
        self.x = x
        self.hyp = hyp
        self.red = None
        self.block_ids, self._n_blocks = None, None
        # whether _reduce divides the norm of z by the pass's scale
        self._scaled = spec.is_sqrt or fam == "fisher_weighted" or fam in GLM_FAMILIES
        # evaluators with equal keys compute equal parts from one batch
        self._share_key = self
        part = spec.row_partition
        if fam in AFFINE_FAMILIES:
            if hyp is None and red is None:
                raise NotApplicable(f"{fam} requires a hypothesis or a reduction")
            self.red = red if red is not None else build_reduction(x, hyp)
            self._share_key = ("affine", id(self.red), id(x))
            n_rows = self.red.r
            if part is None and hyp is not None:
                part = hyp.row_partition
        elif fam == "fisher_weighted":
            if hyp is None:
                raise NotApplicable("fisher_weighted requires a hypothesis")
            _full_rank_ls(x, hyp)  # applicability check up front
        else:  # lad_sign and the glm score families read the tested columns
            self._tested = x.tested_values()
            n_rows = self._tested.shape[1]
            if fam in GLM_FAMILIES:
                self._share_key = ("glm", id(x), spec.glm_family.tag)
        blocks = None
        if spec.is_group:
            blocks = ((tuple(range(n_rows)),) if part is None
                      else _validate_partition(part, n_rows))
            self.block_ids = np.empty(n_rows, dtype=np.int64)
            for l, block in enumerate(blocks):
                self.block_ids[list(block)] = l
            self._n_blocks = len(blocks)
        self.statistic_id = _statistic_id(fam, blocks, spec.glm_family)

    def evaluate_batch(self, y_mat):
        """Return (values, degenerate_mask) for an N x M response matrix, or
        (G, M) ones for a (G, N, M) stack of an affine family: one pass and
        its reduction, under the overflow guard. Responses of another shape
        raise DimensionMismatch."""
        y_mat = np.asarray(y_mat, dtype=float)
        _check_responses(self, y_mat)
        with _overflow_guard():
            return self._reduce(self._parts(y_mat))

    def evaluate(self, y):
        vals, degen = self.evaluate_batch(np.asarray(y, dtype=float)[:, None])
        return StatValue(float(vals[0]), degenerate=bool(degen[0]))

    @property
    def components(self):
        return (self,)

    def _combine(self, results):
        return results[0]

    def _parts(self, y_mat):
        """The batch pass: (z, scale, degenerate mask) for each column of
        ``y_mat``, with a scale and mask of None where nothing is divided."""
        fam = self.spec.family
        if fam in AFFINE_FAMILIES:
            return _affine_parts(self.red, self.x, y_mat, with_norm=self._scaled)
        if fam in GLM_FAMILIES:
            return _glm_parts(self._tested, y_mat, self.spec.glm_family)
        if fam == "fisher_weighted":
            # studentized by S2 so the statistic is pivotal in sigma and
            # Monte-Carlo calibration under unit-variance nulls is valid
            fisher = _fisher_batch(self.x, self.hyp, y_mat)
            return fisher.lam0[None, :], np.sqrt(fisher.s2), fisher.degenerate
        if self.x.intercept_column is not None:  # lad_sign: center by the median
            y_mat = y_mat - np.median(y_mat, axis=0)[None, :]
        return self._tested.T @ np.sign(y_mat), None, None

    def _reduce(self, parts):
        """(values, degenerate mask): the sup norm or the largest block
        2-norm of z, divided by the scale where the draw is not degenerate."""
        z, scale, degen = parts
        if self.block_ids is None:
            vals = _kernels.sup_abs_cols(z)
        else:
            vals = _kernels.block_max_norm_cols(z, self.block_ids, self._n_blocks)
        if not self._scaled:
            return vals, np.zeros(vals.shape, dtype=bool)
        out = np.zeros_like(vals)
        np.divide(vals, scale, out=out, where=~degen)
        return out, degen


def build_evaluator(spec, x, hyp=None, red=None):
    """Construct the bound evaluator for (spec, X, hypothesis)."""
    return Evaluator(spec, x, hyp=hyp, red=red)


class Composite:
    """The composite statistic max(lambda^(1) / t_1, lambda^(2) / t_2) of two
    evaluators and their thresholds t_1 and t_2. It is degenerate, with
    value 0, where either component is; only the other columns are divided,
    so a threshold of +inf takes them to 0, never a degenerate one to NaN.
    """

    def __init__(self, ev1, ev2, threshold1, threshold2):
        self.components = (ev1, ev2)
        self.thresholds = (threshold1, threshold2)
        self.statistic_id = f"composite({ev1.statistic_id},{ev2.statistic_id})"

    def evaluate_batch(self, y_mat):
        """(values, degenerate mask) through ``evaluate_many``, which gives
        the components one shared pass and applies ``_combine``."""
        return evaluate_many([self], y_mat)[0]

    evaluate = Evaluator.evaluate

    def _combine(self, results):
        degen = results[0][1] | results[1][1]
        ratio1, ratio2 = (np.divide(vals, t, out=np.zeros_like(vals), where=~degen)
                          for (vals, _), t in zip(results, self.thresholds))
        return np.maximum(ratio1, ratio2), degen


def _check_responses(ev, y_mat):
    """DimensionMismatch unless ``y_mat`` is N x M for the N of ``ev``'s
    design, or, for an affine family, a (G, N, M) stack of such batches."""
    affine = ev.spec.family in AFFINE_FAMILIES
    if y_mat.ndim not in ((2, 3) if affine else (2,)) or y_mat.shape[-2] != ev.x.n:
        raise DimensionMismatch(
            f"responses must be N x M with N = {ev.x.n}"
            f"{', or a (G, N, M) stack of them' if affine else ''}, got shape {y_mat.shape}")


def evaluate_many(evaluators, y_mat):
    """``[ev.evaluate_batch(y_mat) for ev in evaluators]``, with one batch
    pass per set of evaluators that share their parts.

    A Composite is evaluated through its components, and an evaluator that
    is listed more than once, alone or in a composite, is evaluated once.
    Affine evaluators share parts when they hold the same reduction and
    design, GLM score evaluators when they hold the same design and family;
    Fisher and lad_sign evaluators each make their own pass. A group's
    parts come from a square-root member when it has one, so they carry
    ||r||; the other members ignore it. Every value equals the evaluator's
    own ``evaluate_batch`` bit for bit. A batch of a shape that any
    evaluator's ``evaluate_batch`` refuses raises DimensionMismatch, and one
    whose values overflow a pass or a reduction raises OverflowGuard.
    """
    y_mat = np.asarray(y_mat, dtype=float)
    bound = list(dict.fromkeys(ev for item in evaluators for ev in item.components))
    for ev in bound:
        _check_responses(ev, y_mat)
    groups = {}
    for ev in bound:
        groups.setdefault(ev._share_key, []).append(ev)
    with _overflow_guard():
        parts = {key: max(group, key=lambda ev: ev._scaled)._parts(y_mat)
                 for key, group in groups.items()}
        results = {ev: ev._reduce(parts[ev._share_key]) for ev in bound}
        return [item._combine([results[ev] for ev in item.components]) for item in evaluators]
