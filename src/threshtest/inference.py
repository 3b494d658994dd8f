"""User-facing test execution and confidence regions.

``run_test`` wires hypothesis reduction, calibration (cached), statistic
evaluation and the rejection rule together; ``run_composite`` does the
same for the max-of-ratios composite test, and ``fisher_weighted`` runs
the exact F-test. All three decide through ``_decide``: a degenerate
statistic gives p = 1, no rejection and a note; any other statistic
rejects when it exceeds its threshold. Confidence regions invert the
square-root (scale-pivotal) tests, so one calibration at c = 0 serves
every candidate c. A ``ConfidenceRegion`` is the one place lambda_CR(c) is
evaluated: it keeps the reduction factor of (X, A) and the evaluator it
calibrated at c = 0, and each candidate adds only ``beta_c``, ``X beta_c``
and one residual pass of y - X beta_c through that evaluator.
"""

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats as sp_stats

from .calibration import (
    CalibrationResult,
    _composite_pair,
    _composite_values,
    calibrate,
    calibrate_composite,
    gaussian_pivotal_null,
    glm_plugin_null,
    p_value as mc_p_value,
)
from .core import (
    DesignMatrix,
    ReductionFactor,
    SubsetHypothesis,
    build_reduction,
    factor_reduction,
)
from .exceptions import DimensionMismatch, NotApplicable, UnsupportedDimension
from .statistics import (
    GLM_FAMILIES,
    SQRT_FAMILIES,
    Evaluator,
    StatisticSpec,
    StatValue,
    _fisher_batch,
    build_evaluator,
    evaluate_many,
)

__all__ = [
    "McConfig",
    "TestResult",
    "ConfidenceRegion",
    "CalibrationCache",
    "run_test",
    "run_composite",
    "cr_member",
    "cr_grid",
    "confidence_region",
]


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo settings shared by all calibrated tests."""

    m_draws: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class TestResult:
    observed: StatValue
    lambda_alpha: float
    p_value: float
    reject: bool
    alpha: float
    statistic_id: str
    m_draws: int = 0
    seed: int = 0
    degenerate_note: Optional[str] = None

    def to_record(self):
        """Flat key-value record for serialization."""
        return {
            "statistic": self.statistic_id,
            "observed": self.observed.value,
            "lambda_alpha": self.lambda_alpha,
            "p_value": self.p_value,
            "reject": int(self.reject),
            "alpha": self.alpha,
            "M": self.m_draws,
            "seed": self.seed,
            "degenerate_note": self.degenerate_note or "",
        }


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _load_consistent(path):
    """The calibration stored at ``path``, or None when it does not parse or
    fails :meth:`CalibrationResult.is_consistent` (say, a truncated file)."""
    try:
        cal = CalibrationResult.load(path)
    except (OSError, ValueError, KeyError):
        return None
    return cal if cal.is_consistent() else None


class CalibrationCache:
    """Read-mostly calibration cache, optionally backed by a directory.

    The directory defaults to THRESHTEST_CACHE_DIR when set; pass
    ``directory=False`` for a memory-only cache. Entries are installed
    once and never mutated; a file on disk is used only when it is
    consistent, and is otherwise recomputed and rewritten.
    """

    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get("THRESHTEST_CACHE_DIR") or None
        elif directory is False:
            directory = None
        self.directory = directory
        self._memory = {}

    def get_or_compute(self, key, compute):
        cal = self._memory.get(key)
        if cal is not None:
            return cal
        if self.directory is not None:
            path = os.path.join(self.directory, f"cal_{key}.txt")
            if os.path.exists(path):
                cal = _load_consistent(path)
                if cal is not None:
                    self._memory[key] = cal
                    return cal
        cal = compute()
        self._memory[key] = cal
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            cal.save(os.path.join(self.directory, f"cal_{key}.txt"))
        return cal


# calibrations the process-wide default cache keeps in memory (about 16 KB
# each at M = 2000); the least recently used one goes first
_DEFAULT_CACHE_ENTRIES = 32


class _BoundedCalibrationCache(CalibrationCache):
    """A CalibrationCache that keeps only the most recently used entries in
    memory. Files on disk are neither bounded nor removed."""

    def __init__(self, max_entries):
        super().__init__()
        self._memory = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()

    def get_or_compute(self, key, compute):
        cal = super().get_or_compute(key, compute)
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
            while len(self._memory) > self._max_entries:
                self._memory.popitem(last=False)
        return cal


_default_cache = None


def _get_default_cache():
    global _default_cache
    if _default_cache is None:
        _default_cache = _BoundedCalibrationCache(_DEFAULT_CACHE_ENTRIES)
    return _default_cache


def _coerce_inputs(y, x, hyp):
    if not isinstance(x, DesignMatrix):
        x = DesignMatrix(np.asarray(x, dtype=float))
    if isinstance(hyp, SubsetHypothesis):
        hyp = hyp.expand(x.p)
    y = np.asarray(y, dtype=float)
    if y.shape != (x.n,):
        raise DimensionMismatch(f"y must be 1-d of length N = {x.n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise DimensionMismatch("y contains non-finite entries")
    return y, x, hyp


_DEGENERATE_NOTE = "statistic denominator vanished; conservative no-reject"
_COMPONENT_NOTE = "component statistic degenerate; conservative no-reject"


def _decide(observed, lambda_alpha, p, alpha, statistic_id, mc=McConfig(m_draws=0),
            note=_DEGENERATE_NOTE):
    """The TestResult of ``observed`` against its threshold: p-value ``p``,
    and a rejection when the statistic exceeds ``lambda_alpha``. A
    degenerate statistic gives p = 1, no rejection and ``note``."""
    degenerate = observed.degenerate
    return TestResult(
        observed=observed,
        lambda_alpha=lambda_alpha,
        p_value=1.0 if degenerate else p,
        reject=not degenerate and bool(observed.value > lambda_alpha),
        alpha=alpha,
        statistic_id=statistic_id,
        m_draws=mc.m_draws,
        seed=mc.seed,
        degenerate_note=note if degenerate else None,
    )


def _fisher_exact_test(y, x, hyp, stat, alpha):
    """Exact-F calibration of the Fisher-weighted thresholding test.

    With Fisher weighting the thresholding test is identical to Fisher's
    F-test, whose null distribution is known exactly, so no Monte-Carlo
    step is needed.
    """
    fisher = _fisher_batch(x, hyp, y[:, None])
    f_crit = float(sp_stats.f.ppf(1.0 - alpha, fisher.df1, fisher.df2))
    lam_alpha = float(np.sqrt(f_crit * fisher.s2[0] * fisher.df1))
    observed = StatValue(float(fisher.lam0[0]), degenerate=bool(fisher.degenerate[0]))
    p = float(sp_stats.f.sf(fisher.f[0], fisher.df1, fisher.df2))
    return _decide(observed, lam_alpha, p, alpha, stat.fingerprint() + "|exact_f")


def _bind(stats, y, x, hyp):
    """The evaluators of ``stats`` on (X, hypothesis) and the null model
    they share.

    GLM score statistics share the plug-in null of the first one's family
    and need no reduction; every other statistic shares the gaussian
    pivotal null over the one reduction of (X, hypothesis).
    """
    glm = [stat.family in GLM_FAMILIES for stat in stats]
    if any(glm) != all(glm):
        raise NotApplicable("cannot mix gaussian and glm null models")
    red = None if glm[0] else build_reduction(x, hyp)
    evaluators = [build_evaluator(stat, x, hyp=hyp, red=red) for stat in stats]
    if red is None:
        return evaluators, glm_plugin_null(x, stats[0].glm_family, y)
    return evaluators, gaussian_pivotal_null(x, hyp, red)


def run_test(y, x, hyp, stat, alpha=0.05, mc=McConfig(), cache=None):
    """Run one thresholding test and return a populated TestResult.

    Degenerate observed statistics give a conservative no-reject with an
    explanatory note rather than an error. `stat` may be a StatisticSpec
    or a bare family name.
    """
    if isinstance(stat, str):
        stat = StatisticSpec(stat)
    y, x, hyp = _coerce_inputs(y, x, hyp)
    if stat.family == "fisher_weighted":
        return _fisher_exact_test(y, x, hyp, stat, alpha)
    (evaluator,), model = _bind([stat], y, x, hyp)
    if cache is None:
        cache = _get_default_cache()
    # the block ids and the intercept column change the statistic without
    # changing its id, so they are keyed too
    key = _digest(x.values, x.intercept_column, hyp.a_matrix, hyp.c_vector,
                  evaluator.statistic_id, evaluator.block_ids, mc.m_draws, alpha,
                  mc.seed, model.kind, model.null_mean)
    cal = cache.get_or_compute(
        key, lambda: calibrate(evaluator, model, mc.m_draws, alpha, mc.seed))
    observed = evaluator.evaluate(y)
    return _decide(observed, cal.lambda_alpha, mc_p_value(observed, cal), alpha,
                   cal.statistic_id, mc)


def run_composite(y, x, hyp, stat1=None, stat2=None, alpha=0.05, mc=McConfig()):
    """Composite test rejecting when max of threshold-normalized statistics
    exceeds its own calibrated quantile.

    Defaults to the sqrt affine lasso (sup norm) paired with the sqrt
    affine group lasso over a single block. A degenerate component gives
    the observed value 0, p = 1 and no rejection.
    """
    y, x, hyp = _coerce_inputs(y, x, hyp)
    default1, default2 = _composite_pair(hyp.r)
    (ev1, ev2), model = _bind([stat1 or default1, stat2 or default2], y, x, hyp)
    comp = calibrate_composite(ev1, ev2, model, mc.m_draws, alpha, mc.seed)
    values, degen = _composite_values(evaluate_many([ev1, ev2], y[:, None]),
                                      comp.cal_1, comp.cal_2)
    observed = StatValue(0.0, degenerate=True) if degen[0] else StatValue(float(values[0]))
    return _decide(observed, comp.kappa_alpha, mc_p_value(observed, comp), alpha,
                   comp.statistic_id, mc, note=_COMPONENT_NOTE)


def _require_pivotal(stat):
    if stat.family not in SQRT_FAMILIES:
        raise NotApplicable(
            "confidence regions need a statistic pivotal in (beta, sigma); "
            "use a square-root variant"
        )


def _region(y, x, a_matrix, stat, lambda_alpha, alpha=None, mc=None):
    """The region of ``stat`` for (y, X, A) with threshold ``lambda_alpha``,
    or, when that is None, the threshold calibrated at c = 0 with ``alpha``
    and ``mc``."""
    _require_pivotal(stat)
    y, x, _ = _coerce_inputs(y, x, None)
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    factor = factor_reduction(x, a)
    red0 = factor.at(np.zeros(factor.r))
    evaluator = build_evaluator(stat, x, red=red0)
    if lambda_alpha is None:
        lambda_alpha = calibrate(evaluator, gaussian_pivotal_null(x, None, red0),
                                 mc.m_draws, alpha, mc.seed).lambda_alpha
    return ConfidenceRegion(a, lambda_alpha, factor, y, evaluator)


def cr_member(c, y, x, a_matrix, stat, lambda_alpha):
    """Membership of c in the test-inversion region: lambda_CR(c; y) <= lambda_alpha."""
    return _region(y, x, a_matrix, stat, lambda_alpha).member(c)


def cr_grid(y, x, a_matrix, stat, lambda_alpha, grid):
    """Membership mask over a lattice of c candidates (R in {1, 2}), all
    evaluated by one region and so by one evaluator.

    For R = 1 also returns the first and the last member (None when empty).
    They are the endpoints of the member set to within the grid spacing, as
    that set is one interval: lambda_CR(c) = |h^T r(c)| / ||r(c)|| <= ||h||
    with h = (I - P) X A^+ and r(c) = r(0) - c h, so it is the whole line
    or, below ||h||, the sublevel set of a convex quadratic in c.
    """
    region = _region(y, x, a_matrix, stat, lambda_alpha)
    points, values = region.scan(grid)
    mask = values <= lambda_alpha
    if region.factor.r == 2:
        return mask
    members = np.flatnonzero(mask)
    if not members.size:
        return mask, None
    return mask, (float(points[members[0], 0]), float(points[members[-1], 0]))


@dataclass(frozen=True)
class ConfidenceRegion:
    """Test-inversion region {c : lambda_CR(c; y) <= lambda_alpha}.

    Binds one evaluator: the statistic on the reduction of (X, A) at
    c = 0, the one its threshold was calibrated with. X beta_0 = 0, so
    lambda_CR(c; y) is that evaluator's statistic of y - X beta_c, and each
    candidate c costs ``factor.at(c)`` and one residual pass.
    """

    hypothesis_matrix: np.ndarray
    lambda_alpha: float
    factor: ReductionFactor
    y: np.ndarray
    evaluator: Evaluator

    def lambda_cr(self, c):
        """lambda_CR(c; y), the statistic of H0: A beta = c (0 when degenerate)."""
        val = self.evaluator.evaluate(self.y - self.factor.at(np.atleast_1d(c)).x_fit_c)
        # a vanished r means y sits in the null fit space at c: lambda_0 = 0
        return 0.0 if val.degenerate else val.value

    def member(self, c):
        return self.lambda_cr(c) <= self.lambda_alpha

    def scan(self, grid):
        """(points, lambda_CR at each point) for a grid as :func:`cr_grid`
        takes it; the points are a (G, R) array."""
        r = self.factor.r
        if r > 2:
            raise UnsupportedDimension(f"grids support R <= 2, got R = {r}")
        points = np.asarray(grid, dtype=float)
        if r == 1 or points.size == 0:
            points = points.reshape(-1, r)
        elif points.ndim != 2 or points.shape[1] != 2:
            raise UnsupportedDimension("R = 2 grids must be (G, 2) arrays of points")
        return points, np.array([self.lambda_cr(c) for c in points])


def confidence_region(y, x, a_matrix, stat=None, alpha=0.05, mc=McConfig()):
    """Build a (1 - alpha) confidence region for A beta by test inversion.

    Defaults to the square-root affine lasso statistic; its pivotality
    in (beta, sigma) means the single calibration at c = 0 is valid for
    every candidate c, and the evaluator it calibrates serves them all.
    """
    return _region(y, x, a_matrix, stat or StatisticSpec("sqrt_affine_lasso"), None,
                   alpha, mc)
