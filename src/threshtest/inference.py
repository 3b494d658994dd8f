"""User-facing test execution and confidence regions.

``run_test`` wires hypothesis reduction, calibration (cached), statistic
evaluation and the rejection rule together; ``run_composite`` does the
same for the max-of-ratios composite test, whose ``Composite`` evaluator
is calibrated like any other statistic, and ``fisher_weighted`` runs the
exact F-test. ``_decide`` builds every TestResult, the baselines' too: a
degenerate statistic gives p = 1, no rejection and a note. The two
Monte-Carlo tests, through ``_decide_calibrated``, reject when the
statistic exceeds its threshold, and the F-test when p <= alpha.
Confidence regions invert the square-root (scale-pivotal) tests, so one
calibration at c = 0 serves every candidate c. A ``ConfidenceRegion`` is
the one place lambda_CR(c) is evaluated: it keeps the reduction factor of
(X, A) and the evaluator it calibrated at c = 0, and candidates go through
that evaluator in stacked passes of up to 256, each candidate costing only
``X beta_c`` (from ``beta_c``) and its share of a pass of y - X beta_c. The
reduction factor itself is kept on the DesignMatrix, so a test and then
its region, or many responses tested on one design and one A, factor
(X, A) once. ``run_test``, ``run_composite`` and ``baseline_f_test`` refuse
a hypothesis that is not a LinearHypothesis or a SubsetHypothesis with
InvalidSpec, as every test and region refuses a statistic that is not a
StatisticSpec (``run_test`` also takes a family name) and an ``mc`` that is
not a McConfig. ``cr_member`` and ``cr_grid`` refuse a threshold that is
not a real number, None included, with InvalidSpec.

Every Monte-Carlo calibration goes through one ``CalibrationCache`` under
one key function, ``_calibration_key``, by one helper, ``_calibrated``.
``run_test`` (unless given a cache), ``run_composite``,
``confidence_region`` and the power harness of ``simulate``
(``estimate_power`` and ``estimate_level``) use the process cache: up to
32 calibrations in memory, and one file each under THRESHTEST_CACHE_DIR
when that is set. A region's calibration is the one of the test of
H0: A beta = 0, and a composite stores three: its components under the
keys ``run_test`` gives them, and its composite values.
"""

import hashlib
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import statistics
from .calibration import (
    CalibrationResult,
    _check_alpha,
    _check_count,
    _composite_pair,
    calibrate_many,
    gaussian_pivotal_null,
    glm_plugin_null,
    p_value as mc_p_value,
)
from .core import (
    LinearHypothesis,
    ReductionFactor,
    SubsetHypothesis,
    _as_1d,
    _as_candidates,
    _as_design,
    _as_response,
    build_reduction,
    factor_reduction,
)
from .exceptions import DimensionMismatch, InvalidSpec, NotApplicable, UnsupportedDimension
from .statistics import (
    GLM_FAMILIES,
    SQRT_FAMILIES,
    Composite,
    Evaluator,
    StatisticSpec,
    StatValue,
    _f_ppf,
    _statistic_id,
    build_evaluator,
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
    """Monte-Carlo settings shared by all calibrated tests: non-negative integers."""

    m_draws: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_count("m_draws", self.m_draws)
        _check_count("seed", self.seed)


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


def _update(hasher, *parts):
    """Feed ``parts`` to ``hasher``: an array as its float64 bytes, anything
    else as its repr, each followed by ``|``."""
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            hasher.update(repr(part).encode())
        hasher.update(b"|")


def _calibration_key(a_matrix, c_vector, model, mc, alpha):
    """The function that maps an Evaluator or a Composite to the cache key of
    its calibration under H0: A beta = c with null model ``model``, on that
    model's design X.

    A key digests the statistic id and its components' block ids. A group
    statistic's id names its blocks, so the block ids tell apart no two
    equal ids; they stay in the digest so that files written earlier keep
    their names and keep hitting. The intercept column changes lad_sign's
    centering without changing its id, so it is keyed too.
    (X, its intercept column, A, c) is hashed once, for every key.
    """
    x = model.design
    prefix = hashlib.sha256()
    _update(prefix, x.values, x.intercept_column, a_matrix, c_vector)

    def key(statistic):
        hasher = prefix.copy()
        _update(hasher, statistic.statistic_id, *(ev.block_ids for ev in statistic.components),
                mc.m_draws, alpha, mc.seed, model.kind, model.null_mean)
        return hasher.hexdigest()
    return key


def _load_consistent(path, header):
    """The calibration stored at ``path``, or None when it does not parse,
    fails :meth:`CalibrationResult.is_consistent` (say, a truncated file),
    or, when ``header`` is not None, does not carry that
    (statistic_id, m_draws, alpha, seed)."""
    try:
        cal = CalibrationResult.load(path)
    except (OSError, ValueError):
        return None
    if header is not None and header != (cal.statistic_id, cal.m_draws, cal.alpha, cal.seed):
        return None
    return cal if cal.is_consistent() else None


class CalibrationCache:
    """Calibration cache in memory, optionally backed by a directory.

    The directory defaults to THRESHTEST_CACHE_DIR when set; pass
    ``directory=False`` for a memory-only cache. ``max_entries`` bounds the
    entries kept in memory, the least recently used going first; None keeps
    them all. Files on disk are neither bounded nor removed. Entries are
    installed once and never mutated; a file on disk is used only when it is
    consistent, and is otherwise recomputed and rewritten.
    """

    def __init__(self, directory=None, max_entries=None):
        if directory is None:
            directory = os.environ.get("THRESHTEST_CACHE_DIR") or None
        elif directory is False:
            directory = None
        self.directory = directory
        self.max_entries = max_entries
        self._memory = OrderedDict()
        self._lock = threading.Lock()

    def get_or_compute(self, key, compute, header=None):
        """The calibration stored under ``key``; on a miss ``compute()``
        gives it, and it is stored. Unless ``header`` is None, a file under
        ``key`` must also carry that (statistic_id, m_draws, alpha, seed);
        a file that does not is recomputed and rewritten."""
        with self._lock:
            cal = self._memory.get(key)
            if cal is not None:
                self._memory.move_to_end(key)
                return cal
        path = None
        if self.directory is not None:
            path = os.path.join(self.directory, f"cal_{key}.txt")
            cal = _load_consistent(path, header)
        if cal is None:
            cal = compute()
            if path is not None:
                os.makedirs(self.directory, exist_ok=True)
                cal.save(path)
        with self._lock:
            self._memory[key] = cal
            self._memory.move_to_end(key)
            while self.max_entries is not None and len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
        return cal


# calibrations the process-wide default cache keeps in memory (about 16 KB
# each at M = 2000)
_DEFAULT_CACHE_ENTRIES = 32

_default_cache = None


def _get_default_cache():
    global _default_cache
    if _default_cache is None:
        _default_cache = CalibrationCache(max_entries=_DEFAULT_CACHE_ENTRIES)
    return _default_cache


def _calibrated(cache, a_matrix, c_vector, model, mc, alpha, items):
    """One (statistic, calibration) per item of ``items``, in order,
    under H0: A beta = c with null model ``model``. An item is an Evaluator,
    which comes back with its batch-0 calibration, or an (ev1, ev2) pair,
    which comes back as the Composite at the components' batch-0 thresholds
    with its batch-1 calibration. Every calibration, a pair's components'
    too, is read from, or stored in, ``cache`` under its
    :func:`_calibration_key`.

    The first miss of a batch calibrates all of that batch's statistics in
    one ``calibrate_many`` call; by ``evaluate_many``'s contract each equals
    the statistic's own calibration bit for bit.
    """
    if not isinstance(mc, McConfig):
        raise InvalidSpec(f"mc must be a McConfig, got {mc!r}")
    key = _calibration_key(a_matrix, c_vector, model, mc, alpha)

    def cached(stats, batch):
        computed = []

        def compute(i):
            if not computed:
                computed.extend(calibrate_many(stats, model, mc.m_draws, alpha, mc.seed, batch))
            return computed[i]

        return [cache.get_or_compute(key(stat), lambda i=i: compute(i),
                                     (stat.statistic_id, mc.m_draws, alpha, mc.seed))
                for i, stat in enumerate(stats)]

    evaluators = [ev for item in items
                  for ev in (item if isinstance(item, tuple) else (item,))]
    cals = dict(zip(evaluators, cached(evaluators, 0)))
    composites = [Composite(ev1, ev2, cals[ev1].lambda_alpha, cals[ev2].lambda_alpha)
                  for ev1, ev2 in (item for item in items if isinstance(item, tuple))]
    kappa = zip(composites, cached(composites, 1))
    return [next(kappa) if isinstance(item, tuple) else (item, cals[item])
            for item in items]


def _test_inputs(y, x, hyp):
    """(y, X, hypothesis) of a test checked: X as a DesignMatrix, y a finite
    N-vector, and the hypothesis a LinearHypothesis or a SubsetHypothesis,
    which is expanded to its P; InvalidSpec for any other hypothesis."""
    if not isinstance(hyp, (LinearHypothesis, SubsetHypothesis)):
        raise InvalidSpec(f"a test needs a LinearHypothesis or a SubsetHypothesis, "
                          f"got {type(hyp).__name__}")
    x = _as_design(x)
    if isinstance(hyp, SubsetHypothesis):
        hyp = hyp.expand(x.p)
    return _as_response(y, x.n), x, hyp


_DEGENERATE_NOTE = "statistic denominator vanished; conservative no-reject"
_COMPONENT_NOTE = "component statistic degenerate; conservative no-reject"


def _decide(observed, lambda_alpha, p, reject, alpha, statistic_id, mc=McConfig(m_draws=0),
            note=_DEGENERATE_NOTE):
    """The TestResult of ``observed``, with p-value ``p`` and the test's own
    ``reject``. A degenerate statistic gives p = 1, no rejection and ``note``."""
    degenerate = observed.degenerate
    return TestResult(
        observed=observed,
        lambda_alpha=lambda_alpha,
        p_value=1.0 if degenerate else p,
        reject=not degenerate and bool(reject),
        alpha=alpha,
        statistic_id=statistic_id,
        m_draws=mc.m_draws,
        seed=mc.seed,
        degenerate_note=note if degenerate else None,
    )


def _decide_calibrated(statistic, cal, y, alpha, mc, note=_DEGENERATE_NOTE):
    """The TestResult of an Evaluator or a Composite on ``y`` against its
    Monte-Carlo calibration ``cal``: a rejection when the statistic exceeds
    the calibrated ``lambda_alpha``."""
    observed = statistic.evaluate(y)
    return _decide(observed, cal.lambda_alpha, mc_p_value(observed, cal),
                   observed.value > cal.lambda_alpha, alpha, cal.statistic_id, mc, note)


def _fisher_exact_test(y, x, hyp, stat, alpha):
    """Exact-F calibration of the Fisher-weighted thresholding test.

    With Fisher weighting the thresholding test is identical to Fisher's
    F-test, whose null distribution is known exactly, so no Monte-Carlo
    step is needed. It rejects when p <= alpha, as ``baseline_f_test`` does.
    """
    _check_alpha(alpha)
    fisher, p, reject = statistics._f_test(x, hyp, y[:, None], alpha)
    f_crit = float(_f_ppf(1.0 - alpha, fisher.df1, fisher.df2))
    lam_alpha = float(np.sqrt(f_crit * fisher.s2[0] * fisher.df1))
    observed = StatValue(float(fisher.lam0[0]), degenerate=bool(fisher.degenerate[0]))
    return _decide(observed, lam_alpha, float(p[0]), reject[0], alpha,
                   _statistic_id(stat.family, None, stat.glm_family) + "|exact_f")


def _check_spec(stat):
    if not isinstance(stat, StatisticSpec):
        raise InvalidSpec(f"a statistic is a StatisticSpec, got {stat!r}")


def _bind(stats, y, x, hyp):
    """The evaluators of ``stats`` on (X, hypothesis) and the null model
    they share.

    GLM score statistics share the plug-in null of the first one's family
    and need no reduction; every other statistic shares the gaussian
    pivotal null over the one reduction of (X, hypothesis). Anything but a
    StatisticSpec in ``stats`` raises InvalidSpec.
    """
    for stat in stats:
        _check_spec(stat)
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
    or a bare family name; anything else raises InvalidSpec, as an ``mc``
    that is not a McConfig does.
    """
    if isinstance(stat, str):
        stat = StatisticSpec(stat)
    _check_spec(stat)
    y, x, hyp = _test_inputs(y, x, hyp)
    if stat.family == "fisher_weighted":
        return _fisher_exact_test(y, x, hyp, stat, alpha)
    (evaluator,), model = _bind([stat], y, x, hyp)
    if cache is None:
        cache = _get_default_cache()
    ((_, cal),) = _calibrated(cache, hyp.a_matrix, hyp.c_vector, model, mc, alpha, [evaluator])
    return _decide_calibrated(evaluator, cal, y, alpha, mc)


def run_composite(y, x, hyp, stat1=None, stat2=None, alpha=0.05, mc=McConfig()):
    """Composite test rejecting when max of threshold-normalized statistics
    exceeds its own calibrated quantile.

    Defaults to the sqrt affine lasso (sup norm) paired with the sqrt
    affine group lasso, whose blocks are the hypothesis's partition, or
    one block over all rows when it has none. A degenerate component gives
    the observed value 0, p = 1 and no rejection. The three calibrations
    go through the process cache: the components under the keys
    ``run_test`` gives them, and the composite values under their own.
    """
    y, x, hyp = _test_inputs(y, x, hyp)
    default1, default2 = _composite_pair()
    evaluators, model = _bind([stat1 or default1, stat2 or default2], y, x, hyp)
    ((composite, cal),) = _calibrated(_get_default_cache(), hyp.a_matrix, hyp.c_vector, model,
                                      mc, alpha, [tuple(evaluators)])
    return _decide_calibrated(composite, cal, y, alpha, mc, _COMPONENT_NOTE)


def _require_pivotal(stat):
    _check_spec(stat)
    if stat.family not in SQRT_FAMILIES:
        raise NotApplicable(
            "confidence regions need a statistic pivotal in (beta, sigma); "
            "use a square-root variant"
        )


def _check_threshold(lambda_alpha):
    """``lambda_alpha`` unchanged: InvalidSpec unless it is a real scalar, a
    number or a 0-d array (None is refused too, as a given threshold is
    calibrated by nothing), and DimensionMismatch when it is NaN."""
    value = None
    if lambda_alpha is not None and not isinstance(lambda_alpha, (str, bytes)):
        try:
            if np.ndim(lambda_alpha) == 0 and np.isrealobj(lambda_alpha):
                value = float(lambda_alpha)
        except (TypeError, ValueError):  # a ragged list, or no float at all
            pass
    if value is None:
        raise InvalidSpec(f"the threshold lambda_alpha must be a real number, "
                          f"got {lambda_alpha!r}")
    if math.isnan(value):
        raise DimensionMismatch("the threshold lambda_alpha is NaN")
    return lambda_alpha


def _region(y, x, a_matrix, stat, lambda_alpha, alpha=None, mc=None):
    """The region of ``stat`` for (y, X, A) with threshold ``lambda_alpha``,
    or, when that is None, the threshold calibrated at c = 0 with ``alpha``
    and ``mc``."""
    _require_pivotal(stat)
    x = _as_design(x)
    y = _as_response(y, x.n)
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    factor = factor_reduction(x, a)
    red0 = factor.at(np.zeros(factor.r))
    evaluator = build_evaluator(stat, x, red=red0)
    if lambda_alpha is None:
        # the test of H0: A beta = 0 has this evaluator, null model and draws
        # (X beta_0 = 0), so the region shares its cache entry
        model = gaussian_pivotal_null(x, None, red0)
        ((_, cal),) = _calibrated(_get_default_cache(), a, np.zeros(factor.r), model, mc,
                                  alpha, [evaluator])
        lambda_alpha = cal.lambda_alpha
    return ConfidenceRegion(lambda_alpha, factor, y, evaluator)


def cr_member(c, y, x, a_matrix, stat, lambda_alpha):
    """Membership of c in the test-inversion region: lambda_CR(c; y) <= lambda_alpha."""
    return _region(y, x, a_matrix, stat, _check_threshold(lambda_alpha)).member(c)


def cr_grid(y, x, a_matrix, stat, lambda_alpha, grid):
    """Membership mask over a lattice of c candidates (R in {1, 2}), all
    evaluated by one region and so by one evaluator.

    For R = 1 also returns the first and the last member (None when empty).
    They are the endpoints of the member set to within the grid spacing, as
    that set is one interval: lambda_CR(c) = |h^T r(c)| / ||r(c)|| <= ||h||
    with h = (I - P) X A^+ and r(c) = r(0) - c h, so it is the whole line
    or, below ||h||, the sublevel set of a convex quadratic in c.
    """
    region = _region(y, x, a_matrix, stat, _check_threshold(lambda_alpha))
    points, values = region.scan(grid)
    mask = values <= lambda_alpha
    if region.factor.r == 2:
        return mask
    members = np.flatnonzero(mask)
    if not members.size:
        return mask, None
    return mask, (float(points[members[0], 0]), float(points[members[-1], 0]))


# candidates per stacked pass of a region's evaluator: a pass holds a few
# (256, N, 1) stacks, so a scan's memory is O(256 N) for any grid size
_SCAN_BLOCK = 256


@dataclass(frozen=True)
class ConfidenceRegion:
    """Test-inversion region {c : lambda_CR(c; y) <= lambda_alpha}.

    Binds one evaluator: the statistic on the reduction of (X, A) at
    c = 0, the one its threshold was calibrated with. X beta_0 = 0, so
    lambda_CR(c; y) is that evaluator's statistic of y - X beta_c, and no
    ReducedProblem is built per candidate. Candidates go through it in
    blocks of up to 256: one stacked product gives the block's
    ``X beta_c`` as a (G, N, 1) stack, and one pass of the evaluator over
    the last two axes of y - X beta_c gives its values. Each candidate
    gets the bits it gets on its own, and a scan holds O(256 N) floats
    for any grid size. :meth:`lambda_cr` is the one-candidate case.
    """

    lambda_alpha: float
    factor: ReductionFactor
    y: np.ndarray
    evaluator: Evaluator

    def _values(self, points):
        """lambda_CR at each row c of a (G, R) block of candidates (0 where
        degenerate). A candidate that is not finite or not of length R
        raises DimensionMismatch before any pass."""
        points = _as_candidates(points, self.factor.r)
        values = np.empty(len(points))
        for start in range(0, len(points), _SCAN_BLOCK):
            _, x_fit = self.factor._fit(points[start:start + _SCAN_BLOCK])
            # a vanished r means y sits in the null fit space at c: the
            # evaluator's value there is lambda_0 = 0
            vals, _ = self.evaluator.evaluate_batch(self.y[:, None] - x_fit)
            values[start:start + _SCAN_BLOCK] = vals[:, 0]
        return values

    def lambda_cr(self, c):
        """lambda_CR(c; y), the statistic of H0: A beta = c (0 when degenerate)."""
        return float(self._values(_as_1d(np.atleast_1d(c), "c")[None])[0])

    def member(self, c):
        return self.lambda_cr(c) <= self.lambda_alpha

    def scan(self, grid):
        """(points, lambda_CR at each point) for a grid as :func:`cr_grid`
        takes it: (G, R) points, or for R = 1 also a (G,) vector. The points
        come back as a (G, R) array; a grid of any other shape raises
        UnsupportedDimension. The grid goes through the evaluator in
        stacked passes of up to 256 candidates."""
        r = self.factor.r
        if r > 2:
            raise UnsupportedDimension(f"grids support R <= 2, got R = {r}")
        points = np.asarray(grid, dtype=float)
        if points.size == 0 or points.ndim == r == 1:
            points = points.reshape(-1, r)
        elif points.ndim != 2 or points.shape[1] != r:
            raise UnsupportedDimension(f"R = {r} grids must be (G, {r}) arrays of points"
                                       + (" or (G,) vectors" if r == 1 else ""))
        return points, self._values(points)


def confidence_region(y, x, a_matrix, stat=None, alpha=0.05, mc=McConfig()):
    """Build a (1 - alpha) confidence region for A beta by test inversion.

    Defaults to the square-root affine lasso statistic; its pivotality
    in (beta, sigma) means the single calibration at c = 0 is valid for
    every candidate c, and the evaluator it calibrates serves them all.
    That calibration is read from, or stored in, the process cache under
    the key ``run_test`` gives the test of H0: A beta = 0.
    """
    return _region(y, x, a_matrix, stat or StatisticSpec("sqrt_affine_lasso"), None,
                   alpha, mc)
