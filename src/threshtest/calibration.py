"""Monte-Carlo calibration of null-thresholding statistics.

The null statistic is simulated M times, and the test-threshold is the
k-th order statistic with k = ceil((M+1)(1-alpha)), a conservative
finite-M reading of the generalized inverse quantile. Replicate m of a
run seeded with s draws from the substream keyed (s, batch, m), so
results do not depend on worker count or evaluation order.

``substream`` is the one definition of a key. A batch seeds all of its
replicates in one vectorised pass (``_substreams``): every replicate's
``SeedSequence`` state words are computed together, and each generator
draws exactly what ``substream`` with the same key would.

``_fill_draws`` is the one definition of a draw: replicates fill the rows
of a reused block, which is added to the null mean into its columns of the
batch. ``simulate_null`` is its one-replicate case. Each batch is drawn
once and evaluated by ``evaluate_many``, so statistics that share a
reduction (or a GLM design and family) share one residual/score pass.

The composite test takes max(lambda_0^(1)/lambda_alpha^(1),
lambda_0^(2)/lambda_alpha^(2)) (``_composite_values``) of a component pair
(``_composite_pair`` gives the default one). ``calibrate_composite``
calibrates the components on batch 0 and kappa_alpha on the composite
values of an independent batch 1. Both thresholds come from one
sort/order-statistic step (``_order_stat``), and ``p_value`` counts the
draws of either kind of calibration.
"""

import math
import operator
import os
import uuid
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DesignMatrix, GlmFamily, LinearHypothesis, ReducedProblem
from .exceptions import (
    DimensionMismatch,
    DomainError,
    InsufficientDraws,
    StatisticMismatch,
)
from .statistics import (
    Evaluator,
    StatisticSpec,
    StatValue,
    build_evaluator,
    evaluate_many,
)

__all__ = [
    "NullModel",
    "CalibrationResult",
    "CompositeCalibration",
    "gaussian_pivotal_null",
    "glm_plugin_null",
    "substream",
    "simulate_null",
    "calibrate",
    "calibrate_many",
    "calibrate_composite",
    "p_value",
    "order_stat_index",
]


def substream(seed, *key):
    """Independent generator for one replicate, keyed by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


# SeedSequence's hash constants. NumPy keeps its entropy mixing and
# generate_state stream-stable across releases, so these never change.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)


def _hash_constants(init, mult, skip, n):
    """The (xor, multiply) constants of n hash steps that follow ``skip`` steps."""
    h = init * pow(mult, skip, 1 << 32) % (1 << 32)
    xor, mul = [], []
    for _ in range(n):
        xor.append(h)
        h = h * mult % (1 << 32)
        mul.append(h)
    return np.array(xor, dtype=np.uint32), np.array(mul, dtype=np.uint32)


def _word_count(value):
    """How many uint32 entropy words SeedSequence makes of an int or a
    sequence of ints (0 still takes one word)."""
    try:
        return max(1, -(-operator.index(value).bit_length() // 32))
    except TypeError:
        return sum(_word_count(v) for v in value)


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 one replicate's precomputed state words."""

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"precomputed state holds 4 uint64 words, not {n_words} {np.dtype(dtype)}")
        return self._words


def _substreams(seed, *prefix, count):
    """Generators equal to ``substream(seed, *prefix, m)`` for m < count.

    SeedSequence mixes the entropy words in order, so the pool after
    (seed, *prefix) is shared; only the last word m is mixed in per
    replicate, for all m at once, followed by ``generate_state(4, uint64)``.
    """
    shared = np.random.SeedSequence(seed, spawn_key=prefix)  # same input checks
    size = shared.pool_size
    # hash steps taken so far: one per pool word, the all-pairs mix, then
    # one per pool word for each entropy word past the (zero-padded) pool
    late = max(_word_count(shared.entropy), size) - size + _word_count(prefix)
    xor_a, mul_a = _hash_constants(_INIT_A, _MULT_A, size * size + size * late, size)
    m = np.arange(count, dtype=np.uint32)[:, None]
    h = (m ^ xor_a) * mul_a
    h ^= h >> _XSHIFT
    pool = np.uint32(_MIX_MULT_L) * shared.pool[None, :] - np.uint32(_MIX_MULT_R) * h
    pool ^= pool >> _XSHIFT
    xor_b, mul_b = _hash_constants(_INIT_B, _MULT_B, 0, 2 * size)
    state = (pool[:, np.arange(2 * size) % size] ^ xor_b) * mul_b
    state ^= state >> _XSHIFT
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
    return (np.random.Generator(np.random.PCG64(_StateWords(row))) for row in words)


@dataclass(frozen=True)
class NullModel:
    """How to draw Y0 =d Y under H0.

    ``gaussian_pivotal`` draws X beta_c + standard normal noise, which is
    enough for statistics pivotal in (beta, sigma). ``glm_plugin`` draws
    i.i.d. family responses at the plug-in null mean h(beta0_hat) = ybar.
    """

    kind: str
    design: DesignMatrix
    hyp: Optional[LinearHypothesis] = None
    reduced: Optional[ReducedProblem] = None
    family: Optional[GlmFamily] = None
    null_mean: Optional[float] = None
    beta0_hat: Optional[float] = None


def gaussian_pivotal_null(design, hyp, reduced):
    return NullModel(kind="gaussian_pivotal", design=design, hyp=hyp, reduced=reduced)


def _check_bernoulli(family, y):
    """DomainError when a bernoulli response holds a value other than 0 or 1."""
    if family.tag == "bernoulli" and not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("bernoulli responses must be 0 or 1")


def glm_plugin_null(design, family, y_observed):
    """Plug-in null model with mean ybar (bernoulli clipped off {0, 1})."""
    y_observed = np.asarray(y_observed, dtype=float)
    n = design.n
    if y_observed.shape != (n,):
        raise DimensionMismatch("response length does not match design")
    if not np.all(np.isfinite(y_observed)):
        raise DimensionMismatch("response contains non-finite entries")
    _check_bernoulli(family, y_observed)
    if family.tag == "poisson" and not np.all(
            (y_observed >= 0.0) & (y_observed == np.floor(y_observed))):
        raise DomainError("poisson responses must be non-negative integers")
    mean = float(np.mean(y_observed))
    if family.tag == "bernoulli":
        mean = min(max(mean, 1.0 / (2 * n)), 1.0 - 1.0 / (2 * n))
    if family.tag == "gaussian":
        beta0_hat = mean
    elif family.tag == "poisson" and mean <= 0.0:
        beta0_hat = -math.inf
    else:
        beta0_hat = float(family.canonical_link(mean))
    return NullModel(kind="glm_plugin", design=design, family=family,
                     null_mean=mean, beta0_hat=beta0_hat)


# replicates drawn into one row block before it is added into its columns
_DRAW_BLOCK = 64


def _fill_draws(model, rngs, out):
    """Write the draw of the m-th generator of ``rngs`` into column m of the
    N x M array ``out``.

    Each replicate fills one row of a reused (_DRAW_BLOCK, N) block: its
    standard normal noise for the gaussian nulls, its whole response for
    the others. A filled block is then added to the null mean (X beta_c, or
    ybar for the gaussian plug-in) once, into its columns of ``out``.
    """
    n, m_draws = out.shape
    if model.kind == "gaussian_pivotal":
        shift = model.reduced.x_fit_c[:, None]
    elif model.family.tag == "gaussian":
        # unit variance: the gaussian score statistic is location/scale
        # invariant, so the choice is immaterial
        shift = model.null_mean
    else:
        shift = None
    block = np.empty((min(_DRAW_BLOCK, m_draws), n))
    rngs = iter(rngs)
    for start in range(0, m_draws, _DRAW_BLOCK):
        rows = block[:min(_DRAW_BLOCK, m_draws - start)]
        for row in rows:
            rng = next(rngs)
            if shift is not None:
                rng.standard_normal(out=row)
            elif model.family.tag == "bernoulli":
                row[:] = rng.binomial(1, model.null_mean, size=n)
            else:
                row[:] = rng.poisson(model.null_mean, size=n)
        cols = out[:, start:start + rows.shape[0]]
        if shift is None:
            cols[...] = rows.T
        else:
            np.add(shift, rows.T, out=cols)
    return out


def simulate_null(model, rng):
    """One draw of Y0 under the null model."""
    return _fill_draws(model, [rng], np.empty((model.design.n, 1)))[:, 0]


def _simulate_batch(model, seed, m_draws, batch):
    """N x M null draws; column m is drawn from ``substream(seed, batch, m)``."""
    return _fill_draws(model, _substreams(seed, batch, count=m_draws),
                       np.empty((model.design.n, m_draws)))


@dataclass(frozen=True)
class CalibrationResult:
    """Sorted null draws plus the calibrated test-threshold."""

    sorted_null_stats: np.ndarray
    lambda_alpha: float
    alpha: float
    m_draws: int
    seed: int
    statistic_id: str

    def save(self, path):
        """Write five ``#`` header lines, then one ``repr`` draw per line.

        The text goes in one write to a temporary file beside ``path``,
        which is then renamed into place, so a reader sees the old file or
        the whole new one, never a part."""
        lines = [f"# statistic_id={self.statistic_id}",
                 f"# m_draws={self.m_draws}",
                 f"# alpha={self.alpha!r}",
                 f"# seed={self.seed}",
                 f"# lambda_alpha={float(self.lambda_alpha)!r}"]
        lines += map(repr, np.asarray(self.sorted_null_stats, dtype=float).tolist())
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "x", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path):
        """Read a file written by :meth:`save`: the leading ``#`` lines are
        the header, and every later line must be one draw. A blank or ``#``
        line among the draws raises ValueError."""
        with open(path) as fh:
            lines = fh.read().split("\n")
        if lines[-1] == "":
            lines.pop()
        n_head = 0
        while n_head < len(lines) and lines[n_head].startswith("#"):
            n_head += 1
        meta = dict(line[1:].strip().partition("=")[::2] for line in lines[:n_head])
        return cls(
            # numpy parses each string as float() does: correctly rounded
            sorted_null_stats=np.array(lines[n_head:], dtype=float),
            lambda_alpha=float(meta["lambda_alpha"]),
            alpha=float(meta["alpha"]),
            m_draws=int(meta["m_draws"]),
            seed=int(meta["seed"]),
            statistic_id=meta["statistic_id"],
        )

    def is_consistent(self):
        """True when there are m_draws sorted draws and lambda_alpha is the
        k-th of them, k = order_stat_index(m_draws, alpha)."""
        draws = self.sorted_null_stats
        if draws.shape != (self.m_draws,) or not np.all(draws[1:] >= draws[:-1]):
            return False
        try:
            k = order_stat_index(self.m_draws, self.alpha)
        except InsufficientDraws:
            return False
        return bool(draws[k - 1] == self.lambda_alpha)


@dataclass(frozen=True)
class CompositeCalibration:
    """Component calibrations plus the composite threshold kappa_alpha."""

    cal_1: CalibrationResult
    cal_2: CalibrationResult
    kappa_alpha: float
    alpha: float
    m_draws: int
    seed: int
    sorted_composite_stats: Optional[np.ndarray] = None

    @property
    def statistic_id(self):
        return f"composite({self.cal_1.statistic_id},{self.cal_2.statistic_id})"


def order_stat_index(m_draws, alpha):
    """1-based order-statistic index k = ceil((M+1)(1-alpha))."""
    if not 0.0 < alpha < 1.0:
        raise InsufficientDraws(f"alpha must be in (0,1), got {alpha}")
    if m_draws < math.ceil(1.0 / alpha) - 1:
        raise InsufficientDraws(
            f"M = {m_draws} < ceil(1/alpha) - 1 = {math.ceil(1.0 / alpha) - 1}"
        )
    # small nudge guards against 0.95 * 100 = 95.000000000000003-type float noise
    k = math.ceil((m_draws + 1) * (1.0 - alpha) - 1e-9)
    k = min(max(k, 1), m_draws)
    return k


def _resolve_evaluator(stat, model):
    if isinstance(stat, Evaluator):
        return stat
    return build_evaluator(stat, model.design, hyp=model.hyp, red=model.reduced)


def calibrate(stat, model, m_draws, alpha, seed):
    """Simulate M null draws of the statistic and take the upper alpha quantile."""
    return calibrate_many([stat], model, m_draws, alpha, seed)[0]


def calibrate_many(stats, model, m_draws, alpha, seed, batch=0):
    """Calibrate several statistics on one shared batch of null draws."""
    k = order_stat_index(m_draws, alpha)
    evaluators = [_resolve_evaluator(s, model) for s in stats]
    y0 = _simulate_batch(model, seed, m_draws, batch)
    results = []
    for ev, (vals, degen) in zip(evaluators, evaluate_many(evaluators, y0)):
        # degenerate draws sort last
        draws, lambda_alpha = _order_stat(np.where(degen, np.inf, vals), k)
        results.append(CalibrationResult(
            sorted_null_stats=draws,
            lambda_alpha=lambda_alpha,
            alpha=alpha,
            m_draws=m_draws,
            seed=seed,
            statistic_id=ev.statistic_id,
        ))
    return results


def _order_stat(draws, k):
    """The draws sorted ascending, and the k-th of them (1-based)."""
    draws = np.sort(draws)
    return draws, float(draws[k - 1])


def p_value(observed, cal, statistic_id=None):
    """Monte-Carlo p-value (1 + #{draws >= observed}) / (M + 1).

    The draws are the null draws of a CalibrationResult, or the composite
    values of a CompositeCalibration.
    """
    if statistic_id is not None and statistic_id != cal.statistic_id:
        raise StatisticMismatch(
            f"observed statistic {statistic_id!r} vs calibration {cal.statistic_id!r}"
        )
    if isinstance(observed, StatValue):
        observed = observed.value
    draws = (cal.sorted_composite_stats if isinstance(cal, CompositeCalibration)
             else cal.sorted_null_stats)
    count = cal.m_draws - int(np.searchsorted(draws, observed, side="left"))
    return (1 + count) / (cal.m_draws + 1)


def calibrate_composite(stat1, stat2, model, m_draws, alpha, seed):
    """Two-batch calibration of the composite max-of-ratios statistic.

    Batch 0 (shared draws) calibrates the component thresholds; an
    independent batch 1 calibrates kappa_alpha for the composite value
    max(lambda_0^(1)/lambda_alpha^(1), lambda_0^(2)/lambda_alpha^(2)).
    """
    ev1, ev2 = (_resolve_evaluator(s, model) for s in (stat1, stat2))
    cal1, cal2 = calibrate_many([ev1, ev2], model, m_draws, alpha, seed, batch=0)
    return _calibrate_kappa(ev1, ev2, cal1, cal2, model, m_draws, alpha, seed)


def _calibrate_kappa(ev1, ev2, cal1, cal2, model, m_draws, alpha, seed):
    """The composite calibration of ``calibrate_composite`` from component
    calibrations ``cal1`` and ``cal2`` already taken on batch 0: batch 1
    calibrates kappa_alpha."""
    k = order_stat_index(m_draws, alpha)
    y0 = _simulate_batch(model, seed, m_draws, batch=1)
    comp, _ = _composite_values(evaluate_many([ev1, ev2], y0), cal1, cal2)
    comp, kappa_alpha = _order_stat(comp, k)
    return CompositeCalibration(
        cal_1=cal1,
        cal_2=cal2,
        kappa_alpha=kappa_alpha,
        alpha=alpha,
        m_draws=m_draws,
        seed=seed,
        sorted_composite_stats=comp,
    )


def _composite_values(results, cal1, cal2):
    """(values, degenerate mask) of the composite statistic
    max(lambda_0^(1)/lambda_alpha^(1), lambda_0^(2)/lambda_alpha^(2)) from
    the component results [(values, degenerate mask)] * 2. A column is
    degenerate when either component is; a degenerate component counts as
    +inf, so degenerate draws sort last. Only the other draws are divided,
    so a threshold of +inf takes them to 0, not a degenerate one to NaN."""
    (_, d1), (_, d2) = results
    ratio1, ratio2 = (np.divide(v, cal.lambda_alpha, out=np.full(v.shape, np.inf), where=~d)
                      for (v, d), cal in zip(results, (cal1, cal2)))
    return np.maximum(ratio1, ratio2), d1 | d2


def _composite_pair(n_rows, glm_family=None):
    """The default components of the composite test: the sup statistic and
    the group statistic over one block of all ``n_rows`` rows. They are the
    square-root affine pair, or the GLM score pair of ``glm_family``."""
    one_block = (tuple(range(n_rows)),)
    if glm_family is None:
        return (StatisticSpec("sqrt_affine_lasso"),
                StatisticSpec("sqrt_affine_group_lasso", row_partition=one_block))
    return (StatisticSpec("glm_score_sup", glm_family=glm_family),
            StatisticSpec("glm_score_group", row_partition=one_block,
                          glm_family=glm_family))
