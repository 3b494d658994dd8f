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

``_fill_draws`` is the one definition of a response draw, for null batches
and the power cells of ``simulate`` alike: replicates fill the rows of a
reused block, which is added to its means (gaussian) or copied (bernoulli,
poisson) into its columns of the batch. A null model draws in the gaussian
family at X beta_c, or in its family at its plug-in mean (``_null_draw``).
``simulate_null`` is the one-replicate case. Each batch is drawn
once and evaluated by ``evaluate_many``, so statistics that share a
reduction (or a GLM design and family) share one residual/score pass.

The composite test takes max(lambda_0^(1)/lambda_alpha^(1),
lambda_0^(2)/lambda_alpha^(2)) of a component pair (``_composite_pair``
gives the default one): a ``Composite`` evaluator, calibrated like any
other statistic. ``calibrate_composite`` calibrates the components on
batch 0 and the Composite at their thresholds on an independent batch 1;
that calibration's threshold is kappa_alpha and its statistic id is
``composite(id1,id2)``. Each is a ``CalibrationResult`` from one
sort/order-statistic step (``_order_stat``). A ``CompositeCalibration``
holds the three, and ``p_value`` counts the draws of a
``CalibrationResult`` only: a composite's p-value counts its
``cal_kappa``.

``CalibrationResult.save`` writes a calibration file: six ``#`` header
lines, the last the SHA-256 of the draws, then the draws as raw
little-endian float64, so a load takes them with one ``np.frombuffer``
and an edited draw, even one that keeps them sorted, is refused.

``_check_alpha`` refuses an alpha outside (0, 1) on every path, exact tests
included; ``_check_count``, a seed or draw count that is not an integer >= 0.
"""

import hashlib
import itertools
import math
import numbers
import operator
import os
import uuid
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DesignMatrix,
    GlmFamily,
    LinearHypothesis,
    ReducedProblem,
    _as_response,
    _is_index,
    glm_family,
)
from .exceptions import DimensionMismatch, DomainError, InsufficientDraws, InvalidSpec
from .statistics import (
    Composite,
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


def _check_response(family, y):
    """DomainError when a bernoulli response holds a value other than 0 or
    1 (NaN included), or a finite poisson response is not a non-negative
    integer. A poisson or gaussian NaN or inf is left to ``_as_response``."""
    y = np.asarray(y, dtype=float)
    if family.tag == "bernoulli" and not np.all((y == 0.0) | (y == 1.0)):
        raise DomainError("bernoulli responses must be 0 or 1")
    if family.tag == "poisson" and not np.all(
            ((y >= 0.0) & (y == np.floor(y))) | ~np.isfinite(y)):
        raise DomainError("poisson responses must be non-negative integers")


def _plugin_null(design, family, mean):
    """The glm_plugin NullModel at null mean ``mean``; a bernoulli mean is
    clipped to [1/(2N), 1 - 1/(2N)], off {0, 1}."""
    n = design.n
    if family.tag == "bernoulli":
        mean = min(max(mean, 1.0 / (2 * n)), 1.0 - 1.0 / (2 * n))
    with np.errstate(divide="ignore"):  # a poisson mean of 0 has link -inf
        beta0_hat = float(family.canonical_link(mean))
    return NullModel(kind="glm_plugin", design=design, family=family,
                     null_mean=mean, beta0_hat=beta0_hat)


def glm_plugin_null(design, family, y_observed):
    """Plug-in null model with mean ybar (bernoulli clipped off {0, 1})."""
    y_observed = _as_response(y_observed, design.n)
    _check_response(family, y_observed)
    return _plugin_null(design, family, float(np.mean(y_observed)))


# replicates drawn into one row block before it is written into their columns
_DRAW_BLOCK = 64


def _fill_draws(family, mean, rngs, out):
    """Write the response that the m-th generator of ``rngs`` draws in
    ``family`` into column m of the N x M array ``out``: the one definition
    of a response draw, for null batches and power cells alike.

    ``mean`` is one mean shared by every column (a number, or an N-vector
    such as X beta_c) or an M x N array whose row m is column m's mean.
    Each replicate fills one row of a reused (_DRAW_BLOCK, N) block with one
    generator call: its standard normal noise in the gaussian family (unit
    variance), its whole binomial or poisson response in the others. A
    filled gaussian block is then added to its means once, into its columns
    of ``out``; any other is copied in.
    """
    n, m_draws = out.shape
    mean = np.asarray(mean, dtype=float)
    per_column = mean.ndim == 2
    # a whole response per call; None for the gaussian family's noise
    draw = {"bernoulli": lambda rng, mu: rng.binomial(1, mu, size=n),
            "poisson": lambda rng, mu: rng.poisson(mu, size=n)}.get(family.tag)
    row_means = iter(mean) if per_column else itertools.repeat(mean)
    block = np.empty((min(_DRAW_BLOCK, m_draws), n))
    rngs = iter(rngs)
    for start in range(0, m_draws, _DRAW_BLOCK):
        rows = block[:min(_DRAW_BLOCK, m_draws - start)]
        stop = start + rows.shape[0]
        cols = out[:, start:stop].T  # a view of out, shaped as rows
        # zip takes a row first, so it stops without taking a generator or a mean
        if draw is None:
            for row, rng in zip(rows, rngs):
                rng.standard_normal(out=row)
            np.add(mean[start:stop] if per_column else mean, rows, out=cols)
        else:
            for row, rng, mu in zip(rows, rngs, row_means):
                row[:] = draw(rng, mu)
            cols[...] = rows
    return out


def _null_draw(model):
    """The (family, mean) of a null model's draws: gaussian at X beta_c, or
    its family at the plug-in mean. A gaussian plug-in draw has unit
    variance: the gaussian score statistic is location/scale invariant, so
    the choice is immaterial."""
    if model.kind == "gaussian_pivotal":
        return glm_family("gaussian"), model.reduced.x_fit_c
    return model.family, model.null_mean


def simulate_null(model, rng):
    """One draw of Y0 under the null model."""
    return _fill_draws(*_null_draw(model), [rng], np.empty((model.design.n, 1)))[:, 0]


def _simulate_batch(model, seed, m_draws, batch):
    """N x M null draws; column m is drawn from ``substream(seed, batch, m)``."""
    return _fill_draws(*_null_draw(model), _substreams(seed, batch, count=m_draws),
                       np.empty((model.design.n, m_draws)))


# the header lines of a calibration file, in order
_HEADER = ("statistic_id", "m_draws", "alpha", "seed", "lambda_alpha", "draws_sha256")


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
        """Write the six ``#`` header lines of :meth:`load`, then the draws
        as raw little-endian float64, stored exactly.

        The bytes go in one write to a temporary file beside ``path``,
        which is then renamed into place, so a reader sees the old file or
        the whole new one, never a part."""
        draws = np.asarray(self.sorted_null_stats, dtype="<f8").tobytes()
        values = (self.statistic_id, self.m_draws, repr(self.alpha), self.seed,
                  repr(float(self.lambda_alpha)), hashlib.sha256(draws).hexdigest())
        header = "".join(f"# {name}={value}\n" for name, value in zip(_HEADER, values))
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "xb") as fh:
                fh.write(header.encode() + draws)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path):
        """Read a file written by :meth:`save`: exactly the header lines
        ``# statistic_id=``, ``# m_draws=``, ``# alpha=``, ``# seed=``,
        ``# lambda_alpha=`` and ``# draws_sha256=``, in that order, then
        8 * m_draws bytes of draws with that SHA-256. Anything else, a text
        file written before the draws were stored raw included, raises
        ValueError."""
        with open(path, "rb") as fh:
            data = fh.read()
        meta, start = {}, 0
        for name in _HEADER:
            end = data.index(b"\n", start)
            line = data[start:end].decode()
            prefix = f"# {name}="
            if not line.startswith(prefix):
                raise ValueError(f"{path}: header line {line[:40]!r} is not {prefix!r}")
            meta[name] = line[len(prefix):]
            start = end + 1
        m_draws = int(meta["m_draws"])
        draws = data[start:]
        if len(draws) != 8 * m_draws:
            raise ValueError(f"{path}: {len(draws)} bytes of draws, not 8 * {m_draws}")
        if hashlib.sha256(draws).hexdigest() != meta["draws_sha256"]:
            raise ValueError(f"{path}: the draws do not match their SHA-256")
        return cls(
            sorted_null_stats=np.frombuffer(draws, dtype="<f8"),
            lambda_alpha=float(meta["lambda_alpha"]),
            alpha=float(meta["alpha"]),
            m_draws=m_draws,
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


def _of_kappa(name):
    return property(lambda self: getattr(self.cal_kappa, name))


@dataclass(frozen=True)
class CompositeCalibration:
    """The three calibrations of a composite test: its components' on
    batch 0 and ``cal_kappa``, the sorted composite values of batch 1,
    whose threshold is kappa_alpha."""

    cal_1: CalibrationResult
    cal_2: CalibrationResult
    cal_kappa: CalibrationResult

    kappa_alpha = _of_kappa("lambda_alpha")
    sorted_composite_stats = _of_kappa("sorted_null_stats")


def _check_alpha(alpha):
    """InvalidSpec unless alpha is a real number; InsufficientDraws unless
    0 < alpha < 1, so NaN is refused too."""
    if not isinstance(alpha, numbers.Real):
        raise InvalidSpec(f"alpha must be a number, got {alpha!r}")
    if not 0.0 < alpha < 1.0:
        raise InsufficientDraws(f"alpha must be in (0,1), got {alpha}")


def _check_count(name, value):
    """InvalidSpec unless ``value`` is a non-negative integer; a bool or a
    whole float is refused, as numpy's generators refuse it."""
    if not _is_index(value) or value < 0:
        raise InvalidSpec(f"{name} must be a non-negative integer, got {value!r}")


def order_stat_index(m_draws, alpha):
    """1-based order-statistic index k = ceil((M+1)(1-alpha))."""
    _check_alpha(alpha)
    if m_draws < math.ceil(1.0 / alpha) - 1:
        raise InsufficientDraws(
            f"M = {m_draws} < ceil(1/alpha) - 1 = {math.ceil(1.0 / alpha) - 1}"
        )
    # small nudge guards against 0.95 * 100 = 95.000000000000003-type float noise
    k = math.ceil((m_draws + 1) * (1.0 - alpha) - 1e-9)
    k = min(max(k, 1), m_draws)
    return k


def _resolve_evaluator(stat, model):
    """A StatisticSpec bound to the model; an Evaluator or Composite as it is."""
    if isinstance(stat, StatisticSpec):
        return build_evaluator(stat, model.design, hyp=model.hyp, red=model.reduced)
    return stat


def calibrate(stat, model, m_draws, alpha, seed):
    """Simulate M null draws of the statistic and take the upper alpha quantile."""
    return calibrate_many([stat], model, m_draws, alpha, seed)[0]


def calibrate_many(stats, model, m_draws, alpha, seed, batch=0):
    """Calibrate several statistics on one shared batch of null draws."""
    _check_count("m_draws", m_draws)
    _check_count("seed", seed)
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


def p_value(observed, cal):
    """Monte-Carlo p-value (1 + #{draws >= observed}) / (M + 1).

    The draws are the sorted null draws of a CalibrationResult; a
    composite's are those of its ``cal_kappa``. Any other ``cal`` raises
    InvalidSpec. A NaN observed value raises DimensionMismatch, as a
    non-finite response does.
    """
    if not isinstance(cal, CalibrationResult):
        hint = ": pass its cal_kappa" if isinstance(cal, CompositeCalibration) else ""
        raise InvalidSpec(
            f"p_value counts the draws of a CalibrationResult, got {type(cal).__name__}{hint}")
    if isinstance(observed, StatValue):
        observed = observed.value
    if math.isnan(observed):
        raise DimensionMismatch("the observed statistic is NaN")
    count = cal.m_draws - int(np.searchsorted(cal.sorted_null_stats, observed, side="left"))
    return (1 + count) / (cal.m_draws + 1)


def calibrate_composite(stat1, stat2, model, m_draws, alpha, seed):
    """Two-batch calibration of the composite max-of-ratios statistic.

    Batch 0 (shared draws) calibrates the component thresholds; an
    independent batch 1 calibrates kappa_alpha for the composite value
    max(lambda_0^(1)/lambda_alpha^(1), lambda_0^(2)/lambda_alpha^(2)).
    """
    ev1, ev2 = (_resolve_evaluator(s, model) for s in (stat1, stat2))
    cal1, cal2 = calibrate_many([ev1, ev2], model, m_draws, alpha, seed)
    composite = Composite(ev1, ev2, cal1.lambda_alpha, cal2.lambda_alpha)
    return CompositeCalibration(
        cal1, cal2, calibrate_many([composite], model, m_draws, alpha, seed, batch=1)[0])


def _composite_pair(glm_family=None):
    """The default components of the composite test: the sup statistic and
    the group statistic, whose blocks the Evaluator resolves (one block over
    all rows unless the hypothesis has a partition). They are the
    square-root affine pair, or the GLM score pair of ``glm_family``."""
    if glm_family is None:
        return StatisticSpec("sqrt_affine_lasso"), StatisticSpec("sqrt_affine_group_lasso")
    return (StatisticSpec("glm_score_sup", glm_family=glm_family),
            StatisticSpec("glm_score_group", glm_family=glm_family))
