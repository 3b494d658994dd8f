"""Power and level simulation harness plus F-test / likelihood-ratio baselines.

Provides a self-contained experiment design at desk scale: AR(1)
gaussian designs, sparse/dense alternatives with random signs and
positions, canonical-link response generation, and per-cell rejection
rates with Monte-Carlo standard errors. Replicate substreams are keyed
by (seed, 1, s, theta, rep), so a theta = 0 power row is bit-identical to
the level estimate of the same configuration and results do not depend
on the worker thread count. A cell seeds all of its replicates' keys in one
vectorised pass; each draws what ``substream`` with that key would.

A cell's responses are drawn in batched passes over its generators: every
replicate's support and signs into an n_reps x P coefficient matrix, then
the linear predictors, then the link and the poisson exp(30) guard once
over the whole cell, then one noise call per generator through
``calibration._fill_draws``, the one definition of a response draw that
also draws the null batches; so a level replicate (s = 0) is bit for bit
the ``simulate_null`` draw of the study's true null. Each generator
makes the calls of ``gen_beta`` and ``gen_response``, in their order, and
each linear predictor stays its own ``x @ beta``: one GEMM over the cell
sums in another order and moves the last bits. So every response is
bit-identical to the one-replicate functions, which are the passes' case
of one generator.

An ``ExperimentConfig`` refuses an entry its study cannot run: the fisher
and lrt baselines unless p + 1 < n (InvalidSpec), and in a bernoulli or
poisson study any statistic but a GLM score one (NotApplicable). It also
refuses ``StatisticSpec("fisher_weighted")`` (InvalidSpec): its test is the
exact F-test of the "fisher" tag, so a study has one F column. The
harness binds each entry once, to the intercept design and H0, and takes
its calibration from the process cache of ``inference``, keyed as
``run_test`` keys the same test. The grid and n_reps change no
calibration: a rerun, or a level run after a power run, draws no null
batch. A row whose computation fails on a cell is an error row with the
id of its statistic; a cell that cannot be drawn gives every column one.
The baselines are exact and reject when p <= alpha (the F-test by
``statistics._f_test``); their results come from ``inference._decide``.

The likelihood-ratio baseline fits the replicates of a cell together:
the IRLS fit is batched over response columns (closed form for the
gaussian family). ``baseline_lrt`` is its one public entry; it and the
harness's lrt column go through ``_lrt_statistics``. The fit takes an
intercept design with the all-ones column first (``baseline_lrt``
prepends it; the harness's design has it), starts each column from its
intercept-only fit and requires full column rank with P < N.
``baseline_lrt`` refuses a response as the GLM score tests do, with
DomainError: a bernoulli value outside {0, 1}, or a poisson value that is
not a non-negative integer. It and ``gen_response`` refuse an x that is
not a finite 2-d array of at least one column with DimensionMismatch. A
spec, a count or a number of the wrong type given to a public entry
raises InvalidSpec, not an error from inside numpy.
"""

import dataclasses
import functools
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from . import statistics
from .calibration import (
    _check_alpha,
    _check_count,
    _check_response,
    _composite_pair,
    _fill_draws,
    _plugin_null,
    _substreams,
    gaussian_pivotal_null,
    substream,
)
from .core import (DesignMatrix, SubsetHypothesis, _as_1d, _as_2d, _as_response, _is_index,
                   build_reduction, glm_family)
from .exceptions import (DimensionMismatch, InvalidSpec, NotApplicable, OverflowGuard,
                         RankDeficient)
from .inference import McConfig, _calibrated, _decide, _get_default_cache, _test_inputs
from .statistics import (
    GLM_FAMILIES,
    StatValue,
    StatisticSpec,
    _chi2_ppf,
    _chi2_sf,
    _f_ppf,
    _overflow_guard,
    build_evaluator,
    evaluate_many,
)

__all__ = [
    "AlternativeSpec",
    "DesignSpec",
    "ExperimentConfig",
    "PowerRow",
    "gen_design",
    "gen_beta",
    "gen_response",
    "estimate_power",
    "estimate_level",
    "baseline_f_test",
    "baseline_lrt",
]


@dataclass(frozen=True)
class AlternativeSpec:
    """H1 with exactly s nonzero coefficients of magnitude theta, random signs."""

    s: int
    theta: float

    def __post_init__(self):
        _check_count("s", self.s)
        if not isinstance(self.theta, numbers.Real) or not 0 <= self.theta < np.inf:
            raise InvalidSpec(f"need a finite theta >= 0, got {self.theta!r}")


def _check_finite(name, value):
    """InvalidSpec unless ``value`` is a finite real number."""
    if not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise InvalidSpec(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class DesignSpec:
    """Gaussian design rows with AR(1) covariance rho^|i-j| (identity: rho = 0)."""

    kind: str = "ar1"
    rho: float = 0.5
    standardize: bool = True

    def __post_init__(self):
        if self.kind not in ("ar1", "identity"):
            raise InvalidSpec(f"unknown design kind {self.kind!r}")
        if not -1.0 < self.rho < 1.0:
            raise InvalidSpec("rho must be in (-1, 1)")


# the tags a study's ``statistics`` may hold besides a StatisticSpec, with
# the row id of each baseline; a composite's rows carry its evaluator's id
_STUDY_TAGS = {"composite": None, "fisher": "baseline_fisher", "lrt": "baseline_lrt"}


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p: int
    family: str = "gaussian"
    beta0: float = -2.0
    alpha: float = 0.05
    m_calib: int = 2000
    n_reps: int = 1000
    theta_grid: Sequence[float] = (0.0,)
    s_values: Sequence[int] = (1,)
    design_spec: DesignSpec = field(default_factory=DesignSpec)
    statistics: Sequence[Union[StatisticSpec, str]] = ()
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("gaussian", "bernoulli", "poisson"):
            raise InvalidSpec(f"unknown family {self.family!r}")
        _check_alpha(self.alpha)
        for name in ("n", "p", "m_calib", "seed", "n_reps"):
            _check_count(name, getattr(self, name))
        if self.n_reps < 1:
            raise InvalidSpec(f"n_reps must be at least 1, got {self.n_reps}")
        _check_finite("beta0", self.beta0)
        if not isinstance(self.design_spec, DesignSpec):
            raise InvalidSpec(f"design_spec must be a DesignSpec, got {self.design_spec!r}")
        if self.family == "poisson" and self.beta0 > _ETA_MAX:
            raise OverflowGuard(f"poisson beta0 = {self.beta0} exceeds the exp(30) guard")
        for name in ("theta_grid", "s_values", "statistics"):
            value = getattr(self, name)
            try:
                len(value)
            except TypeError:
                raise InvalidSpec(f"{name} must be a sequence, got {value!r}") from None
        if len(self.theta_grid) == 0 or len(self.s_values) == 0:
            raise InvalidSpec("theta_grid and s_values must each hold at least one value")
        for s in self.s_values:
            _check_count("each of s_values", s)
            if s > self.p:
                raise InvalidSpec(f"s = {s} outside [0, {self.p}]")
            for theta in self.theta_grid:
                AlternativeSpec(s, theta)
        for entry in self.statistics:
            if isinstance(entry, str):
                if entry not in _STUDY_TAGS:
                    raise InvalidSpec(f"unknown statistic tag {entry!r}")
                if entry != "composite" and self.p + 1 >= self.n:
                    raise InvalidSpec(f"the {entry} baseline fits an intercept and p columns, "
                                      f"so it needs p + 1 < n, got p = {self.p}, n = {self.n}")
            elif not isinstance(entry, StatisticSpec):
                raise InvalidSpec(f"a statistics entry is a tag or a StatisticSpec, "
                                  f"got {entry!r}")
            elif entry.family == "fisher_weighted":
                raise InvalidSpec("use the \"fisher\" tag for fisher_weighted: a study "
                                  "decides the F-test by the exact F, not by Monte Carlo")
            elif entry.family not in GLM_FAMILIES:
                if self.family != "gaussian":
                    raise NotApplicable(f"{entry.family} needs gaussian responses, "
                                        f"not {self.family}: use a GLM score statistic")
            elif entry.glm_family.tag != self.family:
                raise NotApplicable(f"{entry.family} scores {entry.glm_family.tag} "
                                    f"responses, not {self.family}")


@dataclass(frozen=True)
class PowerRow:
    statistic_id: str
    family: str
    s: int
    theta: float
    power_estimate: float
    mc_standard_error: float
    n_reps: int
    status: str = "ok"

    HEADER = ("statistic_id", "family", "s", "theta", "power_estimate",
              "mc_standard_error", "n_reps", "status")

    def as_csv_row(self):
        return (self.statistic_id, self.family, str(self.s), repr(float(self.theta)),
                repr(float(self.power_estimate)), repr(float(self.mc_standard_error)),
                str(self.n_reps), self.status)


def gen_design(n, p, design_spec, rng, intercept=False):
    """Rows i.i.d. N(0, Sigma) drawn from ``rng``; optionally standardized
    columns and an all-ones intercept column prepended."""
    _check_count("n", n)
    _check_count("p", p)
    if n < 1 or p < 1:
        raise InvalidSpec("need n, p >= 1")
    if not isinstance(design_spec, DesignSpec):
        raise InvalidSpec(f"design_spec must be a DesignSpec, got {design_spec!r}")
    z = rng.standard_normal((n, p))
    if design_spec.kind == "ar1" and design_spec.rho != 0.0 and p > 1:
        idx = np.arange(p)
        sigma = design_spec.rho ** np.abs(idx[:, None] - idx[None, :])
        z = z @ np.linalg.cholesky(sigma).T
    if design_spec.standardize:
        z = z - np.mean(z, axis=0)
        sd = np.std(z, axis=0)
        sd[sd == 0.0] = 1.0
        z = z / sd
    if intercept:
        return DesignMatrix(np.hstack([np.ones((n, 1)), z]), intercept_column=0)
    return DesignMatrix(z)


def _draw_betas(alt, p, rngs):
    """One ``gen_beta`` row per generator, as a len(rngs) x P array. Each
    generator draws its support (``permutation``), then its signs
    (``integers``), with the calls and order of ``gen_beta``."""
    if alt.s > p:
        raise InvalidSpec(f"s = {alt.s} > p = {p}")
    betas = np.zeros((len(rngs), p))
    if alt.s > 0:
        signed = np.array([-alt.theta, alt.theta])  # the bits of -1 * theta and 1 * theta
        for beta, rng in zip(betas, rngs):
            # two statements: an assignment draws its right-hand side first
            positions = rng.permutation(p)[:alt.s]
            beta[positions] = signed[rng.integers(0, 2, size=alt.s)]
    return betas


def gen_beta(alt, p, rng):
    """Coefficient vector with s entries of +-theta at random positions."""
    if not isinstance(alt, AlternativeSpec):
        raise InvalidSpec(f"alt must be an AlternativeSpec, got {alt!r}")
    _check_count("p", p)
    return _draw_betas(alt, p, [rng])[0]


# exp(30) guard: the poisson generator refuses a larger linear predictor
# and the IRLS fits clip to it
_ETA_MAX = 30.0


def _draw_responses(x, beta0, betas, family, rngs):
    """One ``gen_response`` column per row of ``betas`` and generator, as a
    C-ordered N x len(rngs) array.

    The link and the poisson guard run once over all the linear predictors,
    and ``_fill_draws`` draws each column at its means, as it draws a null
    batch. Each ``x @ beta`` stays a product of its own: one GEMM over the
    rows of ``betas`` sums in another order and differs in the last bits. A
    stacked matmul of x with each row as a column makes, row by row, the
    call that ``x @ beta`` makes.
    """
    eta = np.matmul(x, betas[:, :, None])[:, :, 0]
    eta += beta0
    if family.tag == "poisson" and np.any(eta > _ETA_MAX):
        raise OverflowGuard("poisson linear predictor exceeds the exp(30) guard")
    # the means replace eta, so a cell holds two n_reps x N arrays: them and y
    eta = family.canonical_inverse_link(eta)
    return _fill_draws(family, eta, rngs, np.empty((x.shape[0], len(rngs))))


def gen_response(x, beta0, beta, family, rng):
    """Responses through the canonical link (gaussian noise sd = 1): the
    one-replicate case of a cell's batched draw.

    x is taken as ``baseline_lrt`` takes it, a DesignMatrix giving its
    tested columns, and beta must be a finite vector of one entry per
    column of x; else DimensionMismatch. A beta0 that is not a finite
    number raises InvalidSpec."""
    if isinstance(x, DesignMatrix):
        x = x.tested_values()
    x = _glm_design(x)
    beta = _as_1d(beta, "beta")
    if beta.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"beta has length {beta.shape[0]}, x has {x.shape[1]} columns")
    _check_finite("beta0", beta0)
    return _draw_responses(x, beta0, beta[None, :], glm_family(family), [rng])[:, 0]


def _theta_key(theta):
    # stable integer key so substreams are identical across configs that
    # share (s, theta, rep)
    return int(np.float64(theta).view(np.uint64))


def _glm_true_null(design, family_tag, beta0):
    """Plug-in null model at the configured intercept (harness-side oracle)."""
    fam = glm_family(family_tag)
    return _plugin_null(design, fam, float(fam.canonical_inverse_link(beta0)))


class _Harness:
    """A study's columns: each entry bound once, to the intercept design
    ``x_full`` and H0: beta_1..P = 0, into (statistic id, decision). Called
    with the harness, a decision gives the replicates' rejections on a
    cell's responses, drawn on the covariates ``x_cov``, the tested columns
    of ``x_full``. The Monte-Carlo columns are one ``_calibrated`` request,
    an Evaluator per spec and a pair per composite, answered in column
    order, and they share one ``evaluate_many`` pass per cell. A cell's
    responses come from batched passes over its replicates' generators (see
    ``simulate_cell``): the link runs once per cell, while each generator
    call and each ``x @ beta`` stays per replicate, so that the responses
    are bit-identical to ``gen_beta`` and ``gen_response`` on each
    replicate's generator."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.x_full = gen_design(cfg.n, cfg.p, cfg.design_spec, substream(cfg.seed, 0),
                                 intercept=True)
        self.x_cov = self.x_full.tested_values()
        self.family = glm_family(cfg.family)
        self.hyp = SubsetHypothesis(1, np.zeros(cfg.p)).expand(cfg.p + 1)
        # a bernoulli or poisson config holds GLM score statistics: no reduction
        gaussian = cfg.family == "gaussian"
        red = build_reduction(self.x_full, self.hyp) if gaussian else None
        model = (gaussian_pivotal_null(self.x_full, self.hyp, red) if gaussian
                 else _glm_true_null(self.x_full, cfg.family, cfg.beta0))
        pair = _composite_pair(None if gaussian else cfg.family)
        bind = functools.partial(build_evaluator, x=self.x_full, hyp=self.hyp, red=red)
        # a pair of Evaluators per composite and an Evaluator per spec
        items = [tuple(map(bind, pair)) if entry == "composite" else bind(entry)
                 for entry in cfg.statistics if entry not in ("fisher", "lrt")]
        mc = iter(_calibrated(_get_default_cache(), self.hyp.a_matrix, self.hyp.c_vector, model,
                              McConfig(cfg.m_calib, cfg.seed), cfg.alpha, items))
        self._mc, self.columns = [], []  # _mc: each Monte-Carlo column's statistic
        # unbound decisions: a column that held the harness would delay its freeing
        for entry in cfg.statistics:
            if entry in ("fisher", "lrt"):
                decide = _Harness._fisher_rejects if entry == "fisher" else _Harness._lrt_rejects
                self.columns.append((_STUDY_TAGS[entry], decide))
            else:
                stat, cal = next(mc)
                self._mc.append(stat)
                self.columns.append((stat.statistic_id, functools.partial(
                    _Harness._exceeds, stat=stat, threshold=cal.lambda_alpha)))

    def simulate_cell(self, s, theta):
        """The cell's N x n_reps responses: column m is what ``gen_beta`` and
        ``gen_response`` draw from the generator keyed (seed, 1, s, theta, m)."""
        cfg = self.cfg
        rngs = list(_substreams(cfg.seed, 1, s, _theta_key(theta), count=cfg.n_reps))
        betas = _draw_betas(AlternativeSpec(s, theta), cfg.p, rngs)
        return _draw_responses(self.x_cov, cfg.beta0, betas, self.family, rngs)

    def evaluate_cell(self, s, theta):
        """One row per column, an error row where the column fails on this
        cell: every column's when the cell cannot be drawn."""
        cfg = self.cfg
        try:  # per-cell failures never abort the grid
            y = self.simulate_cell(s, theta)
        except Exception as exc:
            y = exc
        shared = {}  # the mc columns' one pass on y: {statistic: (values, mask)} or its error
        rows = []
        for sid, decide in self.columns:
            try:
                if isinstance(y, Exception):
                    raise y
                rejects = decide(self, y, shared)
            except Exception as exc:
                rows.append(PowerRow(sid, cfg.family, s, theta, np.nan, np.nan,
                                     cfg.n_reps, status=f"error: {exc}"))
                continue
            power = float(np.mean(rejects))
            se = float(np.sqrt(power * (1.0 - power) / cfg.n_reps))
            rows.append(PowerRow(sid, cfg.family, s, theta, power, se, cfg.n_reps))
        return rows

    def _exceeds(self, y, shared, stat, threshold):
        """Rejections of a Monte-Carlo column: its statistic above its
        threshold. The first such column of a cell fills ``shared`` with the
        one pass's values, or with its error, which the others then raise."""
        if not shared:
            try:
                shared.update(zip(self._mc, evaluate_many(self._mc, y)))
            except Exception as exc:
                shared.update(dict.fromkeys(self._mc, exc))
        if isinstance(shared[stat], Exception):
            raise shared[stat]
        vals, degen = shared[stat]
        return ~degen & (vals > threshold)

    def _fisher_rejects(self, y, _shared):
        """F-test rejections; a degenerate replicate has F = 0 and p = 1."""
        return statistics._f_test(self.x_full, self.hyp, y, self.cfg.alpha)[2]

    def _lrt_rejects(self, y, _shared):
        stats = _lrt_statistics(y, self.x_full.values, self.family)
        return _chi2_sf(stats, self.cfg.p) <= self.cfg.alpha


def estimate_power(cfg, threads=1):
    """Rejection rate per (statistic, s, theta) cell. Each statistic is
    calibrated once per design, through the process cache, and that
    calibration serves the whole grid. A config with no statistics, or a
    thread count below 1, raises InvalidSpec."""
    if not cfg.statistics:
        raise InvalidSpec("a study needs at least one statistic")
    if not _is_index(threads) or threads < 1:
        raise InvalidSpec(f"threads must be an integer of at least 1, got {threads!r}")
    harness = _Harness(cfg)
    cells = [(s, theta) for s in cfg.s_values for theta in cfg.theta_grid]
    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(
                lambda cell: harness.evaluate_cell(*cell), cells))
    else:
        results = [harness.evaluate_cell(*cell) for cell in cells]
    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r.statistic_id, r.s, r.theta))
    return rows


def estimate_level(cfg, threads=1):
    """estimate_power restricted to theta = 0 (the null point of the H1 grid)."""
    null_cfg = dataclasses.replace(cfg, theta_grid=(0.0,), s_values=(min(cfg.s_values),))
    return estimate_power(null_cfg, threads=threads)


def baseline_f_test(y, x, hyp, alpha=0.05):
    """Exact F-test of H0: A beta = c from two least-squares fits.

    A y in the column span of X leaves only rounding noise in the RSS; the
    result is then degenerate with p = 1 and no rejection. A y that is not
    a finite N-vector raises DimensionMismatch, as in ``run_test``.
    """
    _check_alpha(alpha)
    y, x, hyp = _test_inputs(y, x, hyp)
    fisher, p, reject = statistics._f_test(x, hyp, y[:, None], alpha)
    observed = StatValue(float(fisher.f[0]), degenerate=bool(fisher.degenerate[0]))
    return _decide(observed, float(_f_ppf(1.0 - alpha, fisher.df1, fisher.df2)), float(p[0]),
                   reject[0], alpha, _STUDY_TAGS["fisher"])


def _deviance(y, mu, tag):
    """Deviance of each column of y at means mu; a bernoulli y is 0 or 1."""
    if tag == "gaussian":  # sigma = 1 known: deviance reduces to RSS
        return np.sum((y - mu) ** 2, axis=0)
    if tag == "bernoulli":
        # y log(y/mu) + (1-y) log((1-y)/(1-mu)) is log(1/mu) at y = 1 and
        # log(1/(1-mu)) at y = 0, bit for bit
        with np.errstate(divide="ignore"):
            return 2.0 * np.sum(np.log(1.0 / np.where(y > 0, mu, 1 - mu)), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(y > 0, y * np.log(y / mu), 0.0)
    return 2.0 * np.sum(t - (y - mu), axis=0)


# Columns are fitted in blocks whose N x k arrays and k x P x P Gram
# matrices hold about 256 KiB each. A whole 500-replicate cell (N = 100,
# P = 21) took 6.3 MB of temporaries, and the power study's two threads
# fitting cells at once raised its peak RSS by 10%.
_IRLS_BLOCK_BYTES = 1 << 18
# a column settles when its deviance moves by at most _IRLS_TOL * (|dev| + 0.1)
# in one update, and stops after _IRLS_MAX_ITER updates
_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 100


def _irls_batch(x, y, family):
    """Canonical-link GLM fits of every column of the N x M response y on
    the intercept design x, whose column 0 is all ones.

    Returns the P x M coefficients and the M deviances. The gaussian fit is
    closed form. Otherwise each column starts from its intercept-only fit,
    beta_0 = g(mean of the column), and iterates until its deviance
    settles; a settled column is frozen, so it takes the iterations it
    would take alone. One GEMM with the rows of ``x (x) x`` forms every
    active column's ``X^T W X``, and one stacked solve updates them all.
    P < N and full column rank at lstsq's ``max(N, P) * eps * s_max``
    cutoff are required of x.
    """
    n, p = x.shape
    if p >= n:
        raise NotApplicable(f"the IRLS fit needs P < N, got P = {p}, N = {n}")
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[-1] <= max(n, p) * np.finfo(float).eps * s[0]:
        raise RankDeficient("design is rank deficient")
    if family.tag == "gaussian":
        beta = vt.T @ ((u.T @ y) / s[:, None])
        return beta, _deviance(y, x @ beta, "gaussian")
    m = y.shape[1]
    ybar = np.mean(y, axis=0)
    mustart = np.clip(ybar, 1e-8, 1 - 1e-8) if family.tag == "bernoulli" \
        else np.maximum(ybar, 1e-8)
    beta = np.zeros((p, m))
    beta[0] = family.canonical_link(mustart)
    xx = (x[:, :, None] * x[:, None, :]).reshape(n, p * p)
    dev = np.full(m, np.inf)
    step = max(1, _IRLS_BLOCK_BYTES // (8 * (n + p * p)))
    for start in range(0, m, step):
        active = np.arange(start, min(start + step, m))
        ya = y[:, active]
        eta = np.clip(x @ beta[:, active], -_ETA_MAX, _ETA_MAX)
        mu = family.canonical_inverse_link(eta)
        for _ in range(_IRLS_MAX_ITER):
            w = np.maximum(family.variance(mu), 1e-10)  # canonical: dmu/deta = V(mu)
            z = eta + (ya - mu) / w
            gram = (w.T @ xx).reshape(-1, p, p)
            rhs = (x.T @ (w * z)).T[:, :, None]
            new_beta = np.linalg.solve(gram, rhs)[:, :, 0].T
            eta = np.clip(x @ new_beta, -_ETA_MAX, _ETA_MAX)
            mu = family.canonical_inverse_link(eta)
            new_dev = _deviance(ya, mu, family.tag)
            done = np.abs(dev[active] - new_dev) <= _IRLS_TOL * (np.abs(new_dev) + 0.1)
            beta[:, active] = new_beta
            dev[active] = new_dev
            keep = ~done
            active, ya, eta, mu = active[keep], ya[:, keep], eta[:, keep], mu[:, keep]
            if not active.size:
                break
    return beta, dev


def _glm_design(x):
    """``x`` as a finite 2-d float array of at least one column; else
    DimensionMismatch."""
    x = _as_2d(x, "x")
    if x.shape[1] < 1:
        raise DimensionMismatch(f"x needs at least one column, got shape {x.shape}")
    return x


def _lrt_statistics(y, x1, family):
    """Deviance drop from the intercept-only fit to the full fit on x1 (an
    intercept column followed by the tested columns), per column of the
    N x M response y. Responses whose deviance overflows raise OverflowGuard."""
    with _overflow_guard():
        _, dev_full = _irls_batch(x1, y, family)
        ybar = np.mean(y, axis=0)
        if family.tag == "bernoulli":
            mu0 = np.clip(ybar, 1e-12, 1 - 1e-12)
        elif family.tag == "poisson":
            mu0 = np.maximum(ybar, 1e-12)
        else:
            mu0 = ybar
        dev_null = _deviance(y, mu0, family.tag)
        return np.maximum(dev_null - dev_full, 0.0)


def baseline_lrt(y, x, family, alpha=0.05):
    """Likelihood-ratio (deviance) test of H0: beta = 0 with a free intercept,
    against the chi-squared reference with P degrees of freedom. A bernoulli
    y outside {0, 1}, NaN included, or a poisson y with a finite value that
    is not a non-negative integer raises DomainError; any other y that is
    not a finite N-vector, DimensionMismatch, as does an x that is not a
    finite 2-d array of at least one column."""
    _check_alpha(alpha)
    if isinstance(x, DesignMatrix):
        x = x.tested_values()
    x = _glm_design(x)
    family = glm_family(family)
    # first, so that a bernoulli NaN is a value outside {0, 1}
    _check_response(family, y)
    y = _as_response(y, x.shape[0])
    n, p = x.shape
    x1 = np.hstack([np.ones((n, 1)), x])
    stat = float(_lrt_statistics(y[:, None], x1, family)[0])
    p_val = float(_chi2_sf(stat, p))
    return _decide(StatValue(stat), float(_chi2_ppf(1.0 - alpha, p)), p_val, p_val <= alpha,
                   alpha, _STUDY_TAGS["lrt"])
