"""Power and level simulation harness plus F-test / likelihood-ratio baselines.

Provides a self-contained experiment design at desk scale: AR(1)
gaussian designs, sparse/dense alternatives with random signs and
positions, canonical-link response generation, and per-cell rejection
rates with Monte-Carlo standard errors. Replicate substreams are keyed
by (seed, 1, s, theta, rep), so a theta = 0 power row is bit-identical to
the level estimate of the same configuration and results do not depend
on thread count. A cell seeds all of its replicates' keys in one
vectorised pass; each draws what ``substream`` with that key would.

An ``ExperimentConfig`` refuses an entry its study cannot run: the fisher
and lrt baselines unless p + 1 < n (InvalidSpec), and in a bernoulli or
poisson study any statistic but a GLM score one (NotApplicable). The
harness binds each entry once, to the intercept design and H0, and takes
its calibration from the process cache of ``inference``, keyed as
``run_test`` keys the same test. The grid and n_reps change no
calibration: a rerun, or a level run after a power run, draws no null
batch. A row whose computation fails on a cell is an error row with the
id of its statistic.

The likelihood-ratio baseline fits the replicates of a cell together:
the IRLS fit is batched over response columns (closed form for the
gaussian family), and ``fit_glm_irls`` is its one-column case. Every
family requires an intercept design of full column rank with P < N.
"""

import dataclasses
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .calibration import (
    _check_alpha,
    _check_bernoulli,
    _check_count,
    _composite_pair,
    _plugin_null,
    _substreams,
    gaussian_pivotal_null,
    substream,
)
from .core import (DesignMatrix, SubsetHypothesis, _as_response, _is_index, build_reduction,
                   glm_family)
from .exceptions import InvalidSpec, NotApplicable, OverflowGuard, RankDeficient
from .inference import (
    _DEGENERATE_NOTE,
    McConfig,
    TestResult,
    _calibrated,
    _get_default_cache,
    _test_inputs,
)
from .statistics import (
    GLM_FAMILIES,
    StatValue,
    StatisticSpec,
    _chi2_ppf,
    _chi2_sf,
    _f_ppf,
    _f_sf,
    _fisher_batch,
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
    "fit_glm_irls",
]


@dataclass(frozen=True)
class AlternativeSpec:
    """H1 with exactly s nonzero coefficients of magnitude theta, random signs."""

    s: int
    theta: float

    def __post_init__(self):
        if self.s < 0 or not 0 <= self.theta < np.inf:
            raise InvalidSpec("need s >= 0 and a finite theta >= 0")


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
        if not np.isfinite(self.beta0):
            raise InvalidSpec("beta0 must be finite")
        if self.family == "poisson" and self.beta0 > _ETA_MAX:
            raise OverflowGuard(f"poisson beta0 = {self.beta0} exceeds the exp(30) guard")
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
            elif entry.family not in GLM_FAMILIES and self.family != "gaussian":
                raise NotApplicable(f"{entry.fingerprint()} needs gaussian responses, "
                                    f"not {self.family}: use a GLM score statistic")


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


def gen_design(n, p, design_spec=DesignSpec(), rng=None, intercept=False):
    """Rows i.i.d. N(0, Sigma); optionally standardized columns and an
    all-ones intercept column prepended."""
    if n < 1 or p < 1:
        raise InvalidSpec("need n, p >= 1")
    if rng is None:
        rng = np.random.default_rng()
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


def gen_beta(alt, p, rng):
    """Coefficient vector with s entries of +-theta at random positions."""
    if alt.s > p:
        raise InvalidSpec(f"s = {alt.s} > p = {p}")
    beta = np.zeros(p)
    if alt.s > 0:
        positions = rng.permutation(p)[:alt.s]
        signs = np.array([-1.0, 1.0])[rng.integers(0, 2, size=alt.s)]
        beta[positions] = signs * alt.theta
    return beta


# exp(30) guard: the poisson generator refuses a larger linear predictor
# and the IRLS fits clip to it
_ETA_MAX = 30.0


def gen_response(x, beta0, beta, family, rng):
    """Responses through the canonical link (gaussian noise sd = 1)."""
    if isinstance(x, DesignMatrix):
        x = x.tested_values()
    x = np.asarray(x, dtype=float)
    if isinstance(family, str):
        family = glm_family(family)
    eta = beta0 + x @ np.asarray(beta, dtype=float)
    if family.tag == "gaussian":
        return eta + rng.standard_normal(x.shape[0])
    if family.tag == "bernoulli":
        return rng.binomial(1, family.canonical_inverse_link(eta)).astype(float)
    if np.any(eta > _ETA_MAX):
        raise OverflowGuard("poisson linear predictor exceeds the exp(30) guard")
    return rng.poisson(np.exp(eta)).astype(float)


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
    cell's responses, drawn on the covariates ``x_cov``. The Monte-Carlo
    statistics are calibrated in one ``_calibrated`` call and share one
    ``evaluate_many`` pass per cell."""

    def __init__(self, cfg):
        self.cfg = cfg
        rng = substream(cfg.seed, 0)
        self.x_cov = gen_design(cfg.n, cfg.p, cfg.design_spec, rng, intercept=False)
        self.family = glm_family(cfg.family)
        self.x_full = DesignMatrix(np.hstack([np.ones((cfg.n, 1)), self.x_cov.values]),
                                   intercept_column=0)
        self.hyp = SubsetHypothesis(1, np.zeros(cfg.p)).expand(cfg.p + 1)
        # a bernoulli or poisson config holds GLM score statistics: no reduction
        gaussian = cfg.family == "gaussian"
        red = build_reduction(self.x_full, self.hyp) if gaussian else None
        model = (gaussian_pivotal_null(self.x_full, self.hyp, red) if gaussian
                 else _glm_true_null(self.x_full, cfg.family, cfg.beta0))
        pair = _composite_pair(None if gaussian else cfg.family)
        bind = functools.partial(build_evaluator, x=self.x_full, hyp=self.hyp, red=red)
        # a pair of Evaluators per composite and a 1-tuple per spec
        bound = [tuple(map(bind, pair)) if entry == "composite" else (bind(entry),)
                 for entry in cfg.statistics if entry not in ("fisher", "lrt")]
        pairs = [item for item in bound if len(item) == 2]
        evaluators = [ev for item in bound for ev in item]
        cals, composites = _calibrated(
            _get_default_cache(), self.x_full, self.hyp.a_matrix, self.hyp.c_vector, model,
            McConfig(cfg.m_calib, cfg.seed), cfg.alpha, evaluators, pairs)
        calibrated = dict(zip(pairs, composites))
        calibrated.update(((ev,), (ev, cal)) for ev, cal in zip(evaluators, cals))
        mc = iter(calibrated[item] for item in bound)
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
        cfg = self.cfg
        alt = AlternativeSpec(s, theta)
        y = np.empty((cfg.n, cfg.n_reps))
        rngs = _substreams(cfg.seed, 1, s, _theta_key(theta), count=cfg.n_reps)
        for m, rng in enumerate(rngs):
            beta = gen_beta(alt, cfg.p, rng)
            y[:, m] = gen_response(self.x_cov, cfg.beta0, beta, self.family, rng)
        return y

    def evaluate_cell(self, s, theta):
        """One row per column, an error row where the column fails on this cell."""
        cfg = self.cfg
        y = self.simulate_cell(s, theta)
        shared = {}  # {statistic: (values, degenerate mask)}: the mc columns' one pass on y
        rows = []
        for sid, decide in self.columns:
            try:
                rejects = decide(self, y, shared)
            except Exception as exc:  # per-cell failures never abort the grid
                rows.append(PowerRow(sid, cfg.family, s, theta, np.nan, np.nan,
                                     cfg.n_reps, status=f"error: {exc}"))
                continue
            power = float(np.mean(rejects))
            se = float(np.sqrt(power * (1.0 - power) / cfg.n_reps))
            rows.append(PowerRow(sid, cfg.family, s, theta, power, se, cfg.n_reps))
        return rows

    def _exceeds(self, y, shared, stat, threshold):
        """Rejections of a Monte-Carlo column: its statistic above its
        threshold. The first such column of a cell fills ``shared``."""
        if not shared:
            shared.update(zip(self._mc, evaluate_many(self._mc, y)))
        vals, degen = shared[stat]
        return ~degen & (vals > threshold)

    def _fisher_rejects(self, y, _shared=None):
        """F-test rejections; a degenerate replicate has F = 0 and p = 1."""
        fisher = _fisher_batch(self.x_full, self.hyp, y)
        return _f_sf(fisher.f, fisher.df1, fisher.df2) <= self.cfg.alpha

    def _lrt_rejects(self, y, _shared=None):
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
    fisher = _fisher_batch(x, hyp, y[:, None])
    degenerate = bool(fisher.degenerate[0])
    p = float(_f_sf(fisher.f[0], fisher.df1, fisher.df2))  # 1 at F = 0
    return TestResult(
        observed=StatValue(float(fisher.f[0]), degenerate=degenerate),
        lambda_alpha=float(_f_ppf(1.0 - alpha, fisher.df1, fisher.df2)),
        p_value=p,
        reject=p <= alpha,
        alpha=alpha,
        statistic_id=_STUDY_TAGS["fisher"],
        degenerate_note=_DEGENERATE_NOTE if degenerate else None,
    )


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


def _irls_batch(x, y, family, tol=1e-8, max_iter=100):
    """Canonical-link GLM fits of every column of the N x M response y.

    Returns the P x M coefficients and the M deviances. The gaussian fit is
    closed form. Otherwise each column starts from the intercept-only link
    and iterates until its deviance settles; a settled column is frozen, so
    it takes the iterations it would take alone. One GEMM with the rows of
    ``x (x) x`` forms every active column's ``X^T W X``, and one stacked
    solve updates them all. P < N and full column rank at lstsq's
    ``max(N, P) * eps * s_max`` cutoff are required of x.
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
    # start from the intercept-only fit when an intercept column is present
    ones = np.where(np.all(x == 1.0, axis=0))[0]
    if ones.size:
        beta[ones[0]] = family.canonical_link(mustart)
    xx = (x[:, :, None] * x[:, None, :]).reshape(n, p * p)
    dev = np.full(m, np.inf)
    step = max(1, _IRLS_BLOCK_BYTES // (8 * (n + p * p)))
    for start in range(0, m, step):
        active = np.arange(start, min(start + step, m))
        ya = y[:, active]
        eta = np.clip(x @ beta[:, active], -_ETA_MAX, _ETA_MAX)
        mu = family.canonical_inverse_link(eta)
        for _ in range(max_iter):
            w = np.maximum(family.variance(mu), 1e-10)  # canonical: dmu/deta = V(mu)
            z = eta + (ya - mu) / w
            gram = (w.T @ xx).reshape(-1, p, p)
            rhs = (x.T @ (w * z)).T[:, :, None]
            new_beta = np.linalg.solve(gram, rhs)[:, :, 0].T
            eta = np.clip(x @ new_beta, -_ETA_MAX, _ETA_MAX)
            mu = family.canonical_inverse_link(eta)
            new_dev = _deviance(ya, mu, family.tag)
            done = np.abs(dev[active] - new_dev) <= tol * (np.abs(new_dev) + 0.1)
            beta[:, active] = new_beta
            dev[active] = new_dev
            keep = ~done
            active, ya, eta, mu = active[keep], ya[:, keep], eta[:, keep], mu[:, keep]
            if not active.size:
                break
    return beta, dev


def fit_glm_irls(x, y, family, tol=1e-8, max_iter=100):
    """Canonical-link GLM fit by iteratively reweighted least squares.

    Returns (coefficients, deviance). This is the one-column case of the
    column-batched fit that the LRT baseline runs. Every family requires
    P < N and a design of full column rank: a rank-deficient x raises
    RankDeficient, and a bernoulli y outside {0, 1} raises DomainError.
    """
    if isinstance(family, str):
        family = glm_family(family)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_bernoulli(family, y)
    beta, dev = _irls_batch(x, y[:, None], family, tol, max_iter)
    return beta[:, 0], float(dev[0])


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
    against the chi-squared reference with P degrees of freedom. A y that is
    not a finite N-vector raises DimensionMismatch (a bernoulli y outside
    {0, 1}, NaN included, DomainError)."""
    _check_alpha(alpha)
    if isinstance(x, DesignMatrix):
        x = x.tested_values()
    x = np.asarray(x, dtype=float)
    if isinstance(family, str):
        family = glm_family(family)
    # first, so that a bernoulli NaN is a value outside {0, 1}
    _check_bernoulli(family, np.asarray(y, dtype=float))
    y = _as_response(y, x.shape[0])
    n, p = x.shape
    x1 = np.hstack([np.ones((n, 1)), x])
    stat = float(_lrt_statistics(y[:, None], x1, family)[0])
    p_val = float(_chi2_sf(stat, p))
    return TestResult(
        observed=StatValue(stat),
        lambda_alpha=float(_chi2_ppf(1.0 - alpha, p)),
        p_value=p_val,
        reject=p_val <= alpha,
        alpha=alpha,
        statistic_id=_STUDY_TAGS["lrt"],
    )
