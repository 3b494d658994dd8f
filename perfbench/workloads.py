"""The four benchmark workloads: inputs, the timed program call, the
correctness checks and the traced replay of each request.

Every workload is a closed loop driven by one client in one process: the
next request is sent when the previous one has returned.  Requests come in
fixed blocks and a run always ends on a block boundary, so the request mix
(and every computed count) is the same in every run.
"""

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sp_stats

from threshtest import (
    DesignMatrix,
    LinearHypothesis,
    McConfig,
    StatisticSpec,
    SubsetHypothesis,
    build_evaluator,
    build_reduction,
    calibrate_composite,
    confidence_region,
    cr_grid,
    cr_member,
    gaussian_pivotal_null,
    gen_beta,
    gen_design,
    gen_response,
    glm_family,
    glm_plugin_null,
    p_value,
    run_composite,
    run_test,
    simulate_null,
    substream,
)
from threshtest import cli
from threshtest.calibration import (
    CalibrationResult,
    NullModel,
    calibrate_many,
    order_stat_index,
)
from threshtest.exceptions import ThreshTestError
from threshtest.inference import CalibrationCache
from threshtest.simulate import (
    AlternativeSpec,
    DesignSpec,
    ExperimentConfig,
    baseline_lrt,
    estimate_power,
)
from threshtest import PowerRow
from threshtest.statistics import GLM_FAMILIES

import reference
from spans import kernel_spans


@dataclass(frozen=True)
class Shape:
    """Problem sizes; ``SMOKE`` shrinks every one of them."""

    n: int = 500
    p_cov: int = 50            # covariates; an intercept column is added
    n_tested: int = 10         # H0: the last n_tested coefficients are 0
    m_draws: int = 2000
    alpha: float = 0.05
    block: int = 50            # test_fresh requests per block, one invalid
    grid: str = "-1:1.6:121"
    region_pool: int = 4
    power_n: int = 100
    power_p: int = 20
    power_s: tuple = (1, 5)
    power_theta: tuple = (0.0, 0.2, 0.4)
    power_reps: int = 500
    power_m: int = 2000


FULL = Shape()
SMOKE = Shape(n=60, p_cov=8, n_tested=3, m_draws=99, block=10,
              grid="-1:1.6:11", region_pool=2, power_n=40, power_p=5,
              power_s=(1, 2), power_theta=(0.0, 0.4), power_reps=20,
              power_m=99)


@dataclass
class Request:
    i: int
    kind: str
    inputs: dict = field(default_factory=dict)


def _files(directory):
    return set(os.listdir(directory))


def _same(a, b):
    """Bitwise float agreement (NaN equals NaN)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def gemm_flops(ev, m):
    """Computed GEMM flops of one ``evaluate_batch`` call on m columns."""
    n, p = ev.x.values.shape
    if ev.spec.family in GLM_FAMILIES:  # X_tested^T (Y - ybar)
        return 2 * m * n * (p - (ev.x.intercept_column is not None))
    # affine family: Q^T V, Q (Q^T V), X^T R, Vt Z, U (Vt Z / s)
    k = ev.red.projector_factor.shape[1]
    r = ev.red.pseudo_s.shape[0]
    return 2 * m * (2 * n * k + n * p + r * p + r * r)


def evaluate(tracer, ev, y_mat):
    """Traced ``Evaluator.evaluate_batch`` with its computed counts."""
    tracer.count("statistics.columns", y_mat.shape[1])
    tracer.count("statistics.gemm_flop", gemm_flops(ev, y_mat.shape[1]))
    with tracer.span("statistics.evaluate_batch"):
        return ev.evaluate_batch(y_mat)


def count_calibration(tracer, evs, m, batches=1):
    """Computed counts of a calibration run inside one library call."""
    tracer.count("calibration.null_draws", m * batches)
    for ev in evs:
        tracer.count("statistics.columns", m * batches)
        tracer.count("statistics.gemm_flop", gemm_flops(ev, m) * batches)


def count_degenerate(tracer, sorted_stats):
    """Degenerate null values sort last as +inf."""
    tracer.count("calibration.null_values", sorted_stats.size)
    tracer.count("calibration.degenerate_draws", int(np.sum(np.isinf(sorted_stats))))


def null_batch(tracer, model, m, seed, batch):
    """The null draws of one calibration batch, in the library's key layout."""
    tracer.count("calibration.null_draws", m)
    with tracer.span("calibration.null_draw"):
        out = np.empty((model.design.n, m))
        for j in range(m):
            out[:, j] = simulate_null(model, substream(seed, batch, j))
    return out


def replay_calibration(tracer, evs, model, m, alpha, seed):
    """``calibrate_many`` stage by stage: draws, batch evaluation, sort."""
    k = order_stat_index(m, alpha)
    y0 = null_batch(tracer, model, m, seed, 0)
    cals = []
    for ev in evs:
        vals, degen = evaluate(tracer, ev, y0)
        with tracer.span("calibration.sort"):
            vals = np.sort(np.where(degen, np.inf, vals))
            cals.append(CalibrationResult(vals, float(vals[k - 1]), alpha, m, seed,
                                          ev.statistic_id))
        count_degenerate(tracer, vals)
    return cals


def observe(tracer, ev, y):
    vals, degen = evaluate(tracer, ev, y[:, None])
    return float(vals[0]), bool(degen[0])


class Workload:
    """Hooks the runner calls; subclasses fill in the workload."""

    block_size = 1

    def __init__(self, shape, seed, work_dir, ref_shift=0.0):
        self.shape = shape
        self.seed = seed
        self.work = work_dir
        self.ref_shift = ref_shift  # nonzero only in the smoke mode's wrong-reference run

    def fresh_dir(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def block(self, b):
        return [self.request(b * self.block_size + j) for j in range(self.block_size)]

    def warmup_requests(self):
        return []

    def cache_files(self):
        """Files in the calibration cache directory, or None without one."""
        return None

    def is_invalid(self, req):
        """True for a request whose input no valid test exists for."""
        return False

    def release(self, req):
        req.inputs.clear()

    def final_checks(self, records):
        """Untimed determinism checks: {request index: [problems]}."""
        return {}


# ---------------------------------------------------------------- test_fresh

VALID = ("sqrt_affine_lasso", "affine_lasso", "sqrt_affine_group_lasso",
         "composite", "glm_score_sup")
INVALID = ("nan_response", "bernoulli_out_of_support", "response_in_null_span")
WARMUP = 10 ** 9  # warm-up request ids, never reached by measured requests
STAT_OF = {"nan_response": "sqrt_affine_lasso", "response_in_null_span": "sqrt_affine_lasso",
           "bernoulli_out_of_support": "glm_score_sup"}


def _gaussian_design(rng, n, p_cov):
    return DesignMatrix(np.hstack([np.ones((n, 1)), rng.standard_normal((n, p_cov))]),
                        intercept_column=0)


class TestFresh(Workload):
    """A new dataset per request, so the calibration cache always misses."""

    name = "test_fresh"

    def setup(self):
        sh = self.shape
        p = sh.p_cov + 1
        self.hyp = SubsetHypothesis(p - sh.n_tested, np.zeros(sh.n_tested)).expand(p)
        self.specs = {
            "sqrt_affine_lasso": StatisticSpec("sqrt_affine_lasso"),
            "affine_lasso": StatisticSpec("affine_lasso"),
            "sqrt_affine_group_lasso": StatisticSpec(
                "sqrt_affine_group_lasso", row_partition=(tuple(range(sh.n_tested)),)),
            "glm_score_sup": StatisticSpec("glm_score_sup", glm_family="bernoulli"),
        }
        # requests share one cache directory, as `threshtest test` processes
        # sharing THRESHTEST_CACHE_DIR would
        self.cache_dir = self.fresh_dir("test_fresh_cache")
        self.replay_dir = self.fresh_dir("test_fresh_replay_cache")
        self.block_size = sh.block

    def request(self, i):
        b, j = divmod(i, self.shape.block)
        if j == self.shape.block - 1:
            return Request(i, INVALID[b % len(INVALID)])
        return Request(i, VALID[j % len(VALID)])

    def warmup_requests(self):
        return [Request(WARMUP + j, kind) for j, kind in enumerate(VALID)]

    def is_invalid(self, req):
        return req.kind in INVALID

    def prepare(self, req, stream=1):
        sh = self.shape
        rng = self.rng(stream, req.i)
        mc = McConfig(m_draws=sh.m_draws, seed=int(rng.integers(2 ** 31)))
        x = _gaussian_design(rng, sh.n, sh.p_cov)
        n_free = x.p - sh.n_tested
        if req.kind in ("glm_score_sup", "bernoulli_out_of_support"):
            eta = 0.2 + x.values[:, 1:] @ rng.normal(0.0, 0.05, sh.p_cov)
            y = (rng.random(sh.n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
            if req.kind == "bernoulli_out_of_support":
                y = np.full(sh.n, 2.5)
        else:
            beta = np.concatenate([[0.5], rng.normal(0.0, 0.5, n_free - 1),
                                   rng.normal(0.0, 0.05, sh.n_tested)])
            y = x.values @ beta + rng.standard_normal(sh.n)
            if req.kind == "nan_response":
                y[0] = np.nan
            elif req.kind == "response_in_null_span":
                y = x.values[:, :n_free] @ beta[:n_free]
        spec = None if req.kind == "composite" else self.specs[STAT_OF.get(req.kind, req.kind)]
        req.inputs.update(x=x, y=y, mc=mc, spec=spec)

    def call(self, req):
        x, y, mc, spec = (req.inputs[k] for k in ("x", "y", "mc", "spec"))
        if spec is None:
            return run_composite(y, x, self.hyp, alpha=self.shape.alpha, mc=mc)
        return run_test(y, x, self.hyp, spec, alpha=self.shape.alpha, mc=mc,
                        cache=CalibrationCache(directory=self.cache_dir))

    def replicates(self, req):
        # the observed response plus every null draw (two batches for composite)
        return 1 + self.shape.m_draws * (2 if req.kind == "composite" else 1)

    def check(self, req, out):
        if req.kind in INVALID:
            return self._check_invalid(req, out)
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        return check_test_result(self, req, out)

    def _check_invalid(self, req, out):
        if isinstance(out, ThreshTestError):
            return []
        if isinstance(out, Exception):
            return [f"untyped {type(out).__name__}: {out}"]
        if req.kind == "response_in_null_span" and out.degenerate_note and not out.reject:
            return []
        return [f"accepted invalid input ({req.kind}): observed={out.observed.value!r} "
                f"p={out.p_value!r} reject={out.reject}"]

    def record(self, req, out):
        return test_record(req, out)

    def cache_files(self):
        return _files(self.cache_dir)

    def note_cache(self, req, added, tracer):
        """Count a miss for every file a run_test call added to the cache
        directory and a hit for a call that added none."""
        if req.inputs["spec"] is None:
            return  # run_composite does not use the cache
        tracer.count("inference.cache.misses", len(added))
        tracer.count("inference.cache.hits", not added)
        if added:
            req.inputs["cache_key"] = sorted(added)[0][len("cal_"):-len(".txt")]

    def replay(self, req, out, base_s, tracer):
        if isinstance(out, Exception):
            return []  # nothing to reproduce
        x, y, mc, spec = (req.inputs[k] for k in ("x", "y", "mc", "spec"))
        key = req.inputs.get("cache_key")
        if spec is not None and key is None:
            return ["run_test wrote no calibration to the cache"]
        t0 = time.perf_counter()
        with kernel_spans(tracer):
            if spec is None:
                got = replay_composite(tracer, x, y, self.hyp, self.shape.alpha, mc)
            else:
                got = replay_run_test(tracer, x, y, self.hyp, spec, self.shape.alpha, mc,
                                      self.replay_dir, key)
        tracer.count("trace.replay_s", time.perf_counter() - t0)
        tracer.count("trace.base_s", base_s)
        for name in os.listdir(self.replay_dir):
            os.remove(os.path.join(self.replay_dir, name))
        return compare_test(out, got)

    def final_checks(self, records):
        """Re-run the first request of every valid kind with the same inputs
        and an empty cache: p-values must repeat bitwise."""
        self.cache_dir = self.fresh_dir("test_fresh_rerun_cache")
        problems = {}
        for rec in records[:len(VALID)]:
            req = Request(rec["i"], rec["kind"])
            self.prepare(req)
            try:
                out = self.call(req)
            except Exception as exc:  # compared like any other outcome
                out = exc
            again = test_record(req, out)
            if again != rec:
                problems[rec["i"]] = [f"rerun differs: {again} vs {rec}"]
        return problems


def check_test_result(wl, req, out):
    """p-value range, rejection rule and the dense observed statistic."""
    sh = wl.shape
    m = sh.m_draws
    p = out.p_value
    problems = []
    if not (np.isfinite(p) and 1.0 / (m + 1) <= p <= 1.0):
        problems.append(f"p-value {p!r} outside [1/(M+1), 1]")
    if out.reject != (p <= sh.alpha):
        problems.append(f"reject={out.reject} but p={p!r} at alpha={sh.alpha}")
    if out.observed.degenerate:
        problems.append("valid data gave a degenerate statistic")
        return problems
    spec = req.inputs["spec"]
    if spec is None:
        return problems  # the composite ratio has no dense counterpart
    x, y = req.inputs["x"], req.inputs["y"]
    if spec.family in GLM_FAMILIES:
        ref = reference.bernoulli_score(x.values[:, 1:], y)
    else:
        ref = reference.affine_statistic(x.values, wl.hyp.a_matrix, wl.hyp.c_vector, y,
                                         spec.family)
    if not reference.close(out.observed.value, ref, wl.ref_shift):
        problems.append(f"observed {out.observed.value!r} vs dense {ref!r}")
    return problems


def test_record(req, out):
    if isinstance(out, Exception):
        return {"i": req.i, "kind": req.kind, "error": f"{type(out).__name__}: {out}"}
    return {"i": req.i, "kind": req.kind, "seed": req.inputs["mc"].seed,
            "observed": out.observed.value, "lambda_alpha": out.lambda_alpha,
            "p_value": out.p_value, "reject": out.reject,
            "degenerate": out.observed.degenerate}


def compare_test(out, got):
    problems = []
    for name in ("observed", "lambda_alpha", "p_value"):
        want = out.observed.value if name == "observed" else getattr(out, name)
        if not _same(want, got[name]):
            problems.append(f"replay {name} {got[name]!r} vs {want!r}")
    if got["reject"] != out.reject:
        problems.append(f"replay reject {got['reject']} vs {out.reject}")
    return problems


def replay_run_test(tracer, x, y, hyp, spec, alpha, mc, cache_dir, key):
    """``run_test`` stage by stage; ``key`` names the cache file."""
    glm = spec.family in GLM_FAMILIES
    red = None
    if not glm:
        with tracer.span("core.build_reduction"):
            red = build_reduction(x, hyp)
    with tracer.span("statistics.build_evaluator"):
        ev = build_evaluator(spec, x, hyp=hyp, red=red)
    model = glm_plugin_null(x, spec.glm_family, y) if glm else gaussian_pivotal_null(x, hyp, red)
    computed = []

    def compute():
        computed.append(True)
        return replay_calibration(tracer, [ev], model, mc.m_draws, alpha, mc.seed)[0]

    with tracer.span("inference.cache") as span:
        cal = CalibrationCache(directory=cache_dir).get_or_compute(key, compute)
        span[0] = "inference.cache.save" if computed else "inference.cache.load"
    tracer.count("inference.cache.bytes",
                 os.path.getsize(os.path.join(cache_dir, f"cal_{key}.txt")))
    value, degenerate = observe(tracer, ev, y)
    if degenerate:
        return {"observed": value, "lambda_alpha": cal.lambda_alpha, "p_value": 1.0,
                "reject": False}
    with tracer.span("calibration.sort"):
        p = p_value(value, cal)
    return {"observed": value, "lambda_alpha": cal.lambda_alpha, "p_value": p,
            "reject": bool(value > cal.lambda_alpha)}


def replay_composite(tracer, x, y, hyp, alpha, mc):
    """``run_composite`` (default pair) stage by stage."""
    m = mc.m_draws
    with tracer.span("core.build_reduction"):
        red = build_reduction(x, hyp)
    with tracer.span("statistics.build_evaluator"):
        ev1 = build_evaluator(StatisticSpec("sqrt_affine_lasso"), x, hyp=hyp, red=red)
        ev2 = build_evaluator(StatisticSpec("sqrt_affine_group_lasso",
                                            row_partition=(tuple(range(hyp.r)),)),
                              x, hyp=hyp, red=red)
    model = gaussian_pivotal_null(x, hyp, red)
    cal1, cal2 = replay_calibration(tracer, [ev1, ev2], model, m, alpha, mc.seed)
    y1 = null_batch(tracer, model, m, mc.seed, 1)
    v1, d1 = evaluate(tracer, ev1, y1)
    v2, d2 = evaluate(tracer, ev2, y1)
    with tracer.span("calibration.sort"):
        comp = np.sort(np.maximum(np.where(d1, np.inf, v1) / cal1.lambda_alpha,
                                  np.where(d2, np.inf, v2) / cal2.lambda_alpha))
        kappa = float(comp[order_stat_index(m, alpha) - 1])
    count_degenerate(tracer, comp)
    o1, g1 = observe(tracer, ev1, y)
    o2, g2 = observe(tracer, ev2, y)
    if g1 or g2:
        return {"observed": 0.0, "lambda_alpha": kappa, "p_value": 1.0, "reject": False}
    with tracer.span("calibration.sort"):
        observed = max(o1 / cal1.lambda_alpha, o2 / cal2.lambda_alpha)
        count = m - int(np.searchsorted(comp, observed, side="left"))
    return {"observed": observed, "lambda_alpha": kappa, "p_value": (1 + count) / (m + 1),
            "reject": bool(observed > kappa)}


# --------------------------------------------------------------- test_cached

CACHED_KINDS = ("sqrt_affine_lasso", "affine_lasso", "sqrt_affine_group_lasso",
                "glm_score_sup")


class TestCached(TestFresh):
    """A pool of 8 fixed triples whose calibrations are on disk."""

    name = "test_cached"
    pool_size = 8

    def setup(self):
        TestFresh.setup(self)
        self.cache_dir = self.fresh_dir("test_cached_cache")
        self.block_size = self.pool_size
        self.pool = []
        for k in range(self.pool_size):
            req = Request(k, CACHED_KINDS[k % len(CACHED_KINDS)])
            TestFresh.prepare(self, req, stream=2)
            before = _files(self.cache_dir)
            out = TestFresh.call(self, req)
            (name,) = _files(self.cache_dir) - before
            req.inputs.update(cache_key=name[len("cal_"):-len(".txt")],
                              setup_record=test_record(req, out), checked=False)
            self.pool.append(req)

    def request(self, i):
        return Request(i, CACHED_KINDS[i % self.pool_size % len(CACHED_KINDS)])

    def warmup_requests(self):
        return [Request(k, CACHED_KINDS[k % len(CACHED_KINDS)])
                for k in range(self.pool_size)]

    def prepare(self, req):
        req.inputs.update(self.pool[req.i % self.pool_size].inputs)

    def replicates(self, req):
        return 1

    def check(self, req, out):
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        triple = self.pool[req.i % self.pool_size].inputs
        problems = []
        if not triple["checked"]:  # the dense check once per triple
            problems = check_test_result(self, req, out)
            triple["checked"] = not problems
        rec = dict(test_record(req, out), i=triple["setup_record"]["i"])
        if rec != triple["setup_record"]:
            problems.append(f"differs from the set-up result {triple['setup_record']}")
        return problems

    def replay(self, req, out, base_s, tracer):
        if isinstance(out, Exception):
            return []
        x, y, mc, spec = (req.inputs[k] for k in ("x", "y", "mc", "spec"))
        t0 = time.perf_counter()
        with kernel_spans(tracer):
            got = replay_run_test(tracer, x, y, self.hyp, spec, self.shape.alpha, mc,
                                  self.cache_dir, req.inputs["cache_key"])
        tracer.count("trace.replay_s", time.perf_counter() - t0)
        tracer.count("trace.base_s", base_s)
        return compare_test(out, got)

    def final_checks(self, records):
        return {}  # every request is compared with the set-up result


# --------------------------------------------------------------- region_scan

REGION_STAT = StatisticSpec("sqrt_affine_lasso")


def _parse_axis(spec):
    lo, hi, num = spec.split(":")
    return np.linspace(float(lo), float(hi), int(num))


class RegionScan(Workload):
    """In-process `threshtest region` calls on a small pool of CSV files."""

    name = "region_scan"

    def setup(self):
        sh = self.shape
        self.dir = self.fresh_dir("region_scan")
        self.grid = _parse_axis(sh.grid)
        a = np.zeros((1, sh.p_cov + 1))
        a[0, 1], a[0, 2] = 1.0, -1.0  # contrast beta_1 - beta_2
        self.a = a
        hyp_path = os.path.join(self.dir, "contrast.json")
        with open(hyp_path, "w") as fh:
            json.dump({"A": a.tolist(), "c": [0.0]}, fh)
        self.files = []
        for k in range(sh.region_pool):
            rng = self.rng(3, k)
            x = _gaussian_design(rng, sh.n, sh.p_cov)
            beta = np.concatenate([[0.5, 0.4, 0.1], rng.normal(0.0, 0.3, sh.p_cov - 2)])
            y = x.values @ beta + rng.standard_normal(sh.n)
            path = os.path.join(self.dir, f"data{k}.csv")
            with open(path, "w") as fh:
                fh.write(",".join(["y"] + [f"x{j}" for j in range(1, sh.p_cov + 1)]) + "\n")
                for yi, row in zip(y, x.values[:, 1:]):
                    fh.write(",".join(repr(float(v)) for v in (yi, *row)) + "\n")
            self.files.append({"x": x, "y": y, "path": path, "hyp": hyp_path,
                               "seed": int(rng.integers(2 ** 31)), "lambda_alpha": None,
                               "first": None})

    def request(self, i):
        return Request(i, f"data{i % self.shape.region_pool}")

    def warmup_requests(self):
        return [Request(0, "data0")]

    def prepare(self, req):
        f = self.files[req.i % self.shape.region_pool]
        out = os.path.join(self.dir, "region.csv")
        req.inputs.update(file=f, out=out, plot=os.path.join(self.dir, "region.svg"))
        req.inputs["argv"] = [
            "region", "--data", f["path"], "--response", "y", "--intercept",
            "--hypothesis", f["hyp"], "--stat", REGION_STAT.family,
            "--mc", str(self.shape.m_draws), "--alpha", repr(self.shape.alpha),
            "--seed", str(f["seed"]), f"--grid={self.shape.grid}",
            "--out", out, "--plot", req.inputs["plot"]]

    def call(self, req):
        return cli.main(req.inputs["argv"])

    def replicates(self, req):
        return 1 + self.shape.m_draws

    def mc(self, f):
        return McConfig(m_draws=self.shape.m_draws, seed=f["seed"])

    def check(self, req, rc):
        if isinstance(rc, Exception) or rc != 0:
            return [f"region exited with {rc!r}"]
        f = req.inputs["file"]
        with open(req.inputs["out"]) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        cs = np.array([float(r[0]) for r in rows])
        lam = np.array([float(r[1]) for r in rows])
        mask = np.array([r[2] == "1" for r in rows])
        req.inputs.update(lam=lam, mask=mask)
        if cs.shape != self.grid.shape or not np.array_equal(cs, self.grid):
            return ["grid column differs from --grid"]
        problems = []
        if f["lambda_alpha"] is None:  # y-independent: one calibration per file
            f["lambda_alpha"] = confidence_region(f["y"], f["x"], self.a, REGION_STAT,
                                                  self.shape.alpha, self.mc(f)).lambda_alpha
        if not np.array_equal(mask, lam <= f["lambda_alpha"]):
            problems.append("mask disagrees with lambda_CR <= lambda_alpha")
        members = np.flatnonzero(mask)
        picks = {int(self.rng(4, req.i).integers(len(cs)))}
        if members.size:
            picks |= {members[0] - 1, members[0], members[-1], members[-1] + 1}
        for j in sorted(q for q in picks if 0 <= q < len(cs)):
            if cr_member(cs[j], f["y"], f["x"], self.a, REGION_STAT,
                         f["lambda_alpha"]) != mask[j]:
                problems.append(f"cr_member disagrees at c={cs[j]!r}")
            ref = reference.affine_statistic(f["x"].values, self.a, np.array([cs[j]]),
                                             f["y"], REGION_STAT.family)
            if not reference.close(lam[j], ref, self.ref_shift):
                problems.append(f"lambda_CR({cs[j]!r}) = {lam[j]!r} vs dense {ref!r}")
        if not os.path.getsize(req.inputs["plot"]):
            problems.append("empty plot")
        rec = self.record(req, rc)
        if f["first"] is None:
            f["first"] = rec
        elif dict(rec, i=None) != dict(f["first"], i=None):
            problems.append("same file and seed gave a different region")
        return problems

    def record(self, req, rc):
        if "mask" not in req.inputs:
            return {"i": req.i, "file": req.kind, "exit": repr(rc)}
        mask, lam = req.inputs["mask"], req.inputs["lam"]
        members = np.flatnonzero(mask)
        f = req.inputs["file"]
        return {"i": req.i, "file": req.kind, "lambda_alpha": f["lambda_alpha"],
                "members": int(members.size),
                "ends": [float(self.grid[members[0]]), float(self.grid[members[-1]])]
                if members.size else None,
                "mask_sha256": hashlib.sha256(mask.tobytes()).hexdigest(),
                "lambda_sha256": hashlib.sha256(lam.tobytes()).hexdigest()}

    def replay(self, req, rc, base_s, tracer):
        if "mask" not in req.inputs:
            return []
        f = req.inputs["file"]
        x, y, mc, alpha = f["x"], f["y"], self.mc(f), self.shape.alpha
        problems = []
        t0 = time.perf_counter()
        region = confidence_region(y, x, self.a, REGION_STAT, alpha, mc)
        lib_mask, _ = cr_grid(y, x, self.a, REGION_STAT, region.lambda_alpha, self.grid)
        lib_s = time.perf_counter() - t0
        tracer.count("cli.overhead_s", base_s - lib_s)
        tracer.count("cli.bytes_written", sum(
            os.path.getsize(p) for p in (req.inputs["out"], req.inputs["plot"],
                                         req.inputs["out"] + ".manifest.json")))
        if not np.array_equal(lib_mask, req.inputs["mask"]):
            problems.append("cr_grid mask differs from the CLI mask")

        t0 = time.perf_counter()
        with kernel_spans(tracer):
            hyp0 = LinearHypothesis(self.a, np.zeros(1), REGION_STAT.row_partition)
            with tracer.span("core.build_reduction"):
                red0 = build_reduction(x, hyp0)
            with tracer.span("statistics.build_evaluator"):
                ev0 = build_evaluator(REGION_STAT, x, hyp=hyp0, red=red0)
            (cal,) = replay_calibration(tracer, [ev0], gaussian_pivotal_null(x, hyp0, red0),
                                        mc.m_draws, alpha, mc.seed)
            lam = []
            for c in self.grid:
                hyp = LinearHypothesis(self.a, np.array([c]), REGION_STAT.row_partition)
                with tracer.span("core.build_reduction"):
                    red = build_reduction(x, hyp)
                with tracer.span("statistics.build_evaluator"):
                    ev = build_evaluator(REGION_STAT, x, hyp=hyp, red=red)
                value, degenerate = observe(tracer, ev, y)
                lam.append(0.0 if degenerate else value)
        tracer.count("trace.replay_s", time.perf_counter() - t0)
        tracer.count("trace.base_s", lib_s)
        lam = np.array(lam)
        if not _same(cal.lambda_alpha, region.lambda_alpha):
            problems.append(f"replay lambda_alpha {cal.lambda_alpha!r} vs "
                            f"{region.lambda_alpha!r}")
        if not np.array_equal(lam, req.inputs["lam"]):
            problems.append("replay lambda_CR values differ from the CLI output")
        if not np.array_equal(lam <= cal.lambda_alpha, req.inputs["mask"]):
            problems.append("replay mask differs from the CLI mask")
        return problems


# --------------------------------------------------------------- power_study

FISHER_TOLERANCE = "|power difference| <= 1/n_reps"


def _theta_key(theta):
    # the harness keys replicate substreams by the bit pattern of theta
    return int(np.float64(theta).view(np.uint64))


class PowerStudy(Workload):
    """Two `estimate_power` grids per request at threads=1.

    The cost of a study depends on the simulated design: the IRLS baseline
    converges faster on some designs than others, and the bernoulli grid took
    3.4 to 5.8 s across eight designs.  A run holds only a few studies, so
    every run works through the same pool of study seeds, one block, and
    ``--seed`` only rotates the order; otherwise the design would be measured
    instead of the program.
    """

    name = "power_study"
    study_seeds = (20170808, 1708029)
    block_size = len(study_seeds)

    def setup(self):
        pass

    def request(self, i):
        return Request(i, "gaussian+bernoulli")

    def configs(self, i):
        sh = self.shape
        seed = self.study_seeds[(i + self.seed) % len(self.study_seeds)]
        common = dict(n=sh.power_n, p=sh.power_p, alpha=sh.alpha, m_calib=sh.power_m,
                      n_reps=sh.power_reps, theta_grid=sh.power_theta,
                      s_values=sh.power_s, design_spec=DesignSpec(), seed=seed)
        return [
            ExperimentConfig(family="gaussian", statistics=(
                StatisticSpec("sqrt_affine_lasso"), "composite", "fisher", "lrt"), **common),
            ExperimentConfig(family="bernoulli", beta0=0.0, statistics=(
                StatisticSpec("glm_score_sup", glm_family="bernoulli"), "composite", "lrt"),
                **common),
        ]

    def prepare(self, req):
        req.inputs["cfgs"] = self.configs(req.i)

    def call(self, req, threads=1):
        return [estimate_power(cfg, threads=threads) for cfg in req.inputs["cfgs"]]

    def replicates(self, req):
        sh = self.shape
        return 2 * len(sh.power_s) * len(sh.power_theta) * sh.power_reps

    def check(self, req, out):
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        problems = []
        cells = len(self.shape.power_s) * len(self.shape.power_theta)
        for cfg, rows in zip(req.inputs["cfgs"], out):
            if len(rows) != cells * len(cfg.statistics):
                problems.append(f"{cfg.family}: {len(rows)} rows")
            for row in rows:
                if row.status != "ok" or not (0.0 <= row.power_estimate <= 1.0) \
                        or not np.isfinite(row.mc_standard_error):
                    problems.append(f"bad row {row.as_csv_row()}")
        return problems

    def record(self, req, out):
        if isinstance(out, Exception):
            return {"i": req.i, "error": repr(out)}
        return {"i": req.i, "seed": req.inputs["cfgs"][0].seed,
                "rows": [list(row.as_csv_row()) for rows in out for row in rows]}

    def replay(self, req, out, base_s, tracer):
        if isinstance(out, Exception):
            return []
        t0 = time.perf_counter()
        with kernel_spans(tracer):
            got = [replay_power(tracer, cfg) for cfg in req.inputs["cfgs"]]
        tracer.count("trace.replay_s", time.perf_counter() - t0)
        tracer.count("trace.base_s", base_s)
        problems = []
        for rows, rows_got in zip(out, got):
            for row, row_got in zip(rows, rows_got):
                if row.as_csv_row() == row_got.as_csv_row():
                    continue
                # the Fisher baseline is reached through the fisher_weighted
                # evaluator, whose F differs from the harness's in the last bits
                near = (row.statistic_id == "baseline_fisher"
                        and abs(row.power_estimate - row_got.power_estimate)
                        <= 1.0 / row.n_reps + 1e-12)
                if not near:
                    problems.append(f"replay row {row_got.as_csv_row()} vs {row.as_csv_row()}")
        return problems

    def final_checks(self, records):
        """Request 0 again at threads=2: the rows must be byte-identical."""
        req = self.request(0)
        self.prepare(req)
        try:
            again = self.record(req, self.call(req, threads=2))
        except Exception as exc:  # recorded as a failure of request 0
            again = {"error": repr(exc)}
        if records and again != records[0]:
            return {0: ["threads=2 rows differ from threads=1"]}
        return {}


def replay_power(tracer, cfg):
    """``estimate_power`` (threads=1) stage by stage."""
    sh_cells = [(s, theta) for s in cfg.s_values for theta in cfg.theta_grid]
    x_cov = gen_design(cfg.n, cfg.p, cfg.design_spec, substream(cfg.seed, 0),
                       intercept=False)
    family = glm_family(cfg.family)
    x_full = hyp = red = None
    if cfg.family == "gaussian":
        x_full = DesignMatrix(np.hstack([np.ones((cfg.n, 1)), x_cov.values]),
                              intercept_column=0)
        hyp = SubsetHypothesis(1, np.zeros(cfg.p)).expand(cfg.p + 1)
        with tracer.span("core.build_reduction"):
            red = build_reduction(x_full, hyp)
        model = gaussian_pivotal_null(x_full, hyp, red)
    else:
        mean = float(family.canonical_inverse_link(cfg.beta0))
        if cfg.family == "bernoulli":
            mean = min(max(mean, 1.0 / (2 * cfg.n)), 1.0 - 1.0 / (2 * cfg.n))
        model = NullModel(kind="glm_plugin", design=x_cov, family=family,
                          null_mean=mean, beta0_hat=cfg.beta0)

    def bind(spec):
        if spec.family in GLM_FAMILIES:
            return build_evaluator(spec, x_cov)
        return build_evaluator(spec, x_full, hyp=hyp, red=red)

    entries, mc_evs = [], []
    for entry in cfg.statistics:
        if isinstance(entry, StatisticSpec):
            ev = bind(entry)
            mc_evs.append(ev)
            entries.append(["mc", ev, None])
        elif entry == "composite":
            if cfg.family == "gaussian":
                pair = (StatisticSpec("sqrt_affine_lasso"), StatisticSpec(
                    "sqrt_affine_group_lasso", row_partition=(tuple(range(hyp.r)),)))
            else:
                pair = (StatisticSpec("glm_score_sup", glm_family=cfg.family),
                        StatisticSpec("glm_score_group", glm_family=cfg.family,
                                      row_partition=(tuple(range(cfg.p)),)))
            evs = tuple(bind(spec) for spec in pair)
            with tracer.span("simulate.calibrate"):
                comp = calibrate_composite(*evs, model, cfg.m_calib, cfg.alpha, cfg.seed)
            count_calibration(tracer, evs, cfg.m_calib, batches=2)
            for stats in (comp.cal_1.sorted_null_stats, comp.cal_2.sorted_null_stats,
                          comp.sorted_composite_stats):
                count_degenerate(tracer, stats)
            entries.append(["composite", evs, comp])
        elif entry == "fisher":
            entries.append(["fisher", bind(StatisticSpec("fisher_weighted")), None])
        else:
            entries.append(["lrt", None, None])
    if mc_evs:
        with tracer.span("simulate.calibrate"):
            cals = calibrate_many(mc_evs, model, cfg.m_calib, cfg.alpha, cfg.seed)
        count_calibration(tracer, mc_evs, cfg.m_calib)
        for cal in cals:
            count_degenerate(tracer, cal.sorted_null_stats)
        for entry in entries:
            if entry[0] == "mc":
                entry[2] = cals[mc_evs.index(entry[1])]

    rows = []
    for s, theta in sh_cells:
        alt = AlternativeSpec(s, theta)
        with tracer.span("simulate.response_gen"):
            y = np.empty((cfg.n, cfg.n_reps))
            for m in range(cfg.n_reps):
                rng = substream(cfg.seed, 1, s, _theta_key(theta), m)
                y[:, m] = gen_response(x_cov, cfg.beta0, gen_beta(alt, cfg.p, rng),
                                       family, rng)
        for kind, ev, art in entries:
            if kind == "mc":
                vals, degen = evaluate(tracer, ev, y)
                rejects = (~degen) & (vals > art.lambda_alpha)
                sid = ev.statistic_id
            elif kind == "composite":
                (v1, d1), (v2, d2) = (evaluate(tracer, e, y) for e in ev)
                ratio = np.maximum(v1 / art.cal_1.lambda_alpha, v2 / art.cal_2.lambda_alpha)
                rejects = (~(d1 | d2)) & (ratio > art.kappa_alpha)
                sid = f"composite({art.cal_1.statistic_id},{art.cal_2.statistic_id})"
            elif kind == "fisher":
                with tracer.span("simulate.fisher"):
                    studentized, _ = ev.evaluate_batch(y)
                    df2 = cfg.n - cfg.p - 1
                    f_vals = studentized ** 2 / hyp.r
                    rejects = sp_stats.f.sf(f_vals, hyp.r, df2) <= cfg.alpha
                sid = "baseline_fisher"
            else:
                tracer.count("simulate.lrt.fits", cfg.n_reps)
                with tracer.span("simulate.lrt"):
                    rejects = np.array([
                        baseline_lrt(y[:, m], x_cov.values, family, cfg.alpha).reject
                        for m in range(cfg.n_reps)])
                sid = "baseline_lrt"
            power = float(np.mean(rejects))
            se = float(np.sqrt(power * (1.0 - power) / cfg.n_reps))
            rows.append(PowerRow(sid, cfg.family, s, theta, power, se, cfg.n_reps))
    rows.sort(key=lambda r: (r.statistic_id, r.s, r.theta))
    return rows


WORKLOADS = {wl.name: wl for wl in (TestFresh, TestCached, RegionScan, PowerStudy)}
