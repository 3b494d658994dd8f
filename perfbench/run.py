"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload test_fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced replay with ``--trace 1``.  Request records (every
p-value, lambda_alpha, region mask digest and power row) and the spans go
to ``.bench_out/``.  ``--smoke`` runs every workload at a tiny size, prints
every metric with its unit and checks that a deliberately wrong reference
is counted as a failure.
"""

import os
import sys

# One BLAS thread (at most nproc): on two cores an unpinned OpenBLAS pool
# doubles the time of the region grid, so the pool would be measured instead
# of the library.  This must happen before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "latency_p50_ms": "ms", "latency_p90_ms": "ms", "requests_per_s": "1/s",
    "replicates_per_s": "1/s", "success_ratio": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "core.build_reduction.calls": "count", "core.build_reduction.ms": "ms",
    "calibration.null_draws": "count", "calibration.null_draw.ms": "ms",
    "calibration.sort.ms": "ms", "calibration.degenerate_draws": "count",
    "calibration.useful_draw_ratio": "ratio",
    "statistics.evaluate.ms": "ms", "statistics.columns": "count",
    "statistics.gemm_gflop": "GFLOP",
    "kernels.reduce.ms": "ms", "kernels.bytes_read": "bytes",
    "inference.cache.hits": "count", "inference.cache.misses": "count",
    "inference.cache.hit_ratio": "ratio", "inference.cache.load.ms": "ms",
    "inference.cache.bytes": "bytes",
    "simulate.response_gen.ms": "ms", "simulate.lrt.ms": "ms",
    "simulate.lrt.fits": "count", "simulate.fisher.ms": "ms",
    "simulate.calibrate.ms": "ms",
    "cli.overhead.ms": "ms", "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}
# per-layer millisecond metrics and the span whose self time they report
SPAN_OF = {
    "core.build_reduction.ms": "core.build_reduction",
    "calibration.null_draw.ms": "calibration.null_draw",
    "calibration.sort.ms": "calibration.sort",
    "statistics.evaluate.ms": "statistics.evaluate_batch",
    "kernels.reduce.ms": "_kernels.reduce",
    "inference.cache.load.ms": "inference.cache.load",
    "simulate.response_gen.ms": "simulate.response_gen",
    "simulate.lrt.ms": "simulate.lrt",
    "simulate.fisher.ms": "simulate.fisher",
    "simulate.calibrate.ms": "simulate.calibrate",
}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import threshtest from this checkout's src/ and nowhere else."""
    if not (SRC / "threshtest" / "__init__.py").is_file():
        fail(f"no threshtest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import threshtest
    if Path(threshtest.__file__).resolve().parent != SRC / "threshtest":
        fail(f"imported threshtest from {threshtest.__file__}, not {SRC}")


def import_seconds():
    """Wall time of a fresh interpreter importing the library."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import threshtest"], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"importing threshtest failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def environment(args):
    import numpy as np
    import scipy
    from importlib.util import find_spec

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def cache_size(index):
        try:
            return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
        except OSError:
            return "unknown"

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(BLAS_THREADS), "l2": cache_size(2), "l3": cache_size(3),
            "numba": find_spec("numba") is not None}


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(workload_cls, shape, seed, seconds, trace, work_dir,
                 setup_repeats=SETUP_REPEATS, ref_shift=0.0):
    """Set up, warm up, measure whole blocks for ``seconds``, then run the
    untimed determinism checks.  Returns (result line, records, tracer)."""
    from spans import Tracer
    from speed import SpeedProbe

    wl = workload_cls(shape, seed, work_dir, ref_shift=ref_shift)
    probe = SpeedProbe()
    setup_spans = []  # (start, end, seconds): the import runs in a fresh process
    for _ in range(setup_repeats):
        probe.burst()
        start = time.perf_counter()
        imported = import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setup_spans.append((start, time.perf_counter(), imported + time.perf_counter() - t0))
    probe.burst()
    for req in wl.warmup_requests():
        wl.prepare(req)
        wl.call(req)
        wl.release(req)

    tracer = Tracer() if trace else None
    records, problems, spans, replicates, invalid = [], {}, [], [], set()
    start = time.perf_counter()
    b = 0
    # whole blocks only, as many as fit in ``seconds`` to the nearest half block
    while b == 0 or (time.perf_counter() - start) * (1 + 0.5 / b) < seconds:
        for req in wl.block(b):
            probe.maybe()
            wl.prepare(req)
            before = wl.cache_files() if trace else None
            t0 = time.perf_counter()
            try:
                out = wl.call(req)
            except Exception as exc:  # the outcome is checked like any result
                out = exc
            t1 = time.perf_counter()
            elapsed = t1 - t0
            spans.append((t0, t1))
            found = wl.check(req, out)
            if trace:
                tracer.request = req.i
                if before is not None:
                    wl.note_cache(req, wl.cache_files() - before, tracer)
                try:
                    found += wl.replay(req, out, elapsed, tracer)
                except Exception as exc:  # a replay that cannot finish disagrees
                    found.append(f"replay raised {type(exc).__name__}: {exc}")
            records.append(wl.record(req, out))
            if wl.is_invalid(req):
                invalid.add(req.i)
            if found:
                problems[req.i] = found
            replicates.append(0 if found or isinstance(out, Exception)
                              else wl.replicates(req))
            wl.release(req)
        b += 1
    probe.burst()
    for i, found in wl.final_checks(records).items():
        problems.setdefault(i, []).extend(found)

    attempted = len(spans)
    failed = len(problems)
    # every time is reported at the probe's reference speed
    latencies = [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in spans]
    setup_times = [s * probe.factor(t0, t1) for t0, t1, s in setup_spans]
    busy = sum(latencies)
    # a failed request counts as missing every latency limit
    ranked = sorted(math.inf if records[j]["i"] in problems else t
                    for j, t in enumerate(latencies))
    if trace:
        metrics = per_layer(tracer, attempted, probe.run_factor())
    else:
        metrics = {
            "latency_p50_ms": nearest_rank(ranked, 0.50) * 1e3,
            "latency_p90_ms": nearest_rank(ranked, 0.90) * 1e3,
            "requests_per_s": (attempted - failed) / busy,
            "replicates_per_s": sum(replicates) / busy,
            "success_ratio": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    # invalid-input requests count as failed while they are accepted,
    # but only a wrong result on valid input makes the run incorrect
    line = {"correct": problems.keys() <= invalid,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    details = {"problems": {str(i): p for i, p in problems.items()},
               "raw_latencies_s": [t1 - t0 for t0, t1 in spans],
               "raw_setup_s": [s for _, _, s in setup_spans], "probe_bursts": probe.bursts,
               "latencies_s": latencies, "setup_s": setup_times, "records": records}
    return line, details, tracer


def per_layer(tracer, n, speed):
    self_s = tracer.self_seconds()
    c = tracer.counts
    out = {name: self_s.get(span, 0.0) * speed * 1e3 / n for name, span in SPAN_OF.items()}
    hits, misses = c["inference.cache.hits"], c["inference.cache.misses"]
    values = c["calibration.null_values"]
    out.update({
        "core.build_reduction.calls": tracer.span_count("core.build_reduction") / n,
        "calibration.null_draws": c["calibration.null_draws"] / n,
        "calibration.degenerate_draws": c["calibration.degenerate_draws"] / n,
        "calibration.useful_draw_ratio":
            1.0 - c["calibration.degenerate_draws"] / values if values else 1.0,
        "statistics.columns": c["statistics.columns"] / n,
        "statistics.gemm_gflop": c["statistics.gemm_flop"] / 1e9 / n,
        "kernels.bytes_read": c["kernels.bytes_read"] / n,
        "inference.cache.hits": hits / n,
        "inference.cache.misses": misses / n,
        "inference.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "inference.cache.bytes": c["inference.cache.bytes"] / n,
        "simulate.lrt.fits": c["simulate.lrt.fits"] / n,
        "cli.overhead.ms": c["cli.overhead_s"] * speed * 1e3 / n,
        "cli.bytes_written": c["cli.bytes_written"] / n,
        "trace.overhead_ratio": c["trace.replay_s"] / c["trace.base_s"]
        if c["trace.base_s"] else 1.0,
    })
    return {name: out[name] for name in PER_LAYER_UNITS}


def print_table(title, line):
    print(f"{title}: correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']}")
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")


def smoke(work_root):
    """Tiny sizes, every workload traced and untraced, then a wrong reference."""
    from workloads import SMOKE, WORKLOADS, TestFresh

    ok = True
    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            line, details, _ = run_workload(cls, SMOKE, 1, 0, trace, work_root / name,
                                            setup_repeats=1)
            print_table(f"{name} trace={trace}", line)
            ok &= line["correct"]
            for i, found in details["problems"].items():
                print(f"    request {i}: {found[0]}")
    line, details, _ = run_workload(TestFresh, SMOKE, 1, 0, 0, work_root / "wrong_reference",
                                    setup_repeats=1, ref_shift=1e-3)
    checked = [r for r in details["records"]
               if r["kind"] in ("sqrt_affine_lasso", "affine_lasso",
                                "sqrt_affine_group_lasso", "glm_score_sup")]
    caught = sum(1 for r in checked if any("dense" in p for p in
                                           details["problems"].get(str(r["i"]), [])))
    print(f"wrong reference: {caught} of {len(checked)} dense-checked requests counted "
          f"as failed, correct={line['correct']}")
    return ok and caught == len(checked) > 0 and not line["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    import_library()
    from workloads import FULL, WORKLOADS

    work_root = ROOT / ".bench_work" / str(os.getpid())
    try:
        if args.smoke:
            return 0 if smoke(work_root) else 1
        if args.workload not in WORKLOADS:
            fail(f"--workload must be one of {sorted(WORKLOADS)}")
        line, details, tracer = run_workload(WORKLOADS[args.workload], FULL, args.seed,
                                             args.seconds, args.trace, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.is_dir() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    with open(f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "result": line, **details}, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}.spans.json")
    print("environment: " + json.dumps(env, sort_keys=True))
    for i, found in list(details["problems"].items())[:5]:
        print(f"request {i} failed: {found[0]}")
    print(f"records: {stem}.json")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
