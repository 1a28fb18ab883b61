"""Seeded benchmark of the pwe harvest -> estimate -> simulate pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload osd3-harvest --seed 1 --seconds 60 --trace 0

The package is imported from ``src/`` of the same checkout, never from an
installed copy.  Set-up (importing pwe, building the catalog, filling the
workload's caches) is repeated SETUP_SAMPLES times by re-importing the
package, and its median reported.  ``--trace 0`` then repeats the workload's
fixed work, one seeded repetition after another, until the time is up, and
reports medians over the repetitions as the end-to-end metrics of
``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions of the same seeds,
requires their output digests to be equal, and reports the per-layer
metrics from the spans (written to ``.bench_out/`` when the run ends).  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything runs in this
one process; the BLAS thread count is recorded with the results.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller asks otherwise: with two, OpenBLAS's
# threaded matrix-vector products make an order-3 osd_decode of BCH(127,50)
# swing between about 4 and 17 ms on a 2-vCPU virtual machine shared with
# other tenants, depending on what the other vCPU is doing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import glob
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy
import scipy.special  # noqa: F401  (imported by pwe.bounds; kept out of set-up time)

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PWE_MODULES = ("gf2", "codes", "decoders", "harvest", "estimator", "sim", "fileio", "bounds")
SETUP_SAMPLES = 11
MIN_REPS = 3


def setup_once(workload) -> tuple[SimpleNamespace, float]:
    """Import pwe afresh, build the catalog and fill the workload's caches."""
    for name in [k for k in sys.modules if k == "pwe" or k.startswith("pwe.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    m = SimpleNamespace(**{n: importlib.import_module(f"pwe.{n}") for n in PWE_MODULES})
    m.codes.catalog()
    workload.warm(m)
    return m, time.perf_counter() - t0


def blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def run_rep(workload, seed, rep) -> workloads.Rep:
    try:
        return workload.run(seed, rep, OUT)
    except Exception:
        failed = workloads.Rep(attempted=1, failed=1, wall_s=float("nan"))
        failed.problems.append(traceback.format_exc(limit=3).strip().replace("\n", " | "))
        return failed


def preflight(env, workload, m) -> list[str]:
    """Problems found before any work: BLAS oversubscription, a blind checker."""
    problems = []
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        problems.append(f"BLAS threads {env['blas_threads']} exceed nproc {env['nproc']}")
    for name in workload.codes:
        rows = m.codes.get_code(name).generator_matrix.rows
        problems += [f"checker self-test on {name}: {msg}"
                     for msg in checks.self_test(workload.checker[name], rows)]
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "pwe").is_dir():
        print(f"no pwe package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    setup_s = []
    for _ in range(SETUP_SAMPLES):
        m, seconds = setup_once(workload)
        setup_s.append(seconds)
    if not Path(m.codes.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"pwe imported from {m.codes.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload.prepare(m)
    OUT.mkdir(exist_ok=True)

    env = environment()
    problems = preflight(env, workload, m)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"checker self-test: {'ok' if not problems else '; '.join(problems)}")

    # Untraced repetitions, each followed in a traced run by a traced twin on
    # the same seeds, until one more would overrun the time.
    reps, traced, layer, loop_s = [], [], [], []
    min_reps = 1 if args.trace else MIN_REPS
    deadline = time.perf_counter() + args.seconds
    while len(reps) < min_reps or time.perf_counter() + statistics.median(loop_s) <= deadline:
        t0 = time.perf_counter()
        i = len(reps)
        r = run_rep(workload, args.seed, i)
        reps.append(r)
        print(f"rep {i} wall_s={r.wall_s:.4f} digest={r.digest} failed={r.failed}/{r.attempted}")
        if args.trace:
            with spans.trace_pwe(m) as tracer:
                t = run_rep(workload, args.seed, i)
            traced.append(t)
            print(f"rep {i} traced wall_s={t.wall_s:.4f} digest={t.digest}")
            if t.digest != r.digest:
                problems.append(f"rep {i}: traced digest {t.digest} != untraced {r.digest}")
            elif r.ok:
                layer.append(spans.layer_metrics(tracer.spans, t.counts))
        loop_s.append(time.perf_counter() - t0)

    attempted = failed = 0
    for r in reps + traced:
        attempted += r.attempted
        failed += r.failed
        problems += r.problems
    ok = [r for r in reps if r.ok]
    if not ok or (args.trace and not layer):
        print("no repetition completed: " + "; ".join(problems), file=sys.stderr)
        return 1

    for k, (_, unit) in ok[0].stages.items():
        print(f"stage {k} = {statistics.median(r.stages[k][0] for r in ok):.6g} {unit} "
              f"(median of {len(ok)})")

    if args.trace:
        metrics = {k: {"value": statistics.median(d[k] for d in layer), "unit": spans.UNITS[k]}
                   for k in spans.UNITS}
        corpus, corpus_rep = workloads.osd_corpus(m, args.seed)
        attempted += corpus_rep.attempted
        failed += corpus_rep.failed
        problems += corpus_rep.problems
        metrics.update({k: {"value": v, "unit": "us"} for k, v in corpus.items()})
        traced_s = statistics.median(t.wall_s for t in traced if t.ok)
        overhead = traced_s / statistics.median(r.wall_s for r in ok) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        if tracer.missing:
            problems.append("not traced (attribute missing): " + ", ".join(tracer.missing))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in ok), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(f"stage failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} checks)")
    for k, v in sorted(metrics.items()):
        print(f"metric {k} = {v['value']:.6g} {v['unit']}")
    for msg in problems:
        print(f"problem: {msg}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
