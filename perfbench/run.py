#!/usr/bin/env python3
"""schurkit benchmark: three closed-loop job mixes, end to end and per layer.

One client, one process, one job at a time. Run from the repository root:

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --report            # every workload, known defects in
    python3 perfbench/run.py --workload conditions --smoke   # tiny inputs, one pass

The package is imported from ``src/`` of the checkout this file sits in. The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones). The full record, with the environment, goes to
``.perfbench/<workload>-seed<seed>-trace<trace>.json``; a traced run also
writes its spans next to it. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("estimate", "transfer", "conditions")

# Each timed phase runs whole passes over its mix, at least this many, so
# that every run has enough jobs for its tail percentile.
MIN_PASSES = {"estimate": 4, "transfer": 4, "conditions": 5}
# The traced phase runs a fixed number of passes, so its counts repeat exactly.
TRACE_PASSES = 2
SETUP_SPAWNS = 9
# One BLAS thread: a job uses one core, and no BLAS call waits at a barrier
# for a second vCPU that the shared host may be running something else on.
BLAS_THREADS = 1
PERCENTILES = (50, 75, 90, 95, 99)
TAIL_BEYOND = 10

UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s",
         "peak_rss_mb": "MB", "failed_frac": "ratio", "bound_gmean": "ratio"}
# The end-to-end metrics on the result line; failed_frac and bound_gmean are
# reported beside them (README.md says why they are not on it).
RESULT_METRICS = ("setup_s", "jobs_per_s", "job_s_p50", "job_s_tail", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def limit_blas_threads():
    """Fix the BLAS and OpenMP thread count; must run before numpy loads.

    Setup spawns inherit it through the environment.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_schurkit():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "schurkit" / "__init__.py").is_file():
        fail(f"no schurkit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import schurkit
    import schurkit.cli  # noqa: F401

    if Path(schurkit.__file__).resolve().parent != SRC / "schurkit":
        fail(f"schurkit imported from {schurkit.__file__}, not from {SRC}")


def unit_of(metric):
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("jobs_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_per_step", "overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# measurement


def measure_setup(spawns):
    """Median wall time of a fresh interpreter running ``import schurkit.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import schurkit.cli"], cwd=ROOT,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"import schurkit.cli failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(times), times


def run_phase(mix_for_pass, seconds, min_passes, tracer=None):
    """Closed loop over whole passes of the mix.

    Runs until ``seconds`` have passed and at least ``min_passes`` passes are
    done (``seconds=0``: exactly ``min_passes``). Returns the job records, the
    phase wall time and the number of passes.
    """
    records = []
    start = time.perf_counter()
    passes = 0
    while True:
        if tracer:
            tracer.on = False
        jobs = mix_for_pass(passes)
        for slot, job in enumerate(jobs):
            record = {"kind": job.kind, "slot": slot, "error": None, "estimates": []}
            if tracer:
                tracer.job = len(records)
                tracer.on = True
            t0 = time.perf_counter()
            try:
                result = job.action()
                record["seconds"] = time.perf_counter() - t0
                if tracer:
                    tracer.on = False
                record["estimates"] = job.check(result)
            except Exception as exc:  # a failed job is counted, not fatal
                record.setdefault("seconds", time.perf_counter() - t0)
                record["error"] = f"{type(exc).__name__}: {exc}"[:500]
            finally:
                if tracer:
                    tracer.on = False
            records.append(record)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed >= seconds:
            return records, elapsed, passes


def nearest_rank(sorted_values, q):
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_percentile(n_min):
    """Highest listed percentile with >= TAIL_BEYOND samples beyond it in a
    run of n_min jobs, the fewest a run can have."""
    fits = [q for q in PERCENTILES if n_min - math.ceil(q / 100 * n_min) >= TAIL_BEYOND]
    return max(fits, default=PERCENTILES[0])


def summarize(records, wall, q_tail):
    """End-to-end metrics of one timed phase.

    Every pass runs the same slots of the mix, so each slot has one time per
    pass. The metrics use each slot's median over the passes: a slow spell of
    the shared host then moves a slot's time only if it covers half the run.
    ``jobs_per_s`` is the jobs of one pass over the sum of the slot medians
    (completed jobs only), and the percentiles rank every job by its slot's
    median. A failed job ranks slower than every completed job: it is counted
    as taking the whole phase. The plain wall-clock figures go to ``detail``.
    """
    failed = sum(r["error"] is not None for r in records)
    slots = {}
    for r in records:
        slots.setdefault(r["slot"], []).append(r)
    passes = max(len(v) for v in slots.values())
    pass_s = sum(statistics.median(r["seconds"] for r in v) for v in slots.values())
    ranked_by_slot = {k: statistics.median(wall if r["error"] else r["seconds"] for r in v)
                      for k, v in slots.items()}
    ranked = sorted(ranked_by_slot[r["slot"]] for r in records)
    raw = sorted(wall if r["error"] else r["seconds"] for r in records)
    tail, beyond = nearest_rank(ranked, q_tail)
    estimates = [v for r in records if r["error"] is None for v in r["estimates"]]
    out = {
        "jobs_per_s": (len(records) - failed) / passes / pass_s,
        "job_s_p50": statistics.median(ranked),
        "job_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / len(records),
    }
    if estimates:
        out["bound_gmean"] = math.exp(statistics.fmean(math.log(v) for v in estimates))
    detail = {"attempted": len(records), "failed": failed,
              "tail_percentile": q_tail, "tail_samples": len(ranked),
              "tail_samples_beyond": beyond, "estimates": len(estimates),
              "wall_jobs_per_s": (len(records) - failed) / wall,
              "wall_job_s_p50": statistics.median(raw),
              "wall_job_s_tail": nearest_rank(raw, q_tail)[0]}
    return out, detail


def by_kind(records):
    kinds = {}
    for r in records:
        k = kinds.setdefault(r["kind"], {"jobs": 0, "failed": 0, "seconds": []})
        k["jobs"] += 1
        k["failed"] += r["error"] is not None
        k["seconds"].append(r["seconds"])
    return {name: {"jobs": k["jobs"], "failed": k["failed"],
                   "median_s": statistics.median(k["seconds"])}
            for name, k in sorted(kinds.items())}


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cache_sizes():
    try:
        proc = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    caches = {}
    for line in proc.stdout.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            caches[key.strip()] = value.strip()
    return caches


def commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "caches": cache_sizes(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit(),
    }


# ---------------------------------------------------------------------------
# one workload run


def run_workload(args):
    limit_blas_threads()
    import_schurkit()
    import jobs
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return _run_workload(args, jobs, Tracer, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_workload(args, jobs, Tracer, tmp):
    setup_s, setup_samples = measure_setup(1 if args.smoke else SETUP_SPAWNS)
    min_passes = 1 if args.smoke else MIN_PASSES[args.workload]

    def mix(pass_index):
        return jobs.build_mix(args.workload, args.seed, pass_index, tmp,
                              smoke=args.smoke, known_defects=args.known_defects)

    # warm imports and caches on the smallest inputs; not measured
    run_phase(lambda i: jobs.build_mix(args.workload, args.seed, i, tmp, smoke=True),
              0, 1)

    records, wall, passes = run_phase(mix, 0 if args.smoke else args.seconds, min_passes)
    q_tail = tail_percentile(min_passes * len(records) // passes)
    e2e, detail = summarize(records, wall, q_tail)
    e2e["setup_s"] = setup_s
    detail.update(passes=passes, wall_s=wall, setup_samples=setup_samples)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "known_defects": args.known_defects,
              "end_to_end": e2e, "detail": detail, "kinds": by_kind(records),
              "errors": [r["error"] for r in records if r["error"]][:20]}

    result_metrics = {m: e2e[m] for m in RESULT_METRICS}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            t_records, _, t_passes = run_phase(mix, 0, min(min_passes, TRACE_PASSES),
                                               tracer=tracer)
        finally:
            tracer.uninstall()
        # the same jobs untraced and traced: the first passes of each phase
        n = len(t_records)
        plain = n / sum(r["seconds"] for r in records[:n])
        traced = n / sum(r["seconds"] for r in t_records)
        layers = tracer.metrics()
        layers.update({"trace.plain_jobs_per_s": plain, "trace.traced_jobs_per_s": traced,
                       "trace.overhead": plain / traced - 1.0,
                       "trace.spans": len(tracer.spans)})
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, origin=tracer.spans[0][1] if tracer.spans else 0.0)
        record.update(per_layer=layers, traced_passes=t_passes,
                      spans_file=str(spans_path.relative_to(ROOT)),
                      traced_failed=sum(r["error"] is not None for r in t_records))
        result_metrics = layers

    record["environment"] = environment(args.seed)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"jobs {detail['attempted']}  failed {detail['failed']}  "
          f"tail p{q_tail} ({detail['tail_samples_beyond']} beyond)")
    for name, value in {**e2e, **(record.get("per_layer") or {})}.items():
        print(f"  {name:44s} {value:14.6g} {unit_of(name)}")
    for err in record["errors"][:3]:
        print(f"  failed job: {err}")
    print(f"  record: {path.relative_to(ROOT)}")
    failed = detail["failed"] + record.get("traced_failed", 0)
    attempted = detail["attempted"] + (len(t_records) if args.trace else 0)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": v, "unit": unit_of(m)}
                          for m, v in result_metrics.items()}}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the one-command report


def report(args):
    """Every workload in its own process, known defects in, one table."""
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--known-defects"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"{workload} run failed:\n{proc.stderr[-2000:]}")
        path = OUT / f"{workload}-seed{args.seed}-trace0.json"
        rows[workload] = json.loads(path.read_text())
    print(f"{'metric':14s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for metric, unit in UNITS.items():
        cells = [rows[w]["end_to_end"].get(metric) for w in WORKLOADS]
        print(f"{metric:14s} {unit:6s}" + "".join(
            f"{'-':>14s}" if v is None else f"{v:14.6g}" for v in cells))
    for key in ("attempted", "failed", "tail_percentile", "tail_samples"):
        print(f"{key:21s}" + "".join(f"{rows[w]['detail'][key]:>14}" for w in WORKLOADS))
    for w in WORKLOADS:
        for err in rows[w]["errors"][:2]:
            print(f"{w} failed job: {err}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass, one setup spawn")
    parser.add_argument("--known-defects", action="store_true",
                        help="add the job that fails at this commit (conditions)")
    parser.add_argument("--report", action="store_true",
                        help="run every workload with known defects and print one table")
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
