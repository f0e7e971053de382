#!/usr/bin/env python3
"""Benchmark of equihodge: exact and DEC extensions, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-warm --seed 1 --seconds 25 --trace 0

Workloads: exact-warm, exact-cold, dec-refine, dec-solve (see README.md).
For ``--seconds`` the run repeats whole rounds of the workload's job list,
and sets the workload up anew ``SETUPS`` times, spread evenly over the run.
Every job is checked after its timed span.  Times are reported at a
reference speed of the machine, measured by a fixed calibration loop timed
before every job (README.md, *Steadiness*).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

import os
import sys
import time

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("exact-warm", "exact-cold", "dec-refine", "dec-solve")
SETUPS = 4
#: calibration chunks timed before every job, set-up and import
CAL_CHUNKS = 4
#: time of one calibration chunk at the reference speed (see _speed_factor):
#: its best time on a 2.0 GHz Xeon vCPU, the fast speed of that machine
CAL_REF_S = 0.14e-3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import equihodge from this checkout's ``src`` only."""
    if not os.path.isfile(os.path.join(SRC, "equihodge", "__init__.py")):
        sys.exit("perfbench: no equihodge sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import equihodge

    if not os.path.abspath(equihodge.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: equihodge imported from outside the checkout")


def _time_import():
    """Seconds to import equihodge in a fresh interpreter (same environment)."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import equihodge; print(time.perf_counter() - t)" % SRC)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def _calibration_chunk():
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i)
    return total


def _calibrate(cal):
    """Time CAL_CHUNKS calibration chunks, appending each time to ``cal``."""
    for _ in range(CAL_CHUNKS):
        t0 = time.perf_counter()
        _calibration_chunk()
        cal.append(time.perf_counter() - t0)


def _speed_factor(cal):
    """Factor that turns the run's wall times into times at the reference
    speed: the calibration chunk's reference time over its mean time in the
    run.  The chunk is fixed pure-Python work, not equihodge's, timed before
    every job, so its mean follows the share of the run the machine spent at
    each of its speeds (README.md, *Steadiness*)."""
    return CAL_REF_S / (sum(cal) / len(cal))


def _quantile(sorted_vals, q):
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _setup(name, seed, tracer, scratch, observations):
    import workloads

    if name == "exact-warm":
        return workloads.exact_warm(seed, tracer)
    if name == "exact-cold":
        return workloads.exact_cold(seed, tracer, scratch, observations)
    if name == "dec-refine":
        return workloads.dec_refine(seed, tracer, observations)
    return workloads.dec_solve(seed, tracer, observations)


def main(argv=None):
    args = _parse_args(argv)
    _import_program()
    from oracles import CheckFailed
    import tracing

    scratch = os.path.join(HERE, "out", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install_modules()
    observations = {}

    import_times, setup_times, cal = [], [], []
    jobs = job_s = None
    attempted = failed = rounds = 0
    unexpected = []
    faults = {}
    phase_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - phase_start
        if len(setup_times) < SETUPS \
                and elapsed >= len(setup_times) * args.seconds / SETUPS:
            # set up anew; the job list is the same, so the rounds go on
            jobs = None
            gc.unfreeze()
            _calibrate(cal)
            import_times.append(_time_import())
            if tracer:
                tracer.job, tracer.off = "setup", False
            gc.collect()
            _calibrate(cal)
            t0 = time.perf_counter()
            jobs = _setup(args.workload, args.seed, tracer, scratch, observations)
            setup_times.append(time.perf_counter() - t0)
            job_s = job_s or [0.0] * len(jobs)
            # set-up objects (eigenbasis caches, meshes) live until the next
            # set-up; keep them out of the per-job collections
            gc.collect()
            gc.freeze()
        elif elapsed >= args.seconds:
            break
        for i, job in enumerate(jobs):
            gc.collect()
            _calibrate(cal)
            if tracer:
                tracer.job = "%d.%d" % (rounds, i)
                tracer.off = False
            t0 = time.perf_counter()
            try:
                out = job.run()
            except Exception as ex:  # checked below
                out = ex
            job_s[i] += time.perf_counter() - t0
            if tracer:
                tracer.off = True
            attempted += 1
            try:
                if isinstance(out, Exception) and not job.may_raise:
                    raise CheckFailed("raised %s: %s" % (type(out).__name__, out))
                job.check(out)
            except Exception as ex:
                failed += 1
                if job.fault:
                    faults[job.name] = job.fault
                else:
                    unexpected.append("%s: %s" % (job.name, ex))
        rounds += 1
    wall_s = time.perf_counter() - phase_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every time below is at the reference speed; a job's time is its mean
    # over the run's rounds
    factor = _speed_factor(cal)
    per_job = sorted(factor * t / rounds for t in job_s)
    e2e = {
        "setup_s": (factor * (statistics.mean(import_times)
                              + statistics.mean(setup_times)), "s"),
        "jobs_per_s": (len(per_job) / sum(per_job), "jobs/s"),
        "job_p50_ms": (_quantile(per_job, 0.5) * 1e3, "ms"),
        "job_p90_ms": (_quantile(per_job, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print("workload %s  seed %d  rounds %d  jobs/round %d  attempted %d  failed %d"
          "  run %.1f s\n  wall-clock set-ups %s s, imports %s s; speed factor %.3f"
          % (args.workload, args.seed, rounds, len(jobs), attempted, failed,
             wall_s, " ".join("%.3f" % t for t in setup_times),
             " ".join("%.3f" % t for t in import_times), factor))
    for name, (value, unit) in e2e.items():
        print("  %-14s %12.4f %s" % (name, value, unit))
    for name, why in sorted(faults.items()):
        print("  known fault    %s: %s" % (name, why))
    for msg in unexpected[:20]:
        print("  FAILED CHECK   %s" % msg)

    if tracer:
        report_bytes = (observations.get("reports", 0),
                        observations.get("report_bytes", 0))
        layer = tracing.layer_metrics(tracer, rounds, observations, report_bytes,
                                      factor)
        trace_path = os.path.join(HERE, "out", "trace-%s-seed%d.jsonl.gz"
                                  % (args.workload, args.seed))
        tracer.dump(trace_path)
        print("  trace          %s (%d spans)" % (os.path.relpath(trace_path, ROOT),
                                                   len(tracer.spans)))
        if "dec.assemble_growth.base" in observations:
            print("  assemble growth base: %s"
                  % observations["dec.assemble_growth.base"])
        metrics = layer
    else:
        metrics = e2e
    shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
