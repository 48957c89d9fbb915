"""Run one workload in this (fresh) interpreter and write its result as JSON.

run.py starts it as

    python3 bench/worker.py --workload certify --seed 1 --size full \
        --passes 1 --trace 0 --result bench/results/x.json

with PYTHONPATH set to the checkout's ``src``.  The loop is closed: one
caller, no threads, and the next job starts only after the last returned.
Passes run the whole job list one after another, so the repeats of a job are
spread over the run.  Inputs are generated before the clock starts; outputs
are checked after it stops.  With ``--trace 1`` the public functions of codebounds are wrapped
(see spans.py), every job runs once traced and once untraced, and the
per-layer metrics are added to the result.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import checks
import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PROBE = ("import sys, numpy, codebounds.cli\n"
         "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")


def measure_setup():
    """Seconds from starting a fresh interpreter until codebounds.cli and
    numpy are imported, i.e. until the first job could run."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                          cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("the set-up probe could not import codebounds.cli and numpy")
    return ready


def _blas():
    import numpy
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def _run_job(job, cli, tracer, job_id):
    """Time one job; return (latency in s, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.begin_job(job_id)
    start = time.perf_counter()
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                returncode = cli.main(list(job.argv))
            result = None
        else:
            returncode, result = None, job.call()
    except Exception as exc:   # a crash is a failed job, not a failed benchmark
        latency = time.perf_counter() - start
        return latency, checks.Outcome(None, out.getvalue(), err.getvalue(), crash=repr(exc))
    finally:
        if tracer:
            tracer.end_job()
    latency = time.perf_counter() - start
    outcome = checks.Outcome(returncode, out.getvalue(), err.getvalue(),
                             result.to_dict() if result is not None else None)
    return latency, outcome


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--probes", type=int, default=0,
                        help="set-up probes before each pass (untimed by the job clock)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import numpy
    import codebounds
    from codebounds import cli
    if not os.path.abspath(codebounds.__file__).startswith(SRC + os.sep):
        sys.exit(f"codebounds was imported from {codebounds.__file__}, not {SRC}")

    workdir = os.path.join(os.path.dirname(os.path.abspath(args.result)),
                           f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.build(args.workload, args.seed, args.size, workdir)
        runs = [job for _ in range(args.passes) for job in jobs]
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(spans.TARGETS)
        records, plain, setups = [], [], []
        start = time.perf_counter()
        for job_id, job in enumerate(runs):
            if job_id % len(jobs) == 0:
                # spread over the run, the probes see the same host phases as the jobs
                setups += [measure_setup() for _ in range(args.probes)]
            if tracer:
                # each job also runs untraced, just before or just after, so
                # the tracing overhead is measured under the same load
                for traced in ((True, False) if job_id % 2 else (False, True)):
                    tracer.set_active(traced)
                    (records if traced else plain).append(
                        _run_job(job, cli, tracer if traced else None, job_id))
            else:
                records.append(_run_job(job, cli, None, job_id))
        wall = time.perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = []
        for job, (latency, outcome) in zip(runs + runs, records + plain):
            problems = checks.check(job, outcome)
            if problems:
                failed.append({"job": job.name, "problems": problems[:5]})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "passes": args.passes, "trace": args.trace,
        "wall_s": wall, "peak_rss_mb": peak_kib / 1024, "setup_s": setups,
        "latencies_ms": [[latency * 1000 for latency, _ in records[i:i + len(jobs)]]
                         for i in range(0, len(records), len(jobs))],
        "ops_total": len(records) + len(plain),
        "jobs": [job.name for job in jobs],
        "failed": failed,
        "numpy": numpy.__version__, "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    if tracer:
        tags = {job_id: job.tag for job_id, job in enumerate(runs)}
        layers = spans.layer_metrics(tracer.spans, tracer.unmeasured, tags)
        layers["trace.overhead_share"] = (
            sum(t for t, _ in records) / sum(t for t, _ in plain) - 1, "ratio")
        result["layers"] = {name: list(value_unit) for name, value_unit in layers.items()}
        result["unmeasured"] = tracer.unmeasured
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
