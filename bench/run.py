"""Benchmark of the codebounds CLI: one workload per invocation.

    python3 bench/run.py --workload certify --seed 1 --seconds 48 --trace 0

Run it from the root of a checkout; it imports codebounds from ``src`` there
and writes only under ``bench/results``.  Each workload runs in a fresh
interpreter (worker.py) as one closed-loop caller.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs every job once
traced and once untraced and prints the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.

The end-to-end run makes ``--seconds // 8`` passes over the job list (at
least one; a pass takes about 8 s on a 2-CPU Xeon) and times each job by the
slowest of its passes.  Shared hosts run some stretches of seconds to
minutes up to 1.7x faster than their base speed; one pass outside such a
stretch is enough for the figure to show the base speed.  The traced run
makes one pass.  BLAS threading is left as the caller's environment sets it
and is recorded; on the workloads with search rho jobs the traced run adds a
baseline with OPENBLAS_NUM_THREADS=1 in the child's environment only.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
SETUP_PROBES_PER_PASS = 2
PASS_SECONDS = 8
TIME_LIMIT_S = 170


class Budget:
    """Seconds left before the whole run must end."""

    def __init__(self, seconds):
        self.deadline = time.monotonic() + seconds

    def left(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the benchmark ran out of time")
        return left


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def run_worker(budget, args, passes, trace, tag, probes=0, **env):
    """Run worker.py once and return its result dict."""
    result = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--passes", str(passes),
           "--probes", str(probes), "--trace", str(trace), "--result", result]
    if trace:
        cmd += ["--spans", os.path.join(RESULTS, f"spans-{args.workload}-{tag}.jsonl")]
    with subprocess.Popen(cmd, env=_env(**env), cwd=ROOT) as proc:
        try:
            proc.wait(timeout=budget.left())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def tail(latencies_ms):
    """(percentile, value): the highest whole percentile that leaves at least
    ten jobs above it; None when that percentile would not exceed the median
    (twenty jobs or fewer)."""
    n = len(latencies_ms)
    if n <= 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    ranked = sorted(latencies_ms)
    return p, ranked[max(0, math.ceil(p * n / 100) - 1)]


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine(args, worker):
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": sys.version.split()[0], "numpy": worker["numpy"],
            "blas": worker["blas"], "OPENBLAS_NUM_THREADS": worker["blas_threads"],
            "git_commit": git_commit(), "workload": args.workload, "seed": args.seed}


def end_to_end(args, budget):
    passes = max(1, args.seconds // PASS_SECONDS)
    worker = run_worker(budget, args, passes, 0, "untraced", probes=SETUP_PROBES_PER_PASS)
    lat = [max(job) for job in zip(*worker["latencies_ms"])]
    metrics = {"wall_s": (sum(lat) / 1000, "s"),
               "op_p50_ms": (statistics.median(lat), "ms")}
    notes = {"wall_s": f"sum over {len(lat)} jobs of each job's slowest of {passes} passes"}
    tail_pair = tail(lat)
    if tail_pair:
        metrics["op_tail_ms"] = (tail_pair[1], "ms")
        notes["op_tail_ms"] = f"p{tail_pair[0]} of {len(lat)} jobs"
    setups = worker["setup_s"]
    metrics["setup_s"] = (statistics.median(setups), "s")
    notes["setup_s"] = f"median of {len(setups)} fresh interpreters, {SETUP_PROBES_PER_PASS} before each pass"
    metrics["peak_rss_mb"] = (worker["peak_rss_mb"], "MB")
    return [worker], metrics, notes


def per_layer(args, budget):
    traced = run_worker(budget, args, 1, 1, "traced")
    metrics = {name: tuple(value_unit) for name, value_unit in traced["layers"].items()}
    workers = [traced]
    for shape in ("small", "large"):
        metrics[f"search.rho_iters_per_s.{shape}.blas1"] = (0.0, "1/s")
    if args.workload in ("search_rho", "grid_rho"):
        single = run_worker(budget, args, 1, 1, "traced-blas1", OPENBLAS_NUM_THREADS="1")
        for shape in ("small", "large"):
            metrics[f"search.rho_iters_per_s.{shape}.blas1"] = tuple(
                single["layers"][f"search.rho_iters_per_s.{shape}"])
        workers.append(single)
    notes = {"trace.overhead_share": "traced / untraced time over the same jobs, "
                                     "each pair run back to back, minus 1"}
    for name, (value, unit) in metrics.items():
        if value is None:
            notes[name] = "no longer exists: " + ", ".join(traced["unmeasured"])
    return workers, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=48)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a one-second job list for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "codebounds", "cli.py")):
        print(f"error: no codebounds sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    budget = Budget(TIME_LIMIT_S)
    try:
        workers, metrics, notes = (per_layer if args.trace else end_to_end)(args, budget)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["ops_total"] for w in workers)
    failed = [f for w in workers for f in w["failed"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    facts = machine(args, workers[0])
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {shown}{note}")
    print(f"  {'ops_failed':<40} {len(failed)} of ops_total {attempted}")
    for f in failed:
        print(f"  FAILED {f['job']}: {'; '.join(f['problems'])}")
    summary = {"correct": not failed, "attempted": attempted, "failed": len(failed),
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-summary"
                                     f"{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": facts, "notes": notes,
                   "failed_jobs": failed, **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
