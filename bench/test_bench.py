"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q

A tiny-size run of every workload must print every metric by name and unit,
and every correctness check must reject a planted wrong output.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks      # noqa: E402
import workloads   # noqa: E402
from codebounds import cli   # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines = _bench(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] == (result["failed"] == 0)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if workload == "search_exact" and not trace:
        # twelve jobs are too few for a tail percentile above the median
        expected = [m for m in expected if m["name"] != "op_tail_ms"]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line
                   for line in lines), metric["name"]
    assert any(line.split()[:1] == ["ops_failed"] for line in lines)


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return checks.Outcome(code, out.getvalue(), err.getvalue())


def _job(check, **expect):
    return workloads.Job("planted", check, expect=expect)


def _replace_line(text, index, new):
    lines = text.split("\n")
    lines[index] = new
    return "\n".join(lines)


def test_bound_check_rejects_values_off_by_one():
    alpha = Fraction(1, 1000)
    job = _job("bound_m", r=list(range(1, 31)), alpha=alpha)
    outcome = _cli("bound", "m", "--grid", "--r", "1:30", "--alpha", "1/1000")
    assert checks.check(job, outcome) == []
    r, value, status = outcome.stdout.split("\n")[5].split(",")
    for wrong in (int(value) + 1, int(value) - 1):
        outcome.stdout = _replace_line(outcome.stdout, 5, f"{r},{wrong},{status}")
        assert checks.check(job, outcome), wrong


def test_bound_check_needs_2r_at_alpha_zero_and_a_proof_of_vacuity():
    job = _job("bound_m", r=[1, 2, 3], alpha=Fraction(0))
    outcome = _cli("bound", "m", "--grid", "--r", "1:3", "--alpha", "0")
    assert checks.check(job, outcome) == []
    outcome.stdout = _replace_line(outcome.stdout, 2, "2,5,certified-exact")
    assert checks.check(job, outcome)
    outcome.stdout = _replace_line(outcome.stdout, 2, "2,10000000,vacuous")
    assert checks.check(job, outcome)


def test_bound_aq_check_replays_each_cell():
    job = _job("bound_aq", q=2, r=[40, 41], s=[19, 20])
    outcome = _cli("bound", "aq", "--grid", "--q", "2", "--r", "40:41", "--s", "19:20")
    assert checks.check(job, outcome) == []
    row = outcome.stdout.split("\n")[2].split(",")       # q=2 r=40 s=20: j = 0
    outcome.stdout = _replace_line(outcome.stdout, 2, ",".join(row[:3] + ["79", row[4]]))
    assert checks.check(job, outcome)


def test_search_check_rejects_a_witness_that_breaks_distance_s():
    job = _job("search_exact", q=2, r=6, s=3, table=8)
    outcome = _cli("search", "exact", "--q", "2", "--r", "6", "--s", "3")
    assert checks.check(job, outcome) == []
    first = [int(x) for x in outcome.stdout.split("\n")[2].split()]
    near = [1 - first[0]] + first[1:]          # at distance 1 from the first word
    outcome.stdout = _replace_line(outcome.stdout, 3, " ".join(map(str, near)))
    assert any("distance" in p for p in checks.check(job, outcome))


def test_search_check_rejects_a_wrong_optimal_claim():
    job = _job("search_exact", q=2, r=6, s=3, table=9)
    outcome = _cli("search", "exact", "--q", "2", "--r", "6", "--s", "3")
    assert any("table value" in p for p in checks.check(job, outcome))


def test_lexicode_check_rejects_a_code_that_is_not_maximal():
    job = _job("lexicode", q=2, r=6, s=2)
    outcome = _cli("search", "greedy", "--q", "2", "--r", "6", "--s", "2")
    assert checks.check(job, outcome) == []
    lines = outcome.stdout.rstrip("\n").split("\n")
    header = json.loads(lines[0][len("# result: "):])
    header["size"] -= 1
    outcome.stdout = "\n".join(["# result: " + json.dumps(header)] + lines[1:-1]) + "\n"
    assert any("maximal" in p for p in checks.check(job, outcome))


def test_rho_check_rejects_a_value_below_the_bound():
    job = _job("rho", r=2, n=5, iterations=200)
    outcome = _cli("search", "rho", "--r", "2", "--n", "5", "--iterations", "200", "--seed", "4")
    assert checks.check(job, outcome) == []
    header = json.loads(outcome.stdout.split("\n")[0][len("# result: "):])
    header["achieved_alpha"] = checks.rho_lower(2, 5) - 1e-3
    outcome.stdout = _replace_line(outcome.stdout, 0, "# result: " + json.dumps(header))
    problems = checks.check(job, outcome)
    assert any("below the lower bound" in p for p in problems)
    assert any("witness max inner product" in p for p in problems)


def test_certificate_and_rejection_checks():
    job = _job("certificate", verdict=True, mode="exact", rank=3)
    cert = {"verdict": True, "mode": "exact", "meta": {"rank": 3},
            "links": [{"verdict": True}]}
    outcome = checks.Outcome(0, json.dumps(cert))
    assert checks.check(job, outcome) == []
    cert["verdict"] = False
    assert checks.check(job, checks.Outcome(0, json.dumps(cert)))
    rejection = _job("rejection")
    assert checks.check(rejection, checks.Outcome(0, "", ""))
    error = "error: vector 0 has squared norm Fraction(3, 2), expected 1\n"
    assert checks.check(rejection, checks.Outcome(2, "", error)) == []
