import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from codebounds import cli, errors, linalg
from codebounds.cli import main
from codebounds.fileio import (parse_qary, parse_spherical, serialize_hadamard, serialize_qary,
                               serialize_spherical)
from codebounds.constructions import (cross_polytope, embed_qary, hadamard_code,
                                      sylvester_hadamard)
from codebounds.search import SearchResult, heuristic_rho


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert "codebounds 0.1.0" in out


def test_bound_m(capsys):
    code, out, _ = run(capsys, "bound", "m", "--r", "4", "--alpha", "0")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 8
    assert report["status"] == "certified-exact"


def test_bound_rho(capsys):
    code, out, _ = run(capsys, "bound", "rho", "--r", "100", "--k", "27")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(4.758e-3, rel=1e-3)
    assert "certified_lower" in report["details"]


def test_bound_aq(capsys):
    code, out, _ = run(capsys, "bound", "aq", "--q", "2", "--r", "8", "--s", "4")
    assert code == 0
    assert json.loads(out)["value"] == 16


def test_bound_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "bound", "aq", "--q", "2", "--r", "4", "--s", "3")
    assert code == 1
    assert "j" in err
    code, out, err = run(capsys, "bound", "plotkin", "--q", "2", "--r", "5", "--s", "2")
    assert (code, out) == (1, "")
    assert err == "error: s = 2 < (1-1/q)r = 5/2; the Plotkin bound does not apply\n"


def test_bound_argument_error_exits_2(capsys):
    code, _, _ = run(capsys, "bound", "m", "--r", "4")            # missing alpha
    assert code == 2
    code, _, _ = run(capsys, "bound", "m", "--r", "4", "--alpha", "zebra")
    assert code == 2
    code, _, _ = run(capsys, "bound", "nonsense")
    assert code == 2
    code, _, err = run(capsys, "bound", "ms", "--q", "3", "--r", "6")   # folded into plotkin
    assert code == 2
    assert "invalid choice: 'ms'" in err


def test_bound_requires_single_values_without_grid(capsys):
    code, _, err = run(capsys, "bound", "m", "--r", "2,4", "--alpha", "0")
    assert code == 1
    assert "--grid" in err


def test_bound_grid_csv(capsys):
    code, out, _ = run(capsys, "bound", "m", "--r", "8,2:4,2", "--alpha", "0", "--grid")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,value,status"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "4", "8"]   # sorted, deduplicated
    assert [r[1] for r in rows] == ["4", "6", "8", "16"]
    assert all(r[2] == "certified-exact" for r in rows)


def test_bound_grid_multi_param_lexicographic(capsys):
    code, out, _ = run(capsys, "bound", "rho", "--r", "2,1", "--k", "1,0", "--grid")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,k,value,status"
    keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
    assert keys == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_bound_plotkin_grid_marks_below_line_cells_out_of_domain(capsys):
    code, out, err = run(capsys, "bound", "plotkin", "--q", "2", "--r", "4",
                         "--s", "1:4", "--grid")
    assert code == 1
    assert out.splitlines() == ["q,r,s,value,status", "2,4,1,,out-of-domain",
                                "2,4,2,8,certified-exact", "2,4,3,3,certified-exact",
                                "2,4,4,2,certified-exact"]
    assert err == ("error: q=2 r=4 s=1: s = 1 < (1-1/q)r = 2; "
                   "the Plotkin bound does not apply\n")


def test_bound_ramsey_subcommands(capsys):
    code, out, _ = run(capsys, "bound", "ramsey-lower", "--q", "2", "--r", "4",
                       "--s", "2", "--a-value", "8")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 9
    assert report["status"] == "conditional"        # the typed --a-value is unchecked
    code, out, _ = run(capsys, "bound", "ramsey-asymptotic", "--q", "2",
                       "--r", "100", "--j", "0")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 200
    assert report["status"] == "asymptotic-headline"
    code, out, _ = run(capsys, "bound", "ramsey-upper", "--q", "2", "--r", "4",
                       "--s", "2", "--eps", "1/2", "--c", "1")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 24
    assert report["status"] == "conditional"        # c and the oracle are taken on trust
    code, out, _ = run(capsys, "bound", "bq", "--q", "3")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == [3, 4]
    assert report["status"] == "asymptotic-headline"  # a limit as r grows


STATUSES = {"certified-exact", "certified-float", "conditional", "asymptotic-headline",
            "vacuous"}
# per bound op, one in-domain argument list and the status its report claims
BOUND_STATUS = {
    "rho": (["--r", "4", "--k", "1"], "certified-float"),
    "m": (["--r", "4", "--alpha", "0"], "certified-exact"),
    "aq": (["--q", "2", "--r", "8", "--s", "4"], "certified-exact"),
    "plotkin": (["--q", "3", "--r", "6", "--s", "4"], "certified-exact"),
    "ramsey-asymptotic": (["--q", "2", "--r", "100", "--j", "0"], "asymptotic-headline"),
    "bq": (["--q", "3"], "asymptotic-headline"),
    "ramsey-lower": (["--q", "2", "--r", "4", "--s", "2", "--a-value", "8"], "conditional"),
    "ramsey-upper": (["--q", "2", "--r", "4", "--s", "2", "--eps", "1/2", "--c", "1"],
                     "conditional"),
}


def test_every_bound_op_prints_a_status_from_the_vocabulary(capsys):
    assert set(BOUND_STATUS) == set(cli._BOUNDS)
    for op, (argv, status) in BOUND_STATUS.items():
        code, out, err = run(capsys, "bound", op, *argv)
        assert (code, err) == (0, ""), op
        printed = json.loads(out)["status"]
        assert printed in STATUSES and printed == status, op


def test_construct_and_verify_chain(tmp_path, capsys):
    path = tmp_path / "cp.sphere"
    code, _, _ = run(capsys, "construct", "crosspolytope", "--r", "3", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "# manifest:" in text
    manifest = json.loads(text.splitlines()[-1].removeprefix("# manifest: "))
    assert sorted(manifest) == ["arguments", "input_digests", "seed",
                                "subcommand", "version", "wall_time_s"]
    code, out, _ = run(capsys, "verify", "chain", "--in", str(path))
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] is True
    assert cert["mode"] == "exact"


def test_out_overwrites_a_longer_file_and_writes_to_devices(tmp_path, capsys):
    # the file is rewritten in place, so its end is cut at the new content's
    path = tmp_path / "cp.sphere"
    run(capsys, "construct", "crosspolytope", "--r", "2", "--out", str(path))
    fresh = path.read_text()
    path.write_text("x" * 10 * len(fresh))
    assert run(capsys, "construct", "crosspolytope", "--r", "2", "--out", str(path))[0] == 0
    text = path.read_text()
    assert text.splitlines()[:-1] == fresh.splitlines()[:-1]
    assert text.endswith("}\n") and "x" not in text
    # a device cannot be cut, and need not be
    assert run(capsys, "construct", "crosspolytope", "--r", "2", "--out", os.devnull)[0] == 0


@pytest.mark.parametrize("what", ["hadamard", "hadamard-code"])
def test_construct_above_the_hadamard_cap_exits_1(capsys, what):
    code, out, err = run(capsys, "construct", what, "--order", "4096")
    assert code == 1
    assert out == ""
    assert err == "error: order 2^12 exceeds MAX_HADAMARD_ORDER = 2048\n"


@pytest.mark.parametrize("q", [10 ** 5, 2 ** 70])
def test_embed_above_the_alphabet_cap_exits_1(tmp_path, capsys, q):
    src, out_path = tmp_path / "two.qary", tmp_path / "two.sphere"
    src.write_text(f"qary {q} 2\n0 0\n1 1\n")
    code, out, err = run(capsys, "embed", "--in", str(src), "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == f"error: alphabet size {q} exceeds MAX_IMAGE_ALPHABET = 1024\n"
    assert not out_path.exists()


def test_embed_above_the_image_cap_exits_1(tmp_path, capsys):
    # n*q*r = 2 * 1024 * 8193, just past MAX_IMAGE_ENTRIES = 2^24
    src, out_path = tmp_path / "two.qary", tmp_path / "two.sphere"
    src.write_text("qary 1024 8193\n" + " ".join(["0"] * 8193) + "\n"
                   + " ".join(["1"] * 8193) + "\n")
    code, out, err = run(capsys, "embed", "--in", str(src), "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == ("error: image of 2 words has n*q*r = 16779264 entries, "
                   "above MAX_IMAGE_ENTRIES = 16777216\n")
    assert not out_path.exists()


def test_construct_simplex_above_the_alphabet_cap_exits_1(capsys):
    code, out, err = run(capsys, "construct", "simplex", "--q", "1025")
    assert (code, out) == (1, "")
    assert err == "error: alphabet size 1025 exceeds MAX_IMAGE_ALPHABET = 1024\n"


def test_construct_crosspolytope_above_the_cap_exits_1(capsys):
    code, out, err = run(capsys, "construct", "crosspolytope", "--r", "2049")
    assert (code, out) == (1, "")
    assert err == "error: dimension 2049 exceeds MAX_CROSS_POLYTOPE_DIMENSION = 2048\n"


def test_bound_bq_decides_a_large_prime_in_under_a_second(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "bq", "--q", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert json.loads(out)["details"] == {"prime_power": True}


def test_bound_bq_above_the_prime_power_limit_exits_1(capsys):
    code, out, err = run(capsys, "bound", "bq", "--q", "3317044064679887385961981")
    assert (code, out) == (1, "")
    assert err == ("error: alphabet size 3317044064679887385961981 exceeds "
                   "MAX_PRIME_POWER_Q = 3317044064679887385961980\n")


def test_verify_tampered_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.sphere"
    path.write_text("sphere 2\n1 0\n1 1\n")
    code, _, err = run(capsys, "verify", "chain", "--in", str(path))
    assert code == 2
    assert "norm" in err


def test_verify_beta_hypothesis_gate_exits_1(tmp_path, capsys):
    path = tmp_path / "simplex.sphere"
    code, _, _ = run(capsys, "construct", "simplex", "--q", "3", "--out", str(path))
    assert code == 0
    # simplex coordinates are irrational, so verification runs in float mode
    code, _, err = run(capsys, "verify", "beta", "--in", str(path), "--float")
    assert code == 1
    assert "[0, 1)" in err


def test_verify_spherical_failing_claim_exits_1(tmp_path, capsys):
    path = tmp_path / "cp2.sphere"
    run(capsys, "construct", "crosspolytope", "--r", "2", "--out", str(path))
    code, out, _ = run(capsys, "verify", "spherical", "--in", str(path),
                       "--alpha=-1/2")
    assert code == 1
    assert json.loads(out)["verdict"] is False
    code, _, _ = run(capsys, "verify", "spherical", "--in", str(path), "--alpha", "0")
    assert code == 0


# the 7 (kind, flag) pairs verify accepts; every other pair is a usage error
_VERIFY_FLAGS = {"spherical": {"alpha", "float"}, "qary": {"s"}, "beta": {"float"},
                 "gamma": {"float"}, "chain": {"float"}, "trace-rank": {"float"}}
_FLAG_ARGV = {"alpha": ["--alpha", "0"], "s": ["--s", "1"], "float": ["--float"]}
_CLAIMS = {"spherical": "alpha", "qary": "s"}


def _verify_input(tmp_path, kind):
    # a file of the kind's type on which every flag it reads gives verdict true
    if kind == "qary":
        path, text = tmp_path / "h.qary", "qary 2 2\n0 0\n1 1\n"
    else:
        path, text = tmp_path / "cp.sphere", "sphere 2\n1 0\n0 1\n-1 0\n0 -1\n"
    path.write_text(text)
    return str(path)


def test_verify_flag_table_matches_the_verify_rows():
    assert {kind: {name for name, *_ in args}
            for kind, (args, *_) in cli._VERIFY.items()} == _VERIFY_FLAGS


@pytest.mark.parametrize("flag", list(_FLAG_ARGV))
@pytest.mark.parametrize("kind", list(_VERIFY_FLAGS))
def test_verify_kind_accepts_exactly_its_own_flags(tmp_path, capsys, kind, flag):
    required = _CLAIMS.get(kind, flag)
    claim = [] if required == flag else _FLAG_ARGV[required]
    argv = ["verify", kind, "--in", _verify_input(tmp_path, kind), *claim, *_FLAG_ARGV[flag]]
    code, out, err = run(capsys, *argv)
    if flag in _VERIFY_FLAGS[kind]:
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] is True
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: codebounds verify {kind} ")
        assert f"verify {kind}: error: unrecognized arguments: {' '.join(_FLAG_ARGV[flag])}" in err


@pytest.mark.parametrize("command, argv", [
    ("bound m", ["--r", "4", "--alpha", "0"]),
    ("construct simplex", ["--q", "3"]),
    ("embed", ["--in", "missing.qary"]),
    ("search greedy", ["--q", "2", "--r", "3", "--s", "2"]),
])
def test_an_unread_argument_gets_its_commands_usage_line(capsys, command, argv):
    code, out, err = run(capsys, *command.split(), *argv, "--seed", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: codebounds {command} ")
    assert err.endswith(f"codebounds {command}: error: unrecognized arguments: --seed 1\n")


@pytest.mark.parametrize("kind", list(_CLAIMS))
def test_verify_missing_claim_is_a_usage_error(tmp_path, capsys, kind):
    code, out, err = run(capsys, "verify", kind, "--in", _verify_input(tmp_path, kind))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: codebounds verify {kind} ")
    assert err.endswith(f"error: the following arguments are required: --{_CLAIMS[kind]}\n")


def test_verify_missing_file_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "chain", "--in", "/nonexistent.sphere")
    assert code == 2


def test_hadamard_code_verify_qary(tmp_path, capsys):
    path = tmp_path / "h4.qary"
    code, _, _ = run(capsys, "construct", "hadamard-code", "--order", "4",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "qary", "--in", str(path), "--s", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["meta"]["min_distance"] == 2
    code, _, _ = run(capsys, "verify", "qary", "--in", str(path), "--s", "3")
    assert code == 1


def test_embed_pipeline(tmp_path, capsys):
    qpath = tmp_path / "h4.qary"
    spath = tmp_path / "h4.sphere"
    run(capsys, "construct", "hadamard-code", "--order", "4", "--out", str(qpath))
    code, _, err = run(capsys, "embed", "--in", str(qpath), "--out", str(spath))
    assert code == 0
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["alpha"] == "0"
    assert summary["dimension"] == 4
    # order 4 gives coordinates +-1/2, exactly representable: exact verify works
    code, _, _ = run(capsys, "verify", "spherical", "--in", str(spath), "--alpha", "0")
    assert code == 0


def test_verify_hashes_no_input(tmp_path, capsys, monkeypatch):
    # verify writes no manifest, so the digest of its input is never read
    path = tmp_path / "cp.sphere"
    path.write_text(serialize_spherical(cross_polytope(3)))
    calls = []
    monkeypatch.setattr(cli, "sha256_hex", lambda text: calls.append(text))
    assert run(capsys, "verify", "chain", "--in", str(path))[0] == 0
    assert calls == []


def test_embed_manifest_records_the_input_digest(tmp_path, capsys):
    qpath = tmp_path / "h4.qary"
    spath = tmp_path / "h4.sphere"
    run(capsys, "construct", "hadamard-code", "--order", "4", "--out", str(qpath))
    assert run(capsys, "embed", "--in", str(qpath), "--out", str(spath))[0] == 0
    manifest = json.loads(spath.read_text().splitlines()[-1].removeprefix("# manifest: "))
    digest = hashlib.sha256(qpath.read_bytes()).hexdigest()
    assert manifest["input_digests"] == {str(qpath): digest}


def test_search_exact_cli(tmp_path, capsys):
    path = tmp_path / "best.qary"
    code, out, _ = run(capsys, "search", "exact", "--q", "2", "--r", "4",
                       "--s", "2", "--out", str(path))
    assert code == 0
    header = json.loads(out.strip().splitlines()[0])
    assert header["size"] == 8
    assert header["optimal"] is True
    code = parse_qary(path.read_text())
    assert len(code) == 8


def test_search_exact_node_limit_cli(capsys):
    code, out, err = run(capsys, "search", "exact", "--q", "2", "--r", "8",
                         "--s", "3", "--node-limit", "100")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: node limit reached after ")


def test_search_exact_rejects_a_negative_node_limit(capsys):
    code, out, err = run(capsys, "search", "exact", "--q", "2", "--r", "4",
                         "--s", "2", "--node-limit", "-5")
    assert code == 1
    assert out == ""
    assert err == "error: need node_limit >= 0, got -5\n"


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("q, r, message", [
    ("-2", "3", "alphabet size must be >= 2, got -2"),
    ("0", "3", "alphabet size must be >= 2, got 0"),
    ("1", "3", "alphabet size must be >= 2, got 1"),
    ("2", "40", "search space 2^40 = 1099511627776 exceeds 8192"),
    ("2", "20000", "search space 2^20000 exceeds 8192"),
], ids=["q-2", "q0", "q1", "2^40", "2^20000"])
def test_search_rejects_bad_inputs_with_one_error_line(monkeypatch, capsys, mode, q, r, message):
    def no_table(*args, **kwargs):
        raise AssertionError("word table allocated before the input check")

    monkeypatch.setattr(np, "zeros", no_table)
    code, out, err = run(capsys, "search", mode, "--q", q, "--r", r, "--s", "1")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_search_greedy_cli(capsys):
    code, out, _ = run(capsys, "search", "greedy", "--q", "2", "--r", "3", "--s", "2")
    assert code == 0
    first = out.strip().splitlines()[0]
    assert first.startswith("# result: ")
    header = json.loads(first.removeprefix("# result: "))
    assert header["size"] == 4
    # stdout stream is itself a valid code file
    assert len(parse_qary(out)) == 4


def test_search_rho_deterministic(tmp_path, capsys):
    a = tmp_path / "a.sphere"
    b = tmp_path / "b.sphere"
    code1, out1, _ = run(capsys, "search", "rho", "--r", "2", "--n", "5",
                         "--seed", "7", "--iterations", "500", "--out", str(a))
    code2, out2, _ = run(capsys, "search", "rho", "--r", "2", "--n", "5",
                         "--seed", "7", "--iterations", "500", "--out", str(b))
    assert code1 == code2 == 0
    assert out1 == out2
    va = parse_spherical(a.read_text(), exact=False)
    vb = parse_spherical(b.read_text(), exact=False)
    assert va.vectors == vb.vectors
    assert serialize_spherical(va) == serialize_spherical(vb)



@pytest.mark.parametrize("flag, value, got", [("--iterations", "-5", "iterations=-5, seed=0"),
                                              ("--seed", "-1", "iterations=2000, seed=-1")])
def test_search_rho_rejects_negative_iterations_and_seed(capsys, flag, value, got):
    code, out, err = run(capsys, "search", "rho", "--r", "2", "--n", "5", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: need iterations >= 0 and seed >= 0, got {got}\n"


@pytest.mark.parametrize("r, n", [("2", "100000"), ("3000000000", "2"), ("1", "4096")])
def test_search_rho_rejects_oversized_shapes_before_allocating(monkeypatch, capsys, r, n):
    def no_buffers(*args, **kwargs):
        raise AssertionError("optimizer buffers allocated before the size check")

    monkeypatch.setattr(np.random, "default_rng", no_buffers)
    monkeypatch.setattr(np, "empty", no_buffers)
    code, out, err = run(capsys, "search", "rho", "--r", r, "--n", n)
    assert code == 1
    assert out == ""
    assert err == f"error: need n^2 + 3nr <= 16777216 float64 values, got n={n}, r={r}\n"

def test_verify_trace_rank_cli(tmp_path, capsys):
    path = tmp_path / "cp.sphere"
    run(capsys, "construct", "crosspolytope", "--r", "3", "--out", str(path))
    code, out, _ = run(capsys, "verify", "trace-rank", "--in", str(path))
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] is True
    assert cert["meta"]["rank"] == 3
    for link in cert["links"]:
        assert set(link) == {"name", "lhs", "rhs", "slack", "mode", "verdict"}


@pytest.mark.parametrize("coords", ["1" * 401 + " 0", "1" + "0" * 200 + " 0"],
                         ids=["parses-to-inf", "squares-to-inf"])
@pytest.mark.parametrize("kind", [["spherical", "--alpha", "0"], ["trace-rank"]],
                         ids=lambda kind: kind[0])
def test_verify_float_overflowing_coordinates_exit_2(tmp_path, capsys, coords, kind):
    path = tmp_path / "huge.sphere"
    path.write_text(f"sphere 2\n{coords}\n0 1\n")
    code, out, err = run(capsys, "verify", kind[0], "--in", str(path), "--float", *kind[1:])
    assert code == 2
    assert out == ""
    assert err == "error: vector 0: squared norm overflows a float\n"


def test_bound_grid_out_of_domain_cells_keep_the_sweep(capsys):
    code, out, err = run(capsys, "bound", "aq", "--grid", "--q", "2",
                         "--r", "10:12", "--s", "4:6")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "q,r,s,value,status"
    assert lines[1:] == [
        "2,10,4,,vacuous", "2,10,5,20,certified-exact", "2,10,6,,out-of-domain",
        "2,11,4,,vacuous", "2,11,5,,vacuous", "2,11,6,,out-of-domain",
        "2,12,4,,vacuous", "2,12,5,,vacuous", "2,12,6,24,certified-exact"]
    errors = err.strip().splitlines()
    assert len(errors) == 2
    assert errors[0].startswith("error: q=2 r=10 s=6: j = ")
    assert errors[1].startswith("error: q=2 r=11 s=6: j = ")


def test_bound_vacuous_report_value_is_null(capsys):
    code, out, _ = run(capsys, "bound", "m", "--r", "10", "--alpha", "1/5")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "vacuous"
    assert report["value"] is None
    assert report["details"] == {"scanned_up_to": 1}


def test_written_files_round_trip_exactly(tmp_path, capsys):
    path = tmp_path / "cp.sphere"
    run(capsys, "construct", "crosspolytope", "--r", "4", "--out", str(path))
    parsed = parse_spherical(path.read_text(), exact=True)
    assert parsed.vectors == cross_polytope(4).vectors


def test_verify_trace_rank_float_squared_trace_overflow_exits_2(tmp_path, capsys):
    # both squared norms are finite, but tr(M)^2 = 10^600 is not
    path = tmp_path / "wide.sphere"
    path.write_text("sphere 2\n1" + "0" * 150 + " 0\n0 1\n")
    code, out, err = run(capsys, "verify", "trace-rank", "--in", str(path), "--float")
    assert code == 2
    assert out == ""
    assert err == "error: squared trace overflows a float\n"


def test_main_repeats_identically_within_one_process(tmp_path, capsys):
    path = tmp_path / "cp.sphere"
    sequence = [
        ["--version"],
        ["bound", "m", "--r", "4", "--alpha", "0"],
        ["bound", "m", "--r", "4"],                      # argparse error
        ["bound", "nonsense"],
        ["construct", "crosspolytope", "--r", "3", "--out", str(path)],
        ["verify", "chain", "--in", str(path)],
        ["verify", "spherical", "--in", str(path), "--alpha=-1/2"],
        ["verify", "chain", "--in", str(path), "--float", "--exact"],
        ["search", "greedy", "--q", "2", "--r", "5", "--s", "3"],
    ]
    first = [run(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 0, 0, 1, 2, 0]
    first[4:6] = [(code, out, "") for code, out, _ in first[4:6]]
    second = [run(capsys, *argv) for argv in sequence]
    second[4:6] = [(code, out, "") for code, out, _ in second[4:6]]
    assert second == first


@pytest.mark.parametrize("argv, message", [
    (["ramsey-asymptotic", "--q", "0", "--r", "3", "--j", "0"],
     "need q >= 2 and r >= 1, got q=0, r=3"),
    (["ramsey-asymptotic", "--q", "1", "--r", "3", "--j", "0"],
     "need q >= 2 and r >= 1, got q=1, r=3"),
    (["ramsey-asymptotic", "--q", "2", "--r", "0", "--j", "0"],
     "need q >= 2 and r >= 1, got q=2, r=0"),
    (["ramsey-upper", "--q", "0", "--r", "4", "--s", "2", "--eps", "1/2", "--c", "1"],
     "alphabet size must be >= 2, got 0"),
    (["ramsey-upper", "--q", "1", "--r", "4", "--s", "2", "--eps", "1/2", "--c", "1"],
     "alphabet size must be >= 2, got 1"),
    (["ramsey-upper", "--q", "2", "--r", "0", "--s", "0", "--eps", "1", "--c", "1/10"],
     "need 1 <= s <= r, got s=0, r=0"),
    (["ramsey-upper", "--q", "2", "--r", "4", "--s", "0", "--eps", "1", "--c", "1/10"],
     "need 1 <= s <= r, got s=0, r=4"),
    (["ramsey-lower", "--q", "2", "--r", "2", "--s", "1", "--a-value", "-5"],
     "code size must be >= 0, got -5"),
    (["ramsey-lower", "--q", "1", "--r", "4", "--s", "2", "--a-value", "3"],
     "alphabet size must be >= 2, got 1"),
    (["ramsey-lower", "--q", "2", "--r", "4", "--s", "5", "--a-value", "3"],
     "need 1 <= s <= r, got s=5, r=4"),
], ids=["asymptotic-q0", "asymptotic-q1", "asymptotic-r0", "upper-q0", "upper-q1",
        "upper-r0", "upper-s0", "lower-negative-size", "lower-q1", "lower-s-above-r"])
def test_bound_ramsey_rejects_small_alphabets_and_lengths(capsys, argv, message):
    code, out, err = run(capsys, "bound", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("q, r, j, s", [(2, 4, 2, 0), (3, 3, 5, -3)])
def test_bound_ramsey_asymptotic_needs_a_distance_of_at_least_one(capsys, q, r, j, s):
    code, out, err = run(capsys, "bound", "ramsey-asymptotic",
                         "--q", str(q), "--r", str(r), "--j", str(j))
    assert (code, out) == (1, "")
    assert err == f"error: need 1 <= s <= r, got s={s}, r={r}\n"


def test_bound_ramsey_asymptotic_grid_marks_distance_zero_out_of_domain(capsys):
    code, out, err = run(capsys, "bound", "ramsey-asymptotic", "--grid",
                         "--q", "2", "--r", "4", "--j", "0:2")
    assert code == 1
    assert out.splitlines() == ["q,r,j,value,status", "2,4,0,8,asymptotic-headline",
                                "2,4,1,8,asymptotic-headline", "2,4,2,,out-of-domain"]
    assert err == "error: q=2 r=4 j=2: need 1 <= s <= r, got s=0, r=4\n"


def test_bound_ramsey_asymptotic_grid_marks_small_q_out_of_domain(capsys):
    code, out, err = run(capsys, "bound", "ramsey-asymptotic", "--grid",
                         "--q", "0:2", "--r", "4", "--j", "0")
    assert code == 1
    assert out.splitlines() == ["q,r,j,value,status", "0,4,0,,out-of-domain",
                                "1,4,0,,out-of-domain", "2,4,0,8,asymptotic-headline"]
    assert err.splitlines() == ["error: q=0 r=4 j=0: need q >= 2 and r >= 1, got q=0, r=4",
                                "error: q=1 r=4 j=0: need q >= 2 and r >= 1, got q=1, r=4"]


@pytest.mark.parametrize("r", ["5:1", "1,5:1", "1:9:2,4:3"])
def test_bound_grid_rejects_an_empty_range(capsys, r):
    code, out, err = run(capsys, "bound", "m", "--r", r, "--alpha", "0", "--grid")
    assert code == 2
    assert out == ""
    assert "empty range" in err


def test_int_list_counts_its_values_before_it_makes_them():
    limit = cli.MAX_LIST_VALUES
    assert cli._int_list(f"1:{limit}") == list(range(1, limit + 1))
    assert len(cli._int_list(f"1:{limit - 1},0")) == limit
    for text in (f"0:{limit}", f"1:{limit},0", f"1:{limit - 1},0,-1"):
        with pytest.raises(argparse.ArgumentTypeError, match=f"more than {limit} values"):
            cli._int_list(text)


@pytest.mark.parametrize("r", ["1:1000000000000", "1:1" + "0" * 30])
def test_bound_grid_rejects_a_huge_range_before_it_sweeps(capsys, r):
    # len() of the second range does not fit in a C ssize_t
    code, out, err = run(capsys, "bound", "m", "--r", r, "--alpha", "0", "--grid")
    assert code == 2
    assert out == ""
    assert f"more than {cli.MAX_LIST_VALUES} values" in err


@pytest.mark.parametrize("r, k, value",
                         [("1", "1" + "0" * 309, 2 / 3 * 1e-206), ("1" + "0" * 309, "0", 0.0)],
                         ids=["huge-k", "huge-r"])
def test_bound_rho_beyond_the_float_range_stays_below_the_enclosure(capsys, r, k, value):
    # r and k past the largest float: the value is read from the exact enclosure
    code, out, err = run(capsys, "bound", "rho", "--r", r, "--k", k)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["value"] == pytest.approx(value, rel=1e-15)
    assert Fraction(report["value"]) <= Fraction(report["details"]["certified_lower"])


def _unopenable(tmp_path, what):
    """A path that open() refuses: a directory, or a path under a regular file."""
    if what == "directory":
        return str(tmp_path)
    (tmp_path / "plain").write_text("")
    return str(tmp_path / "plain" / "x")


@pytest.mark.parametrize("argv", [["verify", "chain"], ["verify", "qary", "--s", "1"],
                                  ["embed"]], ids=["verify-chain", "verify-qary", "embed"])
@pytest.mark.parametrize("what", ["directory", "under-a-file", "not-utf-8", "permission"])
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                      argv, what):
    if what == "not-utf-8":
        path = tmp_path / "bom.sphere"
        path.write_bytes(b"\xff\xfe")
        path = str(path)
        expected = f"error: {path}: not UTF-8 text (byte 0)\n"
    elif what == "permission":
        # open() is denied as it would be for a mode-000 file read by a non-root user
        path = str(tmp_path / "locked.sphere")

        def denied(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        expected = f"error: [Errno 13] Permission denied: '{path}'\n"
    else:
        path = _unopenable(tmp_path, what)
        expected = None
    code, out, err = run(capsys, *argv, "--in", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected is None or err == expected


def test_closed_stdout_exits_1_without_an_error_line():
    # a reader that stops early (``| head``) is not a file error; the output,
    # about 76 kB, is more than a pipe buffer holds
    argv = ["bound", "m", "--r", "1:3000", "--alpha", "0", "--grid"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen([sys.executable, "-m", "codebounds.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


def _streamed_cases(tmp_path):
    """(argv without --out, the text the run writes, the prefix of its stdout
    before that text) for a code image, an optimizer's witness and a Hadamard
    matrix."""
    source = tmp_path / "h128.qary"
    source.write_text(serialize_qary(hadamard_code(sylvester_hadamard(7))))
    image = embed_qary(parse_qary(source.read_text())).unit_vectors()
    result = heuristic_rho(50, 200, iterations=5, seed=3)
    header = {"search": "rho", "r": 50, "n": 200, "seed": 3, "iterations": result.nodes,
              "achieved_alpha": result.value}
    return [(["embed", "--in", str(source)], serialize_spherical(image), ""),
            (["search", "rho", "--r", "50", "--n", "200", "--iterations", "5", "--seed", "3"],
             serialize_spherical(result.witness),
             "# result: " + json.dumps(header, sort_keys=True) + "\n"),
            (["construct", "hadamard", "--order", "64"],
             serialize_hadamard(sylvester_hadamard(6)), "")]


class _RecordedFile(io.FileIO):
    """An --out file that records the size of each write, and fails each
    write past ``fail_after`` as a full disk does."""

    sizes = []
    fail_after = math.inf

    def write(self, data):
        if len(self.sizes) >= self.fail_after:
            raise OSError(28, "No space left on device")
        self.sizes.append(len(data))
        return super().write(data)


@pytest.fixture
def recorded(monkeypatch):
    monkeypatch.setattr(_RecordedFile, "sizes", [])
    def opened(file, mode="r", **kwargs):
        return _RecordedFile(file, mode) if mode == "wb" else open(file, mode, **kwargs)

    monkeypatch.setattr(cli, "open", opened, raising=False)
    return _RecordedFile


def test_outputs_stream_in_row_tiles_as_the_serializers_write_them(tmp_path, capsys,
                                                                   monkeypatch, recorded):
    # the texts as the serializers write them in whole tiles of 64 rows; then
    # tiles of three rows: every output is many pieces, the last one partial
    cases = _streamed_cases(tmp_path)
    monkeypatch.setattr(linalg, "_TILE", 3)
    for argv, text, prefix in cases:
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, prefix + text), argv[:2]
        path = tmp_path / "streamed.out"
        path.write_bytes(b"x" * (len(text) + 1000))
        recorded.sizes.clear()
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        written = path.read_bytes()
        assert written[:len(text)] == text.encode(), argv[:2]
        manifest = written[len(text):].decode()
        assert manifest.startswith("# manifest: {") and manifest.count("\n") == 1
        # the header, a piece per tile of three rows, and the manifest
        rows = text.count("\n") - 1
        assert len(recorded.sizes) == 1 + -(-rows // 3) + 1, argv[:2]


def test_a_write_failing_midway_leaves_the_out_file_empty(tmp_path, capsys, monkeypatch,
                                                          recorded):
    # the header is written over the old text; the next piece fails
    monkeypatch.setattr(recorded, "fail_after", 1)
    path = tmp_path / "h.txt"
    path.write_text("old text\n" * 10_000)
    code, out, err = run(capsys, "construct", "hadamard", "--order", "64", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == "error: [Errno 28] No space left on device\n"
    assert recorded.sizes == [len("# hadamard order 64\n")]
    assert path.read_bytes() == b""


def test_stdout_closed_after_the_first_piece_exits_1_without_an_error_line():
    # the matrix's text, about 650 kB, is many pipe buffers
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = ["construct", "hadamard", "--order", "512"]
    with subprocess.Popen([sys.executable, "-m", "codebounds.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"# hadamard order 512\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


@pytest.mark.parametrize("argv", [["construct", "simplex", "--q", "3"],
                                  ["search", "greedy", "--q", "2", "--r", "3", "--s", "2"]],
                         ids=["construct", "search"])
@pytest.mark.parametrize("what", ["directory", "under-a-file"])
def test_unwritable_output_exits_2_with_one_error_line(tmp_path, capsys, argv, what):
    code, out, err = run(capsys, *argv, "--out", _unopenable(tmp_path, what))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and c.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_follows_the_error_type(monkeypatch, capsys, cls):
    # InvalidCode and its subclasses exit 2, every other package error exits 1
    args = {errors.NonUnitVector: (3, 2),
            errors.NodeLimitExceeded: (SearchResult(4, None, 9),)}
    exc = cls(*args.get(cls, ("boom",)))

    def fail(ns, run):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "bound", fail)
    code, out, err = run(capsys, "bound", "m", "--r", "4", "--alpha", "0")
    assert code == (2 if issubclass(cls, errors.InvalidCode) else 1)
    assert out == ""
    assert err == f"error: {exc}\n"


_CERTIFIED, _VACUOUS, _OUT = "certified-exact", "vacuous", "out-of-domain"


@pytest.mark.parametrize("op, names, swept, fixed, expected", [
    ("m", ("r",), ["--r", "0:14,40,400"], ["--alpha=0"], {_CERTIFIED, _OUT}),
    ("m", ("r",), ["--r", "0:14,40,400"], ["--alpha=1/100"], {_CERTIFIED, _VACUOUS, _OUT}),
    ("m", ("r",), ["--r", "0:14,40,400"], ["--alpha=0.05"], {_CERTIFIED, _VACUOUS, _OUT}),
    ("m", ("r",), ["--r", "1:40"], ["--alpha=1/1000"], {_CERTIFIED}),
    ("m", ("r",), ["--r", "1:40"], ["--alpha=1/8"], {_CERTIFIED, _VACUOUS}),
    ("m", ("r",), ["--r", "1:6"], ["--alpha=-1/10"], {_OUT}),
    ("aq", ("q", "r", "s"), ["--q", "1:4", "--r", "1:9", "--s", "1:10"], [],
     {_CERTIFIED, _VACUOUS, _OUT}),
    ("aq", ("q", "r", "s"), ["--q", "2,5", "--r", "10:12", "--s", "4:9"], [],
     {_CERTIFIED, _VACUOUS, _OUT}),
], ids=["m-alpha-0", "m-alpha-1/100", "m-alpha-0.05", "m-alpha-1/1000", "m-alpha-1/8",
        "m-negative-alpha", "aq", "aq-q-5"])
def test_bound_grid_rows_match_single_cell_reports(capsys, op, names, swept, fixed, expected):
    # a vacuous report is an empty value cell, and an out-of-domain cell's
    # error line is the single run's, prefixed with the cell
    code, out, err = run(capsys, "bound", op, "--grid", *swept, *fixed)
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == [*names, "value", "status"]
    error_lines = iter(err.splitlines())
    statuses = set()
    for *cell, value, status in rows[1:]:
        args = [x for name, v in zip(names, cell) for x in (f"--{name}", v)]
        single_code, single_out, single_err = run(capsys, "bound", op, *args, *fixed)
        statuses.add(status)
        if status == _OUT:
            assert (single_code, single_out, value) == (1, "", "")
            label = " ".join(f"{name}={v}" for name, v in zip(names, cell))
            assert single_err.startswith("error: ") and single_err.endswith("\n")
            assert next(error_lines) == f"error: {label}: {single_err[7:-1]}"
        else:
            report = json.loads(single_out)
            assert (single_code, single_err) == (0, "")
            assert value == ("" if report["value"] is None else str(report["value"]))
            assert status == report["status"]
    assert next(error_lines, None) is None
    assert statuses == expected
    assert code == (1 if _OUT in statuses else 0)
