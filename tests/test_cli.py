import json

import pytest

from codebounds.cli import main
from codebounds.fileio import parse_qary, parse_spherical, serialize_spherical
from codebounds.constructions import cross_polytope


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
    code, _, _ = run(capsys, "bound", "plotkin", "--r", "5")
    assert code == 1


def test_bound_argument_error_exits_2(capsys):
    code, _, _ = run(capsys, "bound", "m", "--r", "4")            # missing alpha
    assert code == 2
    code, _, _ = run(capsys, "bound", "m", "--r", "4", "--alpha", "zebra")
    assert code == 2
    code, _, _ = run(capsys, "bound", "nonsense")
    assert code == 2


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


def test_bound_ramsey_subcommands(capsys):
    code, out, _ = run(capsys, "bound", "ramsey-lower", "--q", "2", "--r", "4",
                       "--s", "2", "--a-value", "8")
    assert code == 0
    assert json.loads(out)["value"] == 9
    code, out, _ = run(capsys, "bound", "ramsey-asymptotic", "--q", "2",
                       "--r", "100", "--j", "0")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 200
    assert report["status"] == "asymptotic-headline"
    code, out, _ = run(capsys, "bound", "ramsey-upper", "--q", "2", "--r", "4",
                       "--s", "2", "--eps", "1/2", "--c", "1")
    assert code == 0
    assert json.loads(out)["value"] == 24
    code, out, _ = run(capsys, "bound", "bq", "--q", "3")
    assert code == 0
    assert json.loads(out)["value"] == [3, 4]


def test_construct_and_verify_chain(tmp_path, capsys):
    path = tmp_path / "cp.sphere"
    code, _, _ = run(capsys, "construct", "crosspolytope", "--r", "3", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "# manifest:" in text
    manifest = json.loads(text.splitlines()[-1].removeprefix("# manifest: "))
    assert sorted(manifest) == ["arguments", "input_digests", "mode", "seed",
                                "subcommand", "version", "wall_time_s"]
    code, out, _ = run(capsys, "verify", "chain", "--in", str(path))
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] is True
    assert cert["mode"] == "exact"


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
], ids=["asymptotic-q0", "asymptotic-q1", "asymptotic-r0", "upper-q0", "upper-q1"])
def test_bound_ramsey_rejects_small_alphabets_and_lengths(capsys, argv, message):
    code, out, err = run(capsys, "bound", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("r, k", [("1", "1" + "0" * 309), ("1" + "0" * 309, "0")],
                         ids=["huge-k", "huge-r"])
def test_bound_rho_beyond_the_float_range_exits_1(capsys, r, k):
    code, out, err = run(capsys, "bound", "rho", "--r", r, "--k", k)
    assert code == 1
    assert out == ""
    assert err == "error: r and k are beyond the float range\n"
