"""Golden CLI transcripts: what a user sees from each command line, as text.

Each case runs ``cli.main`` in a fresh directory holding the input files
below and compares its transcript with the one recorded in
``cli_transcripts.json``, beside this file: the argv, the exit code, and
stdout, stderr and each file written, as lists of lines (joining a list
gives back the exact text).  A written file's manifest keeps everything but
``wall_time_s``.  Help text is formatted at 80 columns.  argparse words its
help and usage errors differently across Python versions, so the ``help``
and ``usage`` cases are compared only on the version they were recorded
with.

After an intended change to the output, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and read what moved in ``git diff``.  On another Python version the
recorded ``help`` and ``usage`` entries are kept as they are.
"""

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from codebounds import cli

INPUTS = {
    # the simplex image of the order-4 Hadamard code: exact coordinates, alpha 0
    "exact.sphere": "sphere 4\n" + "".join(
        " ".join(f"{'-' if x else ''}0.5" for x in row) + "\n"
        for row in ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0),
                    (1, 1, 1, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1))),
    # the simplex image of a ternary code of length 3, written as floats
    "float.sphere": """sphere 6
0.5773502691896258 0.0 0.5773502691896258 0.0 0.5773502691896258 0.0
-0.2886751345948129 0.5 -0.2886751345948129 0.5 -0.2886751345948129 0.5
-0.2886751345948129 -0.5000000000000001 -0.2886751345948129 -0.5000000000000001 \
-0.2886751345948129 -0.5000000000000001
0.5773502691896258 0.0 -0.2886751345948129 0.5 -0.2886751345948129 -0.5000000000000001
-0.2886751345948129 0.5 -0.2886751345948129 -0.5000000000000001 0.5773502691896258 0.0
-0.2886751345948129 -0.5000000000000001 0.5773502691896258 0.0 -0.2886751345948129 0.5
""",
    "ternary.qary": "qary 3 3\n0 0 0\n1 1 1\n2 2 2\n0 1 2\n1 2 0\n2 0 1\n",
    # exact files whose errors print a Gram entry: a repeated vector (alpha 1),
    # and a vector of squared norm 2
    "alpha-one.sphere": "sphere 2\n1 0\n1 0\n3/5 -4/5\n",
    "off-sphere.sphere": "sphere 2\n1 1\n3/5 4/5\n",
}

HELP_PATHS = [
    [], ["bound"], ["bound", "rho"], ["bound", "m"], ["bound", "aq"], ["bound", "plotkin"],
    ["bound", "ramsey-asymptotic"], ["bound", "bq"],
    ["bound", "ramsey-lower"], ["bound", "ramsey-upper"], ["verify"], ["verify", "spherical"],
    ["verify", "qary"], ["verify", "beta"], ["verify", "gamma"], ["verify", "chain"],
    ["verify", "trace-rank"], ["construct"],
    ["construct", "simplex"], ["construct", "crosspolytope"], ["construct", "hadamard"],
    ["construct", "hadamard-code"], ["embed"], ["search"], ["search", "exact"],
    ["search", "greedy"], ["search", "rho"],
]

BOUND_RUNS = {
    "rho": (["--r", "100", "--k", "27"], ["--r", "10,20", "--k", "2:3"]),
    "m": (["--r", "4", "--alpha", "0"], ["--r", "2:8:2", "--alpha", "1/100"]),
    "aq": (["--q", "2", "--r", "8", "--s", "4"], ["--q", "2,3", "--r", "4,6", "--s", "3:4"]),
    # the grid holds cells on, above and below the line s = (1-1/q)r
    "plotkin": (["--q", "2", "--r", "8", "--s", "4"],
                ["--q", "2,3", "--r", "4,6", "--s", "2:4"]),
    "ramsey-asymptotic": (["--q", "3", "--r", "6", "--j", "1"],
                          ["--q", "1:3", "--r", "6", "--j", "0:1"]),
    "bq": (["--q", "3"], ["--q", "2:7"]),
}


def _cases():
    cases = {"version": ["--version"]}
    for path in HELP_PATHS:
        cases["help:" + " ".join(path)] = path + ["--help"]
    cases.update({
        "usage:no-command": [],
        "usage:missing-required": ["bound", "aq", "--q", "2", "--r", "4"],
        "usage:missing-alpha": ["bound", "m", "--r", "4"],
        "usage:unknown-op": ["bound", "nonsense"],
        "usage:bad-range": ["bound", "m", "--r", "5:1", "--alpha", "0"],
        "usage:bad-scalar": ["bound", "m", "--r", "4", "--alpha", "zebra"],
        "usage:unknown-kind": ["verify", "nonsense", "--in", "exact.sphere"],
        # a negative scalar in its own token is read as a flag
        "usage:negative-scalar-as-flag": ["verify", "spherical", "--in", "exact.sphere",
                                          "--alpha", "-1/2"],
        # a verify kind takes only the arguments it reads, and its claim is required
        "usage:unread-claim": ["verify", "chain", "--in", "exact.sphere", "--alpha", "0"],
        "usage:qary-float": ["verify", "qary", "--float", "--in", "ternary.qary", "--s", "3"],
        "usage:missing-claim": ["verify", "spherical", "--in", "exact.sphere"],
    })
    for op, (single, grid) in BOUND_RUNS.items():
        cases[f"bound:{op}"] = ["bound", op] + single
        cases[f"bound:{op}:grid"] = ["bound", op] + grid + ["--grid"]
    cases.update({
        "bound:m:needs-grid": ["bound", "m", "--r", "2,4", "--alpha", "0"],
        "bound:aq:domain": ["bound", "aq", "--q", "2", "--r", "4", "--s", "3"],
        "bound:ramsey-lower": ["bound", "ramsey-lower", "--q", "2", "--r", "4", "--s", "2",
                               "--a-value", "3"],
        "bound:ramsey-upper": ["bound", "ramsey-upper", "--q", "2", "--r", "4", "--s", "2",
                               "--eps", "1/2", "--c", "1"],
        "construct:simplex": ["construct", "simplex", "--q", "3"],
        "construct:crosspolytope": ["construct", "crosspolytope", "--r", "3"],
        "construct:hadamard": ["construct", "hadamard", "--order", "8"],
        "construct:hadamard-code": ["construct", "hadamard-code", "--order", "8"],
        "construct:bad-order": ["construct", "hadamard", "--order", "6"],
        "construct:hadamard-code:out": ["construct", "hadamard-code", "--order", "4",
                                        "--out", "out.qary"],
        "embed": ["embed", "--in", "ternary.qary"],
        "embed:out": ["embed", "--in", "ternary.qary", "--out", "out.sphere"],
        "search:greedy": ["search", "greedy", "--q", "2", "--r", "5", "--s", "3"],
        "search:greedy:out": ["search", "greedy", "--q", "3", "--r", "3", "--s", "2",
                              "--out", "out.qary"],
        "search:exact": ["search", "exact", "--q", "2", "--r", "4", "--s", "2"],
        "search:exact:node-limit": ["search", "exact", "--q", "2", "--r", "8", "--s", "3",
                                    "--node-limit", "10"],
        "search:rho": ["search", "rho", "--r", "3", "--n", "6", "--iterations", "20",
                       "--seed", "7"],
        "search:rho:out": ["search", "rho", "--r", "2", "--n", "5", "--iterations", "10",
                           "--out", "out.sphere"],
    })
    for kind in ("spherical", "beta", "gamma", "chain", "trace-rank"):
        claim = ["--alpha", "0"] if kind == "spherical" else []
        cases[f"verify:{kind}"] = ["verify", kind, "--in", "exact.sphere"] + claim
        cases[f"verify:{kind}:float"] = ["verify", kind, "--float",
                                         "--in", "float.sphere"] + claim
    cases["verify:qary"] = ["verify", "qary", "--in", "ternary.qary", "--s", "2"]
    cases["verify:spherical:failing-claim"] = ["verify", "spherical", "--in", "exact.sphere",
                                               "--alpha=-1/2"]
    cases["verify:missing-file"] = ["verify", "chain", "--in", "absent.sphere"]
    cases["verify:chain:alpha-one"] = ["verify", "chain", "--in", "alpha-one.sphere"]
    cases["verify:chain:off-sphere"] = ["verify", "chain", "--in", "off-sphere.sphere"]
    return cases


CASES = _cases()

_WALL_TIME = re.compile(r'"wall_time_s": [0-9.e+-]+')


def _lines(text):
    return text.splitlines(keepends=True)


def transcript(argv, captured) -> dict:
    """Run argv in a fresh directory holding INPUTS and record what it shows
    and writes; ``captured()`` returns the (stdout, stderr) text of the run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in INPUTS.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            code = cli.main(list(argv))
            out, err = captured()
            written = {}
            for name in sorted(os.listdir(".")):
                if name not in INPUTS:
                    with open(name, encoding="utf-8") as fh:
                        written[name] = _lines(_WALL_TIME.sub('"wall_time_s": 0', fh.read()))
        finally:
            os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": _lines(out), "stderr": _lines(err),
            "files": written}


RECORDED_ON = (3, 11)

TRANSCRIPTS_FILE = Path(__file__).with_name("cli_transcripts.json")


def render(transcripts) -> str:
    """The file's one text for a {case: transcript} table."""
    return json.dumps(transcripts, ensure_ascii=False, indent=1) + "\n"


TRANSCRIPTS = json.loads(TRANSCRIPTS_FILE.read_text(encoding="utf-8"))


def _version_bound(case):
    return case.split(":")[0] in ("help", "usage")


@pytest.mark.parametrize("case", CASES)
def test_cli_transcript_matches_its_golden_digest(case, capsys, monkeypatch):
    if _version_bound(case) and sys.version_info[:2] != RECORDED_ON:
        pytest.skip(f"argparse text recorded on Python {RECORDED_ON[0]}.{RECORDED_ON[1]}")
    monkeypatch.setenv("COLUMNS", "80")

    def captured():
        c = capsys.readouterr()
        return c.out, c.err

    fresh, recorded = transcript(CASES[case], captured), TRANSCRIPTS[case]
    # field by field and file by file, so that a failure names the line that moved
    for key in ("argv", "exit", "stdout", "stderr"):
        assert fresh[key] == recorded[key], key
    assert list(fresh["files"]) == list(recorded["files"]), "files written"
    for name, lines in recorded["files"].items():
        assert fresh["files"][name] == lines, name


def _parser_paths(parser, path=()):
    yield list(path)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_paths(sub, path + (name,))


def test_every_table_key_has_a_run_case():
    run_heads = {tuple(argv[:2]) for argv in CASES.values() if "--help" not in argv}
    tables = {"bound": cli._BOUNDS, "verify": cli._VERIFY,
              "construct": cli._CONSTRUCT, "search": cli._SEARCH}
    missing = [(command, key) for command, table in tables.items() for key in table
               if (command, key) not in run_heads]
    assert missing == []


def test_every_parser_has_a_help_path():
    assert sorted(_parser_paths(cli.build_parser())) == sorted(HELP_PATHS)


def test_transcripts_and_cases_have_the_same_keys():
    assert list(TRANSCRIPTS) == list(CASES)


def test_the_transcript_file_is_in_its_canonical_form():
    # as regeneration writes it, so that rewriting an unchanged tree moves nothing
    assert TRANSCRIPTS_FILE.read_text(encoding="utf-8") == render(TRANSCRIPTS)


if __name__ == "__main__":
    import contextlib
    import io

    os.environ["COLUMNS"] = "80"
    # argparse's text from another Python version is not written over the recorded one
    keep = sys.version_info[:2] != RECORDED_ON
    fresh = {}
    for case, argv in CASES.items():
        if keep and _version_bound(case):
            fresh[case] = TRANSCRIPTS[case]
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            fresh[case] = transcript(argv, lambda: (out.getvalue(), err.getvalue()))
    TRANSCRIPTS_FILE.write_text(render(fresh), encoding="utf-8")
