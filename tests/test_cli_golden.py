"""Golden CLI transcripts: what a user sees from each command line, hashed.

Each case runs ``cli.main`` in a fresh directory holding the input files
below and hashes (argv, exit code, stdout, stderr, files written) with
sha256.  A written file's manifest keeps everything but ``wall_time_s``.
Help text is formatted at 80 columns.  argparse words its help and usage
errors differently across Python versions, so the ``help`` and ``usage``
cases are compared only on the version their digests were recorded with.

After an intended change to the output, print the new table with

    PYTHONPATH=src python tests/test_cli_golden.py

and replace DIGESTS with it.
"""

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile

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


def transcript_digest(argv, captured) -> str:
    """Run argv in a fresh directory holding INPUTS and hash what it shows and
    writes; ``captured()`` returns the (stdout, stderr) text of the run."""
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
                        written[name] = _WALL_TIME.sub('"wall_time_s": 0', fh.read())
        finally:
            os.chdir(cwd)
    blob = json.dumps([list(argv), code, out, err, written])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


RECORDED_ON = (3, 11)

DIGESTS = {
    "version": "e3860903f05fcfa5d744784ccfbb748f488e43aeaaf8e43c5b24a0f931ffb535",
    "help:": "b0afe383639552c3b42ed7fd99e7af0c37bb4ffbf0d87981d28eef1eac4b69f0",
    "help:bound": "1e469459672226ac2f425ee7a157ea4be179440912b01ae68d3efaa5b1320882",
    "help:bound rho": "db0d9b30b58177c2b3dbd3972cf11f8f094db655460e1e83b4e5765dc7fac0d2",
    "help:bound m": "48e70627a65121960149a2bdf07b2a5ba56fd40d7733bbecd25053a07d5a1786",
    "help:bound aq": "aa3e144bde5ed4f18d199abc74c48bca37e96b0691ac7129480ed8dbb324053b",
    "help:bound plotkin": "4be7ccdc65e52ac8f30e605de1f22ba9c03457a8954429b88ff5def4d70a0157",
    "help:bound ramsey-asymptotic": "e4f1dea805cf06a7b1751d7086c1df8d02792a229b6a1d9fe19fd9da792ec996",
    "help:bound bq": "975d166f543cdc2c69e0d94ec8847fbe3d4f82d71a60f42754bc223a341e304a",
    "help:bound ramsey-lower": "c5b84bccd10d7377483c867d9b647f7bdc52774c0e454323a26508209ade579d",
    "help:bound ramsey-upper": "c238bb120fdbec91d69bb3c1c4d0af31cd761d813125c2e99c1a38315cb92225",
    "help:verify": "5381e05efd279e2a63c07d5f5575a42353071215431e904f8cec97cf4a680d3f",
    "help:verify spherical": "c221d367a90baa24650ff7ae47b45782fe2c8a7d4d06904d35cd3414e9f02288",
    "help:verify qary": "0912ee2d33a8e839c4de44d227c2cc2a497e3787a204ab9e48f2d514f1dccb81",
    "help:verify beta": "82250a27c4b99a5ab774340a5c3f0ee6b89bbcff7bbd4043c549f802241dc51e",
    "help:verify gamma": "494146c46776e9528f165ac02839571867734f2f594f381201b89d864a160759",
    "help:verify chain": "4549d72ae0243255b989933675d6fec7a0514fd33ef60523e599cdf3f4692363",
    "help:verify trace-rank": "f4ab1eb78ce0dce542182fdd8642b38524f10126423fb36e3e09069b7a677a65",
    "help:construct": "32ab811540c995b4541d2abfa753532884e3839f633ff10620d830eb3ee6b58a",
    "help:construct simplex": "2f6a6977237c55a45a5b05fae02ab3806b325d07e9835fd20aaff53542c29c47",
    "help:construct crosspolytope": "4fb57c5df8fdbacc65cba9ea938dd15141eda9cbdb73b06457d0568f983d5db8",
    "help:construct hadamard": "c3336a1773f826a0e96b9ab85fcf0afb5911eb132d60322ef61edd1dc9231358",
    "help:construct hadamard-code": "ea9b83033b61de64b68055686854b5d4f78a5ba50f61fdc4dfc98462ee7687f7",
    "help:embed": "99a99b79c8f322eef132b1716ecb08533908208f13a392268197ebd4de249d59",
    "help:search": "c676855d5a1208d4768089638a38dbc5b093b0b1e2f936c2d2c5318a47221dc5",
    "help:search exact": "cd6f07252e6b6b3acc8b13b756c9d2fd418174b15d7664eef71d6c02ba7923f9",
    "help:search greedy": "9962bb3ec1453dce107669c648110f218852a68328cca4117be53e717134a656",
    "help:search rho": "e034ab325ece9cbb00075476c147691b0bb5efb47d20da04fe4b29b666250ab8",
    "usage:no-command": "2b8472385f52d108fcefdb6b346a3aa9be48ebe6b16cf633f5b6b4b982572577",
    "usage:missing-required": "68449eee86d5863e11a461322b75e94001ad97bc4b30c3d46fb777e7c950a3ec",
    "usage:missing-alpha": "b19127bcb85ce4f6d4fad4edc8d8a7cfce201ada9d38a3930dc0eaf3cdd55440",
    "usage:unknown-op": "39c69da9f03a0787c669cf6fc914eeb75dcc114a124d3766ce3c46916c57f1ae",
    "usage:bad-range": "de95d588fc5224c08f8fa33c4816dd533eb7af18e71e2c0fe071ac0f1686457c",
    "usage:bad-scalar": "ba260a7d675e02f9402c1a6c796d3547d099970acd82388fd7cc2fa58144773e",
    "usage:unknown-kind": "71adb43c1dfa5d514dd52ddd2529b05313e7ae98cf1b0031ce38a96acb269399",
    "usage:negative-scalar-as-flag": "685cc93aa11de61385919538db5c5320e781e6872d8e4c57df4e8d29b687bc96",
    "usage:unread-claim": "49aa464a37e8aca13de32388dfd1e7132dd90d1bb7cb12c06dfb586634acbef0",
    "usage:qary-float": "3f420debf764e0ff2d257b16211baacd02cfbc9a7945b31caca366ac10b85528",
    "usage:missing-claim": "86df2c54f4054d46d9a7fac8f2b73121a245d2f8690222bd80d46e7154eaba9b",
    "bound:rho": "08829f93d507b701149f42999323e89ba9850c6d5da0d91eacbbc1e0ad39b4e0",
    "bound:rho:grid": "9762bc0aece47bfd3e6f8bb7e4b0ddf694a32a2cc9642a95572000f9c590a47e",
    "bound:m": "fd64aa249124854913d44f4aaab22d80a751b1d964420c3561f32a885ddc2094",
    "bound:m:grid": "e1d1d60d744ec512de17cf5750ca8945ea77c97e1994f6fca8f28ac5b420f9af",
    "bound:aq": "4f3ce3ecb07110d3c2f2f67dc8729de281ced9998b4d6ffb5bad4b7ec87065a3",
    "bound:aq:grid": "54b11c1c195bb5f84ea628b3e7bf1f70b9761bd8cdc072198669f16f684424f4",
    "bound:plotkin": "18be8417123548d0439a2faa935650e044dbf98ef48bc50bd1edf41099446c41",
    "bound:plotkin:grid": "51810e5e33d05f4518e107c3be2a83a997c80ef8626f10d63ee0da9c382af68c",
    "bound:ramsey-asymptotic": "920acbf311fcfdae3b53cfcee5fb497003235f54869e73e1c004f6490ab34132",
    "bound:ramsey-asymptotic:grid": "9ec58b4ad0def7b89f934aa683ebf12604d6b45eb818ecc7997894d1e086e23e",
    "bound:bq": "1d0bfc2f01d8682663591943c0ba3cfb2465fdce5c9dbd427672042fe89aff24",
    "bound:bq:grid": "424478ac3054953820b118c814fbef4fc4aa875233910d5e719b6e58dabeb6e6",
    "bound:m:needs-grid": "b3ce65fec7f308c754ec5e67dce510391fb3b53f5e9463f0f4e59940e67084c2",
    "bound:aq:domain": "e8a4df55a1b6b875f6b17584245b95050b198b73124a787d906b491dbd358c95",
    "bound:ramsey-lower": "bf01a3e2787df434d5a39b5701e8fe4ab7b9e037a59b2edd64d6937f025b9dec",
    "bound:ramsey-upper": "2ba9f3643f02cc51fadd271c987173daf72345da1330b0f7598aaec72e8d30c0",
    "construct:simplex": "c10263aff7b293821cd926cc3f77accb03a7ad902e5e3672ce525dbc0d65fc5b",
    "construct:crosspolytope": "46b155191e4113f48a84e3f1bad22c1de22d08cadf77f8e417ba706842410bf8",
    "construct:hadamard": "379266edbc7ae793cb66460249ad79a59928466df0558aefcb5fac673ddb0bd6",
    "construct:hadamard-code": "b188ffa8fe3b416b3900c8fd545c12886ef580ca4c86d02d9f920340ac715bde",
    "construct:bad-order": "88d679ffe67e89f408af9acd30067a1db20bdfa0d5f1810d306e1dfa6049b1bd",
    "construct:hadamard-code:out": "fa20e5cd5dac2f297fa522c32b217ebf2f880dea684fb5ecc67b8e042fb7de36",
    "embed": "3867354e570f0a2cbba8c7a88bb971d739037f28ee4c8fb7d7a317927ca25178",
    "embed:out": "11a689ec4616584874b64584caab0e6e7718c3c2eb547efb7ba9ec0002b467ba",
    "search:greedy": "7af11ae1356fe7ced971296e3a100200f211519d48ae6547f1fb171cd9729a31",
    "search:greedy:out": "0416d21a92c98f5bc6198298d15476a967788cab1c69686dbb2cf8ea9aae5b44",
    "search:exact": "55b01fd4fba88dfead1cc601b8aeecb6bd709096efb6d0719b750c98cb106642",
    "search:exact:node-limit": "7a29096d83c265404356a3a7f486285fd4803d08f8c980104eba28cd147e1138",
    "search:rho": "2cc5aaa17ee8d7c0a190d9c142fd9b55d35d7fbc19380ee2f69fbb57a3b71921",
    "search:rho:out": "6cd9406ae84fe89c9c60a673adf18bdb2d29db590cf400f88ddbd92a535f898e",
    "verify:spherical": "ba12dc1243bdf6c0a0c918c03bc6f4074a991a05516749411508ff7bf7b555f9",
    "verify:spherical:float": "21b8db6c65b5b0446ca60d35c25c466c135f197c4c808fa13b4ec3a8aa6ccc5d",
    "verify:beta": "65078526eb13359b5c05b2f03f0d390fd9a69c9724454b2be8f40e7f0e1f8cbf",
    "verify:beta:float": "f328922561ec108a69769bb03b64c6863a5be23a49932617738122cff3480004",
    "verify:gamma": "7b6a0f0ea66bf4dc8920309a698de162bda9cc9996f3a64e7242e492c1baab0e",
    "verify:gamma:float": "729d673a87ec204019a045bfde30ced0ab70c33f51732b2750c479fb3a4b376e",
    "verify:chain": "1fd226da76f83f2f692ccb277a071404982a921add86a909bcdfe71303215202",
    "verify:chain:float": "eba9fb04f513177a9186e8bc0031069e0f268a7d6fde45bd9b86f1f52622abe0",
    "verify:trace-rank": "131f49968f8e682baeb3fae9ce25a637e978247829437c652bc1eed99386db32",
    "verify:trace-rank:float": "5035a257d1f578d6188c6230eb656c4ce59123779ee8f5fb8c52106877a3054b",
    "verify:qary": "b90af5c90de578732ac7d206e25582c8c084eacc80bf46f4cc4d35e269764533",
    "verify:spherical:failing-claim": "5fe8d882974605729e13c96adbb5afeca99bb0bc8e0a946316661147a582078b",
    "verify:missing-file": "0ed55264a908aa2c1646a0080356164defa928bb977e80f3aa5fe1979ade7102",
    "verify:chain:alpha-one": "86af3de68bd8280314791c9b4a283f12625f331a99ecacfcc910f15a946aa0cf",
    "verify:chain:off-sphere": "2072948a739cf2738a1cb9a30f619b3e610bf49a93ab8e4daa92424fb21aa81f",
}


@pytest.mark.parametrize("case", CASES)
def test_cli_transcript_matches_its_golden_digest(case, capsys, monkeypatch):
    if case.split(":")[0] in ("help", "usage") and sys.version_info[:2] != RECORDED_ON:
        pytest.skip(f"argparse text recorded on Python {RECORDED_ON[0]}.{RECORDED_ON[1]}")
    monkeypatch.setenv("COLUMNS", "80")

    def captured():
        c = capsys.readouterr()
        return c.out, c.err

    assert transcript_digest(CASES[case], captured) == DIGESTS[case]


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


def test_digests_and_cases_have_the_same_keys():
    assert set(DIGESTS) == set(CASES)


if __name__ == "__main__":
    import contextlib
    import io

    os.environ["COLUMNS"] = "80"
    print("DIGESTS = {")
    moved = []
    for case, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            digest = transcript_digest(argv, lambda: (out.getvalue(), err.getvalue()))
        print(f'    "{case}": "{digest}",')
        if DIGESTS.get(case) != digest:
            moved.append(case)
    print("}")
    # the cases whose transcript no longer matches its pinned digest
    for case in moved:
        print(f"differs: {case}")
