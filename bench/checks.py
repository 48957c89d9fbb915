"""Correctness checks of each job's output, independent of codebounds.

Every check takes the job and its outcome and returns a list of problems;
an empty list means the output is correct.  The checks re-derive what they
can from mathematics and from the output itself (integer replay of the size
bound, witness distances, recomputed inner products, table values) rather
than from the package under test.
"""

import csv
import functools
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass
class Outcome:
    returncode: int      # CLI exit code; None for a library call
    stdout: str = ""
    stderr: str = ""
    value: dict = None   # library call: the certificate's to_dict()
    crash: str = None    # repr of an exception that escaped the job


def _content(text):
    """Lines of a code file without comments and blanks."""
    return [ln.split() for ln in (raw.strip() for raw in text.splitlines())
            if ln and not ln.startswith("#")]


def _result_header(stdout):
    """The JSON carried in a '# result: ' first line of search output."""
    first, _, body = stdout.partition("\n")
    if not first.startswith("# result: "):
        raise ValueError("no '# result:' header")
    return json.loads(first[len("# result: "):]), body


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _words(text, q, r):
    rows = _content(text)
    if rows[0] != ["qary", str(q), str(r)]:
        raise ValueError(f"header {rows[0]} != qary {q} {r}")
    words = np.array([[int(x) for x in row] for row in rows[1:]], dtype=np.int64)
    if words.shape[1:] != (r,) or words.min() < 0 or words.max() >= q:
        raise ValueError("codewords of the wrong length or alphabet")
    return words


def _min_distance(words):
    """Minimum pairwise Hamming distance (r+1 for fewer than two words)."""
    best = words.shape[1] + 1
    for i in range(len(words) - 1):
        best = min(best, int((words[i + 1:] != words[i]).sum(axis=1).min()))
    return best


def _vectors(text, dimension=None):
    rows = _content(text)
    if rows[0][0] != "sphere" or (dimension is not None and rows[0] != ["sphere", str(dimension)]):
        raise ValueError(f"bad header {rows[0]}")
    return np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)


def _guarded(check):
    """Turn an unparsable output into a reported problem, not a crash."""
    @functools.wraps(check)
    def run(job, outcome):
        try:
            return check(job, outcome)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            return [f"unreadable output: {exc!r}"]
    return run


# ---------------------------------------------------------------- certify

@_guarded
def check_certificate(job, outcome):
    exp = job.expect
    cert = outcome.value if outcome.value is not None else json.loads(outcome.stdout)
    problems = []
    if cert["verdict"] is not exp["verdict"]:
        problems.append(f"verdict {cert['verdict']}, expected {exp['verdict']}")
    if outcome.returncode is not None and outcome.returncode != (0 if exp["verdict"] else 1):
        problems.append(f"exit {outcome.returncode} for verdict {cert['verdict']}")
    if cert["mode"] != exp["mode"]:
        problems.append(f"mode {cert['mode']}, expected {exp['mode']}")
    if "rank" in exp and cert["meta"].get("rank") != exp["rank"]:
        problems.append(f"rank {cert['meta'].get('rank')}, expected {exp['rank']}")
    if cert["verdict"] != all(link["verdict"] for link in cert["links"]):
        problems.append("verdict disagrees with its links")
    return problems


@_guarded
def check_rejection(job, outcome):
    if outcome.returncode != 2 or "squared norm" not in outcome.stderr:
        return [f"exit {outcome.returncode}, stderr {outcome.stderr[:80]!r}: "
                "expected exit 2 with a non-unit-vector error"]
    return []


@_guarded
def check_qary_file(job, outcome):
    exp = job.expect
    if outcome.returncode != 0:
        return [f"exit {outcome.returncode}"]
    words = _words(_read(exp["path"]), exp["q"], exp["r"])
    problems = []
    if len(words) != exp["n"]:
        problems.append(f"{len(words)} words, expected {exp['n']}")
    d = _min_distance(words)
    if d < exp["s"]:
        problems.append(f"minimum distance {d} < {exp['s']}")
    return problems


@_guarded
def check_embedding(job, outcome):
    exp = job.expect
    if outcome.returncode != 0:
        return [f"exit {outcome.returncode}"]
    v = _vectors(_read(exp["path"]), exp["dimension"])
    summary = json.loads(outcome.stderr.strip().splitlines()[-1])
    problems = []
    if v.shape[0] != exp["n"] or summary["n"] != exp["n"]:
        problems.append(f"{v.shape[0]} vectors, expected {exp['n']}")
    if np.abs((v * v).sum(axis=1) - 1).max() > 1e-9:
        problems.append("embedded vectors are not unit")
    if summary["alpha"] != exp["alpha"]:
        problems.append(f"alpha {summary['alpha']}, expected {exp['alpha']}")
    return problems


@_guarded
def check_crosspolytope(job, outcome):
    if outcome.returncode != 0:
        return [f"exit {outcome.returncode}"]
    r = job.expect["r"]
    v = _vectors(_read(job.expect["path"]), r)
    expected = np.concatenate([np.eye(r), -np.eye(r)])
    if sorted(map(tuple, v)) != sorted(map(tuple, expected)):
        return ["vectors are not the 2r signed unit vectors"]
    return []


# ------------------------------------------------------------- bound_grid

def predicate_holds(n, r, alpha):
    """n^2 <= r(2n + (alpha n)^2 + 27/4 (1 + alpha n)^2 alpha n), in integers."""
    a, b = alpha.numerator, alpha.denominator
    return 4 * n * n * b ** 3 <= r * (8 * n * b ** 3 + 4 * n * n * a * a * b
                                      + 27 * (b + a * n) ** 2 * a * n)


def vacuity_proved(r, alpha):
    """No n >= 1 fails: the failure parabola -A n^2 + B n - C is never positive
    at an integer, so B <= 0 or the integers beside its vertex hold."""
    if alpha <= 0:
        return False
    big_a = Fraction(27, 4) * r * alpha ** 3
    big_b = 1 - Fraction(29, 2) * r * alpha ** 2
    if big_b <= 0:
        return True
    vertex = big_b / (2 * big_a)
    lo = max(1, vertex.numerator // vertex.denominator)
    return predicate_holds(lo, r, alpha) and predicate_holds(lo + 1, r, alpha)


def _bound_row(dimension, alpha, value, status):
    if status == "certified-exact":
        v = int(value)
        if alpha == 0 and v != 2 * dimension:
            return f"value {v} != 2r = {2 * dimension} at alpha 0"
        if not predicate_holds(v, dimension, alpha) or predicate_holds(v + 1, dimension, alpha):
            return f"value {v} is not the last size before the predicate fails"
        return None
    if status == "vacuous":
        return None if vacuity_proved(dimension, alpha) else "vacuous but not proved so"
    return f"unexpected status {status!r}"


def _grid_rows(outcome, header):
    if outcome.returncode != 0:
        raise ValueError(f"exit {outcome.returncode}: {outcome.stderr[:80]!r}")
    rows = list(csv.reader(io.StringIO(outcome.stdout)))
    if rows[0] != header:
        raise ValueError(f"header {rows[0]}")
    return rows[1:]


@_guarded
def check_bound_m(job, outcome):
    exp = job.expect
    rows = _grid_rows(outcome, ["r", "value", "status"])
    if [int(row[0]) for row in rows] != exp["r"]:
        return ["rows do not match the requested r values"]
    problems = []
    for r, value, status in rows:
        problem = _bound_row(int(r), exp["alpha"], value, status)
        if problem:
            problems.append(f"r={r}: {problem}")
    return problems


@_guarded
def check_bound_aq(job, outcome):
    exp = job.expect
    rows = _grid_rows(outcome, ["q", "r", "s", "value", "status"])
    cells = [(exp["q"], r, s) for r in exp["r"] for s in exp["s"]]
    if [tuple(map(int, row[:3])) for row in rows] != cells:
        return ["rows do not match the requested cells"]
    problems = []
    for (q, r, s), row in zip(cells, rows):
        j = Fraction(q - 1, q) * r - s
        problem = _bound_row((q - 1) * r, Fraction(q) * j / ((q - 1) * r), row[3], row[4])
        if problem:
            problems.append(f"q={q} r={r} s={s}: {problem}")
    return problems


# ----------------------------------------------------------- search_exact

def _code_output(outcome, exp):
    """Header, witness words, and the problems of a search's code output:
    the reported size must be the witness's, and its distance at least s."""
    header, body = _result_header(outcome.stdout)
    words = _words(body, exp["q"], exp["r"])
    problems = []
    if header["size"] != len(words):
        problems.append(f"reported size {header['size']} but {len(words)} words")
    d = _min_distance(words)
    if d < exp["s"]:
        problems.append(f"witness minimum distance {d} < {exp['s']}")
    return header, words, problems


_BUDGET = re.compile(r"node limit reached after (\d+) nodes \(best size found: (\d+)\)")


@_guarded
def check_search_exact(job, outcome):
    exp = job.expect
    if outcome.returncode == 1:
        # an exhausted node budget claims nothing beyond its best size
        m = _BUDGET.search(outcome.stderr)
        if m and int(m.group(2)) <= exp["table"]:
            return []
        return [f"exit 1: {outcome.stderr[:80]!r}"]
    if outcome.returncode != 0:
        return [f"exit {outcome.returncode}"]
    header, words, problems = _code_output(outcome, exp)
    if header["optimal"] and header["size"] != exp["table"]:
        problems.append(f"optimal={header['optimal']} with size {header['size']}, "
                        f"table value {exp['table']}")
    if header["size"] > exp["table"]:
        problems.append(f"size {header['size']} exceeds the table value {exp['table']}")
    return problems


def _all_words(q, r):
    idx = np.arange(q ** r)
    return np.stack([(idx // q ** i) % q for i in range(r)], axis=1)


@_guarded
def check_lexicode(job, outcome):
    exp = job.expect
    if outcome.returncode != 0:
        return [f"exit {outcome.returncode}"]
    header, words, problems = _code_output(outcome, exp)
    # maximal: every word of the space is within distance < s of a codeword
    space = _all_words(exp["q"], exp["r"])
    for start in range(0, len(space), 512):
        block = space[start:start + 512]
        nearest = (block[:, None, :] != words[None, :, :]).sum(axis=2).min(axis=1)
        if (nearest >= exp["s"]).any():
            problems.append("not maximal: a word at distance >= s from the code can be added")
            break
    return problems


# ------------------------------------------------------------- search_rho

def rho_lower(r, n):
    """((8k/27 + 1)^(1/3) - 1) / (2r + k) with k = n - 2r."""
    k = n - 2 * r
    return ((8 * k / 27 + 1) ** (1 / 3) - 1) / (2 * r + k)


@_guarded
def check_rho(job, outcome):
    exp = job.expect
    if outcome.returncode != 0:
        return [f"exit {outcome.returncode}"]
    header, body = _result_header(outcome.stdout)
    v = _vectors(body, exp["r"])
    problems = []
    if v.shape[0] != exp["n"] or header["iterations"] != exp["iterations"]:
        problems.append(f"{v.shape[0]} vectors after {header['iterations']} iterations")
    value = header["achieved_alpha"]
    if value < rho_lower(exp["r"], exp["n"]) - 1e-6:
        problems.append(f"value {value} below the lower bound {rho_lower(exp['r'], exp['n'])}")
    if np.abs((v * v).sum(axis=1) - 1).max() > 1e-9:
        problems.append("witness vectors are not unit")
    gram = v @ v.T
    np.fill_diagonal(gram, -np.inf)
    if abs(gram.max() - value) > 1e-9:
        problems.append(f"value {value} != witness max inner product {gram.max()}")
    return problems


CHECKS = {"certificate": check_certificate, "rejection": check_rejection,
          "qary_file": check_qary_file, "embedding": check_embedding,
          "crosspolytope": check_crosspolytope, "bound_m": check_bound_m,
          "bound_aq": check_bound_aq, "search_exact": check_search_exact,
          "lexicode": check_lexicode, "rho": check_rho}


def check(job, outcome):
    if outcome.crash:
        return [f"raised {outcome.crash}"]
    return CHECKS[job.check](job, outcome)
