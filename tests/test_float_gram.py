"""Float-mode certificates, pinned byte for byte, and the numpy float
kernels against the pure-Python loops they replaced, kept here as the
reference.

The golden digests were recorded with the pure-Python float pipeline (one
sum of products per pair, list elimination for the rank); any change in the
value, type or printed form of a float-mode result changes a digest.  The
optimizer witnesses among the inputs are pinned themselves in test_search.py
(a BLAS that rounds its products differently changes both).
"""

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from codebounds.cli import main
from codebounds.codes import (UnitVectorSet, certify_chain, gram_analyze, verify_lemma_beta,
                              verify_spherical_code)
from codebounds.constructions import embed_qary, hadamard_code, sylvester_hadamard
from codebounds.errors import NonUnitVector
from codebounds.fileio import parse_spherical, serialize_spherical
from codebounds.linalg import FloatGram, rank, sequential_sums, trace, trace_of_square
from codebounds.scalars import REL_EPS, format_scalar, unit_norm_ok
from codebounds.search import heuristic_rho

# ------------------------------------------------------------- the inputs


def float_sphere(seed):
    """Sphere file text of normalized Gaussian vectors; by seed % 4 the set is
    plain, holds +-0.0 coordinates, repeats a vector, or has one off the sphere."""
    rng = random.Random(seed)
    kind = seed % 4
    d, n = rng.randint(1, 8), rng.randint(1, 24)
    vectors = []
    for _ in range(n):
        v = [rng.gauss(0, 1) for _ in range(d)]
        if kind == 1 and d > 1:
            for k in rng.sample(range(d), rng.randint(1, d - 1)):
                v[k] = rng.choice((0.0, -0.0))
        norm = math.sqrt(math.fsum(x * x for x in v))    # the same on every Python
        vectors.append([x / norm for x in v])
    if kind == 2:
        vectors.append(list(vectors[rng.randrange(n)]))
    if kind == 3:
        vectors[rng.randrange(n)] = [1.5 * x for x in vectors[0]]
    return serialize_spherical(UnitVectorSet(d, tuple(map(tuple, vectors)))), "1/2"


def rho_witness(r, n, iterations, seed):
    result = heuristic_rho(r, n, iterations=iterations, seed=seed)
    return serialize_spherical(result.witness), format_scalar(result.value)


def hadamard_embedding(t):
    vset = embed_qary(hadamard_code(sylvester_hadamard(t))).unit_vectors()
    return serialize_spherical(vset), "0"


CASES = {f"sphere-{seed}": (float_sphere, seed) for seed in range(12)}
CASES.update({f"rho-r{r}-n{n}-seed{seed}": (rho_witness, r, n, it, seed)
              for r, n, it, seed in ((2, 5, 300, 1), (3, 7, 300, 2), (3, 4, 200, 0),
                                     (5, 12, 200, 3), (6, 18, 100, 4))})
CASES.update({f"hadamard-{1 << t}": (hadamard_embedding, t) for t in (4, 5)})


def case_text(name):
    make, *args = CASES[name]
    return make(*args)


KINDS = ("chain", "beta", "gamma", "trace-rank", "spherical")


def cli_outputs(tmp_path, capsys, name):
    """repr of (exit code, stdout, stderr) of every verify kind under --float."""
    text, claim = case_text(name)
    path = tmp_path / "case.sphere"
    path.write_text(text)
    outputs = []
    for kind in KINDS:
        extra = ["--alpha", claim] if kind == "spherical" else []
        code = main(["verify", kind, "--in", str(path), "--float", *extra])
        captured = capsys.readouterr()
        outputs.append((kind, code, captured.out, captured.err))
    return repr(outputs)


def analysis_outputs(name):
    """repr of the float Gram's rows, gram_analyze's alpha, the sign lists of
    the rows by ref_analysis's rule and gamma (repr tells 0 from 0.0), or of
    the NonUnitVector it raises."""
    vset = parse_spherical(case_text(name)[0], exact=False)
    try:
        a = gram_analyze(vset)
    except NonUnitVector as exc:
        return f"NonUnitVector: {exc}"
    rows = a.gram.rows
    _, nplus, nminus, _, _ = ref_analysis(rows)
    return repr((rows, a.alpha, nplus, nminus, a.gamma))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------- the digests

# sha256 of cli_outputs and of analysis_outputs per case
CLI_DIGESTS = {
    "hadamard-16": "e2256b05a3ba82b3df878744d5e5bc785788d243f047a5dfe9162c052868ed1a",
    "hadamard-32": "3ff9a2abdb891a92aa2ea25e1c7d592458b6c35ea100b44eb7f581510ad0b36d",
    "rho-r2-n5-seed1": "8b140eb44bb9f55ab405d511256d78ff6691fcb99c38c8f884028ae9a8275206",
    "rho-r3-n4-seed0": "f9d31ad7d02ebe4193da17f5c7e612aadacdeff5f525212692b2d5a847e76288",
    "rho-r3-n7-seed2": "f1158ccbed7dfe9f90a0fd12b51f00896bb86796079b4afa7d0943b11cc7bc9c",
    "rho-r5-n12-seed3": "b086e160103a27a69947298670ce9b62d89a759141123762899f58b4dd1e3a98",
    "rho-r6-n18-seed4": "63649372c7274662687ccdf7018ef20d27d07bd00bf92851a809a1154337b973",
    "sphere-0": "1294e42874f34aaefa9b99cf1865e20d24892b76acdfb547bd84a299cb46a454",
    "sphere-1": "d43acb4ea87444920780139c8b15aa6133d6a8a8de8048195b2bd3bd47a6459c",
    "sphere-10": "364c8bc46f16b9c19fbbf3f345ea39f970c5e86a67bedc66b103ee28c1b57b5f",
    "sphere-11": "c7c50c9cffec16dbacfdadf33190686c8ddf4f4c31780fdafb01ae2998ca0afa",
    "sphere-2": "10a021df8eddaaf9ebcdae91334a1e549581ee0bbb399eac8217a60d6dba76a4",
    "sphere-3": "2f17de88c417d0d12422bfbd5dfd797b079aae319fdd87363d441af490717aa0",
    "sphere-4": "ebb7ddd81274fc146badd0eef30ae451a2edec37b5d95700062cb89a7a334601",
    "sphere-5": "a9b8bc7689871c0128bbfc251f74433ab79518e09518b5797f85de7731e0e570",
    "sphere-6": "caa5131e669e684f5d85f30ac913b0decb0e3e87ee129b4f33e474920f755d48",
    "sphere-7": "3411f7509ae1aa984fed631f5000618a6a24f58ca0c44323b5a87d4b2e6934fd",
    "sphere-8": "146184c169f777d0502c6c47d8bea9ada3d9ceedfde028c201810c41b347e168",
    "sphere-9": "5dcc0bfad6d3c590599cf6a7b3cf7ad84d9bd0c30f85afe6829d62148006b617",
}
ANALYSIS_DIGESTS = {
    "hadamard-16": "f2ff3cf49317270a300da65a1a109899cd95fbc7f007e8effeb4dcb481885081",
    "hadamard-32": "097558e833c4bd3e4b1a6dda75d23a634099d5b5ab6adcf2903c0e1cefe9ba62",
    "rho-r2-n5-seed1": "c4edffeb04faf3613b1cdf7c273108d197d8cf80c667729a4da0d1636d55dd5c",
    "rho-r3-n4-seed0": "fdcbba4b29a3db07fc4b02ca1ff62177cd5eb768ee8499343d1362aec5880564",
    "rho-r3-n7-seed2": "2d6aaae15b57b5990f54771ec4c3256444c6035484ee323e676a82f0428b685b",
    "rho-r5-n12-seed3": "a6ff92b9c021cbad17654d5df9bb7e71304fb22fc4dc8b1724a48d9a1c100658",
    "rho-r6-n18-seed4": "cf824bc928341998e8d097950d48783a9631c8f165410eeba3f6a876d491389b",
    "sphere-0": "89ed98451be593bbdb2cc7356bc803641b76b2eb035aca863719c371895e97fd",
    "sphere-1": "404a642decc648b4e7115ca6ab13a42b3c668872e35a04cc6fbb96c7001365c2",
    "sphere-10": "6ce520ac7f317d1605c13b74f3c45a140bf1547774add0f8f16b35f02bea6f37",
    "sphere-11": "e2898ed05c3697402f05fb77999dd8a01758996809a40ca2eba00ebe80f9fb07",
    "sphere-2": "3ac82e8a578f20d8736ee23403e9d3d8380c2edafdf22866faa67b90a3b9395e",
    "sphere-3": "f77481e9f5f34f1f4a963f12ecf39fee785dd2e6745a6a056a2060f6beb3b7f0",
    "sphere-4": "8263a6fd3f9ea351099e42caad2874266ae0eff8aef6a285f3bd9afc262b1039",
    "sphere-5": "01f2e3bab9f914df58754555e33227b737aac694d4c8c98c0667df429bc90871",
    "sphere-6": "ded76629f76a50e9e9ecabe3f9fbaaa4c4d79b33dca1c834e8228749202cb6a2",
    "sphere-7": "dc076c65158a21048487ae28d600ba7d13ee41160be8eefde13e10e58742f1c3",
    "sphere-8": "48a1ffcee2c223cba84ebf8d339facc6ceb694dd0443ae49fa4d505ad5c2e012",
    "sphere-9": "7591fa4fb8d47990f52638f8494ff601de742e5832859f1e1f437211fa3869f1",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_float_cli_outputs_are_byte_stable(tmp_path, capsys, name):
    assert digest(cli_outputs(tmp_path, capsys, name)) == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_float_analysis_values_and_types_are_stable(name):
    assert digest(analysis_outputs(name)) == ANALYSIS_DIGESTS[name]


# ----------------------------------------------------------- the reference


def ref_gram(vectors):
    """Each entry summed left to right from 0 over products of float coordinates."""
    floats = [[float(x) for x in v] for v in vectors]
    n = len(floats)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = 0
            for a, b in zip(floats[i], floats[j]):
                s += a * b
            rows[i][j] = rows[j][i] = s
    return rows


def ref_rank(rows):
    a = [[float(x) for x in row] for row in rows]
    nr = len(a)
    nc = nr and len(a[0])
    max_row_norm = 0.0
    for row in a:
        s = 0
        for x in row:
            s += x * x
        max_row_norm = max(max_row_norm, math.sqrt(s))
    threshold = REL_EPS * max_row_norm
    rank_count = 0
    for col in range(nc):
        pivot_row = max(range(rank_count, nr), key=lambda i: abs(a[i][col]))
        if abs(a[pivot_row][col]) <= threshold:
            continue
        a[rank_count], a[pivot_row] = a[pivot_row], a[rank_count]
        piv = a[rank_count][col]
        for i in range(rank_count + 1, nr):
            f = a[i][col] / piv
            if f == 0.0:
                continue
            for j in range(col, nc):
                a[i][j] -= f * a[rank_count][j]
        rank_count += 1
        if rank_count == nr:
            break
    return rank_count


def ref_sum(values):
    s = 0
    for x in values:
        s += x
    return s


def ref_analysis(rows):
    n = len(rows)
    alpha = -1 if n == 1 else max(rows[i][j] for i in range(n) for j in range(n) if i != j)
    nplus = tuple(tuple(v for v in range(n) if v != u and rows[u][v] >= 0) for u in range(n))
    nminus = tuple(tuple(v for v in range(n) if v != u and rows[u][v] < 0) for u in range(n))
    gamma = tuple(ref_sum(rows[u][v] for v in nminus[u]) for u in range(n))
    energy = [ref_sum(rows[u][v] * rows[u][v] for v in nminus[u]) for u in range(n)]
    return alpha, nplus, nminus, gamma, energy


# ------------------------------------------------------------- the inputs


def coordinate(rng):
    return rng.choice((rng.gauss(0, 1), rng.gauss(0, 1), 0.0, -0.0,
                       rng.gauss(0, 1) * 1e-160, float(rng.randint(-3, 3))))


def random_case(rng):
    """Unit vectors, or raw ones: rank-deficient, zero or +-0.0 rows, n = 1,
    n < d and n > d, and now and then an exact coordinate among the floats."""
    d = rng.randint(1, 9)
    n = 1 if rng.random() < 0.1 else rng.choice((rng.randint(2, d + 1),
                                                 rng.randint(d + 1, 3 * d + 2)))
    unit = rng.random() < 0.8
    vectors = []
    for _ in range(n):
        if vectors and rng.random() < 0.1:       # a repeat or a negated repeat
            v = [rng.choice((1.0, -1.0)) * x for x in rng.choice(vectors)]
        elif rng.random() < 0.05:
            v = [rng.choice((0.0, -0.0)) for _ in range(d)]
        else:
            v = [coordinate(rng) for _ in range(d)]
            norm = math.sqrt(ref_sum(x * x for x in v))
            if unit and norm > 0:
                v = [x / norm for x in v]
        vectors.append(v)
    vectors[0][0] = float(vectors[0][0])        # at least one float: float mode
    i, k = rng.randrange(n), rng.randrange(d)
    if (i, k) != (0, 0) and rng.random() < 0.2:
        vectors[i][k] = rng.choice((1, -1, 0, Fraction(rng.randint(-5, 5), rng.randint(1, 7))))
    return UnitVectorSet(d, tuple(map(tuple, vectors)))


def outcome(fn):
    try:
        return fn()
    except NonUnitVector as exc:
        return f"NonUnitVector: {exc}"


@pytest.mark.parametrize("seed", range(300))
def test_float_kernels_match_the_python_loops(seed):
    vset = random_case(random.Random(seed))
    rows = ref_gram(vset.vectors)
    gram = vset.raw_gram()
    assert repr(gram.rows) == repr(rows)
    assert rank(gram) == ref_rank(rows)
    assert repr(trace_of_square(gram)) == repr(ref_sum(x * x for row in rows for x in row))
    assert repr(trace(gram)) == repr(ref_sum(rows[i][i] for i in range(len(rows))))
    analysis = outcome(lambda: gram_analyze(vset))
    unit_gram = outcome(lambda: vset._gram(unit=True))
    if isinstance(analysis, str):
        i = next(i for i, row in enumerate(rows) if not unit_norm_ok(row[i]))
        assert analysis == unit_gram == f"NonUnitVector: {NonUnitVector(i, rows[i][i])}"
        return
    assert repr(unit_gram.rows) == repr(rows)
    alpha, _, _, gamma, energy = ref_analysis(rows)
    assert repr((analysis.alpha, analysis.gamma)) == repr((alpha, gamma))
    if 0 <= alpha < 1:
        assert repr([link.lhs for link in verify_lemma_beta(analysis).links]) == repr(energy)


def test_float_rank_matches_the_python_loop_on_matrices():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        d = rng.randint(1, n)
        basis = [[rng.choice((rng.gauss(0, 1), 0.0, -0.0, 1e-12)) for _ in range(n)]
                 for _ in range(d)]
        rows = [[ref_sum(basis[k][i] * basis[k][j] for k in range(d)) for j in range(n)]
                for i in range(n)]
        assert rank(FloatGram(np.array(rows))) == ref_rank(rows)


def test_sequential_sums_add_left_to_right_from_zero():
    rng = random.Random(11)
    for _ in range(300):
        width = rng.randint(0, 12)
        row = [rng.choice((-0.0, 0.0, 1e308, -1e308, rng.gauss(0, 1), rng.gauss(0, 1) * 1e-17))
               for _ in range(width)]
        if rng.random() < 0.2:
            row = [-0.0] * width
        assert repr(float(sequential_sums(np.array(row)))) == repr(float(ref_sum(row)))


def test_float_mode_converts_exact_coordinates_before_any_product():
    # the exact pair (1, 0, 0), (1/3, 2/3, 2/3) has inner product 1/3; in a
    # float-mode set it is the float sum of float(x) * float(y)
    vset = UnitVectorSet(3, ((1, 0, 0), (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
                             (0.0, -1.0, 0.0)))
    assert vset.mode() == "float"
    assert all(type(x) is float for row in vset.raw_gram().rows for x in row)
    analysis = gram_analyze(vset)
    assert type(analysis.alpha) is float and analysis.alpha == float(Fraction(1, 3))
    cert = certify_chain(vset)
    assert cert.mode == "float" and cert.meta["alpha"] == "0.3333333333333333"
    assert {link.mode for link in verify_spherical_code(vset, Fraction(1, 2)).links} == {"float"}


def test_float_kernels_restore_the_callers_error_settings():
    # trace_of_square calls sequential_sums: both kernels silence overflow,
    # and the outer one must hand back the settings it found
    big = FloatGram(np.array([[1e200, 1e200], [1e200, 1e200]]))
    with np.errstate(over="raise", invalid="raise"):
        before = np.geterr()
        assert trace_of_square(big) == math.inf
        assert np.geterr() == before
        with pytest.raises(FloatingPointError):
            np.array([1e308]) * 10
