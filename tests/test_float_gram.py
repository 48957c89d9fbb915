"""Float-mode outputs, checked byte for byte, and the numpy float kernels
against the pure-Python loops they replaced, kept here as the reference.

The five verify kinds under ``--float`` on each of golden_inputs.py's float
inputs are transcript cases of test_cli_golden.py, recorded in
``cli_transcripts.json`` and run here input by input.  The float analyses of
the same inputs, and of seeded random sets, are compared entry by entry with
the reference loops (one sum of products per pair, list elimination for the
rank): any change in the value, type or printed form of a float result fails
and names the entry.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from codebounds.codes import (UnitVectorSet, certify_chain, gram_analyze, verify_lemma_beta,
                              verify_spherical_code)
from codebounds.errors import NonUnitVector
from codebounds.fileio import parse_spherical
from codebounds.linalg import FloatGram, rank, sequential_sums, trace, trace_of_square
from codebounds.scalars import REL_EPS, unit_norm_ok

from golden_inputs import FLOAT_INPUTS
from test_cli_golden import FLOAT_KINDS, check_transcript


@pytest.mark.parametrize("name", sorted(FLOAT_INPUTS))
def test_float_cli_outputs_are_byte_stable(capsys, name):
    for kind in FLOAT_KINDS:
        check_transcript(f"verify:{kind}:float:{name}", capsys)


@pytest.mark.parametrize("name", sorted(FLOAT_INPUTS))
def test_float_analysis_values_and_types_are_stable(name):
    vset = parse_spherical(FLOAT_INPUTS[name][0], exact=False)
    rows = ref_gram(vset.vectors)
    analysis = outcome(lambda: gram_analyze(vset))
    if isinstance(analysis, str):
        assert analysis == ref_non_unit(rows)
        return
    # repr tells 0 from 0.0 and -0.0
    for i, (row, ref_row) in enumerate(zip(analysis.gram.rows, rows, strict=True)):
        assert repr(row) == repr(ref_row), f"Gram row {i}"
    alpha, gamma, _ = ref_analysis(rows)
    assert repr(analysis.alpha) == repr(alpha), "alpha"
    for u, (value, ref_value) in enumerate(zip(analysis.gamma, gamma, strict=True)):
        assert repr(value) == repr(ref_value), f"gamma of vector {u}"


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


def ref_non_unit(rows):
    """The NonUnitVector outcome for the first diagonal entry off the sphere."""
    i = next(i for i, row in enumerate(rows) if not unit_norm_ok(row[i]))
    return f"NonUnitVector: {NonUnitVector(i, rows[i][i])}"


def ref_analysis(rows):
    n = len(rows)
    alpha = -1 if n == 1 else max(rows[i][j] for i in range(n) for j in range(n) if i != j)
    nminus = tuple(tuple(v for v in range(n) if v != u and rows[u][v] < 0) for u in range(n))
    gamma = tuple(ref_sum(rows[u][v] for v in nminus[u]) for u in range(n))
    energy = [ref_sum(rows[u][v] * rows[u][v] for v in nminus[u]) for u in range(n)]
    return alpha, gamma, energy


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
        assert analysis == unit_gram == ref_non_unit(rows)
        return
    assert repr(unit_gram.rows) == repr(rows)
    alpha, gamma, energy = ref_analysis(rows)
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
