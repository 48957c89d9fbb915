import random
from fractions import Fraction

import numpy as np
import pytest

from codebounds.linalg import (FloatGram, IntegerGram, gram_from_rows, rank, trace,
                               trace_of_square, verify_trace_rank)

CROSS_POLYTOPE_2_GRAM = gram_from_rows([
    [1, -1, 0, 0],
    [-1, 1, 0, 0],
    [0, 0, 1, -1],
    [0, 0, -1, 1],
])


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_rational_symmetric(rng, n, denom=7):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = Fraction(rng.randint(-20, 20), rng.randint(1, denom))
            rows[i][j] = rows[j][i] = x
    return gram_from_rows(rows)


def test_symmetry_is_enforced():
    with pytest.raises(ValueError):
        gram_from_rows([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        gram_from_rows([[1, 2, 3], [2, 1, 1]])


def test_trace_examples():
    assert trace(gram_from_rows(identity_rows(5))) == 5
    assert trace(gram_from_rows([[1, 1], [1, 1]])) == 2
    assert trace(gram_from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == 0


def test_trace_of_square_examples():
    assert trace_of_square(gram_from_rows(identity_rows(5))) == 5
    assert trace_of_square(gram_from_rows([[1, 1], [1, 1]])) == 4
    # 4 unit diagonal entries plus 4 entries of -1 squared
    assert trace_of_square(CROSS_POLYTOPE_2_GRAM) == 8


def test_trace_of_square_matches_explicit_square():
    rng = random.Random(7)
    for _ in range(20):
        m = random_rational_symmetric(rng, rng.randint(1, 6))
        a = np.array([[float(x) for x in row] for row in m.rows])
        assert float(trace_of_square(m)) == pytest.approx(np.trace(a @ a))


def test_rank_examples():
    assert rank(gram_from_rows(identity_rows(5))) == 5
    assert rank(gram_from_rows([[1, 1, 1], [1, 1, 1], [1, 1, 1]])) == 1
    # cross-polytope r=3: six vectors spanning R^3
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = 1
    for i in range(3):
        rows[2 * i][2 * i + 1] = rows[2 * i + 1][2 * i] = -1
    assert rank(gram_from_rows(rows)) == 3


def test_rank_exact_equals_float_on_integer_matrices():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(1, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        m = gram_from_rows(rows)
        exact = rank(m)
        float_rank = rank(gram_from_rows([[float(x) for x in row] for row in rows]))
        assert exact == float_rank
        assert exact == np.linalg.matrix_rank(np.array(rows, dtype=float))


def test_rank_low_rank_rational():
    # outer product of a rational vector with itself has rank 1
    v = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(0)]
    rows = [[a * b for b in v] for a in v]
    assert rank(gram_from_rows(rows)) == 1


def test_float_policy_boundaries_rank_and_psd():
    # rank drops a pivot at most 1e-9 times the largest row norm
    assert rank(gram_from_rows([[1.0, 0.0], [0.0, 2e-9]])) == 2
    assert rank(gram_from_rows([[1.0, 0.0], [0.0, 5e-10]])) == 1


def test_verify_trace_rank_examples():
    for r in (1, 3, 7):
        cert = verify_trace_rank(gram_from_rows(identity_rows(r)))
        assert cert.verdict
        link = cert.links[0]
        assert link.lhs == r * r and link.rhs == r * r

    cert = verify_trace_rank(gram_from_rows([[1, 1], [1, 1]]))
    assert cert.verdict
    assert cert.links[0].lhs == 4 and cert.links[0].rhs == 4
    assert cert.meta["rank"] == 1

    cert = verify_trace_rank(CROSS_POLYTOPE_2_GRAM)
    assert cert.verdict
    assert cert.links[0].lhs == 16 and cert.links[0].rhs == 16


def test_verify_trace_rank_property():
    rng = random.Random(2024)
    for _ in range(120):
        m = random_rational_symmetric(rng, rng.randint(1, 12))
        cert = verify_trace_rank(m)
        assert cert.verdict, f"trace-rank failed on {m.rows}"
        assert cert.mode == "exact"


def test_gram_from_rows_keeps_exact_entries():
    half = Fraction(1, 2)
    rows = [[1, half, 0], [half, Fraction(3, 4), -2], [0, -2, 5]]
    g = gram_from_rows(rows)
    assert isinstance(g, IntegerGram)
    assert g.rows == rows
    assert all(got is given for out, row in zip(g.rows, rows) for got, given in zip(out, row))
    assert g.den == 4 and g.num.tolist() == [[4, 2, 0], [2, 3, -8], [0, -8, 20]]


@pytest.mark.parametrize("rows", [
    [[1.0, 0], [0, 1]],
    [[1, Fraction(1, 3)], [Fraction(1, 3), 0.5]],
    [[Fraction(2, 3), 0.25, 1], [0.25, 3, Fraction(-1, 7)], [1, Fraction(-1, 7), -0.0]],
], ids=["float-int", "int-fraction-float", "mixed-negative-zero"])
def test_gram_from_rows_with_a_float_entry_is_a_float_gram(rows):
    g = gram_from_rows(rows)
    assert isinstance(g, FloatGram) and g.a.dtype == np.float64
    # float(x) for every entry, bit for bit (-0.0 included)
    assert repr(g.rows) == repr([[float(x) for x in row] for row in rows])


def test_gram_from_rows_error_texts():
    with pytest.raises(ValueError, match=r"^row 1 has length 3, expected 2$"):
        gram_from_rows([[1, 2], [2, 1, 0]])
    with pytest.raises(ValueError, match=r"^asymmetric entries at \(0,2\)$"):
        gram_from_rows([[1, 0, 2], [0, 1, 0], [3, 0, 1]])


def test_empty_matrix_has_rank_zero():
    g = gram_from_rows([])
    assert isinstance(g, IntegerGram) and g.n == 0
    assert rank(g) == 0 and trace(g) == 0 and trace_of_square(g) == 0
    assert verify_trace_rank(g).verdict
