import random
from fractions import Fraction

import numpy as np
import pytest

from codebounds.linalg import SymMatrix, rank, trace, trace_of_square, verify_trace_rank

CROSS_POLYTOPE_2_GRAM = SymMatrix([
    [1, -1, 0, 0],
    [-1, 1, 0, 0],
    [0, 0, 1, -1],
    [0, 0, -1, 1],
])


def random_rational_symmetric(rng, n, denom=7):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = Fraction(rng.randint(-20, 20), rng.randint(1, denom))
            rows[i][j] = rows[j][i] = x
    return SymMatrix(rows)


def test_symmetry_is_enforced():
    with pytest.raises(ValueError):
        SymMatrix([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        SymMatrix([[1, 2, 3], [2, 1, 1]])


def test_trace_examples():
    assert trace(SymMatrix.identity(5)) == 5
    assert trace(SymMatrix.filled(2, 1)) == 2
    assert trace(SymMatrix.filled(3, 0)) == 0


def test_trace_of_square_examples():
    assert trace_of_square(SymMatrix.identity(5)) == 5
    assert trace_of_square(SymMatrix.filled(2, 1)) == 4
    # 4 unit diagonal entries plus 4 entries of -1 squared
    assert trace_of_square(CROSS_POLYTOPE_2_GRAM) == 8


def test_trace_of_square_matches_explicit_square():
    rng = random.Random(7)
    for _ in range(20):
        m = random_rational_symmetric(rng, rng.randint(1, 6))
        a = np.array([[float(x) for x in row] for row in m.rows])
        assert float(trace_of_square(m)) == pytest.approx(np.trace(a @ a))


def test_rank_examples():
    assert rank(SymMatrix.identity(5)) == 5
    assert rank(SymMatrix.filled(3, 1)) == 1
    # cross-polytope r=3: six vectors spanning R^3
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = 1
    for i in range(3):
        rows[2 * i][2 * i + 1] = rows[2 * i + 1][2 * i] = -1
    assert rank(SymMatrix(rows)) == 3


def test_rank_exact_equals_float_on_integer_matrices():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(1, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        m = SymMatrix(rows)
        exact = rank(m)
        float_rank = rank(SymMatrix([[float(x) for x in row] for row in rows]))
        assert exact == float_rank
        assert exact == np.linalg.matrix_rank(np.array(rows, dtype=float))


def test_rank_low_rank_rational():
    # outer product of a rational vector with itself has rank 1
    v = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(0)]
    rows = [[a * b for b in v] for a in v]
    assert rank(SymMatrix(rows)) == 1


def test_float_policy_boundaries_rank_and_psd():
    # rank drops a pivot at most 1e-9 times the largest row norm
    assert rank(SymMatrix([[1.0, 0.0], [0.0, 2e-9]])) == 2
    assert rank(SymMatrix([[1.0, 0.0], [0.0, 5e-10]])) == 1


def test_verify_trace_rank_examples():
    for r in (1, 3, 7):
        cert = verify_trace_rank(SymMatrix.identity(r))
        assert cert.verdict
        link = cert.links[0]
        assert link.lhs == r * r and link.rhs == r * r

    cert = verify_trace_rank(SymMatrix.filled(2, 1))
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
