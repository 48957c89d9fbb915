import random
from fractions import Fraction

import numpy as np
import pytest

from codebounds.codes import UnitVectorSet
from codebounds.constructions import cross_polytope, simplex_vectors
from codebounds.linalg import (FloatGram, IntegerGram, rank, trace, trace_of_square,
                               verify_trace_rank)

# [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 1]]
CROSS_POLYTOPE_2_GRAM = cross_polytope(2).raw_gram()


def identity(n):
    """The n x n identity: the Gram of the standard basis of R^n."""
    return UnitVectorSet(n, [[int(i == j) for j in range(n)] for i in range(n)]).raw_gram()


def constant(x, n):
    """The n x n matrix of x * x: the Gram of n copies of the 1-D vector (x,)."""
    return UnitVectorSet(1, [(x,)] * n).raw_gram()


def random_rational_symmetric(rng, n, denom=7):
    """Random integer numerators in [-20, 20], symmetric, over a random denominator."""
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            num[i][j] = num[j][i] = rng.randint(-20, 20)
    return IntegerGram(np.array(num, dtype=object), rng.randint(1, denom))


def test_trace_examples():
    assert trace(identity(5)) == 5
    assert trace(constant(1, 2)) == 2
    assert trace(constant(0, 3)) == 0


@pytest.mark.parametrize("gram, expected", [
    # given numerators: an int diagonal over den 2 is a Fraction, as every entry is
    (lambda: IntegerGram(np.array([[2, 1], [1, 6]], dtype=object), 2), "Fraction(4, 1)"),
    (lambda: UnitVectorSet(2, ((Fraction(3, 5), Fraction(4, 5)), (1, 0))).raw_gram(),
     "Fraction(2, 1)"),
    (lambda: simplex_vectors(3).raw_gram(), "Fraction(3, 1)"),
    # squared norms 0.05000000000000001, 0.25 and 0.49999999999999994 added in order
    (lambda: UnitVectorSet(2, ((0.1, 0.2), (0.3, 0.4), (0.7, 0.1))).raw_gram(),
     "0.7999999999999999"),
], ids=["given-rows", "rational-file", "code-image", "float-set"])
def test_trace_value_and_type(gram, expected):
    assert repr(trace(gram())) == expected


def test_trace_of_square_examples():
    assert trace_of_square(identity(5)) == 5
    assert trace_of_square(constant(1, 2)) == 4
    # 4 unit diagonal entries plus 4 entries of -1 squared
    assert trace_of_square(CROSS_POLYTOPE_2_GRAM) == 8


def test_trace_of_square_matches_explicit_square():
    rng = random.Random(7)
    for _ in range(20):
        m = random_rational_symmetric(rng, rng.randint(1, 6))
        a = np.array([[float(x) for x in row] for row in m.rows])
        assert float(trace_of_square(m)) == pytest.approx(np.trace(a @ a))


def test_rank_examples():
    assert rank(identity(5)) == 5
    assert rank(constant(1, 3)) == 1
    # cross-polytope r=3: six vectors spanning R^3
    assert rank(cross_polytope(3).raw_gram()) == 3


def test_rank_exact_equals_float_on_integer_matrices():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(1, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        exact = rank(IntegerGram(np.array(rows, dtype=object), 1))
        float_rank = rank(FloatGram(np.array(rows, dtype=np.float64)))
        assert exact == float_rank
        assert exact == np.linalg.matrix_rank(np.array(rows, dtype=float))


def test_rank_low_rank_rational():
    # outer product of a rational vector v with itself, the Gram of the 1-D
    # vectors (x,) for x in v, has rank 1
    v = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(0)]
    assert rank(UnitVectorSet(1, [(x,) for x in v]).raw_gram()) == 1


def test_float_policy_boundaries_rank_and_psd():
    # rank drops a pivot at most 1e-9 times the largest row norm
    assert rank(FloatGram(np.array([[1.0, 0.0], [0.0, 2e-9]]))) == 2
    assert rank(FloatGram(np.array([[1.0, 0.0], [0.0, 5e-10]]))) == 1


def test_verify_trace_rank_examples():
    for r in (1, 3, 7):
        cert = verify_trace_rank(identity(r))
        assert cert.verdict
        link = cert.links[0]
        assert link.lhs == r * r and link.rhs == r * r

    cert = verify_trace_rank(constant(1, 2))
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


def test_empty_matrix_has_rank_zero():
    g = IntegerGram(np.empty((0, 0), dtype=object), 1)
    assert isinstance(g, IntegerGram) and g.n == 0
    assert rank(g) == 0 and trace(g) == 0 and trace_of_square(g) == 0
    assert verify_trace_rank(g).verdict


@pytest.mark.parametrize("gram_type, extra", [(IntegerGram, {"factor"}), (FloatGram, set())],
                         ids=["integer", "float"])
def test_gram_types_answer_only_their_documented_members(gram_type, extra):
    # a Gram records no mode: a caller that needs it asks the vector set
    members = {name for name in dir(gram_type) if not name.startswith("_")}
    assert members == {"num", "den", "n", "value", "sums", "rows"} | extra
