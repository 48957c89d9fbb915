"""The exact integer product a a^T on float64 BLAS: its exactness gate and
size crossover, the rank reduction built on it, and the row blocks of
max_off_diagonal behind min_distance."""

import ast
import random
import tracemalloc
from fractions import Fraction
from itertools import count
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

from codebounds import linalg
from codebounds.codes import QaryCode, UnitVectorSet, certify_chain, gram_analyze, min_distance
from codebounds.constructions import cross_polytope, embed_qary, hadamard_code, sylvester_hadamard
from codebounds.linalg import P, integer_product, integer_rank, max_off_diagonal
from test_acceptance import rational_sphere_point
from test_codes_core import distance_kernel_cases, hamming_distance


@pytest.fixture
def float_calls(monkeypatch):
    """The calls that took the float64 path, as (shape, rows)."""
    calls = []
    real = linalg._float_product

    def spy(a, rows):
        calls.append((a.shape, rows))
        return real(a, rows)

    monkeypatch.setattr(linalg, "_float_product", spy)
    return calls


def reference(a, rows=None):
    obj = np.asarray(a, dtype=object)
    return (obj[:len(obj) if rows is None else rows] @ obj.T).tolist()


def float_rows(cols):
    """Enough rows that an a a^T with ``cols`` columns is large enough for float64."""
    return max(40, isqrt(linalg._FLOAT_MIN_WORK // cols) + 1)


def random_matrix(rng, rows, cols, top):
    """Entries in [-top, top], with the magnitude top reached."""
    a = rng.integers(-top, top, size=(rows, cols), endpoint=True, dtype=np.int64)
    if a.size:
        a[rng.integers(rows), rng.integers(cols)] = rng.choice((-top, top))
    return a


# 2^53 - 1 = 6361 * 69431 * 20394401 is squarefree, so cols * max^2 cannot
# equal it with max > 1: below the bound, max is the largest that fits
@pytest.mark.parametrize("cols", [1, 2, 3, 8, 128, 1000])
def test_below_the_bound_the_product_runs_in_float_and_is_exact(float_calls, cols):
    top = isqrt((2 ** 53 - 1) // cols)
    assert cols * top * top < 2 ** 53 <= cols * (top + 1) ** 2
    rng = np.random.default_rng(cols)
    rows = float_rows(cols)
    a = random_matrix(rng, rows, cols, top)
    a[:3] = top          # rows whose partial sums climb to the bound itself
    a[3, ::2] = -top
    got = integer_product(a)
    assert got.dtype == np.int64 and got.tolist() == reference(a)
    assert got[0, 0] == cols * top * top
    assert float_calls == [(a.shape, rows)]


@pytest.mark.parametrize("cols, top", [(2, 2 ** 26), (8, 2 ** 25), (128, 2 ** 23)])
def test_at_the_bound_the_product_falls_back_to_integers(float_calls, cols, top):
    assert cols * top * top == 2 ** 53
    rng = np.random.default_rng(cols)
    a = random_matrix(rng, float_rows(cols), cols, top)
    a[:3] = top
    got = integer_product(a)
    assert got.dtype == np.int64 and got.tolist() == reference(a)
    assert float_calls == []


def test_the_gate_keeps_sums_that_float64_would_round():
    # (2^26 + 1)^2 + 2^52 = 2^53 + 2^27 + 1 is odd and above 2^53
    a = np.array([[2 ** 26 + 1, 2 ** 26], [2 ** 26 + 1, 2 ** 26]])
    assert int((a.astype(np.float64) @ a.T.astype(np.float64))[0, 0]) != 2 ** 53 + 2 ** 27 + 1
    assert integer_product(a).tolist() == reference(a) == [[2 ** 53 + 2 ** 27 + 1] * 2] * 2


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (1, 1), (12, 6), (5, 300),
                                   (300, 5), (30, 60), (40, 300)])
def test_shapes_and_negative_entries(float_calls, shape):
    rng = np.random.default_rng(sum(shape))
    a = random_matrix(rng, *shape, 1000)
    got = integer_product(a)
    assert got.dtype == np.int64 and got.shape == (shape[0], shape[0])
    assert got.tolist() == reference(a)
    # products below the crossover stay on int64, whatever their bound
    large = shape[0] * shape[0] * shape[1] >= linalg._FLOAT_MIN_WORK
    assert float_calls == ([(shape, shape[0])] if large else [])


def test_leading_rows(float_calls):
    a = random_matrix(np.random.default_rng(5), 200, 40, 50)
    for rows in (0, 1, 5, 100, 200):
        assert integer_product(a, rows).tolist() == reference(a, rows)
    # 0 and 1 rows are below the crossover
    assert [r for _, r in float_calls] == [5, 100, 200]


def test_object_dtype_input(float_calls):
    rng = np.random.default_rng(8)
    large = random_matrix(rng, 40, 30, 1000).astype(object)
    got = integer_product(large)
    assert got.dtype == np.int64 and got.tolist() == reference(large)
    small = np.array([[3, -4, 5], [1, 0, -2]], dtype=object)
    got = integer_product(small)
    assert got.dtype == object and got.tolist() == reference(small)
    big = np.array([[2 ** 70, 1], [-3, 2 ** 64]] * 40, dtype=object)
    got = integer_product(big)
    assert got.dtype == object and got.tolist() == reference(big)
    assert float_calls == [((40, 30), 40)]


def test_panels_and_row_blocks_add_up(monkeypatch, float_calls):
    # tiny panels and tiles: many panels summed, many row tiles cast
    monkeypatch.setattr(linalg, "_PANEL", 3)
    monkeypatch.setattr(linalg, "_TILE", 3)
    monkeypatch.setattr(linalg, "_FLOAT_MIN_WORK", 0)
    rng = np.random.default_rng(11)
    for shape in [(10, 10), (6, 17), (17, 6), (1, 8), (8, 1)]:
        a = random_matrix(rng, *shape, 2 ** 20)
        for rows in {0, 1, shape[0] // 2, shape[0]}:
            assert integer_product(a, rows).tolist() == reference(a, rows)


def fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


@pytest.fixture
def bareiss_calls(monkeypatch):
    calls = []
    real = linalg._rank_bareiss

    def spy(rows):
        calls.append([list(r) for r in rows])
        return real(rows)

    monkeypatch.setattr(linalg, "_rank_bareiss", spy)
    return calls


@pytest.fixture
def mod_p_shapes(monkeypatch):
    """The shapes that _rank_mod_p eliminated."""
    shapes = []
    real = linalg._rank_mod_p

    def spy(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "_rank_mod_p", spy)
    return shapes


def smallest_square_above_the_gate():
    """The side of the smallest square matrix that integer_rank counts mod P."""
    return next(n for n in count(1) if n ** 3 > linalg._BAREISS_MAX_WORK)


def padded(block, k):
    """The block-diagonal integer matrix diag(block, I_k), as rows."""
    width = len(block[0])
    return ([list(row) + [0] * k for row in block]
            + [[0] * width + [int(i == j) for j in range(k)] for i in range(k)])


def test_a_gram_singular_mod_p_sends_f_to_bareiss(bareiss_calls, mod_p_shapes):
    # 38047^2 + 37906^2 + 37557^2 = 2P: F^T F is 0 mod P, yet F has rank 1
    column = [[38047], [37906], [37557]]
    assert sum(x * x for [x] in column) == 2 * P
    n = smallest_square_above_the_gate()
    # padded by I_(n-1), F's Gram diag(2P, 1, ..., 1) is n x n and singular
    # mod P, while F has rank n over Q
    f = padded(column, n - 1)
    assert integer_rank(np.array(f)) == n
    assert bareiss_calls == [[list(c) for c in zip(*f)]]
    # two independent columns whose Gram diag(2P, 2, 1, ..., 1) is singular mod P
    g = padded([[38047, 0], [37906, 0], [37557, 0], [0, 1], [0, 1]], n - 2)
    assert integer_rank(np.array(g)) == n
    assert bareiss_calls[1] == [list(c) for c in zip(*g)]
    # a square diag(P, 1, ..., 1) has rank 1 less mod P than over Q
    d = padded([[P]], n - 1)
    assert integer_rank(np.array(d)) == n
    assert bareiss_calls[2] == d
    assert mod_p_shapes == [(n, n)] * 3


def test_the_rank_reduction_runs_on_float64_when_large(bareiss_calls, float_calls, mod_p_shapes):
    rng = np.random.default_rng(3)
    f = random_matrix(rng, 300, 40, 9)
    assert integer_rank(f) == 40 and integer_rank(f.T) == 40
    assert float_calls == [((40, 300), 40)] * 2
    assert mod_p_shapes == [(40, 40)] * 2 and bareiss_calls == []
    # a Gram whose entries could reach 2^53 is not formed: F goes mod P as it is
    f[0, 0] = 2 ** 25
    assert integer_rank(f) == 40
    assert mod_p_shapes[2:] == [(300, 40)] and len(float_calls) == 2


@pytest.mark.parametrize("seed", range(40))
def test_random_low_rank_matrices_match_a_fraction_reference(bareiss_calls, mod_p_shapes, seed):
    rng = random.Random(seed)
    n, m = rng.randint(1, 14), rng.randint(1, 14)
    k = rng.randint(0, min(n, m))
    left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
    right = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
    f = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(m)] for i in range(n)]
    expected = fraction_rank(f)
    for dtype in (np.int64, object):
        bareiss_calls.clear()
        mod_p_shapes.clear()
        assert integer_rank(np.array(f, dtype=dtype).reshape(n, m)) == expected
        if n * m * min(n, m) <= linalg._BAREISS_MAX_WORK:
            # small enough for Bareiss alone, on the side with fewer rows
            assert len(bareiss_calls) == 1 and mod_p_shapes == []
            assert len(bareiss_calls[0]) == min(n, m)
        elif expected == min(n, m):
            assert bareiss_calls == [] and len(mod_p_shapes) == 1


def ternary_words(rng, r, n):
    """n distinct random ternary words whose embedding has alpha in [0, 1)."""
    while True:
        words = set()
        while len(words) < n:
            words.add(tuple(rng.randrange(3) for _ in range(r)))
        words = tuple(sorted(words))
        if 3 * min_distance(QaryCode(3, r, words)) <= 2 * r:
            return words


def random_configuration(rng):
    """A set of distinct rational unit vectors with max inner product in [0, 1)."""
    while True:
        n, d = rng.randint(2, 12), rng.randint(2, 6)
        points = set()
        while len(points) < n:
            points.add(rational_sphere_point(rng, d))
        vset = UnitVectorSet(d, tuple(sorted(points)))
        if 0 <= gram_analyze(vset).alpha < 1:
            return vset


def chain_cases():
    for t in range(4, 8):
        yield pytest.param(lambda t=t: embed_qary(hadamard_code(sylvester_hadamard(t))).unit_vectors(),
                           id=f"hadamard-{1 << t}")
    for r in range(3, 33):
        yield pytest.param(lambda r=r: cross_polytope(r), id=f"cross-polytope-{r}")
    for seed in range(5):
        yield pytest.param(
            lambda seed=seed: embed_qary(QaryCode(3, 10, ternary_words(random.Random(seed), 10, 60))
                                         ).unit_vectors(), id=f"ternary-{seed}")
    for seed in range(30):
        yield pytest.param(lambda seed=seed: random_configuration(random.Random(seed)),
                           id=f"random-{seed}")


@pytest.mark.parametrize("build", chain_cases())
def test_certificates_match_a_bareiss_rank(monkeypatch, build):
    vset = build()
    certificate = certify_chain(vset).to_dict()
    monkeypatch.setattr(linalg, "integer_rank", lambda a: linalg._rank_bareiss(
        (a if a.shape[0] <= a.shape[1] else a.T).tolist()))
    assert certificate == certify_chain(vset).to_dict()


@pytest.mark.parametrize("tile", [1, 3, 50])
def test_max_off_diagonal_in_row_blocks(monkeypatch, tile):
    # every product on float64, in tiles of `tile` rows (50: one tile)
    monkeypatch.setattr(linalg, "_TILE", tile)
    monkeypatch.setattr(linalg, "_PANEL", 2)
    monkeypatch.setattr(linalg, "_FLOAT_MIN_WORK", 0)
    rng = np.random.default_rng(tile)
    for n, cols in [(2, 1), (2, 5), (3, 4), (9, 7), (20, 3), (31, 12)]:
        a = random_matrix(rng, n, cols, 30)
        g = reference(a)
        expected = max(g[i][j] for i in range(n) for j in range(n) if i != j)
        assert max_off_diagonal(a) == expected
        assert max_off_diagonal(a.astype(object)) == expected
    # a diagonal above every pair, and pairs all below zero
    assert max_off_diagonal(np.array([[5, 0], [-1, 0], [-2, 0]])) == 2
    assert max_off_diagonal(np.array([[1, 0], [-1, 0]])) == -1


def hamming_min(words):
    return min(hamming_distance(words[i], words[j])
               for i in range(len(words)) for j in range(i + 1, len(words)))


def test_min_distance_row_blocks_of_one_row(monkeypatch):
    monkeypatch.setattr(linalg, "_TILE", 1)
    monkeypatch.setattr(linalg, "_PANEL", 2)
    monkeypatch.setattr(linalg, "_FLOAT_MIN_WORK", 0)
    for code in distance_kernel_cases():
        assert min_distance(code) == hamming_min(code.words)


@pytest.mark.parametrize("q", [8, 1000, 2 ** 64, 10 ** 30])
def test_min_distance_takes_alphabets_larger_than_the_code(q):
    code = QaryCode(q, 3, ((0, 5, q - 1), (2, 5, q - 1), (2, 1, 1)))
    assert min_distance(code) == 1


def peak_bytes(f):
    tracemalloc.start()
    try:
        value = f()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_min_distance_memory_grows_with_n_not_n_squared():
    rng = random.Random(2048)
    words = set()
    while len(words) < 2048:
        words.add(tuple(rng.randrange(2) for _ in range(24)))
    code = QaryCode(2, 24, tuple(sorted(words)))
    w = np.array(code.words)
    expected = int(min((w[i + 1:] != w[i]).sum(axis=1).min() for i in range(len(w) - 1)))
    distance, peak = peak_bytes(lambda: min_distance(code))
    assert distance == expected
    assert peak < 2048 * 2048 * 8 / 4


def test_min_distance_memory_on_an_alphabet_larger_than_the_code():
    # q >= n: no table of q symbols per coordinate is built
    n, q, r = 2048, 4096, 16
    rng = random.Random(q)
    words = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    words = sorted(words)
    words[1] = words[0][:-3] + tuple((s + 1) % q for s in words[0][-3:])
    code = QaryCode(q, r, tuple(words))
    distance, peak = peak_bytes(lambda: min_distance(code))
    assert distance == 3    # random words of 16 symbols from 4096 differ almost everywhere
    assert peak < n * n * 8 / 4


@pytest.mark.parametrize("rank", [8, 5])
def test_a_wide_factor_is_counted_mod_p_in_its_tall_orientation(bareiss_calls, mod_p_shapes, rank):
    # 8 x 20 with entries near 2^30: above the Bareiss gate, and its Gram could
    # reach 2^53, so it is counted mod P as it is, transposed to 20 x 8
    rng = random.Random(rank)
    left = [[rng.randint(2 ** 14, 2 ** 15) for _ in range(rank)] for _ in range(8)]
    right = [[rng.randint(2 ** 14, 2 ** 15) for _ in range(20)] for _ in range(rank)]
    f = np.array([[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left])
    assert 8 * 20 * 8 > linalg._BAREISS_MAX_WORK and not linalg._fits(f, 20, 53)
    assert integer_rank(f) == fraction_rank(f.tolist()) == rank
    assert mod_p_shapes == [(20, 8)]
    # a shortfall mod P sends the factor to Bareiss on the side with fewer rows
    assert bareiss_calls == ([] if rank == 8 else [f.tolist()])


@pytest.mark.parametrize("r", [127, 128, 129, 200, 255, 256, 300])
def test_min_distance_of_long_binary_words_in_few_rows(r):
    # few long words take the small integer product, which must not wrap in
    # the +-1 rows' int8: two complements are r apart, a one-bit change 1
    ones, zeros = (1,) * r, (0,) * r
    assert min_distance(QaryCode(2, r, (zeros, ones))) == r
    assert min_distance(QaryCode(2, r, (zeros, ones, zeros[:-1] + (1,)))) == 1
    assert max_off_diagonal(np.array([ones, [-1] * r], dtype=np.int8)) == -r


def test_only_integer_product_calls_the_float64_path():
    # every exact a a^T, the Gram integer_rank reduces to included, goes
    # through integer_product, which alone applies its size crossover
    callers = set()
    for path in Path(linalg.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                callers.update((path.stem, node.name) for call in ast.walk(node)
                               if isinstance(call, ast.Call)
                               and getattr(call.func, "id", None) == "_float_product")
    assert callers == {("linalg", "integer_product")}
