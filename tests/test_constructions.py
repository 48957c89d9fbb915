import random
from fractions import Fraction

import numpy as np
import pytest

from codebounds.codes import QaryCode, certify_chain, gram_analyze, min_distance
from codebounds.constructions import (HadamardMatrix, cross_polytope,
                                      embed_qary, hadamard_code,
                                      pm_one_embedding, simplex_vectors,
                                      sylvester_hadamard)
from codebounds.errors import CodeBoundsError, NotBinary, PreconditionViolated
from codebounds.fileio import certificate_json, serialize_spherical, sha256_hex
from codebounds.linalg import rank
from codebounds.codes import verify_spherical_code
from codebounds.scalars import format_scalar

SYLVESTER_8 = (
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, -1, 1, -1, 1, -1, 1, -1),
    (1, 1, -1, -1, 1, 1, -1, -1),
    (1, -1, -1, 1, 1, -1, -1, 1),
    (1, 1, 1, 1, -1, -1, -1, -1),
    (1, -1, 1, -1, -1, 1, -1, 1),
    (1, 1, -1, -1, -1, -1, 1, 1),
    (1, -1, -1, 1, -1, 1, 1, -1),
)


def np_min_distance(words):
    w = np.array(words)
    best = w.shape[1]
    for i in range(len(words)):
        d = (w[i + 1:] != w[i]).sum(axis=1)
        if len(d):
            best = min(best, int(d.min()))
    return best


def test_simplex_q2():
    s = simplex_vectors(2)
    assert s.dimension == 1
    assert s.vectors == ((1.0,), (-1.0,))
    assert gram_analyze(s).alpha == -1


def test_simplex_q3():
    s = simplex_vectors(3)
    assert s.dimension == 2
    analysis = gram_analyze(s)
    assert analysis.alpha == Fraction(-1, 2)
    coords = np.array(s.vectors)
    assert np.allclose(coords @ coords.T, [[1, -0.5, -0.5], [-0.5, 1, -0.5],
                                           [-0.5, -0.5, 1]], atol=1e-12)


def test_simplex_q5_gram_and_rank():
    s = simplex_vectors(5)
    g = s.exact_gram
    # (5/4) I - (1/4) J on five points
    for i in range(5):
        for j in range(5):
            expected = Fraction(5, 4) * (i == j) - Fraction(1, 4)
            assert g.rows[i][j] == expected
    assert rank(g) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_simplex_float_coords_match_exact_gram(q):
    s = simplex_vectors(q)
    coords = np.array(s.vectors)
    fg = coords @ coords.T
    eg = np.array([[float(x) for x in row] for row in s.exact_gram.rows])
    assert np.abs(fg - eg).max() < 1e-12


def test_cross_polytope_examples():
    v1 = cross_polytope(1)
    assert len(v1) == 2 and gram_analyze(v1).alpha == -1
    v2 = cross_polytope(2)
    assert len(v2) == 4 and gram_analyze(v2).alpha == 0
    v3 = cross_polytope(3)
    analysis = gram_analyze(v3)
    assert all(g == -1 for g in analysis.gamma)
    assert verify_spherical_code(v3, 0).verdict


def test_sylvester_small_orders():
    assert sylvester_hadamard(0).rows == ((1,),)
    assert sylvester_hadamard(1).rows == ((1, 1), (1, -1))
    assert sylvester_hadamard(3).rows == SYLVESTER_8


@pytest.mark.parametrize("t", range(11))
def test_sylvester_orthogonality(t):
    h = sylvester_hadamard(t)   # H H^T = order * I checked on construction
    assert h.order == 1 << t


def test_hadamard_matrix_validation():
    with pytest.raises(CodeBoundsError):
        HadamardMatrix(2, ((1, 1), (1, 1)))
    with pytest.raises(CodeBoundsError):
        HadamardMatrix(2, ((1, 2), (2, -1)))


def test_hadamard_code_order_2():
    code = hadamard_code(sylvester_hadamard(1))
    assert code.words == ((0, 0), (0, 1), (1, 1), (1, 0))
    assert min_distance(code) == 1


def test_hadamard_code_order_4():
    code = hadamard_code(sylvester_hadamard(2))
    assert len(code) == 8
    assert min_distance(code) == 2
    assert code.claimed_distance == 2


def test_hadamard_code_order_8():
    code = hadamard_code(sylvester_hadamard(3))
    assert len(code) == 16
    assert min_distance(code) == 4


@pytest.mark.parametrize("t", range(1, 9))
def test_hadamard_code_family(t):
    code = hadamard_code(sylvester_hadamard(t))
    assert len(code) == 2 ** (t + 1)
    assert np_min_distance(code.words) == 2 ** (t - 1)


def test_hadamard_code_rejects_order_1():
    with pytest.raises(PreconditionViolated):
        hadamard_code(sylvester_hadamard(0))


def test_embed_identity_example():
    code = QaryCode(3, 2, ((0, 0), (0, 1)))
    embedded = embed_qary(code)
    # distance 1: normalized product (2 - 3/2)/2 = 1/4
    assert embedded.exact_gram.rows[0][1] == Fraction(1, 4)
    assert embedded.exact_gram.rows[0][0] == 1
    assert embedded.dimension == 4


def test_embed_hadamard_order_4():
    embedded = embed_qary(hadamard_code(sylvester_hadamard(2)))
    assert embedded.dimension == 4
    assert embedded.alpha() == 0
    vset = embedded.unit_vectors()
    assert len(vset) == 8
    assert verify_spherical_code(vset, 0).verdict
    assert embedded.max_coordinate_deviation() < 1e-9


def random_code(rng, q_max=5, r_max=12, n_max=40):
    q = rng.randint(2, q_max)
    r = rng.randint(1, r_max)
    n = rng.randint(1, n_max)
    seen = set()
    while len(seen) < min(n, q ** r):
        seen.add(tuple(rng.randrange(q) for _ in range(r)))
    return QaryCode(q, r, tuple(sorted(seen)))


def test_embed_random_codes_exact_vs_float():
    rng = random.Random(404)
    for _ in range(30):
        code = random_code(rng)
        embedded = embed_qary(code)
        q, r = code.q, code.r
        for i in range(len(code)):
            for j in range(len(code)):
                d = sum(a != b for a, b in zip(code.words[i], code.words[j]))
                assert embedded.exact_gram.rows[i][j] == 1 - Fraction(q * d, (q - 1) * r)
        assert embedded.max_coordinate_deviation() < 1e-9


def test_embed_alpha_equals_distance_identity():
    rng = random.Random(808)
    for _ in range(20):
        code = random_code(rng, n_max=12)
        if len(code) < 2:
            continue
        embedded = embed_qary(code)
        s = min_distance(code)
        assert embedded.alpha() == 1 - Fraction(code.q * s, (code.q - 1) * code.r)


def test_distance_threshold_iff_product_threshold():
    # distance >= s exactly when normalized product <= 1 - qs/((q-1)r)
    rng = random.Random(55)
    for _ in range(10):
        code = random_code(rng, n_max=10)
        embedded = embed_qary(code)
        q, r = code.q, code.r
        for s in range(1, r + 1):
            cutoff = 1 - Fraction(q * s, (q - 1) * r)
            for i in range(len(code)):
                for j in range(i + 1, len(code)):
                    d = sum(a != b for a, b in zip(code.words[i], code.words[j]))
                    assert (d >= s) == (embedded.exact_gram.rows[i][j] <= cutoff)


def test_min_distance_recoverable_from_embedding_gram():
    # pairwise Hamming min distance equals the one implied by the Gram oracle
    rng = random.Random(6060)
    for _ in range(15):
        code = random_code(rng, n_max=15)
        if len(code) < 2:
            continue
        embedded = embed_qary(code)
        q, r = code.q, code.r
        g = embedded.exact_gram
        implied = min(
            (1 - g.rows[i][j]) * Fraction((q - 1) * r, q)
            for i in range(g.n) for j in range(i + 1, g.n))
        assert implied == min_distance(code)


def test_pm_one_examples():
    two = pm_one_embedding(QaryCode(2, 2, ((0, 0), (1, 1))))
    assert two.exact_gram.rows[0][1] == -1
    four = pm_one_embedding(QaryCode(2, 3, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))))
    for i in range(4):
        for j in range(4):
            if i != j:
                assert four.exact_gram.rows[i][j] == Fraction(-1, 3)
    with pytest.raises(NotBinary):
        pm_one_embedding(QaryCode(3, 2, ((0, 0), (1, 2))))


def test_pm_one_agrees_with_embed_for_binary():
    rng = random.Random(99)
    for _ in range(10):
        code = random_code(rng, q_max=2, r_max=8, n_max=12)
        a = pm_one_embedding(code)
        b = embed_qary(code)
        assert a.exact_gram == b.exact_gram
        assert a.vectors == b.coords
        assert a.labels == b.unit_vectors().labels
        assert a.dimension == b.dimension


def test_constructed_sets_pass_their_advertised_alpha():
    assert verify_spherical_code(cross_polytope(4), 0).verdict
    assert verify_spherical_code(simplex_vectors(4), Fraction(-1, 3)).verdict
    code = hadamard_code(sylvester_hadamard(2))
    assert verify_spherical_code(pm_one_embedding(code), 0).verdict


def seeded_code(seed, q, r, n):
    rng = random.Random(seed)
    words = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    return QaryCode(q, r, tuple(sorted(words)))


# sha256 of the serialized embedding, alpha(), max_coordinate_deviation() and
# the certify_chain JSON; any drift in these outputs changes a digest
EMBEDDING_DIGESTS = {
    "hadamard-8": "cc704376422a01b8f31fcf319b9d0d7566406fc5509fc3c05c0d5077d07e82e8",
    "q2-r10-n24": "391019add55407329ab5ce39845a910f21dd2ddb5621c6db232a53947c240353",
    "q3-r6-n30": "ded76c17ae6c32db6f3724bd0e48b20e898a32da40303d4a047ef603996d25ab",
    "q4-r5-n20": "b2c948f73e25592e7acbef899bb45c09c60883697b94a2ec9829a5ccc12d3638",
    "q5-r4-n15": "22c327080351789e4090fcfb802dd6ddbbe2101ae80735f022959e0f24005f2d",
}
GOLDEN_CODES = {
    "hadamard-8": lambda: hadamard_code(sylvester_hadamard(3)),
    "q2-r10-n24": lambda: seeded_code(1, 2, 10, 24),
    "q3-r6-n30": lambda: seeded_code(2, 3, 6, 30),
    "q4-r5-n20": lambda: seeded_code(3, 4, 5, 20),
    "q5-r4-n15": lambda: seeded_code(4, 5, 4, 15),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CODES))
def test_embedding_outputs_are_byte_stable(name):
    embedded = embed_qary(GOLDEN_CODES[name]())
    vset = embedded.unit_vectors()
    text = "\n".join([serialize_spherical(vset), format_scalar(embedded.alpha()),
                      repr(embedded.max_coordinate_deviation()),
                      certificate_json(certify_chain(vset))])
    assert sha256_hex(text) == EMBEDDING_DIGESTS[name]
