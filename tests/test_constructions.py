import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from codebounds import codes, constructions, linalg
from codebounds.codes import (MAX_IMAGE_ALPHABET, QaryCode, certify_chain, code_image,
                              gram_analyze, min_distance)
from codebounds.constructions import (HadamardMatrix, cross_polytope,
                                      embed_qary, hadamard_code, simplex_vectors,
                                      sylvester_hadamard)
from codebounds.errors import CodeBoundsError, PreconditionViolated
from codebounds.fileio import parse_spherical, record_json, serialize_qary, serialize_spherical
from codebounds.linalg import rank
from codebounds.codes import verify_spherical_code

from golden_inputs import EMBEDDED_CODES, EMBEDDINGS_FILE, embedding_record, seeded_code

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
    g = s.raw_gram()
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
    eg = np.array([[float(x) for x in row] for row in s.raw_gram().rows])
    assert np.abs(fg - eg).max() < 1e-12


def _vertex_by_vertex_simplex(q):
    """The simplex table as it was once built, one vertex at a time: each
    entry forward-substitutes its product against every earlier vertex."""
    d = q - 1
    target = -1.0 / (q - 1)
    coords = np.zeros((q, d))
    coords[0, 0] = 1.0
    for i in range(1, q):
        for j in range(i):
            known = coords[i, :j] @ coords[j, :j]
            coords[i, j] = (target - known) / coords[j, j]
        if i < d:
            rem = 1.0 - coords[i, :i] @ coords[i, :i]
            coords[i, i] = math.sqrt(max(rem, 0.0))
    return coords


def test_simplex_table_is_the_vertex_by_vertex_table_bit_for_bit():
    # every vertex after the j-th holds the same entry in column j, so one
    # step per column takes dots of the very values the nested loop takes
    for q in [*range(2, 65), 128, 256]:
        table = codes._simplex_table(q)
        reference = _vertex_by_vertex_simplex(q)
        assert table.dtype == reference.dtype and table.shape == reference.shape
        assert np.array_equal(table.view(np.int64), reference.view(np.int64)), q


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


def test_simplex_at_the_alphabet_cap_builds():
    s = simplex_vectors(MAX_IMAGE_ALPHABET)
    assert (len(s), s.dimension) == (1024, 1023)
    assert gram_analyze(s).alpha == Fraction(-1, 1023)


@pytest.mark.parametrize("q", [1025, 10 ** 5, 2 ** 70])
def test_code_image_rejects_alphabets_above_the_cap(monkeypatch, q):
    # refused before the simplex table (at q = 10^5 it would need 74.5 GiB),
    # and by simplex_vectors before its q words
    def nothing_built(*args, **kwargs):
        raise AssertionError("built above the cap")

    message = rf"^alphabet size {q} exceeds MAX_IMAGE_ALPHABET = 1024$"
    code = QaryCode(q, 2, ((0, 0), (1, 1)))
    monkeypatch.setattr(codes, "_simplex_table", nothing_built)
    monkeypatch.setattr(constructions, "QaryCode", nothing_built)
    with pytest.raises(PreconditionViolated, match=message):
        embed_qary(code)
    with pytest.raises(PreconditionViolated, match=message):
        simplex_vectors(q)


@pytest.mark.parametrize("t", [12, 64])
def test_sylvester_rejects_orders_above_the_cap(monkeypatch, t):
    # refused before the doubling starts: order 2^64 would need exabytes
    def no_doubling(*args, **kwargs):
        raise AssertionError("doubling started above the cap")

    monkeypatch.setattr(np, "block", no_doubling)
    with pytest.raises(PreconditionViolated,
                       match=rf"^order 2\^{t} exceeds MAX_HADAMARD_ORDER = 2048$"):
        sylvester_hadamard(t)


def test_hadamard_matrix_validation():
    with pytest.raises(CodeBoundsError):
        HadamardMatrix(2, ((1, 1), (1, 1)))
    with pytest.raises(CodeBoundsError):
        HadamardMatrix(2, ((1, 2), (2, -1)))


@pytest.mark.parametrize("order, rows, message", [
    (2, ((1, 2), (2, -1)), "entries must be +1 or -1"),
    (2, ((1, 1), (1, 0)), "entries must be +1 or -1"),
    (3, ((1, 1, 1), (1, -1, 1), (1, 1, 0)), "entries must be +1 or -1"),
    (2, ((1, 1), (1, 1)), "H H^T != order * I"),
    (2, ((1, 1),), "expected a 2x2 matrix"),
])
def test_hadamard_matrix_error_texts(order, rows, message):
    with pytest.raises(CodeBoundsError, match=f"^{re.escape(message)}$"):
        HadamardMatrix(order, rows)


def test_hadamard_matrix_entries_become_ints():
    h = HadamardMatrix(2, ((1.0, 1), (1, -1.0)))
    assert h.rows == ((1, 1), (1, -1))
    assert all(type(x) is int for row in h.rows for x in row)


@pytest.mark.parametrize("rows", [
    ((1.7, 1), (1, -1.2)),
    ((1, 1), (1, -0.5)),
    np.array([[1.0, 1.0], [1.0, -1.000001]]),
    (("1", "1"), ("1", "-1")),
])
def test_hadamard_matrix_rejects_non_integral_entries(rows):
    # the +-1 check reads the entries as given: 1.7 is not read as 1
    with pytest.raises(CodeBoundsError, match=r"^entries must be \+1 or -1$"):
        HadamardMatrix(2, rows)


def test_hadamard_code_order_2():
    code = hadamard_code(sylvester_hadamard(1))
    assert code.words == ((0, 0), (0, 1), (1, 1), (1, 0))
    assert min_distance(code) == 1


def test_hadamard_code_order_4():
    code = hadamard_code(sylvester_hadamard(2))
    assert len(code) == 8
    assert min_distance(code) == 2


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
    rows = embedded.unit_vectors().raw_gram().rows
    assert rows[0][1] == Fraction(1, 4)
    assert rows[0][0] == 1
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
        rows = embedded.unit_vectors().raw_gram().rows
        q, r = code.q, code.r
        for i in range(len(code)):
            for j in range(len(code)):
                d = sum(a != b for a, b in zip(code.words[i], code.words[j]))
                assert rows[i][j] == 1 - Fraction(q * d, (q - 1) * r)
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
        rows = embed_qary(code).unit_vectors().raw_gram().rows
        q, r = code.q, code.r
        for s in range(1, r + 1):
            cutoff = 1 - Fraction(q * s, (q - 1) * r)
            for i in range(len(code)):
                for j in range(i + 1, len(code)):
                    d = sum(a != b for a, b in zip(code.words[i], code.words[j]))
                    assert (d >= s) == (rows[i][j] <= cutoff)


def test_min_distance_recoverable_from_embedding_gram():
    # pairwise Hamming min distance equals the one implied by the Gram oracle
    rng = random.Random(6060)
    for _ in range(15):
        code = random_code(rng, n_max=15)
        if len(code) < 2:
            continue
        q, r = code.q, code.r
        g = embed_qary(code).unit_vectors().raw_gram()
        implied = min(
            (1 - g.rows[i][j]) * Fraction((q - 1) * r, q)
            for i in range(g.n) for j in range(i + 1, g.n))
        assert implied == min_distance(code)


def test_pm_one_examples():
    # the binary code image is the +-1 embedding: inner product 1 - 2d/r
    two = code_image(QaryCode(2, 2, ((0, 0), (1, 1))))
    assert two.raw_gram().rows[0][1] == -1
    four = code_image(QaryCode(2, 3, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))))
    rows = four.raw_gram().rows
    for i in range(4):
        for j in range(4):
            if i != j:
                assert rows[i][j] == Fraction(-1, 3)


def test_constructed_sets_pass_their_advertised_alpha():
    assert verify_spherical_code(cross_polytope(4), 0).verdict
    assert verify_spherical_code(simplex_vectors(4), Fraction(-1, 3)).verdict
    code = hadamard_code(sylvester_hadamard(2))
    assert verify_spherical_code(code_image(code), 0).verdict


def _triangle_deviation(embedded):
    """The largest entry of the upper triangle, diagonal included, of
    |m m^T - G|: max_coordinate_deviation as it once read the matrix."""
    m = embedded.unit_vectors().coords
    dev = m @ m.T
    g = embedded.unit_vectors().raw_gram()
    dev -= g.num / g.den
    return float(np.triu(np.abs(dev, out=dev)).max(initial=0.0))


DEVIATION_CODES = {
    **{f"hadamard-{1 << t}": (lambda t=t: hadamard_code(sylvester_hadamard(t)))
       for t in range(1, 10)},
    **{f"q{q}-r{r}-n{n}": (lambda q=q, r=r, n=n: seeded_code(q, q, r, n))
       for q, r, n in [(3, 6, 200), (4, 5, 150), (5, 4, 120), (6, 4, 100), (7, 3, 80)]},
}


@pytest.mark.parametrize("name", list(DEVIATION_CODES))
def test_max_coordinate_deviation_is_the_triangle_maximum_bit_for_bit(name):
    # m @ m.T is exactly symmetric, so the whole matrix's maximum is the
    # upper triangle's
    embedded = embed_qary(DEVIATION_CODES[name]())
    m = embedded.unit_vectors().coords
    product = m @ m.T
    assert np.array_equal(product, product.T)
    assert embedded.max_coordinate_deviation().hex() == _triangle_deviation(embedded).hex()


@pytest.mark.parametrize("q, r, n, deviation", [(3, 40, 300, 4.440892098500626e-16),
                                                (5, 30, 400, 6.661338147750939e-16)])
def test_embed_prints_the_same_on_one_and_two_blas_threads(tmp_path, q, r, n, deviation):
    # the optimizer alone runs on one BLAS thread; the certificate path's
    # products keep the caller's threads, and at these shapes OpenBLAS splits
    # them, yet the image and its float deviation come out the same
    code_file = tmp_path / "code.txt"
    code_file.write_text(serialize_qary(seeded_code(q, q, r, n)), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(codes.__file__).parents[1])}
    outputs = [subprocess.run([sys.executable, "-m", "codebounds.cli", "embed",
                               "--in", str(code_file)],
                              env={**env, "OPENBLAS_NUM_THREADS": threads},
                              capture_output=True, text=True, check=True, timeout=120)
               for threads in ("1", "2")]
    assert outputs[0].stdout == outputs[1].stdout
    assert outputs[0].stderr == outputs[1].stderr
    assert json.loads(outputs[0].stderr)["max_coordinate_deviation"] == deviation


EMBEDDINGS = json.loads(EMBEDDINGS_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(EMBEDDED_CODES))
def test_embedding_outputs_are_byte_stable(name):
    # recorded in embedding_outputs.json by test_cli_golden.py's regeneration
    fresh, recorded = embedding_record(name), EMBEDDINGS[name]
    assert list(fresh) == list(recorded)
    for key, value in recorded.items():
        assert fresh[key] == value, key


@pytest.mark.parametrize("t", [2, 4, 6], ids=["r4", "r16", "r64"])
def test_code_image_chain_matches_the_rational_file_chain(t):
    # the coordinates +-1/2, +-1/4 and +-1/8 are exact decimals, so the file
    # route takes the Gram from rational coordinates, not from distances
    vset = embed_qary(hadamard_code(sylvester_hadamard(t))).unit_vectors()
    parsed = parse_spherical(serialize_spherical(vset), exact=True)
    assert parsed.mode() == "exact"
    assert record_json(certify_chain(vset)) == record_json(certify_chain(parsed))


def test_hadamard_matrix_holds_a_read_only_int8_array():
    h = sylvester_hadamard(3)
    assert h.array.dtype == np.int8 and not h.array.flags.writeable
    assert h.rows == SYLVESTER_8 and h.array.tolist() == [list(row) for row in SYLVESTER_8]
    assert h == HadamardMatrix(8, SYLVESTER_8) and hash(h) == hash(HadamardMatrix(8, SYLVESTER_8))
    assert hadamard_code(h).array.dtype == np.uint8


def test_a_hadamard_matrix_in_any_memory_layout_gives_its_code():
    # columns permuted so that H^T is not H; its transpose is a column-major view
    h = sylvester_hadamard(3).array[:, [3, 0, 6, 1, 7, 2, 5, 4]]
    rows = tuple(map(tuple, h.T.tolist()))
    for given in (h.T, np.asfortranarray(h.T), np.repeat(h.T, 2, axis=1)[:, ::2]):
        code = hadamard_code(HadamardMatrix(8, given))
        assert code == hadamard_code(HadamardMatrix(8, rows))
        assert code.words[:8] == tuple(tuple(int(x != 1) for x in row) for row in rows)
        assert min_distance(code) == 4


@pytest.mark.parametrize("name", ["hadamard-16", "hadamard-64", "q3-r6-n200", "q7-r3-n80"])
def test_max_coordinate_deviation_in_blocks_of_three_rows(monkeypatch, name):
    # every pair is in some tile: three rows at a time against the rows from
    # the tile's first on give the whole matrix's maximum, up to the last
    # bits that a tile's product may round differently
    embedded = embed_qary(DEVIATION_CODES[name]())
    monkeypatch.setattr(linalg, "_TILE", 3)
    assert abs(embedded.max_coordinate_deviation() - _triangle_deviation(embedded)) <= 2 ** -50
    # a coordinate moved by 1e-6 shows in the last row's pairs, whichever block holds them
    m = embedded.image.coords.copy()
    m[-1, 0] += 1e-6
    embedded.image.__dict__["coords"] = m
    assert abs(embedded.max_coordinate_deviation() - _triangle_deviation(embedded)) <= 2 ** -50
    assert embedded.max_coordinate_deviation() > 1e-8
