import dataclasses
import math
import numbers
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from codebounds import codes
from codebounds.codes import (QaryCode, UnitVectorSet, certify_chain,
                              code_image, gram_analyze, min_distance,
                              verify_lemma_beta, verify_lemma_gamma,
                              verify_spherical_code)
from codebounds.constructions import cross_polytope, simplex_vectors
from codebounds.errors import InvalidCode, NonUnitVector, PreconditionViolated
from codebounds.fileio import parse_qary, parse_spherical, serialize_qary
from codebounds.linalg import IntegerGram, negative_sums, rank
from codebounds.scalars import parse_scalar


def rational_sphere_point(rng, d, spread=4):
    """Exact unit vector via stereographic projection of a rational point."""
    y = [Fraction(rng.randint(-spread, spread), rng.randint(1, spread))
         for _ in range(d - 1)]
    norm_sq = sum(t * t for t in y)
    denom = norm_sq + 1
    return tuple([2 * t / denom for t in y] + [(norm_sq - 1) / denom])


def random_unit_set(rng, n, d, require_alpha_nonneg=False, max_tries=200):
    for _ in range(max_tries):
        seen = set()
        vecs = []
        while len(vecs) < n:
            v = rational_sphere_point(rng, d)
            if v not in seen:
                seen.add(v)
                vecs.append(v)
        vset = UnitVectorSet(d, tuple(vecs))
        if not require_alpha_nonneg:
            return vset
        analysis = gram_analyze(vset)
        if 0 <= analysis.alpha < 1:
            return vset
    raise AssertionError("rejection sampling failed")


def test_rational_sphere_points_are_unit():
    rng = random.Random(1)
    for _ in range(50):
        v = rational_sphere_point(rng, rng.randint(2, 6))
        assert sum(t * t for t in v) == 1


def test_gram_analyze_cross_polytope():
    analysis = gram_analyze(cross_polytope(2))
    assert analysis.alpha == 0
    # each vertex has one negative neighbour, its antipode
    assert analysis.gamma == (-1,) * 4
    assert all(type(g) is int for g in analysis.gamma)


def test_gram_analyze_simplex():
    analysis = gram_analyze(simplex_vectors(3))
    assert analysis.alpha == Fraction(-1, 2)
    assert all(g == -1 for g in analysis.gamma)
    assert isinstance(analysis.gram, IntegerGram)


def test_gram_analyze_single_vector():
    analysis = gram_analyze(UnitVectorSet(2, ((1, 0),)))
    assert analysis.alpha == -1
    assert analysis.gamma == (0,)
    assert type(analysis.gamma[0]) is int


def _unit_gram(vset):
    return vset._gram(unit=True)


# the two calls that check unit norms; both raise the same error
UNIT_CHECKS = (gram_analyze, _unit_gram)


def test_gram_analyze_rejects_non_unit():
    for check in UNIT_CHECKS:
        for coord in (1, 1.0):      # exact and float mode
            with pytest.raises(NonUnitVector) as err:
                check(UnitVectorSet(2, ((coord, coord),)))
            assert err.value.index == 0
            assert err.value.norm_sq == 2


@pytest.mark.parametrize("vset, index, message", [
    (UnitVectorSet(2, ((1, 0), (0, 1), (1, 1))), 2,
     "vector 2 has squared norm 2, expected 1"),
    (UnitVectorSet(2, ((1.0, 0.0), (0.6, 0.9))), 1,
     "vector 1 has squared norm 1.17, expected 1"),
    (UnitVectorSet(2, ((Fraction(3, 5), Fraction(4, 5)), (Fraction(1, 2), Fraction(1, 2)))), 1,
     "vector 1 has squared norm 1/2, expected 1"),
    (UnitVectorSet(2, ((1, 0), (Fraction(3, 4), 1))), 1,
     "vector 1 has squared norm 25/16, expected 1"),
    (UnitVectorSet(2, ((Fraction(1, 3), 0), (1, 0))), 0,
     "vector 0 has squared norm 1/9, expected 1"),
], ids=["int", "float", "fraction", "fraction-above", "fraction-first"])
def test_gram_analyze_rejects_non_unit_before_building_gram(vset, index, message,
                                                            monkeypatch):
    # an off-sphere set is rejected from its norms, without its full Gram: an
    # exact Gram is made from its numerators, and a float Gram is made from
    # zeros before any product is added, so either made first fails here
    def no_gram(*args, **kwargs):
        raise AssertionError("Gram built before the norm check")

    monkeypatch.setattr(codes, "IntegerGram", no_gram)
    monkeypatch.setattr(codes, "FloatGram", no_gram)
    for check in UNIT_CHECKS:
        with pytest.raises(NonUnitVector) as err:
            check(vset)
        assert err.value.index == index
        assert str(err.value) == message
    if vset.mode() == "exact":
        # the number reads back, in the input grammar, as the exact squared norm
        printed = message.split()[5].rstrip(",")
        assert parse_scalar(printed, exact=True) == sum(x * x for x in vset.vectors[index])


def test_gram_analyze_float_unit_norm_boundary():
    # float norms pass within 1e-9 + 1e-12 of 1
    inside = UnitVectorSet(2, ((1.0, math.sqrt(5e-10)),))
    assert gram_analyze(inside).gram.rows[0][0] == _unit_gram(inside).rows[0][0] == 1.0 + 5e-10
    outside = UnitVectorSet(2, ((1.0, math.sqrt(2e-9)),))
    for check in UNIT_CHECKS:
        with pytest.raises(NonUnitVector) as err:
            check(outside)
        assert err.value.index == 0


def test_gram_analyze_zero_product_is_not_negative():
    analysis = gram_analyze(UnitVectorSet(2, ((1, 0), (0, 1))))
    assert analysis.gamma == (0, 0)
    assert all(type(g) is int for g in analysis.gamma)


def test_gamma_cache_matches_recomputation():
    rng = random.Random(77)
    for _ in range(25):
        vset = random_unit_set(rng, rng.randint(2, 8), rng.randint(2, 5))
        analysis = gram_analyze(vset)
        for u in range(analysis.n):
            recomputed = sum((analysis.gram.rows[u][v] for v in range(analysis.n)
                              if v != u and analysis.gram.rows[u][v] < 0),
                             Fraction(0))
            assert analysis.gamma[u] == recomputed


def test_certify_chain_reads_no_gamma(monkeypatch):
    # the chain needs alpha, the rank and tr(M^2), never a negative-edge sum
    def no_sums(*args, **kwargs):
        raise AssertionError("negative_sums called")

    monkeypatch.setattr(codes, "negative_sums", no_sums)
    ternary = code_image(QaryCode(3, 2, tuple((a, b) for a in range(3) for b in range(3))))
    for vset in (cross_polytope(4), ternary):
        cert = certify_chain(vset)
        assert cert.verdict and cert.mode == "exact"


def test_gamma_is_computed_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return negative_sums(*args, **kwargs)

    monkeypatch.setattr(codes, "negative_sums", counted)
    analysis = gram_analyze(cross_polytope(3))
    assert [f.name for f in dataclasses.fields(analysis)] == ["gram", "alpha"]
    assert not calls
    assert analysis.gamma == (-1,) * 6
    assert analysis.gamma is analysis.gamma
    assert len(calls) == 1


def test_min_distance_examples():
    assert min_distance(QaryCode(2, 3, ((0, 0, 0), (1, 1, 1)))) == 3
    assert min_distance(QaryCode(2, 3, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))) == 2
    with pytest.raises(PreconditionViolated, match=r"^need >= 2 codewords, got 1$"):
        min_distance(QaryCode(2, 3, ((0, 0, 0),)))


def random_qary_code(rng, q, r, n):
    words = set()
    while len(words) < min(n, q ** r):
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    return QaryCode(q, r, tuple(sorted(words)))


def distance_kernel_cases():
    rng = random.Random(4242)
    cases = [random_qary_code(rng, 2, 1, 2), random_qary_code(rng, 5, 1, 5),
             random_qary_code(rng, 3, 12, 2), random_qary_code(rng, 5, 12, 40)]
    for _ in range(60):
        cases.append(random_qary_code(rng, rng.randint(2, 5), rng.randint(1, 12),
                                      rng.randint(2, 40)))
    return cases


def hamming_distance(x, y) -> int:
    """Positions where two words differ, one pair at a time: the reference for
    the vectorised distances.  Raises ValueError when the lengths differ."""
    return sum(1 for a, b in zip(x, y, strict=True) if a != b)


@pytest.mark.parametrize("code", distance_kernel_cases())
def test_distance_kernel_matches_pairwise_reference(code):
    n, q, r = len(code), code.q, code.r
    reference = [[hamming_distance(x, y) for y in code.words] for x in code.words]
    g = code_image(code).raw_gram()
    den = q * (q - 1) * r
    assert g.den == den and g.num.shape == (n, n)
    assert g.num.tolist() == [[den - q * q * d for d in row] for row in reference]
    assert min_distance(code) == min(reference[i][j] for i in range(n)
                                     for j in range(i + 1, n))


def test_qary_code_validation():
    with pytest.raises(InvalidCode, match=r"^codewords must be pairwise distinct$"):
        QaryCode(2, 2, ((0, 1), (0, 1)))
    with pytest.raises(InvalidCode):
        QaryCode(2, 2, ((0, 2),))
    with pytest.raises(InvalidCode):
        QaryCode(2, 2, ((0, 1, 0),))


@pytest.mark.parametrize("q, r, words, message", [
    (2, 2, ((0, 1), (0, 1, 0), (0, 5)), "codeword (0, 1, 0) has length 3, expected 2"),
    (2, 2, ((0, 1), (0, 5), (0, 1, 0)), "symbol 5 out of range [0, 2)"),
    (3, 3, ((0, 1, 2), (0, 7, -1), (1, 1)), "symbol 7 out of range [0, 3)"),
    (3, 2, ((0, 1), (-1, 0)), "symbol -1 out of range [0, 3)"),
    (2, 2, ((1.0, 0), (0, 2.0)), "symbol 2 out of range [0, 2)"),
    (2, 2, ((0, 1), (0, 1.0)), "codewords must be pairwise distinct"),
    (2, 1, ((),), "codeword () has length 0, expected 1"),
])
def test_qary_code_names_the_first_bad_word_and_symbol(q, r, words, message):
    # words are checked in order, each for its length before its symbols
    with pytest.raises(InvalidCode, match=f"^{re.escape(message)}$"):
        QaryCode(q, r, words)


def test_qary_code_symbols_become_ints():
    for words in (((1.0, 0), (0, 1)), ((np.int64(1), 0), (0, True))):
        code = QaryCode(2, 2, words)
        assert code.words == ((1, 0), (0, 1))
        assert all(type(s) is int for w in code.words for s in w)


@pytest.mark.parametrize("words,symbol", [
    (((0.5, 1), (1, 0)), "0.5"),
    (((1.5, 0), (0, 1)), "1.5"),
    (((0, 1), (1, np.float64(-0.25))), "-0.25"),
    (((0, Fraction(1, 2)), (1, 0)), "1/2"),
    (np.array([[0.0, 1.0], [1.0, 0.7]]), "0.7"),
])
def test_qary_code_rejects_non_integral_symbols(words, symbol):
    # a symbol is read by int() only when that loses nothing: 0.5 is not read as 0
    with pytest.raises(InvalidCode, match=f"^symbol {re.escape(symbol)} is not an integer$"):
        QaryCode(2, 2, words)


def _loop_symbol(s):
    """int(s), for a number only when it is integral."""
    if isinstance(s, numbers.Number) and int(s) != s:
        raise InvalidCode(f"symbol {s} is not an integer")
    return int(s)


def _loop_qary_words(q, r, words):
    """QaryCode's word-by-word reading, kept as the oracle of its array check."""
    words = tuple(tuple(map(_loop_symbol, w)) for w in words)
    for w in words:
        if len(w) != r:
            raise InvalidCode(f"codeword {w} has length {len(w)}, expected {r}")
        if min(w) < 0 or max(w) >= q:
            s = next(s for s in w if not 0 <= s < q)
            raise InvalidCode(f"symbol {s} out of range [0, {q})")
    if len(set(words)) != len(words):
        raise InvalidCode("codewords must be pairwise distinct")
    return words


def _read_outcome(read, q, r, words):
    """The words with each symbol's type, or the error's type and text."""
    try:
        words = read(q, r, words)
    except Exception as exc:    # the oracle and the class must raise alike
        return type(exc), str(exc)
    return words, [type(s) for w in words for s in w]


_WORD_CASES = {
    "tuples": (3, 2, ((0, 1), (2, 2), (1, 0))),
    "lists": (2, 3, [[0, 1, 1], [1, 0, 1]]),
    "int8-array": (2, 3, np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int8)),
    "uint8-array": (5, 1, np.array([[4], [0]], dtype=np.uint8)),
    "numpy-ints": (4, 2, ((np.int64(3), 0), (1, np.int64(2)))),
    "bools": (2, 2, ((True, False), (False, False))),
    "bool-and-int": (3, 2, ((True, 2), (0, 1))),
    "one-and-a-half": (2, 2, ((1.5, 0), (0, 1))),      # rejected, not read as 1
    "floats": (3, 2, ((0.0, 2.0), (1.0, 1.0))),
    "nan": (3, 2, ((0, float("nan")),)),
    "strings": (3, 2, (("0", "2"), ("1", "1"))),
    "not-a-number": (3, 2, (("0", "x"),)),
    "empty-code": (2, 3, ()),
    "empty-array": (2, 3, np.zeros((0, 3), dtype=np.int64)),
    "ragged": (2, 2, ((0, 1), (0, 1, 0), (0, 5))),
    "wrong-length-array": (2, 2, np.zeros((2, 3), dtype=np.int64)),
    "empty-word": (2, 1, ((),)),
    "nested": (2, 1, (((0,),),)),
    "negative": (3, 2, ((0, 1), (-1, 0))),
    "symbol-q": (3, 3, ((0, 1, 2), (0, 3, 1))),
    "two-to-the-63": (2, 2, ((0, 1), (0, 2 ** 63))),
    "uint64-two-to-the-63": (2, 2, np.array([[0, 2 ** 63]], dtype=np.uint64)),
    "two-to-the-64-and-negative": (2, 2, ((0, 2 ** 64), (-1, 0))),
    "q-beyond-int64": (2 ** 70, 2, ((0, 1), (1, 0))),
    "symbols-beyond-int64": (2 ** 70, 2, ((2 ** 69, 0), (1, 2))),
    "duplicates": (3, 2, ((0, 1), (2, 2), (0, 1))),
    "duplicates-once-read": (2, 2, ((0, 1), (0, 1.0))),
}


@pytest.mark.parametrize("case", sorted(_WORD_CASES))
def test_qary_code_reads_words_as_the_word_by_word_loop(case):
    q, r, words = _WORD_CASES[case]
    assert _read_outcome(lambda *args: QaryCode(*args).words, q, r, words) == \
        _read_outcome(_loop_qary_words, q, r, words)


def _sequential_dot(x, y):
    """The product of two coordinate tuples, summed left to right from 0."""
    s = 0
    for a, b in zip(x, y):
        s += a * b
    return s


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_off_diagonal_extremes_match_a_reference(n):
    # exact sets against Fractions, with int64 and object rows (a wide spread
    # makes denominators whose lcm passes the int64 gate), and float sets
    # against the left-to-right float sums
    rng = random.Random(n)
    sets = [random_unit_set(rng, n, d) for d in (2, 3, 5)]
    sets.append(UnitVectorSet(3, tuple(rational_sphere_point(rng, 3, spread=10 ** 6)
                                       for _ in range(n))))
    for _ in range(2):
        rows = [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(n)]
        sets.append(UnitVectorSet(4, tuple(tuple(x / math.sqrt(_sequential_dot(v, v))
                                                 for x in v) for v in rows)))
    assert {vset._exact[0].dtype for vset in sets[:4]} == {np.dtype(np.int64), np.dtype(object)}
    for vset in sets:
        v = vset.vectors
        exact = vset.mode() == "exact"
        off = [_sequential_dot(map(Fraction, v[i]), v[j]) if exact else _sequential_dot(v[i], v[j])
               for i in range(n) for j in range(n) if i != j]
        alpha = gram_analyze(vset).alpha
        assert alpha == max(off, default=-1)
        links = verify_spherical_code(vset, Fraction(1, 2)).links
        if n == 1:
            assert len(links) == 2 and (links[1].lhs, links[1].rhs) == (-1, Fraction(1, 2))
            continue
        assert (links[1].lhs, links[2].rhs) == (max(off), min(off))
        if not exact:
            assert {type(alpha), type(links[1].lhs), type(links[2].rhs)} == {float}


def test_a_vector_set_takes_no_code_or_exact_form():
    # an exact set is its integer rows: no parameter pairs a code or rows
    # with other coordinates
    for name in ("source", "_exact"):
        with pytest.raises(TypeError):
            UnitVectorSet(1, ((1.0,), (-1.0,)), **{name: QaryCode(2, 1, ((0,), (1,)))})


def test_exact_raw_gram_of_a_file_is_its_integer_gram():
    vset = parse_spherical("sphere 3\n1 0 0\n0 3/5 4/5\n0 -0.8 0.6\n-1 0 0\n")
    g = vset.raw_gram()
    assert isinstance(g, IntegerGram)
    # the n x d coordinate matrix over its lcm 5 is the factor; the Gram is over 5^2
    assert g.factor.tolist() == [[5, 0, 0], [0, 3, 4], [0, -4, 3], [-5, 0, 0]]
    assert g.den == 25 and g.num.tolist() == (g.factor @ g.factor.T).tolist()
    assert g.rows[1][2] == 0 and g.rows[0][3] == -1
    assert rank(g) == 3


def test_hamming_distance_needs_equal_lengths():
    assert hamming_distance((0, 1, 2), (0, 2, 2)) == 1
    with pytest.raises(ValueError):
        hamming_distance((0, 1), (0,))


def test_verify_spherical_code_pass_and_fail():
    assert verify_spherical_code(cross_polytope(3), 0).verdict
    cert = verify_spherical_code(simplex_vectors(4), Fraction(-1, 3))
    assert cert.verdict
    # equality: max off-diagonal is exactly the claim
    link = cert.links[1]
    assert link.slack == 0
    cert = verify_spherical_code(cross_polytope(2), Fraction(-1, 2))
    assert not cert.verdict


def test_verify_spherical_code_reports_norm_failure_as_verdict():
    cert = verify_spherical_code(UnitVectorSet(2, ((1, 1), (1, 0))), 1)
    assert not cert.verdict
    assert not cert.links[0].verdict


@pytest.mark.parametrize("vset", [
    cross_polytope(3), simplex_vectors(4), UnitVectorSet(2, ((1, 1), (1, 0), (0, 1))),
    UnitVectorSet(2, ((Fraction(3, 5), Fraction(4, 5)), (1, 0), (Fraction(1, 2), 0))),
    UnitVectorSet(2, ((0.6, 0.8), (1.0, 0.0), (0.0, -1.0))), UnitVectorSet(1, ((1,),)),
    UnitVectorSet(2, ((Fraction(1, 10 ** 12), 1), (1, 0), (0, -1))),
], ids=["ints", "code-image", "off-norm-ints", "fractions", "floats", "one-vector",
        "beyond-int64"])
def test_verify_spherical_code_extremes_are_the_gram_entries(vset):
    # the extremes read off the Gram arrays are the scalars its entries are,
    # in value and type: int, Fraction, or a Python float
    rows = vset.raw_gram().rows
    n = len(rows)
    off = [rows[i][j] for i in range(n) for j in range(i + 1, n)]
    expected = [max(abs(rows[i][i] - 1) for i in range(n))]
    cert = verify_spherical_code(vset, Fraction(1, 2))
    got = [cert.links[0].lhs]
    if off:
        expected += [max(off), min(off)]
        got += [cert.links[1].lhs, cert.links[2].rhs]
    assert [(type(x), x) for x in got] == [(type(x), x) for x in expected]


def test_lemma_beta_equality_case():
    vset = UnitVectorSet(2, ((1, 0), (-1, 0), (0, 1)))
    cert = verify_lemma_beta(gram_analyze(vset))
    assert cert.verdict
    # u = e1: only neighbor with negative product is -e1, so lhs = 1 = rhs
    link = cert.links[0]
    assert link.lhs == 1 and link.rhs == 1


def test_lemma_beta_cross_polytope():
    cert = verify_lemma_beta(gram_analyze(cross_polytope(3)))
    assert cert.verdict
    assert all(link.lhs == 1 and link.rhs == 1 for link in cert.links)


@pytest.mark.parametrize("vectors", [
    ((1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5))),
    ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8)),
], ids=["exact-den-25", "float"])
def test_no_negative_neighbour_gives_int_zero_in_both_modes(vectors):
    # with no negative inner product, gamma and the energy are the int 0 an
    # empty sum from 0 leaves, never Fraction(0) or 0.0
    analysis = gram_analyze(UnitVectorSet(2, vectors))
    lhs = [link.lhs for link in verify_lemma_beta(analysis).links]
    assert all(type(x) is int and x == 0 for x in lhs + list(analysis.gamma))
    assert len(lhs) == 3


def test_lemma_gamma_cross_polytope():
    cert = verify_lemma_gamma(gram_analyze(cross_polytope(2)))
    assert cert.verdict
    link = cert.links[0]
    assert link.lhs == 4
    assert link.rhs == 27


OUT_OF_RANGE = r"^maximum inner product (.*) outside \[0, 1\)$"


def test_lemma_hypothesis_gate():
    analysis = gram_analyze(simplex_vectors(2))   # alpha = -1
    with pytest.raises(PreconditionViolated, match=OUT_OF_RANGE):
        verify_lemma_beta(analysis)
    with pytest.raises(PreconditionViolated, match=OUT_OF_RANGE):
        verify_lemma_gamma(analysis)
    # duplicate vectors push alpha to 1, also out of hypothesis range
    dup = UnitVectorSet(2, ((1, 0), (1, 0)))
    with pytest.raises(PreconditionViolated, match=OUT_OF_RANGE):
        verify_lemma_beta(gram_analyze(dup))
    # the printed alpha reads back, in the input grammar, as the exact value
    for vset, alpha in ((simplex_vectors(2), -1), (dup, 1),
                        (simplex_vectors(3), Fraction(-1, 2)),
                        (UnitVectorSet(2, ((1, 0), (Fraction(-3, 5), Fraction(4, 5)))),
                         Fraction(-3, 5))):
        with pytest.raises(PreconditionViolated) as info:
            certify_chain(vset)
        printed = re.fullmatch(OUT_OF_RANGE, str(info.value)).group(1)
        assert parse_scalar(printed, exact=True) == alpha


def test_lemma_property_suite():
    rng = random.Random(2023)
    for _ in range(60):
        vset = random_unit_set(rng, rng.randint(2, 12), rng.randint(2, 6),
                               require_alpha_nonneg=True)
        analysis = gram_analyze(vset)
        assert verify_lemma_beta(analysis).verdict
        assert verify_lemma_gamma(analysis).verdict


def test_certify_chain_cross_polytope_equalities():
    cert = certify_chain(cross_polytope(2))
    assert cert.verdict and cert.mode == "exact"
    by_name = {link.name: link for link in cert.links}
    first = cert.links[0]
    assert first.lhs == 8 and first.rhs == 8          # 16/2 = 8 <= 8
    second = cert.links[1]
    assert second.lhs == 8 and second.rhs == 8
    last = cert.links[-1]
    assert last.lhs == 0 and last.rhs == 0            # conclusion 0 <= 0
    assert cert.meta["rank"] == 2
    assert cert.meta["ambient_dimension"] == 2


def test_certify_chain_simplex_plus_orthogonal_pair():
    # a planar simplex with rational coordinates in R^4 (its three vectors sum
    # to 0), lifted to R^5 together with +-e5: alpha = 0
    h = Fraction(1, 2)
    coords = ((1, 0, 0, 0, 0), (-h, h, h, h, 0), (-h, -h, -h, -h, 0),
              (0, 0, 0, 0, 1), (0, 0, 0, 0, -1))
    off = Fraction(-1, 2)
    g = [[1, off, off, 0, 0],
         [off, 1, off, 0, 0],
         [off, off, 1, 0, 0],
         [0, 0, 0, 1, -1],
         [0, 0, 0, -1, 1]]
    vset = UnitVectorSet(5, coords)
    assert vset.raw_gram().rows == g
    cert = certify_chain(vset)
    assert cert.verdict
    assert cert.meta["rank"] == 3


def test_certify_chain_property_suite():
    rng = random.Random(31337)
    for _ in range(40):
        vset = random_unit_set(rng, rng.randint(2, 10), rng.randint(2, 5),
                               require_alpha_nonneg=True)
        cert = certify_chain(vset)
        assert cert.verdict, f"chain failed: {[l.name for l in cert.links if not l.verdict]}"


def test_certify_chain_float_mode():
    from codebounds.search import heuristic_rho
    result = heuristic_rho(2, 5, seed=3)     # regular pentagon, alpha ~ 0.309
    cert = certify_chain(result.witness)
    assert cert.mode == "float"
    assert cert.verdict, [link.name for link in cert.links if not link.verdict]
    # pentagon Gram has two equal nonzero eigenvalues: trace-rank link is tight
    first = cert.links[0]
    assert first.lhs == pytest.approx(12.5, abs=1e-9)
    assert first.rhs == pytest.approx(12.5, abs=1e-9)
    assert cert.meta["rank"] == 2


def test_certify_chain_alpha_gate_and_norm_error():
    with pytest.raises(PreconditionViolated, match=OUT_OF_RANGE):
        certify_chain(simplex_vectors(3))
    with pytest.raises(NonUnitVector):
        certify_chain(UnitVectorSet(2, ((1, 1), (1, 0))))


@pytest.mark.parametrize("q,r,n", [(2, 16, 32), (3, 6, 40), (7, 3, 60), (300, 2, 20)])
def test_a_code_reads_alike_from_tuples_an_array_and_a_file(q, r, n):
    rng = random.Random(q * r)
    words = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    words = tuple(sorted(words))
    codes_ = [QaryCode(q, r, words), QaryCode(q, r, np.array(words, dtype=np.int64)),
              parse_qary(serialize_qary(QaryCode(q, r, words)))]
    assert {c.words for c in codes_} == {words}
    assert {c.array.dtype for c in codes_} == {np.min_scalar_type(q - 1)}
    assert len({min_distance(c) for c in codes_}) == 1
    assert codes_[0] == codes_[1] == codes_[2] and len({hash(c) for c in codes_}) == 1


def test_a_code_holds_a_read_only_array_it_does_not_share():
    table = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    code = QaryCode(2, 2, table)
    table[0, 0] = 1     # the caller's array is copied, not held
    assert code.words == ((0, 1), (1, 0)) and code.array.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError):
        code.array[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.q = 3
    assert repr(code) == "QaryCode(q=2, r=2, words=((0, 1), (1, 0)))"
    assert [f.name for f in dataclasses.fields(code)] == ["q", "r", "words"]


@pytest.mark.parametrize("layout", ["transposed", "reversed", "strided"])
def test_a_code_checks_its_words_in_any_memory_layout(layout):
    # the words as a view whose rows are not runs of memory
    def laid_out(words):
        a = np.array(words, dtype=np.int64)
        if layout == "transposed":
            return a.T.copy().T
        if layout == "reversed":
            return np.flip(np.flip(a, 1).copy(), 1)
        return np.repeat(a, 2, axis=1)[:, ::2]
    # equal words are found, and distinct ones kept, whatever the layout
    with pytest.raises(InvalidCode, match="pairwise distinct"):
        QaryCode(2, 2, laid_out([[0, 1], [0, 1]]))
    with pytest.raises(InvalidCode, match="pairwise distinct"):
        QaryCode(3, 3, laid_out([[0, 1, 2], [2, 2, 2], [0, 1, 2]]))
    code = QaryCode(3, 3, laid_out([[0, 1, 2], [1, 0, 2], [2, 1, 0]]))
    assert code.words == ((0, 1, 2), (1, 0, 2), (2, 1, 0))
    assert code.array.flags.c_contiguous and min_distance(code) == 2


def test_a_vector_set_is_its_scalar_table_and_index():
    vset = UnitVectorSet(2, ((1, 0), (0.0, -1.0)))
    assert vset.scalars == [1, 0, 0.0, -1.0] and vset.index.tolist() == [[0, 1], [2, 3]]
    assert vset.index.dtype == np.uint8 and not vset.index.flags.writeable
    assert _typed_rows(vset.vectors) == _typed_rows(((1, 0), (0.0, -1.0)))
    parsed = parse_spherical("sphere 2\n1 0\n0 1\n-1 0\n0 -1\n1 0\n")
    assert parsed.scalars == [1, 0, -1] and parsed.index.tolist() == [
        [0, 1], [1, 0], [2, 1], [1, 2], [0, 1]]
    image = code_image(QaryCode(3, 2, ((0, 1), (2, 2))))
    assert len(image.scalars) == 6 and image.index.tolist() == [[0, 1, 2, 3], [4, 5, 4, 5]]
    assert image.coords.tolist() == [[image.scalars[k] for k in row]
                                     for row in image.index.tolist()]


def _typed_rows(vectors):
    return [[(type(x), repr(x)) for x in v] for v in vectors]
