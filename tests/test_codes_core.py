import math
import random
from fractions import Fraction

import pytest

from codebounds.codes import (QaryCode, UnitVectorSet, certify_chain,
                              distance_matrix, gram_analyze, hamming_distance,
                              min_distance, verify_lemma_beta,
                              verify_lemma_gamma, verify_spherical_code)
from codebounds.constructions import cross_polytope, simplex_vectors
from codebounds.errors import (AlphaOutOfRange, DuplicateCodewords, InvalidCode,
                               NonUnitVector, TooFewWords)
from codebounds.fileio import parse_spherical
from codebounds.linalg import IntegerGram, gram_from_rows, rank


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
    assert all(len(m) == 1 for m in analysis.nminus)
    assert all(g == -1 for g in analysis.gamma)


def test_gram_analyze_simplex():
    analysis = gram_analyze(simplex_vectors(3))
    assert analysis.alpha == Fraction(-1, 2)
    assert all(g == -1 for g in analysis.gamma)
    assert analysis.mode() == "exact"


def test_gram_analyze_single_vector():
    analysis = gram_analyze(UnitVectorSet(2, ((1, 0),)))
    assert analysis.alpha == -1
    assert analysis.nminus == ((),)


def test_gram_analyze_rejects_non_unit():
    with pytest.raises(NonUnitVector) as err:
        gram_analyze(UnitVectorSet(2, ((1, 1),)))
    assert err.value.index == 0
    assert err.value.norm_sq == 2


@pytest.mark.parametrize("vset, index, message", [
    (UnitVectorSet(2, ((1, 0), (0, 1), (1, 1))), 2,
     "vector 2 has squared norm 2, expected 1"),
    (UnitVectorSet(2, ((1.0, 0.0), (0.6, 0.9))), 1,
     "vector 1 has squared norm 1.17, expected 1"),
    (UnitVectorSet(2, ((Fraction(3, 5), Fraction(4, 5)), (Fraction(1, 2), Fraction(1, 2)))), 1,
     "vector 1 has squared norm Fraction(1, 2), expected 1"),
    (UnitVectorSet(1, ((1.0,), (-1.0,)),
                   exact_gram=gram_from_rows([[1, -1], [-1, Fraction(3, 2)]])), 1,
     "vector 1 has squared norm Fraction(3, 2), expected 1"),
], ids=["int", "float", "fraction", "oracle"])
def test_gram_analyze_rejects_non_unit_before_building_gram(vset, index, message,
                                                            monkeypatch):
    # an off-sphere set is rejected from its norms, without its full Gram
    def no_gram(self):
        raise AssertionError("raw_gram called before the norm check")

    monkeypatch.setattr(UnitVectorSet, "raw_gram", no_gram)
    with pytest.raises(NonUnitVector) as err:
        gram_analyze(vset)
    assert err.value.index == index
    assert str(err.value) == message


def test_gram_analyze_float_unit_norm_boundary():
    # float norms pass within 1e-9 + 1e-12 of 1
    inside = UnitVectorSet(2, ((1.0, math.sqrt(5e-10)),))
    assert gram_analyze(inside).gram.rows[0][0] == 1.0 + 5e-10
    with pytest.raises(NonUnitVector) as err:
        gram_analyze(UnitVectorSet(2, ((1.0, math.sqrt(2e-9)),)))
    assert err.value.index == 0


def test_gram_analyze_zero_product_goes_to_nplus():
    analysis = gram_analyze(UnitVectorSet(2, ((1, 0), (0, 1))))
    assert analysis.nplus == ((1,), (0,))
    assert analysis.nminus == ((), ())


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


def test_min_distance_examples():
    assert min_distance(QaryCode(2, 3, ((0, 0, 0), (1, 1, 1)))) == 3
    assert min_distance(QaryCode(2, 3, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))) == 2
    with pytest.raises(TooFewWords):
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


@pytest.mark.parametrize("code", distance_kernel_cases())
def test_distance_kernel_matches_pairwise_reference(code):
    n = len(code)
    reference = [[hamming_distance(x, y) for y in code.words] for x in code.words]
    d = distance_matrix(code)
    assert d.shape == (n, n)
    assert d.tolist() == reference
    assert (d == d.T).all() and not d.diagonal().any()
    assert min_distance(code) == min(reference[i][j] for i in range(n)
                                     for j in range(i + 1, n))


def test_qary_code_validation():
    with pytest.raises(DuplicateCodewords):
        QaryCode(2, 2, ((0, 1), (0, 1)))
    with pytest.raises(InvalidCode):
        QaryCode(2, 2, ((0, 2),))
    with pytest.raises(InvalidCode):
        QaryCode(2, 2, ((0, 1, 0),))


def test_float_gram_oracle_is_rejected():
    with pytest.raises(InvalidCode, match="exact entries"):
        UnitVectorSet(1, ((1.0,), (-1.0,)), exact_gram=gram_from_rows([[1, -1.0], [-1.0, 1]]))


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


def test_lemma_gamma_cross_polytope():
    cert = verify_lemma_gamma(gram_analyze(cross_polytope(2)))
    assert cert.verdict
    link = cert.links[0]
    assert link.lhs == 4
    assert link.rhs == 27


def test_lemma_hypothesis_gate():
    analysis = gram_analyze(simplex_vectors(2))   # alpha = -1
    with pytest.raises(AlphaOutOfRange):
        verify_lemma_beta(analysis)
    with pytest.raises(AlphaOutOfRange):
        verify_lemma_gamma(analysis)
    # duplicate vectors push alpha to 1, also out of hypothesis range
    dup = UnitVectorSet(2, ((1, 0), (1, 0)))
    with pytest.raises(AlphaOutOfRange):
        verify_lemma_beta(gram_analyze(dup))


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
    # planar simplex lifted to R^3 together with +-e3: alpha = 0
    s = simplex_vectors(3)
    coords = tuple(tuple(v) + (0.0,) for v in s.vectors) + \
        ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0))
    off = Fraction(-1, 2)
    g = [[1, off, off, 0, 0],
         [off, 1, off, 0, 0],
         [off, off, 1, 0, 0],
         [0, 0, 0, 1, -1],
         [0, 0, 0, -1, 1]]
    vset = UnitVectorSet(3, coords, exact_gram=gram_from_rows(g))
    # the oracle is held as an IntegerGram that keeps the given entries
    assert isinstance(vset.exact_gram, IntegerGram) and vset.exact_gram.rows == g
    cert = certify_chain(vset)
    assert cert.verdict
    assert cert.meta["rank"] == 3


def test_certify_chain_property_suite():
    rng = random.Random(31337)
    for _ in range(40):
        vset = random_unit_set(rng, rng.randint(2, 10), rng.randint(2, 5),
                               require_alpha_nonneg=True)
        cert = certify_chain(vset)
        assert cert.verdict, f"chain failed: {[l.name for l in cert.failing_links()]}"


def test_certify_chain_float_mode():
    from codebounds.search import heuristic_rho
    result = heuristic_rho(2, 5, seed=3)     # regular pentagon, alpha ~ 0.309
    cert = certify_chain(result.witness)
    assert cert.mode == "float"
    assert cert.verdict, [link.name for link in cert.failing_links()]
    # pentagon Gram has two equal nonzero eigenvalues: trace-rank link is tight
    first = cert.links[0]
    assert first.lhs == pytest.approx(12.5, abs=1e-9)
    assert first.rhs == pytest.approx(12.5, abs=1e-9)
    assert cert.meta["rank"] == 2


def test_certify_chain_alpha_gate_and_norm_error():
    with pytest.raises(AlphaOutOfRange):
        certify_chain(simplex_vectors(3))
    with pytest.raises(NonUnitVector):
        certify_chain(UnitVectorSet(2, ((1, 1), (1, 0))))
