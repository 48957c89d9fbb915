"""The integer-numerator exact pipeline against the Fraction computations it
replaced, kept here as the reference: the sum-of-products Gram, Bareiss
elimination on per-row-scaled rows, and the sum of squared entries."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from codebounds import linalg
from codebounds.certificates import Certificate, make_link
from codebounds.cli import main
from codebounds.codes import (QaryCode, UnitVectorSet, certify_chain, code_image,
                              gram_analyze, verify_lemma_beta, verify_lemma_gamma,
                              verify_spherical_code)
from codebounds.constructions import embed_qary
from codebounds.errors import NonUnitVector, PreconditionViolated
from codebounds.fileio import record_json, serialize_spherical
from codebounds.linalg import (P, IntegerGram, integer_rank, rank, trace_of_square,
                               verify_trace_rank)
from codebounds.scalars import format_scalar
from test_codes_core import hamming_distance
from test_integer_product import smallest_square_above_the_gate

# ----------------------------------------------------------- the reference


def ref_gram(vectors):
    n = len(vectors)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = 0
            for a, b in zip(vectors[i], vectors[j]):
                s += a * b
            rows[i][j] = rows[j][i] = s
    return rows


def ref_distance_gram(code):
    q, r = code.q, code.r
    return [[1 - Fraction(q * hamming_distance(x, y), (q - 1) * r) for y in code.words]
            for x in code.words]


def ref_rank(rows):
    a = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            lcm = lcm // gcd(lcm, x.denominator) * x.denominator
        a.append([int(x * lcm) for x in fr])
    nr = len(a)
    nc = nr and len(a[0])
    prev, rank_count = 1, 0
    for col in range(nc):
        pivot_row = next((i for i in range(rank_count, nr) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        a[rank_count], a[pivot_row] = a[pivot_row], a[rank_count]
        piv = a[rank_count][col]
        for i in range(rank_count + 1, nr):
            head = a[i][col]
            for j in range(col + 1, nc):
                a[i][j] = (a[i][j] * piv - head * a[rank_count][j]) // prev
            a[i][col] = 0
        prev = piv
        rank_count += 1
        if rank_count == nr:
            break
    return rank_count


def ref_trace_of_square(rows):
    total = 0
    for row in rows:
        for x in row:
            total += x * x
    return total


def ref_analysis(rows):
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 1:
            raise NonUnitVector(i, rows[i][i])
    alpha = -1 if n == 1 else max(rows[i][j] for i in range(n) for j in range(n) if i != j)
    nplus = tuple(tuple(v for v in range(n) if v != u and rows[u][v] >= 0) for u in range(n))
    nminus = tuple(tuple(v for v in range(n) if v != u and rows[u][v] < 0) for u in range(n))
    gamma = tuple(sum((rows[u][v] for v in nminus[u]), 0) for u in range(n))
    return alpha, nplus, nminus, gamma


def ref_gate(alpha):
    if alpha < 0 or alpha >= 1:
        raise PreconditionViolated(f"maximum inner product {alpha} outside [0, 1)")


def ref_beta(rows):
    alpha, _, nminus, gamma = ref_analysis(rows)
    ref_gate(alpha)
    links = [make_link(f"negative-edge energy at vertex v{u}",
                       sum((rows[u][v] * rows[u][v] for v in nminus[u]), 0),
                       1 + alpha * gamma[u] * gamma[u]) for u in range(len(rows))]
    return Certificate.from_links("negative-edge-energy", links,
                                  meta={"alpha": format_scalar(alpha), "n": len(rows)})


def ref_gamma(rows):
    alpha, _, _, gamma = ref_analysis(rows)
    ref_gate(alpha)
    n = len(rows)
    t = alpha * n
    link = make_link("total squared negative-edge load", sum(g * g for g in gamma),
                     Fraction(27, 4) * (1 + t) * (1 + t) * n)
    return Certificate.from_links("negative-edge-load", [link],
                                  meta={"alpha": format_scalar(alpha), "n": n})


def ref_chain(rows, dimension):
    alpha = ref_analysis(rows)[0]
    ref_gate(alpha)
    n, rk = len(rows), ref_rank(rows)
    t = alpha * n
    tsq = ref_trace_of_square(rows)
    c274 = Fraction(27, 4)
    alpha_terms = t * t + c274 * (1 + t) * (1 + t) * t
    envelope = c274 * ((1 + t) ** 3 - 1)
    links = [
        make_link("squared trace over rank at most trace of square", Fraction(n * n, rk), tsq),
        make_link("trace of square at most the negative-edge bound", tsq, 2 * n + alpha_terms),
        make_link("alpha terms at most the cubic envelope", alpha_terms, envelope),
        make_link("size excess over twice the rank at most the cubic bound",
                  n - 2 * rk, Fraction(1, 2) * envelope),
    ]
    return Certificate.from_links("gram-chain", links,
                                  meta={"n": n, "rank": rk, "ambient_dimension": dimension,
                                        "alpha": format_scalar(alpha)})


def ref_spherical(rows, claim, dimension):
    n = len(rows)
    links = [make_link("unit norms (max |<v,v>| deviation from 1)",
                       max(abs(rows[i][i] - 1) for i in range(n)), 0)]
    if n >= 2:
        off = [rows[i][j] for i in range(n) for j in range(i + 1, n)]
        links.append(make_link("pairwise inner products at most the claim", max(off), claim))
        links.append(make_link("pairwise inner products at least -1", -1, min(off)))
    else:
        links.append(make_link("pairwise inner products at most the claim (empty: -1)",
                               -1, claim))
    return Certificate.from_links("spherical-code", links,
                                  meta={"n": n, "dimension": dimension,
                                        "alpha_claim": format_scalar(claim)})


def ref_trace_rank(rows):
    t = sum(rows[i][i] for i in range(len(rows)))
    r = ref_rank(rows)
    link = make_link("squared trace at most rank times trace of square",
                     t * t, r * ref_trace_of_square(rows))
    return Certificate.from_links("trace-rank", [link], meta={"rank": r, "dimension": len(rows)})


# ------------------------------------------------------------- the inputs


def sphere_point(rng, d, spread):
    """Exact unit vector: inverse stereographic image of a rational point."""
    if d == 1:
        return (rng.choice((1, -1)),)
    y = [Fraction(rng.randint(-spread, spread), rng.randint(1, spread)) for _ in range(d - 1)]
    s = sum(t * t for t in y)
    return tuple(x.numerator if x.denominator == 1 else x
                 for x in [2 * t / (s + 1) for t in y] + [(s - 1) / (s + 1)])


def file_case(rng):
    d, n = rng.randint(1, 6), rng.randint(1, 12)
    spread = rng.choice((1, 2, 4, 30))
    vectors = [sphere_point(rng, d, spread) for _ in range(n)]
    if rng.random() < 0.1:
        vectors.insert(rng.randrange(n + 1), tuple(Fraction(1, 2) for _ in range(d)))
    return UnitVectorSet(d, tuple(vectors)), ref_gram(vectors)


def code_case(rng):
    q, r = rng.randint(2, 5), rng.randint(1, 12)
    n = min(rng.randint(1, 40), q ** r)
    words = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    code = QaryCode(q, r, tuple(sorted(words)))
    return embed_qary(code).unit_vectors(), ref_distance_gram(code)


def oracle_case(rng):
    # the code's rows are the exact Gram's only oracle: the float coordinates
    # beside them are never read.  Up to 9 words in (q-1)r <= 4 dimensions:
    # rank-deficient whenever n > (q-1)r
    q, r = rng.choice(((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)))
    n = rng.randint(1, min(9, q ** r))
    words = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    code = QaryCode(q, r, tuple(sorted(words)))
    return code_image(code), ref_distance_gram(code)


def cases():
    rng = random.Random(20240611)
    out = []
    for kind, make, count in (("file", file_case, 90), ("code", code_case, 80),
                              ("oracle", oracle_case, 40)):
        out += [pytest.param(*make(rng), id=f"{kind}-{i}") for i in range(count)]
    return out


def outcome(fn):
    try:
        value = fn()
    except (NonUnitVector, PreconditionViolated) as exc:
        return f"{type(exc).__name__}: {exc}"
    return record_json(value) if isinstance(value, Certificate) else value


# -------------------------------------------------------------- the tests


@pytest.mark.parametrize("vset, rows", cases())
def test_integer_pipeline_matches_fraction_reference(vset, rows):
    expected = outcome(lambda: ref_analysis(rows))
    got = outcome(lambda: gram_analyze(vset))
    if isinstance(expected, str):
        assert got == expected
    else:
        alpha, _, _, gamma = expected
        assert got.alpha == alpha
        assert got.gamma == gamma
        raw = vset.raw_gram()
        assert raw.rows == rows
        assert rank(raw) == ref_rank(rows)
        assert trace_of_square(raw) == ref_trace_of_square(rows)
        assert got.gram.rows == rows
    for ours, reference in (
            (lambda: certify_chain(vset), lambda: ref_chain(rows, vset.dimension)),
            (lambda: verify_lemma_beta(gram_analyze(vset)), lambda: ref_beta(rows)),
            (lambda: verify_lemma_gamma(gram_analyze(vset)), lambda: ref_gamma(rows)),
            (lambda: verify_spherical_code(vset, Fraction(1, 3)),
             lambda: ref_spherical(rows, Fraction(1, 3), vset.dimension)),
            (lambda: verify_trace_rank(vset.raw_gram()),
             lambda: ref_trace_rank(rows))):
        assert outcome(ours) == outcome(reference)


def test_rank_falls_back_to_bareiss_when_the_rank_drops_mod_p():
    # diag(P, 1) has rank 2 over Q but rank 1 mod P
    assert rank(IntegerGram(np.array([[P, 0], [0, 1]], dtype=object), 1)) == 2
    assert rank(IntegerGram(np.array([[P, 0], [0, 1]], dtype=object), 3)) == 2
    assert integer_rank(np.array([[P, 0], [0, 1]])) == 2
    # the smallest diag(P, 1, ..., 1) that is counted mod P before Bareiss
    n = smallest_square_above_the_gate()
    diagonal = [[P if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)]
    assert rank(IntegerGram(np.array(diagonal, dtype=object), 1)) == n
    assert rank(IntegerGram(np.array(diagonal, dtype=object), 3)) == n
    assert integer_rank(np.array(diagonal)) == n
    assert integer_rank(np.array([[P], [2 * P]], dtype=object)) == 1
    # a rank below min(rows, cols) is decided by Bareiss, not taken mod P
    assert integer_rank(np.array([[1, 2, 3], [2, 4, 6]])) == 1
    assert integer_rank(np.zeros((3, 0), dtype=np.int64)) == 0


def big_point(rng, digits):
    """Exact unit vector in R^3 whose denominator has about 2*digits digits."""
    a, b, c = (rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(3))
    s = a * a + b * b + c * c
    return (Fraction(2 * a * c, s), Fraction(2 * b * c, s), Fraction(a * a + b * b - c * c, s))


@pytest.mark.parametrize("digits", [5, 15], ids=["10-digit", "30-digit"])
def test_int64_guard_on_large_denominators(digits):
    # scaled coordinates near 10^10 fit int64 but their squares wrap; near 10^30
    # they do not fit at all: both must take the Python-int path
    rng = random.Random(digits)
    vectors = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(3, 5), Fraction(4, 5), 0),
               big_point(rng, digits)]
    vset = UnitVectorSet(3, tuple(vectors))
    rows = ref_gram(vectors)
    analysis = gram_analyze(vset)
    alpha, _, _, gamma = ref_analysis(rows)
    assert (analysis.alpha, analysis.gamma) == (alpha, gamma)
    assert 0 <= analysis.alpha < 1
    assert trace_of_square(vset.raw_gram()) == ref_trace_of_square(rows)
    assert record_json(certify_chain(vset)) == record_json(ref_chain(rows, 3))
    assert record_json(verify_lemma_beta(analysis)) == \
        record_json(ref_beta(rows))
    assert record_json(verify_lemma_gamma(analysis)) == record_json(ref_gamma(rows))


def test_verify_trace_rank_cli_ranks_the_coordinates(tmp_path, capsys, monkeypatch):
    # n > d: the n x n Gram is rank-deficient, the n x d coordinate matrix is not wider
    shapes = []
    real_rank = linalg.integer_rank

    def recorded(a):
        shapes.append(a.shape)
        return real_rank(a)

    monkeypatch.setattr(linalg, "integer_rank", recorded)
    rng = random.Random(20261018)
    path = tmp_path / "wide.sphere"
    for _ in range(40):
        d = rng.randint(1, 5)
        n = rng.randint(d + 1, 3 * d + 3)
        vectors = [sphere_point(rng, d, rng.choice((1, 2, 4, 30))) for _ in range(n)]
        if rng.random() < 0.3:    # trace-rank does not need unit norms
            vectors[0] = tuple(Fraction(3, 2) * x for x in vectors[0])
        path.write_text(serialize_spherical(UnitVectorSet(d, tuple(vectors))))
        shapes.clear()
        assert main(["verify", "trace-rank", "--in", str(path)]) == 0
        out, _ = capsys.readouterr()
        assert out == record_json(ref_trace_rank(ref_gram(vectors))) + "\n"
        assert shapes == [(n, d)]
