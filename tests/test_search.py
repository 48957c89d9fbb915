import hashlib
import itertools
import re
import sys

import numpy as np
import pytest

from codebounds import search
from codebounds.bounds import aq_upper, rho_lower
from codebounds.codes import QaryCode, min_distance
from codebounds.constructions import hadamard_code, sylvester_hadamard
from codebounds.errors import NodeLimitExceeded, PreconditionViolated
from codebounds.search import (_colour_branches, _compatibility_masks, _word_table,
                               exact_max_code, greedy_lexicode, heuristic_rho)
from test_codes_core import hamming_distance


def test_exact_small_cases():
    assert exact_max_code(2, 3, 3).value == 2
    result = exact_max_code(2, 4, 2)
    assert result.value == 8
    assert result.optimal


@pytest.mark.xfail(reason="exact_max_code is not yet sound (see ROADMAP): it stops at the "
                   "first colour that cannot beat the incumbent, cutting live branches")
def test_exact_search_known_wrong_optima():
    # binary A(9,5) = 6, A(10,6) = 6 and A(9,4) = 20, and ternary A3(6,5) = 4;
    # the search claims optimal=True on 4, 4 and 16, each after one node, and
    # on 3 after 225 nodes
    truth = {(2, 9, 5): 6, (2, 10, 6): 6, (2, 9, 4): 20, (3, 6, 5): 4}
    found = {}
    for (q, r, s) in truth:
        result = exact_max_code(q, r, s)
        found[q, r, s] = (result.value, result.optimal)
    assert found == {key: (size, True) for key, size in truth.items()}


def test_exact_witness_replay():
    result = exact_max_code(2, 4, 2)
    witness = result.witness
    assert len(witness) == result.value
    assert min_distance(witness) >= 2
    assert (0, 0, 0, 0) in witness.words


def test_exact_matches_hadamard_family():
    for t in (1, 2, 3):
        r = 1 << t
        code = hadamard_code(sylvester_hadamard(t))
        result = exact_max_code(2, r, r // 2)
        assert result.optimal
        assert result.value == len(code) == 2 * r


def test_exact_within_certified_upper_bound():
    for (q, r, s) in [(2, 4, 2), (2, 6, 3), (2, 8, 4), (3, 3, 2)]:
        result = exact_max_code(q, r, s)
        report = aq_upper(q, r, s)
        if report.status == "certified-exact":
            assert result.value <= report.value


def test_exact_known_ternary():
    # full q^r code at s=1, and the ternary Hamming-type value at (4, 3)
    assert exact_max_code(3, 2, 1).value == 9
    assert exact_max_code(3, 4, 3).value == 9


@pytest.mark.parametrize("node_limit", [100, 0])
def test_exact_node_limit(node_limit):
    with pytest.raises(NodeLimitExceeded) as err:
        exact_max_code(2, 8, 3, node_limit=node_limit)
    result = err.value.result
    assert result.nodes == node_limit + 1
    assert result.optimal is False
    assert min_distance(result.witness) >= 3


@pytest.mark.parametrize("q, r, s, size, nodes", [
    (2, 6, 3, 8, 4), (3, 4, 2, 27, 108), (5, 3, 2, 25, 1894),
])
def test_exact_node_counts(q, r, s, size, nodes):
    # pinned for the current pruning rule: branching order, candidate
    # updates and incumbent updates all show in the count
    result = exact_max_code(q, r, s)
    assert (result.value, result.nodes, result.optimal) == (size, nodes, True)
    assert min_distance(result.witness) >= s


def test_ternary_length_6_distance_5_code_of_four_words():
    # A3(6,5) >= 4, one word more than the search reports as optimal
    code = QaryCode(3, 6, ((0, 0, 0, 0, 0, 0), (0, 1, 1, 1, 1, 1), (1, 0, 1, 2, 2, 2),
                           (2, 2, 2, 0, 1, 2)))
    assert min_distance(code) == 5


def test_exact_witness_is_written_most_significant_digit_first():
    # A3(3,2): the lexicode keeps 7 words and the search finds 9, so the
    # witness is the search's path, the pinned all-zero word first.  Branches
    # are taken highest id first, so the ids that follow, read with the first
    # digit most significant (as greedy_lexicode writes words), descend
    assert len(greedy_lexicode(3, 3, 2)) == 7
    result = exact_max_code(3, 3, 2)
    assert (result.value, result.nodes, result.optimal) == (9, 21, True)
    assert result.witness.words == ((0, 0, 0), (2, 2, 0), (2, 1, 1), (2, 0, 2), (1, 2, 2),
                                    (1, 1, 0), (1, 0, 1), (0, 2, 1), (0, 1, 2))
    ids = [9 * a + 3 * b + c for a, b, c in result.witness.words]
    assert ids[1:] == sorted(ids[1:], reverse=True)
    assert min_distance(result.witness) >= 2


def test_exact_search_leaves_the_recursion_limit_alone():
    # 2^10 words, more than the limit: the search must neither need a
    # higher limit nor set one for the whole process
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert exact_max_code(2, 10, 5).optimal
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def bits(x):
    """The places of x's one bits, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mcq_max_code(q, r, s):
    """A_q(r, s) by plain colour-sorted MCQ (Tomita and Seki, 2003) on the
    graph of words at distance >= s, with the all-zero word pinned: a
    reference that shares no code with search.py and has no lexicode seed."""
    words = np.array(list(itertools.product(range(q), repeat=r)))
    far = (words[:, None] != words[None]).sum(axis=2) >= s
    adj = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in far]
    best = 0

    def expand(size, cand):
        nonlocal best
        best = max(best, size)
        # each candidate in index order joins the first colour class with no
        # neighbour of it; the branches are taken highest colour first
        classes = []
        for v in bits(cand):
            k = next((k for k, cls in enumerate(classes) if not adj[v] & cls), len(classes))
            if k == len(classes):
                classes.append(0)
            classes[k] |= 1 << v
        for colour, cls in reversed(list(enumerate(classes, start=1))):
            for v in bits(cls):
                if size + colour <= best:
                    return
                expand(size + 1, cand & adj[v])
                cand &= ~(1 << v)

    expand(1, adj[0])
    return best


# every (q, r, s) with q^r <= 256, q <= 6 and 2 <= s <= r but A(8,3) and
# A3(5,3), where the reference needs more than 200,000 nodes
MCQ_CASES = [(q, r, s) for q in range(2, 7) for r in range(2, 9) if q ** r <= 256
             for s in range(2, r + 1) if (q, r, s) not in ((2, 8, 3), (3, 5, 3))]
UNFINISHED = {
    (3, 5, 2): "A3(5,2) = 81, the sum-zero code",
    (6, 3, 2): "A6(3,2) = 36, which the search proves after 732,882 nodes",
}


@pytest.mark.parametrize("q, r, s", [
    pytest.param(*case, marks=pytest.mark.xfail(
        reason=f"{UNFINISHED[case]}; exact_max_code does not finish within the budget "
        "(see ROADMAP item 1)")) if case in UNFINISHED else case
    for case in MCQ_CASES])
def test_exact_search_matches_plain_mcq(q, r, s):
    try:
        result = exact_max_code(q, r, s, node_limit=20_000)
    except NodeLimitExceeded as exc:
        result = exc.result
    assert (result.value, result.optimal) == (mcq_max_code(q, r, s), True)


@pytest.mark.parametrize("search", [exact_max_code, greedy_lexicode])
@pytest.mark.parametrize("q, r, s, message", [
    (-2, 3, 1, "alphabet size must be >= 2, got -2"),
    (0, 3, 1, "alphabet size must be >= 2, got 0"),
    (1, 3, 1, "alphabet size must be >= 2, got 1"),
    (2, 3, 4, "need 1 <= s <= r, got s=4, r=3"),
    (2, 40, 20, "search space 2^40 = 1099511627776 exceeds 8192"),
    (4, 12, 3, "search space 4^12 = 16777216 exceeds 8192"),
    (2, 20000, 1, "search space 2^20000 exceeds 8192"),
], ids=["q-2", "q0", "q1", "s-above-r", "2^40", "4^12", "2^20000"])
def test_searches_check_their_inputs_before_allocating(monkeypatch, search, q, r, s, message):
    def no_table(*args, **kwargs):
        raise AssertionError("word table allocated before the input check")

    monkeypatch.setattr(np, "zeros", no_table)
    with pytest.raises(PreconditionViolated, match=f"^{re.escape(message)}$"):
        search(q, r, s)


def test_exact_rejects_a_negative_node_limit_before_allocating(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("word table allocated before the input check")

    monkeypatch.setattr(np, "zeros", no_table)
    with pytest.raises(PreconditionViolated, match=r"^need node_limit >= 0, got -5$"):
        exact_max_code(2, 4, 2, node_limit=-5)


@pytest.mark.parametrize("q", range(2, 11))
def test_masks_match_pairwise_hamming_distance(q):
    # every (q, r, s) with q^r <= 512; id u is the u-th word of the
    # lexicographic product, whose last digit is the least significant
    r = 1
    while q ** r <= 512:
        words = list(itertools.product(range(q), repeat=r))
        # by_distance[u][d]: bitmask of the words at distance exactly d from u;
        # the masks of one u are disjoint, so their sum is their union
        by_distance = [[0] * (r + 1) for _ in words]
        for u, x in enumerate(words):
            for v, y in enumerate(words):
                by_distance[u][hamming_distance(x, y)] |= 1 << v
        for s in range(1, r + 1):
            comp = _compatibility_masks(_word_table(q, r, s), q, s)
            assert len(comp) == q ** r, (q, r, s)
            for u, masks in enumerate(by_distance):
                assert comp[u] == sum(masks[s:]), (q, r, s, u)
                assert not comp[u] >> u & 1, (q, r, s, u)
        r += 1


def first_fit_colouring(cand, comp):
    # reference: each word in index order joins the first class with no
    # neighbour of it, as the search coloured before its class-by-class sweep
    classes = []
    order = []
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        cv = comp[v]
        for ci in range(len(classes)):
            if cv & classes[ci] == 0:
                classes[ci] |= 1 << v
                order.append((ci + 1, v))
                break
        else:
            classes.append(1 << v)
            order.append((len(classes), v))
    return order


@pytest.mark.parametrize("seed", range(20))
def test_colouring_matches_first_fit_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        n = int(rng.integers(1, 80))
        upper = np.triu(rng.random((n, n)) < rng.random(), 1)
        adjacent = (upper | upper.T).tolist()
        comp = [sum(1 << v for v in range(n) if row[v]) for row in adjacent]
        cand = sum(1 << v for v in range(n) if rng.random() < 0.8)
        assert _colour_branches(cand, comp) == first_fit_colouring(cand, comp)


@pytest.mark.parametrize("q, r, s", [(2, 8, 3), (2, 6, 1), (3, 5, 2), (4, 4, 3),
                                     (5, 3, 2), (16, 2, 1)])
def test_colouring_matches_first_fit_on_search_masks(q, r, s):
    comp = _compatibility_masks(_word_table(q, r, s), q, s)
    rng = np.random.default_rng(q * 100 + r * 10 + s)
    for cand in [(1 << len(comp)) - 1, comp[0], comp[0] & comp[comp[0].bit_length() - 1],
                 sum(1 << v for v in range(len(comp)) if rng.random() < 0.5)]:
        assert _colour_branches(cand, comp) == first_fit_colouring(cand, comp)


@pytest.mark.parametrize("q, r", [(2, 13), (3, 8), (4, 6), (5, 5)])
def test_searches_at_the_search_space_cap(q, r):
    # A_q(r, r) = q: codewords differ in every coordinate, the first one included
    result = exact_max_code(q, r, r)
    assert (result.value, result.optimal) == (q, True)
    assert min_distance(result.witness) == r
    code = greedy_lexicode(q, r, r)
    assert len(code) == q
    assert min_distance(code) == r


@pytest.mark.parametrize("q", [128, 129, 256, 8192])
def test_searches_take_symbols_beyond_int8(q):
    # one coordinate at distance 1: every word is kept, in symbol order
    words = tuple((a,) for a in range(q))
    assert greedy_lexicode(q, 1, 1).words == words
    if q <= 256:     # the root colouring is quadratic in q here
        result = exact_max_code(q, 1, 1)
        assert (result.value, result.optimal) == (q, True)
        assert sorted(result.witness.words) == list(words)


def test_greedy_reaches_the_search_space_cap():
    code = greedy_lexicode(2, 13, 13)
    assert code.words == ((0,) * 13, (1,) * 13)


def test_greedy_lexicode_example():
    code = greedy_lexicode(2, 3, 2)
    assert code.words == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_greedy_full_distance():
    for r in (3, 5, 10):
        code = greedy_lexicode(2, r, r)
        assert len(code) == 2
        assert code.words[1] == tuple([1] * r)


def test_greedy_output_distance_invariant():
    for (q, r, s) in [(2, 5, 2), (2, 6, 3), (3, 4, 2), (4, 3, 2)]:
        code = greedy_lexicode(q, r, s)
        assert min_distance(code) >= s


def _ball(word, q, radius):
    """Every word within Hamming distance radius of word."""
    for t in range(radius + 1):
        for positions in itertools.combinations(range(len(word)), t):
            for shifts in itertools.product(range(1, q), repeat=t):
                x = list(word)
                for p, d in zip(positions, shifts):
                    x[p] = (x[p] + d) % q
                yield tuple(x)


def _lexicographic_scan(q, r, s):
    """Reference lexicode: keep each word outside the radius s-1 balls of the kept ones."""
    blocked, kept = set(), []
    for w in itertools.product(range(q), repeat=r):
        if w not in blocked:
            kept.append(w)
            blocked.update(_ball(w, q, s - 1))
    return kept


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_greedy_matches_plain_lexicographic_scan(q):
    r = 1
    while q ** r <= 4096:
        for s in range(1, r + 1):
            code = greedy_lexicode(q, r, s)
            assert list(code.words) == _lexicographic_scan(q, r, s), (q, r, s)
            # maximal: the radius s-1 balls of the code cover the whole space
            covered = {x for w in code.words for x in _ball(w, q, s - 1)}
            assert len(covered) == q ** r, (q, r, s)
        r += 1


def test_heuristic_square_configuration():
    result = heuristic_rho(2, 4, seed=0)
    assert result.value <= 1e-6


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_heuristic_reaches_cross_polytope_quality(r):
    result = heuristic_rho(r, 2 * r, seed=0)
    assert result.value <= 1e-6
    smaller = heuristic_rho(r, 2 * r - 1, seed=0)
    assert smaller.value <= 1e-6


def test_heuristic_pentagon():
    result = heuristic_rho(2, 5, seed=3)
    bound = rho_lower(2, 1)
    assert result.value >= bound.value - 1e-6
    # the optimizer should land on the regular pentagon: cos(2 pi / 5)
    assert result.value == pytest.approx((5 ** 0.5 - 1) / 4, abs=1e-6)


def test_heuristic_witness_consistency():
    result = heuristic_rho(3, 7, seed=5)
    coords = np.array(result.witness.vectors)
    gram = coords @ coords.T
    np.fill_diagonal(gram, -np.inf)
    assert gram.max() == result.value
    assert np.allclose((coords ** 2).sum(axis=1), 1.0, atol=1e-12)


def test_heuristic_determinism():
    a = heuristic_rho(3, 8, iterations=500, seed=42)
    b = heuristic_rho(3, 8, iterations=500, seed=42)
    assert a.value == b.value
    assert a.witness.vectors == b.witness.vectors
    c = heuristic_rho(3, 8, iterations=500, seed=43)
    assert c.witness.vectors != a.witness.vectors


def test_search_witnesses_pass_their_verifiers():
    result = exact_max_code(2, 6, 3)
    assert min_distance(result.witness) >= 3
    heur = heuristic_rho(3, 7, seed=2)
    from codebounds.codes import verify_spherical_code
    assert verify_spherical_code(heur.witness, heur.value).verdict


def test_heuristic_never_below_certified_bound():
    for r in (2, 3, 4):
        for n in (2 * r + 1, 2 * r + 3):
            for seed in (0, 1):
                result = heuristic_rho(r, n, iterations=800, seed=seed)
                bound = rho_lower(r, n - 2 * r)
                assert result.value >= bound.value - 1e-6


# sha256 of repr((value, witness.vectors)) for heuristic_rho(r, n, iterations, seed):
# every float the optimizer returns, pinned bit for bit (a BLAS that rounds
# its matrix products differently would change them, and so would an np.exp
# that rounds differently or gives anything but 0.0 below EXP_ZERO_BELOW).
# The last three cases reach the entries np.exp underflows: r=50, n=200 and
# n = 44 (the size gate) take the exp gather from iteration 195 on, where tau
# first falls below 2/746, and n = 43 never; the last two run past tau's floor
# at iteration 681.
RHO_GOLDEN = [
    (1, 2, 300, 0, "f5ff261576f0d848a577abc9ef026d6d739bc00956ad06838403705dcad794c5"),
    (1, 2, 300, 9, "08d9bfea2e57a74e38ff0ed99b2f0b4cd0ddea2dfddc8c7b778553e5c2488649"),
    (5, 3, 300, 1, "54f681746e997b9ebdb5d268c3a118e3fce02e9403dde191ede1ac8e1522d696"),
    (7, 2, 300, 4, "935be48bc4df4021fb6304032163ef2d5daa6c5402bb6374ca664d77e4edd0d6"),
    (3, 6, 300, 0, "d5007cbb150649e952e83f65e622590f9ee2607fc0add004e4585a036f3d176d"),
    (3, 5, 300, 2, "a10b6e2b95f9c1c6f352efb411f9b45ff985b8cd3e1422cc46073b54daea29f8"),
    (4, 8, 300, 5, "53ff5b247291e4febf3de0ccd6b6a48f96c7e2e59ec94f8fff81a4318940cda9"),
    (4, 7, 300, 11, "2e8190673f6865920c87efe4e2ec2bddbe830ffa8ca20c397625f1b82c6f036e"),
    (3, 4, 0, 3, "1d7bc3fefc8ca3de6df595ae2a39b8f5a670ed9b41f7d00c4571f69be0e50fe6"),
    (2, 5, 2000, 1234567, "cf03486e015d86c67db8de1d18e0a592422b95ae8f99471ec8c4914a97f1e9ed"),
    (6, 18, 2000, 2 ** 31 - 1, "8ad19b731ee80b28fa938beb094fbefd3cef07019d116aad94573c1f6f9e9935"),
    (50, 200, 50, 77, "75b1f473f567c5194806b005a1402093ed3d4e18df8b0fc2d5cd93074ad3a1e0"),
    (50, 200, 300, 77, "adac285efcfa65428d01d54b72ff1540ebaf37f275ca34be94b51ac156f5df97"),
    (12, 44, 900, 5, "b2c6020e3921d87e801b43024332b3f763a67751978539def2553901df42e2e9"),
    (12, 43, 900, 6, "2994d8632dda86dd6758e85930b62ccab6666ac481f1654f8339fbee9a3b7d7e"),
]


@pytest.mark.parametrize("r, n, iterations, seed, digest", RHO_GOLDEN,
                         ids=[f"r{c[0]}-n{c[1]}-it{c[2]}-seed{c[3]}" for c in RHO_GOLDEN])
def test_heuristic_rho_golden_digests(r, n, iterations, seed, digest):
    result = heuristic_rho(r, n, iterations=iterations, seed=seed)
    blob = repr((result.value, result.witness.vectors)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert (result.nodes, result.seed, result.optimal) == (iterations, seed, None)


def _fresh_temporaries_rho(r, n, iterations, seed):
    """Reference: the optimizer loop with a fresh array for every step."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, r))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pair_mask = ~np.eye(n, dtype=bool)
    step, previous_max = 0.5, np.inf
    for i in range(iterations):
        tau = max(0.97 ** i, 1e-9)
        gram = v @ v.T
        current_max = gram[pair_mask].max()
        weights = np.exp(np.where(pair_mask, (gram - current_max) / tau, -np.inf))
        weights /= weights.sum()
        grad = weights @ v
        grad -= (grad * v).sum(axis=1, keepdims=True) * v
        step = max(step * 0.5, 1e-12) if current_max > previous_max else min(step * 1.05, 0.5)
        previous_max = current_max
        norm = np.linalg.norm(grad)
        if norm > 0:
            v -= step * grad / norm
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    gram = v @ v.T
    np.fill_diagonal(gram, -np.inf)
    return float(gram.max()), tuple(map(tuple, v.tolist()))


def test_heuristic_rho_equals_the_fresh_temporaries_loop():
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        r = int(rng.integers(1, 9))
        n = int(rng.choice([2, 3, r, 2 * r - 1, 2 * r, 2 * r + 1, rng.integers(2, 40)]))
        n, seed = max(n, 2), int(rng.integers(2 ** 31))
        result = heuristic_rho(r, n, iterations=200, seed=seed)
        assert (result.value, result.witness.vectors) == _fresh_temporaries_rho(r, n, 200, seed)
    # iterations 0 to 2, and n from GATHER_MIN_N on past iteration 195, where the
    # exp gather starts while most entries still survive
    for r, n, iterations, seed in [(8, 32, 400, 1), (12, 48, 400, 2), (20, 64, 400, 3),
                                   (3, 5, 0, 4), (3, 5, 1, 5), (4, 9, 2, 6), (12, 44, 0, 7),
                                   (12, 44, 1, 8), (12, 44, 2, 9), (12, 44, 270, 10)]:
        result = heuristic_rho(r, n, iterations=iterations, seed=seed)
        expected = _fresh_temporaries_rho(r, n, iterations, seed)
        assert (result.value, result.witness.vectors) == expected, (r, n, iterations)


def test_exp_underflows_to_zero_below_the_gather_floor():
    # the exp gather zeroes every entry below EXP_ZERO_BELOW without calling np.exp
    assert search.EXP_ZERO_BELOW == -746.0
    for x in (-746.0, np.nextafter(-746.0, -np.inf), -1000.0, -1e300, -np.inf):
        assert np.exp(np.array([x]))[0] == 0.0, x
        assert np.exp(np.full(64, x)).tolist() == [0.0] * 64, x
    least = np.exp(np.array([-745.0]))[0]
    assert 0.0 < least < np.finfo(np.float64).tiny


def _rho_bits(r, n, iterations, seed):
    result = heuristic_rho(r, n, iterations=iterations, seed=seed)
    return result.value, result.witness.vectors


def test_heuristic_rho_gather_and_plain_exp_agree(monkeypatch):
    rng = np.random.default_rng(20261019)
    cases = []
    for k in range(22):
        r = int(rng.integers(1, 9))
        n = [2, 3, max(r, 2), max(2 * r - 1, 2), 2 * r, 2 * r + 1][k % 6]
        cases.append((r, n, int(rng.integers(700, 900)), int(rng.integers(2 ** 31))))
    cases += [(1, 2, 700, 0), (8, 5, 720, 1)]
    plain = [_rho_bits(*case) for case in cases]
    # every shape gathers, in blocks of 7 entries so that most shapes take several
    monkeypatch.setattr(search, "GATHER_MIN_N", 2)
    monkeypatch.setattr(search, "GATHER_BLOCK", 7)
    assert [_rho_bits(*case) for case in cases] == plain
    large = (50, 200, 300, 21)
    gathered = _rho_bits(*large)
    monkeypatch.setattr(search, "GATHER_MIN_N", 10 ** 9)
    assert _rho_bits(*large) == gathered

@pytest.mark.parametrize("r, n, iterations, seed", [(2, 1, 10, 0), (0, 3, 10, 0),
                                                    (2, 5, -1, 0), (2, 5, 10, -1)])
def test_heuristic_rho_rejects_bad_inputs(r, n, iterations, seed):
    with pytest.raises(PreconditionViolated):
        heuristic_rho(r, n, iterations=iterations, seed=seed)
