import hashlib
import itertools

import numpy as np
import pytest

from codebounds.bounds import aq_upper, rho_lower
from codebounds.codes import min_distance
from codebounds.constructions import hadamard_code, sylvester_hadamard
from codebounds.errors import NodeLimitExceeded, PreconditionViolated
from codebounds.search import exact_max_code, greedy_lexicode, heuristic_rho


def test_exact_small_cases():
    assert exact_max_code(2, 3, 3).value == 2
    result = exact_max_code(2, 4, 2)
    assert result.value == 8
    assert result.optimal


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


def test_exact_node_limit():
    with pytest.raises(NodeLimitExceeded) as err:
        exact_max_code(2, 8, 3, node_limit=100)
    result = err.value.result
    assert result.optimal is False
    assert min_distance(result.witness) >= 3


def test_exact_rejects_oversized_space():
    with pytest.raises(PreconditionViolated):
        exact_max_code(4, 12, 3)


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
# its matrix products differently would change them)
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

@pytest.mark.parametrize("r, n, iterations, seed", [(2, 1, 10, 0), (0, 3, 10, 0),
                                                    (2, 5, -1, 0), (2, 5, 10, -1)])
def test_heuristic_rho_rejects_bad_inputs(r, n, iterations, seed):
    with pytest.raises(PreconditionViolated):
        heuristic_rho(r, n, iterations=iterations, seed=seed)
