"""Desk-scale ground truth: exhaustive code search and a spherical minimax heuristic.

The exact searcher is a branch-and-bound maximum clique over the graph on
all q^r words with edges at Hamming distance >= s.  Candidate sets live in
arbitrary-precision bitmasks; the bound at each node is a greedy clique-cover
coloring of the candidates (classes are sets pairwise closer than s), which
prunes dense low-distance instances that a size-only bound cannot touch.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .codes import QaryCode, UnitVectorSet
from .errors import NodeLimitExceeded, PreconditionViolated

MAX_SEARCH_SPACE = 8192


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one search: optimum size or achieved alpha, plus the witness."""

    value: object            # int size (exact) or float alpha (heuristic)
    witness: object          # QaryCode or UnitVectorSet
    nodes: int               # nodes expanded / iterations run
    optimal: bool = None     # exhaustiveness flag; None for heuristics
    seed: int = None


def _word_table(q, r):
    """q^r x r array of digits: row w holds w's base-q digits, least significant first."""
    n = q ** r
    digits = np.zeros((n, r), dtype=np.int8)
    idx = np.arange(n)
    for pos in range(r):
        digits[:, pos] = idx % q
        idx = idx // q
    return digits


def greedy_lexicode(q: int, r: int, s: int) -> QaryCode:
    """Keep each word (lexicographic scan) at distance >= s from all kept words."""
    if not 1 <= s <= r:
        raise PreconditionViolated(f"need 1 <= s <= r, got s={s}, r={r}")
    # most significant digit first: row order is lexicographic order
    digits = _word_table(q, r)[:, ::-1]
    alive = np.ones(len(digits), dtype=bool)
    kept = []
    while alive.any():
        v = int(alive.argmax())    # the first word still at distance >= s
        kept.append(v)
        alive[v:] &= (digits[v:] != digits[v]).sum(axis=1) >= s
    return QaryCode(q, r, tuple(map(tuple, digits[kept].tolist())), claimed_distance=s)


def _compatibility_masks(digits, s):
    """Per-word bitmask of words at Hamming distance >= s (numpy-packed)."""
    masks = []
    for u in range(len(digits)):
        dist = (digits != digits[u]).sum(axis=1)
        ok = dist >= s
        ok[u] = False
        packed = np.packbits(ok, bitorder="little").tobytes()
        masks.append(int.from_bytes(packed, "little"))
    return masks


def exact_max_code(q: int, r: int, s: int, node_limit: int = 10_000_000) -> SearchResult:
    """Maximum size of a q-ary code with block length r and distance >= s.

    The all-zero word is pinned (symbol permutations per coordinate preserve
    distances and act transitively, so some maximum code contains it).  Raises
    NodeLimitExceeded carrying the best witness when the budget runs out.
    """
    if not 1 <= s <= r:
        raise PreconditionViolated(f"need 1 <= s <= r, got s={s}, r={r}")
    n_words = q ** r
    if n_words > MAX_SEARCH_SPACE:
        raise PreconditionViolated(
            f"search space {q}^{r} = {n_words} exceeds {MAX_SEARCH_SPACE}")
    # recursion depth is bounded by the maximum code size
    limit = sys.getrecursionlimit()
    if limit < n_words + 128:
        sys.setrecursionlimit(n_words + 128)
    digits = _word_table(q, r)
    comp = _compatibility_masks(digits, s)
    seed_code = greedy_lexicode(q, r, s)
    best_size = len(seed_code)
    best_words = [tuple(w) for w in seed_code.words]
    nodes = 0
    stack_words = [0]

    class _Budget(Exception):
        pass

    def expand(cand):
        nonlocal nodes, best_size, best_words
        nodes += 1
        if nodes > node_limit:
            raise _Budget()
        size = len(stack_words)
        if size > best_size:
            best_size = size
            best_words = digits[stack_words].tolist()
        if not cand:
            return
        # greedy clique-cover coloring: classes are pairwise at distance < s
        classes = []
        order = []
        w = cand
        while w:
            v = (w & -w).bit_length() - 1
            w &= w - 1
            cv = comp[v]
            for ci in range(len(classes)):
                if cv & classes[ci] == 0:
                    classes[ci] |= 1 << v
                    order.append((ci + 1, v))
                    break
            else:
                classes.append(1 << v)
                order.append((len(classes), v))
        live = cand
        for color, v in reversed(order):
            if size + color <= best_size:
                return
            live &= ~(1 << v)
            stack_words.append(v)
            expand(live & comp[v])
            stack_words.pop()

    try:
        expand(comp[0])
        optimal = True
    except _Budget:
        optimal = False
    witness = QaryCode(q, r, tuple(best_words), claimed_distance=s)
    result = SearchResult(best_size, witness, nodes, optimal=optimal)
    if not optimal:
        raise NodeLimitExceeded(result)
    return result


def heuristic_rho(r: int, n: int, iterations: int = 2000, seed: int = 0) -> SearchResult:
    """Push n unit vectors in R^r apart by annealed log-sum-exp descent.

    Each iteration smooths the maximum pairwise inner product at temperature
    tau_i = 0.97^i (floored at 1e-9 to stay in float range), takes one
    normalized tangent step against its gradient, and renormalizes to the
    sphere.  The step length starts at 0.5, halves (down to 1e-12) whenever
    the true maximum got worse and grows by 5% (up to 0.5) otherwise, which
    lets late iterations polish to ~1e-12.
    Deterministic for a fixed seed; the reported value is the true maximum
    pairwise inner product of the final configuration.

    Every iteration works in four arrays allocated once per run (the n x n
    weights, two n x r and one n x 1) and performs the same floating-point
    operations in the same order as a loop with fresh temporaries
    (``v @ v.T``, ``np.where`` over an off-diagonal mask, ``np.linalg.norm``),
    so the results are bit-identical to that loop's for every seed.
    Raises PreconditionViolated for n < 2, r < 1, iterations < 0 or seed < 0.
    """
    if n < 2 or r < 1:
        raise PreconditionViolated(f"need n >= 2 and r >= 1, got n={n}, r={r}")
    if iterations < 0 or seed < 0:
        raise PreconditionViolated(
            f"need iterations >= 0 and seed >= 0, got iterations={iterations}, seed={seed}")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, r))
    w = np.empty((n, n))        # the Gram, then the softmax weights
    grad = np.empty((n, r))
    tmp = np.empty((n, r))
    col = np.empty((n, 1))
    diagonal = w.reshape(-1)[::n + 1]
    flat_grad = grad.reshape(-1)

    def renormalize():
        # v /= np.linalg.norm(v, axis=1, keepdims=True), step for step
        np.multiply(v, v, out=tmp)
        np.add.reduce(tmp, axis=1, keepdims=True, out=col)
        np.sqrt(col, out=col)
        np.divide(v, col, out=v)

    def gram_max():
        # the largest off-diagonal inner product; the diagonal is left at -inf
        np.matmul(v, v.T, out=w)
        diagonal.fill(-np.inf)
        return np.maximum.reduce(w, axis=None)

    renormalize()
    step = 0.5
    previous_max = np.inf
    for i in range(iterations):
        tau = max(0.97 ** i, 1e-9)
        current_max = gram_max()
        w -= current_max
        w /= tau
        np.exp(w, out=w)
        w /= np.add.reduce(w, axis=None)
        np.matmul(w, v, out=grad)               # d/dv_i of the smoothed max
        np.multiply(grad, v, out=tmp)           # minus the radial part
        np.add.reduce(tmp, axis=1, keepdims=True, out=col)
        np.multiply(col, v, out=tmp)
        grad -= tmp
        if current_max > previous_max:
            step = max(step * 0.5, 1e-12)
        else:
            step = min(step * 1.05, 0.5)
        previous_max = current_max
        norm = math.sqrt(flat_grad.dot(flat_grad))   # np.linalg.norm(grad)
        if norm > 0:
            grad *= step
            grad /= norm
            v -= grad
        renormalize()
    achieved = float(gram_max())
    witness = UnitVectorSet(r, tuple(map(tuple, v.tolist())))
    return SearchResult(achieved, witness, iterations, optimal=None, seed=seed)
