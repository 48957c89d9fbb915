"""Desk-scale oracles: a branch-and-bound code search and a spherical minimax heuristic.

The exact searcher is a branch-and-bound maximum clique over the graph on
all q^r words with edges at Hamming distance >= s.  Candidate sets live in
arbitrary-precision bitmasks; the bound at each node is a greedy clique-cover
coloring of the candidates (classes are sets pairwise closer than s), which
prunes dense low-distance instances that a size-only bound cannot touch.
It runs as one loop over an explicit stack, so no recursion limit bounds its depth.
Both code searches read one table of neighbour masks, each the all-zero word's
mask translated by its word (the graph is a Cayley graph on Z_q^r).

Its ``optimal`` says only that the search finished within its node budget.
That is not yet a proof: the pruning can cut live branches, and README
lists nine sizes reported optimal that are too small (ROADMAP item 1a).
"""

import ctypes
import functools
import glob
import math
import operator
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .bounds import check_code_domain
from .codes import QaryCode, UnitVectorSet
from .errors import NodeLimitExceeded, PreconditionViolated

MAX_SEARCH_SPACE = 8192
# heuristic_rho's buffers hold at most n^2 + 3nr float64 values (128 MiB)
MAX_RHO_FLOATS = 2 ** 24
# np.exp rounds every input below this to 0.0
EXP_ZERO_BELOW = -746.0
# heuristic_rho's exp gather paid from n = 44 on (2000 iterations, 2-CPU Xeon:
# 4-14% slower at n <= 32, even at 36-40, 2-5% faster at 44, 5-14% at 48-64)
GATHER_MIN_N = 44
# entries per gather block: at most 48 KB each of indices and values, one
# block at a time (a single block at n = 200 raised the bench's peak RSS)
GATHER_BLOCK = 8192


@dataclass(slots=True)
class SearchResult:
    """Outcome of one search: optimum size or achieved alpha, plus the witness."""

    value: object            # int size (exact) or float alpha (heuristic)
    witness: object          # QaryCode or UnitVectorSet
    nodes: int               # nodes expanded / iterations run
    # the search finished within its node budget, which is not yet a proof
    # of optimality (ROADMAP item 1a); None for heuristics
    optimal: bool = None
    seed: int = None


def _word_table(q, r, s):
    """q^r x r array of digits: row w holds w's base-q digits, least significant first.

    Both code searches start here, so it checks their inputs before
    allocating, read as Python ints whatever integer type the caller gave.
    """
    q, r, s = check_code_domain(q, r, s)
    # q^r is spelled out only while it is quick to compute and within the
    # 4300 digits Python will print
    n = q ** r if r * math.log2(q) <= 4096 else None
    if n is None or n > MAX_SEARCH_SPACE:
        shown = f"{q}^{r}" if n is None else f"{q}^{r} = {n}"
        raise PreconditionViolated(f"search space {shown} exceeds {MAX_SEARCH_SPACE}")
    digits = np.zeros((n, r), dtype=np.int16)
    idx = np.arange(n)
    for pos in range(r):
        digits[:, pos] = idx % q
        idx = idx // q
    return digits


def _compatibility_masks(digits, q, s):
    """comp[u]: bitmask of the ids at Hamming distance >= s from word u.  For u below
    (q-1) q^j, word u + q^j raises u's digit j by one, so its mask is u's moved by +1
    mod q in digit j: ids below q - 1 there go up q^j, the rest down (q-1) q^j."""
    def packed(ok):
        return int.from_bytes(np.packbits(ok, bitorder="little").tobytes(), "little")
    comp = [packed((digits != 0).sum(axis=1) >= s)]
    for j in range(digits.shape[1]):
        step, low = q ** j, packed(digits[:, j] < q - 1)
        for _ in range(q - 1):      # the next q^j ids, from the last q^j
            comp += [(m & low) << step | (m & ~low) >> (q - 1) * step for m in comp[-step:]]
    return comp


def _lexicode(comp):
    """Ids the lexicographic scan keeps: each first word at distance >= s from all kept."""
    alive, kept = (1 << len(comp)) - 1, []
    while alive:
        v = (alive & -alive).bit_length() - 1    # the first word still at distance >= s
        kept.append(v)
        alive &= comp[v]
    return kept


def greedy_lexicode(q: int, r: int, s: int) -> QaryCode:
    """Keep each word (lexicographic scan) at distance >= s from all kept words."""
    q, r, s = check_code_domain(q, r, s)
    digits = _word_table(q, r, s)
    kept = _lexicode(_compatibility_masks(digits, q, s))
    # most significant digit first: id order is lexicographic order
    return QaryCode(q, r, digits[kept, ::-1])


def _colour_branches(cand, comp):
    """First-fit clique-cover colouring of cand in index order, as (colour, word)
    pairs sorted by word; colour classes are pairwise at distance < s.  Built one
    class at a time (MCQ's bitset colouring, Tomita and Seki 2003): class k takes,
    in index order, each word left by classes 1..k-1 at distance < s from all it
    holds."""
    order, colour = [], 0
    while cand:
        colour, free = colour + 1, cand
        while free:
            bit = free & -free
            v = bit.bit_length() - 1
            order.append((colour, v))
            cand ^= bit
            free = (free ^ bit) & ~comp[v]
    order.sort(key=itemgetter(1))
    return order


def exact_max_code(q: int, r: int, s: int, node_limit: int = 10_000_000) -> SearchResult:
    """Largest q-ary code of block length r and distance >= s that the search finds.

    ``optimal`` on the result means the search finished within
    ``node_limit``; it is not yet a proof that no larger code exists, since
    the pruning can cut live branches (ROADMAP item 1a).

    The all-zero word is pinned (symbol permutations per coordinate preserve
    distances and act transitively, so some maximum code contains it).  The
    incumbent is kept as word ids, the lexicode's first, and the witness words
    are written from them at the end, most significant digit first.  Raises
    NodeLimitExceeded carrying the best witness when the budget runs out.
    """
    node_limit = operator.index(node_limit)
    if node_limit < 0:
        raise PreconditionViolated(f"need node_limit >= 0, got {node_limit}")
    q, r, s = check_code_domain(q, r, s)
    digits = _word_table(q, r, s)
    comp = _compatibility_masks(digits, q, s)
    best = _lexicode(comp)
    # path holds the chosen words, and frames, for each ancestor of the
    # current node, its live candidates and untried (colour, word) branches
    path, frames = [0], []
    cand, nodes = comp[0], 0
    while path:
        nodes += 1
        if nodes > node_limit:
            break
        if len(path) > len(best):
            best = path.copy()
        live, branches = cand, _colour_branches(cand, comp)
        # the first colour that cannot beat the incumbent ends the node;
        # the search resumes at the deepest node with a branch left
        while not branches or len(path) + branches[-1][0] <= len(best):
            path.pop()
            if not frames:
                break
            live, branches = frames.pop()
        else:
            v = branches.pop()[1]
            live &= ~(1 << v)
            frames.append((live, branches))
            cand = live & comp[v]
            path.append(v)
    optimal = nodes <= node_limit
    witness = QaryCode(q, r, digits[best, ::-1])
    result = SearchResult(len(best), witness, nodes, optimal=optimal)
    if not optimal:
        raise NodeLimitExceeded(result)
    return result


@functools.cache
def _openblas_set_num_threads_local():
    """``openblas_set_num_threads_local`` of the OpenBLAS numpy bundles, or None.

    The library is the file numpy's wheels ship beside the package
    (``numpy.libs`` on Linux and Windows, ``numpy/.dylibs`` on macOS), looked
    up on first use.  None where numpy bundles no OpenBLAS or it lacks the symbol.
    """
    package = os.path.dirname(np.__file__)
    for path in sorted(glob.glob(os.path.join(package + ".libs", "*openblas*"))
                       + glob.glob(os.path.join(package, ".dylibs", "*openblas*"))):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


# numpy's OpenBLAS is a pthreads build, whose count is one per process, so
# concurrent callers take turns at setting and restoring it
_one_blas_thread_lock = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then give the caller's count back.

    At the optimizer's shapes the threaded products cost more than they save,
    and they round some entries differently, so the witness followed the
    thread count.  Without the library or the symbol the block runs as it is.
    """
    setter = _openblas_set_num_threads_local()
    if setter is None:
        yield
        return
    with _one_blas_thread_lock:
        previous = setter(1)
        try:
            yield
        finally:
            setter(previous)


def heuristic_rho(r: int, n: int, iterations: int = 2000, seed: int = 0) -> SearchResult:
    """Push n unit vectors in R^r apart by annealed log-sum-exp descent.

    Each iteration smooths the maximum pairwise inner product at temperature
    tau_i = 0.97^i (floored at 1e-9 to stay in float range), takes one
    normalized tangent step against its gradient, and renormalizes to the
    sphere.  The step length starts at 0.5, halves (down to 1e-12) whenever
    the true maximum got worse and grows by 5% (up to 0.5) otherwise, which
    lets late iterations polish to ~1e-12.
    The reported value is the true maximum pairwise inner product of the
    final configuration.

    Deterministic for a fixed seed whatever ``OPENBLAS_NUM_THREADS``, with
    numpy's bundled OpenBLAS: the loop runs on one BLAS thread and gives the
    caller's count back after (with another BLAS, its threading decides).
    One thread is slower at large shapes on several CPUs (25-30 % at
    r = 500, n = 3000 on a 2-CPU Xeon); there is no size gate, so the
    witness never follows the thread count.  That OpenBLAS keeps one count
    per process, so while the loop runs every OpenBLAS call in the process,
    on any Python thread, runs on one thread, and concurrent calls of this
    function take turns at the loop.

    Every iteration works in four arrays allocated once per run (the n x n
    weights, two n x r and one n x 1) and performs the same floating-point
    operations in the same order as a loop with fresh temporaries
    (``v @ v.T``, ``np.where`` over an off-diagonal mask, ``np.linalg.norm``),
    its products through np.dot, which makes the same BLAS calls as ``@``, so
    the results are bit-identical to that loop's on one BLAS thread for every
    seed.

    Once tau < 2/746 a scaled weight (w - max)/tau can fall below -746, and
    np.exp rounds every such input to 0.0 (e^-746 is below 2^-1075, half the
    least subnormal), slowly.  So from n = GATHER_MIN_N on and below that tau,
    the weights are taken GATHER_BLOCK at a time: np.exp runs on a block's
    entries at or above -746 only, and every other entry (the -inf diagonal
    included) is set to the 0.0 np.exp would give, so the bits stay the same.
    The size gate keeps the gather off where its extra calls cost more than
    they save, and the blocks keep its index and value temporaries at 48 KB each.
    Raises PreconditionViolated for n < 2, r < 1, iterations < 0, seed < 0
    or n^2 + 3nr > MAX_RHO_FLOATS.
    """
    r, n, iterations, seed = map(operator.index, (r, n, iterations, seed))
    if n < 2 or r < 1:
        raise PreconditionViolated(f"need n >= 2 and r >= 1, got n={n}, r={r}")
    if iterations < 0 or seed < 0:
        raise PreconditionViolated(
            f"need iterations >= 0 and seed >= 0, got iterations={iterations}, seed={seed}")
    if n * n + 3 * n * r > MAX_RHO_FLOATS:
        raise PreconditionViolated(
            f"need n^2 + 3nr <= {MAX_RHO_FLOATS} float64 values, got n={n}, r={r}")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, r))
    w = np.empty((n, n))        # the Gram, then the softmax weights
    grad = np.empty((n, r))
    tmp = np.empty((n, r))
    col = np.empty((n, 1))
    flat_w = w.reshape(-1)
    flat_grad = grad.reshape(-1)
    fill_diagonal = flat_w[::n + 1].fill
    vt = v.T                    # v changes in place only, so this view stays current
    # np.dot makes the BLAS calls `@` makes on these contiguous float64 arrays
    # (syrk for v v^T, gemm or gemv for w v), with less overhead per call
    dot, multiply, divide, subtract = np.dot, np.multiply, np.divide, np.subtract
    exp, sqrt, add_reduce, max_reduce = np.exp, np.sqrt, np.add.reduce, np.maximum.reduce
    greater_equal, flatnonzero = np.greater_equal, np.flatnonzero
    # (w - max)/tau >= -2/tau, so only below this tau can an entry reach EXP_ZERO_BELOW
    gather_below = 2 / -EXP_ZERO_BELOW if n >= GATHER_MIN_N else 0.0
    if gather_below:
        survivors = np.empty(min(n * n, GATHER_BLOCK), dtype=bool)
        parts = [flat_w[lo:lo + GATHER_BLOCK] for lo in range(0, n * n, GATHER_BLOCK)]
        blocks = [(part, survivors[:part.size]) for part in parts]

    step = 0.5
    previous_max = math.inf
    # pass i renormalises the start (i = 0) or step i's result and reads its
    # maximum; the last pass reports it
    with _one_blas_thread():
        for i in range(iterations + 1):
            # v /= np.linalg.norm(v, axis=1, keepdims=True)
            multiply(v, v, tmp)
            add_reduce(tmp, 1, None, col, True)
            sqrt(col, col)
            divide(v, col, v)
            # the largest off-diagonal inner product; the diagonal is left at -inf
            dot(v, vt, w)
            fill_diagonal(-math.inf)
            current_max = float(max_reduce(w, None))
            if i == iterations:
                break
            tau = max(0.97 ** i, 1e-9)
            subtract(w, current_max, w)
            divide(w, tau, w)
            if tau < gather_below:
                for part, part_survivors in blocks:
                    greater_equal(part, EXP_ZERO_BELOW, part_survivors)
                    keep = flatnonzero(part_survivors)
                    kept = part[keep]
                    exp(kept, kept)
                    part.fill(0.0)
                    part[keep] = kept
                    del keep, kept          # one block's temporaries alive at a time
            else:
                exp(w, w)
            divide(w, add_reduce(w, None), w)
            dot(w, v, grad)                         # d/dv_i of the smoothed max
            multiply(grad, v, tmp)                  # minus the radial part
            add_reduce(tmp, 1, None, col, True)
            multiply(col, v, tmp)
            subtract(grad, tmp, grad)
            if current_max > previous_max:
                step = max(step * 0.5, 1e-12)
            else:
                step = min(step * 1.05, 0.5)
            previous_max = current_max
            norm = math.sqrt(dot(flat_grad, flat_grad))     # np.linalg.norm(grad)
            if norm > 0:
                multiply(grad, step, grad)
                divide(grad, norm, grad)
                subtract(v, grad, v)
    witness = UnitVectorSet(r, v.tolist())
    return SearchResult(current_max, witness, iterations, optimal=None, seed=seed)
