"""Code objects and the inequality verifiers built on their Gram matrices.

A ``UnitVectorSet`` may carry an exact Gram oracle alongside float
coordinates; constructions with irrational coordinates but rational inner
products (simplices, distance-based embeddings) use this to keep all
certificates in exact arithmetic.  The oracle must be an ``IntegerGram``
(``linalg.gram_from_rows`` builds one from exact rows); anything else is
rejected.

Exact analysis works on an ``IntegerGram``: a rational file's coordinates
scaled to integers A = L*V give numerators A A^T over L^2, an oracle is one
already.  Fractions are made only for values that a certificate or an error
message prints.

Float analysis works on a ``FloatGram``, built from the coordinates converted
once by ``float`` into an (n, d) array; every sum in it adds left to right
from 0 (see ``linalg``).
"""

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .certificates import Certificate, make_link
from .errors import (AlphaOutOfRange, DuplicateCodewords, InvalidCode,
                     NonUnitVector, TooFewWords)
from .linalg import (FloatGram, IntegerGram, exact_array, float_kernel, rank,
                     scaled_integers, sequential_sums, trace_of_square)
from .scalars import EXACT, FLOAT, Scalar, format_scalar, mode_of, unit_norm_ok


@dataclass(frozen=True)
class UnitVectorSet:
    """n vectors in R^d claimed to lie on the unit sphere.

    ``exact_gram``, when given, is the exact Gram oracle, an IntegerGram.  The
    set is in float mode when it has no oracle and some coordinate is a float;
    then every coordinate, exact ones too, enters its Gram through ``float``.
    """

    dimension: int
    vectors: tuple
    labels: tuple = ()
    exact_gram: IntegerGram = None
    _mode: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vectors = tuple(tuple(v) for v in self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if not vectors:
            raise InvalidCode("a vector set needs at least one vector")
        for i, v in enumerate(vectors):
            if len(v) != self.dimension:
                raise InvalidCode(f"vector {i} has {len(v)} coordinates, expected {self.dimension}")
        labels = tuple(self.labels) or tuple(f"v{i}" for i in range(len(vectors)))
        if len(labels) != len(vectors):
            raise InvalidCode("label count differs from vector count")
        object.__setattr__(self, "labels", labels)
        gram = self.exact_gram
        if gram is not None:
            if not isinstance(gram, IntegerGram):
                raise InvalidCode("an exact Gram oracle needs exact entries")
            if gram.n != len(vectors):
                raise InvalidCode("exact Gram dimension differs from vector count")
        floating = gram is None and any(mode_of(x) == FLOAT for v in vectors for x in v)
        object.__setattr__(self, "_mode", FLOAT if floating else EXACT)

    def __len__(self):
        return len(self.vectors)

    def mode(self) -> str:
        return self._mode

    @cached_property
    def coords(self) -> np.ndarray:
        """The (n, d) float64 array of ``float(x)`` for every coordinate x.

        Raises InvalidCode when an exact coordinate is beyond the float range.
        """
        try:
            return np.array(self.vectors, dtype=np.float64)
        except OverflowError:
            raise InvalidCode("a coordinate is beyond the float range") from None

    def raw_gram(self) -> IntegerGram | FloatGram:
        """Gram matrix without any unit-norm enforcement.

        Raises InvalidCode when a float squared norm overflows to infinity.
        """
        if self.mode() == EXACT:
            return integer_gram(self)
        return _float_gram(self.coords)


@float_kernel
def _squared_norms(v) -> np.ndarray:
    return sequential_sums(v * v)


@float_kernel
def _float_gram(v) -> FloatGram:
    """G = sum over k of outer(v[:, k], v[:, k]), added from zeros one column
    at a time: each entry is its pair's products summed left to right from 0.
    The squared norms are checked first."""
    bad = np.flatnonzero(~np.isfinite(_squared_norms(v)))
    if bad.size:
        # a finite squared norm bounds the row's products (Cauchy-Schwarz)
        raise InvalidCode(f"vector {int(bad[0])}: squared norm overflows a float")
    n = len(v)
    g, term = np.zeros((n, n)), np.empty((n, n))
    for column in np.ascontiguousarray(v.T):
        np.multiply(column[:, None], column, out=term)
        g += term
    return FloatGram(g)


def _dot(u, v) -> Scalar:
    """Sum of coordinate products from 0, left to right: a Gram entry's value and type."""
    s = 0
    for a, b in zip(u, v):
        s += a * b
    return s


@dataclass(frozen=True)
class GramAnalysis:
    """Gram matrix plus the per-vertex negative-edge data the lemmas use.

    ``gram`` is an IntegerGram in exact mode and a FloatGram in float mode.
    """

    gram: FloatGram | IntegerGram
    alpha: Scalar
    nplus: tuple      # per vertex, indices with inner product >= 0
    nminus: tuple     # per vertex, indices with inner product < 0
    gamma: tuple      # per vertex, sum of negative inner products
    labels: tuple

    @property
    def n(self) -> int:
        return self.gram.n

    def mode(self) -> str:
        return self.gram.mode()


@dataclass(frozen=True)
class QaryCode:
    """Codewords over {0..q-1} of a fixed block length, pairwise distinct."""

    q: int
    r: int
    words: tuple
    claimed_distance: int = None

    def __post_init__(self):
        if self.q < 2:
            raise InvalidCode(f"alphabet size {self.q} < 2")
        if self.r < 1:
            raise InvalidCode(f"block length {self.r} < 1")
        words = tuple(tuple(int(s) for s in w) for w in self.words)
        object.__setattr__(self, "words", words)
        for w in words:
            if len(w) != self.r:
                raise InvalidCode(f"codeword {w} has length {len(w)}, expected {self.r}")
            for s in w:
                if not 0 <= s < self.q:
                    raise InvalidCode(f"symbol {s} out of range [0, {self.q})")
        if len(set(words)) != len(words):
            raise DuplicateCodewords("codewords must be pairwise distinct")

    def __len__(self):
        return len(self.words)


def hamming_distance(x, y) -> int:
    """Positions where two words differ; raises ValueError when their lengths differ."""
    return sum(1 for a, b in zip(x, y, strict=True) if a != b)


def distance_matrix(code: QaryCode) -> np.ndarray:
    """n x n array of pairwise Hamming distances, built one row at a time."""
    w = np.array(code.words, dtype=np.int64)
    return np.array([(w != x).sum(axis=1) for x in w])


def min_distance(code: QaryCode) -> int:
    """Minimum pairwise Hamming distance; needs at least two codewords."""
    if len(code) < 2:
        raise TooFewWords(f"need >= 2 codewords, got {len(code)}")
    w = np.array(code.words, dtype=np.int64)
    return int(min((w[i + 1:] != w[i]).sum(axis=1).min() for i in range(len(w) - 1)))


def _require_unit_norms(norms, one, typed_norm):
    """Raise NonUnitVector at the first squared norm (numerator) that is not ``one``."""
    bad = np.flatnonzero(np.asarray(norms, dtype=object) != one)
    if bad.size:
        i = int(bad[0])
        raise NonUnitVector(i, typed_norm(i))


def integer_gram(vset: UnitVectorSet, unit: bool = False) -> IntegerGram:
    """The IntegerGram of an exact set: its oracle, or a file's A A^T over L^2
    with the coordinates A as the factor.  With ``unit`` every squared norm is
    first checked to be exactly 1; a file's before its Gram is formed."""
    g = vset.exact_gram
    if g is not None:
        if unit:
            _require_unit_norms(np.diagonal(g.num), g.den, lambda i: g.entry(i, i))
        return g
    a, den = scaled_integers(vset.vectors)
    # int64 only when each entry of A A^T stays below 2^63
    a = exact_array(a, vset.dimension)
    if unit:
        vectors = vset.vectors
        _require_unit_norms((a * a).sum(axis=1), den * den,
                            lambda i: _dot(vectors[i], vectors[i]))
    return IntegerGram(a @ a.T, den * den, a)


def _analyze_exact(vset: UnitVectorSet) -> GramAnalysis:
    g = integer_gram(vset, unit=True)
    n, num = g.n, g.num
    if n == 1:
        alpha = -1
    else:
        # the first maximum in row-major order, typed as the Gram entry is
        iu = np.triu_indices(n, 1)
        k = int(np.argmax(num[iu]))
        i, j = int(iu[0][k]), int(iu[1][k])
        alpha = g.entry(i, j) if vset.exact_gram is not None else \
            _dot(vset.vectors[i], vset.vectors[j])
    negative = num < 0       # never on the diagonal, which is den > 0
    gamma = tuple(g.value(int(x)) if x else 0
                  for x in np.where(negative, num, 0).sum(axis=1).tolist())
    return GramAnalysis(g, alpha, *_sign_partition(negative), gamma, vset.labels)


def _sign_partition(negative):
    """(nplus, nminus) from the mask of negative entries, which is never on the diagonal."""
    plus = ~negative
    np.fill_diagonal(plus, False)
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in plus), \
        tuple(tuple(np.flatnonzero(row).tolist()) for row in negative)


def _negative_sums(negative, values) -> tuple:
    """Per row, the sum of ``values`` where ``negative``, left to right from 0;
    the int 0 for a row with no negative entry, as that empty loop leaves it."""
    sums = sequential_sums(np.where(negative, values, 0.0)).tolist()
    return tuple(x if any_ else 0 for x, any_ in zip(sums, negative.any(axis=1).tolist()))


def _analyze_float(vset: UnitVectorSet) -> GramAnalysis:
    norms = _squared_norms(vset.coords).tolist()
    for i, norm_sq in enumerate(norms):
        if not unit_norm_ok(norm_sq, FLOAT):
            raise NonUnitVector(i, norm_sq)
    gram = vset.raw_gram()
    a, n = gram.a, gram.n
    # entries are sums from +0.0, so never -0.0: the maximum's bits are unique
    alpha = -1 if n == 1 else float(a[~np.eye(n, dtype=bool)].max())
    negative = a < 0         # never on the diagonal, which is within 1e-9 of 1
    return GramAnalysis(gram, alpha, *_sign_partition(negative),
                        _negative_sums(negative, a), vset.labels)


def gram_analyze(vset: UnitVectorSet) -> GramAnalysis:
    """Gram matrix with per-vertex sign partition and negative-edge sums.

    Raises NonUnitVector if any vector is off the unit sphere (exactly in
    exact mode, within the float policy in float mode), before the Gram is built.
    Ties at inner product 0 are classified as nonnegative.
    """
    if vset.mode() == EXACT:
        return _analyze_exact(vset)
    return _analyze_float(vset)


def verify_spherical_code(vset: UnitVectorSet, alpha_claim: Scalar) -> Certificate:
    """Certify that all norms are 1 and all pairwise products lie in [-1, claim].

    Violations are failing links, never exceptions.
    """
    gram = vset.raw_gram()
    n, rows = gram.n, gram.rows
    worst_norm = max(abs(rows[i][i] - 1) for i in range(n))
    links = [make_link("unit norms (max |<v,v>| deviation from 1)", worst_norm, 0)]
    if n >= 2:
        off = [rows[i][j] for i in range(n) for j in range(i + 1, n)]
        links.append(make_link("pairwise inner products at most the claim",
                               max(off), alpha_claim))
        links.append(make_link("pairwise inner products at least -1",
                               -1, min(off)))
    else:
        links.append(make_link("pairwise inner products at most the claim (empty: -1)",
                               -1, alpha_claim))
    return Certificate.from_links("spherical-code", links,
                                  meta={"n": n, "dimension": vset.dimension,
                                        "alpha_claim": format_scalar(alpha_claim)})


def _negative_energy(analysis: GramAnalysis) -> list:
    """Per vertex, the sum of its squared negative inner products."""
    gram = analysis.gram
    if isinstance(gram, IntegerGram):
        num = gram.num
        sums = np.where(num < 0, num * num, 0).sum(axis=1).tolist()
        return [gram.value(int(x), 2) for x in sums]
    a = gram.a
    return list(_negative_sums(a < 0, a * a))


def _require_alpha_in_range(alpha):
    if alpha < 0 or alpha >= 1:
        raise AlphaOutOfRange(alpha)


def verify_lemma_beta(analysis: GramAnalysis) -> Certificate:
    """Per vertex u: sum of squared negative products <= 1 + alpha * gamma(u)^2."""
    _require_alpha_in_range(analysis.alpha)
    alpha = analysis.alpha
    links = []
    for u, lhs in enumerate(_negative_energy(analysis)):
        g = analysis.gamma[u]
        links.append(make_link(f"negative-edge energy at vertex {analysis.labels[u]}",
                               lhs, 1 + alpha * g * g))
    return Certificate.from_links("negative-edge-energy", links,
                                  meta={"alpha": format_scalar(alpha), "n": analysis.n})


def verify_lemma_gamma(analysis: GramAnalysis) -> Certificate:
    """Sum over u of gamma(u)^2 <= 27/4 * (1 + alpha*n)^2 * n."""
    _require_alpha_in_range(analysis.alpha)
    alpha, n = analysis.alpha, analysis.n
    lhs = 0
    for g in analysis.gamma:
        lhs += g * g
    t = alpha * n
    rhs = Fraction(27, 4) * (1 + t) * (1 + t) * n
    link = make_link("total squared negative-edge load", lhs, rhs)
    return Certificate.from_links("negative-edge-load", [link],
                                  meta={"alpha": format_scalar(alpha), "n": n})


def certify_chain(vset: UnitVectorSet) -> Certificate:
    """Full inequality chain from the Gram spectra to the size bound.

    Links, in order: (i) n^2/rank <= tr(M^2); (ii) tr(M^2) <= 2n + t^2 +
    27/4 (1+t)^2 t with t = alpha*n; (iii) that alpha term <= 27/4((1+t)^3 - 1);
    (iv) n - 2*rank <= 27/8 ((1+t)^3 - 1).  The rank is used where the ambient
    dimension would also be valid (rank <= dimension, so the chain is at least
    as strong); both numbers are recorded in the metadata.
    """
    analysis = gram_analyze(vset)
    _require_alpha_in_range(analysis.alpha)
    gram = analysis.gram
    n = analysis.n
    rk = rank(gram)
    alpha = analysis.alpha
    t = alpha * n
    tsq = trace_of_square(gram)
    exact = gram.mode() == EXACT

    def ratio(num, den):
        return Fraction(num, den) if exact else num / den

    c274 = Fraction(27, 4)
    alpha_terms = t * t + c274 * (1 + t) * (1 + t) * t
    envelope = c274 * ((1 + t) ** 3 - 1)
    links = [
        make_link("squared trace over rank at most trace of square",
                  ratio(n * n, rk), tsq),
        make_link("trace of square at most the negative-edge bound",
                  tsq, 2 * n + alpha_terms),
        make_link("alpha terms at most the cubic envelope",
                  alpha_terms, envelope),
        make_link("size excess over twice the rank at most the cubic bound",
                  n - 2 * rk, Fraction(1, 2) * envelope),
    ]
    return Certificate.from_links(
        "gram-chain", links,
        meta={"n": n, "rank": rk, "ambient_dimension": vset.dimension,
              "alpha": format_scalar(alpha)})
