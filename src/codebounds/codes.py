"""Code objects and the inequality verifiers built on their Gram matrices.

An exact set's Gram is always computed, never supplied, from one of two
sources.  Rational coordinates scaled to integers A = L*V give numerators
A A^T over L^2.  The simplex image of a ``QaryCode`` (``UnitVectorSet.source``,
set by ``constructions``) has irrational coordinates for q >= 3 but rational
inner products, and its Gram comes from the code's Hamming distances
(``distance_gram``); the float coordinates beside it are not read.  Either
way the Gram is an ``IntegerGram``, and Fractions are made only for values
that a certificate or an error message prints.

A float set's Gram is a ``FloatGram``, built from the coordinates converted
once by ``float`` into an (n, d) array; every sum in it adds left to right
from 0 (see ``linalg``).  The mode decides only which Gram is built: the
analysis and the verifiers read both through the protocol they share.
"""

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .certificates import Certificate, make_link
from .errors import (AlphaOutOfRange, DuplicateCodewords, InvalidCode,
                     NonUnitVector, TooFewWords)
from .linalg import (FloatGram, IntegerGram, exact_array, float_kernel, negative_sums,
                     rank, scaled_integers, sequential_sums, trace_of_square)
from .scalars import EXACT, FLOAT, Scalar, format_scalar, mode_of, unit_norm_ok


@dataclass(frozen=True)
class UnitVectorSet:
    """n vectors in R^d claimed to lie on the unit sphere.

    ``source``, when given, is the QaryCode whose simplex image the vectors
    are: the exact Gram comes from its distances and the set is in exact mode.
    Otherwise the set is in float mode when some coordinate is a float; then
    every coordinate, exact ones too, enters its Gram through ``float``.
    """

    dimension: int
    vectors: tuple
    labels: tuple = ()
    source: "QaryCode" = None
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
        code = self.source
        if code is not None:
            if not isinstance(code, QaryCode):
                raise InvalidCode("the source of a vector set must be a QaryCode")
            if len(code) != len(vectors):
                raise InvalidCode("source code size differs from vector count")
            if (code.q - 1) * code.r != self.dimension:
                raise InvalidCode("a code image has dimension (q-1)r")
        floating = code is None and any(mode_of(x) == FLOAT for v in vectors for x in v)
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
def _float_gram(v, unit: bool = False) -> FloatGram:
    """G = sum over k of outer(v[:, k], v[:, k]), added from zeros one column
    at a time: each entry is its pair's products summed left to right from 0.
    The squared norms, summed the same way, are checked first: to be 1 within
    the float policy when ``unit``, then to be finite."""
    norms = sequential_sums(v * v)
    if unit:
        for i, norm_sq in enumerate(norms.tolist()):
            if not unit_norm_ok(norm_sq, FLOAT):
                raise NonUnitVector(i, norm_sq)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        # a finite squared norm bounds the row's products (Cauchy-Schwarz)
        raise InvalidCode(f"vector {int(bad[0])}: squared norm overflows a float")
    n = len(v)
    gram, term = FloatGram(np.zeros((n, n))), np.empty((n, n))
    for column in np.ascontiguousarray(v.T):
        np.multiply(column[:, None], column, out=term)
        gram.num += term
    return gram


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


def min_distance(code: QaryCode) -> int:
    """Minimum pairwise Hamming distance; needs at least two codewords."""
    if len(code) < 2:
        raise TooFewWords(f"need >= 2 codewords, got {len(code)}")
    w = np.array(code.words, dtype=np.int64)
    return int(min((w[i + 1:] != w[i]).sum(axis=1).min() for i in range(len(w) - 1)))


def distance_gram(code: QaryCode) -> IntegerGram:
    """Exact Gram of the simplex image: entry (x, y) is 1 - q*d(x,y)/((q-1)*r).

    With C = q*onehot(word) - 1 the Gram is C C^T / (q(q-1)r), and C C^T =
    q(q-1)r - q^2 * distance, one exact int64 product (``einsum``, whose
    integer loop beat both ``@`` and a loop over rows from n = 32 to 512); its
    diagonal is the denominator, so every word maps to a unit vector.  The
    factor is C without the last symbol's column in each coordinate block: a
    block's q columns sum to zero, so the dropped one lies in the span of the
    others and the rank is unchanged.  Full C has rank at most (q-1)r, below
    min(n, qr) once n > (q-1)r, so its rank mod p could not confirm itself and
    Bareiss elimination would always decide.
    """
    q, r, n = code.q, code.r, len(code)
    words = np.array(code.words, dtype=np.int64)
    c = (words[:, :, None] == np.arange(q)) * q - 1
    full = c.reshape(n, q * r)
    return IntegerGram(np.einsum("ik,jk->ij", full, full), q * (q - 1) * r,
                       c[:, :, :-1].reshape(n, (q - 1) * r))


def integer_gram(vset: UnitVectorSet, unit: bool = False) -> IntegerGram:
    """The IntegerGram of an exact set: its source code's ``distance_gram``, or
    a file's A A^T over L^2 with the coordinates A as the factor.  With
    ``unit`` a file's squared norms are first checked to be exactly 1, before
    its Gram is formed; a code image's are 1 by construction."""
    if vset.source is not None:
        return distance_gram(vset.source)
    a, den = scaled_integers(vset.vectors)
    # int64 only when each entry of A A^T stays below 2^63
    a = exact_array(a, vset.dimension)
    if unit:
        bad = np.flatnonzero(np.asarray((a * a).sum(axis=1), dtype=object) != den * den)
        if bad.size:
            v = vset.vectors[int(bad[0])]
            raise NonUnitVector(int(bad[0]), _dot(v, v))
    return IntegerGram(a @ a.T, den * den, a)


def _sign_partition(negative):
    """(nplus, nminus) from the mask of negative entries, which is never on the diagonal."""
    plus = ~negative
    np.fill_diagonal(plus, False)
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in plus), \
        tuple(tuple(np.flatnonzero(row).tolist()) for row in negative)


def gram_analyze(vset: UnitVectorSet) -> GramAnalysis:
    """Gram matrix with per-vertex sign partition and negative-edge sums.

    Raises NonUnitVector if any vector is off the unit sphere (exactly in
    exact mode, within the float policy in float mode), before the Gram is built.
    Ties at inner product 0 are classified as nonnegative.
    """
    exact = vset.mode() == EXACT
    g = integer_gram(vset, unit=True) if exact else _float_gram(vset.coords, unit=True)
    num, n = g.num, g.n
    if n == 1:
        alpha = -1
    else:
        # the first maximum in row-major order (no float entry is -0.0, so
        # its bits are unique), typed as a file's coordinate products add up
        iu = np.triu_indices(n, 1)
        k = int(np.argmax(num[iu]))
        i, j = int(iu[0][k]), int(iu[1][k])
        alpha = _dot(vset.vectors[i], vset.vectors[j]) if exact and vset.source is None \
            else g.value(num[i, j])
    negative = num < 0       # never on the diagonal: den > 0, or within 1e-9 of 1
    return GramAnalysis(g, alpha, *_sign_partition(negative),
                        negative_sums(g, negative, num), vset.labels)


def verify_spherical_code(vset: UnitVectorSet, alpha_claim: Scalar) -> Certificate:
    """Certify that all norms are 1 and all pairwise products lie in [-1, claim].

    Violations are failing links, never exceptions.
    """
    gram = vset.raw_gram()
    n, m, value = gram.n, gram.num, gram.value
    # extremes are found on the arrays; each becomes the scalar a Gram entry is
    # (int or Fraction in exact mode, a Python float in float mode)
    worst_norm = value(np.abs(m.diagonal() - gram.den).max())
    links = [make_link("unit norms (max |<v,v>| deviation from 1)", worst_norm, 0)]
    if n >= 2:
        off = m[np.triu_indices(n, 1)]
        links.append(make_link("pairwise inner products at most the claim",
                               value(off.max()), alpha_claim))
        links.append(make_link("pairwise inner products at least -1",
                               -1, value(off.min())))
    else:
        links.append(make_link("pairwise inner products at most the claim (empty: -1)",
                               -1, alpha_claim))
    return Certificate.from_links("spherical-code", links,
                                  meta={"n": n, "dimension": vset.dimension,
                                        "alpha_claim": format_scalar(alpha_claim)})


def _negative_energy(analysis: GramAnalysis) -> tuple:
    """Per vertex, the sum of its squared negative inner products."""
    num = analysis.gram.num
    return negative_sums(analysis.gram, num < 0, num * num, 2)


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
