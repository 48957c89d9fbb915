"""Code objects and the inequality verifiers built on their Gram matrices.

An exact set is held in one form: integer rows P over one positive integer
c, so that <v_i, v_j> = P_i . P_j / c, with an integer factor of the same
rank.  Rational coordinates scaled to integers A = L*V give (A, L^2, A).  A
parsed file's A is built from its distinct scalars, each scaled once, taken
at each coordinate's index into them (``UnitVectorSet._from_table``).
The simplex image of a ``QaryCode`` (``code_image``) has irrational
coordinates for q >= 3 but rational inner products: its float coordinates
and its rows C = q*onehot - 1 over q(q-1)r are built from the same code.
``integer_gram`` makes P P^T over c an ``IntegerGram`` in one body, and
Fractions are made only for values that a certificate or an error message
prints.  P P^T, like the +-1 products behind a binary ``min_distance``, is
``linalg.integer_product``: float64 BLAS while cols * max|P|^2 < 2^53, where
it is exact, and an int64 or Python-int product above that or when small.

A float set's Gram is a ``FloatGram``, built from the coordinates converted
once by ``float`` into an (n, d) array; every sum in it adds left to right
from 0 (see ``linalg``).  The mode decides only which Gram is built: the
analysis and the verifiers read both through the protocol they share.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import truediv

import numpy as np

from .certificates import Certificate, make_link
from .errors import InvalidCode, NonUnitVector, PreconditionViolated
from .linalg import (FloatGram, IntegerGram, exact_array, float_kernel, integer_product,
                     max_off_diagonal, negative_sums, rank, sequential_sums, trace_of_square)
from .scalars import EXACT, FLOAT, Scalar, format_scalar, mode_of, unit_norm_ok


@dataclass(frozen=True)
class UnitVectorSet:
    """n vectors in R^d claimed to lie on the unit sphere.

    A set is its coordinates; everything the certificates read of it comes
    from its Gram.  The set is in float mode when some coordinate is a float;
    then every coordinate, exact ones too, enters its Gram through ``float``.
    Otherwise its exact form (P, c, factor) is its coordinates over their
    common denominator.  Only ``code_image`` makes an exact set of float
    coordinates, with the rows of the code they are the image of.
    """

    dimension: int
    vectors: tuple
    _exact: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vectors = tuple(tuple(v) for v in self.vectors)
        object.__setattr__(self, "vectors", vectors)
        if not vectors:
            raise InvalidCode("a vector set needs at least one vector")
        for i, v in enumerate(vectors):
            if len(v) != self.dimension:
                raise InvalidCode(f"vector {i} has {len(v)} coordinates, expected {self.dimension}")
        if not any(mode_of(x) == FLOAT for v in vectors for x in v):
            # A = L * V over the lcm L of the denominators, int64 only when
            # each entry of A A^T stays below 2^63
            den = math.lcm(*(x.denominator for v in vectors for x in v))
            a = exact_array([[int(x.numerator) * (den // x.denominator) for x in v]
                             for v in vectors], self.dimension)
            object.__setattr__(self, "_exact", (a, den * den, a))

    @classmethod
    def _from_table(cls, dimension: int, scalars: list, rows: list) -> "UnitVectorSet":
        """The exact set whose vector i has the coordinates ``scalars[k]`` for
        k in ``rows[i]``, for at least one row of ``dimension`` indices into a
        list of exact scalars.  Its coordinates and its exact form both come
        from (scalars, rows): each scalar is scaled over the lcm of their
        denominators once, and A takes those integers at the rows' indices."""
        vset = object.__new__(cls)
        object.__setattr__(vset, "dimension", dimension)
        object.__setattr__(vset, "vectors", tuple(tuple(map(scalars.__getitem__, r))
                                                  for r in rows))
        den = math.lcm(*(x.denominator for x in scalars))
        table = exact_array([x.numerator * (den // x.denominator) for x in scalars], dimension)
        a = table[np.array(rows, dtype=np.intp)]
        object.__setattr__(vset, "_exact", (a, den * den, a))
        return vset

    def __len__(self):
        return len(self.vectors)

    def mode(self) -> str:
        return FLOAT if self._exact is None else EXACT

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
            if not unit_norm_ok(norm_sq):
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


@dataclass(frozen=True)
class GramAnalysis:
    """Gram matrix and alpha, plus the per-vertex negative-edge load the lemmas use.

    ``gram`` is an IntegerGram in exact mode and a FloatGram in float mode,
    and ``alpha`` is its largest off-diagonal entry as ``gram.value`` makes
    it.  ``gamma`` is computed on first read; a product of exactly 0 counts
    as nonnegative.
    """

    gram: FloatGram | IntegerGram
    alpha: Scalar

    @property
    def n(self) -> int:
        return self.gram.n

    @cached_property
    def gamma(self) -> tuple:
        """Per vertex, the sum of its negative inner products."""
        # the diagonal is c > 0, or within 1e-9 of 1, so never negative
        return negative_sums(self.gram, self.gram.num)

    def mode(self) -> str:
        return self.gram.mode()


@dataclass(frozen=True)
class QaryCode:
    """Codewords over {0..q-1} of a fixed block length, pairwise distinct.

    Words that numpy reads as one integer array are range-checked as that
    array; any others are checked one word at a time."""

    q: int
    r: int
    words: tuple

    def __post_init__(self):
        if self.q < 2:
            raise InvalidCode(f"alphabet size {self.q} < 2")
        if self.r < 1:
            raise InvalidCode(f"block length {self.r} < 1")
        try:
            table = np.array(self.words)
        except (ValueError, TypeError, OverflowError):    # ragged words, say
            table = None
        # an array of integers, not bools, with r columns is range-checked
        # whole and its rows are the words, made one row at a time so that no
        # list of every row is held beside them; anything else is read word by
        # word, which finds the first bad word for the error
        if (table is not None and table.dtype.kind in "iu" and table.shape[1:] == (self.r,)
                and table.min(initial=0) >= 0 and table.max(initial=0) < self.q):
            words = tuple(tuple(row.tolist()) for row in table)
        else:
            words = tuple(tuple(map(int, w)) for w in self.words)
            for w in words:
                if len(w) != self.r:
                    raise InvalidCode(f"codeword {w} has length {len(w)}, expected {self.r}")
                if min(w) < 0 or max(w) >= self.q:
                    s = next(s for s in w if not 0 <= s < self.q)
                    raise InvalidCode(f"symbol {s} out of range [0, {self.q})")
        object.__setattr__(self, "words", words)
        if len(set(words)) != len(words):
            raise InvalidCode("codewords must be pairwise distinct")

    def __len__(self):
        return len(self.words)


def min_distance(code: QaryCode) -> int:
    """Minimum pairwise Hamming distance; needs at least two codewords.

    Binary words with +-1 rows x and y are (r - x.y) / 2 apart, so a binary
    code's distance comes from ``max_off_diagonal`` of those rows, on float64
    BLAS in blocks of rows.  Other alphabets compare each word with the words
    after it, which holds O(n r) symbols whatever q is.
    """
    n = len(code)
    if n < 2:
        raise PreconditionViolated(f"need >= 2 codewords, got {n}")
    if code.q == 2:
        signs = 1 - 2 * np.array(code.words, dtype=np.int8)
        return (code.r - max_off_diagonal(signs)) // 2
    w = np.array(code.words, dtype=np.min_scalar_type(code.q - 1))
    return int(min((w[i + 1:] != w[i]).sum(axis=1).min() for i in range(n - 1)))


def _simplex_table(q: int) -> np.ndarray:
    """q equidistant unit vectors in R^(q-1) with pairwise product -1/(q-1), as rows.

    Built one vector at a time: forward-substitute the inner products against
    the previously placed vectors, then spend the norm remainder on a fresh axis.
    """
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


def code_image(code: QaryCode) -> UnitVectorSet:
    """The simplex image of a code: an exact set with float coordinates.

    Each symbol goes to a vertex of the regular simplex in R^(q-1); a word's
    r vertices are concatenated and scaled by 1/sqrt(r).  The rows are
    C = q*onehot(word) - 1 over c = q(q-1)r: words at Hamming distance d
    have C_x . C_y = c - q^2 * d, so every row is a unit vector.  The factor
    is C less the last symbol's column in each coordinate block, whose q
    columns sum to zero, so the rank is unchanged; full C has rank at most
    (q-1)r, below min(n, qr) once n > (q-1)r, so its rank mod p could never
    confirm itself and Bareiss would always decide.
    """
    q, r, n = code.q, code.r, len(code)
    dimension = (q - 1) * r
    words = np.array(code.words, dtype=np.int64)
    coords = _simplex_table(q)[words].reshape(n, dimension) * (1.0 / math.sqrt(r))
    image = UnitVectorSet(dimension, coords.tolist())
    c = (words[:, :, None] == np.arange(q)) * q - 1
    # float coordinates leave the set without an exact form: it is the code's
    object.__setattr__(image, "_exact", (c.reshape(n, q * r), q * (q - 1) * r,
                                        c[:, :, :-1].reshape(n, dimension)))
    return image


def integer_gram(vset: UnitVectorSet, unit: bool = False) -> IntegerGram:
    """The IntegerGram P P^T over c of an exact set (P, c, factor).  With
    ``unit`` every row's squared norm P_i . P_i / c is first checked to be
    exactly 1, before the Gram is formed.  P P^T is ``integer_product``, on
    float64 BLAS when d * max|P|^2 < 2^53."""
    p, c, factor = vset._exact
    if unit:
        norms = np.asarray((p * p).sum(axis=1), dtype=object)
        bad = np.flatnonzero(norms != c)
        if bad.size:
            raise NonUnitVector(int(bad[0]), Fraction(int(norms[bad[0]]), c))
    return IntegerGram(integer_product(p), c, factor)


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    """The n(n-1) entries of a square matrix off its diagonal, as an (n-1, n)
    array: read as n-1 rows of n+1, the flat matrix less its last entry has
    the diagonal as its first column, which is dropped.  A view of m when m
    is contiguous; a vector set's Gram is symmetric, so its extremes here
    are those of its upper triangle."""
    n = len(m)
    return m.reshape(-1)[:-1].reshape(n - 1, n + 1)[:, 1:]


def gram_analyze(vset: UnitVectorSet) -> GramAnalysis:
    """Gram matrix and alpha; the analysis computes gamma on first read.

    Alpha is ``g.value`` of the largest off-diagonal Gram entry (-1 for one
    vector): an int or Fraction in exact mode, a float in float mode.
    Raises NonUnitVector if any vector is off the unit sphere (exactly in
    exact mode, within the float policy in float mode), before the Gram is built.
    An inner product of exactly 0 counts as nonnegative.
    """
    exact = vset.mode() == EXACT
    g = integer_gram(vset, unit=True) if exact else _float_gram(vset.coords, unit=True)
    n = g.n
    alpha = -1 if n == 1 else g.value(_off_diagonal(g.num).max())
    return GramAnalysis(g, alpha)


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
        off = _off_diagonal(m)
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


def _require_alpha_in_range(alpha):
    if alpha < 0 or alpha >= 1:
        raise PreconditionViolated(f"maximum inner product {alpha} outside [0, 1)")


def verify_lemma_beta(analysis: GramAnalysis) -> Certificate:
    """Per vertex u, named v{u}: sum of squared negative products <= 1 + alpha * gamma(u)^2."""
    _require_alpha_in_range(analysis.alpha)
    alpha = analysis.alpha
    links = []
    num = analysis.gram.num
    # per vertex, the sum of its squared negative inner products
    for u, lhs in enumerate(negative_sums(analysis.gram, num * num, 2)):
        g = analysis.gamma[u]
        links.append(make_link(f"negative-edge energy at vertex v{u}",
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
    ratio = Fraction if gram.mode() == EXACT else truediv
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
