"""Explicit witness configurations and the q-ary-to-spherical embedding.

Regular-simplex coordinates are irrational for q >= 3, so constructions that
involve them return float coordinates together with an exact Gram oracle;
certificates evaluate against the oracle while the coordinates remain
available for generic linear algebra.  There is one such oracle: under the
simplex map the inner product of two words depends only on their Hamming
distance d, as 1 - q*d/((q-1)*r).  It is held as integers: with
C = q*onehot(word) - 1, the Gram is C C^T / (q(q-1)r) and C C^T =
q(q-1)r - q^2 * distance.  The +-1 embedding is that map at q = 2, and the
regular simplex is its image of the q one-symbol words (r = 1).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .codes import QaryCode, UnitVectorSet, distance_matrix, min_distance
from .errors import CodeBoundsError, NotBinary, PreconditionViolated
from .linalg import IntegerGram


@dataclass(frozen=True)
class HadamardMatrix:
    """Square +-1 matrix H with H H^T = order * I (checked on construction)."""

    order: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        h = np.array(rows, dtype=np.int64)
        if h.shape != (self.order, self.order):
            raise CodeBoundsError(f"expected a {self.order}x{self.order} matrix")
        if not np.all(np.abs(h) == 1):
            raise CodeBoundsError("entries must be +1 or -1")
        if not np.array_equal(h @ h.T, self.order * np.eye(self.order, dtype=np.int64)):
            raise CodeBoundsError("H H^T != order * I")


def sylvester_hadamard(t: int) -> HadamardMatrix:
    """Order 2^t matrix from the doubling construction [[H, H], [H, -H]]."""
    if t < 0:
        raise PreconditionViolated(f"t must be >= 0, got {t}")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(t):
        h = np.block([[h, h], [h, -h]])
    return HadamardMatrix(1 << t, tuple(map(tuple, h.tolist())))


def hadamard_code(h: HadamardMatrix) -> QaryCode:
    """Rows of H and -H with +1 -> 0 and -1 -> 1: 2r words at distance r/2."""
    r = h.order
    if r < 2:
        raise PreconditionViolated(f"order must be >= 2, got {r}")
    words = []
    for sign in (1, -1):
        for row in h.rows:
            words.append(tuple(0 if sign * x == 1 else 1 for x in row))
    code = QaryCode(2, r, tuple(words), claimed_distance=r // 2)
    if min_distance(code) != r // 2:
        raise CodeBoundsError(f"construction broke: min distance != {r // 2}")
    return code


def cross_polytope(r: int) -> UnitVectorSet:
    """The 2r vectors +-e_i; maximum pairwise inner product 0 for r >= 2."""
    if r < 1:
        raise PreconditionViolated(f"dimension must be >= 1, got {r}")
    vectors, labels = [], []
    for i in range(r):
        plus = [0] * r
        plus[i] = 1
        minus = [0] * r
        minus[i] = -1
        vectors.extend([tuple(plus), tuple(minus)])
        labels.extend([f"+e{i + 1}", f"-e{i + 1}"])
    return UnitVectorSet(r, tuple(vectors), tuple(labels))


def _distance_gram(code: QaryCode) -> IntegerGram:
    """Exact Gram of the simplex image: entry (x, y) is 1 - q*d(x,y)/((q-1)*r).

    The factor is C without the last symbol's column in each coordinate block:
    a block's q columns sum to zero, so the dropped one lies in the span of
    the others and the rank is unchanged.
    """
    q, r = code.q, code.r
    den = q * (q - 1) * r
    words = np.array(code.words, dtype=np.int64)
    factor = (words[:, :, None] == np.arange(q - 1)).reshape(len(code), (q - 1) * r) * q - 1
    return IntegerGram(den - q * q * distance_matrix(code), den, factor)


def simplex_vectors(q: int) -> UnitVectorSet:
    """q equidistant unit vectors in R^(q-1) with pairwise product -1/(q-1).

    Coordinates are built one vector at a time: forward-substitute the inner
    products against the previously placed vectors, then spend the norm
    remainder on a fresh axis.  The exact Gram oracle carries the rational
    inner products.
    """
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
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
    symbols = QaryCode(q, 1, tuple((s,) for s in range(q)))
    return UnitVectorSet(d, tuple(map(tuple, coords.tolist())),
                         tuple(f"u{i + 1}" for i in range(q)),
                         exact_gram=_distance_gram(symbols))


@dataclass(frozen=True)
class EmbeddedCode:
    """Spherical image of a q-ary code under the simplex concatenation map.

    The exact Gram oracle is computed from Hamming distances, never from the
    float coordinates: entry (x, y) is 1 - q*d(x,y)/((q-1)*r).
    """

    source: QaryCode
    dimension: int
    coords: tuple
    exact_gram: IntegerGram

    def unit_vectors(self) -> UnitVectorSet:
        labels = tuple("".join(map(str, w)) for w in self.source.words)
        return UnitVectorSet(self.dimension, self.coords, labels,
                             exact_gram=self.exact_gram)

    def alpha(self):
        """Largest off-diagonal exact Gram entry (-1 for a single word)."""
        code = self.source
        if len(code) == 1:
            return Fraction(-1)
        return 1 - Fraction(code.q * min_distance(code), (code.q - 1) * code.r)

    def max_coordinate_deviation(self) -> float:
        """Largest |float inner product - exact Gram entry| over all pairs."""
        m = np.array(self.coords)
        dev = m @ m.T
        # numerator and denominator are exact floats, so the quotient is the
        # correctly rounded entry
        dev -= self.exact_gram.num / self.exact_gram.den
        return float(np.triu(np.abs(dev, out=dev)).max(initial=0.0))


def embed_qary(code: QaryCode) -> EmbeddedCode:
    """Concatenate simplex vectors per symbol and scale by 1/sqrt(r).

    The image of a code with min distance (1-1/q)r - j is a spherical
    [-1, qj/((q-1)r)]-code in dimension (q-1)r.
    """
    q, r = code.q, code.r
    simplex = np.array(simplex_vectors(q).vectors)
    dimension = (q - 1) * r
    words = np.array(code.words, dtype=np.int64)
    coords = simplex[words].reshape(len(code), dimension) * (1.0 / math.sqrt(r))
    return EmbeddedCode(code, dimension, tuple(map(tuple, coords.tolist())),
                        _distance_gram(code))


def pm_one_embedding(code: QaryCode) -> UnitVectorSet:
    """Binary words to vectors in R^r: 0 -> +1, 1 -> -1, scaled by 1/sqrt(r).

    This is embed_qary at q = 2, whose simplex is +-1: a pair at Hamming
    distance d has inner product 1 - 2d/r, and the exact Gram oracle records
    that value.
    """
    if code.q != 2:
        raise NotBinary(f"alphabet size {code.q}, expected 2")
    return embed_qary(code).unit_vectors()
