"""Explicit witness configurations and the q-ary-to-spherical embedding.

Regular-simplex coordinates are irrational for q >= 3, so the simplex and
the embedding of a q-ary code are ``codes.code_image`` sets: float
coordinates and exact integer rows, both built from the code, and
certificates read the exact Gram of the rows.  Under the simplex map the
inner product of two words depends only on their Hamming distance d, as
1 - q*d/((q-1)*r).  The +-1 embedding is that map at q = 2, and the regular
simplex is its image of the q one-symbol words (r = 1).
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .codes import QaryCode, UnitVectorSet, code_image, min_distance
from .errors import CodeBoundsError, PreconditionViolated
from .linalg import integer_product

# the largest Sylvester order built; on a 2-CPU Xeon order 2048 took 0.8
# to 1.1 s for the checked matrix and 1.8 to 2.5 s with its code (order 1024:
# 0.2 s, 0.4 to 0.5 s), and each doubling multiplies the time by four to six.
# Peak memory (ru_maxrss of a child process) at order 2048: 201 MB for
# `construct hadamard-code`, 1.09 GB for `embed` of that code, and 941 MB for
# the exact chain in one process (build, embed_qary, certify_chain); at order
# 1024: 78 MB, 300 MB and 260 MB
MAX_HADAMARD_ORDER = 2048


@dataclass(frozen=True)
class HadamardMatrix:
    """Square +-1 matrix H with H H^T = order * I (checked on construction)."""

    order: int
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(map(int, r)) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        h = np.array(rows, dtype=np.int64)
        if h.shape != (self.order, self.order):
            raise CodeBoundsError(f"expected a {self.order}x{self.order} matrix")
        if not np.all(np.abs(h) == 1):
            raise CodeBoundsError("entries must be +1 or -1")
        # the diagonal is order nonzeros (each a sum of order +-1 squares), so none is off it
        if np.count_nonzero(integer_product(h)) != self.order:
            raise CodeBoundsError("H H^T != order * I")


def sylvester_hadamard(t: int) -> HadamardMatrix:
    """Order 2^t matrix from the doubling construction [[H, H], [H, -H]]."""
    if t < 0:
        raise PreconditionViolated(f"t must be >= 0, got {t}")
    if t > MAX_HADAMARD_ORDER.bit_length() - 1:
        raise PreconditionViolated(
            f"order 2^{t} exceeds MAX_HADAMARD_ORDER = {MAX_HADAMARD_ORDER}")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(t):
        h = np.block([[h, h], [h, -h]])
    return HadamardMatrix(1 << t, h.tolist())


def hadamard_code(h: HadamardMatrix) -> QaryCode:
    """Rows of H and -H with +1 -> 0 and -1 -> 1: 2r words at distance r/2.

    Words with +-1 rows x and y are (r - x.y) / 2 apart.  H H^T = r * I,
    checked when H was built, makes x.y = -r for a row and its negation and
    0 for every other pair, so no pair is nearer than r/2."""
    r = h.order
    if r < 2:
        raise PreconditionViolated(f"order must be >= 2, got {r}")
    rows = np.array(h.rows, dtype=np.int8)
    return QaryCode(2, r, (np.concatenate([rows, -rows]) != 1).view(np.int8))


def cross_polytope(r: int) -> UnitVectorSet:
    """The 2r vectors +-e_i; maximum pairwise inner product 0 for r >= 2."""
    if r < 1:
        raise PreconditionViolated(f"dimension must be >= 1, got {r}")
    vectors = []
    for i in range(r):
        plus = [0] * r
        plus[i] = 1
        minus = [0] * r
        minus[i] = -1
        vectors.extend([tuple(plus), tuple(minus)])
    return UnitVectorSet(r, tuple(vectors))


def simplex_vectors(q: int) -> UnitVectorSet:
    """q equidistant unit vectors in R^(q-1) with pairwise product -1/(q-1):
    the image of the q one-symbol words."""
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
    return code_image(QaryCode(q, 1, tuple((s,) for s in range(q))))


@dataclass(frozen=True)
class EmbeddedCode:
    """Spherical image of a q-ary code under the simplex concatenation map.

    ``image`` is the ``code_image`` of ``source``; its exact Gram comes from
    the code's rows, never from the float coordinates: entry (x, y) is
    1 - q*d(x,y)/((q-1)*r).
    """

    source: QaryCode
    image: UnitVectorSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "image", code_image(self.source))

    @property
    def dimension(self) -> int:
        return self.image.dimension

    def unit_vectors(self) -> UnitVectorSet:
        return self.image

    def alpha(self):
        """Largest off-diagonal exact Gram entry (-1 for a single word)."""
        code = self.source
        if len(code) == 1:
            return Fraction(-1)
        return 1 - Fraction(code.q * min_distance(code), (code.q - 1) * code.r)

    def max_coordinate_deviation(self) -> float:
        """Largest |float inner product - exact Gram entry| over all pairs."""
        m = self.image.coords
        dev = m @ m.T
        # numerator and denominator are exact floats, so the quotient is the
        # correctly rounded entry
        g = self.image.raw_gram()
        dev -= g.num / g.den
        # m @ m.T runs as syrk, so dev is exactly symmetric
        return float(np.abs(dev, out=dev).max(initial=0.0))


def embed_qary(code: QaryCode) -> EmbeddedCode:
    """Concatenate simplex vectors per symbol and scale by 1/sqrt(r).

    The image of a code with min distance (1-1/q)r - j is a spherical
    [-1, qj/((q-1)r)]-code in dimension (q-1)r.
    """
    return EmbeddedCode(code)

