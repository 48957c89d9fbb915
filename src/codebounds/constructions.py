"""Explicit witness configurations and the q-ary-to-spherical embedding.

A ``HadamardMatrix`` is held as its read-only int8 +-1 array, and
``hadamard_code`` builds its code's symbol array from it directly.  A
cross polytope is held as the table (0, 1, -1) and its index.
Regular-simplex coordinates are irrational for q >= 3, so the simplex and
the embedding of a q-ary code are ``codes.code_image`` sets: float
coordinates from the scaled simplex table and exact integer rows, both
built from the code's array, and certificates read the exact Gram of the
rows.  Under the simplex map the inner product of two words depends only on
their Hamming distance d, as 1 - q*d/((q-1)*r).  The +-1 embedding is that
map at q = 2, and the regular simplex is its image of the q one-symbol
words (r = 1).
"""

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .codes import MAX_IMAGE_ALPHABET, QaryCode, UnitVectorSet, code_image, min_distance
from .errors import CodeBoundsError, PreconditionViolated
from .linalg import integer_product, row_blocks

# the largest Sylvester order built; on a 2-CPU Xeon order 2048 took 0.3 s
# for the checked matrix and 0.31 to 0.33 s with its code (order 1024: 0.04
# to 0.05 s), and each doubling multiplies the time by about seven.  Wall
# time and peak memory of a whole run (tools/peak.py) at order 2048: 0.7 to
# 0.8 s and 79 MB for `construct hadamard --out`, 0.7 to 0.9 s and 80 MB for
# `construct hadamard-code --out`, 5.0 to 5.2 s and 277 MB for `embed --out`
# of that code, and 3.4 to 4.5 s and 384 MB for the exact chain in one
# process (build, embed_qary, certify_chain); at order 1024 the peaks are
# 47 MB, 47 MB, 97 MB and 120 MB
MAX_HADAMARD_ORDER = 2048

# the largest cross polytope built: its index holds 2r^2 bytes.  At r = 2048,
# `construct crosspolytope --out` took 0.35 to 0.42 s and 105 MB
# (tools/peak.py, 2-CPU Xeon) for a 16.8 MB file; at r = 4096, before this
# cap and before outputs were written a row tile at a time, 1.3 to 1.5 s and
# 456 MB
MAX_CROSS_POLYTOPE_DIMENSION = 2048


@dataclass(frozen=True, init=False)
class HadamardMatrix:
    """Square +-1 matrix H with H H^T = order * I (checked on construction).

    H is held as ``array``, a read-only int8 array; ``rows``, the tuple of
    row tuples, is built from it on first read."""

    order: int
    # a field for equality, hashing and repr, read from the array
    rows: tuple = cached_property(lambda self: tuple(map(tuple, self.array.tolist())))

    def __init__(self, order: int, rows):
        order = operator.index(order)
        h = np.array(rows)
        if h.shape != (order, order):
            raise CodeBoundsError(f"expected a {order}x{order} matrix")
        # on the entries as given, so that 1.7 is not read as 1, and no text
        if h.dtype.kind in "SU" or not np.all(np.abs(h) == 1):
            raise CodeBoundsError("entries must be +1 or -1")
        h = h.astype(np.int8)
        # the diagonal is order nonzeros (each a sum of order +-1 squares), so none is off it
        if np.count_nonzero(integer_product(h)) != order:
            raise CodeBoundsError("H H^T != order * I")
        h.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "array", h)


def sylvester_hadamard(t: int) -> HadamardMatrix:
    """Order 2^t matrix from the doubling construction [[H, H], [H, -H]]."""
    t = operator.index(t)
    if t < 0:
        raise PreconditionViolated(f"t must be >= 0, got {t}")
    if t > MAX_HADAMARD_ORDER.bit_length() - 1:
        raise PreconditionViolated(
            f"order 2^{t} exceeds MAX_HADAMARD_ORDER = {MAX_HADAMARD_ORDER}")
    h = np.array([[1]], dtype=np.int8)
    for _ in range(t):
        h = np.block([[h, h], [h, -h]])
    return HadamardMatrix(1 << t, h)


def hadamard_code(h: HadamardMatrix) -> QaryCode:
    """Rows of H and -H with +1 -> 0 and -1 -> 1: 2r words at distance r/2.

    Words with +-1 rows x and y are (r - x.y) / 2 apart.  H H^T = r * I,
    checked when H was built, makes x.y = -r for a row and its negation and
    0 for every other pair, so no pair is nearer than r/2."""
    r = h.order
    if r < 2:
        raise PreconditionViolated(f"order must be >= 2, got {r}")
    return QaryCode(2, r, (np.concatenate([h.array, -h.array]) != 1).view(np.uint8))


def cross_polytope(r: int) -> UnitVectorSet:
    """The 2r vectors +-e_i; maximum pairwise inner product 0 for r >= 2.

    Held as the table (0, 1, -1): vectors 2i and 2i + 1 take entry 1 and 2
    at coordinate i, and entry 0 elsewhere."""
    r = operator.index(r)
    if r < 1:
        raise PreconditionViolated(f"dimension must be >= 1, got {r}")
    if r > MAX_CROSS_POLYTOPE_DIMENSION:
        raise PreconditionViolated(f"dimension {r} exceeds MAX_CROSS_POLYTOPE_DIMENSION = "
                                   f"{MAX_CROSS_POLYTOPE_DIMENSION}")
    index = np.zeros((r, 2, r), dtype=np.uint8)
    index[np.arange(r), :, np.arange(r)] = (1, 2)
    return UnitVectorSet._from_table(r, [0, 1, -1], index.reshape(2 * r, r))


def simplex_vectors(q: int) -> UnitVectorSet:
    """q equidistant unit vectors in R^(q-1) with pairwise product -1/(q-1):
    the image of the q one-symbol words."""
    q = operator.index(q)
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
    if q > MAX_IMAGE_ALPHABET:      # as code_image checks, before the q words are built
        raise PreconditionViolated(
            f"alphabet size {q} exceeds MAX_IMAGE_ALPHABET = {MAX_IMAGE_ALPHABET}")
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
        """Largest |float inner product - exact Gram entry| over all pairs.

        Taken one row tile at a time against the rows from the tile's first
        on, as ``linalg.max_off_diagonal`` does, so one tile's rows of each
        product are held."""
        m, (p, c, _) = self.image.coords, self.image._exact
        worst = 0.0
        for i, j in row_blocks(len(m)):
            dev = m[i:j] @ m[i:].T
            # numerator and denominator are exact floats, so the quotient is
            # the correctly rounded entry
            dev -= integer_product(p[i:], j - i) / c
            worst = max(worst, float(np.abs(dev, out=dev).max(initial=0.0)))
        return worst


def embed_qary(code: QaryCode) -> EmbeddedCode:
    """Concatenate simplex vectors per symbol and scale by 1/sqrt(r).

    The image of a code with min distance (1-1/q)r - j is a spherical
    [-1, qj/((q-1)r)]-code in dimension (q-1)r.
    """
    return EmbeddedCode(code)

