"""Code objects and the inequality verifiers built on their Gram matrices.

Each object is held as the arrays it is built or read as.  A ``QaryCode``
is its (n, r) symbol array, in the least numpy type that holds q - 1.  A
``UnitVectorSet`` is a table: a list of scalars and an (n, d) index array
into it, so that coordinate (i, k) is ``scalars[index[i, k]]``; the
constructor's table is every coordinate, a parsed file's is its distinct
tokens' values in either mode, and a code image's its simplex vertices.
The tuples ``words`` and ``vectors`` are views, built only when a caller
reads them.

An exact set is held in one form: integer rows P over one positive integer
c, so that <v_i, v_j> = P_i . P_j / c, with an integer factor of the same
rank.  Rational coordinates scaled to integers A = L*V give (A, L^2, A),
and A is the table's scalars, each scaled once, taken at the index.  The
simplex image of a ``QaryCode`` (``code_image``) has irrational
coordinates for q >= 3 but rational inner products: its float coordinates
and its rows C = q*onehot - 1 over q(q-1)r are built from the same code.
``integer_gram`` makes P P^T over c an ``IntegerGram`` in one body, and
Fractions are made only for values that a certificate or an error message
prints.  P P^T, like the +-1 products behind a binary ``min_distance``, is
``linalg.integer_product``: float64 BLAS while cols * max|P|^2 < 2^53, where
it is exact, and an int64 or Python-int product above that or when small.

A float set's Gram is a ``FloatGram``, built from the coordinates converted
once by ``float`` into an (n, d) array, the float table taken at the index;
every sum in it adds left to right from 0 (see ``linalg``).  The mode is
the set's, and decides which Gram ``UnitVectorSet._gram`` builds and
whether ``certify_chain`` takes n^2/rank as a Fraction; the analysis and
the verifiers read both Grams through the protocol they share.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Number

import numpy as np

from .certificates import Certificate, make_link
from .errors import InvalidCode, NonUnitVector, PreconditionViolated
from .linalg import (FloatGram, IntegerGram, exact_array, float_kernel, integer_product,
                     max_off_diagonal, negative_sums, rank, row_blocks, sequential_sums,
                     trace_of_square)
from .scalars import EXACT, FLOAT, Scalar, format_scalar, unit_norm_ok

# the largest alphabet code_image maps: its table holds the simplex's q(q-1)
# coordinates as Python floats however few words the code has, so the cap
# bounds memory.  At q = 1024 `embed` of a two-word code took 0.3 to 0.5 s
# and `construct simplex --out` 1.0 to 1.7 s, peaking at 85 MB and 87 MB
# (tools/peak.py, 2-CPU Xeon); at q = 2048, past the cap, the image alone
# took 0.3 s but peaked at 222 MB, so 1024 is the largest that keeps one
# image near 100 MB
MAX_IMAGE_ALPHABET = 1024
# the most one-hot entries n*q*r code_image builds: those of the order-2048
# Hadamard code's image (n = 4096, q = 2, r = 2048), the largest the package
# constructs itself.  `embed --out` of that code took 5.0 to 5.2 s and peaked
# at 276 to 277 MB (tools/peak.py, 2-CPU Xeon)
MAX_IMAGE_ENTRIES = 1 << 24
# the coordinate types format_scalar writes
_COORDINATE_TYPES = (int, Fraction, float)


@dataclass(frozen=True, init=False)
class UnitVectorSet:
    """n vectors in R^d claimed to lie on the unit sphere.

    Held as ``scalars`` and the read-only (n, d) ``index`` into them (see the
    module docstring); ``vectors`` is built from them on first read.  The set
    is in float mode when some scalar is a float; then every coordinate,
    exact ones too, enters its Gram through ``float``.  Otherwise its exact
    form (P, c, factor) is its coordinates over their common denominator.
    Only ``code_image`` makes an exact set of float coordinates, with the
    rows of the code they are the image of.  The constructor reads a numpy
    scalar as the Python scalar it holds (``item()``) and rejects a dimension
    below 1 and any coordinate that is then not an int (bool excluded),
    Fraction or float.  No set holds a NaN coordinate.
    """

    dimension: int
    # a field for equality, hashing and repr, read from the table
    vectors: tuple = cached_property(lambda self: tuple(
        tuple(map(self.scalars.__getitem__, row)) for row in self.index.tolist()))

    def __init__(self, dimension: int, vectors):
        dimension = operator.index(dimension)
        if dimension < 1:
            raise InvalidCode(f"dimension must be >= 1, got {dimension}")
        scalars, n = [], 0
        for n, v in enumerate(vectors, start=1):
            scalars.extend(v)
            if len(scalars) != n * dimension:
                raise InvalidCode(f"vector {n - 1} has {len(scalars) - (n - 1) * dimension} "
                                  f"coordinates, expected {dimension}")
        if not set(map(type, scalars)).issubset(_COORDINATE_TYPES):
            for k, x in enumerate(scalars):
                if isinstance(x, np.generic):
                    x = scalars[k] = x.item()
                if isinstance(x, bool) or not isinstance(x, _COORDINATE_TYPES):
                    raise InvalidCode(f"vector {k // dimension}: coordinate {x!r} "
                                      "is not an int, Fraction or float")
        size = len(scalars)
        self._hold(dimension, scalars,
                   np.arange(size, dtype=np.min_scalar_type(size - 1)).reshape(n, dimension))

    @classmethod
    def _from_table(cls, dimension: int, scalars: list, index: np.ndarray,
                    exact: tuple = None) -> "UnitVectorSet":
        """The set whose vector i has the coordinates ``scalars[k]`` for k in
        ``index[i]``, an (n, dimension) integer array.  ``exact`` is the
        set's exact form when the caller has it; otherwise, when no scalar
        is a float, each scalar is scaled over the lcm of their denominators
        once and A takes those integers at the index."""
        vset = object.__new__(cls)
        vset._hold(dimension, scalars, index, exact)
        return vset

    def _hold(self, dimension, scalars, index, exact=None):
        if not len(index):
            raise InvalidCode("a vector set needs at least one vector")
        if exact is None and not any(isinstance(x, float) for x in scalars):
            # A = L * V over the lcm L of the denominators, int64 only when
            # each entry of A A^T stays below 2^63
            den = math.lcm(*(x.denominator for x in scalars))
            table = exact_array([int(x.numerator) * (den // x.denominator) for x in scalars],
                                dimension)
            a = table[index]
            exact = (a, den * den, a)
        elif exact is None:
            nan = next((k for k, x in enumerate(scalars) if x != x), None)
            if nan is not None:
                vector = int(np.flatnonzero((index == nan).any(axis=1))[0])
                raise InvalidCode(f"vector {vector}: coordinate nan is not a number")
        index.flags.writeable = False
        for name, value in (("dimension", dimension), ("scalars", scalars),
                            ("index", index), ("_exact", exact)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.index)

    def mode(self) -> str:
        return FLOAT if self._exact is None else EXACT

    @cached_property
    def coords(self) -> np.ndarray:
        """The (n, d) float64 array of ``float(x)`` for every coordinate x.

        Raises InvalidCode when an exact coordinate is beyond the float range.
        """
        try:
            table = np.array(self.scalars, dtype=np.float64)
        except OverflowError:
            raise InvalidCode("a coordinate is beyond the float range") from None
        return table[self.index]

    def raw_gram(self) -> IntegerGram | FloatGram:
        """Gram matrix without any unit-norm enforcement.

        Raises InvalidCode when a float squared norm overflows to infinity.
        """
        return self._gram(unit=False)

    def _gram(self, unit: bool) -> IntegerGram | FloatGram:
        """The set's Gram: an IntegerGram in exact mode, a FloatGram in float
        mode, and the one place that picks between them.  With ``unit`` the
        first vector off the unit sphere (exactly, or within the float policy)
        raises NonUnitVector before the Gram is formed."""
        if self.mode() == EXACT:
            return integer_gram(self, unit)
        return _float_gram(self.coords, unit)


@float_kernel
def _float_gram(v, unit: bool = False) -> FloatGram:
    """G = sum over k of outer(v[:, k], v[:, k]), added from zeros one column
    at a time: each entry is its pair's products summed left to right from 0.
    The squared norms, summed the same way, are checked first: to be 1 within
    the float policy when ``unit``, then to be finite.

    G is built one row tile at a time: the tile's rows against the rows from
    its first on, through a buffer of one tile's products, and the part right
    of the tile's own columns is copied, transposed, below it.  A product
    and its transpose have the same bits, so G is the full sum's."""
    norms = np.concatenate([sequential_sums(v[i:j] * v[i:j]) for i, j in row_blocks(len(v))])
    if unit:
        for i, norm_sq in enumerate(norms.tolist()):
            if not unit_norm_ok(norm_sq):
                raise NonUnitVector(i, norm_sq)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        # a finite squared norm bounds the row's products (Cauchy-Schwarz)
        raise InvalidCode(f"vector {int(bad[0])}: squared norm overflows a float")
    n = len(v)
    gram, columns = np.empty((n, n)), np.ascontiguousarray(v.T)
    for i, j in row_blocks(n):
        upper, products = gram[i:j, i:], np.empty((j - i, n - i))
        upper[...] = 0.0
        for column in columns:
            np.multiply(column[i:j, None], column[i:], out=products)
            upper += products
        gram[j:, i:j] = upper[:, j - i:].T
    return FloatGram(gram)


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
        return negative_sums(self.gram)


def _symbol(s) -> int:
    """A symbol as an int, but never a number that int() would truncate."""
    i = int(s)
    if i != s and isinstance(s, Number):
        raise InvalidCode(f"symbol {s} is not an integer")
    return i


@dataclass(frozen=True, init=False)
class QaryCode:
    """Codewords over {0..q-1} of a fixed block length, pairwise distinct.

    Held as ``array``, the read-only (n, r) symbols (see the module
    docstring); ``words`` is built from it on first read.  Words that numpy
    reads as one integer array are range-checked as that array; any others
    are read one word at a time, which finds the first bad word for the
    error, and a symbol that is not an integer is rejected, not truncated."""

    q: int
    r: int
    # a field for equality, hashing and repr, read from the array
    words: tuple = cached_property(lambda self: tuple(map(tuple, self.array.tolist())))

    def __init__(self, q: int, r: int, words):
        q, r = operator.index(q), operator.index(r)
        if q < 2:
            raise InvalidCode(f"alphabet size {q} < 2")
        if r < 1:
            raise InvalidCode(f"block length {r} < 1")
        try:
            table = np.asarray(words)
        except (ValueError, TypeError, OverflowError):    # ragged words, say
            table = None
        # an array of integers, not bools, with r columns is range-checked whole
        if not (table is not None and table.dtype.kind in "iu" and table.shape[1:] == (r,)
                and table.min(initial=0) >= 0 and table.max(initial=0) < q):
            table = [tuple(map(_symbol, w)) for w in words]
            for w in table:
                if len(w) != r:
                    raise InvalidCode(f"codeword {w} has length {len(w)}, expected {r}")
                if min(w) < 0 or max(w) >= q:
                    s = next(s for s in w if not 0 <= s < q)
                    raise InvalidCode(f"symbol {s} out of range [0, {q})")
        # C order, whatever the caller's layout, so that each row is one run of bytes
        array = np.array(table, dtype=np.min_scalar_type(q - 1), order="C").reshape(-1, r)
        if array.dtype == object:
            distinct = len(set(map(tuple, array.tolist())))
        else:       # each row as one bytes object
            distinct = len(set(array.view(np.dtype((np.void, array.strides[0]))).ravel().tolist()))
        if distinct != len(array):
            raise InvalidCode("codewords must be pairwise distinct")
        array.flags.writeable = False
        for name, value in (("q", q), ("r", r), ("array", array)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.array)


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
    w = code.array
    if code.q == 2:
        return (code.r - max_off_diagonal(1 - 2 * w.view(np.int8))) // 2
    return int(min((w[i + 1:] != w[i]).sum(axis=1).min() for i in range(n - 1)))


def _simplex_table(q: int) -> np.ndarray:
    """q equidistant unit vectors in R^(q-1) with pairwise product -1/(q-1), as rows.

    The rows form a lower-triangular table in which every vertex after the
    j-th holds the same entry in column j, so one forward step per column
    fills it.  Row j's entries left of the diagonal are those shared entries,
    with squared norm t: vertex j spends the remainder 1 - t on its fresh
    axis, and the entry below it makes every later vertex's product with
    vertex j equal -1/(q-1).
    """
    d = q - 1
    target = -1.0 / (q - 1)
    coords = np.zeros((q, d))
    for j in range(d):
        t = coords[j, :j] @ coords[j, :j]
        coords[j, j] = math.sqrt(max(1.0 - t, 0.0))
        coords[j + 1:, j] = (target - t) / coords[j, j]
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

    Raises PreconditionViolated for q above ``MAX_IMAGE_ALPHABET`` or n*q*r
    above ``MAX_IMAGE_ENTRIES``, before anything is allocated.
    """
    q, r, n = code.q, code.r, len(code)
    if q > MAX_IMAGE_ALPHABET:
        raise PreconditionViolated(
            f"alphabet size {q} exceeds MAX_IMAGE_ALPHABET = {MAX_IMAGE_ALPHABET}")
    if n * q * r > MAX_IMAGE_ENTRIES:
        raise PreconditionViolated(f"image of {n} words has n*q*r = {n * q * r} entries, "
                                   f"above MAX_IMAGE_ENTRIES = {MAX_IMAGE_ENTRIES}")
    dimension = (q - 1) * r
    words = code.array
    # the table is the simplex's q(q-1) coordinates scaled by 1/sqrt(r), and
    # symbol s takes its q-1 entries from s(q-1) on
    scalars = (_simplex_table(q) * (1.0 / math.sqrt(r))).ravel().tolist()
    least = np.min_scalar_type(q * (q - 1) - 1)
    index = words.astype(least, copy=False)[:, :, None] * (q - 1) + np.arange(q - 1, dtype=least)
    c = (words[:, :, None] == np.arange(q)) * q - 1
    # float coordinates leave the set without an exact form: it is the code's
    return UnitVectorSet._from_table(dimension, scalars, index.reshape(n, dimension),
                                     (c.reshape(n, q * r), q * (q - 1) * r,
                                      c[:, :, :-1].reshape(n, dimension)))


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
    g = vset._gram(unit=True)
    alpha = -1 if g.n == 1 else g.value(_off_diagonal(g.num).max())
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
    # per vertex, the sum of its squared negative inner products
    for u, lhs in enumerate(negative_sums(analysis.gram, 2)):
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
    ratio = Fraction if vset.mode() == EXACT else operator.truediv
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
