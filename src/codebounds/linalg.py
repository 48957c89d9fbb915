"""Exact integer Grams, float Grams, and rank.

An exact Gram is held as an ``IntegerGram``: integer numerators N over one
positive integer denominator c, so that G = N / c, together with an integer
matrix of the same rank over Q (the factor).  A vector set's exact Gram is
always computed from its integer rows (see ``codes``).  Integer arrays are
numpy int64 only while every sum of products they enter stays below 2^63,
and Python ints otherwise.

Every exact product a a^T is ``integer_product``.  numpy runs int64
products without BLAS, so when cols * max|a|^2 < 2^53 it runs on float64
BLAS: every product and partial sum is then an integer below 2^53, which
float64 holds exactly, whatever the order of summation and with or without
a fused multiply-add.  That assumes a conventional multiply-add BLAS, as
numpy's bundled OpenBLAS is.  Above the bound, and for products too small
to repay the conversion (``_FLOAT_MIN_WORK``), it is numpy's int64 or
object product.
``max_off_diagonal`` takes the largest off-diagonal entry of a a^T from
``integer_product`` one row tile at a time.

Every kernel that walks a matrix by rows, here and in ``codes``,
``constructions`` and ``fileio``, takes it one tile of ``_TILE`` rows at a
time (``row_blocks``), so what it holds besides its input and its result is
a tile's worth.  Tiles change no sum's order: a sum along a row stays in its
tile, and one that runs on from row to row carries its total into the next.

Exact rank takes a small matrix (rows * cols * min(rows, cols) at most
``_BAREISS_MAX_WORK``) straight to fraction-free (Bareiss) elimination.  A
larger one is eliminated in numpy modulo the fixed prime ``P``; a pivot
column with nothing below the pivot skips its update.  A rank mod P never
exceeds the rank over Q, which never exceeds min(rows, cols), so the modular
count is returned only when it reaches that minimum; otherwise Bareiss
decides.  A matrix that is not square is counted mod P through its smaller
Gram, formed by ``integer_product``, when that Gram's entries stay below
2^53; any other is counted in its tall orientation, one step per column.

A float Gram is a ``FloatGram``: one float64 array.  Its kernels run in
numpy but add in the order of a Python loop ``s = 0; for x in row: s += x``
(``sequential_sums``, never numpy's pairwise ``sum``), so each float they
return has the bits that loop gives.  Overflow follows IEEE (inf, and nan
from inf - inf) as Python floats do; numpy's warnings for it are silenced
by ``float_kernel``, numpy's own ``errstate`` used as a decorator.
Float rank uses partially pivoted elimination with a relative pivot
threshold.

Code that reads a Gram's entries never asks which type it holds: both have
the array ``num``, ``den`` (1 for floats), ``value(x, power)`` (x / den^power
as an int or Fraction, or ``float(x)``) and ``sums(x)`` (exact row sums, or
``sequential_sums``); ``negative_sums`` builds the lemmas' row sums on them.

``rank``, ``trace``, ``trace_of_square`` and ``verify_trace_rank`` take only
the two Gram types.  Every Gram the package builds is a vector set's,
from ``UnitVectorSet._gram`` (``codes.integer_gram`` or
``codes._float_gram``); a matrix written by hand
is an ``IntegerGram`` of its numerators over a denominator, or a
``FloatGram`` of a float64 array.
"""

from fractions import Fraction
from functools import partial
from math import isfinite, sqrt

import numpy as np

from .certificates import Certificate, make_link
from .errors import InvalidCode
from .scalars import REL_EPS, Scalar

# 2^31 - 1 is prime, and a product of two residues stays below 2^62
P = 2_147_483_647


def _fits(a, terms: int, bits: int) -> bool:
    """Whether terms * max|a|^2 < 2^bits for an integer array a (max|a| is 0
    when a is empty): every sum of up to ``terms`` products of two entries,
    and each of its partial sums, is then below 2^bits in magnitude."""
    top = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    return terms * top * top < 1 << bits


def exact_array(values, terms: int) -> np.ndarray:
    """Integer array for sums of up to ``terms`` products of two entries:
    numpy int64 when such a sum stays below 2^63, Python ints otherwise.
    An int64 array that qualifies is returned as it is, not copied."""
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    return a.astype(np.int64 if _fits(a, terms, 63) else object, copy=False)


# _float_product converts this many columns of its operand to float64 at a
# time; row_blocks takes _TILE rows at a time.  Tiles of 2^14 entries, not a
# row count, made `embed` of the order-2048 Hadamard code five times slower:
# max_off_diagonal converts every row below a tile to float panels once per tile
_PANEL = 128
_TILE = 64
# below this many multiply-adds (rows * len(a) * cols) int64 `@` beats the
# float64 path's fixed cost.  P P^T, int64 against float64, best of 7 x 200
# calls on a 2-CPU Xeon with OpenBLAS: 12x6 P 3-4 against 5-11 us, 24x12 6-7
# against 7-8 us, 32x16 12-13 against 9 us, 48x24 31-37 against 11 us
_FLOAT_MIN_WORK = 1 << 14


def row_blocks(rows: int):
    """(start, stop) of the consecutive tiles of _TILE rows that cover
    ``rows`` rows; the last tile holds what is left."""
    return ((i, min(i + _TILE, rows)) for i in range(0, rows, _TILE))


def _float_product(a, rows: int) -> np.ndarray:
    """The first ``rows`` rows of a a^T as int64, through float64 BLAS, for an
    ``a`` whose products fit below 2^53 (``_fits``).

    The float64 product is summed over column panels of a and then cast to
    int64 in its own buffer, one row tile at a time, so at most _PANEL
    float64 columns of a, and no second copy of the product, are held."""
    m = len(a)
    out = np.zeros((rows, m))
    for k in range(0, a.shape[1], _PANEL):
        panel = a[:, k:k + _PANEL].astype(np.float64)
        if k == 0:
            np.matmul(panel[:rows], panel.T, out=out)
        else:
            for i, j in row_blocks(rows):
                out[i:j] += panel[i:j] @ panel.T
        del panel
    result = out.view(np.int64)
    for i, j in row_blocks(rows):
        result[i:j] = out[i:j]      # numpy copies the overlapping source
    return result


def integer_product(a, rows: int | None = None) -> np.ndarray:
    """The first ``rows`` rows (all by default) of the integer matrix a a^T, exactly.

    When cols * max|a|^2 < 2^53 and the product has at least _FLOAT_MIN_WORK
    multiply-adds this runs on float64 BLAS and returns int64; otherwise it is
    numpy's object product for an object array and its int64 product for any
    other, since numpy multiplies a narrower type in that type, which wraps.
    """
    rows = len(a) if rows is None else rows
    if rows * a.size >= _FLOAT_MIN_WORK and _fits(a, a.shape[1], 53):
        return _float_product(a, rows)
    if a.dtype != object:
        a = a.astype(np.int64, copy=False)
    return a[:rows] @ a.T


def max_off_diagonal(a) -> int:
    """The largest entry of a a^T off its diagonal, for an integer matrix a of
    at least two rows.

    ``integer_product`` forms a tile of rows at a time against the rows from
    the tile's first on, so at most _TILE * len(a) entries are held."""
    n = len(a)
    tops = []
    for i, j in row_blocks(n - 1):
        # every row of the tile has a pair to its right, so the tile's
        # least entry is at most its largest pair and may stand in for the diagonal
        block = integer_product(a[i:], j - i)
        np.fill_diagonal(block, block.min())
        tops.append(int(block.max()))
        del block    # freed before the next tile is formed
    return max(tops)


class IntegerGram:
    """Exact Gram matrix ``num / den`` with an integer factor of the same rank.

    ``num`` is symmetric with entries fit for sums of n^2 products
    (``exact_array``) and ``den`` is a positive int.  ``factor`` is an integer
    matrix whose rank over Q is the Gram's: a set's integer rows (less one
    column per coordinate block for a code image), or, for a Gram written by
    hand from its numerators, ``num`` itself.
    ``rows`` builds the entries as Fractions (ints when ``den`` is 1).
    """

    __slots__ = ("num", "den", "factor")
    sums = staticmethod(partial(np.sum, axis=-1))      # exact integer row sums

    def __init__(self, num, den: int, factor=None):
        self.num = exact_array(num, len(num) ** 2)
        self.den = den
        self.factor = self.num if factor is None else factor

    @property
    def n(self) -> int:
        return len(self.num)

    def value(self, x, power: int = 1) -> Scalar:
        """The integer x / den^power: an int when den is 1, else a Fraction."""
        return int(x) if self.den == 1 else Fraction(int(x), self.den ** power)

    @property
    def rows(self):
        values, index = np.unique(self.num, return_inverse=True)
        entries = [self.value(x) for x in values.tolist()]
        return [[entries[k] for k in row] for row in index.reshape(self.num.shape).tolist()]


# the float kernels' decorator: overflow to inf and inf - inf = nan are
# results, as with Python floats.  Since numpy 2.0, which pyproject.toml
# requires, errstate as a decorator sets its state afresh on each call and
# restores the caller's on return, so nested and recursive kernels hand back
# the settings they found (numpy 1.x kept one saved state on the shared
# instance); it is never entered with ``with``, which would do the same
float_kernel = np.errstate(over="ignore", invalid="ignore")


@float_kernel
def sequential_sums(x) -> np.ndarray:
    """Sums along the last axis, each added left to right from +0.0: the bits of
    ``s = 0; for t in row: s += t`` (0 + -0.0 is +0.0, hence the final + 0.0)."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


class FloatGram:
    """Float Gram matrix held as one symmetric (n, n) float64 array ``num``.

    ``value`` is ``float`` whatever the power, and ``rows`` builds the
    entries as a list of Python floats.
    """

    __slots__ = ("num",)
    den = 1
    sums = staticmethod(sequential_sums)
    value = staticmethod(lambda x, power=1: float(x))

    def __init__(self, num):
        self.num = num

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def rows(self):
        return self.num.tolist()


def trace(m: IntegerGram | FloatGram) -> Scalar:
    """Sum of the diagonal from 0, as ``value`` gives it."""
    return m.value(m.sums(np.diagonal(m.num)))


@float_kernel
def trace_of_square(m: IntegerGram | FloatGram) -> Scalar:
    """Sum of squared entries; equals the trace of M^2 for symmetric M.
    Float squares are added in row-major order, one row tile at a time."""
    total = 0
    for i, j in row_blocks(m.n):
        squares = (m.num[i:j] * m.num[i:j]).reshape(-1)
        squares[0] += total     # the sum goes on from the previous tiles' total
        total = m.sums(squares)
    return m.value(total, 2)


@float_kernel
def negative_sums(gram: IntegerGram | FloatGram, power: int = 1) -> tuple:
    """Per row, ``gram.value`` at ``power`` of the sum of the row's negative
    entries, each raised to ``power``; the int 0, as an empty loop from 0
    leaves it, where the row has none.  Taken one row tile at a time."""
    sums, found = [], []
    for i, j in row_blocks(gram.n):
        tile = gram.num[i:j]
        mask = tile < 0
        sums += gram.sums(np.where(mask, tile ** power, 0)).tolist()
        found += mask.any(axis=1).tolist()
    return tuple(gram.value(s, power) if any_ else 0 for s, any_ in zip(sums, found))


def _rank_mod_p(a) -> int:
    """Rank over the field of P elements of an integer matrix with at least as
    many rows as columns, one step per column.  A step whose pivot column is
    zero below the pivot would subtract zeros and is skipped, so a diagonal
    matrix costs one scan per column."""
    a = np.ascontiguousarray(a % P, dtype=np.int64)
    rank_count = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank_count:, col])
        if nonzero.size == 0:
            continue
        pivot_row = rank_count + int(nonzero[0])
        if pivot_row != rank_count:
            a[[rank_count, pivot_row]] = a[[pivot_row, rank_count]]
        if nonzero.size > 1:
            unit_row = a[rank_count, col:] * pow(int(a[rank_count, col]), -1, P) % P
            below = a[rank_count + 1:, col:]
            below -= below[:, :1] * unit_row
            below %= P
        rank_count += 1
    return rank_count


# integer_rank runs Bareiss alone when rows * cols * min(rows, cols), the
# order of its work, is at most this.  Modular count against Bareiss, min of
# 7 x 100 integer_rank calls on a 2-CPU Xeon, in us, for entries up to 3,
# 2^18 and 2^60: 8x8 72/23, 80/44, 141/112; 32x4 35/18, 39/40, 77/73;
# 12x12 125/71, 124/160, 144/345.  The gate ignores entry size: at 20x5,
# below it, Bareiss loses with entries up to 2^60 (94 against 87 us), and at
# 12x12, above it, wins with entries up to 3.  The shorter side alone is no
# gate: at 200x6 and entries up to 2^18 Bareiss takes 666 us, the modular
# count 65
_BAREISS_MAX_WORK = 1 << 9


def _rank_bareiss(a) -> int:
    """Fraction-free elimination on integer rows; entries stay bounded by minors."""
    nr = len(a)
    nc = nr and len(a[0])
    prev = 1
    rank_count = 0
    for col in range(nc):
        pivot_row = None
        for i in range(rank_count, nr):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank_count:
            a[rank_count], a[pivot_row] = a[pivot_row], a[rank_count]
        piv = a[rank_count][col]
        for i in range(rank_count + 1, nr):
            ai = a[i]
            head = ai[col]
            arow = a[rank_count]
            for j in range(col + 1, nc):
                ai[j] = (ai[j] * piv - head * arow[j]) // prev
            ai[col] = 0
        prev = piv
        rank_count += 1
        if rank_count == nr:
            break
    return rank_count


def integer_rank(a) -> int:
    """Rank over Q of a 2-D integer numpy array (int64 or Python ints).

    A matrix with rows * cols * min(rows, cols) at most _BAREISS_MAX_WORK
    goes straight to Bareiss elimination, which is exact.  Otherwise the
    rank mod P is a lower bound and min(rows, cols) an upper one, so the
    modular count is exact when it reaches that minimum, and Bareiss
    elimination decides when it does not.  A matrix that is not square is
    counted mod P through its Gram on the shorter side (F^T F or F F^T),
    ``integer_product`` of that side, when the Gram's entries are below
    2^53 (``_fits``, the test that product makes for float64 BLAS).  Over Q
    the Gram has the rank of F, so a full count there proves F's rank, and
    a shortfall sends F itself to Bareiss.  Otherwise the count runs on the
    orientation with more rows, and Bareiss always on the one with fewer.
    """
    bound = min(a.shape)
    short = a if a.shape[0] <= a.shape[1] else a.T
    if a.size * bound <= _BAREISS_MAX_WORK:
        return _rank_bareiss(short.tolist())
    reduced = a.shape[0] != a.shape[1] and _fits(short, short.shape[1], 53)
    if _rank_mod_p(integer_product(short) if reduced else short.T) == bound:
        return bound
    return _rank_bareiss(short.tolist())


@float_kernel
def _rank_float(a) -> int:
    """Rank of a float64 matrix by elimination with partial pivoting (the
    first largest |entry| of the column), dropping pivots at most REL_EPS
    times the largest row norm; rows whose multiplier is 0 are left as they
    are, and the others are updated one row tile at a time."""
    a = a.copy()
    nr, nc = a.shape
    max_row_norm = max((sqrt(s) for i, j in row_blocks(nr)
                        for s in sequential_sums(a[i:j] * a[i:j]).tolist()), default=0.0)
    threshold = REL_EPS * max_row_norm
    rank_count = 0
    for col in range(nc):
        pivot_row = rank_count + int(np.argmax(np.abs(a[rank_count:, col])))
        if abs(a[pivot_row, col]) <= threshold:
            continue
        if pivot_row != rank_count:
            a[[rank_count, pivot_row]] = a[[pivot_row, rank_count]]
        f = a[rank_count + 1:, col] / a[rank_count, col]
        moved = np.flatnonzero(f)
        for i, j in row_blocks(moved.size):
            rows = moved[i:j]
            a[rank_count + 1 + rows, col:] -= np.multiply.outer(f[rows], a[rank_count, col:])
        rank_count += 1
        if rank_count == nr:
            break
    return rank_count


def rank(m: IntegerGram | FloatGram) -> int:
    """Matrix rank: exact from an IntegerGram's factor, pivoted float for a FloatGram."""
    if isinstance(m, IntegerGram):
        return integer_rank(m.factor)
    return _rank_float(m.num)


def verify_trace_rank(m: IntegerGram | FloatGram) -> Certificate:
    """Certify tr(M)^2 <= rank(M) * tr(M^2) for a symmetric matrix.

    Raises InvalidCode when a float side overflows to infinity.
    """
    r = rank(m)
    t = trace(m)
    lhs, rhs = t * t, r * trace_of_square(m)
    for side, value in (("squared trace", lhs), ("rank times trace of square", rhs)):
        if isinstance(value, float) and not isfinite(value):
            raise InvalidCode(f"{side} overflows a float")
    link = make_link("squared trace at most rank times trace of square", lhs, rhs)
    return Certificate.from_links("trace-rank", [link], meta={"rank": r, "dimension": m.n})
