"""Exact integer Grams, float Grams, and rank.

An exact Gram is held as an ``IntegerGram``: integer numerators N over one
positive integer denominator c, so that G = N / c, together with an integer
matrix of the same rank over Q (the factor).  A vector set's exact Gram is
always computed from its integer rows (see ``codes``).  Integer arrays are
numpy int64 only while every sum of products they enter stays below 2^63,
and Python ints otherwise.

Exact rank eliminates an integer matrix modulo the fixed prime ``P`` in
numpy.  A rank mod P never exceeds the rank over Q, which never exceeds
min(rows, cols), so the modular count is returned only when it reaches that
minimum; otherwise fraction-free (Bareiss) elimination of the same integer
matrix decides.

A float Gram is a ``FloatGram``: one float64 array.  Its kernels run in
numpy but add in the order of a Python loop ``s = 0; for x in row: s += x``
(``sequential_sums``, never numpy's pairwise ``sum``), so each float they
return has the bits that loop gives.  Overflow follows IEEE (inf, and nan
from inf - inf) as Python floats do; numpy's warnings for it are silenced.
Float rank uses partially pivoted elimination with a relative pivot
threshold.

Code that reads a Gram's entries never asks which type it holds: both have
the array ``num``, ``den`` (1 for floats), ``value(x, power)`` (x / den^power
as an int or Fraction, or ``float(x)``) and ``sums(x)`` (exact row sums, or
``sequential_sums``); ``negative_sums`` builds the lemmas' row sums on them.

``rank``, ``trace``, ``trace_of_square`` and ``verify_trace_rank`` take only
the two Gram types; a matrix given by rows reaches them through
``gram_from_rows``, and a vector set never takes one.
"""

from fractions import Fraction
from functools import partial, wraps
from math import isfinite, lcm, sqrt

import numpy as np

from .certificates import Certificate, make_link
from .errors import InvalidCode
from .scalars import EXACT, FLOAT, REL_EPS, Scalar, mode_of

# 2^31 - 1 is prime, and a product of two residues stays below 2^62
P = 2_147_483_647


def exact_array(values, terms: int) -> np.ndarray:
    """Integer array for sums of up to ``terms`` products of two entries:
    numpy int64 when such a sum stays below 2^63, Python ints otherwise."""
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    bound = int(np.abs(a).max(initial=0))
    return a.astype(np.int64 if terms * bound * bound < 2 ** 63 else object)


def scaled_integers(rows):
    """(A, L): exact rational rows over the lcm L of their denominators, as
    integer rows A = L * rows."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x.numerator) * (den // x.denominator) for x in row] for row in rows], den


class IntegerGram:
    """Exact Gram matrix ``num / den`` with an integer factor of the same rank.

    ``num`` is symmetric with entries fit for sums of n^2 products
    (``exact_array``) and ``den`` is a positive int.  ``factor`` is an integer
    matrix whose rank over Q is the Gram's: a set's integer rows (less one
    column per coordinate block for a code image), or ``num`` itself.
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

    def mode(self) -> str:
        return EXACT

    def value(self, x, power: int = 1) -> Scalar:
        """The integer x / den^power: an int when den is 1, else a Fraction."""
        return int(x) if self.den == 1 else Fraction(int(x), self.den ** power)

    @property
    def rows(self):
        values, index = np.unique(self.num, return_inverse=True)
        entries = [self.value(x) for x in values.tolist()]
        return [[entries[k] for k in row] for row in index.reshape(self.num.shape).tolist()]


def float_kernel(f):
    """Run f under a fresh ``np.errstate`` per call, so nested kernels restore the
    caller's settings: overflow to inf and inf - inf = nan are results, as with
    Python floats."""
    @wraps(f)
    def kernel(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return f(*args, **kwargs)
    return kernel


@float_kernel
def sequential_sums(x) -> np.ndarray:
    """Sums along the last axis, each added left to right from +0.0: the bits of
    ``s = 0; for t in row: s += t`` (0 + -0.0 is +0.0, hence the final + 0.0)."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.add.accumulate(x, axis=-1)[..., -1] + 0.0


class FloatGram:
    """Float Gram matrix held as one symmetric (n, n) float64 array ``num``.

    Its mode is float by type; ``value`` is ``float`` whatever the power, and
    ``rows`` builds the entries as a list of Python floats.
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

    def mode(self) -> str:
        return FLOAT

    @property
    def rows(self):
        return self.num.tolist()


def gram_from_rows(rows) -> IntegerGram | FloatGram:
    """The Gram of a square symmetric matrix given by rows.

    Every entry exact: an IntegerGram over the lcm of the denominators, with
    its numerators as the factor.  Otherwise a FloatGram of
    ``float(x)`` for every entry.  Raises ValueError when the matrix is not
    square or not symmetric.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
    # list equality runs in C and short-circuits on shared entry objects
    for i, (row, col) in enumerate(zip(rows, zip(*rows))):
        if row[i + 1:] != list(col[i + 1:]):
            j = next(j for j in range(i + 1, n) if row[j] != col[j])
            raise ValueError(f"asymmetric entries at ({i},{j})")
    if any(mode_of(x) == FLOAT for row in rows for x in row):
        return FloatGram(np.array([[float(x) for x in row] for row in rows], dtype=np.float64))
    num, den = scaled_integers(rows)
    return IntegerGram(np.array(num, dtype=object).reshape(n, n), den)


def trace(m: IntegerGram | FloatGram) -> Scalar:
    """Sum of the diagonal from 0, as ``value`` gives it."""
    return m.value(m.sums(np.diagonal(m.num)))


@float_kernel
def trace_of_square(m: IntegerGram | FloatGram) -> Scalar:
    """Sum of squared entries; equals the trace of M^2 for symmetric M.
    Float squares are added in row-major order."""
    return m.value(m.sums((m.num * m.num).reshape(-1)), 2)


def negative_sums(gram: IntegerGram | FloatGram, mask, x, power: int = 1) -> tuple:
    """Per row, ``gram.value`` at ``power`` of the sum of x where ``mask`` holds;
    the int 0, as an empty loop from 0 leaves it, where it holds nowhere."""
    sums = gram.sums(np.where(mask, x, 0)).tolist()
    return tuple(gram.value(s, power) if any_ else 0
                 for s, any_ in zip(sums, mask.any(axis=1).tolist()))


def _rank_mod_p(a) -> int:
    """Rank of an integer matrix over the field of P elements."""
    a = (a % P).astype(np.int64)
    if a.shape[0] < a.shape[1]:      # one step per column: eliminate along the shorter side
        a = a.T.copy()
    rank_count = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank_count:, col])
        if nonzero.size == 0:
            continue
        pivot_row = rank_count + int(nonzero[0])
        if pivot_row != rank_count:
            a[[rank_count, pivot_row]] = a[[pivot_row, rank_count]]
        unit_row = a[rank_count, col:] * pow(int(a[rank_count, col]), -1, P) % P
        below = a[rank_count + 1:, col:]
        below -= below[:, :1] * unit_row
        below %= P
        rank_count += 1
    return rank_count


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

    The rank mod P is a lower bound and min(rows, cols) an upper one, so the
    modular count is exact when it reaches that minimum; otherwise Bareiss
    elimination on the same matrix decides.
    """
    bound = min(a.shape)
    if bound == 0 or _rank_mod_p(a) == bound:
        return bound
    return _rank_bareiss(a.tolist())


@float_kernel
def _rank_float(a) -> int:
    """Rank of a float64 matrix by elimination with partial pivoting (the
    first largest |entry| of the column), dropping pivots at most REL_EPS
    times the largest row norm; rows whose multiplier is 0 are left as they are."""
    a = a.copy()
    nr, nc = a.shape
    max_row_norm = max(map(sqrt, sequential_sums(a * a).tolist()), default=0.0)
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
        a[rank_count + 1 + moved, col:] -= np.multiply.outer(f[moved], a[rank_count, col:])
        rank_count += 1
        if rank_count == nr:
            break
    return rank_count


def rank(m: IntegerGram | FloatGram) -> int:
    """Matrix rank: exact from an IntegerGram's factor, pivoted float for a FloatGram."""
    if m.n == 0:
        return 0
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
