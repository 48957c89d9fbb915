"""Symmetric matrices, exact integer Grams, float Grams, and rank.

An exact Gram is held as an ``IntegerGram``: integer numerators N over one
positive integer denominator c, so that G = N / c, together with an integer
matrix of the same rank over Q (the factor).  Integer arrays are numpy int64
only while every sum of products they enter stays below 2^63, and Python
ints otherwise.

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
"""

from fractions import Fraction
from functools import wraps
from math import isfinite, lcm, sqrt

import numpy as np

from .certificates import Certificate, make_link
from .errors import InvalidCode
from .scalars import EXACT, FLOAT, REL_EPS, Scalar, join_modes, mode_of

# 2^31 - 1 is prime, and a product of two residues stays below 2^62
P = 2_147_483_647


class SymMatrix:
    """Dense symmetric matrix; symmetry is asserted on construction."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
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
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def filled(cls, n, value):
        return cls([[value] * n for _ in range(n)])

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"SymMatrix({self.rows!r})"

    def mode(self) -> str:
        return join_modes(*(mode_of(x) for row in self.rows for x in row)) if self.n else EXACT


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
    matrix whose rank over Q is the Gram's: scaled coordinates, a code's
    one-hot matrix, or ``num`` itself.  ``rows`` builds the entries as
    Fractions (ints when ``den`` is 1) on first use.
    """

    __slots__ = ("num", "den", "factor", "_rows")

    def __init__(self, num, den: int, factor=None, rows=None):
        self.num = exact_array(num, len(num) ** 2)
        self.den = den
        self.factor = self.num if factor is None else factor
        self._rows = rows

    @classmethod
    def of(cls, m: "SymMatrix | IntegerGram") -> "IntegerGram":
        """An exact matrix over the lcm of its denominators (an IntegerGram as is)."""
        if isinstance(m, IntegerGram):
            return m
        num, den = scaled_integers(m.rows)
        return cls(num, den, rows=m.rows)

    @property
    def n(self) -> int:
        return len(self.num)

    def mode(self) -> str:
        return EXACT

    def value(self, x: int, power: int = 1) -> Scalar:
        """x / den^power: an int when den is 1, else a Fraction."""
        return x if self.den == 1 else Fraction(x, self.den ** power)

    def entry(self, i, j) -> Scalar:
        if self._rows is not None:
            return self._rows[i][j]
        return self.value(int(self.num[i, j]))

    @property
    def rows(self):
        if self._rows is None:
            values, index = np.unique(self.num, return_inverse=True)
            entries = [self.value(int(x)) for x in values.tolist()]
            self._rows = [[entries[k] for k in row]
                          for row in index.reshape(self.num.shape).tolist()]
        return self._rows

    def __eq__(self, other):
        return isinstance(other, IntegerGram) and self.rows == other.rows


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
    """Float Gram matrix held as one symmetric (n, n) float64 array ``a``.

    Its mode is float by type.  ``rows`` builds the entries as a list of
    Python floats on first use.
    """

    __slots__ = ("a", "_rows")

    def __init__(self, a):
        self.a = a
        self._rows = None

    @classmethod
    def of(cls, m: "SymMatrix | FloatGram") -> "FloatGram":
        """A float-mode matrix with every entry converted by ``float`` (a FloatGram as is)."""
        if isinstance(m, FloatGram):
            return m
        return cls(np.array([[float(x) for x in row] for row in m.rows], dtype=np.float64))

    @property
    def n(self) -> int:
        return len(self.a)

    def mode(self) -> str:
        return FLOAT

    @property
    def rows(self):
        if self._rows is None:
            self._rows = self.a.tolist()
        return self._rows


def _typed(m):
    """An exact matrix as an IntegerGram, a float one as a FloatGram."""
    if isinstance(m, (IntegerGram, FloatGram)):
        return m
    return IntegerGram.of(m) if m.mode() == EXACT else FloatGram.of(m)


def trace(m: SymMatrix | IntegerGram | FloatGram) -> Scalar:
    m = _typed(m)
    if isinstance(m, FloatGram):
        return float(sequential_sums(np.diagonal(m.a)))
    total = 0
    for i in range(m.n):
        total += m.rows[i][i]
    return total


@float_kernel
def trace_of_square(m: SymMatrix | IntegerGram | FloatGram) -> Scalar:
    """Sum of squared entries; equals the trace of M^2 for symmetric M.
    Float squares are added in row-major order."""
    m = _typed(m)
    if isinstance(m, IntegerGram):
        return m.value(int((m.num * m.num).sum()), 2)
    return float(sequential_sums((m.a * m.a).reshape(-1)))


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


def rank(m: SymMatrix | IntegerGram | FloatGram) -> int:
    """Matrix rank: exact from an integer factor when every entry is exact, else pivoted float."""
    if m.n == 0:
        return 0
    m = _typed(m)
    if isinstance(m, IntegerGram):
        return integer_rank(m.factor)
    return _rank_float(m.a)


def verify_trace_rank(m: SymMatrix | IntegerGram | FloatGram) -> Certificate:
    """Certify tr(M)^2 <= rank(M) * tr(M^2) for a symmetric matrix.

    Raises InvalidCode when a float side overflows to infinity.
    """
    m = _typed(m)
    r = rank(m)
    t = trace(m)
    lhs, rhs = t * t, r * trace_of_square(m)
    for side, value in (("squared trace", lhs), ("rank times trace of square", rhs)):
        if isinstance(value, float) and not isfinite(value):
            raise InvalidCode(f"{side} overflows a float")
    link = make_link("squared trace at most rank times trace of square", lhs, rhs)
    return Certificate.from_links("trace-rank", [link], meta={"rank": r, "dimension": m.n})
