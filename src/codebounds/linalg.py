"""Symmetric-matrix primitives over dual-mode scalars.

Exact mode runs fraction-free (Bareiss) elimination on an integer-rescaled
copy so intermediate entries stay bounded by minor determinants; float mode
uses partially pivoted elimination with a relative pivot threshold.  The
positive-semidefiniteness check is a diagonally pivoted LDL^T factorization
that, on failure, lifts a certified negative-energy direction back through
the partially built factor.
"""

from fractions import Fraction
from math import gcd, sqrt

from .certificates import Certificate, make_link
from .scalars import ABS_EPS, EXACT, REL_EPS, Scalar, join_modes, mode_of


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


def trace(m: SymMatrix) -> Scalar:
    total = 0
    for i in range(m.n):
        total += m.rows[i][i]
    return total


def trace_of_square(m: SymMatrix) -> Scalar:
    """Sum of squared entries; equals the trace of M^2 for symmetric M."""
    total = 0
    for row in m.rows:
        for x in row:
            total += x * x
    return total


def _integer_rows(rows):
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        out.append([int(x * lcm) for x in fr])
    return out


def _rank_exact(rows) -> int:
    a = _integer_rows(rows)
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


def _rank_float(rows) -> int:
    a = [[float(x) for x in row] for row in rows]
    nr = len(a)
    nc = nr and len(a[0])
    max_row_norm = max((sqrt(sum(x * x for x in row)) for row in a), default=0.0)
    threshold = REL_EPS * max_row_norm
    rank_count = 0
    for col in range(nc):
        pivot_row = max(range(rank_count, nr), key=lambda i: abs(a[i][col]), default=None)
        if pivot_row is None or abs(a[pivot_row][col]) <= threshold:
            continue
        if pivot_row != rank_count:
            a[rank_count], a[pivot_row] = a[pivot_row], a[rank_count]
        piv = a[rank_count][col]
        for i in range(rank_count + 1, nr):
            f = a[i][col] / piv
            if f == 0.0:
                continue
            for j in range(col, nc):
                a[i][j] -= f * a[rank_count][j]
        rank_count += 1
        if rank_count == nr:
            break
    return rank_count


def rank(m: SymMatrix) -> int:
    """Matrix rank; exact elimination when all entries are exact, else pivoted float."""
    if m.n == 0:
        return 0
    if m.mode() == EXACT:
        return _rank_exact(m.rows)
    return _rank_float(m.rows)


def _lift_witness(lvals, perm, reduced, n):
    """Solve L^T z = w for the partial unit-lower factor and unpermute."""
    w = [0] * n
    for pos, val in reduced.items():
        w[pos] = val
    z = [0] * n
    for i in range(n - 1, -1, -1):
        s = w[i]
        for j in range(i + 1, n):
            s -= lvals[j][i] * z[j]
        z[i] = s
    x = [0] * n
    for i in range(n):
        x[perm[i]] = z[i]
    return x


def _quadratic_form_exact(rows, x):
    n = len(x)
    xf = [Fraction(v) for v in x]
    total = Fraction(0)
    for i in range(n):
        if xf[i] == 0:
            continue
        for j in range(n):
            if xf[j] != 0:
                total += xf[i] * Fraction(rows[i][j]) * xf[j]
    return total


def is_psd(m: SymMatrix):
    """Pivoted LDL^T positive-semidefiniteness test.

    Returns (True, None) or (False, x) with <Mx, x> < 0; the witness is
    re-checked in exact arithmetic before being returned (float inputs are
    lifted losslessly to rationals), falling back to an exact factorization
    for marginal float cases.
    """
    exact = m.mode() == EXACT
    verdict, witness = _is_psd_impl(m.rows, m.n, exact)
    if verdict or witness is None:
        return verdict, witness
    if _quadratic_form_exact(m.rows, witness) < 0:
        return False, witness
    # float pivots disagreed with exact arithmetic on a marginal matrix
    return _is_psd_impl([[Fraction(x) for x in row] for row in m.rows], m.n, True)


def _is_psd_impl(rows, n, exact):
    if n == 0:
        return True, None
    a = [list(r) for r in rows]
    eps = 0 if exact else ABS_EPS
    perm = list(range(n))
    lvals = [[0] * n for _ in range(n)]
    for i in range(n):
        lvals[i][i] = 1

    for k in range(n):
        pivot = max(range(k, n), key=lambda i: a[i][i])
        if a[pivot][pivot] <= eps:
            # no usable pivot left: remaining diagonal is <= eps everywhere
            neg = min(range(k, n), key=lambda i: a[i][i])
            if a[neg][neg] < -eps:
                witness = _lift_witness(lvals, perm, {neg: 1}, n)
                return False, witness
            # diagonal ~ 0: PSD iff the remaining block vanishes
            for i in range(k, n):
                for j in range(i + 1, n):
                    if abs(a[i][j]) > eps:
                        sign = -1 if a[i][j] > 0 else 1
                        witness = _lift_witness(lvals, perm, {i: 1, j: sign}, n)
                        return False, witness
            return True, None
        if pivot != k:
            _swap_sym(a, k, pivot)
            perm[k], perm[pivot] = perm[pivot], perm[k]
            lvals[k][:k], lvals[pivot][:k] = lvals[pivot][:k], lvals[k][:k]
        d = a[k][k]
        for i in range(k + 1, n):
            lik = Fraction(a[i][k]) / d if exact else a[i][k] / d
            lvals[i][k] = lik
            if lik == 0:
                continue
            for j in range(k + 1, i + 1):
                a[i][j] -= lik * a[k][j]
                a[j][i] = a[i][j]
    return True, None


def _swap_sym(a, i, j):
    a[i], a[j] = a[j], a[i]
    for row in a:
        row[i], row[j] = row[j], row[i]


def verify_trace_rank(m: SymMatrix) -> Certificate:
    """Certify tr(M)^2 <= rank(M) * tr(M^2) for a symmetric matrix."""
    r = rank(m)
    t = trace(m)
    link = make_link("squared trace at most rank times trace of square",
                     t * t, r * trace_of_square(m))
    return Certificate.from_links("trace-rank", [link], meta={"rank": r, "dimension": m.n})
