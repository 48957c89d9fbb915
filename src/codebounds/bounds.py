"""Closed-form size bounds, plus the Ramsey transfer formulas.

The central bound (`m_upper`) certifies an upper bound on the size of a
spherical code with maximum inner product alpha in dimension r by finding the
least n where n^2 <= r*(2n + (alpha*n)^2 + 27/4*(1+alpha*n)^2*alpha*n) fails.
Every size-n' code contains size-n subcodes with no larger alpha, so the
first failing n certifies the bound n-1.  The failing set is the integers
strictly between the two roots of a downward parabola, so its least element
comes from an exact integer square root; when the set is empty the report
carries an honest "vacuous" status.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NegativeAlpha, NegativeJ, OddBlockLength, OracleRange, PreconditionViolated
from .scalars import Scalar, format_scalar

CERTIFIED_EXACT = "certified-exact"
CERTIFIED_FLOAT = "certified-float"
VACUOUS = "vacuous"
ASYMPTOTIC = "asymptotic-headline"


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: value, certification status, and provenance.

    A vacuous status carries the value math.inf (null in JSON) and claims no
    size restriction; asymptotic-headline values carry no finite-n guarantee.
    """

    name: str
    inputs: dict
    value: Scalar
    status: str
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self):
        def enc(v):
            if v == math.inf:
                return None
            if isinstance(v, Fraction):
                return v.numerator if v.denominator == 1 else format_scalar(v)
            if isinstance(v, tuple):
                return list(v)
            return v
        return {
            "name": self.name,
            "inputs": {k: enc(v) for k, v in self.inputs.items()},
            "value": enc(self.value),
            "status": self.status,
            "note": self.note,
            "details": {k: enc(v) for k, v in self.details.items()},
        }


def _icbrt(x: int) -> int:
    """Largest integer c with c^3 <= x (x >= 0)."""
    if x < 0:
        raise ValueError("negative argument")
    if x == 0:
        return 0
    c = 1 << ((x.bit_length() + 2) // 3)
    while True:
        nxt = (2 * c + x // (c * c)) // 3
        if nxt >= c:
            break
        c = nxt
    while c * c * c > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def _cbrt_lower(x: Fraction, bits: int = 80) -> Fraction:
    """Rational y with y^3 <= x, accurate to ~2^-bits."""
    scale = 1 << bits
    a, b = x.numerator, x.denominator
    c = _icbrt(a * b * b * scale ** 3)
    return Fraction(c, b * scale)


def rho_lower(r: int, k: int) -> BoundReport:
    """Lower bound on the least-possible max inner product of 2r+k unit vectors in R^r.

    Value is the float evaluation of ((8k/27 + 1)^(1/3) - 1)/(2r + k); the
    details carry a certified rational lower enclosure obtained by rounding
    the cube root down, so the bound is never over-reported.
    """
    if r < 1 or k < 0:
        raise PreconditionViolated(f"need r >= 1 and k >= 0, got r={r}, k={k}")
    radicand = Fraction(8 * k, 27) + 1
    try:
        value = ((8 * k / 27 + 1) ** (1 / 3) - 1) / (2 * r + k)
    except OverflowError:
        raise PreconditionViolated("r and k are beyond the float range") from None
    enclosure = (_cbrt_lower(radicand) - 1) / (2 * r + k)
    return BoundReport(
        "rho-lower", {"r": r, "k": k}, value, CERTIFIED_FLOAT,
        note="cube-root lower bound on the minimax inner product",
        details={"certified_lower": enclosure})


def _fails(n: int, r: int, a: int, b: int) -> bool:
    """Integerized failure test at size n, alpha = a/b:
    4 n^2 b^3 > r (8 n b^3 + 4 n^2 a^2 b + 27 (b + a n)^2 a n)."""
    b3 = b ** 3
    return 4 * n * n * b3 > r * (8 * n * b3 + 4 * n * n * a * a * b
                                 + 27 * (b + a * n) ** 2 * a * n)


def m_upper(r: int, alpha: Scalar) -> BoundReport:
    """Certified size bound for spherical codes with max inner product alpha.

    Returns n-1 for the least n failing
    n^2 <= r*(2n + (alpha n)^2 + 27/4 (1+alpha n)^2 alpha n) (certified-exact,
    details["first_failure"] = n), or a vacuous report with value math.inf
    when no n fails.  With alpha = a/b, failure divided by n is
    P(n) = -A n^2 + B n - C > 0 for A = 27 r a^3, B = 4 b^3 - 58 r a^2 b and
    C = r (8 b^3 + 27 a b^2), so n is the least integer above the smaller
    root, found with an integer square root and confirmed by the failure
    test at n and n-1.  Vacuity is proved, never assumed: B <= 0, a
    discriminant <= 0, or no integer strictly between the roots.  A vacuous
    report's details["scanned_up_to"] is the point past which no failure can
    occur: 1 when B <= 0, else ceil(B / 2A), the parabola's vertex rounded up.
    """
    if r < 1:
        raise PreconditionViolated(f"dimension must be >= 1, got {r}")
    alpha = Fraction(alpha)     # lossless: every binary float is a rational
    if alpha < 0:
        raise NegativeAlpha(f"alpha must be >= 0, got {alpha}")
    a, b = alpha.numerator, alpha.denominator
    inputs = {"r": r, "alpha": alpha}

    if a == 0:
        n = 2 * r + 1                    # P(n) = 4n - 8r
    else:
        big_a = 27 * r * a ** 3
        big_b = 4 * b ** 3 - 58 * r * a * a * b
        big_c = r * (8 * b ** 3 + 27 * a * b * b)
        disc = big_b * big_b - 4 * big_a * big_c
        n = None
        if big_b > 0 and disc > 0:
            s = math.isqrt(disc)
            # least integer strictly above the smaller root (B - sqrt(disc)) / 2A
            if s * s == disc:
                n = (big_b - s) // (2 * big_a) + 1
            else:
                n = -((s - big_b) // (2 * big_a))
        if n is None or not _fails(n, r, a, b):
            past = 1 if big_b <= 0 else -(-big_b // (2 * big_a))
            return BoundReport("m-upper", inputs, math.inf, VACUOUS,
                               note="no size restriction: the defining inequality "
                                    "holds for every n",
                               details={"scanned_up_to": past})
    if not _fails(n, r, a, b) or n > 1 and _fails(n - 1, r, a, b):
        raise AssertionError(f"closed form gave n={n}, not the least failing size")
    return BoundReport("m-upper", inputs, n - 1, CERTIFIED_EXACT,
                       note="least failing size minus one",
                       details={"first_failure": n})


def aq_upper(q: int, r: int, s: int) -> BoundReport:
    """Bound on q-ary codes via the simplex embedding into dimension (q-1)r.

    A code with distance s embeds as a spherical [-1, qj/((q-1)r)]-code where
    j = (1-1/q)r - s, so the spherical bound applies with that alpha.
    """
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
    if not 1 <= s <= r:
        raise PreconditionViolated(f"need 1 <= s <= r, got s={s}, r={r}")
    j = Fraction(q - 1, q) * r - s
    if j < 0:
        raise NegativeJ(f"j = (1-1/q)r - s = {j} < 0; embedding regime does not apply")
    alpha = Fraction(q * j, (q - 1) * r)
    inner = m_upper((q - 1) * r, alpha)
    return BoundReport("aq-upper", {"q": q, "r": r, "s": s}, inner.value,
                       inner.status, note=inner.note,
                       details={"j": j, "alpha": alpha,
                                "dimension": (q - 1) * r, **inner.details})


def plotkin_upper(r: int) -> int:
    """Binary codes at half distance: at most 2r words (even block length)."""
    if r % 2 != 0 or r < 2:
        raise OddBlockLength(f"block length must be even and >= 2, got {r}")
    return 2 * r


def ms_upper(q: int, r: int) -> int:
    """q-ary codes at distance (1-1/q)r: at most q*r words (r >= q >= 3)."""
    if q < 3 or r < q:
        raise PreconditionViolated(f"need r >= q >= 3, got q={q}, r={r}")
    if (q - 1) * r % q != 0:
        raise PreconditionViolated(f"(1-1/q)r = {(q - 1) * r}/{q} is not integral")
    return q * r


def ramsey_lower(q: int, r: int, s: int, a_value: int) -> int:
    """Set-coloring Ramsey numbers exceed a known code size by at least one."""
    return a_value + 1


def ramsey_upper_param(q: int, r: int, s: int, eps: Scalar, c: Scalar,
                       a_oracle) -> BoundReport:
    """Parametric transfer bound max((1+eps)*A(r, ceil(s - c*j)), eps*s).

    Here j = (1-1/q)r - s + 1 (note the +1, distinct from the embedding's j).
    The constant c is existential in the underlying statement, so it is a
    caller input, as is the code-size oracle; the subscriptless size function
    is interpreted as the q-ary size A_q.
    """
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
    if eps <= 0 or c <= 0:
        raise PreconditionViolated("eps and c must be positive")
    if s > Fraction(q - 1, q) * r:
        raise PreconditionViolated(f"need s <= (1-1/q)r, got s={s}")
    j = Fraction(q - 1, q) * r - s + 1
    s_reduced = math.ceil(s - c * j)
    if s_reduced < 1:
        raise OracleRange(f"reduced distance {s_reduced} < 1")
    a_val = a_oracle(r, s_reduced)
    value = max((1 + eps) * a_val, eps * s)
    return BoundReport(
        "ramsey-upper", {"q": q, "r": r, "s": s, "eps": eps, "c": c},
        value, CERTIFIED_FLOAT,
        note="constant c is existential in the source statement (caller-supplied); "
             "the size oracle is read as the q-ary maximum A_q",
        details={"j": j, "reduced_distance": s_reduced, "oracle_value": a_val})


def ramsey_asymptotic(q: int, r: int, j: int) -> BoundReport:
    """Headline transfer value 2(q-1)r; the o(1) term is unquantified."""
    if q < 2 or r < 1:
        raise PreconditionViolated(f"need q >= 2 and r >= 1, got q={q}, r={r}")
    if j < 0:
        raise PreconditionViolated(f"j must be >= 0, got {j}")
    s = Fraction(q - 1, q) * r - j
    if s.denominator != 1:
        raise PreconditionViolated(f"(1-1/q)r - j = {s} is not integral")
    return BoundReport("ramsey-asymptotic", {"q": q, "r": r, "j": j},
                       2 * (q - 1) * r, ASYMPTOTIC,
                       note="no finite-n guarantee; multiplicative 1+o(1) unquantified")


def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    n = q
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True  # q itself is prime


def bq_window(q: int) -> tuple:
    """Window (q, 2(q-1)) for the limiting normalized code size near distance (1-1/q)r.

    The lower endpoint relies on equality constructions that exist when q is
    a prime power; bq_window_report notes when it is not.
    """
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
    return (q, 2 * (q - 1))


def bq_window_report(q: int) -> BoundReport:
    lo, hi = bq_window(q)
    pp = _is_prime_power(q)
    note = "" if pp else "lower endpoint not certified: q is not a prime power"
    return BoundReport("bq-window", {"q": q}, (lo, hi), CERTIFIED_EXACT, note=note,
                       details={"prime_power": pp})
