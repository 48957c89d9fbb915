"""Closed-form size bounds, plus the Ramsey transfer formulas.

The central bound (`m_upper`) certifies an upper bound on the size of a
spherical code with maximum inner product alpha in dimension r by finding the
least n where n^2 <= r*(2n + (alpha*n)^2 + 27/4*(1+alpha*n)^2*alpha*n) fails.
Every size-n' code contains size-n subcodes with no larger alpha, so the
first failing n certifies the bound n-1.  The failing set is the integers
strictly between the two roots of a downward parabola, so its least element
comes from an exact integer square root; when the set is empty the report
carries an honest "vacuous" status.

Every integer parameter is read once with ``operator.index``, so a numpy
integer becomes a Python int before any arithmetic (int64 would wrap
silently) and a float is a TypeError.
"""

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionViolated
from .scalars import Scalar, format_scalar

CERTIFIED_EXACT = "certified-exact"
CERTIFIED_FLOAT = "certified-float"
VACUOUS = "vacuous"
ASYMPTOTIC = "asymptotic-headline"
CONDITIONAL = "conditional"


# slots=True, not frozen: a --grid sweep builds one report per cell, and a
# frozen __init__ cost about three times as much (tests/test_records.py)
@dataclass(slots=True)
class BoundReport:
    """One bound evaluation: value, certification status, and provenance.

    A vacuous status carries the value math.inf (null in JSON) and claims no
    size restriction; asymptotic-headline values carry no finite-n guarantee;
    a conditional value holds only if a caller-supplied input (a typed code
    size, an existential constant or a size oracle) is right.
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


def _iroot(x: int, k: int) -> int:
    """Largest integer c with c^k <= x, for x >= 1 and k >= 1.

    Integer Newton from 2^ceil(b/k) > x^(1/k), b the bit length of x: a step
    is floor(((k-1)c + x/c^(k-1))/k), by AM-GM never below floor(x^(1/k)),
    and below c while c^k > x, so the first step that does not fall starts
    there."""
    c = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nxt = ((k - 1) * c + x // c ** (k - 1)) // k
        if nxt >= c:
            return c
        c = nxt


def _cbrt_lower(x: Fraction) -> Fraction:
    """Rational y with y^3 <= x, accurate to ~2^-80, for x >= 1."""
    scale = 1 << 80
    a, b = x.numerator, x.denominator
    c = _iroot(a * b * b * scale ** 3, 3)
    return Fraction(c, b * scale)


def rho_lower(r: int, k: int) -> BoundReport:
    """Lower bound on the least-possible max inner product of 2r+k unit vectors in R^r.

    The bound is ((8k/27 + 1)^(1/3) - 1)/(2r + k).  details["certified_lower"]
    is a rational lower enclosure of it, obtained by rounding the cube root
    down, and value is the largest float at or below that enclosure, so
    neither is ever over-reported.
    """
    r, k = operator.index(r), operator.index(k)
    if r < 1 or k < 0:
        raise PreconditionViolated(f"need r >= 1 and k >= 0, got r={r}, k={k}")
    enclosure = (_cbrt_lower(Fraction(8 * k, 27) + 1) - 1) / (2 * r + k)
    value = float(enclosure)
    if Fraction(value) > enclosure:
        value = math.nextafter(value, -math.inf)
    return BoundReport(
        "rho-lower", {"r": r, "k": k}, value, CERTIFIED_FLOAT,
        note="cube-root lower bound on the minimax inner product",
        details={"certified_lower": enclosure})


def _fails(n: int, r: int, a: int, b: int) -> bool:
    """Integerized failure test at size n, alpha = a/b:
    4 n^2 b^3 > r (8 n b^3 + 4 n^2 a^2 b + 27 (b + a n)^2 a n)."""
    b3, t = b * b * b, b + a * n
    return 4 * n * n * b3 > r * (8 * n * b3 + 4 * n * n * a * a * b + 27 * t * t * a * n)


def m_upper(r: int, alpha: Scalar) -> BoundReport:
    """Certified size bound for spherical codes with max inner product alpha.

    Returns n-1 for the least n failing
    n^2 <= r*(2n + (alpha n)^2 + 27/4 (1+alpha n)^2 alpha n) (certified-exact,
    details["first_failure"] = n), or a vacuous report with value math.inf
    when no n fails.  With alpha = a/b, failure divided by n is
    P(n) = -A n^2 + B n - C > 0 for A = 27 r a^3, B = 4 b^3 - 58 r a^2 b and
    C = r (8 b^3 + 27 a b^2), so n is the least integer above the smaller
    root, found with an integer square root.  The failure test then runs
    once at n, where it must fail (for alpha > 0 a pass proves the report
    vacuous), and once at n-1, where it must not.  Vacuity is proved, never
    assumed: B <= 0, a discriminant <= 0, or no integer strictly between the
    roots.  A vacuous report's details["scanned_up_to"] is the point past
    which no failure can occur: 1 when B <= 0, else ceil(B / 2A), the
    parabola's vertex rounded up.
    """
    r = operator.index(r)
    if r < 1:
        raise PreconditionViolated(f"dimension must be >= 1, got {r}")
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)     # lossless: every binary float is a rational
    # Fraction keeps a numpy integer numerator or denominator as it is
    a, b = operator.index(alpha.numerator), operator.index(alpha.denominator)
    if type(alpha.numerator) is not int or type(alpha.denominator) is not int:
        alpha = Fraction(a, b)
    if a < 0:
        raise PreconditionViolated(f"alpha must be >= 0, got {alpha}")
    inputs = {"r": r, "alpha": alpha}

    if a == 0:
        n = 2 * r + 1                    # P(n) = 4n - 8r
    else:
        b3 = b * b * b
        big_a = 27 * r * a * a * a
        big_b = 4 * b3 - 58 * r * a * a * b
        big_c = r * (8 * b3 + 27 * a * b * b)
        disc = big_b * big_b - 4 * big_a * big_c
        n = None
        if big_b > 0 and disc > 0:
            s = math.isqrt(disc)
            # least integer strictly above the smaller root (B - sqrt(disc)) / 2A:
            # for a non-square disc, sqrt(disc) lies strictly between s and s + 1
            n = (big_b - s - (s * s != disc)) // (2 * big_a) + 1
        if n is None or not _fails(n, r, a, b):
            past = 1 if big_b <= 0 else -(-big_b // (2 * big_a))
            return BoundReport("m-upper", inputs, math.inf, VACUOUS,
                               note="no size restriction: the defining inequality "
                                    "holds for every n",
                               details={"scanned_up_to": past})
    if a == 0 and not _fails(n, r, a, b) or n > 1 and _fails(n - 1, r, a, b):
        raise AssertionError(f"closed form gave n={n}, not the least failing size")
    return BoundReport("m-upper", inputs, n - 1, CERTIFIED_EXACT,
                       note="least failing size minus one",
                       details={"first_failure": n})


def check_code_domain(q: int, r: int, s: int) -> tuple:
    """(q, r, s) as Python ints; raise PreconditionViolated unless q >= 2 and
    1 <= s <= r, the domain of a q-ary code's block length r and distance s."""
    q, r, s = map(operator.index, (q, r, s))
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
    if not 1 <= s <= r:
        raise PreconditionViolated(f"need 1 <= s <= r, got s={s}, r={r}")
    return q, r, s


def aq_upper(q: int, r: int, s: int) -> BoundReport:
    """Bound on q-ary codes via the simplex embedding into dimension (q-1)r.

    A code with distance s embeds as a spherical [-1, alpha]-code in
    dimension (q-1)r, where j = ((q-1)r - qs)/q = (1-1/q)r - s and
    alpha = qj/((q-1)r) = ((q-1)r - qs)/((q-1)r), so the spherical bound
    applies with that alpha.  Both come from the integer qj.
    """
    q, r, s = check_code_domain(q, r, s)
    dimension = (q - 1) * r
    qj = dimension - q * s
    if qj < 0:
        raise PreconditionViolated(f"j = (1-1/q)r - s = {Fraction(qj, q)} < 0; "
                                   "embedding regime does not apply")
    alpha = Fraction(qj, dimension)
    inner = m_upper(dimension, alpha)
    return BoundReport("aq-upper", {"q": q, "r": r, "s": s}, inner.value,
                       inner.status, note=inner.note,
                       details={"j": Fraction(qj, q), "alpha": alpha,
                                "dimension": dimension, **inner.details})


def plotkin_upper(q: int, r: int, s: int) -> BoundReport:
    """The q-ary Plotkin bound, for distances s >= (1-1/q)r.

    Above the line, qs > (q-1)r, a code has at most floor(qs / (qs - (q-1)r))
    words; on it, qs = (q-1)r, puncturing once and applying that bound gives
    q*r.  Below the line aq_upper speaks instead.
    """
    q, r, s = check_code_domain(q, r, s)
    excess = q * s - (q - 1) * r
    if excess < 0:
        raise PreconditionViolated(f"s = {s} < (1-1/q)r = {Fraction((q - 1) * r, q)}; "
                                   "the Plotkin bound does not apply")
    value = q * r if excess == 0 else q * s // excess
    return BoundReport("plotkin-upper", {"q": q, "r": r, "s": s}, value, CERTIFIED_EXACT,
                       note="q-ary Plotkin bound for s >= (1-1/q)r")


def ramsey_lower(q: int, r: int, s: int, a_value: int) -> int:
    """Set-coloring Ramsey numbers exceed a known code size by at least one."""
    q, r, s = check_code_domain(q, r, s)
    a_value = operator.index(a_value)
    if a_value < 0:
        raise PreconditionViolated(f"code size must be >= 0, got {a_value}")
    return a_value + 1


def ramsey_upper_param(q: int, r: int, s: int, eps: Scalar, c: Scalar,
                       a_oracle) -> BoundReport:
    """Parametric transfer bound max((1+eps)*A(r, ceil(s - c*j)), eps*s).

    Here j = (1-1/q)r - s + 1 (note the +1, distinct from the embedding's j).
    The constant c is existential in the underlying statement, so it is a
    caller input, as is the code-size oracle; the subscriptless size function
    is interpreted as the q-ary size A_q.
    """
    q, r, s = check_code_domain(q, r, s)
    if eps <= 0 or c <= 0:
        raise PreconditionViolated("eps and c must be positive")
    if s > Fraction(q - 1, q) * r:
        raise PreconditionViolated(f"need s <= (1-1/q)r, got s={s}")
    j = Fraction(q - 1, q) * r - s + 1
    s_reduced = math.ceil(s - c * j)
    if s_reduced < 1:
        raise PreconditionViolated(f"reduced distance {s_reduced} < 1")
    a_val = a_oracle(r, s_reduced)
    value = max((1 + eps) * a_val, eps * s)
    return BoundReport(
        "ramsey-upper", {"q": q, "r": r, "s": s, "eps": eps, "c": c},
        value, CONDITIONAL,
        note="constant c is existential in the source statement (caller-supplied); "
             "the size oracle is read as the q-ary maximum A_q",
        details={"j": j, "reduced_distance": s_reduced, "oracle_value": a_val})


def ramsey_asymptotic(q: int, r: int, j: int) -> BoundReport:
    """Headline transfer value 2(q-1)r; the o(1) term is unquantified.

    The distance s = (1-1/q)r - j must be an integer of at least 1."""
    q, r, j = map(operator.index, (q, r, j))
    if q < 2 or r < 1:
        raise PreconditionViolated(f"need q >= 2 and r >= 1, got q={q}, r={r}")
    if j < 0:
        raise PreconditionViolated(f"j must be >= 0, got {j}")
    s = Fraction(q - 1, q) * r - j
    if s.denominator != 1:
        raise PreconditionViolated(f"(1-1/q)r - j = {s} is not integral")
    check_code_domain(q, r, s.numerator)
    return BoundReport("ramsey-asymptotic", {"q": q, "r": r, "j": j},
                       2 * (q - 1) * r, ASYMPTOTIC,
                       note="no finite-n guarantee; multiplicative 1+o(1) unquantified")


# the primes to 41: trial divisors, then the bases of a Miller-Rabin test
# that is exact below 3,317,044,064,679,887,385,961,981, the least strong
# pseudoprime to all thirteen (Sorenson and Webster, 2015)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_POWER_Q = 3_317_044_064_679_887_385_961_980


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _SMALL_PRIMES, for odd n > 41 up to
    MAX_PRIME_POWER_Q."""
    d = n - 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_power(q: int) -> bool:
    """Whether q >= 2 (bq_window checks it first) is a prime power.

    A factor up to 41 decides at once.  Else q = b^k needs a prime b > 41, so
    k <= log_43(q): each such k takes one integer root and, when it is exact,
    one Miller-Rabin test of the root."""
    if q > MAX_PRIME_POWER_Q:
        raise PreconditionViolated(
            f"alphabet size {q} exceeds MAX_PRIME_POWER_Q = {MAX_PRIME_POWER_Q}")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    k = 1
    while 43 ** k <= q:
        b = _iroot(q, k)
        if b ** k == q and _is_prime(b):
            return True
        k += 1
    return False


def bq_window(q: int) -> tuple:
    """Window (q, 2(q-1)) for the limiting normalized code size near distance (1-1/q)r.

    Both endpoints are limits as r grows, with an unquantified o(1), so
    bq_window_report marks the window asymptotic.  The lower endpoint relies
    on equality constructions that exist when q is a prime power;
    bq_window_report notes when it is not.
    """
    q = operator.index(q)
    if q < 2:
        raise PreconditionViolated(f"alphabet size must be >= 2, got {q}")
    return (q, 2 * (q - 1))


def bq_window_report(q: int) -> BoundReport:
    q = operator.index(q)
    lo, hi = bq_window(q)
    pp = _is_prime_power(q)
    note = "" if pp else "lower endpoint not certified: q is not a prime power"
    return BoundReport("bq-window", {"q": q}, (lo, hi), ASYMPTOTIC, note=note,
                       details={"prime_power": pp})
