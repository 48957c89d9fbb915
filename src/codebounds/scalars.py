"""Dual-mode scalars: exact arbitrary-precision rationals or 64-bit floats.

Exact values are plain ``int``/``fractions.Fraction`` objects, float values are
``float``; Python's numeric tower already gives the contamination rule we
want (exact op exact stays exact, anything touching a float becomes float).
"""

import math
import re
from decimal import Decimal
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float]

EXACT = "exact"
FLOAT = "float"

# groups: sign, then whole and fraction digits, or numerator and denominator
_SCALAR_RE = re.compile(r"([+-]?)(?:(\d+)(?:\.(\d+))?|(\d+)/(\d+))")


def mode_of(x: Scalar) -> str:
    """Arithmetic mode of one value: ints and Fractions are exact."""
    return FLOAT if isinstance(x, float) else EXACT


def join_modes(*modes: str) -> str:
    return FLOAT if FLOAT in modes else EXACT


def parse_scalar(token: str, exact: bool = True) -> Scalar:
    """Parse a scalar token: sign, then digits, digits.digits, or digits/digits.

    In exact mode every form becomes a reduced rational (decimal strings are
    exact, e.g. "0.2" -> 1/5); in float mode the value is rounded to nearest.
    """
    token = token.strip()
    match = _SCALAR_RE.fullmatch(token)
    if not match:
        raise ValueError(f"not a scalar token: {token!r}")
    sign, whole, frac, num, den = match.groups()
    if den is not None:
        den = int(den)
        if den == 0:
            raise ValueError(f"zero denominator in {token!r}")
        value = Fraction(int(sign + num), den)
        return value if exact else float(value)
    if not exact:
        return float(token)
    # built from the matched digits as Fraction(token) builds it, without a second parse
    value = int(whole)
    if frac is not None:
        scale = 10 ** len(frac)
        value = Fraction(value * scale + int(frac), scale)
        if value.denominator == 1:
            value = value.numerator
    return -value if sign == "-" else value


def format_scalar(x: Scalar) -> str:
    """Round-trip text form: exact values as n or n/d, floats via repr."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite float {x!r} has no text form")
        s = repr(float(x))   # plain float repr even for numpy subclasses
        if "e" in s or "E" in s:
            # the grammar is positional only; keep the shortest digits
            s = format(Decimal(s), "f")
        return s
    raise TypeError(f"not a scalar: {x!r}")


# the float comparison policy; exact mode compares without slack
REL_EPS = 1e-9
ABS_EPS = 1e-12


def slack_ok(slack: Scalar, mode: str) -> bool:
    """Accept an inequality's slack: >= 0 exactly, or >= -ABS_EPS in float mode."""
    if mode == EXACT:
        return slack >= 0
    return slack >= -ABS_EPS


def unit_norm_ok(norm_sq: Scalar, mode: str) -> bool:
    """Accept a squared norm: == 1 exactly, or within REL_EPS + ABS_EPS in float mode."""
    if mode == EXACT:
        return norm_sq == 1
    return abs(norm_sq - 1) <= REL_EPS + ABS_EPS
