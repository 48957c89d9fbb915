import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from codebounds.certificates import make_link
from codebounds.scalars import (EXACT, FLOAT, format_scalar, join_modes,
                                mode_of, parse_scalar, slack_ok)


@pytest.mark.parametrize("token,expected", [
    ("5", 5),
    ("-5", -5),
    ("+7", 7),
    ("3/4", Fraction(3, 4)),
    ("-3/4", Fraction(-3, 4)),
    ("0.2", Fraction(1, 5)),
    ("-1.25", Fraction(-5, 4)),
    ("6/4", Fraction(3, 2)),
])
def test_parse_exact(token, expected):
    value = parse_scalar(token, exact=True)
    assert value == expected
    assert mode_of(value) == EXACT


@pytest.mark.parametrize("token,expected", [
    ("0.5", 0.5),
    ("3/4", 0.75),
    ("2", 2.0),
])
def test_parse_float(token, expected):
    value = parse_scalar(token, exact=False)
    assert value == expected
    assert mode_of(value) == FLOAT


@pytest.mark.parametrize("token", ["", "abc", "1.2.3", "1/", "/2", "1//2",
                                   "0x10", "1e5", "1 2", "3/0"])
def test_parse_rejects(token):
    with pytest.raises(ValueError):
        parse_scalar(token)


@pytest.mark.parametrize("value", [
    0, 5, -17, Fraction(3, 4), Fraction(-22, 7), 0.1, -2.5, 12345.6789,
    1 / 3, 2 ** 0.5,
])
def test_format_round_trip(value):
    token = format_scalar(value)
    back = parse_scalar(token, exact=mode_of(value) == EXACT)
    assert back == value
    assert mode_of(back) == mode_of(value)


@pytest.mark.parametrize("value", [1e-300, 1e16, -3.2e-20, 5e22])
def test_format_avoids_scientific_notation(value):
    token = format_scalar(value)
    assert "e" not in token and "E" not in token
    assert parse_scalar(token, exact=False) == value


def test_format_rejects_non_finite():
    with pytest.raises(ValueError):
        format_scalar(float("nan"))
    with pytest.raises(ValueError):
        format_scalar(float("inf"))


def test_mode_contamination():
    assert mode_of(Fraction(1, 3) + Fraction(1, 6)) == EXACT
    assert mode_of(Fraction(1, 3) + 0.5) == FLOAT
    assert join_modes(EXACT, EXACT) == EXACT
    assert join_modes(EXACT, FLOAT) == FLOAT


def test_make_link_float_slack_boundary():
    assert make_link("x", 0.0, -1e-12).verdict
    assert not make_link("x", 0.0, -2e-12).verdict


# exact and float sides, signed zeros, a side whose difference overflows to
# inf, numpy scalars and bools
LINK_SIDES = (0, 3, -2, Fraction(1, 3), Fraction(-7, 2), 0.5, 0.0, -0.0, 1e308, -1e308,
              np.float64(0.25), np.float64(-0.0), np.int64(5), np.int64(-3), True, False)


def test_a_links_mode_is_the_join_of_its_sides_modes():
    # make_link reads the mode from the slack alone
    for lhs, rhs in itertools.product(LINK_SIDES, repeat=2):
        link = make_link("x", lhs, rhs)
        assert link.mode == join_modes(mode_of(lhs), mode_of(rhs)), (lhs, rhs)


def test_tolerance_policy():
    assert slack_ok(0, EXACT)
    assert not slack_ok(Fraction(-1, 10**20), EXACT)
    assert slack_ok(-1e-13, FLOAT)
    assert not slack_ok(-1e-11, FLOAT)


def _digits(rng):
    length = rng.choice((1, 1, 2, 3, 5, 20, 400))
    body = "".join(rng.choice("0123456789") for _ in range(length))
    return "0" * rng.choice((0, 0, 1, 3)) + body + "0" * rng.choice((0, 0, 2))


def _tokens():
    rng = random.Random(20261018)
    tokens = ["0", "-0", "+0", "0.0", "-0.000", "0/7", "-0/7", "+0/7", "007", "-1.000",
              "2.50", "-0.125", "6/3", "-6/4", "1" * 400, "-" + "9" * 400 + "." + "0" * 400,
              "-0.0", "+0.0", "+007", "-0012", "+00.500", "-003.000", "-00.01", "+10.0"]
    for _ in range(600):
        sign = rng.choice(("", "+", "-"))
        form = rng.choice(("int", "decimal", "ratio"))
        if form == "int":
            tokens.append(sign + _digits(rng))
        elif form == "decimal":
            tokens.append(sign + _digits(rng) + "." + _digits(rng))
        else:
            den = _digits(rng)
            tokens.append(sign + _digits(rng) + "/" + (den if den.strip("0") else "1"))
    return tokens


def test_parse_exact_matches_fraction_of_the_token():
    for token in _tokens():
        reference = Fraction(token)
        if "/" not in token and reference.denominator == 1:
            reference = reference.numerator
        value = parse_scalar(token, exact=True)
        assert type(value) is type(reference) and value == reference, token
        assert _outcome(parse_scalar, token, exact=False) == _outcome(_float_of, token), token


def _float_of(token):
    return float(Fraction(token)) if "/" in token else float(token)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OverflowError:       # a 400-digit ratio has no float
        return OverflowError


# Python's text for an int of more digits than it converts (4300 by default)
_DIGIT_LIMIT = ("Exceeds the limit (4300 digits) for integer string conversion: "
                "value has {} digits; use sys.set_int_max_str_digits() to increase the limit")


_ERROR_TEXTS = [
    ("1e5", "not a scalar token: '1e5'", (True, False)),
    ("1.", "not a scalar token: '1.'", (True, False)),
    (".5", "not a scalar token: '.5'", (True, False)),
    ("1/0", "zero denominator in '1/0'", (True, False)),
    ("+-1", "not a scalar token: '+-1'", (True, False)),
    # float mode rounds these, to inf and to -1.2222222222222223
    ("1" * 4301, _DIGIT_LIMIT.format(4301), (True,)),
    ("-1." + "2" * 5000, _DIGIT_LIMIT.format(5000), (True,)),
]


@pytest.mark.parametrize("token, message, modes", _ERROR_TEXTS, ids=[
    f"{token}-{message}" if len(token) < 10 else f"{len(token)}-char-token"
    for token, message, _ in _ERROR_TEXTS])
def test_parse_error_texts(token, message, modes):
    for exact in modes:
        with pytest.raises(ValueError) as err:
            parse_scalar(token, exact=exact)
        assert str(err.value) == message
