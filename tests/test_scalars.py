import random
from fractions import Fraction

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
              "2.50", "-0.125", "6/3", "-6/4", "1" * 400, "-" + "9" * 400 + "." + "0" * 400]
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


@pytest.mark.parametrize("token, message", [
    ("1e5", "not a scalar token: '1e5'"),
    ("1.", "not a scalar token: '1.'"),
    (".5", "not a scalar token: '.5'"),
    ("1/0", "zero denominator in '1/0'"),
    ("+-1", "not a scalar token: '+-1'"),
])
def test_parse_error_texts(token, message):
    for exact in (True, False):
        with pytest.raises(ValueError) as err:
            parse_scalar(token, exact=exact)
        assert str(err.value) == message
