"""Error paths that no other in-process test reaches: each input, the exception
type it raises and its whole message."""

import argparse
import re
from fractions import Fraction

import pytest

from codebounds import bounds
from codebounds.bounds import (aq_upper, bq_window, bq_window_report, m_upper,
                               ramsey_asymptotic, ramsey_lower, ramsey_upper_param, rho_lower)
from codebounds.cli import _int_list
from codebounds.codes import QaryCode, UnitVectorSet
from codebounds.constructions import (EmbeddedCode, cross_polytope, simplex_vectors,
                                      sylvester_hadamard)
from codebounds.errors import FileFormatError, InvalidCode, PreconditionViolated
from codebounds.fileio import parse_qary, parse_spherical
from codebounds.scalars import format_scalar


def no_oracle(r, s):
    raise AssertionError("the oracle is not reached")


ERRORS = {
    "rho_lower r < 1": (lambda: rho_lower(0, 1), PreconditionViolated,
                        "need r >= 1 and k >= 0, got r=0, k=1"),
    "m_upper r < 1": (lambda: m_upper(0, 0), PreconditionViolated,
                      "dimension must be >= 1, got 0"),
    "aq_upper q < 2": (lambda: aq_upper(1, 4, 2), PreconditionViolated,
                       "alphabet size must be >= 2, got 1"),
    "aq_upper s > r": (lambda: aq_upper(2, 4, 5), PreconditionViolated,
                       "need 1 <= s <= r, got s=5, r=4"),
    "aq_upper s < 1": (lambda: aq_upper(2, 4, 0), PreconditionViolated,
                       "need 1 <= s <= r, got s=0, r=4"),
    "ramsey_upper_param eps 0": (lambda: ramsey_upper_param(2, 8, 2, 0, 1, no_oracle),
                                 PreconditionViolated, "eps and c must be positive"),
    "ramsey_upper_param c < 0": (lambda: ramsey_upper_param(2, 8, 2, 1, -1, no_oracle),
                                 PreconditionViolated, "eps and c must be positive"),
    "ramsey_upper_param s too large": (lambda: ramsey_upper_param(2, 8, 5, 1, 1, no_oracle),
                                       PreconditionViolated, "need s <= (1-1/q)r, got s=5"),
    "ramsey_lower negative code size": (lambda: ramsey_lower(2, 2, 1, -5), PreconditionViolated,
                                        "code size must be >= 0, got -5"),
    "ramsey_lower q < 2": (lambda: ramsey_lower(1, 4, 2, 3), PreconditionViolated,
                           "alphabet size must be >= 2, got 1"),
    "ramsey_lower s > r": (lambda: ramsey_lower(2, 4, 5, 3), PreconditionViolated,
                           "need 1 <= s <= r, got s=5, r=4"),
    "ramsey_asymptotic j < 0": (lambda: ramsey_asymptotic(2, 8, -1), PreconditionViolated,
                                "j must be >= 0, got -1"),
    "bq_window q < 2": (lambda: bq_window(1), PreconditionViolated,
                        "alphabet size must be >= 2, got 1"),
    # one above the limit is the least strong pseudoprime to all thirteen bases
    "bq_window_report q past the prime-power test":
        (lambda: bq_window_report(3317044064679887385961981), PreconditionViolated,
         "alphabet size 3317044064679887385961981 exceeds "
         "MAX_PRIME_POWER_Q = 3317044064679887385961980"),
    "vector set without vectors": (lambda: UnitVectorSet(2, ()), InvalidCode,
                                   "a vector set needs at least one vector"),
    "vector of the wrong length": (lambda: UnitVectorSet(2, ((1, 0, 0),)), InvalidCode,
                                   "vector 0 has 3 coordinates, expected 2"),
    "exact coordinate beyond the float range":
        (lambda: UnitVectorSet(1, ((0.5,), (10 ** 400,))).coords, InvalidCode,
         "a coordinate is beyond the float range"),
    "code alphabet q < 2": (lambda: QaryCode(1, 2, ()), InvalidCode, "alphabet size 1 < 2"),
    "code block length 0": (lambda: QaryCode(2, 0, ()), InvalidCode, "block length 0 < 1"),
    "sylvester t < 0": (lambda: sylvester_hadamard(-1), PreconditionViolated,
                        "t must be >= 0, got -1"),
    "cross_polytope r < 1": (lambda: cross_polytope(0), PreconditionViolated,
                             "dimension must be >= 1, got 0"),
    "cross_polytope r past the cap": (lambda: cross_polytope(2049), PreconditionViolated,
                                      "dimension 2049 exceeds "
                                      "MAX_CROSS_POLYTOPE_DIMENSION = 2048"),
    "simplex q < 2": (lambda: simplex_vectors(1), PreconditionViolated,
                      "alphabet size must be >= 2, got 1"),
    "sphere dimension 0": (lambda: parse_spherical("sphere 0\n"), FileFormatError,
                           "line 1: dimension must be >= 1"),
    "qary bad parameters": (lambda: parse_qary("# q, r\nqary x 2\n"), FileFormatError,
                            "line 2: bad parameters 'qary x 2'"),
    "format a bool": (lambda: format_scalar(True), TypeError, "bool is not a scalar"),
    "format a string": (lambda: format_scalar("1/2"), TypeError, "not a scalar: '1/2'"),
    "range of four parts": (lambda: _int_list("1:2:3:4"), argparse.ArgumentTypeError,
                            "bad range '1:2:3:4'"),
    "range step 0": (lambda: _int_list("2, 1:5:0"), argparse.ArgumentTypeError,
                     "step must be >= 1 in '1:5:0'"),
}


@pytest.mark.parametrize("case", ERRORS)
def test_error_type_and_message(case):
    call, kind, message = ERRORS[case]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert re.fullmatch(re.escape(message), str(info.value))


def test_m_upper_refuses_a_closed_form_its_failure_test_denies(monkeypatch):
    # the self-check after the closed form: with a failure test that never
    # fails, alpha = 0 gives n = 2r + 1, which the check rejects
    monkeypatch.setattr(bounds, "_fails", lambda n, r, a, b: False)
    with pytest.raises(AssertionError) as info:
        m_upper(4, 0)
    assert str(info.value) == "closed form gave n=9, not the least failing size"


def test_a_one_word_embedding_has_alpha_minus_one():
    alpha = EmbeddedCode(QaryCode(3, 2, ((0, 1),))).alpha()
    assert alpha == -1 and type(alpha) is Fraction
