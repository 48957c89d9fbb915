import math
import random
import time
from fractions import Fraction

import pytest

from codebounds.bounds import (ASYMPTOTIC, CERTIFIED_EXACT, CERTIFIED_FLOAT,
                               VACUOUS, aq_upper, bq_window, bq_window_report,
                               m_upper, ms_upper, plotkin_upper,
                               ramsey_asymptotic, ramsey_lower,
                               ramsey_upper_param, rho_lower)
from codebounds.codes import gram_analyze
from codebounds.constructions import cross_polytope
from codebounds.errors import (NegativeAlpha, NegativeJ, OddBlockLength,
                               OracleRange, PreconditionViolated)
from codebounds.search import exact_max_code, heuristic_rho


def test_rho_lower_zero_k():
    for r in (1, 2, 10, 100):
        report = rho_lower(r, 0)
        assert report.value == 0.0
        assert report.details["certified_lower"] == 0


def test_rho_lower_frozen_value():
    # high-precision evaluation of (9^(1/3) - 1)/227
    report = rho_lower(100, 27)
    assert report.value == pytest.approx(0.0047580785156471547, rel=1e-14)
    lower = report.details["certified_lower"]
    assert 0 < lower <= Fraction(report.value)


def test_rho_lower_enclosure_never_overstates():
    for r in (1, 3, 17):
        for k in (0, 1, 5, 27, 1000):
            report = rho_lower(r, k)
            lower = report.details["certified_lower"]
            # ((2r+k) * lower + 1)^3 <= 8k/27 + 1, exactly
            assert ((2 * r + k) * lower + 1) ** 3 <= Fraction(8 * k, 27) + 1
            assert float(lower) <= report.value + 1e-15


def test_rho_lower_monotone_while_numerator_dominates():
    # strictly increasing in k up to k ~ r; beyond that the 2r+k denominator
    # takes over and the bound decays like k^(-2/3)
    for r in (1, 5, 100):
        values = [rho_lower(r, k).value for k in range(r + 2)]
        assert all(a < b for a, b in zip(values, values[1:]))
    tail = [rho_lower(100, k).value for k in (200, 400, 1000)]
    assert tail[0] > tail[1] > tail[2]


def test_m_upper_alpha_zero():
    assert m_upper(4, 0).value == 8
    assert m_upper(8, 0).value == 16
    for r in range(1, 65):
        report = m_upper(r, 0)
        assert report.status == CERTIFIED_EXACT
        assert report.value == 2 * r


def test_m_upper_vacuous():
    report = m_upper(10, Fraction(1, 5))
    assert report.status == VACUOUS
    assert report.value == math.inf     # no size restriction is claimed


def test_m_upper_reads_a_float_alpha_losslessly():
    # every binary float is a rational: 0.1 is read as itself, not as 1/10
    assert m_upper(20, 0.1).inputs["alpha"] == Fraction(0.1) != Fraction(1, 10)


def test_m_upper_rejects_negative_alpha():
    with pytest.raises(NegativeAlpha):
        m_upper(4, Fraction(-1, 10))


def test_m_upper_monotone_in_alpha():
    for r in (4, 8, 16):
        alphas = [Fraction(0), Fraction(1, 1000), Fraction(1, 100),
                  Fraction(1, 20), Fraction(1, 10), Fraction(1, 5), Fraction(1, 2)]
        values = [m_upper(r, a).value for a in alphas]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_m_upper_first_failure_is_genuine():
    # replay the defining inequality at the reported boundary
    for r, alpha in [(4, Fraction(1, 100)), (6, Fraction(1, 50)), (16, 0)]:
        report = m_upper(r, alpha)
        assert report.status == CERTIFIED_EXACT
        n0 = report.details["first_failure"]

        def holds(n):
            t = Fraction(alpha) * n
            return n * n <= r * (2 * n + t * t + Fraction(27, 4) * (1 + t) ** 2 * t)

        assert not holds(n0)
        assert all(holds(n) for n in range(1, n0))


def _least_failure_by_scan(r, alpha):
    """Reference for m_upper: the integer failure test at n = 1, 2, ... up to
    a point past which nothing can fail (2r + 2 at alpha 0, else the failure
    parabola's vertex rounded up, at least 1).  Returns (first failing n or
    None, that point)."""
    a, b = alpha.numerator, alpha.denominator
    if a == 0:
        top = 2 * r + 2
    else:
        vertex = ((1 - Fraction(29, 2) * r * alpha ** 2)
                  / (Fraction(27, 2) * r * alpha ** 3))
        top = max(1, math.ceil(vertex))
    b3 = b ** 3
    for n in range(1, top + 1):
        if 4 * n * n * b3 > r * (8 * n * b3 + 4 * n * n * a * a * b
                                 + 27 * (b + a * n) ** 2 * a * n):
            return n, top
    return None, top


def _failure_parabola(r, alpha):
    """(B, discriminant) of -A n^2 + B n - C, the failure test divided by n."""
    a, b = alpha.numerator, alpha.denominator
    big_a = 27 * r * a ** 3
    big_b = 4 * b ** 3 - 58 * r * a * a * b
    big_c = r * (8 * b ** 3 + 27 * a * b * b)
    return big_b, big_b * big_b - 4 * big_a * big_c


def _assert_matches_scan(r, alpha):
    first, top = _least_failure_by_scan(r, alpha)
    report = m_upper(r, alpha)
    if first is None:
        assert report.status == VACUOUS, (r, alpha)
        assert report.value == math.inf
        assert report.details == {"scanned_up_to": top}, (r, alpha)
    else:
        assert report.status == CERTIFIED_EXACT, (r, alpha)
        assert report.details == {"first_failure": first}, (r, alpha)
        assert report.value == first - 1


def test_m_upper_closed_form_matches_scan():
    rng = random.Random(20230530)
    for _ in range(3000):
        r = rng.randint(1, 300)
        kind = rng.randrange(4)
        if kind == 0:
            alpha = Fraction(0)
        elif kind == 1:     # near 1/1000: certified, first failure just above 2r
            alpha = Fraction(1, 1000) + Fraction(rng.randint(-500, 500), 10 ** 6)
        elif kind == 2:     # near 1/100: certified and vacuous cells mix
            alpha = Fraction(1, 100) + Fraction(rng.randint(-5000, 5000), 10 ** 6)
        else:
            alpha = Fraction(rng.randint(1, 10 ** 6), rng.randint(10 ** 6, 10 ** 9))
        _assert_matches_scan(r, alpha)


def test_m_upper_closed_form_edges():
    # B = 0 exactly (2 b^2 = 29 r a^2) and B < 0
    for r, alpha in [(58, Fraction(1, 29)), (10, Fraction(1, 5))]:
        assert _failure_parabola(r, alpha)[0] <= 0
        _assert_matches_scan(r, alpha)
    # B > 0 with a negative discriminant: the parabola never reaches zero
    for r, alpha in [(1, Fraction(1, 4)), (2, Fraction(1, 6))]:
        big_b, disc = _failure_parabola(r, alpha)
        assert big_b > 0 and disc < 0
        _assert_matches_scan(r, alpha)
    # real roots ~1.5e-5 apart around 10.2026: no integer between them
    alpha = Fraction(90245399953, 549755813888)
    big_b, disc = _failure_parabola(1, alpha)
    assert big_b > 0 and disc > 0
    _assert_matches_scan(1, alpha)
    assert m_upper(1, alpha).status == VACUOUS
    # perfect-square discriminants with the smaller root an integer, which
    # itself holds with equality, so the first failure is one above it
    for r, alpha, first in [(36, Fraction(1, 84), 85), (36, Fraction(1, 222), 75)]:
        _assert_matches_scan(r, alpha)
        assert m_upper(r, alpha).details["first_failure"] == first
    # non-square discriminants whose smaller root lies just below the integer
    # (B - isqrt(disc)) / 2A, which is then the first failure
    for r, alpha, first in [(5, Fraction(1, 51), 11), (28, Fraction(1, 72), 66)]:
        _assert_matches_scan(r, alpha)
        assert m_upper(r, alpha).details["first_failure"] == first


def test_m_upper_large_r_tiny_alpha_is_certified():
    # the first failure sits at 2r + 1 = 12,000,001, beyond any practical scan
    start = time.perf_counter()
    report = m_upper(6_000_000, Fraction(1, 10 ** 12))
    assert time.perf_counter() - start < 1.0
    assert report.status == CERTIFIED_EXACT
    assert report.value == 12_000_000
    assert report.details["first_failure"] == 12_000_001


def test_aq_upper_examples():
    report = aq_upper(2, 8, 4)
    assert report.value == 16
    assert report.details["j"] == 0 and report.details["alpha"] == 0
    assert aq_upper(2, 4, 2).value == 8
    report = aq_upper(3, 9, 6)
    assert report.value == 36
    assert report.details["dimension"] == 18


def test_aq_upper_negative_j():
    with pytest.raises(NegativeJ):
        aq_upper(2, 4, 3)   # j = 2 - 3 < 0


def test_plotkin_examples():
    assert plotkin_upper(4) == 8
    assert plotkin_upper(8) == 16
    assert plotkin_upper(2) == 4
    with pytest.raises(OddBlockLength):
        plotkin_upper(5)


def test_ms_examples():
    assert ms_upper(3, 9) == 27
    assert ms_upper(3, 3) == 9
    assert ms_upper(4, 8) == 32
    with pytest.raises(PreconditionViolated):
        ms_upper(2, 4)          # q must be >= 3
    with pytest.raises(PreconditionViolated):
        ms_upper(4, 3)          # r < q
    with pytest.raises(PreconditionViolated):
        ms_upper(3, 7)          # (1-1/q) r not integral


def test_ramsey_lower_examples():
    assert ramsey_lower(2, 4, 2, 8) == 9
    assert ramsey_lower(2, 8, 4, 16) == 17
    assert ramsey_lower(5, 9, 3, 0) == 1


def test_ramsey_upper_with_exact_oracle():
    def oracle(r, s):
        return exact_max_code(2, r, s).value
    report = ramsey_upper_param(2, 4, 2, Fraction(1, 2), 1, oracle)
    assert report.details["j"] == 1
    assert report.details["reduced_distance"] == 1
    assert report.details["oracle_value"] == 16
    assert report.value == 24
    assert report.status == CERTIFIED_FLOAT


def test_ramsey_upper_eps_branch():
    report = ramsey_upper_param(2, 4, 2, 10, 1, lambda r, s: 1)
    assert report.value == 20    # eps*s = 20 beats (1+eps)*1 = 11


def test_ramsey_upper_oracle_range():
    with pytest.raises(OracleRange):
        ramsey_upper_param(2, 4, 2, Fraction(1, 2), 3, lambda r, s: 1)


def test_ramsey_asymptotic_examples():
    report = ramsey_asymptotic(2, 100, 0)
    assert report.value == 200
    assert report.status == ASYMPTOTIC
    assert ramsey_asymptotic(3, 9, 0).value == 36
    assert ramsey_asymptotic(2, 8, 1).value == 16
    with pytest.raises(PreconditionViolated):
        ramsey_asymptotic(2, 9, 0)   # (1-1/q)r not integral


def test_bq_window_examples():
    assert bq_window(2) == (2, 2)
    assert bq_window(3) == (3, 4)
    assert bq_window(5) == (5, 8)
    assert bq_window_report(4).note == ""
    assert "not a prime power" in bq_window_report(6).note
    assert "not a prime power" not in bq_window_report(9).note


def test_bounds_sound_against_witnesses():
    # every configuration with alpha >= 0 respects the certified size bound
    for r in (2, 3, 4, 6):
        vset = cross_polytope(r)
        alpha = gram_analyze(vset).alpha
        report = m_upper(r, Fraction(alpha))
        assert report.status == CERTIFIED_EXACT
        assert len(vset) <= report.value
    rng = random.Random(3)
    for _ in range(6):
        r = rng.randint(2, 4)
        n = rng.randint(2 * r + 1, 2 * r + 4)
        result = heuristic_rho(r, n, iterations=400, seed=rng.randint(0, 10))
        alpha = Fraction(result.value)
        if alpha < 0:
            continue
        report = m_upper(r, alpha)
        if report.status == CERTIFIED_EXACT:
            assert n <= report.value


def test_heuristic_never_beats_rho_lower():
    for r, n in [(2, 5), (2, 7), (3, 8), (4, 11)]:
        result = heuristic_rho(r, n, iterations=600, seed=11)
        bound = rho_lower(r, n - 2 * r)
        assert result.value >= bound.value - 1e-6
        assert result.value >= float(bound.details["certified_lower"]) - 1e-6
