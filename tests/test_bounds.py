import math
import random
import time
from fractions import Fraction

import pytest

from codebounds.bounds import (ASYMPTOTIC, CERTIFIED_EXACT, CONDITIONAL,
                               VACUOUS, aq_upper, bq_window, bq_window_report,
                               m_upper, plotkin_upper,
                               ramsey_asymptotic, ramsey_lower,
                               ramsey_upper_param, rho_lower)
from codebounds.bounds import MAX_PRIME_POWER_Q, _iroot, _is_prime_power
from codebounds.codes import gram_analyze
from codebounds.constructions import cross_polytope, hadamard_code, sylvester_hadamard
from codebounds.errors import NodeLimitExceeded, PreconditionViolated
from codebounds.search import exact_max_code, greedy_lexicode, heuristic_rho


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
    assert 0 < Fraction(report.value) <= lower


def test_rho_lower_value_is_the_largest_float_below_the_enclosure():
    # a float evaluation of the formula lies above the enclosure at 111 of
    # these 1,131 points
    for r in range(1, 198, 7):
        for k in range(0, 495, 13):
            report = rho_lower(r, k)
            lower = report.details["certified_lower"]
            assert Fraction(report.value) <= lower, (r, k)
            assert Fraction(math.nextafter(report.value, math.inf)) > lower, (r, k)


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
    with pytest.raises(PreconditionViolated, match=r"^alpha must be >= 0, got "):
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
    with pytest.raises(PreconditionViolated, match=r"^j = \(1-1/q\)r - s = "):
        aq_upper(2, 4, 3)   # j = 2 - 3 < 0


def test_plotkin_examples():
    # binary: 2r on the line s = r/2, floor(2s / (2s - r)) above it
    assert plotkin_upper(2, 4, 2).value == 8
    assert plotkin_upper(2, 8, 4).value == 16
    assert plotkin_upper(2, 2, 1).value == 4
    report = plotkin_upper(2, 5, 3)
    assert report.value == 6 and report.status == CERTIFIED_EXACT


def test_ms_examples():
    # on the line s = (1-1/q)r for q >= 3: q*r (MacWilliams-Sloane, ch. 2)
    assert plotkin_upper(3, 9, 6).value == 27
    assert plotkin_upper(3, 3, 2).value == 9
    assert plotkin_upper(4, 8, 6).value == 32


@pytest.mark.parametrize("q, r, s, message", [
    (1, 4, 4, r"^alphabet size must be >= 2, got 1$"),
    (2, 4, 0, r"^need 1 <= s <= r, got s=0, r=4$"),
    (3, 4, 5, r"^need 1 <= s <= r, got s=5, r=4$"),
    (2, 5, 2, r"^s = 2 < \(1-1/q\)r = 5/2; the Plotkin bound does not apply$"),
    (3, 7, 4, r"^s = 4 < \(1-1/q\)r = 14/3; the Plotkin bound does not apply$"),
])
def test_plotkin_rejects_cells_outside_its_domain(q, r, s, message):
    with pytest.raises(PreconditionViolated, match=message):
        plotkin_upper(q, r, s)


@pytest.mark.parametrize("q", range(2, 8))
def test_plotkin_matches_a_fraction_reference(q):
    theta = 1 - Fraction(1, q)
    for r in range(1, 40):
        for s in range(math.ceil(theta * r), r + 1):
            expected = q * r if s == theta * r else math.floor(s / (s - theta * r))
            report = plotkin_upper(q, r, s)
            assert (report.value, report.status) == (expected, CERTIFIED_EXACT), (q, r, s)


def test_no_built_witness_exceeds_plotkin():
    hadamard = {(2, 1 << t, 1 << (t - 1)): hadamard_code(sylvester_hadamard(t))
                for t in (1, 2, 3)}
    cells = met = 0
    for q in range(2, 6):
        r = 1
        while q ** r <= 256:
            for s in range(math.ceil(Fraction((q - 1) * r, q)), r + 1):
                try:
                    exact = exact_max_code(q, r, s, node_limit=200_000)
                except NodeLimitExceeded as exc:
                    exact = exc.result
                sizes = [len(greedy_lexicode(q, r, s)), len(exact.witness)]
                if (q, r, s) in hadamard:
                    sizes.append(len(hadamard[q, r, s]))
                bound = plotkin_upper(q, r, s).value
                assert max(sizes) <= bound, (q, r, s, sizes, bound)
                cells += 1
                met += max(sizes) == bound
            r += 1
    assert cells == 40
    assert met >= 34        # cells where some witness meets the bound


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
    assert report.status == CONDITIONAL     # c and the oracle are the caller's


def test_ramsey_upper_eps_branch():
    report = ramsey_upper_param(2, 4, 2, 10, 1, lambda r, s: 1)
    assert report.value == 20    # eps*s = 20 beats (1+eps)*1 = 11


def test_ramsey_upper_oracle_range():
    with pytest.raises(PreconditionViolated, match=r"^reduced distance "):
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


def bisected_root(x, k):
    """Largest c with c^k <= x, by bisection below 2^(b/k + 1), b the bit length of x."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_icbrt_matches_bisection_below_two_hundred_thousand():
    for x in range(1, 200_000):
        assert _iroot(x, 3) == bisected_root(x, 3), x


def test_icbrt_matches_bisection_at_cubes_and_powers_of_two():
    # Newton's first step that does not fall must start at the root, with no
    # correction after it: x one below, at and one above a cube or a power of two
    rng = random.Random(24)
    cubes = [rng.getrandbits(rng.randint(1, 400)) + 1 for _ in range(1000)]
    points = [c ** 3 + d for c in cubes for d in (-1, 0, 1)]
    points += [2 ** k + d for k in range(1, 1201) for d in (-1, 0, 1)]
    for x in filter(None, points):
        assert _iroot(x, 3) == bisected_root(x, 3), x


def test_iroot_matches_bisection_at_every_degree():
    # k-th powers and their neighbours, and random integers, for k = 1 to 9
    rng = random.Random(36)
    for k in range(1, 10):
        bases = [rng.getrandbits(rng.randint(1, 100)) + 1 for _ in range(200)]
        points = [c ** k + d for c in bases for d in (-1, 0, 1)]
        points += [rng.getrandbits(rng.randint(1, 600)) for _ in range(200)] + list(range(1, 300))
        for x in filter(None, points):
            assert _iroot(x, k) == bisected_root(x, k), (x, k)


def trial_division_prime_power(q):
    """Whether q >= 2 is a prime power: strip its least prime factor."""
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True


def test_prime_power_test_matches_trial_division_below_two_hundred_thousand():
    for q in range(2, 200_001):
        assert _is_prime_power(q) == trial_division_prime_power(q), q


M61 = 2 ** 61 - 1                   # a Mersenne prime
P12 = 999_999_999_989               # the largest prime below 10^12


@pytest.mark.parametrize("q, expected", [
    (M61, True), (3 ** 40, True), (P12 ** 2, True), (43 ** 14, True), (43 ** 2, True),
    (561, False),                   # Carmichael: 3 * 11 * 17
    (3_215_031_751, False),         # 151 * 751 * 28351, a strong pseudoprime to 2, 3, 5 and 7
    # 399165290221 * 798330580441, the least strong pseudoprime to every prime
    # base up to 37; base 41 rejects it
    (318_665_857_834_031_151_167_461, False),
    (P12 * 1_000_000_000_039, False), (M61 * 3 ** 2, False), (43 * 47, False),
    (MAX_PRIME_POWER_Q, False),
], ids=["2^61-1", "3^40", "p12^2", "43^14", "43^2", "561", "3215031751", "psi12",
        "p12*q12", "9*(2^61-1)", "43*47", "limit"])
def test_prime_power_test_on_hand_picked_cases(q, expected):
    assert _is_prime_power(q) is expected


@pytest.mark.parametrize("alphas", [
    (0, 0.0, Fraction(0)), (1, 1.0, Fraction(1)), (3, 3.0, Fraction(3)),
    (0.125, Fraction(1, 8)), (2.0 ** -10, Fraction(1, 1024)), (0.000732421875, Fraction(3, 4096)),
])
def test_m_upper_reads_an_int_a_float_and_a_fraction_alike(alphas):
    for r in (1, 7, 40, 500, 6000):
        first, *rest = (m_upper(r, alpha).to_dict() for alpha in alphas)
        assert all(d == first for d in rest), (r, alphas)


@pytest.mark.parametrize("alpha, shown", [
    (-1, "-1"), (-0.1, "-3602879701896397/36028797018963968"), (Fraction(-1, 10), "-1/10"),
    (-2.0, "-2"), (Fraction(-3), "-3"),
])
def test_m_upper_rejects_a_negative_alpha_of_each_type(alpha, shown):
    with pytest.raises(PreconditionViolated) as info:
        m_upper(4, alpha)
    assert str(info.value) == f"alpha must be >= 0, got {shown}"


def _aq_by_hand(q, r, s):
    """aq_upper's (value, status, details) in Fractions: j = (1-1/q)r - s and
    alpha = qj/((q-1)r), then the defining inequality of m_upper in dimension
    (q-1)r scanned from n = 1 up to 2(q-1)r + 2 at alpha 0, else up to the
    failure parabola's vertex rounded up (at least 1)."""
    d = (q - 1) * r
    j = Fraction(q - 1, q) * r - s
    alpha = q * j / d

    def holds(n):
        t = alpha * n
        return n * n <= d * (2 * n + t * t + Fraction(27, 4) * (1 + t) ** 2 * t)

    if alpha == 0:
        top = 2 * d + 2
    else:
        top = max(1, math.ceil((1 - Fraction(29, 2) * d * alpha ** 2)
                               / (Fraction(27, 2) * d * alpha ** 3)))
    first = next((n for n in range(1, top + 1) if not holds(n)), None)
    details = {"j": j, "alpha": alpha, "dimension": d}
    if first is None:
        return math.inf, VACUOUS, {**details, "scanned_up_to": top}
    return first - 1, CERTIFIED_EXACT, {**details, "first_failure": first}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_aq_upper_matches_a_fraction_reference(q):
    for r in range(1, 41):
        for s in range(1, r + 1):
            j = Fraction(q - 1, q) * r - s
            if j < 0:
                with pytest.raises(PreconditionViolated) as info:
                    aq_upper(q, r, s)
                assert str(info.value) == (f"j = (1-1/q)r - s = {j} < 0; "
                                           "embedding regime does not apply")
                continue
            report = aq_upper(q, r, s)
            got = (report.value, report.status, report.details)
            assert got == _aq_by_hand(q, r, s), (q, r, s)
            assert type(report.details["j"]) is type(report.details["alpha"]) is Fraction
