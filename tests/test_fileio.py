import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from codebounds.codes import QaryCode, UnitVectorSet, code_image
from codebounds.constructions import (cross_polytope, embed_qary, hadamard_code,
                                      sylvester_hadamard)
from codebounds.errors import FileFormatError
from codebounds.fileio import (parse_qary, parse_spherical, serialize_qary,
                               serialize_spherical)
from codebounds.scalars import format_scalar, parse_scalar
from codebounds.search import heuristic_rho


def test_spherical_round_trip_exact():
    vset = cross_polytope(3)
    text = serialize_spherical(vset)
    back = parse_spherical(text, exact=True)
    assert back.dimension == vset.dimension
    assert back.vectors == vset.vectors
    # byte stability: serializing the parsed object reproduces the bytes
    assert serialize_spherical(back) == text


def test_spherical_round_trip_rational_entries():
    vset = UnitVectorSet(2, ((Fraction(3, 5), Fraction(4, 5)), (1, 0)))
    text = serialize_spherical(vset)
    assert "3/5" in text
    back = parse_spherical(text, exact=True)
    assert back.vectors == vset.vectors
    assert serialize_spherical(back) == text


def test_spherical_round_trip_float():
    vset = UnitVectorSet(3, ((0.6, 0.8, 0.0), (2 ** -0.5, -(2 ** -0.5), 0.0)))
    text = serialize_spherical(vset)
    back = parse_spherical(text, exact=False)
    assert back.vectors == vset.vectors
    assert serialize_spherical(back) == text


def test_spherical_comments_and_blanks_ignored():
    text = "# generated file\nsphere 2\n\n1 0\n# manifest: {}\n0 1\n"
    vset = parse_spherical(text)
    assert vset.vectors == ((1, 0), (0, 1))


def test_qary_round_trip():
    code = hadamard_code(sylvester_hadamard(2))
    text = serialize_qary(code)
    back = parse_qary(text)
    assert back.q == 2 and back.r == 4
    assert back.words == code.words
    assert serialize_qary(back) == text


@pytest.mark.parametrize("text", [
    "",
    "# only comments\n",
    "sphere\n1 0\n",
    "sphere x\n1 0\n",
    "sphere 2\n1\n",
    "sphere 2\n1 zebra\n",
    "sphere 2\n",
    "circle 2\n1 0\n",
])
def test_spherical_malformed(text):
    with pytest.raises(FileFormatError):
        parse_spherical(text)


@pytest.mark.parametrize("text", [
    "",
    "qary 2\n0 1\n",
    "qary 2 2\n0\n",
    "qary 2 2\n0 2\n",
    "qary 2 2\n0 x\n",
    "qary 2 2\n",
    "qary 2 2\n0 1\n0 1\n",   # duplicates
    "sphere 2\n1 0\n",
])
def test_qary_malformed(text):
    with pytest.raises(FileFormatError):
        parse_qary(text)


def test_qary_negative_symbol_rejected():
    with pytest.raises(FileFormatError):
        parse_qary("qary 3 2\n0 -1\n")


# ---- the per-token loops that the per-file tables replaced, kept as oracles

def _loop_parse_spherical(text, exact=True):
    lines = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1)
             if raw.strip() and not raw.strip().startswith("#")]
    d = int(lines[0][1].split()[1])
    vectors = []
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != d:
            raise FileFormatError(f"line {lineno}: expected {d} coordinates, got {len(tokens)}")
        try:
            vectors.append(tuple(parse_scalar(t, exact=exact) for t in tokens))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from None
    return tuple(vectors)


def _loop_serialize_spherical(vset):
    out = [f"sphere {vset.dimension}"]
    for v in vset.vectors:
        out.append(" ".join(format_scalar(x) for x in v))
    return "\n".join(out) + "\n"


def _loop_parse_qary(text):
    lines = [(i, raw.strip()) for i, raw in enumerate(text.splitlines(), start=1)
             if raw.strip() and not raw.strip().startswith("#")]
    _, q, r = lines[0][1].split()
    q, r = int(q), int(r)
    words = []
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != r:
            raise FileFormatError(f"line {lineno}: expected {r} symbols, got {len(tokens)}")
        try:
            word = tuple(int(t) for t in tokens)
        except ValueError:
            raise FileFormatError(f"line {lineno}: non-integer symbol") from None
        for s in word:
            if not 0 <= s < q:
                raise FileFormatError(f"line {lineno}: symbol {s} outside [0, {q})")
        words.append(word)
    return tuple(words)


def _loop_serialize_qary(code):
    out = [f"qary {code.q} {code.r}"]
    for w in code.words:
        out.append(" ".join(str(s) for s in w))
    return "\n".join(out) + "\n"


def _typed(vectors):
    """Each coordinate as (type, repr): tells 0.0 from -0.0 and 1 from 1.0."""
    return [[(type(x), repr(x)) for x in v] for v in vectors]


def _hadamard_embedding(t):
    return embed_qary(hadamard_code(sylvester_hadamard(t))).unit_vectors()


def _rational_sphere_file(rng, n, d, spread=4):
    """Inverse stereographic images of random rational points, as n/d tokens."""
    rows = []
    for _ in range(n):
        y = [Fraction(rng.randint(-spread, spread), rng.randint(1, spread))
             for _ in range(d - 1)]
        norm_sq = sum(t * t for t in y)
        p = [2 * t / (norm_sq + 1) for t in y] + [(norm_sq - 1) / (norm_sq + 1)]
        rows.append(" ".join(f"{x.numerator}/{x.denominator}" for x in p))
    return f"sphere {d}\n" + "\n".join(rows) + "\n"


_SPHERE_CASES = {
    "hadamard64-exact": (lambda: serialize_spherical(_hadamard_embedding(6)), True),
    "hadamard128-float": (lambda: serialize_spherical(_hadamard_embedding(7)), False),
    "crosspolytope3": (lambda: serialize_spherical(cross_polytope(3)), True),
    "crosspolytope16-float": (lambda: serialize_spherical(cross_polytope(16)), False),
    **{f"random-rational-d{d}": (lambda d=d: _rational_sphere_file(random.Random(d), 12, d), True)
       for d in (2, 4, 6)},
}


@pytest.mark.parametrize("case", sorted(_SPHERE_CASES))
def test_spherical_tables_match_per_token_loops(case):
    make, exact = _SPHERE_CASES[case]
    text = make()
    for mode in (exact, False):
        back = parse_spherical(text, exact=mode)
        assert _typed(back.vectors) == _typed(_loop_parse_spherical(text, exact=mode))
        assert serialize_spherical(back) == _loop_serialize_spherical(back)


def _respelled_sphere_file(rng, n, d):
    """Random rational points on the sphere, each coordinate spelled as a
    signed or unsigned ratio that may be unreduced: equal values of
    different spellings are distinct tokens."""
    rows = []
    for _ in range(n):
        y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d - 1)]
        norm_sq = sum(t * t for t in y)
        point = [2 * t / (norm_sq + 1) for t in y] + [(norm_sq - 1) / (norm_sq + 1)]
        tokens = []
        for x in point:
            k = rng.randint(1, 3)
            sign = "-" if x < 0 else rng.choice(("", "+", "-" if x == 0 else ""))
            tokens.append(f"{sign}{abs(x.numerator) * k}/{x.denominator * k}")
        rows.append(" ".join(tokens))
    return f"sphere {d}\n" + "\n".join(rows) + "\n"


# each file, and the dtype of its exact rows when the case pins it: A = L * V
# is int64 while d * max|A|^2 < 2^63
_EXACT_FORM_CASES = {
    **{f"repeated-tokens-d{d}": (_rational_sphere_file(random.Random(d), 12, d), None)
       for d in (2, 5)},
    **{f"respelled-d{d}": (_respelled_sphere_file(random.Random(10 + d), 12, d), None)
       for d in (2, 4, 7)},
    "hadamard16": (serialize_spherical(_hadamard_embedding(4)), np.int64),
    "unreduced-and-signed": ("sphere 4\n2/4 +3/6 0.50 -0\n-1/2 +0.5 -2/4 0\n"
                             "1 0 -0 +0\n-0.25 +1/4 0.125 -1/8\n", np.int64),
    "integers": ("sphere 3\n1 0 0\n0 -1 0\n0 0 +1\n2 -3 7\n", np.int64),
    # max|A| is the lcm L: 2 * (2^30)^2 < 2^63, and L = 46337 * 46339 has
    # L^2 < 2^63 < 4 * L^2
    "below-the-int64-gate": ("sphere 2\n1/1073741824 1/2\n1 0\n", np.int64),
    "above-the-int64-gate": ("sphere 4\n1/46337 2/46339 0 0\n1 0 0 0\n", object),
}


@pytest.mark.parametrize("case", sorted(_EXACT_FORM_CASES))
def test_a_parsed_exact_set_has_the_constructors_exact_form(case):
    text, dtype = _EXACT_FORM_CASES[case]
    parsed = parse_spherical(text)
    assert _typed(parsed.vectors) == _typed(_loop_parse_spherical(text))
    (a, c, factor), (ref, ref_c, _) = parsed._exact, UnitVectorSet(
        parsed.dimension, parsed.vectors)._exact
    assert factor is a and c == ref_c
    assert a.dtype == ref.dtype and a.shape == ref.shape
    assert [[(type(x), x) for x in row] for row in a.tolist()] == \
        [[(type(x), x) for x in row] for row in ref.tolist()]
    if dtype is not None:
        assert a.dtype == dtype


@pytest.mark.parametrize("vectors", [
    ((0.0, -0.0, 1.0), (-0.0, 0.0, -1.0), (0.0, 0.0, 0.6), (-0.0, -0.0, 0.6)),
    ((1, Fraction(1), Fraction(1, 2)), (0, Fraction(0), Fraction(-1, 2)), (1, 0, 0)),
    # a float set may hold exact coordinates; 1 and 1.0, 1/2 and 0.5 print apart
    ((1, 1.0, 0.5, Fraction(1, 2)), (1.0, 1, Fraction(1, 2), 0.5), (0, 0.0, -0.0, 0)),
    ((2 ** -0.5, 1e-20, 1e22), (2 ** -0.5, 1e-20, 1e22)),
    # more distinct floats than dimensions
    ((0.1, 0.2), (0.3, 0.1), (0.2, 0.3), (0.3, 0.4)),
])
def test_serialize_spherical_keeps_each_scalars_own_text(vectors):
    vset = UnitVectorSet(len(vectors[0]), vectors)
    assert serialize_spherical(vset) == _loop_serialize_spherical(vset)


def test_mixed_exact_and_float_coordinates_make_a_float_set():
    assert UnitVectorSet(2, ((1, 1.0),)).mode() == "float"


def test_serialize_spherical_all_distinct_floats():
    rng = random.Random(7)
    vset = UnitVectorSet(50, tuple(tuple(rng.uniform(-1, 1) for _ in range(50))
                                   for _ in range(20)))
    assert serialize_spherical(vset) == _loop_serialize_spherical(vset)


@pytest.mark.parametrize("code", [
    hadamard_code(sylvester_hadamard(6)),
    QaryCode(3, 8, tuple(sorted({tuple(random.Random(i).randrange(3) for _ in range(8))
                                 for i in range(40)}))),
    QaryCode(12, 3, ((0, 11, 10), (10, 1, 11), (11, 10, 0))),
    # symbols beyond uint64 reach QaryCode as an object array
    QaryCode(2 ** 70, 2, ((2 ** 69, 0), (1, 2 ** 70 - 1))),
])
def test_qary_tables_match_per_token_loops(code):
    text = serialize_qary(code)
    assert text == _loop_serialize_qary(code)
    assert parse_qary(text).words == _loop_parse_qary(text)


def _error(parse, text):
    with pytest.raises(FileFormatError) as info:
        parse(text)
    return str(info.value)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("text,message", [
    # the first bad token of a line is the one reported
    ("sphere 3\n1 1e5 inf\n", "line 2: not a scalar token: '1e5'"),
    ("sphere 3\n1 0 0\n0 inf 1e5\n", "line 3: not a scalar token: 'inf'"),
    # a bad token is never stored, so it fails at its first line
    ("sphere 2\n1 0\n0 zz\nzz 1\n", "line 3: not a scalar token: 'zz'"),
    ("sphere 2\n1 0\n1/0 1\n0 1/0\n", "line 3: zero denominator in '1/0'"),
    # a count error on an earlier line wins over a bad token on a later one
    ("sphere 2\n1\n1 zz\n", "line 2: expected 2 coordinates, got 1"),
    ("sphere 2\n1 0\n0 1 0\n1 nan\n", "line 3: expected 2 coordinates, got 3"),
])
def test_spherical_error_texts(text, message, exact):
    assert _error(lambda t: parse_spherical(t, exact=exact), text) == message
    assert _error(lambda t: _loop_parse_spherical(t, exact=exact), text) == message


@pytest.mark.parametrize("text,message", [
    ("qary 2 2\n0 1\n0 x\n", "line 3: non-integer symbol"),
    ("qary 2 2\n0 1\n0 2\n", "line 3: symbol 2 outside [0, 2)"),
    ("qary 2 2\n0 1\n1 2\n", "line 3: symbol 2 outside [0, 2)"),
    # within a line, a non-integer symbol wins over an earlier out-of-range one
    ("qary 2 2\n0 1\n2 x\n", "line 3: non-integer symbol"),
    ("qary 3 2\n0 1\n1 -1\n", "line 3: symbol -1 outside [0, 3)"),
    ("qary 2 2\n0 1\n1\n0 x\n", "line 3: expected 2 symbols, got 1"),
])
def test_qary_error_texts(text, message):
    assert _error(parse_qary, text) == message
    assert _error(_loop_parse_qary, text) == message


def test_qary_symbols_keep_int_spellings():
    # a token missing from the table is read by int(), as the per-token loop read it
    code = parse_qary("qary 2 2\n0 01\n+1 0\n1 1\n")
    assert code.words == ((0, 1), (1, 0), (1, 1))


def _random_code(seed, q, r, n):
    rng = random.Random(seed)
    words = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    return QaryCode(q, r, sorted(words))


# sets whose text the table writer must give exactly as a loop over every
# coordinate does: code images (a zero coordinate first appears at q = 3),
# signed zeros, exponent-form floats and the optimizer's all-distinct witness
_WRITER_CASES = {
    "image-q2": lambda: _hadamard_embedding(4),
    "image-q3": lambda: code_image(_random_code(3, 3, 5, 30)),
    "image-q5": lambda: code_image(_random_code(5, 5, 3, 20)),
    "signed-zeros-parsed": lambda: parse_spherical(
        "sphere 3\n0.0 -0.0 1.0\n-0.0 0 -1.0\n0.6 0.8 -0\n", exact=False),
    "signed-zeros": lambda: UnitVectorSet(2, ((0.0, 1.0), (-0.0, -1.0), (1.0, -0.0), (-1.0, 0.0))),
    "exponent-form": lambda: UnitVectorSet(3, ((1e-07, -2.5e-16, 1.0), (1e22, 5e-324, -1e-05))),
    "optimizer-witness": lambda: heuristic_rho(6, 12, iterations=40, seed=3).witness,
    # float files whose tokens repeat, so that the table writer formats each once
    "repeated-tokens-parsed": lambda: parse_spherical(
        "sphere 3\n0.6 0.8 0\n0.8 -0.6 0\n0 0 1\n0.6 0.8 0\n-0.6 0.8 0\n", exact=False),
    "zero-signs-parsed": lambda: parse_spherical(
        "sphere 2\n0.0 1\n-0.0 -1\n1 -0.0\n-1 0.0\n0.0 -1\n", exact=False),
    "one-spellings-parsed": lambda: parse_spherical(
        "sphere 2\n1 0\n1.0 0.0\n0 1\n0.0 1.0\n-1 0\n-1.0 0\n", exact=False),
}


def test_a_float_file_is_its_distinct_tokens_and_an_index():
    # a token is one float entry however often it repeats; 0.0 and -0.0, 1 and
    # 1.0, 1/2 and 0.5 are distinct tokens, so each is its own entry
    vset = parse_spherical("sphere 2\n1 0.0\n-0.0 1.0\n1/2 0.5\n1 0.0\n1.0 -0.0\n",
                           exact=False)
    assert [(type(x), repr(x)) for x in vset.scalars] == [
        (float, "1.0"), (float, "0.0"), (float, "-0.0"), (float, "1.0"), (float, "0.5"),
        (float, "0.5")]
    assert vset.index.tolist() == [[0, 1], [2, 3], [4, 5], [0, 1], [3, 2]]
    assert vset.index.dtype == np.uint8 and not vset.index.flags.writeable
    assert vset.mode() == "float"
    # 300 distinct tokens take a uint16 index, whatever the number of coordinates
    tokens = [f"{k}/300" for k in range(300)]
    wide = parse_spherical("sphere 1\n" + "\n".join(tokens * 2) + "\n", exact=False)
    assert wide.scalars == [parse_scalar(t, exact=False) for t in tokens]
    assert wide.index.dtype == np.uint16 and wide.index.ravel().tolist() == [*range(300)] * 2


@pytest.mark.parametrize("case", sorted(_WRITER_CASES))
def test_serialize_spherical_matches_the_per_coordinate_loop(case):
    vset = _WRITER_CASES[case]()
    assert serialize_spherical(vset) == _loop_serialize_spherical(vset)


@pytest.mark.parametrize("code", [
    _random_code(0, 2, 9, 40),
    _random_code(1, 12, 4, 50),
    QaryCode(2 ** 70, 3, ((2 ** 70 - 1, 0, 2 ** 69), (1, 2 ** 64, 7), (0, 0, 0))),
], ids=["q2", "q12", "q2^70"])
def test_qary_text_round_trips(code):
    text = serialize_qary(code)
    assert text == _loop_serialize_qary(code)
    back = parse_qary(text)
    assert (back.q, back.r, back.words) == (code.q, code.r, code.words)
    assert back.array.dtype == code.array.dtype == np.min_scalar_type(code.q - 1)
    assert serialize_qary(back) == text


def test_an_all_distinct_set_is_written_without_holding_every_text():
    # the witness's 10,000 texts are not all held at once: the peak stays near
    # the two copies of the text that the line list and its join make
    vset = heuristic_rho(50, 200, iterations=5, seed=2).witness
    tracemalloc.start()
    try:
        text = serialize_spherical(vset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _loop_serialize_spherical(vset)
    assert peak < 2.5 * len(text)
