"""Bit-stable text formats for code objects and JSON emission for reports.

Spherical code file:  line 1 is ``sphere <d>``, then one vector per line as
d whitespace-separated scalar tokens.  Q-ary code file: line 1 is
``qary <q> <r>``, then one codeword per line as r integers in [0, q).
Blank lines and ``#`` comment lines are ignored on input, which lets writers
append run manifests without breaking round-trips.  Each distinct token is
parsed once per file, and each of a code image's few distinct floats is
printed once per file.  An exact sphere file's set is built from its list of
distinct scalars and each coordinate's index into that list, so its exact
form scales each distinct scalar once.  A q-ary file's words reach
``QaryCode`` as one array of the least type that holds q - 1.
"""

import hashlib
import json

import numpy as np

from .codes import QaryCode, UnitVectorSet
from .errors import CodeBoundsError, FileFormatError
from .scalars import format_scalar, parse_scalar


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_spherical(text: str, exact: bool = True) -> UnitVectorSet:
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError("empty file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "sphere":
        raise FileFormatError(f"line {lineno}: expected 'sphere <d>', got {header!r}")
    try:
        d = int(parts[1])
    except ValueError:
        raise FileFormatError(f"line {lineno}: bad dimension {parts[1]!r}") from None
    if d < 1:
        raise FileFormatError(f"line {lineno}: dimension must be >= 1")
    # token -> parse_scalar(token), or in exact mode its index in scalars; a
    # token that fails is never stored
    rows, values, scalars = [], {}, []
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != d:
            raise FileFormatError(f"line {lineno}: expected {d} coordinates, got {len(tokens)}")
        for t in tokens:
            if t not in values:
                try:
                    x = parse_scalar(t, exact=exact)
                except ValueError as exc:
                    raise FileFormatError(f"line {lineno}: {exc}") from None
                if exact:
                    values[t] = len(scalars)
                    scalars.append(x)
                else:
                    values[t] = x
        rows.append(tuple(map(values.__getitem__, tokens)))
    if not rows:
        raise FileFormatError("no vectors in file")
    return UnitVectorSet._from_table(d, scalars, rows) if exact else UnitVectorSet(d, rows)


def serialize_spherical(vset: UnitVectorSet) -> str:
    # only nonzero floats are memoised: equal ones print alike, while 0.0 and
    # -0.0 do not, nor 1 and 1.0, and a Fraction hashes slower than it prints.
    # A code image has a few distinct coordinates, so at most d are kept: an
    # optimizer's witness, all distinct, does not hold every text to the end.
    texts, d = {}, vset.dimension
    out = [f"sphere {d}"]
    for v in vset.vectors:
        row = []
        for x in v:
            if x.__class__ is float and x:
                s = texts.get(x)
                if s is None:
                    s = format_scalar(x)
                    if len(texts) < d:
                        texts[x] = s
            else:
                s = format_scalar(x)
            row.append(s)
        out.append(" ".join(row))
    out.append("")      # the final newline, without a second copy of the text
    return "\n".join(out)


def parse_qary(text: str) -> QaryCode:
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError("empty file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "qary":
        raise FileFormatError(f"line {lineno}: expected 'qary <q> <r>', got {header!r}")
    try:
        q, r = int(parts[1]), int(parts[2])
    except ValueError:
        raise FileFormatError(f"line {lineno}: bad parameters {header!r}") from None
    words = []
    symbols = {}   # token -> its symbol, for tokens already read as one in [0, q)
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != r:
            raise FileFormatError(f"line {lineno}: expected {r} symbols, got {len(tokens)}")
        try:
            word = tuple(map(symbols.__getitem__, tokens))
        except KeyError:
            try:
                word = tuple(int(t) for t in tokens)
            except ValueError:
                raise FileFormatError(f"line {lineno}: non-integer symbol") from None
            for s in word:
                if not 0 <= s < q:
                    raise FileFormatError(f"line {lineno}: symbol {s} outside [0, {q})")
            symbols.update(zip(tokens, word))
        words.append(word)
    if not words:
        raise FileFormatError("no codewords in file")
    try:
        # the least type that holds every symbol, for QaryCode's one range check
        return QaryCode(q, r, np.array(words, dtype=np.min_scalar_type(q - 1)))
    except CodeBoundsError as exc:
        raise FileFormatError(str(exc)) from None


def serialize_qary(code: QaryCode) -> str:
    names = {s: str(s) for s in set().union(*code.words)}
    out = [f"qary {code.q} {code.r}"]
    for w in code.words:
        out.append(" ".join(map(names.__getitem__, w)))
    out.append("")
    return "\n".join(out)


def record_json(record) -> str:
    """A BoundReport's or Certificate's to_dict(), as indented JSON."""
    return json.dumps(record.to_dict(), indent=2, sort_keys=False)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
