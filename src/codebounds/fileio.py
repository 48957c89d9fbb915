"""Bit-stable text formats for code objects and JSON emission for reports.

Spherical code file:  line 1 is ``sphere <d>``, then one vector per line as
d whitespace-separated scalar tokens.  Q-ary code file: line 1 is
``qary <q> <r>``, then one codeword per line as r integers in [0, q).
A Hadamard matrix is written, never read, as ``# hadamard order <n>`` and
one row per line of 1 and -1.
Blank lines and ``#`` comment lines are ignored on input, which lets writers
append run manifests without breaking round-trips.

Each object is read into, and written from, the arrays it holds (see
``codes``).  A sphere file's set is its distinct tokens' values, each
parsed once (exactly, or rounded to a float when ``exact`` is false), and
each coordinate's index into them, in the least unsigned type.  A q-ary
file's symbols reach ``QaryCode`` as one flat array of the least type that
holds q - 1.  The writers share one table writer that joins each line from
the index and yields the text one row tile (``linalg.row_blocks``) at a
time, so that a caller can write each piece as it is made; ``serialize_*``
return the pieces joined.  A table with repeated entries (a code image's,
a cross polytope's or a parsed file's scalars, a code's distinct symbols,
a Hadamard matrix's 1 and -1) is formatted once, entry by entry; a set
whose scalars are all distinct, such as an optimizer's witness, is
formatted row by row, so that its texts are never all held at once.  A
scalar's text depends on its type and bits, so 0.0 and -0.0, 1 and 1.0,
and 1/2 and 0.5 print apart.
"""

import hashlib
import json

import numpy as np

from .codes import QaryCode, UnitVectorSet
from .constructions import HadamardMatrix
from .errors import CodeBoundsError, FileFormatError
from .linalg import row_blocks
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
    # token -> its index in scalars, the distinct tokens' values in either
    # mode; a token that fails is never stored
    flat, values, scalars = [], {}, []
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != d:
            raise FileFormatError(f"line {lineno}: expected {d} coordinates, got {len(tokens)}")
        for t in tokens:
            if t not in values:
                try:
                    scalars.append(parse_scalar(t, exact=exact))
                except ValueError as exc:
                    raise FileFormatError(f"line {lineno}: {exc}") from None
                values[t] = len(values)
        flat += map(values.__getitem__, tokens)
    if not flat:
        raise FileFormatError("no vectors in file")
    index = np.array(flat, dtype=np.min_scalar_type(len(scalars) - 1))
    return UnitVectorSet._from_table(d, scalars, index.reshape(-1, d))


def _table_pieces(header: str, table: list, tiles, formatted: bool = True):
    """The header line, then one piece per tile of index rows: each row's
    entries of ``table``, space-separated, on its own line.  A table of
    texts is formatted once by the caller; a table of scalars
    (``formatted`` false) is formatted row by row, as its lines are made."""
    if formatted:
        table = np.array(table, dtype=object)
    yield header + "\n"
    for index in tiles:
        if formatted:
            rows = table[index].tolist()
        else:
            rows = (map(format_scalar, map(table.__getitem__, row)) for row in index.tolist())
        yield "\n".join([*map(" ".join, rows), ""])     # with the tile's final newline


def _tiles(a):
    """The row tiles of an array, as views."""
    return (a[i:j] for i, j in row_blocks(len(a)))


def spherical_pieces(vset: UnitVectorSet):
    """The text of ``serialize_spherical``, one row tile at a time."""
    # the set's own table: 0.0 and -0.0, 1 and 1.0, 1/2 and 0.5 are distinct
    # entries whenever they are distinct coordinates, so each prints as itself
    header, scalars, index = f"sphere {vset.dimension}", vset.scalars, vset.index
    if len(scalars) < index.size:       # some scalar repeats, as in a code image
        return _table_pieces(header, list(map(format_scalar, scalars)), _tiles(index))
    # no scalar repeats (an optimizer's witness, say): formatting the table
    # first would save no work and hold every text at once
    return _table_pieces(header, scalars, _tiles(index), formatted=False)


def serialize_spherical(vset: UnitVectorSet) -> str:
    return "".join(spherical_pieces(vset))


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
    # symbols of every word, in order; token -> its symbol, for tokens already
    # read as one in [0, q)
    flat, symbols = [], {}
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != r:
            raise FileFormatError(f"line {lineno}: expected {r} symbols, got {len(tokens)}")
        start = len(flat)
        try:
            flat += map(symbols.__getitem__, tokens)
        except KeyError:
            del flat[start:]
            try:
                word = [int(t) for t in tokens]
            except ValueError:
                raise FileFormatError(f"line {lineno}: non-integer symbol") from None
            for s in word:
                if not 0 <= s < q:
                    raise FileFormatError(f"line {lineno}: symbol {s} outside [0, {q})")
            symbols.update(zip(tokens, word))
            flat += word
    if not flat:
        raise FileFormatError("no codewords in file")
    try:
        # the least type that holds every symbol, for QaryCode's one range check
        return QaryCode(q, r, np.array(flat, dtype=np.min_scalar_type(q - 1)).reshape(-1, r))
    except CodeBoundsError as exc:
        raise FileFormatError(str(exc)) from None


def qary_pieces(code: QaryCode):
    """The text of ``serialize_qary``, one row tile at a time."""
    # the table is the code's distinct symbols, in order, and a symbol's index
    # is its place among them (np.unique would import numpy.ma on first use)
    a = code.array
    ordered = np.sort(a, axis=None)
    symbols = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    return _table_pieces(f"qary {code.q} {code.r}", list(map(format_scalar, symbols.tolist())),
                         (np.searchsorted(symbols, tile) for tile in _tiles(a)))


def serialize_qary(code: QaryCode) -> str:
    return "".join(qary_pieces(code))


def hadamard_pieces(h: HadamardMatrix):
    """The text of ``serialize_hadamard``, one row tile at a time."""
    # an entry's index into ("1", "-1") is whether it is negative
    return _table_pieces(f"# hadamard order {h.order}", ["1", "-1"],
                         ((tile < 0).view(np.uint8) for tile in _tiles(h.array)))


def serialize_hadamard(h: HadamardMatrix) -> str:
    return "".join(hadamard_pieces(h))


def record_json(record) -> str:
    """A BoundReport's or Certificate's to_dict(), as indented JSON."""
    return json.dumps(record.to_dict(), indent=2, sort_keys=False)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
