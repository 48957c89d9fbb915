"""The per-call result records: BoundReport, Link, Certificate and SearchResult."""

import dataclasses

import pytest

from codebounds import BoundReport, Certificate, Link, SearchResult
from codebounds.certificates import make_link

RECORDS = {
    "BoundReport": BoundReport("m-upper", {"r": 4}, 8, "certified-exact"),
    "Link": make_link("holds", 1, 2),
    "Certificate": Certificate.from_links("chain", [make_link("holds", 1, 2)]),
    "SearchResult": SearchResult(4, None, 9),
}


# A --grid sweep builds one BoundReport per cell.  A frozen dataclass sets each
# field through object.__setattr__ in __init__: about 1.4 us a six-field record
# against 0.5 us with slots=True (timeit, 2-CPU Xeon), next to 2-4 us for a
# whole m_upper cell.  A record with an instance __dict__ has lost its slots.
@pytest.mark.parametrize("name", RECORDS)
def test_records_hold_their_fields_in_slots(name):
    record = RECORDS[name]
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))


def test_details_and_meta_default_to_a_fresh_dict_per_instance():
    first, second = BoundReport("x", {}, 1, "s"), BoundReport("x", {}, 1, "s")
    first.details["k"] = 1
    assert (first.note, second.details) == ("", {})
    one, two = Certificate("c", (), "exact", True), Certificate("c", (), "exact", True)
    one.meta["k"] = 1
    assert two.meta == {}


def test_from_links_and_a_positional_search_result_keep_their_defaults():
    link = make_link("holds", 1, 2)
    cert = Certificate.from_links("chain", [link], meta=None)
    assert (cert.links, cert.mode, cert.verdict, cert.meta) == ((link,), "exact", True, {})
    empty = Certificate.from_links("empty", [], meta=None)
    assert (empty.links, empty.mode, empty.verdict, empty.meta) == ((), "exact", True, {})
    meta = {"n": 3}
    assert Certificate.from_links("chain", [link], meta=meta).meta is not meta
    result = SearchResult(4, None, 9)
    assert result == SearchResult(value=4, witness=None, nodes=9, optimal=None, seed=None)
    assert repr(result) == "SearchResult(value=4, witness=None, nodes=9, optimal=None, seed=None)"
    assert [f.name for f in dataclasses.fields(Link)] == [
        "name", "lhs", "rhs", "slack", "mode", "verdict"]
