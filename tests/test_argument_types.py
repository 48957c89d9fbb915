"""Entry points read numpy integers as the Python ints they hold, and a vector
set holds only coordinates the file writer can print."""

import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import codebounds
from codebounds import bounds, constructions, search
from codebounds.codes import QaryCode, UnitVectorSet, certify_chain, verify_spherical_code
from codebounds.errors import InvalidCode
from codebounds.fileio import parse_spherical, serialize_spherical


def outcome(call, *args):
    """repr of what the call returns, which shows a numpy integer as one, or
    the type and text of what it raises."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def numpy_ints(args):
    return [np.int64(a) if type(a) is int else a for a in args]


def to_dict_of(call):
    return lambda *args: call(*args).to_dict()


def chain_of_image(q, r):
    code = QaryCode(q, r, [(0,) * r, (1,) * r, (2,) + (0,) * (r - 1)])
    return certify_chain(constructions.embed_qary(code).unit_vectors()).to_dict()


CASES = {
    # 2^64 wraps to 0 in int64 and passed the 8192-word guard
    "word-table-2-64": (search._word_table, (2, 64, 3)),
    # 3^41 wraps to a negative row count
    "word-table-3-41": (search._word_table, (3, 41, 3)),
    "word-table": (search._word_table, (2, 3, 2)),
    # int64 wrapped to -4723, reported as certified-exact
    "aq-wraps": (to_dict_of(bounds.aq_upper), (2, 10_000, 4990)),
    "aq": (to_dict_of(bounds.aq_upper), (2, 8, 4)),
    # int64 overflowed and the report came out vacuous
    "m-overflows": (to_dict_of(bounds.m_upper), (1000, Fraction(1, 10 ** 6))),
    "m-alpha-zero": (to_dict_of(bounds.m_upper), (4, 0)),
    "m-numpy-alpha": (lambda r, a: bounds.m_upper(r, Fraction(a, 10 ** 6)).to_dict(),
                      (1000, 1)),
    "m-numpy-denominator": (lambda r, b: bounds.m_upper(r, Fraction(1, b)).to_dict(),
                            (1000, 10 ** 6)),
    # 2(q-1)r wrapped to -2^63
    "ramsey-asymptotic-wraps": (to_dict_of(bounds.ramsey_asymptotic), (2, 2 ** 62, 0)),
    "ramsey-asymptotic-distance-zero": (to_dict_of(bounds.ramsey_asymptotic), (2, 4, 2)),
    "ramsey-lower": (bounds.ramsey_lower, (2, 4, 2, 8)),
    "ramsey-upper": (lambda q, r, s: bounds.ramsey_upper_param(
        q, r, s, Fraction(1, 2), 1, lambda r, s: 2 * r + s).to_dict(), (2, 8, 3)),
    "plotkin": (to_dict_of(bounds.plotkin_upper), (2, 8, 5)),
    # raised OverflowError
    "rho-large": (to_dict_of(bounds.rho_lower), (10 ** 9, 10 ** 12)),
    "rho": (to_dict_of(bounds.rho_lower), (100, 27)),
    "bq-window": (bounds.bq_window, (3,)),
    # raised AttributeError
    "bq-mersenne-prime": (to_dict_of(bounds.bq_window_report), (2 ** 61 - 1,)),
    "bq": (to_dict_of(bounds.bq_window_report), (12,)),
    # raised OverflowError
    "greedy-2-13": (search.greedy_lexicode, (2, 13, 4)),
    "greedy": (search.greedy_lexicode, (3, 4, 2)),
    "exact": (search.exact_max_code, (2, 6, 3)),
    "exact-node-limit": (search.exact_max_code, (2, 6, 3, 5)),
    "rho-search": (search.heuristic_rho, (3, 6, 50, 1)),
    "hadamard": (constructions.sylvester_hadamard, (3,)),
    "hadamard-matrix": (lambda order: constructions.HadamardMatrix(order, [[1, 1], [1, -1]]),
                        (2,)),
    "hadamard-code": (lambda t: constructions.hadamard_code(
        constructions.sylvester_hadamard(t)), (2,)),
    "cross-polytope": (constructions.cross_polytope, (4,)),
    "cross-polytope-chain": (lambda r: certify_chain(constructions.cross_polytope(r)).to_dict(),
                             (4,)),
    "simplex": (constructions.simplex_vectors, (4,)),
    "image-chain": (chain_of_image, (3, 4)),
    "vector-set": (lambda d: verify_spherical_code(
        UnitVectorSet(d, [(1, 0), (0, 1)]), 0).to_dict(), (2,)),
}


@pytest.mark.parametrize("call, args", CASES.values(), ids=CASES.keys())
def test_numpy_integer_arguments_act_as_python_ints(call, args):
    assert outcome(call, *numpy_ints(args)) == outcome(call, *args)


# ended in MemoryError under this cap before numpy integers were read as ints
CAPPED_SEARCH = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from codebounds.search import exact_max_code
try:
    print(repr(exact_max_code(np.int64(2), np.int64(64), np.int64(3))))
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_exact_search_reads_a_numpy_length_before_it_allocates():
    # in a child process under a 2 GiB address-space cap, so that a wrapped
    # word count cannot take this process's memory
    env = {**os.environ, "PYTHONPATH": str(Path(codebounds.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", CAPPED_SEARCH], env=env,
                          capture_output=True, text=True, timeout=120)
    kind, message = outcome(search.exact_max_code, 2, 64, 3)
    assert done.stdout == f"{kind} {message}\n"


@pytest.mark.parametrize("coordinate", [
    True, np.bool_(False), "1", 1j, Decimal("0.5"), None, np.complex128(1)],
    ids=["bool", "numpy-bool", "str", "complex", "decimal", "none", "numpy-complex"])
def test_a_coordinate_the_writer_cannot_print_is_rejected(coordinate):
    with pytest.raises(InvalidCode, match=r"^vector 1: coordinate .* is not an int, "
                                          r"Fraction or float$"):
        UnitVectorSet(2, [(1, 0), (coordinate, 0)])


# each set built from numpy scalars, and the same set from Python scalars
NUMPY_SETS = {
    "int64": (np.array([[1, 0], [0, 1], [-1, 0]]), [(1, 0), (0, 1), (-1, 0)]),
    "uint8": (np.eye(3, dtype=np.uint8), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "float64": (np.array([[0.6, 0.8], [0.8, -0.6]]), [(0.6, 0.8), (0.8, -0.6)]),
    "float32": (np.array([[1, 0], [0.5, -0.75]], dtype=np.float32), [(1.0, 0.0), (0.5, -0.75)]),
    "mixed": ([(np.int32(1), 0), (np.float64(0.0), 1)], [(1, 0), (0.0, 1)]),
}


@pytest.mark.parametrize("numpy_rows, python_rows", NUMPY_SETS.values(), ids=NUMPY_SETS.keys())
def test_a_set_of_numpy_scalars_is_the_set_of_their_python_values(numpy_rows, python_rows):
    dimension = len(python_rows[0])
    built, reference = UnitVectorSet(dimension, numpy_rows), UnitVectorSet(dimension, python_rows)
    assert repr(built) == repr(reference)
    text = serialize_spherical(built)
    assert text == serialize_spherical(reference)
    assert parse_spherical(text, exact=built.mode() == "exact") == built
    for check in (lambda v: verify_spherical_code(v, 1).to_dict(), lambda v: v.raw_gram().rows,
                  lambda v: certify_chain(v).to_dict()):
        assert outcome(check, built) == outcome(check, reference)
