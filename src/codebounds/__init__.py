"""Bounds, certificates, constructions, and search oracles for spherical and q-ary codes."""

__version__ = "0.1.0"

from .bounds import (BoundReport, aq_upper, bq_window, m_upper, ms_upper,
                     plotkin_upper, ramsey_asymptotic, ramsey_lower,
                     ramsey_upper_param, rho_lower)
from .certificates import Certificate, Link
from .codes import (GramAnalysis, QaryCode, UnitVectorSet, certify_chain,
                    gram_analyze, hamming_distance, min_distance,
                    verify_lemma_beta, verify_lemma_gamma, verify_spherical_code)
from .constructions import (EmbeddedCode, HadamardMatrix, cross_polytope,
                            embed_qary, hadamard_code, pm_one_embedding,
                            simplex_vectors, sylvester_hadamard)
from .linalg import gram_from_rows, rank, trace, trace_of_square, verify_trace_rank
from .scalars import Scalar, format_scalar, parse_scalar
from .search import SearchResult, exact_max_code, greedy_lexicode, heuristic_rho

__all__ = [
    "BoundReport", "Certificate", "EmbeddedCode", "GramAnalysis",
    "HadamardMatrix", "Link", "QaryCode", "Scalar", "SearchResult",
    "UnitVectorSet", "aq_upper", "bq_window", "certify_chain", "cross_polytope",
    "embed_qary", "exact_max_code", "format_scalar", "gram_analyze",
    "gram_from_rows", "greedy_lexicode", "hadamard_code", "hamming_distance",
    "heuristic_rho", "m_upper", "min_distance", "ms_upper", "parse_scalar",
    "plotkin_upper", "pm_one_embedding", "ramsey_asymptotic", "ramsey_lower",
    "ramsey_upper_param", "rank", "rho_lower", "simplex_vectors",
    "sylvester_hadamard", "trace", "trace_of_square", "verify_lemma_beta",
    "verify_lemma_gamma", "verify_spherical_code", "verify_trace_rank",
]
