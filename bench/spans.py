"""In-memory spans around the public functions of codebounds, and the
per-layer metrics computed from them.

A span is ``[name, start, end, parent, job, attrs]``: ``parent`` is the index
of the enclosing span (-1 at a job's root) and ``attrs`` holds counts read
from the call's arguments or result (None when the target has none, False
when they could not be read).  Spans stay in memory while jobs run and are
written out once the workload ends.

Wrappers are installed where callers bind the functions: a function is
replaced on its own module and on every codebounds module that imported it
by name, so ``codes.rank`` and ``linalg.rank`` both record.  A target that no
longer exists is listed as unmeasured and every metric built on it reads
None, never zero.
"""

import functools
import importlib
import json
import sys
import time


class Tracer:
    """Spans of one traced run; install() puts the wrappers in place."""

    def __init__(self):
        self.spans = []
        self.unmeasured = []
        self.job = None
        self._stack = []
        self._patches = []     # (owner, attribute, original, wrapper)

    def begin_job(self, job):
        """Open the root span of one job; end_job closes it."""
        self.job = job
        self.spans.append(["job", time.perf_counter(), 0.0, -1, job, None])
        self._stack.append(len(self.spans) - 1)

    def end_job(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            result = error = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if attrs is not None:
                    try:
                        span[5] = attrs(args, kwargs, result, error)
                    except (AttributeError, KeyError, IndexError, TypeError):
                        span[5] = False
        return traced

    def install(self, targets):
        """Wrap each (module, qualname, span name, attrs) target; set_active
        switches between the wrappers and the original functions."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "codebounds" or key.startswith("codebounds.")]
        for module_name, qualname, span_name, attrs in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(span_name)
                continue
            wrapped = self.wrap(span_name, original, attrs)
            self._patches.append((owner, attr, original, wrapped))
            if path:
                continue   # a method: callers reach it through the class
            for module in modules:
                for key, value in vars(module).items():
                    if value is original and (module, key) != (owner, attr):
                        self._patches.append((module, key, original, wrapped))
        self.set_active(True)

    def set_active(self, active):
        for owner, attr, original, wrapped in self._patches:
            setattr(owner, attr, wrapped if active else original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _text_bytes(args, kwargs, result, error):
    return {"bytes": len(_first(args, kwargs, "text").encode())}


def _rank_attrs(args, kwargs, result, error):
    m = _first(args, kwargs, "m")
    exact = not any(isinstance(x, float) for row in m.rows for x in row)
    return {"n3": m.n ** 3, "exact": exact}


def _scan_attrs(args, kwargs, result, error):
    details = result.details
    vacuous = result.status == "vacuous"
    steps = details["scanned_up_to"] if vacuous else details["first_failure"]
    return {"steps": steps, "vacuous": vacuous}


def _node_attrs(args, kwargs, result, error):
    return {"nodes": (result if error is None else error.result).nodes}


def _iteration_attrs(args, kwargs, result, error):
    return {"iterations": result.nodes}


# helpers called once per matrix entry or word pair (hamming_distance,
# format_scalar, mode_of) are left unwrapped: a span per call would cost
# more than the call itself
TARGETS = [
    ("codebounds.cli", "main", "cli.main", None),
    ("codebounds.fileio", "parse_spherical", "fileio.parse_spherical", _text_bytes),
    ("codebounds.fileio", "parse_qary", "fileio.parse_qary", _text_bytes),
    ("codebounds.fileio", "serialize_spherical", "fileio.serialize_spherical", None),
    ("codebounds.fileio", "serialize_qary", "fileio.serialize_qary", None),
    ("codebounds.scalars", "parse_scalar", "scalars.parse_scalar", None),
    ("codebounds.constructions", "sylvester_hadamard", "constructions.sylvester_hadamard", None),
    ("codebounds.constructions", "hadamard_code", "constructions.hadamard_code", None),
    ("codebounds.constructions", "cross_polytope", "constructions.cross_polytope", None),
    ("codebounds.constructions", "simplex_vectors", "constructions.simplex_vectors", None),
    ("codebounds.constructions", "embed_qary", "constructions.embed_qary", None),
    ("codebounds.codes", "UnitVectorSet.raw_gram", "codes.raw_gram", None),
    ("codebounds.codes", "gram_analyze", "codes.gram_analyze", None),
    ("codebounds.codes", "certify_chain", "codes.certify_chain", None),
    ("codebounds.codes", "verify_lemma_beta", "codes.verify_lemma_beta", None),
    ("codebounds.codes", "verify_lemma_gamma", "codes.verify_lemma_gamma", None),
    ("codebounds.codes", "verify_spherical_code", "codes.verify_spherical_code", None),
    ("codebounds.codes", "min_distance", "codes.min_distance", None),
    ("codebounds.linalg", "rank", "linalg.rank", _rank_attrs),
    ("codebounds.linalg", "trace_of_square", "linalg.trace_of_square", None),
    ("codebounds.linalg", "verify_trace_rank", "linalg.verify_trace_rank", None),
    ("codebounds.certificates", "make_link", "certificates.make_link", None),
    ("codebounds.bounds", "m_upper", "bounds.m_upper", _scan_attrs),
    ("codebounds.bounds", "aq_upper", "bounds.aq_upper", None),
    ("codebounds.bounds", "rho_lower", "bounds.rho_lower", None),
    ("codebounds.search", "exact_max_code", "search.exact_max_code", _node_attrs),
    ("codebounds.search", "greedy_lexicode", "search.greedy_lexicode", None),
    ("codebounds.search", "heuristic_rho", "search.heuristic_rho", _iteration_attrs),
]


class _Layers:
    """Per span name: call count, outermost inclusive time, self time, and
    (job, duration, attrs) of every call."""

    def __init__(self, spans, unmeasured):
        self.unmeasured = set(unmeasured)
        self.calls, self.incl, self.self_s, self.records = {}, {}, {}, {}
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, job, attrs) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:    # not nested in a call of the same function
                self.incl[name] = self.incl.get(name, 0.0) + dur
            self.records.setdefault(name, []).append((job, dur, attrs))

    def seconds(self, *names):
        if self.unmeasured.intersection(names):
            return None
        return sum(self.incl.get(n, 0.0) for n in names)

    def count(self, name):
        return None if name in self.unmeasured else self.calls.get(name, 0)

    def own_seconds(self, name):
        return None if name in self.unmeasured else self.self_s.get(name, 0.0)

    def total(self, name, value, keep=lambda job, attrs: True):
        """Sum of value(duration, attrs) over the calls that keep selects;
        None when the target is gone or a call's attrs could not be read."""
        if name in self.unmeasured:
            return None
        out = 0
        for job, dur, attrs in self.records.get(name, []):
            if attrs is False:
                return None
            if keep(job, attrs):
                out += value(dur, attrs)
        return out


def _ratio(work, busy):
    if work is None or busy is None:
        return None
    return work / busy if busy > 0 else 0.0


def layer_metrics(spans, unmeasured, job_tags):
    """Per-layer metrics as {name: (value or None, unit)}.

    A rate reads 0 on a workload that never calls its layer; a value of None
    means the wrapped function no longer exists under that name.
    """
    L = _Layers(spans, unmeasured)

    def attr(key):
        return lambda dur, attrs: attrs[key]

    def duration(dur, attrs):
        return dur

    def rho_rate(tag):
        def keep(job, attrs):
            return job_tags.get(job) == tag
        return _ratio(L.total("search.heuristic_rho", attr("iterations"), keep),
                      L.total("search.heuristic_rho", duration, keep))

    bytes_read = [L.total(n, attr("bytes")) for n in ("fileio.parse_spherical",
                                                      "fileio.parse_qary")]
    nodes = L.total("search.exact_max_code", attr("nodes"))
    return {
        "bounds.m_upper.s": (L.seconds("bounds.m_upper"), "s"),
        "bounds.m_upper.calls": (L.count("bounds.m_upper"), "count"),
        "bounds.m_upper.scan_steps": (L.total("bounds.m_upper", attr("steps")), "count"),
        "bounds.m_upper.vacuous": (L.total("bounds.m_upper", attr("vacuous")), "count"),
        "bounds.aq_upper.s": (L.seconds("bounds.aq_upper"), "s"),
        "linalg.rank.exact_s": (L.total("linalg.rank", duration,
                                        lambda job, attrs: attrs["exact"]), "s"),
        "linalg.rank.float_s": (L.total("linalg.rank", duration,
                                        lambda job, attrs: not attrs["exact"]), "s"),
        "linalg.rank.calls": (L.count("linalg.rank"), "count"),
        "linalg.rank.n3_sum": (L.total("linalg.rank", attr("n3")), "count"),
        "linalg.trace_of_square.s": (L.seconds("linalg.trace_of_square"), "s"),
        "codes.gram_analyze.s": (L.seconds("codes.gram_analyze"), "s"),
        "codes.certify_chain.self_s": (L.own_seconds("codes.certify_chain"), "s"),
        "codes.lemmas.s": (L.seconds("codes.verify_lemma_beta", "codes.verify_lemma_gamma"), "s"),
        "constructions.embed_qary.s": (L.seconds("constructions.embed_qary"), "s"),
        "constructions.hadamard_code.s": (L.seconds("constructions.hadamard_code"), "s"),
        "certificates.make_link.calls": (L.count("certificates.make_link"), "count"),
        "codes.raw_gram.s": (L.seconds("codes.raw_gram"), "s"),
        "fileio.parse_spherical.s": (L.seconds("fileio.parse_spherical"), "s"),
        "fileio.parse_qary.s": (L.seconds("fileio.parse_qary"), "s"),
        "fileio.serialize.s": (L.seconds("fileio.serialize_spherical",
                                         "fileio.serialize_qary"), "s"),
        "fileio.bytes_read": (None if None in bytes_read else sum(bytes_read), "bytes"),
        "scalars.parse_scalar.calls": (L.count("scalars.parse_scalar"), "count"),
        "scalars.parse_scalar.s": (L.seconds("scalars.parse_scalar"), "s"),
        "codes.min_distance.s": (L.seconds("codes.min_distance"), "s"),
        "search.exact_max_code.s": (L.seconds("search.exact_max_code"), "s"),
        "search.nodes": (nodes, "count"),
        "search.nodes_per_s": (_ratio(nodes, L.seconds("search.exact_max_code")), "1/s"),
        "search.greedy_lexicode.s": (L.seconds("search.greedy_lexicode"), "s"),
        "search.heuristic_rho.s": (L.seconds("search.heuristic_rho"), "s"),
        "search.rho_iters_per_s.small": (rho_rate("small"), "1/s"),
        "search.rho_iters_per_s.large": (rho_rate("large"), "1/s"),
        "cli.main.s": (L.seconds("cli.main"), "s"),
        "cli.self_s": (L.own_seconds("cli.main"), "s"),
    }
