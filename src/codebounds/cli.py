"""Command-line front end: bound tables, verification, construction, search.

Exit codes: 0 success (all verdicts pass), 1 domain error or failing verdict,
2 argument error or malformed/invalid input file.  Exact arithmetic is the
default everywhere; float mode is opt-in via --float.
"""

import argparse
import csv
import functools
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .bounds import (CERTIFIED_EXACT, BoundReport, aq_upper, bq_window_report,
                     m_upper, ms_upper, plotkin_upper, ramsey_asymptotic,
                     ramsey_lower, ramsey_upper_param, rho_lower)
from .certificates import Certificate, make_link
from .codes import (certify_chain, gram_analyze, min_distance,
                    verify_lemma_beta, verify_lemma_gamma, verify_spherical_code)
from .constructions import (cross_polytope, embed_qary, hadamard_code,
                            simplex_vectors, sylvester_hadamard)
from .errors import (CodeBoundsError, DuplicateCodewords, FileFormatError,
                     InvalidCode, NonUnitVector)
from .fileio import (certificate_json, parse_qary, parse_spherical, report_json,
                     serialize_qary, serialize_spherical, sha256_hex)
from .linalg import verify_trace_rank
from .scalars import format_scalar, parse_scalar
from .search import exact_max_code, greedy_lexicode, heuristic_rho

FORMAT_VERSIONS = "sphere v1, qary v1, certificate v1, report v1"


@dataclass
class _Run:
    """Per-invocation context collected while a command executes; its
    comment_line is the provenance manifest ending every file the CLI writes."""

    subcommand: str
    arguments: dict
    started: float = field(default_factory=time.monotonic)
    input_digests: dict = field(default_factory=dict)
    seed: int = None
    mode: str = "exact"

    def comment_line(self) -> str:
        manifest = {"subcommand": self.subcommand, "arguments": self.arguments,
                    "input_digests": self.input_digests, "version": __version__,
                    "seed": self.seed, "mode": self.mode,
                    "wall_time_s": round(time.monotonic() - self.started, 6)}
        return "# manifest: " + json.dumps(manifest, sort_keys=True)

    def read_input(self, path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        self.input_digests[path] = sha256_hex(text)
        return text

    def write_output(self, path: str, body: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
            fh.write(self.comment_line() + "\n")


def _int_list(text: str):
    """Parse '4', '2,4,8', '2:8', or '2:8:2' into a sorted list of ints."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) not in (2, 3):
                raise argparse.ArgumentTypeError(f"bad range {part!r}")
            lo, hi = int(pieces[0]), int(pieces[1])
            step = int(pieces[2]) if len(pieces) == 3 else 1
            if step < 1:
                raise argparse.ArgumentTypeError(f"step must be >= 1 in {part!r}")
            span = range(lo, hi + 1, step)
            if not span:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
            values.extend(span)
        else:
            values.append(int(part))
    return sorted(set(values))


def _scalar_arg(text: str):
    try:
        return parse_scalar(text, exact=True)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _single(values, name):
    if len(values) != 1:
        raise CodeBoundsError(f"--{name} must be a single value unless --grid is set")
    return values[0]


_BOUND_PARAMS = {
    "rho": ("r", "k"),
    "m": ("r",),
    "aq": ("q", "r", "s"),
    "plotkin": ("r",),
    "ms": ("q", "r"),
    "ramsey-asymptotic": ("q", "r", "j"),
    "bq": ("q",),
}


def _bound_one(op, ns, combo) -> BoundReport:
    p = dict(zip(_BOUND_PARAMS[op], combo))
    if op == "rho":
        return rho_lower(p["r"], p["k"])
    if op == "m":
        return m_upper(p["r"], ns.alpha)
    if op == "aq":
        return aq_upper(p["q"], p["r"], p["s"])
    if op == "plotkin":
        return BoundReport("plotkin-upper", p, plotkin_upper(p["r"]), CERTIFIED_EXACT,
                           note="binary half-distance bound")
    if op == "ms":
        return BoundReport("ms-upper", p, ms_upper(p["q"], p["r"]), CERTIFIED_EXACT,
                           note="q-ary bound at distance (1-1/q)r")
    if op == "ramsey-asymptotic":
        return ramsey_asymptotic(p["q"], p["r"], p["j"])
    if op == "bq":
        return bq_window_report(p["q"])
    raise AssertionError(op)


def cmd_bound(ns, run: _Run) -> int:
    op = ns.op
    if op == "ramsey-lower":
        report = BoundReport("ramsey-lower", {"q": ns.q, "r": ns.r, "s": ns.s,
                                              "a_value": ns.a_value},
                             ramsey_lower(ns.q, ns.r, ns.s, ns.a_value),
                             CERTIFIED_EXACT, note="code size plus one")
        print(report_json(report))
        return 0
    if op == "ramsey-upper":
        def oracle(r, s_reduced):
            return exact_max_code(ns.q, r, s_reduced, node_limit=ns.node_limit).value
        report = ramsey_upper_param(ns.q, ns.r, ns.s, ns.eps, ns.c, oracle)
        print(report_json(report))
        return 0

    names = _BOUND_PARAMS[op]
    value_lists = [getattr(ns, name.replace("-", "_")) for name in names]
    if not ns.grid:
        combo = tuple(_single(vals, name) for vals, name in zip(value_lists, names))
        print(report_json(_bound_one(op, ns, combo)))
        return 0

    # a cell outside its bound's domain gets a row and an error line, and the
    # sweep goes on; the exit code reports it once every row is out
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(list(names) + ["value", "status"])
    failed = False
    for combo in itertools.product(*value_lists):
        try:
            report = _bound_one(op, ns, combo)
        except CodeBoundsError as exc:
            cell = " ".join(f"{k}={v}" for k, v in zip(names, combo))
            print(f"error: {cell}: {exc}", file=sys.stderr)
            writer.writerow(list(combo) + ["", "out-of-domain"])
            failed = True
            continue
        value = report.value
        if value == math.inf:
            value = ""
        elif isinstance(value, tuple):
            value = " ".join(str(v) for v in value)
        else:
            value = format_scalar(value)
        writer.writerow(list(combo) + [value, report.status])
    return 1 if failed else 0


def cmd_verify(ns, run: _Run) -> int:
    run.mode = "float" if ns.float else "exact"
    text = run.read_input(ns.infile)
    if ns.kind == "qary":
        code = parse_qary(text)
        if ns.s is None:
            raise CodeBoundsError("verify qary requires --s <claimed distance>")
        d = min_distance(code)
        link = make_link("minimum distance at least the claim", ns.s, d)
        cert = Certificate.from_links("qary-distance", [link],
                                      meta={"q": code.q, "r": code.r, "n": len(code),
                                            "min_distance": d})
    else:
        vset = parse_spherical(text, exact=not ns.float)
        if ns.kind == "spherical":
            if ns.alpha is None:
                raise CodeBoundsError("verify spherical requires --alpha <claim>")
            cert = verify_spherical_code(vset, ns.alpha)
        elif ns.kind == "trace-rank":
            cert = verify_trace_rank(vset.raw_gram())
        elif ns.kind == "beta":
            cert = verify_lemma_beta(gram_analyze(vset))
        elif ns.kind == "gamma":
            cert = verify_lemma_gamma(gram_analyze(vset))
        elif ns.kind == "chain":
            cert = certify_chain(vset)
        else:
            raise AssertionError(ns.kind)
    print(certificate_json(cert))
    return 0 if cert.verdict else 1


def cmd_construct(ns, run: _Run) -> int:
    if ns.what == "simplex":
        body = serialize_spherical(simplex_vectors(ns.q))
    elif ns.what == "crosspolytope":
        body = serialize_spherical(cross_polytope(ns.r))
    elif ns.what == "hadamard":
        t = _order_to_t(ns.order)
        h = sylvester_hadamard(t)
        body = f"# hadamard order {h.order}\n" + "\n".join(
            " ".join(str(x) for x in row) for row in h.rows) + "\n"
    elif ns.what == "hadamard-code":
        t = _order_to_t(ns.order)
        body = serialize_qary(hadamard_code(sylvester_hadamard(t)))
    else:
        raise AssertionError(ns.what)
    _emit(ns.out, body, run)
    return 0


def _order_to_t(order: int) -> int:
    t = order.bit_length() - 1
    if order < 1 or (1 << t) != order:
        raise CodeBoundsError(f"only powers of two are constructible, got order {order}")
    return t


def cmd_embed(ns, run: _Run) -> int:
    code = parse_qary(run.read_input(ns.infile))
    embedded = embed_qary(code)
    body = serialize_spherical(embedded.unit_vectors())
    _emit(ns.out, body, run)
    summary = {"dimension": embedded.dimension, "n": len(code),
               "alpha": format_scalar(embedded.alpha()),
               "max_coordinate_deviation": embedded.max_coordinate_deviation()}
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


def cmd_search(ns, run: _Run) -> int:
    if ns.mode == "exact":
        result = exact_max_code(ns.q, ns.r, ns.s, node_limit=ns.node_limit)
        header = {"search": "exact", "q": ns.q, "r": ns.r, "s": ns.s,
                  "size": result.value, "nodes": result.nodes,
                  "optimal": result.optimal}
        body = serialize_qary(result.witness)
    elif ns.mode == "greedy":
        code = greedy_lexicode(ns.q, ns.r, ns.s)
        header = {"search": "greedy", "q": ns.q, "r": ns.r, "s": ns.s,
                  "size": len(code)}
        body = serialize_qary(code)
    elif ns.mode == "rho":
        run.seed = ns.seed
        result = heuristic_rho(ns.r, ns.n, iterations=ns.iterations, seed=ns.seed)
        header = {"search": "rho", "r": ns.r, "n": ns.n, "seed": ns.seed,
                  "iterations": result.nodes, "achieved_alpha": result.value}
        body = serialize_spherical(result.witness)
    else:
        raise AssertionError(ns.mode)
    if ns.out:
        print(json.dumps(header, sort_keys=True))
        _emit(ns.out, body, run)
    else:
        # keep stdout a valid code file: the result header rides in a comment
        sys.stdout.write("# result: " + json.dumps(header, sort_keys=True) + "\n")
        sys.stdout.write(body)
    return 0


def _emit(out, body: str, run: _Run):
    if out:
        run.write_output(out, body)
    else:
        sys.stdout.write(body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codebounds",
        description="Bounds, certificates, constructions, and search for "
                    "spherical and q-ary codes.")
    parser.add_argument("--version", action="version",
                        version=f"codebounds {__version__} (formats: {FORMAT_VERSIONS})")
    sub = parser.add_subparsers(dest="command", required=True)

    bound = sub.add_parser("bound", help="evaluate a bound")
    bsub = bound.add_subparsers(dest="op", required=True)

    def bound_op(name, *params, extra=None):
        p = bsub.add_parser(name)
        for name_ in params:
            p.add_argument(f"--{name_}", type=_int_list, required=True)
        p.add_argument("--grid", action="store_true",
                       help="sweep comma/range parameters and emit CSV")
        if extra:
            extra(p)
        return p

    bound_op("rho", "r", "k")
    bound_op("m", "r", extra=lambda p:
             p.add_argument("--alpha", type=_scalar_arg, required=True))
    bound_op("aq", "q", "r", "s")
    bound_op("plotkin", "r")
    bound_op("ms", "q", "r")
    bound_op("ramsey-asymptotic", "q", "r", "j")
    bound_op("bq", "q")

    rl = bsub.add_parser("ramsey-lower")
    for name in ("q", "r", "s", "a-value"):
        rl.add_argument(f"--{name}", type=int, required=True)
    ru = bsub.add_parser("ramsey-upper")
    for name in ("q", "r", "s"):
        ru.add_argument(f"--{name}", type=int, required=True)
    ru.add_argument("--eps", type=_scalar_arg, required=True)
    ru.add_argument("--c", type=_scalar_arg, required=True)
    ru.add_argument("--node-limit", type=int, default=10_000_000)

    verify = sub.add_parser("verify", help="check a certificate against a file")
    verify.add_argument("kind", choices=["spherical", "qary", "beta", "gamma",
                                         "chain", "trace-rank"])
    verify.add_argument("--in", dest="infile", required=True)
    verify.add_argument("--alpha", type=_scalar_arg, default=None)
    verify.add_argument("--s", type=int, default=None)
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--float", action="store_true",
                      help="parse and evaluate in float mode")
    mode.add_argument("--exact", action="store_true", help="exact mode (default)")

    construct = sub.add_parser("construct", help="emit a witness configuration")
    csub = construct.add_subparsers(dest="what", required=True)
    p = csub.add_parser("simplex")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p = csub.add_parser("crosspolytope")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    for name in ("hadamard", "hadamard-code"):
        p = csub.add_parser(name)
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--out")

    embed = sub.add_parser("embed", help="map a q-ary code onto the sphere")
    embed.add_argument("--in", dest="infile", required=True)
    embed.add_argument("--out")

    search = sub.add_parser("search", help="run a search oracle")
    ssub = search.add_subparsers(dest="mode", required=True)
    p = ssub.add_parser("exact")
    for name in ("q", "r", "s"):
        p.add_argument(f"--{name}", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=10_000_000)
    p.add_argument("--out")
    p = ssub.add_parser("greedy")
    for name in ("q", "r", "s"):
        p.add_argument(f"--{name}", type=int, required=True)
    p.add_argument("--out")
    p = ssub.add_parser("rho")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


# built on the first call and reused: parse_args keeps no state between calls
_parser = functools.cache(build_parser)

_DISPATCH = {"bound": cmd_bound, "verify": cmd_verify, "construct": cmd_construct,
             "embed": cmd_embed, "search": cmd_search}

_FILE_ERRORS = (FileFormatError, InvalidCode, NonUnitVector, DuplicateCodewords,
                FileNotFoundError)


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    def plain(v):
        return v if isinstance(v, (bool, int, float, str, list, type(None))) else str(v)

    run = _Run(ns.command, {k: plain(v) for k, v in sorted(vars(ns).items())
                            if k != "command"})
    try:
        return _DISPATCH[ns.command](ns, run)
    except _FILE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CodeBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
