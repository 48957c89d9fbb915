"""Command-line front end: bound tables, verification, construction, search.

Exit codes: 0 success (all verdicts pass), 1 domain error or failing verdict,
2 argument error, malformed/invalid input file, or an input that cannot be
read or an output that cannot be written.  A stdout closed early (``| head``)
is no file error: the run stops quietly and exits 1.  Exact arithmetic is the
default everywhere; float mode is opt-in via --float.  Every command is one
row of a table keyed by its name: each bound op in ``_BOUNDS``, verify kind in
``_VERIFY``, construct target in ``_CONSTRUCT`` and search mode in
``_SEARCH``.  That row drives both its parser and its run, and a swept bound
op's row its --grid sweep too.  So a verify kind reads only the claim it
checks: a missing --alpha or --s, like a flag its row does not declare, is an
argument error (exit 2).
"""

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .bounds import (CONDITIONAL, BoundReport, aq_upper, bq_window_report, m_upper,
                     plotkin_upper, ramsey_asymptotic, ramsey_lower, ramsey_upper_param,
                     rho_lower)
from .certificates import Certificate, make_link
from .codes import (certify_chain, gram_analyze, min_distance,
                    verify_lemma_beta, verify_lemma_gamma, verify_spherical_code)
from .constructions import (cross_polytope, embed_qary, hadamard_code,
                            simplex_vectors, sylvester_hadamard)
from .errors import CodeBoundsError, FileFormatError, InvalidCode
from .fileio import (hadamard_pieces, parse_qary, parse_spherical, qary_pieces, record_json,
                     sha256_hex, spherical_pieces)
from .linalg import verify_trace_rank
from .scalars import format_scalar, parse_scalar
from .search import exact_max_code, greedy_lexicode, heuristic_rho

FORMAT_VERSIONS = "sphere v1, qary v1, certificate v1, report v1"


@dataclass
class _Run:
    """Per-invocation context: the parsed namespace and the digests of the
    inputs read.  Its comment_line, the provenance manifest ending every file
    the CLI writes, takes its arguments and seed from the namespace.  Only a
    run with an --out path writes a manifest, so only such a run hashes its
    inputs, each as it is read."""

    ns: argparse.Namespace
    started: float = field(default_factory=time.monotonic)
    input_digests: dict = field(default_factory=dict)

    def comment_line(self) -> str:
        arguments = dict(vars(self.ns))
        manifest = {"subcommand": arguments.pop("command"), "arguments": arguments,
                    "input_digests": self.input_digests, "version": __version__,
                    "seed": arguments.get("seed"),
                    "wall_time_s": round(time.monotonic() - self.started, 6)}
        return "# manifest: " + json.dumps(manifest, sort_keys=True)

    def read_input(self, path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
        if getattr(self.ns, "out", None):
            self.input_digests[path] = sha256_hex(text)
        return text

    def write_output(self, path: str, pieces):
        """Write a text's pieces as they are made: to stdout without a path,
        else to the file, then the manifest.  A file is rewritten in place
        and cut at its new end, since ext4 flushes one truncated to zero on
        open at close; a run that fails once the file is open cuts it to
        empty, so no new text is left over the old file's tail."""
        if not path:
            for piece in pieces:
                sys.stdout.write(piece)
            return
        # unbuffered, so that a failed write leaves nothing to flush at close
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0) as fh:
            try:
                for piece in pieces:
                    _write_all(fh, piece)
                _write_all(fh, self.comment_line() + "\n")
            except BaseException:
                if os.path.isfile(path):
                    os.ftruncate(fh.fileno(), 0)
                raise
            if os.path.isfile(path):
                fh.truncate()


def _write_all(fh, text: str):
    """Write all of a text to an unbuffered binary file, whose one write call
    may take less than it is given."""
    data = memoryview(text.encode())
    while data:
        data = data[fh.write(data):]


# the most values one parameter list may hold, counted before any is made
MAX_LIST_VALUES = 100_000


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
        else:
            span = (int(part),)
        # len() of a range past 2^63 overflows; its slice's does not
        if len(values) + len(span[:MAX_LIST_VALUES + 1]) > MAX_LIST_VALUES:
            raise argparse.ArgumentTypeError(f"more than {MAX_LIST_VALUES} values in {text!r}")
        values.extend(span)
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


def _add_arguments(parser, args):
    """Add --name for each (name, type[, default]); one without a default is
    required, and one of type bool is a store-true flag."""
    for name, type_, *default in args:
        if type_ is bool:
            parser.add_argument(f"--{name}", action="store_true")
        else:
            parser.add_argument(f"--{name}", type=type_, required=not default,
                                default=default[0] if default else None)


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which reports an argument it does not read with its
    own usage line: by default a subparser hands such arguments back, and the
    root parser reports them with its usage.  Every parser below the root is
    one, as subparsers take their parent's class."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _add_rows(parser, key, table, flag, **options):
    """One subparser per row of a verify, construct or search table: the row's
    arguments, then the flag every row gets (--in for verify, --out else)."""
    rows = parser.add_subparsers(dest=key, required=True)
    for name, (args, *_) in table.items():
        p = rows.add_parser(name)
        _add_arguments(p, args)
        p.add_argument(flag, **options)


_QRS = (("q", int), ("r", int), ("s", int))

# Each bound op: the parameters --grid sweeps, in CSV column order (an op with
# none has no --grid); its BoundReport for the namespace and one value of each
# of them, in that order; and its unswept arguments as (name, type[, default]),
# which its parser adds after --grid.
_BOUNDS = {
    "rho": (("r", "k"), lambda ns, r, k: rho_lower(r, k)),
    "m": (("r",), lambda ns, r: m_upper(r, ns.alpha), ("alpha", _scalar_arg)),
    "aq": (("q", "r", "s"), lambda ns, q, r, s: aq_upper(q, r, s)),
    "plotkin": (("q", "r", "s"), lambda ns, q, r, s: plotkin_upper(q, r, s)),
    "ramsey-asymptotic": (("q", "r", "j"), lambda ns, q, r, j: ramsey_asymptotic(q, r, j)),
    "bq": (("q",), lambda ns, q: bq_window_report(q)),
    "ramsey-lower": ((), lambda ns: BoundReport(
        "ramsey-lower", {"q": ns.q, "r": ns.r, "s": ns.s, "a_value": ns.a_value},
        ramsey_lower(ns.q, ns.r, ns.s, ns.a_value), CONDITIONAL,
        note="code size plus one"), *_QRS, ("a-value", int)),
    "ramsey-upper": ((), lambda ns: ramsey_upper_param(
        ns.q, ns.r, ns.s, ns.eps, ns.c,
        lambda r, s: exact_max_code(ns.q, r, s).value),
        *_QRS, ("eps", _scalar_arg), ("c", _scalar_arg)),
}


def cmd_bound(ns, run: _Run) -> int:
    names, report_of, *_ = _BOUNDS[ns.op]
    value_lists = [getattr(ns, name) for name in names]
    if not (names and ns.grid):
        print(record_json(report_of(ns, *map(_single, value_lists, names))))
        return 0

    # a cell outside its bound's domain gets a row and an error line, and the
    # sweep goes on; the exit code reports it once every row is out.  One
    # writerow per cell: a closed stdout stops the sweep at that cell, and each
    # error line follows the rows before it
    writerow, inf = csv.writer(sys.stdout, lineterminator="\n").writerow, math.inf
    writerow((*names, "value", "status"))
    failed = False
    for combo in itertools.product(*value_lists):
        try:
            report = report_of(ns, *combo)
        except CodeBoundsError as exc:
            cell = " ".join(f"{k}={v}" for k, v in zip(names, combo))
            print(f"error: {cell}: {exc}", file=sys.stderr)
            writerow((*combo, "", "out-of-domain"))
            failed = True
            continue
        value = report.value
        if value == inf:
            value = ""
        elif isinstance(value, tuple):
            value = " ".join(map(str, value))
        else:
            value = format_scalar(value)
        writerow((*combo, value, report.status))
    return 1 if failed else 0


def _sphere(ns, text):
    return parse_spherical(text, exact=not ns.float)


def _qary(ns, text):
    return parse_qary(text)


def _qary_certificate(code, claim):
    d = min_distance(code)
    link = make_link("minimum distance at least the claim", claim, d)
    return Certificate.from_links("qary-distance", [link],
                                  meta={"q": code.q, "r": code.r, "n": len(code),
                                        "min_distance": d})


# Each verify kind: the arguments it reads besides --in, as (name, type[,
# default]); the parser of the file text; and the certificate it builds from
# the namespace and the parsed object, once the text is dropped.
_FLOAT = ("float", bool, False)
_VERIFY = {
    "spherical": ((("alpha", _scalar_arg), _FLOAT), _sphere,
                  lambda ns, vset: verify_spherical_code(vset, ns.alpha)),
    "qary": ((("s", int),), _qary, lambda ns, code: _qary_certificate(code, ns.s)),
    "beta": ((_FLOAT,), _sphere, lambda ns, vset: verify_lemma_beta(gram_analyze(vset))),
    "gamma": ((_FLOAT,), _sphere, lambda ns, vset: verify_lemma_gamma(gram_analyze(vset))),
    "chain": ((_FLOAT,), _sphere, lambda ns, vset: certify_chain(vset)),
    "trace-rank": ((_FLOAT,), _sphere, lambda ns, vset: verify_trace_rank(vset.raw_gram())),
}


def cmd_verify(ns, run: _Run) -> int:
    _, parse, certificate_of = _VERIFY[ns.kind]
    cert = certificate_of(ns, parse(ns, run.read_input(ns.infile)))
    print(record_json(cert))
    return 0 if cert.verdict else 1


def _sylvester(order: int):
    t = order.bit_length() - 1
    if order < 1 or (1 << t) != order:
        raise CodeBoundsError(f"only powers of two are constructible, got order {order}")
    return sylvester_hadamard(t)


# Each construct target: its arguments as (name, type[, default]) and the
# pieces of the text it writes for the namespace.
_ORDER = (("order", int),)
_CONSTRUCT = {
    "simplex": ((("q", int),), lambda ns: spherical_pieces(simplex_vectors(ns.q))),
    "crosspolytope": ((("r", int),), lambda ns: spherical_pieces(cross_polytope(ns.r))),
    "hadamard": (_ORDER, lambda ns: hadamard_pieces(_sylvester(ns.order))),
    "hadamard-code": (_ORDER, lambda ns: qary_pieces(hadamard_code(_sylvester(ns.order)))),
}


def cmd_construct(ns, run: _Run) -> int:
    _, text_of = _CONSTRUCT[ns.what]
    run.write_output(ns.out, text_of(ns))
    return 0


def cmd_embed(ns, run: _Run) -> int:
    code = parse_qary(run.read_input(ns.infile))
    embedded = embed_qary(code)
    run.write_output(ns.out, spherical_pieces(embedded.unit_vectors()))
    summary = {"dimension": embedded.dimension, "n": len(code),
               "alpha": format_scalar(embedded.alpha()),
               "max_coordinate_deviation": embedded.max_coordinate_deviation()}
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return 0


# Each search mode: its arguments as (name, type[, default]); the search it runs
# on the namespace; and, from that result, the header entries beyond the mode
# and its required arguments, with the pieces of the witness's text.
_SEARCH = {
    "exact": ((*_QRS, ("node-limit", int, 10_000_000)),
              lambda ns: exact_max_code(ns.q, ns.r, ns.s, node_limit=ns.node_limit),
              lambda res: ({"size": res.value, "nodes": res.nodes, "optimal": res.optimal},
                           qary_pieces(res.witness))),
    "greedy": (_QRS, lambda ns: greedy_lexicode(ns.q, ns.r, ns.s),
               lambda code: ({"size": len(code)}, qary_pieces(code))),
    "rho": ((("r", int), ("n", int), ("iterations", int, 2000), ("seed", int, 0)),
            lambda ns: heuristic_rho(ns.r, ns.n, iterations=ns.iterations, seed=ns.seed),
            lambda res: ({"seed": res.seed, "iterations": res.nodes,
                          "achieved_alpha": res.value}, spherical_pieces(res.witness))),
}


def cmd_search(ns, run: _Run) -> int:
    args, search, report = _SEARCH[ns.mode]
    found, body = report(search(ns))
    required = {name: getattr(ns, name) for name, _, *default in args if not default}
    header = {"search": ns.mode, **required, **found}
    if ns.out:
        # the file first: a header on stdout means the result was written
        run.write_output(ns.out, body)
        print(json.dumps(header, sort_keys=True))
    else:
        # keep stdout a valid code file: the result header rides in a comment
        sys.stdout.write("# result: " + json.dumps(header, sort_keys=True) + "\n")
        run.write_output(None, body)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codebounds",
        description="Bounds, certificates, constructions, and search for "
                    "spherical and q-ary codes.")
    parser.add_argument("--version", action="version",
                        version=f"codebounds {__version__} (formats: {FORMAT_VERSIONS})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    bound = sub.add_parser("bound", help="evaluate a bound")
    bsub = bound.add_subparsers(dest="op", required=True)
    for op, (params, _, *unswept) in _BOUNDS.items():
        p = bsub.add_parser(op)
        for name in params:
            p.add_argument(f"--{name}", type=_int_list, required=True)
        if params:
            p.add_argument("--grid", action="store_true",
                           help="sweep comma/range parameters and emit CSV")
        _add_arguments(p, unswept)

    _add_rows(sub.add_parser("verify", help="check a certificate against a file"),
              "kind", _VERIFY, "--in", dest="infile", required=True)
    _add_rows(sub.add_parser("construct", help="emit a witness configuration"),
              "what", _CONSTRUCT, "--out")

    embed = sub.add_parser("embed", help="map a q-ary code onto the sphere")
    embed.add_argument("--in", dest="infile", required=True)
    embed.add_argument("--out")

    _add_rows(sub.add_parser("search", help="run a search oracle"), "mode", _SEARCH, "--out")
    return parser


# built on the first call and reused: parse_args keeps no state between calls
_parser = functools.cache(build_parser)

_DISPATCH = {"bound": cmd_bound, "verify": cmd_verify, "construct": cmd_construct,
             "embed": cmd_embed, "search": cmd_search}

# exit 2: an invalid input, or (OSError) an --in that cannot be read or an --out
# that cannot be written; any other CodeBoundsError exits 1
_FILE_ERRORS = (InvalidCode, OSError)


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    run = _Run(ns)
    try:
        code = _DISPATCH[ns.command](ns, run)
        sys.stdout.flush()
        return code
    except BrokenPipeError:    # an OSError; stdout to devnull so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
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
