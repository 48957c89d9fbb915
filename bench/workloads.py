"""Job lists of the benchmark's workloads, generated from the workload seed.

A job is one ``codebounds`` CLI invocation (an argv for ``cli.main``) or one
library call the CLI cannot express.  The seed fixes every input: random
configurations, alphas, search seeds and the job order.  The amount of work
per list does not depend on the seed, so runs with different seeds stay
comparable.  ``size="tiny"`` builds a list of the same shape that finishes in
about a second, for the benchmark's own tests.

Why each workload exists:

* ``certify`` -- the certificate pipeline (construct, embed, verify, and the
  library ``certify_chain`` on exact-oracle embeddings).  It loads linalg,
  codes, constructions, certificates, fileio and scalars; bounds and search
  stay idle.
* ``bound_grid`` -- ``bound m --grid`` and ``bound aq --grid`` sweeps.
  ``bounds.m_upper`` does nearly all the work and no other workload calls it;
  many short invocations also expose the CLI's own cost.
* ``search_exact`` -- ``search exact`` against hand-entered table values, and
  ``search greedy``.  ``search.exact_max_code`` does nearly all the work.
* ``search_rho`` -- ``search rho``; the optimizer's numpy calls do nearly all
  the work, so BLAS threading and per-call overhead show here and nowhere
  else.
* ``grid_rho`` -- half of ``bound_grid`` and half of ``search_rho`` in one
  list, so that the two pure-compute paths fit a listed workload with long
  runs.  The per-layer metrics keep the two apart.
"""

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("certify", "bound_grid", "search_exact", "search_rho", "grid_rho")


@dataclass
class Job:
    name: str
    check: str                  # key into checks.CHECKS
    argv: list = None           # CLI job
    call: object = None         # library job: no-argument callable returning a Certificate
    expect: dict = field(default_factory=dict)
    tag: str = ""


def build(workload, seed, size, workdir):
    """Return the job list; input files are written into ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    builder = {"certify": _certify, "bound_grid": _bound_grid,
               "search_exact": _search_exact, "search_rho": _search_rho,
               "grid_rho": _grid_rho}[workload]
    return builder(rng, size == "tiny", workdir)


# ---------------------------------------------------------------- certify

def _rational_sphere_point(rng, d, spread=4):
    """Inverse stereographic image of a random rational point: exactly unit."""
    y = [Fraction(rng.randint(-spread, spread), rng.randint(1, spread)) for _ in range(d - 1)]
    norm_sq = sum(t * t for t in y)
    return tuple([2 * t / (norm_sq + 1) for t in y] + [(norm_sq - 1) / (norm_sq + 1)])


def _random_configuration(rng):
    """A set of distinct rational unit vectors with max inner product in [0, 1)."""
    while True:
        n, d = rng.randint(2, 12), rng.randint(2, 6)
        points = set()
        while len(points) < n:
            points.add(_rational_sphere_point(rng, d))
        points = sorted(points)
        alpha = max(sum(a * b for a, b in zip(u, v))
                    for i, u in enumerate(points) for v in points[i + 1:])
        if 0 <= alpha < 1:
            return d, points


def _write_sphere(path, d, points):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"sphere {d}\n")
        for p in points:
            fh.write(" ".join(f"{x.numerator}/{x.denominator}" for x in p) + "\n")


def _hadamard_route(workdir, order, kinds, exact=True):
    """construct hadamard-code -> embed -> verify <kind> for each kind."""
    qary = os.path.join(workdir, f"hadamard{order}.qary")
    sphere = os.path.join(workdir, f"hadamard{order}.sphere")
    jobs = [Job(f"construct hadamard-code {order}", "qary_file",
                ["construct", "hadamard-code", "--order", str(order), "--out", qary],
                expect={"path": qary, "q": 2, "r": order, "n": 2 * order, "s": order // 2}),
            Job(f"embed hadamard {order}", "embedding",
                ["embed", "--in", qary, "--out", sphere],
                expect={"path": sphere, "dimension": order, "n": 2 * order, "alpha": "0"})]
    mode = [] if exact else ["--float"]
    for kind in kinds:
        jobs.append(Job(f"verify {kind} hadamard {order}{'' if exact else ' float'}",
                        "certificate", ["verify", kind, "--in", sphere] + mode,
                        expect={"verdict": True, "mode": "exact" if exact else "float",
                                **({"rank": order} if kind == "chain" else {})}))
    return jobs, qary


def _qary_claims(qary, order):
    return [Job(f"verify qary hadamard {order} s={s}", "certificate",
                ["verify", "qary", "--in", qary, "--s", str(s)],
                expect={"verdict": s <= order // 2, "mode": "exact"})
            for s in (order // 2, order // 2 + 1)]


def _hadamard_embedding_chain(t):
    def call():
        from codebounds import codes, constructions
        code = constructions.hadamard_code(constructions.sylvester_hadamard(t))
        return codes.certify_chain(constructions.embed_qary(code).unit_vectors())
    return call


def _ternary_embedding_chain(words, r):
    def call():
        from codebounds import codes, constructions
        code = codes.QaryCode(3, r, words)
        return codes.certify_chain(constructions.embed_qary(code).unit_vectors())
    return call


def _ternary_code(rng, r, n):
    """Distinct random ternary words whose embedding has alpha in [0, 1)."""
    while True:
        words = set()
        while len(words) < n:
            words.add(tuple(rng.randrange(3) for _ in range(r)))
        words = tuple(sorted(words))
        dmin = min(sum(a != b for a, b in zip(u, v))
                   for i, u in enumerate(words) for v in words[i + 1:])
        if 3 * dmin <= 2 * r:
            return words


def _certify(rng, tiny, workdir):
    jobs = []
    small, big, floating, rejected = (4, 16, 8, 8) if tiny else (16, 64, 128, 32)
    # beta and gamma rebuild the same exact Gram as chain; at order 64 that is
    # 3 s each, so they run at the small order only
    for order, kinds in ((small, ("chain", "beta", "gamma")), (big, ("chain",))):
        route, qary = _hadamard_route(workdir, order, kinds)
        jobs += route + _qary_claims(qary, order)
    route, _ = _hadamard_route(workdir, floating, ("chain",), exact=False)
    jobs += route
    # +-1/sqrt(order) has no exact decimal form at odd powers of two, so the
    # exact parse sees vectors off the unit sphere: the correct outcome is exit 2
    route, _ = _hadamard_route(workdir, rejected, ())
    sphere = route[-1].expect["path"]
    jobs += route + [Job(f"verify chain hadamard {rejected} (rejected)", "rejection",
                         ["verify", "chain", "--in", sphere])]
    for r in ((3, 5) if tiny else (3, 8, 16, 32)):
        path = os.path.join(workdir, f"cross{r}.sphere")
        jobs += [Job(f"construct crosspolytope {r}", "crosspolytope",
                     ["construct", "crosspolytope", "--r", str(r), "--out", path],
                     expect={"path": path, "r": r}),
                 Job(f"verify chain crosspolytope {r}", "certificate",
                     ["verify", "chain", "--in", path],
                     expect={"verdict": True, "mode": "exact", "rank": r}),
                 Job(f"verify spherical crosspolytope {r}", "certificate",
                     ["verify", "spherical", "--alpha", "0", "--in", path],
                     expect={"verdict": True, "mode": "exact"})]
    t = 4 if tiny else 7
    jobs.append(Job(f"certify_chain hadamard embedding {1 << t}", "certificate",
                    call=_hadamard_embedding_chain(t),
                    expect={"verdict": True, "mode": "exact", "rank": 1 << t}))
    # op_tail_ms is about the 11th slowest job.  Six jobs are slower than a
    # ternary chain, so ten equal-cost ternary codes put that rank in the
    # middle of a block of like jobs, not on the edge between two job sizes
    r, n, codes = (6, 12, 2) if tiny else (10, 60, 10)
    for i in range(codes):
        jobs.append(Job(f"certify_chain ternary embedding r={r} n={n} #{i}", "certificate",
                        call=_ternary_embedding_chain(_ternary_code(rng, r, n), r),
                        expect={"verdict": True, "mode": "exact"}))
    for i in range(10 if tiny else 100):
        path = os.path.join(workdir, f"random{i}.sphere")
        _write_sphere(path, *_random_configuration(rng))
        jobs.append(Job(f"verify chain random {i}", "certificate",
                        ["verify", "chain", "--in", path],
                        expect={"verdict": True, "mode": "exact"}))
    return jobs


# ------------------------------------------------------------- bound_grid

def _windows(lo, hi, width):
    return [(a, min(a + width - 1, hi)) for a in range(lo, hi + 1, width)]


def _bound_grid(rng, tiny, workdir, top=2160, aq_jobs=20):
    """Three alpha regimes of ``bound m`` plus in-domain ``bound aq`` cells.

    alpha = 0 scans to 2r+1; alpha near 1/1000 gives long certified scans;
    alpha near 1/100 is mostly vacuous and stops at the parabola's vertex.
    Each window of r gets its own alpha drawn within 2% of the regime's value.
    """
    top, width = (120, 10) if tiny else (top, 60)
    jobs = []
    for base, span, windows in (
            (None, None, _windows(1, top, width)),                  # alpha = 0
            (1000, 10 ** 6, _windows(1, top, width)),              # alpha ~ 1/1000
            (1000, 10 ** 5, _windows(1, top + top // 4, 2 * width + width // 2))):  # ~ 1/100
        for lo, hi in windows:
            alpha = Fraction(0) if base is None else Fraction(base + rng.randint(-20, 20), span)
            jobs.append(Job(f"bound m r={lo}:{hi} alpha={alpha}", "bound_m",
                            ["bound", "m", "--grid", "--r", f"{lo}:{hi}", "--alpha", str(alpha)],
                            expect={"r": list(range(lo, hi + 1)), "alpha": alpha}))
    for _ in range(3 if tiny else aq_jobs):
        q = rng.choice((2, 3, 4))
        r_lo = rng.randint(20, 400)
        rs = list(range(r_lo, r_lo + 5))
        s_hi = (q - 1) * r_lo // q           # every cell keeps j = (1-1/q)r - s >= 0
        ss = list(range(s_hi - 9, s_hi + 1))
        jobs.append(Job(f"bound aq q={q} r={rs[0]}:{rs[-1]} s={ss[0]}:{ss[-1]}", "bound_aq",
                        ["bound", "aq", "--grid", "--q", str(q), "--r", f"{rs[0]}:{rs[-1]}",
                         "--s", f"{ss[0]}:{ss[-1]}"],
                        expect={"q": q, "r": rs, "s": ss}))
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------- search_exact

# A_q(r, s) from Brouwer's tables of binary and ternary codes, entered by hand.
# A(8,3) is left out: one run takes 45-60 s, and the test suite covers it.
TABLE = {(2, 6, 3): 8, (2, 7, 3): 16, (2, 7, 4): 8, (2, 8, 4): 16, (2, 8, 5): 4,
         (2, 9, 4): 20, (2, 9, 5): 6, (2, 10, 5): 12, (2, 10, 6): 6, (2, 11, 6): 12,
         (3, 4, 3): 9, (3, 5, 3): 18, (3, 6, 4): 18}
NODE_LIMIT = 100_000


def _search_exact(rng, tiny, workdir):
    if tiny:
        instances = [k for k in TABLE if k[0] == 2 and k[1] <= 10] + [(3, 4, 3)]
        lexicodes = ((2, 8, 2), (2, 9, 4))
    else:
        instances = list(TABLE)
        lexicodes = ((2, 11, 2), (2, 13, 4))
    jobs = [Job(f"search exact A_{q}({r},{s})", "search_exact",
                ["search", "exact", "--q", str(q), "--r", str(r), "--s", str(s),
                 "--node-limit", str(NODE_LIMIT)],
                expect={"q": q, "r": r, "s": s, "table": TABLE[q, r, s]})
            for q, r, s in instances]
    jobs += [Job(f"search greedy ({q},{r},{s})", "lexicode",
                 ["search", "greedy", "--q", str(q), "--r", str(r), "--s", str(s)],
                 expect={"q": q, "r": r, "s": s})
             for q, r, s in lexicodes]
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------- search_rho

def _search_rho(rng, tiny, workdir, copies=2):
    """Small shapes (r 2..6, n 2r+1..2r+6) and the large r=50, n=200 shape,
    each ``copies`` times."""
    shapes = [(r, n, 200 if tiny else 2000, "small")
              for r in range(2, 7) for n in range(2 * r + 1, 2 * r + 7)]
    if tiny:
        shapes = shapes + [(50, 200, 20, "large")]
    else:
        shapes = (shapes + [(50, 200, 1000, "large")]) * copies
    jobs = []
    for r, n, iterations, tag in shapes:
        seed = rng.randrange(2 ** 31)
        jobs.append(Job(f"search rho r={r} n={n} seed={seed}", "rho",
                        ["search", "rho", "--r", str(r), "--n", str(n),
                         "--iterations", str(iterations), "--seed", str(seed)],
                        expect={"r": r, "n": n, "iterations": iterations}, tag=tag))
    rng.shuffle(jobs)
    return jobs


def _grid_rho(rng, tiny, workdir):
    """bound_grid at r <= 1530 (half its scan work) and one copy of search_rho."""
    jobs = _bound_grid(rng, tiny, workdir, top=1530, aq_jobs=10) + _search_rho(rng, tiny, workdir, 1)
    rng.shuffle(jobs)
    return jobs
