"""Inputs shared by the pinned outputs.

``FLOAT_INPUTS`` are float sphere files, each with the alpha it claims:
their ``--float`` verify runs are transcript cases of test_cli_golden.py, and
test_float_gram.py checks their float analyses against its reference loops.
``EMBEDDED_CODES`` are the codes whose embeddings ``embedding_record``
describes and ``embedding_outputs.json`` records; test_cli_golden.py's
regeneration writes that file beside its transcripts.
"""

import math
import random
from pathlib import Path

from codebounds.codes import QaryCode, UnitVectorSet, certify_chain
from codebounds.constructions import embed_qary, hadamard_code, sylvester_hadamard
from codebounds.fileio import record_json, serialize_spherical
from codebounds.scalars import format_scalar
from codebounds.search import heuristic_rho


def float_sphere(seed):
    """Sphere file text of normalized Gaussian vectors; by seed % 4 the set is
    plain, holds +-0.0 coordinates, repeats a vector, or has one off the sphere."""
    rng = random.Random(seed)
    kind = seed % 4
    d, n = rng.randint(1, 8), rng.randint(1, 24)
    vectors = []
    for _ in range(n):
        v = [rng.gauss(0, 1) for _ in range(d)]
        if kind == 1 and d > 1:
            for k in rng.sample(range(d), rng.randint(1, d - 1)):
                v[k] = rng.choice((0.0, -0.0))
        norm = math.sqrt(math.fsum(x * x for x in v))    # the same on every Python
        vectors.append([x / norm for x in v])
    if kind == 2:
        vectors.append(list(vectors[rng.randrange(n)]))
    if kind == 3:
        vectors[rng.randrange(n)] = [1.5 * x for x in vectors[0]]
    return serialize_spherical(UnitVectorSet(d, tuple(map(tuple, vectors)))), "1/2"


def rho_witness(r, n, iterations, seed):
    result = heuristic_rho(r, n, iterations=iterations, seed=seed)
    return serialize_spherical(result.witness), format_scalar(result.value)


def hadamard_embedding(t):
    vset = embed_qary(hadamard_code(sylvester_hadamard(t))).unit_vectors()
    return serialize_spherical(vset), "0"


# name -> (sphere file text, claimed alpha).  The optimizer witnesses are
# pinned themselves in test_search.py (a BLAS that rounds its products
# differently changes both).
FLOAT_INPUTS = {f"sphere-{seed}": float_sphere(seed) for seed in range(12)}
FLOAT_INPUTS.update({f"rho-r{r}-n{n}-seed{seed}": rho_witness(r, n, it, seed)
                     for r, n, it, seed in ((2, 5, 300, 1), (3, 7, 300, 2), (3, 4, 200, 0),
                                            (5, 12, 200, 3), (6, 18, 100, 4))})
FLOAT_INPUTS.update({f"hadamard-{1 << t}": hadamard_embedding(t) for t in (4, 5)})


def seeded_code(seed, q, r, n):
    rng = random.Random(seed)
    words = set()
    while len(words) < n:
        words.add(tuple(rng.randrange(q) for _ in range(r)))
    return QaryCode(q, r, tuple(sorted(words)))


EMBEDDED_CODES = {
    "hadamard-8": lambda: hadamard_code(sylvester_hadamard(3)),
    "q2-r10-n24": lambda: seeded_code(1, 2, 10, 24),
    "q3-r6-n30": lambda: seeded_code(2, 3, 6, 30),
    "q4-r5-n20": lambda: seeded_code(3, 4, 5, 20),
    "q5-r4-n15": lambda: seeded_code(4, 5, 4, 15),
}

EMBEDDINGS_FILE = Path(__file__).with_name("embedding_outputs.json")


def lines(text):
    """The text as a list of lines that joins back to it."""
    return text.splitlines(keepends=True)


def embedding_record(name) -> dict:
    """What embedding the named code gives: the sphere file of its image, its
    alpha() and max_coordinate_deviation(), and the image's certify_chain JSON."""
    embedded = embed_qary(EMBEDDED_CODES[name]())
    vset = embedded.unit_vectors()
    return {"sphere": lines(serialize_spherical(vset)),
            "alpha": format_scalar(embedded.alpha()),
            "max_coordinate_deviation": repr(embedded.max_coordinate_deviation()),
            "certificate": lines(record_json(certify_chain(vset)))}
