"""Seeded inputs for every workload, drawn from ``random.Random`` alone.

The program's own generators (``oracle.Lcg64``, ``oracle.random_bundle``)
are deliberately not used: a change to the oracle must not change what the
benchmark feeds the program.  Inputs are plain data; the benchmark turns them
into documents or library calls itself.

A bundle is ``(genus, rank, degree, points)`` with each point a
``(residue_degree, ramification, weights)`` triple.
"""

from __future__ import annotations

import random

import checks

DOC_COMMANDS = (
    "chi", "end-chi", "flag-dim", "hom-datum", "stacky-degree", "index",
    "ed-bound", "ed-p", "nil-dim", "trdeg-bound", "gerbe-ed", "gerbe-ed-p",
)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# Gerbe-index multipliers: a bundle scaled by m has m | h, so ed-p and the
# per-prime gerbe terms see primes other than the trivial h = 1.
INDEX_MULTIPLIERS = (1, 1, 2, 3, 4, 6)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def weights(rng: random.Random, e: int, r: int) -> tuple[int, ...]:
    """A nonincreasing vector (r, n_1, ..., n_{e-1}, 0)."""
    return (r, *sorted((rng.randint(0, r) for _ in range(e - 1)), reverse=True), 0)


def bundle(rng: random.Random, genus: int, ram: list[int], max_rank: int,
           max_abs_degree: int, multiplier: int = 1):
    """One bundle with a point per entry of ``ram``; every rank, degree and
    weight is a multiple of ``multiplier``."""
    r = rng.randint(1, max(1, max_rank // multiplier))
    d = rng.randint(-max_abs_degree, max_abs_degree)
    points = []
    for e in ram:
        w = weights(rng, e, r)
        points.append((rng.randint(1, 3), e, tuple(multiplier * x for x in w)))
    return genus, multiplier * r, multiplier * d, tuple(points)


def document(b, pieces=None) -> dict:
    genus, rank, degree, points = b
    doc = {
        "curve": {
            "genus": genus,
            "points": [{"degree": f, "ramification": e, "weights": list(w)}
                       for f, e, w in points],
        },
        "bundle": {"rank": rank, "degree": degree},
    }
    if pieces is not None:
        doc["pieces"] = [{"rank": pr, "weights_per_point": [list(w) for w in pw]}
                         for pr, pw in pieces]
    return doc


def doc_calls(seed: int, ndocs: int = 2) -> list[dict]:
    """Seeded document commands for ``cli-docs``, rotating through DOC_COMMANDS.

    Even documents have genus 0 or 1, so their essential-dimension calls
    violate the genus >= 2 hypothesis and must exit 1; odd ones have genus
    2..6 and carry graded pieces for ``nil-dim`` and ``trdeg-bound``.  Few
    documents, each called many times, let every call keep its best time.
    """
    rng = rng_for("cli-docs", seed)
    calls = []
    for k in range(ndocs):
        npoints = rng.randint(0, 3)
        ram = [rng.randint(1, 8) for _ in range(npoints)]
        genus = rng.randint(2, 6) if k % 2 else rng.randint(0, 1)
        b = bundle(rng, genus, ram, 8, 12, rng.choice(INDEX_MULTIPLIERS))
        pieces = None
        if k % 2:
            pieces = []
            for _ in range(rng.randint(1, 3)):
                pr = rng.randint(1, 4)
                pieces.append((pr, tuple(weights(rng, e, pr) for _f, e, _w in b[3])))
        h = checks.gerbe_index(b)
        primes = [p for p, _a in checks.factorize(h)] or list(SMALL_PRIMES)
        gerbe_n = rng.randint(1, 10**6)
        for cmd in DOC_COMMANDS:
            calls.append({
                "command": cmd,
                "bundle": b,
                "pieces": pieces,
                "doc": document(b, pieces),
                "prime": rng.choice(primes),
                "gerbe_n": gerbe_n,
                "gerbe_prime": rng.choice(SMALL_PRIMES),
            })
    return calls


def lib_bundles(seed: int, count: int = 1000) -> list:
    """Large bundles for ``lib-batch``: genus 2-6, rank <= 24, e <= 64, <= 6 points.

    Ramification indices cycle through 1..64 before shuffling, so every seed
    draws the same mix of point sizes and the batch cost depends on the seed
    only through the weights.
    """
    rng = rng_for("lib-batch", seed)
    npoints = [i % 7 for i in range(count)]
    ram = [1 + k % 64 for k in range(sum(npoints))]
    rng.shuffle(ram)
    out, pos = [], 0
    for i in range(count):
        mult = INDEX_MULTIPLIERS[i % len(INDEX_MULTIPLIERS)]
        out.append(bundle(rng, 2 + i % 5, ram[pos:pos + npoints[i]], 24, 50, mult))
        pos += npoints[i]
    return out


def field_items(seed: int, copies: int = 2) -> list[tuple[int, list[int], list[int]]]:
    """Pairs of elements of Q(zeta_e), 3 <= e <= 40, with small integer coefficients.

    Each e occurs ``copies`` times; the first element of each pair is nonzero,
    so it is invertible.
    """
    rng = rng_for("lib-batch-field", seed)
    es = [e for e in range(3, 41) for _ in range(copies)]
    rng.shuffle(es)
    items = []
    for e in es:
        n = checks.euler_phi(e)
        a = [rng.randint(-3, 3) for _ in range(n)]
        if not any(a):
            a[rng.randrange(n)] = rng.choice((-1, 1))
        items.append((e, a, [rng.randint(-3, 3) for _ in range(n)]))
    return items


def verify_seed(seed: int) -> int:
    """The ``verify --seed`` value; it only changes the random suites' draws."""
    return rng_for("verify-deep", seed).randint(1, 2**31 - 1)
