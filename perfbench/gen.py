"""Seeded inputs for the benchmark workloads, plus the reference values the
output gate compares against.

This runs in the run.py process, never in the timed worker, so the worker's
memo tables start cold. The same (workload, seed) always yields the same
inputs. Every workload is stratified (a fixed number of ops per size class:
length n and weight, or word length and alphabet) so that its cost and its
latency percentiles depend little on the seed.
"""

from __future__ import annotations

import random

from qlr.kpoly import KIndex, compute, default_degree_bound
from qlr.shapes import all_permutations, compositions, dominates, pad, partitions

# sweep: the exhaustive acceptance family plus a seeded sample of groups
SWEEP_EXHAUSTIVE = (4, 8)
SWEEP_SAMPLED = (5, 6)
SWEEP_SAMPLE_GROUPS = 12

# index: per n and weight, this many random dominant indices with nonzero K,
# and one more for series; a fixed number of ops per engine and size class
# keeps the latency percentiles from hanging on how many slow ops a seed drew
INDEX_NS = (6, 7, 8)
INDEX_WEIGHTS = range(2, 17)
INDEX_PER_CLASS = 3
# Kostant visits all n! permutations and its flow count grows with weight:
# run it on every index at n = 6, and on the lightest ones at n = 7 and 8
INDEX_KOSTANT_MAX_WEIGHT = {6: 16, 7: 10, 8: 3}
SERIES_CAP = 3              # series indices have default_degree_bound <= cap
INDEX_REPEAT_SHARE = 0.15   # ops repeating an earlier (index, engine) pair

# Fixed indices whose timings ROADMAP.md quotes as the baseline, in every
# seed's index list. Series runs at the per-lambda degree bound (5 here);
# the full gamma = (1^6) expansion takes minutes.
ANCHORS = (
    ((6, 4, 3, 2, 1, 0, 0, 0), (2,) * 8, (2, 2, 2, 2), ("recurrence", "charge", "kostant")),
    ((2, 1, 1, 1, 1, 0), (1,) * 6, (2, 2, 2), ("series",)),
    ((2, 1, 1, 1, 1, 0), (1,) * 6, (1,) * 6, ("series",)),
)

# involution: this many indices per (n, weight), with eta cycling through
# every composition of n. Cost grows steeply with the number of parts of eta
# (eta = (1^6) ops take the most), so drawing eta at random would let wall_s
# hang on how many heavy ops a seed drew.
INVOLUTION_NS = (4, 5, 6)
INVOLUTION_WEIGHTS = range(1, 9)
INVOLUTION_PER_CLASS = 64   # a multiple of 2^(n-1), the number of etas

# words: ops cycle through every (length, alphabet) class
WORD_LENGTHS = range(8, 15)
WORD_ALPHABETS = (4, 5, 6)
WORD_OPS = 420
WORD_PERMS = 2              # plactic-action permutations checked per word


def generate(workload: str, seed: int):
    """Return (spec, refs): the worker's input and, on ``index``, each op's
    reference coefficients from the recurrence engine (None elsewhere)."""
    rng = random.Random(f"qlr-perfbench/{workload}/{seed}")
    return GENERATORS[workload](rng)


def _sweep(rng):
    spec = {
        "exhaustive": list(SWEEP_EXHAUSTIVE),
        "sampled": list(SWEEP_SAMPLED),
        "sample": [rng.randrange(2**31), SWEEP_SAMPLE_GROUPS],
    }
    return spec, None


def _nonzero_index(rng, n, weight, max_bound=None):
    """A random dominant index of length n and weight >= 2 with nonzero K,
    and that K; with ``max_bound``, one whose default_degree_bound is at
    most that.

    lambda = gamma is left out: its K is 1 and every engine's trivial case.
    """
    while True:
        gamma = pad(rng.choice(partitions(weight, max_len=n)), n)
        eta = rng.choice(compositions(n))
        lams = [pad(p, n) for p in partitions(weight, max_len=n)]
        lams = [lam for lam in lams if lam != gamma and dominates(lam, gamma)
                and (max_bound is None or default_degree_bound(lam, gamma) <= max_bound)]
        rng.shuffle(lams)
        for lam in lams[:20]:
            poly, _ = compute(KIndex(lam, gamma, eta), "recurrence")
            if poly:
                return lam, gamma, eta, poly


def _index(rng):
    pairs = []
    for lam, gamma, eta, engines in ANCHORS:
        poly, _ = compute(KIndex(lam, gamma, eta), "recurrence")
        pairs.extend((lam, gamma, eta, poly, e) for e in engines)
    for n in INDEX_NS:
        for weight in INDEX_WEIGHTS:
            for _ in range(INDEX_PER_CLASS):
                lam, gamma, eta, poly = _nonzero_index(rng, n, weight)
                engines = ["recurrence", "charge"]
                if weight <= INDEX_KOSTANT_MAX_WEIGHT[n]:
                    engines.append("kostant")
                pairs.extend((lam, gamma, eta, poly, e) for e in engines)
            lam, gamma, eta, poly = _nonzero_index(rng, n, weight, max_bound=SERIES_CAP)
            pairs.append((lam, gamma, eta, poly, "series"))
    rng.shuffle(pairs)
    for _ in range(round(INDEX_REPEAT_SHARE * len(pairs))):
        pos = rng.randrange(1, len(pairs))
        pairs.insert(pos + 1, pairs[rng.randrange(pos)])
    ops = [
        {"lam": list(lam), "gamma": list(gamma), "eta": list(eta), "engine": e}
        for lam, gamma, eta, _, e in pairs
    ]
    return {"ops": ops}, [poly.to_json()["coeffs"] for *_, poly, _ in pairs]


def _involution(rng):
    ops = []
    for n in INVOLUTION_NS:
        etas = compositions(n)
        for s in INVOLUTION_WEIGHTS:
            for i in range(INVOLUTION_PER_CLASS):
                gamma = pad(rng.choice(partitions(s, max_len=n)), n)
                eta = etas[i % len(etas)]
                lam = pad(rng.choice(partitions(s, max_len=n)), n)
                ops.append({"lam": list(lam), "gamma": list(gamma), "eta": list(eta)})
    rng.shuffle(ops)
    return {"ops": ops}, None


def _words(rng):
    classes = [(ln, k) for ln in WORD_LENGTHS for k in WORD_ALPHABETS]
    perms = {k: list(all_permutations(k)) for k in WORD_ALPHABETS}
    ops = []
    for i in range(WORD_OPS):
        ln, k = classes[i % len(classes)]
        ops.append({
            "w": [rng.randint(1, k) for _ in range(ln)],
            "perms": [list(rng.choice(perms[k])) for _ in range(WORD_PERMS)],
        })
    rng.shuffle(ops)
    return {"ops": ops}, None


GENERATORS = {
    "sweep": _sweep,
    "index": _index,
    "involution": _involution,
    "words": _words,
}
