"""Cross-check sweeps, conjecture scans, and theorem checks.

Everything here enumerates explicit index families or word ranges, runs the
relevant identities, and collects counterexamples into a ScanReport instead
of raising, so the CLI can turn findings into exit codes and reports.  The
reducers are order-insensitive; sweeps are deterministic unless a sample
seed is supplied.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache

from .catabolism import (
    catabolism_type,
    is_mu_catabolizable,
    is_mu_column_catabolizable,
)
from .charge import charge, cocharge_grade
from .crystal import is_mu_lattice, plactic_act
from .cyclage import cyclage_standardization
from .kpoly import (
    KIndex,
    PROVEN,
    QPoly,
    ZERO,
    _charge_polys,
    _k_rec,
    charge_engine_status,
    default_degree_bound,
    dominant_reorderings,
    k_by_kostant,
    k_by_recurrence,
    lr_product,
    series_decomposition,
)
from .shapes import (
    RectSequence,
    all_permutations,
    box_complement,
    compositions,
    dominates,
    is_weakly_decreasing,
    pad,
    partitions,
    partitions_upto,
    rect_sequence,
    trim,
)
from .tableaux import (
    Tableau,
    column_rsk,
    content,
    evacuation,
    standard_tableaux,
    straight_cst,
)


@dataclass
class ScanReport:
    descriptor: dict
    checks: int = 0
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0

    @classmethod
    @contextmanager
    def timed(cls, **descriptor):
        """A report on ``descriptor`` whose ``elapsed`` spans the with-block."""
        t0 = time.perf_counter()
        rep = cls(descriptor=descriptor)
        yield rep
        rep.elapsed = time.perf_counter() - t0

    @property
    def ok(self) -> bool:
        return self.checks > 0 and not self.counterexamples

    def found(self, **kwargs):
        self.counterexamples.append(kwargs)

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "checks": self.checks,
            "counterexamples": [
                {k: _encode(v) for k, v in ce.items()} for ce in self.counterexamples
            ],
            "elapsed_s": round(self.elapsed, 3),
            "ok": self.ok,
        }


# fixed at import: the name KIndex here may be rebound to mark each index
_ENCODERS = {
    QPoly: QPoly.to_json,
    KIndex: lambda i: {"lambda": list(i.lam), "gamma": list(i.gamma), "eta": list(i.eta)},
    RectSequence: lambda r: {"eta": list(r.eta), "gamma": list(r.gamma)},
    Tableau: lambda t: [list(row) for row in t.rows],
}


def _encode(v):
    """A counterexample field as JSON data, by its type; strings and numbers stay."""
    if type(v) in _ENCODERS:
        return _ENCODERS[type(v)](v)
    return [_encode(x) for x in v] if isinstance(v, (tuple, list, set, frozenset)) else v


def index_family(max_n: int, max_weight: int):
    """All (lambda, gamma, eta) with dominant gamma, grouped by (gamma, eta).

    Yields tuples (gamma, eta, [lambdas]) with every weight padded to n.
    """
    for n in range(1, max_n + 1):
        for s in range(max_weight + 1):
            for gam in partitions(s, max_len=n):
                gamma = pad(gam, n)
                lams = [pad(p, n) for p in partitions(s, max_len=n)]
                for eta in compositions(n):
                    yield gamma, eta, lams


def _scan_family(kind, max_n, max_weight, sample, check) -> ScanReport:
    """Run ``check(rep, rseq, indices)`` once per (gamma, eta) group of the family.

    The groups of ``index_family``, or a seeded sample of them, are visited
    in turn.  ``rseq`` is the group's block sequence, and ``indices`` yields
    each of its ``KIndex(lam, gamma, eta)`` only when the check's loop
    reaches it, so a check keeps its group's set-up as plain locals ahead of
    that loop.  A timing harness that rebinds ``rect_sequence`` and
    ``KIndex`` here charges that set-up to the group's first index.
    """
    with ScanReport.timed(
        kind=kind,
        max_n=max_n,
        max_weight=max_weight,
        sample=list(sample) if sample else None,
    ) as rep:
        groups = index_family(max_n, max_weight)
        if sample is not None:
            seed, count = sample
            groups = list(groups)
            if count < len(groups):
                groups = random.Random(seed).sample(groups, count)
        for gamma, eta, lams in groups:
            check(rep, rect_sequence(eta, gamma), (KIndex(lam, gamma, eta) for lam in lams))
    return rep


def crosscheck_family(
    max_n: int,
    max_weight: int,
    *,
    include_charge: bool = True,
    include_dualities: bool = True,
    sample=None,
    cache=None,
) -> ScanReport:
    """Engine agreement plus the q=1, duality, and symmetry identities.

    ``sample`` is an optional (seed, group_count) pair restricting the sweep
    to a random subset of (gamma, eta) groups.  ``cache`` maps
    (index key, engine) -> (QPoly, status); the cached polynomials of every
    engine the sweep ran on an index (charge only on proven groups) are
    compared against the recomputed ones, so a corrupted cache surfaces as a
    counterexample.  The q=1 oracle ``lr_product`` and the recurrence share
    ``lr_coefficient``, but the Kostant and series engines do not, so a fault
    there still surfaces in the ``engines`` check.  The ``dual`` and ``box``
    checks read the box complement of the index, which is also the
    normalization of its contragredient dual: the recurrence reads it for
    ``dual``, the Kostant engine for ``box``.
    """

    # every index here and derived here passes k_by_recurrence's checks
    def check(rep, rseq, indices):
        gamma = rseq.gamma
        bound = default_degree_bound((sum(gamma),) + (0,) * (rseq.n - 1), gamma)
        decomposition = series_decomposition(gamma, rseq.eta, bound)
        product = lr_product(rseq.rects, rseq.n)
        reorderings = ([other for other in dominant_reorderings(rseq) if other != rseq]
                       if include_dualities else ())
        charge = (_charge_polys(rseq) if include_charge
                  and charge_engine_status(rseq) == PROVEN else None)
        for idx in indices:
            lam = idx.lam
            p_rec = _k_rec(lam, rseq)
            p_kos = k_by_kostant(idx)
            p_ser = decomposition.get(lam, ZERO)
            rep.checks += 1
            if not (p_rec == p_kos == p_ser):
                rep.found(check="engines", index=idx, recurrence=p_rec, kostant=p_kos,
                          series=p_ser)
                continue
            if charge is not None:
                p_charge = charge.get(trim(lam), ZERO)
                rep.checks += 1
                if p_charge != p_rec:
                    rep.found(check="charge", index=idx, charge=p_charge, exact=p_rec)
            rep.checks += 1
            lr = product.get(trim(lam), 0)
            if p_rec.at_one() != lr:
                rep.found(check="q=1", index=idx, poly=p_rec, lr=lr)
            if include_dualities:
                # the dual of a dominant index normalizes, with sign +1, to its box complement
                lam_c, rs_c = box_complement(lam, rseq)
                rep.checks += 1
                p_dual = _k_rec(lam_c, rs_c)
                if p_dual != p_rec:
                    rep.found(check="dual", index=idx, poly=p_rec, dual=p_dual)
                rep.checks += 1
                # built trusted from idx: the name KIndex here may be rebound to mark each index
                p_box = k_by_kostant(idx._replace(lam=lam_c, gamma=rs_c.gamma, eta=rs_c.eta))
                if p_box != p_rec:
                    rep.found(check="box", index=idx, poly=p_rec, complement=p_box)
                for other in reorderings:
                    rep.checks += 1
                    p_sym = _k_rec(lam, other)
                    if p_sym != p_rec:
                        rep.found(check="symmetry", index=idx, reordering=other,
                                  poly=p_rec, other=p_sym)
            if cache is not None:
                key = index_key(idx)  # a crosscheck index is its own normalization
                computed = [("recurrence", p_rec), ("kostant", p_kos), ("series", p_ser)]
                if charge is not None:
                    computed.append(("charge", p_charge))
                for engine, value in computed:
                    cached = cache.get((key, engine))
                    if cached is not None:
                        rep.checks += 1
                        if cached[0] != value:
                            rep.found(check="cache", index=idx, engine=engine,
                                      cached=cached[0], computed=value)

    return _scan_family("crosscheck", max_n, max_weight, sample, check)


def index_key(nidx) -> str:
    """Cache key of an index from its normalized index, None for a zero one."""
    if nidx is None:
        return "zero"
    return f"{list(nidx.lam)}|{list(nidx.gamma)}|{list(nidx.eta)}"


# ---------------------------------------------------------------------------
# conjecture scans: a scan's lambda is a partition of gamma's size and its block
# sequences are dominant, so each passes k_by_recurrence's checks and goes to _k_rec


def scan_positivity(max_n: int, max_weight: int, *, sample=None) -> ScanReport:
    """Dominant gamma should give nonnegative coefficients."""

    def check(rep, rseq, indices):
        for idx in indices:
            poly = _k_rec(idx.lam, rseq)
            rep.checks += 1
            if not poly.is_nonnegative():
                rep.found(check="positivity", index=idx, poly=poly)

    return _scan_family("positivity", max_n, max_weight, sample, check)


def scan_catabolizable(max_n: int, max_weight: int, *, sample=None) -> ScanReport:
    """The charge engine should match the exact engines on dominant inputs."""

    def check(rep, rseq, indices):
        polys, status = _charge_polys(rseq), charge_engine_status(rseq)
        for idx in indices:
            exact = _k_rec(idx.lam, rseq)
            conj = polys.get(trim(idx.lam), ZERO)
            rep.checks += 1
            if conj != exact:
                rep.found(check="catabolizable", index=idx, status=status,
                          charge=conj, exact=exact)

    return _scan_family("catabolizable", max_n, max_weight, sample, check)


def _grows(kind, variants_of, max_n, max_weight, sample) -> ScanReport:
    """Scan that K grows coefficientwise from each index's block sequence to
    every variant ``variants_of(rseq)`` makes of it."""

    def check(rep, rseq, indices):
        variants = variants_of(rseq)
        if not variants:
            return
        for idx in indices:
            base = _k_rec(idx.lam, rseq)
            for variant in variants:
                rep.checks += 1
                other = _k_rec(idx.lam, variant)
                if not base.leq(other):
                    rep.found(check=kind, index=idx, variant_eta=variant.eta,
                              poly=base, other=other)

    return _scan_family(kind, max_n, max_weight, sample, check)


def scan_monotonicity_refine(max_n: int, max_weight: int, *, sample=None) -> ScanReport:
    """Refining one block of a dominant sequence should grow K coefficientwise."""

    def splits(rseq):
        # every two-part split (a, part - a) of every block
        eta = rseq.eta
        return [
            rect_sequence(eta[:i] + (a, part - a) + eta[i + 1:], rseq.gamma)
            for i, part in enumerate(eta)
            for a in range(1, part)
        ]

    return _grows("monotonicity1", splits, max_n, max_weight, sample)


def _rectangle_runs(rseq):
    """Maximal runs (start, stop) of consecutive blocks that are full
    rectangles of one nonzero width."""
    start = 0
    for w, run in itertools.groupby(rseq.rects, key=lambda r: r[0] if len(set(r)) == 1 else 0):
        stop = start + len(list(run))
        if w:
            yield start, stop
        start = stop


def scan_monotonicity_heights(max_n: int, max_weight: int, *, sample=None) -> ScanReport:
    """Spreading rectangle heights downward in dominance grows K."""

    def spreads(rseq):
        eta = rseq.eta
        variants = []
        for start, stop in _rectangle_runs(rseq):
            heights = eta[start:stop]
            top = tuple(sorted(heights, reverse=True))
            for beta in compositions(sum(heights)):
                if (len(beta) == stop - start and beta != heights
                        and dominates(top, tuple(sorted(beta, reverse=True)))):
                    variants.append(rect_sequence(eta[:start] + beta + eta[stop:], rseq.gamma))
        return variants

    return _grows("monotonicity2", spreads, max_n, max_weight, sample)


SCANS = {
    "positivity": scan_positivity,
    "catabolizable": scan_catabolizable,
    "monotonicity1": scan_monotonicity_refine,
    "monotonicity2": scan_monotonicity_heights,
}


# ---------------------------------------------------------------------------
# theorem checks


def check_cyc_image(n: int) -> ScanReport:
    """Image of the cyclage standardization = dominance cone of the type."""
    with ScanReport.timed(kind="cyc_image", n=n) as rep:
        standard_by_type: dict = {}
        for shape in partitions(n):
            for s in standard_tableaux(shape):
                standard_by_type[s] = catabolism_type(s)
        for mu in partitions(n):
            image = set()
            for shape in partitions(n, max_len=len(mu)):
                for t in straight_cst(shape, mu):
                    s = cyclage_standardization(t)
                    rep.checks += 1
                    if s in image:
                        rep.found(check="injectivity", mu=mu, collision=s)
                    if s.outer != t.outer:
                        rep.found(check="shape", mu=mu, source=t, image=s)
                    if cocharge_grade(s) != cocharge_grade(t):
                        rep.found(check="grade", mu=mu, source=t, image=s)
                    image.add(s)
            expected = {s for s, ct in standard_by_type.items() if dominates(ct, mu)}
            rep.checks += 1
            if image != expected:
                rep.found(check="image", mu=mu, missing=expected - image, extra=image - expected)
    return rep


def check_row_col_cat(n: int) -> ScanReport:
    """Row and column catabolizability agree on standard tableaux."""
    with ScanReport.timed(kind="row_col_cat", n=n) as rep:
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                for mu in partitions(n):
                    rep.checks += 1
                    if is_mu_catabolizable(t, mu) != is_mu_column_catabolizable(t, mu):
                        rep.found(check="row_col_cat", tableau=t, mu=mu)
    return rep


def check_charge_axioms(max_len: int = 6, alphabet: int = 4) -> ScanReport:
    """The five defining properties of charge, exhaustively on small words."""
    perms = list(all_permutations(alphabet))
    with ScanReport.timed(
        kind="charge_axioms", max_len=max_len, alphabet=alphabet
    ) as rep:
        rep.checks += 1
        if charge(()) != 0:
            rep.found(check="empty", value=charge(()))
        for ln in range(1, max_len + 1):
            for w in itertools.product(range(1, alphabet + 1), repeat=ln):
                c = charge(w)
                # (1) invariance under the plactic permutation action
                for p in perms:
                    rep.checks += 1
                    if charge(plactic_act(p, w)) != c:
                        rep.found(check="plactic", word=w, perm=p)
                        break
                # (5) constancy on Knuth classes, via single rewrites
                for v in _knuth_moves(w):
                    rep.checks += 1
                    if charge(v) != c:
                        rep.found(check="knuth", word=w, other=v)
                cnt = content(w)
                if is_weakly_decreasing(cnt):
                    # (4) rotating a leading letter a > 1 raises charge by one
                    if w[0] > 1:
                        rep.checks += 1
                        if charge(w[1:] + w[:1]) != c + 1:
                            rep.found(check="rotation", word=w)
                    # (3) stripping the full run of 1's from the right end
                    m1 = cnt[0]
                    if m1 and w[ln - m1:] == (1,) * m1 and all(x > 1 for x in w[: ln - m1]):
                        rep.checks += 1
                        if charge(tuple(x - 1 for x in w[: ln - m1])) != c:
                            rep.found(check="strip_ones", word=w)
    return rep


def _knuth_moves(w):
    """All words one elementary Knuth rewrite away from w."""
    out = []
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        # x z y <-> z x y for x <= y < z: swap the first two letters
        if a <= c < b or b <= c < a:
            out.append(w[:i] + (b, a, c) + w[i + 3:])
        # y x z <-> y z x for x < y <= z: swap the last two letters
        if b < a <= c or c < a <= b:
            out.append(w[:i] + (a, c, b) + w[i + 3:])
    return out


def check_white_fitting(total: int = 6, alphabet: int = 3) -> ScanReport:
    """Rows of a skew tableau exist iff the recording side is lattice.

    Forward: every skew column-strict tableau's row sequence gives a
    recording tableau of the right content that is inner-lattice.  Converse:
    every weakly increasing word sequence whose recording tableau passes the
    test assembles into a skew column-strict tableau.
    """
    with ScanReport.timed(kind="white_fitting", total=total, alphabet=alphabet) as rep:
        for words, (_, q) in _column_rsk_table(total, alphabet).items():
            mu_len = len(words)
            for mu in partitions_upto(total, mu_len):
                mu_p = pad(trim(mu), mu_len)
                lam = tuple(m + len(w) for m, w in zip(mu_p, words))
                rep.checks += 1
                assembles = (is_weakly_decreasing(lam)
                             and Tableau._make((words, trim(mu))).is_column_strict())
                predicted = is_weakly_decreasing(lam) and is_mu_lattice(q.word(), mu_p)
                if assembles != predicted:
                    rep.found(check="fitting", words=words, mu=mu_p, lam=lam)
    return rep


def _word_sequences(total: int, alphabet: int):
    """All lists of one to three weakly increasing words with total length
    <= total, in the order of ``itertools.product`` over the words by length."""
    singles = [()]
    for ln in range(1, total + 1):
        singles.extend(itertools.combinations_with_replacement(range(1, alphabet + 1), ln))

    def fill(k, budget):
        if not k:
            yield []
            return
        for w in singles:
            if len(w) > budget:
                break  # singles are sorted by length
            for rest in fill(k - 1, budget - len(w)):
                yield [w] + rest

    for k in range(1, 4):
        yield from fill(k, total)


@cache
def _column_rsk_table(total: int, alphabet: int) -> dict:
    """Column RSK of every word sequence, keyed by the sequence as a tuple."""
    return {tuple(words): column_rsk(words) for words in _word_sequences(total, alphabet)}


def check_ev_duality(total: int = 6, alphabet: int = 3) -> ScanReport:
    """Reversing and complementing the inputs evacuates both RSK outputs."""
    with ScanReport.timed(kind="ev_duality", total=total, alphabet=alphabet) as rep:
        # the flip maps the word sequences onto themselves
        rsk = _column_rsk_table(total, alphabet)
        for words, (p, q) in rsk.items():
            flipped = tuple(tuple(alphabet + 1 - x for x in reversed(w)) for w in reversed(words))
            p2, q2 = rsk[flipped]
            rep.checks += 1
            if p2 != evacuation(p, alphabet) or q2 != evacuation(q, len(words)):
                rep.found(check="ev", words=list(words), p=p, q=q)
    return rep


def check_stembridge(n: int) -> ScanReport:
    """The two-celled-rectangle family satisfies the branching recurrence."""

    def blocks(m, d):
        eta = (1,) * m + (2,) * d + (1,) * (n - 2 * m - 2 * d)
        return rect_sequence(eta, (2,) * m + (1,) * (n - 2 * m))

    with ScanReport.timed(kind="stembridge", n=n) as rep:
        for lam in partitions(n):
            for m in range(n // 2 + 1):
                for d in range((n - 2 * m) // 2):
                    lhs = k_by_recurrence(lam, blocks(m, d + 1))
                    a = k_by_recurrence(lam, blocks(m, d))
                    b = k_by_recurrence(lam, blocks(m + 1, d))
                    rep.checks += 1
                    if lhs != a - QPoly.term(n - 2 * m - d - 1) * b:
                        rep.found(check="stembridge", lam=lam, m=m, d=d, lhs=lhs)
    return rep


CHECKS = {
    "cyc_image": check_cyc_image,
    "row_col_cat": check_row_col_cat,
    "charge_axioms": check_charge_axioms,
    "white_fitting": check_white_fitting,
    "ev_duality": check_ev_duality,
    "stembridge": check_stembridge,
}
