"""Catabolism operators and catabolizability predicates.

Block catabolism strips the canonical block tableau Y_1 off a tableau and
re-inserts the part below the first block's rows; iterating over the whole
block sequence defines catabolizability.  For standard tableaux there are
row and column variants driven by the one-row tableau Z_m, plus the type
partition extracted by iterating the first-row catabolism operator.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, zip_longest

from .shapes import RectSequence, block_starts, partitions_containing, trim
from .tableaux import EMPTY, Tableau, enumerate_cst, schensted_p, v_slice, yamanouchi_tableau


def _strip(rows, block, m: int):
    """Rows without their letters 1..m, or None unless those fill ``block``."""
    rest = []
    for r, b in zip_longest(rows, block, fillvalue=()):
        k = len(b)
        if r[:k] != b or (k < len(r) and r[k] <= m):
            return None
        rest.append(r[k:])
    return rest


def _cat_step(rows, block, m: int, cut: int, shift: int):
    """Strip ``block`` (the letters 1..m) off the rows of a straight tableau and
    row-insert its first ``cut`` rows, then the others, each bottom to top and
    lowered by ``shift``; None when the letters 1..m do not fill ``block``."""
    rest = _strip(rows, block, m)
    if rest is None:
        return None
    return schensted_p([x - shift for x in chain(*rest[:cut][::-1], *rest[cut:][::-1])]).rows


def catabolism_trace(t: Tableau, rseq: RectSequence):
    """Full catabolism run of t against the block sequence, as its replayable
    (before, block, after) steps, or None."""
    steps, cur, blocks = [], t, rseq
    while blocks.t:
        # strip Y_1 and slice below its rows, keeping the original alphabet
        m, y1 = blocks.eta[0], yamanouchi_tableau(blocks.gamma[:blocks.eta[0]])
        rows = None if cur.inner else _cat_step(cur.rows, y1.rows, m, m, 0)
        if rows is None:
            return None
        after = Tableau._make((rows, ()))
        steps.append((cur, y1, after))
        cur, blocks = after.relabel(-m), blocks.tail()
    return None if cur else tuple(steps)


def is_catabolizable(t: Tableau, rseq: RectSequence) -> bool:
    return not t.inner and _catabolizable(t.rows, rseq)


@cache
def _catabolizable(rows, rseq: RectSequence) -> bool:
    """Catabolizability of a straight tableau's rows; each tail is tested once."""
    if rseq.t == 0:
        return not rows
    m = rseq.eta[0]
    after = _cat_step(rows, yamanouchi_tableau(rseq.gamma[:m]).rows, m, m, m)
    return after is not None and _catabolizable(after, rseq.tail())


@cache
def _segments(rseq: RectSequence):
    """(content, size, test) per segment of blocks after Y_1, size counting all letters up
    to its end: a segment ends at each block of more than one row (its prefix is tested)
    and at the last.  A one-row block's letters form Y_j once the blocks before catabolize."""
    gamma, starts, t = rseq.gamma, block_starts(rseq.eta), rseq.t
    out, lo = [], starts[1]
    for j, hi in enumerate(starts[2:], 1):
        if (multi := any(gamma[starts[j] + 1:hi])) or j == t - 1:
            test = multi and RectSequence._make((rseq.eta[:j + 1], gamma[:hi]))
            out.append(((0,) * lo + gamma[lo:hi], sum(gamma[:hi]), test))
            lo = hi
    return tuple(out)


def catabolizable_by_shape(rseq: RectSequence, within=None) -> dict:
    """The catabolizable tableaux of every straight shape, as {shape: tableaux by
    word} in decreasing lexicographic order; with ``within``, every shape grown
    past Y_1 lies inside it.

    They grow from Y_1 a segment of blocks at a time, and a prefix is dropped once
    it fails against the blocks so far: catabolism strips the smallest letters
    left, and H commutes with restricting to the letters <= k.
    """
    if not rseq.t:
        return {(): (EMPTY,)}
    y1 = yamanouchi_tableau(rseq.gamma[:rseq.eta[0]])
    max_len = rseq.n if within is None else len(within)
    groups, segments = {y1.outer: [y1.rows]}, _segments(rseq)  # the prefixes, by shape
    for cnt, size, test in segments:
        grown: dict = {}
        for inner, prefixes in groups.items():
            for nu in partitions_containing(inner, size, max_len, within):
                for s in enumerate_cst(nu, inner, cnt):
                    for rows in prefixes:
                        new = tuple(r + x for r, x in zip_longest(rows, s.rows, fillvalue=()))
                        if not test or _catabolizable(new, test):
                            grown.setdefault(nu, []).append(new)
        groups = grown
    out = {}
    for nu, prefixes in sorted(groups.items(), reverse=True):
        found = [Tableau._make((rows, ())) for rows in prefixes]
        # one segment is enumerate_cst's word order, with Y_1's letters at the same places
        out[nu] = tuple(sorted(found, key=Tableau.word) if len(segments) > 1 else found)
    return out


def enumerate_catabolizable(shape, rseq: RectSequence) -> tuple[Tableau, ...]:
    """All catabolizable tableaux of the given straight shape, by word."""
    # no size or Y_1-containment test: every key has |gamma| boxes and holds Y_1,
    # and each shape grown past Y_1 lies inside the bound, so no other shape is a key
    shape = trim(shape)
    return catabolizable_by_shape(rseq, shape).get(shape, ())


# ---------------------------------------------------------------------------
# standard-tableau catabolism


def leading_run(t: Tableau) -> int:
    """Largest i such that the letters 1..i all sit in the first row."""
    first = set(t.rows[0]) if t.rows else set()
    i = 0
    while i + 1 in first:
        i += 1
    return i


def catabolism_type(t: Tableau):
    """The partition recording how fast iterated catabolism eats 1, 2, ....

    First part: the leading run of t; later parts: the increments of the
    leading run along powers of the first-row catabolism.
    """
    if not t.is_standard():
        raise ValueError("catabolism_type expects a standard tableau")
    n = t.size
    runs = [leading_run(t)]
    cur = t
    while runs[-1] < n:
        # the run i grows: i + 1 leads row 2, so inserting row 1 and then the rest
        # puts it right after 1..i in row 1, and no later letter bumps them
        cur = Tableau._make((_cat_step(cur.rows, (), 0, 1, 0), ()))
        runs.append(leading_run(cur))
    return tuple(a - b for a, b in zip(runs, [0] + runs[:-1]))


def row_catabolism(t: Tableau, m: int):
    """H_1 of (t minus the one-row tableau on 1..m), or None."""
    rows = None if t.inner else _cat_step(t.rows, (tuple(range(1, m + 1)),), m, 1, 0)
    return None if rows is None else Tableau._make((rows, ()))


def column_catabolism(t: Tableau, m: int):
    """V_m of (t minus the one-row tableau on 1..m), or None."""
    rest = None if t.inner else _strip(t.rows, (tuple(range(1, m + 1)),), m)
    return None if rest is None else v_slice(Tableau(rest, (m,)), m)


def _mu_catabolizable(t: Tableau, mu, step) -> bool:
    """Catabolizability against mu, one ``step(t, mu_1)`` per part of mu."""
    mu = trim(mu)
    if not mu:
        return not t
    if t.size != sum(mu):
        return False
    after = step(t, mu[0])
    if after is None:
        return False
    return _mu_catabolizable(after.relabel(-mu[0]), mu[1:], step)


def is_mu_catabolizable(t: Tableau, mu) -> bool:
    """Row catabolizability of a standard tableau against the partition mu."""
    return _mu_catabolizable(t, mu, row_catabolism)


def is_mu_column_catabolizable(t: Tableau, mu) -> bool:
    """Column catabolizability of a standard tableau against mu."""
    return _mu_catabolizable(t, mu, column_catabolism)
