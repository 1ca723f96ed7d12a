"""Cyclage covers and content embeddings.

A tableau T of partition content covers S when some corner of T reverse
column-inserts to a letter a > 1 and an intermediate tableau U with
S = P(word(U) + (a,)).  Covers drop the cocharge grade by exactly one, and
the poset of all tableaux of a fixed content is graded with the one-row
tableau at the bottom.  Non-partition contents are handled by conjugating
with the plactic action of the sorting permutation.

The embeddings between contents alpha >= beta (dominance of the sorted
contents) compose two elementary moves on the reading word: a plactic
permutation step and the lowering step that turns the rightmost unpaired 1
into a 2, both on one labelled word, read and refilled once at the end.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .charge import cocharge_grade
from .crystal import _match, _permute, _rearrange, _read, refill
from .shapes import dominates, is_weakly_decreasing, pad, trim
from .tableaux import (
    Tableau,
    _insert,
    _transpose,
    _uninsert,
    all_cst_of_content,
)


class CyclageEdge(NamedTuple):
    """One covering pair, with the construction data (cells are 0-based)."""

    upper: Tableau
    lower: Tableau
    start_cell: tuple[int, int]   # corner of upper where the reverse insert starts
    letter: int                   # the cycled letter, always > 1
    intermediate: Tableau
    end_cell: tuple[int, int]     # corner of lower created by the row insert


def _edge_from_corner(t: Tableau, cell):
    cols = _transpose(t.rows)
    a = _uninsert(cols, cell[::-1], bisect_right)
    if a == 1:
        return None
    rows = _transpose(cols)
    u = Tableau(rows)
    end = _insert(rows, a, bisect_right)
    return CyclageEdge(t, Tableau(rows), cell, a, u, end)


def cyclage_covers(t: Tableau) -> tuple[CyclageEdge, ...]:
    """All covers of a straight tableau of partition content."""
    if t.inner:
        raise ValueError("cyclage expects straight tableaux")
    if not is_weakly_decreasing(t.content()):
        raise ValueError("cyclage covers need partition content")
    edges = []
    for cell in t.corners():
        e = _edge_from_corner(t, cell)
        if e is not None:
            edges.append(e)
    return tuple(edges)


def cocyclage(t: Tableau, cell):
    """Invert a cover from below: reverse row insert at ``cell``, then column
    insert the emitted letter.  None when the emitted letter is 1."""
    rows = [list(r) for r in t.rows]
    a = _uninsert(rows, cell, bisect_left)
    if a == 1:
        return None
    u = Tableau(rows)
    cols = _transpose(rows)
    start = _insert(cols, a, bisect_left)
    return CyclageEdge(Tableau(_transpose(cols)), t, start[::-1], a, u, cell)


# ---------------------------------------------------------------------------
# embeddings between contents


def content_embedding(alpha, beta, t: Tableau) -> Tableau:
    """The graded embedding of the content-alpha poset into content-beta.

    Requires sorted(alpha) to dominate sorted(beta); the map is independent
    of the particular chain of elementary moves used here.  Each move acts on
    the reading word: with mu the sorted content and slack the partial sums of
    mu - sorted(beta), it takes i the first index of positive slack and j the
    first from i of zero slack, stages the content as (mu_i, mu_j, rest) by the
    plactic action and lowers at r = 1.  A last plactic action reaches beta.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if trim(t.content()) != trim(alpha):
        raise ValueError(f"tableau content {t.content()} is not {alpha}")
    if not dominates(
        tuple(sorted(alpha, reverse=True)), tuple(sorted(beta, reverse=True))
    ):
        raise ValueError(f"{alpha} does not dominate {beta}")
    n = max(len(alpha), len(beta))
    cnt, beta = list(pad(alpha, n)), pad(beta, n)
    target = sorted(beta, reverse=True)
    out, lab = list(t.word()), list(range(n + 1))
    while (mu := sorted(cnt, reverse=True)) != target:
        # mu_i > target_i >= target_j > mu_j; slack >= 1 on [i, j) keeps the dominance
        slack = list(itertools.accumulate(a - b for a, b in zip(mu, target)))
        i = next(k for k, s in enumerate(slack) if s)
        j = slack.index(0, i)
        _permute(out, lab, cnt, (mu[i], mu[j], *mu[:i], *mu[i + 1:j], *mu[j + 1:]))
        # staged, c_1 >= c_2 + 2 leaves two 1's unpaired: lower the rightmost at r = 1
        out[_match(out, lab[1], s=lab[2])[0][-1]] = lab[2]
        cnt[:2] = mu[i] - 1, mu[j] + 1
    _permute(out, lab, cnt, beta)
    return refill(t, _read(out, lab))


def cyclage_standardization(t: Tableau) -> Tableau:
    """Embed a partition-content tableau into the standard tableaux."""
    mu = trim(t.content())
    if not is_weakly_decreasing(mu):
        raise ValueError("standardization expects partition content")
    return content_embedding(mu, (1,) * sum(mu), t)


# ---------------------------------------------------------------------------
# whole posets


class CyclagePoset(NamedTuple):
    """The graded cover graph of all tableaux of one content."""

    alpha: tuple[int, ...]
    vertices: tuple[Tableau, ...]
    edges: tuple[CyclageEdge, ...]
    grades: tuple[int, ...]  # cocharge of each vertex, parallel to vertices

    def bottoms(self):
        uppers = {e.upper for e in self.edges}
        return tuple(v for v in self.vertices if v not in uppers)


MAX_POSET_SIZE = 8


def cyclage_poset(alpha) -> CyclagePoset:
    """Build the full cover graph over all tableaux of content ``alpha``.

    Contents that are not partitions are conjugated through the plactic
    action of the sorting permutation, which is a shape-preserving poset
    isomorphism onto the dominant rearrangement.
    """
    alpha = tuple(alpha)
    if sum(alpha) > MAX_POSET_SIZE:
        raise ValueError(f"poset size {sum(alpha)} exceeds {MAX_POSET_SIZE}")
    verts = all_cst_of_content(alpha)
    # the rearrangement is the identity when alpha is a partition
    mu = sorted(alpha, reverse=True)
    edges = []
    for v in verts:
        for e in cyclage_covers(refill(v, _rearrange(v.word(), alpha, mu))):
            lower = refill(e.lower, _rearrange(e.lower.word(), mu, alpha))
            edges.append(e._replace(upper=v, lower=lower))
    grades = tuple(cocharge_grade(v) for v in verts)
    return CyclagePoset(alpha, verts, tuple(edges), grades)
