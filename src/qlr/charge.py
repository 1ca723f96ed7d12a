"""The charge and cocharge statistics on words and tableaux.

Charge is defined in three layers: standard words get the index sum of the
classical rule; words of partition content are split into disjoint standard
subwords by the left circular reading; arbitrary content is reduced to the
dominant rearrangement by the plactic permutation action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .shapes import is_weakly_decreasing, n_stat, trim
from .tableaux import Tableau, Word, content
from .crystal import sort_to_partition_content


def charge_standard(w) -> int:
    """Charge of a word of content (1, 1, ..., 1).

    The letter 1 gets index 0; letter i gets the index of i-1, plus one when
    i sits to the right of i-1.  Charge is the sum of the indices.
    """
    w = tuple(w)
    n = len(w)
    pos = [0] * (n + 1)
    for p, x in enumerate(w):
        if not 1 <= x <= n or pos[x]:
            raise ValueError(f"{w} is not standard")
        pos[x] = p + 1
    total = idx = 0
    for i in range(2, n + 1):
        if pos[i] > pos[i - 1]:
            idx += 1
        total += idx
    return total


@dataclass(frozen=True)
class ChargeDecomposition:
    """Disjoint standard subwords covering a word of partition content."""

    subwords: tuple[tuple[Word, tuple[int, ...]], ...]  # (word, 0-based positions)


def circular_decompose(w) -> ChargeDecomposition:
    """Split a partition-content word into standard subwords.

    Each subword is extracted by the left circular reading: pick the first 1
    from the right end, then the first 2 left of it, wrapping around to the
    right end whenever the scan falls off the left edge.
    """
    w = tuple(w)
    cnt = content(w)
    if not is_weakly_decreasing(cnt):
        raise ValueError(f"content {cnt} is not a partition")
    free = list(range(len(w)))
    out = []
    while free:
        letters = sorted({w[p] for p in free})
        if letters != list(range(1, len(letters) + 1)):
            raise ValueError("content lost partition form during decomposition")
        chosen = []
        cursor = len(w)
        for v in range(1, len(letters) + 1):
            # free is ascending, and the letters check above makes ``at`` nonempty
            at = [p for p in free if w[p] == v]
            cursor = max((p for p in at if p < cursor), default=at[-1])
            chosen.append(cursor)
        chosen.sort()
        out.append((tuple(w[p] for p in chosen), tuple(chosen)))
        free = [p for p in free if p not in set(chosen)]
    return ChargeDecomposition(tuple(out))


@cache
def charge(w) -> int:
    """Charge of an arbitrary word."""
    w = tuple(w)
    cnt = content(w)
    if cnt and cnt[0] == 0:
        # leading zero counts: shift the alphabet down instead of acting
        drop = next(i for i, c in enumerate(cnt) if c)
        return charge(tuple(x - drop for x in w))
    if not is_weakly_decreasing(cnt):
        return charge(sort_to_partition_content(w))
    return sum(charge_standard(u) for u, _ in circular_decompose(w).subwords)


def cocharge(w) -> int:
    """n(mu) - charge(w) for a word of partition content mu."""
    w = tuple(w)
    mu = content(w)
    if not is_weakly_decreasing(mu):
        raise ValueError(f"cocharge needs partition content, got {mu}")
    return n_stat(mu) - charge(w)


def charge_tableau(t: Tableau) -> int:
    return charge(t.word())


def cocharge_tableau(t: Tableau) -> int:
    return cocharge(t.word())


def cocharge_grade(t: Tableau) -> int:
    """Cocharge through the dominant rearrangement of the content.

    Defined for any content: charge is constant on plactic orbits, so this is
    the grade of the tableau inside its cyclage poset.
    """
    mu = tuple(sorted(trim(t.content()), reverse=True))
    return n_stat(mu) - charge(t.word())
