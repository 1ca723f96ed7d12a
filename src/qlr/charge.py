"""The charge and cocharge statistics on words and tableaux.

Charge is defined in two layers.  A word of partition content is read in one
pass: the left circular reading picks its disjoint standard subwords, and
each letter scores the running index of the classical rule as it is picked.
Arbitrary content is reduced to the dominant rearrangement by the plactic
permutation action.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache

from .shapes import is_weakly_decreasing, n_stat, trim
from .tableaux import Tableau, content
from .crystal import sort_to_partition_content


def _charge_partition(w) -> int:
    """Charge of a word of partition content, by the left circular reading.

    Each standard subword starts at the right end: letter v is the nearest
    free v left of the cursor, or the rightmost free v when none is left and
    the reading wraps.  Letter 1 gets index 0, and letter v gets the index of
    v-1, plus one when the reading wrapped to reach it; the charge is the sum
    of all indices.
    """
    at = [[] for _ in range(max(w, default=0))]
    for p, x in enumerate(w):
        at[x - 1].append(p)
    total = 0
    while at and at[0]:
        cursor, idx = len(w), 0
        for ps in at:
            if not ps:
                break
            k = bisect_left(ps, cursor)
            if k == 0:  # no free v left of the cursor: wrap to the right end
                idx += 1
            cursor = ps.pop(k - 1)
            total += idx
    return total


@cache
def charge(w) -> int:
    """Charge of an arbitrary word."""
    w = tuple(w)
    if not is_weakly_decreasing(content(w)):
        return charge(sort_to_partition_content(w))
    return _charge_partition(w)


def charge_tableau(t: Tableau) -> int:
    return charge(t.word())


def cocharge_grade(t: Tableau) -> int:
    """Cocharge n(mu) - charge, mu the content sorted into a partition.

    Defined for any content: charge is constant on plactic orbits, so this is
    the grade of the tableau inside its cyclage poset.
    """
    mu = tuple(sorted(trim(t.content()), reverse=True))
    return n_stat(mu) - charge(t.word())
