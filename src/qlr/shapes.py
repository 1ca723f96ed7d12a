"""Integer partitions, weights, dominance order, and block sequences.

Everything in this module is a pure function on tuples of integers, so all
values are hashable and safe to share across threads.  Conventions:

* a *weight* is a fixed-length tuple of (possibly negative) integers;
* a *partition* is a weakly decreasing tuple of nonnegative integers whose
  canonical form trims trailing zeros;
* a *composition* is a tuple of nonnegative integers;
* a permutation ``w`` is stored in one-line notation as a tuple with
  ``w[i] == w(i+1)`` (0-based storage, 1-based values); it moves the entry at
  position j of a weight to position w(j).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache
from operator import add, eq, ge, sub

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic vector utilities


def trim(p) -> Vec:
    """Canonical form of a partition-like vector: drop trailing zeros."""
    p = tuple(p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pad(p, n: int) -> Vec:
    """Pad a vector with trailing zeros to length ``n``."""
    p = tuple(p)
    if len(p) > n:
        if any(p[n:]):
            raise ValueError(f"cannot pad {p} to length {n}")
        return p[:n]
    return p + (0,) * (n - len(p))


def is_weakly_decreasing(p) -> bool:
    return all(map(ge, p, p[1:]))


def is_partition(p) -> bool:
    """True for a weakly decreasing vector of nonnegative integers."""
    p = tuple(p)
    return is_weakly_decreasing(p) and (not p or p[-1] >= 0)


def conjugate(p) -> Vec:
    """Transpose of the Ferrers diagram of a partition."""
    p = trim(p)
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > j) for j in range(p[0]))


def n_stat(mu) -> int:
    """The statistic sum_i (i-1)*mu_i on a partition."""
    return sum(i * x for i, x in enumerate(mu))


def dominates(a, b) -> bool:
    """Dominance comparison: every partial sum of ``a`` weakly exceeds ``b``'s.

    Both vectors must have the same total; comparing vectors of different
    sizes is a programming error, not a False.
    """
    a, b = tuple(a), tuple(b)
    if sum(a) != sum(b):
        raise ValueError(f"dominance needs equal totals: {a} vs {b}")
    n = max(len(a), len(b))
    sa = sb = 0
    for i in range(n):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def rho(n: int) -> Vec:
    """The staircase weight (n-1, n-2, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


def vec_add(a, b) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# permutations (one-line notation)


def perm_sign(w) -> int:
    """(-1) to the number of pairs of entries out of increasing order."""
    return -1 if sum(x > y for x, y in itertools.combinations(w, 2)) % 2 else 1


def all_permutations(n: int):
    return itertools.permutations(range(1, n + 1))


@cache
def reduced_word(w: Vec) -> Vec:
    """A reduced decomposition of ``w`` into simple reflections.

    Returns indices (i_1, ..., i_p) with w = s_{i_1} ... s_{i_p} as a
    composition of functions (s_{i_p} applied first).  Produced by bubble
    sorting the one-line notation, so its length equals the inversion count.
    """
    v = list(w)
    if sorted(v) != list(range(1, len(v) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(v)}")
    swaps = []
    for end in range(len(v) - 1, 0, -1):
        for i in range(end):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                swaps.append(i + 1)
    # sorting multiplied w on the right by s_{a_1}...s_{a_p}, so
    # w = s_{a_p} ... s_{a_1}
    return tuple(reversed(swaps))


def straighten(alpha):
    """Bott straightening of a weight: None when alpha + rho has a repeat,
    else (sign, dominant weight) with alpha + rho sorted and shifted back."""
    down = range(len(alpha) - 1, -1, -1)  # rho
    v = list(map(add, alpha, down))
    s = sorted(v, reverse=True)
    if any(map(eq, s, s[1:])):
        return None
    # the sign of sorting v into decreasing order
    return perm_sign([-x for x in v]), tuple(map(sub, s, down))


# ---------------------------------------------------------------------------
# the block data attached to a pair (eta, gamma)


def block_starts(eta) -> Vec:
    """The 0-based start of each block A_1, .., A_t of 1..n, followed by n."""
    return tuple(itertools.accumulate(eta, initial=0))


def roots_of(eta) -> tuple[tuple[int, int], ...]:
    """Matrix positions (i, j) strictly above the block diagonal of ``eta``, sorted."""
    starts = block_starts(eta)
    return tuple(
        (i, j)
        for a, b in itertools.pairwise(starts)
        for i in range(a + 1, b + 1)
        for j in range(b + 1, starts[-1] + 1)
    )


class RectSequence(namedtuple("RectSequence", "eta gamma")):
    """A sequence of block weights: the slices of ``gamma`` over ``eta``'s blocks.

    ``rects[i]`` keeps exactly ``eta[i]`` parts (trailing zeros included) so
    that the block alphabets stay explicit.
    """

    __slots__ = ()

    def __new__(cls, eta, gamma):
        rs = super().__new__(cls, tuple(eta), tuple(gamma))
        if sum(rs.eta) != len(rs.gamma):
            raise ValueError(f"eta {rs.eta} does not tile gamma {rs.gamma}")
        if any(e <= 0 for e in rs.eta):
            raise ValueError(f"eta parts must be positive: {rs.eta}")
        return rs

    @property
    def n(self) -> int:
        return len(self.gamma)

    @property
    def t(self) -> int:
        return len(self.eta)

    @property
    def rects(self) -> tuple[Vec, ...]:
        return tuple(self.gamma[a:b] for a, b in itertools.pairwise(block_starts(self.eta)))

    def tail(self) -> "RectSequence":
        """The sequence with the first block removed (alphabet relabelled)."""
        return RectSequence._make((self.eta[1:], self.gamma[self.eta[0]:]))

    def is_dominant(self) -> bool:
        return is_weakly_decreasing(self.gamma)


def rect_sequence(eta, gamma) -> RectSequence:
    """Slice the weight ``gamma`` into blocks of sizes ``eta``."""
    return RectSequence(tuple(eta), tuple(gamma))


def from_rects(rects) -> RectSequence:
    """Build a RectSequence from an explicit list of block weights."""
    rects = [tuple(r) if r else (0,) for r in rects]
    return RectSequence._make((tuple(map(len, rects)), tuple(itertools.chain(*rects))))


def box_complement(lam, rseq: RectSequence):
    """Complement ``lam`` and every block inside boxes of the least width.

    That width is the largest entry of ``lam`` and ``gamma``; ``lam`` is
    complemented in the n x width box and rotated; block i in its
    eta_i x width box; the block order is reversed.  Reversing the blocks
    and each block's entries reverses gamma, so gamma is complemented whole.
    """
    lam = pad(lam, rseq.n)
    size = max((*lam, *rseq.gamma), default=0)

    def flip(v):
        return tuple(size - x for x in reversed(v))

    return flip(lam), RectSequence._make((rseq.eta[::-1], flip(rseq.gamma)))


# ---------------------------------------------------------------------------
# enumeration helpers


def partitions(n: int, max_len: int | None = None):
    """All partitions of ``n`` (trimmed form), optionally in at most ``max_len`` parts."""
    return partitions_containing((), n, n if max_len is None else max_len)


def partitions_upto(n: int, max_len: int | None = None):
    """All partitions of every size 0..n."""
    for s in range(n + 1):
        yield from partitions(s, max_len)


@cache
def compositions(n: int):
    """All compositions of ``n`` into positive parts."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


@cache
def partitions_containing(beta, size: int, max_len: int, within=None) -> tuple[Vec, ...]:
    """Partitions of ``size`` in <= ``max_len`` parts between ``beta`` and
    ``within`` (if given), trimmed, in decreasing lexicographic order."""
    beta = trim(beta)
    if len(beta) > max_len:
        return ()
    lows = pad(beta, max_len)
    caps = (size,) * max_len if within is None else pad(within[:max_len], max_len)
    out, parts = [], []

    def walk(i, remaining, prev):
        if not remaining and i >= len(beta):
            out.append(tuple(parts))
            return
        if i == max_len:
            return
        # the lower bound keeps beta inside, the upper keeps it a partition
        for x in range(min(prev, remaining, caps[i]), lows[i] - 1, -1):
            if remaining - x > (max_len - i - 1) * x:
                break  # the later parts cannot hold the rest, nor for any smaller x
            parts.append(x)
            walk(i + 1, remaining - x, x)
            parts.pop()

    walk(0, size, size)
    return tuple(out)
