"""Crystal reflection/raising/lowering operators on words and tableaux.

For a letter r, every r in a word is read as a right parenthesis and every
r+1 as a left parenthesis; after the usual matching, the unpaired letters
form a subword r^p (r+1)^q.  The operators rewrite that unpaired subword in
place: reflection -> r^q (r+1)^p, raising -> r^{p+1} (r+1)^{q-1},
lowering -> r^{p-1} (r+1)^{q+1}.
"""

from __future__ import annotations

from typing import NamedTuple

from .shapes import pad, reduced_word
from .tableaux import Tableau, Word, content


class RPairing(NamedTuple):
    """Parenthesis matching data for one letter r (positions are 0-based)."""

    r: int
    paired: tuple[tuple[int, int], ...]  # (position of r+1, position of r)
    unpaired_low: tuple[int, ...]        # unpaired r's, left to right
    unpaired_high: tuple[int, ...]       # unpaired r+1's, left to right


def _match(w, r: int, paired=None, s=None) -> tuple[list[int], list[int]]:
    """Unpaired positions of r and s (r+1 if not given); pairs go to ``paired``."""
    if r < 1:
        raise ValueError("r must be a positive letter")
    s = r + 1 if s is None else s
    low, high = [], []
    for pos, x in enumerate(w):
        if x == s:
            high.append(pos)
        elif x == r:
            if not high:
                low.append(pos)
            elif paired is None:
                high.pop()
            else:
                paired.append((high.pop(), pos))
    return low, high


def r_pairing(w, r: int) -> RPairing:
    """Stack-match the letters r (right parens) and r+1 (left parens)."""
    paired: list[tuple[int, int]] = []
    low, high = _match(w, r, paired)
    return RPairing(r, tuple(paired), tuple(low), tuple(high))


def _reflect(out: list, r: int, s: int) -> None:
    """Reflect ``out`` in place at letters r, s, writing only the |p - q| changed cells."""
    low, high = _match(out, r, s=s)
    p, q = len(low), len(high)
    for pos in low[q:] if p > q else high[:q - p]:
        out[pos] = s if p > q else r


def reflection(w, r: int) -> Word:
    """The involution swapping the numbers of r's and (r+1)'s."""
    out = list(w)
    _reflect(out, r, r + 1)
    return tuple(out)


def raising(w, r: int):
    """Turn the leftmost unpaired r+1 into an r; None when impossible."""
    out = list(w)
    if high := _match(out, r)[1]:
        out[high[0]] = r
    return tuple(out) if high else None


def lowering(w, r: int):
    """Turn the rightmost unpaired r into an r+1; None when impossible."""
    out = list(w)
    if low := _match(out, r)[0]:
        out[low[-1]] = r + 1
    return tuple(out) if low else None


def plactic_act(w_perm, u) -> Word:
    """Act by a permutation through its reduced decomposition of reflections.

    Well defined because the reflections satisfy the Moore-Coxeter relations;
    the bubble-sort decomposition used here is one convenient choice.
    """
    out = list(u)
    for r in reversed(reduced_word(tuple(w_perm))):
        _reflect(out, r, r + 1)
    return tuple(out)


def _permute(out: list, lab: list, c: list, target) -> None:
    """Move the labelled word ``out`` (its letter lab[r] reads r) from content c to
    ``target`` in place; a reflection with no r or no r+1 only swaps two labels."""
    for i, x in enumerate(target):
        for r in range(c.index(x, i), i, -1):
            if c[r - 1] and c[r]:
                _reflect(out, lab[r], lab[r + 1])
            else:
                lab[r], lab[r + 1] = lab[r + 1], lab[r]
            c[r - 1], c[r] = c[r], c[r - 1]


def _read(out: list, lab: list) -> Word:
    """The word a labelled word reads: its letter lab[r] reads r."""
    if lab == sorted(lab):  # no label moved
        return tuple(out)
    read = sorted(range(len(lab)), key=lab.__getitem__)  # the inverse labels
    return tuple(map(read.__getitem__, out))


def _rearrange(w, c, target) -> Word:
    """The word of content ``target`` in the plactic orbit of w, whose content
    is ``c``, each count moved forward by adjacent reflections.  Any permutation
    taking c to ``target`` gives it: Stab(c) = u Stab(c+) u^-1 for c+ = u^-1 c
    sorted, whose generators s_r (c+_r = c+_{r+1}, so p = q) fix u^-1 w; so
    Stab(c) fixes w."""
    c = list(pad(c, len(target)))
    if sorted(c) != sorted(target):
        raise ValueError(f"{tuple(target)} is not a rearrangement of {tuple(c)}")
    out, lab = list(w), list(range(len(c) + 1))
    _permute(out, lab, c, target)
    return _read(out, lab)


def sort_to_partition_content(u) -> Word:
    """Act by the shortest permutation that sorts the content into a partition."""
    c = content(u)
    return _rearrange(u, c, sorted(c, reverse=True))


def refill(t: Tableau, w) -> Tableau:
    """Rebuild a tableau of t's shape from a reading word."""
    w = tuple(w)
    rows = []
    pos = len(w)
    for r in t.rows:
        rows.append(w[pos - len(r):pos])
        pos -= len(r)
    out = Tableau._make((tuple(rows), t.inner))
    if pos or not out.is_column_strict():
        raise ValueError("word does not fill the shape column-strictly")
    return out


# ---------------------------------------------------------------------------
# lattice words


def is_mu_lattice(w, mu) -> bool:
    """True when mu plus the content of every final subword is a partition."""
    return lattice_violation(w, mu) is None


def _rightmost_failure(w: Word, mu) -> tuple[int, int] | None:
    """(position, r) of the rightmost letter r+1 where mu-latticeness fails."""
    counts = dict(enumerate(mu, 1))  # mu plus the content of the suffix read
    for pos in range(len(w) - 1, -1, -1):
        x = w[pos]
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts[x] > counts.get(x - 1, 0):
            return pos, x - 1
    return None


def lattice_violation(w, mu=()) -> int | None:
    """Letter r such that the rightmost lattice failure of ``w`` is at r+1."""
    found = _rightmost_failure(tuple(w), mu)
    return None if found is None else found[1]


def lattice_involution(w, mu=()) -> Word:
    """The pairing on non-mu-lattice words: s_r e_r^{mu_r - mu_{r+1} + 1}.

    Here mu is a partition, r+1 the rightmost letter where mu-latticeness
    fails.  Applying the map twice gives the original word back."""
    w = tuple(w)
    if (found := _rightmost_failure(w, mu)) is None:
        raise ValueError(f"{w} is already lattice for mu={mu}")
    return _involute_at(w, *found)


def _involute_at(w: Word, pos: int, r: int) -> Word:
    # w[pos:] is the first suffix with k = mu_r - mu_{r+1} + 1 more (r+1)'s than r's,
    # and a word has as many unpaired (r+1)'s as a suffix's largest such excess: the
    # k raisings never run out.  The suffix opens with an unpaired r+1, so its unpaired
    # letters are k (r+1)'s; r^(q-k) (r+1)^(p+k) keeps them and reflects the prefix.
    return reflection(w[:pos], r) + w[pos:]
