"""Crystal reflection/raising/lowering operators on words and tableaux.

For a letter r, every r in a word is read as a right parenthesis and every
r+1 as a left parenthesis; after the usual matching, the unpaired letters
form a subword r^p (r+1)^q.  The operators rewrite that unpaired subword in
place: reflection -> r^q (r+1)^p, raising -> r^{p+1} (r+1)^{q-1},
lowering -> r^{p-1} (r+1)^{q+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .shapes import matching_perm, pad, reduced_word, trim
from .tableaux import Tableau, Word, content


@dataclass(frozen=True)
class RPairing:
    """Parenthesis matching data for one letter r (positions are 0-based)."""

    r: int
    paired: tuple[tuple[int, int], ...]  # (position of r+1, position of r)
    unpaired_low: tuple[int, ...]        # unpaired r's, left to right
    unpaired_high: tuple[int, ...]       # unpaired r+1's, left to right


def r_pairing(w, r: int) -> RPairing:
    """Stack-match the letters r (right parens) and r+1 (left parens)."""
    if r < 1:
        raise ValueError("r must be a positive letter")
    stack: list[int] = []
    paired: list[tuple[int, int]] = []
    low: list[int] = []
    for pos, x in enumerate(w):
        if x == r + 1:
            stack.append(pos)
        elif x == r:
            if stack:
                paired.append((stack.pop(), pos))
            else:
                low.append(pos)
    return RPairing(r, tuple(paired), tuple(low), tuple(stack))


def _rewrite(w: Word, pairing: RPairing, a: int) -> Word:
    """Write the unpaired subword of ``w`` as r^a (r+1)^(p+q-a)."""
    out = list(w)
    for k, pos in enumerate(pairing.unpaired_low + pairing.unpaired_high):
        out[pos] = pairing.r if k < a else pairing.r + 1
    return tuple(out)


def reflection(w, r: int) -> Word:
    """The involution swapping the numbers of r's and (r+1)'s."""
    w = tuple(w)
    pr = r_pairing(w, r)
    return _rewrite(w, pr, len(pr.unpaired_high))


def raising(w, r: int):
    """Turn the leftmost unpaired r+1 into an r; None when impossible."""
    w = tuple(w)
    pr = r_pairing(w, r)
    if not pr.unpaired_high:
        return None
    return _rewrite(w, pr, len(pr.unpaired_low) + 1)


def lowering(w, r: int):
    """Turn the rightmost unpaired r into an r+1; None when impossible."""
    w = tuple(w)
    pr = r_pairing(w, r)
    if not pr.unpaired_low:
        return None
    return _rewrite(w, pr, len(pr.unpaired_low) - 1)


def plactic_act(w_perm, u) -> Word:
    """Act by a permutation through its reduced decomposition of reflections.

    Well defined because the reflections satisfy the Moore-Coxeter relations;
    the bubble-sort decomposition used here is one convenient choice.
    """
    u = tuple(u)
    for r in reversed(reduced_word(tuple(w_perm))):
        u = reflection(u, r)
    return u


def sort_to_partition_content(u) -> Word:
    """Act by the shortest permutation that sorts the content into a partition."""
    u = tuple(u)
    alpha = content(u)
    return plactic_act(matching_perm(alpha, sorted(alpha, reverse=True)), u)


def refill(t: Tableau, w) -> Tableau:
    """Rebuild a tableau of t's shape from a reading word."""
    w = tuple(w)
    rows = []
    pos = len(w)
    for r in t.rows:
        rows.append(w[pos - len(r):pos])
        pos -= len(r)
    out = Tableau._of(tuple(rows), t.inner)
    if pos or not out.is_column_strict():
        raise ValueError("word does not fill the shape column-strictly")
    return out


# ---------------------------------------------------------------------------
# lattice words


def is_mu_lattice(w, mu) -> bool:
    """True when mu plus the content of every final subword is a partition."""
    return lattice_violation(w, mu) is None


def is_lattice(w) -> bool:
    return is_mu_lattice(w, ())


def lattice_violation(w, mu=()) -> int | None:
    """Letter r such that the rightmost lattice failure of ``w`` is at r+1."""
    mu = trim(mu)
    counts: dict[int, int] = {}
    for x in reversed(tuple(w)):
        counts[x] = counts.get(x, 0) + 1
        if x == 1:
            continue
        cx = counts[x] + (mu[x - 1] if x - 1 < len(mu) else 0)
        cp = counts.get(x - 1, 0) + (mu[x - 2] if x - 2 < len(mu) else 0)
        if cx > cp:
            return x - 1
    return None


def lattice_involution(w, mu=()) -> Word:
    """The pairing on non-mu-lattice words: s_r e_r^{mu_r - mu_{r+1} + 1}.

    Here r+1 is the rightmost letter where mu-latticeness fails.  Applying
    the map twice gives the original word back.
    """
    w = tuple(w)
    r = lattice_violation(w, mu)
    if r is None:
        raise ValueError(f"{w} is already lattice for mu={mu}")
    mu = pad(mu, max(r + 1, len(mu)))
    k = mu[r - 1] - mu[r] + 1
    # k raisings leave r^(p+k) (r+1)^(q-k) unpaired; the reflection swaps them
    pr = r_pairing(w, r)
    if len(pr.unpaired_high) < k:
        raise RuntimeError("raising ran out of unpaired letters")
    return _rewrite(w, pr, len(pr.unpaired_high) - k)
