"""Words, skew column-strict tableaux, and the column-insertion RSK machinery.

A word is a tuple of positive integers.  A tableau stores its inner shape and
the filled cells row by row; straight tableaux have an empty inner shape.
Row reading is bottom-to-top, each row left-to-right.  All objects are
immutable.

Insertion conventions (validated against the Knuth-class oracle in the test
suite): row insertion bumps the leftmost entry strictly greater than x;
column insertion bumps the topmost entry weakly greater than x.  Both are
one bumping rule over lines, the rows or the columns of the tableau, with
the strict and the weak bisection swapped; so are their inverses.  P(u) is
computed by row-inserting u left to right, which agrees with column-inserting
u right to left.  Column RSK inserts into a buffer of columns and records Q
row by row, since the two tableaux share one shape.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cache
from itertools import chain
from operator import le, lt

from .shapes import Vec, is_partition, is_weakly_decreasing, partitions, trim

Word = tuple[int, ...]


class Tableau(namedtuple("Tableau", "rows inner")):
    """A (possibly skew) tableau: the filled cells per row plus the inner shape."""

    __slots__ = ()

    def __new__(cls, rows, inner=()):
        rows = tuple(tuple(r) for r in rows)
        inner = trim(inner)
        # drop trailing rows that carry neither cells nor inner boxes
        while rows and not rows[-1] and len(inner) < len(rows):
            rows = rows[:-1]
        if len(inner) > len(rows):
            raise ValueError(f"inner shape {inner} taller than rows {rows}")
        t = super().__new__(cls, rows, inner)
        outer = t.outer
        if not is_weakly_decreasing(outer) or not is_partition(inner):
            raise ValueError(f"not a skew shape: {outer}/{inner}")
        return t

    @property
    def outer(self) -> Vec:
        if not self.inner:
            return tuple(map(len, self.rows))
        return tuple(self.inner_at(i) + len(r) for i, r in enumerate(self.rows))

    def inner_at(self, i: int) -> int:
        return self.inner[i] if i < len(self.inner) else 0

    def padded(self) -> list[list]:
        """Each row as a list of its columns, led by one None per inner box."""
        return [[None] * self.inner_at(i) + list(r) for i, r in enumerate(self.rows)]

    @property
    def size(self) -> int:
        return sum(map(len, self.rows))

    def __bool__(self):
        # a tableau is true when it has cells, not as a 2-tuple is
        return self.size > 0

    def __repr__(self):
        if self.inner:
            return f"Tableau({list(map(list, self.rows))}, inner={list(self.inner)})"
        return f"Tableau({list(map(list, self.rows))})"

    def word(self) -> Word:
        """Row-reading word: rows bottom to top, each left to right."""
        return tuple(chain.from_iterable(reversed(self.rows)))

    def content(self) -> Vec:
        return content(self.word())

    def is_column_strict(self) -> bool:
        """Rows weakly increase; columns strictly increase where rows overlap."""
        if not self.inner:
            rows = self.rows
            return all(all(map(le, r, r[1:])) for r in rows) and all(
                all(map(lt, above, r)) for above, r in zip(rows, rows[1:])
            )
        # an inner box lies only above inner boxes, since the inner shape is a partition
        grid = self.padded()
        return all(all(map(le, r, r[1:])) for r in self.rows) and all(
            all(a is None or a < x for a, x in zip(above, r)) for above, r in zip(grid, grid[1:])
        )

    def is_standard(self) -> bool:
        return (
            not self.inner
            and self.is_column_strict()
            and sorted(self.word()) == list(range(1, self.size + 1))
        )

    def relabel(self, offset: int) -> "Tableau":
        return Tableau._make((tuple(tuple(x + offset for x in r) for r in self.rows), self.inner))

    def corners(self):
        """Removable cells of a straight tableau, top row first (0-based)."""
        outer = self.outer
        out = []
        for i, x in enumerate(outer):
            if x and (i + 1 == len(outer) or outer[i + 1] < x):
                out.append((i, x - 1))
        return out


def tab(*rows) -> Tableau:
    """Shorthand constructor for straight tableaux in tests and fixtures."""
    return Tableau(rows)


EMPTY = Tableau([])


def content(w) -> Vec:
    """Letter multiplicities (c_1, c_2, ...) up to the largest letter."""
    w = tuple(w)
    if not w:
        return ()
    counts = [0] * max(w)
    for x in w:
        if x < 1:
            raise ValueError(f"letters must be positive: {w}")
        counts[x - 1] += 1
    return tuple(counts)


def is_weakly_increasing_word(w) -> bool:
    return all(map(le, w, w[1:]))


# ---------------------------------------------------------------------------
# insertion primitives.  One bumping rule over the lines of a list-of-lists
# buffer of partition shape that stays a column-strict tableau: its rows for
# row insertion (``find`` = bisect_right), its columns for column insertion
# (``find`` = bisect_left).


def _insert(lines, x, find):
    """Insert x, bumping ``line[find(line, x)]`` into the next line; returns
    the (line, position) cell where the bumping ends."""
    i = 0
    for line in lines:
        j = find(line, x)
        if j == len(line):
            line.append(x)
            return (i, j)
        line[j], x = x, line[j]
        i += 1
    lines.append([x])
    return (i, 0)


def _uninsert(lines, cell, find):
    """Undo the insertion that ended at ``cell``; returns the letter.

    ``find`` is the other bisection (bisect_left to undo a row insertion,
    bisect_right for a column insertion): the bump came from the entry just
    before ``find(line, x)``.
    """
    i, j = cell
    if (not 0 <= i < len(lines) or j != len(lines[i]) - 1
            or (i + 1 < len(lines) and len(lines[i + 1]) > j)):
        raise ValueError(f"{cell} is not a removable cell")
    x = lines[i].pop()
    if not lines[i]:
        lines.pop()
    for line in reversed(lines[:i]):
        p = find(line, x) - 1
        line[p], x = x, line[p]
    return x


def _transpose(lines):
    """Rows to columns (or back) of a partition-shaped buffer, as new lists."""
    out = [[] for _ in range(len(lines[0]) if lines else 0)]
    for line in lines:
        for col, x in zip(out, line):
            col.append(x)
    return out


def schensted_p(w) -> Tableau:
    """The unique straight column-strict tableau Knuth-equivalent to ``w``."""
    rows: list[list[int]] = []
    for x in w:
        _insert(rows, x, bisect_right)
    return Tableau._make((tuple(map(tuple, rows)), ()))


# ---------------------------------------------------------------------------
# column RSK for sequences of weakly increasing words


def column_rsk(words):
    """Column-insertion RSK of a sequence of weakly increasing words.

    Word i is column-inserted (right end first) after words 1..i-1 and its
    cells are recorded in Q with the letter i, so the content of Q lists the
    word lengths.  Returns the pair (P, Q).
    """
    cols: list[list[int]] = []
    q_rows: list[list[int]] = []
    for lab, w in enumerate(map(tuple, words), 1):
        if not is_weakly_increasing_word(w):
            raise ValueError(f"word {w} is not weakly increasing")
        for x in reversed(w):
            # P and Q share one shape, so the new cell ends row i of Q too
            _, i = _insert(cols, x, bisect_left)
            if i == len(q_rows):
                q_rows.append([])
            q_rows[i].append(lab)
    # Q is column strict: a word's letters arrive weakly decreasing, so by the column
    # bumping lemma (Fulton, Young Tableaux, 1997) each new cell lies strictly right of
    # and weakly above the one before, and no label meets a column twice
    return tuple(Tableau._make((tuple(map(tuple, lines)), ()))
                 for lines in (_transpose(cols), q_rows))


def column_rsk_inverse(p: Tableau, q: Tableau, labels=None):
    """Invert column RSK; returns the list of weakly increasing words.

    ``labels`` must list the recording letters in insertion order (default
    1..max letter of Q).  Raises ValueError on a malformed pair.
    """
    if p.inner or q.inner or p.outer != q.outer:
        raise ValueError("P and Q must be straight tableaux of equal shape")
    if not (p.is_column_strict() and q.is_column_strict()):
        raise ValueError("P and Q must be column strict")
    # each label's (column, row) cells, top row first and each row right to left,
    # come in strictly decreasing columns: were label l at (i, j) and (i' > i, j' >= j),
    # row i would reach column j' (straight shapes), and l = Q[i][j] <= Q[i][j'] < Q[i'][j'] = l
    strips: dict[int, list] = {}
    for i, r in enumerate(q.rows):
        for j in range(len(r) - 1, -1, -1):
            strips.setdefault(r[j], []).append((j, i))
    if labels is None:
        labels = range(1, max(strips, default=0) + 1)
    cols = _transpose(p.rows)
    words = []
    for lab in reversed(labels):
        cells = strips.pop(lab, ())
        words.append(tuple(_uninsert(cols, cell, bisect_right) for cell in cells))
    if strips or cols:
        raise ValueError("recording labels do not exhaust Q")
    # every word is weakly increasing, for any label order: a label's cells are
    # uninserted in strictly decreasing columns, and re-inserting two letters it
    # gave, the later one first, rebuilds their two cells; by the column bumping
    # lemma the second cell lies strictly right of the first only when its letter
    # is no larger, so the earlier letter is the smaller one
    words.reverse()
    return words


# ---------------------------------------------------------------------------
# evacuation and slicing operators


def evacuation(t: Tableau, n: int) -> Tableau:
    """Evacuation with respect to the alphabet [1, n]: P of the reversed word,
    each letter x read as n + 1 - x.  Its restriction to [1, i] has the shape
    of P(word(t restricted to [n+1-i, n])), which pins the tableau uniquely,
    and the reversed complement has that chain of restriction shapes."""
    if t.inner:
        raise ValueError("evacuation expects a straight tableau")
    w = t.word()
    if w and max(w) > n:
        raise ValueError(f"letters exceed the alphabet [1, {n}]")
    return schensted_p([n + 1 - x for x in reversed(w)])


def v_slice(t: Tableau, c: int) -> Tableau:
    """Cut between columns c and c+1 and insert the east part before the west."""
    west, east = [], []
    for i in reversed(range(len(t.rows))):  # row reading: bottom row first
        k = max(c - t.inner_at(i), 0)
        west += t.rows[i][:k]
        east += t.rows[i][k:]
    return schensted_p(east + west)


def overlap(v, u) -> int:
    """Length of the second row of P(v u), for weakly increasing v and u."""
    v, u = tuple(v), tuple(u)
    for w in (v, u):
        if not is_weakly_increasing_word(w):
            raise ValueError(f"word {w} is not weakly increasing")
    p = schensted_p(v + u)
    return len(p.rows[1]) if len(p.rows) > 1 else 0


def two_row_tableau(top, bottom) -> Tableau:
    """The two-row skew tableau with the given rows at maximum overlap.

    The bottom row sits at columns 0..len(bottom)-1 and the top row is pushed
    as far left as the outer shape allows, which realizes overlap(bottom, top)
    columns of height two.
    """
    top, bottom = tuple(top), tuple(bottom)
    k = overlap(bottom, top)
    return Tableau([top, bottom], (len(bottom) - k,))


def jdt_slide(t: Tableau, cell) -> Tableau:
    """One inward jeu-de-taquin slide starting at the inner corner ``cell``."""
    i, j = cell
    if not (0 <= i < len(t.rows) and 0 <= j == t.inner_at(i) - 1) or t.inner_at(i + 1) > j:
        raise ValueError(f"{cell} is not an inner corner of {t.outer}/{t.inner}")
    grid = t.padded()
    inner = [t.inner_at(r) for r in range(len(grid))]
    inner[i] -= 1  # the start corner leaves the inner shape
    while True:
        # None marks a missing neighbour: no inner box lies right of or below the hole
        right = grid[i][j + 1] if j + 1 < len(grid[i]) else None
        below = grid[i + 1][j] if i + 1 < len(grid) and j < len(grid[i + 1]) else None
        if right is None and below is None:
            break
        # the smaller neighbour moves into the hole; ties resolve downward
        if right is None or (below is not None and below <= right):
            grid[i][j], i = below, i + 1
        else:
            grid[i][j], j = right, j + 1
    # the hole leaves at the end of its row, an outer corner
    grid[i].pop()
    return Tableau([row[k:] for row, k in zip(grid, inner)], inner)


# ---------------------------------------------------------------------------
# enumeration


@cache
def enumerate_cst(outer, inner, cnt) -> tuple[Tableau, ...]:
    """All column-strict fillings of outer/inner with content ``cnt``.

    The cells are filled in reading order, each with its letters in increasing
    order, so the tableaux come out sorted lexicographically by row-reading
    word, which is the deterministic order relied on elsewhere.
    """
    outer, inner = trim(outer), trim(inner)
    if not (is_partition(outer) and is_partition(inner) and len(inner) <= len(outer)
            and all(map(le, inner, outer))):
        raise ValueError(f"not a skew shape: {outer}/{inner}")
    if sum(outer) - sum(inner) != sum(cnt) or any(x < 0 for x in cnt):
        return ()
    grid = [[None] * b + [0] * (x - b) for x, b in zip(outer, inner + (0,) * len(outer))]
    cells = [(i, j) for i in reversed(range(len(grid)))
             for j, x in enumerate(grid[i]) if x is not None]
    remaining = list(cnt)
    found = []

    def fill(k):
        if k == len(cells):
            found.append(Tableau._make((tuple(tuple(filter(None, r)) for r in grid), inner)))
            return
        i, j = cells[k]
        lo = grid[i][j - 1] if j and grid[i][j - 1] else 1
        hi = grid[i + 1][j] if i + 1 < len(grid) and j < len(grid[i + 1]) else len(cnt) + 1
        for x in range(lo, hi):
            if remaining[x - 1]:
                remaining[x - 1] -= 1
                grid[i][j] = x
                fill(k + 1)
                remaining[x - 1] += 1

    fill(0)
    return tuple(found)


def straight_cst(shape, cnt) -> tuple[Tableau, ...]:
    return enumerate_cst(trim(shape), (), tuple(cnt))


def all_cst_of_content(cnt) -> tuple[Tableau, ...]:
    """Every straight column-strict tableau with the given content."""
    cnt = tuple(cnt)
    out = []
    for shape in partitions(sum(cnt), max_len=len(cnt) if cnt else 1):
        out.extend(straight_cst(shape, cnt))
    return tuple(out)


def standard_tableaux(shape) -> tuple[Tableau, ...]:
    return straight_cst(shape, (1,) * sum(shape))


@cache
def yamanouchi_tableau(shape) -> Tableau:
    """The unique column-strict tableau of shape and content ``shape``."""
    if not is_partition(shape := trim(shape)):
        raise ValueError(f"{shape} is not a partition")
    return Tableau._make((tuple((j,) * x for j, x in enumerate(shape, 1)), ()))
