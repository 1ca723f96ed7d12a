import itertools
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from operator import gt

import pytest

from qlr.kpoly import kostka_number
from qlr.shapes import partitions, partitions_upto
from qlr.tableaux import (
    EMPTY,
    Tableau,
    _insert,
    _transpose,
    _uninsert,
    column_rsk,
    column_rsk_inverse,
    content,
    enumerate_cst,
    evacuation,
    is_weakly_increasing_word,
    jdt_slide,
    overlap,
    schensted_p,
    straight_cst,
    tab,
    two_row_tableau,
    v_slice,
    yamanouchi_tableau,
)
from qlr.verify import _column_rsk_table, _word_sequences


def knuth_neighbors(w):
    out = []
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        if a <= c < b or b <= c < a:
            out.append(w[:i] + (b, a, c) + w[i + 3:])
        if b < a <= c or c < a <= b:
            out.append(w[:i] + (a, c, b) + w[i + 3:])
    return out


def knuth_class(w):
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for v in knuth_neighbors(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def all_words(alphabet, max_len):
    for ln in range(max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=ln)


def test_reading_word_and_content():
    t = Tableau([[1, 2, 2], [1, 2, 3], [2, 3, 3], [4, 4, 5]], (3, 2))
    assert t.word() == (4, 4, 5, 2, 3, 3, 1, 2, 3, 1, 2, 2)
    assert t.content() == (2, 4, 3, 2, 1)
    assert t.outer == (6, 5, 3, 3)
    assert t.is_column_strict()
    assert not tab([2, 1]).is_column_strict()
    assert tab([1, 1, 2]).word() == (1, 1, 2)
    assert EMPTY.word() == ()
    assert repr(t) == "Tableau([[1, 2, 2], [1, 2, 3], [2, 3, 3], [4, 4, 5]], inner=[3, 2])"
    assert repr(tab([1, 1, 2], [2])) == "Tableau([[1, 1, 2], [2]])"
    assert repr(EMPTY) == "Tableau([])"
    assert content(()) == ()
    assert content((4, 3, 2, 3, 4, 1, 1, 2, 5, 5)) == (2, 2, 2, 2, 2)
    with pytest.raises(ValueError, match="letters must be positive"):
        content((2, 0, 1))


@pytest.mark.parametrize("rows, inner, message", [
    ([[1]], (1, 1), "taller than rows"),
    ([[1], [1, 2]], (), "not a skew shape"),
    ([[1], [2]], (0, 1), "not a skew shape"),
    ([[1], [2]], (0, -1), "not a skew shape"),
])
def test_tableau_rejects_a_shape_that_is_not_skew(rows, inner, message):
    with pytest.raises(ValueError, match=message):
        Tableau(rows, inner)


def grid_of(t):
    """The filled cells of t as a {(row, column): entry} grid."""
    return {
        (i, t.inner_at(i) + j): x for i, r in enumerate(t.rows) for j, x in enumerate(r)
    }


def is_column_strict_by_grid(t):
    """A grid of the filled cells: rows weakly increase, and each filled cell
    exceeds the filled cell above it."""
    grid = {}
    for i, r in enumerate(t.rows):
        base = t.inner_at(i)
        prev = None
        for j, x in enumerate(r):
            if prev is not None and x < prev:
                return False
            prev = x
            grid[(i, base + j)] = x
    return all(grid.get((i - 1, c), x - 1) < x for (i, c), x in grid.items())


def test_is_column_strict_matches_the_grid_reference():
    # every filling with letters 1..3 of every skew shape of at most five
    # cells inside an outer shape of size <= 6, passing and failing alike
    verdicts = Counter()
    for size in range(7):
        for outer in partitions(size):
            for inner_size in range(max(size - 5, 0), size + 1):
                for inner in partitions(inner_size, max_len=len(outer)):
                    if any(a > b for a, b in zip(inner, outer)):
                        continue
                    lengths = [o - (inner[i] if i < len(inner) else 0)
                               for i, o in enumerate(outer)]
                    for letters in itertools.product((1, 2, 3), repeat=sum(lengths)):
                        it = iter(letters)
                        t = Tableau([[next(it) for _ in range(k)] for k in lengths], inner)
                        verdict = t.is_column_strict()
                        assert verdict == is_column_strict_by_grid(t), t
                        verdicts[verdict] += 1
                        grid = grid_of(t)
                        assert t.size == len(grid)
                        assert t.word() == tuple(
                            grid[cell] for cell in sorted(grid, key=lambda c: (-c[0], c[1]))
                        )
                        assert t.outer == outer == tuple(
                            max((c + 1 for i2, c in grid if i2 == i), default=t.inner_at(i))
                            for i in range(len(t.rows))
                        )
    assert verdicts[True] and verdicts[False]


def test_schensted_examples():
    assert schensted_p((2, 1, 1)) == tab([1, 1], [2])
    assert schensted_p((4, 3, 5, 3)) == tab([3, 3], [4, 5])
    assert schensted_p(()) == EMPTY


def test_schensted_word_is_knuth_equivalent():
    for w in all_words(3, 7):
        p = schensted_p(w)
        assert p.is_column_strict()
        assert p.word() in knuth_class(w)


def schensted_p_by_columns(w) -> Tableau:
    """Same tableau as ``schensted_p``, built by column insertion."""
    cols: list[list[int]] = []
    for x in reversed(tuple(w)):
        _insert(cols, x, bisect_left)
    return Tableau(_transpose(cols))


def test_row_and_column_insertion_agree():
    for w in all_words(4, 6):
        assert schensted_p(w) == schensted_p_by_columns(w)


def test_single_knuth_moves_leave_p_fixed():
    for w in all_words(4, 6):
        p = schensted_p(w)
        for v in knuth_neighbors(w):
            assert schensted_p(v) == p


def test_schensted_fixed_on_tableau_words():
    for n in range(7):
        for shape in partitions(n):
            for cnt in itertools.product(range(n + 1), repeat=min(n, 3)):
                if sum(cnt) != n:
                    continue
                for t in straight_cst(shape, cnt):
                    assert schensted_p(t.word()) == t


def test_reverse_insertions_invert_insertions():
    # (insert's bisection, uninsert's bisection): rows, then columns
    for find, back in ((bisect_right, bisect_left), (bisect_left, bisect_right)):
        for w in all_words(3, 6):
            lines = []
            for x in w:
                before = [list(r) for r in lines]
                cell = _insert(lines, x, find)
                undo = [list(r) for r in lines]
                assert _uninsert(undo, cell, back) == x
                assert undo == before


def test_knuth_equivalent():
    assert schensted_p((1, 3, 2)) == schensted_p((3, 1, 2))
    assert schensted_p((1, 2)) != schensted_p((2, 1))
    assert schensted_p((2, 1, 1)) == schensted_p((2, 1, 1))


def test_column_rsk_single_word():
    p, q = column_rsk([(1, 2, 3)])
    assert p == tab([1, 2, 3])
    assert q == tab([1, 1, 1])


def test_column_rsk_rejects_decreasing_words():
    with pytest.raises(ValueError):
        column_rsk([(2, 1)])


def test_column_rsk_content():
    words = [(1, 1), (2,), (1, 2, 2)]
    p, q = column_rsk(words)
    assert q.content() == (2, 1, 3)
    assert p.content() == content(tuple(itertools.chain(*words)))


def word_sequences(alphabet, max_words, total):
    singles = [()]
    for ln in range(1, total + 1):
        singles.extend(
            itertools.combinations_with_replacement(range(1, alphabet + 1), ln)
        )
    for k in range(1, max_words + 1):
        for combo in itertools.product(singles, repeat=k):
            if sum(len(w) for w in combo) <= total:
                yield list(combo)


def column_insert_by_rows(rows, x):
    """Column-insert x into a row buffer; returns the (row, col) end cell."""
    c = 0
    while True:
        height = sum(1 for r in rows if len(r) > c)
        col = [rows[i][c] for i in range(height)]
        i = bisect_left(col, x)
        if i == len(col):
            if i == len(rows):
                rows.append([x])
            else:
                rows[i].append(x)
            return (i, c)
        rows[i][c], x = x, rows[i][c]
        c += 1


def column_rsk_by_rows(words):
    """Reference column RSK: a row buffer, Q recorded after each word."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for lab, w in enumerate(map(tuple, words), 1):
        for x in reversed(w):
            column_insert_by_rows(p_rows, x)
        for i, r in enumerate(p_rows):
            if i == len(q_rows):
                q_rows.append([])
            q_rows[i].extend([lab] * (len(r) - len(q_rows[i])))
    return Tableau(p_rows), Tableau(q_rows)


def test_column_rsk_matches_the_row_buffer_reference():
    seqs = list(_word_sequences(6, 3))
    assert len(seqs) == 6013
    for words in seqs:
        assert column_rsk(words) == column_rsk_by_rows(words)


def test_column_rsk_records_a_column_strict_q():
    # column_rsk keeps no closing check on Q: the column bumping lemma makes Q column strict
    table = _column_rsk_table(6, 3)
    assert len(table) == 6013
    for words, (_, q) in table.items():
        assert q.is_column_strict(), words


def test_column_rsk_roundtrip():
    for words in word_sequences(3, 3, 5):
        p, q = column_rsk(words)
        back = column_rsk_inverse(p, q, labels=list(range(1, len(words) + 1)))
        assert back == [tuple(w) for w in words]


def small_straight_cst_by_shape():
    """The straight CSTs of each shape of size <= 5 with letters <= 3: as many
    pairs of one shape as the 3x3 matrices over N with entries summing to <= 5."""
    for size in range(6):
        for shape in partitions(size, max_len=3):
            yield [
                t
                for cnt in itertools.product(range(size + 1), repeat=3)
                if sum(cnt) == size
                for t in straight_cst(shape, cnt)
            ]


def test_column_rsk_inverse_inverts_every_pair():
    pairs = 0
    for tableaux in small_straight_cst_by_shape():
        for p, q in itertools.product(tableaux, repeat=2):
            assert column_rsk(column_rsk_inverse(p, q)) == (p, q)
            pairs += 1
    assert pairs == 2002


def test_column_rsk_inverse_reads_each_label_in_decreasing_columns():
    # the claim column_rsk_inverse relies on in place of a horizontal-strip check: in a
    # column-strict straight Q, read top row first and each row right to left,
    # each label's cells come in strictly decreasing columns; checked on the Q
    # of every pair of straight CSTs of one shape, size <= 5, letters <= 3
    pairs = 0
    for tableaux in small_straight_cst_by_shape():
        for q in tableaux:
            for label in (1, 2, 3):
                cols = [j for r in q.rows for j in reversed(range(len(r))) if r[j] == label]
                assert all(a > b for a, b in zip(cols, cols[1:])), (q, label)
        pairs += len(tableaux) ** 2
    assert pairs == 2002


def test_column_rsk_inverse_gives_weakly_increasing_words_for_any_label_order():
    # the claim that replaced the decreasing-word check: whatever order the labels
    # are uninserted in, every word comes out weakly increasing, and column RSK of
    # the words gives back P, and Q with its labels in that order
    kept = reordered = 0
    for words in _word_sequences(4, 3):
        p, q = column_rsk(words)
        for order in itertools.permutations(range(1, len(words) + 1)):
            try:
                out = column_rsk_inverse(p, q, labels=order)
            except ValueError:
                continue
            assert all(map(is_weakly_increasing_word, out)), (words, order)
            p2, q2 = column_rsk(out)
            assert p2 == p, (words, order)
            assert tuple(tuple(order[x - 1] for x in r) for r in q2.rows) == q.rows, (words, order)
            kept += 1
            reordered += list(order) != sorted(order)
    assert (kept, reordered) == (2466, 1506)


def test_column_rsk_roundtrip_on_seeded_long_sequences():
    # past the exhaustive ranges: 4-8 words, letters <= 8, length <= 20
    rng = random.Random(20)
    for _ in range(200):
        k, total = rng.randint(4, 8), rng.randint(0, 20)
        cuts = [0, *sorted(rng.randint(0, total) for _ in range(k - 1)), total]
        words = [
            tuple(sorted(rng.randint(1, 8) for _ in range(b - a)))
            for a, b in zip(cuts, cuts[1:])
        ]
        p, q = column_rsk(words)
        assert (p, q) == column_rsk_by_rows(words)
        labels = list(range(1, k + 1))
        assert column_rsk_inverse(p, q, labels=labels) == words
        assert column_rsk(column_rsk_inverse(p, q, labels=labels)) == (p, q)


def test_column_rsk_inverse_rejects_malformed_pairs():
    p, q = column_rsk([(1,), (2,)])
    shapes, strict = "straight tableaux of equal shape", "must be column strict"
    for pair, labels, message in (
        ((tab([1, 2]), tab([1], [2])), None, shapes),  # unequal shapes
        ((Tableau([[1]], [1]), tab([1, 2])), None, shapes),  # skew P
        ((tab([1, 2]), Tableau([[1]], [1])), None, shapes),  # skew Q
        ((tab([1], [1]), tab([1], [2])), None, strict),  # P not column strict
        ((tab([1], [2]), tab([1], [1])), None, strict),  # Q not column strict
        # label 1 sits at (0, 0), which is not removable while label 2 is in
        ((p, q), [1], r"\(0, 0\) is not a removable cell"),
        ((p, q), [2, 1], r"\(0, 0\) is not a removable cell"),
        # label 1 is never read, so its cell and P's first letter are left over
        ((p, q), [2], "recording labels do not exhaust Q"),
    ):
        with pytest.raises(ValueError, match=message):
            column_rsk_inverse(*pair, labels=labels)


def test_evacuation_examples():
    assert evacuation(tab([1, 2], [3]), 3) == tab([1, 3], [2])
    assert evacuation(tab([1, 1, 2]), 2) == tab([1, 2, 2])
    with pytest.raises(ValueError, match="expects a straight tableau"):
        evacuation(Tableau([[1], [1]], (1,)), 1)
    with pytest.raises(ValueError, match="exceed the alphabet"):
        evacuation(tab([1, 3]), 2)


def evacuation_by_shapes(t, n):
    """Evacuation read off its chain of restriction shapes: the restriction to
    [1, i] has the shape of P(word(t restricted to [n+1-i, n]))."""
    w = t.word()
    shapes = [()] + [schensted_p([x for x in w if x > n - i]).outer for i in range(1, n + 1)]
    rows = [[] for _ in shapes[-1]]
    for i in range(1, n + 1):
        for r, ln in enumerate(shapes[i]):
            rows[r] += [i] * (ln - (shapes[i - 1][r] if r < len(shapes[i - 1]) else 0))
    return tab(*rows)


def test_evacuation_involution():
    visited = 0
    for n, size in itertools.product(range(6), range(8)):
        padded = lambda u: (u.content() + (0,) * n)[:n]
        for cnt in itertools.product(range(size + 1), repeat=n):
            if sum(cnt) != size:
                continue
            for shape in partitions(size, max_len=n):
                for t in straight_cst(shape, cnt):
                    e = evacuation(t, n)
                    assert e == evacuation_by_shapes(t, n)
                    assert e.outer == t.outer
                    assert padded(e) == tuple(reversed(padded(t)))
                    assert evacuation(e, n) == t
                    visited += 1
    assert visited == 10340


def cut_word(t, keep):
    """Row-reading word of the (row, col) cells of t that ``keep`` selects."""
    return tuple(x for i in reversed(range(len(t.rows)))
                 for j, x in enumerate(t.rows[i], t.inner_at(i)) if keep((i, j)))


def h_slice(t, r):
    """H_r by words: cut between rows r and r+1 and insert the north part
    before the south; the reference for the row stepper ``_cat_step``."""
    w = t.word()
    k = sum(map(len, t.rows[max(r, 0):]))  # the south part leads the word
    return schensted_p(w[k:] + w[:k])


SKEW_SLICE_INPUTS = [
    t
    for outer, inner, cnt in (
        ((3, 2, 1), (), (1, 1, 1, 1, 1, 1)),
        ((4, 3, 1), (2, 1), (2, 1, 1, 1)),
        ((3, 3, 2), (3, 1), (1, 1, 1, 1)),
        ((4, 2, 2, 1), (3, 2), (2, 2)),
    )
    for t in enumerate_cst(outer, inner, cnt)
]


def test_h_slice():
    s = tab([1, 2, 3, 4, 7], [5, 6, 9], [8])
    assert h_slice(s, 1) == tab([1, 2, 3, 4, 5, 6, 9], [7, 8])
    assert h_slice(s, 0) == schensted_p(s.word())
    assert h_slice(s, 5) == schensted_p(s.word())
    # skew inputs at every cut, before, inside and past the rows
    for t in SKEW_SLICE_INPUTS:
        for r in range(-1, len(t.rows) + 2):
            north = cut_word(t, lambda cell: cell[0] < r)
            south = cut_word(t, lambda cell: cell[0] >= r)
            assert h_slice(t, r) == schensted_p(north + south), (t, r)


def test_v_slice():
    s = tab([1, 2, 3], [4, 5], [6])
    assert v_slice(s, 0) == schensted_p(s.word())
    assert v_slice(s, 7) == schensted_p(s.word())
    # slicing in the middle still lands in the same Knuth class union
    for c in range(4):
        out = v_slice(s, c)
        assert out.is_column_strict()
        assert sorted(out.word()) == sorted(s.word())
    # skew inputs at every cut, before, inside and past the columns
    for t in SKEW_SLICE_INPUTS:
        for c in range(-1, t.outer[0] + 2):
            west = cut_word(t, lambda cell: cell[1] < c)
            east = cut_word(t, lambda cell: cell[1] >= c)
            assert v_slice(t, c) == schensted_p(east + west), (t, c)


def test_overlap():
    assert overlap((2,), (1, 2)) == 1
    assert overlap((), (1, 1)) == 0
    with pytest.raises(ValueError):
        overlap((2, 1), (1,))


def test_overlap_knuth_invariance():
    pairs = [((2, 3), (1, 1)), ((1, 2), (1, 2)), ((2, 2), (1, 2, 3))]
    for v, u in pairs:
        k = overlap(v, u)
        for w in knuth_class(v + u):
            assert len(schensted_p(w).outer) < 2 or schensted_p(w).outer[1] == k


def test_two_row_tableau():
    t = two_row_tableau((2, 2, 2, 5, 6), (3, 3, 3, 5, 6, 7, 7, 7))
    assert t == Tableau([[2, 2, 2, 5, 6], [3, 3, 3, 5, 6, 7, 7, 7]], (3,))
    assert t.is_column_strict()
    assert two_row_tableau((1, 2), ()) == Tableau([(1, 2)])


def test_jdt_slide_preserves_class():
    t = Tableau([[2, 3], [1, 3], [2]], (2, 1))
    slid = jdt_slide(t, (0, 1))
    assert slid.is_column_strict()
    assert schensted_p(slid.word()) == schensted_p(t.word())
    with pytest.raises(ValueError):
        jdt_slide(t, (2, 0))
    # a cell left of column 0, or below the rows
    for t, cell in ((tab([1, 2]), (0, -1)), (tab([1, 2], [3]), (5, -1))):
        with pytest.raises(ValueError, match="is not an inner corner"):
            jdt_slide(t, cell)


def jdt_slide_reference(t, cell):
    """The slide on a {(row, column): entry} grid, the rows read back off it."""
    grid, (i, j) = grid_of(t), cell
    while True:
        right, below = grid.get((i, j + 1)), grid.get((i + 1, j))
        if right is None and below is None:
            break
        if right is None or (below is not None and below <= right):
            grid[i, j], i = below, i + 1
        else:
            grid[i, j], j = right, j + 1
        del grid[i, j]
    inner = [t.inner_at(r) for r in range(len(t.rows))]
    inner[cell[0]] -= 1
    rows = [[grid[r, c] for c in sorted(c for r2, c in grid if r2 == r)] for r in range(len(inner))]
    return Tableau(rows, inner)


def inner_corners(t):
    out = []
    for i in range(len(t.rows)):
        j = t.inner_at(i) - 1
        if j < 0:
            continue
        if i + 1 < len(t.rows) and t.inner_at(i + 1) > j:
            continue
        out.append((i, j))
    return out


def test_jdt_slides_exhaustively_small():
    # every inward slide of a small skew tableau keeps the Knuth class
    for outer in partitions(5):
        for inner in partitions(2):
            if len(inner) > len(outer) or any(
                inner[i] > outer[i] for i in range(len(inner))
            ):
                continue
            size = sum(outer) - sum(inner)
            for cnt in itertools.product(range(size + 1), repeat=3):
                if sum(cnt) != size:
                    continue
                for t in enumerate_cst(outer, inner, cnt):
                    for cell in inner_corners(t):
                        slid = jdt_slide(t, cell)
                        assert slid == jdt_slide_reference(t, cell)
                        assert slid.size == t.size
                        assert slid.is_column_strict()
                        assert schensted_p(slid.word()) == schensted_p(t.word())


def test_enumerate_cst_examples():
    assert len(straight_cst((2, 1), (1, 1, 1))) == 2
    assert len(straight_cst((1,), (1,))) == 1
    only = straight_cst((2, 2), (2, 1, 1))
    assert only == (tab([1, 1], [2, 3]),)
    # deterministic order: sorted by reading word
    words = [t.word() for t in straight_cst((2, 1), (1, 1, 1))]
    assert words == sorted(words)
    # skew enumeration stays column strict
    for t in enumerate_cst((3, 2), (1,), (2, 1, 1)):
        assert t.is_column_strict()
        assert t.content() == (2, 1, 1)


def enumerate_cst_reference(outer, inner, cnt):
    """The column-strict fillings of a skew shape, filled row by row from the
    top row down and then sorted by reading word."""
    base = [inner[i] if i < len(inner) else 0 for i in range(len(outer))]
    rows = [[0] * (outer[i] - base[i]) for i in range(len(outer))]
    remaining = list(cnt)
    cells = [(i, j) for i in range(len(outer)) for j in range(len(rows[i]))]
    found = []

    def fill(k):
        if k == len(cells):
            found.append(Tableau._make((tuple(map(tuple, rows)), inner)))
            return
        i, j = cells[k]
        lo = rows[i][j - 1] if j > 0 else 1
        col = base[i] + j
        if i > 0 and base[i - 1] <= col < base[i - 1] + len(rows[i - 1]):
            lo = max(lo, rows[i - 1][col - base[i - 1]] + 1)
        for x in range(lo, len(cnt) + 1):
            if remaining[x - 1]:
                remaining[x - 1] -= 1
                rows[i][j] = x
                fill(k + 1)
                remaining[x - 1] += 1

    fill(0)
    return tuple(sorted(found, key=Tableau.word))


def test_enumerate_cst_matches_the_sorted_row_fill():
    # every skew shape of outer size <= 6 with a content of 1-4 letters
    inputs = tableaux = 0
    for size in range(7):
        for outer in partitions(size):
            for inner in partitions_upto(size):
                if len(inner) > len(outer) or any(map(gt, inner, outer)):
                    continue
                cells = size - sum(inner)
                for cnt in itertools.chain.from_iterable(
                    itertools.product(range(cells + 1), repeat=k) for k in range(1, 5)
                ):
                    if sum(cnt) == cells:
                        expected = enumerate_cst_reference(outer, inner, cnt)
                        assert enumerate_cst(outer, inner, cnt) == expected, (outer, inner, cnt)
                        inputs += 1
                        tableaux += len(expected)
    assert (inputs, tableaux) == (7719, 6882)


def test_enumerate_cst_rejects_a_shape_that_is_not_skew():
    # the last two are not partitions, and their sizes match their contents
    cases = (((1,), (2,), (1,)), ((1,), (1, 1), (1,)), ((2,), (-1,), (3,)), ((1, 2), (), (1, 1, 1)))
    for outer, inner, cnt in cases:
        with pytest.raises(ValueError, match="not a skew shape"):
            enumerate_cst(outer, inner, cnt)
    with pytest.raises(ValueError, match="not a skew shape"):
        kostka_number((1, 2), (1, 1, 1))


def test_enumerate_cst_rejects_negative_content():
    # the total matches the shape, but no tableau has a negative content
    assert straight_cst((1,), (2, -1)) == ()
    assert enumerate_cst((2, 1), (1,), (3, -1)) == ()
    assert kostka_number((1,), (2, -1)) == 0


def test_yamanouchi_tableau():
    assert yamanouchi_tableau((3, 1)) == tab([1, 1, 1], [2])
    y = yamanouchi_tableau((3, 2, 1))
    assert y.content() == (3, 2, 1)
