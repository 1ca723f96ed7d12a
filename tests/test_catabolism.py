import itertools
import random
from collections import Counter

import pytest

from qlr.catabolism import (
    _cat_step,
    catabolism_trace,
    catabolizable_by_shape,
    catabolism_type,
    column_catabolism,
    enumerate_catabolizable,
    is_catabolizable,
    is_mu_catabolizable,
    is_mu_column_catabolizable,
    leading_run,
    row_catabolism,
)
from qlr.charge import charge_tableau, cocharge_grade
from qlr.cyclage import cyclage_covers
from qlr.involution import InvolutionContext
from qlr.kpoly import QPoly, k_by_charge, k_by_recurrence
from qlr.shapes import compositions, dominates, pad, partitions, rect_sequence, trim
from qlr.tableaux import (
    EMPTY,
    Tableau,
    _transpose,
    all_cst_of_content,
    standard_tableaux,
    straight_cst,
    tab,
    yamanouchi_tableau,
)
from qlr.verify import index_family
from test_cyclage import covers_col_restricted, covers_row_restricted
from test_tableaux import h_slice

RSEQ = rect_sequence((2, 2, 1), (3, 2, 2, 1, 1))


def test_yamanouchi_blocks():
    assert yamanouchi_tableau(RSEQ.rects[0]) == tab([1, 1, 1], [2, 2])
    # Y_2 and Y_3 are Y_1 of the tails, relabelled by their offsets
    assert yamanouchi_tableau(RSEQ.tail().rects[0]).relabel(2) == tab([3, 3], [4])
    assert yamanouchi_tableau(RSEQ.tail().tail().rects[0]).relabel(4) == tab([5])
    with pytest.raises(ValueError, match=r"\(1, 2\) is not a partition"):
        is_catabolizable(EMPTY, rect_sequence((2,), (1, 2)))


def test_block_sequences_with_one_first_block_share_one_y1():
    yamanouchi_tableau.cache_clear()
    # EMPTY fails at the first block, so each run builds Y_1 only
    assert catabolism_trace(EMPTY, RSEQ) is None
    assert catabolism_trace(EMPTY, rect_sequence((2, 1), (3, 2, 4))) is None
    info = yamanouchi_tableau.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def first_block_step(t, rseq):
    """The first step of a catabolism run: strip Y_1 and slice below its rows,
    in the original alphabet; None when the letters 1..m do not fill Y_1."""
    m = rseq.eta[0]
    rows = _cat_step(t.rows, yamanouchi_tableau(rseq.rects[0]).rows, m, m, 0)
    return None if rows is None else Tableau._make((rows, ()))


def test_first_block_step_example():
    s = tab([1, 1, 1, 3, 5], [2, 2, 4], [3])
    assert first_block_step(s, RSEQ) == tab([3, 3], [4, 5])
    assert catabolism_trace(s, RSEQ)[0][2] == tab([3, 3], [4, 5])
    # a tableau that is its own first block catabolizes to nothing
    y1 = yamanouchi_tableau(RSEQ.rects[0])
    one_block = rect_sequence((2,), (3, 2))
    assert first_block_step(y1, one_block) == EMPTY
    assert catabolism_trace(y1, one_block) == ((y1, y1, EMPTY),)
    # restriction mismatch gives None
    bad = tab([1, 1, 2, 3, 5], [2, 2, 4], [3])
    assert first_block_step(bad, RSEQ) is None
    assert catabolism_trace(bad, RSEQ) is None


def test_catabolizable_fixture():
    four = enumerate_catabolizable((5, 3, 1), RSEQ)
    expected = {
        tab([1, 1, 1, 3, 4], [2, 2, 5], [3]),
        tab([1, 1, 1, 3, 3], [2, 2, 4], [5]),
        tab([1, 1, 1, 4, 5], [2, 2, 3], [3]),
        tab([1, 1, 1, 3, 5], [2, 2, 4], [3]),
    }
    assert set(four) == expected
    assert sorted(charge_tableau(t) for t in four) == [3, 4, 4, 4]
    # everything else of that shape and content is not catabolizable
    for t in straight_cst((5, 3, 1), RSEQ.gamma):
        assert is_catabolizable(t, RSEQ) == (t in expected)


def test_catabolizable_trivia():
    assert is_catabolizable(EMPTY, rect_sequence((), ()))
    y1 = yamanouchi_tableau(RSEQ.rects[0])
    assert is_catabolizable(y1, rect_sequence((2,), (3, 2)))
    assert enumerate_catabolizable((4, 3, 1), RSEQ) == ()
    # a skew tableau is never catabolizable, even when its rows are Y_1's
    skew = Tableau(y1.rows, (1,))
    assert not is_catabolizable(skew, rect_sequence((2,), (3, 2)))
    assert catabolism_trace(skew, rect_sequence((2,), (3, 2))) is None
    assert row_catabolism(Tableau([[1, 2]], (1,)), 2) is None


def restrict(t, lo, hi):
    """Subtableau of entries with values in [lo, hi] (a skew tableau)."""
    rows, inner = [], []
    for i, r in enumerate(t.rows):
        rows.append([x for x in r if lo <= x <= hi])
        inner.append(t.inner_at(i) + sum(1 for x in r if x < lo))
    return Tableau(rows, inner)


def cat_block_by_tableaux(t, rseq):
    """First-block catabolism on whole tableaux: restrict t to the letters
    1..m, compare with Y_1, strip it and insert north before south."""
    m = rseq.eta[0]
    y1 = yamanouchi_tableau(rseq.rects[0])
    if restrict(t, 1, m) != y1:
        return None
    return h_slice(Tableau([[x for x in r if x > m] for r in t.rows], y1.outer), m)


def is_catabolizable_by_tableaux(t, rseq):
    """A full catabolism run, relabelling the result of each step."""
    while rseq.t:
        t = cat_block_by_tableaux(t, rseq)
        if t is None:
            return False
        t, rseq = t.relabel(-rseq.eta[0]), rseq.tail()
    return not t


def enumerate_catabolizable_reference(shape, rseq):
    """The all-CST filter: every CST(shape, gamma) through a full catabolism run."""
    shape = trim(shape)
    if sum(shape) != sum(rseq.gamma):
        return ()
    return tuple(
        t for t in straight_cst(shape, rseq.gamma) if is_catabolizable_by_tableaux(t, rseq)
    )


def test_generator_matches_the_all_cst_reference():
    # n <= 5, every eta, weight <= 6: the same tableaux in the same order, and
    # the memoized test and the trace agree with the reference on every CST
    kept = 0
    for gamma, eta, lams in index_family(5, 6):
        rseq = rect_sequence(eta, gamma)
        for lam in lams:
            found = enumerate_catabolizable(lam, rseq)
            assert found == enumerate_catabolizable_reference(lam, rseq), (lam, rseq)
            kept += len(found)
            for t in straight_cst(trim(lam), gamma):
                expected = is_catabolizable_by_tableaux(t, rseq)
                assert is_catabolizable(t, rseq) == expected
                assert (catabolism_trace(t, rseq) is not None) == expected
    assert kept


def test_block_prefixes_of_catabolizable_tableaux_catabolize():
    # the restriction lemma the generator prunes by, at n <= 5, weight <= 6:
    # T|<=A_1..A_j of a catabolizable T is catabolizable against the first j
    # blocks, and a prefix ending in a one-row block passes whenever the
    # prefix before it passes (checked on every CST, catabolizable or not)
    kept = one_row = 0
    for gamma, eta, lams in index_family(5, 6):
        starts = list(itertools.accumulate(eta, initial=0))
        prefix_rseqs = [rect_sequence(eta[:j], gamma[:starts[j]]) for j in range(len(eta) + 1)]
        for lam in lams:
            for t in straight_cst(trim(lam), gamma):
                passes = [
                    is_catabolizable_by_tableaux(restrict(t, 1, starts[j]), prefix_rseqs[j])
                    for j in range(len(eta) + 1)
                ]
                if passes[-1]:
                    assert all(passes), (t, eta)
                    kept += 1
                for j in range(1, len(eta) + 1):
                    if passes[j - 1] and len(trim(gamma[starts[j - 1]:starts[j]])) <= 1:
                        assert passes[j], (t, eta, j)
                        one_row += 1
    assert kept and one_row


def test_charge_engine_at_n_10():
    # lam=(6,5,4,3,2,0^5), gamma=(2^10), eta=(2^5): 1,064 catabolizable tableaux
    lam, rseq = (6, 5, 4, 3, 2, 0, 0, 0, 0, 0), rect_sequence((2,) * 5, (2,) * 10)
    found = k_by_charge(lam, rseq).poly
    assert found == k_by_recurrence(lam, rseq)
    assert found.at_one() == 1064


def test_cat_step_matches_the_tableau_reference():
    # each first block at n <= 5, weight <= 6, against every straight CST of
    # weight <= 6 and letters <= 5 that holds the letters of that block, in
    # the original alphabet and lowered by m, rejections included
    blocks = {}
    for gamma, eta, _ in index_family(5, 6):
        blocks.setdefault((eta[0], gamma[:eta[0]]), rect_sequence(eta, gamma))
    contents = [c for c in itertools.product(range(7), repeat=5) if sum(c) <= 6]
    outcomes = Counter()
    for (m, y), rseq in blocks.items():
        for cnt in contents:
            if any(a < b for a, b in zip(cnt, y)):
                continue
            for t in all_cst_of_content(trim(cnt)):
                after = cat_block_by_tableaux(t, rseq)
                assert first_block_step(t, rseq) == after, (t, rseq)
                lowered = None if after is None else after.relabel(-m).rows
                y1 = yamanouchi_tableau(rseq.rects[0]).rows
                assert _cat_step(t.rows, y1, m, m, m) == lowered, (t, rseq)
                outcomes[after is None] += 1
    assert outcomes[True] and outcomes[False]


def test_involution_ts_by_shape_match_the_all_cst_filter():
    for gamma, eta, _ in index_family(5, 6):
        ctx = InvolutionContext((), rect_sequence(eta, gamma))
        tail = ctx.rseq.tail()
        t_content = (0,) * ctx.m + gamma[ctx.m:]
        nonempty = []
        for shape in partitions(sum(gamma[ctx.m:]), max_len=ctx.n):
            expected = [
                t
                for t in straight_cst(shape, t_content)
                if is_catabolizable_by_tableaux(t.relabel(-ctx.m), tail)
            ]
            assert list(ctx.ts_by_shape.get(shape, ())) == expected, (ctx.rseq, shape)
            nonempty += [shape] * bool(expected)
        # only the shapes that have a T, in the order partitions yields them
        assert list(ctx.ts_by_shape) == nonempty, ctx.rseq


def test_one_enumeration_per_group_matches_the_per_shape_lookups():
    # every group of n <= 5, weight <= 5: the same nonempty shapes in
    # decreasing lexicographic order, each with the same tableaux in order
    for gamma, eta, _ in index_family(5, 5):
        rseq = rect_sequence(eta, gamma)
        expected = {}
        for shape in partitions(sum(gamma), max_len=len(gamma)):
            if found := enumerate_catabolizable(shape, rseq):
                expected[shape] = found
        assert list(catabolizable_by_shape(rseq).items()) == list(expected.items()), rseq


def _random_charge_index(rng: random.Random):
    """A random dominant index at n = 6-7: gamma of parts <= 2, lam above it."""
    n = rng.randint(6, 7)
    eta = rng.choice(compositions(n))
    size = rng.randint(8, 11)
    gamma = rng.choice([p for p in partitions(size, max_len=n) if p[0] <= 2])
    # the middle third of the lam above gamma have the most tableaux
    above = sorted(
        (p for p in partitions(size, max_len=n) if dominates(p, gamma)),
        key=lambda p: sum(x * x for x in p),
    )
    lam = rng.choice(above[len(above) // 3: 2 * len(above) // 3 + 1])
    return lam, rect_sequence(eta, pad(gamma, n))


def test_charge_engine_matches_the_reference_filter_on_random_indices():
    rng = random.Random(0)
    nonzero = 0
    for _ in range(12):
        lam, rseq = _random_charge_index(rng)
        expected = QPoly(Counter(map(charge_tableau, enumerate_catabolizable_reference(lam, rseq))))
        assert k_by_charge(lam, rseq).poly == expected, (lam, rseq)
        nonzero += bool(expected)
    assert nonzero >= 6


def test_catabolizable_members_have_the_block_content():
    for t in enumerate_catabolizable((5, 3, 1), RSEQ):
        assert t.content() == RSEQ.gamma


def test_trace_replays():
    s = tab([1, 1, 1, 3, 5], [2, 2, 4], [3])
    trace = catabolism_trace(s, RSEQ)
    assert trace is not None and len(trace) == 3
    before, block, after = trace[0]
    assert before == s and block == yamanouchi_tableau(RSEQ.rects[0])
    assert after == tab([3, 3], [4, 5])


def first_row_catabolism(t):
    """H_1 of a straight tableau by the row stepper, as catabolism_type steps."""
    return Tableau._make((_cat_step(t.rows, (), 0, 1, 0), ()))


def test_row_stepper_matches_h_slice_by_words():
    # every straight tableau of partition content and size <= 7, at every cut
    # before, inside and past its rows
    pairs = 0
    for n in range(8):
        for mu in partitions(n):
            for t in all_cst_of_content(mu):
                for r in range(len(t.rows) + 2):
                    assert Tableau._make((_cat_step(t.rows, (), 0, r, 0), ())) == h_slice(t, r)
                    pairs += 1
    assert pairs == 4125


def test_leading_run_and_first_row_catabolism():
    s = tab([1, 2, 3, 4, 7], [5, 6, 9], [8])
    assert leading_run(s) == 4
    c1 = first_row_catabolism(s)
    assert c1 == tab([1, 2, 3, 4, 5, 6, 9], [7, 8])
    assert first_row_catabolism(c1) == tab([1, 2, 3, 4, 5, 6, 7, 8], [9])
    assert leading_run(tab([1], [2])) == 1
    one_row = tab([1, 2, 3])
    assert leading_run(one_row) == 3
    assert first_row_catabolism(one_row) == one_row


def test_first_row_catabolism_raises_the_leading_run():
    # the claim that replaced catabolism_type's stall check, on every step of
    # every standard tableau of size <= 8 until its leading run is the whole size
    steps = 0
    for n in range(9):
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                while (run := leading_run(t)) < n:
                    t = first_row_catabolism(t)
                    assert leading_run(t) > run, t
                    steps += 1
    assert steps == 6167


def test_catabolism_type():
    assert catabolism_type(tab([1, 2, 3, 4, 7], [5, 6, 9], [8])) == (4, 2, 2, 1)
    assert catabolism_type(tab([1, 2, 3, 4, 5])) == (5,)
    assert catabolism_type(tab([1], [2], [3], [4])) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        catabolism_type(tab([1, 1]))


def test_catabolism_type_is_a_partition():
    for n in range(1, 8):
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                ct = catabolism_type(t)
                assert all(a >= b for a, b in zip(ct, ct[1:]))
                assert sum(ct) == n


def test_mu_catabolizable_matches_type_dominance():
    for n in range(1, 7):
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                ct = catabolism_type(t)
                for mu in partitions(n):
                    assert is_mu_catabolizable(t, mu) == dominates(ct, mu)


def test_mu_catabolizability_needs_the_size_of_mu():
    t = tab([1, 2, 3])
    assert is_mu_catabolizable(t, (3,)) and is_mu_column_catabolizable(t, (3,))
    assert not is_mu_catabolizable(t, (2,)) and not is_mu_column_catabolizable(t, (2, 2))


def test_row_and_column_catabolizability_agree():
    for n in range(1, 7):
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                for mu in partitions(n):
                    assert is_mu_column_catabolizable(t, mu) == is_mu_catabolizable(
                        t, mu
                    )


def test_mu_catabolizable_trivia():
    one_row = tab([1, 2, 3, 4])
    assert is_mu_catabolizable(one_row, (4,))
    assert is_mu_column_catabolizable(one_row, (4,))
    for shape in partitions(4):
        for t in standard_tableaux(shape):
            assert is_mu_catabolizable(t, (1, 1, 1, 1))
    # missing the leading run blocks everything
    t = tab([1, 3], [2, 4])
    assert not is_mu_catabolizable(t, (3, 1))
    assert not is_mu_column_catabolizable(t, (3, 1))
    assert row_catabolism(t, 2) is None
    assert column_catabolism(t, 2) is None


def test_hook_block_sequences_reduce_to_content():
    # for a hook-shaped block structure, catabolizable = right restriction
    hooks = [((2, 1, 1), (2, 2, 1, 1)), ((3, 1), (2, 1, 1, 1))]
    for eta, gamma in hooks:
        rs = rect_sequence(eta, gamma)
        y1 = yamanouchi_tableau(rs.rects[0])
        for shape in partitions(sum(gamma)):
            for t in straight_cst(shape, gamma):
                simple = restrict(t, 1, eta[0]) == y1
                assert is_catabolizable(t, rs) == simple


def transpose(t: Tableau) -> Tableau:
    """The transpose of a straight-shape tableau."""
    return Tableau(_transpose(t.rows))


def test_transpose_bridges_column_blocks_and_column_catabolism():
    for n in range(1, 7):
        for mu in partitions(n):
            rs = rect_sequence(mu, (1,) * n)
            for shape in partitions(n):
                for t in standard_tableaux(shape):
                    assert is_catabolizable(t, rs) == is_mu_column_catabolizable(
                        transpose(t), mu
                    )
                    assert charge_tableau(t) == cocharge_grade(transpose(t))


def test_catabolizability_moves_along_restricted_covers():
    for n in range(2, 7):
        for shape in partitions(n):
            for t in standard_tableaux(shape):
                for edge in cyclage_covers(t):
                    for mu in partitions(n):
                        if covers_row_restricted(edge, 1) and is_mu_catabolizable(
                            edge.upper, mu
                        ):
                            assert is_mu_catabolizable(edge.lower, mu)
                        if covers_col_restricted(edge, mu[0]) and (
                            is_mu_column_catabolizable(edge.lower, mu)
                        ):
                            assert is_mu_column_catabolizable(edge.upper, mu)
