import itertools
import random

import pytest

from qlr.catabolism import catabolism_type
from qlr.charge import cocharge_grade
from qlr.crystal import lowering, plactic_act, refill, sort_to_partition_content
from qlr.cyclage import (
    CyclageEdge,
    cocyclage,
    content_embedding,
    cyclage_covers,
    cyclage_poset,
    cyclage_standardization,
)
from qlr.shapes import (
    all_permutations,
    compositions,
    dominates,
    pad,
    partitions,
)
from qlr.tableaux import (
    Tableau,
    all_cst_of_content,
    schensted_p,
    standard_tableaux,
    tab,
)


def perm_apply(w, v):
    """Place permutation: entry at position j moves to position w(j)."""
    out = [0] * len(v)
    for j, i in enumerate(w):
        out[i - 1] = v[j]
    return tuple(out)


# Reference: the tableau-by-tableau embedding that the word-level loop
# replaced.  It plans the chain of contents first, then rebuilds and checks a
# tableau after every move.


def transfer_step(t: Tableau) -> Tableau:
    """Move one unit of content from letter 1 to letter 2.

    Requires c_1 > c_2 + 1; on a tableau this is the lowering operator for
    r = 1, which turns the rightmost 1 into a 2 and preserves the shape.
    """
    cnt = t.content()
    c1 = cnt[0] if cnt else 0
    c2 = cnt[1] if len(cnt) > 1 else 0
    if c1 <= c2 + 1:
        raise ValueError(f"content {cnt} does not allow a 1 -> 2 transfer")
    w = lowering(t.word(), 1)
    if w is None:
        raise RuntimeError("no unpaired 1 despite the content precondition")
    return refill(t, w)


def permute_content(t: Tableau, target) -> Tableau:
    """Plactic action by a permutation taking t's content to ``target``: the
    one that keeps equal counts in order."""
    src = pad(t.content(), len(target))
    by_src = sorted(range(len(src)), key=src.__getitem__)
    by_dst = sorted(range(len(target)), key=target.__getitem__)
    w = [0] * len(src)
    for j, i in zip(by_src, by_dst):
        w[j] = i + 1
    assert perm_apply(w, src) == tuple(target)
    return refill(t, plactic_act(w, t.word()))


def content_chain(alpha, beta):
    """A canonical chain of elementary content moves from alpha to beta."""
    n = max(len(alpha), len(beta))
    alpha, beta = pad(alpha, n), pad(beta, n)
    target = tuple(sorted(beta, reverse=True))
    chain = [alpha]
    cur = alpha
    while tuple(sorted(cur, reverse=True)) != target:
        mu = tuple(sorted(cur, reverse=True))
        move = None
        for i, j in itertools.product(range(n), repeat=2):
            if i == j or mu[i] < mu[j] + 2:
                continue
            nxt = list(mu)
            nxt[i] -= 1
            nxt[j] += 1
            if dominates(tuple(sorted(nxt, reverse=True)), target):
                move = (i, j)
                break
        if move is None:
            raise ValueError(f"{alpha} does not dominate {beta}")
        i, j = move
        rest = sorted(
            (mu[k] for k in range(n) if k not in (i, j)), reverse=True
        )
        staged = (mu[i], mu[j], *rest)
        chain.append(staged)
        cur = (mu[i] - 1, mu[j] + 1, *rest)
        chain.append(cur)
    if cur != beta:
        chain.append(beta)
    return chain


def chain_embedding(alpha, beta, t: Tableau) -> Tableau:
    """content_embedding, one refilled tableau per move of content_chain."""
    chain = content_chain(tuple(alpha), tuple(beta))
    cur = t
    for prev, nxt in zip(chain, chain[1:]):
        if tuple(sorted(prev, reverse=True)) == tuple(sorted(nxt, reverse=True)):
            cur = permute_content(cur, nxt)
        else:
            cur = transfer_step(cur)
    return cur


def covers_row_restricted(edge: CyclageEdge, r: int) -> bool:
    """The cover counts for the row-restricted order >=_(r,): its reverse
    column insertion starts strictly below row number r (1-based)."""
    return edge.start_cell[0] >= r


def covers_col_restricted(edge: CyclageEdge, c: int) -> bool:
    """The cover counts for the column-restricted order >=_(,c): its row
    insertion ends strictly right of column number c (1-based)."""
    return edge.end_cell[1] >= c


def test_cover_example():
    t = tab([1, 1, 1, 2, 3], [2, 3, 4], [4])
    edges = {e.start_cell: e for e in cyclage_covers(t)}
    e = edges[(1, 2)]
    assert e.letter == 2
    assert e.intermediate == tab([1, 1, 1, 2, 3], [3, 4], [4])
    assert e.lower == tab([1, 1, 1, 2, 2], [3, 3], [4, 4])
    assert e.end_cell == (2, 1)
    assert covers_row_restricted(e, 1)
    assert not covers_row_restricted(e, 2)
    assert covers_col_restricted(e, 1)
    assert not covers_col_restricted(e, 2)


def test_bottom_has_no_covers():
    assert cyclage_covers(tab([1, 1, 2, 2, 3])) == ()


def test_covers_drop_cocharge_and_respect_words():
    for size in range(2, 7):
        for alpha in partitions(size):
            for t in all_cst_of_content(alpha):
                for e in cyclage_covers(t):
                    assert e.letter > 1
                    assert cocharge_grade(e.upper) == cocharge_grade(e.lower) + 1
                    word_u = e.intermediate.word()
                    assert schensted_p((e.letter,) + word_u) == e.upper
                    assert schensted_p(word_u + (e.letter,)) == e.lower


def test_cocyclage_inverts_covers():
    for size in range(2, 7):
        for alpha in partitions(size):
            for t in all_cst_of_content(alpha):
                for e in cyclage_covers(t):
                    back = cocyclage(e.lower, e.end_cell)
                    assert back is not None
                    assert back.upper == e.upper
                    assert back.letter == e.letter
                    assert back.start_cell == e.start_cell
    # reverse row insertion emitting a 1 yields no edge
    assert cocyclage(tab([1, 1]), (0, 1)) is None
    # the bottom element still cocycles upward when a larger letter comes out
    up = cocyclage(tab([1, 1, 2]), (0, 2))
    assert up is not None and up.upper == tab([1, 1], [2])
    with pytest.raises(ValueError):
        cocyclage(tab([1, 1], [2]), (0, 0))
    # a row outside the tableau, below it or counted from its end
    for cell in ((5, 0), (-2, 2)):
        with pytest.raises(ValueError, match="is not a removable cell"):
            cocyclage(tab([1, 1, 2], [2, 3]), cell)


def test_transfer_step():
    assert transfer_step(tab([1, 1, 1], [2])) == tab([1, 1, 2], [2])
    with pytest.raises(ValueError):
        transfer_step(tab([1, 1], [2]))
    # shape preserved in all cases
    for alpha in [(3, 1), (4, 2), (3,)]:
        for t in all_cst_of_content(alpha):
            assert transfer_step(t).outer == t.outer


def test_embedding_identity_and_small_image():
    t = tab([1, 1, 2])
    assert content_embedding((2, 1), (2, 1), t) == t
    assert cyclage_standardization(t) == tab([1, 2, 3])


def test_embedding_requires_dominance():
    with pytest.raises(ValueError):
        content_embedding((1, 1, 1), (2, 1), tab([1, 2, 3]))


def test_embedding_matches_tableau_by_tableau_chain():
    for n in range(1, 7):
        betas = [
            beta
            for length in range(1, 5)
            for beta in itertools.product(range(n + 1), repeat=length)
            if sum(beta) == n
        ]
        for alpha in partitions(n):
            dominated = [
                beta for beta in betas if dominates(alpha, sorted(beta, reverse=True))
            ]
            for t in all_cst_of_content(alpha):
                for beta in dominated:
                    assert content_embedding(alpha, beta, t) == chain_embedding(
                        alpha, beta, t
                    ), (alpha, beta, t)


def test_slack_move_keeps_dominance():
    # content_embedding's move on mu strictly dominating nu: i the first index
    # of positive slack, j the first from i of zero slack
    for size in range(1, 11):
        for mu, nu in itertools.permutations(partitions(size), 2):
            if not dominates(mu, nu):
                continue
            mu, nu = pad(mu, size), pad(nu, size)
            slack = list(itertools.accumulate(a - b for a, b in zip(mu, nu)))
            i = next(k for k, s in enumerate(slack) if s > 0)
            j = slack.index(0, i)
            assert mu[i] >= mu[j] + 2, (mu, nu)
            moved = list(mu)
            moved[i] -= 1
            moved[j] += 1
            assert dominates(sorted(moved, reverse=True), nu), (mu, nu)


def test_standardization_matches_the_chain_on_long_random_words():
    rng = random.Random(25)
    for _ in range(200):
        letters = rng.randint(1, 6)
        w = [rng.randint(1, letters) for _ in range(rng.randint(9, 14))]
        t = schensted_p(sort_to_partition_content(w))
        assert cyclage_standardization(t) == chain_embedding(
            t.content(), (1,) * len(w), t
        ), w


def test_boundary_raises():
    with pytest.raises(ValueError, match="cyclage expects straight tableaux"):
        cyclage_covers(Tableau(((2,), (1,)), (1,)))
    with pytest.raises(ValueError, match="cyclage covers need partition content"):
        cyclage_covers(tab([1, 2, 2]))
    with pytest.raises(ValueError, match=r"tableau content \(1, 1, 1\) is not \(2, 1\)"):
        content_embedding((2, 1), (1, 1, 1), tab([1, 2, 3]))
    with pytest.raises(ValueError, match="standardization expects partition content"):
        cyclage_standardization(tab([1, 2, 2]))


def test_permutation_step_choice_does_not_matter():
    # any permutation with w alpha = beta acts the same on the whole fiber
    alpha, n = (1, 2, 1), 4
    for beta in set(itertools.permutations(pad(alpha, n))):
        movers = [
            w for w in all_permutations(n) if perm_apply(w, pad(alpha, n)) == beta
        ]
        for t in all_cst_of_content(alpha):
            images = {refill(t, plactic_act(w, t.word())) for w in movers}
            assert len(images) == 1
            assert images == {permute_content(t, beta)}


def test_chain_independence():
    # (3,1) -> (1,1,1,1) two ways: through (2,2) or through (2,1,1)
    for t in all_cst_of_content((3, 1)):
        via_22 = content_embedding(
            (2, 2), (1, 1, 1, 1), content_embedding((3, 1), (2, 2), t)
        )
        via_211 = content_embedding(
            (2, 1, 1), (1, 1, 1, 1), content_embedding((3, 1), (2, 1, 1), t)
        )
        direct = content_embedding((3, 1), (1, 1, 1, 1), t)
        assert via_22 == via_211 == direct
    # (2,2) -> (1,1,1,1) through two different staging arrangements
    for t in all_cst_of_content((2, 2)):
        a = content_embedding((2, 0, 2, 0), (1, 1, 1, 1), permute_content(t, (2, 0, 2, 0)))
        b = content_embedding((2, 0, 0, 2), (1, 1, 1, 1), permute_content(t, (2, 0, 0, 2)))
        assert a == b == cyclage_standardization(t)


def test_embedding_functoriality():
    for n in range(2, 6):
        chains = [
            (a, b)
            for a in partitions(n)
            for b in partitions(n)
            if a != b and dominates(a, b)
        ]
        for alpha, beta in chains:
            for t in all_cst_of_content(alpha):
                ab = content_embedding(alpha, beta, t)
                direct = content_embedding(alpha, (1,) * n, t)
                composed = content_embedding(beta, (1,) * n, ab)
                assert composed == direct


def test_embedding_preserves_shape_grade_and_covers():
    for n in range(2, 6):
        for mu in partitions(n):
            verts = all_cst_of_content(mu)
            images = {}
            for t in verts:
                s = cyclage_standardization(t)
                assert s.outer == t.outer
                assert cocharge_grade(s) == cocharge_grade(t)
                images[t] = s
            cover_pairs = {
                (e.upper, e.lower) for t in verts for e in cyclage_covers(t)
            }
            image_pairs = {
                (images[a], images[b]) for a, b in cover_pairs
            }
            standard_pairs = {
                (e.upper, e.lower)
                for shape in partitions(n)
                for s in standard_tableaux(shape)
                for e in cyclage_covers(s)
            }
            assert image_pairs <= standard_pairs


def test_image_characterization():
    for n in range(1, 6):
        standard_by_type = {
            s: catabolism_type(s)
            for shape in partitions(n)
            for s in standard_tableaux(shape)
        }
        for mu in partitions(n):
            image = {
                cyclage_standardization(t)
                for t in all_cst_of_content(mu)
            }
            expected = {
                s for s, ct in standard_by_type.items() if dominates(ct, mu)
            }
            assert image == expected
            assert len(image) == len(list(all_cst_of_content(mu)))


def test_long_first_row():
    # inputs with first row all ones map to outputs with leading run >= m
    for mu in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]:
        m = mu[0]
        for t in all_cst_of_content(mu):
            if t.rows[0][: t.outer[0]] != (1,) * t.outer[0] or t.outer[0] != m:
                continue
            s = cyclage_standardization(t)
            assert s.rows[0][:m] == tuple(range(1, m + 1))


def test_theta_relation_through_row_insertion():
    # embedding before or after gluing the first-block row commutes
    for mu in [(2, 1), (2, 2), (3, 2)]:
        m, rest = mu[0], mu[1:]
        n = sum(mu)
        shifted = (0,) + rest
        for x_prime in all_cst_of_content(shifted):
            x = content_embedding(shifted, (0,) * m + (1,) * (n - m), x_prime)
            s_prime = schensted_p(x_prime.word() + (1,) * m)
            s = schensted_p(x.word() + tuple(range(1, m + 1)))
            assert cyclage_standardization(s_prime) == s


def test_posets_are_graded_with_unique_bottom():
    for size in range(1, 6):
        for alpha in compositions(size):
            poset = cyclage_poset(alpha)
            grades = dict(zip(poset.vertices, poset.grades))
            bottoms = poset.bottoms()
            assert len(bottoms) == 1
            assert bottoms[0].outer == (size,)
            assert grades[bottoms[0]] == 0
            for e in poset.edges:
                assert grades[e.upper] == grades[e.lower] + 1
            # every non-bottom vertex has at least one downward edge
            uppers = {e.upper for e in poset.edges}
            for v in poset.vertices:
                if v != bottoms[0]:
                    assert v in uppers


def test_poset_trivia():
    p = cyclage_poset((1, 1))
    assert len(p.vertices) == 2 and len(p.edges) == 1
    single = cyclage_poset((4,))
    assert len(single.vertices) == 1 and not single.edges
    with pytest.raises(ValueError):
        cyclage_poset((5, 5))
