import functools
import itertools

import pytest

from qlr import crystal
from qlr.crystal import (
    _rearrange,
    is_mu_lattice,
    lattice_involution,
    lattice_violation,
    lowering,
    plactic_act,
    r_pairing,
    raising,
    reflection,
    refill,
    sort_to_partition_content,
)
from qlr.shapes import all_permutations, reduced_word
from qlr.tableaux import column_rsk, content, schensted_p, tab

# the worked 25-letter example word
U25 = (1, 2, 4, 3, 1, 2, 2, 3, 3, 4, 2, 3, 3, 4, 3, 3, 1, 3, 1, 2, 3, 4, 2, 2, 3)


def all_words(alphabet, max_len):
    for ln in range(max_len + 1):
        yield from itertools.product(range(1, alphabet + 1), repeat=ln)


def is_lattice(w):
    return is_mu_lattice(w, ())


def perm_apply(w, v):
    """Place permutation: entry at position j moves to position w(j)."""
    out = [0] * len(v)
    for j, i in enumerate(w):
        out[i - 1] = v[j]
    return tuple(out)


def test_pairing_on_worked_example():
    pr = r_pairing(U25, 2)
    assert pr.unpaired_low == (1, 6)
    assert pr.unpaired_high == (7, 11, 12, 14, 24)
    assert len(pr.paired) == 5


def test_operators_on_worked_example():
    assert reflection(U25, 2) == (
        1, 2, 4, 3, 1, 2, 2, 2, 3, 4, 2, 2, 2, 4, 3, 3, 1, 3, 1, 2, 3, 4, 2, 2, 3,
    )
    assert raising(U25, 2) == (
        1, 2, 4, 3, 1, 2, 2, 2, 3, 4, 2, 3, 3, 4, 3, 3, 1, 3, 1, 2, 3, 4, 2, 2, 3,
    )
    assert lowering(U25, 2) == (
        1, 2, 4, 3, 1, 2, 3, 3, 3, 4, 2, 3, 3, 4, 3, 3, 1, 3, 1, 2, 3, 4, 2, 2, 3,
    )


def test_pairing_trivia():
    pr = r_pairing((1, 4, 1), 2)
    assert pr.paired == () and pr.unpaired_low == () and pr.unpaired_high == ()
    pr = r_pairing((2, 3), 2)
    assert pr.unpaired_low == (0,) and pr.unpaired_high == (1,)


def test_reflection_involution_and_trivial_case():
    w = (1, 4, 1, 4)
    assert reflection(w, 2) == w
    for u in all_words(3, 6):
        assert reflection(reflection(u, 1), 1) == u
        assert reflection(reflection(u, 2), 2) == u


def test_raising_lowering_inverse():
    for u in all_words(3, 6):
        for r in (1, 2):
            up = raising(u, r)
            if up is not None:
                assert lowering(up, r) == u
            down = lowering(u, r)
            if down is not None:
                assert raising(down, r) == u


def test_pair_count_invariant():
    for u in all_words(3, 5):
        for r in (1, 2):
            k = len(r_pairing(u, r).paired)
            for img in (reflection(u, r), raising(u, r), lowering(u, r)):
                if img is not None:
                    assert len(r_pairing(img, r).paired) == k


def test_reflection_is_a_raising_or_lowering_power():
    for u in all_words(3, 6):
        for r in (1, 2):
            pr = r_pairing(u, r)
            p, q = len(pr.unpaired_low), len(pr.unpaired_high)
            v = u
            if p >= q:
                for _ in range(p - q):
                    v = lowering(v, r)
            else:
                for _ in range(q - p):
                    v = raising(v, r)
            assert v == reflection(u, r)


def test_lattice_property_is_knuth_invariant():
    def knuth_neighbors(w):
        out = []
        for i in range(len(w) - 2):
            a, b, c = w[i], w[i + 1], w[i + 2]
            if a <= c < b or b <= c < a:
                out.append(w[:i] + (b, a, c) + w[i + 3:])
            if b < a <= c or c < a <= b:
                out.append(w[:i] + (a, c, b) + w[i + 3:])
        return out

    for u in all_words(3, 6):
        for mu in [(), (1,), (2, 1)]:
            flag = is_mu_lattice(u, mu)
            for v in knuth_neighbors(u):
                assert is_mu_lattice(v, mu) == flag


def test_operators_commute_with_knuth_classes():
    for u in all_words(3, 6):
        p = schensted_p(u).word()
        for r in (1, 2):
            a, b = raising(u, r), raising(p, r)
            if a is None:
                assert b is None
            else:
                assert schensted_p(a) == schensted_p(b)


def test_plactic_act_basics():
    assert plactic_act((1, 2, 3), (1, 2, 1)) == (1, 2, 1)
    assert plactic_act((2, 1), (1,)) == (2,)
    # a permutation given as a list acts as its tuple does
    assert plactic_act([2, 3, 1], (1, 2, 1)) == plactic_act((2, 3, 1), (1, 2, 1))


def test_refill_rejects_words_that_do_not_fill_the_shape():
    t = tab([1, 2], [3])
    assert refill(t, (3, 1, 2)) == t
    for w in [(1, 2), (9, 3, 1, 2), (1, 1, 2)]:
        with pytest.raises(ValueError):
            refill(t, w)


def test_operators_reject_a_letter_below_one():
    with pytest.raises(ValueError, match="r must be a positive letter"):
        reflection((1, 2), 0)


def test_lattice_involution_rejects_a_lattice_word():
    with pytest.raises(ValueError, match="already lattice"):
        lattice_involution((2, 1, 1))


def test_plactic_act_braid_independence():
    # two reduced words for the longest element of S3: (1,2,1) and (2,1,2)
    def act_by(word, u):
        for r in reversed(word):
            u = reflection(u, r)
        return u

    for u in all_words(3, 5):
        assert act_by((1, 2, 1), u) == act_by((2, 1, 2), u)
        w0 = (3, 2, 1)
        assert plactic_act(w0, u) == act_by((1, 2, 1), u)


def test_plactic_act_transforms_content():
    for u in all_words(3, 4):
        c = (content(u) + (0, 0, 0))[:3]
        for w in all_permutations(3):
            cw = perm_apply(w, c)
            assert (content(plactic_act(w, u)) + (0, 0, 0))[:3] == cw


def test_sort_to_partition_content():
    for u in all_words(3, 5):
        v = sort_to_partition_content(u)
        c = content(v)
        assert all(a >= b for a, b in zip(c, c[1:]))


def test_lattice_examples():
    assert is_lattice((2, 2, 1, 1))
    assert not is_lattice((1, 1, 2, 2))
    assert is_mu_lattice((2, 2), (2,))
    assert not is_mu_lattice((2, 2), (1,))
    # the failure letter is r+1, reported through r
    assert lattice_violation((1, 1, 2, 2)) == 1
    assert lattice_violation((2, 2, 1, 1)) is None


def test_lattice_matches_pairing_characterization():
    for u in all_words(3, 6):
        for mu in [(), (1,), (2,), (2, 1)]:
            mu_p = (mu + (0, 0, 0))[:3]
            expected = all(
                len(r_pairing(u, r).unpaired_high) <= mu_p[r - 1] - mu_p[r]
                for r in (1, 2)
            )
            assert is_mu_lattice(u, mu) == expected


def test_lattice_involution_is_involution():
    # mu may have parts past r+1; only mu_r and mu_{r+1} enter the formula
    for mu in [(), (1,), (2,), (2, 1), (1, 1, 1)]:
        for u in all_words(3, 6):
            if is_mu_lattice(u, mu):
                continue
            v = lattice_involution(u, mu)
            assert not is_mu_lattice(v, mu)
            assert lattice_involution(v, mu) == u
            # the reflection alone swaps the two letter counts exactly
            r = lattice_violation(u, mu)
            cu = (content(u) + (0,) * 4)[:4]
            cs = (content(reflection(u, r)) + (0,) * 4)[:4]
            assert cs[r - 1] == cu[r] and cs[r] == cu[r - 1]


def test_lattice_failure_leaves_enough_unpaired_letters():
    # at the rightmost failure r+1 there are k = mu_r - mu_{r+1} + 1 unpaired
    # (r+1)'s to raise, so lattice_involution needs no guard for running out
    cases = 0
    for u in all_words(4, 7):
        highs = [None] + [len(r_pairing(u, r).unpaired_high) for r in (1, 2, 3)]
        for mu in [(), (1,), (2, 1), (1, 1, 1), (3, 1), (2, 2)]:
            r = lattice_violation(u, mu)
            if r is not None:
                mu_p = mu + (0,) * 4
                assert highs[r] >= mu_p[r - 1] - mu_p[r] + 1
                cases += 1
    assert cases == 120_060


# Reference operators: r_pairing, then a rewrite of every unpaired letter into
# a new tuple, one tuple per reflection.


def ref_rewrite(w, pr, a):
    """Write the unpaired subword of ``w`` as r^a (r+1)^(p+q-a)."""
    out = list(w)
    for k, pos in enumerate(pr.unpaired_low + pr.unpaired_high):
        out[pos] = pr.r if k < a else pr.r + 1
    return tuple(out)


@functools.cache
def ref_operators(w, r):
    """Reflection, raising and lowering of ``w`` from one r_pairing."""
    pr = r_pairing(w, r)
    p, q = len(pr.unpaired_low), len(pr.unpaired_high)
    return (
        ref_rewrite(w, pr, q),
        ref_rewrite(w, pr, p + 1) if q else None,
        ref_rewrite(w, pr, p - 1) if p else None,
    )


def ref_lattice_involution(w, mu):
    """s_r e_r^k at the rightmost failure r+1, k = mu_r - mu_{r+1} + 1."""
    r = lattice_violation(w, mu)
    mu_p = mu + (0,) * 4
    pr = r_pairing(w, r)
    return ref_rewrite(w, pr, len(pr.unpaired_high) - (mu_p[r - 1] - mu_p[r] + 1))


def test_operators_match_the_reference_rewrite():
    actions = [(w, reduced_word(w)[::-1]) for w in all_permutations(4)]
    # the reflection sequences share prefixes: act by each prefix once
    prefixes = sorted({rs[:k] for _, rs in actions for k in range(1, len(rs) + 1)}, key=len)
    for u in all_words(4, 6):
        for r in (1, 2, 3):
            assert (reflection(u, r), raising(u, r), lowering(u, r)) == ref_operators(u, r)
        for mu in [(), (2, 1)]:
            if lattice_violation(u, mu) is not None:
                assert lattice_involution(u, mu) == ref_lattice_involution(u, mu)
        images = {(): u}
        for rs in prefixes:
            images[rs] = ref_operators(images[rs[:-1]], rs[-1])[0]
        assert [plactic_act(w, u) for w, _ in actions] == [images[rs] for _, rs in actions]


def test_rearrange_matches_only_where_both_counts_are_positive(monkeypatch):
    # a reflection with no r or no r+1 only swaps two labels: the bracket matcher
    # runs only where both counts are positive, on two letters the word holds,
    # and the labelled word reads as the chain of one reflection per move
    seen = []
    match = crystal._match

    def counting_match(w, r, paired=None, s=None):
        seen.append(r in w and s in w)
        return match(w, r, paired, s)

    monkeypatch.setattr(crystal, "_match", counting_match)
    for w in all_words(4, 6):
        c = [w.count(k) for k in range(1, 5)]
        for target in set(itertools.permutations(c)):
            chain, cnt, both = w, c[:], 0
            for i, x in enumerate(target):
                for r in range(cnt.index(x, i), i, -1):
                    both += cnt[r - 1] > 0 and cnt[r] > 0
                    chain = reflection(chain, r)
                    cnt[r - 1], cnt[r] = cnt[r], cnt[r - 1]
            seen.clear()
            assert _rearrange(w, c, target) == chain, (w, target)
            assert seen == [True] * both, (w, target)


def test_overlap_counts_r_pairs_in_recording_tableau():
    # the number of r-pairs of the recording word matches the row overlap
    from qlr.tableaux import overlap

    def weakly_increasing(alphabet, max_len):
        out = [()]
        for ln in range(1, max_len + 1):
            out.extend(
                itertools.combinations_with_replacement(range(1, alphabet + 1), ln)
            )
        return out

    singles = weakly_increasing(3, 3)
    for words in itertools.product(singles, repeat=3):
        if sum(map(len, words)) > 6:
            continue
        _, q = column_rsk(words)
        for r in (1, 2):
            pairs = len(r_pairing(q.word(), r).paired)
            assert pairs == overlap(words[r], words[r - 1])


def test_two_row_duality():
    # moving Q inside an r-string only reshuffles rows r, r+1 of the input
    def weakly_increasing(alphabet, max_len):
        out = [()]
        for ln in range(1, max_len + 1):
            out.extend(
                itertools.combinations_with_replacement(range(1, alphabet + 1), ln)
            )
        return out

    singles = weakly_increasing(3, 3)
    sequences = [
        words
        for words in itertools.product(singles, repeat=3)
        if 0 < sum(map(len, words)) <= 5
    ]
    r = 1
    by_string = {}
    by_rows = {}
    for words in sequences:
        p, q = column_rsk(words)
        lowest = q.word()
        while True:
            nxt = lowering(lowest, r)
            if nxt is None:
                break
            lowest = nxt
        by_string.setdefault((p, lowest), set()).add(words)
        key = (
            words[2],
            schensted_p(words[r] + words[r - 1]),
        )
        by_rows.setdefault(key, set()).add(words)
    assert set(map(frozenset, by_string.values())) == set(
        map(frozenset, by_rows.values())
    )
