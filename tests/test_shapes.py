import itertools
import operator
import random

import pytest

from qlr.crystal import _rearrange, plactic_act
from qlr.kpoly import KIndex
from qlr.shapes import (
    RectSequence,
    all_permutations,
    block_starts,
    box_complement,
    compositions,
    conjugate,
    dominates,
    from_rects,
    n_stat,
    pad,
    partitions,
    partitions_containing,
    perm_sign,
    rect_sequence,
    reduced_word,
    rho,
    roots_of,
    straighten,
    trim,
    vec_add,
    vec_sub,
)
from qlr.tableaux import content


def test_conjugate_examples():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


def test_conjugate_is_involution():
    for n in range(9):
        for p in partitions(n):
            assert conjugate(conjugate(p)) == p
            assert sum(conjugate(p)) == sum(p)


def test_dominance_examples():
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 1), (2, 1))


def test_dominance_rejects_unequal_totals():
    with pytest.raises(ValueError):
        dominates((2, 1), (2, 2))


def test_dominance_partial_order_and_conjugation():
    for n in range(1, 9):
        ps = partitions(n)
        for a, b in itertools.product(ps, repeat=2):
            d = dominates(a, b)
            # antisymmetry and conjugation reversal
            if d and dominates(b, a):
                assert a == b
            assert d == dominates(conjugate(b), conjugate(a))
        for a, b, c in itertools.product(ps, repeat=3):
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


def inversions(w) -> int:
    return sum(x > y for x, y in itertools.combinations(w, 2))


def perm_apply(w, v):
    """Place permutation: entry at position j moves to position w(j)."""
    out = [0] * len(v)
    for j, i in enumerate(w):
        out[i - 1] = v[j]
    return tuple(out)


def perm_mul(u, v):
    """Composition u*v, acting as functions: (u*v)(i) = u(v(i))."""
    return tuple(u[v[i] - 1] for i in range(len(u)))


def test_rearrange_examples():
    assert _rearrange((2, 2), (0, 2), (2, 0)) == (1, 1)
    assert _rearrange((1, 2, 1, 3, 2), (2, 2, 1), (2, 2, 1)) == (1, 2, 1, 3, 2)
    assert _rearrange((1, 1, 1, 2, 3), (3, 1, 1), (1, 3, 1)) == (1, 2, 2, 2, 3)
    assert _rearrange((1, 2, 2, 2, 3), (1, 3, 1), (3, 1, 1)) == (1, 1, 1, 2, 3)
    assert _rearrange((3, 1, 3, 2), (1, 1, 2), (2, 1, 1)) == (2, 1, 3, 1)
    assert _rearrange((1, 2, 2), (1, 2), (1, 2, 0)) == (1, 2, 2)
    assert _rearrange([], (), ()) == ()


def test_rearrange_equals_every_matching_permutation():
    # every v in S_4 acts on w as the rearrangement to t, t[v(j) - 1] = c[j], does,
    # since the content's stabilizer fixes w: the claim the label map rests on;
    # one rearrangement per v, not per distinct target
    perms = list(all_permutations(4))
    for n in range(7):
        for w in itertools.product(range(1, 5), repeat=n):
            c = pad(content(w), 4)
            for v in perms:
                assert plactic_act(v, w) == _rearrange(w, c, perm_apply(v, c)), (w, v)


def test_rearrange_rejects_a_non_rearrangement():
    for w, target in [((1, 2, 2), (2, 2)), ((1, 2), (1, 1, 1)), ((1, 2, 2), (2, 1, 1))]:
        with pytest.raises(ValueError, match="is not a rearrangement of"):
            _rearrange(w, content(w), target)
    # a letter past the target's length
    with pytest.raises(ValueError, match="cannot pad"):
        _rearrange((2,), (0, 1), (1,))


def test_permutation_algebra():
    def simple(r):
        s = list(range(1, 5))
        s[r - 1], s[r] = s[r], s[r - 1]
        return tuple(s)

    for w in all_permutations(4):
        inverse = tuple(sorted(range(1, 5), key=lambda i: w[i - 1]))
        assert perm_mul(w, inverse) == (1, 2, 3, 4)
        word = reduced_word(w)
        assert len(word) == inversions(w)
        rebuilt = (1, 2, 3, 4)
        for r in word:
            rebuilt = perm_mul(rebuilt, simple(r))
        assert rebuilt == w
        assert perm_sign(w) == (-1) ** len(word)


def test_roots_of_examples():
    assert roots_of((4,)) == ()
    assert roots_of(()) == ()
    n = 4
    assert roots_of((1,) * n) == tuple(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    assert roots_of((2, 1)) == ((1, 3), (2, 3))
    for n in range(1, 7):
        for eta in compositions(n):
            block = [k for k, e in enumerate(eta) for _ in range(e)]
            assert roots_of(eta) == tuple(sorted(
                (i + 1, j + 1) for i in range(n) for j in range(n) if block[i] < block[j]
            ))


def test_roots_count_invariant():
    for n in range(1, 7):
        for eta in compositions(n):
            expected = sum(
                eta[i] * eta[j]
                for i in range(len(eta))
                for j in range(i + 1, len(eta))
            )
            assert len(roots_of(eta)) == expected


def test_rect_sequence_examples():
    rs = rect_sequence((2, 2, 1), (3, 2, 2, 1, 1))
    assert rs.rects == ((3, 2), (2, 1), (1,))
    assert block_starts(rs.eta) == (0, 2, 4, 5)
    kostka_case = rect_sequence((1, 1, 1), (3, 1, 1))
    assert kostka_case.rects == ((3,), (1,), (1,))
    assert rect_sequence((3,), (2, 1, 0)).rects == ((2, 1, 0),)


def test_normalize_index_rejects_mismatched_lengths():
    # KIndex checks the lengths when it is built, so normalization never sees a mismatch
    for lam, gamma, eta in [((1, 0), (1, 0, 0), (1, 1)), ((1, 0, 0), (1, 0), (1, 1))]:
        with pytest.raises(ValueError, match="inconsistent index"):
            KIndex(lam, gamma, eta)


@pytest.mark.parametrize("eta, gamma, message", [
    ((2,), (1,), "does not tile"),
    ((1, 1), (1, 1, 1), "does not tile"),
    ((), (1,), "does not tile"),
    ((2, 0), (1, 1), "must be positive"),
    ((3, -1), (1, 1), "must be positive"),
])
def test_rect_sequence_rejects_an_eta_that_does_not_tile_gamma(eta, gamma, message):
    with pytest.raises(ValueError, match=message):
        rect_sequence(eta, gamma)
    with pytest.raises(ValueError, match=message):
        RectSequence(eta, gamma)


def normalized_triple(lam, gamma, eta):
    """(sign, lambda, gamma) of ``KIndex(lam, gamma, eta).normalized()``, or None."""
    if (norm := KIndex(lam, gamma, eta).normalized()) is None:
        return None
    sign, nidx = norm
    assert nidx.eta == eta
    return sign, nidx.lam, nidx.gamma


def test_normalize_index_examples():
    # one-element blocks are always dominant
    assert normalized_triple((1, 1), (0, 2), (1, 1)) == (1, (1, 1), (0, 2))
    # shifting both weights leaves the normalized data shifted consistently
    base = normalized_triple((2, 1, 0), (1, 1, 1), (1, 2))
    shifted = normalized_triple((3, 2, 1), (2, 2, 2), (1, 2))
    assert base and shifted
    assert shifted[0] == base[0]
    assert shifted[1] == tuple(x + 1 for x in base[1])
    # straightening inside a block flips the sign
    assert normalized_triple((2, 1, 0), (1, 0, 2), (1, 2)) == (-1, (2, 1, 0), (1, 1, 1))
    # a stuck repeat is zero
    assert normalized_triple((2, 1, 0), (1, 0, 1), (1, 2)) is None


def test_normalize_index_idempotent():
    for lam in itertools.product(range(-1, 3), repeat=3):
        for gamma in itertools.product(range(-1, 3), repeat=3):
            for eta in compositions(3):
                res = normalized_triple(lam, gamma, eta)
                if res is None:
                    continue
                sign, lam2, gamma2 = res
                again = normalized_triple(lam2, gamma2, eta)
                assert again == (1, lam2, gamma2)


def test_box_complement():
    rs = rect_sequence((2,), (2, 1))
    lam_c, rs_c = box_complement((2, 1), rs)
    assert lam_c == (1, 0)
    assert rs_c.rects == ((1, 0),)
    full = rect_sequence((3,), (2, 2, 2))
    lam_full, _ = box_complement((2, 2, 2), full)
    assert lam_full == (0, 0, 0)
    # the blocks come in reverse order, each complemented and reversed
    lam_c, rs_c = box_complement((3, 1), rect_sequence((1, 2), (2, 1, 1)))
    assert lam_c == (3, 2, 0)
    assert rs_c.rects == ((2, 2), (1,))


def test_n_stat():
    assert n_stat((1, 1, 1)) == 3
    assert n_stat((3,)) == 0
    assert n_stat((2, 2)) == 2


def test_partition_helpers():
    assert set(partitions(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert partitions(4, max_len=2) == ((4,), (3, 1), (2, 2))
    assert len(compositions(4)) == 8
    assert sorted(partitions_containing((2, 1), 4, 3)) == [(2, 1, 1), (2, 2), (3, 1)]
    assert sorted(partitions_containing((2, 1), 4, 3, (3, 1, 1))) == [(2, 1, 1), (3, 1)]
    assert trim((2, 1, 0, 0)) == (2, 1)
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert pad((2, 1, 0, 0), 3) == (2, 1, 0)
    with pytest.raises(ValueError, match="cannot pad"):
        pad((2, 1), 1)
    assert from_rects([(3, 2), (2, 1), (1,)]).eta == (2, 2, 1)


def partitions_reference(n, max_len=None, max_part=None):
    """The former ``partitions``: its own recursion on the first part."""
    if max_part is None:
        max_part = n
    if max_len is None:
        max_len = n
    if n == 0:
        return [()]
    if max_len == 0 or max_part == 0:
        return []
    return [
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in partitions_reference(n - first, max_len - 1, first)
    ]


def contains(outer, inner):
    return len(inner) <= len(outer) and all(map(operator.ge, outer, inner))


def test_partitions_match_the_recursive_reference_in_order():
    cases = 0
    for n in range(11):
        for max_len in (None, *range(n + 2)):
            for max_part in (None, *range(n + 2)):
                expected = tuple(partitions_reference(n, max_len, max_part))
                if max_part is None:
                    got = partitions(n, max_len)
                else:
                    length = n if max_len is None else max_len
                    got = partitions_containing((), n, length, (max_part,) * length)
                assert got == expected, (n, max_len, max_part)
                cases += 1
    assert cases == 814


def test_partitions_containing_filters_the_reference_in_order():
    # every beta inside (3, 2, 1); the walker stops each loop at the first part too
    # small for the later parts to hold the rest, which must not lose a partition
    betas = [b for s in range(7) for b in partitions_reference(s) if contains((3, 2, 1), b)]
    withins = (None, (3, 2, 1), (4, 2, 2, 1), (5, 3), (2, 2, 2, 2), (8,))
    found = 0
    for args in itertools.product(betas, range(9), range(5), withins):
        beta, size, max_len, within = args
        expected = tuple(
            p for p in partitions_reference(size, max_len)
            if contains(p, beta) and (within is None or contains(within, p))
        )
        assert partitions_containing(*args) == expected, args
        found += len(expected)
    assert len(betas) == 14
    assert found == 2309


def straighten_reference(alpha):
    """The former ``straighten``: vec_add, rho, set and vec_sub on every call."""
    n = len(alpha)
    v = vec_add(alpha, rho(n))
    if len(set(v)) < n:
        return None
    return perm_sign([-x for x in v]), vec_sub(tuple(sorted(v, reverse=True)), rho(n))


@pytest.mark.parametrize("seed", range(3))
def test_straighten_matches_the_reference_on_random_weights(seed):
    rng = random.Random(seed)
    weights = [()] + [
        tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 8))) for _ in range(3000)
    ]
    kept = 0
    for alpha in weights:
        result = straighten(alpha)
        assert result == straighten_reference(alpha), alpha
        kept += result is not None
    # both outcomes occur often
    assert 300 < kept < len(weights) - 300
