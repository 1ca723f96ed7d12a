import itertools

import pytest

from qlr.charge import charge, charge_tableau, cocharge_grade
from qlr.shapes import is_weakly_decreasing, n_stat, partitions
from qlr.tableaux import all_cst_of_content, content, schensted_p, tab, yamanouchi_tableau
from qlr.verify import check_charge_axioms


# Reference: the two-phase charge that the one-pass circular reading replaced.


def charge_standard(w) -> int:
    """Charge of a word of content (1, 1, ..., 1).

    The letter 1 gets index 0; letter i gets the index of i-1, plus one when
    i sits to the right of i-1.  Charge is the sum of the indices.
    """
    w = tuple(w)
    n = len(w)
    pos = [0] * (n + 1)
    for p, x in enumerate(w):
        if not 1 <= x <= n or pos[x]:
            raise ValueError(f"{w} is not standard")
        pos[x] = p + 1
    total = idx = 0
    for i in range(2, n + 1):
        if pos[i] > pos[i - 1]:
            idx += 1
        total += idx
    return total


def circular_decompose(w):
    """Split a partition-content word into standard subwords.

    Each subword, returned with its 0-based positions, is extracted by the
    left circular reading: pick the first 1 from the right end, then the
    first 2 left of it, wrapping around to the right end whenever the scan
    falls off the left edge.
    """
    w = tuple(w)
    cnt = content(w)
    if not is_weakly_decreasing(cnt):
        raise ValueError(f"content {cnt} is not a partition")
    free = list(range(len(w)))
    out = []
    while free:
        letters = sorted({w[p] for p in free})
        chosen = []
        cursor = len(w)
        for v in range(1, len(letters) + 1):
            # free is ascending and keeps partition content: ``at`` is nonempty
            at = [p for p in free if w[p] == v]
            cursor = max((p for p in at if p < cursor), default=at[-1])
            chosen.append(cursor)
        chosen.sort()
        out.append((tuple(w[p] for p in chosen), tuple(chosen)))
        free = [p for p in free if p not in set(chosen)]
    return tuple(out)


def test_charge_standard_examples():
    assert charge_standard((4, 3, 2, 1, 5)) == 1
    assert charge_standard((3, 4, 1, 2, 5)) == 7
    for n in range(1, 6):
        assert charge_standard(tuple(range(n, 0, -1))) == 0
        assert charge_standard(tuple(range(1, n + 1))) == n * (n - 1) // 2


def test_charge_standard_rejects_nonstandard():
    with pytest.raises(ValueError):
        charge_standard((1, 1))
    with pytest.raises(ValueError):
        charge_standard((2, 3))


def test_circular_decomposition_example():
    dec = circular_decompose((4, 3, 2, 3, 4, 1, 1, 2, 5, 5))
    assert dec[0] == ((4, 3, 2, 1, 5), (0, 1, 2, 6, 9))
    assert dec[1] == ((3, 4, 1, 2, 5), (3, 4, 5, 7, 8))


def test_circular_decomposition_trivia():
    assert [w for w, _ in circular_decompose((1, 1))] == [(1,), (1,)]
    std = (2, 4, 1, 3)
    assert circular_decompose(std) == ((std, (0, 1, 2, 3)),)
    with pytest.raises(ValueError):
        circular_decompose((2, 2, 1))


def test_one_pass_reading_matches_two_phase_charge():
    words = [
        w
        for n in range(8)
        for w in itertools.product(range(1, 6), repeat=n)
        if is_weakly_decreasing(content(w))
    ]
    assert len(words) == 5111
    for w in words:
        assert charge(w) == sum(charge_standard(u) for u, _ in circular_decompose(w)), w


def test_charge_examples():
    assert charge((4, 3, 2, 3, 4, 1, 1, 2, 5, 5)) == 8
    assert charge(()) == 0
    assert charge((2, 2, 1, 1)) == 0


def test_yamanouchi_words_have_zero_charge():
    for n in range(1, 7):
        for shape in partitions(n):
            assert charge_tableau(yamanouchi_tableau(shape)) == 0


def test_cocharge():
    assert cocharge_grade(tab([1, 1, 2, 2])) == 0
    assert cocharge_grade(tab([1, 1], [2, 2])) == n_stat((2, 2)) == 2
    assert cocharge_grade(schensted_p((4, 3, 2, 3, 4, 1, 1, 2, 5, 5))) == 20 - 8


def test_cocharge_grade_is_n_mu_less_charge_on_partition_content():
    # the cocharge of a word of partition content mu, n(mu) - charge, on every
    # tableau of partition content and size <= 7
    tableaux = [t for n in range(8) for mu in partitions(n) for t in all_cst_of_content(mu)]
    assert len(tableaux) == 837
    for t in tableaux:
        assert cocharge_grade(t) == n_stat(t.content()) - charge(t.word()), t


def test_charge_ignores_a_shift_of_the_alphabet():
    # a word that lacks the letter 1 has the charge of the word shifted down
    # until its least letter is 1
    words = [w for n in range(1, 8) for w in itertools.product(range(2, 5), repeat=n)]
    assert len(words) == 3279
    for w in words:
        assert charge(w) == charge(tuple(x - min(w) + 1 for x in w)), w


def test_charge_of_general_content():
    # leading zero counts relabel away
    assert charge((2, 2)) == 0
    assert charge((3, 3, 2)) == charge((2, 2, 1))
    # non-dominant content reduces through the crystal reflection:
    # s_1 maps (1,2,2) to (1,1,2), whose circular reading gives charge 1
    from qlr.crystal import reflection

    assert reflection((1, 2, 2), 1) == (1, 1, 2)
    assert charge((1, 1, 2)) == 1
    assert charge((1, 2, 2)) == 1


def test_tableau_wrappers():
    t = yamanouchi_tableau((2, 2))
    assert charge_tableau(t) == 0
    assert cocharge_grade(t) == 2


def test_charge_axioms_small():
    rep = check_charge_axioms(max_len=5, alphabet=3)
    assert rep.ok, rep.counterexamples[:3]
