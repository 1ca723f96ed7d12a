import itertools
import random

import pytest

from qlr.kpoly import (
    CONJECTURAL,
    ENGINES,
    KIndex,
    ONE,
    PROVEN,
    QPoly,
    ZERO,
    _root_flow_arrangements,
    bott_straighten,
    charge_engine_status,
    cocharge_kostka,
    compute,
    coset_reps,
    dominant_reorderings,
    dual_index,
    index_from_rects,
    k_at_one,
    k_by_charge,
    k_by_kostant,
    k_by_recurrence,
    k_by_series,
    kostant_q,
    kostka_foulkes,
    kostka_number,
    lr3,
    lr_coefficient,
    lr_skew_times_row,
    standard_cocharge_sum,
    two_rectangle_formula,
)
from qlr.shapes import (
    all_permutations,
    box_complement,
    compositions,
    conjugate,
    pad,
    partitions,
    perm_apply,
    perm_inverse,
    perm_sign,
    rect_sequence,
    rho,
    vec_add,
    vec_sub,
)

q = QPoly.term


def test_qpoly_arithmetic():
    p = q(2) + q(0, -1)
    assert p == QPoly({0: -1, 2: 1})
    assert p * p == QPoly({0: 1, 2: -2, 4: 1})
    assert (p - p) == ZERO and not (p - p)
    assert p.at_one() == 0
    assert (3 * q(1)).coefficient(1) == 3
    assert q(1).degree() == 1 and ZERO.degree() is None
    assert repr(q(1) - 1) == "-1 + q"
    assert repr(q(3) + 3 * q(4)) == "q^3 + 3*q^4"
    assert repr(ZERO) == "0" and repr(ONE) == "1"
    assert QPoly.from_json(p.to_json()) == p
    assert q(0).leq(q(0) + q(1)) and not (q(0) + q(1)).leq(q(0))


def test_bott_straighten():
    assert bott_straighten((1, 1)) == (1, (1, 1))
    assert bott_straighten((0, 1)) is None
    assert bott_straighten((0, 2)) == (-1, (1, 1))
    assert bott_straighten((2, 1, 0)) == (1, (2, 1, 0))


def test_kostant_counts():
    # single root: q^k on the k-fold multiple of its weight
    assert kostant_q((1, 1), (3, -3)) == q(3)
    assert kostant_q((1, 1), (0, 0)) == ONE
    assert kostant_q((1, 1), (-1, 1)) == ZERO
    assert kostant_q((2,), (1, -1)) == ZERO


def _arrangement_demands(idx: KIndex):
    """(sign of w, demand w^{-1}(lam + rho) - (gamma + rho)) for every w in S_n."""
    n = idx.n
    lam_rho = vec_add(idx.lam, rho(n))
    gamma_rho = vec_add(idx.gamma, rho(n))
    for w in all_permutations(n):
        yield perm_sign(w), vec_sub(perm_apply(perm_inverse(w), lam_rho), gamma_rho)


def kostant_reference(idx: KIndex) -> QPoly:
    """Kostant's formula summed over all n! permutations, without pruning."""
    if sum(idx.lam) != sum(idx.gamma):
        return ZERO
    total = ZERO
    for sign, d in _arrangement_demands(idx):
        part = kostant_q(idx.eta, d)
        if part:
            total = total + part * sign
    return total


def _passes_prune_tests(eta, d) -> bool:
    return (all(s >= 0 for s in itertools.accumulate(d))
            and all(x >= 0 for x in d[: eta[0]]))


def test_pruned_arrangements_are_exactly_the_root_flow_candidates():
    # every arrangement the prune tests reject has kostant_q == 0, and the
    # walk yields the others with their signs: n <= 5, every eta, every
    # partition lam of size <= 2, every gamma of that size with entries <= 2
    for n in range(1, 6):
        for eta in compositions(n):
            for size in range(3):
                for lam in partitions(size, max_len=n):
                    lam = pad(lam, n)
                    for gamma in itertools.product(range(3), repeat=n):
                        if sum(gamma) != size:
                            continue
                        idx = KIndex(lam, gamma, eta)
                        kept = []
                        for sign, d in _arrangement_demands(idx):
                            if _passes_prune_tests(eta, d):
                                kept.append((sign, d))
                            else:
                                assert kostant_q(eta, d) == ZERO, (idx, d)
                        walked = _root_flow_arrangements(
                            vec_add(lam, rho(n)), vec_add(gamma, rho(n)), eta[0])
                        assert sorted(walked) == sorted(kept), idx


def _random_dominant_index(rng: random.Random):
    """A random index with partition lam and partition blocks, n in 5..7."""
    n = rng.randint(5, 7)
    eta = rng.choice(compositions(n))
    size = rng.randint(1, 6)
    cuts = sorted(rng.randint(0, size) for _ in range(len(eta) - 1))
    block_sizes = [b - a for a, b in zip([0, *cuts], [*cuts, size])]
    gamma = []
    for e, s in zip(eta, block_sizes):
        gamma.extend(pad(rng.choice(list(partitions(s, max_len=e))), e))
    lam = pad(rng.choice(list(partitions(size, max_len=n))), n)
    return KIndex(lam, tuple(gamma), eta)


@pytest.mark.parametrize("seed", range(4))
def test_kostant_walk_matches_reference_and_recurrence(seed):
    rng = random.Random(seed)
    for _ in range(6):
        idx = _random_dominant_index(rng)
        expected = k_by_recurrence(idx.lam, idx.rects())
        assert k_by_kostant(idx) == expected, idx
        assert kostant_reference(idx) == expected, idx


def test_kostka_numbers():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((2, 1), (2, 1)) == 1
    assert kostka_number((3, 1), (3, 1)) == 1
    # symmetry under content reordering, by independent enumeration
    for shape in partitions(4):
        for cnt in set(itertools.permutations((2, 1, 1))):
            assert kostka_number(shape, cnt) == kostka_number(shape, (2, 1, 1))


def test_lr_coefficients():
    assert lr3((2, 1), (1,), (1, 1)) == 1
    assert lr3((2, 1), (2, 1), ()) == 1
    assert lr3((2, 2), (2, 1), (1,)) == 1
    assert lr3((2, 2), (1,), (1, 1)) == 0
    assert lr_coefficient((2, 1), (), (2, 1), ()) == 1
    # <s_{sigma}, s_{alpha/r1} s_beta> collapses correctly at the edges
    assert lr_skew_times_row((2, 1), (2, 1), (2, 1), ()) == 0
    assert lr_skew_times_row((), (2, 1), (2, 1), ()) == 1
    assert lr_skew_times_row((2,), (3, 1), (2,), ()) == 1


def test_lr_skew_times_row_against_direct_expansion():
    # independent oracle: r1-lattice fillings of sigma/beta by alpha - r1
    for alpha in partitions(4):
        for r1 in partitions(2):
            for beta in partitions(2):
                deg = sum(alpha) - sum(r1)
                for sigma in partitions(deg + sum(beta)):
                    direct = lr_coefficient(sigma, beta, alpha, r1)
                    assert lr_skew_times_row(sigma, alpha, r1, beta) == direct


def test_paper_values_all_engines():
    cases = [
        (KIndex((1, 1), (0, 2), (1, 1)), q(1) - 1),
        (KIndex((1, 0), (0, 1), (1, 1)), q(1)),
        (KIndex((2, 1, 0), (0, 2, 1), (1, 1, 1)), q(3) + q(2) - q(1)),
    ]
    for k in range(6):
        cases.append((KIndex((k, -k), (0, 0), (1, 1)), q(k)))
    for idx, expected in cases:
        for engine in ("kostant", "recurrence", "series"):
            poly, status = compute(idx, engine)
            assert poly == expected, (idx, engine, poly)
            assert status == "exact"


def test_catabolizable_fixture_value():
    rs = rect_sequence((2, 2, 1), (3, 2, 2, 1, 1))
    idx = KIndex((5, 3, 1, 0, 0), rs.gamma, rs.eta)
    expected = q(3) + 3 * q(4)
    assert k_by_recurrence((5, 3, 1, 0, 0), rs) == expected
    assert k_by_kostant(idx) == expected
    assert k_by_series(idx) == expected
    res = k_by_charge((5, 3, 1), rs)
    assert res.poly == expected and res.status == CONJECTURAL
    assert k_at_one((5, 3, 1), rs) == 4


def test_empty_index():
    assert k_by_recurrence((), rect_sequence((), ())) == ONE
    assert index_from_rects((), []).n == 0


def test_index_rejects_nonpositive_eta_parts():
    for eta in ((3, -1), (2, 0), (0, 2)):
        with pytest.raises(ValueError, match="eta parts must be positive"):
            KIndex((1, 0), (1, 0), eta)


def test_single_block_is_kronecker():
    assert k_by_recurrence((2, 1), rect_sequence((2,), (2, 1))) == ONE
    assert k_by_recurrence((3, 0), rect_sequence((2,), (2, 1))) == ZERO


def test_coset_reps():
    assert sorted(coset_reps((1, 1), 1)) == [(-1, (0,), (2,)), (1, (1,), (1,))]
    assert coset_reps((2, 1, 0), 3) == [(1, (2, 1, 0), ())]
    for m in range(4):
        assert len(coset_reps((3, 2, 1), m)) == [1, 3, 3, 1][m]


def test_charge_engine_requires_dominant_blocks():
    with pytest.raises(ValueError):
        k_by_charge((1, 1), rect_sequence((1, 1), (0, 2)))


def test_engine_status_labels():
    assert charge_engine_status(rect_sequence((1, 1, 1), (2, 1, 1))) == PROVEN
    assert charge_engine_status(rect_sequence((2, 1, 1), (2, 2, 1, 1))) == PROVEN
    assert charge_engine_status(rect_sequence((2, 3), (2, 2, 1, 1, 1))) == PROVEN
    assert charge_engine_status(rect_sequence((2, 2, 1), (1,) * 5)) == PROVEN
    assert charge_engine_status(rect_sequence((2, 2, 1), (3, 2, 2, 1, 1))) == CONJECTURAL
    assert charge_engine_status(rect_sequence((1, 2, 2), (1,) * 5)) == CONJECTURAL


def test_kostka_foulkes_case():
    # single-row blocks: the charge engine over all fillings
    lam, gamma = (2, 1, 0), (1, 1, 1)
    rs = rect_sequence((1, 1, 1), gamma)
    res = k_by_charge(lam, rs)
    assert res.status == PROVEN
    assert res.poly == q(1) + q(2)
    assert res.poly == kostka_foulkes((2, 1), gamma)
    assert k_by_kostant(KIndex(lam, gamma, (1, 1, 1))) == res.poly
    assert kostka_foulkes((2, 1), (2, 1)) == ONE


def test_cocharge_kostka():
    assert cocharge_kostka((2, 1), (1, 1, 1)) == q(1) + q(2)
    # the unique filling at lam = mu carries cocharge n(mu)
    assert cocharge_kostka((2, 1), (2, 1)) == q(1)
    assert cocharge_kostka((3, 1), (3, 1)) == q(1)


def test_cocharge_kostka_column_identity():
    for n in range(1, 7):
        for eta in partitions(n):
            rs = rect_sequence(eta, (1,) * n)
            for lam in partitions(n):
                assert k_by_recurrence(pad(lam, n), rs) == cocharge_kostka(
                    conjugate(lam), eta
                )


def test_standard_cocharge_sum_matches_cocharge_kostka():
    for n in range(1, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                assert standard_cocharge_sum(lam, mu) == cocharge_kostka(lam, mu)
    assert standard_cocharge_sum((2, 1), (1, 1, 1)) == q(1) + q(2)
    # only the one-row shape survives mu = (n)
    assert standard_cocharge_sum((3,), (3,)) == ONE
    assert standard_cocharge_sum((2, 1), (3,)) == ZERO


def test_two_rectangle_formula():
    for n in range(2, 5):
        for m in range(1, n):
            for s in range(1, 6):
                for gam in partitions(s, max_len=n):
                    gamma = pad(gam, n)
                    rs = rect_sequence((m, n - m), gamma)
                    r1, r2 = rs.rects
                    for lam in partitions(s, max_len=n):
                        lamp = pad(lam, n)
                        closed = two_rectangle_formula(lamp, r1, r2)
                        assert closed == k_by_recurrence(lamp, rs), (lam, gamma, m)
                        if rs.is_dominant():
                            assert closed == k_by_charge(lamp, rs).poly


def test_dual_and_box_complement_identities():
    for n in range(1, 4):
        for s in range(0, 5):
            for gam in partitions(s, max_len=n):
                gamma = pad(gam, n)
                for eta in compositions(n):
                    rs = rect_sequence(eta, gamma)
                    for lam in partitions(s, max_len=n):
                        lamp = pad(lam, n)
                        idx = KIndex(lamp, gamma, eta)
                        base = k_by_recurrence(lamp, rs)
                        dual, _ = compute(dual_index(idx), "recurrence")
                        assert dual == base
                        lam_c, rs_c = box_complement(lamp, rs)
                        assert k_by_recurrence(lam_c, rs_c) == base
                        if rs.is_dominant():
                            for other in dominant_reorderings(rs):
                                assert k_by_recurrence(pad(lamp, other.n), other) == base


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        compute(KIndex((1,), (1,), (1,)), "magic")
    assert set(ENGINES) == {"kostant", "recurrence", "series", "charge"}


def test_degree_bound_override():
    idx = KIndex((2, 1, 0), (0, 2, 1), (1, 1, 1))
    full = k_by_series(idx)
    assert k_by_series(idx, degree_bound=10) == full
    # a deliberately small bound truncates: exactness needs the default bound
    truncated = k_by_series(idx, degree_bound=1)
    assert truncated != full
