import itertools
import random
from functools import cache
from operator import ge, gt

import pytest

from qlr import kpoly
from qlr.crystal import is_mu_lattice
from qlr.kpoly import (
    CONJECTURAL,
    ENGINES,
    KIndex,
    ONE,
    PROVEN,
    QPoly,
    ZERO,
    charge_engine_status,
    cocharge_kostka,
    compute,
    default_degree_bound,
    dominant_reorderings,
    k_by_charge,
    k_by_kostant,
    k_by_recurrence,
    k_by_series,
    kostka_number,
    lr_coefficient,
    lr_product,
    series_decomposition,
    series_monomials,
    standard_cocharge_sum,
)
from qlr.shapes import (
    all_permutations,
    block_starts,
    box_complement,
    compositions,
    conjugate,
    dominates,
    from_rects,
    is_weakly_decreasing,
    pad,
    partitions,
    partitions_upto,
    perm_sign,
    rect_sequence,
    rho,
    roots_of,
    straighten,
    trim,
    vec_add,
    vec_sub,
)
from qlr.tableaux import Tableau, enumerate_cst
from qlr.verify import crosscheck_family, index_family

q = QPoly.term


def star(v):
    return tuple(-x for x in reversed(v))


def dual_index(idx: KIndex) -> KIndex:
    """Contragredient dual: negate-reverse both weights, reverse the blocks."""
    return KIndex(star(idx.lam), star(idx.gamma), idx.eta[::-1])


def test_qpoly_arithmetic():
    p = q(2) + q(0, -1)
    assert p == QPoly({0: -1, 2: 1})
    assert p * p == QPoly({0: 1, 2: -2, 4: 1})
    assert (p - p) == ZERO and not (p - p)
    assert p.at_one() == 0
    assert (3 * q(1)).coefficient(1) == 3
    assert repr(q(1) - 1) == "-1 + q"
    assert repr(q(3) + 3 * q(4)) == "q^3 + 3*q^4"
    assert repr(ZERO) == "0" and repr(ONE) == "1"
    assert QPoly.from_json(p.to_json()) == p
    assert q(0).leq(q(0) + q(1)) and not (q(0) + q(1)).leq(q(0))


def test_qpoly_equals_ints_hashes_by_value_and_is_read_only():
    assert 3 * q(0) == 3 and ZERO == 0 and q(1) != 1
    assert len({q(1) + 2, QPoly({1: 1, 2: 0, 0: 2}), q(1)}) == 2
    with pytest.raises(AttributeError, match="immutable"):
        ONE.coeffs = {}


def test_bott_straighten():
    assert straighten((1, 1)) == (1, (1, 1))
    assert straighten((0, 1)) is None
    assert straighten((0, 2)) == (-1, (1, 1))
    assert straighten((2, 1, 0)) == (1, (2, 1, 0))


# ---------------------------------------------------------------------------
# engine A's former per-arrangement walk, kept as the reference: the
# arrangements of lambda + rho whose demand meets Gale's condition, each
# counted by a q-count of the root flows with that demand


def _is_root_flow(eta, demand) -> bool:
    """Gale's condition on ``demand``."""
    before = start = 0
    for e in eta:
        block = demand[start:start + e]
        if before + sum(x for x in block if x < 0) < 0:
            return False
        before, start = before + sum(block), start + e
    return before == 0


@cache
def _kostant_count(widths, state) -> tuple[int, ...]:
    """Coefficients by q-degree of the sum of q^|m| over the root flows m
    with demand ``state``, which meets Gale's condition, on blocks of sizes
    ``widths`` (the first cut down to the positions left in it).

    The first position's outflow ``state[0]`` is placed from the farthest
    block inward.  Sending a_p to p and A to block b or beyond keeps b's
    condition iff sum(state before b) - A + sum_p min(0, state[p] + a_p) >= 0:
    each unit past p's deficit spends a unit of b's slack, and the nearest
    block takes the rest, above a floor that keeps the rest placeable.  So
    every state built meets Gale's condition.
    """
    if len(widths) < 2:
        return (1,)  # the last block, whose demand is zero
    out = state[0]
    rest = widths[1:] if widths[0] == 1 else (widths[0] - 1,) + widths[1:]
    if not out:
        return _kostant_count(rest, state[1:])
    ends = list(itertools.accumulate(widths))
    blocks = list(zip(ends, ends[1:]))
    base = [sum(state[:s]) + sum(x for x in state[s:e] if x < 0) for s, e in blocks]
    deficit = [max(0, -x) for x in state]
    first = ends[0]
    child = list(state[1:])
    acc: list[int] = []

    def place(b, p, left, slack):
        if p < blocks[b][0]:
            if b == 0:
                coeffs = _kostant_count(rest, tuple(child))
                acc.extend([0] * (len(coeffs) - len(acc)))
                for k, c in enumerate(coeffs):
                    acc[k] += c
                return
            b, p = b - 1, blocks[b - 1][1] - 1
            slack = base[b] - (out - left)
        d = deficit[p]
        hi = min(left, d + slack)
        lo = max(0, left - slack - sum(deficit[first:p])) if b == 0 else 0
        if p == first:
            lo = hi = left
        for a in range(lo, hi + 1):
            child[p - 1] = state[p] + a
            place(b, p - 1, left - a, slack - a + d if a > d else slack)
        child[p - 1] = state[p]

    place(len(blocks) - 1, blocks[-1][1] - 1, out, base[-1])
    return (0,) * out + tuple(acc)


def kostant_q(eta, demand) -> QPoly:
    """Sum of q^|m| over maps m from the block root set to N with
    sum of m(i,j) (e_i - e_j) equal to ``demand``."""
    eta, demand = tuple(eta), tuple(demand)
    if not _is_root_flow(eta, demand):
        return ZERO
    return QPoly(dict(enumerate(_kostant_count(eta, demand))))


def _root_flow_arrangements(lam_rho, gamma_rho, eta):
    """Yield (sign, demand) for the arrangements of ``lam_rho`` whose demand
    ``arrangement - gamma_rho`` meets Gale's condition, tested as positions
    are filled (the total is zero when |lam_rho| = |gamma_rho|).  Each
    arrangement is one w, as ``lam_rho`` is strictly decreasing, and its
    sign counts the pairs placed out of order.
    """
    n = len(lam_rho)
    starts = set(itertools.accumulate(eta, initial=0))
    used = [False] * n
    demand = [0] * n

    def place(p, before, slack, inversions):
        if p == n:
            yield (-1 if inversions % 2 else 1), tuple(demand)
            return
        if p in starts:
            slack = before
        for k in range(n):
            d = lam_rho[k] - gamma_rho[p]
            if used[k] or slack + d < 0:  # slack >= 0, so only a deficit fails
                continue
            used[k] = True
            demand[p] = d
            yield from place(p + 1, before + d, slack + d if d < 0 else slack,
                             inversions + sum(used[k + 1:]))
            used[k] = False

    yield from place(0, 0, 0, 0)


def kostant_walk_reference(idx: KIndex) -> QPoly:
    """Kostant's sum one root-flow arrangement at a time."""
    if sum(idx.lam) != sum(idx.gamma):
        return ZERO
    n = idx.n
    walk = _root_flow_arrangements(vec_add(idx.lam, rho(n)), vec_add(idx.gamma, rho(n)), idx.eta)
    return sum((kostant_q(idx.eta, d) * sign for sign, d in walk), ZERO)


def test_kostant_counts():
    # single root: q^k on the k-fold multiple of its weight
    assert kostant_q((1, 1), (3, -3)) == q(3)
    assert kostant_q((1, 1), (0, 0)) == ONE
    assert kostant_q((1, 1), (-1, 1)) == ZERO
    assert kostant_q((2,), (1, -1)) == ZERO
    assert kostant_q((1, 1), (2, -1)) == ZERO
    assert kostant_q((), ()) == ONE


@cache
def _reference_count(eta, i, state) -> QPoly:
    """The q-count by brute force: position i sends its whole required
    outflow ``state[0]`` along every weak composition over all later-block
    positions, feasible or not."""
    n = sum(eta)
    if i > n:
        return ONE
    out = state[0]
    if out < 0:
        return ZERO
    block_end = next(b for b in block_starts(eta) if b >= i)
    targets = n - block_end
    if not targets:
        return ZERO if out else _reference_count(eta, i + 1, state[1:])
    total = ZERO
    for comp in _weak_compositions(out, targets):
        nxt = list(state[1:])
        for k, amount in enumerate(comp):
            nxt[block_end - i + k] += amount
        total = total + _reference_count(eta, i + 1, tuple(nxt))
    return q(out) * total


@cache
def _weak_compositions(total, parts):
    if parts == 1:
        return ((total,),)
    return tuple(
        (first,) + rest
        for first in range(total + 1)
        for rest in _weak_compositions(total - first, parts - 1)
    )


def kostant_q_reference(eta, demand) -> QPoly:
    """kostant_q without the feasibility test: every weak composition."""
    eta, demand = tuple(eta), tuple(demand)
    if sum(demand) != 0:
        return ZERO
    return _reference_count(eta, 1, demand)


def _is_root_flow_demand(eta, d) -> bool:
    """Gale's condition: the total is zero and, at each block, what the
    earlier blocks send out covers the block's deficits."""
    starts = list(itertools.accumulate(eta, initial=0))
    return sum(d) == 0 and all(
        sum(d[:a]) + sum(min(x, 0) for x in d[a:b]) >= 0
        for a, b in zip(starts, starts[1:])
    )


def test_kostant_q_is_nonzero_exactly_on_root_flow_demands():
    # n <= 5, every eta, every demand with entries in [-2, 2] summing to 0
    for n in range(1, 6):
        for eta in compositions(n):
            for d in itertools.product(range(-2, 3), repeat=n):
                if sum(d):
                    continue
                value = kostant_q(eta, d)
                assert value == kostant_q_reference(eta, d), (eta, d)
                assert bool(value) == _is_root_flow_demand(eta, d), (eta, d)


def test_kostant_count_builds_only_root_flow_states(monkeypatch):
    # every (block sizes, demand) state the count recurses into meets
    # Gale's condition: n <= 5, every eta, entries in [-2, 2]
    count = _kostant_count
    count.cache_clear()
    states = []

    def recorded(widths, state):
        states.append((widths, state))
        return count(widths, state)

    monkeypatch.setitem(globals(), "_kostant_count", recorded)
    for n in range(1, 6):
        for eta in compositions(n):
            for d in itertools.product(range(-2, 3), repeat=n):
                kostant_q(eta, d)
    assert len(states) > 1000
    assert all(_is_root_flow_demand(w, s) for w, s in states)


def _random_flow_demand(rng: random.Random, eta):
    """The demand of a random flow on a few roots, knocked off it half the
    time."""
    n = sum(eta)
    d = [0] * n
    roots = roots_of(eta)
    for _ in range(rng.randint(1, 6) if roots else 0):
        i, j = rng.choice(roots)
        amount = rng.randint(1, 2)
        d[i - 1] += amount
        d[j - 1] -= amount
    if rng.random() < 0.5:
        d[rng.randrange(n)] += 1
        d[rng.randrange(n)] -= 1
    return tuple(d)


@pytest.mark.parametrize("seed", range(4))
def test_kostant_q_matches_reference_on_random_demands(seed):
    rng = random.Random(seed)
    for _ in range(12):
        eta = rng.choice(compositions(rng.randint(6, 8)))
        d = _random_flow_demand(rng, eta)
        value = kostant_q(eta, d)
        assert value == kostant_q_reference(eta, d), (eta, d)
        assert bool(value) == _is_root_flow_demand(eta, d), (eta, d)


def _arrangement_demands(idx: KIndex):
    """(sign of w, demand w^{-1}(lam + rho) - (gamma + rho)) for every w in S_n."""
    n = idx.n
    lam_rho = vec_add(idx.lam, rho(n))
    gamma_rho = vec_add(idx.gamma, rho(n))
    for w in all_permutations(n):
        yield perm_sign(w), vec_sub([lam_rho[x - 1] for x in w], gamma_rho)


def kostant_reference(idx: KIndex) -> QPoly:
    """Kostant's formula summed over all n! permutations, without pruning."""
    if sum(idx.lam) != sum(idx.gamma):
        return ZERO
    total = ZERO
    for sign, d in _arrangement_demands(idx):
        part = kostant_q_reference(idx.eta, d)
        if part:
            total = total + part * sign
    return total


def test_pruned_arrangements_are_exactly_the_root_flow_candidates():
    # every arrangement Gale's condition rejects has kostant_q == 0, the walk
    # yields the others with their signs, and each of those has a nonzero
    # kostant_q: n <= 5, every eta, every partition lam of size <= 2, every
    # gamma of that size with entries <= 2
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
                            if _is_root_flow_demand(eta, d):
                                kept.append((sign, d))
                            else:
                                assert kostant_q(eta, d) == ZERO, (idx, d)
                        walked = _root_flow_arrangements(
                            vec_add(lam, rho(n)), vec_add(gamma, rho(n)), eta)
                        assert sorted(walked) == sorted(kept), idx
                        for _, d in kept:
                            assert kostant_q(eta, d) != ZERO, (idx, d)


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


ANCHOR = KIndex((6, 4, 3, 2, 1, 0, 0, 0), (2,) * 8, (2, 2, 2, 2))


def test_kostant_agrees_with_recurrence_at_the_n8_anchor():
    assert k_by_kostant(ANCHOR) == k_by_recurrence(ANCHOR.lam, ANCHOR.rects())


def test_kostant_walk_matches_the_arrangement_walk_exhaustively():
    # every eta, every partition gamma and lambda, n <= 5, weight <= 5
    checked = 0
    for n in range(1, 6):
        for eta in compositions(n):
            for size in range(6):
                for gamma in partitions(size, max_len=n):
                    for lam in partitions(size, max_len=n):
                        idx = KIndex(pad(lam, n), pad(gamma, n), eta)
                        assert k_by_kostant(idx) == kostant_walk_reference(idx), idx
                        checked += 1
    assert checked == 2318


def test_kostant_walk_matches_the_arrangement_walk_off_partitions():
    # gamma with entries out of order or negative, on random indices
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 6)
        eta = rng.choice(compositions(n))
        gamma = tuple(rng.randint(-2, 3) for _ in range(n))
        size = sum(gamma)
        lam = pad(rng.choice(list(partitions(size, max_len=n))), n) if size >= 0 else (0,) * n
        idx = KIndex(lam, gamma, eta)
        assert k_by_kostant(idx) == kostant_walk_reference(idx), idx


def test_kostant_walk_shares_states_at_the_n8_anchor():
    # the anchor has 260 root-flow arrangements; the walk visits each of
    # its distinct states once, and keeps every one but the root
    kpoly._kostant_states.cache_clear()
    k_by_kostant(ANCHOR)
    states = kpoly._kostant_states(ANCHOR.eta)
    walked = list(_root_flow_arrangements(
        vec_add(ANCHOR.lam, rho(8)), vec_add(ANCHOR.gamma, rho(8)), ANCHOR.eta))
    assert (len(walked), len(states)) == (260, 1273)


def test_kostant_walks_of_one_eta_share_one_table_without_roots():
    other = KIndex(ANCHOR.lam, (3, 1, 2, 2, 2, 2, 2, 2), ANCHOR.eta)
    kpoly._kostant_states.cache_clear()
    k_by_kostant(other)
    alone = len(kpoly._kostant_states(ANCHOR.eta))
    kpoly._kostant_states.cache_clear()
    k_by_kostant(ANCHOR)
    states = kpoly._kostant_states(ANCHOR.eta)
    first = len(states)
    assert k_by_kostant(other) == k_by_recurrence(other.lam, other.rects())
    assert (first, alone, len(states) - first) == (1273, 1204, 56)
    # a root has all 8 entries of lambda + rho still to place
    assert all(len(values) < 8 for values, _ in states)


def test_kostka_numbers():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((2, 1), (2, 1)) == 1
    assert kostka_number((3, 1), (3, 1)) == 1
    # symmetry under content reordering, by independent enumeration
    for shape in partitions(4):
        for cnt in set(itertools.permutations((2, 1, 1))):
            assert kostka_number(shape, cnt) == kostka_number(shape, (2, 1, 1))


def test_lr_coefficients():
    assert lr_coefficient((2, 1), (1,), (1, 1), ()) == 1
    assert lr_coefficient((2, 1), (2, 1), (), ()) == 1
    assert lr_coefficient((2, 2), (2, 1), (1,), ()) == 1
    assert lr_coefficient((2, 2), (1,), (1, 1), ()) == 0
    assert lr_coefficient((2, 1), (), (2, 1), ()) == 1
    # <s_{sigma}, s_{alpha/r1} s_beta> = <s_{sigma/beta}, s_{alpha/r1}> at the edges
    assert lr_coefficient((2, 1), (), (2, 1), (2, 1)) == 0
    assert lr_coefficient((), (), (2, 1), (2, 1)) == 1
    assert lr_coefficient((2,), (), (3, 1), (2,)) == 1
    # an inner shape outside the outer one, or lam not containing mu, counts nothing
    assert lr_coefficient((2,), (1, 1), (1,), ()) == 0
    assert lr_coefficient((1,), (1,), (2,), (1, 1)) == 0
    # a pair that is not a skew shape has no coefficient
    for args in [((2, 2), (0, 1), (2, 1), ()), ((2, 1), (), (1, 2), ()), ((3,), (), (3,), (-1,))]:
        with pytest.raises(ValueError, match="not skew shapes"):
            lr_coefficient(*args)


def lr_coefficient_reference(outer, inner, lam, mu) -> int:
    """Every column-strict filling of outer/inner with content lam - mu,
    kept when its reading word is mu-lattice."""
    outer, inner, lam, mu = trim(outer), trim(inner), trim(lam), trim(mu)
    if len(inner) > len(outer) or any(inner[i] > outer[i] for i in range(len(inner))):
        return 0
    if sum(outer) - sum(inner) != sum(lam) - sum(mu):
        return 0
    ln = max(len(lam), len(mu))
    diff = vec_sub(pad(lam, ln), pad(mu, ln))
    if any(x < 0 for x in diff):
        return 0
    return sum(1 for t in enumerate_cst(outer, inner, diff) if is_mu_lattice(t.word(), mu))


def test_lr_coefficient_matches_the_filtered_enumeration_exhaustively():
    # every outer of size <= 6, inner inside it, mu of size <= 3 and
    # lam of the matching size <= 7
    cases = nonzero = 0
    for outer in partitions_upto(6):
        for inner in partitions_upto(sum(outer)):
            if len(inner) > len(outer) or any(map(gt, inner, outer)):
                continue
            for mu in partitions_upto(3):
                size = sum(outer) - sum(inner) + sum(mu)
                for lam in partitions(size) if size <= 7 else ():
                    expected = lr_coefficient_reference(outer, inner, lam, mu)
                    assert lr_coefficient(outer, inner, lam, mu) == expected, (outer, inner, lam, mu)
                    cases, nonzero = cases + 1, nonzero + bool(expected)
    assert (cases, nonzero) == (9409, 4395)


def test_lr_coefficient_builds_no_tableau(monkeypatch):
    built = []

    def counted(self, *args, **kwargs):
        built.append(args)

    make = Tableau._make
    monkeypatch.setattr(Tableau, "__init__", counted)
    monkeypatch.setattr(Tableau, "_make", staticmethod(lambda rows: built.append(rows) or make(rows)))
    lr_coefficient.cache_clear()
    enumerate_cst.cache_clear()
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1), ()) == 2
    assert lr_coefficient((4, 3, 2), (2, 1), (4, 2, 1), (1,)) == 4
    calls = enumerate_cst.cache_info()
    assert (len(built), calls.hits + calls.misses) == (0, 0)


def lr_skew_times_row_reference(sigma, alpha, r1, beta) -> int:
    """<s_sigma, s_{alpha/r1} s_beta>, summed over the middle partition nu of
    <s_alpha, s_r1 s_nu> <s_sigma, s_beta s_nu>."""
    deg = sum(alpha) - sum(r1)
    return sum(
        lr_coefficient(alpha, r1, nu, ()) * lr_coefficient(sigma, beta, nu, ())
        for nu in partitions(deg, max_len=len(alpha) or 1)
    )


def test_lr_skew_times_row_against_direct_expansion():
    # skewing is adjoint to multiplication: the engine's one count, r1-lattice
    # fillings of sigma/beta by alpha - r1, equals the sum over nu
    cases = nonzero = 0
    for alpha in partitions_upto(5, max_len=3):
        for r1 in partitions_upto(sum(alpha), max_len=len(alpha)):
            if any(x > a for x, a in zip(r1, alpha)):
                continue
            for beta in partitions_upto(3):
                size = sum(alpha) - sum(r1) + sum(beta)
                for sigma in partitions(size, max_len=4):
                    direct = lr_coefficient(sigma, beta, alpha, r1)
                    assert lr_skew_times_row_reference(sigma, alpha, r1, beta) == direct
                    cases, nonzero = cases + 1, nonzero + bool(direct)
    assert (cases, nonzero) == (3214, 1661)


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
    assert lr_product(rs.rects, 3)[(5, 3, 1)] == 4


def test_empty_index():
    assert k_by_recurrence((), rect_sequence((), ())) == ONE
    assert from_rects([]).n == 0


def test_index_rejects_nonpositive_eta_parts():
    for eta in ((3, -1), (2, 0), (0, 2)):
        with pytest.raises(ValueError, match="eta parts must be positive"):
            KIndex((1, 0), (1, 0), eta)


@pytest.mark.parametrize("lam, eta, gamma, message", [
    ((1, 2), (1, 1), (2, 1), "lambda must be a partition"),
    ((3, 1, -1), (3,), (2, 1, 0), "lambda must be a partition"),
    ((2, 1), (2,), (1, 2), "every block .* must be a partition"),
    ((2, 1, 0), (1, 2), (2, 0, 1), "every block .* must be a partition"),
    ((1, 0), (2,), (2, -1), "every block .* must be a partition"),
])
def test_recurrence_rejects_a_non_partition_lambda_or_block(lam, eta, gamma, message):
    with pytest.raises(ValueError, match=message):
        k_by_recurrence(lam, rect_sequence(eta, gamma))


def assert_trusted_is_validated(trusted, public):
    """A trusted build equals and hashes as the validated one, and holds
    tuples of ints, as the recurrence and catabolizability memo keys need."""
    assert trusted == public and hash(trusted) == hash(public)
    for value in trusted:
        assert type(value) is tuple and all(type(x) is int for x in value), trusted


def test_trusted_builds_equal_the_validated_ones():
    seen = 0
    for gamma, eta, lams in index_family(4, 4):
        rs = rect_sequence(eta, gamma)
        assert_trusted_is_validated(rs.tail(), rect_sequence(eta[1:], gamma[eta[0]:]))
        assert_trusted_is_validated(from_rects(rs.rects), rs)
        for other in dominant_reorderings(rs):
            assert_trusted_is_validated(other, rect_sequence(other.eta, other.gamma))
        for lam in lams:
            idx = KIndex(lam, gamma, eta)
            assert_trusted_is_validated(idx.rects(), rs)
            nidx = idx.normalized()[1]
            assert_trusted_is_validated(nidx, KIndex(*nidx))
            if (norm := dual_index(idx).normalized()) is not None:
                assert_trusted_is_validated(norm[1], KIndex(*norm[1]))
            size = max(gamma + lam)
            lam_c, rs_c = box_complement(lam, rs)
            assert lam_c == tuple(size - x for x in reversed(lam))
            assert_trusted_is_validated(
                rs_c, rect_sequence(eta[::-1], tuple(size - x for x in reversed(gamma))))
            seen += 1
    assert seen == 487


def test_single_block_is_kronecker():
    assert k_by_recurrence((2, 1), rect_sequence((2,), (2, 1))) == ONE
    assert k_by_recurrence((3, 0), rect_sequence((2,), (2, 1))) == ZERO


def coset_reps(lam, m: int):
    """Minimal coset data for splitting off the first m positions.

    One entry per m-subset of positions of lam + rho: (sign, alpha, beta)
    where (alpha, beta) are the first m and last n-m parts of
    w^{-1}(lam + rho) - rho.
    """
    lam = tuple(lam)
    n = len(lam)
    if not is_weakly_decreasing(lam):
        raise ValueError(f"lambda must be dominant, got {lam}")
    v = vec_add(lam, rho(n))
    out = []
    for subset in itertools.combinations(range(n), m):
        rest = [i for i in range(n) if i not in subset]
        xi = vec_sub(tuple(v[i] for i in itertools.chain(subset, rest)), rho(n))
        crossings = sum(1 for i in subset for j in rest if j < i)
        out.append((-1 if crossings % 2 else 1, xi[:m], xi[m:]))
    return out


def test_coset_reps():
    assert sorted(coset_reps((1, 1), 1)) == [(-1, (0,), (2,)), (1, (1,), (1,))]
    assert coset_reps((2, 1, 0), 3) == [(1, (2, 1, 0), ())]
    for m in range(4):
        assert len(coset_reps((3, 2, 1), m)) == [1, 3, 3, 1][m]


def kept_coset_cases():
    """(lam, r1, the reference cosets whose alpha contains r1) for every padded
    lam of size <= 6 with n <= 5 and every padded partition r1 of at most |lam|."""
    for n in range(1, 6):
        for lam in partitions_upto(6, n):
            lam = pad(lam, n)
            for m in range(n + 1):
                reference = coset_reps(lam, m)
                for r1 in partitions_upto(sum(lam), m):
                    r1 = pad(r1, m)
                    yield lam, r1, [c for c in reference if all(map(ge, c[1], r1))]


def test_peel_is_the_kept_cosets_weighted_by_skew_lr_numbers():
    # every sigma of the right size, so lr_coefficient alone rules out beta not inside it
    cases = terms = 0
    for lam, r1, kept in kept_coset_cases():
        n, m, size = len(lam), len(r1), sum(lam) - sum(r1)
        reference = [(sum(alpha) - sum(r1), sign * c, pad(sigma, n - m))
                     for sign, alpha, beta in kept
                     for sigma in partitions(size, n - m)
                     if (c := lr_coefficient(sigma, beta, alpha, r1))]
        assert sorted(kpoly._peel(lam, r1)) == sorted(reference), (lam, r1)
        cases += 1
        terms += len(reference)
    assert (cases, terms) == (4208, 2408)


def test_recurrence_peels_each_first_block_once():
    kpoly._peel.cache_clear()
    kpoly._k_rec.cache_clear()
    rep = crosscheck_family(4, 8)
    # once per distinct (lambda, R_1); a memo per (lambda, R) walks 7,388 times
    assert (kpoly._peel.cache_info().misses, rep.checks) == (2859, 25811)


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
    assert res.poly == k_by_recurrence(lam, rs)
    assert k_by_kostant(KIndex(lam, gamma, (1, 1, 1))) == res.poly
    rows = rect_sequence((1, 1), (2, 1))
    assert k_by_charge((2, 1), rows).poly == k_by_recurrence((2, 1), rows) == ONE


def test_cocharge_kostka():
    assert cocharge_kostka((2, 1), (1, 1, 1)) == q(1) + q(2)
    # the unique filling at lam = mu carries cocharge n(mu)
    assert cocharge_kostka((2, 1), (2, 1)) == q(1)
    assert cocharge_kostka((3, 1), (3, 1)) == q(1)
    # cocharge is n(mu) - charge for a partition mu only, checked before any tableau
    for lam in ((2, 1), (5,)):
        with pytest.raises(ValueError, match=r"cocharge needs partition content, got \(1, 2\)"):
            cocharge_kostka(lam, (1, 2))


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
    # a content of another size has no tableaux on either side
    for lam, mu in [((2,), (1,)), ((2, 1), ())]:
        assert standard_cocharge_sum(lam, mu) == cocharge_kostka(lam, mu) == ZERO
    # while a lambda that is not a partition is rejected whatever its size
    for cocharge_sum in (standard_cocharge_sum, cocharge_kostka):
        with pytest.raises(ValueError, match="not a skew shape"):
            cocharge_sum((1, 2), (1,))
    # the same boundary as cocharge_kostka's, not the answer at mu sorted
    with pytest.raises(ValueError, match=r"cocharge needs partition content, got \(1, 2\)"):
        standard_cocharge_sum((2, 1), (1, 2))


def two_rectangle_formula(lam, r1, r2) -> QPoly:
    """Reference closed form for a two-block sequence: a q-power times a skew LR number."""
    m, lam = len(r1), trim(lam)
    if len(lam) > m + len(r2):
        return ZERO
    alpha, beta = lam[:m], lam[m:]
    c = lr_coefficient(r2, beta, alpha, r1)
    return QPoly.term(sum(alpha) - sum(r1), c) if c else ZERO


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
    # a lambda with more parts than the two blocks have rows
    rs = rect_sequence((1, 1), (1, 1))
    assert two_rectangle_formula((1, 1, 1), (1,), (1,)) == ZERO
    assert k_by_recurrence((1, 1, 1), rs) == ZERO == k_by_charge((1, 1, 1), rs).poly


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


def test_dual_of_a_dominant_index_normalizes_to_its_box_complement():
    # the crosscheck reads the complement for its dual check
    seen = 0
    for gamma, eta, lams in index_family(5, 6):
        rs = rect_sequence(eta, gamma)
        for lam in lams:
            lam_c, rs_c = box_complement(lam, rs)
            complement = KIndex(lam_c, rs_c.gamma, rs_c.eta)
            assert dual_index(KIndex(lam, gamma, eta)).normalized() == (1, complement)
            seen += 1
    assert seen == 4795


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
    # compute labels a run below the attainable degree
    assert compute(idx, "series", degree_bound=1) == (truncated, "truncated")
    assert compute(idx, "series", degree_bound=10) == (full, "exact")


def series_monomials_reference(gamma, eta, bound):
    """The series expansion with one QPoly per monomial, clipped at ``bound``
    after every root (nothing for a negative bound)."""
    states = {tuple(gamma): ONE} if bound >= 0 else {}
    for (i, j) in roots_of(eta):
        new = {}
        for v, poly in states.items():
            for k in range(bound - min(poly.coeffs) + 1):
                clipped = QPoly({e + k: c for e, c in poly.coeffs.items() if e + k <= bound})
                if not clipped:
                    break
                vv = list(v)
                vv[i - 1] += k
                vv[j - 1] -= k
                new[tuple(vv)] = new.get(tuple(vv), ZERO) + clipped
        states = new
    return states


def series_decomposition_reference(gamma, eta, bound):
    out = {}
    for alpha, poly in series_monomials_reference(gamma, eta, bound).items():
        res = straighten(alpha)
        if res is not None:
            sign, lam = res
            out[lam] = out.get(lam, ZERO) + poly * sign
    return {lam: p for lam, p in out.items() if p}


def test_series_matches_the_qpoly_reference_at_every_bound():
    # the expansion drops states on finished coordinates, so it keeps a subset
    # of the reference's monomials; every dropped one straightens to zero or
    # to a weight with a negative part, and no partition lambda changes
    for gamma, eta, _ in index_family(4, 4):
        n = len(gamma)
        top = default_degree_bound((sum(gamma),) + (0,) * (n - 1), gamma)
        for bound in range(-1, top + 1):
            monomials = series_monomials(gamma, eta, bound)
            reference = series_monomials_reference(gamma, eta, bound)
            last = n - eta[-1]
            for alpha, coeffs in monomials.items():
                assert QPoly(coeffs) == reference[alpha], (gamma, eta, bound, alpha)
                # what survives has distinct finished values and no negative one
                v = vec_add(alpha, rho(n))
                assert len(set(v[:last])) == last and min(v) >= 0, (gamma, eta, alpha)
            for alpha in reference.keys() - monomials.keys():
                res = straighten(alpha)
                assert res is None or min(res[1]) < 0, (gamma, eta, bound, alpha)
            got = series_decomposition(gamma, eta, bound)
            expected = series_decomposition_reference(gamma, eta, bound)
            assert got == {lam: p for lam, p in expected.items() if min(lam) >= 0}


def test_series_prunes_dead_states():
    # x^(1,1,1,1) against eta=(2,2): the unpruned expansion also keeps states
    # that can only straighten to zero or to a weight with a negative part
    full = series_monomials_reference((1, 1, 1, 1), (2, 2), 4)
    kept = series_monomials((1, 1, 1, 1), (2, 2), 4)
    assert 0 < len(kept) < len(full)
    assert all(min(lam) >= 0 for lam in series_decomposition((1, 1, 1, 1), (2, 2), 4))
    # x^(1^6) against eta=(2,2,2): keeping finished values inside
    # range(|gamma| + n), not just >= 0, cuts 679 kept states to 581 at the
    # full bound; lambda's own values cut the 577 at its bound 8 to 10
    gamma, eta, lam = (1,) * 6, (2, 2, 2), (2, 2, 1, 1, 0, 0)
    assert len(series_monomials(gamma, eta, 15)) == 581
    assert len(series_monomials(gamma, eta, 8)) == 577
    assert len(series_monomials(gamma, eta, 8, frozenset(vec_add(lam, rho(6))))) == 10


def test_targeted_series_keeps_only_monomials_that_can_reach_lambda():
    # with values = lambda + rho the expansion keeps a subset of the
    # reference's monomials, each with the reference coefficient and with
    # distinct finished values in lambda + rho; every dropped one straightens
    # to zero or to another weight, so lambda's coefficient does not change
    for gamma, eta, lams in index_family(4, 4):
        n = len(gamma)
        top = default_degree_bound((sum(gamma),) + (0,) * (n - 1), gamma)
        for bound in range(-1, top + 1):
            reference = series_monomials_reference(gamma, eta, bound)
            decomposition = series_decomposition(gamma, eta, bound)
            for lam in lams:
                values = frozenset(vec_add(lam, rho(n)))
                kept = series_monomials(gamma, eta, bound, values)
                for alpha, coeffs in kept.items():
                    assert QPoly(coeffs) == reference[alpha], (gamma, eta, bound, lam, alpha)
                    finished = vec_add(alpha, rho(n))[:n - eta[-1]]
                    assert len(set(finished)) == len(finished) and values.issuperset(finished)
                for alpha in reference.keys() - kept.keys():
                    res = straighten(alpha)
                    assert res is None or res[1] != lam, (gamma, eta, bound, lam, alpha)
                idx = KIndex(lam, gamma, eta)
                assert k_by_series(idx, bound) == decomposition.get(lam, ZERO), (idx, bound)


@pytest.mark.parametrize("seed", range(2))
def test_targeted_series_matches_the_recurrence_on_random_indices(seed):
    # past the exhaustive ranges: dominant indices at n = 7-8; gamma is not
    # one row and lambda strictly dominates it, so that many coefficients
    # are nonzero and few are just 1
    rng = random.Random(seed)
    for _ in range(15):
        n = rng.randint(7, 8)
        weight = rng.randint(5, 8)
        gamma = pad(rng.choice(partitions(weight, max_len=n)[1:]), n)
        eta = rng.choice(compositions(n))
        lam = rng.choice([pad(p, n) for p in partitions(weight, max_len=n)
                          if pad(p, n) != gamma and dominates(pad(p, n), gamma)])
        expected = k_by_recurrence(lam, rect_sequence(eta, gamma))
        assert k_by_series(KIndex(lam, gamma, eta)) == expected, (lam, gamma, eta)


@pytest.mark.parametrize("seed", range(2))
def test_pruned_series_matches_kostant_on_random_groups(seed):
    # past the exhaustive ranges: dominant groups at n = 6-7, every lambda
    rng = random.Random(seed)
    for _ in range(3):
        n = rng.randint(6, 7)
        gamma = pad(rng.choice(partitions(rng.randint(3, 5), max_len=n)), n)
        eta = rng.choice(compositions(n))
        top = default_degree_bound((sum(gamma),) + (0,) * (n - 1), gamma)
        decomposition = series_decomposition(gamma, eta, top)
        for lam in partitions(sum(gamma), max_len=n):
            lam = pad(lam, n)
            expected = k_by_kostant(KIndex(lam, gamma, eta))
            assert decomposition.get(lam, ZERO) == expected, (lam, gamma, eta)


def test_exact_engines_give_zero_when_lambda_and_gamma_differ_in_size():
    assert k_by_recurrence((2, 0), rect_sequence((1, 1), (1, 0))) == ZERO
    assert k_by_series(KIndex((2, 0), (1, 0), (1, 1))) == ZERO


def test_kostant_requires_a_dominant_lambda():
    with pytest.raises(ValueError, match="lambda must be dominant"):
        k_by_kostant(KIndex((0, 1), (1, 0), (1, 1)))


def test_series_requires_a_partition_lambda():
    with pytest.raises(ValueError, match="lambda must be a partition"):
        k_by_series(KIndex((2, 0, -1), (1, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match="lambda must be a partition"):
        k_by_series(KIndex((0, 1), (1, 0), (1, 1)))


def test_lr_product_matches_the_coefficients():
    rects = ((2, 2), (1,), (1, 1))
    product = lr_product(rects, 5)
    # s_22 s_1 = s_32 + s_221, and each meets s_331 once against s_11
    assert product[(3, 3, 1)] == lr_product(rects, 3)[(3, 3, 1)] == 2
    for size in range(8):
        for lam in partitions(size, max_len=5):
            assert product.get(lam, 0) == lr_product(rects, len(lam) or 1).get(lam, 0), lam
    # a shorter max_len keeps exactly the shorter partitions
    short = lr_product(rects, 3)
    assert short == {lam: c for lam, c in product.items() if len(lam) <= 3}


def test_series_with_a_negative_bound_is_empty():
    # one block: no root to use, so only the bound can rule x^gamma out
    assert series_monomials((2, 1), (2,), -1) == {}
    assert series_decomposition((2, 1), (2,), -1) == {}
    assert series_decomposition((2, 1), (2,), 0) == {(2, 1): ONE}
    assert k_by_series(KIndex((2, 1), (2, 1), (2,)), degree_bound=-1) == ZERO
