import pytest

from qlr.catabolism import is_catabolizable
from qlr.charge import charge_tableau
from qlr.crystal import is_mu_lattice
from qlr import involution
from qlr.involution import InvolutionContext, SignedTriple, verify_involution
from qlr.kpoly import KIndex, QPoly, k_by_recurrence
from qlr.shapes import all_permutations, compositions, pad, partitions, rect_sequence
from qlr.tableaux import (
    Tableau,
    all_cst_of_content,
    column_rsk_inverse,
    jdt_slide,
    straight_cst,
    tab,
    two_row_tableau,
)

q = QPoly.term


def is_lattice(w):
    return is_mu_lattice(w, ())


def triples_reference(ctx: InvolutionContext, catabolizable_only: bool = True):
    """The triples over all n! permutations, rebuilding each T-list per w."""
    size, tail, cnt = sum(ctx.gamma[ctx.m:]), ctx.rseq.tail(), t_content(ctx)
    for w in all_permutations(ctx.n):
        cu = ctx.u_content(w)
        if cu is None:
            continue
        for shape in partitions(size, max_len=ctx.n):
            ts = [
                t
                for t in straight_cst(shape, cnt)
                if not catabolizable_only or is_catabolizable(t.relabel(-ctx.m), tail)
            ]
            if not ts:
                continue
            us = straight_cst(shape, cu)
            for t in ts:
                for u in us:
                    yield SignedTriple(w, t, u)


def t_content(ctx: InvolutionContext):
    """The content of every T of the index: the letters above the first block."""
    return (0,) * ctx.m + ctx.gamma[ctx.m:]


def _small_contexts(same_size: bool):
    """Contexts for n <= 5, every eta, gamma a partition of size <= 2 and
    lam a partition of size <= 3 (of gamma's size when ``same_size``)."""
    for n in range(1, 6):
        for eta in compositions(n):
            for s in range(3):
                for gam in partitions(s, max_len=n):
                    rs = rect_sequence(eta, pad(gam, n))
                    for size in (s,) if same_size else range(4):
                        for lam in partitions(size, max_len=n):
                            yield InvolutionContext(lam, rs)

# ---------------------------------------------------------------------------
# the worked n = 8 example

RSEQ8 = rect_sequence((2, 2, 2, 1, 1), (3,) * 8)
LAM8 = (6, 5, 5, 5, 2, 1, 0, 0)
W8 = (3, 2, 1, 5, 4, 6, 7, 8)
T8 = tab([3, 3, 3, 5, 6, 7, 7, 7], [4, 4, 4, 6, 8, 8], [5, 5, 8], [6])
U8 = tab([1, 1, 1, 1, 1, 1, 1, 1], [2, 3, 3, 3, 3, 3], [3, 8, 8], [4])
P8 = tab([1, 1, 1, 5, 5, 6, 7, 7], [2, 2, 2, 6, 6, 7], [3, 3, 3, 8, 8],
         [4, 4, 4], [5], [8])
Q8 = tab([1, 1, 1, 2, 2, 3, 3, 3], [2, 2, 2, 3, 3, 5], [3, 3, 3, 5, 5],
         [4, 5, 5], [5], [6])
Q8_STEPPED = tab([1, 1, 1, 2, 2, 2, 2, 3], [2, 2, 2, 3, 3, 5], [3, 3, 3, 5, 5],
                 [4, 5, 5], [5], [6])


def test_fixture_weight_data():
    ctx = InvolutionContext(LAM8, RSEQ8)
    assert ctx.xi(W8) == (3, 5, 8, 1, 6, 1, 0, 0)
    assert ctx.u_content(W8) == (8, 1, 6, 1, 0, 0, 0, 2)
    assert T8.content() == t_content(ctx)


def test_fixture_word_recovery():
    words = column_rsk_inverse(T8, U8)
    words += [()] * (8 - len(words))
    # rotated indexing: recording letters 1..6 hold the upper-alphabet words,
    # letters 7, 8 the first-block words
    assert words[:6] == [
        (3, 3, 3, 5, 6, 7, 7, 7),
        (4,),
        (4, 4, 5, 6, 8, 8),
        (8,),
        (),
        (),
    ]
    assert words[6] == () and words[7] == (5, 6)
    # and the forward direction rebuilds the displayed pair
    from qlr.tableaux import column_rsk

    assert column_rsk(words) == (T8, U8)


def test_fixture_expand():
    ctx = InvolutionContext(LAM8, RSEQ8)
    w, p, qq = ctx.expand(SignedTriple(W8, T8, U8))
    assert w == W8 and p == P8 and qq == Q8
    v = column_rsk_inverse(p, qq)
    assert v[0] == (1, 1, 1) and v[1] == (2, 2, 2, 5, 6)


def test_fixture_step():
    ctx = InvolutionContext(LAM8, RSEQ8)
    stepped = ctx.step(W8, P8, Q8)
    assert stepped is not None
    w2, p2, q2 = stepped
    assert w2 == (3, 1, 2, 5, 4, 6, 7, 8)
    assert p2 == P8
    assert q2 == Q8_STEPPED
    # stepping again returns the original point
    assert ctx.step(w2, p2, q2) == (W8, P8, Q8)


def test_fixture_charge_shift():
    ctx = InvolutionContext(LAM8, RSEQ8)
    assert charge_tableau(P8) == charge_tableau(T8) + 2
    assert ctx.weight_exponent(W8, T8) == charge_tableau(P8)


def test_fixture_two_row_slides():
    v = column_rsk_inverse(P8, Q8)
    first = two_row_tableau(v[1], v[2])
    assert first == Tableau([[2, 2, 2, 5, 6], [3, 3, 3, 5, 6, 7, 7, 7]], (3,))
    second = jdt_slide(first, (0, 2))
    assert second == Tableau([[2, 2, 2, 5, 6, 7], [3, 3, 3, 5, 6, 7, 7]], (2,))
    third = jdt_slide(second, (0, 1))
    assert third == Tableau([[2, 2, 2, 5, 6, 7, 7], [3, 3, 3, 5, 6, 7]], (1,))
    ctx = InvolutionContext(LAM8, RSEQ8)
    w2, p2, q2 = ctx.step(W8, P8, Q8)
    v2 = column_rsk_inverse(p2, q2)
    assert third == two_row_tableau(v2[1], v2[2])


def test_fixture_contract_roundtrip():
    ctx = InvolutionContext(LAM8, RSEQ8)
    w2, p2, q2 = ctx.step(W8, P8, Q8)
    back = ctx.contract(w2, p2, q2)
    assert ctx.expand(back) == (w2, p2, q2)
    # the double step brings the triple back exactly
    assert ctx.theta(ctx.theta(SignedTriple(W8, T8, U8))) == SignedTriple(W8, T8, U8)


def test_contract_rejects_points_outside_the_image():
    ctx = InvolutionContext((2, 1, 0), rect_sequence((1, 1, 1), (1, 1, 1)))
    bad_p = tab([1, 2, 3])
    bad_q = tab([1, 2, 3])
    with pytest.raises(ValueError):
        ctx.contract((1, 2, 3), bad_p, bad_q)


def test_report_on_catabolizable_fixture():
    rs = rect_sequence((2, 2, 1), (3, 2, 2, 1, 1))
    rep = verify_involution((5, 3, 1, 0, 0), rs)
    assert rep.ok
    assert rep.signed_sum == q(3) + 3 * q(4)
    assert rep.engine_poly == rep.signed_sum
    assert len(rep.fixed_points) == 4
    assert not rep.escapes


def test_hook_blocks_make_every_triple_count():
    # hook-shaped block sizes: the catabolizable side is the whole triple set
    rs = rect_sequence((2, 1, 1), (2, 1, 1, 1))
    ctx = InvolutionContext((3, 1, 1, 0), rs)
    all_triples = list(triples_reference(ctx, catabolizable_only=False))
    assert all_triples and list(ctx.triples()) == all_triples
    rep = verify_involution((3, 1, 1, 0), rs)
    assert rep.ok


def test_involution_sweep_small():
    for n in range(1, 5):
        for s in range(0, 5):
            for gam in partitions(s, max_len=n):
                gamma = pad(gam, n)
                for eta in compositions(n):
                    rs = rect_sequence(eta, gamma)
                    for lam in partitions(s, max_len=n):
                        rep = verify_involution(pad(lam, n), rs)
                        assert rep.ok, (lam, gamma, eta)
                        assert rep.signed_sum == k_by_recurrence(pad(lam, n), rs)


def test_fixed_points_have_lattice_recording_side():
    rs = rect_sequence((2, 2, 1), (3, 2, 2, 1, 1))
    ctx = InvolutionContext((5, 3, 1, 0, 0), rs)
    for tr in ctx.triples():
        w, p, qq = ctx.expand(tr)
        if ctx.step(w, p, qq) is None:
            assert is_lattice(qq.word())
            assert w == (1, 2, 3, 4, 5)


def test_walk_visits_exactly_the_nonnegative_u_contents():
    for ctx in _small_contexts(same_size=False):
        expected = [w for w in all_permutations(ctx.n) if ctx.u_content(w) is not None]
        assert list(ctx._nonnegative_u_perms()) == expected, (ctx.lam, ctx.rseq)


def test_triples_match_the_all_permutations_reference():
    for ctx in _small_contexts(same_size=True):
        assert list(ctx.triples()) == list(triples_reference(ctx)), (ctx.lam, ctx.rseq)


def test_an_index_without_triples_never_walks_the_tail(monkeypatch):
    # lambda + rho = (2, 1) has no entry >= rho_1 + gamma_1 = 3: no w has a U
    walked = []
    monkeypatch.setattr(involution, "catabolizable_by_shape", walked.append)
    rep = verify_involution((1, 1), rect_sequence((1, 1), (2, 0)))
    assert rep.ok and (rep.triple_count, walked) == (0, [])


@pytest.mark.parametrize("value", [
    tab([1, 1], [2]),
    Tableau([[2]], (1,)),
    rect_sequence((1, 1), (2, 0)),
    KIndex((1, 1), (2, 0), (1, 1)),
    SignedTriple((1, 2), tab([2]), tab([1])),
])
def test_value_types_hold_no_dict_and_reject_field_assignment(value):
    # memo keys stay plain tuples: no per-instance dict, no field to rebind
    assert not hasattr(value, "__dict__")
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, ())


def test_catabolizable_side_is_membership_in_the_per_shape_sets():
    # gamma up to size 5: in _small_contexts (size <= 2) every T is catabolizable
    outcomes = set()
    for n in range(1, 6):
        for eta in compositions(n):
            for s in range(6):
                for gam in partitions(s, max_len=n):
                    ctx = InvolutionContext((), rect_sequence(eta, pad(gam, n)))
                    tail = ctx.rseq.tail()
                    for t in all_cst_of_content(t_content(ctx)):
                        expected = is_catabolizable(t.relabel(-ctx.m), tail)
                        got = t in ctx.ts_by_shape.get(t.outer, ())
                        assert got == expected, (ctx.rseq, t)
                        outcomes.add(expected)
    assert outcomes == {True, False}


def test_a_t_dropped_from_the_catabolizable_side_escapes(monkeypatch):
    # lambda=(2,2), eta=gamma=(1,1,1,1): with the tail's first T of shape (3,)
    # left out, one triple's image escapes, and the map is applied to that
    # image directly to check that it comes back
    def dropped(rseq, within=None):
        by_shape = original(rseq, within)
        by_shape[(3,)] = by_shape[(3,)][1:]
        return by_shape

    def theta(ctx, triple):
        applied.append(triple)
        return original_theta(ctx, triple)

    original, original_theta, applied = involution.catabolizable_by_shape, InvolutionContext.theta, []
    monkeypatch.setattr(involution, "catabolizable_by_shape", dropped)
    monkeypatch.setattr(InvolutionContext, "theta", theta)
    rep = verify_involution((2, 2), rect_sequence((1, 1, 1, 1), (1, 1, 1, 1)))
    assert len(rep.escapes) == 1 and not rep.ok
    assert rep.involution_ok  # theta still inverts the escaped image
    ctx = InvolutionContext((2, 2), rect_sequence((1, 1, 1, 1), (1, 1, 1, 1)))
    escaped = ctx.contract(*ctx.step(*ctx.expand(rep.escapes[0])))
    assert applied == [escaped] and escaped.t.outer == (3,)
    assert escaped.t not in ctx.ts_by_shape[(3,)]


def test_context_rejects_a_non_dominant_block_sequence():
    with pytest.raises(ValueError, match="must be dominant"):
        InvolutionContext((1, 0), rect_sequence((1, 1), (0, 1)))
    # dominant, but with a negative first block the caps need not increase
    # (here (1, 3, 2)), and the permutation product would miss w = 132
    with pytest.raises(ValueError, match="must be dominant"):
        InvolutionContext((0, 0, -1), rect_sequence((2, 1), (0, -2, -2)))


# lambda = (2, 1, 1, 0), eta = gamma = (1, 1, 1, 1): 9 triples, 3 of them fixed,
# the other 6 paired by the involution across w = 1234 and w = 1324
FAULT_LAM, FAULT_RSEQ = (2, 1, 1, 0), rect_sequence((1, 1, 1, 1), (1, 1, 1, 1))


def test_theta_marks_a_fixed_point_with_none():
    ctx = InvolutionContext(FAULT_LAM, FAULT_RSEQ)
    fixed = [tr for tr in ctx.triples() if ctx.step(*ctx.expand(tr)) is None]
    assert len(fixed) == 3 and all(ctx.theta(tr) is None for tr in fixed)
    assert verify_involution(FAULT_LAM, FAULT_RSEQ).ok


def _charge_off_by_one_on_first_letters(monkeypatch):
    # T holds no letter 1, so only the charge of P moves
    original = involution.charge_tableau
    monkeypatch.setattr(involution, "charge_tableau",
                        lambda t: original(t) + (1 in t.word()))


def _no_superstandard_q(monkeypatch):
    monkeypatch.setattr(involution, "yamanouchi_tableau", lambda lam: None)


def _every_sign_positive(monkeypatch):
    monkeypatch.setattr(involution, "perm_sign", lambda w: 1)


def _weight_reads_w(monkeypatch):
    # w(2) is 2 on one side of every pair and 3 on the other
    original = InvolutionContext.weight_exponent
    monkeypatch.setattr(InvolutionContext, "weight_exponent",
                        lambda ctx, w, t: original(ctx, w, t) + w[1])


def _every_image_the_first(monkeypatch):
    original, first = InvolutionContext.contract, []

    def contract(ctx, *stepped):
        first.append(original(ctx, *stepped))
        return first[0]

    monkeypatch.setattr(InvolutionContext, "contract", contract)


@pytest.mark.parametrize("fault, field", [
    (_charge_off_by_one_on_first_letters, "charge_shift_ok"),
    (_no_superstandard_q, "involution_ok"),
    (_every_sign_positive, "involution_ok"),
    (_weight_reads_w, "weight_preserved"),
    (_every_image_the_first, "involution_ok"),
])
def test_each_report_flag_fires_on_its_fault(monkeypatch, fault, field):
    fault(monkeypatch)
    rep = verify_involution(FAULT_LAM, FAULT_RSEQ)
    assert not getattr(rep, field) and not rep.ok
