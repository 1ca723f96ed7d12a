import itertools
import json
import pickle
import random
from collections import Counter

import pytest

from qlr import verify
from qlr.kpoly import (
    CONJECTURAL,
    ONE,
    PROVEN,
    ZERO,
    KIndex,
    QPoly,
    charge_engine_status,
    cocharge_kostka,
    k_by_recurrence,
)
from qlr.shapes import RectSequence, pad, partitions, rect_sequence, trim
from qlr.tableaux import Tableau, tab
from qlr.verify import (
    CHECKS,
    SCANS,
    ScanReport,
    check_charge_axioms,
    check_cyc_image,
    check_ev_duality,
    check_row_col_cat,
    check_stembridge,
    check_white_fitting,
    crosscheck_family,
    index_family,
    scan_catabolizable,
    scan_monotonicity_heights,
    scan_monotonicity_refine,
    scan_positivity,
)


def test_index_family_shape():
    groups = list(index_family(2, 2))
    assert all(len(g) == 3 for g in groups)
    # gamma is always dominant, eta always tiles it
    for gamma, eta, lams in groups:
        assert all(a >= b for a, b in zip(gamma, gamma[1:]))
        assert sum(eta) == len(gamma)
        assert all(sum(lam) == sum(gamma) for lam in lams)


def test_crosscheck_small_family():
    rep = crosscheck_family(3, 3)
    assert rep.ok and rep.checks > 100
    assert rep.to_json()["ok"]


def test_crosscheck_sampling_is_deterministic():
    a = crosscheck_family(3, 3, sample=(11, 6))
    b = crosscheck_family(3, 3, sample=(11, 6))
    assert a.checks == b.checks and a.ok == b.ok


def test_scans_clean_on_small_ranges():
    assert scan_positivity(3, 4).ok
    assert scan_catabolizable(3, 4).ok
    assert scan_monotonicity_refine(3, 4).ok
    assert scan_monotonicity_heights(3, 4).ok


def test_monotonicity_heights_covers_cocharge_kostka_case():
    # single-column instances: spreading the heights mu down to nu lifts the
    # cocharge generating function coefficientwise, matching the engine view
    from qlr.shapes import conjugate, dominates

    n = 5
    for mu in partitions(n):
        for nu in partitions(n):
            if not dominates(mu, nu):
                continue
            for lam in partitions(n):
                a = cocharge_kostka(lam, mu)
                b = cocharge_kostka(lam, nu)
                assert a.leq(b), (lam, mu, nu, a, b)
                engine = k_by_recurrence(
                    pad(conjugate(lam), n), rect_sequence(mu, (1,) * n)
                )
                assert a == engine


def test_recurrence_handles_long_partitions():
    rs = rect_sequence((1, 1), (1, 1))
    assert k_by_recurrence((1, 1, 1), rs) == QPoly()
    assert k_by_recurrence((2,), rs) == k_by_recurrence((2, 0), rs)


def test_report_counterexample_plumbing():
    rep = ScanReport(descriptor={"kind": "demo"})
    # a report that checked nothing does not pass
    assert not rep.ok
    rep.checks = 1
    assert rep.ok
    rep.found(check="demo", value=1)
    assert not rep.ok
    assert rep.to_json()["counterexamples"] == [{"check": "demo", "value": 1}]
    # each field is encoded by its type, and the in-memory record keeps it raw
    idx = KIndex((2, 1), (2, 1), (1, 1))
    rep.found(check="demo", index=idx, reordering=idx.rects(), poly=ONE + QPoly.term(2),
              image=Tableau(((1, 1), (2,))), missing={Tableau(((1,),))},
              word=(1, 2), words=[(1,), ()], mu=frozenset({3}))
    ce = rep.to_json()["counterexamples"][1]
    assert ce == {
        "check": "demo",
        "index": {"lambda": [2, 1], "gamma": [2, 1], "eta": [1, 1]},
        "reordering": {"eta": [1, 1], "gamma": [2, 1]},
        "poly": {"coeffs": {"0": 1, "2": 1}},
        "image": [[1, 1], [2]],
        "missing": [[[1]]],
        "word": [1, 2],
        "words": [[1], []],
        "mu": [3],
    }
    assert json.loads(json.dumps(ce)) == ce
    assert rep.counterexamples[1]["index"] is idx


def test_report_with_polynomial_fields_pickles():
    rep = ScanReport(descriptor={"kind": "demo"}, checks=1)
    rep.found(check="engines", index=KIndex((2, 1), (2, 1), (1, 1)),
              recurrence=ONE, kostant=QPoly({1: 2, 3: -1}), series=ZERO)
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep and back.to_json() == rep.to_json()
    with pytest.raises(AttributeError, match="immutable"):
        back.counterexamples[0]["kostant"].coeffs = {}


def test_charge_axioms_report_every_broken_axiom(monkeypatch):
    # a charge that gains its first letter (1 on the empty word) breaks all five
    charge = verify.charge
    monkeypatch.setattr(verify, "charge", lambda w: charge(w) + (w[0] if w else 1))
    rep = check_charge_axioms(3, 3)
    found = Counter(ce["check"] for ce in rep.counterexamples)
    assert found == {"plactic": 33, "knuth": 8, "rotation": 6, "strip_ones": 4, "empty": 1}
    assert rep.checks == 158
    ces = rep.to_json()["counterexamples"]
    assert json.loads(json.dumps(ces)) == ces


def test_word_range_checks_small():
    assert check_charge_axioms(4, 3).ok
    assert check_white_fitting(4, 3).ok
    assert check_ev_duality(4, 3).ok


# The size of every scan and check report at a small range: a changed count
# means the enumerated family or the identities checked on it changed.
@pytest.mark.parametrize("name, args, checks", [
    ("positivity", (4, 5), 894),
    ("catabolizable", (4, 5), 894),
    ("monotonicity1", (4, 5), 1164),
    ("monotonicity2", (4, 5), 74),
    ("cyc_image", (5,), 64),
    ("row_col_cat", (5,), 182),
    ("charge_axioms", (4,), 8573),
    ("white_fitting", (4,), 9930),
    ("ev_duality", (4,), 960),
    ("stembridge", (5,), 21),
])
def test_report_sizes_are_pinned(name, args, checks):
    rep = {**SCANS, **CHECKS}[name](*args)
    assert (rep.checks, rep.ok) == (checks, True)


def test_sampled_crosscheck_size_is_pinned():
    rep = crosscheck_family(3, 3, sample=(11, 6))
    assert (rep.checks, rep.ok) == (80, True)


def test_sampled_crosscheck_at_n6_is_pinned():
    # twelve groups at n <= 6, weight <= 6: the series expansion of a whole
    # group is the costly step there
    rep = crosscheck_family(6, 6, sample=(0, 12))
    assert (rep.checks, rep.ok) == (378, True)


def test_crosscheck_compares_against_the_group_lr_product(monkeypatch):
    monkeypatch.setattr(verify, "lr_product", lambda rects, max_len: {})
    rep = crosscheck_family(2, 2, include_dualities=False)
    assert rep.counterexamples
    assert {ce["check"] for ce in rep.counterexamples} == {"q=1"}
    assert all(ce["lr"] == 0 for ce in rep.counterexamples)


def test_crosscheck_builds_the_reorderings_once_per_group(monkeypatch):
    calls = []

    def counted(rseq):
        calls.append(rseq)
        return original(rseq)

    original = verify.dominant_reorderings
    monkeypatch.setattr(verify, "dominant_reorderings", counted)
    assert crosscheck_family(3, 3).ok
    assert len(calls) == len(list(index_family(3, 3)))
    calls.clear()
    crosscheck_family(3, 3, include_dualities=False)
    assert calls == []


def test_crosscheck_builds_one_index_per_index_and_one_rect_sequence_per_group(monkeypatch):
    # a timing harness marks ops by rebinding these two names in qlr.verify
    indices, groups = [], []
    make_index, make_rects = verify.KIndex, verify.rect_sequence
    monkeypatch.setattr(verify, "KIndex",
                        lambda lam, gamma, eta: indices.append(lam) or make_index(lam, gamma, eta))
    monkeypatch.setattr(verify, "rect_sequence",
                        lambda eta, gamma: groups.append(eta) or make_rects(eta, gamma))
    for max_n, max_weight, sample, sizes in ((3, 3, None, (84, 44)), (4, 4, (7, 5), (11, 5))):
        indices.clear()
        groups.clear()
        expected = list(index_family(max_n, max_weight))
        if sample:
            expected = random.Random(sample[0]).sample(expected, sample[1])
        crosscheck_family(max_n, max_weight, sample=sample)
        assert (len(indices), len(groups)) == sizes
        assert indices == [lam for _, _, lams in expected for lam in lams]
        assert groups == [eta for _, eta, _ in expected]


def test_crosscheck_builds_each_index_right_before_its_engines_run(monkeypatch):
    # the harness charges an index the time from its KIndex call to the next
    # one, so a group's indices are built one at a time as its checks reach them
    events = []
    make_index, kostant = verify.KIndex, verify.k_by_kostant
    monkeypatch.setattr(verify, "KIndex", lambda lam, gamma, eta: events.append(
        ("index", (lam, gamma, eta))) or make_index(lam, gamma, eta))
    monkeypatch.setattr(verify, "k_by_kostant", lambda idx: events.append(
        ("kostant", (idx.lam, idx.gamma, idx.eta))) or kostant(idx))
    assert crosscheck_family(3, 3).ok
    # each index, then the Kostant engine on it and on its box complement
    assert [kind for kind, _ in events] == ["index", "kostant", "kostant"] * 84
    assert all(events[i + 1] == ("kostant", events[i][1]) for i in range(0, len(events), 3))


def test_crosscheck_validates_only_the_indices_and_groups_it_enumerates(monkeypatch):
    # the box complement (as a block sequence, and as an index for the
    # Kostant engine), the reorderings and the recurrence's tails are valid
    # by construction, so they are built trusted
    built = {KIndex: 0, RectSequence: 0}
    for cls in built:
        def counted(cls, *args, original=cls.__new__):
            built[cls] += 1
            return original(cls, *args)

        monkeypatch.setattr(cls, "__new__", counted)
    rep = crosscheck_family(3, 3)
    assert (rep.ok, rep.checks) == (True, 428)
    assert (built[KIndex], built[RectSequence]) == (84, 44)


def test_crosscheck_normalizes_no_index(monkeypatch):
    # its indices are normalized already, and the dual's normalization is
    # the box complement
    calls = []
    normalize = KIndex.normalized
    monkeypatch.setattr(KIndex, "normalized", lambda idx: calls.append(idx) or normalize(idx))
    rep = crosscheck_family(3, 3)
    assert (rep.ok, rep.checks, len(calls)) == (True, 428, 0)
    # the cache check keys each index as compute would: "[1]|[1]|[1]" is K((1), (1), (1))
    rep = crosscheck_family(3, 3, cache={("[1]|[1]|[1]", "recurrence"): (ONE, "exact")})
    assert (rep.ok, rep.checks, len(calls)) == (True, 429, 0)


def _fault_on_the_complement(monkeypatch, engine, matches):
    """Make ``engine`` in qlr.verify return one more than it should on the
    first call after each ``box_complement`` whose arguments ``matches`` the
    complement; every other call is left alone."""
    pending = []

    def complement(lam, rseq):
        pending[:] = [box(lam, rseq)]
        return pending[0]

    def faulty(*args):
        hit = pending and matches(args, *pending[0])
        if hit:
            pending.clear()
        return original(*args) + (1 if hit else 0)

    box, original = verify.box_complement, getattr(verify, engine)
    monkeypatch.setattr(verify, "box_complement", complement)
    monkeypatch.setattr(verify, engine, faulty)


def test_crosscheck_dual_check_reads_the_recurrence_on_the_complement(monkeypatch):
    _fault_on_the_complement(monkeypatch, "_k_rec", lambda args, lam_c, rs_c: args == (lam_c, rs_c))
    rep = crosscheck_family(3, 3)
    assert rep.checks == 428
    assert {ce["check"] for ce in rep.counterexamples} == {"dual"}
    assert len(rep.counterexamples) == 84
    assert all(ce["dual"] == ce["poly"] + 1 for ce in rep.counterexamples)


def test_crosscheck_box_check_reads_kostant_on_the_complement(monkeypatch):
    def matches(args, lam_c, rs_c):
        (idx,) = args
        return (idx.lam, idx.gamma, idx.eta) == (lam_c, rs_c.gamma, rs_c.eta)

    _fault_on_the_complement(monkeypatch, "k_by_kostant", matches)
    rep = crosscheck_family(3, 3)
    assert rep.checks == 428
    assert {ce["check"] for ce in rep.counterexamples} == {"box"}
    assert len(rep.counterexamples) == 84
    assert all(ce["complement"] == ce["poly"] + 1 for ce in rep.counterexamples)


def _fault_in_group(monkeypatch, engine, group, matches, by=1):
    """Make ``engine`` in qlr.verify return ``by`` more than it should on the
    calls whose arguments ``matches`` while the crosscheck or a scan visits
    ``group``, seen, as a timing harness sees it, by the driver's call of
    ``verify.rect_sequence``; every other call is left alone."""
    visiting = []

    def visit(eta, gamma):
        visiting[:] = [rect_sequence(eta, gamma)]
        return visiting[0]

    def faulty(*args):
        return original(*args) + (by if visiting == [group] and matches(*args) else 0)

    original = getattr(verify, engine)
    monkeypatch.setattr(verify, "rect_sequence", visit)
    monkeypatch.setattr(verify, engine, faulty)


# K((3, 0, 0), (1, 1, 1), (1, 2)): its box complement lies outside the family of
# crosscheck_family(3, 3), and its blocks have one other dominant order
GROUP, REORDERED = rect_sequence((1, 2), (1, 1, 1)), rect_sequence((2, 1), (1, 1, 1))
TARGET = KIndex((3, 0, 0), (1, 1, 1), (1, 2))


def test_crosscheck_stops_at_an_index_whose_engines_disagree(monkeypatch):
    _fault_in_group(monkeypatch, "k_by_kostant", GROUP, lambda idx: idx == TARGET)
    rep = crosscheck_family(3, 3)
    [ce] = rep.counterexamples
    assert (ce["check"], ce["index"]) == ("engines", TARGET)
    assert ce["kostant"] == ce["recurrence"] + 1 and ce["series"] == ce["recurrence"]
    # the index's charge, q=1, dual, box and symmetry checks are skipped
    assert charge_engine_status(GROUP) == PROVEN and rep.checks == 428 - 5
    [record] = rep.to_json()["counterexamples"]
    assert json.loads(json.dumps(record)) == record
    assert record["index"] == {"lambda": [3, 0, 0], "gamma": [1, 1, 1], "eta": [1, 2]}


def test_crosscheck_reports_a_reordering_the_recurrence_gets_wrong(monkeypatch):
    _fault_in_group(monkeypatch, "_k_rec", GROUP,
                    lambda lam, rseq: (lam, rseq) == (TARGET.lam, REORDERED))
    rep = crosscheck_family(3, 3)
    [ce] = rep.counterexamples
    assert (ce["check"], ce["index"], ce["reordering"]) == ("symmetry", TARGET, REORDERED)
    assert ce["other"] == ce["poly"] + 1
    assert rep.checks == 428
    [record] = rep.to_json()["counterexamples"]
    assert json.loads(json.dumps(record)) == record
    assert record["reordering"] == {"eta": [2, 1], "gamma": [1, 1, 1]}


def _fault_at_index(monkeypatch, target, matches):
    """Make ``_k_rec`` in qlr.verify return one less than it should on the
    calls at ``target``'s lambda whose arguments ``matches`` while a scan
    checks ``target``'s group; every other call is left alone."""
    _fault_in_group(monkeypatch, "_k_rec", target.rects(),
                    lambda lam, rseq: lam == target.lam and matches(lam, rseq), by=-1)


@pytest.mark.parametrize("scan, kind, smaller", [
    # K(TARGET) is zero, so one less is negative
    (scan_positivity, "positivity", GROUP),
    # GROUP's one split, and its one spread of rectangle heights
    (scan_monotonicity_refine, "monotonicity1", rect_sequence((1, 1, 1), (1, 1, 1))),
    (scan_monotonicity_heights, "monotonicity2", REORDERED),
])
def test_scans_report_the_index_whose_k_is_made_smaller(monkeypatch, scan, kind, smaller):
    checks = scan(3, 3).checks
    _fault_at_index(monkeypatch, TARGET, lambda lam, rseq: rseq == smaller)
    rep = scan(3, 3)
    [ce] = rep.counterexamples
    assert (ce["check"], ce["index"], rep.checks) == (kind, TARGET, checks)
    assert ce.get("variant_eta", smaller.eta) == smaller.eta
    [record] = rep.to_json()["counterexamples"]
    assert json.loads(json.dumps(record)) == record
    assert record["index"] == {"lambda": [3, 0, 0], "gamma": [1, 1, 1], "eta": [1, 2]}


@pytest.mark.parametrize("scan", [
    scan_positivity, scan_catabolizable, scan_monotonicity_refine, scan_monotonicity_heights])
def test_scans_build_an_index_only_for_a_counterexample(monkeypatch, scan):
    # a scan reads each lambda as it is; a record's index is validated
    built = []
    new = KIndex.__new__
    monkeypatch.setattr(KIndex, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    clean = scan(4, 4)
    assert clean.ok and built == []
    # -K - 1 is negative, differs from the charge side and shrinks where K grows
    original = verify._k_rec
    monkeypatch.setattr(verify, "_k_rec", lambda lam, rseq: -original(lam, rseq) - ONE)
    rep = scan(4, 4)
    assert rep.checks == clean.checks and rep.counterexamples
    assert [tuple(ce["index"]) for ce in rep.counterexamples] == built


def test_row_col_cat_reports_the_tableau_whose_column_test_is_flipped(monkeypatch):
    checks = check_row_col_cat(4).checks
    target = (Tableau(((1, 2), (3, 4))), (2, 2))
    original = verify.is_mu_column_catabolizable
    monkeypatch.setattr(verify, "is_mu_column_catabolizable",
                        lambda t, mu: original(t, mu) != ((t, mu) == target))
    rep = check_row_col_cat(4)
    [ce] = rep.counterexamples
    assert (ce["check"], (ce["tableau"], ce["mu"]), rep.checks) == ("row_col_cat", target, checks)
    [record] = rep.to_json()["counterexamples"]
    assert json.loads(json.dumps(record)) == record
    assert record == {"check": "row_col_cat", "tableau": [[1, 2], [3, 4]], "mu": [2, 2]}


def test_stembridge_reports_the_lambda_whose_k_is_made_smaller(monkeypatch):
    checks = check_stembridge(4).checks
    original = verify.k_by_recurrence
    # only where lambda fits: a lambda with more parts than positions stays zero
    monkeypatch.setattr(verify, "k_by_recurrence", lambda lam, rseq: original(lam, rseq) - (
        ONE if trim(lam) == (2, 1, 1) and rseq.n >= 3 else ZERO))
    rep = check_stembridge(4)
    # one less on both sides and on the q-power's term breaks the recurrence;
    # at m = 1 that term is zero, lambda having more parts than its rows
    assert rep.checks == checks
    assert [(ce["check"], ce["lam"], ce["m"], ce["d"]) for ce in rep.counterexamples] == [
        ("stembridge", (2, 1, 1), 0, 0), ("stembridge", (2, 1, 1), 0, 1)]
    records = rep.to_json()["counterexamples"]
    assert json.loads(json.dumps(records)) == records
    assert records[0]["lam"] == [2, 1, 1]


def _records(rep, *checks):
    """The report's JSON records, after asserting that they round-trip and
    name the given checks in order."""
    records = rep.to_json()["counterexamples"]
    assert json.loads(json.dumps(records)) == records
    assert [r["check"] for r in records] == list(checks)
    return records


def test_ev_duality_reports_the_words_whose_evacuation_is_made_wrong(monkeypatch):
    # in [1, 2] tab([2, 2]) evacuates to tab([1, 1]) anyway, so the fault shows
    # only on the Q of three words, which evacuates to itself in [1, 3]
    original = verify.evacuation
    monkeypatch.setattr(verify, "evacuation",
                        lambda t, n: tab([1, 1]) if t == tab([2, 2]) else original(t, n))
    rep = check_ev_duality(2, 2)
    records = _records(rep, "ev", "ev", "ev")
    assert [r["words"] for r in records] == [[[], [1, 1], []], [[], [1, 2], []], [[], [2, 2], []]]
    assert all(r["q"] == [[2, 2]] for r in records)


def test_white_fitting_reports_the_words_whose_lattice_test_is_flipped(monkeypatch):
    original = verify.is_mu_lattice
    monkeypatch.setattr(verify, "is_mu_lattice",
                        lambda w, mu: original(w, mu) != (w == (2, 1) and mu == (0, 0)))
    rep = check_white_fitting(2, 2)
    assert _records(rep, "fitting") == [
        {"check": "fitting", "words": [[1], [2]], "mu": [0, 0], "lam": [1, 1]}]


def test_cyc_image_reports_a_standardization_met_twice(monkeypatch):
    # each tableau of content (2, 1) enumerated twice: the image set is unchanged
    checks = check_cyc_image(3).checks
    original = verify.straight_cst
    monkeypatch.setattr(verify, "straight_cst",
                        lambda shape, mu: original(shape, mu) * (1 + (mu == (2, 1))))
    rep = check_cyc_image(3)
    assert rep.checks == checks + 2
    assert _records(rep, "injectivity", "injectivity") == [
        {"check": "injectivity", "mu": [2, 1], "collision": [[1, 2, 3]]},
        {"check": "injectivity", "mu": [2, 1], "collision": [[1, 2], [3]]}]


def test_cyc_image_reports_a_standardization_of_another_shape(monkeypatch):
    # tab([1, 1], [2]) standardizes to tab([1, 2], [3]); the column put in its
    # place has another shape and grade, and leaves the image
    original = verify.cyclage_standardization
    monkeypatch.setattr(verify, "cyclage_standardization",
                        lambda t: tab([1], [2], [3]) if t == tab([1, 1], [2]) else original(t))
    rep = check_cyc_image(3)
    shape, grade, image = _records(rep, "shape", "grade", "image")
    assert shape == {"check": "shape", "mu": [2, 1], "source": [[1, 1], [2]],
                     "image": [[1], [2], [3]]}
    assert grade == dict(shape, check="grade")
    assert image == {"check": "image", "mu": [2, 1], "missing": [[[1, 2], [3]]],
                     "extra": [[[1], [2], [3]]]}


def test_cyc_image_reports_a_grade_made_larger(monkeypatch):
    original = verify.cocharge_grade
    monkeypatch.setattr(verify, "cocharge_grade",
                        lambda t: original(t) + (t == tab([1, 1], [2])))
    assert _records(check_cyc_image(3), "grade") == [
        {"check": "grade", "mu": [2, 1], "source": [[1, 1], [2]], "image": [[1, 2], [3]]}]


def test_cyc_image_reports_the_image_a_wrong_type_does_not_expect(monkeypatch):
    # typed (1, 1, 1), tab([1, 2], [3]) is no longer expected at content (2, 1)
    original = verify.catabolism_type
    monkeypatch.setattr(verify, "catabolism_type",
                        lambda s: (1, 1, 1) if s == tab([1, 2], [3]) else original(s))
    assert _records(check_cyc_image(3), "image") == [
        {"check": "image", "mu": [2, 1], "missing": [], "extra": [[[1, 2], [3]]]}]


def test_ev_duality_runs_column_rsk_once_per_word_sequence(monkeypatch):
    calls = []

    def counted(words):
        calls.append(words)
        return original(words)

    original = verify.column_rsk
    monkeypatch.setattr(verify, "column_rsk", counted)
    # the white-fitting check reads the same recording table
    verify._column_rsk_table.cache_clear()
    ev, fit = check_ev_duality(6, 3), check_white_fitting(6, 3)
    assert (len(calls), ev.checks, ev.ok, fit.ok) == (6013, 6013, True, True)


def test_white_fitting_and_evacuation_build_no_validated_tableau(monkeypatch):
    # the white-fitting test reads the word rows with the trimmed inner
    # shape, and evacuation is one insertion pass: both are trusted
    built = []
    original = Tableau.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tableau, "__init__", counted)
    verify._column_rsk_table.cache_clear()
    fit, ev = check_white_fitting(4, 3), check_ev_duality(4, 3)
    assert (fit.ok, ev.ok, len(built)) == (True, True, 0)
    assert (fit.checks, ev.checks) == (9930, 960)


def word_sequences_reference(total, alphabet):
    """The whole product of one to three words, filtered by length after."""
    singles = [()]
    for ln in range(1, total + 1):
        singles.extend(itertools.combinations_with_replacement(range(1, alphabet + 1), ln))
    for k in range(1, 4):
        for combo in itertools.product(singles, repeat=k):
            if sum(map(len, combo)) <= total:
                yield list(combo)


@pytest.mark.parametrize("total, alphabet", [(0, 2), (1, 1), (2, 3), (4, 2), (5, 3)])
def test_word_sequences_match_the_filtered_product(total, alphabet):
    expected = list(word_sequences_reference(total, alphabet))
    assert list(verify._word_sequences(total, alphabet)) == expected


def test_sampled_scans_record_their_sample():
    assert scan_positivity(4, 5, sample=(7, 10)).descriptor["sample"] == [7, 10]
    assert scan_positivity(2, 2).descriptor["sample"] is None


def _charge_fault(monkeypatch):
    """Make every group's charge polynomials in qlr.verify lose the largest
    shape's; returns the list that collects the (lam, gamma, eta) so lost."""
    lost = []

    def faulty(rseq):
        polys = charge_polys(rseq)
        shape = next(iter(polys))
        lost.append((pad(shape, rseq.n), rseq.gamma, rseq.eta))
        del polys[shape]
        return polys

    charge_polys = verify._charge_polys
    monkeypatch.setattr(verify, "_charge_polys", faulty)
    return lost


def _keys(rep):
    return [(ce["index"].lam, ce["index"].gamma, ce["index"].eta) for ce in rep.counterexamples]


def test_crosscheck_reports_each_index_the_group_charge_gets_wrong(monkeypatch):
    # the charge check runs on the proven groups only, one enumeration each
    lost = _charge_fault(monkeypatch)
    rep = crosscheck_family(4, 3, include_dualities=False)
    assert {ce["check"] for ce in rep.counterexamples} == {"charge"}
    assert _keys(rep) == lost
    assert all(charge_engine_status(rect_sequence(eta, gamma)) == PROVEN
               for _, gamma, eta in lost)
    assert all(ce["charge"] == ZERO != ce["exact"] for ce in rep.counterexamples)


def test_catabolizable_scan_reports_each_index_with_its_group_status(monkeypatch):
    lost, statuses = _charge_fault(monkeypatch), []
    monkeypatch.setattr(verify, "charge_engine_status",
                        lambda rseq: statuses.append(rseq) or charge_engine_status(rseq))
    rep = scan_catabolizable(4, 3)
    assert {ce["check"] for ce in rep.counterexamples} == {"catabolizable"}
    assert _keys(rep) == lost
    labels = [ce["status"] for ce in rep.counterexamples]
    assert labels == [charge_engine_status(rect_sequence(eta, gamma)) for _, gamma, eta in lost]
    assert set(labels) == {PROVEN, CONJECTURAL}
    # one enumeration and one status per group, and each index still checked once
    groups = list(index_family(4, 3))
    assert len(lost) == len(statuses) == len(groups)
    assert rep.checks == sum(len(lams) for *_, lams in groups)
