import json
import random
import re

import pytest

import qlr.kpoly
from qlr.cli import CACHE_VERSION, build_parser, main, load_cache, poset_dot
from qlr.kpoly import ENGINES, QPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines() if line]
    return code, lines


def test_compute_single_engine(capsys):
    code, lines = run(
        capsys, "compute", "--lam", "1,1", "--gamma", "0,2", "--eta", "1,1",
        "--engine", "kostant",
    )
    assert code == 0
    assert lines[0]["poly"] == {"coeffs": {"0": -1, "1": 1}}
    assert lines[0]["display"] == "-1 + q"
    assert lines[0]["status"] == "exact"


def test_compute_accepts_spaces_around_fields(capsys):
    spaced = run(capsys, "compute", "--lam", " 1, 1", "--gamma", "0 ,2 ", "--eta", "1,1")
    assert spaced == run(capsys, "compute", "--lam", "1,1", "--gamma", "0,2", "--eta", "1,1")


def test_compute_normalizes_the_index_once_besides_the_engine(capsys, monkeypatch):
    # one normalization yields the cache key, the sign and the index the engines run on
    calls = []
    normalize = qlr.kpoly.KIndex.normalized
    monkeypatch.setattr(qlr.kpoly.KIndex, "normalized",
                        lambda idx: calls.append(idx) or normalize(idx))
    for engine in ("kostant", "all"):
        calls.clear()
        code, lines = run(
            capsys, "compute", "--lam", "1,1", "--gamma", "0,2", "--eta", "1,1",
            "--engine", engine,
        )
        assert code == 0 and len(calls) == 1
        assert lines[0]["poly"] == {"coeffs": {"0": -1, "1": 1}}


def test_compute_all_engines_fixture(capsys):
    code, lines = run(
        capsys, "compute", "--lam", "5,3,1,0,0",
        "--rects", "[[3,2],[2,1],[1]]", "--engine", "all",
    )
    assert code == 0
    polys = {rec["engine"]: rec["poly"] for rec in lines if "poly" in rec}
    assert set(polys) == {"kostant", "recurrence", "series", "charge"}
    assert all(p == {"coeffs": {"3": 1, "4": 3}} for p in polys.values())
    status = {rec["engine"]: rec["status"] for rec in lines}
    assert status["charge"] == "conjectural"
    assert status["kostant"] == "exact"


def test_compute_empty_index(capsys):
    # n = 0: no roots, so the series engine never asks for the bounds of its
    # empty set of values; every engine returns 1
    code, lines = run(
        capsys, "compute", "--lam", "-", "--gamma", "-", "--eta", "-",
        "--engine", "all",
    )
    assert code == 0
    assert {rec["engine"]: rec["poly"] for rec in lines} == {
        engine: {"coeffs": {"0": 1}} for engine in ("kostant", "recurrence", "series", "charge")}


def test_compute_charge_engine_is_optional_on_all(capsys):
    code, lines = run(
        capsys, "compute", "--lam", "1,1", "--gamma", "0,2", "--eta", "1,1",
        "--engine", "all",
    )
    assert code == 0
    charge_line = next(rec for rec in lines if rec["engine"] == "charge")
    assert charge_line["status"] == "inapplicable"


def test_compute_explicit_charge_engine_fails_on_nondominant(capsys):
    code, lines = run(
        capsys, "compute", "--lam", "1,1", "--gamma", "0,2", "--eta", "1,1",
        "--engine", "charge",
    )
    assert code == 1
    assert "error" in lines[0]


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "compute", "--lam", "2,1,0", "--gamma", "0,2,1", "--eta", "1,1,1",
        "--engine", "recurrence", "--cache", str(cache),
    ]
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == "exact"
    stored = load_cache(cache)
    assert len(stored) == 1
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == "cached:exact"
    assert lines[0]["poly"] == {"coeffs": {"1": -1, "2": 1, "3": 1}}


def test_cache_serves_each_index_with_its_own_sign(tmp_path, capsys):
    # lam = (1, 1) and (0, 2) normalize to one index, with opposite Bott signs
    cache = tmp_path / "cache.jsonl"
    index = ["--gamma", "0,2", "--eta", "1,1", "--engine", "recurrence"]
    polys = {"1,1": {"coeffs": {"0": -1, "1": 1}}, "0,2": {"coeffs": {"0": 1, "1": -1}}}
    for lam, status in [("1,1", "exact"), ("0,2", "cached:exact"), ("1,1", "cached:exact")]:
        code, lines = run(capsys, "compute", "--lam", lam, *index, "--cache", str(cache))
        assert code == 0 and (lines[0]["poly"], lines[0]["status"]) == (polys[lam], status)
    # a record without the format version, as older files hold, is never served
    cache.write_text(json.dumps({"key": json.loads(cache.read_text())["key"],
                                 "engine": "recurrence", "poly": polys["1,1"]}) + "\n")
    assert load_cache(cache) == {}
    # computed first, the index of sign -1 also stores the normalized polynomial
    for lam, status in [("0,2", "exact"), ("1,1", "cached:exact")]:
        code, lines = run(capsys, "compute", "--lam", lam, *index, "--cache", str(cache))
        assert code == 0 and (lines[0]["poly"], lines[0]["status"]) == (polys[lam], status)
    # an identically zero index is cached under the key "zero"
    for status in ("exact", "cached:exact"):
        code, lines = run(capsys, "compute", "--lam", "0,1", *index, "--cache", str(cache))
        assert code == 0 and (lines[0]["poly"], lines[0]["status"]) == ({"coeffs": {}}, status)
    assert json.loads(cache.read_text().splitlines()[-1])["key"] == "zero"


def test_calls_in_one_process_share_no_option(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    index = ["--lam", "2,1,0", "--gamma", "0,2,1", "--eta", "1,1,1"]
    code, lines = run(capsys, "compute", *index, "--engine", "recurrence",
                      "--cache", str(cache), "--degree-bound", "9")
    assert code == 0 and [r["status"] for r in lines] == ["exact"]
    # the next call names no cache and no engine: nothing is read or written,
    # and every engine runs
    code, lines = run(capsys, "compute", *index)
    assert code == 0
    assert [(r["engine"], r["status"]) for r in lines] == [
        ("kostant", "exact"), ("recurrence", "exact"), ("series", "exact"),
        ("charge", "inapplicable")]
    assert len(cache.read_text().splitlines()) == 1
    code, lines = run(capsys, "crosscheck", "--max-n", "2", "--max-weight", "2")
    assert code == 0 and lines[0]["ok"]
    assert lines[0]["descriptor"] == {"kind": "crosscheck", "max_n": 2,
                                      "max_weight": 2, "sample": None}
    args = build_parser().parse_args(["compute"])
    assert (args.cache, args.engine, args.degree_bound) == (None, "all", None)
    assert build_parser() is build_parser()


def test_cache_keeps_the_charge_label(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "compute", "--lam", "5,3,1,0,0", "--rects", "[[3,2],[2,1],[1]]",
        "--engine", "charge", "--cache", str(cache),
    ]
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == "conjectural"
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == "cached:conjectural"


def test_cache_skips_a_truncated_last_line(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "compute", "--lam", "2,1,0", "--gamma", "0,2,1", "--eta", "1,1,1",
        "--engine", "recurrence", "--cache", str(cache),
    ]
    run(capsys, *args)
    whole = cache.read_text()
    # a second record cut short mid-append, with no closing newline
    cache.write_text(whole + whole[: len(whole) // 2])
    assert len(load_cache(cache)) == 1
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == "cached:exact"
    assert lines[0]["poly"] == {"coeffs": {"1": -1, "2": 1, "3": 1}}


def test_cache_falls_back_past_a_malformed_last_record(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    args = [
        "compute", "--lam", "2,1,0", "--gamma", "0,2,1", "--eta", "1,1,1",
        "--engine", "recurrence", "--cache", str(cache),
    ]
    run(capsys, *args)
    record = json.loads(cache.read_text())
    record["poly"] = {"coeffs": {"1": "x"}}
    with cache.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    # only the polynomials of the wanted keys are built
    built = []
    from_json = QPoly.from_json
    monkeypatch.setattr(QPoly, "from_json", lambda data: built.append(data) or from_json(data))
    assert load_cache(cache, {(record["key"], "kostant")}) == {}
    assert built == []
    stored = load_cache(cache, {(record["key"], "recurrence")})
    assert stored == {(record["key"], "recurrence"): (QPoly({1: -1, 2: 1, 3: 1}), "exact")}
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == "cached:exact"
    assert lines[0]["poly"] == {"coeffs": {"1": -1, "2": 1, "3": 1}}


def test_cache_parses_only_the_wanted_lines_and_the_last_valid_write_wins(
    tmp_path, capsys, monkeypatch
):
    cache = tmp_path / "cache.jsonl"
    wanted = ["--lam", "2,1,0", "--gamma", "0,2,1", "--eta", "1,1,1", "--cache", str(cache)]
    run(capsys, "compute", *wanted, "--engine", "recurrence")
    run(capsys, "compute", *wanted, "--engine", "kostant")
    run(capsys, "compute", "--lam", "2,0", "--gamma", "1,1", "--eta", "1,1",
        "--engine", "recurrence", "--cache", str(cache))
    record = json.loads(cache.read_text().splitlines()[0])
    # a second write for the wanted key, then a malformed and a truncated one
    record["poly"] = {"coeffs": {"9": 1}}
    second = json.dumps(record)
    record["poly"] = {"coeffs": {"1": "x"}}
    with cache.open("a") as fh:
        fh.write(second + "\n" + json.dumps(record) + "\n" + second[:-10] + "\n")
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    key = (record["key"], "recurrence")
    assert load_cache(cache, {key}) == {key: (QPoly({9: 1}), "exact")}
    # read from the back: the truncated line, the malformed one and the second
    # write; the first write is never parsed
    assert len(parsed) == 3
    monkeypatch.undo()
    assert len(load_cache(cache)) == 3
    code, lines = run(capsys, "compute", *wanted, "--engine", "recurrence")
    assert code == 0 and lines[0]["status"] == "cached:exact"
    assert lines[0]["poly"] == {"coeffs": {"9": 1}}


def reference_load_cache(path, wanted=None):
    """load_cache as one pass over every line: each is stripped, tested against
    the wanted records' heads and parsed in turn, so the last valid write wins."""
    cache = {}
    heads = None if wanted is None else tuple(
        json.dumps({"key": k, "engine": e})[:-1] for k, e in wanted)
    with open(path, "rb") as fh:
        for line in fh:
            try:
                line = line.decode().strip()
                if not line or (heads is not None and not line.startswith(heads)):
                    continue
                rec = json.loads(line)
                key, coeffs = (rec["key"], rec["engine"]), rec["poly"]["coeffs"]
                statuses = ["proven", "conjectural"] if key[1] == "charge" else ["exact"]
                if (rec["version"] == CACHE_VERSION and (wanted is None or key in wanted)
                        and key[1] in ENGINES and rec["status"] in statuses
                        and all(type(c) is int for c in coeffs.values())
                        and all(re.fullmatch("0|[1-9][0-9]*", e) for e in coeffs)):
                    poly = QPoly({int(e): c for e, c in coeffs.items()})
                    cache[key] = (poly, rec["status"])
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
    return cache


# two keys share a prefix up to the closing quote, and "zero" is the identically zero index
CACHE_KEYS = [(key, engine)
              for key in ("[1]|[1]|[1]", "[1]|[1]|[1, 0]", "[2, 1]|[2, 1]|[1, 2]", "zero")
              for engine in ENGINES]


# int() reads these as q^10, q^2, q^3, q^3 and q^-1
BAD_EXPONENT_KEYS = ("1_0", " 2", "+3", "\u0663", "-1")


def _random_cache_file(rng) -> bytes:
    """An append log of cache records with the faults that crashes, old
    versions and hand edits leave: repeated writes of one key, records cut
    short with no newline, malformed polynomials, coefficients that are not
    integers, exponent keys that int() reads but to_json never writes, other
    versions, leading blanks, CRLF endings, undecodable bytes,
    a record's head mid-line, a valid record that holds another engine's
    head of its key mid-line, and statuses that compute never writes for the
    engine, or none."""
    out = []
    for _ in range(rng.randrange(1, 30)):
        key, engine = rng.choice(CACHE_KEYS)
        rec = {"key": key, "engine": engine, "version": CACHE_VERSION,
               "poly": {"coeffs": {str(rng.randrange(3)): rng.randrange(-2, 3)}},
               "status": rng.choice(["proven", "conjectural"]) if engine == "charge" else "exact"}
        fault = rng.randrange(16)
        if fault == 0:
            rec["poly"] = rng.choice([{"coeffs": {"1": "x"}}, {"coeffs": {"a": 1}}, [1], None])
        elif fault == 1:
            rec["version"] = rng.choice([1, "2", None])
        elif fault == 2:
            del rec["version"]
        elif fault == 3:  # a valid record, but its head is not where the line begins
            rec = {"note": {"key": key, "engine": engine}, **rec}
        elif fault == 9:  # a valid record that holds another engine's head of its key
            rec["note"] = {"key": key, "engine": rng.choice([e for e in ENGINES if e != engine])}
        elif fault == 10:
            rec["poly"] = {"coeffs": {"1": rng.choice([1.9, 2.0, "7", True, False]), "2": 1}}
        elif fault == 11:
            rec["poly"] = {"coeffs": {rng.choice(BAD_EXPONENT_KEYS): 1, "0": 1}}
        elif fault == 12:
            rec["status"] = rng.choice(["truncated", ["x"], None, "exact", "proven"])
        elif fault == 13:
            del rec["status"]
        text = json.dumps(rec).encode()
        if fault == 4:  # cut short: the next record lands on the same line
            out.append(text[: rng.randrange(len(text))])
            continue
        if fault == 5:
            text = rng.choice([b" ", b"\t", b" \t "]) + text
        elif fault == 6:
            text = rng.choice([b'{"note": 1} ', b"garbage ", b"x"]) + text
        elif fault == 7:
            text = text.replace(b'"status"', b'"st\xffatus"')
        elif fault == 8:
            text = b"\xff\xfe garbage"
        out.append(text + rng.choice([b"\n", b"\n", b"\r\n"]))
    if rng.random() < 0.4:  # a last line with no newline, cut short or whole
        text = json.dumps(rec).encode()
        out.append(text[: rng.choice([len(text) // 2, len(text)])])
    return b"".join(out)


def test_load_cache_matches_a_pass_over_every_line(tmp_path):
    cache = tmp_path / "cache.jsonl"
    served = missed = 0
    for seed in range(300):
        rng = random.Random(seed)
        cache.write_bytes(_random_cache_file(rng))
        assert load_cache(cache) == reference_load_cache(cache)
        for wanted in ({rng.choice(CACHE_KEYS)}, set(rng.sample(CACHE_KEYS, 4)), set(CACHE_KEYS)):
            found = load_cache(cache, wanted)
            assert found == reference_load_cache(cache, wanted), (seed, wanted)
            served += len(found)
            missed += len(wanted) - len(found)
    assert served > 1000 and missed > 1000


def test_from_json_rejects_exponent_keys_that_to_json_never_writes():
    for key in BAD_EXPONENT_KEYS:
        with pytest.raises(ValueError):
            QPoly.from_json({"coeffs": {key: 1}})
    assert QPoly.from_json({"coeffs": {"0": 1, "10": -2}}) == QPoly({0: 1, 10: -2})


def test_cache_skips_records_with_non_integer_coefficients(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "compute", "--lam", "2,1,0", "--gamma", "0,2,1", "--eta", "1,1,1",
        "--engine", "recurrence", "--cache", str(cache),
    ]
    run(capsys, *args)
    record = json.loads(cache.read_text())
    for coeffs in ({"1": 1.9, "2": 1}, {"1": 2.0}, {"1": "7"}, {"1": True}, {"1": False}):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            QPoly.from_json({"coeffs": coeffs})
        cache.write_text(json.dumps({**record, "poly": {"coeffs": coeffs}}) + "\n")
        assert load_cache(cache) == {}
        code, lines = run(capsys, *args)
        assert code == 0 and lines[0]["status"] == "exact"
        assert lines[0]["poly"] == {"coeffs": {"1": -1, "2": 1, "3": 1}}


def test_a_wanted_key_costs_one_parse_however_long_the_file(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    body = {"engine": "recurrence", "version": CACHE_VERSION,
            "poly": {"coeffs": {"1": 1}}, "status": "exact"}
    lines = [json.dumps({"key": f"[{i}]|[{i}]|[1]", **body}) for i in range(20_000)]
    lines.insert(10_000, json.dumps({"key": "[2, 1]|[2, 1]|[1, 2]", **body}))
    cache.write_text("\n".join(lines) + "\n")
    parsed, built = [], []
    loads, from_json = json.loads, QPoly.from_json
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    monkeypatch.setattr(QPoly, "from_json", lambda data: built.append(data) or from_json(data))
    key = ("[2, 1]|[2, 1]|[1, 2]", "recurrence")
    assert load_cache(cache, {key}) == {key: (QPoly({1: 1}), "exact")}
    assert (len(parsed), len(built)) == (1, 1)


def test_compute_all_parses_one_line_per_engine_past_older_records(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    index = ["--lam", "3,2,1,0", "--gamma", "2,2,1,1", "--eta", "2,2", "--cache", str(cache)]
    code, lines = run(capsys, "compute", *index)
    assert code == 0 and [r["status"] for r in lines] == ["exact"] * 3 + ["proven"]
    newest = [json.loads(line) for line in cache.read_text().splitlines()]
    older = [{**rec, "poly": {"coeffs": {"7": 1}}} for rec in newest]
    other = {**newest[0], "key": "[1]|[1]|[1]"}
    # each engine's newest record comes after older ones of the same key, and
    # the last two engines' older records lie between the newest ones
    order = older + [other] + newest[:2] + older[2:] + newest[2:3] + older[3:] + newest[3:]
    cache.write_text("".join(json.dumps(rec) + "\n" for rec in order))
    parsed, built = [], []
    loads, from_json = json.loads, QPoly.from_json
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or loads(text))
    monkeypatch.setattr(QPoly, "from_json", lambda data: built.append(data) or from_json(data))
    assert main(["compute", *index, "--engine", "all"]) == 0
    assert (len(parsed), len(built)) == (4, 4)
    monkeypatch.undo()
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["engine"], r["status"], r["poly"]) for r in lines] == [
        (rec["engine"], "cached:" + rec["status"], rec["poly"]) for rec in newest]


def test_compute_skips_cache_lines_that_do_not_decode(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "compute", "--lam", "2,1,0", "--gamma", "0,2,1", "--eta", "1,1,1",
        "--engine", "recurrence", "--cache", str(cache),
    ]
    run(capsys, *args)
    record = cache.read_bytes()
    # a stray binary line, then a copy of the record with a byte that is not UTF-8
    with cache.open("ab") as fh:
        fh.write(b"\xff\xfe garbage\n" + record.replace(b'"exact"', b'"\xffexact"'))
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == "cached:exact"
    assert lines[0]["poly"] == {"coeffs": {"1": -1, "2": 1, "3": 1}}


def test_crosscheck_skips_cache_lines_that_do_not_decode(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    run(capsys, "compute", "--lam", "1,0", "--gamma", "1,0", "--eta", "1,1",
        "--engine", "recurrence", "--cache", str(cache))
    with cache.open("ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    argv = ("crosscheck", "--max-n", "2", "--max-weight", "2")
    _, plain = run(capsys, *argv)
    code, lines = run(capsys, *argv, "--cache", str(cache))
    assert code == 0 and lines[0]["ok"]
    # the valid record is still compared against the recomputed polynomial
    assert lines[0]["checks"] == plain[0]["checks"] + 1


def test_truncated_series_is_labelled_and_not_cached(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    index = ["--lam", "2,0", "--gamma", "1,1", "--eta", "1,1", "--cache", str(cache)]
    code, lines = run(capsys, "compute", *index, "--engine", "series",
                      "--degree-bound", "0")
    assert code == 0 and lines[0]["status"] == "truncated"
    assert lines[0]["poly"] == {"coeffs": {}}
    assert not cache.exists() or len(load_cache(cache)) == 0
    code, lines = run(capsys, "compute", *index, "--engine", "series")
    assert code == 0 and lines[0]["status"] == "exact"
    assert lines[0]["poly"] == {"coeffs": {"1": 1}}
    code, lines = run(capsys, "compute", *index, "--engine", "recurrence")
    assert lines[0]["poly"] == {"coeffs": {"1": 1}}


@pytest.mark.parametrize("engine, status", [
    ("recurrence", ["x"]), ("recurrence", "truncated"), ("series", "truncated"),
    ("kostant", None), ("recurrence", "proven"), ("charge", "exact"), ("charge", None),
])
def test_cache_recomputes_a_status_compute_never_writes(tmp_path, capsys, engine, status):
    cache = tmp_path / "cache.jsonl"
    args = ["compute", "--lam", "2,1,0", "--gamma", "2,1,0", "--eta", "2,1",
            "--engine", engine, "--cache", str(cache)]
    code, lines = run(capsys, *args)
    written = lines[0]["status"]
    record = json.loads(cache.read_text())
    record["poly"] = {"coeffs": {"9": 1}}
    if status is None:  # a version-2 record with no status
        del record["status"]
    else:
        record["status"] = status
    cache.write_text(json.dumps(record) + "\n")
    assert load_cache(cache) == {}
    code, lines = run(capsys, *args)
    assert code == 0 and lines[0]["status"] == written
    assert lines[0]["poly"] == {"coeffs": {"0": 1}}


@pytest.mark.parametrize("argv", [
    ("--lam", "1,x", "--gamma", "1,1", "--eta", "1,1"),
    ("--lam", "2,1", "--gamma", "1,1,1", "--eta", "1,1,1"),
    ("--lam", "2,1", "--rects", "[[1,1],[1"),
    ("--lam", "1,0", "--gamma", "1,0", "--eta", "3,-1"),
    # an empty field: two commas in a row, or a leading or trailing comma
    ("--lam", "1,,1", "--gamma", "0,2", "--eta", "1,1"),
    ("--lam", "1,1", "--gamma", "0,2,", "--eta", "1,1"),
    # blocks that are not lists, and no --lam
    ("--lam", "1", "--rects", "[1]"),
    ("--gamma", "1,1", "--eta", "1,1"),
])
def test_compute_rejects_bad_input_with_a_json_error(capsys, argv):
    code, lines = run(capsys, "compute", *argv)
    assert code != 0
    assert len(lines) == 1 and "bad input" in lines[0]["error"]


@pytest.mark.parametrize("argv", [
    ("dot", "--alpha", "1,x"),
    ("dot", "--alpha", "2,-1"),
    ("dot", "--alpha", "9"),
    ("crosscheck", "--sample", "1", "--sample-count", "-1"),
    ("scan", "--kind", "positivity", "--sample", "1", "--sample-count", "-1"),
    ("check", "--name", "stembridge", "--n", "-1"),
    ("scan", "--kind", "positivity", "--max-n", "-1"),
    ("crosscheck", "--max-n", "2", "--max-weight", "-1"),
    # unusable paths: a directory, or a file in a missing directory
    ("compute", "--lam", "1,0", "--gamma", "1,0", "--eta", "1,1", "--cache", "{tmp}"),
    ("compute", "--lam", "1,0", "--gamma", "1,0", "--eta", "1,1", "--cache", "{tmp}/no/c"),
    ("compute", "--lam", "1,0", "--gamma", "1,0", "--eta", "1,1", "--out", "{tmp}"),
    ("crosscheck", "--max-n", "1", "--cache", "{tmp}"),
    ("crosscheck", "--max-n", "1", "--cache", "{tmp}/no/c"),
    ("scan", "--kind", "positivity", "--max-n", "1", "--out", "{tmp}/no/log"),
    ("dot", "--alpha", "1,1", "--out", "{tmp}"),
    ("check", "--name", "stembridge", "--n", "1", "--out", "{tmp}"),
    # an empty field
    ("dot", "--alpha", "2,,1"),
    ("dot", "--alpha", ",2,1"),
])
def test_every_command_rejects_bad_input_with_a_json_error(tmp_path, capsys, argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, lines = run(capsys, *argv)
    assert code == 2
    assert lines == [{"command": argv[0], "error": lines[0]["error"]}]
    assert lines[0]["error"].startswith("bad input: ")
    assert list(tmp_path.iterdir()) == []  # nothing written, not even the error


def _bad_records(key, engines) -> str:
    return "".join(json.dumps({"key": key, "engine": engine, "version": CACHE_VERSION,
                               "poly": {"coeffs": {"5": 7}},
                               "status": "proven" if engine == "charge" else "exact"}) + "\n"
                   for engine in engines)


def test_crosscheck_detects_corrupted_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    # a bad record of every engine; two blocks are a proven group, so charge runs
    cache.write_text(_bad_records("[1, 0]|[1, 0]|[1, 1]", ENGINES))
    code, lines = run(
        capsys, "crosscheck", "--max-n", "2", "--max-weight", "2",
        "--cache", str(cache),
    )
    assert code == 1
    assert not lines[0]["ok"]
    # the report's records are JSON data, not display text
    found = [ce for ce in lines[0]["counterexamples"] if ce["check"] == "cache"]
    assert [ce["engine"] for ce in found] == ["recurrence", "kostant", "series", "charge"]
    for ce in found:
        assert ce["index"] == {"lambda": [1, 0], "gamma": [1, 0], "eta": [1, 1]}
        assert ce["cached"] == {"coeffs": {"5": 7}}


def test_crosscheck_compares_cached_charge_only_where_the_charge_engine_ran(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    # eta (1, 2, 1) is a conjectural group: the sweep does not run the charge engine there
    cache.write_text(_bad_records("[1, 0, 0, 0]|[1, 0, 0, 0]|[1, 2, 1]", ["recurrence", "charge"]))
    code, lines = run(
        capsys, "crosscheck", "--max-n", "4", "--max-weight", "1", "--cache", str(cache),
    )
    assert code == 1
    [ce] = lines[0]["counterexamples"]
    assert (ce["check"], ce["engine"]) == ("cache", "recurrence")


def test_crosscheck_clean(capsys):
    code, lines = run(capsys, "crosscheck", "--max-n", "2", "--max-weight", "3")
    assert code == 0
    assert lines[0]["ok"] and lines[0]["checks"] > 0


def test_crosscheck_sampled(capsys):
    code1, lines1 = run(
        capsys, "crosscheck", "--max-n", "3", "--max-weight", "3",
        "--sample", "7", "--sample-count", "5",
    )
    code2, lines2 = run(
        capsys, "crosscheck", "--max-n", "3", "--max-weight", "3",
        "--sample", "7", "--sample-count", "5",
    )
    assert code1 == code2 == 0
    assert lines1[0]["checks"] == lines2[0]["checks"]


def test_scan_catabolizable(capsys):
    code, lines = run(
        capsys, "scan", "--kind", "catabolizable", "--max-n", "3",
        "--max-weight", "3",
    )
    assert code == 0 and lines[0]["ok"]


def test_scan_positivity(capsys):
    code, lines = run(
        capsys, "scan", "--kind", "positivity", "--max-n", "3", "--max-weight", "3",
    )
    assert code == 0 and lines[0]["ok"]


def test_dot_output(tmp_path, capsys):
    out = tmp_path / "poset.dot"
    code = main(["dot", "--alpha", "1,1", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("digraph cyclage")
    assert text.count("->") == 1
    assert "12 (0)" in text and "21 (1)" in text
    single = poset_dot((3,))
    assert single.count("label") == 1 and "->" not in single
    # with no --out the text goes to stdout
    assert main(["dot", "--alpha", "1,1"]) == 0
    assert capsys.readouterr().out == text


def test_check_command(capsys):
    code, lines = run(capsys, "check", "--name", "row_col_cat", "--n", "4")
    assert code == 0 and lines[0]["ok"]
    code, lines = run(capsys, "check", "--name", "stembridge", "--n", "4")
    assert code == 0 and lines[0]["ok"]


@pytest.mark.parametrize("argv", [
    ("check", "--name", "stembridge", "--n", "1"),
    *(("scan", "--kind", kind, "--max-n", "1", "--max-weight", weight)
      for kind in ("monotonicity1", "monotonicity2") for weight in ("0", "4")),
    ("scan", "--kind", "monotonicity2", "--max-n", "2", "--max-weight", "4"),
])
def test_a_report_that_checks_nothing_fails(capsys, argv):
    code, lines = run(capsys, *argv)
    assert (code, lines[0]["checks"], lines[0]["ok"]) == (1, 0, False)


def test_out_file_accumulates(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    run(capsys, "compute", "--lam", "1", "--gamma", "1", "--eta", "1",
        "--engine", "recurrence", "--out", str(out))
    run(capsys, "compute", "--lam", "2", "--gamma", "2", "--eta", "1",
        "--engine", "recurrence", "--out", str(out))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
