import json

import pytest

from qlr.cli import main, load_cache, poset_dot


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
    code, lines = run(
        capsys, "compute", "--lam", "-", "--gamma", "-", "--eta", "-",
        "--engine", "recurrence",
    )
    assert code == 0
    assert lines[0]["poly"] == {"coeffs": {"0": 1}}


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


@pytest.mark.parametrize("argv", [
    ("--lam", "1,x", "--gamma", "1,1", "--eta", "1,1"),
    ("--lam", "2,1", "--gamma", "1,1,1", "--eta", "1,1,1"),
    ("--lam", "2,1", "--rects", "[[1,1],[1"),
    ("--lam", "1,0", "--gamma", "1,0", "--eta", "3,-1"),
])
def test_compute_rejects_bad_input_with_a_json_error(capsys, argv):
    code, lines = run(capsys, "compute", *argv)
    assert code != 0
    assert len(lines) == 1 and "bad input" in lines[0]["error"]


def test_crosscheck_detects_corrupted_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    key = "[1, 0]|[1, 0]|[1, 1]"
    cache.write_text(
        json.dumps({"key": key, "engine": "recurrence",
                    "poly": {"coeffs": {"5": 7}}}) + "\n"
    )
    code, lines = run(
        capsys, "crosscheck", "--max-n", "2", "--max-weight", "2",
        "--cache", str(cache),
    )
    assert code == 1
    assert not lines[0]["ok"]
    assert any("cache" in str(ce) for ce in lines[0]["counterexamples"])


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


def test_check_command(capsys):
    code, lines = run(capsys, "check", "--name", "row_col_cat", "--n", "4")
    assert code == 0 and lines[0]["ok"]
    code, lines = run(capsys, "check", "--name", "stembridge", "--n", "4")
    assert code == 0 and lines[0]["ok"]


def test_out_file_accumulates(tmp_path, capsys):
    out = tmp_path / "log.jsonl"
    run(capsys, "compute", "--lam", "1", "--gamma", "1", "--eta", "1",
        "--engine", "recurrence", "--out", str(out))
    run(capsys, "compute", "--lam", "2", "--gamma", "2", "--eta", "1",
        "--engine", "recurrence", "--out", str(out))
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
