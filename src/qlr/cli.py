"""Command-line interface: compute, crosscheck, scan, dot, check.

All results are emitted as JSON lines; polynomials serialize as
{"coeffs": {"0": -1, "1": 1}}.  The exit status is nonzero exactly when a
check fails or a scan finds a counterexample (1), or when ``compute`` is
given a malformed index, which it reports as a JSON error record (2).  The
--cache option points at an append-only JSON-lines file keyed by the
canonical normalized index and engine tag; on reload the last write wins
and lines that do not parse are skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cyclage import cyclage_poset
from .kpoly import ENGINES, KIndex, QPoly, compute, index_from_rects
from .verify import CHECKS, SCANS, crosscheck_family, index_key


def _vec(text):
    text = text.strip()
    if not text or text == "-":
        return ()
    return tuple(int(x) for x in text.replace(",", " ").split())


def _emit(obj, out):
    line = json.dumps(obj, sort_keys=True)
    print(line)
    if out:
        with open(out, "a") as fh:
            fh.write(line + "\n")


def load_cache(path):
    """Map (index key, engine) -> (QPoly, status); last write wins."""
    cache = {}
    p = Path(path)
    if not p.exists():
        return cache
    with p.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            # a line that does not parse (say, cut short by a crash
            # mid-append) is skipped; the valid records are still served
            try:
                rec = json.loads(line)
                cache[(rec["key"], rec["engine"])] = (
                    QPoly.from_json(rec["poly"]),
                    rec.get("status", "exact"),
                )
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
    return cache


def append_cache(path, key, engine, poly, status):
    with open(path, "a") as fh:
        fh.write(
            json.dumps(
                {"key": key, "engine": engine, "poly": poly.to_json(),
                 "status": status}
            )
            + "\n"
        )


def _parse_index(args) -> KIndex:
    """The index named on the command line; ValueError when it is malformed."""
    if args.rects:
        rects = json.loads(args.rects)
        if not isinstance(rects, list) or not all(
            isinstance(r, list) and all(type(x) is int for x in r) for r in rects
        ):
            raise ValueError(f"--rects must be a list of integer lists, got {args.rects!r}")
        return index_from_rects(_vec(args.lam), rects)
    if not (args.lam and args.gamma and args.eta):
        raise ValueError("compute needs --lam, --gamma, --eta (or --rects)")
    return KIndex(_vec(args.lam), _vec(args.gamma), _vec(args.eta))


def cmd_compute(args) -> int:
    try:
        idx = _parse_index(args)
    except ValueError as exc:
        _emit({"command": "compute", "error": f"bad input: {exc}"}, args.out)
        return 2
    run_all = args.engine == "all"
    engines = ENGINES if run_all else (args.engine,)
    cache = load_cache(args.cache) if args.cache else None
    key = index_key(idx)
    failures = 0
    for engine in engines:
        cached = cache.get((key, engine)) if cache is not None else None
        if cached is not None:
            poly, status = cached[0], f"cached:{cached[1]}"
        else:
            try:
                poly, status = compute(idx, engine, degree_bound=args.degree_bound)
            except ValueError as exc:
                record = {
                    "lambda": list(idx.lam),
                    "gamma": list(idx.gamma),
                    "eta": list(idx.eta),
                    "engine": engine,
                }
                if run_all and engine == "charge":
                    record["status"] = "inapplicable"
                    record["reason"] = str(exc)
                else:
                    record["error"] = str(exc)
                    failures += 1
                _emit(record, args.out)
                continue
            if args.cache:
                append_cache(args.cache, key, engine, poly, status)
        _emit(
            {
                "lambda": list(idx.lam),
                "gamma": list(idx.gamma),
                "eta": list(idx.eta),
                "engine": engine,
                "poly": poly.to_json(),
                "display": repr(poly),
                "status": status,
            },
            args.out,
        )
    return 1 if failures else 0


def cmd_crosscheck(args) -> int:
    cache = load_cache(args.cache) if args.cache else None
    sample = (args.sample, args.sample_count) if args.sample is not None else None
    rep = crosscheck_family(
        args.max_n,
        args.max_weight,
        include_dualities=not args.no_dualities,
        sample=sample,
        cache=cache,
    )
    _emit(rep.to_json(), args.out)
    return 0 if rep.ok else 1


def cmd_scan(args) -> int:
    scan = SCANS.get(args.kind)
    if scan is None:
        raise SystemExit(f"unknown scan kind {args.kind!r} (choose from {sorted(SCANS)})")
    sample = (args.sample, args.sample_count) if args.sample is not None else None
    rep = scan(args.max_n, args.max_weight, sample=sample)
    _emit(rep.to_json(), args.out)
    return 0 if rep.ok else 1


def poset_dot(alpha) -> str:
    """Graphviz text for the cover graph of one content.

    Vertices are labelled by reading word and grade; parallel covers (one
    relation reachable from several corners) collapse to a single arrow.
    """
    poset = cyclage_poset(alpha)
    names = {}
    lines = ["digraph cyclage {", "  rankdir=TB;"]
    for i, (v, g) in enumerate(zip(poset.vertices, poset.grades)):
        word = "".join(str(x) for x in v.word())
        names[v] = f"t{i}"
        lines.append(f'  t{i} [label="{word} ({g})"];')
    for upper, lower in sorted({(e.upper, e.lower) for e in poset.edges},
                               key=lambda p: (p[0].word(), p[1].word())):
        lines.append(f"  {names[upper]} -> {names[lower]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_dot(args) -> int:
    alpha = _vec(args.alpha)
    text = poset_dot(alpha)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    check = CHECKS.get(args.name)
    if check is None:
        raise SystemExit(f"unknown check {args.name!r} (choose from {sorted(CHECKS)})")
    rep = check(args.n)
    _emit(rep.to_json(), args.out)
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlr",
        description="q-analogues of Littlewood-Richardson coefficients, four ways",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate one index with one or all engines")
    c.add_argument("--lam", default="", help="comma-separated weight")
    c.add_argument("--gamma", default="", help="comma-separated weight")
    c.add_argument("--eta", default="", help="comma-separated composition")
    c.add_argument("--rects", default="", help="JSON list of blocks, e.g. [[3,2],[2,1],[1]]")
    c.add_argument("--engine", default="all", choices=ENGINES + ("all",))
    c.add_argument("--degree-bound", type=int, default=None)
    c.add_argument("--cache", default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_compute)

    x = sub.add_parser("crosscheck", help="engine agreement and identity sweep")
    x.add_argument("--max-n", type=int, default=3)
    x.add_argument("--max-weight", type=int, default=4)
    x.add_argument("--no-dualities", action="store_true")
    x.add_argument("--sample", type=int, default=None, help="random seed")
    x.add_argument("--sample-count", type=int, default=50)
    x.add_argument("--cache", default=None)
    x.add_argument("--out", default=None)
    x.set_defaults(func=cmd_crosscheck)

    s = sub.add_parser("scan", help="conjecture scans")
    s.add_argument("--kind", required=True, choices=sorted(SCANS))
    s.add_argument("--max-n", type=int, default=3)
    s.add_argument("--max-weight", type=int, default=4)
    s.add_argument("--sample", type=int, default=None, help="random seed")
    s.add_argument("--sample-count", type=int, default=50)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_scan)

    d = sub.add_parser("dot", help="emit a cyclage poset as Graphviz text")
    d.add_argument("--alpha", required=True, help="content, e.g. 2,1")
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_dot)

    k = sub.add_parser("check", help="theorem checks at a given size")
    k.add_argument("--name", required=True, choices=sorted(CHECKS))
    k.add_argument("--n", type=int, default=5)
    k.add_argument("--out", default=None)
    k.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
