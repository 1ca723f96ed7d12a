"""Command-line interface: compute, crosscheck, scan, dot, check.

All results are emitted as JSON lines; polynomials serialize as
{"coeffs": {"0": -1, "1": 1}}.  The exit status is nonzero exactly when a
check fails, a scan finds a counterexample or either checks nothing (1), or
when a subcommand is given malformed input (an unparsable index or content,
a size below its least legal value, a --cache or --out path that is a
directory or lies in a missing one), which it reports as one JSON error
record (2), on stdout only for a bad path.  The --cache option points at an append-only
JSON-lines file keyed by the canonical normalized index and engine tag.  A
record holds the normalized index's polynomial, and a read multiplies it by
the Bott sign of the index asked about.  On reload the last write wins, and
lines that do not decode or parse, or carry another format version or a
status that ``compute`` never writes for their engine, are skipped.
``compute`` reads the file once and parses only its key's records, from the
last one back.  A series result cut short by a --degree-bound below the
attainable degree is labelled ``truncated`` and is never cached.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .cyclage import cyclage_poset
from .kpoly import CONJECTURAL, ENGINES, PROVEN, KIndex, QPoly, _compute_normalized
from .shapes import from_rects, pad
from .verify import CHECKS, SCANS, crosscheck_family, index_key

# records written before the cache held normalized polynomials have no version
CACHE_VERSION = 2
# the statuses ``compute`` writes by engine; a truncated series is never written
CACHED_STATUSES = {"kostant": ("exact",), "recurrence": ("exact",), "series": ("exact",),
                   "charge": (PROVEN, CONJECTURAL)}


def _vec(text):
    text = text.strip()
    if not text or text == "-":
        return ()
    fields = text.split(",")
    if not all(f.strip() for f in fields):
        raise ValueError(f"empty field in {text!r}")
    return tuple(map(int, fields))


def _emit(obj, out):
    line = json.dumps(obj, sort_keys=True)
    print(line)
    if out:
        with open(out, "a") as fh:
            fh.write(line + "\n")


def _record(line: bytes, head: str = "") -> dict:
    """{(index key, engine): (QPoly, status)} of one cache line that begins,
    once stripped, with ``head``; empty when it does not, or does not decode or
    parse (say, cut short by a crash mid-append), or is of another version, or
    carries a status that ``compute`` never writes for its engine."""
    try:
        text = line.decode().strip()
        if (text.startswith(head) and (rec := json.loads(text))["version"] == CACHE_VERSION
                and rec["status"] in CACHED_STATUSES[rec["engine"]]):
            return {(rec["key"], rec["engine"]): (QPoly.from_json(rec["poly"]), rec["status"])}
    except (ValueError, KeyError, TypeError, AttributeError):
        pass
    return {}


def load_cache(path, wanted=None):
    """Map (index key, engine) -> (QPoly, status); the last valid write of
    this format version wins.

    With ``wanted``, a set of such keys, a byte search finds the lines that
    begin as ``compute`` writes a record of one of them, and only those are
    parsed, each key's from its last one back.
    """
    p = Path(path)
    if not p.exists():
        return {}
    data = p.read_bytes()
    if wanted is None:
        return {k: v for line in data.split(b"\n") for k, v in _record(line).items()}
    cache = {}
    for key in wanted:
        head = json.dumps({"key": key[0], "engine": key[1]})[:-1]
        end = len(data)
        while (i := data.rfind(head.encode(), 0, end)) >= 0:
            # the match's line, whose start bounds the next search
            end, stop = data.rfind(b"\n", 0, i) + 1, data.find(b"\n", i)
            if key in (rec := _record(data[end:stop if stop >= 0 else None], head)):
                cache[key] = rec[key]
                break
    return cache


def _parse_index(args) -> KIndex:
    """The index named on the command line; ValueError when it is malformed."""
    if args.rects:
        rects = json.loads(args.rects)
        if not isinstance(rects, list) or not all(
            isinstance(r, list) and all(type(x) is int for x in r) for r in rects
        ):
            raise ValueError(f"--rects must be a list of integer lists, got {args.rects!r}")
        rs = from_rects(rects)
        return KIndex(pad(_vec(args.lam), rs.n), rs.gamma, rs.eta)
    if not (args.lam and args.gamma and args.eta):
        raise ValueError("compute needs --lam, --gamma, --eta (or --rects)")
    return KIndex(_vec(args.lam), _vec(args.gamma), _vec(args.eta))


def _bad_input(args, reason) -> int:
    """Answer malformed command-line input with one JSON error record."""
    _emit({"command": args.command, "error": f"bad input: {reason}"}, args.out)
    return 2


def cmd_compute(args) -> int:
    try:
        idx = _parse_index(args)
    except ValueError as exc:
        return _bad_input(args, exc)
    run_all = args.engine == "all"
    engines = ENGINES if run_all else (args.engine,)
    norm = idx.normalized()
    sign, nidx = norm or (1, None)
    key = index_key(nidx)
    cache = load_cache(args.cache, {(key, e) for e in engines}) if args.cache else None
    failures = 0
    for engine in engines:
        record = {
            "lambda": list(idx.lam),
            "gamma": list(idx.gamma),
            "eta": list(idx.eta),
            "engine": engine,
        }
        cached = cache.get((key, engine)) if cache is not None else None
        if cached is not None:
            poly, status = cached[0], f"cached:{cached[1]}"
        else:
            try:
                poly, status = _compute_normalized(norm, engine, args.degree_bound)
            except ValueError as exc:
                if run_all and engine == "charge":
                    record.update(status="inapplicable", reason=str(exc))
                else:
                    record.update(error=str(exc))
                    failures += 1
                _emit(record, args.out)
                continue
            if args.cache and status != "truncated":
                with open(args.cache, "a") as fh:
                    fh.write(json.dumps({"key": key, "engine": engine, "version": CACHE_VERSION,
                                         "poly": poly.to_json(),
                                         "status": status}) + "\n")
        poly *= sign
        record.update(poly=poly.to_json(), display=repr(poly), status=status)
        _emit(record, args.out)
    return 1 if failures else 0


def _report(rep, out) -> int:
    """Emit a sweep's or check's report; exit status 1 when it found a counterexample."""
    _emit(rep.to_json(), out)
    return 0 if rep.ok else 1


def _sample(args):
    return (args.sample, args.sample_count) if args.sample is not None else None


def cmd_crosscheck(args) -> int:
    cache = load_cache(args.cache) if args.cache else None
    rep = crosscheck_family(args.max_n, args.max_weight, sample=_sample(args), cache=cache)
    return _report(rep, args.out)


def cmd_scan(args) -> int:
    rep = SCANS[args.kind](args.max_n, args.max_weight, sample=_sample(args))
    return _report(rep, args.out)


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
    try:
        alpha = _vec(args.alpha)
        if any(x < 0 for x in alpha):
            raise ValueError(f"--alpha must be a composition, got {args.alpha!r}")
        text = poset_dot(alpha)
    except ValueError as exc:
        return _bad_input(args, exc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    return _report(CHECKS[args.name](args.n), args.out)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="qlr",
        description="q-analogues of Littlewood-Richardson coefficients, four ways",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand's --out; the sweeps' index family and seeded sample of its groups
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    family = argparse.ArgumentParser(add_help=False, parents=[out])
    family.add_argument("--max-n", type=int, default=3)
    family.add_argument("--max-weight", type=int, default=4)
    family.add_argument("--sample", type=int, default=None, help="random seed")
    family.add_argument("--sample-count", type=int, default=50)

    c = sub.add_parser("compute", parents=[out], help="evaluate one index with one or all engines")
    c.add_argument("--lam", default="", help="comma-separated weight")
    c.add_argument("--gamma", default="", help="comma-separated weight")
    c.add_argument("--eta", default="", help="comma-separated composition")
    c.add_argument("--rects", default="", help="JSON list of blocks, e.g. [[3,2],[2,1],[1]]")
    c.add_argument("--engine", default="all", choices=ENGINES + ("all",))
    c.add_argument("--degree-bound", type=int, default=None)
    c.add_argument("--cache", default=None)
    c.set_defaults(func=cmd_compute)

    x = sub.add_parser("crosscheck", parents=[family], help="engine agreement and identity sweep")
    x.add_argument("--cache", default=None)
    x.set_defaults(func=cmd_crosscheck)

    s = sub.add_parser("scan", parents=[family], help="conjecture scans")
    s.add_argument("--kind", required=True, choices=sorted(SCANS))
    s.set_defaults(func=cmd_scan)

    d = sub.add_parser("dot", parents=[out], help="emit a cyclage poset as Graphviz text")
    d.add_argument("--alpha", required=True, help="content, e.g. 2,1")
    d.set_defaults(func=cmd_dot)

    k = sub.add_parser("check", parents=[out], help="theorem checks at a given size")
    k.add_argument("--name", required=True, choices=sorted(CHECKS))
    k.add_argument("--n", type=int, default=5)
    k.set_defaults(func=cmd_check)

    return parser


# least legal value of each size option, on every subcommand that has it;
# a smaller one would make a sweep or check vacuous, or crash it
LEAST = {"max_n": 1, "max_weight": 0, "sample_count": 1, "n": 1}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name in ("cache", "out"):
        path = getattr(args, name, None)
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            args.out = None  # a bad path gets its answer on stdout only
            return _bad_input(args, f"--{name} {path!r} is a directory or in a missing one")
    for name, low in LEAST.items():
        value = getattr(args, name, low)
        if value < low:
            option = "--" + name.replace("_", "-")
            return _bad_input(args, f"{option} must be at least {low}, got {value}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
