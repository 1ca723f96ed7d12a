"""The timed process: one repetition of one workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC OUT [--trace]
    python3 perfbench/worker.py SPEC --setup-only

SPEC is the JSON input run.py generated from the seed. The worker
imports qlr, runs the ops of SPEC one after another (a closed loop on one
thread: the next op starts when the previous one returns) and writes to OUT
each op's latency, canonical output and error, the time from the first op to
the last, and its peak RSS. Latency and time are at the reference speed of
``speed.py``, with host-speed probes run every few milliseconds;
``raw_wall_s`` is the time as measured, probes left out. With --trace it
runs no probes, installs the per-layer spans first and adds their metrics.
--setup-only stops after the imports and the input load, so run.py can time
set-up on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qlr  # noqa: E402
import qlr.cli  # noqa: E402,F401  (set-up pays for every module a workload uses)
import speed  # noqa: E402


def _csv(values) -> str:
    return ",".join(str(x) for x in values)


def finish(op_s, starts, outputs, errors, clock) -> dict:
    scaled = clock.scaled(starts, op_s)
    return {"wall_s": sum(scaled), "raw_wall_s": sum(op_s), "op_s": scaled,
            "outputs": outputs, "errors": errors}


def run_sweep(spec, clock) -> dict:
    """Ops are the indices that ``crosscheck_family`` visits.

    Two markers rebound in ``qlr.verify`` timestamp each group and each
    index as the sweep reaches it. A group's set-up (its series expansion)
    is charged to the group's first index, and the call's own set-up to its
    first op. A call where no marker fires counts as one op.
    """
    verify = qlr.verify
    marks = []
    make_index, make_rects = verify.KIndex, verify.rect_sequence

    def index_mark(lam, gamma, eta):
        marks.append((clock.now(), (tuple(lam), tuple(gamma), tuple(eta))))
        return make_index(lam, gamma, eta)

    def group_mark(eta, gamma):
        marks.append((clock.now(), None))
        return make_rects(eta, gamma)

    verify.KIndex, verify.rect_sequence = index_mark, group_mark
    calls = [
        (spec["exhaustive"], None),
        (spec["sampled"], tuple(spec["sample"])),
    ]
    op_s, op_starts, outputs, errors, reports = [], [], [], [], []
    for (max_n, max_weight), sample in calls:
        first = len(marks)
        error = None
        call_start = clock.now()
        try:
            rep = verify.crosscheck_family(max_n, max_weight, sample=sample)
        except Exception as exc:  # a raising op is a failed op
            rep, error = None, repr(exc)
        end = clock.now()
        starts, keys, group_start = [], [], None
        for t, key in marks[first:]:
            if key is None:
                group_start = t
            else:
                starts.append(t if group_start is None else group_start)
                keys.append(key)
                group_start = None
        bad = {}
        if rep is not None:
            summary = rep.to_json()
            summary.pop("elapsed_s")
            reports.append(summary)
            for ce in rep.counterexamples:
                idx = ce["index"]
                bad[(idx.lam, idx.gamma, idx.eta)] = f"counterexample: {ce['check']}"
        if not keys:  # the sweep raised at once, or no marker fired
            keys = [None]
        starts[:1] = [call_start]
        for i, key in enumerate(keys):
            stop = starts[i + 1] if i + 1 < len(starts) else end
            op_s.append(stop - starts[i])
            op_starts.append(starts[i])
            outputs.append(None)
            errors.append(bad.get(key))
        if error or set(bad) - set(keys):
            errors[-1] = error or "counterexample at an unmarked index"
    return {**finish(op_s, op_starts, outputs, errors, clock), "extra": reports}


def closed_loop(ops, run_op, clock):
    """Run ``run_op`` on each op in turn, each starting when the last returns.

    Returns the per-op seconds, clock start times, results and errors. A
    raising op is a failed op.
    """
    op_s, starts, results, errors = [], [], [], []
    for op in ops:
        out, error = None, None
        t0 = clock.now()
        try:
            out = run_op(op)
        except Exception as exc:
            error = repr(exc)
        op_s.append(clock.now() - t0)
        starts.append(t0)
        results.append(out)
        errors.append(error)
    return op_s, starts, results, errors


def compute_op(op, cache):
    """One ``qlr compute`` call, in process; returns its exit status and stdout."""
    argv = ["compute", "--lam", _csv(op["lam"]), "--gamma", _csv(op["gamma"]),
            "--eta", _csv(op["eta"]), "--engine", op["engine"], "--cache", cache]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qlr.cli.main(argv)
    return code, buf.getvalue()


def run_index(spec, clock) -> dict:
    """Each op is one ``qlr compute`` call against the repetition's cache file."""
    op_s, starts, results, errors = closed_loop(
        spec["ops"], lambda op: compute_op(op, spec["cache"]), clock)
    outputs = []
    for i, result in enumerate(results):
        out = None
        if result is not None:
            code, text = result
            try:
                record = json.loads(text.strip().splitlines()[-1])
                out = {"poly": record["poly"]["coeffs"], "status": record["status"]}
            except (ValueError, IndexError, KeyError) as exc:
                errors[i] = errors[i] or f"unreadable output {text!r}: {exc!r}"
            if code:
                errors[i] = errors[i] or f"exit status {code}"
        outputs.append(out)
    return finish(op_s, starts, outputs, errors, clock)


def run_involution(spec, clock) -> dict:
    """Each op runs the whole cancellation argument for one index."""
    op_s, starts, reports, errors = closed_loop(
        spec["ops"],
        lambda op: qlr.verify_involution(op["lam"], qlr.rect_sequence(op["eta"], op["gamma"])),
        clock)
    outputs = [
        None if rep is None else
        {"ok": rep.ok, "sum": rep.signed_sum.to_json()["coeffs"], "triples": rep.triple_count}
        for rep in reports
    ]
    return finish(op_s, starts, outputs, errors, clock)


def _increasing_runs(w):
    runs = [[w[0]]]
    for x in w[1:]:
        if x >= runs[-1][-1]:
            runs[-1].append(x)
        else:
            runs.append([x])
    return [tuple(r) for r in runs]


def word_op(w, perms) -> dict:
    """Charge, crystal, RSK and cyclage invariants of one word."""
    # imported per call, as the traced run rebinds these names after start-up
    from qlr.charge import cocharge_grade
    from qlr.crystal import lattice_violation, sort_to_partition_content

    c = qlr.charge(w)
    p = qlr.schensted_p(w)
    image = None
    involution_ok = True
    if lattice_violation(w) is not None:
        image = qlr.lattice_involution(w)
        involution_ok = qlr.lattice_involution(image) == w
    words = _increasing_runs(w)
    rp, rq = qlr.column_rsk(words)
    t = qlr.schensted_p(sort_to_partition_content(w))
    s = qlr.cyclage_standardization(t)
    checks = {
        "plactic": all(qlr.charge(qlr.plactic_act(perm, w)) == c for perm in perms),
        "schensted": qlr.charge(p.word()) == c,
        "involution": involution_ok,
        "rsk": qlr.column_rsk_inverse(rp, rq) == words,
        "cyclage": cocharge_grade(s) == cocharge_grade(t),
    }
    return {"charge": c, "p": p.word(), "image": image, "standard": s.word(),
            "checks": checks}


def run_words(spec, clock) -> dict:
    op_s, starts, outputs, errors = closed_loop(
        spec["ops"], lambda op: word_op(tuple(op["w"]), [tuple(p) for p in op["perms"]]), clock)
    return finish(op_s, starts, outputs, errors, clock)


RUNNERS = {
    "sweep": run_sweep,
    "index": run_index,
    "involution": run_involution,
    "words": run_words,
}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    if "--setup-only" in argv:
        return 0
    tracer = None
    if "--trace" in argv:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    rep = RUNNERS[spec["workload"]](spec, speed.Clock(probing=tracer is None))
    rep["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        statuses = [o["status"] for o in rep["outputs"]
                    if isinstance(o, dict) and "status" in o]
        hits = sum(s.startswith("cached:") for s in statuses)
        rep["layers"] = tracer.metrics(hits, len(statuses))
    Path(argv[2]).write_text(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
