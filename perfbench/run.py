"""Benchmark runner for qlr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed in this process, then runs
repetitions of the workload, each in a fresh single-threaded worker process
(``worker.py``) so every repetition starts with cold memo tables, as a
command-line user does. Repetitions continue while another one fits in S
seconds. Set-up (interpreter start, ``import qlr``, input load) is timed in
fresh interpreters started between the first repetitions, so its median
spans the run rather than one moment of it. Op latencies and wall_s are at the
reference speed of ``speed.py``, scaled by host-speed probes run in the
worker, so that the shared host's slow spells do not show as changes of qlr.
setup_s is as measured: process start-up does not follow the probes. Every
output is checked:

* an op fails when it raises, returns a not-ok report or a counterexample,
  disagrees with the recurrence engine (charge only where labelled proven),
  breaks a word invariant, or differs from an earlier repetition;
* every op of a repetition fails when the repetition's output digest
  differs from the one committed in ``expected_digests.json`` for this
  workload and seed.

The last stdout line is the result as one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from ``spans.py``) with ``--trace 1``.
The line before it holds run metadata, the output digest and
``failed_frac``. Per-op digests of the first repetition go to
``.perfbench/ops-<workload>-seed<seed>.jsonl``.

Workloads (see BENCHMARK.json for why each exists):
  sweep       crosscheck_family over n <= 4, weight <= 8, plus seeded groups
              from n <= 5, weight <= 6; an op is one index
  index       ``qlr compute`` per (index, engine) at n = 6-8 with a cache file
  involution  verify_involution on dominant indices at n = 4-6
  words       charge, crystal, RSK and cyclage invariants of random words
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "index", "involution", "words")
SETUP_SPAWNS = 15
SETUP_PER_REP = 3
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def worker(*args) -> float:
    """Run worker.py with ``args``; return its wall time seen from here."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, args)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {WORKER_TIMEOUT_S} s") from exc
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return elapsed


def run_rep(workdir: Path, trace: bool):
    """One repetition in a fresh worker, with a fresh cache file."""
    out = workdir / "out.json"
    for stale in (out, workdir / "cache.jsonl"):
        stale.unlink(missing_ok=True)
    elapsed = worker(workdir / "spec.json", out, *(["--trace"] if trace else []))
    return json.loads(out.read_text()), elapsed


# -- output gate ---------------------------------------------------------------


def _index_checker(spec, refs):
    first = {}

    def check(i, out):
        op = spec["ops"][i]
        status = out["status"].removeprefix("cached:")
        if op["engine"] != "charge" or status == "proven":
            if out["poly"] != refs[i]:
                return False
        key = json.dumps(op, sort_keys=True)
        return first.setdefault(key, out["poly"]) == out["poly"]

    return check


CHECKERS = {
    "sweep": lambda spec, refs: lambda i, out: True,
    "index": _index_checker,
    "involution": lambda spec, refs: lambda i, out: out["ok"],
    "words": lambda spec, refs: lambda i, out: all(out["checks"].values()),
}


def gate(workload, spec, refs, reps, expected):
    """Count attempted and failed ops over all repetitions.

    Returns (attempted, failed, digest of the first repetition, per-op
    digests of the first repetition).
    """
    attempted = failed = 0
    rep_digests, first_ops = [], None
    for rep in reps:
        check = CHECKERS[workload](spec, refs)
        bad = [err is not None for err in rep["errors"]]
        for i, out in enumerate(rep["outputs"]):
            if not bad[i] and out is not None and not check(i, out):
                bad[i] = True
        op_digests = [digest(out) for out in rep["outputs"]]
        rep_digest = digest([op_digests, rep.get("extra")])
        rep_digests.append(rep_digest)
        if rep_digest != rep_digests[0] or (expected and rep_digest != expected):
            bad = [True] * len(bad)
        attempted += len(bad)
        failed += sum(bad)
        if first_ops is None:
            first_ops = [
                {"op": i, "digest": d, "ms": 1000 * t, "error": e}
                for i, (d, t, e) in enumerate(zip(op_digests, rep["op_s"], rep["errors"]))
            ]
    return attempted, failed, rep_digests[0], first_ops


# -- metrics ---------------------------------------------------------------------


def end_to_end(setup_samples, reps) -> dict:
    """Medians over repetitions; latency percentiles are taken over each
    op's median across repetitions, so a burst of load on a shared machine
    moves them less."""
    longest = max(len(rep["op_s"]) for rep in reps)
    op_ms = [
        1000 * statistics.median(rep["op_s"][i] for rep in reps if i < len(rep["op_s"]))
        for i in range(longest)
    ]
    deciles = statistics.quantiles(op_ms, n=10)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(rep["wall_s"] for rep in reps), "s"),
        "op_ms.p50": (deciles[4], "ms"),
        "op_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(rep["maxrss_kb"] for rep in reps) / 1024, "MB"),
    }


def metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "qlr").glob("*.py"))
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_qlr_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "qlr" / "__init__.py").is_file():
        print(f"qlr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    spec, refs = gen.generate(args.workload, args.seed)
    spec["workload"] = args.workload
    expected = json.loads((HERE / "expected_digests.json").read_text())
    expected = expected.get(args.workload, {}).get(str(args.seed))

    bench_dir = ROOT / ".perfbench"
    workdir = bench_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec["cache"] = str(workdir / "cache.jsonl")
        (workdir / "spec.json").write_text(json.dumps(spec))
        if args.trace:
            plain, _ = run_rep(workdir, trace=False)
            traced, _ = run_rep(workdir, trace=True)
            reps = [plain, traced]
            metrics = {name: tuple(v) for name, v in traced["layers"].items()}
            metrics["trace.overhead_ratio"] = (traced["raw_wall_s"] / plain["raw_wall_s"], "ratio")
        else:
            reps, spent, setup = [], [], []

            def time_setup(count):
                setup.extend(worker(workdir / "spec.json", "--setup-only")
                             for _ in range(min(count, SETUP_SPAWNS - len(setup))))

            start = perf_counter()
            while True:
                time_setup(SETUP_PER_REP)
                rep, elapsed = run_rep(workdir, trace=False)
                reps.append(rep)
                spent.append(elapsed)
                if perf_counter() - start + statistics.median(spent) > args.seconds:
                    break
            time_setup(SETUP_SPAWNS)
            metrics = end_to_end(setup, reps)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, rep_digest, op_report = gate(args.workload, spec, refs, reps, expected)
    with open(bench_dir / f"ops-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for line in op_report:
            fh.write(json.dumps(line) + "\n")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reps": len(reps), "ops_per_rep": len(reps[0]["op_s"]),
        "digest": rep_digest, "expected_digest": expected,
        "failed_frac": failed / attempted if attempted else 1.0,
        **metadata(),
    }))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
