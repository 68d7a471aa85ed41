"""One workload in one process: set up, run timed rounds, check the outputs.

Started by run.py, never by hand:
    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints READY once set-up is done (run.py times process start to that line),
then, unless --setup-only, one JSON line with the round timings, the counts
and the check results.  The library is imported from src/ of the checkout
this file sits in, never from an installed copy.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Round 0 is a warm-up: checked and counted, but left out of the timings, so
# one-time costs of the process (allocator growth, first-touch page faults)
# do not land on whichever ops happen to run first.  Every op runs at least
# MIN_ROUNDS times, which is also the determinism check.
MIN_ROUNDS = 3


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import affinetest

    if Path(affinetest.__file__).resolve().parent != src / "affinetest":
        raise SystemExit(f"affinetest imported from {affinetest.__file__}, not {src}")


def _digest(record) -> str:
    if hasattr(record, "digest"):
        return record.digest()
    import hashlib

    return hashlib.sha256(repr(record).encode()).hexdigest()


def run_round(wl, tracer=None):
    from harness import clear_caches

    clear_caches()
    if tracer is not None:
        tracer.start_round()
    rets, lat = [], []
    t0 = time.perf_counter()
    for op in wl.ops:
        if wl.cold_each_op:
            if tracer is not None:
                tracer.absorb_caches()
            clear_caches()
        if op.prepare is not None:
            op.prepare()
        # an op's latency is the worker's CPU time (user + system) for it: on
        # a shared machine its wall time also counts the time the scheduler
        # gives other processes and the host steals, which is not the program's
        s = time.process_time()
        rets.append(op.run())
        lat.append(time.process_time() - s)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    records = [op.collect(r) for op, r in zip(wl.ops, rets)]
    if tracer is not None:
        tracer.end_round(sum(len(data) for r in records for _, data in getattr(r, "files", ())))
    return wall, lat, records


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_library()
    module = importlib.import_module(f"wl_{args.workload}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = module.setup(args.seed, workdir)
        print("READY", flush=True)
        if not args.setup_only:
            print(json.dumps(measure(wl, args)), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    walls, traced_walls, lats, errors, faults = [], [], [], [], []
    first = last = None
    start = None
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if rounds == 1:
            start = time.perf_counter()
        # traced runs alternate untraced and traced rounds; the untraced ones
        # are the base of the tracing overhead
        traced = tracer is not None and rounds % 2 == 0 and rounds > 0
        wall, lat, records = run_round(wl, tracer if traced else None)
        if rounds > 0:
            (traced_walls if traced else walls).append(wall)
            if not traced:
                lats.append(lat)
        digests = [_digest(r) for r in records]
        if first is None:
            first = digests
        last = records
        rounds += 1
        if digests != first:
            bad = [op.name for op, a, b in zip(wl.ops, first, digests) if a != b]
            errors.append(f"outputs differ between rounds 1 and {rounds}: {bad[:5]}")
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    from harness import CertificationFault, CheckFailed

    notes = []
    for op, rec in zip(wl.ops, last):
        try:
            op.check(rec)
            if op.shows_fault:
                notes.append(f"{op.name}: the known fault no longer shows")
        except CertificationFault as exc:
            faults.append(f"{op.name}: {exc}")
        except CheckFailed as exc:
            errors.append(f"{op.name}: {exc}")
    # an op's latency is its mean CPU time over the measured rounds: the
    # machine's speed changes from one second to the next, and a 0.2 s op
    # sampled a few times is steadier averaged than at its median
    op_means = [statistics.fmean(per_op) for per_op in zip(*lats)]
    result = {
        "correct": not errors,
        "errors": errors,
        "faults": faults,
        "notes": notes,
        "rounds": rounds,
        "round_walls_s": [round(w, 4) for w in walls],
        "ops_per_round": len(wl.ops),
        "attempted": rounds * len(wl.ops),
        "failed": rounds * len(faults),
        "metrics": {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * _quantile(op_means, 0.50),
            "op_p90_ms": 1e3 * _quantile(op_means, 0.90),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        },
    }
    if tracer is not None and traced_walls:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = tracer.metrics(overhead)
        result["table"] = tracer.table()
        result["spans_file"] = str(tracer.dump(ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"))
    return result


def _quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all the
    order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.  It reads the
    ops around the quantile rather than the one or two at it, so it moves
    less with the noise of single ops than the interpolated order statistic.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid)), cdf / cdf[-1])
    return float(np.diff(edges) @ x)


if __name__ == "__main__":
    main()
