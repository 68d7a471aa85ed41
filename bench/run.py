"""The affinetest benchmark.

    python3 bench/run.py --workload tester|decompose|oracles --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own worker
process (bench/worker.py): one client issuing operations back to back, with
the BLAS/OpenMP thread count fixed at 1.  The worker is also started
SETUP_PROBES more times to set up and exit, and setup_s is the median of the
process-start-to-first-operation times.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run instead.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("tester", "decompose", "oracles")
BLAS_THREADS = "1"
SETUP_PROBES = 4
DEADLINE_S = 170


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _start(args, deadline, setup_only):
    """Start a worker; return (process, seconds from start to READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise SystemExit(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("worker exceeded the run deadline") from None
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "affinetest" / "__init__.py").is_file():
        print(f"no affinetest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    for _ in range(SETUP_PROBES):
        proc, ready = _start(args, deadline, setup_only=True)
        _finish(proc, deadline)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe exited {proc.returncode}")
        setups.append(ready)
    proc, ready = _start(args, deadline, setup_only=False)
    setups.append(ready)
    out = _finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"worker exited {proc.returncode} without a result")
    res = json.loads(out.strip().splitlines()[-1])

    print(f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"rounds={res['rounds']} ops_per_round={res['ops_per_round']} "
          f"failed_per_round={len(res['faults'])} "
          f"setup_samples_s={[round(s, 4) for s in setups]} round_walls_s={res['round_walls_s']}")
    for fault in res["faults"]:
        print(f"failed (known fault): {fault}")
    for note in res["notes"]:
        print(f"note: {note}")
    for err in res["errors"]:
        print(f"WRONG OUTPUT: {err}")
    if args.trace:
        print(res.get("table", "no traced round completed"))
        print(f"spans written to {res.get('spans_file')}")
        metrics = res.get("layers", {})
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["metrics"]["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": res["metrics"]["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": res["metrics"]["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": res["metrics"]["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
