"""Run every workload once per seed and print the median and quartiles of
every end-to-end metric.

    python3 bench/spread.py [--seeds 0 1 2 ...]      (default: seeds 0-9)

The workloads and the run length come from BENCHMARK.json.  Each run is
`bench/run.py --workload W --seed S --trace 0`, one after another.  For each
workload and metric it prints the median, the first and third quartile
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, which is what
the bounds in BENCHMARK.json are set against; then the failed share of the
operations attempted, which must be the same in every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=BENCH.parent, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            runs.append(res)
            print(f"{wl} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"{wl}: correct={all(r['correct'] for r in runs)} failed/attempted={sorted(shares)}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            print(f"  {name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f} "
                  f"bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}")
        if not all(r["correct"] for r in runs) or len({f / a for f, a in shares}) > 1:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
