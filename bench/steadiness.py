"""Run the benchmark over many seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads encode,ann,train-paired \
        --seeds 10 --first-seed 0 --seconds 20 [--trace 1]

Runs ``bench/run.py`` once per workload and seed, one process after the
other, and prints for every metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), and the distance
between the quartiles as a share of the median.  Also prints the failed
share of each workload, which must be the same in every run, and the
outputs digest of each run, so that traced and untraced runs of one
seed can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    printed = {}
    digest = ""
    notes = [line[2:] for line in lines[:-1] if line.startswith("# ")]
    for line in lines[:-1]:
        if line.startswith("# outputs sha256 "):
            digest = line.split()[-1]
        parts = line.split()
        if len(parts) >= 4 and parts[1] == "=":
            printed[parts[0]] = float(parts[2])
    return {"result": result, "printed": printed, "notes": notes, "digest": digest, "wall": wall}


def spread_table(runs: list[dict]) -> list[tuple]:
    rows = []
    for name in runs[0]["printed"]:
        values = [r["printed"][name] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else 0.0
        rows.append((name, med, q1, q3, share))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default="encode,ann,train-paired")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            res = run["result"]
            print(
                f"{workload} seed {seed}: correct={res['correct']} "
                f"attempted={res['attempted']} failed={res['failed']} "
                f"wall={run['wall']:.1f}s digest={run['digest'][:12]}",
                flush=True,
            )
            runs.append(dict(run, seed=seed))
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        print(f"\n{workload}: failed share {sorted(shares)}, all correct "
              f"{all(r['result']['correct'] for r in runs)}")
        print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/median':>10s}")
        for name, med, q1, q3, share in spread_table(runs):
            print(f"{name:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:10.2%}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
