"""Benchmark of the ecr toolkit: one workload per process, timed from outside.

    python3 bench/run.py --workload {encode,ann,train-paired} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the benchmark imports the ecr package
from ``src/`` of that checkout and exits with code 2 if it is missing.
It makes its inputs from ``--seed``, sets up, warms up, then runs whole
rounds of the workload for ``--seconds`` seconds, setting up again before
each round and checking every output against a computation made apart
from the program.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
public functions of every ecr module in spans and reports the per-layer
metrics instead, with the spans written to ``.bench_out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy is imported; with two cores a second BLAS thread
# only adds scheduling noise to single-caller timings.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["encode", "ann", "train-paired"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def run(args, workdir: str) -> dict:
    import numpy as np

    import ecr
    import ecr.cli  # noqa: F401  (not imported by the package itself)

    import checks
    import spans
    import workloads

    checks.self_test(workdir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}")
        wrapped = tracer.install(ecr)
        print(f"# tracing {wrapped} public functions")
    wl = workloads.WORKLOADS[args.workload](ecr, args.seed, workdir, tracer)

    def timed_setup():
        with wl.phase("setup"):
            t0 = time.perf_counter_ns()
            wl.setup()
            wl.setup_s.append((time.perf_counter_ns() - t0) / 1e9)

    wl.fixture()
    timed_setup()
    with wl.phase("check"):
        wl.prepare()
    with wl.phase("warmup"):
        wl.warm_up()
    gc.collect()
    gc.freeze()

    with wl.phase("round"):
        deadline = time.perf_counter() + args.seconds
        while True:
            for _ in range(wl.SETUPS_PER_ROUND):
                timed_setup()
            wl.run_round()
            wl.adversarial_round()
            if time.perf_counter() >= deadline:
                break
    gc.unfreeze()

    setup = statistics.median(wl.setup_s)
    if wl.extra_setup_s:
        setup += statistics.median(wl.extra_setup_s)
    e2e = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    e2e.update(wl.metrics())

    print(f"# workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, cpus {os.cpu_count()}"
    )
    print(f"# {len(wl.setup_s)} set-ups, {wl.rounds} rounds, {wl.attempted} attempted, {wl.failed} failed")
    for reason, n in sorted(wl.failures.items()):
        print(f"# failed scale-adversarial: {n} {reason}")
    for line in wl.notes():
        print(f"# {line}")
    print(f"# {wl.tails()}")
    print(f"# near-edge bins (counted, not failed): {wl.edge_bins}")
    print(f"# outputs sha256 {wl.digest.hexdigest()}")
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in wl.printed().items():
        print(f"{name} = {value:.6g} {unit}  (not gated)")
    for problem in wl.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    metrics = e2e
    if tracer is not None:
        metrics = tracer.per_layer(len(wl.setup_s), wl.rounds)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        trace_path = os.path.join(OUT, f"trace-{wl.name}.jsonl")
        tracer.write(
            trace_path,
            {"workload": wl.name, "seed": args.seed, "setups": len(wl.setup_s), "rounds": wl.rounds},
        )
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
    return {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ecr", "__init__.py")):
        print(f"error: no ecr package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
