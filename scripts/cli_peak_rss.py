"""Wall time and peak RSS of the set-up CLI pipeline.

Runs ``make-synthetic``, ``build-anchors`` and ``encode --out`` one after
the other, each as its own child process in a temporary directory, and
prints each command's seconds and the peak resident set size of its
process, as the kernel reports it for that child.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

import ecr


def _run(argv: list[str], env: dict[str, str]) -> tuple[float, float]:
    """Seconds and peak RSS in MB of one ``ecr`` command in a child process."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "ecr.cli", *argv], env=env, stdout=subprocess.DEVNULL
    ) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"ecr {argv[0]} exited {proc.returncode}")
    return seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-lang", type=int, default=10_000)
    parser.add_argument("--dim", type=int, default=768)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    # the children import the same ecr package as this process
    src = os.path.dirname(os.path.dirname(os.path.abspath(ecr.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as work:
        prefix = os.path.join(work, "toy")
        commands = [
            ["make-synthetic", "--seed", str(args.seed), "--n-per-lang", str(args.n_per_lang),
             "--dim", str(args.dim), "--out-prefix", prefix],
            ["build-anchors", "--embeddings", f"{prefix}.teacher.bin",
             "--corpus", f"{prefix}.corpus.jsonl", "--factors", "T,L,E,I,P", "--k", "P=8",
             "--seed", str(args.seed), "--out", f"{prefix}.anchors.bin"],
            ["encode", "--embeddings", f"{prefix}.teacher.bin",
             "--anchors", f"{prefix}.anchors.bin", "--out", f"{prefix}.prefixes.jsonl"],
        ]
        print(f"rows={3 * args.n_per_lang} d={args.dim}")
        print(f"{'command':<16}{'seconds':>10}{'peak_rss_mb':>14}")
        for command in commands:
            seconds, peak_mb = _run(command, env)
            print(f"{command[0]:<16}{seconds:>10.2f}{peak_mb:>14.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
