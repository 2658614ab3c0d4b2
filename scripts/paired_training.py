"""Paired baseline/conditioned training across seeds.

One baseline/conditioned pair per seed on the synthetic aligned corpus;
both arms share base parameters and batch order, so the held-out NLL gap
is attributable to the control prefix alone.  The defaults reproduce the
headline comparison: conditioning should win on at least 8 of 10 seeds.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict

import numpy as np

from ecr.toytrain import (
    EcrSettings,
    TrainConfig,
    build_toy_anchors,
    make_synthetic_corpus,
    paired_arms,
    render_table,
    summary_row,
    train_arms,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, 0..n-1")
    parser.add_argument("--n-per-lang", type=int, default=100)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--learning-rate", type=float, default=0.05)
    parser.add_argument("--holdout", type=float, default=0.25)
    parser.add_argument("--bins", type=int, default=8)
    parser.add_argument("--factors", default="T,L,E,I")
    parser.add_argument("--query-content", type=int, default=4)
    parser.add_argument("--marker-repeat", type=int, default=2)
    parser.add_argument("--answer-noise", type=float, default=0.05)
    parser.add_argument("--out", default=None, help="optional JSON results path")
    args = parser.parse_args(argv)

    factors = tuple(f.strip() for f in args.factors.split(",") if f.strip())
    rows = []
    for seed in range(args.seeds):
        data = make_synthetic_corpus(
            seed=seed,
            n_per_lang=args.n_per_lang,
            query_content=args.query_content,
            marker_repeat=args.marker_repeat,
            answer_noise=args.answer_noise,
        )
        anchors = build_toy_anchors(data, factors, seed=seed)
        config = TrainConfig(
            seed=seed,
            learning_rate=args.learning_rate,
            epochs=args.epochs,
            holdout_fraction=args.holdout,
            ecr=EcrSettings(factors=factors, n_bins=args.bins),
        )
        base, cond = (
            summary_row(asdict(report))["nll"]
            for _, report in train_arms(data, anchors, paired_arms(config, anchors))
        )
        rows.append(
            {
                "seed": seed,
                "baseline_nll": base,
                "ecr_nll": cond,
                "gap": base - cond,
                "win": cond <= base,
            }
        )
        print(f"seed {seed}: baseline={base:.4f} ecr={cond:.4f} gap={base - cond:+.4f}")

    wins = sum(r["win"] for r in rows)
    gaps = [r["gap"] for r in rows]
    print()
    print(render_table(rows, ["seed", "baseline_nll", "ecr_nll", "gap", "win"]))
    print()
    print(f"wins: {wins}/{args.seeds}, mean gap {float(np.mean(gaps)):+.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"rows": rows, "wins": wins}, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
