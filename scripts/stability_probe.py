"""Learning-rate stability sweep for the toy conditioning loop.

Trains a baseline and a conditioned arm at each rung of a ladder of
learning rates, with and without gradient-norm clipping, and reports
where the divergence detector fires in each arm.  Divergence is
recorded in the report, never raised, so a sweep always completes.
"""

from __future__ import annotations

import argparse

from ecr.toytrain import (
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
    parser.add_argument("--lrs", default="0.05,0.5,5,50")
    parser.add_argument("--grad-clip", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-per-lang", type=int, default=50)
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args(argv)

    data = make_synthetic_corpus(seed=args.seed, n_per_lang=args.n_per_lang)
    anchors = build_toy_anchors(data, ("T", "L", "E", "I"), seed=args.seed)

    rows = []
    for lr in (float(x) for x in args.lrs.split(",")):
        for clip in (0.0, args.grad_clip):
            config = TrainConfig(
                seed=args.seed, learning_rate=lr, epochs=args.epochs, grad_clip=clip
            )
            for _, report in train_arms(data, anchors, paired_arms(config, anchors)):
                final_nll = summary_row(report.to_dict())["nll"]
                rows.append(
                    {
                        "lr": lr,
                        "clip": clip,
                        "arm": report.arm,
                        "steps": len(report.loss_curve),
                        "diverged": report.diverged,
                        "divergence_step": report.divergence_step,
                        "final_nll": final_nll,
                    }
                )
                print(
                    f"lr={lr:g} clip={clip:g} {report.arm}: diverged={report.diverged} "
                    f"steps={len(report.loss_curve)} nll={final_nll:.4f}"
                )

    print()
    print(
        render_table(
            rows, ["lr", "clip", "arm", "steps", "diverged", "divergence_step", "final_nll"]
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
