"""Latency of the single-row codec calls, split into their stages.

Times two calls, each on one input at a time:

- ``codec.encode`` on teacher-width rows: d = 768, 29 anchors (factors
  T,L,E,I,P with 8 k-means anchors for P), 8 bins, with a vocabulary;
- ``toytrain.sample_prefix`` on the samples of the train-paired shape:
  d = 24, factors T,L,E,I, 8 bins, on a freshly initialized model.

Every input is called ``--passes`` times.  For each call the script
prints the median over inputs of each input's fastest call, the p99 over
all calls with their count, and the split of that median into stages.  A
stage is timed as the steps of the call up to its end (project: the
checked token table and the row's cosines; quantize: the row's table
indices; render: the whole call; for ``sample_prefix`` the pooled row
comes first), and its share is its median less the one before it, so a
share near zero can read slightly negative.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/codec_latency.py
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ecr import codec, toytrain
from ecr.anchors import build_anchor_set

N_BINS = 8


def _report(name: str, stages: list[tuple[str, object]], inputs, passes: int) -> None:
    """Print one call's median best, p99 and stage split; the last stage is
    the call.  The stages run back to back on each input, so they see the
    same host speed."""
    ns = np.zeros((passes, len(stages), len(inputs)), dtype=np.int64)
    for p in range(passes):
        for i, x in enumerate(inputs):
            for s, (_, call) in enumerate(stages):
                t0 = time.perf_counter_ns()
                call(x)
                ns[p, s, i] = time.perf_counter_ns() - t0
    medians = (np.median(ns.min(axis=0), axis=1) / 1e3).tolist()
    split = " ".join(
        f"{stage}={now - before:.1f}"
        for (stage, _), before, now in zip(stages, [0.0] + medians, medians)
    )
    p99 = float(np.percentile(ns[:, -1], 99)) / 1e3
    print(f"{name:<14}{medians[-1]:>10.1f}{p99:>10.1f}{ns[:, -1].size:>9d}  {split}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=200, help="inputs per call")
    parser.add_argument("--passes", type=int, default=20, help="timed calls per input")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    teacher = toytrain.make_synthetic_corpus(seed=args.seed, n_per_lang=100, n_factors=6, d=768)
    anchors = build_anchor_set(
        teacher.embeddings, teacher.corpus, ("T", "L", "E", "I", "P"), k={"P": 8}, seed=args.seed
    )
    vocab = codec.token_vocabulary(anchors, N_BINS, 1000)
    rows = list(teacher.embeddings.data[: args.rows].astype(np.float64))

    data = toytrain.make_synthetic_corpus(
        seed=args.seed, n_per_lang=100, query_content=4, marker_repeat=2, answer_noise=0.05
    )
    toy = toytrain.build_toy_anchors(data, ("T", "L", "E", "I"), seed=args.seed)
    model = toytrain.init_model(data.layout.base_size, toy.d, toy, N_BINS, args.seed)
    settings = toytrain.EcrSettings(enabled=True, factors=toy.factors, n_bins=N_BINS)
    samples = toytrain.make_samples(data)[: args.rows]

    def pooled(s):
        return toytrain._pooled_queries(model, [s.tokens[: s.query_len]])[0]

    def cosines(h, anchor_set, voc):
        # encode's steps up to its projection: the checked table, the row's cosines
        table, _ = codec._checked_table(anchor_set, N_BINS, "global", "factor", voc)
        return table, codec._row_cosines(h, table.unit)

    def indices(h, anchor_set, voc):
        table, values = cosines(h, anchor_set, voc)
        return codec._table_indices(values, table, "global", 1, "factor")

    print(f"anchors={anchors.total_k} d={anchors.d} | anchors={toy.total_k} d={toy.d}; "
          f"{args.passes} passes over {args.rows} inputs")
    print(f"{'call':<14}{'best_us':>10}{'p99_us':>10}{'calls':>9}  split_us")
    _report("encode", [
        ("project", lambda h: cosines(h, anchors, vocab)),
        ("quantize", lambda h: indices(h, anchors, vocab)),
        ("render", lambda h: codec.encode(h, anchors, N_BINS, vocab=vocab)),
    ], rows, args.passes)
    _report("sample_prefix", [
        ("pool", pooled),
        ("project", lambda s: cosines(pooled(s), toy, model.vocab)),
        ("quantize", lambda s: indices(pooled(s), toy, model.vocab)),
        ("render", lambda s: toytrain.sample_prefix(model, s, toy, settings)),
    ], samples, args.passes)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
