"""Command-line entry point.

One subcommand per pipeline stage: derive anchors, encode prefixes, fit
PCA, build and query indices, compute geometry and consistency metrics,
generate synthetic corpora, and run the toy training harness.  Every
invocation is deterministic given its flags and --seed; outputs are
written atomically and input files are never modified.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from typing import Iterable, Iterator

import numpy as np

from .anchors import (
    AnchorError,
    build_anchor_set,
    corpus_labels,
    load_anchors,
    save_anchors,
)
from .binio import atomic_write_text
from .codec import encode_batch, project_batch, rank_anchors
from .corpus import (
    LANGUAGES,
    EmbeddingMatrix,
    load_corpus,
    load_embeddings,
    save_corpus,
    save_embeddings,
)
from .geometry import (
    GeometryError,
    anchor_labels,
    compute_geometry,
    crosslingual_consistency,
    purity,
)
from .retrieval import (
    bench_query_latency,
    build_index,
    fit_pca,
    load_index,
    load_pca,
    pca_project,
    query,
    save_index,
    save_pca,
)
from .toytrain import (
    EcrSettings,
    ToyTrainError,
    TrainConfig,
    build_toy_anchors,
    make_synthetic_corpus,
    render_report,
    run_ablation,
    run_experiment,
    run_single_arm,
)


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_report(out: str | None, payload: dict) -> None:
    """The ``--out`` of a report: the JSON file and its ``wrote`` line."""
    if out:
        _write_json(out, payload)
        print(f"wrote {out}")


# ``encode``, ``topk`` and ``consistency`` widen this many rows to float64
# at a time, never the whole file; the codec gives a row the same bits in any block.
_ROW_BLOCK = 256


def _emit_rows(out: str | None, rows: Iterable[dict], note: str) -> None:
    """JSON lines to ``out`` followed by ``note``, or one printed per row.

    Nothing is written or printed until every row is made, so a row that
    raises leaves no partial output.
    """
    lines = [json.dumps(row, sort_keys=True) for row in rows]
    if out:
        atomic_write_text(out, "\n".join(lines) + "\n")
        print(note)
    else:
        for line in lines:
            print(line)


def _row_blocks(matrix: EmbeddingMatrix) -> Iterator[tuple[list[str], np.ndarray]]:
    """The ids and float64 rows of ``matrix``, ``_ROW_BLOCK`` rows at a time.

    A matrix with no rows still gives one empty block, so that the codec
    checks the flags it is given.
    """
    for start in range(0, max(matrix.n, 1), _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        yield matrix.ids[start:stop], matrix.data[start:stop].astype(np.float64)


def _load_vectors(path: str, pca: str | None) -> tuple[list[str], np.ndarray]:
    """The ids and float64 rows of an embedding file, PCA-projected if ``pca``
    names a model; the loaded float32 matrix is not kept beside them."""
    matrix = load_embeddings(path)
    ids, vectors = matrix.ids, matrix.data.astype(np.float64)
    del matrix
    return ids, pca_project(load_pca(pca), vectors) if pca else vectors


# ---------------------------------------------------------------------------
# Subcommand handlers


def _parse_k(text: str | None):
    """Cluster-count flag: a bare integer or FACTOR=K pairs."""
    if text is None:
        return None
    if "=" not in text:
        return int(text)
    out = {}
    for part in text.split(","):
        factor, _, value = part.partition("=")
        if not value:
            raise AnchorError(f"malformed --k entry {part!r}")
        out[factor.strip()] = int(value)
    return out


def _parse_factors(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def cmd_build_anchors(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    corpus = load_corpus(args.corpus)
    anchor_set = build_anchor_set(
        embeddings,
        corpus,
        _parse_factors(args.factors),
        mode=args.mode,
        k=_parse_k(args.k),
        seed=args.seed,
    )
    save_anchors(anchor_set, args.out)
    print(f"# seed: {args.seed}")
    sizes = ", ".join(
        f"{g.factor}={g.k}" for g in anchor_set.groups
    )
    print(f"anchors: {anchor_set.total_k} total ({sizes}), d={anchor_set.d}")
    print(f"checksum: {anchor_set.checksum()}")
    print(f"wrote {args.out}")
    return 0


def cmd_encode(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    anchors = load_anchors(args.anchors, expect_d=embeddings.d)
    mode = "retrieval" if args.mode == "topk" else args.mode
    rows = (
        {
            "id": row_id,
            "text": prefix.text,
            "tokens": [t.render() for t in prefix.tokens],
        }
        for ids, block in _row_blocks(embeddings)
        for row_id, prefix in zip(
            ids, encode_batch(block, anchors, args.bins, mode=mode, k=args.k, scope=args.scope)
        )
    )
    _emit_rows(args.out, rows, f"encoded {embeddings.n} rows -> {args.out}")
    return 0


def cmd_topk(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    anchors = load_anchors(args.anchors, expect_d=embeddings.d)

    def rows():
        for ids, block in _row_blocks(embeddings):
            values = project_batch(block, anchors)
            for row_id, chosen, row in zip(ids, rank_anchors(values, args.k), values):
                yield {
                    "id": row_id,
                    "anchors": chosen.tolist(),
                    "affinities": row[chosen].tolist(),
                }

    _emit_rows(args.out, rows(), f"wrote {args.out}")
    return 0


def cmd_pca_fit(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    model = fit_pca(embeddings, args.dim, seed=args.seed)
    save_pca(model, args.out)
    print(f"# seed: {args.seed}")
    kept = float(model.explained_variance.sum())
    print(f"pca: {model.d} -> {model.r}, retained variance {kept:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_index_build(args) -> int:
    ids, vectors = _load_vectors(args.embeddings, args.pca)
    index = build_index(
        vectors,
        ids=ids,
        m=args.m,
        ef_construction=args.efc,
        seed=args.seed,
    )
    del vectors  # the index holds its own unit rows; save_index copies those
    save_index(index, args.out)
    print(f"# seed: {args.seed}")
    print(
        f"index: n={index.n}, d={index.d}, m={index.m}, "
        f"levels<={index.max_level}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_index_query(args) -> int:
    index = load_index(args.index)
    ids, vectors = _load_vectors(args.queries, args.pca)
    rows = []
    for i, row_id in enumerate(ids):
        result = query(index, vectors[i], args.k, ef_search=args.ef)
        rows.append(
            {
                "query": row_id,
                "ids": list(result.ids),
                "scores": [float(s) for s in result.scores],
                "visited": result.visited,
            }
        )
    _emit_rows(args.out, rows, f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    index = load_index(args.index)
    _, vectors = _load_vectors(args.queries, args.pca)
    report = bench_query_latency(
        index,
        vectors,
        args.k,
        ef_search=args.ef,
        min_measurements=args.min_measurements,
    )
    payload = {
        "n_queries": report.n_queries,
        "k": report.k,
        "ef_search": report.ef_search,
        "mean_us": report.mean_us,
        "p50_us": report.p50_us,
        "p95_us": report.p95_us,
        "p99_us": report.p99_us,
        "mean_visited": report.mean_visited,
    }
    print(
        f"bench: {report.n_queries} queries, k={report.k}, ef={report.ef_search}"
    )
    print(
        f"latency us: mean={report.mean_us:.1f} p50={report.p50_us:.1f} "
        f"p95={report.p95_us:.1f} p99={report.p99_us:.1f}"
    )
    print(f"mean visited: {report.mean_visited:.1f}")
    _write_report(args.out, payload)
    return 0


def cmd_geometry(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    if args.partition == "labels":
        if not args.corpus:
            raise GeometryError("--partition labels requires --corpus")
        labels = corpus_labels(embeddings, load_corpus(args.corpus), args.factor)
    else:
        if not args.anchors:
            raise GeometryError("--partition anchors requires --anchors")
        labels = anchor_labels(embeddings, load_anchors(args.anchors, expect_d=embeddings.d))
    report = compute_geometry(embeddings, labels, args.partition)
    print(f"partition: {report.source}, {len(report.per_manifold)} manifolds")
    print(
        f"intra={report.intra:.6f} inter={report.inter:.6f} "
        f"ratio={report.ratio:.6f} spread={report.spread:.6f}"
    )
    _write_report(args.out, report.to_dict())
    return 0


def cmd_purity(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    corpus = load_corpus(args.corpus)
    languages = corpus_labels(embeddings, corpus, "L")
    report = purity(embeddings, languages)
    for lang in sorted(report.per_language):
        print(f"purity[{lang}] = {report.per_language[lang]:.6f}")
    print(f"purity overall = {report.overall:.6f} over {report.n} samples")
    _write_report(args.out, report.to_dict())
    return 0


def cmd_consistency(args) -> int:
    embeddings = load_embeddings(args.embeddings)
    anchors = load_anchors(args.anchors, expect_d=embeddings.d)
    variants: dict[str, dict[str, int]] = {}  # dialog id -> language -> row
    for row, row_id in enumerate(embeddings.ids):
        dialog_id, sep, lang = row_id.partition(":")
        if not sep:
            raise GeometryError(f"embedding id {row_id!r} lacks a ':language' suffix")
        if lang not in LANGUAGES:
            raise GeometryError(f"embedding id {row_id!r} names a language outside {LANGUAGES}")
        per_lang = variants.setdefault(dialog_id, {})
        if lang in per_lang:
            raise GeometryError(f"embedding id {row_id!r} repeats a variant row")
        per_lang[lang] = row
    blocks = (project_batch(block, anchors) for _, block in _row_blocks(embeddings))
    ranked = np.concatenate([rank_anchors(values, args.topk) for values in blocks])
    rows = []
    for dialog_id, per_lang in variants.items():
        missing = [lang for lang in LANGUAGES if lang not in per_lang]
        if missing:
            raise GeometryError(
                f"record {dialog_id!r} is missing language variant {missing[0]!r}"
            )
        rows.append([per_lang[lang] for lang in LANGUAGES])
    records = np.array(rows, dtype=np.intp).reshape(-1, len(LANGUAGES))
    report = crosslingual_consistency(ranked[records])
    print(f"records: {report.n_records}")
    print(f"exact match rate: {report.exact_match_rate:.6f}")
    print(f"mean pairwise jaccard: {report.mean_pairwise_jaccard:.6f}")
    _write_report(args.out, report.to_dict())
    return 0


def cmd_make_synthetic(args) -> int:
    data = make_synthetic_corpus(
        seed=args.seed,
        n_per_lang=args.n_per_lang,
        n_factors=args.n_factors,
        d=args.dim,
    )
    corpus_path = f"{args.out_prefix}.corpus.jsonl"
    teacher_path = f"{args.out_prefix}.teacher.bin"
    meta_path = f"{args.out_prefix}.meta.json"
    save_corpus(data.corpus, corpus_path)
    save_embeddings(data.embeddings, teacher_path)
    _write_json(
        meta_path,
        {
            "seed": args.seed,
            "n_per_lang": args.n_per_lang,
            "n_factors": args.n_factors,
            "d": data.d,
            "n_content": data.layout.n_content,
            "base_size": data.layout.base_size,
        },
    )
    print(f"# seed: {args.seed}")
    print(f"records: {len(data.corpus)}")
    print(f"wrote {corpus_path}, {teacher_path}, {meta_path}")
    return 0


# ---------------------------------------------------------------------------
# train-toy


_BOOL_WORDS = {
    "on": True,
    "off": False,
    "true": True,
    "false": False,
    "yes": True,
    "no": False,
    "1": True,
    "0": False,
}

# TrainConfig's fields, typed by their defaults; the nested ecr settings
# are set through the ecr_* keys below, never as one value
_CONFIG_FIELDS = {
    f.name: type(f.default) for f in fields(TrainConfig) if f.name != "ecr"
}

_ECR_FIELDS = {
    "ecr_enabled": ("enabled", "bool"),
    "ecr_bins": ("n_bins", int),
    "ecr_factors": ("factors", "factors"),
    "ecr_mode": ("mode", str),
    "ecr_k": ("k", int),
    "ecr_scope": ("scope", str),
    "freeze_prefix": ("freeze_prefix", "bool"),
}

_DATA_FIELDS = {
    "data_seed": int,
    "n_per_lang": int,
    "n_factors": int,
    "data_dim": int,
    "n_content": int,
    "query_content": int,
    "marker_repeat": int,
    "answer_noise": float,
}


def _parse_bool(value: str, key: str) -> bool:
    try:
        return _BOOL_WORDS[value.strip().lower()]
    except KeyError:
        raise ToyTrainError(f"config key {key!r} expects on/off, got {value!r}")


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; # starts a comment; blank lines ignored."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ToyTrainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            entries[key.strip()] = value.strip()
    return entries


def _apply_config(entries: dict[str, str]) -> tuple[TrainConfig, dict]:
    cfg_kwargs: dict = {}
    ecr_kwargs: dict = {}
    data_kwargs: dict = {}
    for key, value in entries.items():
        if key in _CONFIG_FIELDS:
            cfg_kwargs[key] = _CONFIG_FIELDS[key](value)
        elif key in _ECR_FIELDS:
            field_name, kind = _ECR_FIELDS[key]
            if kind == "bool":
                ecr_kwargs[field_name] = _parse_bool(value, key)
            elif kind == "factors":
                ecr_kwargs[field_name] = _parse_factors(value)
            else:
                ecr_kwargs[field_name] = kind(value)
        elif key in _DATA_FIELDS:
            data_kwargs[key] = _DATA_FIELDS[key](value)
        else:
            raise ToyTrainError(f"unknown config key {key!r}")
    cfg = TrainConfig(ecr=EcrSettings(**ecr_kwargs), **cfg_kwargs)
    return cfg, data_kwargs


def _train_config(args) -> tuple[TrainConfig, dict]:
    entries = read_config_file(args.config) if args.config else {}
    cfg, data_kwargs = _apply_config(entries)
    ecr = cfg.ecr
    if args.ecr is not None:
        ecr = replace(ecr, enabled=_parse_bool(args.ecr, "--ecr"))
    if args.factors is not None:
        ecr = replace(ecr, factors=_parse_factors(args.factors))
    if args.bins is not None:
        ecr = replace(ecr, n_bins=args.bins)
    cfg = replace(cfg, ecr=ecr)
    if args.grad_clip is not None:
        cfg = replace(cfg, grad_clip=args.grad_clip)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg, data_kwargs


def cmd_train_toy(args) -> int:
    cfg, data_kwargs = _train_config(args)
    data_seed = data_kwargs.pop("data_seed", cfg.seed)
    dim = data_kwargs.pop("data_dim", 24)
    data = make_synthetic_corpus(seed=data_seed, d=dim, **data_kwargs)

    full_factors = ("T", "L", "E", "I")
    factors = full_factors if args.ablation else cfg.ecr.factors or full_factors
    anchors = build_toy_anchors(data, factors, seed=cfg.seed)
    if args.ablation:
        rows = run_ablation(data, anchors, cfg)
        payload = {"seed": cfg.seed, "rows": rows, "config": cfg.to_dict()}
    elif args.paired:
        payload = {**run_experiment(data, anchors, cfg).to_dict(), "seed": cfg.seed}
    else:
        payload = run_single_arm(data, anchors, cfg)[1].to_dict()

    sys.stdout.write(render_report(payload))
    _write_report(args.out, payload)
    return 0


def cmd_report(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    sys.stdout.write(render_report(payload))
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecr",
        description="Anchor-conditioned embedding toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build-anchors", help="derive anchor vectors from embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--factors", default="T,L,E,I")
    p.add_argument("--mode", choices=["auto", "label", "kmeans"], default="auto")
    p.add_argument("--k", default=None, help="cluster count: N or F=N,F=N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_anchors, module="anchors")

    p = sub.add_parser("encode", help="emit control-token prefixes for embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--mode", choices=["global", "topk"], default="global")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--scope", choices=["factor", "all"], default="factor")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encode, module="codec")

    p = sub.add_parser("topk", help="nearest anchors per embedding")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_topk, module="codec")

    p = sub.add_parser("pca-fit", help="fit a PCA projection to embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pca_fit, module="retrieval")

    p = sub.add_parser("index-build", help="build a navigable small-world index")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--pca", default=None)
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--efc", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index_build, module="retrieval")

    p = sub.add_parser("index-query", help="query an index with embeddings")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--pca", default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--ef", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_index_query, module="retrieval")

    p = sub.add_parser("bench", help="query latency percentiles")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--pca", default=None)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--ef", type=int, default=64)
    p.add_argument("--min-measurements", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench, module="retrieval")

    p = sub.add_parser("geometry", help="manifold compactness and separation")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--partition", choices=["labels", "anchors"], default="labels")
    p.add_argument("--corpus", default=None)
    p.add_argument("--factor", default="L")
    p.add_argument("--anchors", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_geometry, module="geometry")

    p = sub.add_parser("purity", help="language purity of an embedding set")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_purity, module="geometry")

    p = sub.add_parser("consistency", help="cross-lingual anchor agreement")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--topk", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_consistency, module="geometry")

    p = sub.add_parser("train-toy", help="run the toy conditioning experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--ecr", choices=["on", "off"], default=None)
    p.add_argument("--factors", default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--grad-clip", type=float, default=None, dest="grad_clip")
    p.add_argument("--seed", type=int, default=None)
    experiment = p.add_mutually_exclusive_group()
    experiment.add_argument("--paired", action="store_true")
    experiment.add_argument("--ablation", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_toy, module="toytrain")

    p = sub.add_parser("make-synthetic", help="generate an aligned toy corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-per-lang", type=int, default=100)
    p.add_argument("--n-factors", type=int, default=3)
    p.add_argument("--dim", type=int, default=24)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_make_synthetic, module="toytrain")

    p = sub.add_parser("report", help="re-render a saved experiment report")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_report, module="toytrain")

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse and run one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        # a package error names the module that defines it, any other the subcommand's
        package, _, module = type(exc).__module__.rpartition(".")
        print(f"error: {module if package == 'ecr' else args.module}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
