"""Desk-scale conditioning loop: embed, project, quantize, prefix, train.

The model is deliberately tiny: a token embedding table covering the base
vocabulary plus the full control-token block, causal mean pooling, and a
linear head over the base vocabulary.  Position t is predicted from the
running mean of all embeddings up to t-1, so a prepended control prefix
shifts every later context; targets are restricted to non-prefix
positions and are identical between conditioned and unconditioned arms.

An utterance embedding h is pooled from the query segment only (the
tokens before the answer position), then projected and quantized against
frozen anchors to form the prefix x' = [t, x].  Anchors receive no
updates anywhere; their checksum is recorded before and after every run.

The synthetic corpus gives the conditioning signal something to carry:
each record's answer class is a joint function of (language, task) that
no additive bag-of-tokens model can express, while quantized affinity
patterns of the query embedding separate the (language, task) groups.
The harness trains paired baseline/conditioned arms from bit-identical
base parameters and batch order, evaluates per-language NLL, geometry,
purity, and cross-lingual consistency per epoch, detects divergence
instead of crashing, and sweeps factor subsets for ablation tables.

Every path runs on whole batches.  A training step pools its queries
with one gather and one sum, encodes every prefix with one
``encode_batch`` and runs one forward/backward over the right-padded
(B, T) id block; :func:`sample_prefix` is a batch of one of the same
path, and every float matches a loop over single sequences.  Each
epoch's diagnostics pool every distinct held-out query once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .anchors import AnchorSet, build_anchor_set
from .codec import (
    ControlPrefix,
    TokenVocabulary,
    _selected,
    encode_batch,
    project_batch,
    token_vocabulary,
)
from .corpus import Corpus, CorpusHeader, CorpusRecord, EmbeddingMatrix, LANGUAGES
from .geometry import (
    CrosslingualReport,
    compute_geometry,
    crosslingual_consistency,
    partition_from_labels,
    purity,
)


class ToyTrainError(ValueError):
    """Raised on invalid training inputs or harness misuse."""


# ---------------------------------------------------------------------------
# Synthetic corpus


@dataclass(frozen=True)
class VocabLayout:
    """Fixed id layout for the synthetic token space.

    [BOS, SEP, task markers (shared), then per language: content tokens
    followed by one answer token per class].  Task markers are shared
    across languages while answer tokens are language-specific, so the
    (language, task) -> answer mapping is a genuine joint function.
    """

    n_tasks: int
    n_content: int

    BOS: int = 0
    SEP: int = 1

    @property
    def marker_start(self) -> int:
        return 2

    @property
    def block_size(self) -> int:
        return self.n_content + self.n_tasks

    def block_start(self, lang_index: int) -> int:
        return 2 + self.n_tasks + lang_index * self.block_size

    @property
    def base_size(self) -> int:
        return 2 + self.n_tasks + len(LANGUAGES) * self.block_size

    def task_marker(self, task_index: int) -> int:
        return self.marker_start + task_index

    def content_id(self, lang_index: int, content_index: int) -> int:
        return self.block_start(lang_index) + content_index

    def answer_id(self, lang_index: int, answer_class: int) -> int:
        return self.block_start(lang_index) + self.n_content + answer_class

    def answer_candidates(self, lang_index: int) -> tuple[int, ...]:
        return tuple(self.answer_id(lang_index, a) for a in range(self.n_tasks))


@dataclass(frozen=True)
class Sample:
    """One tokenized training/eval sequence with its gold answer."""

    dialog_id: str
    language: str
    task: str
    tokens: tuple[int, ...]
    query_len: int  # tokens[:query_len] form the query segment
    answer_pos: int | None  # position of the gold answer token
    gold: int
    candidates: tuple[int, ...]  # legal answer token ids for this sample


@dataclass
class SyntheticData:
    corpus: Corpus
    embeddings: EmbeddingMatrix  # teacher embeddings, one row per record
    layout: VocabLayout
    d: int


def make_synthetic_corpus(
    seed: int,
    n_per_lang: int = 100,
    n_factors: int = 3,
    d: int = 24,
    n_content: int = 12,
    query_content: int = 6,
    marker_repeat: int = 1,
    answer_noise: float = 0.1,
    lang_scale: float = 10.0,
    factor_scale: float = 2.5,
    noise_scale: float = 0.25,
) -> SyntheticData:
    """Generate an aligned multilingual corpus plus teacher embeddings.

    Records carry one primary language label each (n_per_lang per
    language) but render their query in all three language token ranges,
    with identical content indices, so every record is an aligned
    triplet.  The answer class is (task + language) mod n_tasks with an
    ``answer_noise`` chance of a uniform draw; the task marker appears
    ``marker_repeat`` times per query.  Teacher embeddings are
    factor-dependent cluster centers with language separation much larger
    than the within-language scatter, so language purity is 1.0 by
    construction.
    """
    if n_per_lang < 1:
        raise ToyTrainError(f"n_per_lang must be positive, got {n_per_lang}")
    if n_factors < 2:
        raise ToyTrainError(f"n_factors must be at least 2, got {n_factors}")
    if marker_repeat < 1:
        raise ToyTrainError(f"marker_repeat must be positive, got {marker_repeat}")
    layout = VocabLayout(n_tasks=n_factors, n_content=n_content)
    rng = np.random.default_rng(seed)

    tasks = tuple(f"task{i}" for i in range(n_factors))
    emotions = tuple(f"emotion{i}" for i in range(n_factors))
    intents = tuple(f"intent{i}" for i in range(n_factors))
    header = CorpusHeader(
        tasks=tasks, languages=LANGUAGES, emotions=emotions, intents=intents
    )

    # fixed label directions in teacher space
    lang_dirs = rng.standard_normal((len(LANGUAGES), d))
    lang_dirs /= np.linalg.norm(lang_dirs, axis=1, keepdims=True)
    task_dirs = rng.standard_normal((n_factors, d))
    task_dirs /= np.linalg.norm(task_dirs, axis=1, keepdims=True)
    emo_dirs = rng.standard_normal((n_factors, d))
    emo_dirs /= np.linalg.norm(emo_dirs, axis=1, keepdims=True)
    intent_dirs = rng.standard_normal((n_factors, d))
    intent_dirs /= np.linalg.norm(intent_dirs, axis=1, keepdims=True)

    records: list[CorpusRecord] = []
    vectors = np.empty((len(LANGUAGES) * n_per_lang, d), dtype=np.float64)
    ids: list[str] = []
    row = 0
    for lang_index, lang in enumerate(LANGUAGES):
        for _ in range(n_per_lang):
            dialog_id = f"d{row:06d}"
            task_index = int(rng.integers(n_factors))
            emo_index = int(rng.integers(n_factors))
            intent_index = int(rng.integers(n_factors))
            content = rng.integers(0, n_content, size=query_content)
            answer_class = (task_index + lang_index) % n_factors
            if rng.random() < answer_noise:
                answer_class = int(rng.integers(n_factors))

            queries = {}
            answers = {}
            for li, lcode in enumerate(LANGUAGES):
                toks = [layout.BOS, layout.task_marker(task_index)]
                toks.extend(layout.content_id(li, int(c)) for c in content)
                toks.extend([layout.task_marker(task_index)] * (marker_repeat - 1))
                toks.append(layout.SEP)
                queries[lcode] = " ".join(str(t) for t in toks)
                answers[lcode] = str(layout.answer_id(li, answer_class))

            records.append(
                CorpusRecord(
                    dialog_id=dialog_id,
                    task=tasks[task_index],
                    language=lang,
                    emotion=emotions[emo_index],
                    intent=intents[intent_index],
                    en_q=queries["en"],
                    zh_q=queries["zh"],
                    hi_q=queries["hi"],
                    en_a=answers["en"],
                    zh_a=answers["zh"],
                    hi_a=answers["hi"],
                )
            )
            center = (
                lang_scale * lang_dirs[lang_index]
                + factor_scale * task_dirs[task_index]
                + factor_scale * emo_dirs[emo_index]
                + factor_scale * intent_dirs[intent_index]
            )
            vectors[row] = center + noise_scale * rng.standard_normal(d)
            ids.append(dialog_id)
            row += 1

    corpus = Corpus(header=header, records=records)
    embeddings = EmbeddingMatrix(data=vectors.astype(np.float32), ids=ids)
    return SyntheticData(corpus=corpus, embeddings=embeddings, layout=layout, d=d)


def record_sample(record: CorpusRecord, language: str, layout: VocabLayout) -> Sample:
    """Tokenize one language variant of a record."""
    lang_index = LANGUAGES.index(language)
    query_ids = tuple(int(t) for t in record.query(language).split())
    answer_id = int(record.answer(language))
    tokens = query_ids + (answer_id,)
    return Sample(
        dialog_id=record.dialog_id,
        language=language,
        task=record.task,
        tokens=tokens,
        query_len=len(query_ids),
        answer_pos=len(tokens) - 1,
        gold=answer_id,
        candidates=layout.answer_candidates(lang_index),
    )


def make_samples(data: SyntheticData, records: list[CorpusRecord] | None = None) -> list[Sample]:
    """One sample per record, in its primary language."""
    recs = data.corpus.records if records is None else records
    return [record_sample(rec, rec.language, data.layout) for rec in recs]


def split_records(
    data: SyntheticData, holdout_fraction: float
) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Deterministic per-language split: the last fraction of each
    language's records is held out."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ToyTrainError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    train: list[CorpusRecord] = []
    hold: list[CorpusRecord] = []
    by_lang: dict[str, list[CorpusRecord]] = {}
    for rec in data.corpus.records:
        by_lang.setdefault(rec.language, []).append(rec)
    for lang in sorted(by_lang):
        recs = by_lang[lang]
        n_hold = max(1, int(round(len(recs) * holdout_fraction)))
        train.extend(recs[: len(recs) - n_hold])
        hold.extend(recs[len(recs) - n_hold :])
    return train, hold


# ---------------------------------------------------------------------------
# Model


@dataclass
class ToyModel:
    """Embedding table + linear head over the base vocabulary.

    The table always includes rows for the full control block, whether or
    not conditioning is enabled, so paired arms share a parameter shape.
    """

    emb: np.ndarray  # (base_size + control block, d)
    out: np.ndarray  # (d, base_size)
    base_size: int
    vocab: TokenVocabulary
    seed: int

    @property
    def d(self) -> int:
        return self.emb.shape[1]

    @property
    def total_vocab(self) -> int:
        return self.emb.shape[0]


def init_model(
    base_size: int,
    d: int,
    anchors: AnchorSet,
    n_bins: int,
    seed: int,
    init_scale: float = 0.02,
) -> ToyModel:
    """Base table and head are drawn before the control rows, so models
    sharing (base_size, d, seed) have bit-identical base parameters
    regardless of the control block size."""
    vocab = token_vocabulary(anchors, n_bins, base_size)
    rng = np.random.default_rng(seed)
    emb_base = rng.normal(0.0, init_scale, size=(base_size, d))
    out = rng.normal(0.0, init_scale, size=(d, base_size))
    emb_ctrl = rng.normal(0.0, init_scale, size=(vocab.size, d))
    return ToyModel(
        emb=np.vstack([emb_base, emb_ctrl]),
        out=out,
        base_size=base_size,
        vocab=vocab,
        seed=seed,
    )


def embed_sequence(model: ToyModel, tokens) -> np.ndarray:
    """Mean of the embedding rows of all non-control tokens."""
    return _pooled_queries(model, [np.asarray(tokens, dtype=np.int64).ravel().tolist()])[0]


def _pad(rows: list, fill: int) -> np.ndarray:
    """Id sequences as one (B, T) int64 block, right-padded with ``fill``."""
    pad = (fill,) * max(map(len, rows))
    return np.array([tuple(r) + pad[len(r) :] for r in rows], dtype=np.int64)


def _refuse_first(model: ToyModel, queries: list) -> None:
    """Raise the error :func:`embed_sequence` gives the first query it refuses."""
    for query in queries:
        if len(query) == 0:
            raise ToyTrainError("cannot embed an empty sequence")
        for t in query:
            if not 0 <= t < model.total_vocab:
                raise ToyTrainError(f"unknown token id {t}")
        if min(query) >= model.base_size:
            raise ToyTrainError("sequence has no non-control tokens to embed")


def _pooled_queries(model: ToyModel, queries: list) -> np.ndarray:
    """:func:`embed_sequence` of every query, one row each.

    One gather and one sum along the padded block, divided by each query's
    count of kept ids as np.mean divides, so each row is bit-identical to
    the query's own mean.  The padding is the first control id, so one test
    skips it with the control ids; the masked sum starts at -0.0, since
    -0.0 + x is x for every x, signed zeros included.
    """
    if not queries:
        return np.zeros((0, model.d))
    lows = [min(q, default=-1) for q in queries]  # -1: an empty query
    top = max(map(max, queries)) if min(lows) >= 0 else -1
    if min(lows) < 0 or max(lows) >= model.base_size or top >= model.total_vocab:
        _refuse_first(model, queries)
    block = _pad(queries, model.base_size)
    rows = model.emb.take(block, axis=0)
    if top < model.base_size and min(map(len, queries)) == block.shape[1]:
        # Nothing to skip, as in every query of the synthetic corpus: the
        # same sums without the mask, which adds about 15% to a batch of one.
        return np.add.reduce(rows, axis=1) / block.shape[1]
    keep = block < model.base_size
    sums = np.add.reduce(rows, axis=1, where=keep[:, :, None], initial=-0.0)
    return sums / np.add.reduce(keep, axis=1)[:, None]


def _forward(emb: np.ndarray, out: np.ndarray, sequences: list, base_size: int) -> tuple:
    """The forward pass of a batch of (token ids, prefix length) pairs.

    ``ctx[j, b]``, the running mean of sequence b's embeddings at
    positions 0..j (np.cumsum's sums, made position by position), predicts
    position j+1, so right padding never reaches a real context.  Targets
    are the positions after both the prefix and the first content token,
    so conditioned and plain arms score the same targets.  Sequences with
    p targets share one (G, p, d) @ (d, V) head product, which keeps each
    one's row count: BLAS rounds a row differently in a taller product.
    Returns (block, real-position mask, ctx, per group (members, positions,
    context rows, target index, log-softmax rows), NLL sums, target counts).
    """
    block = _pad([ids for ids, _ in sequences], 0)
    lengths = np.array([len(ids) for ids, _ in sequences])
    real = np.arange(block.shape[1]) < lengths[:, None]
    counts = np.maximum(lengths - np.array([p for _, p in sequences]) - 1, 0)
    ctx = emb.take(block.T, axis=0)  # (T, B, d): one contiguous slab per position
    for j in range(1, len(ctx)):
        ctx[j] += ctx[j - 1]
    ctx /= np.arange(1, len(ctx) + 1)[:, None, None]
    nll = np.zeros(len(sequences))
    heads = []
    for p in np.unique(counts[counts > 0]).tolist():
        members = np.flatnonzero(counts == p)
        positions = np.array([sequences[b][1] for b in members])[:, None] + np.arange(p)
        targets = block[members[:, None], positions + 1]
        if np.any(targets >= base_size):
            raise ToyTrainError("control token appeared as a prediction target")
        rows = ctx[positions, members[:, None]]
        log_probs = rows @ out
        log_probs -= log_probs.max(axis=2, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=2))[:, :, None]
        picked = (np.arange(len(members))[:, None], np.arange(p), targets)
        nll[members] = -np.add.reduce(log_probs[picked], axis=1)
        heads.append((members, positions, rows, picked, log_probs))
    return block, real, ctx, heads, nll, counts


def _forward_backward(
    emb: np.ndarray, out: np.ndarray, sequences: list[tuple[np.ndarray, int]], base_size: int
) -> tuple[float, int, np.ndarray, np.ndarray]:
    """Loss and gradients over a batch of (token ids, prefix length) pairs.

    One pass over the padded batch: :func:`_forward`, the reversed running
    sums of the context gradient, then one ``np.bincount`` per table column,
    which adds rows in sequence order as ``np.add.at`` would.  The loss and
    the head gradient add up per-sequence terms in sequence order, so every
    float is the one a loop over the sequences computes.
    """
    block, real, ctx, heads, nll, counts = _forward(emb, out, sequences, base_size)
    n_targets = int(counts.sum())
    if n_targets == 0:
        raise ToyTrainError("batch contains no prediction targets")
    inv = 1.0 / n_targets
    d_ctx = np.zeros_like(ctx)
    d_outs = []
    for members, positions, rows, picked, log_probs in heads:
        d_logits = np.exp(log_probs, out=log_probs)
        d_logits[picked] -= 1.0
        d_logits *= inv
        d_outs.append(rows.transpose(0, 2, 1) @ d_logits)
        d_ctx[positions, members[:, None]] = d_logits @ out.T
    total = 0.0
    for value in nll[counts > 0].tolist():
        total += value
    if len(heads) > 1:  # back into sequence order
        d_outs = [np.concatenate(d_outs)[np.argsort(np.concatenate([h[0] for h in heads]))]]
    d_out = np.add.reduce(d_outs[0], axis=0, initial=0.0)
    d_ctx /= np.arange(1, len(d_ctx) + 1)[:, None, None]
    for j in range(len(d_ctx) - 2, -1, -1):
        d_ctx[j] += d_ctx[j + 1]
    ids = block[real]
    d_rows = d_ctx.transpose(1, 0, 2)[real]  # (n, d), sequence-major like ids
    d_emb = np.empty_like(emb)
    for c in range(emb.shape[1]):
        d_emb[:, c] = np.bincount(ids, weights=d_rows[:, c], minlength=len(emb))
    return total * inv, n_targets, d_emb, d_out


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamW:
    """Decoupled weight decay Adam over named parameter arrays."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p -= self.lr * (update + self.weight_decay * p)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients to a shared global norm cap; returns the norm."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm > 0.0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class EcrSettings:
    enabled: bool = False
    n_bins: int = 8
    factors: tuple[str, ...] = ("T", "L", "E", "I")
    mode: str = "global"  # "global" or "retrieval"
    k: int = 1
    scope: str = "factor"
    freeze_prefix: bool = False  # prefixes from the initial snapshot instead
    # of recomputation each step


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.08
    epochs: int = 8
    batch_size: int = 32
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1
    grad_clip: float = 0.0  # <= 0 disables clipping (strict control setting)
    holdout_fraction: float = 0.2
    divergence_threshold: float = 1e3
    divergence_patience: int = 5
    ecr: EcrSettings = EcrSettings()

    def to_dict(self) -> dict:
        cfg = {
            k: v for k, v in self.__dict__.items() if k != "ecr"
        }
        cfg["ecr"] = dict(self.ecr.__dict__)
        cfg["ecr"]["factors"] = list(self.ecr.factors)
        return cfg


# ---------------------------------------------------------------------------
# Prefixes


def sample_prefix(
    model: ToyModel, sample: Sample, anchors: AnchorSet, settings: EcrSettings
) -> ControlPrefix:
    """Encode the sample's query segment against the anchors: a batch of
    one of the prefix path the training step takes."""
    return _prefixes(model, [sample], anchors, settings)[0]


def _prefixes(
    model: ToyModel, samples: list[Sample], anchors: AnchorSet, settings: EcrSettings
) -> list[ControlPrefix]:
    """Every sample's prefix: its query pooled, then one encode of the batch."""
    pooled = _pooled_queries(model, [s.tokens[: s.query_len] for s in samples])
    k = settings.k if settings.mode == "retrieval" else None
    return encode_batch(
        pooled, anchors, settings.n_bins, mode=settings.mode, k=k, scope=settings.scope,
        vocab=model.vocab,
    )


def _conditioned(
    model: ToyModel, samples: list[Sample], anchors: AnchorSet | None, settings: EcrSettings,
    frozen: dict[str, ControlPrefix] | None,
) -> list[tuple[tuple[int, ...], int]]:
    """(prefix ids + sample tokens, prefix length) of every sample."""
    if not settings.enabled:
        return [(s.tokens, 0) for s in samples]
    assert anchors is not None
    if frozen is not None:
        prefixes = [frozen[f"{s.dialog_id}:{s.language}"] for s in samples]
    else:
        prefixes = _prefixes(model, samples, anchors, settings)
    return [(p.token_ids + s.tokens, len(p.token_ids)) for p, s in zip(prefixes, samples)]


# ---------------------------------------------------------------------------
# Training


@dataclass
class ExperimentReport:
    arm: str
    config: dict
    seed: int
    n_train: int
    n_eval: int
    loss_curve: list[float]
    nll_per_language: list[dict[str, float]]  # one entry per epoch
    geometry: list[dict]  # GeometryReport.to_dict() per epoch
    purity: list[dict]  # PurityReport.to_dict() per epoch
    consistency: list[dict]  # CrosslingualReport.to_dict() per epoch
    diverged: bool
    divergence_step: int | None
    anchor_checksum_before: str
    anchor_checksum_after: str
    final_task_accuracy: float | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def train_step(
    model: ToyModel,
    batch: list[Sample],
    anchors: AnchorSet | None,
    config: TrainConfig,
    optimizer: AdamW,
    frozen: dict[str, ControlPrefix] | None = None,
) -> float:
    """One optimizer update over a batch; returns the mean target NLL.

    One batched pass: one pooling and one encode give every prefix from
    the current embedding table (unless a frozen prefix map is supplied),
    then one forward/backward runs over the padded batch.  Anchors are
    constants here; gradients reach only the model's own parameters.
    """
    if not batch:
        raise ToyTrainError("empty batch")
    sequences = _conditioned(model, batch, anchors, config.ecr, frozen)
    loss, _, d_emb, d_out = _forward_backward(model.emb, model.out, sequences, model.base_size)
    grads = {"emb": d_emb, "out": d_out}
    if config.grad_clip and config.grad_clip > 0:
        clip_gradients(grads, config.grad_clip)
    optimizer.step({"emb": model.emb, "out": model.out}, grads)
    return loss


def nll_eval(
    model: ToyModel,
    samples: list[Sample],
    anchors: AnchorSet | None = None,
    settings: EcrSettings = EcrSettings(),
    frozen: dict[str, ControlPrefix] | None = None,
    languages: tuple[str, ...] | None = None,
) -> dict[str, float]:
    """Mean target-token NLL per language under the training pipeline."""
    if not samples:
        raise ToyTrainError("empty evaluation set")
    sequences = _conditioned(model, samples, anchors, settings, frozen)
    *_, nll, counts = _forward(model.emb, model.out, sequences, model.base_size)
    sums: dict[str, float] = {}
    totals: dict[str, int] = {}
    for sample, value, count in zip(samples, nll.tolist(), counts.tolist()):
        sums[sample.language] = sums.get(sample.language, 0.0) + value
        totals[sample.language] = totals.get(sample.language, 0) + count
    if languages is not None:
        missing = [lang for lang in languages if lang not in totals]
        if missing:
            raise ToyTrainError(f"empty language bucket {missing[0]!r}")
    return {lang: sums[lang] / totals[lang] for lang in sorted(sums)}


def task_accuracy(
    model: ToyModel,
    samples: list[Sample],
    anchors: AnchorSet | None = None,
    settings: EcrSettings = EcrSettings(),
    frozen: dict[str, ControlPrefix] | None = None,
) -> float:
    """Fraction of samples whose argmax over their answer-candidate tokens
    at the answer position equals the gold answer."""
    if not samples:
        raise ToyTrainError("empty evaluation set")
    for sample in samples:
        if sample.answer_pos is None:
            raise ToyTrainError(f"sample {sample.dialog_id!r} has no gold position")
    sequences = _conditioned(model, samples, anchors, settings, frozen)
    ctx = _forward(model.emb, model.out, sequences, model.base_size)[2]
    at = [p + s.answer_pos - 1 for (_, p), s in zip(sequences, samples)]
    # one context row times the head per sample: reading the answer logits
    # off the all-positions product would round differently
    logits = np.matmul(ctx[at, np.arange(len(samples))][:, None, :], model.out)[:, 0]
    hits = 0
    for sample, row in zip(samples, logits):
        cand = np.asarray(sample.candidates, dtype=np.int64)
        hits += int(cand[int(np.argmax(row[cand]))]) == sample.gold
    return hits / len(samples)


def _variant_queries(records: list[CorpusRecord], layout: VocabLayout) -> list[tuple[int, ...]]:
    """The query of every record in every language, record-major."""
    samples = (record_sample(rec, lang, layout) for rec in records for lang in LANGUAGES)
    return [s.tokens[: s.query_len] for s in samples]


def eval_crosslingual(
    pooled: np.ndarray, records: list[CorpusRecord], anchors: AnchorSet
) -> CrosslingualReport:
    """Cross-lingual consistency of the student space: do a record's three
    language variants select the same per-factor top-1 anchors?

    ``pooled`` holds the student's pooled query of every record in every
    language, record-major, as :func:`_variant_queries` lists them; all
    of them are projected in one batch.  Always measured against the full
    diagnostic anchor set, so rows of an ablation table are comparable
    regardless of which factors condition the training run.
    """
    variants = [(rec.dialog_id, lang) for rec in records for lang in LANGUAGES]
    if len(pooled) != len(variants):
        raise ToyTrainError(
            f"{len(pooled)} pooled queries for {len(variants)} record language variants"
        )
    selections: dict[str, dict[str, frozenset]] = {}
    if records:
        top1 = _selected(project_batch(pooled, anchors), anchors.group_sizes, 1, "factor")
        for (dialog_id, lang), chosen in zip(variants, top1.tolist()):
            selections.setdefault(dialog_id, {})[lang] = frozenset(chosen)
    return crosslingual_consistency(selections)


def run_training(
    train_samples: list[Sample],
    eval_samples: list[Sample],
    eval_records: list[CorpusRecord],
    layout: VocabLayout,
    anchors: AnchorSet,
    diagnostic_anchors: AnchorSet,
    config: TrainConfig,
    arm: str,
) -> tuple[ToyModel, ExperimentReport]:
    """Full training run for one arm, with per-epoch diagnostics.

    ``anchors`` condition the run (subset under ablation); the
    ``diagnostic_anchors`` are the full set used for consistency
    measurement.  The divergence detector flags ``divergence_patience``
    consecutive bad steps (loss above threshold or non-finite) and stops
    the run; it never raises.
    """
    if not train_samples:
        raise ToyTrainError("empty training set")
    model = init_model(
        base_size=layout.base_size,
        d=anchors.d,
        anchors=anchors,
        n_bins=config.ecr.n_bins,
        seed=config.seed,
    )
    optimizer = AdamW(
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
        weight_decay=config.weight_decay,
    )
    data_rng = np.random.default_rng(config.seed + 1)
    checksum_before = anchors.checksum()

    frozen: dict[str, ControlPrefix] | None = None
    if config.ecr.enabled and config.ecr.freeze_prefix:
        every = train_samples + eval_samples
        frozen = {
            f"{s.dialog_id}:{s.language}": prefix
            for s, prefix in zip(every, _prefixes(model, every, anchors, config.ecr))
        }

    # Each distinct held-out query is pooled once per epoch, for both the
    # student embeddings (the first n_eval rows) and the language variants.
    queries = [s.tokens[: s.query_len] for s in eval_samples]
    queries += _variant_queries(eval_records, layout)
    slot = {q: i for i, q in enumerate(dict.fromkeys(queries))}
    rows_of = [slot[q] for q in queries]
    n_eval = len(eval_samples)
    student_ids = [f"{s.dialog_id}:{s.language}" for s in eval_samples]
    langs = [s.language for s in eval_samples]

    loss_curve: list[float] = []
    nll_epochs: list[dict[str, float]] = []
    geometry_epochs: list[dict] = []
    purity_epochs: list[dict] = []
    consistency_epochs: list[dict] = []
    diverged = False
    divergence_step: int | None = None
    bad_streak = 0
    step_index = 0

    n = len(train_samples)
    for _epoch in range(config.epochs):
        order = data_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = [train_samples[i] for i in order[start : start + config.batch_size]]
            loss = train_step(model, batch, anchors, config, optimizer, frozen)
            loss_curve.append(loss)
            step_index += 1
            bad = (not np.isfinite(loss)) or loss > config.divergence_threshold
            bad_streak = bad_streak + 1 if bad else 0
            if bad_streak >= config.divergence_patience:
                diverged = True
                divergence_step = step_index
                break
        if diverged:
            break
        nll_epochs.append(
            nll_eval(model, eval_samples, anchors, config.ecr, frozen)
        )
        pooled = _pooled_queries(model, list(slot))[rows_of]
        student = EmbeddingMatrix(data=pooled[:n_eval].astype(np.float32), ids=student_ids)
        partition = partition_from_labels(student.ids, langs)
        geometry_epochs.append(compute_geometry(student, partition).to_dict())
        purity_epochs.append(purity(student, langs).to_dict())
        consistency = eval_crosslingual(pooled[n_eval:], eval_records, diagnostic_anchors)
        consistency_epochs.append(consistency.to_dict())

    accuracy = None
    if not diverged:
        accuracy = task_accuracy(model, eval_samples, anchors, config.ecr, frozen)
    report = ExperimentReport(
        arm=arm,
        config=config.to_dict(),
        seed=config.seed,
        n_train=len(train_samples),
        n_eval=len(eval_samples),
        loss_curve=loss_curve,
        nll_per_language=nll_epochs,
        geometry=geometry_epochs,
        purity=purity_epochs,
        consistency=consistency_epochs,
        diverged=diverged,
        divergence_step=divergence_step,
        anchor_checksum_before=checksum_before,
        anchor_checksum_after=anchors.checksum(fresh=True),
        final_task_accuracy=accuracy,
    )
    return model, report


# ---------------------------------------------------------------------------
# Experiments


def build_toy_anchors(
    data: SyntheticData,
    factors: tuple[str, ...] = ("T", "L", "E", "I"),
    k_strategy: int = 4,
    seed: int = 0,
) -> AnchorSet:
    """Label-centroid anchors from the teacher embeddings (k-means for the
    unlabeled tone/strategy factor)."""
    k = {f: k_strategy for f in factors}
    return build_anchor_set(
        data.embeddings, data.corpus, factors, mode="auto", k=k, seed=seed
    )


def subset_anchors(anchors: AnchorSet, factors: tuple[str, ...]) -> AnchorSet:
    """A new anchor set restricted to the given factors, canonical order."""
    groups = tuple(g for g in anchors.groups if g.factor in set(factors))
    if not groups:
        raise ToyTrainError("empty factor subset")
    return AnchorSet(groups=groups, d=anchors.d)


@dataclass
class PairedOutcome:
    baseline: ExperimentReport
    ecr: ExperimentReport
    table: list[dict]

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "ecr": self.ecr.to_dict(),
            "table": self.table,
        }


def summary_row(report: dict) -> dict:
    """Flatten one run's final diagnostics into a table row."""
    nll = report["nll_per_language"][-1] if report["nll_per_language"] else {}
    geometry = report["geometry"][-1] if report["geometry"] else {}
    consistency = report["consistency"][-1] if report["consistency"] else {}
    return {
        "arm": report["arm"],
        "nll": float(np.mean(list(nll.values()))) if nll else float("nan"),
        "nll_per_language": nll,
        "spread": geometry.get("spread", float("nan")),
        "consistency": consistency.get("exact_match_rate", float("nan")),
        "diverged": report["diverged"],
    }


def run_experiment(
    data: SyntheticData,
    anchors: AnchorSet,
    configs: dict[str, TrainConfig],
) -> PairedOutcome:
    """Paired baseline/conditioned runs under one seed and data order.

    The two configs must agree on everything except the ecr settings;
    both arms see identical batches and start from bit-identical base
    parameters.
    """
    if set(configs) != {"baseline", "ecr"}:
        raise ToyTrainError("configs must have exactly the keys 'baseline' and 'ecr'")
    base_cfg = configs["baseline"]
    ecr_cfg = configs["ecr"]
    if replace(base_cfg, ecr=ecr_cfg.ecr) != ecr_cfg:
        raise ToyTrainError(
            "paired configs must share every hyperparameter except ecr settings"
        )
    if base_cfg.ecr.enabled:
        raise ToyTrainError("the baseline arm must have ecr disabled")
    train_recs, eval_recs = split_records(data, base_cfg.holdout_fraction)
    train_samples = make_samples(data, train_recs)
    eval_samples = make_samples(data, eval_recs)
    _, base_report = run_training(
        train_samples, eval_samples, eval_recs, data.layout,
        anchors, anchors, base_cfg, arm="baseline",
    )
    _, ecr_report = run_training(
        train_samples, eval_samples, eval_recs, data.layout,
        anchors, anchors, ecr_cfg, arm="ecr",
    )
    table = [
        summary_row(base_report.to_dict()),
        summary_row(ecr_report.to_dict()),
    ]
    return PairedOutcome(baseline=base_report, ecr=ecr_report, table=table)


ABLATION_SUBSETS: tuple[tuple[str, ...], ...] = (
    (),
    ("L",),
    ("E",),
    ("I",),
    ("L", "E", "I"),
)


def run_ablation(
    data: SyntheticData,
    anchors: AnchorSet,
    config: TrainConfig,
    subsets: tuple[tuple[str, ...], ...] = ABLATION_SUBSETS,
) -> list[dict]:
    """Factor-subset sweep; one row per subset with NLL, Spread, and
    cross-lingual consistency columns.

    Every row starts from the same base parameters and batch order; the
    empty subset is the unconditioned baseline.  Consistency always uses
    the full anchor set as the measuring stick.
    """
    train_recs, eval_recs = split_records(data, config.holdout_fraction)
    train_samples = make_samples(data, train_recs)
    eval_samples = make_samples(data, eval_recs)
    rows = []
    for subset in subsets:
        if subset:
            arm_anchors = subset_anchors(anchors, subset)
            cfg = replace(config, ecr=replace(config.ecr, enabled=True, factors=subset))
        else:
            arm_anchors = anchors
            cfg = replace(config, ecr=replace(config.ecr, enabled=False))
        name = "+".join(subset) if subset else "none"
        _, report = run_training(
            train_samples, eval_samples, eval_recs, data.layout,
            arm_anchors, anchors, cfg, arm=name,
        )
        row = summary_row(report.to_dict())
        row["factors"] = list(subset)
        rows.append(row)
    return rows


def run_single_arm(
    data: SyntheticData, anchors: AnchorSet, config: TrainConfig
) -> tuple[ToyModel, ExperimentReport]:
    """One arm trained on the standard split of a synthetic dataset."""
    train_recs, eval_recs = split_records(data, config.holdout_fraction)
    arm = "ecr" if config.ecr.enabled else "baseline"
    return run_training(
        make_samples(data, train_recs),
        make_samples(data, eval_recs),
        eval_recs,
        data.layout,
        anchors,
        anchors,
        config,
        arm=arm,
    )


# ---------------------------------------------------------------------------
# Report rendering


def render_table(rows: list[dict], columns: list[str]) -> str:
    """Fixed-width text table over the selected row keys."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        if isinstance(value, (list, tuple)):
            return "+".join(str(v) for v in value) if value else "none"
        return str(value)

    widths = {
        c: max(len(c), *(len(fmt(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("  ".join("-" * widths[c] for c in columns))
    for r in rows:
        lines.append("  ".join(fmt(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _render_run_details(name: str, rep: dict) -> list[str]:
    lines = [f"## {name}", f"steps: {len(rep['loss_curve'])}"]
    if rep["loss_curve"]:
        lines.append(f"final loss: {rep['loss_curve'][-1]:.4f}")
    if rep["nll_per_language"]:
        last = rep["nll_per_language"][-1]
        lines.append(
            "final NLL: " + ", ".join(f"{k}={v:.4f}" for k, v in sorted(last.items()))
        )
    if rep["purity"]:
        lines.append(f"final purity: {rep['purity'][-1]['overall']:.4f}")
    lines.append(f"diverged: {rep['diverged']}")
    lines.append(
        "anchors intact: "
        + str(rep["anchor_checksum_before"] == rep["anchor_checksum_after"])
    )
    return lines


def render_report(payload: dict) -> str:
    """Human-readable summary of a saved run, paired run, or ablation."""
    lines = []
    seed = payload.get("seed")
    if seed is not None:
        lines.append(f"# seed: {seed}")
    cols = ["arm", "nll", "spread", "consistency", "diverged"]
    if "rows" in payload:
        lines.append(render_table(payload["rows"], ["factors"] + cols[1:]))
    elif "table" in payload:
        lines.append(render_table(payload["table"], cols))
        for name in ("baseline", "ecr"):
            if payload.get(name):
                lines.append("")
                lines.extend(_render_run_details(name, payload[name]))
    elif "loss_curve" in payload:
        lines.append(render_table([summary_row(payload)], cols))
        lines.append("")
        lines.extend(_render_run_details(payload["arm"], payload))
    else:
        raise ToyTrainError("unrecognized report payload")
    return "\n".join(lines) + "\n"
