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
Every experiment is a list of arms, each a name, a config and its
conditioning anchors, which one loop trains on one held-out split: a
single run is one arm, a paired run a baseline and a conditioned arm,
and an ablation one arm per factor subset.  Arms start from bit-identical
base parameters and batch order; each evaluates per-language NLL,
geometry, purity, and cross-lingual consistency per epoch, and detects
divergence instead of crashing.

Every path runs on whole batches.  A training step pools its queries
with one gather and one sum, one codec pass gives its (B, P) prefix ids,
which one concatenate puts before the right-padded token block, and one
forward/backward runs over that; :func:`sample_prefix` renders a batch of
one of the same path, and every float matches a loop over single
sequences.  Each epoch's diagnostics pool every distinct held-out query once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .anchors import AnchorSet, build_anchor_set
from .codec import (
    CodecError,
    ControlPrefix,
    TokenVocabulary,
    _selected,
    _table_indices,
    encode_batch,
    project_batch,
    token_vocabulary,
)
from .corpus import Corpus, CorpusHeader, CorpusRecord, EmbeddingMatrix, LANGUAGES
from .geometry import CrosslingualReport, crosslingual_consistency, manifold_reports


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

    BOS = 0
    SEP = 1

    @property
    def block_size(self) -> int:
        return self.n_content + self.n_tasks

    def block_start(self, lang_index: int) -> int:
        return 2 + self.n_tasks + lang_index * self.block_size

    @property
    def base_size(self) -> int:
        return 2 + self.n_tasks + len(LANGUAGES) * self.block_size

    def task_marker(self, task_index: int) -> int:
        return 2 + task_index

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
    tokens: tuple[int, ...]
    query_len: int  # tokens[:query_len] form the query segment
    answer_pos: int | None  # position of the gold answer token
    gold: int
    candidates: tuple[int, ...]  # legal answer token ids for this sample


# Teacher-space scales: language directions, each factor direction, and
# the per-record noise.
_LANG_SCALE = 10.0
_FACTOR_SCALE = 2.5
_NOISE_SCALE = 0.25
# Rows whose noise is drawn into one float64 scratch block and finished
# together, so that no (n, d) float64 matrix is made.
_CENTRE_BLOCK = 64


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
    if d < 1:
        raise ToyTrainError(f"d must be positive, got {d}")
    if seed < 0:  # numpy's generators take no other
        raise ToyTrainError(f"seed must be non-negative, got {seed}")
    if query_content < 0:
        raise ToyTrainError(f"query_content must be non-negative, got {query_content}")
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

    # id texts, made once: the content ids of each language, the answers
    # of each class in every language, and the text before and after the
    # content of each task's queries
    content_text = [
        [str(layout.content_id(li, c)) for c in range(n_content)] for li in range(len(LANGUAGES))
    ]
    answer_text = [
        [str(layout.answer_id(li, a)) for li in range(len(LANGUAGES))] for a in range(n_factors)
    ]
    markers = [str(layout.task_marker(t)) for t in range(n_factors)]
    heads = [f"{layout.BOS} {marker}" for marker in markers]
    tails = [" ".join([marker] * (marker_repeat - 1) + [str(layout.SEP)]) for marker in markers]

    # each row is its factor centre plus its scaled noise
    scaled = (
        _LANG_SCALE * lang_dirs,
        _FACTOR_SCALE * task_dirs,
        _FACTOR_SCALE * emo_dirs,
        _FACTOR_SCALE * intent_dirs,
    )

    # one bounded draw per record: numpy draws a scalar, a sized and a
    # broadcast bound through the same routine, so this one call gives
    # the values and generator state of a draw per field
    bounds = np.array([n_factors] * 3 + [n_content] * query_content, dtype=np.int64)
    n = len(LANGUAGES) * n_per_lang
    records: list[CorpusRecord] = []
    data = np.empty((n, d), dtype=np.float32)
    noise = np.empty((_CENTRE_BLOCK, d), dtype=np.float64)
    block_index: list[tuple[int, int, int, int]] = []  # language, task, emotion, intent
    ids: list[str] = []
    row = 0
    for lang_index, lang in enumerate(LANGUAGES):
        for _ in range(n_per_lang):
            dialog_id = f"d{row:06d}"
            task_index, emo_index, intent_index, *content = rng.integers(bounds).tolist()
            answer_class = (task_index + lang_index) % n_factors
            if rng.random() < answer_noise:
                answer_class = int(rng.integers(n_factors))

            head, tail = heads[task_index], tails[task_index]
            queries = [
                " ".join([head, *map(texts.__getitem__, content), tail]) for texts in content_text
            ]
            # queries, then answers, in LANGUAGES order: the record's field order
            records.append(
                CorpusRecord(
                    dialog_id, tasks[task_index], lang, emotions[emo_index],
                    intents[intent_index], *queries, *answer_text[answer_class],
                )
            )
            block_index.append((lang_index, task_index, emo_index, intent_index))
            rng.standard_normal(out=noise[row % _CENTRE_BLOCK])
            ids.append(dialog_id)
            row += 1
            if row % _CENTRE_BLOCK == 0 or row == n:
                start = row - len(block_index)
                index = np.array(block_index, dtype=np.intp).T
                block_index.clear()
                centers = scaled[0][index[0]]
                for table, rows in zip(scaled[1:], index[1:]):
                    centers += table[rows]
                block = noise[: row - start]
                block *= _NOISE_SCALE
                block += centers
                data[start:row] = block

    corpus = Corpus(header=header, records=records)
    embeddings = EmbeddingMatrix(data=data, ids=ids)
    return SyntheticData(corpus=corpus, embeddings=embeddings, layout=layout, d=d)


def _token_ids(text: str) -> tuple[int, ...]:
    """The token ids of a query text; samples and variant queries both read
    their queries through it."""
    return tuple(map(int, text.split()))


def _sample(record: CorpusRecord, language: str, candidates: tuple[int, ...]) -> Sample:
    query_ids = _token_ids(record.query(language))
    answer_id = int(record.answer(language))
    n = len(query_ids)
    return Sample(
        dialog_id=record.dialog_id,
        language=language,
        tokens=query_ids + (answer_id,),
        query_len=n,
        answer_pos=n,
        gold=answer_id,
        candidates=candidates,
    )


def record_sample(record: CorpusRecord, language: str, layout: VocabLayout) -> Sample:
    """Tokenize one language variant of a record."""
    return _sample(record, language, layout.answer_candidates(LANGUAGES.index(language)))


def make_samples(data: SyntheticData, records: list[CorpusRecord] | None = None) -> list[Sample]:
    """One sample per record, in its primary language."""
    recs = data.corpus.records if records is None else records
    candidates = {lang: data.layout.answer_candidates(li) for li, lang in enumerate(LANGUAGES)}
    return [_sample(rec, rec.language, candidates[rec.language]) for rec in recs]


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

    @property
    def d(self) -> int:
        return self.emb.shape[1]

    @property
    def total_vocab(self) -> int:
        return self.emb.shape[0]


_INIT_SCALE = 0.02


def init_model(
    base_size: int,
    d: int,
    anchors: AnchorSet,
    n_bins: int,
    seed: int,
) -> ToyModel:
    """Parameters drawn from a normal with standard deviation
    ``_INIT_SCALE``.  Base table and head are drawn before the control rows,
    so models sharing (base_size, d, seed) have bit-identical base
    parameters regardless of the control block size."""
    vocab = token_vocabulary(anchors, n_bins, base_size)
    rng = np.random.default_rng(seed)
    emb_base = rng.normal(0.0, _INIT_SCALE, size=(base_size, d))
    out = rng.normal(0.0, _INIT_SCALE, size=(d, base_size))
    emb_ctrl = rng.normal(0.0, _INIT_SCALE, size=(vocab.size, d))
    return ToyModel(
        emb=np.vstack([emb_base, emb_ctrl]), out=out, base_size=base_size, vocab=vocab
    )


def _pad(rows: list, fill: int) -> np.ndarray:
    """Id sequences as one (B, T) int64 block, right-padded with ``fill``.

    Rows of one length, as every query of the synthetic corpus, go to
    np.array as they are; ragged rows fill their places in a block of ``fill``.
    """
    lengths = list(map(len, rows))
    width = max(lengths)
    if min(lengths) == width:
        return np.array(rows, dtype=np.int64)
    block = np.full((len(rows), width), fill, dtype=np.int64)
    block[np.arange(width) < np.array(lengths)[:, None]] = np.fromiter(
        itertools.chain.from_iterable(rows), np.int64, sum(lengths)
    )
    return block


def _refuse_first(model: ToyModel, queries: list) -> None:
    """Raise the error of the first query that cannot be pooled."""
    for query in queries:
        if len(query) == 0:
            raise ToyTrainError("cannot embed an empty sequence")
        for t in query:
            if not 0 <= t < model.total_vocab:
                raise ToyTrainError(f"unknown token id {t}")
        if min(query) >= model.base_size:
            raise ToyTrainError("sequence has no non-control tokens to embed")


def _pooled_queries(model: ToyModel, queries: list) -> np.ndarray:
    """The mean embedding row of each query's non-control ids, one row each.

    One gather and one sum along the padded block, divided by each query's
    count of kept ids as np.mean divides, so each row is bit-identical to
    the query's own mean.  The padding is the first control id, so one test
    skips it with the control ids; the masked sum starts at -0.0, since
    -0.0 + x is x for every x, signed zeros included.  A lone query with
    no control ids is summed from one 1-d gather along axis 0, row after row
    as in the block, so it has the same bits alone or in a batch.  Each
    query's length, low id and high id are read once, and the checks and
    the choice of path read only those.
    """
    if not queries:
        return np.zeros((0, model.d))
    lengths = list(map(len, queries))
    width, short = max(lengths), min(lengths)
    lows = list(map(min, queries)) if short else [-1]  # -1: an empty query
    top = max(map(max, queries)) if short else -1
    if min(lows) < 0 or max(lows) >= model.base_size or top >= model.total_vocab:
        _refuse_first(model, queries)
    if top < model.base_size and short == width:
        # Nothing to skip, as in every query of the synthetic corpus: the
        # same sums over the queries as given, with no padded block or mask;
        # one query's rows are summed as its block's, row after row.
        if len(queries) == 1:
            return (np.add.reduce(model.emb.take(queries[0], axis=0), axis=0) / width)[None]
        return np.add.reduce(model.emb.take(queries, axis=0), axis=1) / width
    block = _pad(queries, model.base_size)
    rows = model.emb.take(block, axis=0)
    keep = block < model.base_size
    sums = np.add.reduce(rows, axis=1, where=keep[:, :, None], initial=-0.0)
    return sums / np.add.reduce(keep, axis=1)[:, None]


def _forward(
    emb: np.ndarray, out: np.ndarray, block: np.ndarray, lengths: np.ndarray, prefix_len: int,
    base_size: int,
) -> tuple:
    """The forward pass of a right-padded (B, T) id block: row b holds
    ``lengths[b]`` ids, the first ``prefix_len`` its prefix, and ``ctx[j, b]``,
    the running mean of its embeddings at positions 0..j (np.cumsum's sums,
    made position by position), predicts position j+1, so right padding never
    reaches a real context.  Targets are the positions after both the prefix and
    the first content token, so conditioned and plain arms score the same
    targets.  Rows with q targets share one (G, q, d) @ (d, V) head product,
    which keeps each one's row count: BLAS rounds a row differently in a taller
    product.  Returns (real-position mask, ctx, per group (members, positions,
    context rows, target index, log-softmax rows), NLL sums, target counts).
    """
    real = np.arange(block.shape[1]) < lengths[:, None]
    counts = np.maximum(lengths - prefix_len - 1, 0)
    ctx = emb.take(block.T, axis=0)  # (T, B, d): one contiguous slab per position
    for j in range(1, len(ctx)):
        ctx[j] += ctx[j - 1]
    ctx /= np.arange(1, len(ctx) + 1)[:, None, None]
    nll = np.zeros(len(block))
    heads = []
    for q in np.unique(counts[counts > 0]).tolist():
        members = np.flatnonzero(counts == q)
        positions = prefix_len + np.arange(q)
        targets = block[members[:, None], positions + 1]
        if np.any(targets >= base_size):
            raise ToyTrainError("control token appeared as a prediction target")
        rows = ctx[positions, members[:, None]]
        log_probs = rows @ out
        log_probs -= log_probs.max(axis=2, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=2))[:, :, None]
        picked = (np.arange(len(members))[:, None], np.arange(q), targets)
        nll[members] = -np.add.reduce(log_probs[picked], axis=1)
        heads.append((members, positions, rows, picked, log_probs))
    return real, ctx, heads, nll, counts


def _forward_backward(
    emb: np.ndarray, out: np.ndarray, block: np.ndarray, lengths: np.ndarray, prefix_len: int,
    base_size: int,
) -> tuple[float, int, np.ndarray, np.ndarray]:
    """Loss and gradients over an id block as :func:`_forward` reads it.

    One pass over the block: :func:`_forward`, the reversed running sums
    of the context gradient, then one ``np.bincount`` per table column,
    which adds rows in sequence order as ``np.add.at`` would.  The loss and
    the head gradient add up per-sequence terms in sequence order, so every
    float is the one a loop over the sequences computes.
    """
    real, ctx, heads, nll, counts = _forward(emb, out, block, lengths, prefix_len, base_size)
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

    def __post_init__(self) -> None:
        if self.mode not in ("global", "retrieval"):
            raise ToyTrainError(f"unknown ECR mode {self.mode!r}")
        if self.scope not in ("factor", "all"):
            raise ToyTrainError(f"unknown ECR top-k scope {self.scope!r}")
        for name, low in (("k", 1), ("n_bins", 2)):
            if getattr(self, name) < low:
                raise ToyTrainError(f"ECR {name} must be at least {low}, got {getattr(self, name)}")


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

    def __post_init__(self) -> None:
        for name, low in (
            ("batch_size", 1), ("epochs", 0), ("divergence_patience", 1), ("seed", 0),
        ):
            if getattr(self, name) < low:
                raise ToyTrainError(f"{name} must be at least {low}, got {getattr(self, name)}")
        inf = float("inf")
        rules = (
            # a rate <= 0 ascends or stands still, and an infinite one is no step
            ("learning_rate", 0.0 < self.learning_rate < inf, "finite and positive"),
            # a decay of 1 zeroes Adam's bias correction, and one past it
            # no longer averages
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("eps", 0.0 < self.eps < inf, "finite and positive"),
            ("weight_decay", 0.0 <= self.weight_decay < inf, "finite and non-negative"),
            # a NaN threshold would switch the divergence detector off
            ("grad_clip", -inf < self.grad_clip < inf, "finite"),
            ("divergence_threshold", -inf < self.divergence_threshold < inf, "finite"),
            ("holdout_fraction", 0.0 < self.holdout_fraction < 1.0, "in (0, 1)"),
        )
        for name, ok, rule in rules:  # every comparison is False for NaN
            if not ok:
                raise ToyTrainError(f"{name} must be {rule}, got {getattr(self, name)}")

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
    one of the pooling and codec pass the training step takes, rendered."""
    pooled = _pooled_queries(model, [sample.tokens[: sample.query_len]])
    return encode_batch(
        pooled, anchors, settings.n_bins, settings.mode, settings.k, settings.scope, model.vocab
    )[0]


def _prefixes(
    model: ToyModel, samples: list[Sample], anchors: AnchorSet, settings: EcrSettings
) -> np.ndarray:
    """Every sample's prefix ids, (B, P) int64, from one pooling and codec pass."""
    pooled = _pooled_queries(model, [s.tokens[: s.query_len] for s in samples])
    _, _, flat = _table_indices(
        pooled, anchors, settings.n_bins, settings.mode, settings.k, settings.scope, model.vocab
    )
    return model.base_size + flat


def _conditioned(
    model: ToyModel, samples: list[Sample], anchors: AnchorSet | None, settings: EcrSettings,
    frozen: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(id block, row lengths, prefix length) of the samples: each row holds
    its prefix ids, from ``frozen`` (a row per sample) or live, then its tokens."""
    block = _pad([s.tokens for s in samples], 0)
    lengths = np.array([len(s.tokens) for s in samples])
    if not settings.enabled:
        return block, lengths, 0
    if anchors is None:
        raise ToyTrainError("ECR conditioning is enabled but no anchors were given")
    if frozen is None:
        prefix = _prefixes(model, samples, anchors, settings)
    else:
        prefix = np.asarray(frozen)
        if prefix.ndim != 2 or len(prefix) != len(samples) or prefix.dtype.kind != "i":
            raise ToyTrainError(f"frozen prefixes {prefix.dtype}{prefix.shape}: not one per sample")
        if prefix.size and (prefix.min() < model.base_size or prefix.max() >= model.total_vocab):
            raise ToyTrainError("frozen prefixes hold ids outside the control block")
    return np.concatenate([prefix, block], axis=1), lengths + prefix.shape[1], prefix.shape[1]


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
    frozen: np.ndarray | None = None,
) -> float:
    """One optimizer update over a batch; returns the mean target NLL.

    One batched pass: one pooling and one codec pass give every prefix from
    the current embedding table (unless ``frozen`` holds the batch's prefix
    ids), then one forward/backward runs over the padded batch.  Anchors
    are constants here; gradients reach only the model's own parameters.
    """
    if not batch:
        raise ToyTrainError("empty batch")
    conditioned = _conditioned(model, batch, anchors, config.ecr, frozen)
    loss, _, d_emb, d_out = _forward_backward(model.emb, model.out, *conditioned, model.base_size)
    grads = {"emb": d_emb, "out": d_out}
    if config.grad_clip > 0.0:
        clip_gradients(grads, config.grad_clip)
    optimizer.step({"emb": model.emb, "out": model.out}, grads)
    return loss


def nll_eval(
    model: ToyModel,
    samples: list[Sample],
    anchors: AnchorSet | None = None,
    settings: EcrSettings = EcrSettings(),
    frozen: np.ndarray | None = None,
) -> dict[str, float]:
    """Mean target-token NLL per language under the training pipeline."""
    if not samples:
        raise ToyTrainError("empty evaluation set")
    conditioned = _conditioned(model, samples, anchors, settings, frozen)
    *_, nll, counts = _forward(model.emb, model.out, *conditioned, model.base_size)
    sums: dict[str, float] = {}
    totals: dict[str, int] = {}
    for sample, value, count in zip(samples, nll.tolist(), counts.tolist()):
        sums[sample.language] = sums.get(sample.language, 0.0) + value
        totals[sample.language] = totals.get(sample.language, 0) + count
    return {lang: sums[lang] / totals[lang] for lang in sorted(sums)}


def task_accuracy(
    model: ToyModel,
    samples: list[Sample],
    anchors: AnchorSet | None = None,
    settings: EcrSettings = EcrSettings(),
    frozen: np.ndarray | None = None,
) -> float:
    """Fraction of samples whose argmax over their answer-candidate tokens
    at the answer position equals the gold answer."""
    if not samples:
        raise ToyTrainError("empty evaluation set")
    for sample in samples:
        if sample.answer_pos is None:
            raise ToyTrainError(f"sample {sample.dialog_id!r} has no gold position")
    block, lengths, prefix_len = _conditioned(model, samples, anchors, settings, frozen)
    ctx = _forward(model.emb, model.out, block, lengths, prefix_len, model.base_size)[1]
    at = [prefix_len + s.answer_pos - 1 for s in samples]
    # one context row times the head per sample: reading the answer logits
    # off the all-positions product would round differently
    logits = np.vecmat(ctx[at, np.arange(len(samples))], model.out)
    hits = 0
    for sample, row in zip(samples, logits):
        cand = np.asarray(sample.candidates, dtype=np.int64)
        hits += int(cand[int(np.argmax(row[cand]))]) == sample.gold
    return hits / len(samples)


def _variant_queries(records: list[CorpusRecord]) -> list[tuple[int, ...]]:
    """The query of every record in every language, record-major."""
    return [_token_ids(rec.query(lang)) for rec in records for lang in LANGUAGES]


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
    n_variants = len(records) * len(LANGUAGES)
    if len(pooled) != n_variants:
        raise ToyTrainError(
            f"{len(pooled)} pooled queries for {n_variants} record language variants"
        )
    # one anchor per factor group for every variant, record-major
    top1 = _selected(project_batch(pooled, anchors), anchors.group_sizes, 1, "factor")
    return crosslingual_consistency(
        top1.reshape(len(records), len(LANGUAGES), len(anchors.group_sizes))
    )


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
    consecutive bad steps (loss above threshold or non-finite), or
    parameters gone non-finite before that (the pooled queries of a step
    or of the epoch's diagnostics), and stops the run; it never raises.
    """
    if not train_samples:
        raise ToyTrainError("empty training set")
    if config.ecr.enabled and sorted(config.ecr.factors) != sorted(anchors.factors):
        raise ToyTrainError(
            f"ECR factors {list(config.ecr.factors)} are not the conditioning "
            f"anchors' factors {list(anchors.factors)}"
        )
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

    frozen = eval_frozen = None  # a row per sample of train_samples + eval_samples
    if config.ecr.enabled and config.ecr.freeze_prefix:
        frozen = _prefixes(model, train_samples + eval_samples, anchors, config.ecr)
        eval_frozen = frozen[len(train_samples) :]

    # Each distinct held-out query is pooled once per epoch, for both the
    # student embeddings (the first n_eval rows) and the language variants.
    queries = [s.tokens[: s.query_len] for s in eval_samples]
    queries += _variant_queries(eval_records)
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

    n = len(train_samples)
    for _epoch in range(config.epochs):
        order = data_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            rows = order[start : start + config.batch_size]
            batch = [train_samples[i] for i in rows]
            batch_frozen = None if frozen is None else frozen[rows]
            try:
                loss = train_step(model, batch, anchors, config, optimizer, batch_frozen)
            except CodecError:
                # live prefixes cannot be encoded from a non-finite table
                if np.isfinite(model.emb).all():
                    raise
                diverged = True
                break
            loss_curve.append(loss)
            bad = (not np.isfinite(loss)) or loss > config.divergence_threshold
            bad_streak = bad_streak + 1 if bad else 0
            if bad_streak >= config.divergence_patience:
                diverged = True
                break
        if not diverged:
            pooled = _pooled_queries(model, list(slot))[rows_of]
            student_rows = pooled[:n_eval].astype(np.float32)
            # a student row past float32's range has no geometry either
            diverged = not (np.isfinite(pooled).all() and np.isfinite(student_rows).all())
        if diverged:
            divergence_step = len(loss_curve)
            break
        nll_epochs.append(nll_eval(model, eval_samples, anchors, config.ecr, eval_frozen))
        student = EmbeddingMatrix(data=student_rows, ids=student_ids)
        geometry_report, purity_report = manifold_reports(student, langs, "labels")
        geometry_epochs.append(geometry_report.to_dict())
        purity_epochs.append(purity_report.to_dict())
        consistency = eval_crosslingual(pooled[n_eval:], eval_records, diagnostic_anchors)
        consistency_epochs.append(consistency.to_dict())

    accuracy = None
    if not diverged:
        accuracy = task_accuracy(model, eval_samples, anchors, config.ecr, eval_frozen)
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
    seed: int = 0,
) -> AnchorSet:
    """Label-centroid anchors from the teacher embeddings (four k-means
    anchors for the unlabeled tone/strategy factor)."""
    return build_anchor_set(
        data.embeddings, data.corpus, factors, mode="auto", k=4, seed=seed
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


def _train_arms(
    data: SyntheticData, anchors: AnchorSet, arms: list[tuple[str, TrainConfig, AnchorSet]]
) -> list[tuple[ToyModel, ExperimentReport]]:
    """Train each (name, config, conditioning anchors) arm on one standard
    split, made with the first arm's holdout fraction; every arm measures
    consistency against ``anchors``."""
    train_recs, eval_recs = split_records(data, arms[0][1].holdout_fraction)
    split = (make_samples(data, train_recs), make_samples(data, eval_recs), eval_recs)
    return [
        run_training(*split, data.layout, cond, anchors, cfg, arm=name) for name, cfg, cond in arms
    ]


def run_experiment(data: SyntheticData, anchors: AnchorSet, config: TrainConfig) -> PairedOutcome:
    """Paired baseline/conditioned runs of one config under one seed and
    data order.

    The ``baseline`` arm trains ``config`` with conditioning off and the
    ``ecr`` arm with it on; nothing else differs.  Both arms see identical
    batches, start from bit-identical base parameters, and condition on and
    measure against ``anchors``.
    """
    arms = [
        (arm, replace(config, ecr=replace(config.ecr, enabled=arm == "ecr")), anchors)
        for arm in ("baseline", "ecr")
    ]
    reports = [report for _, report in _train_arms(data, anchors, arms)]
    return PairedOutcome(*reports, table=[summary_row(report.to_dict()) for report in reports])


ABLATION_SUBSETS: tuple[tuple[str, ...], ...] = (
    (),
    ("L",),
    ("E",),
    ("I",),
    ("L", "E", "I"),
)


def run_ablation(data: SyntheticData, anchors: AnchorSet, config: TrainConfig) -> list[dict]:
    """Factor-subset sweep over :data:`ABLATION_SUBSETS`; one row per subset
    with NLL, Spread, and cross-lingual consistency columns.

    Every row starts from the same base parameters and batch order; the
    empty subset is the unconditioned baseline.  Consistency always uses
    the full anchor set as the measuring stick.
    """
    arms = []
    for subset in ABLATION_SUBSETS:
        ecr = replace(config.ecr, enabled=bool(subset), factors=subset or config.ecr.factors)
        cond = subset_anchors(anchors, subset) if subset else anchors
        arms.append(("+".join(subset) or "none", replace(config, ecr=ecr), cond))
    return [
        {**summary_row(report.to_dict()), "factors": list(subset)}
        for (_, report), subset in zip(_train_arms(data, anchors, arms), ABLATION_SUBSETS)
    ]


def run_single_arm(
    data: SyntheticData, anchors: AnchorSet, config: TrainConfig
) -> tuple[ToyModel, ExperimentReport]:
    """One arm trained on the standard split of a synthetic dataset."""
    arm = "ecr" if config.ecr.enabled else "baseline"
    return _train_arms(data, anchors, [(arm, config, anchors)])[0]


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
