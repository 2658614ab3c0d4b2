"""Desk-scale trainer: data generation, gradients, optimizer, experiment loop."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecr.codec import CodecError, encode, encode_batch
from ecr.corpus import LANGUAGES
from ecr.geometry import purity
from ecr.toytrain import (
    _FACTOR_SCALE,
    _LANG_SCALE,
    _NOISE_SCALE,
    AdamW,
    EcrSettings,
    ToyTrainError,
    TrainConfig,
    VocabLayout,
    _forward_backward,
    _pad,
    _pooled_queries,
    _prefixes,
    _variant_queries,
    build_toy_anchors,
    clip_gradients,
    eval_crosslingual,
    init_model,
    make_samples,
    make_synthetic_corpus,
    nll_eval,
    record_sample,
    render_table,
    run_ablation,
    run_experiment,
    run_single_arm,
    sample_prefix,
    split_records,
    subset_anchors,
    summary_row,
    task_accuracy,
    train_step,
)


def _tiny_data(seed=0, n_per_lang=6, **kw):
    return make_synthetic_corpus(seed=seed, n_per_lang=n_per_lang, **kw)


def _tiny_setup(seed=0, n_per_lang=6):
    data = _tiny_data(seed=seed, n_per_lang=n_per_lang)
    anchors = build_toy_anchors(data, seed=seed)
    return data, anchors


# ---------------------------------------------------------------------------
# vocabulary layout


def test_layout_blocks_disjoint():
    layout = VocabLayout(n_tasks=3, n_content=12)
    ids = [layout.BOS, layout.SEP]
    ids += [layout.task_marker(t) for t in range(3)]
    for li in range(3):
        ids += [layout.content_id(li, c) for c in range(12)]
        ids += [layout.answer_id(li, a) for a in range(3)]
    assert len(set(ids)) == len(ids)
    assert max(ids) == layout.base_size - 1
    assert min(ids) == 0


def test_layout_candidates_are_language_block_answers():
    layout = VocabLayout(n_tasks=3, n_content=12)
    for li in range(3):
        cand = layout.answer_candidates(li)
        assert cand == tuple(layout.answer_id(li, a) for a in range(3))
        assert len(cand) == 3


def test_layout_task_markers_shared_across_languages():
    # markers live outside every language block, so all variants of a
    # record share them
    layout = VocabLayout(n_tasks=4, n_content=8)
    markers = {layout.task_marker(t) for t in range(4)}
    for li in range(3):
        block = set(range(layout.block_start(li), layout.block_start(li) + layout.block_size))
        assert markers.isdisjoint(block)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synthetic_record_count_and_languages():
    data = _tiny_data(n_per_lang=5)
    assert len(data.corpus.records) == 15
    languages = [rec.language for rec in data.corpus.records]
    assert {lang: languages.count(lang) for lang in LANGUAGES} == {"en": 5, "hi": 5, "zh": 5}
    assert data.embeddings.n == 15


def test_synthetic_same_seed_identical():
    a = _tiny_data(seed=42)
    b = _tiny_data(seed=42)
    assert np.array_equal(a.embeddings.data, b.embeddings.data)
    for ra, rb in zip(a.corpus.records, b.corpus.records):
        assert ra == rb


def test_synthetic_seeds_differ():
    a = _tiny_data(seed=1)
    b = _tiny_data(seed=2)
    assert not np.array_equal(a.embeddings.data, b.embeddings.data)


def test_synthetic_language_purity_is_one():
    data = _tiny_data(n_per_lang=10)
    labels = [r.language for r in data.corpus.records]
    assert purity(data.embeddings, labels).overall == 1.0


def test_synthetic_variants_are_aligned():
    data = _tiny_data(n_per_lang=4)
    layout = data.layout
    for rec in data.corpus.records:
        toks = {lang: [int(t) for t in rec.query(lang).split()] for lang in LANGUAGES}
        lengths = {len(v) for v in toks.values()}
        assert len(lengths) == 1
        # identical structure: same BOS/SEP/markers, shifted content block
        for li, lang in enumerate(LANGUAGES):
            seq = toks[lang]
            assert seq[0] == layout.BOS
            assert seq[-1] == layout.SEP
            assert seq[1] == toks["en"][1]  # shared task marker
            start = layout.block_start(li)
            content = [t - start for t in seq[2:-1] if t >= start]
            en_content = [
                t - layout.block_start(0) for t in toks["en"][2:-1]
                if t >= layout.block_start(0)
            ]
            assert content == en_content


def test_synthetic_marker_repeat_lengthens_query():
    one = _tiny_data(n_per_lang=3, marker_repeat=1)
    two = _tiny_data(n_per_lang=3, marker_repeat=3)
    q1 = one.corpus.records[0].query("en").split()
    q2 = two.corpus.records[0].query("en").split()
    assert len(q2) == len(q1) + 2


def test_synthetic_answer_rule_holds_without_noise():
    # the answer class is (task + primary language) mod n_tasks, decided
    # once per record; every variant renders that class in its own block
    data = _tiny_data(n_per_lang=8, answer_noise=0.0)
    layout = data.layout
    tasks = data.corpus.header.tasks
    for rec in data.corpus.records:
        task_index = tasks.index(rec.task)
        primary = LANGUAGES.index(rec.language)
        klass = (task_index + primary) % len(tasks)
        for li, lang in enumerate(LANGUAGES):
            assert int(rec.answer(lang)) == layout.answer_id(li, klass)


def test_synthetic_validation():
    with pytest.raises(ToyTrainError):
        make_synthetic_corpus(seed=0, n_per_lang=0)
    with pytest.raises(ToyTrainError):
        make_synthetic_corpus(seed=0, n_factors=1)
    with pytest.raises(ToyTrainError):
        make_synthetic_corpus(seed=0, marker_repeat=0)
    # numpy raised a bare ValueError on the seed; d = 0 gave a (6, 0) teacher
    with pytest.raises(ToyTrainError, match="seed must be non-negative, got -1"):
        make_synthetic_corpus(seed=-1, n_per_lang=2)
    with pytest.raises(ToyTrainError, match="d must be positive, got 0"):
        make_synthetic_corpus(seed=0, n_per_lang=2, d=0)
    # numpy refused a negative content size; one draw of all the bounds would not
    with pytest.raises(ToyTrainError, match="query_content must be non-negative, got -1"):
        make_synthetic_corpus(seed=0, n_per_lang=2, query_content=-1)


def _draws_one_field_at_a_time(seed, n_per_lang, n_factors, n_content, query_content,
                                answer_noise, d):
    """Each record's factor indices, content indices, answer class and
    teacher row, drawn as the generator once drew them: a bounded draw per
    factor, a sized draw for the content, the noise coin, a noisy answer
    class when the coin says so, and the noise row."""
    rng = np.random.default_rng(seed)
    dirs = [rng.standard_normal((k, d)) for k in (len(LANGUAGES), n_factors, n_factors, n_factors)]
    scales = (_LANG_SCALE, _FACTOR_SCALE, _FACTOR_SCALE, _FACTOR_SCALE)
    tables = [s * (x / np.linalg.norm(x, axis=1, keepdims=True)) for s, x in zip(scales, dirs)]
    out = []
    for li in range(len(LANGUAGES)):
        for _ in range(n_per_lang):
            task, emotion, intent = (int(rng.integers(n_factors)) for _ in range(3))
            content = rng.integers(0, n_content, size=query_content).tolist()
            answer = (task + li) % n_factors
            if rng.random() < answer_noise:
                answer = int(rng.integers(n_factors))
            noise = rng.standard_normal(d)
            centre = tables[0][li] + tables[1][task] + tables[2][emotion] + tables[3][intent]
            row = (_NOISE_SCALE * noise + centre).astype(np.float32)
            out.append((task, emotion, intent, content, answer, row))
    return out, rng


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    n_per_lang=st.integers(1, 3),
    n_factors=st.integers(2, 9),
    n_content=st.integers(1, 40),
    query_content=st.integers(0, 8),
    answer_noise=st.sampled_from([0.0, 0.5, 1.0]),
    d=st.integers(1, 5),
)
def test_one_bounded_draw_per_record_replays_the_per_field_draws(
    seed, n_per_lang, n_factors, n_content, query_content, answer_noise, d
):
    shape = dict(n_per_lang=n_per_lang, n_factors=n_factors, n_content=n_content,
                 query_content=query_content, answer_noise=answer_noise, d=d)
    expected, old = _draws_one_field_at_a_time(seed, **shape)
    # the same calls as the generator's, on a generator of the same seed
    new = np.random.default_rng(seed)
    for k in (len(LANGUAGES), n_factors, n_factors, n_factors):
        new.standard_normal((k, d))
    bounds = np.array([n_factors] * 3 + [n_content] * query_content, dtype=np.int64)
    for task, emotion, intent, content, answer, _ in expected:
        assert new.integers(bounds).tolist() == [task, emotion, intent, *content]
        if new.random() < answer_noise:
            assert int(new.integers(n_factors)) == answer
        new.standard_normal(d)
    assert new.bit_generator.state == old.bit_generator.state

    data = make_synthetic_corpus(seed=seed, marker_repeat=1, **shape)
    layout = data.layout
    for rec, row, (task, emotion, intent, content, answer, teacher) in zip(
        data.corpus.records, data.embeddings.data, expected
    ):
        assert (rec.task, rec.emotion, rec.intent) == (
            f"task{task}", f"emotion{emotion}", f"intent{intent}"
        )
        for li, lang in enumerate(LANGUAGES):
            assert rec.query(lang) == " ".join(map(str, [
                layout.BOS, layout.task_marker(task),
                *(layout.content_id(li, c) for c in content), layout.SEP,
            ]))
            assert rec.answer(lang) == str(layout.answer_id(li, answer))
        assert np.array_equal(row, teacher)


def test_synthetic_corpus_peak_stays_below_two_matrices():
    # the noise is drawn a block of rows at a time, so the only (n, d)
    # array is the float32 result
    import tracemalloc

    tracemalloc.start()
    try:
        data = make_synthetic_corpus(seed=0, n_per_lang=400, d=768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.embeddings.data.shape == (1200, 768)
    assert peak <= 2 * data.embeddings.data.nbytes


# ---------------------------------------------------------------------------
# samples and splits


def test_record_sample_structure():
    data = _tiny_data(n_per_lang=3)
    rec = data.corpus.records[0]
    sample = record_sample(rec, "zh", data.layout)
    assert sample.language == "zh"
    assert sample.tokens[: sample.query_len] == tuple(
        int(t) for t in rec.query("zh").split()
    )
    assert sample.tokens[-1] == sample.gold
    assert sample.answer_pos == len(sample.tokens) - 1
    assert sample.gold in sample.candidates


def test_make_samples_uses_primary_language():
    data = _tiny_data(n_per_lang=3)
    samples = make_samples(data)
    assert len(samples) == 9
    for s, rec in zip(samples, data.corpus.records):
        assert s.language == rec.language


def test_split_records_deterministic_per_language():
    data = _tiny_data(n_per_lang=10)
    train, hold = split_records(data, 0.2)
    assert len(train) == 24 and len(hold) == 6
    by_lang = {}
    for rec in hold:
        by_lang[rec.language] = by_lang.get(rec.language, 0) + 1
    assert by_lang == {"en": 2, "zh": 2, "hi": 2}
    train2, hold2 = split_records(data, 0.2)
    assert [r.dialog_id for r in hold] == [r.dialog_id for r in hold2]
    assert not set(r.dialog_id for r in train) & set(r.dialog_id for r in hold)


def test_split_records_bounds():
    data = _tiny_data(n_per_lang=4)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ToyTrainError):
            split_records(data, bad)


# ---------------------------------------------------------------------------
# model and embedding


def test_init_model_base_params_shared_across_anchor_sets():
    data, anchors = _tiny_setup()
    small = subset_anchors(anchors, ("T", "L"))
    a = init_model(data.layout.base_size, 16, anchors, 8, seed=3)
    b = init_model(data.layout.base_size, 16, small, 8, seed=3)
    n = data.layout.base_size
    assert np.array_equal(a.emb[:n], b.emb[:n])
    assert np.array_equal(a.out, b.out)
    assert a.total_vocab != b.total_vocab


def test_embed_sequence_is_mean_of_base_rows():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, 8, anchors, 8, seed=0)
    ids = [0, 1, 2]
    want = (model.emb[0] + model.emb[1] + model.emb[2]) / 3.0
    assert np.allclose(_pooled_queries(model, [ids])[0], want, atol=1e-12)


def test_embed_sequence_skips_control_rows():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, 8, anchors, 8, seed=0)
    ctrl = model.base_size  # first control id
    mixed, plain = _pooled_queries(model, [[0, ctrl, 1], [0, 1]])
    assert np.array_equal(mixed, plain)


def test_embed_sequence_errors():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, 8, anchors, 8, seed=0)
    base, top = model.base_size, model.total_vocab
    for bad, message in (
        ([], "cannot embed an empty sequence"),
        ([top + 7], f"unknown token id {top + 7}"),
        ([-1], "unknown token id -1"),
        ([base, base + 1], "sequence has no non-control tokens to embed"),
    ):
        # the same error alone and on either side of a valid query in a batch
        for queries in ([bad], [[1, 2], bad], [bad, [1, 2, 3]]):
            with pytest.raises(ToyTrainError, match=f"^{re.escape(message)}$"):
                _pooled_queries(model, queries)


# ---------------------------------------------------------------------------
# loss and gradients


def _block(sequences):
    """The (block, lengths, prefix length) that ``_forward_backward`` reads
    for (ids, prefix length) pairs that share one prefix length."""
    (prefix_len,) = {p for _, p in sequences}
    lengths = np.array([len(ids) for ids, _ in sequences])
    block = np.zeros((len(sequences), lengths.max()), dtype=np.int64)
    for row, (ids, _) in zip(block, sequences):
        row[: len(ids)] = ids
    return block, lengths, prefix_len


def test_untrained_nll_is_log_vocab():
    # near-zero logits make every prediction uniform over the base vocab
    rng = np.random.default_rng(0)
    v, d = 256, 16
    emb = rng.normal(0, 0.02, size=(v, d))
    out = rng.normal(0, 0.02, size=(d, v))
    sequences = []
    for _ in range(100):
        ids = rng.integers(0, v, size=102)
        sequences.append((ids.astype(np.int64), 1))
    loss, n_targets, _, _ = _forward_backward(emb, out, *_block(sequences), v)
    assert n_targets == 100 * 100
    assert abs(loss - math.log(v)) / math.log(v) < 0.02


def test_loss_matches_hand_computed_cross_entropy():
    # three tokens, prefix 0: targets are positions 1 and 2
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    out = np.array([[0.2, -0.1, 0.3], [0.0, 0.4, -0.2]])
    ids = np.array([0, 1, 2], dtype=np.int64)
    loss, n_targets, _, _ = _forward_backward(emb, out, *_block([(ids, 0)]), 3)
    assert n_targets == 2
    want = 0.0
    ctx1 = emb[0]  # predicts position 1
    ctx2 = (emb[0] + emb[1]) / 2.0  # predicts position 2
    for ctx, target in ((ctx1, 1), (ctx2, 2)):
        logits = ctx @ out
        z = np.exp(logits).sum()
        want += -math.log(math.exp(logits[target]) / z)
    assert loss == pytest.approx(want / 2.0, abs=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    v, d = 7, 4
    emb = rng.normal(0, 0.5, size=(v, d))
    out = rng.normal(0, 0.5, size=(d, v))
    # prefix-free (the baseline) and one-token prefixes, one length per batch
    for prefix_len in (0, 1):
        sequences = [
            (np.array([0, 1, 2, 3], dtype=np.int64), prefix_len),
            (np.array([4, 5, 6], dtype=np.int64), prefix_len),
        ]
        _check_finite_differences(emb, out, sequences, v)


def _check_finite_differences(emb, out, sequences, v):
    loss, _, d_emb, d_out = _forward_backward(emb, out, *_block(sequences), v)
    h = 1e-6

    def loss_at(e, o):
        return _forward_backward(e, o, *_block(sequences), v)[0]

    for arr, grad in ((emb, d_emb), (out, d_out)):
        flat_idx = [(i, j) for i in range(arr.shape[0]) for j in range(arr.shape[1])]
        for i, j in flat_idx:
            orig = arr[i, j]
            arr[i, j] = orig + h
            up = loss_at(emb, out)
            arr[i, j] = orig - h
            down = loss_at(emb, out)
            arr[i, j] = orig
            numeric = (up - down) / (2 * h)
            assert grad[i, j] == pytest.approx(numeric, abs=2e-6)


def test_control_token_as_target_rejected():
    emb = np.zeros((6, 3))
    out = np.zeros((3, 4))
    ids = np.array([0, 1, 5], dtype=np.int64)  # id 5 is past base_size 4
    with pytest.raises(ToyTrainError, match="control token"):
        _forward_backward(emb, out, *_block([(ids, 0)]), 4)


def test_batch_without_targets_rejected():
    emb = np.zeros((4, 3))
    out = np.zeros((3, 4))
    ids = np.array([0, 1], dtype=np.int64)
    with pytest.raises(ToyTrainError, match="no prediction targets"):
        _forward_backward(emb, out, *_block([(ids, 1)]), 4)


def test_prefix_positions_excluded_from_targets():
    # targets start strictly after the prefix and the first content
    # token, so a longer prefix shrinks the target set by exactly its
    # extra length
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(6, 3))
    out = rng.normal(size=(3, 6))
    ids = np.array([4, 0, 1, 2, 3], dtype=np.int64)
    for prefix_len in (0, 1, 2):
        n = _forward_backward(emb, out, *_block([(ids, prefix_len)]), 6)[1]
        assert n == len(ids) - prefix_len - 1


# ---------------------------------------------------------------------------
# the batched path against a loop over single sequences


def _reference_embed(model, tokens):
    """The per-query pooling: the mean of the query's non-control rows."""
    ids = np.asarray(tokens, dtype=np.int64).ravel()
    if ids.size == 0:
        raise ToyTrainError("cannot embed an empty sequence")
    if np.any((ids < 0) | (ids >= model.total_vocab)):
        bad = int(ids[(ids < 0) | (ids >= model.total_vocab)][0])
        raise ToyTrainError(f"unknown token id {bad}")
    keep = ids < model.base_size
    if not np.any(keep):
        raise ToyTrainError("sequence has no non-control tokens to embed")
    return model.emb[ids[keep]].mean(axis=0)


def _reference_prefix(model, sample, anchors, settings):
    return encode(
        _reference_embed(model, sample.tokens[: sample.query_len]),
        anchors,
        settings.n_bins,
        mode=settings.mode,
        k=settings.k if settings.mode == "retrieval" else None,
        scope=settings.scope,
        vocab=model.vocab,
    )


def _reference_logits(emb, out, ids, prefix_len):
    """One sequence's forward pass: (context, targets, log-probs)."""
    t_len = ids.shape[0]
    ctx = np.cumsum(emb[ids], axis=0) / np.arange(1, t_len + 1)[:, None]
    logits = ctx[prefix_len : t_len - 1] @ out
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1))[:, None]
    return ctx, ids[prefix_len + 1 :], log_probs


def _reference_forward_backward(emb, out, sequences, base_size):
    """Loss and gradients by a loop over the sequences, one at a time."""
    d_emb = np.zeros_like(emb)
    d_out = np.zeros_like(out)
    total = 0.0
    n_targets = 0
    deferred = []
    for ids, prefix_len in sequences:
        ctx, targets, log_probs = _reference_logits(emb, out, ids, prefix_len)
        if targets.size == 0:
            continue
        if np.any(targets >= base_size):
            raise ToyTrainError("control token appeared as a prediction target")
        picked = (np.arange(targets.shape[0]), targets)
        total += float(-log_probs[picked].sum())
        n_targets += targets.shape[0]
        d_logits = np.exp(log_probs)
        d_logits[picked] -= 1.0
        deferred.append((ids, ctx, d_logits))
    if n_targets == 0:
        raise ToyTrainError("batch contains no prediction targets")
    inv = 1.0 / n_targets
    for ids, ctx, d_logits in deferred:
        t_len = ids.shape[0]
        first_target = t_len - d_logits.shape[0]
        d_logits = d_logits * inv
        d_out += ctx[first_target - 1 : t_len - 1].T @ d_logits
        d_ctx = np.zeros_like(ctx)
        d_ctx[first_target - 1 : t_len - 1] = d_logits @ out.T
        d_cums = d_ctx / np.arange(1, t_len + 1)[:, None]
        d_rows = np.cumsum(d_cums[::-1], axis=0)[::-1]
        np.add.at(d_emb, ids, d_rows)
    return total * inv, n_targets, d_emb, d_out


def _random_batch(rng, base, total, size, prefix_len, ragged):
    """(ids, prefix length) pairs sharing ``prefix_len``: control-block
    prefixes and base-vocabulary bodies, each body 1 to 10 long when
    ragged and 9 otherwise."""
    sequences = []
    for _ in range(size):
        body = int(rng.integers(1, 11)) if ragged else 9
        ids = np.concatenate(
            [rng.integers(base, total, size=prefix_len), rng.integers(0, base, size=body)]
        )
        sequences.append((ids.astype(np.int64), prefix_len))
    return sequences


BATCH_SEEDS = range(6)


@pytest.mark.parametrize("seed", BATCH_SEEDS)
@pytest.mark.parametrize("ragged", [False, True])
def test_batched_step_bit_identical_to_sequence_loop(seed, ragged):
    # ragged batches take prefix length seed % 5, so the seeds cover 0 to 4
    assert {s % 5 for s in BATCH_SEEDS} == set(range(5))
    rng = np.random.default_rng(100 + seed)
    base, d = 50, 24
    total = base + 29 * 8
    emb = rng.normal(0.0, 0.5, size=(total, d))
    out = rng.normal(0.0, 0.5, size=(d, base))
    sequences = _random_batch(rng, base, total, 32, seed % 5 if ragged else 3, ragged)
    # a sequence whose only tokens are its prefix and one content token
    # has no target; it must be skipped, not padded into the loss
    ids, prefix_len = sequences[5]
    sequences[5] = (np.append(ids[:prefix_len], 7), prefix_len)
    loss, n_targets, d_emb, d_out = _forward_backward(emb, out, *_block(sequences), base)
    want = _reference_forward_backward(emb, out, sequences, base)
    assert loss == want[0]
    assert n_targets == want[1]
    assert np.array_equal(d_emb, want[2])
    assert np.array_equal(d_out, want[3])
    if ragged:
        assert len({ids.shape[0] for ids, _ in sequences}) > 1


def test_batched_step_rejects_control_target_anywhere():
    rng = np.random.default_rng(7)
    base, total = 20, 36
    emb = rng.normal(size=(total, 4))
    out = rng.normal(size=(4, base))
    sequences = _random_batch(rng, base, total, 8, 2, ragged=True)
    ids, prefix_len = sequences[6]
    sequences[6] = (np.append(ids, base + 1), prefix_len)  # a control id as the last target
    with pytest.raises(ToyTrainError, match="control token appeared"):
        _forward_backward(emb, out, *_block(sequences), base)
    with pytest.raises(ToyTrainError, match="control token appeared"):
        _reference_forward_backward(emb, out, sequences, base)


def _mixed_length_samples(n_per_lang=6):
    # two corpora of different query lengths make a ragged sample list
    short = make_samples(_tiny_data(seed=0, n_per_lang=n_per_lang))
    long = make_samples(_tiny_data(seed=1, n_per_lang=n_per_lang, marker_repeat=3))
    return [s for pair in zip(short, long) for s in pair]


def test_pooled_queries_match_embed_sequence():
    # each row is the per-query pooling of its query alone
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, anchors.d, anchors, 8, seed=2)
    queries = [s.tokens[: s.query_len] for s in _mixed_length_samples()]
    ctrl = model.base_size
    queries += [(ctrl, 3, ctrl + 5, 4), (5,), (ctrl + 1, 6, 6)]  # control ids are skipped
    pooled = _pooled_queries(model, queries)
    for row, query in zip(pooled, queries):
        assert np.array_equal(row, _reference_embed(model, query))
        assert np.array_equal(row, _pooled_queries(model, [query])[0])


@pytest.fixture(scope="module")
def tiny_anchors():
    return _tiny_setup()[1]


@settings(max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    length=st.integers(1, 130),
    other=st.integers(1, 130),
    d=st.one_of(st.sampled_from([1, 2, 3, 24]), st.integers(1, 1024)),
    controls=st.booleans(),
    first=st.booleans(),
)
def test_one_query_pools_as_in_a_batch(tiny_anchors, seed, length, other, d, controls, first):
    # one query takes the one-row sum; beside a second query it takes the
    # batch's, padded and masked where the lengths differ or ids are skipped
    rng = np.random.default_rng(seed)
    model = init_model(40, d, tiny_anchors, 8, seed=seed)
    model = dataclasses.replace(
        model, emb=model.emb * 10.0 ** rng.uniform(-3, 3, size=(model.total_vocab, 1))
    )
    query = rng.integers(0, 40, size=length)
    if controls:
        skip = rng.random(length) < 0.3
        skip[rng.integers(length)] = False  # one kept id at least
        query[skip] = rng.integers(40, model.total_vocab, size=int(skip.sum()))
    query, second = query.tolist(), rng.integers(0, 40, size=other).tolist()
    alone = _pooled_queries(model, [query])
    pair = _pooled_queries(model, [query, second] if first else [second, query])
    assert alone.shape == (1, d)
    assert np.array_equal(alone[0], pair[0 if first else 1])


@pytest.mark.parametrize(
    "settings",
    [
        EcrSettings(enabled=True, n_bins=8),
        EcrSettings(enabled=True, n_bins=5, mode="retrieval", k=2),
        EcrSettings(enabled=True, n_bins=8, mode="retrieval", k=3, scope="all"),
    ],
    ids=["global", "retrieval", "retrieval-all"],
)
def test_encode_batch_over_pooled_rows_equals_sample_prefix(settings):
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, anchors.d, anchors, settings.n_bins, seed=4)
    samples = _mixed_length_samples()
    batch = encode_batch(
        _pooled_queries(model, [s.tokens[: s.query_len] for s in samples]),
        anchors,
        settings.n_bins,
        mode=settings.mode,
        k=settings.k if settings.mode == "retrieval" else None,
        scope=settings.scope,
        vocab=model.vocab,
    )
    assert len(batch) == len(samples)
    for prefix, sample in zip(batch, samples):
        assert prefix == sample_prefix(model, sample, anchors, settings)
        assert prefix == _reference_prefix(model, sample, anchors, settings)
    # the training step reads the same ids, one (B, P) matrix
    ids = _prefixes(model, samples, anchors, settings)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, [prefix.token_ids for prefix in batch])


def test_nll_eval_and_task_accuracy_match_sample_loop():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, anchors.d, anchors, 8, seed=6)
    samples = _mixed_length_samples()
    settings = EcrSettings(enabled=True, n_bins=8, mode="retrieval", k=2)
    sums, counts, hits = {}, {}, 0
    for s in samples:
        prefix = _reference_prefix(model, s, anchors, settings)
        ids = np.asarray(prefix.token_ids + s.tokens, dtype=np.int64)
        ctx, targets, log_probs = _reference_logits(model.emb, model.out, ids, len(prefix))
        nll = float(-log_probs[np.arange(targets.shape[0]), targets].sum())
        sums[s.language] = sums.get(s.language, 0.0) + nll
        counts[s.language] = counts.get(s.language, 0) + targets.shape[0]
        logits = ctx[len(prefix) + s.answer_pos - 1] @ model.out
        cand = np.asarray(s.candidates)
        hits += int(cand[int(np.argmax(logits[cand]))]) == s.gold
    want = {lang: sums[lang] / counts[lang] for lang in sorted(sums)}
    assert nll_eval(model, samples, anchors, settings) == want
    assert task_accuracy(model, samples, anchors, settings) == hits / len(samples)


def _faulty(sample, fault, model):
    """The sample with its query broken in one way, and the model to read it."""
    answer = sample.tokens[-1:]
    query = {
        "unknown id": sample.tokens[: sample.query_len - 1] + (model.total_vocab + 5,),
        "empty query": (),
        "control-only query": (model.base_size, model.base_size + 9),
        "zero row": (2, 2, 2),
        "nan row": (3, 2),
        "inf row": (3, 3),
    }[fault]
    if fault == "zero row":
        model.emb[2] = 0.0
    elif fault in ("nan row", "inf row"):
        model.emb[3] = np.nan if fault == "nan row" else np.inf
    return dataclasses.replace(
        sample, tokens=query + answer, query_len=len(query), answer_pos=len(query)
    )


@pytest.mark.parametrize(
    "fault",
    ["unknown id", "empty query", "control-only query", "zero row", "nan row", "inf row"],
)
@pytest.mark.parametrize("batch_size", [1, 32])
def test_pooled_path_raises_the_per_query_error(fault, batch_size):
    data, anchors = _tiny_setup(n_per_lang=12)
    settings = EcrSettings(enabled=True, n_bins=8)
    model = init_model(data.layout.base_size, anchors.d, anchors, 8, seed=0)
    batch = make_samples(data)[:batch_size]
    bad = _faulty(batch[batch_size // 2], fault, model)
    batch[batch_size // 2] = bad
    with pytest.raises((ToyTrainError, CodecError)) as want:
        _reference_prefix(model, bad, anchors, settings)
    cfg = _fast_config(ecr=settings)
    opt = AdamW(lr=cfg.learning_rate)
    calls = [
        lambda: train_step(model, batch, anchors, cfg, opt),
        lambda: nll_eval(model, batch, anchors, settings),
    ]
    if batch_size == 1:
        calls.append(lambda: sample_prefix(model, bad, anchors, settings))
    for call in calls:
        with pytest.raises(want.type) as got:
            call()
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_first_step_hand_oracle():
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    opt = AdamW(lr=0.1, beta1=0.9, beta2=0.95, eps=1e-8, weight_decay=0.1)
    params = {"p": p}
    opt.step(params, {"p": g.copy()})
    # t=1: m-hat = g, v-hat = g^2, update = g / (|g| + eps)
    want = np.array([1.0, -2.0]) - 0.1 * (
        g / (np.abs(g) + 1e-8) + 0.1 * np.array([1.0, -2.0])
    )
    assert np.allclose(params["p"], want, atol=1e-12)


def test_adamw_two_steps_hand_oracle():
    lr, b1, b2, eps, wd = 0.05, 0.9, 0.95, 1e-8, 0.1
    p = np.array([0.3])
    g1, g2 = np.array([0.2]), np.array([-0.4])
    opt = AdamW(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    params = {"p": p}
    opt.step(params, {"p": g1.copy()})
    opt.step(params, {"p": g2.copy()})

    m = v = 0.0
    x = 0.3
    for t, g in ((1, 0.2), (2, -0.4)):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * x)
    assert params["p"][0] == pytest.approx(x, abs=1e-14)


def test_adamw_decay_is_decoupled():
    # zero gradient: the only movement is weight decay, independent of
    # any gradient history
    p = np.array([2.0])
    opt = AdamW(lr=0.1, weight_decay=0.5)
    opt.step({"p": p}, {"p": np.zeros(1)})
    assert p[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_clip_gradients_oracle():
    g1 = np.array([3.0, 0.0])
    g2 = np.array([0.0, 4.0])
    grads = {"a": g1, "b": g2}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(grads["a"], [0.6, 0.0])
    assert np.allclose(grads["b"], [0.0, 0.8])
    # under the cap: untouched
    grads = {"a": np.array([0.3, 0.4])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(0.5)
    assert np.allclose(grads["a"], [0.3, 0.4])


# ---------------------------------------------------------------------------
# evaluation


def test_task_accuracy_random_gold_near_chance():
    data, anchors = _tiny_setup(n_per_lang=100)
    model = init_model(data.layout.base_size, 16, anchors, 8, seed=5)
    samples = make_samples(data)
    rng = np.random.default_rng(17)
    rigged = []
    for s in samples:
        gold = int(rng.choice(s.candidates))
        toks = list(s.tokens)
        toks[-1] = gold
        rigged.append(
            dataclasses.replace(s, tokens=tuple(toks), gold=gold)
        )
    acc = task_accuracy(model, rigged)
    n, p = len(rigged), 1.0 / 3.0
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(acc - p) < 3 * sigma


def test_task_accuracy_restricted_to_candidates():
    # rig the head so a non-candidate token dominates every logit; the
    # restricted argmax must ignore it and still resolve the gold token
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, 8, anchors, 8, seed=0)
    sample = make_samples(data)[0]
    ids = np.asarray(sample.tokens[: sample.answer_pos], dtype=np.int64)
    ctx = model.emb[ids].mean(axis=0)  # the direction scored at the answer
    model.out[:, data.layout.BOS] = 100.0 * ctx  # BOS is never a candidate
    losers = [c for c in sample.candidates if c != sample.gold]
    model.out[:, sample.gold] = 50.0 * ctx
    for c in losers:
        model.out[:, c] = -50.0 * ctx
    assert task_accuracy(model, [sample]) == 1.0
    # flip the rig: gold loses against another candidate
    model.out[:, sample.gold] = -50.0 * ctx
    model.out[:, losers[0]] = 50.0 * ctx
    assert task_accuracy(model, [sample]) == 0.0


def test_task_accuracy_requires_gold_position():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, 8, anchors, 8, seed=0)
    s = make_samples(data)[0]
    broken = dataclasses.replace(s, answer_pos=None)
    with pytest.raises(ToyTrainError, match="gold position"):
        task_accuracy(model, [broken])
    with pytest.raises(ToyTrainError, match="empty"):
        task_accuracy(model, [])


def test_nll_eval_per_language_buckets():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, 8, anchors, 8, seed=0)
    samples = make_samples(data)
    nll = nll_eval(model, samples)
    assert set(nll) == {"en", "zh", "hi"}
    assert all(v > 0 for v in nll.values())
    assert set(nll_eval(model, [s for s in samples if s.language == "en"])) == {"en"}
    with pytest.raises(ToyTrainError, match="empty evaluation"):
        nll_eval(model, [])


def test_sample_prefix_lengths_by_mode():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, anchors.d, anchors, 8, seed=0)
    s = make_samples(data)[0]
    full = sample_prefix(model, s, anchors, EcrSettings(enabled=True, n_bins=8))
    assert len(full) == anchors.total_k
    sparse = sample_prefix(
        model, s, anchors,
        EcrSettings(enabled=True, n_bins=8, mode="retrieval", k=1),
    )
    assert len(sparse) == len(anchors.factors)
    assert all(tid >= model.base_size for tid in sparse.token_ids)


def test_eval_crosslingual_covers_all_records():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, anchors.d, anchors, 8, seed=0)
    recs = data.corpus.records[:5]
    pooled = _pooled_queries(model, _variant_queries(recs))
    report = eval_crosslingual(pooled, recs, anchors)
    assert report.n_records == 5
    assert 0.0 <= report.exact_match_rate <= 1.0
    with pytest.raises(ToyTrainError, match="14 pooled queries for 15 record language variants"):
        eval_crosslingual(pooled[:-1], recs, anchors)


# ---------------------------------------------------------------------------
# training loop


def _fast_config(**kw):
    ecr = kw.pop("ecr", EcrSettings())
    defaults = dict(
        learning_rate=0.05,
        epochs=2,
        batch_size=16,
        seed=0,
        holdout_fraction=0.25,
        ecr=ecr,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_train_step_reduces_loss_on_repetition():
    data, anchors = _tiny_setup(n_per_lang=8)
    model = init_model(data.layout.base_size, 16, anchors, 8, seed=1)
    cfg = _fast_config()
    opt = AdamW(lr=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2,
                eps=cfg.eps, weight_decay=cfg.weight_decay)
    batch = make_samples(data)[:8]
    first = train_step(model, batch, None, cfg, opt)
    losses = [train_step(model, batch, None, cfg, opt) for _ in range(30)]
    assert losses[-1] < first
    with pytest.raises(ToyTrainError, match="empty batch"):
        train_step(model, [], None, cfg, opt)


def test_train_step_takes_the_gradient_norm_only_to_clip(monkeypatch):
    # with clipping off nothing reads the norm, so the step does not compute it
    import ecr.toytrain as toytrain

    calls = []
    monkeypatch.setattr(
        toytrain, "clip_gradients", lambda grads, cap: calls.append(cap) or clip_gradients(grads, cap)
    )
    data, anchors = _tiny_setup(n_per_lang=8)
    batch = make_samples(data)[:8]
    for cap in (0.0, 0.5):
        model = init_model(data.layout.base_size, 16, anchors, 8, seed=1)
        train_step(model, batch, None, _fast_config(grad_clip=cap), AdamW(lr=0.05))
    assert calls == [0.5]


def test_run_single_arm_report_shape():
    data, anchors = _tiny_setup(n_per_lang=8)
    cfg = _fast_config()
    model, report = run_single_arm(data, anchors, cfg)
    assert report.arm == "baseline"
    # one loss entry per optimizer step, diagnostics once per epoch
    n_batches = -(-report.n_train // cfg.batch_size)
    assert len(report.loss_curve) == cfg.epochs * n_batches
    assert len(report.nll_per_language) == cfg.epochs
    assert len(report.geometry) == cfg.epochs
    assert len(report.purity) == cfg.epochs
    assert len(report.consistency) == cfg.epochs
    assert report.diverged is False
    assert report.divergence_step is None
    assert report.anchor_checksum_before == report.anchor_checksum_after
    assert report.final_task_accuracy is not None
    payload = json.loads(report.to_json())
    assert payload["arm"] == "baseline"


def test_training_deterministic_bit_identical():
    data, anchors = _tiny_setup(n_per_lang=8)
    cfg = _fast_config(ecr=EcrSettings(enabled=True, n_bins=8))
    m1, r1 = run_single_arm(data, anchors, cfg)
    m2, r2 = run_single_arm(data, anchors, cfg)
    assert np.array_equal(m1.emb, m2.emb)
    assert np.array_equal(m1.out, m2.out)
    assert r1.to_json() == r2.to_json()


def test_training_seed_changes_outcome():
    data, anchors = _tiny_setup(n_per_lang=8)
    m1, _ = run_single_arm(data, anchors, _fast_config(seed=0))
    m2, _ = run_single_arm(data, anchors, _fast_config(seed=1))
    assert not np.array_equal(m1.emb, m2.emb)


def test_divergence_recorded_not_raised():
    data, anchors = _tiny_setup(n_per_lang=8)
    cfg = _fast_config(
        learning_rate=1e7, epochs=10, divergence_patience=3
    )
    model, report = run_single_arm(data, anchors, cfg)
    assert report.diverged is True
    assert report.divergence_step == len(report.loss_curve)
    n_batches = -(-report.n_train // cfg.batch_size)
    assert len(report.loss_curve) < cfg.epochs * n_batches  # stopped early
    assert np.isfinite(report.loss_curve[0])
    assert report.final_task_accuracy is None


@pytest.mark.parametrize("learning_rate", [1e8, 1e300])
@pytest.mark.parametrize("enabled", [False, True])
def test_divergence_before_patience_is_recorded_not_raised(learning_rate, enabled):
    # the parameters go non-finite while every loss stays below the
    # threshold, so the pooled queries, not the loss, reveal the divergence
    data = make_synthetic_corpus(seed=0, n_per_lang=10)
    anchors = build_toy_anchors(data, seed=0)
    for batch_size in (32, 4):
        cfg = TrainConfig(
            epochs=40, batch_size=batch_size, learning_rate=learning_rate,
            divergence_threshold=np.finfo(np.float64).max, ecr=EcrSettings(enabled=enabled),
        )
        with np.errstate(all="ignore"):
            _, report = run_single_arm(data, anchors, cfg)
        assert report.diverged is True
        assert report.divergence_step == len(report.loss_curve) > 0
        epochs = len(report.nll_per_language)
        assert epochs < cfg.epochs
        assert len(report.geometry) == len(report.purity) == len(report.consistency) == epochs
        assert report.final_task_accuracy is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("batch_size", 0), ("batch_size", -3), ("epochs", -1), ("divergence_patience", 0),
        ("seed", -1),
    ],
)
def test_train_config_rejects_values_that_train_wrongly(field, value):
    with pytest.raises(ToyTrainError, match=f"{field} must be at least"):
        TrainConfig(**{field: value})
    with pytest.raises(ToyTrainError, match=f"{field} must be at least"):
        dataclasses.replace(TrainConfig(), **{field: value})
    assert TrainConfig(epochs=0).epochs == 0


@pytest.mark.parametrize("learning_rate", [-1.0, 0.0, float("nan"), float("inf")])
def test_train_config_rejects_learning_rate_that_cannot_descend(learning_rate):
    # -1.0 would run gradient ascent and report diverged=False
    with pytest.raises(ToyTrainError, match="learning_rate must be finite and positive"):
        TrainConfig(learning_rate=learning_rate)
    with pytest.raises(ToyTrainError, match="learning_rate must be finite and positive"):
        dataclasses.replace(TrainConfig(), learning_rate=learning_rate)


@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("beta1", -0.1, "in [0, 1)"),
        ("beta1", 2.0, "in [0, 1)"),
        ("beta2", 1.0, "in [0, 1)"),
        ("beta2", float("nan"), "in [0, 1)"),
        ("eps", 0.0, "finite and positive"),
        ("eps", -1e-8, "finite and positive"),
        ("weight_decay", -1.0, "finite and non-negative"),
        ("weight_decay", float("inf"), "finite and non-negative"),
        ("grad_clip", float("nan"), "finite"),
        ("grad_clip", float("inf"), "finite"),
        ("divergence_threshold", float("nan"), "finite"),
        ("divergence_threshold", float("inf"), "finite"),
        ("holdout_fraction", 0.0, "in (0, 1)"),
        ("holdout_fraction", 1.0, "in (0, 1)"),
    ],
)
def test_train_config_rejects_optimiser_settings_that_train_wrongly(field, value, rule):
    # each trained to a plausible report, or to diverged=True, before
    message = re.escape(f"{field} must be {rule}, got {value}")
    with pytest.raises(ToyTrainError, match=message):
        TrainConfig(**{field: value})
    with pytest.raises(ToyTrainError, match=message):
        dataclasses.replace(TrainConfig(), **{field: value})


def test_train_config_accepts_the_edges_of_each_range():
    TrainConfig(beta1=0.0, beta2=0.0, weight_decay=0.0, grad_clip=-1.0, holdout_fraction=0.01)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "bogus"}, "unknown ECR mode 'bogus'"),
        ({"enabled": True, "mode": "topk"}, "unknown ECR mode 'topk'"),
        ({"scope": "nope"}, "unknown ECR top-k scope 'nope'"),
        ({"k": 0}, "ECR k must be at least 1, got 0"),
        ({"k": -3}, "ECR k must be at least 1, got -3"),
        ({"n_bins": 1}, "ECR n_bins must be at least 2, got 1"),
    ],
)
def test_ecr_settings_reject_values_the_codec_cannot_take(kwargs, message):
    # disabled settings are checked too: the report's config records them
    with pytest.raises(ToyTrainError, match=message):
        EcrSettings(**kwargs)
    with pytest.raises(ToyTrainError, match=message):
        dataclasses.replace(EcrSettings(), **kwargs)
    EcrSettings(mode="retrieval", scope="all", k=1, n_bins=2)


@pytest.mark.parametrize("factors", [("T", "X"), ("T", "L")])
def test_run_training_rejects_factors_the_anchors_do_not_hold(factors):
    data, anchors = _tiny_setup()
    assert anchors.factors == ("T", "L", "E", "I")
    cfg = _fast_config(ecr=EcrSettings(enabled=True, factors=factors))
    with pytest.raises(ToyTrainError, match="are not the conditioning anchors' factors"):
        run_single_arm(data, anchors, cfg)
    # the baseline arm is not conditioned, so its factors are not read
    run_single_arm(data, anchors, dataclasses.replace(cfg, ecr=EcrSettings(factors=factors)))
    # the same factors in another order condition as the canonical order does
    reordered = _fast_config(ecr=EcrSettings(enabled=True, factors=("I", "E", "L", "T")))
    canonical = _fast_config(ecr=EcrSettings(enabled=True))
    _, got = run_single_arm(data, anchors, reordered)
    _, want = run_single_arm(data, anchors, canonical)
    assert got.loss_curve == want.loss_curve


def test_freeze_prefix_decouples_prefixes_from_updates():
    data, anchors = _tiny_setup(n_per_lang=8)
    frozen_cfg = _fast_config(
        ecr=EcrSettings(enabled=True, n_bins=8, freeze_prefix=True)
    )
    live_cfg = _fast_config(ecr=EcrSettings(enabled=True, n_bins=8))
    mf, rf = run_single_arm(data, anchors, frozen_cfg)
    ml, rl = run_single_arm(data, anchors, live_cfg)
    assert rf.diverged is False and rl.diverged is False
    # both condition, but prefix recomputation feeds different sequences
    assert not np.array_equal(mf.emb, ml.emb)


def _entry_points(model, samples, anchors, settings, frozen=None):
    """train_step, nll_eval and task_accuracy over the samples, as calls."""
    cfg = _fast_config(ecr=settings)
    opt = AdamW(lr=cfg.learning_rate)
    return {
        "train_step": lambda: train_step(model, samples, anchors, cfg, opt, frozen),
        "nll_eval": lambda: nll_eval(model, samples, anchors, settings, frozen),
        "task_accuracy": lambda: task_accuracy(model, samples, anchors, settings, frozen),
    }


def test_conditioning_without_anchors_raises_toytrain_error():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, anchors.d, anchors, 8, seed=0)
    samples = make_samples(data)[:4]
    settings = EcrSettings(enabled=True, n_bins=8)
    frozen = _prefixes(model, samples, anchors, settings)
    for given in (None, frozen):
        for call in _entry_points(model, samples, None, settings, given).values():
            with pytest.raises(ToyTrainError, match="no anchors were given"):
                call()


def test_frozen_prefixes_must_be_one_row_of_control_ids_per_sample():
    data, anchors = _tiny_setup()
    model = init_model(data.layout.base_size, anchors.d, anchors, 8, seed=0)
    samples = make_samples(data)[:4]
    settings = EcrSettings(enabled=True, n_bins=8)
    ids = _prefixes(model, samples, anchors, settings)
    cases = [
        (ids[:3], r"frozen prefixes int64\(3, 12\): not one per sample"),
        (np.vstack([ids, ids[:1]]), r"int64\(5, 12\)"),
        (ids[0], r"int64\(12,\)"),
        (ids[:, :, None], r"int64\(4, 12, 1\)"),
        (ids.astype(np.float64), r"float64\(4, 12\)"),
    ]
    for bad in (model.total_vocab, model.base_size - 1, -1):
        wrong = ids.copy()
        wrong[2, 3] = bad
        cases.append((wrong, "outside the control block"))
    for frozen, message in cases:
        for call in _entry_points(model, samples, anchors, settings, frozen).values():
            with pytest.raises(ToyTrainError, match=message):
                call()


def test_frozen_prefix_rows_condition_like_live_prefixes():
    # ids frozen at the current parameters give the live step bit for bit,
    # so each row is read as its own sample's prefix
    data, anchors = _tiny_setup(n_per_lang=8)
    settings = EcrSettings(enabled=True, n_bins=5, mode="retrieval", k=2)
    samples = _mixed_length_samples()
    outcomes = []
    for freeze in (False, True):
        model = init_model(data.layout.base_size, anchors.d, anchors, 5, seed=3)
        frozen = _prefixes(model, samples, anchors, settings) if freeze else None
        if freeze:
            assert frozen.shape == (len(samples), 8)  # two of each factor's three anchors
        calls = _entry_points(model, samples, anchors, settings, frozen)
        outcomes.append([calls[name]() for name in ("nll_eval", "task_accuracy", "train_step")])
        outcomes[-1] += [model.emb, model.out]
    live, frozen = outcomes
    assert live[:3] == frozen[:3]
    assert np.array_equal(live[3], frozen[3]) and np.array_equal(live[4], frozen[4])


def test_anchors_never_move_during_training():
    data, anchors = _tiny_setup(n_per_lang=8)
    before = anchors.checksum(fresh=True)
    cfg = _fast_config(ecr=EcrSettings(enabled=True, n_bins=8))
    _, report = run_single_arm(data, anchors, cfg)
    assert anchors.checksum(fresh=True) == before
    assert report.anchor_checksum_before == before
    assert report.anchor_checksum_after == before


# ---------------------------------------------------------------------------
# paired runs and ablation


def test_run_experiment_pairs_and_validates():
    data, anchors = _tiny_setup(n_per_lang=8)
    out = run_experiment(data, anchors, _fast_config(ecr=EcrSettings(n_bins=8)))
    assert out.baseline.arm == "baseline"
    assert out.ecr.arm == "ecr"
    assert [row["arm"] for row in out.table] == ["baseline", "ecr"]
    assert out.baseline.n_train == out.ecr.n_train
    d = out.to_dict()
    assert set(d) == {"baseline", "ecr", "table"}


@pytest.mark.parametrize("factors", [("T", "X"), ("T", "L")])
def test_run_experiment_rejects_factors_the_anchors_do_not_hold(factors):
    # the ecr arm conditions on the anchors as given, never on a subset of them
    data, anchors = _tiny_setup()
    cfg = _fast_config(ecr=EcrSettings(factors=factors))
    with pytest.raises(ToyTrainError, match="are not the conditioning anchors' factors"):
        run_experiment(data, anchors, cfg)


def test_subset_anchors_preserves_order():
    data, anchors = _tiny_setup()
    sub = subset_anchors(anchors, ("I", "T"))
    assert sub.factors == ("T", "I")  # canonical order kept
    assert sub.d == anchors.d
    with pytest.raises(ToyTrainError, match="empty factor subset"):
        subset_anchors(anchors, ("X",))


def test_run_ablation_rows():
    data, anchors = _tiny_setup(n_per_lang=6)
    cfg = _fast_config(epochs=1)
    rows = run_ablation(data, anchors, cfg)
    assert [row["arm"] for row in rows] == ["none", "L", "E", "I", "L+E+I"]
    assert rows[0]["factors"] == []
    assert rows[4]["factors"] == ["L", "E", "I"]
    for row in rows:
        assert {"arm", "nll", "spread", "consistency", "diverged"} <= set(row)
        assert np.isfinite(row["nll"])


def test_summary_row_and_table_rendering():
    data, anchors = _tiny_setup(n_per_lang=6)
    _, report = run_single_arm(data, anchors, _fast_config(epochs=1))
    row = summary_row(report.to_dict())
    assert row["arm"] == "baseline"
    assert row["nll"] == pytest.approx(
        np.mean(list(report.nll_per_language[-1].values()))
    )
    text = render_table([row], ["arm", "nll", "diverged"])
    lines = text.splitlines()
    assert "arm" in lines[0]
    assert "baseline" in text
    assert f"{row['nll']:.4f}" in text


@given(
    rows=st.lists(st.lists(st.integers(0, 2**40), max_size=6).map(tuple), min_size=1, max_size=8),
    fill=st.integers(0, 50),
)
def test_pad_equals_rows_extended_one_by_one(rows, fill):
    # the reference: each row extended with fill to the longest, then one np.array
    width = max(map(len, rows))
    want = np.array([r + (fill,) * (width - len(r)) for r in rows], dtype=np.int64)
    got = _pad(rows, fill)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
