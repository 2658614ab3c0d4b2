"""Control-token codec: projection, quantization, rendering, prefixes."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_corpus, embeddings_for
from ecr.anchors import build_anchor_set
from ecr.codec import (
    CodecError,
    ControlToken,
    encode,
    encode_batch,
    parse_token,
    project,
    project_batch,
    quantize_value,
    rank_anchors,
    token_vocabulary,
)


def _anchor_set(factors=("T", "L"), d=6, seed=0, k=None, mode="label"):
    corpus = build_corpus(
        [
            {"dialog_id": "d0", "task": "booking", "language": "en", "emotion": "neutral", "intent": "reserve"},
            {"dialog_id": "d1", "task": "support", "language": "zh", "emotion": "angry", "intent": "complain"},
            {"dialog_id": "d2", "task": "booking", "language": "hi", "emotion": "happy", "intent": "reserve"},
            {"dialog_id": "d3", "task": "billing", "language": "en", "emotion": "neutral", "intent": "inquire"},
        ]
    )
    m = embeddings_for([r.dialog_id for r in corpus.records], d=d, seed=seed)
    return build_anchor_set(m, corpus, factors, mode=mode, k=k, seed=seed)


def _flat_index(anchors, token):
    """Row of ``token``'s anchor in the stacked anchor matrix."""
    pos = anchors.factors.index(token.factor)
    return sum(anchors.group_sizes[:pos]) + token.anchor


# ---------------------------------------------------------------------------
# quantizer


def test_midpoint_lands_in_center_bin():
    assert quantize_value(0.0, 8) == 4


def test_quantizer_rejects_degenerate_bin_counts():
    for bad in (1, 0, -3):
        with pytest.raises(CodecError):
            quantize_value(0.0, bad)


def test_quantizer_edges_fold_into_range():
    for n_bins in range(2, 17):
        assert quantize_value(-1.0, n_bins) == 0
        assert quantize_value(1.0, n_bins) == n_bins - 1


def test_quantizer_matches_formula_exhaustively():
    # dense sweep, every bin count the codec promises to support
    grid = np.linspace(-1.0, 1.0, 4001)
    for n_bins in range(2, 17):
        for c in grid:
            expected = min(max(int(math.floor((c + 1.0) / 2.0 * n_bins)), 0), n_bins - 1)
            assert quantize_value(float(c), n_bins) == expected


def test_quantizer_covers_every_bin():
    for n_bins in range(2, 17):
        seen = {quantize_value(c, n_bins) for c in np.linspace(-1, 1, 2048)}
        assert seen == set(range(n_bins))


@settings(max_examples=200)
@given(
    c=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    n_bins=st.integers(2, 16),
)
def test_quantizer_monotone_property(c, n_bins):
    b = quantize_value(c, n_bins)
    assert 0 <= b < n_bins
    # nudging the affinity upward never decreases the bin
    c_up = min(c + 1e-3, 1.0)
    assert quantize_value(c_up, n_bins) >= b


# ---------------------------------------------------------------------------
# projection


def test_projection_matches_scalar_loop_oracle():
    anchors = _anchor_set(("T", "L", "E"), d=8, seed=3)
    rng = np.random.default_rng(1)
    raw = np.vstack([g.centroids for g in anchors.groups])
    for trial in range(20):
        h = rng.normal(size=8)
        got = project(h, anchors).values
        hn = h / np.linalg.norm(h)
        for i in range(raw.shape[0]):
            a = raw[i] / np.linalg.norm(raw[i])
            want = float(np.dot(hn, a))
            assert abs(got[i] - want) < 1e-9


def test_projection_scale_invariant():
    anchors = _anchor_set(("T", "L"), d=6, seed=5)
    rng = np.random.default_rng(2)
    h = rng.normal(size=6)
    base = project(h, anchors).values
    for alpha in (0.5, 3.0, 10.0):
        scaled = project(alpha * h, anchors).values
        assert np.max(np.abs(scaled - base)) < 1e-9


def test_projection_values_bounded():
    anchors = _anchor_set(("T", "L"), d=6)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = project(rng.normal(size=6) * 100, anchors).values
        assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_projection_dimension_guard():
    anchors = _anchor_set(("T",), d=6)
    with pytest.raises(CodecError, match="dimension"):
        project(np.ones(5), anchors)


def test_projection_zero_vector_rejected():
    anchors = _anchor_set(("T",), d=6)
    with pytest.raises(ValueError):
        project(np.zeros(6), anchors)


# ---------------------------------------------------------------------------
# token text form


def test_token_render_shape():
    assert ControlToken("T", 3, 7).render() == "<T3:7>"
    assert ControlToken("L", 0, 0).render() == "<L0:0>"


def test_parse_render_round_trip():
    for factor in "TLEIP":
        for anchor in (0, 1, 12, 130):
            for b in (0, 5, 15):
                tok = ControlToken(factor, anchor, b)
                assert parse_token(tok.render()) == tok


def test_parse_rejects_malformed():
    for bad in ("<X0:1>", "T0:1", "<T0>", "<T:1>", "<T0:1", "<t0:1>", "<T-1:2>", ""):
        with pytest.raises(CodecError):
            parse_token(bad)


# ---------------------------------------------------------------------------
# rendering


def test_emit_canonical_order():
    anchors = _anchor_set(("T", "L"), d=6)
    prefix = encode(np.ones(6), anchors, n_bins=4)
    factors = [t.factor for t in prefix.tokens]
    assert factors == sorted(factors, key=lambda f: "TLEIP".index(f))
    # within a factor, anchors ascend
    t_anchors = [t.anchor for t in prefix.tokens if t.factor == "T"]
    assert t_anchors == sorted(t_anchors)


# ---------------------------------------------------------------------------
# top-k selection


def _topk(h, anchors, k):
    return rank_anchors(project_batch(np.asarray(h)[None, :], anchors), k)[0].tolist()


def test_topk_returns_descending_affinity():
    anchors = _anchor_set(("T", "L"), d=6, seed=9)
    rng = np.random.default_rng(5)
    h = rng.normal(size=6)
    affinity = project(h, anchors).values
    got = _topk(h, anchors, 3)
    assert len(got) == 3
    vals = affinity[got]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert got[0] == int(np.argmax(affinity))


def test_topk_bounds_checked():
    anchors = _anchor_set(("T",), d=6)
    with pytest.raises(CodecError):
        _topk(np.ones(6), anchors, 0)
    with pytest.raises(CodecError):
        _topk(np.ones(6), anchors, anchors.total_k + 1)


def test_topk_full_k_is_permutation():
    anchors = _anchor_set(("T", "L"), d=6, seed=11)
    got = _topk(np.arange(1.0, 7.0), anchors, anchors.total_k)
    assert sorted(got) == list(range(anchors.total_k))


# ---------------------------------------------------------------------------
# encode modes


def test_encode_global_emits_all_anchors():
    anchors = _anchor_set(("T", "L"), d=6)
    prefix = encode(np.ones(6), anchors, n_bins=8)
    assert len(prefix) == anchors.total_k


def test_encode_retrieval_factor_scope():
    anchors = _anchor_set(("T", "L"), d=6, seed=13)
    prefix = encode(np.ones(6), anchors, n_bins=8, mode="retrieval", k=1)
    # one winner per factor
    assert len(prefix) == len(anchors.factors)
    assert [t.factor for t in prefix.tokens] == ["T", "L"]


@pytest.mark.parametrize("k", [0, -1])
def test_encode_retrieval_k_below_one_rejected(k):
    anchors = _anchor_set(("T", "L"), d=6, seed=13)
    for scope in ("factor", "all"):
        with pytest.raises(CodecError, match="k must"):
            encode(np.ones(6), anchors, n_bins=8, mode="retrieval", k=k, scope=scope)


def test_encode_retrieval_all_scope():
    anchors = _anchor_set(("T", "L"), d=6, seed=13)
    rng = np.random.default_rng(6)
    h = rng.normal(size=6)
    prefix = encode(h, anchors, n_bins=8, mode="retrieval", k=2, scope="all")
    assert len(prefix) == 2
    flat = _topk(h, anchors, 2)
    got_flat = sorted(_flat_index(anchors, t) for t in prefix.tokens)
    assert got_flat == sorted(flat)


def test_encode_retrieval_tokens_match_global_bins():
    # retrieval mode must reuse the same quantized bins as global mode
    anchors = _anchor_set(("T", "L"), d=6, seed=15)
    rng = np.random.default_rng(7)
    h = rng.normal(size=6)
    full = {(t.factor, t.anchor): t.bin for t in encode(h, anchors, n_bins=8).tokens}
    sparse = encode(h, anchors, n_bins=8, mode="retrieval", k=1).tokens
    for t in sparse:
        assert full[(t.factor, t.anchor)] == t.bin


def test_encode_rejects_bad_mode_and_scope():
    anchors = _anchor_set(("T",), d=6)
    with pytest.raises(CodecError, match="mode"):
        encode(np.ones(6), anchors, n_bins=4, mode="sparse")
    with pytest.raises(CodecError, match="scope"):
        encode(np.ones(6), anchors, n_bins=4, mode="retrieval", scope="group")


def test_encode_deterministic_text():
    anchors = _anchor_set(("T", "L"), d=6, seed=17)
    rng = np.random.default_rng(8)
    h = rng.normal(size=6)
    assert encode(h, anchors, n_bins=8).text == encode(h, anchors, n_bins=8).text


# ---------------------------------------------------------------------------
# vocabulary and conditioned input


def test_vocabulary_round_trip_every_token():
    anchors = _anchor_set(("T", "L"), d=6)
    vocab = token_vocabulary(anchors, n_bins=4, base_size=100)
    seen = set()
    for factor, size in zip(anchors.factors, anchors.group_sizes):
        for a in range(size):
            for b in range(4):
                tok = ControlToken(factor, a, b)
                tid = vocab.token_id(tok)
                assert tid >= 100
                assert vocab.token_of(tid) == tok
                seen.add(tid)
    assert len(seen) == anchors.total_k * 4
    # the control block is contiguous right after the base vocabulary
    assert vocab.size == anchors.total_k * 4
    assert seen == set(range(100, 100 + vocab.size))


def test_vocabulary_rejects_foreign_ids():
    anchors = _anchor_set(("T",), d=6)
    vocab = token_vocabulary(anchors, n_bins=4, base_size=10)
    with pytest.raises(CodecError):
        vocab.token_of(3)
    with pytest.raises(CodecError):
        vocab.token_of(vocab.base_size + vocab.size)
    with pytest.raises(CodecError):
        vocab.token_id(ControlToken("L", 0, 0))


def test_vocab_bin_mismatch_rejected():
    anchors = _anchor_set(("T",), d=6)
    vocab = token_vocabulary(anchors, n_bins=4, base_size=10)
    with pytest.raises(CodecError, match="n_bins"):
        encode(np.ones(6), anchors, n_bins=8, vocab=vocab)


@settings(max_examples=50)
@given(seed=st.integers(0, 10_000), n_bins=st.integers(2, 16))
def test_encode_round_trip_property(seed, n_bins):
    anchors = _anchor_set(("T", "L"), d=6, seed=3)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=6)
    vocab = token_vocabulary(anchors, n_bins=n_bins, base_size=40)
    prefix = encode(h, anchors, n_bins, vocab=vocab)
    # the text and the ids each give back the tokens, whose bins are the
    # quantized affinities
    assert [parse_token(t) for t in re.findall(r"<[^>]*>", prefix.text)] == list(prefix.tokens)
    assert [vocab.token_of(tid) for tid in prefix.token_ids] == list(prefix.tokens)
    values = project(h, anchors).values
    assert [t.bin for t in prefix.tokens] == [quantize_value(float(c), n_bins) for c in values]


# ---------------------------------------------------------------------------
# batched encode and non-finite input


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(bad):
    anchors = _anchor_set(("T", "L"), d=6)
    h = np.ones(6)
    h[2] = bad
    rows = np.vstack([np.ones(6), h])
    with pytest.raises(CodecError, match="non-finite"):
        project(h, anchors)
    with pytest.raises(CodecError, match="non-finite"):
        encode(h, anchors, n_bins=8)
    with pytest.raises(CodecError, match="non-finite"):
        encode_batch(rows, anchors, n_bins=8)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_encode_scale_extremes_match_unscaled_bins():
    anchors = _anchor_set(("T", "L", "E"), d=6, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        h = rng.normal(size=6)
        want = [t.bin for t in encode(h, anchors, n_bins=8).tokens]
        for scale in (1e200, 1e-200, 1e300, 1e-300):
            got = [t.bin for t in encode(h * scale, anchors, n_bins=8).tokens]
            assert got == want


def test_encode_batch_rejects_non_matrix_input():
    anchors = _anchor_set(("T",), d=6)
    with pytest.raises(CodecError, match="2-d"):
        encode_batch(np.ones(6), anchors, n_bins=4)
    with pytest.raises(CodecError, match="dimension"):
        encode_batch(np.ones((2, 5)), anchors, n_bins=4)
    assert encode_batch(np.ones((0, 6)), anchors, n_bins=4) == []


@settings(max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(1, 6),
    n_bins=st.sampled_from([2, 8, 16]),
    mode=st.sampled_from(["global", "retrieval"]),
    scope=st.sampled_from(["factor", "all"]),
)
def test_encode_batch_rows_equal_single_encode(seed, n_rows, n_bins, mode, scope):
    anchors = _anchor_set(("T", "L", "E"), d=6, seed=3)
    vocab = token_vocabulary(anchors, n_bins=n_bins, base_size=40)
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(n_rows, 6)) * rng.choice([1e-3, 1.0, 1e3], size=(n_rows, 1))
    k = 2 if mode == "retrieval" else None
    batch = encode_batch(H, anchors, n_bins, mode=mode, k=k, scope=scope, vocab=vocab)
    values = project_batch(H, anchors)
    assert len(batch) == n_rows
    for i, prefix in enumerate(batch):
        assert prefix == encode(H[i], anchors, n_bins, mode=mode, k=k, scope=scope, vocab=vocab)
        assert np.array_equal(values[i], project(H[i], anchors).values)
        assert prefix.text == "".join(t.render() for t in prefix.tokens)
        for tok, tid in zip(prefix.tokens, prefix.token_ids):
            flat = _flat_index(anchors, tok)
            assert tok.bin == quantize_value(float(values[i, flat]), n_bins)
            assert tid == vocab.token_id(tok)


def test_token_tables_kept_apart_per_bin_count():
    anchors = _anchor_set(("T", "L"), d=6, seed=4)
    rng = np.random.default_rng(11)
    h = rng.normal(size=6)
    values = project(h, anchors).values
    for n_bins in (4, 8, 4):
        vocab = token_vocabulary(anchors, n_bins=n_bins, base_size=0)
        prefix = encode(h, anchors, n_bins, vocab=vocab)
        assert [t.bin for t in prefix.tokens] == [quantize_value(float(c), n_bins) for c in values]
        assert list(prefix.token_ids) == [vocab.token_id(t) for t in prefix.tokens]


def test_vocab_layout_mismatch_rejected():
    anchors = _anchor_set(("T", "L"), d=6)
    other = _anchor_set(("T",), d=6)
    vocab = token_vocabulary(other, n_bins=4, base_size=10)
    with pytest.raises(CodecError, match="layout"):
        encode(np.ones(6), anchors, n_bins=4, vocab=vocab)
