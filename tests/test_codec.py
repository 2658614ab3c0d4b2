"""Control-token codec: projection, quantization, rendering, prefixes."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_corpus, embeddings_for, other_layouts
from ecr.anchors import AnchorSet, FactorGroup, build_anchor_set
from ecr.codec import (
    CodecError,
    ControlToken,
    _bins,
    _cosines,
    _thresholds,
    _token_table,
    encode,
    encode_batch,
    parse_token,
    project_batch,
    quantize_value,
    rank_anchors,
    token_vocabulary,
)
from ecr.corpus import _rows_over_norms, normalize_rows


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


def _bins_by_value(values, n_bins):
    """The reference: quantize_value of each entry clipped to [-1, 1]."""
    return [quantize_value(min(max(float(c), -1.0), 1.0), n_bins) for c in values]


@pytest.mark.parametrize("n_bins", [*range(2, 65), 1000])
def test_threshold_search_equals_quantize_value(n_bins):
    t = _thresholds(n_bins)
    assert t.shape == (n_bins - 1,) and np.all(np.diff(t) > 0)
    one_past = [np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)]
    values = np.concatenate([
        t, np.nextafter(t, -2.0), np.nextafter(t, 2.0),
        [1.0, -1.0, *one_past, 0.0, -0.0],
        np.linspace(-1.0, 1.0, 2049),
    ])
    got = _bins(values, t)
    assert got.tolist() == _bins_by_value(values, n_bins)
    # each threshold is the least value of its bin
    assert _bins(t, t).tolist() == list(range(1, n_bins))
    assert _bins(np.nextafter(t, -2.0), t).tolist() == list(range(n_bins - 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    total_k=st.integers(1, 12),
    n_bins=st.integers(2, 64),
)
def test_bins_of_cosine_blocks_equal_quantize_value(seed, n, total_k, n_bins):
    # unclipped cosines, some rounded past +-1 where a row repeats an anchor
    rng = np.random.default_rng(seed)
    unit = _rows_over_norms(rng.normal(size=(total_k, 6)))
    H = rng.normal(size=(n, 6))
    H[: min(n, total_k)] = unit[: min(n, total_k)] * rng.choice([-3.0, 0.5, 7.0])
    values = _cosines(H, unit)
    got = _bins(values, _thresholds(n_bins))
    assert got.shape == (n, total_k)
    assert got.ravel().tolist() == _bins_by_value(values.ravel(), n_bins)


# ---------------------------------------------------------------------------
# projection


def test_projection_matches_scalar_loop_oracle():
    anchors = _anchor_set(("T", "L", "E"), d=8, seed=3)
    rng = np.random.default_rng(1)
    raw = np.vstack([g.centroids for g in anchors.groups])
    for trial in range(20):
        h = rng.normal(size=8)
        got = project_batch(h[None], anchors)[0]
        hn = h / np.linalg.norm(h)
        for i in range(raw.shape[0]):
            a = raw[i] / np.linalg.norm(raw[i])
            want = float(np.dot(hn, a))
            assert abs(got[i] - want) < 1e-9


def test_projection_scale_invariant():
    anchors = _anchor_set(("T", "L"), d=6, seed=5)
    rng = np.random.default_rng(2)
    h = rng.normal(size=6)
    base = project_batch(h[None], anchors)[0]
    for alpha in (0.5, 3.0, 10.0):
        scaled = project_batch(alpha * h[None], anchors)[0]
        assert np.max(np.abs(scaled - base)) < 1e-9


def test_projection_values_bounded():
    anchors = _anchor_set(("T", "L"), d=6)
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = project_batch(rng.normal(size=(1, 6)) * 100, anchors)[0]
        assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_projection_dimension_guard():
    anchors = _anchor_set(("T",), d=6)
    with pytest.raises(CodecError, match="dimension"):
        project_batch(np.ones((1, 5)), anchors)


def test_projection_zero_vector_rejected():
    anchors = _anchor_set(("T",), d=6)
    zero, one = np.zeros(6), np.ones(6)
    # alone, and on either side of a valid row in a batch
    for H in (zero[None], np.vstack([one, zero]), np.vstack([zero, one])):
        with pytest.raises(CodecError, match="^cannot normalize a zero vector$"):
            project_batch(H, anchors)


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
    affinity = project_batch(h[None], anchors)[0]
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
    values = project_batch(h[None], anchors)[0]
    assert [t.bin for t in prefix.tokens] == [quantize_value(float(c), n_bins) for c in values]


# ---------------------------------------------------------------------------
# batched encode and non-finite input


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_rejected(bad):
    anchors = _anchor_set(("T", "L"), d=6)
    h = np.ones(6)
    h[2] = bad
    rows = np.vstack([np.ones(6), h])
    # the same message alone and on either side of a valid row in a batch
    message = "^cannot normalize a vector with non-finite entries$"
    for H in (h[None], rows, rows[::-1]):
        with pytest.raises(CodecError, match=message):
            project_batch(H, anchors)
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


@settings(max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    n_rows=st.integers(2, 40),
    d=st.sampled_from([1, 2, 3, 6, 24, 768]),
    n_bins=st.sampled_from([2, 8, 16]),
    mode=st.sampled_from(["global", "retrieval"]),
    scope=st.sampled_from(["factor", "all"]),
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_encode_batch_rows_equal_single_encode(seed, n_rows, d, n_bins, mode, scope):
    # up to 40 rows, so a batch spans several of BLAS's 4-row blocks; a
    # single row takes the one-row kernels, a batch of two or more does not
    anchors = _anchor_set(("T", "L", "E"), d=d, seed=3)
    unit = anchors.stacked_unit()
    vocab = token_vocabulary(anchors, n_bins=n_bins, base_size=40)
    rng = np.random.default_rng(seed)
    scales = np.where(
        rng.random(n_rows) < 0.8,
        10.0 ** rng.uniform(-3, 3, size=n_rows),
        rng.choice([1e-200, 1e200], size=n_rows),
    )
    H = rng.normal(size=(n_rows, d)) * scales[:, None]
    k = 2 if mode == "retrieval" else None
    batch = encode_batch(H, anchors, n_bins, mode=mode, k=k, scope=scope, vocab=vocab)
    values = project_batch(H, anchors)
    assert len(batch) == n_rows
    for layout, rows in enumerate([H, *other_layouts(H)]):
        # the same values in any memory layout give the same bits
        assert np.array_equal(project_batch(rows, anchors), values), layout
        again = encode_batch(rows, anchors, n_bins, mode=mode, k=k, scope=scope, vocab=vocab)
        assert again == batch, layout
        for i, prefix in enumerate(batch):
            one = encode(rows[i], anchors, n_bins, mode=mode, k=k, scope=scope, vocab=vocab)
            assert one == prefix, (layout, i)
            single = project_batch(rows[i : i + 1], anchors)[0]
            assert np.array_equal(single, values[i]), (layout, i)
    for i, prefix in enumerate(batch):
        # one matrix-vector product of the unit anchors and the unit row
        alone = unit @ normalize_rows(H[i][None])[0]
        assert np.array_equal(values[i], np.clip(alone, -1.0, 1.0))
        assert prefix.text == "".join(t.render() for t in prefix.tokens)
        for tok, tid in zip(prefix.tokens, prefix.token_ids):
            flat = _flat_index(anchors, tok)
            assert tok.bin == quantize_value(float(values[i, flat]), n_bins)
            assert tid == vocab.token_id(tok)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
def test_one_row_scale_extremes_warn_only_in_batches(scale):
    # corpus.normalize recovers from the overflow without a warning; a batch
    # of two or more recovers in normalize_rows, where numpy still warns
    anchors = _anchor_set(("T", "L", "E"), d=6, seed=9)
    h = np.random.default_rng(12).normal(size=6) * scale
    with warnings.catch_warnings(record=True) as one:
        warnings.simplefilter("always")
        single = project_batch(h[None], anchors)
    with warnings.catch_warnings(record=True) as two:
        warnings.simplefilter("always")
        pair = project_batch(np.vstack([h, h]), anchors)
    assert np.array_equal(single[0], pair[0]) and np.array_equal(pair[0], pair[1])
    assert one == []
    assert all(
        w.category is RuntimeWarning and "overflow" in str(w.message) for w in two
    )
    assert bool(two) == (scale > 1.0)


def test_token_tables_kept_apart_per_bin_count():
    anchors = _anchor_set(("T", "L"), d=6, seed=4)
    rng = np.random.default_rng(11)
    h = rng.normal(size=6)
    values = project_batch(h[None], anchors)[0]
    for n_bins in (4, 8, 4):
        for base_size in (0, 57, 0):
            # one table per bin count, its ids made per base size
            vocab = token_vocabulary(anchors, n_bins=n_bins, base_size=base_size)
            prefix = encode(h, anchors, n_bins, vocab=vocab)
            bins = [quantize_value(float(c), n_bins) for c in values]
            assert [t.bin for t in prefix.tokens] == bins
            assert list(prefix.token_ids) == [vocab.token_id(t) for t in prefix.tokens]
            assert min(prefix.token_ids) >= base_size


def test_vocab_layout_mismatch_rejected():
    anchors = _anchor_set(("T", "L"), d=6)
    other = _anchor_set(("T",), d=6)
    vocab = token_vocabulary(other, n_bins=4, base_size=10)
    with pytest.raises(CodecError, match="layout"):
        encode(np.ones(6), anchors, n_bins=4, vocab=vocab)


def test_cosines_rounded_past_one_take_the_edge_bins():
    # Bins come from the unclipped cosines.  An anchor against itself can
    # round past 1, and against its negation past -1; those must still get
    # the bins of the clipped values, in both modes.
    found = 0
    for seed in range(8):
        anchors = _anchor_set(("T", "L", "E", "I"), d=24, seed=seed)
        for flat, c in enumerate(np.vstack([g.centroids for g in anchors.groups])):
            pair = np.stack([c, -c]).astype(np.float64)
            raw = _cosines(pair, anchors.stacked_unit())[:, flat]
            if not (raw[0] > 1.0 and raw[1] < -1.0):
                continue
            found += 1
            clipped = project_batch(pair, anchors)[:, flat]
            assert clipped.tolist() == [1.0, -1.0]
            for n_bins in (2, 8, 16):
                for h, value, want in zip(pair, clipped, (n_bins - 1, 0)):
                    assert quantize_value(float(value), n_bins) == want
                    for mode, k, scope in (("global", None, "factor"),
                                           ("retrieval", anchors.total_k, "all")):
                        prefix = encode(h, anchors, n_bins, mode=mode, k=k, scope=scope)
                        assert prefix.tokens[flat].bin == want
                # the anchor ranks first for itself, ties broken as when clipped
                top = encode(pair[0], anchors, n_bins, mode="retrieval", k=1, scope="all")
                assert [_flat_index(anchors, t) for t in top.tokens] == [
                    int(np.argmax(project_batch(pair[:1], anchors)[0]))
                ]
                assert top.tokens[0].bin == n_bins - 1
    assert found > 0


def test_retrieval_ranks_cosines_rounded_past_one_as_clipped():
    # Anchors along one direction all have cosine 1 with it, but rounding
    # can put some past 1 by different ulps.  Ranked clipped, they tie, and
    # the tie goes to the lowest anchor index.
    rng = np.random.default_rng(21)
    found = 0
    for _ in range(400):
        a = rng.normal(size=24)
        anchors = AnchorSet(
            groups=(FactorGroup(factor="T", centroids=np.outer([3.0, 7.0, 0.3, 11.0], a)),), d=24
        )
        raw = _cosines(a[None], anchors.stacked_unit())[0]
        if raw[0] < 1.0 or np.argmax(raw) == 0:
            continue
        found += 1
        assert project_batch(a[None], anchors)[0, 0] == 1.0
        for scope in ("factor", "all"):
            prefix = encode(a, anchors, 8, mode="retrieval", k=1, scope=scope)
            assert [(t.anchor, t.bin) for t in prefix.tokens] == [(0, 7)]
    assert found > 0

def _by_hand(anchors, h, n_bins, base_size, flat):
    """The one-token prefix of anchor ``flat``, rendered from the token table."""
    bin_ = quantize_value(float(project_batch(h[None], anchors)[0, flat]), n_bins)
    table = _token_table(anchors, n_bins)
    j = flat * n_bins + bin_
    return (table.tokens[j],), (base_size + j,), table.texts[j]


def test_prefixes_of_one_token_render_as_tuples():
    # a prefix of one token still holds tuples of tokens and ids
    rng = np.random.default_rng(12)
    one = _anchor_set(("T",), d=6, seed=2, k=1, mode="kmeans")
    many = _anchor_set(("T", "L"), d=6, seed=2)
    for anchors, mode, k, scope in (
        (many, "retrieval", 1, "all"),
        (one, "global", None, "factor"),
        (one, "retrieval", 1, "factor"),
        (one, "retrieval", 1, "all"),
    ):
        vocab = token_vocabulary(anchors, n_bins=8, base_size=30)
        H = rng.normal(size=(4, 6))
        values = project_batch(H, anchors)
        batch = encode_batch(H, anchors, 8, mode=mode, k=k, scope=scope, vocab=vocab)
        for h, row, prefix in zip(H, values, batch):
            flat = int(np.argmax(row))
            tokens, ids, text = _by_hand(anchors, h, 8, 30, flat)
            assert len(prefix) == 1
            assert prefix.tokens == tokens and prefix.token_ids == ids and prefix.text == text
            assert prefix.text == tokens[0].render()
            assert ids == (vocab.token_id(tokens[0]),)
            assert prefix == encode(h, anchors, 8, mode=mode, k=k, scope=scope, vocab=vocab)
            bare = encode(h, anchors, 8, mode=mode, k=k, scope=scope)
            assert (bare.tokens, bare.token_ids, bare.text) == (tokens, (), text)
