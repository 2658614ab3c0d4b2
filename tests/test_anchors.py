"""Anchor derivation: clustering, label centroids, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_corpus, embeddings_for
from ecr.anchors import (
    AnchorError,
    AnchorSet,
    FactorGroup,
    Provenance,
    build_anchor_set,
    corpus_labels,
    kmeans,
    kmeans_fit,
    label_centroids,
    load_anchors,
    save_anchors,
)
from ecr.codec import encode, project_batch
from ecr.corpus import EmbeddingMatrix, _rows_over_norms


def _matrix(data, ids=None):
    data = np.asarray(data, dtype=np.float32)
    ids = ids or [f"r{i}" for i in range(data.shape[0])]
    return EmbeddingMatrix(data=data, ids=ids)


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_single_cluster_is_global_mean():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 5))
    group = kmeans(_matrix(pts), 1, seed=0)
    assert np.allclose(group.centroids[0], pts.mean(axis=0), atol=1e-6)


def test_kmeans_k_equals_n_zero_objective():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(8, 3))
    result = kmeans_fit(pts, 8, seed=3)
    assert result.objective[-1] < 1e-12
    # every point is its own centroid
    dists = np.linalg.norm(
        pts[:, None, :] - result.centroids[None, :, :], axis=2
    ).min(axis=1)
    assert float(dists.max()) < 1e-6


def test_kmeans_fit_scratch_stays_below_half_the_points():
    # no (n, d) temporary: the distances take O(n k) and a centroid
    # update gathers a bounded block of rows, where the first iteration
    # here has a cluster of half the points
    import tracemalloc

    points = np.random.default_rng(0).standard_normal((4000, 128))
    tracemalloc.start()
    try:
        kmeans_fit(points, 8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * points.nbytes


def test_kmeans_objective_non_increasing():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(60, 4))
    result = kmeans_fit(pts, 5, seed=11)
    objective = result.objective
    assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))


def test_kmeans_two_cloud_recovery():
    rng = np.random.default_rng(5)
    a = rng.normal(scale=0.1, size=(50, 4)) + np.array([5.0, 0, 0, 0])
    b = rng.normal(scale=0.1, size=(50, 4)) - np.array([5.0, 0, 0, 0])
    pts = np.vstack([a, b])
    result = kmeans_fit(pts, 2, seed=0)
    found = result.centroids[np.argsort(result.centroids[:, 0])]
    assert np.linalg.norm(found[0] - b.mean(axis=0)) < 0.05
    assert np.linalg.norm(found[1] - a.mean(axis=0)) < 0.05


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_non_finite_points_rejected(bad):
    pts = np.random.default_rng(4).normal(size=(50, 8))
    pts[9, 2] = bad
    with pytest.raises(AnchorError, match="NaN or infinite"):
        kmeans_fit(pts, 3, seed=0)


def test_kmeans_overflowing_points_rejected():
    # finite entries whose squared distances overflow
    pts = np.random.default_rng(4).normal(size=(50, 8))
    pts[9] *= 1e200
    with pytest.raises(AnchorError, match="overflow"):
        kmeans_fit(pts, 3, seed=0)


def test_kmeans_deterministic_under_seed():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(30, 4))
    r1 = kmeans_fit(pts, 4, seed=9)
    r2 = kmeans_fit(pts, 4, seed=9)
    assert np.array_equal(r1.centroids, r2.centroids)
    assert np.array_equal(r1.assignments, r2.assignments)


def test_kmeans_k_exceeds_n_rejected():
    with pytest.raises(AnchorError):
        kmeans_fit(np.zeros((3, 2)), 4, seed=0)


def test_kmeans_negative_seed_rejected():
    # numpy's generators take no negative seed; the fit says so in its own error
    with pytest.raises(AnchorError, match="seed must be non-negative, got -5"):
        kmeans_fit(np.random.default_rng(0).normal(size=(6, 2)), 2, seed=-5)


def test_kmeans_handles_duplicate_points():
    pts = np.ones((10, 3))
    result = kmeans_fit(pts, 2, seed=0)
    assert np.isfinite(result.centroids).all()
    assert result.objective[-1] < 1e-12


@settings(max_examples=25)
@given(
    n=st.integers(6, 30),
    k=st.integers(1, 5),
    d=st.integers(2, 6),
    seed=st.integers(0, 1000),
)
def test_kmeans_objective_monotone_property(n, k, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    result = kmeans_fit(pts, min(k, n), seed=seed)
    objective = result.objective
    assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))


# ---------------------------------------------------------------------------
# label centroids


def test_label_centroids_are_per_label_means():
    pts = np.array([[0.0, 0], [2, 0], [0, 4], [0, 6]], dtype=np.float32)
    group = label_centroids(_matrix(pts), ["a", "a", "b", "b"], "L")
    assert group.label_names == ("a", "b")
    assert np.allclose(group.centroids[0], [1, 0])
    assert np.allclose(group.centroids[1], [0, 5])


def test_label_centroids_sorted_name_order():
    pts = np.eye(3, dtype=np.float32) + 1.0
    group = label_centroids(_matrix(pts), ["zz", "mm", "aa"], "T")
    assert group.label_names == ("aa", "mm", "zz")
    assert np.allclose(group.centroids[0], pts[2])


def test_label_centroids_length_mismatch():
    with pytest.raises(AnchorError):
        label_centroids(_matrix(np.ones((3, 2))), ["a", "b"], "L")


def test_corpus_labels_maps_through_dialog_ids(tiny_corpus):
    m = embeddings_for(["d001", "d003:en"], d=4)
    assert corpus_labels(m, tiny_corpus, "T") == ["support", "support"]
    assert corpus_labels(m, tiny_corpus, "L") == ["zh", "en"]
    with pytest.raises(AnchorError):
        corpus_labels(m, tiny_corpus, "X")


# ---------------------------------------------------------------------------
# anchor sets


def _toy_anchor_set(seed=0):
    corpus = build_corpus(
        [
            {"dialog_id": "d0", "task": "booking", "language": "en"},
            {"dialog_id": "d1", "task": "support", "language": "zh"},
            {"dialog_id": "d2", "task": "booking", "language": "hi"},
            {"dialog_id": "d3", "task": "support", "language": "en"},
        ]
    )
    m = embeddings_for([r.dialog_id for r in corpus.records], d=5, seed=seed)
    return m, corpus


def test_build_anchor_set_label_mode():
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T", "L"), mode="label")
    assert anchors.factors == ("T", "L")
    t, lang = anchors.groups
    assert t.label_names == ("booking", "support")
    assert t.k == 2
    assert lang.k == 3  # en, hi, zh present


def test_build_anchor_set_canonical_order():
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("L", "T"), mode="label")
    assert anchors.factors == ("T", "L")


def test_build_anchor_set_kmeans_for_unlabeled():
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("P",), mode="auto", k=2, seed=1)
    assert anchors.factors == ("P",)
    assert anchors.groups[0].k == 2
    assert anchors.groups[0].provenance.method == "kmeans"
    # a k for a label-derived or an unselected factor is accepted and unused
    anchors = build_anchor_set(m, corpus, ("T", "P"), k={"T": 5, "P": 2, "E": 3})
    assert [(g.k, g.provenance.method) for g in anchors.groups] == [
        (2, "label_centroids"), (2, "kmeans"),
    ]


def test_build_anchor_set_requires_k_for_kmeans():
    m, corpus = _toy_anchor_set()
    with pytest.raises(AnchorError, match="k"):
        build_anchor_set(m, corpus, ("P",), mode="auto")


def test_build_anchor_set_rejects_unknown_factor():
    m, corpus = _toy_anchor_set()
    with pytest.raises(AnchorError, match="Q"):
        build_anchor_set(m, corpus, ("Q",))
    with pytest.raises(AnchorError, match=r"k given for unknown factor codes: \['X'\]"):
        build_anchor_set(m, corpus, ("P",), k={"P": 2, "X": 9})


def test_build_anchor_set_rejects_empty_selection():
    m, corpus = _toy_anchor_set()
    with pytest.raises(AnchorError):
        build_anchor_set(m, corpus, ())


def test_anchor_arrays_read_only():
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T",), mode="label")
    with pytest.raises(ValueError):
        anchors.groups[0].centroids[0, 0] = 9.9
    with pytest.raises(ValueError):
        anchors.stacked_unit()[0, 0] = 9.9


def test_unit_centroids_normalized():
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T", "L"), mode="label")
    norms = np.linalg.norm(anchors.stacked_unit(), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_zero_centroid_rejected():
    with pytest.raises(AnchorError, match="norm"):
        FactorGroup(
            factor="T",
            centroids=np.zeros((1, 3)),
            provenance=Provenance(method="label"),
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_scale_rows_encode_like_unscaled(tmp_path):
    # a row times 1e200 has a sum of squares that overflows, and one times
    # 1e-200 one that underflows to zero; both still point the same way
    rng = np.random.default_rng(21)
    cents = rng.normal(size=(3, 6))
    plain = AnchorSet(groups=(FactorGroup(factor="T", centroids=cents),), d=6)
    scaled = cents * np.array([[1e200], [1e-200], [1.0]])
    path = str(tmp_path / "scaled.bin")
    save_anchors(AnchorSet(groups=(FactorGroup(factor="T", centroids=scaled),), d=6), path)
    loaded = load_anchors(path)
    assert np.allclose(loaded.stacked_unit(), plain.stacked_unit(), rtol=0, atol=1e-15)
    for h in rng.normal(size=(50, 6)):
        pos = (project_batch(h[None], plain)[0] + 1.0) / 2.0 * 8
        if np.abs(pos - np.round(pos)).min() > 1e-3:  # away from every bin edge
            break
    else:
        pytest.fail("no probe away from the bin edges")
    assert encode(h, loaded, n_bins=8).text == encode(h, plain, n_bins=8).text


def test_group_offsets_and_stacking():
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T", "L", "E", "I"), mode="label")
    stacked = anchors.stacked_unit()
    assert stacked.shape == (anchors.total_k, anchors.d)
    # each factor block starts where the one before it ends
    offset = 0
    for g in anchors.groups:
        assert np.array_equal(stacked[offset : offset + g.k], _rows_over_norms(g.centroids))
        offset += g.k
    assert offset == anchors.total_k


def test_checksum_stable_and_fresh():
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T",), mode="label")
    c1 = anchors.checksum()
    c2 = anchors.checksum(fresh=True)
    assert c1 == c2
    assert len(c1) == 64


def test_save_load_round_trip(tmp_path):
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T", "L", "P"), mode="auto", k={"P": 2}, seed=4)
    path = str(tmp_path / "a.bin")
    save_anchors(anchors, path)
    loaded = load_anchors(path)
    assert loaded.factors == anchors.factors
    assert loaded.checksum() == anchors.checksum()
    for got, want in zip(loaded.groups, anchors.groups):
        assert np.array_equal(got.centroids, want.centroids)
        assert got.centroids.flags.aligned
        assert got.label_names == want.label_names


def test_load_anchors_dimension_guard(tmp_path):
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T",), mode="label")
    path = str(tmp_path / "a.bin")
    save_anchors(anchors, path)
    with pytest.raises(AnchorError, match="dimension"):
        load_anchors(path, expect_d=99)


def test_negative_seeds_rejected_in_provenance_and_builds():
    with pytest.raises(AnchorError, match="seed must be non-negative, got -5"):
        Provenance(method="kmeans", seed=-5)
    m, corpus = _toy_anchor_set()
    for factors, mode in ((("P",), "auto"), (("T",), "label")):
        with pytest.raises(AnchorError, match="seed must be non-negative, got -1"):
            build_anchor_set(m, corpus, factors, mode=mode, k=2, seed=-1)
    assert Provenance(method="label_centroids").seed is None


def test_load_anchors_seed_minus_one_is_none_and_below_rejected(tmp_path):
    m, corpus = _toy_anchor_set()
    anchors = build_anchor_set(m, corpus, ("T", "P"), mode="auto", k={"P": 2}, seed=0)
    path = str(tmp_path / "a.bin")
    save_anchors(anchors, path)
    # the label group is stored with seed -1, the k-means group with seed 0 + position
    assert [g.provenance.seed for g in load_anchors(path).groups] == [None, 4]
    # a seed below -1, written through the saver so the checksum holds
    object.__setattr__(anchors.groups[1].provenance, "seed", -5)
    save_anchors(anchors, path)
    with pytest.raises(AnchorError, match="factor P: stored seed -5 is below -1"):
        load_anchors(path)


def test_repeated_label_names_rejected(tmp_path):
    with pytest.raises(AnchorError, match="repeat a name"):
        FactorGroup(factor="L", centroids=np.eye(2), label_names=("en", "en"))
    # a file naming one label twice, written with a valid checksum, does not load
    group = FactorGroup(factor="L", centroids=np.eye(2), label_names=("en", "zh"))
    object.__setattr__(group, "label_names", ("en", "en"))
    path = str(tmp_path / "a.bin")
    save_anchors(AnchorSet(groups=(group,), d=2), path)
    with pytest.raises(AnchorError, match=r"factor L: label names \['en', 'en'\] repeat a name"):
        load_anchors(path)


def test_anchor_set_rejects_duplicate_factors():
    m, corpus = _toy_anchor_set()
    (g,) = build_anchor_set(m, corpus, ("T",), mode="label").groups
    with pytest.raises(AnchorError):
        AnchorSet(groups=(g, g), d=g.d)


def test_kmeans_empty_cluster_repair_distinct():
    # many coincident points plus a distinct pair forces empty-cluster repair
    pts = np.vstack([np.zeros((20, 2)), [[10.0, 0]], [[0, 10.0]]])
    result = kmeans_fit(pts, 3, seed=2)
    # centroids must remain distinct (repair never duplicates a point)
    pair_d = np.linalg.norm(
        result.centroids[:, None, :] - result.centroids[None, :, :], axis=2
    )
    off_diag = pair_d[~np.eye(3, dtype=bool)]
    assert float(off_diag.min()) > 1e-9
