"""Geometry diagnostics: compactness, separation, purity, consistency."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_corpus, embeddings_for
from ecr.anchors import build_anchor_set
from ecr.corpus import LANGUAGES, EmbeddingMatrix
from ecr.geometry import (
    GeometryError,
    anchor_labels,
    compute_geometry,
    crosslingual_consistency,
    geometry_ratio,
    purity,
)


def _matrix(data, ids=None):
    data = np.asarray(data, dtype=np.float32)
    ids = ids or [f"s{i}" for i in range(data.shape[0])]
    return EmbeddingMatrix(data=data, ids=ids)


def _two_cluster_case():
    # cluster A at x = 0 and x = 2 (centroid [1, 0], both members 1 away)
    # cluster B at y = 10 +/- 3 (centroid [0, 10], both members 3 away)
    pts = np.array(
        [[0.0, 0.0], [2.0, 0.0], [0.0, 7.0], [0.0, 13.0]], dtype=np.float32
    )
    return _matrix(pts), ["A", "A", "B", "B"]


# ---------------------------------------------------------------------------
# core metrics against handmade numbers


def _geometry(m, labels):
    return compute_geometry(m, labels, "labels")


def test_intra_matches_hand_computation():
    m, labels = _two_cluster_case()
    report = _geometry(m, labels)
    # mean of per-cluster mean distances: (1 + 3) / 2
    assert report.intra == pytest.approx(2.0, abs=1e-9)
    assert report.per_manifold["A"]["size"] == 2.0
    assert report.per_manifold["A"]["intra"] == pytest.approx(1.0)
    assert report.per_manifold["B"]["intra"] == pytest.approx(3.0)
    assert set(asdict(report)) == {
        "intra", "inter", "ratio", "spread", "source", "per_manifold",
    }


def test_inter_matches_hand_computation():
    m, labels = _two_cluster_case()
    # centroids [1, 0] and [0, 10]: distance sqrt(101)
    report = _geometry(m, labels)
    assert report.inter == pytest.approx(np.sqrt(101.0), abs=1e-9)
    assert report.ratio == pytest.approx(2.0 / np.sqrt(101.0), abs=1e-12)


def test_spread_matches_hand_computation():
    m, labels = _two_cluster_case()
    # per-cluster mean squared distances 1 and 9
    report = _geometry(m, labels)
    assert report.spread == pytest.approx(5.0, abs=1e-9)
    assert report.per_manifold["A"]["spread"] == pytest.approx(1.0)
    assert report.per_manifold["B"]["spread"] == pytest.approx(9.0)


def test_ratio_is_plain_division():
    assert geometry_ratio(2.0, 8.0) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(GeometryError):
        geometry_ratio(1.0, 0.0)
    with pytest.raises(GeometryError):
        geometry_ratio(1.0, -2.0)
    # geometry_ratio(nan, 1.0) returned nan before
    for intra, inter in [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)]:
        with pytest.raises(GeometryError, match="must be finite"):
            geometry_ratio(intra, inter)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_rows_are_geometry_errors(bad):
    # all-NaN rows read as purity 0.5 and a NaN ratio before
    m, labels = _two_cluster_case()
    m.data[2] = bad
    for call in (
        lambda: compute_geometry(m, labels, "labels"),
        lambda: purity(m, labels),
    ):
        with pytest.raises(GeometryError, match="non-finite value in row 2"):
            call()


def test_inter_three_clusters_mean_pairwise():
    pts = np.array([[0.0, 0], [0, 0], [3, 0], [3, 0], [0, 4], [0, 4]])
    m = _matrix(pts)
    want = (3.0 + 4.0 + 5.0) / 3.0
    assert _geometry(m, ["a", "a", "b", "b", "c", "c"]).inter == pytest.approx(want, abs=1e-9)


def test_geometry_against_loop_oracle():
    rng = np.random.default_rng(0)
    # round to storage precision first so both sides see identical values
    pts = rng.normal(size=(60, 5)).astype(np.float32)
    labels = [f"g{i % 4}" for i in range(60)]
    m = _matrix(pts)

    # independent oracle: dict-of-lists plus explicit loops
    groups: dict[str, list[np.ndarray]] = {}
    for row, label in zip(pts.astype(np.float64), labels):
        groups.setdefault(label, []).append(row)
    intra_terms, spread_terms, centroids = [], [], []
    for label in sorted(groups):
        members = np.stack(groups[label])
        c = members.mean(axis=0)
        dist = [float(np.linalg.norm(v - c)) for v in members]
        intra_terms.append(sum(dist) / len(dist))
        spread_terms.append(sum(x * x for x in dist) / len(dist))
        centroids.append(c)
    pair = []
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            pair.append(float(np.linalg.norm(centroids[i] - centroids[j])))
    report = _geometry(m, labels)
    assert report.intra == pytest.approx(np.mean(intra_terms), abs=1e-9)
    assert report.inter == pytest.approx(np.mean(pair), abs=1e-9)
    assert report.spread == pytest.approx(np.mean(spread_terms), abs=1e-9)
    for label, terms in zip(sorted(groups), zip(intra_terms, spread_terms)):
        stats = report.per_manifold[label]
        assert stats["size"] == len(groups[label])
        assert (stats["intra"], stats["spread"]) == pytest.approx(terms, abs=1e-9)


def test_partition_validation():
    m, _ = _two_cluster_case()
    same = _matrix(np.ones((3, 2)))
    for rows, labels, message in (
        (m, ["A"], "1 labels for 4 rows"),
        (same, ["en", "zh"], "2 labels for 3 rows"),
        (same, ["en"] * 3, "need at least 2 manifolds, got 1"),
        (same, ["en", "zh", "zh"], "inter separation must be finite and positive, got 0.0"),
    ):
        with pytest.raises(GeometryError, match=message):
            compute_geometry(rows, labels, "labels")


def test_rows_sharing_an_id_keep_their_own_labels():
    m, labels = _two_cluster_case()
    shared = _matrix(m.data, ids=["x", "a", "x", "b"])
    report = _geometry(shared, labels)
    assert report.per_manifold == _geometry(m, labels).per_manifold
    assert [stats["size"] for stats in report.per_manifold.values()] == [2.0, 2.0]


def test_single_manifold_rejected_for_inter():
    pts = np.ones((4, 2), dtype=np.float32) * np.arange(4)[:, None]
    with pytest.raises(GeometryError, match="at least 2"):
        _geometry(_matrix(pts), ["A"] * 4)


def test_anchor_labels_top1():
    corpus = build_corpus(
        [
            {"dialog_id": "d0", "task": "booking"},
            {"dialog_id": "d1", "task": "support"},
        ]
    )
    emb = embeddings_for(["d0", "d1"], d=4, seed=1)
    anchors = build_anchor_set(emb, corpus, ("T",), mode="label")
    # each point sits exactly on its own anchor, so top-1 is itself
    assert anchor_labels(emb, anchors) == ["a0", "a1"]


# ---------------------------------------------------------------------------
# invariances


def test_metrics_translation_invariant():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(30, 4))
    labels = [f"g{i % 3}" for i in range(30)]
    shift = rng.normal(size=4) * 50
    a = _matrix(pts)
    b = _matrix(pts + shift)
    ga, gb = _geometry(a, labels), _geometry(b, labels)
    assert ga.intra == pytest.approx(gb.intra, abs=1e-6)
    assert ga.inter == pytest.approx(gb.inter, abs=1e-6)
    assert ga.spread == pytest.approx(gb.spread, abs=1e-5)


def test_metrics_scale_covariant():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(24, 3))
    labels = [f"g{i % 2}" for i in range(24)]
    alpha = 4.0  # exact in binary, so float32 rounding cancels
    pts = pts.astype(np.float32)
    a = _matrix(pts)
    b = _matrix(alpha * pts)
    ga, gb = _geometry(a, labels), _geometry(b, labels)
    assert gb.intra == pytest.approx(alpha * ga.intra, rel=1e-6)
    assert gb.inter == pytest.approx(alpha * ga.inter, rel=1e-6)
    assert gb.spread == pytest.approx(alpha**2 * ga.spread, rel=1e-6)
    # the ratio is scale free
    assert ga.ratio == pytest.approx(gb.ratio, rel=1e-9)


@settings(max_examples=30)
@given(seed=st.integers(0, 1000), alpha=st.floats(0.1, 20.0))
def test_ratio_scale_free_property(seed, alpha):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(12, 3))
    labels = ["a"] * 6 + ["b"] * 6
    a = _matrix(pts)
    b = _matrix(alpha * pts)
    ga, gb = _geometry(a, labels), _geometry(b, labels)
    assert geometry_ratio(gb.intra, gb.inter) == pytest.approx(
        geometry_ratio(ga.intra, ga.inter), rel=1e-6
    )
    assert gb.ratio == pytest.approx(ga.ratio, rel=1e-6)


# ---------------------------------------------------------------------------
# purity


def test_purity_separated_clusters_is_one():
    rng = np.random.default_rng(3)
    en = rng.normal(size=(20, 4)) * 0.1 + np.array([10.0, 0, 0, 0])
    zh = rng.normal(size=(20, 4)) * 0.1 + np.array([0, 10.0, 0, 0])
    m = _matrix(np.vstack([en, zh]))
    report = purity(m, ["en"] * 20 + ["zh"] * 20)
    assert report.overall == 1.0
    assert report.per_language == {"en": 1.0, "zh": 1.0}
    assert report.n == 40


def test_purity_tie_breaks_lexicographic():
    # four samples: two singleton-prototype languages at x = -1 and x = 1
    # plus probes exactly between them; the tie must go to the
    # lexicographically first language name regardless of the true label
    pts = np.array(
        [[-1.0, 0], [1.0, 0], [0.0, 0], [0.0, 0]], dtype=np.float32
    )
    m = _matrix(pts)
    # prototypes: zz = mean(rows 0, 2) = [-0.5, 0], aa = mean(rows 1, 3) = [0.5, 0]
    # probe rows 2 and 3 sit at the origin, equidistant from both
    report = purity(m, ["zz", "aa", "zz", "aa"])
    assert report.assigned[2] == "aa"
    assert report.assigned[3] == "aa"


def test_purity_exact_tie_prefers_first_name():
    # two languages with identical prototypes: every distance ties, and
    # every sample is assigned the lexicographically first language
    pts = np.array([[1.0, 0], [1.0, 0], [1.0, 0], [1.0, 0]], dtype=np.float32)
    m = _matrix(pts)
    report = purity(m, ["b", "a", "b", "a"])
    assert report.assigned == ("a", "a", "a", "a")
    assert report.per_language == {"a": 1.0, "b": 0.0}
    assert report.overall == 0.5


def test_purity_against_brute_force_oracle():
    rng = np.random.default_rng(4)
    langs = ["en", "zh", "hi"]
    for trial in range(200):
        n = int(rng.integers(6, 20))
        labels = [langs[int(rng.integers(3))] for _ in range(n)]
        # ensure at least two distinct languages
        if len(set(labels)) < 2:
            labels[0] = "en" if labels[0] != "en" else "zh"
        pts = rng.normal(size=(n, 3))
        m = _matrix(pts)
        report = purity(m, labels)

        protos = {}
        for lang in set(labels):
            members = [pts[i] for i in range(n) if labels[i] == lang]
            protos[lang] = np.mean(members, axis=0)
        correct = 0
        for i in range(n):
            best = min(
                sorted(protos),
                key=lambda lang: (float(((pts[i] - protos[lang]) ** 2).sum()), lang),
            )
            if best == labels[i]:
                correct += 1
        assert report.overall == pytest.approx(correct / n, abs=1e-12)


def test_purity_validation():
    m = _matrix(np.ones((3, 2)))
    with pytest.raises(GeometryError, match="purity needs at least 2 languages, got 1"):
        purity(m, ["en", "en", "en"])  # single language
    with pytest.raises(GeometryError, match="2 labels for 3 rows"):
        purity(m, ["en", "zh"])  # length mismatch


# ---------------------------------------------------------------------------
# selection consistency


def _set_loop_consistency(selected):
    """Exact-match rate and mean pairwise Jaccard, one record and one
    language pair at a time over Python sets."""
    exact, overlaps = 0, []
    for record in selected.tolist():
        sets = [frozenset(variant) for variant in record]
        exact += all(s == sets[0] for s in sets[1:])
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                overlaps.append(len(sets[i] & sets[j]) / len(sets[i] | sets[j]))
    return exact / len(selected), float(np.mean(overlaps))


def test_crosslingual_exact_match():
    # (records, languages en/zh/hi, k)
    selected = np.array([[[0, 3], [0, 3], [3, 0]], [[1, 5], [2, 5], [1, 5]]])
    report = crosslingual_consistency(selected)
    assert report.exact_match_rate == pytest.approx(0.5)
    assert report.n_records == 2
    # r1 pairs all overlap 1.0; r2 pairs: (en,zh)=1/3, (en,hi)=1, (zh,hi)=1/3
    assert report.mean_pairwise_jaccard == pytest.approx((3.0 + 5.0 / 3.0) / 6.0)


def test_crosslingual_incomplete_triplet_rejected():
    with pytest.raises(GeometryError, match="shape"):
        crosslingual_consistency(np.zeros((1, 2, 1), dtype=int))  # en and zh only
    with pytest.raises(GeometryError, match="empty record"):
        crosslingual_consistency(np.zeros((0, 3, 1), dtype=int))


def test_crosslingual_rejects_repeated_or_missing_anchors():
    with pytest.raises(GeometryError, match="same anchor twice"):
        crosslingual_consistency(np.array([[[0, 1], [1, 1], [0, 1]]]))
    with pytest.raises(GeometryError, match="at least one anchor"):
        crosslingual_consistency(np.zeros((2, 3, 0), dtype=int))


@settings(max_examples=100)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 4),
    n_anchors=st.integers(4, 6),
    seed=st.integers(0, 10_000),
)
def test_crosslingual_matches_set_loop_oracle(n, k, n_anchors, seed):
    rng = np.random.default_rng(seed)
    selected = np.stack(
        [rng.permutation(n_anchors)[:k] for _ in range(n * len(LANGUAGES))]
    ).reshape(n, len(LANGUAGES), k)
    report = crosslingual_consistency(selected)
    want_exact, want_jaccard = _set_loop_consistency(selected)
    # bit for bit, not approximately
    assert report.exact_match_rate == want_exact
    assert report.mean_pairwise_jaccard == want_jaccard
    assert report.n_records == n
    assert 0.0 <= report.exact_match_rate <= 1.0
    assert 0.0 <= report.mean_pairwise_jaccard <= 1.0
