"""Geometry diagnostics: compactness, separation, purity, consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_corpus, embeddings_for
from ecr.anchors import build_anchor_set
from ecr.corpus import EmbeddingMatrix
from ecr.geometry import (
    GeometryError,
    compute_geometry,
    crosslingual_consistency,
    geometry_ratio,
    partition_from_anchors,
    partition_from_labels,
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
    m = _matrix(pts)
    part = partition_from_labels(m.ids, ["A", "A", "B", "B"])
    return m, part


# ---------------------------------------------------------------------------
# core metrics against handmade numbers


def _geometry(m, labels):
    return compute_geometry(m, partition_from_labels(m.ids, labels))


def test_intra_matches_hand_computation():
    m, part = _two_cluster_case()
    report = compute_geometry(m, part)
    # mean of per-cluster mean distances: (1 + 3) / 2
    assert report.intra == pytest.approx(2.0, abs=1e-9)
    assert report.per_manifold["A"]["size"] == 2.0
    assert report.per_manifold["A"]["intra"] == pytest.approx(1.0)
    assert report.per_manifold["B"]["intra"] == pytest.approx(3.0)
    assert set(report.to_dict()) == {
        "intra", "inter", "ratio", "spread", "source", "per_manifold",
    }


def test_inter_matches_hand_computation():
    m, part = _two_cluster_case()
    # centroids [1, 0] and [0, 10]: distance sqrt(101)
    report = compute_geometry(m, part)
    assert report.inter == pytest.approx(np.sqrt(101.0), abs=1e-9)
    assert report.ratio == pytest.approx(2.0 / np.sqrt(101.0), abs=1e-12)


def test_spread_matches_hand_computation():
    m, part = _two_cluster_case()
    # per-cluster mean squared distances 1 and 9
    report = compute_geometry(m, part)
    assert report.spread == pytest.approx(5.0, abs=1e-9)
    assert report.per_manifold["A"]["spread"] == pytest.approx(1.0)
    assert report.per_manifold["B"]["spread"] == pytest.approx(9.0)


def test_ratio_is_plain_division():
    assert geometry_ratio(2.0, 8.0) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(GeometryError):
        geometry_ratio(1.0, 0.0)
    with pytest.raises(GeometryError):
        geometry_ratio(1.0, -2.0)


def test_inter_three_clusters_mean_pairwise():
    pts = np.array([[0.0, 0], [0, 0], [3, 0], [3, 0], [0, 4], [0, 4]])
    m = _matrix(pts)
    part = partition_from_labels(m.ids, ["a", "a", "b", "b", "c", "c"])
    want = (3.0 + 4.0 + 5.0) / 3.0
    assert compute_geometry(m, part).inter == pytest.approx(want, abs=1e-9)


def test_geometry_against_loop_oracle():
    rng = np.random.default_rng(0)
    # round to storage precision first so both sides see identical values
    pts = rng.normal(size=(60, 5)).astype(np.float32)
    labels = [f"g{i % 4}" for i in range(60)]
    m = _matrix(pts)
    part = partition_from_labels(m.ids, labels)

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
    report = compute_geometry(m, part)
    assert report.intra == pytest.approx(np.mean(intra_terms), abs=1e-9)
    assert report.inter == pytest.approx(np.mean(pair), abs=1e-9)
    assert report.spread == pytest.approx(np.mean(spread_terms), abs=1e-9)
    for label, terms in zip(sorted(groups), zip(intra_terms, spread_terms)):
        stats = report.per_manifold[label]
        assert stats["size"] == len(groups[label])
        assert (stats["intra"], stats["spread"]) == pytest.approx(terms, abs=1e-9)


def test_partition_validation():
    m, _ = _two_cluster_case()
    with pytest.raises(GeometryError):
        partition_from_labels(m.ids, ["A"])  # length mismatch
    part = partition_from_labels(["x0", "x1"], ["A", "B"])
    with pytest.raises(GeometryError, match="assignment"):
        compute_geometry(m, part)  # m's ids are not covered
    # empty manifold: declared label with no members
    from ecr.geometry import ManifoldPartition

    sparse = ManifoldPartition(
        assignment={sid: "A" for sid in m.ids}, labels=("A", "B")
    )
    with pytest.raises(GeometryError, match="empty manifold"):
        compute_geometry(m, sparse)
    with pytest.raises(GeometryError, match="outside the inventory"):
        ManifoldPartition(assignment={"s0": "Z"}, labels=("A",))


def test_single_manifold_rejected_for_inter():
    pts = np.ones((4, 2), dtype=np.float32) * np.arange(4)[:, None]
    m = _matrix(pts)
    part = partition_from_labels(m.ids, ["A"] * 4)
    with pytest.raises(GeometryError, match="at least 2"):
        compute_geometry(m, part)


def test_partition_from_anchors_top1():
    corpus = build_corpus(
        [
            {"dialog_id": "d0", "task": "booking"},
            {"dialog_id": "d1", "task": "support"},
        ]
    )
    emb = embeddings_for(["d0", "d1"], d=4, seed=1)
    anchors = build_anchor_set(emb, corpus, ("T",), mode="label")
    part = partition_from_anchors(emb, anchors)
    assert part.source == "anchors"
    # each point sits exactly on its own anchor, so top-1 is itself
    assert part.assignment["d0"] != part.assignment["d1"]


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
    with pytest.raises(GeometryError):
        purity(m, ["en", "en", "en"])  # single language
    with pytest.raises(GeometryError, match="2 labels for 3 rows"):
        purity(m, ["en", "zh"])  # length mismatch


# ---------------------------------------------------------------------------
# selection consistency


def test_crosslingual_exact_match():
    selections = {
        "r1": {"en": {0, 3}, "zh": {0, 3}, "hi": {3, 0}},
        "r2": {"en": {1}, "zh": {2}, "hi": {1}},
    }
    report = crosslingual_consistency(selections)
    assert report.exact_match_rate == pytest.approx(0.5)
    assert report.n_records == 2
    # r1 pairs all overlap 1.0; r2 pairs: (en,zh)=0, (en,hi)=1, (zh,hi)=0
    assert report.mean_pairwise_jaccard == pytest.approx((3.0 + 1.0) / 6.0)


def test_crosslingual_incomplete_triplet_rejected():
    with pytest.raises(GeometryError, match="missing language"):
        crosslingual_consistency({"r1": {"en": {0}, "zh": {0}}})
    with pytest.raises(GeometryError, match="empty record"):
        crosslingual_consistency({})


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000))
def test_crosslingual_rate_bounds_property(seed):
    rng = np.random.default_rng(seed)
    selections = {}
    for r in range(int(rng.integers(1, 8))):
        selections[f"r{r}"] = {
            lang: {int(x) for x in rng.integers(0, 4, size=rng.integers(1, 4))}
            for lang in ("en", "zh", "hi")
        }
    report = crosslingual_consistency(selections)
    assert 0.0 <= report.exact_match_rate <= 1.0
    assert 0.0 <= report.mean_pairwise_jaccard <= 1.0
    # exact matches imply full jaccard on those records
    if report.exact_match_rate == 1.0:
        assert report.mean_pairwise_jaccard == pytest.approx(1.0)
