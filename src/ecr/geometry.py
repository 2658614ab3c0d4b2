"""Representation-quality metrics for embedding collections.

Manifolds are groups of samples (gold factor labels or top-1 anchor
assignments).  The module reports within-manifold compactness, between-
manifold separation and their ratio, a variance-based spread statistic,
nearest-prototype language purity, teacher/student cosine agreement, and
two selection-consistency rates (teacher vs student, and cross-lingual
variants of one record).

All statistics are plain Euclidean/cosine quantities computed directly
from differences, so brute-force double-loop evaluation reproduces them
to tight tolerance.  Everything is pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .anchors import AnchorSet
from .codec import project_batch
from .corpus import EmbeddingMatrix


class GeometryError(ValueError):
    """Raised on partition or pairing violations."""


@dataclass(frozen=True)
class ManifoldPartition:
    """Sample-to-manifold assignment over a declared label inventory."""

    assignment: dict[str, str]  # sample id -> manifold label
    labels: tuple[str, ...]
    source: str = "labels"  # "labels" or "anchors", recorded in reports

    def __post_init__(self) -> None:
        extra = set(self.assignment.values()) - set(self.labels)
        if extra:
            raise GeometryError(f"assignment uses labels outside the inventory: {sorted(extra)}")

    def label_of(self, sample_id: str) -> str:
        try:
            return self.assignment[sample_id]
        except KeyError:
            raise GeometryError(f"sample {sample_id!r} has no manifold assignment") from None


def partition_from_labels(
    ids: list[str], labels: list[str], source: str = "labels"
) -> ManifoldPartition:
    if len(ids) != len(labels):
        raise GeometryError(f"{len(ids)} ids for {len(labels)} labels")
    return ManifoldPartition(
        assignment=dict(zip(ids, labels)),
        labels=tuple(sorted(set(labels))),
        source=source,
    )


def partition_from_anchors(embeddings: EmbeddingMatrix, anchors: AnchorSet) -> ManifoldPartition:
    """Assign each sample to its top-1 anchor (flat index, as a string label)."""
    top = np.argmax(project_batch(embeddings.data, anchors), axis=1)
    labels = [f"a{i}" for i in top.tolist()]
    return partition_from_labels(embeddings.ids, labels, source="anchors")


class _Manifold(NamedTuple):
    size: int
    intra: float  # mean member-to-centroid distance
    spread: float  # mean squared member-to-centroid distance
    centroid: np.ndarray


def _manifold_stats(
    embeddings: EmbeddingMatrix, partition: ManifoldPartition
) -> dict[str, _Manifold]:
    """One pass over the manifolds in label order; errors on uncovered rows
    or empty manifolds."""
    rows: dict[str, list[int]] = {label: [] for label in partition.labels}
    for idx, sample_id in enumerate(embeddings.ids):
        rows[partition.label_of(sample_id)].append(idx)
    empty = [label for label, members in rows.items() if not members]
    if empty:
        raise GeometryError(f"empty manifold {empty[0]!r}")
    data = embeddings.data.astype(np.float64)
    stats = {}
    for label, members in rows.items():
        member_rows = data[members]
        centroid = member_rows.mean(axis=0)
        d2 = ((member_rows - centroid) ** 2).sum(axis=1)
        stats[label] = _Manifold(
            len(members), float(np.sqrt(d2).mean()), float(d2.mean()), centroid
        )
    return stats


def _separation(stats: dict[str, _Manifold]) -> float:
    if len(stats) < 2:
        raise GeometryError(f"need at least 2 manifolds, got {len(stats)}")
    centroids = [m.centroid for m in stats.values()]
    dists = []
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            dists.append(float(np.sqrt(((centroids[i] - centroids[j]) ** 2).sum())))
    return float(np.mean(dists))


def intra_compactness(embeddings: EmbeddingMatrix, partition: ManifoldPartition) -> float:
    """Mean over manifolds of the mean member-to-centroid distance."""
    stats = _manifold_stats(embeddings, partition)
    return float(np.mean([m.intra for m in stats.values()]))


def inter_separation(embeddings: EmbeddingMatrix, partition: ManifoldPartition) -> float:
    """Mean pairwise Euclidean distance between manifold centroids."""
    return _separation(_manifold_stats(embeddings, partition))


def geometry_ratio(intra: float, inter: float) -> float:
    if inter <= 0:
        raise GeometryError(f"inter separation must be positive, got {inter}")
    return intra / inter


def spread(embeddings: EmbeddingMatrix, partition: ManifoldPartition) -> float:
    """Mean over manifolds of within-manifold variance (mean squared
    distance to the centroid)."""
    stats = _manifold_stats(embeddings, partition)
    return float(np.mean([m.spread for m in stats.values()]))


@dataclass(frozen=True)
class GeometryReport:
    intra: float
    inter: float
    ratio: float
    spread: float
    per_manifold: dict[str, dict[str, float]]
    source: str = "labels"

    def to_dict(self) -> dict:
        return {
            "intra": self.intra,
            "inter": self.inter,
            "ratio": self.ratio,
            "spread": self.spread,
            "source": self.source,
            "per_manifold": self.per_manifold,
        }


def compute_geometry(
    embeddings: EmbeddingMatrix, partition: ManifoldPartition
) -> GeometryReport:
    stats = _manifold_stats(embeddings, partition)
    intra = float(np.mean([m.intra for m in stats.values()]))
    inter = _separation(stats)
    return GeometryReport(
        intra=intra,
        inter=inter,
        ratio=geometry_ratio(intra, inter),
        spread=float(np.mean([m.spread for m in stats.values()])),
        per_manifold={
            label: {"size": float(m.size), "intra": m.intra, "spread": m.spread}
            for label, m in stats.items()
        },
        source=partition.source,
    )


# ---------------------------------------------------------------------------
# Purity


def language_prototypes(
    embeddings: EmbeddingMatrix, languages: list[str]
) -> dict[str, np.ndarray]:
    """Per-language mean embedding, keyed by language."""
    if len(languages) != embeddings.n:
        raise GeometryError(f"{len(languages)} language labels for {embeddings.n} rows")
    if embeddings.n == 0:
        raise GeometryError("cannot build prototypes from an empty matrix")
    rows: dict[str, list[int]] = {}
    for idx, lang in enumerate(languages):
        rows.setdefault(lang, []).append(idx)
    data = embeddings.data.astype(np.float64)
    return {lang: data[members].mean(axis=0) for lang, members in sorted(rows.items())}


@dataclass(frozen=True)
class PurityReport:
    per_language: dict[str, float]
    overall: float
    n: int
    assigned: tuple[str, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {"per_language": self.per_language, "overall": self.overall, "n": self.n}


def purity(embeddings: EmbeddingMatrix, languages: list[str]) -> PurityReport:
    """Nearest-prototype language assignment accuracy.

    Each sample is assigned to the language whose prototype is nearest in
    L2; distance ties resolve to the lexicographically first language.
    """
    protos = language_prototypes(embeddings, languages)
    if len(protos) < 2:
        raise GeometryError(f"purity needs at least 2 languages, got {len(protos)}")
    names = sorted(protos)
    proto_mat = np.stack([protos[lang] for lang in names])
    data = embeddings.data.astype(np.float64)
    # direct differences; argmin picks the first (lexicographically
    # smallest) language on exact ties
    d2 = ((data[:, None, :] - proto_mat[None, :, :]) ** 2).sum(axis=2)
    picked = d2.argmin(axis=1)
    assigned = tuple(names[int(i)] for i in picked)
    correct: dict[str, int] = {lang: 0 for lang in names}
    totals: dict[str, int] = {lang: 0 for lang in names}
    for true, got in zip(languages, assigned):
        totals[true] += 1
        if true == got:
            correct[true] += 1
    per_language = {lang: correct[lang] / totals[lang] for lang in names}
    overall = sum(correct.values()) / len(languages)
    return PurityReport(
        per_language=per_language,
        overall=overall,
        n=len(languages),
        assigned=assigned,
    )


# ---------------------------------------------------------------------------
# Teacher/student agreement


@dataclass(frozen=True)
class TeacherSimilarityReport:
    per_language: dict[str, float]
    overall: float
    n_pairs: int
    shared_dim: int | None = None

    def to_dict(self) -> dict:
        return {
            "per_language": self.per_language,
            "overall": self.overall,
            "n_pairs": self.n_pairs,
            "shared_dim": self.shared_dim,
        }


def teacher_similarity(
    teacher: EmbeddingMatrix,
    student: EmbeddingMatrix,
    language_of: dict[str, str],
    shared_dim: int | None = None,
) -> TeacherSimilarityReport:
    """Mean cosine between teacher and student vectors paired by id.

    Unequal dimensions require ``shared_dim``: each side is reduced with
    its own PCA to that dimension before comparison (raw cosine across
    unequal dimensions is undefined).
    """
    t_ids, s_ids = set(teacher.ids), set(student.ids)
    if t_ids != s_ids:
        odd = sorted(t_ids.symmetric_difference(s_ids))[0]
        raise GeometryError(f"unpaired sample id {odd!r}")
    t_data = teacher.data.astype(np.float64)
    s_data = student.data.astype(np.float64)
    used_dim: int | None = None
    if teacher.d != student.d:
        if shared_dim is None:
            raise GeometryError(
                f"dimension mismatch {teacher.d} vs {student.d} "
                f"needs a configured shared_dim"
            )
        from .retrieval import fit_pca, pca_project

        used_dim = shared_dim
        t_data = pca_project(fit_pca(t_data, shared_dim), t_data)
        s_data = pca_project(fit_pca(s_data, shared_dim), s_data)
    s_row = {sid: i for i, sid in enumerate(student.ids)}
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    total = 0.0
    for i, sid in enumerate(teacher.ids):
        t_vec = t_data[i]
        s_vec = s_data[s_row[sid]]
        denom = float(np.linalg.norm(t_vec)) * float(np.linalg.norm(s_vec))
        if denom == 0.0:
            raise GeometryError(f"zero vector for sample {sid!r}")
        cos = float(t_vec @ s_vec) / denom
        lang = language_of.get(sid)
        if lang is None:
            raise GeometryError(f"sample {sid!r} has no language")
        sums[lang] = sums.get(lang, 0.0) + cos
        counts[lang] = counts.get(lang, 0) + 1
        total += cos
    per_language = {lang: sums[lang] / counts[lang] for lang in sorted(sums)}
    return TeacherSimilarityReport(
        per_language=per_language,
        overall=total / teacher.n,
        n_pairs=teacher.n,
        shared_dim=used_dim,
    )


# ---------------------------------------------------------------------------
# Selection consistency


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


@dataclass(frozen=True)
class RetrievalAgreement:
    top1_rate: float
    mean_jaccard: float
    n: int

    def to_dict(self) -> dict:
        return {"top1_rate": self.top1_rate, "mean_jaccard": self.mean_jaccard, "n": self.n}


def retrieval_consistency(
    teacher_selections: dict[str, tuple[int, ...] | list[int]],
    student_selections: dict[str, tuple[int, ...] | list[int]],
) -> RetrievalAgreement:
    """Agreement between two selection maps over identical sample ids.

    The primary rate is top-1 agreement (first selected index equal);
    mean Jaccard overlap of the full selections is reported alongside.
    """
    if set(teacher_selections) != set(student_selections):
        odd = sorted(set(teacher_selections).symmetric_difference(student_selections))[0]
        raise GeometryError(f"unpaired sample id {odd!r}")
    if not teacher_selections:
        raise GeometryError("empty selection map")
    hits = 0
    overlaps = []
    for sid, t_sel in teacher_selections.items():
        s_sel = student_selections[sid]
        if not t_sel or not s_sel:
            raise GeometryError(f"empty selection for sample {sid!r}")
        if t_sel[0] == s_sel[0]:
            hits += 1
        overlaps.append(_jaccard(frozenset(t_sel), frozenset(s_sel)))
    n = len(teacher_selections)
    return RetrievalAgreement(
        top1_rate=hits / n,
        mean_jaccard=float(np.mean(overlaps)),
        n=n,
    )


@dataclass(frozen=True)
class CrosslingualReport:
    exact_match_rate: float
    mean_pairwise_jaccard: float
    n_records: int

    def to_dict(self) -> dict:
        return {
            "exact_match_rate": self.exact_match_rate,
            "mean_pairwise_jaccard": self.mean_pairwise_jaccard,
            "n_records": self.n_records,
        }


def crosslingual_consistency(
    selections: dict[str, dict[str, frozenset | set | tuple | list]],
    languages: tuple[str, ...] = ("en", "zh", "hi"),
) -> CrosslingualReport:
    """Rate at which all language variants of a record select the same
    manifold subset, plus the mean pairwise Jaccard overlap."""
    if not selections:
        raise GeometryError("empty record set")
    exact = 0
    overlaps = []
    for rec_id, per_lang in selections.items():
        missing = [lang for lang in languages if lang not in per_lang]
        if missing:
            raise GeometryError(
                f"record {rec_id!r} is missing language variant {missing[0]!r}"
            )
        sets = [frozenset(per_lang[lang]) for lang in languages]
        if all(s == sets[0] for s in sets[1:]):
            exact += 1
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                overlaps.append(_jaccard(sets[i], sets[j]))
    n = len(selections)
    return CrosslingualReport(
        exact_match_rate=exact / n,
        mean_pairwise_jaccard=float(np.mean(overlaps)),
        n_records=n,
    )
