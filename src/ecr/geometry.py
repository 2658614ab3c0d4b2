"""Representation-quality metrics for embedding collections.

Manifolds are groups of samples (gold factor labels or top-1 anchor
assignments).  One pass over them gives every per-manifold statistic and
centroid; from it the module reports within-manifold compactness, between-
manifold separation and their ratio, a variance-based spread statistic,
nearest-prototype language purity, and how consistently the cross-lingual
variants of one record select the same manifold subset.

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
from .corpus import LANGUAGES, EmbeddingMatrix


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
    data: np.ndarray, labels: list[str], inventory: tuple[str, ...]
) -> dict[str, _Manifold]:
    """The one pass over the manifolds, in inventory order.

    ``labels`` names each row's manifold.  Errors on a label count other
    than the row count and on an empty manifold.
    """
    if len(labels) != len(data):
        raise GeometryError(f"{len(labels)} labels for {len(data)} rows")
    rows: dict[str, list[int]] = {label: [] for label in inventory}
    for idx, label in enumerate(labels):
        rows[label].append(idx)
    empty = [label for label, members in rows.items() if not members]
    if empty:
        raise GeometryError(f"empty manifold {empty[0]!r}")
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
    """Mean pairwise Euclidean distance between manifold centroids."""
    if len(stats) < 2:
        raise GeometryError(f"need at least 2 manifolds, got {len(stats)}")
    centroids = [m.centroid for m in stats.values()]
    dists = []
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            dists.append(float(np.sqrt(((centroids[i] - centroids[j]) ** 2).sum())))
    return float(np.mean(dists))


def geometry_ratio(intra: float, inter: float) -> float:
    if inter <= 0:
        raise GeometryError(f"inter separation must be positive, got {inter}")
    return intra / inter


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
    """Compactness (``intra``: mean over manifolds of the mean
    member-to-centroid distance), separation (``inter``: mean pairwise
    centroid distance), their ratio and Spread (mean within-manifold
    variance), every one from a single manifold pass."""
    labels = [partition.label_of(sample_id) for sample_id in embeddings.ids]
    stats = _manifold_stats(embeddings.data.astype(np.float64), labels, partition.labels)
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
    The prototypes are the language manifolds' centroids.
    """
    names = tuple(sorted(set(languages)))
    data = embeddings.data.astype(np.float64)
    stats = _manifold_stats(data, languages, names)
    if len(stats) < 2:
        raise GeometryError(f"purity needs at least 2 languages, got {len(stats)}")
    proto_mat = np.stack([m.centroid for m in stats.values()])
    # direct differences; argmin picks the first (lexicographically
    # smallest) language on exact ties
    d2 = ((data[:, None, :] - proto_mat[None, :, :]) ** 2).sum(axis=2)
    picked = d2.argmin(axis=1)
    assigned = tuple(names[int(i)] for i in picked)
    correct = {lang: 0 for lang in names}
    for true, got in zip(languages, assigned):
        correct[true] += true == got
    per_language = {lang: correct[lang] / m.size for lang, m in stats.items()}
    overall = sum(correct.values()) / len(languages)
    return PurityReport(
        per_language=per_language,
        overall=overall,
        n=len(languages),
        assigned=assigned,
    )


# ---------------------------------------------------------------------------
# Selection consistency


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


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
) -> CrosslingualReport:
    """Rate at which all language variants of a record (one per corpus
    language) select the same manifold subset, plus the mean pairwise
    Jaccard overlap."""
    if not selections:
        raise GeometryError("empty record set")
    exact = 0
    overlaps = []
    for rec_id, per_lang in selections.items():
        missing = [lang for lang in LANGUAGES if lang not in per_lang]
        if missing:
            raise GeometryError(
                f"record {rec_id!r} is missing language variant {missing[0]!r}"
            )
        sets = [frozenset(per_lang[lang]) for lang in LANGUAGES]
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
