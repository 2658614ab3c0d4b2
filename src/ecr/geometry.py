"""Representation-quality metrics for embedding collections.

Manifolds are groups of rows, named by one label per row (a gold factor
label or the row's top-1 anchor).  One pass over them gives every
per-manifold statistic and centroid; from it the module reports
within-manifold compactness, between-manifold separation and their ratio,
a variance-based spread statistic, nearest-prototype language purity, and
how consistently the cross-lingual variants of one record select the same
anchor subset.

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
    """Raised on label or selection violations."""


def anchor_labels(embeddings: EmbeddingMatrix, anchors: AnchorSet) -> list[str]:
    """Each row's top-1 anchor (flat index, as a string label)."""
    top = np.argmax(project_batch(embeddings.data, anchors), axis=1)
    return [f"a{i}" for i in top.tolist()]


class _Manifold(NamedTuple):
    size: int
    intra: float  # mean member-to-centroid distance
    spread: float  # mean squared member-to-centroid distance
    centroid: np.ndarray


def _manifold_stats(data: np.ndarray, labels: list[str]) -> dict[str, _Manifold]:
    """The one pass over the manifolds, in sorted label order.

    ``labels`` names each row's manifold; every label names a manifold.
    Errors on a label count other than the row count, and on a non-finite
    entry.
    """
    if len(labels) != len(data):
        raise GeometryError(f"{len(labels)} labels for {len(data)} rows")
    if not np.isfinite(data).all():
        bad = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
        raise GeometryError(f"non-finite value in row {bad}")
    rows: dict[str, list[int]] = {label: [] for label in sorted(set(labels))}
    for idx, label in enumerate(labels):
        rows[label].append(idx)
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
    if not np.isfinite(intra):
        raise GeometryError(f"intra compactness must be finite, got {intra}")
    if not 0 < inter < np.inf:
        raise GeometryError(f"inter separation must be finite and positive, got {inter}")
    return intra / inter


@dataclass(frozen=True)
class GeometryReport:
    intra: float
    inter: float
    ratio: float
    spread: float
    per_manifold: dict[str, dict[str, float]]
    source: str  # "labels" or "anchors"

    def to_dict(self) -> dict:
        return {
            "intra": self.intra,
            "inter": self.inter,
            "ratio": self.ratio,
            "spread": self.spread,
            "source": self.source,
            "per_manifold": self.per_manifold,
        }


def compute_geometry(embeddings: EmbeddingMatrix, labels: list[str], source: str) -> GeometryReport:
    """Compactness (``intra``: mean over manifolds of the mean
    member-to-centroid distance), separation (``inter``: mean pairwise
    centroid distance), their ratio and Spread (mean within-manifold
    variance), every one from a single manifold pass.

    ``labels`` names each row's manifold; the manifolds are the sorted
    distinct labels.  ``source`` says where the labels came from and is
    recorded in the report.
    """
    stats = _manifold_stats(embeddings.data.astype(np.float64), labels)
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
        source=source,
    )


# ---------------------------------------------------------------------------
# Purity


@dataclass(frozen=True)
class PurityReport:
    per_language: dict[str, float]
    overall: float
    n: int
    assigned: tuple[str, ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {"per_language": self.per_language, "overall": self.overall, "n": self.n}


def purity(embeddings: EmbeddingMatrix, languages: list[str]) -> PurityReport:
    """Nearest-prototype language assignment accuracy.

    Each sample is assigned to the language whose prototype is nearest in
    L2; distance ties resolve to the lexicographically first language.
    The prototypes are the language manifolds' centroids.
    """
    data = embeddings.data.astype(np.float64)
    stats = _manifold_stats(data, languages)
    names = tuple(stats)
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
    return PurityReport(per_language, overall, len(languages), assigned)


# ---------------------------------------------------------------------------
# Selection consistency


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


# The language pairs whose overlap is averaged, in this order: (en, zh),
# (en, hi), (zh, hi) for the corpus languages.
_PAIRS = np.triu_indices(len(LANGUAGES), k=1)


def crosslingual_consistency(selected: np.ndarray) -> CrosslingualReport:
    """Rate at which all language variants of a record select the same
    anchor subset, plus the mean pairwise Jaccard overlap.

    ``selected`` is an int array of shape ``(n_records, len(LANGUAGES),
    k)``: the k distinct anchor indices that each record's variant in
    each corpus language selected, in any order.  The Jaccard mean runs
    over every record's language pairs, record-major.
    """
    selected = np.asarray(selected)
    if selected.ndim != 3 or selected.shape[1] != len(LANGUAGES):
        raise GeometryError(
            f"selections must have shape (records, {len(LANGUAGES)}, k), got {selected.shape}"
        )
    n, _, k = selected.shape
    if n == 0:
        raise GeometryError("empty record set")
    if k == 0:
        raise GeometryError("each variant must select at least one anchor")
    ordered = np.sort(selected, axis=2)
    if (ordered[:, :, 1:] == ordered[:, :, :-1]).any():
        raise GeometryError("a variant selects the same anchor twice")
    # overlap[r, p]: anchors that both variants of language pair p select
    first, second = selected[:, _PAIRS[0], :, None], selected[:, _PAIRS[1], None, :]
    overlap = (first == second).sum(axis=(2, 3))
    jaccard = overlap / (2 * k - overlap)  # both variants hold k anchors
    # a 1-d mean adds the values in record-major order, as a mean over a
    # flat list of them would; a 2-d mean adds them in another order, which
    # can change the last bit
    return CrosslingualReport(
        exact_match_rate=int((overlap == k).all(axis=1).sum()) / n,
        mean_pairwise_jaccard=float(np.mean(jaccard.ravel())),
        n_records=n,
    )
