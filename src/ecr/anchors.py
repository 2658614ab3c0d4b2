"""Anchor derivation and persistence.

Anchors are fixed vectors summarizing regions of a teacher embedding
space, grouped per semantic factor (task, language, emotion, intent,
tone/strategy).  Two derivation routes exist: seeded k-means over an
embedding matrix, and per-label centroids where labels are available.
Clustering runs on unnormalized embeddings; a unit-norm copy of every
anchor is cached for projection.

Derived anchors are frozen: stored arrays are read-only and a content
checksum makes silent drift detectable.  Persistence uses the shared
binary envelope (magic ``ECRA``) with float64 centroids, so round trips
are bit-exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .binio import ByteReader, ByteWriter, read_envelope, write_envelope
from .corpus import FACTOR_FIELDS, Corpus, EmbeddingMatrix, _rows_over_norms

ANCHOR_MAGIC = b"ECRA"
ANCHOR_VERSION = 1

# Canonical factor order; it defines prefix token order everywhere.
FACTOR_CODES = ("T", "L", "E", "I", "P")

FACTOR_NAMES = {
    "T": "task",
    "L": "language",
    "E": "emotion",
    "I": "intent",
    "P": "strategy",
}


class AnchorError(ValueError):
    """Raised on invalid anchor construction or persistence mismatch."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Provenance:
    """How a factor group was derived."""

    method: str  # "kmeans" or "label_centroids"
    seed: int | None = None
    n_samples: int = 0
    n_iter: int = 0


@dataclass(frozen=True)
class FactorGroup:
    """Anchor block for one factor: raw centroids plus a cached unit copy."""

    factor: str
    centroids: np.ndarray  # (k_f, d) float64, read-only, finite, no row all zero
    label_names: tuple[str, ...] | None = None
    provenance: Provenance = Provenance(method="unspecified")
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.factor not in FACTOR_CODES:
            raise AnchorError(f"unknown factor code {self.factor!r}")
        cents = np.asarray(self.centroids, dtype=np.float64)
        if cents.ndim != 2 or cents.shape[0] == 0:
            raise AnchorError(f"factor {self.factor}: centroids must be a non-empty 2-d array")
        if not np.all(np.isfinite(cents)):
            raise AnchorError(f"factor {self.factor}: non-finite centroid entries")
        if not cents.any(axis=1).all():
            raise AnchorError(f"factor {self.factor}: zero-norm anchor cannot be projected on")
        if self.label_names is not None and len(self.label_names) != cents.shape[0]:
            raise AnchorError(
                f"factor {self.factor}: {len(self.label_names)} label names "
                f"for {cents.shape[0]} anchors"
            )
        object.__setattr__(self, "centroids", _frozen(cents))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    @property
    def unit_centroids(self) -> np.ndarray:
        """Rows scaled to norm 1, computed once and cached read-only."""
        cached = self._cache.get("unit")
        if cached is None:
            cached = _frozen(_rows_over_norms(self.centroids))
            self._cache["unit"] = cached
        return cached


@dataclass(frozen=True)
class AnchorSet:
    """All factor groups in canonical order plus global metadata."""

    groups: tuple[FactorGroup, ...]
    d: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.groups:
            raise AnchorError("anchor set needs at least one factor group")
        seen: set[str] = set()
        for g in self.groups:
            if g.factor in seen:
                raise AnchorError(f"duplicate factor group {g.factor!r}")
            seen.add(g.factor)
            if g.d != self.d:
                raise AnchorError(
                    f"factor {g.factor}: dimension {g.d} does not match anchor set d={self.d}"
                )
        order = tuple(g.factor for g in self.groups)
        canonical = tuple(c for c in FACTOR_CODES if c in seen)
        if order != canonical:
            raise AnchorError(f"factor groups out of canonical order: {list(order)}")
        # the groups are frozen, so the layout is read from here on every encode
        self._cache["factors"] = order
        self._cache["group_sizes"] = tuple(g.k for g in self.groups)

    @property
    def factors(self) -> tuple[str, ...]:
        return self._cache["factors"]

    @property
    def total_k(self) -> int:
        return sum(g.k for g in self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return self._cache["group_sizes"]

    def group(self, factor: str) -> FactorGroup:
        for g in self.groups:
            if g.factor == factor:
                return g
        raise AnchorError(f"anchor set has no factor {factor!r}")

    def stacked_unit(self) -> np.ndarray:
        """All unit anchors as one (total_k, d) read-only matrix."""
        cached = self._cache.get("stacked_unit")
        if cached is None:
            cached = _frozen(np.vstack([g.unit_centroids for g in self.groups]))
            self._cache["stacked_unit"] = cached
        return cached

    def checksum(self, fresh: bool = False) -> str:
        """sha256 over the canonical serialized content; detects any drift.

        ``fresh=True`` rehashes the current array contents instead of
        reusing the cached digest, for before/after integrity reports.
        """
        cached = self._cache.get("checksum")
        if cached is None or fresh:
            cached = hashlib.sha256(_anchor_payload(self)).hexdigest()
            self._cache["checksum"] = cached
        return cached


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: list[float]  # per-iteration mean squared distance, non-increasing
    n_iter: int


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared L2 distances, one gemm plus row norms
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    c2 = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    d2 = p2 + c2 - 2.0 * points @ centroids.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _weighted_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted seeding: each new seed drawn with p proportional to
    squared distance from the nearest already-chosen seed."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = _squared_distances(points, centroids[:1]).ravel()
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all mass at chosen seeds; uniform fallback
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _squared_distances(points, centroids[j : j + 1]).ravel())
    return centroids


def kmeans_fit(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """Plain Lloyd iteration with distance-weighted seeding.

    The per-iteration objective is recorded and asserted non-increasing.
    Empty clusters are repaired by reseeding on the points farthest from
    their centroids (distinct point per empty cluster); since an empty
    cluster's centroid serves no point, the repair cannot raise the
    objective, so the assertion survives it.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not np.isfinite(points).all():
        raise AnchorError("k-means points have a NaN or infinite entry")
    with np.errstate(over="ignore"):
        # bounds the sum of any n squared distances between points and
        # centroids, with a factor 2 to spare for rounding
        reach = 8.0 * n * float(np.einsum("ij,ij->i", points, points).max(initial=0.0))
    if not np.isfinite(reach):
        raise AnchorError("k-means points are too large: squared distances overflow")
    if k <= 0:
        raise AnchorError(f"k must be positive, got {k}")
    if n < k:
        raise AnchorError(f"cannot fit {k} clusters to {n} points")
    rng = np.random.default_rng(seed)
    centroids = _weighted_init(points, k, rng)
    objective: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    for it in range(max_iter):
        d2 = _squared_distances(points, centroids)
        assignments = d2.argmin(axis=1)
        member_d2 = d2[np.arange(n), assignments]
        obj = float(member_d2.mean())
        if objective and obj > objective[-1] + 1e-12:
            raise AnchorError(
                f"objective increased at iteration {it}: {objective[-1]} -> {obj}"
            )
        objective.append(obj)
        new_centroids = centroids.copy()
        empties = [j for j in range(k) if not np.any(assignments == j)]
        if empties:
            far_order = np.argsort(-member_d2)
        for rank, j in enumerate(empties):
            new_centroids[j] = points[far_order[rank]]
        for j in range(k):
            if j in empties:
                continue
            new_centroids[j] = points[assignments == j].mean(axis=0)
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < tol:
            break
    d2 = _squared_distances(points, centroids)
    assignments = d2.argmin(axis=1)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        objective=objective,
        n_iter=len(objective),
    )


def kmeans(
    embeddings: EmbeddingMatrix,
    k: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    factor: str = "P",
) -> FactorGroup:
    """Derive ``k`` anchors for ``factor`` by clustering all embeddings."""
    result = kmeans_fit(embeddings.data.astype(np.float64), k, seed, max_iter, tol)
    return FactorGroup(
        factor=factor,
        centroids=result.centroids,
        provenance=Provenance(
            method="kmeans",
            seed=seed,
            n_samples=embeddings.n,
            n_iter=result.n_iter,
        ),
    )


def label_centroids(
    embeddings: EmbeddingMatrix,
    labels: list[str] | tuple[str, ...],
    factor: str,
) -> FactorGroup:
    """One anchor per distinct label: the mean of that label's rows.

    ``labels`` aligns with embedding rows.  Labels are processed in
    sorted order, so the block is invariant to row permutation.
    """
    if len(labels) != embeddings.n:
        raise AnchorError(
            f"{len(labels)} labels for {embeddings.n} embedding rows"
        )
    rows_by_label: dict[str, list[int]] = {}
    for idx, label in enumerate(labels):
        rows_by_label.setdefault(label, []).append(idx)
    names = tuple(sorted(rows_by_label))
    data = embeddings.data.astype(np.float64)
    cents = np.vstack([data[rows_by_label[lab]].mean(axis=0) for lab in names])
    return FactorGroup(
        factor=factor,
        centroids=cents,
        label_names=names,
        provenance=Provenance(method="label_centroids", n_samples=embeddings.n),
    )


def corpus_labels(embeddings: EmbeddingMatrix, corpus: Corpus, factor: str) -> list[str]:
    """Per-row labels for a factor, looked up by dialog id.

    Embedding ids are either a dialog_id or ``dialog_id:variant``; the part
    before the first colon keys into the corpus.
    """
    field_name = FACTOR_FIELDS.get(factor)
    if field_name is None:
        raise AnchorError(f"factor {factor!r} has no corpus labels")
    return [
        getattr(corpus.get(sid.split(":", 1)[0]), field_name)
        for sid in embeddings.ids
    ]


def build_anchor_set(
    embeddings: EmbeddingMatrix,
    corpus: Corpus | None,
    factors: tuple[str, ...] | list[str],
    mode: str = "auto",
    k: int | dict[str, int] | None = None,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> AnchorSet:
    """Derive anchors for the selected factors, assembled in canonical order.

    mode "label" forces label centroids (an error where no labels exist),
    "kmeans" forces clustering, and "auto" uses labels when the corpus
    carries them, clustering otherwise.  Tone/strategy ("P") has no corpus
    labels, so it always clusters.  Each k-means factor receives a distinct
    seed offset by its canonical position, keeping groups independent yet
    reproducible.
    """
    if mode not in ("label", "kmeans", "auto"):
        raise AnchorError(f"unknown derivation mode {mode!r}")
    wanted = set(factors)
    if not wanted:
        raise AnchorError("empty factor selection")
    unknown = wanted - set(FACTOR_CODES)
    if unknown:
        raise AnchorError(f"unknown factor codes: {sorted(unknown)}")

    def k_for(factor: str) -> int:
        if isinstance(k, dict):
            if factor not in k:
                raise AnchorError(f"factor {factor}: kmeans derivation requires k")
            return k[factor]
        if k is None:
            raise AnchorError(f"factor {factor}: kmeans derivation requires k")
        return k

    groups: list[FactorGroup] = []
    for pos, factor in enumerate(FACTOR_CODES):
        if factor not in wanted:
            continue
        has_labels = factor in FACTOR_FIELDS and corpus is not None
        use_labels = (mode == "label") or (mode == "auto" and has_labels)
        if use_labels:
            if not has_labels:
                raise AnchorError(
                    f"factor {factor}: label derivation requested but no labels exist"
                )
            labels = corpus_labels(embeddings, corpus, factor)
            groups.append(label_centroids(embeddings, labels, factor))
        else:
            groups.append(
                kmeans(
                    embeddings,
                    k_for(factor),
                    seed=seed + pos,
                    max_iter=max_iter,
                    tol=tol,
                    factor=factor,
                )
            )
    return AnchorSet(groups=tuple(groups), d=embeddings.d)


def _anchor_payload(anchor_set: AnchorSet) -> bytes:
    w = ByteWriter()
    w.u64(anchor_set.d)
    w.u64(len(anchor_set.groups))
    for g in anchor_set.groups:
        w.text(g.factor)
        w.u64(g.k)
        w.array(np.asarray(g.centroids), "float64")
        w.u32(0 if g.label_names is None else 1)
        w.text_list(list(g.label_names or ()))
        p = g.provenance
        w.text(p.method)
        w.i64(-1 if p.seed is None else p.seed)
        w.u64(p.n_samples)
        w.u64(p.n_iter)
    return w.getvalue()


def save_anchors(anchor_set: AnchorSet, path: str) -> None:
    write_envelope(path, ANCHOR_MAGIC, ANCHOR_VERSION, _anchor_payload(anchor_set))


def load_anchors(path: str, expect_d: int | None = None) -> AnchorSet:
    """Load an anchor set, optionally checking the embedding dimension."""
    r = ByteReader(read_envelope(path, ANCHOR_MAGIC, ANCHOR_VERSION))
    d = r.u64()
    n_groups = r.u64()
    groups: list[FactorGroup] = []
    for _ in range(n_groups):
        factor = r.text()
        n_anchors = r.u64()
        cents = r.array("float64")
        if cents.shape != (n_anchors, d):
            raise AnchorError(
                f"{path}: factor {factor}: stored shape {cents.shape} "
                f"does not match declared ({n_anchors}, {d})"
            )
        has_names = r.u32()
        names = tuple(r.text_list())
        method = r.text()
        seed = r.i64()
        n_samples = r.u64()
        n_iter = r.u64()
        groups.append(
            FactorGroup(
                factor=factor,
                centroids=cents,
                label_names=names if has_names else None,
                provenance=Provenance(
                    method=method,
                    seed=None if seed < 0 else seed,
                    n_samples=n_samples,
                    n_iter=n_iter,
                ),
            )
        )
    r.done()
    anchor_set = AnchorSet(groups=tuple(groups), d=d)
    if expect_d is not None and anchor_set.d != expect_d:
        raise AnchorError(
            f"{path}: anchor dimension {anchor_set.d} does not match expected {expect_d}"
        )
    return anchor_set
