"""Anchor derivation and persistence.

Anchors are fixed vectors summarizing regions of a teacher embedding
space, grouped per semantic factor (task, language, emotion, intent,
tone/strategy).  Two derivation routes exist: seeded k-means over an
embedding matrix, and per-label centroids where labels are available.
Clustering runs on unnormalized embeddings; each anchor set caches one
unit-norm copy of its stacked anchors for projection.

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


class AnchorError(ValueError):
    """Raised on invalid anchor construction or persistence mismatch."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


def _check_seed(seed: int | None) -> None:
    """Seeds are non-negative: numpy's generators take no other, and an
    ECRA file stores a missing seed as -1."""
    if seed is not None and seed < 0:
        raise AnchorError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class Provenance:
    """How a factor group was derived."""

    method: str  # "kmeans" or "label_centroids"
    seed: int | None = None
    n_samples: int = 0
    n_iter: int = 0

    def __post_init__(self) -> None:
        _check_seed(self.seed)


@dataclass(frozen=True)
class FactorGroup:
    """Anchor block for one factor: raw centroids, label names and provenance."""

    factor: str
    centroids: np.ndarray  # (k_f, d) float64, read-only, finite, no row all zero
    label_names: tuple[str, ...] | None = None
    provenance: Provenance = Provenance(method="unspecified")

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
        names = self.label_names
        if names is not None and len(names) != cents.shape[0]:
            raise AnchorError(
                f"factor {self.factor}: {len(names)} label names for {cents.shape[0]} anchors"
            )
        if names is not None and len(set(names)) < len(names):
            raise AnchorError(f"factor {self.factor}: label names {list(names)} repeat a name")
        object.__setattr__(self, "centroids", _frozen(cents))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]


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

    def stacked_unit(self) -> np.ndarray:
        """All unit anchors as one (total_k, d) read-only matrix, made once."""
        cached = self._cache.get("stacked_unit")
        if cached is None:
            cached = _frozen(_rows_over_norms(np.vstack([g.centroids for g in self.groups])))
            self._cache["stacked_unit"] = cached
        return cached

    def checksum(self) -> str:
        """sha256 over the canonical serialized content of the current
        arrays, hashed on every call; detects any drift."""
        digest = hashlib.sha256()
        for part in _anchor_payload(self):
            digest.update(part)
        return digest.hexdigest()


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: list[float]  # per-iteration mean squared distance, non-increasing
    n_iter: int


def _squared_distances(points: np.ndarray, p2: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared L2 distances from one gemm, given the row norms
    ``p2`` of ``points``.  The product is doubled, not the points: the
    doubling is exact, and it needs no (n, d) copy."""
    c2 = np.einsum("ij,ij->i", centroids, centroids)
    d2 = p2[:, None] + c2[None, :]
    cross = points @ centroids.T
    cross *= 2.0
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _weighted_init(
    points: np.ndarray, p2: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Distance-weighted seeding: each new seed drawn with p proportional to
    squared distance from the nearest already-chosen seed."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = _squared_distances(points, p2, centroids[:1]).ravel()
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all mass at chosen seeds; uniform fallback
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _squared_distances(points, p2, centroids[j : j + 1]).ravel())
    return centroids


# Rows a centroid update gathers at a time.
_MEAN_BLOCK = 256


def _cluster_mean(points: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``points[members].mean(axis=0)``, bit for bit, gathering at most
    _MEAN_BLOCK rows at a time.

    numpy sums a gathered block along axis 0 row after row, so the running
    sum is folded into the first row of the next block.  A one-column
    block is summed pairwise instead, and is gathered whole: it is O(n).
    """
    step = members.size if points.shape[1] == 1 else _MEAN_BLOCK
    total = None
    for start in range(0, members.size, step):
        block = points[members[start : start + step]]
        if total is not None:
            block[0] += total
        total = np.add.reduce(block, axis=0)
    return total / members.size


# Lloyd iterations stop after this many rounds, or once no centroid
# coordinate moves by KMEANS_TOL or more.
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6


def kmeans_fit(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Plain Lloyd iteration with distance-weighted seeding.

    The per-iteration objective is recorded and asserted non-increasing.
    Empty clusters are repaired by reseeding on the points farthest from
    their centroids (distinct point per empty cluster); since an empty
    cluster's centroid serves no point, the repair cannot raise the
    objective, so the assertion survives it.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    with np.errstate(over="ignore"):
        # the row norms every distance pass reuses; their largest bounds
        # the sum of any n squared distances between points and centroids,
        # with a factor 2 to spare for rounding
        p2 = np.einsum("ij,ij->i", points, points)
        reach = 8.0 * n * float(p2.max(initial=0.0))
    if not np.isfinite(reach):  # also NaN for a NaN entry
        if not np.isfinite(points).all():
            raise AnchorError("k-means points have a NaN or infinite entry")
        raise AnchorError("k-means points are too large: squared distances overflow")
    if k <= 0:
        raise AnchorError(f"k must be positive, got {k}")
    _check_seed(seed)
    if n < k:
        raise AnchorError(f"cannot fit {k} clusters to {n} points")
    rng = np.random.default_rng(seed)
    centroids = _weighted_init(points, p2, k, rng)
    objective: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    for it in range(KMEANS_MAX_ITER):
        d2 = _squared_distances(points, p2, centroids)
        assignments = d2.argmin(axis=1)
        member_d2 = d2[np.arange(n), assignments]
        obj = float(member_d2.mean())
        if objective and obj > objective[-1] + 1e-12:
            raise AnchorError(
                f"objective increased at iteration {it}: {objective[-1]} -> {obj}"
            )
        objective.append(obj)
        new_centroids = centroids.copy()
        counts = np.bincount(assignments, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            far_order = np.argsort(-member_d2)
            new_centroids[empties] = points[far_order[: empties.size]]
        for j in np.flatnonzero(counts):
            new_centroids[j] = _cluster_mean(points, np.flatnonzero(assignments == j))
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    d2 = _squared_distances(points, p2, centroids)
    assignments = d2.argmin(axis=1)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        objective=objective,
        n_iter=len(objective),
    )


def kmeans(embeddings: EmbeddingMatrix, k: int, seed: int, factor: str = "P") -> FactorGroup:
    """Derive ``k`` anchors for ``factor`` by clustering all embeddings.

    The fit holds the one float64 copy of the matrix; it is freed when the
    group is returned."""
    result = kmeans_fit(embeddings.data, k, seed)
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
    sorted order, so the block is invariant to row permutation.  Only one
    label's rows are widened to float64 at a time.
    """
    if len(labels) != embeddings.n:
        raise AnchorError(
            f"{len(labels)} labels for {embeddings.n} embedding rows"
        )
    rows_by_label: dict[str, list[int]] = {}
    for idx, label in enumerate(labels):
        rows_by_label.setdefault(label, []).append(idx)
    names = tuple(sorted(rows_by_label))
    data = embeddings.data
    cents = np.vstack(
        [data[rows_by_label[lab]].astype(np.float64).mean(axis=0) for lab in names]
    )
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
    _check_seed(seed)
    wanted = set(factors)
    if not wanted:
        raise AnchorError("empty factor selection")
    unknown = wanted - set(FACTOR_CODES)
    if unknown:
        raise AnchorError(f"unknown factor codes: {sorted(unknown)}")
    unknown = set(k) - set(FACTOR_CODES) if isinstance(k, dict) else set()
    if unknown:
        raise AnchorError(f"k given for unknown factor codes: {sorted(unknown)}")

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
            groups.append(kmeans(embeddings, k_for(factor), seed=seed + pos, factor=factor))
    return AnchorSet(groups=tuple(groups), d=embeddings.d)


def _anchor_payload(anchor_set: AnchorSet) -> list[bytes | np.ndarray]:
    """The parts of the serialized anchor set, as :class:`ByteWriter` keeps them."""
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
    return w.parts


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
        if seed < -1:
            raise AnchorError(f"{path}: factor {factor}: stored seed {seed} is below -1")
        n_samples = r.u64()
        n_iter = r.u64()
        groups.append(
            FactorGroup(
                factor=factor,
                centroids=cents,
                label_names=names if has_names else None,
                provenance=Provenance(
                    method=method,
                    seed=None if seed == -1 else seed,
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
