"""On-device retrieval subsystem: PCA reduction and an HNSW cosine index.

PCA brings embeddings down to a small working dimension (the reference
pipeline is 768 to 64) via a dense eigendecomposition of the d x d
covariance, at every input dimension.

The index is a hierarchical navigable small-world graph built from
scratch: one padded adjacency array per layer, exponential level
assignment with the standard 1/ln(M) scale, beam search over a per-call
visited set, and diversity-aware neighbor selection.  Vectors are stored
unit-normalized in float64 so cosine similarity is a plain dot product.
Every edge is kept bidirectional within its layer, node degree is capped
at M on upper layers and 2M on layer 0, and queries report how many nodes
they touched so search cost is observable.

One search serves build and query: inserting a node runs the same level
descent (``_greedy_step``) and beam (``_beam_search``) that a query runs,
so there is one search and one adjacency layout to keep right and fast.
A hop scores a few rows of a few dozen floats, so numpy's per-call
overhead, not arithmetic, is its cost: one ``take``, one ``dot`` and one
``tolist`` per expansion, with the rest in Python floats and heaps.

A brute-force scorer provides the exact reference ranking for recall
measurements, and a small benchmark harness reports per-query latency
percentiles.
"""

from __future__ import annotations

import heapq
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .binio import ByteReader, ByteWriter, read_envelope, write_envelope
from .corpus import _rows_over_norms, normalize

PCA_MAGIC = b"ECRP"
PCA_VERSION = 1
INDEX_MAGIC = b"ECRH"
INDEX_VERSION = 2


class RetrievalError(ValueError):
    """Raised on invalid retrieval inputs or corrupted index state."""


# ---------------------------------------------------------------------------
# PCA


@dataclass
class PcaModel:
    """Orthonormal projection onto the top-r principal directions."""

    mean: np.ndarray  # (d,)
    components: np.ndarray  # (d, r), columns orthonormal
    explained_variance: np.ndarray  # (r,), non-increasing, >= 0

    @property
    def d(self) -> int:
        return self.components.shape[0]

    @property
    def r(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: largest-|entry| coordinate positive."""
    out = components.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            out[:, j] = -col
    return out


def _eigh_pca(centered: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    n = centered.shape[0]
    cov = (centered.T @ centered) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:r]
    return eigvecs[:, order], np.maximum(eigvals[order], 0.0)


# A loaded model's CᵀC may differ from the identity by this much per entry.
PCA_ORTHO_TOL = 1e-8
# A loaded index row's squared norm may differ from 1 by this much.
INDEX_UNIT_TOL = 1e-9


def fit_pca(X, r: int, seed: int = 0) -> PcaModel:
    """Fit the top-r principal directions of the rows of X.

    X is an EmbeddingMatrix or a plain (n, d) array.  The components are
    the top eigenvectors of a dense eigendecomposition of the d x d
    covariance, so a fit holds two d x d float64 matrices, the covariance
    and its eigenvectors, beyond the centred rows: 270 MB at d = 4096.
    ``seed`` has no effect on the result; it is kept only because the
    benchmark's ann workload passes it.
    Degenerate input (zero variance in every direction) produces a
    zero-variance model with a warning rather than an error.
    """
    data = np.asarray(getattr(X, "data", X), dtype=np.float64, order="C")
    if data.ndim != 2:
        raise RetrievalError("PCA input must be a 2-d matrix")
    if not np.isfinite(data).all():
        raise RetrievalError("PCA input has a NaN or infinite entry")
    n, d = data.shape
    if n < 2:
        raise RetrievalError(f"PCA needs at least 2 rows, got {n}")
    if not 1 <= r <= min(n, d):
        raise RetrievalError(f"r must be in [1, {min(n, d)}], got {r}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = data.mean(axis=0)
        centered = data - mean
        total_sq = float(np.einsum("ij,ij->", centered, centered))
    # the covariance entries are bounded by the total squared deviation
    if not np.isfinite(total_sq):
        raise RetrievalError("PCA input is too large: its squared deviations overflow")
    if not centered.any():
        warnings.warn("PCA input has zero variance; components are arbitrary axes")
        return PcaModel(
            mean=mean, components=np.eye(d, r), explained_variance=np.zeros(r)
        )
    components, variances = _eigh_pca(centered, r)
    return PcaModel(
        mean=mean,
        components=_fix_signs(components),
        explained_variance=variances,
    )


def pca_project(model: PcaModel, v: np.ndarray) -> np.ndarray:
    """components^T (v - mean); accepts one vector or a stack of rows."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != model.d:
        raise RetrievalError(
            f"vector dimension {v.shape[-1]} does not match model d={model.d}"
        )
    if not np.isfinite(v).all():
        raise RetrievalError("PCA input has a NaN or infinite entry")
    return (v - model.mean) @ model.components


def pca_reconstruct(model: PcaModel, y: np.ndarray) -> np.ndarray:
    """Back-projection: components y + mean."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != model.r:
        raise RetrievalError(
            f"vector dimension {y.shape[-1]} does not match model r={model.r}"
        )
    return y @ model.components.T + model.mean


def save_pca(model: PcaModel, path: str) -> None:
    w = ByteWriter()
    w.u64(model.d)
    w.u64(model.r)
    w.array(model.mean, "float64")
    w.array(model.components, "float64")
    w.array(model.explained_variance, "float64")
    write_envelope(path, PCA_MAGIC, PCA_VERSION, w.parts)


def _pca_error(mean: np.ndarray, components: np.ndarray, variances: np.ndarray) -> str | None:
    """The first reason stored arrays are not a PCA model, or None."""
    if components.shape[1] == 0:
        return "the model keeps no components"
    for name, values in (("mean", mean), ("components", components), ("variances", variances)):
        if not np.isfinite(values).all():
            return f"a NaN or infinite entry in the {name}"
    if np.any(variances < 0.0):
        return "a variance is negative"
    if np.any(variances[1:] > variances[:-1]):
        return "variances increase"
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(components.T @ components - np.eye(components.shape[1])).max()
    if not gap <= PCA_ORTHO_TOL:  # also for the NaN of products that overflow
        return f"components are not orthonormal: CᵀC is {gap:.3g} from the identity"
    return None


def load_pca(path: str) -> PcaModel:
    """Read a PCA file, rejecting corrupt bytes and arrays that are not a
    model: no components, non-finite entries, negative or increasing
    variances, and components further than ``PCA_ORTHO_TOL`` from
    orthonormal."""
    r = ByteReader(read_envelope(path, PCA_MAGIC, PCA_VERSION))
    d = r.u64()
    rank = r.u64()
    mean = r.array("float64")
    components = r.array("float64")
    variances = r.array("float64")
    r.done()
    if mean.shape != (d,) or components.shape != (d, rank) or variances.shape != (rank,):
        raise RetrievalError(f"{path}: stored shapes do not match declared (d={d}, r={rank})")
    problem = _pca_error(mean, components, variances)
    if problem:
        raise RetrievalError(f"{path}: {problem}")
    return PcaModel(mean=mean, components=components, explained_variance=variances)


# ---------------------------------------------------------------------------
# HNSW


@dataclass(frozen=True)
class QueryResult:
    """Top-k hits: ids with non-increasing cosine scores, plus search cost."""

    ids: tuple[str, ...]
    scores: tuple[float, ...]
    visited: int


@dataclass
class HnswIndex:
    """Layered small-world graph over unit-normalized float64 vectors.

    Layer l is one padded int32 adjacency array ``layers[l]`` of shape
    (n, 2m) on layer 0 and (n, m) above: each row holds its node's
    neighbors left-packed and padded with -1, and the rows of nodes whose
    level is below l are all -1.  Immutable once built; queries allocate
    their own scratch state, so a shared index supports concurrent readers.
    """

    m: int
    ef_construction: int
    seed: int
    data: np.ndarray  # (n, d) unit rows
    ids: list[str]
    levels: np.ndarray  # (n,) int32, each node's top layer
    layers: list[np.ndarray]  # layers[l]: (n, cap_l) int32, -1 padded
    entry_point: int

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    @property
    def max_level(self) -> int:
        return len(self.layers) - 1

    @property
    def deg0(self) -> np.ndarray:
        return np.count_nonzero(self.layers[0] >= 0, axis=1).astype(np.int32)

    def neighbors(self, layer: int, node: int) -> list[int]:
        row = self.layers[layer][node].tolist()
        return row[: row.index(-1)] if row[-1] < 0 else row


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    data = np.asarray(vectors, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise RetrievalError("index vectors must form a non-empty 2-d matrix")
    try:
        return _rows_over_norms(data)
    except ValueError:
        if not np.isfinite(data).all():
            raise RetrievalError("index vectors must be finite") from None
        raise RetrievalError("cannot index a zero vector under cosine similarity") from None


def _unit_query(v: np.ndarray, d: int) -> np.ndarray:
    q = np.asarray(v, dtype=np.float64).ravel()
    if q.shape[0] != d:
        raise RetrievalError(f"query dimension {q.shape[0]} does not match d={d}")
    try:
        return normalize(q)
    except ValueError as exc:
        raise RetrievalError(f"cannot query: {exc}") from None


def _greedy_step(data, adj: np.ndarray, q: np.ndarray, start: int) -> tuple[int, int]:
    """Hill-climb to a local similarity maximum; returns (node, touched).

    Each move goes to the first neighbor in row order with the best
    similarity, as ``np.argmax`` would pick it.  Every move strictly raises
    the similarity, so a finite walk ends within n moves; the cap turns any
    regression, or a NaN query, into an error, not a hang.
    """
    cur = start
    cur_sim = float(data[cur].dot(q))
    touched = 1
    for _ in range(data.shape[0]):
        nbrs = [x for x in adj[cur].tolist() if x >= 0]
        if not nbrs:
            return cur, touched
        sims = data.take(nbrs, 0).dot(q).tolist()
        touched += len(nbrs)
        best = max(sims)  # the first maximum, at the index np.argmax gives
        if best <= cur_sim:
            return cur, touched
        cur = nbrs[sims.index(best)]
        cur_sim = best
    raise RetrievalError(f"greedy search did not settle within {data.shape[0]} moves")


def _beam_search(
    data, adj: np.ndarray, q: np.ndarray, entries: list[int], ef: int
) -> tuple[list[tuple[float, int]], int]:
    """Best-first search on one layer.

    Seen nodes go in a per-call set that starts with the -1 padding, so a
    search allocates nothing of size n.  Returns (sim, node) pairs sorted
    best-first plus the number of distinct nodes touched.
    """
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    seen = {-1}
    results: list[tuple[float, int]] = []  # min-heap keyed by sim (worst on top)
    candidates: list[tuple[float, int]] = []  # min-heap keyed by -sim (best on top)
    for node, s in zip(entries, data.take(entries, 0).dot(q).tolist()):
        if node in seen:
            continue
        seen.add(node)
        heappush(results, (s, node))
        heappush(candidates, (-s, node))
    while len(results) > ef:
        heappop(results)
    while candidates:
        neg, node = heappop(candidates)
        if len(results) == ef and -neg < results[0][0]:
            break
        fresh = [x for x in adj[node].tolist() if x not in seen]
        if not fresh:
            continue
        seen.update(fresh)
        full = len(results) == ef
        worst = results[0][0] if full else -np.inf
        for s, nd in zip(data.take(fresh, 0).dot(q).tolist(), fresh):
            if not full:
                heappush(results, (s, nd))
                heappush(candidates, (-s, nd))
                full = len(results) == ef
                worst = results[0][0]
            elif s > worst:
                heapreplace(results, (s, nd))
                heappush(candidates, (-s, nd))
                worst = results[0][0]
    return sorted(results, reverse=True), len(seen) - 1


def _select_heuristic(
    cand: np.ndarray, sims_to_q: np.ndarray, cap: int, data: np.ndarray
) -> list[int]:
    """Diversity-aware neighbor selection.

    Candidates are scanned nearest-first; one is kept only if it is closer
    to the query than to every already-kept neighbor.  Remaining slots are
    then filled with the nearest discarded candidates, so the result has
    exactly min(cap, len(cand)) entries.  Pairwise similarities come from
    a single gemm over the candidate block.
    """
    order = np.argsort(-sims_to_q, kind="stable")
    cand = cand[order]
    sims = sims_to_q[order].tolist()
    n = cand.shape[0]
    if n <= cap:
        return cand.tolist()
    cross = data[cand] @ data[cand].T
    # best_kept[i] = max similarity from candidate i to any kept neighbor,
    # maintained with one vectorized update per accepted candidate
    best_kept = np.full(n, -np.inf)
    kept: list[int] = []
    dropped: list[int] = []
    for i in range(n):
        if len(kept) == cap:
            break
        if best_kept[i] < sims[i]:
            kept.append(i)
            np.maximum(best_kept, cross[:, i], out=best_kept)
        else:
            dropped.append(i)
    for i in dropped:
        if len(kept) == cap:
            break
        kept.append(i)
    return cand[kept].tolist()


def _set_row(adj: np.ndarray, node: int, neigh: list[int]) -> None:
    adj[node, : len(neigh)] = neigh
    adj[node, len(neigh) :] = -1


def _connect(index: HnswIndex, layer: int, node: int, picked: list[int]) -> None:
    """Link node <-> picked, re-pruning any neighbor pushed past its cap.

    A pruned edge is removed from BOTH endpoints, keeping the graph
    strictly bidirectional.
    """
    adj = index.layers[layer]
    cap = adj.shape[1]
    _set_row(adj, node, picked)
    for other in picked:
        current = index.neighbors(layer, other)
        if len(current) < cap:
            adj[other, len(current)] = node
            continue
        current.append(node)
        cand = np.asarray(current, dtype=np.int64)
        sims = index.data[cand] @ index.data[other]
        keep = _select_heuristic(cand, sims, cap, index.data)
        _set_row(adj, other, keep)
        kept = set(keep)
        for dropped in current:
            if dropped in kept:
                continue
            back = index.neighbors(layer, dropped)
            if other in back:
                back.remove(other)
                _set_row(adj, dropped, back)


def _insert(index: HnswIndex, i: int) -> None:
    """Link node i into every layer up to its level (single writer)."""
    level = int(index.levels[i])
    ep = index.entry_point
    top = int(index.levels[ep])
    q = index.data[i]
    for layer in range(top, level, -1):
        ep, _ = _greedy_step(index.data, index.layers[layer], q, ep)
    entries = [ep]
    for layer in range(min(level, top), -1, -1):
        found, _ = _beam_search(
            index.data, index.layers[layer], q, entries, index.ef_construction
        )
        entries = [node for _, node in found]
        cand = np.asarray(entries, dtype=np.int64)
        sims = np.asarray([s for s, _ in found])
        _connect(index, layer, i, _select_heuristic(cand, sims, index.m, index.data))
    if level > top:
        index.entry_point = i


def _repeated_id(ids: list[str]) -> str | None:
    """The first id that occurs a second time, or None: a repeated id would
    make an answer ambiguous."""
    seen = set()
    for rid in ids:
        if rid in seen:
            return rid
        seen.add(rid)
    return None


def build_index(
    vectors: np.ndarray,
    ids: list[str] | None = None,
    m: int = 16,
    ef_construction: int = 200,
    seed: int = 0,
) -> HnswIndex:
    """Insert all vectors in row order; deterministic under the seed.

    Ids must be distinct."""
    data = _unit_rows(vectors)
    n = data.shape[0]
    if ids is None:
        ids = [str(i) for i in range(n)]
    if len(ids) != n:
        raise RetrievalError(f"{len(ids)} ids for {n} vectors")
    repeated = _repeated_id(ids)
    if repeated is not None:
        raise RetrievalError(f"id {repeated!r} is repeated")
    if m < 2:
        raise RetrievalError(f"M must be at least 2, got {m}")
    if ef_construction < 1:
        raise RetrievalError(f"ef_construction must be positive, got {ef_construction}")
    if seed < 0:  # numpy's generators take no other
        raise RetrievalError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    # level = floor(-ln(U) / ln(M)), U uniform on (0, 1]
    u = 1.0 - rng.random(n)
    levels = np.minimum(np.floor(-np.log(u) / np.log(m)).astype(np.int32), 64)
    layers = [np.full((n, 2 * m), -1, dtype=np.int32)]
    layers += [np.full((n, m), -1, dtype=np.int32) for _ in range(int(levels.max()))]
    index = HnswIndex(
        m=m,
        ef_construction=ef_construction,
        seed=seed,
        data=data,
        ids=list(ids),
        levels=levels,
        layers=layers,
        entry_point=0,
    )
    for i in range(1, n):
        _insert(index, i)
    return index


def query(index: HnswIndex, v: np.ndarray, k: int, ef_search: int = 64) -> QueryResult:
    """Approximate top-k by cosine; returns ids, scores, and visited count."""
    data, layers = index.data, index.layers
    if data.shape[0] == 0:
        raise RetrievalError("cannot query an empty index")
    if k < 1:
        raise RetrievalError(f"k must be positive, got {k}")
    if ef_search < k:
        raise RetrievalError(f"ef_search={ef_search} must be at least k={k}")
    q = _unit_query(v, data.shape[1])
    visited = 0
    ep = index.entry_point
    for adj in layers[:0:-1]:
        ep, touched = _greedy_step(data, adj, q, ep)
        visited += touched
    found, touched = _beam_search(data, layers[0], q, [ep], ef_search)
    scores, nodes = zip(*found[:k])
    ids = index.ids
    return QueryResult(
        ids=tuple([ids[node] for node in nodes]), scores=scores, visited=visited + touched
    )


def brute_force_topk(
    vectors: np.ndarray, v: np.ndarray, k: int, ids: list[str] | None = None
) -> QueryResult:
    """Exact top-k by cosine over all rows; ties break toward the lower row."""
    if k < 1:
        raise RetrievalError(f"k must be positive, got {k}")
    data = _unit_rows(vectors)
    if ids is None:
        ids = [str(i) for i in range(data.shape[0])]
    sims = data @ _unit_query(v, data.shape[1])
    n = data.shape[0]
    k = min(k, n)
    # every row scoring at least the k-th best, ascending; the stable sort
    # then keeps the lower rows among ties at the k-th score
    cand = np.flatnonzero(sims >= sims[np.argpartition(sims, n - k)[n - k]])
    order = cand[np.argsort(-sims[cand], kind="stable")[:k]]
    return QueryResult(
        ids=tuple(ids[int(i)] for i in order),
        scores=tuple(float(sims[int(i)]) for i in order),
        visited=data.shape[0],
    )


@dataclass(frozen=True)
class LatencyReport:
    """Wall-clock query statistics in microseconds."""

    n_queries: int
    k: int
    ef_search: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    mean_visited: float


def bench_query_latency(
    index: HnswIndex,
    queries: np.ndarray,
    k: int,
    ef_search: int = 64,
    min_measurements: int = 1000,
) -> LatencyReport:
    """Time individual queries, cycling the query set until at least
    ``min_measurements`` measurements are collected."""
    if min_measurements < 1:
        raise RetrievalError(f"min_measurements must be positive, got {min_measurements}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[0] == 0:
        raise RetrievalError("empty query set")
    reps = -(-min_measurements // queries.shape[0])
    times: list[float] = []
    visited = 0
    for _ in range(reps):
        for row in queries:
            t0 = time.perf_counter_ns()
            res = query(index, row, k, ef_search)
            times.append((time.perf_counter_ns() - t0) / 1000.0)
            visited += res.visited
    arr = np.asarray(times)
    return LatencyReport(
        n_queries=arr.shape[0],
        k=k,
        ef_search=ef_search,
        mean_us=float(arr.mean()),
        p50_us=float(np.percentile(arr, 50)),
        p95_us=float(np.percentile(arr, 95)),
        p99_us=float(np.percentile(arr, 99)),
        mean_visited=visited / arr.shape[0],
    )


def save_index(index: HnswIndex, path: str) -> None:
    w = ByteWriter()
    w.u64(index.n)
    w.u64(index.d)
    w.u32(index.m)
    w.u32(index.ef_construction)
    w.i64(index.seed)
    w.i64(index.entry_point)
    w.u32(index.max_level)
    w.array(index.data, "float64")
    w.text_list(index.ids)
    w.array(index.levels, "int32")
    for adj in index.layers:
        w.array(adj, "int32")
    write_envelope(path, INDEX_MAGIC, INDEX_VERSION, w.parts)


def _structure_error(
    n: int, m: int, entry: int, levels: np.ndarray, layers: list[np.ndarray]
) -> str | None:
    """The first structural defect of a stored graph, or None.

    Vectorized checks over each layer; the neighbor tests sort one int64
    key ``src * n + dst`` per live edge, so they cost O(E log E)."""
    max_level = len(layers) - 1
    if m < 2:
        return f"M={m} is below 2"
    for layer, adj in enumerate(layers):
        cap = 2 * m if layer == 0 else m
        if adj.shape != (n, cap):
            return f"layer {layer} has shape {adj.shape}, expected {(n, cap)}"
    if not 0 <= entry < n:
        return f"entry point {entry} out of range [0, {n})"
    if levels.min() < 0 or levels.max() > max_level:
        return f"node levels outside [0, {max_level}]"
    if levels[entry] != max_level:
        return f"entry point {entry} is not on the top level {max_level}"
    nodes = np.arange(n, dtype=np.int32)
    for layer, adj in enumerate(layers):
        if adj.min() < -1 or adj.max() >= n:
            return f"layer {layer}: neighbor id outside [-1, {n})"
        # column-major, so each test runs over long contiguous rows
        cols = np.ascontiguousarray(adj.T)
        live = cols >= 0
        if np.any(live[1:] > live[:-1]):
            return f"layer {layer}: a row has a neighbor after its -1 padding"
        if np.any(cols == nodes):
            return f"layer {layer}: a node links to itself"
        if np.any(levels[cols[live]] < layer):
            return f"layer {layer}: a node links to a node below the layer"
        # rows are left-packed by now, so a row has neighbors iff its first
        # cell is live
        if np.any(live[0] & (levels < layer)):
            return f"layer {layer}: a node below the layer has neighbors"
        src = np.nonzero(live)[1].astype(np.int64)
        dst = cols[live].astype(np.int64)
        keys = np.sort(src * n + dst)
        if np.any(keys[1:] == keys[:-1]):
            return f"layer {layer}: a node lists the same neighbor twice"
        if not np.array_equal(keys, np.sort(dst * n + src)):
            return f"layer {layer}: an edge has no back edge"
    return None


def load_index(path: str) -> HnswIndex:
    """Read an index file, rejecting corrupt bytes, repeated ids, rows
    that are not finite unit vectors and invalid structure."""
    r = ByteReader(read_envelope(path, INDEX_MAGIC, INDEX_VERSION))
    n = r.u64()
    d = r.u64()
    m = r.u32()
    efc = r.u32()
    seed = r.i64()
    entry = r.i64()
    max_level = r.u32()
    data = r.array("float64")
    ids = r.text_list()
    levels = r.array("int32")
    if data.shape != (n, d) or len(ids) != n or levels.shape != (n,):
        raise RetrievalError(f"{path}: stored shapes do not match declared (n={n}, d={d})")
    layers = [r.array("int32") for _ in range(max_level + 1)]
    r.done()
    if efc < 1:
        raise RetrievalError(f"{path}: ef_construction {efc} is below 1")
    repeated = _repeated_id(ids)
    if repeated is not None:
        raise RetrievalError(f"{path}: id {repeated!r} is repeated")
    with np.errstate(over="ignore", invalid="ignore"):
        off = np.abs(np.einsum("ij,ij->i", data, data) - 1.0)
    bad = np.flatnonzero(~(off <= INDEX_UNIT_TOL))  # NaN included
    if bad.size:
        raise RetrievalError(f"{path}: row {int(bad[0])} is not a finite unit vector")
    problem = _structure_error(n, m, entry, levels, layers)
    if problem:
        raise RetrievalError(f"{path}: {problem}")
    return HnswIndex(
        m=m,
        ef_construction=efc,
        seed=seed,
        data=data,
        ids=ids,
        levels=levels,
        layers=layers,
        entry_point=entry,
    )
