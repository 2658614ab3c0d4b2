"""Every loader either rejects a file or returns an object that passes its
module's checks.

Each example changes one field of a valid object, bypassing the object's
own checks, and writes it through the format's own saver, so the checksum
is valid and only the loader stands between the file and its reader.  The
oracles are written here, apart from the loaders; the graph's is the
per-edge walk of ``test_retrieval``.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecr.anchors import (
    FACTOR_CODES,
    AnchorError,
    AnchorSet,
    FactorGroup,
    Provenance,
    load_anchors,
    save_anchors,
)
from ecr.corpus import CorpusError, EmbeddingMatrix, load_embeddings, save_embeddings
from ecr.retrieval import (
    PCA_ORTHO_TOL,
    RetrievalError,
    build_index,
    fit_pca,
    load_index,
    load_pca,
    save_index,
    save_pca,
)
from test_retrieval import _walk_problems

I64 = st.integers(-(2**63), 2**63 - 1)
U32 = st.integers(0, 2**32 - 1)
LABELS = st.none() | st.lists(st.sampled_from("abc"), max_size=4).map(tuple)


def _unchecked(obj, **changes):
    """A copy of a dataclass with fields changed and its checks skipped."""
    out = copy.copy(obj)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    return out


def _set_entry(data, arr, values):
    out = np.array(arr)
    index = tuple(data.draw(st.integers(0, n - 1)) for n in out.shape)
    out[index] = data.draw(values)
    return out


def _cut(data, arr, axis):
    keep = data.draw(st.integers(0, arr.shape[axis]))
    return np.array(np.take(arr, range(keep), axis=axis))


def _unit_problem(rows):
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", rows, rows)
    if not np.all(np.abs(sq - 1.0) <= 1e-12):
        return "a row is not a finite unit vector"
    return None


# ---------------------------------------------------------------------------
# ECRE: embedding matrices


def _embeddings():
    data = np.random.default_rng(1).normal(size=(6, 4)).astype(np.float32)
    return EmbeddingMatrix(data=data, ids=[f"d{i}:en" for i in range(6)])


EMBEDDING_MUTATIONS = {
    "entry": lambda m, data: _unchecked(m, data=_set_entry(data, m.data, st.floats(width=32))),
    "rows": lambda m, data: _unchecked(m, data=_cut(data, m.data, 0)),
    "columns": lambda m, data: _unchecked(m, data=_cut(data, m.data, 1)),
    "ids": lambda m, data: _unchecked(m, ids=data.draw(st.lists(st.text(max_size=4), max_size=8))),
}


def _embedding_problem(m):
    if m.data.dtype != np.float32 or m.data.ndim != 2 or len(m.ids) != m.data.shape[0]:
        return "shape"
    if not np.isfinite(m.data).all():
        return "a non-finite entry"
    return None


# ---------------------------------------------------------------------------
# ECRA: anchor sets


def _anchor_set():
    rng = np.random.default_rng(2)
    return AnchorSet(
        groups=(
            FactorGroup("T", rng.normal(size=(3, 5)), ("a", "b", "c")),
            FactorGroup("L", rng.normal(size=(3, 5)), ("en", "hi", "zh")),
            FactorGroup("P", rng.normal(size=(2, 5)), None, Provenance("kmeans", 4, 9, 3)),
        ),
        d=5,
    )


def _group_mutation(change):
    """A mutation of one field of one group of the set."""

    def mutate(s, data):
        at = data.draw(st.integers(0, len(s.groups) - 1))
        groups = list(s.groups)
        groups[at] = _unchecked(groups[at], **change(groups[at], data))
        return _unchecked(s, groups=tuple(groups), _cache={})

    return mutate


def _zero_row(g, data):
    cents = np.array(g.centroids)
    cents[data.draw(st.integers(0, g.k - 1))] = 0.0
    return {"centroids": cents}


ANCHOR_MUTATIONS = {
    "entry": _group_mutation(
        lambda g, data: {"centroids": _set_entry(data, g.centroids, st.floats())}
    ),
    "zero row": _group_mutation(_zero_row),
    "rows": _group_mutation(lambda g, data: {"centroids": _cut(data, g.centroids, 0)}),
    "columns": _group_mutation(lambda g, data: {"centroids": _cut(data, g.centroids, 1)}),
    "labels": _group_mutation(lambda g, data: {"label_names": data.draw(LABELS)}),
    "factor": _group_mutation(lambda g, data: {
        "factor": data.draw(st.sampled_from(FACTOR_CODES + ("X", "")))
    }),
    "provenance": _group_mutation(lambda g, data: {
        "provenance": Provenance(
            data.draw(st.text(max_size=4)), data.draw(st.none() | I64),
            data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)),
        )
    }),
    "groups": lambda s, data: _unchecked(
        s, groups=tuple(data.draw(st.lists(st.sampled_from(s.groups), max_size=4))), _cache={}
    ),
    "d": lambda s, data: _unchecked(s, d=data.draw(st.integers(0, 8)), _cache={}),
}


def _anchor_problem(s):
    factors = [g.factor for g in s.groups]
    if not factors or factors != [c for c in FACTOR_CODES if c in factors]:
        return "factors missing, repeated or out of canonical order"
    for g in s.groups:
        cents = g.centroids
        if cents.ndim != 2 or cents.shape[0] == 0 or cents.shape[1] != s.d:
            return "shape"
        if not np.isfinite(cents).all() or not cents.any(axis=1).all():
            return "a non-finite entry or a zero anchor"
        names = g.label_names
        if names is not None and (len(names) != len(cents) or len(set(names)) < len(names)):
            return "label names"
    return _unit_problem(s.stacked_unit())


# ---------------------------------------------------------------------------
# ECRP: PCA models


def _pca_model():
    return fit_pca(np.random.default_rng(3).normal(size=(20, 6)), 3)


def _pca_field(name, change):
    def mutate(model, data):
        return dataclasses.replace(model, **{name: change(getattr(model, name), data)})

    return mutate


PCA_MUTATIONS = {
    **{
        f"{name} entry": _pca_field(name, lambda arr, data: _set_entry(data, arr, st.floats()))
        for name in ("mean", "components", "explained_variance")
    },
    "mean length": _pca_field("mean", lambda arr, data: _cut(data, arr, 0)),
    "variance length": _pca_field("explained_variance", lambda arr, data: _cut(data, arr, 0)),
    "component count": _pca_field("components", lambda arr, data: _cut(data, arr, 1)),
    "scaled components": _pca_field("components", lambda arr, data: arr * data.draw(st.floats())),
    "variance order": _pca_field("explained_variance", lambda arr, data: arr[::-1].copy()),
    "rank": lambda model, data: dataclasses.replace(
        model,
        components=_cut(data, model.components, 1),
        explained_variance=model.explained_variance[: data.draw(st.integers(0, model.r))],
    ),
}


def _pca_problem(model):
    mean, comps, var = model.mean, model.components, model.explained_variance
    if comps.ndim != 2 or mean.shape != comps.shape[:1] or var.shape != comps.shape[1:]:
        return "shape"
    if comps.shape[1] == 0:
        return "no components"
    if not all(np.isfinite(a).all() for a in (mean, comps, var)):
        return "a non-finite entry"
    if (var < 0).any() or (np.diff(var) > 0).any():
        return "variances negative or increasing"
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(comps.T @ comps - np.eye(comps.shape[1])).max()
    if not gap <= PCA_ORTHO_TOL:
        return "components not orthonormal"
    return None


# ---------------------------------------------------------------------------
# ECRH: graph indices


def _index():
    vectors = np.random.default_rng(4).normal(size=(40, 6))
    index = build_index(vectors, m=3, ef_construction=12, seed=1)
    assert index.max_level >= 1
    return index


def _index_copy(ix, **changes):
    fields = {"data": ix.data.copy(), "ids": list(ix.ids), "levels": ix.levels.copy()}
    fields["layers"] = [a.copy() for a in ix.layers]
    return dataclasses.replace(ix, **{**fields, **changes})


def _edge_edit(ix, data):
    """One cell of one row set to an id, or an edge added or removed at
    both of its ends, rows kept left-packed."""
    ix = _index_copy(ix)
    layer = data.draw(st.integers(0, ix.max_level))
    members = np.flatnonzero(ix.levels >= layer).tolist()
    node, other = data.draw(st.sampled_from(members)), data.draw(st.sampled_from(members))
    adj = ix.layers[layer]
    if data.draw(st.booleans()):
        adj[node, data.draw(st.integers(0, adj.shape[1] - 1))] = data.draw(st.integers(-2, ix.n))
        return ix
    linked = other in ix.neighbors(layer, node)
    for a, b in ((node, other), (other, node)):
        row = ix.neighbors(layer, a)
        row = [x for x in row if x != b] if linked else row + [b]
        if len(row) > adj.shape[1]:
            break
        adj[a] = -1
        adj[a, : len(row)] = row
    return ix


def _top_layer_edit(ix, data):
    """The layers without the top one, or with an empty one above it."""
    if data.draw(st.booleans()):
        return [a.copy() for a in ix.layers[:-1]]
    return [*ix.layers, np.full((ix.n, ix.m), -1, np.int32)]


INDEX_MUTATIONS = {
    "data entry": lambda ix, data: _index_copy(ix, data=_set_entry(data, ix.data, st.floats())),
    "data row scale": lambda ix, data: _index_copy(
        ix, data=ix.data * np.where(np.arange(ix.n) == 0, data.draw(st.floats()), 1.0)[:, None]
    ),
    "data rows": lambda ix, data: _index_copy(ix, data=_cut(data, ix.data, 0)),
    "data columns": lambda ix, data: _index_copy(ix, data=_cut(data, ix.data, 1)),
    "id": lambda ix, data: _index_copy(
        ix, ids=ix.ids[:-1] + [data.draw(st.sampled_from(ix.ids) | st.text(max_size=4))]
    ),
    "ids": lambda ix, data: _index_copy(ix, ids=ix.ids[: data.draw(st.integers(0, ix.n))]),
    "level": lambda ix, data: _index_copy(
        ix, levels=_set_entry(data, ix.levels, st.integers(-(2**31), 2**31 - 1))
    ),
    "edge": _edge_edit,
    "top layer": lambda ix, data: _index_copy(ix, layers=_top_layer_edit(ix, data)),
    "m": lambda ix, data: _index_copy(ix, m=data.draw(U32)),
    "ef_construction": lambda ix, data: _index_copy(ix, ef_construction=data.draw(U32)),
    "entry point": lambda ix, data: _index_copy(ix, entry_point=data.draw(I64)),
    "seed": lambda ix, data: _index_copy(ix, seed=data.draw(I64)),
}


def _index_problem(ix):
    n, top = len(ix.ids), len(ix.layers) - 1
    if ix.data.ndim != 2 or ix.data.shape[0] != n or ix.levels.shape != (n,):
        return "shape"
    if len(set(ix.ids)) < n:
        return "a repeated id"
    if ix.m < 2 or ix.ef_construction < 1:
        return "M below 2 or ef_construction below 1"
    for layer, adj in enumerate(ix.layers):
        live = adj >= 0
        if adj.shape != (n, 2 * ix.m if layer == 0 else ix.m):
            return f"layer {layer}: shape"
        if (adj < -1).any() or (adj >= n).any():
            return f"layer {layer}: an id outside [-1, n)"
        if (live[:, 1:] > live[:, :-1]).any():
            return f"layer {layer}: a row is not left-packed"
    if ix.levels.min() < 0 or ix.levels.max() > top:
        return "levels"
    if not 0 <= ix.entry_point < n or ix.levels[ix.entry_point] != top:
        return "entry point"
    if _walk_problems(ix):
        return "the edge walk"
    return _unit_problem(ix.data)


FORMATS = {
    "ECRE": (_embeddings, EMBEDDING_MUTATIONS, save_embeddings, load_embeddings, CorpusError,
             _embedding_problem),
    "ECRA": (_anchor_set, ANCHOR_MUTATIONS, save_anchors, load_anchors, AnchorError,
             _anchor_problem),
    "ECRP": (_pca_model, PCA_MUTATIONS, save_pca, load_pca, RetrievalError, _pca_problem),
    "ECRH": (_index, INDEX_MUTATIONS, save_index, load_index, RetrievalError, _index_problem),
}


@pytest.mark.parametrize("magic", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loader_rejects_or_returns_a_valid_object(tmp_path_factory, magic, data):
    make, mutations, save, load, error, problem = FORMATS[magic]
    valid = make()
    assert problem(valid) is None
    name = data.draw(st.sampled_from(sorted(mutations)), label="field")
    changed = mutations[name](valid, data)
    path = str(tmp_path_factory.getbasetemp() / f"{magic}.bin")
    save(changed, path)
    try:
        loaded = load(path)
    except error:
        return
    assert problem(loaded) is None, problem(loaded)
