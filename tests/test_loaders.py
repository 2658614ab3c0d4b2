"""Every loader either rejects a file or returns an object that passes its
module's checks and that its saver writes back byte for byte.

Each example changes one field of a valid object, bypassing the object's
own checks, and writes it through the format's own saver, so the checksum
is valid and only the loader stands between the file and its reader.  A
corpus is text, so its examples change one line of a valid file's JSON
values instead, and write them out as the saver lays its lines out.  The
oracles are written here, apart from the loaders; the graph's is the
per-edge walk of ``test_retrieval``.

A ``train-toy`` config file has no saver: its examples change one line of
a valid file, and what ``read_config_file`` and ``_apply_config`` make of
it must equal what an oracle parse of its lines gives, or be refused.
"""

import copy
import dataclasses
import json

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
from ecr.cli import _apply_config, read_config_file
from ecr.corpus import (
    RECORD_FIELDS,
    CorpusError,
    EmbeddingMatrix,
    load_corpus,
    load_embeddings,
    save_corpus,
    save_embeddings,
)
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
from ecr.toytrain import EcrSettings, ToyTrainError, TrainConfig
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
# Corpus JSONL: a header line, then one line per record

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)  # any UTF-8 text
NOT_TEXT = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.lists(TEXT, max_size=2) | st.dictionaries(TEXT, TEXT, max_size=1)
)
INVENTORIES = ("tasks", "languages", "emotions", "intents")
LANGUAGE_CODES = ("en", "zh", "hi")


def _corpus_values():
    """The JSON value of each line of a valid corpus file."""
    header = {
        "tasks": ["faq", "退款"], "languages": list(LANGUAGE_CODES),
        "emotions": ["calm"], "intents": ["ask", "पूछो"],
    }
    records = [
        dict(zip(RECORD_FIELDS, [
            f"d{i}", task, lang, "calm", intent, "où ?", "你好", "नमस्ते", "a", "答", "उ",
        ]))
        for i, (task, lang, intent) in enumerate(
            [("faq", "en", "ask"), ("退款", "zh", "पूछो"), ("faq", "hi", "ask")]
        )
    ]
    return [header, *records]


def _line_edit(change, lines=slice(None)):
    """A mutation of one key of one line among ``lines``."""

    def mutate(values, data):
        values = copy.deepcopy(values)
        at = data.draw(st.sampled_from(range(len(values))[lines]))
        key = data.draw(st.sampled_from(sorted(values[at])))
        change(values[at], key, data)
        return values

    return mutate


def _set(value):
    def change(obj, key, data):
        obj[key] = data.draw(value)

    return change


def _replace_line(values, data):
    values = list(values)
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(NOT_TEXT | TEXT)
    return values


def _repeat_id(values, data):
    values = copy.deepcopy(values)
    source, target = (data.draw(st.integers(1, len(values) - 1)) for _ in range(2))
    values[target]["dialog_id"] = values[source]["dialog_id"]
    return values


def _set_inventory(value):
    def mutate(values, data):
        values = copy.deepcopy(values)
        values[0][data.draw(st.sampled_from(INVENTORIES))] = data.draw(value)
        return values

    return mutate


CORPUS_MUTATIONS = {
    "drop a field": _line_edit(lambda obj, key, data: obj.pop(key)),
    "null or number a field": _line_edit(_set(NOT_TEXT)),
    "text field": _line_edit(_set(TEXT), lines=slice(1, None)),
    "non-object line": _replace_line,
    "repeated id": _repeat_id,
    "string inventory": _set_inventory(TEXT),
    "inventory entries": _set_inventory(
        st.lists(TEXT | st.sampled_from(LANGUAGE_CODES + ("faq", "calm")), max_size=4)
    ),
}


def _write_corpus_values(values, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(v, ensure_ascii=False) + "\n" for v in values))


def _corpus_problem(corpus):
    header = corpus.header
    inventories = dict(zip(("task", "language", "emotion", "intent"),
                           (getattr(header, name) for name in INVENTORIES)))
    for values in inventories.values():
        if not values or not all(isinstance(v, str) for v in values):
            return "an inventory empty or not all text"
        if len(set(values)) < len(values):
            return "an inventory with a repeated label"
    if not set(header.languages) <= set(LANGUAGE_CODES):
        return "an unsupported language"
    ids = [rec.dialog_id for rec in corpus.records]
    if len(set(ids)) < len(ids):
        return "a repeated id"
    for rec in corpus.records:
        if not all(isinstance(v, str) for v in dataclasses.astuple(rec)):
            return "a field that is not text"
        if not all(getattr(rec, f"{lang}_q").strip() for lang in LANGUAGE_CODES):
            return "an empty query"
        if any(getattr(rec, name) not in values for name, values in inventories.items()):
            return "a label outside its inventory"
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
        "provenance": _unchecked(
            g.provenance,
            method=data.draw(st.text(max_size=4)), seed=data.draw(st.none() | I64),
            n_samples=data.draw(st.integers(0, 2**64 - 1)),
            n_iter=data.draw(st.integers(0, 2**64 - 1)),
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
             _embedding_problem, save_embeddings),
    "ECRA": (_anchor_set, ANCHOR_MUTATIONS, save_anchors, load_anchors, AnchorError,
             _anchor_problem, save_anchors),
    "ECRP": (_pca_model, PCA_MUTATIONS, save_pca, load_pca, RetrievalError, _pca_problem,
             save_pca),
    "ECRH": (_index, INDEX_MUTATIONS, save_index, load_index, RetrievalError, _index_problem,
             save_index),
    "JSONL": (_corpus_values, CORPUS_MUTATIONS, _write_corpus_values, load_corpus, CorpusError,
              _corpus_problem, save_corpus),
}


# ---------------------------------------------------------------------------
# train-toy config files: key = value lines

BOOL_WORDS = {"on": True, "off": False, "true": True, "false": False,
              "yes": True, "no": False, "1": True, "0": False}


def _word(text):
    if text.lower() not in BOOL_WORDS:
        raise ValueError(text)
    return BOOL_WORDS[text.lower()]


def _factor_list(text):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _number(low, high):
    return st.floats(low, high).map(repr)


def _integer(low, high):
    return st.integers(low, high).map(str)


BOOL_TEXT = st.sampled_from(sorted(BOOL_WORDS)).flatmap(
    lambda w: st.sampled_from([w, w.upper(), w.title()])
)

# key -> (where it goes, the field it sets, the oracle's reading, valid texts)
CONFIG_KEYS = {
    "learning_rate": ("cfg", "learning_rate", float, _number(1e-4, 1.0)),
    "epochs": ("cfg", "epochs", int, _integer(0, 50)),
    "batch_size": ("cfg", "batch_size", int, _integer(1, 64)),
    "seed": ("cfg", "seed", int, _integer(0, 2**40)),
    "beta1": ("cfg", "beta1", float, _number(0.0, 0.999)),
    "beta2": ("cfg", "beta2", float, _number(0.0, 0.999)),
    "eps": ("cfg", "eps", float, _number(1e-12, 1e-3)),
    "weight_decay": ("cfg", "weight_decay", float, _number(0.0, 1.0)),
    "grad_clip": ("cfg", "grad_clip", float, _number(-1.0, 5.0)),
    "holdout_fraction": ("cfg", "holdout_fraction", float, _number(0.05, 0.9)),
    "divergence_threshold": ("cfg", "divergence_threshold", float, _number(-10.0, 1e6)),
    "divergence_patience": ("cfg", "divergence_patience", int, _integer(1, 10)),
    "ecr_enabled": ("ecr", "enabled", _word, BOOL_TEXT),
    "ecr_bins": ("ecr", "n_bins", int, _integer(2, 16)),
    "ecr_factors": ("ecr", "factors", _factor_list, st.sampled_from(["T,L,E,I", "L", "I, E", ""])),
    "ecr_mode": ("ecr", "mode", str, st.sampled_from(["global", "retrieval"])),
    "ecr_k": ("ecr", "k", int, _integer(1, 4)),
    "ecr_scope": ("ecr", "scope", str, st.sampled_from(["factor", "all"])),
    "freeze_prefix": ("ecr", "freeze_prefix", _word, BOOL_TEXT),
    "data_seed": ("data", "data_seed", int, _integer(0, 99)),
    "n_per_lang": ("data", "n_per_lang", int, _integer(-3, 40)),
    "n_factors": ("data", "n_factors", int, _integer(1, 6)),
    "data_dim": ("data", "data_dim", int, _integer(4, 64)),
    "n_content": ("data", "n_content", int, _integer(1, 30)),
    "query_content": ("data", "query_content", int, _integer(1, 6)),
    "marker_repeat": ("data", "marker_repeat", int, _integer(1, 3)),
    "answer_noise": ("data", "answer_noise", float, _number(0.0, 0.5)),
}

# texts each reading refuses
UNPARSEABLE = {
    int: ["x", "2.5", "1e3", ""],
    float: ["x", "1..2", "0x10", ""],
    _word: ["maybe", "2", "onn", ""],
}

# texts that parse but lie outside what the key's setting allows
OUT_OF_RANGE = {
    "learning_rate": ["0", "-0.1", "inf", "nan"],
    "epochs": ["-1"],
    "batch_size": ["0"],
    "seed": ["-5"],
    "beta1": ["1.0", "-0.5"],
    "beta2": ["1.5", "nan"],
    "eps": ["0", "inf"],
    "weight_decay": ["-1", "inf"],
    "grad_clip": ["inf", "nan"],
    "holdout_fraction": ["0", "1", "1.5"],
    "divergence_threshold": ["-inf", "nan"],
    "divergence_patience": ["0"],
    "ecr_bins": ["1"],
    "ecr_k": ["0"],
    "ecr_mode": ["topk", "Global"],
    "ecr_scope": ["both"],
}


def _config_oracle(lines):
    """(TrainConfig, data settings) of config lines, or None if they are no config."""
    entries = {}
    for line in lines:
        text = line.split("#")[0].strip()
        if not text:
            continue
        if "=" not in text:
            return None
        key, value = (part.strip() for part in text.split("=", 1))
        if key in entries or key not in CONFIG_KEYS:
            return None
        entries[key] = value
    parsed = {"cfg": {}, "ecr": {}, "data": {}}
    for key, value in entries.items():
        where, name, read, _ = CONFIG_KEYS[key]
        try:
            parsed[where][name] = read(value)
        except ValueError:
            return None
    try:
        cfg = TrainConfig(ecr=EcrSettings(**parsed["ecr"]), **parsed["cfg"])
    except ToyTrainError:
        return None
    return cfg, parsed["data"]


def _line(data, key, value, sep="="):
    pad = data.draw(st.sampled_from(["", " ", "  "]))
    note = data.draw(st.sampled_from(["", "  # note", "#"]))
    return f"{key}{pad}{sep}{pad}{value}{note}"


def _with_value(data, entries, key, value):
    """``entries`` with ``key`` set to ``value``, at its place or at the end."""
    entries = dict(entries)
    entries[key] = value
    return [_line(data, k, v) for k, v in entries.items()]


def _repeat_key(data, entries):
    lines = [_line(data, k, v) for k, v in entries.items()]
    key = data.draw(st.sampled_from(sorted(CONFIG_KEYS)))
    again = _line(data, key, data.draw(CONFIG_KEYS[key][3]))
    if key not in entries:
        lines.append(again)
    lines.insert(data.draw(st.integers(0, len(lines))), again)
    return lines


def _drop_separator(data, entries):
    lines = [_line(data, k, v) for k, v in entries.items()]
    key = data.draw(st.sampled_from(sorted(CONFIG_KEYS)))
    lines.insert(data.draw(st.integers(0, len(lines))), _line(data, key, "", sep=""))
    return lines


def _unknown_key(data, entries):
    lines = [_line(data, k, v) for k, v in entries.items()]
    key = data.draw(st.sampled_from(["ecr", "lr", "epoch", "n_bins", "factors", "mode", "dim"]))
    lines.insert(data.draw(st.integers(0, len(lines))), _line(data, key, "1"))
    return lines


def _unparseable(data, entries):
    key = data.draw(st.sampled_from([k for k, v in CONFIG_KEYS.items() if v[2] in UNPARSEABLE]))
    bad = data.draw(st.sampled_from(UNPARSEABLE[CONFIG_KEYS[key][2]]))
    return _with_value(data, entries, key, bad)


def _out_of_range(data, entries):
    key = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    return _with_value(data, entries, key, data.draw(st.sampled_from(OUT_OF_RANGE[key])))


CONFIG_MUTATIONS = {
    "repeated key": _repeat_key,
    "missing =": _drop_separator,
    "unknown key": _unknown_key,
    "unparseable value": _unparseable,
    "out-of-range value": _out_of_range,
}


def _read_config(path):
    try:
        return _apply_config(read_config_file(str(path)))
    except ToyTrainError:
        return None


@pytest.mark.parametrize("name", sorted(CONFIG_MUTATIONS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_file_rejects_or_reads_as_the_oracle(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / "train.cfg"
    keys = data.draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), unique=True, max_size=8))
    entries = {key: data.draw(CONFIG_KEYS[key][3], label=key) for key in keys}
    lines = [_line(data, k, v) for k, v in entries.items()]
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    assert _read_config(path) == _config_oracle(lines) is not None
    lines = CONFIG_MUTATIONS[name](data, entries)
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    assert _config_oracle(lines) is None  # each mutation leaves no valid config
    assert _read_config(path) is None


@pytest.mark.parametrize("magic", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loader_rejects_or_returns_a_valid_object(tmp_path_factory, magic, data):
    make, mutations, write, load, error, problem, save = FORMATS[magic]
    path = tmp_path_factory.getbasetemp() / f"{magic}.bin"
    again = path.with_suffix(".again")
    valid = make()
    write(valid, str(path))
    assert problem(load(str(path))) is None
    name = data.draw(st.sampled_from(sorted(mutations)), label="field")
    write(mutations[name](valid, data), str(path))
    try:
        loaded = load(str(path))
    except error:
        return
    assert problem(loaded) is None, problem(loaded)
    save(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()
