"""Corpus and embedding I/O contracts."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import build_corpus, embeddings_for
from ecr.corpus import (
    Corpus,
    CorpusError,
    CorpusHeader,
    CorpusRecord,
    EmbeddingMatrix,
    load_corpus,
    load_embeddings,
    normalize,
    normalize_rows,
    save_corpus,
    save_embeddings,
)


def test_round_trip(tmp_path, tiny_corpus):
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    loaded = load_corpus(path)
    assert loaded.header == tiny_corpus.header
    assert loaded.records == tiny_corpus.records


def test_save_is_deterministic(tmp_path, tiny_corpus):
    p1 = str(tmp_path / "a.jsonl")
    p2 = str(tmp_path / "b.jsonl")
    save_corpus(tiny_corpus, p1)
    save_corpus(tiny_corpus, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_header_inventories(tiny_corpus):
    assert tiny_corpus.header.inventory("task") == ("booking", "support")
    assert tiny_corpus.header.inventory("language") == ("en", "zh", "hi")
    with pytest.raises(CorpusError):
        tiny_corpus.header.inventory("flavor")


def test_get_by_dialog_id(tiny_corpus):
    assert tiny_corpus.get("d001").language == "zh"
    with pytest.raises(CorpusError, match="d999"):
        tiny_corpus.get("d999")


def test_duplicate_dialog_id_rejected(tmp_path, tiny_corpus):
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    lines = open(path).read().splitlines()
    lines.append(lines[1])
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match="duplicate"):
        load_corpus(path)


def test_unknown_label_rejected(tmp_path, tiny_corpus):
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    lines = open(path).read().splitlines()
    rec = json.loads(lines[1])
    rec["task"] = "smalltalk"
    lines[1] = json.dumps(rec)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match="smalltalk"):
        load_corpus(path)


def test_empty_query_rejected(tmp_path, tiny_corpus):
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    lines = open(path).read().splitlines()
    rec = json.loads(lines[1])
    rec["zh_q"] = "   "
    lines[1] = json.dumps(rec)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match="zh_q"):
        load_corpus(path)


def test_missing_field_names_line(tmp_path, tiny_corpus):
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    lines = open(path).read().splitlines()
    rec = json.loads(lines[2])
    del rec["intent"]
    lines[2] = json.dumps(rec)
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=":3"):
        load_corpus(path)


def test_malformed_json_names_line(tmp_path):
    path = str(tmp_path / "c.jsonl")
    open(path, "w").write('{"tasks": ["a"], "languages": ["en", "zh", "hi"], '
                          '"emotions": ["x"], "intents": ["y"]}\n{oops\n')
    with pytest.raises(CorpusError, match=":2"):
        load_corpus(path)


def test_empty_file_rejected(tmp_path):
    path = str(tmp_path / "c.jsonl")
    open(path, "w").write("")
    with pytest.raises(CorpusError):
        load_corpus(path)


def _rewrite_line(path, lineno, change):
    """Replace line ``lineno`` (1-based) of a saved corpus with ``change``
    applied to its parsed value, written as JSON."""
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[lineno - 1] = json.dumps(change(json.loads(lines[lineno - 1])))
    open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")


@pytest.mark.parametrize("value", [None, 5, 1.5, True, ["d000"], {"id": "d000"}])
@pytest.mark.parametrize("field_name", ["dialog_id", "task", "en_q", "hi_a"])
def test_non_string_record_field_names_line_and_field(tmp_path, tiny_corpus, field_name, value):
    # a null query loaded as the text 'None', and numbers and lists were
    # turned into text
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    _rewrite_line(path, 3, lambda rec: {**rec, field_name: value})
    with pytest.raises(CorpusError, match=f"c.jsonl:3: record field '{field_name}' is not a string"):
        load_corpus(path)


@pytest.mark.parametrize("value", ["booking", 5, None, ["booking", 1], {"booking": 1}, [["a"]]])
def test_header_inventory_must_be_a_list_of_strings(tmp_path, tiny_corpus, value):
    # the string "faq" was the inventory ('f', 'a', 'q'); a number raised TypeError
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    _rewrite_line(path, 1, lambda header: {**header, "tasks": value})
    with pytest.raises(CorpusError, match="c.jsonl:1: header inventory 'tasks' is not a list"):
        load_corpus(path)


@pytest.mark.parametrize("value", [5, "text", None, [], ["d000"], 1.5])
@pytest.mark.parametrize("lineno", [1, 2, 5])
def test_line_that_is_not_an_object_is_named(tmp_path, tiny_corpus, lineno, value):
    path = str(tmp_path / "c.jsonl")
    save_corpus(tiny_corpus, path)
    _rewrite_line(path, lineno, lambda _: value)
    with pytest.raises(CorpusError, match=f"c.jsonl:{lineno}: line is not a JSON object"):
        load_corpus(path)


def test_record_errors_keep_their_text_and_order(tmp_path, tiny_corpus):
    """The first record at fault and its first fault are reported, empty
    queries before labels, in the same words from a file and from records."""
    header = tiny_corpus.header
    good = tiny_corpus.records
    bad = [
        dataclasses.replace(good[1], zh_q=" ", task="smalltalk", intent="x"),
        dataclasses.replace(good[2], hi_q=""),
    ]
    # the records, the message without its place, and the line at fault
    cases = [
        (bad[:1], "record 'd001'{}: field 'zh_q' is empty", 2),
        ([good[0], bad[1], bad[0]], "record 'd002'{}: field 'hi_q' is empty", 3),
        ([dataclasses.replace(bad[0], zh_q="q")],
         "record 'd001'{}: task label 'smalltalk' not in header inventory", 2),
        ([dataclasses.replace(good[0], language="hi", emotion="calm")],
         "record 'd000'{}: emotion label 'calm' not in header inventory", 2),
        ([good[0], good[1], good[0]], "duplicate dialog_id 'd000'", 4),
    ]
    path = str(tmp_path / "c.jsonl")
    for records, message, lineno in cases:
        with pytest.raises(CorpusError) as built:
            Corpus(header=header, records=records)
        assert str(built.value) == message.format("")
        lines = [json.dumps(dataclasses.asdict(header))]
        lines += [json.dumps(dataclasses.asdict(rec)) for rec in records]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CorpusError) as loaded:
            load_corpus(path)
        if message.startswith("duplicate"):
            assert str(loaded.value) == f"{path}:{lineno}: {message}"
        else:
            assert str(loaded.value) == message.format(f" ({path}:{lineno})")


def test_record_query_answer_accessors(tiny_corpus):
    rec = tiny_corpus.get("d000")
    assert rec.query("zh") == "ding zuo"
    assert rec.answer("hi") == "ho gaya"
    with pytest.raises(CorpusError):
        rec.query("fr")


# ---------------------------------------------------------------------------
# Embeddings


def test_embeddings_round_trip(tmp_path):
    m = embeddings_for(["a", "b", "c"], d=5, seed=1)
    path = str(tmp_path / "e.bin")
    save_embeddings(m, path)
    loaded = load_embeddings(path)
    assert loaded.ids == m.ids
    assert loaded.data.dtype == np.float32
    assert np.array_equal(loaded.data, m.data)


def test_save_embeddings_peak_stays_near_the_matrix(tmp_path):
    # the header, matrix and id table are copied once, into the buffer
    # that is hashed and written
    import tracemalloc

    data = np.random.default_rng(0).standard_normal((4000, 768)).astype(np.float32)
    m = EmbeddingMatrix(data=data, ids=[f"d{i:06d}:en" for i in range(4000)])
    tracemalloc.start()
    try:
        save_embeddings(m, str(tmp_path / "e.bin"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * data.nbytes


def test_load_embeddings_peak_stays_near_the_matrix(tmp_path):
    # the file is read into one buffer, and the matrix is a view into it
    import tracemalloc

    data = np.random.default_rng(0).standard_normal((4000, 768)).astype(np.float32)
    path = str(tmp_path / "e.bin")
    save_embeddings(EmbeddingMatrix(data=data, ids=[f"d{i:06d}:en" for i in range(4000)]), path)
    tracemalloc.start()
    try:
        loaded = load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * data.nbytes
    assert loaded.data.flags.aligned and np.array_equal(loaded.data, data)


def test_load_embeddings_checks_rows_without_an_entry_mask(tmp_path):
    # one float64 sum per row finds the non-finite rows; no (n, d) bool mask
    import tracemalloc

    data = np.random.default_rng(0).standard_normal((4000, 768)).astype(np.float32)
    path = str(tmp_path / "e.bin")
    save_embeddings(EmbeddingMatrix(data=data, ids=[f"d{i:06d}:en" for i in range(4000)]), path)
    tracemalloc.start()
    try:
        load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * data.nbytes


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_embeddings_names_the_first_bad_row_among_extreme_ones(tmp_path, value):
    # rows of float32 extremes sum to finite float64s; only the bad rows are named
    big = np.finfo(np.float32).max
    data = np.full((4, 768), big, dtype=np.float32)
    data[1] = -big
    data[2, 5] = value
    data[3, 0] = value
    save_embeddings(EmbeddingMatrix(data=data, ids=list("abcd")), str(tmp_path / "e.bin"))
    with pytest.raises(CorpusError, match="row 2$"):
        load_embeddings(str(tmp_path / "e.bin"))
    data[2:] = big
    save_embeddings(EmbeddingMatrix(data=data, ids=list("abcd")), str(tmp_path / "e.bin"))
    assert np.array_equal(load_embeddings(str(tmp_path / "e.bin")).data, data)


def test_embeddings_non_finite_rejected(tmp_path):
    data = np.zeros((2, 3), dtype=np.float32)
    data[1, 2] = np.inf
    m = EmbeddingMatrix(data=data, ids=["a", "b"])
    path = str(tmp_path / "e.bin")
    save_embeddings(m, path)
    with pytest.raises(CorpusError, match="row 1"):
        load_embeddings(path)


def test_embeddings_id_count_mismatch():
    with pytest.raises(CorpusError):
        EmbeddingMatrix(data=np.zeros((2, 3), dtype=np.float32), ids=["only"])


# ---------------------------------------------------------------------------
# normalize


def test_normalize_three_four_five():
    out = normalize(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8], atol=1e-12)


def test_normalize_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        normalize(np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_normalize_non_finite_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        normalize(np.array([1.0, bad, 2.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalize_survives_overflow_and_underflow():
    v = np.array([3.0, -4.0, 12.0])
    want = v / 13.0
    for scale in (2.0**600, 2.0**-600, 1e300, 1e-300, 5e-324):
        assert np.allclose(normalize(v * scale), want, rtol=0, atol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_normalize_rows_bit_identical_to_plain_division():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(40, 33)) * 10.0 ** rng.uniform(-8, 8, size=(40, 1))
    rows[7] *= 1e250  # rescaled internally; must not disturb the other rows
    got = normalize_rows(rows)
    for i, row in enumerate(rows):
        if i != 7:
            assert np.array_equal(got[i], row / np.sqrt(np.dot(row, row)))
    plain = rows[7] / 1e250
    assert np.allclose(got[7], plain / np.linalg.norm(plain), rtol=0, atol=1e-15)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=16,
    ).filter(lambda v: any(abs(x) > 1e-6 for x in v))
)
def test_normalize_unit_norm(vec):
    out = normalize(np.array(vec, dtype=np.float64))
    assert abs(float(np.linalg.norm(out)) - 1.0) < 1e-9


def test_corpus_header_rejects_empty_inventory():
    with pytest.raises(CorpusError):
        CorpusHeader(tasks=(), languages=("en", "zh", "hi"), emotions=("x",), intents=("y",))


def test_corpus_rejects_bad_record_language():
    rec = CorpusRecord(
        dialog_id="d0", task="t", language="fr", emotion="e", intent="i",
        en_q="q", zh_q="q", hi_q="q", en_a="a", zh_a="a", hi_a="a",
    )
    header = CorpusHeader(tasks=("t",), languages=("en", "zh", "hi"),
                          emotions=("e",), intents=("i",))
    with pytest.raises(CorpusError, match="language"):
        Corpus(header=header, records=[rec])
