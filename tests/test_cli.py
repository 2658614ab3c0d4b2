"""End-to-end command-line behavior: exit codes, files, report text."""

import json

import numpy as np
import pytest

from ecr.anchors import AnchorError, build_anchor_set, save_anchors
from ecr.binio import FileFormatError
from ecr.cli import _load_vectors, dispatch, read_config_file
from ecr.codec import CodecError
from ecr.corpus import CorpusError, EmbeddingMatrix, load_embeddings, save_embeddings
from ecr.geometry import GeometryError
from ecr.retrieval import RetrievalError
from ecr.toytrain import ToyTrainError, make_synthetic_corpus


def _run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def synth(tmp_path, capsys):
    prefix = str(tmp_path / "toy")
    code, out, err = _run(
        capsys,
        "make-synthetic", "--seed", "3", "--n-per-lang", "4",
        "--out-prefix", prefix,
    )
    assert code == 0, err
    return {
        "corpus": f"{prefix}.corpus.jsonl",
        "teacher": f"{prefix}.teacher.bin",
        "meta": f"{prefix}.meta.json",
        "dir": tmp_path,
        "stdout": out,
    }


# ---------------------------------------------------------------------------
# argument handling


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 2
    assert "invalid choice" in err


def test_unknown_flag_exits_2(capsys):
    code, _, err = _run(capsys, "make-synthetic", "--out-prefix", "x", "--zap")
    assert code == 2
    assert "unrecognized" in err


def test_no_arguments_exits_2(capsys):
    code, _, _ = _run(capsys)
    assert code == 2


def test_missing_input_file_names_module(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        "build-anchors",
        "--embeddings", str(tmp_path / "nope.bin"),
        "--corpus", str(tmp_path / "nope.jsonl"),
        "--out", str(tmp_path / "a.bin"),
    )
    assert code == 1
    assert err.startswith("error: anchors:")


def test_corrupt_binary_names_binio(capsys, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"this is not an envelope at all................")
    code, _, err = _run(
        capsys,
        "pca-fit", "--embeddings", str(bad), "--dim", "2",
        "--out", str(tmp_path / "pca.bin"),
    )
    assert code == 1
    assert err.startswith("error: binio:")


def test_malformed_k_flag_exits_1(capsys, synth, tmp_path):
    code, _, err = _run(
        capsys,
        "build-anchors",
        "--embeddings", synth["teacher"],
        "--corpus", synth["corpus"],
        "--factors", "P",
        "--mode", "kmeans",
        "--k", "P=",
        "--out", str(tmp_path / "a.bin"),
    )
    assert code == 1
    assert err.startswith("error: anchors:")


# ---------------------------------------------------------------------------
# synthetic data generation


def test_make_synthetic_outputs(synth):
    assert "# seed: 3" in synth["stdout"]
    assert "records: 12" in synth["stdout"]
    corpus_lines = open(synth["corpus"]).read().strip().splitlines()
    assert len(corpus_lines) == 13  # header plus 12 records
    meta = json.load(open(synth["meta"]))
    assert meta["seed"] == 3
    assert meta["n_per_lang"] == 4
    teacher = load_embeddings(synth["teacher"])
    assert teacher.n == 12
    assert teacher.d == meta["d"]


def test_make_synthetic_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for prefix in (a, b):
        code, _, _ = _run(
            capsys, "make-synthetic", "--seed", "9",
            "--n-per-lang", "3", "--out-prefix", prefix,
        )
        assert code == 0
    assert open(f"{a}.corpus.jsonl", "rb").read() == open(f"{b}.corpus.jsonl", "rb").read()
    assert open(f"{a}.teacher.bin", "rb").read() == open(f"{b}.teacher.bin", "rb").read()


# ---------------------------------------------------------------------------
# anchors, encode, topk


def _build_anchors(capsys, synth, out, factors="T,L,E,I", extra=()):
    return _run(
        capsys,
        "build-anchors",
        "--embeddings", synth["teacher"],
        "--corpus", synth["corpus"],
        "--factors", factors,
        "--out", out,
        *extra,
    )


def test_build_anchors_reports_sizes(capsys, synth, tmp_path):
    out = str(tmp_path / "anchors.bin")
    code, text, err = _build_anchors(capsys, synth, out)
    assert code == 0, err
    assert "# seed: 0" in text
    assert "checksum:" in text
    assert "T=3" in text and "L=3" in text
    assert (tmp_path / "anchors.bin").exists()


def test_build_anchors_kmeans_with_per_factor_k(capsys, synth, tmp_path):
    out = str(tmp_path / "anchors-p.bin")
    code, text, err = _run(
        capsys,
        "build-anchors",
        "--embeddings", synth["teacher"],
        "--corpus", synth["corpus"],
        "--factors", "P",
        "--mode", "kmeans",
        "--k", "P=2",
        "--seed", "7",
        "--out", out,
    )
    assert code == 0, err
    assert "P=2" in text
    assert "# seed: 7" in text


def test_encode_deterministic_output(capsys, synth, tmp_path):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors)[0] == 0
    out1, out2 = str(tmp_path / "e1.jsonl"), str(tmp_path / "e2.jsonl")
    for out in (out1, out2):
        code, _, err = _run(
            capsys,
            "encode", "--embeddings", synth["teacher"],
            "--anchors", anchors, "--bins", "8", "--out", out,
        )
        assert code == 0, err
    assert open(out1, "rb").read() == open(out2, "rb").read()
    rows = [json.loads(line) for line in open(out1)]
    assert len(rows) == 12
    first = rows[0]
    assert set(first) == {"id", "text", "tokens"}
    assert first["text"] == "".join(first["tokens"])
    assert all(tok.startswith("<") and tok.endswith(">") for tok in first["tokens"])


def test_encode_topk_mode_emits_fewer_tokens(capsys, synth, tmp_path):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors)[0] == 0
    code, out_text, err = _run(
        capsys,
        "encode", "--embeddings", synth["teacher"], "--anchors", anchors,
        "--mode", "topk", "--k", "1",
    )
    assert code == 0, err
    rows = [json.loads(line) for line in out_text.strip().splitlines()]
    # one token per factor under per-factor top-1
    assert all(len(row["tokens"]) == 4 for row in rows)


@pytest.mark.parametrize("k", ["0", "-1"])
def test_encode_topk_mode_rejects_k_below_one(capsys, synth, tmp_path, k):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors)[0] == 0
    code, out_text, err = _run(
        capsys,
        "encode", "--embeddings", synth["teacher"], "--anchors", anchors,
        "--mode", "topk", "--k", k,
    )
    assert code == 1
    assert out_text == ""
    assert "error: codec: k must be at least 1" in err


def test_topk_lists_descending_affinities(capsys, synth, tmp_path):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors)[0] == 0
    code, out_text, err = _run(
        capsys,
        "topk", "--embeddings", synth["teacher"], "--anchors", anchors,
        "--k", "3",
    )
    assert code == 0, err
    for line in out_text.strip().splitlines():
        row = json.loads(line)
        assert len(row["anchors"]) == 3
        affs = row["affinities"]
        assert all(b <= a + 1e-12 for a, b in zip(affs, affs[1:]))


def _teacher_width_files(tmp_path, n):
    """Anchors at d = 768 and an n-row random embedding file of that width."""
    data = make_synthetic_corpus(seed=0, n_per_lang=10, n_factors=4, d=768)
    save_anchors(
        build_anchor_set(data.embeddings, data.corpus, ("T", "L", "E", "I")),
        str(tmp_path / "anchors.bin"),
    )
    rows = np.random.default_rng(1).standard_normal((n, 768)).astype(np.float32)
    matrix = EmbeddingMatrix(data=rows, ids=[f"r{i}" for i in range(n)])
    save_embeddings(matrix, str(tmp_path / "rows.bin"))
    return rows


def test_encode_out_peak_stays_below_three_matrices(tmp_path):
    # the file is encoded a block of rows at a time, so beside the loaded
    # float32 matrix only the finished JSON lines grow with n
    import tracemalloc

    rows = _teacher_width_files(tmp_path, 2000)
    argv = [
        "encode", "--embeddings", str(tmp_path / "rows.bin"),
        "--anchors", str(tmp_path / "anchors.bin"), "--out", str(tmp_path / "p.jsonl"),
    ]
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rows.nbytes


def test_consistency_peak_stays_below_three_matrices(tmp_path):
    # the rows are projected and ranked a block at a time, so no float64
    # copy of the whole file is made beside the loaded float32 matrix
    import tracemalloc

    rows = _teacher_width_files(tmp_path, 2001)
    ids = [f"d{i // 3}:{('en', 'zh', 'hi')[i % 3]}" for i in range(len(rows))]
    save_embeddings(EmbeddingMatrix(data=rows, ids=ids), str(tmp_path / "rows.bin"))
    argv = [
        "consistency", "--embeddings", str(tmp_path / "rows.bin"),
        "--anchors", str(tmp_path / "anchors.bin"), "--topk", "2",
        "--out", str(tmp_path / "c.json"),
    ]
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rows.nbytes
    assert json.loads((tmp_path / "c.json").read_text())["n_records"] == 667


def test_load_vectors_keeps_only_the_float64_rows(tmp_path):
    # index-build, index-query and bench read the rows widened to float64;
    # the loaded float32 matrix is dropped once they are made
    import tracemalloc

    rows = _teacher_width_files(tmp_path, 4000)
    tracemalloc.start()
    try:
        ids, vectors = _load_vectors(str(tmp_path / "rows.bin"), None)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2.1 * rows.nbytes
    assert ids == [f"r{i}" for i in range(4000)]
    assert vectors.dtype == np.float64 and np.array_equal(vectors, rows)


def test_index_build_drops_the_loaded_rows_before_saving(tmp_path):
    # build_index holds the float64 rows and their unit copy; the loaded rows
    # are dropped before save_index copies the unit rows into the envelope
    import tracemalloc

    rows = _teacher_width_files(tmp_path, 2000)
    argv = [
        "index-build", "--embeddings", str(tmp_path / "rows.bin"),
        "--m", "4", "--efc", "8", "--out", str(tmp_path / "g.bin"),
    ]
    tracemalloc.start()
    try:
        assert dispatch(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.3 * rows.nbytes


def test_encode_and_topk_fail_whole_on_a_bad_row_in_a_later_block(capsys, tmp_path):
    rows = _teacher_width_files(tmp_path, 600)
    rows[513] = 0.0
    bad = EmbeddingMatrix(data=rows, ids=[f"r{i}" for i in range(600)])
    save_embeddings(bad, str(tmp_path / "bad.bin"))
    out = tmp_path / "p.jsonl"
    for command in ("encode", "topk"):
        for extra in ([], ["--out", str(out)]):
            code, out_text, err = _run(
                capsys, command, "--embeddings", str(tmp_path / "bad.bin"),
                "--anchors", str(tmp_path / "anchors.bin"), *extra,
            )
            assert code == 1
            assert out_text == ""
            assert "zero vector" in err
    assert not out.exists()


def test_encode_and_topk_check_flags_on_a_file_with_no_rows(capsys, tmp_path):
    rows = _teacher_width_files(tmp_path, 0)
    assert rows.shape == (0, 768)
    for argv, message in (
        (["encode", "--mode", "topk", "--k", "0"], "k must be at least 1"),
        (["encode", "--bins", "1"], "n_bins must be at least 2"),
        (["topk", "--k", "99"], "k must be in"),
    ):
        code, out_text, err = _run(
            capsys, *argv, "--embeddings", str(tmp_path / "rows.bin"),
            "--anchors", str(tmp_path / "anchors.bin"),
        )
        assert (code, out_text) == (1, "")
        assert message in err


# ---------------------------------------------------------------------------
# retrieval pipeline


def test_pca_index_query_bench_pipeline(capsys, synth, tmp_path):
    pca = str(tmp_path / "pca.bin")
    code, text, err = _run(
        capsys,
        "pca-fit", "--embeddings", synth["teacher"], "--dim", "4",
        "--out", pca,
    )
    assert code == 0, err
    assert "pca: 24 -> 4" in text

    index = str(tmp_path / "index.bin")
    code, text, err = _run(
        capsys,
        "index-build", "--embeddings", synth["teacher"], "--pca", pca,
        "--m", "6", "--efc", "24", "--out", index,
    )
    assert code == 0, err
    assert "index: n=12, d=4" in text

    results = str(tmp_path / "hits.jsonl")
    code, _, err = _run(
        capsys,
        "index-query", "--index", index, "--queries", synth["teacher"],
        "--pca", pca, "--k", "3", "--ef", "12", "--out", results,
    )
    assert code == 0, err
    rows = [json.loads(line) for line in open(results)]
    assert len(rows) == 12
    for row in rows:
        assert row["ids"][0] == row["query"]  # exact self-hit
        assert row["visited"] > 0

    bench_out = str(tmp_path / "bench.json")
    code, text, err = _run(
        capsys,
        "bench", "--index", index, "--queries", synth["teacher"],
        "--pca", pca, "--k", "2", "--ef", "8",
        "--min-measurements", "50", "--out", bench_out,
    )
    assert code == 0, err
    assert "latency us:" in text
    payload = json.load(open(bench_out))
    assert payload["n_queries"] >= 50
    assert payload["p50_us"] <= payload["p99_us"]


def test_index_query_without_pca_requires_matching_dim(capsys, synth, tmp_path):
    index = str(tmp_path / "index.bin")
    code, _, err = _run(
        capsys,
        "index-build", "--embeddings", synth["teacher"],
        "--m", "6", "--efc", "24", "--out", index,
    )
    assert code == 0, err
    # queries at full width work without --pca
    code, out_text, err = _run(
        capsys,
        "index-query", "--index", index, "--queries", synth["teacher"],
        "--k", "1", "--ef", "4",
    )
    assert code == 0, err
    assert len(out_text.strip().splitlines()) == 12


# ---------------------------------------------------------------------------
# diagnostics


def test_geometry_label_partition(capsys, synth, tmp_path):
    out = str(tmp_path / "geom.json")
    code, text, err = _run(
        capsys,
        "geometry", "--embeddings", synth["teacher"],
        "--partition", "labels", "--corpus", synth["corpus"],
        "--factor", "L", "--out", out,
    )
    assert code == 0, err
    assert "partition: labels, 3 manifolds" in text
    payload = json.load(open(out))
    assert payload["ratio"] == pytest.approx(
        payload["intra"] / payload["inter"]
    )
    # languages dominate the teacher space, so they separate cleanly
    assert payload["ratio"] < 0.5


def test_geometry_anchor_partition(capsys, synth, tmp_path):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors, factors="L")[0] == 0
    code, text, err = _run(
        capsys,
        "geometry", "--embeddings", synth["teacher"],
        "--partition", "anchors", "--anchors", anchors,
    )
    assert code == 0, err
    assert "partition: anchors" in text


def test_geometry_labels_without_corpus_errors(capsys, synth):
    code, _, err = _run(
        capsys, "geometry", "--embeddings", synth["teacher"],
    )
    assert code == 1
    assert err.startswith("error: geometry:")
    assert "--corpus" in err


def test_purity_on_synthetic_teacher_is_one(capsys, synth, tmp_path):
    out = str(tmp_path / "purity.json")
    code, text, err = _run(
        capsys,
        "purity", "--embeddings", synth["teacher"],
        "--corpus", synth["corpus"], "--out", out,
    )
    assert code == 0, err
    assert "purity overall = 1.000000 over 12 samples" in text
    payload = json.load(open(out))
    assert payload["overall"] == 1.0
    assert set(payload["per_language"]) == {"en", "zh", "hi"}


def test_consistency_exact_on_identical_variants(capsys, synth, tmp_path):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors)[0] == 0
    teacher = load_embeddings(synth["teacher"])
    rows, ids = [], []
    for i, did in enumerate(teacher.ids[:5]):
        for lang in ("en", "zh", "hi"):
            rows.append(teacher.data[i])
            ids.append(f"{did}:{lang}")
    variants = str(tmp_path / "variants.bin")
    save_embeddings(EmbeddingMatrix(data=np.stack(rows), ids=ids), variants)
    out = str(tmp_path / "consistency.json")
    code, text, err = _run(
        capsys,
        "consistency", "--embeddings", variants, "--anchors", anchors,
        "--topk", "2", "--out", out,
    )
    assert code == 0, err
    assert "records: 5" in text
    payload = json.load(open(out))
    assert payload["exact_match_rate"] == 1.0
    assert payload["mean_pairwise_jaccard"] == 1.0


def test_consistency_requires_language_suffix(capsys, synth, tmp_path):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors)[0] == 0
    code, _, err = _run(
        capsys,
        "consistency", "--embeddings", synth["teacher"], "--anchors", anchors,
    )
    assert code == 1
    assert err.startswith("error: geometry:")
    assert "language" in err


@pytest.mark.parametrize(
    "ids, message",
    [
        (["d1:en", "d1:zh", "d1:hi", "d1:en"], "'d1:en' repeats a variant row"),
        (["d1:en", "d1:zh", "d1:hi", "d1:fr"], "'d1:fr' names a language outside"),
        (["d1:en", "d1:zh"], "record 'd1' is missing language variant 'hi'"),
    ],
)
def test_consistency_rejects_repeated_unknown_or_missing_variants(
    capsys, synth, tmp_path, ids, message
):
    anchors = str(tmp_path / "anchors.bin")
    assert _build_anchors(capsys, synth, anchors)[0] == 0
    teacher = load_embeddings(synth["teacher"])
    variants = str(tmp_path / "variants.bin")
    save_embeddings(EmbeddingMatrix(data=teacher.data[: len(ids)], ids=ids), variants)
    code, _, err = _run(
        capsys,
        "consistency", "--embeddings", variants, "--anchors", anchors,
    )
    assert code == 1
    assert err.startswith("error: geometry:")
    assert message in err


# ---------------------------------------------------------------------------
# training commands


def _write_config(tmp_path, extra=""):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "epochs = 2          # quick run\n"
        "batch_size = 16\n"
        "learning_rate = 0.05\n"
        "holdout_fraction = 0.25\n"
        "n_per_lang = 6\n"
        "\n"
        + extra
    )
    return str(cfg)


def test_train_toy_single_arm_with_config(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "report.json")
    code, text, err = _run(
        capsys, "train-toy", "--config", cfg, "--seed", "5", "--out", out,
    )
    assert code == 0, err
    assert "# seed: 5" in text
    assert "baseline" in text
    payload = json.load(open(out))
    assert payload["arm"] == "baseline"
    assert payload["seed"] == 5
    assert len(payload["loss_curve"]) > 0


def test_train_toy_ecr_flag_enables_conditioning(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "report.json")
    code, text, err = _run(
        capsys, "train-toy", "--config", cfg, "--ecr", "on",
        "--bins", "4", "--out", out,
    )
    assert code == 0, err
    payload = json.load(open(out))
    assert payload["arm"] == "ecr"
    assert payload["config"]["ecr"]["enabled"] is True
    assert payload["config"]["ecr"]["n_bins"] == 4


def test_train_toy_deterministic_across_invocations(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        code, _, err = _run(
            capsys, "train-toy", "--config", cfg, "--ecr", "on", "--out", out,
        )
        assert code == 0, err
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_train_toy_paired_table(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "paired.json")
    code, text, err = _run(
        capsys, "train-toy", "--config", cfg, "--paired", "--out", out,
    )
    assert code == 0, err
    payload = json.load(open(out))
    assert set(payload) >= {"baseline", "ecr", "table"}
    assert [row["arm"] for row in payload["table"]] == ["baseline", "ecr"]
    assert "baseline" in text and "ecr" in text


def test_train_toy_ablation_rows(capsys, tmp_path):
    cfg = _write_config(tmp_path, extra="epochs = 1\n")
    out = str(tmp_path / "ablation.json")
    code, text, err = _run(
        capsys, "train-toy", "--config", cfg, "--ablation", "--out", out,
    )
    assert code == 0, err
    payload = json.load(open(out))
    arms = [row["arm"] for row in payload["rows"]]
    assert arms == ["none", "L", "E", "I", "L+E+I"]
    assert "none" in text


def test_train_toy_paired_and_ablation_exclude_each_other(capsys):
    code, out, err = _run(capsys, "train-toy", "--paired", "--ablation")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: ecr train-toy")
    assert "argument --ablation: not allowed with argument --paired" in err


def test_train_toy_rejects_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rte = 0.1\n")
    code, _, err = _run(capsys, "train-toy", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: toytrain:")
    assert "learning_rte" in err


def test_train_toy_rejects_precision_key(capsys, tmp_path):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("precision = float32\n")
    code, _, err = _run(capsys, "train-toy", "--config", str(cfg))
    assert code == 1
    assert "unknown config key 'precision'" in err


def test_train_toy_rejects_bare_ecr_key(capsys, tmp_path):
    # the nested settings are set through ecr_* keys, never as one value
    cfg = tmp_path / "nested.cfg"
    cfg.write_text("ecr = on\n")
    code, _, err = _run(capsys, "train-toy", "--config", str(cfg))
    assert code == 1
    assert "unknown config key 'ecr'" in err


def test_train_toy_rejects_zero_batch_size(capsys, tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("batch_size = 0\n")
    code, out, err = _run(capsys, "train-toy", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: toytrain: batch_size must be at least 1, got 0\n"


def test_config_file_syntax_errors_name_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochs = 2\nnot a pair\n")
    from ecr.toytrain import ToyTrainError

    with pytest.raises(ToyTrainError, match=r"bad\.cfg:2"):
        read_config_file(str(cfg))


def test_config_file_parses_comments_and_blanks(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(
        "# full line comment\n"
        "\n"
        "epochs = 3   # trailing comment\n"
        "ecr_factors = T, L\n"
    )
    entries = read_config_file(str(cfg))
    assert entries == {"epochs": "3", "ecr_factors": "T, L"}


def test_report_rerenders_saved_run(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    out = str(tmp_path / "report.json")
    code, text1, err = _run(
        capsys, "train-toy", "--config", cfg, "--seed", "2", "--out", out,
    )
    assert code == 0, err
    code, text2, err = _run(capsys, "report", "--input", out)
    assert code == 0, err
    assert "# seed: 2" in text2
    # the re-render contains the same summary content
    assert text2 in text1


def test_report_missing_file_exits_1(capsys, tmp_path):
    code, _, err = _run(capsys, "report", "--input", str(tmp_path / "no.json"))
    assert code == 1
    assert err.startswith("error: toytrain:")


def test_train_toy_rejects_an_ecr_mode_the_codec_has_not(capsys, tmp_path):
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("ecr_enabled = on\necr_mode = topk\n")
    code, out, err = _run(capsys, "train-toy", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == "error: toytrain: unknown ECR mode 'topk'\n"


@pytest.mark.parametrize(
    "error, label",
    [
        (CorpusError, "corpus"),
        (AnchorError, "anchors"),
        (CodecError, "codec"),
        (RetrievalError, "retrieval"),
        (GeometryError, "geometry"),
        (ToyTrainError, "toytrain"),
        (FileFormatError, "binio"),
        (ValueError, "stub"),
        (KeyError, "stub"),
        (FileNotFoundError, "stub"),
        (np.linalg.LinAlgError, "stub"),
        (lambda text: json.JSONDecodeError(text, "", 0), "stub"),
    ],
)
def test_each_error_is_labelled_by_the_module_that_defines_it(capsys, monkeypatch, error, label):
    # the stub renames its subcommand's module, so that only an error from
    # outside the package prints that name
    def stub(args):
        args.module = "stub"
        raise error("boom")

    monkeypatch.setattr("ecr.cli.cmd_report", stub)
    code, out, err = _run(capsys, "report", "--input", "x.json")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {label}: ") and "boom" in err


@pytest.mark.parametrize("rate", ["-1.0", "0.0", "nan", "inf"])
def test_train_toy_rejects_learning_rate_that_cannot_descend(capsys, tmp_path, rate):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(f"learning_rate = {rate}\n")
    code, out, err = _run(capsys, "train-toy", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: toytrain: learning_rate must be finite and positive")
