"""Golden digests of the report JSON the experiments write and of the
set-up artifacts.

A small seeded paired run, ablation sweep and geometry report are
serialised as the CLI writes them and hashed; a rewrite of the training
loop, the evaluation passes or the manifold statistics that changes any
byte of them changes a digest.  The set-up path is pinned the same way:
the ``make-synthetic`` files, the ``build-anchors`` anchor file and
stdout, and one seeded k-means fit.  So are the files and stdout of
``encode`` and ``topk``, over a matrix that is not a whole number of the
CLI's row blocks and over a matrix with no rows, and the report and
stdout of ``consistency`` over such a matrix.  Single-arm reports pin the
retrieval-mode and frozen-prefix training paths, and ``train-toy``'s
stdout and ``--out`` JSON are pinned in each of its four modes.  So are
one-row codec passes: ``project_batch`` of single rows and
``sample_prefix`` ids, at the encode bench's width and at the paired
run's, each also with its rows scaled by 1e200 and 1e-200.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import astuple, replace

import numpy as np
import pytest

from ecr.anchors import build_anchor_set, kmeans_fit
from ecr.codec import project_batch
from ecr.cli import dispatch
from ecr.corpus import RECORD_FIELDS, EmbeddingMatrix, save_embeddings
from ecr.geometry import anchor_labels, compute_geometry
from ecr.toytrain import (
    TrainConfig,
    _pooled_queries,
    build_toy_anchors,
    init_model,
    make_samples,
    make_synthetic_corpus,
    run_ablation,
    run_experiment,
    run_single_arm,
    sample_prefix,
    split_records,
)


GOLDEN = {
    "run_experiment": "c8900f35eb62c7d18e9e628ce752176d8c32d83471a6f1f8e3f339f707611965",
    "run_ablation": "b7e2e41e4b70b00e5760f84b9549a148bdd1afaf095192daeaa9dfef4d93c09e",
    "compute_geometry": "f4f65c9822faba00960a9bb06f6f2b83315dc1f452957f80c2acd1a5ca4ebce1",
    "make_synthetic": "e3993c59c0c50bb06c4bd69ce114d83e52bc7a1b6a77f163728c6b4f570a213f",
    "build_anchors": "3f1605fbcb8ecc57a50efc06c371288a0d9bf74d57a426358d755d0af8c3f41a",
    "kmeans_fit": "9019e4175ff476290854f03b2011754fe4e3a72e40565995806ec4490e6884a1",
    "paired_setup": "0a419de28b2a327b4b22758810cf26a1a180019b39653ce978930710faef5de1",
    "encode_global": "ddc766ef1f7394dbbb96ac41d73a6b5ca573cba26e1e80afb136e467767b1460",
    "encode_topk": "ea34ef177ae63e64fdd6fa166c8feb150528f7eb73e82aade3670efd3f5695a6",
    "topk": "50c6c9aadc537772a8e6fed0923e26a35fc48335dd2c3e62b391d2f77f96f068",
    "encode_stdout": "2e3fa0d5d40a8684b785de8c7147807e03aa69378bc9686c04f0b06ffb6e9426",
    "single_arm_retrieval": "a24ad253d286691024eb961873ed7af55362996a0183905a847511a76bffa1ae",
    "single_arm_retrieval_all": "b758b5b1c19e9334afda8be719806e51b76a3af13096b482adf144446ba98c6b",
    "single_arm_frozen": "24a2a92c8b0e68ddae425c65c5c96f2b9fb3a1e587dfb81d5c5f1db1986a4dd9",
    "consistency": "3ce7d48e9bb027367c54508c652b1e9f48c719003d64ed7b51eccf394ed23015",
    "train_toy_single": "d5f3e6d79c78a764b2c277c2d33d75238c7df9b172e738cc0e8e0c8cd397c619",
    "train_toy_ecr": "818a07c45a7af86d46b3ad91f034384a676f310df2fbfad30926509f2a78010d",
    "train_toy_paired": "60b0f93ef4ad41f721c9f1c269a21904071b8e16b0e530fc70076d6f695fabf8",
    "train_toy_ablation": "512c6f2167a1c40720fb8be0feb5c407bfc222118b1660759635d01bf362f982",
    "one_row_encode": "c8009df22a5044f164a0b1b0b93a7c82d778ffd2b6239c27a48d2980c83044d9",
    "one_row_paired": "05e3565d6079ed97fcfee59da6a564ade4da4c419613858f4db4a7b11eeff6b6",
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def toy():
    data = make_synthetic_corpus(seed=3, n_per_lang=20)
    anchors = build_toy_anchors(data, seed=3)
    return data, anchors, TrainConfig(seed=3, epochs=2)


def test_run_experiment_json_digest(toy):
    data, anchors, cfg = toy
    outcome = run_experiment(data, anchors, cfg)
    assert _digest(outcome.to_dict()) == GOLDEN["run_experiment"]


SINGLE_ARMS = {
    "single_arm_retrieval": dict(mode="retrieval", k=2),
    "single_arm_retrieval_all": dict(mode="retrieval", k=3, scope="all"),
    "single_arm_frozen": dict(freeze_prefix=True),
}


@pytest.mark.parametrize("name", sorted(SINGLE_ARMS))
def test_run_single_arm_json_digest(toy, name):
    data, anchors, cfg = toy
    cfg = replace(cfg, ecr=replace(cfg.ecr, enabled=True, **SINGLE_ARMS[name]))
    _, report = run_single_arm(data, anchors, cfg)
    assert _digest(report.to_dict()) == GOLDEN[name]


def test_run_ablation_rows_digest(toy):
    data, anchors, cfg = toy
    assert _digest(run_ablation(data, anchors, cfg)) == GOLDEN["run_ablation"]


def test_compute_geometry_digest(toy):
    data, anchors, _ = toy
    teacher = data.embeddings
    reports = [
        compute_geometry(teacher, labels, "labels").to_dict()
        for labels in (
            [rec.language for rec in data.corpus.records],
            [rec.task for rec in data.corpus.records],
        )
    ]
    reports.append(compute_geometry(teacher, anchor_labels(teacher, anchors), "anchors").to_dict())
    assert _digest(reports) == GOLDEN["compute_geometry"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def setup_files(tmp_path_factory):
    """``make-synthetic`` at d = 96, then ``build-anchors`` over it with
    every factor, so that label centroids and k-means both run."""
    root = tmp_path_factory.mktemp("setup")
    prefix = str(root / "toy")
    outs = {}
    for name, argv in (
        ("make_synthetic", [
            "make-synthetic", "--seed", "5", "--n-per-lang", "40", "--n-factors", "4",
            "--dim", "96", "--out-prefix", prefix,
        ]),
        ("build_anchors", [
            "build-anchors", "--embeddings", f"{prefix}.teacher.bin",
            "--corpus", f"{prefix}.corpus.jsonl", "--factors", "T,L,E,I,P",
            "--k", "P=8", "--seed", "5", "--out", str(root / "anchors.bin"),
        ]),
    ):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert dispatch(argv) == 0
        outs[name] = printed.getvalue().replace(str(root), "<dir>")
    return root, outs


def test_make_synthetic_outputs_digest(setup_files):
    root, outs = setup_files
    parts = [outs["make_synthetic"].encode()]
    for suffix in ("corpus.jsonl", "teacher.bin", "meta.json"):
        parts.append(_sha((root / f"toy.{suffix}").read_bytes()).encode())
    assert _sha(b"\n".join(parts)) == GOLDEN["make_synthetic"]


def test_build_anchors_bytes_and_stdout_digest(setup_files):
    root, outs = setup_files
    parts = [outs["build_anchors"].encode(), _sha((root / "anchors.bin").read_bytes()).encode()]
    assert _sha(b"\n".join(parts)) == GOLDEN["build_anchors"]


def test_paired_setup_digest():
    """The corpus, split, samples and anchors of a paired run at the shape
    of the paired-training bench: four content tokens, a repeated task
    marker and some answer noise."""
    data = make_synthetic_corpus(
        seed=4, n_per_lang=100, query_content=4, marker_repeat=2, answer_noise=0.05
    )
    train, hold = split_records(data, 0.25)
    header = data.corpus.header
    payload = {
        "header": [header.tasks, header.languages, header.emotions, header.intents],
        "records": [[getattr(rec, k) for k in RECORD_FIELDS] for rec in data.corpus.records],
        "ids": data.embeddings.ids,
        "split": [[rec.dialog_id for rec in recs] for recs in (train, hold)],
        "samples": [[astuple(s) for s in make_samples(data, recs)] for recs in (train, hold)],
        "anchors": build_toy_anchors(data, seed=4).checksum(),
    }
    h = hashlib.sha256(_digest(payload).encode())
    h.update(np.ascontiguousarray(data.embeddings.data, dtype="<f4").tobytes())
    assert h.hexdigest() == GOLDEN["paired_setup"]


def test_kmeans_fit_digest():
    rng = np.random.default_rng(17)
    points = rng.standard_normal((300, 40)) + 4.0 * rng.standard_normal((6, 40))[
        rng.integers(6, size=300)
    ]
    result = kmeans_fit(points, 6, seed=17)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.centroids, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(result.assignments, dtype="<i8").tobytes())
    h.update(np.asarray(result.objective, dtype="<f8").tobytes())
    h.update(str(result.n_iter).encode())
    assert h.hexdigest() == GOLDEN["kmeans_fit"]


@pytest.fixture(scope="module")
def row_files(setup_files, tmp_path_factory):
    """A 600-row file, two blocks of 256 rows and a remainder, and a file
    with no rows, both at the d = 96 of the set-up anchors."""
    root = tmp_path_factory.mktemp("rows")
    data = np.random.default_rng(11).standard_normal((600, 96)).astype(np.float32)
    files = {"full": str(root / "full.bin"), "empty": str(root / "empty.bin")}
    save_embeddings(EmbeddingMatrix(data=data, ids=[f"r{i}" for i in range(600)]), files["full"])
    save_embeddings(EmbeddingMatrix(data=data[:0], ids=[]), files["empty"])
    return root, files


CLI_ROWS = {
    "encode_global": ["encode", "--bins", "8"],
    "encode_topk": ["encode", "--bins", "8", "--mode", "topk", "--k", "2"],
    "topk": ["topk", "--k", "3"],
    "encode_stdout": ["encode", "--bins", "8", "--scope", "all", "--mode", "topk", "--k", "4"],
}


@pytest.mark.parametrize("name", sorted(CLI_ROWS))
def test_cli_rows_digest(setup_files, row_files, name):
    setup_root, _ = setup_files
    root, files = row_files
    parts = []
    for which in ("full", "empty"):
        argv = CLI_ROWS[name] + [
            "--embeddings", files[which], "--anchors", str(setup_root / "anchors.bin"),
        ]
        out = root / f"{name}.{which}.jsonl"
        if name != "encode_stdout":
            argv += ["--out", str(out)]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert dispatch(argv) == 0
        parts.append(printed.getvalue().replace(str(root), "<dir>").encode())
        if name == "encode_stdout":
            assert printed.getvalue().count("\n") == (600 if which == "full" else 0)
        else:
            written = out.read_bytes()
            if which == "empty":
                assert written == b"\n"
            parts.append(_sha(written).encode())
    assert _sha(b"\n".join(parts)) == GOLDEN[name]


def test_consistency_report_and_stdout_digest(setup_files, tmp_path):
    """200 records in three languages, 600 rows in shuffled order: two
    256-row blocks and a remainder, with each record's variants spread
    over the blocks."""
    setup_root, _ = setup_files
    rng = np.random.default_rng(13)
    centres = rng.standard_normal((200, 96))
    rows = np.repeat(centres, 3, axis=0) + 0.4 * rng.standard_normal((600, 96))
    ids = [f"d{r:03d}:{lang}" for r in range(200) for lang in ("en", "zh", "hi")]
    order = rng.permutation(600)
    path = str(tmp_path / "variants.bin")
    matrix = EmbeddingMatrix(data=rows[order].astype(np.float32), ids=[ids[i] for i in order])
    save_embeddings(matrix, path)
    parts = []
    for topk in ("1", "3"):
        out = tmp_path / f"consistency{topk}.json"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert dispatch([
                "consistency", "--embeddings", path, "--anchors",
                str(setup_root / "anchors.bin"), "--topk", topk, "--out", str(out),
            ]) == 0
        parts += [printed.getvalue().replace(str(tmp_path), "<dir>").encode(), out.read_bytes()]
    assert _sha(b"\n".join(parts)) == GOLDEN["consistency"]


# ``train-toy`` in each of its four modes over one small seeded config
TRAIN_TOY_MODES = {
    "train_toy_single": [],
    "train_toy_ecr": ["--ecr", "on"],
    "train_toy_paired": ["--paired"],
    "train_toy_ablation": ["--ablation"],
}


@pytest.fixture(scope="module")
def train_toy_runs(tmp_path_factory):
    """stdout and ``--out`` bytes of each mode over one small seeded config."""
    root = tmp_path_factory.mktemp("train_toy")
    config = root / "train.cfg"
    config.write_text(
        "epochs = 2\nlearning_rate = 0.05\nholdout_fraction = 0.25\nn_per_lang = 12\n"
        "query_content = 4\nmarker_repeat = 2\nanswer_noise = 0.05\n"
    )
    runs = {}
    for name, flags in TRAIN_TOY_MODES.items():
        out = root / f"{name}.json"
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert dispatch([
                "train-toy", "--config", str(config), "--seed", "2", *flags, "--out", str(out),
            ]) == 0
        runs[name] = printed.getvalue().replace(str(root), "<dir>").encode(), out.read_bytes()
    return runs


@pytest.mark.parametrize("name", sorted(TRAIN_TOY_MODES))
def test_train_toy_stdout_and_report_digest(train_toy_runs, name):
    printed, written = train_toy_runs[name]
    assert _sha(printed + b"\n" + written) == GOLDEN[name]


def test_train_toy_paired_configs_differ_only_in_ecr_enabled(train_toy_runs):
    payload = json.loads(train_toy_runs["train_toy_paired"][1])
    configs = [payload[arm]["config"] for arm in ("baseline", "ecr")]
    assert [config["ecr"].pop("enabled") for config in configs] == [False, True]
    assert configs[0] == configs[1]


SCALES = (1.0, 1e200, 1e-200)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_one_row_encode_digest():
    """``project_batch`` bits of 40 single teacher rows at the encode
    bench's shape: d = 768, 29 anchors (T,L,E,I,P with 8 k-means anchors)."""
    data = make_synthetic_corpus(seed=6, n_per_lang=10, n_factors=6, d=768)
    anchors = build_anchor_set(
        data.embeddings, data.corpus, ("T", "L", "E", "I", "P"), k={"P": 8}, seed=6
    )
    assert anchors.total_k == 29
    h = hashlib.sha256()
    for row in data.embeddings.data[:40].astype(np.float64):
        for scale in SCALES:
            h.update(project_batch((row * scale)[None], anchors).astype("<f8").tobytes())
    assert h.hexdigest() == GOLDEN["one_row_encode"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_one_row_paired_digest():
    """``sample_prefix`` ids and the pooled rows' ``project_batch`` bits of
    every sample at the paired run's shape (d = 24, factors T,L,E,I, 8
    bins), on a fresh model and on its table scaled."""
    data = make_synthetic_corpus(
        seed=4, n_per_lang=100, query_content=4, marker_repeat=2, answer_noise=0.05
    )
    anchors = build_toy_anchors(data, ("T", "L", "E", "I"), seed=4)
    settings = TrainConfig().ecr
    fresh = init_model(data.layout.base_size, anchors.d, anchors, settings.n_bins, seed=4)
    samples = make_samples(data, data.corpus.records)
    h = hashlib.sha256()
    for scale in SCALES:
        model = replace(fresh, emb=fresh.emb * scale)
        for s in samples:
            h.update(repr(sample_prefix(model, s, anchors, settings).token_ids).encode())
            pooled = _pooled_queries(model, [s.tokens[: s.query_len]])
            h.update(project_batch(pooled, anchors).astype("<f8").tobytes())
    assert h.hexdigest() == GOLDEN["one_row_paired"]
