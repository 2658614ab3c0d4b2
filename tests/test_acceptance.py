"""End-to-end acceptance gate.

One test per numbered criterion; the conftest summary hook prints a
PASS/FAIL line per criterion at the end of the run.  Every [DERIVED]
quantity is checked against an independent oracle computed here with
plain loops, never against the library's own fast path.
"""

import hashlib
import json
import math

import numpy as np

from conftest import acceptance_note
from ecr.anchors import (
    AnchorSet,
    FactorGroup,
    build_anchor_set,
    kmeans_fit,
    load_anchors,
    save_anchors,
)
from ecr.cli import dispatch
from ecr.codec import (
    ControlToken,
    encode,
    parse_token,
    project_batch,
    quantize_value,
    token_vocabulary,
)
from ecr.corpus import EmbeddingMatrix
from ecr.geometry import (
    compute_geometry,
    geometry_ratio,
    purity,
)
from ecr.retrieval import (
    bench_query_latency,
    brute_force_topk,
    build_index,
    fit_pca,
    pca_project,
    pca_reconstruct,
    query,
)
from ecr.toytrain import (
    EcrSettings,
    TrainConfig,
    _forward_backward,
    build_toy_anchors,
    make_synthetic_corpus,
    paired_arms,
    train_arms,
)


# ---------------------------------------------------------------------------
# 1. geometry_ratio reproduces two reference compactness/separation
#    quotients from measured anchor-manifold statistics.


def test_acceptance_01_geometry_ratio_reference_points():
    assert abs(geometry_ratio(39.66, 41.91) - 0.946) < 1e-3
    assert abs(geometry_ratio(42.51, 43.54) - 0.976) < 1e-3


# ---------------------------------------------------------------------------
# 2. Projection: 1000 random (h, anchor set) pairs against a scalar-loop
#    cosine oracle at 1e-9, plus token-exact scale invariance of encode.


def _random_anchor_set(rng: np.random.Generator) -> tuple[AnchorSet, int]:
    d = int(rng.integers(2, 129))
    n_factors = int(rng.integers(1, 4))
    total_k = int(rng.integers(n_factors, 33))
    # split total_k into n_factors positive parts
    sizes = [1] * n_factors
    for _ in range(total_k - n_factors):
        sizes[int(rng.integers(0, n_factors))] += 1
    groups = []
    for factor, k in zip(("T", "L", "E"), sizes):
        centroids = rng.normal(size=(k, d))
        groups.append(FactorGroup(factor=factor, centroids=centroids))
    return AnchorSet(groups=tuple(groups), d=d), d


def _scalar_cosine(h: np.ndarray, a: np.ndarray) -> float:
    num = 0.0
    hh = 0.0
    aa = 0.0
    for x, y in zip(h.tolist(), a.tolist()):
        num += x * y
        hh += x * x
        aa += y * y
    c = num / (math.sqrt(hh) * math.sqrt(aa))
    return min(1.0, max(-1.0, c))


def test_acceptance_02_projection_matches_scalar_oracle():
    rng = np.random.default_rng(2026)
    for trial in range(1000):
        anchors, d = _random_anchor_set(rng)
        h = rng.normal(size=d)
        affinities = project_batch(h[None], anchors)[0]
        flat = np.vstack([g.centroids for g in anchors.groups])
        for j in range(flat.shape[0]):
            want = _scalar_cosine(h, flat[j])
            assert abs(float(affinities[j]) - want) < 1e-9
        base = encode(h, anchors, n_bins=8)
        for alpha in (0.5, 3.0, 10.0):
            scaled = encode(alpha * h, anchors, n_bins=8)
            assert scaled.text == base.text
            assert scaled.token_ids == base.token_ids


# ---------------------------------------------------------------------------
# 3. Quantizer: exhaustive over B in 2..16 on a dense affinity grid.


def test_acceptance_03_quantizer_monotone_covering_endpoints():
    grid = np.linspace(-1.0, 1.0, 4001)
    for n_bins in range(2, 17):
        bins = [quantize_value(float(c), n_bins) for c in grid]
        assert all(b2 >= b1 for b1, b2 in zip(bins, bins[1:]))
        assert set(bins) == set(range(n_bins))
        assert quantize_value(-1.0, n_bins) == 0
        assert quantize_value(1.0, n_bins) == n_bins - 1


# ---------------------------------------------------------------------------
# 4. Token codec: bijectivity over every (factor, anchor, bin) triple for
#    4 factors x 8 anchors x 8 bins, at both the text and the id level.


def test_acceptance_04_token_codec_bijective():
    rng = np.random.default_rng(4)
    groups = tuple(
        FactorGroup(factor=f, centroids=rng.normal(size=(8, 6)))
        for f in ("T", "L", "E", "I")
    )
    anchors = AnchorSet(groups=groups, d=6)
    vocab = token_vocabulary(anchors, n_bins=8, base_size=100)
    seen_text = set()
    seen_ids = set()
    for factor in ("T", "L", "E", "I"):
        for anchor in range(8):
            for bin_index in range(8):
                token = ControlToken(factor=factor, anchor=anchor, bin=bin_index)
                text = token.render()
                assert parse_token(text) == token
                token_id = vocab.token_id(token)
                assert vocab.token_of(token_id) == token
                seen_text.add(text)
                seen_ids.add(token_id)
    assert len(seen_text) == 4 * 8 * 8
    assert len(seen_ids) == 4 * 8 * 8


# ---------------------------------------------------------------------------
# 5. k-means: objective never increases, and two well-separated clouds
#    are recovered to within 0.05 of their true means.


def test_acceptance_05_kmeans_objective_and_recovery():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 61))
        d = int(rng.integers(2, 7))
        k = int(rng.integers(2, min(6, n)))
        points = rng.normal(size=(n, d))
        result = kmeans_fit(points, k, seed=seed)
        for before, after in zip(result.objective, result.objective[1:]):
            assert after <= before + 1e-12

    true_means = np.zeros((2, 4))
    true_means[0, 0] = -5.0
    true_means[1, 0] = 5.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        cloud_a = true_means[0] + 0.1 * rng.normal(size=(100, 4))
        cloud_b = true_means[1] + 0.1 * rng.normal(size=(100, 4))
        points = np.vstack([cloud_a, cloud_b])
        result = kmeans_fit(points, 2, seed=seed)
        # match each fitted centroid to its nearest true mean
        for centroid in result.centroids:
            err = min(
                float(np.linalg.norm(centroid - true_means[0])),
                float(np.linalg.norm(centroid - true_means[1])),
            )
            assert err < 0.05


# ---------------------------------------------------------------------------
# 6. Purity: assignments match a brute-force nearest-prototype scan
#    exactly on 200 random instances.


def test_acceptance_06_purity_matches_brute_force():
    language_pool = ("de", "en", "fr")
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_langs = int(rng.integers(2, 4))
        langs = language_pool[:n_langs]
        n = int(rng.integers(n_langs, 201))
        labels = [langs[int(rng.integers(0, n_langs))] for _ in range(n)]
        labels[:n_langs] = list(langs)  # every language occurs
        d = int(rng.integers(2, 9))
        data = rng.normal(size=(n, d)).astype(np.float32)
        emb = EmbeddingMatrix(data=data, ids=[f"s{i}" for i in range(n)])

        report = purity(emb, labels)

        data64 = data.astype(np.float64)
        protos = {}
        for lang in sorted(set(labels)):
            rows = [data64[i] for i in range(n) if labels[i] == lang]
            protos[lang] = sum(rows) / len(rows)
        expected = []
        for i in range(n):
            best = min(
                protos,
                key=lambda lang: (float(((data64[i] - protos[lang]) ** 2).sum()), lang),
            )
            expected.append(best)
        assert list(report.assigned) == expected
        correct = sum(1 for got, true in zip(expected, labels) if got == true)
        assert report.overall == correct / n


# ---------------------------------------------------------------------------
# 7. Geometry metrics: double-loop oracle at 1e-9 on 100 instances, plus
#    translation invariance and scaling equivariance at 1e-6.


def _geometry_oracle(data: np.ndarray, labels: list[str]) -> tuple[float, float, float]:
    data = data.astype(np.float64)
    groups: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    intras, spreads, centroids = [], [], []
    for members in groups.values():
        centroid = sum(data[i] for i in members) / len(members)
        dists = [math.sqrt(float(((data[i] - centroid) ** 2).sum())) for i in members]
        sq = [float(((data[i] - centroid) ** 2).sum()) for i in members]
        intras.append(sum(dists) / len(dists))
        spreads.append(sum(sq) / len(sq))
        centroids.append(centroid)
    inters = []
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            inters.append(math.sqrt(float(((centroids[i] - centroids[j]) ** 2).sum())))
    return (
        sum(intras) / len(intras),
        sum(inters) / len(inters),
        sum(spreads) / len(spreads),
    )


def test_acceptance_07_geometry_matches_loop_oracle():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_manifolds = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))
        labels: list[str] = []
        for m in range(n_manifolds):
            labels.extend([f"m{m}"] * int(rng.integers(2, 9)))
        data = rng.normal(size=(len(labels), d)).astype(np.float32)
        ids = [f"s{i}" for i in range(len(labels))]
        emb = EmbeddingMatrix(data=data, ids=ids)
        report = compute_geometry(emb, labels, "labels")
        want_intra, want_inter, want_spread = _geometry_oracle(data, labels)
        assert abs(report.intra - want_intra) < 1e-9
        assert abs(report.inter - want_inter) < 1e-9
        assert abs(report.spread - want_spread) < 1e-9

    rng = np.random.default_rng(7)
    labels = ["a"] * 6 + ["b"] * 5 + ["c"] * 7
    data = rng.normal(size=(len(labels), 5)).astype(np.float32)
    ids = [f"s{i}" for i in range(len(labels))]
    base = compute_geometry(EmbeddingMatrix(data=data, ids=ids), labels, "labels")

    shift = rng.uniform(-1.0, 1.0, size=5).astype(np.float32)
    moved = compute_geometry(EmbeddingMatrix(data=data + shift, ids=ids), labels, "labels")
    for name in ("intra", "inter", "ratio", "spread"):
        assert math.isclose(
            getattr(moved, name), getattr(base, name), rel_tol=1e-6, abs_tol=1e-6
        )

    alpha = 4.0  # exact in binary floating point
    scaled = compute_geometry(EmbeddingMatrix(data=alpha * data, ids=ids), labels, "labels")
    assert math.isclose(scaled.intra, alpha * base.intra, rel_tol=1e-6)
    assert math.isclose(scaled.inter, alpha * base.inter, rel_tol=1e-6)
    assert math.isclose(scaled.spread, alpha * alpha * base.spread, rel_tol=1e-6)
    assert math.isclose(scaled.ratio, base.ratio, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# 8. Graph index quality: recall@5 >= 0.95 at ef_search=64 on 10^4
#    uniform random 64-d vectors, recall non-decreasing in ef_search.


def test_acceptance_08_hnsw_recall():
    rng = np.random.default_rng(0)
    data = rng.random((10_000, 64))
    queries = rng.random((500, 64))
    index = build_index(data, m=32, ef_construction=100, seed=0)
    truth = [set(brute_force_topk(data, q, 5).ids) for q in queries]
    recalls = []
    for ef in (8, 16, 32, 64, 128):
        hits = 0
        for q, want in zip(queries, truth):
            hits += len(set(query(index, q, 5, ef_search=ef).ids) & want)
        recalls.append(hits / (5 * len(queries)))
    acceptance_note(8, "recall@5 over ef {8,16,32,64,128}: "
                    + ", ".join(f"{r:.4f}" for r in recalls))
    assert recalls[3] >= 0.95
    for lo, hi in zip(recalls, recalls[1:]):
        assert hi >= lo


# ---------------------------------------------------------------------------
# 9. Latency bench on 10^5 vectors: p50/p99 are produced; the 2 ms p99
#    figure is a soft target, reported but never failed on.


def test_acceptance_09_bench_reports_percentiles():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((100_000, 64))
    queries = rng.standard_normal((200, 64))
    index = build_index(data, m=8, ef_construction=32, seed=0)
    report = bench_query_latency(index, queries, k=5, ef_search=64)
    verdict = "met" if report.p99_us < 2000.0 else "missed (soft target, report only)"
    acceptance_note(
        9,
        f"n=100000 k=5 ef=64: p50={report.p50_us:.0f}us p99={report.p99_us:.0f}us "
        f"mean_visited={report.mean_visited:.0f}; 2ms p99 target {verdict}",
    )
    assert report.n_queries >= 1000
    assert report.p50_us > 0.0
    assert report.p99_us >= report.p50_us
    assert math.isfinite(report.mean_us)


# ---------------------------------------------------------------------------
# 10. PCA: orthonormal components, non-increasing explained variance,
#     lossless reconstruction at full rank.


def test_acceptance_10_pca_orthonormal_and_lossless():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((2000, 32))
    mixing = rng.standard_normal((32, 32))
    X = base @ mixing + rng.uniform(-1.0, 1.0, size=32)
    model = fit_pca(X, r=32)
    gram = model.components.T @ model.components
    assert np.max(np.abs(gram - np.eye(32))) < 1e-5
    assert all(
        after <= before + 1e-12
        for before, after in zip(model.explained_variance, model.explained_variance[1:])
    )
    rebuilt = pca_reconstruct(model, pca_project(model, X))
    assert np.max(np.abs(rebuilt - X)) < 1e-6


# ---------------------------------------------------------------------------
# 11. Detachment: the anchor file's checksum is bit-identical before and
#     after a 500-step conditioned training run.


def test_acceptance_11_anchors_untouched_by_training(tmp_path):
    data = make_synthetic_corpus(seed=5, n_per_lang=100)
    anchors = build_toy_anchors(data, ("T", "L", "E", "I"), seed=0)
    path = str(tmp_path / "anchors.ecra")
    save_anchors(anchors, path)
    digest_before = hashlib.sha256(open(path, "rb").read()).hexdigest()

    loaded = load_anchors(path)
    config = TrainConfig(
        seed=5,
        learning_rate=0.02,
        epochs=50,
        holdout_fraction=0.01,
        ecr=EcrSettings(enabled=True, factors=("T", "L", "E", "I"), n_bins=8),
    )
    [(_, report)] = train_arms(data, loaded, [("ecr", config, loaded)])
    digest_after = hashlib.sha256(open(path, "rb").read()).hexdigest()

    assert len(report.loss_curve) >= 500
    assert not report.diverged
    assert digest_after == digest_before
    assert report.anchor_checksum_before == report.anchor_checksum_after
    assert loaded.checksum(fresh=True) == report.anchor_checksum_before


# ---------------------------------------------------------------------------
# 12. Gradient: analytic output-projection gradient vs central finite
#     differences at 1e-4 relative error on a three-token instance.


def test_acceptance_12_output_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    vocab_size, dim = 7, 5
    emb = rng.normal(scale=0.5, size=(vocab_size, dim))
    out = rng.normal(scale=0.5, size=(dim, vocab_size))
    # one sequence, no prefix: the block form is the ids, their length and 0
    block, lengths = np.array([[2, 5, 1]], dtype=np.int64), np.array([3])
    _, _, _, d_out = _forward_backward(emb, out, block, lengths, 0, vocab_size)

    step = 1e-5
    worst = 0.0
    for i in range(dim):
        for j in range(vocab_size):
            bumped = out.copy()
            bumped[i, j] += step
            up = _forward_backward(emb, bumped, block, lengths, 0, vocab_size)[0]
            bumped[i, j] -= 2 * step
            down = _forward_backward(emb, bumped, block, lengths, 0, vocab_size)[0]
            numeric = (up - down) / (2 * step)
            rel = abs(numeric - d_out[i, j]) / max(abs(numeric), abs(d_out[i, j]), 1e-12)
            worst = max(worst, rel)
    acceptance_note(12, f"max relative gradient error {worst:.3e}")
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# 13. CLI reproducibility: train-toy twice with one config and seed is
#     bit-identical; the ablation run yields the five expected rows.


def test_acceptance_13_cli_determinism_and_ablation(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("epochs = 2\nn_per_lang = 8\nlearning_rate = 0.05\n")
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    for out in (out_a, out_b):
        code = dispatch(
            ["train-toy", "--config", str(cfg), "--seed", "3", "--out", out]
        )
        assert code == 0
    bytes_a = open(out_a, "rb").read()
    assert bytes_a == open(out_b, "rb").read()
    payload = json.loads(bytes_a)
    assert payload["loss_curve"], "loss curve must be populated"

    abl_cfg = tmp_path / "abl.cfg"
    abl_cfg.write_text("epochs = 1\nn_per_lang = 8\nlearning_rate = 0.05\n")
    out_rows = str(tmp_path / "ablation.json")
    code = dispatch(
        ["train-toy", "--config", str(abl_cfg), "--seed", "1", "--ablation",
         "--out", out_rows]
    )
    assert code == 0
    rows = json.load(open(out_rows))["rows"]
    assert [row["arm"] for row in rows] == ["none", "L", "E", "I", "L+E+I"]
    for row in rows:
        assert math.isfinite(row["nll"])
        assert math.isfinite(row["spread"])
        assert math.isfinite(row["consistency"])


# ---------------------------------------------------------------------------
# 14. Conditioning helps: on the synthetic corpus the conditioned arm's
#     held-out NLL beats or ties the baseline in at least 8 of 10 seeds.


def test_acceptance_14_conditioning_wins_across_seeds():
    wins = 0
    gaps = []
    for seed in range(10):
        data = make_synthetic_corpus(
            seed=seed,
            n_per_lang=100,
            query_content=4,
            marker_repeat=2,
            answer_noise=0.05,
        )
        anchors = build_toy_anchors(data, ("T", "L", "E", "I"), seed=seed)
        config = TrainConfig(
            seed=seed, learning_rate=0.05, epochs=25, holdout_fraction=0.25,
            ecr=EcrSettings(factors=("T", "L", "E", "I"), n_bins=8),
        )
        (_, baseline), (_, ecr) = train_arms(data, anchors, paired_arms(config, anchors))
        base_nll = float(np.mean(list(baseline.nll_per_language[-1].values())))
        ecr_nll = float(np.mean(list(ecr.nll_per_language[-1].values())))
        gaps.append(base_nll - ecr_nll)
        if ecr_nll <= base_nll:
            wins += 1
    acceptance_note(
        14,
        f"wins {wins}/10, mean held-out NLL gap {np.mean(gaps):+.4f} "
        f"(positive favours conditioning)",
    )
    assert wins >= 8
