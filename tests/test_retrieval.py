"""Retrieval: PCA reduction, graph index, exact oracle, latency bench."""

import dataclasses
import functools
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import other_layouts
import ecr.retrieval
from ecr.binio import FileFormatError
from ecr.retrieval import (
    INDEX_MAGIC,
    PcaModel,
    RetrievalError,
    _greedy_step,
    _structure_error,
    bench_query_latency,
    brute_force_topk,
    build_index,
    fit_pca,
    load_index,
    load_pca,
    pca_project,
    pca_reconstruct,
    query,
    save_index,
    save_pca,
)


# ---------------------------------------------------------------------------
# PCA


def test_pca_recovers_dominant_line():
    # points on the y = x line vary along [1, 1]/sqrt(2) only
    t = np.linspace(-3, 3, 50)
    X = np.stack([t, t], axis=1)
    model = fit_pca(X, 1)
    direction = model.components[:, 0]
    want = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.allclose(np.abs(direction), np.abs(want), atol=1e-9)
    assert abs(abs(float(direction @ want)) - 1.0) < 1e-9


def test_pca_full_rank_reconstructs_exactly():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    model = fit_pca(X, 6)
    back = pca_reconstruct(model, pca_project(model, X))
    assert np.max(np.abs(back - X)) < 1e-9


def test_pca_variance_ordering_and_total():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(200, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
    model = fit_pca(X, 5)
    ev = model.explained_variance
    assert all(b <= a + 1e-12 for a, b in zip(ev, ev[1:]))
    # full-rank explained variance sums to total variance
    total = np.var(X, axis=0, ddof=1).sum()
    assert abs(ev.sum() - total) / total < 1e-9


def test_pca_components_orthonormal():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 8))
    model = fit_pca(X, 4)
    gram = model.components.T @ model.components
    assert np.max(np.abs(gram - np.eye(4))) < 1e-9


def test_pca_isotropic_variance_split():
    # isotropic cloud: every direction carries roughly 1/d of the variance
    rng = np.random.default_rng(3)
    d = 10
    X = rng.normal(size=(20_000, d))
    model = fit_pca(X, d)
    share = model.explained_variance / model.explained_variance.sum()
    assert np.max(np.abs(share - 1.0 / d)) < 0.1 / d * 3


def test_pca_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 5))
    m1 = fit_pca(X, 3)
    m2 = fit_pca(X.copy(), 3)
    assert np.array_equal(m1.components, m2.components)
    # largest-magnitude coordinate of each component is positive
    for j in range(3):
        col = m1.components[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0


def test_pca_degenerate_input_warns():
    X = np.ones((10, 4))
    with pytest.warns(UserWarning, match="zero variance"):
        model = fit_pca(X, 2)
    assert np.allclose(model.explained_variance, 0.0)


def test_fit_pca_peak_stays_below_twice_the_input():
    # the zero-variance test reads the centred rows in place: no |x| copy
    import tracemalloc

    data = np.random.default_rng(0).standard_normal((2000, 768))
    tracemalloc.start()
    try:
        fit_pca(data, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.9 * data.nbytes


def test_pca_input_validation():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(10, 4))
    with pytest.raises(RetrievalError):
        fit_pca(X, 0)
    with pytest.raises(RetrievalError):
        fit_pca(X, 5)
    with pytest.raises(RetrievalError):
        fit_pca(X[:1], 1)
    with pytest.raises(RetrievalError):
        fit_pca(X.ravel(), 1)
    model = fit_pca(X, 2)
    with pytest.raises(RetrievalError):
        pca_project(model, np.ones(3))
    with pytest.raises(RetrievalError):
        pca_reconstruct(model, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pca_non_finite_input_rejected(bad):
    X = np.random.default_rng(5).normal(size=(50, 8))
    X[17, 3] = bad
    with pytest.raises(RetrievalError, match="NaN or infinite"):
        fit_pca(X, 2)


@pytest.mark.parametrize("d", [8, 1100])  # a narrow and a wide input
def test_pca_overflowing_input_rejected(d):
    # finite entries whose squares overflow
    X = np.random.default_rng(5).normal(size=(50, d))
    X[17] *= 1e200
    with pytest.raises(RetrievalError, match="overflow"):
        fit_pca(X, 2)


def test_pca_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 7))
    model = fit_pca(X, 3)
    path = str(tmp_path / "pca.bin")
    save_pca(model, path)
    loaded = load_pca(path)
    assert np.array_equal(loaded.mean, model.mean)
    assert np.array_equal(loaded.components, model.components)
    assert np.array_equal(loaded.explained_variance, model.explained_variance)
    assert all(a.flags.aligned for a in (loaded.mean, loaded.components, loaded.explained_variance))


@pytest.mark.parametrize(
    "n, d, r, scale",
    [
        (50, 2, 1, 1.0), (40, 6, 6, 1.0), (200, 5, 5, 1.0), (100, 8, 4, 1.0),
        (60, 5, 3, 1.0), (50, 7, 3, 1.0), (10, 4, 2, 0.0),  # zero variance
        (80, 1100, 3, 1.0), (120, 1100, 4, 1.0),  # wide inputs
    ],
)
def test_pca_fit_output_loads(tmp_path, n, d, r, scale):
    X = scale * np.random.default_rng(d).normal(size=(n, d)) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the zero-variance warning
        model = fit_pca(X, r, seed=1)
    path = str(tmp_path / "pca.bin")
    save_pca(model, path)
    assert np.array_equal(load_pca(path).components, model.components)


def _saved_pca(tmp_path, model, field, index, value):
    """``model`` with one entry of one array set to ``value``, written through
    save_pca, so that its checksum is valid; returns the path."""
    values = getattr(model, field).copy()
    values[index] = value
    path = str(tmp_path / "pca.bin")
    save_pca(dataclasses.replace(model, **{field: values}), path)
    return path


@pytest.mark.parametrize(
    "field, index, value, problem",
    [
        ("mean", 2, np.nan, "NaN or infinite entry in the mean"),
        ("components", (0, 1), np.inf, "NaN or infinite entry in the components"),
        ("explained_variance", 0, -np.inf, "NaN or infinite entry in the variances"),
        ("explained_variance", 2, -1e-3, "a variance is negative"),
        ("explained_variance", 1, 1e6, "variances increase"),
        ("components", (0, 0), 2.0, "components are not orthonormal"),
    ],
)
def test_load_pca_rejects_arrays_that_are_not_a_model(tmp_path, field, index, value, problem):
    model = fit_pca(np.random.default_rng(6).normal(size=(50, 7)), 3)
    with pytest.raises(RetrievalError, match=problem):
        load_pca(_saved_pca(tmp_path, model, field, index, value))


def test_load_pca_rejects_a_model_with_no_components(tmp_path):
    model = fit_pca(np.random.default_rng(6).normal(size=(50, 7)), 3)
    path = str(tmp_path / "pca.bin")
    empty = model.components[:, :0], model.explained_variance[:0]
    save_pca(dataclasses.replace(model, components=empty[0], explained_variance=empty[1]), path)
    with pytest.raises(RetrievalError, match="keeps no components"):
        load_pca(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_pca_rejects_components_whose_products_overflow(tmp_path):
    # CᵀC of these columns is inf + -inf = NaN off the diagonal, a gap that
    # compares below no tolerance
    big = 1e200
    model = PcaModel(
        mean=np.zeros(2),
        components=np.array([[big, big], [big, -big]]),
        explained_variance=np.array([1.0, 0.5]),
    )
    path = str(tmp_path / "pca.bin")
    save_pca(model, path)
    with pytest.raises(RetrievalError, match="not orthonormal"):
        load_pca(path)


@pytest.mark.parametrize("delta", [1e-12, 1e-6])
def test_load_pca_orthonormal_tolerance(tmp_path, delta):
    # one entry moved by delta moves CᵀC by about delta, against PCA_ORTHO_TOL
    model = fit_pca(np.random.default_rng(6).normal(size=(50, 7)), 3)
    path = _saved_pca(tmp_path, model, "components", (0, 0), model.components[0, 0] + delta)
    if delta < ecr.retrieval.PCA_ORTHO_TOL:
        load_pca(path)
    else:
        with pytest.raises(RetrievalError, match="not orthonormal"):
            load_pca(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pca_project_rejects_non_finite_rows(bad):
    model = fit_pca(np.random.default_rng(6).normal(size=(50, 7)), 3)
    rows = np.ones((4, 7))
    rows[2, 5] = bad
    for v in (rows, rows[2]):
        with pytest.raises(RetrievalError, match="NaN or infinite"):
            pca_project(model, v)


def test_pca_large_dimension_subspace_path():
    # a rank-3 signal at a width above 1024; the name dates from when such
    # widths took a second solver
    rng = np.random.default_rng(7)
    basis = rng.normal(size=(1100, 3))
    coeffs = rng.normal(size=(80, 3)) * np.array([4.0, 2.0, 1.0])
    X = coeffs @ basis.T + rng.normal(scale=1e-3, size=(80, 1100))
    model = fit_pca(X, 3, seed=0)
    gram = model.components.T @ model.components
    assert np.max(np.abs(gram - np.eye(3))) < 1e-6
    # reconstruction captures nearly all variance of the rank-3 signal
    back = pca_reconstruct(model, pca_project(model, X))
    residual = np.linalg.norm(X - back) / np.linalg.norm(X - X.mean(axis=0))
    assert residual < 0.01


def test_pca_above_1024_matches_svd():
    # clustered rows as the ann bench makes them: 24 centres plus
    # anisotropic noise, at a width above 1024
    rng = np.random.default_rng(22)
    n, d, r = 400, 1100, 32
    centers = rng.standard_normal((24, d))
    X = centers[rng.integers(24, size=n)] + rng.standard_normal((n, d)) * (
        0.15 + 0.6 * rng.random(d)
    )
    centered = X - X.mean(axis=0)
    _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    model = fit_pca(X, r, seed=3)
    want = sing[:r] ** 2 / (n - 1)
    assert np.allclose(model.explained_variance, want, rtol=1e-10, atol=0)
    # the projector onto the top-r subspace does not depend on signs or on
    # the basis chosen within it
    gap = model.components @ model.components.T - vt[:r].T @ vt[:r]
    assert np.abs(gap).max() < 1e-9
    again = fit_pca(X, r, seed=3)
    assert np.array_equal(again.components, model.components)
    assert np.array_equal(again.explained_variance, model.explained_variance)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_brute_force_against_independent_loop():
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(30, 5))
    q = rng.normal(size=5)
    got = brute_force_topk(vectors, q, 7)
    # independent implementation: scalar cosine loop plus sort
    sims = []
    qn = q / np.linalg.norm(q)
    for row in vectors:
        sims.append(float(np.dot(row / np.linalg.norm(row), qn)))
    want = sorted(range(30), key=lambda i: (-sims[i], i))[:7]
    assert list(got.ids) == [str(i) for i in want]
    for s, i in zip(got.scores, want):
        assert abs(s - sims[i]) < 1e-12


def test_brute_force_scores_non_increasing():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(40, 6))
    got = brute_force_topk(vectors, rng.normal(size=6), 10)
    assert all(b <= a + 1e-15 for a, b in zip(got.scores, got.scores[1:]))


def test_brute_force_k_clamps_to_n():
    vectors = np.eye(3)
    got = brute_force_topk(vectors, np.array([1.0, 0, 0]), 10)
    assert len(got.ids) == 3
    assert got.ids[0] == "0"


def test_brute_force_ties_across_k_boundary_keep_lower_rows():
    # rows 1, 3, 4 and 6 are one direction, tied for the 2nd..5th best score;
    # k=3 cuts inside the tie, so rows 1 and 3 must be kept and 4, 6 dropped
    rng = np.random.default_rng(10)
    vectors = rng.normal(size=(8, 5))
    q = rng.normal(size=5)
    vectors[0] = q
    for row, scale in ((1, 1.0), (3, 2.0), (4, 0.5), (6, 4.0)):
        vectors[row] = scale * (q + 0.3 * vectors[2])
    vectors[[2, 5, 7]] = -np.abs(vectors[[2, 5, 7]]) * np.sign(q)
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    sims = unit @ (q / np.linalg.norm(q))
    full = np.argsort(-sims, kind="stable")
    for k in range(1, 9):
        got = brute_force_topk(vectors, q, k)
        assert got.ids == tuple(str(i) for i in full[:k])
        assert got.scores == tuple(float(sims[i]) for i in full[:k])
    assert brute_force_topk(vectors, q, 3).ids == ("0", "1", "3")
    # 500 copies of those 8 rows: every k boundary cuts a tie
    many = vectors[rng.integers(8, size=500)]
    unit = many / np.linalg.norm(many, axis=1, keepdims=True)
    full = np.argsort(-(unit @ (q / np.linalg.norm(q))), kind="stable")
    for k in (1, 7, 25, 100, 499, 500):
        assert brute_force_topk(many, q, k).ids == tuple(str(i) for i in full[:k])


def test_build_index_bits_do_not_depend_on_memory_layout():
    X = _cloud(n=400, d=64, seed=12)
    index = build_index(X, m=8, ef_construction=20, seed=0)
    for other in other_layouts(X):
        again = build_index(other, m=8, ef_construction=20, seed=0)
        assert np.array_equal(again.data, index.data)
        assert all(np.array_equal(a, b) for a, b in zip(again.layers, index.layers))


def test_brute_force_bits_do_not_depend_on_memory_layout():
    X = _cloud(n=400, d=64, seed=12)
    for other in other_layouts(X):
        for q in X[:20]:
            assert brute_force_topk(other, q, 5) == brute_force_topk(X, q, 5)


def test_fit_pca_bits_do_not_depend_on_memory_layout():
    X = _cloud(n=400, d=64, seed=12)
    model = fit_pca(X, 8)
    for other in other_layouts(X):
        refit = fit_pca(other, 8)
        assert np.array_equal(refit.mean, model.mean)
        assert np.array_equal(refit.components, model.components)
        assert np.array_equal(refit.explained_variance, model.explained_variance)


def test_build_index_negative_seed_rejected():
    with pytest.raises(RetrievalError, match="seed must be non-negative, got -1"):
        build_index(_cloud(n=10), seed=-1)


def test_brute_force_k_below_one_rejected():
    for k in (0, -1):
        with pytest.raises(RetrievalError, match="k must be positive"):
            brute_force_topk(np.eye(3), np.ones(3), k)


def test_brute_force_zero_query_rejected():
    with pytest.raises(RetrievalError):
        brute_force_topk(np.eye(3), np.zeros(3), 1)


# ---------------------------------------------------------------------------
# graph index


def _cloud(n=300, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d))


def test_index_self_hit():
    vectors = _cloud(seed=10)
    index = build_index(vectors, seed=0)
    for i in (0, 7, 150, 299):
        res = query(index, vectors[i], 1, ef_search=32)
        assert res.ids[0] == str(i)
        assert abs(res.scores[0] - 1.0) < 1e-6


def test_index_small_n_exact():
    # with n well below ef_search the beam covers the whole graph
    vectors = _cloud(n=40, seed=11)
    index = build_index(vectors, m=8, ef_construction=40, seed=1)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.normal(size=8)
        got = query(index, q, 5, ef_search=40)
        want = brute_force_topk(vectors, q, 5)
        assert got.ids == want.ids


def test_query_k_prefix_property():
    vectors = _cloud(seed=13)
    index = build_index(vectors, seed=2)
    q = np.random.default_rng(14).normal(size=8)
    big = query(index, q, 10, ef_search=64)
    small = query(index, q, 3, ef_search=64)
    assert big.ids[:3] == small.ids


def test_query_validation():
    vectors = _cloud(n=20, seed=15)
    index = build_index(vectors, seed=0)
    with pytest.raises(RetrievalError):
        query(index, np.ones(8), 0)
    with pytest.raises(RetrievalError):
        query(index, np.ones(8), 5, ef_search=3)
    with pytest.raises(RetrievalError):
        query(index, np.ones(5), 1)
    with pytest.raises(RetrievalError):
        query(index, np.zeros(8), 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_query_rejected(bad):
    vectors = _cloud(n=200, seed=17)
    index = build_index(vectors, m=6, ef_construction=24, seed=0)
    q = np.ones(8)
    q[3] = bad
    with pytest.raises(RetrievalError, match="non-finite"):
        query(index, q, 5)
    with pytest.raises(RetrievalError, match="non-finite"):
        brute_force_topk(vectors, q, 5)


@pytest.mark.parametrize("row", [5, 199])
def test_non_finite_index_row_rejected(row):
    vectors = _cloud(n=200, seed=18)
    vectors[row, 2] = np.nan
    with pytest.raises(RetrievalError, match="finite"):
        build_index(vectors, m=6, ef_construction=24, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_scale_index_rows_accepted():
    vectors = _cloud(n=200, seed=22)
    q = vectors[40] + 0.1 * np.random.default_rng(23).normal(size=8)
    want = brute_force_topk(vectors, q, 5)
    scaled = vectors.copy()
    # the two best rows: one whose sum of squares overflows, one whose
    # sum of squares underflows to zero
    scaled[int(want.ids[0])] *= 1e200
    scaled[int(want.ids[1])] *= 1e-200
    assert brute_force_topk(scaled, q, 5).ids == want.ids
    index = build_index(scaled, m=6, ef_construction=24, seed=0)
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    assert np.allclose(index.data, unit, rtol=0, atol=1e-15)
    scaled[7] = 0.0
    with pytest.raises(RetrievalError, match="zero vector"):
        build_index(scaled, m=6, ef_construction=24, seed=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_query_scale_extremes_match_unscaled():
    vectors = _cloud(n=200, seed=19)
    index = build_index(vectors, m=6, ef_construction=24, seed=0)
    q = np.random.default_rng(20).normal(size=8)
    want = query(index, q, 5).ids
    for scale in (2.0**700, 2.0**-700):
        assert query(index, q * scale, 5).ids == want


def test_greedy_step_capped_at_n_moves():
    # a NaN query makes every move look like progress; the cap stops the walk
    data = np.eye(3)
    ring = np.array([[1], [2], [0]], dtype=np.int32)
    with pytest.raises(RetrievalError, match="3 moves"):
        _greedy_step(data, ring, np.full(3, np.nan), 0)


def test_greedy_step_takes_first_of_tied_best_in_row_order():
    # nodes 1 and 2 score exactly cos(t) against q; node 1 leads on to
    # node 3, node 2 is a dead end, so the row order of the tie decides
    t = 0.6
    data = np.array([[0.0, 1.0], [np.cos(t), np.sin(t)], [np.cos(t), -np.sin(t)], [1.0, 0.0]])
    q = np.array([1.0, 0.0])
    assert data[1] @ q == data[2] @ q
    adj = np.array([[1, 2], [3, -1], [-1, -1], [-1, -1]], dtype=np.int32)
    assert _greedy_step(data, adj, q, 0) == (3, 4)
    adj[0] = [2, 1]
    assert _greedy_step(data, adj, q, 0) == (2, 3)
    # a neighbor that only ties the current node is not a move
    adj[1] = [2, -1]
    assert _greedy_step(data, adj, q, 1) == (1, 2)


def test_build_validation():
    with pytest.raises(RetrievalError):
        build_index(_cloud(n=5), ids=["a", "b"])
    with pytest.raises(RetrievalError):
        build_index(_cloud(n=5), m=1)
    with pytest.raises(RetrievalError):
        build_index(_cloud(n=5), ef_construction=0)


def _defect(ix):
    return _structure_error(ix.n, ix.m, ix.entry_point, ix.levels, ix.layers)


def test_index_structure_valid():
    for m in (2, 6):
        index = build_index(_cloud(n=200, seed=16), m=m, ef_construction=30, seed=3)
        assert index.max_level >= 1
        assert _defect(index) is None


def _walk_problems(ix):
    """The faults a per-edge walk finds, the oracle of the vectorized check."""
    problems = []
    for layer in range(ix.max_level + 1):
        for node in np.flatnonzero(ix.levels >= layer).tolist():
            neigh = ix.neighbors(layer, node)
            if len(set(neigh)) != len(neigh):
                problems.append((layer, node, "duplicate"))
            for other in neigh:
                if other == node:
                    problems.append((layer, node, "self"))
                elif ix.levels[other] < layer:
                    problems.append((layer, node, other, "below"))
                elif node not in ix.neighbors(layer, other):
                    problems.append((layer, node, other, "one-way"))
    return problems


@functools.lru_cache(maxsize=None)
def _small_index():
    return build_index(_cloud(n=60, seed=33), m=3, ef_construction=12, seed=1)


def _put_row(ix, layer, node, row):
    ix.layers[layer][node] = -1
    ix.layers[layer][node, : len(row)] = row


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_structure_check_agrees_with_edge_walk(data):
    # a few edits to the rows of nodes on their layers, one-sided ("add",
    # "drop", "replace") or to both ends of an edge ("link", "unlink"), with
    # rows kept left-packed: both checks must call the result valid or not
    base = _small_index()
    ix = dataclasses.replace(base, layers=[a.copy() for a in base.layers])
    for _ in range(data.draw(st.integers(1, 3))):
        layer = data.draw(st.integers(0, ix.max_level))
        members = np.flatnonzero(ix.levels >= layer).tolist()
        node = data.draw(st.sampled_from(members))
        row = ix.neighbors(layer, node)
        cap = ix.layers[layer].shape[1]
        op = data.draw(st.sampled_from(["add", "drop", "replace", "link", "unlink"]))
        if op in ("add", "link"):
            other = data.draw(st.sampled_from(members if op == "link" else range(ix.n)))
            back = ix.neighbors(layer, other)
            if len(row) == cap or (op == "link" and (len(back) == cap or other in row)):
                continue
            _put_row(ix, layer, node, row + [other])
            if op == "link" and other != node:
                _put_row(ix, layer, other, back + [node])
        elif row:
            at = data.draw(st.integers(0, len(row) - 1))
            other = row.pop(at)
            if op == "replace":
                row.insert(at, data.draw(st.integers(0, ix.n - 1)))
            _put_row(ix, layer, node, row)
            back = ix.neighbors(layer, other)
            if op == "unlink" and node in back:
                back.remove(node)
                _put_row(ix, layer, other, back)
    assert (_defect(ix) is None) == (_walk_problems(ix) == [])


def test_index_deterministic_under_seed():
    vectors = _cloud(n=100, seed=17)
    a = build_index(vectors, m=8, ef_construction=40, seed=4)
    b = build_index(vectors, m=8, ef_construction=40, seed=4)
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.layers[0], b.layers[0])
    assert a.entry_point == b.entry_point
    c = build_index(vectors, m=8, ef_construction=40, seed=5)
    assert not np.array_equal(a.levels, c.levels)


def test_index_custom_ids_surface_in_results():
    vectors = _cloud(n=10, seed=18)
    ids = [f"doc-{i:03d}" for i in range(10)]
    index = build_index(vectors, ids=ids, m=4, ef_construction=20, seed=0)
    res = query(index, vectors[3], 1, ef_search=10)
    assert res.ids[0] == "doc-3".replace("doc-3", "doc-003")


def test_build_index_rejects_repeated_ids():
    ids = ["a", "b", "x", "c", "x", "b"]
    with pytest.raises(RetrievalError, match="id 'x' is repeated"):
        build_index(_cloud(n=6, seed=18), ids=ids, m=4, ef_construction=8, seed=0)


def test_load_index_rejects_repeated_ids(tmp_path):
    # the file is written through save_index, so that its checksum is valid
    index = build_index(_cloud(n=10, seed=18), m=4, ef_construction=20, seed=0)
    path = str(tmp_path / "index.bin")
    save_index(dataclasses.replace(index, ids=["x"] * 3 + index.ids[3:]), path)
    with pytest.raises(RetrievalError, match="id 'x' is repeated"):
        load_index(path)


def test_index_save_load_round_trip(tmp_path):
    vectors = _cloud(n=80, seed=19)
    index = build_index(vectors, m=6, ef_construction=30, seed=6)
    path = str(tmp_path / "index.bin")
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.n == index.n
    assert loaded.m == index.m
    assert loaded.entry_point == index.entry_point
    assert np.array_equal(loaded.layers[0], index.layers[0])
    assert np.array_equal(loaded.deg0, index.deg0)
    assert loaded.ids == index.ids
    assert len(loaded.layers) == len(index.layers)
    for got, want in zip(loaded.layers, index.layers):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.flags.aligned
    q = np.random.default_rng(20).normal(size=8)
    assert query(loaded, q, 5) == query(index, q, 5)


def test_index_v1_file_rejected(tmp_path):
    index = build_index(_cloud(n=30, seed=19), m=4, ef_construction=16, seed=0)
    path = tmp_path / "index.bin"
    save_index(index, str(path))
    blob = bytearray(path.read_bytes())
    assert blob[:4] == INDEX_MAGIC
    blob[4:8] = (1).to_bytes(4, "little")  # the header is not checksummed
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="version 1, expected 2"):
        load_index(str(path))


def _first(mask):
    return int(np.flatnonzero(mask)[0])


def _out_of_range_id(ix):
    ix.layers[0][0, 0] = ix.n


def _id_below_minus_one(ix):
    ix.layers[0][0, -1] = -2


def _gap_before_live_id(ix):
    node = _first(ix.deg0 >= 2)
    ix.layers[0][node, 0] = -1


def _self_link(ix):
    ix.layers[0][5, 0] = 5


def _link_below_level(ix):
    node = _first(ix.layers[1][:, 0] >= 0)
    ix.layers[1][node, 0] = _first(ix.levels == 0)


def _row_below_level(ix):
    ix.layers[1][_first(ix.levels == 0), 0] = ix.entry_point


def _level_above_top(ix):
    ix.levels[_first(ix.levels == 0)] = ix.max_level + 1


def _negative_level(ix):
    ix.levels[_first(ix.levels == 0)] = -1


def _entry_out_of_range(ix):
    ix.entry_point = ix.n


def _entry_below_top(ix):
    ix.entry_point = _first(ix.levels == 0)


def _narrow_layer(ix):
    ix.layers[1] = np.ascontiguousarray(ix.layers[1][:, :-1])


def _m_below_two(ix):
    ix.m = 1


def _one_way_edge(ix):
    # node drops its first neighbor's back edge; the row stays left-packed
    node = _first(ix.deg0 >= 1)
    other = int(ix.layers[0][node, 0])
    back = ix.neighbors(0, other)
    back.remove(node)
    ix.layers[0][other] = -1
    ix.layers[0][other, : len(back)] = back


def _duplicate_neighbor(ix):
    node = _first((ix.deg0 >= 1) & (ix.deg0 < 2 * ix.m))
    ix.layers[0][node, ix.deg0[node]] = ix.layers[0][node, 0]


def _ef_construction_zero(ix):
    ix.ef_construction = 0  # build_index refuses such a beam


def _scaled_row(factor):
    # a query scores rows by dot product, so a row off unit norm ranks wrongly
    def defect(ix):
        ix.data = ix.data * np.where(np.arange(ix.n) == 7, factor, 1.0)[:, None]

    defect.__name__ = f"_row_times_{factor:g}"
    return defect


@pytest.mark.parametrize(
    "defect, message",
    [
        (_out_of_range_id, "outside"),
        (_id_below_minus_one, "outside"),
        (_gap_before_live_id, "after its -1 padding"),
        (_self_link, "links to itself"),
        (_link_below_level, "links to a node below the layer"),
        (_row_below_level, "below the layer has neighbors"),
        (_level_above_top, "levels outside"),
        (_negative_level, "levels outside"),
        (_entry_out_of_range, "entry point"),
        (_entry_below_top, "not on the top level"),
        (_narrow_layer, "shape"),
        (_m_below_two, "below 2"),
        (_one_way_edge, "no back edge"),
        (_duplicate_neighbor, "same neighbor twice"),
        (_ef_construction_zero, "ef_construction 0 is below 1"),
        (_scaled_row(np.nan), "row 7 is not a finite unit vector"),
        (_scaled_row(np.inf), "row 7 is not a finite unit vector"),
        (_scaled_row(0.0), "row 7 is not a finite unit vector"),
        (_scaled_row(2.0), "row 7 is not a finite unit vector"),
        (_scaled_row(1e200), "row 7 is not a finite unit vector"),  # squares overflow
    ],
)
def test_load_index_rejects_invalid_structure(tmp_path, defect, message):
    # the defect is written through save_index, so the checksum is valid
    index = build_index(_cloud(n=200, seed=29), m=6, ef_construction=30, seed=3)
    assert index.max_level >= 1
    bad = dataclasses.replace(
        index, levels=index.levels.copy(), layers=[a.copy() for a in index.layers]
    )
    defect(bad)
    path = str(tmp_path / "index.bin")
    save_index(bad, path)
    with pytest.raises(RetrievalError, match=message):
        load_index(path)
    save_index(index, path)
    load_index(path)


def test_graph_and_answers_match_golden_digest():
    # levels, entry point, every layer's neighbor sets and 40 answers of a
    # seeded index; a rewrite of the build or the search that changes the
    # graph or any answer (ids, scores, visited count) changes the digest
    index = build_index(
        np.random.default_rng(31).normal(size=(300, 16)), m=6, ef_construction=30, seed=9
    )
    h = hashlib.sha256()
    h.update(repr((index.levels.tolist(), index.entry_point)).encode())
    for layer in range(index.max_level + 1):
        for node in np.flatnonzero(index.levels >= layer).tolist():
            h.update(repr((layer, node, sorted(index.neighbors(layer, node)))).encode())
    queries = np.random.default_rng(32).normal(size=(20, 16))
    for ef in (8, 40):
        for q in queries:
            h.update(repr(query(index, q, 5, ef_search=ef)).encode())
    assert h.hexdigest() == "46187fef41d7c586fb90966dd2afc0daf6891a4fbc8c1128bd66f97d9d991f5f"


def test_raw_layout_and_answers_match_golden_digest():
    # each layer's bytes in row order (the order the search visits), levels,
    # entry point, and answers at the bench shape, queries scaled to 1e+-200
    # included; recorded before the per-hop rewrite of the search
    index = build_index(
        np.random.default_rng(41).normal(size=(400, 64)), m=6, ef_construction=24, seed=12
    )
    assert index.max_level == 3
    h = hashlib.sha256()
    h.update(repr((index.levels.tolist(), index.entry_point)).encode())
    for adj in index.layers:
        h.update(repr((adj.dtype.str, adj.shape)).encode())
        h.update(adj.tobytes())
    queries = np.random.default_rng(42).normal(size=(16, 64))
    for ef in (16, 64):
        for q in queries:
            h.update(repr(query(index, q, 5, ef_search=ef)).encode())
        for scale in (1e200, 1e-200):
            for q in queries[:4]:
                h.update(repr(query(index, q * scale, 5, ef_search=ef)).encode())
    assert h.hexdigest() == "b574dfae31f63c56978236343e529489d9e8db6731655cf6d171565967ffbefa"


def test_recall_reasonable_at_modest_scale():
    # sanity bar well below the acceptance threshold so it stays fast
    vectors = _cloud(n=2000, d=16, seed=21)
    index = build_index(vectors, m=12, ef_construction=60, seed=7)
    rng = np.random.default_rng(22)
    hits = total = 0
    for _ in range(50):
        q = rng.normal(size=16)
        got = set(query(index, q, 5, ef_search=64).ids)
        want = set(brute_force_topk(vectors, q, 5).ids)
        hits += len(got & want)
        total += 5
    assert hits / total >= 0.9


def test_visited_grows_with_ef():
    vectors = _cloud(n=1000, d=8, seed=23)
    index = build_index(vectors, m=8, ef_construction=40, seed=8)
    q = np.random.default_rng(24).normal(size=8)
    visited = [query(index, q, 5, ef_search=ef).visited for ef in (8, 32, 128)]
    assert visited[0] < visited[-1]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100))
def test_query_never_duplicates_ids(seed):
    vectors = _cloud(n=60, d=6, seed=seed)
    index = build_index(vectors, m=6, ef_construction=24, seed=seed)
    q = np.random.default_rng(seed + 1).normal(size=6)
    res = query(index, q, 10, ef_search=24)
    assert len(set(res.ids)) == len(res.ids)


# ---------------------------------------------------------------------------
# latency bench


def test_bench_reports_consistent_fields():
    vectors = _cloud(n=200, d=8, seed=25)
    index = build_index(vectors, m=6, ef_construction=24, seed=0)
    queries = _cloud(n=37, d=8, seed=26)
    report = bench_query_latency(index, queries, k=3, ef_search=16, min_measurements=100)
    # cycles the 37 queries ceil(100/37) = 3 times
    assert report.n_queries == 111
    assert report.k == 3
    assert report.ef_search == 16
    assert report.p50_us <= report.p95_us <= report.p99_us
    assert report.mean_us > 0
    assert report.mean_visited > 0
    # the search is deterministic, so each cycle visits what one pass does
    visits = [query(index, row, 3, 16).visited for row in queries] * 3
    assert report.mean_visited == pytest.approx(np.mean(visits), rel=1e-12)


def test_bench_single_query_vector():
    vectors = _cloud(n=50, d=8, seed=27)
    index = build_index(vectors, m=6, ef_construction=24, seed=0)
    report = bench_query_latency(index, vectors[0], k=1, min_measurements=10)
    assert report.n_queries == 10


def test_bench_empty_query_set_rejected():
    vectors = _cloud(n=50, d=8, seed=28)
    index = build_index(vectors, m=6, ef_construction=24, seed=0)
    with pytest.raises(RetrievalError):
        bench_query_latency(index, np.zeros((0, 8)), k=1)


@pytest.mark.parametrize("count", [0, -3])
def test_bench_min_measurements_must_be_positive(monkeypatch, count):
    vectors = _cloud(n=40, d=8, seed=28)
    index = build_index(vectors, m=6, ef_construction=24, seed=0)
    monkeypatch.setattr(ecr.retrieval, "query", None)  # no query may run
    with pytest.raises(RetrievalError, match=f"min_measurements must be positive, got {count}$"):
        bench_query_latency(index, vectors, k=1, min_measurements=count)
