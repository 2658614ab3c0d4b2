"""Output checks computed apart from the ecr package.

Every check here uses only numpy and the benchmark's own arithmetic: the
cosine-to-bin oracle, a once-normalised exact scan, and a mean-pool
forward pass.  Nothing calls into ``ecr`` to decide whether ``ecr`` was
right.  Each check returns a list of problem strings (empty means the
output passed); ``self_test`` proves that each one fails on a
deliberately corrupted output.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# A cosine this close to a bin edge may land in either neighbouring bin
# under a different but equally valid summation order.
EDGE_TOL = 1e-9
SCORE_TOL = 1e-9
NLL_RTOL = 1e-9


def unit_rows(x) -> np.ndarray:
    """Rows scaled to unit L2 norm, overflow- and underflow-safe.

    Dividing by the largest magnitude first keeps the squared norm finite
    for rows near 1e200 and non-zero for rows near 1e-200.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    scaled = x / np.abs(x).max(axis=1, keepdims=True)
    return scaled / np.sqrt((scaled * scaled).sum(axis=1, keepdims=True))


def cosine_bins(rows, centroids, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle bins clamp(floor((c+1)/2*B), 0, B-1) and a near-edge mask."""
    c = np.clip(unit_rows(rows) @ unit_rows(centroids).T, -1.0, 1.0)
    scaled = (c + 1.0) / 2.0 * n_bins
    bins = np.clip(np.floor(scaled), 0, n_bins - 1).astype(np.int64)
    edge = np.abs(scaled - np.round(scaled)) * (2.0 / n_bins) < EDGE_TOL
    return bins, edge


def token_names(factors, group_sizes) -> list[str]:
    """'<F{anchor}:' stem for every flat anchor index, canonical order."""
    return [f"<{f}{a}:" for f, k in zip(factors, group_sizes) for a in range(k)]


def compare_bins(got, want, edge, where: str) -> tuple[list[str], int]:
    """Problems for bins that differ off an edge, and the count on an edge."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{where}: {got.shape[0]} bins, expected {want.shape[0]}"], 0
    diff = got != want
    # On an edge only the neighbouring bin is also right.
    on_edge = diff & edge & (np.abs(got - want) == 1)
    n_edge = int(on_edge.sum())
    bad = np.flatnonzero(diff & ~on_edge)
    if bad.size:
        j = int(bad[0])
        return [f"{where}: anchor {j} bin {int(got[j])}, oracle {int(want[j])}"], n_edge
    return [], n_edge


def parse_token_bins(tokens, stems) -> np.ndarray | None:
    """Bins from rendered tokens, or None if any token is not the expected stem."""
    if len(tokens) != len(stems):
        return None
    bins = np.empty(len(tokens), dtype=np.int64)
    for j, (tok, stem) in enumerate(zip(tokens, stems)):
        if not (tok.startswith(stem) and tok.endswith(">")):
            return None
        body = tok[len(stem) : -1]
        if not body.isdigit():
            return None
        bins[j] = int(body)
    return bins


def check_encode_jsonl(path, ids, bins, edge, stems) -> tuple[list[str], int]:
    """One JSON row per embedding, in order, whose tokens carry the oracle bins."""
    problems: list[str] = []
    n_edge = 0
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    if len(lines) != len(ids):
        return [f"{path}: {len(lines)} rows, expected {len(ids)}"], 0
    for i, line in enumerate(lines):
        row = json.loads(line)
        if set(row) != {"id", "text", "tokens"} or row["id"] != ids[i]:
            problems.append(f"row {i}: bad keys or id {row.get('id')!r}")
            continue
        if row["text"] != "".join(row["tokens"]):
            problems.append(f"row {i}: text is not the joined tokens")
        got = parse_token_bins(row["tokens"], stems)
        if got is None:
            problems.append(f"row {i}: tokens are not one per anchor in canonical order")
            continue
        p, e = compare_bins(got, bins[i], edge[i], f"row {i}")
        problems += p
        n_edge += e
    return problems, n_edge


def check_prefix(prefix, bins, edge, stems, base: int, n_bins: int, where: str) -> tuple[list[str], int]:
    """A global-mode prefix: text, tokens and vocabulary ids all carry the oracle bins."""
    rendered = [t.render() for t in prefix.tokens]
    got = parse_token_bins(rendered, stems)
    if got is None:
        return [f"{where}: tokens are not one per anchor in canonical order"], 0
    problems, n_edge = compare_bins(got, bins, edge, where)
    if prefix.text != "".join(rendered):
        problems.append(f"{where}: text is not the joined tokens")
    ids = base + np.arange(len(stems)) * n_bins + got
    if tuple(int(t) for t in ids) != tuple(prefix.token_ids):
        problems.append(f"{where}: token ids are not base + flat*B + bin")
    return problems, n_edge


# ---------------------------------------------------------------------------
# Retrieval


def exact_topk(unit_data: np.ndarray, q_unit: np.ndarray, k: int) -> list[int]:
    """Exact cosine top-k rows, ties toward the lower row."""
    sims = unit_data @ q_unit
    return [int(i) for i in np.argsort(-sims, kind="stable")[:k]]


def check_ranking(ids, scores, q_unit, unit_data, row_of, k: int, where: str) -> list[str]:
    """k distinct known ids whose scores are their cosines, non-increasing."""
    if len(ids) != k or len(scores) != k:
        return [f"{where}: {len(ids)} ids and {len(scores)} scores, expected {k}"]
    if len(set(ids)) != k:
        return [f"{where}: duplicate ids {list(ids)}"]
    rows = [row_of.get(i) for i in ids]
    if None in rows:
        return [f"{where}: unknown id in {list(ids)}"]
    want = unit_data[rows] @ q_unit
    got = np.asarray(scores, dtype=np.float64)
    problems = []
    if not np.all(np.abs(got - want) <= SCORE_TOL):
        problems.append(f"{where}: scores {got.tolist()} are not the cosines {want.tolist()}")
    if np.any(np.diff(got) > 0.0):
        problems.append(f"{where}: scores increase {got.tolist()}")
    return problems


def check_same_answers(first, second, where: str) -> list[str]:
    """Two lists of (ids, scores) answers are identical."""
    for i, (a, b) in enumerate(zip(first, second)):
        if a != b:
            return [f"{where}: query {i} answered {b}, expected {a}"]
    if len(first) != len(second):
        return [f"{where}: {len(second)} answers, expected {len(first)}"]
    return []


# ---------------------------------------------------------------------------
# Training


def array_digest(arrays) -> str:
    """sha256 over the raw bytes of a sequence of float64 arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def pooled_bins(emb, query_tokens, base: int, centroids, n_bins: int):
    """Oracle bins of a query segment under a live embedding table.

    The rows of the segment's non-control tokens are mean-pooled, then
    projected by cosine onto every anchor and binned.
    """
    h = emb[[t for t in query_tokens if t < base]].mean(axis=0)
    bins, edge = cosine_bins(h, centroids, n_bins)
    return bins[0], edge[0]


def mean_pool_nll(emb, out, sequences) -> dict[str, float]:
    """Per-language mean target NLL of a causal mean-pool model.

    ``sequences`` holds (token ids, prefix length, language).  Position j
    is predicted from the mean of the embeddings at positions 0..j-1, and
    the targets are the positions after the prefix and the first content
    token.
    """
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for ids, prefix_len, lang in sequences:
        for j in range(prefix_len + 1, len(ids)):
            logits = emb[ids[:j]].mean(axis=0) @ out
            top = float(logits.max())
            lse = top + math.log(float(np.exp(logits - top).sum()))
            sums[lang] = sums.get(lang, 0.0) + lse - float(logits[ids[j]])
            counts[lang] = counts.get(lang, 0) + 1
    return {lang: sums[lang] / counts[lang] for lang in sorted(sums)}


def check_nll(reported: dict, recomputed: dict, where: str) -> list[str]:
    if sorted(reported) != sorted(recomputed):
        return [f"{where}: languages {sorted(reported)}, expected {sorted(recomputed)}"]
    for lang, want in recomputed.items():
        got = reported[lang]
        if not abs(got - want) <= NLL_RTOL * abs(want):
            return [f"{where}: {lang} NLL {got!r}, recomputed {want!r}"]
    return []


# ---------------------------------------------------------------------------
# Self-test: each check passes on a correct output and fails on a corrupted one


class _Token:
    def __init__(self, text: str):
        self.text = text

    def render(self) -> str:
        return self.text


class _Prefix:
    def __init__(self, tokens, token_ids):
        self.tokens = tuple(_Token(t) for t in tokens)
        self.token_ids = tuple(token_ids)
        self.text = "".join(tokens)


def _expect(ok, case: int) -> None:
    if not ok:
        raise AssertionError(f"check self-test case {case} did not behave as expected")


def self_test(workdir: str) -> None:
    """Raise AssertionError unless every check rejects its corrupted case."""
    rng = np.random.default_rng(7)
    n_bins = 8
    cents = rng.standard_normal((5, 16))
    rows = rng.standard_normal((4, 16))
    bins, edge = cosine_bins(rows, cents, n_bins)
    scaled_bins, _ = cosine_bins(rows * 1e200, cents, n_bins)
    tiny_bins, _ = cosine_bins(rows * 1e-200, cents, n_bins)
    if not (np.array_equal(bins, scaled_bins) and np.array_equal(bins, tiny_bins)):
        raise AssertionError("oracle is not scale-invariant")
    probe, _ = cosine_bins(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]]), n_bins)
    if probe[:, 0].tolist() != [n_bins - 1, 0]:
        raise AssertionError("oracle does not fold c=1 into the top bin")
    stems = token_names(("T", "L"), (3, 2))
    ids = [f"r{i}" for i in range(4)]

    def jsonl(bin_rows) -> str:
        path = f"{workdir}/selftest.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for rid, b in zip(ids, bin_rows):
                toks = [f"{s}{int(v)}>" for s, v in zip(stems, b)]
                fh.write(json.dumps({"id": rid, "text": "".join(toks), "tokens": toks}) + "\n")
        return path

    edge_free = np.zeros_like(edge)
    _expect(not check_encode_jsonl(jsonl(bins), ids, bins, edge_free, stems)[0], 1)
    corrupt = bins.copy()
    corrupt[2, 3] += 1 if bins[2, 3] < n_bins - 1 else -1
    _expect(check_encode_jsonl(jsonl(corrupt), ids, bins, edge_free, stems)[0], 2)
    on_edge = edge_free.copy()
    on_edge[2, 3] = True
    _expect(check_encode_jsonl(jsonl(corrupt), ids, bins, on_edge, stems) == ([], 1), 3)
    far = bins.copy()
    far[2, 3] = (bins[2, 3] + n_bins // 2) % n_bins
    _expect(check_encode_jsonl(jsonl(far), ids, bins, on_edge, stems)[0], 15)

    base = 100
    toks = [f"{s}{int(v)}>" for s, v in zip(stems, bins[0])]
    good_ids = [base + j * n_bins + int(v) for j, v in enumerate(bins[0])]

    def prefix_problems(tokens, token_ids):
        return check_prefix(
            _Prefix(tokens, token_ids), bins[0], edge_free[0], stems, base, n_bins, "p"
        )[0]

    _expect(not prefix_problems(toks, good_ids), 4)
    bad_ids = list(good_ids)
    bad_ids[1] += 1
    _expect(prefix_problems(toks, bad_ids), 5)
    wrong = list(toks)
    wrong[0] = f"{stems[0]}{(int(bins[0, 0]) + 1) % n_bins}>"
    _expect(prefix_problems(wrong, good_ids), 6)

    data = unit_rows(rng.standard_normal((30, 8)))
    row_of = {f"v{i}": i for i in range(30)}
    q = unit_rows(rng.standard_normal(8))[0]
    top = exact_topk(data, q, 5)
    good = [f"v{i}" for i in top]
    good_scores = [float(data[i] @ q) for i in top]
    _expect(not check_ranking(good, good_scores, q, data, row_of, 5, "q"), 7)
    _expect(check_ranking(good[:1] + good[:4], good_scores, q, data, row_of, 5, "q"), 8)
    _expect(check_ranking(good, good_scores[::-1], q, data, row_of, 5, "q"), 9)
    _expect(check_ranking(good, [0.0] * 5, q, data, row_of, 5, "q"), 10)
    answers = [(tuple(good), tuple(good_scores))]
    _expect(not check_same_answers(answers, list(answers), "a"), 11)
    _expect(check_same_answers(answers, [(tuple(good[::-1]), tuple(good_scores))], "a"), 12)

    emb = rng.standard_normal((12, 4))
    out = rng.standard_normal((4, 10))
    seqs = [(np.array([0, 3, 5, 7]), 0, "en"), (np.array([11, 1, 2, 9, 4]), 1, "zh")]
    want = mean_pool_nll(emb, out, seqs)
    _expect(not check_nll(dict(want), want, "n"), 13)
    _expect(check_nll({k: v * (1 + 1e-6) for k, v in want.items()}, want, "n"), 14)

    before = array_digest([cents])
    moved = cents.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
    if array_digest([moved]) == before:
        raise AssertionError("anchor digest misses a one-ulp change")
