"""The three benchmark workloads: encode, ann and train-paired.

Each workload makes its inputs from the seed, then runs whole rounds of
the same operations.  A round times calls into the public functions of
the unmodified ecr package from outside and checks every output with
``checks``.  ``attempted`` and ``failed`` grow by the same amounts in
every round, so the failed share is the same in every run.

The only operations allowed to fail are the scale-adversarial ones:
fixed inputs, independent of the seed, multiplied by 1e200 and 1e-200.
Cosine similarity is scale-invariant, so the right answer is the one for
the unscaled input.  They are kept out of every timing and quality
figure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time
import warnings
from dataclasses import replace

import numpy as np

import checks

# Seed of the scale-adversarial fixtures; deliberately not --seed.
FIXED_SEED = 271828
SCALES = (1e200, 1e-200)
N_BINS = 8


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile_us(ns, q) -> float:
    return float(np.percentile(ns, q)) / 1e3


class Workload:
    """Shared bookkeeping: counts, problems, call latencies, phase tags."""

    name = ""
    # Set-ups timed before each round, so that they sample the whole run.
    SETUPS_PER_ROUND = 1
    # Timed passes over the same inputs in one round, spread between its
    # bulk steps: the host's speed holds for tenths of a second, so
    # passes apart in time see different speeds.
    CALL_PASSES = 2

    def __init__(self, ecr, seed: int, workdir: str, tracer=None):
        self.ecr = ecr
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.edge_bins = 0
        self.bulk_s: list[float] = []
        self.call_ns: list[int] = []
        self.best_ns: np.ndarray | None = None
        self.round_ns: list[int] = []
        self.setup_s: list[float] = []
        self.extra_setup_s: list[float] = []
        self.digest = hashlib.sha256()
        self.rounds = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Tag the spans of the enclosed calls (traced runs only)."""
        if self.tracer is None:
            yield
            return
        previous = self.tracer.phase
        self.tracer.phase = name
        try:
            yield
        finally:
            self.tracer.phase = previous

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def adversarial(self, call, judge) -> None:
        """One scale-adversarial operation: failed unless it returns the
        answer for the unscaled input."""
        self.attempted += 1
        try:
            with warnings.catch_warnings(), self.phase("adversarial"):
                warnings.simplefilter("ignore", RuntimeWarning)
                result = call()
        except Exception as exc:  # counted, never fatal: the fault is in the program
            self.fail(f"raised {type(exc).__name__}")
            return
        if judge(result):
            self.fail("wrong answer")

    def fixture(self) -> None:
        """Build the fixed scale-adversarial operations (none by default)."""
        self.adv = []

    def adversarial_round(self) -> None:
        for call, judge in self.adv:
            self.adversarial(call, judge)

    def notes(self) -> list[str]:
        return []

    def time_calls(self, call, inputs) -> list:
        """One timed pass of single calls, one per input, in order."""
        results, ns = [], self.round_ns
        for x in inputs:
            t0 = time.perf_counter_ns()
            results.append(call(x))
            ns.append(time.perf_counter_ns() - t0)
        return results

    def end_round(self) -> None:
        """Fold the round's passes into each input's fastest call."""
        ns = np.asarray(self.round_ns, dtype=np.int64)
        self.call_ns += self.round_ns
        self.round_ns = []
        best = ns.reshape(self.CALL_PASSES, -1).min(axis=0)
        self.best_ns = best if self.best_ns is None else np.minimum(self.best_ns, best)
        self.rounds += 1

    def call_best_us(self) -> float:
        """Median over inputs of each input's fastest call across rounds.

        Every round repeats the same inputs, so an input's fastest call is
        its cost outside the host's slow time slices; the median over
        inputs weighs the typical input, not only the cheapest.
        """
        return float(np.median(self.best_ns)) / 1e3

    def tails(self) -> str:
        n = len(self.call_ns)
        return (
            f"{n} calls: {len(self.best_ns)} inputs x {self.CALL_PASSES} passes x "
            f"{self.rounds} rounds; p90 {_percentile_us(self.call_ns, 90):.1f} us, "
            f"closed-loop rate {n / (sum(self.call_ns) / 1e9):.1f} calls/s"
        )

    def bulk_items(self) -> int:
        """Items through the bulk phase of one round."""
        raise NotImplementedError

    def bulk(self) -> str:
        return f"bulk phase {self.bulk_items()} items; round s: " + " ".join(
            f"{t:.4f}" for t in self.bulk_s
        )

    def printed(self) -> dict[str, tuple[float, str]]:
        """Figures printed every run but not gated.

        Bulk throughput: a phase of a second or more takes whatever share
        of slow time slices the shared host hands out, and that share
        drifts by tens of percent over minutes.  Call percentiles over
        all calls follow the same drift.
        """
        items = self.bulk_items()
        return {
            "bulk_median_per_s": (items / _median(self.bulk_s), "1/s"),
            "call_p1_us": (_percentile_us(self.call_ns, 1), "us"),
            "call_p50_us": (_percentile_us(self.call_ns, 50), "us"),
            "call_p99_us": (_percentile_us(self.call_ns, 99), "us"),
            "calls": (len(self.call_ns), "count"),
        }


# ---------------------------------------------------------------------------


class Encode(Workload):
    """``ecr encode --out`` over a teacher-width file, then single-row calls."""

    name = "encode"
    N_PER_LANG = 400  # 1200 rows
    N_FACTORS = 6
    D = 768
    FACTORS = "T,L,E,I,P"
    K_P = 8  # 6 + 3 + 6 + 6 label anchors plus 8 k-means anchors = 29
    BASE = 1000
    CALLS = 400
    WARM = 50

    def fixture(self) -> None:
        tt, an, codec = self.ecr.toytrain, self.ecr.anchors, self.ecr.codec
        data = tt.make_synthetic_corpus(
            seed=FIXED_SEED, n_per_lang=10, n_factors=self.N_FACTORS, d=self.D
        )
        anchor_set = an.build_anchor_set(
            data.embeddings, data.corpus, tuple(self.FACTORS.split(",")),
            k={"P": self.K_P}, seed=FIXED_SEED,
        )
        vocab = codec.token_vocabulary(anchor_set, N_BINS, self.BASE)
        rows = data.embeddings.data[:4].astype(np.float64)
        cents = np.vstack([g.centroids for g in anchor_set.groups])
        bins, edge = checks.cosine_bins(rows, cents, N_BINS)
        stems = checks.token_names(anchor_set.factors, anchor_set.group_sizes)
        self.adv = []
        for i, row in enumerate(rows):
            for scale in SCALES:
                def call(h=row * scale):
                    return codec.encode(h, anchor_set, N_BINS, vocab=vocab)

                def judge(prefix, i=i):
                    return checks.check_prefix(
                        prefix, bins[i], edge[i], stems, self.BASE, N_BINS, "adversarial"
                    )[0]

                self.adv.append((call, judge))

    def setup(self) -> None:
        tt, corpus, cli = self.ecr.toytrain, self.ecr.corpus, self.ecr.cli
        data = tt.make_synthetic_corpus(
            seed=self.seed, n_per_lang=self.N_PER_LANG, n_factors=self.N_FACTORS, d=self.D
        )
        corpus.save_embeddings(data.embeddings, self.path("teacher.bin"))
        corpus.save_corpus(data.corpus, self.path("corpus.jsonl"))
        argv = [
            "build-anchors", "--embeddings", self.path("teacher.bin"),
            "--corpus", self.path("corpus.jsonl"), "--factors", self.FACTORS,
            "--k", f"P={self.K_P}", "--seed", str(self.seed), "--out", self.path("anchors.bin"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.dispatch(argv)
        if rc != 0:
            raise RuntimeError(f"ecr build-anchors exited {rc}")
        self.anchor_set = self.ecr.anchors.load_anchors(self.path("anchors.bin"), expect_d=self.D)
        self.vocab = self.ecr.codec.token_vocabulary(self.anchor_set, N_BINS, self.BASE)
        self.data = data

    def prepare(self) -> None:
        emb = self.data.embeddings
        self.rows = emb.data.astype(np.float64)
        self.ids = list(emb.ids)
        cents = np.vstack([g.centroids for g in self.anchor_set.groups])
        self.bins, self.edge = checks.cosine_bins(self.rows, cents, N_BINS)
        self.stems = checks.token_names(self.anchor_set.factors, self.anchor_set.group_sizes)
        self.out = self.path("prefixes.jsonl")
        self.argv = [
            "encode", "--embeddings", self.path("teacher.bin"),
            "--anchors", self.path("anchors.bin"), "--bins", str(N_BINS), "--out", self.out,
        ]
        self.stdout_line = f"encoded {len(self.ids)} rows -> {self.out}\n"
        warm = self.ecr.corpus.EmbeddingMatrix(
            data=emb.data[: self.WARM], ids=self.ids[: self.WARM]
        )
        self.ecr.corpus.save_embeddings(warm, self.path("warm.bin"))

    def warm_up(self) -> None:
        argv = list(self.argv)
        argv[2] = self.path("warm.bin")
        argv[-1] = self.path("warm.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            self.ecr.cli.dispatch(argv)
        for h in self.rows[: self.WARM]:
            self.ecr.codec.encode(h, self.anchor_set, N_BINS, vocab=self.vocab)

    def run_round(self) -> None:
        dispatch, encode = self.ecr.cli.dispatch, self.ecr.codec.encode
        anchor_set, vocab, rows = self.anchor_set, self.vocab, self.rows[: self.CALLS]

        def call(h):
            return encode(h, anchor_set, N_BINS, vocab=vocab)

        prefixes = self.time_calls(call, rows)
        printed = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(printed):
            rc = dispatch(self.argv)
        self.bulk_s.append((time.perf_counter_ns() - t0) / 1e9)
        prefixes += self.time_calls(call, rows)

        if rc != 0 or printed.getvalue() != self.stdout_line:
            self.problems.append(f"ecr encode exited {rc}, printed {printed.getvalue()!r}")
        problems, n_edge = checks.check_encode_jsonl(self.out, self.ids, self.bins, self.edge, self.stems)
        self.problems += problems
        self.edge_bins += n_edge
        for n, prefix in enumerate(prefixes):
            i = n % self.CALLS
            problems, n_edge = checks.check_prefix(
                prefix, self.bins[i], self.edge[i], self.stems, self.BASE, N_BINS, f"call {i}"
            )
            self.problems += problems
            self.edge_bins += n_edge
        self.attempted += len(self.ids) + len(prefixes)
        if self.rounds == 0:
            with open(self.out, "rb") as fh:
                self.digest.update(fh.read())
            for p in prefixes[: self.CALLS]:
                self.digest.update(repr(p.token_ids).encode())
        self.end_round()

    def metrics(self) -> dict[str, tuple[float, str]]:
        checked = self.rounds * (len(self.ids) + self.CALL_PASSES * self.CALLS) * self.bins.shape[1]
        return {
            "call_best_us": (self.call_best_us(), "us"),
            "quality": (1.0 - self.edge_bins / checked, "ratio"),
        }

    def bulk_items(self) -> int:
        return len(self.ids)

    def notes(self) -> list[str]:
        return [self.bulk()]


# ---------------------------------------------------------------------------


def _clustered(rng, n: int, centers: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Teacher-like rows: a random center plus anisotropic noise."""
    labels = rng.integers(centers.shape[0], size=n)
    return centers[labels] + rng.standard_normal((n, centers.shape[1])) * spread


class Ann(Workload):
    """Graph index written by build_index, saved, loaded, then read by query."""

    name = "ann"
    D = 768
    R = 64
    N_CENTERS = 48
    N_INDEX = 2000
    N_QUERIES = 500
    K = 5
    M = 6
    EFC = 24
    EF = 16
    WARM = 200

    def _inputs(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((self.N_CENTERS, self.D))
        spread = 0.15 + 0.6 * rng.random(self.D)
        return _clustered(rng, n, centers, spread)

    def fixture(self) -> None:
        ret = self.ecr.retrieval
        raw = self._inputs(FIXED_SEED, 304)
        base, probes = raw[:300, : self.R], raw[300:, : self.R]
        index = ret.build_index(base, m=8, ef_construction=64, seed=0)
        unit = checks.unit_rows(base)
        row_of = {str(i): i for i in range(300)}
        self.adv = []
        for q in probes:
            want = ret.query(index, q, self.K, ef_search=64)
            q_unit = checks.unit_rows(q)[0]
            for scale in SCALES:
                def call(v=q * scale):
                    return ret.query(index, v, self.K, ef_search=64)

                def judge(res, q_unit=q_unit, want=want):
                    return checks.check_ranking(
                        res.ids, res.scores, q_unit, unit, row_of, self.K, "adversarial"
                    ) or checks.check_same_answers(
                        [(want.ids, want.scores)], [(res.ids, res.scores)], "adversarial"
                    )

                self.adv.append((call, judge))

    def setup(self) -> None:
        ret = self.ecr.retrieval
        raw = self._inputs(self.seed, self.N_INDEX + self.N_QUERIES)
        pca = ret.fit_pca(raw[: self.N_INDEX], self.R, seed=self.seed)
        reduced = ret.pca_project(pca, raw)
        self.base = reduced[: self.N_INDEX]
        self.queries = reduced[self.N_INDEX :]

    def prepare(self) -> None:
        self.ids = [f"v{i:05d}" for i in range(self.N_INDEX)]
        self.row_of = {rid: i for i, rid in enumerate(self.ids)}
        self.unit = checks.unit_rows(self.base)
        self.q_unit = checks.unit_rows(self.queries)
        self.truth = [set(checks.exact_topk(self.unit, q, self.K)) for q in self.q_unit]
        self.index_path = self.path("index.bin")

    def _build(self):
        return self.ecr.retrieval.build_index(
            self.base, ids=self.ids, m=self.M, ef_construction=self.EFC, seed=self.seed
        )

    def warm_up(self) -> None:
        """Build, save and load the index that the first round reads first."""
        ret = self.ecr.retrieval
        ret.save_index(self._build(), self.index_path)
        self.loaded = ret.load_index(self.index_path)
        for q in self.queries[: self.WARM]:
            ret.query(self.loaded, q, self.K, ef_search=self.EF)

    def run_round(self) -> None:
        ret = self.ecr.retrieval
        query, k, ef = ret.query, self.K, self.EF

        def reader(index):
            return lambda q: query(index, q, k, ef_search=ef)

        # Read the previous round's index, then write and read a new one.
        before = self.time_calls(reader(self.loaded), self.queries)
        t0 = time.perf_counter_ns()
        index = self._build()
        self.bulk_s.append((time.perf_counter_ns() - t0) / 1e9)
        t0 = time.perf_counter_ns()
        ret.save_index(index, self.index_path)
        loaded = ret.load_index(self.index_path)
        self.extra_setup_s.append((time.perf_counter_ns() - t0) / 1e9)

        results = self.time_calls(reader(loaded), self.queries)
        self.loaded = loaded
        answers = [(r.ids, r.scores) for r in results]
        self.problems += checks.check_same_answers(
            answers, [(r.ids, r.scores) for r in before], "index of the previous round"
        )
        if self.rounds == 0:
            with self.phase("check"):
                in_memory = [
                    (r.ids, r.scores)
                    for r in (query(index, q, k, ef_search=ef) for q in self.queries)
                ]
            self.problems += checks.check_same_answers(in_memory, answers, "loaded index")
            for i, (ids, scores) in enumerate(answers):
                self.problems += checks.check_ranking(
                    ids, scores, self.q_unit[i], self.unit, self.row_of, k, f"query {i}"
                )
            hits = sum(
                len(self.truth[i] & {self.row_of[rid] for rid in ids})
                for i, (ids, _) in enumerate(answers)
            )
            self.recall = hits / (k * len(answers))
            self.first_answers = answers
            self.index_bytes = os.path.getsize(self.index_path)
            self.digest.update(repr(answers).encode())
        else:
            self.problems += checks.check_same_answers(self.first_answers, answers, "rebuilt index")
        self.attempted += 3 + len(before) + len(results)  # build, save, load, queries
        self.end_round()

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "call_best_us": (self.call_best_us(), "us"),
            "quality": (self.recall, "ratio"),
        }

    def bulk_items(self) -> int:
        return self.N_INDEX

    def notes(self) -> list[str]:
        return [
            self.bulk(),
            f"index n={self.N_INDEX} d={self.R} m={self.M} efc={self.EFC}; "
            f"query k={self.K} ef={self.EF}; recall@{self.K} {self.recall:.4f}; "
            f"index file {self.index_bytes / 1e6:.3f} MB"
        ]


# ---------------------------------------------------------------------------


class TrainPaired(Workload):
    """One baseline/conditioned pair at the acceptance-14 configuration."""

    name = "train-paired"
    FACTORS = ("T", "L", "E", "I")
    N_PER_LANG = 100
    EPOCHS = 25
    # A set-up takes about 25 ms against a round of about 3 s.
    SETUPS_PER_ROUND = 8
    CALL_PASSES = 3

    def setup(self) -> None:
        tt = self.ecr.toytrain
        data = tt.make_synthetic_corpus(
            seed=self.seed, n_per_lang=self.N_PER_LANG, query_content=4,
            marker_repeat=2, answer_noise=0.05,
        )
        self.anchors = tt.build_toy_anchors(data, self.FACTORS, seed=self.seed)
        train_recs, self.eval_recs = tt.split_records(data, 0.25)
        self.train = tt.make_samples(data, train_recs)
        self.eval = tt.make_samples(data, self.eval_recs)
        self.layout = data.layout

    def prepare(self) -> None:
        tt = self.ecr.toytrain
        shared = dict(seed=self.seed, learning_rate=0.05, epochs=self.EPOCHS, holdout_fraction=0.25)
        self.configs = {
            arm: tt.TrainConfig(
                ecr=tt.EcrSettings(enabled=arm == "ecr", factors=self.FACTORS, n_bins=N_BINS),
                **shared,
            )
            for arm in ("baseline", "ecr")
        }
        self.cents = np.vstack([g.centroids for g in self.anchors.groups])
        self.stems = checks.token_names(self.anchors.factors, self.anchors.group_sizes)
        self.callers = self.eval + self.train

    def _train(self, arm: str, cfg):
        return self.ecr.toytrain.run_training(
            self.train, self.eval, self.eval_recs, self.layout,
            self.anchors, self.anchors, cfg, arm=arm,
        )

    def warm_up(self) -> None:
        """Train the conditioned model that the first round reads first."""
        self._train("baseline", replace(self.configs["baseline"], epochs=1))
        self.model, _ = self._train("ecr", self.configs["ecr"])

    def _check_arm(self, model, report, conditioned: bool) -> list[str]:
        if report.diverged or len(report.nll_per_language) != self.EPOCHS:
            return [f"{report.arm}: diverged or missing epochs"]
        if report.anchor_checksum_before != report.anchor_checksum_after:
            return [f"{report.arm}: anchor checksum changed during training"]
        base = model.base_size
        sequences, problems = [], []
        for i, s in enumerate(self.eval):
            prefix: list[int] = []
            if conditioned:
                bins, edge = checks.pooled_bins(
                    model.emb, s.tokens[: s.query_len], base, self.cents, N_BINS
                )
                if edge.any():
                    # Either neighbouring bin is right on an edge: take the
                    # program's, once the check has accepted it.
                    with self.phase("check"):
                        got = self.ecr.toytrain.sample_prefix(
                            model, s, self.anchors, self.configs["ecr"].ecr
                        )
                    found, n_edge = checks.check_prefix(
                        got, bins, edge, self.stems, base, N_BINS, f"{report.arm} eval {i}"
                    )
                    problems += found
                    self.edge_bins += n_edge
                    bins = np.asarray(got.token_ids) - base - np.arange(len(bins)) * N_BINS
                prefix = [base + j * N_BINS + int(b) for j, b in enumerate(bins)]
            sequences.append((np.asarray(prefix + list(s.tokens)), len(prefix), s.language))
        recomputed = checks.mean_pool_nll(model.emb, model.out, sequences)
        return problems + checks.check_nll(report.nll_per_language[-1], recomputed, report.arm)

    def run_round(self) -> None:
        sample_prefix, settings = self.ecr.toytrain.sample_prefix, self.configs["ecr"].ecr

        def reader(model):
            return lambda s: sample_prefix(model, s, self.anchors, settings)

        # Read the previous round's conditioned model before and between
        # the two arms, then the new one.
        before = checks.array_digest(g.centroids for g in self.anchors.groups)
        earlier = self.time_calls(reader(self.model), self.callers)
        t0 = time.perf_counter_ns()
        base_model, base_rep = self._train("baseline", self.configs["baseline"])
        train_ns = time.perf_counter_ns() - t0
        earlier += self.time_calls(reader(self.model), self.callers)
        t0 = time.perf_counter_ns()
        ecr_model, ecr_rep = self._train("ecr", self.configs["ecr"])
        self.bulk_s.append((train_ns + time.perf_counter_ns() - t0) / 1e9)
        prefixes = self.time_calls(reader(ecr_model), self.callers)
        self.model = ecr_model

        if checks.array_digest(g.centroids for g in self.anchors.groups) != before:
            self.problems.append("anchor arrays changed during the paired run")
        self.problems += self._check_arm(base_model, base_rep, conditioned=False)
        self.problems += self._check_arm(ecr_model, ecr_rep, conditioned=True)
        emb, base = ecr_model.emb, ecr_model.base_size
        for i, (s, prefix) in enumerate(zip(self.callers, prefixes)):
            bins, edge = checks.pooled_bins(emb, s.tokens[: s.query_len], base, self.cents, N_BINS)
            problems, n_edge = checks.check_prefix(
                prefix, bins, edge, self.stems, base, N_BINS, f"prefix {i}"
            )
            self.problems += problems
            self.edge_bins += n_edge
        want = [p.token_ids for p in prefixes] * 2
        if [p.token_ids for p in earlier] != want:
            self.problems.append("the previous round's model gave other prefixes")
        self.attempted += 2 + len(earlier) + len(prefixes)
        self.nll = {
            arm: float(np.mean(list(rep.nll_per_language[-1].values())))
            for arm, rep in (("baseline", base_rep), ("ecr", ecr_rep))
        }
        if self.rounds == 0:
            self.digest.update(base_rep.to_json().encode())
            self.digest.update(ecr_rep.to_json().encode())
        self.end_round()

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "call_best_us": (self.call_best_us(), "us"),
            "quality": (self.nll["baseline"] / self.nll["ecr"], "ratio"),
        }

    def bulk_items(self) -> int:
        return len(self.train) * self.EPOCHS * 2

    def notes(self) -> list[str]:
        return [
            self.bulk(),
            f"final held-out NLL baseline {self.nll['baseline']:.6f}, "
            f"conditioned {self.nll['ecr']:.6f}; {len(self.train)} training samples x "
            f"{self.EPOCHS} epochs x 2 arms"
        ]


WORKLOADS = {w.name: w for w in (Encode, Ann, TrainPaired)}
