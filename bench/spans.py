"""Span tracing around the public functions of the ecr modules.

``Tracer.install`` replaces every public function of every ecr module
with a wrapper that records one span per call: span id, parent span id,
name (``<module>.<function>``), start and end in ns, and the phase of
the benchmark it ran in.  All spans of a run share one run id.  The
wrapper is also put in place of each ``from .x import f`` copy, so calls
between modules are seen as well.  Spans stay in memory and are written
out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Private helpers (leading underscore) and methods are not
wrapped, so their cost lands in the self time of the public function
that called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "corpus", "binio", "anchors", "codec", "retrieval", "geometry", "toytrain")

# Phases whose spans count towards the per-layer figures; the rest
# (fixtures, warm-up, scale-adversarial calls and the benchmark's own
# cross-checks) are kept in the trace file but left out of the figures.
COUNTED = ("setup", "round")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "fixture"
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns, child_ns, phase]
        self._stack: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.gauges: dict[str, float] = {}

    def _wrap(self, name: str, fn, on_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, 0, 0, 0, self.phase]
            spans.append(span)
            stack.append(span)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][5] += span[4] - span[3]
            if on_result is not None and self.phase in COUNTED:
                on_result(self, args, result)
            return result

        return traced

    def install(self, package) -> int:
        """Wrap every public function of the listed modules; returns the count."""
        modules = [getattr(package, m) for m in MODULES]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self._wrap(name, obj, _HOOKS.get(name))
        for namespace in [package] + modules:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(namespace, attr, replaced[id(obj)])
        return len(replaced)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    # -- aggregation ---------------------------------------------------------

    def per_layer(self, n_setups: int, n_rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures for one set-up plus one round.

        Times and counts from set-up spans are divided by the number of
        set-ups, those from round spans by the number of rounds.
        """
        weight = {"setup": 1.0 / n_setups, "round": 1.0 / n_rounds}
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        durations: dict[str, list[int]] = defaultdict(list)
        for _, _, name, start, end, child, phase in self.spans:
            w = weight.get(phase)
            if w is None:
                continue
            total[name] += (end - start) * w
            own[name] += (end - start - child) * w
            calls[name] += w
            if phase == "round":
                durations[name].append(end - start)
        counts: dict[str, float] = defaultdict(float)
        for (phase, name), value in self.counts.items():
            if phase in weight:
                counts[name] += value * weight[phase]

        def seconds(table, fn):
            return table[fn] / 1e9

        def tail_us(fn):
            d = durations[fn]
            return float(np.percentile(d, 99)) / 1e3 if d else 0.0

        n_queries = calls["retrieval.query"]
        return {
            "cli.encode_self_s": (seconds(own, "cli.cmd_encode"), "s"),
            "corpus.load_embeddings_s": (seconds(total, "corpus.load_embeddings"), "s"),
            "binio.read_envelope_s": (seconds(total, "binio.read_envelope"), "s"),
            "binio.write_envelope_s": (seconds(total, "binio.write_envelope"), "s"),
            "binio.bytes_read": (counts["binio.bytes_read"], "bytes"),
            "binio.bytes_written": (counts["binio.bytes_written"], "bytes"),
            "anchors.build_s": (seconds(total, "anchors.build_anchor_set"), "s"),
            "anchors.kmeans_iterations": (counts["anchors.kmeans_iterations"], "count"),
            "codec.encode_calls": (calls["codec.encode"], "count"),
            "codec.encode_self_s": (seconds(own, "codec.encode"), "s"),
            "codec.project_s": (seconds(total, "codec.project"), "s"),
            "codec.quantize_s": (seconds(total, "codec.quantize"), "s"),
            "codec.emit_tokens_s": (seconds(total, "codec.emit_tokens"), "s"),
            "codec.encode_p99_us": (tail_us("codec.encode"), "us"),
            "codec.encode_p99_samples": (float(len(durations["codec.encode"])), "count"),
            "retrieval.pca_fit_s": (seconds(total, "retrieval.fit_pca"), "s"),
            "retrieval.save_index_s": (seconds(total, "retrieval.save_index"), "s"),
            "retrieval.load_index_s": (seconds(total, "retrieval.load_index"), "s"),
            "retrieval.index_mb": (self.gauges.get("retrieval.index_mb", 0.0), "MB"),
            "retrieval.build_index_s": (seconds(total, "retrieval.build_index"), "s"),
            "retrieval.max_level": (self.gauges.get("retrieval.max_level", 0.0), "count"),
            "retrieval.degree0_mean": (self.gauges.get("retrieval.degree0_mean", 0.0), "count"),
            "retrieval.query_s": (seconds(total, "retrieval.query"), "s"),
            "retrieval.query_visited_mean": (
                counts["retrieval.query_visited"] / n_queries if n_queries else 0.0,
                "count",
            ),
            "retrieval.query_p99_us": (tail_us("retrieval.query"), "us"),
            "retrieval.query_p99_samples": (float(len(durations["retrieval.query"])), "count"),
            "geometry.compute_geometry_s": (seconds(total, "geometry.compute_geometry"), "s"),
            "geometry.purity_s": (seconds(total, "geometry.purity"), "s"),
            "geometry.crosslingual_consistency_s": (
                seconds(total, "geometry.crosslingual_consistency"),
                "s",
            ),
            "toytrain.train_step_calls": (calls["toytrain.train_step"], "count"),
            "toytrain.train_step_self_s": (seconds(own, "toytrain.train_step"), "s"),
            "toytrain.nll_eval_s": (seconds(total, "toytrain.nll_eval"), "s"),
            "toytrain.eval_crosslingual_s": (seconds(total, "toytrain.eval_crosslingual"), "s"),
            "toytrain.task_accuracy_s": (seconds(total, "toytrain.task_accuracy"), "s"),
            "toytrain.embed_sequence_calls": (calls["toytrain.embed_sequence"], "count"),
        }

    def write(self, path: str, header: dict) -> None:
        """A header line with the run id, then one line per span:
        [id, parent id (-1 for a root), name, start ns, end ns, phase]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, run_id=self.run_id, spans=len(self.spans))) + "\n")
            for sid, parent, name, start, end, _, phase in self.spans:
                fh.write(f'[{sid},{parent},"{name}",{start},{end},"{phase}"]\n')


def _read_bytes(tracer, args, payload):
    tracer.count("binio.bytes_read", os.path.getsize(args[0]))


def _written_bytes(tracer, args, result):
    tracer.count("binio.bytes_written", len(args[1]))


def _kmeans_iterations(tracer, args, result):
    tracer.count("anchors.kmeans_iterations", result.n_iter)


def _index_shape(tracer, args, index):
    tracer.gauges["retrieval.max_level"] = float(index.max_level)
    tracer.gauges["retrieval.degree0_mean"] = float(np.mean(index.deg0))


def _index_size(tracer, args, result):
    tracer.gauges["retrieval.index_mb"] = os.path.getsize(args[1]) / 1e6


def _query_visited(tracer, args, result):
    tracer.count("retrieval.query_visited", result.visited)


_HOOKS = {
    "binio.read_envelope": _read_bytes,
    "binio.atomic_write_bytes": _written_bytes,
    "anchors.kmeans_fit": _kmeans_iterations,
    "retrieval.build_index": _index_shape,
    "retrieval.save_index": _index_size,
    "retrieval.query": _query_visited,
}
