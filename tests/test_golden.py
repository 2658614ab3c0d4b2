"""Golden digests of the report JSON the experiments write.

A small seeded paired run, ablation sweep and geometry report are
serialised as the CLI writes them and hashed; a rewrite of the training
loop, the evaluation passes or the manifold statistics that changes any
byte of them changes a digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from ecr.geometry import compute_geometry, partition_from_anchors, partition_from_labels
from ecr.toytrain import (
    TrainConfig,
    build_toy_anchors,
    make_synthetic_corpus,
    run_ablation,
    run_experiment,
)


GOLDEN = {
    "run_experiment": "c8900f35eb62c7d18e9e628ce752176d8c32d83471a6f1f8e3f339f707611965",
    "run_ablation": "b7e2e41e4b70b00e5760f84b9549a148bdd1afaf095192daeaa9dfef4d93c09e",
    "compute_geometry": "f4f65c9822faba00960a9bb06f6f2b83315dc1f452957f80c2acd1a5ca4ebce1",
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
    configs = {"baseline": cfg, "ecr": replace(cfg, ecr=replace(cfg.ecr, enabled=True))}
    outcome = run_experiment(data, anchors, configs)
    assert _digest(outcome.to_dict()) == GOLDEN["run_experiment"]


def test_run_ablation_rows_digest(toy):
    data, anchors, cfg = toy
    assert _digest(run_ablation(data, anchors, cfg)) == GOLDEN["run_ablation"]


def test_compute_geometry_digest(toy):
    data, anchors, _ = toy
    teacher = data.embeddings
    reports = [
        compute_geometry(teacher, partition_from_labels(teacher.ids, labels)).to_dict()
        for labels in (
            [rec.language for rec in data.corpus.records],
            [rec.task for rec in data.corpus.records],
        )
    ]
    reports.append(compute_geometry(teacher, partition_from_anchors(teacher, anchors)).to_dict())
    assert _digest(reports) == GOLDEN["compute_geometry"]
