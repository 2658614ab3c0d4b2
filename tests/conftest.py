"""Shared fixtures and the acceptance-criteria summary hook."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ecr.corpus import Corpus, CorpusHeader, CorpusRecord, EmbeddingMatrix

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

_acceptance_outcomes: dict[int, str] = {}
_acceptance_notes: dict[int, list[str]] = {}


def acceptance_note(number: int, text: str) -> None:
    """Attach a measurement line to one criterion's summary entry."""
    _acceptance_notes.setdefault(number, []).append(text)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_acceptance_(\d+)", report.nodeid)
    if match:
        _acceptance_outcomes[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance_outcomes):
        status = "PASS" if _acceptance_outcomes[number] == "passed" else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number}: {status}")
        for note in _acceptance_notes.get(number, []):
            terminalreporter.write_line(f"    {note}")


def build_corpus(records: list[dict]) -> Corpus:
    """Corpus from shorthand dicts; inventories derived from the records."""
    full = []
    for i, spec in enumerate(records):
        full.append(
            CorpusRecord(
                dialog_id=spec.get("dialog_id", f"d{i:03d}"),
                task=spec.get("task", "booking"),
                language=spec.get("language", "en"),
                emotion=spec.get("emotion", "neutral"),
                intent=spec.get("intent", "reserve"),
                en_q=spec.get("en_q", "book a table"),
                zh_q=spec.get("zh_q", "ding zuo"),
                hi_q=spec.get("hi_q", "mez buk karo"),
                en_a=spec.get("en_a", "done"),
                zh_a=spec.get("zh_a", "hao de"),
                hi_a=spec.get("hi_a", "ho gaya"),
            )
        )
    header = CorpusHeader(
        tasks=tuple(sorted({r.task for r in full})),
        languages=("en", "zh", "hi"),
        emotions=tuple(sorted({r.emotion for r in full})),
        intents=tuple(sorted({r.intent for r in full})),
    )
    return Corpus(header=header, records=full)


@pytest.fixture
def tiny_corpus() -> Corpus:
    return build_corpus(
        [
            {"dialog_id": "d000", "task": "booking", "language": "en"},
            {"dialog_id": "d001", "task": "support", "language": "zh", "emotion": "angry"},
            {"dialog_id": "d002", "task": "booking", "language": "hi", "intent": "cancel"},
            {"dialog_id": "d003", "task": "support", "language": "en", "emotion": "angry"},
        ]
    )


def other_layouts(X: np.ndarray) -> list[np.ndarray]:
    """The values of a C-ordered 2-d X Fortran-ordered, and as a view whose
    rows and entries are both strided."""
    wide = np.zeros((2 * X.shape[0], 3 * X.shape[1]))
    wide[::2, ::3] = X
    return [np.asfortranarray(X), wide[::2, ::3]]


def embeddings_for(ids: list[str], d: int = 6, seed: int = 0) -> EmbeddingMatrix:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(len(ids), d)).astype(np.float32)
    return EmbeddingMatrix(data=data, ids=list(ids))
