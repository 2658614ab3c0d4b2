"""Smoke runs of the experiment scripts with tiny arguments: each exits 0
and prints its table header."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize(
    "name, argv, header",
    [
        (
            "paired_training",
            ["--seeds", "2", "--n-per-lang", "8", "--epochs", "2"],
            ["seed", "baseline_nll", "ecr_nll", "gap", "win"],
        ),
        (
            "stability_probe",
            ["--lrs", "0.05,50", "--n-per-lang", "8", "--epochs", "2"],
            ["lr", "clip", "arm", "steps", "diverged", "divergence_step", "final_nll"],
        ),
    ],
)
def test_training_script_prints_table(capsys, name, argv, header):
    assert _main(name)(argv) == 0
    assert header in [line.split() for line in capsys.readouterr().out.splitlines()]


def test_paired_training_writes_results(capsys, tmp_path):
    out = tmp_path / "paired.json"
    argv = ["--seeds", "1", "--n-per-lang", "8", "--epochs", "1", "--out", str(out)]
    assert _main("paired_training")(argv) == 0
    assert "wins: " in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert [row["seed"] for row in payload["rows"]] == [0]


def test_cli_peak_rss_prints_each_command(capsys):
    assert _main("cli_peak_rss")(["--n-per-lang", "4", "--dim", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rows=12 d=8"
    assert lines[1].split() == ["command", "seconds", "peak_rss_mb"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["make-synthetic", "build-anchors", "encode"]
    assert all(float(row[2]) > 0 for row in rows)


def test_codec_latency_prints_each_call_and_its_stages(capsys):
    assert _main("codec_latency")(["--rows", "5", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "anchors=29 d=768 | anchors=12 d=24; 2 passes over 5 inputs"
    assert lines[1].split() == ["call", "best_us", "p99_us", "calls", "split_us"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["encode", "sample_prefix"]
    assert [row[3] for row in rows] == ["10", "10"]
    assert [[part.split("=")[0] for part in row[4:]] for row in rows] == [
        ["project", "quantize", "render"], ["pool", "project", "quantize", "render"],
    ]
    assert all(float(row[1]) > 0 for row in rows)
