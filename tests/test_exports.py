"""Every name in ``ecr.__all__`` is used by the package, its scripts or its
benchmark, or is listed below with the test that keeps it.

A use is a code token equal to the name (comments and strings do not
count) in ``src/ecr/``, ``scripts/`` or ``bench/``, outside the name's own
top-level definition and outside ``src/ecr/__init__.py``, which only
re-exports.
"""

import ast
import io
import tokenize
from pathlib import Path

import ecr

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src/ecr", "scripts", "bench")

# Exported names that no program file uses, each kept for the test named.
KEPT_FOR_TESTS = {
    # test_acceptance_02_projection_matches_scalar_oracle
    "project": "tests/test_acceptance.py",
    # test_acceptance_03_quantizer_monotone_covering_endpoints
    "quantize_value": "tests/test_acceptance.py",
    # test_acceptance_04_token_codec_bijective
    "parse_token": "tests/test_acceptance.py",
    # test_acceptance_10_pca_orthonormal_and_lossless
    "pca_reconstruct": "tests/test_acceptance.py",
    # oracles of test_compute_geometry_aggregates_consistently and
    # test_geometry_against_loop_oracle
    "intra_compactness": "tests/test_geometry.py",
    "inter_separation": "tests/test_geometry.py",
}


def _files():
    for sub in SEARCHED:
        for path in sorted((ROOT / sub).rglob("*.py")):
            if path != ROOT / "src/ecr/__init__.py":
                yield path


def _definitions():
    """Top-level name -> (file, first line, last line) in the package."""
    spans = {}
    for path in sorted((ROOT / "src/ecr").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                spans[node.name] = (path, first, node.end_lineno)
    return spans


def _unused_exports():
    spans = _definitions()
    used = set()
    for path in _files():
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.NAME or tok.string not in ecr.__all__:
                continue
            def_path, first, last = spans.get(tok.string, (None, 0, -1))
            if path == def_path and first <= tok.start[0] <= last:
                continue
            used.add(tok.string)
    return sorted(set(ecr.__all__) - used)


def test_every_export_is_used_or_kept_for_a_test():
    unused = _unused_exports()
    assert [name for name in unused if name not in KEPT_FOR_TESTS] == []
    # an entry whose name is used, or no longer exported, is stale
    assert sorted(KEPT_FOR_TESTS) == unused


def test_kept_names_are_read_by_their_tests():
    for name, test_file in KEPT_FOR_TESTS.items():
        source = (ROOT / test_file).read_text(encoding="utf-8")
        names = {
            tok.string
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME
        }
        assert name in names, f"{name} is not used in {test_file}"
