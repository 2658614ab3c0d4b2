"""Every name in ``ecr.__all__`` is used by the package, its scripts or its
benchmark, or is listed below with the test that keeps it.

A use is code in ``src/ecr/``, ``scripts/`` or ``bench/`` (outside
``src/ecr/__init__.py``, which only re-exports) that can reach the
exported object:

- a name that resolves to the module-level binding (an import, or a
  reference at module level or as a global inside a function or class),
  outside the name's own top-level definition;
- an attribute ``.name``, as in ``self.ecr.codec.encode``, unless a class
  in the package declares an attribute of that name, since
  ``report.spread`` reads a field and not the function.

So comments and strings do not count, and neither do keyword-argument
names, class-body field annotations, or function parameters and locals
that happen to share the name.
"""

import ast
import io
import symtable
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
    "spread": "tests/test_geometry.py",
    # the public single-query pooling, read by the test_embed_sequence_*
    # tests and test_pooled_queries_match_embed_sequence
    "embed_sequence": "tests/test_toytrain.py",
}


def _files():
    for sub in SEARCHED:
        for path in sorted((ROOT / sub).rglob("*.py")):
            if path != ROOT / "src/ecr/__init__.py":
                yield path


def _definitions():
    """Top-level name -> file defining it in the package."""
    return {
        node.name: path
        for path in sorted((ROOT / "src/ecr").glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _class_attributes():
    """Every attribute a class body in the package declares."""
    declared = set()
    for path in sorted((ROOT / "src/ecr").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    declared.add(node.name)
                elif isinstance(node, (ast.AnnAssign, ast.Assign)):
                    targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
                    declared.update(t.id for t in targets if isinstance(t, ast.Name))
    return declared


def _global_references(source: str, path: Path, names: set, defined_in: dict) -> set:
    """The names a file's code refers to as module-level bindings."""
    top = symtable.symtable(source, str(path), "exec")
    found = set()

    def visit(table, own):
        for sym in table.get_symbols():
            name = sym.get_name()
            if name not in names or (name == own and defined_in.get(name) == path):
                continue
            if table is top:
                if sym.is_referenced() or sym.is_imported():
                    found.add(name)
            elif sym.is_referenced() and sym.is_global():
                found.add(name)
        for child in table.get_children():
            visit(child, child.get_name() if table is top else own)

    visit(top, None)
    return found


def _unused_exports():
    names = set(ecr.__all__)
    defined_in = _definitions()
    declared = _class_attributes()
    used = set()
    for path in _files():
        source = path.read_text(encoding="utf-8")
        used |= _global_references(source, path, names, defined_in)
        used |= {
            node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names and node.attr not in declared
        }
    return sorted(names - used)


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


def test_guard_ignores_fields_keywords_and_locals(tmp_path):
    # each line of the probe shares a name with an export without using it
    path = tmp_path / "probe.py"
    source = (
        "class Report:\n"
        "    spread: float\n"
        "def make(rows, spread):\n"
        "    local = rows.spread + spread\n"
        "    return Report(spread=local)\n"
        "# spread(rows) in a comment\n"
        "TEXT = 'spread(rows)'\n"
    )
    assert _global_references(source, path, {"spread"}, {}) == set()
    assert _global_references("def f(x):\n    return spread(x)\n", path, {"spread"}, {}) == {"spread"}
    assert _global_references("from m import spread\n", path, {"spread"}, {}) == {"spread"}
