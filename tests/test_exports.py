"""Every name in ``ecr.__all__``, every public top-level function and class
in ``src/ecr/``, and every public method and property of a class in the
package, is used by the package, its scripts or its benchmark, or is
listed below with the test that keeps it.

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

A method or property ``Class.name`` is used if any program file reads an
attribute ``.name``; dunders are exempt.  A module-level UPPER_CASE name
in ``src/ecr/``, private or not, is used by the same rule as an export,
and none is kept for a test.  The check cannot tell apart two
members, or a member and a library attribute, that share a name: the
``m.group(...)`` of a regex match in ``ecr.codec`` would keep any package
method named ``group``.

No dataclass in the package writes its fields a second time in a
``to_dict``: ``dataclasses.asdict`` serialises it, unless it is listed
below with its reason.
"""

import ast
import io
import re
import symtable
import tokenize
from pathlib import Path

import ecr

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src/ecr", "scripts", "bench")

# Exported or public top-level names that no program file uses, each kept
# for the test named.
KEPT_FOR_TESTS = {
    # test_acceptance_03_quantizer_monotone_covering_endpoints
    "quantize_value": "tests/test_acceptance.py",
    # test_acceptance_04_token_codec_bijective
    "parse_token": "tests/test_acceptance.py",
    # test_acceptance_10_pca_orthonormal_and_lossless
    "pca_reconstruct": "tests/test_acceptance.py",
    # the exact top-k oracle that graph recall is measured against
    "brute_force_topk": "tests/test_retrieval.py",
}


# Public methods and properties that no program file reads, each kept for
# the test named.
KEPT_MEMBERS = {
    # the bijection oracles of test_vocabulary_round_trip_every_token
    "TokenVocabulary.token_id": "tests/test_codec.py",
    "TokenVocabulary.token_of": "tests/test_codec.py",
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


def _unused(names: set) -> list:
    """The names no program file uses, by the rule of the module docstring."""
    defined_in = _definitions()
    used = (_attribute_reads(_files()) & names) - _class_attributes()
    for path in _files():
        used |= _global_references(path.read_text(encoding="utf-8"), path, names, defined_in)
    return sorted(names - used)


def _unused_exports():
    public = {name for name in _definitions() if not name.startswith("_")}
    return _unused(set(ecr.__all__) | public)


def _module_constants() -> set:
    """Every UPPER_CASE name a module of the package assigns at top level."""
    constant = re.compile(r"_?[A-Z][A-Z0-9_]*")
    names = set()
    for path in sorted((ROOT / "src/ecr").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names.update(t.id for t in targets if isinstance(t, ast.Name) and constant.fullmatch(t.id))
    return names


def _class_members():
    """``Class.name`` -> ``name`` for every public method and property."""
    return {
        f"{cls.name}.{node.name}": node.name
        for path in sorted((ROOT / "src/ecr").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def _attribute_reads(paths) -> set:
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }


def test_every_export_is_used_or_kept_for_a_test():
    unused = _unused_exports()
    assert [name for name in unused if name not in KEPT_FOR_TESTS] == []
    # an entry whose name is used, or no longer exported, is stale
    assert sorted(KEPT_FOR_TESTS) == unused


def test_every_module_constant_is_read():
    assert _unused(_module_constants()) == []


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


def test_every_member_is_read_or_kept_for_a_test():
    read = _attribute_reads(_files())
    unread = sorted(key for key, name in _class_members().items() if name not in read)
    assert [key for key in unread if key not in KEPT_MEMBERS] == []
    # an entry whose member is read, or no longer exists, is stale
    assert sorted(KEPT_MEMBERS) == unread


def test_kept_members_are_read_by_their_tests():
    for key, test_file in KEPT_MEMBERS.items():
        name = key.split(".", 1)[1]
        assert name in _attribute_reads([ROOT / test_file]), f"{key} is not read in {test_file}"


# Dataclasses that keep a hand-written ``to_dict``, each with its reason.
# Every other report is serialised by ``dataclasses.asdict``, so its fields
# are listed once, in the class.
KEPT_TO_DICT = {
    # its file leaves out ``assigned``, one language per embedding row
    "PurityReport": "src/ecr/geometry.py",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def test_no_dataclass_keeps_a_second_field_list():
    found = {
        cls.name: str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src/ecr").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        and any(isinstance(node, ast.FunctionDef) and node.name == "to_dict" for node in cls.body)
    }
    assert found == KEPT_TO_DICT
