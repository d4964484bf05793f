"""Every function and method in ``src/wulff_lab`` must be reached by name
from the package itself or from the benchmark in ``perfbench/``.

The scan collects the names of all ``ast.Name`` and ``ast.Attribute`` nodes
in the package modules (``__init__.py`` excluded: a re-export is not a
caller) and in ``perfbench/*.py``, and lists each ``def`` whose name is not
among them.  Dunder methods are called by the interpreter and are skipped.
Code that only tests reach belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wulff_lab"

# kept without a program caller: tests build constant fields with
# GridField.constant, and the README documents write_field as the library API
ALLOWED = {"field_grid.GridField.constant", "field_grid.write_field"}


def _sources():
    mods = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return mods, sorted((ROOT / "perfbench").glob("*.py"))


def _referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _defs(path):
    """(qualified name, bare name) of every function and method in ``path``."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(path.read_text(), str(path)), path.stem + ".")
    return out


def unreached_defs() -> set[str]:
    mods, bench = _sources()
    used = _referenced_names(mods + bench)
    return {
        qual for path in mods for qual, name in _defs(path)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }


def test_every_def_has_a_program_caller():
    assert unreached_defs() == ALLOWED
