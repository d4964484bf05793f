"""Every function and method in ``src/wulff_lab`` must be reached by name
from the package itself or from the benchmark in ``perfbench/``, and every
field it stores must be read there.

The scan collects the names of all ``ast.Name`` and ``ast.Attribute`` nodes
in the package modules (``__init__.py`` excluded: a re-export is not a
caller) and in ``perfbench/*.py``, and lists each ``def`` whose name is not
among them.  Dunder methods are called by the interpreter and are skipped.
Code that only tests reach belongs in the tests.

The field check matches by name only: a dataclass field or ``self.<name> =``
attribute passes when any attribute load ``<expr>.<name>`` in the same
sources has its name, whatever the class of ``<expr>``.  So a field whose
name another class also uses and reads passes even if nothing reads it on its
own class; such fields have to be checked by hand.  ``SHARED`` lists the
names that several classes share, each checked by hand and read on every
class that has it (the ``residual`` of the solver's exceptions by library
callers and the tests); a test fails when the list goes stale."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wulff_lab"

# kept without a program caller: the README documents write_field as the
# library API
ALLOWED = {"field_grid.write_field"}

# VerificationReport.to_dict serializes these classes whole with asdict, so
# every field reaches report.json without an attribute read
SERIALIZED_WHOLE = {"VerificationReport", "SampleRecord"}

# field names that several classes share, each checked by hand
SHARED = {"F", "fn", "geometry", "notes", "p", "residual", "u", "values"}


def _sources():
    mods = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return mods, sorted((ROOT / "perfbench").glob("*.py"))


def _nodes(paths):
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(), str(path)))


def _referenced_names(paths) -> set[str]:
    names = set()
    for node in _nodes(paths):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _read_attributes(paths) -> set[str]:
    return {node.attr for node in _nodes(paths)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def _fields(cls: ast.ClassDef) -> set[str]:
    """Dataclass fields of ``cls`` and the attributes its methods store
    with ``self.<name> = ...``."""
    names = set()
    if _is_dataclass(cls):
        names |= {stmt.target.id for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.attr for t in targets
                      if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                      and t.value.id == "self"}
    return names


def unread_fields() -> set[str]:
    mods, bench = _sources()
    read = _read_attributes(mods + bench)
    return {
        f"{path.stem}.{cls.name}.{name}"
        for path in mods for cls in _nodes([path])
        if isinstance(cls, ast.ClassDef) and cls.name not in SERIALIZED_WHOLE
        for name in _fields(cls) if name not in read
    }


def test_every_def_has_a_program_caller():
    assert unreached_defs() == ALLOWED


def test_every_field_is_read_by_the_program():
    assert unread_fields() == set()


def test_shared_field_names_are_the_ones_checked_by_hand():
    mods, _ = _sources()
    owners = {}
    for path in mods:
        for cls in _nodes([path]):
            if isinstance(cls, ast.ClassDef):
                for name in _fields(cls):
                    owners.setdefault(name, set()).add(cls.name)
    assert {name for name, classes in owners.items() if len(classes) > 1} == SHARED
