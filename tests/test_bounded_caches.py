"""Every cache in ``src/wulff_lab`` is bounded: each ``lru_cache`` decorator
names a positive integer ``maxsize`` literal, and ``functools.cache``, which
is unbounded, is not used."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wulff_lab"


def _is_lru_cache(dec) -> bool:
    node = dec.func if isinstance(dec, ast.Call) else dec
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def _maxsize(dec):
    """The ``maxsize`` literal of an ``lru_cache`` decorator, or None."""
    if not isinstance(dec, ast.Call):
        return None  # a bare @lru_cache is bounded only by the library's default
    args = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
    return args[0].value if args and isinstance(args[0], ast.Constant) else None


def cache_violations(source: str) -> list[str]:
    bad = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "cache"
                and isinstance(node.value, ast.Name) and node.value.id == "functools"
                or isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(alias.name == "cache" for alias in node.names)):
            bad.append(f"line {node.lineno}: functools.cache")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in filter(_is_lru_cache, node.decorator_list):
                size = _maxsize(dec)
                if not (type(size) is int and size > 0):
                    bad.append(f"line {node.lineno}: {node.name} maxsize={size!r}")
    return bad


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert cache_violations(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n@lru_cache\ndef f(): pass",
    "from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(): pass",
    "from functools import lru_cache\n@lru_cache(0)\ndef f(): pass",
    "import functools\n@functools.lru_cache(maxsize=2.5)\ndef f(): pass",
    "import functools\n@functools.cache\ndef f(): pass",
    "from functools import cache",
])
def test_the_scan_flags_an_unbounded_cache(source):
    assert len(cache_violations(source)) == 1


def test_the_scan_passes_a_bounded_cache():
    assert cache_violations("from functools import lru_cache\n"
                            "@lru_cache(maxsize=16)\ndef f(): pass\n"
                            "@lru_cache(4)\ndef g(): pass\n"
                            "cache = {}") == []
