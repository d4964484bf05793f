"""The benchmark's tracer (perfbench/tracing.py) patches package functions by
name; every name it patches must exist, or ``perfbench/run.py --trace 1``
fails with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_exists():
    tracing = _load_tracing()
    targets = [(mod, attr) for mod, attr, *_ in tracing.TARGETS]
    targets += [("inequality_lab", "_parallel_map"), ("inequality_lab", "_threads")]
    missing = [
        f"{mod}.{attr}" for mod, attr in targets
        if not callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{mod}"),
                                attr, None))
    ]
    assert missing == []
