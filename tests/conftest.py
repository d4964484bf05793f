import csv
import json
from pathlib import Path

import numpy as np

from wulff_lab.field_grid import GridField

ACCEPTANCE_LINES: list[str] = []

# Checked-in outputs of fixed runs: <name>.json holds the report.json and
# report.csv of one config, fields.npz the samples of fixed random fields.
# numpy's vectorized exp and power round differently under its AVX-512 and
# AVX2 kernels, so a float that goes through them is compared to a declared
# relative tolerance; everything else is compared exactly.
GOLDEN = Path(__file__).parent / "golden"
REPORT_RTOL = 1e-12
FIELD_RTOL = 1e-13
# a root taken by numpy's vectorized power against one taken by the C
# library's scalar pow, as the oracles of the ball rules take it: the two
# differ in the last bit under numpy's AVX-512 kernels
ROOT_RTOL = 1e-15
# the float entries of a report: everywhere else (text, integers, pass
# flags, params, labels, order, notes) a report must match exactly
_FLOAT_KEYS = frozenset({"c_star", "lhs", "rhs", "ratio"})


def constant_field(geom, value: float) -> GridField:
    """The scalar field equal to ``value`` on every cell of ``geom``."""
    return GridField(geom, np.full(geom.cells, float(value)))


def read_report(out) -> dict:
    """``report.json`` parsed and ``report.csv`` as rows of text, from the
    output directory ``out``: the layout of a golden report."""
    out = Path(out)
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return {"report.json": json.loads((out / "report.json").read_text()), "report.csv": rows}


def golden_report(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _close(got, want, rtol: float) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except (TypeError, ValueError):
        return False
    return (g != g and w != w) or abs(g - w) <= rtol * abs(w)


def report_mismatches(got: dict, want: dict, rtol: float = REPORT_RTOL) -> list[str]:
    """Where two reports in the layout of :func:`read_report` differ: a float
    entry (lhs, rhs, ratio, C*, in the JSON or the CSV) beyond ``rtol``
    relative to ``want``, any other entry at all."""
    diffs: list[str] = []

    def walk(path: str, g, w, is_float: bool) -> None:
        if is_float:
            if not _close(g, w, rtol):
                diffs.append(f"{path}: {g!r} != {w!r} (rtol {rtol:g})")
        elif isinstance(w, dict) and isinstance(g, dict) and g.keys() == w.keys():
            for k in w:
                walk(f"{path}.{k}", g[k], w[k], k in _FLOAT_KEYS)
        elif isinstance(w, list) and isinstance(g, list) and len(g) == len(w):
            for i, (a, b) in enumerate(zip(g, w)):
                walk(f"{path}[{i}]", a, b, False)
        elif type(g) is not type(w) or g != w:
            diffs.append(f"{path}: {g!r} != {w!r}")

    walk("report.json", got["report.json"], want["report.json"], False)
    rows, header = got["report.csv"], want["report.csv"][0]
    # each CSV row as a record keyed by the golden header, so its float
    # columns take the tolerance; a row of another length differs outright
    walk("report.csv", [dict(zip(header, r)) if len(r) == len(header) else r for r in rows],
         [dict(zip(header, r)) for r in want["report.csv"]], False)
    return diffs


def assert_report_matches(out, name: str) -> None:
    """The reports in the output directory ``out`` match golden ``name``."""
    diffs = report_mismatches(read_report(out), golden_report(name))
    assert not diffs, "\n".join(diffs[:20])


def golden_field(name: str) -> np.ndarray:
    with np.load(GOLDEN / "fields.npz") as arrays:
        return arrays[name]


def record_criterion(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
