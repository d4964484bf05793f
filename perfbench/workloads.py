"""The three benchmark workloads: seeded inputs, CLI calls and output checks.

Only the generated INI configs and ``.wlf`` files reach the program.  The
seed picks one of ``VARIANTS`` input variants (``seed % VARIANTS``), so every
seed has a stored reference C* in ``reference.json``.

An *operation* is one theorem report of a ``run`` call or one ``solve``
call.  Each check maps every failed operation to the reason: an operation
fails when its call raised or exited non-zero, when it printed ``FAIL``, or
when its output disagrees with the reference.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

VARIANTS = 32
# C* references are compared with this relative tolerance: loose enough for
# round-off changes (a re-ordered sum, a regenerated field family), tight
# enough that a wrong formula or a different point set fails.
C_STAR_RTOL = 1e-6
# The p = 3 / p = 1.5 solves use a manufactured datum with boundary = u, so
# the discrete solution is u itself; solves at tol 2e-6 land within ~1e-6.
MANUFACTURED_ATOL = 1e-5
# The p = 2 solution at tol 1e-8 agrees with a tol 1e-12 solve to ~1e-10.
P2_ATOL = 1e-7

BALLS_THEOREMS = ("pointwise-wulff", "pointwise-oscillation", "oscillation-decay",
                  "energy-caccioppoli", "regularity-bmo")
BATTERY_THEOREMS = ("telescoping-means", "wulff-riesz-domination",
                    "potential-norms-A-i", "potential-norms-B", "hardy-i")
BATTERY_THREADS = 2
SOLVE_CASES = ("p2", "p3", "p1_5")
P2_PROBE_CELLS = ((64, 64), (128, 128), (64, 192), (200, 100))


@dataclass
class Call:
    """One CLI invocation: its argv, the operations it carries, its check."""

    label: str
    argv: list[str]
    ops: tuple[str, ...]
    out_dir: str
    check: Callable[[int, str], dict[str, str]] = field(repr=False)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------------------
# input files


def _write_wlf(path: str, values: np.ndarray) -> None:
    """Scalar WLF1 file on the unit square (ASCII header, blank line,
    float64 LE payload)."""
    cells = values.shape
    header = (
        "WLF1\n"
        "n=2 N=1 shape=scalar\n"
        f"cells={cells[0]}x{cells[1]}\n"
        "extent=1.0,1.0\n"
        "origin=0.0,0.0\n\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_wlf(path: str) -> np.ndarray:
    """Payload of a WLF1 file as (components, c1, c2); independent of the
    program's own reader so that checks do not run traced code."""
    with open(path, "rb") as fh:
        raw = fh.read()
    sep = raw.index(b"\n\n")
    lines = raw[:sep].decode("ascii").split("\n")
    cells = tuple(int(c) for c in lines[2].split("=", 1)[1].split("x"))
    vals = np.frombuffer(raw[sep + 2:], dtype="<f8")
    return vals.reshape((-1,) + cells)


def _write_ini(path: str, sections: dict[str, dict[str, str]]) -> None:
    with open(path, "w") as fh:
        for name, body in sections.items():
            fh.write(f"[{name}]\n")
            for key, val in body.items():
                fh.write(f"{key} = {val}\n")
            fh.write("\n")


def balls_points(variant: int) -> list[tuple[float, float]]:
    """7 x 7 lattice in [0.3, 0.7]^2 with a seeded jitter of at most 0.02."""
    rng = np.random.default_rng([7, variant])
    jitter = rng.uniform(-0.02, 0.02, size=(7, 7, 2))
    return [
        (float(0.3 + 0.4 * (i + 0.5) / 7 + jitter[i, j, 0]),
         float(0.3 + 0.4 * (j + 0.5) / 7 + jitter[i, j, 1]))
        for i in range(7) for j in range(7)
    ]


def solve_datum(variant: int, cells: int = 64) -> np.ndarray:
    """u = 0.3 sin(pi x) sin(pi y) + 2x + y plus a seeded smooth perturbation.

    The perturbation's gradient is at most 9 * 0.01 * 3 pi < 0.9, and the
    affine part keeps du/dx >= 2 - 0.3 pi - 0.9 > 0, so grad u never
    vanishes and the p = 3 and p = 1.5 solves stay non-degenerate.
    """
    rng = np.random.default_rng([11, variant])
    coef = rng.uniform(-0.01, 0.01, size=(3, 3))
    x = (np.arange(cells) + 0.5) / cells
    X, Y = np.meshgrid(x, x, indexing="ij")
    u = 0.3 * np.sin(math.pi * X) * np.sin(math.pi * Y) + 2.0 * X + Y
    for k in range(3):
        for m in range(3):
            u = u + coef[k, m] * np.sin((k + 1) * math.pi * X) * np.sin((m + 1) * math.pi * Y)
    return u


# ---------------------------------------------------------------------------
# checks


def _report_check(out_dir: str, theorems, expected: dict | None,
                  heatmaps=()) -> Callable[[int, str], dict[str, str]]:
    def check(rc: int, stdout: str) -> dict[str, str]:
        if rc != 0:
            return {t: f"exit code {rc}" for t in theorems}
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return {t: f"no report ({exc})" for t in theorems}
        if not report.get("all_passed"):
            return {t: "all_passed is false" for t in theorems}
        svgs = [os.path.join(out_dir, f"{h}.svg") for h in heatmaps]
        missing = [p for p in svgs if not (os.path.exists(p) and os.path.getsize(p) > 0)]
        if missing:
            return {t: f"empty heatmap {missing}" for t in theorems}
        by_name = {r["theorem"]: r for r in report["reports"]}
        lines = set(stdout.splitlines())
        errors = {}
        for t in theorems:
            rep = by_name.get(t)
            if rep is None or not rep["passed"]:
                errors[t] = "missing or not passed"
                continue
            c_star = rep["c_star"]
            if f"pass  {t}  C* = {c_star:.6g}" not in lines:
                errors[t] = "stdout does not report pass"
            elif expected is not None:
                ref = expected[t]
                if not math.isclose(c_star, ref, rel_tol=C_STAR_RTOL):
                    errors[t] = f"C* {c_star!r} differs from reference {ref!r}"
        return errors

    return check


def _solve_check(label: str, out_dir: str, tol: float, expected: np.ndarray,
                 probe_only: bool, atol: float) -> Callable[[int, str], dict[str, str]]:
    def check(rc: int, stdout: str) -> dict[str, str]:
        if rc != 0 or not stdout.startswith("solved"):
            return {label: f"exit code {rc}"}
        try:
            with open(os.path.join(out_dir, "solve.json")) as fh:
                summary = json.load(fh)
            u = read_wlf(os.path.join(out_dir, "u.wlf"))[0]
        except (OSError, ValueError) as exc:
            return {label: f"missing output ({exc})"}
        if not (summary["converged"] and summary["residual"] <= tol):
            return {label: f"residual {summary['residual']!r} above tol {tol!r}"}
        got = np.array([u[c] for c in P2_PROBE_CELLS]) if probe_only else u
        err = float(np.max(np.abs(got - expected)))
        if not err <= atol:
            return {label: f"solution off by {err:.3g} (allowed {atol:g})"}
        return {}

    return check


# ---------------------------------------------------------------------------
# workloads


def _balls(work: str, variant: int, reference: dict | None) -> list[Call]:
    pts = "; ".join(f"{x!r},{y!r}" for x, y in balls_points(variant))
    cfg = os.path.join(work, "balls.ini")
    _write_ini(cfg, {
        "grid": {"cells": "256,256"},
        "system": {"p": "1.5"},
        "data": {"u": "profile:sinsin", "F": "manufactured"},
        "verify": {"theorems": ", ".join(BALLS_THEOREMS), "points": pts},
        "verify.regularity-bmo": {"cells": "256"},
        "output": {"heatmaps": "u,F"},
    })
    out = os.path.join(work, "out_balls")
    expected = None if reference is None else reference["balls"][str(variant)]
    return [Call("run", ["run", cfg, "--out", out], BALLS_THEOREMS, out,
                 _report_check(out, BALLS_THEOREMS, expected, heatmaps=("u", "F")))]


def _battery(work: str, variant: int, reference: dict | None) -> list[Call]:
    cfg = os.path.join(work, "battery.ini")
    _write_ini(cfg, {
        "grid": {"cells": "128,128"},
        "verify": {"theorems": ", ".join(BATTERY_THEOREMS)},
        "verify.telescoping-means": {"samples": "100"},
        "verify.wulff-riesz-domination": {"samples": "100"},
        "verify.potential-norms-A-i": {"samples": "20", "sigma": "1.5"},
        "verify.potential-norms-B": {"samples": "20", "young_a": "power,1.5",
                                     "young_b": "power,3"},
        "verify.hardy-i": {"samples": "50"},
    })
    out = os.path.join(work, "out_battery")
    expected = None if reference is None else reference["battery"][str(variant)]
    argv = ["run", cfg, "--out", out, "--threads", str(BATTERY_THREADS),
            "--seed", str(variant)]
    return [Call("run", argv, BATTERY_THEOREMS, out,
                 _report_check(out, BATTERY_THEOREMS, expected))]


def _solve(work: str, variant: int, reference: dict | None) -> list[Call]:
    datum = solve_datum(variant)
    _write_wlf(os.path.join(work, "u64.wlf"), datum)
    p2_ref = None if reference is None else np.array(reference["solve"]["p2_probe"])
    cases = {
        "p2": ({"cells": "256,256"}, "2",
               {"u": "profile:sinsin", "F": "manufactured", "boundary": "0"}, {}),
        "p3": ({"cells": "64,64"}, "3",
               {"u": "u64.wlf", "F": "manufactured", "boundary": "u"}, {"tol": "2e-6"}),
        "p1_5": ({"cells": "64,64"}, "1.5",
                 {"u": "u64.wlf", "F": "manufactured", "boundary": "u"}, {"tol": "2e-6"}),
    }
    calls = []
    for label, (grid, p, data, solver) in cases.items():
        cfg = os.path.join(work, f"solve_{label}.ini")
        sections = {"grid": grid, "system": {"p": p}, "data": data}
        if solver:
            sections["solver"] = solver
        _write_ini(cfg, sections)
        out = os.path.join(work, f"out_{label}")
        tol = float(solver.get("tol", "1e-8"))
        if label == "p2":
            check = (_solve_check(label, out, tol, p2_ref, True, P2_ATOL)
                     if p2_ref is not None else lambda rc, stdout: {})
        else:
            check = _solve_check(label, out, tol, datum, False, MANUFACTURED_ATOL)
        calls.append(Call(label, ["solve", cfg, "--out", out], (label,), out, check))
    return calls


WORKLOADS = {
    "balls": _balls,
    "battery": _battery,
    "solve": _solve,
}


def prepare(name: str, work: str, seed: int, reference: dict | None) -> list[Call]:
    """Write the inputs of workload ``name`` for ``seed`` into ``work``."""
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    return WORKLOADS[name](work, variant_of(seed), reference)
