"""Span tracing of the wulff_lab modules from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper that
records a span, in the defining module and in every ``from ... import``
alias of it inside the package; ``uninstall`` puts the originals back.  A
span is (id, parent, name, start, end, thread id, run id, counters).  A span
opened on a worker thread of ``inequality_lab._parallel_map`` takes the
enclosing map span as its parent.  Spans stay in memory until the run ends.

``busy_s`` is inclusive; ``self_s`` is busy time minus the part covered by
child spans.  The end-to-end metric each layer should move, and where:

* ``cli``: ``render_heatmap`` and ``write`` move ``wall_s`` on ``balls`` and
  ``solve``; each ``<module>.import_s`` moves ``setup_s`` on every workload.
* ``field_grid``: the ball calculus moves ``wall_s`` on ``balls``, a little
  on ``battery``, nothing on ``solve``.
* ``potential_engine``: ``riesz_map`` moves ``wall_s`` on ``battery``; the
  pointwise potentials move it on ``balls``.
* ``plaplace_solver``: moves ``solve_s.*`` and ``wall_s`` on ``solve``; the
  residual gate touches ``balls`` a little.
* ``function_spaces``: the Campanato/Morrey scans move ``wall_s`` on
  ``balls``; the Lorentz/Orlicz norms move it on ``battery``.
* ``inequality_lab``: moves ``wall_s`` on ``battery``; a parallelism change
  moves ``wall_s`` there but not ``cpu_s``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _file_bytes(index, key):
    def extra(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, key))}
    return extra


def _payload_bytes(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "payload"))}


def _scan(args, kwargs, result):
    return {"balls_scanned": result.balls_scanned}


def _solve_case(p: float) -> str:
    return "p" + format(p, "g").replace(".", "_")


def _solve_extra(args, kwargs, result):
    params = _arg(args, kwargs, 1, "params")
    return {
        "case": _solve_case(params.p),
        "iterations": result.iterations,
        "residual": result.residual,
        "stages": [s["iterations"] for s in result.stage_log],
        "planned_stages": len(params.stages()),
    }


def _random_field_name(args, kwargs):
    return "inequality_lab.random_field." + _arg(args, kwargs, 2, "kind", "fourier")


# (module, attribute, span name or name function, counter function)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "render_heatmap", "cli.render_heatmap", _file_bytes(1, "path")),
    ("cli", "_atomic_write", "cli.write", _payload_bytes),
    ("cli", "_write_field_atomic", "cli.write", _file_bytes(1, "path")),
    ("field_grid", "ball_cells", "field_grid.ball_cells", None),
    ("field_grid", "ball_average", "field_grid.ball_average", None),
    ("field_grid", "ball_oscillation", "field_grid.ball_oscillation", None),
    ("field_grid", "gradient", "field_grid.gradient", None),
    ("field_grid", "read_field", "field_grid.read_field", _file_bytes(0, "path")),
    ("potential_engine", "wulff_potential", "potential_engine.wulff_potential", None),
    ("potential_engine", "oscillation_potential",
     "potential_engine.oscillation_potential", None),
    ("potential_engine", "riesz_map", "potential_engine.riesz_map", None),
    ("potential_engine", "havin_mazya_map", "potential_engine.havin_mazya_map", None),
    ("plaplace_solver", "solve", "plaplace_solver.solve", _solve_extra),
    ("plaplace_solver", "weak_residual", "plaplace_solver.weak_residual", None),
    ("plaplace_solver", "manufacture", "plaplace_solver.manufacture", None),
    ("function_spaces", "campanato_seminorm", "function_spaces.campanato_seminorm", _scan),
    ("function_spaces", "morrey_norm", "function_spaces.morrey_norm", _scan),
    ("function_spaces", "lorentz_zygmund_norm", "function_spaces.lorentz_zygmund_norm", None),
    ("function_spaces", "luxemburg_norm", "function_spaces.luxemburg_norm", None),
    ("function_spaces", "balance_report", "function_spaces.balance_report", None),
    ("inequality_lab", "random_field", _random_field_name, None),
] + [
    ("inequality_lab", name, f"inequality_lab.{name}", None)
    for name in ("verify_pointwise", "verify_pointwise_osc", "verify_oscillation",
                 "verify_energy_inequalities", "verify_regularity_exponents",
                 "verify_telescope", "verify_domination",
                 "verify_potential_norm_maps", "verify_hardy")
]
PARALLEL_MAP = "inequality_lab.parallel_map"
PACKAGE = "wulff_lab"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._map_parent = None
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, extra=None, on_enter=None):
        stack = self._stack()
        parent = stack[-1] if stack else self._map_parent
        sid = next(self._ids)
        stack.append(sid)
        counters = None
        t0 = time.perf_counter()
        try:
            if on_enter is not None:
                on_enter(sid)
            result = fn(*args, **kwargs)
            if extra is not None:
                counters = extra(args, kwargs, result)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                               self.run_id, counters))

    def _wrap(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            return tracer._call(span, fn, args, kwargs, extra)

        return wrapper

    def _wrap_parallel_map(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(item_fn, items, threads):
            k = sys.modules[f"{PACKAGE}.inequality_lab"]._threads(threads)

            def sample(item):
                return tracer._call(PARALLEL_MAP + ".sample", item_fn, (item,), {})

            previous = tracer._map_parent

            def enter(sid):
                tracer._map_parent = sid

            try:
                return tracer._call(PARALLEL_MAP, fn, (sample, items, threads), {},
                                    lambda a, kw, r: {"threads": k}, enter)
            finally:
                tracer._map_parent = previous

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, name, extra in TARGETS + [
                ("inequality_lab", "_parallel_map", PARALLEL_MAP, None)]:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            if attr == "_parallel_map":
                wrapper = self._wrap_parallel_map(orig)
            else:
                wrapper = self._wrap(name, orig, extra)
            for mod in mods:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: str, meta: dict) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, tid, run, counters in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": t0,
                       "end": t1, "thread": tid, "run": run, **meta}
                if counters:
                    rec["counters"] = counters
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-layer numbers derived from spans


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, *_ in spans:
        covered = _union_length((max(a, t0), min(b, t1)) for a, b in children.get(sid, ())
                                if min(b, t1) > max(a, t0))
        out[sid] = (t1 - t0) - covered
    return out


def summarize(spans) -> dict[str, float]:
    """Raw per-layer numbers of one traced workload iteration."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    map_capacity = 0.0
    cases = set()
    for sid, parent, name, t0, t1, tid, run, counters in spans:
        dur = t1 - t0
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] += selfs[sid]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += dur
        out[f"{name}.self_s"] += selfs[sid]
        if not counters:
            continue
        if name == PARALLEL_MAP:
            map_capacity += counters["threads"] * dur
        elif name == "plaplace_solver.solve":
            case = f"{name}.{counters['case']}"
            cases.add(case)
            out[f"{name}.iterations"] += counters["iterations"]
            out[f"{case}.busy_s"] += dur
            out[f"{case}.iterations"] += counters["iterations"]
            out[f"{case}.residual"] = counters["residual"]
            for k, its in enumerate(counters["stages"]):
                stage = f"stage{k}" if k < counters["planned_stages"] else "extra"
                out[f"{case}.{stage}.iterations"] += its
        else:
            for key, val in counters.items():
                out[f"{name}.{key}"] += val
    out[f"{PARALLEL_MAP}.wall_s"] = out[f"{PARALLEL_MAP}.busy_s"]
    if map_capacity > 0:
        out[f"{PARALLEL_MAP}.efficiency"] = (
            out[f"{PARALLEL_MAP}.sample.busy_s"] / map_capacity)
    for case in cases:
        if out[f"{case}.iterations"]:
            out[f"{case}.s_per_iter"] = out[f"{case}.busy_s"] / out[f"{case}.iterations"]
    return dict(out)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per package module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2].startswith(PACKAGE + "."):
            try:
                out[parts[2][len(PACKAGE) + 1:]] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return out
