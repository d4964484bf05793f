"""Batch front-end: declare problems and verifications in an INI config,
run them, and emit field files, JSON/CSV reports, and SVG heatmaps.

Exit codes: 0 when everything passed, 2 when a verification failed, 1 on
errors (bad config, missing file, solver breakdown).  All artifacts are
written atomically (temp file + rename) and are byte-deterministic for a
fixed config and seed: no timestamps, sorted JSON keys, fixed float
formatting in SVG.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import inequality_lab as iq
from .errors import ConfigError, WulffLabError
from .field_grid import GridField, GridGeometry, encode_field, read_field, value_at
from .function_spaces import (
    LorentzParams,
    campanato_seminorm,
    lorentz_zygmund_norm,
    luxemburg_norm,
    morrey_norm,
    weight_power,
    young_dexp,
    young_exp,
    young_power,
    young_zygmund,
)
from .plaplace_solver import DirichletProblem, SystemParams, manufacture, solve
from .potential_engine import (
    PotentialParams,
    havin_mazya_map,
    riesz_map,
    wulff_potential,
)

# ---------------------------------------------------------------------------
# config parsing


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace("x", ",").split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from exc


def _ints(text: str) -> tuple[int, ...]:
    vals = _floats(text)
    out = tuple(int(v) for v in vals)
    if any(o != v for o, v in zip(out, vals)):
        raise ConfigError(f"expected integers, got {text!r}")
    return out


def _points(text: str) -> list[tuple[float, ...]]:
    return [_floats(part) for part in text.split(";") if part.strip()]


def _boundary(text: str):
    """``[data] boundary``: ``u`` (trace the reference field) or a finite number."""
    if text == "u":
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"[data] boundary must be 'u' or a finite number, got {text!r}")
    return value


class RunConfig:
    """Validated run description.

    Validation is front-loaded: geometry shape, exponent range, solver
    settings, theorem ids, heatmap sources and the existence of every
    referenced file are checked at parse time, before any computation
    starts.  Points and balls are checked against the domain when each
    theorem runs.
    """

    def __init__(self, parser, base_dir: str):
        if "grid" not in parser:
            raise ConfigError("missing required [grid] section")
        g = parser["grid"]
        cells = _ints(g.get("cells", "128,128"))
        extent = _floats(g.get("extent", ",".join(["1.0"] * len(cells))))
        origin = _floats(g.get("origin", ",".join(["0.0"] * len(cells))))
        try:
            self.geometry = GridGeometry(cells, extent, origin)
        except WulffLabError as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from exc

        sys_sec = parser["system"] if "system" in parser else {}
        self.p = _opt_float(sys_sec, "p", 2.0)
        if not (self.p > 1.0):
            raise ConfigError(f"[system] p must be > 1, got {self.p}")

        d = parser["data"] if "data" in parser else {}
        self.u_spec = d.get("u", "").strip()
        self.f_spec = d.get("F", "").strip()
        self.boundary = _boundary(d.get("boundary", "0").strip())
        self.seed = _opt_int(d, "seed", 0)
        for spec in (self.u_spec, self.f_spec):
            if spec and not spec.startswith("profile:") and spec != "manufactured":
                path = os.path.join(base_dir, spec)
                if not os.path.exists(path):
                    raise ConfigError(f"referenced field file does not exist: {path}")

        s = parser["solver"] if "solver" in parser else {}
        try:
            self.solver = SystemParams(
                p=self.p,
                tol=_opt_float(s, "tol", 1e-8),
                max_iters=_opt_int(s, "max_iters", 60000),
                eps_start=_opt_float(s, "eps_start", 1e-1),
                eps_final=_opt_float(s, "eps_final", 1e-6),
            )
        except ValueError as exc:
            raise ConfigError(f"bad [solver] section: {exc}") from exc

        v = parser["verify"] if "verify" in parser else {}
        names = [t.strip() for t in v.get("theorems", "").split(",") if t.strip()]
        for name in names:
            if name not in THEOREMS:
                known = ", ".join(sorted(THEOREMS))
                raise ConfigError(f"unknown theorem id {name!r}; known ids: {known}")
        shared = dict(v)
        self.theorems = [
            (name, {**shared,
                    **(dict(parser[f"verify.{name}"]) if f"verify.{name}" in parser else {})})
            for name in names
        ]

        o = parser["output"] if "output" in parser else {}
        self.out_dir = o.get("dir", "out")
        self.json_name = o.get("json", "report.json")
        self.csv_name = o.get("csv", "report.csv")
        self.heatmaps = [t.strip() for t in o.get("heatmaps", "").split(",") if t.strip()]
        self.field_name = o.get("field", "u.wlf")
        for hm in self.heatmaps:
            if hm not in ("u", "F"):
                raise ConfigError(f"[output] heatmaps entries must be 'u' or 'F', got {hm!r}")
            if not self.u_spec:
                raise ConfigError(f"heatmap source {hm!r} needs [data] u")
        if self.heatmaps and self.geometry.dim != 2:
            raise ConfigError(f"[output] heatmaps need a 2-D [grid], got "
                              f"{self.geometry.dim} cell counts")

        self.base_dir = base_dir


def parse_config(path: str) -> RunConfig:
    import configparser

    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    return RunConfig(parser, os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# named field profiles (no expression evaluation: fixed vocabulary)


def _profile_field(geom: GridGeometry, spec: str) -> GridField:
    """profile:<name>[:k=v,...] with names sinsin, power, log, affine, zero."""
    parts = spec.split(":")
    name = parts[1] if len(parts) > 1 else ""
    kv = {}
    if len(parts) > 2:
        for item in parts[2].split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise ConfigError(f"bad profile option {item!r} in {spec!r}")
            key, val = item.split("=", 1)
            try:
                kv[key.strip()] = float(val)
            except ValueError as exc:
                raise ConfigError(f"bad profile option {item!r} in {spec!r}") from exc
    if name == "power":
        return iq.radial_profile(geom, kv.get("expo", 0.5), kv.get("scale", 1.0))
    if name == "log":
        return iq.radial_profile(geom, None, kv.get("scale", 1.0))
    if name == "sinsin":
        def fn(*mesh):
            out = 1.0
            for d in range(geom.dim):
                out = out * np.sin(
                    math.pi * (mesh[d] - geom.origin[d]) / geom.extent[d]
                )
            return kv.get("scale", 1.0) * out
    elif name == "affine":
        def fn(*mesh):
            out = kv.get("c", 0.0)
            for d in range(geom.dim):
                out = out + kv.get(f"a{d + 1}", 0.0) * mesh[d]
            return out + np.zeros_like(mesh[0])
    elif name == "zero":
        def fn(*mesh):
            return np.zeros_like(mesh[0])
    else:
        raise ConfigError(f"unknown profile {name!r} in {spec!r}")
    return GridField.from_function(geom, fn)


def _load_u(cfg: RunConfig) -> GridField:
    if not cfg.u_spec:
        raise ConfigError("[data] u is required for this theorem")
    if cfg.u_spec.startswith("profile:"):
        return _profile_field(cfg.geometry, cfg.u_spec)
    f = read_field(os.path.join(cfg.base_dir, cfg.u_spec))
    if f.geometry != cfg.geometry:
        raise ConfigError("[data] u geometry does not match the [grid] section")
    return f


def _load_pair(cfg: RunConfig) -> tuple[GridField, GridField]:
    u = _load_u(cfg)
    if cfg.f_spec == "manufactured" or not cfg.f_spec:
        return u, manufacture(u, cfg.p)
    F = read_field(os.path.join(cfg.base_dir, cfg.f_spec))
    if F.geometry != cfg.geometry:
        raise ConfigError("[data] F geometry does not match the [grid] section")
    return u, F


# ---------------------------------------------------------------------------
# theorem registry


def _opt_point(opts, key, default):
    return _floats(opts[key]) if key in opts else default


def _opt_float(opts, key, default) -> float:
    if key not in opts:
        return float(default)
    try:
        return float(opts[key])
    except ValueError as exc:
        raise ConfigError(f"option {key!r} must be a number, got {opts[key]!r}") from exc


def _opt_int(opts, key, default) -> int:
    if key not in opts:
        return int(default)
    try:
        return int(opts[key])
    except ValueError as exc:
        raise ConfigError(f"option {key!r} must be an integer, got {opts[key]!r}") from exc


def _merge(theorem: str, params: dict, reports) -> iq.VerificationReport:
    """Flatten per-field reports into one (labels prefixed by field index)."""
    samples = []
    notes = []
    for i, rep in enumerate(reports):
        samples.extend(
            iq.SampleRecord(f"f[{i}]:{s.label}", s.lhs, s.rhs, s.ratio)
            for s in rep.samples
        )
        for note in rep.notes:
            if note not in notes:
                notes.append(note)
    return iq._assemble(theorem, params, samples, notes,
                        extra_pass=all(r.passed for r in reports))


def _run_telescope(cfg, opts, seed, threads):
    geom = cfg.geometry
    x = _opt_point(opts, "x", geom.center)
    n_fields = _opt_int(opts, "samples", 100)
    R = _opt_float(opts, "r_outer", 0.4 * min(geom.extent))
    r = _opt_float(opts, "r_inner", max(R / 8.0, 2.0 * max(geom.spacing)))
    allowance = _opt_float(opts, "allowance", 0.10)
    kinds = ("fourier", "bumps")

    def one(i):
        f = iq.random_field(geom, seed + i, kinds[i % 2])
        return iq.verify_telescope(f, x, r, R, allowance=allowance)

    reports = iq._parallel_map(one, range(n_fields), threads)
    return _merge(
        "telescoping-means",
        {"x": x, "r": r, "R": R, "samples": n_fields, "seed": seed,
         "allowance": allowance},
        reports,
    )


def _pair_points(cfg, opts):
    geom = cfg.geometry
    R = _opt_float(opts, "r_ball", 0.25 * min(geom.extent))
    if "points" in opts:
        points = _points(opts["points"])
    else:
        fracs = (0.35, 0.5, 0.65)
        points = [
            tuple(geom.origin[d] + t[d] * geom.extent[d] for d in range(geom.dim))
            for t in [(a, b) for a in fracs for b in fracs]
        ]
    tol = _opt_float(opts, "residual_tol", 1e-5)
    return points, R, tol


def _run_pointwise(cfg, opts, seed, threads):
    u, F = _load_pair(cfg)
    points, R, tol = _pair_points(cfg, opts)
    return iq.verify_pointwise(u, F, cfg.p, R, points, residual_tol=tol)


def _run_pointwise_osc(cfg, opts, seed, threads):
    u, F = _load_pair(cfg)
    points, R, tol = _pair_points(cfg, opts)
    return iq.verify_pointwise_osc(u, F, cfg.p, R, points, residual_tol=tol)


def _run_oscillation(cfg, opts, seed, threads):
    u, F = _load_pair(cfg)
    geom = cfg.geometry
    x = _opt_point(opts, "x", geom.center)
    R = _opt_float(opts, "r_ball", 0.25 * min(geom.extent))
    tol = _opt_float(opts, "residual_tol", 1e-5)
    return iq.verify_oscillation(u, F, cfg.p, x, R, residual_tol=tol)


def _run_energy(cfg, opts, seed, threads):
    u, F = _load_pair(cfg)
    geom = cfg.geometry
    x = _opt_point(opts, "x", geom.center)
    R = _opt_float(opts, "r_ball", 0.25 * min(geom.extent))
    tol = _opt_float(opts, "residual_tol", 1e-5)
    q = _opt_float(opts, "q", None) if "q" in opts else None
    return iq.verify_energy_inequalities(u, F, cfg.p, x, R, q=q, residual_tol=tol)


def _hardy_runner(case):
    def run(cfg, opts, seed, threads):
        return iq.verify_hardy(
            case,
            _opt_float(opts, "q", 1.0),
            _opt_float(opts, "alpha", 0.0),
            k=_opt_float(opts, "k", 2.0),
            a=_opt_float(opts, "a", 1.0),
            samples=_opt_int(opts, "samples", 100),
            seed=seed,
            family=opts.get("family", "random"),
        )

    return run


def _run_domination(cfg, opts, seed, threads):
    return iq.verify_domination(
        cfg.geometry,
        _opt_float(opts, "alpha", 0.5),
        _opt_float(opts, "s", 3.0),
        samples=_opt_int(opts, "samples", 100),
        seed=seed,
        threads=threads,
    )


def _norm_map_runner(part):
    def run(cfg, opts, seed, threads):
        kwargs = {
            "sigma": _opt_float(opts, "sigma", None) if "sigma" in opts else None,
            "rho": _opt_float(opts, "rho", 2.0),
            "samples": _opt_int(opts, "samples", 20),
            "seed": seed,
            "threads": threads,
        }
        if part == "B":
            kwargs["A"] = _young_from_spec(opts.get("young_a", "power,2"))
            kwargs["B"] = _young_from_spec(opts.get("young_b", "power,2"))
            kwargs["t0"] = _opt_float(opts, "t0", 1.0)
        return iq.verify_potential_norm_maps(
            part,
            _opt_float(opts, "alpha", 0.5),
            _opt_float(opts, "s", 2.0),
            cfg.geometry,
            **kwargs,
        )

    return run


def _regularity_runner(kind):
    def run(cfg, opts, seed, threads):
        return iq.verify_regularity_exponents(
            kind,
            cfg.p,
            q=_opt_float(opts, "q", None) if "q" in opts else None,
            beta=_opt_float(opts, "beta", None) if "beta" in opts else None,
            cells=_opt_int(opts, "cells", cfg.geometry.cells[0]),
        )

    return run


# theorem id -> (summary, runner); runners take (cfg, opts, seed, threads)
THEOREMS = {
    "telescoping-means": (
        "two-mean comparison with constants 2^(2n+2) and 2^(2n+3)", _run_telescope),
    "pointwise-wulff": (
        "|u(x)| bounded by the truncated Wulff potential of |F|^p' plus a mean",
        _run_pointwise),
    "pointwise-oscillation": (
        "|u(x)| bounded by the mean-oscillation potential of F plus a mean",
        _run_pointwise_osc),
    "oscillation-decay": (
        "mean oscillation of u at scale r controlled by a Dini-type F term",
        _run_oscillation),
    "energy-caccioppoli": (
        "reverse Hoelder and Caccioppoli inequalities on nested balls", _run_energy),
    "hardy-i": ("weighted Hardy inequality, q >= 1", _hardy_runner("i")),
    "hardy-ii-far": ("weighted Hardy inequality, q < 1, alpha < -1-1/q",
                     _hardy_runner("ii-far")),
    "hardy-ii-near": ("weighted Hardy inequality, q < 1, truncated range",
                      _hardy_runner("ii-near")),
    "wulff-riesz-domination": (
        "Wulff potential dominated by the composed Riesz potential", _run_domination),
    "potential-norms-A-i": ("Lorentz-to-Lorentz potential boundedness",
                            _norm_map_runner("A-i")),
    "potential-norms-A-iii": ("borderline Lorentz-Zygmund boundedness",
                              _norm_map_runner("A-iii")),
    "potential-norms-A-iv": ("small second index gives boundedness into L^inf",
                             _norm_map_runner("A-iv")),
    "potential-norms-B": ("Orlicz-to-Orlicz boundedness under the balance condition",
                          _norm_map_runner("B")),
    "regularity-holder": ("fitted Hoelder exponent against 1 - n/(q(p-1))",
                          _regularity_runner("holder")),
    "regularity-bmo": ("borderline Morrey datum keeps the BMO seminorm finite",
                       _regularity_runner("bmo")),
    "regularity-lipschitz": ("Dini datum modulus forces a Lipschitz solution",
                             _regularity_runner("lipschitz")),
    "regularity-lorentz": ("rearrangement tail exponent of the marginal datum",
                           _regularity_runner("lorentz")),
}


def _young_from_spec(spec: str):
    parts = [tok.strip() for tok in spec.split(",")]
    name = parts[0]
    try:
        if name == "power":
            return young_power(float(parts[1]))
        if name == "zygmund":
            return young_zygmund(float(parts[1]), float(parts[2]))
        if name == "exp":
            return young_exp(float(parts[1]))
        if name == "dexp":
            return young_dexp()
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad Young function spec {spec!r}") from exc
    raise ConfigError(f"unknown Young function {name!r} in {spec!r}")


# ---------------------------------------------------------------------------
# artifact writers (atomic + deterministic)


def _atomic_write(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-wulff-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _csv_bytes(reports) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem", "sample", "lhs", "rhs", "ratio", "passed"])
    for rep in reports:
        writer.writerows(rep.csv_rows())
    return buf.getvalue().encode()


_COLOR_STOPS = (
    (0.00, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.50, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.00, (253, 231, 37)),
)
_STOP_T = np.array([t for t, _ in _COLOR_STOPS])
_STOP_RGB = np.array([rgb for _, rgb in _COLOR_STOPS], dtype=np.float64)


def _colors(t: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Colormap of an array of positions: the distinct ``#rrggbb`` strings
    and, per position, the index of its string.

    t is clipped to [0, 1]; its segment ends at the first stop >= t and each
    channel is rint(a + w·(b − a)), the IEEE operations and half-to-even
    rounding of Python's ``round`` on the same floats.  NaN (from a span
    that overflows) takes the last stop, as t = 1 does."""
    t = np.clip(np.nan_to_num(t, nan=1.0), 0.0, 1.0)
    seg = np.searchsorted(_STOP_T[1:], t, side="left")
    t0, t1 = _STOP_T[seg], _STOP_T[seg + 1]
    w = ((t - t0) / (t1 - t0))[..., None]
    a, b = _STOP_RGB[seg], _STOP_RGB[seg + 1]
    rgb = np.rint(a + w * (b - a))
    packed = (rgb.astype(np.int64) * (1 << 16, 1 << 8, 1)).sum(axis=-1)
    codes, index = np.unique(packed, return_inverse=True)
    return [f"#{c:06x}" for c in codes.tolist()], index.reshape(packed.shape)


def render_heatmap(f: GridField, path: str) -> None:
    """Write a scalar 2-D field as an SVG heatmap: one rect per cell, 5-stop
    linear colormap, min/max legend.  Byte-deterministic for fixed input."""
    if f.ncomp != 1 or f.geometry.dim != 2:
        raise ConfigError("heatmaps require a scalar field on a 2-D grid "
                          "(take magnitude() first)")
    vals = f.values[0]
    c1, c2 = vals.shape
    vmin, vmax = float(vals.min()), float(vals.max())
    span = vmax - vmin
    px = max(2, 640 // max(c1, c2))
    width, height = c1 * px, c2 * px
    legend_w = 56
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width + legend_w + 60}" height="{height}" '
        f'viewBox="0 0 {width + legend_w + 60} {height}">'
    ]
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows
        t = np.full(vals.shape, 0.5) if span == 0.0 else (vals - vmin) / span
    hexes, index = _colors(t)
    # cell (i, j) sits at x = i·px, y = (c2 − 1 − j)·px; one joined string
    # per grid column i keeps at most c2 rect strings alive at once
    rows = [f'{(c2 - 1 - j) * px}" width="{px}" height="{px}" fill="'
            for j in range(c2)]
    for i in range(c1):
        head = f'<rect x="{i * px}" y="'
        parts.append("\n".join([
            f'{head}{row}{hexes[k]}"/>' for row, k in zip(rows, index[i].tolist())
        ]))
    # legend: vertical bar, max at the top
    bar_x = width + 12
    steps = 32
    bar_h = height / steps
    hexes, index = _colors(1.0 - (np.arange(steps) + 0.5) / steps)
    for k in range(steps):
        parts.append(
            f'<rect x="{bar_x}" y="{format(k * bar_h, ".6g")}" width="16" '
            f'height="{format(bar_h + 0.5, ".6g")}" fill="{hexes[index[k]]}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 20}" y="12" font-size="11" '
        f'font-family="monospace">{format(vmax, ".6g")}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 20}" y="{height - 2}" font-size="11" '
        f'font-family="monospace">{format(vmin, ".6g")}</text>'
    )
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts).encode() + b"\n")


def _write_field_atomic(f: GridField, path: str) -> None:
    _atomic_write(path, encode_field(f))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_list_theorems() -> int:
    width = max(len(t) for t in THEOREMS)
    print(f"{'theorem id':<{width}}  description")
    print(f"{'-' * width}  {'-' * 11}")
    for ident, (summary, _) in THEOREMS.items():
        print(f"{ident:<{width}}  {summary}")
    return 0


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    out_dir = args.out or cfg.out_dir

    reports = []
    for name, opts in cfg.theorems:
        try:
            reports.append(THEOREMS[name][1](cfg, opts, seed, args.threads))
        except WulffLabError as exc:
            raise WulffLabError(f"[{name}] {exc}") from exc
    all_passed = all(r.passed for r in reports)

    payload = {
        "seed": seed,
        "family_version": iq.FAMILY_VERSION,
        "all_passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    _atomic_write(os.path.join(out_dir, cfg.json_name), _json_bytes(payload))
    _atomic_write(os.path.join(out_dir, cfg.csv_name), _csv_bytes(reports))

    if cfg.heatmaps:
        u, F = _load_pair(cfg)
        for source in cfg.heatmaps:
            fld = u if source == "u" else F
            render_heatmap(fld.magnitude(), os.path.join(out_dir, f"{source}.svg"))

    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{status}  {rep.theorem}  C* = {rep.c_star:.6g}")
    print(f"report: {os.path.join(out_dir, cfg.json_name)}")
    return 0 if all_passed else 2


def _cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    out_dir = args.out or cfg.out_dir
    u0, F = _load_pair(cfg)
    problem = DirichletProblem(F, u0 if cfg.boundary == "u" else cfg.boundary)
    result = solve(problem, cfg.solver)

    _write_field_atomic(result.u, os.path.join(out_dir, cfg.field_name))
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "grad_norm": result.grad_norm,
        "energy": result.energy_trace[-1] if result.energy_trace else None,
        "p": cfg.p,
        "cells": list(cfg.geometry.cells),
        "stages": result.stage_log,
    }
    _atomic_write(os.path.join(out_dir, "solve.json"), _json_bytes(summary))
    if cfg.heatmaps:
        for source in cfg.heatmaps:
            fld = result.u if source == "u" else F
            render_heatmap(fld.magnitude(), os.path.join(out_dir, f"{source}.svg"))
    print(
        f"solved p={cfg.p} on {'x'.join(map(str, cfg.geometry.cells))}: "
        f"iterations={result.iterations} residual={result.residual:.3e}"
    )
    return 0


def _space_norm(f: GridField, spec: str) -> float:
    """Space grammar: Lq | lorentz:q,rho[,beta] | orlicz:<young spec> |
    campanato:beta[,q] | morrey:beta[,q]."""
    spec = spec.strip()
    if spec.startswith("L") and ":" not in spec:
        try:
            q = float(spec[1:])
        except ValueError as exc:
            raise ConfigError(f"bad space spec {spec!r}") from exc
        return lorentz_zygmund_norm(f, LorentzParams(q, q))
    if ":" not in spec:
        raise ConfigError(f"bad space spec {spec!r}")
    head, rest = spec.split(":", 1)
    if head == "orlicz":
        return luxemburg_norm(f, _young_from_spec(rest))
    if head not in ("lorentz", "campanato", "morrey"):
        raise ConfigError(f"unknown space family {head!r} in {spec!r}")
    try:
        vals = [float(tok) for tok in rest.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad space spec {spec!r}") from exc
    lo, hi = (2, 3) if head == "lorentz" else (1, 2)
    if not lo <= len(vals) <= hi:
        raise ConfigError(f"bad space spec {spec!r}: {head} takes {lo} to {hi} indices")
    if head == "lorentz":
        return lorentz_zygmund_norm(f, LorentzParams(*vals))
    beta, q = vals[0], vals[1] if len(vals) > 1 else 1.0
    if not (math.isfinite(beta) and math.isfinite(q)):
        raise ConfigError(f"bad space spec {spec!r}: beta and q must be finite")
    fn = campanato_seminorm if head == "campanato" else morrey_norm
    return float(fn(f, weight_power(beta), q=q))


def _cmd_norm(args) -> int:
    f = read_field(args.field)
    value = _space_norm(f, args.space)
    print(format(value, ".12g"))
    return 0


def _cmd_potential(args) -> int:
    f = read_field(args.field)
    geom = f.geometry
    x = _floats(args.point) if args.point else geom.center
    if args.kind == "wulff":
        radius = args.radius if args.radius is not None else math.inf
        value = wulff_potential(f, PotentialParams(args.alpha, args.s, radius), x)
        print(format(value, ".12g"))
        return 0
    if args.out and geom.dim != 2:
        raise ConfigError(f"--out writes a heatmap, which needs a 2-D field, "
                          f"got {geom.dim} cell counts")
    if args.kind == "riesz":
        field_map = riesz_map(f, args.alpha)
    else:
        field_map = havin_mazya_map(f, args.alpha, args.s)
    print(format(float(value_at(field_map, x)[0]), ".12g"))
    if args.out:
        _write_field_atomic(field_map, os.path.join(args.out, f"{args.kind}.wlf"))
        render_heatmap(field_map, os.path.join(args.out, f"{args.kind}.svg"))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (u64); overrides the config seed")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=None,
                        help="worker threads (fallback: WULFF_LAB_THREADS)")

    parser = argparse.ArgumentParser(
        prog="wulff-lab",
        description="potential-estimate verification lab for the p-Laplace system",
    )
    parser.add_argument("--list-theorems", action="store_true",
                        help="print the theorem-id table and exit")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", parents=[common],
                           help="run the verifications declared in a config")
    p_run.add_argument("config")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve the Dirichlet problem declared in a config")
    p_solve.add_argument("config")

    p_norm = sub.add_parser("norm", parents=[common],
                            help="evaluate a function-space norm of a field file")
    p_norm.add_argument("field")
    p_norm.add_argument("--space", required=True,
                        help="Lq | lorentz:q,rho[,beta] | orlicz:<young> | "
                             "campanato:beta[,q] | morrey:beta[,q]")

    p_pot = sub.add_parser("potential", parents=[common],
                           help="evaluate a potential of a nonnegative field")
    p_pot.add_argument("field")
    p_pot.add_argument("--alpha", type=float, required=True)
    p_pot.add_argument("--s", type=float, default=2.0)
    p_pot.add_argument("--radius", type=float, default=None)
    p_pot.add_argument("--kind", choices=("wulff", "riesz", "havin-mazya"),
                       default="wulff")
    p_pot.add_argument("--point", default=None, help="evaluation point 'x1,x2'")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_theorems:
        return _cmd_list_theorems()
    if args.command is None:
        parser.print_help()
        return 1
    if getattr(args, "seed", None) is not None and not (0 <= args.seed < 2**64):
        print("error: --seed must fit in u64", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "norm":
            return _cmd_norm(args)
        if args.command == "potential":
            return _cmd_potential(args)
    except (WulffLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
