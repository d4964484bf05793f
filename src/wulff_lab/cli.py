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
import functools
import io
import itertools
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
from .plaplace_solver import (
    DirichletProblem,
    SystemParams,
    _check_p,
    _check_tol,
    manufacture,
    solve,
)
from .potential_engine import (
    PotentialParams,
    havin_mazya_at,
    havin_mazya_map,
    riesz_map,
    wulff_potential,
)

# ---------------------------------------------------------------------------
# config parsing


def _floats(text: str) -> tuple[float, ...]:
    """A list of finite numbers, separated by commas (or ``x``)."""
    try:
        vals = tuple(float(tok) for tok in text.replace("x", ",").split(",") if tok.strip())
        if all(map(math.isfinite, vals)):
            return vals
    except ValueError:
        pass
    raise ConfigError(f"expected a comma-separated list of finite numbers, got {text!r}")


def _ints(text: str) -> tuple[int, ...]:
    vals = _floats(text)
    out = tuple(int(v) for v in vals)
    if any(o != v for o, v in zip(out, vals)):
        raise ConfigError(f"expected integers, got {text!r}")
    return out


def _u64(text: str) -> int:
    """A seed: an integer in [0, 2^64)."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"{value} does not fit in u64")
    return value


def _number(text: str) -> float:
    """A theorem's float option: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _index(text: str) -> float:
    """A Lorentz index ϱ: a finite number, or inf (ϱ = inf is a Lorentz space)."""
    return math.inf if float(text) == math.inf else _number(text)


def _radius(text: str) -> float:
    """A ball radius: a finite number > 0."""
    if not 0 < float(text) < math.inf:
        raise ValueError(text)
    return float(text)


_KINDS = {int: "an integer", _u64: "an integer that fits in u64", _number: "a finite number",
          _index: "a finite number or inf", _radius: "a positive finite number"}


def _parse(key: str, text: str, parse):
    """``parse(text)`` for the option or key ``key``; a malformed number is a
    config error."""
    try:
        return parse(text)
    except ValueError as exc:
        kind = _KINDS.get(parse, "a number")
        raise ConfigError(f"option {key!r} must be {kind}, got {text!r}") from exc


def _options(table: dict, given, geom=None) -> dict:
    """Each option of ``table`` parsed from its text in ``given`` (keys in lower
    case, as configparser folds them) or else set to its default."""
    values = {}
    for key, (parse, default) in table.items():
        text = given.get(key.lower())
        if text is not None:
            values[key] = _parse(key, text, parse)
        elif callable(default):
            values[key] = default(geom, values)
        else:
            values[key] = default if default is None else _parse(key, default, parse)
    return values


def _names(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _points(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_floats(part) for part in text.split(";") if part.strip())


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


# config sections: each key declared once as name -> (parser, default).  A
# default is config text, parsed like a given value; None, which leaves the
# choice to the reader (SystemParams, a verifier); or a function of the grid
# and the values parsed before it.  [verify] and [verify.<id>] also hold
# theorem options (THEOREMS).
SECTIONS = {
    "grid": {"cells": (_ints, "128,128"),
             "extent": (_floats, lambda geom, got: (1.0,) * len(got["cells"])),
             "origin": (_floats, lambda geom, got: (0.0,) * len(got["cells"]))},
    "system": {"p": (float, "2.0")},
    "data": {"u": (str, ""), "F": (str, ""), "boundary": (_boundary, "0"),
             "seed": (_u64, "0"), "residual_tol": (float, "1e-5")},
    "solver": {"tol": (float, None), "max_iters": (int, None)},
    "verify": {"theorems": (_names, "")},
    "output": {"dir": (str, "out"), "json": (str, "report.json"),
               "csv": (str, "report.csv"), "heatmaps": (_names, ""),
               "field": (str, "u.wlf")},
}


def _check_names(parser) -> None:
    """Reject a section or key that the run would not read, such as a typo: a
    ``[verify.<id>]`` key must be an option of that theorem."""
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]: its keys would reach every section")
    for name in parser.sections():
        if name == "verify":
            continue  # its shared options depend on the selected theorems
        if name in SECTIONS:
            what, known = "key", SECTIONS[name]
        elif name.startswith("verify.") and name[7:] in THEOREMS:
            what, known = "option", THEOREMS[name[7:]][2]
        else:
            raise ConfigError(f"unknown section [{name}]")
        extra = sorted(set(parser[name]) - {k.lower() for k in known})
        if extra:
            raise ConfigError(f"unknown {what} {extra[0]!r} in [{name}]; known "
                              f"{what}s: {', '.join(known)}")


class RunConfig:
    """Validated run description.

    Validation is front-loaded: section and key names, geometry shape,
    exponent range, solver settings, theorem ids, option names and option
    values, heatmap sources and the existence of every referenced file are
    checked at parse time, before any computation starts.  ``theorems`` holds
    each selected theorem with its parsed options, and ``groups`` the ones
    that share its :class:`Pass`.  Points and balls are checked against the
    domain when each theorem runs.
    """

    def __init__(self, parser, base_dir: str):
        _check_names(parser)
        if "grid" not in parser:
            raise ConfigError("missing required [grid] section")

        def given(name):
            return dict(parser[name]) if name in parser else {}

        def section(name):
            return _options(SECTIONS[name], given(name))

        try:
            g = section("grid")
            self.geometry = GridGeometry(g["cells"], g["extent"], g["origin"])
        except WulffLabError as exc:
            raise ConfigError(f"bad [grid] section: {exc}") from exc

        self.p = section("system")["p"]
        _check_p(self.p, "[system] p")

        d = section("data")
        self.u_spec, self.f_spec = d["u"], d["F"]
        self.boundary, self.seed = d["boundary"], d["seed"]
        self.residual_tol = d["residual_tol"]
        _check_tol(self.residual_tol, "[data] residual_tol")
        for spec in (self.u_spec, self.f_spec):
            if spec and not spec.startswith("profile:") and spec != "manufactured":
                path = os.path.join(base_dir, spec)
                if not os.path.exists(path):
                    raise ConfigError(f"referenced field file does not exist: {path}")

        solver = {k: v for k, v in section("solver").items() if v is not None}
        self.solver = SystemParams(p=self.p, **solver)

        shared = given("verify")
        self.theorems = []
        for name in section("verify")["theorems"]:
            if name not in THEOREMS:
                known = ", ".join(sorted(THEOREMS))
                raise ConfigError(f"unknown theorem id {name!r}; known ids: {known}")
            try:
                self.theorems.append((name, _options(
                    THEOREMS[name][2], {**shared, **given(f"verify.{name}")}, self.geometry)))
            except WulffLabError as exc:
                raise ConfigError(f"[{name}] {exc}") from exc
        # a [verify] key reaches every selected theorem, so one of them must read it
        extra = sorted(set(shared).difference(SECTIONS["verify"],
                                              *(got for _, got in self.theorems)))
        if extra:
            raise ConfigError(f"option {extra[0]!r} in [verify] is read by none of the "
                              "selected theorems")
        # groups[i]: the one list of the theorems that share theorem i's pass and key
        found, self.groups = {}, []
        for name, got in self.theorems:
            pass_ = THEOREMS[name][1]
            self.groups.append(found.setdefault((pass_, *(got[k] for k in pass_.key)), []))
            self.groups[-1].append((name, got))

        o = section("output")
        self.out_dir, self.json_name, self.csv_name = o["dir"], o["json"], o["csv"]
        self.heatmaps, self.field_name = o["heatmaps"], o["field"]
        for hm in self.heatmaps:
            if hm not in ("u", "F"):
                raise ConfigError(f"[output] heatmaps entries must be 'u' or 'F', got {hm!r}")
            if not self.u_spec:
                raise ConfigError(f"heatmap source {hm!r} needs [data] u")
        if self.heatmaps and self.geometry.dim != 2:
            raise ConfigError(f"[output] heatmaps need a 2-D [grid], got "
                              f"{self.geometry.dim} cell counts")

        self.base_dir = base_dir
        self._pair = self._gated = None

    def pair(self) -> tuple[GridField, GridField]:
        """The (u, F) pair of ``[data]``, loaded on first use and kept for the
        command: F is read from its file or manufactured from u."""
        if self._pair is None:
            if not self.u_spec:
                raise ConfigError("[data] u is required for this theorem")
            if self.u_spec.startswith("profile:"):
                u = _profile_field(self.geometry, self.u_spec)
            else:
                u = _read_on_grid(self, self.u_spec, "u")
            if self.f_spec == "manufactured" or not self.f_spec:
                self._pair = u, manufacture(u, self.p)
            else:
                self._pair = u, _read_on_grid(self, self.f_spec, "F")
        return self._pair

    def gated_pair(self) -> iq.GatedPair:
        """The pair of :meth:`pair`, gated once for the command at
        ``[data] residual_tol``.  The pair theorems take this one; heatmaps
        and ``solve`` take :meth:`pair`, which need not be a solution."""
        if self._gated is None:
            self._gated = iq.gate_pair(*self.pair(), self.p, self.residual_tol)
        return self._gated


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
    for item in filter(str.strip, parts[2].split(",") if len(parts) > 2 else []):
        key, _, val = item.partition("=")  # no '=' leaves val empty: an error
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


def _read_on_grid(cfg: RunConfig, spec: str, name: str) -> GridField:
    f = read_field(os.path.join(cfg.base_dir, spec))
    if f.geometry != cfg.geometry:
        raise ConfigError(f"[data] {name} geometry does not match the [grid] section")
    return f


# ---------------------------------------------------------------------------
# theorem registry: each theorem declares its pass and the options its
# verifier reads, once, in the form of SECTIONS; RunConfig parses them as the
# config loads.  Passes look the verifiers up on ``iq`` when they run, so that
# a wrapper set on the module (a tracer, a test stub) takes effect.


class Pass:
    """How a theorem runs.  The selected theorems with one pass and equal
    ``key`` options form a group; ``run(cfg, seed, threads, members)`` runs
    once for it and gives each member, a (theorem id, parsed options), its
    report or error.  An error that ``run`` raises is the first member's."""

    def __init__(self, run, key: tuple[str, ...] = ()):
        self.run, self.key = run, key


def _single(runner):
    """The pass of a theorem that shares nothing: ``runner(cfg, seed, threads,
    **options)`` for each member."""
    return Pass(lambda cfg, seed, threads, members: [
        runner(cfg, seed, threads, **got) for _, got in members])


def _entry(summary, pass_, drop, **options):
    """A THEOREMS entry of a family: the family's options without ``drop``."""
    return summary, pass_, {k: v for k, v in options.items() if k not in drop}


def _center(geom, got):
    return geom.center


def _r_ball(geom, got):
    return 0.25 * min(geom.extent)


def _lattice(geom, got):
    """The 3^n points at 0.35, 0.5 and 0.65 of each axis, last axis fastest."""
    return tuple(tuple(o + t * e for o, t, e in zip(geom.origin, ts, geom.extent))
                 for ts in itertools.product((0.35, 0.5, 0.65), repeat=geom.dim))


def _run_telescope(cfg, seed, threads, r_outer, r_inner, **options):
    return iq.verify_telescope(cfg.geometry, r=r_inner, R=r_outer, seed=seed, **options)


def _run_pointwise(cfg, seed, threads, members):
    """One pass over the points for both pointwise theorems, with the
    oscillation potential when the group holds pointwise-oscillation."""
    (_, got), names = members[0], [name for name, _ in members]
    terms = iq.pointwise_terms(cfg.gated_pair(), got["r_ball"], got["points"],
                               oscillation="pointwise-oscillation" in names)
    return [(iq.verify_pointwise_osc if name == "pointwise-oscillation"
             else iq.verify_pointwise)(terms) for name in names]


_POINTWISE = Pass(_run_pointwise, ("points", "r_ball"))
_POINT_OPTIONS = {"points": (_points, _lattice), "r_ball": (_radius, _r_ball)}


def _run_oscillation(cfg, seed, threads, x, r_ball):
    return iq.verify_oscillation(cfg.gated_pair(), x, r_ball)


def _run_energy(cfg, seed, threads, x, r_ball, q):
    return iq.verify_energy_inequalities(cfg.gated_pair(), x, r_ball, q=q)


def _hardy(summary, case, q, alpha, drop=()):
    """A Hardy entry whose default (q, alpha) lie in ``case``."""
    def run(cfg, seed, threads, **options):
        return iq.verify_hardy(case, seed=seed, **options)

    return _entry(summary, _single(run), drop, q=(_number, q), alpha=(_number, alpha),
                  k=(_number, "2.0"), samples=(int, "100"))


def _run_domination(cfg, seed, threads, **options):
    return iq.verify_domination(cfg.geometry, seed=seed, threads=threads, **options)


def _run_norm_maps(cfg, seed, threads, members):
    """One :func:`iq.verify_potential_norm_maps` pass for the admissible parts
    of a group; the first part's failed check raises before any datum is drawn."""
    checked = []
    for name, got in members:
        try:
            checked.append(iq.potential_norm_part(
                name.removeprefix("potential-norms-"), geom=cfg.geometry,
                **{k: v for k, v in got.items() if k != "samples"}))
        except WulffLabError as exc:
            if not checked:
                raise
            checked.append(exc)
    reports = iter(iq.verify_potential_norm_maps(
        [part for part in checked if not isinstance(part, WulffLabError)],
        samples=members[0][1]["samples"], seed=seed, threads=threads))
    return [part if isinstance(part, WulffLabError) else next(reports) for part in checked]


_NORM_MAPS = Pass(_run_norm_maps, ("alpha", "s", "samples"))


def _norm_maps(summary, drop=(), rho=(_index, "2.0"), **extra):
    return _entry(summary, _NORM_MAPS, drop, sigma=(_number, None), rho=rho,
                  samples=(int, "20"), alpha=(_number, "0.5"), s=(_number, "2.0"), **extra)


def _regularity(summary, kind, drop):
    def run(cfg, seed, threads, **options):
        return iq.verify_regularity_exponents(kind, cfg.p, **options)

    return _entry(summary, _single(run), drop, q=(_number, None), beta=(_number, None),
                  cells=(int, lambda geom, got: geom.cells[0]))


# theorem id -> (summary, pass, options)
THEOREMS = {
    "telescoping-means": (
        "two-mean comparison with constants 2^(2n+2) and 2^(2n+3)", _single(_run_telescope),
        {"x": (_floats, _center), "samples": (int, "100"),
         "r_outer": (_radius, lambda geom, got: 0.4 * min(geom.extent)),
         "r_inner": (_radius, lambda geom, got: max(got["r_outer"] / 8.0,
                                                    2.0 * max(geom.spacing))),
         "allowance": (_number, "0.10")}),
    "pointwise-wulff": ("|u(x)| bounded by the truncated Wulff potential of |F|^p' plus "
                        "a mean", _POINTWISE, _POINT_OPTIONS),
    "pointwise-oscillation": ("|u(x)| bounded by the mean-oscillation potential of F plus "
                              "a mean", _POINTWISE, _POINT_OPTIONS),
    "oscillation-decay": (
        "mean oscillation of u at scale r controlled by a Dini-type F term",
        _single(_run_oscillation), {"x": (_floats, _center), "r_ball": (_radius, _r_ball)}),
    "energy-caccioppoli": (
        "reverse Hoelder and Caccioppoli inequalities on nested balls",
        _single(_run_energy),
        {"x": (_floats, _center), "r_ball": (_radius, _r_ball), "q": (_number, None)}),
    "hardy-i": _hardy("weighted Hardy inequality, q >= 1", "i", "1.0", "0.0",
                      drop=("k",)),
    "hardy-ii-far": _hardy("weighted Hardy inequality, q < 1, alpha < -1-1/q", "ii-far",
                           "0.5", "-3.5"),
    "hardy-ii-near": _hardy("weighted Hardy inequality, q < 1, truncated range",
                            "ii-near", "0.5", "-2.0"),
    "wulff-riesz-domination": (
        "Wulff potential dominated by the composed Riesz potential",
        _single(_run_domination),
        {"alpha": (_number, "0.5"), "s": (_number, "3.0"), "samples": (int, "100")}),
    "potential-norms-A-i": _norm_maps("Lorentz-to-Lorentz potential boundedness"),
    "potential-norms-A-iii": _norm_maps("borderline Lorentz-Zygmund boundedness",
                                        drop=("sigma",)),
    "potential-norms-A-iv": _norm_maps("small second index gives boundedness into L^inf",
                                       drop=("sigma",), rho=(_index, None)),
    "potential-norms-B": _norm_maps(
        "Orlicz-to-Orlicz boundedness under the balance condition",
        drop=("sigma", "rho"), young_a=(_young_from_spec, "power,1.5"),
        young_b=(_young_from_spec, "power,3"), t0=(_number, "1.0")),
    "regularity-holder": _regularity("fitted Hoelder exponent against 1 - n/(q(p-1))",
                                     "holder", drop=("beta",)),
    "regularity-bmo": _regularity("borderline Morrey datum keeps the BMO seminorm finite",
                                  "bmo", drop=("q", "beta")),
    "regularity-lipschitz": _regularity("Dini datum modulus forces a Lipschitz solution",
                                        "lipschitz", drop=("q",)),
    "regularity-lorentz": _regularity("rearrangement tail exponent of the marginal datum",
                                      "lorentz", drop=("beta",)),
}


# ---------------------------------------------------------------------------
# artifact writers (atomic + deterministic)


def _atomic_write(path: str, payload) -> None:
    """Write ``payload`` to ``path`` through a temp file in the same
    directory and one ``os.replace``.  ``payload`` is the file's bytes as
    one chunk, or an iterable of byte chunks written in order, so a large
    file is never held whole.  If any chunk fails, the temp file is removed
    and ``path`` keeps what it held."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-wulff-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in (payload,) if isinstance(payload, bytes) else payload:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Chunks:
    """Byte chunks made as they are written, with their total size known
    beforehand: ``len`` is that size, as it is of a ``bytes`` payload, so a
    caller of ``_atomic_write`` (the benchmark's tracer) can count the bytes
    without making them."""

    def __init__(self, size: int, chunks):
        self._size, self._chunks = size, chunks

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self._chunks)


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
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# grid columns per chunk of a heatmap: the chunk's bytes, its fills and
# their float temporaries are all that a heatmap holds at once
_HEATMAP_BLOCK = 32


def _color_bytes(t: np.ndarray) -> np.ndarray:
    """Colormap of an array of positions as ASCII ``#rrggbb``: uint8 of
    shape t.shape + (7,).

    t is clipped to [0, 1]; its segment ends at the first stop >= t and each
    channel is rint(a + w·(b − a)), the IEEE operations and half-to-even
    rounding of Python's ``round`` on the same floats.  NaN (from a span
    that overflows) takes the last stop, as t = 1 does."""
    t = np.clip(np.nan_to_num(t, nan=1.0), 0.0, 1.0)
    seg = np.searchsorted(_STOP_T[1:], t, side="left")
    t0, t1 = _STOP_T[seg], _STOP_T[seg + 1]
    w = (t - t0) / (t1 - t0)
    out = np.empty(t.shape + (7,), dtype=np.uint8)
    out[..., 0] = ord("#")
    for c, stops in enumerate(_STOP_RGB.T):
        a, b = stops[seg], stops[seg + 1]
        level = np.rint(a + w * (b - a)).astype(np.uint8)
        out[..., 1 + 2 * c] = _HEX_DIGITS[level >> 4]
        out[..., 2 + 2 * c] = _HEX_DIGITS[level & 15]
    return out


@functools.lru_cache(maxsize=8)
def _column_template(c2: int, px: int, digits: int):
    """The rect lines of one grid column of c2 cells whose x has ``digits``
    digits, as uint8 bytes with x and the fill left blank, and the flat
    positions of the x digits, (c2, digits), and of the fill ``#rrggbb``,
    (c2, 7).  Cell j sits at y = (c2 − 1 − j)·px."""
    lines = [f'<rect x="{"0" * digits}" y="{(c2 - 1 - j) * px}" width="{px}" '
             f'height="{px}" fill="#000000"/>\n' for j in range(c2)]
    lengths = np.array([len(line) for line in lines])
    ends = np.cumsum(lengths)
    x_at = (ends - lengths + len('<rect x="'))[:, None] + np.arange(digits)
    fill_at = (ends - len('#000000"/>\n'))[:, None] + np.arange(7)
    x_at.flags.writeable = fill_at.flags.writeable = False
    return np.frombuffer("".join(lines).encode(), dtype=np.uint8), x_at, fill_at


def _cell_chunks(vals: np.ndarray, vmin: float, span: float, px: int, runs):
    """The rect lines of the grid cells, column after column, in chunks of
    at most ``_HEATMAP_BLOCK`` columns of one run: (digits, first, stop)
    with every x = i·px of columns first ≤ i < stop of that many digits."""
    c2 = vals.shape[1]
    for digits, first, stop in runs:
        template, x_at, fill_at = _column_template(c2, px, digits)
        block = np.tile(template, (min(_HEATMAP_BLOCK, stop - first), 1))
        powers = 10 ** np.arange(digits - 1, -1, -1)
        for i in range(first, stop, _HEATMAP_BLOCK):
            n = min(_HEATMAP_BLOCK, stop - i)
            x = np.arange(i, i + n)[:, None] * px
            block[:n, x_at] = (x // powers % 10 + ord("0"))[:, None, :]
            with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows
                t = np.full((n, c2), 0.5) if span == 0.0 else (vals[i:i + n] - vmin) / span
            block[:n, fill_at] = _color_bytes(t)
            yield block[:n].tobytes()


def render_heatmap(f: GridField, path: str) -> None:
    """Write a scalar 2-D field as an SVG heatmap: one rect per cell, 5-stop
    linear colormap, min/max legend.  Byte-deterministic for fixed input.

    The SVG goes to disk block by block: each chunk holds the rect lines of
    ``_HEATMAP_BLOCK`` grid columns, whose fills take the per-cell float
    steps of the colormap, so memory grows with the length of one grid
    column, not with the SVG's size."""
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
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width + legend_w + 60}" height="{height}" '
            f'viewBox="0 0 {width + legend_w + 60} {height}">\n').encode()
    # legend: vertical bar, max at the top
    bar_x = width + 12
    steps = 32
    bar_h = height / steps
    fills = _color_bytes(1.0 - (np.arange(steps) + 0.5) / steps)
    tail = "".join([
        *(f'<rect x="{bar_x}" y="{format(k * bar_h, ".6g")}" width="16" '
          f'height="{format(bar_h + 0.5, ".6g")}" fill="{fill.tobytes().decode()}"/>\n'
          for k, fill in enumerate(fills)),
        f'<text x="{bar_x + 20}" y="12" font-size="11" '
        f'font-family="monospace">{format(vmax, ".6g")}</text>\n',
        f'<text x="{bar_x + 20}" y="{height - 2}" font-size="11" '
        f'font-family="monospace">{format(vmin, ".6g")}</text>\n',
        "</svg>\n",
    ]).encode()
    # the columns whose x = i·px has d digits end at ⌈10^d/px⌉
    stops = [-(-10 ** d // px) for d in range(1, len(str((c1 - 1) * px)))] + [c1]
    runs = [(d, first, stop)
            for d, (first, stop) in enumerate(itertools.pairwise([0, *stops]), 1)]
    size = len(head) + len(tail) + sum(
        (stop - first) * _column_template(c2, px, d)[0].size for d, first, stop in runs)
    _atomic_write(path, _Chunks(size, itertools.chain(
        (head,), _cell_chunks(vals, vmin, span, px, runs), (tail,))))


def _write_field_atomic(f: GridField, path: str) -> None:
    _atomic_write(path, encode_field(f))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_list_theorems() -> int:
    width = max(len(t) for t in THEOREMS)
    print(f"{'theorem id':<{width}}  description")
    print(f"{'-' * width}  {'-' * 11}")
    for ident, (summary, _, _) in THEOREMS.items():
        print(f"{ident:<{width}}  {summary}")
    return 0


def _cmd_run(args) -> int:
    threads = iq._threads(args.threads)
    cfg = parse_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    out_dir = args.out or cfg.out_dir

    outcomes, reports = {}, []  # id of a group -> its members' outcomes, in turn
    for (name, _), group in zip(cfg.theorems, cfg.groups):
        try:
            if id(group) not in outcomes:  # the turn of its first member
                outcomes[id(group)] = iter(THEOREMS[name][1].run(cfg, seed, threads, group))
            reports.append(next(outcomes[id(group)]))
            if isinstance(reports[-1], WulffLabError):
                raise reports[-1]
        except WulffLabError as exc:
            raise WulffLabError(f"[{name}] {exc}") from exc
    # loaded before the first write, so that a bad pair leaves no report behind
    fields = dict(zip("uF", cfg.pair())) if cfg.heatmaps else {}

    payload = {"seed": seed, "all_passed": all(r.passed for r in reports),
               "reports": [r.to_dict() for r in reports]}
    if any(r.family_version is not None for r in reports):
        payload["family_version"] = iq.FAMILY_VERSION
    _atomic_write(os.path.join(out_dir, cfg.json_name), _json_bytes(payload))
    _atomic_write(os.path.join(out_dir, cfg.csv_name), _csv_bytes(reports))

    for source in cfg.heatmaps:
        render_heatmap(fields[source].magnitude(), os.path.join(out_dir, f"{source}.svg"))

    for rep in reports:
        print(f"{'pass' if rep.passed else 'FAIL'}  {rep.theorem}  C* = {rep.c_star:.6g}")
    print(f"report: {os.path.join(out_dir, cfg.json_name)}")
    return 0 if payload["all_passed"] else 2


def _cmd_solve(args) -> int:
    cfg = parse_config(args.config)
    out_dir = args.out or cfg.out_dir
    u0, F = cfg.pair()
    problem = DirichletProblem(F, u0 if cfg.boundary == "u" else cfg.boundary)
    result = solve(problem, cfg.solver)

    _write_field_atomic(result.u, os.path.join(out_dir, cfg.field_name))
    summary = {
        # solve raises unless it converged; the key stays for readers of the file
        "converged": True,
        "iterations": result.iterations,
        "residual": result.residual,
        "grad_norm": result.grad_norm,
        "energy": result.energy,
        "p": cfg.p,
        "cells": list(cfg.geometry.cells),
        "stages": result.stage_log,
    }
    _atomic_write(os.path.join(out_dir, "solve.json"), _json_bytes(summary))
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
    omega = weight_power(beta)
    if head == "campanato" and omega.nondecreasing and q != 1.0:
        raise ConfigError(f"bad space spec {spec!r}: a campanato scan with beta >= 0 "
                          "runs at q = 1 and reads no q")
    fn = campanato_seminorm if head == "campanato" else morrey_norm
    return float(fn(f, omega, q=q))


def _cmd_norm(args) -> int:
    f = read_field(args.field)
    value = _space_norm(f, args.space)
    print(format(value, ".12g"))
    return 0


def _cmd_potential(args) -> int:
    # a flag that the chosen kind would not read is an error before any work
    if args.kind == "wulff" and args.out:
        raise ConfigError("--out writes the map of --kind riesz or havin-mazya; "
                          "--kind wulff evaluates one point")
    if args.kind != "wulff" and args.radius is not None:
        raise ConfigError(f"--radius truncates --kind wulff; --kind {args.kind} "
                          "does not read it")
    if args.kind == "riesz" and args.s is not None:
        raise ConfigError("--s is an exponent of --kind wulff or havin-mazya; "
                          "--kind riesz does not read it")
    s = 2.0 if args.s is None else args.s
    f = read_field(args.field)
    geom = f.geometry
    x = _floats(args.point) if args.point else geom.center
    if args.kind == "wulff":
        radius = args.radius if args.radius is not None else math.inf
        value = wulff_potential(f, PotentialParams(args.alpha, s, radius), x)
        print(format(value, ".12g"))
        return 0
    if args.out and geom.dim != 2:
        raise ConfigError(f"--out writes a heatmap, which needs a 2-D field, "
                          f"got {geom.dim} cell counts")
    if args.kind == "riesz":
        field_map = riesz_map(f, args.alpha)
    elif args.out:
        field_map = havin_mazya_map(f, args.alpha, s)
    else:  # V at one cell costs one inner map, not two
        print(format(havin_mazya_at(f, args.alpha, s, x), ".12g"))
        return 0
    print(format(float(value_at(field_map, x)[0]), ".12g"))
    if args.out:
        _write_field_atomic(field_map, os.path.join(args.out, f"{args.kind}.wlf"))
        render_heatmap(field_map, os.path.join(args.out, f"{args.kind}.svg"))
    return 0


# ---------------------------------------------------------------------------
# entry point


_FLAGS = {
    "--seed": {"help": "RNG seed (u64); overrides the config seed"},
    "--out": {"help": "output directory"},
    "--threads": {"type": int, "help": "worker threads for wulff-riesz-domination and the "
                  "potential-norms-* parts, at least 1 (default 1)"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wulff-lab",
        description="potential-estimate verification lab for the p-Laplace system",
    )
    parser.add_argument("--list-theorems", action="store_true",
                        help="print the theorem-id table and exit")
    sub = parser.add_subparsers(dest="command")

    def command(name, cmd, help, source, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(cmd=cmd)
        p.add_argument(source)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    command("run", _cmd_run, "run the verifications declared in a config", "config",
            "--seed", "--out", "--threads")
    command("solve", _cmd_solve, "solve the Dirichlet problem declared in a config",
            "config", "--out")
    p_norm = command("norm", _cmd_norm, "evaluate a function-space norm of a field file",
                     "field")
    p_norm.add_argument("--space", required=True,
                        help="Lq | lorentz:q,rho[,beta] | orlicz:<young> | "
                             "campanato:beta[,q] | morrey:beta[,q]")

    p_pot = command("potential", _cmd_potential,
                    "evaluate a potential of a nonnegative field", "field", "--out")
    p_pot.add_argument("--alpha", type=float, required=True)
    p_pot.add_argument("--s", type=float, default=None,
                       help="exponent of wulff and havin-mazya (default 2.0)")
    p_pot.add_argument("--radius", type=float, default=None,
                       help="truncation radius of wulff (default: largest ball "
                            "inside the domain)")
    p_pot.add_argument("--kind", choices=("wulff", "riesz", "havin-mazya"),
                       default="wulff")
    p_pot.add_argument("--point", default=None, help="evaluation point 'x1,x2'")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error is a config error
        return 1 if exc.code else 0
    if args.list_theorems:
        return _cmd_list_theorems()
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if getattr(args, "seed", None) is not None:
            args.seed = _parse("--seed", args.seed, _u64)
        return args.cmd(args)
    except (WulffLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
