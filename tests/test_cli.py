import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wulff_lab.cli import (
    _COLOR_STOPS,
    _profile_field,
    THEOREMS,
    _space_norm,
    _young_from_spec,
    main,
    render_heatmap,
)
from wulff_lab.errors import ConfigError
from wulff_lab.field_grid import (
    GridField,
    GridGeometry,
    read_field,
    value_at,
    write_field,
)
from wulff_lab.function_spaces import LorentzParams, lorentz_zygmund_norm
from wulff_lab.inequality_lab import _threads
from wulff_lab.potential_engine import riesz_map


def write_config(path, body):
    path.write_text(body)
    return str(path)


RUN_CONFIG = """\
[grid]
cells = 48,48
extent = 1.0,1.0

[system]
p = 2.0

[data]
u = profile:sinsin
F = manufactured
seed = 5

[verify]
theorems = telescoping-means, hardy-i

[verify.telescoping-means]
samples = 4

[verify.hardy-i]
q = 1.0
alpha = 0.0
samples = 6

[output]
dir = out
heatmaps = u,F
"""


def read_bytes(d, name):
    return (d / name).read_bytes()


# ---------------------------------------------------------------------------
# run command


def test_run_passes_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path / "job.ini", RUN_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    captured = capsys.readouterr().out
    assert "pass  telescoping-means" in captured
    assert "pass  hardy-i" in captured
    for name in ("report.json", "report.csv", "u.svg", "F.svg"):
        assert read_bytes(out1, name) == read_bytes(out2, name)

    payload = json.loads(read_bytes(out1, "report.json"))
    assert payload["all_passed"] is True
    assert payload["seed"] == 5
    assert {r["theorem"] for r in payload["reports"]} == {
        "telescoping-means", "hardy-i"
    }
    csv_text = read_bytes(out1, "report.csv").decode()
    assert csv_text.splitlines()[0] == "theorem,sample,lhs,rhs,ratio,passed"


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "job.ini", RUN_CONFIG)
    o1, o2, o3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["run", cfg, "--out", str(o1), "--seed", "1"]) == 0
    assert main(["run", cfg, "--out", str(o2), "--seed", "2"]) == 0
    assert main(["run", cfg, "--out", str(o3), "--seed", "1"]) == 0
    assert read_bytes(o1, "report.json") != read_bytes(o2, "report.json")
    assert read_bytes(o1, "report.json") == read_bytes(o3, "report.json")


def test_run_verification_failure_exits_2(tmp_path, capsys):
    body = RUN_CONFIG.replace("samples = 4", "samples = 2\nallowance = -0.999")
    cfg = write_config(tmp_path / "fail.ini", body)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    out = capsys.readouterr().out
    assert "FAIL  telescoping-means" in out


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_run_missing_field_file(tmp_path, capsys):
    body = RUN_CONFIG.replace("profile:sinsin", "missing.wlf")
    cfg = write_config(tmp_path / "bad.ini", body)
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "missing.wlf" in err


def test_run_unknown_theorem(tmp_path, capsys):
    body = RUN_CONFIG.replace("telescoping-means, hardy-i", "fermat-last")
    cfg = write_config(tmp_path / "bad.ini", body)
    assert main(["run", cfg]) == 1
    assert "unknown theorem id" in capsys.readouterr().err


def test_run_bad_heatmap_source(tmp_path, capsys):
    body = RUN_CONFIG.replace("heatmaps = u,F", "heatmaps = v")
    cfg = write_config(tmp_path / "bad.ini", body)
    assert main(["run", cfg]) == 1
    assert "heatmaps" in capsys.readouterr().err


def test_run_heatmap_source_without_data_fails_before_reports(tmp_path, capsys):
    body = """\
[grid]
cells = 32,32

[verify]
theorems = hardy-i

[verify.hardy-i]
samples = 6

[output]
heatmaps = u
"""
    cfg = write_config(tmp_path / "nodata.ini", body)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: heatmap source 'u' needs [data] u")
    assert captured.out == ""
    assert not (out / "report.json").exists() and not (out / "report.csv").exists()


def test_run_heatmaps_need_a_2d_grid(tmp_path, capsys):
    body = (RUN_CONFIG.replace("cells = 48,48", "cells = 8,8,4")
            .replace("extent = 1.0,1.0", "extent = 1.0,1.0,1.0"))
    cfg = write_config(tmp_path / "cube.ini", body)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [output] heatmaps need a 2-D [grid]")
    assert captured.out == "" and not out.exists()


POINTWISE_AT = "theorems = pointwise-wulff\n\n[verify.pointwise-wulff]\npoints = "


def test_run_bad_option_value(tmp_path, capsys):
    # a malformed option must be a clean config error, not a traceback
    for old, new, name in [
        ("samples = 4", "samples = abc", "samples"),
        ("extent = 1.0,1.0", "extent = -1.0,1.0", "extent"),
        ("theorems = telescoping-means, hardy-i", POINTWISE_AT + "1.5,0.5", "outside"),
        ("theorems = telescoping-means, hardy-i", POINTWISE_AT + "0.5", "coordinates"),
        # a verification without samples has nothing to pass
        ("samples = 4", "samples = 0", "[telescoping-means] no samples"),
        ("samples = 6", "samples = 0", "[hardy-i] no samples"),
        ("theorems = telescoping-means, hardy-i",
         "theorems = wulff-riesz-domination\nsamples = 0",
         "[wulff-riesz-domination] no samples"),
        ("theorems = telescoping-means, hardy-i",
         "theorems = potential-norms-A-i\nsamples = 0\nsigma = 1.5",
         "[potential-norms-A-i] no samples"),
        ("theorems = telescoping-means, hardy-i", POINTWISE_AT + ";",
         "[pointwise-wulff] no samples"),
    ]:
        cfg = write_config(tmp_path / "bad.ini", RUN_CONFIG.replace(old, new))
        assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err


def test_run_bad_profile_option_value(tmp_path, capsys):
    body = RUN_CONFIG.replace("profile:sinsin", "profile:power:expo=abc")
    cfg = write_config(tmp_path / "bad.ini", body)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "expo=abc" in capsys.readouterr().err


def test_bad_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "job.ini", RUN_CONFIG)
    assert main(["run", cfg, "--seed", "-1"]) == 1
    assert "u64" in capsys.readouterr().err


ALL_THEOREMS_CONFIG = """\
[grid]
cells = 32,32

[system]
p = 1.5

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = telescoping-means, pointwise-wulff, pointwise-oscillation,
    oscillation-decay, energy-caccioppoli, hardy-i, hardy-ii-far,
    hardy-ii-near, wulff-riesz-domination, potential-norms-A-i,
    potential-norms-A-iii, potential-norms-A-iv, potential-norms-B,
    regularity-holder, regularity-bmo, regularity-lipschitz, regularity-lorentz
samples = 3

[verify.hardy-ii-far]
q = 0.5
alpha = -3.5

[verify.hardy-ii-near]
q = 0.5
alpha = -2.5

[verify.potential-norms-A-i]
sigma = 1.5

[verify.potential-norms-A-iii]
rho = 3

[verify.potential-norms-A-iv]
rho = 0.5

[verify.potential-norms-B]
young_a = power,1.5
young_b = power,3

[verify.regularity-holder]
q = 8
cells = 128

[verify.regularity-bmo]
cells = 128

[verify.regularity-lipschitz]
cells = 128

[verify.regularity-lorentz]
q = 1.2
cells = 128
"""


def test_run_every_theorem_id(tmp_path, capsys):
    # each runner's call must still fit its verifier
    cfg = write_config(tmp_path / "all.ini", ALL_THEOREMS_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("pass  ")]
    assert [ln.split()[1] for ln in lines] == list(THEOREMS)


NORMS_B_CONFIG = """\
[grid]
cells = 32,32

[system]
p = 1.5

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = potential-norms-B
samples = 2

[verify.potential-norms-B]
young_a = power,1.5
young_b = power,3
"""


@pytest.mark.parametrize("old, new", [
    ("young_a = power,1.5", "young_a = zygmund,1.5,1"),
    ("young_a = power,1.5", "young_a = exp,1"),
    ("young_a = power,1.5", "young_a = dexp"),
    ("young_b = power,3", "young_b = zygmund,3,1"),
], ids=["zygmund_a", "exp_a", "dexp_a", "zygmund_b"])
def test_run_potential_norms_b_non_power_young(tmp_path, capsys, old, new):
    # non-power Young functions take the quadrature route of the transforms
    cfg = write_config(tmp_path / "b.ini", NORMS_B_CONFIG.replace(old, new))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "pass  potential-norms-B" in capsys.readouterr().out


def test_list_theorems_and_help(capsys):
    assert main(["--list-theorems"]) == 0
    out = capsys.readouterr().out
    for ident in ("telescoping-means", "pointwise-wulff", "hardy-ii-near",
                  "potential-norms-B", "regularity-lorentz"):
        assert ident in out
    assert main([]) == 1


# ---------------------------------------------------------------------------
# solve command


SOLVE_CONFIG = """\
[grid]
cells = 32,32

[system]
p = 2.0

[data]
u = profile:sinsin
F = manufactured
boundary = u

[solver]
tol = 1e-10

[output]
dir = out
field = u.wlf
heatmaps = u
"""


def test_solve_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path / "solve.ini", SOLVE_CONFIG)
    out = tmp_path / "sol"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    assert "solved p=2" in capsys.readouterr().out

    u = read_field(str(out / "u.wlf"))
    assert u.geometry.cells == (32, 32)
    exact = _profile_field(u.geometry, "profile:sinsin")
    assert float(np.abs(u.values - exact.values).max()) < 5e-3

    summary = json.loads(read_bytes(out, "solve.json"))
    assert summary["converged"] is True
    assert summary["residual"] <= 1e-10
    assert (out / "u.svg").exists()


@pytest.mark.parametrize("option, name", [
    ("eps_start = 1e-6\neps_final = 1e-3", "eps_final"),
    ("tol = 0", "tol"),
    ("max_iters = -5", "max_iters"),
], ids=["eps_final", "tol", "max_iters"])
def test_solve_rejects_bad_solver_values(tmp_path, capsys, option, name):
    cfg = write_config(tmp_path / "solve.ini",
                       SOLVE_CONFIG.replace("tol = 1e-10", option))
    assert main(["solve", cfg, "--out", str(tmp_path / "sol")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad [solver] section") and name in err
    assert not (tmp_path / "sol").exists()


def test_solve_json_stages_sum_to_iterations(tmp_path):
    cfg = write_config(tmp_path / "solve.ini",
                       SOLVE_CONFIG.replace("p = 2.0", "p = 3.0")
                       .replace("tol = 1e-10", "tol = 1e-8"))
    out = tmp_path / "sol"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    summary = json.loads(read_bytes(out, "solve.json"))
    stages = summary["stages"]
    assert len(stages) >= 2
    assert all(set(s) == {"eps", "iterations", "newton_steps", "grad_norm"}
               for s in stages)
    assert summary["iterations"] > 0
    assert sum(s["iterations"] for s in stages) == summary["iterations"]


def test_solve_heatmaps_need_a_2d_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "solve.ini",
                       SOLVE_CONFIG.replace("cells = 32,32", "cells = 8,8,4"))
    assert main(["solve", cfg, "--out", str(tmp_path / "sol")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [output] heatmaps need a 2-D [grid]")
    assert captured.out == "" and not (tmp_path / "sol").exists()


@pytest.mark.parametrize("value", ["abc", "nan"])
def test_solve_rejects_bad_boundary(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "solve.ini",
                       SOLVE_CONFIG.replace("boundary = u", f"boundary = {value}"))
    assert main(["solve", cfg, "--out", str(tmp_path / "sol")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [data] boundary") and value in err
    assert not (tmp_path / "sol").exists()


# ---------------------------------------------------------------------------
# norm and potential commands


def field_file(tmp_path, fn, cells=32, name="f.wlf"):
    geom = GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))
    f = GridField.from_function(geom, fn)
    path = tmp_path / name
    write_field(f, str(path))
    return f, str(path)


def test_norm_command_matches_library(tmp_path, capsys):
    f, path = field_file(tmp_path, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert main(["norm", path, "--space", "L2"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(
        lorentz_zygmund_norm(f, LorentzParams(2.0, 2.0)), rel=1e-12
    )
    assert main(["norm", path, "--space", "lorentz:inf,2,-1"]) == 0
    assert float(capsys.readouterr().out.strip()) > 0
    assert main(["norm", path, "--space", "orlicz:power,2"]) == 0
    orl = float(capsys.readouterr().out.strip())
    assert orl == pytest.approx(
        lorentz_zygmund_norm(f, LorentzParams(2.0, 2.0)), rel=1e-8
    )


def test_norm_command_bad_space(tmp_path, capsys):
    _, path = field_file(tmp_path, lambda x, y: x)
    assert main(["norm", path, "--space", "sobolev:1"]) == 1
    assert "space" in capsys.readouterr().err
    # a scan exponent q below 1 or infinite is an error, not a traceback or a value
    # so is a spec with more indices than its family takes
    for spec in ("campanato:-0.5,0.5", "campanato:-0.5,inf", "morrey:0.5,inf",
                 "campanato:1,2,3", "lorentz:2,2,0,5"):
        assert main(["norm", path, "--space", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    # a field file whose header declares a nonpositive extent
    bad = tmp_path / "neg.wlf"
    bad.write_bytes(open(path, "rb").read().replace(b"extent=1.0,1.0",
                                                    b"extent=-1.0,1.0"))
    assert main(["norm", str(bad), "--space", "L2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "extent" in err


def test_cli_import_leaves_out_scipy_signal():
    # the Riesz maps convolve through scipy.fft; scipy.signal would add ~0.7 s
    # of import time to every command
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, wulff_lab.cli; print(sorted(m for m in sys.modules"
         " if m == 'scipy.signal' or m.startswith('scipy.signal.')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_space_norm_grammar(tmp_path):
    geom = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
    f = GridField.from_function(geom, lambda x, y: x)
    assert _space_norm(f, "campanato:1,1") > 0
    assert _space_norm(f, "morrey:1") > 0
    with pytest.raises(ConfigError):
        _space_norm(f, "L")
    with pytest.raises(ConfigError):
        _space_norm(f, "noseparator")
    # a missing, extra or non-numeric index is a spec error, not a traceback
    for spec in ("lorentz:2", "lorentz:abc,2", "campanato:x", "morrey:0.5,abc",
                 "campanato:1,2,3", "lorentz:2,2,0,5"):
        with pytest.raises(ConfigError, match="bad space spec"):
            _space_norm(f, spec)
    # so is a non-finite scan index; L^inf and Lorentz q = inf stay valid
    for spec in ("campanato:nan", "morrey:nan", "campanato:1,nan", "morrey:inf",
                 "campanato:-0.5,inf", "morrey:0.5,inf"):
        with pytest.raises(ConfigError, match="bad space spec"):
            _space_norm(f, spec)
    assert _space_norm(f, "Linf") > 0
    assert _space_norm(f, "lorentz:inf,2") > 0


def test_potential_command(tmp_path, capsys):
    f, path = field_file(tmp_path, lambda x, y: np.ones_like(x))
    assert main(["potential", path, "--alpha", "0.5", "--s", "3.0",
                 "--radius", "0.2"]) == 0
    w = float(capsys.readouterr().out.strip())
    # constant data: W^R(c) = c^(1/(s-1)) R for alpha = s/(s'(s-1)) ... here
    # alpha*s = 1.5 < 2 and f = 1, so the integrand is r^(alpha*s/(s-1) - 1)
    exact = (0.2 ** (0.5 * 3.0 / 2.0)) / (0.5 * 3.0 / 2.0)
    assert w == pytest.approx(exact, rel=1e-2)

    out = tmp_path / "maps"
    assert main(["potential", path, "--alpha", "1.0", "--kind", "riesz",
                 "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.strip())
    lib = riesz_map(f, 1.0)
    center = (0.5, 0.5)
    assert printed == pytest.approx(float(value_at(lib, center)[0]), rel=1e-12)
    saved = read_field(str(out / "riesz.wlf"))
    assert np.allclose(saved.values, lib.values)
    assert (out / "riesz.svg").exists()

    # one coordinate on a 2-d field
    assert main(["potential", path, "--alpha", "0.5", "--point", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "coordinates" in err


@pytest.mark.parametrize("kind", ["riesz", "havin-mazya"])
def test_potential_out_needs_a_2d_field(tmp_path, capsys, kind):
    geom = GridGeometry((8, 8, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    path = tmp_path / "f3.wlf"
    write_field(GridField.from_function(geom, lambda x, y, z: 1.0 + x), str(path))
    out = tmp_path / "o3"
    assert main(["potential", str(path), "--kind", kind, "--alpha", "0.5",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out writes a heatmap, which needs a 2-D field")
    assert captured.out == "" and not out.exists()
    # without --out the 3-d map is still evaluated at a point
    assert main(["potential", str(path), "--kind", kind, "--alpha", "0.5"]) == 0
    assert float(capsys.readouterr().out) > 0


# ---------------------------------------------------------------------------
# heatmap rendering


def _color(t: float) -> str:
    """The colormap one position at a time, as the heatmap writer computed
    it per cell before it worked on arrays."""
    t = min(max(t, 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_COLOR_STOPS[:-1], _COLOR_STOPS[1:]):
        if t <= t1:
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*_COLOR_STOPS[-1][1])


def _heatmap_oracle(f: GridField) -> bytes:
    """The SVG bytes of the per-cell heatmap writer: one ``_color`` call and
    one rect string per cell."""
    vals = f.values[0]
    c1, c2 = vals.shape[0], vals.shape[1]
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
    for i in range(c1):
        for j in range(c2):
            t = 0.5 if span == 0.0 else (float(vals[i, j]) - vmin) / span
            parts.append(
                f'<rect x="{i * px}" y="{(c2 - 1 - j) * px}" width="{px}" '
                f'height="{px}" fill="{_color(t)}"/>'
            )
    bar_x = width + 12
    steps = 32
    bar_h = height / steps
    for k in range(steps):
        t = 1.0 - (k + 0.5) / steps
        parts.append(
            f'<rect x="{bar_x}" y="{format(k * bar_h, ".6g")}" width="16" '
            f'height="{format(bar_h + 0.5, ".6g")}" fill="{_color(t)}"/>'
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
    return "\n".join(parts).encode() + b"\n"


CELL_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="\d+" height="\d+" '
                       r'fill="(#[0-9a-f]{6})"/>')


def cell_fills(svg_text, c1, c2):
    """fills[i][j] for the first c1*c2 rects (cell raster)."""
    matches = CELL_RECT.findall(svg_text)[: c1 * c2]
    assert len(matches) == c1 * c2
    px = max(2, 640 // max(c1, c2))
    fills = [[None] * c2 for _ in range(c1)]
    for x, y, fill in matches:
        i = int(x) // px
        j = c2 - 1 - int(y) // px
        fills[i][j] = fill
    return fills


def test_heatmap_constant_field(tmp_path):
    geom = GridGeometry((8, 8), (1.0, 1.0), (0.0, 0.0))
    f = GridField.constant(geom, 5.0)
    path = tmp_path / "c.svg"
    render_heatmap(f, str(path))
    text = path.read_text()
    fills = cell_fills(text, 8, 8)
    assert {fill for row in fills for fill in row} == {_color(0.5)}
    # legend min and max annotations coincide
    assert text.count(">5</text>") == 2


def test_heatmap_coordinate_ramp(tmp_path):
    geom = GridGeometry((16, 4), (1.0, 1.0), (0.0, 0.0))
    f = GridField.from_function(geom, lambda x, y: x)
    path = tmp_path / "ramp.svg"
    render_heatmap(f, str(path))
    fills = cell_fills(path.read_text(), 16, 4)
    expected = [_color(i / 15.0) for i in range(16)]
    for j in range(4):
        assert [fills[i][j] for i in range(16)] == expected


def test_heatmap_radial_potential_decreases_along_ray(tmp_path):
    geom = GridGeometry((33, 33), (1.0, 1.0), (0.0, 0.0))
    f = GridField.from_function(
        geom, lambda x, y: np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02)
    )
    pot = riesz_map(f, 1.0)
    vals = pot.values[0]
    ray = vals[16, 16:]
    assert np.all(np.diff(ray) < 0)
    path = tmp_path / "pot.svg"
    render_heatmap(pot, str(path))
    fills = cell_fills(path.read_text(), 33, 33)
    vmin, vmax = float(vals.min()), float(vals.max())
    for k, v in enumerate(ray):
        t = (float(v) - vmin) / (vmax - vmin)
        assert fills[16][16 + k] == _color(t)


def _levels(shape, n, seed):
    """Integer levels 0..n−1: with n − 1 = 4 every t is a stop, with
    n − 1 = 8 every odd level is a segment midpoint, where the channels of
    the first segment are exact halves before rounding (63.5, 41.5, 111.5)."""
    return np.random.default_rng(seed).integers(0, n, size=shape).astype(float)


_ORACLE_FIELDS = {
    "random-64x64": lambda: np.random.default_rng(0).normal(size=(64, 64)),
    "random-256x256": lambda: np.random.default_rng(1).uniform(-3.0, 5.0, size=(256, 256)),
    "stops-40x40": lambda: _levels((40, 40), 5, 2),
    "midpoints-40x40": lambda: _levels((40, 40), 9, 3),
    "fine-levels-33x33": lambda: _levels((33, 33), 4001, 4),
    "constant-8x8": lambda: np.full((8, 8), -2.5),
    "random-37x20": lambda: np.random.default_rng(5).normal(size=(37, 20)),
    "random-700x300": lambda: np.random.default_rng(6).normal(size=(700, 300)),
    "random-3x2": lambda: np.random.default_rng(7).normal(size=(3, 2)),
    # vmax − vmin overflows: t is NaN at the extremes and 0 elsewhere
    "overflowing-span-6x5": lambda: np.concatenate(
        [[1.7e308, -1.7e308], np.random.default_rng(8).normal(size=28)]).reshape(6, 5),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_ORACLE_FIELDS))
def test_heatmap_matches_per_cell_oracle(tmp_path, name):
    vals = _ORACLE_FIELDS[name]()
    geom = GridGeometry(vals.shape, (1.0, 1.0), (0.0, 0.0))
    f = GridField(geom, vals[None], "scalar")
    path = tmp_path / "h.svg"
    render_heatmap(f, str(path))
    assert path.read_bytes() == _heatmap_oracle(f)


def test_heatmap_midpoint_channels_round_half_to_even():
    # t = 0.125 sits halfway along the first segment: 68 − 4.5, 1 + 40.5 and
    # 84 + 27.5 round half to even
    assert _color(0.125) == "#402a70"


# sha256 of u.svg and F.svg that the per-cell writer made for the README
# config (64², seed 7)
README_CONFIG = """\
[grid]
cells = 64,64
extent = 1.0,1.0
origin = 0.0,0.0

[system]
p = 2.0

[data]
u = profile:sinsin
F = manufactured
seed = 7

[verify]
theorems = telescoping-means, pointwise-wulff, hardy-i
samples = 8

[verify.hardy-i]
samples = 25

[output]
dir = out
json = report.json
csv = report.csv
heatmaps = u,F
"""
_README_SVG_DIGESTS = {
    "u.svg": "349d3cbe332a3554ad5ca45a745ff94b327929ae1343e7f291f7b6faa7c13ec8",
    "F.svg": "170210b36647e1276e230a79c40557e939f1d6b6077e074963ebc1621cca1562",
}


def test_readme_config_heatmaps_keep_their_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path / "readme.ini", README_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    for name, digest in _README_SVG_DIGESTS.items():
        assert hashlib.sha256(read_bytes(out, name)).hexdigest() == digest


def test_heatmap_rejects_vector_fields(tmp_path):
    geom = GridGeometry((8, 8), (1.0, 1.0), (0.0, 0.0))
    f = GridField(geom, np.zeros((2, 8, 8)), "vector", codomain=2)
    with pytest.raises(ConfigError):
        render_heatmap(f, str(tmp_path / "v.svg"))


def test_heatmap_rejects_3d_fields(tmp_path):
    geom = GridGeometry((8, 8, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError, match="2-D grid"):
        render_heatmap(GridField.constant(geom, 1.0), str(tmp_path / "c.svg"))


# ---------------------------------------------------------------------------
# plumbing


def test_threads_resolution(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("WULFF_LAB_THREADS", "3")
    assert _threads(2) == 2
    monkeypatch.delenv("WULFF_LAB_THREADS")
    assert _threads(None) == 1
    monkeypatch.setenv("WULFF_LAB_THREADS", "3")
    assert _threads(None) == 3
    monkeypatch.setenv("WULFF_LAB_THREADS", "")
    assert _threads(None) == 1
    monkeypatch.setenv("WULFF_LAB_THREADS", "abc")
    with pytest.raises(ConfigError, match="WULFF_LAB_THREADS"):
        _threads(None)
    cfg = write_config(tmp_path / "job.ini", RUN_CONFIG)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "WULFF_LAB_THREADS" in capsys.readouterr().err


def test_profile_vocabulary():
    geom = GridGeometry((8, 8), (1.0, 1.0), (0.0, 0.0))
    aff = _profile_field(geom, "profile:affine:a1=2,a2=-1,c=0.5")
    # evaluate at a cell center: value_at is piecewise constant
    xc = (2 + 0.5) / 8, (6 + 0.5) / 8
    got = float(value_at(aff, xc)[0])
    assert got == pytest.approx(2 * xc[0] - 1 * xc[1] + 0.5, abs=1e-12)
    zero = _profile_field(geom, "profile:zero")
    assert float(np.abs(zero.values).max()) == 0.0
    with pytest.raises(ConfigError):
        _profile_field(geom, "profile:perlin")
    with pytest.raises(ConfigError):
        _profile_field(geom, "profile:power:expo")


def test_young_spec_parsing():
    a, b = _young_from_spec("power,2"), _young_from_spec("power, 2")
    assert (a.tag, a.sigma) == (b.tag, b.sigma) == ("power", 2.0)
    assert _young_from_spec("zygmund,2,1")(1.0) > 0
    assert _young_from_spec("dexp")(1.0) > 0
    with pytest.raises(ConfigError):
        _young_from_spec("power")
    with pytest.raises(ConfigError):
        _young_from_spec("gauss,2")
