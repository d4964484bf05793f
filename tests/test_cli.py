import ast
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import constant_field

from wulff_lab.cli import (
    _COLOR_STOPS,
    _atomic_write,
    _number,
    _profile_field,
    THEOREMS,
    _space_norm,
    _young_from_spec,
    main,
    parse_config,
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
from wulff_lab.function_spaces import (
    LorentzParams,
    YoungFunction,
    lorentz_zygmund_norm,
)
from wulff_lab.inequality_lab import FAMILY_VERSION, _threads
from wulff_lab.potential_engine import havin_mazya_map, riesz_map


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
    # only the telescope draws random_field samples
    assert payload["family_version"] == FAMILY_VERSION
    assert {r["theorem"]: r.get("family_version") for r in payload["reports"]} == {
        "telescoping-means": FAMILY_VERSION, "hardy-i": None
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


def test_run_without_seeded_fields_has_no_family_version(tmp_path, capsys):
    body = RUN_CONFIG.replace("telescoping-means, hardy-i", "hardy-i")
    cfg = write_config(tmp_path / "job.ini", body)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0
    assert b"family_version" not in read_bytes(tmp_path / "o", "report.json")


def test_run_verification_failure_exits_2(tmp_path, capsys):
    body = RUN_CONFIG.replace("samples = 4", "samples = 2\nallowance = -0.999")
    cfg = write_config(tmp_path / "fail.ini", body)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    out = capsys.readouterr().out
    assert "FAIL  telescoping-means" in out


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    # a misspelt key: the default tol would run in its place
    ("[output]", "[solver]\ntolerance = 1e-30\n\n[output]",
     "error: unknown key 'tolerance' in [solver]"),
    # a misspelt theorem section: its 'samples' would never be read
    ("[verify.hardy-i]", "[verify.hardy-1]", "error: unknown section [verify.hardy-1]"),
    # 'heatmap' for 'heatmaps': no SVG would be written
    ("heatmaps = u,F", "heatmap = u", "error: unknown key 'heatmap' in [output]"),
    # [DEFAULT] keys reach every section
    ("[grid]", "[DEFAULT]\nsamples = 3\n\n[grid]", "error: unknown section [DEFAULT]"),
    ("[grid]", "[grids]\ncells = 8,8\n\n[grid]", "error: unknown section [grids]"),
    # a theorem id is a section only under [verify.<id>]
    ("[verify.hardy-i]", "[hardy-i]", "error: unknown section [hardy-i]"),
], ids=["solver-key", "verify-section", "output-key", "default-section",
        "unknown-section", "bare-theorem-section"])
def test_run_rejects_config_typos(tmp_path, capsys, old, new, message):
    cfg = write_config(tmp_path / "typo.ini", RUN_CONFIG.replace(old, new))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("old, new, message", [
    # a misspelt option: hardy-i would run its default 100 samples
    ("[verify.hardy-i]\n", "[verify.hardy-i]\nsampels = 3\n",
     "error: unknown option 'sampels' in [verify.hardy-i]"),
    # an option of another theorem: telescoping-means reads no alpha
    ("[verify.telescoping-means]\n", "[verify.telescoping-means]\nalpha = 0.5\n",
     "error: unknown option 'alpha' in [verify.telescoping-means]"),
    # a shared option that neither selected theorem reads
    ("theorems = telescoping-means, hardy-i\n",
     "theorems = telescoping-means, hardy-i\nr_ball = 0.1\n",
     "error: option 'r_ball' in [verify] is read by none of the selected theorems"),
], ids=["misspelt", "other-theorem", "shared-unread"])
def test_run_rejects_unread_theorem_options(tmp_path, capsys, old, new, message):
    cfg = write_config(tmp_path / "typo.ini", RUN_CONFIG.replace(old, new))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == "" and not out.exists()


def test_shared_option_needs_one_selected_reader(tmp_path):
    # 'allowance' is read by telescoping-means only, 'points' by no theorem here
    body = RUN_CONFIG.replace("theorems = telescoping-means, hardy-i\n",
                              "theorems = telescoping-means, hardy-i\nallowance = 0.2\n")
    cfg = parse_config(write_config(tmp_path / "ok.ini", body))
    assert dict(cfg.theorems)["telescoping-means"]["allowance"] == 0.2
    with pytest.raises(ConfigError, match="'points' in \\[verify\\]"):
        parse_config(write_config(tmp_path / "bad.ini",
                                  body.replace("allowance = 0.2", "points = 0.5,0.5")))


# config text for every theorem option that differs from each of its defaults
# on the 48x48 unit grid of RUN_CONFIG
_NON_DEFAULT = {
    "x": "0.3,0.6", "points": "0.4,0.4; 0.6,0.5", "samples": "7", "r_outer": "0.3",
    "r_inner": "0.08", "allowance": "0.2", "r_ball": "0.2",
    "q": "3.5", "alpha": "-0.75", "k": "3", "s": "2.5",
    "sigma": "1.25", "rho": "3", "young_a": "power,3", "young_b": "zygmund,2,1",
    "t0": "0.5", "beta": "0.25", "cells": "40",
}


def _plain(value):
    """A comparable copy of a verifier argument: functions (closures made per
    call) compare equal, Young functions by their exponents."""
    if isinstance(value, YoungFunction):
        return ("young", value.tag, value.sigma, value.logexp)
    if callable(value):
        return "<function>"
    if isinstance(value, (list, tuple, range)):
        return (type(value).__name__, *map(_plain, value))
    if isinstance(value, dict):
        return sorted((k, _plain(v)) for k, v in value.items())
    return value


@pytest.mark.parametrize("name", list(THEOREMS))
def test_theorem_options_are_the_keys_its_runner_reads(tmp_path, monkeypatch, name):
    # the verifiers, the pointwise pass and the norm-map checks and pass are
    # stubbed out and record their arguments: each declared option, set away
    # from its default, must change what one of them receives
    import wulff_lab.cli as cli

    calls = []

    def stub(label):
        def record(*args, **kwargs):
            calls.append((label, _plain(args), _plain(kwargs)))
            # the norm-map pass gives one record list per part
            return [[] for _ in args[0]] if label == "potential_norm_terms" else []
        return record

    for attr in dir(cli.iq):
        if attr.startswith(("verify_", "potential_norm_")) or attr == "pointwise_terms":
            monkeypatch.setattr(cli.iq, attr, stub(attr))
    monkeypatch.setattr(cli.RunConfig, "pair", lambda self: ("u", "F"))
    monkeypatch.setattr(cli.RunConfig, "gated_pair", lambda self: "pair")
    cfg = parse_config(write_config(tmp_path / "job.ini", RUN_CONFIG))

    _, runner, options = THEOREMS[name]

    def verifier_calls(given):
        calls.clear()
        runner(cfg, 0, 1, **cli._options(options, given, cfg.geometry))
        return list(calls)

    default = verifier_calls({})
    assert default
    for key in THEOREMS[name][2]:
        assert verifier_calls({key: _NON_DEFAULT[key]}) != default, key


def test_cli_reads_no_private_name_of_inequality_lab():
    # a battery draws, runs and merges its samples inside inequality_lab; of
    # its private names the command line reads only _threads, for --threads
    import wulff_lab.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text())
    private = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "iq" and node.attr.startswith("_")}
    private |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "inequality_lab"
                for alias in node.names if alias.name.startswith("_")}
    assert private <= {"_threads"}, private


# admissible options per theorem for the real verifiers on a 32x32 grid at p = 1.5
_REAL_BASE = {
    "telescoping-means": {"samples": "2"},
    "pointwise-wulff": {"points": "0.5,0.5"},
    "pointwise-oscillation": {"points": "0.5,0.5"},
    # at q = 1 Fubini makes every hardy-i ratio 1 whatever alpha is
    "hardy-i": {"q": "2", "samples": "3"},
    "hardy-ii-far": {"samples": "3"},
    "hardy-ii-near": {"samples": "3"},
    "wulff-riesz-domination": {"samples": "2"},
    "potential-norms-A-i": {"sigma": "1.5", "samples": "2"},
    "potential-norms-A-iii": {"rho": "3", "samples": "2"},
    "potential-norms-A-iv": {"rho": "0.5", "samples": "2"},
    "potential-norms-B": {"samples": "2"},
    "regularity-holder": {"q": "8", "cells": "128"},
    "regularity-bmo": {"cells": "128"},
    "regularity-lipschitz": {"cells": "128"},
    "regularity-lorentz": {"q": "1.2", "cells": "128"},
}
# a second admissible value of each option, replaced per theorem by
# _REAL_SECOND_FOR where it is out of range
_REAL_SECOND = {
    "x": "0.4,0.6", "points": "0.4,0.5", "samples": "4", "r_outer": "0.3",
    "r_inner": "0.1", "allowance": "0.2", "r_ball": "0.2",
    "q": "2", "alpha": "0.4", "k": "3", "s": "2.5",
    "sigma": "1.25", "rho": "3", "young_a": "power,1.25", "young_b": "power,4",
    "t0": "0.5", "beta": "0.2", "cells": "136",
}
_REAL_SECOND_FOR = {
    "hardy-i": {"q": "3"},
    "hardy-ii-far": {"q": "0.6", "alpha": "-4"},
    "hardy-ii-near": {"q": "0.6", "alpha": "-2.5"},
    "potential-norms-A-iii": {"rho": "4"},
    "potential-norms-A-iv": {"rho": "0.6"},
    "regularity-holder": {"q": "10"},
    "regularity-lorentz": {"q": "1.3"},
}


def _same_check(a, b):
    """Whether two outcomes, each a report or the name of the error raised,
    check the same thing: sample labels, ratios and C* (rtol 1e-9), pass flag
    and notes.  lhs and rhs alone are left out, since a change of units moves
    them and not the check."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return ([s.label for s in a.samples] == [s.label for s in b.samples]
            and (a.passed, a.notes) == (b.passed, b.notes)
            and np.allclose([s.ratio for s in a.samples] + [a.c_star],
                            [s.ratio for s in b.samples] + [b.c_star],
                            rtol=1e-9, atol=0.0))


def _near_solution_config(tmp_path, extra=""):
    """A config for sin·sin on 32x32 at p = 1.5 with its manufactured datum
    scaled by 1 + 1e-6 (weak residual 2.77e-7), plus the text ``extra``."""
    from wulff_lab.plaplace_solver import manufacture

    geom = GridGeometry((32, 32), (1.0, 1.0), (0.0, 0.0))
    F = manufacture(_profile_field(geom, "profile:sinsin"), 1.5)
    write_field(GridField(geom, F.values * (1 + 1e-6), F.kind, codomain=F.codomain),
                str(tmp_path / "F.wlf"))
    return write_config(tmp_path / "job.ini", """\
[grid]
cells = 32,32

[system]
p = 1.5

[data]
u = profile:sinsin
F = F.wlf
""" + extra)


@pytest.mark.parametrize("name", list(THEOREMS))
def test_every_theorem_option_changes_the_report(tmp_path, name):
    # the real verifiers: each declared option, moved to a second admissible
    # value, must change what is checked (sample labels, ratios, C*, notes or
    # pass flag) or whether the theorem raises; an option that only reaches
    # 'params', or only rescales both sides, is one the user could set
    # without changing what was checked
    import wulff_lab.cli as cli
    from wulff_lab.errors import WulffLabError

    cfg = parse_config(_near_solution_config(tmp_path))
    _, runner, options = THEOREMS[name]

    def outcome(given):
        try:
            return runner(cfg, 0, 1, **cli._options(options, given, cfg.geometry))
        except WulffLabError as exc:
            return type(exc).__name__

    base = _REAL_BASE.get(name, {})
    default = outcome(base)
    assert not isinstance(default, str), default
    seconds = {**_REAL_SECOND, **_REAL_SECOND_FOR.get(name, {})}
    unchanged = [key for key in THEOREMS[name][2]
                 if _same_check(outcome({**base, key: seconds[key]}), default)]
    assert unchanged == []


def test_data_residual_tol_gates_the_pair(tmp_path, capsys):
    # the 2.77e-7 pair passes the default residual_tol 1e-5 above and fails
    # 1e-7, in the first pair theorem and before any report is written
    cfg = _near_solution_config(tmp_path, "residual_tol = 1e-7\n\n[verify]\n"
                                "theorems = hardy-i, oscillation-decay, pointwise-wulff\n")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: [oscillation-decay] pair has weak residual 2.772e-07 "
                            "> tolerance 1.0e-07; refusing to verify estimates against a "
                            "non-solution\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", ["0", "-1e-5", "nan"])
def test_residual_tol_must_be_positive(tmp_path, capsys, value):
    # rejected when the config is read: a nan tolerance would pass every pair
    body = RUN_CONFIG.replace("seed = 5", f"seed = 5\nresidual_tol = {value}")
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path / "job.ini", body), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [data] residual_tol must be > 0, got {float(value)}\n"
    assert captured.out == "" and not out.exists()


def test_settable_values_are_counted():
    # theorem options, section keys and command-line flags are the values a
    # user can set; a new one has to change this count
    import argparse

    from wulff_lab.cli import SECTIONS, _build_parser

    options = sum(len(opts) for _, _, opts in THEOREMS.values())
    keys = sum(len(section) for section in SECTIONS.values())
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = sum(1 for p in [parser, *sub.choices.values()] for a in p._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction))
    assert (options, keys, flags) == (54, 17, 12)
    assert options + keys + flags == 83


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_option_table():
    """{theorem id: [(option, default text or None for 'unset')]} from the
    options table of the README's run section."""
    lines = README.read_text().splitlines()
    start = lines.index("| theorems | options = defaults |") + 2
    table = {}
    for line in itertools.takewhile(lambda ln: ln.startswith("|"), lines[start:]):
        ids, options = line.strip("|").split("|")
        declared = [(key, text or None) for key, _, text in
                    re.findall(r"`(\w+)` = (`([^`]*)`|unset)", options)]
        for name in re.findall(r"`([\w-]+)`", ids):
            assert name not in table, name
            table[name] = declared
    return table


def _lattice_oracle(geom):
    def lattice(*fracs):
        points = [()]
        for o, e in zip(geom.origin, geom.extent):
            points = [pt + (o + t * e,) for pt in points for t in fracs]
        return points
    return lattice


@pytest.mark.parametrize("geom", [
    GridGeometry((48, 32), (1.5, 0.8), (0.1, -0.2)),
    GridGeometry((8, 8, 4), (1.0, 1.0, 0.5), (0.0, 0.0, 0.0)),
], ids=["2d", "3d"])
def test_readme_option_table_matches_the_declarations(geom):
    table = _readme_option_table()
    assert set(table) == set(THEOREMS)
    names = {"center": geom.center, "extent": geom.extent, "spacing": geom.spacing,
             "cells": geom.cells, "lattice": _lattice_oracle(geom), "min": min,
             "max": max}
    for name, (_, _, options) in THEOREMS.items():
        assert [key for key, _ in table[name]] == list(options), name
        got = {}
        for key, text in table[name]:
            _, default = options[key]
            if callable(default):
                formula = eval(text, {"__builtins__": {}}, {**names, **got})
                got[key] = default(geom, got)
                assert formula == got[key], (name, key)
            else:
                assert text == default, (name, key)


def test_readme_section_keys_match_the_declarations():
    from wulff_lab.cli import SECTIONS

    text = " ".join(README.read_text().split())
    listing = text.split("raised before any work: ", 1)[1].split(". ", 1)[0]
    table = {}
    for part in listing.split(";"):
        section, *keys = re.findall(r"`\[?([\w.]+)\]?`", part)
        table[section] = keys
    assert table == {name: list(keys) for name, keys in SECTIONS.items()}


def test_config_keys_are_case_insensitive(tmp_path, capsys):
    # configparser folds key case, so 'f' and 'TOL' name the known keys
    body = RUN_CONFIG.replace("F = manufactured", "f = manufactured").replace(
        "[output]", "[solver]\nTOL = 1e-8\n\n[output]")
    cfg = write_config(tmp_path / "case.ini", body)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


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


def test_malformed_option_of_the_last_theorem_stops_the_run_before_any_verifier(
        tmp_path, monkeypatch, capsys):
    # every theorem option is parsed as the config loads: a bad value in the
    # last selected theorem ends the run before the first one runs, and
    # solve, which loads the same config, rejects it too
    import wulff_lab.cli as cli

    ran = []
    monkeypatch.setattr(cli.iq, "verify_telescope", lambda *a, **k: ran.append(a))
    body = RUN_CONFIG.replace("samples = 6", "samples = abc")
    cfg = write_config(tmp_path / "bad.ini", body)
    message = "error: [hardy-i] option 'samples' must be an integer, got 'abc'\n"
    for command in ("run", "solve"):
        out = tmp_path / command
        assert main([command, cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == "" and not out.exists()
    assert ran == []


_RADIUS_READERS = [(name, key) for name, (_, _, options) in THEOREMS.items()
                   for key in ("r_ball", "r_outer", "r_inner") if key in options]


@pytest.mark.parametrize("value", ["0", "-0.1", "nan", "inf"])
@pytest.mark.parametrize("name, key", _RADIUS_READERS,
                         ids=[f"{n}-{k}" for n, k in _RADIUS_READERS])
def test_radius_options_must_be_positive_and_finite(tmp_path, capsys, name, key, value):
    # an infinite radius would never end a dyadic loop; 0 and nan are no ball
    cfg = write_config(tmp_path / "bad.ini", f"""\
[grid]
cells = 16,16

[data]
u = profile:sinsin

[verify]
theorems = {name}

[verify.{name}]
{key} = {value}
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: [{name}] option {key!r} must be a positive finite "
                            f"number, got {value!r}\n")
    assert captured.out == "" and not out.exists()


# every float option of every theorem: a bare float parser would take nan
_FLOAT_OPTIONS = [(name, key) for name, (_, _, options) in THEOREMS.items()
                  for key, (parse, _) in options.items() if parse in (float, _number)]


@pytest.mark.parametrize("name, key", _FLOAT_OPTIONS,
                         ids=[f"{n}-{k}" for n, k in _FLOAT_OPTIONS])
def test_float_options_reject_nan(tmp_path, capsys, name, key):
    # a nan option used to run and report FAIL with C* = inf, or a wrong reason
    cfg = write_config(tmp_path / "bad.ini", f"""\
[grid]
cells = 16,16

[data]
u = profile:sinsin

[verify]
theorems = {name}

[verify.{name}]
{key} = nan
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [{name}] option {key!r} must be a number, got 'nan'\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("key, value", [("origin", "nan,0.0"), ("extent", "inf,1.0"),
                                        ("cells", "inf,16")])
def test_grid_must_be_finite(tmp_path, capsys, key, value):
    # a nan origin used to solve and write a u.wlf whose header said origin=nan,
    # and an infinite cell count ended in an OverflowError traceback
    grid = "\n".join(f"{k} = {v}" for k, v in {"cells": "16,16", key: value}.items())
    cfg = write_config(tmp_path / "bad.ini", f"""\
[grid]
{grid}

[data]
u = profile:zero
F = manufactured
""")
    for command in ("run", "solve"):
        out = tmp_path / command
        assert main([command, cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: bad [grid] section: expected a comma-separated "
                                f"list of finite numbers, got {value!r}\n")
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("name, key, value", [
    ("telescoping-means", "x", "nan,0.5"),
    ("energy-caccioppoli", "x", "0.5,inf"),
    ("pointwise-wulff", "points", "0.5,0.5; 0.4,nan"),
])
def test_points_must_be_finite(tmp_path, capsys, monkeypatch, name, key, value):
    # a non-finite point is a config error at load, before any theorem runs
    import wulff_lab.cli as cli

    ran = []
    monkeypatch.setattr(cli.iq, "verify_hardy", lambda *a, **k: ran.append(a))
    cfg = write_config(tmp_path / "bad.ini", f"""\
[grid]
cells = 16,16

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = hardy-i, {name}

[verify.{name}]
{key} = {value}
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: [{name}] expected a comma-separated list of "
                            f"finite numbers, got {value.split(';')[-1]!r}\n")
    assert captured.out == "" and not out.exists() and ran == []


@pytest.mark.parametrize("name", ["oscillation-decay", "energy-caccioppoli"])
def test_point_of_the_wrong_dimension_is_an_error(tmp_path, capsys, name):
    # energy-caccioppoli used to end in a numpy broadcast traceback here
    cfg = write_config(tmp_path / "bad.ini", f"""\
[grid]
cells = 16,16

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = {name}

[verify.{name}]
x = 0.5,0.5,0.5
""")
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: [{name}] point (0.5, 0.5, 0.5) has 3 coordinates "
                            "on a 2-d grid\n")
    assert captured.out == "" and not out.exists()


def test_run_bad_profile_option_value(tmp_path, capsys):
    body = RUN_CONFIG.replace("profile:sinsin", "profile:power:expo=abc")
    cfg = write_config(tmp_path / "bad.ini", body)
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "expo=abc" in capsys.readouterr().err


def test_bad_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "job.ini", RUN_CONFIG)
    assert main(["run", cfg, "--seed", "-1"]) == 1
    assert "u64" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "18446744073709551616"])
@pytest.mark.parametrize("where", ["key", "flag"])
def test_seed_must_fit_in_u64(tmp_path, capsys, where, value):
    # the [data] seed key and the --seed flag share one check, before any work
    body = RUN_CONFIG.replace("seed = 5", f"seed = {value}" if where == "key" else "")
    argv = ["run", write_config(tmp_path / "job.ini", body), "--out", str(tmp_path / "o")]
    if where == "flag":
        argv += ["--seed", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    name = "seed" if where == "key" else "--seed"
    assert captured.err == (f"error: option {name!r} must be an integer that fits "
                            f"in u64, got {value!r}\n")
    assert captured.out == "" and not (tmp_path / "o").exists()


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


# the theorems whose verifier needs a value that no default sets
_NEEDS_A_VALUE = {"potential-norms-A-i": "sigma", "regularity-holder": "q",
                  "regularity-lorentz": "q"}


def test_every_theorem_runs_on_its_defaults(tmp_path, capsys):
    # no theorem option but samples set: each default lies in its theorem's
    # case (hardy-ii-*), its part (A-iv: rho = 1/(s-1)) or its balance (B)
    def run(names):
        cfg = write_config(tmp_path / "defaults.ini", f"""\
[grid]
cells = 128,128

[system]
p = 1.5

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = {", ".join(names)}
{"samples = 3" if any("samples" in THEOREMS[n][2] for n in names) else ""}
""")
        return main(["run", cfg, "--out", str(tmp_path / "o")])

    names = [name for name in THEOREMS if name not in _NEEDS_A_VALUE]
    assert run(names) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("pass  ")]
    assert [ln.split()[1] for ln in lines] == names
    for name, key in _NEEDS_A_VALUE.items():  # each one left out needs its value
        assert run([name]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{name}] ") and f"{key}" in err and "got None" in err


PAIR_CONFIG = """\
[grid]
cells = 32,32

[system]
p = 1.5

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = pointwise-wulff, pointwise-oscillation, oscillation-decay,
    energy-caccioppoli

[output]
heatmaps = u,F
"""
# the outputs of PAIR_CONFIG when every pair theorem built its own pair
_PAIR_DIGESTS = {
    "report.json": "44b309d21910fa314e8db8b255f470e8da3a60371958399c46a85d1c5c3f8960",
    "report.csv": "37a30449fa07220cd546433d8daee773345eca807ac8e1867b6898ed22f294b8",
    "u.svg": "dd685379c48e0a20f61b1b4dc4a2e6881294fa3b20718dd50ea35b29a0290122",
    "F.svg": "daca813d2dfd563be213446e8411cdc8cf18631b658db5b69d660a67804f5137",
}


def test_run_builds_the_pair_once(tmp_path, monkeypatch, capsys):
    import wulff_lab.cli as cli

    calls = []
    real = cli.manufacture
    monkeypatch.setattr(cli, "manufacture", lambda *a: calls.append(a) or real(*a))
    cfg = write_config(tmp_path / "pair.ini", PAIR_CONFIG)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    for name, digest in _PAIR_DIGESTS.items():
        assert hashlib.sha256(read_bytes(out, name)).hexdigest() == digest, name


def test_run_gates_the_pair_once(tmp_path, monkeypatch, capsys):
    # the four pair theorems share one gated pair: one weak residual per run
    import wulff_lab.cli as cli

    calls = []
    real = cli.iq.weak_residual
    monkeypatch.setattr(cli.iq, "weak_residual", lambda *a: calls.append(a) or real(*a))
    cfg = write_config(tmp_path / "pair.ini", PAIR_CONFIG)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    for name, digest in _PAIR_DIGESTS.items():
        assert hashlib.sha256(read_bytes(out, name)).hexdigest() == digest, name


# a run shaped like the benchmark's balls workload (both pointwise theorems on
# one point set, oscillation decay, Caccioppoli, a BMO scan, heatmaps) at 64²
POINTS_CONFIG = """\
[grid]
cells = 64,64

[system]
p = 1.5

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = pointwise-wulff, pointwise-oscillation, oscillation-decay,
    energy-caccioppoli, regularity-bmo
points = {points}

[verify.regularity-bmo]
cells = 64

[output]
heatmaps = u,F
""".format(points="; ".join(f"{0.3 + 0.1 * i + 0.004 * j!r},{0.32 + 0.09 * j - 0.003 * i!r}"
                            for i in range(5) for j in range(5)))
# the outputs of POINTS_CONFIG when each pointwise theorem made its own pass
_POINTS_DIGESTS = {
    "report.json": "788a24f1d1e26aac999ac6e6ac9ec7952a3b26f4850d8d47e633871b4cd58a5a",
    "report.csv": "2da2bf5fa344da9a6465aa545a400a01cfd6284000a9314ed90f7cd0a57ae53a",
    "u.svg": "349d3cbe332a3554ad5ca45a745ff94b327929ae1343e7f291f7b6faa7c13ec8",
    "F.svg": "03d46719a0c3a0a66616cbf4c6f3ec19f7767b9b90fe69d95cdd8bba97ebb11a",
}


def test_both_pointwise_theorems_share_one_pass(tmp_path, monkeypatch, capsys):
    import wulff_lab.cli as cli

    passes, sweeps = [], []
    real_pass, real_osc = cli.iq.pointwise_terms, cli.iq.oscillation_potential
    monkeypatch.setattr(cli.iq, "pointwise_terms",
                        lambda *a, **k: passes.append(k) or real_pass(*a, **k))
    monkeypatch.setattr(cli.iq, "oscillation_potential",
                        lambda *a: sweeps.append(a) or real_osc(*a))
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path / "balls.ini", POINTS_CONFIG),
                 "--out", str(out)]) == 0
    assert passes == [{"oscillation": True}] and len(sweeps) == 25
    for name, digest in _POINTS_DIGESTS.items():
        assert hashlib.sha256(read_bytes(out, name)).hexdigest() == digest, name


def test_pointwise_wulff_alone_makes_no_oscillation_sweep(tmp_path, monkeypatch, capsys):
    from wulff_lab.field_grid import NestedBalls

    sweeps = []
    real = NestedBalls.oscillations
    monkeypatch.setattr(NestedBalls, "oscillations",
                        lambda self, *a: sweeps.append(a) or real(self, *a))
    body = POINTS_CONFIG.replace("pointwise-oscillation, oscillation-decay,\n"
                                "    energy-caccioppoli, regularity-bmo", "")
    assert "theorems = pointwise-wulff, \n" in body
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path / "w.ini", body), "--out", str(out)]) == 0
    assert "pass  pointwise-wulff" in capsys.readouterr().out
    assert sweeps == []


def test_heatmaps_and_solve_take_a_pair_that_is_not_a_solution(tmp_path, capsys):
    # F = 0 does not solve the system for u = sin·sin: only a pair theorem
    # gates the pair, heatmaps and solve read it as it is
    geom = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))
    write_field(GridField(geom, np.zeros((2, 16, 16)), "matrix", codomain=1),
                str(tmp_path / "F.wlf"))
    body = """\
[grid]
cells = 16,16

[data]
u = profile:sinsin
F = F.wlf

[output]
heatmaps = u,F
"""
    cfg = write_config(tmp_path / "job.ini", body)
    assert main(["run", cfg, "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "F.svg").exists()
    assert main(["solve", cfg, "--out", str(tmp_path / "solve")]) == 0
    assert (tmp_path / "solve" / "u.wlf").exists()
    capsys.readouterr()
    gated = write_config(tmp_path / "gated.ini",
                         body + "\n[verify]\ntheorems = pointwise-wulff\n")
    assert main(["run", gated, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [pointwise-wulff] pair has weak residual")


def test_run_reads_the_pair_only_for_a_pair_theorem(tmp_path, capsys):
    # u.wlf is on a 16x16 grid, the run on 32x32
    field_file(tmp_path, lambda x, y: x * y, cells=16, name="u.wlf")
    body = PAIR_CONFIG.replace("profile:sinsin", "u.wlf").replace(
        "theorems = pointwise-wulff", "theorems = hardy-i, pointwise-wulff")
    pair_free = body.replace(", pointwise-wulff, pointwise-oscillation, oscillation-decay,"
                             "\n    energy-caccioppoli", "")
    mismatch = "[data] u geometry does not match the [grid] section"
    for name, text, err in [
        ("pair.ini", body.replace("heatmaps = u,F", ""), f"[pointwise-wulff] {mismatch}"),
        ("heatmaps.ini", pair_free, mismatch),
    ]:
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path / name, text), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {err}"), name
        assert captured.out == "" and not out.exists()
    # with no pair theorem and no heatmap, [data] is never read
    cfg = write_config(tmp_path / "nopair.ini", pair_free.replace("heatmaps = u,F", ""))
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("theorem", ["pointwise-wulff", "pointwise-oscillation"])
def test_pointwise_default_points_on_a_3d_grid(tmp_path, capsys, theorem):
    # the default 3^n lattice reaches the verifier, whose gate is 2-D only
    geom = GridGeometry((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    write_field(GridField.from_function(geom, lambda x, y, z: x * y * z),
                str(tmp_path / "u.wlf"))
    write_field(GridField(geom, np.zeros((3, 8, 8, 8)), "matrix", codomain=1),
                str(tmp_path / "F.wlf"))
    body = f"""\
[grid]
cells = 8,8,8

[data]
u = u.wlf
F = F.wlf

[verify]
theorems = {theorem}
"""
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path / "cube.ini", body), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: [{theorem}] weak-form operators are implemented "
                            "for n = 2\n")
    assert captured.out == "" and not out.exists()


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


NORMS_CONFIG = """\
[grid]
cells = 32,32

[verify]
theorems = {theorems}
samples = 3

[verify.potential-norms-A-i]
sigma = 1.5

[verify.potential-norms-A-iii]
rho = 3
"""
_NORMS = ("potential-norms-A-i", "potential-norms-A-iii", "potential-norms-A-iv",
          "potential-norms-B")


def _selecting(body, names):
    return body.format(theorems=", ".join(names))


@pytest.fixture
def map_calls(monkeypatch):
    """The havin_mazya_map calls that inequality_lab makes, as a list."""
    import wulff_lab.cli as cli

    calls = []
    real = cli.iq.havin_mazya_map
    monkeypatch.setattr(cli.iq, "havin_mazya_map", lambda *a: calls.append(a) or real(*a))
    return calls


def _norm_run(tmp_path, body, names, map_calls):
    """The reports of a run of ``names`` in ``body`` and its count of V maps."""
    before = len(map_calls)
    out = tmp_path / "-".join(names)
    cfg = write_config(tmp_path / "norms.ini", _selecting(body, names))
    assert main(["run", cfg, "--out", str(out)]) == 0
    return json.loads(read_bytes(out, "report.json"))["reports"], len(map_calls) - before


def test_potential_norm_parts_share_one_pass(tmp_path, map_calls, capsys):
    # the four parts read one (alpha, s, samples): each datum and its V map
    # are made once, and each report is the one of the part run alone
    together, maps = _norm_run(tmp_path, NORMS_CONFIG, _NORMS, map_calls)
    assert maps == 3
    alone = [_norm_run(tmp_path, NORMS_CONFIG, [name], map_calls) for name in _NORMS]
    assert together == [reports[0] for reports, _ in alone]
    assert [count for _, count in alone] == [3, 3, 3, 3]


@pytest.mark.parametrize("key, value", [("alpha", "0.4"), ("s", "2.5"), ("samples", "2")])
def test_potential_norm_parts_with_another_key_do_not_share(tmp_path, map_calls, capsys,
                                                            key, value):
    body = NORMS_CONFIG + f"\n[verify.potential-norms-B]\n{key} = {value}\n"
    names = ("potential-norms-A-i", "potential-norms-B")
    together, maps = _norm_run(tmp_path, body, names, map_calls)
    alone = [_norm_run(tmp_path, body, [name], map_calls) for name in names]
    assert together == [reports[0] for reports, _ in alone]
    assert maps == sum(count for _, count in alone) == 3 + (2 if key == "samples" else 3)


@pytest.mark.parametrize("names", [
    ("potential-norms-B", "potential-norms-A-i"),
    ("potential-norms-A-i", "potential-norms-B"),
], ids=["B_first", "A-i_first"])
def test_a_part_that_fails_its_check_fails_at_its_own_turn(tmp_path, monkeypatch,
                                                           map_calls, capsys, names):
    # A-i needs sigma < n/(alpha*s) = 2; B shares its pass, and B's report is
    # made at B's turn all the same
    import wulff_lab.cli as cli

    made = []
    real = cli.iq.verify_potential_norm_maps
    monkeypatch.setattr(cli.iq, "verify_potential_norm_maps",
                        lambda part, *a: made.append(part.part) or real(part, *a))
    body = _selecting(NORMS_CONFIG.replace("sigma = 1.5", "sigma = 5"), names)
    out = tmp_path / "o"
    assert main(["run", write_config(tmp_path / "n.ini", body), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: [potential-norms-A-i] part A-i needs "
                            "1 < sigma < n/(alpha*s) = 2, got 5.0\n")
    assert not out.exists()
    # B ran first, or no datum was drawn
    assert (made, len(map_calls)) == ((["B"], 3) if names[0].endswith("B") else ([], 0))


def test_a_norm_that_fails_on_a_datum_fails_its_own_part(tmp_path, monkeypatch, capsys):
    # the pass runs at A-i's turn; B's failing norm is B's error, not A-i's
    import wulff_lab.cli as cli
    from wulff_lab.errors import SearchRangeExhausted

    def failing(f, A):
        raise SearchRangeExhausted("modular stayed above 1")

    monkeypatch.setattr(cli.iq, "luxemburg_norm", failing)
    body = _selecting(NORMS_CONFIG, ("potential-norms-A-i", "potential-norms-B"))
    assert main(["run", write_config(tmp_path / "n.ini", body),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == ("error: [potential-norms-B] modular stayed "
                                       "above 1\n")


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


@pytest.mark.parametrize("spec", ["power,nan", "exp,nan", "zygmund,2,nan",
                                  "zygmund,nan,1"])
def test_young_functions_reject_nan(tmp_path, capsys, spec):
    # a nan exponent once passed the q < 1 and beta <= 0 checks and gave a value
    _, path = field_file(tmp_path, lambda x, y: x)
    assert main(["norm", path, "--space", f"orlicz:{spec}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "nan" in captured.err
    assert captured.out == ""
    cfg = write_config(tmp_path / "b.ini", NORMS_B_CONFIG.replace(
        "young_a = power,1.5", f"young_a = {spec}"))
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [potential-norms-B] ") and "nan" in captured.err
    assert captured.out == "" and not out.exists()


def test_list_theorems_and_help(capsys):
    assert main(["--list-theorems"]) == 0
    out = capsys.readouterr().out
    for ident in ("telescoping-means", "pointwise-wulff", "hardy-ii-near",
                  "potential-norms-B", "regularity-lorentz"):
        assert ident in out
    assert main([]) == 1


@pytest.mark.parametrize("argv", [
    ["potential", "f.wlf", "--alpha", "abc"],
    ["run"],
    ["frobnicate"],
    # each subcommand takes only the flags it reads
    ["norm", "f.wlf", "--space", "L2", "--seed", "1"],
    ["norm", "f.wlf", "--space", "L2", "--out", "o"],
    ["norm", "f.wlf", "--space", "L2", "--threads", "2"],
    ["potential", "f.wlf", "--alpha", "0.5", "--seed", "1"],
    ["potential", "f.wlf", "--alpha", "0.5", "--threads", "2"],
    ["solve", "job.ini", "--threads", "2"],
    ["solve", "job.ini", "--seed", "1"],
    # and a potential flag that the chosen --kind does not read is an error too
    ["potential", "f.wlf", "--alpha", "0.5", "--kind", "riesz", "--radius", "0.01"],
    ["potential", "f.wlf", "--alpha", "0.5", "--kind", "havin-mazya", "--radius", "0.01"],
    ["potential", "f.wlf", "--alpha", "0.5", "--kind", "riesz", "--s", "7"],
], ids=["bad-number", "no-config", "unknown-command", "norm-seed", "norm-out",
        "norm-threads", "potential-seed", "potential-threads", "solve-threads",
        "solve-seed", "riesz-radius", "havin-mazya-radius", "riesz-s"])
def test_usage_errors_exit_1(capsys, argv):
    # exit 2 means a failed verification, so a usage error is a config error
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["norm", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_rejected(tmp_path, capsys, threads):
    cfg = write_config(tmp_path / "job.ini", RUN_CONFIG)
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: worker threads must be at least 1, got {threads}\n"
    assert captured.out == "" and not out.exists()


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
    assert "warm_start_iterations" not in summary
    assert (out / "u.svg").exists()


@pytest.mark.parametrize("option, name", [
    ("tol = 0", "tol"),
    ("max_iters = -5", "max_iters"),
], ids=["tol", "max_iters"])
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
    # the DST warm start uses no Hessian-vector products and has no key
    assert "warm_start_iterations" not in summary
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
                 "campanato:1,2,3", "lorentz:2,2,0,5", "campanato:0.5,3"):
        assert main(["norm", path, "--space", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    # a field file whose header declares a nonpositive extent
    bad = tmp_path / "neg.wlf"
    bad.write_bytes(Path(path).read_bytes().replace(b"extent=1.0,1.0",
                                                    b"extent=-1.0,1.0"))
    assert main(["norm", str(bad), "--space", "L2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "extent" in err


def _fresh_python(code, cwd=None):
    """stdout of ``code`` run in a new interpreter that imports the package
    from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


_SCIPY_LOADED = ("sorted({'.'.join(m.split('.')[:2]) for m in sys.modules"
                 " if m == 'scipy' or m.startswith('scipy.')})")


def test_cli_import_leaves_out_scipy():
    # scipy loads only inside the functions that call it: the Riesz maps
    # (scipy.fft) and adaptive quadrature (scipy.integrate)
    out = _fresh_python(f"import sys, wulff_lab.cli; print({_SCIPY_LOADED})")
    assert out.strip() == "[]"


BALLS_CONFIG = """\
[grid]
cells = 48,48

[system]
p = 1.5

[data]
u = profile:sinsin
F = manufactured

[verify]
theorems = pointwise-wulff, pointwise-oscillation, oscillation-decay,
    energy-caccioppoli, regularity-bmo

[verify.regularity-bmo]
cells = 48

[output]
heatmaps = u,F
"""


def _solve_config(p):
    return (SOLVE_CONFIG.replace("p = 2.0", f"p = {p}")
            .replace("tol = 1e-10", "tol = 1e-8"))


DOMINATION_CONFIG = """\
[grid]
cells = 32,32

[verify]
theorems = wulff-riesz-domination

[verify.wulff-riesz-domination]
samples = 3
"""


# expected: which of scipy.fft and scipy.integrate the call loads; an empty
# set means no scipy module at all.  Any other scipy module the call loads
# must come with these two (a root finder must not pull in scipy.optimize).
@pytest.mark.parametrize("config, argv, expected", [
    (BALLS_CONFIG, ["run", "job.ini", "--out", "o"], set()),
    (_solve_config(3.0), ["solve", "job.ini", "--out", "o"], set()),
    (_solve_config(2.0), ["solve", "job.ini", "--out", "o"], set()),
    (DOMINATION_CONFIG, ["run", "job.ini", "--out", "o"], {"scipy.fft"}),
    (None, ["potential", "f.wlf", "--kind", "riesz", "--alpha", "0.5"], {"scipy.fft"}),
    # (q, rho, beta) = (2, 2, 0.5) is the mixed case: steps by adaptive
    # quadrature; scipy.integrate itself imports scipy.fft
    (None, ["norm", "f.wlf", "--space", "lorentz:2,2,0.5"],
     {"scipy.fft", "scipy.integrate"}),
    (None, ["norm", "f.wlf", "--space", "orlicz:power,1.5"], set()),
], ids=["run-balls", "solve-p3", "solve-p2", "run-domination", "potential-riesz",
        "norm-lorentz-mixed", "norm-orlicz"])
def test_commands_load_only_the_scipy_they_run(tmp_path, config, argv, expected):
    if config is None:
        field_file(tmp_path, lambda x, y: 1.0 + np.sin(np.pi * x) * y, cells=24)
    else:
        write_config(tmp_path / "job.ini", config)
    out = _fresh_python(
        "import json, sys, wulff_lab.cli as c\n"
        f"rc = c.main({argv!r})\n"
        f"print(json.dumps([rc, {_SCIPY_LOADED}]))",
        cwd=tmp_path,
    )
    rc, mods = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert set(mods) & {"scipy.fft", "scipy.integrate"} == expected, mods
    imported = _fresh_python(
        "import sys\n" + "".join(f"import {m}\n" for m in sorted(expected))
        + f"print({_SCIPY_LOADED})")
    assert set(mods) <= set(ast.literal_eval(imported.strip())), mods


_FIRST_CALLS = """\
import hashlib, sys, threading
import numpy as np
from wulff_lab.field_grid import GridField, GridGeometry
from wulff_lab.function_spaces import (
    LorentzParams,
    YoungFunction,
    lorentz_zygmund_norm,
)
from wulff_lab.potential_engine import havin_mazya_map

assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
geom = GridGeometry((48, 40), (1.0, 0.8), (0.0, 0.0))
f = GridField(geom, np.random.default_rng(4).uniform(0.0, 1.0, size=geom.cells))
calls = {
    "map": lambda: hashlib.sha256(havin_mazya_map(f, 0.5, 3.0).values.tobytes()).hexdigest(),
    "norm": lambda: repr(lorentz_zygmund_norm(f, LorentzParams(2.0, 2.0, 0.5))),
}
barrier = threading.Barrier(len(calls))
out = {}

def first_call(key):
    barrier.wait(timeout=60)
    try:
        out[key] = calls[key]()
    except Exception as exc:
        out[key] = f"{type(exc).__name__}: {exc}"

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_call, args=(k,)) for k in calls]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
print(out["map"], out["norm"])
"""


def test_first_scipy_imports_from_two_threads():
    # both threads import scipy for the first time at once: the Riesz map
    # (scipy.fft, under the kernel lock) and a mixed-case Lorentz-Zygmund
    # norm (scipy.integrate, through adaptive quadrature)
    geom = GridGeometry((48, 40), (1.0, 0.8), (0.0, 0.0))
    f = GridField(geom, np.random.default_rng(4).uniform(0.0, 1.0, size=geom.cells))
    serial = "{} {!r}".format(
        hashlib.sha256(havin_mazya_map(f, 0.5, 3.0).values.tobytes()).hexdigest(),
        lorentz_zygmund_norm(f, LorentzParams(2.0, 2.0, 0.5)),
    )
    for _ in range(4):
        assert _fresh_python(_FIRST_CALLS).strip() == serial


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
    # a campanato scan with beta >= 0 runs at q = 1, so another q is an error;
    # with beta < 0 every q >= 1 is read
    for spec in ("campanato:0.5,3", "campanato:0,2", "campanato:1,1.5"):
        with pytest.raises(ConfigError, match="bad space spec.*reads no q"):
            _space_norm(f, spec)
    assert _space_norm(f, "campanato:0.5,1") == _space_norm(f, "campanato:0.5")
    assert _space_norm(f, "campanato:-0.5,3") != _space_norm(f, "campanato:-0.5")


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
    # a point with a non-finite coordinate
    assert main(["potential", path, "--alpha", "0.5", "--point", "0.5,nan"]) == 1
    assert capsys.readouterr().err == ("error: expected a comma-separated list of "
                                       "finite numbers, got '0.5,nan'\n")


def test_potential_wulff_rejects_out(tmp_path, capsys):
    # a pointwise Wulff value has no map to write
    _, path = field_file(tmp_path, lambda x, y: np.ones_like(x))
    out = tmp_path / "o"
    assert main(["potential", path, "--alpha", "0.5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out writes the map of --kind riesz")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("kind, flags", [
    ("riesz", ["--radius", "0.01"]),
    ("havin-mazya", ["--radius", "0.01"]),
    ("riesz", ["--s", "7"]),
], ids=["riesz-radius", "havin-mazya-radius", "riesz-s"])
def test_potential_rejects_flags_its_kind_does_not_read(tmp_path, capsys, kind, flags):
    # on a readable field, so that only the unread flag can fail the command
    _, path = field_file(tmp_path, lambda x, y: np.ones_like(x))
    argv = ["potential", path, "--alpha", "0.5", "--kind", kind]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flags[0]} ") and captured.out == ""


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


@pytest.mark.parametrize("dim", [2, 3])
def test_potential_havin_mazya_prints_one_cell(tmp_path, capsys, monkeypatch, dim):
    # without --out only the value at the point is computed, not the V map
    import wulff_lab.cli as cli

    if dim == 2:
        f, path = field_file(tmp_path, lambda x, y: 1.0 + np.sin(np.pi * x) * y, cells=24)
    else:  # the field of test_potential_out_needs_a_2d_field
        geom = GridGeometry((8, 8, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
        f = GridField.from_function(geom, lambda x, y, z: 1.0 + x)
        path = str(tmp_path / "f3.wlf")
        write_field(f, path)
    x = (0.3, 0.55, 0.4)[:dim]
    expected = float(value_at(havin_mazya_map(f, 0.5, 3.0), x)[0])

    def no_map(*args):
        raise AssertionError("havin_mazya_map called")

    monkeypatch.setattr(cli, "havin_mazya_map", no_map)
    argv = ["potential", path, "--kind", "havin-mazya", "--alpha", "0.5", "--s", "3.0",
            "--point", ",".join(map(str, x))]
    assert main(argv) == 0
    assert capsys.readouterr().out == format(expected, ".12g") + "\n"


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
    f = constant_field(geom, 5.0)
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
    # px = 2: x = 2i grows from 3 to 4 digits at i = 500, inside a block of
    # columns
    "digits-in-a-block-520x3": lambda: np.random.default_rng(9).normal(size=(520, 3)),
    # px = 9: the 3-digit columns are 12..69, a full block and a part
    "part-block-70x9": lambda: np.random.default_rng(10).normal(size=(70, 9)),
    "random-1x5": lambda: np.random.default_rng(11).normal(size=(1, 5)),
    "random-5x1": lambda: np.random.default_rng(12).normal(size=(5, 1)),
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


def test_heatmap_of_a_huge_scalar_field_matches_the_oracle(tmp_path):
    # the magnitude of one component is abs, so samples near 1e200 do not
    # overflow to inf on the way to the heatmap
    vals = 1e200 * np.random.default_rng(13).normal(size=(24, 16))
    geom = GridGeometry(vals.shape, (1.0, 1.0), (0.0, 0.0))
    path = tmp_path / "h.svg"
    render_heatmap(GridField(geom, vals, "scalar").magnitude(), str(path))
    assert path.read_bytes() == _heatmap_oracle(GridField(geom, np.abs(vals), "scalar"))


def test_heatmap_memory_stays_below_half_the_svg(tmp_path):
    # the writer holds one block of columns, never the whole file or a
    # whole-grid color table
    vals = np.random.default_rng(14).normal(size=(512, 512))
    f = GridField(GridGeometry(vals.shape, (1.0, 1.0), (0.0, 0.0)), vals, "scalar")
    path = tmp_path / "h.svg"
    tracemalloc.start()
    try:
        render_heatmap(f, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


def test_atomic_write_leaves_nothing_when_a_chunk_fails(tmp_path):
    def chunks():
        yield b"first chunk"
        raise RuntimeError("chunk failed")

    old = tmp_path / "old.svg"
    old.write_bytes(b"old bytes")
    for target in (old, tmp_path / "new.svg"):
        with pytest.raises(RuntimeError, match="chunk failed"):
            _atomic_write(str(target), chunks())
    assert old.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["old.svg"]


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


# sha256 of the reports of the README config; report.json lost the hardy-i
# params 'a' and 'family' when those options were removed, report.csv is
# unchanged
_README_REPORT_DIGESTS = {
    "report.json": "a667dbc25cb98eb8471faf312fa85d4ff670ea8dad68bc36e59da9ce3fc26172",
    "report.csv": "bc613198f71e3ac42a24ec19d2b6cef59413eaec60a116fcf45c7afa4f45ec72",
}


def test_readme_config_heatmaps_keep_their_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path / "readme.ini", README_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    for name, digest in _README_SVG_DIGESTS.items():
        assert hashlib.sha256(read_bytes(out, name)).hexdigest() == digest


def test_readme_config_reports_keep_their_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path / "readme.ini", README_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    for name, digest in _README_REPORT_DIGESTS.items():
        assert hashlib.sha256(read_bytes(out, name)).hexdigest() == digest, name


def test_heatmap_rejects_vector_fields(tmp_path):
    geom = GridGeometry((8, 8), (1.0, 1.0), (0.0, 0.0))
    f = GridField(geom, np.zeros((2, 8, 8)), "vector", codomain=2)
    with pytest.raises(ConfigError):
        render_heatmap(f, str(tmp_path / "v.svg"))


def test_heatmap_rejects_3d_fields(tmp_path):
    geom = GridGeometry((8, 8, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(ConfigError, match="2-D grid"):
        render_heatmap(constant_field(geom, 1.0), str(tmp_path / "c.svg"))


# ---------------------------------------------------------------------------
# plumbing


def test_threads_resolution():
    # --threads is the one way to set the worker count; without it runs are serial
    assert _threads(2) == 2
    assert _threads(None) == 1
    with pytest.raises(ConfigError, match="at least 1"):
        _threads(0)


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
