"""The error promise of ``errors.py`` and the shared range rules.

Every library error derives from ``WulffLabError``, and a parameter outside
its admissible range raises ``InadmissibleParams``.  The AST scan checks the
first promise on every ``raise`` in ``src/wulff_lab``; the parametrized test
calls each site of the three ranges that several modules share (1 < p < ∞,
0 < tol < ∞ and the order 0 < α, 1 < s, αs < n) with a value outside it."""

import ast
import configparser
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import constant_field

from wulff_lab import errors
from wulff_lab.cli import RunConfig
from wulff_lab.errors import InadmissibleParams, WulffLabError
from wulff_lab.field_grid import GridField, GridGeometry
from wulff_lab.function_spaces import potential_young_transforms, young_power
from wulff_lab.inequality_lab import (
    gate_pair,
    potential_norm_part,
    verify_domination,
    verify_regularity_exponents,
)
from wulff_lab.plaplace_solver import SystemParams, manufacture, weak_residual
from wulff_lab.potential_engine import (
    PotentialParams,
    havin_mazya_at,
    havin_mazya_map,
    oscillation_potential,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wulff_lab"

ERRORS = {name for name, obj in vars(errors).items()
          if isinstance(obj, type) and issubclass(obj, WulffLabError)}

# the raises that are not library errors: the ValueError of cli's text
# parsers, which ``cli._parse`` turns into a ConfigError, and GridField's
# immutability guard
FOREIGN = {("cli", "_u64", "ValueError"), ("cli", "_number", "ValueError"),
           ("cli", "_radius", "ValueError"),
           ("field_grid", "GridField.__setattr__", "AttributeError")}


def _raises():
    """(module, enclosing def, raised name) of every ``raise`` that makes its
    exception; a bare ``raise`` and a raise of an error the code already holds
    re-raise one made elsewhere."""
    out = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, (ast.Name, ast.Attribute)):
                    out.append((module, where, exc.id if isinstance(exc, ast.Name)
                                else exc.attr))
            visit(child, module, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "")
    return out


def test_every_raise_names_a_library_error():
    raises = _raises()
    assert len(raises) > 100
    stray = [r for r in raises if r[2] not in ERRORS and r not in FOREIGN]
    assert not stray, stray
    assert FOREIGN <= set(raises)  # a foreign raise that went stays off the list


def test_every_error_class_is_raised():
    assert ERRORS - {name for _, _, name in _raises()} == set()


GEOM = GridGeometry((16, 16), (1.0, 1.0), (0.0, 0.0))
U = GridField.from_function(GEOM, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
F = manufacture(U, 2.0)


def _run_config(section: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(f"[grid]\ncells = 16,16\n{section}")
    return RunConfig(parser, ".")


P_SITES = {
    "SystemParams": lambda p: SystemParams(p=p),
    "RunConfig": lambda p: _run_config(f"[system]\np = {p}\n"),
    "weak_residual": lambda p: weak_residual(U, F, p),
    "manufacture": lambda p: manufacture(U, p),
    "oscillation_potential": lambda p: oscillation_potential(F, p, 0.3, (0.5, 0.5)),
    "gate_pair": lambda p: gate_pair(U, F, p, 1e-8),
    "verify_regularity_exponents": lambda p: verify_regularity_exponents(
        "holder", p, q=8.0, cells=16),
}
TOL_SITES = {
    "SystemParams": lambda tol: SystemParams(p=2.0, tol=tol),
    "RunConfig": lambda tol: _run_config(f"[data]\nresidual_tol = {tol}\n"),
    "gate_pair": lambda tol: gate_pair(U, F, 2.0, tol),
}
ORDER_SITES = {
    "PotentialParams": lambda a, s: PotentialParams(a, s, 0.3),
    "havin_mazya_map": lambda a, s: havin_mazya_map(constant_field(GEOM, 1.0), a, s),
    "havin_mazya_at": lambda a, s: havin_mazya_at(constant_field(GEOM, 1.0), a, s,
                                                  (0.5, 0.5)),
    "potential_norm_part": lambda a, s: potential_norm_part("A-iv", a, s, GEOM),
    "potential_young_transforms": lambda a, s: potential_young_transforms(
        young_power(1.5), young_power(3.0), a, s, 2),
    "verify_domination": lambda a, s: verify_domination(GEOM, a, s, samples=1),
}
# (alpha, s) outside 0 < alpha, 1 < s, alpha*s < n = 2; the Wulff potential
# of PotentialParams has no bound alpha*s < n, only finite alpha and s
ORDERS = {"alpha<=0": (0.0, 2.0), "s<=1": (0.5, 1.0), "alpha*s=n": (1.0, 2.0),
          "alpha-nan": (math.nan, 2.0), "s-inf": (0.5, math.inf),
          "alpha-inf": (math.inf, 2.0)}

CASES = (
    [(f"p-{site}-{p}", fn, (p,), "must satisfy 1 < p < inf")
     for site, fn in P_SITES.items() for p in (1.0, math.inf, math.nan)]
    + [(f"tol-{site}-{tol}", fn, (tol,), "must be > 0 and finite")
       for site, fn in TOL_SITES.items() for tol in (0.0, math.inf, math.nan)]
    + [(f"order-{site}-{case}", fn, ORDERS[case], r"need 0 < alpha, 1 < s and alpha\*s < n")
       for site, fn in ORDER_SITES.items() for case in ORDERS
       if not (site == "PotentialParams" and case == "alpha*s=n")]
)


@pytest.mark.parametrize("fn, args, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_shared_range_rules_refuse_every_value_outside(fn, args, message):
    # weak_residual, manufacture, oscillation_potential and gate_pair checked
    # only p > 1: at p = inf numpy warned of an invalid value, and the nan
    # residual passed the gate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InadmissibleParams, match=message):
            fn(*args)
