"""End-to-end acceptance battery.

Each criterion prints one pass/fail line (collected into the terminal
summary) and asserts its stated tolerance.  The batteries run at the
production grid sizes, so this module is the slow part of the suite.
"""

import math
import time

import numpy as np
import pytest
from conftest import constant_field, record_criterion

from wulff_lab.cli import main
from wulff_lab.field_grid import GridField, GridGeometry
from wulff_lab.function_spaces import (
    LorentzParams,
    balance_report,
    lorentz_zygmund_norm,
    luxemburg_norm,
    potential_young_transforms,
    young_power,
    young_zygmund,
)
from wulff_lab.inequality_lab import (
    gate_pair,
    pointwise_terms,
    verify_domination,
    verify_hardy,
    verify_oscillation,
    verify_pointwise,
    verify_pointwise_osc,
    verify_regularity_exponents,
    verify_telescope,
)
from wulff_lab.inequality_lab import _hardy_lhs, _PiecewisePhi
from wulff_lab.plaplace_solver import (
    DirichletProblem,
    SystemParams,
    manufacture,
    solve,
)
from wulff_lab.potential_engine import PotentialParams, riesz_map, wulff_potential


def check(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    record_criterion(line)
    print(line)
    assert ok, line


def unit_grid(cells):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def test_criterion_1_telescoping_constants():
    t0 = time.perf_counter()
    rep = verify_telescope(unit_grid(128), (0.5, 0.5), 0.05, 0.4, samples=100)
    worst = rep.c_star
    elapsed = time.perf_counter() - t0
    check(
        1,
        rep.passed and worst <= 1.10 and elapsed < 30.0,
        f"100 fields at 128^2: max ratio {worst:.4f} (allowance 1.10), "
        f"constants 64/128, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_hardy_fubini_and_beta():
    rep = verify_hardy("i", 1.0, 0.0, samples=50, seed=0)
    fubini_ok = all(abs(s.ratio - 1.0) <= 1e-8 for s in rep.samples)

    # φ ≡ 1 on (0, 2], case ii-near, q = 1/2, α = −2: a Beta integral
    lhs = _hardy_lhs(_PiecewisePhi(np.array([0.0, 2.0]), np.array([1.0])),
                     0.5, -2.0, 1.0)
    target = (math.pi / 2.0) ** 2
    beta_ok = abs(lhs - target) <= 1e-3
    check(
        2,
        fubini_ok and beta_ok,
        f"case (i) q=1 alpha=0: max |ratio-1| = "
        f"{max(abs(s.ratio - 1) for s in rep.samples):.2e} over 50 phi; "
        f"Beta instance LHS = {lhs:.6f} vs (pi/2)^2 = {target:.6f}",
    )


def test_criterion_3_potential_closed_forms():
    geom = unit_grid(128)
    x = (0.5, 0.5)
    worst_w = 0.0
    for p in (1.5, 2.0, 3.0):
        for c in (1.0, 4.0):
            f = constant_field(geom, c)
            for R in (0.1, 0.25):
                params = PotentialParams(p / (p + 1.0), p + 1.0, R)
                got = wulff_potential(f, params, x)
                exact = c ** (1.0 / p) * R
                worst_w = max(worst_w, abs(got - exact) / exact)

    # unit-disk indicator on an odd grid with h = 1/128 (origin at a center)
    cells = 257
    half = cells / (cells - 1)
    disk = GridGeometry((cells, cells), (2 * half, 2 * half), (-half, -half))
    ind = GridField.from_function(
        disk, lambda a, b: (a**2 + b**2 <= 1.0).astype(float)
    )
    worst_r = 0.0
    for alpha in (0.5, 1.0, 1.5):
        got = riesz_map(ind, alpha).values[0, cells // 2, cells // 2]  # origin cell
        exact = 2.0 * math.pi / alpha
        worst_r = max(worst_r, abs(got - exact) / exact)
    check(
        3,
        worst_w <= 0.005 and worst_r <= 0.02,
        f"Wulff constant-field error {worst_w:.2%} (<= 0.5%); "
        f"Riesz disk error {worst_r:.2%} at h=1/128 (<= 2%)",
    )


def test_criterion_4_domination_stability():
    details = []
    ok = True
    for alpha, s in ((0.5, 3.0), (0.4, 2.0)):
        cs = {}
        for cells in (64, 128):
            rep = verify_domination(unit_grid(cells), alpha, s,
                                    samples=100, seed=0)
            ok = ok and rep.passed and math.isfinite(rep.c_star)
            cs[cells] = rep.c_star
        drift = abs(cs[64] - cs[128]) / max(cs[64], cs[128])
        ok = ok and drift < 0.10
        details.append(f"(a={alpha},s={s}) C*={cs[128]:.3f} drift {drift:.2%}")
    check(4, ok, "; ".join(details) + " (< 10%)")


def _nine_points(geom):
    fr = (0.35, 0.5, 0.65)
    return [(a, b) for a in fr for b in fr]


def _battery_pairs(cells):
    geom = unit_grid(cells)
    u = GridField.from_function(
        geom, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    pairs = [(f"manufactured p={p}", u, manufacture(u, p), p)
             for p in (1.5, 2.0, 3.0)]
    h1, h2 = geom.spacing
    mesh = geom.center_mesh()
    F1 = np.pi * np.cos(np.pi * (mesh[0] + h1 / 2)) * np.sin(np.pi * mesh[1])
    F2 = np.pi * np.sin(np.pi * mesh[0]) * np.cos(np.pi * (mesh[1] + h2 / 2))
    F = GridField(geom, np.stack([F1, F2]), "matrix", codomain=1)
    result = solve(DirichletProblem(F, 0.0), SystemParams(p=2.0, tol=1e-10))
    assert result.residual <= 1e-10
    pairs.append(("solved poisson p=2", result.u, F, 2.0))
    return pairs


def test_criterion_5_main_theorem_batteries():
    t0 = time.perf_counter()
    R = 0.25
    cstars = {}
    for cells in (64, 128):
        for label, u, F, p in _battery_pairs(cells):
            pts = _nine_points(u.geometry)
            pair = gate_pair(u, F, p, 1e-5)
            terms = pointwise_terms(pair, R, pts, oscillation=True)
            rp = verify_pointwise(terms)
            ro = verify_pointwise_osc(terms)
            rd_cs = max(verify_oscillation(pair, x, R).c_star for x in pts)
            assert rp.passed and ro.passed
            cstars.setdefault(label, {})[cells] = (rp.c_star, ro.c_star, rd_cs)
    ok = True
    worst_drift = 0.0
    for label, by_cells in cstars.items():
        for a, b in zip(by_cells[64], by_cells[128]):
            ok = ok and math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0
            drift = abs(a - b) / max(a, b)
            worst_drift = max(worst_drift, drift)
            ok = ok and drift <= 0.25
    elapsed = time.perf_counter() - t0
    check(
        5,
        ok and elapsed < 300.0,
        f"4 pairs x 3 verifiers at 9 samples: worst C* drift "
        f"{worst_drift:.2%} under h->h/2 (<= 25%), {elapsed:.0f}s < 300s",
    )


def test_criterion_6_holder_exponent():
    r4 = verify_regularity_exponents("holder", 2.0, q=4.0, cells=128)
    r8 = verify_regularity_exponents("holder", 2.0, q=8.0, cells=128)
    s4, s8 = r4.params["slope"], r8.params["slope"]
    ok = 0.425 <= s4 <= 0.575 and 0.70 <= s8 <= 0.80
    check(
        6,
        ok,
        f"q=4 slope {s4:.4f} in [0.425, 0.575]; q=8 slope {s8:.4f} in "
        f"[0.70, 0.80]",
    )


def test_criterion_7_norm_engine_exactness():
    geom = unit_grid(16)
    meas = geom.cell_measure
    rng = np.random.default_rng(42)
    worst_lorentz = worst_lux = 0.0
    for _ in range(5):
        vals = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5], size=geom.cells)
        f = GridField(geom, vals)
        for q in (1.0, 2.0, 3.0):
            exact = float((np.sum(vals**q) * meas) ** (1.0 / q))
            lz = lorentz_zygmund_norm(f, LorentzParams(q, q))
            lux = luxemburg_norm(f, young_power(q))
            worst_lorentz = max(worst_lorentz, abs(lz - exact) / max(1.0, exact))
            worst_lux = max(worst_lux, abs(lux - exact) / max(1.0, exact))

    worst_ind = 0.0
    for k, q, rho in ((24, 2.0, 1.0), (100, 3.0, 2.0), (7, 1.5, 0.7)):
        flat = np.zeros(256)
        flat[:k] = 1.0
        f = GridField(geom, flat.reshape(16, 16))
        exact = (q / rho) ** (1.0 / rho) * (k * meas) ** (1.0 / q)
        got = lorentz_zygmund_norm(f, LorentzParams(q, rho))
        worst_ind = max(worst_ind, abs(got - exact))
    check(
        7,
        worst_lorentz <= 1e-10 and worst_lux <= 1e-10 and worst_ind <= 1e-6,
        f"Lorentz(q,q) vs L^q {worst_lorentz:.1e} (<= 1e-10); Luxemburg t^q "
        f"vs L^q {worst_lux:.1e} (<= 1e-10); indicator closed form "
        f"{worst_ind:.1e} (<= 1e-6)",
    )


def test_criterion_8_balance_condition():
    n, p = 2, 1.5
    pp = p / (p - 1.0)          # p' = 3
    q = 3.5                      # strictly between p' = 3 and n/(p-1) = 4
    alpha, s = p / (p + 1.0), p + 1.0
    qa = q / pp                  # datum |F|^{p'} lives in L^{q/p'}
    Qb = n * qa / (n - alpha * s * qa)
    assert Qb == pytest.approx(28.0 / 3.0)

    target = balance_report(potential_young_transforms(
        young_power(qa), young_power(Qb), alpha, s, n
    ))
    strengthened = balance_report(potential_young_transforms(
        young_power(qa), young_zygmund(Qb, 1.0), alpha, s, n
    ))
    ok = (
        target.satisfiable
        and target.gamma is not None
        and math.isfinite(target.gamma)
        and not strengthened.satisfiable
    )
    check(
        8,
        ok,
        f"target (Q={Qb:.4g}, log^0): gamma = {target.gamma:.4g}; "
        f"extra log power +1: {'Unsatisfiable' if not strengthened.satisfiable else 'satisfiable'}",
    )


DETERMINISM_CONFIG = """\
[grid]
cells = 64,64

[data]
u = profile:sinsin
F = manufactured
seed = 11

[verify]
theorems = telescoping-means, hardy-i

[verify.telescoping-means]
samples = 3

[verify.hardy-i]
q = 1.0
alpha = 0.0
samples = 4

[output]
heatmaps = u
"""


def test_criterion_9_byte_determinism(tmp_path):
    cfg = tmp_path / "job.ini"
    cfg.write_text(DETERMINISM_CONFIG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["run", str(cfg), "--out", str(out1)])
    code2 = main(["run", str(cfg), "--out", str(out2)])
    names = ("report.json", "report.csv", "u.svg")
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in names
    )
    check(
        9,
        code1 == 0 and code2 == 0 and same,
        f"two identical runs: exit codes ({code1}, {code2}), "
        f"{'byte-identical' if same else 'DIFFERING'} JSON/CSV/SVG",
    )
