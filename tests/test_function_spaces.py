import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wulff_lab.errors import (
    FinitenessFailure,
    InadmissibleParams,
    NoAdmissibleBalls,
    SearchRangeExhausted,
)
from wulff_lab import function_spaces
from wulff_lab.field_grid import (
    Ball,
    GridField,
    GridGeometry,
    ball_oscillation,
    ball_stencil,
    max_admissible_radius,
)
from wulff_lab.function_spaces import (
    LorentzParams,
    SupScanResult,
    WeightFunction,
    _lz_piece_integral,
    balance_report,
    campanato_seminorm,
    lorentz_zygmund_norm,
    luxemburg_norm,
    monotone_envelope,
    morrey_norm,
    potential_young_transforms,
    rearrange,
    weight_power,
    young_dexp,
    young_exp,
    young_power,
    young_zygmund,
)
from wulff_lab.function_spaces import YoungFunction
from wulff_lab.inequality_lab import radial_profile, random_field
from wulff_lab.plaplace_solver import manufacture

from conftest import constant_field
from test_field_grid import _ball_box


def unit_grid(cells=16):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def step_field(values_and_counts, cells=16):
    """Scalar field taking value v on k cells, row-major fill."""
    flat = np.zeros(cells * cells)
    pos = 0
    for v, k in values_and_counts:
        flat[pos:pos + k] = v
        pos += k
    return GridField(unit_grid(cells), flat.reshape(cells, cells))


# ---------------------------------------------------------------------------
# rearrangement and Lorentz-Zygmund norms


def test_rearrangement_of_step_function():
    f = step_field([(3.0, 4), (1.0, 8)])
    r = rearrange(f)
    meas = 1.0 / 256
    assert r(0.5 * meas) == 3.0
    assert r(4 * meas) == 3.0
    assert r(4.5 * meas) == 1.0
    assert r(12 * meas) == 1.0
    assert r(12.5 * meas) == 0.0


def test_lorentz_qq_equals_lq():
    f = step_field([(2.0, 10), (0.5, 30), (1.25, 7)])
    meas = 1.0 / 256
    for q in (1.0, 2.0, 3.5):
        exact = (
            (2.0**q * 10 + 0.5**q * 30 + 1.25**q * 7) * meas
        ) ** (1 / q)
        got = lorentz_zygmund_norm(f, LorentzParams(q, q))
        assert got == pytest.approx(exact, abs=1e-10 * max(1, exact))


def test_lorentz_indicator_closed_form():
    f = step_field([(1.0, 24)])
    measure = 24.0 / 256
    for q, rho in ((2.0, 1.0), (3.0, 2.0), (1.5, 0.7)):
        exact = (q / rho) ** (1 / rho) * measure ** (1 / q)
        got = lorentz_zygmund_norm(f, LorentzParams(q, rho))
        assert got == pytest.approx(exact, abs=1e-6)


def test_lorentz_sup_norm_branch():
    f = step_field([(4.0, 3), (2.0, 5)])
    assert lorentz_zygmund_norm(f, LorentzParams(math.inf, math.inf)) == pytest.approx(4.0)


def _lz_weight_sup(s0, s1, c, beta, M):
    """sup of s^c (1 + log(M/s))^β over [s0, s1] (s0 may be 0), from its
    candidates: both ends (the limit at s = 0) and the interior critical
    point s* = M e^{1−β/c}."""

    def w(s):
        return s**c * (1.0 + math.log(M / s)) ** beta

    cands = [w(s1)]
    if s0 > 0:
        cands.append(w(s0))
    elif c > 0:
        cands.append(0.0)
    else:
        cands.append(math.inf if beta > 0 else (1.0 if beta == 0 else 0.0))
    if c != 0 and beta != 0 and beta / c > 0:
        s_star = M * math.exp(1.0 - beta / c)
        if s0 < s_star < s1:
            cands.append(w(s_star))
    return max(cands)


def _lorentz_sup_oracle(f, params):
    """The ϱ = ∞ quasi-norm as a loop over the rearrangement steps: the max
    of v · sup of the weight over each step with v > 0."""
    r = rearrange(f)
    c = 0.0 if math.isinf(params.q) else 1.0 / params.q
    best = 0.0
    s_prev = 0.0
    for v, s_next in zip(r.values, r.breakpoints):
        if v > 0:
            best = max(best, v * _lz_weight_sup(s_prev, s_next, c, params.beta,
                                                r.total_measure))
        s_prev = s_next
    return best


@pytest.mark.parametrize("indices", [
    (math.inf, math.inf, 0.0), (2.0, math.inf, 0.0), (2.0, math.inf, -1.0),
    (math.inf, math.inf, 1.0),  # the weight is log^1, unbounded at s = 0
    (2.0, math.inf, 1.0),       # s* = M/e inside a step
], ids=["Linf", "lorentz:2,inf", "lorentz:2,inf,-1", "lorentz:inf,inf,1",
        "lorentz:2,inf,1"])
# on the constant field the sup of lorentz:2,inf,1 is the weight at s*
@pytest.mark.parametrize("field", ["bumps", "zero-tail", "constant"])
def test_lorentz_sup_branch_matches_per_step_oracle(indices, field):
    geom = unit_grid(64)
    if field == "bumps":
        f = random_field(geom, 0, "bumps")
    elif field == "constant":
        f = constant_field(geom, 0.75)
    else:
        rng = np.random.default_rng(11)
        vals = rng.uniform(-1.0, 1.0, size=geom.cells)
        vals[rng.uniform(size=geom.cells) < 0.2] = 0.0
        f = GridField(geom, vals)
    params = LorentzParams(*indices)
    want = _lorentz_sup_oracle(f, params)
    got = lorentz_zygmund_norm(f, params)
    if indices == (math.inf, math.inf, 1.0):
        assert want == got == math.inf
    else:
        assert math.isfinite(want) and got == pytest.approx(want, rel=1e-14, abs=0)
    if indices == (math.inf, math.inf, 0.0):
        assert got == float(np.abs(f.values).max())


def test_lorentz_sup_branch_of_a_zero_field():
    f = constant_field(unit_grid(8), 0.0)
    assert lorentz_zygmund_norm(f, LorentzParams(2.0, math.inf, 1.0)) == 0.0


def test_lorentz_zygmund_log_weight_finiteness():
    # L^(inf, 2)(log L)^-1 needs rho*|beta| > 1 at q = inf to converge at 0
    f = step_field([(1.0, 256)])
    val = lorentz_zygmund_norm(f, LorentzParams(math.inf, 2.0, -1.0))
    assert math.isfinite(val) and val > 0


def test_lorentz_params_admissibility():
    with pytest.raises(InadmissibleParams):
        LorentzParams(0.5, 1.0)
    with pytest.raises(InadmissibleParams):
        LorentzParams(1.0, 2.0)  # q = 1 needs rho <= 1
    LorentzParams(1.0, 1.0)
    LorentzParams(2.0, 0.25)
    # a beta that is not finite made the norm nan
    for indices in ((math.inf, math.inf, math.nan), (2.0, math.inf, math.nan),
                    (2.0, 2.0, math.inf), (1.0, 1.0, math.inf), (math.inf, 2.0, -math.inf)):
        with pytest.raises(InadmissibleParams, match="finite beta"):
            LorentzParams(*indices)


def _lorentz_oracle(f, params):
    """The per-step Lorentz–Zygmund sum for ϱ < ∞: one scalar step integral
    per positive rearrangement step, summed in order, inf at the first
    divergent step."""
    r = rearrange(f)
    M = r.total_measure
    a = params.rho * (0.0 if math.isinf(params.q) else 1.0 / params.q)
    b = params.rho * params.beta

    def piece(s0, s1):
        if b == 0.0:
            if a == 0.0:
                return math.log(s1 / s0) if s0 > 0 else math.inf
            return (s1**a - (s0**a if s0 > 0 else 0.0)) / a
        if a == 0.0:
            u1 = 1.0 + math.log(M / s1)
            if s0 <= 0:
                return math.inf if b >= -1 else -(u1 ** (b + 1.0)) / (b + 1.0)
            u0 = 1.0 + math.log(M / s0)
            if b == -1.0:
                return math.log(u0 / u1)
            return (u0 ** (b + 1.0) - u1 ** (b + 1.0)) / (b + 1.0)
        return float(_lz_piece_integral(s0, s1, a, b, M))

    total = 0.0
    s_prev = 0.0
    for v, s_next in zip(r.values, r.breakpoints):
        if v > 0:
            w = piece(s_prev, s_next)
            if math.isinf(w):
                return math.inf
            total += v**params.rho * w
        s_prev = s_next
    return total ** (1.0 / params.rho)


@pytest.mark.parametrize("indices", [
    (1.0, 1.0, 0.0), (2.0, 2.0, 0.0), (3.5, 3.5, 0.0),  # (q, q, 0): L^q
    (3.0, 1.5, 0.0), (2.0, 0.7, 0.0),                      # power steps, b = 0
    (2.0, 3.0, 0.5), (4.0, 2.0, -1.0),                     # mixed: per-step quad
    (math.inf, 2.0, -1.0), (math.inf, 3.0, -0.5),          # a = 0 log corner
    (math.inf, 2.0, 0.0), (math.inf, 2.0, -0.25),          # diverge at s = 0:
    (math.inf, 2.0, -0.5),                                 # b = 0, b > −1, b = −1
])
def test_lorentz_matches_per_step_sum(indices):
    geom = unit_grid(32)
    rng = np.random.default_rng(11)
    vals = rng.uniform(-1.0, 1.0, size=(32, 32))
    vals[rng.uniform(size=(32, 32)) < 0.2] = 0.0  # zero steps at the tail of f*
    f = GridField(geom, vals)
    params = LorentzParams(*indices)
    want = _lorentz_oracle(f, params)
    got = lorentz_zygmund_norm(f, params)
    if math.isinf(want):
        assert got == math.inf
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_piece_integral_against_sympy():
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols("s", positive=True)
    a, b, M = 0.5, 2, 2.0
    exact = float(
        sympy.integrate(
            s ** (a - 1) * (1 + sympy.log(M / s)) ** b, (s, sympy.Rational(1, 5), 1)
        )
    )
    got = _lz_piece_integral(0.2, 1.0, a, float(b), M)
    assert got == pytest.approx(exact, rel=1e-8)


def test_piece_integral_closed_forms():
    # b = 0: plain power
    assert _lz_piece_integral(0.25, 1.0, 2.0, 0.0, 1.0) == pytest.approx(
        (1.0 - 0.25**2) / 2.0
    )
    # a = 0: u-substitution, b = -2 converges down to s0 = 0
    M = 1.0
    val = _lz_piece_integral(0.0, 1.0, 0.0, -2.0, M)
    assert val == pytest.approx(1.0)  # int_0^1 (1+log(1/s))^-2 ds/s = 1


# ---------------------------------------------------------------------------
# Luxemburg norms


def test_luxemburg_power_equals_lq():
    f = step_field([(2.0, 9), (0.75, 40)])
    meas = 1.0 / 256
    for q in (1.0, 2.0, 4.0):
        exact = ((2.0**q * 9 + 0.75**q * 40) * meas) ** (1 / q)
        got = luxemburg_norm(f, young_power(q))
        assert got == pytest.approx(exact, abs=1e-10 * max(1, exact))


def test_luxemburg_exponential_unit_instance():
    # f = 1 on a measure-one domain with A = e^t - 1: the modular equation
    # e^(1/lam) - 1 = 1 gives lam = 1/log 2
    f = constant_field(unit_grid(8), 1.0)
    got = luxemburg_norm(f, young_exp(1.0))
    assert got == pytest.approx(1.0 / math.log(2.0), rel=1e-9)


def test_luxemburg_zero_field():
    f = constant_field(unit_grid(8), 0.0)
    assert luxemburg_norm(f, young_power(2.0)) == 0.0


def test_luxemburg_homogeneity():
    f = step_field([(1.0, 17), (0.2, 50)])
    A = young_zygmund(2.0, 1.0)
    base = luxemburg_norm(f, A)
    scaled = luxemburg_norm(f.with_values(7.0 * f.values), A)
    assert scaled == pytest.approx(7.0 * base, rel=1e-8)


# Reference Luxemburg norm: the bracket search of ``luxemburg_norm``, then
# bisection to the same relative bracket width.


def _luxemburg_bracket(f, A):
    """(modular, lo, hi, evaluations) of a doubling search up from max|f|
    and a halving search back down, with modular(lo) > 1 >= modular(hi);
    None for the zero field."""
    mag = f.magnitude().values[0].ravel()
    meas = f.geometry.cell_measure
    top = float(mag.max())
    if top == 0.0:
        return None
    calls = [0]

    def modular(lam):
        calls[0] += 1
        with np.errstate(over="ignore", divide="ignore"):
            vals = A(mag / lam)
        return float(np.sum(vals) * meas) if np.all(np.isfinite(vals)) else math.inf

    hi = top
    while modular(hi) > 1.0:
        hi *= 2.0
    lo = hi / 2.0
    while modular(lo) <= 1.0:
        hi = lo
        lo /= 2.0
    return modular, lo, hi, calls[0]


def _luxemburg_oracle(f, A):
    bracket = _luxemburg_bracket(f, A)
    if bracket is None:
        return 0.0
    modular, lo, hi, _ = bracket
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _counted(A):
    """``A`` wrapped so that ``calls[0]`` counts its evaluations."""
    calls = [0]

    def fn(t):
        calls[0] += 1
        return A(t)

    return YoungFunction(fn, A.tag, A.sigma, A.logexp), calls


LUX_FAMILIES = {
    "power-1.5": young_power(1.5),
    "power-3": young_power(3.0),
    "zygmund": young_zygmund(1.5, 1.0),
    "exp": young_exp(1.0),
    "exp-2": young_exp(2.0),
    "dexp": young_dexp(),
}


@pytest.mark.parametrize("name", sorted(LUX_FAMILIES))
def test_luxemburg_root_matches_bisection_oracle(name):
    A = LUX_FAMILIES[name]
    geom = GridGeometry((40, 24), (1.3, 0.7), (-0.2, 0.1))
    for seed, kind in enumerate(["fourier", "bumps", "singular"] * 3):
        f = random_field(geom, 60 + seed, kind, nonneg=True)
        # scales that put the norm well below, near and above max|f|
        for scale in (1e-3, 1.0, 40.0):
            g = f.with_values(scale * f.values)
            counted, calls = _counted(A)
            assert luxemburg_norm(g, counted) == pytest.approx(
                _luxemburg_oracle(g, A), rel=1e-9, abs=0)
            # bisection needs 33 steps from a bracket [λ/2, λ] to width 1e-10·λ
            assert calls[0] - _luxemburg_bracket(g, A)[3] <= 12


@pytest.mark.parametrize("extent, up", [((4.0, 4.0), True), ((0.25, 0.25), False)],
                         ids=["walk-up", "walk-down"])
def test_luxemburg_bracket_walk_evaluates_no_scale_twice(extent, up):
    # on measure 16 the modular at λ = max|f| is above 1 for every family,
    # and the walk doubles λ; on measure 1/16 it is at most 1, and the walk
    # halves λ
    geom = GridGeometry((32, 32), extent, (0.0, 0.0))
    f = random_field(geom, 3, "bumps", nonneg=True)
    for A in LUX_FAMILIES.values():
        scales = []  # max|f|/λ of each evaluation

        def fn(t, A=A):
            scales.append(float(np.max(t)))
            return A(t)

        got = luxemburg_norm(f, YoungFunction(fn, A.tag, A.sigma, A.logexp))
        assert got == pytest.approx(_luxemburg_oracle(f, A), rel=1e-9, abs=0)
        assert (scales[1] < scales[0]) == up
        assert len(scales) == len(set(scales))


@pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
def test_luxemburg_power_root_takes_two_steps_after_the_bracket(q):
    # log modular is linear in log λ for t^q: after the doubling search the
    # secant lands on the root, and one step a quarter-tolerance away closes
    # the bracket
    geom = GridGeometry((128, 128), (1.0, 1.0), (0.0, 0.0))
    for seed, kind in enumerate(["fourier", "bumps", "singular"] * 4):
        f = random_field(geom, seed, kind, nonneg=True)
        A, calls = _counted(young_power(q))
        got = luxemburg_norm(f, A)
        bracket_calls = _luxemburg_bracket(f, young_power(q))[3]
        assert calls[0] <= bracket_calls + 2, (kind, seed)
        if kind != "singular":  # the doubling search takes at most 3 here
            assert calls[0] <= 8, (kind, seed)
        exact = float(np.sum(f.values**q) * geom.cell_measure) ** (1 / q)
        assert got == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("q", [1.5, 3.0])
def test_luxemburg_secant_walk_brackets_peaked_fields_in_four(q):
    # a singular field puts the root several octaves below max|f|; factor-2
    # steps took 5-7 evaluations there, the secant steps in log λ take 4,
    # and the root 2 more
    geom = GridGeometry((128, 128), (1.0, 1.0), (0.0, 0.0))
    for seed in (2, 5, 8, 11):
        f = random_field(geom, seed, "singular", nonneg=True)
        A, calls = _counted(young_power(q))
        got = luxemburg_norm(f, A)
        assert calls[0] <= 6, seed
        exact = float(np.sum(f.values**q) * geom.cell_measure) ** (1 / q)
        assert got == pytest.approx(exact, rel=1e-10)


def test_luxemburg_root_keeps_infinite_and_exhausted_outcomes():
    f = step_field([(2.0, 9), (0.75, 40)])
    # A = ∞ for t > 0: no λ admits the unit integral
    infinite = YoungFunction(lambda t: np.where(t > 0, np.inf, 0.0))
    assert luxemburg_norm(f, infinite) == math.inf
    # A ≥ 2 on a measure-one domain: finite modular that never reaches 1
    with pytest.raises(SearchRangeExhausted):
        luxemburg_norm(f, YoungFunction(lambda t: t + 2.0))
    # exp(t^20) − 1 overflows at t = 2: the bracket [max|f|/2, max|f|] starts
    # from an infinite modular at lo, so the first steps go to log-midpoints
    A = young_exp(20.0)
    modular, lo, hi, _ = _luxemburg_bracket(f, A)
    assert (lo, hi) == (1.0, 2.0) and modular(lo) == math.inf
    assert luxemburg_norm(f, A) == pytest.approx(_luxemburg_oracle(f, A), rel=1e-9)


def _is_convex(A: YoungFunction) -> bool:
    """Discrete convexity of A on 200 log-spaced points of [1e-4, 1e4]
    (finite part only)."""
    t = np.geomspace(1e-4, 1e4, 200)
    y = A(t)
    ok = np.isfinite(y)
    t, y = t[ok], y[ok]
    if t.size < 3:
        return True
    slopes = np.diff(y) / np.diff(t)
    return bool(np.all(np.diff(slopes) >= -1e-9 * np.abs(slopes[1:]) - 1e-300))


def test_young_builders_are_convex():
    for A in (young_power(1.5), young_zygmund(2.0, 1.0), young_exp(1.0),
              young_zygmund(1.0, 2.0)):
        assert _is_convex(A)


# ---------------------------------------------------------------------------
# Young transforms and the balance condition


def test_transforms_power_and_quadrature_routes_agree():
    # beta = 0 Zygmund functions equal the power functions but take the
    # numeric route; both routes must produce the same transforms
    alpha, s, n = 0.6, 2.5, 2
    A1, B1 = young_power(7 / 6), young_power(28 / 3)
    A2, B2 = young_zygmund(7 / 6, 0.0), young_zygmund(28 / 3, 0.0)
    exact = potential_young_transforms(A1, B1, alpha, s, n)
    quad = potential_young_transforms(A2, B2, alpha, s, n)
    for t in (0.5, 1.0, 8.0, 125.0):
        assert quad.E(t) == pytest.approx(exact.E(t), rel=1e-6)
        assert quad.F(t) == pytest.approx(exact.F(t), rel=1e-6)


def test_transform_asymptotic_exponents():
    pair = potential_young_transforms(young_power(7 / 6), young_power(28 / 3),
                                      0.6, 2.5, 2)
    assert pair.E.asym.power == pytest.approx(1.0 / 8.0)
    assert pair.F.asym.power == pytest.approx(4.0 / 3.0)


def test_balance_criterion_pair():
    A, B = young_power(7 / 6), young_power(28 / 3)
    rep = balance_report(potential_young_transforms(A, B, 0.6, 2.5, 2))
    assert rep.satisfiable and rep.gamma is not None and rep.mode == "symbolic"
    # strengthening B by one extra log power breaks the balance
    B_plus = young_zygmund(28 / 3, 1.0)
    rep2 = balance_report(potential_young_transforms(A, B_plus, 0.6, 2.5, 2))
    assert not rep2.satisfiable and rep2.mode == "symbolic"


def test_balance_numeric_mode_on_untagged_input():
    A = YoungFunction(lambda t: t ** (7 / 6))
    B = YoungFunction(lambda t: t ** (28 / 3))
    rep = balance_report(potential_young_transforms(A, B, 0.6, 2.5, 2))
    assert rep.mode == "numeric"
    assert rep.satisfiable


def test_transform_range_rejections():
    with pytest.raises(InadmissibleParams):
        potential_young_transforms(young_power(2), young_power(4), 1.1, 1.8, 2)
    with pytest.raises(FinitenessFailure):
        potential_young_transforms(young_power(3.0), young_power(28 / 3), 0.6, 2.5, 2)
    with pytest.raises(FinitenessFailure):
        potential_young_transforms(young_power(7 / 6), young_power(1.0), 0.6, 2.5, 2)


# ---------------------------------------------------------------------------
# Campanato / Morrey scans


def test_campanato_affine_oracle():
    # mean oscillation of x1 over B_r is 4r/(3 pi): with omega(r) = r the
    # scan ratio is scale-free
    geom = GridGeometry((128, 128), (1.0, 1.0), (0.0, 0.0))
    f = GridField.from_function(geom, lambda x, y: x)
    scan = campanato_seminorm(f, weight_power(1.0))
    assert scan.value == pytest.approx(4 / (3 * math.pi), rel=0.05)
    assert scan.balls_scanned > 100


def test_campanato_constant_is_zero():
    f = constant_field(unit_grid(32), 3.0)
    assert campanato_seminorm(f, weight_power(0.0)).value == pytest.approx(0.0, abs=1e-14)


def test_campanato_coerces_q_for_nondecreasing_weights():
    geom = GridGeometry((64, 64), (1.0, 1.0), (0.0, 0.0))
    rng = np.random.default_rng(0)
    f = GridField(geom, rng.normal(size=(64, 64)))
    a = campanato_seminorm(f, weight_power(0.0), q=3.0)
    b = campanato_seminorm(f, weight_power(0.0), q=1.0)
    assert a.value == b.value


def test_morrey_uniform_field_oracle():
    geom = GridGeometry((128, 128), (1.0, 1.0), (0.0, 0.0))
    f = constant_field(geom, 1.0)
    q = 2.0
    scan = morrey_norm(f, weight_power(2.0 / q), q=q)
    assert scan.value == pytest.approx(math.sqrt(math.pi), rel=0.03)


def test_morrey_rejects_small_q():
    f = constant_field(unit_grid(32), 1.0)
    with pytest.raises(InadmissibleParams):
        morrey_norm(f, weight_power(0.0), q=0.5)


@pytest.mark.parametrize("q", [0.5, math.inf, math.nan])
@pytest.mark.parametrize("scan", [campanato_seminorm, morrey_norm])
def test_scans_need_finite_q_at_least_one(scan, q):
    # checked before campanato_seminorm sets q = 1 for a nondecreasing weight
    f = GridField.from_function(unit_grid(32), lambda x, y: x)
    for omega in (weight_power(0.0), weight_power(-0.5)):
        with pytest.raises(InadmissibleParams):
            scan(f, omega, q=q)


def _scan_oracle(f, omega, kind, q=1.0):
    """The per-ball scan the stencil scans replaced: every sampled ball's
    value from its own cells, one ball at a time, keeping the first strict
    maximum of value/ω(r).  The Morrey value takes its cells from the
    bounding-box oracle of ``test_field_grid``."""
    geom = f.geometry
    if kind == "campanato" and omega.nondecreasing:
        q = 1.0
    h = max(geom.spacing)
    mesh = geom.center_mesh()
    balls = []
    for idx in itertools.product(*[range(2, c, 4) for c in geom.cells]):
        center = tuple(float(m[idx]) for m in mesh)
        room = max_admissible_radius(geom, center)
        r = 2.0 * h
        while r <= room * (1 + 1e-12):
            balls.append(Ball(center, r))
            r *= 2.0
    mag = f.magnitude().values[0]
    e = 0
    if kind == "morrey":
        with np.errstate(over="ignore"):
            plain = mag ** q
        if np.any(((plain < 2.0**-1022) | (plain > sys.float_info.max)) & (mag != 0.0)):
            # |f|^q overflows or leaves the normal range: the mass is taken
            # on |f|·2⁻ᵉ, 2ᵉ⁻¹ ≤ max|f| < 2ᵉ, and the root scaled back by 2ᵉ
            e = int(np.frexp(mag.max())[1])
            mag = np.ldexp(mag, -e)

    def value(b):
        if kind == "campanato":
            return ball_oscillation(f, b, q)
        slices, _, mask = _ball_box(geom, b)
        root = float((mag[slices][mask] ** q).sum() * geom.cell_measure) ** (1.0 / q)
        with np.errstate(over="ignore"):
            return float(np.ldexp(root, e))

    best, best_ball = -math.inf, None
    for b in balls:
        w = float(omega(b.radius))
        if w <= 0:
            continue
        val = value(b) / w
        if val > best:
            best, best_ball = val, b
    return SupScanResult(float(best), best_ball, len(balls))


def _assert_scan_matches_oracle(f, omega, kind, q=1.0):
    scan = campanato_seminorm if kind == "campanato" else morrey_norm
    got = scan(f, omega, q=q)
    want = _scan_oracle(f, omega, kind, q)
    assert (got.value, got.ball, got.balls_scanned) == (
        want.value, want.ball, want.balls_scanned)
    return got


@pytest.mark.parametrize("cells, scanned", [(64, 629), (256, 17877)])
def test_bmo_pair_scans_match_oracle(cells, scanned):
    # the pair of regularity-bmo at p = 1.5: u = -log|x - c| and its datum
    p = 1.5
    pp = p / (p - 1.0)
    u = radial_profile(unit_grid(cells), None)
    F = manufacture(u, p)
    scan = _assert_scan_matches_oracle(u, weight_power(0.0), "campanato")
    datum = _assert_scan_matches_oracle(F, weight_power((2 - p) / pp), "morrey", pp)
    assert scan.balls_scanned == datum.balls_scanned == scanned


_SCAN_CASES = [
    ("campanato", weight_power(0.0), 3.0),
    ("campanato", weight_power(1.0), 3.0),
    ("campanato", weight_power(-0.5), 1.5),
    ("campanato", weight_power(-0.5), 3.0),
    ("morrey", weight_power(0.5), 1.0),
    ("morrey", weight_power(0.5), 3.0),
]


def _log_field(geom):
    """-log|x - x0| with x0 inside the domain, off every cell center."""
    x0, y0 = (o + t * e for o, e, t in zip(geom.origin, geom.extent, (0.41, 0.53)))
    return GridField.from_function(geom, lambda x, y: -np.log(np.hypot(x - x0, y - y0)))


@pytest.mark.parametrize("geom", [
    GridGeometry((96, 160), (1.0, 0.6), (-0.3, 0.2)),
    GridGeometry((20, 9), (0.6, 0.5), (0.1, -0.3)),
])
def test_scans_match_oracle_on_offset_grids(geom):
    u = GridField.from_function(
        geom, lambda x, y: np.stack([np.sin(5 * x) * y, x * x - np.cos(3 * y)]),
        "vector", 2)
    F = manufacture(u, 3.0)
    assert F.kind == "matrix" and F.ncomp == 4
    ran = set()
    for name, f in (("u", u), ("F", F), ("log", _log_field(geom))):
        for case, (kind, omega, q) in enumerate(_SCAN_CASES):
            scan = campanato_seminorm if kind == "campanato" else morrey_norm
            got, parts = _scan_parts(scan, f, omega, q)
            _assert_bounds_hold(f, omega, parts)
            assert got == _scan_oracle(f, omega, kind, q)
            if parts["survivors"]:
                ran.add((name, case))
    # case 3 (q = 3, β < 0) has no spread bound: the large grid screens it by
    # the ladder alone, and on the small one no survivors outweigh its tables
    if geom.cells == (96, 160):
        assert {("u", 3), ("log", 3)} <= ran
    else:
        assert not ran


def test_morrey_root_matches_scalar_pow():
    # The winning mass here has a cube root on which numpy's vectorized power
    # (SIMD builds with AVX-512) and the C library pow of scalar arithmetic
    # differ in the last bit; the scan must give the per-ball value.
    geom = GridGeometry((96, 160), (1.0, 0.6), (-0.3, 0.2))
    rng = np.random.default_rng(11)
    f = GridField(geom, rng.normal(size=(2, 96, 160)), "vector", 2)
    _assert_scan_matches_oracle(f, weight_power(0.5), "morrey", 3.0)


def _scan_parts(scan, f, omega, q, ball_values=None):
    """Run ``scan`` and return its result with the arguments it passed to
    ``_sup_scan``; ``ball_values`` wraps the scan's own per-ball rule.
    ``survivors`` lists the ((centers, stencil), bounds) groups that the
    scan's ladder bound was called on, with what it returned."""
    parts = {"survivors": []}
    real = function_spaces._sup_scan

    def spy(geom, omega, data, values, bounds, ladder=None):
        parts.update(data=data, ball_values=values, ball_bounds=bounds, ladder=ladder)

        def recorded(groups):
            got = ladder(groups)
            parts["survivors"].extend(zip(groups, got))
            return got

        return real(geom, omega, data,
                    values if ball_values is None else ball_values(values), bounds,
                    None if ladder is None else recorded)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(function_spaces, "_sup_scan", spy)
        got = scan(f, omega, q=q)
    return got, parts


def _assert_bounds_hold(f, omega, parts):
    """Every sampled ball's bound/ω(r) is ≥ its exact value/ω(r); for a
    Campanato scan its ladder bound is ≥ its exact value too, both with the
    ladder called on every sampled ball at once and for each survivor the
    scan passed to it.  A NaN bound counts as +∞, as in the scan."""
    geom = f.geometry
    centers, _, radii, fits = function_spaces._sample_balls(geom)
    samples = parts["data"].reshape(len(parts["data"]), -1)

    def exact(c, stencil):
        return parts["ball_values"](np.take(samples, c[:, None] + stencil, axis=1))

    def bound(values):
        return np.where(np.isnan(values), np.inf, values)

    groups = []
    for j, r in enumerate(radii):
        w = float(omega(r))
        group = (centers[np.flatnonzero(fits[:, j])], ball_stencil(geom, r))
        groups.append(group)
        with np.errstate(all="ignore"):
            b = bound(parts["ball_bounds"](*group))
        value = exact(*group)
        assert np.all(b / w >= value / w), (r, np.max(value - b))
    if parts["ladder"] is None:
        return
    with np.errstate(all="ignore"):
        ladders = parts["ladder"](groups)
    for group, b in itertools.chain(zip(groups, ladders), parts["survivors"]):
        value = exact(*group)
        assert np.all(bound(b) >= value), (group[1].size, np.max(value - b))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), data=st.data(), ncomp=st.sampled_from([1, 2]),
       offset=st.sampled_from([0.0, 1e8, -3e7]), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["campanato", "morrey"]), q=st.floats(1.0, 4.0),
       beta=st.sampled_from([-0.5, 0.0, 0.5, 1.0]),
       scale=st.sampled_from([1.0, 1.0, 1e-158, 1e-170]))
def test_scan_bounds_hold_and_scans_match_oracle(dim, data, ncomp, offset, seed, kind,
                                                 q, beta, scale):
    # anisotropic grids; a large offset makes the variance cancel in unshifted
    # sums, and a tiny scale makes squares and powers underflow
    hi = 40 if dim == 2 else 14
    cells = tuple(data.draw(st.lists(st.integers(6, hi), min_size=dim, max_size=dim)))
    spacing = data.draw(st.lists(st.floats(0.02, 0.05), min_size=dim, max_size=dim))
    extent = tuple(c * h for c, h in zip(cells, spacing))
    geom = GridGeometry(cells, extent, tuple(-0.4 * e for e in extent))
    assume(function_spaces._sample_balls(geom)[3].any())
    rng = np.random.default_rng(seed)
    mesh = geom.center_mesh()
    smooth = np.sin(3 * mesh[0]) * np.exp(mesh[-1])
    vals = smooth + rng.normal(scale=rng.choice([1e-6, 1e-2, 1.0]), size=(ncomp, *cells))
    vals = (vals + offset) * scale
    f = GridField(geom, vals[0] if ncomp == 1 else vals,
                  *(() if ncomp == 1 else ("vector", ncomp)))
    omega = weight_power(beta)
    scan = campanato_seminorm if kind == "campanato" else morrey_norm
    got, parts = _scan_parts(scan, f, omega, q)
    _assert_bounds_hold(f, omega, parts)
    want = _scan_oracle(f, omega, kind, q)
    assert (got.value, got.ball, got.balls_scanned) == (
        want.value, want.ball, want.balls_scanned)


def test_scan_bounds_split_runs_at_rows_a_ball_covers_whole():
    # one ball of radius 2h covers three rows of 5 cells whole, so its flat
    # offsets -7..7 are consecutive across three rows
    geom = GridGeometry((5, 5), (0.6, 0.5), (0.0, 0.0))
    centers, _, radii, fits = function_spaces._sample_balls(geom)
    assert fits.sum() == 1
    stencil = ball_stencil(geom, radii[0])
    assert stencil[1:-1].tolist() == list(range(-7, 8))
    _, lengths = function_spaces._stencil_runs(geom, stencil)
    assert lengths.tolist() == [1, 5, 5, 5, 1]
    f = GridField.from_function(geom, lambda x, y: np.sin(9 * x) + 4 * y * y)
    for kind, scan, omega in (("campanato", campanato_seminorm, weight_power(0.0)),
                              ("morrey", morrey_norm, weight_power(0.5))):
        got, parts = _scan_parts(scan, f, omega, 1.0)
        _assert_bounds_hold(f, omega, parts)
        assert got == _scan_oracle(f, omega, kind)


def test_campanato_ties_on_a_constant_field_go_to_the_first_ball():
    # every ratio is 0, so every ball's bound reaches the best and the first
    # sampled ball wins, as in the oracle loop
    f = constant_field(GridGeometry((40, 24), (1.0, 0.6), (0.0, 0.0)), 1e8 + 0.5)
    got = _assert_scan_matches_oracle(f, weight_power(0.0), "campanato")
    _, coords, radii, fits = function_spaces._sample_balls(f.geometry)
    i, j = divmod(int(np.argmax(fits)), len(radii))
    assert got.value == 0.0
    assert got.ball == Ball(tuple(coords[i]), radii[j])


@pytest.mark.parametrize("scale", [1e-162, 1e-170])
@pytest.mark.parametrize("kind, beta, q, ncomp", [
    ("campanato", 0.0, 1.0, 1), ("campanato", -0.5, 1.5, 1), ("campanato", -0.5, 2.0, 2),
    ("morrey", 0.5, 1.9, 1)])
def test_scans_of_fields_that_underflow_match_oracle(scale, kind, beta, q, ncomp):
    # squares of deviations below 1e-154 underflow, so the bound carries an
    # absolute term; more balls than one screening block, so a bound that
    # fell below its ball's value would drop balls from the scan
    geom = GridGeometry((160, 96), (1.0, 0.6), (0.0, 0.0))
    rng = np.random.default_rng(1)
    vals = scale * (np.sin(7 * geom.center_mesh()[0]) + rng.normal(size=(ncomp, 160, 96)))
    f = GridField(geom, vals[0] if ncomp == 1 else vals,
                  *(() if ncomp == 1 else ("vector", ncomp)))
    omega = weight_power(beta)
    scan = campanato_seminorm if kind == "campanato" else morrey_norm
    got, parts = _scan_parts(scan, f, omega, q)
    _assert_bounds_hold(f, omega, parts)
    assert got == _scan_oracle(f, omega, kind, q)


def test_morrey_scan_of_a_field_with_a_wide_range_matches_oracle():
    # one sample of 1 and the rest near 1e-170: rescaling by the largest
    # sample leaves the table entries of the others subnormal, and the
    # bounds must still hold on that table
    geom = GridGeometry((160, 96), (1.0, 0.6), (0.0, 0.0))
    rng = np.random.default_rng(1)
    vals = 1e-170 * (np.sin(7 * geom.center_mesh()[0]) + rng.normal(size=(160, 96)))
    vals[80, 40] = 1.0
    f = GridField(geom, vals)
    for omega in (weight_power(0.5), weight_power(3.0)):
        got, parts = _scan_parts(morrey_norm, f, omega, 1.9)
        assert 0.0 < np.min(parts["data"][parts["data"] > 0]) < 2.0**-1022
        _assert_bounds_hold(f, omega, parts)
        assert got == _scan_oracle(f, omega, "morrey", 1.9)


@pytest.mark.parametrize("q, e", [(1.0, -1020), (1.5, -680)])
def test_morrey_scan_of_subnormal_ball_masses_matches_oracle(monkeypatch, q, e):
    # |f|^q just above 2^-1022, so the table is scanned as it is, while the
    # masses |cell|·Σ_B |f|^q fall below it (the winning one is checked):
    # the products with |cell| and the roots round in absolute terms, the
    # case of the bound's underflow term.  The bounds hold and the scan
    # matches the oracle, also with that term set to 0 (see its comment in
    # morrey_norm): no datum found so far needs it
    geom = GridGeometry((96, 64), (1.0, 64 / 96), (0.0, 0.0))
    rng = np.random.default_rng(1)
    vals = np.ldexp(rng.uniform(0.5, 1.0, geom.cells), e)
    vals[rng.uniform(size=geom.cells) < 0.5] = 0.0
    f = GridField(geom, vals)
    omega = weight_power(1.0)
    for tiny in (function_spaces._TINY, 0.0):
        monkeypatch.setattr(function_spaces, "_TINY", tiny)
        got, parts = _scan_parts(morrey_norm, f, omega, q)
        assert np.array_equal(parts["data"][0], np.abs(vals) ** q)
        masses = (got.value * omega(got.ball.radius)) ** q
        assert 0.0 < masses < 2.0**-1022
        _assert_bounds_hold(f, omega, parts)
        assert got == _scan_oracle(f, omega, "morrey", q)


def test_morrey_norm_of_a_tiny_scalar_field_scales_by_its_factor():
    # |f| of one component is abs(f), not sqrt(f·f), which flushed every
    # sample of this field to 0; a power-of-two factor scales exactly
    geom = GridGeometry((200, 120), (1.0, 1.0), (0.0, 0.0))
    f = GridField.from_function(geom, lambda x, y: np.sin(7 * x))
    tiny = f.with_values(f.values * 2.0 ** -565)
    want = morrey_norm(f, weight_power(0.5))
    got = morrey_norm(tiny, weight_power(0.5))
    assert got.value == 2.0 ** -565 * want.value > 0.0
    assert got.ball == want.ball


def _counting(cells):
    def wrap(values):
        def counted(s):
            cells[0] += s.shape[-2] * s.shape[-1]
            return values(s)
        return counted
    return wrap


def test_bmo_pair_scans_gather_only_balls_that_can_win():
    # the 256^2 pair of regularity-bmo; an unscreened scan gathers all
    # 24 003 553 cells of its 17 877 balls
    p = 1.5
    pp = p / (p - 1.0)
    u = radial_profile(unit_grid(256), None)
    F = manufacture(u, p)
    _, _, radii, fits = function_spaces._sample_balls(u.geometry)
    total = sum(ball_stencil(u.geometry, r).size * int(n) for r, n in zip(radii, fits.sum(axis=0)))
    assert total == 24_003_553
    morrey_cells, campanato_cells, offset_cells = [0], [0], [0]
    _scan_parts(morrey_norm, F, weight_power((2 - p) / pp), pp, _counting(morrey_cells))
    _scan_parts(campanato_seminorm, u, weight_power(0.0), 1.0, _counting(campanato_cells))
    # the bound is taken on shifted data, so an offset keeps it tight
    shifted = GridField(u.geometry, u.values + 1e8)
    _scan_parts(campanato_seminorm, shifted, weight_power(0.0), 1.0, _counting(offset_cells))
    assert morrey_cells[0] <= 0.01 * total
    assert campanato_cells[0] <= 0.02 * total
    assert offset_cells[0] <= 0.02 * total


@pytest.mark.parametrize("beta, q, most", [(0.0, 1.0, 160_000), (-0.2, 3.0, 240_000)])
def test_campanato_scan_of_a_small_bmo_field_gathers_few_cells(beta, q, most):
    # regularity-bmo's u = -log|x - c| at 128^2: 1 491 617 sampled cells.
    # The spread bound alone gathers 797 053 of them at q = 1 and, at q = 3,
    # where it is +inf, all; with the ladder 127 817 and 194 081
    u = radial_profile(unit_grid(128), None)
    cells = [0]
    got, parts = _scan_parts(campanato_seminorm, u, weight_power(beta), q, _counting(cells))
    assert parts["survivors"]
    assert cells[0] <= most
    assert got == _scan_oracle(u, weight_power(beta), "campanato", q)


@pytest.mark.parametrize("scale", [2.0**-565, 2.0**565])
@pytest.mark.parametrize("ncomp", [1, 2])
def test_scans_of_power_of_two_scaled_fields(scale, ncomp):
    # squares and q-th powers of the scaled deviations underflow or overflow
    # (without a warning: the suite makes one an error); the bounds must
    # still hold, the scans match the oracle, and at q = 1 the value and
    # ball are the unscaled ones times the factor.  The Morrey scan at q = 2
    # runs on a rescaled |f|² table: its ball is the unscaled one and its
    # value the unscaled one times the factor, to the rounding of the root
    geom = GridGeometry((96, 64), (1.0, 0.6), (0.0, 0.0))
    log = _log_field(geom).values[0]
    vals = log if ncomp == 1 else np.stack([log, np.sin(7 * geom.center_mesh()[1])])
    f = GridField(geom, vals, *(() if ncomp == 1 else ("vector", ncomp)))
    scaled = f.with_values(f.values * scale)
    for kind, omega, q in (("campanato", weight_power(0.0), 1.0),
                           ("campanato", weight_power(-0.5), 1.5),
                           ("campanato", weight_power(-0.2), 3.0),
                           ("morrey", weight_power(0.5), 1.0),
                           ("morrey", weight_power(0.5), 2.0)):
        scan = campanato_seminorm if kind == "campanato" else morrey_norm
        got, parts = _scan_parts(scan, scaled, omega, q)
        _assert_bounds_hold(scaled, omega, parts)
        want = scan(f, omega, q=q)
        if kind == "morrey" and q == 2.0:
            # the oracle's plain |f|² overflows or underflows here
            assert np.isfinite(parts["data"]).all() and parts["data"].max() < 1.0
            assert got.value == pytest.approx(scale * want.value, rel=1e-15)
            assert got.ball == want.ball and got.balls_scanned == want.balls_scanned
            continue
        assert got == _scan_oracle(scaled, omega, kind, q)
        if q == 1.0:
            assert got.value == scale * want.value > 0.0
            assert got.ball == want.ball


def test_sup_scan_evaluates_balls_whose_bound_ties_the_best(monkeypatch):
    # every ball has value 1; one late ball has bound 2 and is evaluated
    # first (a block of one cell sample), and the first sampled ball, whose
    # bound 1 ties the best found, must still be evaluated and win
    geom = unit_grid(32)
    centers, coords, radii, fits = function_spaces._sample_balls(geom)
    late = centers[np.flatnonzero(fits[:, 0])[-1]]
    monkeypatch.setattr(function_spaces, "_SCAN_BLOCK", 1)
    got = function_spaces._sup_scan(
        geom, weight_power(0.0), np.zeros((1, 32, 32)),
        lambda s: np.ones(s.shape[1]), lambda c, stencil: np.where(c == late, 2.0, 1.0))
    assert got.value == 1.0
    assert got.ball == Ball(tuple(coords[0]), radii[0])


# ---------------------------------------------------------------------------
# envelopes


def test_monotone_envelope_sandwich():
    rep = monotone_envelope([1.0, 0.8, 1.2, 1.1, 2.0], k=1.5)
    assert rep.quasi_increasing
    assert rep.max_ratio == pytest.approx(1.25)


def test_monotone_envelope_detects_violation():
    rep = monotone_envelope([1.0, 0.1, 1.0], k=2.0)
    assert not rep.quasi_increasing
    assert rep.max_ratio == pytest.approx(10.0)


def test_monotone_envelope_input_checks():
    with pytest.raises(InadmissibleParams):
        monotone_envelope([1.0, -1.0], k=2.0)
    with pytest.raises(InadmissibleParams):
        monotone_envelope([1.0, 2.0], k=0.5)


def test_scans_skip_vanishing_weights_and_nan_ratios():
    # omega <= 0 skips a radius and a NaN ratio never wins, as in the loop
    geom = GridGeometry((64, 48), (1.0, 0.75), (0.0, 0.0))
    f = GridField.from_function(geom, lambda x, y: np.sin(4 * x) + y * y)
    h = max(geom.spacing)
    omega = WeightFunction(
        lambda r: np.where(r < 3 * h, -1.0, np.where(r < 6 * h, np.nan, r)), False)
    for kind in ("campanato", "morrey"):
        got = _assert_scan_matches_oracle(f, omega, kind)
        assert got.ball.radius >= 8 * h
    # an infinite value over an infinite weight is a NaN ratio
    inf_first = WeightFunction(lambda r: np.where(r < 3 * h, np.inf, 1.0), False)
    with np.errstate(invalid="ignore"):
        got = function_spaces._sup_scan(
            geom, inf_first, np.zeros((1, 64, 48)), lambda s: np.full(s.shape[1], np.inf),
            lambda c, stencil: np.full(len(c), np.inf))
    assert got.value == math.inf and got.ball.radius == 4 * h
    # |f|³ = 1e450 overflows, but the Morrey scan takes it on a rescaled
    # field: a finite mass over an infinite weight is a zero ratio
    big = constant_field(geom, 1e150)
    got = _assert_scan_matches_oracle(big, inf_first, "morrey", 3.0)
    want = _assert_scan_matches_oracle(constant_field(geom, 1.0), inf_first, "morrey", 3.0)
    assert got.value == pytest.approx(1e150 * want.value, rel=1e-15)
    assert got.ball == want.ball and got.ball.radius > 4 * h
    dead = WeightFunction(lambda r: np.where(r < 6 * h, 0.0, np.nan), False)
    with pytest.raises(NoAdmissibleBalls, match="weight vanished"):
        morrey_norm(f, dead)
