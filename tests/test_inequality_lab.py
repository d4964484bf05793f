import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wulff_lab.errors import (
    BallBelowResolution,
    BallOutsideDomain,
    InadmissibleParams,
    InsufficientRadii,
    ParameterRangeViolation,
    QuasiIncreasingViolation,
    ResidualTooLarge,
)
from wulff_lab.field_grid import Ball, GridField, GridGeometry, ball_average
from wulff_lab.function_spaces import young_power, young_zygmund
from wulff_lab.inequality_lab import (
    FAMILY_VERSION,
    random_field,
    verify_domination,
    verify_energy_inequalities,
    verify_hardy,
    verify_oscillation,
    verify_pointwise,
    verify_pointwise_osc,
    verify_potential_norm_maps,
    verify_regularity_exponents,
    verify_telescope,
)
from wulff_lab.inequality_lab import (
    _check_quasi_increasing,
    _hardy_family,
    _hardy_lhs,
    _hardy_rhs,
    _PiecewisePhi,
)
from wulff_lab.plaplace_solver import manufacture


def unit_grid(cells=48):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def smooth_pair(p, cells=48):
    geom = unit_grid(cells)
    u = GridField.from_function(
        geom, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    return u, manufacture(u, p)


# ---------------------------------------------------------------------------
# reports and field families


def test_report_shapes_and_version():
    rep = verify_telescope(random_field(unit_grid(32), 0), (0.5, 0.5), 0.1, 0.4)
    # the field comes from the caller, so the report carries no family version
    assert rep.family_version is None
    d = rep.to_dict()
    assert "family_version" not in d
    assert d["theorem"] == "telescoping-means"
    assert len(d["samples"]) == 2 and isinstance(d["samples"][0], dict)
    rows = rep.csv_rows()
    assert len(rows) == 2 and rows[0][0] == "telescoping-means"
    assert float(rows[0][4]) == rep.samples[0].ratio


def test_random_field_determinism():
    geom = unit_grid(32)
    for kind in ("fourier", "bumps", "singular"):
        a = random_field(geom, 7, kind)
        b = random_field(geom, 7, kind)
        assert np.array_equal(a.values, b.values)
    assert not np.array_equal(
        random_field(geom, 7).values, random_field(geom, 8).values
    )


def test_random_field_families():
    geom = unit_grid(32)
    f = random_field(geom, 1, "fourier", nonneg=True)
    assert f.values.min() > 0
    s = random_field(geom, 2, "singular")
    assert np.all(np.isfinite(s.values)) and s.values.min() > 0
    with pytest.raises(ValueError):
        random_field(geom, 0, "perlin")
    m = random_field(geom, 3, shape="matrix")
    assert m.kind == "matrix" and m.ncomp == 2


def _fourier_oracle(geom, seed, ncomp=1):
    """The ``fourier`` family as the fields-1 wave-vector loop: one cosine
    wave cos(2π k·x̂ + φ) per wave vector, added one at a time."""
    rng = np.random.default_rng(seed)
    mesh = geom.center_mesh()
    n = geom.dim
    xhat = [(mesh[d] - geom.origin[d]) / geom.extent[d] for d in range(n)]
    comps = []
    for _ in range(ncomp):
        v = np.zeros(geom.cells)
        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                kk = (k1, k2) + (0,) * (n - 2)
                k2norm = k1 * k1 + k2 * k2
                if k2norm == 0 or k2norm > 36:
                    continue
                amp = rng.normal() / (1.0 + k2norm)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                arg = 2.0 * np.pi * sum(kk[d] * xhat[d] for d in range(n))
                v = v + amp * np.cos(arg + phase)
        comps.append(v)
    return np.stack(comps)


@pytest.mark.parametrize("geom, shape, ncomp", [
    (unit_grid(128), "scalar", 1),
    (unit_grid(256), "scalar", 1),
    (GridGeometry((96, 160), (1.0, 0.6), (-0.3, 0.2)), "scalar", 1),
    # a second component continues the random stream of the first
    (GridGeometry((40, 24), (1.0, 0.6), (-0.3, 0.2)), "matrix", 2),
    # constant along the third axis
    (GridGeometry((20, 16, 6), (1.0, 0.8, 0.3), (0.0, -0.4, 0.1)), "scalar", 1),
])
def test_fourier_matches_wave_vector_loop(geom, shape, ncomp):
    got = random_field(geom, 5, "fourier", shape=shape).values
    want = _fourier_oracle(geom, 5, ncomp)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _bumps_oracle(geom, seed, ncomp=1):
    """The ``bumps`` family as the fields-1 full-mesh sum: one Gaussian
    exp(−|x − c|²/2w²) over the whole cell-center mesh per bump."""
    rng = np.random.default_rng(seed)
    mesh = geom.center_mesh()
    n = geom.dim
    comps = []
    for _ in range(ncomp):
        v = np.zeros(geom.cells)
        for _b in range(5):
            c = [geom.origin[d] + geom.extent[d] * rng.uniform(0.15, 0.85)
                 for d in range(n)]
            w = rng.uniform(0.04, 0.18) * min(geom.extent)
            amp = rng.normal()
            d2 = sum((mesh[d] - c[d]) ** 2 for d in range(n))
            v = v + amp * np.exp(-d2 / (2.0 * w * w))
        comps.append(v)
    return np.stack(comps)


# sha256 of the float64 samples of random_field(unit_grid(32), 7, "bumps",
# shape=shape) as the fields-1 and fields-2 generators wrote them
_FIELDS_1_BUMPS_DIGESTS = {
    "scalar": "b6826748d49355b66c46754c3af5265c91519aa8dfb847f839fdfc8184c317ce",
    "matrix": "154ed58241bcf7a7d9dd042cb088d893c658ee8ba3cce2207c257c41d0adc49a",
}


@pytest.mark.parametrize("geom, shape, ncomp", [
    (unit_grid(32), "scalar", 1),
    (unit_grid(32), "matrix", 2),
    (unit_grid(128), "scalar", 1),
    (GridGeometry((96, 160), (1.0, 0.6), (-0.3, 0.2)), "scalar", 1),
    (GridGeometry((700, 300), (3.0, 0.01), (0.0, 0.0)), "scalar", 1),
    (GridGeometry((20, 16, 6), (1.0, 0.8, 0.3), (0.0, -0.4, 0.1)), "scalar", 1),
])
def test_bumps_matches_per_bump_sum(geom, shape, ncomp):
    want = _bumps_oracle(geom, 7, ncomp)
    if geom == unit_grid(32):
        # the oracle is the generator of fields-1 and fields-2, byte for byte
        assert hashlib.sha256(want.tobytes()).hexdigest() == _FIELDS_1_BUMPS_DIGESTS[shape]
    got = random_field(geom, 7, "bumps", shape=shape).values
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# sha256 of the float64 samples of random_field(unit_grid(32), 7, kind,
# shape=shape): ``singular`` as the fields-1 generator wrote it (it draws and
# evaluates as before, so its samples stay byte-identical), ``bumps`` as the
# separable fields-3 evaluation writes it
_FIELD_DIGESTS = {
    ("bumps", "scalar"): "7678934439cd9b7786c9f46b5321c155e152c557de3e69f4066dcc83d2ff34d1",
    ("bumps", "matrix"): "f15725953c9920c68752d094e866998996ce97fe1fa2dbded5c479eb906a70c6",
    ("singular", "scalar"): "31584ef1d1c2655fef103d81ae64a80ee1e5fc6fb0e67ee169e7bb84b25a4dad",
    ("singular", "matrix"): "8d704e621f103161ec4bb842f19a3a9a966b390e3122dd5361341de17e35caae",
}


@pytest.mark.parametrize("kind, shape", sorted(_FIELD_DIGESTS))
def test_bumps_and_singular_are_byte_identical(kind, shape):
    values = random_field(unit_grid(32), 7, kind, shape=shape).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == _FIELD_DIGESTS[kind, shape]


# ---------------------------------------------------------------------------
# telescoping means


def test_telescope_holds_on_smooth_field():
    f = random_field(unit_grid(64), 11, "fourier")
    rep = verify_telescope(f, (0.5, 0.5), 0.05, 0.4)
    assert rep.passed
    assert all(s.ratio <= 1.10 for s in rep.samples)
    assert {s.label for s in rep.samples} == {"means-of-f", "means-of-|f|"}


def test_telescope_trivial_and_constant():
    f = random_field(unit_grid(32), 0, "bumps")
    rep = verify_telescope(f, (0.5, 0.5), 0.2, 0.2)
    assert rep.passed and rep.c_star == 0.0
    const = GridField.constant(unit_grid(32), 4.0)
    rep2 = verify_telescope(const, (0.5, 0.5), 0.1, 0.4)
    assert rep2.passed and rep2.c_star == 0.0


def test_telescope_input_validation():
    f = random_field(unit_grid(32), 0)
    with pytest.raises(BallBelowResolution):
        verify_telescope(f, (0.5, 0.5), 0.01, 0.4)
    with pytest.raises(BallOutsideDomain):
        verify_telescope(f, (0.5, 0.5), 0.3, 0.2)
    with pytest.raises(BallOutsideDomain):
        verify_telescope(f, (0.9, 0.9), 0.1, 0.4)


def test_telescope_means_agree_with_ball_average():
    # r = 5h is a tie radius here: the former sqrt-distance table counted 131
    # cells in B_r(x) where ball_cells counts 129, a 10% error in means-of-f
    geom = GridGeometry((128, 128), (1.0, 0.6), (0.0, 0.0))
    f = random_field(geom, 2, "bumps")
    x, r, R = (0.04296875, 0.04453125), 5.0 * max(geom.spacing), 0.042
    rep = verify_telescope(f, x, r, R)
    lhs = next(s.lhs for s in rep.samples if s.label == "means-of-f")
    expected = abs(ball_average(f, Ball(x, r))[0] - ball_average(f, Ball(x, R))[0])
    assert lhs == pytest.approx(expected, rel=1e-14, abs=0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), frac=st.floats(0.15, 0.9))
def test_telescope_property_random_bumps(seed, frac):
    f = random_field(unit_grid(48), seed, "bumps", bumps=3)
    R = 0.4
    rep = verify_telescope(f, (0.5, 0.5), max(frac * R, 2.0 / 48 * 1.01), R)
    assert rep.passed


# ---------------------------------------------------------------------------
# Hardy inequalities


def test_hardy_fubini_identity():
    rep = verify_hardy("i", 1.0, 0.0, samples=12, seed=3)
    assert rep.passed
    for s in rep.samples:
        assert s.ratio == pytest.approx(1.0, abs=1e-10)
    assert rep.c_star == pytest.approx(1.0, abs=1e-10)


def test_hardy_beta_function_instance():
    # φ ≡ 1 on (0, 2], case ii-near with q = 1/2, α = −2: the LHS is a Beta
    # integral, (∫_0^1 (1/s − 1)^{1/2} ds)^2 = (π/2)^2, and the RHS is
    # (∫_0^2 s^{−1/2} ds)^2 = 8
    phi = _PiecewisePhi(np.array([0.0, 2.0]), np.array([1.0]))
    lhs = _hardy_lhs(phi, 0.5, -2.0, 1.0)
    rhs = _hardy_rhs(phi, 0.5, -2.0, 2.0)
    assert lhs == pytest.approx((math.pi / 2.0) ** 2, rel=1e-9)
    assert rhs == pytest.approx(8.0, rel=1e-12)
    assert lhs / rhs == pytest.approx((math.pi / 2.0) ** 2 / 8.0, rel=1e-9)


@pytest.mark.parametrize("case, q, alpha", [
    ("i", 2.0, -0.3), ("i", 1.0, -1.0), ("ii-far", 0.5, -3.5),
    ("ii-near", 0.5, -2.0), ("ii-near", 0.7, -1.5),
])
def test_hardy_ratio_is_dilation_invariant(case, q, alpha):
    # φ(r/a) scales both sides by a^{α+1+1/q}, so verify_hardy checks φ on the
    # unit scale only
    upper, rhs_up = (1.0, 2.0) if case == "ii-near" else (math.inf, math.inf)
    for phi in _hardy_family(case, 2.0, 5, 3, alpha):
        ratio = _hardy_lhs(phi, q, alpha, upper) / _hardy_rhs(phi, q, alpha, rhs_up)
        for a in (0.2, 2.5, 40.0):
            wide = _PiecewisePhi(phi.breaks * a, phi.values, phi.tail)
            got = (_hardy_lhs(wide, q, alpha, upper * a)
                   / _hardy_rhs(wide, q, alpha, rhs_up * a))
            assert got == pytest.approx(ratio, rel=1e-12)


def test_hardy_random_ensembles_hold():
    far = verify_hardy("ii-far", 0.5, -3.5, samples=10, seed=1)
    assert far.passed and math.isfinite(far.c_star)
    near = verify_hardy("ii-near", 0.5, -2.5, samples=10, seed=2)
    assert near.passed and math.isfinite(near.c_star)


def test_hardy_determinism():
    a = verify_hardy("ii-far", 0.5, -3.5, samples=6, seed=9)
    b = verify_hardy("ii-far", 0.5, -3.5, samples=6, seed=9)
    assert [s.ratio for s in a.samples] == [s.ratio for s in b.samples]


def test_hardy_parameter_ranges():
    with pytest.raises(ParameterRangeViolation):
        verify_hardy("i", 0.5, 0.0)
    with pytest.raises(ParameterRangeViolation):
        verify_hardy("ii-far", 1.2, -4.0)
    with pytest.raises(ParameterRangeViolation):
        verify_hardy("ii-far", 0.5, -2.9)  # needs alpha < -3
    with pytest.raises(ParameterRangeViolation):
        verify_hardy("ii-near", 0.5, -0.9)  # needs alpha < -1
    with pytest.raises(ParameterRangeViolation):
        verify_hardy("iii", 0.5, -2.0)
    with pytest.raises(ParameterRangeViolation):
        verify_hardy("ii-far", 0.5, -3.5, k=0.5)


def test_quasi_increasing_gate():
    phi = _PiecewisePhi(np.array([0.0, 1.0, 2.0, 3.0]),
                        np.array([2.0, 1.0, 0.4]))
    with pytest.raises(QuasiIncreasingViolation):
        _check_quasi_increasing(phi, 2.0)
    ok = _PiecewisePhi(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.6]))
    _check_quasi_increasing(ok, 2.0)
    interior_zero = _PiecewisePhi(np.array([0.0, 1.0, 2.0, 3.0]),
                                  np.array([1.0, 0.0, 1.0]))
    with pytest.raises(QuasiIncreasingViolation):
        _check_quasi_increasing(interior_zero, 2.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_hardy_fubini_property(seed):
    rep = verify_hardy("i", 1.0, 0.0, samples=3, seed=seed)
    assert rep.c_star == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# pointwise estimates


def test_pointwise_report_and_scale_invariance():
    p = 1.5
    u, F = smooth_pair(p)
    pts = [(0.4, 0.55), (0.6, 0.35)]
    rep = verify_pointwise(u, F, p, 0.2, pts)
    assert rep.passed and math.isfinite(rep.c_star) and rep.c_star > 0
    u3 = u.with_values(3.0 * u.values)
    F3 = F.with_values(3.0 ** (p - 1.0) * F.values)
    rep3 = verify_pointwise(u3, F3, p, 0.2, pts)
    for a, b in zip(rep.samples, rep3.samples):
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


_OSC_POINTS = [(0.4, 0.55), (0.6, 0.35), (0.5, 0.5)]


@functools.lru_cache(maxsize=None)
def _osc_base(p):
    u, F = smooth_pair(p)
    return u, F, verify_pointwise_osc(u, F, p, 0.2, _OSC_POINTS)


@settings(max_examples=12, deadline=None)
@given(p=st.sampled_from([1.5, 2.0, 3.0]), lam=st.floats(0.25, 4.0))
def test_pointwise_osc_scale_invariance(p, lam):
    # both sides are 1-homogeneous under (u, F) -> (lam u, lam^(p-1) F)
    u, F, base = _osc_base(p)
    rep = verify_pointwise_osc(u.with_values(lam * u.values),
                               F.with_values(lam ** (p - 1.0) * F.values),
                               p, 0.2, _OSC_POINTS)
    assert rep.passed and base.passed
    for a, b in zip(base.samples, rep.samples):
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


def test_pointwise_osc_dominated_by_wulff():
    u, F = smooth_pair(2.0)
    rep = verify_pointwise_osc(u, F, 2.0, 0.2, [(0.5, 0.5), (0.3, 0.6)])
    assert rep.passed
    assert "ok" in rep.notes[0]


def test_residual_gate_rejects_mismatched_pairs():
    u, F = smooth_pair(2.0)
    # doubling F doubles div F, so u no longer solves the system (a constant
    # shift would be divergence-free and must NOT trip the gate)
    bad = F.with_values(2.0 * F.values)
    with pytest.raises(ResidualTooLarge) as e:
        verify_pointwise(u, bad, 2.0, 0.2, [(0.5, 0.5)])
    assert e.value.residual > 1e-5
    shifted = F.with_values(F.values + 0.5)
    rep = verify_pointwise(u, shifted, 2.0, 0.2, [(0.5, 0.5)])
    assert rep.passed


def test_pointwise_ball_must_fit():
    u, F = smooth_pair(2.0)
    with pytest.raises(BallOutsideDomain):
        verify_pointwise(u, F, 2.0, 0.3, [(0.9, 0.9)])


def test_oscillation_decay():
    u, F = smooth_pair(2.0, cells=64)
    rep = verify_oscillation(u, F, 2.0, (0.5, 0.5), 0.25)
    assert rep.passed and len(rep.samples) >= 3
    assert math.isfinite(rep.c_star)


def test_oscillation_radii_validation():
    u, F = smooth_pair(2.0)
    with pytest.raises(InsufficientRadii):
        verify_oscillation(u, F, 2.0, (0.5, 0.5), 0.01)


def test_energy_inequalities():
    u, F = smooth_pair(2.0)
    rep = verify_energy_inequalities(u, F, 2.0, (0.5, 0.5), 0.3)
    assert rep.passed and len(rep.samples) == 3
    assert all(s.rhs > 0 for s in rep.samples)
    labels = {s.label for s in rep.samples}
    assert "caccioppoli" in " ".join(labels)
    with pytest.raises(ParameterRangeViolation):
        verify_energy_inequalities(u, F, 2.0, (0.5, 0.5), 0.3, q=0.5)


# ---------------------------------------------------------------------------
# potential domination and norm maps


def test_domination_small_ensemble():
    rep = verify_domination(unit_grid(48), 0.5, 3.0, samples=4, seed=0)
    assert rep.passed and math.isfinite(rep.c_star) and rep.c_star > 0
    assert rep.params["alpha"] == 0.5 and rep.params["samples"] == 4


def test_domination_threads_equivalence():
    a = verify_domination(unit_grid(32), 0.5, 3.0, samples=3, seed=1, threads=1)
    b = verify_domination(unit_grid(32), 0.5, 3.0, samples=3, seed=1, threads=2)
    # its samples are random_field draws
    assert a.family_version == FAMILY_VERSION
    assert a.to_dict()["family_version"] == FAMILY_VERSION
    assert [s.ratio for s in a.samples] == [s.ratio for s in b.samples]


def test_domination_rejects_supercritical():
    with pytest.raises(InadmissibleParams):
        verify_domination(unit_grid(32), 1.5, 2.0)


def test_norm_maps_run_and_pass():
    geom = unit_grid(32)
    a1 = verify_potential_norm_maps("A-i", 0.5, 3.0, geom, sigma=1.2,
                                    rho=2.0, samples=3, seed=0)
    assert a1.passed and math.isfinite(a1.c_star)
    a3 = verify_potential_norm_maps("A-iii", 0.6, 2.5, geom, rho=1.0,
                                    samples=3, seed=0)
    assert a3.passed and math.isfinite(a3.c_star)
    a4 = verify_potential_norm_maps("A-iv", 0.6, 2.5, geom, rho=0.5,
                                    samples=3, seed=0)
    assert a4.passed and math.isfinite(a4.c_star)
    b = verify_potential_norm_maps("B", 0.6, 2.5, geom,
                                   A=young_power(7 / 6), B=young_power(28 / 3),
                                   samples=2, seed=0)
    assert b.passed and math.isfinite(b.c_star)
    assert "balance holds" in b.notes[0]


def test_norm_maps_admissibility():
    geom = unit_grid(32)
    with pytest.raises(InadmissibleParams):
        verify_potential_norm_maps("A-i", 0.5, 3.0, geom, sigma=3.0)
    with pytest.raises(InadmissibleParams):
        verify_potential_norm_maps("A-iii", 0.6, 2.5, geom, rho=0.5)
    with pytest.raises(InadmissibleParams):
        verify_potential_norm_maps("A-iv", 0.6, 2.5, geom, rho=1.0)
    with pytest.raises(InadmissibleParams):
        verify_potential_norm_maps("B", 0.6, 2.5, geom)
    with pytest.raises(InadmissibleParams):
        verify_potential_norm_maps("B", 0.6, 2.5, geom,
                                   A=young_power(7 / 6),
                                   B=young_zygmund(28 / 3, 1.0))
    with pytest.raises(InadmissibleParams):
        verify_potential_norm_maps("A-ii", 0.5, 3.0, geom)
    with pytest.raises(InadmissibleParams):
        verify_potential_norm_maps("A-i", 1.5, 2.0, geom, sigma=1.2)


# ---------------------------------------------------------------------------
# regularity exponents


def test_regularity_holder_fit():
    rep = verify_regularity_exponents("holder", 2.0, q=4.0, cells=128)
    assert rep.passed
    assert rep.params["kappa"] == pytest.approx(0.5)
    assert abs(rep.params["slope"] - 0.5) <= rep.params["band"]


def test_regularity_parameter_ranges():
    with pytest.raises(ParameterRangeViolation):
        verify_regularity_exponents("holder", 2.0, q=1.5)
    with pytest.raises(ParameterRangeViolation):
        verify_regularity_exponents("bmo", 2.5)
    with pytest.raises(ParameterRangeViolation):
        verify_regularity_exponents("lorentz", 1.5, q=3.0)
    with pytest.raises(ParameterRangeViolation):
        verify_regularity_exponents("lipschitz", 2.0, beta=-0.1)
    with pytest.raises(ParameterRangeViolation):
        verify_regularity_exponents("sobolev", 2.0)
