import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import FIELD_RTOL, constant_field, golden_field

from wulff_lab.errors import (
    BallBelowResolution,
    BallOutsideDomain,
    DimensionMismatch,
    FinitenessFailure,
    InadmissibleParams,
    InsufficientRadii,
    QuasiIncreasingViolation,
    ResidualTooLarge,
)
from wulff_lab.field_grid import (
    Ball,
    GridField,
    GridGeometry,
    NestedBalls,
    ball_average,
    ball_cells,
    nested_balls,
    shell_plan,
)
from wulff_lab import field_grid
from wulff_lab.function_spaces import young_power, young_zygmund
from wulff_lab.inequality_lab import (
    FAMILY_VERSION,
    GatedPair,
    gate_pair,
    pointwise_terms,
    potential_norm_part,
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
    _assemble,
    _check_quasi_increasing,
    _hardy_family,
    _hardy_lhs,
    _hardy_rhs,
    _PiecewisePhi,
    _record,
    _telescope_block,
)
from wulff_lab.plaplace_solver import manufacture
from wulff_lab.potential_engine import (
    PotentialParams,
    RadialQuadrature,
    _point_plan,
    oscillation_potential,
    wulff_potential,
)


def unit_grid(cells=48):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def smooth_pair(p, cells=48):
    """sin·sin and its manufactured datum, gated at the command-line default."""
    geom = unit_grid(cells)
    u = GridField.from_function(
        geom, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    return gate_pair(u, manufacture(u, p), p, 1e-5)


# ---------------------------------------------------------------------------
# reports and field families


def test_report_shapes_and_version():
    rep = verify_telescope(unit_grid(32), (0.5, 0.5), 0.1, 0.4, samples=1)
    # the fields come from random_field, so the report carries its version
    assert rep.family_version == FAMILY_VERSION
    d = rep.to_dict()
    assert d["family_version"] == FAMILY_VERSION
    assert d["theorem"] == "telescoping-means"
    assert len(d["samples"]) == 2 and isinstance(d["samples"][0], dict)
    rows = rep.csv_rows()
    assert len(rows) == 2 and rows[0][0] == "telescoping-means"
    assert float(rows[0][4]) == rep.samples[0].ratio
    # Hardy draws no random_field, so its report has no version key
    hardy = verify_hardy("i", 1.0, 0.0, samples=2, seed=0)
    assert hardy.family_version is None
    assert "family_version" not in hardy.to_dict()


def test_a_sample_with_a_nan_side_fails_the_report_wherever_it_is():
    # max() keeps a nan ratio only when it comes first; a side that is nan
    # makes the ratio nan (a zero lhs over a nan rhs read 0.0, a nan lhs over
    # 0 read inf), and the sample's row shows it
    finite = [_record("a", 1.0, 2.0), _record("c", 3.0, 4.0)]
    for bad in (_record("b", math.nan, 1.0), _record("b", 0.0, math.nan),
                _record("b", 1.0, math.nan), _record("b", math.nan, 0.0)):
        assert math.isnan(bad.ratio), bad
        for at in range(len(finite) + 1):
            rep = _assemble("t", {}, finite[:at] + [bad] + finite[at:], [])
            assert not rep.passed and math.isnan(rep.c_star), (bad, at)
            assert rep.csv_rows()[at][4] == "nan"
    rep = _assemble("t", {}, finite, [])
    assert rep.passed and rep.c_star == 0.75
    # a positive lhs over a rhs <= 0 has ratio inf, so it fails the report
    assert not _assemble("t", {}, finite + [_record("d", 1.0, -1.0)], []).passed


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
    with pytest.raises(InadmissibleParams):
        random_field(geom, 0, "perlin")
    m = random_field(geom, 3, shape="matrix")
    assert m.kind == "matrix" and m.ncomp == 2


def _separable_oracle(component, geom, seed, ncomp):
    """The components of a seeded field, one ``component(geom, rng)`` call
    each, as ``random_field`` stacks them."""
    rng = np.random.default_rng(seed)
    return np.stack([component(geom, rng) for _ in range(ncomp)])


def _fourier_loop(geom, rng):
    """One fields-3 ``fourier`` component as it was first written: amp and φ
    drawn in a double loop over k₁ and k₂, the cos/sin tables built per
    call, the waves summed through the 13×13 matrix C."""
    amp = np.zeros((13, 13))
    phase = np.zeros((13, 13))
    for k1 in range(-6, 7):
        for k2 in range(-6, 7):
            k2norm = k1 * k1 + k2 * k2
            if k2norm == 0 or k2norm > 36:
                continue
            amp[k1 + 6, k2 + 6] = rng.standard_normal() / (1.0 + k2norm)
            phase[k1 + 6, k2 + 6] = 2.0 * math.pi * rng.random()
    c_re, c_im = amp * np.cos(phase), amp * np.sin(phase)
    k = np.arange(-6, 7)
    t1, t2 = (2.0 * math.pi * np.outer(k, (geom.axis_centers(d) - geom.origin[d])
                                       / geom.extent[d]) for d in (0, 1))
    cos2, sin2 = np.cos(t2), np.sin(t2)
    ce_re = np.einsum("kl,lj->kj", c_re, cos2) - np.einsum("kl,lj->kj", c_im, sin2)
    ce_im = np.einsum("kl,lj->kj", c_re, sin2) + np.einsum("kl,lj->kj", c_im, cos2)
    v = np.einsum("ki,kj->ij", np.cos(t1), ce_re) - np.einsum("ki,kj->ij", np.sin(t1), ce_im)
    return np.broadcast_to(v.reshape(v.shape + (1,) * (geom.dim - 2)), geom.cells)


def _bumps_loop(geom, rng, bumps=5):
    """One fields-3 ``bumps`` component as it was first written: each bump's
    per-axis factors, amp on the first, multiplied out with
    ``np.multiply.outer`` and added to the sum one bump at a time."""
    v = np.zeros(geom.cells)
    axes = [geom.axis_centers(d) for d in range(geom.dim)]
    for _b in range(bumps):
        c = [geom.origin[d] + geom.extent[d] * rng.uniform(0.15, 0.85)
             for d in range(geom.dim)]
        w = rng.uniform(0.04, 0.18) * min(geom.extent)
        amp = rng.normal()
        factors = [np.exp(-(axes[d] - c[d]) ** 2 / (2.0 * w * w))
                   for d in range(geom.dim)]
        factors[0] = amp * factors[0]
        v += functools.reduce(np.multiply.outer, factors)
    return v


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
    assert np.array_equal(got, _separable_oracle(_fourier_loop, geom, 5, ncomp))
    # the separable sum differs from the full-mesh sum of fields-1 by round-off
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
        # the oracle is the generator of fields-1 and fields-2: golden
        # "fields-1-bumps-*" holds the samples those generators wrote
        np.testing.assert_allclose(want, golden_field(f"fields-1-bumps-{shape}"),
                                   rtol=FIELD_RTOL, atol=0.0)
    got = random_field(geom, 7, "bumps", shape=shape).values
    assert np.array_equal(got, _separable_oracle(_bumps_loop, geom, 7, ncomp))
    # the separable sum differs from the full-mesh sum of fields-1 by round-off
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("geom", [
    unit_grid(32),
    GridGeometry((17, 5), (1.0, 1.0), (0.0, 0.0)),
    GridGeometry((20, 16, 6), (1.0, 0.8, 0.3), (0.0, -0.4, 0.1)),
], ids=["32x32", "17x5", "20x16x6"])
@pytest.mark.parametrize("kind, loop", [("fourier", _fourier_loop), ("bumps", _bumps_loop)],
                         ids=["fourier", "bumps"])
def test_draws_equal_their_loops_over_seeds(geom, kind, loop):
    for seed in range(40):
        got = random_field(geom, seed, kind).values
        assert np.array_equal(got, _separable_oracle(loop, geom, seed, 1)), seed


def test_wave_tables_are_cached_and_read_only():
    from wulff_lab.inequality_lab import _wave_tables

    geom = GridGeometry((24, 40), (1.0, 0.6), (-0.3, 0.2))
    tables = _wave_tables(geom)
    assert _wave_tables(GridGeometry((24, 40), (1.0, 0.6), (-0.3, 0.2))) is tables
    assert [t.shape for t in tables] == [(13, 24), (13, 24), (13, 40), (13, 40)]
    for t in tables:
        with pytest.raises(ValueError):
            t[0, 0] = 1.0


# golden "<kind>-<shape>" holds the samples of random_field(unit_grid(32), 7,
# kind, shape=shape): ``singular`` as the fields-1 generator wrote it (it draws
# and evaluates as before), ``bumps`` as the separable fields-3 evaluation
# writes it.  Both go through numpy's vectorized exp and power, whose last
# bits depend on the SIMD kernels numpy dispatches, hence the tolerance
@pytest.mark.parametrize("kind, shape", [("bumps", "matrix"), ("bumps", "scalar"),
                                         ("singular", "matrix"), ("singular", "scalar")])
def test_bumps_and_singular_match_their_golden(kind, shape):
    values = random_field(unit_grid(32), 7, kind, shape=shape).values
    np.testing.assert_allclose(values, golden_field(f"{kind}-{shape}"), rtol=FIELD_RTOL, atol=0.0)


# fourier at 32², seed 7, taken while it drew with normal() and uniform(0, 2π)
_FOURIER_DIGESTS = {
    "scalar": "bf8313ef52254b39601abb1f61a0d0e7791654e34251e85cb1330fb6ac6fc66d",
    "matrix": "e9e23428acf68d4ae09513f152785718dcf4575d0bcda23620264992214004a3",
}


@pytest.mark.parametrize("shape", sorted(_FOURIER_DIGESTS))
def test_fourier_is_byte_identical(shape):
    values = random_field(unit_grid(32), 7, "fourier", shape=shape).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == _FOURIER_DIGESTS[shape]


# ---------------------------------------------------------------------------
# telescoping means


def telescope(f, x, r, R):
    """The two telescope records of ``f`` as field f[0] of a battery: a
    block of one field."""
    quad = RadialQuadrature.log_spaced(r, R) if r < R * (1 - 1e-12) else None
    plan = shell_plan(f.geometry, x, [r, R, *(quad.radii if quad is not None else ())])
    vals = np.empty((2, 1, plan.cells.size))
    vals[0, 0] = plan.gather(f).values[0]
    return _telescope_block(vals, plan.counts, quad, f.geometry.dim, 0)


def _telescope_samples(balls, i, quad, n):
    """The two telescope records of field ``f[i]`` on an n-dimensional grid
    from its samples on B_r, B_R and B_ρ, ρ in ``quad.radii`` (None when
    r = R), in that order, as the telescope took them one field at a time."""
    means = balls.means()
    mags = np.sqrt(np.einsum("ck,ck->k", balls.values, balls.values))
    mean_abs = NestedBalls(mags[np.newaxis], balls.counts).means()[0]
    if quad is not None:
        # only the quadrature radii: the sweep at R would cover all of B_R(x)
        osc = NestedBalls(balls.values, balls.counts[2:]).oscillations(1.0)
        integral = float(sum(w * o for w, o in zip(quad.weights, osc)))
    else:
        integral = 0.0
    return [
        _record(f"f[{i}]:means-of-f", float(np.linalg.norm(means[:, 0] - means[:, 1])),
                2.0 ** (2 * n + 2) * integral),
        _record(f"f[{i}]:means-of-|f|", abs(mean_abs[0] - mean_abs[1]),
                2.0 ** (2 * n + 3) * integral),
    ]


def _telescope_oracle(f, i, x, r, R, allowance):
    """The report of field f[i] alone, as the telescope made it when it took
    a field."""
    n = f.geometry.dim
    x = tuple(float(c) for c in x)
    quad = RadialQuadrature.log_spaced(r, R) if r < R * (1 - 1e-12) else None
    balls = nested_balls(f, x, [r, R, *(quad.radii if quad is not None else ())])
    samples = _telescope_samples(balls, i, quad, n)
    c1, c2 = 2.0 ** (2 * n + 2), 2.0 ** (2 * n + 3)
    notes = [f"explicit constants 2^(2n+2)={c1:g}, 2^(2n+3)={c2:g} with "
             f"{allowance:.0%} quadrature allowance"]
    return _assemble("telescoping-means",
                     {"x": x, "r": r, "R": R, "n": n, "allowance": allowance},
                     samples, notes,
                     extra_pass=all(s.ratio <= 1.0 + allowance for s in samples))


def _merge(theorem, params, reports):
    """Per-field reports flattened into one, as the command line merged them
    when it drew the telescope's fields."""
    samples = []
    notes = []
    for rep in reports:
        samples.extend(rep.samples)
        for note in rep.notes:
            if note not in notes:
                notes.append(note)
    return _assemble(theorem, params, samples, notes,
                     extra_pass=all(r.passed for r in reports), seeded=True)


def _battery_matches_merged_fields(geom, x, r, R, allowance, samples, seed=4):
    """verify_telescope against the merged reports of its fields, checked one
    at a time by the oracle; the sizes of the blocks it checked."""
    import wulff_lab.inequality_lab as iq

    kinds = ("fourier", "bumps")
    reports = [_telescope_oracle(random_field(geom, seed + i, kinds[i % 2]), i, x, r, R,
                                 allowance)
               for i in range(samples)]
    expected = _merge("telescoping-means",
                      {"x": x, "r": r, "R": R, "samples": samples, "seed": seed,
                       "allowance": allowance}, reports)
    blocks = []
    real = iq._telescope_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iq, "_telescope_block",
                   lambda vals, *a: blocks.append(vals.shape[1]) or real(vals, *a))
        got = verify_telescope(geom, x, r, R, samples=samples, seed=seed,
                               allowance=allowance)
    assert got.to_dict() == expected.to_dict()
    assert got.passed == (allowance > 0)
    return blocks


@pytest.mark.parametrize("x, r, R, allowance", [
    ((0.5, 0.5), 0.1, 0.4, 0.10),
    ((0.45, 0.55), 0.2, 0.2, 0.10),
    ((0.5, 0.5), 0.1, 0.4, -0.999),
])
def test_telescope_battery_matches_merged_fields(x, r, R, allowance):
    # the default budget holds all 5 fields in one block
    assert _battery_matches_merged_fields(unit_grid(32), x, r, R, allowance, 5) == [5]


# a block of 4 fields: the budget is set from each case's shell plan
_BLOCK = 4


@pytest.mark.parametrize("geom, x, r, R, allowance", [
    (unit_grid(32), (0.5, 0.5), 0.1, 0.4, 0.10),
    (unit_grid(32), (0.45, 0.55), 0.2, 0.2, 0.10),
    (unit_grid(32), (0.5, 0.5), 0.1, 0.4, -0.999),
    (GridGeometry((40, 24), (1.0, 0.6), (-0.3, 0.2)), (0.2, 0.5), 0.06, 0.25, 0.10),
    (GridGeometry((20, 16, 12), (1.0, 0.8, 0.6), (0.0, 0.0, 0.0)), (0.5, 0.4, 0.3),
     0.1, 0.25, 0.10),
], ids=["r<R", "r=R", "failing", "non-square", "3-d"])
@pytest.mark.parametrize("samples", [1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 3])
def test_telescope_blocks_match_merged_fields(monkeypatch, geom, x, r, R, allowance,
                                              samples):
    import wulff_lab.inequality_lab as iq

    quad = RadialQuadrature.log_spaced(r, R) if r < R * (1 - 1e-12) else None
    cells = shell_plan(geom, x, [r, R, *(quad.radii if quad is not None else ())]).cells.size
    monkeypatch.setattr(iq, "_TELESCOPE_BLOCK", _BLOCK * cells + cells // 2)
    blocks = _battery_matches_merged_fields(geom, x, r, R, allowance, samples)
    assert blocks == [_BLOCK] * (samples // _BLOCK) + [samples % _BLOCK] * (samples % _BLOCK > 0)


def test_telescope_block_fits_the_value_budget(monkeypatch):
    # 128², R = 0.4: about 8.2k cells of B_R(x) per field, several fields
    # per block
    import wulff_lab.inequality_lab as iq

    geom = unit_grid(128)
    block = iq._TELESCOPE_BLOCK // shell_plan(geom, (0.5, 0.5), [0.05, 0.4]).cells.size
    assert 1 < block < 100
    sizes = []
    real = iq._telescope_block
    monkeypatch.setattr(iq, "_telescope_block",
                        lambda vals, *a: sizes.append(vals.shape[1]) or real(vals, *a))
    verify_telescope(geom, (0.5, 0.5), 0.05, 0.4, samples=block + 1, seed=0)
    assert sizes == [block, 1]


def test_telescope_builds_one_shell_plan(monkeypatch):
    # the balls depend on the grid, x and the radii alone, not on the field
    import wulff_lab.inequality_lab as iq

    plans = []
    real = iq.shell_plan
    monkeypatch.setattr(iq, "shell_plan", lambda *a: plans.append(a) or real(*a))
    rep = verify_telescope(unit_grid(32), (0.5, 0.5), 0.1, 0.4, samples=6, seed=2)
    assert len(plans) == 1 and len(rep.samples) == 12


def test_telescope_never_enters_the_thread_pool(monkeypatch):
    # its small per-field numpy calls hold the GIL: the fields run in the
    # calling thread
    import wulff_lab.inequality_lab as iq

    def refuse(fn, items, threads):
        raise AssertionError("verify_telescope entered _parallel_map")

    monkeypatch.setattr(iq, "_parallel_map", refuse)
    rep = verify_telescope(unit_grid(32), (0.5, 0.5), 0.1, 0.4, samples=6, seed=2)
    assert len(rep.samples) == 12


def test_telescope_holds_on_smooth_field():
    f = random_field(unit_grid(64), 11, "fourier")
    recs = telescope(f, (0.5, 0.5), 0.05, 0.4)
    assert all(s.ratio <= 1.10 for s in recs)
    assert [s.label for s in recs] == ["f[0]:means-of-f", "f[0]:means-of-|f|"]


def test_telescope_trivial_and_constant():
    f = random_field(unit_grid(32), 0, "bumps")
    assert all(s.ratio == 0.0 for s in telescope(f, (0.5, 0.5), 0.2, 0.2))
    const = constant_field(unit_grid(32), 4.0)
    assert all(s.ratio == 0.0 for s in telescope(const, (0.5, 0.5), 0.1, 0.4))


def test_telescope_input_validation():
    geom = unit_grid(32)
    with pytest.raises(BallBelowResolution):
        verify_telescope(geom, (0.5, 0.5), 0.01, 0.4, samples=1)
    with pytest.raises(BallOutsideDomain):
        verify_telescope(geom, (0.5, 0.5), 0.3, 0.2, samples=1)
    # the radii are checked once, before any field is drawn
    with pytest.raises(BallOutsideDomain):
        verify_telescope(geom, (0.5, 0.5), 0.3, 0.2, samples=0)
    with pytest.raises(InadmissibleParams):
        verify_telescope(geom, (0.5, 0.5), 0.1, 0.4, samples=0)
    with pytest.raises(BallOutsideDomain):
        telescope(random_field(geom, 0), (0.9, 0.9), 0.1, 0.4)
    with pytest.raises(BallOutsideDomain):
        verify_telescope(geom, (0.9, 0.9), 0.1, 0.4, samples=1)


@pytest.mark.parametrize("allowance", [math.inf, -math.inf, math.nan])
def test_telescope_rejects_an_allowance_that_is_not_finite(monkeypatch, allowance):
    # inf passed every ratio; the allowance is checked before any field is drawn
    import wulff_lab.inequality_lab as iq

    def refuse(*args, **kwargs):
        raise AssertionError("a field was drawn")

    monkeypatch.setattr(iq, "random_field", refuse)
    with pytest.raises(InadmissibleParams, match="finite allowance"):
        verify_telescope(unit_grid(32), (0.5, 0.5), 0.1, 0.4, samples=2,
                         allowance=allowance)


def test_telescope_means_agree_with_ball_average():
    # r = 5h is a tie radius here: the former sqrt-distance table counted 131
    # cells in B_r(x) where ball_cells counts 129, a 10% error in means-of-f
    geom = GridGeometry((128, 128), (1.0, 0.6), (0.0, 0.0))
    f = random_field(geom, 2, "bumps")
    x, r, R = (0.04296875, 0.04453125), 5.0 * max(geom.spacing), 0.042
    lhs = next(s.lhs for s in telescope(f, x, r, R) if s.label == "f[0]:means-of-f")
    expected = abs(ball_average(f, Ball(x, r))[0] - ball_average(f, Ball(x, R))[0])
    assert lhs == pytest.approx(expected, rel=1e-14, abs=0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), frac=st.floats(0.15, 0.9))
def test_telescope_property_random_bumps(seed, frac):
    f = random_field(unit_grid(48), seed, "bumps", bumps=3)
    R = 0.4
    recs = telescope(f, (0.5, 0.5), max(frac * R, 2.0 / 48 * 1.01), R)
    assert all(s.ratio <= 1.10 for s in recs)


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
    with pytest.raises(InadmissibleParams):
        verify_hardy("i", 0.5, 0.0)
    with pytest.raises(InadmissibleParams):
        verify_hardy("ii-far", 1.2, -4.0)
    with pytest.raises(InadmissibleParams):
        verify_hardy("ii-far", 0.5, -2.9)  # needs alpha < -3
    with pytest.raises(InadmissibleParams):
        verify_hardy("ii-near", 0.5, -0.9)  # needs alpha < -1
    with pytest.raises(InadmissibleParams):
        verify_hardy("iii", 0.5, -2.0)
    with pytest.raises(InadmissibleParams):
        verify_hardy("ii-far", 0.5, -3.5, k=0.5)


@pytest.mark.parametrize("case, q, alpha, k", [
    ("i", 1.0, math.inf, 2.0), ("i", 1.0, -math.inf, 2.0), ("i", math.inf, 0.0, 2.0),
    ("ii-far", 0.5, -math.inf, 2.0), ("ii-far", 0.5, -3.5, math.inf)])
def test_hardy_refuses_infinite_arguments(case, q, alpha, k):
    # alpha = inf on case i passed with C* = 0, and k = inf on ii-far with
    # C* = 0.600: a range check that reads q, alpha or k must also ask finite
    with pytest.raises(InadmissibleParams, match="finite"):
        verify_hardy(case, q, alpha, k=k, samples=3)


@pytest.mark.parametrize("case, q, alpha", [("i", 1.0, -160.0), ("i", 2.0, -400.0),
                                            ("ii-far", 0.5, -300.0)])
def test_hardy_side_that_overflows_is_a_finiteness_failure(case, q, alpha):
    # the powers s^(alpha+1) of the first pieces pass the float range: an
    # error that names the case and alpha, not an OverflowError or an inf side
    with pytest.raises(FinitenessFailure, match=f"Hardy case {case} at alpha = {alpha}"):
        verify_hardy(case, q, alpha, samples=5)


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
    pair = smooth_pair(p)
    pts = [(0.4, 0.55), (0.6, 0.35)]
    rep = verify_pointwise(pointwise_terms(pair, 0.2, pts))
    assert rep.passed and math.isfinite(rep.c_star) and rep.c_star > 0
    u3 = pair.u.with_values(3.0 * pair.u.values)
    F3 = pair.F.with_values(3.0 ** (p - 1.0) * pair.F.values)
    rep3 = verify_pointwise(pointwise_terms(gate_pair(u3, F3, p, 1e-5), 0.2, pts))
    for a, b in zip(rep.samples, rep3.samples):
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


_OSC_POINTS = [(0.4, 0.55), (0.6, 0.35), (0.5, 0.5)]


@functools.lru_cache(maxsize=None)
def _osc_base(p):
    pair = smooth_pair(p)
    return pair, verify_pointwise_osc(pointwise_terms(pair, 0.2, _OSC_POINTS,
                                                      oscillation=True))


@settings(max_examples=12, deadline=None)
@given(p=st.sampled_from([1.5, 2.0, 3.0]), lam=st.floats(0.25, 4.0))
def test_pointwise_osc_scale_invariance(p, lam):
    # both sides are 1-homogeneous under (u, F) -> (lam u, lam^(p-1) F)
    pair, base = _osc_base(p)
    scaled = gate_pair(pair.u.with_values(lam * pair.u.values),
                       pair.F.with_values(lam ** (p - 1.0) * pair.F.values), p, 1e-5)
    rep = verify_pointwise_osc(pointwise_terms(scaled, 0.2, _OSC_POINTS, oscillation=True))
    assert rep.passed and base.passed
    for a, b in zip(base.samples, rep.samples):
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


def test_pointwise_osc_dominated_by_wulff():
    rep = verify_pointwise_osc(pointwise_terms(smooth_pair(2.0), 0.2,
                                               [(0.5, 0.5), (0.3, 0.6)], oscillation=True))
    assert rep.passed
    assert "ok" in rep.notes[0]


def test_residual_gate_rejects_mismatched_pairs():
    pair = smooth_pair(2.0)
    u, F = pair.u, pair.F
    # doubling F doubles div F, so u no longer solves the system (a constant
    # shift would be divergence-free and must NOT trip the gate)
    bad = F.with_values(2.0 * F.values)
    with pytest.raises(ResidualTooLarge) as e:
        gate_pair(u, bad, 2.0, 1e-5)
    assert e.value.residual > 1e-5
    # a tolerance that is not positive and finite is an error: nan and inf
    # passed every pair
    for tol in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(InadmissibleParams, match="tol must be > 0 and finite"):
            gate_pair(u, bad, 2.0, tol)
    shifted = gate_pair(u, F.with_values(F.values + 0.5), 2.0, 1e-5)
    assert shifted.residual <= 1e-5
    rep = verify_pointwise(pointwise_terms(shifted, 0.2, [(0.5, 0.5)]))
    assert rep.passed and rep.params["residual"] == shifted.residual


def test_residual_gate_refuses_a_nan_residual(monkeypatch):
    # the gate tested res > tol, which a nan residual never meets
    import wulff_lab.inequality_lab as iq

    pair = smooth_pair(2.0)
    monkeypatch.setattr(iq, "weak_residual", lambda u, F, p: math.nan)
    with pytest.raises(ResidualTooLarge) as e:
        gate_pair(pair.u, pair.F, 2.0, 1e-5)
    assert math.isnan(e.value.residual)


# (cells, extent) of the property's grids: r_min = 2h stays below the radii
_PASS_GRIDS = {2: ((40, 32), (1.0, 0.8)), 3: ((16, 14, 18), (1.0, 0.9, 1.1))}


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]), rows=st.sampled_from([1, 2]),
       p=st.sampled_from([1.5, 2.0, 3.0]), kind=st.sampled_from(["fourier", "bumps"]),
       seed=st.integers(0, 10_000), R=st.floats(0.15, 0.3),
       fractions=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=3))
def test_pointwise_pass_is_bit_equal_to_the_single_potentials_property(
        dim, rows, p, kind, seed, R, fractions):
    # the pass shares one shell plan between W and the oscillation potential
    # at each point; each single potential, on a fresh plan, gives the same bits
    cells, extent = _PASS_GRIDS[dim]
    geom = GridGeometry(cells, extent, (0.0,) * dim)
    F = random_field(geom, seed, kind, components=rows, shape="matrix")
    u = random_field(geom, seed + 1, kind, components=rows,
                     shape="scalar" if rows == 1 else "vector")
    points = [tuple(R + t * (e - 2 * R) for t, e in zip(ts, extent)) for ts in fractions]
    # the pass reads only u, F and p, and the weak-residual gate is 2-D only
    terms = pointwise_terms(GatedPair(u, F, p, 0.0), R, points, oscillation=True)
    alone = pointwise_terms(GatedPair(u, F, p, 0.0), R, points)
    mag = F.magnitude()
    data = mag.with_values(mag.values ** (p / (p - 1.0)))
    params = PotentialParams(p / (p + 1.0), p + 1.0, R)
    for i, x in enumerate(points):
        _point_plan.cache_clear()
        assert terms.wulff[i] == alone.wulff[i] == wulff_potential(data, params, x)
        _point_plan.cache_clear()
        assert terms.oscillation[i] == oscillation_potential(F, p, R, x)
    assert terms.mean_u == alone.mean_u and terms.abs_u == alone.abs_u
    assert alone.oscillation is None


# an anisotropic grid off the origin: Ω = [-0.3, 0.7] × [0.2, 0.8]
_LATTICE_GEOM = GridGeometry((96, 160), (1.0, 0.6), (-0.3, 0.2))


def _lattice_pair():
    geom = _LATTICE_GEOM
    rng = np.random.default_rng(7)
    # |u| spans ~14 binades, so the bits of ⨍|u| depend on the order of its sum
    shape = (2,) + geom.cells
    u = GridField(geom, rng.standard_normal(shape) * np.exp(rng.uniform(-5.0, 5.0, shape)),
                  "vector", 2)
    F = random_field(geom, 8, "fourier", components=2, shape="matrix")
    # the pass reads only u, F and p
    return GatedPair(u, F, 2.0, 0.0)


def _tie_radius(geom, x, near):
    """A radius R near ``near`` whose R² is the computed d² of a cell from x,
    so that the cell lies on the sphere ∂B_R(x) of the inclusion rule."""
    _, delta = field_grid._cell_of(geom, x)
    _, dist2 = field_grid._ball_offsets(geom, 1.1 * near, delta)
    for d2 in sorted(dist2[dist2 >= near**2].tolist()):
        for R in (math.sqrt(d2), math.nextafter(math.sqrt(d2), 0.0),
                  math.nextafter(math.sqrt(d2), 1.0)):
            if R**2 == d2:
                return R
    raise AssertionError("no tie radius")


def test_pointwise_mean_is_ball_average_bit_for_bit():
    # ⨍_{B_R}|u| of the pass sums the point plan's row-major lattice of
    # B_R(x), the cells and order of ball_average's; that lattice reaches
    # past the largest quadrature radius, which the potentials' plan drops
    geom = _LATTICE_GEOM
    pair = _lattice_pair()
    absu = pair.u.magnitude()
    centre = tuple(o + (i + 0.5) * h for o, i, h in zip(geom.origin, (40, 75), geom.spacing))
    other = (0.1234, 0.4321)
    cases = [(centre, _tie_radius(geom, centre, 0.15)), (other, _tie_radius(geom, other, 0.1)),
             (other, 0.1777)]
    order_shows = []
    for x, R in cases:
        terms = pointwise_terms(pair, R, [x], oscillation=True)
        want = ball_average(absu, Ball(x, R))[0]
        assert np.float64(terms.mean_u[0]).tobytes() == want.tobytes()
        point = _point_plan(geom, x, R)
        cells = ball_cells(geom, Ball(x, R))
        assert np.array_equal(point.ball, cells)
        assert cells.size > point.plan.counts.max()
        backwards = np.take(absu.values.reshape(-1), cells[::-1]).mean()
        order_shows.append(backwards.tobytes() != want.tobytes())
    # the data tell summation orders apart: backwards, a mean reads other bits
    assert any(order_shows)
    # the tie cells lie on the sphere and are held
    for x, R in cases[:2]:
        _, delta = field_grid._cell_of(geom, x)
        assert (field_grid._ball_offsets(geom, R, delta)[1] == R**2).any()


def test_pointwise_pass_builds_one_lattice_per_point(monkeypatch):
    import wulff_lab.inequality_lab as iq

    pair = _lattice_pair()
    radii = []
    real = field_grid._ball_offsets
    monkeypatch.setattr(field_grid, "_ball_offsets",
                        lambda geom, r, delta: radii.append(r) or real(geom, r, delta))

    def no_average(*args):
        raise AssertionError("the pointwise pass called ball_average")

    monkeypatch.setattr(iq, "ball_average", no_average)
    monkeypatch.setattr(field_grid, "ball_average", no_average)
    points = [(0.05, 0.45), (0.2, 0.5), (0.31, 0.55), (0.2, 0.45)]
    for oscillation in (False, True):
        radii.clear()
        _point_plan.cache_clear()
        pointwise_terms(pair, 0.2, points, oscillation=oscillation)
        assert radii == [0.2] * len(points)


def test_pointwise_ball_outside_the_domain_raises_as_ball_average():
    # B_R(x) leaves Ω while every quadrature ball fits (R = 0.255), a
    # quadrature ball leaves Ω too (R = 0.3), or R = inf: each time the error
    # names B_R(x), with the message of ball_average.  B_R(x) is checked
    # before the quadrature on [r_min, R] is built
    geom = _LATTICE_GEOM
    pair = _lattice_pair()
    absu = pair.u.magnitude()
    x = (0.2, 0.45)  # 0.25 from the nearest side
    r_min = 2.0 * max(geom.spacing)
    assert RadialQuadrature.log_spaced(r_min, 0.255).radii.max() < 0.25
    assert RadialQuadrature.log_spaced(r_min, 0.3).radii.max() > 0.25
    for R in (0.255, 0.3, math.inf):
        with pytest.raises(BallOutsideDomain) as want:
            ball_average(absu, Ball(x, R))
        assert str(want.value) == f"ball B_{R:g}((0.2, 0.45)) is not contained in the domain"
        with pytest.raises(BallOutsideDomain) as got:
            pointwise_terms(pair, R, [x], oscillation=True)
        assert str(got.value) == str(want.value)


def test_pointwise_osc_needs_the_oscillation_terms():
    with pytest.raises(InadmissibleParams):
        verify_pointwise_osc(pointwise_terms(smooth_pair(2.0), 0.2, [(0.5, 0.5)]))


def test_pointwise_ball_must_fit():
    with pytest.raises(BallOutsideDomain):
        pointwise_terms(smooth_pair(2.0), 0.3, [(0.9, 0.9)])


def test_oscillation_decay():
    rep = verify_oscillation(smooth_pair(2.0, cells=64), (0.5, 0.5), 0.25)
    assert rep.passed and len(rep.samples) >= 3
    assert math.isfinite(rep.c_star)


def test_oscillation_radii_validation():
    with pytest.raises(InsufficientRadii):
        verify_oscillation(smooth_pair(2.0), (0.5, 0.5), 0.01)


def test_oscillation_rejects_an_infinite_ball_at_once():
    # B_R is checked before the dyadic radii R/2, R/4, … are listed: at R = inf
    # that list would grow until memory runs out
    with pytest.raises(BallOutsideDomain):
        verify_oscillation(smooth_pair(2.0), (0.5, 0.5), math.inf)


def test_energy_inequalities():
    pair = smooth_pair(2.0)
    rep = verify_energy_inequalities(pair, (0.5, 0.5), 0.3)
    assert rep.passed and len(rep.samples) == 3
    assert all(s.rhs > 0 for s in rep.samples)
    labels = {s.label for s in rep.samples}
    assert "caccioppoli" in " ".join(labels)
    with pytest.raises(InadmissibleParams):
        verify_energy_inequalities(pair, (0.5, 0.5), 0.3, q=0.5)
    # q = inf passed with C* = 0.749
    with pytest.raises(InadmissibleParams, match="finite q > 1"):
        verify_energy_inequalities(pair, (0.5, 0.5), 0.3, q=math.inf)


def test_energy_inequalities_check_the_outer_ball_first():
    pair = smooth_pair(2.0)
    with pytest.raises(DimensionMismatch, match="has 3 coordinates on a 2-d grid"):
        verify_energy_inequalities(pair, (0.5, 0.5, 0.5), 0.3)
    # B_R leaves Ω and B_{R/2} does not; B_R is reported ahead of a bad q
    for q in (None, 0.5):
        with pytest.raises(BallOutsideDomain, match=r"ball B_0\.6\(\(0\.5, 0\.5\)\)"):
            verify_energy_inequalities(pair, (0.5, 0.5), 0.6, q=q)


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


def norm_maps(part, alpha, s, geom, *, samples=20, seed=0, threads=None, **options):
    """The report of one potential-norms part in a pass of its own."""
    norm_part = potential_norm_part(part, alpha, s, geom, **options)
    (report,) = verify_potential_norm_maps([norm_part], samples=samples, seed=seed,
                                           threads=threads)
    return report


def test_norm_maps_run_and_pass():
    geom = unit_grid(32)
    a1 = norm_maps("A-i", 0.5, 3.0, geom, sigma=1.2, rho=2.0, samples=3, seed=0)
    assert a1.passed and math.isfinite(a1.c_star)
    a3 = norm_maps("A-iii", 0.6, 2.5, geom, rho=1.0, samples=3, seed=0)
    assert a3.passed and math.isfinite(a3.c_star)
    a4 = norm_maps("A-iv", 0.6, 2.5, geom, rho=0.5, samples=3, seed=0)
    assert a4.passed and math.isfinite(a4.c_star)
    b = norm_maps("B", 0.6, 2.5, geom, young_a=young_power(7 / 6),
                  young_b=young_power(28 / 3), samples=2, seed=0)
    assert b.passed and math.isfinite(b.c_star)
    assert "balance holds" in b.notes[0]


def _norm_parts(geom):
    """The four parts of Theorems A and B at (alpha, s) = (0.6, 2.5)."""
    return [potential_norm_part("A-i", 0.6, 2.5, geom, sigma=1.2),
            potential_norm_part("A-iii", 0.6, 2.5, geom, rho=1.0),
            potential_norm_part("A-iv", 0.6, 2.5, geom, rho=0.5),
            potential_norm_part("B", 0.6, 2.5, geom, young_a=young_power(7 / 6),
                                young_b=young_power(28 / 3))]


def test_norm_pass_maps_each_datum_once(monkeypatch):
    import wulff_lab.inequality_lab as iq

    maps = []
    real = iq.havin_mazya_map
    monkeypatch.setattr(iq, "havin_mazya_map", lambda *a: maps.append(a) or real(*a))
    geom = unit_grid(32)
    parts = _norm_parts(geom)
    shared = verify_potential_norm_maps(parts, samples=3, seed=4)
    assert len(maps) == 3
    # each part's report is that of a pass of its own
    assert shared == [verify_potential_norm_maps([part], samples=3, seed=4)[0]
                      for part in parts]


def test_norm_pass_needs_one_grid_alpha_and_s():
    geom = unit_grid(32)
    a1 = potential_norm_part("A-i", 0.5, 2.0, geom, sigma=1.5)
    for other in (potential_norm_part("A-i", 0.4, 2.0, geom, sigma=1.5),
                  potential_norm_part("A-i", 0.5, 2.5, geom, sigma=1.2),
                  potential_norm_part("A-i", 0.5, 2.0, unit_grid(16), sigma=1.5)):
        with pytest.raises(InadmissibleParams, match="one grid, alpha and s"):
            verify_potential_norm_maps([a1, other], samples=1)


def test_norm_pass_keeps_a_part_error_in_its_place(monkeypatch):
    # a norm that fails on a datum fails its own part only, with the error of
    # its first such datum
    import wulff_lab.inequality_lab as iq
    from wulff_lab.errors import SearchRangeExhausted

    real = iq.luxemburg_norm
    seen = []

    def failing(f, A):
        seen.append(f)
        if len(seen) >= 3:
            raise SearchRangeExhausted(f"datum {len(seen)}")
        return real(f, A)

    monkeypatch.setattr(iq, "luxemburg_norm", failing)
    geom = unit_grid(32)
    parts = _norm_parts(geom)
    a1, b = parts[0], parts[3]
    got = verify_potential_norm_maps([a1, b], samples=3, seed=0)
    assert got[0] == verify_potential_norm_maps([a1], samples=3, seed=0)[0]
    assert isinstance(got[1], SearchRangeExhausted) and str(got[1]) == "datum 3"


def test_norm_map_threads_do_not_change_the_report():
    geom = unit_grid(32)
    parts = _norm_parts(geom)

    def reports(group, threads):
        return [report.to_dict() for report in
                verify_potential_norm_maps(group, samples=4, seed=1, threads=threads)]

    for part in parts:
        assert reports([part], 1) == reports([part], 2)
    a1_with_b = [parts[0], parts[3]]
    assert reports(a1_with_b, 1) == reports(a1_with_b, 2)


def test_norm_maps_admissibility():
    geom = unit_grid(32)
    with pytest.raises(InadmissibleParams):
        potential_norm_part("A-i", 0.5, 3.0, geom, sigma=3.0)
    with pytest.raises(InadmissibleParams):
        potential_norm_part("A-iii", 0.6, 2.5, geom, rho=0.5)
    with pytest.raises(InadmissibleParams):
        potential_norm_part("A-iv", 0.6, 2.5, geom, rho=1.0)
    with pytest.raises(InadmissibleParams):
        potential_norm_part("B", 0.6, 2.5, geom)
    with pytest.raises(InadmissibleParams):
        potential_norm_part("B", 0.6, 2.5, geom, young_a=young_power(7 / 6),
                            young_b=young_zygmund(28 / 3, 1.0))
    with pytest.raises(InadmissibleParams):
        potential_norm_part("A-ii", 0.5, 3.0, geom)
    with pytest.raises(InadmissibleParams):
        potential_norm_part("A-i", 1.5, 2.0, geom, sigma=1.2)
    # only A-iv reads rho=None, as 1/(s-1); the others name the part
    with pytest.raises(InadmissibleParams, match="part A-i needs"):
        potential_norm_part("A-i", 0.5, 3.0, geom, sigma=1.2, rho=None)
    with pytest.raises(InadmissibleParams, match="part A-iii needs"):
        potential_norm_part("A-iii", 0.6, 2.5, geom, rho=None)


# ---------------------------------------------------------------------------
# regularity exponents


def test_regularity_holder_fit():
    rep = verify_regularity_exponents("holder", 2.0, q=4.0, cells=128)
    assert rep.passed
    assert rep.params["kappa"] == pytest.approx(0.5)
    assert abs(rep.params["slope"] - 0.5) <= rep.params["band"]


def test_regularity_parameter_ranges():
    with pytest.raises(InadmissibleParams):
        verify_regularity_exponents("holder", 2.0, q=1.5)
    with pytest.raises(InadmissibleParams):
        verify_regularity_exponents("bmo", 2.5)
    with pytest.raises(InadmissibleParams):
        verify_regularity_exponents("lorentz", 1.5, q=3.0)
    with pytest.raises(InadmissibleParams):
        verify_regularity_exponents("lipschitz", 2.0, beta=-0.1)
    with pytest.raises(InadmissibleParams):
        verify_regularity_exponents("sobolev", 2.0)
