import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import constant_field

from wulff_lab.errors import (
    AlphaOutOfRange,
    BallOutsideDomain,
    DimensionMismatch,
    NonNegativityViolation,
)
from wulff_lab.field_grid import (
    Ball,
    GridField,
    GridGeometry,
    ball_average,
    ball_oscillation,
    value_at,
)
from wulff_lab.inequality_lab import random_field
from wulff_lab.potential_engine import (
    PotentialParams,
    RadialQuadrature,
    _circular_shape,
    _kernel_table,
    _next_fast_len,
    _offset_table,
    havin_mazya_at,
    havin_mazya_map,
    max_admissible_radius,
    oscillation_potential,
    riesz_map,
    wulff_potential,
)


def unit_grid(cells=64):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def disk_grid(cells=129):
    # square slightly larger than the unit disk, odd cell count so the
    # origin is a cell center
    half = cells / (cells - 1)
    return GridGeometry((cells, cells), (2 * half, 2 * half), (-half, -half))


def test_quadrature_weights_sum_to_log_span():
    quad = RadialQuadrature.log_spaced(0.01, 1.0)
    assert quad.weights.sum() == pytest.approx(math.log(100.0))
    assert quad.radii[0] > 0.01 and quad.radii[-1] < 1.0
    assert np.all(np.diff(quad.radii) > 0)


def test_quadrature_rejects_thin_rules():
    with pytest.raises(Exception):
        RadialQuadrature.log_spaced(0.5, 0.25)


def test_params_validation():
    with pytest.raises(AlphaOutOfRange):
        PotentialParams(0.0, 2.0, 1.0)
    with pytest.raises(AlphaOutOfRange):
        PotentialParams(0.5, 1.0, 1.0)


def test_max_admissible_radius():
    geom = unit_grid()
    assert max_admissible_radius(geom, (0.5, 0.5)) == pytest.approx(0.5)
    assert max_admissible_radius(geom, (0.2, 0.5)) == pytest.approx(0.2)


def test_wulff_constant_closed_form():
    # W^R
    # of a constant c with alpha = p/(p+1), s = p+1 equals c^{1/p} R
    geom = unit_grid(128)
    for p in (1.5, 2.0, 3.0):
        f = constant_field(geom, 4.0)
        W = wulff_potential(f, PotentialParams(p / (p + 1), p + 1, 0.25), (0.5, 0.5))
        assert W == pytest.approx(4.0 ** (1 / p) * 0.25, rel=5e-3)


def test_wulff_homogeneity_and_monotonicity():
    geom = unit_grid()
    params = PotentialParams(0.5, 3.0, 0.3)
    rng = np.random.default_rng(1)
    base = rng.uniform(0.1, 1.0, size=(64, 64))
    f = GridField(geom, base)
    g = GridField(geom, base + 0.5)
    x = (0.5, 0.5)
    Wf = wulff_potential(f, params, x)
    # degree 1/(s-1) positive homogeneity
    W4 = wulff_potential(GridField(geom, 4 * base), params, x)
    assert W4 == pytest.approx(4.0 ** (1 / 2.0) * Wf, rel=1e-12)
    assert wulff_potential(g, params, x) >= Wf


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.1, 1.5), s=st.floats(1.2, 5.0), lam=st.floats(0.25, 4.0),
       R=st.floats(0.1, 0.3), seed=st.integers(0, 2**16),
       x=st.tuples(st.floats(0.35, 0.65), st.floats(0.35, 0.65)))
def test_wulff_homogeneity_and_monotonicity_property(alpha, s, lam, R, seed, x):
    # W(λf) = λ^{1/(s−1)} W(f), and W(f + g) >= W(f) for g >= 0
    geom = unit_grid(48)
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, geom.cells)
    params = PotentialParams(alpha, s, R)
    Wf = wulff_potential(GridField(geom, base), params, x)
    W_lam = wulff_potential(GridField(geom, lam * base), params, x)
    assert W_lam == pytest.approx(lam ** (1.0 / (s - 1.0)) * Wf, rel=1e-12, abs=0)
    bump = rng.uniform(0.0, 1.0, geom.cells) * (rng.uniform(size=geom.cells) < 0.2)
    assert wulff_potential(GridField(geom, base + bump), params, x) >= Wf


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.2, 4.0), shape=st.sampled_from(["scalar", "matrix"]),
       kind=st.sampled_from(["fourier", "bumps"]), R=st.floats(0.1, 0.3),
       seed=st.integers(0, 2**16),
       x=st.tuples(st.floats(0.35, 0.65), st.floats(0.35, 0.65)))
def test_oscillation_potential_dominated_by_wulff_property(p, shape, kind, R, seed, x):
    # ⨍|F − ⟨F⟩|^{p'} <= 2^{p'} ⨍|F|^{p'} radius by radius, so on the common
    # quadrature the oscillation potential is at most 2^{1/(p−1)} times
    # W_{p/(p+1), p+1}(|F|^{p'})
    geom = unit_grid(48)
    F = random_field(geom, seed, kind, shape=shape)
    pp = p / (p - 1.0)
    mag = F.magnitude()
    W = wulff_potential(mag.with_values(mag.values**pp),
                        PotentialParams(p / (p + 1.0), p + 1.0, R), x)
    assert oscillation_potential(F, p, R, x) <= 2.0 ** (1.0 / (p - 1.0)) * W * (1 + 1e-12)


def test_wulff_infinite_radius_windows_to_domain():
    geom = unit_grid()
    f = constant_field(geom, 1.0)
    x = (0.5, 0.5)
    W_inf = wulff_potential(f, PotentialParams(0.5, 3.0, math.inf), x)
    W_max = wulff_potential(
        f, PotentialParams(0.5, 3.0, max_admissible_radius(geom, x)), x
    )
    assert W_inf == pytest.approx(W_max)


def test_wulff_rejects_escaping_ball():
    geom = unit_grid()
    f = constant_field(geom, 1.0)
    with pytest.raises(BallOutsideDomain):
        wulff_potential(f, PotentialParams(0.5, 3.0, 0.4), (0.1, 0.5))


def test_wulff_requires_nonnegative_scalar():
    geom = unit_grid()
    f = constant_field(geom, -1.0)
    with pytest.raises(NonNegativityViolation):
        wulff_potential(f, PotentialParams(0.5, 3.0, 0.25), (0.5, 0.5))


def test_oscillation_potential_vanishes_on_constants():
    geom = unit_grid()
    F = GridField(geom, np.stack([np.full((64, 64), 2.0), np.full((64, 64), -1.0)]),
                  "matrix", codomain=1)
    assert oscillation_potential(F, 2.0, 0.3, (0.5, 0.5)) == pytest.approx(0.0, abs=1e-14)


# Reference potentials: one ball_average / ball_oscillation call per
# quadrature radius, the pointwise evaluation before the nested-ball view.


def _wulff_oracle(f, params, x):
    geom = f.geometry
    R = max_admissible_radius(geom, x) if math.isinf(params.R) else params.R
    r_min = 2.0 * max(geom.spacing)
    quad = RadialQuadrature.log_spaced(r_min, R)
    a, s = params.alpha, params.s
    beta = a * s / (s - 1.0)
    avg_min = ball_average(f, Ball(tuple(x), r_min))[0]
    head = avg_min ** (1.0 / (s - 1.0)) * r_min**beta / beta
    tail = 0.0
    for r, w in zip(quad.radii, quad.weights):
        avg = ball_average(f, Ball(tuple(x), float(r)))[0]
        tail += w * (r**(a * s) * avg) ** (1.0 / (s - 1.0))
    return float(head + tail)


def _oscillation_oracle(F, p, R, x):
    geom = F.geometry
    R = max_admissible_radius(geom, x) if math.isinf(R) else R
    r_min = 2.0 * max(geom.spacing)
    quad = RadialQuadrature.log_spaced(r_min, R)
    pp = p / (p - 1.0)

    def integrand(rho):
        return ball_oscillation(F, Ball(tuple(x), rho), pp) ** (pp / p)

    tail = 0.0
    for r, w in zip(quad.radii, quad.weights):
        tail += w * float(r) * integrand(float(r))
    return float(integrand(r_min) * r_min + tail)


@pytest.mark.parametrize("geom", [
    GridGeometry((64, 64), (1.0, 1.0), (0.0, 0.0)),
    GridGeometry((96, 40), (1.0, 0.6), (0.0, -0.3)),
])
@pytest.mark.parametrize("shape", ["scalar", "matrix"])
def test_pointwise_potentials_match_per_ball_oracle(geom, shape):
    p = 1.5
    pp = p / (p - 1.0)
    F = random_field(geom, 5, "bumps", shape=shape)
    mag = F.magnitude()
    data = mag.with_values(mag.values**pp)
    params = PotentialParams(p / (p + 1.0), p + 1.0, 0.2)
    center = [geom.origin[d] + 0.5 * geom.extent[d] for d in range(2)]
    for dx, dy in [(0.0, 0.0), (0.13, -0.05), (-0.21, 0.04)]:
        x = (center[0] + dx, center[1] + dy)
        assert wulff_potential(data, params, x) == pytest.approx(
            _wulff_oracle(data, params, x), rel=1e-13, abs=0)
        assert wulff_potential(data, PotentialParams(0.5, 3.0), x) == pytest.approx(
            _wulff_oracle(data, PotentialParams(0.5, 3.0), x), rel=1e-13, abs=0)
        assert oscillation_potential(F, p, 0.2, x) == pytest.approx(
            _oscillation_oracle(F, p, 0.2, x), rel=1e-13, abs=0)
        assert oscillation_potential(F, 3.0, math.inf, x) == pytest.approx(
            _oscillation_oracle(F, 3.0, math.inf, x), rel=1e-13, abs=0)


# Reference Riesz potential: the direct sum over all cells at one point.


def _riesz_oracle(f, alpha, x):
    geom = f.geometry
    n = geom.dim
    mesh = geom.center_mesh()
    dist = np.sqrt(sum((mesh[d] - x[d]) ** 2 for d in range(n)))
    singular = dist < 1e-9 * min(geom.spacing)
    kernel = np.where(singular, 1.0, dist) ** (alpha - n) * geom.cell_measure
    # the cell centered at x holds the exact kernel integral over its
    # inscribed disk instead of the singular kernel value
    rho = min(geom.spacing) / 2.0
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    kernel = np.where(singular, sphere * rho**alpha / alpha, kernel)
    return float((f.values[0] * kernel).sum())


def test_riesz_disk_oracle():
    # I_alpha of the unit-disk indicator at the origin is 2*pi/alpha in n = 2
    cells = 129
    geom = disk_grid(cells)
    f = GridField.from_function(
        geom, lambda x, y: (np.sqrt(x * x + y * y) <= 1.0).astype(float)
    )
    for alpha in (0.5, 1.0, 1.5):
        val = riesz_map(f, alpha).values[0, cells // 2, cells // 2]  # origin cell
        assert val == pytest.approx(2 * math.pi / alpha, rel=0.02)


def test_riesz_map_matches_direct_sum():
    geom = unit_grid(8)
    rng = np.random.default_rng(3)
    f = GridField(geom, rng.uniform(0.0, 1.0, size=(8, 8)))
    mapped = riesz_map(f, 0.8)
    mesh = geom.center_mesh()
    for i in (0, 3, 7):
        for j in (1, 4, 6):
            x = (float(mesh[0][i, j]), float(mesh[1][i, j]))
            assert mapped.values[0, i, j] == pytest.approx(
                _riesz_oracle(f, 0.8, x), rel=1e-10
            )


@pytest.mark.parametrize("geom", [
    # 2c − 1 = 73 and 39 are not 5-smooth (circular lengths 75 and 40), and
    # c − 1 = 19 is prime
    GridGeometry((37, 20), (1.0, 0.6), (-0.3, 0.2)),
    # 2c − 1 = 61 and 127 are prime (circular lengths 64 and 128), spacing
    # h = (0.7/31, 1.3/64)
    GridGeometry((31, 64), (0.7, 1.3), (0.0, 0.0)),
])
def test_riesz_map_matches_direct_sum_at_every_cell(geom):
    rng = np.random.default_rng(17)
    f = GridField(geom, rng.uniform(0.0, 1.0, size=geom.cells))
    mesh = geom.center_mesh()
    for alpha in (0.4, 1.3):
        mapped = riesz_map(f, alpha).values[0]
        want = np.array([_riesz_oracle(f, alpha, (x, y))
                         for x, y in zip(mesh[0].ravel(), mesh[1].ravel())])
        np.testing.assert_allclose(mapped.ravel(), want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.1, 1.5])
def test_kernel_spectrum_built_once_by_concurrent_maps(alpha):
    geom = GridGeometry((160, 144), (1.0, 0.8), (0.0, 0.0))
    f = GridField(geom, np.random.default_rng(2).uniform(0.0, 1.0, size=geom.cells))
    barrier = threading.Barrier(8)

    def call():
        barrier.wait(timeout=30)
        return riesz_map(f, alpha).values

    _kernel_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(call) for _ in range(8)]
            maps = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    info = _kernel_table.cache_info()
    assert (info.misses, info.hits) == (1, 7)
    assert all(np.array_equal(m, maps[0]) for m in maps)


def test_fft_lengths_and_scale_are_scipys():
    from scipy import fft

    assert [_next_fast_len(n) for n in range(1, 10_001)] == [
        fft.next_fast_len(n, real=True) for n in range(1, 10_001)]
    # the inverse pass scales by the double 1/N; pocketfft rounds 1/N from
    # long double, which for 5-smooth N gives the same double
    for n in {2**a * 3**b * 5**c for a in range(40) for b in range(26) for c in range(18)}:
        if n < 10**12:
            assert 1.0 / n == float(np.longdouble(1) / np.longdouble(n)), n


def _scipy_spectrum(geom, alpha):
    """The kernel spectrum as ``scipy.fft.rfftn`` computes it, in the
    natural axis order."""
    from scipy import fft

    shape = tuple(fft.next_fast_len(2 * c - 1, real=True) for c in geom.cells)
    wrap = np.ix_(*(np.arange(-(c - 1), c) % L for c, L in zip(geom.cells, shape)))
    wrapped = np.zeros(shape)
    wrapped[wrap] = _offset_table(geom, alpha)
    return shape, fft.rfftn(wrapped, axes=tuple(range(geom.dim)))


def _scipy_riesz(f, alpha):
    """The Riesz map as one ``scipy.fft.rfftn``/``irfftn`` pair over the
    whole circular grid."""
    from scipy import fft

    geom = f.geometry
    shape, spectrum = _scipy_spectrum(geom, alpha)
    axes = tuple(range(geom.dim))
    out = fft.irfftn(fft.rfftn(f.values[0], s=shape, axes=axes) * spectrum,
                     s=shape, axes=axes)
    return np.maximum(out[tuple(slice(c) for c in geom.cells)], 0.0)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# grids on which numpy's n-dimensional FFTs (descending axes, 1/n per axis)
# differ from scipy's in the last bits, unlike the square power-of-two ones
FFT_GRIDS = [
    GridGeometry((17, 23), (1.0, 1.0), (0.0, 0.0)),
    GridGeometry((64, 64), (1.0, 1.0), (0.0, 0.0)),
    GridGeometry((96, 160), (0.6, 1.0), (0.0, 0.0)),
    GridGeometry((100, 37), (1.0, 0.37), (0.0, 0.0)),
    GridGeometry((128, 128), (1.0, 1.0), (0.0, 0.0)),
    GridGeometry((200, 100), (3.0, 0.7), (-1.2, 0.4)),
    GridGeometry((256, 256), (1.0, 1.0), (0.0, 0.0)),
    GridGeometry((20, 18, 13), (1.0, 0.9, 0.65), (0.1, 0.0, -0.3)),
]


@pytest.mark.parametrize("geom", FFT_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
def test_riesz_passes_equal_scipy_fft_bit_for_bit(geom):
    alpha, s = (0.6, 2.5) if geom.dim == 2 else (1.1, 2.5)
    shape, spectrum = _scipy_spectrum(geom, alpha)
    assert _circular_shape(geom) == shape
    # the table keeps the half-spectrum axis first
    assert _same_bits(np.moveaxis(_kernel_table(geom, alpha), 0, -1).copy(), spectrum)
    rng = np.random.default_rng(23)
    sparse = np.zeros(geom.cells)  # whole rows and planes of zeros
    sparse.flat[rng.integers(0, sparse.size, 4)] = rng.uniform(0.5, 1.0, 4)
    for values in (rng.uniform(0.0, 1.0, size=geom.cells), sparse, np.zeros(geom.cells)):
        f = GridField(geom, values)
        assert _same_bits(riesz_map(f, alpha).values[0], _scipy_riesz(f, alpha))
        inner = f.with_values(_scipy_riesz(f, alpha) ** (1.0 / (s - 1.0)))
        assert _same_bits(havin_mazya_map(f, alpha, s).values[0],
                          _scipy_riesz(inner, alpha))
        i0 = tuple(c // 3 for c in geom.cells)
        window = _offset_table(geom, alpha)[
            tuple(slice(c - 1 - i, 2 * c - 1 - i) for c, i in zip(geom.cells, i0))]
        x = tuple(o + (i + 0.5) * h for o, i, h in zip(geom.origin, i0, geom.spacing))
        assert havin_mazya_at(f, alpha, s, x) == float((inner.values[0] * window).sum())


def test_riesz_alpha_range():
    geom = unit_grid(16)
    f = constant_field(geom, 1.0)
    with pytest.raises(AlphaOutOfRange):
        riesz_map(f, 2.0)
    with pytest.raises(AlphaOutOfRange):
        riesz_map(f, 0.0)


def test_havin_mazya_consistency_and_range():
    geom = unit_grid(32)
    rng = np.random.default_rng(5)
    f = GridField(geom, rng.uniform(0.0, 1.0, size=(32, 32)))
    mesh = geom.center_mesh()
    i, j = 16, 16
    x = (float(mesh[0][i, j]), float(mesh[1][i, j]))
    inner = riesz_map(f, 0.5)
    inner = inner.with_values(inner.values ** (1.0 / (3.0 - 1.0)))  # s = 3
    v_pt = _riesz_oracle(inner, 0.5, x)
    v_map = havin_mazya_map(f, 0.5, 3.0)
    assert v_map.values[0, i, j] == pytest.approx(v_pt, rel=1e-8)
    with pytest.raises(AlphaOutOfRange):
        havin_mazya_map(f, 1.5, 2.0)  # alpha*s = 3 >= n


def test_havin_mazya_map_nonnegative():
    geom = unit_grid(32)
    rng = np.random.default_rng(7)
    f = GridField(geom, rng.uniform(0.0, 0.5, size=(32, 32)))
    v = havin_mazya_map(f, 0.4, 2.0)
    assert np.all(v.values >= 0.0)


# the composed potential at one cell: square, anisotropic (h₁ ≠ h₂) and 3-D
POINT_GRIDS = [
    (GridGeometry((24, 24), (1.0, 1.0), (0.0, 0.0)), 0.5, 3.0),
    (GridGeometry((21, 13), (1.0, 0.45), (-0.3, 0.2)), 0.7, 2.2),
    (GridGeometry((9, 7, 6), (0.9, 0.6, 0.5), (0.0, -0.2, 0.1)), 1.1, 2.5),
]


@pytest.mark.parametrize("geom, alpha, s", POINT_GRIDS, ids=["square", "aniso", "3d"])
def test_havin_mazya_at_matches_direct_sums(geom, alpha, s):
    rng = np.random.default_rng(11)
    f = GridField(geom, rng.uniform(0.0, 1.0, size=geom.cells))
    mesh = geom.center_mesh()
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    inner = np.array([_riesz_oracle(f, alpha, c) for c in centers]) ** (1.0 / (s - 1.0))
    inner = f.with_values(inner.reshape(geom.cells))
    v_map = havin_mazya_map(f, alpha, s)
    last = np.array(geom.cells) - 1
    picks = [np.zeros(geom.dim, int), last, np.where(np.arange(geom.dim) == 0, 0, last),
             np.where(np.arange(geom.dim) == 0, last // 2, 0)]  # corners and an edge
    picks += [rng.integers(0, geom.cells) for _ in range(6)]
    for idx in picks:
        c = centers[np.ravel_multi_index(tuple(idx), geom.cells)]
        # anywhere in the cell: the value is the cell's
        x = tuple(c + rng.uniform(-0.45, 0.45, geom.dim) * np.array(geom.spacing))
        got = havin_mazya_at(f, alpha, s, x)
        assert got == pytest.approx(_riesz_oracle(inner, alpha, c), rel=1e-12, abs=0)
        assert got == pytest.approx(float(value_at(v_map, x)[0]), rel=1e-13, abs=0)


@pytest.mark.parametrize("geom, alpha, s", POINT_GRIDS, ids=["square", "aniso", "3d"])
def test_havin_mazya_at_raises_the_errors_of_the_map_path(geom, alpha, s):
    f = GridField(geom, np.random.default_rng(4).uniform(0.0, 1.0, size=geom.cells))
    outside = tuple(o + e + 0.1 for o, e in zip(geom.origin, geom.extent))
    cases = [(outside, alpha, s, BallOutsideDomain),
             (geom.center[:-1], alpha, s, DimensionMismatch),
             ((*geom.center, 0.0), alpha, s, DimensionMismatch),
             (geom.center, alpha, geom.dim / alpha, AlphaOutOfRange),  # alpha*s = n
             (geom.center, alpha, 1.0, AlphaOutOfRange),
             (geom.center, geom.dim, s, AlphaOutOfRange)]
    for x, a, q, err in cases:
        with pytest.raises(err):
            value_at(havin_mazya_map(f, a, q), x)
        with pytest.raises(err):
            havin_mazya_at(f, a, q, x)
