import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import constant_field

from wulff_lab.errors import (
    BallBelowResolution,
    BallOutsideDomain,
    DegenerateGrid,
    DimensionMismatch,
    GridTooCoarse,
    MalformedHeader,
    NonFiniteValue,
)
from wulff_lab.field_grid import (
    Ball,
    GridField,
    GridGeometry,
    NestedBalls,
    _oscillation,
    ball_average,
    ball_cells,
    ball_oscillation,
    ball_stencil,
    encode_field,
    gradient,
    max_admissible_radius,
    nested_balls,
    read_field,
    value_at,
    write_field,
)
from wulff_lab import field_grid
from wulff_lab.function_spaces import _sample_balls


def unit_grid(cells=32):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def test_geometry_basics():
    geom = GridGeometry((10, 20), (1.0, 4.0), (0.0, -1.0))
    assert geom.dim == 2
    assert geom.spacing == (0.1, 0.2)
    assert geom.cell_measure == pytest.approx(0.02)
    assert geom.cell_count == 200
    centers = geom.axis_centers(0)
    assert centers[0] == pytest.approx(0.05)
    assert centers[-1] == pytest.approx(0.95)


@pytest.mark.parametrize("extent, origin", [((math.inf, 1.0), (0.0, 0.0)),
                                             ((1.0, math.nan), (0.0, 0.0)),
                                             ((1.0, 1.0), (math.nan, 0.0)),
                                             ((1.0, 1.0), (0.0, -math.inf))])
def test_geometry_rejects_a_non_finite_box(tmp_path, extent, origin):
    with pytest.raises(DegenerateGrid, match="finite"):
        GridGeometry((4, 4), extent, origin)
    # nor does a field file whose header declares such a box read
    path = tmp_path / "f.wlf"
    write_field(constant_field(unit_grid(4), 1.0), path)
    header = f"extent={extent[0]!r},{extent[1]!r}\norigin={origin[0]!r},{origin[1]!r}"
    path.write_bytes(path.read_bytes().replace(b"extent=1.0,1.0\norigin=0.0,0.0",
                                               header.encode()))
    with pytest.raises(DegenerateGrid, match="finite"):
        read_field(path)


def test_geometry_rejects_one_dimension():
    with pytest.raises(Exception):
        GridGeometry((10,), (1.0,), (0.0,))


def test_contains_ball_and_point():
    geom = unit_grid()
    assert geom._contains((0.5, 0.5), [0.5])[0]
    assert not geom._contains((0.5, 0.5), [0.51])[0]
    assert not geom._contains((0.1, 0.5), [0.2])[0]
    assert geom.contains_point((0.0, 1.0))
    assert not geom.contains_point((1.1, 0.5))


def test_ball_needs_positive_radius():
    with pytest.raises(Exception):
        Ball((0.5, 0.5), 0.0)


def test_field_shapes_and_kinds():
    geom = unit_grid(8)
    f = constant_field(geom, 3.0)
    assert f.ncomp == 1 and f.kind == "scalar"
    v = GridField(geom, np.ones((2, 8, 8)), "vector", codomain=2)
    assert v.ncomp == 2
    m = GridField(geom, np.ones((2, 8, 8)), "matrix", codomain=1)
    assert m.ncomp == 2  # N * dim = 1 * 2
    with pytest.raises(DimensionMismatch):
        GridField(geom, np.ones((3, 8, 8)), "vector", codomain=2)


def test_field_values_are_readonly():
    geom = unit_grid(8)
    f = constant_field(geom, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 2.0


def test_field_rejects_nonfinite():
    geom = unit_grid(8)
    bad = np.ones((8, 8))
    bad[3, 3] = np.nan
    with pytest.raises(NonFiniteValue):
        GridField(geom, bad)


def test_from_function_matches_manual_mesh():
    geom = unit_grid(16)
    f = GridField.from_function(geom, lambda x, y: x + 2 * y)
    mesh = geom.center_mesh()
    assert np.allclose(f.values[0], mesh[0] + 2 * mesh[1])


def test_magnitude_is_euclidean():
    geom = unit_grid(8)
    v = GridField(geom, np.stack([3 * np.ones((8, 8)), 4 * np.ones((8, 8))]),
                  "vector", codomain=2)
    mag = v.magnitude()
    assert mag.kind == "scalar"
    assert np.allclose(mag.values[0], 5.0)


@pytest.mark.parametrize("scale", [2.0**-565, 2.0**565])
def test_vector_magnitude_and_oscillation_scale_by_a_power_of_two(scale):
    # the squares of these components underflow (2^-565) or overflow
    # (2^565), so the plain values read 0 or inf; a power-of-two factor
    # scales the rescaled magnitude and q = 1 oscillation to the bit
    geom = GridGeometry((40, 30), (1.0, 0.75), (0.0, 0.0))
    f = GridField(geom, np.random.default_rng(4).normal(size=(2, 40, 30)), "vector", 2)
    scaled = f.with_values(f.values * scale)
    assert np.array_equal(scaled.magnitude().values, scale * f.magnitude().values)
    for ball in (Ball((0.5, 0.4), 0.2), Ball((0.31, 0.52), 0.1)):
        assert ball_oscillation(scaled, ball) == scale * ball_oscillation(f, ball) > 0.0
        for q in (1.5, 3.0):
            assert ball_oscillation(scaled, ball, q) / scale == pytest.approx(
                ball_oscillation(f, ball, q), rel=1e-14)
        balls = nested_balls(scaled, ball.center, [0.05, ball.radius])
        want = nested_balls(f, ball.center, [0.05, ball.radius]).oscillations(3.0)
        np.testing.assert_allclose(balls.oscillations(3.0) / scale, want, rtol=1e-14)


@pytest.mark.parametrize("scale", [2.0**-565, 2.0**565])
def test_scalar_oscillation_scales_by_a_power_of_two(scale):
    # at q > 2 the q-th powers of these deviations underflow (2^-565) or
    # overflow (2^565): the values are still the unscaled ones times the
    # factor, and the overflow raises no warning (an error in this suite),
    # neither from one ball nor from a sweep
    geom = GridGeometry((40, 30), (1.0, 0.75), (0.0, 0.0))
    f = GridField(geom, np.random.default_rng(4).normal(size=(40, 30)))
    scaled = f.with_values(f.values * scale)
    for ball in (Ball((0.5, 0.4), 0.2), Ball((0.31, 0.52), 0.1)):
        for q in (3.0, 4.5):
            assert ball_oscillation(scaled, ball, q) / scale == pytest.approx(
                ball_oscillation(f, ball, q), rel=1e-14)
        balls = nested_balls(scaled, ball.center, [0.05, ball.radius])
        want = nested_balls(f, ball.center, [0.05, ball.radius]).oscillations(3.0)
        np.testing.assert_allclose(balls.oscillations(3.0) / scale, want, rtol=1e-14)


def test_normal_values_take_no_rescaled_pass(monkeypatch):
    # the rescaled recomputation runs only where a plain value is 0,
    # subnormal or not finite; every other value is the plain one
    def fail(*args):
        raise AssertionError("rescaled a normal value")

    monkeypatch.setattr(field_grid, "_rescaled", fail)
    geom = GridGeometry((40, 30), (1.0, 0.75), (0.0, 0.0))
    rng = np.random.default_rng(5)
    for scale in (1e-100, 1.0, 1e100):
        f = GridField(geom, scale * rng.normal(size=(2, 40, 30)), "vector", 2)
        mag = f.magnitude().values[0]
        np.testing.assert_array_equal(mag, np.sqrt(f.values[0] ** 2 + f.values[1] ** 2))
        balls = nested_balls(f, (0.5, 0.4), [0.05, 0.1, 0.2])
        for q in (1.0, 3.0):
            balls.oscillations(q)
            ball_oscillation(f, Ball((0.5, 0.4), 0.2), q)


def test_ball_average_constant_and_affine():
    geom = unit_grid(64)
    c = constant_field(geom, 2.5)
    assert ball_average(c, Ball((0.5, 0.5), 0.25))[0] == pytest.approx(2.5)
    # affine field, ball centered at a cell-symmetric point: mean = value at
    # the center because the included cell set is symmetric
    f = GridField.from_function(geom, lambda x, y: x)
    avg = ball_average(f, Ball((0.5, 0.5), 0.25))[0]
    assert avg == pytest.approx(0.5, abs=1e-12)


def test_ball_average_rejects_bad_balls():
    geom = unit_grid(32)
    f = constant_field(geom, 1.0)
    with pytest.raises(BallOutsideDomain):
        ball_average(f, Ball((0.9, 0.5), 0.2))
    with pytest.raises(BallBelowResolution):
        ball_average(f, Ball((0.5, 0.5), 0.01))
    with pytest.raises(DimensionMismatch):
        ball_average(f, Ball((0.5, 0.5, 0.5), 0.2))


def test_ball_oscillation_zero_on_constants():
    geom = unit_grid(32)
    c = constant_field(geom, 7.0)
    assert ball_oscillation(c, Ball((0.5, 0.5), 0.3)) == 0.0


def test_ball_oscillation_affine_oracle():
    # continuum value: mean of |x1 - c1| over B_r is 4r/(3*pi)
    geom = unit_grid(256)
    f = GridField.from_function(geom, lambda x, y: x)
    r = 0.25
    osc = ball_oscillation(f, Ball((0.5, 0.5), r), 1.0)
    assert osc == pytest.approx(4 * r / (3 * math.pi), rel=0.03)


def test_ball_oscillation_needs_q_at_least_one():
    geom = unit_grid(32)
    f = constant_field(geom, 1.0)
    with pytest.raises(ValueError):
        ball_oscillation(f, Ball((0.5, 0.5), 0.2), 0.5)


def _ball_box(geom, ball):
    """Oracle for the cells of a ball, the bounding-box rule the flat offset
    rule replaced: the box slices, the squared distances d² from the center
    to the cell centers in the box, and the inclusion mask d² ≤ r².

    Distances are taken on cell offsets from the cell i₀ that holds the
    center, with δ the center's offset from the center of cell i₀; the axis
    term is (k·h_d − δ_d)²."""
    slices, axes = [], []
    for d in range(geom.dim):
        h = geom.spacing[d]
        x = ball.center[d]
        start = max(int(np.floor((x - ball.radius - geom.origin[d]) / h - 0.5)), 0)
        stop = min(int(np.ceil((x + ball.radius - geom.origin[d]) / h - 0.5)) + 1,
                   geom.cells[d])
        i0 = min(max(int(np.floor((x - geom.origin[d]) / h)), 0), geom.cells[d] - 1)
        slices.append(slice(start, stop))
        axes.append(np.arange(start - i0, stop - i0) * h - (x - geom.axis_centers(d)[i0]))
    dist2 = np.zeros(tuple(ax.size for ax in axes))
    for d, ax in enumerate(axes):
        shape = [1] * geom.dim
        shape[d] = ax.size
        dist2 = dist2 + ax.reshape(shape) ** 2
    return tuple(slices), dist2, dist2 <= ball.radius**2


def _grid_mask(geom, ball):
    """The oracle's cells of ``ball`` as a mask over the whole grid."""
    slices, _, mask = _ball_box(geom, ball)
    full = np.zeros(geom.cells, dtype=bool)
    full[slices] = mask
    return full


def _stencil_mask(geom, idx, r):
    """``ball_stencil(geom, r)`` shifted to the cell ``idx``, over the whole grid."""
    full = np.zeros(geom.cell_count, dtype=bool)
    full[np.ravel_multi_index(idx, geom.cells) + ball_stencil(geom, r)] = True
    return full.reshape(geom.cells)


def test_ball_cells_mask_matches_distance():
    geom = unit_grid(32)
    ball = Ball((0.5, 0.5), 0.2)
    mesh = geom.center_mesh()
    dist2 = (mesh[0] - 0.5) ** 2 + (mesh[1] - 0.5) ** 2
    # no cell center lies within rounding of the sphere, so any way of
    # computing d² gives the same cells
    assert np.abs(dist2 - 0.2**2).min() > 1e-9
    # every cell with d² <= r² is in the ball, and no other cell is
    inside = dist2 <= 0.2**2
    np.testing.assert_array_equal(ball_cells(geom, ball), np.flatnonzero(inside))
    np.testing.assert_array_equal(_grid_mask(geom, ball), inside)


@pytest.mark.parametrize("geom", [
    GridGeometry((96, 160), (1.0, 0.6), (-0.3, 0.2)),
    GridGeometry((20, 9), (0.6, 0.5), (0.1, -0.3)),
    GridGeometry((64, 64), (1.0, 1.0), (0.0, 0.0)),
])
def test_ball_stencil_is_ball_cells_at_every_sampled_ball(geom):
    # On the (96, 160) grid the former rule, which took d from differences of
    # cell-center coordinates, dropped the on-axis tie cells at ±2^k·h₁ from
    # 2003 of the 2467 sampled balls; on offsets both rules include them.
    centers, coords, radii, fits = _sample_balls(geom)
    assert fits.any()
    for i, j in zip(*np.nonzero(fits)):
        idx = np.unravel_index(centers[i], geom.cells)
        ball = Ball(tuple(coords[i]), radii[j])
        want = _grid_mask(geom, ball)
        np.testing.assert_array_equal(_stencil_mask(geom, idx, radii[j]), want)
        np.testing.assert_array_equal(ball_cells(geom, ball), np.flatnonzero(want))


@pytest.mark.parametrize("geom", [
    GridGeometry((96, 160), (1.0, 0.6), (-0.3, 0.2)),
    GridGeometry((20, 9), (0.6, 0.5), (0.1, -0.3)),
])
def test_off_center_ball_cells_match_oracle(geom):
    # the sampled balls moved off their cell centers by δ, with δ = ±h/2 (x on
    # a cell boundary) or drawn inside the cell, at the sample's tie radii
    centers, coords, radii, fits = _sample_balls(geom)
    rng = np.random.default_rng(5)
    h = np.array(geom.spacing)
    f = constant_field(geom, 0.0)
    compared = 0
    for i in range(len(centers)):
        for frac in ([0.5, -0.5], [-0.5, 0.5], rng.uniform(-0.5, 0.5, 2)):
            x = tuple(float(c) for c in coords[i] + np.asarray(frac) * h)
            fit = [r for r in radii if geom._contains(x, [r])[0]]
            for r in fit:
                want = _grid_mask(geom, Ball(x, r))
                np.testing.assert_array_equal(ball_cells(geom, Ball(x, r)),
                                              np.flatnonzero(want))
            if fit:
                expected = [int(_grid_mask(geom, Ball(x, r)).sum()) for r in fit]
                assert nested_balls(f, x, fit).counts.tolist() == expected
                compared += len(fit)
    assert compared >= fits.sum()


_FRAC = st.one_of(st.sampled_from([-0.5, 0.0, 0.5]), st.floats(-0.5, 0.5))


@settings(max_examples=60, deadline=None)
@given(cells=st.tuples(st.integers(8, 40), st.integers(8, 40)),
       h=st.floats(0.01, 0.5), aspect=st.floats(1 / 3, 3.0),
       origin=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       pick=st.floats(0.0, 1.0), size=st.floats(0.0, 1.0),
       axis=st.integers(0, 1), tie=st.booleans(), frac=st.tuples(_FRAC, _FRAC))
def test_ball_stencil_is_ball_cells_property(cells, h, aspect, origin, pick, size,
                                             axis, tie, frac):
    # any geometry, any point x = (cell center) + δ with δ_d = frac_d·h_d in
    # [−h_d/2, h_d/2] (cell boundaries included), any radius that fits; with
    # ``tie`` the radius is the distance from x to the center of a cell a
    # whole number of cells away along one axis, so that cell lies on the
    # sphere (exactly at δ = 0)
    geom = GridGeometry(cells, (cells[0] * h, cells[1] * h * aspect), origin)
    lo = max(geom.spacing)
    mesh = geom.center_mesh()
    room = np.minimum.reduce([np.minimum(m - o, o + e - m)
                              for m, o, e in zip(mesh, geom.origin, geom.extent)])
    fit = np.flatnonzero(room >= lo)
    idx = np.unravel_index(fit[min(int(pick * fit.size), fit.size - 1)], cells)
    delta = [fd * hd for fd, hd in zip(frac, geom.spacing)]
    x = tuple(float(m[idx]) + dd for m, dd in zip(mesh, delta))
    r = lo + size * (max_admissible_radius(geom, x) - lo)
    if tie:
        k = [0, 0]
        k[axis] = max(math.floor(r / geom.spacing[axis]), 1)
        r = math.hypot(*(kd * hd - dd for kd, hd, dd in zip(k, geom.spacing, delta)))
    if not (lo <= r and geom._contains(x, [r])[0]):
        return
    want = _grid_mask(geom, Ball(x, r))
    np.testing.assert_array_equal(ball_cells(geom, Ball(x, r)), np.flatnonzero(want))
    counts = nested_balls(constant_field(geom, 0.0), x, [r, lo]).counts
    assert counts.tolist() == [int(want.sum()), int(_grid_mask(geom, Ball(x, lo)).sum())]
    if frac == (0.0, 0.0):
        np.testing.assert_array_equal(_stencil_mask(geom, idx, r), want)


def _nested_counts_match_ball_cells(geom, wulff_stride=1):
    """Compare ``nested_balls`` counts with the oracle's mask sums at every
    admissible cell center, for r in {2h, 5h, 2|spacing|}, and for the
    default Wulff quadrature radii at every ``wulff_stride``-th center per
    axis.  Returns the number of balls compared."""
    from wulff_lab.potential_engine import RadialQuadrature

    h = max(geom.spacing)
    fixed = [2.0 * h, 5.0 * h, 2.0 * math.hypot(*geom.spacing)]
    f = constant_field(geom, 0.0)
    mesh = geom.center_mesh()
    compared = 0
    for idx in np.ndindex(geom.cells):
        x = tuple(float(m[idx]) for m in mesh)
        radii = [r for r in fixed if geom._contains(x, [r])[0]]
        R = max_admissible_radius(geom, x)
        if all(i % wulff_stride == 0 for i in idx) and R > 2.0 * h:
            radii += [float(r) for r in RadialQuadrature.log_spaced(2.0 * h, R).radii]
        if not radii:
            continue
        counts = nested_balls(f, x, radii).counts
        expected = [int(_grid_mask(geom, Ball(x, r)).sum()) for r in radii]
        assert counts.tolist() == expected, (x, radii)
        compared += len(radii)
    return compared


@pytest.mark.parametrize("geom", [
    GridGeometry((12, 12), (1.0, 1.0), (0.0, 0.0)),
    GridGeometry((16, 16), (2.0, 2.0), (-1.0, -1.0)),
    GridGeometry((10, 16), (1.0, 0.7), (0.0, 0.0)),
    GridGeometry((20, 9), (0.6, 0.5), (0.1, -0.3)),
])
def test_nested_ball_counts_equal_ball_cells_on_small_grids(geom):
    assert _nested_counts_match_ball_cells(geom) > 0


def test_nested_ball_counts_equal_ball_cells_on_anisotropic_128():
    # on this grid the former sqrt-distance rule disagreed with ball_cells at
    # 118 of the 13 216 admissible centers for r = 5h
    geom = GridGeometry((128, 128), (1.0, 0.6), (0.0, 0.0))
    assert _nested_counts_match_ball_cells(geom, wulff_stride=9) > 40000


def test_nested_balls_prefixes_match_single_balls():
    geom = GridGeometry((40, 30), (1.0, 0.75), (0.0, 0.0))
    f = GridField.from_function(
        geom, lambda x, y: np.stack([np.sin(7 * x) * y, x * x - y]), "vector", 2)
    x, radii = (0.5, 0.4), [0.3, 0.06, 0.15]
    balls = nested_balls(f, x, radii)
    for i, r in enumerate(radii):
        assert np.allclose(balls.means()[:, i], ball_average(f, Ball(x, r)),
                           rtol=1e-14, atol=0)
        assert balls.oscillations(1.5)[i] == pytest.approx(
            ball_oscillation(f, Ball(x, r), 1.5), rel=1e-13)


def test_nested_balls_checks_every_radius():
    geom = unit_grid(32)
    f = constant_field(geom, 1.0)
    with pytest.raises(BallBelowResolution):
        nested_balls(f, (0.5, 0.5), [0.2, 0.01])
    with pytest.raises(BallOutsideDomain):
        nested_balls(f, (0.7, 0.5), [0.1, 0.4])
    # the first failing radius in input order decides the error
    with pytest.raises(BallOutsideDomain):
        nested_balls(f, (0.7, 0.5), [0.45, 0.01])
    with pytest.raises(BallBelowResolution):
        nested_balls(f, (0.7, 0.5), [0.01, 0.45])
    for bad in ([0.2, 0.0], [-0.1, 0.2], [0.2, float("nan")]):
        with pytest.raises(ValueError, match="radius must be positive"):
            nested_balls(f, (0.5, 0.5), bad)
    with pytest.raises(DimensionMismatch):
        nested_balls(f, (0.5, 0.5, 0.5), [0.2])
    with pytest.raises(ValueError):
        nested_balls(f, (0.5, 0.5), [0.2]).oscillations(0.5)
    # a ball that leaves the box by less than the 1e-12 pad is accepted, as
    # by ``_contains``; one that leaves it by more is not
    inside_pad, outside_pad = 0.5 + 5e-13, 0.5 + 2e-12
    assert geom._contains((0.5, 0.5), [inside_pad])[0]
    assert not geom._contains((0.5, 0.5), [outside_pad])[0]
    assert nested_balls(f, (0.5, 0.5), [0.1, inside_pad]).counts[1] == ball_cells(
        geom, Ball((0.5, 0.5), inside_pad)).size
    with pytest.raises(BallOutsideDomain):
        nested_balls(f, (0.5, 0.5), [0.1, outside_pad])


def _oscillations_oracle(balls, q):
    """The per-radius loop that ``NestedBalls.oscillations`` replaced: a fresh
    ``_oscillation`` of every prefix, with its own temporaries."""
    means = balls.means()
    return np.array([_oscillation(balls.values[:, :k], means[:, i], q)
                     for i, k in enumerate(balls.counts)])


@pytest.mark.parametrize("ncomp", [1, 2, 3, 4])
def test_oscillation_sweep_is_the_per_radius_loop_bit_for_bit(ncomp):
    from wulff_lab.potential_engine import RadialQuadrature

    geom = GridGeometry((96, 80), (1.0, 0.8), (0.0, 0.0))
    rng = np.random.default_rng(ncomp)
    f = GridField(geom, rng.uniform(-2.0, 3.0, (ncomp,) + geom.cells),
                  "scalar" if ncomp == 1 else "vector", ncomp)
    r_min = 2.0 * max(geom.spacing)
    radii = [0.3, r_min, *RadialQuadrature.log_spaced(r_min, 0.3).radii]
    balls = nested_balls(f, (0.47, 0.41), radii)
    # the telescope's sweep over the quadrature radii alone
    tail = NestedBalls(balls.values, balls.counts[2:])
    for q in (1.0, 1.5, 2.0, 3.0):
        sweep = balls.oscillations(q)
        assert sweep.tobytes() == _oscillations_oracle(balls, q).tobytes()
        assert tail.oscillations(q).tobytes() == sweep[2:].tobytes()


def test_scalar_deviation_magnitude_is_abs_bit_for_bit():
    # one component: |dev| replaced sqrt(dev·dev), which it equals to the bit
    # wherever dev² neither underflows nor overflows
    rng = np.random.default_rng(3)
    dev = rng.choice([-1.0, 1.0], (16, 512)) * 10.0 ** rng.uniform(-150, 150, (16, 512))
    dev[0, :4] = [1e-150, -1e-150, 1e150, -1e150]
    vals = dev[np.newaxis]
    np.testing.assert_array_equal(np.abs(dev),
                                  np.sqrt(np.einsum("c...k,c...k->...k", vals, vals)))
    zero = np.zeros((1, 16))
    for q in (1.0, 1.5):
        mag = np.sqrt(np.einsum("c...k,c...k->...k", vals, vals))
        want = mag.mean(axis=-1) if q == 1.0 else np.array(
            [v ** (1.0 / q) for v in (mag**q).mean(axis=-1)])
        assert _oscillation(vals, zero, q).tobytes() == want.tobytes()


def _nested_case(dim, data):
    """A random geometry (anisotropic, 2-D or 3-D), a point x = (cell center)
    + δ with δ_d in [−h_d/2, h_d/2], and unsorted radii that fit: random
    sizes, lattice tie distances from x and repeats."""
    top = 24 if dim == 2 else 11
    cells = data.draw(st.tuples(*[st.integers(6, top)] * dim))
    h = data.draw(st.floats(0.01, 0.5))
    aspect = data.draw(st.tuples(*[st.floats(0.5, 2.0)] * dim))
    origin = data.draw(st.tuples(*[st.floats(-3.0, 3.0)] * dim))
    geom = GridGeometry(cells, tuple(c * h * a for c, a in zip(cells, aspect)), origin)
    lo = max(geom.spacing)
    mesh = geom.center_mesh()
    room = np.minimum.reduce([np.minimum(m - o, o + e - m)
                              for m, o, e in zip(mesh, geom.origin, geom.extent)])
    fit = np.flatnonzero(room >= lo)
    assume(fit.size)
    idx = np.unravel_index(fit[data.draw(st.integers(0, fit.size - 1))], cells)
    delta = [fd * hd for fd, hd in zip(data.draw(st.tuples(*[_FRAC] * dim)), geom.spacing)]
    x = tuple(float(m[idx]) + dd for m, dd in zip(mesh, delta))
    top_r = max_admissible_radius(geom, x)
    radii = [lo + t * (top_r - lo)
             for t in data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))]
    # the distance from x to the center of the cell k steps along one axis,
    # so that cell lies on the sphere (exactly at δ = 0)
    for axis, k in data.draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                                st.integers(1, 6)), max_size=3)):
        step = [0] * dim
        step[axis] = k
        radii.append(math.hypot(*(s * hd - dd
                                  for s, hd, dd in zip(step, geom.spacing, delta))))
    radii = [r for r in radii if lo <= r and geom._contains(x, [r])[0]]
    assume(radii)
    radii += data.draw(st.lists(st.sampled_from(radii), max_size=2))
    return geom, x, data.draw(st.permutations(radii))


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([2, 3]), ncomp=st.sampled_from([1, 2, 3]),
       q=st.sampled_from([1.0, 1.5, 3.0]), seed=st.integers(0, 2**16), data=st.data())
def test_nested_balls_match_single_ball_oracle_property(dim, ncomp, q, seed, data):
    geom, x, radii = _nested_case(dim, data)
    values = np.random.default_rng(seed).uniform(1.0, 3.0, (ncomp,) + geom.cells)
    f = GridField(geom, values, "scalar" if ncomp == 1 else "vector", ncomp)
    index = GridField(geom, np.arange(geom.cell_count, dtype=float).reshape(geom.cells))
    balls = nested_balls(f, x, radii)
    cells = nested_balls(index, x, radii).values[0]
    means, oscs = balls.means(), balls.oscillations(q)
    for i, r in enumerate(radii):
        ball = Ball(x, r)
        want = ball_cells(geom, ball)
        # the prefix holds exactly the ball's cells
        assert balls.counts[i] == want.size
        np.testing.assert_array_equal(np.sort(cells[:balls.counts[i]]), want)
        np.testing.assert_allclose(means[:, i], ball_average(f, ball), rtol=1e-13, atol=0)
        np.testing.assert_allclose(oscs[i], ball_oscillation(f, ball, q), rtol=1e-12, atol=0)


def test_value_at_picks_containing_cell():
    geom = unit_grid(16)
    f = GridField.from_function(geom, lambda x, y: x + 10 * y)
    h = geom.spacing[0]
    # a point inside cell (3, 7)
    x = (3 * h + 0.3 * h, 7 * h + 0.8 * h)
    expected = (3 + 0.5) * h + 10 * (7 + 0.5) * h
    assert value_at(f, x)[0] == pytest.approx(expected)


def test_gradient_exact_on_affine():
    geom = unit_grid(32)
    f = GridField.from_function(geom, lambda x, y: 2 * x - 3 * y)
    g = gradient(f)
    assert g.kind == "matrix"
    assert np.allclose(g.values[0], 2.0)
    assert np.allclose(g.values[1], -3.0)


def test_gradient_needs_three_cells():
    geom = GridGeometry((2, 8), (1.0, 1.0), (0.0, 0.0))
    f = constant_field(geom, 1.0)
    with pytest.raises(GridTooCoarse):
        gradient(f)


def test_field_io_roundtrip(tmp_path):
    geom = GridGeometry((12, 8), (2.0, 1.0), (-1.0, 0.0))
    rng = np.random.default_rng(0)
    f = GridField(geom, rng.normal(size=(2, 12, 8)), "vector", codomain=2)
    path = tmp_path / "field.wlf"
    write_field(f, path)
    g = read_field(path)
    assert g.geometry == geom
    assert g.kind == "vector" and g.ncomp == 2
    assert np.array_equal(g.values, f.values)


def test_write_field_writes_encode_field_bytes(tmp_path):
    geom = GridGeometry((3, 4), (1.0, 2.0), (0.5, -1.0))
    f = GridField(geom, np.arange(24.0).reshape(2, 3, 4), "vector", 2)
    path = tmp_path / "f.wlf"
    write_field(f, path)
    assert path.read_bytes() == encode_field(f)
    assert encode_field(f).startswith(b"WLF1\nn=2 N=2 shape=vector\ncells=3x4\n")


def test_field_io_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.wlf"
    path.write_bytes(b"NOTMAGIC\nn=2 N=1 shape=scalar\ncells=4x4\n")
    with pytest.raises(MalformedHeader):
        read_field(path)


def test_field_io_rejects_truncated_payload(tmp_path):
    geom = GridGeometry((4, 4), (1.0, 1.0), (0.0, 0.0))
    f = constant_field(geom, 1.0)
    path = tmp_path / "trunc.wlf"
    write_field(f, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(MalformedHeader):
        read_field(path)
