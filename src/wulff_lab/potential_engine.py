"""Nonlinear potentials of grid fields.

The central object is the truncated Wulff potential of a nonnegative field f,

    W_{α,s}^R f(x) = ∫₀^R ( r^{αs} ⨍_{B_r(x)} f )^{1/(s−1)} dr/r ,

discretized with a log-spaced midpoint rule on [r_min, R] (r_min = 2h by
default; balls below the grid resolution are meaningless) plus an exact
power-law head on (0, r_min] that freezes the ball average at its value at
r_min.  For constant fields the head makes the closed forms

    W_{α,s}^R c = c^{1/(s−1)} · (s−1)/(αs) · R^{αs/(s−1)}

hold up to the midpoint-rule error on [r_min, R] alone.

Alongside it live the Riesz potential I_α f(x) = Σ_y f(y)|x−y|^{α−n}·|cell|
(kernel normalization constant 1, zero extension outside the domain, the
singular cell replaced by the exact kernel integral over its inscribed disk),
the composed potential V_{α,s} f = I_α((I_α f)^{1/(s−1)}) for αs < n, both as
full-grid maps, and the mean-oscillation potential
∫₀^R (⨍_{B_ρ}|F − ⟨F⟩_{B_ρ}|^{p'})^{1/p} dρ used by the pointwise estimates
for divergence-form data.

The pointwise Wulff and oscillation potentials read every ball mean from one
shell-ordered view of the largest quadrature ball (a
:func:`field_grid.shell_plan`): its flat cell indices are grouped by the
smallest quadrature radius whose ball holds them, so the cells of B_r(x) are
a prefix and each quadrature radius sums a prefix, with the one inclusion
rule of :func:`field_grid.ball_cells`.  The plan is cut from one lattice of
B_R(x), whose row-major cells also give ⨍_{B_R(x)}; it depends on the grid,
the point and R alone and the last one is kept, so the two potentials and
that mean at one point share it.

All pointwise evaluations are literal sums over cells.  On a uniform lattice
the Riesz kernel depends only on the index offset Δ, so one offset table
K[Δ], |Δ_d| ≤ c_d − 1, holds every term (``_offset_table``, cached per
(geometry, α), 16 entries).  The Riesz map computes the sums for every
center at once as a circular FFT convolution with that table: wrapped onto
5-smooth lengths L_d ≥ 2c_d − 1, which is enough for no wrapped term to
reach a cell of the grid, its spectrum is cached as well (``_kernel_table``,
16 entries), so each map costs one forward FFT of the samples, one product
and one inverse FFT.  Both are numpy's one-axis FFTs run in the order of
scipy's n-dimensional ones (the same pocketfft code), so the maps are bit
for bit those of ``scipy.fft.rfftn``/``irfftn``: the forward pass is a real
FFT of the unpadded rows along the last axis, then complex FFTs along axes
0, 1, … in turn, so the rows that the zero padding would add are never
transformed (they are exact zeros); the inverse pass runs unscaled complex
FFTs along axes 0, 1, … and keeps the first c_d entries of each axis right
after its pass, then the real inverse FFT along the last axis, and scales
the c-sized result by 1/∏L_d once, last, as pocketfft does.  Each pass
first moves its axis last, so every FFT reads contiguous rows; the cached
spectrum keeps the layout the forward pass leaves.  Where only one
value of V_{α,s} f is read, :func:`havin_mazya_at` maps the inner potential
and takes the outer one as a single dot with the window of the offset table
centred on that cell.  The test suite keeps the direct sum over cells as its
oracle and checks both paths against it to round-off, and scipy.fft as the
oracle of the passes, bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AlphaOutOfRange, BallBelowResolution, NonNegativityViolation
from .field_grid import (
    GridField,
    GridGeometry,
    ShellPlan,
    _cells_mean,
    _check_balls,
    _containing_cell,
    _lattice_plan,
    max_admissible_radius,
)

__all__ = [
    "PotentialParams",
    "RadialQuadrature",
    "max_admissible_radius",
    "wulff_potential",
    "riesz_map",
    "havin_mazya_map",
    "havin_mazya_at",
    "oscillation_potential",
]


@dataclass(frozen=True)
class PotentialParams:
    """Order parameters (α, s) and truncation radius R (``math.inf`` allowed:
    the radius is then windowed to the largest ball inside the domain)."""

    alpha: float
    s: float
    R: float = math.inf

    def __post_init__(self):
        if not (self.alpha > 0):
            raise AlphaOutOfRange(f"alpha must be positive, got {self.alpha}")
        if not (self.s > 1):
            raise AlphaOutOfRange(f"s must exceed 1, got {self.s}")
        if not (self.R > 0):
            raise AlphaOutOfRange(f"R must be positive, got {self.R}")


@dataclass(frozen=True)
class RadialQuadrature:
    """Midpoint rule in log r for ∫ g(r) dr/r over [r_min, R].

    ``radii`` are the geometric midpoints of m = max(24, ⌈8·log₂(R/r_min)⌉)
    equal log-panels (at least eight per octave) and every weight equals
    log(R/r_min)/m, so the weights sum to log(R/r_min) exactly and the rule
    is exact for g constant in log r.
    """

    radii: np.ndarray
    weights: np.ndarray

    @classmethod
    def log_spaced(cls, r_min: float, R: float) -> "RadialQuadrature":
        if not (R > r_min > 0):
            raise BallBelowResolution(
                f"need R > r_min > 0, got r_min={r_min:g}, R={R:g}"
            )
        span = math.log(R / r_min)
        m = max(24, int(math.ceil(8 * span / math.log(2))))
        step = span / m
        radii = r_min * np.exp((np.arange(m) + 0.5) * step)
        weights = np.full(m, step)
        radii.flags.writeable = False
        weights.flags.writeable = False
        return cls(radii, weights)


def _require_scalar_nonneg(f: GridField, what: str) -> None:
    if f.kind != "scalar":
        raise NonNegativityViolation(f"{what} takes a scalar field, got {f.kind!r}")
    if f.values.min() < 0:
        raise NonNegativityViolation(f"{what} requires a nonnegative field")


class _PointPlan(NamedTuple):
    """What the pointwise potentials and means at x with radius R read: r_min,
    the radial quadrature on [r_min, R], the shell plan of the balls of radii
    r_min and the quadrature radii around x, and ``ball``, the flat cells of
    B_R(x) in row-major order (grid cells only when B_R(x) lies in Ω)."""

    r_min: float
    quad: RadialQuadrature
    plan: ShellPlan
    ball: np.ndarray


@lru_cache(maxsize=1)
def _point_plan(geom: GridGeometry, x: tuple[float, ...], R: float) -> _PointPlan:
    """The :class:`_PointPlan` at x (R = inf: the largest admissible radius),
    from one lattice of B_R(x) (:func:`field_grid._lattice_plan`): its
    row-major cells give ⨍_{B_R(x)} as :func:`field_grid.ball_average` sums
    it, and sorted stably by shell, past the largest quadrature radius
    dropped, they are the plan.

    It depends on the grid, x and R alone, so the Wulff and the oscillation
    potential and the mean of |u| at one point share it.  One entry is kept:
    one point's read-only index arrays, each the size of a ball."""
    if math.isinf(R):
        R = max_admissible_radius(geom, x)
    r_min = 2.0 * max(geom.spacing)
    quad = RadialQuadrature.log_spaced(r_min, R)
    ball, plan = _lattice_plan(geom, x, np.array([r_min, *quad.radii]), float(R))
    for a in (ball, plan.cells, plan.counts):
        a.flags.writeable = False
    return _PointPlan(r_min, quad, plan, ball)


def _ball_mean(f: GridField, x: tuple[float, ...], R: float) -> np.ndarray:
    """⨍_{B_R(x)} f per component, summed over the row-major lattice of the
    point plan at x: the cells and order, so the bits, of
    ``field_grid.ball_average(f, Ball(x, R))``, after the same check that
    B_R(x) lies in Ω."""
    _check_balls(f.geometry, x, [R])
    return _cells_mean(f, _point_plan(f.geometry, x, R).ball)


def wulff_potential(f: GridField, params: PotentialParams, x: Sequence[float]) -> float:
    """Truncated Wulff potential W_{α,s}^R f(x) of a nonnegative scalar field.

    Monotone in f on a fixed quadrature and positively homogeneous of degree
    1/(s−1); raises if any quadrature ball leaves the domain (no extension).
    """
    _require_scalar_nonneg(f, "wulff_potential")
    r_min, quad, plan, _ = _point_plan(f.geometry, tuple(float(c) for c in x), params.R)
    a, s = params.alpha, params.s
    beta = a * s / (s - 1.0)

    avg = plan.gather(f).means()[0]
    head = avg[0] ** (1.0 / (s - 1.0)) * r_min**beta / beta
    tail = quad.weights @ (quad.radii**(a * s) * avg[1:]) ** (1.0 / (s - 1.0))
    return float(head + tail)


def oscillation_potential(F: GridField, p: float, R: float, x: Sequence[float]) -> float:
    """Oscillation potential ∫₀^R (⨍_{B_ρ(x)}|F − ⟨F⟩_{B_ρ(x)}|^{p'})^{1/p} dρ.

    Shares the Wulff radii and head convention (the integrand is frozen below
    r_min), which makes the comparison with the Wulff potential of |F|^{p'}
    exact on the common quadrature: dropping the mean costs at most the
    factor 2^{1/(p−1)} pointwise.
    """
    if not (p > 1):
        raise AlphaOutOfRange(f"oscillation potential needs p > 1, got {p}")
    r_min, quad, plan, _ = _point_plan(F.geometry, tuple(float(c) for c in x), R)
    pp = p / (p - 1.0)
    integrand = plan.gather(F).oscillations(pp) ** (pp / p)
    head = integrand[0] * r_min
    # dρ = ρ · dρ/ρ converts the log-midpoint weights to the flat measure
    tail = quad.weights @ (quad.radii * integrand[1:])
    return float(head + tail)


# ---------------------------------------------------------------------------
# Riesz and composed potentials


def _unit_sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _check_alpha(alpha: float, n: int) -> None:
    if not (0 < alpha < n):
        raise AlphaOutOfRange(f"Riesz order must satisfy 0 < alpha < n, got {alpha}")


def _singular_cell_integral(geom: GridGeometry, alpha: float) -> float:
    """Exact ∫ |y|^{α−n} dy over the disk inscribed in one cell."""
    rho = min(geom.spacing) / 2.0
    return _unit_sphere_area(geom.dim) * rho**alpha / alpha


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer ≥ n ≥ 1, as ``scipy.fft.next_fast_len(n,
    real=True)``: the least of p·2^k ≥ n over the 3^b·5^c = p below it."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=16)
def _circular_shape(geom: GridGeometry) -> tuple[int, ...]:
    """5-smooth FFT lengths L_d ≥ 2c_d − 1 of the circular Riesz convolution."""
    return tuple(_next_fast_len(2 * c - 1) for c in geom.cells)


def _forward(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``scipy.fft.rfftn(a, s=shape)`` bit for bit, stored with its axes
    rotated to (half-spectrum axis, L_0, …, L_{n−2}).

    A real FFT of the rows of ``a`` along the last axis, zero-padded to
    L_{n−1}, then complex FFTs along axes 0, 1, … in turn, as pocketfft runs
    them.  Each pass pads only its own axis, so the rows of zeros that the
    padding of a later axis adds are never transformed, and each first moves
    its axis last, so every FFT reads contiguous rows."""
    out = np.fft.rfft(a, n=shape[-1], axis=-1)
    for L in shape[:-1]:
        out = np.fft.fft(np.ascontiguousarray(np.moveaxis(out, 0, -1)), n=L, axis=-1)
    return out


def _inverse(spectrum: np.ndarray, shape: tuple[int, ...],
             cells: tuple[int, ...]) -> np.ndarray:
    """The first c_d entries per axis of ``scipy.fft.irfftn(·, s=shape)``,
    bit for bit, of a spectrum in the layout of :func:`_forward`.

    Unscaled complex inverse FFTs along axes 0, 1, … in turn, each keeping
    the first c_d entries of its axis right after it runs, then the real
    inverse FFT along the last axis and the factor 1/∏L_d, applied once to
    the cropped result, where pocketfft applies it."""
    out = spectrum
    for L, c in zip(shape[:-1], cells):
        out = np.fft.ifft(np.ascontiguousarray(np.moveaxis(out, 1, -1)), n=L, axis=-1,
                          norm="forward")[..., :c]
    out = np.fft.irfft(np.ascontiguousarray(np.moveaxis(out, 0, -1)), n=shape[-1],
                       axis=-1, norm="forward")[..., :cells[-1]]
    # pocketfft rounds 1/∏L from long double; for every 5-smooth ∏L below
    # 10¹² that is the double 1/∏L (tests/test_potential_engine.py)
    out *= 1.0 / math.prod(shape)
    return out


# held around the cached calls, so exactly one thread builds each table
_KERNEL_LOCK = threading.Lock()


@lru_cache(maxsize=16)
def _offset_table(geom: GridGeometry, alpha: float) -> np.ndarray:
    """Read-only kernel offset table K[Δ] = |Δ|^{α−n}·|cell| over
    |Δ_d| ≤ c_d − 1, stored at index Δ + c − 1, with the exact integral over
    the inscribed disk at Δ = 0."""
    n = geom.dim
    dist2 = np.zeros(tuple(2 * c - 1 for c in geom.cells))
    for d, c in enumerate(geom.cells):
        axis = [1] * n
        axis[d] = 2 * c - 1
        dist2 = dist2 + (np.arange(-(c - 1), c) * geom.spacing[d]).reshape(axis) ** 2
    center = tuple(c - 1 for c in geom.cells)
    dist2[center] = 1.0
    table = dist2 ** ((alpha - n) / 2.0) * geom.cell_measure
    table[center] = _singular_cell_integral(geom, alpha)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _kernel_table(geom: GridGeometry, alpha: float) -> np.ndarray:
    """Read-only real-FFT spectrum of :func:`_offset_table`, wrapped with
    offset m at m mod L_d, in the rotated layout of :func:`_forward`."""
    shape = _circular_shape(geom)
    wrap = np.ix_(*(np.arange(-(c - 1), c) % L for c, L in zip(geom.cells, shape)))
    wrapped = np.zeros(shape)
    wrapped[wrap] = _offset_table(geom, alpha)
    spectrum = _forward(wrapped, shape)
    spectrum.flags.writeable = False
    return spectrum


def riesz_map(f: GridField, alpha: float) -> GridField:
    """Riesz potential I_α f evaluated at every cell center, as a scalar field.

    The field is extended by zero outside the domain, and the cell at the
    evaluation center contributes the exact kernel integral over its
    inscribed disk instead of the singular kernel value.  On a uniform
    lattice the kernel depends only on the index offset, so the map is the
    convolution of the samples with the offset table: one real FFT of the
    samples zero-padded to the circular length L_d ≥ 2c_d − 1, one product
    with the cached kernel spectrum of :func:`_kernel_table`, one inverse
    FFT, and the first c_d entries per axis.  The forward pass transforms
    the c_{n−1}-long rows first and the inverse pass crops each axis right
    after its pass, so neither transforms a row that is all padding or that
    is cropped away; the 1/∏L_d scaling comes last, on the c-sized result.
    The values are those of ``scipy.fft`` bit for bit (see the module
    docstring).  One thread builds each spectrum; concurrent callers on the
    same (geometry, α) wait for it.
    """
    _require_scalar_nonneg(f, "riesz_map")
    geom = f.geometry
    _check_alpha(alpha, geom.dim)
    with _KERNEL_LOCK:
        spectrum = _kernel_table(geom, alpha)
    shape = _circular_shape(geom)
    product = _forward(f.values[0], shape)
    product *= spectrum
    out = _inverse(product, shape, geom.cells)
    # convolving nonnegative data with a positive kernel: clip FFT round-off
    np.maximum(out, 0.0, out=out)
    return GridField(geom, out, "scalar")


def _havin_mazya_inner(f: GridField, alpha: float, s: float) -> GridField:
    """The inner map (I_α f)^{1/(s−1)} of V_{α,s} f, after the checks
    0 < α < n, s > 1 and αs < n."""
    geom = f.geometry
    _check_alpha(alpha, geom.dim)
    if not (s > 1):
        raise AlphaOutOfRange(f"s must exceed 1, got {s}")
    if not (alpha * s < geom.dim):
        raise AlphaOutOfRange(
            f"composed potential needs alpha*s < n, got {alpha * s} >= {geom.dim}"
        )
    inner = riesz_map(f, alpha)
    return inner.with_values(inner.values ** (1.0 / (s - 1.0)))


def havin_mazya_map(f: GridField, alpha: float, s: float) -> GridField:
    """V_{α,s} f = I_α((I_α f)^{1/(s−1)}) at every cell center, αs < n."""
    return riesz_map(_havin_mazya_inner(f, alpha, s), alpha)


def havin_mazya_at(f: GridField, alpha: float, s: float, x: Sequence[float]) -> float:
    """V_{α,s} f at the cell that holds ``x`` (the value :func:`value_at`
    reads from :func:`havin_mazya_map`), αs < n.

    The inner map is a full Riesz map; the outer potential at cell i₀ is one
    dot of it with the window K[j − i₀], j over the grid, of the cached
    offset table.
    """
    geom = f.geometry
    i0 = np.unravel_index(_containing_cell(geom, x), geom.cells)
    inner = _havin_mazya_inner(f, alpha, s)
    with _KERNEL_LOCK:
        table = _offset_table(geom, alpha)
    window = table[tuple(slice(c - 1 - i, 2 * c - 1 - i) for c, i in zip(geom.cells, i0))]
    return float((inner.values[0] * window).sum())
