"""Uniform cell-centered grids and the ball calculus built on them.

Fields live on an axis-aligned box Ω partitioned into a uniform lattice of
cells; every sample sits at a cell center.  The module provides the three
primitives the rest of the library is built from:

* averages ⨍_B f over metric balls B ⊆ Ω,
* mean oscillations (⨍_B |f − ⟨f⟩_B|^q)^{1/q} with the Euclidean magnitude
  taken across field components,
* a co-located finite-difference gradient (centered in the interior,
  second-order one-sided at the boundary).

This module alone decides which cells a ball holds, by one rule written on
cell offsets (``_ball_offsets``): with i₀ the cell that holds x and
δ = x − (center of cell i₀) (``_cell_of``), the cell i₀ + k belongs to
B_r(x) iff d² = Σ_d (k_d·h_d − δ_d)² ≤ r².  Every ball is a list of flat
row-major cell indices built by this rule.  At a cell center δ = 0, so no
rounding of center coordinates enters and the cells depend on r alone:
:func:`ball_stencil` lists them once per radius as flat index offsets.
:func:`ball_cells` applies the rule to one ball; :func:`shell_plan`
applies it to many concentric balls at once, ordering the cells of the
largest ball shell by shell (by the smallest requested r² ≥ d²) so that
every smaller ball is a prefix, and :func:`nested_balls` gathers one field
on such a plan.

Balls are hard-rejected unless they fit inside Ω — the averaging operators
never see extension artifacts.  Fields are immutable after construction and
serialize to the self-describing ``WLF1`` binary format (text header plus
little-endian float64 blocks, one block per component, row-major).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BallBelowResolution,
    BallOutsideDomain,
    DegenerateGrid,
    DimensionMismatch,
    GridTooCoarse,
    MalformedHeader,
    NonFiniteValue,
)

__all__ = [
    "GridGeometry",
    "GridField",
    "Ball",
    "NestedBalls",
    "ShellPlan",
    "max_admissible_radius",
    "ball_average",
    "ball_oscillation",
    "ball_cells",
    "ball_stencil",
    "nested_balls",
    "shell_plan",
    "gradient",
    "value_at",
    "encode_field",
    "read_field",
    "write_field",
]

_KINDS = ("scalar", "vector", "matrix")


@dataclass(frozen=True)
class GridGeometry:
    """Axis-aligned box with a uniform cell lattice.

    The cell centers along axis ``d`` are ``origin[d] + (i + 1/2) * spacing[d]``
    for ``i = 0 .. cells[d]-1``; ``spacing[d]`` is derived as
    ``extent[d] / cells[d]`` so the lattice tiles the box exactly.
    """

    cells: tuple[int, ...]
    extent: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.cells) == len(self.extent) == len(self.origin)):
            raise DimensionMismatch(
                f"cells/extent/origin arity disagree: "
                f"{len(self.cells)}/{len(self.extent)}/{len(self.origin)}"
            )
        if self.dim < 2:
            raise DimensionMismatch("grids are defined for dimension n >= 2")
        if any(int(c) != c or c < 1 for c in self.cells):
            raise GridTooCoarse(f"cell counts must be positive integers, got {self.cells}")
        if any(not (0 < e < math.inf) for e in self.extent):
            raise DegenerateGrid(f"extents must be positive and finite, got {self.extent}")
        if not all(math.isfinite(o) for o in self.origin):
            raise DegenerateGrid(f"origin must be finite, got {self.origin}")
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        object.__setattr__(self, "extent", tuple(float(e) for e in self.extent))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / c for e, c in zip(self.extent, self.cells))

    @property
    def cell_measure(self) -> float:
        return math.prod(self.spacing)

    @property
    def cell_count(self) -> int:
        return math.prod(self.cells)

    @property
    def center(self) -> tuple[float, ...]:
        """Center of the box, ``origin + extent / 2``."""
        return tuple(o + 0.5 * e for o, e in zip(self.origin, self.extent))

    def axis_centers(self, d: int) -> np.ndarray:
        h = self.spacing[d]
        return self.origin[d] + (np.arange(self.cells[d]) + 0.5) * h

    def center_mesh(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each of shape ``cells`` (cached)."""
        return _center_mesh(self)

    def _contains(self, center: Sequence[float], radii) -> np.ndarray:
        """Whether each ball B_r(center), r in ``radii``, lies in the box, up to
        1e-12 of the largest extent."""
        pad = 1e-12 * max(self.extent)
        c = np.array(center, dtype=float)[:, None]
        o = np.array(self.origin)[:, None]
        r = np.asarray(radii, dtype=float)
        return ((c - r >= o - pad)
                & (c + r <= o + np.array(self.extent)[:, None] + pad)).all(axis=0)

    def contains_point(self, x: Sequence[float]) -> bool:
        return all(
            self.origin[d] <= x[d] <= self.origin[d] + self.extent[d]
            for d in range(self.dim)
        )


@lru_cache(maxsize=32)
def _center_mesh(geom: GridGeometry) -> tuple[np.ndarray, ...]:
    axes = [geom.axis_centers(d) for d in range(geom.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    for m in mesh:
        m.flags.writeable = False
    return tuple(mesh)


@dataclass(frozen=True)
class Ball:
    """Closed metric ball; used only when contained in the grid domain."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0):
            raise ValueError(f"ball radius must be positive, got {self.radius}")


class GridField:
    """Immutable sampled field over a :class:`GridGeometry`.

    ``values`` has shape ``(ncomp, *cells)`` with one row-major block per
    component.  ``kind`` is ``"scalar"`` (one component), ``"vector"``
    (``N`` components) or ``"matrix"`` (``N × n`` components stored row-major,
    component ``i*n + d`` holding entry ``(i, d)``).
    """

    __slots__ = ("geometry", "kind", "codomain", "values")

    def __init__(self, geometry: GridGeometry, values: np.ndarray, kind: str = "scalar",
                 codomain: int = 1):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        ncomp = self._ncomp_for(kind, codomain, geometry.dim)
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape == geometry.cells and ncomp == 1:
            arr = arr[np.newaxis]
        if arr.shape != (ncomp,) + geometry.cells:
            raise DimensionMismatch(
                f"values shape {arr.shape} does not match "
                f"({ncomp},) + cells {geometry.cells}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("field contains non-finite samples")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "codomain", int(codomain))
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("GridField is immutable")

    @staticmethod
    def _ncomp_for(kind: str, codomain: int, dim: int) -> int:
        if kind == "scalar":
            if codomain != 1:
                raise ValueError("scalar fields have codomain 1")
            return 1
        if kind == "vector":
            return codomain
        return codomain * dim

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_function(cls, geometry: GridGeometry, fn: Callable, kind: str = "scalar",
                      codomain: int = 1) -> "GridField":
        """Sample ``fn`` at cell centers; ``fn`` receives the coordinate mesh
        arrays and must return an array of shape ``cells`` (scalar) or
        ``(ncomp, *cells)``."""
        out = np.asarray(fn(*geometry.center_mesh()), dtype=np.float64)
        return cls(geometry, out, kind, codomain)

    def magnitude(self) -> "GridField":
        """Pointwise Euclidean magnitude across components, as a scalar field.
        One component is taken as |f|.  Squares flush values below ~1e-154
        toward 0 and overflow those above ~1e154, so a point whose plain
        magnitude is not a finite normal float is computed again on its
        components scaled by a power of two (:func:`_rescaled`)."""
        if self.ncomp == 1:
            mag = np.abs(self.values)
        else:
            mag = np.sqrt(np.einsum("c...,c...->...", self.values, self.values))
            bad = _abnormal(mag)
            if bad.any():
                mag[bad] = _rescaled(self.values[:, bad][..., None], 1.0)
        return GridField(self.geometry, mag, "scalar")

    def with_values(self, values: np.ndarray) -> "GridField":
        return GridField(self.geometry, values, self.kind, self.codomain)


# ---------------------------------------------------------------------------
# ball calculus


def _check_point(geom: GridGeometry, x: Sequence[float]) -> None:
    if len(x) != geom.dim:
        raise DimensionMismatch(f"point {tuple(x)} has {len(x)} coordinates "
                                f"on a {geom.dim}-d grid")


def max_admissible_radius(geom: GridGeometry, x: Sequence[float]) -> float:
    """Largest radius r with B_r(x) contained in the domain box."""
    _check_point(geom, x)
    lo = min(x[d] - geom.origin[d] for d in range(geom.dim))
    hi = min(geom.origin[d] + geom.extent[d] - x[d] for d in range(geom.dim))
    return min(lo, hi)


def _check_balls(geom: GridGeometry, x: Sequence[float], radii) -> None:
    """Check the balls B_r(x), r in ``radii``, in one pass: the first one in
    input order that is below the resolution or leaves Ω raises."""
    _check_point(geom, x)
    r = np.asarray(radii, dtype=float)
    # a ball below the resolution has every smaller one below it, and one
    # that leaves Ω every larger one, so the extremes decide that none fails
    if r.min() >= max(geom.spacing) and geom._contains(x, [r.max()])[0]:
        return
    below = r < max(geom.spacing)
    for i in np.flatnonzero(below | ~geom._contains(x, r))[:1]:  # the first failure
        if below[i]:
            raise BallBelowResolution(
                f"radius {r[i]:g} is below the grid spacing {max(geom.spacing):g}")
        raise BallOutsideDomain(f"ball B_{r[i]:g}({tuple(float(c) for c in x)}) "
                                f"is not contained in the domain")


def _cell_of(geom: GridGeometry, x: Sequence[float]) -> tuple[int, tuple[float, ...]]:
    """The flat row-major index of the cell i₀ that holds ``x`` (floor per
    axis, clamped to the grid) and δ = x − (center of i₀) per axis."""
    flat, delta = 0, []
    for d, h in enumerate(geom.spacing):
        i = min(max(math.floor((x[d] - geom.origin[d]) / h), 0), geom.cells[d] - 1)
        flat = flat * geom.cells[d] + i
        delta.append(x[d] - (geom.origin[d] + (i + 0.5) * h))
    return flat, tuple(delta)


def _ball_offsets(geom: GridGeometry, r: float,
                  delta: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major offsets k from a cell i₀ to the cells with
    d² = Σ_d (k_d·h_d − δ_d)² ≤ r², in row-major order, and their d²: the one
    rule that decides which cells B_r(center of i₀ + δ) holds.  |δ_d| < h_d,
    so |k_d| ≤ r/h_d + 1 covers the ball."""
    flat, dist2 = 0, 0.0
    for d, h in enumerate(geom.spacing):
        m = int(r / h) + 1
        shape = [1] * geom.dim
        shape[d] = 2 * m + 1
        k = np.arange(-m, m + 1).reshape(shape)
        flat = flat * geom.cells[d] + k
        dist2 = dist2 + (k * h - delta[d]) ** 2
    inside = dist2 <= r**2
    return flat[inside], dist2[inside]


@lru_cache(maxsize=64)
def ball_stencil(geom: GridGeometry, r: float) -> np.ndarray:
    """Flat (row-major) index offsets from a cell to the cells of the ball of
    radius ``r`` around that cell's center, listed in row-major order
    (cached, read-only).  The rule of :func:`ball_cells` with δ = 0, so it
    does not depend on the center: cell ``c + offset`` is in B_r(center of c)."""
    offsets, _ = _ball_offsets(geom, r, (0.0,) * geom.dim)
    offsets.flags.writeable = False
    return offsets


def ball_cells(geom: GridGeometry, ball: Ball) -> np.ndarray:
    """Flat row-major indices of the cells of a ball, in row-major order.

    The ball lies in the domain, so every cell it holds is a grid cell and
    no offset wraps into another row."""
    _check_balls(geom, ball.center, [ball.radius])
    i0, delta = _cell_of(geom, ball.center)
    offsets, _ = _ball_offsets(geom, ball.radius, delta)
    if not offsets.size:
        raise BallBelowResolution(
            f"ball B_{ball.radius:g}({ball.center}) contains no cell centers"
        )
    return i0 + offsets


def _root(x, q: float) -> np.ndarray:
    """x^{1/q} value by value with the C library pow of scalar arithmetic:
    numpy's vectorized power may differ from it in the last bit, and a batch
    must give the values of one-at-a-time evaluation."""
    if q == 1.0:
        return x
    x = np.asarray(x)
    return np.array([v ** (1.0 / q) for v in x.ravel().tolist()]).reshape(x.shape)


def _mean_power(dev: np.ndarray, q: float, mag: np.ndarray | None = None) -> np.ndarray:
    """(⨍|dev|^q)^{1/q} over the last axis of ``dev`` (ncomp, ..., k), |·|
    Euclidean across components (|dev| for one component); ``mag``, an
    array of the shape of ``dev[0]``, takes the magnitudes in place."""
    if len(dev) == 1:
        mag = np.abs(dev[0], out=mag)
    else:
        mag = np.einsum("c...k,c...k->...k", dev, dev, out=mag)
        np.sqrt(mag, out=mag)
    if q != 1.0:
        mag **= q
    return _root(mag.mean(axis=-1), q)


# smallest normal and largest finite float64
_NORMAL = 2.0**-1022
_HUGE = float(np.finfo(np.float64).max)


def _abnormal(x) -> np.ndarray:
    """Where ``x`` is 0, subnormal, infinite or NaN."""
    return ~((x >= _NORMAL) & (x <= _HUGE))


def _rescaled(dev: np.ndarray, q: float) -> np.ndarray:
    """:func:`_mean_power` of each row of ``dev`` (ncomp, rows, k), computed
    on the row times 2⁻ᵉ with 2ᵉ⁻¹ ≤ its largest |entry| < 2ᵉ and scaled back
    by 2ᵉ.  Both scalings are exact (barring a subnormal result), so the
    squares and powers of a row far below or above 1 neither underflow nor
    overflow, and a row scaled by a power of two gives its value scaled
    alike."""
    _, e = np.frexp(np.abs(dev).max(axis=(0, 2)))
    with np.errstate(over="ignore"):
        return np.ldexp(_mean_power(np.ldexp(dev, -e[:, None]), q), e)


def _oscillation(vals: np.ndarray, mean: np.ndarray, q: float,
                 scratch: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """(⨍|v − mean|^q)^{1/q} over the last axis of ``vals`` (ncomp, ..., k)
    with ``mean`` (ncomp, ...), one value per index of the batch axes ``...``;
    the deviation magnitude is Euclidean across components (|v − mean| for
    one component).  ``scratch``, arrays of the shapes of ``vals`` and
    ``vals[0]``, takes the deviations and their magnitudes in place.

    A value that comes out 0, subnormal or not finite is computed again on
    its deviations scaled by a power of two (:func:`_rescaled`): squares and
    q-th powers of deviations far below or above 1 underflow or overflow.
    Every other value is the plain one, and the check reads the values
    alone, not the deviations.  An overflow of a scalar field's q-th powers
    raises numpy's warning unless the caller ignores it: its callers do, once
    per call, sweep or block of balls, not once per ball."""
    if not (q >= 1.0):
        raise ValueError(f"oscillation exponent must satisfy q >= 1, got {q}")
    dev, mag = scratch if scratch is not None else (None, None)
    dev = np.subtract(vals, mean[..., None], out=dev)
    out = _mean_power(dev, q, mag)
    if out.ndim == 0 and _NORMAL <= float(out) <= _HUGE:  # one ball: no array comparisons
        return out
    bad = _abnormal(out)
    if bad.any():
        out = np.array(out)
        out[bad] = _rescaled(dev[:, bad], q)
    return out


def ball_average(f: GridField, ball: Ball) -> np.ndarray:
    """Per-component mean ⨍_B f over the cells of ``ball``.

    Deterministic for a fixed grid: the uniform cell measure cancels, so this
    is the plain mean of the included samples, one entry per component.
    """
    return np.take(f.values.reshape(f.ncomp, -1), ball_cells(f.geometry, ball),
                   axis=1).mean(axis=1)


def ball_oscillation(f: GridField, ball: Ball, q: float = 1.0) -> float:
    """q-mean oscillation ``(⨍_B |f − ⟨f⟩_B|^q)^{1/q}``.

    The deviation magnitude is Euclidean across components, so vector and
    matrix fields oscillate as a whole rather than componentwise.
    """
    vals = np.take(f.values.reshape(f.ncomp, -1), ball_cells(f.geometry, ball), axis=1)
    with np.errstate(over="ignore"):  # overflowing q-th powers are rescaled
        return float(_oscillation(vals, vals.mean(axis=1), q))


@dataclass(frozen=True)
class NestedBalls:
    """A field's samples on concentric balls B_r(x): ``values`` (ncomp, K)
    holds the samples of the largest ball ordered shell by shell (see
    :func:`nested_balls`), so the cells of B_{radii[i]}(x) are the first
    ``counts[i]`` columns."""

    values: np.ndarray
    counts: np.ndarray

    def means(self) -> np.ndarray:
        """Per-component means ⨍_{B_r} f, shape (ncomp, number of radii)."""
        return np.cumsum(self.values, axis=1)[:, self.counts - 1] / self.counts

    def oscillations(self, q: float = 1.0) -> np.ndarray:
        """q-mean oscillations (⨍_{B_r}|f − ⟨f⟩_{B_r}|^q)^{1/q}, one per radius,
        in one sweep over the prefixes: the deviations and magnitudes of every
        radius go into one pair of buffers sized to the largest of them."""
        means = self.means()
        n, k_max = len(self.values), self.counts.max()
        # C-contiguous views, as a fresh ``vals − mean`` of the C-ordered
        # ``values`` (np.take) is, so einsum sums both alike
        dev, mag = np.empty(n * k_max), np.empty(k_max)
        # one error state for the sweep, not one per radius; overflowing
        # q-th powers are rescaled
        with np.errstate(over="ignore"):
            return np.array([_oscillation(self.values[:, :k], means[:, i], q,
                                          (dev[:n * k].reshape(n, k), mag[:k]))
                             for i, k in enumerate(self.counts)])


class ShellPlan(NamedTuple):
    """The cells of concentric balls B_r(x) as one index array: ``cells``
    lists the flat row-major indices of the largest ball shell by shell (see
    :func:`shell_plan`), so the cells of B_{radii[i]}(x) are the first
    ``counts[i]`` entries.  It depends on the geometry alone, so one plan
    gathers any number of fields on that grid."""

    cells: np.ndarray
    counts: np.ndarray

    def gather(self, f: GridField) -> NestedBalls:
        """The samples of ``f`` on the planned balls."""
        return NestedBalls(np.take(f.values.reshape(f.ncomp, -1), self.cells, axis=1),
                           self.counts)


def shell_plan(geom: GridGeometry, x: Sequence[float], radii: Sequence[float]) -> ShellPlan:
    """The cells of the balls B_r(x), r in ``radii`` (any order), ordered so
    that every ball is a prefix.

    Every radius passes the checks of :func:`ball_cells`.  A cell's shell is
    the index of the smallest requested r² ≥ its d²; a stable sort of these
    small integers orders the cells shell by shell, so ``counts[i]``, a
    prefix sum of shell sizes, counts the ``ball_cells`` of B_{radii[i]}(x).
    """
    r = np.array(radii, dtype=float)
    Ball(tuple(x), r.min())  # the ValueError of a radius that is not positive
    _check_balls(geom, x, r)
    r2 = [v**2 for v in r.tolist()]  # the r² of _ball_offsets, to the bit
    i0, delta = _cell_of(geom, tuple(float(c) for c in x))
    offsets, dist2 = _ball_offsets(geom, float(r.max()), delta)
    levels = np.unique(r2)
    shell = np.searchsorted(levels, dist2).astype(np.min_scalar_type(levels.size - 1))
    counts = np.cumsum(np.bincount(shell, minlength=levels.size))[np.searchsorted(levels, r2)]
    if counts.min() == 0:
        raise BallBelowResolution(f"a ball around {tuple(x)} contains no cell centers")
    return ShellPlan(i0 + offsets[np.argsort(shell, kind="stable")], counts)


def nested_balls(f: GridField, x: Sequence[float], radii: Sequence[float]) -> NestedBalls:
    """Samples of ``f`` on the balls B_r(x), r in ``radii`` (any order): the
    :func:`shell_plan` of these balls, gathered from ``f``."""
    return shell_plan(f.geometry, x, radii).gather(f)


def _containing_cell(geom: GridGeometry, x: Sequence[float]) -> int:
    """The flat index :func:`_cell_of` gives a point ``x`` of the domain."""
    _check_point(geom, x)
    if not geom.contains_point(x):
        raise BallOutsideDomain(f"point {tuple(x)} lies outside the domain")
    return _cell_of(geom, x)[0]


def value_at(f: GridField, x: Sequence[float]) -> np.ndarray:
    """Sample values of the cell containing ``x`` (one entry per component)."""
    return f.values.reshape(f.ncomp, -1)[:, _containing_cell(f.geometry, x)]


# ---------------------------------------------------------------------------
# gradient


def gradient(f: GridField) -> GridField:
    """Discrete gradient of a scalar or vector field as a matrix field.

    Centered second-order differences in the interior and second-order
    one-sided stencils at the boundary; component ``i*n + d`` of the result
    holds ∂u_i/∂x_d.  Exact for affine fields including the boundary rows.
    """
    if f.kind == "matrix":
        raise ValueError("gradient is defined for scalar and vector fields")
    geom = f.geometry
    if min(geom.cells) < 3:
        raise GridTooCoarse("gradient needs at least 3 cells per axis")
    n = geom.dim
    N = f.ncomp
    out = np.empty((N * n,) + geom.cells)
    for c in range(N):
        for d in range(n):
            out[c * n + d] = np.gradient(
                f.values[c], geom.spacing[d], axis=d, edge_order=2
            )
    return GridField(geom, out, "matrix", codomain=N)


# ---------------------------------------------------------------------------
# WLF1 serialization


_MAGIC = "WLF1"


def encode_field(f: GridField) -> bytes:
    """A field in the WLF1 format (text header + float64 LE payload)."""
    geom = f.geometry
    header = (
        f"{_MAGIC}\n"
        f"n={geom.dim} N={f.codomain} shape={f.kind}\n"
        f"cells={'x'.join(str(c) for c in geom.cells)}\n"
        f"extent={','.join(repr(e) for e in geom.extent)}\n"
        f"origin={','.join(repr(o) for o in geom.origin)}\n"
        f"\n"
    )
    # concatenating the array's buffer copies the payload once, not twice
    return header.encode("ascii") + np.ascontiguousarray(f.values, dtype="<f8").data


def write_field(f: GridField, path) -> None:
    """Write a field to ``path`` in the WLF1 format."""
    with open(path, "wb") as fh:
        fh.write(encode_field(f))


def _header_fail(msg: str):
    raise MalformedHeader(msg)


def read_field(path) -> GridField:
    """Read a WLF1 field file; strict about header structure and payload size."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # header: everything up to the first blank line
    sep = raw.find(b"\n\n")
    if sep < 0:
        _header_fail("missing blank line separating header from payload")
    try:
        lines = raw[:sep].decode("ascii").split("\n")
    except UnicodeDecodeError:
        _header_fail("header is not ASCII")
    if len(lines) != 5:
        _header_fail(f"expected 5 header lines, found {len(lines)}")
    if lines[0] != _MAGIC:
        _header_fail(f"bad magic {lines[0]!r}")

    fields = {}
    for token in lines[1].split():
        if "=" not in token:
            _header_fail(f"malformed token {token!r} on the shape line")
        k, v = token.split("=", 1)
        fields[k] = v
    for key in ("n", "N", "shape"):
        if key not in fields:
            _header_fail(f"shape line is missing {key!r}")
    try:
        n = int(fields["n"])
        N = int(fields["N"])
    except ValueError:
        _header_fail("n and N must be integers")
    kind = fields["shape"]
    if kind not in _KINDS:
        _header_fail(f"unknown shape {kind!r}")

    def _split(line: str, key: str, cast, sep_ch: str):
        if not line.startswith(key + "="):
            _header_fail(f"expected {key}= line, got {line!r}")
        body = line[len(key) + 1:]
        try:
            return tuple(cast(t) for t in body.split(sep_ch))
        except ValueError:
            _header_fail(f"cannot parse {key} entries from {body!r}")

    cells = _split(lines[2], "cells", int, "x")
    extent = _split(lines[3], "extent", float, ",")
    origin = _split(lines[4], "origin", float, ",")
    for name, tup in (("cells", cells), ("extent", extent), ("origin", origin)):
        if len(tup) != n:
            raise DimensionMismatch(
                f"header declares n={n} but {name} has {len(tup)} entries"
            )

    geom = GridGeometry(cells, extent, origin)
    ncomp = GridField._ncomp_for(kind, N, n)
    payload = raw[sep + 2:]
    expected = ncomp * geom.cell_count * 8
    if len(payload) != expected:
        _header_fail(
            f"payload holds {len(payload)} bytes, header implies {expected} "
            f"({ncomp} component blocks of {geom.cell_count} float64 samples)"
        )
    arr = np.frombuffer(payload, dtype="<f8").reshape((ncomp,) + geom.cells)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"field file {path} contains non-finite samples")
    return GridField(geom, arr.astype(np.float64), kind, codomain=N)
