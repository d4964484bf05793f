"""Empirical verifiers for the potential estimates and their consequences.

Each ``verify_*`` function evaluates one inequality on concrete grid data and
returns a :class:`VerificationReport`: per-sample LHS/RHS records, the fitted
empirical constant C* = max LHS/RHS, and a pass flag.  The estimates carry
existential constants, so except for the telescoping lemma (whose constants
2^{2n+2} and 2^{2n+3} are explicit) a verifier asserts finiteness and
stability of C*, never its magnitude.

Pairs (u, F) must be discrete weak solutions: every pair check takes a
:class:`GatedPair`, which only :func:`gate_pair` builds, after measuring the
weak residual and refusing a pair above tolerance (:class:`ResidualTooLarge`).
So a bound can never look "verified" against data that does not solve the
system, and a pair checked by several verifiers is gated once.

Random test families are seeded and versioned; reports whose samples come
from :func:`random_field` embed the family version so archived numbers stay
reproducible.  The parts of Theorems A and B bound one map, V_{α,s}, so
parts with one grid, α, s, sample count and seed share one pass
(:func:`potential_norm_terms`): each datum is drawn and mapped once, every
part's two sides are taken on it, and only the records outlive the pass.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BallBelowResolution,
    BallOutsideDomain,
    ConfigError,
    InadmissibleParams,
    InsufficientRadii,
    ParameterRangeViolation,
    QuadratureFailure,
    QuasiIncreasingViolation,
    ResidualTooLarge,
    WulffLabError,
)
from .field_grid import (
    Ball,
    GridField,
    GridGeometry,
    NestedBalls,
    ball_average,
    ball_cells,
    ball_oscillation,
    gradient,
    nested_balls,
    shell_plan,
    value_at,
)
from .function_spaces import (
    LorentzParams,
    YoungFunction,
    balance_report,
    campanato_seminorm,
    lorentz_zygmund_norm,
    luxemburg_norm,
    monotone_envelope,
    morrey_norm,
    potential_young_transforms,
    rearrange,
    weight_power,
)
from .plaplace_solver import manufacture, weak_residual
from .potential_engine import (
    PotentialParams,
    RadialQuadrature,
    _ball_mean,
    havin_mazya_at,
    havin_mazya_map,
    max_admissible_radius,
    oscillation_potential,
    wulff_potential,
)

__all__ = [
    "FAMILY_VERSION",
    "GatedPair",
    "NormPart",
    "PointwiseTerms",
    "SampleRecord",
    "VerificationReport",
    "gate_pair",
    "pointwise_terms",
    "potential_norm_part",
    "potential_norm_terms",
    "random_field",
    "radial_profile",
    "verify_pointwise",
    "verify_pointwise_osc",
    "verify_oscillation",
    "verify_telescope",
    "verify_hardy",
    "verify_energy_inequalities",
    "verify_domination",
    "verify_potential_norm_maps",
    "verify_regularity_exponents",
]

FAMILY_VERSION = "fields-3"


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SampleRecord:
    """One tested instance: LHS ≤ C·RHS with ratio = LHS/RHS.

    ``ratio`` is 0 when both sides vanish (pass by convention) and +inf when
    the LHS is positive against a vanishing RHS (always a failure).
    """

    label: str
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    params: dict
    samples: tuple[SampleRecord, ...]
    c_star: float
    passed: bool
    notes: tuple[str, ...]
    # set only when the samples come from random_field
    family_version: str | None = None

    def to_dict(self) -> dict:
        # one pass over the fields; the containers are fresh copies (params
        # holds numbers, strings and tuples)
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.family_version is None:
            del d["family_version"]
        d["params"] = dict(self.params)
        d["samples"] = [asdict(s) for s in self.samples]
        d["notes"] = list(self.notes)
        return d

    def csv_rows(self) -> list[list[str]]:
        """One row per sample: theorem, label, lhs, rhs, ratio, passed."""
        return [
            [self.theorem, s.label, repr(s.lhs), repr(s.rhs), repr(s.ratio),
             str(self.passed)]
            for s in self.samples
        ]


def _record(label: str, lhs: float, rhs: float) -> SampleRecord:
    lhs, rhs = float(lhs), float(rhs)
    if rhs > 0:
        # inf/inf counts as a failure, not a nan
        ratio = math.inf if (math.isinf(lhs) and math.isinf(rhs)) else lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return SampleRecord(label, lhs, rhs, ratio)


def _assemble(theorem: str, params: dict, samples: list[SampleRecord],
              notes: list[str], extra_pass: bool = True,
              seeded: bool = False) -> VerificationReport:
    """Report with C* = max ratio; ``seeded`` marks samples drawn by
    :func:`random_field`, which stamps :data:`FAMILY_VERSION` on it."""
    if not samples:
        raise ParameterRangeViolation("no samples to verify")
    c_star = max(s.ratio for s in samples)
    positivity = all(s.rhs > 0 for s in samples if s.lhs > 0)
    passed = bool(extra_pass and positivity and math.isfinite(c_star))
    return VerificationReport(
        theorem=theorem,
        params=dict(params),
        samples=tuple(samples),
        c_star=float(c_star),
        passed=passed,
        notes=tuple(notes),
        family_version=FAMILY_VERSION if seeded else None,
    )


def _threads(threads: int | None) -> int:
    """Worker count: ``threads`` if given, else 1; a count below 1 is an
    error."""
    if threads is None:
        return 1
    if threads < 1:
        raise ConfigError(f"worker threads must be at least 1, got {threads}")
    return threads


def _parallel_map(fn, items, threads: int | None):
    k = _threads(threads)
    if k == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# seeded test-field families


def random_field(geom: GridGeometry, seed: int, kind: str = "fourier", *,
                 bumps: int = 5, exponent: float = 0.75, nonneg: bool = False,
                 components: int = 1, shape: str = "scalar") -> GridField:
    """Seeded random field families used by the verifiers.

    ``fourier``: trigonometric sums Σ amp_k cos(2π k·x̂ + φ_k) over the wave
    vectors k = (k₁, k₂) of the first two axes with 0 < |k| ≤ 6 and
    amplitudes decaying like 1/(1 + |k|²), constant along further axes.  The
    sum is separable, Re(E₁ᵀ C E₂) with E_d[k, i] = exp(2πi k x̂_d[i]) and
    C = amp·e^{iφ}, and is evaluated as real cos/sin outer products;
    ``bumps``: sums of signed Gaussian bumps; ``singular``: a truncated
    radial power |x − x₀|^{-exponent} (always nonnegative).  Fields are
    deterministic in (geometry, seed, parameters); the family version is
    :data:`FAMILY_VERSION` (``fields-3``: ``fourier`` and ``bumps`` are
    evaluated separably, as outer products of per-axis factors; they draw
    the same random stream as the full-mesh sums of ``fields-1`` and differ
    from them by round-off).
    """
    rng = np.random.default_rng(seed)
    n = geom.dim
    ncomp = GridField._ncomp_for(shape, components, n)
    comps = []
    for _ in range(ncomp):
        if kind == "fourier":
            v = _fourier_sum(geom, rng)
        elif kind == "bumps":
            v = _bumps_sum(geom, rng, bumps)
        elif kind == "singular":
            mesh = geom.center_mesh()
            c = [geom.origin[d] + geom.extent[d] * rng.uniform(0.35, 0.65)
                 for d in range(n)]
            d2 = sum((mesh[d] - c[d]) ** 2 for d in range(n))
            dist = np.sqrt(d2)
            floor = 0.25 * min(geom.spacing)
            v = np.maximum(dist, floor) ** (-exponent)
        else:
            raise ValueError(f"unknown field family {kind!r}")
        if nonneg and kind != "singular":
            span = float(v.max() - v.min())
            v = v - v.min() + 0.05 * (span if span > 0 else 1.0)
        comps.append(v)
    vals = np.stack(comps)
    return GridField(geom, vals, shape, codomain=components)


def _bumps_sum(geom: GridGeometry, rng: np.random.Generator, bumps: int) -> np.ndarray:
    """One ``bumps`` component: draws the center, width and amplitude of each
    bump in turn and adds amp·exp(−|x − c|²/2w²) as the outer product of the
    per-axis factors exp(−(x_d − c_d)²/2w²)."""
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


def _fourier_sum(geom: GridGeometry, rng: np.random.Generator) -> np.ndarray:
    """One ``fourier`` component: draws amp then φ per wave vector, k₁ and k₂
    ascending from −6, and sums the waves through the 13×13 matrix C.  The
    draws are ``standard_normal()`` and 2π·``random()``, the same floats as
    ``normal()`` and ``uniform(0, 2π)`` at less cost per call."""
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
    # C·E₂ = (c_re + i·c_im)(cos t₂ + i·sin t₂); einsum keeps these small
    # products off threaded BLAS
    ce_re = np.einsum("kl,lj->kj", c_re, cos2) - np.einsum("kl,lj->kj", c_im, sin2)
    ce_im = np.einsum("kl,lj->kj", c_re, sin2) + np.einsum("kl,lj->kj", c_im, cos2)
    v = np.einsum("ki,kj->ij", np.cos(t1), ce_re) - np.einsum("ki,kj->ij", np.sin(t1), ce_im)
    return np.broadcast_to(v.reshape(v.shape + (1,) * (geom.dim - 2)), geom.cells)


def radial_profile(geom: GridGeometry, power: float | None,
                   scale: float = 1.0) -> GridField:
    """scale·|x − c|^power, or scale·(−log|x − c|) for ``power=None``, with c
    the domain center (a cell corner for even cell counts, so no sample is
    singular)."""
    c = geom.center

    def fn(*mesh):
        d2 = sum((mesh[d] - c[d]) ** 2 for d in range(geom.dim))
        if power is None:
            return -0.5 * scale * np.log(d2)
        return scale * d2 ** (power / 2.0)

    return GridField.from_function(geom, fn)


# ---------------------------------------------------------------------------
# residual gate and small ball helpers


@dataclass(frozen=True)
class GatedPair:
    """A pair (u, F) whose weak residual at exponent p passed the gate of
    :func:`gate_pair`; the pair verifiers take nothing else."""

    u: GridField
    F: GridField
    p: float
    residual: float


def gate_pair(u: GridField, F: GridField, p: float, tol: float) -> GatedPair:
    """The pair with its weak residual, or :class:`ResidualTooLarge` when the
    residual exceeds ``tol``."""
    res = weak_residual(u, F, p)
    if res > tol:
        raise ResidualTooLarge(
            f"pair has weak residual {res:.3e} > tolerance {tol:.1e}; "
            "refusing to verify estimates against a non-solution",
            residual=res,
        )
    return GatedPair(u, F, p, res)


def _ball_qmean(mag: GridField, ball: Ball, q: float) -> float:
    """(⨍_B m^q)^{1/q} of a nonnegative scalar field m."""
    chunk = mag.values.reshape(mag.ncomp, -1)[:, ball_cells(mag.geometry, ball)]
    return float(np.mean(chunk**q) ** (1.0 / q))


def _power_field(f: GridField, power: float) -> GridField:
    mag = f.magnitude()
    return mag.with_values(mag.values**power)


# ---------------------------------------------------------------------------
# pointwise estimates


class PointwiseTerms(NamedTuple):
    """The terms both pointwise bounds read, per sample point x of a gated
    pair: |u(x)|, W = W^R_{p/(p+1), p+1}(|F|^{p'})(x), ⨍_{B_R(x)}|u| and,
    when asked for, the oscillation potential of F, all as floats."""

    p: float
    R: float
    residual: float
    points: tuple[tuple[float, ...], ...]
    abs_u: tuple[float, ...]
    wulff: tuple[float, ...]
    mean_u: tuple[float, ...]
    oscillation: tuple[float, ...] | None


def pointwise_terms(pair: GatedPair, R: float, points: Sequence[Sequence[float]], *,
                    oscillation: bool = False) -> PointwiseTerms:
    """One pass over the points for :func:`verify_pointwise` and, with
    ``oscillation``, :func:`verify_pointwise_osc`.  Each point builds one
    lattice of B_R(x) (the point plan of the potentials): the Wulff and the
    oscillation potential gather their fields from its shell plan, and
    ⨍_{B_R(x)}|u| sums its row-major cells, the bits of
    ``ball_average(|u|, Ball(x, R))``, after the same check of B_R(x)."""
    u, F, p = pair.u, pair.F, pair.p
    data = _power_field(F, p / (p - 1.0))
    absu = u.magnitude()
    params = PotentialParams(p / (p + 1.0), p + 1.0, R)
    points = tuple(tuple(float(c) for c in x) for x in points)
    abs_u, wulff, mean_u, osc = [], [], [], []
    for x in points:
        abs_u.append(float(np.linalg.norm(value_at(u, x))))
        wulff.append(wulff_potential(data, params, x))
        if oscillation:  # on the point plan that wulff_potential just built
            osc.append(oscillation_potential(F, p, R, x))
        mean_u.append(float(_ball_mean(absu, x, R)[0]))
    return PointwiseTerms(p, R, pair.residual, points, tuple(abs_u), tuple(wulff),
                          tuple(mean_u), tuple(osc) if oscillation else None)


def _point_label(x: Sequence[float]) -> str:
    return f"x={tuple(float(c) for c in x)}"


def verify_pointwise(terms: PointwiseTerms) -> VerificationReport:
    """Pointwise Wulff-potential bound for weak solutions:

        |u(x)| ≤ C [ W^R_{p/(p+1), p+1}(|F|^{p'})(x) + ⨍_{B_R(x)}|u| ].

    Every sample ball must fit in the domain.  Both sides are 1-homogeneous
    under the p-Laplace rescaling (u, F) → (λu, λ^{p−1}F), so the fitted C*
    is scale-free.
    """
    samples = [_record(_point_label(x), lhs, W + mean_u)
               for x, lhs, W, mean_u in zip(terms.points, terms.abs_u, terms.wulff,
                                            terms.mean_u)]
    return _assemble(
        "pointwise-wulff",
        {"p": terms.p, "R": terms.R, "residual": terms.residual, "points": len(samples)},
        samples,
        [],
    )


def verify_pointwise_osc(terms: PointwiseTerms) -> VerificationReport:
    """Pointwise bound with the smaller mean-oscillation potential:

        |u(x)| ≤ C [ ∫₀^R (⨍_{B_ρ(x)}|F − ⟨F⟩|^{p'})^{1/p} dρ + ⨍_{B_R(x)}|u| ].

    On the shared radial quadrature the oscillation potential never exceeds
    2^{1/(p−1)} times the Wulff potential of |F|^{p'} (triangle inequality
    plus Jensen on each ball), so this bound implies the Wulff one; the
    comparison is re-checked here on every sample and a violation fails the
    report.  ``terms`` must come from ``pointwise_terms(..., oscillation=True)``.
    """
    if terms.oscillation is None:
        raise ValueError("the terms hold no oscillation potential; "
                         "make them with pointwise_terms(..., oscillation=True)")
    p = terms.p
    factor = 2.0 ** (1.0 / (p - 1.0))
    samples = []
    comparison_ok = True
    for x, lhs, W, mean_u, osc_pot in zip(terms.points, terms.abs_u, terms.wulff,
                                          terms.mean_u, terms.oscillation):
        if osc_pot > factor * W * (1.0 + 1e-9):
            comparison_ok = False
        samples.append(_record(_point_label(x), lhs, osc_pot + mean_u))
    notes = [
        f"oscillation potential <= 2^(1/(p-1)) = {factor:.6g} x Wulff potential "
        f"checked on all samples: {'ok' if comparison_ok else 'VIOLATED'}"
    ]
    return _assemble(
        "pointwise-oscillation",
        {"p": p, "R": terms.R, "residual": terms.residual, "points": len(samples)},
        samples,
        notes,
        extra_pass=comparison_ok,
    )


def verify_oscillation(pair: GatedPair, x: Sequence[float],
                       R: float) -> VerificationReport:
    """Oscillation decay estimate at the dyadic scales r = R/2, R/4, … ≥ 2h:

        ⨍_{B_r}|u − ⟨u⟩_{B_r}|
            ≤ C r [ (∫_r^R (⨍_{B_ρ}|F − ⟨F⟩|^{p'})^{1/p'} dρ/ρ)^{1/(p−1)}
                    + ⨍_{B_R}|∇u| ].

    Raises :class:`InsufficientRadii` when R < 4h leaves no scale, and
    :class:`BallOutsideDomain` when B_R(x) leaves the domain, R = inf included.
    """
    u, p = pair.u, pair.p
    geom = u.geometry
    r_min = 2.0 * max(geom.spacing)
    if not R / 2.0 >= r_min:
        raise InsufficientRadii(f"no radii in [{r_min:g}, {R:g}]")
    grad_mean = float(ball_average(gradient(u).magnitude(), Ball(tuple(x), R))[0])
    radii = []
    r = R / 2.0
    while r >= r_min:
        radii.append(r)
        r /= 2.0
    radii.reverse()
    pp = p / (p - 1.0)

    # one shell-ordered view of F serves the quadratures of every scale
    quads = [RadialQuadrature.log_spaced(r, R) for r in radii]
    oscs = iter(nested_balls(pair.F, x, [rho for quad in quads for rho in quad.radii])
                .oscillations(pp))
    samples = []
    for r, quad in zip(radii, quads):
        lhs = ball_oscillation(u, Ball(tuple(x), r), 1.0)
        k_term = sum(w * next(oscs) for w in quad.weights) ** (1.0 / (p - 1.0))
        rhs = r * (k_term + grad_mean)
        samples.append(_record(f"r={r:.6g}", lhs, rhs))
    return _assemble(
        "oscillation-decay",
        {"p": p, "R": R, "x": tuple(float(c) for c in x), "residual": pair.residual,
         "radii": len(samples)},
        samples,
        [],
    )


# ---------------------------------------------------------------------------
# telescoping lemma (explicit constants)


def verify_telescope(geom: GridGeometry, x: Sequence[float], r: float, R: float, *,
                     samples: int = 100, seed: int = 0, allowance: float = 0.10,
                     threads: int | None = None) -> VerificationReport:
    """Telescoping mean-comparison lemma with its explicit constants, over
    ``samples`` seeded fields (``fourier`` and ``bumps`` in turn):

        |⟨f⟩_{B_r} − ⟨f⟩_{B_R}|     ≤ 2^{2n+2} ∫_r^R ⨍_{B_ρ}|f − ⟨f⟩_{B_ρ}| dρ/ρ
        |⟨|f|⟩_{B_r} − ⟨|f|⟩_{B_R}| ≤ 2^{2n+3} ∫_r^R (same integrand) dρ/ρ.

    These are the only absolute-constant checks in the library: pass requires
    every ratio to be at most 1 + ``allowance``, the allowance for
    ball-quadrature bias.
    """
    x = tuple(float(c) for c in x)
    r_min = 2.0 * max(geom.spacing)
    if r < r_min * (1 - 1e-12):
        raise BallBelowResolution(f"r = {r:g} is below 2h = {r_min:g}")
    if not (r <= R):
        raise BallOutsideDomain(f"need r <= R, got r={r:g} > R={R:g}")
    quad = RadialQuadrature.log_spaced(r, R) if r < R * (1 - 1e-12) else None
    # the balls depend on the grid, x and the radii alone: one plan gathers
    # every field
    plan = shell_plan(geom, x, [r, R, *(quad.radii if quad is not None else ())])
    kinds = ("fourier", "bumps")

    def one(i: int) -> list[SampleRecord]:
        f = random_field(geom, seed + i, kinds[i % 2])
        return _telescope_samples(plan.gather(f), i, quad, geom.dim)

    records = [rec for recs in _parallel_map(one, range(samples), threads)
               for rec in recs]
    c1 = 2.0 ** (2 * geom.dim + 2)
    c2 = 2.0 ** (2 * geom.dim + 3)
    return _assemble(
        "telescoping-means",
        {"x": x, "r": r, "R": R, "samples": samples, "seed": seed,
         "allowance": allowance},
        records,
        [f"explicit constants 2^(2n+2)={c1:g}, 2^(2n+3)={c2:g} with "
         f"{allowance:.0%} quadrature allowance"],
        extra_pass=all(s.ratio <= 1.0 + allowance for s in records),
        seeded=True,
    )


def _telescope_samples(balls: NestedBalls, i: int, quad: RadialQuadrature | None,
                       n: int) -> list[SampleRecord]:
    """The two telescope records of field ``f[i]`` on an n-dimensional grid
    from its samples on B_r, B_R and B_ρ, ρ in ``quad.radii`` (the quadrature
    of ∫_r^R dρ/ρ; None when r = R), in that order: one shell-ordered view of
    B_R(x) (:func:`shell_plan`), with the inclusion rule of
    :func:`ball_cells`."""
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


# ---------------------------------------------------------------------------
# Hardy inequalities on the half line


@dataclass(frozen=True)
class _PiecewisePhi:
    """φ ≥ 0, piecewise constant: value ``values[i]`` on (breaks[i], breaks[i+1]],
    zero on (0, breaks[0]] if breaks[0] > 0, and ``tail`` beyond breaks[-1]."""

    breaks: np.ndarray  # increasing, first entry > 0 allowed (leading zero piece)
    values: np.ndarray  # len = len(breaks) - 1
    tail: float = 0.0


def _pow_int(x: float, y: float, e: float) -> float:
    """∫_x^y s^e ds (x < y; x may be 0; e < -1 with x = 0 gives inf)."""
    if y <= x:
        return 0.0
    if e == -1.0:
        return math.inf if x <= 0 else math.log(y / x)
    e1 = e + 1.0
    lo = 0.0 if x <= 0 else x**e1
    if x <= 0 and e1 <= 0:
        return math.inf
    return (y**e1 - lo) / e1


def _phi_inner_from(phi: _PiecewisePhi, alpha: float, s: float,
                    upper: float) -> float:
    """∫_s^upper φ(r) r^α dr, exact per piece (upper may be inf).

    Computed as a suffix sum so the value is finite for s > 0 even when the
    integral from 0 diverges (the relevant regime for case (ii))."""
    b, v = phi.breaks, phi.values
    total = 0.0
    prev = float(b[0])
    for val, nxt in zip(v, b[1:]):
        nxt = float(nxt)
        lo, hi = max(prev, s), min(nxt, upper)
        if hi > lo and val > 0:
            total += val * _pow_int(lo, hi, alpha)
        prev = nxt
    if phi.tail > 0 and upper > b[-1]:
        total += phi.tail * _pow_int(max(float(b[-1]), s), upper, alpha)
    return total


def _hardy_lhs(phi: _PiecewisePhi, q: float, alpha: float, upper: float) -> float:
    """(∫_0^upper (∫_s^upper φ r^α dr)^q ds)^{1/q} with exact piecewise forms.

    On every φ-piece the inner integral is A + B s^{α+1} (A + B log s when
    α = −1); for q = 1 the outer integral is elementary, otherwise each piece
    is integrated adaptively.
    """
    b, v = phi.breaks, phi.values

    # piece edges for the outer variable: 0, b[0], ..., capped at the last
    # break; any remaining tail segment is handled in closed form below
    finite_top = float(b[-1]) if math.isinf(upper) else float(upper)
    edges = [0.0] + [float(x) for x in b if x < finite_top] + [finite_top]
    total = 0.0

    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        # the φ-value on this outer piece
        if mid <= b[0]:
            val = 0.0
        elif mid > b[-1]:
            val = phi.tail
        else:
            val = float(v[np.searchsorted(b[1:], mid, side="left")])
        J_hi = _phi_inner_from(phi, alpha, hi, upper)
        if val == 0.0:
            total += J_hi**q * (hi - lo) if J_hi > 0 else 0.0
            continue
        # J(s) = J(hi) + val * P(s, hi) on [lo, hi]
        if alpha == -1.0:
            A = J_hi + val * math.log(hi)

            def J(s, A=A, val=val):
                return max(A - val * math.log(s), 0.0)
        else:
            a1 = alpha + 1.0
            A = J_hi + val * hi**a1 / a1

            def J(s, A=A, val=val, a1=a1):
                return max(A - val * s**a1 / a1, 0.0)

        if q == 1.0:
            if alpha == -1.0:
                # ∫ A - val·log s ds = A Δs - val (s log s - s)
                total += A * (hi - lo) - val * (
                    (hi * math.log(hi) - hi) - (lo * math.log(lo) - lo if lo > 0 else 0.0)
                )
            else:
                a1 = alpha + 1.0
                total += A * (hi - lo) - val / a1 * _pow_int(lo, hi, a1)
        else:
            from scipy import integrate

            piece, err = integrate.quad(lambda s: J(s) ** q, lo, hi, limit=200,
                                        epsabs=1e-12, epsrel=1e-10)
            if err > 1e-6 * max(abs(piece), 1e-8):
                raise QuadratureFailure(
                    f"Hardy outer integral error {err:g} on ({lo:g}, {hi:g})"
                )
            total += piece
    if math.isinf(upper) and phi.tail > 0:
        # beyond the last break J(s) = tail·∫_s^∞ r^α dr = tail·s^{α+1}/(−α−1)
        # (α < −1 − 1/q in the only case with a tail, so both powers converge)
        a1 = alpha + 1.0
        coef = (phi.tail / (-a1)) ** q
        total += coef * _pow_int(float(b[-1]), math.inf, q * a1)
    return total ** (1.0 / q)


def _hardy_rhs(phi: _PiecewisePhi, q: float, alpha: float, upper: float) -> float:
    """(∫_0^upper φ(s)^q s^{q(α+1)} ds)^{1/q}, exact per piece."""
    phi_q = _PiecewisePhi(phi.breaks, np.array([val**q for val in phi.values]),
                          phi.tail**q)
    return _phi_inner_from(phi_q, q * (alpha + 1.0), 0.0, upper) ** (1.0 / q)


def _check_quasi_increasing(phi: _PiecewisePhi, k: float) -> None:
    vals = np.asarray(phi.values, dtype=float)
    if phi.tail:
        vals = np.append(vals, phi.tail)
    pos = np.nonzero(vals > 0)[0]
    if pos.size == 0:
        return
    first = pos[0]
    rest = vals[first:]
    if np.any(rest <= 0):
        raise QuasiIncreasingViolation(
            "phi drops back to zero after its support starts"
        )
    rep = monotone_envelope(rest, k)
    if not rep.quasi_increasing:
        raise QuasiIncreasingViolation(
            f"phi violates the k-sandwich: max psi/phi = {rep.max_ratio:.4g} > k = {k:g}"
        )


def _hardy_family(case: str, k: float, samples: int, seed: int, alpha: float):
    """Seeded piecewise-constant φ ensembles per case, supported in (0, 2] for
    case ii-near and in (0, 1] (plus the constant tail of ii-far) otherwise.

    Quasi-increasing members are built as a nondecreasing envelope times a
    bounded oscillation in [1/k, 1], which satisfies the k-sandwich by
    construction; a leading zero piece keeps every integral convergent when
    the weight exponent is at or beyond its integrable limit.
    """
    rng = np.random.default_rng(seed)
    top = 2.0 if case == "ii-near" else 1.0
    out = []
    need_zero_start = (case == "i" and alpha <= -1.0) or case != "i"
    for _ in range(samples):
        m = int(rng.integers(6, 16))
        inner = np.sort(rng.uniform(0.02, 0.98, m - 1)) * top
        breaks = np.concatenate([[top * 0.01 if need_zero_start else 0.0],
                                 inner, [top]])
        breaks = np.unique(breaks)
        npieces = breaks.size - 1
        if case == "i":
            values = rng.lognormal(0.0, 0.8, npieces)
        else:
            envelope = np.cumprod(rng.uniform(1.0, 1.5, npieces))
            values = envelope * rng.uniform(1.0 / k, 1.0, npieces)
        tail = float(values[-1]) if case == "ii-far" else 0.0
        out.append(_PiecewisePhi(breaks, values, tail))
    return out


def verify_hardy(case: str, q: float, alpha: float, *, k: float = 2.0,
                 samples: int = 100, seed: int = 0) -> VerificationReport:
    """One-dimensional weighted Hardy inequalities for the inner kernel
    ∫_s φ(r) r^α dr.

    * ``case="i"``: q ≥ 1, arbitrary measurable φ ≥ 0, both integrals over
      (0, ∞) (the φ family is compactly supported).  With q = 1, α = 0 both
      sides are computed in closed form and Fubini forces every ratio to 1.
    * ``case="ii-far"``: q ∈ (0,1), α < −1 − 1/q, quasi-increasing φ with
      constant k (checked), integrals over (0, ∞) with a constant tail.
    * ``case="ii-near"``: q ∈ (0,1), −1 − 1/q ≤ α < −1, LHS over (0, 1) and
      RHS over (0, 2), quasi-increasing φ on (0, 2).

    Both sides scale alike under r → a·r, so the unit scale loses nothing.
    """
    if case == "i":
        if not (q >= 1):
            raise ParameterRangeViolation(f"case (i) needs q >= 1, got {q}")
    elif case == "ii-far":
        if not (0 < q < 1):
            raise ParameterRangeViolation(f"case (ii) needs q in (0,1), got {q}")
        if not (alpha < -1.0 - 1.0 / q):
            raise ParameterRangeViolation(
                f"case ii-far needs alpha < -1 - 1/q = {-1 - 1 / q:g}, got {alpha}"
            )
    elif case == "ii-near":
        if not (0 < q < 1):
            raise ParameterRangeViolation(f"case (ii) needs q in (0,1), got {q}")
        if not (-1.0 - 1.0 / q <= alpha < -1.0):
            raise ParameterRangeViolation(
                f"case ii-near needs -1 - 1/q <= alpha < -1, got {alpha}"
            )
    else:
        raise ParameterRangeViolation(f"unknown Hardy case {case!r}")
    if not (k >= 1):
        raise ParameterRangeViolation(f"quasi-increasing constant needs k >= 1, got {k}")

    upper, rhs_up = (1.0, 2.0) if case == "ii-near" else (math.inf, math.inf)
    records = []
    for i, phi in enumerate(_hardy_family(case, k, samples, seed, alpha)):
        if case != "i":
            _check_quasi_increasing(phi, k)
        lhs = _hardy_lhs(phi, q, alpha, upper)
        rhs = _hardy_rhs(phi, q, alpha, rhs_up)
        records.append(_record(f"phi[{i}]", lhs, rhs))
    return _assemble(
        f"hardy-{case}",
        {"q": q, "alpha": alpha, "k": k, "seed": seed, "samples": len(records)},
        records,
        [],
    )


# ---------------------------------------------------------------------------
# energy inequalities


def verify_energy_inequalities(pair: GatedPair, x: Sequence[float], R: float, *,
                               q: float | None = None) -> VerificationReport:
    """Interior energy estimates on the nested balls B = B_{R/2} ⊂ 2B = B_R:

    reverse Hölder   (⨍_B |∇u|^p)^{1/p} ≤ C[⨍_{2B}|∇u| + (⨍_{2B}|F−⟨F⟩|^{p'})^{1/p}],
    Caccioppoli      (⨍_B |∇u|^p)^{1/p} ≤ C[(⨍_{2B}|(u−⟨u⟩_{2B})/R|^p)^{1/p} + (F-term)],
    and its u-form   (⨍_B |u|^{qp})^{1/qp} ≤ C[⨍_{2B}|u| + R·(F-term)]

    with diam(B) = R and q ∈ (1, n/(n−p)] (capped at 2 when p ≥ n).
    """
    u, p = pair.u, pair.p
    geom = u.geometry
    n = geom.dim
    x = tuple(float(c) for c in x)
    inner, outer = Ball(x, R / 2.0), Ball(x, R)
    pp = p / (p - 1.0)
    # B_R is gathered first, so its check reports a bad x or B_R leaving Ω
    f_term = ball_oscillation(pair.F, outer, pp) ** (pp / p)
    if q is None:
        q = n / (n - p) if p < n else 2.0
    if not (q > 1):
        raise ParameterRangeViolation(f"interpolation exponent needs q > 1, got {q}")

    grad_mag = gradient(u).magnitude()
    absu = u.magnitude()

    lhs_grad = _ball_qmean(grad_mag, inner, p)
    rhs_revh = float(ball_average(grad_mag, outer)[0]) + f_term

    osc_u = ball_oscillation(u, outer, p)
    rhs_cacc = osc_u / R + f_term

    lhs_u = _ball_qmean(absu, inner, q * p)
    rhs_revhu = float(ball_average(absu, outer)[0]) + R * f_term

    samples = [
        _record("reverse-holder", lhs_grad, rhs_revh),
        _record("caccioppoli", lhs_grad, rhs_cacc),
        _record("reverse-holder-u", lhs_u, rhs_revhu),
    ]
    return _assemble(
        "energy-caccioppoli",
        {"p": p, "R": R, "x": x, "q": q, "residual": pair.residual},
        samples,
        [],
    )


# ---------------------------------------------------------------------------
# potential domination and norm maps


def verify_domination(geom: GridGeometry, alpha: float, s: float, *,
                      samples: int = 100, seed: int = 0,
                      threads: int | None = None) -> VerificationReport:
    """Pointwise domination of the Wulff potential by the composed Riesz
    potential, W^R_{α,s} f ≤ C·V_{α,s} f, over a seeded nonnegative family.

    C* is the max ratio at the domain center, with R = 0.8 × the largest
    admissible radius there; the acceptance harness reruns this across grids
    and requires the fitted constant to drift < 10%.
    """
    if not (alpha * s < geom.dim):
        raise InadmissibleParams(f"domination needs alpha*s < n, got {alpha * s}")
    x = geom.center
    R = 0.8 * max_admissible_radius(geom, x)
    params = PotentialParams(alpha, s, R)
    kinds = ("fourier", "bumps", "singular")

    def one(i: int) -> SampleRecord:
        f = random_field(geom, seed + i, kinds[i % len(kinds)], nonneg=True)
        W = wulff_potential(f, params, x)
        V = havin_mazya_at(f, alpha, s, x)
        return _record(f"f[{i}]", W, V)

    records = _parallel_map(one, range(samples), threads)
    return _assemble(
        "wulff-riesz-domination",
        {"alpha": alpha, "s": s, "R": R, "seed": seed, "samples": samples,
         "cells": geom.cells},
        records,
        [],
        seeded=True,
    )


class NormPart(NamedTuple):
    """One part of Theorems A and B with its checks passed: what its report
    states, and ``sides``, its (lhs, rhs) on a datum f and V = V_{α,s} f."""

    part: str
    geom: GridGeometry
    alpha: float
    s: float
    sigma: float | None
    rho: float | None
    notes: tuple[str, ...]
    sides: Callable[[GridField, GridField], tuple[float, float]]


def potential_norm_part(part: str, alpha: float, s: float, geom: GridGeometry, *,
                        sigma: float | None = None, rho: float | None = 2.0,
                        young_a: YoungFunction | None = None,
                        young_b: YoungFunction | None = None,
                        t0: float = 1.0) -> NormPart:
    """Norm boundedness of the composed potential V_{α,s} (αs < n), checked:

    * ``part="A-i"``   ‖V f‖_{L^{σn(s−1)/(n−σαs), ϱ(s−1)}} ≤ C ‖f‖_{L^{σ,ϱ}}^{1/(s−1)},
      for 1 < σ < n/(αs);
    * ``part="A-iii"`` ‖V f‖_{L^{∞, ϱ(s−1)}(log L)^{−1}} ≤ C ‖f‖_{L^{n/(αs), ϱ}}^{1/(s−1)},
      for ϱ > 1/(s−1);
    * ``part="A-iv"``  ‖V f‖_{L^∞} ≤ C ‖f‖_{L^{n/(αs), ϱ}}^{1/(s−1)}, for ϱ ≤ 1/(s−1)
      (``rho=None`` takes ϱ = 1/(s−1));
    * ``part="B"``     ‖(V f)^{s−1}‖_{L^B} ≤ C ‖f‖_{L^A}, A = ``young_a`` and
      B = ``young_b``, under the balance condition for (A, B) — checked
      here, inadmissible when unsatisfiable.

    Both norms are 1/(s−1)- resp. 1-homogeneous in f, so ratios are
    scale-free.
    """
    n = geom.dim
    if not (0 < alpha and s > 1 and alpha * s < n):
        raise InadmissibleParams(
            f"potential norm maps need 0 < alpha, s > 1, alpha*s < n; "
            f"got alpha={alpha}, s={s}, n={n}"
        )
    notes: list[str] = []
    if part == "A-i":
        if sigma is None or not (1 < sigma < n / (alpha * s)):
            raise InadmissibleParams(
                f"part A-i needs 1 < sigma < n/(alpha*s) = {n / (alpha * s):g}, "
                f"got {sigma}"
            )
        target = LorentzParams(sigma * n * (s - 1) / (n - sigma * alpha * s),
                               rho * (s - 1))
        source = LorentzParams(sigma, rho)

        def lhs_of(V: GridField) -> float:
            return lorentz_zygmund_norm(V, target)

        notes.append(
            f"target space L^({target.q:g},{target.rho:g}) from source "
            f"L^({sigma:g},{rho:g})"
        )
    elif part in ("A-iii", "A-iv"):
        if part == "A-iii" and not (rho > 1.0 / (s - 1)):
            raise InadmissibleParams(
                f"part A-iii needs rho > 1/(s-1) = {1 / (s - 1):g}, got {rho}"
            )
        if part == "A-iv" and rho is None:
            rho = 1.0 / (s - 1)
        if part == "A-iv" and not (0 < rho <= 1.0 / (s - 1)):
            raise InadmissibleParams(
                f"part A-iv needs 0 < rho <= 1/(s-1) = {1 / (s - 1):g}, got {rho}"
            )
        source = LorentzParams(n / (alpha * s), rho)
        if part == "A-iii":
            target = LorentzParams(math.inf, rho * (s - 1), -1.0)

            def lhs_of(V: GridField) -> float:
                return lorentz_zygmund_norm(V, target)

            notes.append("target space L^(inf,rho(s-1))(log L)^-1")
        else:
            def lhs_of(V: GridField) -> float:
                return float(V.values.max())

            notes.append("target space L^inf (max over cells)")
    elif part == "B":
        if young_a is None or young_b is None:
            raise InadmissibleParams("part B needs Young functions A and B")
        pair = potential_young_transforms(young_a, young_b, alpha, s, n)
        bal = balance_report(pair, t0=t0)
        if not bal.satisfiable:
            raise InadmissibleParams(
                "balance condition unsatisfiable for (A, B); Theorem B does "
                f"not apply ({'; '.join(bal.notes)})"
            )
        notes.append(
            f"balance holds with gamma = {bal.gamma:.6g} ({bal.mode}) on "
            f"t > {t0:g}"
        )

        def orlicz_sides(f: GridField, V: GridField) -> tuple[float, float]:
            return (luxemburg_norm(_power_field(V, s - 1.0), young_b),
                    luxemburg_norm(f, young_a))

        return NormPart(part, geom, alpha, s, sigma, rho, tuple(notes), orlicz_sides)
    else:
        raise InadmissibleParams(f"unknown part {part!r}")

    def lorentz_sides(f: GridField, V: GridField) -> tuple[float, float]:
        return lhs_of(V), lorentz_zygmund_norm(f, source) ** (1.0 / (s - 1.0))

    return NormPart(part, geom, alpha, s, sigma, rho, tuple(notes), lorentz_sides)


def potential_norm_terms(parts: Sequence[NormPart], *, samples: int = 20, seed: int = 0,
                         threads: int | None = None) -> list[tuple[SampleRecord, ...]
                                                              | WulffLabError]:
    """The records of every part in ``parts`` (one grid, α and s) from one
    pass over a seeded family that mixes smooth bumps, Fourier sums and
    truncated radial powers: each datum f_i is drawn and mapped to
    V_{α,s} f_i once, each part's sides are taken on the pair, and only the
    records outlive it.  A part whose norm raises on a datum gets the error
    of its first such datum in place of its records."""
    if len({(part.geom, part.alpha, part.s) for part in parts}) != 1:
        raise ValueError("the parts of one pass need one grid, alpha and s")
    geom, alpha, s = parts[0].geom, parts[0].alpha, parts[0].s
    kinds = ("bumps", "fourier", "singular")

    def one(i: int) -> list[SampleRecord | WulffLabError]:
        f = random_field(geom, seed + i, kinds[i % len(kinds)], nonneg=True,
                         exponent=0.4 + 0.5 * ((seed + i) % 5) / 4.0)
        V = havin_mazya_map(f, alpha, s)
        return [_norm_record(part, i, f, V) for part in parts]

    rows = _parallel_map(one, range(samples), threads)
    columns = [tuple(row[j] for row in rows) for j in range(len(parts))]
    return [next((r for r in col if isinstance(r, WulffLabError)), col) for col in columns]


def _norm_record(part: NormPart, i: int, f: GridField,
                 V: GridField) -> SampleRecord | WulffLabError:
    try:
        return _record(f"f[{i}]", *part.sides(f, V))
    except WulffLabError as exc:  # raised at the part's own turn, not in the pass
        return exc


def verify_potential_norm_maps(part: NormPart, records: Sequence[SampleRecord],
                               seed: int) -> VerificationReport:
    """The report of one part of :func:`potential_norm_part` on its records
    from :func:`potential_norm_terms` at ``seed``."""
    return _assemble(
        f"potential-norms-{part.part}",
        {"alpha": part.alpha, "s": part.s, "sigma": part.sigma, "rho": part.rho,
         "seed": seed, "samples": len(records), "cells": part.geom.cells},
        list(records),
        list(part.notes),
        seeded=True,
    )


# ---------------------------------------------------------------------------
# regularity exponents


def _unit_geometry(cells: int) -> GridGeometry:
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def _osc_slope(u: GridField, x0, R: float):
    """Least-squares slope of log ⨍_{B_r}|u − ⟨u⟩| against log r over at
    least four dyadic r."""
    geom = u.geometry
    r_lo = 4.0 * max(geom.spacing)
    radii = []
    r = R
    while r >= r_lo:
        radii.append(r)
        r /= 2.0
    if len(radii) < 4:
        raise InsufficientRadii(
            f"only {len(radii)} dyadic radii in [{r_lo:g}, {R:g}]; need 4"
        )
    oscs = [ball_oscillation(u, Ball(x0, rr), 1.0) for rr in radii]
    logs_r = np.log(radii)
    logs_o = np.log(np.maximum(oscs, 1e-300))
    slope = float(np.polyfit(logs_r, logs_o, 1)[0])
    return slope, radii, oscs


def verify_regularity_exponents(kind: str, p: float, *, q: float | None = None,
                                beta: float | None = None,
                                cells: int = 128) -> VerificationReport:
    """Quantitative spot checks of the regularity consequences.

    * ``kind="holder"``: for q > max{p', n/(p−1)} the solution class is
      C^κ with κ = 1 − n/(q(p−1)); the extremal profile u = |x−x₀|^κ (with
      its manufactured datum, an exact discrete solution) must show a fitted
      oscillation-decay slope within ±15% of κ.
    * ``kind="bmo"``: the borderline Morrey weight exponent β = (n−p)/p′
      admits u = −log|x−x₀|: the sampled BMO seminorm stays finite and
      refinement-stable.
    * ``kind="lipschitz"``: a Dini weight ω(r) = r^β (β > 0) forces a
      Lipschitz solution: fitted slope ≥ 0.9 for u = |x−x₀|^{1+β/(p−1)},
      whose datum has Campanato modulus ω.
    * ``kind="lorentz"``: for 1 < q < n/p and the marginal singular datum
      power γ = n/(qp′), the manufactured u = |x−x₀|^{1−γp′/p} has
      rearrangement tail exponent −1/Q* with Q* = qnp/(n−qp); the fitted
      tail slope must match within 15%.

    Every manufactured pair is gated at weak residual 1e-7.
    """
    n = 2
    geom = _unit_geometry(cells)
    pp = p / (p - 1.0)
    notes: list[str] = []
    samples: list[SampleRecord] = []
    extra = True

    if kind == "holder":
        if q is None or not (q > max(pp, n / (p - 1.0))):
            raise ParameterRangeViolation(
                f"holder check needs q > max(p', n/(p-1)) = "
                f"{max(pp, n / (p - 1.0)):g}, got {q}"
            )
        kappa = 1.0 - n / (q * (p - 1.0))
        u = radial_profile(geom, kappa)
        F = manufacture(u, p)
        res = gate_pair(u, F, p, 1e-7).residual
        slope, radii, oscs = _osc_slope(u, geom.center, R=0.25)
        band = 0.15 * kappa
        extra = abs(slope - kappa) <= band
        notes.append(f"predicted exponent {kappa:.6g}, fitted slope {slope:.6g}")
        for rr, oo in zip(radii, oscs):
            samples.append(_record(f"r={rr:.6g}", oo, rr**kappa))
        params = {"p": p, "q": q, "kappa": kappa, "slope": slope, "band": band,
                  "cells": cells, "residual": res}

    elif kind == "bmo":
        if not (1.0 < p < n):
            raise ParameterRangeViolation(
                f"bmo check needs 1 < p < n so the borderline Morrey weight "
                f"exponent (n-p)/p' is positive, got p={p}"
            )
        beta_star = (n - p) / pp
        u = radial_profile(geom, None)
        F = manufacture(u, p)
        res = gate_pair(u, F, p, 1e-7).residual
        scan = campanato_seminorm(u, weight_power(0.0))
        datum = morrey_norm(F, weight_power(beta_star), q=pp)
        samples.append(_record("bmo-seminorm", scan.value, 1.0))
        samples.append(_record("datum-morrey-norm", datum.value, 1.0))
        notes.append(
            f"borderline Morrey exponent beta = (n-p)/p' = {beta_star:.6g}; "
            f"attaining ball radius {scan.ball.radius:.6g}"
        )
        params = {"p": p, "beta": beta_star, "cells": cells, "residual": res}

    elif kind == "lipschitz":
        if beta is None:
            beta = 0.35 * (p - 1.0)
        if not (beta > 0):
            raise ParameterRangeViolation(f"Dini power weight needs beta > 0, got {beta}")
        u = radial_profile(geom, 1.0 + beta / (p - 1.0))
        F = manufacture(u, p)
        res = gate_pair(u, F, p, 1e-7).residual
        slope, radii, oscs = _osc_slope(u, geom.center, R=0.25)
        scan = campanato_seminorm(F, weight_power(beta))
        extra = slope >= 0.9 and math.isfinite(scan.value)
        # the power weight r^beta is Dini exactly when beta > 0, checked above
        notes.append(
            f"omega = r^{beta:g} is Dini: {beta > 0}; fitted slope {slope:.6g}; "
            f"datum Campanato seminorm {scan.value:.6g}"
        )
        for rr, oo in zip(radii, oscs):
            samples.append(_record(f"r={rr:.6g}", oo, rr))
        params = {"p": p, "beta": beta, "slope": slope, "cells": cells,
                  "residual": res}

    elif kind == "lorentz":
        if not (1.0 < p < n):
            raise ParameterRangeViolation(f"lorentz check needs 1 < p < n, got p={p}")
        if q is None or not (1.0 < q < n / p):
            raise ParameterRangeViolation(
                f"lorentz check needs 1 < q < n/p = {n / p:g}, got {q}"
            )
        gamma = n / (q * pp)
        Qstar = q * n * p / (n - q * p)
        expo = 1.0 - gamma * pp / p
        u = radial_profile(geom, expo)
        r = rearrange(u)
        total = r.total_measure
        # the level sets of the radial profile are disks inside the domain up
        # to measure ~ 0.3|Omega|; below ~32 cells quantization dominates
        s_lo, s_hi = 32.0 * r.cell_measure, 0.3 * total
        if s_hi <= s_lo * 4.0:
            raise InsufficientRadii(
                f"rearrangement window ({s_lo:g}, {s_hi:g}) too narrow at "
                f"{cells} cells"
            )
        ss = np.geomspace(s_lo, s_hi, 24)
        us = r(ss)
        slope = float(np.polyfit(np.log(ss), np.log(us), 1)[0])
        predicted = -1.0 / Qstar
        band = 0.15 * abs(predicted)
        extra = abs(slope - predicted) <= band
        notes.append(
            f"marginal datum power gamma = {gamma:.6g}; predicted tail "
            f"exponent {predicted:.6g}, fitted {slope:.6g}"
        )
        for sv, uv in zip(ss[::6], us[::6]):
            samples.append(_record(f"s={sv:.6g}", float(uv), float(sv**predicted)))
        params = {"p": p, "q": q, "gamma": gamma, "Qstar": Qstar,
                  "slope": slope, "band": band, "cells": cells}

    else:
        raise ParameterRangeViolation(f"unknown regularity kind {kind!r}")

    return _assemble(f"regularity-{kind}", params, samples, notes, extra_pass=extra)
