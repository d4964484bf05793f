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
(:func:`verify_potential_norm_maps`): each datum is drawn and mapped once,
every part's two sides are taken on it, and the pass returns one report per
part.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BallBelowResolution,
    BallOutsideDomain,
    ConfigError,
    FinitenessFailure,
    InadmissibleParams,
    InsufficientRadii,
    QuadratureFailure,
    QuasiIncreasingViolation,
    ResidualTooLarge,
    WulffLabError,
)
from .field_grid import (
    Ball,
    GridField,
    GridGeometry,
    _oscillation,
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
from .plaplace_solver import _check_p, _check_tol, manufacture, weak_residual
from .potential_engine import (
    PotentialParams,
    RadialQuadrature,
    _ball_mean,
    _check_order,
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

    ``ratio`` is 0 when both sides vanish (pass by convention), +inf when
    the LHS is positive against a vanishing RHS (always a failure), and nan
    when a side is nan.
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
    if math.isnan(lhs) or math.isnan(rhs):
        ratio = math.nan
    elif rhs > 0:
        # inf/inf counts as a failure, not a nan
        ratio = math.inf if (math.isinf(lhs) and math.isinf(rhs)) else lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    return SampleRecord(label, lhs, rhs, ratio)


def _assemble(theorem: str, params: dict, samples: list[SampleRecord],
              notes: list[str], extra_pass: bool = True,
              seeded: bool = False) -> VerificationReport:
    """Report with C* = max ratio, nan when a ratio is nan, and a pass only
    for a finite C*; ``seeded`` marks samples of :func:`random_field`,
    stamped :data:`FAMILY_VERSION`."""
    if not samples:
        raise InadmissibleParams("no samples to verify")
    c_star = np.max([s.ratio for s in samples])  # unlike max(), keeps a nan anywhere
    passed = bool(extra_pass and math.isfinite(c_star))
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
    from them by round-off).  ``bumps`` sums its per-bump outer products with
    one ``einsum`` in bump order, and ``fourier`` reads its grid's cos/sin
    tables from a bounded cache: the samples are those of adding one bump or
    building the tables per call, bit for bit.
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
            raise InadmissibleParams(f"unknown field family {kind!r}")
        if nonneg and kind != "singular":
            span = float(v.max() - v.min())
            v = v - v.min() + 0.05 * (span if span > 0 else 1.0)
        comps.append(v)
    vals = np.stack(comps)
    return GridField(geom, vals, shape, codomain=components)


def _bumps_sum(geom: GridGeometry, rng: np.random.Generator, bumps: int) -> np.ndarray:
    """One ``bumps`` component: draws the center, width and amplitude of each
    bump in turn and adds amp·exp(−|x − c|²/2w²) as the outer product of the
    per-axis factors exp(−(x_d − c_d)²/2w²), amp on the first.

    Row b of the (bumps, c_d) factor array of axis d holds bump b's factor,
    and one ``einsum`` ("bi,bj->ij", the same pattern for every n) sums the
    products over b: it multiplies each product left to right, as
    ``np.multiply.outer`` does, and adds the bumps in bump order into a
    zeroed sum, so the samples are those of adding one bump at a time, bit
    for bit."""
    n = geom.dim
    center, width2, amp = np.empty((n, bumps, 1)), np.empty((bumps, 1)), np.empty((bumps, 1))
    for b in range(bumps):
        for d in range(n):
            center[d, b] = geom.origin[d] + geom.extent[d] * rng.uniform(0.15, 0.85)
        w = rng.uniform(0.04, 0.18) * min(geom.extent)
        width2[b] = 2.0 * w * w
        amp[b] = rng.normal()
    factors = [np.exp(-(geom.axis_centers(d) - center[d]) ** 2 / width2) for d in range(n)]
    factors[0] = amp * factors[0]
    axes = "ijklmnopqrstuvwxyz"[:n]
    return np.einsum(",".join("b" + a for a in axes) + "->" + axes, *factors)


# the wave vectors k = (k₁, k₂) of ``fourier`` with 0 < |k| ≤ 6, k₁ and k₂
# ascending from −6: the flat index of k in the 13×13 matrix C and 1 + |k|²
_WAVES = [((k1 + 6) * 13 + k2 + 6, 1.0 + k1 * k1 + k2 * k2)
          for k1 in range(-6, 7) for k2 in range(-6, 7) if 0 < k1 * k1 + k2 * k2 <= 36]


@lru_cache(maxsize=8)
def _wave_tables(geom: GridGeometry) -> tuple[np.ndarray, ...]:
    """cos t₁, sin t₁, cos t₂ and sin t₂ with t_d[k, i] = 2π k x̂_d[i],
    k = −6 … 6, on the first two axes of ``geom`` (cached, read-only)."""
    k = np.arange(-6, 7)
    tables = []
    for d in (0, 1):
        t = 2.0 * math.pi * np.outer(k, (geom.axis_centers(d) - geom.origin[d])
                                     / geom.extent[d])
        tables += [np.cos(t), np.sin(t)]
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _fourier_sum(geom: GridGeometry, rng: np.random.Generator) -> np.ndarray:
    """One ``fourier`` component: draws amp then φ per wave vector of
    :data:`_WAVES`, in its order, and sums the waves through the 13×13 matrix
    C.  The draws are ``standard_normal()`` and 2π·``random()``, the same
    floats as ``normal()`` and ``uniform(0, 2π)`` at less cost per call; the
    cos/sin tables of the grid come from :func:`_wave_tables`."""
    amp = np.zeros(169)
    phase = np.zeros(169)
    for i, scale in _WAVES:
        amp[i] = rng.standard_normal() / scale
        phase[i] = 2.0 * math.pi * rng.random()
    amp, phase = amp.reshape(13, 13), phase.reshape(13, 13)
    c_re, c_im = amp * np.cos(phase), amp * np.sin(phase)
    cos1, sin1, cos2, sin2 = _wave_tables(geom)
    # C·E₂ = (c_re + i·c_im)(cos t₂ + i·sin t₂); einsum keeps these small
    # products off threaded BLAS
    ce_re = np.einsum("kl,lj->kj", c_re, cos2) - np.einsum("kl,lj->kj", c_im, sin2)
    ce_im = np.einsum("kl,lj->kj", c_re, sin2) + np.einsum("kl,lj->kj", c_im, cos2)
    v = np.einsum("ki,kj->ij", cos1, ce_re) - np.einsum("ki,kj->ij", sin1, ce_im)
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
    """The pair with its weak residual, or :class:`ResidualTooLarge` unless the
    residual is at most ``tol`` (a nan residual is not); ``tol`` must be
    positive and finite."""
    _check_tol(tol)
    res = weak_residual(u, F, p)
    if not res <= tol:
        raise ResidualTooLarge(
            f"pair has weak residual {res:.3e} > tolerance {tol:.1e}; "
            "refusing to verify estimates against a non-solution",
            residual=res,
        )
    return GatedPair(u, F, p, res)


def _halvings(r: float, r_min: float) -> list[float]:
    """r, r/2, r/4, … down to the last one at or above ``r_min`` (finite r)."""
    radii = []
    while r >= r_min:
        radii.append(r)
        r /= 2.0
    return radii


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


def _pointwise_report(theorem: str, terms: PointwiseTerms, potential: Sequence[float],
                      notes: list[str], extra_pass: bool = True) -> VerificationReport:
    """The report of |u(x)| ≤ C [potential(x) + ⨍_{B_R(x)}|u|] on ``terms``."""
    samples = [_record(f"x={tuple(float(c) for c in x)}", lhs, P + mean_u)
               for x, lhs, P, mean_u in zip(terms.points, terms.abs_u, potential,
                                            terms.mean_u)]
    params = {"p": terms.p, "R": terms.R, "residual": terms.residual, "points": len(samples)}
    return _assemble(theorem, params, samples, notes, extra_pass=extra_pass)


def verify_pointwise(terms: PointwiseTerms) -> VerificationReport:
    """Pointwise Wulff-potential bound for weak solutions:

        |u(x)| ≤ C [ W^R_{p/(p+1), p+1}(|F|^{p'})(x) + ⨍_{B_R(x)}|u| ].

    Every sample ball must fit in the domain.  Both sides are 1-homogeneous
    under the p-Laplace rescaling (u, F) → (λu, λ^{p−1}F), so the fitted C*
    is scale-free.
    """
    return _pointwise_report("pointwise-wulff", terms, terms.wulff, [])


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
        raise InadmissibleParams("the terms hold no oscillation potential; make them "
                                 "with pointwise_terms(..., oscillation=True)")
    factor = 2.0 ** (1.0 / (terms.p - 1.0))
    # not all(osc <= …): a nan potential compares False and marks no violation
    comparison_ok = not any(osc > factor * W * (1.0 + 1e-9)
                            for osc, W in zip(terms.oscillation, terms.wulff))
    notes = [
        f"oscillation potential <= 2^(1/(p-1)) = {factor:.6g} x Wulff potential "
        f"checked on all samples: {'ok' if comparison_ok else 'VIOLATED'}"
    ]
    return _pointwise_report("pointwise-oscillation", terms, terms.oscillation, notes,
                             comparison_ok)


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
    radii = _halvings(R / 2.0, r_min)[::-1]
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


# ball samples of the fields of one telescope block (256 kB): a block shares
# each ufunc call among its fields, and its arrays stay within the memory the
# battery's other passes take (at 128² on a 2-core VM, blocks of 5 fields
# raised the battery's peak RSS by 0.7 MB, blocks of 3 by 0.1 MB)
_TELESCOPE_BLOCK = 32768


def verify_telescope(geom: GridGeometry, x: Sequence[float], r: float, R: float, *,
                     samples: int = 100, seed: int = 0,
                     allowance: float = 0.10) -> VerificationReport:
    """Telescoping mean-comparison lemma with its explicit constants, over
    ``samples`` seeded fields (``fourier`` and ``bumps`` in turn):

        |⟨f⟩_{B_r} − ⟨f⟩_{B_R}|     ≤ 2^{2n+2} ∫_r^R ⨍_{B_ρ}|f − ⟨f⟩_{B_ρ}| dρ/ρ
        |⟨|f|⟩_{B_r} − ⟨|f|⟩_{B_R}| ≤ 2^{2n+3} ∫_r^R (same integrand) dρ/ρ.

    These are the only absolute-constant checks in the library: pass requires
    every ratio to be at most 1 + ``allowance`` (finite), the allowance for
    ball-quadrature bias.  The fields run in the calling thread: their small
    numpy calls hold the GIL, so a second thread would only slow them down.

    The fields are drawn one at a time, in order, and their samples on
    B_R(x) gathered through one shell plan into blocks of as many fields as
    fit :data:`_TELESCOPE_BLOCK` values (at least one); each block is
    checked at once by :func:`_telescope_block`, with the bits of checking
    its fields one by one.
    """
    x = tuple(float(c) for c in x)
    if not math.isfinite(allowance):  # inf passes every ratio, −inf fails every one
        raise InadmissibleParams(f"need a finite allowance, got {allowance}")
    r_min = 2.0 * max(geom.spacing)
    if r < r_min * (1 - 1e-12):
        raise BallBelowResolution(f"r = {r:g} is below 2h = {r_min:g}")
    if not (r <= R):
        raise BallOutsideDomain(f"need r <= R, got r={r:g} > R={R:g}")
    quad = RadialQuadrature.log_spaced(r, R) if r < R * (1 - 1e-12) else None
    # the balls depend on the grid, x and the radii alone: one plan gathers
    # every field
    plan = shell_plan(geom, x, [r, R, *(quad.radii if quad is not None else ())])
    block = max(1, min(samples, _TELESCOPE_BLOCK // plan.cells.size))
    buf = np.empty((2, block, plan.cells.size))
    records = []
    for first in range(0, samples, block):
        vals = buf[:, :min(block, samples - first)]
        for j in range(vals.shape[1]):
            f = random_field(geom, seed + first + j, ("fourier", "bumps")[(first + j) % 2])
            vals[0, j] = plan.gather(f).values[0]
        records += _telescope_block(vals, plan.counts, quad, geom.dim, first)
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


def _telescope_block(vals: np.ndarray, counts: np.ndarray, quad: RadialQuadrature | None,
                     n: int, first: int) -> list[SampleRecord]:
    """The two telescope records of each of a block of scalar fields
    f[first], f[first + 1], … on an n-dimensional grid.  ``vals[0]`` (fields,
    K) holds their samples on one :func:`shell_plan` of B_r, B_R and B_ρ, ρ in
    ``quad.radii`` (the quadrature of ∫_r^R dρ/ρ; None when r = R), whose
    balls hold the first ``counts`` cells; ``vals[1]`` takes |f|.

    One ``cumsum`` over the last axis gives the means of f and |f| on every
    ball, and one :func:`_oscillation` call per quadrature radius gives every
    field's oscillation on it.  A row-wise ``cumsum`` and a last-axis sum
    treat each row as they treat one field's samples, and at q = 1
    ``_oscillation`` takes no root, so its values are those of
    :func:`_oscillation_step`: each record is the one the field would get on
    its own."""
    np.multiply(vals[0], vals[0], out=vals[1])
    np.sqrt(vals[1], out=vals[1])  # |f| = √(f·f), the Euclidean magnitude
    means = np.cumsum(vals, axis=-1)[..., counts - 1] / counts
    integral = np.zeros(vals.shape[1])
    if quad is not None:
        # only the quadrature radii: the sweep at R would cover all of B_R(x);
        # one error state for the block, overflowing q-th powers are rescaled
        with np.errstate(over="ignore"):
            for w, k, mean in zip(quad.weights, counts[2:].tolist(), means[0, :, 2:].T):
                integral = integral + w * _oscillation(vals[:1, :, :k], mean[np.newaxis], 1.0)
    diff = means[:, :, 0] - means[:, :, 1]
    lhs_f = np.sqrt(diff[0] * diff[0])  # the norm of one component, as np.linalg.norm takes it
    records = []
    for j, (lf, la, integ) in enumerate(zip(lhs_f, np.abs(diff[1]), integral)):
        records += [_record(f"f[{first + j}]:means-of-f", lf, 2.0 ** (2 * n + 2) * integ),
                    _record(f"f[{first + j}]:means-of-|f|", la, 2.0 ** (2 * n + 3) * integ)]
    return records


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
    if case not in ("i", "ii-far", "ii-near"):
        raise InadmissibleParams(f"unknown Hardy case {case!r}")
    if case == "i" and not (1 <= q < math.inf):
        raise InadmissibleParams(f"case (i) needs a finite q >= 1, got {q}")
    if not math.isfinite(alpha):
        raise InadmissibleParams(f"alpha must be finite, got {alpha}")
    if case != "i" and not (0 < q < 1):
        raise InadmissibleParams(f"case (ii) needs q in (0,1), got {q}")
    if case == "ii-far" and not (alpha < -1.0 - 1.0 / q):
        raise InadmissibleParams(
            f"case ii-far needs alpha < -1 - 1/q = {-1 - 1 / q:g}, got {alpha}"
        )
    if case == "ii-near" and not (-1.0 - 1.0 / q <= alpha < -1.0):
        raise InadmissibleParams(
            f"case ii-near needs -1 - 1/q <= alpha < -1, got {alpha}"
        )
    if not (1 <= k < math.inf):
        raise InadmissibleParams(f"quasi-increasing constant needs a finite k >= 1, got {k}")

    upper, rhs_up = (1.0, 2.0) if case == "ii-near" else (math.inf, math.inf)
    records = []
    for i, phi in enumerate(_hardy_family(case, k, samples, seed, alpha)):
        if case != "i":
            _check_quasi_increasing(phi, k)
        try:
            lhs, rhs = _hardy_lhs(phi, q, alpha, upper), _hardy_rhs(phi, q, alpha, rhs_up)
        except OverflowError as exc:
            raise FinitenessFailure(f"Hardy case {case} at alpha = {alpha}: a side of "
                                    f"phi[{i}] overflows a float") from exc
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
    if not (1 < q < math.inf):
        raise InadmissibleParams(f"interpolation exponent needs a finite q > 1, got {q}")

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
    _check_order(alpha, s, geom.dim)
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
    _check_order(alpha, s, n)
    if part == "B":
        if young_a is None or young_b is None:
            raise InadmissibleParams("part B needs Young functions A and B")
        pair = potential_young_transforms(young_a, young_b, alpha, s, n)
        bal = balance_report(pair, t0=t0)
        if not bal.satisfiable:
            raise InadmissibleParams(
                "balance condition unsatisfiable for (A, B); Theorem B does "
                f"not apply ({'; '.join(bal.notes)})"
            )
        note = f"balance holds with gamma = {bal.gamma:.6g} ({bal.mode}) on t > {t0:g}"

        def orlicz_sides(f: GridField, V: GridField) -> tuple[float, float]:
            return (luxemburg_norm(_power_field(V, s - 1.0), young_b),
                    luxemburg_norm(f, young_a))

        return NormPart(part, geom, alpha, s, sigma, rho, (note,), orlicz_sides)
    if part == "A-iv" and rho is None:
        rho = 1.0 / (s - 1)
    if part in ("A-i", "A-iii") and rho is None:
        raise InadmissibleParams(f"part {part} needs a Lorentz index rho, got None")
    if part == "A-i":
        if sigma is None or not (1 < sigma < n / (alpha * s)):
            raise InadmissibleParams(
                f"part A-i needs 1 < sigma < n/(alpha*s) = {n / (alpha * s):g}, "
                f"got {sigma}"
            )
        target = LorentzParams(sigma * n * (s - 1) / (n - sigma * alpha * s),
                               rho * (s - 1))
        note = (f"target space L^({target.q:g},{target.rho:g}) from source "
                f"L^({sigma:g},{rho:g})")
    elif part == "A-iii":
        if not (rho > 1.0 / (s - 1)):
            raise InadmissibleParams(
                f"part A-iii needs rho > 1/(s-1) = {1 / (s - 1):g}, got {rho}"
            )
        target = LorentzParams(math.inf, rho * (s - 1), -1.0)
        note = "target space L^(inf,rho(s-1))(log L)^-1"
    elif part == "A-iv":
        if not (0 < rho <= 1.0 / (s - 1)):
            raise InadmissibleParams(
                f"part A-iv needs 0 < rho <= 1/(s-1) = {1 / (s - 1):g}, got {rho}"
            )
        target = None  # L^inf, the max over cells
        note = "target space L^inf (max over cells)"
    else:
        raise InadmissibleParams(f"unknown part {part!r}")
    # A-iii and A-iv take the source of A-i at its endpoint sigma = n/(alpha*s)
    source = LorentzParams(sigma if part == "A-i" else n / (alpha * s), rho)

    def lorentz_sides(f: GridField, V: GridField) -> tuple[float, float]:
        lhs = float(V.values.max()) if target is None else lorentz_zygmund_norm(V, target)
        return lhs, lorentz_zygmund_norm(f, source) ** (1.0 / (s - 1.0))

    return NormPart(part, geom, alpha, s, sigma, rho, (note,), lorentz_sides)


def verify_potential_norm_maps(parts: Sequence[NormPart], *, samples: int = 20,
                               seed: int = 0, threads: int | None = None
                               ) -> list[VerificationReport | WulffLabError]:
    """The reports of every part in ``parts`` (one grid, α and s) from one
    pass over a seeded family that mixes smooth bumps, Fourier sums and
    truncated radial powers: each datum f_i is drawn and mapped to
    V_{α,s} f_i once, and each part's sides are taken on the pair.  A part
    whose norm raises on a datum gets the error of its first such datum in
    place of its report."""
    if len({(part.geom, part.alpha, part.s) for part in parts}) != 1:
        raise InadmissibleParams("the parts of one pass need one grid, alpha and s")
    geom, alpha, s = parts[0].geom, parts[0].alpha, parts[0].s
    kinds = ("bumps", "fourier", "singular")

    def one(i: int) -> list[SampleRecord | WulffLabError]:
        f = random_field(geom, seed + i, kinds[i % len(kinds)], nonneg=True,
                         exponent=0.4 + 0.5 * ((seed + i) % 5) / 4.0)
        V = havin_mazya_map(f, alpha, s)
        return [_norm_record(part, i, f, V) for part in parts]

    rows = _parallel_map(one, range(samples), threads)
    reports = []
    for j, part in enumerate(parts):
        records = [row[j] for row in rows]
        errors = [r for r in records if isinstance(r, WulffLabError)]
        reports.append(errors[0] if errors else _assemble(
            f"potential-norms-{part.part}",
            {"alpha": part.alpha, "s": part.s, "sigma": part.sigma, "rho": part.rho,
             "seed": seed, "samples": samples, "cells": part.geom.cells},
            records,
            list(part.notes),
            seeded=True,
        ))
    return reports


def _norm_record(part: NormPart, i: int, f: GridField,
                 V: GridField) -> SampleRecord | WulffLabError:
    try:
        return _record(f"f[{i}]", *part.sides(f, V))
    except WulffLabError as exc:  # raised at the part's own turn, not in the pass
        return exc


# ---------------------------------------------------------------------------
# regularity exponents


def _unit_geometry(cells: int) -> GridGeometry:
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def _osc_slope(u: GridField, x0, R: float):
    """Least-squares slope of log ⨍_{B_r}|u − ⟨u⟩| against log r over at
    least four dyadic r."""
    geom = u.geometry
    r_lo = 4.0 * max(geom.spacing)
    radii = _halvings(R, r_lo)
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
    _check_p(p)
    n = 2
    geom = _unit_geometry(cells)
    pp = p / (p - 1.0)
    notes: list[str] = []
    samples: list[SampleRecord] = []
    extra = True

    if kind == "holder":
        if q is None or not (q > max(pp, n / (p - 1.0))):
            raise InadmissibleParams(
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
            raise InadmissibleParams(
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
            raise InadmissibleParams(f"Dini power weight needs beta > 0, got {beta}")
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
            raise InadmissibleParams(f"lorentz check needs 1 < p < n, got p={p}")
        if q is None or not (1.0 < q < n / p):
            raise InadmissibleParams(
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
        raise InadmissibleParams(f"unknown regularity kind {kind!r}")

    return _assemble(f"regularity-{kind}", params, samples, notes, extra_pass=extra)
