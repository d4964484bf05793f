"""Rearrangement-invariant and oscillation-based function space norms.

Everything here reduces a sampled field to scalar summaries:

* decreasing rearrangement f* as an exact step function over cell measures,
* Lorentz–Zygmund quasi-norms  ‖ s^{1/q−1/ϱ}(1 + log(|Ω|/s))^β f*(s) ‖_{L^ϱ(0,|Ω|)}
  with exact piecewise integration over the rearrangement steps,
* Orlicz (Luxemburg) norms  inf{λ : ∫ A(|f|/λ) ≤ 1}  by a bracketed secant
  in log λ,
* the Young-function transforms that govern the Orlicz-target regularity of
  the p-Laplace system, together with a balance report that decides whether
  F(E(t)/γ) ≤ γ A(t)/t is satisfiable for some finite γ,
* Campanato/Morrey sup-type seminorms over a deterministic ball sample,
  weighted by a radial power ω(r) = r^β, and
* running-max envelopes with the k-sandwich check of quasi-increasing
  functions.

Young functions constructed from the built-in families carry a symbolic tag.
Young transforms and balance checks use closed forms and exact exponent
arithmetic when the tag allows and deterministic quadrature otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    FinitenessFailure,
    InadmissibleParams,
    NoAdmissibleBalls,
    QuadratureFailure,
    SearchRangeExhausted,
)
from .field_grid import (
    Ball,
    GridField,
    GridGeometry,
    _oscillation,
    ball_stencil,
)
from .potential_engine import _check_order

__all__ = [
    "Rearrangement",
    "rearrange",
    "LorentzParams",
    "lorentz_zygmund_norm",
    "YoungFunction",
    "young_power",
    "young_zygmund",
    "young_exp",
    "young_dexp",
    "luxemburg_norm",
    "TransformPair",
    "BalanceReport",
    "potential_young_transforms",
    "balance_report",
    "WeightFunction",
    "weight_power",
    "SupScanResult",
    "campanato_seminorm",
    "morrey_norm",
    "EnvelopeReport",
    "monotone_envelope",
]


# ---------------------------------------------------------------------------
# decreasing rearrangement


@dataclass(frozen=True)
class Rearrangement:
    """Step representation of f*: ``values`` nonincreasing, one step of width
    ``cell_measure`` per cell, over the measure interval (0, |Ω|]."""

    values: np.ndarray
    cell_measure: float
    total_measure: float

    @property
    def breakpoints(self) -> np.ndarray:
        return (np.arange(1, self.values.size + 1)) * self.cell_measure

    def __call__(self, s) -> np.ndarray:
        """Evaluate f*(s) (right-continuous; zero beyond |Ω|)."""
        s = np.asarray(s, dtype=float)
        idx = np.minimum(
            np.searchsorted(self.breakpoints, s, side="left"), self.values.size - 1
        )
        out = self.values[idx]
        return np.where(s > self.total_measure, 0.0, out)


def rearrange(f: GridField) -> Rearrangement:
    """Decreasing rearrangement of the cell magnitudes of ``f``."""
    mag = f.magnitude().values[0].ravel()
    values = np.sort(mag)[::-1].copy()
    values.flags.writeable = False
    meas = f.geometry.cell_measure
    return Rearrangement(values, meas, meas * values.size)


# ---------------------------------------------------------------------------
# Lorentz–Zygmund quasi-norms


@dataclass(frozen=True)
class LorentzParams:
    """Indices (q, ϱ, β); ``math.inf`` is allowed for q and ϱ.

    Admissible: q ∈ (1, ∞], ϱ ∈ (0, ∞], β ∈ ℝ (finite) — or the degenerate
    corner q = 1, ϱ ∈ (0, 1], β ≥ 0.  Anything else does not define a
    (quasi-)normed function space and is rejected.
    """

    q: float
    rho: float
    beta: float = 0.0

    def __post_init__(self):
        q, rho, beta = self.q, self.rho, self.beta
        if not (rho > 0):
            raise InadmissibleParams(f"need rho > 0, got {rho}")
        if not math.isfinite(beta):
            raise InadmissibleParams(f"need a finite beta, got {beta}")
        if q > 1:
            return
        if q == 1:
            if rho <= 1 and beta >= 0:
                return
            raise InadmissibleParams(
                f"q = 1 requires rho in (0,1] and beta >= 0, got rho={rho}, beta={beta}"
            )
        raise InadmissibleParams(f"need q > 1 (or the q = 1 corner), got q={q}")


def _lz_piece_integral(s0, s1, a: float, b: float, M: float) -> np.ndarray:
    """∫_{s0}^{s1} s^{a−1} (1 + log(M/s))^b ds, a ≥ 0, for each step s0 < s1
    of the arrays ``s0``, ``s1`` (s0 may be 0).

    Where a power law (b = 0) or a pure log power (a = 0, substituting
    u = 1 + log(M/s)) makes the integral elementary it is one array
    expression over all steps; a step from s0 = 0 comes out +inf exactly
    when the integral diverges there.  The mixed case a ≠ 0, b ≠ 0 runs
    adaptive quadrature step by step.
    """
    s0 = np.asarray(s0, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    with np.errstate(divide="ignore"):  # s0 = 0: M/s0 = s1/s0 = inf
        if b == 0.0:
            if a == 0.0:
                return np.log(s1 / s0)
            return (s1**a - s0**a) / a
        if a == 0.0:
            u0 = 1.0 + np.log(M / s0)
            u1 = 1.0 + np.log(M / s1)
            if b == -1.0:
                return np.log(u0 / u1)
            # u0 = inf: inf for b > −1, −u1^{b+1}/(b+1) for b < −1
            return (u0 ** (b + 1.0) - u1 ** (b + 1.0)) / (b + 1.0)
    return np.vectorize(_lz_quad_piece, otypes=[float])(s0, s1, a, b, M)


def _lz_quad_piece(s0: float, s1: float, a: float, b: float, M: float) -> float:
    """One mixed-case step of :func:`_lz_piece_integral` by adaptive quadrature."""
    from scipy import integrate

    def fn(s):
        return s ** (a - 1.0) * (1.0 + math.log(M / s)) ** b

    val, err = integrate.quad(fn, s0, s1, limit=200, epsabs=1e-12, epsrel=1e-10)
    if not math.isfinite(val) or err > 1e-6 * max(abs(val), 1e-8):
        raise QuadratureFailure(
            f"step integral on ({s0:g}, {s1:g}) reached error {err:g}"
        )
    return val


def _lz_weight(s: np.ndarray, c: float, beta: float, M: float) -> np.ndarray:
    """s^c (1 + log(M/s))^β at the points 0 < s ≤ M."""
    return s**c * (1.0 + np.log(M / s)) ** beta


def lorentz_zygmund_norm(f: GridField, params: LorentzParams) -> float:
    """Lorentz–Zygmund quasi-norm of ``f`` over its domain.

    For ϱ < ∞ the integral is a finite sum over rearrangement steps, each
    step contributing its value times an exact (or adaptively quadratured)
    weight integral; for ϱ = ∞ the sup over each step is the largest of the
    weight at its two ends (at s = 0, the limit) and at the interior critical
    point of the weight.  With (q, q, 0) this reproduces
    the Lebesgue norm exactly, since the weight integrates to step widths.
    """
    r = rearrange(f)
    q, rho, beta = params.q, params.rho, params.beta
    M = r.total_measure
    values = r.values
    inv_q = 0.0 if math.isinf(q) else 1.0 / q

    # f* is nonincreasing, so the steps with v > 0 are a prefix
    k = int(np.count_nonzero(values > 0))
    steps = np.arange(k + 1) * r.cell_measure  # 0 and the first k breakpoints
    if math.isinf(rho):
        if k == 0:
            return 0.0
        right = _lz_weight(steps[1:], inv_q, beta, M)
        # the weight as s -> 0, where c = 1/q >= 0
        at_zero = 0.0 if inv_q > 0 else (math.inf if beta > 0 else float(beta == 0))
        sup = np.maximum(right, np.concatenate(([at_zero], right[:-1])))
        if inv_q != 0 and beta / inv_q > 0:
            # s* = M e^{1−β/c} maximizes the weight; clipped into each step it
            # is an end of every step but the one that holds it
            s_star = M * math.exp(1.0 - beta / inv_q)
            sup = np.maximum(sup, _lz_weight(np.clip(s_star, steps[:-1], steps[1:]),
                                             inv_q, beta, M))
        return float(np.max(values[:k] * sup))

    pieces = _lz_piece_integral(steps[:-1], steps[1:], rho * inv_q, rho * beta, M)
    if np.isinf(pieces).any():
        return math.inf
    return float(np.sum(values[:k] ** rho * pieces)) ** (1.0 / rho)


# ---------------------------------------------------------------------------
# Young functions and the Luxemburg norm


@dataclass(frozen=True)
class YoungFunction:
    """Young function A with a vectorized evaluator and an optional symbolic
    tag.  Tags ``power``/``zygmund`` carry exact exponents (t-power ``sigma``
    and log-power ``logexp``) used by closed-form transforms and the balance
    report; untagged functions fall back to deterministic quadrature.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tag: str = "custom"
    sigma: float | None = None
    logexp: float = 0.0

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return self.fn(t)


def young_power(q: float) -> YoungFunction:
    """A(t) = t^q (q ≥ 1)."""
    if not (q >= 1):  # a nan exponent would pass q < 1
        raise InadmissibleParams(f"power Young functions need q >= 1, got {q}")
    return YoungFunction(lambda t: t**q, "power", sigma=q)


def young_zygmund(q: float, beta: float) -> YoungFunction:
    """A(t) = t^q·log(e+t)^β."""
    if not (q >= 1):
        raise InadmissibleParams(f"Zygmund Young functions need q >= 1, got {q}")
    if not math.isfinite(beta):
        raise InadmissibleParams(f"Zygmund Young functions need a finite beta, got {beta}")
    return YoungFunction(
        lambda t: t**q * np.log(np.e + t) ** beta,
        "zygmund", sigma=q, logexp=beta,
    )


def young_exp(beta: float = 1.0) -> YoungFunction:
    """A(t) = exp(t^β) − 1."""
    if not (beta > 0):
        raise InadmissibleParams(f"exponential Young functions need beta > 0, got {beta}")
    return YoungFunction(lambda t: np.expm1(t**beta), "exp")


def young_dexp() -> YoungFunction:
    """A(t) = exp(exp(t)) − e."""
    return YoungFunction(lambda t: np.exp(np.exp(t)) - np.e, "dexp")


def luxemburg_norm(f: GridField, A: YoungFunction) -> float:
    """Luxemburg norm inf{λ > 0 : ∫_Ω A(|f|/λ) ≤ 1}, to a relative bracket
    width of 1e-10.

    One walk from max |f| brackets the root, modular(lo) > 1 ≥ modular(hi):
    its first step is a factor 2, and each later one goes a tenth past the
    secant root of log modular against log λ through its last two points,
    by a factor of at least 2 and at most the square of the step before.
    Then Illinois regula falsi on log modular against log λ shrinks the
    bracket, each step clamped a quarter of the tolerance inside it, with a
    step to the log-midpoint where an end's modular is 0 or ∞.  For
    A(t) = t^q the log modular is linear in log λ, so the secants land on
    the root at once: a few evaluations bracket it and two close it.

    Returns ``math.inf`` when no λ up to max|f|·2^300 admits the unit
    integral (the structurally infinite case); raises
    :class:`SearchRangeExhausted` if the modular stays finite but above 1 all
    the way to that cap, which indicates a malformed Young function.
    """
    mag = f.magnitude().values[0].ravel()
    meas = f.geometry.cell_measure
    top = float(mag.max())
    if top == 0.0:
        return 0.0

    def modular(lam: float) -> float:
        with np.errstate(over="ignore", divide="ignore"):
            vals = A(mag / lam)
        return float(np.sum(vals) * meas) if np.all(np.isfinite(vals)) else math.inf

    # the walk: up while the modular is above 1, down while it is not
    lam, g = top, _log(modular(top))
    up = g > 0.0
    cap = math.ldexp(top, 300)
    factor = 2.0
    while True:
        nxt = min(lam * factor, cap) if up else lam / factor
        if nxt <= 0.0:
            return 0.0
        g_nxt = _log(modular(nxt))
        if (g_nxt > 0.0) != up:
            break
        if nxt == cap:
            if math.isinf(g_nxt):
                return math.inf
            raise SearchRangeExhausted(
                f"modular stayed above 1 on the bracket [{top:g}, {nxt:g}]"
            )
        # the next factor reaches the secant root λ* through the last two
        # points, a tenth further; it is at least 2 and at most the square of
        # this one, so a secant that the curvature of log modular misleads
        # (exp-type A) cannot throw the bracket far past the root
        if math.isfinite(g) and math.isfinite(g_nxt) and abs(g_nxt) < abs(g):
            dist = abs(g_nxt * math.log(nxt / lam) / (g_nxt - g))  # |log λ* − log nxt|
            factor = math.exp(min(max(1.1 * dist, _LN2), 2.0 * math.log(factor)))
        else:
            factor = 2.0
        lam, g = nxt, g_nxt
    lo, g_lo, hi, g_hi = (lam, g, nxt, g_nxt) if up else (nxt, g_nxt, lam, g)

    last = None  # the end the previous step moved; g_lo > 0 >= g_hi
    while hi - lo > 1e-10 * hi:
        if math.isfinite(g_lo) and math.isfinite(g_hi):
            u_lo, u_hi = math.log(lo), math.log(hi)
            lam = math.exp(u_hi - g_hi * (u_hi - u_lo) / (g_hi - g_lo))
        else:
            lam = lo * math.sqrt(hi / lo)
        quarter = 0.25e-10 * hi
        lam = min(max(lam, lo + quarter), hi - quarter)
        g = _log(modular(lam))
        # Illinois: an end kept twice in a row has its log modular halved
        if g <= 0.0:
            hi, g_hi = lam, g
            if last == "hi":
                g_lo *= 0.5
            last = "hi"
        else:
            lo, g_lo = lam, g
            if last == "lo":
                g_hi *= 0.5
            last = "lo"
    return 0.5 * (lo + hi)


def _log(m: float) -> float:
    return math.log(m) if m > 0.0 else -math.inf


_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Young-function transforms and the balance condition


@dataclass(frozen=True)
class _Asym:
    """Asymptotic shape c·t^power·(log t)^logpow as t → ∞ (constants dropped)."""

    power: float
    logpow: float


class _Transform(NamedTuple):
    """Increasing transform: a pointwise evaluator (an exact power closed form
    or a quadrature) and its asymptotic exponents for the balance report."""

    evaluate: Callable[[float], float]
    asym: _Asym | None

    def __call__(self, t: float) -> float:
        return self.evaluate(t)


def _power_transform(coeff: float, power: float) -> _Transform:
    return _Transform(lambda t: coeff * t**power, _Asym(power, 0.0))


def _quad_zero_to(fn: Callable[[float], float], t: float) -> float:
    from scipy import integrate

    # ask quad for more than the check below demands: at its default 1.49e-8
    # relative accuracy the returned error estimate often exceeds 1e-8
    val, err = integrate.quad(fn, 0.0, t, limit=400, epsabs=0.0, epsrel=1e-10)
    if not math.isfinite(val):
        raise FinitenessFailure("transform integral diverges")
    if err > 1e-8 * max(abs(val), 1e-30):
        raise QuadratureFailure(f"transform integral error {err:g} at t={t:g}")
    return val


def potential_young_transforms(A: YoungFunction, B: YoungFunction, alpha: float,
                               s: float, n: int) -> "TransformPair":
    """Transform pair (E, F) for the composed potential of order (α, s):

        E(t) = ( ∫₀^t ( τ^{1/(s−1) − 1 + αs'/n} / A(τ)^{αs'/n} )^{n/(n−αs')} dτ )^{s−1−αs/n}
        F(t) = ( ∫₀^t B(τ) / τ^{1 + n/(n−αs)} dτ )^{(n−αs)/n}

    with s' = s/(s−1).  Exact closed forms for power-tagged A and B;
    otherwise quadrature, with the asymptotics derived from the tag's
    exponents when it has them.  Raises
    :class:`FinitenessFailure` when either integral diverges at 0.
    """
    _check_order(alpha, s, n)
    sp = s / (s - 1.0)
    if not (alpha * sp < n):
        raise InadmissibleParams(f"transforms need alpha*s' < n, got {alpha * sp:g} vs n={n}")
    kE = n / (n - alpha * sp)
    outer_E = s - 1.0 - alpha * s / n
    base_exp = (1.0 / (s - 1.0) - 1.0 + alpha * sp / n)
    kF = n / (n - alpha * s)
    outer_F = (n - alpha * s) / n

    def e_integrand(tau):
        if tau <= 0:
            return 0.0
        return float((tau ** base_exp / A(tau) ** (alpha * sp / n)) ** kE)

    def f_integrand(tau):
        if tau <= 0:
            return 0.0
        return float(B(tau) / tau ** (1.0 + kF))

    E_asym = F_asym = None
    if A.sigma is not None:
        aE = (base_exp - A.sigma * alpha * sp / n) * kE + 1.0
        if aE <= 0:
            raise FinitenessFailure(
                f"E-integral diverges: interior exponent {aE - 1.0:g} <= -1"
            )
        logE = -A.logexp * (alpha * sp / n) * kE
        E_asym = _Asym(aE * outer_E, logE * outer_E)
    if B.sigma is not None:
        bF = B.sigma - kF
        if bF <= 0:
            raise FinitenessFailure(
                f"F-integral diverges: B must grow faster than t^{kF:g} near 0"
            )
        F_asym = _Asym(bF * outer_F, B.logexp * outer_F)

    if A.tag == "power" and E_asym is not None:
        E = _power_transform((1.0 / aE) ** outer_E, aE * outer_E)
    else:
        E = _Transform(lambda t: _quad_zero_to(e_integrand, t) ** outer_E, E_asym)
    if B.tag == "power" and F_asym is not None:
        F = _power_transform((1.0 / bF) ** outer_F, bF * outer_F)
    else:
        F = _Transform(lambda t: _quad_zero_to(f_integrand, t) ** outer_F, F_asym)

    return TransformPair(E=E, F=F, A=A)


@dataclass
class BalanceReport:
    """Outcome of the balance condition F(E(t)/γ) ≤ γ·A(t)/t for t > t₀."""

    satisfiable: bool
    gamma: float | None
    mode: str  # "symbolic" | "numeric"
    notes: list[str]


@dataclass(frozen=True)
class TransformPair:
    """The pair (E, F) with the Young function A that bounds it;
    :func:`balance_report` checks the balance condition."""

    E: _Transform
    F: _Transform
    A: YoungFunction


def balance_report(pair: TransformPair, t0: float = 1.0) -> BalanceReport:
    """Decide F(E(t)/γ) ≤ γ A(t)/t on t > t₀ and report the smallest γ.

    When both transforms and A carry asymptotic exponents, the large-t
    behavior is compared exactly (lexicographically in (t-power, log-power));
    a strict asymptotic excess of the left side is Unsatisfiable no matter
    how large γ is chosen, which no finite grid could witness.  The smallest
    workable γ is then located by bisection on a log-spaced t-grid (the
    condition is monotone in γ: raising γ shrinks the left side and grows
    the right side).  The grid holds 60 points of [t₀, 10⁴], which needs
    0 < t₀ < 10⁴, and γ is sought in [10⁻⁸, 10⁸].
    """
    t_max, gamma_hi = 1e4, 1e8
    if not 0 < t0 < t_max:
        raise InadmissibleParams(f"the balance grid needs 0 < t0 < {t_max:g}, got {t0}")
    notes: list[str] = []
    if pair.E.asym is not None and pair.F.asym is not None and pair.A.sigma is not None:
        pE, lE = pair.E.asym.power, pair.E.asym.logpow
        pF, lF = pair.F.asym.power, pair.F.asym.logpow
        lhs_asym = (pE * pF, lE * pF + lF)
        rhs_asym = (pair.A.sigma - 1.0, pair.A.logexp)
        # lexicographic comparison up to float noise in the exponent algebra
        power_tol = 1e-9 * max(1.0, abs(lhs_asym[0]), abs(rhs_asym[0]))
        dpow = lhs_asym[0] - rhs_asym[0]
        lhs_dominates = dpow > power_tol or (
            abs(dpow) <= power_tol and lhs_asym[1] > rhs_asym[1] + 1e-9
        )
        if lhs_dominates:
            notes.append(
                "left side asymptotically dominates the right side for every "
                f"fixed gamma: t-power/log-power {lhs_asym} > {rhs_asym}"
            )
            return BalanceReport(False, None, "symbolic", notes)
        mode = "symbolic"
    else:
        mode = "numeric"
        notes.append("untagged input: asymptotic verdict unavailable, grid only")

    ts = np.geomspace(t0, t_max, 60)
    A_over_t = np.array([float(pair.A(t)) / t for t in ts])
    E_vals = np.array([pair.E(float(t)) for t in ts])

    def holds(gamma: float) -> bool:
        lhs = np.array([pair.F(float(e / gamma)) for e in E_vals])
        # γ·A(t)/t overflows to inf for exponential A; the bound then holds
        with np.errstate(over="ignore"):
            return bool(np.all(lhs <= gamma * A_over_t))

    if not holds(gamma_hi):
        notes.append(f"no gamma up to {gamma_hi:g} satisfies the grid condition")
        return BalanceReport(False, None, mode, notes)
    lo, hi = 1e-8, gamma_hi
    if holds(lo):
        hi = lo
    else:
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if mid in (lo, hi):
                break  # no float strictly between: every later step repeats this one
            if holds(mid):
                hi = mid
            else:
                lo = mid
    return BalanceReport(True, float(hi), mode, notes)


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class WeightFunction:
    """Radial weight ω(r) of the Campanato/Morrey scans; ``nondecreasing``
    lets :func:`campanato_seminorm` evaluate the scan at q = 1."""

    fn: Callable[[np.ndarray], np.ndarray]
    nondecreasing: bool

    def __call__(self, r) -> np.ndarray:
        return self.fn(np.asarray(r, dtype=float))


def weight_power(beta: float) -> WeightFunction:
    """ω(r) = r^β (nondecreasing for β ≥ 0); β = 0 makes the Campanato scan
    the sampled mean-oscillation seminorm."""
    return WeightFunction(lambda r: r**beta, nondecreasing=beta >= 0)


# ---------------------------------------------------------------------------
# Campanato / Morrey sup scans


# Cell samples (times components) gathered per block of a Campanato/Morrey scan.
_SCAN_BLOCK = 1 << 16
# (centers × runs) running sums read per column and block of the scan bounds.
_BOUND_BLOCK = 1 << 14
# levels per component of the ladder bound of the Campanato scan
_LADDER_LEVELS = 16
# unit round-off of float64
_U = 2.0**-53
# smallest subnormal float64: the absolute error of a product, quotient or
# power that underflows
_TINY = 2.0**-1074


@dataclass(frozen=True)
class SupScanResult:
    """Sup-type norm value with the ball attaining it and the sample size."""

    value: float
    ball: Ball
    balls_scanned: int

    def __float__(self) -> float:
        return self.value


def _sample_balls(geom: GridGeometry):
    """Deterministic ball sample: centers on every fourth cell per axis
    (starting at cell 2), dyadic radii from 2h up to the largest ball inside
    the domain.

    Returns the centers' flat cell indices and coordinates (row-major), the
    radii, and the (centers, radii) mask of the balls that fit; read in
    center-major, radius-minor order, the mask lists the sampled balls.
    """
    h = max(geom.spacing)
    grids = np.meshgrid(*[np.arange(2, c, 4) for c in geom.cells], indexing="ij")
    idx = np.stack([g.ravel() for g in grids])
    coords = np.stack([geom.axis_centers(d)[idx[d]] for d in range(geom.dim)], axis=1)
    lo = np.min(coords - np.array(geom.origin), axis=1)
    hi = np.min(np.array([o + e for o, e in zip(geom.origin, geom.extent)]) - coords, axis=1)
    room = np.minimum(lo, hi) * (1 + 1e-12)
    radii = []
    r = 2.0 * h
    while room.size and r <= room.max():
        radii.append(r)
        r *= 2.0
    fits = np.array(radii)[None, :] <= room[:, None]
    return np.ravel_multi_index(tuple(idx), geom.cells), coords, radii, fits


def _sup_scan(geom: GridGeometry, omega: WeightFunction, data: np.ndarray,
              ball_values: Callable[[np.ndarray], np.ndarray],
              ball_bounds: Callable[[np.ndarray, np.ndarray], np.ndarray],
              ladder: Callable[[list], list] | None = None) -> SupScanResult:
    """sup of value(B)/ω(r) over the ball sample, skipping radii with ω ≤ 0.

    ``ball_values`` maps the samples of ``data`` (ncomp, *cells) on a block
    of balls of one radius, shape (ncomp, balls, cells of the stencil), to
    one value per ball.  ``ball_bounds(centers, stencil)`` bounds those
    values from above without a gather, one bound per center (flat cell
    indices of balls that fit).  ``ladder``, if given, is a second bound
    that costs about ``_LADDER_LEVELS`` passes over ``data``: it maps a list
    of (centers, stencil) groups to one array of bounds per group.

    The bounds screen the scan.  The balls with the largest bound/ω(r), up
    to one block of ``_SCAN_BLOCK`` cell samples, are evaluated first.  The
    others whose bound/ω(r) is ≥ the best ratio found survive; when their
    cell samples outnumber the ``_LADDER_LEVELS``·``data.size`` that the
    ladder reads, each survivor's bound becomes the smaller of its two
    bounds.  The survivors are then evaluated in order of decreasing bound,
    a block of ``_SCAN_BLOCK`` cell samples at a time, while the next
    bound/ω(r) is ≥ the best ratio found; every other ball keeps −∞.  A ball
    whose ratio equals the sup has both bounds ≥ sup ≥ any best found, so
    each of them is evaluated, by the same ``ball_values``; a NaN bound
    counts as +∞.  As in a loop over the balls in sample order, the first
    strict maximum wins and a NaN ratio never does.
    """
    centers, coords, radii, fits = _sample_balls(geom)
    if not fits.any():
        raise NoAdmissibleBalls("no sampled ball fits inside the domain")
    # component-major, as in a gathered ball np.take(f, cells, axis=1): the
    # reductions over a ball then add in the order of one-ball evaluation
    samples = data.reshape(data.shape[0], -1)
    weights = np.array([float(omega(r)) for r in radii])
    live = fits & (weights > 0)
    stencils = {j: ball_stencil(geom, radii[j]) for j in np.flatnonzero(live.any(axis=0))}
    size = np.zeros(len(radii), dtype=np.int64)
    bound = np.full(fits.shape, -np.inf)
    for j, stencil in stencils.items():
        size[j] = data.shape[0] * stencil.size
        rows = np.flatnonzero(live[:, j])
        with np.errstate(all="ignore"):
            bound[rows, j] = ball_bounds(centers[rows], stencil) / weights[j]
    bound[np.isnan(bound)] = np.inf
    ratio = np.full(fits.shape, -np.inf)
    seen = np.zeros(fits.shape, dtype=bool)

    def evaluate(mask):
        seen[mask] = True
        for j in np.flatnonzero(mask.any(axis=0)):
            rows = np.flatnonzero(mask[:, j])
            offsets = stencils[j]
            block = max(1, _SCAN_BLOCK // size[j])
            for start in range(0, rows.size, block):
                chunk = rows[start:start + block]
                windows = np.take(samples, centers[chunk, None] + offsets, axis=1)
                ratio[chunk, j] = ball_values(windows) / weights[j]
        ratio[np.isnan(ratio)] = -np.inf

    def walk(mask, blocks):
        """Evaluate the balls of ``mask`` in order of decreasing bound, in at
        most ``blocks`` blocks of ``_SCAN_BLOCK`` cell samples (each at least
        one ball), while the next ball's bound reaches the best ratio."""
        idx = np.flatnonzero(mask)
        order = idx[np.argsort(-bound.flat[idx], kind="stable")]
        cells = np.cumsum(size[order % len(radii)])
        start = 0
        while blocks and start < order.size and bound.flat[order[start]] >= ratio.max():
            done = cells[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(cells, done + _SCAN_BLOCK, side="right")))
            block = np.zeros(fits.shape, dtype=bool)
            block.flat[order[start:stop]] = True
            evaluate(block)
            start, blocks = stop, blocks - 1

    # the largest bounds, one block of cells, set the bar for the rest
    walk(live, 1)
    rest = live & ~seen & (bound >= ratio.max())
    if ladder is not None and rest.sum(axis=0) @ size > _LADDER_LEVELS * data.size:
        cols = np.flatnonzero(rest.any(axis=0))
        rows = [np.flatnonzero(rest[:, j]) for j in cols]
        with np.errstate(all="ignore"):
            tight = ladder([(centers[r], stencils[j]) for j, r in zip(cols, rows)])
            for j, r, b in zip(cols, rows, tight):
                b = b / weights[j]
                b[np.isnan(b)] = np.inf
                bound[r, j] = np.minimum(bound[r, j], b)
    walk(rest, math.inf)
    top = int(np.argmax(ratio))
    if ratio.flat[top] == -np.inf:
        raise NoAdmissibleBalls("weight vanished on every sampled radius")
    i, j = divmod(top, len(radii))
    return SupScanResult(float(ratio.flat[top]), Ball(tuple(coords[i]), radii[j]),
                         int(fits.sum()))


class _RowSums(NamedTuple):
    """Running sums of m sample columns along the last grid axis: per grid
    row of L cells, L + 1 entries (a zero, then the running sums) of each
    column, shape (m, rows·(L + 1)); and ``row_abs`` (m,), the largest
    computed Σ|x| of each column over one row."""

    prefix: np.ndarray
    row_abs: np.ndarray


def _row_sums(columns: Iterable[np.ndarray], m: int, cells: int, L: int) -> _RowSums:
    """:class:`_RowSums` of the m ``columns`` (each ``cells`` samples), which
    are read one at a time and summed in place in the table."""
    prefix = np.zeros((m, cells // L, L + 1))
    row_abs = np.empty(m)
    for c, x in enumerate(columns):
        rows = prefix[c, :, 1:]
        rows[...] = x.reshape(-1, L)
        row_abs[c] = np.abs(rows).sum(axis=1).max()
        np.cumsum(rows, axis=1, out=rows)
    return _RowSums(prefix.reshape(m, -1), row_abs)


def _stencil_runs(geom: GridGeometry, offsets: np.ndarray):
    """The runs of a ball stencil: maximal blocks of consecutive flat offsets
    in one grid row.  Returns where each run starts in the layout of
    :func:`_row_sums` relative to the center's entry, and its length.

    In a ball that fits, the column offset k of every cell has |k| < L/2, so
    the row of offset o is round(o/L); a row that the ball covers whole
    would otherwise run on into the next one."""
    L = geom.cells[-1]
    row = (2 * offsets + L) // (2 * L)
    first = np.concatenate(([0], np.flatnonzero((np.diff(offsets) != 1)
                                                | (np.diff(row) != 0)) + 1))
    lengths = np.diff(np.append(first, offsets.size))
    return offsets[first] + row[first], lengths


def _ball_sums(geom: GridGeometry, table: _RowSums, centers: np.ndarray,
               runs) -> tuple[np.ndarray, np.ndarray]:
    """Σ_B x of each column for the ball of each center, shape
    (m, centers), from the row running sums: one difference of two running
    sums per run, added over the runs.  Returns the sums and a bound E (m,)
    on their error.

    Each running sum of a row of L cells is off by at most γ_L·A, with A the
    largest exact Σ|x| over a row and γ_n = nu/(1 − nu), u = 2⁻⁵³; the
    difference of two rounds once, and adding R run sums costs
    γ_R·Σ|run sum| ≤ γ_R·R·A(1 + 3γ_L).  So |sum − Σ_B x| ≤ (3γ_L + 2γ_R)·R·A,
    and with A ≤ (1 + γ_L)·``row_abs`` that is at most 4(L + R)·u·R·``row_abs``."""
    starts, lengths = runs
    L = geom.cells[-1]
    R = lengths.size
    base = centers + centers // L
    sums = np.empty((len(table.prefix), centers.size))
    block = max(1, _BOUND_BLOCK // R)
    for lo in range(0, centers.size, block):
        at = base[lo:lo + block, None] + starts
        end = at + lengths
        for col, prefix in zip(sums, table.prefix):
            col[lo:lo + block] = (prefix.take(end) - prefix.take(at)).sum(axis=1)
    return sums, 4.0 * (L + R) * _U * R * table.row_abs


def _slack(k: int) -> float:
    """Factor on a scan bound that covers the rounding of a ball value over
    k cells and of the bound itself: 1 + 4(k + 64)u."""
    return 1.0 + 4.0 * (k + 64) * _U


def _check_scan_exponent(q: float) -> None:
    if not (1.0 <= q < math.inf):
        raise InadmissibleParams(f"need a finite q >= 1, got {q}")


def campanato_seminorm(f: GridField, omega: WeightFunction,
                       q: float = 1.0) -> SupScanResult:
    """Campanato-type seminorm sup_B (1/ω(r)) (⨍_B |f − ⟨f⟩_B|^q)^{1/q}.

    The sup runs over the deterministic ball sample of :func:`_sample_balls`,
    one radius at a time: the cells of every ball come from the one
    :func:`ball_stencil` of its radius, gathered for a block of centers at
    once.  The attaining ball is reported.  q must be finite and ≥ 1.  For
    nondecreasing ω the scan is evaluated at q = 1 (the spaces for different
    q coincide by the John–Nirenberg argument, and q = 1 keeps the scan
    cheap); ω ≡ 1 yields the sampled mean-oscillation (BMO) value.

    The scan is screened (:func:`_sup_scan`) by two upper bounds of each
    ball's computed value: for q ≤ 2 the spread bound, the q-mean
    oscillation being at most the 2-mean one, and the ladder bound of
    :func:`_campanato_bounds` on the balls that survive it (for q > 2 the
    spread bound is +∞ and the ladder is the only screen).  With
    u = 2⁻⁵³, γ_n = nu/(1 − nu), k cells and n components:

    * y = fl(f − σ) per component, σ the mean of f over the grid, so that an
      offset does not cancel the variance; z = fl(y²).  From the row running
      sums of y and z with errors E_y, E_z (:func:`_ball_sums`):
      ⨍ y² ≤ h = (1 + 2u)(Σ z + E_z)/k and |⨍ y| ≥ l = max(|Σ y| − E_y, 0)/k,
      so the 2-mean oscillation of y is at most V^{1/2}, V = Σ_c (h − l²).
    * |y − (f − σ)| ≤ u|f − σ|, so that of f is at most
      V^{1/2} + u(1 + 2u)(Σ_c h)^{1/2}.
    * The computed mean m̂ is off by at most γ_{k+1}⨍|f_c| ≤
      γ_{k+1}(|σ_c| + (1 + 2u)h^{1/2}) per component, and the 2-mean
      distance from m̂ exceeds the oscillation by at most that |m̂ − m|.
    * The deviations, their powers, mean and root round to at most
      1 + γ_{k+2n+16} times the exact value from m̂.
    * Underflow: a product, quotient or power below 2⁻¹⁰²² is also off by up
      to τ = 2⁻¹⁰⁷⁴ in absolute terms (sums and differences are exact
      there).  On the computed value, the squares across components, the
      q-th powers, the mean and the root add at most (0.71√n + 1.23)√τ
      (q ≤ 2, Minkowski for the q-mean); on the bound, z, h and l² take at
      most 3nτ from V and so √(3nτ) from its root, and the other steps 4τ.

    The spread bound is √(V + 16u·Σ_c h) + u(1 + 2u)(Σ_c h)^{1/2} +
    γ_{k+1}·|(|σ_c| + (1 + 2u)√h)_c| times :func:`_slack`, plus
    (n + 4)√τ = (n + 4)·2⁻⁵³⁷, which exceeds both underflow terms together;
    16u·Σ_c h covers the rounding of V (l² ≤ h) and the slack every other
    rounding.
    """
    _check_scan_exponent(q)
    if omega.nondecreasing:
        q = 1.0

    def values(s: np.ndarray) -> np.ndarray:
        # one error state per block of balls; overflowing q-th powers are
        # rescaled by _oscillation
        with np.errstate(over="ignore"):
            return _oscillation(s, s.mean(axis=-1), q)

    return _sup_scan(f.geometry, omega, f.values, values, *_campanato_bounds(f, q))


def _campanato_bounds(f: GridField, q: float):
    """The spread bound and the ladder bound of :func:`campanato_seminorm`.

    The ladder bounds the q-mean oscillation by chords of a convex function.
    For one component, G(t) = (⨍_B |f − t|^q)^{1/q} is convex in t (a
    seminorm of f − t), so at the computed mean m̂ it lies below the chord
    through any two levels a ≤ m̂ ≤ b; across components the Euclidean
    deviation is at most the ℓ¹ one, and by Minkowski the value is at most
    Σ_c G_c(m̂_c).  Per component:

    * m̂ lies in the bracket σ + Σ y/k ± 2w, w = (1 + 8u)(E_y/k + u·M₁ +
      γ_{k+1}·M₀ + 2u(|σ| + |Σ y|/k) + 2τ), with M₀ = max|f| and
      M₁ ≥ max|f − σ| over the grid: the exact mean is σ + ⨍(f − σ),
      ⨍ y is within E_y/k of Σ y/k and within u·M₁ of ⨍(f − σ), m̂ within
      γ_{k+1}⨍|f| (+τ) of the mean, and doubling w covers the rounding of
      the bracket's ends.
    * The levels are ``_LADDER_LEVELS`` quantiles of the bracket ends of
      all the balls passed, the lowest and the highest end included, so
      every bracket has a level a ≤ its low end and b ≥ its high end; a, b
      are the nearest such.  One table of row running sums of
      fl(|f − a|^q) at a time gives Ĝ(a) = ((S + E)/k)^{1/q}.
    * The chord μG(a) + λG(b), λ = (t − a)/(b − a), μ = (b − t)/(b − a),
      is linear in t, so its larger value at the two ends t of the bracket
      bounds it at m̂ (G(a) if a = b).

    The rounding of fl(f − a), its power, S + E, the quotient, the root,
    λ, μ and the chord is relative, within :func:`_slack` with that of the
    computed value; the ladder bound is Σ_c chord_c times the slack, plus
    (n + 4)(√(nτ) + (8τ)^{1/q}) for underflow: each table entry and quotient
    adds up to τ under the root of Ĝ, so (2τ)^{1/q} to Ĝ, and the chord 3τ;
    the computed value adds √(nτ) from its squares and (2τ)^{1/q} from its
    powers, mean and root, or τ where it is computed rescaled.  A bracket or
    table that is not finite makes the bound +∞.
    """
    geom = f.geometry
    samples = f.values.reshape(f.ncomp, -1)
    n = f.ncomp
    L = geom.cells[-1]
    with np.errstate(all="ignore"):
        shift = samples.mean(axis=1)
        squares = (np.square(s - m) for s, m in zip(samples, shift)) if q <= 2.0 else ()
        table = _row_sums(itertools.chain((s - m for s, m in zip(samples, shift)), squares),
                          n * (2 if q <= 2.0 else 1), samples.shape[1], L)

    def spread(centers: np.ndarray, stencil: np.ndarray) -> np.ndarray:
        if q > 2.0:
            return np.full(centers.size, np.inf)
        k = stencil.size
        sums, err = _ball_sums(geom, table, centers, _stencil_runs(geom, stencil))
        h = (1 + 2 * _U) * (sums[n:] + err[n:, None]) / k
        l = np.maximum(np.abs(sums[:n]) - err[:n, None], 0.0) / k
        h_sum = h.sum(axis=0)
        var = (h - l * l).sum(axis=0) + 16 * _U * h_sum
        mean = np.sqrt(((np.abs(shift)[:, None] + (1 + 2 * _U) * np.sqrt(h)) ** 2).sum(axis=0))
        gamma = (k + 1) * _U / (1 - (k + 1) * _U)
        spread = (np.sqrt(np.maximum(var, 0.0)) + _U * (1 + 2 * _U) * np.sqrt(h_sum)
                  + gamma * mean)
        return spread * _slack(k) + (n + 4) * math.sqrt(_TINY)

    def ladder(groups: list) -> list:
        runs = [_stencil_runs(geom, stencil) for _, stencil in groups]
        ks = [stencil.size for _, stencil in groups]
        y = _RowSums(table.prefix[:n], table.row_abs[:n])
        f_max, f_min = samples.max(axis=1), samples.min(axis=1)
        top = np.maximum(f_max, -f_min)
        dev_top = (1 + 2 * _U) * np.maximum(f_max - shift, shift - f_min)
        lo, hi = [], []
        for (centers, _), r, k in zip(groups, runs, ks):
            sums, err = _ball_sums(geom, y, centers, r)
            gamma = (k + 1) * _U / (1 - (k + 1) * _U)
            w = 2 * (1 + 8 * _U) * (
                (err / k + _U * dev_top + gamma * top + 2 * _U * np.abs(shift) + 2 * _TINY)[:, None]
                + 2 * _U * np.abs(sums) / k)
            mid = shift[:, None] + sums / k
            lo.append(mid - w)
            hi.append(mid + w)
        bounds = [np.zeros(len(centers)) for centers, _ in groups]
        for c in range(n):
            chords = _chords(geom, samples[c], q, groups, runs, [b[c] for b in lo],
                             [b[c] for b in hi])
            for b, chord in zip(bounds, chords):
                b += chord
        underflow = (n + 4) * (math.sqrt(n * _TINY) + (8 * _TINY) ** (1.0 / q))
        return [b * _slack(k) + underflow for b, k in zip(bounds, ks)]

    return spread, ladder


def _chords(geom: GridGeometry, x: np.ndarray, q: float, groups: list, runs: list,
            lo: list, hi: list) -> list:
    """For one component ``x`` (its flat samples) and the balls of ``groups``
    with their stencil ``runs``, the larger of the chords of
    G(t) = ((S + E)/k)^{1/q} over the bracket ends ``lo`` and ``hi`` of each
    ball (:func:`_campanato_bounds`), one array per group; +∞ where an end
    is not finite.  The levels' tables are built one at a time in one
    buffer."""
    L = geom.cells[-1]
    ends = np.sort(np.concatenate(lo + hi))
    ends = ends[np.isfinite(ends)]
    if not ends.size:
        return [np.full(e.size, np.inf) for e in lo]
    levels = np.unique(ends[np.linspace(0, ends.size - 1, _LADDER_LEVELS).astype(np.intp)])
    # the nearest levels a <= lo and b >= hi (clipped where an end is not finite)
    below = [np.maximum(np.searchsorted(levels, e, "right") - 1, 0) for e in lo]
    above = [np.minimum(np.searchsorted(levels, e, "left"), levels.size - 1) for e in hi]
    g_lo = [np.empty(e.size) for e in lo]
    g_hi = [np.empty(e.size) for e in lo]
    prefix = np.zeros((1, x.size // L, L + 1))
    table = _RowSums(prefix.reshape(1, -1), np.empty(1))
    rows = prefix[0, :, 1:]
    for i, level in enumerate(levels):
        np.abs(np.subtract(x.reshape(-1, L), level, out=rows), out=rows)
        if q != 1.0:
            rows **= q
        np.cumsum(rows, axis=1, out=rows)
        table.row_abs[0] = rows[:, -1].max()  # a computed Σ|x| of each row, x ≥ 0
        for (centers, stencil), r, at_lo, at_hi, gl, gh in zip(
                groups, runs, below, above, g_lo, g_hi):
            at_lo, at_hi = at_lo == i, at_hi == i
            sel = at_lo | at_hi
            if sel.any():
                sums, err = _ball_sums(geom, table, centers[sel], r)
                g = ((sums[0] + err[0]) / stencil.size) ** (1.0 / q)
                gl[at_lo] = g[at_lo[sel]]
                gh[at_hi] = g[at_hi[sel]]
    out = []
    for t_lo, t_hi, i, j, gl, gh in zip(lo, hi, below, above, g_lo, g_hi):
        a, b = levels[i], levels[j]
        span = b - a
        at_ends = [((b - t) / span) * gl + ((t - a) / span) * gh for t in (t_lo, t_hi)]
        chord = np.where(span > 0.0, np.maximum(*at_ends), np.maximum(gl, gh))
        out.append(np.where(np.isfinite(t_lo) & np.isfinite(t_hi), chord, np.inf))
    return out


def _power_table(f: GridField, q: float) -> tuple[np.ndarray, int]:
    """The table (|f|·2⁻ᵉ)^q with 2ᵉ⁻¹ ≤ max|f| < 2ᵉ, and e."""
    mag = f.magnitude().values
    e = int(np.frexp(mag.max())[1])
    return np.ldexp(mag, -e) ** q, e


def morrey_norm(f: GridField, omega: WeightFunction, q: float = 1.0) -> SupScanResult:
    """Morrey-type norm sup_B (1/ω(r)) (∫_B |f|^q)^{1/q} (non-averaged), over
    the ball sample of :func:`campanato_seminorm`; q must be finite and ≥ 1.

    The scan is screened (:func:`_sup_scan`) by the mass bound
    (|cell|·(S + E))^{1/q} times :func:`_slack`, where S is the row-running-sum
    estimate of Σ_B |f|^q (over the stored samples |f|^q) and E its error
    bound (:func:`_ball_sums`), so S + E is at least the exact sum.  The
    computed mass adds the k samples in some order, so it is at most
    (1 + γ_{k−1}) times the exact sum (u = 2⁻⁵³, γ_n = nu/(1 − nu)); the
    product with |cell|, the root (an exponent 1/q ≤ 1 keeps the factor) and
    its rounding leave the computed value at most 1 + γ_{k+3} times
    (|cell|·Σ_B |f|^q)^{1/q}, within the slack.  Below 2⁻¹⁰²² the products
    with |cell| and the roots are also off by up to τ = 2⁻¹⁰⁷⁴ in absolute
    terms, which moves value and bound apart by at most 2τ^{1/q} + 2.5τ
    ((a + b)^{1/q} ≤ a^{1/q} + b^{1/q}); the bound adds 5τ^{1/q}.

    The scan runs on |f|·2⁻ᵉ, with 2ᵉ⁻¹ ≤ max|f| < 2ᵉ, so the table (|f|·2⁻ᵉ)^q
    is at most 1 and cannot overflow, and its value is scaled back by 2ᵉ: the
    norm is 1-homogeneous in f, both scalings are exact (barring a norm
    outside the normal range, which rounds to a subnormal or to inf), and the
    bound and the values above describe the scaled table."""
    _check_scan_exponent(q)
    geom = f.geometry
    meas = geom.cell_measure
    data, e = _power_table(f, q)
    with np.errstate(all="ignore"):
        table = _row_sums(data.reshape(1, -1), 1, data.size, geom.cells[-1])
    # the absolute margin of the docstring.  Below 2⁻¹⁰²² the products with
    # |cell| of value and bound each round by up to τ/2, which the roots
    # carry as up to (τ/2)^{1/q} each ((a ± b)^{1/q} within a^{1/q} ± b^{1/q});
    # the two roots, the product with the slack and the sum round by up to
    # τ/2 each when subnormal: 2(τ/2)^{1/q} + 2τ ≤ 2τ^{1/q} + 2.5τ
    # ≤ 4.5τ^{1/q} < 5τ^{1/q}, as τ ≤ τ^{1/q}.  Every step after the sum is
    # monotone in it, so without this term the bound can undercut a ball
    # value only where the computed Σ_B |f|^q exceeds S + E; no datum tried
    # so far does
    underflow = 5.0 * _TINY ** (1.0 / q)

    def bound(centers: np.ndarray, stencil: np.ndarray) -> np.ndarray:
        sums, err = _ball_sums(geom, table, centers, _stencil_runs(geom, stencil))
        return ((sums[0] + err[0]) * meas) ** (1.0 / q) * _slack(stencil.size) + underflow

    got = _sup_scan(geom, omega, data, lambda s: np.power(s[0].sum(axis=-1) * meas, 1.0 / q),
                    bound)
    if e:
        with np.errstate(over="ignore"):  # a norm beyond the float range is inf
            got = replace(got, value=float(np.ldexp(got.value, e)))
    return got


# ---------------------------------------------------------------------------
# quasi-increasing envelopes


@dataclass(frozen=True)
class EnvelopeReport:
    """Sandwich check φ ≤ ψ ≤ k·φ of the monotone envelope
    ψ(s) = sup_{r ≤ s} φ(r), with the largest ratio ψ/φ; a violation is
    reported, never thrown."""

    quasi_increasing: bool
    max_ratio: float


def monotone_envelope(phi: Sequence[float], k: float) -> EnvelopeReport:
    """Running-max envelope of positive samples with the k-sandwich verdict."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size == 0:
        raise InadmissibleParams("phi must be a nonempty 1-d sample array")
    if np.any(phi <= 0):
        raise InadmissibleParams("quasi-increasing envelopes need phi > 0")
    if not (k >= 1):
        raise InadmissibleParams(f"need k >= 1, got {k}")
    psi = np.maximum.accumulate(phi)
    ratios = psi / phi
    max_ratio = float(ratios.max())
    return EnvelopeReport(bool(np.all(ratios <= k * (1 + 1e-12))), max_ratio)
