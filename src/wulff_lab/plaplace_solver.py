"""Dirichlet solver for the p-Laplace system with divergence-form data.

The continuous problem is  −div(|∇u|^{p−2}∇u) = −div F  on a rectangle with
Dirichlet boundary data, i.e. the Euler–Lagrange equation of

    J(u) = ∫ (1/p)|∇u|^p − F·∇u .

Discretely, ∇u is the first-order staggered gradient: both forward
differences of the cell samples, collocated on the (c₁−1)×(c₂−1) lattice of
forward-difference pairs.  The discrete energy sums the regularized density
(ε² + |∇u|²)^{p/2}/p − F·∇u over that lattice, with F read raw at the same
lattice indices.  Because the discrete weak form is the literal gradient of
this sum, discrete integration by parts is exact: constant matrices F are
exactly divergence-free, and ``manufacture`` inverts the system so that its
output datum makes any u a discrete weak solution to round-off.

Minimization is a damped inexact Newton method run through a decreasing-ε
continuation (p ≠ 2).  Each Newton system uses the exact Hessian of the
regularized energy, applied matrix-free with the same staggered stencil, and
is solved by plain CG; an Armijo backtracking search on the energy damps the
step.  For p = 2 the energy is quadratic and the one Newton step is linear CG
on the standard 5-point scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGrid, NonConvergence, ShapeMismatch
from .field_grid import GridField, GridGeometry

__all__ = [
    "SystemParams",
    "DirichletProblem",
    "SolveResult",
    "staggered_gradient",
    "weak_residual",
    "manufacture",
    "solve",
]


@dataclass(frozen=True)
class SystemParams:
    """Solver controls: exponent p > 1, regularization schedule, tolerances.

    ``tol`` is the relative energy-gradient tolerance of the final stage and
    the bound on its weak residual; ``max_iters`` bounds the Hessian-vector
    products (inner CG iterations) over all stages.  The ε-continuation runs
    geometrically from ``eps_start`` down to ``eps_final`` (skipped entirely
    for p = 2, where ε only shifts the energy by a constant).
    """

    p: float
    tol: float = 1e-8
    max_iters: int = 60_000
    eps_start: float = 1e-1
    eps_final: float = 1e-6

    def __post_init__(self):
        if not (self.p > 1):
            raise ValueError(f"p-Laplace exponent must satisfy p > 1, got {self.p}")
        if not (0 < self.eps_final <= self.eps_start):
            raise ValueError("need 0 < eps_final <= eps_start")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if not (self.max_iters >= 1):
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")

    def stages(self) -> list[float]:
        if self.p == 2.0:
            return [0.0]
        out = []
        eps = self.eps_start
        while eps > self.eps_final * (1 + 1e-12):
            out.append(eps)
            eps /= 10.0
        out.append(self.eps_final)
        return out


class DirichletProblem:
    """Datum F (matrix field N×n) plus Dirichlet boundary samples.

    ``boundary`` may be a GridField, an array of shape (N, c₁, c₂), a callable
    on the coordinate mesh, or a constant; only the outermost ring of cells is
    read from it.
    """

    def __init__(self, F: GridField, boundary=0.0):
        if F.kind != "matrix":
            raise ShapeMismatch(f"datum F must be a matrix field, got {F.kind!r}")
        geom = F.geometry
        if geom.dim != 2:
            raise DegenerateGrid("the solver is implemented for n = 2 grids")
        self.geometry = geom
        self.N = F.codomain
        self.F = F
        self.g = self._boundary_array(boundary, geom, self.N)

    @staticmethod
    def _boundary_array(boundary, geom: GridGeometry, N: int) -> np.ndarray:
        if isinstance(boundary, GridField):
            if boundary.geometry != geom or boundary.ncomp != N:
                raise ShapeMismatch("boundary field does not match the datum")
            return np.array(boundary.values)
        if callable(boundary):
            vals = np.asarray(boundary(*geom.center_mesh()), dtype=np.float64)
            if vals.shape == geom.cells and N == 1:
                vals = vals[np.newaxis]
            if vals.shape != (N,) + geom.cells:
                raise ShapeMismatch(
                    f"boundary callable returned shape {vals.shape}, "
                    f"expected {(N,) + geom.cells}"
                )
            return vals
        arr = np.asarray(boundary, dtype=np.float64)
        if arr.ndim == 0:
            return np.full((N,) + geom.cells, float(arr))
        if arr.shape != (N,) + geom.cells:
            raise ShapeMismatch(
                f"boundary array has shape {arr.shape}, expected {(N,) + geom.cells}"
            )
        return np.array(arr)


@dataclass
class SolveResult:
    u: GridField
    converged: bool
    iterations: int
    residual: float
    grad_norm: float
    energy_trace: list[float] = field(repr=False, default_factory=list)
    stage_log: list[dict] = field(repr=False, default_factory=list)


# ---------------------------------------------------------------------------
# discrete operators


def _as_components(u: GridField) -> np.ndarray:
    if u.kind == "matrix":
        raise ShapeMismatch("solution fields are scalar or vector, not matrix")
    return u.values


def staggered_gradient(u: GridField) -> np.ndarray:
    """Forward-difference gradient on the (c₁−1)×(c₂−1) collocation lattice.

    Returns an array of shape (N, 2, c₁−1, c₂−1); entry (c, d, i, j) is the
    forward difference of component c along axis d anchored at cell (i, j).
    """
    return _stag_values(_as_components(u), *u.geometry.spacing)


def _stag_values(v: np.ndarray, h1: float, h2: float) -> np.ndarray:
    """:func:`staggered_gradient` of raw samples of shape (N, c₁, c₂)."""
    g0 = (v[:, 1:, :] - v[:, :-1, :]) / h1
    g1 = (v[:, :, 1:] - v[:, :, :-1]) / h2
    return np.stack([g0[:, :, :-1], g1[:, :-1, :]], axis=1)


def _flux(g: np.ndarray, p: float) -> np.ndarray:
    """A(g) = |g|^{p−2} g with A(0) = 0, |·| the Frobenius magnitude."""
    mag = np.sqrt(np.einsum("cdij,cdij->ij", g, g))
    W = np.zeros_like(mag)
    nz = mag > 0
    W[nz] = mag[nz] ** (p - 2.0)
    return W[np.newaxis, np.newaxis] * g


def _lattice_datum(F: GridField, N: int) -> np.ndarray:
    c1, c2 = F.geometry.cells
    return F.values.reshape(N, 2, c1, c2)[:, :, : c1 - 1, : c2 - 1]


def _check_pair(u: GridField, F: GridField) -> int:
    if u.geometry != F.geometry:
        raise ShapeMismatch("u and F live on different grids")
    if F.kind != "matrix":
        raise ShapeMismatch(f"F must be a matrix field, got {F.kind!r}")
    N = u.ncomp
    if F.codomain != N:
        raise ShapeMismatch(
            f"F has codomain {F.codomain}, but u has {N} component(s)"
        )
    if u.geometry.dim != 2:
        raise DegenerateGrid("weak-form operators are implemented for n = 2")
    if min(u.geometry.cells) < 3:
        raise DegenerateGrid("need at least 3 cells per axis")
    return N


def _divergence_gap(T: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Backward divergence of a lattice flux gap, on the full cell grid.

    ``T`` has shape (N, 2, c₁−1, c₂−1); the result G has shape (N, c₁, c₂)
    with G[c,i,j] = |cell|·[(T₀[i−1,j] − T₀[i,j])/h₁ + (T₁[i,j−1] − T₁[i,j])/h₂]
    (out-of-lattice terms zero).  This is exactly ∂/∂u[c,i,j] of the lattice
    sum Σ T·∇u when T is held fixed.
    """
    N = T.shape[0]
    c1, c2 = geom.cells
    h1, h2 = geom.spacing
    P0 = np.zeros((N, c1 + 1, c2))
    P0[:, 1:c1, : c2 - 1] = T[:, 0]
    P1 = np.zeros((N, c1, c2 + 1))
    P1[:, : c1 - 1, 1:c2] = T[:, 1]
    out = (P0[:, :-1, :] - P0[:, 1:, :]) / h1 + (P1[:, :, :-1] - P1[:, :, 1:]) / h2
    return out * geom.cell_measure


def weak_residual(u: GridField, F: GridField, p: float) -> float:
    """Normalized sup of the discrete weak-form gap of the pair (u, F).

    For each interior cell and component, tests the identity
    Σ (|∇u|^{p−2}∇u − F)·∇φ = 0 with φ the cell-component indicator, and
    normalizes by the gradient mass Σ|∇φ|·|cell| of the test function.  Zero
    (to round-off) exactly when u is a discrete weak solution with datum F.
    """
    if not (p > 1):
        raise ValueError(f"need p > 1, got {p}")
    N = _check_pair(u, F)
    geom = u.geometry
    T = _flux(staggered_gradient(u), p) - _lattice_datum(F, N)
    G = _divergence_gap(T, geom)
    h1, h2 = geom.spacing
    norm = geom.cell_measure * (2.0 / h1 + 2.0 / h2)
    interior = G[:, 1:-1, 1:-1]
    if interior.size == 0:
        return 0.0
    return float(np.abs(interior).max() / norm)


def manufacture(u: GridField, p: float) -> GridField:
    """Datum F with F = |∇u|^{p−2}∇u at the gradient lattice, making u a
    discrete weak solution exactly.

    The lattice values fill cells (0..c₁−2, 0..c₂−2); the last row and column
    (never read by the weak form) are edge-replicated.  For p = 2 this is the
    staggered gradient itself.
    """
    if not (p > 1):
        raise ValueError(f"need p > 1, got {p}")
    if u.geometry.dim != 2:
        raise DegenerateGrid("manufacture is implemented for n = 2")
    geom = u.geometry
    N = u.ncomp
    A = _flux(staggered_gradient(u), p)
    full = np.pad(A, ((0, 0), (0, 0), (0, 1), (0, 1)), mode="edge")
    c1, c2 = geom.cells
    return GridField(geom, full.reshape(N * 2, c1, c2), "matrix", codomain=N)


# ---------------------------------------------------------------------------
# energy minimization


def _energy_and_grad(v: np.ndarray, Fl: np.ndarray, p: float, eps: float,
                     geom: GridGeometry, ring: np.ndarray):
    """Energy J, gradient G (zero on the ring), g = Dv and s² = ε² + |g|²."""
    g = _stag_values(v, *geom.spacing)
    s2 = eps * eps + np.einsum("cdij,cdij->ij", g, g)
    J = geom.cell_measure * float(
        (s2 ** (p / 2.0)).sum() / p - np.einsum("cdij,cdij->", Fl, g)
    )
    G = _divergence_gap(s2 ** ((p - 2.0) / 2.0) * g - Fl, geom)
    G[:, ring] = 0.0
    return J, G, g, s2


def _hessian_product(g: np.ndarray, s2: np.ndarray, p: float,
                     geom: GridGeometry, ring: np.ndarray):
    """d ↦ Dᵀ[W·I + (p−2)s^{p−4} g⊗g]D d, W = s^{p−2}: the exact Hessian of the
    energy at g = Dv, matrix-free.  g⊗g contracts over components and
    directions together, so a system's components (N > 1) stay coupled."""
    h1, h2 = geom.spacing
    W = s2 ** ((p - 2.0) / 2.0)
    C = (p - 2.0) * s2 ** ((p - 4.0) / 2.0) if p != 2.0 else None

    def apply(d: np.ndarray) -> np.ndarray:
        gd = _stag_values(d, h1, h2)
        T = W * gd
        if C is not None:
            T += (C * np.einsum("cdij,cdij->ij", g, gd)) * g
        out = _divergence_gap(T, geom)
        out[:, ring] = 0.0
        return out

    return apply


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum's own loop: a BLAS dot spins up threads that cost more than the
    # product at these sizes
    return float(np.einsum("cij,cij->", a, b))


def _cg(apply, b: np.ndarray, atol: float, budget: int):
    """Plain conjugate gradients for H x = b from x = 0, stopped once
    ‖b − Hx‖ ≤ atol or after ``budget`` products; returns (x, products)."""
    x = np.zeros_like(b)
    r = b.copy()
    d = r.copy()
    rr = _dot(r, r)
    k = 0
    while k < budget and math.sqrt(rr) > atol:
        Hd = apply(d)
        k += 1
        a = rr / _dot(d, Hd)
        x += a * d
        r -= a * Hd
        rr, rr_old = _dot(r, r), rr
        d = r + (rr / rr_old) * d
    return x, k


def _newton_stage(v, Fl, p, eps, geom, ring, gtol, scale, budget, trace, accept):
    """Damped inexact Newton on the ε-regularized energy, updating v in place.

    Stops once ‖G‖ ≤ gtol and ``accept(v)`` hold, when the budget of
    Hessian-vector products is spent, or when no step decreases the energy.
    Returns (products used, Newton steps taken, ‖G‖).
    """
    J, G, g, s2 = _energy_and_grad(v, Fl, p, eps, geom, ring)
    trace.append(J)
    gnorm = math.sqrt(_dot(G, G))
    used = steps = 0
    while used < budget and not (gnorm <= gtol and accept(v)):
        # forcing term η = min(0.1, ‖G‖/scale); the p = 2 energy is quadratic,
        # so its single Newton system is solved to the gradient tolerance
        atol = min(0.1, gnorm / scale) * gnorm
        if p == 2.0:
            atol = min(atol, gtol)
        s, k = _cg(_hessian_product(g, s2, p, geom, ring), -G, atol, budget - used)
        used += k
        slope = _dot(G, s)
        if not slope < 0:
            break
        t = 1.0
        for _ in range(40):
            trial_v = v + t * s
            trial = _energy_and_grad(trial_v, Fl, p, eps, geom, ring)
            trial_norm = math.sqrt(_dot(trial[1], trial[1]))
            # near the minimizer energy decreases fall below round-off, so a
            # full step that halves ‖G‖ is accepted on the gradient alone
            if (trial[0] <= J + 1e-4 * t * slope
                    or (t == 1.0 and trial_norm <= 0.5 * gnorm)):
                break
            t *= 0.5
        else:
            break  # numerically stationary: no step decreases the energy
        if gnorm <= gtol and not trial_norm <= 0.5 * gnorm:
            break  # past the tolerance, ‖G‖ sits at its round-off floor
        v[...] = trial_v
        J, G, g, s2 = trial
        gnorm = trial_norm
        steps += 1
        trace.append(J)
    return used, steps, gnorm


def solve(problem: DirichletProblem, params: SystemParams) -> SolveResult:
    """Minimize the regularized energy over interior samples.

    The boundary ring carries the Dirichlet data exactly throughout.  Each
    ε-stage runs damped Newton until the gradient falls below max(1e-5,
    ``tol``) relative to the initial one; the final stage runs until it falls
    below ``tol`` and the weak residual (unregularized flux) is at most
    ``tol``.  ``iterations`` counts Hessian-vector products, the budget of
    ``max_iters``.  Raises :class:`NonConvergence` if the residual ends above
    tolerance.
    """
    geom = problem.geometry
    if min(geom.cells) < 16:
        raise DegenerateGrid(
            f"solver needs at least 16 cells per axis, got {geom.cells}"
        )
    N = problem.N
    p = params.p
    Fl = _lattice_datum(problem.F, N)
    ring = np.zeros(geom.cells, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True

    v = np.array(problem.g)
    interior = ~ring
    for c in range(N):
        v[c][interior] = problem.g[c][ring].mean()

    kind = "scalar" if N == 1 else "vector"
    stages = params.stages()
    budget = params.max_iters
    used = 0
    trace: list[float] = []
    log: list[dict] = []

    _, G0, _, _ = _energy_and_grad(v, Fl, p, stages[0], geom, ring)
    scale = math.sqrt(_dot(G0, G0)) or 1.0

    for k, eps in enumerate(stages):
        last = k == len(stages) - 1
        rel = params.tol if last else max(params.tol, 1e-5)
        # GridField freezes the array it wraps, so the gate checks a copy
        it, steps, gnorm = _newton_stage(
            v, Fl, p, eps, geom, ring, rel * scale, scale, budget - used, trace,
            lambda w: not last or weak_residual(
                GridField(geom, w.copy(), kind, codomain=N), problem.F, p
            ) <= params.tol,
        )
        used += it
        log.append({"eps": eps, "iterations": it, "newton_steps": steps,
                    "grad_norm": gnorm})
        if used >= budget:
            break

    u = GridField(geom, v, kind, codomain=N)
    res = weak_residual(u, problem.F, p)
    if res > params.tol:
        raise NonConvergence(
            f"residual {res:.3e} above tolerance {params.tol:.1e} "
            f"after {used} iterations",
            residual=res,
        )
    return SolveResult(
        u=u,
        converged=True,
        iterations=used,
        residual=res,
        grad_norm=gnorm,
        energy_trace=trace,
        stage_log=log,
    )
