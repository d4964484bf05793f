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

For p = 2 the energy is quadratic and its Hessian on the interior cells is
|cell| times the 5-point Dirichlet Laplacian, which the type-I discrete sine
transform diagonalizes (also for h₁ ≠ h₂): the minimizer is one direct
fast-Poisson solve (Buzbee–Golub–Nielson, SIAM J. Numer. Anal. 1970), with
the Dirichlet ring entering through the energy gradient; the transform is a
numpy DST-I, so the solver imports no scipy.  For p ≠ 2, minimization is a
damped inexact Newton method run through a decreasing-ε continuation, started
by the same fast-Poisson step towards the discrete harmonic extension of the
boundary ring.  Each Newton system uses the exact Hessian of the regularized
energy, applied matrix-free, and is solved by conjugate gradients
preconditioned with its exact diagonal (Jacobi), which follows the weight
s^{p−2} across the decades it spans where ∇u vanishes; an Armijo backtracking
search on the energy damps the step.  CG stops at the forcing tolerance
min(0.1, ‖G‖/‖G₀‖)·‖G‖ of the energy gradient G (G₀ the gradient after the
warm start), floored at half the stage's gradient tolerance so that no Newton
system is solved further than the stage needs (the safeguard against
oversolving of Eisenstat–Walker, SIAM J. Sci. Comput. 1996); once ‖G‖ is
below that tolerance and only the weak-residual gate is unmet, it stops at
0.1·‖G‖.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGrid, InadmissibleParams, NonConvergence, ShapeMismatch
from .field_grid import GridField, GridGeometry

__all__ = [
    "SystemParams",
    "DirichletProblem",
    "SolveResult",
    "weak_residual",
    "manufacture",
    "solve",
]


def _check_p(p: float, name: str = "p") -> None:
    """The range 1 < p < ∞ of every exponent of the system (p = ∞ has no
    conjugate p'); outside it, :class:`InadmissibleParams` names ``name``."""
    if not 1 < p < math.inf:
        raise InadmissibleParams(f"{name} must satisfy 1 < p < inf, got {p}")


def _check_tol(tol: float, name: str = "tol") -> None:
    """The range 0 < tol < ∞ of every tolerance (a nan or inf one accepts any
    iterate or pair); outside it, :class:`InadmissibleParams` names ``name``."""
    if not 0 < tol < math.inf:
        raise InadmissibleParams(f"{name} must be > 0 and finite, got {tol}")


# first and last ε of the nominal continuation schedule
_EPS_START = 1e-1
_EPS_FINAL = 1e-6


@dataclass(frozen=True)
class SystemParams:
    """Solver controls: exponent 1 < p < ∞, regularization schedule, tolerances.

    ``tol`` is the relative energy-gradient tolerance of the final stage and
    the bound on its weak residual; ``max_iters`` bounds the Hessian-vector
    products (inner CG iterations) over all stages.  The ε-continuation runs
    geometrically from ε = 1e-1 down to 1e-6; while the weak residual of the
    last stage stays above ``tol``, ``solve`` divides ε by 10 again, down to
    ε = 1e-16.  For p = 2 there is no continuation (ε only shifts the energy
    by a constant): the solve is direct and uses none of the ``max_iters``
    budget.
    """

    p: float
    tol: float = 1e-8
    max_iters: int = 60_000

    def __post_init__(self):
        _check_p(self.p)
        _check_tol(self.tol)
        if not (self.max_iters >= 1):
            raise InadmissibleParams(f"max_iters must be at least 1, got {self.max_iters}")

    def stages(self) -> list[float]:
        """Nominal ε schedule of the p ≠ 2 continuation."""
        out = []
        eps = _EPS_START
        while eps > _EPS_FINAL * (1 + 1e-12):
            out.append(eps)
            eps /= 10.0
        out.append(_EPS_FINAL)
        return out


class DirichletProblem:
    """Datum F (matrix field N×n) plus Dirichlet boundary samples.

    ``boundary`` is a GridField with N components on the datum's grid, or a
    constant; only the outermost ring of cells is read from it.
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
        return np.full((N,) + geom.cells, float(boundary))


@dataclass
class SolveResult:
    u: GridField
    iterations: int
    residual: float
    grad_norm: float
    # regularized energy of u in its last stage
    energy: float
    stage_log: list[dict] = field(repr=False, default_factory=list)


# ---------------------------------------------------------------------------
# discrete operators


def _as_components(u: GridField) -> np.ndarray:
    if u.kind == "matrix":
        raise ShapeMismatch("solution fields are scalar or vector, not matrix")
    return u.values


def _stag_values(v: np.ndarray, h1: float, h2: float) -> np.ndarray:
    """Forward-difference gradient of samples v of shape (N, c₁, c₂) on the
    (c₁−1)×(c₂−1) collocation lattice.

    Returns an array of shape (N, 2, c₁−1, c₂−1); entry (c, d, i, j) is the
    forward difference of component c along axis d anchored at cell (i, j).
    """
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
    _check_p(p)
    N = _check_pair(u, F)
    geom = u.geometry
    T = _flux(_stag_values(_as_components(u), *geom.spacing), p) - _lattice_datum(F, N)
    G = _divergence_gap(T, geom)
    h1, h2 = geom.spacing
    norm = geom.cell_measure * (2.0 / h1 + 2.0 / h2)
    return float(np.abs(G[:, 1:-1, 1:-1]).max() / norm)


def manufacture(u: GridField, p: float) -> GridField:
    """Datum F with F = |∇u|^{p−2}∇u at the gradient lattice, making u a
    discrete weak solution exactly.

    The lattice values fill cells (0..c₁−2, 0..c₂−2); the last row and column
    (never read by the weak form) are edge-replicated.  For p = 2 this is the
    staggered gradient itself.
    """
    _check_p(p)
    if u.geometry.dim != 2:
        raise DegenerateGrid("manufacture is implemented for n = 2")
    geom = u.geometry
    N = u.ncomp
    A = _flux(_stag_values(_as_components(u), *geom.spacing), p)
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


def _hessian_product(g: np.ndarray, s2: np.ndarray, p: float, geom: GridGeometry):
    """Exact Hessian Dᵀ[W·I + (p−2)s^{p−4} g⊗g]D·|cell| of the energy at g = Dv,
    W = s^{p−2}, as (apply, diag): a matrix-free product on the interior and
    its diagonal (1 on the ring, where the product is 0).

    g⊗g contracts over components and directions together, so a system's
    components (N > 1) stay coupled.  With raw forward differences Δ_d of the
    argument, the lattice flux is S_d = A_d·Δ_d + B·(Σ q·Δ)·q_d, built from
    A_d = W·|cell|/h_d², B = (p−2)·s^{p−4}·|cell| and q_d = g_d/h_d, and the
    product at an interior cell is S₀[i−1,j] − S₀[i,j] + S₁[i,j−1] − S₁[i,j].

    ``apply`` works on flat row-major indices, so every array operation is
    contiguous: lattice point (i, j) is k = i·c₂ + j, its differences are
    d[k + c₂] − d[k] and d[k + 1] − d[k] for k < (c₁−1)·c₂, and the
    coefficients are zero in the last column, where k + 1 wraps to the next
    row.  It allocates nothing per product and returns one reused buffer,
    overwritten by the next call.
    """
    N = g.shape[0]
    c1, c2 = geom.cells
    K = (c1 - 1) * c2
    h = np.array(geom.spacing)[:, np.newaxis, np.newaxis]
    A = (geom.cell_measure / h**2) * s2 ** ((p - 2.0) / 2.0)
    B = ((p - 2.0) * geom.cell_measure) * s2 ** ((p - 4.0) / 2.0)
    q = g / h

    # diagonal: the unit vector at (c, i, j) has differences (−1, −1) at
    # lattice point (i, j), +1 along axis 0 at (i−1, j), +1 along axis 1 at (i, j−1)
    P0 = A[0] + B * q[:, 0] ** 2
    P1 = A[1] + B * q[:, 1] ** 2
    P01 = A[0] + A[1] + B * (q[:, 0] + q[:, 1]) ** 2
    diag = np.ones((N,) + geom.cells)
    diag[:, 1:-1, 1:-1] = P0[:, :-1, 1:] + P1[:, 1:, :-1] + P01[:, 1:, 1:]

    def flat(a: np.ndarray) -> np.ndarray:
        out = np.zeros(a.shape[:-2] + (c1 - 1, c2))
        out[..., :-1] = a
        return out.reshape(a.shape[:-2] + (K,))

    A_k, q_k, Bq_k = flat(A), flat(q), flat(B * q)
    out = np.zeros((N,) + geom.cells)
    # rows 1 … c₁−2; their two ring cells are reset after each product
    inner = out.reshape(N, -1)[:, c2:K]
    delta, S, BqD = np.empty((3, N, 2, K))
    qsum = np.empty(K)

    def apply(d: np.ndarray) -> np.ndarray:
        d = d.reshape(N, -1)
        np.subtract(d[:, c2:], d[:, :K], out=delta[:, 0])
        np.subtract(d[:, 1:K + 1], d[:, :K], out=delta[:, 1])
        np.multiply(A_k, delta, out=S)
        # S += B·(Σ q·Δ)·q, without temporaries
        np.multiply(Bq_k, delta, out=BqD)
        np.sum(BqD, axis=(0, 1), out=qsum)
        np.multiply(qsum, q_k, out=BqD)
        np.add(S, BqD, out=S)
        np.subtract(S[:, 0, :K - c2], S[:, 0, c2:], out=inner)
        np.add(inner, S[:, 1, c2 - 1:K - 1], out=inner)
        np.subtract(inner, S[:, 1, c2:], out=inner)
        out[:, :, 0] = out[:, :, -1] = 0.0
        return out

    return apply, diag


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # einsum's own loop, not a BLAS dot.  Timed inside bumps p = 3 solves on a
    # 2-core machine, np.vdot takes 2.9 µs per dot at 64² against einsum's
    # 6.5 µs; from 128² (above ~10⁴ elements) OpenBLAS runs it on threads that
    # then spin beside the Hessian products: that solve takes 0.70 s wall and
    # 1.36 s CPU with vdot, against 0.53–0.59 s of both with einsum
    return float(np.einsum("cij,cij->", a, b))


def _pcg(hessian, b: np.ndarray, atol: float, budget: int):
    """Jacobi-preconditioned conjugate gradients for H x = b from x = 0, with
    ``hessian = (apply, diag)``; stopped once the true residual ‖b − Hx‖ is at
    most ``atol`` or after ``budget`` products.  Returns (x, products)."""
    apply, diag = hessian
    inv = 1.0 / diag
    x = np.zeros_like(b)
    r = b.copy()
    z = inv * r
    d = z.copy()
    step = np.empty_like(b)
    rz = _dot(r, z)
    k = 0
    while k < budget and math.sqrt(_dot(r, r)) > atol:
        Hd = apply(d)
        k += 1
        a = rz / _dot(d, Hd)
        x += np.multiply(a, d, out=step)
        r -= np.multiply(a, Hd, out=step)
        np.multiply(inv, r, out=z)
        rz, rz_old = _dot(r, z), rz
        d *= rz / rz_old
        d += z
    return x, k


# values of the odd extensions that one DST-I block transforms at a time
_DST_BLOCK = 32768


def _dst(a: np.ndarray) -> np.ndarray:
    """Orthonormal type-I DST over the last two axes, its own inverse.  Each
    pass transforms the last axis (length m) and swaps the last two: the real
    FFT of the odd extension (0, a, 0, −a reversed) has imaginary part
    −2·Σⱼ aⱼ sin(πjk/(m + 1)) at k = 1 … m.

    The rows pass through one reused extension buffer in blocks of at most
    ``_DST_BLOCK`` values (256 kB), which stay in cache; the FFT of each row
    is the same as on the whole array, so the values are too.  At 254² a
    forward-and-back pair takes 3.9 ms against 5.9 ms with one extension of
    every row at once (medians of 120 pairs, 2-core VM)."""
    for _ in range(2):
        m = a.shape[-1]
        rows = np.ascontiguousarray(a).reshape(-1, m)
        out = np.empty_like(rows)
        block = min(len(rows), max(1, _DST_BLOCK // (2 * m + 2)))
        ext = np.zeros((block, 2 * m + 2))
        scale = -math.sqrt(0.5 / (m + 1))
        for start in range(0, len(rows), block):
            chunk = rows[start:start + block]
            e = ext[:len(chunk)]
            e[:, 1:m + 1] = chunk
            np.negative(chunk[:, ::-1], out=e[:, m + 2:])
            np.multiply(np.fft.rfft(e)[:, 1:m + 1].imag, scale,
                        out=out[start:start + block])
        a = out.reshape(a.shape).swapaxes(-1, -2)
    return a


def _poisson_step(v, Fl, geom, ring, t=1.0):
    """Newton step v ← v − t·H⁻¹G of the p = 2 energy, updating v in place;
    exact for t = 1, and for any t it leaves the gradient (1 − t)·G.

    H = |cell|·L on the interior, L the 5-point Dirichlet Laplacian; DST-I
    diagonalizes L with eigenvalues λ₁ₖ + λ₂ₗ, where
    λ_{d,k} = (2 − 2cos(πk/(c_d − 1)))/h_d².  All components are transformed
    at once.
    """
    _, G, _, _ = _energy_and_grad(v, Fl, 2.0, 0.0, geom, ring)
    lam = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, c - 1) / (c - 1))) / h**2
           for c, h in zip(geom.cells, geom.spacing)]
    denom = geom.cell_measure * (lam[0][:, np.newaxis] + lam[1][np.newaxis, :])
    v[:, 1:-1, 1:-1] -= t * _dst(_dst(G[:, 1:-1, 1:-1]) / denom)


def _newton_stage(v, Fl, p, eps, geom, ring, gtol, scale, budget, accept):
    """Damped inexact Newton on the ε-regularized energy, updating v in place.

    Stops once ‖G‖ ≤ gtol and ``accept(v)`` hold, when the budget of
    Hessian-vector products is spent, or when no step decreases the energy.
    Each Newton system is solved by CG to the residual
    max(min(0.1, ‖G‖/scale)·‖G‖, gtol/2) while ‖G‖ > gtol, and to 0.1·‖G‖
    once only ``accept`` is unmet.  Returns (products used, Newton steps
    taken, energy, ‖G‖).
    """
    J, G, g, s2 = _energy_and_grad(v, Fl, p, eps, geom, ring)
    gnorm = math.sqrt(_dot(G, G))
    used = steps = 0
    while used < budget and not (gnorm <= gtol and accept(v)):
        # forcing term η = min(0.1, ‖G‖/scale), floored so that no CG solve
        # goes below half the stage tolerance; past gtol, where only the
        # residual gate is unmet, η = 0.1 (and the step must still halve ‖G‖)
        if gnorm > gtol:
            atol = max(min(0.1, gnorm / scale) * gnorm, 0.5 * gtol)
        else:
            atol = 0.1 * gnorm
        s, k = _pcg(_hessian_product(g, s2, p, geom), -G, atol, budget - used)
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
            # a step that leaves the computed energy unchanged is no decrease:
            # accepting it lets a stage spin at the energy's round-off floor
            if (trial[0] < J and trial[0] <= J + 1e-4 * t * slope
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
    return used, steps, J, gnorm


# smallest ε of the continuation, reached only while the residual gate fails
_EPS_FLOOR = 1e-16
# fraction of its Laplace gradient that the harmonic warm start leaves
_WARM_RTOL = 0.1


def solve(problem: DirichletProblem, params: SystemParams) -> SolveResult:
    """Minimize the regularized energy over interior samples.

    The boundary ring carries the Dirichlet data exactly throughout.  For
    p = 2 one direct DST-I solve minimizes the energy; a second one refines
    the result if its weak residual is above ``tol``, and ``iterations`` is 0.
    For p ≠ 2 the interior starts at the mean of the ring and takes a 0.9
    DST-I step towards the ring's discrete harmonic extension, which leaves a
    tenth of its Laplace gradient (no change for a constant ring).  Each
    ε-stage then runs damped Newton until the gradient falls below
    max(1e-5, ``tol``) relative to the gradient after the warm start; the
    final stage runs until it falls below ``tol`` and the weak residual
    (unregularized flux) is at most ``tol``.  While that residual stays above
    ``tol`` and budget remains, further stages follow at ε/10, down to
    ε = 1e-16.  ``iterations`` counts Hessian-vector products, the budget of
    ``max_iters``, summed over the stages in ``stage_log``.  Raises
    :class:`NonConvergence` if the residual ends above tolerance.
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
    budget = params.max_iters
    used = 0
    log: list[dict] = []
    measured = None  # the iterate the gate measured last, with residual res
    res = math.inf

    def gate(w: np.ndarray) -> bool:
        """Whether the weak residual of ``w`` is at most ``tol``; an iterate
        equal to the one measured last is not measured again."""
        nonlocal measured, res
        if measured is None or not np.array_equal(measured.values, w):
            # GridField freezes the array it wraps, so the gate keeps a copy
            measured = GridField(geom, w.copy(), kind, codomain=N)
            res = weak_residual(measured, problem.F, p)
        return res <= params.tol

    if p == 2.0:
        _poisson_step(v, Fl, geom, ring)
        steps = 1
        if not gate(v):
            _poisson_step(v, Fl, geom, ring)
            steps = 2
        energy, G, _, _ = _energy_and_grad(v, Fl, 2.0, 0.0, geom, ring)
        gnorm = math.sqrt(_dot(G, G))
        log.append({"eps": 0.0, "iterations": 0, "newton_steps": steps,
                    "grad_norm": gnorm})
    else:
        # warm start: a step 1 − _WARM_RTOL towards the harmonic extension of
        # the ring (F = 0); nothing moves for a constant ring.  It is inexact
        # on purpose: the stage tolerances are relative to ‖G₀‖ after it, and
        # an exact start shrinks ‖G₀‖ and so tightens all of them (p = 3 on
        # the `solve` workload datum: median 429.5 → 494.5 HVPs)
        _poisson_step(v, np.zeros_like(Fl), geom, ring, 1.0 - _WARM_RTOL)
        stages = params.stages()
        _, G0, _, _ = _energy_and_grad(v, Fl, p, stages[0], geom, ring)
        gnorm = math.sqrt(_dot(G0, G0))
        scale = gnorm or 1.0
        k = 0
        while used < budget:
            eps = stages[k] if k < len(stages) else eps / 10.0
            last = k >= len(stages) - 1
            rel = params.tol if last else max(params.tol, 1e-5)
            it, steps, energy, gnorm = _newton_stage(
                v, Fl, p, eps, geom, ring, rel * scale, scale, budget - used,
                gate if last else (lambda w: True),
            )
            used += it
            log.append({"eps": eps, "iterations": it, "newton_steps": steps,
                        "grad_norm": gnorm})
            # past _EPS_FINAL, ε keeps falling while the residual gate fails;
            # the slack absorbs the round-off of repeated division by 10
            if last and (gate(v) or eps / 10.0 < _EPS_FLOOR * (1 - 1e-12)):
                break
            k += 1

    gate(v)
    if res > params.tol:
        raise NonConvergence(
            f"residual {res:.3e} above tolerance {params.tol:.1e} "
            f"after {used} iterations",
            residual=res,
        )
    return SolveResult(
        u=GridField(geom, v, kind, codomain=N),
        iterations=used,
        residual=res,
        grad_norm=gnorm,
        energy=energy,
        stage_log=log,
    )
