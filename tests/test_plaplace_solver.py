import time

import numpy as np
import pytest
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from wulff_lab.errors import DegenerateGrid, NonConvergence
from wulff_lab.field_grid import GridField, GridGeometry
from wulff_lab.plaplace_solver import (
    DirichletProblem,
    SystemParams,
    _energy_and_grad,
    _hessian_product,
    manufacture,
    solve,
    staggered_gradient,
    weak_residual,
)


def unit_grid(cells):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def trig_field(geom):
    return GridField.from_function(
        geom, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )


def staggered_poisson_datum(geom):
    """F = grad(sin pi x sin pi y) sampled at the staggered midpoints, which
    keeps the discrete manufactured error at O(h^2)."""
    h1, h2 = geom.spacing
    mesh = geom.center_mesh()
    F1 = np.pi * np.cos(np.pi * (mesh[0] + h1 / 2)) * np.sin(np.pi * mesh[1])
    F2 = np.pi * np.sin(np.pi * mesh[0]) * np.cos(np.pi * (mesh[1] + h2 / 2))
    return GridField(geom, np.stack([F1, F2]), "matrix", codomain=1)


def test_params_validation_and_stages():
    with pytest.raises(Exception):
        SystemParams(p=1.0)
    assert SystemParams(p=2.0).stages() == [0.0]
    stages = SystemParams(p=3.0, eps_start=1e-1, eps_final=1e-5).stages()
    assert stages[0] == pytest.approx(1e-1)
    assert stages[-1] == pytest.approx(1e-5)
    assert all(a / b == pytest.approx(10.0) for a, b in zip(stages, stages[1:]))


def test_problem_requires_two_dimensions():
    geom = GridGeometry((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    F = GridField(geom, np.zeros((3, 8, 8, 8)), "matrix", codomain=1)
    with pytest.raises(DegenerateGrid):
        DirichletProblem(F)


def test_manufactured_pair_has_zero_residual():
    geom = unit_grid(48)
    u = trig_field(geom)
    for p in (1.5, 2.0, 3.0):
        F = manufacture(u, p)
        assert weak_residual(u, F, p) < 1e-12


def test_staggered_gradient_exact_on_affine():
    geom = unit_grid(16)
    u = GridField.from_function(geom, lambda x, y: 3 * x - 2 * y + 1)
    G = staggered_gradient(u)
    assert np.allclose(G[0, 0], 3.0)
    assert np.allclose(G[0, 1], -2.0)


def test_zero_datum_zero_boundary_gives_zero():
    geom = unit_grid(24)
    F = GridField(geom, np.zeros((2, 24, 24)), "matrix", codomain=1)
    result = solve(DirichletProblem(F, 0.0), SystemParams(p=2.0, tol=1e-12))
    assert result.converged
    assert np.abs(result.u.values).max() < 1e-10


def test_constant_boundary_is_exact_on_ring():
    geom = unit_grid(24)
    F = GridField(geom, np.zeros((2, 24, 24)), "matrix", codomain=1)
    result = solve(DirichletProblem(F, 2.5), SystemParams(p=2.0, tol=1e-12))
    vals = result.u.values[0]
    assert np.allclose(vals[0, :], 2.5) and np.allclose(vals[-1, :], 2.5)
    assert np.allclose(vals[:, 0], 2.5) and np.allclose(vals[:, -1], 2.5)
    # constant extends to the interior (zero datum, constant data)
    assert np.allclose(vals, 2.5, atol=1e-9)


def _direct_p2_solution(geom, F, boundary_vals):
    """Sparse direct solve of the same p = 2 normal equations the minimizer
    targets: for each interior cell the forward-difference Laplacian balance
    sum((grad u - F) . grad phi_cell) = 0."""
    c1, c2 = geom.cells
    h1, h2 = geom.spacing
    meas = geom.cell_measure
    interior = [(i, j) for i in range(1, c1 - 1) for j in range(1, c2 - 1)]
    index = {ij: k for k, ij in enumerate(interior)}
    A = lil_matrix((len(interior), len(interior)))
    b = np.zeros(len(interior))
    F1, F2 = F.values[0], F.values[1]

    def u_known(i, j):
        return boundary_vals[i, j] if (i, j) not in index else None

    for (i, j), k in index.items():
        # d/du_ij of 0.5*sum_cells |grad u - F|^2 * meas over the staggered
        # lattice; each cell (a,b) contributes ((u[a+1,b]-u[a,b])/h1 - F1[a,b])^2
        # + ((u[a,b+1]-u[a,b])/h2 - F2[a,b])^2
        diag = 0.0
        rhs = 0.0
        for (a, bb, comp, sign, other) in [
            (i, j, 1, -1.0, (i + 1, j)),
            (i - 1, j, 1, 1.0, (i - 1, j)),
            (i, j, 2, -1.0, (i, j + 1)),
            (i, j - 1, 2, 1.0, (i, j - 1)),
        ]:
            h = h1 if comp == 1 else h2
            Fc = F1[a, bb] if comp == 1 else F2[a, bb]
            # term: ((u_other - u_ij)*sign/h - Fc)^2 ... derivative wrt u_ij
            diag += 1.0 / h**2
            known = u_known(*other)
            if known is None:
                A[k, index[other]] -= 1.0 / h**2
            else:
                rhs += known / h**2
            rhs += sign * Fc / h
        A[k, k] = diag
        b[k] = rhs
    sol = spsolve(A.tocsr(), b)
    out = boundary_vals.copy()
    for (i, j), k in index.items():
        out[i, j] = sol[k]
    return out


def test_p2_matches_sparse_direct_oracle():
    geom = unit_grid(20)
    F = staggered_poisson_datum(geom)
    u_b = trig_field(geom)
    result = solve(DirichletProblem(F, u_b), SystemParams(p=2.0, tol=1e-12))
    direct = _direct_p2_solution(geom, F, u_b.values[0].copy())
    assert np.abs(result.u.values[0] - direct).max() < 1e-8


def test_p2_second_order_convergence():
    errs = {}
    for cells in (32, 64):
        geom = unit_grid(cells)
        F = staggered_poisson_datum(geom)
        u_exact = trig_field(geom)
        result = solve(DirichletProblem(F, u_exact), SystemParams(p=2.0, tol=1e-11))
        assert result.converged
        errs[cells] = np.abs(result.u.values - u_exact.values).max()
    rate = np.log2(errs[32] / errs[64])
    assert rate == pytest.approx(2.0, abs=0.3)


def test_solver_matches_manufactured_p_not_two():
    # gradient bounded away from zero keeps the p != 2 energy non-degenerate
    geom = unit_grid(20)
    u = GridField.from_function(
        geom,
        lambda x, y: 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y) + 2 * x + y,
    )
    for p in (1.5, 3.0):
        F = manufacture(u, p)
        result = solve(DirichletProblem(F, u), SystemParams(p=p, tol=2e-6))
        # the manufactured pair is the discrete minimizer; the solver must
        # land on it to the solve tolerance
        assert result.converged
        assert np.abs(result.u.values - u.values).max() < 1e-5
        assert weak_residual(result.u, F, p) < 1e-5


def test_nonconvergence_raises_with_residual():
    geom = unit_grid(24)
    F = staggered_poisson_datum(geom)
    with pytest.raises(NonConvergence) as info:
        solve(DirichletProblem(F, 0.0), SystemParams(p=2.0, tol=1e-14, max_iters=2))
    assert info.value.residual is not None


def test_solve_requires_minimum_cells():
    geom = unit_grid(8)
    F = GridField(geom, np.zeros((2, 8, 8)), "matrix", codomain=1)
    with pytest.raises(Exception):
        solve(DirichletProblem(F, 0.0), SystemParams(p=2.0))


def test_vector_system_components_decouple_for_p2():
    # for p = 2 the system decouples; solving a 2-component problem must give
    # each component the scalar solution of its own datum column
    geom = unit_grid(20)
    F_scalar = staggered_poisson_datum(geom)
    u_b = trig_field(geom)
    stacked = np.concatenate([F_scalar.values, 0.5 * F_scalar.values])
    F2 = GridField(geom, stacked, "matrix", codomain=2)
    b2 = GridField(geom, np.stack([u_b.values[0], 0.5 * u_b.values[0]]),
                   "vector", codomain=2)
    res2 = solve(DirichletProblem(F2, b2), SystemParams(p=2.0, tol=1e-12))
    res1 = solve(DirichletProblem(F_scalar, u_b), SystemParams(p=2.0, tol=1e-12))
    assert np.abs(res2.u.values[0] - res1.u.values[0]).max() < 1e-8
    assert np.abs(res2.u.values[1] - 0.5 * res1.u.values[0]).max() < 1e-8


def test_degenerate_p3_zero_boundary_at_default_tol():
    # grad u vanishes at the centre of the square, where the p = 3 flux
    # degenerates; the solve must still meet the default tolerance quickly
    geom = unit_grid(64)
    F = manufacture(trig_field(geom), 3.0)
    start = time.perf_counter()
    result = solve(DirichletProblem(F, 0.0), SystemParams(p=3.0))
    assert time.perf_counter() - start < 10.0
    assert weak_residual(result.u, F, 3.0) <= 1e-8


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_hessian_product_matches_gradient_difference(p, N):
    geom = unit_grid(16)
    ring = np.zeros(geom.cells, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    rng = np.random.default_rng([N, int(10 * p)])
    v = rng.standard_normal((N, 16, 16))
    d = rng.standard_normal((N, 16, 16))
    d[:, ring] = 0.0
    Fl = rng.standard_normal((N, 2, 15, 15))
    eps = 0.0 if p == 2.0 else 0.1
    _, _, g, s2 = _energy_and_grad(v, Fl, p, eps, geom, ring)
    Hd = _hessian_product(g, s2, p, geom, ring)(d)
    tau = 1e-5
    G_plus = _energy_and_grad(v + tau * d, Fl, p, eps, geom, ring)[1]
    G_minus = _energy_and_grad(v - tau * d, Fl, p, eps, geom, ring)[1]
    fd = (G_plus - G_minus) / (2 * tau)
    assert np.linalg.norm(Hd - fd) <= 1e-6 * np.linalg.norm(Hd)
