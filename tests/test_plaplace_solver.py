import importlib.util
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import lil_matrix
from scipy.sparse.linalg import spsolve

from wulff_lab.errors import DegenerateGrid, NonConvergence
from wulff_lab.field_grid import GridField, GridGeometry
from wulff_lab.inequality_lab import random_field
from wulff_lab.plaplace_solver import (
    DirichletProblem,
    SystemParams,
    _EPS_FINAL,
    _EPS_START,
    _divergence_gap,
    _dst,
    _energy_and_grad,
    _hessian_product,
    _poisson_step,
    _stag_values,
    manufacture,
    solve,
    weak_residual,
)


def unit_grid(cells):
    return GridGeometry((cells, cells), (1.0, 1.0), (0.0, 0.0))


def _ring(geom):
    ring = np.zeros(geom.cells, dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    return ring


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
    # an inf tolerance accepted the first iterate at any residual
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be > 0 and finite"):
            SystemParams(p=3.0, tol=tol)
    stages = SystemParams(p=3.0).stages()
    assert len(stages) == 6
    assert stages[0] == _EPS_START == 1e-1
    assert stages[-1] == _EPS_FINAL == 1e-6
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
    G = _stag_values(u.values, *geom.spacing)
    assert np.allclose(G[0, 0], 3.0)
    assert np.allclose(G[0, 1], -2.0)


def test_zero_datum_zero_boundary_gives_zero():
    geom = unit_grid(24)
    F = GridField(geom, np.zeros((2, 24, 24)), "matrix", codomain=1)
    result = solve(DirichletProblem(F, 0.0), SystemParams(p=2.0, tol=1e-12))
    assert result.residual <= 1e-12
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


# c − 1 = 31 and 37 are prime, the slow lengths of the DST-I
@pytest.mark.parametrize("cells, extent, N", [
    (32, (1.0, 0.6), 1),
    (38, (1.0, 1.0), 2),
], ids=["anisotropic-32", "system-38"])
def test_p2_dst_solve_matches_sparse_oracle(cells, extent, N):
    geom = GridGeometry((cells, cells), extent, (0.0, 0.0))
    F = random_field(geom, cells, "bumps", components=N, shape="matrix")
    trig = trig_field(geom).values[0]
    u_b = np.stack([(1.0 + c) * trig + 0.5 * c for c in range(N)])
    boundary = GridField(geom, u_b, "scalar" if N == 1 else "vector", codomain=N)
    result = solve(DirichletProblem(F, boundary), SystemParams(p=2.0))
    assert result.iterations == 0
    for c in range(N):
        Fc = GridField(geom, F.values[2 * c:2 * c + 2], "matrix", codomain=1)
        direct = _direct_p2_solution(geom, Fc, u_b[c].copy())
        assert np.abs(result.u.values[c] - direct).max() <= 1e-10 * np.abs(direct).max()


def test_p2_direct_solve_at_512_anisotropic():
    geom = GridGeometry((512, 512), (1.0, 0.6), (0.0, 0.0))
    F = random_field(geom, 3, "bumps", shape="matrix")
    result = solve(DirichletProblem(F, 0.0), SystemParams(p=2.0))
    assert result.iterations == 0
    assert result.residual <= 1e-12
    assert result.stage_log == [{"eps": 0.0, "iterations": 0, "newton_steps": 1,
                                 "grad_norm": result.grad_norm}]


def test_p2_second_order_convergence():
    errs = {}
    for cells in (32, 64):
        geom = unit_grid(cells)
        F = staggered_poisson_datum(geom)
        u_exact = trig_field(geom)
        result = solve(DirichletProblem(F, u_exact), SystemParams(p=2.0, tol=1e-11))
        assert result.residual <= 1e-11
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
        assert result.residual <= 2e-6
        assert np.abs(result.u.values - u.values).max() < 1e-5
        assert weak_residual(result.u, F, p) < 1e-5


@pytest.mark.parametrize("p, most", [(1.5, 1900), (3.0, 950)])
def test_bumps_zero_boundary_solves_without_oversolving(p, most):
    # the CG tolerance is floored at half the stage tolerance, so no Newton
    # system is solved further than its stage needs: 1545 and 815 products,
    # where a forcing term without the floor spent 2527 and 1128
    geom = unit_grid(64)
    F = random_field(geom, 3, "bumps", shape="matrix")
    result = solve(DirichletProblem(F, 0.0), SystemParams(p=p))
    assert result.residual <= 1e-8
    assert result.iterations <= most


@pytest.fixture(scope="module")
def solve_datum():
    """``solve_datum`` of perfbench/workloads.py, the benchmark's p ≠ 2 datum."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.solve_datum


@pytest.mark.parametrize("variant", [0, 3, 17, 30])
def test_benchmark_solve_datum_lands_on_the_manufactured_u(solve_datum, variant):
    # the benchmark's p = 3 and p = 1.5 solves: boundary = u, tol 2e-6
    geom = unit_grid(64)
    u = GridField(geom, solve_datum(variant))
    for p in (1.5, 3.0):
        F = manufacture(u, p)
        result = solve(DirichletProblem(F, u), SystemParams(p=p, tol=2e-6))
        assert result.residual <= 2e-6
        assert np.abs(result.u.values - u.values).max() <= 1e-5


def test_nonconvergence_raises_with_residual():
    geom = unit_grid(24)
    F = staggered_poisson_datum(geom)
    with pytest.raises(NonConvergence) as info:
        solve(DirichletProblem(F, 0.0), SystemParams(p=3.0, max_iters=2))
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


@pytest.mark.parametrize("cells", [32, 64])
def test_singular_p1_5_zero_boundary_at_default_tol(cells):
    # the residual of the unregularized flux falls like ε^{p−1}, so the solve
    # must continue below eps_final until the residual gate passes
    geom = unit_grid(cells)
    F = manufacture(trig_field(geom), 1.5)
    start = time.perf_counter()
    result = solve(DirichletProblem(F, 0.0), SystemParams(p=1.5))
    assert time.perf_counter() - start < 10.0
    assert weak_residual(result.u, F, 1.5) <= 1e-8
    assert result.stage_log[-1]["eps"] < _EPS_FINAL


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_hessian_product_matches_gradient_difference(p, N):
    geom = unit_grid(16)
    ring = _ring(geom)
    rng = np.random.default_rng([N, int(10 * p)])
    v = rng.standard_normal((N, 16, 16))
    d = rng.standard_normal((N, 16, 16))
    d[:, ring] = 0.0
    Fl = rng.standard_normal((N, 2, 15, 15))
    eps = 0.0 if p == 2.0 else 0.1
    _, _, g, s2 = _energy_and_grad(v, Fl, p, eps, geom, ring)
    apply, _ = _hessian_product(g, s2, p, geom)
    Hd = apply(d)
    tau = 1e-5
    G_plus = _energy_and_grad(v + tau * d, Fl, p, eps, geom, ring)[1]
    G_minus = _energy_and_grad(v - tau * d, Fl, p, eps, geom, ring)[1]
    fd = (G_plus - G_minus) / (2 * tau)
    assert np.linalg.norm(Hd - fd) <= 1e-6 * np.linalg.norm(Hd)


def _hessian_oracle(g, s2, p, geom, d):
    """Dᵀ[W·I + (p−2)s^{p−4} g⊗g]D d on the (N, 2, c₁−1, c₂−1) lattice, as the
    solver applied it before its flat-index product; ring cells set to 0."""
    gd = _stag_values(d, *geom.spacing)
    T = s2 ** ((p - 2.0) / 2.0) * gd
    T += ((p - 2.0) * s2 ** ((p - 4.0) / 2.0) * np.einsum("cdij,cdij->ij", g, gd)) * g
    out = _divergence_gap(T, geom)
    out[:, [0, -1], :] = 0.0
    out[:, :, [0, -1]] = 0.0
    return out


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_hessian_diagonal_and_product_match_unit_vectors_and_oracle(p, N):
    # h1 = 1/16 and h2 = 0.075
    geom = GridGeometry((16, 12), (1.0, 0.9), (0.0, 0.0))
    ring = _ring(geom)
    rng = np.random.default_rng([N, int(10 * p), 7])
    v = rng.standard_normal((N, 16, 12))
    Fl = rng.standard_normal((N, 2, 15, 11))
    eps = 0.0 if p == 2.0 else 0.1
    _, _, g, s2 = _energy_and_grad(v, Fl, p, eps, geom, ring)
    apply, diag = _hessian_product(g, s2, p, geom)
    assert diag.shape == (N, 16, 12)
    assert np.all(diag[:, ring] == 1.0)
    e = np.zeros((N, 16, 12))
    for c in range(N):
        for i in range(1, 15):
            for j in range(1, 11):
                e[c, i, j] = 1.0
                He = apply(e)
                e[c, i, j] = 0.0
                assert He[c, i, j] == pytest.approx(diag[c, i, j], rel=1e-13)
                assert np.all(He[:, ring] == 0.0)
    for _ in range(3):
        d = rng.standard_normal((N, 16, 12))
        d[:, ring] = 0.0
        expected = _hessian_oracle(g, s2, p, geom, d)
        assert np.abs(apply(d) - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("p", [1.3, 1.2])
def test_singular_p_at_most_1_3_fails_at_the_round_off_floor_not_the_budget(p):
    # sin·sin is flat at the lattice point between the four centre cells, and
    # the discrete solution carries a flux of 4e-7 (p = 1.2) to 2e-6 (p = 1.3)
    # through it; |g|^{p−1} reaches that only at |g| < 1e-18, far below the
    # ~7e-15 spacing of representable gradients there, so no float64 u meets
    # tol 1e-8.  The solve must end at the ε floor with most of its budget
    # unspent: steps that leave the energy unchanged do not count as descent
    geom = unit_grid(64)
    F = manufacture(trig_field(geom), p)
    with pytest.raises(NonConvergence) as info:
        solve(DirichletProblem(F, 0.0), SystemParams(p=p))
    used = int(re.search(r"after (\d+) iterations", str(info.value)).group(1))
    assert used <= 15_000
    assert info.value.residual > 1e-8


def test_p3_iterations_sum_the_stage_iterations():
    geom = unit_grid(64)
    u = GridField.from_function(
        geom,
        lambda x, y: 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y) + 2 * x + y,
    )
    F = manufacture(u, 3.0)
    result = solve(DirichletProblem(F, u), SystemParams(p=3.0, tol=2e-6))
    # 428 products; CG without the Jacobi scaling needs 591
    assert result.iterations <= 500
    # the DST warm start uses no Hessian-vector products
    assert result.iterations == sum(s["iterations"] for s in result.stage_log)
    assert len(result.stage_log) == len(SystemParams(p=3.0).stages())


def test_newton_stages_obey_the_budget():
    geom = unit_grid(32)
    u = GridField.from_function(geom, lambda x, y: np.sin(3 * x) + y * y)
    with pytest.raises(NonConvergence) as info:
        solve(DirichletProblem(manufacture(u, 3.0), u), SystemParams(p=3.0, max_iters=3))
    assert "after 3 iterations" in str(info.value)


# c − 1 = 127 is prime, the slow length of the DST-I
@pytest.mark.parametrize("shape", [(1, 126, 126), (2, 62, 190), (1, 198, 98)])
def test_dst_matches_scipy_and_is_its_own_inverse(shape):
    from scipy.fft import dstn

    a = np.random.default_rng(list(shape)).standard_normal(shape)
    expected = dstn(a, type=1, axes=(1, 2), norm="ortho")
    got = _dst(a)
    assert got.shape == shape
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    assert np.abs(_dst(got) - a).max() <= 1e-14 * np.abs(a).max()


@pytest.mark.parametrize("cells, extent, N", [
    ((64, 64), (1.0, 1.0), 1),
    ((40, 56), (1.0, 0.7), 2),
], ids=["square-64", "system-40x56"])
def test_warm_start_leaves_a_tenth_of_the_laplace_gradient(monkeypatch, cells,
                                                           extent, N):
    import wulff_lab.plaplace_solver as ps

    geom = GridGeometry(cells, extent, (0.0, 0.0))
    ring = _ring(geom)
    base = GridField.from_function(geom, lambda x, y: np.sin(3 * x) + y * y + x * y)
    u = GridField(geom, np.stack([base.values[0], np.cos(base.values[0])][:N]),
                  "scalar" if N == 1 else "vector", codomain=N)
    F = manufacture(u, 3.0)
    starts = []

    class FirstStage(Exception):
        pass

    def first_stage(v, *args):
        starts.append(v.copy())
        raise FirstStage

    monkeypatch.setattr(ps, "_newton_stage", first_stage)
    for boundary in (u, 1.5):
        with pytest.raises(FirstStage):
            solve(DirichletProblem(F, boundary), SystemParams(p=3.0))
    # a constant ring is already harmonic: the warm start moves nothing
    assert np.all(starts[1] == 1.5)
    v0 = np.array(u.values)
    for c in range(N):
        v0[c][~ring] = v0[c][ring].mean()
    zero = np.zeros((N, 2) + tuple(c - 1 for c in cells))

    def laplace_gradient(v):
        return np.linalg.norm(_energy_and_grad(v, zero, 2.0, 0.0, geom, ring)[1])

    assert np.array_equal(starts[0][:, ring], u.values[:, ring])
    assert (abs(laplace_gradient(starts[0]) - 0.1 * laplace_gradient(v0))
            <= 1e-12 * laplace_gradient(v0))


def test_full_poisson_step_on_zero_datum_is_the_harmonic_extension():
    geom = GridGeometry((30, 23), (1.0, 0.6), (0.0, 0.0))
    ring = _ring(geom)
    g = GridField.from_function(
        geom, lambda x, y: 1.0 + np.sin(np.pi * x) * np.sin(np.pi * y / 0.6) + x * x - y
    ).values[0]
    v = np.where(ring, g, g[ring].mean())[np.newaxis]
    _poisson_step(v, np.zeros((1, 2, 29, 22)), geom, ring)
    zero = GridField(geom, np.zeros((2,) + geom.cells), "matrix", codomain=1)
    direct = _direct_p2_solution(geom, zero, g.copy())
    assert np.abs(v[0] - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("p, boundary", [(2.0, 0.0), (3.0, "u"), (1.5, "u")])
def test_solve_measures_each_iterate_once(monkeypatch, p, boundary):
    # the gate check that ends the solve also gives NonConvergence and
    # SolveResult.residual their value: no iterate is measured twice
    import wulff_lab.plaplace_solver as ps

    geom = unit_grid(32)
    u = GridField.from_function(
        geom,
        lambda x, y: 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y) + 2 * x + y,
    )
    F = manufacture(u, p)
    seen = []

    def counted(w, F, p):
        seen.append(w.values.tobytes())
        return weak_residual(w, F, p)

    monkeypatch.setattr(ps, "weak_residual", counted)
    result = solve(DirichletProblem(F, u if boundary == "u" else boundary),
                   SystemParams(p=p, tol=2e-6))
    assert len(seen) == len(set(seen)) >= 1
    assert seen[-1] == result.u.values.tobytes()
    assert result.residual == weak_residual(result.u, F, p)


def test_failing_solve_measures_each_iterate_once(monkeypatch):
    # at the p = 1.3 floor the last stages repeat on unchanged iterates
    import wulff_lab.plaplace_solver as ps

    u = trig_field(unit_grid(32))
    seen = []

    def counted(w, F, p):
        seen.append(w.values.tobytes())
        return weak_residual(w, F, p)

    monkeypatch.setattr(ps, "weak_residual", counted)
    with pytest.raises(NonConvergence):
        solve(DirichletProblem(manufacture(u, 1.3), 0.0), SystemParams(p=1.3))
    assert len(seen) == len(set(seen)) > 1


def test_energy_is_a_float_at_one_iteration():
    # the warm start spends no budget, so the stages run even at max_iters = 1
    geom = unit_grid(16)
    u = GridField.from_function(geom, lambda x, y: x * x + y)
    result = solve(DirichletProblem(manufacture(u, 3.0), u),
                   SystemParams(p=3.0, tol=1e3, max_iters=1))
    assert result.iterations == 0
    assert isinstance(result.energy, float) and math.isfinite(result.energy)
    assert len(result.stage_log) == len(SystemParams(p=3.0).stages())
