"""Discretization residual, block Jacobian, linear solve, Newton loop."""

import dataclasses

import numpy as np
import pytest

from stiffbvp import (BoundaryConditions, ConfigError, EvaluationError,
                      EvolvingMesh, IdentityStrategy, NewtonConfig,
                      NonStationaryBoundary, OdeSystem, SegmentedProblem,
                      SingularLinearSystem, SingularStepError, Transform,
                      assemble_jacobian, assemble_residual, from_second_order,
                      linear_verification, newton_solve, solve_linear_block,
                      solve_spec, troesch, uniform_mesh)
from stiffbvp import trapezoid
from stiffbvp.mesh import init_linear
from stiffbvp.trapezoid import (BlockJacobian, _Sweep, anchor_pins,
                                check_boundary_transforms)

from conftest import ENERGY_REFS, intervals, zones_of


def _line_problem(slope=2.0, m=6):
    """u' = (slope, 0) with the exact straight line placed on the knots."""
    v = np.array([slope, 0.0])

    def rhs(u, t):
        out = np.empty(np.shape(u))
        out[0] = slope
        out[1] = 0.0
        return out

    system = OdeSystem(2, rhs)
    bc = BoundaryConditions(
        lambda ua, ub: np.array([ua[0], ub[0] - slope]),
        pins={("a", 1): (0, 0.0), ("b", 1): (1, slope)})
    T = np.linspace(0.0, 1.0, m + 1)
    U = np.column_stack([slope * T, np.zeros(m + 1)])
    return SegmentedProblem(system, bc, EvolvingMesh(U, T), (0.0, 1.0))


def _exact_linear_mesh(h):
    spec = linear_verification()
    T = np.linspace(0.0, 1.0, int(round(1.0 / h)) + 1)
    U = np.column_stack([np.sinh(T), np.cosh(T)])
    return SegmentedProblem(spec.system, spec.bc, EvolvingMesh(U, T),
                            (0.0, 1.0))


# -- residual -------------------------------------------------------------

def test_constant_rhs_exact_line_zero_residual():
    r = assemble_residual(_line_problem())
    np.testing.assert_allclose(r, 0.0, atol=1e-14)


def test_interval_residual_is_second_order():
    # exact knots of u'' = u: trapezoidal defect scales like h**2
    r1 = assemble_residual(_exact_linear_mesh(0.02))
    r2 = assemble_residual(_exact_linear_mesh(0.01))
    ratio = np.max(np.abs(r1)) / np.max(np.abs(r2))
    assert 3.5 <= ratio <= 4.5


def test_converged_solution_has_small_residual(troesch3):
    sol = solve_spec(troesch3, uniform_mesh(troesch3, 0.02),
                     IdentityStrategy(), NewtonConfig(tol=1e-10))
    problem = SegmentedProblem(troesch3.system, troesch3.bc, sol.mesh,
                               troesch3.domain)
    assert np.max(np.abs(assemble_residual(problem))) <= 1e-10


# -- Jacobian -------------------------------------------------------------

def _fd_dense_jacobian(problem, step=1e-7):
    """Independent dense FD oracle over the free knot coordinates."""
    from stiffbvp.trapezoid import _Sweep
    sweep = _Sweep(problem)
    Q0 = sweep.Q0
    base_shape = Q0.shape
    size = Q0.size
    out = np.empty((size, size))
    for col in range(size):
        e = np.zeros(size)
        h = step * max(1.0, abs(Q0.ravel()[col]))
        e[col] = h
        rp = sweep.residual(Q0 + e.reshape(base_shape))
        rm = sweep.residual(Q0 - e.reshape(base_shape))
        out[:, col] = (rp - rm) / (2 * h)
    return out


# nonlinear, two-sided and without pins: every entry of C and D is live
NONLINEAR_BC = BoundaryConditions(lambda ua, ub: np.array(
    [ua[0] * ua[1] + ua[0] - 0.1 * ub[1], ub[0] ** 2 + np.sin(ub[1]) - 1.0]))


def test_jacobian_matches_fd_identity_mesh(troesch3):
    mesh = init_linear(0.0, 1.0, 5, (0.0, 1.0))
    for bc in (troesch3.bc, NONLINEAR_BC):
        problem = SegmentedProblem(troesch3.system, bc, mesh, (0.0, 1.0))
        J = assemble_jacobian(problem).todense()
        J_fd = _fd_dense_jacobian(problem)
        np.testing.assert_allclose(J, J_fd, rtol=1e-5, atol=1e-7)


def test_jacobian_matches_fd_transformed_mesh():
    # tail: swap u1 and flip u2 on the last two intervals; head: swap u1 on
    # the first two, so the left boundary row becomes t_a - a
    spec = troesch(6.0)
    sol = solve_spec(spec, uniform_mesh(spec, 0.2), IdentityStrategy())
    for end, sub_left in (("tail", None), ("head", 0)):
        transforms = intervals(sol.mesh.zones)
        if end == "tail":
            transforms[-2:] = [Transform(swap=1, flips={2})] * 2
        else:
            transforms[:2] = [Transform(swap=1)] * 2
        mesh = EvolvingMesh(sol.mesh.U, sol.mesh.T, zones_of(transforms))
        problem = SegmentedProblem(spec.system, spec.bc, mesh, (0.0, 1.0))
        assert _Sweep(problem).sub_left == sub_left
        J = assemble_jacobian(problem).todense()
        J_fd = _fd_dense_jacobian(problem)
        np.testing.assert_allclose(J, J_fd, rtol=1e-5, atol=1e-6)


def _three_zone_problem(system=None, lam=6.0):
    """Converged identity knots re-tagged I, SP2, SP1.FP2: two switches."""
    spec = troesch(lam)
    sol = solve_spec(spec, uniform_mesh(spec, 0.1), IdentityStrategy())
    labels = ["I"] * 4 + ["SP2"] * 3 + ["SP1.FP2"] * 3
    mesh = EvolvingMesh(sol.mesh.U, sol.mesh.T,
                        zones_of([Transform.parse(l) for l in labels]))
    return SegmentedProblem(system or spec.system, spec.bc, mesh, (0.0, 1.0))


def test_jacobian_matches_fd_three_zone_mesh():
    problem = _three_zone_problem()
    J = assemble_jacobian(problem).todense()
    np.testing.assert_allclose(J, _fd_dense_jacobian(problem),
                               rtol=1e-5, atol=1e-6)


def test_jacobian_without_analytic_jac_matches_fd():
    # rhs differences in the original variables, carried into every zone
    # by the chain rule, feed the same assembly as an analytic jac
    lam = 6.0
    plain = from_second_order(lambda up, u, t: lam * np.sinh(lam * u))
    problem = _three_zone_problem(plain, lam)
    J = assemble_jacobian(problem).todense()
    np.testing.assert_allclose(J, _fd_dense_jacobian(problem),
                               rtol=1e-5, atol=1e-6)
    analytic = assemble_jacobian(_three_zone_problem(lam=lam)).todense()
    np.testing.assert_allclose(J, analytic, rtol=1e-7, atol=1e-7)


def test_scalar_only_rhs_is_evaluation_error():
    # a rhs must be batch-safe, as jac must: the residual evaluates it on
    # all knots of a zone at once, and so does the composed jac of a swap
    # or flip zone
    spec = troesch(6.0)

    def rhs(u, t):
        # deliberately not vectorized
        return np.array([float(u[1]), 6.0 * np.sinh(6.0 * float(u[0]))])

    scalar = dataclasses.replace(
        spec, system=OdeSystem(2, rhs, jac=spec.system.jac))
    problem = _three_zone_problem(scalar.system)
    with pytest.raises(EvaluationError, match="batch"):
        solve_spec(scalar, problem.mesh)
    with pytest.raises(EvaluationError, match="batch"):
        assemble_jacobian(problem)


def test_jacobian_work_count(monkeypatch):
    # the blocks come from one batched jac call per zone and chunk, never
    # from residual passes; the boundary rows from 2*(n+1) central
    # differences of the user's g per end
    spec = troesch(6.0)
    calls = {"jac": 0, "residual": 0, "bc_residual": 0, "g": 0}

    def jac(u, t):
        calls["jac"] += 1
        return spec.system.jac(u, t)

    def g(ua, ub):
        calls["g"] += 1
        return spec.bc.residual(ua, ub)

    counted = OdeSystem(2, spec.system.rhs, jac=jac)
    problem = _three_zone_problem(counted)
    problem.bc = BoundaryConditions(g, spec.bc.pins)
    residual = _Sweep.interval_residual
    bc_residual = _Sweep.bc_residual

    def interval_residual(self, Q):
        calls["residual"] += 1
        return residual(self, Q)

    def counted_bc_residual(self, q0, qm):
        calls["bc_residual"] += 1
        return bc_residual(self, q0, qm)

    monkeypatch.setattr(_Sweep, "interval_residual", interval_residual)
    monkeypatch.setattr(_Sweep, "bc_residual", counted_bc_residual)
    monkeypatch.setattr(trapezoid, "_JAC_CHUNK", 4)
    assemble_jacobian(problem)
    # every zone's knots s..e, the switch knot included, in chunks of 4
    chunks = sum(-(-(e - s + 1) // 4) for _, s, e in problem.mesh.zones)
    assert calls["residual"] == 0
    assert calls["jac"] == chunks
    assert calls["bc_residual"] == 0
    assert calls["g"] == 4 * (problem.mesh.n + 1)


def test_residual_work_count(monkeypatch):
    # one rhs evaluation per zone, at its knots s..e: interior knots are
    # evaluated once, not once as a left and once as a right knot
    problem = _three_zone_problem()
    points = []
    eval_rhs_batch = trapezoid.eval_rhs_batch

    def counted(system, U, T):
        points.append(len(T))
        return eval_rhs_batch(system, U, T)

    monkeypatch.setattr(trapezoid, "eval_rhs_batch", counted)
    assemble_residual(problem)
    assert points == [e - s + 1 for _, s, e in problem.mesh.zones]


def test_zero_natural_step_at_switch_raises():
    # the SP2 zone's first step runs from the switch knot, re-expressed
    # with tau = u2, to the next knot, whose tau is its own u2
    problem = _three_zone_problem()
    _, s, _ = problem.mesh.zones[1]
    problem.mesh.U[s + 1, 1] = problem.mesh.U[s, 1]
    sweep = _Sweep(problem)
    for evaluate in (sweep.residual, sweep.blocks):
        with pytest.raises(SingularStepError,
                           match=rf"zero natural step on interval {s}$"):
            evaluate(sweep.Q0)


def test_jacobian_independent_of_chunking(monkeypatch):
    problem = _three_zone_problem()
    whole = assemble_jacobian(problem)
    monkeypatch.setattr(trapezoid, "_JAC_CHUNK", 3)
    chunked = assemble_jacobian(problem)
    for name in "ABCD":
        np.testing.assert_array_equal(getattr(chunked, name),
                                      getattr(whole, name))


def test_linear_system_has_constant_jacobian():
    problem = _exact_linear_mesh(0.2)
    J1 = assemble_jacobian(problem).todense()
    # shift the iterate: for a linear rhs the Jacobian must not move
    problem.mesh.U += 0.3
    J2 = assemble_jacobian(problem).todense()
    np.testing.assert_allclose(J1, J2, rtol=1e-9, atol=1e-9)


# -- block linear solve ---------------------------------------------------

def _random_block_system(rng, m, n):
    A = rng.uniform(-1, 1, size=(m, n, n))
    B = rng.uniform(-1, 1, size=(m, n, n)) + 3.0 * np.eye(n)
    C = rng.uniform(-1, 1, size=(n, n)) + 3.0 * np.eye(n)
    D = rng.uniform(-1, 1, size=(n, n))
    return BlockJacobian(A, B, C, D)


def test_block_solve_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for trial in range(20):
        m, n = 5, 2
        jac = _random_block_system(rng, m, n)
        rhs_int = rng.uniform(-1, 1, size=(m, n))
        rhs_bc = rng.uniform(-1, 1, size=n)
        X = solve_linear_block(jac, rhs_int, rhs_bc)
        dense = jac.todense()
        expect = np.linalg.solve(dense,
                                 np.concatenate([rhs_int.ravel(), rhs_bc]))
        np.testing.assert_allclose(X.ravel(), expect, rtol=1e-10, atol=1e-10)


def test_block_solve_scalar_blocks():
    rng = np.random.default_rng(3)
    jac = _random_block_system(rng, 7, 1)
    rhs_int = rng.uniform(-1, 1, size=(7, 1))
    rhs_bc = rng.uniform(-1, 1, size=1)
    X = solve_linear_block(jac, rhs_int, rhs_bc)
    expect = np.linalg.solve(jac.todense(),
                             np.concatenate([rhs_int.ravel(), rhs_bc]))
    np.testing.assert_allclose(X.ravel(), expect, rtol=1e-10)


def test_block_solve_identity_blocks_pass_rhs_through():
    m, n = 4, 2
    eye = np.broadcast_to(np.eye(n), (m, n, n)).copy()
    jac = BlockJacobian(np.zeros((m, n, n)), eye, np.eye(n), np.zeros((n, n)))
    rhs_int = np.arange(m * n, dtype=float).reshape(m, n)
    rhs_bc = np.array([5.0, -1.0])
    X = solve_linear_block(jac, rhs_int, rhs_bc)
    np.testing.assert_allclose(X[0], rhs_bc)
    np.testing.assert_allclose(X[1:], rhs_int)


def test_block_solve_singular_interval_block():
    m, n = 3, 2
    jac = BlockJacobian(np.zeros((m, n, n)),
                        np.broadcast_to(np.eye(n), (m, n, n)).copy(),
                        np.eye(n), np.zeros((n, n)))
    jac.B[1] = 0.0
    with pytest.raises(SingularLinearSystem) as exc:
        solve_linear_block(jac, np.zeros((m, n)), np.zeros(n))
    assert exc.value.pivot == 1


# -- boundary handling ----------------------------------------------------

def test_boundary_swap_requires_pin(troesch3):
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    ok = EvolvingMesh(mesh.U, mesh.T, zones_of([Transform(swap=1)] * 4))
    assert check_boundary_transforms(ok, troesch3.bc) == (0, 1)
    bad = EvolvingMesh(mesh.U, mesh.T, zones_of(
        [Transform(swap=2)] + [Transform(swap=1)] * 3))
    with pytest.raises(NonStationaryBoundary):
        check_boundary_transforms(bad, troesch3.bc)


def test_anchor_pins(troesch3):
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    mesh.T[0] = 1e-5
    mesh.T[-1] = 1.0 - 1e-5
    out = anchor_pins(mesh, troesch3.bc, 0.0, 1.0)
    assert out.T[0] == 0.0 and out.T[-1] == 1.0
    swapped = EvolvingMesh(mesh.U, mesh.T, zones_of([Transform(swap=1)] * 4))
    swapped.U[-1, 0] = 0.997
    out = anchor_pins(swapped, troesch3.bc, 0.0, 1.0)
    assert out.U[-1, 0] == 1.0          # pinned value becomes exact tau


# -- Newton solver --------------------------------------------------------

def test_newton_config_validation():
    with pytest.raises(ConfigError):
        NewtonConfig(tol=0.0)


def test_linear_problem_accuracy():
    spec = linear_verification()
    sol = solve_spec(spec, uniform_mesh(spec, 0.01), IdentityStrategy())
    err = np.max(np.abs(sol.mesh.U[:, 0] - np.sinh(sol.mesh.T)))
    assert err <= 5e-5
    assert sol.iterations <= 3      # the problem is linear


def test_solver_is_second_order():
    spec = linear_verification()
    errs = []
    for h in (0.02, 0.01):
        sol = solve_spec(spec, uniform_mesh(spec, h), IdentityStrategy())
        errs.append(np.max(np.abs(sol.mesh.U[:, 0] - np.sinh(sol.mesh.T))))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_troesch_fixed_mesh_reference(troesch3):
    sol = solve_spec(troesch3, uniform_mesh(troesch3, 0.01),
                     IdentityStrategy())
    ref = ENERGY_REFS[3.0][0]
    rel = abs(sol.mesh.U[0, 1] - ref) / ref
    assert rel < 2e-3
    assert sol.residual_norm <= 1e-10


def test_newton_solve_diagnostics(troesch3):
    sol = solve_spec(troesch3, uniform_mesh(troesch3, 0.05),
                     IdentityStrategy())
    history = sol.diagnostics["history"]
    assert history[0]["zones"] == [("I", 20)]
    assert sol.diagnostics["outer_iterations"] >= 1


def test_segmented_problem_validation(troesch3):
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    with pytest.raises(ConfigError):
        SegmentedProblem(troesch3.system, troesch3.bc, mesh, (1.0, 0.0))
    mesh1 = init_linear(0.0, 1.0, 4, (0.0, 1.0), n=1)
    with pytest.raises(ConfigError):
        SegmentedProblem(troesch3.system, troesch3.bc, mesh1, (0.0, 1.0))
