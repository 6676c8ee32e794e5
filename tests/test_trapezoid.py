"""Discretization residual, block Jacobian, linear solve, Newton loop."""

import dataclasses
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import stiffbvp
from stiffbvp import (BoundaryConditions, ConfigError, EvaluationError,
                      EvolvingMesh, GrowthZoneStrategy, IdentityStrategy,
                      NewtonConfig, NonConvergence, NonStationaryBoundary,
                      OdeSystem, RefinementConfig, SegmentedProblem,
                      SingularLinearSystem, SingularStepError,
                      SteepGrowthZoneStrategy, Transform, assemble_jacobian,
                      assemble_residual, from_second_order, import_solution,
                      linear_verification, newton_solve, solve_linear_block,
                      solve_spec, troesch, uniform_mesh)
from stiffbvp import trapezoid
from stiffbvp.mesh import init_linear
from stiffbvp.ode_system import central_differences
from stiffbvp.transform import state_jacobian, unmap_state
from stiffbvp.trapezoid import BlockJacobian, _Sweep

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


def _three_zone_problem(system=None, lam=6.0, m=10, switches=(4, 7)):
    """Converged identity knots on m intervals re-tagged I, SP2, SP1.FP2,
    with the switches at the given intervals."""
    spec = troesch(lam)
    sol = solve_spec(spec, uniform_mesh(spec, 1.0 / m), IdentityStrategy())
    s1, s2 = switches
    labels = ["I"] * s1 + ["SP2"] * (s2 - s1) + ["SP1.FP2"] * (m - s2)
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
    # the blocks come from one batched jac call per zone and batch, never
    # from residual passes; the boundary rows from central differences of
    # the user's g over the 2n end coordinates it reads, two calls each
    spec = troesch(6.0)
    calls = {"jac": 0, "residual": 0, "boundary_residual": 0, "g": 0}

    def jac(u, t):
        calls["jac"] += 1
        return spec.system.jac(u, t)

    def g(ua, ub):
        calls["g"] += 1
        return spec.bc.residual(ua, ub)

    counted = OdeSystem(2, spec.system.rhs, jac=jac)
    problem = _three_zone_problem(counted)
    problem.bc = BoundaryConditions(g, spec.bc.pins)
    residual_at = _Sweep.residual_at
    boundary_residual = _Sweep.boundary_residual

    def counted_residual_at(self, view):
        calls["residual"] += 1
        return residual_at(self, view)

    def counted_boundary_residual(self, *ends):
        calls["boundary_residual"] += 1
        return boundary_residual(self, *ends)

    monkeypatch.setattr(_Sweep, "residual_at", counted_residual_at)
    monkeypatch.setattr(_Sweep, "boundary_residual",
                        counted_boundary_residual)
    # batches of 4 intervals, 0..3, 4..7 and 8..9, meet the zones'
    # intervals 0..3, 4..6 and 7..9 in 4 pieces
    monkeypatch.setattr(trapezoid, "_CHUNK", 2)
    assemble_jacobian(problem)
    assert calls["residual"] == 0
    assert calls["jac"] == 4
    assert calls["boundary_residual"] == 0
    assert calls["g"] == 4 * problem.mesh.n


def test_newton_step_unmaps_the_ends_once(monkeypatch):
    # the boundary blocks reuse the end states that the accepted trial's
    # residual unmapped: one end_states call per zone view, none more
    # the iterate converged at lam = 6 starts the lam = 6.5 sweep
    problem = _three_zone_problem()
    problem.system = troesch(6.5).system
    calls = {"zone_view": 0, "end_states": 0}
    for name in calls:
        def counted(self, view, name=name, method=getattr(_Sweep, name)):
            calls[name] += 1
            return method(self, view)
        monkeypatch.setattr(_Sweep, name, counted)
    _, iters, _ = _Sweep(problem).run(NewtonConfig())
    assert iters >= 2
    assert calls["end_states"] == calls["zone_view"]


def test_non_finite_boundary_derivative_is_evaluation_error(troesch3):
    # g is finite at the iterate, where u2(b) = 1, and infinite one
    # central-difference step away from it
    mesh = init_linear(0.0, 1.0, 5, (0.0, 1.0))
    bc = BoundaryConditions(lambda ua, ub: np.array(
        [ua[0], ub[0] - 1.0 + (0.0 if ub[1] == 1.0 else np.inf)]))
    problem = SegmentedProblem(troesch3.system, bc, mesh, (0.0, 1.0))
    assert np.isfinite(assemble_residual(problem)).all()
    with pytest.raises(EvaluationError, match="non-finite boundary"):
        assemble_jacobian(problem)


def test_nan_knot_is_evaluation_error():
    # a NaN t makes the initial residual NaN, which no stop test rejects
    T = np.array([0.0, 0.25, np.nan, 0.75, 1.0])
    mesh = EvolvingMesh(np.column_stack([np.linspace(0.0, 1.0, 5),
                                         np.ones(5)]), T)
    with pytest.raises(EvaluationError, match="NaN"):
        solve_spec(troesch(1.0), mesh, IdentityStrategy())


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
    for evaluate in (assemble_residual, assemble_jacobian):
        with pytest.raises(SingularStepError,
                           match=rf"zero natural step on interval {s}$"):
            evaluate(problem)


def test_switch_from_identity_zone_matches_general_chain_rule():
    # the I zone's state Jacobian, the unit matrix, is left out of the
    # switch's chain rule; a unit transform that does not say it is the
    # identity puts it back
    problem = _three_zone_problem()
    sweep = _Sweep(problem)
    view = sweep.zone_view(sweep.Q0)
    assert view[0].tr.is_identity
    unit = Transform()
    object.__setattr__(unit, "is_identity", False)
    general = [view[0]._replace(tr=unit)] + view[1:]
    for got, want in zip(sweep.block_rows(view, 0, sweep.m),
                         sweep.block_rows(general, 0, sweep.m)):
        np.testing.assert_array_equal(got, want)


def test_jacobian_independent_of_chunking(monkeypatch):
    # batches of 2 intervals: the switch at interval 4 starts one, the
    # switch at 7 ends one
    problem = _three_zone_problem()
    whole = assemble_jacobian(problem)
    monkeypatch.setattr(trapezoid, "_CHUNK", 1)
    chunked = assemble_jacobian(problem)
    for name in "ABCD":
        np.testing.assert_array_equal(getattr(chunked, name),
                                      getattr(whole, name))


# batches of 3 pairs, 6 intervals: with the switches at intervals 6 and 36
# each starts a batch; m = 41 carries an odd last row up, 42 does not
@pytest.mark.parametrize("m", [41, 42])
def test_streamed_solve_matches_assembled(monkeypatch, m):
    problem = _three_zone_problem(m=m, switches=(6, 36))
    assembled = assemble_jacobian(problem)
    whole = assemble_residual(problem)
    monkeypatch.setattr(trapezoid, "_CHUNK", 3)
    sweep = _Sweep(problem)
    view = sweep.zone_view(sweep.Q0)
    r = sweep.residual_at(view)
    np.testing.assert_array_equal(r, whole)
    jac = sweep.jacobian(view)
    reads = []
    rows = jac.rows

    def counted_rows(a, b):
        reads.append((a, b))
        return rows(a, b)

    jac.rows = counted_rows
    rhs = r[:2 * m].reshape(m, 2), r[2 * m:]
    np.testing.assert_array_equal(solve_linear_block(jac, *rhs),
                                  solve_linear_block(assembled, *rhs))
    # the first level reads each batch once, never the whole mesh, and the
    # odd last row with the last batch; the second level is the dense tail
    assert reads == [(a, a + 6) for a in range(0, 36, 6)] + [(36, m)]


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


def _dense_solution(jac, rhs_int, rhs_bc):
    return np.linalg.solve(jac.todense(),
                           np.concatenate([rhs_int.ravel(), rhs_bc]))


def _block_product(jac, x):
    """The stacked rows A[i] x_i + B[i] x_{i+1} and C x_0 + D x_m, formed
    block by block without todense."""
    rows = (np.einsum("ijk,ik->ij", jac.A, x[:-1])
            + np.einsum("ijk,ik->ij", jac.B, x[1:]))
    return np.concatenate([rows.ravel(), jac.C @ x[0] + jac.D @ x[-1]])


# up to 64 unknowns (m = 1, 2, 3, 5, 7) the solver's work is one dense solve
# of todense's matrix, so only the block product checks it independently;
# m = 101 and 200 are above the dense tail for every n; 101 carries an odd
# row up at three levels, and 200 reduces three levels at n = 2, four at 3
@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 101, 200])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bc", ["separated", "periodic"])
def test_block_solve_matches_dense(m, n, bc):
    rng = np.random.default_rng(1000 * m + 10 * n + (bc == "periodic"))
    jac = _random_block_system(rng, m, n)
    if bc == "periodic":
        # x_0 - x_m = rhs_bc couples both ends in every row
        jac.C, jac.D = np.eye(n), -np.eye(n)
    rhs_int = rng.uniform(-1, 1, size=(m, n))
    rhs_bc = rng.uniform(-1, 1, size=n)
    # the solver writes its coarse levels over a buffer of its own, and
    # callers reuse the blocks after a solve: a write to an input raises
    for a in (jac.A, jac.B, jac.C, jac.D, rhs_int, rhs_bc):
        a.flags.writeable = False
    X = solve_linear_block(jac, rhs_int, rhs_bc)
    assert X.shape == (m + 1, n)
    np.testing.assert_allclose(X.ravel(),
                               _dense_solution(jac, rhs_int, rhs_bc),
                               rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(_block_product(jac, X),
                               np.concatenate([rhs_int.ravel(), rhs_bc]),
                               rtol=0, atol=1e-10)


# with n = 33 even a single row has more unknowns than the dense tail:
# reduction stops at one row, whose two knots the tail solves
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_block_solve_wide_blocks(m):
    rng = np.random.default_rng(m)
    n = 33
    jac = _random_block_system(rng, m, n)
    jac.B += 10.0 * np.eye(n)
    rhs_int = rng.uniform(-1, 1, size=(m, n))
    rhs_bc = rng.uniform(-1, 1, size=n)
    X = solve_linear_block(jac, rhs_int, rhs_bc)
    assert X.shape == (m + 1, n)
    np.testing.assert_allclose(X.ravel(),
                               _dense_solution(jac, rhs_int, rhs_bc),
                               rtol=1e-10, atol=1e-10)


# the knot's columns are zero (B[knot-1] = A[knot] = 0): with m = 200,
# knot 4 survives two levels and is eliminated, and found, at the third;
# with m = 64, knot 8 survives both levels into the dense tail
@pytest.mark.parametrize("m, knot", [(200, 4), (64, 8)])
def test_block_solve_singular_block_at_reduced_level(m, knot):
    rng = np.random.default_rng(7)
    n = 2
    jac = _random_block_system(rng, m, n)
    jac.B[knot - 1] = 0.0
    jac.A[knot] = 0.0
    with pytest.raises(SingularLinearSystem,
                       match=f"singular interval block {knot - 1}$") as exc:
        solve_linear_block(jac, np.ones((m, n)), np.ones(n))
    assert exc.value.pivot == knot - 1


def _block_rows(chunk):
    """Rows of a tier's first level per block at _CHUNK = chunk."""
    return chunk << trapezoid._TIER


def _solve_at_chunk(chunk, jac, rhs_int, rhs_bc):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trapezoid, "_CHUNK", chunk)
        return solve_linear_block(jac, rhs_int, rhs_bc)


# with a small _CHUNK, a mesh of up to 2W+1 rows spans up to three blocks
# of W rows, which the default-chunk solve reduces as one: the same pairs
# are reflected either way, so the solutions agree bit for bit
@pytest.mark.parametrize("chunk", [1, 2, 4, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_solve_independent_of_block_size(chunk, n):
    W = _block_rows(chunk)
    for m in (W - 1, W, W + 1, 2 * W + 1):
        rng = np.random.default_rng(100 * m + n)
        jac = _random_block_system(rng, m, n)
        rhs = rng.uniform(-1, 1, size=(m, n)), rng.uniform(-1, 1, size=n)
        whole = solve_linear_block(jac, *rhs)
        assert np.array_equal(_solve_at_chunk(chunk, jac, *rhs), whole)


# the last block has r rows: one, alone at the first level (r = 1), the
# second (r = 2) or the third (r = 3, 4); with _CHUNK = 1, m = 8W + 1
# also runs a second tier over 65 rows, a block's buffer in both tiers
@pytest.mark.parametrize("chunk, m", [(2, 129), (2, 130), (2, 131),
                                      (2, 132), (1, 513)])
def test_block_solve_carries_a_lone_last_row(chunk, m):
    n = 2
    rng = np.random.default_rng(m)
    jac = _random_block_system(rng, m, n)
    rhs = rng.uniform(-1, 1, size=(m, n)), rng.uniform(-1, 1, size=n)
    whole = solve_linear_block(jac, *rhs)
    np.testing.assert_allclose(_block_product(jac, whole),
                               np.concatenate([rhs[0].ravel(), rhs[1]]),
                               rtol=0, atol=1e-10)
    assert np.array_equal(_solve_at_chunk(chunk, jac, *rhs), whole)


def test_block_solve_one_row_past_a_block():
    # at the default _CHUNK the 16,385th row is a block of its own; the
    # solution agrees with one block of 32,768 rows
    m, n = _block_rows(trapezoid._CHUNK) + 1, 2
    rng = np.random.default_rng(5)
    jac = _random_block_system(rng, m, n)
    rhs = rng.uniform(-1, 1, size=(m, n)), rng.uniform(-1, 1, size=n)
    X = solve_linear_block(jac, *rhs)
    assert np.array_equal(_solve_at_chunk(2 * trapezoid._CHUNK, jac, *rhs), X)
    np.testing.assert_allclose(_block_product(jac, X),
                               np.concatenate([rhs[0].ravel(), rhs[1]]),
                               rtol=0, atol=1e-10)


# blocks of 16 rows at _CHUNK = 2: knot 41, in the third block, is
# eliminated at the first level, 42 at the second, 44 at the third, and
# 121 in the last full block at the first
@pytest.mark.parametrize("knot", [41, 42, 44, 121])
def test_block_solve_singular_pair_in_later_block(monkeypatch, knot):
    m, n = 129, 2
    jac = _random_block_system(np.random.default_rng(knot), m, n)
    jac.B[knot - 1] = 0.0
    jac.A[knot] = 0.0
    for chunk in (trapezoid._CHUNK, 2):
        monkeypatch.setattr(trapezoid, "_CHUNK", chunk)
        with pytest.raises(SingularLinearSystem,
                           match=f"singular interval block {knot - 1}$"
                           ) as exc:
            solve_linear_block(jac, np.ones((m, n)), np.ones(n))
        assert exc.value.pivot == knot - 1


def test_block_solve_memory():
    # the solve holds every level's top rows, 112 bytes per interval at
    # n = 2, and for the whole mesh only each tier's last-level rows, one
    # in 8: measured 133 bytes per interval, against 158 when the first
    # level's coarse rows, one per pair, were held
    m, n = 150_000, 2
    rng = np.random.default_rng(0)
    jac = _random_block_system(rng, m, n)
    rhs = rng.uniform(-1, 1, size=(m, n)), rng.uniform(-1, 1, size=n)
    tracemalloc.start()
    try:
        solve_linear_block(jac, *rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / m <= 145


def _backward_error(jac, seed=0):
    """||J x - b|| / (||J|| ||x|| + ||b||) in the max norm, for the solve
    of b = J x_true with x_true ~ N(0, 1)."""
    m, n, _ = jac.A.shape
    x_true = np.random.default_rng(seed).standard_normal((m + 1, n))
    b = _block_product(jac, x_true)
    x = solve_linear_block(jac, b[:m * n].reshape(m, n), b[m * n:])
    row_sums = np.abs(jac.A).sum(axis=2) + np.abs(jac.B).sum(axis=2)
    norm_J = max(row_sums.max(),
                 (np.abs(jac.C).sum(axis=1) + np.abs(jac.D).sum(axis=1)).max())
    return (np.abs(_block_product(jac, x) - b).max()
            / (norm_J * np.abs(x).max() + np.abs(b).max()))


def test_block_solve_backward_stable_on_identity_cold_start():
    # lam = 8 on the flat cold-start guess, h = 0.01: growing and decaying
    # modes of rate 8 across 100 intervals
    spec = troesch(8.0)
    mesh = uniform_mesh(spec, 0.01)
    jac = assemble_jacobian(SegmentedProblem(spec.system, spec.bc, mesh,
                                             spec.domain))
    assert _backward_error(jac) <= 1e-12


def test_block_solve_backward_stable_on_three_zone_deep_layer():
    # the coarse three-zone continuation of acceptance criterion 6 to
    # lam = 50 (6,145 knots), where condensation lost every digit
    strategy = SteepGrowthZoneStrategy()
    coarse = RefinementConfig(M=0.1, h_min=1e-3, h_max=1e-2)
    spec = troesch(3.0)
    sol = solve_spec(spec, uniform_mesh(spec, 0.01), strategy,
                     NewtonConfig(), coarse)
    for lam in range(4, 51):
        spec = troesch(float(lam))
        sol = solve_spec(spec, sol.mesh, strategy, NewtonConfig(), coarse)
    assert sol.mesh.knot_count == 6145
    jac = assemble_jacobian(SegmentedProblem(spec.system, spec.bc, sol.mesh,
                                             spec.domain))
    assert _backward_error(jac) <= 1e-12


def test_package_import_loads_no_scipy():
    # the solver is numpy only; scipy would add its import time and memory
    # to every run
    src = str(pathlib.Path(stiffbvp.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import stiffbvp; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- boundary handling ----------------------------------------------------

def _off_end_mesh(transform=Transform()):
    """A 4-interval straight-line mesh of troesch's data in one zone, its
    ends at T = 1e-5 and 1 - 1e-5 instead of 0 and 1."""
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    mesh.T[0] = 1e-5
    mesh.T[-1] = 1.0 - 1e-5
    return EvolvingMesh(mesh.U, mesh.T, zones_of([transform] * 4))


def test_boundary_swap_requires_pin(troesch3):
    # both ends swap u1, which troesch pins (rows 0 and 1): those rows read
    # t_a - a and t_b - b, the off ends' t
    ok = _off_end_mesh(Transform(swap=1))
    r = assemble_residual(SegmentedProblem(troesch3.system, troesch3.bc, ok,
                                           troesch3.domain))
    np.testing.assert_allclose(r[-2:], [1e-5, -1e-5], rtol=1e-9)
    # u2 is pinned at neither end; a rising u2 keeps the SP2 zone's natural
    # step clean, so normalization leaves the mesh to the sweep
    U = ok.U.copy()
    U[:, 1] = 1.0 + ok.T
    bad = EvolvingMesh(U, ok.T, zones_of(
        [Transform(swap=2)] + [Transform(swap=1)] * 3))
    with pytest.raises(NonStationaryBoundary, match="component 2 on the a"):
        assemble_residual(SegmentedProblem(troesch3.system, troesch3.bc, bad,
                                           troesch3.domain))
    with pytest.raises(NonStationaryBoundary):
        solve_spec(troesch3, bad)


def test_solve_fixes_the_end_knots(troesch3):
    # without a swap the ends' t is the domain's
    sol = solve_spec(troesch3, _off_end_mesh())
    assert sol.mesh.T[0] == 0.0 and sol.mesh.T[-1] == 1.0
    # a swapped end's tau is the pinned value, exactly
    swapped = _off_end_mesh(Transform(swap=1))
    swapped.U[-1, 0] = 0.997
    sol = solve_spec(troesch3, swapped)
    assert sol.mesh.U[0, 0] == 0.0 and sol.mesh.U[-1, 0] == 1.0


@pytest.mark.parametrize("transform", [Transform(), Transform(swap=1)])
def test_residual_reads_fixed_ends(troesch3, transform):
    # the residual of a mesh whose ends are off is that of the same mesh
    # with its ends set: t for an unswapped end, the pinned u1 for a
    # swapped one
    off = _off_end_mesh(transform)
    off.U[0, 0], off.U[-1, 0] = 1e-3, 0.997
    exact = EvolvingMesh(off.U.copy(), off.T.copy(), off.zones)
    if transform.swap is None:
        exact.T[[0, -1]] = 0.0, 1.0
    else:
        exact.U[[0, -1], 0] = 0.0, 1.0
    r_off, r_exact = (
        assemble_residual(SegmentedProblem(troesch3.system, troesch3.bc,
                                           mesh, troesch3.domain))
        for mesh in (off, exact))
    np.testing.assert_array_equal(r_off, r_exact)


@pytest.mark.parametrize("problem", [
    pytest.param(lambda spec: _three_zone_problem(), id="I-to-SP1.FP2"),
    pytest.param(lambda spec: SegmentedProblem(
        spec.system, spec.bc, _off_end_mesh(), spec.domain), id="I"),
    pytest.param(lambda spec: SegmentedProblem(
        spec.system, spec.bc, _off_end_mesh(Transform(swap=1)),
        spec.domain), id="SP1")])
def test_end_rows_follow_the_chain_rule(troesch3, problem):
    # end_states and boundary_blocks skip the maps at an identity end; the
    # maps and the chain rule, written out, give the same bits
    problem = problem(troesch3)
    sweep = _Sweep(problem)
    view = sweep.zone_view(sweep.Q0)
    n = sweep.n
    (tr_a, _, _), (tr_b, _, _) = sweep.zones[0], sweep.zones[-1]
    q0, qm = view[0].q[:, 0], view[-1].q[:, -1]
    u_a, t_a = unmap_state(tr_a, q0, sweep.tau[0])
    u_b, t_b = unmap_state(tr_b, qm, sweep.tau[-1])
    for got, want in zip(sweep.end_states(view), (u_a, t_a, u_b, t_b)):
        assert np.array_equal(got, want)
    dg = np.zeros((n, 2 * n + 2))
    du = central_differences(lambda w: problem.bc.residual(w[:n], w[n:]),
                             np.concatenate([u_a, u_b]))
    dg[:, :n], dg[:, n + 1:-1] = du[:, :n], du[:, n:]
    for row, col in ((sweep.sub_left, n), (sweep.sub_right, -1)):
        if row is not None:
            dg[row] = 0.0
            dg[row, col] = 1.0
    C, D = sweep.boundary_blocks(view)
    assert np.array_equal(C, dg[:, :n + 1] @ state_jacobian(tr_a, q0)[:, :n])
    assert np.array_equal(D, dg[:, n + 1:] @ state_jacobian(tr_b, qm)[:, :n])


# -- Newton solver --------------------------------------------------------

def test_newton_config_validation():
    # an infinite tol would accept the initial guess as converged
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite and positive"):
            NewtonConfig(tol=tol)


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


def test_repair_that_repeats_the_failure_stops(monkeypatch):
    # the two-zone continuation of acceptance criterion 5 reaches lam = 123
    # (the mesh below, saved by export_solution) and fails at 124: the
    # sweep stalls, the repair merges 7 knots, refinement puts them back,
    # and the same sweep stalls at the same residual
    mesh = import_solution(
        pathlib.Path(__file__).parent / "data" / "two_zone_lam123.csv")
    sweeps = []
    run = trapezoid._Sweep.run

    def counted(self, cfg):
        sweeps.append(self.m + 1)
        return run(self, cfg)

    monkeypatch.setattr(trapezoid._Sweep, "run", counted)
    with pytest.raises(NonConvergence,
                       match=r"line search stalled .*123 knots") as exc:
        solve_spec(troesch(124.0), mesh, GrowthZoneStrategy(),
                   NewtonConfig(),
                   RefinementConfig(M=0.1, h_min=0.01, h_max=0.1))
    assert len(sweeps) <= 3
    assert sweeps[-1] == 123
    assert "outer iteration" in str(exc.value)


def test_failure_with_nothing_to_decimate_says_where():
    # on a fixed mesh the repair only decimates knots 1e-14 apart in their
    # natural variable, and the cold start has none: the sweep's failure is
    # raised with the outer loop's context
    spec = troesch(40.0)
    problem = SegmentedProblem(spec.system, spec.bc, uniform_mesh(spec, 0.1),
                               spec.domain)
    with pytest.raises(NonConvergence,
                       match=r"^line search stalled .* \(outer iteration 0, "
                             r"11 knots, no knots to decimate\)$") as exc:
        newton_solve(problem, rcfg=None)
    assert isinstance(exc.value.__cause__, NonConvergence)


def _large_three_zone_problem(knots, lam=6.0):
    """Troesch's lam = 6 solution interpolated onto `knots` uniform knots,
    tagged I | SP2 | SP1.FP2 with most knots in the SP2 zone."""
    spec = troesch(lam)
    sol = solve_spec(spec, uniform_mesh(spec, 1e-3), IdentityStrategy())
    T = np.linspace(0.0, 1.0, knots)
    U = np.column_stack([np.interp(T, sol.mesh.T, sol.mesh.U[:, k])
                         for k in range(2)])
    s, e = (int(i) for i in np.searchsorted(T, [0.1, 0.9]))
    zones = ((Transform(), 0, s), (Transform.parse("SP2"), s, e),
             (Transform.parse("SP1.FP2"), e, knots - 1))
    return SegmentedProblem(spec.system, spec.bc, EvolvingMesh(U, T, zones),
                            spec.domain)


def test_sweep_memory_budget():
    # a sweep holds the taus and the iterate from its construction on; a
    # Newton step adds its residual, the cyclic reduction's top rows and
    # whole-mesh coarse rows for one pair in 8, and the Jacobian's rows
    # only one batch at a time: measured 200 bytes per knot, against 209
    # when the coarse rows of every pair were held
    knots = 50_000
    problem = _large_three_zone_problem(knots)
    tracemalloc.start()
    try:
        sweep = _Sweep(problem)
        _, iters, norm = sweep.run(NewtonConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iters >= 2 and norm <= 1e-10
    assert peak / knots <= 220


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
