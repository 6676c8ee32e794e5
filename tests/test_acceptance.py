"""End-to-end acceptance suite.

Each test prints one machine-greppable pass/fail line for its criterion.
The suite covers: the transformation operator algebra, second-order
convergence of the discretization, fixed-mesh Troesch accuracy anchors,
continuation stiffness-resistance numbers, adaptive two-zone continuation
to high stiffness, a deep three-zone boundary-layer solve, and structural
invariants (zone ordering, mesh soundness, Jacobian consistency).
"""

import time

import numpy as np

from stiffbvp import (GrowthZoneStrategy, IdentityStrategy, NewtonConfig,
                      RefinementConfig, SegmentedProblem, SrnConfig,
                      SteepGrowthZoneStrategy, StopCriterion, Transform,
                      apply, assemble_jacobian, deep_layer,
                      linear_verification, run_continuation, solve_spec,
                      troesch, uniform_mesh)
from stiffbvp.mesh import normalize, refine
from stiffbvp.trapezoid import _Sweep

from conftest import ENERGY_REFS, rel_err, zone_summary


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_operator_algebra():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    lam = 5.0
    system = troesch(lam).system
    worst = 0.0

    def track(got, want):
        nonlocal worst
        got, want = np.asarray(got), np.asarray(want)
        denom = np.maximum(np.abs(want), 1e-30)
        worst = max(worst, float(np.max(np.abs(got - want) / denom)))

    flip2 = apply(Transform(flips={2}), apply(Transform(flips={2}), system))
    swap1 = apply(Transform(swap=1), apply(Transform(swap=1), system))
    comm_a = apply(Transform(swap=1), apply(Transform(flips={2}), system))
    comm_b = apply(Transform(flips={2}), apply(Transform(swap=1), system))
    inverse_eq = apply(Transform(swap=1, flips={2}), system)
    for _ in range(1000):
        u = rng.uniform(0.05, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        t = rng.uniform(0, 1)
        track(flip2.rhs(u, t), system.rhs(u, t))
        track(swap1.rhs(u, t), system.rhs(u, t))
        track(comm_a.rhs(u, t), comm_b.rhs(u, t))
        # SP1.FP2 equals the inverse-equation form
        #     t'(u) = w2,  w2'(u) = -lam*sinh(lam*u)*w2**3
        q = np.array([t, u[1]])
        w = u[0]
        track(inverse_eq.rhs(q, w),
              [u[1], -lam * np.sinh(lam * w) * u[1] ** 3])
    elapsed = time.time() - t0
    _report(1, worst < 1e-10 and elapsed < 5,
            f"operator algebra max rel dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_order_verification():
    t0 = time.time()
    spec = linear_verification()
    errs = []
    for h in (0.02, 0.01):
        sol = solve_spec(spec, uniform_mesh(spec, h), IdentityStrategy())
        errs.append(float(np.max(np.abs(sol.mesh.U.T
                                        - spec.exact(sol.mesh.T)))))
    ratio = errs[0] / errs[1]
    elapsed = time.time() - t0
    _report(2, 3.5 <= ratio <= 4.5 and elapsed < 5,
            f"error ratio h=0.02/h=0.01 is {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_3_fixed_mesh_accuracy_anchors():
    t0 = time.time()
    spec = troesch(3.0)
    ref = ENERGY_REFS[3.0][0]
    rels = []
    for h in (1e-2, 1e-3):
        sol = solve_spec(spec, uniform_mesh(spec, h), IdentityStrategy(),
                         NewtonConfig())
        rels.append(rel_err(sol.mesh.U[0, 1], ref))
    elapsed = time.time() - t0
    ok = (5.363e-4 / 3 <= rels[0] <= 5.363e-4 * 3
          and 5.361e-6 / 3 <= rels[1] <= 5.361e-6 * 3
          and elapsed < 30)
    _report(3, ok,
            f"rel errs {rels[0]:.3e} (target 5.363e-4 x3), "
            f"{rels[1]:.3e} (target 5.361e-6 x3), {elapsed:.1f}s")


def test_criterion_4_srn_anchors():
    t0 = time.time()
    srn_coarse = run_continuation(troesch, SrnConfig(h0=0.1)).srn
    srn_fine = run_continuation(troesch, SrnConfig(h0=0.01)).srn
    elapsed = time.time() - t0
    ok = (abs(srn_coarse - 5) <= 1 and abs(srn_fine - 8) <= 1
          and elapsed < 120)
    _report(4, ok,
            f"SRN(h=0.1)={srn_coarse:g} (target 5+-1), "
            f"SRN(h=0.01)={srn_fine:g} (target 8+-1), {elapsed:.1f}s")


def test_criterion_5_adaptive_two_zone_continuation():
    t0 = time.time()
    cfg = SrnConfig(strategy=GrowthZoneStrategy(),
                    stop=StopCriterion.CONVERGENCE,
                    refinement=RefinementConfig(M=0.1, h_min=0.01, h_max=0.1),
                    h0=0.1, lambda_cap=200.0)
    result = run_continuation(troesch, cfg)
    max_mesh = max(row["mesh_size"] for row in result.per_lambda)
    elapsed = time.time() - t0
    ok = result.srn >= 46 and max_mesh <= 240 and elapsed < 120
    _report(5, ok,
            f"continuation reached lambda={result.srn:g} (need >= 46), "
            f"max mesh {max_mesh} (limit 240), {elapsed:.1f}s")


def test_criterion_6_three_zone_deep_layer():
    t0 = time.time()
    sol = deep_layer(50.0)
    e = rel_err(sol.mesh.U[0, 1], 1.542999878e-21)
    knots = sol.mesh.knot_count
    elapsed = time.time() - t0
    ok = knots >= 10 ** 4 and e <= 1e-3 and elapsed < 300
    _report(6, ok,
            f"lambda=50: {knots} knots (need >= 1e4), "
            f"u2(0) rel err {e:.2e} (limit 1e-3), {elapsed:.1f}s")


def test_criterion_7_structural_invariants():
    t0 = time.time()
    newton = NewtonConfig()
    rcfg = RefinementConfig(M=0.1, h_min=0.005, h_max=0.1)
    strat = SteepGrowthZoneStrategy()
    spec = troesch(3.0)
    sol = solve_spec(spec, uniform_mesh(spec, 0.1), strat, newton, rcfg)
    for lam in range(4, 16):
        spec = troesch(float(lam))
        sol = solve_spec(spec, sol.mesh, strat, newton, rcfg)

    # zone ordering: identity, then 2-swap, then 1-swap with 2-flip
    labels = [label for label, _ in zone_summary(sol.mesh)]
    zones_ok = labels == ["I", "SP2", "SP1.FP2"]

    # mesh invariants: sorted strictly in t, natural steps within bounds
    steps = np.abs(sol.mesh.natural_steps())
    mesh_ok = ((np.diff(sol.mesh.T) > 0).all()
               and (steps <= rcfg.h_max * (1 + 1e-9)).all()
               and sol.mesh.T[0] == 0.0 and sol.mesh.T[-1] == 1.0)
    renorm = normalize(sol.mesh, merge_tol=rcfg.h_min / 100)
    refi = refine(renorm, spec.system, rcfg)
    mesh_ok &= (renorm.knot_count == sol.mesh.knot_count
                and refi.knot_count == renorm.knot_count)

    # Jacobian of the transformed segmented problem against a dense FD oracle
    problem = SegmentedProblem(spec.system, spec.bc, sol.mesh, spec.domain)
    sweep = _Sweep(problem)
    J = assemble_jacobian(problem).todense()
    Q0 = sweep.Q0
    J_fd = np.empty_like(J)
    for col in range(Q0.size):
        x = abs(Q0.ravel()[col])
        h = 1e-4 * max(x, 1e-8)

        def central(step):
            e = np.zeros(Q0.size)
            e[col] = step
            rp = sweep.residual(Q0 + e.reshape(Q0.shape))
            rm = sweep.residual(Q0 - e.reshape(Q0.shape))
            return (rp - rm) / (2 * step)

        # Richardson extrapolation kills the O(h**2) truncation term
        J_fd[:, col] = (4.0 * central(h / 2) - central(h)) / 3.0
    scale = np.maximum(np.abs(J_fd), 1.0)
    jac_dev = float(np.max(np.abs(J - J_fd) / scale))
    jac_ok = jac_dev < 1e-5

    elapsed = time.time() - t0
    _report(7, zones_ok and mesh_ok and jac_ok,
            f"zones {labels}, mesh invariants {'ok' if mesh_ok else 'BAD'}, "
            f"Jacobian dev {jac_dev:.2e} (limit 1e-5), {elapsed:.1f}s")
