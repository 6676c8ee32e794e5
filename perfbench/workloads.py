"""The benchmark's workloads: three Troesch protocols driven through the
library's public API, their answer checks, and the layer targets a traced
run wraps.

Every workload is a closed loop in one process: each solve waits for the
previous one, because it warm starts from its mesh.  The solver uses no
randomness, so the inputs are the same for every seed; the seed only draws
the vector of the fixed-mesh linear-solve probe.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import stiffbvp
from stiffbvp import (ContinuationOracle, GrowthZoneStrategy, IdentityStrategy,
                      NewtonConfig, RefinementConfig, SegmentedProblem,
                      SrnConfig, SteepGrowthZoneStrategy, StopCriterion,
                      assemble_jacobian, assemble_residual, normalize,
                      reference_lookup, refine, run_continuation,
                      solve_linear_block, troesch, uniform_mesh)
from stiffbvp import bench as lib_bench
from stiffbvp import mesh as lib_mesh
from stiffbvp import strategy as lib_strategy
from stiffbvp import trapezoid as lib_trapezoid

from spans import Tracer, has_ancestor


def _points(args, result):
    return int(np.shape(args[1])[-1])


def layer_targets():
    """(module, name, span, measure) for every library name the traced run
    wraps.  Each is looked up by the library at call time, so the wrapper
    sees every call made through it."""
    knots_in = lambda args, out: args[0].knot_count - out.knot_count
    knots_out = lambda args, out: out.knot_count - args[0].knot_count
    targets = [
        (lib_bench, "newton_solve", "trapezoid.newton_solve",
         lambda args, sol: sol.diagnostics.get("outer_iterations", 0)),
        (lib_trapezoid, "solve_linear_block", "trapezoid.linear_solve", None),
        (lib_trapezoid, "normalize", "mesh.normalize", knots_in),
        (lib_trapezoid, "refine", "mesh.refine", knots_out),
    ]
    for module, caller in ((lib_trapezoid, "trapezoid"), (lib_mesh, "mesh"),
                           (lib_strategy, "strategy")):
        targets.append((module, "eval_rhs_batch", f"ode_system.rhs.{caller}",
                        _points))
    for module in (lib_trapezoid, lib_mesh):
        targets += [(module, "map_state", "transform.map", None),
                    (module, "apply", "transform.apply", None)]
    targets.append((lib_trapezoid, "unmap_state", "transform.unmap", None))
    return targets


class TracedStrategy:
    """Strategy object handed to the library in place of ``inner``; its
    ``assign`` records a ``strategy.assign`` span."""

    def __init__(self, inner, tracer: Tracer):
        self.name = inner.name
        self.assign = tracer.wrap("strategy.assign", inner.assign)


@dataclass
class Outcome:
    """What one pass of a protocol produced."""

    srn: float
    spec: object                 # final ProblemSpec
    mesh: object                 # final EvolvingMesh
    strategy: object             # the unwrapped strategy used
    probe_rcfg: RefinementConfig
    merge_tol: float
    max_knots: int
    u2_0: float                  # u2(0) of the reference solve
    u2_0_ref: float              # solver-independent value at ref_lam
    ref_lam: float

    @property
    def u2_0_rel_err(self):
        return abs(self.u2_0 - self.u2_0_ref) / abs(self.u2_0_ref)


def _primary_solutions(ctx):
    """(lambda, spec, Solution) of this pass's successful solves outside
    the oracle, in call order.  ``ctx.solutions`` holds every successful
    solve in call order; solves never nest, so it pairs with the
    ``bench.solve`` spans in start order."""
    spans = ctx.tracer.spans
    out = []
    it = iter(ctx.solutions)
    for i in range(ctx.first_span, len(spans)):
        span = spans[i]
        if span[0] != "bench.solve" or not span[5]:
            continue
        spec, sol = next(it)
        if not has_ancestor(spans, i, "bench.oracle"):
            out.append((spec.system.params["lam"], spec, sol))
    return out


def deep_layer_lam50(ctx) -> Outcome:
    """Acceptance criterion 6: three-zone coarse continuation from lambda 3
    to 50, then one solve at the fine natural step 1.76e-4."""
    inner = SteepGrowthZoneStrategy()
    strat = TracedStrategy(inner, ctx.tracer)
    newton = NewtonConfig()
    coarse = RefinementConfig(M=0.1, h_min=1e-3, h_max=1e-2)
    spec = troesch(3.0)
    sol = lib_bench.solve_spec(spec, uniform_mesh(spec, 0.01), strat, newton,
                               coarse)
    for lam in range(4, 51):
        spec = troesch(float(lam))
        sol = lib_bench.solve_spec(spec, sol.mesh, strat, newton, coarse)
    fine = RefinementConfig(M=0.1, h_min=1.76e-4, h_max=1.76e-4)
    with ctx.tracer.span("bench.fine_solve"):
        sol = lib_bench.solve_spec(spec, sol.mesh, strat, newton, fine)
    ref = reference_lookup(spec.reference, 50.0)[0]
    return Outcome(srn=50.0, spec=spec, mesh=sol.mesh, strategy=inner,
                   probe_rcfg=fine, merge_tol=fine.h_min / 100,
                   max_knots=sol.mesh.knot_count,
                   u2_0=float(sol.mesh.U[0, 1]), u2_0_ref=ref, ref_lam=50.0)


def two_zone_continuation(ctx) -> Outcome:
    """Acceptance criterion 5: two-zone adaptive continuation until Newton
    fails, capped at lambda 200."""
    inner = GrowthZoneStrategy()
    rcfg = RefinementConfig(M=0.1, h_min=0.01, h_max=0.1)
    cfg = SrnConfig(strategy=TracedStrategy(inner, ctx.tracer),
                    stop=StopCriterion.CONVERGENCE, refinement=rcfg,
                    h0=0.1, lambda_cap=200.0)
    result = run_continuation(troesch, cfg)
    solved = _primary_solutions(ctx)
    _, spec, last = [x for x in solved if x[0] == result.srn][-1]
    # the highest tabulated lambda reached: 100 on the seed
    table = spec.reference.entries
    ref_lam = max(l for l in table if table[l][0] is not None
                  and l <= result.srn)
    at_ref = [sol for lam, _, sol in solved if lam == ref_lam][-1]
    return Outcome(srn=result.srn, spec=spec, mesh=last.mesh, strategy=inner,
                   probe_rcfg=rcfg, merge_tol=rcfg.h_min / 100,
                   max_knots=max(r["mesh_size"] for r in result.per_lambda),
                   u2_0=float(at_ref.mesh.U[0, 1]),
                   u2_0_ref=table[ref_lam][0], ref_lam=ref_lam)


def srn_identity_accuracy(ctx) -> Outcome:
    """Acceptance criterion 4, h0 = 0.1 anchor: identity continuation until
    the endpoint derivatives are off by 100% against the continuation
    oracle at h_ref = 1e-3."""
    inner = IdentityStrategy()
    oracle = ContinuationOracle(
        troesch, strategy=TracedStrategy(SteepGrowthZoneStrategy(),
                                         ctx.tracer))
    oracle.endpoints = ctx.tracer.wrap("bench.oracle", oracle.endpoints)
    cfg = SrnConfig(h0=0.1, strategy=TracedStrategy(inner, ctx.tracer),
                    oracle=oracle)
    result = run_continuation(troesch, cfg)
    solved = _primary_solutions(ctx)
    lam, spec, last = [x for x in solved if x[0] == result.srn][-1]
    return Outcome(srn=result.srn, spec=spec, mesh=last.mesh, strategy=inner,
                   probe_rcfg=RefinementConfig(M=0.1, h_min=0.1, h_max=0.1),
                   merge_tol=0.0,
                   max_knots=max(r["mesh_size"] for r in result.per_lambda),
                   u2_0=float(last.mesh.U[0, 1]),
                   u2_0_ref=troesch_u2_0(lam), ref_lam=lam)


def _log_sinh(x):
    return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0)


def troesch_u2_0(lam: float) -> float:
    """u2(0) of Troesch's problem from its first integral, independent of
    the solver.

    u2**2 = s**2 + 4*sinh(lam*u1/2)**2 with s = u2(0), and t(u1 = 1) = 1.
    Substituting sinh(lam*u1/2) = (s/2)*sinh(v) gives

        lam = integral_0^V dv / sqrt(1 + ((s/2)*sinh v)**2),
        V = asinh(sinh(lam/2) / (s/2)),

    whose integrand is smooth; composite Gauss-Legendre evaluates it in log
    space and bisection on log s finds the root.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)

    def excess(log_s):
        log_half = log_s - math.log(2.0)
        x = float(_log_sinh(lam / 2)) - log_half      # log(sinh(lam/2)/(s/2))
        top = math.asinh(math.exp(x)) if x < 30 else x + math.log(2.0)
        edges = np.linspace(0.0, top, 257)
        rad = 0.5 * np.diff(edges)[:, None]
        v = 0.5 * (edges[1:] + edges[:-1])[:, None] + rad * nodes
        with np.errstate(over="ignore"):
            f = 1.0 / np.sqrt(1.0 + np.exp(2.0 * (log_half + _log_sinh(v))))
        return float(np.sum(rad * weights * f)) - lam

    # excess is positive at lo and negative at hi
    lo, hi = math.log(1e-300), math.log(10.0 * lam)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.exp(mid)
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: Callable
    nominal_pass_s: float        # seed wall time of one pass, 1 BLAS thread
    setup_lam: float
    setup_h0: float
    setup_strategy: str
    check: Callable              # Outcome -> {check name: passed}


def _check_srn_identity(o: Outcome):
    return {"srn_5_pm_1": abs(o.srn - 5) <= 1}


def _check_two_zone(o: Outcome):
    return {"srn_ge_46": o.srn >= 46, "max_mesh_le_240": o.max_knots <= 240}


def _check_deep_layer(o: Outcome):
    return {"knots_ge_1e4": o.mesh.knot_count >= 10 ** 4,
            "u2_0_rel_err_le_1e-3": o.u2_0_rel_err <= 1e-3}


WORKLOADS = {w.name: w for w in (
    Workload(
        "deep_layer_lam50",
        "Headline lambda=50 three-zone solve on a 218k-knot mesh: large-array "
        "FD Jacobian and linear solve dominate; no oracle.",
        deep_layer_lam50, 22.0, 3.0, 0.01, "SteepGrowthZoneStrategy",
        _check_deep_layer),
    Workload(
        "two_zone_continuation",
        "122 warm-started two-zone solves on meshes under 130 knots: per-call "
        "Python overhead dominates, linear solve is about 4%.",
        two_zone_continuation, 5.0, 3.0, 0.1, "GrowthZoneStrategy",
        _check_two_zone),
    Workload(
        "srn_identity_accuracy",
        "Identity SRN anchor h0=0.1: the continuation oracle re-solving at "
        "h_ref=1e-3 is 97% of the time; the other two bypass it.",
        srn_identity_accuracy, 2.2, 3.0, 0.1, "IdentityStrategy",
        _check_srn_identity),
)}


@dataclass
class PassContext:
    tracer: Tracer
    first_span: int              # index of the pass's first span
    solutions: list              # (spec, Solution) of each successful solve


def time_probe(fn, min_total=0.3, min_reps=3, max_reps=500):
    """Median wall time of ``fn()`` in seconds, and its last result."""
    times = []
    start = time.perf_counter()
    while len(times) < max_reps and (len(times) < min_reps or
                                     time.perf_counter() - start < min_total):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def block_apply(jac, x):
    """J @ x from the block matrices, O(m n^2): the interval rows
    A[i] x_i + B[i] x_{i+1}, then the boundary rows C x_0 + D x_m."""
    rows = (np.einsum("ijk,ik->ij", jac.A, x[:-1])
            + np.einsum("ijk,ik->ij", jac.B, x[1:]))
    return np.concatenate([rows.ravel(), jac.C @ x[0] + jac.D @ x[-1]])


def probes(outcome: Outcome, seed: int) -> dict:
    """Layer costs on the workload's final mesh, timed through the public
    functions with nothing wrapped.  The linear-solve probe solves J x = b
    for b = J x_true with x_true drawn from ``seed``."""
    spec, mesh = outcome.spec, outcome.mesh
    problem = SegmentedProblem(spec.system, spec.bc, mesh, spec.domain)
    res_s, _ = time_probe(lambda: assemble_residual(problem))
    jac_s, jac = time_probe(lambda: assemble_jacobian(problem))
    m, n = mesh.interval_count, mesh.n
    x_true = np.random.default_rng(seed).standard_normal((m + 1, n))
    b = block_apply(jac, x_true)
    lin_s, x = time_probe(lambda: solve_linear_block(
        jac, b[:m * n].reshape(m, n), b[m * n:]))
    norm_s, _ = time_probe(lambda: normalize(mesh,
                                             merge_tol=outcome.merge_tol))
    ref_s, _ = time_probe(lambda: refine(mesh, spec.system,
                                         outcome.probe_rcfg))
    asg_s, _ = time_probe(lambda: outcome.strategy.assign(mesh, spec.system,
                                                          spec.bc))
    return {
        "probe.knots": mesh.knot_count,
        "probe.residual_ms": 1e3 * res_s,
        "probe.jacobian_ms": 1e3 * jac_s,
        "probe.linear_solve_ms": 1e3 * lin_s,
        "probe.linear_solve_backward_err":
            float(np.linalg.norm(block_apply(jac, x) - b) / np.linalg.norm(b)),
        "probe.linear_solve_forward_err":
            float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true)),
        "probe.normalize_ms": 1e3 * norm_s,
        "probe.refine_ms": 1e3 * ref_s,
        "probe.assign_ms": 1e3 * asg_s,
    }


def setup_code(w: Workload, src: str) -> str:
    """Program a fresh interpreter runs to time the workload's set-up: the
    import, problem and strategy construction and the cold-start mesh."""
    return (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {src!r})\n"
        "import stiffbvp\n"
        f"spec = stiffbvp.troesch({w.setup_lam!r})\n"
        f"strategy = stiffbvp.{w.setup_strategy}()\n"
        f"mesh = stiffbvp.uniform_mesh(spec, {w.setup_h0!r})\n"
        "print(repr(time.perf_counter() - t0))\n")


def warm_up():
    """One small solve so first-call costs do not land in the first pass."""
    spec = troesch(3.0)
    stiffbvp.solve_spec(spec, uniform_mesh(spec, 0.1), IdentityStrategy())
