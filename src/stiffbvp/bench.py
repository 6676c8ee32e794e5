"""Benchmark protocols: lambda-continuation, error curves, the deep
layer, CSV export.

The continuation protocol measures how far a given configuration can be
pushed in the stiffness parameter: starting from lambda0, each solve warm
starts from the previous solution and lambda grows by a fixed increment
until a stop criterion fires.  The last successful lambda is the
configuration's stiffness resistance number (SRN).  The deep-layer
protocol continues Troesch's problem on a coarse three-zone mesh and
finishes with one warm-started solve at a fixed fine step.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import ColdStartFailure, ConfigError, StiffBvpError
from .mesh import EvolvingMesh, RefinementConfig, init_linear, merge_runs
from .problems import ProblemSpec, reference_lookup, troesch
from .strategy import (IdentityStrategy, SteepGrowthZoneStrategy,
                       TransformStrategy)
from .transform import Transform
from .trapezoid import NewtonConfig, SegmentedProblem, Solution, newton_solve

# the continuation oracle's reference step is this many times finer than
# the step under test, and its cold starts use this uniform step
_ORACLE_FINENESS = 100.0
_ORACLE_COLD_H = 0.01


class StopCriterion(Enum):
    ACCURACY = "accuracy"          # endpoint derivative off by >= 100%
    CONVERGENCE = "convergence"    # Newton failed to converge
    LAMBDA_CAP = "lambda-cap"      # safety ceiling reached


@dataclass
class SrnConfig:
    lambda0: float = 3.0
    delta_lambda: float = 1.0
    stop: StopCriterion = StopCriterion.ACCURACY
    strategy: TransformStrategy = field(default_factory=IdentityStrategy)
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    refinement: Optional[RefinementConfig] = None
    h0: float = 0.1                # cold-start uniform step
    lambda_cap: float = 200.0
    oracle: Optional["ContinuationOracle"] = None
    progress: bool = False

    def __post_init__(self):
        if not 0 < self.delta_lambda < math.inf:
            raise ConfigError("delta_lambda must be finite and positive, "
                              f"got {self.delta_lambda}")
        if not (self.lambda_cap > self.lambda0):
            raise ConfigError("lambda_cap must exceed lambda0")
        _check_step(self.h0)


@dataclass
class SrnResult:
    srn: Optional[float]
    stop_reason: StopCriterion
    per_lambda: List[dict]


def _check_step(h: float):
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"cold-start step h0 must be finite and positive, "
                          f"got {h!r}")


def uniform_mesh(spec: ProblemSpec, h: float) -> EvolvingMesh:
    """Cold-start guess: uniform knots, linear first component between the
    pinned endpoint values.  A step that puts more than MAX_KNOTS knots
    on the mesh raises ConfigError."""
    _check_step(h)
    a, b = spec.domain
    m = max(2, int(round((b - a) / h)))
    ua = spec.bc.pins.get(("a", 1), (None, 0.0))[1]
    ub = spec.bc.pins.get(("b", 1), (None, 0.0))[1]
    return init_linear(a, b, m, (ua, ub), n=spec.system.n)


def solve_spec(spec: ProblemSpec, mesh: EvolvingMesh,
               strategy: Optional[TransformStrategy] = None,
               newton: NewtonConfig = NewtonConfig(),
               rcfg: Optional[RefinementConfig] = None) -> Solution:
    problem = SegmentedProblem(spec.system, spec.bc, mesh, spec.domain)
    return newton_solve(problem, newton, rcfg, strategy=strategy)


def endpoint_derivatives(sol: Solution):
    """(u2(a), u2(b)) of a solution of a 2d first-order system."""
    return float(sol.mesh.U[0, 1]), float(sol.mesh.U[-1, 1])


class ContinuationOracle:
    """Reference values from the solver itself on a much finer mesh, for
    problem families without a solver-independent ``reference_fn``.

    Solutions are built by warm-started unit-step continuation in lambda
    with the three-zone strategy on a mesh whose natural steps are capped
    at ``h_ref``; results are cached per (h_ref, lambda).
    """

    def __init__(self, family: Callable[[float], ProblemSpec],
                 strategy: Optional[TransformStrategy] = None,
                 progress: bool = False):
        self.family = family
        self.strategy = strategy or SteepGrowthZoneStrategy()
        self.progress = progress
        self._chains = {}

    def endpoints(self, lam: float, h_ref: float):
        sol = self.solution(lam, h_ref)
        return endpoint_derivatives(sol)

    def solution(self, lam: float, h_ref: float) -> Solution:
        lam = float(lam)
        chain = self._chains.setdefault(float(h_ref), {})
        if lam in chain:
            return chain[lam]
        rcfg = RefinementConfig(M=0.1, h_min=h_ref, h_max=h_ref)
        below = [l for l in chain if l < lam]
        if below:
            cur = max(below)
            mesh = chain[cur].mesh
        else:
            cur = min(lam, 3.0)
            spec = self.family(cur)
            self._log(f"oracle cold start at lambda={cur:g}, h_ref={h_ref:g}")
            coarse = solve_spec(spec, uniform_mesh(spec, _ORACLE_COLD_H),
                                IdentityStrategy())
            mesh = coarse.mesh
            # descend to h_ref a decade at a time so each warm start's
            # correction stays below the next mesh's natural step
            h = max(_ORACLE_COLD_H, h_ref)
            while True:
                h = max(h / 10.0, h_ref)
                step = RefinementConfig(M=0.1, h_min=h, h_max=h)
                sol = solve_spec(spec, mesh, self.strategy, rcfg=step)
                mesh = sol.mesh
                if h <= h_ref:
                    break
            chain[cur] = sol
        while cur < lam - 1e-12:
            cur = min(cur + 1.0, lam)
            spec = self.family(cur)
            self._log(f"oracle continuation lambda={cur:g}, h_ref={h_ref:g}")
            sol = solve_spec(spec, mesh, self.strategy, rcfg=rcfg)
            chain[cur] = sol
            mesh = sol.mesh
        return chain[lam]

    def _log(self, msg):
        if self.progress:
            print(msg, file=sys.stderr)


def _rel_err(value: float, ref: Optional[float]) -> float:
    if ref is None or ref == 0:
        return math.nan
    return abs(value - ref) / abs(ref)


def _references(spec: ProblemSpec, oracle: Optional[ContinuationOracle],
                lam: float, h_ref: float):
    """Reference endpoint derivatives: the embedded table, then the
    family's solver-independent ``reference_fn``, then the oracle.  Runs
    without an oracle use the table only."""
    hit = reference_lookup(spec.reference, lam)
    if hit is not None and hit[0] is not None and hit[1] is not None:
        return hit
    if oracle is None:
        return (None, None) if hit is None else hit
    if spec.reference_fn is not None:
        return spec.reference_fn()
    return oracle.endpoints(lam, h_ref)


def run_continuation(family: Callable[[float], ProblemSpec],
                     cfg: SrnConfig) -> SrnResult:
    """Unit-step warm-started continuation in lambda.

    Returns the SRN (last lambda solved before the configured stop fired)
    together with per-lambda statistics.  A failure at lambda0 itself
    raises ColdStartFailure.
    """
    oracle = cfg.oracle
    if oracle is None and cfg.stop is StopCriterion.ACCURACY:
        oracle = ContinuationOracle(family, progress=cfg.progress)
    h_test = cfg.refinement.h_min if cfg.refinement is not None else cfg.h0
    h_ref = h_test / _ORACLE_FINENESS
    # lambda0 + k*delta_lambda, not a running sum, so that no rounding
    # drift creeps into lambda
    step = 0
    lam = cfg.lambda0
    warm = None
    rows: List[dict] = []
    srn = None
    reason = StopCriterion.LAMBDA_CAP
    while lam <= cfg.lambda_cap + 1e-12:
        spec = family(lam)
        mesh0 = warm if warm is not None else uniform_mesh(spec, cfg.h0)
        if cfg.progress:
            print(f"continuation lambda={lam:g} "
                  f"({mesh0.knot_count} knots warm start)", file=sys.stderr)
        try:
            sol = solve_spec(spec, mesh0, cfg.strategy, cfg.newton,
                             cfg.refinement)
        except StiffBvpError as exc:
            if warm is None:
                raise ColdStartFailure(
                    f"lambda0={cfg.lambda0:g} failed: {exc}")
            reason = StopCriterion.CONVERGENCE
            break
        e0 = e1 = math.nan
        if oracle is not None or spec.reference is not None:
            ref0, ref1 = _references(spec, oracle, lam, h_ref)
            v0, v1 = endpoint_derivatives(sol)
            e0, e1 = _rel_err(v0, ref0), _rel_err(v1, ref1)
        if cfg.stop is StopCriterion.ACCURACY and (e0 >= 1.0 or e1 >= 1.0):
            reason = StopCriterion.ACCURACY
            break
        rows.append({"lambda": lam, "rel_err_u2_0": e0, "rel_err_u2_1": e1,
                     "mesh_size": sol.mesh.knot_count,
                     "newton_iters": sol.iterations})
        srn = lam
        warm = sol.mesh
        step += 1
        lam = cfg.lambda0 + step * cfg.delta_lambda
    return SrnResult(srn=srn, stop_reason=reason, per_lambda=rows)


def deep_layer(lam: float, h_fine: float = 1.76e-4,
               progress: bool = False) -> Solution:
    """Troesch's problem at lam through its boundary layer: unit-step
    continuation from min(3, lam) with the three-zone strategy on a coarse
    adaptive mesh (natural steps 1e-3 to 1e-2, cold start h0 = 0.01), the
    last step partial for a non-integer lam, then one warm-started solve
    at the fixed natural step h_fine.  A bad lam or h_fine raises
    ConfigError before any solve."""
    fine = RefinementConfig(M=0.1, h_min=h_fine, h_max=h_fine)
    spec = troesch(lam)
    strategy = SteepGrowthZoneStrategy()
    newton = NewtonConfig()
    coarse = RefinementConfig(M=0.1, h_min=1e-3, h_max=1e-2)
    cur = min(3.0, lam)
    start = troesch(cur)
    sol = solve_spec(start, uniform_mesh(start, 0.01), strategy, newton,
                     coarse)
    while cur < lam:
        cur = min(cur + 1.0, lam)
        if progress:
            print(f"continuation lambda={cur:g} ({sol.mesh.knot_count} "
                  "knots)", file=sys.stderr)
        sol = solve_spec(troesch(cur), sol.mesh, strategy, newton, coarse)
    return solve_spec(spec, sol.mesh, strategy, newton, fine)


def error_curve(family: Callable[[float], ProblemSpec],
                lambdas: Sequence[float],
                strategy: Optional[TransformStrategy] = None,
                newton: NewtonConfig = NewtonConfig(),
                rcfg: Optional[RefinementConfig] = None,
                h0: float = 0.1,
                progress: bool = False) -> List[dict]:
    """Relative endpoint-derivative errors per lambda (cold starts).

    Failed solves produce a row with ``failed=True`` and no numbers.
    """
    oracle = ContinuationOracle(family, progress=progress)
    h_test = rcfg.h_min if rcfg is not None else h0
    h_ref = h_test / _ORACLE_FINENESS
    rows = []
    for lam in lambdas:
        spec = family(lam)
        if progress:
            print(f"error curve lambda={lam:g}", file=sys.stderr)
        try:
            sol = solve_spec(spec, uniform_mesh(spec, h0), strategy,
                             newton, rcfg)
        except StiffBvpError:
            rows.append({"lambda": lam, "rel_err_u2_0": None,
                         "rel_err_u2_1": None, "mesh_size": None,
                         "failed": True})
            continue
        ref0, ref1 = _references(spec, oracle, lam, h_ref)
        v0, v1 = endpoint_derivatives(sol)
        rows.append({"lambda": lam,
                     "rel_err_u2_0": _rel_err(v0, ref0),
                     "rel_err_u2_1": _rel_err(v1, ref1),
                     "mesh_size": sol.mesh.knot_count,
                     "failed": False})
    return rows


def write_error_curve(rows: Sequence[dict], path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "rel_err_0", "rel_err_1", "mesh_size",
                         "status"])
        for row in rows:
            if row.get("failed"):
                writer.writerow(["%.17g" % row["lambda"], "", "", "",
                                 "failed"])
            else:
                writer.writerow(["%.17g" % row["lambda"],
                                 "%.17g" % row["rel_err_u2_0"],
                                 "%.17g" % row["rel_err_u2_1"],
                                 row["mesh_size"], "ok"])


def write_srn_result(result: SrnResult, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "rel_err_0", "rel_err_1", "mesh_size",
                         "newton_iters"])
        for row in result.per_lambda:
            writer.writerow(["%.17g" % row["lambda"],
                             "%.17g" % row["rel_err_u2_0"],
                             "%.17g" % row["rel_err_u2_1"],
                             row["mesh_size"], row["newton_iters"]])
        writer.writerow(["srn",
                         "" if result.srn is None else "%.17g" % result.srn,
                         result.stop_reason.value, "", ""])


def export_solution(solution: Solution, path):
    """CSV of the knots in original variables, 17 significant digits.

    The transform column carries the tag of the interval starting at the
    knot; the final knot repeats the last interval's tag.
    """
    mesh = solution.mesh
    n = mesh.n
    labels = []
    for tr, s, e in mesh.zones:
        labels += [tr.label()] * (e - s)
    labels.append(labels[-1])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"u{j + 1}" for j in range(n)]
                        + ["transform"])
        for i in range(mesh.knot_count):
            writer.writerow(["%.17g" % mesh.T[i]]
                            + ["%.17g" % v for v in mesh.U[i]]
                            + [labels[i]])


def import_solution(path) -> EvolvingMesh:
    """Inverse of export_solution (bit-exact at 64-bit).  A malformed file,
    including a non-finite value or a decreasing t, raises ConfigError
    naming the file and its line; one with fewer than 2 knots, naming the
    file and the knot count."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        n = len(next(reader, [])) - 2
        if n < 1:
            raise ConfigError(f"{path}: line 1: expected the header "
                              f"t,u1,...,transform")
        U_rows, T_vals, transforms = [], [], []
        for row in reader:
            try:
                if len(row) != n + 2:
                    raise ValueError(f"{len(row)} fields, expected {n + 2}")
                values = [float(v) for v in row[:1 + n]]
                if not np.isfinite(values).all():
                    raise ValueError("non-finite value")
                if T_vals and values[0] < T_vals[-1]:
                    raise ValueError(f"t decreases to {row[0]}")
                T_vals.append(values[0])
                U_rows.append(values[1:])
                transforms.append(Transform.parse(row[1 + n]))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: line {reader.line_num}: {exc}") from exc
    if len(T_vals) < 2:
        raise ConfigError(f"{path}: knot count {len(T_vals)}, a solution "
                          "needs at least 2")
    zones = merge_runs((tr, i, i + 1) for i, tr in enumerate(transforms[:-1]))
    return EvolvingMesh(np.array(U_rows), np.array(T_vals), zones)
