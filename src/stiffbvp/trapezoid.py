"""Trapezoidal discretization over a transformed mesh, solved by damped Newton.

Each interval's equation is written in that interval's natural variables:

    (q_{i+1} - q_i) / (tau_{i+1} - tau_i)
        = (T(F)(q_{i+1}, tau_{i+1}) + T(F)(q_i, tau_i)) / 2

The unknowns follow the natural-unknowns convention: the free coordinates
of knot i > 0 are the natural dependent variables of the interval
preceding it, and those of knot 0 belong to the first interval.  The
natural independent value tau of every knot stays fixed during a Newton
sweep, so the unknown count is always (m+1)*n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import (ConfigError, EvaluationError, NonConvergence,
                     NonStationaryBoundary, SingularLinearSystem,
                     SingularStepError)
from .mesh import EvolvingMesh, RefinementConfig, normalize, refine
from .ode_system import (BoundaryConditions, OdeSystem, central_differences,
                         eval_jacobian_batch, eval_rhs_batch)
from .transform import (Transform, apply, map_state, state_jacobian,
                        unmap_state)

# knots per batched Jacobian evaluation: bounds the temporaries of the
# composed swap/flip Jacobians on large meshes
_JAC_CHUNK = 32768

MAX_ITERS = 50              # Newton steps per sweep
MIN_DAMPING = 2.0 ** -20    # line-search floor; it starts at the full step
MAX_OUTER = 40              # transform/refinement outer iterations


@dataclass
class SegmentedProblem:
    """An ODE system, its boundary conditions, a transformed mesh iterate,
    and the fixed domain [a, b] of the original independent variable."""

    system: OdeSystem
    bc: BoundaryConditions
    mesh: EvolvingMesh
    domain: Tuple[float, float]

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ConfigError("domain must satisfy a < b")
        if self.mesh.n != self.system.n:
            raise ConfigError("mesh dimension does not match system")


@dataclass(frozen=True)
class NewtonConfig:
    """A sweep has converged once its max-norm residual is at most tol."""

    tol: float = 1e-10

    def __post_init__(self):
        if not (self.tol > 0):
            raise ConfigError("tol must be positive")


@dataclass
class Solution:
    """Converged iterate in original variables plus run statistics."""

    mesh: EvolvingMesh
    iterations: int
    residual_norm: float
    diagnostics: dict = field(default_factory=dict)


@dataclass
class BlockJacobian:
    """Block-bidiagonal Newton matrix.

    Row block i (i < m) holds interval i's residual derivatives: ``A[i]``
    with respect to knot i's free coordinates and ``B[i]`` with respect to
    knot i+1's.  The last row block holds the boundary residual
    derivatives ``C`` (knot 0) and ``D`` (knot m).
    """

    A: np.ndarray       # (m, n, n)
    B: np.ndarray       # (m, n, n)
    C: np.ndarray       # (n, n)
    D: np.ndarray       # (n, n)

    def todense(self) -> np.ndarray:
        m, n, _ = self.A.shape
        J = np.zeros(((m + 1) * n, (m + 1) * n))
        for i in range(m):
            J[i * n:(i + 1) * n, i * n:(i + 1) * n] = self.A[i]
            J[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = self.B[i]
        J[m * n:, :n] = self.C
        J[m * n:, m * n:] = self.D
        return J


def check_boundary_transforms(mesh: EvolvingMesh, bc: BoundaryConditions):
    """Reject swaps on boundary intervals whose component is not pinned.

    Returns the substituted bc rows (left_row, right_row); each is None
    when the corresponding end keeps its original condition.
    """
    sub = []
    for side, tr in (("a", mesh.zones[0][0]), ("b", mesh.zones[-1][0])):
        if tr.swap is None:
            sub.append(None)
            continue
        pin = bc.pins.get((side, tr.swap))
        if pin is None:
            raise NonStationaryBoundary(
                f"swap of component {tr.swap} on the {side}-side interval "
                f"needs a Dirichlet condition pinning it there")
        sub.append(int(pin[0]))
    return tuple(sub)


def anchor_pins(mesh: EvolvingMesh, bc: BoundaryConditions, a: float,
                b: float) -> EvolvingMesh:
    """Impose Dirichlet data that acts as a fixed natural coordinate.

    When a boundary interval carries a swap, the pinned component becomes
    that knot's tau and is set to the pinned value exactly; without a swap
    the knot's t is re-anchored to the domain end."""
    out = mesh.copy()
    tr0, trm = out.zones[0][0], out.zones[-1][0]
    if tr0.swap is not None:
        pin = bc.pins.get(("a", tr0.swap))
        if pin is not None:
            out.U[0, tr0.swap - 1] = pin[1]
    else:
        out.T[0] = a
    if trm.swap is not None:
        pin = bc.pins.get(("b", trm.swap))
        if pin is not None:
            out.U[-1, trm.swap - 1] = pin[1]
    else:
        out.T[-1] = b
    return out


class _Sweep:
    """One fixed-structure Newton solve: mesh topology, zones and all knot
    tau values are frozen; only the free coordinates move."""

    def __init__(self, problem: SegmentedProblem):
        mesh = problem.mesh
        self.system = problem.system
        self.bc = problem.bc
        self.a, self.b = problem.domain
        self.n = mesh.n
        self.m = mesh.interval_count
        self.zones = mesh.zones
        self.sub_left, self.sub_right = check_boundary_transforms(
            mesh, problem.bc)
        self.tsys = {tr: apply(tr, self.system) for tr, _, _ in self.zones}
        # knot i is owned by interval i-1 (knot 0 by interval 0), so a zone
        # owns the knots after its start through its stop
        self.owned = [(tr, slice(s + 1 if k else 0, e + 1))
                      for k, (tr, s, e) in enumerate(self.zones)]
        # freeze taus and collect the free coordinates
        self.tau = np.empty(self.m + 1)
        self.Q0 = np.empty((self.m + 1, self.n))
        for owner, knots in self.owned:
            q, self.tau[knots] = map_state(owner, mesh.U[knots].T,
                                           mesh.T[knots])
            self.Q0[knots] = q.T

    # -- residual ---------------------------------------------------------

    def states(self, Q: np.ndarray):
        """Original-variable states (U, T) of all knots."""
        U = np.empty((self.m + 1, self.n))
        T = np.empty(self.m + 1)
        for owner, knots in self.owned:
            u, t = unmap_state(owner, Q[knots].T, self.tau[knots])
            U[knots] = u.T
            T[knots] = t
        return U, T

    def zone_knots(self, Q: np.ndarray):
        """Knots s..e of every zone in that zone's variables, one zone at a
        time: (transform, s, e, q, tau) with q of shape (n, e-s+1).

        The start of every later zone is a switch: its knot is owned by
        the previous zone and is re-expressed once, through the original
        variables.  All switches are re-expressed and every natural step is
        checked before the first zone is yielded.
        """
        heads = [map_state(tr, *unmap_state(prev, Q[s], self.tau[s]))
                 for (prev, _, _), (tr, s, _) in zip(self.zones,
                                                      self.zones[1:])]
        dtau = np.diff(self.tau)
        for (_, s, _), (_, tau) in zip(self.zones[1:], heads):
            dtau[s] = self.tau[s + 1] - tau
        if np.any(dtau == 0.0):
            raise SingularStepError(
                f"zero natural step on interval {int(np.argmax(dtau == 0.0))}")
        for (tr, s, e), head in zip(self.zones, [None] + heads):
            q, tau = Q[s:e + 1].T, self.tau[s:e + 1]
            if head is not None:
                q, tau = q.copy(), tau.copy()
                q[:, 0], tau[0] = head
            yield tr, s, e, q, tau

    def interval_residual(self, Q: np.ndarray) -> np.ndarray:
        """Residuals of all interval equations, shape (m, n), from one rhs
        evaluation per zone at its knots in the zone's variables."""
        out = np.empty((self.m, self.n))
        for tr, s, e, q, tau in self.zone_knots(Q):
            f = eval_rhs_batch(self.tsys[tr], q, tau)
            out[s:e] = ((q[:, 1:] - q[:, :-1]) / np.diff(tau)
                        - 0.5 * (f[:, :-1] + f[:, 1:])).T
        return out

    def end_states(self, q0: np.ndarray, qm: np.ndarray) -> np.ndarray:
        """Original-variable end states stacked as (u_a, t_a, u_b, t_b)."""
        u_a, t_a = unmap_state(self.zones[0][0], q0, self.tau[0])
        u_b, t_b = unmap_state(self.zones[-1][0], qm, self.tau[-1])
        return np.concatenate([u_a, [t_a], u_b, [t_b]])

    def boundary_residual(self, z: np.ndarray) -> np.ndarray:
        """Boundary rows at stacked end states z = (u_a, t_a, u_b, t_b):
        g(u_a, u_b), except that the row pinning a component that a
        boundary swap made the knot's tau reads t_a - a (or t_b - b)."""
        n = self.n
        g = np.array(self.bc.residual(z[:n], z[n + 1:-1]), dtype=float)
        if g.shape != (n,):
            raise EvaluationError(
                f"boundary residual has shape {g.shape}, expected ({n},)")
        if self.sub_left is not None:
            g[self.sub_left] = z[n] - self.a
        if self.sub_right is not None:
            g[self.sub_right] = z[-1] - self.b
        if not np.isfinite(g).all():
            raise EvaluationError("non-finite boundary residual")
        return g

    def bc_residual(self, q0: np.ndarray, qm: np.ndarray) -> np.ndarray:
        return self.boundary_residual(self.end_states(q0, qm))

    def residual(self, Q: np.ndarray) -> np.ndarray:
        r = self.interval_residual(Q)
        g = self.bc_residual(Q[0], Q[-1])
        return np.concatenate([r.ravel(), g])

    # -- Jacobian ---------------------------------------------------------

    def system_jacobian(self, tr: Transform, X: np.ndarray,
                        T: np.ndarray) -> np.ndarray:
        """[G_q | G_tau] of the transformed system at natural points (X, T),
        shape (n, n+1, B), evaluated in chunks of _JAC_CHUNK points."""
        tsys = self.tsys[tr]
        out = np.empty((self.n, self.n + 1, len(T)))
        for start in range(0, len(T), _JAC_CHUNK):
            part = slice(start, start + _JAC_CHUNK)
            out[..., part] = eval_jacobian_batch(tsys, X[:, part], T[part])
        return out

    def blocks(self, Q: np.ndarray) -> BlockJacobian:
        """Block Jacobian at the iterate Q from the transformed systems'
        Jacobians [G_q | G_tau], evaluated once per knot of every zone.

        Interval i reads A[i] = -I/dtau - G_q(knot i)/2 and
        B[i] = I/dtau - G_q(knot i+1)/2.  At a transform switch the left
        knot's natural (q_L, tau_L) = phi(Q_L) go through map(unmap(.)),
        so A[i] = [dr/dq_L | dr/dtau_L] @ dphi/dQ_L by the chain rule.
        The boundary rows follow the same rule: C = dg/d(u_a, t_a) @
        d(u_a, t_a)/dq_0, with dg from central differences of the
        boundary residual in original variables, and D likewise at knot m.
        """
        n, m = self.n, self.m
        A = np.empty((m, n, n))
        B = np.empty((m, n, n))
        diag = np.arange(n)
        for k, (tr, s, e, q, tau) in enumerate(self.zone_knots(Q)):
            J = self.system_jacobian(tr, q, tau)
            G = -0.5 * np.moveaxis(J[:, :n], -1, 0)
            inv = 1.0 / np.diff(tau)
            A[s:e] = G[:-1]
            B[s:e] = G[1:]
            A[s:e, diag, diag] -= inv[:, None]
            B[s:e, diag, diag] += inv[:, None]
            if k:
                # the switch knot's coordinates belong to the previous zone
                prev = self.zones[k - 1][0]
                dr = -0.5 * J[:, :, 0]
                dr[diag, diag] -= inv[0]
                dr[:, n] += (q[:, 1] - q[:, 0]) * inv[0] ** 2
                u, _ = unmap_state(prev, Q[s], self.tau[s])
                dphi = state_jacobian(tr, u) @ state_jacobian(prev, Q[s])
                A[s] = dr @ dphi[:, :n]
        # boundary rows: central differences of g over the original end
        # states, chained through the unmap Jacobians of the end zones
        dg = central_differences(self.boundary_residual,
                                 self.end_states(Q[0], Q[-1]))
        C = dg[:, :n + 1] @ state_jacobian(self.zones[0][0], Q[0])[:, :n]
        D = dg[:, n + 1:] @ state_jacobian(self.zones[-1][0], Q[-1])[:, :n]
        return BlockJacobian(A, B, C, D)

    # -- Newton iteration -------------------------------------------------

    def run(self, cfg: NewtonConfig):
        Q = self.Q0.copy()
        self.last_Q = Q
        r = self.residual(Q)
        norm = float(np.max(np.abs(r)))
        iters = 0
        while norm > cfg.tol:
            if iters >= MAX_ITERS:
                raise NonConvergence(
                    f"residual {norm:.3e} after {iters} Newton steps")
            jac = self.blocks(Q)
            r_int = r[:self.m * self.n].reshape(self.m, self.n)
            r_bc = r[self.m * self.n:]
            dQ = solve_linear_block(jac, -r_int, -r_bc)
            s = 1.0
            while True:
                try:
                    r_new = self.residual(Q + s * dQ)
                    new_norm = float(np.max(np.abs(r_new)))
                except (EvaluationError, SingularStepError):
                    new_norm = np.inf
                if new_norm < norm:
                    break
                s *= 0.5
                if s < MIN_DAMPING:
                    raise NonConvergence(
                        f"line search stalled at residual {norm:.3e}")
            Q += s * dQ
            self.last_Q = Q
            r, norm = r_new, new_norm
            iters += 1
        U, T = self.states(Q)
        mesh = EvolvingMesh(U, T, self.zones)
        return mesh, iters, norm


def assemble_residual(problem: SegmentedProblem) -> np.ndarray:
    """Residual vector of the full nonlinear system at the mesh iterate:
    m*n interval equations followed by n boundary equations."""
    sweep = _Sweep(problem)
    return sweep.residual(sweep.Q0)


def assemble_jacobian(problem: SegmentedProblem) -> BlockJacobian:
    """Block-bidiagonal Jacobian of assemble_residual with respect to the
    free knot coordinates."""
    sweep = _Sweep(problem)
    return sweep.blocks(sweep.Q0)


def solve_linear_block(jac: BlockJacobian, rhs_int: np.ndarray,
                       rhs_bc: np.ndarray) -> np.ndarray:
    """Solve the block-bidiagonal system

        A[i] x_i + B[i] x_{i+1} = rhs_int[i],   C x_0 + D x_m = rhs_bc

    by forward elimination: every x_{i+1} is expressed as an affine
    function of x_0, then the boundary rows give a dense n x n system for
    x_0.  Returns the solution as an (m+1, n) array.
    """
    A, B, C, D = jac.A, jac.B, jac.C, jac.D
    m, n, _ = A.shape
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        dets = np.abs(np.linalg.det(B))
        raise SingularLinearSystem(
            "singular interval block", pivot=int(np.argmin(dets)))
    E = -np.matmul(Binv, A)                              # (m, n, n)
    G = np.matmul(Binv, rhs_int[:, :, None])[:, :, 0]    # (m, n)
    # inclusive prefix scan of the affine maps x -> E x + g by doubling:
    # after the scan, scanE[i], scanG[i] compose intervals 0..i
    scanE = E.copy()
    scanG = G.copy()
    d = 1
    while d < m:
        newE = np.matmul(scanE[d:], scanE[:-d])
        newG = (np.matmul(scanE[d:], scanG[:-d, :, None])[:, :, 0]
                + scanG[d:])
        scanE[d:] = newE
        scanG[d:] = newG
        d *= 2
    P = np.empty((m + 1, n, n))
    f = np.empty((m + 1, n))
    P[0] = np.eye(n)
    f[0] = 0.0
    P[1:] = scanE
    f[1:] = scanG
    K = C + D @ P[m]
    rhs0 = rhs_bc - D @ f[m]
    try:
        x0 = np.linalg.solve(K, rhs0)
    except np.linalg.LinAlgError:
        raise SingularLinearSystem("singular condensed boundary system",
                                   pivot="condensed")
    X = np.matmul(P, x0) + f
    if not np.isfinite(X).all():
        raise SingularLinearSystem("overflow during block elimination",
                                   pivot="condensed")
    return X


def newton_solve(problem: SegmentedProblem, cfg: NewtonConfig = NewtonConfig(),
                 rcfg: Optional[RefinementConfig] = None,
                 strategy=None) -> Solution:
    """Outer solver loop: reassign zones, normalize, refine, sweep.

    The strategy hook (when given) reassigns the zones before every
    Newton sweep; the solve is finished once a converged sweep is followed
    by a no-op reassignment, normalization and refinement.  With
    ``rcfg=None`` the mesh topology is kept fixed (no refinement, no
    decimation).
    """
    mesh = problem.mesh
    system, bc = problem.system, problem.bc
    a, b = problem.domain
    merge_tol = rcfg.h_min / 100.0 if rcfg is not None else 0.0
    total_iters = 0
    last_norm = np.inf
    history = []
    converged = False
    for outer in range(MAX_OUTER):
        if strategy is not None:
            assigned = EvolvingMesh(mesh.U, mesh.T,
                                    strategy.assign(mesh, system, bc))
            changed = assigned.zones != mesh.zones
            mesh = assigned
        else:
            changed = False
        before = mesh.knot_count
        mesh = normalize(mesh, merge_tol=merge_tol)
        mesh = anchor_pins(mesh, bc, a, b)
        if rcfg is not None:
            mesh = refine(mesh, system, rcfg)
        changed |= mesh.knot_count != before
        history.append({"outer": outer, "knots": mesh.knot_count,
                        "zones": [(tr.label(), e - s)
                                  for tr, s, e in mesh.zones]})
        if converged and not changed:
            return Solution(mesh, total_iters, last_norm,
                            diagnostics={"outer_iterations": outer,
                                         "history": history})
        sweep = _Sweep(SegmentedProblem(system, bc, mesh, (a, b)))
        try:
            mesh, iters, last_norm = sweep.run(cfg)
            converged = True
        except (SingularStepError, NonConvergence):
            # the iterate may have collapsed or inverted an interval in its
            # natural variable (a zone-boundary zigzag); decimate the
            # degenerate knots from the best iterate and retry, and give up
            # only if there is nothing left to repair
            U, T = sweep.states(sweep.last_Q)
            stalled = EvolvingMesh(U, T, mesh.zones)
            repair_tol = rcfg.h_min * 0.5 if rcfg is not None else 1e-14
            repaired = normalize(stalled, merge_tol=max(merge_tol, repair_tol))
            if repaired.knot_count == stalled.knot_count:
                raise
            mesh = repaired
            converged = False
            iters = 0
        total_iters += iters
    raise NonConvergence(
        f"transform assignment and refinement did not settle in "
        f"{MAX_OUTER} outer iterations")

