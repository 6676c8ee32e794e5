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
from .transform import apply, map_state, state_jacobian, unmap_state

# knots per batched Jacobian evaluation: bounds the temporaries of the
# composed swap/flip Jacobians on large meshes
_JAC_CHUNK = 32768
# pairs per batch of reflections in a cyclic-reduction level: bounds the
# temporaries and keeps a batch in cache on large meshes
_CR_CHUNK = 4096
# cyclic reduction stops once at most this many unknowns are left
_DENSE_TAIL = 64

MAX_ITERS = 50              # Newton steps per sweep
MIN_DAMPING = 2.0 ** -20    # line-search floor; it starts at the full step
MAX_OUTER = 40              # transform/refinement outer iterations


@dataclass
class SegmentedProblem:
    """An ODE system, its boundary conditions, a transformed mesh iterate,
    and the fixed domain [a, b] of the original independent variable.
    The domain fixes the end knots' natural coordinates; at an end that
    swaps u_k, the pin of u_k there does, and its row reads t = a (t = b)."""

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
        J4 = J.reshape(m + 1, n, m + 1, n)
        k = np.arange(m)
        J4[k, :, k, :] = self.A
        J4[k, :, k + 1, :] = self.B
        J4[m, :, 0, :] = self.C
        J4[m, :, m, :] = self.D
        return J


class _Sweep:
    """One fixed-structure Newton solve: mesh topology, zones and all knot
    tau values are frozen; only the free coordinates move.  The end taus are
    set as SegmentedProblem says; ``sub_left`` and ``sub_right`` are the
    rows of the pins that then read t = a and t = b, None without a swap."""

    def __init__(self, problem: SegmentedProblem):
        mesh = problem.mesh
        self.system = problem.system
        self.bc = problem.bc
        self.a, self.b = problem.domain
        self.n = mesh.n
        self.m = mesh.interval_count
        self.zones = mesh.zones
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
        # the end knots' taus come from the domain or a boundary swap's pin
        subs = []
        for knot, side, t in ((0, "a", self.a), (-1, "b", self.b)):
            k = self.zones[knot][0].swap
            pin = (None, t) if k is None else self.bc.pins.get((side, k))
            if pin is None:
                raise NonStationaryBoundary(
                    f"swap of component {k} on the {side}-side interval "
                    f"needs a Dirichlet condition pinning it there")
            row, self.tau[knot] = pin
            subs.append(None if k is None else int(row))
        self.sub_left, self.sub_right = subs

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
            rows = out[s:e].T
            np.subtract(q[:, 1:], q[:, :-1], out=rows)
            rows /= np.diff(tau)
            mean = f[:, :-1] + f[:, 1:]
            mean *= 0.5
            rows -= mean
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

    def blocks(self, Q: np.ndarray) -> BlockJacobian:
        """Block Jacobian at the iterate Q from the transformed systems'
        Jacobians [G_q | G_tau], evaluated once per knot of every zone in
        chunks of _JAC_CHUNK knots, each chunk written straight into A and B.

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
        # views of the blocks' diagonals
        A_diag = A.reshape(m, n * n)[:, ::n + 1]
        B_diag = B.reshape(m, n * n)[:, ::n + 1]
        for k, (tr, s, e, q, tau) in enumerate(self.zone_knots(Q)):
            # zone knot j is the left knot of interval s+j (j < e-s) and
            # the right knot of interval s+j-1 (j > 0)
            for c in range(0, e - s + 1, _JAC_CHUNK):
                J = eval_jacobian_batch(self.tsys[tr], q[:, c:c + _JAC_CHUNK],
                                        tau[c:c + _JAC_CHUNK])
                if c == 0:
                    first = J[:, :, 0].copy()
                G = J[:, :n].transpose(2, 0, 1)
                stop = c + len(G)
                left = min(stop, e - s)
                np.multiply(G[:left - c], -0.5, out=A[s + c:s + left])
                right = max(c, 1)
                np.multiply(G[right - c:], -0.5,
                            out=B[s + right - 1:s + stop - 1])
            inv = 1.0 / np.diff(tau)
            A_diag[s:e] -= inv[:, None]
            B_diag[s:e] += inv[:, None]
            if k:
                # the switch knot's coordinates belong to the previous zone
                prev = self.zones[k - 1][0]
                dr = -0.5 * first
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
        """Newton's method from Q0, which it moves in place."""
        # last_Q is the iterate, always the last accepted one
        Q = self.last_Q = self.Q0
        # the residual of last_Q; inf until the first one is evaluated
        self.norm = np.inf
        r = self.residual(Q)
        norm = self.norm = float(np.max(np.abs(r)))
        iters = 0
        while norm > cfg.tol:
            if iters >= MAX_ITERS:
                raise NonConvergence(
                    f"residual {norm:.3e} after {iters} Newton steps")
            # the blocks live only for this solve; J dQ = -r is solved as
            # J x = r, and x negated, which is exact
            mn = self.m * self.n
            dQ = solve_linear_block(self.blocks(Q),
                                    r[:mn].reshape(self.m, self.n), r[mn:])
            np.negative(dQ, out=dQ)
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
            del dQ      # let the next step's solve reuse its memory
            r, norm = r_new, new_norm
            self.norm = norm
            iters += 1
        return EvolvingMesh(*self.states(Q), self.zones), iters, norm


def assemble_residual(problem: SegmentedProblem) -> np.ndarray:
    """Residual vector of the full nonlinear system at the mesh iterate:
    m*n interval equations followed by n boundary equations, with the end
    knots fixed as SegmentedProblem says even where the mesh's are off."""
    sweep = _Sweep(problem)
    return sweep.residual(sweep.Q0)


def assemble_jacobian(problem: SegmentedProblem) -> BlockJacobian:
    """Block-bidiagonal Jacobian of assemble_residual with respect to the
    free knot coordinates, with the end knots fixed as there."""
    sweep = _Sweep(problem)
    return sweep.blocks(sweep.Q0)


def solve_linear_block(jac: BlockJacobian, rhs_int: np.ndarray,
                       rhs_bc: np.ndarray) -> np.ndarray:
    """Solve the block-bidiagonal system

        A[i] x_i + B[i] x_{i+1} = rhs_int[i],   C x_0 + D x_m = rhs_bc

    by block cyclic reduction with orthogonal elimination (S. J. Wright,
    SIAM J. Sci. Stat. Comput. 13, 1992), which stays backward stable when
    growing and decaying modes coexist.  Each level pairs the rows of
    intervals 2k and 2k+1, which share the unknown x_{2k+1}, and
    triangularizes its columns by Householder reflections: the pair's top
    n rows give x_{2k+1} from its neighbours, and its bottom n rows become
    a row of the coarser level coupling x_{2k} and x_{2k+2}.  x_0 and x_m
    survive every level, so once at most _DENSE_TAIL unknowns, or a single
    row, are left, one dense solve with the boundary rows finishes, and
    back-substitution runs down the levels.  Returns the solution as an
    (m+1, n) array.
    """
    m, n, _ = jac.A.shape
    # a level's rows L[..., i] y_i + R[..., i] y_{i+1} = r[:, i]; its
    # unknown y_i is x at knot i * stride, except the last, which is x_m
    L, R, r = jac.A.transpose(1, 2, 0), jac.B.transpose(1, 2, 0), rhs_int.T
    # every coarser level's rows [L | R | r], written over the previous
    # level's as they are formed; the inputs are only read
    rows = np.empty((n, 2 * n + 1, (m + 1) // 2))
    stride = 1
    levels = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while L.shape[2] > 1 and (L.shape[2] + 1) * n > _DENSE_TAIL:
            M = L.shape[2]
            levels.append(_reduce_level(L, R, r, stride, rows))
            coarse = rows[..., :(M + 1) // 2]
            L, R, r = coarse[:, :n], coarse[:, n:2 * n], coarse[:, 2 * n]
            stride *= 2
        X = _dense_tail(L, R, r, jac.C, jac.D, rhs_bc, stride, m)
        while levels:
            X = _back_substitute(levels.pop(), X)
    if not np.isfinite(X).all():
        raise SingularLinearSystem("overflow in the block solve")
    return X


def _singular(knot: int) -> SingularLinearSystem:
    """The error for a column of knot's unknowns that lost rank, named by
    the interval that ends at that knot (interval 0 for knot 0)."""
    interval = max(knot - 1, 0)
    return SingularLinearSystem(f"singular interval block {interval}",
                                pivot=interval)


def _reduce_level(L: np.ndarray, R: np.ndarray, r: np.ndarray, stride: int,
                  coarse: np.ndarray) -> np.ndarray:
    """One level of cyclic reduction over M rows, stored along the last
    axis: L and R of shape (n, n, M), r of shape (n, M).

    Returns the pairs' top rows, shape (n, 3n+1, M // 2), with columns
    [y_mid | y_left | y_right | rhs] and the y_mid block upper triangular.
    The coarser level's rows [L | R | r] go to coarse[..., :M // 2 + M % 2];
    the last is the odd last row carried up unchanged.  L, R and r may
    be views of coarse: the pairs of a chunk are read before its rows are
    written, and no later chunk reads a row an earlier one wrote.
    """
    n, _, M = L.shape
    K = M // 2
    top = np.empty((n, 3 * n + 1, K))
    for s in range(0, K, _CR_CHUNK):
        e = min(s + _CR_CHUNK, K)
        ev, od = slice(2 * s, 2 * e, 2), slice(2 * s + 1, 2 * e, 2)
        P = np.zeros((2 * n, 3 * n + 1, e - s))
        P[:n, :n] = R[..., ev]
        P[:n, n:2 * n] = L[..., ev]
        P[:n, 3 * n] = r[:, ev]
        P[n:, :n] = L[..., od]
        P[n:, 2 * n:3 * n] = R[..., od]
        P[n:, 3 * n] = r[:, od]
        for j in range(n):
            # reflect rows j.. by H = I - 2 v v^T / (v^T v), v = x - alpha e_0
            # with alpha = -sign(x_0) |x|, so v^T v = -2 alpha v_0 and H takes
            # column j to alpha e_0 (up to rounding below the diagonal, which
            # nothing reads).  A zero column leaves the pair's y_mid
            # undetermined; it raises before its reflector is formed.
            v = P[j:, j].copy()
            norm = np.sqrt(np.add.reduce(v * v))
            if np.count_nonzero(norm) < len(norm):
                raise _singular((2 * (s + int(np.argmin(norm))) + 1) * stride)
            minus_alpha = np.copysign(norm, v[0])
            v[0] += minus_alpha
            S = P[j:, j:]
            w = np.einsum("ik,ijk->jk", v, S)
            w /= minus_alpha * v[0]
            S -= v[:, None] * w
        top[..., s:e] = P[:n]
        coarse[..., s:e] = P[n:, n:]
    if M % 2:
        coarse[:, :n, K] = L[..., M - 1]
        coarse[:, n:2 * n, K] = R[..., M - 1]
        coarse[:, 2 * n, K] = r[:, M - 1]
    return top


def _dense_tail(L: np.ndarray, R: np.ndarray, r: np.ndarray, C: np.ndarray,
                D: np.ndarray, rhs_bc: np.ndarray, stride: int,
                m: int) -> np.ndarray:
    """Solve the last level's rows and the boundary rows as one dense
    system; returns the level's unknowns as an (M+1, n) array."""
    n, _, M = L.shape
    J = BlockJacobian(L.transpose(2, 0, 1), R.transpose(2, 0, 1), C,
                      D).todense()
    try:
        X = np.linalg.solve(J, np.concatenate([r.T.ravel(), rhs_bc]))
    except np.linalg.LinAlgError:
        # the smallest diagonal entry of R marks the column that lost rank
        col = int(np.argmin(np.abs(np.diag(np.linalg.qr(J, mode="r")))))
        raise _singular(min(col // n * stride, m)) from None
    return X.reshape(M + 1, n)


def _back_substitute(top: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Unknowns of a level from those of the coarser level Z: every
    surviving unknown is copied, and each pair's y_mid solves its
    triangular top rows."""
    n, _, K = top.shape
    X = np.empty((len(Z) + K, n))
    # the survivors: every other unknown, and the last
    X[::2] = Z[:K + 1]
    X[-1] = Z[-1]
    Zt = Z.T
    sides = np.concatenate((Zt[:, :K], Zt[:, 1:K + 1]))
    y = top[:, 3 * n] - np.einsum("ijk,jk->ik", top[:, n:3 * n], sides)
    for j in reversed(range(n)):
        y[j] /= top[j, j]
        y[:j] -= top[:j, j] * y[j]
    X[1:2 * K:2] = y.T
    return X


def newton_solve(problem: SegmentedProblem, cfg: NewtonConfig = NewtonConfig(),
                 rcfg: Optional[RefinementConfig] = None,
                 strategy=None) -> Solution:
    """Outer solver loop: reassign zones, normalize, refine, sweep.

    The strategy hook (when given) reassigns the zones before every
    Newton sweep; the solve is finished once a converged sweep is followed
    by a no-op reassignment, normalization and refinement.  With
    ``rcfg=None`` the mesh topology is kept fixed (no refinement, no
    decimation).  A failed sweep is repaired by decimating its degenerate
    knots; when the sweep after a repair fails on the same zones and knot
    count at a residual no lower than before, the repair has undone
    nothing, and that sweep's error is raised, as it is when there are no
    knots to decimate; both name the outer iteration and the knot count.
    Each sweep fixes the end knots as SegmentedProblem says, so the meshes
    it returns have exact ends.
    """
    mesh = problem.mesh
    system, bc = problem.system, problem.bc
    merge_tol = rcfg.h_min / 100.0 if rcfg is not None else 0.0
    total_iters = 0
    last_norm = np.inf
    history = []
    converged = False
    repaired_failure = None     # (zones, knots, residual) of a repaired sweep
    for outer in range(MAX_OUTER):
        if strategy is not None:
            old_zones = mesh.zones
            mesh = EvolvingMesh(mesh.U, mesh.T,
                                strategy.assign(mesh, system, bc))
            changed = mesh.zones != old_zones
        else:
            changed = False
        before = mesh.knot_count
        mesh = normalize(mesh, merge_tol=merge_tol)
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
        # the sweep holds all it needs of the mesh, so the mesh is let go
        zones, knots = mesh.zones, mesh.knot_count
        sweep = _Sweep(SegmentedProblem(system, bc, mesh, problem.domain))
        del mesh
        try:
            mesh, iters, last_norm = sweep.run(cfg)
            converged = True
            repaired_failure = None
        except (SingularStepError, NonConvergence) as err:
            # the iterate may have collapsed or inverted an interval in its
            # natural variable (a zone-boundary zigzag); decimate the
            # degenerate knots from the best iterate and retry, and give up
            # if there is nothing left to repair or the last repair did not
            # help
            failure = (zones, knots, sweep.norm)
            where = f"outer iteration {outer}, {knots} knots"
            if (repaired_failure is not None
                    and failure[:2] == repaired_failure[:2]
                    and failure[2] >= repaired_failure[2]):
                raise type(err)(
                    f"{err} ({where}, again after a repair)") from err
            repaired_failure = failure
            stalled = EvolvingMesh(*sweep.states(sweep.last_Q), zones)
            repair_tol = rcfg.h_min * 0.5 if rcfg is not None else 1e-14
            repaired = normalize(stalled, merge_tol=max(merge_tol, repair_tol))
            if repaired.knot_count == stalled.knot_count:
                raise type(err)(
                    f"{err} ({where}, no knots to decimate)") from err
            mesh = repaired
            converged = False
            iters = 0
        total_iters += iters
    raise NonConvergence(
        f"transform assignment and refinement did not settle in "
        f"{MAX_OUTER} outer iterations")

