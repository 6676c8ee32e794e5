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
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (ConfigError, EvaluationError, NonConvergence,
                     NonStationaryBoundary, SingularLinearSystem,
                     SingularStepError)
from .mesh import EvolvingMesh, RefinementConfig, normalize, refine
from .ode_system import (BoundaryConditions, OdeSystem, central_differences,
                         eval_jacobian_batch, eval_rhs_batch)
from .transform import (Transform, apply, map_state, state_jacobian,
                        unmap_state)

# pairs of rows per batch: a cyclic-reduction level reflects _CHUNK pairs
# at a time, and residual and Jacobian rows are formed 2*_CHUNK intervals
# at a time, so that the first level's batch is one batch of Jacobian
# rows; bounds a Newton step's temporaries and keeps a batch in cache
_CHUNK = 2048
# levels of cyclic reduction per tier: a tier reduces blocks of
# _CHUNK << _TIER of its first level's rows through all its levels
_TIER = 3
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
        if not 0 < self.tol < np.inf:
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")


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

    def rows(self, a: int, b: int):
        """Blocks of intervals a..b-1, batch-last: views of shape
        (n, n, b-a) of A[a:b] and B[a:b]."""
        return self.A[a:b].transpose(1, 2, 0), self.B[a:b].transpose(1, 2, 0)

    def todense(self) -> np.ndarray:
        return _dense(self.A, self.B, self.C, self.D)


def _dense(A: np.ndarray, B: np.ndarray, C: np.ndarray,
           D: np.ndarray) -> np.ndarray:
    """The dense matrix of BlockJacobian(A, B, C, D)."""
    m, n, _ = A.shape
    N = (m + 1) * n
    J = np.zeros((N, N))
    # block row i starts at flat offset i*n*N, and its block (i, i) i*n
    # entries further on: cut into rows of n*N + n entries, row i < m
    # starts at that block, and diag[i] is block row i from column i*n on
    diag = J.reshape(-1)[:m * (n * N + n)].reshape(m, n * N + n)
    diag = diag[:, :n * N].reshape(m, n, N)
    diag[..., :n] = A
    diag[..., n:2 * n] = B
    J[m * n:, :n] = C
    J[m * n:, m * n:] = D
    return J


@dataclass
class StreamedJacobian:
    """The Newton matrix of BlockJacobian with its interval rows evaluated
    on demand: ``rows(a, b)`` returns them as BlockJacobian.rows does."""

    rows: Callable
    C: np.ndarray
    D: np.ndarray


class _Zone(NamedTuple):
    """Knots s..e of one zone at an iterate Q (see _Sweep.zone_view)."""

    tr: Transform
    s: int
    e: int
    q: np.ndarray           # Q[s:e+1].T, a view
    tau: np.ndarray         # the knots' taus, a view
    head: Optional[tuple]   # the switch knot's (q, tau, u) in this zone


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
        # each zone's system in its natural variables, in zone order
        self.tsys = [apply(tr, self.system) for tr, _, _ in self.zones]
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
        # the taus are frozen, so only the switch steps, which start at a
        # re-expressed knot, can become zero; the first other zero step
        switches = {s for _, s, _ in self.zones[1:]}
        zero = (self.tau[1:] == self.tau[:-1]).nonzero()[0]
        self.zero_step = next((int(i) for i in zero if i not in switches),
                              None)

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

    def zone_view(self, Q: np.ndarray):
        """Knots s..e of every zone, as _Zone(tr, s, e, q, tau, head)
        with q = Q[s:e+1].T and tau views of the iterate and the taus.

        The start of every later zone is a switch: its knot is owned by
        the previous zone, so q[:, 0] is in that zone's variables.  Its
        head (q_s, tau_s, u_s) is the knot re-expressed once, through its
        original state u_s, in this zone's variables; the first zone's
        head is None.  Every natural step is checked before returning.
        """
        zero = [] if self.zero_step is None else [self.zero_step]
        view, head = [], None
        for k, (tr, s, e) in enumerate(self.zones):
            if k:
                u, t = _unmap(self.zones[k - 1][0], Q[s], self.tau[s])
                head = (*map_state(tr, u, t), u)
                if self.tau[s + 1] - head[1] == 0.0:
                    zero.append(s)
            view.append(_Zone(tr, s, e, Q[s:e + 1].T, self.tau[s:e + 1],
                              head))
        if zero:
            raise SingularStepError(f"zero natural step on interval "
                                    f"{min(zero)}")
        return view

    def pieces(self, view, a: int, b: int):
        """Every zone's part of intervals a..b-1, in order, as (k, lo, hi,
        q, tau): zone k's intervals lo..hi-1 and their knots lo..hi in its
        variables.  Only a piece that starts at a switch is copied, to put
        the switch's head in its first column."""
        for k, (_, s, e, q, tau, head) in enumerate(view):
            lo, hi = (a if a > s else s), (b if b < e else e)
            if lo >= hi:
                continue
            q, tau = q[:, lo - s:hi - s + 1], tau[lo - s:hi - s + 1]
            if lo == s and head is not None:
                q, tau = q.copy(), tau.copy()
                q[:, 0], tau[0] = head[0], head[1]
            yield k, lo, hi, q, tau

    def residual_at(self, view, ends=None) -> np.ndarray:
        """Residual vector at a zone view: the m*n interval rows, written
        2*_CHUNK intervals at a time from one rhs evaluation per zone and
        batch, then the n boundary rows at the view's end_states, which
        are unmapped here unless given as ``ends``."""
        n, m = self.n, self.m
        out = np.empty((m + 1) * n)
        rows = out[:m * n].reshape(m, n).T
        for a in range(0, m, 2 * _CHUNK):
            for k, lo, hi, q, tau in self.pieces(view, a, a + 2 * _CHUNK):
                f = eval_rhs_batch(self.tsys[k], q, tau)
                r = rows[:, lo:hi]
                np.subtract(q[:, 1:], q[:, :-1], out=r)
                r /= tau[1:] - tau[:-1]
                mean = f[:, :-1] + f[:, 1:]
                mean *= 0.5
                r -= mean
        out[m * n:] = self.boundary_residual(
            *(self.end_states(view) if ends is None else ends))
        return out

    def residual(self, Q: np.ndarray) -> np.ndarray:
        """Residual vector at the iterate Q."""
        return self.residual_at(self.zone_view(Q))

    def end_states(self, view):
        """Original-variable end states (u_a, t_a, u_b, t_b) at a zone
        view."""
        u_a, t_a = _unmap(self.zones[0][0], view[0].q[:, 0], self.tau[0])
        u_b, t_b = _unmap(self.zones[-1][0], view[-1].q[:, -1], self.tau[-1])
        return u_a, t_a, u_b, t_b

    def boundary_residual(self, u_a, t_a, u_b, t_b) -> np.ndarray:
        """Boundary rows at the original end states: g(u_a, u_b), except
        that the row pinning a component that a boundary swap made the
        knot's tau reads t_a - a (or t_b - b)."""
        n = self.n
        g = np.array(self.bc.residual(u_a, u_b), dtype=float)
        if g.shape != (n,):
            raise EvaluationError(
                f"boundary residual has shape {g.shape}, expected ({n},)")
        if self.sub_left is not None:
            g[self.sub_left] = t_a - self.a
        if self.sub_right is not None:
            g[self.sub_right] = t_b - self.b
        if not np.isfinite(g).all():
            raise EvaluationError("non-finite boundary residual")
        return g

    # -- Jacobian ---------------------------------------------------------

    def block_rows(self, view, a: int, b: int):
        """Blocks of intervals a..b-1 at a zone view, batch-last: L and R
        of shape (n, n, b-a) with L[..., i] = A[a+i] and R[..., i] =
        B[a+i], from the transformed systems' Jacobians [G_q | G_tau]
        evaluated once per zone and batch at its knots.

        Interval i reads A[i] = -I/dtau - G_q(knot i)/2 and
        B[i] = I/dtau - G_q(knot i+1)/2.  At a transform switch the left
        knot's natural (q_L, tau_L) = phi(Q_L) go through map(unmap(.)),
        so A[i] = [dr/dq_L | dr/dtau_L] @ dphi/dQ_L by the chain rule.
        """
        n = self.n
        L = np.empty((n, n, b - a))
        R = np.empty((n, n, b - a))
        # their diagonals L[j, j] and R[j, j], strided views of shape
        # (n, b-a): every (n+1)-th of the n*n rows
        Ld = L.reshape(n * n, -1)[::n + 1]
        Rd = R.reshape(n * n, -1)[::n + 1]
        for k, lo, hi, q, tau in self.pieces(view, a, b):
            tr, s, _, _, _, head = view[k]
            J = eval_jacobian_batch(self.tsys[k], q, tau)
            i, j = lo - a, hi - a
            np.multiply(J[:, :n, :-1], -0.5, out=L[..., i:j])
            np.multiply(J[:, :n, 1:], -0.5, out=R[..., i:j])
            inv = 1.0 / (tau[1:] - tau[:-1])
            Ld[:, i:j] -= inv
            Rd[:, i:j] += inv
            if lo == s and head is not None:
                # the switch knot's coordinates belong to the previous zone
                prev = view[k - 1]
                dr = -0.5 * J[:, :, 0]
                dr.reshape(-1)[::n + 2] -= inv[0]       # its diagonal
                dr[:, n] += (q[:, 1] - q[:, 0]) * inv[0] ** 2
                dphi = state_jacobian(tr, head[2])
                if not prev.tr.is_identity:
                    dphi = dphi @ state_jacobian(prev.tr, prev.q[:, -1])
                L[..., i] = dr @ dphi[:, :n]
        return L, R

    def boundary_blocks(self, view, ends=None):
        """C and D of the boundary rows at a zone view: C = dg/d(u_a, t_a)
        @ d(u_a, t_a)/dq_0, and D likewise at knot m.  g reads only the
        end states' u, so central differences of g run over (u_a, u_b),
        and its t columns are zero; a pinned row, t - a (or t - b), is set
        exactly.  ``ends`` are the view's end_states, unmapped here unless
        given."""
        n = self.n
        q0, qm = view[0].q[:, 0], view[-1].q[:, -1]
        u_a, _, u_b, _ = self.end_states(view) if ends is None else ends
        # a non-finite g or difference is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            du = central_differences(lambda w: self.bc.residual(w[:n], w[n:]),
                                     np.concatenate([u_a, u_b]))
        # columns (u_a, t_a, u_b, t_b)
        dg = np.zeros((n, 2 * n + 2))
        dg[:, :n], dg[:, n + 1:-1] = du[:, :n], du[:, n:]
        for row, col in ((self.sub_left, n), (self.sub_right, -1)):
            if row is not None:
                dg[row] = 0.0
                dg[row, col] = 1.0
        if not np.isfinite(dg).all():
            raise EvaluationError("non-finite boundary residual derivative")
        # at an identity end, d(u, t)/dq is the unit matrix's first n columns
        C, D = [g[:, :n] if tr.is_identity
                else g @ state_jacobian(tr, q)[:, :n]
                for tr, g, q in ((self.zones[0][0], dg[:, :n + 1], q0),
                                 (self.zones[-1][0], dg[:, n + 1:], qm))]
        return C, D

    def jacobian(self, view, ends=None) -> StreamedJacobian:
        """The Newton matrix at a zone view, its interval rows evaluated
        when a solve reads them; ``ends`` as for boundary_blocks."""
        return StreamedJacobian(partial(self.block_rows, view),
                                *self.boundary_blocks(view, ends))

    # -- Newton iteration -------------------------------------------------

    def run(self, cfg: NewtonConfig):
        """Newton's method from Q0."""
        # last_Q is the iterate, always the last accepted one, and the
        # only iterate the sweep holds
        Q = self.last_Q = self.Q0
        del self.Q0
        # the residual of last_Q; inf until the first one is evaluated
        self.norm = np.inf
        view = self.zone_view(Q)
        ends = self.end_states(view)
        r = self.residual_at(view, ends)
        norm = self.norm = float(np.abs(r).max())
        if np.isnan(norm):
            raise EvaluationError("the residual at the initial iterate is NaN")
        iters = 0
        mn = self.m * self.n
        while norm > cfg.tol:
            if iters >= MAX_ITERS:
                raise NonConvergence(
                    f"residual {norm:.3e} after {iters} Newton steps")
            # J dQ = -r is solved as J x = r, and x negated, which is exact;
            # the solve evaluates J's interval rows as it reads them
            dQ = solve_linear_block(self.jacobian(view, ends),
                                    r[:mn].reshape(self.m, self.n), r[mn:])
            np.negative(dQ, out=dQ)
            trial = np.empty_like(Q)
            s = 1.0
            while True:
                # Q + s * dQ, bit for bit
                np.multiply(dQ, s, out=trial)
                trial += Q
                try:
                    view = self.zone_view(trial)
                    ends = self.end_states(view)
                    r_new = self.residual_at(view, ends)
                    new_norm = float(np.abs(r_new).max())
                except (EvaluationError, SingularStepError):
                    new_norm = np.inf
                if new_norm < norm:
                    break
                s *= 0.5
                if s < MIN_DAMPING:
                    raise NonConvergence(
                        f"line search stalled at residual {norm:.3e}")
            # the accepted trial, its view, end states and residual are the
            # next step's
            Q = self.last_Q = trial
            del dQ      # let the next step's solve reuse its memory
            r, norm = r_new, new_norm
            self.norm = norm
            iters += 1
        return EvolvingMesh(*self.states(Q), self.zones), iters, norm


def _unmap(tr: Transform, q, tau):
    """unmap_state(tr, q, tau), or (q, tau) themselves at the identity."""
    return (q, tau) if tr.is_identity else unmap_state(tr, q, tau)


def assemble_residual(problem: SegmentedProblem) -> np.ndarray:
    """Residual vector of the full nonlinear system at the mesh iterate:
    m*n interval equations followed by n boundary equations, with the end
    knots fixed as SegmentedProblem says even where the mesh's are off."""
    sweep = _Sweep(problem)
    return sweep.residual(sweep.Q0)


def assemble_jacobian(problem: SegmentedProblem) -> BlockJacobian:
    """Block-bidiagonal Jacobian of assemble_residual with respect to the
    free knot coordinates, with the end knots fixed as there: the rows
    that a Newton step's solve streams, gathered into A and B."""
    sweep = _Sweep(problem)
    n, m = sweep.n, sweep.m
    jac = sweep.jacobian(sweep.zone_view(sweep.Q0))
    L = np.empty((n, n, m))
    R = np.empty((n, n, m))
    for a in range(0, m, 2 * _CHUNK):
        b = min(a + 2 * _CHUNK, m)
        L[..., a:b], R[..., a:b] = jac.rows(a, b)
    return BlockJacobian(L.transpose(2, 0, 1), R.transpose(2, 0, 1),
                         jac.C, jac.D)


# overflow in the reduction is reported once the solve ends
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_linear_block(jac: BlockJacobian | StreamedJacobian,
                       rhs_int: np.ndarray,
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

    While a level has more rows than one block, _CHUNK << _TIER, the
    levels run in tiers of _TIER: a tier takes each block of its first
    level's rows down all its levels in a block-sized buffer, so for the
    whole mesh only its last level's rows, one per 2**_TIER rows of its
    first, are held.  The levels of at most one block's rows follow one
    after another, in place.  Either order reflects the same pairs,
    _CHUNK at a time, so it changes no result.

    ``jac`` is a BlockJacobian or a StreamedJacobian, read only: the first
    level reads the blocks through ``jac.rows``, _CHUNK pairs of rows at a
    time, so streamed rows are never all held at once.
    """
    m, n = rhs_int.shape
    # the levels' row counts, then the rows left for the dense tail
    sizes = [m]
    while sizes[-1] > 1 and (sizes[-1] + 1) * n > _DENSE_TAIL:
        sizes.append((sizes[-1] + 1) // 2)
    depth = len(sizes) - 1
    # a level's M rows L[..., i] y_i + R[..., i] y_{i+1} = r[:, i], with
    # (L, R) = rows(a, b) for rows a..b-1; its unknown y_i is x at knot
    # i * 2**k on level k, except the last, which is x_m
    rows, r = jac.rows, rhs_int.T
    # coarser levels' rows [L | R | r]: for the whole mesh, those of each
    # tier's last level, or of every level once one block holds them,
    # written over the previous ones as they are formed; and a block's
    # rows within a tier.  The inputs are only read.
    W = _CHUNK << _TIER
    blocked = m > W
    coarse = np.empty((n, 2 * n + 1, sizes[min(_TIER, depth)] if blocked
                       else (m + 1) // 2))
    block = np.empty((n, 2 * n + 1, W // 2)) if blocked and depth > 1 else None
    coarse_rows = partial(_coarse_rows, coarse, n)
    # each level's top rows (see _reduce_level)
    levels = []
    k = 0
    while k < depth and sizes[k] > W:
        # a tier of levels k..k+d-1 over blocks of W rows of level k
        d = min(_TIER, depth - k)
        levels += [np.empty((n, 3 * n + 1, M // 2)) for M in sizes[k:k + d]]
        for a in range(0, sizes[k], W):
            # rows a.. of level k reduce to rows a >> j.. of level k+j,
            # through the block buffer and last into coarse, whose rows
            # a >> d.. are written after this block's rows of level k
            # are read (with d = 1, as _reduce_level writes in place)
            src, rb = partial(_offset_rows, rows, a), r[:, a:a + W]
            M = min(W, sizes[k] - a)
            for j in range(d):
                dst = coarse[..., a >> d:] if j == d - 1 else block
                _reduce_level(src, rb, M, 1 << (k + j), dst,
                              levels[k + j][..., a >> (j + 1):], a >> j)
                M = (M + 1) // 2
                src, rb = partial(_coarse_rows, dst, n), dst[:, 2 * n, :M]
        k += d
        rows, r = coarse_rows, coarse[:, 2 * n, :sizes[k]]
    # the levels of at most one block's rows, each in place in coarse
    while k < depth:
        levels.append(np.empty((n, 3 * n + 1, sizes[k] // 2)))
        _reduce_level(rows, r, sizes[k], 1 << k, coarse, levels[k])
        k += 1
        rows, r = coarse_rows, coarse[:, 2 * n, :sizes[k]]
    X = _dense_tail(*rows(0, sizes[-1]), r, jac.C, jac.D, rhs_bc,
                    1 << depth, m)
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


def _offset_rows(rows: Callable, a: int, i: int, j: int):
    """rows(a + i, a + j): the rows of a block that starts at row a."""
    return rows(a + i, a + j)


def _coarse_rows(coarse: np.ndarray, n: int, a: int, b: int):
    """Blocks of rows a..b-1 of a coarse level stored as [L | R | r]."""
    return coarse[:, :n, a:b], coarse[:, n:2 * n, a:b]


def _reduce_level(rows: Callable, r: np.ndarray, M: int, stride: int,
                  coarse: np.ndarray, top: np.ndarray,
                  first: int = 0) -> None:
    """One level of cyclic reduction over M rows, stored along the last
    axis: rows(a, b) gives the blocks L and R of rows a..b-1, each of shape
    (n, n, b-a), and r has shape (n, M).  The rows are those of a block
    whose row 0 is row ``first`` of its level, which names a singular pair.

    The pairs' top rows go to top[..., :M // 2], with columns
    [y_mid | y_left | y_right | rhs] and the y_mid block upper triangular.
    The coarser level's rows [L | R | r] go to coarse[..., :M // 2 + M % 2];
    the last is the odd last row, read with the last batch's pairs and
    carried up unchanged (a lone row is a batch of no pairs).  The rows may
    be views of coarse: a batch's pairs are read before its rows are
    written, and no later batch reads a row an earlier one wrote.
    """
    n = len(r)
    K = M // 2
    for s in range(0, max(K, 1), _CHUNK):
        e = min(s + _CHUNK, K)
        odd_last = e == K and M % 2
        L, R = rows(2 * s, 2 * e + odd_last)
        ev, od = slice(0, 2 * (e - s), 2), slice(1, 2 * (e - s), 2)
        P = np.zeros((2 * n, 3 * n + 1, e - s))
        P[:n, :n] = R[..., ev]
        P[:n, n:2 * n] = L[..., ev]
        P[:n, 3 * n] = r[:, 2 * s:2 * e:2]
        P[n:, :n] = L[..., od]
        P[n:, 2 * n:3 * n] = R[..., od]
        P[n:, 3 * n] = r[:, 2 * s + 1:2 * e:2]
        for j in range(n):
            # reflect rows j.. by H = I - 2 v v^T / (v^T v), v = x - alpha e_0
            # with alpha = -sign(x_0) |x|, so v^T v = -2 alpha v_0 and H takes
            # column j to alpha e_0 (up to rounding below the diagonal, which
            # nothing reads).  A zero column leaves the pair's y_mid
            # undetermined; it raises before its reflector is formed.
            v = P[j:, j].copy()
            norm = np.sqrt(np.add.reduce(v * v))
            if np.count_nonzero(norm) < len(norm):
                pair = s + int(np.argmin(norm))
                raise _singular((first + 2 * pair + 1) * stride)
            minus_alpha = np.copysign(norm, v[0])
            v[0] += minus_alpha
            S = P[j:, j:]
            w = np.einsum("ik,ijk->jk", v, S)
            w /= minus_alpha * v[0]
            S -= v[:, None] * w
        top[..., s:e] = P[:n]
        coarse[..., s:e] = P[n:, n:]
        if odd_last:
            coarse[:, :n, K] = L[..., -1]
            coarse[:, n:2 * n, K] = R[..., -1]
            coarse[:, 2 * n, K] = r[:, M - 1]


def _dense_tail(L: np.ndarray, R: np.ndarray, r: np.ndarray, C: np.ndarray,
                D: np.ndarray, rhs_bc: np.ndarray, stride: int,
                m: int) -> np.ndarray:
    """Solve the last level's rows and the boundary rows as one dense
    system; returns the level's unknowns as an (M+1, n) array."""
    n, _, M = L.shape
    J = _dense(L.transpose(2, 0, 1), R.transpose(2, 0, 1), C, D)
    rhs = np.empty((M + 1, n))
    rhs[:M] = r.T
    rhs[M] = rhs_bc
    try:
        X = np.linalg.solve(J, rhs.reshape(-1))
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
    X = np.empty((Z.shape[0] + K, n))
    # the survivors: every other unknown, and the last
    X[::2] = Z[:K + 1]
    X[-1] = Z[-1]
    Zt = Z.T
    sides = np.concatenate((Zt[:, :K], Zt[:, 1:K + 1]))
    y = top[:, 3 * n] - np.einsum("ijk,jk->ik", top[:, n:3 * n], sides)
    for j in range(n - 1, -1, -1):
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
    by a reassignment that keeps the zones and a normalization and
    refinement that keep the knot count.  Only the count is compared, so
    a knot that normalization drops and refinement adds back elsewhere
    goes unseen, and the returned mesh may be one that no sweep converged
    on (ROADMAP item 15, defect 1).  With
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

