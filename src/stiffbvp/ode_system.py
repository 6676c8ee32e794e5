"""First-order ODE systems u' = F(u, t) with two-point boundary conditions.

Right-hand sides must be batch-safe: ``rhs(u, t)`` accepts ``u`` of shape
``(n,)`` with scalar ``t`` and ``u`` of shape ``(n, B)`` with ``t`` of
shape ``(B,)`` (numpy broadcasting usually gives this for free), as in
scipy's ``solve_bvp``.  A ``jac`` follows the same convention with the
batch axis last: shape ``(n, n+1)`` for one state and ``(n, n+1, B)`` for
a batch.  A system built without one differences its rhs centrally in
the original variables (u, t); derivatives in transformed variables come
from that one Jacobian by the chain rule, never from differences of their
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import EvaluationError

# relative central-difference step of the float64 arithmetic: eps**(1/3)
FD_REL_STEP = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)


def fd_step(x):
    """Per-coordinate central-difference step: eps^(1/3) * max(1, |x|)."""
    return FD_REL_STEP * np.maximum(1.0, np.abs(x))


def central_differences(f: Callable, z):
    """Derivatives of f at z by central differences with the fd_step rule,
    one column per coordinate of z: for z of shape (k,) or (k, B) and f(z)
    of shape (r,) or (r, B), the result has shape (r, k) or (r, k, B)."""
    z = np.asarray(z, dtype=float)
    h = fd_step(z)
    cols = []
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += h[j]
        zm[j] -= h[j]
        cols.append(np.subtract(f(zp), f(zm)) / (zp[j] - zm[j]))
    return np.array(cols).swapaxes(0, 1)


def rhs_jacobian(rhs: Callable, u, t):
    """[dF/du | dF/dt] of ``rhs`` at (u, t) by central differences in the
    original variables; the default ``jac`` of an OdeSystem."""
    z = np.concatenate([u, np.asarray(t, dtype=float)[None]])
    return central_differences(lambda y: rhs(y[:-1], y[-1]), z)


@dataclass(frozen=True)
class OdeSystem:
    """System of n first-order ODEs u'(t) = F(u(t), t).

    ``rhs`` must be batch-safe (see the module docstring).  ``jac`` maps
    (u, t) to the n x (n+1) matrix whose first n columns are dF/du and
    whose last column is dF/dt; for a batch (u of shape (n, B), t of shape
    (B,)) it returns shape (n, n+1, B).  Without one, the system differences
    ``rhs`` centrally in (u, t) (``rhs_jacobian``).  ``params`` records the
    named parameters the system was built with (e.g. ``lam``), for reports.
    """

    n: int
    rhs: Callable
    jac: Optional[Callable] = None
    params: Mapping[str, float] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("system dimension must be positive")
        object.__setattr__(self, "jac",
                           self.jac or partial(rhs_jacobian, self.rhs))


@dataclass(frozen=True)
class BoundaryConditions:
    """Two-point boundary conditions g(u(a), u(b)) = 0.

    ``pins`` records scalar Dirichlet conditions in structured form:
    ``(side, component) -> (row, value)`` with ``side`` in {"a", "b"} and a
    1-based component index.  Row is the index of the corresponding scalar
    condition inside ``residual``'s output.  The solver needs this to decide
    whether a swap on a boundary interval is admissible.
    """

    residual: Callable
    pins: Mapping = field(default_factory=dict)


# overflow to inf is expected near steep layers and reported by callers
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _call_batch(fn: Callable, what: str, U, T):
    """fn(U, T) as a float array; the TypeError or ValueError with which a
    function that is not batch-safe fails becomes an EvaluationError."""
    try:
        return np.asarray(fn(U, T), dtype=float)
    except (TypeError, ValueError) as exc:
        raise EvaluationError(
            f"{what} failed on a batch of {U.shape[1]} states ({exc}); "
            f"it must accept u of shape (n, B) and t of shape (B,)"
        ) from exc


def eval_rhs_batch(system: OdeSystem, U, T):
    """Evaluate F at many states at once.

    ``U`` has shape (n, B), ``T`` shape (B,).  A rhs that is not
    batch-safe, and non-finite entries, raise EvaluationError.
    """
    U = np.asarray(U, dtype=float)
    T = np.asarray(T, dtype=float)
    out = _call_batch(system.rhs, "rhs", U, T)
    if out.shape != U.shape:
        raise EvaluationError(
            f"rhs returned shape {out.shape} for a batch, expected {U.shape}")
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out)
        j = int(np.argmax(bad.any(axis=-1)))
        raise EvaluationError(
            f"non-finite rhs component {j + 1} in batched evaluation",
            component=j + 1)
    return out


def eval_jacobian_batch(system: OdeSystem, U, T):
    """[dF/du | dF/dt] at many states at once, shape (n, n+1, B), from the
    system's ``jac``.

    ``U`` has shape (n, B), ``T`` shape (B,).  A wrong shape and non-finite
    entries raise EvaluationError; for the latter it names the first state
    in the batch with one, and its first such row.
    """
    U = np.asarray(U, dtype=float)
    T = np.asarray(T, dtype=float)
    n, count = U.shape
    out = _call_batch(system.jac, "jac", U, T)
    if out.shape != (n, n + 1, count):
        raise EvaluationError(
            f"jac returned shape {out.shape}, "
            f"expected ({n}, {n + 1}, {count})")
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out)
        b = int(np.argmax(bad.any(axis=(0, 1))))
        j = int(np.argmax(bad[..., b].any(axis=1)))
        raise EvaluationError(
            f"non-finite Jacobian entry in row {j + 1} at batch index {b}",
            component=j + 1)
    return out


def from_second_order(N: Callable, params=None, name="") -> OdeSystem:
    """Adapt a scalar second-order equation u'' = N(u', u, t).

    Returns the 2-dimensional system u1' = u2, u2' = N(u2, u1, t).
    """

    def rhs(u, t):
        u1, u2 = u[0], u[1]
        # N may return a scalar; broadcasting keeps the rhs batch-safe
        return np.stack(np.broadcast_arrays(
            u2 * np.ones_like(np.asarray(t, dtype=float)),
            np.asarray(N(u2, u1, t), dtype=float)))

    return OdeSystem(2, rhs, params=dict(params or {}), name=name)
