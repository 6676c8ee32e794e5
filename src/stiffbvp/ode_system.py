"""First-order ODE systems u' = F(u, t) with two-point boundary conditions.

Right-hand sides follow a batch convention: ``rhs(u, t)`` must accept
``u`` of shape ``(n,)`` with scalar ``t`` and, preferably, ``u`` of shape
``(n, B)`` with ``t`` of shape ``(B,)`` (numpy broadcasting usually gives
this for free).  Evaluation helpers fall back to a per-point loop when a
right-hand side is not batch-safe.  An analytic ``jac`` follows the same
convention with the batch axis last: shape ``(n, n+1)`` for one state and
``(n, n+1, B)`` for a batch; it must be batch-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import EvaluationError

# relative central-difference step of the float64 arithmetic: eps**(1/3)
FD_REL_STEP = float(np.finfo(np.float64).eps) ** (1.0 / 3.0)


def fd_step(x):
    """Per-coordinate central-difference step: eps^(1/3) * max(1, |x|)."""
    return FD_REL_STEP * np.maximum(1.0, np.abs(x))


@dataclass(frozen=True)
class OdeSystem:
    """System of n first-order ODEs u'(t) = F(u(t), t).

    ``jac``, when given, maps (u, t) to the n x (n+1) matrix whose first n
    columns are dF/du and whose last column is dF/dt; for a batch
    (u of shape (n, B), t of shape (B,)) it returns shape (n, n+1, B).
    ``params`` holds named parameters (e.g. ``lambda``) so continuation can
    rebuild systems without reconstructing closures.
    """

    n: int
    rhs: Callable
    jac: Optional[Callable] = None
    params: Mapping[str, float] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("system dimension must be positive")

    def with_params(self, **updates) -> "OdeSystem":
        merged = dict(self.params)
        merged.update(updates)
        return OdeSystem(self.n, self.rhs, self.jac, merged, self.name)


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


def eval_rhs(system: OdeSystem, u, t):
    """Evaluate F(u, t) for a single state, checking finiteness."""
    u = np.asarray(u, dtype=float)
    if u.shape != (system.n,):
        raise ValueError(f"state must have shape ({system.n},), got {u.shape}")
    # overflow to inf is expected near steep layers and reported below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.asarray(system.rhs(u, t), dtype=float)
    if out.shape != (system.n,):
        raise EvaluationError(
            f"rhs returned shape {out.shape}, expected ({system.n},)")
    bad = ~np.isfinite(out)
    if bad.any():
        j = int(np.argmax(bad))
        raise EvaluationError(
            f"non-finite rhs component {j + 1} at t={t!r}", component=j + 1)
    return out


def eval_rhs_batch(system: OdeSystem, U, T):
    """Evaluate F at many states at once.

    ``U`` has shape (n, B), ``T`` shape (B,).  Falls back to a loop if the
    rhs is not batch-safe.  Non-finite entries raise EvaluationError.
    """
    U = np.asarray(U, dtype=float)
    T = np.asarray(T, dtype=float)
    # overflow to inf is expected near steep layers and reported below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            out = np.asarray(system.rhs(U, T), dtype=float)
            if out.shape != U.shape:
                raise ValueError
        except EvaluationError:
            raise
        except Exception:
            out = np.empty_like(U)
            for b in range(U.shape[1]):
                out[:, b] = system.rhs(U[:, b], T[b])
    bad = ~np.isfinite(out)
    if bad.any():
        j = int(np.argmax(bad.any(axis=-1)))
        raise EvaluationError(
            f"non-finite rhs component {j + 1} in batched evaluation",
            component=j + 1)
    return out


def eval_jacobian_batch(system: OdeSystem, U, T, scale=None):
    """[dF/du | dF/dt] at many states at once, shape (n, n+1, B).

    ``U`` has shape (n, B), ``T`` shape (B,).  Uses the analytic ``jac``
    when present, otherwise central differences of the rhs with step
    eps^(1/3) * max(|x|, scale) per coordinate x of (u, t); ``scale`` is
    an (n+1, B) array of coordinate magnitudes and defaults to 1.
    Non-finite entries raise EvaluationError.
    """
    U = np.asarray(U, dtype=float)
    T = np.asarray(T, dtype=float)
    n, count = U.shape
    if system.jac is not None:
        # overflow to inf is expected near steep layers and reported below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = np.asarray(system.jac(U, T), dtype=float)
        if out.shape != (n, n + 1, count):
            raise EvaluationError(
                f"jac returned shape {out.shape}, "
                f"expected ({n}, {n + 1}, {count})")
    else:
        Z = np.vstack([U, T])
        h = FD_REL_STEP * np.maximum(
            np.abs(Z), 1.0 if scale is None else scale)
        out = np.empty((n, n + 1, count))
        for j in range(n + 1):
            Zp, Zm = Z.copy(), Z.copy()
            Zp[j] += h[j]
            Zm[j] -= h[j]
            out[:, j] = ((eval_rhs_batch(system, Zp[:n], Zp[n])
                          - eval_rhs_batch(system, Zm[:n], Zm[n]))
                         / (Zp[j] - Zm[j]))
    if not np.isfinite(out).all():
        raise EvaluationError("non-finite Jacobian entry in batched "
                              "evaluation")
    return out


def fd_jacobian(system: OdeSystem, u, t):
    """Central-difference Jacobian [dF/du | dF/dt] of the rhs."""
    u = np.asarray(u, dtype=float)
    n = system.n
    out = np.empty((n, n + 1))
    for j in range(n):
        h = float(fd_step(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        out[:, j] = (eval_rhs(system, up, t) - eval_rhs(system, um, t)) / (2 * h)
    h = float(fd_step(t))
    out[:, n] = (eval_rhs(system, u, t + h) - eval_rhs(system, u, t - h)) / (2 * h)
    if not np.isfinite(out).all():
        raise EvaluationError("non-finite finite-difference Jacobian entry")
    return out


def from_second_order(N: Callable, params=None, name="") -> OdeSystem:
    """Adapt a scalar second-order equation u'' = N(u', u, t).

    Returns the 2-dimensional system u1' = u2, u2' = N(u2, u1, t).
    """

    def rhs(u, t):
        u1, u2 = u[0], u[1]
        return np.stack([u2 * np.ones_like(np.asarray(t, dtype=float)),
                         np.asarray(N(u2, u1, t), dtype=float)])

    return OdeSystem(2, rhs, params=dict(params or {}), name=name)
