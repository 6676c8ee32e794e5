"""Swap and flip operators on ODE systems.

A k-swap exchanges the k-th dependent variable with the independent
variable: the transformed system G has components G_j = F_j / F_k for
j != k and G_k = 1 / F_k, with the argument in position k replaced by the
new independent variable and the old independent variable supplied from
position k.  An l-flip replaces the l-th dependent variable by its
reciprocal: H_i = F_i with u_l -> 1/w_l for i != l and H_l = -F_l * w_l**2.

Both operators are involutions and commute with each other, so a general
per-interval transformation is described by an optional swap index plus a
set of flip indices (1-based, swap index excluded from the flips).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

import numpy as np

from .errors import DomainError, EvaluationError
from .ode_system import OdeSystem


@dataclass(frozen=True)
class Transform:
    """Per-interval change of variables: optional swap plus flips.

    Indices are 1-based.  The empty transform is the identity.
    """

    swap: Optional[int] = None
    flips: FrozenSet[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "flips", frozenset(self.flips))
        if self.swap is not None and self.swap < 1:
            raise ValueError("swap index must be >= 1")
        if any(l < 1 for l in self.flips):
            raise ValueError("flip indices must be >= 1")
        if self.swap is not None and self.swap in self.flips:
            raise ValueError("composing a k-swap with a k-flip is not allowed")

    @property
    def is_identity(self) -> bool:
        return self.swap is None and not self.flips

    def label(self) -> str:
        """Compact text form: "I", "SP1.FP2", "SP2", "FP2", ..."""
        if self.is_identity:
            return "I"
        parts = []
        if self.swap is not None:
            parts.append(f"SP{self.swap}")
        parts.extend(f"FP{l}" for l in sorted(self.flips))
        return ".".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Transform":
        text = text.strip()
        if text == "I" or text == "":
            return cls()
        swap = None
        flips = set()
        for part in text.split("."):
            if not part:
                continue
            if part.startswith("SP"):
                if swap is not None:
                    raise ValueError(f"multiple swaps in {text!r}")
                swap = int(part[2:])
            elif part.startswith("FP"):
                flips.add(int(part[2:]))
            else:
                raise ValueError(f"bad transform token {part!r} in {text!r}")
        return cls(swap=swap, flips=frozenset(flips))


IDENTITY = Transform()


@dataclass
class NaturalState:
    """State of an interval in its own (transformed) variables."""

    q: np.ndarray
    tau: float


def swap_system(system: OdeSystem, k: int) -> OdeSystem:
    """Apply the k-swap operator; the result's independent variable is the
    original k-th component.  Evaluating where F_k = 0 raises
    EvaluationError (the swap is invalid there).  The result has a ``jac``,
    composed by the chain rule, when ``system`` has one."""
    if not (1 <= k <= system.n):
        raise ValueError(f"swap index {k} outside 1..{system.n}")
    ki = k - 1

    def rhs(v, u):
        v = np.asarray(v, dtype=float)
        args = v.copy()
        args[ki] = u
        f = np.asarray(system.rhs(args, v[ki]), dtype=float)
        fk = f[ki]
        if np.any(fk == 0.0):
            raise EvaluationError(
                f"swap denominator F_{k} vanished", component=k)
        out = f / fk
        out[ki] = 1.0 / fk
        return out

    # columns of [dF/du | dF/dt] in the swapped variables: position k now
    # holds the old t, the independent variable the old u_k
    perm = list(range(system.n + 1))
    perm[ki], perm[system.n] = system.n, ki

    def jac(v, u):
        v = np.asarray(v, dtype=float)
        args = v.copy()
        args[ki] = u
        f = np.asarray(system.rhs(args, v[ki]), dtype=float)
        fk = f[ki]
        if np.any(fk == 0.0):
            raise EvaluationError(
                f"swap denominator F_{k} vanished", component=k)
        df = np.asarray(system.jac(args, v[ki]), dtype=float)[:, perm]
        # G_j = F_j / F_k for j != k, G_k = 1 / F_k
        out = (df - (f / fk)[:, None] * df[ki]) / fk
        out[ki] = -df[ki] / fk / fk
        return out

    return OdeSystem(system.n, rhs,
                     jac=jac if system.jac is not None else None,
                     params=system.params,
                     name=f"SP{k}({system.name or '?'})")


def flip_system(system: OdeSystem, l: int) -> OdeSystem:
    """Apply the l-flip operator (u_l -> 1/w_l).  Evaluating at w_l = 0
    raises EvaluationError.  The result has a ``jac``, composed by the
    chain rule, when ``system`` has one."""
    if not (1 <= l <= system.n):
        raise ValueError(f"flip index {l} outside 1..{system.n}")
    li = l - 1

    def rhs(w, t):
        w = np.asarray(w, dtype=float)
        wl = w[li]
        if np.any(wl == 0.0):
            raise EvaluationError(
                f"flip component w_{l} vanished", component=l)
        args = w.copy()
        args[li] = 1.0 / wl
        f = np.asarray(system.rhs(args, t), dtype=float)
        out = f.copy()
        out[li] = -f[li] * wl * wl
        return out

    def jac(w, t):
        w = np.asarray(w, dtype=float)
        wl = w[li]
        if np.any(wl == 0.0):
            raise EvaluationError(
                f"flip component w_{l} vanished", component=l)
        args = w.copy()
        args[li] = 1.0 / wl
        f = np.asarray(system.rhs(args, t), dtype=float)
        out = np.array(system.jac(args, t), dtype=float)
        out[:, li] *= -args[li] * args[li]      # d(1/w_l)/dw_l
        out[li] *= -wl * wl                     # H_l = -F_l * w_l**2
        out[li, li] -= 2.0 * f[li] * wl
        return out

    return OdeSystem(system.n, rhs,
                     jac=jac if system.jac is not None else None,
                     params=system.params,
                     name=f"FP{l}({system.name or '?'})")


def apply(transform: Transform, system: OdeSystem) -> OdeSystem:
    """Compose the transform's flips and swap into a single system.

    Flips are applied first, then the swap; the order does not matter
    because the operators commute.
    """
    out = system
    for l in sorted(transform.flips):
        out = flip_system(out, l)
    if transform.swap is not None:
        out = swap_system(out, transform.swap)
    return out


def map_state(transform: Transform, u, t):
    """Map an original state (u, t) to the transform's natural variables.

    Works on a single state (u shape (n,), scalar t) or on a batch
    (u shape (n, B), t shape (B,)).  Returns NaturalState(q, tau).
    """
    u = np.asarray(u, dtype=float)
    q = u.copy()
    for l in transform.flips:
        ul = u[l - 1]
        if np.any(ul == 0.0):
            raise DomainError(f"cannot flip zero component u_{l}")
        q[l - 1] = 1.0 / ul
    if transform.swap is not None:
        ki = transform.swap - 1
        tau = np.array(u[ki], dtype=float, copy=True)
        q[ki] = t
    else:
        tau = np.array(t, dtype=float, copy=True)
    if tau.ndim == 0:
        tau = float(tau)
    return NaturalState(q=q, tau=tau)


def unmap_state(transform: Transform, q, tau):
    """Inverse of map_state: recover (u, t) from natural variables.

    Accepts the same single-state or batch shapes as map_state.
    """
    q = np.asarray(q, dtype=float)
    tau = np.asarray(tau, dtype=float)
    u = q.copy()
    if transform.swap is not None:
        ki = transform.swap - 1
        t = np.array(q[ki], dtype=float, copy=True)
        u[ki] = tau
    else:
        t = tau.copy()
    for l in transform.flips:
        ql = q[l - 1]
        if np.any(ql == 0.0):
            raise DomainError(f"cannot unflip zero component q_{l}")
        u[l - 1] = 1.0 / ql
    if t.ndim == 0:
        t = float(t)
    return u, t


def state_jacobian(transform: Transform, x):
    """Jacobian of map_state at (x, s) with respect to (x, s).

    The map acts on the extended state (x, s) as reciprocals of the flipped
    components plus, for a swap, an exchange of x_k with s; it does not
    depend on s.  Both parts are involutions on disjoint coordinates, so
    unmap_state is the same map and this is also its Jacobian at natural
    variables (x, s).  Shape (n+1, n+1), or (n+1, n+1, B) for a batch x of
    shape (n, B).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    out = np.zeros((n + 1, n + 1) + x.shape[1:])
    for j in range(n + 1):
        out[j, j] = 1.0
    for l in transform.flips:
        out[l - 1, l - 1] = -1.0 / x[l - 1] ** 2
    if transform.swap is not None:
        out[[transform.swap - 1, n]] = out[[n, transform.swap - 1]]
    return out
