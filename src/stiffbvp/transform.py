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

from .errors import EvaluationError
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

    @property
    def max_index(self) -> int:
        """Largest component index the transform acts on; 0 for I."""
        return max(self.flips | {self.swap or 0})

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


def apply(transform: Transform, system: OdeSystem) -> OdeSystem:
    """The system in the transform's natural variables (v, s).

    F is evaluated once, at u_l = 1/v_l for each flip l and, for a k-swap,
    at u_k = s with t = v_k (otherwise t = s).  The flips give
    H_l = -F_l * v_l**2 (H_i = F_i elsewhere), and a k-swap then divides by
    H_k: G = H / H_k with G_k = 1 / H_k.  Evaluating at v_l = 0 or where
    H_k = 0 raises EvaluationError.  The result's ``jac`` takes the chain
    rule from one evaluation each of the system's rhs and ``jac``, which
    is [dF/du | dF/dt] in the original variables.
    """
    if transform.is_identity:
        return system
    n, k, flips = system.n, transform.swap, sorted(transform.flips)
    if transform.max_index > n:
        raise ValueError(f"{transform.label()} indexes a component outside "
                         f"1..{n}")
    ki = None if k is None else k - 1
    # columns of [dF/du | dF/dt] in the swapped variables: position k now
    # holds the old t, the independent variable the old u_k
    perm = list(range(n + 1))
    if ki is not None:
        perm[ki], perm[n] = n, ki

    def evaluate(v, s):
        """v as an array, F's arguments (u, t), F(u, t) and H."""
        v = np.asarray(v, dtype=float)
        u, t = v.copy(), s
        if ki is not None:
            u[ki], t = s, v[ki]
        for l in flips:
            if np.any(v[l - 1] == 0.0):
                raise EvaluationError(
                    f"flip component w_{l} vanished", component=l)
            u[l - 1] = 1.0 / v[l - 1]
        f = np.asarray(system.rhs(u, t), dtype=float)
        h = f.copy()
        for l in flips:
            h[l - 1] = -f[l - 1] * v[l - 1] * v[l - 1]
        if ki is not None and np.any(h[ki] == 0.0):
            raise EvaluationError(
                f"swap denominator F_{k} vanished", component=k)
        return v, u, t, f, h

    def rhs(v, s):
        h = evaluate(v, s)[-1]
        if ki is None:
            return h
        out = h / h[ki]
        out[ki] = 1.0 / h[ki]
        return out

    def jac(v, s):
        v, u, t, f, h = evaluate(v, s)
        df = np.array(system.jac(u, t), dtype=float)
        for l in flips:
            li = l - 1
            df[:, li] *= -u[li] * u[li]             # d(1/v_l)/dv_l
            df[li] *= -v[li] * v[li]                # H_l = -F_l * v_l**2
            df[li, li] -= 2.0 * f[li] * v[li]
        if ki is None:
            return df
        df = df[:, perm]
        # G_j = H_j / H_k for j != k, G_k = 1 / H_k
        out = (df - (h / h[ki])[:, None] * df[ki]) / h[ki]
        out[ki] = -df[ki] / h[ki] / h[ki]
        return out

    return OdeSystem(n, rhs, jac=jac, params=system.params,
                     name=f"{transform.label()}({system.name or '?'})")


def map_state(transform: Transform, x, s):
    """The transform's change of variables on an extended state (x, s).

    Returns (y, r): y_l = 1/x_l for each flip l and, for a k-swap, x_k and
    s exchanged (y_k = s, r = x_k); otherwise r = s.  The map is an
    involution, so it takes original (u, t) to natural (q, tau) and
    natural back to original; ``unmap_state`` is the same function.
    Works on a single state (x shape (n,), scalar s) or on a batch
    (x shape (n, B), s shape (B,)).  A zero flipped component raises
    EvaluationError, as in ``apply``.
    """
    x = np.asarray(x, dtype=float)
    y = x.copy()
    for l in transform.flips:
        xl = x[l - 1]
        if np.any(xl == 0.0):
            raise EvaluationError(f"cannot flip zero component x_{l}",
                                  component=l)
        y[l - 1] = 1.0 / xl
    if transform.swap is not None:
        ki = transform.swap - 1
        r = np.array(x[ki], dtype=float, copy=True)
        y[ki] = s
    else:
        r = np.array(s, dtype=float, copy=True)
    if r.ndim == 0:
        r = float(r)
    return y, r


unmap_state = map_state


def state_jacobian(transform: Transform, x):
    """Jacobian of map_state at (x, s) with respect to (x, s), which is
    also that of unmap_state: the two are one map.  Shape (n+1, n+1), or
    (n+1, n+1, B) for a batch x of shape (n, B).
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
