"""Transformation-selection strategies.

A strategy looks at the current mesh iterate and splits the intervals
into zones, contiguous runs whose trapezoidal equations are written in the
same change of variables (swap plus flips).  The solver re-runs the
strategy after every Newton sweep until the assignment is stationary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, StrategyError
from .mesh import EvolvingMesh, Zone, merge_runs
from .ode_system import BoundaryConditions, OdeSystem, eval_rhs_batch
from .transform import IDENTITY, Transform


@dataclass(frozen=True)
class StiffnessConfig:
    """Thresholds for the automatic strategy.

    An interval counts as stiff when alpha*||F(left)|| + beta*||F(right)||
    (max norm over components) reaches ``theta``.
    """

    theta: float = 10.0
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        if not (self.theta > 1):
            raise ConfigError("theta must exceed 1")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise ConfigError("alpha, beta must be nonnegative, not both zero")


def stiffness_measure(fL: np.ndarray, fR: np.ndarray,
                      cfg: StiffnessConfig) -> np.ndarray:
    """Per-component weighted endpoint magnitude of the rhs on an interval.

    ``fL``, ``fR`` are rhs values at the interval ends, shape (n,) or
    (n, B).  The interval's stiffness is the max over components.
    """
    return cfg.alpha * np.abs(fL) + cfg.beta * np.abs(fR)


def select_swap_index(measure: np.ndarray, allowed=None):
    """Largest-component swap choice, smallest index on ties.

    ``allowed`` optionally restricts the candidate components (1-based).
    Returns a 1-based index, or None when no candidate is allowed.
    """
    order = np.argsort(-measure, kind="stable")
    for j in order:
        k = int(j) + 1
        if allowed is None or k in allowed:
            return k
    return None


def select_flips(uL: np.ndarray, uR: np.ndarray, k: int) -> frozenset:
    """Flip every component (other than the swapped one) that stays outside
    the unit ball at both interval ends."""
    big = np.minimum(np.abs(uL), np.abs(uR)) > 1.0
    return frozenset(int(j) + 1 for j in np.flatnonzero(big) if j + 1 != k)


class TransformStrategy:
    """Base interface: map a mesh iterate to zones of interval transforms."""

    name = "base"

    def assign(self, mesh: EvolvingMesh, system: OdeSystem,
               bc: BoundaryConditions) -> Tuple[Zone, ...]:
        """Zones for the mesh: (transform, start, stop) runs in the form
        ``EvolvingMesh`` takes, covering intervals 0..m-1."""
        raise NotImplementedError


def _layout(m: int, parts: Sequence[Tuple[Transform, int]]):
    """Zones of a fixed layout of distinct transforms given as (transform,
    first interval) pairs in order; each runs to the next pair's first
    interval, and empty runs are dropped."""
    stops = [start for _, start in parts[1:]] + [m]
    return tuple((tr, start, stop)
                 for (tr, start), stop in zip(parts, stops) if start < stop)


class IdentityStrategy(TransformStrategy):
    """Keep every interval in the original variables."""

    name = "identity"

    def assign(self, mesh, system, bc):
        return ((IDENTITY, 0, mesh.interval_count),)


class AutoStrategy(TransformStrategy):
    """Threshold-driven selection.

    For each interval whose stiffness reaches theta, swap the component
    with the largest weighted endpoint rhs magnitude.  If the swapped
    equation is still stiff (largest remaining component over the swap
    denominator reaches theta), additionally flip the components that are
    large in absolute value at both ends.  On boundary intervals only
    components pinned by a Dirichlet condition at that end may be swapped,
    and no component equal at both ends of the interval may be: its swap
    would make the natural step zero.
    """

    name = "auto"

    def __init__(self, cfg: StiffnessConfig = StiffnessConfig()):
        self.cfg = cfg

    def assign(self, mesh, system, bc):
        m = mesh.interval_count
        F = eval_rhs_batch(system, mesh.U.T, mesh.T)      # (n, m+1)
        fL, fR = F[:, :-1], F[:, 1:]
        meas = stiffness_measure(fL, fR, self.cfg)        # (n, m)
        moving = mesh.U[:-1] != mesh.U[1:]                # (m, n)
        out: List[Transform] = []
        for i in range(m):
            col = meas[:, i]
            if col.max() < self.cfg.theta:
                out.append(IDENTITY)
                continue
            allowed = {int(j) + 1 for j in np.flatnonzero(moving[i])}
            if i == 0:
                allowed &= {c for (s, c) in bc.pins if s == "a"}
            elif i == m - 1:
                allowed &= {c for (s, c) in bc.pins if s == "b"}
            k = select_swap_index(col, allowed)
            if k is None:
                out.append(IDENTITY)
                continue
            flips = frozenset()
            denom = min(abs(fL[k - 1, i]), abs(fR[k - 1, i]))
            if denom > 0:
                residual_stiff = max(col.max(), 1.0) / denom
                if residual_stiff >= self.cfg.theta:
                    flips = select_flips(mesh.U[i], mesh.U[i + 1], k)
            out.append(Transform(swap=k, flips=flips))
        return merge_runs((tr, i, i + 1) for i, tr in enumerate(out))


class GrowthZoneStrategy(TransformStrategy):
    """Two-zone layout for problems with one monotone boundary layer:
    original variables up to the point where the second component exceeds 1,
    then swap the first component and flip the second.
    """

    name = "troesch-sp1fp2"

    def assign(self, mesh, system, bc):
        if mesh.n != 2:
            raise StrategyError(f"{self.name} strategy needs a 2d system")
        m = mesh.interval_count
        hot = np.flatnonzero(mesh.U[:, 1] > 1.0)
        eps_idx = int(hot[0]) if hot.size else m
        layer = Transform(swap=1, flips=frozenset({2}))
        return _layout(m, [(IDENTITY, 0), (layer, eps_idx)])


class SteepGrowthZoneStrategy(TransformStrategy):
    """Three-zone layout for very steep monotone layers.

    Zone boundaries are read off the iterate: the middle zone starts where
    the second rhs component exceeds 1 (the slope starts growing fast) and
    swaps the second component; the last zone starts where the cubic growth
    of the flipped slope, u_2**3, overtakes that rhs component, and swaps
    the first component while flipping the second.
    """

    name = "troesch-sp2-sp1fp2"

    def assign(self, mesh, system, bc):
        if mesh.n != 2:
            raise StrategyError(f"{self.name} strategy needs a 2d system")
        m = mesh.interval_count
        F = eval_rhs_batch(system, mesh.U.T, mesh.T)
        f2 = F[1]
        hot = np.flatnonzero(f2 > 1.0)
        eps_idx = int(hot[0]) if hot.size else m
        cubic = mesh.U[:, 1] ** 3
        tail = np.flatnonzero((np.arange(m + 1) >= eps_idx) & (f2 < cubic))
        eps1_idx = int(tail[0]) if tail.size else m
        if eps_idx < m:
            # the middle zone swaps an unpinned component, so it must not
            # touch the right boundary interval
            eps1_idx = min(eps1_idx, m - 1)
        mid = Transform(swap=2)
        layer = Transform(swap=1, flips=frozenset({2}))
        return _layout(m, [(IDENTITY, 0), (mid, eps_idx), (layer, eps1_idx)])


_STRATEGIES = {
    "identity": IdentityStrategy,
    "auto": AutoStrategy,
    "troesch-sp1fp2": GrowthZoneStrategy,
    "troesch-sp2-sp1fp2": SteepGrowthZoneStrategy,
}


def strategy_by_name(name: str, cfg: StiffnessConfig = None) -> TransformStrategy:
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown strategy {name!r}; choices: {sorted(_STRATEGIES)}")
    if cls is AutoStrategy and cfg is not None:
        return cls(cfg)
    return cls()
