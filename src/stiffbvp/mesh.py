"""Evolving mesh of (u, t) knots with zones of interval transforms.

The mesh is the iterative-solver view of a classical mesh: each knot
carries the full current approximation, and each interval between
consecutive knots belongs to a zone, a contiguous run of intervals whose
trapezoidal equations are written under the same transformation.
Refinement and zigzag/condensation repair act on natural steps, i.e. steps
measured in each interval's own independent variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .errors import ConfigError, MeshError, RefinementError
from .ode_system import OdeSystem, eval_rhs_batch
from .transform import IDENTITY, Transform, apply, map_state

# (transform, start, stop): intervals start..stop-1 use the transform
Zone = Tuple[Transform, int, int]

# most knots a mesh may reach, by cold start or by refinement
MAX_KNOTS = 10 ** 7


@dataclass
class EvolvingMesh:
    """Ordered knots (U row per knot, matching T entry) plus the zones of
    interval transforms.  Value-semantic: operations return new meshes.

    ``zones`` is a sequence of (transform, start, stop) runs that cover
    intervals 0..m-1 in order; each run is non-empty and its neighbours
    carry different transforms.  The default is one identity zone.
    """

    U: np.ndarray                       # (m+1, n)
    T: np.ndarray                       # (m+1,)
    zones: Optional[Tuple[Zone, ...]] = None

    def __post_init__(self):
        self.U = np.atleast_2d(np.asarray(self.U, dtype=float))
        self.T = np.asarray(self.T, dtype=float)
        if len(self.T) != self.U.shape[0]:
            raise ConfigError("knot count mismatch between U and T")
        m = len(self.T) - 1
        if m < 1:
            raise ConfigError(f"a mesh needs at least 2 knots, got {m + 1}")
        if self.zones is None:
            self.zones = ((IDENTITY, 0, m),)
        self.zones = tuple((tr, int(s), int(e)) for tr, s, e in self.zones)
        stop = 0
        for k, (tr, s, e) in enumerate(self.zones):
            if s != stop or e <= s:
                raise ConfigError(
                    f"zone {k} covers intervals {s}..{e - 1}, expected a "
                    f"non-empty run starting at {stop}")
            if k and tr == self.zones[k - 1][0]:
                raise ConfigError(
                    f"zones {k - 1} and {k} carry the same transform")
            if tr.max_index > self.n:
                raise ConfigError(
                    f"zone {k} transform {tr.label()} indexes a component "
                    f"outside 1..{self.n}")
            stop = e
        if stop != m:
            raise ConfigError(f"zones cover {stop} of {m} intervals")

    @property
    def n(self) -> int:
        return self.U.shape[1]

    @property
    def knot_count(self) -> int:
        return len(self.T)

    @property
    def interval_count(self) -> int:
        return len(self.T) - 1

    def copy(self) -> "EvolvingMesh":
        return EvolvingMesh(self.U.copy(), self.T.copy(), self.zones)

    def natural_steps(self, signed: bool = False) -> np.ndarray:
        """tau_{i+1} - tau_i per interval, in each interval's own variable.

        Unsigned by default; pass ``signed=True`` to see orientation
        (inverted intervals show up as sign flips within a zone).
        """
        out = np.empty(self.interval_count)
        for tr, s, e in self.zones:
            _, tau = map_state(tr, self.U[s:e + 1].T, self.T[s:e + 1])
            out[s:e] = np.diff(tau)
        return out if signed else np.abs(out)


def merge_runs(runs: Iterable[Zone]) -> Tuple[Zone, ...]:
    """Zones from consecutive (transform, start, stop) runs: neighbours
    with equal transforms merge into one zone."""
    out = []
    for tr, s, e in runs:
        if out and out[-1][0] == tr:
            out[-1] = (tr, out[-1][1], e)
        else:
            out.append((tr, s, e))
    return tuple(out)


def _inherit_zones(zones: Tuple[Zone, ...],
                   parent: np.ndarray) -> Tuple[Zone, ...]:
    """Zones of a re-indexed mesh whose interval j takes the transform of
    interval ``parent[j]`` of a mesh with ``zones``."""
    stops = np.array([e for _, _, e in zones])
    code = np.searchsorted(stops, parent, side="right")
    cut = (np.flatnonzero(np.diff(code)) + 1).tolist()
    return merge_runs((zones[code[s]][0], s, e)
                      for s, e in zip([0] + cut, cut + [len(parent)]))


@dataclass(frozen=True)
class RefinementConfig:
    """Naive step-size rule: keep ||T(F)(right) - T(F)(left)|| < 2M in each
    interval's natural variables, with steps clamped to [h_min, h_max]."""

    M: float
    h_min: float
    h_max: float

    def __post_init__(self):
        if not (self.M > 0):
            raise ConfigError("M must be positive")
        if not (self.h_max >= self.h_min > 0):
            raise ConfigError("need h_max >= h_min > 0")


def init_linear(a: float, b: float, m: int, bc_values, n: int = 2) -> EvolvingMesh:
    """Equally spaced initial guess.

    ``bc_values`` are the Dirichlet endpoint values of the first component;
    it is interpolated linearly, the second component (when present) is set
    to the interpolant's constant slope, remaining components to zero.  All
    intervals form one identity zone.  At most MAX_KNOTS knots.
    """
    if not 2 <= m < MAX_KNOTS:
        raise ConfigError(f"need 2 to {MAX_KNOTS - 1} intervals, got {m}")
    if not a < b:
        raise ConfigError("need a < b")
    ua, ub = float(bc_values[0]), float(bc_values[1])
    T = np.linspace(a, b, m + 1)
    U = np.zeros((m + 1, n))
    U[:, 0] = ua + (ub - ua) * (T - a) / (b - a)
    if n >= 2:
        U[:, 1] = (ub - ua) / (b - a)
    return EvolvingMesh(U, T)


def normalize(mesh: EvolvingMesh, merge_tol: float = 0.0) -> EvolvingMesh:
    """Sort knots by t and decimate degenerate intervals.

    An interval is degenerate when its natural step is shorter than
    ``merge_tol`` or when it runs against its zone's orientation (a zigzag
    produced by the moving iterate); one of its knots is removed and the
    check repeats until the mesh is clean.  The two boundary knots are
    never removed.  Raises MeshError if fewer than 3 knots survive.
    """
    out = mesh
    order = np.argsort(out.T, kind="stable")
    if not np.array_equal(order, np.arange(len(order))):
        parent = np.minimum(order[:-1], out.interval_count - 1)
        out = EvolvingMesh(out.U[order], out.T[order],
                           _inherit_zones(out.zones, parent))
    while True:
        bad = _degenerate_mask(out, merge_tol)
        if bad is None:
            return out
        knots = out.knot_count
        # per degenerate interval, drop its right knot, or its left one
        # when the right knot is the domain endpoint; drops are batched
        # per pass but kept non-adjacent so each merge is local
        drop = np.zeros(knots, dtype=bool)
        for i in np.flatnonzero(bad):
            j = i + 1 if i + 1 < knots - 1 else i
            if j == 0:
                raise MeshError("cannot decimate a boundary knot")
            if drop[j] or drop[j - 1] or (j + 1 < knots and drop[j + 1]):
                continue
            drop[j] = True
        if knots - int(drop.sum()) < 3:
            raise MeshError("fewer than 3 knots after normalization")
        idx = np.flatnonzero(~drop)
        out = EvolvingMesh(out.U[idx], out.T[idx],
                           _inherit_zones(out.zones, idx[:-1]))


def _degenerate_mask(mesh: EvolvingMesh, merge_tol: float):
    """Boolean mask of degenerate intervals, or None when all are clean."""
    steps = mesh.natural_steps(signed=True)
    bad = np.zeros(mesh.interval_count, dtype=bool)
    for _, s, e in mesh.zones:
        group = steps[s:e]
        dominant = np.sign(np.median(group)) or 1.0
        bad[s:e] = (np.abs(group) < merge_tol) | (group * dominant <= 0.0)
    bad |= np.diff(mesh.T) == 0.0
    return bad if bad.any() else None


def refine(mesh: EvolvingMesh, system: OdeSystem,
           cfg: RefinementConfig) -> EvolvingMesh:
    """Bisect intervals until the rhs-difference bound and h_max hold.

    An interval is split while its natural step exceeds h_max, or while
    ||T(F)(q_R, tau_R) - T(F)(q_L, tau_L)|| >= 2M and both halves would
    stay at or above h_min.  New knots interpolate (u, t) linearly between
    their neighbors, and both halves stay in the parent interval's zone.
    """
    out = mesh
    for _ in range(64):  # each pass at least halves offending steps
        split = _split_mask(out, system, cfg)
        if not split.any():
            return out
        if out.knot_count + int(split.sum()) > MAX_KNOTS:
            raise RefinementError(
                f"refinement would exceed {MAX_KNOTS} knots")
        out = _bisect(out, split)
    raise RefinementError("refinement failed to settle (64 passes)")


def _split_mask(mesh: EvolvingMesh, system: OdeSystem,
                cfg: RefinementConfig) -> np.ndarray:
    split = np.empty(mesh.interval_count, dtype=bool)
    for tr, s, e in mesh.zones:
        q, tau = map_state(tr, mesh.U[s:e + 1].T, mesh.T[s:e + 1])
        h = np.abs(np.diff(tau))
        f = eval_rhs_batch(apply(tr, system), q, tau)
        d = np.max(np.abs(np.diff(f, axis=1)), axis=0)
        over_max = h > cfg.h_max * (1 + 1e-12)
        rough = (d >= 2 * cfg.M) & (h >= 2 * cfg.h_min * (1 - 1e-12))
        split[s:e] = (over_max | rough) & (h > 0)
    return split


def _bisect(mesh: EvolvingMesh, split: np.ndarray) -> EvolvingMesh:
    idx = np.flatnonzero(split)
    midU = 0.5 * (mesh.U[idx] + mesh.U[idx + 1])
    midT = 0.5 * (mesh.T[idx] + mesh.T[idx + 1])
    U = np.insert(mesh.U, idx + 1, midU, axis=0)
    T = np.insert(mesh.T, idx + 1, midT)
    parent = np.repeat(np.arange(mesh.interval_count), 1 + split)
    return EvolvingMesh(U, T, _inherit_zones(mesh.zones, parent))

