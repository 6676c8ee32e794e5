"""Zones: the contiguous runs of interval transforms a mesh stores.

Re-indexing operations (decimation, bisection) are checked against
a per-interval reference computed here, and the solver layers are checked
to compare transforms once per zone, not once per interval.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiffbvp import (ConfigError, EvolvingMesh, IdentityStrategy, MeshError,
                      OdeSystem, RefinementConfig, SegmentedProblem,
                      SteepGrowthZoneStrategy, Transform, normalize, refine,
                      solve_spec, troesch, uniform_mesh)
from stiffbvp.mesh import _bisect
from stiffbvp.transform import IDENTITY
from stiffbvp.trapezoid import _Sweep

# transforms whose natural independent variable is t itself, so that
# natural steps and orientation do not depend on the label sequence
PALETTE = [IDENTITY, Transform(flips={1}), Transform(flips={2}),
           Transform(flips={1, 2})]
FP1 = PALETTE[1]
SP1 = Transform(swap=1)


def _rle(per_interval):
    """Reference run-length encoding of a per-interval transform list."""
    runs = []
    for i, tr in enumerate(per_interval):
        if runs and runs[-1][0] == tr:
            runs[-1][2] = i + 1
        else:
            runs.append([tr, i, i + 1])
    return tuple(tuple(run) for run in runs)


def _constant_system():
    return OdeSystem(2, lambda u, t: np.ones(np.shape(u)))


def _random_mesh(labels, seed):
    """Sorted random knots on [0, 1] with positive states, tagged with the
    per-interval transforms PALETTE[labels]."""
    rng = np.random.default_rng(seed)
    m = len(labels)
    T = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, m - 1)),
                        [1.0]])
    U = 1.0 + rng.uniform(0.0, 1.0, (m + 1, 2))
    per = [PALETTE[k] for k in labels]
    return EvolvingMesh(U, T, _rle(per)), per


labels_st = st.lists(st.integers(0, len(PALETTE) - 1), min_size=4,
                     max_size=40)
seed_st = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=100, deadline=None)
@given(labels_st, seed_st, st.booleans(), st.sampled_from([0.0, 0.1, 0.25]))
@example([0] * 5, 532966, True, 0.1)
def test_normalize_zones_match_per_interval_reference(labels, seed, shuffle,
                                                      quantile):
    mesh, per = _random_mesh(labels, seed)
    m = mesh.interval_count
    if shuffle:
        # the knots' t go out of order, the zones stay as they were
        perm = np.concatenate([[0], 1 + np.random.default_rng(seed)
                               .permutation(m - 1), [m]])
        mesh = EvolvingMesh(mesh.U[perm], mesh.T[perm], mesh.zones)
    merge_tol = float(np.quantile(np.diff(np.sort(mesh.T)), quantile))
    try:
        out = normalize(mesh, merge_tol=merge_tol)
    except MeshError:
        # t-inverted intervals are decimated, and may leave too few knots
        if not shuffle:
            raise
        return
    # the surviving knots are input knots in input order, and each keeps
    # the transform of the interval it started
    order = np.argsort(mesh.T)
    kept = order[np.searchsorted(mesh.T[order], out.T)]
    assert (np.diff(kept) > 0).all()
    assert (np.diff(out.T) > 0).all()
    np.testing.assert_array_equal(mesh.T[kept], out.T)
    np.testing.assert_array_equal(mesh.U[kept], out.U)
    assert out.zones == _rle([per[k] for k in kept[:-1]])


@settings(max_examples=100, deadline=None)
@given(labels_st, seed_st, st.sampled_from([0.3, 0.6, 1.0]))
def test_refine_zones_match_per_interval_reference(labels, seed, quantile):
    mesh, per = _random_mesh(labels, seed)
    h_max = float(np.quantile(np.diff(mesh.T), quantile))
    cfg = RefinementConfig(M=10.0, h_min=1e-6, h_max=h_max)
    out = refine(mesh, _constant_system(), cfg)
    # every new interval lies inside the interval it was split from
    parent = np.searchsorted(mesh.T, out.T[:-1], side="right") - 1
    assert out.zones == _rle([per[i] for i in parent])


@settings(max_examples=100, deadline=None)
@given(labels_st, seed_st)
def test_bisect_zones_match_per_interval_reference(labels, seed):
    mesh, per = _random_mesh(labels, seed)
    split = np.random.default_rng(seed).random(mesh.interval_count) < 0.5
    out = _bisect(mesh, split)
    ref = [tr for tr, halves in zip(per, split) for _ in range(1 + halves)]
    assert out.zones == _rle(ref)


@pytest.mark.parametrize("knots, zones", [
    (6, [(IDENTITY, 0, 2), (FP1, 3, 5)]),             # gap
    (6, [(IDENTITY, 1, 5)]),                          # gap at the start
    (6, [(IDENTITY, 0, 3), (FP1, 2, 5)]),             # overlap
    (6, [(IDENTITY, 0, 0), (FP1, 0, 5)]),             # empty run
    (6, [(IDENTITY, 0, 2), (FP1, 2, 2), (IDENTITY, 2, 5)]),
    (6, [(IDENTITY, 0, 2), (IDENTITY, 2, 5)]),        # equal neighbours
    (6, [(IDENTITY, 0, 2), (FP1, 2, 4)]),             # short coverage
    (6, [(IDENTITY, 0, 6)]),                          # too long
    (1, []),                                          # no interval
    (6, [(IDENTITY, 0, 2), (Transform(flips={3}), 2, 5)]),  # FP3 with n=2
], ids=["gap", "late-start", "overlap", "empty", "empty-middle",
        "equal-neighbours", "short", "long", "no-interval", "index-above-n"])
def test_mesh_rejects_malformed_zones(knots, zones):
    T = np.linspace(0.0, 1.0, knots)
    with pytest.raises(ConfigError):
        EvolvingMesh(np.column_stack([T, np.ones(knots)]), T, zones)


def test_mesh_defaults_to_one_identity_zone():
    T = np.linspace(0.0, 1.0, 6)
    mesh = EvolvingMesh(np.column_stack([T, np.ones(6)]), T)
    assert mesh.zones == ((IDENTITY, 0, 5),)


def test_orientation_is_judged_per_zone():
    # two 1-swap zones, u1 rising in the first and falling in the second:
    # each zone is consistently oriented, so nothing is a zigzag
    T = np.linspace(0.0, 1.0, 10)
    u1 = np.array([0.0, 0.1, 0.2, 0.3, 0.35, 0.4, 0.3, 0.2, 0.1, 0.05])
    mesh = EvolvingMesh(np.column_stack([u1, np.ones(10)]), T,
                        [(SP1, 0, 3), (IDENTITY, 3, 5), (SP1, 5, 9)])
    out = normalize(mesh)
    assert out.knot_count == mesh.knot_count
    assert out.zones == mesh.zones


def _three_zone_mesh(m):
    """Identity solution of Troesch at lambda 6, interpolated onto m
    uniform intervals: the three-zone strategy splits it into I, SP2 and
    SP1.FP2 zones."""
    spec = troesch(3.0)
    sol = solve_spec(spec, uniform_mesh(spec, 0.02), IdentityStrategy())
    for lam in (4.0, 5.0, 6.0):
        spec = troesch(lam)
        sol = solve_spec(spec, sol.mesh, IdentityStrategy())
    T = np.linspace(0.0, 1.0, m + 1)
    U = np.column_stack([np.interp(T, sol.mesh.T, sol.mesh.U[:, j])
                         for j in range(2)])
    return spec, EvolvingMesh(U, T)


def test_zone_work_is_independent_of_mesh_size(monkeypatch):
    spec, mesh = _three_zone_mesh(100_000)
    calls = {"eq": 0, "hash": 0}
    eq, hash_ = Transform.__eq__, Transform.__hash__

    def counted_eq(self, other):
        calls["eq"] += 1
        return eq(self, other)

    def counted_hash(self):
        calls["hash"] += 1
        return hash_(self)

    monkeypatch.setattr(Transform, "__eq__", counted_eq)
    monkeypatch.setattr(Transform, "__hash__", counted_hash)
    zones = SteepGrowthZoneStrategy().assign(mesh, spec.system, spec.bc)
    mesh = EvolvingMesh(mesh.U, mesh.T, zones)
    assert [tr.label() for tr, _, _ in mesh.zones] == ["I", "SP2", "SP1.FP2"]
    sweep = _Sweep(SegmentedProblem(spec.system, spec.bc, mesh, spec.domain))
    view = sweep.zone_view(sweep.Q0)
    sweep.residual_at(view)
    sweep.jacobian(view).rows(0, sweep.m)
    steps = np.abs(mesh.natural_steps())
    # decimate the shortest steps and split the longest, so both re-index
    fewer = normalize(mesh, merge_tol=1.01 * steps.min())
    more = refine(mesh, spec.system, RefinementConfig(
        M=1e9, h_min=1e-12, h_max=0.75 * steps.max()))
    assert fewer.knot_count < mesh.knot_count < more.knot_count
    assert len(fewer.zones) == len(more.zones) == 3
    assert calls["eq"] + calls["hash"] <= 50
