"""Evolving mesh: construction, normalization, refinement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiffbvp import (ConfigError, EvolvingMesh, MeshError, OdeSystem,
                      RefinementConfig, RefinementError, Transform,
                      init_linear, normalize, refine)
from stiffbvp.mesh import _degenerate_mask
from stiffbvp.transform import IDENTITY

from conftest import intervals


def _constant_system(values=(1.0, 1.0)):
    v = np.asarray(values, dtype=float)
    return OdeSystem(2, lambda u, t: np.broadcast_to(
        v[:, None] if np.ndim(t) else v, np.shape(u)).copy())


# -- construction ---------------------------------------------------------

def test_init_linear_troesch_example():
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    np.testing.assert_allclose(mesh.T, [0, 0.25, 0.5, 0.75, 1])
    np.testing.assert_allclose(mesh.U[:, 0], [0, 0.25, 0.5, 0.75, 1])
    np.testing.assert_allclose(mesh.U[:, 1], np.ones(5))
    assert all(tr.is_identity for tr in intervals(mesh.zones))


def test_init_linear_counts_and_flat_guess():
    assert init_linear(0.0, 1.0, 2, (0.0, 1.0)).knot_count == 3
    mesh = init_linear(0.0, 2.0, 5, (0.7, 0.7))
    np.testing.assert_allclose(mesh.U[:, 0], 0.7)
    np.testing.assert_allclose(mesh.U[:, 1], 0.0)


def test_init_linear_validation():
    with pytest.raises(ConfigError):
        init_linear(0.0, 1.0, 1, (0.0, 1.0))
    with pytest.raises(ConfigError):
        init_linear(1.0, 0.0, 4, (0.0, 1.0))


def test_mesh_shape_validation():
    with pytest.raises(ConfigError):
        EvolvingMesh(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ConfigError):
        EvolvingMesh(np.zeros((3, 2)), np.zeros(3), [(IDENTITY, 0, 1)])


def test_natural_steps_identity():
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    np.testing.assert_allclose(mesh.natural_steps(), [0.25] * 4)


def test_natural_steps_with_swap():
    # under a 1-swap the natural step is the increment of u1
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    mesh = EvolvingMesh(mesh.U, mesh.T, [(Transform(swap=1), 0, 4)])
    np.testing.assert_allclose(mesh.natural_steps(), [0.25] * 4)
    mesh.U[:, 0] = [0.0, 0.1, 0.3, 0.6, 1.0]
    np.testing.assert_allclose(mesh.natural_steps(), [0.1, 0.2, 0.3, 0.4])


# -- normalize ------------------------------------------------------------

def test_normalize_decimates_t_inverted_interval():
    # knots keep their order, so the interval from t = 0.6 back to 0.4
    # is decimated
    U = np.array([[0.0, 1.0], [0.6, 1.0], [0.4, 1.0], [1.0, 1.0]])
    mesh = EvolvingMesh(U, np.array([0.0, 0.6, 0.4, 1.0]))
    out = normalize(mesh)
    np.testing.assert_allclose(out.T, [0.0, 0.6, 1.0])
    np.testing.assert_allclose(out.U[:, 0], [0.0, 0.6, 1.0])


def test_normalize_keeps_clean_mesh():
    mesh = init_linear(0.0, 1.0, 6, (0.0, 1.0))
    out = normalize(mesh, merge_tol=1e-3)
    np.testing.assert_array_equal(out.T, mesh.T)
    np.testing.assert_array_equal(out.U, mesh.U)


def test_normalize_merges_duplicate_t():
    T = np.array([0.0, 0.5, 0.5, 1.0])
    U = np.column_stack([T, np.ones(4)])
    out = normalize(EvolvingMesh(U, T))
    assert out.knot_count == 3
    np.testing.assert_allclose(out.T, [0.0, 0.5, 1.0])


def test_normalize_merges_short_natural_steps():
    T = np.array([0.0, 0.5, 0.5 + 1e-9, 1.0])
    U = np.column_stack([T, np.ones(4)])
    out = normalize(EvolvingMesh(U, T), merge_tol=1e-6)
    assert out.knot_count == 3


def test_normalize_decimates_zone_zigzag():
    # interval 2 runs against the dominant (positive) direction of its
    # 1-swap zone: its left knot overshoots the right one in u1
    T = np.linspace(0.0, 1.0, 6)
    u1 = np.array([0.0, 0.2, 0.45, 0.4, 0.8, 1.0])
    U = np.column_stack([u1, np.ones(6)])
    mesh = EvolvingMesh(U, T, [(Transform(swap=1), 0, 5)])
    out = normalize(mesh)
    steps = out.natural_steps()
    assert (steps > 0).all()
    assert out.knot_count < 6


def test_normalize_never_drops_boundary_knots():
    T = np.array([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0])
    U = np.column_stack([T, np.ones(5)])
    out = normalize(EvolvingMesh(U, T), merge_tol=1e-6)
    assert out.T[0] == 0.0
    assert out.T[-1] == 1.0


def test_normalize_raises_when_too_few_knots_survive():
    T = np.array([0.0, 0.5, 1.0])
    U = np.column_stack([T, np.ones(3)])
    with pytest.raises(MeshError):
        normalize(EvolvingMesh(U, T), merge_tol=10.0)


def test_normalize_cannot_decimate_a_two_knot_mesh():
    # the only interval has equal t, and both its knots are boundary knots
    mesh = EvolvingMesh(np.zeros((2, 2)), np.array([0.5, 0.5]))
    with pytest.raises(MeshError, match="^cannot decimate a boundary knot$"):
        normalize(mesh)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.001, 0.999), min_size=2, max_size=30,
                unique=True))
def test_normalize_output_is_sorted_and_strict(interior):
    T = np.array([0.0] + sorted(interior) + [1.0])
    rng = np.random.default_rng(0)
    perm = np.concatenate([[0], 1 + rng.permutation(len(T) - 2),
                           [len(T) - 1]])
    U = np.column_stack([T[perm], np.ones(len(T))])
    mesh = EvolvingMesh(U, T[perm])
    out = normalize(mesh, merge_tol=1e-4)
    assert (np.diff(out.T) > 0).all()
    assert out.T[0] == 0.0 and out.T[-1] == 1.0
    # idempotent
    again = normalize(out, merge_tol=1e-4)
    np.testing.assert_array_equal(again.T, out.T)


# the knots' u1, which an SP1 zone's natural steps difference: they may
# fall, repeat or be NaN, and 5e-324 steps halve to zero in np.median
_TAUS = st.sampled_from([0.0, 1.0, -1.0, 2.0, 3.0, 5e-324, -5e-324, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(_TAUS, min_size=2, max_size=9))
@example([0.0, -2.0, -1.0])         # steps -2, 1: the tie's median is -0.5
@example([5e-324, 0.0, 0.0])        # steps -5e-324, 0: the median is -0.0
def test_degenerate_mask_orientation_is_the_median_sign(taus):
    # the zone's orientation is np.sign(np.median(steps)) or 1.0, however
    # _degenerate_mask decides it; t rises, so only the orientation and
    # NaN mark intervals
    m = len(taus) - 1
    U = np.column_stack([taus, np.ones(m + 1)])
    mesh = EvolvingMesh(U, np.linspace(0.0, 1.0, m + 1),
                        ((Transform(swap=1), 0, m),))
    steps = mesh.natural_steps()
    expected = steps * (np.sign(np.median(steps)) or 1.0) <= 0.0
    bad = _degenerate_mask(mesh, 0.0)
    if expected.any():
        np.testing.assert_array_equal(bad, expected)
    else:
        assert bad is None


# -- refine ---------------------------------------------------------------

def test_refine_config_validation():
    with pytest.raises(ConfigError):
        RefinementConfig(M=0.0, h_min=0.01, h_max=0.1)
    with pytest.raises(ConfigError):
        RefinementConfig(M=0.1, h_min=0.2, h_max=0.1)
    # inf >= inf > 0 holds, but an infinite step would collapse the mesh
    for h_min, h_max in ((np.inf, np.inf), (0.01, np.inf), (np.nan, 0.1),
                         (0.01, np.nan)):
        with pytest.raises(ConfigError, match="finite"):
            RefinementConfig(M=0.1, h_min=h_min, h_max=h_max)
    # equal bounds are allowed: pure h_max splitting
    RefinementConfig(M=0.1, h_min=0.1, h_max=0.1)


def test_refine_fixed_point():
    mesh = init_linear(0.0, 1.0, 10, (0.0, 1.0))
    cfg = RefinementConfig(M=10.0, h_min=0.05, h_max=0.2)
    out = refine(mesh, _constant_system(), cfg)
    np.testing.assert_array_equal(out.T, mesh.T)


def test_refine_splits_to_h_max():
    mesh = init_linear(0.0, 1.0, 2, (0.0, 1.0))
    cfg = RefinementConfig(M=10.0, h_min=0.01, h_max=0.1)
    out = refine(mesh, _constant_system(), cfg)
    assert (np.abs(out.natural_steps()) <= 0.1 * (1 + 1e-9)).all()
    # midpoints interpolate linearly
    np.testing.assert_allclose(out.U[:, 0], out.T, atol=1e-12)


def test_refine_rough_interval_bisected_until_resolved():
    # rhs difference over an interval is proportional to its length, so
    # splitting halves it; with 2M = 1 the 0.8-long interval must split
    # until ||dF|| < 1, i.e. steps below 0.2
    def rhs(u, t):
        return np.stack([np.zeros_like(np.asarray(t, dtype=float)),
                         5.0 * np.asarray(t, dtype=float)])

    system = OdeSystem(2, rhs)
    T = np.array([0.0, 0.1, 0.9, 1.0])
    mesh = EvolvingMesh(np.column_stack([T, np.ones(4)]), T)
    cfg = RefinementConfig(M=0.5, h_min=0.01, h_max=1.0)
    out = refine(mesh, system, cfg)
    steps = np.abs(out.natural_steps())
    d = 5.0 * steps            # rhs variation per interval
    assert ((d < 2 * cfg.M) | (steps < 2 * cfg.h_min)).all()


def test_refine_respects_h_min():
    def rhs(u, t):
        shape = np.shape(np.asarray(t, dtype=float))
        return np.stack([np.zeros(shape), 1e6 * np.asarray(t, dtype=float)])

    system = OdeSystem(2, rhs)
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    cfg = RefinementConfig(M=0.1, h_min=0.05, h_max=0.5)
    out = refine(mesh, system, cfg)
    assert (np.abs(out.natural_steps()) >= 0.05 * (1 - 1e-9)).all()


def test_refine_knot_cap(monkeypatch):
    monkeypatch.setattr("stiffbvp.mesh.MAX_KNOTS", 100)
    mesh = init_linear(0.0, 1.0, 2, (0.0, 1.0))
    cfg = RefinementConfig(M=10.0, h_min=1e-4, h_max=1e-4)
    with pytest.raises(RefinementError):
        refine(mesh, _constant_system(), cfg)


def test_refine_gives_up_after_64_passes():
    # the rhs jumps at t = 0, so the first interval's rhs difference stays
    # 1 however often it is bisected, and h_min never stops it
    def rhs(u, t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.where(t > 0.0, 1.0, 0.0), np.zeros_like(t)])

    mesh = init_linear(0.0, 1.0, 10, (0.0, 1.0))
    cfg = RefinementConfig(M=0.1, h_min=1e-300, h_max=1.0)
    with pytest.raises(RefinementError,
                       match=r"^refinement failed to settle \(64 passes\)$"):
        refine(mesh, OdeSystem(2, rhs), cfg)


def test_refine_transform_inheritance():
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    tail = Transform(swap=1, flips={2})
    mesh = EvolvingMesh(mesh.U, mesh.T, [(IDENTITY, 0, 2), (tail, 2, 4)])
    cfg = RefinementConfig(M=10.0, h_min=0.01, h_max=0.1)
    out = refine(mesh, _constant_system(), cfg)
    labels = [tr.label() for tr in intervals(out.zones)]
    switch = labels.index("SP1.FP2")
    assert set(labels[:switch]) == {"I"}
    assert set(labels[switch:]) == {"SP1.FP2"}


def test_refine_is_idempotent():
    mesh = init_linear(0.0, 1.0, 3, (0.0, 1.0))
    cfg = RefinementConfig(M=10.0, h_min=0.01, h_max=0.07)
    once = refine(mesh, _constant_system(), cfg)
    twice = refine(once, _constant_system(), cfg)
    np.testing.assert_array_equal(twice.T, once.T)
