"""Transformation-selection strategies and their zone layouts."""

import numpy as np
import pytest

from stiffbvp import (AutoStrategy, ConfigError, GrowthZoneStrategy,
                      IdentityStrategy, NewtonConfig, RefinementConfig,
                      SteepGrowthZoneStrategy, StiffnessConfig, StrategyError,
                      select_flips, select_swap_index, solve_spec,
                      stiffness_measure, strategy_by_name, troesch,
                      uniform_mesh)
from stiffbvp.mesh import init_linear
from stiffbvp.ode_system import OdeSystem

from conftest import intervals, zone_summary


def _solved_troesch(lam, strategy=None, h=0.05, rcfg=None):
    """Converged iterate at the target lam, warm-started from lam = 3."""
    strategy = strategy or IdentityStrategy()
    spec = troesch(min(3.0, lam))
    sol = solve_spec(spec, uniform_mesh(spec, h), strategy,
                     NewtonConfig(), rcfg)
    cur = min(3.0, lam)
    while cur < lam:
        cur = min(cur + 1.0, lam)
        spec = troesch(cur)
        sol = solve_spec(spec, sol.mesh, strategy, NewtonConfig(), rcfg)
    return spec, sol


# -- primitives -----------------------------------------------------------

def test_stiffness_measure_values():
    cfg = StiffnessConfig()
    zero = stiffness_measure(np.zeros(2), np.zeros(2), cfg)
    np.testing.assert_array_equal(zero, [0.0, 0.0])
    out = stiffness_measure(np.array([2.0, 0.0]), np.array([4.0, 0.0]), cfg)
    assert out[0] == 3.0


def test_stiffness_config_validation():
    with pytest.raises(ConfigError):
        StiffnessConfig(theta=1.0)
    with pytest.raises(ConfigError):
        StiffnessConfig(alpha=0.0, beta=0.0)
    with pytest.raises(ConfigError):
        StiffnessConfig(alpha=-1.0)


def test_select_swap_index():
    assert select_swap_index(np.array([1.0, 5.0])) == 2
    assert select_swap_index(np.array([1.0, 5.0]), allowed={1}) == 1
    assert select_swap_index(np.array([3.0, 3.0])) == 1       # tie-break
    assert select_swap_index(np.array([3.0, 3.0]), allowed=set()) is None


def test_select_flips():
    assert select_flips(np.array([0.5, 30.0]), np.array([0.9, 80.0]), 1) \
        == frozenset({2})
    assert select_flips(np.array([0.5, 0.9]), np.array([0.9, 0.3]), 1) \
        == frozenset()
    # the swapped component is never flipped
    assert select_flips(np.array([5.0, 30.0]), np.array([9.0, 80.0]), 2) \
        == frozenset({1})


# -- identity / auto ------------------------------------------------------

def test_identity_strategy():
    spec = troesch(3.0)
    mesh = init_linear(0.0, 1.0, 8, (0.0, 1.0))
    out = intervals(IdentityStrategy().assign(mesh, spec.system, spec.bc))
    assert all(tr.is_identity for tr in out)


def test_auto_strategy_calm_problem_stays_identity():
    spec = troesch(1.0)
    mesh = init_linear(0.0, 1.0, 8, (0.0, 1.0))
    out = intervals(AutoStrategy().assign(mesh, spec.system, spec.bc))
    assert all(tr.is_identity for tr in out)


def test_auto_strategy_tags_boundary_layer():
    spec, sol = _solved_troesch(6.0, h=0.02)
    out = intervals(AutoStrategy().assign(sol.mesh, spec.system, spec.bc))
    assert out[-1].swap is not None
    assert any(not tr.is_identity for tr in out)
    assert all(tr.is_identity for tr in out[: len(out) // 2])


def test_auto_strategy_boundary_interval_restricted_to_pins():
    # a system stiff in the unpinned second component at the right end
    # must not swap it on the boundary interval
    def rhs(u, t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.ones_like(t), 100.0 * np.ones_like(t)])

    spec = troesch(3.0)
    system = OdeSystem(2, rhs)
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0))
    out = intervals(AutoStrategy().assign(mesh, system, spec.bc))
    assert out[-1].swap in (None, 1)
    assert out[0].swap in (None, 1)


def test_auto_strategy_never_swaps_a_flat_component():
    # the cold-start guess has u2 = 1 at every knot: a 2-swap there would
    # make every natural step of its zone zero
    spec = troesch(3.0)
    mesh = uniform_mesh(spec, 0.1)
    zones = AutoStrategy().assign(mesh, spec.system, spec.bc)
    assert any(tr.swap is not None for tr, _, _ in zones)
    for tr, s, e in zones:
        if tr.swap is not None:
            assert (np.diff(mesh.U[s:e + 1, tr.swap - 1]) != 0).all()
    sol = solve_spec(spec, mesh, AutoStrategy())
    assert sol.mesh.knot_count == 11
    assert sol.iterations <= 10


# -- fixed zone layouts ---------------------------------------------------

def test_growth_zone_initial_guess_all_identity():
    # the linear cold-start guess has u2 = 1 everywhere, never > 1
    spec = troesch(3.0)
    mesh = init_linear(0.0, 1.0, 10, (0.0, 1.0))
    out = intervals(GrowthZoneStrategy().assign(mesh, spec.system, spec.bc))
    assert all(tr.is_identity for tr in out)


def test_growth_zone_two_blocks_on_solved_iterate():
    spec, sol = _solved_troesch(10.0, strategy=GrowthZoneStrategy(),
                                rcfg=RefinementConfig(M=0.1, h_min=0.01,
                                                      h_max=0.1))
    zones = zone_summary(sol.mesh)
    assert [label for label, _ in zones] == ["I", "SP1.FP2"]
    # the switch knot is the first one with u2 > 1
    switch = zones[0][1]
    assert (sol.mesh.U[:switch, 1] <= 1.0 + 1e-9).all()
    assert sol.mesh.U[switch, 1] > 1.0


def test_steep_growth_zone_ordering():
    spec, sol = _solved_troesch(12.0, strategy=SteepGrowthZoneStrategy(),
                                rcfg=RefinementConfig(M=0.1, h_min=0.005,
                                                      h_max=0.1))
    zones = zone_summary(sol.mesh)
    labels = [label for label, _ in zones]
    assert labels == ["I", "SP2", "SP1.FP2"]


def test_steep_growth_zone_never_swaps_unpinned_boundary():
    # the middle zone swaps u2, which is unpinned at t = 1; the layout must
    # keep it away from the right boundary interval for every iterate
    spec, sol = _solved_troesch(8.0, h=0.02)
    out = intervals(SteepGrowthZoneStrategy().assign(sol.mesh, spec.system,
                                                     spec.bc))
    assert out[-1].swap != 2


def test_zone_strategies_need_two_dimensions():
    system = OdeSystem(1, lambda u, t: np.asarray(u, dtype=float))
    mesh = init_linear(0.0, 1.0, 4, (0.0, 1.0), n=1)
    with pytest.raises(StrategyError):
        GrowthZoneStrategy().assign(mesh, system, None)
    with pytest.raises(StrategyError):
        SteepGrowthZoneStrategy().assign(mesh, system, None)


def test_strategy_by_name():
    assert isinstance(strategy_by_name("identity"), IdentityStrategy)
    assert isinstance(strategy_by_name("auto"), AutoStrategy)
    assert isinstance(strategy_by_name("troesch-sp1fp2"), GrowthZoneStrategy)
    assert isinstance(strategy_by_name("troesch-sp2-sp1fp2"),
                      SteepGrowthZoneStrategy)
    with pytest.raises(ConfigError):
        strategy_by_name("nope")
    custom = strategy_by_name("auto", StiffnessConfig(theta=50.0))
    assert custom.cfg.theta == 50.0
