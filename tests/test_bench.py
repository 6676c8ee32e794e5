"""Continuation protocol, error curves and CSV round trips."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from stiffbvp import (ColdStartFailure, ConfigError, ContinuationOracle,
                      EvolvingMesh, GrowthZoneStrategy, IdentityStrategy,
                      NewtonConfig, RefinementConfig, SrnConfig,
                      StopCriterion, Transform, deep_layer,
                      endpoint_derivatives, error_curve, export_solution,
                      from_second_order, import_solution, run_continuation,
                      solve_spec, troesch, troesch_endpoints, uniform_mesh,
                      write_error_curve, write_srn_result)
from stiffbvp import bench
from stiffbvp.mesh import MAX_KNOTS

from conftest import ENERGY_REFS, intervals, rel_err, zones_of


def test_uniform_mesh():
    mesh = uniform_mesh(troesch(3.0), 0.1)
    assert mesh.knot_count == 11
    np.testing.assert_allclose(mesh.T, np.linspace(0, 1, 11))
    np.testing.assert_allclose(mesh.U[:, 0], mesh.T)
    np.testing.assert_allclose(mesh.U[:, 1], 1.0)


def test_endpoint_derivatives(troesch3):
    sol = solve_spec(troesch3, uniform_mesh(troesch3, 0.01),
                     IdentityStrategy())
    d0, d1 = endpoint_derivatives(sol)
    assert rel_err(d0, ENERGY_REFS[3.0][0]) < 2e-3
    assert rel_err(d1, ENERGY_REFS[3.0][1]) < 2e-3


def test_srn_config_validation():
    with pytest.raises(ConfigError):
        SrnConfig(delta_lambda=0.0)
    # an infinite step would jump straight to the lambda cap
    for step in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite and positive"):
            SrnConfig(delta_lambda=step)
    with pytest.raises(ConfigError):
        SrnConfig(lambda0=10.0, lambda_cap=5.0)


@pytest.mark.parametrize("h0", [0.0, -1.0, math.nan, math.inf])
def test_cold_start_step_must_be_finite_and_positive(h0):
    with pytest.raises(ConfigError, match="h0"):
        uniform_mesh(troesch(3.0), h0)
    with pytest.raises(ConfigError, match="h0"):
        SrnConfig(h0=h0)


def test_cold_start_mesh_is_capped():
    # h0 = 9e-8 puts 11,111,112 knots on [0, 1], past the knot cap that
    # refinement also enforces
    with pytest.raises(ConfigError, match="intervals, got 11111111"):
        uniform_mesh(troesch(3.0), 9e-8)
    assert MAX_KNOTS == 10 ** 7


def test_continuation_lambda_does_not_drift():
    # lambda is lambda0 + k*delta_lambda: a running sum of 0.1 would end
    # at 4.999999999999997 and miss exact-key reference lookups
    result = run_continuation(troesch, SrnConfig(h0=0.1, delta_lambda=0.1))
    lams = [row["lambda"] for row in result.per_lambda]
    assert len(lams) > 10
    assert lams == [3.0 + k * 0.1 for k in range(len(lams))]
    assert result.srn == lams[-1]


def _jacless_troesch(lam):
    spec = troesch(lam)
    plain = from_second_order(lambda up, u, t: lam * np.sinh(lam * u),
                              params={"lam": lam})
    return dataclasses.replace(spec, system=plain)


def test_jacless_continuation_matches_analytic():
    # differences of the rhs in original variables, carried into each zone
    # by the chain rule, steer Newton as the analytic jac does
    cfg = SrnConfig(strategy=GrowthZoneStrategy(),
                    stop=StopCriterion.CONVERGENCE,
                    refinement=RefinementConfig(M=0.1, h_min=0.01, h_max=0.1),
                    h0=0.1, lambda_cap=30.0)
    analytic = run_continuation(troesch, cfg)
    plain = run_continuation(_jacless_troesch, cfg)
    assert analytic.srn == plain.srn == 30.0

    def answers(result):
        return [(row["lambda"], row["mesh_size"], row["newton_iters"])
                for row in result.per_lambda]

    assert answers(plain) == answers(analytic)


def test_cold_start_failure():
    cfg = SrnConfig(lambda0=30.0, h0=0.1, lambda_cap=40.0,
                    stop=StopCriterion.CONVERGENCE)
    with pytest.raises(ColdStartFailure):
        run_continuation(troesch, cfg)


def test_continuation_stops():
    acc = run_continuation(troesch, SrnConfig(h0=0.1))
    assert acc.stop_reason is StopCriterion.ACCURACY
    conv = run_continuation(troesch, SrnConfig(
        h0=0.1, stop=StopCriterion.CONVERGENCE))
    assert conv.stop_reason is StopCriterion.CONVERGENCE
    # losing all accuracy precedes losing convergence
    assert acc.srn <= conv.srn
    assert 4 <= conv.srn <= 20
    for row in acc.per_lambda:
        assert row["rel_err_u2_0"] < 1.0 or math.isnan(row["rel_err_u2_0"])


def test_continuation_is_deterministic():
    r1 = run_continuation(troesch, SrnConfig(h0=0.1))
    r2 = run_continuation(troesch, SrnConfig(h0=0.1))
    assert r1.srn == r2.srn
    assert r1.per_lambda == r2.per_lambda


def test_lambda_cap_stop():
    cfg = SrnConfig(h0=0.1, lambda_cap=4.0,
                    stop=StopCriterion.CONVERGENCE)
    out = run_continuation(troesch, cfg)
    assert out.stop_reason is StopCriterion.LAMBDA_CAP
    assert out.srn == 4.0


def test_oracle_matches_energy_reference():
    oracle = ContinuationOracle(troesch)
    d0, d1 = oracle.endpoints(3.0, 1e-3)
    assert rel_err(d0, ENERGY_REFS[3.0][0]) < 1e-5
    assert rel_err(d1, ENERGY_REFS[3.0][1]) < 1e-5
    # chain is cached: a second call must not recompute
    assert oracle.solution(3.0, 1e-3) is oracle.solution(3.0, 1e-3)


def test_accuracy_stop_never_resolves_troesch(monkeypatch):
    # troesch's first-integral reference replaces the oracle's re-solves
    def solution(self, lam, h_ref):
        raise AssertionError("oracle re-solve")

    monkeypatch.setattr(ContinuationOracle, "solution", solution)
    result = run_continuation(troesch, SrnConfig(h0=0.1))
    assert result.stop_reason is StopCriterion.ACCURACY
    assert result.srn == 5.0


def test_oracle_is_the_fallback_without_reference_fn(monkeypatch):
    family = lambda lam: dataclasses.replace(troesch(lam), reference_fn=None)
    asked = []

    def endpoints(self, lam, h_ref):
        asked.append(lam)
        return troesch(lam).reference_fn()

    monkeypatch.setattr(ContinuationOracle, "endpoints", endpoints)
    cfg = SrnConfig(h0=0.1, lambda_cap=4.0)
    result = run_continuation(family, cfg)
    assert asked == [3.0, 4.0]
    assert result.per_lambda == run_continuation(troesch, cfg).per_lambda


def test_convergence_stop_computes_no_reference():
    def refuse():
        raise AssertionError("reference computed without an oracle")

    family = lambda lam: dataclasses.replace(troesch(lam), reference_fn=refuse)
    cfg = SrnConfig(h0=0.1, lambda_cap=4.0, stop=StopCriterion.CONVERGENCE)
    out = run_continuation(family, cfg)
    assert out.srn == 4.0
    assert math.isnan(out.per_lambda[0]["rel_err_u2_0"])


def test_error_curve_rows_and_failures():
    rows = error_curve(troesch, [3.0, 30.0], strategy=IdentityStrategy(),
                       h0=0.1)
    assert rows[0]["failed"] is False
    assert rows[0]["rel_err_u2_0"] < 1.0
    # an unaided coarse identity solve cannot reach lam = 30
    assert rows[1]["failed"] is True
    assert rows[1]["rel_err_u2_0"] is None


@pytest.mark.parametrize("h0", [0.0, -1.0, math.nan, math.inf, 1e-12])
def test_error_curve_bad_cold_start_step_raises(monkeypatch, h0):
    # a bad step is a configuration error, not a failed row per lambda
    calls = _record_solves(monkeypatch)
    with pytest.raises(ConfigError):
        error_curve(troesch, [3.0, 4.0], strategy=IdentityStrategy(), h0=h0)
    assert calls == []


def test_error_curve_transformed_config():
    # adaptive two-zone configuration stays accurate at lam = 2
    rows = error_curve(troesch, [2.0], strategy=GrowthZoneStrategy(),
                       rcfg=RefinementConfig(M=0.1, h_min=1e-3, h_max=1e-3),
                       h0=0.01)
    e = rows[0]["rel_err_u2_0"]
    assert 3.57e-7 / 3 < e < 3.57e-7 * 3


def test_deep_layer_fine_solve_spans_several_blocks():
    # the fine solve's first reduction level holds more than two blocks
    # of 16,384 rows, and u2(0) is still accurate
    sol = deep_layer(10.0, 2e-4)
    assert sol.mesh.knot_count > 2 * 16384
    ref0 = troesch_endpoints(10.0)[0]
    assert rel_err(endpoint_derivatives(sol)[0], ref0) < 1e-5


def _record_solves(monkeypatch):
    """(lambda, h_min) of every solve_spec call the bench module makes."""
    calls = []

    def recording(spec, mesh, strategy=None, newton=NewtonConfig(),
                  rcfg=None):
        calls.append((spec.system.params["lam"], rcfg.h_min))
        return solve_spec(spec, mesh, strategy, newton, rcfg)

    monkeypatch.setattr(bench, "solve_spec", recording)
    return calls


def test_deep_layer_below_three_solves_once_at_lambda(monkeypatch):
    calls = _record_solves(monkeypatch)
    deep_layer(2.0, 1e-2)
    assert calls == [(2.0, 1e-3), (2.0, 1e-2)]


def test_deep_layer_takes_a_partial_last_step(monkeypatch, capsys):
    calls = _record_solves(monkeypatch)
    deep_layer(4.5, 1e-2, progress=True)
    assert calls == [(3.0, 1e-3), (4.0, 1e-3), (4.5, 1e-3), (4.5, 1e-2)]
    lines = capsys.readouterr().err.splitlines()
    assert [ln.split()[1] for ln in lines] == ["lambda=4", "lambda=4.5"]


@pytest.mark.parametrize("lam, h_fine", [
    (0.0, 1e-2), (math.nan, 1e-2), (math.inf, 1e-2),
    (10.0, 0.0), (10.0, -1.0), (10.0, math.nan)])
def test_deep_layer_rejects_bad_arguments_before_solving(monkeypatch, lam,
                                                         h_fine):
    calls = _record_solves(monkeypatch)
    with pytest.raises(ConfigError):
        deep_layer(lam, h_fine)
    assert calls == []


def test_solution_export_import_round_trip(tmp_path, troesch3):
    sol = solve_spec(troesch3, uniform_mesh(troesch3, 0.05),
                     IdentityStrategy())
    tail = Transform(swap=1, flips={2})
    m = sol.mesh.interval_count
    transforms = intervals(sol.mesh.zones)
    transforms[m - 1] = tail
    sol.mesh = EvolvingMesh(sol.mesh.U, sol.mesh.T, zones_of(transforms))
    path = tmp_path / "solution.csv"
    export_solution(sol, path)
    back = import_solution(path)
    np.testing.assert_array_equal(back.T, sol.mesh.T)
    np.testing.assert_array_equal(back.U, sol.mesh.U)
    assert back.zones == sol.mesh.zones


@pytest.mark.parametrize("text, match", [
    ("", "line 1:"),
    ("t,u1,u2,transform\n0,0,1,I\n0.5,half,1,I\n1,1,1,I\n", "line 3:"),
    ("t,u1,u2,transform\n0,0,1,I\n0.5,0.5,1,SPX\n1,1,1,I\n", "line 3:"),
    ("t,u1,u2,transform\n0,0,1,I\n0.5,0.5\n1,1,1,I\n", "line 3:"),
    ("t,u1,u2,transform\n0,0,1,I\n0.6,0.6,1,I\n0.4,0.4,1,I\n1,1,1,I\n",
     "line 4:"),
    ("t,u1,u2,transform\n0,0,1,I\nnan,0.5,1,I\n1,1,1,I\n", "line 3:"),
    ("t,u1,u2,transform\n0,0,1,I\n0.5,0.5,inf,I\n1,1,1,I\n", "line 3:"),
    ("t,u1,u2,transform\n", "knot count 0,"),
    ("t,u1,u2,transform\n0,0,1,I\n", "knot count 1,"),
], ids=["empty", "non-numeric", "bad-transform", "short-row",
        "decreasing-t", "nan-t", "infinite-u", "header-only", "one-row"])
def test_import_solution_rejects_malformed_file(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match) as info:
        import_solution(path)
    assert str(info.value).startswith(f"{path}: ")


def test_export_row_count(tmp_path):
    from stiffbvp import EvolvingMesh, Solution
    T = np.array([0.0, 0.5, 1.0])
    mesh = EvolvingMesh(np.column_stack([T, np.ones(3)]), T)
    path = tmp_path / "tiny.csv"
    export_solution(Solution(mesh, 0, 0.0), path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert rows[0] == ["t", "u1", "u2", "transform"]
    assert [r[3] for r in rows[1:]] == ["I", "I", "I"]


def test_exported_solution_monotone(tmp_path):
    # the solution's first component is nondecreasing in t
    spec = troesch(3.0)
    sol = solve_spec(spec, uniform_mesh(spec, 0.1), GrowthZoneStrategy(),
                     NewtonConfig(),
                     RefinementConfig(M=0.1, h_min=0.01, h_max=0.1))
    for lam in (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
        spec = troesch(lam)
        sol = solve_spec(spec, sol.mesh, GrowthZoneStrategy(), NewtonConfig(),
                         RefinementConfig(M=0.1, h_min=0.01, h_max=0.1))
    path = tmp_path / "troesch10.csv"
    export_solution(sol, path)
    mesh = import_solution(path)
    assert (np.diff(mesh.U[:, 0]) >= 0).all()
    assert (np.diff(mesh.T) > 0).all()


def test_write_srn_result(tmp_path):
    result = run_continuation(troesch, SrnConfig(h0=0.1))
    path = tmp_path / "srn.csv"
    write_srn_result(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "lambda"
    assert rows[-1][0] == "srn"
    assert float(rows[-1][1]) == result.srn
    assert rows[-1][2] == "accuracy"


def test_write_error_curve(tmp_path):
    rows = [{"lambda": 3.0, "rel_err_u2_0": 1e-4, "rel_err_u2_1": 2e-4,
             "mesh_size": 11, "failed": False},
            {"lambda": 30.0, "failed": True}]
    path = tmp_path / "errors.csv"
    write_error_curve(rows, path)
    with open(path, newline="") as fh:
        out = list(csv.reader(fh))
    assert out[1][-1] == "ok"
    assert out[2] == ["30", "", "", "", "failed"]
