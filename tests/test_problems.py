"""Problem catalog and embedded reference data."""

import numpy as np
import pytest

from stiffbvp import (ConfigError, IdentityStrategy, NewtonConfig,
                      eval_rhs, linear_verification, problem_by_name,
                      reference_lookup, solve_spec, troesch,
                      troesch_endpoints, uniform_mesh)
from stiffbvp import problems
from stiffbvp.problems import _TROESCH_REFERENCE

from conftest import ENERGY_REFS, rel_err


def test_troesch_rhs_example():
    out = eval_rhs(troesch(1.0).system, [0.5, 0.2], 0.0)
    np.testing.assert_allclose(out, [0.2, np.sinh(0.5)], rtol=1e-15)


def test_troesch_bc_at_exact_values():
    bc = troesch(3.0).bc
    np.testing.assert_array_equal(
        bc.residual(np.array([0.0, 0.7]), np.array([1.0, 5.0])), [0.0, 0.0])
    assert bc.pins == {("a", 1): (0, 0.0), ("b", 1): (1, 1.0)}


def test_troesch_rhs_odd_in_u():
    system = troesch(4.0).system
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(eval_rhs(system, -u, 0.5),
                                   -eval_rhs(system, u, 0.5), rtol=1e-14)


def test_troesch_validation():
    with pytest.raises(ConfigError):
        troesch(0.0)
    with pytest.raises(ConfigError):
        troesch(-2.0)


def test_troesch_small_lambda_linearization():
    # for small lam the equation is nearly u'' = lam**2 * u, whose slope at
    # 0 is lam/sinh(lam)
    lam = 0.1
    spec = troesch(lam)
    sol = solve_spec(spec, uniform_mesh(spec, 0.01), IdentityStrategy(),
                     NewtonConfig())
    assert rel_err(sol.mesh.U[0, 1], lam / np.sinh(lam)) < 1e-2


def test_troesch_lambda3_endpoint_accuracy(troesch3):
    sol = solve_spec(troesch3, uniform_mesh(troesch3, 1e-3),
                     IdentityStrategy(), NewtonConfig())
    e = rel_err(sol.mesh.U[0, 1], ENERGY_REFS[3.0][0])
    assert 5.4e-6 / 3 < e < 5.4e-6 * 3


def test_linear_verification_exact():
    spec = linear_verification()
    np.testing.assert_allclose(spec.exact(0.0), [0.0, 1.0], atol=1e-15)
    # the closed form satisfies the ODE: (u1', u2') = (u2, u1)
    t = np.linspace(0, 1, 11)
    u = spec.exact(t)
    np.testing.assert_allclose(u[1], np.cosh(t), rtol=1e-15)
    np.testing.assert_allclose(eval_rhs(spec.system, u[:, 3], t[3]),
                               [u[1, 3], u[0, 3]], rtol=1e-15)


def test_linear_verification_solver_error():
    spec = linear_verification()
    sol = solve_spec(spec, uniform_mesh(spec, 0.01), IdentityStrategy())
    err = np.max(np.abs(sol.mesh.U.T - spec.exact(sol.mesh.T)))
    assert err <= 5e-5


def test_reference_lookup():
    table = _TROESCH_REFERENCE
    assert reference_lookup(table, 50.0) == (1.542999878e-21, 7.200489933746e10)
    assert reference_lookup(table, 200.0)[0] == 1.107117221e-86
    assert reference_lookup(table, 49.0) is None
    assert reference_lookup(None, 50.0) is None
    # one-sided entries keep a None slot
    assert reference_lookup(table, 300.0) == (None, 1.39370958072e65)


@pytest.mark.parametrize("lam", sorted(ENERGY_REFS))
def test_first_integral_reference_matches_energy_refs(lam):
    got = troesch_endpoints(lam)
    for value, ref in zip(got, ENERGY_REFS[lam]):
        assert rel_err(value, ref) <= 1e-14


def test_first_integral_reference_matches_table():
    # the table carries about 10 significant digits
    for lam, (u2_0, u2_1, _) in _TROESCH_REFERENCE.entries.items():
        got = troesch_endpoints(lam)
        for value, ref in zip(got, (u2_0, u2_1)):
            if ref is not None:
                assert rel_err(value, ref) <= 5e-10


def test_troesch_supplies_reference_fn():
    assert troesch(4.0).reference_fn() == troesch_endpoints(4.0)
    assert linear_verification().reference_fn is None


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.09])
def test_first_integral_reference_small_lambda(lam):
    # u2(0) is near 1 here; the root must not sit at a bracket end
    spec = troesch(lam)
    sol = solve_spec(spec, uniform_mesh(spec, 1e-3), IdentityStrategy())
    assert rel_err(troesch_endpoints(lam)[0], sol.mesh.U[0, 1]) <= 1e-6


def test_first_integral_reference_range():
    # u2(0) is about 8*exp(-lam), under the bracket's 1e-300 past lam 692
    assert troesch_endpoints(690.0)[0] > 1e-300
    with pytest.raises(ConfigError, match="below 1e-300"):
        troesch_endpoints(700.0)


def test_first_integral_reference_is_cheap(monkeypatch):
    # one quadrature evaluates _log_sinh once, and so does the setup
    calls = []

    def counted(x):
        calls.append(1)
        return log_sinh(x)

    log_sinh = problems._log_sinh
    monkeypatch.setattr(problems, "_log_sinh", counted)
    for lam in (0.1, 1.0, 3.0, 5.0, 10.0, 50.0, 100.0, 200.0, 500.0):
        calls.clear()
        troesch_endpoints(lam)
        assert len(calls) <= 15, lam


def test_problem_by_name():
    assert problem_by_name("troesch", 3.0).name == "troesch(lam=3)"
    assert problem_by_name("linear").name == "linear-verification"
    with pytest.raises(ConfigError):
        problem_by_name("troesch")          # needs lambda
    with pytest.raises(ConfigError):
        problem_by_name("unknown", 1.0)
