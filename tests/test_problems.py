"""Problem catalog and embedded reference data."""

import math

import numpy as np
import pytest

from stiffbvp import (ConfigError, IdentityStrategy, NewtonConfig,
                      ProblemSpec, linear_verification, problem_by_name,
                      reference_lookup, solve_spec, troesch,
                      troesch_endpoints, uniform_mesh)
from stiffbvp import problems
from stiffbvp.problems import _TROESCH_REFERENCE

from conftest import ENERGY_REFS, eval_rhs, rel_err


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
    for lam in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite and positive"):
            troesch(lam)


@pytest.mark.parametrize("domain", [(1.0, 1.0), (1.0, 0.0), (0.0, np.nan)])
def test_problem_spec_domain_validation(domain):
    spec = troesch(3.0)
    with pytest.raises(ConfigError, match="^domain must satisfy a < b$"):
        ProblemSpec(spec.system, spec.bc, domain)


# checked before any numpy work: inf would warn there, 0 and -1 would fail
# in math.log, and nan would be reported as a u2(0) below 1e-300
@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_first_integral_reference_rejects_bad_lambda(lam):
    with pytest.raises(ConfigError, match="finite and positive"):
        troesch_endpoints(lam)


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


@pytest.mark.parametrize("lam", [1e-8, 1e-6, 1e-4])
def test_first_integral_reference_tiny_lambda(lam):
    # u2(0) is lam/sinh(lam) less O(lam**4), far below rounding here
    assert rel_err(troesch_endpoints(lam)[0], lam / np.sinh(lam)) <= 1e-13


def test_first_integral_reference_range():
    # u2(0) is about 8*exp(-lam), under the bracket's 1e-300 past lam 692;
    # at 693 the bracket's bottom is evaluated, at 700 its top is already
    # below 1e-300
    assert troesch_endpoints(690.0)[0] > 1e-300
    for lam in (693.0, 700.0):
        with pytest.raises(ConfigError, match="below 1e-300"):
            troesch_endpoints(lam)
    # a subnormal lam has a subnormal V, with a dozen bits or fewer
    for lam in (5e-324, 1e-320, 1e-310):
        with pytest.raises(ConfigError, match="subnormal"):
            troesch_endpoints(lam)


def test_first_integral_reference_is_cheap(monkeypatch):
    # one quadrature evaluates _log_sinh once, and the setup twice
    calls = []

    def counted(x):
        calls.append(1)
        return log_sinh(x)

    log_sinh = problems._log_sinh
    monkeypatch.setattr(problems, "_log_sinh", counted)
    for lam in (0.01, 0.05, 0.09, 0.1, 1.0, 3.0, 5.0, 10.0, 50.0, 100.0,
                200.0, 500.0):
        calls.clear()
        troesch_endpoints(lam)
        assert len(calls) <= 15, lam


# (u2(0), u2(1)) of the first-integral reference as computed before its
# quadrature was sized to the integration length: false position on 256
# fixed panels of 24-point Gauss-Legendre, to 17 significant digits
_FIRST_INTEGRAL_VALUES = {
    0.01: (0.9999833334444457, 1.0000333334444416),
    0.03: (0.9998500090008193, 1.0003000089977825),
    0.1: (0.9983344455647244, 1.0033344414065695),
    0.3: (0.9850907932082913, 1.0300878113643814),
    0.5: (0.9590437954132189, 1.0839819795242696),
    1.0: (0.8452026853099508, 1.3418378623684901),
    2.0: (0.51862121926934, 2.406939831247071),
    3.0: (0.2556042155629331, 4.266222861802824),
    4.0: (0.11188016477074883, 7.254583574768581),
    5.0: (0.045750461406318714, 12.100495450777812),
    6.0: (0.017950949489545846, 20.035757896358678),
    8.0: (0.002587169418962577, 54.57983445557344),
    10.0: (0.0003583377846308133, 148.40642115601008),
    15.0: (2.4445130237432485e-06, 1808.0418613716927),
    20.0: (1.6487731827803988e-08, 22026.465749406798),
    30.0: (7.486093795043802e-13, 3269017.3724718024),
    50.0: (1.542999878328275e-21, 72004899337.386),
    75.0: (2.1429095694464743e-32, 1.93215993044028e+16),
    100.0: (2.9760607808166852e-43, 5.184705528587063e+21),
    150.0: (5.740076778531397e-65, 3.733241996798995e+32),
    200.0: (1.1071172213893963e-86, 2.6881171418161307e+43),
    300.0: (4.118560177929634e-130, 1.3937095806663771e+65),
    400.0: (1.5321356773712132e-173, 7.225973768125736e+86),
    500.0: (5.699661125393061e-217, 3.746454614502666e+108),
    600.0: (2.1203172424030988e-260, 1.9424263952412524e+130),
    690.0: (1.737390625111575e-299, 6.785725020057158e+149),
}


@pytest.mark.parametrize("lam", sorted(_FIRST_INTEGRAL_VALUES))
def test_first_integral_reference_matches_fixed_panel_values(lam):
    # both schemes fix log u2(0) to rounding, whose size grows with it
    ref0, ref1 = _FIRST_INTEGRAL_VALUES[lam]
    bound = 4 * np.finfo(float).eps * max(1.0, abs(math.log(ref0)))
    got0, got1 = troesch_endpoints(lam)
    assert abs(math.log(got0) - math.log(ref0)) <= bound
    assert rel_err(got1, ref1) <= bound


@pytest.mark.parametrize("lam", [0.01, 3.0, 50.0, 500.0])
def test_first_integral_derivative_matches_central_difference(lam):
    half_lam = float(problems._log_sinh(lam / 2.0))
    log_s = math.log(troesch_endpoints(lam)[0])
    for x in (log_s - 0.5, log_s, log_s + 0.5):
        h = 1e-5
        slope = problems._first_integral(lam, half_lam, x)[1]
        diff = (problems._first_integral(lam, half_lam, x + h)[0]
                - problems._first_integral(lam, half_lam, x - h)[0]) / (2 * h)
        assert rel_err(slope, diff) <= 1e-6, x


def test_first_integral_reference_takes_few_points(monkeypatch):
    # panels sized to the integration length: a whole call at lam <= 10
    # evaluates fewer integrand points than a tenth of one quadrature on
    # 256 fixed panels (6,144 points)
    points = []

    def counted(x):
        points.append(np.size(x))
        return log_sinh(x)

    log_sinh = problems._log_sinh
    monkeypatch.setattr(problems, "_log_sinh", counted)
    for lam in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                8.0, 9.0, 10.0):
        points.clear()
        troesch_endpoints(lam)
        assert sum(points) <= 600, lam


def test_problem_by_name():
    assert problem_by_name("troesch", 3.0).name == "troesch(lam=3)"
    assert problem_by_name("linear").name == "linear-verification"
    with pytest.raises(ConfigError):
        problem_by_name("troesch")          # needs lambda
    with pytest.raises(ConfigError):
        problem_by_name("unknown", 1.0)
