"""ODE system container, rhs evaluation helpers and Jacobians."""

import numpy as np
import pytest

from stiffbvp import (EvaluationError, OdeSystem, eval_jacobian_batch,
                      eval_rhs_batch, from_second_order, linear_verification,
                      troesch)
from stiffbvp.ode_system import FD_REL_STEP, fd_step

from conftest import eval_rhs, fd_jacobian


def test_troesch_rhs_values():
    system = troesch(1.0).system
    np.testing.assert_array_equal(eval_rhs(system, [0.0, 0.0], 0.5), [0, 0])
    np.testing.assert_allclose(eval_rhs(system, [1.0, 0.0], 0.0),
                               [0.0, np.sinh(1.0)], rtol=1e-15)
    out = eval_rhs(troesch(3.0).system, [1.0, 0.0], 0.0)
    np.testing.assert_allclose(out, [0.0, 3.0 * np.sinh(3.0)], rtol=1e-15)
    assert abs(out[1] - 30.0536) < 1e-3


def test_rhs_shape_checked():
    system = OdeSystem(2, lambda u, t: np.array([1.0]))
    with pytest.raises(EvaluationError):
        eval_rhs(system, [0.0, 0.0], 0.0)


def test_batch_rhs_shape_checked():
    system = OdeSystem(2, lambda u, t: u[:1])
    with pytest.raises(EvaluationError,
                       match=r"^rhs returned shape \(1, 5\) for a batch, "
                             r"expected \(2, 5\)$"):
        eval_rhs_batch(system, np.ones((2, 5)), np.linspace(0.0, 1.0, 5))


def test_nonfinite_rhs_raises():
    system = OdeSystem(2, lambda u, t: np.array([1.0, np.inf]))
    with pytest.raises(EvaluationError) as exc:
        eval_rhs(system, [0.0, 0.0], 0.0)
    assert exc.value.component == 2


def test_batch_matches_loop():
    system = troesch(2.0).system
    rng = np.random.default_rng(0)
    U = rng.uniform(-1, 1, size=(2, 9))
    T = rng.uniform(0, 1, size=9)
    batch = eval_rhs_batch(system, U, T)
    for b in range(9):
        np.testing.assert_array_equal(batch[:, b],
                                      eval_rhs(system, U[:, b], T[b]))


def test_batch_nonfinite_raises():
    system = OdeSystem(2, lambda u, t: np.stack([u[0], 1.0 / u[1]]))
    with pytest.raises(EvaluationError):
        eval_rhs_batch(system, np.array([[1.0], [0.0]]), np.array([0.0]))


def test_nonfinite_jacobian_entry_says_where():
    # the first bad state in the batch is 3, and its bad row is 2
    def jac(u, t):
        out = np.ones((2, 3) + np.shape(t))
        out[1, 2, 3] = np.nan
        out[0, 1, 5] = np.inf
        return out

    system = OdeSystem(2, lambda u, t: u, jac=jac)
    with pytest.raises(EvaluationError,
                       match="entry in row 2 at batch index 3") as exc:
        eval_jacobian_batch(system, np.ones((2, 7)), np.zeros(7))
    assert exc.value.component == 2


def test_troesch_analytic_jacobian_at_origin():
    # d(lam*sinh(lam*u1))/du1 = lam**2*cosh(lam*u1) = 1 at lam=1, u1=0
    J = eval_jacobian_batch(troesch(1.0).system, np.zeros((2, 1)),
                            np.zeros(1))[..., 0]
    np.testing.assert_allclose(J, [[0, 1, 0], [1, 0, 0]], atol=1e-12)


def test_fd_matches_analytic_jacobian():
    system = troesch(3.0).system
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.uniform(-1, 1, size=2)
        t = rng.uniform(0, 1)
        J_an = eval_jacobian_batch(system, u[:, None], np.array([t]))[..., 0]
        J_fd = fd_jacobian(system, u, t)
        np.testing.assert_allclose(J_fd, J_an, rtol=1e-7, atol=1e-8)


def test_constant_rhs_zero_jacobian():
    system = OdeSystem(2, lambda u, t: np.array([3.0, -1.0]))
    J = fd_jacobian(system, [0.4, -0.2], 0.5)
    np.testing.assert_allclose(J, np.zeros((2, 3)), atol=1e-8)


def test_linear_system_jacobian_equals_matrix():
    A = np.array([[0.0, 1.0], [2.0, -3.0]])
    system = OdeSystem(2, lambda u, t: A @ np.asarray(u, dtype=float))
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.uniform(-5, 5, size=2)
        J = fd_jacobian(system, u, 0.3)
        np.testing.assert_allclose(J[:, :2], A, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(J[:, 2], 0.0, atol=1e-8)


def test_jac_shape_validation():
    system = OdeSystem(2, lambda u, t: np.array([u[1], u[0]]),
                       jac=lambda u, t: np.zeros((2, 2)))
    with pytest.raises(EvaluationError):
        eval_jacobian_batch(system, np.zeros((2, 1)), np.zeros(1))


@pytest.mark.parametrize("spec", [troesch(3.0), linear_verification()],
                         ids=["troesch", "linear"])
def test_catalog_jacobian_is_batch_safe(spec):
    rng = np.random.default_rng(8)
    U = rng.uniform(-1, 1, size=(2, 6))
    T = rng.uniform(0, 1, size=6)
    batch = spec.system.jac(U, T)
    assert batch.shape == (2, 3, 6)
    for b in range(6):
        np.testing.assert_array_equal(
            batch[..., b],
            eval_jacobian_batch(spec.system, U[:, b:b + 1], T[b:b + 1])[..., 0])


def test_batch_jacobian_fd_matches_analytic():
    lam = 3.0
    system = troesch(lam).system
    plain = from_second_order(lambda up, u, t: lam * np.sinh(lam * u))
    rng = np.random.default_rng(9)
    U = rng.uniform(-1, 1, size=(2, 12))
    T = rng.uniform(0, 1, size=12)
    J_fd = eval_jacobian_batch(plain, U, T)
    np.testing.assert_allclose(J_fd, eval_jacobian_batch(system, U, T),
                               rtol=1e-8, atol=1e-8)
    # differences in the original variables stay accurate at tiny
    # coordinates
    np.testing.assert_allclose(eval_jacobian_batch(plain, U * 1e-20, T),
                               eval_jacobian_batch(system, U * 1e-20, T),
                               rtol=1e-8, atol=1e-8)


def test_batch_jacobian_validation():
    bad_shape = OdeSystem(2, lambda u, t: u,
                          jac=lambda u, t: np.zeros((2, 3)))
    U = np.ones((2, 4))
    with pytest.raises(EvaluationError):
        eval_jacobian_batch(bad_shape, U, np.zeros(4))
    with pytest.raises(EvaluationError):
        eval_jacobian_batch(troesch(3.0).system, 1e3 * U, np.zeros(4))


def test_dimension_validated():
    with pytest.raises(ValueError):
        OdeSystem(0, lambda u, t: u)


def test_from_second_order_zero_rhs():
    system = from_second_order(lambda up, u, t: 0.0)
    out = eval_rhs(system, [1.0, 2.5], 0.3)
    np.testing.assert_array_equal(out, [2.5, 0.0])
    # a constant N is broadcast, so the rhs stays batch-safe
    U = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(eval_rhs_batch(system, U, np.zeros(3)),
                                  [[4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])


def test_from_second_order_matches_troesch():
    lam = 2.0
    system = from_second_order(lambda up, u, t: lam * np.sinh(lam * u))
    direct = troesch(lam).system
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(eval_rhs(system, u, 0.1),
                                   eval_rhs(direct, u, 0.1), rtol=1e-14)


def test_fd_step_rule():
    assert FD_REL_STEP == pytest.approx(np.finfo(np.float64).eps ** (1 / 3))
    assert fd_step(0.0) == FD_REL_STEP
    assert fd_step(10.0) == pytest.approx(10 * FD_REL_STEP)
