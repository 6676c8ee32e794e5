"""Swap/flip operator algebra and state mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiffbvp import (EvaluationError, IDENTITY, OdeSystem, Transform, apply,
                      eval_jacobian_batch, fd_jacobian, map_state,
                      state_jacobian, troesch, unmap_state)

RNG = np.random.default_rng(1234)


def _quadratic_system():
    # smooth nonlinear 2d system with generically nonzero components
    def rhs(u, t):
        return np.stack([u[0] * u[1] + t + 2.0,
                         u[0] ** 2 - u[1] + 3.0])

    return OdeSystem(2, rhs, name="quadratic")


def _cubic_system():
    # 3d system with an analytic jac; F_2 > 0, so a 2-swap is valid anywhere
    def rhs(u, t):
        return np.stack([u[0] * u[1] + t, 2.0 + u[0] ** 2 + u[2] ** 2,
                         u[1] * u[2] - t ** 2])

    def jac(u, t):
        J = np.zeros((3, 4) + np.shape(u)[1:])
        J[0, 0], J[0, 1], J[0, 3] = u[1], u[0], 1.0
        J[1, 0], J[1, 2] = 2.0 * u[0], 2.0 * u[2]
        J[2, 1], J[2, 2], J[2, 3] = u[2], u[1], -2.0 * np.asarray(t)
        return J

    return OdeSystem(3, rhs, jac=jac, name="cubic")


# -- Transform value type -------------------------------------------------

def test_identity_flags():
    assert IDENTITY.is_identity
    assert IDENTITY.label() == "I"
    assert not Transform(swap=1).is_identity
    assert not Transform(flips={2}).is_identity


def test_labels():
    assert Transform(swap=1, flips={2}).label() == "SP1.FP2"
    assert Transform(swap=2).label() == "SP2"
    assert Transform(flips={2}).label() == "FP2"
    assert Transform(flips={3, 2}).label() == "FP2.FP3"


def test_parse_examples():
    assert Transform.parse("I") == IDENTITY
    assert Transform.parse("SP1.FP2") == Transform(swap=1, flips={2})
    assert Transform.parse("FP2.FP3") == Transform(flips={2, 3})
    with pytest.raises(ValueError):
        Transform.parse("XP1")
    with pytest.raises(ValueError):
        Transform.parse("SP1.SP2")


def test_validation():
    with pytest.raises(ValueError):
        Transform(swap=0)
    with pytest.raises(ValueError):
        Transform(flips={0})
    with pytest.raises(ValueError):
        Transform(swap=2, flips={2})


@given(swap=st.one_of(st.none(), st.integers(1, 4)),
       flips=st.frozensets(st.integers(1, 4), max_size=3))
def test_label_parse_round_trip(swap, flips):
    if swap is not None and swap in flips:
        flips = flips - {swap}
    tr = Transform(swap=swap, flips=flips)
    assert Transform.parse(tr.label()) == tr


# -- operator algebra -----------------------------------------------------

def test_flip_involution():
    system = _quadratic_system()
    double = apply(Transform(flips={2}), apply(Transform(flips={2}), system))
    for _ in range(300):
        u = RNG.uniform(-2, 2, size=2)
        t = RNG.uniform(0, 1)
        if abs(u[1]) < 1e-6:
            continue
        np.testing.assert_allclose(double.rhs(u, t), system.rhs(u, t),
                                   rtol=1e-10, atol=1e-12)


def test_swap_involution():
    system = _quadratic_system()
    double = apply(Transform(swap=1), apply(Transform(swap=1), system))
    for _ in range(300):
        u = RNG.uniform(-2, 2, size=2)
        t = RNG.uniform(0, 1)
        if abs(np.asarray(system.rhs(u, t))[0]) < 1e-6:
            continue
        np.testing.assert_allclose(double.rhs(u, t), system.rhs(u, t),
                                   rtol=1e-10, atol=1e-12)


def test_swap_flip_commute():
    system = _quadratic_system()
    a = apply(Transform(swap=1), apply(Transform(flips={2}), system))
    b = apply(Transform(flips={2}), apply(Transform(swap=1), system))
    for _ in range(300):
        v = RNG.uniform(-2, 2, size=2)
        w = RNG.uniform(-2, 2)
        if abs(v[1]) < 1e-6:
            continue
        try:
            fa = a.rhs(v, w)
        except EvaluationError:
            continue
        np.testing.assert_allclose(fa, b.rhs(v, w), rtol=1e-10, atol=1e-12)


def test_one_dimensional_swap_of_constant():
    c = 2.5
    system = OdeSystem(1, lambda u, t: np.array([c]))
    swapped = apply(Transform(swap=1), system)
    out = swapped.rhs(np.array([0.3]), 0.7)
    np.testing.assert_allclose(out, [1.0 / c], rtol=1e-14)


def test_one_dimensional_flip_of_linear():
    # u' = u becomes w' = -(1/w) * w**2 = -w
    system = OdeSystem(1, lambda u, t: np.array([float(u[0])]))
    flipped = apply(Transform(flips={1}), system)
    for w in (0.2, -1.5, 3.0):
        np.testing.assert_allclose(flipped.rhs(np.array([w]), 0.0), [-w],
                                   rtol=1e-14)


def test_swap2_of_troesch():
    # G = (1 / (lam*sinh(lam*v1))) * (w, 1) with v = (u1, t), indep w = u2
    lam = 3.0
    tsys = apply(Transform(swap=2), troesch(lam).system)
    for _ in range(100):
        v1 = RNG.uniform(0.05, 1.5)
        t = RNG.uniform(0, 1)
        w = RNG.uniform(-2, 2)
        denom = lam * np.sinh(lam * v1)
        out = tsys.rhs(np.array([v1, t]), w)
        np.testing.assert_allclose(out, [w / denom, 1.0 / denom], rtol=1e-12)


def test_swap1_of_troesch():
    # G = (1/v2) * (1, lam*sinh(lam*u)) with v = (t, u2), indep u = u1
    lam = 3.0
    tsys = apply(Transform(swap=1), troesch(lam).system)
    for _ in range(100):
        t = RNG.uniform(0, 1)
        v2 = RNG.uniform(0.1, 3.0)
        u = RNG.uniform(-1.5, 1.5)
        out = tsys.rhs(np.array([t, v2]), u)
        np.testing.assert_allclose(
            out, [1.0 / v2, lam * np.sinh(lam * u) / v2], rtol=1e-12)


def test_swap1_flip2_of_troesch():
    # the composed transform turns the problem into
    #     t'(u) = w2,   w2'(u) = -lam*sinh(lam*u) * w2**3
    lam = 5.0
    tsys = apply(Transform(swap=1, flips={2}), troesch(lam).system)
    for _ in range(200):
        t = RNG.uniform(0, 1)
        w2 = RNG.uniform(-3, 3)
        u = RNG.uniform(0.05, 1.5)
        if abs(w2) < 1e-3:
            continue
        out = tsys.rhs(np.array([t, w2]), u)
        np.testing.assert_allclose(
            out, [w2, -lam * np.sinh(lam * u) * w2 ** 3], rtol=1e-10)


def test_apply_identity_is_noop():
    system = _quadratic_system()
    same = apply(IDENTITY, system)
    for _ in range(100):
        u = RNG.uniform(-2, 2, size=2)
        t = RNG.uniform(0, 1)
        np.testing.assert_array_equal(same.rhs(u, t), system.rhs(u, t))


def test_swap_zero_denominator_raises():
    system = OdeSystem(2, lambda u, t: np.array([0.0, 1.0]))
    with pytest.raises(EvaluationError):
        apply(Transform(swap=1), system).rhs(np.array([0.5, 0.5]), 0.0)


def test_flip_zero_component_raises():
    system = _quadratic_system()
    with pytest.raises(EvaluationError):
        apply(Transform(flips={2}), system).rhs(np.array([1.0, 0.0]), 0.0)


def test_bad_indices_rejected():
    system = _quadratic_system()
    with pytest.raises(ValueError):
        apply(Transform(swap=3), system)
    with pytest.raises(ValueError):
        apply(Transform(flips={0}), system)


# -- composed Jacobians ---------------------------------------------------

# every transform the strategies emit
STRATEGY_TRANSFORMS = ("I", "SP1", "SP2", "FP2", "SP1.FP2")

# (transform label, system) for the composed Jacobian tests: the strategy
# transforms on Troesch's system, two flips on a 3d system, and both
# systems without a jac, whose original-variable differences the chain
# rule carries into the transformed variables
COMPOSED_CASES = (
    [pytest.param(label, troesch(5.0).system, id=label)
     for label in STRATEGY_TRANSFORMS]
    + [pytest.param(label, _cubic_system(), id=f"{label}-cubic")
       for label in ("FP1.FP3", "SP2.FP1.FP3")]
    + [pytest.param("SP1.FP2", OdeSystem(2, troesch(5.0).system.rhs),
                    id="SP1.FP2-jacless"),
       pytest.param("FP1.FP3", OdeSystem(3, _cubic_system().rhs),
                    id="FP1.FP3-cubic-jacless")])


def _troesch_states(count, n=2):
    """Random states away from the zeros of every component, where the
    swaps and the flips are invalid."""
    size = (n, count)
    return (RNG.uniform(0.05, 1.5, size=size) * RNG.choice([-1.0, 1.0], size),
            RNG.uniform(0.0, 1.0, size=count))


@pytest.mark.parametrize("label, system", COMPOSED_CASES)
def test_composed_jacobian_matches_fd(label, system):
    tsys = apply(Transform.parse(label), system)
    assert tsys.jac is not None
    X, T = _troesch_states(50, system.n)
    for b in range(X.shape[1]):
        J = eval_jacobian_batch(tsys, X[:, b:b + 1], T[b:b + 1])[..., 0]
        J_fd = fd_jacobian(tsys, X[:, b], T[b])
        scale = np.maximum(np.abs(J_fd), np.max(np.abs(J_fd)) * 1e-6)
        assert np.max(np.abs(J - J_fd) / scale) <= 1e-6


@pytest.mark.parametrize("label, system", COMPOSED_CASES)
def test_composed_jacobian_batch_matches_pointwise(label, system):
    tsys = apply(Transform.parse(label), system)
    X, T = _troesch_states(9, system.n)
    batch = tsys.jac(X, T)
    assert batch.shape == (system.n, system.n + 1, 9)
    for b in range(9):
        np.testing.assert_array_equal(batch[..., b], tsys.jac(X[:, b], T[b]))


def test_composed_system_evaluates_inner_rhs_once():
    inner = troesch(5.0).system
    calls = {"rhs": 0, "jac": 0}

    def counted(name):
        def f(u, t):
            calls[name] += 1
            return getattr(inner, name)(u, t)
        return f

    tsys = apply(Transform(swap=1, flips={2}),
                 OdeSystem(2, counted("rhs"), jac=counted("jac")))
    X, T = _troesch_states(4)
    tsys.jac(X, T)
    assert calls == {"rhs": 1, "jac": 1}
    tsys.rhs(X, T)
    assert calls == {"rhs": 2, "jac": 1}


def test_swap_jacobian_zero_denominator_raises():
    system = OdeSystem(2, lambda u, t: np.array([0.0, 1.0]),
                       jac=lambda u, t: np.zeros((2, 3)))
    with pytest.raises(EvaluationError):
        apply(Transform(swap=1), system).jac(np.array([0.5, 0.5]), 0.0)


def test_flip_jacobian_zero_component_raises():
    system = troesch(2.0).system
    with pytest.raises(EvaluationError):
        apply(Transform(flips={2}), system).jac(np.array([1.0, 0.0]), 0.0)
    X = np.array([[1.0, 0.5], [2.0, 0.0]])
    with pytest.raises(EvaluationError):
        apply(Transform(flips={2}), system).jac(X, np.zeros(2))


@pytest.mark.parametrize("label", STRATEGY_TRANSFORMS)
def test_state_jacobian_matches_fd(label):
    tr = Transform.parse(label)
    X, T = _troesch_states(5)
    batch = state_jacobian(tr, X)
    for b in range(5):
        z = np.append(X[:, b], T[b])
        J_fd = np.empty((3, 3))
        for j in range(3):
            h = 1e-6 * abs(z[j])
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            qp, taup = map_state(tr, zp[:2], zp[2])
            qm, taum = map_state(tr, zm[:2], zm[2])
            J_fd[:, j] = (np.append(qp, taup)
                          - np.append(qm, taum)) / (zp[j] - zm[j])
        np.testing.assert_allclose(batch[..., b], J_fd, rtol=1e-8, atol=1e-12)
        np.testing.assert_array_equal(state_jacobian(tr, X[:, b]),
                                      batch[..., b])


# -- state mapping --------------------------------------------------------

def test_map_state_examples():
    q, tau = map_state(Transform(swap=1, flips={2}), np.array([0.5, 4.0]), 0.9)
    np.testing.assert_allclose(q, [0.9, 0.25])
    assert tau == 0.5

    q, tau = map_state(Transform(swap=2), np.array([0.3, 7.0]), 0.1)
    np.testing.assert_allclose(q, [0.3, 0.1])
    assert tau == 7.0

    q, tau = map_state(IDENTITY, np.array([1.5, -2.0]), 0.25)
    np.testing.assert_array_equal(q, [1.5, -2.0])
    assert tau == 0.25


def test_unmap_state_examples():
    u, t = unmap_state(Transform(swap=1, flips={2}),
                       np.array([0.9, 0.25]), 0.5)
    np.testing.assert_allclose(u, [0.5, 4.0])
    assert t == 0.9

    u, t = unmap_state(IDENTITY, np.array([1.5, -2.0]), 0.25)
    np.testing.assert_array_equal(u, [1.5, -2.0])
    assert t == 0.25


def test_map_state_zero_flip_component_raises():
    with pytest.raises(EvaluationError) as exc:
        map_state(Transform(flips={2}), np.array([1.0, 0.0]), 0.0)
    assert exc.value.component == 2
    with pytest.raises(EvaluationError):
        unmap_state(Transform(flips={2}), np.array([1.0, 0.0]), 0.0)


@settings(max_examples=200)
@given(u1=st.floats(-10, 10, allow_nan=False),
       u2=st.floats(-10, 10, allow_nan=False),
       t=st.floats(-1, 2, allow_nan=False),
       swap=st.one_of(st.none(), st.integers(1, 2)),
       flips=st.frozensets(st.integers(1, 2), max_size=2))
def test_map_unmap_round_trip(u1, u2, t, swap, flips):
    if swap is not None and swap in flips:
        flips = flips - {swap}
    tr = Transform(swap=swap, flips=flips)
    u = np.array([u1, u2])
    # reciprocals of near-zero components overflow; the solver guards
    # those states elsewhere, the round trip is only meaningful away from 0
    if any(abs(u[l - 1]) < 1e-8 for l in flips):
        return
    q, tau = map_state(tr, u, t)
    u_back, t_back = unmap_state(tr, np.asarray(q), tau)
    np.testing.assert_allclose(u_back, u, rtol=1e-15, atol=0)
    assert t_back == t


def test_map_state_batch_matches_scalar():
    tr = Transform(swap=1, flips={2})
    U = RNG.uniform(0.5, 2.0, size=(2, 7))
    T = RNG.uniform(0, 1, size=7)
    batch_q, batch_tau = map_state(tr, U, T)
    for b in range(7):
        q, tau = map_state(tr, U[:, b], T[b])
        np.testing.assert_array_equal(np.asarray(batch_q)[:, b], q)
        assert np.asarray(batch_tau)[b] == tau
