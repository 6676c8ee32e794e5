"""Shared fixtures and frozen reference data.

The endpoint-derivative references below were computed independently of
the solver from the first integral of the Troesch equation: multiplying
u'' = lam*sinh(lam*u) by u' and integrating gives

    u2(t)**2 = u2(0)**2 + 2*cosh(lam*u1(t)) - 2,

so u2(0) is the root s of  integral_0^1 du / sqrt(s**2 + 2*cosh(lam*u) - 2) = 1
and u2(1) = sqrt(s**2 + 2*cosh(lam) - 2).  The values were evaluated with
40-digit arithmetic (mpmath, bisection on s plus adaptive quadrature with
breakpoints clustered near u = 0) and frozen here.
"""

import pytest

from stiffbvp import linear_verification, merge_runs, troesch

# lam -> (u2 at t=0, u2 at t=1), 17 significant digits
ENERGY_REFS = {
    2.0: (0.51862121926934021, 2.4069398312470713),
    3.0: (0.25560421556293311, 4.2662228618028236),
    9.0: (0.00096558454107617376, 90.006022309162966),
}


@pytest.fixture
def troesch3():
    return troesch(3.0)


@pytest.fixture
def linear_problem():
    return linear_verification()


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def intervals(zones):
    """Per-interval transforms of a zone tuple."""
    return [tr for tr, s, e in zones for _ in range(s, e)]


def zones_of(transforms):
    """Zones of a per-interval transform list."""
    return merge_runs((tr, i, i + 1) for i, tr in enumerate(transforms))


def zone_summary(mesh):
    """Run-length form of a mesh's zones: [(label, count), ...]."""
    return [(tr.label(), e - s) for tr, s, e in mesh.zones]


def random_states(rng, n, count, low=-2.0, high=2.0):
    """Batch of random (u, t) probes, shape (count, n) and (count,)."""
    U = rng.uniform(low, high, size=(count, n))
    T = rng.uniform(0.0, 1.0, size=count)
    return U, T
