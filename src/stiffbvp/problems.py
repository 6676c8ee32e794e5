"""Built-in problem catalog and embedded reference data.

Contains the Troesch problem (the classical stiff two-point benchmark
u'' = lambda*sinh(lambda*u) with u(0)=0, u(1)=1 written as a first-order
system) with its endpoint derivatives from the first integral, and a
linear verification problem with a closed-form solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

from .errors import ConfigError
from .ode_system import BoundaryConditions, OdeSystem


@dataclass(frozen=True)
class ReferenceTable:
    """High-accuracy endpoint derivative values, keyed by lambda.

    Entries map lambda -> (u2_at_0, u2_at_1, source).  Either value may be
    None when only one endpoint is tabulated.
    """

    entries: Mapping[float, Tuple[Optional[float], Optional[float], str]]


@dataclass(frozen=True)
class ProblemSpec:
    system: OdeSystem
    bc: BoundaryConditions
    domain: Tuple[float, float]
    name: str = ""
    reference: Optional[ReferenceTable] = None
    exact: Optional[Callable] = None     # t -> u, when a closed form exists
    # () -> (u2_at_a, u2_at_b) computed without the solver, when the family
    # has such a method; consulted for lambdas the table does not cover
    reference_fn: Optional[Callable[[], Tuple[float, float]]] = None

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ConfigError("domain must satisfy a < b")


# u2(0) values are external high-precision data; u2(1) values are
# convergence-estimated and should be treated as cross-checks only.
_TROESCH_REFERENCE = ReferenceTable(entries={
    50.0: (1.542999878e-21, 7.200489933746e10, "external"),
    100.0: (2.976060781e-43, 5.18470552861e21, "external/convergence-estimated"),
    200.0: (1.107117221e-86, 2.68811714186e43, "external/convergence-estimated"),
    300.0: (None, 1.39370958072e65, "convergence-estimated"),
    400.0: (None, 7.2259737686e86, "convergence-estimated"),
    500.0: (5.699661125e-217, 3.7464546149e108, "external/convergence-estimated"),
})


def _troesch_lambda(lam: float) -> float:
    """lam as a float; ConfigError unless it is finite and positive."""
    if not 0 < lam < math.inf:
        raise ConfigError(f"lambda must be finite and positive, got {lam}")
    return float(lam)


def troesch(lam: float) -> ProblemSpec:
    """Troesch's problem as a first-order system on [0, 1].

        u1' = u2,   u2' = lam * sinh(lam * u1),   u1(0) = 0, u1(1) = 1
    """
    lam = _troesch_lambda(lam)

    def rhs(u, t):
        u1 = np.asarray(u[0], dtype=float)
        out = np.empty((2,) + u1.shape)
        out[0] = u[1]
        # a view also when u is one state, where out[1] would be a scalar
        row = out[1, ...]
        np.multiply(lam, u1, out=row)
        np.sinh(row, out=row)
        row *= lam
        return out

    def jac(u, t):
        u1 = np.asarray(u[0], dtype=float)
        out = np.zeros((2, 3) + u1.shape)
        out[0, 1] = 1.0
        out[1, 0] = lam * lam * np.cosh(lam * u1)
        return out

    system = OdeSystem(2, rhs, jac=jac, params={"lam": lam}, name="troesch")

    def bc_residual(u_a, u_b):
        return np.array([u_a[0], u_b[0] - 1.0])

    bc = BoundaryConditions(bc_residual,
                            pins={("a", 1): (0, 0.0), ("b", 1): (1, 1.0)})
    return ProblemSpec(system, bc, (0.0, 1.0), name=f"troesch(lam={lam:g})",
                       reference=_TROESCH_REFERENCE,
                       reference_fn=partial(troesch_endpoints, lam))


@cache
def _gauss_legendre_24():
    """The 24-point Gauss-Legendre rule of troesch_endpoints' panels, built
    on first use: importing numpy.polynomial costs about 2 MB."""
    return np.polynomial.legendre.leggauss(24)


def _log_sinh(x):
    """log(sinh(x)) for x > 0 without overflow, to rounding also for
    small x (expm1 keeps 1 - exp(-2x) exact to rounding)."""
    return x + np.log(-np.expm1(-2.0 * x)) - math.log(2.0)


def _first_integral(lam: float, half_lam: float, log_s: float):
    """(I/lam - 1, its derivative in log s), where I is troesch_endpoints'
    integral at s = exp(log_s) and half_lam = log(sinh(lam/2)).

    24-point Gauss-Legendre runs on ceil(V/2) equal panels of [0, V]: the
    integrand's complex singularities lie pi/2 off the real axis, so panels
    about 2 wide integrate it to rounding."""
    nodes, weights = _gauss_legendre_24()
    log_half = log_s - math.log(2.0)
    x = half_lam - log_half                       # log(sinh(lam/2)/(s/2))
    top = math.asinh(math.exp(x)) if x < 30 else x + math.log(2.0)
    panels = math.ceil(top / 2.0)
    rad = 0.5 * top / panels
    v = (rad * (2.0 * np.arange(panels) + 1.0))[:, None] + rad * nodes
    with np.errstate(over="ignore"):
        f = 1.0 / np.sqrt(1.0 + np.exp(2.0 * (log_half + _log_sinh(v))))
    wf = (rad / lam) * weights * f
    # with g = ((s/2)*sinh v)**2, the integrand's derivative in log s is
    # -g*f**3 = -(1 - f**2)*f; dV/d(log s) = -tanh(V), and at V the
    # integrand is 1/cosh(lam/2)
    f_top = 2.0 * math.exp(-lam / 2.0) / (1.0 + math.exp(-lam))
    return (float(np.sum(wf)) - 1.0,
            -f_top * math.tanh(top) / lam - float(np.sum(wf * (1.0 - f * f))))


def troesch_endpoints(lam: float) -> Tuple[float, float]:
    """(u2(0), u2(1)) of Troesch's problem from its first integral,
    independent of the solver.

    Multiplying u'' = lam*sinh(lam*u) by u' and integrating gives
    u2**2 = s**2 + 4*sinh(lam*u1/2)**2 with s = u2(0), so
    u2(1) = sqrt(s**2 + 4*sinh(lam/2)**2), and s is fixed by t(u1 = 1) = 1.
    Substituting sinh(lam*u1/2) = (s/2)*sinh(v) turns that condition into

        lam = integral_0^V dv / sqrt(1 + ((s/2)*sinh v)**2),
        V = asinh(sinh(lam/2) / (s/2)),

    whose integrand is smooth.  Composite Gauss-Legendre on panels about 2
    wide evaluates it in log space, and the same points give its
    derivative in log s.  Newton on log s, kept inside a bracket from the
    linearized problem, finds the root to rounding in 2 to 4 quadratures
    (48 to 25,000 integrand points) for lam in [1e-8, 692]: under 0.1 ms
    per call for lam <= 10 and under 0.5 ms up to lam = 692 on one core
    of a 2-core Xeon.  For lam in [1e-50, 0.01], s agrees with
    lam/sinh(lam) to 1e-14, and to 2e-13 below.  Past lam = 692, s
    is below 1e-300 and ConfigError is raised, as it is for lam <= 0, nan,
    inf, and a subnormal lam, whose V would be subnormal too and keep too
    few bits for the quadrature.
    """
    lam = _troesch_lambda(lam)
    if lam < np.finfo(float).tiny:
        raise ConfigError(f"lambda {lam:g} is subnormal")
    half_lam = float(_log_sinh(lam / 2.0))        # log(sinh(lam/2))
    excess = partial(_first_integral, lam, half_lam)
    too_small = f"u2(0) of troesch({lam:g}) is below 1e-300"
    # s is at most lam/sinh(lam), the slope of the linearized problem
    # u'' = lam**2 u (sinh(lam*u) >= lam*u for u >= 0), plus a margin for
    # rounding, and it is not a factor e*(1+lam) below that: s ~ 8*exp(-lam)
    # for large lam.  Newton runs from the top of that bracket; the bottom
    # is evaluated only when a step would leave the bracket.
    hi = math.log(lam) - float(_log_sinh(lam)) + 1e-12
    lo = max(hi - 1.0 - math.log1p(lam), math.log(1e-300))
    if not lo < hi:
        raise ConfigError(too_small)
    fx, dfx = excess(hi)
    if not fx < 0:
        # the margin did not cover the rounding; s < 1 holds for every lam
        hi = 0.0
        fx, dfx = excess(hi)
    x, lo_checked = hi, False
    while True:
        x_new = x - fx / dfx
        if not lo < x_new < hi:
            if not (lo_checked or excess(lo)[0] > 0):
                raise ConfigError(too_small)
            lo_checked = True
            x_new = 0.5 * (lo + hi)
        # the step is the error of x, so x_new is fixed to rounding
        if abs(x_new - x) <= 2.0 * np.finfo(float).eps * max(1.0, abs(x)):
            break
        x = x_new
        fx, dfx = excess(x)
        if fx > 0:
            lo, lo_checked = x, True
        elif fx < 0:
            hi = x
        else:
            break
    s = math.exp(x_new)
    return s, math.hypot(s, 2.0 * math.exp(half_lam))


def linear_verification() -> ProblemSpec:
    """u'' = u on [0, 1] with u(0) = 0, u(1) = sinh(1).

    Exact solution u1 = sinh(t), u2 = cosh(t); used as a convergence-order
    oracle for the discretization.
    """

    def rhs(u, t):
        return np.stack([u[1] * np.ones_like(np.asarray(t, dtype=float)),
                         u[0] * np.ones_like(np.asarray(t, dtype=float))])

    def jac(u, t):
        out = np.zeros((2, 3) + np.shape(u[0]))
        out[0, 1] = 1.0
        out[1, 0] = 1.0
        return out

    system = OdeSystem(2, rhs, jac=jac, name="linear-verification")

    def bc_residual(u_a, u_b):
        return np.array([u_a[0], u_b[0] - np.sinh(1.0)])

    bc = BoundaryConditions(bc_residual,
                            pins={("a", 1): (0, 0.0), ("b", 1): (1, np.sinh(1.0))})

    def exact(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sinh(t), np.cosh(t)])

    return ProblemSpec(system, bc, (0.0, 1.0), name="linear-verification",
                       exact=exact)


def reference_lookup(table: Optional[ReferenceTable], lam: float):
    """Exact-key lookup of (u2_at_0, u2_at_1); None when absent."""
    if table is None:
        return None
    entry = table.entries.get(float(lam))
    if entry is None:
        return None
    return entry[0], entry[1]


_CATALOG = {
    "troesch": troesch,
    "linear": lambda lam=None: linear_verification(),
}


def problem_by_name(name: str, lam: Optional[float] = None) -> ProblemSpec:
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown problem {name!r}; choices: {sorted(_CATALOG)}")
    if name == "troesch":
        if lam is None:
            raise ConfigError("troesch needs a lambda value")
        return factory(lam)
    return factory()
