"""Built-in problem catalog and embedded reference data.

Contains the Troesch problem (the classical stiff two-point benchmark
u'' = lambda*sinh(lambda*u) with u(0)=0, u(1)=1 written as a first-order
system) with its endpoint derivatives from the first integral, and a
linear verification problem with a closed-form solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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


def troesch(lam: float) -> ProblemSpec:
    """Troesch's problem as a first-order system on [0, 1].

        u1' = u2,   u2' = lam * sinh(lam * u1),   u1(0) = 0, u1(1) = 1
    """
    if not lam > 0:
        raise ConfigError("lambda must be positive")
    lam = float(lam)

    def rhs(u, t):
        u1, u2 = u[0], u[1]
        return np.stack([u2 * np.ones_like(np.asarray(t, dtype=float)),
                         lam * np.sinh(lam * u1)])

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


def _log_sinh(x):
    """log(sinh(x)) for x > 0 without overflow."""
    return x + np.log1p(-np.exp(-2.0 * x)) - math.log(2.0)


def troesch_endpoints(lam: float) -> Tuple[float, float]:
    """(u2(0), u2(1)) of Troesch's problem from its first integral,
    independent of the solver.

    Multiplying u'' = lam*sinh(lam*u) by u' and integrating gives
    u2**2 = s**2 + 4*sinh(lam*u1/2)**2 with s = u2(0), so
    u2(1) = sqrt(s**2 + 4*sinh(lam/2)**2), and s is fixed by t(u1 = 1) = 1.
    Substituting sinh(lam*u1/2) = (s/2)*sinh(v) turns that condition into

        lam = integral_0^V dv / sqrt(1 + ((s/2)*sinh v)**2),
        V = asinh(sinh(lam/2) / (s/2)),

    whose integrand is smooth.  Composite Gauss-Legendre evaluates it in
    log space, and false position on log s finds the root to the last bit
    in 4 to 12 evaluations for lam in [0.1, 500].  Past lam = 692, s is
    below 1e-300 and ConfigError is raised.
    """
    nodes, weights = np.polynomial.legendre.leggauss(24)
    half_lam = float(_log_sinh(lam / 2.0))        # log(sinh(lam/2))

    def excess(log_s):
        log_half = log_s - math.log(2.0)
        x = half_lam - log_half                   # log(sinh(lam/2)/(s/2))
        top = math.asinh(math.exp(x)) if x < 30 else x + math.log(2.0)
        edges = np.linspace(0.0, top, 257)
        rad = 0.5 * np.diff(edges)[:, None]
        v = 0.5 * (edges[1:] + edges[:-1])[:, None] + rad * nodes
        with np.errstate(over="ignore"):
            f = 1.0 / np.sqrt(1.0 + np.exp(2.0 * (log_half + _log_sinh(v))))
        return float(np.sum(rad * weights * f)) - lam

    # 1e-300 <= s <= 1 for lam <= 692 (u is convex with mean slope 1, and
    # s ~ 8*exp(-lam)); Illinois false position shrinks it to adjacent floats
    lo, hi = math.log(1e-300), 0.0
    f_lo, f_hi = excess(lo), excess(hi)
    if not f_lo > 0:
        raise ConfigError(f"u2(0) of troesch({lam:g}) is below 1e-300")
    x, side = hi, 0
    while True:
        x_new = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x_new < hi:
            break
        x = x_new
        fx = excess(x)
        if fx > 0:
            lo, f_lo = x, fx
            if side > 0:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = x, fx
            if side < 0:
                f_lo *= 0.5
            side = -1
    s = math.exp(x)
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
