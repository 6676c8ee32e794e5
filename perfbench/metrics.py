"""Metric definitions, the per-layer summary of a traced run, and the
``BENCHMARK.json`` content they imply.

Each per-layer metric names the end-to-end metric and the workloads it
should move (``moves``); ``BENCHMARK.json`` has no field for that, so this
table is where the pairing is recorded.
"""

from __future__ import annotations

import math
import re

import numpy as np

from spans import children, has_ancestor, self_time, totals

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

DEEP, TWO, SRN = ("deep_layer_lam50", "two_zone_continuation",
                  "srn_identity_accuracy")

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("solve_ms_p50", "ms", "lower", 0.25),
    ("solve_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("newton_iters", "count", "lower", 0.01),
    ("knots", "count", "lower", 0.01),
    ("srn", "lambda", "higher", 0.01),
    ("u2_0_rel_err", "ratio", "lower", 0.05),
    ("solved_share", "ratio", "higher", 0.01),
]

_WALL_DEEP = f"wall_s on {DEEP}"
_P50_BOTH = f"solve_ms_p50 on {DEEP} and {TWO}"
# name, unit, moves
PER_LAYER = [
    ("trapezoid.newton_solve_s", "s", f"wall_s on all workloads"),
    ("trapezoid.newton_self_s", "s",
     f"wall_s on {DEEP}, solve_ms_p50 on {TWO}"),
    ("trapezoid.outer_iters", "count", f"solve_ms_p50 on {TWO}"),
    ("trapezoid.linear_solve_s", "s", f"{_WALL_DEEP}; none on {TWO}"),
    ("trapezoid.linear_solve_calls", "count", f"{_WALL_DEEP}; none on {TWO}"),
    ("probe.linear_solve_ms", "ms", f"{_WALL_DEEP}; none on {TWO}"),
    ("probe.linear_solve_backward_err", "ratio",
     f"{_WALL_DEEP}; none on {TWO}"),
    ("probe.linear_solve_forward_err", "ratio",
     f"{_WALL_DEEP}; none on {TWO}"),
    ("probe.residual_ms", "ms", f"wall_s on {DEEP}, solve_ms_p50 on {TWO}"),
    ("probe.jacobian_ms", "ms", f"wall_s on {DEEP}, solve_ms_p50 on {TWO}"),
    ("probe.knots", "count", "none: size of the probed mesh"),
    ("ode_system.rhs_calls.trapezoid", "count",
     f"cpu_s on {DEEP} and {TWO}"),
    ("ode_system.rhs_points.trapezoid", "count",
     f"cpu_s on {DEEP} and {TWO}"),
    ("ode_system.rhs_points.mesh", "count", _P50_BOTH),
    ("ode_system.rhs_points.strategy", "count", f"solve_ms_p50 on {DEEP}"),
    ("ode_system.rhs_s.trapezoid", "s", f"cpu_s on {DEEP} and {TWO}"),
    ("ode_system.rhs_s.mesh", "s", _P50_BOTH),
    ("ode_system.rhs_s.strategy", "s", f"solve_ms_p50 on {DEEP}"),
    ("mesh.normalize_s", "s", _P50_BOTH),
    ("mesh.normalize_calls", "count", _P50_BOTH),
    ("mesh.knots_removed", "count", _P50_BOTH),
    ("mesh.refine_s", "s", _P50_BOTH),
    ("mesh.refine_calls", "count", _P50_BOTH),
    ("mesh.knots_added", "count", _P50_BOTH),
    ("probe.normalize_ms", "ms", _P50_BOTH),
    ("probe.refine_ms", "ms", _P50_BOTH),
    ("strategy.assign_s", "s", f"solve_ms_p50 on {DEEP}"),
    ("strategy.assign_calls", "count", f"solve_ms_p50 on {DEEP}"),
    ("probe.assign_ms", "ms", f"solve_ms_p50 on {DEEP}"),
    ("transform.map_s", "s", f"solve_ms_p50 on {TWO}"),
    ("transform.unmap_s", "s", f"solve_ms_p50 on {TWO}"),
    ("transform.state_calls", "count", f"solve_ms_p50 on {TWO}"),
    ("transform.apply_calls", "count", f"solve_ms_p50 on {TWO}"),
    ("bench.solves", "count", "none: protocol size"),
    ("bench.oracle_s", "s", f"wall_s on {SRN} only"),
    ("bench.oracle_solves", "count", f"wall_s on {SRN} only"),
    ("bench.fine_solve_s", "s", _WALL_DEEP),
    ("trace_overhead", "ratio", "none: cost of the traced run"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_spec(workloads, run_seconds):
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u, _ in PER_LAYER],
    }


def hd_quantile(values, q):
    """Harrell-Davis estimate of the ``q``-quantile (0 < q < 1): a Beta
    weighted average of all order statistics.  Unlike a single order
    statistic it does not jump across gaps between clusters of solves."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 100001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    grid = np.concatenate([[0.0], grid])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def tail_percentile(count):
    """Highest whole percentile with at least ten samples beyond its
    nearest rank, or None when there are fewer than 20 samples."""
    best = None
    for p in range(50, 100):
        if count - math.ceil(p / 100 * count) >= 10:
            best = p
    return best


def layer_metrics(spans, passes):
    """Per-layer metrics of a traced run, per pass."""
    tot = totals(spans)
    kids = children(spans)
    newton_self = sum(self_time(spans, i, kids) for i, s in enumerate(spans)
                      if s[0] == "trapezoid.newton_solve")
    oracle_solves = sum(1 for i, s in enumerate(spans)
                        if s[0] == "bench.solve"
                        and has_ancestor(spans, i, "bench.oracle"))
    calls = lambda name: tot[name][0]
    secs = lambda name: tot[name][1]
    value = lambda name: tot[name][2]
    out = {
        "trapezoid.newton_solve_s": secs("trapezoid.newton_solve"),
        "trapezoid.newton_self_s": newton_self,
        "trapezoid.outer_iters": value("trapezoid.newton_solve"),
        "trapezoid.linear_solve_s": secs("trapezoid.linear_solve"),
        "trapezoid.linear_solve_calls": calls("trapezoid.linear_solve"),
        "ode_system.rhs_calls.trapezoid": calls("ode_system.rhs.trapezoid"),
        "mesh.normalize_s": secs("mesh.normalize"),
        "mesh.normalize_calls": calls("mesh.normalize"),
        "mesh.knots_removed": value("mesh.normalize"),
        "mesh.refine_s": secs("mesh.refine"),
        "mesh.refine_calls": calls("mesh.refine"),
        "mesh.knots_added": value("mesh.refine"),
        "strategy.assign_s": secs("strategy.assign"),
        "strategy.assign_calls": calls("strategy.assign"),
        "transform.map_s": secs("transform.map"),
        "transform.unmap_s": secs("transform.unmap"),
        "transform.state_calls": (calls("transform.map")
                                  + calls("transform.unmap")),
        "transform.apply_calls": calls("transform.apply"),
        "bench.solves": calls("bench.solve"),
        "bench.oracle_s": secs("bench.oracle"),
        "bench.oracle_solves": oracle_solves,
        "bench.fine_solve_s": secs("bench.fine_solve"),
    }
    for caller in ("trapezoid", "mesh", "strategy"):
        out[f"ode_system.rhs_points.{caller}"] = value(
            f"ode_system.rhs.{caller}")
        out[f"ode_system.rhs_s.{caller}"] = secs(f"ode_system.rhs.{caller}")
    return {k: v / passes for k, v in out.items()}
