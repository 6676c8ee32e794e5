"""Tests of the benchmark harness itself (not of the solver).

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from metrics import (END_TO_END, NAME_RE, PER_LAYER,  # noqa: E402
                     benchmark_spec, hd_quantile, layer_metrics,
                     tail_percentile)
from spans import Tracer, children, self_time  # noqa: E402
from workloads import (WORKLOADS, block_apply, layer_targets,  # noqa: E402
                       troesch_u2_0)

from stiffbvp import (SegmentedProblem, assemble_jacobian,  # noqa: E402
                      solve_spec, troesch, uniform_mesh)
from stiffbvp import bench as lib_bench  # noqa: E402


def _span(name, start, end, parent):
    return (name, start, end, parent, 0, True, 0.0)


def test_metric_names_and_units():
    names = [n for n, *_ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for _, unit, *_ in END_TO_END + PER_LAYER:
        assert len(unit) <= 16
        assert all(c.isalnum() or c in "_/%.-" for c in unit), unit
    for name, _, better, bound in END_TO_END:
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    setup = [e for e in END_TO_END if e[0] == "setup_s"]
    assert setup == [("setup_s", "s", "lower",
                      max(b for *_, b in END_TO_END))]


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec == benchmark_spec(WORKLOADS, spec["run_seconds"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert NAME_RE.fullmatch(w["name"]) and len(w["why"]) <= 200


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("a.child", 1.5, 2.5, 1),     # covered by a, not by root
        _span("b", 2.0, 5.0, 0),           # overlaps a: counted once
        _span("c", 8.0, 12.0, 0),          # runs past root: clipped
    ]
    kids = children(spans)
    assert self_time(spans, 0, kids) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(spans, 1, kids) == pytest.approx(2.0 - 1.0)
    assert self_time(spans, 2, kids) == pytest.approx(1.0)


def test_tracer_records_parents_and_self_time():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    with tracer.span("outer"):
        leaf()
        with tracer.span("inner"):
            leaf()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "inner", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]
    kids = children(tracer.spans)
    outer = tracer.spans[0]
    direct = (tracer.spans[1][2] - tracer.spans[1][1]
              + tracer.spans[2][2] - tracer.spans[2][1])
    assert self_time(tracer.spans, 0, kids) == pytest.approx(
        outer[2] - outer[1] - direct, abs=1e-12)


def test_disabled_tracer_keeps_only_the_bench_spans():
    tracer = Tracer(enabled=False)
    fn = lambda: 1
    assert tracer.wrap("mesh.refine", fn) is fn
    assert tracer.wrap("bench.solve", fn) is not fn


def test_patched_restores_names_when_the_block_raises():
    before = {(m, a): getattr(m, a) for m, a, *_ in layer_targets()}
    with pytest.raises(RuntimeError):
        with Tracer().patched(layer_targets()):
            assert all(getattr(m, a) is not fn for (m, a), fn in
                       before.items())
            raise RuntimeError
    assert all(getattr(m, a) is fn for (m, a), fn in before.items())


def test_traced_pass_leaves_the_library_unpatched():
    targets = layer_targets() + [(lib_bench, "solve_spec", "", None)]
    before = {(m, a): getattr(m, a) for m, a, *_ in targets}
    tracer = Tracer()
    result = run.run_pass(WORKLOADS["srn_identity_accuracy"], tracer, True)
    assert all(getattr(m, a) is fn for (m, a), fn in before.items())
    assert all(result.checks.values())
    recorded = {s[0] for s in tracer.spans}
    assert {s for *_, s, _ in layer_targets()} - recorded == set()
    layer = layer_metrics(tracer.spans, 1)
    assert layer["bench.solves"] == len(result.solve_s)
    assert 0 < layer["bench.oracle_solves"] < layer["bench.solves"]
    assert 0 < layer["trapezoid.newton_self_s"] < layer[
        "trapezoid.newton_solve_s"]


def test_block_apply_matches_the_dense_jacobian():
    spec = troesch(4.0)
    sol = solve_spec(spec, uniform_mesh(spec, 0.1))
    jac = assemble_jacobian(SegmentedProblem(spec.system, spec.bc, sol.mesh,
                                             spec.domain))
    x = np.random.default_rng(0).standard_normal((sol.mesh.knot_count, 2))
    np.testing.assert_allclose(block_apply(jac, x), jac.todense() @ x.ravel(),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("lam, ref", [
    # 40-digit first-integral values (tests/conftest.py ENERGY_REFS)
    (2.0, 0.51862121926934021),
    (3.0, 0.25560421556293311),
    (9.0, 0.00096558454107617376),
])
def test_troesch_reference_matches_high_precision_values(lam, ref):
    assert troesch_u2_0(lam) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("lam", [50.0, 100.0, 500.0])
def test_troesch_reference_matches_the_embedded_table(lam):
    ref = troesch(lam).reference.entries[lam][0]
    assert troesch_u2_0(lam) == pytest.approx(ref, rel=1e-9)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(19) is None
    for count in (20, 50, 99, 610):
        p = tail_percentile(count)
        assert count - math.ceil(p / 100 * count) >= 10
        assert p == 99 or count - math.ceil((p + 1) / 100 * count) < 10


def test_harrell_davis_quantile():
    assert hd_quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    values = np.random.default_rng(1).standard_normal(2001)
    assert hd_quantile(values, 0.5) == pytest.approx(np.median(values),
                                                     abs=0.05)
    assert hd_quantile(values, 0.9) == pytest.approx(
        np.quantile(values, 0.9), abs=0.05)
    # smooth across a gap, where the plain median jumps
    assert 1.0 < hd_quantile([1.0] * 50 + [2.0] * 50, 0.5) < 2.0


def test_best_times_take_each_solve_at_its_fastest():
    passes = [run.PassResult(wall=1.0, cpu=1.0, solve_s=[0.5, 0.2],
                             solve_cpu=[0.5, 0.2], failed_solves=0,
                             newton_iters=0, outcome=None, checks={}),
              run.PassResult(wall=0.9, cpu=0.9, solve_s=[0.3, 0.4],
                             solve_cpu=[0.3, 0.4], failed_solves=0,
                             newton_iters=0, outcome=None, checks={})]
    assert run.best_times(passes) == [0.3, 0.2]
    assert run.best_total(passes, "wall", "solve_s") == pytest.approx(
        0.5 + 0.2)
