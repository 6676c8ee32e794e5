#!/usr/bin/env python3
"""Benchmark of the stiffbvp solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

Run from a checkout of the repository; the library is imported from its
``src`` directory, so nothing needs to be installed.  A run repeats the
workload's protocol ``max(2, seconds // nominal pass time)`` times in one
process with BLAS and OpenMP pinned to one thread, checks every answer and
prints each metric with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (protocol passes),
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  Spans, the
environment and per-pass details are written under ``perfbench/out``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import (END_TO_END, PER_LAYER, UNITS, hd_quantile, layer_metrics,
                     tail_percentile)
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("deep_layer_lam50", "two_zone_continuation",
                  "srn_identity_accuracy")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class PassResult:
    wall: float
    cpu: float
    solve_s: list                # wall time of every solve_spec call
    solve_cpu: list              # its process CPU time
    failed_solves: int
    newton_iters: int
    outcome: object
    checks: dict


def run_pass(workload, tracer, traced):
    from workloads import PassContext, layer_targets, lib_bench

    ctx = PassContext(tracer, len(tracer.spans), [])

    def keep(args, sol):
        ctx.solutions.append((args[0], sol))
        return sol.iterations

    targets = [(lib_bench, "solve_spec", "bench.solve", keep)]
    if traced:
        targets += layer_targets()
    c0, t0 = time.process_time(), time.perf_counter()
    with tracer.span("bench.pass"), tracer.patched(targets):
        outcome = workload.protocol(ctx)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    solves = [s for s in tracer.spans[ctx.first_span:]
              if s[0] == "bench.solve"]
    return PassResult(
        wall=wall, cpu=cpu, solve_s=[s[2] - s[1] for s in solves],
        solve_cpu=[s[6] for s in solves],
        failed_solves=sum(1 for s in solves if not s[5]),
        newton_iters=sum(s[4] for s in solves), outcome=outcome,
        checks=workload.check(outcome))


def measure_setup(workload):
    """Median set-up time over fresh interpreters."""
    from workloads import setup_code
    code = setup_code(workload, str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "stiffbvp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def repeat_check(name, answers):
    """Compare (newton_iters, knots) with earlier runs of the same library
    source in this checkout; record them when new.  False on a mismatch."""
    path = OUT / "answers.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    seen = record.setdefault(source_digest(), {})
    if name in seen:
        return seen[name] == list(answers)
    seen[name] = list(answers)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1))
    os.replace(tmp, path)
    return True


def environment(loadavg):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_start": loadavg,
    }
    try:
        import scipy
        sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["scipy"] = scipy.__version__
        env["scipy_blas"] = f"{sblas.get('name')} {sblas.get('version')}"
    except ImportError:
        env["scipy"] = None
    return env


def answer_fields(p):
    o = p.outcome
    return {"newton_iters": p.newton_iters, "knots": o.mesh.knot_count,
            "srn": o.srn, "max_knots": o.max_knots, "ref_lambda": o.ref_lam,
            "u2_0": o.u2_0, "u2_0_ref": o.u2_0_ref,
            "u2_0_rel_err": o.u2_0_rel_err,
            "solves": len(p.solve_s), "failed_solves": p.failed_solves,
            "wall_s": p.wall, "cpu_s": p.cpu, "checks": p.checks}


def best_times(passes, per_solve="solve_s"):
    """Each solve's fastest time over the passes, in protocol order, or
    None when the passes made different numbers of solves.

    The passes repeat identical solves, and the host's speed drifts by up to
    2x over tens of seconds; the per-solve minimum filters that drift out
    where a median over passes does not."""
    per = [getattr(p, per_solve) for p in passes]
    if len({len(x) for x in per}) != 1:
        return None
    return [min(col) for col in zip(*per)]


def best_total(passes, total, per_solve):
    """A pass's ``total`` (wall or CPU time) with every solve at its best,
    plus the smallest remainder outside the solves."""
    best = best_times(passes, per_solve)
    if best is None:
        return min(getattr(p, total) for p in passes)
    return sum(best) + min(getattr(p, total) - sum(getattr(p, per_solve))
                           for p in passes)


def end_to_end(passes, setup_s):
    solve_ms = [1e3 * s for p in passes for s in p.solve_s]
    first = answer_fields(passes[0])
    attempted = len(solve_ms)
    failed = sum(p.failed_solves for p in passes)
    tail = tail_percentile(attempted)
    # the tail sits on a few expensive solves, so each call counts at its
    # solve's best time; the median sits among many and uses every call
    best = best_times(passes)
    at_best = (solve_ms if best is None
               else [1e3 * s for s in best] * len(passes))
    out = {
        "setup_s": setup_s,
        "wall_s": best_total(passes, "wall", "solve_s"),
        "cpu_s": best_total(passes, "cpu", "solve_cpu"),
        "solve_ms_p50": hd_quantile(solve_ms, 0.5),
        "solve_ms_tail": None if tail is None else hd_quantile(at_best,
                                                               tail / 100),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "newton_iters": first["newton_iters"],
        "knots": first["knots"],
        "srn": first["srn"],
        "u2_0_rel_err": first["u2_0_rel_err"],
        "solved_share": (attempted - failed) / attempted,
    }
    info = {"solve_ms_tail_percentile": tail, "solve_samples": attempted,
            "failed_share": f"{failed}/{attempted} solves"}
    return {k: v for k, v in out.items() if v is not None}, info


def run_workload(args):
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:          # not Linux
        loadavg = None
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, probes, warm_up

    w = WORKLOADS[args.workload]
    passes = max(2, int(args.seconds // w.nominal_pass_s))
    detail = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        setup_s, detail["setup_samples_s"] = measure_setup(w)
        warm_up()
        tracer = Tracer(enabled=False)
        results = [run_pass(w, tracer, False) for _ in range(passes)]
        values, info = end_to_end(results, setup_s)
        detail.update(info)
    else:
        warm_up()
        plain, tracer = Tracer(enabled=False), Tracer()
        untraced, traced = [], []
        for _ in range(max(1, passes // 2)):
            untraced.append(run_pass(w, plain, False))
            traced.append(run_pass(w, tracer, True))
        results = untraced + traced
        values = layer_metrics(tracer.spans, len(traced))
        values.update(probes(traced[-1].outcome, args.seed))
        values["trace_overhead"] = (
            best_total(traced, "wall", "solve_s")
            / best_total(untraced, "wall", "solve_s") - 1.0)
        tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.jsonl.gz")

    answers = {(p.newton_iters, p.outcome.mesh.knot_count) for p in results}
    checks = {name: all(p.checks[name] for p in results)
              for name in results[0].checks}
    checks["same_answers_within_run"] = len(answers) == 1
    checks["same_answers_across_runs"] = (
        len(answers) == 1 and repeat_check(w.name, answers.pop()))
    detail["checks"] = checks
    detail["passes"] = [answer_fields(p) for p in results]
    detail["env"] = environment(loadavg)
    path = OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str))

    expected = [n for n, *_ in (END_TO_END if args.trace == 0 else PER_LAYER)]
    values = {name: values[name] for name in expected if name in values}
    print(f"# {w.name}: {len(results)} passes, seed {args.seed}, "
          f"trace {args.trace}; details in {path.relative_to(ROOT)}")
    for name, value in values.items():
        note = ""
        if name == "solve_ms_tail":
            note = (f"  (p{detail['solve_ms_tail_percentile']} of "
                    f"{detail['solve_samples']} solves)")
        print(f"{name:<34} {value:.6g} {UNITS[name]}{note}")
    for name, ok in checks.items():
        print(f"check {name:<28} {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": len(results),
        "failed": sum(1 for p in results if not all(p.checks.values())),
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in values.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stiffbvp" / "__init__.py").is_file():
        print(f"stiffbvp sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
