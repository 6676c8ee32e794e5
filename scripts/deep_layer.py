#!/usr/bin/env python3
"""Deep boundary-layer solve with the three-zone layout.

Continues the Troesch problem to a large lambda with a coarse adaptive
mesh, then refines to a fixed fine natural step and reports the endpoint
derivatives; the solution is exported as CSV.
"""

import argparse
import pathlib
import sys

from stiffbvp import (NewtonConfig, RefinementConfig, SteepGrowthZoneStrategy,
                      export_solution, solve_spec, troesch, troesch_endpoints,
                      uniform_mesh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--lambda", dest="lam", type=float, default=50.0)
    parser.add_argument("--h-fine", type=float, default=1.76e-4)
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    strategy = SteepGrowthZoneStrategy()
    newton = NewtonConfig()
    coarse = RefinementConfig(M=0.1, h_min=1e-3, h_max=1e-2)
    lam = min(3.0, args.lam)
    spec = troesch(lam)
    sol = solve_spec(spec, uniform_mesh(spec, 0.01), strategy, newton, coarse)
    while lam < args.lam:
        lam = min(lam + 1.0, args.lam)
        spec = troesch(lam)
        print(f"continuation lambda={lam:g} ({sol.mesh.knot_count} knots)",
              file=sys.stderr)
        sol = solve_spec(spec, sol.mesh, strategy, newton, coarse)
    fine = RefinementConfig(M=0.1, h_min=args.h_fine, h_max=args.h_fine)
    sol = solve_spec(spec, sol.mesh, strategy, newton, fine)

    d0, d1 = float(sol.mesh.U[0, 1]), float(sol.mesh.U[-1, 1])
    print(f"lambda={args.lam:g}: {sol.mesh.knot_count} knots, "
          f"u2(0)={d0:.9e}, u2(1)={d1:.9e}")
    ref0 = troesch_endpoints(args.lam)[0]
    print(f"reference u2(0)={ref0:.9e}, rel err {abs(d0 - ref0) / ref0:.3e}")
    path = out_dir / f"troesch_lam{args.lam:g}.csv"
    export_solution(sol, path)
    print(f"solution -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
