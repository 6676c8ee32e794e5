"""Stiff two-point BVP solver with swap/flip variable transformations.

The trapezoidal scheme on an evolving mesh, where each interval may be
rewritten in transformed variables: a "swap" exchanges one dependent
variable with the independent one, a "flip" replaces a dependent variable
by its reciprocal.  Suitable transformation assignments suppress the
stiffness of boundary-layer problems such as Troesch's equation.
"""

from .bench import (ContinuationOracle, SrnConfig, SrnResult, StopCriterion,
                    endpoint_derivatives, error_curve, export_solution,
                    import_solution, run_continuation, solve_spec,
                    uniform_mesh, write_error_curve, write_srn_result)
from .errors import (ColdStartFailure, ConfigError, EvaluationError,
                     MeshError, NonConvergence, NonStationaryBoundary,
                     RefinementError, SingularLinearSystem, SingularStepError,
                     StiffBvpError, StrategyError)
from .mesh import (EvolvingMesh, RefinementConfig, init_linear, merge_runs,
                   normalize, refine)
from .ode_system import (BoundaryConditions, OdeSystem, eval_jacobian_batch,
                         eval_rhs, eval_rhs_batch, fd_jacobian,
                         from_second_order)
from .problems import (ProblemSpec, ReferenceTable, linear_verification,
                       problem_by_name, reference_lookup, troesch,
                       troesch_endpoints)
from .strategy import (AutoStrategy, GrowthZoneStrategy, IdentityStrategy,
                       SteepGrowthZoneStrategy, TransformStrategy,
                       select_flips, select_swap_index, stiffness_measure,
                       strategy_by_name)
from .transform import (IDENTITY, Transform, apply, map_state, state_jacobian,
                        unmap_state)
from .trapezoid import (BlockJacobian, NewtonConfig, SegmentedProblem,
                        Solution, assemble_jacobian, assemble_residual,
                        newton_solve, solve_linear_block)

__version__ = "0.1.0"
