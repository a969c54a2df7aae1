"""Approximation algorithms for two-stage planning with reservations.

Resources are reserved at a discount before the demand scenario is known,
then either exercised (paying the balance) or abandoned, with full-price
recourse purchases patching whatever is missing.  The package covers set
cover, vertex cover, facility location and rooted tree connection:
relaxations and roundings with proven factors, an exact oracle for tiny
instances, a sample-average reduction for black-box scenario models, and a
benchmarking CLI.
"""

from .instances import (
    InstanceError,
    MetricGraph,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from .model import (
    CostPolicy,
    FeasibilityReport,
    ObjectiveBreakdown,
    ScenarioSet,
    StageDecision,
    StructureError,
    TwoStageSolution,
    check_feasible,
    evaluate_objective,
    monte_carlo_cost,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .lp_builders import (
    FractionalCoverSolution,
    FractionalUflSolution,
    build_cover_lp,
    build_deterministic_ufl_lp,
    build_steiner_flow_lp,
    build_ufl_lp,
    lp_lower_bound,
    solve_cover_lp,
    solve_ufl_lp,
)
from .oracle import OracleResult, best_completion, brute_force_optimal
from .cover import (
    HalfMassReport,
    RecoursePlan,
    buy_all_reserved_reduction,
    classify_heavy,
    double_randomized_round,
    half_mass_inflation_bound,
    preprocess_half,
    round_for_cover,
    srinivasan_round_set_cover,
    srinivasan_round_vertex_cover,
    threshold_recourse_cover,
    threshold_round_vertex_cover,
)
from .ufl import (
    ClusterPlan,
    NeighborhoodProfile,
    UflCostBreakdown,
    UflPlan,
    classify_pairs,
    clustered_approx_factor,
    cs_round_deterministic_ufl,
    deterministic_ufl_approx,
    evaluate_ufl_cost,
    make_complete,
    round_5approx,
    round_improved,
    split_assignment,
    swamy_filter,
)
from .steiner import (
    CostShareLedger,
    SamplingPlan,
    ignore_revocation_steiner,
    mst_recourse_steiner,
    mst_steiner_approx,
    prim_cost_shares,
    sampling_heuristic,
)
from .saa import InnerSolverError, SaaConfig, SaaResult, repeating_saa, saa_build
from .generators import generate_instance
from .bench import ExperimentSpec, run_algorithm, run_experiment

__version__ = "0.1.0"
