"""Approximation algorithms for two-stage planning with reservations.

Resources are reserved at a discount before the demand scenario is known,
then either exercised (paying the balance) or abandoned, with full-price
recourse purchases patching whatever is missing.  The package covers set
cover, vertex cover, facility location and rooted tree connection:
relaxations and roundings with proven factors, an exact oracle for tiny
instances, a sample-average reduction for black-box scenario models, and a
benchmarking CLI.

The package namespace holds what the README documents and what a
hand-built instance needs; everything else is imported from its module.
"""

from .instances import (
    InstanceError,
    MetricGraph,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
    load_instance,
    save_instance,
)
from .model import CostPolicy, ScenarioSet
from .lp_builders import lp_lower_bound
from .oracle import best_completion, brute_force_optimal
from .cover import half_mass_inflation_bound
from .ufl import clustered_approx_factor
from .saa import SaaConfig, repeating_saa, saa_build
from .generators import generate_instance
from .bench import ExperimentSpec, run_algorithm, run_experiment

__version__ = "0.1.0"
