"""Experiment orchestration: run registered roundings over instances and
emit ratio tables.

``ALGORITHMS`` is the one table that maps an algorithm name to code; the
CLI's ``round``, ``bench`` and ``saa`` all go through :func:`prepare`.
Every registered algorithm has one shape: prepare once, sample per seed.
Its prepare step reads the instance, the optimum of the instance's
relaxation and its knobs, and does every piece of seed-independent work
(deterministic schemes finish and price their plan there); it returns the
per-seed sample, which draws one plan and yields
``(cost, feasible, bound, basis, plan)``.  An experiment solves the
relaxation once, so that solve gives both ``lp_opt`` and the prepared state
every trial shares.

Trials are sampled one after another in the calling thread, in seed order,
which is the canonical (instance_id, algorithm, seed) order.  CSV
output holds only the deterministic columns; wall-clock timings of the
per-seed sample go to the JSON emission, keeping CSV reruns byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import cover as cover_mod
from . import steiner as steiner_mod
from . import ufl as ufl_mod
from .instances import (
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
    load_instance,
)
from .lp_builders import cover_solution_from_lp, solve_relaxation, ufl_solution_from_lp
from .model import TwoStageSolution, check_feasible, evaluate_objective
from .oracle import MAX_ITEMS, MAX_SCENARIOS, brute_force_optimal

__all__ = [
    "ALGORITHMS",
    "ExperimentSpec",
    "Prepared",
    "RunRow",
    "prepare",
    "run_algorithm",
    "run_experiment",
    "rows_to_csv",
    "rows_to_json",
]

CSV_COLUMNS = (
    "instance_id",
    "kind",
    "sigma",
    "lambda",
    "algorithm",
    "seed",
    "lp_opt",
    "oracle_opt",
    "cost",
    "ratio_vs_lp",
    "ratio_vs_oracle",
    "feasible",
)


@dataclass(frozen=True)
class RunRow:
    instance_id: str
    kind: str
    sigma: float
    lam: float
    algorithm: str
    seed: int
    lp_opt: float
    oracle_opt: float | None
    cost: float
    feasible: bool
    runtime_ms: float
    bound: float | None      # per-run certificate, None when only means are proven
    bound_basis: str         # "lp" or "oracle"

    @property
    def ratio_vs_lp(self) -> float | None:
        return self.cost / self.lp_opt if self.lp_opt > 0 else None

    @property
    def ratio_vs_oracle(self) -> float | None:
        if self.oracle_opt is None or self.oracle_opt <= 0:
            return None
        return self.cost / self.oracle_opt

    def bound_violated(self) -> bool:
        if self.bound is None:
            return False
        base = self.lp_opt if self.bound_basis == "lp" else self.oracle_opt
        if base is None:
            return False
        return self.cost > self.bound * base + 1e-9


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark: an instance source, an algorithm, and repeat count.

    ``instance`` is either a path to a saved instance or a generator kind;
    generator kinds draw fresh instances from ``gen_params`` and
    ``gen_seed``.  ``trials`` distinct algorithm seeds run per instance.
    """

    instance: str
    algorithm: str
    trials: int = 1
    seed: int = 0
    gen_seed: int = 0
    gen_params: dict = field(default_factory=dict)
    alg_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _entry(self.algorithm)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


# ---------------------------------------------------------------------------
# the algorithm registry
#
# Each entry maps (instance, relaxation optimum, **knobs) to the per-seed
# sample: seed -> (cost, feasible, bound, basis, plan), where plan is the
# drawn TwoStageSolution.  The knobs an entry reads are its keyword-only
# parameters.

_COVER_KINDS = (SetCoverInstance, VertexCoverInstance)


def _fixed(outcome):
    """The sample of a seed-independent plan, built and priced once."""
    return lambda seed: outcome


def _priced(inst, sol: TwoStageSolution, bound=None, basis="lp"):
    """The row outcome of a cover or tree plan."""
    cost = evaluate_objective(sol, inst.policy, inst.scenarios).total
    ok = check_feasible(sol, inst.scenarios, inst.covers_demand).feasible
    return cost, ok, bound, basis, sol


def _ufl_priced(inst, plan, bound):
    """The row outcome of a facility plan."""
    cost = ufl_mod.evaluate_ufl_cost(inst, plan).total
    ok = check_feasible(plan.solution, inst.scenarios, inst.covers_demand).feasible
    return cost, ok, bound, "lp", plan.solution


def _double(inst, relaxation):
    pre, report = cover_mod.preprocess_half(cover_solution_from_lp(inst, relaxation))
    sample = cover_mod._double_sampler(pre, report.heavy_elements)
    return lambda seed: _priced(inst, sample(seed))


def _threshold(inst, relaxation):
    pre, _ = cover_mod.preprocess_half(cover_solution_from_lp(inst, relaxation))
    bound = 4.0 * cover_mod.half_mass_inflation_bound(inst.policy.sigma, inst.policy.lam)
    return _fixed(_priced(inst, cover_mod.threshold_round_vertex_cover(pre), bound))


def _srini_sc(inst, relaxation, *, psi=None):
    sol = cover_solution_from_lp(inst, relaxation)
    return lambda seed: _priced(inst, cover_mod.srinivasan_round_set_cover(sol, psi, seed))


def _srini_vc(inst, relaxation):
    sol = cover_solution_from_lp(inst, relaxation)
    return lambda seed: _priced(inst, cover_mod.srinivasan_round_vertex_cover(sol, seed))


def _buyall(inst, relaxation):
    stats: dict = {}
    plan = cover_mod.buy_all_reserved_reduction(cover_mod.threshold_recourse_cover, inst, stats)
    return _fixed(_priced(inst, plan, stats["factor"], "oracle"))


def _ufl5(inst, relaxation, *, alpha=ufl_mod.ALPHA_DEFAULT, beta=ufl_mod.BETA_DEFAULT):
    plan = ufl_mod.round_5approx(ufl_solution_from_lp(inst, relaxation), alpha=alpha, beta=beta)
    return _fixed(_ufl_priced(inst, plan, 5.0))


def _ufl_improved(inst, relaxation, *, theta=ufl_mod.THETA_DEFAULT, gamma=ufl_mod.GAMMA_DEFAULT):
    sol = ufl_solution_from_lp(inst, relaxation)
    prep = ufl_mod.prepare_improved(sol, theta=theta, gamma=gamma)
    return lambda seed: _ufl_priced(inst, ufl_mod.sample_improved(prep, seed), None)


def _steiner_sample(inst, relaxation):
    sigma = inst.policy.sigma
    bound = 4.0 + 2.0 * (1.0 - sigma) / sigma

    def sample(seed):
        plan = steiner_mod.sampling_heuristic(inst.graph, inst.policy, inst.scenarios, seed=seed)
        return _priced(inst, plan.solution_for(inst.scenarios), bound, "oracle")

    return sample


def _steiner_buyall(inst, relaxation):
    stats: dict = {}
    sol = steiner_mod.ignore_revocation_steiner(inst, stats=stats)
    return _fixed(_priced(inst, sol, stats["factor"], "oracle"))


ALGORITHMS = {
    "double": (_double, _COVER_KINDS),
    "threshold": (_threshold, (VertexCoverInstance,)),
    "srini-sc": (_srini_sc, (SetCoverInstance,)),
    "srini-vc": (_srini_vc, (VertexCoverInstance,)),
    "buyall": (_buyall, _COVER_KINDS),
    "ufl5": (_ufl5, (UflInstance,)),
    "ufl-improved": (_ufl_improved, (UflInstance,)),
    "steiner-sample": (_steiner_sample, (SteinerInstance,)),
    "steiner-buyall": (_steiner_buyall, (SteinerInstance,)),
}


def _entry(algorithm: str):
    """The registry entry of a name; an unknown name is a ValueError."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"registered: {', '.join(sorted(ALGORITHMS))}"
        )
    return ALGORITHMS[algorithm]


@dataclass(frozen=True)
class Prepared:
    """One algorithm prepared on one instance: the relaxation value and the
    per-seed sample, seed -> (cost, feasible, bound, basis, plan)."""

    lp_opt: float
    sample: Callable[[int], tuple]


def _checked_build(inst, algorithm: str, params: dict):
    """The build of a registered algorithm that applies to the instance's
    kind and reads every knob in ``params``; anything else is a ValueError."""
    build, kinds = _entry(algorithm)
    if not isinstance(inst, kinds):
        raise ValueError(f"algorithm {algorithm!r} does not apply to {inst.kind!r}")
    knobs = build.__kwdefaults__ or {}
    unread = sorted(set(params) - set(knobs))
    if unread:
        raise ValueError(
            f"algorithm {algorithm!r} reads no knob {', '.join(unread)}; "
            f"its knobs: {', '.join(sorted(knobs)) or 'none'}"
        )
    return build


def prepare(inst, algorithm: str, alg_params: dict | None = None) -> Prepared:
    """Solve the relaxation and run the seed-independent part of an
    algorithm, once.  ``alg_params`` holds the algorithm's knobs; a knob it
    does not read is a ValueError."""
    params = alg_params or {}
    build = _checked_build(inst, algorithm, params)
    relaxation = solve_relaxation(inst)
    return Prepared(relaxation.objective_value, build(inst, relaxation, **params))


def _oracle_opt(inst) -> float | None:
    """The exact optimum, or None beyond the oracle's reach."""
    if inst.n_items > MAX_ITEMS or len(inst.scenarios.scenarios) > MAX_SCENARIOS:
        return None
    return brute_force_optimal(inst).optimal_cost


def _row(inst, instance_id, algorithm, seed, prepared: Prepared, oracle_opt) -> RunRow:
    """One row from a prepared algorithm; ``runtime_ms`` times the per-seed
    sample only."""
    start = time.perf_counter()
    cost, feasible, bound, basis, _ = prepared.sample(seed)
    elapsed = (time.perf_counter() - start) * 1000.0
    sigma = inst.policy.sigma if hasattr(inst, "policy") else inst.sigma
    lam = inst.policy.lam if hasattr(inst, "policy") else inst.lam
    return RunRow(
        instance_id, inst.kind, sigma, lam, algorithm, seed, prepared.lp_opt, oracle_opt,
        cost, feasible, elapsed, bound, basis,
    )


def run_algorithm(
    inst, instance_id: str, algorithm: str, seed: int, alg_params: dict | None = None
) -> RunRow:
    """One row: run the algorithm and compare against the relaxation and,
    when the instance is small enough, the exact optimum."""
    prepared = prepare(inst, algorithm, alg_params)
    return _row(inst, instance_id, algorithm, seed, prepared, _oracle_opt(inst))


def worker_count() -> int:
    """Always 1: trials run in the calling thread.  Kept only until
    benchmark v2 (ROADMAP item 2) stops reporting it as ``bench.workers``."""
    return 1


def run_experiment(spec: ExperimentSpec) -> list[RunRow]:
    """All trials of a spec, in canonical row order (one instance and one
    algorithm, so seed order)."""
    from .generators import GENERATOR_KINDS, generate_instance

    if spec.instance in GENERATOR_KINDS:
        inst = generate_instance(spec.instance, seed=spec.gen_seed, **spec.gen_params)
        instance_id = f"{spec.instance}-s{spec.gen_seed}"
    else:
        inst = load_instance(spec.instance)
        instance_id = Path(spec.instance).stem
    prepared = prepare(inst, spec.algorithm, spec.alg_params)
    oracle_opt = _oracle_opt(inst)
    return [
        _row(inst, instance_id, spec.algorithm, spec.seed + t, prepared, oracle_opt)
        for t in range(spec.trials)
    ]


# ---------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def _row_cells(row: RunRow) -> dict:
    return {
        "instance_id": row.instance_id,
        "kind": row.kind,
        "sigma": row.sigma,
        "lambda": row.lam,
        "algorithm": row.algorithm,
        "seed": row.seed,
        "lp_opt": row.lp_opt,
        "oracle_opt": row.oracle_opt,
        "cost": row.cost,
        "ratio_vs_lp": row.ratio_vs_lp,
        "ratio_vs_oracle": row.ratio_vs_oracle,
        "feasible": row.feasible,
    }


def _summary_rows(rows: list[RunRow]) -> list[dict]:
    lp_ratios = [r.ratio_vs_lp for r in rows if r.ratio_vs_lp is not None]
    or_ratios = [r.ratio_vs_oracle for r in rows if r.ratio_vs_oracle is not None]
    out = []
    for tag, agg in (("summary:mean", np.mean), ("summary:max", np.max)):
        out.append(
            {
                "instance_id": tag,
                "kind": "",
                "sigma": None,
                "lambda": None,
                "algorithm": "",
                "seed": None,
                "lp_opt": None,
                "oracle_opt": None,
                "cost": None,
                "ratio_vs_lp": float(agg(lp_ratios)) if lp_ratios else None,
                "ratio_vs_oracle": float(agg(or_ratios)) if or_ratios else None,
                "feasible": None,
            }
        )
    return out


def rows_to_csv(rows: list[RunRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for cells in [_row_cells(r) for r in rows] + _summary_rows(rows):
        lines.append(",".join(_fmt(cells[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[RunRow]) -> str:
    payload = {
        "rows": [
            {**_row_cells(r), "feasible": int(r.feasible), "runtime_ms": r.runtime_ms}
            for r in rows
        ],
        "summary": _summary_rows(rows),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
