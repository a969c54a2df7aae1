"""The three benchmark workloads: their corpus, their op and their checks.

A workload turns (seed, op index) into one op input, runs the op through the
package's public calls, keeps a compact record of the output, and checks
that record afterwards.  Inputs depend only on the seed and the op index, so
the same seed gives the same inputs however many ops a run completes.

Each corpus cycles through a fixed ladder of slots (kind and sizes) and
draws only the contents of each slot from the seed.  That keeps the mix of
op sizes the same from seed to seed, so per-op percentiles compare across
seeds.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from twostage import cli, instances, lp, lp_builders, model, oracle, saa
from twostage.generators import generate_instance

REL_TOL = 1e-6
FEAS_TOL = 1e-7


# ---------------------------------------------------------------------------
# fractional families, built from the public constructors


def odd_cycle_vertex_cover(rng: np.random.Generator, n: int, k: int):
    """Vertex cover on an odd cycle with equal weights.

    Scenario 0 demands every edge, so its relaxation puts 1/2 on every
    vertex while any integral cover needs (n + 1) / 2 of them.
    """
    edges = tuple(tuple(sorted((v, (v + 1) % n))) for v in range(n))
    w = round(float(rng.uniform(1.0, 10.0)), 2)
    sigma = float(rng.uniform(0.3, 0.7))
    lam = float(rng.uniform(1.5, 3.0))
    pairs = [(float(rng.uniform(0.2, 1.0)), range(n))]
    for _ in range(k - 1):
        members = [e for e in range(n) if rng.random() < 0.7] or [int(rng.integers(n))]
        pairs.append((float(rng.uniform(0.2, 1.0)), members))
    total = math.fsum(p for p, _ in pairs)
    return instances.VertexCoverInstance(
        n,
        edges,
        (w,) * n,
        model.CostPolicy(sigma, lam, {v: w for v in range(n)}),
        model.ScenarioSet.explicit([(p / total, c) for p, c in pairs]),
    )


def odd_cycle_ufl(rng: np.random.Generator, n: int, k: int):
    """Facility location on an odd facility/client cycle.

    Facility i sits at position 2i and client j at 2j + 1 of a 2n-cycle;
    distances are hop counts, so every client has two facilities at
    distance 1.  With n = 3 this is the metric 3-cycle gadget whose
    relaxation splits opening mass half/half.
    """
    scale = float(rng.uniform(0.5, 2.0))
    dist = tuple(
        tuple(scale * min(abs(2 * i - 2 * j - 1), 2 * n - abs(2 * i - 2 * j - 1)) for j in range(n))
        for i in range(n)
    )
    f0 = 2.0 * scale * float(rng.uniform(0.8, 1.2))
    pairs = [(float(rng.uniform(0.2, 1.0)), range(n))]
    for _ in range(k - 1):
        members = [j for j in range(n) if rng.random() < 0.6] or [int(rng.integers(n))]
        pairs.append((float(rng.uniform(0.2, 1.0)), members))
    total = math.fsum(p for p, _ in pairs)
    return instances.UflInstance(
        open_cost=(f0,) * n,
        scenario_open_cost=tuple((f0 * float(rng.uniform(1.5, 2.5)),) * n for _ in pairs),
        distance=dist,
        sigma=float(rng.uniform(0.3, 0.7)),
        scenarios=model.ScenarioSet.explicit([(p / total, c) for p, c in pairs]),
    )


FAMILIES = {"odd_cycle_vc": odd_cycle_vertex_cover, "odd_cycle_ufl": odd_cycle_ufl}


def make_instance(rng: np.random.Generator, family: str, sizes: dict):
    """One instance of a generator kind or a fractional family.

    ``sizes`` fixes the size parameters; sigma and lambda and everything
    else come from ``rng``.
    """
    params = dict(sizes)
    if family in FAMILIES:
        return FAMILIES[family](rng, **params)
    params["sigma"] = float(rng.uniform(0.3, 0.7))
    params["lam"] = float(rng.uniform(1.5, 3.0))
    return generate_instance(family, seed=int(rng.integers(2**31)), **params)


# ---------------------------------------------------------------------------
# checks shared by the workloads


def highs_solve(prog):
    """Optimal value and point of a LinearProgram by scipy's HiGHS, or
    (None, None) if it finds no optimum."""
    from scipy.optimize import linprog

    a, b = prog.rows, prog.rhs
    senses = np.array(prog.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "=="
    a_ub = np.vstack([a[le], -a[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    res = linprog(
        prog.objective,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if a_ub.size else None,
        A_eq=a[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=[(lo, None) for lo in prog.lower_bounds],
        method="highs",
    )
    return (float(res.fun), res.x) if res.status == 0 else (None, None)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_lp(prog, status: str, x, y, value: float, dual_value: float) -> list[str]:
    """Primal and dual certificates of one solve, and agreement with HiGHS."""
    if status != "optimal":
        return [f"solve_lp returned {status}"]
    fails = []
    resid = prog.rows @ x - prog.rhs
    senses = np.array(prog.senses)
    tol = FEAS_TOL * (1.0 + np.abs(prog.rhs))
    if (
        np.any(resid[senses == ">="] < -tol[senses == ">="])
        or np.any(resid[senses == "<="] > tol[senses == "<="])
        or np.any(np.abs(resid[senses == "=="]) > tol[senses == "=="])
        or np.any(x < prog.lower_bounds - FEAS_TOL)
    ):
        fails.append("primal solution violates a row or a bound")
    if np.any(y[senses == ">="] < -FEAS_TOL) or np.any(y[senses == "<="] > FEAS_TOL):
        fails.append("dual has the wrong sign on an inequality row")
    if np.any(prog.objective - prog.rows.T @ y < -REL_TOL * (1.0 + np.abs(prog.objective))):
        fails.append("dual violates a reduced-cost sign")
    dual_obj = float(y @ (prog.rhs - prog.rows @ prog.lower_bounds) + prog.objective @ prog.lower_bounds)
    if not (close(dual_obj, value) and close(dual_value, value)):
        fails.append(f"dual objective {dual_obj!r} / {dual_value!r} != primal {value!r}")
    ref, _ = highs_solve(prog)
    if ref is None or not close(value, ref):
        fails.append(f"objective {value!r} disagrees with HiGHS {ref!r}")
    return fails


def is_fractional(x) -> bool:
    return bool(np.any(np.abs(x - np.round(x)) > 1e-6))


def lp_traffic(prog, fractional: bool) -> dict:
    """Size and density of one relaxation, for the per-layer report."""
    rows, cols = prog.rows.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": rows * cols,
        "nnz": int(np.count_nonzero(prog.rows)),
        "fractional": fractional,
    }


# ---------------------------------------------------------------------------
# workload plumbing


@dataclass
class Workload:
    """Corpus, op and checks of one workload.

    ``make(rng, i)`` builds op i's input; ``run(inp)`` is the timed op and
    returns a compact record; ``check(inp, rec)`` lists failed checks and
    describes the op's relaxation (``lp_traffic``), or gives None for an op
    that solves none; ``same(a, b)`` says whether two records of one input
    agree (traced against untraced).
    """

    name: str
    make: Callable[[np.random.Generator, int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[list[str], dict | None]]
    same: Callable[[Any, Any], bool]
    seed: int

    def __post_init__(self) -> None:
        self._inputs: dict[int, Any] = {}

    def _make(self, i: int):
        return self.make(np.random.default_rng([self.seed, i]), i)

    def prepare(self, n: int) -> None:
        """Build the first n inputs ahead of time: the corpus part of set-up."""
        for i in range(n):
            self._inputs[i] = self._make(i)

    def input(self, i: int):
        """Op i's input.  Each is handed out once and not kept, so the
        benchmark's own memory does not grow with the number of ops."""
        return self._inputs.pop(i) if i in self._inputs else self._make(i)


# ---------------------------------------------------------------------------
# relax: build_relaxation then solve_lp, on a new instance every op

# Sizes chosen for roughly 80-350 relaxation rows; three sizes per kind so
# that small, typical and large LPs all recur in every stretch of ops.  The
# sizes are fixed per slot because drawing them widens the spread of op
# times between seeds.
RELAX_LADDER = (
    ("set_cover", {"n_elements": 12, "n_sets": 16, "scenarios": 4}),
    ("vertex_cover", {"n_vertices": 12, "n_edges": 24, "scenarios": 4}),
    ("ufl", {"n_facilities": 5, "n_clients": 9, "scenarios": 3}),
    ("steiner", {"n_vertices": 6, "scenarios": 3}),
    ("odd_cycle_vc", {"n": 15, "k": 4}),
    ("set_cover", {"n_elements": 15, "n_sets": 19, "scenarios": 5}),
    ("vertex_cover", {"n_vertices": 15, "n_edges": 30, "scenarios": 5}),
    ("ufl", {"n_facilities": 6, "n_clients": 10, "scenarios": 4}),
    ("steiner", {"n_vertices": 7, "scenarios": 3}),
    ("odd_cycle_ufl", {"n": 5, "k": 4}),
    ("set_cover", {"n_elements": 17, "n_sets": 21, "scenarios": 5}),
    ("vertex_cover", {"n_vertices": 17, "n_edges": 34, "scenarios": 5}),
    ("ufl", {"n_facilities": 7, "n_clients": 11, "scenarios": 4}),
    ("steiner", {"n_vertices": 7, "scenarios": 4}),
    ("odd_cycle_vc", {"n": 21, "k": 5}),
    ("odd_cycle_ufl", {"n": 7, "k": 4}),
)


def _relax_make(rng, i):
    family, sizes = RELAX_LADDER[i % len(RELAX_LADDER)]
    return make_instance(rng, family, sizes)


def _relax_run(inst):
    prog = lp_builders.build_relaxation(inst)
    sol, dual = lp.solve_lp(prog)
    return (
        sol.status,
        sol.values,
        sol.objective_value,
        None if dual is None else dual.values,
        None if dual is None else dual.objective_value,
    )


def _relax_check(inst, rec):
    status, x, value, y, dual_value = rec
    prog = lp_builders.build_relaxation(inst)
    fails = check_lp(prog, status, x, y, value, dual_value)
    return fails, lp_traffic(prog, x is not None and is_fractional(x))


def _relax_same(a, b):
    return a[0] == b[0] and a[2] == b[2]


def relax(seed: int, work_dir: Path) -> Workload:
    return Workload("relax", _relax_make, _relax_run, _relax_check, _relax_same, seed)


# ---------------------------------------------------------------------------
# table: one in-process `twostage bench --spec FILE` per op

# Every registered algorithm on a generated instance of its kind, then the
# cover and facility roundings again on a fractional family, so that the
# roundings do not only round integral relaxations.  All sizes stay within
# the oracle's reach, so every row carries the exact optimum.
TABLE_LADDER = (
    ("double", "set_cover", {"n_elements": 8, "n_sets": 8, "scenarios": 3}),
    ("threshold", "vertex_cover", {"n_vertices": 8, "n_edges": 12, "scenarios": 3}),
    ("srini-sc", "set_cover", {"n_elements": 8, "n_sets": 8, "scenarios": 3}),
    ("srini-vc", "vertex_cover", {"n_vertices": 8, "n_edges": 12, "scenarios": 3}),
    ("buyall", "vertex_cover", {"n_vertices": 8, "n_edges": 12, "scenarios": 3}),
    ("ufl5", "ufl", {"n_facilities": 5, "n_clients": 6, "scenarios": 3}),
    ("ufl-improved", "ufl", {"n_facilities": 5, "n_clients": 6, "scenarios": 3}),
    ("steiner-sample", "steiner", {"n_vertices": 6, "n_edges": 8, "scenarios": 3}),
    ("steiner-buyall", "steiner", {"n_vertices": 6, "n_edges": 8, "scenarios": 3}),
    ("double", "odd_cycle_vc", {"n": 9, "k": 3}),
    ("threshold", "odd_cycle_vc", {"n": 9, "k": 3}),
    ("srini-vc", "odd_cycle_vc", {"n": 9, "k": 3}),
    ("buyall", "odd_cycle_vc", {"n": 9, "k": 3}),
    ("ufl5", "odd_cycle_ufl", {"n": 3, "k": 4}),
    ("ufl-improved", "odd_cycle_ufl", {"n": 3, "k": 4}),
)
TABLE_TRIALS = 3


@dataclass(frozen=True)
class TableInput:
    spec_path: str
    spec: dict
    instance_path: str | None


def _table_make(work_dir: Path):
    def make(rng, i):
        algorithm, family, sizes = TABLE_LADDER[i % len(TABLE_LADDER)]
        work_dir.mkdir(parents=True, exist_ok=True)
        spec = {"algorithm": algorithm, "trials": TABLE_TRIALS, "seed": int(rng.integers(1000))}
        instance_path = None
        if family in FAMILIES:
            instance_path = str(work_dir / f"inst{i:05d}.json")
            instances.save_instance(make_instance(rng, family, sizes), instance_path)
            spec["instance"] = instance_path
        else:
            spec["instance"] = family
            spec["gen_seed"] = int(rng.integers(2**31))
            spec["gen_params"] = {
                **sizes, "sigma": float(rng.uniform(0.3, 0.7)), "lam": float(rng.uniform(1.5, 3.0))
            }
        spec_path = str(work_dir / f"spec{i:05d}.json")
        Path(spec_path).write_text(json.dumps(spec))
        return TableInput(spec_path, spec, instance_path)

    return make


def _table_run(inp: TableInput):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["bench", "--spec", inp.spec_path, "--assert-bounds"])
    return code, out.getvalue(), err.getvalue()


def _table_instance(inp: TableInput):
    if inp.instance_path is not None:
        return instances.load_instance(inp.instance_path)
    return generate_instance(inp.spec["instance"], seed=inp.spec["gen_seed"], **inp.spec["gen_params"])


def _table_check(inp: TableInput, rec):
    """Checks of the op's rows.  The output holds no LP solution, so the
    traffic record's fractional flag is that of the HiGHS optimum."""
    code, text, err = rec
    if code != 0:
        # --assert-bounds: 2 means an infeasible row, 3 a violated bound
        return [f"bench exited {code}: {err.strip()}"], None
    rows = [r for r in csv.DictReader(io.StringIO(text)) if not r["instance_id"].startswith("summary:")]
    if len(rows) != TABLE_TRIALS:
        return [f"expected {TABLE_TRIALS} rows, got {len(rows)}"], None
    fails = []
    prog = lp_builders.build_relaxation(_table_instance(inp))
    ref, x = highs_solve(prog)
    for r in rows:
        if r["feasible"] != "1":
            fails.append(f"seed {r['seed']}: infeasible row")
        if not r["oracle_opt"]:
            fails.append(f"seed {r['seed']}: no exact optimum on an oracle-sized instance")
            continue
        lp_opt, opt, cost = float(r["lp_opt"]), float(r["oracle_opt"]), float(r["cost"])
        slack = REL_TOL * max(1.0, abs(opt))
        if not (lp_opt <= opt + slack and opt <= cost + slack):
            fails.append(f"seed {r['seed']}: lp {lp_opt!r} <= exact {opt!r} <= cost {cost!r} fails")
        if ref is None or not close(lp_opt, ref):
            fails.append(f"seed {r['seed']}: lp_opt {lp_opt!r} disagrees with HiGHS {ref!r}")
    return fails, lp_traffic(prog, x is not None and is_fractional(x))


def _table_same(a, b):
    return a[:2] == b[:2]


def table(seed: int, work_dir: Path) -> Workload:
    return Workload("table", _table_make(work_dir), _table_run, _table_check, _table_same, seed)


# ---------------------------------------------------------------------------
# exact: the oracle on tiny instances, and SAA with the oracle inside

EXACT_LADDER = (
    ("set_cover", {"n_elements": 10, "n_sets": 11, "scenarios": 3}),
    ("vertex_cover", {"n_vertices": 10, "n_edges": 16, "scenarios": 3}),
    ("ufl", {"n_facilities": 11, "n_clients": 8, "scenarios": 3}),
    ("steiner", {"n_vertices": 7, "n_edges": 10, "scenarios": 3}),
    ("saa", {"n_elements": 8, "n_sets": 8, "scenarios": 5}),
)
SAA_REPS = 4
SAA_SAMPLES = 40


@dataclass(frozen=True)
class ExactInput:
    instance: Any
    config: saa.SaaConfig | None = None
    seed: int = 0


def _exact_make(rng, i):
    family, sizes = EXACT_LADDER[i % len(EXACT_LADDER)]
    if family != "saa":
        return ExactInput(make_instance(rng, family, sizes))
    # SAA sees the scenarios only through a sampler; at most six distinct
    # draws keep every empirical instance within the oracle's reach.
    inst = make_instance(rng, "set_cover", sizes)
    black_box = model.ScenarioSet.black_box_of(inst.scenarios)
    return ExactInput(
        instances.SetCoverInstance(inst.n_elements, inst.sets, inst.weights, inst.policy, black_box),
        saa.SaaConfig(0.5, 0.1, SAA_REPS, SAA_SAMPLES),
        int(rng.integers(2**31)),
    )


def exact_inner(inst):
    """SAA inner solver: the exact optimum of the empirical instance."""
    res = oracle.brute_force_optimal(inst)
    return res.optimal_solution.reserved, res.optimal_cost


def _exact_run(inp: ExactInput):
    if inp.config is None:
        return oracle.brute_force_optimal(inp.instance)
    return saa.repeating_saa(inp.instance, exact_inner, inp.config, seed=inp.seed)


def _exact_check(inp: ExactInput, rec):
    if inp.config is not None:
        est = rec.estimates
        fails = []
        if len(est) != inp.config.k_reps or len(rec.candidates) != inp.config.k_reps:
            fails.append(f"{len(est)} repetitions, expected {inp.config.k_reps}")
        elif rec.chosen_rep != min(range(len(est)), key=lambda r: (est[r], r)):
            fails.append(f"chose repetition {rec.chosen_rep}, estimates {est}")
        elif rec.chosen != rec.candidates[rec.chosen_rep]:
            fails.append("chosen set is not the chosen repetition's candidate")
        return fails, None
    inst = inp.instance
    fails = []
    sol = rec.optimal_solution
    if not model.check_feasible(sol, inst.scenarios, inst.covers_demand).feasible:
        fails.append("oracle solution is infeasible")
    _, completion = oracle.best_completion(inst, sol.reserved)
    if not close(completion, rec.optimal_cost, 1e-9):
        fails.append(f"oracle cost {rec.optimal_cost!r} != best completion {completion!r}")
    bound, _ = highs_solve(lp_builders.build_relaxation(inst))
    if bound is None or rec.optimal_cost < bound - REL_TOL * max(1.0, abs(bound)):
        fails.append(f"oracle cost {rec.optimal_cost!r} below the LP bound {bound!r}")
    return fails, None


def _exact_same(a, b):
    if isinstance(a, oracle.OracleResult):
        return a.optimal_cost == b.optimal_cost and a.nodes_explored == b.nodes_explored
    return a.estimates == b.estimates and a.chosen_rep == b.chosen_rep


def exact(seed: int, work_dir: Path) -> Workload:
    return Workload("exact", _exact_make, _exact_run, _exact_check, _exact_same, seed)


WORKLOADS = {"relax": relax, "table": table, "exact": exact}
