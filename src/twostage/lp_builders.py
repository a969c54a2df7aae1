"""Linear relaxations of the covering, facility-location, and tree problems.

Each builder returns a `LinearProgram` with a fixed, documented column
layout plus an extractor that turns an optimal solution back into dense
arrays the rounding code consumes.  Stage-1 variables carry the reservation
price, exercise variables the remainder, and recourse variables the full
late price, each weighted by scenario probability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import (
    InstanceError,
    MetricGraph,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
)
from .lp import DualSolution, LinearProgram, LpSolution, solve_lp

__all__ = [
    "FractionalCoverSolution",
    "FractionalUflSolution",
    "build_cover_lp",
    "build_ufl_lp",
    "build_deterministic_ufl_lp",
    "build_steiner_flow_lp",
    "solve_cover_lp",
    "solve_ufl_lp",
    "build_relaxation",
    "solve_relaxation",
    "cover_solution_from_lp",
    "ufl_solution_from_lp",
    "lp_lower_bound",
]

CoverInstance = SetCoverInstance | VertexCoverInstance


@dataclass(frozen=True)
class FractionalCoverSolution:
    """Fractional reservation plan for a covering instance.

    x[s] is the reserved mass on item s, y[k, s] the exercised mass and
    z[k, s] the recourse mass in scenario k.
    """

    instance: CoverInstance
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    value: float

    def __post_init__(self) -> None:
        k = len(self.instance.scenarios)
        n = self.instance.n_items
        if self.x.shape != (n,) or self.y.shape != (k, n) or self.z.shape != (k, n):
            raise ValueError("solution arrays do not match the instance")
        if np.any(self.y > self.x + 1e-9):
            raise InstanceError("exercised mass exceeds reserved mass")
        for i, (_, clients) in enumerate(self.instance.scenarios.scenarios):
            for e in clients:
                items = list(self.instance.covering_items(e))
                if self.y[i, items].sum() + self.z[i, items].sum() < 1.0 - 1e-7:
                    raise InstanceError(
                        f"element {e} undercovered in scenario {i}"
                    )

    def mass(self, k: int, element: int) -> tuple[float, float]:
        """(exercised, recourse) mass landing on one demanded element."""
        items = list(self.instance.covering_items(element))
        return float(self.y[k, items].sum()), float(self.z[k, items].sum())


@dataclass(frozen=True)
class FractionalUflSolution:
    """Fractional plan for stochastic facility location.

    y0[i]: reserved mass on facility i.  yk[k, i]: exercised mass in
    scenario k.  zk[k, i]: recourse mass.  x[k, j, i]: how much client j is
    served by facility i in scenario k (zero for absent clients).
    """

    instance: UflInstance
    y0: np.ndarray
    yk: np.ndarray
    zk: np.ndarray
    x: np.ndarray
    value: float

    def __post_init__(self) -> None:
        if np.any(self.yk > self.y0[None, :] + 1e-9):
            raise InstanceError("scenario opening mass exceeds reserved mass")
        if np.any(self.x > self.yk[:, None, :] + self.zk[:, None, :] + 1e-7):
            raise InstanceError("service mass exceeds opened mass")
        for k, (_, clients) in enumerate(self.instance.scenarios.scenarios):
            for j in clients:
                if self.x[k, j].sum() < 1.0 - 1e-7:
                    raise InstanceError(f"client {j} underserved in scenario {k}")


def _scenario_rows(inst: CoverInstance) -> list[tuple[int, int, tuple[int, ...]]]:
    """(scenario, element, items covering it) for every demanded element."""
    out = []
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        for e in sorted(clients):
            items = inst.covering_items(e)
            if not items:
                raise InstanceError(f"element {e} of scenario {k} is uncoverable")
            out.append((k, e, items))
    return out


def build_cover_lp(inst: CoverInstance) -> LinearProgram:
    """Fractional two-stage covering relaxation.

    Columns: x[s] for every item, then for each scenario the blocks
    y[k,s] and z[k,s].  Rows: one coverage row per demanded element and
    one link row y[k,s] <= x[s] per scenario/item pair.
    """
    n = inst.n_items
    big_k = len(inst.scenarios.scenarios)
    sigma = inst.policy.sigma
    lam = inst.policy.lam
    w = np.array([inst.weights[s] for s in range(n)], dtype=float)
    probs = np.array([p for p, _ in inst.scenarios.scenarios])

    def y_col(k: int, s: int) -> int:
        return n + 2 * k * n + s

    def z_col(k: int, s: int) -> int:
        return n + 2 * k * n + n + s

    n_vars = n + 2 * big_k * n
    obj = np.zeros(n_vars)
    obj[:n] = sigma * w
    for k in range(big_k):
        obj[y_col(k, 0) : y_col(k, 0) + n] = probs[k] * (1.0 - sigma) * w
        obj[z_col(k, 0) : z_col(k, 0) + n] = probs[k] * lam * w

    cover_rows = _scenario_rows(inst)
    n_rows = len(cover_rows) + big_k * n
    rows = np.zeros((n_rows, n_vars))
    rhs = np.zeros(n_rows)
    senses: list[str] = []
    row_names: list[str] = []
    r = 0
    for k, e, items in cover_rows:
        for s in items:
            rows[r, y_col(k, s)] = 1.0
            rows[r, z_col(k, s)] = 1.0
        rhs[r] = 1.0
        senses.append(">=")
        row_names.append(f"cover[{k},{e}]")
        r += 1
    for k in range(big_k):
        for s in range(n):
            rows[r, y_col(k, s)] = 1.0
            rows[r, s] = -1.0
            senses.append("<=")
            row_names.append(f"link[{k},{s}]")
            r += 1

    names = [f"x[{s}]" for s in range(n)]
    for k in range(big_k):
        names += [f"y[{k},{s}]" for s in range(n)]
        names += [f"z[{k},{s}]" for s in range(n)]
    return LinearProgram(obj, rows, tuple(senses), rhs, None, tuple(names), tuple(row_names))


def cover_solution_from_lp(inst: CoverInstance, sol: LpSolution) -> FractionalCoverSolution:
    n = inst.n_items
    big_k = len(inst.scenarios.scenarios)
    v = sol.values
    x = v[:n].copy()
    y = np.zeros((big_k, n))
    z = np.zeros((big_k, n))
    for k in range(big_k):
        base = n + 2 * k * n
        y[k] = v[base : base + n]
        z[k] = v[base + n : base + 2 * n]
    return FractionalCoverSolution(inst, x, y, z, sol.objective_value)


def solve_cover_lp(inst: CoverInstance) -> FractionalCoverSolution:
    lp = build_cover_lp(inst)
    sol, _ = solve_lp(lp)
    if sol.status != "optimal":
        raise InstanceError(f"covering relaxation came back {sol.status}")
    return cover_solution_from_lp(inst, sol)


def _ufl_layout(inst: UflInstance) -> tuple[int, list[tuple[int, int]], dict[tuple[int, int], int]]:
    """Column layout: y0 block, y block, z block, then x columns for
    demanded (scenario, client) pairs only."""
    n_i = inst.n_facilities
    big_k = len(inst.scenarios.scenarios)
    demanded = [
        (k, j)
        for k, (_, clients) in enumerate(inst.scenarios.scenarios)
        for j in sorted(clients)
    ]
    x_base = n_i + 2 * big_k * n_i
    x_offset = {pair: x_base + t * n_i for t, pair in enumerate(demanded)}
    n_vars = x_base + len(demanded) * n_i
    return n_vars, demanded, x_offset


def build_ufl_lp(inst: UflInstance) -> LinearProgram:
    """Stochastic facility-location relaxation.

    Reserved facilities cost sigma*f0, exercising costs the remaining
    (1-sigma)*f0 in the realized scenario, recourse opening costs the
    scenario's own price fk.  Service rows demand one unit per present
    client; x[k,j,i] is capped by yk[k,i] + zk[k,i].
    """
    n_i = inst.n_facilities
    big_k = len(inst.scenarios.scenarios)
    sigma = inst.sigma
    f0 = np.asarray(inst.open_cost, dtype=float)
    fk = np.asarray(inst.scenario_open_cost, dtype=float)
    dist = inst.dist
    probs = np.array([p for p, _ in inst.scenarios.scenarios])
    n_vars, demanded, x_offset = _ufl_layout(inst)

    def y_col(k: int, i: int) -> int:
        return n_i + 2 * k * n_i + i

    def z_col(k: int, i: int) -> int:
        return n_i + 2 * k * n_i + n_i + i

    obj = np.zeros(n_vars)
    obj[:n_i] = sigma * f0
    for k in range(big_k):
        obj[y_col(k, 0) : y_col(k, 0) + n_i] = probs[k] * (1.0 - sigma) * f0
        obj[z_col(k, 0) : z_col(k, 0) + n_i] = probs[k] * fk[k]
    for (k, j), base in x_offset.items():
        obj[base : base + n_i] = probs[k] * dist[:, j]

    n_rows = len(demanded) + big_k * n_i + len(demanded) * n_i
    rows = np.zeros((n_rows, n_vars))
    rhs = np.zeros(n_rows)
    senses: list[str] = []
    row_names: list[str] = []
    r = 0
    for k, j in demanded:
        base = x_offset[(k, j)]
        rows[r, base : base + n_i] = 1.0
        rhs[r] = 1.0
        senses.append(">=")
        row_names.append(f"serve[{k},{j}]")
        r += 1
    for k in range(big_k):
        for i in range(n_i):
            rows[r, y_col(k, i)] = 1.0
            rows[r, i] = -1.0
            senses.append("<=")
            row_names.append(f"open[{k},{i}]")
            r += 1
    for k, j in demanded:
        base = x_offset[(k, j)]
        for i in range(n_i):
            rows[r, base + i] = 1.0
            rows[r, y_col(k, i)] = -1.0
            rows[r, z_col(k, i)] = -1.0
            senses.append("<=")
            row_names.append(f"route[{k},{j},{i}]")
            r += 1

    names = [f"y0[{i}]" for i in range(n_i)]
    for k in range(big_k):
        names += [f"y[{k},{i}]" for i in range(n_i)]
        names += [f"z[{k},{i}]" for i in range(n_i)]
    for k, j in demanded:
        names += [f"x[{k},{j},{i}]" for i in range(n_i)]
    return LinearProgram(obj, rows, tuple(senses), rhs, None, tuple(names), tuple(row_names))


def ufl_solution_from_lp(inst: UflInstance, sol: LpSolution) -> FractionalUflSolution:
    n_i = inst.n_facilities
    n_j = inst.n_clients
    big_k = len(inst.scenarios.scenarios)
    v = sol.values
    _, demanded, x_offset = _ufl_layout(inst)
    y0 = v[:n_i].copy()
    yk = np.zeros((big_k, n_i))
    zk = np.zeros((big_k, n_i))
    for k in range(big_k):
        base = n_i + 2 * k * n_i
        yk[k] = v[base : base + n_i]
        zk[k] = v[base + n_i : base + 2 * n_i]
    x = np.zeros((big_k, n_j, n_i))
    for (k, j), base in x_offset.items():
        x[k, j] = v[base : base + n_i]
    return FractionalUflSolution(inst, y0, yk, zk, x, sol.objective_value)


def solve_ufl_lp(inst: UflInstance) -> FractionalUflSolution:
    lp = build_ufl_lp(inst)
    sol, _ = solve_lp(lp)
    if sol.status != "optimal":
        raise InstanceError(f"facility relaxation came back {sol.status}")
    return ufl_solution_from_lp(inst, sol)


def build_deterministic_ufl_lp(
    open_cost: np.ndarray, distance: np.ndarray, clients: tuple[int, ...] | None = None
) -> LinearProgram:
    """Single-stage facility-location relaxation.

    Columns: y[i] for every facility, then x[j,i] per served client in the
    order given.  The duals of the serve rows are the per-client budgets
    the clustered rounding sorts on.
    """
    f = np.asarray(open_cost, dtype=float)
    dist = np.asarray(distance, dtype=float)
    n_i = f.size
    if clients is None:
        clients = tuple(range(dist.shape[1]))
    n_j = len(clients)
    n_vars = n_i + n_j * n_i
    obj = np.zeros(n_vars)
    obj[:n_i] = f
    for t, j in enumerate(clients):
        obj[n_i + t * n_i : n_i + (t + 1) * n_i] = dist[:, j]
    n_rows = n_j + n_j * n_i
    rows = np.zeros((n_rows, n_vars))
    rhs = np.zeros(n_rows)
    senses: list[str] = []
    row_names: list[str] = []
    for t, j in enumerate(clients):
        rows[t, n_i + t * n_i : n_i + (t + 1) * n_i] = 1.0
        rhs[t] = 1.0
        senses.append(">=")
        row_names.append(f"serve[{j}]")
    r = n_j
    for t, j in enumerate(clients):
        for i in range(n_i):
            rows[r, n_i + t * n_i + i] = 1.0
            rows[r, i] = -1.0
            senses.append("<=")
            row_names.append(f"route[{j},{i}]")
            r += 1
    names = [f"y[{i}]" for i in range(n_i)]
    for j in clients:
        names += [f"x[{j},{i}]" for i in range(n_i)]
    return LinearProgram(obj, rows, tuple(senses), rhs, None, tuple(names), tuple(row_names))


def build_steiner_flow_lp(inst: SteinerInstance) -> LinearProgram:
    """Flow relaxation of the two-stage tree problem, used as a lower bound.

    One unit of flow must travel from the root to every demanded terminal
    over capacities yk + zk, where yk <= x0 is the exercised reservation.
    Any feasible integral plan embeds, so the optimum never exceeds it.
    """
    g: MetricGraph = inst.graph
    n_e = len(g.edges)
    big_k = len(inst.scenarios.scenarios)
    sigma = inst.policy.sigma
    lam = inst.policy.lam
    w = np.asarray(g.weights, dtype=float)
    probs = np.array([p for p, _ in inst.scenarios.scenarios])
    terminals = [sorted(t for t in clients if t != g.root) for _, clients in inst.scenarios.scenarios]

    def y_col(k: int, e: int) -> int:
        return n_e + 2 * k * n_e + e

    def z_col(k: int, e: int) -> int:
        return n_e + 2 * k * n_e + n_e + e

    flow_base = n_e + 2 * big_k * n_e
    flow_offset: dict[tuple[int, int], int] = {}
    col = flow_base
    for k in range(big_k):
        for t in terminals[k]:
            flow_offset[(k, t)] = col
            col += 2 * n_e  # forward then backward arc per edge
    n_vars = col

    obj = np.zeros(n_vars)
    obj[:n_e] = sigma * w
    for k in range(big_k):
        obj[y_col(k, 0) : y_col(k, 0) + n_e] = probs[k] * (1.0 - sigma) * w
        obj[z_col(k, 0) : z_col(k, 0) + n_e] = probs[k] * lam * w

    rows_list: list[np.ndarray] = []
    rhs_list: list[float] = []
    senses: list[str] = []
    row_names: list[str] = []

    for k in range(big_k):
        for e in range(n_e):
            row = np.zeros(n_vars)
            row[y_col(k, e)] = 1.0
            row[e] = -1.0
            rows_list.append(row)
            rhs_list.append(0.0)
            senses.append("<=")
            row_names.append(f"link[{k},{e}]")

    for (k, t), base in flow_offset.items():
        for v in range(g.n_vertices):
            row = np.zeros(n_vars)
            for e, (a, b) in enumerate(g.edges):
                if v == a:
                    row[base + 2 * e] += 1.0      # flow a->b leaves a
                    row[base + 2 * e + 1] -= 1.0  # flow b->a enters a
                elif v == b:
                    row[base + 2 * e] -= 1.0
                    row[base + 2 * e + 1] += 1.0
            if v == g.root:
                rhs_v = 1.0
            elif v == t:
                rhs_v = -1.0
            else:
                rhs_v = 0.0
            rows_list.append(row)
            rhs_list.append(rhs_v)
            senses.append("==")
            row_names.append(f"flow[{k},{t},{v}]")
        for e in range(n_e):
            row = np.zeros(n_vars)
            row[base + 2 * e] = 1.0
            row[base + 2 * e + 1] = 1.0
            row[y_col(k, e)] = -1.0
            row[z_col(k, e)] = -1.0
            rows_list.append(row)
            rhs_list.append(0.0)
            senses.append("<=")
            row_names.append(f"cap[{k},{t},{e}]")

    names = [f"x[{e}]" for e in range(n_e)]
    for k in range(big_k):
        names += [f"y[{k},{e}]" for e in range(n_e)]
        names += [f"z[{k},{e}]" for e in range(n_e)]
    for (k, t) in flow_offset:
        for e in range(n_e):
            names += [f"f[{k},{t},{e}+]", f"f[{k},{t},{e}-]"]
    rows = np.vstack(rows_list) if rows_list else np.zeros((0, n_vars))
    return LinearProgram(
        obj, rows, tuple(senses), np.array(rhs_list), None, tuple(names), tuple(row_names)
    )


def build_relaxation(inst) -> LinearProgram:
    """The natural relaxation for any supported instance kind."""
    if isinstance(inst, (SetCoverInstance, VertexCoverInstance)):
        return build_cover_lp(inst)
    if isinstance(inst, UflInstance):
        return build_ufl_lp(inst)
    if isinstance(inst, SteinerInstance):
        return build_steiner_flow_lp(inst)
    raise TypeError(f"unsupported instance {type(inst).__name__}")


def solve_relaxation(inst) -> LpSolution:
    """Optimum of the natural relaxation for any supported instance."""
    sol, _ = solve_lp(build_relaxation(inst))
    if sol.status != "optimal":
        raise InstanceError(f"relaxation came back {sol.status}")
    return sol


def lp_lower_bound(inst) -> float:
    """Optimal value of the natural relaxation for any supported instance."""
    return solve_relaxation(inst).objective_value
