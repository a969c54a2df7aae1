"""Linear relaxations of the covering, facility-location, and tree problems.

Every two-stage relaxation shares one stage layout over n items (sets,
vertices, facilities or edges) and K scenarios with probabilities p[k]:

- columns: the reservation x[s] (named y0[i] for facilities), then per
  scenario k the exercise block y[k,s] and the recourse block z[k,s]; a
  builder's own columns follow;
- objective: sigma*w on x, p[k]*(1-sigma)*w on y[k] and p[k] times the
  scenario's late price on z[k];
- link rows y[k,s] <= x[s] (named link[k,s], or open[k,i] for facilities).

Each builder adds only its demand rows and columns.  The extractors turn an
optimal solution back into the dense arrays the rounding code consumes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instances import (
    InstanceError,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .model import ScenarioSet

__all__ = [
    "FractionalCoverSolution",
    "FractionalUflSolution",
    "build_deterministic_ufl_lp",
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
        inc = self.instance.incidence
        for i, (_, clients) in enumerate(self.instance.scenarios.scenarios):
            for e in clients:
                # a boolean row gathers the covering items in ascending order
                if self.y[i, inc[e]].sum() + self.z[i, inc[e]].sum() < 1.0 - 1e-7:
                    raise InstanceError(
                        f"element {e} undercovered in scenario {i}"
                    )


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


class _Stages:
    """The stage layout of the module docstring over n items."""

    def __init__(self, n: int, scenarios: ScenarioSet) -> None:
        self.n = n
        self.probs = np.array([p for p, _ in scenarios.scenarios])
        self.big_k = len(self.probs)
        self.demand = [sorted(clients) for _, clients in scenarios.scenarios]
        self.width = n + 2 * self.big_k * n

    def y(self, k: int) -> slice:
        return slice((2 * k + 1) * self.n, (2 * k + 2) * self.n)

    def z(self, k: int) -> slice:
        return slice((2 * k + 2) * self.n, (2 * k + 3) * self.n)

    def _blocks(self, v: np.ndarray) -> np.ndarray:
        """(K, 2, n) view of the y and z blocks of a column vector."""
        return v[self.n : self.width].reshape(self.big_k, 2, self.n)

    def objective(self, n_vars: int, sigma: float, w, late_scale: float, late) -> np.ndarray:
        """Stage costs with late price late_scale*late; late is one row for
        every scenario or one row per scenario.  Other columns cost 0."""
        obj = np.zeros(n_vars)
        obj[: self.n] = sigma * w
        blocks = self._blocks(obj)
        # Products stay left to right: p * (lam * w) rounds some costs
        # differently, and the relaxations' bytes are pinned.
        blocks[:, 0] = self.probs[:, None] * (1.0 - sigma) * w
        blocks[:, 1] = self.probs[:, None] * late_scale * late
        return obj

    def names(self, first: str) -> list[str]:
        names = [f"{first}[{s}]" for s in range(self.n)]
        for k in range(self.big_k):
            names += [f"y[{k},{s}]" for s in range(self.n)]
            names += [f"z[{k},{s}]" for s in range(self.n)]
        return names

    def link(self, rows: np.ndarray, r: int, name: str) -> list[str]:
        """Write the K*n link rows from row r on; returns their names.

        Negative diagonals go through np.fill_diagonal: -np.eye would also
        store -0.0 off the diagonal."""
        for k in range(self.big_k):
            block = rows[r + k * self.n : r + (k + 1) * self.n]
            np.fill_diagonal(block[:, self.y(k)], 1.0)
            np.fill_diagonal(block[:, : self.n], -1.0)
        return [f"{name}[{k},{s}]" for k in range(self.big_k) for s in range(self.n)]

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, y, z) copies of a solution's stage columns; y and z are (K, n)."""
        blocks = self._blocks(v)
        return v[: self.n].copy(), blocks[:, 0].copy(), blocks[:, 1].copy()


def _cover_blocks(inst: CoverInstance, demand: list[list[int]]) -> list[np.ndarray]:
    """0/1 incidence rows of each scenario's demanded elements, in order.

    Raises on the first uncoverable element in (scenario, element) order.
    """
    blocks = []
    for k, elements in enumerate(demand):
        block = inst.incidence[elements].astype(float)
        bad = np.flatnonzero(~block.any(axis=1))
        if bad.size:
            raise InstanceError(f"element {elements[bad[0]]} of scenario {k} is uncoverable")
        blocks.append(block)
    return blocks


def _demand_lp(
    obj: np.ndarray, rows: np.ndarray, m: int, names: list[str], row_names: list[str]
) -> LinearProgram:
    """The program whose first m rows are demand rows (>= 1) and whose
    other rows are <= 0."""
    rhs = np.zeros(len(rows))
    rhs[:m] = 1.0
    senses = (">=",) * m + ("<=",) * (len(rows) - m)
    return LinearProgram(obj, rows, senses, rhs, None, tuple(names), tuple(row_names))


def build_cover_lp(inst: CoverInstance) -> LinearProgram:
    """Two-stage covering relaxation: the stage layout at late price lam*w.

    Adds one row cover[k,e] per demanded element, ahead of the link rows:
    y[k,s] + z[k,s] summed over the items s covering e is at least 1.
    """
    st = _Stages(inst.n_items, inst.scenarios)
    blocks = _cover_blocks(inst, st.demand)
    m = sum(len(block) for block in blocks)
    rows = np.zeros((m + st.big_k * st.n, st.width))
    r = 0
    for k, block in enumerate(blocks):
        rows[r : r + len(block), st.y(k)] = block
        rows[r : r + len(block), st.z(k)] = block
        r += len(block)
    row_names = [f"cover[{k},{e}]" for k, elements in enumerate(st.demand) for e in elements]
    row_names += st.link(rows, m, "link")
    w = np.asarray(inst.weights, dtype=float)
    obj = st.objective(st.width, inst.policy.sigma, w, inst.policy.lam, w)
    return _demand_lp(obj, rows, m, st.names("x"), row_names)


def cover_solution_from_lp(inst: CoverInstance, sol: LpSolution) -> FractionalCoverSolution:
    x, y, z = _Stages(inst.n_items, inst.scenarios).split(sol.values)
    return FractionalCoverSolution(inst, x, y, z, sol.objective_value)


def solve_cover_lp(inst: CoverInstance) -> FractionalCoverSolution:
    return cover_solution_from_lp(inst, solve_relaxation(inst))


def build_ufl_lp(inst: UflInstance) -> LinearProgram:
    """Stochastic facility-location relaxation: the stage layout over
    facilities at late price fk[k], the scenario's own opening price.

    Adds service columns x[k,j,i] per demanded (scenario, client) pair, one
    row serve[k,j] (sum over i of x[k,j,i] >= 1) per pair ahead of the open
    rows, and after them rows route[k,j,i]: x[k,j,i] <= y[k,i] + z[k,i].
    """
    n_i = inst.n_facilities
    st = _Stages(n_i, inst.scenarios)
    pairs = [(k, j) for k, clients in enumerate(st.demand) for j in clients]
    n_vars = st.width + len(pairs) * n_i
    f0 = np.asarray(inst.open_cost, dtype=float)
    fk = np.asarray(inst.scenario_open_cost, dtype=float).reshape(st.big_k, n_i)
    obj = st.objective(n_vars, inst.sigma, f0, 1.0, fk)
    dist = inst.dist
    route = len(pairs) + st.big_k * n_i
    rows = np.zeros((route + len(pairs) * n_i, n_vars))
    for t, (k, j) in enumerate(pairs):
        x = slice(st.width + t * n_i, st.width + (t + 1) * n_i)
        obj[x] = st.probs[k] * dist[:, j]
        rows[t, x] = 1.0
        block = rows[route + t * n_i : route + (t + 1) * n_i]
        np.fill_diagonal(block[:, x], 1.0)
        np.fill_diagonal(block[:, st.y(k)], -1.0)
        np.fill_diagonal(block[:, st.z(k)], -1.0)
    row_names = [f"serve[{k},{j}]" for k, j in pairs]
    row_names += st.link(rows, len(pairs), "open")
    row_names += [f"route[{k},{j},{i}]" for k, j in pairs for i in range(n_i)]
    names = st.names("y0") + [f"x[{k},{j},{i}]" for k, j in pairs for i in range(n_i)]
    return _demand_lp(obj, rows, len(pairs), names, row_names)


def ufl_solution_from_lp(inst: UflInstance, sol: LpSolution) -> FractionalUflSolution:
    st = _Stages(inst.n_facilities, inst.scenarios)
    y0, yk, zk = st.split(sol.values)
    pairs = [(k, j) for k, clients in enumerate(st.demand) for j in clients]
    service = sol.values[st.width :].reshape(len(pairs), st.n)
    x = np.zeros((st.big_k, inst.n_clients, st.n))
    for (k, j), served in zip(pairs, service):
        x[k, j] = served
    return FractionalUflSolution(inst, y0, yk, zk, x, sol.objective_value)


def solve_ufl_lp(inst: UflInstance) -> FractionalUflSolution:
    return ufl_solution_from_lp(inst, solve_relaxation(inst))


def build_deterministic_ufl_lp(
    open_cost: np.ndarray, distance: np.ndarray, clients: tuple[int, ...]
) -> LinearProgram:
    """Single-stage facility-location relaxation.

    Columns: y[i] for every facility, then x[j,i] per served client in the
    order given.  Rows: serve[j] (sum over i of x[j,i] >= 1) per client, then
    route[j,i]: x[j,i] <= y[i].
    """
    f = np.asarray(open_cost, dtype=float)
    dist = np.asarray(distance, dtype=float)
    n_i = f.size
    n_j = len(clients)
    obj = np.concatenate([f, dist[:, list(clients)].T.ravel()])
    rows = np.zeros((n_j + n_j * n_i, obj.size))
    for t in range(n_j):
        x = slice(n_i + t * n_i, n_i + (t + 1) * n_i)
        rows[t, x] = 1.0
        block = rows[n_j + t * n_i : n_j + (t + 1) * n_i]
        np.fill_diagonal(block[:, x], 1.0)
        np.fill_diagonal(block[:, :n_i], -1.0)
    names = [f"y[{i}]" for i in range(n_i)] + [f"x[{j},{i}]" for j in clients for i in range(n_i)]
    row_names = [f"serve[{j}]" for j in clients]
    row_names += [f"route[{j},{i}]" for j in clients for i in range(n_i)]
    return _demand_lp(obj, rows, n_j, names, row_names)


def build_steiner_flow_lp(inst: SteinerInstance) -> LinearProgram:
    """Flow relaxation of the two-stage tree problem, used as a lower bound:
    the stage layout over edges at late price lam*w, link rows first.

    Adds per demanded (scenario, terminal) pair the arc flows f[k,t,e+]
    (a->b on edge e = (a, b)) and f[k,t,e-] (b->a), rows flow[k,t,v]
    sending one unit from the root to t, and rows cap[k,t,e] bounding both
    arcs by y[k,e] + z[k,e].  Any feasible integral plan embeds, so the
    optimum never exceeds it.
    """
    g = inst.graph
    n_e, n_v = len(g.edges), g.n_vertices
    st = _Stages(n_e, inst.scenarios)
    pairs = [(k, t) for k, clients in enumerate(st.demand) for t in clients if t != g.root]
    arcs = np.zeros((n_v, 2 * n_e))  # net flow out of each vertex
    for e, (a, b) in enumerate(g.edges):
        arcs[a, 2 * e : 2 * e + 2] = 1.0, -1.0
        arcs[b, 2 * e : 2 * e + 2] = -1.0, 1.0
    link = st.big_k * n_e
    rows = np.zeros((link + len(pairs) * (n_v + n_e), st.width + len(pairs) * 2 * n_e))
    rhs = np.zeros(len(rows))
    row_names = st.link(rows, 0, "link")
    names = st.names("x")
    for p, (k, t) in enumerate(pairs):
        col = st.width + p * 2 * n_e
        r = link + p * (n_v + n_e)
        rows[r : r + n_v, col : col + 2 * n_e] = arcs
        rhs[r + g.root] = 1.0
        rhs[r + t] = -1.0
        cap = rows[r + n_v : r + n_v + n_e]
        np.fill_diagonal(cap[:, col : col + 2 * n_e : 2], 1.0)
        np.fill_diagonal(cap[:, col + 1 : col + 2 * n_e : 2], 1.0)
        np.fill_diagonal(cap[:, st.y(k)], -1.0)
        np.fill_diagonal(cap[:, st.z(k)], -1.0)
        row_names += [f"flow[{k},{t},{v}]" for v in range(n_v)]
        row_names += [f"cap[{k},{t},{e}]" for e in range(n_e)]
        names += [f"f[{k},{t},{e}{arc}]" for e in range(n_e) for arc in "+-"]
    w = np.asarray(g.weights, dtype=float)
    obj = st.objective(rows.shape[1], inst.policy.sigma, w, inst.policy.lam, w)
    senses = ("<=",) * link + (("==",) * n_v + ("<=",) * n_e) * len(pairs)
    return LinearProgram(obj, rows, senses, rhs, None, tuple(names), tuple(row_names))


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
