"""Problem instances and their JSON wire format.

Four problem kinds share one file layout: ``kind``, ``sigma``, ``lambda``,
item data (``weights`` plus structure, or facility cost blocks), and
``scenarios`` as ``[{"p": .., "clients": [..]}]``.  Ids are dense
nonnegative integers; clients are element ids for set cover, edge ids for
vertex cover, client ids for facility location, terminal vertices for
Steiner.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .model import CostPolicy, ScenarioSet

__all__ = [
    "InstanceError",
    "SetCoverInstance",
    "VertexCoverInstance",
    "UflInstance",
    "MetricGraph",
    "SteinerInstance",
    "load_instance",
    "save_instance",
    "instance_to_dict",
]

GEOM_TOL = 1e-9


class InstanceError(ValueError):
    """Instance data violates its structural invariants."""


def _check_finite(field: str, values) -> None:
    """Refuse NaN and +-inf, naming the field and the first bad index."""
    arr = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        index = "".join(f"[{i}]" for i in at)
        raise InstanceError(f"{field}{index} must be finite, got {arr[at]}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_ground_weights(policy: CostPolicy, weights: tuple[float, ...]) -> None:
    """The relaxation and the oracle price items by their weights, and
    ``evaluate_objective`` by the policy's ground weights: the two must agree."""
    expected = dict(enumerate(weights))
    for i in sorted(expected.keys() | policy.ground_weight.keys()):
        got, want = policy.ground_weight.get(i), expected.get(i)
        if got != want:
            raise InstanceError(f"item {i}: ground weight {got} differs from its weight {want}")


def _check_edges(edges: tuple[tuple[int, ...], ...], n_vertices: int) -> None:
    for e, edge in enumerate(edges):
        if len(edge) != 2:
            raise InstanceError(f"edges[{e}] must be a pair of vertex ids, got {list(edge)}")
        u, v = edge
        if not (0 <= u < n_vertices and 0 <= v < n_vertices) or u == v:
            raise InstanceError(f"edge {e} = ({u}, {v}) is not a proper edge")


def _check_scenarios(scen: ScenarioSet, limit: int, what: str) -> None:
    for k, (_, clients) in enumerate(scen.scenarios):
        bad = [c for c in clients if not 0 <= c < limit]
        if bad:
            raise InstanceError(f"scenario {k} references unknown {what}: {sorted(bad)}")


@dataclass(frozen=True)
class SetCoverInstance:
    """Weighted set cover; items are sets, demand points are elements."""

    n_elements: int
    sets: tuple[frozenset[int], ...]
    weights: tuple[float, ...]
    policy: CostPolicy
    scenarios: ScenarioSet

    def __post_init__(self) -> None:
        if len(self.sets) != len(self.weights):
            raise InstanceError("one weight per set required")
        for s, members in enumerate(self.sets):
            bad = [e for e in members if not 0 <= e < self.n_elements]
            if bad:
                raise InstanceError(f"set {s} references unknown elements {sorted(bad)}")
        _check_ground_weights(self.policy, self.weights)
        _check_scenarios(self.scenarios, self.n_elements, "elements")

    kind = "set_cover"

    @property
    def n_items(self) -> int:
        return len(self.sets)

    @functools.cached_property
    def incidence(self) -> np.ndarray:
        """Read-only boolean (n_elements, n_items), built once: the items covering each element."""
        m = np.zeros((self.n_elements, self.n_items), dtype=bool)
        for s, members in enumerate(self.sets):
            for e in members:
                m[e, s] = True
        return _frozen(m)

    def covers_demand(self, clients: frozenset[int], items: frozenset[int]) -> bool:
        covered: set[int] = set()
        for s in items:
            covered |= self.sets[s]
        return clients <= covered


@dataclass(frozen=True)
class VertexCoverInstance:
    """Vertex cover as covering: items are vertices, demand points are edges."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    policy: CostPolicy
    scenarios: ScenarioSet

    def __post_init__(self) -> None:
        if len(self.weights) != self.n_vertices:
            raise InstanceError("one weight per vertex required")
        _check_edges(self.edges, self.n_vertices)
        _check_ground_weights(self.policy, self.weights)
        _check_scenarios(self.scenarios, len(self.edges), "edges")

    kind = "vertex_cover"

    @property
    def n_items(self) -> int:
        return self.n_vertices

    @property
    def n_elements(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def incidence(self) -> np.ndarray:
        """Read-only boolean (n_edges, n_vertices), built once: each edge's two endpoints."""
        m = np.zeros((len(self.edges), self.n_vertices), dtype=bool)
        for e, (u, v) in enumerate(self.edges):
            m[e, u] = m[e, v] = True
        return _frozen(m)

    def covers_demand(self, clients: frozenset[int], items: frozenset[int]) -> bool:
        return all(self.edges[e][0] in items or self.edges[e][1] in items for e in clients)


@dataclass(frozen=True)
class UflInstance:
    """Uncapacitated facility location with per-facility recourse prices.

    ``open_cost[i]`` is the ground opening price f_i^0, ``scenario_open_cost[k][i]``
    the inflated price f_i^k >= f_i^0 when facility i is bought only after
    scenario k materializes.  Demands are 0/1: client j is demanded in
    scenario k iff j is listed among that scenario's clients.
    """

    open_cost: tuple[float, ...]
    scenario_open_cost: tuple[tuple[float, ...], ...]
    distance: tuple[tuple[float, ...], ...]
    sigma: float
    scenarios: ScenarioSet

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < 1.0:
            raise InstanceError(f"sigma must be in (0, 1), got {self.sigma}")
        n_i = len(self.open_cost)
        if len(self.distance) != n_i:
            raise InstanceError("one distance row per facility required")
        for i, row in enumerate(self.distance):
            if len(row) != self.n_clients:
                raise InstanceError(
                    f"distance[{i}] must have {self.n_clients} entries, got {list(row)!r}"
                )
        if len(self.scenario_open_cost) != len(self.scenarios):
            raise InstanceError("one scenario cost row per scenario required")
        for k, row in enumerate(self.scenario_open_cost):
            if len(row) != n_i:
                raise InstanceError(f"scenario {k} cost row has wrong arity")
        for field in ("open_cost", "scenario_open_cost", "distance"):
            _check_finite(field, getattr(self, field))
        for i, f0 in enumerate(self.open_cost):
            if f0 < 0:
                raise InstanceError(f"facility {i}: need f^0 >= 0, got {f0}")
        for k, row in enumerate(self.scenario_open_cost):
            for i, (f0, fk) in enumerate(zip(self.open_cost, row)):
                if fk < f0 - GEOM_TOL:
                    raise InstanceError(
                        f"facility {i}: need f^{k} >= f^0 >= 0, got {fk} < {f0}"
                    )
        _check_scenarios(self.scenarios, self.n_clients, "clients")
        self._check_triangle()

    def _check_triangle(self) -> None:
        # The 3-hop inequality c[i,j] <= c[i',j] + c[i',j'] + c[i,j'] is what
        # every distance argument in the roundings actually uses.
        c = self.dist
        n_i, n_j = c.shape
        for i in range(n_i):
            for j in range(n_j):
                detour = c[:, j][:, None] + c + c[i, :][None, :]
                if c[i, j] > detour.min() + GEOM_TOL:
                    raise InstanceError(
                        f"distances break the facility-client triangle rule at ({i}, {j})"
                    )

    kind = "ufl"

    @property
    def n_facilities(self) -> int:
        return len(self.open_cost)

    @property
    def n_clients(self) -> int:
        return len(self.distance[0]) if self.distance else 0

    @property
    def n_items(self) -> int:
        return self.n_facilities

    @functools.cached_property
    def dist(self) -> np.ndarray:
        """Read-only (n_facilities, n_clients) array of ``distance``, built once."""
        return _frozen(np.array(self.distance, dtype=float))

    @property
    def lam(self) -> float:
        """Worst per-facility inflation, the lambda used for SAA sample counts."""
        worst = 1.0
        for row in self.scenario_open_cost:
            for f0, fk in zip(self.open_cost, row):
                if f0 > 0:
                    worst = max(worst, fk / f0)
                elif fk > 0:
                    return math.inf
        return worst

    def demanded(self, k: int) -> tuple[int, ...]:
        return tuple(sorted(self.scenarios.scenarios[k][1]))

    def covers_demand(self, clients: frozenset[int], items: frozenset[int]) -> bool:
        return not clients or bool(items)


@dataclass(frozen=True)
class MetricGraph:
    """Connected weighted graph with a root; items are edge ids."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    root: int = 0

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.weights):
            raise InstanceError("one weight per edge required")
        if not 0 <= self.root < self.n_vertices:
            raise InstanceError(f"root {self.root} is not a vertex")
        _check_edges(self.edges, self.n_vertices)
        _check_finite("weights", self.weights)
        if any(w < 0 for w in self.weights):
            raise InstanceError("edge weights must be nonnegative")
        # n vertices need n - 1 edges; checked before the union-find allocates n
        if self.n_vertices > self.n_edges + 1 or not self.reaches(
            range(self.n_edges), range(self.n_vertices)
        ):
            raise InstanceError("graph must be connected")

    def reaches(self, items: Iterable[int], vertices: Iterable[int]) -> bool:
        """Do the edges ``items`` connect every vertex of ``vertices`` to the root?"""
        parent = list(range(self.n_vertices))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in items:
            u, v = self.edges[e]
            parent[find(u)] = find(v)
        r = find(self.root)
        return all(find(t) == r for t in vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def shortest_paths(
        self, edge_price: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """All-pairs distances and first hops, (next vertex, edge id) per pair,
        under optional edge prices; of parallel edges a hop takes the first
        cheapest.  Floyd-Warshall with strict improvement only, so tie-breaks
        are fixed by edge order and results are deterministic.
        """
        n = self.n_vertices
        price = np.asarray(self.weights, dtype=float) if edge_price is None else edge_price
        d = np.full((n, n), np.inf)
        np.fill_diagonal(d, 0.0)
        hop = np.stack([np.tile(np.arange(n), (n, 1)), np.full((n, n), -1)], axis=-1)
        for e, (u, v) in enumerate(self.edges):
            if price[e] < d[u, v]:
                d[u, v] = d[v, u] = price[e]
                hop[u, v] = v, e
                hop[v, u] = u, e
        for k in range(n):
            via = d[:, k][:, None] + d[k, :][None, :]
            better = via < d - 1e-15
            d = np.where(better, via, d)
            hop = np.where(better[:, :, None], hop[:, k][:, None], hop)
        return d, hop

    @staticmethod
    def path_edges(hop: np.ndarray, u: int, v: int) -> list[int]:
        """Edge ids along the u-v shortest path that ``hop`` records."""
        out = []
        while u != v:
            u, e = (int(a) for a in hop[u, v])
            out.append(e)
        return out


@dataclass(frozen=True)
class SteinerInstance:
    graph: MetricGraph
    policy: CostPolicy
    scenarios: ScenarioSet

    def __post_init__(self) -> None:
        _check_ground_weights(self.policy, self.graph.weights)
        _check_scenarios(self.scenarios, self.graph.n_vertices, "vertices")

    kind = "steiner"

    @property
    def n_items(self) -> int:
        return self.graph.n_edges

    def covers_demand(self, clients: frozenset[int], items: frozenset[int]) -> bool:
        """Bought edges must connect every terminal to the root."""
        return self.graph.reaches(items, clients)


Instance = SetCoverInstance | VertexCoverInstance | UflInstance | SteinerInstance


def _scenarios_to_json(scen: ScenarioSet) -> list[dict]:
    return [{"p": p, "clients": sorted(clients)} for p, clients in scen.scenarios]


def _int(field: str, value) -> int:
    """A count or id read from a file: an int or an integral float, at most
    sys.maxsize in size.  Anything else, a bool too, is refused by field name."""
    if not (type(value) is int or isinstance(value, float) and value.is_integer()):
        raise InstanceError(f"{field} must be an integer, got {value!r}")
    if abs(value) > sys.maxsize:
        raise InstanceError(f"{field} must be at most {sys.maxsize} in size, got {value!r}")
    return int(value)


def _num(field: str, value) -> int | float:
    """A price, weight or probability read from a file: an int or a float."""
    if type(value) is int and abs(value) > sys.float_info.max:
        raise InstanceError(f"{field} must fit in a float, got {value!r}")
    if type(value) in (int, float):
        return value
    raise InstanceError(f"{field} must be a number, got {value!r}")


def _each(field: str, values, read) -> tuple:
    """``read(name, entry)`` of every entry of a list field, named by index."""
    if type(values) is not list:
        raise InstanceError(f"{field} must be a list, got {values!r}")
    return tuple(read(f"{field}[{i}]", v) for i, v in enumerate(values))


def _ints(field: str, values) -> tuple[int, ...]:
    return _each(field, values, _int)


def _floats(field: str, values) -> tuple[float, ...]:
    return _each(field, values, lambda name, v: float(_num(name, v)))


def _scenarios_from_json(raw) -> ScenarioSet:
    def scenario(name: str, entry) -> tuple[float, tuple[int, ...]]:
        if type(entry) is not dict:
            raise InstanceError(f"{name} must be an object, got {entry!r}")
        return _num(f"{name}.p", entry["p"]), _ints(f"{name}.clients", entry["clients"])
    return ScenarioSet.explicit(_each("scenarios", raw, scenario))


# Each kind's item data, in file order; Steiner's are fields of its graph.
_FILE_KEYS = {
    "set_cover": ("n_elements", "sets", "weights"),
    "vertex_cover": ("n_vertices", "edges", "weights"),
    "ufl": ("open_cost", "scenario_open_cost", "distance"),
    "steiner": ("n_vertices", "root", "edges", "weights"),
}


def _plain(value):
    """JSON shapes: tuples as lists, frozensets as sorted lists."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def instance_to_dict(inst: Instance) -> dict:
    if not isinstance(inst, Instance):
        raise InstanceError(f"unknown instance type {type(inst)!r}")
    ufl = isinstance(inst, UflInstance)
    items = inst.graph if isinstance(inst, SteinerInstance) else inst
    return {
        "kind": inst.kind,
        "sigma": inst.sigma if ufl else inst.policy.sigma,
        "lambda": inst.lam if ufl else inst.policy.lam,
        **{key: _plain(getattr(items, key)) for key in _FILE_KEYS[inst.kind]},
        "scenarios": _scenarios_to_json(inst.scenarios),
    }


def instance_from_dict(raw) -> Instance:
    if type(raw) is not dict:
        raise InstanceError(f"an instance must be a JSON object, got {raw!r}")
    try:
        kind = raw["kind"]
        scen = _scenarios_from_json(raw["scenarios"])
        if kind == "ufl":
            inst = UflInstance(
                open_cost=_floats("open_cost", raw["open_cost"]),
                scenario_open_cost=_each("scenario_open_cost", raw["scenario_open_cost"], _floats),
                distance=_each("distance", raw["distance"], _floats),
                sigma=_num("sigma", raw["sigma"]),
                scenarios=scen,
            )
            # the prices fix lambda; a key that disagrees was edited by hand
            lam = _num("lambda", raw.get("lambda", inst.lam))
            if not math.isclose(lam, inst.lam, rel_tol=1e-9):
                raise InstanceError(f"lambda {lam} differs from the {inst.lam} the prices give")
            return inst
        if kind not in ("set_cover", "vertex_cover", "steiner"):
            raise InstanceError(f"unknown instance kind {kind!r}")
        weights = _floats("weights", raw["weights"])
        sigma, lam = _num("sigma", raw["sigma"]), _num("lambda", raw["lambda"])
        policy = CostPolicy(sigma, lam, dict(enumerate(weights)))
        if kind == "set_cover":
            return SetCoverInstance(
                n_elements=_int("n_elements", raw["n_elements"]),
                sets=tuple(frozenset(m) for m in _each("sets", raw["sets"], _ints)),
                weights=weights,
                policy=policy,
                scenarios=scen,
            )
        n_vertices = _int("n_vertices", raw["n_vertices"])
        edges = _each("edges", raw["edges"], _ints)
        if kind == "vertex_cover":
            return VertexCoverInstance(n_vertices, edges, weights, policy, scen)
        graph = MetricGraph(n_vertices, edges, weights, _int("root", raw.get("root", 0)))
        return SteinerInstance(graph=graph, policy=policy, scenarios=scen)
    except KeyError as exc:
        raise InstanceError(f"missing instance key {exc.args[0]!r}") from exc


def save_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n")


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text()))
