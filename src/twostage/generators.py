"""Seeded random instance generators for the desk-scale corpus.

Every generator takes an integer seed and is reproducible byte-for-byte
through the JSON round-trip: identical (kind, params, seed) triples give
identical files.  Scenario client sets are sampled per client with a fixed
inclusion probability and scenario probabilities are normalized draws.
"""
from __future__ import annotations

import numpy as np

from .instances import (
    InstanceError,
    MetricGraph,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
)
from .model import CostPolicy, ScenarioSet

__all__ = ["generate_instance", "GENERATOR_KINDS"]


def _check_policy(sigma: float, lam: float) -> None:
    if not 0.0 < sigma < 1.0:
        raise InstanceError(f"sigma must be in (0, 1), got {sigma}")
    if not 1.0 < lam < np.inf:
        raise InstanceError(f"lam must be finite and exceed 1, got {lam}")


def _scenario_set(
    rng: np.random.Generator, n_scenarios: int, n_points: int, client_prob: float,
    exclude: frozenset[int] = frozenset(),
) -> ScenarioSet:
    raw = rng.uniform(0.2, 1.0, size=n_scenarios)
    probs = raw / raw.sum() if n_scenarios else raw
    scens = []
    for k in range(n_scenarios):
        members = frozenset(
            int(c)
            for c in range(n_points)
            if c not in exclude and rng.random() < client_prob
        )
        scens.append((float(probs[k]), members))
    return ScenarioSet(tuple(scens))


def _weights(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(round(float(v), 2) for v in rng.uniform(1.0, 10.0, size=n))


def _set_cover(
    rng: np.random.Generator,
    n_elements: int = 6,
    n_sets: int = 8,
    scenarios: int = 3,
    sigma: float = 0.5,
    lam: float = 2.0,
    client_prob: float = 0.5,
) -> SetCoverInstance:
    _check_policy(sigma, lam)
    sets = []
    for _ in range(n_sets):
        size = int(rng.integers(1, max(2, n_elements // 2) + 1))
        sets.append(frozenset(int(e) for e in rng.choice(n_elements, size=size, replace=False)))
    for e in range(n_elements):  # every element must be coverable
        if not any(e in s for s in sets):
            s = int(rng.integers(0, n_sets))
            sets[s] = sets[s] | {e}
    w = _weights(rng, n_sets)
    scen = _scenario_set(rng, scenarios, n_elements, client_prob)
    return SetCoverInstance(
        n_elements, tuple(sets), w, CostPolicy(sigma, lam, dict(enumerate(w))), scen
    )


def _vertex_cover(
    rng: np.random.Generator,
    n_vertices: int = 6,
    n_edges: int | None = None,
    scenarios: int = 3,
    sigma: float = 0.5,
    lam: float = 2.0,
    client_prob: float = 0.5,
) -> VertexCoverInstance:
    _check_policy(sigma, lam)
    pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    if n_edges is None:
        n_edges = min(len(pairs), 2 * n_vertices)
    if not 1 <= n_edges <= len(pairs):
        raise InstanceError(
            f"vertex_cover parameter 'n_edges' must be in [1, {len(pairs)}], got {n_edges}")
    order = rng.permutation(len(pairs))
    edges = tuple(pairs[i] for i in order[:n_edges])
    w = _weights(rng, n_vertices)
    scen = _scenario_set(rng, scenarios, n_edges, client_prob)
    return VertexCoverInstance(
        n_vertices, edges, w, CostPolicy(sigma, lam, dict(enumerate(w))), scen
    )


def _ufl(
    rng: np.random.Generator,
    n_facilities: int = 4,
    n_clients: int = 6,
    scenarios: int = 3,
    sigma: float = 0.5,
    lam: float = 2.0,
    client_prob: float = 0.5,
) -> UflInstance:
    _check_policy(sigma, lam)
    fac = rng.random((n_facilities, 2))
    cli = rng.random((n_clients, 2))
    dist = np.sqrt(((fac[:, None, :] - cli[None, :, :]) ** 2).sum(axis=2))
    f0 = _weights(rng, n_facilities)
    rows = []
    for _ in range(scenarios):
        # per-facility inflation somewhere in the upper half of (1, lam]
        mult = rng.uniform(1.0 + 0.5 * (lam - 1.0), lam, size=n_facilities)
        rows.append(tuple(float(f * m) for f, m in zip(f0, mult)))
    scen = _scenario_set(rng, scenarios, n_clients, client_prob)
    return UflInstance(
        open_cost=f0,
        scenario_open_cost=tuple(rows),
        distance=tuple(tuple(float(d) for d in row) for row in dist),
        sigma=sigma,
        scenarios=scen,
    )


def _steiner(
    rng: np.random.Generator,
    n_vertices: int = 8,
    n_edges: int | None = None,
    scenarios: int = 3,
    sigma: float = 0.5,
    lam: float = 2.0,
    client_prob: float = 0.4,
) -> SteinerInstance:
    _check_policy(sigma, lam)
    # random spanning tree first, so the graph is connected by construction
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n_vertices)]
    pairs = [
        (u, v)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
        if (u, v) not in edges
    ]
    if n_edges is None:
        n_edges = min(n_vertices - 1 + max(2, n_vertices // 2), n_vertices - 1 + len(pairs))
    extra = n_edges - (n_vertices - 1)
    if not 0 <= extra <= len(pairs):
        raise InstanceError(f"steiner parameter 'n_edges' must be in [{n_vertices - 1}, "
                            f"{n_vertices - 1 + len(pairs)}], got {n_edges}")
    order = rng.permutation(len(pairs))
    edges += [pairs[i] for i in order[:extra]]
    w = _weights(rng, len(edges))
    graph = MetricGraph(n_vertices, tuple(edges), w, root=0)
    scen = _scenario_set(
        rng, scenarios, n_vertices, client_prob, exclude=frozenset({graph.root})
    )
    weight_map = dict(enumerate(w))
    return SteinerInstance(graph, CostPolicy(sigma, lam, weight_map), scen)


GENERATOR_KINDS = {
    "set_cover": _set_cover,
    "vertex_cover": _vertex_cover,
    "ufl": _ufl,
    "steiner": _steiner,
}


# each kind's parameters, read once, and the exact value types they take (a bool is no count)
_TYPES = {"int": (int,), "int | None": (int, type(None)), "float": (int, float)}
_PARAMS = {kind: {k: v for k, v in make.__annotations__.items() if k not in ("rng", "return")}
           for kind, make in GENERATOR_KINDS.items()}
# the least count each kind builds from (a set may draw two members); n_edges
# depends on n_vertices, and its generator checks it
_LEAST = {
    "set_cover": {"n_elements": 2, "n_sets": 1, "scenarios": 0},
    "vertex_cover": {"n_vertices": 2, "scenarios": 0},
    "ufl": {"n_facilities": 1, "n_clients": 0, "scenarios": 0},
    "steiner": {"n_vertices": 1, "scenarios": 0},
}


def generate_instance(kind: str, seed: int = 0, **params):
    """Draw a reproducible random instance of the given kind; refuse a bad parameter by name."""
    try:
        make, accepted = GENERATOR_KINDS[kind], _PARAMS[kind]
    except KeyError:
        raise InstanceError(
            f"unknown kind {kind!r}; expected one of {sorted(GENERATOR_KINDS)}"
        ) from None
    for name, value in params.items():
        want = accepted.get(name)
        if want is None:
            raise InstanceError(f"{kind} has no parameter {name!r}; it takes {sorted(accepted)}")
        if type(value) not in _TYPES[want]:
            raise InstanceError(f"{kind} parameter {name!r} must be {want}, got {value!r}")
        least = _LEAST[kind].get(name)
        if least is not None and value < least:
            raise InstanceError(f"{kind} parameter {name!r} must be at least {least}, got {value}")
        if name == "client_prob" and not 0.0 <= value <= 1.0:
            raise InstanceError(f"{kind} parameter 'client_prob' must be in [0, 1], got {value}")
    return make(np.random.default_rng(seed), **params)
