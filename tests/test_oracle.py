"""Exhaustive ground-truth solver."""
import dataclasses
import hashlib
import tracemalloc
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import oracle
from twostage.instances import (
    InstanceError,
    MetricGraph,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
)
from twostage.model import CostPolicy, ScenarioSet, check_feasible, evaluate_objective
from twostage.oracle import MAX_ITEMS, MAX_SCENARIOS, best_completion, brute_force_optimal
from twostage.saa import SaaConfig, repeating_saa
from twostage.ufl import UflPlan, evaluate_ufl_cost
from twostage.generators import generate_instance


def cover_instance(weights, sets, scen_pairs, sigma=0.5, lam=2.0, n_elements=2):
    return SetCoverInstance(
        n_elements=n_elements,
        sets=tuple(frozenset(s) for s in sets),
        weights=tuple(weights),
        policy=CostPolicy(sigma, lam, dict(enumerate(weights))),
        scenarios=ScenarioSet.explicit(scen_pairs),
    )


def covering_items(inst, e):
    """The items covering element e, read off the instance's sets or edges."""
    if isinstance(inst, VertexCoverInstance):
        return sorted(inst.edges[e])
    return [s for s, members in enumerate(inst.sets) if e in members]


def test_no_scenarios_costs_nothing():
    inst = cover_instance([1.0], [{0}], [], n_elements=1)
    res = brute_force_optimal(inst)
    assert res.optimal_cost == 0.0
    assert res.optimal_solution.reserved == frozenset()


def test_single_scenario_prefers_reserve_and_exercise():
    # one price-1 set; reserving + exercising costs 1, recourse costs 2
    inst = cover_instance([1.0], [{0}], [(1.0, [0])], n_elements=1)
    res = brute_force_optimal(inst)
    assert res.optimal_cost == pytest.approx(1.0)
    assert res.optimal_solution.reserved == frozenset({0})
    assert res.optimal_solution.stages[0].exercised == frozenset({0})


def test_two_scenario_three_set_frozen_value():
    # sets {0},{1},{0,1} at weights 1,1,3; scenarios demand one element each
    inst = cover_instance(
        [1.0, 1.0, 3.0],
        [{0}, {1}, {0, 1}],
        [(0.5, [0]), (0.5, [1])],
    )
    res = brute_force_optimal(inst)
    # reserve both singletons (cost 1), exercise the demanded one (0.25 each)
    assert res.optimal_cost == pytest.approx(1.5)
    bd = evaluate_objective(res.optimal_solution, inst.policy, inst.scenarios)
    assert bd.total == pytest.approx(res.optimal_cost)


def evaluated_cost(inst, sol):
    """A plan's cost by its family's evaluator; a facility plan serves each
    demanded client from its nearest bought facility."""
    if not isinstance(inst, UflInstance):
        return evaluate_objective(sol, inst.policy, inst.scenarios).total
    assignment = tuple(
        {j: min(stage.bought, key=lambda i: inst.dist[i, j]) for j in clients}
        for (_, clients), stage in zip(inst.scenarios.scenarios, sol.stages)
    )
    return evaluate_ufl_cost(inst, UflPlan(sol, assignment)).total


def test_oracle_solution_is_feasible_and_priced_right():
    # The optimum and best completions of random reservations, each priced
    # by its family's evaluator, independently of the oracle's tables.
    rng = np.random.default_rng(7)
    sizes = {
        "set_cover": {"n_elements": 5, "n_sets": 6},
        "vertex_cover": {"n_vertices": 6, "n_edges": 8},
        "ufl": {"n_facilities": 5, "n_clients": 5},
        "steiner": {"n_vertices": 6, "n_edges": 8},
    }
    for kind, params in sizes.items():
        for seed in range(5):
            inst = generate_instance(kind, seed=seed, scenarios=3, **params)
            res = brute_force_optimal(inst)
            plans = [(res.optimal_solution, res.optimal_cost)]
            for _ in range(3):
                reserved = frozenset(np.flatnonzero(rng.random(inst.n_items) < 0.5).tolist())
                plans.append(best_completion(inst, reserved))
            for sol, cost in plans:
                assert check_feasible(sol, inst.scenarios, inst.covers_demand).feasible
                assert evaluated_cost(inst, sol) == pytest.approx(cost, rel=1e-9), (kind, seed)


def test_oracle_is_deterministic():
    inst = generate_instance("vertex_cover", seed=9, n_vertices=6, n_edges=8, scenarios=3)
    a = brute_force_optimal(inst)
    b = brute_force_optimal(inst)
    assert a.optimal_cost == b.optimal_cost
    assert a.optimal_solution == b.optimal_solution
    assert a.nodes_explored == b.nodes_explored


def test_size_caps_are_refusals():
    too_many_items = generate_instance(
        "set_cover", seed=0, n_elements=4, n_sets=MAX_ITEMS + 1, scenarios=2
    )
    with pytest.raises(InstanceError):
        brute_force_optimal(too_many_items)
    too_many_scen = generate_instance(
        "set_cover", seed=0, n_elements=4, n_sets=5, scenarios=MAX_SCENARIOS + 1
    )
    with pytest.raises(InstanceError):
        brute_force_optimal(too_many_scen)


def test_best_completion_matches_oracle_at_its_reservation():
    inst = generate_instance("set_cover", seed=3, n_elements=5, n_sets=6, scenarios=3)
    res = brute_force_optimal(inst)
    sol, cost = best_completion(inst, res.optimal_solution.reserved)
    assert cost == pytest.approx(res.optimal_cost)
    # and no reservation beats the oracle
    sol0, cost0 = best_completion(inst, frozenset())
    assert cost0 >= res.optimal_cost - 1e-9


# ---------------------------------------------------------------------------
# Reference: the oracle as a scan of one reservation mask at a time, with
# per-mask Python loops for its tables.  The array oracle must match it bit
# for bit: same additions in the same order, same stopping point.


def ref_mass_table(weights):
    table = np.zeros(1 << weights.size)
    for mask in range(1, 1 << weights.size):
        low = mask & -mask
        table[mask] = table[mask ^ low] + weights[low.bit_length() - 1]
    return table


def ref_covering_masks(inst, clients, n):
    elem_masks = []
    for e in sorted(clients):
        cm = 0
        for s in covering_items(inst, e):
            cm |= 1 << s
        if cm == 0:
            raise InstanceError(f"element {e} is uncoverable")
        elem_masks.append(cm)
    return np.array(
        [x for x in range(1 << n) if all(x & cm for cm in elem_masks)], dtype=np.int64
    )


def ref_connecting_masks(inst, clients):
    g = inst.graph
    terminals = [t for t in clients if t != g.root]
    if not terminals:
        return np.arange(1 << g.n_edges, dtype=np.int64)
    out = []
    for x in range(1 << g.n_edges):
        parent = list(range(g.n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        m = x
        while m:
            low = m & -m
            u, v = g.edges[low.bit_length() - 1]
            parent[find(u)] = find(v)
            m ^= low
        r = find(g.root)
        if all(find(t) == r for t in terminals):
            out.append(x)
    if not out:
        raise InstanceError("no edge set connects the demanded terminals")
    return np.array(out, dtype=np.int64)


def ref_tables(inst):
    """First-stage cost per mask, and (prob, masks, base, save_table) per scenario."""
    n = inst.n_items
    scen = inst.scenarios.scenarios
    if isinstance(inst, UflInstance):
        sigma = inst.sigma
        f0 = np.array(inst.open_cost, dtype=float)
        dist = inst.dist
        minc = np.full((1 << n, inst.n_clients), np.inf)
        for mask in range(1, 1 << n):
            low = mask & -mask
            minc[mask] = np.minimum(minc[mask ^ low], dist[low.bit_length() - 1])
        all_masks = np.arange(1 << n, dtype=np.int64)
        tables = []
        for k, (p, clients) in enumerate(scen):
            fk = np.array(inst.scenario_open_cost[k], dtype=float)
            conn = minc[:, sorted(clients)].sum(axis=1) if clients else np.zeros(1 << n)
            save = ref_mass_table(fk - (1.0 - sigma) * f0)
            tables.append((p, all_masks, ref_mass_table(fk) + conn, save))
        return sigma * ref_mass_table(f0), tables
    sigma, lam = inst.policy.sigma, inst.policy.lam
    steiner = isinstance(inst, SteinerInstance)
    table = ref_mass_table(np.array(inst.graph.weights if steiner else inst.weights, dtype=float))
    save = (lam - 1.0 + sigma) * table
    tables = []
    for p, clients in scen:
        if steiner:
            masks = ref_connecting_masks(inst, clients)
        else:
            masks = ref_covering_masks(inst, clients, n)
        tables.append((p, masks, lam * table[masks], save))
    return sigma * table, tables


def ref_best(table, f0_mask):
    _, masks, base, save = table
    vals = base - save[masks & f0_mask]
    idx = int(np.argmin(vals))
    return float(vals[idx]), int(masks[idx])


def ref_optimal(inst):
    """(cost, reserved mask, bought masks, nodes) of the one-mask-at-a-time scan."""
    first_vec, tables = ref_tables(inst)
    best, best_mask, best_xs, nodes = np.inf, 0, [], 0
    for mask in np.argsort(first_vec, kind="stable"):
        mask = int(mask)
        fc = first_vec[mask]
        if fc >= best:
            break
        nodes += 1
        total = fc
        xs = []
        for tab in tables:
            val, x = ref_best(tab, mask)
            total += tab[0] * val
            xs.append(x)
        if total < best:
            best, best_mask, best_xs = total, mask, xs
    return float(best), best_mask, best_xs, nodes


def ref_completion(inst, reserved):
    first_vec, tables = ref_tables(inst)
    mask = sum(1 << s for s in reserved)
    total = float(first_vec[mask])
    xs = []
    for tab in tables:
        val, x = ref_best(tab, mask)
        total += tab[0] * val
        xs.append(x)
    return oracle._solution_from_masks(mask, xs), total


def edge_case_instances():
    ufl = UflInstance(
        open_cost=(1.0, 2.0),
        scenario_open_cost=((2.0, 3.0), (2.5, 2.5)),
        distance=((0.5, 1.0), (1.0, 0.2)),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(0.5, []), (0.5, [0, 1])]),
    )
    g = MetricGraph(3, ((0, 1), (1, 2)), (1.0, 2.0))
    steiner = SteinerInstance(
        g, CostPolicy(0.5, 2.0, {0: 1.0, 1: 2.0}), ScenarioSet.explicit([(0.4, [0]), (0.6, [2])])
    )
    return [
        cover_instance([1.0], [{0}], [], n_elements=1),  # no scenarios
        cover_instance([1.0], [{0}], [(1.0, [0])], n_elements=1),  # one item
        ufl,  # a scenario without clients
        steiner,  # a scenario whose only terminal is the root
        SteinerInstance(g, steiner.policy, ScenarioSet.explicit([(1.0, [0])])),  # and nothing else
    ]


def generated_instances():
    out = []
    for seed in range(6):
        out += [
            generate_instance("set_cover", seed=seed, n_elements=6, n_sets=8, scenarios=3),
            generate_instance("vertex_cover", seed=seed, n_vertices=8, n_edges=12, scenarios=4),
            generate_instance("ufl", seed=seed, n_facilities=6, n_clients=5, scenarios=3),
            generate_instance("steiner", seed=seed, n_vertices=6, n_edges=8, scenarios=3),
        ]
    out += [
        generate_instance("set_cover", seed=1, n_elements=9, n_sets=11, scenarios=6, lam=3.0),
        generate_instance("vertex_cover", seed=2, n_vertices=10, n_edges=16, scenarios=5, sigma=0.3),
        generate_instance("ufl", seed=3, n_facilities=9, n_clients=7, scenarios=6, sigma=0.7),
        generate_instance("steiner", seed=4, n_vertices=7, n_edges=10, scenarios=5),
    ]
    return out


# 1 << 40: the first block spans every reservation mask, so the stop is
# recovered inside one over-long block
@pytest.mark.parametrize("block_entries", [None, 1, 3, 1 << 40])
def test_array_oracle_is_bit_identical_to_the_mask_at_a_time_scan(monkeypatch, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(oracle, "BLOCK_ENTRIES", block_entries)
    for inst in edge_case_instances() + generated_instances():
        res = brute_force_optimal(inst)
        cost, best_mask, best_xs, nodes = ref_optimal(inst)
        assert res.optimal_cost.hex() == cost.hex()
        assert res.nodes_explored == nodes
        assert res.optimal_solution == oracle._solution_from_masks(best_mask, best_xs)
        rng = np.random.default_rng(nodes)
        for reserved in (
            res.optimal_solution.reserved,
            frozenset(),
            frozenset(range(inst.n_items)),
            frozenset(int(i) for i in np.flatnonzero(rng.random(inst.n_items) < 0.5)),
        ):
            sol, c = best_completion(inst, reserved)
            ref_sol, ref_c = ref_completion(inst, reserved)
            assert sol == ref_sol
            assert c.hex() == ref_c.hex()


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 7))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # spanning tree
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if others:
        edges += draw(st.lists(st.sampled_from(others), unique=True, max_size=8 - len(edges)))
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for u, v in edges]
    return MetricGraph(n, tuple(edges), (1.0,) * len(edges), root=draw(st.integers(0, n - 1)))


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs(), data=st.data())
def test_connecting_masks_agree_with_networkx(g, data):
    clients = frozenset(data.draw(st.sets(st.integers(0, g.n_vertices - 1))))
    ok = oracle._connecting_feasible(oracle._root_reach(g), [clients])
    assert ok.shape == (1, 1 << g.n_edges)
    feasible = set(np.flatnonzero(ok[0]).tolist())
    for x in range(1 << g.n_edges):
        h = nx.Graph()
        h.add_nodes_from(range(g.n_vertices))
        h.add_edges_from(g.edges[e] for e in range(g.n_edges) if x >> e & 1)
        reached = nx.node_connected_component(h, g.root)
        assert (x in feasible) == (clients <= reached)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_covering_masks_are_exactly_the_covers(data):
    n_elements = data.draw(st.integers(1, 6))
    elements = st.integers(0, n_elements - 1)
    sets = data.draw(st.lists(st.frozensets(elements, max_size=n_elements), min_size=1, max_size=7))
    clients = frozenset(data.draw(st.sets(elements)))
    inst = cover_instance(
        [1.0] * len(sets), sets, [(1.0, clients)], n_elements=n_elements
    )
    covered = frozenset().union(*sets)
    if not clients <= covered:
        with pytest.raises(InstanceError):
            oracle._covering_feasible(inst.incidence, [clients])
        return
    ok = oracle._covering_feasible(inst.incidence, [clients])
    assert ok.shape == (1, 1 << len(sets))
    feasible = set(np.flatnonzero(ok[0]).tolist())
    for x in range(1 << len(sets)):
        union = frozenset().union(*(sets[s] for s in range(len(sets)) if x >> s & 1))
        assert (x in feasible) == (clients <= union)


def test_steiner_reach_table_is_built_once_per_prepare(monkeypatch):
    inst = generate_instance("steiner", seed=1, n_vertices=7, n_edges=10, scenarios=4)
    calls = []
    real = oracle._root_reach

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(oracle, "_root_reach", counting)
    oracle._prepare(inst)
    assert len(calls) == 1
    brute_force_optimal(inst)
    best_completion(inst, frozenset({0}))
    assert len(calls) == 3


def test_block_scan_memory_stays_bounded():
    # a UFL scenario keeps up to all 2^16 facility sets as candidates, so an
    # uncapped block would hold rows x 65536 entries per scenario; the
    # nearest-distance and owner tables take 4 MiB and 1 MiB of it
    inst = generate_instance("ufl", seed=0, n_facilities=16, n_clients=8, scenarios=6)
    tracemalloc.start()
    try:
        brute_force_optimal(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


REAL_TOTALS = oracle._totals


def scanned_blocks(monkeypatch, inst):
    """The oracle's result, and each block of rows it passes to _totals with their totals."""
    blocks = []

    def record(prep, rows):
        total, xs = REAL_TOTALS(prep, rows)
        blocks.append((rows.copy(), total.copy()))
        return total, xs

    with monkeypatch.context() as m:
        m.setattr(oracle, "_totals", record)
        return brute_force_optimal(inst), blocks


# the exact workload's set cover and Steiner sizes, generator seeds 0-29
BOUNDED_SCAN_CASES = [
    (dict(kind="set_cover", n_elements=10, n_sets=11, scenarios=3), 27_000,
     "73666bf9dba98aad25b1f7715be0c1fae5da18c0af757caf9e26efabb4362ec4"),
    (dict(kind="steiner", n_vertices=7, n_edges=10, scenarios=3), 23_500,
     "52ef4e35c591363d879714e48efe6a49438ce8d8fab42b14e8ff9d5bda2a24ed"),
]


@pytest.mark.parametrize("params, max_rows, records", BOUNDED_SCAN_CASES, ids=["set_cover", "steiner"])
def test_scan_blocks_end_at_the_incumbents_first_stage_bound(monkeypatch, params, max_rows, records):
    # the scan stops at the first row whose first-stage cost reaches the
    # incumbent, so after the first block no block reads past that row; the
    # unbounded doubling blocks read 38,106 rows on the set cover corpus and
    # 28,205 on the Steiner one
    h = hashlib.sha256()
    scanned = later_blocks = 0
    for seed in range(30):
        inst = generate_instance(seed=seed, **params)
        res, blocks = scanned_blocks(monkeypatch, inst)
        fc = oracle._prepare(inst).first_vec
        sorted_fc = fc[np.argsort(fc, kind="stable")]
        end = blocks[0][0].size
        for i, (rows, _) in enumerate(blocks[1:], start=1):
            incumbent = np.fmin.reduce(np.concatenate([t for _, t in blocks[:i]]), initial=np.inf)
            end += rows.size
            assert end <= np.searchsorted(sorted_fc, incumbent, "left") + 1
            later_blocks += 1
        scanned += end
        h.update(repr(plain([res.optimal_cost.hex(), res.nodes_explored, res.optimal_solution])).encode() + b"\n")
    assert later_blocks > 0
    assert scanned <= max_rows
    # cost bytes, node counts and plans of the unbounded scan
    assert h.hexdigest() == records


# ---------------------------------------------------------------------------
# Minimal candidates.  The reference keeps every feasible set as a candidate:
# the same oracle with the pruning step replaced by the full feasible list.


def oracle_records(inst):
    """Cost bytes, node count, solution, and best_completion at four reservations."""
    res = brute_force_optimal(inst)
    out = [res.optimal_cost.hex(), res.nodes_explored, res.optimal_solution]
    rng = np.random.default_rng(res.nodes_explored)
    for reserved in (
        res.optimal_solution.reserved,
        frozenset(),
        frozenset(range(inst.n_items)),
        frozenset(int(i) for i in np.flatnonzero(rng.random(inst.n_items) < 0.5)),
    ):
        sol, cost = best_completion(inst, reserved)
        out += [sol, cost.hex()]
    return out


def keep_every_feasible_set(ok):
    return ok


def refuse(*args):
    return False


def unpruned_records(monkeypatch, inst):
    with monkeypatch.context() as m:
        m.setattr(oracle, "_minimal_masks", keep_every_feasible_set)
        m.setattr(oracle, "_ufl_pruning_is_exact", refuse)
        return oracle_records(inst)


def candidate_counts(inst):
    return [tab.masks.size for tab in oracle._prepare(inst).tables]


def odd_cycle_vc(rng, n, k):
    """Vertex cover on an odd cycle, equal weights, every edge demanded in
    scenario 0: the relaxation is 1/2 everywhere."""
    edges = tuple(tuple(sorted((v, (v + 1) % n))) for v in range(n))
    w = round(float(rng.uniform(1.0, 10.0)), 2)
    pairs = [(float(rng.uniform(0.2, 1.0)), range(n))]
    for _ in range(k - 1):
        members = [e for e in range(n) if rng.random() < 0.7] or [int(rng.integers(n))]
        pairs.append((float(rng.uniform(0.2, 1.0)), members))
    total = sum(p for p, _ in pairs)
    policy = CostPolicy(float(rng.uniform(0.3, 0.7)), float(rng.uniform(1.5, 3.0)), dict.fromkeys(range(n), w))
    return VertexCoverInstance(
        n, edges, (w,) * n, policy, ScenarioSet.explicit([(p / total, c) for p, c in pairs])
    )


def odd_cycle_ufl(sigma, fk, n=3):
    """Facility i at position 2i and client j at 2j + 1 of a 2n-cycle, hop
    distances: every client ties between two facilities at distance 1."""
    dist = [[float(min(abs(2 * i - 2 * j - 1), 2 * n - abs(2 * i - 2 * j - 1))) for j in range(n)]
            for i in range(n)]
    return UflInstance(
        open_cost=(2.0,) * n,
        scenario_open_cost=((fk,) * n,) * 2,
        distance=tuple(tuple(r) for r in dist),
        sigma=sigma,
        scenarios=ScenarioSet.explicit([(0.5, range(n)), (0.5, [0])]),
    )


def pruning_corpus():
    rng = np.random.default_rng(2024)
    out = []
    for seed in range(30):
        prices = {"sigma": float(rng.uniform(0.3, 0.7)), "lam": float(rng.uniform(1.5, 3.0))}
        out += [
            generate_instance("set_cover", seed=seed, n_elements=8, n_sets=8, scenarios=3, **prices),
            generate_instance("vertex_cover", seed=seed, n_vertices=8, n_edges=12, scenarios=3, **prices),
            generate_instance("steiner", seed=seed, n_vertices=6, n_edges=8, scenarios=3, **prices),
        ]
    out += [odd_cycle_vc(rng, n, k) for n, k in ((5, 2), (7, 3), (9, 3), (11, 4), (13, 3), (15, 2))]
    out += [odd_cycle_ufl(0.7, 2.5), odd_cycle_ufl(0.3, 4.0)]
    return out


def ufl_pruning_corpus():
    rng = np.random.default_rng(2025)
    out = [odd_cycle_ufl(0.6, 3.0, n) for n in (5, 7, 9)]
    for seed in range(6):
        sigma = float(rng.uniform(0.1, 0.9))
        out += [
            generate_instance("ufl", seed=seed, n_facilities=6, n_clients=5, scenarios=3, sigma=sigma),
            generate_instance("ufl", seed=seed, n_facilities=9, n_clients=7, scenarios=4, sigma=sigma),
            generate_instance("ufl", seed=seed, n_facilities=11, n_clients=8, scenarios=3),
        ]
    return out


def test_minimal_candidates_give_the_records_of_every_feasible_set(monkeypatch):
    pruned = 0
    corpus = pruning_corpus() + ufl_pruning_corpus()
    for inst in corpus:
        assert oracle_records(inst) == unpruned_records(monkeypatch, inst)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_minimal_masks", keep_every_feasible_set)
            m.setattr(oracle, "_ufl_pruning_is_exact", refuse)
            full = candidate_counts(inst)
        pruned += candidate_counts(inst) < full
    # every instance was pruned: 90 cover and Steiner, 6 odd-cycle vertex
    # cover, 2 + 3 odd-cycle UFL and 18 generated UFL
    assert pruned == len(corpus) == 119


def irredundant_sets(dist, clients):
    """Per-mask brute force: every facility of the set is strictly nearer to
    some demanded client than each other facility of the set."""
    n = len(dist)
    out = []
    for x in range(1 << n):
        members = [i for i in range(n) if x >> i & 1]
        if all(
            any(all(dist[i][j] < dist[o][j] for o in members if o != i) for j in clients)
            for i in members
        ):
            out.append(x)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nearest_fold_gives_the_nearest_distance_and_its_unique_owner(data):
    n = data.draw(st.integers(0, 8))
    c = data.draw(st.integers(1, 4))
    # values 0-3, so ties between facilities are common
    dist = np.array([[data.draw(st.integers(0, 3)) for _ in range(c)] for _ in range(n)], dtype=float)
    minc, owner = oracle._nearest_fold(dist.reshape(n, c))
    assert minc.shape == owner.shape == (c, 1 << n)  # client-major
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        for j in range(c):
            near = min((dist[i, j] for i in members), default=np.inf)
            assert minc[j, mask] == near
            nearest = [i for i in members if dist[i, j] == near]
            assert owner[j, mask] == (1 << nearest[0] if len(nearest) == 1 else 0)


def mask_first_ufl_tables(inst):
    """Each scenario's (masks, base) as built on (mask, client) tables: the
    nearest distances and owners folded over the lowest set bit, the price
    table by ``arange_fold``, and connection costs by ``minc[:, cols].sum(axis=1)``,
    which adds one client after another (numpy lays that gather out client-major)."""
    n, dist = inst.n_facilities, inst.dist
    minc = np.full((1 << n, dist.shape[1]), np.inf)
    owner = np.zeros(minc.shape, dtype=np.uint16)
    for k in range(n - 1, -1, -1):
        rest = np.arange(1 << (n - k - 1), dtype=np.int64) << (k + 1)
        near, old, row = minc[rest], owner[rest], dist[k]
        minc[rest | (1 << k)] = np.minimum(near, row)
        owner[rest | (1 << k)] = np.where(row < near, 1 << k, np.where(row > near, old, 0))
    f0 = np.array(inst.open_cost)
    out = []
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        fk = np.array(inst.scenario_open_cost[k])
        save = fk - (1.0 - inst.sigma) * f0
        price = arange_fold(np.zeros(1 << n), fk)
        cols = sorted(clients)
        conn = minc[:, cols].sum(axis=1) if clients else np.zeros(1 << n)
        masks = np.arange(1 << n, dtype=np.int64)
        if oracle._ufl_pruning_is_exact(fk, save, dist[:, cols]):
            masks = np.flatnonzero(np.bitwise_or.reduce(owner[:, cols], axis=1) == masks)
        out.append((masks, price[masks] + conn[masks]))
    return out


@pytest.mark.parametrize("client_prob", [0.5, 1.0])
@pytest.mark.parametrize("seed", range(4))
def test_ufl_scenario_tables_are_byte_equal_to_the_mask_first_formula(seed, client_prob):
    """At the exact workload's UFL size, every kept mask and its full-price
    cost.  With every client demanded, each cost sums 8 distances, where a
    summation order other than one client after another shows."""
    inst = generate_instance(
        "ufl", seed=seed, n_facilities=11, n_clients=8, scenarios=3, client_prob=client_prob
    )
    tables = oracle._prepare(inst).tables
    for tab, (masks, base) in zip(tables, mask_first_ufl_tables(inst), strict=True):
        assert tab.masks.tobytes() == masks.tobytes()
        assert tab.base.tobytes() == base.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ufl_candidates_are_exactly_the_irredundant_sets(data):
    n = data.draw(st.integers(1, 6))
    n_clients = data.draw(st.integers(1, 4))
    # distances within [1, 3] meet the triangle rule; few values give many ties
    values = st.sampled_from([1.0, 1.5, 2.0, 3.0])
    dist = [[data.draw(values) for _ in range(n_clients)] for _ in range(n)]
    client_sets = [data.draw(st.sets(st.integers(0, n_clients - 1))) for _ in range(2)]
    inst = UflInstance(
        open_cost=(1.0,) * n,
        scenario_open_cost=((2.0,) * n,) * 2,
        distance=tuple(tuple(r) for r in dist),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(0.5, c) for c in client_sets]),
    )
    for tab, clients in zip(oracle._prepare(inst).tables, client_sets):
        assert tab.masks.tolist() == irredundant_sets(dist, sorted(clients))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_minimal_masks_are_feasible_with_no_feasible_one_bit_removal(data):
    n = data.draw(st.integers(0, 7))
    rows = data.draw(st.integers(1, 3))  # one row per scenario; rows must not mix
    bits = st.lists(st.booleans(), min_size=rows << n, max_size=rows << n)
    stack = np.array(data.draw(bits)).reshape(rows, 1 << n)
    keep = oracle._minimal_masks(stack)
    assert keep.shape == stack.shape
    for ok, row in zip(stack, keep):
        kept = np.flatnonzero(row).tolist()
        assert kept == sorted(kept)
        for x in range(1 << n):
            removals = [x ^ (1 << i) for i in range(n) if x >> i & 1]
            assert (x in kept) == (ok[x] and not any(ok[y] for y in removals))


def test_minimal_masks_of_a_cover_are_its_inclusion_minimal_covers():
    # sets {0}, {1}, {0, 1}, {2}: element 0 or 1 and element 2 demanded
    inst = cover_instance([1.0] * 4, [{0}, {1}, {0, 1}, {2}], [(1.0, [0, 1, 2])], n_elements=3)
    ok = oracle._covering_feasible(inst.incidence, [frozenset({0, 1, 2})])
    assert np.flatnonzero(oracle._minimal_masks(ok)[0]).tolist() == [0b1011, 0b1100]


@pytest.mark.parametrize(
    "weights, sigma, lam",
    [
        ([1.0, 1e-17, 0.9], 0.5, 2.0),  # a weight far below the others' rounding error
        ([5e-324, 1.0], 0.5, 2.0),  # a subnormal weight
        ([1.0, 1.5, 0.7], 1.0 - 1e-15, 2.0),  # exercising saves almost nothing over recourse
        ([1.0, 2.0], 0.5, np.inf),
        ([1.0, np.nan], 0.5, 2.0),
        ([1e308, 1e308], 0.5, 2.0),  # the mass table overflows
        ([1e305, 1e305], 0.5, 2.0),  # too close to overflow for the bound
    ],
)
def test_certificate_refuses_where_rounding_could_decide(weights, sigma, lam):
    assert not oracle._pruning_is_exact(np.array(weights), lam, lam - 1.0 + sigma)


@pytest.mark.parametrize("weights", [[1.0, 0.0, 2.0], [0.0, 0.0], [1.0, 1e-3, 7.5], [1e-300, 1e-300]])
def test_certificate_accepts_zero_and_well_separated_weights(weights):
    assert oracle._pruning_is_exact(np.array(weights), 2.0, 2.0 - 1.0 + 0.5)


def test_zero_weight_items_are_pruned_and_tie_to_the_subset(monkeypatch):
    # set 1 weighs 0: every cover with it has a cover without it at the same
    # computed cost, and argmin must keep the subset
    inst = cover_instance(
        [1.0, 0.0, 2.0, 0.0],
        [{0}, {0, 1}, {1}, {2}],
        [(0.5, [0]), (0.3, [0, 1]), (0.2, [2])],
        n_elements=3,
    )
    assert candidate_counts(inst) == [2, 2, 1]
    assert oracle_records(inst) == unpruned_records(monkeypatch, inst)
    assert brute_force_optimal(inst).optimal_solution.stages[1].bought == frozenset({1})


# Instances where skipping the certificate changes the output: a superset's
# computed value comes out one ulp below its subset's.
INVERSIONS = [
    # a tiny weight absorbed by the table but not by the discount
    ([1.0 + 2**-52, 1e-16], [{0}, {1}], [(1.0, [0])], 0.9, 1.99),
    ([0.7362693427570925, 5.506107222650988e-17], [{0, 2}, {0, 1}],
     [(0.23019661760746515, [2]), (0.7698033823925349, [0, 1])], 0.9752046901799281, 2.6226251721122367),
    # lambda - c = 1 - sigma within a few ulps of zero
    ([1.4820375240680852, 1.979074945980562], [{1}, {0, 1}],
     [(0.8589510351810798, [1]), (0.14104896481892015, [0])], 0.9999999999999999, 1.7244082489413408),
]


@pytest.mark.parametrize("weights, sets, pairs, sigma, lam", INVERSIONS)
def test_certificate_falls_back_where_pruning_would_change_the_output(
    monkeypatch, weights, sets, pairs, sigma, lam
):
    inst = cover_instance(weights, sets, pairs, sigma=sigma, lam=lam, n_elements=3)
    reference = unpruned_records(monkeypatch, inst)
    assert oracle_records(inst) == reference
    with monkeypatch.context() as m:
        m.setattr(oracle, "_pruning_is_exact", lambda *args: True)
        forced = [oracle_records(inst)] + [
            best_completion(inst, frozenset(r)) for r in ({0}, {1}, {0, 1})
        ]
    full = [reference] + [best_completion(inst, frozenset(r)) for r in ({0}, {1}, {0, 1})]
    assert forced != full


@pytest.mark.parametrize(
    "f0, fk, dist",
    [
        ([1.0, 0.0], [2.0, 0.0], [[1.0], [2.0]]),  # a free facility
        ([1.0, 0.0], [2.0, 1.0], [[1.0], [2.0]]),  # free once reserved
        ([1.0, 1e-17], [2.0, 1e-17], [[1.0], [2.0]]),  # a price far below the rounding error
        ([1.0, 5e-324], [2.0, 5e-324], [[1.0], [2.0]]),  # a subnormal price
        ([1e-310, 1e-310], [2e-310, 2e-310], [[1e-310], [2e-310]]),  # subnormal, though separated
        ([1.0, 1.0], [2.0, np.nan], [[1.0], [2.0]]),
        ([1.0, 1.0], [2.0, 2.0], [[1.0], [np.nan]]),
        ([1.0, 1.0], [2.0, 2.0], [[1.0], [np.inf]]),
        ([1e305, 1e305], [2e305, 2e305], [[1.0], [2.0]]),  # too close to overflow for the bound
        ([1.0, 1.0], [2.0, 2.0], [[1e303], [2e303]]),  # so are the distances
    ],
)
def test_ufl_certificate_refuses_where_rounding_could_decide(f0, fk, dist):
    f0, fk = np.array(f0), np.array(fk)
    assert not oracle._ufl_pruning_is_exact(fk, fk - 0.5 * f0, np.array(dist))


@pytest.mark.parametrize(
    "f0, fk, dist",
    [
        ([1.0, 2.0], [2.5, 3.0], [[1.0, 2.0], [2.0, 1.0]]),
        ([1.0, 1e-3], [1.5, 7.5], [[0.0, 1e3], [5.0, 0.0]]),
        ([1.0], [1.0], np.zeros((1, 0))),  # no demanded client
    ],
)
def test_ufl_certificate_accepts_well_separated_prices(f0, fk, dist):
    f0, fk = np.array(f0), np.array(fk)
    assert oracle._ufl_pruning_is_exact(fk, fk - 0.5 * f0, np.array(dist))


def test_ufl_certificate_falls_back_where_pruning_would_change_the_output(monkeypatch):
    # Facility 1 is farther and nearly free.  Reserving both, {0, 1} costs
    # fl(fl(fl(1.5e-16 + 1.5) + 1.0) - fl(1.25e-16 + 1.0)), one ulp below
    # {0}'s 2.5 - 1.0: its price vanishes from the first sum, not the second.
    inst = UflInstance(
        open_cost=(1.0, 0.5e-16),
        scenario_open_cost=((1.5, 1.5e-16),),
        distance=((1.0,), (3.0,)),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(1.0, [0])]),
    )
    assert candidate_counts(inst) == [4]
    reference = unpruned_records(monkeypatch, inst)
    assert oracle_records(inst) == reference
    sol, cost = best_completion(inst, frozenset({0, 1}))
    assert sol.stages[0].bought == frozenset({0, 1}) and cost == 2.0 - 2.0**-52
    with monkeypatch.context() as m:
        m.setattr(oracle, "_ufl_pruning_is_exact", lambda *args: True)
        assert candidate_counts(inst) == [3]
        sol, cost = best_completion(inst, frozenset({0, 1}))
    assert sol.stages[0].bought == frozenset({0}) and cost == 2.0


def test_candidate_counts_are_pinned():
    # the exact workload's sizes; a change that widens the candidate lists
    # again fails here, not only in a timing
    cases = [
        (generate_instance("set_cover", seed=1, n_elements=10, n_sets=11, scenarios=3), [4, 10, 8]),
        (generate_instance("vertex_cover", seed=1, n_vertices=10, n_edges=16, scenarios=3), [6, 5, 9]),
        (generate_instance("steiner", seed=1, n_vertices=7, n_edges=10, scenarios=3), [17, 5, 17]),
        (generate_instance("ufl", seed=1, n_facilities=6, n_clients=5, scenarios=3), [7, 16, 20]),
        (generate_instance("ufl", seed=1, n_facilities=11, n_clients=8, scenarios=3), [372, 166, 76]),
    ]
    for inst, counts in cases:
        assert candidate_counts(inst) == counts


# ---------------------------------------------------------------------------
# Batched preparation.  The reference is the per-scenario loop it replaced:
# one covering bitmap built element by element per scenario, and one pass
# of the minimal-set filter per scenario.  Candidate arrays and every record
# must stay byte-equal.

REAL_PREPARE = oracle._prepare


def loop_covering_feasible(inst, clients, n):
    x = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(x.size, dtype=bool)
    for e in sorted(clients):
        cm = 0
        for s in covering_items(inst, e):
            cm |= 1 << s
        if cm == 0:
            raise InstanceError(f"element {e} is uncoverable")
        ok &= (x & cm) != 0
    return ok


def loop_connecting_feasible(reach, clients):
    need = 0
    for t in clients:
        need |= 1 << t
    ok = (reach & need) == need
    if not ok.any():
        raise InstanceError("no edge set connects the demanded terminals")
    return ok


def loop_minimal_masks(ok):
    keep = ok.copy()
    for k in range(ok.size.bit_length() - 1):
        keep.reshape(-1, 2, 1 << k)[:, 1] &= ~ok.reshape(-1, 2, 1 << k)[:, 0]
    return np.flatnonzero(keep)


def loop_root_reach(g):
    x = np.arange(1 << g.n_edges, dtype=np.int64)
    present = [(x >> e) & 1 == 1 for e in range(g.n_edges)]
    reach = np.full(x.size, 1 << g.root, dtype=np.int64)
    while True:
        before = reach.copy()
        for e, (u, v) in enumerate(g.edges):
            uv = (1 << u) | (1 << v)
            reach |= np.where(present[e] & ((reach & uv) != 0), uv, 0)
        if np.array_equal(before, reach):
            return reach


def loop_prepare(inst):
    if isinstance(inst, UflInstance):
        return REAL_PREPARE(inst)
    sigma, lam = inst.policy.sigma, inst.policy.lam
    steiner = isinstance(inst, SteinerInstance)
    w = np.array(inst.graph.weights if steiner else inst.weights, dtype=float)
    table = oracle._mass_table(w)
    c = lam - 1.0 + sigma
    save_table = c * table
    prune = oracle._pruning_is_exact(w, lam, c)
    if steiner:
        reach = loop_root_reach(inst.graph)
    tables = []
    for p, clients in inst.scenarios.scenarios:
        if steiner:
            ok = loop_connecting_feasible(reach, clients)
        else:
            ok = loop_covering_feasible(inst, clients, inst.n_items)
        masks = loop_minimal_masks(ok) if prune else np.flatnonzero(ok)
        tables.append(oracle._ScenarioTable(p, masks, lam * table[masks], save_table))
    return oracle._Prep(sigma * table, tables)


def certificate_holds(inst):
    g = getattr(inst, "graph", None)
    w = np.array(g.weights if g else inst.weights, dtype=float)
    sigma, lam = inst.policy.sigma, inst.policy.lam
    return oracle._pruning_is_exact(w, lam, lam - 1.0 + sigma)


def batched_corpus():
    rng = np.random.default_rng(99)
    out = []
    for seed in range(8):
        prices = {"sigma": float(rng.uniform(0.3, 0.7)), "lam": float(rng.uniform(1.5, 3.0))}
        out += [
            generate_instance("set_cover", seed=seed, n_elements=10, n_sets=11, scenarios=3, **prices),
            generate_instance("vertex_cover", seed=seed, n_vertices=10, n_edges=16, scenarios=3, **prices),
            generate_instance("steiner", seed=seed, n_vertices=7, n_edges=10, scenarios=3, **prices),
        ]
    out += [  # six scenarios
        generate_instance("set_cover", seed=1, n_elements=9, n_sets=11, scenarios=6, lam=3.0),
        generate_instance("vertex_cover", seed=2, n_vertices=9, n_edges=14, scenarios=6),
        generate_instance("steiner", seed=3, n_vertices=7, n_edges=10, scenarios=6),
    ]
    out += [  # sixteen items
        generate_instance("set_cover", seed=0, n_elements=24, n_sets=16, scenarios=6),
        generate_instance("vertex_cover", seed=4, n_vertices=16, n_edges=24, scenarios=4),
        generate_instance("steiner", seed=5, n_vertices=9, n_edges=16, scenarios=3),
    ]
    # an empty scenario and repeated client sets
    pairs = [(0.2, []), (0.3, [0, 2]), (0.1, [1]), (0.25, [0, 2]), (0.15, [1])]
    out.append(cover_instance([2.0, 1.5, 3.0, 1.0], [{0, 1}, {2}, {0, 1, 2}, {1}], pairs, n_elements=3))
    vc = generate_instance("vertex_cover", seed=6, n_vertices=7, n_edges=10, scenarios=1)
    out.append(VertexCoverInstance(vc.n_vertices, vc.edges, vc.weights, vc.policy, ScenarioSet.explicit(pairs)))
    st_ = generate_instance("steiner", seed=7, n_vertices=6, n_edges=8, scenarios=1)
    out.append(SteinerInstance(st_.graph, st_.policy, ScenarioSet.explicit(
        [(0.3, []), (0.2, [3, 5]), (0.3, [0]), (0.2, [5, 3])])))
    # zero-weight items
    out.append(cover_instance(
        [1.0, 0.0, 2.0, 0.0], [{0}, {0, 1}, {1}, {2}], [(0.5, [0]), (0.3, [0, 1]), (0.2, [2])],
        n_elements=3,
    ))
    # the certificate refuses, so every feasible set stays a candidate
    out += [
        cover_instance(weights, sets, pairs, sigma=sigma, lam=lam, n_elements=3)
        for weights, sets, pairs, sigma, lam in INVERSIONS
    ]
    return out


def test_batched_prepare_is_byte_identical_to_the_per_scenario_loop(monkeypatch):
    corpus = batched_corpus()
    assert sum(not certificate_holds(inst) for inst in corpus) == len(INVERSIONS)
    for inst in corpus:
        if isinstance(inst, SteinerInstance):
            assert oracle._root_reach(inst.graph).tolist() == loop_root_reach(inst.graph).tolist()
        new, ref = oracle._prepare(inst), loop_prepare(inst)
        assert new.first_vec.tobytes() == ref.first_vec.tobytes()
        assert len(new.tables) == len(ref.tables)
        for a, b in zip(new.tables, ref.tables):
            assert a.prob == b.prob
            assert a.masks.dtype == b.masks.dtype
            assert a.masks.tobytes() == b.masks.tobytes()
            assert a.base.tobytes() == b.base.tobytes()
            assert a.save_table.tobytes() == b.save_table.tobytes()
        with monkeypatch.context() as m:
            m.setattr(oracle, "_prepare", loop_prepare)
            reference = oracle_records(inst)
        assert oracle_records(inst) == reference


def test_uncoverable_element_is_reported_as_by_the_per_scenario_loop():
    # elements 2, 3 and 4 are in no set; scenario 1 is the first to demand
    # one, and 3 is its smallest
    inst = cover_instance(
        [1.0, 1.0], [{0}, {1}], [(0.4, [0, 1]), (0.3, [4, 3, 0]), (0.3, [2])], n_elements=5
    )
    with pytest.raises(InstanceError) as ref:
        loop_prepare(inst)
    for call in (brute_force_optimal, lambda i: best_completion(i, frozenset())):
        with pytest.raises(InstanceError) as new:
            call(inst)
        assert str(new.value) == str(ref.value) == "element 3 is uncoverable"


def test_unreachable_terminals_are_reported_as_by_the_per_scenario_loop():
    # a graph object that skips MetricGraph's connectivity check: vertex 3
    # never reaches the root
    g = SimpleNamespace(n_vertices=4, n_edges=2, edges=((0, 1), (2, 3)), root=0)
    reach = oracle._root_reach(g)
    assert reach.tolist() == loop_root_reach(g).tolist() == [0b1, 0b11, 0b1, 0b11]
    client_sets = [frozenset({1}), frozenset(), frozenset({1, 3})]
    with pytest.raises(InstanceError) as ref:
        for clients in client_sets:
            loop_connecting_feasible(reach, clients)
    with pytest.raises(InstanceError) as new:
        oracle._connecting_feasible(reach, client_sets)
    assert str(new.value) == str(ref.value)


def test_batched_cover_bitmaps_stay_small():
    # 16 sets, 6 scenarios over 23 demanded elements: one int64 row per
    # demanded element would alone take 23 x 2^16 x 8 bytes, 11.5 MiB
    inst = generate_instance("set_cover", seed=0, n_elements=24, n_sets=16, scenarios=6)
    assert len(frozenset().union(*(c for _, c in inst.scenarios.scenarios))) == 23
    tracemalloc.start()
    try:
        brute_force_optimal(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# The lowest-set-bit fold.  The reference is the fold it replaced: each pass
# gathers and scatters its masks through an index array.  The view-based fold
# must do the same float operations in the same order, so the tables are
# byte-equal.


def arange_fold(table, rows):
    n = len(rows)
    for k in range(n - 1, -1, -1):
        rest = np.arange(1 << (n - k - 1), dtype=np.int64) << (k + 1)
        table[rest | (1 << k)] = table[rest] + rows[k]
    return table


@pytest.mark.parametrize("n", [0, 1, 8, 11, 16])
def test_lowest_bit_fold_is_byte_equal_to_the_index_array_fold(n):
    rng = np.random.default_rng(n)
    # magnitudes spread over many binades, so any change of summation order shows
    weights = rng.random(n) * 10.0 ** rng.integers(-6, 7, size=n)
    mass = oracle._lowest_bit_fold(np.zeros(1 << n), weights)
    assert mass.tobytes() == arange_fold(np.zeros(1 << n), weights).tobytes()
    assert mass.tobytes() == oracle._mass_table(weights).tobytes()
    # a mask-last table of rows against the mask-first reference, transposed
    rows = rng.random((7, n)) * 10.0 ** rng.integers(-6, 7, size=(7, n))
    prices = oracle._lowest_bit_fold(np.zeros((7, 1 << n)), rows)
    assert prices.tobytes() == arange_fold(np.zeros((1 << n, 7)), rows.T).T.tobytes()


# ---------------------------------------------------------------------------
# Golden oracle records.  One SHA-256 over the oracle's records (cost bytes,
# nodes, solution, best_completion at four reservations) and over
# repeating_saa records with the exact inner solver.  A change to it is an
# output change: declare it in CHANGES.md and paste the new value.
GOLDEN_ORACLE_DIGEST = "4f91c52d8f0d228c2b820e6951d7db69c9ca8b5aca852624e8895dc2bf6c8fdf"


def golden_oracle_corpus():
    yield from generated_instances()
    yield from edge_case_instances()
    yield from pruning_corpus()
    yield from (odd_cycle_ufl(sigma, fk, n) for sigma, fk, n in ((0.6, 3.0, 5), (0.4, 5.5, 9), (0.5, 2.5, 11)))
    for seed in range(4):  # the exact workload's UFL size
        yield generate_instance("ufl", seed=seed, n_facilities=11, n_clients=8, scenarios=3)
    yield generate_instance("ufl", seed=0, n_facilities=16, n_clients=8, scenarios=3)


def exact_inner(inst):
    res = brute_force_optimal(inst)
    return res.optimal_solution.reserved, res.optimal_cost


def golden_saa_inputs():
    """Set cover and Steiner behind black-box samplers, with the exact inner solver."""
    for seed in range(3):
        for inst in (
            generate_instance("set_cover", seed=seed, n_elements=8, n_sets=8, scenarios=5),
            generate_instance("steiner", seed=seed, n_vertices=6, n_edges=8, scenarios=4),
        ):
            box = ScenarioSet.black_box_of(inst.scenarios)
            yield dataclasses.replace(inst, scenarios=box), SaaConfig(0.5, 0.1, 4, 40), 7 * seed


def plain(x):
    """Records as nested tuples of str and int: sets sorted, dataclasses by field."""
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    if dataclasses.is_dataclass(x):
        return tuple(plain(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    return x


def oracle_digest() -> str:
    h = hashlib.sha256()
    for inst in golden_oracle_corpus():
        h.update(repr(plain(oracle_records(inst))).encode() + b"\n")
    for inst, cfg, seed in golden_saa_inputs():
        res = repeating_saa(inst, exact_inner, cfg, seed=seed)
        rec = ([e.hex() for e in res.estimates], res.chosen_rep, res.candidates)
        h.update(repr(plain(rec)).encode() + b"\n")
    return h.hexdigest()


def test_oracle_matches_the_golden_digest():
    digest = oracle_digest()
    assert digest == GOLDEN_ORACLE_DIGEST, f'GOLDEN_ORACLE_DIGEST = "{digest}"'
