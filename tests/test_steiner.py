"""Tree reservation: closure-MST rounding, sampled unions, buy-all plans."""
import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import bench
from twostage.cover import buy_all_reserved_reduction
from twostage.generators import generate_instance
from twostage.instances import InstanceError, MetricGraph
from twostage.model import CostPolicy, ScenarioSet, check_feasible, evaluate_objective
from twostage.steiner import (
    MST_FACTOR,
    mst_recourse_steiner,
    mst_steiner_approx,
    sampling_heuristic,
)


def path_graph(*weights):
    n = len(weights) + 1
    return MetricGraph(n, tuple((i, i + 1) for i in range(n - 1)), tuple(weights))


def tree_cost(g, edges):
    return math.fsum(g.weights[e] for e in edges)


def nx_graph(g, price=None):
    """The graph as networkx sees it: the cheapest of each set of parallel
    edges, under the given edge prices (ground weights by default)."""
    price = g.weights if price is None else price
    out = nx.Graph()
    out.add_nodes_from(range(g.n_vertices))
    for (u, v), w in zip(g.edges, price):
        if not out.has_edge(u, v) or w < out[u][v]["weight"]:
            out.add_edge(u, v, weight=float(w))
    return out


def closure_mst_cost(g, terminals):
    """Weight of the minimum spanning tree of the metric closure on the
    root and the terminals, computed by networkx."""
    dist = dict(nx.all_pairs_dijkstra_path_length(nx_graph(g)))
    closure = nx.Graph()
    nodes = sorted(set(terminals) | {g.root})
    closure.add_nodes_from(nodes)
    closure.add_weighted_edges_from((a, b, dist[a][b]) for a, b in itertools.combinations(nodes, 2))
    return nx.minimum_spanning_tree(closure).size(weight="weight")


def twelve_instances_and_terminals():
    for seed in range(12):
        inst = generate_instance("steiner", seed=seed, n_vertices=9)
        rng = np.random.default_rng(seed)
        yield inst, {int(v) for v in rng.choice(inst.graph.n_vertices, size=4)}


def test_no_terminals_no_edges():
    g = path_graph(1.0, 2.0)
    assert mst_steiner_approx(g, frozenset()) == frozenset()
    assert mst_steiner_approx(g, {g.root}) == frozenset()


def test_single_terminal_takes_the_shortest_path():
    # direct root edge is overpriced; the two-hop path wins
    g = MetricGraph(3, ((0, 1), (1, 2), (0, 2)), (1.0, 1.0, 5.0))
    assert mst_steiner_approx(g, {2}) == frozenset({0, 1})


def test_shared_stem_is_bought_once():
    g = MetricGraph(4, ((0, 1), (1, 2), (1, 3)), (2.0, 1.0, 1.0))
    bought = mst_steiner_approx(g, {2, 3})
    assert bought == frozenset({0, 1, 2})
    # closure tree pays the stem twice (3 + 2); the expansion shares it
    assert closure_mst_cost(g, {2, 3}) == pytest.approx(5.0)
    assert tree_cost(g, bought) == pytest.approx(4.0)


def test_mst_expansion_covers_terminals_within_the_closure_mst():
    for inst, terms in twelve_instances_and_terminals():
        g = inst.graph
        bought = mst_steiner_approx(g, terms)
        assert inst.covers_demand(frozenset(terms), bought)
        # path expansion never exceeds the closure tree it came from
        assert tree_cost(g, bought) <= closure_mst_cost(g, terms) + 1e-9


def test_shortest_paths_match_networkx():
    # edges 2 and 6 tie as the cheapest 0-1 edges, edges 1 and 4 as the 1-2 ones
    parallel = MetricGraph(
        4,
        ((0, 1), (1, 2), (0, 1), (2, 3), (1, 2), (0, 3), (0, 1)),
        (3.0, 2.0, 1.0, 1.5, 2.0, 9.0, 1.0),
    )
    graphs = [inst.graph for inst, _ in twelve_instances_and_terminals()] + [parallel]
    for i, g in enumerate(graphs):
        rng = np.random.default_rng(i)
        for price in (None, rng.uniform(0.0, 3.0, g.n_edges)):
            d, hop = g.shortest_paths(price)
            ref = dict(nx.all_pairs_dijkstra_path_length(nx_graph(g, price)))
            p = g.weights if price is None else price
            for u, v in itertools.product(range(g.n_vertices), repeat=2):
                assert d[u, v] == pytest.approx(ref[u][v], abs=1e-9)
                # the reconstructed path costs what the distance says
                path = g.path_edges(hop, u, v)
                assert math.fsum(p[e] for e in path) == pytest.approx(d[u, v], abs=1e-9)
                # each hop takes the first of its cheapest parallel edges
                for e in path:
                    twins = [f for f, uv in enumerate(g.edges) if set(uv) == set(g.edges[e])]
                    assert e == min(twins, key=lambda f: (p[f], f))


def test_unpriced_edge_is_unreachable():
    g = path_graph(1.0)
    with pytest.raises(InstanceError):
        mst_steiner_approx(g, {1}, edge_price=np.array([math.inf]))


def test_draw_count_follows_markup_ratio():
    g = path_graph(1.0)
    scen = ScenarioSet.explicit([(1.0, [1])])
    w = {0: 1.0}
    plan = sampling_heuristic(g, CostPolicy(0.75, 1.5, w), scen, seed=0)
    assert len(plan.draws) == 2
    plan = sampling_heuristic(g, CostPolicy(0.5, 3.0, w), scen, seed=0)
    assert len(plan.draws) == 6


def test_an_empty_explicit_set_draws_nothing_and_a_black_box_still_draws():
    g = path_graph(1.0)
    policy = CostPolicy(0.5, 3.0, {0: 1.0})
    plan = sampling_heuristic(g, policy, ScenarioSet.explicit([]), seed=0)
    assert plan.draws == () and plan.first_stage == frozenset()
    box = ScenarioSet.black_box(lambda rng: frozenset({int(rng.integers(2))}))
    assert len(sampling_heuristic(g, policy, box, seed=0).draws) == 6


def test_sampling_plan_is_feasible_and_reproducible():
    for seed in range(6):
        inst = generate_instance("steiner", seed=seed, n_vertices=8, scenarios=3)
        plan = sampling_heuristic(inst.graph, inst.policy, inst.scenarios, seed=seed)
        again = sampling_heuristic(inst.graph, inst.policy, inst.scenarios, seed=seed)
        assert plan.first_stage == again.first_stage
        assert plan.draws == again.draws
        sol = plan.solution_for(inst.scenarios)
        report = check_feasible(sol, inst.scenarios, inst.covers_demand)
        assert report.feasible, report
        for stage in sol.stages:
            assert stage.exercised <= plan.first_stage
            assert not stage.recoursed & plan.first_stage


def test_stage_two_prices_steer_through_reservations():
    # two routes to the terminal; the reserved one is dearer on the ground
    # but cheap to exercise, so stage two must pick it
    g = MetricGraph(3, ((0, 1), (1, 2), (0, 2)), (1.2, 1.2, 3.0))
    policy = CostPolicy(0.5, 2.0, {0: 1.2, 1: 1.2, 2: 3.0})
    scen = ScenarioSet.explicit([(1.0, [2])])
    plan = sampling_heuristic(g, policy, scen, seed=0)
    assert plan.first_stage == frozenset({0, 1})
    stage = plan.decide(frozenset({2}))
    assert stage.exercised == frozenset({0, 1})
    assert stage.recoursed == frozenset()


def test_recourse_plan_picks_the_cheaper_arm():
    g = path_graph(1.0)
    policy = CostPolicy(0.5, 2.0, {0: 1.0})
    always = generate_scen = ScenarioSet.explicit([(1.0, [1])])
    from twostage.instances import SteinerInstance

    inst = SteinerInstance(g, policy, always)
    plan = mst_recourse_steiner(inst)
    assert plan.first_stage == frozenset({0})
    assert plan.per_scenario == (frozenset(),)
    assert plan.beta == pytest.approx(MST_FACTOR * 2.0)

    rare = ScenarioSet.explicit([(0.9, []), (0.1, [1])])
    inst2 = SteinerInstance(g, policy, rare)
    plan2 = mst_recourse_steiner(inst2)
    assert plan2.first_stage == frozenset()
    assert plan2.per_scenario == (frozenset(), frozenset({0}))


def test_ignore_revocation_exercises_everything():
    g = path_graph(1.0, 1.0)
    policy = CostPolicy(0.9, 2.0, {0: 1.0, 1: 1.0})
    scen = ScenarioSet.explicit([(0.5, [1]), (0.5, [2])])
    from twostage.instances import SteinerInstance

    inst = SteinerInstance(g, policy, scen)
    plan = mst_recourse_steiner(inst)
    sol = buy_all_reserved_reduction(plan)
    assert plan.beta == pytest.approx(4.0)
    # the registry certifies beta / sigma per run, against the optimum
    _, _, bound, basis, registered = bench.prepare(inst, "steiner-buyall").sample(0)
    assert (bound, basis, registered) == (pytest.approx(4.0 / 0.9), "oracle", sol)
    for stage in sol.stages:
        assert stage.exercised == sol.reserved
    assert check_feasible(sol, scen, inst.covers_demand).feasible
    # committed reservations cost full freight either way
    bd = evaluate_objective(sol, policy, scen)
    assert bd.first_stage + bd.expected_exercise == pytest.approx(
        policy.weight(sol.reserved)
    )


@st.composite
def graph_edges(draw, connected):
    """Edge lists on at most 8 vertices, spanning-tree based when connected."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if connected else []
    extra = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    edges = draw(st.permutations(tree + extra))
    return n, tuple(edges)


@settings(max_examples=80, deadline=None)
@given(shape=graph_edges(connected=True), data=st.data())
def test_reaches_agrees_with_networkx(shape, data):
    n, edges = shape
    g = MetricGraph(n, edges, (1.0,) * len(edges), root=data.draw(st.integers(0, n - 1)))
    items = data.draw(st.sets(st.integers(0, len(edges) - 1))) if edges else set()
    vertices = data.draw(st.sets(st.integers(0, n - 1)))
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges[e] for e in items)
    assert g.reaches(items, vertices) == (vertices <= nx.node_connected_component(h, g.root))


@settings(max_examples=80, deadline=None)
@given(shape=graph_edges(connected=False))
def test_only_connected_graphs_are_accepted(shape):
    n, edges = shape
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    if nx.is_connected(h):
        MetricGraph(n, edges, (1.0,) * len(edges))
    else:
        with pytest.raises(InstanceError, match="^graph must be connected$"):
            MetricGraph(n, edges, (1.0,) * len(edges))
