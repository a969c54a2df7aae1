"""Instance generators and the JSON round-trip."""
import dataclasses
import math
import re

import pytest

from twostage.generators import GENERATOR_KINDS, generate_instance
from twostage.instances import (
    InstanceError,
    MetricGraph,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from twostage.model import CostPolicy, ScenarioSet
from twostage.oracle import brute_force_optimal


@pytest.mark.parametrize("kind", sorted(GENERATOR_KINDS))
def test_same_seed_same_instance(kind):
    a = generate_instance(kind, seed=17)
    b = generate_instance(kind, seed=17)
    assert instance_to_dict(a) == instance_to_dict(b)
    assert instance_to_dict(generate_instance(kind, seed=18)) != instance_to_dict(a)


@pytest.mark.parametrize("kind", sorted(GENERATOR_KINDS))
def test_json_round_trip_is_exact(kind, tmp_path):
    inst = generate_instance(kind, seed=4)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert instance_to_dict(again) == instance_to_dict(inst)
    # a second save produces identical bytes
    path2 = tmp_path / "inst2.json"
    save_instance(again, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_policy_bounds_are_enforced():
    for kind in sorted(GENERATOR_KINDS):
        with pytest.raises(InstanceError):
            generate_instance(kind, seed=0, sigma=1.0)
        with pytest.raises(InstanceError):
            generate_instance(kind, seed=0, lam=1.0)


def test_unknown_kind_is_rejected():
    with pytest.raises(InstanceError):
        generate_instance("knapsack", seed=0)


@pytest.mark.parametrize(
    "kind, params, message",
    [("vertex_cover", {"bogus": 1}, "vertex_cover has no parameter 'bogus'; it takes ['client_prob',"),
     ("ufl", {"n_vertices": 5}, "ufl has no parameter 'n_vertices'"),
     ("set_cover", {"n_sets": "5"}, "set_cover parameter 'n_sets' must be int, got '5'"),
     ("steiner", {"n_vertices": 7.0}, "steiner parameter 'n_vertices' must be int, got 7.0"),
     ("set_cover", {"scenarios": True}, "set_cover parameter 'scenarios' must be int, got True"),
     ("vertex_cover", {"n_edges": 5.0}, "vertex_cover parameter 'n_edges' must be int | None, got 5.0"),
     ("ufl", {"sigma": "0.5"}, "ufl parameter 'sigma' must be float, got '0.5'"),
     ("steiner", {"client_prob": None}, "steiner parameter 'client_prob' must be float, got None"),
     ("set_cover", {"n_sets": 0}, "set_cover parameter 'n_sets' must be at least 1, got 0"),
     ("set_cover", {"n_elements": 1}, "set_cover parameter 'n_elements' must be at least 2, got 1"),
     ("set_cover", {"scenarios": -1}, "set_cover parameter 'scenarios' must be at least 0, got -1"),
     ("ufl", {"n_facilities": 0}, "ufl parameter 'n_facilities' must be at least 1, got 0"),
     ("ufl", {"n_clients": -1}, "ufl parameter 'n_clients' must be at least 0, got -1"),
     ("vertex_cover", {"n_vertices": 1}, "vertex_cover parameter 'n_vertices' must be at least 2, got 1"),
     ("steiner", {"n_vertices": 0}, "steiner parameter 'n_vertices' must be at least 1, got 0"),
     ("vertex_cover", {"n_edges": 0}, "vertex_cover parameter 'n_edges' must be in [1, 15], got 0"),
     ("steiner", {"n_edges": 2}, "steiner parameter 'n_edges' must be in [7, 28], got 2"),
     ("set_cover", {"client_prob": 2}, "set_cover parameter 'client_prob' must be in [0, 1], got 2"),
     ("ufl", {"lam": math.inf}, "lam must be finite and exceed 1, got inf"),
     ("steiner", {"sigma": math.nan}, "sigma must be in (0, 1), got nan")],
    ids=["unknown", "other-kinds-name", "string-count", "float-count", "bool-count",
         "float-n-edges", "string-sigma", "none-client-prob", "no-sets", "one-element",
         "negative-scenarios", "no-facilities", "negative-clients", "one-vertex",
         "no-steiner-vertex", "no-edges", "too-few-steiner-edges", "client-prob-above-1",
         "infinite-lam", "nan-sigma"],
)
def test_unknown_or_wrongly_typed_parameters_are_refused_by_name(kind, params, message):
    with pytest.raises(InstanceError) as exc:
        generate_instance(kind, seed=0, **params)
    assert str(exc.value).startswith(message)


def test_prices_take_ints_and_n_edges_takes_none():
    a = generate_instance("ufl", seed=3, sigma=0.5, lam=3.0, client_prob=1.0)
    b = generate_instance("ufl", seed=3, sigma=0.5, lam=3, client_prob=1)
    assert instance_to_dict(a) == instance_to_dict(b)
    assert instance_to_dict(generate_instance("steiner", seed=3, n_edges=None)) == instance_to_dict(
        generate_instance("steiner", seed=3)
    )


def test_ufl_shapes_and_markups():
    inst = generate_instance("ufl", seed=9, n_facilities=3, n_clients=4, scenarios=2)
    assert isinstance(inst, UflInstance)
    assert inst.n_facilities == 3 and inst.n_clients == 4
    assert len(inst.scenarios) == 2
    for row in inst.scenario_open_cost:
        assert all(fk > f0 for f0, fk in zip(inst.open_cost, row))
    assert inst.lam > 1.0


def test_steiner_graphs_are_connected_and_rootless_demand():
    for seed in range(8):
        inst = generate_instance("steiner", seed=seed, n_vertices=7)
        assert isinstance(inst, SteinerInstance)
        # construction plants a spanning tree; the validator would raise
        # otherwise, so just confirm demand never includes the root
        for _, clients in inst.scenarios.scenarios:
            assert inst.graph.root not in clients


def test_scenario_probabilities_are_normalized():
    for kind in sorted(GENERATOR_KINDS):
        inst = generate_instance(kind, seed=3, scenarios=4)
        probs = [p for p, _ in inst.scenarios.scenarios]
        assert sum(probs) == pytest.approx(1.0)
        assert all(p > 0 for p in probs)


def test_from_dict_reports_missing_keys():
    with pytest.raises(InstanceError):
        instance_from_dict({"kind": "set_cover"})
    with pytest.raises(InstanceError):
        instance_from_dict({"kind": "martian", "scenarios": []})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field, index",
    [("open_cost", (0,)), ("open_cost", (3,)), ("scenario_open_cost", (0, 0)),
     ("scenario_open_cost", (2, 1)), ("distance", (0, 0)), ("distance", (3, 5))],
    ids=["open_cost[0]", "open_cost[3]", "scenario_open_cost[0][0]",
         "scenario_open_cost[2][1]", "distance[0][0]", "distance[3][5]"],
)
def test_ufl_refuses_non_finite_data_naming_field_and_index(field, index, bad):
    raw = instance_to_dict(generate_instance("ufl", seed=1))
    leaf = raw[field]
    for i in index[:-1]:
        leaf = leaf[i]
    leaf[index[-1]] = bad
    label = field + "".join(f"[{i}]" for i in index)
    with pytest.raises(InstanceError, match=re.escape(label) + " must be finite"):
        instance_from_dict(raw)


@pytest.mark.parametrize("kind", ["set_cover", "vertex_cover", "steiner"])
def test_an_infinite_lambda_is_refused(kind):
    raw = instance_to_dict(generate_instance(kind, seed=1))
    raw["lambda"] = math.inf
    with pytest.raises(ValueError, match="lambda must be finite"):
        instance_from_dict(raw)


def test_set_cover_refuses_ground_weights_that_differ_from_its_weights():
    # one store said 1, the other 100: the LP and the oracle read 2.0 and the
    # buy-all plan cost 200.0, a ratio of 100 against a certified bound
    with pytest.raises(InstanceError, match=r"^item 0: ground weight 100.0 differs from its weight 1.0$"):
        SetCoverInstance(
            1, (frozenset({0}), frozenset({0})), (1.0, 1.0),
            CostPolicy(0.5, 2.0, {0: 100.0, 1: 100.0}), ScenarioSet.explicit([(1.0, [0])]),
        )


@pytest.mark.parametrize("kind", ["set_cover", "vertex_cover", "steiner"])
@pytest.mark.parametrize("change", ["other", "missing", "extra"])
def test_ground_weights_must_be_the_item_weights(kind, change):
    inst = generate_instance(kind, seed=1)
    ground = dict(inst.policy.ground_weight)
    last = max(ground)
    if change == "other":
        ground[last] += 1.0
    elif change == "missing":
        del ground[last]
    else:
        last += 1
        ground[last] = 1.0
    policy = CostPolicy(inst.policy.sigma, inst.policy.lam, ground)
    with pytest.raises(InstanceError, match=f"^item {last}: ground weight"):
        dataclasses.replace(inst, policy=policy)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metric_graph_refuses_non_finite_weights(bad):
    with pytest.raises(InstanceError, match=r"^weights\[1\] must be finite"):
        MetricGraph(3, ((0, 1), (1, 2)), (1.0, bad))


def test_ufl_refuses_a_negative_opening_price_without_scenarios():
    # the check used to sit inside the loop over scenario price rows, and the
    # oracle answered -2.5 here
    with pytest.raises(InstanceError, match=r"^facility 0: need f\^0 >= 0, got -5.0$"):
        UflInstance((-5.0, 2.0), (), ((1.0,), (2.0,)), 0.5, ScenarioSet.explicit([]))
    free = UflInstance((0.0, 2.0), (), ((1.0,), (2.0,)), 0.5, ScenarioSet.explicit([]))
    assert brute_force_optimal(free).optimal_cost == 0.0


def test_ufl_lambda_key_must_match_the_prices():
    raw = instance_to_dict(generate_instance("ufl", seed=1))
    lam = raw["lambda"]
    for near in (lam, lam * (1.0 + 1e-12)):
        raw["lambda"] = near
        assert instance_from_dict(raw).lam == lam
    del raw["lambda"]
    assert instance_from_dict(raw).lam == lam
    for edited in (50, lam * (1.0 + 1e-8), math.inf):
        raw["lambda"] = edited
        with pytest.raises(InstanceError, match=f"^lambda {edited} differs from the {lam} the prices give$"):
            instance_from_dict(raw)
