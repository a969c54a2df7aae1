"""Instance generators and the JSON round-trip."""
import math
import re

import pytest

from twostage.generators import GENERATOR_KINDS, generate_instance
from twostage.instances import (
    InstanceError,
    SteinerInstance,
    UflInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)


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
