"""Covering-problem roundings: preprocessing, coupled rounds, thresholds,
scaled sampling, and the buy-all-reserved reduction.
"""
import math

import numpy as np
import pytest

from twostage.cover import (
    RecoursePlan,
    buy_all_reserved_reduction,
    classify_heavy,
    default_psi,
    double_randomized_round,
    half_mass_inflation_bound,
    prepare_cover,
    preprocess_half,
    round_for_cover,
    scale_factor,
    srinivasan_round_set_cover,
    srinivasan_round_vertex_cover,
    threshold_recourse_cover,
    threshold_round_vertex_cover,
)
from twostage.generators import generate_instance
from twostage.instances import SetCoverInstance, VertexCoverInstance
from twostage.lp_builders import FractionalCoverSolution, solve_cover_lp
from twostage.model import CostPolicy, ScenarioSet, check_feasible, evaluate_objective
from twostage.oracle import brute_force_optimal


def singleton_sc(weights=(1.0,), sets=({0},), pairs=((1.0, (0,)),), sigma=0.5, lam=2.0):
    return SetCoverInstance(
        n_elements=max((max(s) for s in sets if s), default=-1) + 1,
        sets=tuple(frozenset(s) for s in sets),
        weights=tuple(weights),
        policy=CostPolicy(sigma, lam, dict(enumerate(weights))),
        scenarios=ScenarioSet.explicit([(p, list(c)) for p, c in pairs]),
    )


def triangle_vc(sigma=0.5, lam=2.0, pairs=((0.5, (0, 1, 2)), (0.5, (0,)))):
    return VertexCoverInstance(
        n_vertices=3,
        edges=((0, 1), (1, 2), (0, 2)),
        weights=(1.0, 1.0, 1.0),
        policy=CostPolicy(sigma, lam, {0: 1.0, 1: 1.0, 2: 1.0}),
        scenarios=ScenarioSet.explicit([(p, list(c)) for p, c in pairs]),
    )


# -- preprocessing ----------------------------------------------------------


def test_inflation_bound_frozen_value():
    assert half_mass_inflation_bound(0.5, 2.0) == pytest.approx(2.5)
    # the companion formula alone gives 1.5 at these prices
    assert (2.0 + 0.5 - 1.0) / (2.0 - 2.0 * 0.5) == pytest.approx(1.5)


def test_uniform_solution_passes_through():
    inst = singleton_sc()
    sol = FractionalCoverSolution(
        inst, np.array([1.0]), np.array([[0.6]]), np.array([[0.4]]), value=1.1
    )
    out, rep = preprocess_half(sol)
    assert rep.inflation == 1.0
    assert np.array_equal(out.y, sol.y) and np.array_equal(out.z, sol.z)
    assert rep.heavy_elements == frozenset({0})
    assert rep.k_bound == pytest.approx(1.5)


def test_straddling_element_is_halved_out():
    # one covering set with exercised mass 0.8 in one scenario, 0.3 in the
    # other: after halving both sit below one half and the element leaves E
    inst = singleton_sc(pairs=((0.5, (0,)), (0.5, (0,))))
    sol = FractionalCoverSolution(
        inst,
        np.array([0.8]),
        np.array([[0.8], [0.3]]),
        np.array([[0.2], [0.7]]),
        value=1.0,
    )
    out, rep = preprocess_half(sol)
    assert out.y[0, 0] == pytest.approx(0.4)
    assert out.y[1, 0] == pytest.approx(0.15)
    assert rep.heavy_elements == frozenset()
    assert np.array_equal(out.y + out.z, sol.y + sol.z)  # mass moved, not lost
    assert np.array_equal(out.x, sol.x)


def test_mass_preserved_bit_for_bit_on_lp_optima():
    for seed in range(6):
        inst = generate_instance("set_cover", seed=seed, n_elements=6, n_sets=7, scenarios=3)
        sol = solve_cover_lp(inst)
        out, rep = preprocess_half(sol)
        assert np.array_equal(out.y + out.z, sol.y + sol.z)
        assert np.array_equal(out.x, sol.x)
        assert rep.inflation <= half_mass_inflation_bound(
            inst.policy.sigma, inst.policy.lam
        ) + 1e-9
        assert rep.inflation >= 1.0 - 1e-12


def test_exact_half_counts_as_heavy():
    inst = singleton_sc()
    sol = FractionalCoverSolution(
        inst, np.array([0.5]), np.array([[0.5]]), np.array([[0.5]]), value=1.0
    )
    assert classify_heavy(sol) == frozenset({0})


# -- double randomized rounding ----------------------------------------------


def test_integral_input_is_identity():
    inst = singleton_sc(weights=(1.0, 4.0), sets=({0}, {0}))
    sol = FractionalCoverSolution(
        inst,
        np.array([1.0, 0.0]),
        np.array([[1.0, 0.0]]),
        np.array([[0.0, 0.0]]),
        value=1.0,
    )
    stats = {}
    out = double_randomized_round(sol, seed=0, stats=stats)
    assert out.reserved == frozenset({0})
    assert out.stages[0].exercised == frozenset({0})
    assert out.stages[0].recoursed == frozenset()
    assert stats["stage1_rounds"] == 1


def test_y_equal_x_exercises_every_reserved_set():
    inst = singleton_sc(
        weights=(1.0, 1.0), sets=({0}, {0}), pairs=((1.0, (0,)),)
    )
    sol = FractionalCoverSolution(
        inst,
        np.array([0.7, 0.7]),
        np.array([[0.7, 0.7]]),
        np.array([[0.0, 0.0]]),
        value=1.0,
    )
    for seed in range(40):
        out = double_randomized_round(sol, seed=seed)
        assert out.stages[0].exercised == out.reserved
        assert not out.stages[0].recoursed


def test_round_count_stays_logarithmic():
    inst = generate_instance("set_cover", seed=1, n_elements=3, n_sets=4, scenarios=2)
    pre, _ = preprocess_half(solve_cover_lp(inst))
    counts = []
    for seed in range(2000):
        stats = {}
        double_randomized_round(pre, seed=seed, stats=stats)
        counts.append(stats["stage1_rounds"])
    assert float(np.mean(counts)) <= 2.0 * math.log(3) + 6.0


def test_double_round_always_feasible():
    for seed in range(4):
        inst = generate_instance("set_cover", seed=seed, n_elements=6, n_sets=7, scenarios=3)
        pre, _ = preprocess_half(solve_cover_lp(inst))
        for s in range(30):
            out = double_randomized_round(pre, seed=s)
            assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible
            for stage in out.stages:
                assert stage.exercised <= out.reserved


@pytest.mark.parametrize(
    "inst",
    [
        generate_instance("set_cover", seed=3, n_elements=8, n_sets=8, scenarios=3),
        generate_instance("vertex_cover", seed=3, n_vertices=8, n_edges=12, scenarios=3),
        triangle_vc(),
    ],
    ids=["set_cover", "vertex_cover", "triangle"],
)
def test_prepared_double_sample_equals_one_shot_rounding(inst):
    # prepare_cover takes the heavy set from preprocess_half's report and
    # builds the per-scenario replay odds once; one shared sampler must give
    # the plans and stats of rounding from scratch on every seed.
    sol = solve_cover_lp(inst)
    pre, _ = preprocess_half(sol)
    stats = {}
    sample = prepare_cover(inst, "double", sol, stats=stats)
    for seed in range(50):
        alone = {}
        assert sample(seed) == double_randomized_round(pre, seed=seed, stats=alone)
        assert stats == alone


def test_each_rounding_builds_the_incidence_once(monkeypatch):
    inst = generate_instance("set_cover", seed=3, n_elements=8, n_sets=8, scenarios=3)
    sol = solve_cover_lp(inst)
    builds = []
    real = SetCoverInstance.incidence
    monkeypatch.setattr(SetCoverInstance, "incidence", lambda self: builds.append(1) or real(self))
    sample = prepare_cover(inst, "double", sol)
    for seed in range(5):
        sample(seed)
    assert len(builds) == 1
    for seed in range(5):
        srinivasan_round_set_cover(sol, seed=seed)
    assert len(builds) == 6


# -- threshold rounding -------------------------------------------------------


def single_edge_vc(x=0.5):
    inst = VertexCoverInstance(
        n_vertices=2,
        edges=((0, 1),),
        weights=(1.0, 1.0),
        policy=CostPolicy(0.5, 2.0, {0: 1.0, 1: 1.0}),
        scenarios=ScenarioSet.explicit([(1.0, [0])]),
    )
    sol = FractionalCoverSolution(
        inst,
        np.array([x, x]),
        np.array([[x, x]]),
        np.array([[1.0 - x, 1.0 - x]]),
        value=1.0,
    )
    return inst, sol


def test_half_mass_edge_reserves_both_endpoints():
    inst, sol = single_edge_vc(0.5)
    out = threshold_round_vertex_cover(sol)
    assert out.reserved == frozenset({0, 1})
    assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible


def test_threshold_on_integral_input_is_identity():
    inst, _ = single_edge_vc()
    sol = FractionalCoverSolution(
        inst,
        np.array([1.0, 0.0]),
        np.array([[1.0, 0.0]]),
        np.array([[0.0, 0.0]]),
        value=1.0,
    )
    out = threshold_round_vertex_cover(sol)
    assert out.reserved == frozenset({0})
    assert out.stages[0].exercised == frozenset({0})
    assert out.stages[0].recoursed == frozenset()


def test_threshold_is_deterministic():
    inst = generate_instance("vertex_cover", seed=7, n_vertices=6, n_edges=8, scenarios=3)
    pre, _ = preprocess_half(solve_cover_lp(inst))
    assert threshold_round_vertex_cover(pre) == threshold_round_vertex_cover(pre)


def test_star_graph_within_four_k():
    # 5-vertex star, one scenario: bound 4k with k = 1.5 at these prices
    inst = VertexCoverInstance(
        n_vertices=5,
        edges=((0, 1), (0, 2), (0, 3), (0, 4)),
        weights=(1.0, 1.0, 1.0, 1.0, 1.0),
        policy=CostPolicy(0.5, 2.0, {v: 1.0 for v in range(5)}),
        scenarios=ScenarioSet.explicit([(1.0, [0, 1, 2, 3])]),
    )
    sol = solve_cover_lp(inst)
    pre, _ = preprocess_half(sol)
    out = threshold_round_vertex_cover(pre)
    assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible
    cost = evaluate_objective(out, inst.policy, inst.scenarios).total
    assert cost <= 4.0 * 1.5 * sol.value + 1e-9


def test_threshold_feasible_on_generated_suite():
    for seed in range(6):
        inst = generate_instance("vertex_cover", seed=seed, n_vertices=7, n_edges=10, scenarios=3)
        pre, _ = preprocess_half(solve_cover_lp(inst))
        out = threshold_round_vertex_cover(pre)
        assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible


# -- scaled independent sampling ----------------------------------------------


def test_scale_factor_frozen_values():
    assert scale_factor(8, psi=math.log(math.log(8.0))) == pytest.approx(2.81, abs=0.01)
    assert default_psi(6) == 1.0
    assert scale_factor(1) == 1.0  # floored for tiny universes


def test_saturated_values_buy_everything():
    # 8 elements makes L = ln 8 + 1 > 2, so every 0.5 saturates to 1
    everything = set(range(8))
    inst = singleton_sc(
        weights=(1.0, 1.0),
        sets=(everything, everything),
        pairs=((1.0, tuple(everything)),),
        lam=2.0,
    )
    sol = FractionalCoverSolution(
        inst,
        np.array([0.5, 0.5]),
        np.array([[0.5, 0.5]]),
        np.array([[0.5, 0.5]]),
        value=2.0,
    )
    outs = {srinivasan_round_set_cover(sol, seed=s) for s in range(10)}
    assert len(outs) == 1  # saturation leaves nothing to chance
    out = outs.pop()
    assert out.reserved == frozenset({0, 1})
    assert out.stages[0].exercised == frozenset({0, 1})


def test_repairs_are_rare_and_prerepair_cost_is_bounded():
    inst = generate_instance("set_cover", seed=4, n_elements=6, n_sets=8, scenarios=3)
    sol = solve_cover_lp(inst)
    repairs = 0
    pre_costs = []
    n_seeds = 600
    for seed in range(n_seeds):
        stats = {}
        out = srinivasan_round_set_cover(sol, seed=seed, stats=stats)
        assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible
        repairs += stats["scenarios_repaired"] > 0
        pre_costs.append(stats["pre_repair_value"])
    psi = default_psi(inst.n_elements)
    assert repairs / n_seeds <= math.exp(-psi) + 0.05
    assert float(np.mean(pre_costs)) <= scale_factor(inst.n_elements) * sol.value * 1.05


def test_vc_sampling_is_identity_on_integral_input():
    inst, _ = single_edge_vc()
    sol = FractionalCoverSolution(
        inst,
        np.array([1.0, 0.0]),
        np.array([[1.0, 0.0]]),
        np.array([[0.0, 0.0]]),
        value=1.0,
    )
    for seed in range(10):
        out = srinivasan_round_vertex_cover(sol, seed=seed)
        assert out.reserved == frozenset({0})
        assert out.stages[0].exercised == frozenset({0})
        assert not out.stages[0].recoursed


def test_vc_sampling_saturates_at_half():
    inst, sol = single_edge_vc(0.5)
    for seed in range(10):
        out = srinivasan_round_vertex_cover(sol, seed=seed)
        assert out.reserved == frozenset({0, 1})
        assert out.stages[0].exercised == frozenset({0, 1})


def test_vc_sampling_triangle_mean_within_twice_lp():
    inst = triangle_vc()
    sol = solve_cover_lp(inst)
    costs = []
    for seed in range(2000):
        out = srinivasan_round_vertex_cover(sol, seed=seed)
        assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible
        costs.append(evaluate_objective(out, inst.policy, inst.scenarios).total)
    assert float(np.mean(costs)) <= 2.0 * sol.value * 1.05


# -- buy-all-reserved reduction -----------------------------------------------


def test_reduction_factor_arithmetic():
    inst = generate_instance("vertex_cover", seed=2, n_vertices=5, n_edges=6, scenarios=2, sigma=0.9)

    def stub_solver(instance):
        plan = threshold_recourse_cover(instance)
        return RecoursePlan(plan.first_stage, plan.per_scenario, beta=2.0)

    stats = {}
    buy_all_reserved_reduction(stub_solver, inst, stats)
    assert stats["factor"] == pytest.approx(2.0 / 0.9)
    assert stats["factor"] <= 2.23


def test_reduction_exercises_everything_it_reserved():
    inst = generate_instance("set_cover", seed=6, n_elements=5, n_sets=6, scenarios=3)
    stats = {}
    out = buy_all_reserved_reduction(threshold_recourse_cover, inst, stats)
    for stage in out.stages:
        assert stage.exercised == out.reserved
    assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible


def test_reduction_ratio_vs_oracle_within_beta_over_sigma():
    for seed in range(8):
        inst = generate_instance(
            "vertex_cover", seed=seed, n_vertices=6, n_edges=8, scenarios=3, sigma=0.5
        )
        stats = {}
        out = round_for_cover(inst, "buyall", stats=stats)
        cost = evaluate_objective(out, inst.policy, inst.scenarios).total
        opt = brute_force_optimal(inst).optimal_cost
        assert cost <= stats["factor"] * opt + 1e-9
        assert stats["beta"] == 2.0  # every vertex-cover element has frequency 2


def test_single_scenario_reduction_is_deterministic_play():
    inst = generate_instance("set_cover", seed=1, n_elements=4, n_sets=5, scenarios=1)
    a = round_for_cover(inst, "buyall")
    b = round_for_cover(inst, "buyall")
    assert a == b
    assert len(a.stages) == 1


def test_round_for_cover_rejects_unknown_name():
    inst = generate_instance("set_cover", seed=0, n_elements=4, n_sets=5, scenarios=2)
    with pytest.raises(ValueError):
        round_for_cover(inst, "nope")
