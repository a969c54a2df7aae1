"""Covering-problem roundings: preprocessing, coupled rounds, thresholds,
scaled sampling, and the buy-all-reserved reduction.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import bench
from twostage.cover import (
    buy_all_reserved_reduction,
    classify_heavy,
    default_psi,
    double_sampler,
    half_mass_inflation_bound,
    preprocess_half,
    scale_factor,
    srinivasan_sampler,
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
    # the transfer cap (lam + sigma - 1)/(2 - 2 sigma) is 1.5 here
    assert (2.0 + 0.5 - 1.0) / (2.0 - 2.0 * 0.5) == pytest.approx(1.5)


def test_inflation_bound_has_the_bytes_of_the_three_way_max():
    # The bound was once the max of both formulas and 1; in floats the one
    # formula left always wins it, from subnormal sigma to lam near 1e308.
    rng = np.random.default_rng(0)
    sigmas = [5e-324, 1e-300, 1e-17, 2.0**-53, 1e-9, 0.1, 0.5, 0.9, 1 - 1e-9, 1 - 2.0**-53]
    sigmas += [float(x) for x in rng.uniform(0.0, 1.0, 190) if x > 0.0]
    lams = [math.nextafter(1.0, 2.0), 1.0000001, 1.5, 2.0, 3.0, 1e3, 1e16, 1e100, 1e308]
    lams += [float(x) for x in np.exp(rng.uniform(0.0, math.log(1e308), 191))]
    for sigma in sigmas:
        for lam in lams:
            old = max(
                (lam + sigma - 1.0) / (2.0 - 2.0 * sigma),
                (lam + 1.0 - sigma) / (2.0 - 2.0 * sigma),
                1.0,
            )
            assert half_mass_inflation_bound(sigma, lam).hex() == old.hex(), (sigma, lam)


def test_uniform_solution_passes_through():
    inst = singleton_sc()
    sol = FractionalCoverSolution(
        inst, np.array([1.0]), np.array([[0.6]]), np.array([[0.4]]), value=1.1
    )
    out, rep = preprocess_half(sol)
    assert rep.inflation == 1.0
    assert np.array_equal(out.y, sol.y) and np.array_equal(out.z, sol.z)
    assert rep.heavy_elements == frozenset({0})


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
    out = double_sampler(sol)(0, stats)
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
    sample = double_sampler(sol)
    for seed in range(40):
        out = sample(seed)
        assert out.stages[0].exercised == out.reserved
        assert not out.stages[0].recoursed


def test_round_count_stays_logarithmic():
    inst = generate_instance("set_cover", seed=1, n_elements=3, n_sets=4, scenarios=2)
    pre, _ = preprocess_half(solve_cover_lp(inst))
    sample = double_sampler(pre)
    counts = []
    for seed in range(2000):
        stats = {}
        sample(seed, stats)
        counts.append(stats["stage1_rounds"])
    assert float(np.mean(counts)) <= 2.0 * math.log(3) + 6.0


def test_double_round_always_feasible():
    for seed in range(4):
        inst = generate_instance("set_cover", seed=seed, n_elements=6, n_sets=7, scenarios=3)
        sample = double_sampler(preprocess_half(solve_cover_lp(inst))[0])
        for s in range(30):
            out = sample(s)
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
    # The registered double builds its sampler once; one shared sampler must
    # give the plans and stats of a sampler built afresh for every seed.
    pre, _ = preprocess_half(solve_cover_lp(inst))
    registered = bench.prepare(inst, "double").sample
    stats = {}
    sample = double_sampler(pre)
    for seed in range(50):
        alone = {}
        expected = double_sampler(pre)(seed, alone)
        assert registered(seed)[4] == expected
        assert sample(seed, stats) == expected
        assert stats == alone


def test_each_rounding_builds_the_incidence_once(monkeypatch):
    # The relaxation, every rounding's preparation and samples, and the oracle
    # all read one cached matrix per instance, built on first use.
    for kind, params, algorithms in [
        ("set_cover", {"n_elements": 8, "n_sets": 8}, ("double", "srini-sc", "buyall")),
        ("vertex_cover", {"n_vertices": 8}, ("double", "threshold", "srini-vc", "buyall")),
    ]:
        inst = generate_instance(kind, seed=3, scenarios=3, **params)
        prop = type(inst).__dict__["incidence"]
        builds = []
        monkeypatch.setattr(prop, "func", lambda self, real=prop.func: builds.append(1) or real(self))
        for algorithm in algorithms:
            sample = bench.prepare(inst, algorithm).sample
            for seed in range(5):
                sample(seed)
        brute_force_optimal(inst)
        assert len(builds) == 1, kind


def test_incidence_and_distances_are_read_only():
    # built once per instance and shared by every reader, so no reader may write
    for kind, name in [("set_cover", "incidence"), ("vertex_cover", "incidence"), ("ufl", "dist")]:
        inst = generate_instance(kind, seed=0)
        table = getattr(inst, name)
        assert getattr(inst, name) is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = table[0, 0]


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
    assert scale_factor(8) == math.log(8) + 1.0  # ln ln 8 < 1, so psi is 1
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
    sample = srinivasan_sampler(sol)
    outs = {sample(s) for s in range(10)}
    assert len(outs) == 1  # saturation leaves nothing to chance
    out = outs.pop()
    assert out.reserved == frozenset({0, 1})
    assert out.stages[0].exercised == frozenset({0, 1})


def test_srini_sc_coins_fire_on_the_fano_plane():
    # The seven lines of the Fano plane cover its seven points; the LP's
    # unique optimum is x = 1/3, so with L = ln 7 + 1 every set is reserved
    # with probability about 0.98 and the plan depends on the seed.
    lines = ({0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5})
    inst = singleton_sc(weights=(1.0,) * 7, sets=lines, pairs=((1.0, range(7)),))
    sol = solve_cover_lp(inst)
    assert np.allclose(sol.x, 1.0 / 3.0)
    sample = srinivasan_sampler(sol)
    plans = {sample(s) for s in range(20)}
    assert len(plans) > 1
    for plan in plans:
        assert check_feasible(plan, inst.scenarios, inst.covers_demand).feasible


def test_repairs_are_rare_and_prerepair_cost_is_bounded():
    inst = generate_instance("set_cover", seed=4, n_elements=6, n_sets=8, scenarios=3)
    sol = solve_cover_lp(inst)
    repairs = 0
    pre_costs = []
    n_seeds = 600
    sample = srinivasan_sampler(sol)
    for seed in range(n_seeds):
        stats = {}
        out = sample(seed, stats)
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
    out = srinivasan_round_vertex_cover(sol)
    assert out.reserved == frozenset({0})
    assert out.stages[0].exercised == frozenset({0})
    assert not out.stages[0].recoursed


def test_vc_sampling_saturates_at_half():
    inst, sol = single_edge_vc(0.5)
    out = srinivasan_round_vertex_cover(sol)
    assert out.reserved == frozenset({0, 1})
    assert out.stages[0].exercised == frozenset({0, 1})


def test_vc_sampling_triangle_mean_within_twice_lp():
    inst = triangle_vc()
    sol = solve_cover_lp(inst)
    out = srinivasan_round_vertex_cover(sol)
    assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible
    assert evaluate_objective(out, inst.policy, inst.scenarios).total <= 2.0 * sol.value + 1e-9


@st.composite
def small_vertex_covers(draw):
    """Random graphs on up to 12 vertices, with any sigma in (0, 1), any
    lambda in (1, 10] and one to four scenarios of random edge subsets."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=20, unique=True))
    weights = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    sigma = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    lam = draw(st.floats(1.0, 10.0, exclude_min=True))
    k = draw(st.integers(1, 4))
    demand = st.lists(st.integers(0, len(edges) - 1), min_size=1, unique=True)
    clients = draw(st.lists(demand, min_size=k, max_size=k))
    mass = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    return VertexCoverInstance(
        n,
        tuple(edges),
        tuple(weights),
        CostPolicy(sigma, lam, dict(enumerate(weights))),
        ScenarioSet.explicit(zip([m / sum(mass) for m in mass], clients)),
    )


@settings(max_examples=300, deadline=None)
@given(inst=small_vertex_covers())
def test_vertex_cover_relaxation_is_half_integral_and_srini_vc_within_twice_lp(inst):
    # srini-vc rounds up at 1/2 with no coins, which is the scale-and-sample
    # rounding only because every relaxation value sits on the half grid.
    sol = solve_cover_lp(inst)
    values = np.concatenate([sol.x, sol.y.ravel(), sol.z.ravel()])
    assert np.all(np.abs(values - np.round(2.0 * values) / 2.0) <= 1e-9), values
    assert np.all((values > -1e-9) & (values < 1.0 + 1e-9)), values
    out = srinivasan_round_vertex_cover(sol)
    assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible
    cost = evaluate_objective(out, inst.policy, inst.scenarios).total
    assert cost <= 2.0 * sol.value * (1.0 + 1e-12) + 1e-9, cost / sol.value


# -- buy-all-reserved reduction -----------------------------------------------


def test_reduction_factor_arithmetic():
    inst = generate_instance("vertex_cover", seed=2, n_vertices=5, n_edges=6, scenarios=2, sigma=0.9)
    plan = threshold_recourse_cover(inst)
    assert plan.beta == 2.0
    # the registry certifies beta / sigma per run, against the optimum
    _, _, bound, basis, sol = bench.prepare(inst, "buyall").sample(0)
    assert bound == pytest.approx(2.0 / 0.9)
    assert bound <= 2.23
    assert basis == "oracle"
    assert sol == buy_all_reserved_reduction(plan)


def test_reduction_exercises_everything_it_reserved():
    inst = generate_instance("set_cover", seed=6, n_elements=5, n_sets=6, scenarios=3)
    out = buy_all_reserved_reduction(threshold_recourse_cover(inst))
    for stage in out.stages:
        assert stage.exercised == out.reserved
    assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible


def test_reduction_ratio_vs_oracle_within_beta_over_sigma():
    for seed in range(8):
        inst = generate_instance(
            "vertex_cover", seed=seed, n_vertices=6, n_edges=8, scenarios=3, sigma=0.5
        )
        plan = threshold_recourse_cover(inst)
        out = buy_all_reserved_reduction(plan)
        cost = evaluate_objective(out, inst.policy, inst.scenarios).total
        opt = brute_force_optimal(inst).optimal_cost
        assert cost <= plan.beta / inst.policy.sigma * opt + 1e-9
        assert plan.beta == 2.0  # every vertex-cover element has frequency 2


def test_single_scenario_reduction_is_deterministic_play():
    inst = generate_instance("set_cover", seed=1, n_elements=4, n_sets=5, scenarios=1)
    a = buy_all_reserved_reduction(threshold_recourse_cover(inst))
    b = buy_all_reserved_reduction(threshold_recourse_cover(inst))
    assert a == b
    assert len(a.stages) == 1


def test_prepare_rejects_unknown_name():
    inst = generate_instance("set_cover", seed=0, n_elements=4, n_sets=5, scenarios=2)
    with pytest.raises(ValueError, match="unknown algorithm 'nope'; registered: buyall, double"):
        bench.prepare(inst, "nope")
