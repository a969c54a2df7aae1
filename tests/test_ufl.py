"""Facility-location roundings: ball filtering, facility copies, clusters.

Random euclidean instances almost always have integral relaxations, so the
fractional branches are exercised with an odd-cycle metric gadget (each
client sits at distance 1 from two facilities arranged in a 3-cycle) whose
relaxation genuinely splits mass half/half.
"""
import dataclasses
import math

import numpy as np
import pytest

from twostage.generators import generate_instance
from twostage.instances import InstanceError, UflInstance
from twostage.lp_builders import FractionalUflSolution, solve_ufl_lp
from twostage.model import ScenarioSet, TwoStageSolution
from twostage.ufl import (
    ALPHA_DEFAULT,
    CompleteUfl,
    DET_FACTOR_CITED,
    NeighborhoodProfile,
    THETA_DEFAULT,
    UflPlan,
    classify_pairs,
    clustered_approx_factor,
    cs_round_deterministic_ufl,
    deterministic_ufl_approx,
    evaluate_ufl_cost,
    make_complete,
    prepare_improved,
    round_5approx,
    round_improved,
    sample_improved,
    solve_deterministic_ufl_lp,
    split_assignment,
    swamy_filter,
)


def odd_cycle_instance(sigma=0.5, f0=2.0, fk=4.0, extra_scenario=False):
    n = 3
    dist = [[3.0] * n for _ in range(n)]
    for j in range(n):
        dist[j][j] = 1.0
        dist[(j + 1) % n][j] = 1.0
    if extra_scenario:
        pairs = [(0.5, [0, 1, 2]), (0.5, [0])]
    else:
        pairs = [(1.0, [0, 1, 2])]
    return UflInstance(
        open_cost=(f0,) * n,
        scenario_open_cost=tuple(tuple([fk] * n) for _ in pairs),
        distance=tuple(tuple(r) for r in dist),
        sigma=sigma,
        scenarios=ScenarioSet.explicit(pairs),
    )


def odd_cycle_metric():
    d = np.full((3, 3), 3.0)
    for j in range(3):
        d[j, j] = 1.0
        d[(j + 1) % 3, j] = 1.0
    return d


def test_gadget_relaxation_is_fractional():
    sol = solve_ufl_lp(odd_cycle_instance())
    assert np.any((sol.y0 > 0.01) & (sol.y0 < 0.99))


# -- deterministic two-stage rounding ----------------------------------------


def test_factor_components_at_defaults():
    a, b = 0.4, 0.5
    assert max(3.0 / (1.0 - a), 1.0 / (a * b), 1.0 / (a * (1.0 - b))) == pytest.approx(5.0)


def test_single_facility_opens_first_stage():
    inst = UflInstance(
        open_cost=(1.0,),
        scenario_open_cost=((10.0,),),
        distance=((2.0,),),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(1.0, [0])]),
    )
    plan = round_5approx(solve_ufl_lp(inst))
    assert plan.solution.reserved == frozenset({0})
    assert plan.solution.stages[0].exercised == frozenset({0})
    bd = evaluate_ufl_cost(inst, plan)
    assert bd.service == pytest.approx(2.0)


def test_recourse_dominant_branch_opens_scenario_facility():
    inst = UflInstance(
        open_cost=(1.0, 5.0),
        scenario_open_cost=((2.0, 6.0),),
        distance=((1.0,), (1.0,)),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(1.0, [0])]),
    )
    sol = FractionalUflSolution(
        inst,
        y0=np.zeros(2),
        yk=np.zeros((1, 2)),
        zk=np.array([[1.0, 0.0]]),
        x=np.array([[[1.0, 0.0]]]),
        value=3.0,
    )
    plan = round_5approx(sol)
    assert plan.solution.reserved == frozenset()
    assert plan.solution.stages[0].recoursed == frozenset({0})


def test_assignment_distances_obey_the_radius_bound():
    for inst in (
        odd_cycle_instance(),
        odd_cycle_instance(extra_scenario=True),
        generate_instance("ufl", seed=3, n_facilities=4, n_clients=5, scenarios=3),
    ):
        sol = solve_ufl_lp(inst)
        trace = {}
        plan = round_5approx(sol, trace=trace)
        c = inst.dist
        for k in range(len(inst.scenarios)):
            for j, i in plan.assignment[k].items():
                prof = trace["profiles"][(k, j)]
                assert c[i, j] <= 3.0 / (1.0 - ALPHA_DEFAULT) * prof.c_star + 1e-9


def test_five_approx_on_the_gadget():
    inst = odd_cycle_instance()
    sol = solve_ufl_lp(inst)
    plan = round_5approx(sol)
    cost = evaluate_ufl_cost(inst, plan).total
    assert cost <= 5.0 * sol.value + 1e-9


def test_profile_radius_guard_trips_on_nonsense():
    with pytest.raises(ArithmeticError):
        NeighborhoodProfile(alpha=0.5, c_star=1.0, c_alpha=3.0, near=())


def test_evaluate_rejects_malformed_plans():
    inst = odd_cycle_instance()
    unserved = UflPlan(
        TwoStageSolution.of([0], [({0}, ())]), ({0: 0, 1: 0},)
    )
    with pytest.raises(InstanceError):
        evaluate_ufl_cost(inst, unserved)
    closed = UflPlan(
        TwoStageSolution.of([0], [({0}, ())]), ({0: 0, 1: 2, 2: 0},)
    )
    with pytest.raises(InstanceError):
        evaluate_ufl_cost(inst, closed)
    unreserved = UflPlan(
        TwoStageSolution.of([], [({1}, ())]), ({0: 1, 1: 1, 2: 1},)
    )
    with pytest.raises(InstanceError):
        evaluate_ufl_cost(inst, unreserved)


# -- splitting and classification ---------------------------------------------


def test_split_fills_exercised_capacity_first():
    inst = odd_cycle_instance()
    x = np.zeros((1, 3, 3))
    x[0, 0, 0] = 1.0
    yk = np.zeros((1, 3))
    yk[0, 0] = 0.4
    zk = np.zeros((1, 3))
    zk[0, 0] = 0.7
    sol = FractionalUflSolution(
        inst,
        y0=np.array([0.4, 1.0, 1.0]),
        yk=yk,
        zk=np.maximum(zk, 0.0) + np.array([[0.0, 1.0, 1.0]]),
        x=x + np.array([[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]),
        value=0.0,
    )
    split = split_assignment(sol)
    assert split.first[0, 0, 0] == pytest.approx(0.4)
    assert split.second[0, 0, 0] == pytest.approx(0.6)
    assert np.allclose(split.first + split.second, sol.x)
    assert np.all(split.first <= sol.yk[:, None, :] + 1e-12)


def test_classification_boundary_is_inclusive():
    assert THETA_DEFAULT == pytest.approx(2.29 / (2.29 + 1.52))
    inst = odd_cycle_instance()
    # first-stage mass exactly theta on the demanded pair
    th = THETA_DEFAULT
    yk = np.full((1, 3), th)
    zk = np.full((1, 3), 1.0)
    x = np.zeros((1, 3, 3))
    for j in range(3):
        x[0, j, j] = 1.0
    sol = FractionalUflSolution(
        inst, y0=np.full(3, th), yk=yk, zk=zk, x=x, value=0.0
    )
    split = split_assignment(sol)
    first, second = classify_pairs(split)
    assert set(first) == {(0, 0), (0, 1), (0, 2)}
    assert second == ()
    # no exercised capacity at all -> everything second-stage
    sol2 = FractionalUflSolution(
        inst, y0=np.zeros(3), yk=np.zeros((1, 3)), zk=np.ones((1, 3)), x=x, value=0.0
    )
    first2, second2 = classify_pairs(split_assignment(sol2))
    assert first2 == ()
    assert len(second2) == 3


# -- facility copies ----------------------------------------------------------


def test_make_complete_frozen_split():
    y = np.array([0.6])
    serve = np.array([[0.6], [0.2]])
    comp = make_complete(y, serve)
    assert comp.open_mass == pytest.approx([0.2, 0.4])
    assert comp.source.tolist() == [0, 0]
    assert comp.serve[0] == pytest.approx([0.2, 0.4])  # 0.6-row uses both
    assert comp.serve[1] == pytest.approx([0.2, 0.0])  # 0.2-row only the first
    # every positive entry equals its copy's opening mass
    hot = comp.serve > 1e-12
    assert np.allclose(comp.serve[hot], np.broadcast_to(comp.open_mass, comp.serve.shape)[hot])


def test_make_complete_identity_when_already_complete():
    y = np.array([0.5, 1.0])
    serve = np.array([[0.5, 1.0]])
    comp = make_complete(y, serve)
    assert comp.open_mass == pytest.approx([0.5, 1.0])
    assert comp.source.tolist() == [0, 1]


def test_make_complete_preserves_totals():
    rng = np.random.default_rng(8)
    for _ in range(20):
        y = rng.uniform(0.1, 1.0, size=4)
        serve = np.minimum(rng.uniform(0.0, 1.0, size=(3, 4)), y[None, :])
        comp = make_complete(y, serve)
        for i in range(4):
            assert comp.open_mass[comp.copies_of(i)].sum() == pytest.approx(y[i])
        assert comp.serve.sum(axis=1) == pytest.approx(serve.sum(axis=1))


def test_swamy_filter_frozen_example():
    comp = CompleteUfl(
        source=np.arange(3),
        open_mass=np.array([0.3, 0.3, 0.4]),
        serve=np.array([[0.3, 0.3, 0.4]]),
        aux=None,
    )
    d = np.array([[1.0, 2.0, 3.0]])
    filt = swamy_filter(comp, d, gamma=0.5)
    ball = filt.balls[0]
    assert ball.copies == (0, 1)
    assert ball.weight == pytest.approx([0.3, 0.2])
    assert ball.c_gamma == pytest.approx(1.4)
    assert ball.r_gamma == pytest.approx(2.0)
    assert filt.open_hat == pytest.approx([0.6, 0.6, 0.8])


def test_swamy_filter_wide_gamma_keeps_support():
    comp = CompleteUfl(
        source=np.arange(3),
        open_mass=np.array([0.3, 0.3, 0.4]),
        serve=np.array([[0.3, 0.3, 0.4]]),
        aux=None,
    )
    d = np.array([[1.0, 2.0, 3.0]])
    filt = swamy_filter(comp, d, gamma=0.999)
    assert filt.balls[0].copies == (0, 1, 2)


def test_swamy_filter_rejects_bad_gamma():
    comp = CompleteUfl(np.arange(1), np.array([1.0]), np.array([[1.0]]), None)
    for g in (0.2, 1.0, 1.5):
        with pytest.raises(ValueError):
            swamy_filter(comp, np.array([[1.0]]), g)


# -- improved pipeline ----------------------------------------------------------


def test_factor_evaluator_frozen_arithmetic():
    assert clustered_approx_factor() == pytest.approx(3.81, abs=0.01)
    r, th = 1.447, THETA_DEFAULT
    eta = math.e / (math.e - 1.0)
    assert clustered_approx_factor() == pytest.approx(
        max(r * eta / th, (1 + math.exp(-r) * (r + 1) / (r - 1)) / th,
            DET_FACTOR_CITED / (1 - th))
    )
    # with the in-repo second stage the recourse side dominates
    assert clustered_approx_factor(det_factor=5.0) == pytest.approx(5.0 / (1 - th))
    with pytest.raises(ValueError):
        clustered_approx_factor(boost=0.9)


def test_round_improved_same_seed_same_plan():
    sol = solve_ufl_lp(odd_cycle_instance(extra_scenario=True))
    assert round_improved(sol, seed=42) == round_improved(sol, seed=42)


def test_round_improved_feasible_and_consistent_across_seeds():
    # boosted copy masses of 0.3 / 0.7 stay below the coin cap, so the
    # rejection sampler genuinely flips
    inst = odd_cycle_instance()
    x = np.zeros((1, 3, 3))
    for j in range(3):
        x[0, j, j] = 0.7
        x[0, j, (j + 1) % 3] = 0.3
    sol = FractionalUflSolution(
        inst,
        y0=np.full(3, 0.7),
        yk=np.full((1, 3), 0.7),
        zk=np.full((1, 3), 0.3),
        x=x,
        value=0.0,
    )
    seen = set()
    for seed in range(200):
        trace = {}
        plan = round_improved(sol, seed=seed, trace=trace)
        for k, stage in enumerate(plan.solution.stages):
            assert stage.exercised <= plan.solution.reserved
        evaluate_ufl_cost(inst, plan)  # raises if any client is stranded
        if trace["clusters"] is not None:
            for k in range(len(inst.scenarios)):
                needed = {
                    trace["clusters"].representative[t]
                    for t, (kk, _) in enumerate(trace["first"])
                    if kk == k
                }
                assert set(trace["cluster_hits"][k]) == needed
                assert all(v == 1 for v in trace["cluster_hits"][k].values())
        seen.add(plan.solution.reserved)
    assert len(seen) > 1  # the coins are live


def test_round_improved_second_stage_only():
    inst = odd_cycle_instance()
    x = np.zeros((1, 3, 3))
    for j in range(3):
        x[0, j, j] = 1.0
    sol = FractionalUflSolution(
        inst, y0=np.zeros(3), yk=np.zeros((1, 3)), zk=np.ones((1, 3)), x=x, value=0.0
    )
    plan = round_improved(sol, seed=0)
    assert plan.solution.reserved == frozenset()
    assert plan.solution.stages[0].recoursed


def _same(a, b):
    """Deep equality that also compares numpy arrays inside dataclasses."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize(
    "inst",
    [
        odd_cycle_instance(extra_scenario=True),  # two clusters, first-stage pairs only
        odd_cycle_instance(sigma=0.7, fk=2.5, extra_scenario=True),  # both sides
    ],
    ids=["clusters", "both-sides"],
)
def test_round_improved_equals_sampling_a_shared_prepared_state(inst):
    sol = solve_ufl_lp(inst)
    prep = prepare_improved(sol)
    for seed in range(50):
        one_shot, shared = {}, {}
        plan = round_improved(sol, seed=seed, trace=one_shot)
        assert plan == sample_improved(prep, seed=seed, trace=shared)
        assert _same(one_shot, shared)


def test_round_improved_rejects_bad_theta():
    sol = solve_ufl_lp(odd_cycle_instance())
    with pytest.raises(ValueError):
        round_improved(sol, theta=1.0)


# -- single-stage reference rounding -------------------------------------------


def test_deterministic_rounding_identity_on_integral():
    f = np.array([1.0, 2.0])
    d = np.array([[1.0, 3.0], [3.0, 1.0]])
    opened, amap = deterministic_ufl_approx(
        f, d, (0, 1), np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]])
    )
    assert opened == frozenset({0, 1})
    assert amap == {0: 0, 1: 1}


def test_deterministic_rounding_within_five_of_relaxation():
    f = np.full(3, 1.5)
    d = odd_cycle_metric()
    clients = (0, 1, 2)
    y, x, duals, value = solve_deterministic_ufl_lp(f, d, clients)
    opened, amap = deterministic_ufl_approx(f, d, clients, y, x)
    cost = f[sorted(opened)].sum() + sum(d[i, j] for j, i in amap.items())
    assert cost <= 5.0 * value + 1e-9
    assert all(amap[j] in opened for j in clients)


def test_cs_round_wants_complete_input():
    f = np.full(3, 1.5)
    d = odd_cycle_metric()
    y, x, duals, _ = solve_deterministic_ufl_lp(f, d, (0, 1, 2))
    bad = x.copy()
    bad[0] = np.array([0.3, 0.7, 0.0])  # positive entry below its opening
    with pytest.raises(ValueError):
        cs_round_deterministic_ufl(f, d, (0, 1, 2), np.ones(3), bad, duals, seed=0)


def test_cs_round_single_pair():
    f = np.array([2.0])
    d = np.array([[1.5]])
    opened, amap = cs_round_deterministic_ufl(
        f, d, (0,), np.array([1.0]), np.array([[1.0]]), np.array([0.0]), seed=0
    )
    assert opened == frozenset({0})
    assert amap == {0: 0}


def test_cs_round_opens_exactly_one_per_cluster():
    f = np.full(3, 1.5)
    d = odd_cycle_metric()
    clients = (0, 1, 2)
    y, x, duals, _ = solve_deterministic_ufl_lp(f, d, clients)
    comp = make_complete(y, x)
    fc, dc = f[comp.source], d[comp.source]
    for seed in range(300):
        trace = {}
        opened, amap = cs_round_deterministic_ufl(
            fc, dc, clients, comp.open_mass, comp.serve, duals, seed=seed, trace=trace
        )
        for members in trace["members"]:
            assert len(opened & set(members)) == 1
        assert all(amap[j] in opened for j in clients)


def test_cs_round_mean_distance_within_lemma_budget():
    f = np.full(3, 1.5)
    d = odd_cycle_metric()
    clients = (0, 1, 2)
    y, x, duals, _ = solve_deterministic_ufl_lp(f, d, clients)
    comp = make_complete(y, x)
    fc, dc = f[comp.source], d[comp.source]
    n_seeds = 1500
    dist_sum = np.zeros(3)
    dist_sq = np.zeros(3)
    for seed in range(n_seeds):
        _, amap = cs_round_deterministic_ufl(
            fc, dc, clients, comp.open_mass, comp.serve, duals, seed=seed
        )
        for t, j in enumerate(clients):
            got = dc[amap[j], j]
            dist_sum[t] += got
            dist_sq[t] += got * got
    c_frac = np.array([x[t] @ d[:, j] for t, j in enumerate(clients)])
    mean = dist_sum / n_seeds
    stderr = np.sqrt(
        np.maximum(dist_sq / n_seeds - mean**2, 0.0) / n_seeds
    )
    bound = c_frac + (2.0 / math.e) * duals + 3.0 * stderr
    assert np.all(mean <= bound + 1e-9)
