"""Objective evaluation, feasibility reports, and scenario plumbing."""
import math

import numpy as np
import pytest

from twostage.model import (
    CostPolicy,
    ScenarioSet,
    StructureError,
    TwoStageSolution,
    check_feasible,
    evaluate_objective,
    monte_carlo_cost,
)


def policy(sigma=0.5, lam=2.0, weights=None):
    return CostPolicy(sigma, lam, weights or {0: 1.0, 1: 2.0})


def test_empty_solution_costs_nothing():
    sol = TwoStageSolution.of([], [((), ())])
    scen = ScenarioSet.explicit([(1.0, [])])
    assert evaluate_objective(sol, policy(), scen).total == 0.0


def test_hand_evaluated_total():
    # reserve item 0 (0.5), exercise it (0.5), recourse item 1 (2*2) -> 5.0
    sol = TwoStageSolution.of([0], [({0}, {1})])
    scen = ScenarioSet.explicit([(1.0, [0])])
    bd = evaluate_objective(sol, policy(), scen)
    assert bd.first_stage == pytest.approx(0.5)
    assert bd.expected_exercise == pytest.approx(0.5)
    assert bd.expected_recourse == pytest.approx(4.0)
    assert bd.total == pytest.approx(5.0)


def test_exercising_everything_makes_sigma_irrelevant():
    scen = ScenarioSet.explicit([(0.25, [0]), (0.75, [1])])
    sol = TwoStageSolution.of([0, 1], [({0, 1}, ()), ({0, 1}, {})])
    totals = {
        s: evaluate_objective(sol, policy(sigma=s), scen).total
        for s in (0.1, 0.5, 0.9)
    }
    assert len({round(t, 12) for t in totals.values()}) == 1
    assert next(iter(totals.values())) == pytest.approx(3.0)


def test_objective_is_linear_in_weights():
    scen = ScenarioSet.explicit([(0.5, [0]), (0.5, [1])])
    sol = TwoStageSolution.of([0], [({0}, {1}), ((), {0, 1})])
    base = evaluate_objective(sol, policy(), scen).total
    scaled = evaluate_objective(
        sol, policy(weights={0: 7.0, 1: 14.0}), scen
    ).total
    assert scaled == pytest.approx(7.0 * base)


def test_exercise_term_vanishes_as_sigma_tends_to_one():
    scen = ScenarioSet.explicit([(1.0, [0])])
    sol = TwoStageSolution.of([0, 1], [({0, 1}, ())])
    ex = [
        evaluate_objective(sol, policy(sigma=s), scen).expected_exercise
        for s in (0.9, 0.99, 0.999)
    ]
    assert ex[0] > ex[1] > ex[2]
    assert ex[2] < 0.01


def test_missing_stage_entry_is_structural():
    scen = ScenarioSet.explicit([(0.5, [0]), (0.5, [1])])
    sol = TwoStageSolution.of([0], [({0}, ())])
    with pytest.raises(StructureError):
        evaluate_objective(sol, policy(), scen)


def test_unpriced_item_is_structural():
    scen = ScenarioSet.explicit([(1.0, [0])])
    sol = TwoStageSolution.of([5], [({5}, ())])
    with pytest.raises(StructureError):
        evaluate_objective(sol, policy(), scen)


def test_breakdown_total_must_match_parts():
    from twostage.model import ObjectiveBreakdown

    with pytest.raises(ValueError):
        ObjectiveBreakdown(1.0, 1.0, 1.0, total=5.0)
    ok = ObjectiveBreakdown(1.0, 1.0, 1.0)
    assert ok.total == pytest.approx(3.0)


# -- feasibility ------------------------------------------------------------


def covers_if_superset(clients, bought):
    return clients <= bought


def test_empty_scenario_set_is_vacuously_feasible():
    sol = TwoStageSolution.of([], [])
    rep = check_feasible(sol, ScenarioSet.explicit([]), covers_if_superset)
    assert rep.feasible and not rep.violations


def test_coverage_miss_names_the_scenario():
    scen = ScenarioSet.explicit([(0.5, [0]), (0.5, [1])])
    sol = TwoStageSolution.of([0], [({0}, ()), ((), ())])
    rep = check_feasible(sol, scen, covers_if_superset)
    assert not rep.feasible
    assert any("scenario 1" in v for v in rep.violations)


def test_exercised_outside_reserved_is_flagged():
    scen = ScenarioSet.explicit([(1.0, [])])
    sol = TwoStageSolution.of([], [({3}, ())])
    rep = check_feasible(sol, scen, covers_if_superset)
    assert not rep.feasible
    assert any("reserved" in v for v in rep.violations)


def test_double_payment_is_flagged():
    scen = ScenarioSet.explicit([(1.0, [])])
    sol = TwoStageSolution.of([2], [({2}, {2})])
    rep = check_feasible(sol, scen, covers_if_superset)
    assert not rep.feasible


# -- scenario sets ----------------------------------------------------------


def test_probabilities_must_sum_to_one():
    with pytest.raises(StructureError):
        ScenarioSet.explicit([(0.5, [0]), (0.4, [1])])


def test_explicit_and_black_box_are_exclusive():
    with pytest.raises(ValueError):
        ScenarioSet(
            scenarios=((1.0, frozenset()),), sampler=lambda rng: frozenset()
        )


def test_black_box_wrapper_reproduces_the_distribution():
    scen = ScenarioSet.explicit([(0.25, [0]), (0.75, [1])])
    box = ScenarioSet.black_box_of(scen)
    draws = box.sample_many(seed=7, count=4000)
    frac = sum(1 for d in draws if d == frozenset({1})) / 4000
    assert abs(frac - 0.75) < 0.03
    assert box.sample_many(seed=7, count=50) == box.sample_many(seed=7, count=50)


@pytest.mark.parametrize(
    "probs",
    [
        [1.0],
        [0.25, 0.75],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 1.0],
        [0.1, 0.2, 0.3, 0.15, 0.25],
        [1 / 3, 1 / 3, 1 / 3],
    ],
)
def test_scenario_draws_equal_generator_choice(probs):
    # sample() inverts one uniform through the CDF that Generator.choice
    # builds, so the drawn index and the generator state after it match
    # rng.choice(k, p=probs), zero-probability scenarios included
    scen = ScenarioSet.explicit([(p, [k]) for k, p in enumerate(probs)])
    samplers = {"explicit": scen.sample, "black_box": ScenarioSet.black_box_of(scen).sample}
    for name, sample in samplers.items():
        for seed in range(50):
            ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(40):
                k = int(ref.choice(len(probs), p=np.array(probs)))
                assert sample(rng) == frozenset({k}), (name, seed)
            assert rng.random() == ref.random()


def test_empty_and_nan_scenario_sets_are_refused():
    with pytest.raises(ValueError):
        ScenarioSet.explicit([]).sample(np.random.default_rng(0))
    with pytest.raises(StructureError):
        ScenarioSet.explicit([(math.nan, [0])])


# -- monte carlo ------------------------------------------------------------


def test_single_scenario_monte_carlo_matches_exact():
    scen = ScenarioSet.explicit([(1.0, [0])])
    pol = policy()
    sol = TwoStageSolution.of([0], [({0}, {1})])

    def decide(realized):
        return frozenset({0}), frozenset({1})

    mean, err = monte_carlo_cost(frozenset({0}), decide, pol, scen, trials=64, seed=1)
    assert mean == pytest.approx(evaluate_objective(sol, pol, scen).total)
    assert err == 0.0


def test_two_point_distribution_converges():
    # costs 2 and 4 with equal probability -> expectation 3
    scen = ScenarioSet.explicit([(0.5, [0]), (0.5, [1])])
    pol = CostPolicy(0.5, 2.0, {0: 2.0, 1: 4.0})

    def decide(realized):
        return frozenset(), frozenset(realized)

    mean, err = monte_carlo_cost(frozenset(), decide, pol, scen, trials=10000, seed=3)
    assert abs(mean - 2.0 * 3.0) <= 3.0 * err  # lam=2 doubles each draw


def test_monte_carlo_same_seed_same_numbers():
    scen = ScenarioSet.explicit([(0.3, [0]), (0.7, [1])])
    pol = policy()

    def decide(realized):
        return frozenset(), frozenset(realized)

    a = monte_carlo_cost(frozenset(), decide, pol, scen, trials=500, seed=11)
    b = monte_carlo_cost(frozenset(), decide, pol, scen, trials=500, seed=11)
    assert a == b


def test_policy_validation():
    with pytest.raises(ValueError):
        CostPolicy(0.0, 2.0, {})
    with pytest.raises(ValueError):
        CostPolicy(1.0, 2.0, {})
    with pytest.raises(ValueError):
        CostPolicy(0.5, 1.0, {})
    with pytest.raises(ValueError):
        CostPolicy(0.5, 2.0, {0: -1.0})
    with pytest.raises(ValueError):
        CostPolicy(0.5, 2.0, {0: math.inf})
