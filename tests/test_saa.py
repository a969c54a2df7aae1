"""Sample-average reduction: empirical scenario sets and repeated selection."""
import contextlib
import dataclasses
import math

import numpy as np
import pytest

from twostage import oracle, saa
from twostage.generators import generate_instance
from twostage.lp_builders import solve_cover_lp
from twostage.model import ScenarioSet
from twostage.saa import (
    InnerSolverError,
    SaaConfig,
    SaaResult,
    repeating_saa,
    saa_build,
)


def fair_box():
    return ScenarioSet.explicit(
        [(0.5, [0]), (0.25, [1]), (0.25, [0, 1])]
    )


def test_config_counts_frozen():
    cfg = SaaConfig.from_eps_delta(0.5, 0.1, recourse_ratio=1.0, first_stage_bits=1)
    assert cfg.k_reps == 5  # ceil(2 ln 10)
    assert cfg.n_samples == 128  # ceil(16 * 5 * ln 2 * ln 10)
    cfg2 = SaaConfig.from_eps_delta(0.2, 0.1, 2.0, 4, c_n=1e-3)
    assert cfg2.k_reps == math.ceil(5 * math.log(10)) == 12


def test_config_validation():
    with pytest.raises(ValueError):
        SaaConfig(0.0, 0.1, 1, 1)
    with pytest.raises(ValueError):
        SaaConfig(0.5, 1.0, 1, 1)
    with pytest.raises(ValueError):
        SaaConfig(0.5, 0.1, 0, 1)


def test_saa_build_probabilities_sum_exactly():
    emp = saa_build(fair_box(), 97, seed=5)
    assert math.fsum(p for p, _ in emp.scenarios) == 1.0
    assert all(p > 0 for p, _ in emp.scenarios)
    # only scenarios the box can produce
    support = {frozenset({0}), frozenset({1}), frozenset({0, 1})}
    assert {s for _, s in emp.scenarios} <= support


def test_saa_build_is_deterministic_and_order_stable():
    a = saa_build(fair_box(), 50, seed=3)
    b = saa_build(fair_box(), 50, seed=3)
    assert a.scenarios == b.scenarios
    assert saa_build(fair_box(), 50, seed=4).scenarios != a.scenarios


def test_saa_build_frequencies_converge():
    emp = saa_build(fair_box(), 20000, seed=0)
    got = {s: p for p, s in emp.scenarios}
    assert got[frozenset({0})] == pytest.approx(0.5, abs=0.02)
    assert got[frozenset({1})] == pytest.approx(0.25, abs=0.02)
    assert got[frozenset({0, 1})] == pytest.approx(0.25, abs=0.02)


def test_saa_build_rejects_empty_draw_count():
    with pytest.raises(ValueError):
        saa_build(fair_box(), 0)


def test_repeating_saa_keeps_smallest_estimate():
    inst = generate_instance("set_cover", seed=2)
    calls = []

    def fake_solver(inst_hat):
        calls.append(inst_hat)
        rep = len(calls) - 1
        return frozenset({rep}), float(5 - rep if rep < 3 else 99)

    cfg = SaaConfig(0.5, 0.1, k_reps=4, n_samples=7)
    res = repeating_saa(inst, fake_solver, cfg, seed=11)
    assert res.chosen == frozenset({2})
    assert res.chosen_rep == 2
    assert res.estimates == (5.0, 4.0, 3.0, 99.0)
    # every repetition saw a fresh empirical scenario set of the right size
    for inst_hat in calls:
        assert math.fsum(p for p, _ in inst_hat.scenarios.scenarios) == 1.0


def test_repeating_saa_tie_goes_to_the_earlier_rep():
    inst = generate_instance("set_cover", seed=2)
    cfg = SaaConfig(0.5, 0.1, k_reps=3, n_samples=5)
    res = repeating_saa(inst, lambda h: (frozenset(), 1.0), cfg)
    assert res.chosen_rep == 0


def test_repeating_saa_wraps_inner_failures():
    inst = generate_instance("set_cover", seed=2)

    def failing(inst_hat):
        raise RuntimeError("boom")

    cfg = SaaConfig(0.5, 0.1, k_reps=2, n_samples=5)
    with pytest.raises(InnerSolverError) as err:
        repeating_saa(inst, failing, cfg)
    assert err.value.rep_index == 0


def test_empirical_lp_value_converges_to_the_true_one():
    inst = generate_instance("set_cover", seed=7, n_elements=5, n_sets=6, scenarios=3)
    true_value = solve_cover_lp(inst).value
    import dataclasses

    gaps = []
    for n in (100, 1600):
        per_seed = []
        for seed in range(8):
            emp = saa_build(inst.scenarios, n, seed=seed)
            inst_hat = dataclasses.replace(inst, scenarios=emp)
            per_seed.append(abs(solve_cover_lp(inst_hat).value - true_value))
        gaps.append(float(np.median(per_seed)))
    assert gaps[1] <= gaps[0] + 1e-9
    assert gaps[1] <= 0.25 * (1.0 + true_value)


UFL_REFUSAL = (
    "error: SAA does not run on facility location: the per-scenario opening prices "
    "(scenario_open_cost) cannot follow an empirical sample (ROADMAP item 4)\n"
)


@pytest.mark.parametrize("algorithm", ["exact", "ufl5"])
def test_saa_refuses_facility_location_before_any_repetition(tmp_path, capsys, algorithm):
    # With exactly K distinct draws nothing else would raise, and every price
    # row of scenario_open_cost would be paired with a reordered scenario.
    from twostage import cli
    from twostage.instances import save_instance

    inst = generate_instance("ufl", seed=11, n_facilities=5, n_clients=6, scenarios=3)
    calls = []

    def counting(inst_hat):
        calls.append(1)
        return frozenset(), 0.0

    with pytest.raises(ValueError, match="cannot follow an empirical sample"):
        repeating_saa(inst, counting, SaaConfig(0.5, 0.3, k_reps=3, n_samples=5), seed=2)
    assert calls == []
    path = tmp_path / "ufl.json"
    save_instance(inst, path)
    argv = ["saa", "--instance", str(path), "--algorithm", algorithm, "--epsilon", "0.5",
            "--delta", "0.3", "--c-n", "0.01", "--seed", "2"]
    assert cli.main(argv) == cli.EXIT_ERROR
    assert capsys.readouterr().err == UFL_REFUSAL


# ---------------------------------------------------------------------------
# One oracle preparation per repeating_saa call.


def exact_saa_inputs():
    from test_oracle import golden_saa_inputs

    return list(golden_saa_inputs())


def counting(monkeypatch, module, name, log):
    real = getattr(module, name)

    def wrapper(*args):
        log.append((name, args))
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_shared_preparation_gives_the_result_of_a_fresh_one_per_repetition(monkeypatch):
    from test_oracle import exact_inner

    for inst, cfg, seed in exact_saa_inputs():
        shared = repeating_saa(inst, exact_inner, cfg, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(saa, "_shared_preparation", contextlib.nullcontext)
            fresh = repeating_saa(inst, exact_inner, cfg, seed=seed)
        assert shared == fresh
        assert [e.hex() for e in shared.estimates] == [e.hex() for e in fresh.estimates]


def test_each_structure_is_built_once_per_call_and_dropped_after_it(monkeypatch):
    from test_oracle import exact_inner

    for inst, cfg, seed in exact_saa_inputs():
        log = []
        with monkeypatch.context() as m:
            for name in ("_mass_table", "_pruning_is_exact", "_root_reach",
                         "_covering_feasible", "_connecting_feasible"):
                counting(m, oracle, name, log)
            repeating_saa(inst, exact_inner, cfg, seed=seed)
            names = [name for name, _ in log]
            steiner = hasattr(inst, "graph")
            assert names.count("_mass_table") == names.count("_pruning_is_exact") == 1
            assert names.count("_root_reach") == int(steiner)
            # each client set's feasibility row is built once, in the first
            # repetition that draws it
            rows = [c for name, args in log if name.endswith("_feasible") for c in args[1]]
            assert len(rows) == len(set(rows)) > 0
            assert oracle._SHARED.get() is None
            # outside the call nothing is kept: each oracle call builds again
            log.clear()
            oracle.brute_force_optimal(dataclasses.replace(inst, scenarios=saa_build(inst.scenarios, 9)))
            oracle.brute_force_optimal(dataclasses.replace(inst, scenarios=saa_build(inst.scenarios, 9)))
            assert [name for name, _ in log].count("_mass_table") == 2


def test_the_scope_ends_when_an_inner_solver_fails():
    inst, cfg, seed = exact_saa_inputs()[0]

    def failing(inst_hat):
        oracle.brute_force_optimal(inst_hat)
        assert oracle._SHARED.get()
        raise RuntimeError("boom")

    with pytest.raises(InnerSolverError):
        repeating_saa(inst, failing, cfg, seed=seed)
    assert oracle._SHARED.get() is None
