"""Sample-average reduction: empirical scenario sets and repeated selection."""
import contextlib
import dataclasses
import json
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


@pytest.mark.parametrize("ratio", [math.inf, math.nan])
def test_config_refuses_a_non_finite_recourse_ratio(ratio):
    with pytest.raises(ValueError, match="recourse ratio must be finite"):
        SaaConfig.from_eps_delta(0.5, 0.1, ratio, 4, c_n=1e-3)


def test_config_refuses_a_sample_count_that_overflows():
    with pytest.raises(ValueError, match="^sample count overflows at recourse ratio 1e\\+200$"):
        SaaConfig.from_eps_delta(0.5, 0.1, 1e200, 4, c_n=1e-3)


def test_saa_cli_refuses_an_overflowing_sample_count_with_a_message(tmp_path, capsys):
    from twostage import cli
    from twostage.instances import instance_to_dict

    raw = instance_to_dict(generate_instance("set_cover", seed=1))
    raw["lambda"] = 1e200
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["saa", "--instance", str(path), "--c-n", "0.001"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == "error: sample count overflows at recourse ratio 1e+200\n"


def test_saa_cli_refuses_a_free_ufl_opening_with_a_message(tmp_path, capsys):
    # A zero ground price next to a positive recourse price makes
    # UflInstance.lam infinite, and with it the sample count.
    from twostage import cli
    from twostage.instances import instance_from_dict, instance_to_dict, save_instance

    raw = instance_to_dict(generate_instance("ufl", seed=1))
    raw["open_cost"][0] = 0.0
    raw["lambda"] = math.inf  # the loader checks the key against the prices
    inst = instance_from_dict(raw)
    assert inst.lam == math.inf
    path = tmp_path / "ufl.json"
    save_instance(inst, path)
    assert cli.main(["saa", "--instance", str(path), "--c-n", "0.001"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == "error: recourse ratio must be finite, got inf\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epsilon", "0", "epsilon must lie strictly inside (0, 1), got 0.0"),
        ("--epsilon", "1", "epsilon must lie strictly inside (0, 1), got 1.0"),
        ("--epsilon", "nan", "epsilon must lie strictly inside (0, 1), got nan"),
        ("--delta", "0", "delta must lie strictly inside (0, 1), got 0.0"),
        ("--delta", "nan", "delta must lie strictly inside (0, 1), got nan"),
        ("--c-n", "nan", "c_n must lie strictly inside (0, inf), got nan"),
        ("--c-n", "inf", "c_n must lie strictly inside (0, inf), got inf"),
        ("--c-n", "-1", "c_n must lie strictly inside (0, inf), got -1.0"),
        ("--epsilon", "1e-300", "sample count overflows at epsilon 1e-300"),
        ("--delta", "1e-320", "sample count overflows at delta 1e-320"),
    ],
)
def test_saa_cli_refuses_bad_accuracy_targets_by_name(tmp_path, capsys, flag, value, message):
    from twostage import cli

    path = tmp_path / "sc.json"
    assert cli.main(["gen", "--kind", "set_cover", "--seed", "1", "--out", str(path)]) == cli.EXIT_OK
    assert cli.main(["saa", "--instance", str(path), flag, value]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_saa_cli_has_no_c_k_flag(tmp_path, capsys):
    from twostage import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["saa", "--instance", str(tmp_path / "any.json"), "--c-k", "2"])
    assert exc.value.code == cli.EXIT_ERROR
    assert "unrecognized arguments: --c-k 2" in capsys.readouterr().err


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


def drawn_with_generator_choice(inst, n, seed):
    """(client set, price row) -> count for n draws of rng.choice, first-appearance order."""
    scen = inst.scenarios.scenarios
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(n):
        k = int(rng.choice(len(scen), p=np.array([p for p, _ in scen])))
        key = (scen[k][1], inst.scenario_open_cost[k])
        counts[key] = counts.get(key, 0) + 1
    return counts


def assert_each_scenario_keeps_its_price_row(inst, cfg, seed):
    """Check the empirical instances repeating_saa hands its inner solver
    against the reference draws; returns them."""
    seen = []

    def recording(inst_hat):
        seen.append(inst_hat)
        return frozenset(), 0.0

    repeating_saa(inst, recording, cfg, seed=seed)
    assert len(seen) == cfg.k_reps
    for rep, inst_hat in enumerate(seen):
        counts = drawn_with_generator_choice(inst, cfg.n_samples, seed + rep)
        got = [(c, row) for (_, c), row in zip(inst_hat.scenarios.scenarios,
                                                inst_hat.scenario_open_cost)]
        assert got == list(counts)
        assert [p for p, _ in inst_hat.scenarios.scenarios] == pytest.approx(
            [m / cfg.n_samples for m in counts.values()], abs=1e-15
        )
        assert math.fsum(p for p, _ in inst_hat.scenarios.scenarios) == 1.0
    return seen


@pytest.mark.parametrize("algorithm", ["exact", "ufl5"])
def test_saa_runs_on_facility_location_and_each_draw_keeps_its_price_row(
    tmp_path, capsys, algorithm
):
    from twostage import cli
    from twostage.instances import save_instance

    inst = generate_instance("ufl", seed=11, n_facilities=5, n_clients=6, scenarios=3)
    assert_each_scenario_keeps_its_price_row(inst, SaaConfig(0.5, 0.3, k_reps=3, n_samples=5), 2)
    path = tmp_path / "ufl.json"
    save_instance(inst, path)
    argv = ["saa", "--instance", str(path), "--algorithm", algorithm, "--epsilon", "0.5",
            "--delta", "0.3", "--c-n", "0.01", "--seed", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["estimates"]) == payload["k_reps"]


def two_price_rows_instance(scenarios):
    """Two facilities, two clients; price row A or B per scenario."""
    from twostage.instances import UflInstance

    rows = {"A": (2.0, 3.0), "B": (3.0, 2.0)}
    return UflInstance(
        open_cost=(1.0, 1.0),
        scenario_open_cost=tuple(rows[r] for _, _, r in scenarios),
        distance=((1.0, 2.0), (2.0, 1.0)),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(p, c) for p, c, _ in scenarios]),
    )


def test_one_client_set_under_two_price_rows_stays_two_scenarios():
    # scenarios 0 and 3 are one (client set, price row) pair and merge;
    # scenario 1 has their client set under the other row and stays apart
    inst = two_price_rows_instance(
        [(0.25, [0], "A"), (0.25, [0], "B"), (0.25, [0, 1], "A"), (0.25, [0], "A")]
    )
    cfg = SaaConfig(0.5, 0.3, k_reps=2, n_samples=40)
    seen = assert_each_scenario_keeps_its_price_row(inst, cfg, 1)
    for inst_hat in seen:
        clients = [c for _, c in inst_hat.scenarios.scenarios]
        assert sorted(map(sorted, clients)) == [[0], [0], [0, 1]]
        assert len(set(inst_hat.scenario_open_cost)) == 2
    # the exact inner solver runs on each empirical instance, rows and all
    from test_oracle import exact_inner

    res = repeating_saa(inst, exact_inner, cfg, seed=1)
    assert res.estimates == tuple(exact_inner(h)[1] for h in seen)


def test_saa_refuses_a_black_box_facility_location_before_any_repetition():
    inst = two_price_rows_instance([(1.0, [0], "A")])
    inst = dataclasses.replace(
        inst, scenario_open_cost=(), scenarios=ScenarioSet.black_box_of(inst.scenarios)
    )
    calls = []

    def counting(inst_hat):
        calls.append(1)
        return frozenset(), 0.0

    with pytest.raises(ValueError, match="needs an explicit scenario list"):
        repeating_saa(inst, counting, SaaConfig(0.5, 0.3, k_reps=2, n_samples=5))
    assert calls == []


def test_saa_cli_with_the_exact_default_equals_repeating_saa(tmp_path, capsys):
    from test_oracle import exact_inner
    from twostage import cli
    from twostage.instances import load_instance

    path = tmp_path / "sc.json"
    assert cli.main(["gen", "--kind", "set_cover", "--seed", "4", "--out", str(path)]) == 0
    assert cli.main(["saa", "--instance", str(path), "--c-n", "0.001", "--seed", "3"]) == 0
    inst = load_instance(path)
    cfg = SaaConfig.from_eps_delta(0.5, 0.1, inst.policy.lam, inst.n_items, c_n=0.001)
    res = repeating_saa(inst, exact_inner, cfg, seed=3)
    assert json.loads(capsys.readouterr().out) == {
        "instance_id": "sc",
        "k_reps": cfg.k_reps,
        "n_samples": cfg.n_samples,
        "chosen_rep": res.chosen_rep,
        "chosen": sorted(res.chosen),
        "estimates": list(res.estimates),
    }


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
