"""Benchmark tables and the command-line front end."""
import csv
import dataclasses
import json
import threading

import pytest

from twostage import bench, cover, lp, lp_builders, ufl
from twostage.cli import EXIT_BOUND, EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from twostage.generators import generate_instance
from twostage.instances import (
    UflInstance,
    VertexCoverInstance,
    instance_to_dict,
    load_instance,
    save_instance,
)
from twostage.model import CostPolicy, ScenarioSet, evaluate_objective


def gen_file(tmp_path, kind, name, *extra):
    path = tmp_path / f"{name}.json"
    assert main(["gen", "--kind", kind, "--seed", "5", "--out", str(path), *extra]) == EXIT_OK
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_gen_is_reproducible(tmp_path):
    a = gen_file(tmp_path, "set_cover", "a")
    b = gen_file(tmp_path, "set_cover", "b")
    assert a.read_bytes() == b.read_bytes()
    load_instance(a)  # parses and validates


def test_gen_param_casting(tmp_path):
    path = tmp_path / "inst.json"
    code = main(
        [
            "gen", "--kind", "set_cover", "--seed", "1", "--out", str(path),
            "--param", "n_elements=4", "--param", "sigma=0.25",
        ]
    )
    assert code == EXIT_OK
    inst = load_instance(path)
    assert inst.n_elements == 4
    assert inst.policy.sigma == 0.25


def test_gen_params_do_not_leak_between_calls(tmp_path):
    # the parser is built once per process; each parse starts from fresh defaults
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["gen", "--kind", "set_cover", "--seed", "1"]
    assert main(base + ["--out", str(a), "--param", "n_elements=4"]) == EXIT_OK
    assert main(base + ["--out", str(b), "--param", "sigma=0.25"]) == EXIT_OK
    for path, params in ((a, {"n_elements": 4}), (b, {"sigma": 0.25})):
        inst = generate_instance("set_cover", seed=1, **params)
        assert path.read_text() == json.dumps(instance_to_dict(inst), indent=2) + "\n"


def test_solve_lp_emits_both_formats(tmp_path, capsys):
    path = gen_file(tmp_path, "vertex_cover", "vc")
    assert main(["solve-lp", "--instance", str(path), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "vertex_cover"
    assert payload["status"] == "optimal"
    assert payload["lp_opt"] == payload["objective"] > 0
    assert payload["values"] and all(v >= -1e-9 for v in payload["values"].values())
    assert any(name.startswith("cover[") for name in payload["duals"])
    assert main(["solve-lp", "--instance", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("instance_id,kind,status,lp_opt\n")
    assert repr(payload["lp_opt"]) in text


def test_round_rows_are_byte_stable(tmp_path):
    inst = gen_file(tmp_path, "vertex_cover", "vc")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    argv = ["round", "--instance", str(inst), "--algorithm", "srini-vc", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0]["algorithm"] == "srini-vc"
    assert rows[0]["feasible"] == "1"
    assert float(rows[0]["ratio_vs_lp"]) >= 1.0 - 1e-7
    # trailing aggregate rows
    assert [r["instance_id"] for r in rows[-2:]] == ["summary:mean", "summary:max"]


def test_round_respects_algorithm_knobs(tmp_path, capsys):
    inst = gen_file(tmp_path, "ufl", "ufl")
    assert (
        main(["round", "--instance", str(inst), "--algorithm", "ufl5", "--format", "json"])
        == EXIT_OK
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["feasible"] == 1
    assert payload["rows"][0]["runtime_ms"] >= 0.0


def test_oracle_subcommand_reports_plan(tmp_path, capsys):
    inst = gen_file(tmp_path, "set_cover", "tiny", "--param", "n_elements=4",
                    "--param", "n_sets=5", "--param", "scenarios=2")
    assert main(["oracle", "--instance", str(inst)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal_cost"] > 0
    assert payload["nodes_explored"] >= 1
    assert len(payload["stages"]) == 2


def test_saa_subcommand_runs_the_protocol(tmp_path, capsys):
    inst = gen_file(tmp_path, "set_cover", "tiny", "--param", "n_elements=4",
                    "--param", "n_sets=5", "--param", "scenarios=2")
    code = main(
        ["saa", "--instance", str(inst), "--epsilon", "0.5", "--delta", "0.1",
         "--c-n", "0.001", "--algorithm", "buyall"]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["k_reps"] == 5
    assert len(payload["estimates"]) == 5
    assert payload["chosen_rep"] == payload["estimates"].index(min(payload["estimates"]))


def test_bench_spec_file_round_trips(tmp_path):
    spec = {
        "instance": "vertex_cover",
        "algorithm": "double",
        "trials": 3,
        "gen_seed": 2,
        "gen_params": {"n_vertices": 5, "scenarios": 2},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert main(["bench", "--spec", str(spec_path), "--out", str(out1)]) == EXIT_OK
    assert main(["bench", "--spec", str(spec_path), "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    body = [r for r in rows if not r["instance_id"].startswith("summary:")]
    assert [r["seed"] for r in body] == ["0", "1", "2"]
    assert all(r["instance_id"] == "vertex_cover-s2" for r in body)


def test_bench_runs_trials_in_the_calling_thread(tmp_path, monkeypatch):
    spec = ["bench", "--instance", "vertex_cover", "--algorithm", "srini-vc",
            "--trials", "4", "--param", "n_vertices=5"]
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(spec + ["--out", str(out1)]) == EXIT_OK

    def no_threads(self):
        raise AssertionError("bench started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert main(spec + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_codes_surface_infeasible_and_bound_violations(tmp_path, monkeypatch):
    inst = gen_file(tmp_path, "vertex_cover", "vc")

    def rigged(instance, instance_id, algorithm, seed, params, lp_opt=None, oracle_opt=None):
        return bench.RunRow(
            instance_id, "vertex_cover", 0.5, 2.0, algorithm, seed,
            lp_opt=1.0, oracle_opt=None, cost=9.0, feasible=(algorithm != "double"),
            runtime_ms=0.0, bound=2.0, bound_basis="lp",
        )

    monkeypatch.setattr("twostage.cli.bench_mod.run_algorithm", rigged)
    argv = ["round", "--instance", str(inst), "--out", str(tmp_path / "x.csv")]
    assert main(argv + ["--algorithm", "double"]) == EXIT_INFEASIBLE
    assert main(argv + ["--algorithm", "srini-vc"]) == EXIT_OK  # no --assert-bounds
    assert (
        main(argv + ["--algorithm", "srini-vc", "--assert-bounds"]) == EXIT_BOUND
    )


def test_run_row_bound_logic():
    row = bench.RunRow("i", "set_cover", 0.5, 2.0, "double", 0, lp_opt=2.0,
                       oracle_opt=4.0, cost=5.0, feasible=True, runtime_ms=1.0,
                       bound=2.5, bound_basis="lp")
    assert row.ratio_vs_lp == pytest.approx(2.5)
    assert row.ratio_vs_oracle == pytest.approx(1.25)
    assert not row.bound_violated()
    worse = bench.RunRow("i", "set_cover", 0.5, 2.0, "double", 0, lp_opt=2.0,
                         oracle_opt=None, cost=5.1, feasible=True, runtime_ms=1.0,
                         bound=2.5, bound_basis="lp")
    assert worse.bound_violated()
    unproven = bench.RunRow("i", "set_cover", 0.5, 2.0, "srini-sc", 0, lp_opt=2.0,
                            oracle_opt=None, cost=99.0, feasible=True, runtime_ms=1.0,
                            bound=None, bound_basis="lp")
    assert not unproven.bound_violated()


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        bench.ExperimentSpec(instance="set_cover", algorithm="nonsense")
    with pytest.raises(ValueError):
        bench.ExperimentSpec(instance="set_cover", algorithm="double", trials=0)


def test_algorithm_instance_kind_mismatch():
    from twostage.generators import generate_instance

    inst = generate_instance("set_cover", seed=0)
    with pytest.raises(ValueError):
        bench.run_algorithm(inst, "x", "ufl5", 0)


def test_errors_exit_one_with_a_message(tmp_path, capsys):
    big = gen_file(tmp_path, "set_cover", "big", "--param", "n_elements=8",
                   "--param", "n_sets=20", "--param", "scenarios=3")
    assert main(["oracle", "--instance", str(big)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")
    missing = tmp_path / "missing.json"
    assert main(["solve-lp", "--instance", str(missing)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_csv_parses_with_stdlib_reader(tmp_path):
    inst = gen_file(tmp_path, "set_cover", "sc")
    out = tmp_path / "t.csv"
    assert main(["round", "--instance", str(inst), "--algorithm", "buyall",
                 "--out", str(out)]) == EXIT_OK
    rows = read_csv(out)
    assert set(bench.CSV_COLUMNS) <= set(rows[0])
    body = rows[0]
    assert body["kind"] == "set_cover"
    assert float(body["cost"]) > 0


# -- prepare once, sample per seed --------------------------------------------

GENERATED = {
    "set_cover": {"n_elements": 6, "n_sets": 6, "scenarios": 3},
    "vertex_cover": {"n_vertices": 6, "n_edges": 8, "scenarios": 3},
    "ufl": {"n_facilities": 4, "n_clients": 5, "scenarios": 3},
    "steiner": {"n_vertices": 6, "n_edges": 8, "scenarios": 3},
}


def odd_cycle_vc(n=5):
    """Every edge of an odd cycle demanded: the relaxation is 1/2 everywhere."""
    edges = tuple(tuple(sorted((v, (v + 1) % n))) for v in range(n))
    return VertexCoverInstance(
        n,
        edges,
        (1.0,) * n,
        CostPolicy(0.5, 2.0, {v: 1.0 for v in range(n)}),
        ScenarioSet.explicit([(0.6, range(n)), (0.4, [0, 2])]),
    )


def odd_cycle_ufl(sigma=0.7, fk=2.5):
    """Clients at distance 1 from two facilities of a 3-cycle; these prices
    send some pairs to each side of ``round_improved``."""
    dist = [[3.0] * 3 for _ in range(3)]
    for j in range(3):
        dist[j][j] = dist[(j + 1) % 3][j] = 1.0
    return UflInstance(
        open_cost=(2.0,) * 3,
        scenario_open_cost=((fk,) * 3,) * 2,
        distance=tuple(tuple(r) for r in dist),
        sigma=sigma,
        scenarios=ScenarioSet.explicit([(0.5, [0, 1, 2]), (0.5, [0])]),
    )


ODD_CYCLES = {"odd_cycle_vc": odd_cycle_vc, "odd_cycle_ufl": odd_cycle_ufl}

CASES = [
    ("double", "set_cover"),
    ("double", "odd_cycle_vc"),
    ("threshold", "vertex_cover"),
    ("threshold", "odd_cycle_vc"),
    ("srini-sc", "set_cover"),
    ("srini-vc", "vertex_cover"),
    ("srini-vc", "odd_cycle_vc"),
    ("buyall", "set_cover"),
    ("buyall", "odd_cycle_vc"),
    ("ufl5", "ufl"),
    ("ufl5", "odd_cycle_ufl"),
    ("ufl-improved", "ufl"),
    ("ufl-improved", "odd_cycle_ufl"),
    ("steiner-sample", "steiner"),
    ("steiner-buyall", "steiner"),
]


def experiment(tmp_path, algorithm, source, trials=4, seed=3):
    """The spec of one case, its instance and its instance id."""
    if source in ODD_CYCLES:
        path = tmp_path / f"{source}.json"
        save_instance(ODD_CYCLES[source](), path)
        spec = bench.ExperimentSpec(str(path), algorithm, trials=trials, seed=seed)
        return spec, load_instance(path), source
    params = GENERATED[source]
    spec = bench.ExperimentSpec(
        source, algorithm, trials=trials, seed=seed, gen_seed=2, gen_params=params
    )
    return spec, generate_instance(source, seed=2, **params), f"{source}-s2"


def without_runtime(row):
    return dataclasses.replace(row, runtime_ms=0.0)


@pytest.mark.parametrize("algorithm,source", CASES)
def test_experiment_rows_equal_one_shot_rows(tmp_path, algorithm, source):
    # double prepares the most per-seed inputs, so it runs seeds 0-49
    trials, seed = (50, 0) if algorithm == "double" else (4, 3)
    spec, inst, instance_id = experiment(tmp_path, algorithm, source, trials, seed)
    rows = bench.run_experiment(spec)
    alone = [
        bench.run_algorithm(inst, instance_id, algorithm, seed)
        for seed in range(spec.seed, spec.seed + spec.trials)
    ]
    assert [without_runtime(r) for r in rows] == [without_runtime(r) for r in alone]


@pytest.mark.parametrize("algorithm", sorted(bench.ALGORITHMS))
def test_experiment_solves_each_relaxation_once(tmp_path, monkeypatch, algorithm):
    source = next(src for alg, src in CASES if alg == algorithm)
    spec, _, _ = experiment(tmp_path, algorithm, source)
    calls = []
    real = lp.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (lp_builders, cover, ufl):
        monkeypatch.setattr(module, "solve_lp", counting)
    assert len(bench.run_experiment(spec)) == 4
    # the relaxation, plus the plain-recourse relaxation behind buyall
    assert len(calls) == (2 if algorithm == "buyall" else 1)


# -- knobs, names and the SAA inner solver through the registry ----------------


def test_round_passes_psi_to_srini_sc(tmp_path):
    # x is fractional here, so psi moves the scale and changes the plan
    path = tmp_path / "sc.json"
    inst = generate_instance("set_cover", seed=6, n_elements=8, n_sets=8, scenarios=3)
    save_instance(inst, path)
    sol = lp_builders.solve_cover_lp(inst)
    base = ["round", "--instance", str(path), "--algorithm", "srini-sc"]
    for seed in range(3):
        default, tuned = tmp_path / f"d{seed}.csv", tmp_path / f"p{seed}.csv"
        assert main(base + ["--seed", str(seed), "--out", str(default)]) == EXIT_OK
        assert main(base + ["--seed", str(seed), "--psi", "-5", "--out", str(tuned)]) == EXIT_OK
        plan = cover.srinivasan_round_set_cover(sol, psi=-5.0, seed=seed)
        cost = evaluate_objective(plan, inst.policy, inst.scenarios).total
        assert float(read_csv(tuned)[0]["cost"]) == cost
        assert tuned.read_bytes() != default.read_bytes()


@pytest.mark.parametrize(
    "algorithm,knob",
    [("srini-sc", "--alpha"), ("double", "--psi"), ("ufl5", "--theta"), ("ufl-improved", "--beta")],
)
def test_round_refuses_a_knob_the_algorithm_does_not_read(tmp_path, capsys, algorithm, knob):
    kind = "ufl" if algorithm.startswith("ufl") else "set_cover"
    inst = gen_file(tmp_path, kind, kind)
    argv = ["round", "--instance", str(inst), "--algorithm", algorithm, knob, "3"]
    assert main(argv) == EXIT_ERROR
    assert f"error: algorithm {algorithm!r} reads no knob {knob[2:]}" in capsys.readouterr().err


def test_spec_with_an_unread_knob_is_refused(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"instance": "vertex_cover", "algorithm": "srini-vc", "alg_params": {"psi": 1.0}}
    ))
    assert main(["bench", "--spec", str(spec)]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: algorithm 'srini-vc' reads no knob psi; its knobs: none\n"
    )


def test_run_algorithm_refuses_an_unknown_name_with_a_value_error():
    inst = generate_instance("set_cover", seed=0)
    with pytest.raises(ValueError, match="unknown algorithm 'nope'; registered: buyall"):
        bench.run_algorithm(inst, "x", "nope", 0)


SAA_SIZES = {
    "set_cover": ["n_elements=5", "n_sets=6", "scenarios=3"],
    "vertex_cover": ["n_vertices=5", "n_edges=7", "scenarios=3"],
    "ufl": ["n_facilities=4", "n_clients=5", "scenarios=3"],
    "steiner": ["n_vertices=5", "n_edges=7", "scenarios=3"],
}


@pytest.mark.parametrize("algorithm", sorted(bench.ALGORITHMS))
def test_saa_runs_every_registered_algorithm(tmp_path, capsys, algorithm):
    kind = next(src for alg, src in CASES if alg == algorithm)
    params = [arg for size in SAA_SIZES[kind] for arg in ("--param", size)]
    inst = gen_file(tmp_path, kind, kind, *params)
    out = tmp_path / "saa.json"
    argv = ["saa", "--instance", str(inst), "--algorithm", algorithm, "--epsilon", "0.5",
            "--delta", "0.3", "--c-n", "0.01", "--seed", "2", "--out", str(out)]
    code = main(argv)
    if kind == "ufl":
        assert code == EXIT_ERROR
        assert "cannot follow an empirical sample" in capsys.readouterr().err
        return
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["estimates"]) == payload["k_reps"] == 3
    assert payload["estimates"][payload["chosen_rep"]] == min(payload["estimates"])


def test_saa_refuses_an_unknown_algorithm_at_parse_time(tmp_path, capsys):
    inst = gen_file(tmp_path, "set_cover", "sc")
    with pytest.raises(SystemExit) as exc:
        main(["saa", "--instance", str(inst), "--algorithm", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_saa_refuses_a_wrong_kind_algorithm_before_sampling(tmp_path, capsys, monkeypatch):
    inst = gen_file(tmp_path, "set_cover", "sc")

    def no_draws(*args, **kwargs):
        raise AssertionError("repeating_saa ran")

    monkeypatch.setattr("twostage.cli.repeating_saa", no_draws)
    assert main(["saa", "--instance", str(inst), "--algorithm", "ufl5"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: algorithm 'ufl5' does not apply to 'set_cover'\n"
