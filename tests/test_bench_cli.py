"""Benchmark tables and the command-line front end."""
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import re
import runpy
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import bench, cover, lp, lp_builders, ufl
from twostage.cli import EXIT_BOUND, EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from twostage.generators import GENERATOR_KINDS, generate_instance
from twostage.instances import (
    SetCoverInstance,
    UflInstance,
    VertexCoverInstance,
    instance_to_dict,
    load_instance,
    save_instance,
)
from twostage.model import CostPolicy, ScenarioSet


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

    def rigged(instance, instance_id, algorithm, seed):
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


@pytest.mark.parametrize(
    "kind, field, value, message",
    [("ufl", "open_cost", float("nan"), "error: open_cost[0] must be finite, got nan\n"),
     ("ufl", "distance", float("nan"), "error: distance[0][0] must be finite, got nan\n"),
     ("set_cover", "lambda", float("inf"), "error: lambda must be finite and exceed 1, got inf\n"),
     ("ufl", "lambda", 50.0, "error: lambda 50.0 differs from the 1.9849627066080662 the prices give\n")],
    ids=["ufl-open_cost", "ufl-distance", "set_cover-lambda", "ufl-lambda"],
)
def test_oracle_refuses_non_finite_instance_data(tmp_path, capsys, kind, field, value, message):
    raw = instance_to_dict(generate_instance(kind, seed=1))
    if field == "lambda":
        raw[field] = value
    elif field == "distance":
        raw[field][0][0] = value
    else:
        raw[field][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["oracle", "--instance", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def numeric_leaves(node, path=()):
    """(path, value) of every number in a decoded instance file."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from numeric_leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from numeric_leaves(child, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def list_nodes(node, path=()):
    """(path, value) of every list below the top of a decoded instance file."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, list):
            yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from list_nodes(child, path + (key,))


def with_leaf(raw: dict, path: tuple, value) -> dict:
    """A copy of ``raw`` with the leaf at ``path`` replaced by ``value``;
    the empty path replaces the whole file."""
    if not path:
        return value
    out = json.loads(json.dumps(raw))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "kind, path, bad, rule",
    [("set_cover", ("n_elements",), lambda x: math.inf, "n_elements must be an integer"),
     ("vertex_cover", ("edges", 0, 0), lambda x: math.inf, "edges[0][0] must be an integer"),
     ("steiner", ("root",), lambda x: math.inf, "root must be an integer"),
     ("ufl", ("scenarios", 0, "clients", 0), lambda x: math.inf,
      "scenarios[0].clients[0] must be an integer"),
     ("set_cover", ("sets", 0, 0), lambda x: x + 0.5, "sets[0][0] must be an integer"),
     ("set_cover", ("n_elements",), lambda x: x + 0.7, "n_elements must be an integer"),
     ("steiner", ("root",), lambda x: x + 0.9, "root must be an integer"),
     ("vertex_cover", ("scenarios", 0, "clients", 0), lambda x: x + 0.5,
      "scenarios[0].clients[0] must be an integer"),
     ("set_cover", ("n_elements",), lambda x: True, "n_elements must be an integer"),
     ("set_cover", ("weights", 0), lambda x: None, "weights[0] must be a number"),
     ("vertex_cover", ("weights", 0), lambda x: "3", "weights[0] must be a number"),
     ("steiner", ("weights", 0), lambda x: True, "weights[0] must be a number"),
     ("set_cover", ("sigma",), lambda x: None, "sigma must be a number"),
     ("vertex_cover", ("lambda",), lambda x: None, "lambda must be a number"),
     ("ufl", ("lambda",), lambda x: [x], "lambda must be a number"),
     ("steiner", ("scenarios", 0, "p"), lambda x: None, "scenarios[0].p must be a number"),
     ("ufl", ("open_cost", 0), lambda x: None, "open_cost[0] must be a number"),
     ("ufl", ("distance", 0, 0), lambda x: None, "distance[0][0] must be a number"),
     ("ufl", ("distance", 1), lambda x: x[:1], "distance[1] must have 6 entries"),
     ("ufl", ("scenario_open_cost", 0, 0), lambda x: None,
      "scenario_open_cost[0][0] must be a number"),
     ("set_cover", ("weights", 0), lambda x: 10**400, "weights[0] must fit in a float"),
     ("ufl", ("scenario_open_cost", 0, 0), lambda x: -(10**400),
      "scenario_open_cost[0][0] must fit in a float"),
     ("set_cover", ("scenarios", 0), lambda x: 5, "scenarios[0] must be an object"),
     ("set_cover", (), lambda x: [1], "an instance must be a JSON object"),
     ("set_cover", ("sets", 0), lambda x: 5, "sets[0] must be a list"),
     ("ufl", ("scenarios", 0, "clients"), lambda x: None, "scenarios[0].clients must be a list"),
     ("vertex_cover", ("edges", 0), lambda x: x + [x[0]], "edges[0] must be a pair of vertex ids"),
     ("steiner", ("edges", 0), lambda x: x[:1], "edges[0] must be a pair of vertex ids"),
     ("set_cover", ("n_elements",), lambda x: 1e300,
      f"n_elements must be at most {sys.maxsize} in size"),
     ("steiner", ("root",), lambda x: -(2**63), f"root must be at most {sys.maxsize} in size"),
     ("ufl", ("scenarios", 0, "clients", 0), lambda x: 2.0**63,
      f"scenarios[0].clients[0] must be at most {sys.maxsize} in size")],
    ids=["inf-count", "inf-edge", "inf-root", "inf-client", "half-member", "fraction-count",
         "fraction-root", "fraction-client", "bool-count", "null-weight", "string-weight",
         "bool-weight", "null-sigma", "null-lambda", "list-lambda", "null-p", "null-open-cost",
         "null-distance", "ragged-distance", "null-scenario-price", "huge-int-weight", "huge-int-price",
         "number-scenario", "list-file", "number-set", "null-clients", "three-id-edge",
         "one-id-edge", "huge-float-count", "huge-int-root", "huge-float-client"],
)
def test_oracle_refuses_non_integer_counts_and_ids(tmp_path, capsys, kind, path, bad, rule):
    raw = instance_to_dict(generate_instance(kind, seed=1))
    value = bad(functools.reduce(operator.getitem, path, raw))
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(with_leaf(raw, path, value)))
    assert main(["oracle", "--instance", str(file)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {rule}, got {value!r}\n")


# What a refusal of each file key must mention: the key, or the entity the
# value describes (a vertex count fails as "graph must be connected", an
# edited UFL price as a lambda the prices do not give).
FIELD_WORDS = {
    "sigma": "sigma",
    "lambda": "lambda",
    "n_elements": "element",
    "sets": "set",
    "weights": "weight",
    "n_vertices": "vert|graph",
    "edges": "edge",
    "root": "root",
    "open_cost": "open_cost|facility|price",
    "scenario_open_cost": "scenario_open_cost|facility|price",
    "distance": "distance",
    "p": r"probabilit|\]\.p ",
    "clients": "scenario",
    "scenarios": "scenario",
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hostile_numbers_load_or_are_refused_by_name(tmp_path_factory, data):
    kind = data.draw(st.sampled_from(sorted(GENERATOR_KINDS)), label="kind")
    raw = instance_to_dict(generate_instance(kind, seed=data.draw(st.integers(0, 3), label="seed")))
    nodes = list(numeric_leaves(raw)) + list(list_nodes(raw))
    path, old = data.draw(st.sampled_from(nodes), label="leaf")
    hostile = [math.nan, math.inf, -math.inf, -1, 1e300, 10**400, None, True, "3", [1.0]]
    if isinstance(old, int):
        hostile.append(old + 0.5)
    if isinstance(old, list):
        hostile = [0, 2.5]  # a number where a list belongs
    value = data.draw(st.sampled_from(hostile), label="value")
    file = tmp_path_factory.mktemp("hostile") / "inst.json"
    file.write_text(json.dumps(with_leaf(raw, path, value)))
    try:
        load_instance(file)
    except ValueError as exc:
        key = next(k for k in reversed(path) if isinstance(k, str))
        assert re.search(FIELD_WORDS[key], str(exc)), (path, value, str(exc))
    # any exception but a ValueError escapes main as a traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["oracle", "--instance", str(file)]) in (EXIT_OK, EXIT_ERROR)


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
    send some pairs to each side of the improved rounding."""
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


# -- usage errors, spec files, names and the SAA inner solver ------------------


@pytest.mark.parametrize(
    "argv, message",
    [(["round", "--instance", "sc.json", "--algorithm", "srini-sc", "--psi", "3"],
      "twostage: error: unrecognized arguments: --psi 3"),
     (["round", "--instance", "sc.json", "--algorithm", "nope"],
      "twostage round: error: argument --algorithm: invalid choice: 'nope'"),
     (["round", "--algorithm", "double"],
      "twostage round: error: the following arguments are required: --instance"),
     (["bench", "--trials", "2"],
      "twostage: error: bench needs --spec or both --instance and --algorithm")],
    ids=["unknown-flag", "bad-choice", "missing-argument", "bench-without-source"],
)
def test_usage_errors_exit_one_with_the_argparse_message(capsys, argv, message):
    # exit 2 means an infeasible plan, so a usage error must not use it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage: twostage") and message in err


@pytest.mark.parametrize(
    "spec, message",
    [({"instance": "vertex_cover", "algorithm": "srini-vc", "bogus": 1},
      "error: spec has no field 'bogus'\n"),
     ({"instance": "vertex_cover", "algorithm": "srini-vc", "alg_params": {"psi": 1.0}},
      "error: spec has no field 'alg_params'\n"),
     ({"algorithm": "srini-vc"}, "error: spec needs the field 'instance'\n"),
     ([{"instance": "vertex_cover", "algorithm": "srini-vc"}],
      "error: spec must be a JSON object, got [{'instance': 'vertex_cover', "
      "'algorithm': 'srini-vc'}]\n"),
     ({"instance": "vertex_cover", "algorithm": "srini-vc", "trials": "3"},
      "error: spec field 'trials' must be int, got '3'\n"),
     ({"instance": "vertex_cover", "algorithm": "srini-vc", "trials": True},
      "error: spec field 'trials' must be int, got True\n"),
     ({"instance": "vertex_cover", "algorithm": "srini-vc", "gen_params": 5},
      "error: spec field 'gen_params' must be dict, got 5\n"),
     ({"instance": 5, "algorithm": "srini-vc"}, "error: spec field 'instance' must be str, got 5\n"),
     ({"instance": "vertex_cover", "algorithm": ["double"]},
      "error: spec field 'algorithm' must be str, got ['double']\n")],
    ids=["unknown-key", "old-alg-params", "missing-instance", "top-level-list", "string-trials",
         "bool-trials", "int-gen-params", "int-instance", "list-algorithm"],
)
def test_bench_refuses_a_spec_file_by_key(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(path)]) == EXIT_ERROR
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv, message",
    [(["gen", "--kind", "vertex_cover", "--param", "bogus=1"],
      "error: vertex_cover has no parameter 'bogus'; it takes "
      "['client_prob', 'lam', 'n_edges', 'n_vertices', 'scenarios', 'sigma']\n"),
     (["bench", "--instance", "vertex_cover", "--algorithm", "srini-vc", "--param", "bogus=1"],
      "error: vertex_cover has no parameter 'bogus'; it takes "
      "['client_prob', 'lam', 'n_edges', 'n_vertices', 'scenarios', 'sigma']\n"),
     (["gen", "--kind", "set_cover", "--param", "n_sets=5.0"],
      "error: set_cover parameter 'n_sets' must be int, got 5.0\n"),
     (["bench", "--spec", {"instance": "vertex_cover", "algorithm": "srini-vc",
                            "gen_params": {"n_vertices": "5"}}],
      "error: vertex_cover parameter 'n_vertices' must be int, got '5'\n")],
    ids=["gen-unknown", "bench-unknown", "gen-float-count", "spec-string-count"],
)
def test_generator_parameters_are_refused_by_name(tmp_path, capsys, argv, message):
    if isinstance(argv[-1], dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(path)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "command, flag",
    [("gen", "--format"), ("gen", "--assert-bounds"),
     ("solve-lp", "--seed"), ("solve-lp", "--assert-bounds"),
     ("oracle", "--seed"), ("oracle", "--format"), ("oracle", "--assert-bounds"),
     ("saa", "--format"), ("saa", "--assert-bounds")],
)
def test_a_subcommand_refuses_a_shared_flag_it_does_not_read(tmp_path, capsys, command, flag):
    inst = gen_file(tmp_path, "set_cover", "set_cover")
    required = ["--kind", "set_cover"] if command == "gen" else ["--instance", str(inst)]
    value = {"--seed": ["1"], "--format": ["json"], "--assert-bounds": []}[flag]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, *value])
    assert exc.value.code == EXIT_ERROR
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


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
def test_saa_runs_every_registered_algorithm(tmp_path, algorithm):
    kind = next(src for alg, src in CASES if alg == algorithm)
    params = [arg for size in SAA_SIZES[kind] for arg in ("--param", size)]
    inst = gen_file(tmp_path, kind, kind, *params)
    out = tmp_path / "saa.json"
    argv = ["saa", "--instance", str(inst), "--algorithm", algorithm, "--epsilon", "0.5",
            "--delta", "0.3", "--c-n", "0.01", "--seed", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    assert len(payload["estimates"]) == payload["k_reps"] == 3
    assert payload["estimates"][payload["chosen_rep"]] == min(payload["estimates"])


def test_steiner_sample_prices_an_instance_without_scenarios_at_zero(capsys):
    argv = ["bench", "--instance", "steiner", "--algorithm", "steiner-sample", "--trials", "2"]
    assert main(argv + ["--param", "scenarios=0"]) == EXIT_OK
    rows = [r for r in csv.DictReader(io.StringIO(capsys.readouterr().out)) if r["algorithm"]]
    assert [(r["cost"], r["feasible"]) for r in rows] == [("0.0", "1"), ("0.0", "1")]


def test_a_one_vertex_steiner_instance_benches_within_its_bounds(capsys):
    # no edge, so the relaxation has no variable and no row
    argv = ["bench", "--instance", "steiner", "--algorithm", "steiner-sample",
            "--param", "n_vertices=1", "--assert-bounds"]
    assert main(argv) == EXIT_OK
    rows = [r for r in csv.DictReader(io.StringIO(capsys.readouterr().out)) if r["algorithm"]]
    assert [(r["lp_opt"], r["cost"], r["feasible"]) for r in rows] == [("0.0", "0.0", "1")]


def test_saa_refuses_an_unknown_algorithm_at_parse_time(tmp_path, capsys):
    inst = gen_file(tmp_path, "set_cover", "sc")
    with pytest.raises(SystemExit) as exc:
        main(["saa", "--instance", str(inst), "--algorithm", "nope"])
    assert exc.value.code == EXIT_ERROR
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_saa_refuses_a_wrong_kind_algorithm_before_sampling(tmp_path, capsys, monkeypatch):
    inst = gen_file(tmp_path, "set_cover", "sc")

    def no_draws(*args, **kwargs):
        raise AssertionError("repeating_saa ran")

    monkeypatch.setattr("twostage.cli.repeating_saa", no_draws)
    assert main(["saa", "--instance", str(inst), "--algorithm", "ufl5"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: algorithm 'ufl5' does not apply to 'set_cover'\n"


# ---------------------------------------------------------------------------
# Golden plan stream.  One SHA-256 over the bench JSON rows minus runtime_ms
# (all nine algorithms on generator seeds 0-11, 4 trials, plus the odd-cycle
# cases), every per-seed plan, the UFL assignments in their insertion order
# with the 5-approximation's trace, the single-stage rounding's plans on the
# generated instances, the gen JSON bytes and both Python demos' stdout.  A
# change to it is an output change: declare it in CHANGES.md and paste the
# new value.
GOLDEN_PLAN_DIGEST = "e46955ce00cc352d7e24579904ed83f2cb08c0a3df1c5945017dc05f2f5ade20"

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def plan_record(x):
    """Records as nested tuples of str and int: floats as hex, sets sorted,
    dicts as their items in iteration order, dataclasses by field."""
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return plan_record(x.tolist())
    if isinstance(x, frozenset):
        return tuple(sorted(x))
    if isinstance(x, dict):
        return tuple((plan_record(k), plan_record(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x):
        return tuple(plan_record(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(plan_record(v) for v in x)
    return x


def golden_plan_cases(tmp_path):
    """(spec, instance) of every golden bench case."""
    for algorithm, (_, kinds) in sorted(bench.ALGORITHMS.items()):
        kind = kinds[0].kind
        for gen_seed in range(12):
            spec = bench.ExperimentSpec(kind, algorithm, trials=4, gen_seed=gen_seed)
            yield spec, generate_instance(kind, seed=gen_seed)
    for algorithm, source in CASES:
        if source in ODD_CYCLES:
            spec, inst, _ = experiment(tmp_path, algorithm, source)
            yield spec, inst


def golden_ufl_records(inst):
    """Both UFL roundings' assignments, the 5-approximation's trace and the
    improved rounding's clusters, over four seeds."""
    sol = lp_builders.solve_ufl_lp(inst)
    trace = {}
    plan = ufl.round_5approx(sol, trace=trace)
    yield plan, trace["profiles"]
    prep = ufl.prepare_improved(sol)
    # each scenario's backing clusters as {cluster: 1}, the record the digest pins
    hits = tuple({ci: 1 for ci in needed} for needed in prep.needed)
    for seed in range(4):
        yield ufl.sample_improved(prep, seed), prep.clusters, hits


def golden_single_stage_records():
    """The single-stage ball rounding's opened set and assignment on each
    generated instance's single-stage relaxation.  ``prepare_improved``
    keeps only the opened set, so this record is what pins the assignment."""
    for seed in range(12):
        inst = generate_instance("ufl", seed=seed)
        f, d, clients = np.asarray(inst.open_cost), inst.dist, tuple(range(inst.n_clients))
        _, x, _ = ufl.solve_deterministic_ufl_lp(f, d, clients)
        yield ufl.deterministic_ufl_approx(f, d, clients, x)


def plan_digest(tmp_path) -> str:
    h = hashlib.sha256()

    def put(record):
        h.update(repr(plan_record(record)).encode() + b"\n")

    for spec, inst in golden_plan_cases(tmp_path):
        payload = json.loads(bench.rows_to_json(bench.run_experiment(spec)))
        for row in payload["rows"]:
            del row["runtime_ms"]
        h.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
        sample = bench.prepare(inst, spec.algorithm).sample
        for seed in range(spec.seed, spec.seed + spec.trials):
            put(sample(seed)[4])
    for inst in [generate_instance("ufl", seed=s) for s in range(12)] + [odd_cycle_ufl()]:
        for record in golden_ufl_records(inst):
            put(record)
    for record in golden_single_stage_records():
        put(record)
    for kind in sorted(GENERATOR_KINDS):
        for seed in range(12):
            path = tmp_path / f"gen-{kind}-{seed}.json"
            assert main(["gen", "--kind", kind, "--seed", str(seed), "--out", str(path)]) == EXIT_OK
            h.update(path.read_bytes())
    for name in ("reservation_walkthrough.py", "facility_rounding_tour.py"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(DEMOS / name), run_name="__main__")
        h.update(out.getvalue().encode())
    return h.hexdigest()


def test_plans_match_the_golden_digest(tmp_path):
    digest = plan_digest(tmp_path)
    assert digest == GOLDEN_PLAN_DIGEST, f'GOLDEN_PLAN_DIGEST = "{digest}"'


# ---------------------------------------------------------------------------
# Golden coin stream.  The plan digest's randomized roundings mostly saturate
# on the generated corpora, so it cannot see a sampler draw the wrong coin.
# This digest hashes the plans of seeds 0-499 of two samplers on hand-built
# fractional solutions whose coins fire: the improved UFL rounding and
# srini-sc on the Fano plane.  It is not regenerated by a refactor; a change
# to it is an output change, declared in CHANGES.md.
GOLDEN_COIN_DIGEST = "4029de33cf4ead4083562a6b272b69ee9ccad01d3f879fa296e5ae7aab9382f3"

COIN_SEEDS = range(500)


def tilted_ufl_solution():
    """A fractional two-stage plan on the odd cycle plus a farther facility 3.

    Scenario 1 exercises less than it reserves, so the one cluster's copies
    carry exercise odds 1 (facility 0) and 0 (facility 1) there, and reserved
    copies outside the cluster exercise with odds 1 in scenario 0 and 0 or 1
    in scenario 1.  (An odds row is a copy's layer mass over its opening
    mass; ``make_complete`` cuts copies at the layer breakpoints, so on any
    relaxation it is 0 or 1.)  Opening coins of 0.24-0.72 fire inside and
    outside the cluster, and scenario 1's client 2 is a second-stage pair.
    """
    dist = [[1.0 if i in (j, (j + 1) % 3) else 3.0 for j in range(3)] for i in range(3)]
    inst = UflInstance(
        open_cost=(2.0, 2.0, 2.0, 1.0),
        scenario_open_cost=((4.0,) * 4, (4.0,) * 4),
        distance=tuple(tuple(r) for r in dist) + ((2.0, 2.0, 2.0),),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(0.5, [0, 1, 2]), (0.5, [0, 2])]),
    )
    x = np.zeros((2, 3, 4))
    x[0, 0, [0, 1]] = 0.4, 0.6
    x[0, 1, [1, 2, 3]] = 0.5, 0.2, 0.3
    x[0, 2, [2, 0]] = 0.7, 0.3
    x[1, 0, [0, 3]] = 0.4, 0.6
    x[1, 2, 3] = 1.0
    return lp_builders.FractionalUflSolution(
        inst,
        y0=np.array([0.7, 0.7, 0.7, 0.3]),
        yk=np.array([[0.7, 0.7, 0.7, 0.3], [0.4, 0.0, 0.0, 0.3]]),
        zk=np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
        x=x,
        value=0.0,
    )


def fano_solution():
    """x = 1/3 on the seven lines of the Fano plane, exercised at 1/4 and
    recoursed at 1/10, so every srini-sc coin lies strictly inside (0, 1)."""
    lines = ({0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5})
    inst = SetCoverInstance(
        n_elements=7,
        sets=tuple(frozenset(s) for s in lines),
        weights=(1.0,) * 7,
        policy=CostPolicy(0.5, 2.0, dict.fromkeys(range(7), 1.0)),
        scenarios=ScenarioSet.explicit([(0.5, range(7)), (0.5, [0, 1, 2])]),
    )
    return lp_builders.FractionalCoverSolution(
        inst, np.full(7, 1 / 3), np.full((2, 7), 0.25), np.full((2, 7), 0.1), value=0.0
    )


def coin_samplers():
    """Each sampler's draw as a function of the seed, prepared once."""
    prep = ufl.prepare_improved(tilted_ufl_solution())
    return (lambda seed: ufl.sample_improved(prep, seed), cover.srinivasan_sampler(fano_solution()))


def test_coins_match_the_golden_coin_digest():
    h = hashlib.sha256()
    for draw in coin_samplers():
        lines = [repr(plan_record(draw(seed))).encode() for seed in COIN_SEEDS]
        assert len(set(lines)) > 1  # the coins fire
        h.update(b"\n".join(lines) + b"\n")
    assert h.hexdigest() == GOLDEN_COIN_DIGEST, f'GOLDEN_COIN_DIGEST = "{h.hexdigest()}"'


# ---------------------------------------------------------------------------
# Golden CSV stream.  The plan digest hashes the JSON rows, so it does not see
# the CSV formatting (``_fmt``, the column order, the summary rows).  This
# digest hashes the stdout of ``twostage bench`` in its default CSV format for
# every registered algorithm on generator seeds 0-3 of its kind, 3 trials
# each, with the exit codes.  A change to it is an output change, declared in
# CHANGES.md.
GOLDEN_CSV_DIGEST = "ab78d7b30fdc1693c21bd757f3139687316e1cb8a90a19e63eb1cd398e050349"


def test_bench_csv_matches_the_golden_digest(capsys):
    h = hashlib.sha256()
    for algorithm, (_, kinds) in sorted(bench.ALGORITHMS.items()):
        for gen_seed in range(4):
            argv = ["bench", "--instance", kinds[0].kind, "--algorithm", algorithm,
                    "--gen-seed", str(gen_seed), "--trials", "3"]
            code = main(argv)
            h.update(f"{code}\n".encode() + capsys.readouterr().out.encode())
    assert h.hexdigest() == GOLDEN_CSV_DIGEST, f'GOLDEN_CSV_DIGEST = "{h.hexdigest()}"'
