"""Every README example runs: the Python quick start and each CLI line."""
import importlib
import json
import pkgutil
import re
import shlex
import types
from pathlib import Path

import pytest

import twostage
from twostage import bench, cli
from twostage.generators import generate_instance

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, lang):
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def cli_lines():
    text = fenced_block("Command line", "sh").replace("\\\n", " ")
    return [line for line in text.splitlines() if line.startswith("twostage ")]


def test_quick_start_runs(capsys):
    exec(compile(fenced_block("Quick start", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "exact" in out and "feasible: True" in out


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """Run the CLI block top to bottom in one directory, as a reader would:
    the directory and each line's exit code."""
    work = tmp_path_factory.mktemp("readme")
    with pytest.MonkeyPatch.context() as m:
        m.chdir(work)
        return work, [cli.main(shlex.split(line)[1:]) for line in cli_lines()]


def test_cli_block_has_every_subcommand():
    assert [shlex.split(line)[1] for line in cli_lines()] == [
        "gen", "solve-lp", "round", "oracle", "saa", "bench"
    ]


@pytest.mark.parametrize("index", range(len(cli_lines())))
def test_cli_line_succeeds(readme_run, index):
    assert readme_run[1][index] == 0, cli_lines()[index]


def test_solve_lp_line_writes_the_values_and_duals_its_comment_promises(readme_run):
    payload = json.loads((readme_run[0] / "ufl_lp.json").read_text())
    assert payload["status"] == "optimal"
    assert payload["values"] and payload["duals"]


def guarantee_column():
    """Algorithm name -> its guarantee cell in "Algorithms and guarantees"."""
    section = README.split("\n## Algorithms and guarantees\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip().strip("`"): cells[-1] for cells in rows[1:]}  # after the header


def test_algorithm_table_says_per_run_exactly_where_the_registry_certifies():
    wording = {"lp": "× LP", "oracle": "× optimum"}
    table = guarantee_column()
    assert sorted(table) == sorted(bench.ALGORITHMS)
    for name, (_, kinds) in bench.ALGORITHMS.items():
        inst = generate_instance(kinds[0].kind, seed=0)
        _, _, bound, basis, _ = bench.prepare(inst, name).sample(0)
        assert ("per run" in table[name]) == (bound is not None), name
        if bound is not None:
            other = wording["oracle" if basis == "lp" else "lp"]
            assert wording[basis] in table[name] and other not in table[name], name


# What the README documents, plus what a hand-built instance needs; the rest
# is imported from its module.  A new package export is a visible decision.
PACKAGE_NAMES = {
    "CostPolicy", "ExperimentSpec", "InstanceError", "MetricGraph", "SaaConfig",
    "ScenarioSet", "SetCoverInstance", "SteinerInstance", "UflInstance",
    "VertexCoverInstance", "best_completion", "brute_force_optimal",
    "clustered_approx_factor", "generate_instance", "half_mass_inflation_bound",
    "load_instance", "lp_lower_bound", "repeating_saa", "run_algorithm",
    "run_experiment", "saa_build", "save_instance",
}


def test_package_exports_exactly_the_documented_names():
    public = {
        name for name, value in vars(twostage).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE_NAMES


def test_every_module_all_entry_resolves():
    for info in pkgutil.iter_modules(twostage.__path__, "twostage."):
        module = importlib.import_module(info.name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (info.name, missing)
