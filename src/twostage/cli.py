"""Command-line front end.

Subcommands: ``gen`` (instance files), ``solve-lp`` (relaxation value),
``round`` (one algorithm run), ``oracle`` (exact optimum on tiny
instances), ``saa`` (black-box reduction), ``bench`` (experiment tables).
Exit codes: 0 success, 2 an infeasible output was produced, 3 a per-run
bound was violated under ``--assert-bounds``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .generators import GENERATOR_KINDS, generate_instance
from .instances import instance_to_dict, load_instance
from .lp import solve_lp
from .lp_builders import build_relaxation
from .oracle import brute_force_optimal
from .saa import InnerSolverError, SaaConfig, repeating_saa

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_BOUND = 3


def _parse_param(text: str) -> tuple[str, object]:
    name, _, raw = text.partition("=")
    if not _ or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    for cast in (int, float):
        try:
            return name, cast(raw)
        except ValueError:
            continue
    return name, raw


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _table_exit(rows, args) -> int:
    text = (
        bench_mod.rows_to_csv(rows) if args.fmt == "csv" else bench_mod.rows_to_json(rows)
    )
    _emit(text, args.out)
    if any(not r.feasible for r in rows):
        return EXIT_INFEASIBLE
    if args.assert_bounds and any(r.bound_violated() for r in rows):
        return EXIT_BOUND
    return EXIT_OK


# ``round``'s per-algorithm knobs; each registered algorithm reads its own.
_KNOBS = ("alpha", "beta", "theta", "gamma", "psi")


def _round_params(args) -> dict:
    return {name: getattr(args, name) for name in _KNOBS if getattr(args, name) is not None}


def _inner_solver(name: str):
    """Inner solvers for the SAA driver: exact enumeration or the seed-0 plan
    of a registered algorithm; either way the estimate is the plan's
    empirical objective."""
    if name == "exact":
        def exact(inst):
            res = brute_force_optimal(inst)
            return res.optimal_solution.reserved, res.optimal_cost

        return exact

    def registered(inst):
        cost, _, _, _, plan = bench_mod.prepare(inst, name).sample(0)
        return plan.reserved, cost

    return registered


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except (ValueError, InnerSolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole command line, built once per process: parsing never
    mutates it (``append`` copies its default list before adding)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=Path, default=None)
    common.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    common.add_argument("--assert-bounds", action="store_true")

    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Approximation algorithms for reserve/exercise/recourse planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate an instance file")
    p.add_argument("--kind", required=True, choices=sorted(GENERATOR_KINDS))
    p.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        default=[],
        metavar="NAME=VALUE",
        help="generator parameter, e.g. --param n_elements=6 --param sigma=0.4",
    )

    p = sub.add_parser("solve-lp", parents=[common], help="relaxation lower bound")
    p.add_argument("--instance", required=True, type=Path)

    p = sub.add_parser("round", parents=[common], help="run one rounding algorithm")
    p.add_argument("--instance", required=True, type=Path)
    p.add_argument("--algorithm", required=True, choices=sorted(bench_mod.ALGORITHMS))
    for knob in _KNOBS:
        p.add_argument(f"--{knob}", type=float, default=None)

    p = sub.add_parser("oracle", parents=[common], help="exact optimum (tiny instances)")
    p.add_argument("--instance", required=True, type=Path)

    p = sub.add_parser("saa", parents=[common], help="repeating sample-average reduction")
    p.add_argument("--instance", required=True, type=Path)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument(
        "--algorithm", default="exact", choices=["exact", *sorted(bench_mod.ALGORITHMS)]
    )
    p.add_argument("--c-k", dest="c_k", type=float, default=1.0)
    p.add_argument("--c-n", dest="c_n", type=float, default=1.0)

    p = sub.add_parser("bench", parents=[common], help="run an experiment table")
    p.add_argument("--spec", type=Path, default=None, help="JSON ExperimentSpec file")
    p.add_argument("--instance", default=None, help="instance path or generator kind")
    p.add_argument("--algorithm", default=None, choices=sorted(bench_mod.ALGORITHMS))
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--gen-seed", dest="gen_seed", type=int, default=0)
    p.add_argument("--param", action="append", type=_parse_param, default=[])
    return parser


def _run(argv: list[str] | None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "gen":
        inst = generate_instance(args.kind, seed=args.seed, **dict(args.param))
        _emit(json.dumps(instance_to_dict(inst), indent=2) + "\n", args.out)
        return EXIT_OK

    if args.command == "solve-lp":
        inst = load_instance(args.instance)
        lp = build_relaxation(inst)
        sol, dual = solve_lp(lp)
        payload = {
            "instance_id": args.instance.stem,
            "kind": inst.kind,
            "status": sol.status,
            "objective": sol.objective_value,
            "lp_opt": sol.objective_value,
            "values": sol.by_name() if sol.values is not None else {},
            "duals": (
                {n: float(v) for n, v in zip(lp.row_names, dual.values)}
                if dual is not None
                else {}
            ),
        }
        if args.fmt == "json":
            _emit(json.dumps(payload, indent=2) + "\n", args.out)
        else:
            _emit(
                "instance_id,kind,status,lp_opt\n"
                f"{payload['instance_id']},{payload['kind']},{payload['status']},{payload['lp_opt']!r}\n",
                args.out,
            )
        return EXIT_OK

    if args.command == "round":
        inst = load_instance(args.instance)
        row = bench_mod.run_algorithm(
            inst, args.instance.stem, args.algorithm, args.seed, _round_params(args)
        )
        return _table_exit([row], args)

    if args.command == "oracle":
        inst = load_instance(args.instance)
        res = brute_force_optimal(inst)
        payload = {
            "instance_id": args.instance.stem,
            "optimal_cost": res.optimal_cost,
            "nodes_explored": res.nodes_explored,
            "reserved": sorted(res.optimal_solution.reserved),
            "stages": [
                {
                    "exercised": sorted(st.exercised),
                    "recoursed": sorted(st.recoursed),
                }
                for st in res.optimal_solution.stages
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK

    if args.command == "saa":
        inst = load_instance(args.instance)
        if args.algorithm != "exact":
            # Refuse a wrong-kind algorithm before the first draw.
            bench_mod._checked_build(inst, args.algorithm, {})
        lam = inst.policy.lam if hasattr(inst, "policy") else inst.lam
        cfg = SaaConfig.from_eps_delta(
            args.epsilon, args.delta, lam, inst.n_items, c_k=args.c_k, c_n=args.c_n
        )
        result = repeating_saa(inst, _inner_solver(args.algorithm), cfg, seed=args.seed)
        payload = {
            "instance_id": args.instance.stem,
            "k_reps": cfg.k_reps,
            "n_samples": cfg.n_samples,
            "chosen_rep": result.chosen_rep,
            "chosen": sorted(result.chosen),
            "estimates": list(result.estimates),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return EXIT_OK

    # bench
    if args.spec is not None:
        raw = json.loads(Path(args.spec).read_text())
        spec = bench_mod.ExperimentSpec(**raw)
    else:
        if not args.instance or not args.algorithm:
            parser.error("bench needs --spec or both --instance and --algorithm")
        spec = bench_mod.ExperimentSpec(
            instance=args.instance,
            algorithm=args.algorithm,
            trials=args.trials,
            seed=args.seed,
            gen_seed=args.gen_seed,
            gen_params=dict(args.param),
        )
    rows = bench_mod.run_experiment(spec)
    return _table_exit(rows, args)


if __name__ == "__main__":
    sys.exit(main())
