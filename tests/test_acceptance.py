"""End-to-end acceptance gate.

Eleven numbered checks, one per guarantee the package ships: LP duality,
oracle sandwiches, the deterministic and randomized facility-location
factors, covering roundings, preprocessing invariants, tree heuristics,
the sample-average protocol, the ignore-revocation fallback, and bitwise
reproducibility.  The numbers are stable IDs, and 07 is retired.  Each
test prints a single ``criterion NN`` verdict line (visible under
``pytest -s``); tolerances are part of the contract and are asserted, not
just reported.
"""
import dataclasses
import math

import numpy as np
import pytest

from twostage import bench
from twostage.cli import EXIT_OK, main
from twostage.cover import (
    half_mass_inflation_bound,
    preprocess_half,
    scale_factor,
    default_psi,
    srinivasan_sampler,
)
from twostage.generators import generate_instance
from twostage.instances import UflInstance
from twostage.lp import solve_lp
from twostage.lp_builders import solve_cover_lp, solve_ufl_lp
from twostage.model import ScenarioSet, check_feasible, evaluate_objective
from twostage.oracle import best_completion, brute_force_optimal
from twostage.saa import SaaConfig, repeating_saa, saa_build
from twostage.steiner import sampling_heuristic
from twostage.ufl import (
    ALPHA,
    THETA,
    clustered_approx_factor,
    evaluate_ufl_cost,
    prepare_improved,
    round_5approx,
    sample_improved,
)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def odd_cycle_ufl(sigma=0.5, f0=2.0, fk=4.0, extra_scenario=False, scale=1.0):
    """Metric 3-cycle whose relaxation splits opening mass half/half."""
    n = 3
    dist = [[3.0 * scale] * n for _ in range(n)]
    for j in range(n):
        dist[j][j] = 1.0 * scale
        dist[(j + 1) % n][j] = 1.0 * scale
    pairs = [(0.5, [0, 1, 2]), (0.5, [0])] if extra_scenario else [(1.0, [0, 1, 2])]
    return UflInstance(
        open_cost=(f0,) * n,
        scenario_open_cost=tuple(tuple([fk] * n) for _ in pairs),
        distance=tuple(tuple(r) for r in dist),
        sigma=sigma,
        scenarios=ScenarioSet.explicit(pairs),
    )


# Shared across criteria 2 and 11: one row per oracle-sized instance, each
# run through the algorithm whose certificate is per-run.
@pytest.fixture(scope="module")
def oracle_chain_rows():
    rows = []
    for s in range(20):
        inst = generate_instance("set_cover", seed=s, n_elements=5, n_sets=6, scenarios=3)
        rows.append(bench.run_algorithm(inst, f"sc{s}", "buyall", 0))
    for s in range(20):
        inst = generate_instance("vertex_cover", seed=s, n_vertices=5, n_edges=7, scenarios=3)
        rows.append(bench.run_algorithm(inst, f"vc{s}", "buyall", 0))
    for s in range(12):
        inst = generate_instance("ufl", seed=s, n_facilities=4, n_clients=5, scenarios=3)
        rows.append(bench.run_algorithm(inst, f"ufl{s}", "ufl5", 0))
    for s in range(8):
        inst = generate_instance("steiner", seed=s, n_vertices=6, n_edges=8, scenarios=3)
        rows.append(bench.run_algorithm(inst, f"st{s}", "steiner-buyall", 0))
    return rows


def test_criterion_01_lp_duality():
    from test_lp import random_feasible_lp

    rng = np.random.default_rng(2024)
    worst_gap = worst_cs = 0.0
    for _ in range(100):
        lp = random_feasible_lp(rng)
        sol, dual = solve_lp(lp)
        assert sol.status == "optimal" and dual is not None
        worst_gap = max(
            worst_gap,
            abs(sol.objective_value - dual.objective_value)
            / (1.0 + abs(sol.objective_value)),
        )
        slack = lp.rhs - lp.rows @ sol.values
        worst_cs = max(
            worst_cs,
            float(np.max(np.abs(dual.values * slack) / (1.0 + np.abs(lp.rhs)))),
            float(
                np.max(
                    np.abs((lp.objective - lp.rows.T @ dual.values) * sol.values)
                    / (1.0 + np.abs(lp.objective))
                )
            ),
        )
    ok = worst_gap <= 1e-6 and worst_cs <= 1e-6
    verdict(1, ok, f"100 LPs, duality gap <= {worst_gap:.2e}, slackness <= {worst_cs:.2e}")


def test_criterion_02_oracle_sandwich(oracle_chain_rows):
    rows = oracle_chain_rows
    assert len(rows) >= 60
    bad = []
    for r in rows:
        if r.oracle_opt is None:
            bad.append(r.instance_id)
            continue
        if not r.lp_opt <= r.oracle_opt + 1e-7 * (1.0 + abs(r.oracle_opt)):
            bad.append(r.instance_id)
        if not r.oracle_opt <= r.cost + 1e-7 * (1.0 + abs(r.cost)):
            bad.append(r.instance_id)
    verdict(2, not bad, f"relaxation <= optimum <= rounded cost on {len(rows)} instances {bad or ''}")


def test_criterion_03_deterministic_ufl_factor():
    suite = [
        generate_instance("ufl", seed=100 + s, n_facilities=5, n_clients=8, scenarios=3)
        for s in range(18)
    ] + [odd_cycle_ufl(), odd_cycle_ufl(sigma=0.3, f0=3.0, fk=5.0, extra_scenario=True)]
    assert len(suite) == 20
    worst_cost = worst_dist = 0.0
    radius = 3.0 / (1.0 - ALPHA)
    for inst in suite:
        sol = solve_ufl_lp(inst)
        trace = {}
        plan = round_5approx(sol, trace=trace)
        worst_cost = max(worst_cost, evaluate_ufl_cost(inst, plan).total / (5.0 * sol.value))
        c = inst.dist
        for k in range(len(inst.scenarios)):
            for j, i in plan.assignment[k].items():
                c_star = trace["profiles"][(k, j)].c_star
                assert c[i, j] <= radius * c_star + 1e-9
                if c_star > 0:
                    worst_dist = max(worst_dist, c[i, j] / (radius * c_star))
    ok = worst_cost <= 1.0
    verdict(3, ok, f"20/20 within 5x relaxation (worst {worst_cost:.3f}), distances within {worst_dist:.3f} of the ball radius")


def test_criterion_04_vertex_cover_rounding_mean():
    # The relaxation is half-integral, so srini-vc is one plan per instance,
    # certified at 2 x LP per run.  threshold's certificate on the same
    # instances, 4 * half_mass_inflation_bound, is reported next to it.
    ratios, certified = [], []
    for gs in range(10):
        inst = generate_instance("vertex_cover", seed=gs)
        srini = bench.prepare(inst, "srini-vc")
        cost, feasible, bound, basis, _ = srini.sample(0)
        assert feasible and (bound, basis) == (2.0, "lp")
        assert cost <= 2.0 * srini.lp_opt * (1.0 + 1e-12) + 1e-9
        ratios.append(cost / srini.lp_opt)
        thr = bench.prepare(inst, "threshold")
        t_cost, t_feasible, t_bound, _, _ = thr.sample(0)
        assert t_feasible and t_bound == 4.0 * half_mass_inflation_bound(
            inst.policy.sigma, inst.policy.lam
        )
        certified.append((t_cost / thr.lp_opt, t_bound))
    ok = max(ratios) <= 2.0 * (1.0 + 1e-12) and all(r <= b for r, b in certified)
    verdict(
        4, ok,
        f"10 instances, one plan each: srini-vc worst {max(ratios):.16g} x LP against 2; "
        f"threshold worst {max(r for r, _ in certified):.4f} x LP against "
        f"{min(b for _, b in certified):.2f}-{max(b for _, b in certified):.2f}",
    )


def test_criterion_05_set_cover_scaling():
    n_seeds = 2000
    details = []
    ok = True
    for gs in range(3):
        inst = generate_instance("set_cover", seed=gs)
        sol = solve_cover_lp(inst)
        n = inst.n_elements
        repairs = 0
        pre = 0.0
        sample = srinivasan_sampler(sol)
        for s in range(n_seeds):
            stats = {}
            out = sample(s, stats)
            assert check_feasible(out, inst.scenarios, inst.covers_demand).feasible
            repairs += stats["scenarios_repaired"]
            pre += stats["pre_repair_value"]
        freq = repairs / (n_seeds * len(inst.scenarios))
        cap = math.exp(-default_psi(n)) + 0.02
        mean_pre = pre / n_seeds
        lim = scale_factor(n) * sol.value * 1.05
        ok = ok and freq <= cap and mean_pre <= lim
        details.append(f"{freq:.3f}<={cap:.3f},{mean_pre:.2f}<={lim:.2f}")
    verdict(5, ok, f"repair rate / pre-repair mean per instance: {'; '.join(details)}")


def test_criterion_06_randomized_ufl_pipeline():
    evaluated = clustered_approx_factor()
    assert evaluated == pytest.approx(3.81, abs=0.01)
    bound = clustered_approx_factor(det_factor=5.0)  # the factor this repo certifies
    assert bound == pytest.approx(5.0 / (1.0 - THETA))
    suite = [
        generate_instance("ufl", seed=s, n_facilities=4, n_clients=6, scenarios=3)
        for s in range(5)
    ] + [
        odd_cycle_ufl(),
        odd_cycle_ufl(extra_scenario=True),
        odd_cycle_ufl(sigma=0.3, f0=3.0, fk=5.0),
        odd_cycle_ufl(sigma=0.7, f0=2.0, fk=6.0, extra_scenario=True),
        odd_cycle_ufl(scale=2.0, fk=3.5),
    ]
    n_seeds = 5000
    worst = 0.0
    for inst in suite:
        sol = solve_ufl_lp(inst)
        prep = prepare_improved(sol)
        total = 0.0
        for s in range(n_seeds):
            plan = sample_improved(prep, seed=s)
            total += evaluate_ufl_cost(inst, plan).total
            for k, stage in enumerate(plan.solution.stages):
                for ci in prep.needed[k]:
                    # every cluster backing a first-stage pair exercises a copy
                    sources = {int(prep.complete.source[c]) for c in prep.clusters.members[ci]}
                    assert sources & stage.exercised, (s, k, ci)
        worst = max(worst, total / n_seeds / (bound * sol.value * 1.1))
    ok = worst <= 1.0
    verdict(6, ok, f"factor evaluates to {evaluated:.2f}; 10 instances x {n_seeds} seeds, worst mean/cap = {worst:.3f}, every backing cluster exercised throughout")


def test_criterion_08_preprocessing_invariants():
    checked = 0
    worst = 0.0
    for gs in range(10):
        for kind, sigma, lam in (
            ("set_cover", 0.5, 2.0),
            ("vertex_cover", 0.3, 1.5) if gs % 2 else ("vertex_cover", 0.7, 3.0),
        ):
            inst = generate_instance(kind, seed=gs, sigma=sigma, lam=lam)
            sol = solve_cover_lp(inst)
            out, report = preprocess_half(sol)
            # exercised + recourse mass per (scenario, item) never moves
            assert np.array_equal(out.y + out.z, sol.y + sol.z)
            cap = half_mass_inflation_bound(sigma, lam)
            assert report.inflation <= cap + 1e-9
            worst = max(worst, report.inflation / cap)
            checked += 1
    verdict(8, True, f"{checked} runs: mass totals preserved bitwise, inflation within bound (worst {worst:.3f} of cap)")


def test_criterion_09_sampled_tree_reservation():
    trials = 0
    worst = 0.0
    for gs in range(10):
        inst = generate_instance("steiner", seed=gs, n_vertices=6, n_edges=8, scenarios=3)
        opt = brute_force_optimal(inst).optimal_cost
        sigma = inst.policy.sigma
        cap = (2.0 + 2.0 + 2.0 * (1.0 - sigma) / sigma) * opt
        for s in range(50):
            plan = sampling_heuristic(inst.graph, inst.policy, inst.scenarios, seed=s)
            sol = plan.solution_for(inst.scenarios)
            assert check_feasible(sol, inst.scenarios, inst.covers_demand).feasible
            cost = evaluate_objective(sol, inst.policy, inst.scenarios).total
            worst = max(worst, cost / cap)
            trials += 1
    verdict(9, worst <= 1.0, f"{trials} trials feasible, worst cost/cap = {worst:.3f}")


def test_criterion_10_repeated_sample_average():
    inst = generate_instance("set_cover", seed=12, n_elements=5, n_sets=5, scenarios=3)
    true_opt = brute_force_optimal(inst).optimal_cost
    cfg = SaaConfig.from_eps_delta(0.2, 0.1, inst.policy.lam, inst.n_items, c_n=1e-3)
    assert cfg.k_reps == 12  # ceil(5 ln 10)

    def exact_inner(hat):
        res = brute_force_optimal(hat)
        return res.optimal_solution.reserved, res.optimal_cost

    wins = 0
    for t in range(50):
        res = repeating_saa(inst, exact_inner, cfg, seed=1000 + 100 * t)
        _, true_cost = best_completion(inst, res.chosen)
        if true_cost <= 1.25 * true_opt + 1e-9:
            wins += 1
    verdict(10, wins >= 45, f"chosen reservation within 1.25x of optimal in {wins}/50 trials (k={cfg.k_reps}, n={cfg.n_samples})")


def test_criterion_11_ignore_revocation_certificates(oracle_chain_rows):
    rows = [r for r in oracle_chain_rows if r.bound_basis == "oracle"]
    assert rows, "no per-run certificates in the chain"
    bad = [r.instance_id for r in rows if r.bound_violated() or not r.feasible]
    worst = max(r.cost / (r.bound * r.oracle_opt) for r in rows)
    verdict(11, not bad, f"{len(rows)} runs within beta/sigma of the optimum (worst {worst:.3f} of cap) {bad or ''}")


def test_criterion_12_bitwise_reproducibility(tmp_path):
    argv = [
        "bench", "--instance", "vertex_cover", "--algorithm", "srini-vc",
        "--trials", "5", "--gen-seed", "3", "--param", "n_vertices=5",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    ok = out1.read_bytes() == out2.read_bytes()

    sc = generate_instance("set_cover", seed=1)
    sol = solve_cover_lp(sc)
    ok = ok and srinivasan_sampler(sol)(9) == srinivasan_sampler(sol)(9)

    gadget = solve_ufl_lp(odd_cycle_ufl(extra_scenario=True))
    prep = prepare_improved(gadget)
    ok = ok and sample_improved(prep, seed=9) == sample_improved(prep, seed=9)

    st = generate_instance("steiner", seed=2)
    ok = ok and (
        sampling_heuristic(st.graph, st.policy, st.scenarios, seed=9).draws
        == sampling_heuristic(st.graph, st.policy, st.scenarios, seed=9).draws
    )
    ok = ok and saa_build(sc.scenarios, 64, seed=9).scenarios == saa_build(sc.scenarios, 64, seed=9).scenarios
    verdict(12, ok, "same seed, same bytes: bench CSV, covering/facility/tree roundings, empirical scenario sets")
