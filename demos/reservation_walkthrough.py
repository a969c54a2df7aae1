"""Walk one stochastic set-cover instance through the whole toolchain.

Reserve sets at a discount now, exercise the useful ones once demand is
known, or pay the markup for anything bought late — every algorithm in the
package is a different answer to that trade-off.  Run with no arguments.
"""
import numpy as np

from twostage.bench import prepare
from twostage.cover import half_mass_inflation_bound, preprocess_half
from twostage.generators import generate_instance
from twostage.lp_builders import solve_cover_lp
from twostage.oracle import brute_force_optimal

inst = generate_instance("set_cover", seed=7, n_elements=5, n_sets=6, scenarios=3)
policy = inst.policy
print(f"instance: {inst.n_items} sets over {inst.n_elements} elements, "
      f"{len(inst.scenarios)} scenarios, sigma={policy.sigma}, lambda={policy.lam}")
for k, (p, clients) in enumerate(inst.scenarios.scenarios):
    print(f"  scenario {k}: p={p:.3f}, demands {sorted(clients)}")

sol = solve_cover_lp(inst)
opt = brute_force_optimal(inst)
print(f"\nrelaxation value  {sol.value:.4f}")
print(f"exact optimum     {opt.optimal_cost:.4f}  "
      f"(reserves {sorted(opt.optimal_solution.reserved)}, "
      f"{opt.nodes_explored} nodes)")

pre, report = preprocess_half(sol)
cap = half_mass_inflation_bound(policy.sigma, policy.lam)
print(f"\nhalf-mass preprocessing: heavy elements {sorted(report.heavy_elements)}, "
      f"inflation {report.inflation:.4f} (cap {cap:.2f})")
assert np.array_equal(pre.y + pre.z, sol.y + sol.z)  # mass only moves between stages

print("\nalgorithm        cost    vs opt  first stage")
for name in ("double", "srini-sc", "buyall"):
    # prepare once, then average the randomized ones over a few seeds so the
    # table is honest
    sample = prepare(inst, name).sample
    costs, reserved = [], None
    for seed in range(200):
        cost, feasible, _, _, out = sample(seed)
        assert feasible
        costs.append(cost)
        reserved = sorted(out.reserved)
        if name == "buyall":
            break  # deterministic
    mean = float(np.mean(costs))
    print(f"{name:<14} {mean:7.3f}  {mean / opt.optimal_cost:6.3f}  {reserved}")

print("\nthe oracle can also price any reservation you have in mind:")
from twostage.oracle import best_completion

for trial in (frozenset(), opt.optimal_solution.reserved):
    _, cost = best_completion(inst, trial)
    print(f"  reserve {sorted(trial) or '{}'}: best completion costs {cost:.4f}")
