"""Facility location on a metric 3-cycle whose relaxation is genuinely
fractional: every facility sits at distance 1 from two clients, so the
relaxation hedges with half-open facilities and the rounding machinery has
real work to do.
"""
import numpy as np

from twostage.instances import UflInstance
from twostage.lp_builders import FractionalUflSolution, solve_ufl_lp
from twostage.model import ScenarioSet
from twostage.ufl import (
    clustered_approx_factor,
    evaluate_ufl_cost,
    prepare_improved,
    round_5approx,
    sample_improved,
)

inst = UflInstance(
    open_cost=(2.0, 2.0, 2.0),
    scenario_open_cost=((4.0, 4.0, 4.0), (4.0, 4.0, 4.0)),
    distance=tuple(
        tuple(1.0 if i in (j, (j + 1) % 3) else 3.0 for j in range(3))
        for i in range(3)
    ),
    sigma=0.5,
    scenarios=ScenarioSet.explicit([(0.5, [0, 1, 2]), (0.5, [0])]),
)
sol = solve_ufl_lp(inst)
print("relaxation opens facilities fractionally:")
print("  y0 =", np.round(sol.y0, 3), " value =", round(sol.value, 4))

trace = {}
plan5 = round_5approx(sol, trace=trace)
bd = evaluate_ufl_cost(inst, plan5)
print("\ndeterministic ball rounding (factor 5):")
print(f"  reserves {sorted(plan5.solution.reserved)}, total {bd.total:.3f} "
      f"= {bd.total / sol.value:.2f} x relaxation")
for (k, j), prof in sorted(trace["profiles"].items()):
    print(f"  pair (scenario {k}, client {j}): fractional cost {prof.c_star:.3f}, "
          f"ball radius {prof.c_alpha:.3f}, near facilities {sorted(prof.near)}")

# The LP's half-open facilities boost straight to probability 1, so the
# cluster rounding is deterministic on this input.  A hand-tilted fractional
# plan keeps the opening coins strictly inside (0, 1) and shows the sampler
# actually mixing over reservations.
x = np.zeros((2, 3, 3))
for k, clients in enumerate(([0, 1, 2], [0])):
    for j in clients:
        x[k, j, j] = 0.7
        x[k, j, (j + 1) % 3] = 0.3
tilted = FractionalUflSolution(
    inst,
    y0=np.full(3, 0.7),
    yk=np.full((2, 3), 0.7),
    zk=np.full((2, 3), 0.3),
    x=x,
    value=float(
        inst.sigma * 3 * 0.7 * 2.0
        + (1 - inst.sigma) * 3 * 0.7 * 4.0
        + inst.lam * 3 * 0.3 * 4.0
    ),
)
print("\nrandomized cluster rounding of a tilted plan, 4000 seeds:")
costs = []
reservations = {}
prep = prepare_improved(tilted)
for seed in range(4000):
    plan = sample_improved(prep, seed=seed)
    costs.append(evaluate_ufl_cost(inst, plan).total)
    key = tuple(sorted(plan.solution.reserved))
    reservations[key] = reservations.get(key, 0) + 1
print(f"  mean cost {np.mean(costs):.3f}, worst {max(costs):.3f}")
for key, count in sorted(reservations.items()):
    print(f"  reserved {list(key)}: {count / 4000:.1%} of seeds")

certified = clustered_approx_factor(det_factor=5.0)
print(f"\ncertified factor with the in-repo second stage: {certified:.2f}")
print(f"with a 1.52-quality second stage the same arithmetic gives "
      f"{clustered_approx_factor():.2f}")
print(f"observed mean / relaxation: {np.mean(costs) / sol.value:.2f}")
