"""Tree buying under reservation prices.

Everything here reduces to one primitive: connect a terminal set to the
root with the metric-closure MST, which costs at most twice the optimal
tree.  On top of that sit the draw-union-and-reserve heuristic for
black-box scenario models and the plain-recourse tree plan that the
buy-all-reserved fallback (``cover.buy_all_reserved_reduction``) exercises
in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cover import RecoursePlan
from .instances import InstanceError, MetricGraph, SteinerInstance
from .model import CostPolicy, ScenarioSet, StageDecision, TwoStageSolution

__all__ = ["sampling_heuristic", "mst_recourse_steiner"]

# The closure-MST argument: doubling the optimal tree gives an Euler tour
# that the closure MST never exceeds.
MST_FACTOR = 2.0


def mst_steiner_approx(
    g: MetricGraph,
    terminals: frozenset[int] | set[int],
    edge_price: np.ndarray | None = None,
) -> frozenset[int]:
    """Edges connecting the terminals to the root, within a factor 2 of the
    cheapest such tree under the given prices.

    The closure MST is built by Prim from the root (ties to the lowest
    vertex id, so the tree is a pure function of the distances) and its
    closure edges are expanded into shortest paths.  No terminals means no
    edges; one terminal buys its shortest root path.
    """
    want = sorted(set(terminals) - {g.root})
    if not want:
        return frozenset()
    d, hop = g.shortest_paths(edge_price)
    best = {v: (float(d[g.root, v]), g.root) for v in want}
    bought: set[int] = set()
    while best:
        v = min(best, key=lambda t: (best[t][0], t))
        dist, parent = best.pop(v)
        if not math.isfinite(dist):
            raise InstanceError(f"terminal {v} is unreachable from the root")
        bought.update(g.path_edges(hop, v, parent))
        for t in best:
            if d[v, t] < best[t][0]:
                best[t] = (float(d[v, t]), v)
    return frozenset(bought)


@dataclass(frozen=True)
class SamplingPlan:
    """Reservation produced by the draw-union heuristic plus its stage-2 rule."""

    graph: MetricGraph
    policy: CostPolicy
    first_stage: frozenset[int]
    draws: tuple[frozenset[int], ...]

    def decide(self, realized: frozenset[int]) -> StageDecision:
        """Connect the realized terminals, pricing reserved edges at their
        exercise cost and everything else at the recourse markup."""
        w = np.asarray(self.graph.weights, dtype=float)
        price = w * self.policy.lam
        if self.first_stage:
            held = np.array(sorted(self.first_stage), dtype=int)
            price[held] = w[held] * (1.0 - self.policy.sigma)
        chosen = mst_steiner_approx(self.graph, realized, edge_price=price)
        return StageDecision(chosen & self.first_stage, chosen - self.first_stage)

    def solution_for(self, scen: ScenarioSet) -> TwoStageSolution:
        """Materialize the plan against an explicit scenario list."""
        stages = tuple(self.decide(clients) for _, clients in scen.scenarios)
        return TwoStageSolution(self.first_stage, stages)


def sampling_heuristic(
    g: MetricGraph,
    policy: CostPolicy,
    scen: ScenarioSet,
    seed: int = 0,
) -> SamplingPlan:
    """Reserve the tree of ceil(lambda / sigma) sampled scenarios.

    Draws that many terminal sets from the sampler (lambda = 1.5 at
    sigma = 0.75 draws 2, lambda = 3 at sigma = 0.5 draws 6), reserves the
    approximate tree of their union at ground prices, and leaves stage 2 to
    :meth:`SamplingPlan.decide`.  Explicit and black-box scenario sets draw
    through ``ScenarioSet.sample``, so the draw stream depends only on the
    seed.  An empty explicit set draws nothing and reserves nothing.
    """
    m = math.ceil(policy.lam / policy.sigma) if scen.is_black_box or scen.scenarios else 0
    rng = np.random.default_rng(seed)
    draws = tuple(scen.sample(rng) for _ in range(m))
    return SamplingPlan(g, policy, mst_steiner_approx(g, frozenset().union(*draws)), draws)


def mst_recourse_steiner(inst: SteinerInstance) -> RecoursePlan:
    """Plain-recourse tree plan: the cheaper of buying the union tree up
    front and buying each scenario its own tree at the markup.

    The per-scenario arm alone costs at most 2 * lambda times the optimal
    recourse plan (its trees are 2-approximations of completions of that
    plan), so the minimum certifies beta = 2 * lambda.
    """
    g = inst.graph
    w = np.asarray(g.weights, dtype=float)
    lam = inst.policy.lam
    union: set[int] = set()
    for _, clients in inst.scenarios.scenarios:
        union |= clients
    up_front = mst_steiner_approx(g, union)
    cost_up = float(w[sorted(up_front)].sum())
    per_scenario = tuple(
        mst_steiner_approx(g, clients) for _, clients in inst.scenarios.scenarios
    )
    cost_late = lam * math.fsum(
        p * float(w[sorted(tree)].sum())
        for (p, _), tree in zip(inst.scenarios.scenarios, per_scenario)
    )
    beta = MST_FACTOR * lam
    if cost_up <= cost_late:
        empty = tuple(frozenset() for _ in inst.scenarios.scenarios)
        return RecoursePlan(up_front, empty, beta)
    return RecoursePlan(frozenset(), per_scenario, beta)

