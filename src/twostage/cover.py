"""Rounding schemes for the two-stage covering relaxations.

The fractional optimum of a covering relaxation spreads reservation mass
over many sets.  This module turns it into an integral plan four ways:

* ``preprocess_half`` + ``double_sampler``: concentrate exercise mass so
  that every element either keeps at least half a unit of exercised
  coverage in all its scenarios or loses it in all of them, then round the
  two stages with coupled coin flips so exercised sets are always a subset
  of reserved ones.
* ``threshold_round_vertex_cover``: the deterministic variant for vertex
  cover, buying everything above a fixed mass threshold.
* ``srinivasan_sampler`` / ``srinivasan_round_vertex_cover``: scale the
  raw optimum by ln n + psi and sample; double it and round up.
* ``buy_all_reserved_reduction``: reserves the first stage of a
  plain-recourse plan (``threshold_recourse_cover`` here, or
  ``steiner.mst_recourse_steiner`` for trees) and exercises all of it in
  every scenario, trading a 1/sigma factor for simplicity.

The two samplers do their seed-independent work once and return
``sample(seed, stats=None)``.  A sample optionally fills a caller supplied
``stats`` dict so experiments can audit the tail behaviour:
``double_sampler``'s puts ``stage1_rounds`` (stage-1 sampling rounds before
any greedy repair), ``srinivasan_sampler``'s ``pre_repair_value`` (the
sampled plan's objective before repair) and ``scenarios_repaired`` (how
many scenarios needed it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import InstanceError, VertexCoverInstance
from .lp import LinearProgram, solve_lp
from .lp_builders import (
    CoverInstance,
    FractionalCoverSolution,
    _cover_blocks,
    _demand_lp,
)
from .model import StageDecision, TwoStageSolution, evaluate_objective, stage_price

__all__ = [
    "RecoursePlan",
    "half_mass_inflation_bound",
    "preprocess_half",
    "double_sampler",
    "threshold_round_vertex_cover",
    "srinivasan_sampler",
    "srinivasan_round_vertex_cover",
    "threshold_recourse_cover",
    "buy_all_reserved_reduction",
]

# Mass at exactly one half counts as heavy; the slack only absorbs float dust.
HALF_TIE_TOL = 1e-12

# What a sampler returns: sample(seed, stats=None) -> plan.
Sampler = Callable[[int, dict | None], TwoStageSolution]


@dataclass(frozen=True)
class HalfMassReport:
    """What the half-mass preprocessing did to a fractional solution.

    ``heavy_elements`` holds the elements whose exercised mass stayed at or
    above one half in every scenario demanding them; everything else must be
    picked up by recourse mass.  ``inflation`` is the measured objective
    ratio after/before; ``half_mass_inflation_bound`` caps it.
    """

    heavy_elements: frozenset[int]
    inflation: float


def half_mass_inflation_bound(sigma: float, lam: float) -> float:
    """Certified cap on the preprocessing inflation ratio,
    (lam + 1 - sigma) / (2 - 2*sigma).

    Each halving moves p*w*y/2 of exercise mass, priced at (1 - sigma)*w,
    onto recourse at lam*w, adding at most (lam - 1 + sigma)/(2 - 2*sigma)
    times the exercise cost it moves; so the ratio after/before is at most
    1 + (lam - 1 + sigma)/(2 - 2*sigma), which is this value.  With lam > 1
    it is at least 1.
    """
    return (lam + 1.0 - sigma) / (2.0 - 2.0 * sigma)


def _demand_lists(inst: CoverInstance) -> list[tuple[int, list[int]]]:
    """(element, scenarios demanding it) for every demanded element."""
    where: dict[int, list[int]] = {}
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        for e in clients:
            where.setdefault(e, []).append(k)
    return sorted(where.items())


def classify_heavy(sol: FractionalCoverSolution) -> frozenset[int]:
    """Elements keeping >= 1/2 exercised mass in every scenario demanding them."""
    inc = sol.instance.incidence
    return frozenset(
        e for e, ks in _demand_lists(sol.instance)
        if all(sol.y[k, inc[e]].sum() >= 0.5 - HALF_TIE_TOL for k in ks)
    )


def _preserve_totals(y2: np.ndarray, z2: np.ndarray, total: np.ndarray) -> None:
    """Nudge z2 (then y2) so y2 + z2 equals total bit-for-bit."""
    for target in (z2, y2, z2, y2):
        err = total - (y2 + z2)
        bad = err != 0.0
        if not bad.any():
            return
        target[bad] += err[bad]
    err = total - (y2 + z2)
    if np.any(err != 0.0):  # pragma: no cover - would need adversarial floats
        raise ArithmeticError("could not rebalance exercise/recourse mass exactly")


def preprocess_half(
    sol: FractionalCoverSolution,
) -> tuple[FractionalCoverSolution, HalfMassReport]:
    """Concentrate exercised mass so every element is heavy or light uniformly.

    Whenever an element's exercised mass straddles one half across scenarios,
    the y-values of its covering sets are halved (each at most once, in every
    scenario) and the removed mass is shifted onto the recourse variables, so
    y + z stays exactly constant per (scenario, set) and coverage rows are
    untouched.  Repeats until the classification is uniform or every covering
    set has already been halved.
    """
    inst = sol.instance
    inc = inst.incidence
    demand = _demand_lists(inst)
    y2 = sol.y.copy()
    z2 = sol.z.copy()
    totals = sol.y + sol.z
    halved = np.zeros(inst.n_items, dtype=bool)

    while True:
        to_halve: set[int] = set()
        for e, ks in demand:
            masses = y2[:, inc[e]].sum(axis=1)[ks]
            high = masses >= 0.5 - HALF_TIE_TOL
            if high.any() and not high.all():
                to_halve.update(np.flatnonzero(inc[e] & ~halved).tolist())
        if not to_halve:
            break
        cols = sorted(to_halve)
        sub_y = y2[:, cols] * 0.5  # exact: halving only decrements the exponent
        sub_z = totals[:, cols] - sub_y
        _preserve_totals(sub_y, sub_z, totals[:, cols])
        y2[:, cols] = sub_y
        z2[:, cols] = sub_z
        halved[cols] = True

    w = np.asarray(inst.weights, dtype=float)
    probs = [p for p, _ in inst.scenarios.scenarios]
    value_before, value_after = (
        stage_price(inst.policy, probs, float(sol.x @ w), y @ w, z @ w).total
        for y, z in ((sol.y, sol.z), (y2, z2))
    )
    inflation = value_after / value_before if value_before > 0 else 1.0
    out = FractionalCoverSolution(inst, sol.x.copy(), y2, z2, value_after)
    return out, HalfMassReport(classify_heavy(out), inflation)


def _greedy_cover(inst: CoverInstance, clients, bought: set[int]) -> set[int]:
    """Cheapest-ratio greedy cover of what ``bought`` leaves uncovered in ``clients``;
    deterministic tie-break.  A bought or added item has gain 0 on what remains."""
    inc, w = inst.incidence, inst.weights
    added: set[int] = set()
    remaining = _uncovered(inst, clients, bought)
    while remaining:
        gains = inc[sorted(remaining)].sum(axis=0).tolist()
        best_s, best_ratio = -1, math.inf
        for s, gain in enumerate(gains):  # ascending s keeps ties deterministic
            if gain and w[s] / gain < best_ratio - 1e-15:
                best_s, best_ratio = s, w[s] / gain
        if best_s < 0:
            raise InstanceError("uncoverable element reached the repair step")
        added.add(best_s)
        remaining = {e for e in remaining if not inc[e, best_s]}
    return added


def _odds(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """min(y / x, 1) where x > 0, else 0: the odds of exercising a reservation."""
    ratio = np.zeros(x.size)
    pos = x > 0.0
    ratio[pos] = np.minimum(y[pos] / x[pos], 1.0)
    return ratio


def _ids(mask: np.ndarray) -> frozenset[int]:
    return frozenset(int(v) for v in np.flatnonzero(mask))


def _uncovered(inst: CoverInstance, clients, bought: set[int]) -> set[int]:
    """The elements of ``clients`` that no item of ``bought`` covers."""
    inc = inst.incidence
    return {e for e in clients if not any(inc[e, s] for s in bought)}


def double_sampler(sol: FractionalCoverSolution) -> Sampler:
    """Round a preprocessed solution with coupled stage-1/stage-2 coins.

    Stage 1 repeats rounds that pick every set s independently with
    probability x_s until the heavy elements are covered (capped at
    ceil(4*(ln n + 4)) rounds, then greedily repaired).  In each scenario the
    recorded rounds are replayed with probability y/x so that exercised sets
    are reserved by construction, and the remaining light demand is covered
    by independent rounds over the recourse mass with the same cap-and-repair
    guard.  The output is always feasible.  Everything before the first coin
    runs here, once; the returned ``sample(seed, stats=None)`` draws per seed.
    """
    inst = sol.instance
    n_elem = max(inst.n_elements, 1)
    cap = math.ceil(4.0 * (math.log(n_elem) + 4.0))
    xhat = np.minimum(sol.x, 1.0)
    heavy = classify_heavy(sol)
    # Per scenario: its clients, the replay odds y/x and the light demand.
    scenarios = [
        (clients, _odds(sol.y[k], xhat), set(clients) - heavy, sol.z[k])
        for k, (_, clients) in enumerate(inst.scenarios.scenarios)
    ]

    def sample(seed: int, stats: dict | None = None) -> TwoStageSolution:
        rng = np.random.default_rng(seed)
        reserved: set[int] = set()
        rounds: list[np.ndarray] = []
        while _uncovered(inst, heavy, reserved) and len(rounds) < cap:
            picked = np.flatnonzero(rng.random(inst.n_items) < xhat)
            rounds.append(picked)
            reserved.update(int(s) for s in picked)
        n_rounds = len(rounds)
        extra = _greedy_cover(inst, heavy, reserved)
        if extra:
            rounds.append(np.array(sorted(extra), dtype=int))
            reserved.update(extra)

        stages = []
        for clients, ratio, light, z in scenarios:
            exercised: set[int] = set()
            for picked in rounds:
                keep = picked[rng.random(picked.size) < ratio[picked]]
                exercised.update(int(s) for s in keep)

            recoursed: set[int] = set()
            t = 0
            while _uncovered(inst, light, exercised | recoursed) and t < cap:
                picked = np.flatnonzero(rng.random(inst.n_items) < z)
                recoursed.update(int(s) for s in picked)
                t += 1
            recoursed |= _greedy_cover(inst, clients, exercised | recoursed)
            stages.append(StageDecision(frozenset(exercised), frozenset(recoursed - exercised)))

        if stats is not None:
            stats["stage1_rounds"] = n_rounds
        return TwoStageSolution(frozenset(reserved), tuple(stages))

    return sample


def threshold_round_vertex_cover(sol: FractionalCoverSolution) -> TwoStageSolution:
    """Deterministic rounding of a preprocessed vertex-cover solution.

    Reserves every endpoint of a heavy edge holding at least a quarter of
    reserved mass (half the mass guarantee split over two endpoints),
    exercises those that keep a quarter of exercised mass, and recourses the
    quarter-heavy recourse vertices among the still uncovered edges.  A
    deterministic cheapest-endpoint pass mops up anything left by elements
    the preprocessing could not classify.
    """
    inst = sol.instance
    if not isinstance(inst, VertexCoverInstance):
        raise TypeError("threshold rounding is specific to vertex cover")
    heavy = classify_heavy(sol)
    w = np.asarray(inst.weights, dtype=float)
    tau = 0.25 - HALF_TIE_TOL

    heavy_endpoints: set[int] = set()
    for e in heavy:
        heavy_endpoints.update(inst.edges[e])
    reserved = {v for v in heavy_endpoints if sol.x[v] >= tau}

    stages = []
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        exercised = {v for v in reserved if sol.y[k, v] >= tau}
        remaining = [e for e in sorted(clients) if not set(inst.edges[e]) & exercised]
        rim = {v for e in remaining for v in inst.edges[e]}
        recoursed = {v for v in rim if sol.z[k, v] >= tau}
        for e in remaining:
            u, v = inst.edges[e]
            if u in recoursed or v in recoursed:
                continue
            pick = u if (w[u], u) <= (w[v], v) else v
            recoursed.add(pick)
        stages.append(StageDecision(frozenset(exercised), frozenset(recoursed - exercised)))
    return TwoStageSolution(frozenset(sorted(reserved)), tuple(stages))


def default_psi(n: int) -> float:
    """Slow-growing slack added to ln n by the set-cover scaling."""
    return max(1.0, math.log(math.log(max(n, 3))))


def scale_factor(n: int) -> float:
    """ln n + psi(n), floored at 1 so tiny universes still scale up."""
    return max(math.log(max(n, 1)) + default_psi(n), 1.0)


def srinivasan_sampler(sol: FractionalCoverSolution) -> Sampler:
    """Scale the raw optimum by L = ln n + psi(n) and sample each stage.

    Reserves each set with probability x' = min(L*x, 1), exercises reserved
    sets with probability y'/x', and recourses with probability
    min(L*z, 1), so a demanded element survives uncovered with probability
    at most exp(-psi)/n.  Rare failures are repaired greedily at recourse
    price.  L, x' and every scenario's odds are computed here, once; the
    returned ``sample(seed, stats=None)`` draws per seed and puts the drawn
    plan's objective before repair and the repair count in ``stats``.
    """
    inst = sol.instance
    big_l = scale_factor(inst.n_elements)
    xp = np.minimum(big_l * sol.x, 1.0)
    # Per scenario: its clients, the exercise odds y'/x' and the recourse odds.
    scenarios = [
        (clients, _odds(np.minimum(big_l * sol.y[k], 1.0), xp), np.minimum(big_l * sol.z[k], 1.0))
        for k, (_, clients) in enumerate(inst.scenarios.scenarios)
    ]

    def sample(seed: int, stats: dict | None = None) -> TwoStageSolution:
        rng = np.random.default_rng(seed)
        reserved_mask = rng.random(inst.n_items) < xp
        drawn, stages = [], []
        for clients, odds, zp in scenarios:
            exercised = _ids(reserved_mask & (rng.random(inst.n_items) < odds))
            recoursed = _ids(rng.random(inst.n_items) < zp) - exercised
            drawn.append(StageDecision(exercised, recoursed))
            recoursed |= _greedy_cover(inst, clients, exercised | recoursed)
            stages.append(StageDecision(exercised, recoursed))
        reserved = _ids(reserved_mask)
        if stats is not None:
            before = TwoStageSolution(reserved, tuple(drawn))
            stats["pre_repair_value"] = evaluate_objective(before, inst.policy, inst.scenarios).total
            stats["scenarios_repaired"] = sum(a != b for a, b in zip(drawn, stages))
        return TwoStageSolution(reserved, tuple(stages))

    return sample


def srinivasan_round_vertex_cover(sol: FractionalCoverSolution) -> TwoStageSolution:
    """Double the raw optimum and round it up at one half: <= 2 x LP per run.

    Reserves v when 2x_v >= 1; in scenario k buys v when min(2y, 1) +
    min(2z, 1) >= 1, exercised if reserved and recoursed if not (1e-6 of
    slack for float dust).  Each demanded edge has y + z >= 1 over its
    endpoints, so one is bought.  The relaxation is half-integral (with
    a = y + z every row has at most two +-1 entries; Nemhauser & Trotter
    1975), so a reserved v has x >= 1/2, a bought v has 2y + 2z >= 1 (and
    1 - sigma < lam), and an unreserved v has x = y = 0, so z >= 1/2 if it
    is recoursed: every cost term is at most twice its fractional one.
    """
    if not isinstance(sol.instance, VertexCoverInstance):
        raise TypeError("this rounding is specific to vertex cover")
    reserved = 2.0 * sol.x >= 1.0 - 1e-6
    bought = np.minimum(2.0 * sol.y, 1.0) + np.minimum(2.0 * sol.z, 1.0) >= 1.0 - 1e-6
    stages = tuple(StageDecision(_ids(b & reserved), _ids(b & ~reserved)) for b in bought)
    return TwoStageSolution(_ids(reserved), stages)


@dataclass(frozen=True)
class RecoursePlan:
    """Output of a plain-recourse approximation: no revocation, no exercise.

    ``first_stage`` is bought outright at ground price, ``per_scenario`` at
    the late price lam; ``beta`` is the solver's proven approximation factor
    against the optimal plain-recourse plan.
    """

    first_stage: frozenset[int]
    per_scenario: tuple[frozenset[int], ...]
    beta: float


def _recourse_cover_lp(inst: CoverInstance) -> LinearProgram:
    """Relaxation of the plain-recourse model: x at ground price, z at lam.

    Columns x[s], then z[k,s] per scenario; one row cover[k,e] per demanded
    element: x[s] + z[k,s] summed over the items s covering e is at least 1.
    """
    n = inst.n_items
    demand = [sorted(clients) for _, clients in inst.scenarios.scenarios]
    blocks = _cover_blocks(inst, demand)
    w = np.asarray(inst.weights, dtype=float)
    probs = np.array([p for p, _ in inst.scenarios.scenarios])
    obj = np.concatenate([w, (probs[:, None] * inst.policy.lam * w).ravel()])
    rows = np.zeros((sum(len(block) for block in blocks), obj.size))
    r = 0
    for k, block in enumerate(blocks):
        rows[r : r + len(block), :n] = block
        rows[r : r + len(block), n + k * n : n + (k + 1) * n] = block
        r += len(block)
    names = [f"x[{s}]" for s in range(n)]
    names += [f"z[{k},{s}]" for k in range(len(demand)) for s in range(n)]
    row_names = [f"cover[{k},{e}]" for k, elements in enumerate(demand) for e in elements]
    return _demand_lp(obj, rows, len(rows), names, row_names)


def threshold_recourse_cover(inst: CoverInstance) -> RecoursePlan:
    """Deterministic frequency-threshold solver for the plain-recourse model.

    Solves the recourse relaxation, then scans every feasible threshold U:
    buy {x >= U} now and {x + z_k >= U} late.  Coverage holds for any
    U <= 1/f (f = max element frequency), and averaging over U shows some
    candidate costs at most f times the relaxation, so the cheapest feasible
    candidate is an f-approximation — factor 2 on vertex cover.  The scan
    reads the relaxation's lexicographically least optimal vertex, the one
    ``solve_lp`` returns, so the plan does not move with the pivot path.
    """
    lp = _recourse_cover_lp(inst)
    sol, _ = solve_lp(lp)
    if sol.status != "optimal":
        raise InstanceError(f"recourse relaxation came back {sol.status}")
    n = inst.n_items
    big_k = len(inst.scenarios.scenarios)
    x = sol.values[:n]
    z = sol.values[n:].reshape(big_k, n) if big_k else np.zeros((0, n))
    t = x[None, :] + z
    w = np.asarray(inst.weights, dtype=float)
    probs = [p for p, _ in inst.scenarios.scenarios]

    inc = inst.incidence
    demand = _demand_lists(inst)
    counts = inc.sum(axis=1).tolist()
    freq = max((counts[e] for e, _ in demand), default=1)
    candidates = np.unique(np.concatenate([x, t.ravel(), [0.0, np.max(x, initial=0.0) + 1.0]]))
    # solve_lp clips z at 0, so t >= x: U covers (k, e) iff some covering t[k, s] >= U
    reach = np.where(inc, t[:, None, :], -np.inf).max(axis=2, initial=-np.inf)
    top = min((float(reach[k, e]) for e, ks in demand for k in ks), default=math.inf)

    best_cost, best = math.inf, None
    for u in candidates[candidates <= top]:
        first = x >= u
        late = [(t[k] >= u) & ~first for k in range(big_k)]
        cost = float(w[first].sum()) + sum(
            probs[k] * inst.policy.lam * float(w[late[k]].sum()) for k in range(big_k)
        )
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = (first, late)
    if best is None:  # pragma: no cover - U = 0 is feasible
        raise InstanceError("no feasible threshold found")
    first, late = best
    return RecoursePlan(
        _ids(first),
        tuple(_ids(m) for m in late),
        beta=float(freq),
    )


def buy_all_reserved_reduction(plan: RecoursePlan) -> TwoStageSolution:
    """Turn a plain-recourse plan into a reservation plan.

    The recourse solver buys its first stage outright; here the same items
    are merely reserved and then exercised in every scenario, so the total
    price per first-stage item is unchanged while the guarantee degrades
    from ``plan.beta`` to ``plan.beta / sigma``, because committing to
    exercise everything forfeits the option value the optimum may extract.
    """
    reserved = plan.first_stage
    stages = tuple(
        StageDecision(reserved, frozenset(extra) - reserved)
        for extra in plan.per_scenario
    )
    return TwoStageSolution(reserved, stages)
