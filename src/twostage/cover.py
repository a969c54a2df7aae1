"""Rounding schemes for the two-stage covering relaxations.

The fractional optimum of a covering relaxation spreads reservation mass
over many sets.  This module turns it into an integral plan four ways:

* ``preprocess_half`` + ``double_randomized_round``: concentrate exercise
  mass so that every element either keeps at least half a unit of exercised
  coverage in all its scenarios or loses it in all of them, then round the
  two stages with coupled coin flips so exercised sets are always a subset
  of reserved ones.
* ``threshold_round_vertex_cover``: the deterministic variant for vertex
  cover, buying everything above a fixed mass threshold.
* ``srinivasan_round_set_cover`` / ``srinivasan_round_vertex_cover``:
  scale-and-sample roundings applied directly to the raw optimum.
* ``buy_all_reserved_reduction``: forwards any plain-recourse approximation
  and exercises its whole first stage, trading a 1/sigma factor for
  simplicity.

Randomized routines take an integer seed and optionally fill a caller
supplied ``stats`` dict with round counts, repair flags, and pre-repair
objective values so experiments can audit the tail behaviour.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import InstanceError, SetCoverInstance, VertexCoverInstance
from .lp import LinearProgram, solve_lp
from .lp_builders import (
    CoverInstance,
    FractionalCoverSolution,
    _cover_blocks,
    _demand_lp,
    solve_cover_lp,
)
from .model import StageDecision, TwoStageSolution

__all__ = [
    "HalfMassReport",
    "RecoursePlan",
    "half_mass_inflation_bound",
    "classify_heavy",
    "fractional_cover_value",
    "preprocess_half",
    "double_randomized_round",
    "threshold_round_vertex_cover",
    "srinivasan_round_set_cover",
    "srinivasan_round_vertex_cover",
    "default_psi",
    "scale_factor",
    "threshold_recourse_cover",
    "buy_all_reserved_reduction",
    "prepare_cover",
]

# Mass at exactly one half counts as heavy; the slack only absorbs float dust.
HALF_TIE_TOL = 1e-12


@dataclass(frozen=True)
class HalfMassReport:
    """What the half-mass preprocessing did to a fractional solution.

    ``heavy_elements`` holds the elements whose exercised mass stayed at or
    above one half in every scenario demanding them; everything else must be
    picked up by recourse mass.  ``inflation`` is the measured objective
    ratio after/before and ``k_bound`` the guaranteed cap
    (lam + sigma - 1) / (2 - 2*sigma) on the exercise-to-recourse transfer.
    """

    heavy_elements: frozenset[int]
    inflation: float
    k_bound: float
    value_before: float
    value_after: float


def half_mass_inflation_bound(sigma: float, lam: float) -> float:
    """Certified cap on the preprocessing inflation ratio.

    Moving half a unit of exercise mass to recourse price can cost at most
    (lam + 1 - sigma)/(2 - 2*sigma) times the original; the companion
    formula (lam + sigma - 1)/(2 - 2*sigma) is kept inside the max so the
    bound is safe under either reading.
    """
    return max(
        (lam + sigma - 1.0) / (2.0 - 2.0 * sigma),
        (lam + 1.0 - sigma) / (2.0 - 2.0 * sigma),
        1.0,
    )


def fractional_cover_value(
    inst: CoverInstance, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> float:
    """Objective of a fractional covering plan under the instance prices."""
    w = np.asarray(inst.weights, dtype=float)
    sigma = inst.policy.sigma
    lam = inst.policy.lam
    total = sigma * float(x @ w)
    for k, (p, _) in enumerate(inst.scenarios.scenarios):
        total += p * ((1.0 - sigma) * float(y[k] @ w) + lam * float(z[k] @ w))
    return total


def _demand_lists(inst: CoverInstance) -> list[tuple[int, list[int]]]:
    """(element, scenarios demanding it) for every demanded element."""
    where: dict[int, list[int]] = {}
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        for e in clients:
            where.setdefault(e, []).append(k)
    return sorted(where.items())


def classify_heavy(sol: FractionalCoverSolution) -> frozenset[int]:
    """Elements keeping >= 1/2 exercised mass in every scenario demanding them."""
    heavy = []
    for e, ks in _demand_lists(sol.instance):
        items = list(sol.instance.covering_items(e))
        if all(sol.y[k, items].sum() >= 0.5 - HALF_TIE_TOL for k in ks):
            heavy.append(e)
    return frozenset(heavy)


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
    demand = _demand_lists(inst)
    y2 = sol.y.copy()
    z2 = sol.z.copy()
    totals = sol.y + sol.z
    halved = np.zeros(inst.n_items, dtype=bool)

    while True:
        to_halve: set[int] = set()
        for e, ks in demand:
            items = list(inst.covering_items(e))
            masses = y2[:, items].sum(axis=1)[ks]
            high = masses >= 0.5 - HALF_TIE_TOL
            if high.any() and not high.all():
                to_halve.update(s for s in items if not halved[s])
        if not to_halve:
            break
        cols = sorted(to_halve)
        sub_y = y2[:, cols] * 0.5  # exact: halving only decrements the exponent
        sub_z = totals[:, cols] - sub_y
        _preserve_totals(sub_y, sub_z, totals[:, cols])
        y2[:, cols] = sub_y
        z2[:, cols] = sub_z
        halved[cols] = True

    value_before = fractional_cover_value(inst, sol.x, sol.y, sol.z)
    value_after = fractional_cover_value(inst, sol.x, y2, z2)
    inflation = value_after / value_before if value_before > 0 else 1.0
    out = FractionalCoverSolution(inst, sol.x.copy(), y2, z2, value_after)
    report = HalfMassReport(
        heavy_elements=classify_heavy(out),
        inflation=inflation,
        k_bound=(inst.policy.lam + inst.policy.sigma - 1.0)
        / (2.0 - 2.0 * inst.policy.sigma),
        value_before=value_before,
        value_after=value_after,
    )
    return out, report


def _greedy_cover(
    inst: CoverInstance, inc: np.ndarray, uncovered: set[int], owned: set[int]
) -> set[int]:
    """Cheapest-ratio greedy cover of ``uncovered``; deterministic tie-break.
    ``inc`` is ``inst.incidence()``."""
    added: set[int] = set()
    remaining = set(uncovered)
    w = np.asarray(inst.weights, dtype=float)
    while remaining:
        best_s, best_ratio = -1, math.inf
        for s in range(inst.n_items):  # ascending s keeps ties deterministic
            if s in owned or s in added:
                continue
            gain = sum(1 for e in remaining if inc[e, s])
            if gain and w[s] / gain < best_ratio - 1e-15:
                best_s, best_ratio = s, w[s] / gain
        if best_s < 0:
            raise InstanceError("uncoverable element reached the repair step")
        added.add(best_s)
        remaining = {e for e in remaining if not inc[e, best_s]}
    return added


def _uncovered(inc: np.ndarray, clients, bought: set[int]) -> set[int]:
    return {e for e in clients if not any(inc[e, s] for s in bought)}


def double_randomized_round(
    sol: FractionalCoverSolution,
    seed: int = 0,
    stats: dict | None = None,
) -> TwoStageSolution:
    """Round a preprocessed solution with coupled stage-1/stage-2 coins.

    Stage 1 repeats rounds that pick every set s independently with
    probability x_s until the heavy elements are covered (capped at
    ceil(4*(ln n + 4)) rounds, then greedily repaired).  In each scenario the
    recorded rounds are replayed with probability y/x so that exercised sets
    are reserved by construction, and the remaining light demand is covered
    by independent rounds over the recourse mass with the same cap-and-repair
    guard.  The output is always feasible.
    """
    return _double_sampler(sol, classify_heavy(sol))(seed, stats)


def _double_sampler(
    sol: FractionalCoverSolution, heavy: frozenset[int]
) -> Callable[[int, dict | None], TwoStageSolution]:
    """Everything ``double_randomized_round`` computes before its first coin;
    returns (seed, stats) -> plan.  ``heavy`` is ``classify_heavy(sol)``."""
    inst = sol.instance
    inc = inst.incidence()
    n_elem = max(inst.n_elements, 1)
    cap = math.ceil(4.0 * (math.log(n_elem) + 4.0))
    xhat = np.minimum(sol.x, 1.0)
    target = set(heavy) & {e for e, _ in _demand_lists(inst)}
    pos = xhat > 0.0
    # Per scenario: its clients, the replay odds y/x and the light demand.
    scenarios = []
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        ratio = np.zeros(inst.n_items)
        ratio[pos] = np.minimum(sol.y[k, pos] / xhat[pos], 1.0)
        scenarios.append((clients, ratio, set(clients) - heavy, sol.z[k]))

    def sample(seed: int, stats: dict | None = None) -> TwoStageSolution:
        rng = np.random.default_rng(seed)
        reserved: set[int] = set()
        rounds: list[np.ndarray] = []
        n_rounds = 0
        while _uncovered(inc, target, reserved) and n_rounds < cap:
            picked = np.flatnonzero(rng.random(inst.n_items) < xhat)
            rounds.append(picked)
            reserved.update(int(s) for s in picked)
            n_rounds += 1
        repaired_stage1 = False
        missing = _uncovered(inc, target, reserved)
        if missing:
            extra = _greedy_cover(inst, inc, missing, reserved)
            rounds.append(np.array(sorted(extra), dtype=int))
            reserved.update(extra)
            repaired_stage1 = True

        stages = []
        scenario_repairs = 0
        for clients, ratio, light, z in scenarios:
            exercised: set[int] = set()
            for picked in rounds:
                keep = picked[rng.random(picked.size) < ratio[picked]]
                exercised.update(int(s) for s in keep)

            recoursed: set[int] = set()
            t = 0
            while _uncovered(inc, light, exercised | recoursed) and t < cap:
                picked = np.flatnonzero(rng.random(inst.n_items) < z)
                recoursed.update(int(s) for s in picked)
                t += 1
            leftover = _uncovered(inc, clients, exercised | recoursed)
            if leftover:
                recoursed |= _greedy_cover(inst, inc, leftover, exercised | recoursed)
                scenario_repairs += 1
            stages.append(
                StageDecision(frozenset(exercised), frozenset(recoursed - exercised))
            )

        if stats is not None:
            stats["stage1_rounds"] = n_rounds
            stats["stage1_repaired"] = repaired_stage1
            stats["scenario_repairs"] = scenario_repairs
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


def scale_factor(n: int, psi: float | None = None) -> float:
    """ln n + psi(n), floored at 1 so tiny universes still scale up."""
    p = default_psi(n) if psi is None else psi
    return max(math.log(max(n, 1)) + p, 1.0)


def srinivasan_round_set_cover(
    sol: FractionalCoverSolution,
    psi: float | None = None,
    seed: int = 0,
    stats: dict | None = None,
) -> TwoStageSolution:
    """Scale the raw optimum by L = ln n + psi(n) and sample each stage.

    Reserves each set with probability min(L*x, 1), exercises reserved sets
    with probability y'/x', and recourses with probability min(L*z, 1), so a
    demanded element survives uncovered with probability at most
    exp(-psi)/n.  Rare failures are repaired greedily at recourse price; the
    pre-repair objective and repair count land in ``stats``.
    """
    inst = sol.instance
    rng = np.random.default_rng(seed)
    n = inst.n_elements
    big_l = scale_factor(n, psi)
    xp = np.minimum(big_l * sol.x, 1.0)
    reserved_mask = rng.random(inst.n_items) < xp
    reserved = frozenset(int(v) for v in np.flatnonzero(reserved_mask))

    w = np.asarray(inst.weights, dtype=float)
    inc = inst.incidence()
    sigma = inst.policy.sigma
    lam = inst.policy.lam
    pre_repair = sigma * float(w[list(reserved)].sum()) if reserved else 0.0
    repairs = 0
    stages = []
    for k, (p, clients) in enumerate(inst.scenarios.scenarios):
        yp = np.minimum(big_l * sol.y[k], 1.0)
        zp = np.minimum(big_l * sol.z[k], 1.0)
        ratio = np.zeros(inst.n_items)
        pos = xp > 0.0
        ratio[pos] = np.minimum(yp[pos] / xp[pos], 1.0)
        exercised = {
            int(v)
            for v in np.flatnonzero(reserved_mask & (rng.random(inst.n_items) < ratio))
        }
        recoursed = {int(v) for v in np.flatnonzero(rng.random(inst.n_items) < zp)}
        pre_repair += p * (
            (1.0 - sigma) * float(w[list(exercised)].sum() if exercised else 0.0)
            + lam * float(w[list(recoursed - exercised)].sum() if recoursed - exercised else 0.0)
        )
        missing = _uncovered(inc, clients, exercised | recoursed)
        if missing:
            recoursed |= _greedy_cover(inst, inc, missing, exercised | recoursed)
            repairs += 1
        stages.append(StageDecision(frozenset(exercised), frozenset(recoursed - exercised)))

    if stats is not None:
        stats["scale"] = big_l
        stats["pre_repair_value"] = pre_repair
        stats["scenarios_repaired"] = repairs
    return TwoStageSolution(reserved, tuple(stages))


def srinivasan_round_vertex_cover(
    sol: FractionalCoverSolution, seed: int = 0
) -> TwoStageSolution:
    """Double the raw optimum, sample, then force-buy saturated vertices.

    After reserving with probability min(2x,1) and exercising reserved
    vertices with probability y'/x', every vertex whose doubled masses sum
    to at least one is bought for sure: exercised when reserved, recoursed
    otherwise.  Each demanded edge has such an endpoint, so the output is
    feasible on every seed; vertices below the saturation line are never
    recoursed, which keeps the expected cost within twice the fractional
    value.
    """
    inst = sol.instance
    if not isinstance(inst, VertexCoverInstance):
        raise TypeError("this rounding is specific to vertex cover")
    rng = np.random.default_rng(seed)
    xp = np.minimum(2.0 * sol.x, 1.0)
    reserved_mask = rng.random(inst.n_items) < xp

    stages = []
    for k in range(len(inst.scenarios.scenarios)):
        yp = np.minimum(2.0 * sol.y[k], 1.0)
        zp = np.minimum(2.0 * sol.z[k], 1.0)
        ratio = np.zeros(inst.n_items)
        pos = xp > 0.0
        ratio[pos] = np.minimum(yp[pos] / xp[pos], 1.0)
        sampled = reserved_mask & (rng.random(inst.n_items) < ratio)
        # Row sums >= 1 guarantee one endpoint per edge clears this line.
        forced = yp + zp >= 1.0 - 1e-6
        exercised = sampled | (forced & reserved_mask)
        recoursed = forced & ~reserved_mask
        stages.append(
            StageDecision(
                frozenset(int(v) for v in np.flatnonzero(exercised)),
                frozenset(int(v) for v in np.flatnonzero(recoursed)),
            )
        )
    reserved = frozenset(int(v) for v in np.flatnonzero(reserved_mask))
    return TwoStageSolution(reserved, tuple(stages))


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

    Solves the recourse relaxation, then scans every candidate threshold U:
    buy {x >= U} now and {x + z_k >= U} late.  Coverage holds for any
    U <= 1/f (f = max element frequency), and averaging over U shows some
    candidate costs at most f times the relaxation, so the cheapest feasible
    candidate is an f-approximation — factor 2 on vertex cover.
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

    demand = _demand_lists(inst)
    freq = max((len(inst.covering_items(e)) for e, _ in demand), default=1)
    candidates = np.unique(np.concatenate([x, t.ravel(), [0.0, np.max(x, initial=0.0) + 1.0]]))

    best_cost, best = math.inf, None
    for u in candidates:
        first = x >= u
        late = [(t[k] >= u) & ~first for k in range(big_k)]
        ok = all(
            any(first[s] or (t[k, s] >= u) for s in inst.covering_items(e))
            for e, ks in demand
            for k in ks
        )
        if not ok:
            continue
        cost = float(w[first].sum()) + sum(
            probs[k] * inst.policy.lam * float(w[late[k]].sum()) for k in range(big_k)
        )
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = (first, late)
    if best is None:  # pragma: no cover - candidates always include feasible U
        raise InstanceError("no feasible threshold found")
    first, late = best
    return RecoursePlan(
        frozenset(int(v) for v in np.flatnonzero(first)),
        tuple(frozenset(int(v) for v in np.flatnonzero(m)) for m in late),
        beta=float(freq),
    )


def buy_all_reserved_reduction(
    recourse_algorithm: Callable[..., RecoursePlan],
    instance,
    stats: dict | None = None,
) -> TwoStageSolution:
    """Turn a plain-recourse approximation into a reservation plan.

    The recourse solver buys its first stage outright; here the same sets
    are merely reserved and then exercised in every scenario, so the total
    price per first-stage set is unchanged while the guarantee degrades from
    beta to beta/sigma, because committing to exercise everything forfeits
    the option value the optimum may extract.
    """
    plan = recourse_algorithm(instance)
    reserved = plan.first_stage
    stages = tuple(
        StageDecision(reserved, frozenset(extra) - reserved)
        for extra in plan.per_scenario
    )
    if stats is not None:
        stats["beta"] = plan.beta
        stats["factor"] = plan.beta / instance.policy.sigma
    return TwoStageSolution(reserved, stages)


def prepare_cover(
    inst: CoverInstance,
    algorithm: str,
    sol: FractionalCoverSolution | None = None,
    stats: dict | None = None,
) -> Callable[[int], TwoStageSolution]:
    """Everything a named scheme does before its first draw; returns the
    per-seed sample, seed -> plan.

    ``sol`` is the relaxation's optimum, solved here when not given.  The
    deterministic schemes (``threshold``, ``buyall``) finish their plan here
    and their sample ignores the seed.  ``stats`` receives what the scheme
    reports: ``buyall`` fills it here, ``double`` and ``srini-sc`` on each
    draw.
    """
    if algorithm == "buyall":
        plan = buy_all_reserved_reduction(threshold_recourse_cover, inst, stats)
        return lambda seed: plan
    if sol is None:
        sol = solve_cover_lp(inst)
    if algorithm == "double":
        pre, report = preprocess_half(sol)
        sample = _double_sampler(pre, report.heavy_elements)
        return lambda seed: sample(seed, stats)
    if algorithm == "threshold":
        pre, _ = preprocess_half(sol)
        plan = threshold_round_vertex_cover(pre)
        return lambda seed: plan
    if algorithm == "srini-sc":
        return lambda seed: srinivasan_round_set_cover(sol, seed=seed, stats=stats)
    if algorithm == "srini-vc":
        return lambda seed: srinivasan_round_vertex_cover(sol, seed=seed)
    raise ValueError(f"unknown covering algorithm {algorithm!r}")


def round_for_cover(
    inst: CoverInstance, algorithm: str, seed: int = 0, stats: dict | None = None
) -> TwoStageSolution:
    """Solve the relaxation and apply one of the named rounding schemes."""
    return prepare_cover(inst, algorithm, stats=stats)(seed)
