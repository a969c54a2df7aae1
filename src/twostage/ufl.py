"""Facility-location roundings for the reserve/exercise/recourse model.

All three roundings share one filter-and-cluster step, ``_greedy_balls``:
items are visited cheapest first, and each joins the earliest founder
whose ball meets its own, or founds its own ball.  ``round_5approx`` runs
it on the demanded (scenario, client) pairs.  The improved rounding
(``prepare_improved``, ``sample_improved``) is prepared once and sampled
per seed, where it only draws.  It splits pairs into a first-stage
side (clustered over facility copies, then sampled) and a second-stage
side (``deterministic_ufl_approx`` per scenario), trading determinism for
a smaller factor.

The two-stage roundings produce a :class:`UflPlan`: reserved / exercised /
recoursed facility sets plus a per-scenario client assignment.
``evaluate_ufl_cost`` is the single costing routine every test and
benchmark goes through.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .instances import InstanceError, UflInstance
from .lp import solve_lp
from .lp_builders import FractionalUflSolution, build_deterministic_ufl_lp
from .model import StageDecision, TwoStageSolution

__all__ = [
    "ALPHA",
    "BETA",
    "THETA",
    "GAMMA",
    "evaluate_ufl_cost",
    "round_5approx",
    "prepare_improved",
    "sample_improved",
    "clustered_approx_factor",
]

ALPHA = 0.4
BETA = 0.5

# Expected rejection-sampling rounds when one round succeeds w.p. >= 1 - 1/e.
RETRY_FACTOR = math.e / (math.e - 1.0)

# The best published single-stage factor; deterministic_ufl_approx below
# guarantees only 5, and this value enters only the bound evaluator.
DET_FACTOR_CITED = 1.52

# Splitting threshold balancing the first-stage component (~2.29) against
# the cited single-stage factor.
THETA = 2.29 / (2.29 + 1.52)
# The prefix filter keeps a 1 / BOOST share of each pair's service mass.
BOOST = 1.447
GAMMA = 1.0 / BOOST

# Cluster reservation retries before falling back to the likeliest copy.
REJECTION_CAP = 64

_TOL = 1e-12


# ---------------------------------------------------------------------------
# plans and costing


@dataclass(frozen=True)
class UflPlan:
    """Integral facility plan plus who serves whom in each scenario."""

    solution: TwoStageSolution
    assignment: tuple[dict[int, int], ...]


@dataclass(frozen=True)
class UflCostBreakdown:
    reserve: float
    exercise: float
    recourse_open: float
    service: float

    @property
    def total(self) -> float:
        return self.reserve + self.exercise + self.recourse_open + self.service


def evaluate_ufl_cost(inst: UflInstance, plan: UflPlan) -> UflCostBreakdown:
    """Price a plan under the instance: sigma * f0 up front, (1 - sigma) * f0
    per exercised facility, f^k per recoursed one, plus assignment distances.

    Raises if a demanded client is unassigned or points at a closed facility.
    """
    f0 = np.asarray(inst.open_cost)
    c = inst.dist
    sol = plan.solution
    reserve = inst.sigma * float(f0[sorted(sol.reserved)].sum())
    exercise = recourse = service = 0.0
    for k, (p, clients) in enumerate(inst.scenarios.scenarios):
        stage = sol.stages[k]
        if not stage.exercised <= sol.reserved:
            raise InstanceError(f"scenario {k} exercises an unreserved facility")
        open_now = stage.exercised | stage.recoursed
        exercise += p * (1.0 - inst.sigma) * float(f0[sorted(stage.exercised)].sum())
        recourse += p * sum(inst.scenario_open_cost[k][i] for i in sorted(stage.recoursed))
        for j in sorted(clients):
            i = plan.assignment[k].get(j)
            if i is None or i not in open_now:
                raise InstanceError(f"client {j} unserved in scenario {k}")
            service += p * float(c[i, j])
    return UflCostBreakdown(reserve, exercise, recourse, service)


# ---------------------------------------------------------------------------
# neighborhood balls


@dataclass(frozen=True)
class NeighborhoodProfile:
    """Geometry of one demanded pair's fractional service.

    ``c_star`` is the pair's fractional service cost, ``c_alpha`` the
    smallest radius whose facilities carry at least ``alpha`` of the service
    mass, ``near`` those facilities.  Markov pins the radius: mass beyond it
    would exceed 1 - alpha, so c_alpha <= c_star / (1 - alpha).
    """

    alpha: float
    c_star: float
    c_alpha: float
    near: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.c_alpha > self.c_star / (1.0 - self.alpha) + 1e-9:
            raise ArithmeticError("ball radius exceeds its mass bound")


def _service_profile(weights: np.ndarray, dists: np.ndarray) -> NeighborhoodProfile:
    # Facilities sorted by distance, lowest id first on ties.
    order = np.lexsort((np.arange(dists.size), dists))
    cum = np.cumsum(weights[order])
    target = min(ALPHA, float(cum[-1]) - _TOL) if cum.size else ALPHA
    stop = int(np.searchsorted(cum, target - _TOL))
    stop = min(stop, dists.size - 1)
    c_alpha = float(dists[order[stop]])
    near = np.flatnonzero(dists <= c_alpha + _TOL)
    c_star = float(weights @ dists)
    return NeighborhoodProfile(ALPHA, c_star, c_alpha, tuple(int(i) for i in near))


def _greedy_balls(order, balls, joins=None) -> tuple[list, dict]:
    """The filter-and-cluster step: visit the items of ``order`` and let each
    join the earliest founder whose ball meets its own, or found its own ball.

    ``balls[t]`` is item t's ball, a frozenset; ``joins(t, f)``, when given,
    says whether item t may join founder f at all.  Returns the founders in
    founding order and each item's founder.
    """
    founders: list = []
    founder_of: dict = {}
    for t in order:
        meets = (f for f in founders if balls[f] & balls[t] and (joins is None or joins(t, f)))
        f = next(meets, None)
        if f is None:
            founders.append(t)
            f = t
        founder_of[t] = f
    return founders, founder_of


def round_5approx(sol: FractionalUflSolution, trace: dict | None = None) -> UflPlan:
    """Deterministic ball rounding of the two-stage relaxation.

    Pairs are processed by increasing fractional service cost.  A pair whose
    ball overlaps an earlier opened ball is served by that facility (ground
    openings serve across scenarios, recourse openings only their own).
    Otherwise the pair compares the exercised mass in its ball against
    BETA: rich balls open the cheapest-f0 facility now, poor ones the
    cheapest-f^k facility at recourse.  Every assignment stays within
    3/(1-ALPHA) of the pair's fractional cost; with ALPHA = 2/5 and
    BETA = 1/2 each cost block is within a factor 5 of the relaxation.
    """
    inst = sol.instance
    c = inst.dist
    ybark = np.minimum(sol.yk / ALPHA, 1.0)
    zbark = np.minimum(sol.zk / ALPHA, 1.0)

    pairs = [(k, j) for k in range(len(inst.scenarios)) for j in inst.demanded(k)]
    profiles = {(k, j): _service_profile(sol.x[k, j], c[:, j]) for k, j in pairs}
    order = sorted(pairs, key=lambda kj: (profiles[kj].c_star, kj[1], kj[0]))
    balls = {kj: frozenset(prof.near) for kj, prof in profiles.items()}
    # a rich ball opens on the ground, which serves every scenario
    rich = {
        (k, j): float(ybark[k, prof.near].sum()) >= BETA - _TOL
        for (k, j), prof in profiles.items()
    }
    founders, founder_of = _greedy_balls(
        order, balls, lambda t, f: rich[f] or f[0] == t[0]
    )

    # founders open in founding order, so the first one that cannot raises
    opened: dict[tuple[int, int], int] = {}
    for k, j in founders:
        ground = rich[(k, j)]
        mass, price = (ybark, inst.open_cost) if ground else (zbark, inst.scenario_open_cost[k])
        pool = [i for i in profiles[(k, j)].near if mass[k, i] > _TOL]
        if not pool and not ground:
            raise InstanceError(f"pair ({k}, {j}) has no recourse mass in its ball")
        opened[(k, j)] = min(pool, key=lambda i: (price[i], i))
    assignment: list[dict[int, int]] = [dict() for _ in inst.scenarios.scenarios]
    for k, j in order:
        assignment[k][j] = opened[founder_of[(k, j)]]

    reserved = frozenset(opened[f] for f in founders if rich[f])
    served = {(f, k) for (k, _), f in founder_of.items()}
    stages = []
    for k in range(len(inst.scenarios)):
        exercised = {opened[f] for f in founders if rich[f] and (f, k) in served}
        late = [opened[f] for f in founders if not rich[f] and f[0] == k]
        # a reserved facility is already paid for: exercising it is cheaper
        exercised.update(i for i in late if i in reserved)
        recoursed = frozenset(i for i in late if i not in reserved)
        stages.append(StageDecision(frozenset(exercised), recoursed))
    if trace is not None:
        trace["profiles"] = profiles
    return UflPlan(TwoStageSolution(reserved, tuple(stages)), tuple(assignment))


def deterministic_ufl_approx(
    open_cost: np.ndarray,
    distance: np.ndarray,
    clients: tuple[int, ...],
    serve: np.ndarray,
) -> tuple[frozenset[int], dict[int, int]]:
    """Single-stage ball rounding: integral opening within 1/ALPHA of the
    fractional opening cost, assignments within 3/(1-ALPHA) of each client's
    fractional service cost.  With ALPHA = 2/5 the overall factor is 5.

    ``serve[t]`` is the service row of ``clients[t]``; each row must carry
    mass >= ALPHA and lie within the fractional opening facility-wise.
    """
    f = np.asarray(open_cost, dtype=float)
    d = np.asarray(distance, dtype=float)
    profiles = [_service_profile(serve[t], d[:, j]) for t, j in enumerate(clients)]
    order = sorted(range(len(clients)), key=lambda t: (profiles[t].c_star, clients[t]))
    founders, founder_of = _greedy_balls(order, [frozenset(p.near) for p in profiles])
    opened = {}
    for t in founders:
        pool = [i for i in profiles[t].near if serve[t, i] > _TOL]
        opened[t] = min(pool, key=lambda i: (f[i], i))
    assignment = {clients[t]: opened[founder_of[t]] for t in order}
    return frozenset(opened.values()), assignment


# ---------------------------------------------------------------------------
# pair splitting


@dataclass(frozen=True)
class SplitAssignment:
    """Service mass split by which opening it leans on: ``first[k, j, i]``
    rides the exercised reservation, ``second`` the recourse opening."""

    instance: UflInstance
    first: np.ndarray
    second: np.ndarray


def split_assignment(sol: FractionalUflSolution) -> SplitAssignment:
    """Greedy per-entry split of x: fill from the exercised capacity yk
    first, send the remainder to recourse.  x = 1 against yk = 0.4 splits
    into (0.4, 0.6).  Sums are preserved exactly."""
    first = np.minimum(sol.x, sol.yk[:, None, :])
    second = sol.x - first
    return SplitAssignment(sol.instance, first, np.maximum(second, 0.0))


def classify_pairs(
    split: SplitAssignment,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Pairs with first-stage service mass >= THETA (boundary inclusive) are
    rounded with the reservation machinery; the rest carry recourse mass
    >= 1 - THETA and are rounded per scenario."""
    inst = split.instance
    first: list[tuple[int, int]] = []
    second: list[tuple[int, int]] = []
    for k in range(len(inst.scenarios)):
        for j in inst.demanded(k):
            if float(split.first[k, j].sum()) >= THETA - _TOL:
                first.append((k, j))
            else:
                second.append((k, j))
    return tuple(first), tuple(second)


# ---------------------------------------------------------------------------
# facility copies and the prefix filter


@dataclass(frozen=True)
class CompleteUfl:
    """Facility-copy view in which every positive service entry equals the
    copy's opening mass.  ``source[c]`` is the original facility; ``aux``
    rows are capacity layers (per-scenario opening masses) cut along the
    same breakpoints, so no copy straddles one."""

    source: np.ndarray
    open_mass: np.ndarray
    serve: np.ndarray
    aux: np.ndarray


def make_complete(open_mass: np.ndarray, serve: np.ndarray, aux: np.ndarray) -> CompleteUfl:
    """Split each facility at its distinct service / layer values.

    An opening of 0.6 serving rows 0.6 and 0.2 becomes copies of mass 0.2
    and 0.4; the 0.2-row uses only the first copy, the 0.6-row both.  Total
    opening mass and every row sum are preserved exactly (the cuts are
    existing values, so each interval length is a difference of inputs).
    """
    y = np.asarray(open_mass, dtype=float)
    rows = np.asarray(serve, dtype=float)
    layers = np.asarray(aux, dtype=float)
    src: list[int] = []
    mass: list[float] = []
    serve_cols: list[np.ndarray] = []
    aux_cols: list[np.ndarray] = []
    for i in range(y.size):
        if y[i] <= _TOL:
            continue
        cuts = {float(v) for v in rows[:, i] if _TOL < v < y[i] - _TOL}
        cuts |= {float(v) for v in layers[:, i] if _TOL < v < y[i] - _TOL}
        breaks = [0.0] + sorted(cuts) + [float(y[i])]
        for lo, hi in zip(breaks, breaks[1:]):
            if hi - lo <= _TOL:
                continue
            src.append(i)
            mass.append(hi - lo)
            serve_cols.append(np.where(rows[:, i] >= hi - _TOL, hi - lo, 0.0))
            aux_cols.append(np.where(layers[:, i] >= hi - _TOL, hi - lo, 0.0))
    serve_out = np.array(serve_cols).reshape(len(src), rows.shape[0]).T
    aux_out = np.array(aux_cols).reshape(len(src), layers.shape[0]).T
    return CompleteUfl(np.array(src, dtype=int), np.array(mass), serve_out, aux_out)


@dataclass(frozen=True)
class PairBall:
    """Nearest-prefix of one pair's copies holding exactly ``gamma`` mass.
    ``weight`` is the mass drawn from each prefix copy (the last one may be
    partial); dividing by gamma gives the rescaled service distribution."""

    copies: tuple[int, ...]
    weight: np.ndarray
    c_gamma: float
    r_gamma: float


@dataclass(frozen=True)
class FilteredUfl:
    open_hat: np.ndarray
    aux_hat: np.ndarray
    balls: tuple[PairBall, ...]


def swamy_filter(
    complete: CompleteUfl, client_dist: np.ndarray, gamma: float
) -> FilteredUfl:
    """Prefix filter on a complete solution.

    For each service row, copies are sorted by distance and collected until
    gamma mass is reached; ``c_gamma`` is the average distance of that mass
    divided by gamma and ``r_gamma`` the radius where it stops.  Distances
    1, 2, 3 with masses 0.3, 0.3, 0.4 at gamma = 0.5 keep the first two
    copies, at c_gamma = (0.3 + 0.2 * 2) / 0.5 = 1.4 and r_gamma = 2.
    Opening masses are rescaled to min(mass / gamma, 1).
    """
    if not 1.0 / 3.0 <= gamma < 1.0:
        raise ValueError("filter strength must lie in [1/3, 1)")
    d = np.asarray(client_dist, dtype=float)
    balls = []
    for t in range(complete.serve.shape[0]):
        row = complete.serve[t]
        order = np.lexsort((np.arange(row.size), d[t]))
        total = float(row.sum())
        want = min(gamma, total)
        copies: list[int] = []
        weight: list[float] = []
        got = 0.0
        for c in order:
            if row[c] <= _TOL:
                continue
            take = min(float(row[c]), want - got)
            copies.append(int(c))
            weight.append(take)
            got += take
            if got >= want - _TOL:
                break
        w = np.array(weight)
        c_gamma = float(w @ d[t, copies]) / gamma if copies else 0.0
        r_gamma = float(d[t, copies[-1]]) if copies else 0.0
        balls.append(PairBall(tuple(copies), w, c_gamma, r_gamma))
    open_hat = np.minimum(complete.open_mass / gamma, 1.0)
    aux_hat = np.minimum(complete.aux / gamma, 1.0)
    return FilteredUfl(open_hat, aux_hat, tuple(balls))


@dataclass(frozen=True)
class ClusterPlan:
    """Disjoint clusters grown around the cheapest filtered pairs.
    ``representative[t]`` points each pair at the cluster that serves as
    its fallback (its own if it founded one)."""

    centers: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    representative: tuple[int, ...]


def _greedy_clusters(balls: list[frozenset], keys: list[tuple]) -> ClusterPlan:
    order = sorted(range(len(balls)), key=lambda t: keys[t])
    centers, founder_of = _greedy_balls(order, balls)
    cluster = {t: c for c, t in enumerate(centers)}
    return ClusterPlan(
        tuple(centers),
        tuple(tuple(sorted(balls[t])) for t in centers),
        tuple(cluster[founder_of[t]] for t in range(len(balls))),
    )


# ---------------------------------------------------------------------------
# the improved pipeline


def _nearest_open(d: np.ndarray, opened, clients) -> dict[int, int]:
    """Each client, in order, to its nearest open facility (lowest id on ties)."""
    return {j: min(opened, key=lambda i: (d[i, j], i)) for j in clients}


@dataclass(frozen=True)
class PreparedImproved:
    """Seed-independent part of the improved rounding on one relaxation.

    ``needed[k]`` lists the clusters backing a demanded first-stage pair of
    scenario k; ``second_opened[k]`` is the scenario's second-stage
    opening.  ``complete``, ``filtered`` and ``clusters`` are None when no
    pair is first-stage; the arrays below are derived from them once.
    """

    sol: FractionalUflSolution
    complete: CompleteUfl | None
    filtered: FilteredUfl | None
    clusters: ClusterPlan | None
    needed: tuple[tuple[int, ...], ...]
    second_opened: tuple[frozenset[int], ...]

    @functools.cached_property
    def cluster_coins(self) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
        """Per cluster: its copies, their opening odds and the likeliest
        copy, which is bought outright after REJECTION_CAP empty rounds."""
        coins = [(c, self.filtered.open_hat[c]) for c in map(np.array, self.clusters.members)]
        return tuple((c, odds, int(c[np.argmax(odds)])) for c, odds in coins)

    @functools.cached_property
    def loose(self) -> np.ndarray:
        """The copies outside every cluster, ascending."""
        return np.setdiff1d(np.arange(self.complete.source.size), sum(self.clusters.members, ()))

    @functools.cached_property
    def exercise_odds(self) -> np.ndarray:
        """(scenario, copy) exercise odds aux_hat / open_hat of a reserved copy."""
        return self.filtered.aux_hat / self.filtered.open_hat

    @functools.cached_property
    def fallback_rank(self) -> np.ndarray:
        """Copies ranked by (f0 of the facility, facility, copy), the copy
        order kept by the stable sort: a cluster whose held copies all have
        zero odds exercises its lowest-ranked one."""
        src = self.complete.source
        return np.argsort(np.lexsort((src, np.asarray(self.sol.instance.open_cost)[src])))


def prepare_improved(sol: FractionalUflSolution) -> PreparedImproved:
    """Split, classify, complete, filter and cluster the first-stage pairs,
    and round every scenario's second-stage pairs; none of it draws."""
    inst = sol.instance
    c = inst.dist
    split = split_assignment(sol)
    first, second = classify_pairs(split)

    comp = filtered = plan = None
    needed: tuple[tuple[int, ...], ...] = tuple(() for _ in inst.scenarios.scenarios)
    if first:
        serve = np.array([split.first[k, j] for k, j in first]) / THETA
        comp = make_complete(sol.y0 / THETA, serve, aux=sol.yk / THETA)
        filtered = swamy_filter(comp, c[np.ix_(comp.source, [j for _, j in first])].T, GAMMA)
        keys = [(b.c_gamma, j, k) for b, (k, j) in zip(filtered.balls, first)]
        plan = _greedy_clusters([frozenset(b.copies) for b in filtered.balls], keys)
        needed = tuple(
            tuple(sorted({plan.representative[t] for t, (kk, _) in enumerate(first) if kk == k}))
            for k in range(len(inst.scenarios))
        )

    # Second-stage pairs: one single-stage rounding per scenario, priced at
    # that scenario's recourse openings.
    second_opened = []
    for k in range(len(inst.scenarios)):
        cl = tuple(j for kk, j in second if kk == k)
        if not cl:
            second_opened.append(frozenset())
            continue
        rows = np.minimum(split.second[k, list(cl)] / (1.0 - THETA), 1.0)
        opened, _ = deterministic_ufl_approx(inst.scenario_open_cost[k], c, cl, rows)
        second_opened.append(opened)
    return PreparedImproved(sol, comp, filtered, plan, needed, tuple(second_opened))


def sample_improved(prep: PreparedImproved, seed: int = 0) -> UflPlan:
    """One seed of the improved rounding: only the draws, on the state
    ``prepare_improved`` built once per relaxation.

    Each cluster reserves each of its copies with the copy's filtered ground
    mass, retrying until it holds one (each round succeeds w.p. >= 1 - 1/e;
    after REJECTION_CAP tries the likeliest copy is bought outright), and
    copies outside clusters flip independent coins.  Per scenario, every
    cluster backing a demanded first-stage pair exercises one reserved copy,
    drawn with the exercise odds as weights (all-zero weights fall back to
    the cheapest-f0 copy), and reserved copies outside clusters exercise at
    their odds.  A reserved second-stage opening is exercised, any other is
    bought at recourse, and clients go to the nearest open facility.
    """
    inst = prep.sol.instance
    rng = np.random.default_rng(seed)
    reserved: frozenset[int] = frozenset()
    exercised = [frozenset()] * len(inst.scenarios)
    if prep.clusters is not None:
        source, loose, odds = prep.complete.source, prep.loose, prep.exercise_odds
        held = np.zeros(source.size, dtype=bool)
        for copies, open_odds, forced in prep.cluster_coins:
            for _ in range(REJECTION_CAP):
                hit = rng.random(copies.size) < open_odds
                if hit.any():
                    held[copies[hit]] = True
                    break
            else:
                held[forced] = True
        held[loose] = rng.random(loose.size) < prep.filtered.open_hat[loose]
        reserved = frozenset(source[held].tolist())
        stray = loose[held[loose]]
        for k, needed in enumerate(prep.needed):
            drawn = np.zeros(source.size, dtype=bool)
            for ci in needed:
                copies = prep.cluster_coins[ci][0]
                mine = copies[held[copies]]
                w = odds[k, mine]
                total = float(w.sum())
                if total <= _TOL:
                    drawn[mine[np.argmin(prep.fallback_rank[mine])]] = True
                else:
                    drawn[rng.choice(mine, p=w / total)] = True
            drawn[stray] = rng.random(stray.size) < odds[k, stray]
            exercised[k] = frozenset(source[drawn].tolist())

    # a second-stage opening that is reserved is exercised: cheaper than rebuying
    stages = tuple(
        StageDecision(ex | (opened & reserved), opened - reserved)
        for ex, opened in zip(exercised, prep.second_opened)
    )
    assignment = []
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        open_now = stages[k].exercised | stages[k].recoursed
        if clients and not open_now:
            raise InstanceError(f"no facility open for scenario {k}")
        assignment.append(_nearest_open(inst.dist, open_now, sorted(clients)))
    return UflPlan(TwoStageSolution(reserved, stages), tuple(assignment))


def clustered_approx_factor(det_factor: float = DET_FACTOR_CITED) -> float:
    """Guarantee of the improved pipeline at its shipped constants, with
    ``det_factor`` the quality of the second-stage rounding.

    The three components cover reservation/exercise cost, the assignment
    tail of clustered pairs, and the second-stage rounding; the factor is
    their max.  At the cited 1.52 this evaluates to about 3.81.
    """
    reserve_side = BOOST * RETRY_FACTOR / THETA
    tail = (1.0 + math.exp(-BOOST) * (BOOST + 1.0) / (BOOST - 1.0)) / THETA
    second_side = det_factor / (1.0 - THETA)
    return max(reserve_side, tail, second_side)


# ---------------------------------------------------------------------------
# the single-stage reference relaxation


def solve_deterministic_ufl_lp(
    open_cost: np.ndarray, distance: np.ndarray, clients: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Optimal (y, x) and value of the single-stage relaxation, the
    reference ``deterministic_ufl_approx`` is checked against."""
    lp = build_deterministic_ufl_lp(open_cost, distance, clients)
    sol, _ = solve_lp(lp)
    if sol.status != "optimal":
        raise InstanceError(f"single-stage relaxation came back {sol.status}")
    n_i = len(open_cost)
    y = sol.values[:n_i].copy()
    x = sol.values[n_i:].reshape(len(clients), n_i).copy()
    return y, x, sol.objective_value
