"""Facility-location roundings for the reserve/exercise/recourse model.

Two integral pipelines share this module.  ``round_5approx`` is the
deterministic ball-filtering argument: every demanded (scenario, client)
pair gets a neighborhood ball around it, balls are processed cheapest
first, and a pair either opens the cheapest facility in its own ball or
rides an earlier overlapping one.  ``round_improved`` splits pairs into a
first-stage side (rounded with cluster sampling over facility copies) and
a second-stage side (rounded per scenario with the single-stage filter),
trading determinism for a smaller factor.

Both produce a :class:`UflPlan`: reserved / exercised / recoursed facility
sets plus a per-scenario client assignment.  ``evaluate_ufl_cost`` is the
single costing routine every test and benchmark goes through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import InstanceError, UflInstance
from .lp import solve_lp
from .lp_builders import FractionalUflSolution, build_deterministic_ufl_lp
from .model import StageDecision, TwoStageSolution

__all__ = [
    "ALPHA_DEFAULT",
    "BETA_DEFAULT",
    "THETA_DEFAULT",
    "GAMMA_DEFAULT",
    "DET_UFL_FACTOR",
    "NeighborhoodProfile",
    "UflPlan",
    "UflCostBreakdown",
    "CompleteUfl",
    "PairBall",
    "FilteredUfl",
    "ClusterPlan",
    "evaluate_ufl_cost",
    "round_5approx",
    "deterministic_ufl_approx",
    "split_assignment",
    "SplitAssignment",
    "classify_pairs",
    "make_complete",
    "swamy_filter",
    "round_improved",
    "PreparedImproved",
    "prepare_improved",
    "sample_improved",
    "cs_round_deterministic_ufl",
    "solve_deterministic_ufl_lp",
    "clustered_approx_factor",
]

ALPHA_DEFAULT = 0.4
BETA_DEFAULT = 0.5

# Expected rejection-sampling rounds when one round succeeds w.p. >= 1 - 1/e.
RETRY_FACTOR = math.e / (math.e - 1.0)

# Guarantee of deterministic_ufl_approx below; the tighter 1.52 is the best
# published single-stage factor and only enters the bound evaluator.
DET_UFL_FACTOR = 5.0
DET_FACTOR_CITED = 1.52

# Splitting threshold balancing the first-stage component (~2.29) against
# the cited single-stage factor.
THETA_DEFAULT = 2.29 / (2.29 + 1.52)
GAMMA_DEFAULT = 1.0 / 1.447

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


def _service_profile(weights: np.ndarray, dists: np.ndarray, alpha: float) -> NeighborhoodProfile:
    # Facilities sorted by distance, lowest id first on ties.
    order = np.lexsort((np.arange(dists.size), dists))
    cum = np.cumsum(weights[order])
    target = min(alpha, float(cum[-1]) - _TOL) if cum.size else alpha
    stop = int(np.searchsorted(cum, target - _TOL))
    stop = min(stop, dists.size - 1)
    c_alpha = float(dists[order[stop]])
    near = np.flatnonzero(dists <= c_alpha + _TOL)
    c_star = float(weights @ dists)
    return NeighborhoodProfile(alpha, c_star, c_alpha, tuple(int(i) for i in near))


@dataclass
class _Record:
    # One opened facility: stage -1 means reserved ground opening, otherwise
    # the scenario whose recourse budget paid for it.
    facility: int
    stage: int
    trigger: tuple[int, int]
    near: frozenset[int]
    served: list[tuple[int, int]]


def round_5approx(
    sol: FractionalUflSolution,
    alpha: float = ALPHA_DEFAULT,
    beta: float = BETA_DEFAULT,
    trace: dict | None = None,
) -> UflPlan:
    """Deterministic ball rounding of the two-stage relaxation.

    Pairs are processed by increasing fractional service cost.  A pair whose
    ball overlaps an earlier opened ball is served by that facility (ground
    openings serve across scenarios, recourse openings only their own).
    Otherwise the pair compares the exercised mass in its ball against
    ``beta``: rich balls open the cheapest-f0 facility now, poor ones the
    cheapest-f^k facility at recourse.  Every assignment stays within
    3/(1-alpha) of the pair's fractional cost; with the default
    alpha = 2/5, beta = 1/2 each cost block is within a factor 5 of the
    relaxation.
    """
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError("filter parameters must sit strictly inside (0, 1)")
    inst = sol.instance
    c = inst.dist
    ybark = np.minimum(sol.yk / alpha, 1.0)
    zbark = np.minimum(sol.zk / alpha, 1.0)

    pairs = [(k, j) for k in range(len(inst.scenarios)) for j in inst.demanded(k)]
    profiles = {
        (k, j): _service_profile(sol.x[k, j], c[:, j], alpha) for k, j in pairs
    }
    order = sorted(pairs, key=lambda kj: (profiles[kj].c_star, kj[1], kj[0]))

    records: list[_Record] = []
    assignment: list[dict[int, int]] = [dict() for _ in inst.scenarios.scenarios]
    for k, j in order:
        prof = profiles[(k, j)]
        ball = frozenset(prof.near)
        rider = next(
            (
                r
                for r in records
                if (r.stage == -1 or r.stage == k) and r.near & ball
            ),
            None,
        )
        if rider is not None:
            rider.served.append((k, j))
            assignment[k][j] = rider.facility
            continue
        if float(ybark[k, prof.near].sum()) >= beta - _TOL:
            pool = [i for i in prof.near if ybark[k, i] > _TOL]
            i_star = min(pool, key=lambda i: (inst.open_cost[i], i))
            stage = -1
        else:
            pool = [i for i in prof.near if zbark[k, i] > _TOL]
            if not pool:
                raise InstanceError(f"pair ({k}, {j}) has no recourse mass in its ball")
            i_star = min(pool, key=lambda i: (inst.scenario_open_cost[k][i], i))
            stage = k
        records.append(_Record(i_star, stage, (k, j), ball, [(k, j)]))
        assignment[k][j] = i_star

    reserved = frozenset(r.facility for r in records if r.stage == -1)
    stages = []
    for k in range(len(inst.scenarios)):
        exercised = {
            r.facility
            for r in records
            if r.stage == -1 and any(kk == k for kk, _ in r.served)
        }
        recoursed = set()
        for r in records:
            if r.stage != k:
                continue
            if r.facility in reserved:
                exercised.add(r.facility)  # already paid for: exercising is cheaper
            else:
                recoursed.add(r.facility)
        stages.append(StageDecision(frozenset(exercised), frozenset(recoursed)))
    if trace is not None:
        trace["profiles"] = profiles
        trace["records"] = tuple(
            (r.facility, r.stage, r.trigger, tuple(sorted(r.near))) for r in records
        )
    return UflPlan(TwoStageSolution(reserved, tuple(stages)), tuple(assignment))


def deterministic_ufl_approx(
    open_cost: np.ndarray,
    distance: np.ndarray,
    clients: tuple[int, ...],
    open_mass: np.ndarray,
    serve: np.ndarray,
    alpha: float = ALPHA_DEFAULT,
    trace: dict | None = None,
) -> tuple[frozenset[int], dict[int, int]]:
    """Single-stage ball rounding: integral opening within 1/alpha of the
    fractional opening cost, assignments within 3/(1-alpha) of each client's
    fractional service cost.  With alpha = 2/5 the overall factor is 5.

    ``serve[t]`` is the service row of ``clients[t]``; each row must carry
    mass >= alpha and satisfy serve <= open_mass facility-wise.
    """
    f = np.asarray(open_cost, dtype=float)
    d = np.asarray(distance, dtype=float)
    profiles = [
        _service_profile(serve[t], d[:, j], alpha) for t, j in enumerate(clients)
    ]
    order = sorted(range(len(clients)), key=lambda t: (profiles[t].c_star, clients[t]))
    opened: list[tuple[int, frozenset[int]]] = []
    assignment: dict[int, int] = {}
    for t in order:
        ball = frozenset(profiles[t].near)
        rider = next((i for i, near in opened if near & ball), None)
        if rider is not None:
            assignment[clients[t]] = rider
            continue
        pool = [i for i in profiles[t].near if serve[t, i] > _TOL]
        i_star = min(pool, key=lambda i: (f[i], i))
        opened.append((i_star, ball))
        assignment[clients[t]] = i_star
    if trace is not None:
        trace["profiles"] = dict(zip(clients, profiles))
    return frozenset(i for i, _ in opened), assignment


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
    split: SplitAssignment, theta: float = THETA_DEFAULT
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Pairs with first-stage service mass >= theta (boundary inclusive) are
    rounded with the reservation machinery; the rest carry recourse mass
    >= 1 - theta and are rounded per scenario."""
    inst = split.instance
    first: list[tuple[int, int]] = []
    second: list[tuple[int, int]] = []
    for k in range(len(inst.scenarios)):
        for j in inst.demanded(k):
            if float(split.first[k, j].sum()) >= theta - _TOL:
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
    aux: np.ndarray | None

    def copies_of(self, facility: int) -> np.ndarray:
        return np.flatnonzero(self.source == facility)


def make_complete(
    open_mass: np.ndarray, serve: np.ndarray, aux: np.ndarray | None = None
) -> CompleteUfl:
    """Split each facility at its distinct service / layer values.

    An opening of 0.6 serving rows 0.6 and 0.2 becomes copies of mass 0.2
    and 0.4; the 0.2-row uses only the first copy, the 0.6-row both.  Total
    opening mass and every row sum are preserved exactly (the cuts are
    existing values, so each interval length is a difference of inputs).
    """
    y = np.asarray(open_mass, dtype=float)
    rows = np.asarray(serve, dtype=float)
    layers = None if aux is None else np.asarray(aux, dtype=float)
    src: list[int] = []
    mass: list[float] = []
    serve_cols: list[np.ndarray] = []
    aux_cols: list[np.ndarray] = []
    for i in range(y.size):
        if y[i] <= _TOL:
            continue
        cuts = {float(v) for v in rows[:, i] if _TOL < v < y[i] - _TOL}
        if layers is not None:
            cuts |= {float(v) for v in layers[:, i] if _TOL < v < y[i] - _TOL}
        breaks = [0.0] + sorted(cuts) + [float(y[i])]
        for lo, hi in zip(breaks, breaks[1:]):
            if hi - lo <= _TOL:
                continue
            src.append(i)
            mass.append(hi - lo)
            serve_cols.append(np.where(rows[:, i] >= hi - _TOL, hi - lo, 0.0))
            if layers is not None:
                aux_cols.append(np.where(layers[:, i] >= hi - _TOL, hi - lo, 0.0))
    n_c = len(src)
    serve_out = np.array(serve_cols).T if n_c else np.zeros((rows.shape[0], 0))
    aux_out = None
    if layers is not None:
        aux_out = np.array(aux_cols).T if n_c else np.zeros((layers.shape[0], 0))
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
    complete: CompleteUfl
    gamma: float
    open_hat: np.ndarray
    aux_hat: np.ndarray | None
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
    aux_hat = None if complete.aux is None else np.minimum(complete.aux / gamma, 1.0)
    return FilteredUfl(complete, gamma, open_hat, aux_hat, tuple(balls))


@dataclass(frozen=True)
class ClusterPlan:
    """Disjoint copy clusters grown around the cheapest filtered pairs.
    ``representative[t]`` points each pair at the cluster that serves as its
    fallback (its own if it founded one)."""

    centers: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    representative: tuple[int, ...]


def _greedy_clusters(filtered: FilteredUfl, keys: list[tuple]) -> ClusterPlan:
    order = sorted(range(len(filtered.balls)), key=lambda t: keys[t])
    centers: list[int] = []
    members: list[frozenset[int]] = []
    rep = [-1] * len(filtered.balls)
    for t in order:
        ball = frozenset(filtered.balls[t].copies)
        hit = next((c for c, m in enumerate(members) if m & ball), None)
        if hit is None:
            centers.append(t)
            members.append(ball)
            rep[t] = len(centers) - 1
        else:
            rep[t] = hit
    return ClusterPlan(
        tuple(centers),
        tuple(tuple(sorted(m)) for m in members),
        tuple(rep),
    )


# ---------------------------------------------------------------------------
# the improved pipeline


@dataclass(frozen=True)
class PreparedImproved:
    """Seed-independent part of ``round_improved`` on one relaxation.

    ``needed[k]`` lists the clusters backing a demanded first-stage pair of
    scenario k; ``second_opened[k]`` is the scenario's second-stage
    opening.  ``complete``, ``filtered`` and ``clusters`` are None when no
    pair is first-stage.
    """

    sol: FractionalUflSolution
    first: tuple[tuple[int, int], ...]
    second: tuple[tuple[int, int], ...]
    complete: CompleteUfl | None
    filtered: FilteredUfl | None
    clusters: ClusterPlan | None
    needed: tuple[tuple[int, ...], ...]
    second_opened: tuple[frozenset[int], ...]


def prepare_improved(
    sol: FractionalUflSolution,
    theta: float = THETA_DEFAULT,
    gamma: float = GAMMA_DEFAULT,
) -> PreparedImproved:
    """Split, classify, complete, filter and cluster the first-stage pairs,
    and round every scenario's second-stage pairs; none of it draws."""
    if not 0.0 < theta < 1.0:
        raise ValueError("splitting threshold must sit strictly inside (0, 1)")
    inst = sol.instance
    c = inst.dist
    split = split_assignment(sol)
    first, second = classify_pairs(split, theta)

    comp = filtered = plan = None
    needed: tuple[tuple[int, ...], ...] = tuple(() for _ in inst.scenarios.scenarios)
    if first:
        serve = np.array([split.first[k, j] for k, j in first]) / theta
        comp = make_complete(sol.y0 / theta, serve, aux=sol.yk / theta)
        dmat = np.array([c[comp.source, j] for _, j in first])
        dmat = dmat.reshape(len(first), comp.source.size)
        filtered = swamy_filter(comp, dmat, gamma)
        keys = [
            (filtered.balls[t].c_gamma, first[t][1], first[t][0])
            for t in range(len(first))
        ]
        plan = _greedy_clusters(filtered, keys)
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
        serve_rows = np.minimum(
            np.array([split.second[k, j] for j in cl]) / (1.0 - theta), 1.0
        )
        open_mass = np.minimum(sol.zk[k] / (1.0 - theta), 1.0)
        opened, _ = deterministic_ufl_approx(
            np.asarray(inst.scenario_open_cost[k]), c, cl, open_mass, serve_rows
        )
        second_opened.append(opened)
    return PreparedImproved(
        sol, first, second, comp, filtered, plan, needed, tuple(second_opened)
    )


def sample_improved(
    prep: PreparedImproved, seed: int = 0, trace: dict | None = None
) -> UflPlan:
    """The seeded draws of ``round_improved`` on a prepared relaxation."""
    inst = prep.sol.instance
    rng = np.random.default_rng(seed)
    c = inst.dist
    comp, filtered, plan = prep.complete, prep.filtered, prep.clusters

    reserved_orig: set[int] = set()
    exercised_orig: list[set[int]] = [set() for _ in inst.scenarios.scenarios]
    cluster_hits: list[dict[int, int]] = [dict() for _ in inst.scenarios.scenarios]
    if plan is not None:
        open_hat = filtered.open_hat
        aux_hat = filtered.aux_hat
        reserved_copies: set[int] = set()
        for m in plan.members:
            copies = np.array(m, dtype=int)
            for _ in range(REJECTION_CAP):
                hit = copies[rng.random(copies.size) < open_hat[copies]]
                if hit.size:
                    reserved_copies.update(int(x) for x in hit)
                    break
            else:
                forced = copies[int(np.argmax(open_hat[copies]))]
                reserved_copies.add(int(forced))
        clustered = {cc for m in plan.members for cc in m}
        loose = np.array(
            sorted(set(range(comp.source.size)) - clustered), dtype=int
        )
        if loose.size:
            hit = loose[rng.random(loose.size) < open_hat[loose]]
            reserved_copies.update(int(x) for x in hit)
        reserved_orig = {int(comp.source[cc]) for cc in reserved_copies}

        f0 = np.asarray(inst.open_cost)
        for k in range(len(inst.scenarios)):
            for ci in prep.needed[k]:
                held = np.array(
                    sorted(set(plan.members[ci]) & reserved_copies), dtype=int
                )
                w = aux_hat[k, held] / open_hat[held]
                total = float(w.sum())
                if total <= _TOL:
                    pick = held[
                        np.lexsort((held, comp.source[held], f0[comp.source[held]]))[0]
                    ]
                else:
                    pick = rng.choice(held, p=w / total)
                exercised_orig[k].add(int(comp.source[int(pick)]))
                cluster_hits[k][ci] = 1
            stray = np.array(
                sorted(reserved_copies - clustered), dtype=int
            )
            if stray.size:
                ratio = aux_hat[k, stray] / open_hat[stray]
                hit = stray[rng.random(stray.size) < ratio]
                exercised_orig[k].update(int(comp.source[cc]) for cc in hit)

    recoursed: list[set[int]] = [set() for _ in inst.scenarios.scenarios]
    for k, opened in enumerate(prep.second_opened):
        for i in opened:
            if i in reserved_orig:
                exercised_orig[k].add(i)  # exercising a reservation beats rebuying
            else:
                recoursed[k].add(i)

    stages = tuple(
        StageDecision(frozenset(exercised_orig[k]), frozenset(recoursed[k]))
        for k in range(len(inst.scenarios))
    )
    assignment: list[dict[int, int]] = []
    for k, (_, clients) in enumerate(inst.scenarios.scenarios):
        open_now = sorted(stages[k].exercised | stages[k].recoursed)
        amap: dict[int, int] = {}
        for j in sorted(clients):
            if not open_now:
                raise InstanceError(f"no facility open for scenario {k}")
            amap[j] = min(open_now, key=lambda i: (c[i, j], i))
        assignment.append(amap)

    if trace is not None:
        trace["first"] = prep.first
        trace["second"] = prep.second
        trace["clusters"] = plan
        trace["filtered"] = filtered
        trace["cluster_hits"] = tuple(dict(h) for h in cluster_hits)
    return UflPlan(
        TwoStageSolution(frozenset(reserved_orig), stages), tuple(assignment)
    )


def round_improved(
    sol: FractionalUflSolution,
    theta: float = THETA_DEFAULT,
    gamma: float = GAMMA_DEFAULT,
    seed: int = 0,
    trace: dict | None = None,
) -> UflPlan:
    """Randomized two-sided rounding.

    First-stage pairs (service mass >= theta on exercised capacity) are
    rescaled by 1/theta, made complete, prefix-filtered at ``gamma`` and
    clustered.  Reservation samples each cluster copy with its filtered
    ground mass, retrying until the cluster holds something (each round
    succeeds w.p. >= 1 - 1/e; after REJECTION_CAP tries the likeliest copy
    is bought outright).  Copies outside clusters flip independent coins.
    Per scenario, every cluster backing a demanded first-stage pair
    exercises exactly one reserved copy via a categorical draw weighted by
    exercised/ground mass ratios; all-zero weights fall back to the
    cheapest-f0 copy.  Non-cluster reserved copies exercise independently
    with that ratio.  Second-stage pairs are rounded per scenario by
    ``deterministic_ufl_approx`` on the recourse masses rescaled by
    1/(1 - theta).  Clients always go to the nearest open facility.

    Everything up to the draws is ``prepare_improved``; callers rounding
    one relaxation under many seeds prepare once and call
    ``sample_improved`` per seed, with the same plans.
    """
    return sample_improved(prepare_improved(sol, theta, gamma), seed, trace)


def clustered_approx_factor(
    boost: float = 1.447,
    theta: float = THETA_DEFAULT,
    det_factor: float = DET_FACTOR_CITED,
    retry_factor: float = RETRY_FACTOR,
) -> float:
    """Guarantee of the improved pipeline as a function of its knobs.

    ``boost`` is the reciprocal of the prefix-filter strength.  The three
    components cover reservation/exercise cost, the assignment tail of
    clustered pairs, and the second-stage rounding; the factor is their max.
    At the defaults this evaluates to about 3.81.
    """
    if boost <= 1.0:
        raise ValueError("filter boost must exceed 1")
    reserve_side = boost * retry_factor / theta
    tail = (1.0 + math.exp(-boost) * (boost + 1.0) / (boost - 1.0)) / theta
    second_side = det_factor / (1.0 - theta)
    return max(reserve_side, tail, second_side)


# ---------------------------------------------------------------------------
# single-stage cluster sampling (reference for the exercise-weights trick)


def solve_deterministic_ufl_lp(
    open_cost: np.ndarray, distance: np.ndarray, clients: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Optimal (y, x) of the single-stage relaxation plus the serve-row
    duals, which price each client's share of the opening budget."""
    lp = build_deterministic_ufl_lp(open_cost, distance, clients)
    sol, dual = solve_lp(lp)
    if sol.status != "optimal" or dual is None:
        raise InstanceError(f"single-stage relaxation came back {sol.status}")
    n_i = len(open_cost)
    y = sol.values[:n_i].copy()
    x = sol.values[n_i:].reshape(len(clients), n_i).copy()
    duals = dual.values[: len(clients)].copy()
    return y, x, duals, sol.objective_value


def cs_round_deterministic_ufl(
    open_cost: np.ndarray,
    distance: np.ndarray,
    clients: tuple[int, ...],
    open_mass: np.ndarray,
    serve: np.ndarray,
    duals: np.ndarray,
    seed: int = 0,
    trace: dict | None = None,
) -> tuple[frozenset[int], dict[int, int]]:
    """Cluster sampling on a complete single-stage solution.

    Clients are ordered by fractional service cost plus dual budget; each
    either founds a cluster on its support or points at the earliest
    overlapping one.  Exactly one facility opens per cluster (categorical
    over the center's support, i.e. the opening masses), facilities outside
    clusters flip independent coins, and everyone walks to the nearest open
    facility — the cluster guarantees there always is one.  The per-client
    expected distance is C_j + (2/e) * dual_j.
    """
    f = np.asarray(open_cost, dtype=float)
    d = np.asarray(distance, dtype=float)
    y = np.asarray(open_mass, dtype=float)
    for t in range(len(clients)):
        hot = serve[t] > 1e-9
        if np.any(np.abs(serve[t, hot] - y[hot]) > 1e-7):
            raise ValueError("cluster sampling needs a complete solution")
    c_frac = np.array([float(serve[t] @ d[:, j]) for t, j in enumerate(clients)])
    order = sorted(range(len(clients)), key=lambda t: (c_frac[t] + duals[t], clients[t]))
    centers: list[int] = []
    members: list[frozenset[int]] = []
    for t in order:
        support = frozenset(int(i) for i in np.flatnonzero(serve[t] > 1e-9))
        if all(not (support & m) for m in members):
            centers.append(t)
            members.append(support)
    rng = np.random.default_rng(seed)
    opened: set[int] = set()
    for t, m in zip(centers, members):
        pool = np.array(sorted(m), dtype=int)
        w = y[pool] / float(y[pool].sum())
        opened.add(int(rng.choice(pool, p=w)))
    clustered = {i for m in members for i in m}
    loose = np.array(sorted(set(range(f.size)) - clustered), dtype=int)
    if loose.size:
        hit = loose[rng.random(loose.size) < np.minimum(y[loose], 1.0)]
        opened.update(int(i) for i in hit)
    ranked = sorted(opened)
    assignment = {
        j: min(ranked, key=lambda i: (d[i, j], i)) for j in clients
    }
    if trace is not None:
        trace["centers"] = tuple(clients[t] for t in centers)
        trace["members"] = tuple(tuple(sorted(m)) for m in members)
        trace["c_frac"] = c_frac
    return frozenset(opened), assignment
