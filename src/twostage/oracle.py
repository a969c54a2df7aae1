"""Exact optima for small instances by exhaustive search over reservations.

For a fixed reservation the second stage decomposes per scenario: buy some
feasible item set X, exercise the part of X that was reserved (always
cheaper than re-buying it), pay recourse price on the rest.  So the oracle
scans reservation bitmasks in increasing first-stage cost, computes each
scenario's best X with precomputed subset-mass tables, and stops as soon as
the first-stage cost alone reaches the incumbent.

For set cover, vertex cover and Steiner, a bought set that holds a smaller
feasible set never costs less, so each scenario keeps only its
inclusion-minimal feasible sets as candidates (about 10-20 instead of
hundreds).  That is done only when a certificate, checked once per instance
from the weights, lambda and sigma, proves that rounding cannot make a
superset strictly cheaper than its subset in float arithmetic either (see
``_pruning_is_exact``); otherwise every feasible set stays a candidate.
UFL is not monotone (opening a facility can shorten connections), but a
facility that is no demanded client's strictly nearest one only adds its
price, so each UFL scenario keeps only its irredundant facility sets (a
median of about 110 of 2,048 at 11 facilities and 8 clients), under a
per-scenario certificate (``_ufl_pruning_is_exact``).

Inside ``_shared_preparation``, where ``repeating_saa`` runs its
repetitions, the covering and Steiner weight tables, certificate verdict,
reach table and each client set's candidates are built once, keyed by the
bytes they come from, and kept read-only.  Outside it nothing is kept from
one call to the next.

The tables and candidate lists are built as whole arrays: one (scenarios,
masks) feasibility bitmap per instance, filtered for minimal sets in one
pass; for UFL, one fold for all price tables and one for all nearest
distances and owners, each with the masks on its last, contiguous axis.  The
scan takes the sorted masks in blocks of a quarter of BLOCK_ENTRIES entries
(rows times the widest scenario's candidate count), doubling up to all of
it; after the first, a block ends at the incumbent's bound, the first row
whose first-stage cost reaches the incumbent.  Every float is computed by
the same operations in the same order as a scan of one mask at a time over
every feasible set, and the stopping point is recovered from the running
incumbent, so the cost, solution and node count equal that scan's exactly.

Intended for cross-checking the approximation algorithms; refuses instances
with more than MAX_ITEMS items or MAX_SCENARIOS scenarios.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

from .instances import (
    Instance,
    InstanceError,
    MetricGraph,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
    _frozen,
)
from .model import StageDecision, TwoStageSolution

__all__ = [
    "OracleResult",
    "brute_force_optimal",
    "best_completion",
    "MAX_ITEMS",
    "MAX_SCENARIOS",
]

MAX_ITEMS = 16
MAX_SCENARIOS = 6
BLOCK_ENTRIES = 1 << 15  # cap on rows x candidates per block; the incumbent may end one sooner


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: float
    optimal_solution: TwoStageSolution
    nodes_explored: int


def _bits(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _lowest_bit_fold(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill table[..., mask] = table[..., mask ^ low] + rows[..., bit of low]
    for mask > 0, with low the lowest set bit and masks on the last axis.
    Bits are taken highest first, so the entry a mask reads was written in
    an earlier pass.  Pass k views the masks as (high bits, bit k, low
    bits): those whose lowest set bit is k sit at bit k = 1 with low bits 0,
    and read the same slot at bit k = 0.
    """
    cols = rows.T[..., None]
    for k in range(len(cols) - 1, -1, -1):
        t = table.reshape(*table.shape[:-1], -1, 2, 1 << k)
        np.add(t[..., 0, 0], cols[k], out=t[..., 1, 0])
    return table


def _mass_table(weights: np.ndarray) -> np.ndarray:
    """table[mask] = sum of weights over the bits of mask, for all masks."""
    return _lowest_bit_fold(np.zeros(1 << weights.size), weights)


@dataclass
class _ScenarioTable:
    prob: float
    masks: np.ndarray       # candidate bought sets X
    base: np.ndarray        # cost of X at full recourse price (plus service)
    save_table: np.ndarray  # discount earned by the reserved part of X

    def best(self, f0_masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cheapest completion value and its bought set, per reservation mask."""
        vals = self.save_table[self.masks & f0_masks[:, None]]
        np.subtract(self.base, vals, out=vals)
        idx = vals.argmin(axis=1)
        return vals[np.arange(idx.size), idx], self.masks[idx]


@dataclass
class _Prep:
    first_vec: np.ndarray   # first-stage cost per reservation mask
    tables: list[_ScenarioTable]


def _bit_pairs(a: np.ndarray, k: int) -> np.ndarray:
    """View a bool array over all masks (last axis) as (high bits, bit k, low
    bits): [:, 0] lack bit k, [:, 1] have it.  Below bit 4 the low bits read as
    one wider int (numpy walks rows of 2-8 bools slowly); & and | stay per bool."""
    return a.view(f"u{1 << k}").reshape(-1, 2) if k < 4 else a.reshape(-1, 2, 1 << k)


def _covering_feasible(inc: np.ndarray, client_sets: list[frozenset[int]]) -> np.ndarray:
    """Bitmaps over all item masks, one row per client set: does the mask cover
    it.  A mask misses element e iff it lies inside the complement of e's row of
    the incidence ``inc``; each row marks those complements and their subsets."""
    n = inc.shape[1]
    cover_mask = (inc @ (1 << np.arange(n))).tolist()
    missed = np.zeros((len(client_sets), 1 << n), dtype=bool)
    for k, clients in enumerate(client_sets):
        for e in sorted(clients):
            if cover_mask[e] == 0:
                raise InstanceError(f"element {e} is uncoverable")
            missed[k, ((1 << n) - 1) ^ cover_mask[e]] = True
    for k in range(n):
        pairs = _bit_pairs(missed, k)
        pairs[:, 0] |= pairs[:, 1]
    return ~missed


def _root_reach(g: MetricGraph) -> np.ndarray:
    """Vertex bitmask of the root's component under the edges of each edge mask:
    comp[mask, v] is v's component, and the masks whose highest edge is (u, v)
    add it to a smaller mask, which merges the components of u and v."""
    comp = np.empty((1 << g.n_edges, g.n_vertices), dtype=np.int64)
    comp[0] = 1 << np.arange(g.n_vertices)
    for e, (u, v) in enumerate(g.edges):
        rest = comp[: 1 << e]
        touch = (rest & ((1 << u) | (1 << v))) != 0
        comp[1 << e : 2 << e] = np.where(touch, rest[:, u, None] | rest[:, v, None], rest)
    return comp[:, g.root]


def _connecting_feasible(reach: np.ndarray, client_sets: list[frozenset[int]]) -> np.ndarray:
    """Bitmaps over all edge masks, one row per client set: does the mask connect it."""
    need = np.array([sum(1 << t for t in clients) for clients in client_sets], dtype=np.int64)
    ok = (reach & need[:, None]) == need[:, None]
    if not ok.any(axis=1).all():
        raise InstanceError("no edge set connects the demanded terminals")
    return ok


def _minimal_masks(ok: np.ndarray) -> np.ndarray:
    """Per row, the masks that are feasible and infeasible with any one bit removed:
    for an upward-closed row (covering, connecting), the inclusion-minimal sets."""
    keep, bad = ok.copy(), ~ok
    for k in range(ok.shape[-1].bit_length() - 1):
        _bit_pairs(keep, k)[:, 1] &= _bit_pairs(bad, k)[:, 0]
    return keep


def _pruning_is_exact(w: np.ndarray, lam: float, c: float) -> bool:
    """Can dropping non-minimal candidates change no scenario's argmin?

    A scenario's value of bought set X under reservation R is computed as
    fl(fl(lam*T[X]) - fl(c*T[X & R])), with T the mass table (the weights of
    a mask summed by the fold) and c = lam - 1 + sigma as ``_prepare``
    computes it.  Write V(X) = lam*m(X) - c*m(X & R) for the same value in
    exact arithmetic, m the exact mass, n the item count, W the sum of the
    weights, u = 2^-53 and gamma_k = k*u / (1 - k*u).  With nonnegative
    weights, T[Z] sums at most n of them, so each product is its exact value
    times (1 + theta_{n+1}), plus at most 2^-1075 if it underflows, and the
    subtraction adds one more rounding:

        |fl value(X) - V(X)| <= E = gamma_{n+2}*(lam + c)*W + 2^-1072.

    For feasible X a proper subset of Y, with c >= 0,

        V(Y) - V(X) = lam*m(Y - X) - c*m((Y - X) & R) >= (lam - c)*m(Y - X).

    If Y - X holds a positive weight, m(Y - X) >= w+_min, the smallest
    positive weight, and (lam - c)*w+_min > 2E makes the computed value of X
    strictly smaller.  Otherwise every item of Y - X weighs 0; the fold then
    adds exact zeros, so T[Y] and T[X], and T[Y & R] and T[X & R], are the
    same floats and the two values tie, and argmin keeps X, the smaller
    mask.  Either way the first minimum over all feasible sets is a minimal
    set and is also the first minimum over the minimal ones.

    The check itself runs in floats.  Each side is a few roundings (and at
    most one underflow, below E/8) from its exact value, so asking for 4E
    instead of 2E covers them.  The last condition keeps every product and
    difference clear of overflow.
    """
    if not (np.isfinite(w).all() and (w >= 0).all() and 0.0 <= c < lam < math.inf):
        return False
    positive = w[w > 0]
    if positive.size == 0:
        return True
    k = (w.size + 2) * 2.0**-53
    total = sum(w.tolist())
    err = k / (1.0 - k) * (lam + c) * total + 2.0**-1072
    return (lam - c) * float(positive.min()) > 4.0 * err and (lam + c) * total < 2.0**1000


def _ufl_pruning_is_exact(fk: np.ndarray, save: np.ndarray, dist: np.ndarray) -> bool:
    """Can dropping a UFL scenario's redundant facility sets change its argmin?

    A set X is redundant if some facility of X is no demanded client's
    strictly nearest facility of X.  Dropping such a facility leaves every
    client's nearest distance the same float, so dropping them one at a time
    reaches an irredundant Y inside X whose summed distances C[Y] are the
    same bytes as C[X].  Under reservation R the scan computes X's value as
    fl(fl(O[X] + C[X]) - S[X & R]), with O and S the mass tables of the
    scenario prices fk and of save = fk - (1 - sigma)*f0, as ``_prepare``
    computes them.  In exact arithmetic on those floats,

        V(X) - V(Y) = sum over i in X - Y of p_i(R),

    with p_i = fk_i outside R and fk_i - save_i inside R.  O and S sum at
    most n entries and C at most c, so with F the sum of fk, B the sum of
    |save| and D the sum over demanded clients of the largest |distance|,

        |fl value(X) - V(X)| <= E = gamma_{n+c+2}*(F + B + D).

    If every price exceeds 2E, Y's computed value is strictly smaller than
    X's, so no redundant set is a minimum and the first minimum over all
    sets is the first over the irredundant ones.  The check runs in floats
    and asks for 4E, as ``_pruning_is_exact`` does; it also asks for normal
    prices and keeps every sum clear of overflow.
    """
    k = (dist.shape[0] + dist.shape[1] + 2) * 2.0**-53
    # NaN and inf propagate into both, and then fail every comparison below
    nearest = np.abs(dist).max(axis=0, initial=0.0)
    total = float(np.abs(fk).sum() + np.abs(save).sum() + nearest.sum())
    low = float(np.minimum(fk, fk - save).min(initial=math.inf))
    return total < 2.0**1000 and low >= 2.0**-1022 and low > 4.0 * k / (1.0 - k) * total


def _nearest_fold(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per (client, facility mask): the nearest facility's distance, and the bit
    of that facility if it is strictly nearer than the mask's others, else 0.

    A doubling fold: masks [2^k, 2^(k+1)) are masks [0, 2^k) plus facility
    k, which takes the client if strictly nearer; the old owner keeps it if
    k is strictly farther, and a tie leaves no owner.  Neither depends on the
    order facilities join (a tie keeps the lower facility's distance).
    """
    n, c = dist.shape
    minc = np.full((c, 1 << n), np.inf)
    owner = np.zeros((c, 1 << n), dtype=np.uint16)  # n <= MAX_ITEMS bits
    for k in range(n):
        row, near, o = dist[k][:, None], minc[:, : 1 << k], owner[:, 1 << k : 2 << k]
        np.minimum(row, near, out=minc[:, 1 << k : 2 << k])
        np.multiply(owner[:, : 1 << k], row > near, out=o)
        np.copyto(o, 1 << k, where=row < near)
    return minc, owner


# Inside ``_shared_preparation`` the covering and Steiner branches of
# ``_prepare`` keep their scenario-independent tables and each client set's
# candidates here, keyed by the bytes they are built from.  Outside it every
# call starts from an empty dict, so nothing outlives the call.
_SHARED: contextvars.ContextVar[dict | None] = contextvars.ContextVar("oracle_shared", default=None)


@contextlib.contextmanager
def _shared_preparation():
    """Share one preparation across the oracle calls of the block.

    ``repeating_saa`` runs its repetitions here: their empirical instances
    differ only in their scenarios, and most client sets repeat.  UFL is
    never shared, since its price rows follow the scenario index.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _prepare(inst: Instance) -> _Prep:
    n = inst.n_items
    scen = inst.scenarios.scenarios
    if n > MAX_ITEMS:
        raise InstanceError(f"oracle handles at most {MAX_ITEMS} items, got {n}")
    if len(scen) > MAX_SCENARIOS:
        raise InstanceError(f"oracle handles at most {MAX_SCENARIOS} scenarios, got {len(scen)}")

    if isinstance(inst, (SetCoverInstance, VertexCoverInstance, SteinerInstance)):
        sigma, lam = inst.policy.sigma, inst.policy.lam
        steiner = isinstance(inst, SteinerInstance)
        w = np.array(inst.graph.weights if steiner else inst.weights, dtype=float)
        if steiner:
            g = inst.graph
            source = (g.n_vertices, g.root, g.edges)
        else:
            inc = inst.incidence
            source = (inc.shape, inc.tobytes())
        key = (steiner, source, w.tobytes(), np.array([sigma, lam]).tobytes())
        shared = _SHARED.get()
        if shared is None:
            shared = {}
        if key not in shared:
            table = _mass_table(w)
            c = lam - 1.0 + sigma
            shared[key] = (
                _frozen(table), _frozen(c * table), _frozen(sigma * table),
                _pruning_is_exact(w, lam, c), _frozen(_root_reach(g)) if steiner else inc,
            )
        table, save_table, first_vec, prune, structure = shared[key]
        distinct = dict.fromkeys(clients for _, clients in scen)
        missing = [clients for clients in distinct if (key, clients) not in shared]
        if missing:
            feasible = _connecting_feasible if steiner else _covering_feasible
            ok = feasible(structure, missing)
            if prune:
                ok = _minimal_masks(ok)
            for clients, row in zip(missing, ok):
                m = np.flatnonzero(row)
                shared[key, clients] = (_frozen(m), _frozen(lam * table[m]))
        tables = [_ScenarioTable(p, *shared[key, clients], save_table) for p, clients in scen]
        return _Prep(first_vec, tables)

    if isinstance(inst, UflInstance):
        sigma, K = inst.sigma, len(scen)
        f0 = np.array(inst.open_cost, dtype=float)
        fks = np.array(inst.scenario_open_cost, dtype=float).reshape(K, n)
        saves = fks - (1.0 - sigma) * f0
        rows = np.vstack([f0, fks, saves])  # one fold builds every price table
        prices = _lowest_bit_fold(np.zeros((1 + 2 * K, 1 << n)), rows)
        dist = inst.dist
        minc, owner = _nearest_fold(dist)
        all_masks = np.arange(1 << n, dtype=np.int64)
        tables = []
        for k, (p, clients) in enumerate(scen):
            cols = sorted(clients)
            masks = all_masks
            if _ufl_pruning_is_exact(fks[k], saves[k], dist[:, cols]):
                # irredundant: every facility strictly nearest to a demanded client
                masks = np.flatnonzero(np.bitwise_or.reduce(owner[cols], axis=0) == all_masks)
            # each kept mask's distances added one client after another
            base = prices[1 + k][masks] + minc.take(masks, axis=1)[cols].sum(axis=0)
            tables.append(_ScenarioTable(p, masks, base, prices[1 + K + k]))
        return _Prep(sigma * prices[0], tables)

    raise InstanceError(f"unsupported instance type {type(inst).__name__}")


def _solution_from_masks(f0_mask: int, x_masks: list[int]) -> TwoStageSolution:
    stages = tuple(
        StageDecision(exercised=_bits(x & f0_mask), recoursed=_bits(x & ~f0_mask))
        for x in x_masks
    )
    return TwoStageSolution(reserved=_bits(f0_mask), stages=stages)


def _totals(prep: _Prep, rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per mask of ``rows``: first-stage cost plus each scenario's weighted best
    completion, added in scenario order, and each scenario's bought sets."""
    total = prep.first_vec[rows]
    xs = []
    for tab in prep.tables:
        val, x = tab.best(rows)
        total += tab.prob * val
        xs.append(x)
    return total, xs


def brute_force_optimal(inst: Instance) -> OracleResult:
    prep = _prepare(inst)
    order = np.argsort(prep.first_vec, kind="stable")
    widest = max((tab.masks.size for tab in prep.tables), default=1)
    cap = max(1, BLOCK_ENTRIES // widest)
    best = np.inf
    best_mask = 0
    best_xs: list[int] = []
    nodes = 0
    # a first block of the whole cap would scan every row past an early stop
    start, size, end = 0, max(1, cap // 4), order.size
    while start < end:
        block = order[start : min(start + min(size, cap), end)]
        start, size = start + block.size, 2 * size
        fc = prep.first_vec[block]
        total, xs = _totals(prep, block)
        # run[j] is the incumbent before row j; fmin because a NaN total never wins
        run = np.fmin.accumulate(np.concatenate(([best], total)))[:-1]
        # masks are sorted by first-stage cost; nothing better after a stop
        stops = np.flatnonzero(fc >= run)
        rows = int(stops[0]) if stops.size else block.size
        nodes += rows
        wins = np.flatnonzero(total[:rows] < run[:rows])
        if wins.size:
            j = wins[-1]
            best, best_mask, best_xs = total[j], int(block[j]), [int(x[j]) for x in xs]
        if stops.size:
            break
        # the scan stops at or before the first row whose first-stage cost reaches
        # the incumbent; if that row is already scanned, it stops at the next one
        end = min(int(np.searchsorted(prep.first_vec, best, "left", order)) + 1, order.size)
    return OracleResult(float(best), _solution_from_masks(best_mask, best_xs), nodes)


def best_completion(inst: Instance, reserved: frozenset[int]) -> tuple[TwoStageSolution, float]:
    """Optimal second-stage play for a given reservation, and its exact cost."""
    prep = _prepare(inst)
    mask = sum(1 << s for s in reserved)
    total, xs = _totals(prep, np.array([mask]))
    return _solution_from_masks(mask, [int(x[0]) for x in xs]), float(total[0])
