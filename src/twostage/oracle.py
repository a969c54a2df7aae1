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
UFL is not monotone (opening a facility can shorten connections), so it
keeps every facility set.

The tables and candidate lists are built as whole arrays, and the scan
takes the sorted masks in blocks (8 rows, doubling, capped so that a block
times the widest scenario's candidate count stays within BLOCK_ENTRIES).
Every float is computed by the same operations in the same order as a scan
of one mask at a time over every feasible set, and the stopping point is
recovered from the running incumbent, so the cost, solution and node count
equal that scan's exactly.

Intended for cross-checking the approximation algorithms; refuses instances
with more than MAX_ITEMS items or MAX_SCENARIOS scenarios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import (
    Instance,
    InstanceError,
    SetCoverInstance,
    SteinerInstance,
    UflInstance,
    VertexCoverInstance,
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
BLOCK_ENTRIES = 1 << 15  # cap on block rows x candidate sets per scenario


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


def _lowest_bit_fold(op, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill table[mask] = op(table[mask ^ low], rows[bit of low]) for mask > 0.

    low is the lowest set bit.  Bits are taken highest first, so the entry a
    mask reads was written in an earlier pass.
    """
    n = len(rows)
    for k in range(n - 1, -1, -1):
        rest = np.arange(1 << (n - k - 1), dtype=np.int64) << (k + 1)
        table[rest | (1 << k)] = op(table[rest], rows[k])
    return table


def _mass_table(weights: np.ndarray) -> np.ndarray:
    """table[mask] = sum of weights over the bits of mask, for all masks."""
    return _lowest_bit_fold(np.add, np.zeros(1 << weights.size), weights)


@dataclass
class _ScenarioTable:
    prob: float
    masks: np.ndarray       # candidate bought sets X
    base: np.ndarray        # cost of X at full recourse price (plus service)
    save_table: np.ndarray  # discount earned by the reserved part of X

    def best(self, f0_masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cheapest completion value and its bought set, per reservation mask."""
        vals = self.base - self.save_table[self.masks & f0_masks[:, None]]
        idx = vals.argmin(axis=1)
        return vals[np.arange(idx.size), idx], self.masks[idx]


@dataclass
class _Prep:
    first_vec: np.ndarray   # first-stage cost per reservation mask
    tables: list[_ScenarioTable]


def _covering_feasible(inst, clients: frozenset[int], n: int) -> np.ndarray:
    """Bitmap over all item masks: does the mask cover every client."""
    x = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(x.size, dtype=bool)
    for e in sorted(clients):
        cm = 0
        for s in inst.covering_items(e):
            cm |= 1 << s
        if cm == 0:
            raise InstanceError(f"element {e} is uncoverable")
        ok &= (x & cm) != 0
    return ok


def _connecting_feasible(inst: SteinerInstance, clients: frozenset[int]) -> np.ndarray:
    """Bitmap over all edge masks: does the mask connect every client to the root."""
    g = inst.graph
    x = np.arange(1 << g.n_edges, dtype=np.int64)
    need = 0
    for t in clients:
        if t != g.root:
            need |= 1 << t
    if not need:
        return np.ones(x.size, dtype=bool)
    # reach[x]: vertex bitmask of the root's component under the edges of x
    present = [(x >> e) & 1 == 1 for e in range(g.n_edges)]
    reach = np.full(x.size, 1 << g.root, dtype=np.int64)
    while True:
        before = reach.copy()
        for e, (u, v) in enumerate(g.edges):
            uv = (1 << u) | (1 << v)
            reach |= np.where(present[e] & ((reach & uv) != 0), uv, 0)
        if np.array_equal(before, reach):
            break
    ok = (reach & need) == need
    if not ok.any():
        raise InstanceError("no edge set connects the demanded terminals")
    return ok


def _minimal_masks(ok: np.ndarray) -> np.ndarray:
    """Ascending masks that are feasible and infeasible with any one bit removed.

    For an upward-closed bitmap (covering, connecting) these are exactly the
    inclusion-minimal feasible sets.
    """
    keep = ok.copy()
    for k in range(ok.size.bit_length() - 1):
        # viewed as (high bits, bit k, low bits): [:, 1] are the masks with
        # bit k set and [:, 0] the same masks without it
        keep.reshape(-1, 2, 1 << k)[:, 1] &= ~ok.reshape(-1, 2, 1 << k)[:, 0]
    return np.flatnonzero(keep)


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
        table = _mass_table(w)
        c = lam - 1.0 + sigma
        save_table = c * table
        prune = _pruning_is_exact(w, lam, c)
        tables = []
        for p, clients in scen:
            if steiner:
                ok = _connecting_feasible(inst, clients)
            else:
                ok = _covering_feasible(inst, clients, n)
            masks = _minimal_masks(ok) if prune else np.flatnonzero(ok)
            tables.append(_ScenarioTable(p, masks, lam * table[masks], save_table))
        return _Prep(sigma * table, tables)

    if isinstance(inst, UflInstance):
        sigma = inst.sigma
        f0 = np.array(inst.open_cost, dtype=float)
        f0_table = _mass_table(f0)
        # nearest-open-facility distance per (mask, client)
        minc = _lowest_bit_fold(np.minimum, np.full((1 << n, inst.n_clients), np.inf), inst.dist)
        all_masks = np.arange(1 << n, dtype=np.int64)
        tables = []
        for k, (p, clients) in enumerate(scen):
            fk = np.array(inst.scenario_open_cost[k], dtype=float)
            open_table = _mass_table(fk)
            conn = minc[:, sorted(clients)].sum(axis=1) if clients else np.zeros(1 << n)
            save_table = _mass_table(fk - (1.0 - sigma) * f0)
            tables.append(_ScenarioTable(p, all_masks, open_table + conn, save_table))
        return _Prep(sigma * f0_table, tables)

    raise InstanceError(f"unsupported instance type {type(inst).__name__}")


def _solution_from_masks(f0_mask: int, x_masks: list[int]) -> TwoStageSolution:
    stages = tuple(
        StageDecision(exercised=_bits(x & f0_mask), recoursed=_bits(x & ~f0_mask))
        for x in x_masks
    )
    return TwoStageSolution(reserved=_bits(f0_mask), stages=stages)


def brute_force_optimal(inst: Instance) -> OracleResult:
    prep = _prepare(inst)
    order = np.argsort(prep.first_vec, kind="stable")
    widest = max((tab.masks.size for tab in prep.tables), default=1)
    cap = max(1, BLOCK_ENTRIES // widest)
    best = np.inf
    best_mask = 0
    best_xs: list[int] = []
    nodes = 0
    start, size = 0, 8
    while start < order.size:
        block = order[start : start + min(size, cap)]
        start, size = start + block.size, 2 * size
        fc = prep.first_vec[block]
        total = fc.copy()
        xs = []
        for tab in prep.tables:
            val, x = tab.best(block)
            total += tab.prob * val
            xs.append(x)
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
    return OracleResult(float(best), _solution_from_masks(best_mask, best_xs), nodes)


def best_completion(inst: Instance, reserved: frozenset[int]) -> tuple[TwoStageSolution, float]:
    """Optimal second-stage play for a given reservation, and its exact cost."""
    prep = _prepare(inst)
    mask = 0
    for s in reserved:
        mask |= 1 << s
    total = float(prep.first_vec[mask])
    xs = []
    for tab in prep.tables:
        val, x = tab.best(np.array([mask]))
        total += tab.prob * float(val[0])
        xs.append(int(x[0]))
    return _solution_from_masks(mask, xs), total
