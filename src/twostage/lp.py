"""Two-phase primal simplex on a dense tableau, with dual extraction.

Small LPs only (hundreds of variables); everything the rounding algorithms
need fits comfortably.  The tableau is stored dense, but each pivot updates
only the rows whose pivot-column entry is nonzero: the relaxations are
sparse, and skipping a zero factor leaves every other row's arithmetic
unchanged.  Minimization form with row senses '<=', '>=', '=='
and per-variable lower bounds (default 0, shifted out internally).

Dual sign convention for a minimization problem: '>=' rows get duals >= 0,
'<=' rows get duals <= 0, equality rows are free.  At optimal status the
primal and dual objectives agree and complementary slackness holds within
the stated tolerances; anything the solver cannot certify is returned as
status "failed", never as a wrong optimum.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "DualSolution", "solve_lp"]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DUALITY_TOL = 1e-6

Sense = Literal["<=", ">=", "=="]
_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray
    rows: np.ndarray
    senses: tuple[Sense, ...]
    rhs: np.ndarray
    lower_bounds: np.ndarray | None = None
    names: tuple[str, ...] = ()
    row_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        obj = np.asarray(self.objective, dtype=float)
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, obj.size)
        if rows.ndim != 2 or rows.shape != (rhs.size, obj.size):
            raise ValueError(
                f"shape mismatch: rows {rows.shape}, objective {obj.size}, rhs {rhs.size}"
            )
        if len(self.senses) != rhs.size:
            raise ValueError("one sense per row required")
        if any(s not in ("<=", ">=", "==") for s in self.senses):
            raise ValueError(f"bad sense in {self.senses}")
        lb = self.lower_bounds
        lb = np.zeros(obj.size) if lb is None else np.asarray(lb, dtype=float)
        if lb.size != obj.size:
            raise ValueError("one lower bound per variable required")
        for arr in (obj, rows, rhs, lb):
            if not np.all(np.isfinite(arr)):
                raise ValueError("LP data must be finite")
        if self.names and len(self.names) != obj.size:
            raise ValueError("one name per variable required")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower_bounds", lb)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class LpSolution:
    status: Literal["optimal", "infeasible", "unbounded", "failed"]
    values: np.ndarray | None
    objective_value: float
    names: tuple[str, ...] = ()

    def __getitem__(self, name: str) -> float:
        if self.values is None:
            raise KeyError("no values on a non-optimal solution")
        return float(self.values[self.names.index(name)])

    def by_name(self) -> dict[str, float]:
        if self.values is None:
            return {}
        return {n: float(v) for n, v in zip(self.names, self.values)}


@dataclass(frozen=True)
class DualSolution:
    values: np.ndarray
    objective_value: float


@dataclass
class _Tableau:
    body: np.ndarray          # (m, n_cols + 1), last column is the rhs
    basis: list[int]
    n_enter: int              # columns [0, n_enter) are eligible to enter

    def pivot(self, row: int, col: int, obj: np.ndarray) -> None:
        body = self.body
        body[row] /= body[row, col]
        pivot_row = body[row]
        # Rows with a zero entry in the pivot column would only subtract zeros.
        hit = body[:, col].nonzero()[0]
        hit = hit[hit != row]
        body[hit] -= body[hit, col, None] * pivot_row
        obj -= obj[col] * pivot_row
        self.basis[row] = col


def _run_simplex(tab: _Tableau, obj: np.ndarray, max_iter: int) -> Literal["optimal", "unbounded", "failed"]:
    m = tab.body.shape[0]
    degenerate_streak = 0
    bland = False
    for _ in range(max_iter):
        reduced = obj[:tab.n_enter]
        if bland:
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            if candidates.size == 0:
                return "optimal"
            col = int(candidates[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -PIVOT_TOL:
                return "optimal"
        column = tab.body[:, col]
        rhs = tab.body[:, -1]
        eligible = (column > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return "unbounded"
        ratios = rhs[eligible] / column[eligible]
        best = ratios.min()
        ties = eligible[ratios <= best + PIVOT_TOL]
        # Smallest basis index among ties keeps Bland's guarantee intact.
        row = int(ties[0]) if ties.size == 1 else int(min(ties, key=lambda r: tab.basis[r]))
        if best <= PIVOT_TOL:
            degenerate_streak += 1
            if degenerate_streak > 2 * (m + tab.body.shape[1]):
                bland = True
        else:
            degenerate_streak = 0
        tab.pivot(row, col, obj)
    return "failed"


def solve_lp(lp: LinearProgram) -> tuple[LpSolution, DualSolution | None]:
    """Solve to proven optimality; returns (primal, dual).

    The dual is None unless the status is "optimal".
    """
    n = lp.n_vars
    m = lp.n_rows
    lb = lp.lower_bounds
    shift_const = float(lp.objective @ lb)
    rhs = lp.rhs - lp.rows @ lb

    # Normalize to nonnegative rhs, remembering sign flips for dual recovery.
    flips = np.where(rhs < 0, -1.0, 1.0)
    rows = lp.rows * flips[:, None]
    rhs *= flips
    senses = [_FLIPPED[s] if f < 0 else s for s, f in zip(lp.senses, flips)]

    slack_cols = [i for i, s in enumerate(senses) if s == "<="]
    surplus_cols = [i for i, s in enumerate(senses) if s == ">="]
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    n_slack = len(slack_cols) + len(surplus_cols)
    n_ext = n + n_slack
    n_cols = n_ext + len(art_rows)

    body = np.zeros((m, n_cols + 1))
    body[:, :n] = rows
    body[:, -1] = rhs
    col = n
    slack_col_of: dict[int, int] = {}
    for i in slack_cols:
        body[i, col] = 1.0
        slack_col_of[i] = col
        col += 1
    for i in surplus_cols:
        body[i, col] = -1.0
        slack_col_of[i] = col
        col += 1
    art_col_of: dict[int, int] = {}
    for i in art_rows:
        body[i, col] = 1.0
        art_col_of[i] = col
        col += 1

    basis = [0] * m
    for i in range(m):
        basis[i] = art_col_of[i] if i in art_col_of else slack_col_of[i]

    tab = _Tableau(body=body, basis=basis, n_enter=n_ext)
    max_iter = 2000 + 40 * (m + n_cols)

    def reduced_row(costs: np.ndarray) -> np.ndarray:
        obj = np.zeros(n_cols + 1)
        obj[:n_cols] = costs
        for r, b in enumerate(tab.basis):
            if costs[b] != 0.0:
                obj -= costs[b] * tab.body[r]
        return obj

    def fail() -> tuple[LpSolution, None]:
        return LpSolution("failed", None, float("nan"), lp.names), None

    if m > 0:
        phase1_costs = np.zeros(n_cols)
        for c in art_col_of.values():
            phase1_costs[c] = 1.0
        obj1 = reduced_row(phase1_costs)
        status = _run_simplex(tab, obj1, max_iter)
        if status == "failed":
            return fail()
        if -obj1[-1] > FEAS_TOL:
            return LpSolution("infeasible", None, float("nan"), lp.names), None

        # Pivot leftover artificials out of the basis; rows that cannot be
        # pivoted are redundant and dropped.
        art_set = set(art_col_of.values())
        drop: list[int] = []
        for r in range(m):
            if tab.basis[r] in art_set:
                options = np.flatnonzero(np.abs(tab.body[r, :n_ext]) > FEAS_TOL)
                if options.size:
                    tab.pivot(r, int(options[0]), obj1)
                else:
                    drop.append(r)
        kept = [r for r in range(m) if r not in drop]
        if drop:
            tab.body = tab.body[kept]
            tab.basis = [tab.basis[r] for r in kept]
    else:
        kept = []

    phase2_costs = np.zeros(n_cols)
    phase2_costs[:n] = lp.objective
    obj2 = reduced_row(phase2_costs)
    status = _run_simplex(tab, obj2, max_iter)
    if status == "failed":
        return fail()
    if status == "unbounded":
        return LpSolution("unbounded", None, float("-inf"), lp.names), None

    values_ext = np.zeros(n_cols)
    for r, b in enumerate(tab.basis):
        values_ext[b] = tab.body[r, -1]
    u = np.clip(values_ext[:n], 0.0, None)
    x = u + lb

    resid_hi = lp.rows @ x - lp.rhs
    for i, s in enumerate(lp.senses):
        bad = (
            (s == "<=" and resid_hi[i] > FEAS_TOL)
            or (s == ">=" and resid_hi[i] < -FEAS_TOL)
            or (s == "==" and abs(resid_hi[i]) > FEAS_TOL)
        )
        if bad:
            return fail()

    objective_value = float(lp.objective @ x)

    if m > 0:
        # y solves B^T y = c_B over the kept rows; dropped (redundant) rows
        # get dual 0, and flipped rows get their sign restored.
        A_ext = np.zeros((m, n_ext))
        A_ext[:, :n] = rows
        for i in slack_cols:
            A_ext[i, slack_col_of[i]] = 1.0
        for i in surplus_cols:
            A_ext[i, slack_col_of[i]] = -1.0
        B = A_ext[kept][:, tab.basis]
        try:
            y_kept = np.linalg.solve(B.T, phase2_costs[tab.basis])
        except np.linalg.LinAlgError:
            return fail()
        y = np.zeros(m)
        y[kept] = y_kept
        y *= flips
        dual_value = float(y @ (lp.rhs - lp.rows @ lb)) + shift_const
    else:
        y = np.zeros(0)
        dual_value = shift_const

    if abs(dual_value - objective_value) > DUALITY_TOL * (1.0 + abs(objective_value)):
        return fail()

    primal = LpSolution("optimal", x, objective_value, lp.names)
    return primal, DualSolution(values=y, objective_value=dual_value)
