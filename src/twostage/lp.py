"""Two-phase primal simplex on a dense tableau, with dual extraction.

Small LPs only (hundreds of variables); everything the rounding algorithms
need fits comfortably.  The tableau is stored dense with one column per
structural and slack variable and none for the phase-1 artificials: an
artificial never re-enters the basis, so it is only a basis id past the
last column.  Each pivot updates only the rows whose pivot-column entry is
nonzero, and in them only the columns where the pivot row is nonzero: the
relaxations are sparse, and a skipped entry could only lose the sign of a
zero.  Minimization form with row senses '<=', '>=', '=='
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
    body: np.ndarray          # (m, n_enter + 1), C-contiguous; last column is the rhs
    basis: list[int]          # ids >= n_enter are artificials, which have no column
    n_enter: int              # columns [0, n_enter) are eligible to enter
    n_cols: int               # n_enter plus the artificials

    def pivot(self, row: int, col: int, obj: np.ndarray) -> None:
        body = self.body
        body[row] /= body[row, col]
        pivot_row = body[row]
        # Outside the hit rows x the pivot row's support the update would only
        # subtract zeros, which can change nothing but the sign of a zero.
        nz = pivot_row.nonzero()[0]
        hit = body[:, col].nonzero()[0]
        hit = hit[hit != row]
        support = pivot_row[nz]
        idx = (hit * body.shape[1])[:, None] + nz
        body.reshape(-1)[idx] -= body[hit, col, None] * support
        obj[nz] -= obj[col] * support
        self.basis[row] = col


def _run_simplex(tab: _Tableau, obj: np.ndarray, max_iter: int) -> Literal["optimal", "unbounded", "failed"]:
    # The Bland threshold counts the artificials, as if each had a column.
    bland_after = 2 * (tab.body.shape[0] + tab.n_cols + 1)
    reduced = obj[:tab.n_enter]
    rhs = tab.body[:, -1]
    basis = np.array(tab.basis, dtype=np.intp)
    degenerate_streak = 0
    bland = False
    for _ in range(max_iter):
        if bland:
            candidates = (reduced < -PIVOT_TOL).nonzero()[0]
            if candidates.size == 0:
                return "optimal"
            col = int(candidates[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -PIVOT_TOL:
                return "optimal"
        column = tab.body[:, col]
        eligible = (column > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return "unbounded"
        ratios = rhs[eligible] / column[eligible]
        best = np.minimum.reduce(ratios)
        ties = eligible[ratios <= best + PIVOT_TOL]
        # Smallest basis index among ties keeps Bland's guarantee intact.
        row = int(ties[0]) if ties.size == 1 else int(ties[basis[ties].argmin()])
        if best <= PIVOT_TOL:
            degenerate_streak += 1
            if degenerate_streak > bland_after:
                bland = True
        else:
            degenerate_streak = 0
        tab.pivot(row, col, obj)
        basis[row] = col
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

    slack_rows = [i for i, s in enumerate(senses) if s == "<="]
    surplus_rows = [i for i, s in enumerate(senses) if s == ">="]
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    n_ext = n + len(slack_rows) + len(surplus_rows)
    n_cols = n_ext + len(art_rows)

    body = np.zeros((m, n_ext + 1))
    body[:, :n] = rows
    body[:, -1] = rhs
    basis = [0] * m
    for k, i in enumerate(slack_rows + surplus_rows):
        body[i, n + k] = 1.0 if senses[i] == "<=" else -1.0
        basis[i] = n + k
    for k, i in enumerate(art_rows):
        basis[i] = n_ext + k
    # The constraint matrix with slacks, for the duals at the end.
    A_ext = body[:, :n_ext].copy()

    tab = _Tableau(body=body, basis=basis, n_enter=n_ext, n_cols=n_cols)
    max_iter = 2000 + 40 * (m + n_cols)

    def reduced_row(costs: np.ndarray) -> np.ndarray:
        obj = np.zeros(n_ext + 1)
        obj[:n_ext] = costs[:n_ext]
        for r, b in enumerate(tab.basis):
            if costs[b] != 0.0:
                obj -= costs[b] * tab.body[r]
        return obj

    def fail() -> tuple[LpSolution, None]:
        return LpSolution("failed", None, float("nan"), lp.names), None

    if m > 0:
        phase1_costs = np.zeros(n_cols)
        phase1_costs[n_ext:] = 1.0
        obj1 = reduced_row(phase1_costs)
        status = _run_simplex(tab, obj1, max_iter)
        if status == "failed":
            return fail()
        if -obj1[-1] > FEAS_TOL:
            return LpSolution("infeasible", None, float("nan"), lp.names), None

        # Pivot leftover artificials out of the basis; rows that cannot be
        # pivoted are redundant and dropped.
        drop: list[int] = []
        for r in range(m):
            if tab.basis[r] >= n_ext:
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

    phase2_costs = np.zeros(n_ext)
    phase2_costs[:n] = lp.objective
    obj2 = reduced_row(phase2_costs)
    status = _run_simplex(tab, obj2, max_iter)
    if status == "failed":
        return fail()
    if status == "unbounded":
        return LpSolution("unbounded", None, float("-inf"), lp.names), None

    values_ext = np.zeros(n_ext)
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
