"""Two-phase primal simplex on a dense column-major tableau, with duals.

Small LPs only (hundreds of variables); everything the rounding algorithms
need fits comfortably.  Row j of the array ``T`` is tableau column j of a
structural or slack variable, with that column's reduced cost as its last
entry; the last row is the rhs, ending in minus the objective value.  The
phase-1 artificials get no column: an artificial never re-enters the basis,
so it is only a basis id past the last column.  A pivot is one block
update of the columns where the pivot row is nonzero; the relaxations are
sparse, and a skipped column could only lose the sign of a zero.
Minimization form with row senses '<=', '>=', '==' and per-variable lower
bounds (default 0, shifted out internally).

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


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    pr = T[:, row] / T[col, row]
    # Only the pivot row's support changes; in the rows the pivot column
    # misses this subtracts p * 0.0, which can change nothing but the sign
    # of a zero.
    nz = pr.nonzero()[0]
    T[nz] -= pr[nz, None] * T[col]
    T[:, row] = pr


def _run_simplex(
    T: np.ndarray, basis: np.ndarray, n_cols: int, max_iter: int
) -> Literal["optimal", "unbounded", "failed"]:
    m = T.shape[1] - 1
    # The Bland threshold counts the artificials, as if each had a column.
    bland_after = 2 * (m + n_cols + 1)
    reduced = T[:-1, m]
    rhs = T[-1, :m]
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
        column = T[col, :m]
        eligible = (column > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return "unbounded"
        if eligible.size == 1:
            row = int(eligible[0])
            best = rhs[row] / column[row]
        else:
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
        _pivot(T, row, col)
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
    rhs *= flips
    sense = np.array(lp.senses, dtype="<U2")
    le = np.where(flips < 0, sense == ">=", sense == "<=")
    ge = np.where(flips < 0, sense == "<=", sense == ">=")

    # Slacks first, then surpluses; every row but a '<=' one starts on an
    # artificial.
    slack_rows = np.concatenate([le.nonzero()[0], ge.nonzero()[0]])
    art_rows = (~le).nonzero()[0]
    n_ext = n + slack_rows.size
    n_cols = n_ext + art_rows.size

    T = np.zeros((n_ext + 1, m + 1))
    T[:n, :m] = (lp.rows * flips[:, None]).T
    T[n + np.arange(slack_rows.size), slack_rows] = np.where(le[slack_rows], 1.0, -1.0)
    T[-1, :m] = rhs
    basis = np.empty(m, dtype=np.intp)
    basis[slack_rows] = n + np.arange(slack_rows.size)
    basis[art_rows] = n_ext + np.arange(art_rows.size)
    max_iter = 2000 + 40 * (m + n_cols)

    def reduced_row(costs: np.ndarray) -> None:
        # c - sum of c_b times basic row b, folded left to right in row order.
        c_basic = costs[basis]
        rows = c_basic.nonzero()[0]
        terms = np.zeros((rows.size + 1, n_ext + 1))
        terms[0, :n_ext] = costs[:n_ext]
        terms[1:] = c_basic[rows, None] * T[:, rows].T
        T[:, -1] = np.subtract.reduce(terms)

    def fail() -> tuple[LpSolution, None]:
        return LpSolution("failed", None, float("nan"), lp.names), None

    if m > 0:
        phase1_costs = np.zeros(n_cols)
        phase1_costs[n_ext:] = 1.0
        reduced_row(phase1_costs)
        status = _run_simplex(T, basis, n_cols, max_iter)
        if status == "failed":
            return fail()
        if -T[-1, -1] > FEAS_TOL:
            return LpSolution("infeasible", None, float("nan"), lp.names), None

        # Pivot leftover artificials out of the basis; rows that cannot be
        # pivoted are redundant and dropped.
        for r in (basis >= n_ext).nonzero()[0]:
            options = np.flatnonzero(np.abs(T[:n_ext, r]) > FEAS_TOL)
            if options.size:
                _pivot(T, r, int(options[0]))
                basis[r] = options[0]
        kept = (basis < n_ext).nonzero()[0]
        if kept.size < m:
            T = T[:, np.append(kept, m)]
            basis = basis[kept]

    phase2_costs = np.zeros(n_ext)
    phase2_costs[:n] = lp.objective
    reduced_row(phase2_costs)
    status = _run_simplex(T, basis, n_cols, max_iter)
    if status == "failed":
        return fail()
    if status == "unbounded":
        return LpSolution("unbounded", None, float("-inf"), lp.names), None

    values_ext = np.zeros(n_ext)
    values_ext[basis] = T[-1, :-1]
    x = np.clip(values_ext[:n], 0.0, None) + lb

    resid = lp.rows @ x - lp.rhs
    if np.any((resid > FEAS_TOL) & (sense != ">=")) or np.any(
        (resid < -FEAS_TOL) & (sense != "<=")
    ):
        return fail()

    objective_value = float(lp.objective @ x)

    if m > 0:
        # y solves B^T y = c_B over the kept rows; dropped (redundant) rows
        # get dual 0, and flipped rows get their sign restored.  B^T is
        # gathered from the flipped rows and the slack signs: the entries
        # the tableau started from.
        Bt = np.zeros((basis.size, m))
        struct = basis < n
        Bt[struct] = (lp.rows[:, basis[struct]] * flips[:, None]).T
        slack_at = slack_rows[basis[~struct] - n]
        Bt[~struct, slack_at] = np.where(le[slack_at], 1.0, -1.0)
        try:
            y_kept = np.linalg.solve(Bt[:, kept], phase2_costs[basis])
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
