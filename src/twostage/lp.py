"""Dense column-major simplex tableau on an LP's dual, with duals.

Small LPs only (hundreds of variables); everything the rounding algorithms
need fits comfortably.  Row j of the array ``T`` is tableau column j of a
structural or slack variable, with that column's reduced cost as its last
entry; the last row is the rhs, ending in minus the objective value.  A
pivot is one block update of the columns where the pivot row is nonzero;
the relaxations are sparse, and a skipped column could only lose the sign
of a zero.  Minimization form with row senses '<=', '>=', '==' and
per-variable lower bounds (default 0, shifted out internally).

Every LP is solved through its dual.  With no negative cost (every LP the
package builds) the dual's slack basis is feasible: one simplex run.  A
negative cost adds one artificial column and a phase 1 before it.  x is
read off the reduced costs and y off the basic values, with no basis
solve, so the bytes do not depend on the BLAS thread count.

Dual sign convention for a minimization problem: '>=' rows get duals >= 0,
'<=' rows get duals <= 0, equality rows are free.  At optimal status the
primal and dual objectives agree and complementary slackness holds within
the stated tolerances; anything the solver cannot certify is returned as
status "failed", never as a wrong optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["LinearProgram", "LpSolution", "solve_lp"]

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
        if self.row_names and len(self.row_names) != rhs.size:
            raise ValueError("one name per row required")
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
    T: np.ndarray, basis: np.ndarray, max_iter: int
) -> Literal["optimal", "unbounded", "failed"]:
    m = T.shape[1] - 1
    # 2 * (rows + columns + 1): T holds one row per column, then the rhs.
    bland_after = 2 * (m + T.shape[0])
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
    """Solve to proven optimality through the dual; returns (primal, dual).

    x is clipped at 0 before lb is added back.  It is the slacks' reduced
    costs at the optimum, each at least -PIVOT_TOL (the optimality
    tolerance), so the clip moves an entry by at most PIVOT_TOL.  The dual
    is None unless the status is "optimal".
    """
    lb = lp.lower_bounds
    rhs = lp.rhs - lp.rows @ lb
    sense = np.array(lp.senses, dtype="<U2")
    status, x, y = _solve_dual(lp.rows, lp.objective, rhs, sense)
    if status == "optimal":
        # The certificates: row residuals and duality gap.
        x = np.clip(x, 0.0, None) + lb
        resid = lp.rows @ x - lp.rhs
        objective_value = float(lp.objective @ x)
        dual_value = float(y @ rhs) + float(lp.objective @ lb)
        if (
            np.any((resid > FEAS_TOL) & (sense != ">="))
            or np.any((resid < -FEAS_TOL) & (sense != "<="))
            or abs(dual_value - objective_value) > DUALITY_TOL * (1.0 + abs(objective_value))
        ):
            status = "failed"
    if status != "optimal":
        value = float("-inf") if status == "unbounded" else float("nan")
        return LpSolution(status, None, value), None
    primal = LpSolution("optimal", x, objective_value)
    return primal, DualSolution(values=y, objective_value=dual_value)


def _solve_dual(
    rows: np.ndarray, c: np.ndarray, rhs: np.ndarray, sense: np.ndarray
) -> tuple[str, np.ndarray | None, np.ndarray | None]:
    """Status, x - lb before clipping, and y, from a simplex run on the dual.

    The dual is max rhs·y s.t. rows^T y <= c, y >= 0 on '>=' rows, <= 0 on
    '<=' rows and free on '==' rows.  It is solved as a minimization in
    u = sign·y >= 0, where each '==' row gets a second, negated copy (a
    split free variable).  Its rows are the primal variables, each with a
    slack; with c >= 0 the slack basis is feasible and one run solves it.
    Otherwise phase 1 minimizes one artificial column, -1 in each row with
    c_j < 0 and pivoted in where c is least, and phase 2 starts from the
    basis it leaves.  At the optimum y is the basic values, mapped back,
    and x - lb is the slacks' reduced costs.  An unbounded dual means an
    infeasible primal.  An infeasible dual means an unbounded or infeasible
    primal; the dual of the zero-cost LP tells which, as it is bounded
    exactly when the primal is feasible.
    """
    m, n = rows.shape
    sign = np.where(sense == "<=", -1.0, 1.0)
    eq = (sense == "==").nonzero()[0]
    m_d = m + eq.size
    n_cols = m_d + n
    neg = (c < 0.0).nonzero()[0]
    # The artificial, if there is one, is column n_cols: the row before the rhs.
    T = np.zeros((n_cols + 1 + (neg.size > 0), n + 1))
    np.multiply(rows, sign[:, None], out=T[:m, :n])
    np.negative(rows[eq], out=T[m:m_d, :n])
    np.fill_diagonal(T[m_d:n_cols, :n], 1.0)
    T[-1, :n] = c
    T[:m, n] = -sign * rhs
    T[m:m_d, n] = rhs[eq]
    basis = np.arange(m_d, n_cols)
    max_iter = 2000 + 40 * (n + n_cols)
    if neg.size:
        costs = T[:n_cols, n].copy()
        T[:n_cols, n] = 0.0
        T[n_cols, neg] = -1.0
        T[n_cols, n] = 1.0
        row = int(c.argmin())
        _pivot(T, row, n_cols)
        basis[row] = n_cols
        if _run_simplex(T, basis, max_iter) != "optimal":
            return "failed", None, None
        if -T[-1, n] > FEAS_TOL:
            status = _solve_dual(rows, np.zeros(n), rhs, sense)[0]
            return ("unbounded" if status == "optimal" else status), None, None
        # [rows^T | I] has full row rank, so an artificial left basic at 0
        # has a nonzero entry to leave on, and no row is dropped.
        for row in (basis == n_cols).nonzero()[0]:
            col = int(np.abs(T[:n_cols, row]).argmax())
            _pivot(T, row, col)
            basis[row] = col
        T = np.delete(T, n_cols, axis=0)
        # Phase-2 reduced costs: costs minus c_b times basic row b, folded
        # left to right in row order.
        c_basic = costs[basis]
        at = c_basic.nonzero()[0]
        terms = np.zeros((at.size + 1, n_cols + 1))
        terms[0, :n_cols] = costs
        terms[1:] = c_basic[at, None] * T[:, at].T
        T[:, n] = np.subtract.reduce(terms)
    status = _run_simplex(T, basis, max_iter)
    if status != "optimal":
        return ("infeasible" if status == "unbounded" else "failed"), None, None
    u = np.zeros(n_cols)
    u[basis] = T[-1, :-1]
    y = sign * u[:m]
    y[eq] -= u[m:m_d]
    return "optimal", T[m_d:-1, -1], y
