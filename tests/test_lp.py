"""Simplex engine checked against hand vertices and scipy's solver.

The scipy comparison is the independent route: both solvers see the same
programs (random feasible bounded ones, and hypothesis-drawn degenerate,
redundant, infeasible and unbounded ones) and must agree on the status and
the optimum.  A golden digest pins the solver's output bytes on a fixed
corpus.  Two older forms of the solver are kept here as references, and the
output must be byte-equal to both: the full rank-one update of every
tableau entry, and the whole solver as it was before the artificial columns
were dropped from the tableau and the update narrowed to the pivot row's
support.
"""
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import twostage.lp
from twostage.generators import generate_instance
from twostage.lp import (
    DUALITY_TOL,
    FEAS_TOL,
    PIVOT_TOL,
    DualSolution,
    LinearProgram,
    LpSolution,
    solve_lp,
)
from twostage.lp_builders import build_relaxation


def test_one_variable_floor():
    lp = LinearProgram([1.0], [[1.0]], (">=",), [1.0])
    sol, dual = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)
    assert dual.objective_value == pytest.approx(1.0)


def test_two_variable_vertex():
    lp = LinearProgram([2.0, 1.0], [[1.0, 1.0]], (">=",), [1.0])
    sol, _ = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([0.0, 1.0])
    assert sol.objective_value == pytest.approx(1.0)


def test_conflicting_rows_are_infeasible():
    lp = LinearProgram([1.0], [[1.0]], ("<=",), [-1.0])
    sol, dual = solve_lp(lp)
    assert sol.status == "infeasible"
    assert dual is None


def test_unbounded_direction_detected():
    lp = LinearProgram([-1.0], np.zeros((0, 1)), (), [])
    sol, _ = solve_lp(lp)
    assert sol.status == "unbounded"


def test_equality_row():
    lp = LinearProgram([1.0, 3.0], [[1.0, 1.0]], ("==",), [2.0])
    sol, _ = solve_lp(lp)
    assert sol.values == pytest.approx([2.0, 0.0])


def test_lower_bounds_shift():
    lp = LinearProgram(
        [1.0, 1.0],
        [[1.0, 1.0]],
        (">=",),
        [1.0],
        lower_bounds=np.array([0.4, 0.0]),
    )
    sol, _ = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values[0] >= 0.4 - 1e-9
    assert sol.objective_value == pytest.approx(1.0)


def test_named_access():
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], (">=",), [1.0], names=("a", "b"))
    sol, _ = solve_lp(lp)
    assert sol["a"] == pytest.approx(1.0)
    assert sol.by_name()["b"] == pytest.approx(0.0)


def random_feasible_lp(rng, max_vars=20, max_rows=30):
    """Bounded by a nonnegative objective, feasible by a planted point."""
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    rows = rng.uniform(-1.0, 1.0, size=(m, n))
    x0 = rng.uniform(0.0, 2.0, size=n)
    senses = []
    rhs = np.empty(m)
    slack = rng.uniform(0.0, 1.0, size=m)
    for r in range(m):
        lhs = float(rows[r] @ x0)
        if rng.random() < 0.5:
            senses.append("<=")
            rhs[r] = lhs + slack[r]
        else:
            senses.append(">=")
            rhs[r] = lhs - slack[r]
    obj = rng.uniform(0.0, 1.0, size=n)
    return LinearProgram(obj, rows, tuple(senses), rhs)


def scipy_optimum(lp):
    a_ub, b_ub = [], []
    for row, sense, b in zip(lp.rows, lp.senses, lp.rhs):
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(b)
        else:
            a_ub.append(-row)
            b_ub.append(-b)
    res = linprog(
        lp.objective, A_ub=np.array(a_ub), b_ub=np.array(b_ub), method="highs"
    )
    assert res.status == 0
    return res.fun


def test_agrees_with_scipy_on_random_programs():
    rng = np.random.default_rng(2026)
    for _ in range(40):
        lp = random_feasible_lp(rng, max_vars=12, max_rows=16)
        sol, dual = solve_lp(lp)
        assert sol.status == "optimal"
        ref = scipy_optimum(lp)
        assert sol.objective_value == pytest.approx(ref, rel=1e-6, abs=1e-7)
        assert dual.objective_value == pytest.approx(
            sol.objective_value, rel=DUALITY_TOL, abs=DUALITY_TOL
        )


def test_complementary_slackness_on_random_programs():
    rng = np.random.default_rng(99)
    for _ in range(30):
        lp = random_feasible_lp(rng, max_vars=10, max_rows=12)
        sol, dual = solve_lp(lp)
        assert sol.status == "optimal"
        # dual value * row slack vanishes row by row
        slack = lp.rows @ sol.values - lp.rhs
        assert np.all(np.abs(dual.values * slack) <= 1e-6 * (1.0 + np.abs(lp.rhs)))
        # reduced cost * primal value vanishes variable by variable
        reduced = lp.objective - lp.rows.T @ dual.values
        assert np.all(np.abs(reduced * sol.values) <= 1e-6 * (1.0 + np.abs(lp.objective)))


def highs(lp):
    """scipy's HiGHS on the same program: (status, objective)."""
    le = np.array([s == "<=" for s in lp.senses], dtype=bool)
    ge = np.array([s == ">=" for s in lp.senses], dtype=bool)
    eq = ~(le | ge)
    res = linprog(
        lp.objective,
        A_ub=np.vstack([lp.rows[le], -lp.rows[ge]]),
        b_ub=np.concatenate([lp.rhs[le], -lp.rhs[ge]]),
        A_eq=lp.rows[eq] if eq.any() else None,
        b_eq=lp.rhs[eq] if eq.any() else None,
        method="highs",
    )
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, res.message), res.fun


@st.composite
def hard_programs(draw):
    """Small integer programs of four shapes: degenerate (every row but the
    bounding one with zero rhs), redundant equalities (a scaled and a summed
    copy), infeasible (a row asked to be both <= t and >= t + 1) and
    unbounded (x_0 costs -1 and only loosens every row)."""
    shape = draw(st.sampled_from(["degenerate", "redundant", "infeasible", "unbounded"]))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 6))

    def ints(lo, hi, size):
        values = st.lists(st.integers(lo, hi), min_size=size, max_size=size)
        return np.array(draw(values), dtype=float)

    rows = ints(-3, 3, m * n).reshape(m, n)
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    x0 = ints(0, 2, n)
    rhs = rows @ x0
    costs = ints(-2, 3, n)
    if shape == "degenerate":
        rhs[:] = 0.0
    elif shape == "redundant":
        senses[0] = senses[-1] = "=="
        rows = np.vstack([rows, 2.0 * rows[0], rows[0] + rows[-1]])
        rhs = np.append(rhs, [2.0 * rhs[0], rhs[0] + rhs[-1]])
        senses += ["==", "=="]
    elif shape == "infeasible":
        t = float(draw(st.integers(-2, 2)))
        rows = np.vstack([rows, rows[0], rows[0]])
        rhs = np.append(rhs, [t, t + 1.0])
        senses += ["<=", ">="]
    else:
        sign = {"<=": -1.0, ">=": 1.0, "==": 0.0}
        rows[:, 0] = np.abs(rows[:, 0]) * [sign[s] for s in senses]
        rhs = rows @ x0
        costs[0] = -1.0
    if shape != "unbounded":
        # Keeps every feasible program bounded; x = 0 meets it.
        rows = np.vstack([rows, np.ones(n)])
        rhs = np.append(rhs, float(x0.sum() + 2))
        senses.append("<=")
    return LinearProgram(costs, rows, tuple(senses), rhs)


@settings(max_examples=300, deadline=None)
@given(lp=hard_programs())
def test_agrees_with_highs_on_degenerate_redundant_infeasible_and_unbounded(lp):
    sol, _ = solve_lp(lp)
    status, objective = highs(lp)
    assert sol.status == status
    if status == "optimal":
        assert abs(sol.objective_value - objective) <= 1e-6 * (1.0 + abs(objective))


def test_dual_signs_follow_row_senses():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lp = random_feasible_lp(rng, max_vars=8, max_rows=10)
        sol, dual = solve_lp(lp)
        assert sol.status == "optimal"
        for sense, v in zip(lp.senses, dual.values):
            if sense == ">=":
                assert v >= -1e-7
            elif sense == "<=":
                assert v <= 1e-7


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram([1.0, 2.0], [[1.0]], (">=",), [1.0])
    with pytest.raises(ValueError):
        LinearProgram([1.0], [[1.0]], (">=", "<="), [1.0])


def record_pivots(monkeypatch, owner=twostage.lp, name="_pivot"):
    """Log (row, col) of every pivot made through ``owner.name``: the
    solver's ``_pivot(T, row, col)`` or a reference ``pivot(self, row, col, obj)``."""
    pivots = []
    pivot = getattr(owner, name)

    def logged(*args):
        pivots.append(tuple(args[1:3]))
        pivot(*args)

    monkeypatch.setattr(owner, name, logged)
    return pivots


def beale_lp():
    return LinearProgram(
        [-0.75, 20.0, -0.5, 6.0],
        [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        ("<=", "<=", "<="),
        [0.0, 0.0, 1.0],
    )


def test_bland_switch_breaks_beales_cycle(monkeypatch):
    # Beale's LP cycles with period 6 under the Dantzig rule; the optimum is
    # reached only once the degenerate streak exceeds 2 * (m + columns + 1)
    # = 2 * (3 + 7 + 1) = 22 and the entering rule switches to Bland's.
    pivots = record_pivots(monkeypatch)
    sol, dual = solve_lp(beale_lp())
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(-1.25)
    assert sol.values == pytest.approx([1.0, 0.0, 1.0, 0.0])
    assert dual.objective_value == pytest.approx(-1.25)
    assert len(pivots) == 25
    cycle = pivots[:6]
    assert pivots[:23] == (cycle * 4)[:23]
    assert pivots[23] != cycle[23 % 6]


def test_redundant_equality_rows_are_dropped_with_zero_dual(monkeypatch):
    pivots = record_pivots(monkeypatch)
    lp = LinearProgram(
        [1.0, 3.0],
        [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        ("==", "==", "=="),
        [2.0, 2.0, 4.0],
    )
    sol, dual = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([2.0, 0.0])
    assert len(pivots) == 1
    # Only the first row keeps a basic variable; the two copies are dropped.
    assert list(dual.values) == [pytest.approx(1.0), 0.0, 0.0]
    assert dual.objective_value == pytest.approx(2.0)


def dense_pivot(T, row, col):
    """Reference pivot: the full rank-one update of every entry of T."""
    pr = T[:, row] / T[col, row]
    T -= np.outer(pr, T[col])
    T[:, row] = pr


def solution_bytes(lp, solve=solve_lp):
    sol, dual = solve(lp)
    values = None if sol.values is None else sol.values.tobytes()
    duals = None if dual is None else (dual.values.tobytes(), dual.objective_value)
    return sol.status, values, np.float64(sol.objective_value).tobytes(), duals


def differential_corpus():
    for seed in range(3):
        yield build_relaxation(generate_instance(
            "set_cover", seed=seed, n_elements=6, n_sets=7, scenarios=3))
        yield build_relaxation(generate_instance(
            "vertex_cover", seed=seed, n_vertices=6, n_edges=9, scenarios=3))
        yield build_relaxation(generate_instance(
            "ufl", seed=seed, n_facilities=4, n_clients=5, scenarios=3))
        yield build_relaxation(generate_instance(
            "steiner", seed=seed, n_vertices=6, n_edges=8, scenarios=3))
    rng = np.random.default_rng(2026)
    for _ in range(40):
        yield random_feasible_lp(rng, max_vars=12, max_rows=16)


def test_sparse_row_pivot_is_bit_identical_to_dense_update(monkeypatch):
    corpus = list(differential_corpus())
    sparse = [solution_bytes(lp) for lp in corpus]
    monkeypatch.setattr(twostage.lp, "_pivot", dense_pivot)
    dense = [solution_bytes(lp) for lp in corpus]
    assert all(s[0] == "optimal" for s in sparse)
    assert sparse == dense


# -- the solver before the lean tableau, kept as the reference ---------------
#
# A frozen copy of the tableau that stored one artificial column per '>=' or
# '==' row and updated the full width of every row the pivot column touched.


@dataclass
class RefTableau:
    body: np.ndarray          # (m, n_cols + 1), last column is the rhs
    basis: list[int]
    n_enter: int              # columns [0, n_enter) are eligible to enter

    def pivot(self, row, col, obj):
        body = self.body
        body[row] /= body[row, col]
        pivot_row = body[row]
        hit = body[:, col].nonzero()[0]
        hit = hit[hit != row]
        body[hit] -= body[hit, col, None] * pivot_row
        obj -= obj[col] * pivot_row
        self.basis[row] = col


def ref_run_simplex(tab, obj, max_iter):
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
        row = int(ties[0]) if ties.size == 1 else int(min(ties, key=lambda r: tab.basis[r]))
        if best <= PIVOT_TOL:
            degenerate_streak += 1
            if degenerate_streak > 2 * (m + tab.body.shape[1]):
                bland = True
        else:
            degenerate_streak = 0
        tab.pivot(row, col, obj)
    return "failed"


def ref_solve_lp(lp):
    n = lp.n_vars
    m = lp.n_rows
    lb = lp.lower_bounds
    shift_const = float(lp.objective @ lb)
    rhs = lp.rhs - lp.rows @ lb

    flips = np.where(rhs < 0, -1.0, 1.0)
    rows = lp.rows * flips[:, None]
    rhs *= flips
    flipped = {"<=": ">=", ">=": "<=", "==": "=="}
    senses = [flipped[s] if f < 0 else s for s, f in zip(lp.senses, flips)]

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
    slack_col_of = {}
    for i in slack_cols:
        body[i, col] = 1.0
        slack_col_of[i] = col
        col += 1
    for i in surplus_cols:
        body[i, col] = -1.0
        slack_col_of[i] = col
        col += 1
    art_col_of = {}
    for i in art_rows:
        body[i, col] = 1.0
        art_col_of[i] = col
        col += 1

    basis = [art_col_of[i] if i in art_col_of else slack_col_of[i] for i in range(m)]
    tab = RefTableau(body=body, basis=basis, n_enter=n_ext)
    max_iter = 2000 + 40 * (m + n_cols)

    def reduced_row(costs):
        obj = np.zeros(n_cols + 1)
        obj[:n_cols] = costs
        for r, b in enumerate(tab.basis):
            if costs[b] != 0.0:
                obj -= costs[b] * tab.body[r]
        return obj

    def fail():
        return LpSolution("failed", None, float("nan"), lp.names), None

    if m > 0:
        phase1_costs = np.zeros(n_cols)
        for c in art_col_of.values():
            phase1_costs[c] = 1.0
        obj1 = reduced_row(phase1_costs)
        status = ref_run_simplex(tab, obj1, max_iter)
        if status == "failed":
            return fail()
        if -obj1[-1] > FEAS_TOL:
            return LpSolution("infeasible", None, float("nan"), lp.names), None
        art_set = set(art_col_of.values())
        drop = []
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
    status = ref_run_simplex(tab, obj2, max_iter)
    if status == "failed":
        return fail()
    if status == "unbounded":
        return LpSolution("unbounded", None, float("-inf"), lp.names), None

    values_ext = np.zeros(n_cols)
    for r, b in enumerate(tab.basis):
        values_ext[b] = tab.body[r, -1]
    x = np.clip(values_ext[:n], 0.0, None) + lb

    resid_hi = lp.rows @ x - lp.rhs
    for i, s in enumerate(lp.senses):
        if (
            (s == "<=" and resid_hi[i] > FEAS_TOL)
            or (s == ">=" and resid_hi[i] < -FEAS_TOL)
            or (s == "==" and abs(resid_hi[i]) > FEAS_TOL)
        ):
            return fail()
    objective_value = float(lp.objective @ x)

    if m > 0:
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
    return (
        LpSolution("optimal", x, objective_value, lp.names),
        DualSolution(values=y, objective_value=dual_value),
    )


# Two sizes per kind from the relax benchmark ladder (80-350 rows).
RELAX_SIZES = (
    ("set_cover", {"n_elements": 12, "n_sets": 16, "scenarios": 4}),
    ("set_cover", {"n_elements": 17, "n_sets": 21, "scenarios": 5}),
    ("vertex_cover", {"n_vertices": 12, "n_edges": 24, "scenarios": 4}),
    ("vertex_cover", {"n_vertices": 17, "n_edges": 34, "scenarios": 5}),
    ("ufl", {"n_facilities": 5, "n_clients": 9, "scenarios": 3}),
    ("ufl", {"n_facilities": 7, "n_clients": 11, "scenarios": 4}),
    ("steiner", {"n_vertices": 6, "scenarios": 3}),
    ("steiner", {"n_vertices": 7, "scenarios": 4}),
)


def equality_lp(rng, redundant):
    """Mixed senses, rows 0 and 1 '==', feasible by a planted point; with
    ``redundant``, those two rows come again as a scaled copy and a sum."""
    n = int(rng.integers(3, 10))
    m = int(rng.integers(2, 8))
    rows = rng.uniform(-1.0, 1.0, size=(m, n))
    rhs = rows @ rng.uniform(0.0, 2.0, size=n)
    senses = ["=="] * m
    for r in range(2, m):
        pick = rng.random()
        if pick < 0.3:
            senses[r] = "<="
            rhs[r] += 0.5
        elif pick < 0.6:
            senses[r] = ">="
            rhs[r] -= 0.5
    if redundant:
        rows = np.vstack([rows, 2.0 * rows[0], rows[0] + rows[1]])
        rhs = np.concatenate([rhs, [2.0 * rhs[0], rhs[0] + rhs[1]]])
        senses += ["==", "=="]
    return LinearProgram(rng.uniform(0.0, 1.0, size=n), rows, tuple(senses), rhs)


def infeasible_lp(rng):
    """A random program plus rows asking for sum(x) <= 1 and sum(x) >= 2."""
    lp = random_feasible_lp(rng, max_vars=8, max_rows=8)
    ones = np.ones((2, lp.n_vars))
    return LinearProgram(
        lp.objective,
        np.vstack([lp.rows, ones]),
        lp.senses + ("<=", ">="),
        np.concatenate([lp.rhs, [1.0, 2.0]]),
    )


def unbounded_lp(rng):
    """'>=' rows nonnegative in x_0, which has a negative cost, and x_1 == 1."""
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 6))
    rows = rng.uniform(0.0, 1.0, size=(m + 1, n))
    rows[m] = 0.0
    rows[m, 1] = 1.0
    rhs = np.append(rng.uniform(0.5, 2.0, size=m), 1.0)
    obj = rng.uniform(0.0, 1.0, size=n)
    obj[0] = -1.0
    return LinearProgram(obj, rows, (">=",) * m + ("==",), rhs)


def lean_tableau_corpus():
    yield from differential_corpus()
    for kind, sizes in RELAX_SIZES:
        yield build_relaxation(generate_instance(kind, seed=7, **sizes))
    rng = np.random.default_rng(11)
    for i in range(24):
        yield equality_lp(rng, redundant=i % 2 == 1)
    for _ in range(6):
        yield infeasible_lp(rng)
        yield unbounded_lp(rng)
    yield LinearProgram([1.0], [[1.0]], ("<=",), [-1.0])
    yield LinearProgram([-1.0], np.zeros((0, 1)), (), [])


# SHA-256 of solve_lp's output on golden_solve_corpus(). A change to it is an
# output change: declare it in CHANGES.md and paste the new value. Dual bytes
# depend on the BLAS thread count, so a child process pinned to one thread
# takes the digest.
GOLDEN_SOLVE_DIGEST = "07c44dbcabaff79ec05329784fa80b526f9b728d96593a2f54821d494ff03e4c"


def golden_solve_corpus():
    from test_lp_builders import golden_builder_corpus
    from test_oracle import odd_cycle_vc

    yield from golden_builder_corpus()
    yield from lean_tableau_corpus()
    # Only these two cycle long enough to reach the Bland switch.
    yield beale_lp()
    yield beale_with_artificials()
    # Half-integral odd-cycle relaxations: a reduced-cost fold in another
    # order changes their output bytes, and those of no LP above.
    rng = np.random.default_rng(7)
    for n, k in ((15, 4), (21, 5), (17, 4), (19, 5)):
        yield build_relaxation(odd_cycle_vc(rng, n, k))


def solve_digest(lps) -> str:
    """Status, values, objective, dual values and dual objective bytes."""
    h = hashlib.sha256()
    for lp in lps:
        sol, dual = solve_lp(lp)
        h.update(sol.status.encode())
        parts = [np.float64(sol.objective_value)]
        if sol.values is not None:
            parts.append(sol.values)
        if dual is not None:
            parts += [dual.values, np.float64(dual.objective_value)]
        for part in parts:
            data = part.tobytes()
            h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def test_solve_lp_matches_the_golden_digest():
    src = str(Path(twostage.lp.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    digest = child.stdout.strip()
    assert digest == GOLDEN_SOLVE_DIGEST, f'GOLDEN_SOLVE_DIGEST = "{digest}"'


def test_lean_tableau_is_bit_identical_to_the_artificial_column_reference():
    corpus = list(lean_tableau_corpus())
    lean = [solution_bytes(lp) for lp in corpus]
    ref = [solution_bytes(lp, solve=ref_solve_lp) for lp in corpus]
    statuses = [s[0] for s in lean]
    assert {"optimal", "infeasible", "unbounded"} <= set(statuses)
    assert statuses.count("optimal") == len(corpus) - 14
    assert lean == ref


def beale_with_artificials():
    """Beale's cycling LP plus x5 >= 1 and x6 == 1 at cost 1 each: phase 1
    pivots both in, then phase 2 cycles exactly as in Beale's LP."""
    rows = np.zeros((5, 6))
    rows[:3, :4] = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    rows[3, 4] = rows[4, 5] = 1.0
    return LinearProgram(
        [-0.75, 20.0, -0.5, 6.0, 1.0, 1.0],
        rows,
        ("<=", "<=", "<=", ">=", "=="),
        [0.0, 0.0, 1.0, 1.0, 1.0],
    )


def test_bland_switch_with_artificials_matches_the_reference(monkeypatch):
    # 6 structural + 4 slack/surplus + 2 artificial columns: the switch
    # fires once the degenerate streak exceeds 2 * (5 + 12 + 1) = 36.
    # Counting only the columns the lean tableau stores would give 32.
    lp = beale_with_artificials()
    lean_pivots = record_pivots(monkeypatch)
    sol, dual = solve_lp(lp)
    ref_pivots = record_pivots(monkeypatch, RefTableau, "pivot")
    ref_sol, ref_dual = ref_solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.75)
    assert sol.values == pytest.approx([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    assert dual.objective_value == pytest.approx(0.75)
    assert lean_pivots == ref_pivots
    assert sol.values.tobytes() == ref_sol.values.tobytes()
    assert dual.values.tobytes() == ref_dual.values.tobytes()
    # Phase 1 pivots x5 and x6 in; phase 2 cycles until Bland's rule, on
    # from pivot 37, first picks another column at pivot 40.
    assert len(lean_pivots) == 44
    phase2 = lean_pivots[2:]
    cycle = phase2[:6]
    assert phase2[:40] == (cycle * 7)[:40]
    assert phase2[40] != cycle[40 % 6]


if __name__ == "__main__":
    print(solve_digest(golden_solve_corpus()))
