"""Simplex engine checked against hand vertices and scipy's solver.

The scipy comparison is the independent route: both solvers see the same
random feasible bounded programs and must land on the same optimum.  The
sparse-row pivot is checked against the dense rank-one update it replaced,
which this file keeps as the reference: the output must be byte-equal.
"""
import numpy as np
import pytest
from scipy.optimize import linprog

import twostage.lp
from twostage.generators import generate_instance
from twostage.lp import DUALITY_TOL, LinearProgram, solve_lp
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


def record_pivots(monkeypatch):
    """Log (row, col) of every pivot solve_lp makes."""
    pivots = []
    pivot = twostage.lp._Tableau.pivot

    def logged(self, row, col, obj):
        pivots.append((row, col))
        pivot(self, row, col, obj)

    monkeypatch.setattr(twostage.lp._Tableau, "pivot", logged)
    return pivots


def test_bland_switch_breaks_beales_cycle(monkeypatch):
    # Beale's LP cycles with period 6 under the Dantzig rule; the optimum is
    # reached only once the degenerate streak exceeds 2 * (m + tableau
    # columns) = 22 and the entering rule switches to Bland's.
    pivots = record_pivots(monkeypatch)
    lp = LinearProgram(
        [-0.75, 20.0, -0.5, 6.0],
        [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
        ("<=", "<=", "<="),
        [0.0, 0.0, 1.0],
    )
    sol, dual = solve_lp(lp)
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


def dense_pivot(self, row, col, obj):
    """Reference pivot: the full m x (n+1) rank-one update."""
    self.body[row] /= self.body[row, col]
    factors = self.body[:, col].copy()
    factors[row] = 0.0
    self.body -= np.outer(factors, self.body[row])
    obj -= obj[col] * self.body[row]
    self.basis[row] = col


def solution_bytes(lp):
    sol, dual = solve_lp(lp)
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
    monkeypatch.setattr(twostage.lp._Tableau, "pivot", dense_pivot)
    dense = [solution_bytes(lp) for lp in corpus]
    assert all(s[0] == "optimal" for s in sparse)
    assert sparse == dense
