"""Simplex engine checked against hand vertices and scipy's solver.

The scipy comparison is the independent route: both solvers see the same
programs (random feasible bounded ones, and hypothesis-drawn degenerate,
redundant, infeasible and unbounded ones, with and without negative costs)
and must agree on the status and the optimum.  Sequential HiGHS solves give
the lexicographically least optimal x, which must be the x returned.  A
golden digest pins the solver's output bytes on a fixed corpus, and they
must not move with the BLAS thread count.  The full rank-one update of
every tableau entry is kept as a reference pivot, and the output must be
byte-equal to it.
"""
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import twostage.lp
from twostage.generators import generate_instance
from twostage.lp import DUALITY_TOL, FEAS_TOL, LinearProgram, solve_lp
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
    assert sol.status == "unbounded" == highs(lp)[0]


def test_a_row_free_lp_with_nonnegative_costs_sits_at_its_lower_bounds():
    lp = LinearProgram([1.0, 0.0, 2.0], np.zeros((0, 3)), (), [], lower_bounds=[0.5, -1.0, 0.0])
    sol, dual = solve_lp(lp)
    assert sol.status == "optimal" == highs(lp)[0]
    assert list(sol.values) == [0.5, -1.0, 0.0]
    assert sol.objective_value == dual.objective_value == 0.5
    assert dual.values.size == 0


def test_an_infeasible_primal_with_an_infeasible_dual_is_infeasible():
    # min -x1 - x2 s.t. x1 - x2 >= 1 and -x1 + x2 >= 1: the rows add up to
    # 0 >= 2, and the dual asks for y1 - y2 <= -1 and y2 - y1 <= -1.
    lp = LinearProgram([-1.0, -1.0], [[1.0, -1.0], [-1.0, 1.0]], (">=", ">="), [1.0, 1.0])
    sol, dual = solve_lp(lp)
    assert (sol.status, sol.values, dual) == ("infeasible", None, None)
    assert highs(lp)[0] == "infeasible"


@pytest.mark.parametrize("senses, rhs, status", [
    ((), [], "optimal"),
    ((">=",), [1.0], "infeasible"),
    ((">=",), [0.0], "optimal"),
    ((">=", "<="), [0.0, 1.0], "optimal"),
])
def test_an_lp_with_no_variable_is_feasible_exactly_when_zero_meets_its_rows(senses, rhs, status):
    # scipy's linprog refuses an empty objective, so there is no HiGHS check
    lp = LinearProgram([], np.zeros((len(rhs), 0)), senses, rhs)
    assert lp.rows.shape == (len(rhs), 0)
    sol, _ = solve_lp(lp)
    assert sol.status == status
    if status == "optimal":
        assert (sol.values.size, sol.objective_value) == (0, 0.0)


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


def _cap_hit_on_call(n):
    """Patch ``_run_simplex`` to report the iteration cap on its n-th call."""
    def patch(m):
        real, calls = twostage.lp._run_simplex, []

        def run(*args):
            calls.append(n)
            return "failed" if len(calls) == n else real(*args)

        m.setattr(twostage.lp, "_run_simplex", run)
    return patch


def _residual_out_of_tolerance(m):
    # FEAS_TOL turns negative once phase 2 is done, so phase 1's own
    # feasibility test passes and the residual check is the first to trip
    real, calls = twostage.lp._run_simplex, []

    def run(*args):
        calls.append(1)
        status = real(*args)
        if len(calls) == 2:
            m.setattr(twostage.lp, "FEAS_TOL", -1.0)
        return status

    m.setattr(twostage.lp, "_run_simplex", run)


@pytest.mark.parametrize(
    "trip",
    [
        pytest.param(_cap_hit_on_call(1), id="phase-1-cap"),
        pytest.param(_cap_hit_on_call(2), id="phase-2-cap"),
        pytest.param(_residual_out_of_tolerance, id="residual"),
        pytest.param(lambda m: m.setattr(twostage.lp, "DUALITY_TOL", -1.0), id="duality"),
    ],
)
def test_a_tripped_certificate_returns_failed_and_no_answer(monkeypatch, trip):
    # min 2x + 3y - z s.t. x + y - z >= 1: the cost of z makes the dual's
    # slack basis infeasible, so phase 1 runs before phase 2
    lp = LinearProgram([2.0, 3.0, -1.0], [[1.0, 1.0, -1.0]], (">=",), [1.0])
    assert solve_lp(lp)[0].status == "optimal"
    trip(monkeypatch)
    sol, dual = solve_lp(lp)
    assert (sol.status, sol.values, dual) == ("failed", None, None)
    assert np.isnan(sol.objective_value)


@pytest.mark.parametrize(
    "trip",
    [
        pytest.param(_cap_hit_on_call(1), id="cap"),
        pytest.param(lambda m: m.setattr(twostage.lp, "FEAS_TOL", -1.0), id="residual"),
        pytest.param(lambda m: m.setattr(twostage.lp, "DUALITY_TOL", -1.0), id="duality"),
    ],
)
def test_a_tripped_certificate_on_the_dual_route_returns_failed(monkeypatch, trip):
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], (">=",), [1.0])
    assert solve_lp(lp)[0].status == "optimal"
    trip(monkeypatch)
    sol, dual = solve_lp(lp)
    assert (sol.status, sol.values, dual) == ("failed", None, None)
    assert np.isnan(sol.objective_value)


def spy_simplex(monkeypatch):
    """Log the status of every ``_run_simplex`` call."""
    real, statuses = twostage.lp._run_simplex, []

    def run(*args):
        statuses.append(real(*args))
        return statuses[-1]

    monkeypatch.setattr(twostage.lp, "_run_simplex", run)
    return statuses


def test_nonnegative_costs_take_the_dual_route_in_one_run(monkeypatch):
    # One simplex run from the slack basis.
    statuses = spy_simplex(monkeypatch)
    lp = LinearProgram(
        [1.0, 2.0, 0.5], [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
        (">=", "==", "<="), [1.0, 1.0, 3.0], lower_bounds=np.array([0.0, 0.5, 0.0]),
    )
    sol, dual = solve_lp(lp)
    assert statuses == ["optimal"]
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([0.5, 0.5, 0.5])
    assert sol.objective_value == pytest.approx(1.75)
    assert dual.values == pytest.approx([1.0, 0.5, 0.0])
    assert dual.objective_value == pytest.approx(1.75)


def test_an_unbounded_dual_means_an_infeasible_primal(monkeypatch):
    statuses = spy_simplex(monkeypatch)
    sol, dual = solve_lp(LinearProgram([1.0], [[1.0]], ("<=",), [-1.0]))
    assert statuses == ["unbounded"]
    assert (sol.status, sol.values, dual) == ("infeasible", None, None)
    assert np.isnan(sol.objective_value)


@pytest.mark.parametrize(
    "lp",
    [
        pytest.param(LinearProgram([1.0, 2.0, -1.0], [[2.0, -2.0, 1.0]], ("<=",), [6.0]), id="one-row"),
        pytest.param(
            LinearProgram([1.0, -1.0], [[2.0, -2.0], [1.0, -1.0]], ("==", "=="), [0.0, 0.0]),
            id="redundant-rows",
        ),
    ],
)
def test_an_artificial_left_basic_at_zero_is_pivoted_out(monkeypatch, lp):
    # Phase 1 ends on a ratio tie with the artificial's row among the tied
    # rows; the lexicographic test must pivot it out inside phase 1.
    log = record_phases(monkeypatch)
    sol, dual = solve_lp(lp)
    status, objective = highs(lp)
    assert sol.status == status == "optimal"
    assert sol.objective_value == pytest.approx(objective, abs=1e-9)
    assert np.all(lp.objective - lp.rows.T @ dual.values >= -1e-9)
    assert dual.objective_value == pytest.approx(objective, abs=1e-9)
    # The artificial enters before phase 1 (run 1), leaves its row inside
    # it, and never enters again.
    (run, row, artificial), *rest = log
    assert run is None
    assert [r for r, at, _ in rest if at == row][0] == 1
    assert all(col != artificial for _, _, col in rest)


@pytest.mark.parametrize(
    "objective, x",
    [([-1.0, -1.0, 2.0], [0.0, 1.0, 0.0]), ([-1.0, -1.0, -1.0], [0.0, 0.0, 1.0])],
    ids=["two-tied", "three-tied"],
)
def test_tied_least_costs_give_the_lexicographically_least_x(objective, x):
    # The artificial enters on the last least cost, so every start row is
    # lexicographically positive and x is the least optimum, not [1, 0, 0].
    sol, _ = solve_lp(LinearProgram(objective, [[1.0, 1.0, 1.0]], ("<=",), [1.0]))
    assert sol.status == "optimal"
    assert list(sol.values) == x
    assert sol.objective_value == -1.0


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


def test_agrees_with_scipy_on_random_programs():
    rng = np.random.default_rng(2026)
    for _ in range(40):
        lp = random_feasible_lp(rng, max_vars=12, max_rows=16)
        sol, dual = solve_lp(lp)
        status, ref = highs(lp)
        assert sol.status == status == "optimal"
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


def highs_form(lp):
    """linprog's arguments for the program: rows as A_ub x <= b_ub and
    A_eq x == b_eq, and the lower bounds."""
    le = np.array([s == "<=" for s in lp.senses], dtype=bool)
    ge = np.array([s == ">=" for s in lp.senses], dtype=bool)
    eq = ~(le | ge)
    return dict(
        A_ub=np.vstack([lp.rows[le], -lp.rows[ge]]),
        b_ub=np.concatenate([lp.rhs[le], -lp.rhs[ge]]),
        A_eq=lp.rows[eq] if eq.any() else None,
        b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=[[lo, None] for lo in lp.lower_bounds],
    )


def highs(lp):
    """scipy's HiGHS on the same program: (status, objective)."""
    res = linprog(lp.objective, **highs_form(lp), method="highs")
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, res.message), res.fun


def lexmin_reference(lp):
    """The lexicographically least optimal x by sequential HiGHS solves:
    min c.x, then with c.x held at its optimum each coordinate in turn is
    minimised and fixed at its value snapped to a denominator of at most 64.
    A coordinate the last solve left at its lower bound needs no solve."""
    form = highs_form(lp)

    def solve(cost):
        res = linprog(cost, **form, method="highs")
        assert res.status == 0, res.message
        return res

    res = solve(lp.objective)
    form["A_ub"] = np.vstack([form["A_ub"], lp.objective])
    form["b_ub"] = np.append(form["b_ub"], res.fun + 1e-9 * (1.0 + abs(res.fun)))
    x = res.x
    for j in range(lp.n_vars):
        if x[j] > lp.lower_bounds[j] + 1e-9:
            x = solve(np.eye(lp.n_vars)[j]).x
        form["bounds"][j] = [float(Fraction(x[j]).limit_denominator(64))] * 2
    return np.array([lo for lo, _ in form["bounds"]])


def lexmin_corpus():
    from test_oracle import odd_cycle_ufl

    from twostage.cover import _recourse_cover_lp

    yield "zero-cost", LinearProgram([0.0, 0.0], [[1.0, 1.0]], (">=",), [1.0])
    yield "beale-dual", beale_dual_lp()
    yield "odd-cycle-ufl", build_relaxation(odd_cycle_ufl(0.5, 2.0, 5))
    for kind in ("set_cover", "vertex_cover", "ufl", "steiner"):
        yield kind, build_relaxation(generate_instance(kind, seed=1))
    yield "set-cover-recourse", _recourse_cover_lp(generate_instance("set_cover", seed=11))


def test_x_is_the_lexicographically_least_optimum():
    # The zero-cost LP (least x [0, 1]) and the odd-cycle UFL relaxation
    # have several optimal vertices.
    for name, lp in lexmin_corpus():
        sol, _ = solve_lp(lp)
        ref = lexmin_reference(lp)
        assert sol.status == "optimal", name
        assert np.abs(sol.values - ref).max() <= 1e-9, (name, sol.values, ref)


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


@st.composite
def nonnegative_cost_programs(draw):
    """Small integer programs with costs >= 0 and lower bounds in {-1, 0, 1},
    which the dual route solves, of three shapes: mixed senses, feasible by
    a planted point; redundant equalities (a scaled and a summed copy); and
    infeasible (a row asked to be both <= t and >= t + 1)."""
    shape = draw(st.sampled_from(["mixed", "redundant", "infeasible"]))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))

    def ints(lo, hi, size):
        values = st.lists(st.integers(lo, hi), min_size=size, max_size=size)
        return np.array(draw(values), dtype=float)

    rows = ints(-3, 3, m * n).reshape(m, n)
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    lb = ints(-1, 1, n)
    slack = ints(0, 2, m) * [{"<=": 1.0, ">=": -1.0, "==": 0.0}[s] for s in senses]
    rhs = rows @ (lb + ints(0, 2, n)) + slack
    if shape == "redundant":
        senses[0] = senses[-1] = "=="
        rhs[0] -= slack[0]
        rhs[-1] -= slack[-1]
        rows = np.vstack([rows, 2.0 * rows[0], rows[0] + rows[-1]])
        rhs = np.append(rhs, [2.0 * rhs[0], rhs[0] + rhs[-1]])
        senses += ["==", "=="]
    elif shape == "infeasible":
        t = float(draw(st.integers(-2, 2)))
        rows = np.vstack([rows, rows[0], rows[0]])
        rhs = np.append(rhs, [t, t + 1.0])
        senses += ["<=", ">="]
    return LinearProgram(ints(0, 3, n), rows, tuple(senses), rhs, lower_bounds=lb)


@settings(max_examples=300, deadline=None)
@given(lp=nonnegative_cost_programs())
def test_dual_route_agrees_with_highs_and_certifies_its_answer(lp):
    sol, dual = solve_lp(lp)
    status, objective = highs(lp)
    assert sol.status == status
    if status != "optimal":
        return
    value = sol.objective_value
    assert abs(value - objective) <= 1e-6 * (1.0 + abs(objective))
    x, y = sol.values, dual.values
    assert np.all(x - lp.lower_bounds >= 0.0)
    senses = np.array(lp.senses)
    assert np.all(y[senses == ">="] >= -FEAS_TOL)
    assert np.all(y[senses == "<="] <= FEAS_TOL)
    assert np.all(lp.objective - lp.rows.T @ y >= -1e-6 * (1.0 + lp.objective))
    dual_value = y @ (lp.rhs - lp.rows @ lp.lower_bounds) + lp.objective @ lp.lower_bounds
    for v in (dual_value, dual.objective_value):
        assert abs(v - value) <= 1e-6 * max(1.0, abs(v), abs(value))


def test_odd_cycle_relaxations_come_back_on_the_half_grid_exactly():
    # srini-vc's per-run bound, cost <= 2 x LP, has a relative slack of only
    # 1e-12, so the dual route's x must sit on the grid it rounds at.
    from test_oracle import odd_cycle_vc

    rng = np.random.default_rng(29)
    for n, k in ((9, 3), (15, 4), (21, 5)) * 20:
        sol, _ = solve_lp(build_relaxation(odd_cycle_vc(rng, n, k)))
        assert sol.status == "optimal"
        assert np.all(2.0 * sol.values == np.round(2.0 * sol.values)), sol.values


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


def test_a_name_list_of_the_wrong_length_is_refused_by_name():
    # solve-lp zips row_names with the duals, so a short list would drop one.
    with pytest.raises(ValueError, match="one name per row"):
        LinearProgram([1, 2], [[1, 1], [1, 0]], (">=", ">="), [1, 0.5], row_names=("only",))
    with pytest.raises(ValueError, match="one name per variable"):
        LinearProgram([1, 2], [[1, 1]], (">=",), [1], names=("x", "y", "z"))


def record_phases(monkeypatch):
    """Log (run, row, col) of every ``_pivot(T, row, col)``, where run
    numbers the ``_run_simplex`` call it is made in from 1, or is None
    outside one."""
    log, calls, current = [], [0], [None]
    real_run, real_pivot = twostage.lp._run_simplex, twostage.lp._pivot

    def run(*args):
        calls[0] += 1
        current[0] = calls[0]
        try:
            return real_run(*args)
        finally:
            current[0] = None

    def pivot(T, row, col):
        log.append((current[0], row, col))
        real_pivot(T, row, col)

    monkeypatch.setattr(twostage.lp, "_run_simplex", run)
    monkeypatch.setattr(twostage.lp, "_pivot", pivot)
    return log


BEALE_ROWS = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]


def beale_lp():
    """Beale's (1955) cycling LP; its negative costs send it through phase 1."""
    return LinearProgram([-0.75, 20.0, -0.5, 6.0], BEALE_ROWS, ("<=",) * 3, [0.0, 0.0, 1.0])


def beale_dual_lp():
    """The LP whose dual tableau is Beale's: min x3 s.t. B^T x >= -c."""
    return LinearProgram([0.0, 0.0, 1.0], np.transpose(BEALE_ROWS), (">=",) * 4,
                         [0.75, -20.0, 0.5, -6.0])


def test_lexicographic_ratio_test_solves_beales_lp_without_a_cycle(monkeypatch):
    # The dual tableau is Beale's.  Dantzig's rule with ties broken by the
    # smallest basis id cycles on it with period 6; broken lexicographically,
    # the first tie leaves on the other row and the optimum takes 2 pivots.
    lp = beale_dual_lp()
    log = record_phases(monkeypatch)
    sol, dual = solve_lp(lp)
    status, objective = highs(lp)
    assert sol.status == status == "optimal"
    assert sol.objective_value == pytest.approx(objective) == 1.25
    assert list(sol.values) == [0.0, 1.5, 1.25]
    # The duals are Beale's optimum.
    assert dual.values == pytest.approx([1.0, 0.0, 1.0, 0.0])
    assert dual.objective_value == pytest.approx(1.25)
    assert [run for run, _, _ in log] == [1, 1]


def test_redundant_equality_rows_are_dropped_with_zero_dual():
    # Rows 1 and 2 repeat row 0, so no dual is unique; z costs -1, so phase 1
    # runs, and its cap row z <= 1 is row 3.  The answer and the dual's
    # certificate are checked, not which dual vertex comes out.
    lp = LinearProgram(
        [1.0, 3.0, -1.0],
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
        ("==", "==", "==", "<="),
        [2.0, 2.0, 4.0, 1.0],
    )
    sol, dual = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.values == pytest.approx([2.0, 0.0, 1.0])
    assert sol.objective_value == pytest.approx(1.0)
    y = dual.values
    assert y[3] == pytest.approx(-1.0)
    # Dual feasible, tight on the columns x and z that are nonzero.
    reduced = lp.objective - lp.rows.T @ y
    assert reduced == pytest.approx([0.0, 2.0, 0.0])
    assert y @ lp.rhs == pytest.approx(1.0)
    assert dual.objective_value == pytest.approx(1.0)


def dense_pivot(T, row, col):
    """Reference pivot: the full rank-one update of every entry of T."""
    pr = T[:, row] / T[col, row]
    T -= np.outer(pr, T[col])
    T[:, row] = pr


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
    monkeypatch.setattr(twostage.lp, "_pivot", dense_pivot)
    dense = [solution_bytes(lp) for lp in corpus]
    assert all(s[0] == "optimal" for s in sparse)
    assert sparse == dense


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
# output change: declare it in CHANGES.md and paste the new value.
GOLDEN_SOLVE_DIGEST = "e07134a0aeb7b8e4c081fdfa67263a5cd69a6f07112e61203723dd3d0215adfd"


def golden_solve_corpus():
    from test_lp_builders import golden_builder_corpus
    from test_oracle import odd_cycle_vc

    yield from golden_builder_corpus()
    yield from lean_tableau_corpus()
    yield beale_lp()
    # Beale's tableau, on which Dantzig's rule cycles when ties go to the
    # smallest basis id.
    yield beale_dual_lp()
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
    digest = solve_digest(golden_solve_corpus())
    assert digest == GOLDEN_SOLVE_DIGEST, f'GOLDEN_SOLVE_DIGEST = "{digest}"'


def child_digest(threads):
    """``solve_digest`` of the golden corpus, in a child process at
    ``threads`` BLAS threads."""
    src = str(Path(twostage.lp.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_dual_route_bytes_do_not_depend_on_the_blas_thread_count():
    assert child_digest(1) == child_digest(2)


if __name__ == "__main__":
    print(solve_digest(golden_solve_corpus()))
