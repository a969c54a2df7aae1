"""Stochastic-relaxation builders: shapes, frozen optima, and invariants."""
import hashlib

import numpy as np
import pytest

from twostage.cover import _recourse_cover_lp
from twostage.instances import InstanceError, SetCoverInstance, UflInstance
from twostage.lp import solve_lp
from twostage.lp_builders import (
    FractionalCoverSolution,
    FractionalUflSolution,
    build_cover_lp,
    build_deterministic_ufl_lp,
    build_relaxation,
    build_steiner_flow_lp,
    build_ufl_lp,
    lp_lower_bound,
    solve_cover_lp,
    solve_ufl_lp,
)
from twostage.model import CostPolicy, ScenarioSet
from twostage.generators import GENERATOR_KINDS, generate_instance
from twostage.oracle import brute_force_optimal


def two_set_instance():
    # two sets both covering the single element of the single scenario
    return SetCoverInstance(
        n_elements=1,
        sets=(frozenset({0}), frozenset({0})),
        weights=(1.0, 1.0),
        policy=CostPolicy(0.5, 2.0, {0: 1.0, 1: 1.0}),
        scenarios=ScenarioSet.explicit([(1.0, [0])]),
    )


def test_cover_lp_shape():
    lp = build_cover_lp(two_set_instance())
    assert lp.n_vars == 6  # x per set, then y/z per set per scenario
    cover = [n for n in lp.row_names if n.startswith("cover")]
    link = [n for n in lp.row_names if n.startswith("link")]
    assert len(cover) == 1 and len(link) == 2


def test_cover_lp_no_scenarios():
    inst = SetCoverInstance(
        n_elements=1,
        sets=(frozenset({0}),),
        weights=(2.0,),
        policy=CostPolicy(0.5, 2.0, {0: 2.0}),
        scenarios=ScenarioSet.explicit([]),
    )
    lp = build_cover_lp(inst)
    assert lp.n_vars == 1 and lp.n_rows == 0
    sol, _ = solve_lp(lp)
    assert sol.objective_value == pytest.approx(0.0)


def test_cover_lp_frozen_optimum():
    # reserve one set (0.5) and exercise it (0.5): optimum 1.0
    sol = solve_cover_lp(two_set_instance())
    assert sol.value == pytest.approx(1.0)


def test_uncoverable_element_rejected_before_solving():
    cases = [
        ([(1.0, [1])], "element 1 of scenario 0 is uncoverable"),
        # elements 1-3 are uncoverable in two scenarios: scenario order first
        ([(0.5, [0, 3]), (0.5, [2, 1])], "element 3 of scenario 0 is uncoverable"),
        ([(0.5, [0]), (0.5, [3, 2, 0])], "element 2 of scenario 1 is uncoverable"),
    ]
    for scenarios, message in cases:
        inst = SetCoverInstance(
            n_elements=4,
            sets=(frozenset({0}),),
            weights=(1.0,),
            policy=CostPolicy(0.5, 2.0, {0: 1.0}),
            scenarios=ScenarioSet.explicit(scenarios),
        )
        for build in (build_cover_lp, _recourse_cover_lp):
            with pytest.raises(InstanceError, match=f"^{message}$"):
                build(inst)


def test_cover_solution_validates_linkage():
    inst = two_set_instance()
    with pytest.raises(InstanceError):
        FractionalCoverSolution(
            inst,
            x=np.array([0.0, 0.0]),
            y=np.array([[1.0, 0.0]]),  # exercised without reservation
            z=np.array([[0.0, 0.0]]),
            value=0.0,
        )
    with pytest.raises(InstanceError):
        FractionalCoverSolution(
            inst,
            x=np.array([1.0, 1.0]),
            y=np.array([[0.1, 0.1]]),  # undercovered element
            z=np.array([[0.0, 0.0]]),
            value=0.0,
        )


def tiny_ufl(f0=1.0, fk=10.0, c=0.0):
    return UflInstance(
        open_cost=(f0,),
        scenario_open_cost=((fk,),),
        distance=((c,),),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(1.0, [0])]),
    )


def test_ufl_lp_shape():
    lp = build_ufl_lp(tiny_ufl())
    assert lp.n_vars == 4  # y0, yk, zk, and one service column
    assert lp.n_rows == 3  # serve, reserve link, service link


def test_ufl_lp_frozen_optimum():
    # free connection, dear recourse: reserve + exercise = 0.5 + 0.5
    sol = solve_ufl_lp(tiny_ufl())
    assert sol.value == pytest.approx(1.0)
    assert sol.y0[0] == pytest.approx(1.0)
    assert sol.yk[0, 0] == pytest.approx(1.0)


def test_ufl_lp_no_demand():
    inst = UflInstance(
        open_cost=(1.0,),
        scenario_open_cost=((2.0,),),
        distance=((0.0,),),
        sigma=0.5,
        scenarios=ScenarioSet.explicit([(1.0, [])]),
    )
    sol = solve_ufl_lp(inst)
    assert sol.value == pytest.approx(0.0)
    assert np.all(sol.y0 == 0.0)


def test_ufl_instance_rejects_cheap_scenario_price():
    with pytest.raises(InstanceError):
        UflInstance(
            open_cost=(2.0,),
            scenario_open_cost=((1.0,),),  # below ground price
            distance=((0.0,),),
            sigma=0.5,
            scenarios=ScenarioSet.explicit([(1.0, [0])]),
        )


def test_ufl_instance_rejects_triangle_breach():
    # client 0 next to both facilities, client 1 next to facility 1 only;
    # d(0, client 1) must then be <= 1+1+1, but we claim 9.
    with pytest.raises(InstanceError):
        UflInstance(
            open_cost=(1.0, 1.0),
            scenario_open_cost=((1.0, 1.0),),
            distance=((1.0, 9.0), (1.0, 1.0)),
            sigma=0.5,
            scenarios=ScenarioSet.explicit([(1.0, [0, 1])]),
        )


def test_ufl_solution_invariants():
    inst = tiny_ufl()
    good = dict(
        y0=np.array([1.0]),
        yk=np.array([[1.0]]),
        zk=np.array([[0.0]]),
        x=np.array([[[1.0]]]),
    )
    FractionalUflSolution(inst, value=1.0, **good)
    for field, bad in [
        ("yk", np.array([[2.0]])),   # exceeds reserved mass
        ("x", np.array([[[0.1]]])),  # client underserved
    ]:
        kw = dict(good, **{field: bad})
        with pytest.raises(InstanceError):
            FractionalUflSolution(inst, value=1.0, **kw)
    with pytest.raises(InstanceError):
        FractionalUflSolution(
            inst,
            y0=np.array([0.2]),
            yk=np.array([[0.2]]),
            zk=np.array([[0.0]]),
            x=np.array([[[1.0]]]),  # served past the opened mass
            value=1.0,
        )


def test_deterministic_ufl_lp_duals_cover_the_objective():
    rng = np.random.default_rng(4)
    fac = rng.random((3, 2))
    cli = rng.random((4, 2))
    d = np.sqrt(((fac[:, None] - cli[None, :]) ** 2).sum(axis=2))
    f = rng.uniform(0.5, 2.0, size=3)
    clients = tuple(range(4))
    lp = build_deterministic_ufl_lp(f, d, clients)
    sol, dual = solve_lp(lp)
    assert sol.status == "optimal"
    # serve rows come first; their duals are the per-client budgets alpha_j
    # and sum to the optimum by strong duality (no other rhs is nonzero).
    assert dual.values[: len(clients)].sum() == pytest.approx(
        sol.objective_value, rel=1e-6
    )


def test_lp_lower_bound_under_oracle_all_kinds():
    kinds = {
        "set_cover": dict(n_elements=5, n_sets=6, scenarios=3),
        "vertex_cover": dict(n_vertices=6, n_edges=8, scenarios=3),
        "ufl": dict(n_facilities=3, n_clients=4, scenarios=3),
        "steiner": dict(n_vertices=6, n_edges=9, scenarios=2),
    }
    for kind, params in kinds.items():
        for seed in range(3):
            inst = generate_instance(kind, seed=seed, **params)
            lp_opt = lp_lower_bound(inst)
            opt = brute_force_optimal(inst).optimal_cost
            assert lp_opt <= opt + 1e-7, (kind, seed)


def test_steiner_flow_lp_is_positive_when_demand_exists():
    inst = generate_instance("steiner", seed=2, n_vertices=6, n_edges=9, scenarios=2)
    lp = build_steiner_flow_lp(inst)
    sol, _ = solve_lp(lp)
    assert sol.status == "optimal"
    any_demand = any(c for _, c in inst.scenarios.scenarios)
    if any_demand:
        assert sol.objective_value > 0.0


# SHA-256 of every builder's output on golden_builder_corpus(). A change to
# it is an output change: declare it in CHANGES.md and paste the new value.
GOLDEN_BUILDER_DIGEST = "364c8f512aad9e083aeb0f0b025f4d01681c5c92096f11c71e87cfe73932e720"


def golden_builder_corpus():
    """Every relaxation builder on all four generator kinds, at the default
    policy and at one where lam * w and (1 - sigma) * w round differently."""
    settings = [{}, {"lam": 2.7, "sigma": 0.35}, {"scenarios": 5, "client_prob": 0.8},
                {"scenarios": 2, "client_prob": 0.0}]
    for kind in GENERATOR_KINDS:
        for seed in range(6):
            for params in settings:
                inst = generate_instance(kind, seed=seed, **params)
                yield build_relaxation(inst)
                if kind in ("set_cover", "vertex_cover"):
                    yield _recourse_cover_lp(inst)
                elif kind == "ufl":
                    yield build_deterministic_ufl_lp(
                        inst.open_cost, inst.dist, tuple(range(inst.n_clients))
                    )
                    for _, clients in inst.scenarios.scenarios:
                        yield build_deterministic_ufl_lp(
                            inst.open_cost, inst.dist, tuple(sorted(clients))
                        )


def lp_digest(lps) -> str:
    h = hashlib.sha256()
    for lp in lps:
        h.update(repr(lp.rows.shape).encode())
        for arr in (lp.objective, lp.rows, lp.rhs):
            h.update(arr.tobytes())
        for strings in (lp.senses, lp.names, lp.row_names):
            h.update("\x1f".join(strings).encode() + b"\x1e")
    return h.hexdigest()


def test_builders_match_the_golden_digest():
    digest = lp_digest(golden_builder_corpus())
    assert digest == GOLDEN_BUILDER_DIGEST, f'GOLDEN_BUILDER_DIGEST = "{digest}"'
