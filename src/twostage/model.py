"""Core model for two-stage optimization with reservation and recourse.

A solution reserves a ground set up front at a sigma fraction of cost,
exercises a subset of it once the scenario is known at the remaining
(1 - sigma) fraction, and buys anything else it still needs at an
inflated lambda multiple.  The objective is

    sigma * w(F0) + (1 - sigma) * E[w(F1)] + lambda * E[w(F2)]

with F1 a subset of F0 and F1 | F2 feasible for the realized scenario.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "CostPolicy",
    "ScenarioSet",
    "StageDecision",
    "TwoStageSolution",
    "stage_price",
    "evaluate_objective",
    "check_feasible",
]

PROB_TOL = 1e-9


class StructureError(ValueError):
    """A solution or scenario set is structurally malformed."""


@dataclass(frozen=True)
class CostPolicy:
    """Stage prices: reservation fraction sigma, inflation lambda, ground weights.

    ``ground_weight`` maps item id -> nonnegative ground cost.  Problem
    variants with per-item stage costs (facility location) carry those on
    their instance type instead and only use sigma from here.
    """

    sigma: float
    lam: float
    ground_weight: Mapping[int, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must be in (0, 1), got {self.sigma}")
        if not 1.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be finite and exceed 1, got {self.lam}")
        bad = {i: w for i, w in self.ground_weight.items() if w < 0 or not math.isfinite(w)}
        if bad:
            raise ValueError(f"ground weights must be finite and nonnegative: {bad}")
        object.__setattr__(self, "ground_weight", MappingProxyType(dict(self.ground_weight)))

    def weight(self, items: Iterable[int]) -> float:
        try:
            return math.fsum(self.ground_weight[i] for i in items)
        except KeyError as exc:
            raise StructureError(f"item {exc.args[0]} has no ground weight") from exc


@dataclass(frozen=True)
class ScenarioSet:
    """Scenario model: an explicit distribution or a seeded black-box sampler.

    Explicit mode stores ``(probability, clients)`` pairs with dense ids
    0..m-1 and probabilities summing to 1 within 1e-9.  Black-box mode
    exposes only ``sample``; the SAA driver never peeks past it.
    """

    scenarios: tuple[tuple[float, frozenset[int]], ...] = ()
    sampler: Callable[[np.random.Generator], frozenset[int]] | None = None

    def __post_init__(self) -> None:
        if self.sampler is not None:
            if self.scenarios:
                raise ValueError("a ScenarioSet is either explicit or black-box, not both")
            return
        total = math.fsum(p for p, _ in self.scenarios)
        if self.scenarios and not abs(total - 1.0) <= PROB_TOL:
            raise StructureError(f"probabilities sum to {total!r}, expected 1")
        for p, clients in self.scenarios:
            if p < 0:
                raise StructureError(f"negative scenario probability {p}")
            if not isinstance(clients, frozenset):
                raise StructureError("scenario clients must be a frozenset")

    @classmethod
    def explicit(cls, pairs: Iterable[tuple[float, Iterable[int]]]) -> "ScenarioSet":
        out = []
        for p, clients in pairs:
            clients = list(clients)
            if len(clients) != len(set(clients)):
                raise StructureError(f"duplicate client in scenario {len(out)}")
            out.append((float(p), frozenset(int(c) for c in clients)))
        return cls(scenarios=tuple(out))

    @classmethod
    def black_box(cls, sampler: Callable[[np.random.Generator], frozenset[int]]) -> "ScenarioSet":
        return cls(scenarios=(), sampler=sampler)

    @classmethod
    def black_box_of(cls, explicit: "ScenarioSet") -> "ScenarioSet":
        """Wrap an explicit set behind a sampler (ground truth for tests/SAA)."""
        if explicit.is_black_box:
            raise ValueError("already a black box")
        return cls.black_box(explicit.sample)

    @functools.cached_property
    def _cdf(self) -> list[float]:
        """Normalised CDF of the probabilities, built as ``Generator.choice`` builds it."""
        cdf = np.array([p for p, _ in self.scenarios]).cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

    @property
    def is_black_box(self) -> bool:
        return self.sampler is not None

    def __len__(self) -> int:
        return len(self.scenarios)

    def sample(self, rng: np.random.Generator) -> frozenset[int]:
        if self.sampler is not None:
            return self.sampler(rng)
        return self.scenarios[self.sample_index(rng)][1]

    def sample_index(self, rng: np.random.Generator) -> int:
        """Index of one draw from an explicit set, by the uniform ``sample`` uses."""
        if not self.scenarios:
            raise ValueError("an empty scenario set has nothing to sample")
        # the draw of rng.choice(len(self), p=probs): one uniform, inverted
        # (bisect_right is searchsorted's side="right", without numpy's
        # per-call overhead on a scalar)
        return bisect.bisect_right(self._cdf, rng.random())


@dataclass(frozen=True)
class StageDecision:
    exercised: frozenset[int]
    recoursed: frozenset[int]

    @property
    def bought(self) -> frozenset[int]:
        return self.exercised | self.recoursed


@dataclass(frozen=True)
class TwoStageSolution:
    """Reserved items plus one (exercised, recoursed) decision per scenario.

    Structural invariants (exercised within reserved, the two stage-two sets
    disjoint) are reported by ``check_feasible`` rather than enforced here,
    so malformed candidates can be constructed and diagnosed in tests.
    """

    reserved: frozenset[int]
    stages: tuple[StageDecision, ...]

    @classmethod
    def of(
        cls,
        reserved: Iterable[int],
        stages: Iterable[tuple[Iterable[int], Iterable[int]]],
    ) -> "TwoStageSolution":
        return cls(
            reserved=frozenset(reserved),
            stages=tuple(StageDecision(frozenset(f1), frozenset(f2)) for f1, f2 in stages),
        )


@dataclass(frozen=True)
class ObjectiveBreakdown:
    first_stage: float
    expected_exercise: float
    expected_recourse: float

    @property
    def total(self) -> float:
        return self.first_stage + self.expected_exercise + self.expected_recourse


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...] = ()


def stage_price(policy: CostPolicy, probs, first: float, exercise, recourse) -> ObjectiveBreakdown:
    """The objective of the module docstring from masses: ``first`` is w(F0),
    and ``exercise[k]`` and ``recourse[k]`` are w(F1) and w(F2) in the scenario
    of probability ``probs[k]``; a fractional plan passes fractional masses."""
    return ObjectiveBreakdown(
        policy.sigma * first,
        (1.0 - policy.sigma) * math.fsum(p * m for p, m in zip(probs, exercise)),
        policy.lam * math.fsum(p * m for p, m in zip(probs, recourse)),
    )


def evaluate_objective(
    sol: TwoStageSolution, policy: CostPolicy, scen: ScenarioSet
) -> ObjectiveBreakdown:
    """Exact expected cost of a solution over an explicit scenario set."""
    if scen.is_black_box:
        raise StructureError("evaluate_objective needs an explicit scenario set")
    if len(sol.stages) != len(scen):
        raise StructureError(
            f"solution has {len(sol.stages)} stage entries for {len(scen)} scenarios"
        )
    weight = policy.weight
    return stage_price(
        policy, [p for p, _ in scen.scenarios], weight(sol.reserved),
        [weight(st.exercised) for st in sol.stages], [weight(st.recoursed) for st in sol.stages],
    )


def check_feasible(
    sol: TwoStageSolution,
    scen: ScenarioSet,
    covers: Callable[[frozenset[int], frozenset[int]], bool],
) -> FeasibilityReport:
    """Structural invariants plus the per-scenario coverage predicate.

    ``covers(clients, bought)`` decides whether the bought items satisfy the
    realized demand.  The report holds one line per violation and is feasible
    when there are none.
    """
    problems: list[str] = []
    if len(sol.stages) != len(scen):
        problems.append(
            f"stage entries ({len(sol.stages)}) do not match scenario count ({len(scen)})"
        )
    for k, stage in enumerate(sol.stages):
        if not stage.exercised <= sol.reserved:
            problems.append(f"scenario {k}: exercised items outside the reserved set")
        if stage.exercised & stage.recoursed:
            problems.append(f"scenario {k}: item both exercised and recoursed")
    for k, ((_, clients), stage) in enumerate(zip(scen.scenarios, sol.stages)):
        if not covers(clients, stage.bought):
            problems.append(f"scenario {k}: demand not covered")
    return FeasibilityReport(not problems, tuple(problems))

