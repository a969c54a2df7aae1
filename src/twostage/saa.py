"""Sample-average reduction from black-box scenario models.

A black-box distribution is replaced by the empirical distribution of n
draws; solving the empirical instance repeatedly and keeping the
repetition with the smallest self-reported objective estimate gives a
(1 + O(epsilon))-factor loss on top of the inner solver's guarantee, with
confidence controlled by delta.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instances import UflInstance
from .model import ScenarioSet
from .oracle import _shared_preparation

__all__ = [
    "SaaConfig",
    "SaaResult",
    "InnerSolverError",
    "saa_build",
    "repeating_saa",
]


class InnerSolverError(RuntimeError):
    """Raised when an inner solver fails; carries the repetition index."""

    def __init__(self, rep_index: int, message: str) -> None:
        super().__init__(f"repetition {rep_index}: {message}")
        self.rep_index = rep_index


@dataclass(frozen=True)
class SaaConfig:
    """Sampling plan: how many repetitions, how many draws per repetition.

    ``from_eps_delta`` derives both counts; the leading constants are not
    pinned by any theory here and default to 1, which is far more than a
    desk-scale box needs — pass a smaller ``c_n`` to keep runs fast.
    """

    epsilon: float
    delta: float
    k_reps: int
    n_samples: int
    c_k: float = 1.0
    c_n: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0 or not 0.0 < self.delta < 1.0:
            raise ValueError("epsilon and delta must lie strictly inside (0, 1)")
        if self.k_reps < 1 or self.n_samples < 1:
            raise ValueError("need at least one repetition and one sample")

    @classmethod
    def from_eps_delta(
        cls,
        epsilon: float,
        delta: float,
        recourse_ratio: float,
        first_stage_bits: int,
        c_k: float = 1.0,
        c_n: float = 1.0,
    ) -> "SaaConfig":
        """Counts from the accuracy targets.

        k_reps = ceil(c_k / epsilon * ln(1/delta)); at epsilon = 0.5,
        delta = 0.1, c_k = 1 that is ceil(2 ln 10) = 5.  The per-repetition
        sample count scales with the squared recourse ratio, epsilon^-4,
        k_reps, the log of the first-stage space (bits * ln 2) and
        ln(1/delta).  Both counts are clamped to at least 1.
        """
        confidence = math.log(1.0 / delta)
        k = max(1, math.ceil(c_k / epsilon * confidence))
        ln_x = max(first_stage_bits, 1) * math.log(2.0)
        n = max(
            1,
            math.ceil(
                c_n * recourse_ratio**2 * epsilon**-4 * k * ln_x * confidence
            ),
        )
        return cls(epsilon, delta, k, n, c_k, c_n)


def saa_build(scen: ScenarioSet, n: int, seed: int = 0) -> ScenarioSet:
    """Empirical distribution of n draws from the sampler.

    Scenarios keep their first-appearance order and carry multiplicity / n
    as probability; the largest class absorbs the last-ulp float slack so
    the probabilities add to exactly 1.0.  An explicit input draws through
    ``ScenarioSet.sample``, the stream a black box of it gives, so the draws
    depend only on the seed.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    draw = scen.sampler if scen.is_black_box else scen.sample
    rng = np.random.default_rng(seed)
    counts: dict[frozenset[int], int] = {}
    for _ in range(n):
        s = draw(rng)
        counts[s] = counts.get(s, 0) + 1
    probs = [c / n for c in counts.values()]
    slack = 1.0 - math.fsum(probs)
    probs[int(np.argmax(probs))] += slack
    return ScenarioSet(tuple(zip(probs, counts.keys())))


@dataclass(frozen=True)
class SaaResult:
    """All repetitions of the selection protocol, plus the winner."""

    chosen: frozenset[int]
    chosen_rep: int
    candidates: tuple[frozenset[int], ...]
    estimates: tuple[float, ...]
    config: SaaConfig


def repeating_saa(
    instance,
    inner_solver: Callable[[object], tuple[frozenset[int], float]],
    cfg: SaaConfig,
    seed: int = 0,
) -> SaaResult:
    """Solve k_reps independent empirical instances and keep the candidate
    with the smallest self-reported estimate (ties to the lower index).

    ``inner_solver`` receives the instance with its scenario set replaced
    by an empirical one and must return (first-stage set, estimated
    objective).  Repetition r draws with seed + r, so runs are reproducible
    and repetitions embarrassingly parallel.

    The repetitions run inside one oracle scope: an exact inner solver
    builds the weight tables, the certificate verdict, the Steiner reach
    table and each distinct client set's candidates once per call instead
    of once per repetition.  The scope ends with the call.

    Facility location is refused: its per-scenario opening prices are
    indexed by the original scenarios and cannot follow an empirical sample.
    """
    if isinstance(instance, UflInstance):
        raise ValueError(
            "SAA does not run on facility location: the per-scenario opening "
            "prices (scenario_open_cost) cannot follow an empirical sample "
            "(ROADMAP item 4)"
        )
    candidates: list[frozenset[int]] = []
    estimates: list[float] = []
    with _shared_preparation():
        for rep in range(cfg.k_reps):
            empirical = saa_build(instance.scenarios, cfg.n_samples, seed + rep)
            inst_hat = dataclasses.replace(instance, scenarios=empirical)
            try:
                first_stage, estimate = inner_solver(inst_hat)
            except Exception as exc:
                raise InnerSolverError(rep, str(exc)) from exc
            candidates.append(frozenset(first_stage))
            estimates.append(float(estimate))
    best = min(range(cfg.k_reps), key=lambda r: (estimates[r], r))
    return SaaResult(
        candidates[best], best, tuple(candidates), tuple(estimates), cfg
    )
