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

__all__ = ["SaaConfig", "InnerSolverError", "saa_build", "repeating_saa"]


class InnerSolverError(RuntimeError):
    """Raised when an inner solver fails; carries the repetition index."""

    def __init__(self, rep_index: int, message: str) -> None:
        super().__init__(f"repetition {rep_index}: {message}")
        self.rep_index = rep_index


@dataclass(frozen=True)
class SaaConfig:
    """Sampling plan: how many repetitions, how many draws per repetition.

    ``from_eps_delta`` derives both counts.  Its one tunable constant,
    ``c_n``, scales the sample count; it is not pinned by any theory here
    and defaults to 1, which is far more than a desk-scale box needs, so
    pass a smaller ``c_n`` to keep runs fast.
    """

    epsilon: float
    delta: float
    k_reps: int
    n_samples: int

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
        c_n: float = 1.0,
    ) -> "SaaConfig":
        """Counts from the accuracy targets.

        k_reps = ceil(ln(1/delta) / epsilon); at epsilon = 0.5, delta = 0.1
        that is ceil(2 ln 10) = 5.  The per-repetition sample count is
        ``c_n`` times the squared recourse ratio, epsilon^-4, k_reps, the
        log of the first-stage space (bits * ln 2) and ln(1/delta).  Both
        counts are clamped to at least 1.  Before any arithmetic, epsilon or
        delta outside (0, 1), a ``c_n`` that is not finite and positive, and a
        recourse ratio that is not finite (facility location with a free
        ground opening price and a priced recourse one) are ValueErrors
        naming the parameter; so is a sample count that overflows.
        """
        bounds = [("epsilon", epsilon, 1.0), ("delta", delta, 1.0), ("c_n", c_n, math.inf)]
        for name, value, top in bounds:
            if not 0.0 < value < top:
                raise ValueError(f"{name} must lie strictly inside (0, {top:g}), got {value}")
        if not math.isfinite(recourse_ratio):
            raise ValueError(f"recourse ratio must be finite, got {recourse_ratio}")
        confidence = math.log(1.0 / delta)
        ln_x = max(first_stage_bits, 1) * math.log(2.0)
        try:
            k = max(1, math.ceil(1.0 / epsilon * confidence))
            count = c_n * recourse_ratio**2 * epsilon**-4 * k * ln_x * confidence
            n = max(1, math.ceil(count))
        except OverflowError as exc:
            # the count grows as c_n ratio^2 epsilon^-5 ln(1/delta)^2; name its largest factor
            _, name, value = max(
                (math.log(c_n), "c_n", c_n),
                (2 * math.log(abs(recourse_ratio) or 1.0), "recourse ratio", recourse_ratio),
                (-5 * math.log(epsilon), "epsilon", epsilon),
                (2 * math.log(confidence), "delta", delta),
            )
            raise ValueError(f"sample count overflows at {name} {value}") from exc
        return cls(epsilon, delta, k, n)


def _empirical(draw: Callable[[np.random.Generator], object], n: int, seed: int):
    """``saa_build``'s probabilities and distinct draws, for any hashable draw."""
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    counts: dict[object, int] = {}
    for _ in range(n):
        s = draw(rng)
        counts[s] = counts.get(s, 0) + 1
    probs = [c / n for c in counts.values()]
    slack = 1.0 - math.fsum(probs)
    probs[int(np.argmax(probs))] += slack
    return probs, list(counts)


def saa_build(scen: ScenarioSet, n: int, seed: int = 0) -> ScenarioSet:
    """Empirical distribution of n draws from the sampler.

    Scenarios keep their first-appearance order and carry multiplicity / n
    as probability; the largest class absorbs the last-ulp float slack so
    the probabilities add to exactly 1.0.  An explicit input draws through
    ``ScenarioSet.sample``, the stream a black box of it gives, so the draws
    depend only on the seed.
    """
    probs, drawn = _empirical(scen.sample, n, seed)
    return ScenarioSet(tuple(zip(probs, drawn)))


def _ufl_build(inst: UflInstance, n: int, seed: int) -> UflInstance:
    """The empirical facility-location instance: each draw keeps the price
    row of the scenario it drew, by the uniform ``ScenarioSet.sample`` uses,
    and draws merge on (client set, price row)."""
    scen = inst.scenarios
    pairs = [(c, row) for (_, c), row in zip(scen.scenarios, inst.scenario_open_cost)]
    probs, drawn = _empirical(lambda rng: pairs[scen.sample_index(rng)], n, seed)
    return dataclasses.replace(
        inst,
        scenarios=ScenarioSet(tuple((p, c) for p, (c, _) in zip(probs, drawn))),
        scenario_open_cost=tuple(row for _, row in drawn),
    )


@dataclass(frozen=True)
class SaaResult:
    """All repetitions of the selection protocol, plus the winner."""

    chosen: frozenset[int]
    chosen_rep: int
    candidates: tuple[frozenset[int], ...]
    estimates: tuple[float, ...]


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

    On facility location each empirical scenario carries the opening price
    row of the scenario it was drawn from, so its scenario list must be
    explicit: a black box gives no price rows and is refused.
    """
    ufl = isinstance(instance, UflInstance)
    if ufl and instance.scenarios.is_black_box:
        raise ValueError(
            "SAA on facility location needs an explicit scenario list: each draw "
            "keeps its scenario's opening prices (scenario_open_cost)"
        )
    candidates: list[frozenset[int]] = []
    estimates: list[float] = []
    with _shared_preparation():
        for rep in range(cfg.k_reps):
            if ufl:
                inst_hat = _ufl_build(instance, cfg.n_samples, seed + rep)
            else:
                empirical = saa_build(instance.scenarios, cfg.n_samples, seed + rep)
                inst_hat = dataclasses.replace(instance, scenarios=empirical)
            try:
                first_stage, estimate = inner_solver(inst_hat)
            except Exception as exc:
                raise InnerSolverError(rep, str(exc)) from exc
            candidates.append(frozenset(first_stage))
            estimates.append(float(estimate))
    best = min(range(cfg.k_reps), key=lambda r: (estimates[r], r))
    return SaaResult(candidates[best], best, tuple(candidates), tuple(estimates))
