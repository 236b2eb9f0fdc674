"""Real-coded genetic algorithm: an ask strategy of the shared search loop.

Standard operator stack: elitism, tournament selection, per-component
blend crossover, additive Gaussian mutation, bound clamping.  Runs go
through :func:`evolution.run_optimization`, so they share its seeded
streams, record buffer, callbacks and resume with the Gaussian search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator

from .evolution import (
    LARGEST,
    STEP_FRACTION,
    Bounds,
    EsConfig,
    Problem,
    RecordBuffer,
    ScoredRecord,
    run_optimization,
)

__all__ = ["GaConfig", "GaSearch", "ga_step", "run_ga"]


# Operator settings of the baseline: contestants per tournament, the chance
# that a component is crossed and that it mutates, and the designs copied
# unchanged into the next generation.
TOURNAMENT_SIZE = 2
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.2
ELITE_COUNT = 1


@dataclass
class GaConfig:
    """Step sizes; sigma defaults to STEP_FRACTION of the half-width."""

    blend_alpha: float = 0.5
    mutation_sigma: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.blend_alpha <= LARGEST:
            raise ValueError(f"blend_alpha must lie in (0, {LARGEST:g}]")
        if self.mutation_sigma is not None and not 0.0 < self.mutation_sigma <= LARGEST:
            raise ValueError(f"mutation_sigma must lie in (0, {LARGEST:g}] or be None")


def _tournament_pick(
    scores: np.ndarray, size: int, rng: np.random.Generator
) -> int:
    contestants = rng.integers(0, len(scores), size=size)
    # argmax keeps the first drawn contestant on ties.
    return int(contestants[np.argmax(scores[contestants])])


def ga_step(
    population: Sequence[ScoredRecord],
    cfg: GaConfig,
    bounds: Bounds,
    rng: np.random.Generator,
) -> np.ndarray:
    """Produce the next population of designs from a scored one, of its size.

    The elite designs are copied verbatim (ties keep evaluation order);
    every remaining slot crosses two tournament winners component-wise —
    a crossed component is drawn uniformly from the blend interval
    stretched by alpha, an uncrossed one comes from the first parent —
    then mutates and clamps.
    """
    records = list(population)
    if ELITE_COUNT > len(records):
        raise ValueError("ELITE_COUNT exceeds the population size")
    designs = np.array([rec.design for rec in records], dtype=float)
    scores = np.array([rec.score for rec in records], dtype=float)
    d = bounds.dimension
    sigma = cfg.mutation_sigma or STEP_FRACTION * bounds.half_width

    next_designs = np.empty_like(designs)
    # stable descending order: negated scores keep ties in evaluation order;
    # emitting elites by ascending index makes ELITE_COUNT = N the identity
    elite = np.sort(np.argsort(-scores, kind="stable")[:ELITE_COUNT])
    next_designs[:ELITE_COUNT] = designs[elite]

    for slot in range(ELITE_COUNT, len(records)):
        pa = designs[_tournament_pick(scores, TOURNAMENT_SIZE, rng)]
        pb = designs[_tournament_pick(scores, TOURNAMENT_SIZE, rng)]
        child = pa.copy()
        crossed = rng.random(d) < CROSSOVER_RATE
        lo = np.minimum(pa, pb)
        hi = np.maximum(pa, pb)
        spread = hi - lo
        blended = rng.uniform(
            lo - cfg.blend_alpha * spread, hi + cfg.blend_alpha * spread
        )
        child[crossed] = blended[crossed]
        mutated = rng.random(d) < MUTATION_RATE
        noise = sigma * rng.standard_normal(d)
        child[mutated] += noise[mutated]
        next_designs[slot] = child
    return bounds.clamp(next_designs)


@dataclass
class GaSearch:
    """Ask strategy: a uniform population in the seeding range, then ga_step.

    Of the loop config only ``population_size`` is read; ``cfg`` sets the rest.
    """

    cfg: GaConfig

    def ask(
        self, buffer: RecordBuffer, rng: Generator, problem: Problem, config: EsConfig
    ) -> np.ndarray:
        if buffer.n_generations == 0:
            return problem.init_range.sample_uniform(rng, config.population_size)
        parents = buffer.generation(buffer.n_generations - 1)
        return ga_step(parents, self.cfg, problem.bounds, rng)


def run_ga(
    problem: Problem,
    cfg: GaConfig,
    config: EsConfig,
    *,
    initial_buffer: RecordBuffer | None = None,
    on_generation: Callable[[list[ScoredRecord]], None] | None = None,
) -> RecordBuffer:
    """The search loop with :class:`GaSearch` as its ask strategy."""
    return run_optimization(
        problem,
        GaSearch(cfg),
        config,
        initial_buffer=initial_buffer,
        on_generation=on_generation,
    )
