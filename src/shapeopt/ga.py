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
    Bounds,
    EsConfig,
    Problem,
    RecordBuffer,
    ScoredRecord,
    run_optimization,
)

__all__ = ["GaConfig", "GaSearch", "ga_step", "run_ga"]


@dataclass
class GaConfig:
    """Operator rates and sizes; sigma defaults to 0.1 of the half-width."""

    tournament_size: int = 2
    crossover_rate: float = 0.9
    blend_alpha: float = 0.5
    mutation_rate: float = 0.2
    mutation_sigma: float | np.ndarray | None = None
    elite_count: int = 1

    def __post_init__(self) -> None:
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be at least 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if not self.blend_alpha > 0.0:
            raise ValueError("blend_alpha must be positive")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if self.mutation_sigma is not None and np.any(
            np.asarray(self.mutation_sigma) <= 0.0
        ):
            raise ValueError("mutation_sigma must be positive")
        if self.elite_count < 0:
            raise ValueError("elite_count must be non-negative")


def _resolved_sigma(cfg: GaConfig, bounds: Bounds) -> np.ndarray | float:
    if cfg.mutation_sigma is not None:
        return cfg.mutation_sigma
    return 0.1 * bounds.half_width


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
    if cfg.elite_count > len(records):
        raise ValueError("elite_count exceeds the population size")
    designs = np.array([rec.design for rec in records], dtype=float)
    scores = np.array([rec.score for rec in records], dtype=float)
    d = bounds.dimension
    sigma = _resolved_sigma(cfg, bounds)

    next_designs = np.empty_like(designs)
    # stable descending order: negated scores keep ties in evaluation order;
    # emitting elites by ascending index makes elite_count = N the identity
    elite = np.sort(np.argsort(-scores, kind="stable")[: cfg.elite_count])
    next_designs[: cfg.elite_count] = designs[elite]

    for slot in range(cfg.elite_count, len(records)):
        pa = designs[_tournament_pick(scores, cfg.tournament_size, rng)]
        pb = designs[_tournament_pick(scores, cfg.tournament_size, rng)]
        child = pa.copy()
        crossed = rng.random(d) < cfg.crossover_rate
        lo = np.minimum(pa, pb)
        hi = np.maximum(pa, pb)
        spread = hi - lo
        blended = rng.uniform(
            lo - cfg.blend_alpha * spread, hi + cfg.blend_alpha * spread
        )
        child[crossed] = blended[crossed]
        mutated = rng.random(d) < cfg.mutation_rate
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
