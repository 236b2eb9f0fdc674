"""Core evolutionary loop: bounded designs, scored records, and one
ask-evaluate-tell loop whose ask step is a pluggable strategy.

The Gaussian strategy draws each generation from an isotropic Gaussian
around a mean vector, clamped to the search box; the mean comes from a
pluggable proposer that studies a curated subset of the scored records,
and the standard deviation stays fixed.  Designs travel to proposers as
integers on a 0..1000 grid per dimension, which keeps prompts compact and
proposals unambiguous.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np
from numpy.random import Generator

ENCODING_STEPS = 1000

STATUS_OK = "ok"
STATUS_FAILED = "failed"

__all__ = [
    "AskStrategy",
    "Bounds",
    "ENCODING_STEPS",
    "EsConfig",
    "EvaluationFailed",
    "EvaluatorFatal",
    "GaussianSearch",
    "MeanProposer",
    "Problem",
    "ProposerError",
    "RecordBuffer",
    "STATUS_FAILED",
    "STATUS_OK",
    "ScoredRecord",
    "SelectionConfig",
    "decode_design",
    "encode_design",
    "evaluate_designs",
    "generation_rng",
    "rank_generations",
    "run_optimization",
    "sample_generation",
    "select_records",
]


class EvaluationFailed(Exception):
    """A single design could not be scored; the caller records a penalty."""


class EvaluatorFatal(RuntimeError):
    """The evaluator is unusable (not a per-design failure); abort the run."""


class ProposerError(RuntimeError):
    """The mean proposal failed permanently; the run cannot continue."""


@dataclass
class Bounds:
    """Axis-aligned search box, one (lower, upper) pair per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be equal-length 1-D vectors")
        if self.lower.size == 0:
            raise ValueError("bounds need at least one dimension")
        if not np.all(self.lower < self.upper):
            raise ValueError("each lower bound must lie strictly below its upper")

    @classmethod
    def uniform(cls, dimension: int, lower: float, upper: float) -> "Bounds":
        return cls(np.full(dimension, lower, float), np.full(dimension, upper, float))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def half_width(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.upper + self.lower)

    def clamp(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: np.ndarray, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol)
        )

    def central(self, fraction: float) -> "Bounds":
        """Sub-box with the same center and the given fraction of the widths."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        spread = fraction * self.half_width
        return Bounds(self.center - spread, self.center + spread)

    def sample_uniform(self, rng: Generator, count: int | None = None) -> np.ndarray:
        """One uniform draw from the box, or ``count`` of them as rows."""
        shape = self.dimension if count is None else (count, self.dimension)
        return self.lower + rng.random(shape) * (self.upper - self.lower)


def encode_design(x, bounds: Bounds) -> np.ndarray:
    """Map a design onto the integer grid {0, ..., 1000} per dimension.

    The affine image of the box is [0, 1000]; half-steps round away from
    zero (always upward here, the scaled values are non-negative).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (bounds.dimension,):
        raise ValueError("design has the wrong dimension")
    if not bounds.contains(x, atol=1e-9):
        raise ValueError("design lies outside the bounds")
    scaled = (bounds.clamp(x) - bounds.lower) / (bounds.upper - bounds.lower)
    grid = np.floor(scaled * ENCODING_STEPS + 0.5).astype(int)
    return np.clip(grid, 0, ENCODING_STEPS)


def decode_design(encoded, bounds: Bounds) -> np.ndarray:
    """Inverse of :func:`encode_design` onto the grid points of the box."""
    encoded = np.asarray(encoded)
    if encoded.shape != (bounds.dimension,):
        raise ValueError("encoded design has the wrong dimension")
    if not np.issubdtype(encoded.dtype, np.integer):
        raise ValueError("encoded design must be integer-valued")
    if np.any(encoded < 0) or np.any(encoded > ENCODING_STEPS):
        raise ValueError(f"encoded components must lie in [0, {ENCODING_STEPS}]")
    fraction = encoded / ENCODING_STEPS
    return bounds.lower + fraction * (bounds.upper - bounds.lower)


@dataclass
class ScoredRecord:
    """One evaluated design; failed evaluations carry the penalty score."""

    design: np.ndarray
    score: float
    generation: int
    status: str = STATUS_OK

    def __post_init__(self) -> None:
        self.design = np.asarray(self.design, dtype=float)
        self.score = float(self.score)
        if self.status not in (STATUS_OK, STATUS_FAILED):
            raise ValueError(f"unknown evaluation status {self.status!r}")


class RecordBuffer:
    """Scored designs grouped by contiguous generation index."""

    def __init__(self) -> None:
        self._generations: list[list[ScoredRecord]] = []
        self._bests: list[ScoredRecord] = []

    def __len__(self) -> int:
        return sum(len(g) for g in self._generations)

    @property
    def n_generations(self) -> int:
        return len(self._generations)

    def append_generation(self, records: Sequence[ScoredRecord]) -> None:
        records = list(records)
        if not records:
            raise ValueError("a generation must contain at least one record")
        expected = len(self._generations)
        for record in records:
            if record.generation != expected:
                raise ValueError(
                    f"record generation {record.generation} != next index {expected}"
                )
        self._generations.append(records)
        # max keeps the first of equal scores: ties keep evaluation order.
        self._bests.append(max(records, key=lambda record: record.score))

    def generation(self, index: int) -> list[ScoredRecord]:
        return list(self._generations[index])

    def all_records(self) -> list[ScoredRecord]:
        return [record for gen in self._generations for record in gen]

    def best_in(self, index: int) -> ScoredRecord:
        """Best record of one generation; ties keep evaluation order."""
        return self._bests[index]

    def best_record(self) -> ScoredRecord:
        """Best record of the buffer; ties keep the earliest generation."""
        if not self._bests:
            raise ValueError("buffer is empty")
        return max(self._bests, key=lambda record: record.score)


@dataclass(frozen=True)
class SelectionConfig:
    """How many generations and records feed the proposer."""

    top_generations: int = 3
    recent_generations: int = 2
    designs_per_generation: int = 3

    def __post_init__(self) -> None:
        if self.top_generations < 0 or self.recent_generations < 0:
            raise ValueError("generation counts must be non-negative")
        if self.top_generations + self.recent_generations < 1:
            raise ValueError("at least one generation group must be selected")
        if self.designs_per_generation < 1:
            raise ValueError("designs_per_generation must be at least 1")


def rank_generations(buffer: RecordBuffer) -> list[int]:
    """Generation indices ordered by their best score, ascending.

    The best-scoring generation comes last; equal best scores keep the
    lower generation index first.
    """
    if buffer.n_generations == 0:
        raise ValueError("cannot rank an empty buffer")
    best = [buffer.best_in(g).score for g in range(buffer.n_generations)]
    return sorted(range(buffer.n_generations), key=lambda g: (best[g], g))


def select_records(buffer: RecordBuffer, config: SelectionConfig) -> list[ScoredRecord]:
    """Curate the records shown to the proposer.

    Takes the top-ranked generations plus the most recent ones (without
    duplicates), then the best designs of each.  The output lists
    generations in ascending best-score rank and records within a
    generation in ascending score, so the strongest record appears last.
    """
    ranked = rank_generations(buffer)
    chosen: set[int] = set()
    if config.top_generations > 0:
        chosen.update(ranked[-config.top_generations:])
    n = buffer.n_generations
    chosen.update(range(max(0, n - config.recent_generations), n))
    selected = []
    for gen_index in ranked:
        if gen_index not in chosen:
            continue
        # Stable ascending sort; ties keep evaluation order.
        records = sorted(buffer.generation(gen_index), key=lambda rec: rec.score)
        selected.extend(records[-config.designs_per_generation:])
    return selected


def sample_generation(
    mean: np.ndarray,
    sigma: float | np.ndarray,
    population_size: int,
    bounds: Bounds,
    rng: Generator,
) -> np.ndarray:
    """Independent Gaussian draws around the mean, clamped to the box."""
    if not bounds.contains(mean, atol=1e-9):
        raise ValueError("sampling mean lies outside the bounds")
    noise = rng.standard_normal((population_size, bounds.dimension))
    return bounds.clamp(mean + sigma * noise)


class MeanProposer(Protocol):
    def propose(
        self, records: Sequence[ScoredRecord], bounds: Bounds
    ) -> np.ndarray: ...


class Problem(Protocol):
    bounds: Bounds
    init_range: Bounds  # where seeding generations draw
    penalty_score: float
    objective: str

    def evaluate(self, x: np.ndarray) -> float: ...


@dataclass
class EsConfig:
    """Run-level knobs of the evolutionary loop."""

    budget: int
    population_size: int = 8
    sigma: float | None = None  # default: 0.1 of each bound half-width
    n_initial: int = 2
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    seed: int = 0
    max_workers: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be at least 1")
        if self.n_initial < 1:
            raise ValueError("need at least one seeding generation")
        if self.budget < 1:
            raise ValueError("budget must be at least one generation")
        if self.sigma is not None and not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")


class AskStrategy(Protocol):
    """Designs of generation ``buffer.n_generations``, drawn from ``rng``."""

    def ask(
        self, buffer: RecordBuffer, rng: Generator, problem: Problem, config: EsConfig
    ) -> np.ndarray: ...


@dataclass
class GaussianSearch:
    """Gaussian draws with a fixed sigma around a mean.

    The first ``n_initial`` generations draw their means uniformly from the
    seeding range, a fresh draw each time; later generations ask the
    proposer, feeding it the curated records.
    """

    proposer: MeanProposer

    def ask(
        self, buffer: RecordBuffer, rng: Generator, problem: Problem, config: EsConfig
    ) -> np.ndarray:
        bounds = problem.bounds
        dimension = bounds.dimension
        if buffer.n_generations < config.n_initial:
            mean = problem.init_range.sample_uniform(rng)
        else:
            records = select_records(buffer, config.selection)
            mean = np.asarray(self.proposer.propose(records, bounds), dtype=float)
            if mean.shape != (dimension,):
                raise ProposerError(
                    f"proposed mean has shape {mean.shape}, expected ({dimension},)"
                )
            mean = bounds.clamp(mean)
        sigma = config.sigma if config.sigma is not None else 0.1 * bounds.half_width
        return sample_generation(mean, sigma, config.population_size, bounds, rng)


def generation_rng(seed: int, generation: int) -> Generator:
    """Deterministic stream per generation.

    Keying the stream on (seed, generation) rather than drawing serially
    lets an interrupted run resume bit-exactly from the records on disk.
    """
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(generation),))
    return np.random.default_rng(sequence)


def evaluate_designs(
    problem: Problem,
    designs: np.ndarray,
    generation: int,
    mapper: Callable = map,
) -> list[ScoredRecord]:
    """Score a population; per-design failures become penalty records.

    ``mapper`` applies the scoring to the designs in order: the builtin
    ``map``, or a thread pool's ``map`` to score several at once.
    """

    def score_one(design: np.ndarray) -> tuple[float, str]:
        try:
            return float(problem.evaluate(design)), STATUS_OK
        except EvaluationFailed:
            return float(problem.penalty_score), STATUS_FAILED

    designs = np.asarray(designs, dtype=float)
    outcomes = list(mapper(score_one, designs))
    return [
        ScoredRecord(design=design, score=score, generation=generation, status=status)
        for design, (score, status) in zip(designs, outcomes)
    ]


def run_optimization(
    problem: Problem,
    strategy: AskStrategy,
    config: EsConfig,
    *,
    initial_buffer: RecordBuffer | None = None,
    on_generation: Callable[[list[ScoredRecord]], None] | None = None,
) -> RecordBuffer:
    """Run (or continue) the ask-evaluate-tell loop up to the generation budget.

    When ``initial_buffer`` already holds complete generations the loop
    continues after them and reproduces exactly what an uninterrupted run
    would have done.  Returns the buffer (``initial_buffer`` itself when
    given).  With ``config.max_workers`` above 1, one thread pool of that
    many workers scores the designs of every generation; otherwise they
    are scored on the calling thread.
    """
    buffer = initial_buffer if initial_buffer is not None else RecordBuffer()
    # The pool starts its threads on first use, so a serial run starts none.
    with ThreadPoolExecutor(max_workers=config.max_workers) as pool:
        mapper = pool.map if config.max_workers > 1 else map
        for generation in range(buffer.n_generations, config.budget):
            rng = generation_rng(config.seed, generation)
            designs = strategy.ask(buffer, rng, problem, config)
            records = evaluate_designs(problem, designs, generation, mapper)
            buffer.append_generation(records)
            if on_generation is not None:
                on_generation(records)
    return buffer
