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

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
from numpy.random import Generator

ENCODING_STEPS = 1000
# Largest magnitude of a number that scales or shifts designs and draws:
# far beyond any useful value, and far below where float64 arithmetic on
# it overflows.
LARGEST = 1.0e6
# Longest timeout in seconds; subprocess and socket waits overflow far
# beyond it (poll takes int milliseconds, about 2.1e6 s).
DAY = 86400.0
# Gaussian step, and the default GA mutation step, as a fraction of each
# half-width.
STEP_FRACTION = 0.1
# The proposer sees the best designs of the top-ranked and the most recent
# generations: this many of each kind, and this many designs of each.
TOP_GENERATIONS = 3
RECENT_GENERATIONS = 2
DESIGNS_PER_GENERATION = 3
# Most designs in one generation.  A run keeps every record, and one memo
# entry per distinct scored design, in memory to its end, and draws each
# generation as one array: 10,000 is over a thousand times the paper's 8,
# and one generation of the largest analytic design
# (problems.MAX_DIMENSION) then takes 80 MB.
MAX_POPULATION = 10_000
# Most threads scoring a generation: each has its own stack and glibc malloc
# arena, which keeps the pages of its largest drag solve (up to 42 MiB).
MAX_WORKERS = 32
# Round-off by which a point may stray outside its box and still lie in it.
_BOX_SLACK = 1e-9

STATUS_OK = "ok"
STATUS_FAILED = "failed"

__all__ = [
    "AskStrategy",
    "Bounds",
    "DAY",
    "DESIGNS_PER_GENERATION",
    "ENCODING_STEPS",
    "EsConfig",
    "EvaluationFailed",
    "EvaluatorFatal",
    "GaussianSearch",
    "LARGEST",
    "MAX_POPULATION",
    "MAX_WORKERS",
    "MeanProposer",
    "Problem",
    "ProposerError",
    "RECENT_GENERATIONS",
    "RecordBuffer",
    "STATUS_FAILED",
    "STATUS_OK",
    "STEP_FRACTION",
    "ScoredRecord",
    "TOP_GENERATIONS",
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

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        lower, upper = self.lower - _BOX_SLACK, self.upper + _BOX_SLACK
        return bool(np.all(x >= lower) and np.all(x <= upper))

    def central(self) -> "Bounds":
        """The central half of the box: same center, half the widths."""
        spread = 0.5 * self.half_width
        return Bounds(self.center - spread, self.center + spread)

    def sample_uniform(self, rng: Generator, count: int | None = None) -> np.ndarray:
        """One uniform draw from the box, or ``count`` of them as rows."""
        shape = self.dimension if count is None else (count, self.dimension)
        return self.lower + rng.random(shape) * (self.upper - self.lower)


def encode_design(x, bounds: Bounds) -> np.ndarray:
    """Map a design onto the integer grid {0, ..., 1000} per dimension.

    The affine image of the box is [0, 1000]; half-steps round away from
    zero (always upward here, the scaled values are non-negative).  An
    ``(m, d)`` matrix of designs encodes row by row into an ``(m, d)``
    matrix, with the same bits as ``m`` calls on its rows; it is refused,
    with the same message, when any row would be.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != bounds.dimension:
        raise ValueError("design has the wrong dimension")
    if not bounds.contains(x):
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


def _design_key(design: np.ndarray) -> bytes:
    """Memo key: the exact float64 bits, so -0.0 and 0.0 stay distinct."""
    return np.asarray(design, dtype=float).tobytes()


class RecordBuffer:
    """Scored designs grouped by contiguous generation index.

    It also remembers the score of every design it holds an ``ok`` record
    of, so a run scores each distinct design at most once.  Failed designs
    are not remembered: a later generation that proposes one tries it again.
    """

    def __init__(self) -> None:
        self._generations: list[list[ScoredRecord]] = []
        self._bests: list[ScoredRecord] = []
        # (best score, index) per generation, kept sorted: the rank order.
        self._ranks: list[tuple[float, int]] = []
        self._scores: dict[bytes, float] = {}

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
        for record in records:
            if record.status == STATUS_OK:
                self._scores.setdefault(_design_key(record.design), record.score)
        # max keeps the first of equal scores: ties keep evaluation order.
        best = max(records, key=lambda record: record.score)
        self._bests.append(best)
        bisect.insort(self._ranks, (best.score, expected))

    def generation(self, index: int) -> list[ScoredRecord]:
        return list(self._generations[index])

    def known_score(self, design: np.ndarray) -> float | None:
        """Score of an ``ok`` record with these exact design bits, else None."""
        return self._scores.get(_design_key(design))

    def all_records(self) -> list[ScoredRecord]:
        return [record for gen in self._generations for record in gen]

    def best_in(self, index: int) -> ScoredRecord:
        """Best record of one generation; ties keep evaluation order."""
        return self._bests[index]

    def top_ranks(self, count: int) -> list[tuple[float, int]]:
        """(best score, index) of the ``count`` top-ranked generations.

        Ascending by best score, equal bests with the lower index first, so
        the best-scoring generation comes last; ``count`` 0 gives none.
        """
        return self._ranks[max(0, len(self._ranks) - count):]

    def best_record(self) -> ScoredRecord:
        """Best record of the buffer; ties keep the earliest generation."""
        if not self._bests:
            raise ValueError("buffer is empty")
        return max(self._bests, key=lambda record: record.score)


def rank_generations(buffer: RecordBuffer) -> list[int]:
    """Generation indices ordered by their best score, ascending.

    The best-scoring generation comes last; equal best scores keep the
    lower generation index first.
    """
    if buffer.n_generations == 0:
        raise ValueError("cannot rank an empty buffer")
    return [g for _, g in buffer.top_ranks(buffer.n_generations)]


def select_records(buffer: RecordBuffer) -> list[ScoredRecord]:
    """Curate the records shown to the proposer.

    Takes the top-ranked generations plus the most recent ones (without
    duplicates), then the best designs of each.  The output lists
    generations in ascending best-score rank and records within a
    generation in ascending score, so the strongest record appears last.
    Only the chosen generations are read.
    """
    n = buffer.n_generations
    if n == 0:
        raise ValueError("cannot rank an empty buffer")
    chosen = set(buffer.top_ranks(TOP_GENERATIONS))
    chosen.update(
        (buffer.best_in(g).score, g) for g in range(max(0, n - RECENT_GENERATIONS), n)
    )
    selected = []
    for _, gen_index in sorted(chosen):
        # Stable ascending sort; ties keep evaluation order.
        records = sorted(buffer.generation(gen_index), key=lambda rec: rec.score)
        selected.extend(records[-DESIGNS_PER_GENERATION:])
    return selected


def sample_generation(
    mean: np.ndarray,
    sigma: float | np.ndarray,
    population_size: int,
    bounds: Bounds,
    rng: Generator,
) -> np.ndarray:
    """Independent Gaussian draws around the mean, clamped to the box."""
    if not bounds.contains(mean):
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
    n_initial: int = 2
    seed: int = 0
    max_workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.population_size <= MAX_POPULATION:
            raise ValueError(f"population_size must lie in [1, {MAX_POPULATION}]")
        if self.n_initial < 1:
            raise ValueError("n_initial (n_ini) must be at least 1")
        if self.budget < 1:
            raise ValueError("budget must be at least one generation")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.max_workers <= MAX_WORKERS:
            raise ValueError(f"max_workers must lie in [1, {MAX_WORKERS}]")


class AskStrategy(Protocol):
    """Designs of generation ``buffer.n_generations``, drawn from ``rng``."""

    def ask(
        self, buffer: RecordBuffer, rng: Generator, problem: Problem, config: EsConfig
    ) -> np.ndarray: ...


@dataclass
class GaussianSearch:
    """Gaussian draws around a mean, STEP_FRACTION of each half-width wide.

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
            records = select_records(buffer)
            mean = np.asarray(self.proposer.propose(records, bounds), dtype=float)
            if mean.shape != (dimension,):
                raise ProposerError(
                    f"proposed mean has shape {mean.shape}, expected ({dimension},)"
                )
            mean = bounds.clamp(mean)
        sigma = STEP_FRACTION * bounds.half_width
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
    buffer: RecordBuffer | None = None,
) -> list[ScoredRecord]:
    """Score a population; per-design failures become penalty records.

    A score that is not finite is a failure too.  ``mapper`` applies the
    scoring to the designs in order: the builtin ``map``, or a thread
    pool's ``map`` to score several at once.  Only the first of
    bit-identical designs is scored, and none that ``buffer`` already holds
    an ``ok`` record of; the problem's score must depend on the design alone.
    """

    def score_one(design: np.ndarray) -> tuple[float, str]:
        try:
            score = float(problem.evaluate(design))
            if math.isfinite(score):
                return score, STATUS_OK
        except EvaluationFailed:
            pass
        return float(problem.penalty_score), STATUS_FAILED

    designs = np.asarray(designs, dtype=float)
    keys = [_design_key(design) for design in designs]
    outcomes: dict[bytes, tuple[float, str]] = {}
    fresh: dict[bytes, np.ndarray] = {}  # first of each unscored design
    for key, design in zip(keys, designs):
        if key in outcomes or key in fresh:
            continue
        score = None if buffer is None else buffer.known_score(design)
        if score is None:
            fresh[key] = design
        else:
            outcomes[key] = score, STATUS_OK
    outcomes.update(zip(fresh, mapper(score_one, fresh.values())))
    return [
        ScoredRecord(design=design, score=score, generation=generation, status=status)
        for design, (score, status) in zip(designs, map(outcomes.get, keys))
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
            records = evaluate_designs(problem, designs, generation, mapper, buffer)
            buffer.append_generation(records)
            if on_generation is not None:
                on_generation(records)
    return buffer
