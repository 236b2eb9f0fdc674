"""Genetic algorithm operators and run loop."""

import collections

import numpy as np
import pytest

from shapeopt import evolution, ga
from shapeopt.evolution import (
    Bounds,
    EsConfig,
    RecordBuffer,
    ScoredRecord,
    generation_rng,
    run_optimization,
)
from shapeopt.ga import GaConfig, GaSearch, ga_step, run_ga
from shapeopt.problems import QuadraticProblem
from shapeopt.rundir import RecordWriter, load_records

BOUNDS = Bounds.uniform(3, -1.0, 1.0)


def every_record(buffer):
    """The buffer's records in evaluation order, generation by generation."""
    return [r for g in range(buffer.n_generations) for r in buffer.generation(g)]


def set_operators(monkeypatch, **constants):
    """Override ga's operator constants, given by lower-case name."""
    for name, value in constants.items():
        monkeypatch.setattr(ga, name.upper(), value)


def scored_population(designs, scores):
    return [
        ScoredRecord(np.asarray(d, dtype=float), s, 0)
        for d, s in zip(designs, scores)
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(blend_alpha=0.0)
    with pytest.raises(ValueError):
        GaConfig(mutation_sigma=-1.0)


def test_population_size_mismatch(monkeypatch):
    # more elites than the population holds; all of them is legal
    population = scored_population(np.zeros((3, 3)), [1.0, 2.0, 3.0])
    set_operators(monkeypatch, elite_count=4)
    with pytest.raises(ValueError, match="ELITE_COUNT"):
        ga_step(population, GaConfig(), BOUNDS, np.random.default_rng(0))
    set_operators(monkeypatch, elite_count=3)
    out = ga_step(population, GaConfig(), BOUNDS, np.random.default_rng(0))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_full_elitism_is_identity(monkeypatch):
    rng = np.random.default_rng(1)
    designs = rng.uniform(-1, 1, (6, 3))
    scores = rng.normal(size=6).tolist()
    set_operators(monkeypatch, elite_count=6)
    out = ga_step(
        scored_population(designs, scores), GaConfig(), BOUNDS, np.random.default_rng(0)
    )
    assert np.array_equal(out, designs)


def test_elites_keep_original_relative_order(monkeypatch):
    designs = np.arange(12, dtype=float).reshape(4, 3) / 20.0
    population = scored_population(designs, [1.0, 3.0, 3.0, 2.0])
    set_operators(monkeypatch, elite_count=2, mutation_rate=0.0)
    out = ga_step(population, GaConfig(), BOUNDS, np.random.default_rng(0))
    # the two score-3 records, in evaluation order (indices 1 then 2)
    assert np.array_equal(out[0], designs[1])
    assert np.array_equal(out[1], designs[2])


def test_children_respect_bounds(monkeypatch):
    rng = np.random.default_rng(3)
    designs = rng.uniform(-1, 1, (8, 3))
    population = scored_population(designs, rng.normal(size=8).tolist())
    set_operators(monkeypatch, mutation_rate=1.0)
    cfg = GaConfig(mutation_sigma=5.0, blend_alpha=3.0)
    for trial in range(20):
        out = ga_step(population, cfg, BOUNDS, np.random.default_rng(trial))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_no_variation_copies_tournament_winner(monkeypatch):
    rng = np.random.default_rng(5)
    designs = rng.uniform(-1, 1, (5, 3))
    population = scored_population(designs, [0.0, 1.0, 2.0, 3.0, 4.0])
    set_operators(monkeypatch, elite_count=0, crossover_rate=0.0, mutation_rate=0.0)
    out = ga_step(population, GaConfig(), BOUNDS, np.random.default_rng(11))
    for child in out:
        assert any(np.array_equal(child, d) for d in designs)


def test_tournament_tie_keeps_first_drawn(monkeypatch):
    designs = np.diag([0.1, 0.2, 0.3, 0.4])[:, :3]
    population = scored_population(designs, [1.0, 1.0, 1.0, 1.0])
    set_operators(monkeypatch, elite_count=0, crossover_rate=0.0, mutation_rate=0.0)
    seed_rng = np.random.default_rng(2)
    out = ga_step(population, GaConfig(), BOUNDS, np.random.default_rng(2))
    for child in out:
        first, _ = seed_rng.integers(0, 4, size=2)  # parent a contestants
        seed_rng.integers(0, 4, size=2)  # parent b draw
        seed_rng.random(3)  # crossover mask
        seed_rng.uniform(np.zeros(3), np.ones(3))  # blend draw
        seed_rng.random(3)  # mutation mask
        seed_rng.standard_normal(3)  # mutation noise
        assert np.array_equal(child, designs[first])


def test_blend_crossover_interval(monkeypatch):
    # rate 1 and alpha 0.5: every component uniform in the stretched interval
    designs = np.array([[-0.4, -0.4, -0.4], [0.4, 0.4, 0.4]])
    population = scored_population(designs, [1.0, 1.0])
    set_operators(monkeypatch, elite_count=0, crossover_rate=1.0, mutation_rate=0.0)
    children = np.vstack(
        [
            ga_step(population, GaConfig(), BOUNDS, np.random.default_rng(t))
            for t in range(300)
        ]
    )
    assert children.min() >= -0.8 and children.max() <= 0.8
    assert children.min() < -0.45 and children.max() > 0.45  # leaves the hull


def test_run_zero_steps_evaluates_initial_population():
    problem = QuadraticProblem(dimension=3)
    buffer = run_ga(problem, GaConfig(), EsConfig(budget=1, population_size=5))
    assert buffer.n_generations == 1
    assert len(buffer) == 5
    seeding = problem.bounds.central()
    for record in every_record(buffer):
        assert seeding.contains(record.design)


def test_generation_size_and_stream_come_from_the_loop_config():
    problem = QuadraticProblem(dimension=2)
    config = EsConfig(budget=3, population_size=5, seed=0)
    buffer = run_optimization(problem, GaSearch(GaConfig()), config)
    assert [len(buffer.generation(g)) for g in range(3)] == [5, 5, 5]
    other = run_ga(problem, GaConfig(), EsConfig(budget=3, population_size=5, seed=1))
    assert not np.array_equal(
        buffer.generation(0)[0].design, other.generation(0)[0].design
    )


def test_convergence_frozen_value():
    problem = QuadraticProblem(dimension=3)
    config = EsConfig(budget=41, population_size=16, seed=7)
    buffer = run_ga(problem, GaConfig(), config)
    best = buffer.best_record()
    assert best.score == pytest.approx(-1.0981511345801599e-06, rel=1e-9)
    assert np.allclose(best.design, 0.3, atol=0.01)


def test_reproducible_runs():
    problem = QuadraticProblem(dimension=3)
    config = EsConfig(budget=9, population_size=6, seed=12)
    a = run_ga(problem, GaConfig(), config)
    b = run_ga(problem, GaConfig(), config)
    for ra, rb in zip(every_record(a), every_record(b)):
        assert ra.score == rb.score
        assert np.array_equal(ra.design, rb.design)


def test_resume_matches_uninterrupted():
    problem = QuadraticProblem(dimension=3)
    cfg = GaConfig()
    config = EsConfig(budget=11, population_size=6, seed=9)
    full = run_ga(problem, cfg, config)
    partial = run_ga(problem, cfg, EsConfig(budget=5, population_size=6, seed=9))
    resumed = run_ga(problem, cfg, config, initial_buffer=partial)
    assert resumed.n_generations == 11
    for ra, rb in zip(every_record(full), every_record(resumed)):
        assert ra.score == rb.score and np.array_equal(ra.design, rb.design)


def test_resume_with_complete_buffer_is_a_no_op():
    problem = QuadraticProblem(dimension=3)
    config = EsConfig(budget=4, population_size=4, seed=2)
    done = run_ga(problem, GaConfig(), config)
    again = run_ga(problem, GaConfig(), config, initial_buffer=done)
    assert again is done
    assert again.n_generations == 4


def test_elitism_makes_generation_best_monotone():
    problem = QuadraticProblem(dimension=3)
    config = EsConfig(budget=26, population_size=8, seed=4)
    buffer = run_ga(problem, GaConfig(), config)  # ELITE_COUNT = 1
    bests = [buffer.best_in(g).score for g in range(26)]
    assert np.all(np.diff(bests) >= 0.0)


def test_explicit_init_range_is_honored():
    class NarrowSeeding:
        bounds = Bounds.uniform(3, -1.0, 1.0)
        init_range = Bounds.uniform(3, 0.9, 1.0)
        penalty_score = -1.0e3
        objective = "test objective"

        def evaluate(self, x):
            return -float(x @ x)

    config = EsConfig(budget=1, population_size=6)
    buffer = run_ga(NarrowSeeding(), GaConfig(), config)
    assert len(buffer) == 6
    for record in every_record(buffer):
        assert np.all(record.design >= 0.9) and np.all(record.design <= 1.0)


class CountingQuadratic(QuadraticProblem):
    """QuadraticProblem that counts its calls per design."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = collections.Counter()

    def evaluate(self, x):
        self.calls[x.tobytes()] += 1
        return super().evaluate(x)


def score_every_design(problem, designs, generation, mapper=map, buffer=None):
    """The loop's scoring step without a memo: every design, every time."""
    return [ScoredRecord(d, problem.evaluate(d), generation) for d in designs]


def test_each_distinct_design_is_scored_once(tmp_path, monkeypatch):
    config = EsConfig(budget=20, population_size=6, seed=3)
    problem = CountingQuadratic(dimension=3)
    memo = tmp_path / "memo.jsonl"
    buffer = run_ga(
        problem, GaConfig(), config, on_generation=RecordWriter(memo, problem.bounds)
    )
    distinct = {record.design.tobytes() for record in every_record(buffer)}
    # every generation after the first copies the elite of the one before
    assert len(distinct) <= len(buffer) - 19
    assert set(problem.calls) == distinct
    assert max(problem.calls.values()) == 1

    monkeypatch.setattr(evolution, "evaluate_designs", score_every_design)
    plain = QuadraticProblem(dimension=3)
    every = tmp_path / "every.jsonl"
    run_ga(plain, GaConfig(), config, on_generation=RecordWriter(every, plain.bounds))
    assert memo.read_bytes() == every.read_bytes()


def test_resume_scores_no_design_already_ok_on_disk(tmp_path):
    problem = QuadraticProblem(dimension=3)
    bounds = problem.bounds
    config = EsConfig(budget=6, population_size=6, seed=9)
    full, cut = tmp_path / "full.jsonl", tmp_path / "cut.jsonl"
    run_ga(problem, GaConfig(), config, on_generation=RecordWriter(full, bounds))
    first_two = EsConfig(budget=2, population_size=6, seed=9)
    run_ga(problem, GaConfig(), first_two, on_generation=RecordWriter(cut, bounds))
    on_disk = load_records(cut, 6, 3)
    stored = {r.design.tobytes() for r in every_record(on_disk) if r.status == "ok"}
    counting = CountingQuadratic(dimension=3)
    writer = RecordWriter(cut, bounds, start_index=len(on_disk))
    run_ga(counting, GaConfig(), config, initial_buffer=on_disk, on_generation=writer)
    assert stored and not stored & set(counting.calls)
    assert cut.read_bytes() == full.read_bytes()


def test_generation_streams_match_search_loop_convention():
    # same seed and generation index give the same stream in both loops
    a = generation_rng(10, 2).random(5)
    b = generation_rng(10, 2).random(5)
    assert np.array_equal(a, b)

