"""Core search loop: encoding, records, selection, sampling, orchestration."""

import collections
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeopt import evolution
from shapeopt.evolution import (
    Bounds,
    EsConfig,
    EvaluationFailed,
    GaussianSearch,
    ProposerError,
    RecordBuffer,
    ScoredRecord,
    decode_design,
    encode_design,
    evaluate_designs,
    generation_rng,
    run_optimization,
    sample_generation,
    select_records,
)
from shapeopt.rundir import RecordWriter, load_records


def every_record(buffer):
    """The buffer's records in evaluation order, generation by generation."""
    return [r for g in range(buffer.n_generations) for r in buffer.generation(g)]


def set_selection(monkeypatch, top, recent, designs):
    monkeypatch.setattr(evolution, "TOP_GENERATIONS", top)
    monkeypatch.setattr(evolution, "RECENT_GENERATIONS", recent)
    monkeypatch.setattr(evolution, "DESIGNS_PER_GENERATION", designs)


def buffer_from_scores(score_lists):
    buffer = RecordBuffer()
    for g, scores in enumerate(score_lists):
        buffer.append_generation(
            [ScoredRecord(np.array([float(i)]), s, g) for i, s in enumerate(scores)]
        )
    return buffer


# ---------------------------------------------------------------- encoding

def test_encode_examples():
    b = Bounds.uniform(1, -1.0, 1.0)
    assert encode_design(np.array([-1.0]), b)[0] == 0
    assert encode_design(np.array([1.0]), b)[0] == 1000
    assert encode_design(np.array([0.0]), b)[0] == 500
    assert encode_design(np.array([0.1234]), b)[0] == 562


def test_encode_ties_round_away_from_zero():
    b = Bounds.uniform(1, 0.0, 1000.0)
    assert encode_design(np.array([0.5]), b)[0] == 1
    assert encode_design(np.array([1.5]), b)[0] == 2
    assert encode_design(np.array([2.5]), b)[0] == 3


def test_decode_examples():
    b = Bounds.uniform(2, -1.0, 1.0)
    assert np.array_equal(decode_design(np.array([0, 1000]), b), [-1.0, 1.0])
    assert decode_design(np.array([500, 500]), b)[0] == 0.0


def test_codec_errors():
    b = Bounds.uniform(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        encode_design(np.array([0.0]), b)  # dimension mismatch
    with pytest.raises(ValueError):
        encode_design(np.array([0.0, 1.5]), b)  # outside bounds
    with pytest.raises(ValueError):
        decode_design(np.array([0, 1001]), b)
    with pytest.raises(ValueError):
        decode_design(np.array([0.5, 1.0]), b)  # non-integers


def box_values(b, i):
    """Values of component ``i``: box edges, round-off outside them,
    half-steps of the grid, signed zeros and tiny numbers inside."""
    lo, hi = float(b.lower[i]), float(b.upper[i])
    edges = [lo, hi, lo - 5e-10, hi + 5e-10]
    inside = [v for v in (0.0, -0.0, 1e-300, -1e-300) if lo <= v <= hi]
    half_steps = st.integers(0, 999).map(lambda k: lo + (k + 0.5) * (hi - lo) / 1000)
    return st.one_of(st.sampled_from(edges + inside), half_steps, st.floats(lo, hi))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matrix_encoding_is_its_rows(data):
    d = data.draw(st.integers(1, 5))
    lower = np.array([data.draw(st.sampled_from([-1.0, -50.0, 0.0, 0.3])) for _ in range(d)])
    width = np.array([data.draw(st.sampled_from([1.0, 2.0, 7.5, 1e-3])) for _ in range(d)])
    b = Bounds(lower, lower + width)
    m = data.draw(st.integers(1, 6))
    x = np.array([[data.draw(box_values(b, i)) for i in range(d)] for _ in range(m)])
    matrix = encode_design(x, b)
    rows = np.array([encode_design(row, b) for row in x])
    assert matrix.shape == (m, d) and matrix.dtype == rows.dtype
    assert np.array_equal(matrix, rows)
    assert matrix.tolist() == [[int(v) for v in row] for row in rows]

    def refusal(designs):
        with pytest.raises(ValueError) as excinfo:
            encode_design(designs, b)
        return str(excinfo.value)

    outside = x.copy()
    row = data.draw(st.integers(0, m - 1))
    outside[row, data.draw(st.integers(0, d - 1))] = b.upper[0] + 100.0
    assert refusal(outside) == refusal(outside[row]) == "design lies outside the bounds"
    wide = np.hstack([x, x[:, :1]])
    assert refusal(wide) == refusal(wide[0]) == "design has the wrong dimension"
    assert refusal(x[None]) == refusal(x[0, 0]) == "design has the wrong dimension"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_round_trip_quantization_bound(data):
    d = data.draw(st.integers(1, 6))
    lower = np.array(
        [data.draw(st.floats(-50, 49, allow_nan=False)) for _ in range(d)]
    )
    width = np.array(
        [data.draw(st.floats(1e-3, 100, allow_nan=False)) for _ in range(d)]
    )
    b = Bounds(lower, lower + width)
    x = np.array(
        [data.draw(st.floats(0.0, 1.0)) for _ in range(d)]
    ) * width + lower
    x = b.clamp(x)
    back = decode_design(encode_design(x, b), b)
    assert np.all(np.abs(back - x) <= (b.upper - b.lower) / 2000 + 1e-12)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))  # equal bound
    with pytest.raises(ValueError):
        Bounds(np.array([0.0]), np.array([1.0, 2.0]))  # shape mismatch
    b = Bounds.uniform(3, -2.0, 4.0)
    assert np.array_equal(b.half_width, [3.0, 3.0, 3.0])
    assert np.array_equal(b.center, [1.0, 1.0, 1.0])
    central = b.central()
    assert np.array_equal(central.lower, [-0.5, -0.5, -0.5])
    assert np.array_equal(central.upper, [2.5, 2.5, 2.5])


def test_bounds_contain_points_within_round_off():
    b = Bounds.uniform(2, -1.0, 1.0)
    assert b.contains([1.0 + 5e-10, -1.0 - 5e-10])
    assert not b.contains([1.0 + 2e-9, 0.0])
    assert not b.contains([0.0, -1.0 - 2e-9])


# ----------------------------------------------------------------- records

def test_buffer_contiguity():
    buffer = RecordBuffer()
    buffer.append_generation([ScoredRecord(np.zeros(1), 1.0, 0)])
    with pytest.raises(ValueError):
        buffer.append_generation([ScoredRecord(np.zeros(1), 1.0, 2)])
    with pytest.raises(ValueError):
        buffer.append_generation([])
    assert buffer.n_generations == 1 and len(buffer) == 1


def test_best_in_generation_stable_ties():
    buffer = buffer_from_scores([[1.0, 2.0, 2.0]])
    best = buffer.best_in(0)
    assert best.score == 2.0 and best.design[0] == 1.0  # first of the tie


def test_best_record_ties_keep_the_earliest_generation():
    buffer = buffer_from_scores([[1.0, 2.0], [2.0, 0.5], [-np.inf], [2.0]])
    assert buffer.best_record() is buffer.generation(0)[1]
    buffer = buffer_from_scores([[-np.inf, -np.inf], [-np.inf]])
    assert buffer.best_record() is buffer.generation(0)[0]


def test_record_status_validation():
    with pytest.raises(ValueError):
        ScoredRecord(np.zeros(1), 0.0, 0, status="maybe")


# --------------------------------------------------------------- selection

def test_rank_generations_examples():
    assert buffer_from_scores([[1.0]]).top_ranks(1) == [(1.0, 0)]
    assert buffer_from_scores([[1.0], [3.0], [2.0]]).top_ranks(3) == [
        (1.0, 0),
        (2.0, 2),
        (3.0, 1),
    ]
    assert buffer_from_scores([[5.0], [5.0], [5.0]]).top_ranks(3) == [
        (5.0, 0),
        (5.0, 1),
        (5.0, 2),
    ]
    with pytest.raises(ValueError, match="empty"):
        select_records(RecordBuffer())


def test_rank_best_scores_non_decreasing():
    rng = np.random.default_rng(2)
    buffer = buffer_from_scores(rng.normal(size=(8, 4)).tolist())
    order = [g for _, g in buffer.top_ranks(8)]
    assert sorted(order) == list(range(8))
    bests = [buffer.best_in(g).score for g in order]
    assert all(a <= b for a, b in zip(bests, bests[1:]))


def test_select_records_worked_example(monkeypatch):
    # three generations of 4; T=1 picks the generation whose best is 3.0,
    # R=1 adds the newest; within each, the top-2 ascending, best last
    buffer = buffer_from_scores(
        [[0.2, 1.0, 0.5, 0.1], [1.5, 3.0, 0.3, 0.9], [2.0, 0.4, 0.6, 1.1]]
    )
    set_selection(monkeypatch, top=1, recent=1, designs=2)
    out = select_records(buffer)
    assert [(r.generation, r.score) for r in out] == [
        (2, 1.1),
        (2, 2.0),
        (1, 1.5),
        (1, 3.0),
    ]


def test_select_records_saturation_and_m_cap(monkeypatch):
    buffer = buffer_from_scores([[1.0, 2.0], [4.0, 3.0]])
    set_selection(monkeypatch, top=5, recent=5, designs=10)
    out = select_records(buffer)
    assert len(out) == 4  # every record, capped by generation sizes
    assert out[-1].score == 4.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0]), min_size=1, max_size=4
        ),
        min_size=1,
        max_size=40,
    )
)
def test_rank_generations_matches_brute_force(score_lists):
    # few distinct scores, so most generations tie on their best
    buffer = buffer_from_scores(score_lists)
    bests = [max(scores) for scores in score_lists]
    assert buffer.top_ranks(len(bests)) == sorted(zip(bests, range(len(bests))))


def test_rebuilt_buffer_ranks_like_the_written_one(tmp_path):
    rng = np.random.default_rng(11)
    bounds = Bounds.uniform(2, -1.0, 1.0)
    path = tmp_path / "records.jsonl"
    writer = RecordWriter(path, bounds)
    written = RecordBuffer()
    for g in range(60):
        scores = rng.integers(-3, 3, size=4).astype(float)  # ties across generations
        records = [ScoredRecord(bounds.sample_uniform(rng), s, g) for s in scores]
        written.append_generation(records)
        writer(records)
    rebuilt = load_records(path, population_size=4, dimension=2)
    bests = [max(r.score for r in written.generation(g)) for g in range(60)]
    assert written.top_ranks(60) == rebuilt.top_ranks(60) == sorted(zip(bests, range(60)))


def test_select_records_reads_only_the_chosen_generations(monkeypatch):
    rng = np.random.default_rng(3)
    buffer = buffer_from_scores(np.round(rng.normal(size=(600, 8)), 1).tolist())
    reads = collections.Counter()
    for name in ("generation", "best_in"):
        method = getattr(RecordBuffer, name)

        def counted(self, index, method=method, name=name):
            reads[name] += 1
            return method(self, index)

        monkeypatch.setattr(RecordBuffer, name, counted)
    out = select_records(buffer)
    chosen = evolution.TOP_GENERATIONS + evolution.RECENT_GENERATIONS
    assert reads["generation"] <= chosen and reads["best_in"] <= chosen
    monkeypatch.undo()
    ref = brute_force_select(
        buffer,
        evolution.TOP_GENERATIONS,
        evolution.RECENT_GENERATIONS,
        evolution.DESIGNS_PER_GENERATION,
    )
    assert [(r.generation, r.score) for r in out] == [(r.generation, r.score) for r in ref]


def brute_force_select(buffer, top, recent, designs):
    """Straight reimplementation of the stated selection rule."""
    bests = [
        max(r.score for r in buffer.generation(g))
        for g in range(buffer.n_generations)
    ]
    ranked = sorted(range(buffer.n_generations), key=lambda g: (bests[g], g))
    chosen = set(ranked[max(0, len(ranked) - top) :] if top else [])
    chosen |= set(range(max(0, buffer.n_generations - recent), buffer.n_generations))
    out = []
    for g in ranked:
        if g not in chosen:
            continue
        recs = sorted(buffer.generation(g), key=lambda r: r.score)
        out.extend(recs[-designs:])
    return out


def test_select_records_matches_brute_force(monkeypatch):
    rng = np.random.default_rng(17)
    for _ in range(200):
        n_gen = int(rng.integers(1, 9))
        buffer = buffer_from_scores(
            [rng.normal(size=rng.integers(1, 7)).tolist() for _ in range(n_gen)]
        )
        top, recent = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        if top + recent == 0:
            continue
        designs = int(rng.integers(1, 5))
        set_selection(monkeypatch, top, recent, designs)
        ours = select_records(buffer)
        ref = brute_force_select(buffer, top, recent, designs)
        assert [(r.generation, r.score) for r in ours] == [
            (r.generation, r.score) for r in ref
        ]
        assert len(ours) <= (top + recent) * designs


# ---------------------------------------------------------------- sampling

def test_sampling_is_deterministic_and_clamped():
    b = Bounds.uniform(3, -1.0, 1.0)
    a = sample_generation(np.zeros(3), 5.0, 40, b, generation_rng(1, 0))
    c = sample_generation(np.zeros(3), 5.0, 40, b, generation_rng(1, 0))
    assert np.array_equal(a, c)
    assert a.min() >= -1.0 and a.max() <= 1.0


def test_sampling_statistics():
    b = Bounds.uniform(2, -1.0, 1.0)
    samples = sample_generation(np.zeros(2), 0.1, 10000, b, np.random.default_rng(0))
    assert np.all(np.abs(samples.mean(axis=0)) < 0.004)  # 4 sigma / sqrt(N)


def test_sampling_tiny_sigma_degenerates_to_mean():
    b = Bounds.uniform(2, -1.0, 1.0)
    mean = np.array([0.3, -0.7])
    samples = sample_generation(mean, 1e-300, 5, b, np.random.default_rng(0))
    assert np.allclose(samples, mean, atol=1e-12)


def test_sampling_mean_out_of_bounds():
    b = Bounds.uniform(1, -1.0, 1.0)
    with pytest.raises(ValueError):
        sample_generation(np.array([2.0]), 0.1, 2, b, np.random.default_rng(0))


def test_generation_rng_streams():
    assert np.array_equal(
        generation_rng(7, 3).standard_normal(4), generation_rng(7, 3).standard_normal(4)
    )
    assert not np.array_equal(
        generation_rng(7, 3).standard_normal(4), generation_rng(7, 4).standard_normal(4)
    )
    assert not np.array_equal(
        generation_rng(7, 3).standard_normal(4), generation_rng(8, 3).standard_normal(4)
    )


# ------------------------------------------------------------ orchestration

class QuadProblem:
    def __init__(self, dimension=2, center=0.3):
        self.bounds = Bounds.uniform(dimension, -1.0, 1.0)
        self.init_range = self.bounds.central()
        self.center = np.full(dimension, center)
        self.penalty_score = -100.0
        self.objective = "test objective"

    def evaluate(self, x):
        delta = x - self.center
        return -float(delta @ delta)


class CentroidProposer:
    """Average of the record designs; pure and deterministic."""

    def __init__(self):
        self.calls = 0

    def propose(self, records, bounds):
        self.calls += 1
        return np.mean([r.design for r in records], axis=0)


def test_initialization_only():
    problem = QuadProblem()
    proposer = CentroidProposer()
    cfg = EsConfig(budget=2, population_size=5, n_initial=2, seed=0)
    buffer = run_optimization(problem, GaussianSearch(proposer), cfg)
    assert len(buffer) == 10
    assert proposer.calls == 0


def test_convergence_with_centroid_proposer():
    problem = QuadProblem()
    cfg = EsConfig(budget=30, population_size=8, seed=0)
    buffer = run_optimization(problem, GaussianSearch(CentroidProposer()), cfg)
    sigma = 0.1 * problem.bounds.half_width[0]
    assert np.all(np.abs(buffer.best_record().design - problem.center) <= 2 * sigma)


def test_bit_reproducibility():
    problem = QuadProblem()
    cfg = EsConfig(budget=12, population_size=4, seed=3)
    a = run_optimization(problem, GaussianSearch(CentroidProposer()), cfg)
    b = run_optimization(problem, GaussianSearch(CentroidProposer()), cfg)
    for ra, rb in zip(every_record(a), every_record(b)):
        assert ra.score == rb.score
        assert np.array_equal(ra.design, rb.design)


def test_resume_matches_uninterrupted():
    problem = QuadProblem()
    cfg = EsConfig(budget=14, population_size=4, seed=5)
    full = run_optimization(problem, GaussianSearch(CentroidProposer()), cfg)
    part = run_optimization(
        problem,
        GaussianSearch(CentroidProposer()),
        EsConfig(budget=6, population_size=4, seed=5),
    )
    resumed = run_optimization(
        problem, GaussianSearch(CentroidProposer()), cfg, initial_buffer=part
    )
    for ra, rb in zip(every_record(full), every_record(resumed)):
        assert ra.score == rb.score and np.array_equal(ra.design, rb.design)


class FailingProblem(QuadProblem):
    def evaluate(self, x):
        raise EvaluationFailed("always broken")


def test_failing_evaluator_records_penalty():
    problem = FailingProblem()
    cfg = EsConfig(budget=4, population_size=3, seed=0)
    buffer = run_optimization(problem, GaussianSearch(CentroidProposer()), cfg)
    records = every_record(buffer)
    assert len(records) == 12
    assert all(r.score == problem.penalty_score for r in records)
    assert all(r.status == "failed" for r in records)


def test_parallel_evaluation_matches_serial():
    problem = QuadProblem()
    designs = np.random.default_rng(0).uniform(-1, 1, (16, 2))
    serial = evaluate_designs(problem, designs, 0, map, RecordBuffer())
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = evaluate_designs(problem, designs, 0, pool.map, RecordBuffer())
    assert [r.score for r in serial] == [r.score for r in parallel]


class CountingProblem(QuadProblem):
    """Counts its calls per design; each design's first ``flaky`` calls fail."""

    def __init__(self, flaky=0):
        super().__init__()
        self.flaky = flaky
        self.calls = collections.Counter()
        self.lock = threading.Lock()

    def evaluate(self, x):
        with self.lock:
            self.calls[x.tobytes()] += 1
            n = self.calls[x.tobytes()]
        if n <= self.flaky:
            raise EvaluationFailed("transient failure")
        return super().evaluate(x)


class FixedAsk:
    """Ask strategy that proposes the same designs every generation."""

    def __init__(self, designs):
        self.designs = np.asarray(designs, dtype=float)

    def ask(self, buffer, rng, problem, config):
        return self.designs.copy()


def test_buffer_remembers_ok_designs_by_exact_bits():
    buffer = RecordBuffer()
    buffer.append_generation(
        [
            ScoredRecord(np.array([0.0, 1.0]), -1.0, 0),
            ScoredRecord(np.array([0.5, 0.5]), -100.0, 0, "failed"),
        ]
    )
    assert buffer.known_score(np.array([0.0, 1.0])) == -1.0
    assert buffer.known_score(np.array([-0.0, 1.0])) is None  # other bits
    assert buffer.known_score(np.array([0.5, 0.5])) is None  # failed


def test_identical_designs_in_one_generation_share_one_call_on_a_pool():
    problem = CountingProblem()
    designs = np.array([[0.5, 0.5], [0.5, 0.5]])
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = evaluate_designs(problem, designs, 0, pool.map, RecordBuffer())
    assert sum(problem.calls.values()) == 1
    assert [r.score for r in records] == [problem.evaluate(designs[0])] * 2


def test_failed_design_is_tried_again_and_ok_design_is_not():
    # each design fails its first call: generation 0 fails, 1 scores, 2 remembers
    designs = [[0.1, 0.2], [0.1, 0.2], [-0.0, 0.5], [0.0, 0.5]]
    problem = CountingProblem(flaky=1)
    cfg = EsConfig(budget=3, population_size=4, seed=0)
    buffer = run_optimization(problem, FixedAsk(designs), cfg)
    assert sorted(problem.calls.values()) == [2, 2, 2]  # -0.0 and 0.0 differ
    assert [r.status for r in buffer.generation(0)] == ["failed"] * 4
    assert [r.status for r in buffer.generation(1)] == ["ok"] * 4
    assert [r.score for r in buffer.generation(2)] == [
        r.score for r in buffer.generation(1)
    ]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_score_is_a_failed_design(value):
    class NonFinite(QuadProblem):
        def evaluate(self, x):
            return value

    problem = NonFinite()
    cfg = EsConfig(budget=2, population_size=2, seed=0)
    buffer = run_optimization(problem, FixedAsk([[0.1, 0.2], [0.3, 0.4]]), cfg)
    for record in every_record(buffer):
        assert record.status == "failed" and record.score == problem.penalty_score
        assert buffer.known_score(record.design) is None


class ThreadNamingProblem(QuadProblem):
    """Records the name of every thread that scores a design."""

    def __init__(self):
        super().__init__()
        self.threads = set()

    def evaluate(self, x):
        self.threads.add(threading.current_thread().name)
        return super().evaluate(x)


def test_one_worker_pool_serves_the_whole_run():
    problem = ThreadNamingProblem()
    cfg = EsConfig(budget=6, population_size=8, seed=0, max_workers=2)
    run_optimization(problem, GaussianSearch(CentroidProposer()), cfg)
    assert 1 <= len(problem.threads) <= 2
    assert threading.main_thread().name not in problem.threads

    serial = ThreadNamingProblem()
    cfg = EsConfig(budget=3, population_size=4, seed=0)
    run_optimization(serial, GaussianSearch(CentroidProposer()), cfg)
    assert serial.threads == {threading.main_thread().name}


def test_best_so_far_monotone():
    problem = QuadProblem()
    cfg = EsConfig(budget=20, population_size=4, seed=9)
    buffer = run_optimization(problem, GaussianSearch(CentroidProposer()), cfg)
    bests = [buffer.best_in(g).score for g in range(20)]
    assert np.all(np.diff(np.maximum.accumulate(bests)) >= 0)


class WrongShapeProposer:
    def propose(self, records, bounds):
        return np.zeros(bounds.dimension + 1)


def test_bad_proposal_shape_aborts():
    with pytest.raises(ProposerError):
        run_optimization(
            QuadProblem(),
            GaussianSearch(WrongShapeProposer()),
            EsConfig(budget=4, population_size=2, seed=0),
        )


def test_proposed_mean_is_clamped():
    class HugeProposer:
        def propose(self, records, bounds):
            return np.full(bounds.dimension, 1e6)

    buffer = run_optimization(
        QuadProblem(),
        GaussianSearch(HugeProposer()),
        EsConfig(budget=3, population_size=4, seed=0),
    )
    for record in buffer.generation(2):
        assert np.all(record.design <= 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EsConfig(budget=0)
    with pytest.raises(ValueError):
        EsConfig(budget=1, population_size=0)
    with pytest.raises(ValueError):
        EsConfig(budget=1, n_initial=0)
