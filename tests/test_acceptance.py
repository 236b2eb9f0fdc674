"""End-to-end acceptance gates.

Each test pins one external contract of the package: solver accuracy
against closed-form oracles, geometric constraint satisfaction, encoding
and selection semantics, optimizer quality on the drag problem, harness
parity between the two optimizers, and bit-level reproducibility.  The
drag-campaign fixtures are module-scoped because several gates share the
same deterministic runs.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import minimize

from shapeopt import evolution
from shapeopt.axisym import (
    GeometricConstraint,
    compute_area,
    compute_volume,
    integrate_profile,
    rescale_to_constraint,
)
from shapeopt.cli import main
from shapeopt.evolution import (
    Bounds,
    EsConfig,
    EvaluationFailed,
    GaussianSearch,
    RecordBuffer,
    ScoredRecord,
    decode_design,
    encode_design,
    run_optimization,
    select_records,
)
from shapeopt.llm import MockProposer
from shapeopt.problems import AxisymDragProblem
from shapeopt.stokesbem import mesh_from_meridian, solve_drag

SEEDS = (0, 1, 2, 3, 4)
SPHERE = np.array([-math.pi / 2])


def best_drag_ratio(n_modes: int, seed: int, n_initial: int) -> float:
    """Best normalized drag of one mock-guided run at the standard budget."""
    problem = AxisymDragProblem(n_modes=n_modes)
    cfg = EsConfig(
        budget=40, population_size=8, n_initial=n_initial, seed=seed
    )
    buffer = run_optimization(problem, GaussianSearch(MockProposer()), cfg)
    return -buffer.best_record().score


@pytest.fixture(scope="module")
def k2_campaign():
    start = time.perf_counter()
    bests = {seed: best_drag_ratio(2, seed, 2) for seed in SEEDS}
    return bests, time.perf_counter() - start


@pytest.fixture(scope="module")
def k5_campaign():
    return {seed: best_drag_ratio(5, seed, 2) for seed in SEEDS}


@pytest.fixture(scope="module")
def seeding_campaign(k2_campaign):
    bests2, _ = k2_campaign
    means = {2: float(np.mean(list(bests2.values())))}
    for n_initial in (1, 4):
        bests = [best_drag_ratio(2, seed, n_initial) for seed in SEEDS]
        means[n_initial] = float(np.mean(bests))
    return means


def test_sphere_drag_matches_stokes_law():
    problem = AxisymDragProblem(n_modes=1, n_elements=200)
    start = time.perf_counter()
    score, profile, result = problem.evaluate_detail(SPHERE)
    elapsed = time.perf_counter() - start
    assert 0.995 <= result.normalized <= 1.005
    assert profile.lam == pytest.approx(math.pi / 2, rel=1e-5)
    assert elapsed < 10.0


def test_spheroid_drag_matches_oberbeck_formula():
    # closed-form axial drag of a prolate spheroid with semi-axes a > b:
    # F = 16 pi c / ((1 + xi0^2) ln((xi0+1)/(xi0-1)) - 2 xi0),
    # c = sqrt(a^2 - b^2), xi0 = a / c.  Aspect ratio 2 at unit-sphere volume.
    a, b = 2.0 ** (2.0 / 3.0), 2.0 ** (-1.0 / 3.0)
    assert 4.0 / 3.0 * math.pi * a * b * b == pytest.approx(4.0 * math.pi / 3.0)
    c = math.sqrt(a * a - b * b)
    xi0 = a / c
    exact = 16.0 * math.pi * c / (
        (1.0 + xi0 * xi0) * math.log((xi0 + 1.0) / (xi0 - 1.0)) - 2.0 * xi0
    )
    assert exact == pytest.approx(18.012043703166142, rel=1e-12)

    theta = np.linspace(0.0, math.pi, 4001)
    r = b * np.sin(theta)
    z = -a * np.cos(theta)
    speed = np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)
    arclength = cumulative_trapezoid(speed, theta, initial=0.0)
    result = solve_drag(mesh_from_meridian(r, z, arclength, 200))
    assert abs(result.drag - exact) / exact < 0.01


def test_rescaling_meets_constraint_targets():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        n_modes = int(rng.integers(1, 7))
        coeffs = rng.uniform(-math.pi, math.pi, n_modes)
        profile = integrate_profile(coeffs)
        for constraint, measure in (
            (GeometricConstraint.fixed_volume(), compute_volume),
            (GeometricConstraint.fixed_area(), compute_area),
        ):
            scaled = rescale_to_constraint(profile, constraint)
            assert (
                abs(measure(scaled) - constraint.target) / constraint.target
                <= 1e-10
            )
            assert abs(scaled.r[-1]) <= 1e-10  # meridian closes onto the axis
        checked += 1
    assert checked == 100


@pytest.mark.parametrize(
    "constraint, low, high",
    [
        # Bourot (1974, J. Fluid Mech. 65:513) gives 0.95425 for the optimum
        # over all bodies; K=2 at n=120 reads 0.9542974 after 96 evaluations.
        pytest.param(GeometricConstraint.fixed_volume(), 0.95425, 0.95440, id="volume"),
        # No published value; measured in this repository: 0.8872024.
        pytest.param(
            GeometricConstraint.fixed_area(), 0.887202 - 1e-4, 0.887202 + 1e-4, id="area"
        ),
    ],
)
def test_local_search_from_the_sphere_finds_the_benchmark_optimum(constraint, low, high):
    # Nelder-Mead draws no random numbers, so the search is deterministic.
    problem = AxisymDragProblem(n_modes=2, constraint=constraint)

    def normalized_drag(x):
        try:
            return -problem.evaluate(x)
        except EvaluationFailed:
            return -problem.penalty_score

    best = minimize(normalized_drag, [-math.pi / 2, 0.0], method="Nelder-Mead")
    assert low <= best.fun <= high


def test_mock_guided_search_beats_the_sphere(k2_campaign):
    bests, elapsed = k2_campaign
    for seed in SEEDS:
        assert bests[seed] < 0.99, f"seed {seed}: best D_r {bests[seed]:.6f}"
    assert float(np.mean(list(bests.values()))) < 0.98
    assert elapsed < 900.0


def test_richer_parametrization_is_no_worse(k2_campaign, k5_campaign):
    bests2, _ = k2_campaign
    for seed in SEEDS:
        assert k5_campaign[seed] <= bests2[seed] + 0.005
    assert min(k5_campaign.values()) <= min(bests2.values()) + 0.005


def test_record_selection_matches_brute_force(monkeypatch):
    def brute_force(buffer, top, recent, designs):
        bests = [
            max(r.score for r in buffer.generation(g))
            for g in range(buffer.n_generations)
        ]
        ranked = sorted(range(buffer.n_generations), key=lambda g: (bests[g], g))
        chosen = set(ranked[max(0, len(ranked) - top):])
        chosen |= set(
            range(
                max(0, buffer.n_generations - recent),
                buffer.n_generations,
            )
        )
        out = []
        for g in ranked:
            if g in chosen:
                ordered = sorted(buffer.generation(g), key=lambda r: r.score)
                out.extend(ordered[-designs:])
        return out

    rng = np.random.default_rng(99)
    for _ in range(1000):
        buffer = RecordBuffer()
        for g in range(int(rng.integers(1, 10))):
            buffer.append_generation(
                [
                    ScoredRecord(np.array([float(i)]), float(s), g)
                    for i, s in enumerate(rng.normal(size=rng.integers(1, 8)))
                ]
            )
        top, recent = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        if top + recent == 0:
            continue
        designs = int(rng.integers(1, 6))
        monkeypatch.setattr(evolution, "TOP_GENERATIONS", top)
        monkeypatch.setattr(evolution, "RECENT_GENERATIONS", recent)
        monkeypatch.setattr(evolution, "DESIGNS_PER_GENERATION", designs)
        ours = [
            (r.generation, r.score, float(r.design[0]))
            for r in select_records(buffer)
        ]
        ref = [
            (r.generation, r.score, float(r.design[0]))
            for r in brute_force(buffer, top, recent, designs)
        ]
        assert ours == ref


def test_encoding_round_trip_quantization_bound():
    rng = np.random.default_rng(7)
    total = 0
    for _ in range(10):
        d = 10_000  # each component is an independent (x, bounds) pair
        lower = rng.uniform(-100.0, 100.0, d)
        width = rng.uniform(1e-6, 200.0, d)
        bounds = Bounds(lower, lower + width)
        x = lower + rng.random(d) * width
        back = decode_design(encode_design(x, bounds), bounds)
        assert np.all(np.abs(back - x) <= width / 2000.0)
        total += d
    bounds = Bounds(np.array([-1.0]), np.array([1.0]))
    for edge in (-1.0, 1.0, 0.0):
        back = decode_design(encode_design(np.array([edge]), bounds), bounds)
        assert abs(back[0] - edge) <= 2.0 / 2000.0
    assert total == 100_000


def test_airfoil_parameterization_contracts():
    from shapeopt.airfoil import (
        params_to_polar,
        polar_to_params,
        sector_interval,
        shaped_reward,
        tangent_angle_at_point,
    )

    rng = np.random.default_rng(11)
    for _ in range(500):
        p, q, m = rng.uniform(-1.0, 1.0, 3)
        index = int(rng.integers(0, 4))
        point = params_to_polar(p, q, m, index)
        lo, hi = sector_interval(index)
        assert lo - 1e-12 <= point.theta <= hi + 1e-12
        assert np.allclose(polar_to_params(point), (p, q, m), atol=1e-12)
    # weight endpoints select exactly one neighbor chord angle
    assert tangent_angle_at_point(1.0, 0.7, -0.4) == pytest.approx(0.7)
    assert tangent_angle_at_point(0.0, 0.7, -0.4) == pytest.approx(-0.4)
    # reward branch table
    assert shaped_reward(0.5) == 1.0
    assert shaped_reward(-0.3) == -0.3


def test_ga_and_search_loop_share_record_formats(tmp_path):
    base = {
        "problem": "analytic_test",
        "optimizer": "mock",
        "budget": 10,
        "population_size": 4,
        "n_ini": 1,
        "seeds": list(SEEDS),
        "dimension": 2,
    }
    roots = {}
    for optimizer in ("mock", "ga"):
        config_path = tmp_path / f"{optimizer}.json"
        config_path.write_text(json.dumps({**base, "optimizer": optimizer}))
        roots[optimizer] = tmp_path / optimizer
        assert main(
            ["run", "--config", str(config_path), "--out", str(roots[optimizer])]
        ) == 0

    schemas = set()
    for optimizer, root in roots.items():
        for seed in SEEDS:
            lines = (root / f"seed_{seed}" / "records.jsonl").read_text().splitlines()
            assert len(lines) == base["budget"] * base["population_size"]
            schemas |= {tuple(sorted(json.loads(line))) for line in lines}
            header = (
                (root / f"seed_{seed}" / "trajectory.csv").read_text().splitlines()[0]
            )
            assert header == "generation,best_score_in_generation,best_score_so_far"
    assert schemas == {
        ("design", "encoded", "generation", "score", "status", "timestamp")
    }

    # five-seed aggregation: per-generation mean with a min-max band per method
    table = tmp_path / "comparison.csv"
    assert main(
        ["compare", "--runs", str(roots["mock"]), str(roots["ga"]),
         "--out", str(table)]
    ) == 0
    rows = table.read_text().splitlines()
    assert rows[0].split(",") == [
        "generation",
        "mock_mean", "mock_min", "mock_max",
        "ga_mean", "ga_min", "ga_max",
    ]
    assert len(rows) == 1 + base["budget"]
    for row in rows[1:]:
        cells = [float(v) for v in row.split(",")[1:]]
        assert cells[1] <= cells[0] <= cells[2]
        assert cells[4] <= cells[3] <= cells[5]


def test_seeding_count_does_not_change_converged_drag(seeding_campaign):
    means = seeding_campaign
    assert set(means) == {1, 2, 4}
    spread = max(means.values()) - min(means.values())
    assert spread <= 0.01, f"mean best D_r by n_ini: {means}"


def test_records_are_bit_reproducible_with_resume(tmp_path):
    config = {
        "problem": "axisym_volume",
        "optimizer": "mock",
        "budget": 4,
        "population_size": 3,
        "n_ini": 1,
        "seeds": [0],
        "K": 1,
        "n_samples": 201,
        "n_elements": 8,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def records_bytes(name, resume=False, truncate_to=None):
        out = tmp_path / name
        argv = ["run", "--config", str(config_path), "--out", str(out)]
        assert main(argv) == 0
        path = out / "seed_0" / "records.jsonl"
        if truncate_to is not None:
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[:truncate_to]) + "\n")
            assert main(argv + ["--resume"]) == 0
        return path.read_bytes()

    first = records_bytes("run_a")
    second = records_bytes("run_b")
    assert first == second
    # kill mid-generation two and resume: same bytes again
    resumed = records_bytes("run_c", truncate_to=5)
    assert resumed == first
