"""Problem adapters: analytic, axisymmetric drag, external airfoil."""

import math
import sys

import numpy as np
import pytest

from shapeopt import problems
from shapeopt.airfoil import EvaluatorConfig
from shapeopt.axisym import GeometricConstraint
from shapeopt.evolution import EvaluationFailed, EvaluatorFatal
from shapeopt.problems import (
    COEFF_BOUND,
    AirfoilProblem,
    AxisymDragProblem,
    QuadraticProblem,
)
from shapeopt.stokesbem import MeshError

SPHERE = np.array([-math.pi / 2, 0.0])


# ----------------------------------------------------------------- quadratic

def test_quadratic_maximum_at_target():
    problem = QuadraticProblem(dimension=3)
    assert problem.evaluate(np.full(3, 0.3)) == 0.0
    assert problem.evaluate(np.zeros(3)) == pytest.approx(-3 * 0.09)
    assert problem.bounds.dimension == 3
    assert problem.penalty_score == -1e3
    assert isinstance(problem.objective, str) and problem.objective


def test_quadratic_custom_target_validation():
    problem = QuadraticProblem(dimension=2, target=[0.1, -0.2])
    assert problem.evaluate(np.array([0.1, -0.2])) == 0.0
    with pytest.raises(ValueError):
        QuadraticProblem(dimension=2, target=[0.1, 0.2, 0.3])


# ----------------------------------------------------------- axisym adapter

def test_axisym_validation():
    with pytest.raises(ValueError):
        AxisymDragProblem(n_modes=0)
    with pytest.raises(ValueError):
        AxisymDragProblem(n_modes=9)


def test_axisym_bounds_and_seeding_box():
    problem = AxisymDragProblem(n_modes=2)
    assert np.allclose(problem.bounds.lower, -COEFF_BOUND)
    assert np.allclose(problem.bounds.upper, COEFF_BOUND)
    # seeding centers the leading coefficient on the sphere
    assert np.allclose(problem.init_range.center, SPHERE)
    assert np.allclose(problem.init_range.half_width, math.pi / 4)
    assert problem.bounds.contains(problem.init_range.lower)
    assert problem.bounds.contains(problem.init_range.upper)


def test_axisym_sphere_scores_minus_one():
    problem = AxisymDragProblem(n_modes=2)
    assert problem.evaluate(SPHERE) == pytest.approx(-1.0, abs=5e-4)


def test_axisym_fixed_area_sphere_scores_minus_one():
    problem = AxisymDragProblem(
        n_modes=2, constraint=GeometricConstraint.fixed_area()
    )
    assert problem.evaluate(SPHERE) == pytest.approx(-1.0, abs=5e-4)


def test_axisym_detail_exposes_profile_and_drag():
    problem = AxisymDragProblem(n_modes=2)
    score, profile, result = problem.evaluate_detail(SPHERE)
    assert score == -result.normalized
    assert profile.lam == pytest.approx(math.pi / 2, rel=1e-6)
    assert result.drag == pytest.approx(6 * math.pi * result.normalized)


def test_axisym_inside_out_body_fails():
    problem = AxisymDragProblem(n_modes=2)
    with pytest.raises(EvaluationFailed, match="negative radius"):
        problem.evaluate(np.array([math.pi / 2, 0.0]))


def test_axisym_degenerate_body_fails():
    problem = AxisymDragProblem(n_modes=1)
    with pytest.raises(EvaluationFailed):
        problem.evaluate(np.array([0.0]))  # straight spike, no volume


def test_axisym_traction_profile_shapes():
    problem = AxisymDragProblem(n_modes=2, n_elements=40)
    _, _, result = problem.evaluate_detail(SPHERE)
    q_r, q_z = result.q_r, result.q_z
    assert q_r.shape == q_z.shape == (40,) and result.n_elements == 40
    # a sphere's axial traction is uniform; allow coarse-mesh wiggle
    assert np.std(q_z) / abs(np.mean(q_z)) < 0.05


def test_axisym_score_improves_toward_known_optimum():
    problem = AxisymDragProblem(n_modes=2, n_elements=80)
    sphere_score = problem.evaluate(SPHERE)
    # slight prolate elongation reduces drag at fixed volume
    stretched = problem.evaluate(np.array([-math.pi / 2, -0.3]))
    assert stretched > sphere_score


def raising(exc):
    def fail(*args):
        raise exc

    return fail


@pytest.mark.parametrize(
    "name, exc",
    [
        ("profile_to_mesh", MeshError("midpoint on the axis")),
        ("solve_drag", np.linalg.LinAlgError("singular matrix")),
    ],
)
def test_axisym_mesh_and_solver_errors_fail_the_design(monkeypatch, name, exc):
    monkeypatch.setattr(problems, name, raising(exc))
    with pytest.raises(EvaluationFailed, match=str(exc)):
        AxisymDragProblem(n_modes=2).evaluate(SPHERE)


# Normalized drags of a fixed design panel at 120 elements, frozen from the
# solver so that a change to any numerical layer shows at the 12th digit.
DRAG_PANEL = [
    ("fixed_volume", [-1.5707963267948966, 0.0], 1.000028558457574),
    ("fixed_volume", [-1.4, 0.3], 1.0033013633903736),
    ("fixed_volume", [-1.8, -0.2], 1.0072170202801716),
    ("fixed_area", [-1.5, 0.2, 0.05, 0.0, 0.0], 1.0051481900100623),
    ("fixed_area", [-1.6, -0.1, 0.1, -0.05, 0.02], 0.9941286077157352),
]


@pytest.mark.parametrize("kind, design, drag", DRAG_PANEL)
def test_axisym_panel_drags_are_pinned(kind, design, drag):
    problem = AxisymDragProblem(
        n_modes=len(design),
        constraint=getattr(GeometricConstraint, kind)(),
        n_elements=120,
    )
    _, _, result = problem.evaluate_detail(np.array(design))
    assert result.normalized == pytest.approx(drag, rel=1e-12, abs=0.0)


# ---------------------------------------------------------- airfoil adapter

def stub_evaluator(tmp_path, body):
    path = tmp_path / "stub.py"
    path.write_text(body)
    return EvaluatorConfig(command=[sys.executable, str(path)])


CONSTANT_RATIO = """\
import json, sys
out = sys.argv[sys.argv.index("--out") + 1]
json.dump({"lift": 1.0, "drag": 2.0, "ratio": 0.5}, open(out, "w"))
"""


def test_airfoil_dimension_and_validation():
    assert AirfoilProblem(n_free_points=3).bounds.dimension == 9
    assert AirfoilProblem(n_free_points=1).bounds.dimension == 3
    with pytest.raises(ValueError):
        AirfoilProblem(n_free_points=0)
    with pytest.raises(ValueError):
        AirfoilProblem(n_free_points=5)


def test_airfoil_free_and_fixed_point_mapping():
    # the first n_free_points points are free, in design order
    problem = AirfoilProblem(n_free_points=2)
    x = np.array([0.5, -0.5, 0.25, -0.25, 0.75, -0.75])
    points = problem.control_points(x)
    assert [pt.index for pt in points] == [0, 1, 2, 3]
    # free points decode their (p, q, m) triples
    assert points[0].rho == pytest.approx(0.6 + 1.5 * 1.2)
    assert points[0].theta == pytest.approx(-math.pi / 16)
    assert points[0].sharpness == pytest.approx(0.625)
    assert points[1].rho == pytest.approx(0.6 + 0.75 * 1.2)
    assert points[1].theta == pytest.approx(1.375 * math.pi / 4)
    assert points[1].sharpness == pytest.approx(0.125)
    # fixed points sit exactly at their sector centers
    for pt in points[2:]:
        assert pt.rho == pytest.approx(1.8) and pt.sharpness == 0.5
        assert pt.theta == pytest.approx(pt.index * math.pi / 4)
    with pytest.raises(ValueError):
        problem.control_points(np.zeros(5))


def test_airfoil_entangled_design_fails(tmp_path):
    problem = AirfoilProblem(
        n_free_points=4, evaluator=stub_evaluator(tmp_path, CONSTANT_RATIO)
    )
    crossing = np.array(
        [1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0]
    )
    with pytest.raises(EvaluationFailed, match="entangled"):
        problem.evaluate(crossing)


def test_airfoil_coincident_control_points_fail_before_the_evaluator():
    # points 0 and 1 sit at one radius on the edge their sectors share: a box
    # corner, which the GA reaches by clamping
    problem = AirfoilProblem(
        n_free_points=2, evaluator=EvaluatorConfig(command=["/nonexistent/evaluator"])
    )
    design = np.array([0.2, 1.0, 0.0, 0.2, -1.0, 0.0])
    with pytest.raises(EvaluationFailed, match="coincident"):
        problem.curve(design)
    # an evaluator that cannot start would raise EvaluatorFatal instead
    with pytest.raises(EvaluationFailed, match="coincident"):
        problem.evaluate(design)


def test_airfoil_no_evaluator_is_fatal():
    problem = AirfoilProblem(n_free_points=3)
    with pytest.raises(EvaluatorFatal):
        problem.evaluate(np.zeros(9))
    problem.evaluator = EvaluatorConfig(command=["/nonexistent/evaluator"])
    with pytest.raises(EvaluatorFatal, match="cannot start"):
        problem.evaluate(np.zeros(9))


def test_airfoil_reward_via_stub(tmp_path):
    problem = AirfoilProblem(
        n_free_points=3, evaluator=stub_evaluator(tmp_path, CONSTANT_RATIO)
    )
    # ratio 0.5 over baseline 0 is a gain, doubled by the shaping
    assert problem.evaluate(np.zeros(9)) == pytest.approx(1.0)
    problem.evaluator.baseline_ratio = 0.8
    assert problem.evaluate(np.zeros(9)) == pytest.approx(-0.3)


def test_airfoil_failed_run_raises_evaluation_failed(tmp_path):
    problem = AirfoilProblem(
        n_free_points=3,
        evaluator=stub_evaluator(tmp_path, "raise SystemExit(3)"),
    )
    with pytest.raises(
        EvaluationFailed, match="flow evaluation failed: exited with code 3"
    ):
        problem.evaluate(np.zeros(9))
    assert problem.penalty_score == -5.0


def test_airfoil_non_finite_ratio_raises_evaluation_failed(tmp_path):
    # json.dump writes a float nan as the bare token NaN
    body = CONSTANT_RATIO.replace("0.5", "float('nan')")
    problem = AirfoilProblem(n_free_points=3, evaluator=stub_evaluator(tmp_path, body))
    with pytest.raises(EvaluationFailed, match="flow evaluation failed: no usable"):
        problem.evaluate(np.zeros(9))
