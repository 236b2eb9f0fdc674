"""Optimization problems: analytic test, axisymmetric drag, airfoil.

Each problem owns its bounds, its seeding range, its penalty score, and a
one-line objective description used in proposer prompts.  evaluate()
returns the score to maximize; designs whose geometry cannot be scored
raise EvaluationFailed so the loop records the penalty instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import airfoil as af
from .axisym import (
    FIXED_VOLUME,
    BodyProfile,
    GeometricConstraint,
    InvalidBodyError,
    check_sample_count,
    integrate_profile,
    rescale_to_constraint,
)
from .evolution import LARGEST, Bounds, EvaluationFailed, EvaluatorFatal
from .stokesbem import (
    MAX_ELEMENTS,
    DragResult,
    MeshError,
    profile_to_mesh,
    solve_drag,
)

COEFF_BOUND = math.pi  # tangent-angle coefficients beyond |pi| fold the meridian
AXISYM_PENALTY = -1.0e3
_MIN_RADIUS_TOL = -1.0e-8
# Most components of an analytic test design: over eighty times the largest
# shape design (12 airfoil coefficients), and with evolution.MAX_POPULATION
# one generation of it takes 80 MB.
MAX_DIMENSION = 1000

__all__ = [
    "AXISYM_PENALTY",
    "AirfoilProblem",
    "AxisymDragProblem",
    "COEFF_BOUND",
    "MAX_DIMENSION",
    "QuadraticProblem",
]


@dataclass
class QuadraticProblem:
    """Analytic test objective: negative squared distance to a target point."""

    dimension: int = 3
    target: np.ndarray | None = None
    penalty_score = -1.0e3

    def __post_init__(self) -> None:
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must lie in [1, {MAX_DIMENSION}]")
        self.bounds = Bounds.uniform(self.dimension, -1.0, 1.0)
        self.init_range = self.bounds.central()
        if self.target is None:
            self.target = np.full(self.dimension, 0.3)
        self.target = np.asarray(self.target, dtype=float)
        if self.target.shape != (self.dimension,):
            raise ValueError("target has the wrong dimension")
        if not np.all(np.abs(self.target) <= LARGEST):
            raise ValueError(f"target entries must lie within +-{LARGEST:g}")
        self.objective = (
            "maximize the score -|x - c|^2, the negative squared distance"
            " to a hidden target point; the maximum score is 0"
        )

    def evaluate(self, x: np.ndarray) -> float:
        delta = np.asarray(x, dtype=float) - self.target
        return -float(delta @ delta)


@dataclass
class AxisymDragProblem:
    """Minimum-drag body of revolution at fixed volume or surface area.

    Designs are the odd-mode coefficients of the meridian tangent angle;
    the score is the negative drag normalized by the equal-measure sphere,
    so the sphere scores -1 and better bodies score above it.
    """

    n_modes: int = 2
    constraint: GeometricConstraint = field(
        default_factory=GeometricConstraint.fixed_volume
    )
    n_samples: int = 801
    n_elements: int = 120
    penalty_score = AXISYM_PENALTY
    # The solve holds the GIL for most of its time, so threads barely overlap
    # it: several workers score in forked processes (evolution.run_optimization).
    scores_in_processes = True

    def __post_init__(self) -> None:
        if not 1 <= self.n_modes <= 8:
            raise ValueError("n_modes must lie in [1, 8]")
        check_sample_count(self.n_samples)
        if not 8 <= self.n_elements <= MAX_ELEMENTS:
            raise ValueError(f"n_elements must lie in [8, {MAX_ELEMENTS}]")
        self.bounds = Bounds.uniform(self.n_modes, -COEFF_BOUND, COEFF_BOUND)
        # Case-specific seeding: positive leading coefficients integrate to
        # negative radii (inside-out bodies), so initial means center on the
        # sphere's A_1 = -pi/2 with moderate higher modes.
        quarter = 0.25 * math.pi
        lower = np.full(self.n_modes, -quarter)
        upper = np.full(self.n_modes, quarter)
        lower[0] -= 0.5 * math.pi
        upper[0] -= 0.5 * math.pi
        self.init_range = Bounds(lower, upper)
        label = "volume" if self.constraint.kind == FIXED_VOLUME else "surface area"
        self.objective = (
            "maximize the negative normalized drag of an axisymmetric body in"
            f" slow viscous flow at fixed {label}; the equal-{label} sphere"
            " scores -1, and lower-drag shapes score closer to 0"
        )

    def _constrained_profile(self, x: np.ndarray) -> BodyProfile:
        profile = integrate_profile(np.asarray(x, dtype=float), self.n_samples)
        if profile.min_interior_radius < _MIN_RADIUS_TOL:
            raise EvaluationFailed("meridian crosses the axis (negative radius)")
        try:
            return rescale_to_constraint(profile, self.constraint)
        except InvalidBodyError as exc:
            raise EvaluationFailed(str(exc)) from exc

    def evaluate_detail(self, x: np.ndarray) -> tuple[float, BodyProfile, DragResult]:
        """Score plus the constrained profile and full drag result."""
        profile = self._constrained_profile(x)
        try:
            mesh = profile_to_mesh(profile, self.n_elements)
            result = solve_drag(mesh)
        except (MeshError, np.linalg.LinAlgError) as exc:
            raise EvaluationFailed(str(exc)) from exc
        if not np.isfinite(result.normalized) or result.normalized <= 0.0:
            raise EvaluationFailed("drag solve returned a non-physical value")
        return -result.normalized, profile, result

    def evaluate(self, x: np.ndarray) -> float:
        score, _, _ = self.evaluate_detail(x)
        return score


@dataclass
class AirfoilProblem:
    """Lift-to-drag shaping of a closed Bézier profile via an external solver.

    The design vector concatenates the (p, q, m) triples of the first
    ``n_free_points`` control points; the rest sit at their sector centers.
    Entangled profiles and failed evaluations score the fixed penalty; an
    evaluator that cannot be started aborts the run.
    """

    n_free_points: int = 3
    evaluator: af.EvaluatorConfig | None = None
    penalty_score = af.FAILURE_REWARD

    def __post_init__(self) -> None:
        if not 1 <= self.n_free_points <= af.N_CONTROL_POINTS:
            raise ValueError("n_free_points must lie in [1, 4]")
        self.bounds = Bounds.uniform(3 * self.n_free_points, -1.0, 1.0)
        self.init_range = self.bounds.central()
        self.objective = (
            "maximize the shaped reward of the time-averaged lift-to-drag"
            " ratio of a closed airfoil profile relative to a reference body"
        )

    def control_points(self, x: np.ndarray) -> list[af.PolarControlPoint]:
        x = np.asarray(x, dtype=float)
        if x.shape != (3 * self.n_free_points,):
            raise ValueError("design has the wrong dimension")
        points = []
        for i in range(af.N_CONTROL_POINTS):
            if i < self.n_free_points:
                p, q, m = x[3 * i], x[3 * i + 1], x[3 * i + 2]
            else:
                p, q, m = 0.0, 0.0, 0.0  # fixed points sit at sector centers
            points.append(af.params_to_polar(p, q, m, i))
        return points

    def curve(self, x: np.ndarray) -> af.AirfoilCurve:
        try:
            curve = af.build_airfoil_curve(self.control_points(x))
        except ValueError as exc:
            raise EvaluationFailed(str(exc)) from exc
        if not af.is_simple(curve):
            raise EvaluationFailed("profile is entangled (self-intersecting)")
        return curve

    def evaluate(self, x: np.ndarray) -> float:
        if self.evaluator is None:
            raise EvaluatorFatal("no flow evaluator configured")
        curve = self.curve(x)
        try:
            perf = af.external_evaluate(curve, self.evaluator)
        except af.EvaluatorError as exc:
            raise EvaluationFailed(f"flow evaluation failed: {exc}") from exc
        except OSError as exc:
            raise EvaluatorFatal(f"cannot start flow evaluator: {exc}") from exc
        return af.shaped_reward(perf.ratio - self.evaluator.baseline_ratio)
