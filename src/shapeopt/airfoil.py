"""Closed Bézier airfoil profiles from normalized polar control points.

Four control points live in distinct angular sectors; each point carries
three normalized coordinates in [-1, 1] mapping to a radius, an angle
inside its sector, and a sharpness factor that blends the tangent
direction between the two neighbor chords.  Cubic Bézier segments join
consecutive points into a closed curve.  Aerodynamic scores come from an
external flow evaluator through a file-based subprocess protocol; this
module only shapes, validates, serializes, and rewards.  An evaluator run
that yields no usable result raises EvaluatorError saying why.
"""

from __future__ import annotations

import json
import math
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evolution import DAY, LARGEST

RHO_MIN = 0.6
RHO_MAX = 3.0
SECTOR_SPACING = math.pi / 4  # angular distance between sector centers
SECTOR_HALF_WIDTH = math.pi / 8
N_CONTROL_POINTS = 4
FAILURE_REWARD = -5.0
# Polyline points per Bezier segment, and each handle's length as a
# fraction of its chord.
SAMPLES_PER_SEGMENT = 32
HANDLE_FRACTION = 0.3
# A failed evaluator's message quotes at most this much of its stderr.
_STDERR_QUOTE_CHARS = 200

__all__ = [
    "AirfoilCurve",
    "EvaluatorConfig",
    "EvaluatorError",
    "FAILURE_REWARD",
    "FlowPerformance",
    "N_CONTROL_POINTS",
    "PolarControlPoint",
    "RHO_MAX",
    "RHO_MIN",
    "build_airfoil_curve",
    "external_evaluate",
    "is_simple",
    "params_to_polar",
    "polar_to_params",
    "read_result_file",
    "sector_interval",
    "shaped_reward",
    "tangent_angle_at_point",
    "write_geometry_file",
]


@dataclass(frozen=True)
class PolarControlPoint:
    """One control point: radius, absolute angle, sharpness weight."""

    rho: float
    theta: float
    sharpness: float
    index: int

    @property
    def xy(self) -> np.ndarray:
        return np.array(
            [self.rho * math.cos(self.theta), self.rho * math.sin(self.theta)]
        )


@dataclass
class AirfoilCurve:
    """Closed sampled polyline; first and last vertex coincide exactly."""

    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("curve points must be an (n, 2) array")
        if not np.array_equal(self.points[0], self.points[-1]):
            raise ValueError("curve must close: first and last point equal")


@dataclass
class FlowPerformance:
    """Mean lift, mean drag (signed), and time-averaged lift/|drag|."""

    lift: float
    drag: float
    ratio: float


def sector_interval(index: int) -> tuple[float, float]:
    """Allowed angle interval of control point ``index``."""
    if index not in range(N_CONTROL_POINTS):
        raise ValueError(f"control point index must be 0..{N_CONTROL_POINTS - 1}")
    center = SECTOR_SPACING * index
    return center - SECTOR_HALF_WIDTH, center + SECTOR_HALF_WIDTH


def params_to_polar(p: float, q: float, m: float, index: int) -> PolarControlPoint:
    """Normalized (p, q, m) in [-1, 1]^3 to the polar control point.

    rho spans [RHO_MIN, RHO_MAX], theta spans the point's sector, and the
    sharpness weight spans [0, 1].
    """
    for name, value in (("p", p), ("q", q), ("m", m)):
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"{name} = {value} outside [-1, 1]")
    if index not in range(N_CONTROL_POINTS):
        raise ValueError(f"control point index must be 0..{N_CONTROL_POINTS - 1}")
    rho = RHO_MIN + (p + 1.0) * (RHO_MAX - RHO_MIN) / 2.0
    theta = SECTOR_SPACING * (q / 2.0 + index)
    sharpness = (m + 1.0) / 2.0
    return PolarControlPoint(rho=rho, theta=theta, sharpness=sharpness, index=index)


def polar_to_params(point: PolarControlPoint) -> tuple[float, float, float]:
    """Inverse of :func:`params_to_polar`."""
    p = 2.0 * (point.rho - RHO_MIN) / (RHO_MAX - RHO_MIN) - 1.0
    q = 2.0 * (point.theta / SECTOR_SPACING - point.index)
    m = 2.0 * point.sharpness - 1.0
    return p, q, m


def _wrap_angle(delta: float) -> float:
    """Equivalent angle in [-pi, pi)."""
    return (delta + math.pi) % (2.0 * math.pi) - math.pi


def tangent_angle_at_point(
    sharpness: float, angle_in: float, angle_out: float
) -> float:
    """Blend of the incoming and outgoing chord angles at a control point.

    sharpness = 1 keeps the incoming angle, 0 the outgoing one; the
    interpolation runs along the shorter arc between the two, so the
    result never jumps across the branch cut.
    """
    if not 0.0 <= sharpness <= 1.0:
        raise ValueError("sharpness weight must lie in [0, 1]")
    return angle_out + sharpness * _wrap_angle(angle_in - angle_out)


def _cubic_bezier(p0, c1, c2, p3, t: np.ndarray) -> np.ndarray:
    t = t[:, None]
    u = 1.0 - t
    return u**3 * p0 + 3.0 * u**2 * t * c1 + 3.0 * u * t**2 * c2 + t**3 * p3


def build_airfoil_curve(points: list[PolarControlPoint]) -> AirfoilCurve:
    """Closed composite curve of cubic segments through the control points.

    Segment i runs from point i to point i+1 (cyclically); its end tangent
    directions are the sharpness-blended chord angles, with Bézier handles
    of length HANDLE_FRACTION times the chord, and it is sampled at
    SAMPLES_PER_SEGMENT points after its start.
    """
    if len(points) != N_CONTROL_POINTS:
        raise ValueError(f"expected {N_CONTROL_POINTS} control points")
    xy = np.array([pt.xy for pt in points])
    n = len(points)
    chords = np.roll(xy, -1, axis=0) - xy  # chord i: point i -> i+1
    lengths = np.linalg.norm(chords, axis=1)
    if np.any(lengths < 1e-12):
        raise ValueError("coincident control points give an undefined tangent")
    chord_angles = np.arctan2(chords[:, 1], chords[:, 0])
    tangents = np.array(
        [
            tangent_angle_at_point(
                points[i].sharpness, chord_angles[i - 1], chord_angles[i]
            )
            for i in range(n)
        ]
    )
    t = np.linspace(0.0, 1.0, SAMPLES_PER_SEGMENT + 1)
    samples = [xy[0][None, :]]
    for i in range(n):
        j = (i + 1) % n
        direction_i = np.array([math.cos(tangents[i]), math.sin(tangents[i])])
        direction_j = np.array([math.cos(tangents[j]), math.sin(tangents[j])])
        handle = HANDLE_FRACTION * lengths[i]
        c1 = xy[i] + handle * direction_i
        c2 = xy[j] - handle * direction_j
        samples.append(_cubic_bezier(xy[i], c1, c2, xy[j], t)[1:])
    return AirfoilCurve(points=np.vstack(samples))


def is_simple(curve: AirfoilCurve) -> bool:
    """True iff no two non-adjacent polyline segments touch.

    Brute-force all-pairs orientation test; adjacency wraps around the
    closure so the shared endpoints of consecutive segments don't count.
    """
    pts = curve.points
    n_seg = len(pts) - 1
    if n_seg < 4:
        raise ValueError("need a closed polyline with at least 4 vertices")
    a = pts[:-1]
    b = pts[1:]

    def cross(o, p, q):
        return (p[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - (
            p[..., 1] - o[..., 1]
        ) * (q[..., 0] - o[..., 0])

    i, j = np.triu_indices(n_seg, k=2)
    # Segments 0 and n_seg-1 share the closure vertex; treat as adjacent.
    keep = ~((i == 0) & (j == n_seg - 1))
    i, j = i[keep], j[keep]
    a1, b1, a2, b2 = a[i], b[i], a[j], b[j]
    d1 = cross(a2, b2, a1)
    d2 = cross(a2, b2, b1)
    d3 = cross(a1, b1, a2)
    d4 = cross(a1, b1, b2)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    if np.any(proper):
        return False

    def on_segment(o, p, q):
        # q collinear with segment (o, p); does q lie within its box?
        return (
            (np.minimum(o[..., 0], p[..., 0]) <= q[..., 0])
            & (q[..., 0] <= np.maximum(o[..., 0], p[..., 0]))
            & (np.minimum(o[..., 1], p[..., 1]) <= q[..., 1])
            & (q[..., 1] <= np.maximum(o[..., 1], p[..., 1]))
        )
    touching = (
        ((d1 == 0) & on_segment(a2, b2, a1))
        | ((d2 == 0) & on_segment(a2, b2, b1))
        | ((d3 == 0) & on_segment(a1, b1, a2))
        | ((d4 == 0) & on_segment(a1, b1, b2))
    )
    return not bool(np.any(touching))


def shaped_reward(value: float) -> float:
    """Asymmetric reward shaping: gains are doubled, losses pass through."""
    value = float(value)
    return 2.0 * value if value > 0.0 else value


def write_geometry_file(path: str | Path, curve: AirfoilCurve) -> None:
    """Plain-text closed polyline, one "x y" pair per line, 6 significant digits."""
    lines = [f"{x:.6g} {y:.6g}" for x, y in curve.points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_result_file(path: str | Path) -> FlowPerformance:
    """Parse the evaluator's JSON result: {lift, drag, ratio}, all finite."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        values = [float(payload[key]) for key in ("lift", "drag", "ratio")]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value in {values}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed result file {path}: {exc}") from exc
    return FlowPerformance(*values)


@dataclass
class EvaluatorConfig:
    """External flow evaluator: command prefix plus flow conditions."""

    command: list[str]
    reynolds: float = 100.0
    timeout: float | None = 300.0  # seconds; None waits without limit
    baseline_ratio: float = 0.0

    def __post_init__(self) -> None:
        if not self.command:
            raise ValueError("evaluator command must not be empty")
        if self.timeout is not None and not 0.0 < self.timeout <= DAY:
            raise ValueError(f"evaluator timeout must lie in (0, {DAY:g}] s or be None")
        for name in ("reynolds", "baseline_ratio"):
            if not abs(getattr(self, name)) <= LARGEST:
                raise ValueError(f"{name} must lie within +-{LARGEST:g}")


class EvaluatorError(Exception):
    """One evaluator run gave no usable result for its design."""


def _last_stderr_line(stderr: bytes) -> str:
    """The last non-empty line of ``stderr``, cut to ``_STDERR_QUOTE_CHARS``."""
    lines = stderr.decode("utf-8", errors="replace").splitlines()
    last = next((line.strip() for line in reversed(lines) if line.strip()), "")
    if len(last) > _STDERR_QUOTE_CHARS:
        last = last[: _STDERR_QUOTE_CHARS - 3] + "..."
    return last


def external_evaluate(curve: AirfoilCurve, cfg: EvaluatorConfig) -> FlowPerformance:
    """Run the external evaluator on one sampled curve.

    Writes the geometry file, invokes
    ``<command> <geometry-path> --re <Re> --out <result-path>``, and parses
    the JSON result.  A nonzero exit, a timeout, or a missing, malformed
    or non-finite result raises EvaluatorError; after a nonzero exit its
    message quotes the last line the evaluator wrote to stderr.  A command
    that cannot be started raises OSError.
    """
    with tempfile.TemporaryDirectory(prefix="airfoil-eval-") as scratch:
        geometry = Path(scratch) / "geometry.txt"
        result = Path(scratch) / "result.json"
        write_geometry_file(geometry, curve)
        argv = [
            *cfg.command,
            str(geometry),
            "--re",
            f"{cfg.reynolds:g}",
            "--out",
            str(result),
        ]
        try:
            proc = subprocess.run(
                argv, capture_output=True, timeout=cfg.timeout, check=False
            )
        except subprocess.TimeoutExpired as exc:
            raise EvaluatorError(f"timed out after {cfg.timeout:g} s") from exc
        if proc.returncode != 0:
            reason = f"exited with code {proc.returncode}"
            last = _last_stderr_line(proc.stderr)
            raise EvaluatorError(f"{reason}: {last}" if last else reason)
        try:
            return read_result_file(result)
        except (OSError, ValueError) as exc:
            raise EvaluatorError(f"no usable result: {exc}") from exc
