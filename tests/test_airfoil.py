"""Polar parameterization, Bézier sampling, self-intersection, rewards, I/O."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeopt import airfoil
from shapeopt.airfoil import (
    FAILURE_REWARD,
    N_CONTROL_POINTS,
    RHO_MAX,
    RHO_MIN,
    SECTOR_HALF_WIDTH,
    SECTOR_SPACING,
    AirfoilCurve,
    EvaluatorConfig,
    EvaluatorError,
    build_airfoil_curve,
    external_evaluate,
    is_simple,
    params_to_polar,
    polar_to_params,
    read_result_file,
    sector_interval,
    shaped_reward,
    tangent_angle_at_point,
    write_geometry_file,
)

UNIT = st.floats(-1.0, 1.0, allow_nan=False)


def centered_points(overrides=None):
    """Four mid-sector control points; override any (p, q, m) triple."""
    triples = {i: (0.0, 0.0, 0.0) for i in range(4)}
    triples.update(overrides or {})
    return [params_to_polar(*triples[i], i) for i in range(4)]


# --------------------------------------------------------- parameterization

def test_parameter_endpoints():
    low = params_to_polar(-1.0, -1.0, -1.0, 0)
    assert low.rho == pytest.approx(RHO_MIN)
    assert low.theta == pytest.approx(-SECTOR_HALF_WIDTH)
    assert low.sharpness == 0.0
    high = params_to_polar(1.0, 1.0, 1.0, 2)
    assert high.rho == pytest.approx(RHO_MAX)
    assert high.theta == pytest.approx(2 * SECTOR_SPACING + SECTOR_HALF_WIDTH)
    assert high.sharpness == 1.0
    mid = params_to_polar(0.0, 0.0, 0.0, 1)
    assert mid.rho == pytest.approx((RHO_MIN + RHO_MAX) / 2)
    assert mid.theta == pytest.approx(SECTOR_SPACING)
    assert mid.sharpness == 0.5


def test_parameter_validation():
    with pytest.raises(ValueError):
        params_to_polar(1.0001, 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        params_to_polar(0.0, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        sector_interval(-1)


@settings(max_examples=200, deadline=None)
@given(UNIT, UNIT, UNIT, st.integers(0, 3))
def test_round_trip_and_sector_membership(p, q, m, index):
    point = params_to_polar(p, q, m, index)
    lo, hi = sector_interval(index)
    assert lo - 1e-12 <= point.theta <= hi + 1e-12
    assert RHO_MIN <= point.rho <= RHO_MAX
    assert 0.0 <= point.sharpness <= 1.0
    back = polar_to_params(point)
    assert np.allclose(back, (p, q, m), atol=1e-12)


def test_sectors_do_not_overlap():
    intervals = [sector_interval(i) for i in range(N_CONTROL_POINTS)]
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi <= lo + 1e-12


# ----------------------------------------------------------------- tangents

def test_tangent_blend_endpoints():
    assert tangent_angle_at_point(1.0, 0.3, 1.1) == pytest.approx(0.3)
    assert tangent_angle_at_point(0.0, 0.3, 1.1) == pytest.approx(1.1)
    assert tangent_angle_at_point(0.5, 0.0, 1.0) == pytest.approx(0.5)


def test_tangent_blend_uses_shorter_arc():
    # 3.0 and -3.0 are ~0.57 rad apart through pi, not ~6 rad through zero
    mid = tangent_angle_at_point(0.5, 3.0, -3.0)
    assert math.cos(mid) == pytest.approx(math.cos(math.pi), abs=0.01)


def test_tangent_weight_validation():
    with pytest.raises(ValueError):
        tangent_angle_at_point(1.2, 0.0, 1.0)


# ----------------------------------------------------------------- sampling

def test_curve_sample_count_and_closure():
    curve = build_airfoil_curve(centered_points())
    assert curve.points.shape == (4 * 32 + 1, 2)
    assert np.array_equal(curve.points[0], curve.points[-1])


def test_curve_interpolates_control_points(monkeypatch):
    monkeypatch.setattr(airfoil, "SAMPLES_PER_SEGMENT", 10)
    points = centered_points()
    curve = build_airfoil_curve(points)
    for i, pt in enumerate(points):
        assert np.allclose(curve.points[10 * i], pt.xy, atol=1e-12)


def test_coincident_control_points_rejected():
    points = centered_points()
    points[1] = points[0]
    with pytest.raises(ValueError, match="coincident"):
        build_airfoil_curve(points)


def test_curve_validation():
    with pytest.raises(ValueError):
        build_airfoil_curve(centered_points()[:3])
    with pytest.raises(ValueError, match="close"):
        AirfoilCurve(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_full_sharpness_aligns_tangent_with_incoming_chord(monkeypatch):
    # at sharpness 1 the curve leaves point i along the chord arriving there
    monkeypatch.setattr(airfoil, "SAMPLES_PER_SEGMENT", 200)
    points = centered_points({1: (0.0, 0.0, 1.0)})
    curve = build_airfoil_curve(points)
    start = points[1].xy
    step = curve.points[201] - start
    chord_in = start - points[0].xy
    cosine = step @ chord_in / (np.linalg.norm(step) * np.linalg.norm(chord_in))
    # finite first step deviates from the exact tangent at O(1/samples)
    assert cosine == pytest.approx(1.0, abs=1e-3)
    # whereas sharpness 0 would leave along the outgoing chord instead
    chord_out = points[2].xy - start
    cos_out = step @ chord_out / (np.linalg.norm(step) * np.linalg.norm(chord_out))
    assert cos_out < cosine - 0.05


# --------------------------------------------------------- self-intersection

def square(side=1.0):
    pts = np.array(
        [[0, 0], [side, 0], [side, side], [0, side], [0, 0]], dtype=float
    )
    return AirfoilCurve(pts)


def figure_eight():
    pts = np.array(
        [[0, 0], [1, 1], [1, 0], [0, 1], [0, 0]], dtype=float
    )
    return AirfoilCurve(pts)


def test_simple_polyline_classification():
    assert is_simple(square())
    assert not is_simple(figure_eight())


def test_touching_counts_as_intersecting():
    # vertex of one segment lies in the interior of a non-adjacent segment
    pts = np.array(
        [[0, 0], [2, 0], [2, 1], [1, 0], [0, 1], [0, 0]], dtype=float
    )
    assert not is_simple(AirfoilCurve(pts))


def test_centered_oval_is_simple():
    assert is_simple(build_airfoil_curve(centered_points()))


def test_frozen_crossing_fixture():
    # alternating extreme radii and angles with opposed sharpness makes the
    # segments sweep across the origin region and cross
    for m0 in (1.0, -1.0):
        sign = [1.0, -1.0, 1.0, -1.0]
        points = [
            params_to_polar(sign[i], sign[i], -sign[i] * m0, i) for i in range(4)
        ]
        assert not is_simple(build_airfoil_curve(points))


def test_random_design_simple_rate(monkeypatch):
    monkeypatch.setattr(airfoil, "SAMPLES_PER_SEGMENT", 16)
    rng = np.random.default_rng(42)
    simple = 0
    for _ in range(100):
        vals = rng.uniform(-1, 1, 12)
        points = [
            params_to_polar(vals[3 * i], vals[3 * i + 1], vals[3 * i + 2], i)
            for i in range(4)
        ]
        simple += is_simple(build_airfoil_curve(points))
    assert simple == 85


# ------------------------------------------------------------------ rewards

def test_reward_table():
    assert shaped_reward(0.5) == 1.0
    assert shaped_reward(-0.3) == -0.3
    assert shaped_reward(0.0) == 0.0
    assert FAILURE_REWARD == -5.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False))
def test_reward_monotone(a, b):
    if a <= b:
        assert shaped_reward(a) <= shaped_reward(b)


# ------------------------------------------------------------------ file io

def test_geometry_file_format(tmp_path, monkeypatch):
    monkeypatch.setattr(airfoil, "SAMPLES_PER_SEGMENT", 4)
    curve = build_airfoil_curve(centered_points())
    path = tmp_path / "geometry.txt"
    write_geometry_file(path, curve)
    lines = path.read_text().splitlines()
    assert len(lines) == 17
    for line, (x, y) in zip(lines, curve.points):
        sx, sy = line.split(" ")
        assert sx == f"{x:.6g}" and sy == f"{y:.6g}"
        assert float(sx) == pytest.approx(x, abs=1e-4)


def test_read_result_file(tmp_path):
    path = tmp_path / "result.json"
    path.write_text(json.dumps({"lift": 1.5, "drag": 0.5, "ratio": 3.0}))
    perf = read_result_file(path)
    assert (perf.lift, perf.drag, perf.ratio) == (1.5, 0.5, 3.0)


def test_read_result_file_malformed(tmp_path):
    path = tmp_path / "result.json"
    path.write_text(json.dumps({"lift": 1.5}))
    with pytest.raises(ValueError):
        read_result_file(path)
    path.write_text(json.dumps({"lift": "a", "drag": "b", "ratio": None}))
    with pytest.raises(ValueError):
        read_result_file(path)
    # json reads NaN, Infinity and an overflowing literal as non-finite floats
    for ratio in ("NaN", "Infinity", "1e999"):
        path.write_text(f'{{"lift": 1.5, "drag": 0.5, "ratio": {ratio}}}')
        with pytest.raises(ValueError, match="malformed result file"):
            read_result_file(path)


# --------------------------------------------------------- external process

STUB_OK = """\
import hashlib, json, sys
geometry = sys.argv[1]
re_value = sys.argv[sys.argv.index("--re") + 1]
out = sys.argv[sys.argv.index("--out") + 1]
digest = hashlib.sha256(open(geometry, "rb").read()).hexdigest()
lift = int(digest[:8], 16) / 2**32
json.dump({"lift": lift, "drag": float(re_value), "ratio": lift}, open(out, "w"))
"""


def write_stub(tmp_path, body):
    path = tmp_path / "stub.py"
    path.write_text(body)
    return [sys.executable, str(path)]


def test_external_evaluate_round_trip(tmp_path):
    """The stub hashes the geometry file; matching hashes prove the file
    content reached the subprocess exactly as written."""
    curve = build_airfoil_curve(centered_points())
    cfg = EvaluatorConfig(command=write_stub(tmp_path, STUB_OK), reynolds=250.0)
    perf = external_evaluate(curve, cfg)
    assert perf.drag == 250.0  # --re made the round trip
    reference = tmp_path / "reference.txt"
    write_geometry_file(reference, curve)
    digest = hashlib.sha256(reference.read_bytes()).hexdigest()
    assert perf.lift == pytest.approx(int(digest[:8], 16) / 2**32)


def test_external_evaluate_nonzero_exit(tmp_path):
    cfg = EvaluatorConfig(command=write_stub(tmp_path, "raise SystemExit(1)"))
    with pytest.raises(EvaluatorError, match="exited with code 1"):
        external_evaluate(build_airfoil_curve(centered_points()), cfg)


def test_external_evaluate_quotes_the_last_stderr_line(tmp_path):
    body = (
        "import sys\n"
        "sys.stderr.write('warming up\\n' + 'x' * 500 + '\\n\\n  \\n')\n"
        "raise SystemExit(2)\n"
    )
    cfg = EvaluatorConfig(command=write_stub(tmp_path, body))
    with pytest.raises(EvaluatorError) as caught:
        external_evaluate(build_airfoil_curve(centered_points()), cfg)
    message = str(caught.value)
    assert message.startswith("exited with code 2: xxx") and message.endswith("...")
    assert len(message) == len("exited with code 2: ") + 200


def test_external_evaluate_malformed_output(tmp_path):
    body = (
        "import sys\n"
        "open(sys.argv[sys.argv.index('--out') + 1], 'w').write('not json')\n"
    )
    cfg = EvaluatorConfig(command=write_stub(tmp_path, body))
    with pytest.raises(EvaluatorError, match="no usable result"):
        external_evaluate(build_airfoil_curve(centered_points()), cfg)


def test_external_evaluate_missing_output(tmp_path):
    cfg = EvaluatorConfig(command=write_stub(tmp_path, "pass"))
    with pytest.raises(EvaluatorError, match="no usable result"):
        external_evaluate(build_airfoil_curve(centered_points()), cfg)


def test_external_evaluate_timeout(tmp_path):
    cfg = EvaluatorConfig(
        command=write_stub(tmp_path, "import time; time.sleep(60)"), timeout=0.5
    )
    with pytest.raises(EvaluatorError, match="timed out after 0.5 s"):
        external_evaluate(build_airfoil_curve(centered_points()), cfg)


def test_external_evaluate_missing_binary():
    cfg = EvaluatorConfig(command=["/nonexistent/evaluator"])
    with pytest.raises(OSError):
        external_evaluate(build_airfoil_curve(centered_points()), cfg)


def test_external_evaluate_requires_command():
    with pytest.raises(TypeError):
        EvaluatorConfig()  # the command has no default


def test_evaluator_config_refuses_empty_command():
    with pytest.raises(ValueError, match="command"):
        EvaluatorConfig(command=[])
