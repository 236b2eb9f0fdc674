"""Geometry of tangent-angle bodies of revolution."""

import math

import numpy as np
import pytest

from shapeopt.axisym import (
    AREA_TARGET,
    MAX_SAMPLES,
    VOLUME_TARGET,
    BodyProfile,
    GeometricConstraint,
    InvalidBodyError,
    compute_area,
    compute_volume,
    cumulative_simpson_uniform,
    integrate_profile,
    rescale_to_constraint,
    simpson_uniform,
    tangent_angle,
)
from shapeopt.rundir import write_profile

SPHERE = np.array([-math.pi / 2])


def test_tangent_angle_degree_one():
    assert tangent_angle(np.array([2.5]), 1.0) == pytest.approx(2.5, abs=1e-15)
    assert tangent_angle(np.array([2.5]), 0.0) == 0.0


def test_tangent_angle_higher_modes():
    # P3(1) = 1 and odd parity at 0
    assert tangent_angle(np.array([0.0, 1.0]), 1.0) == pytest.approx(1.0, abs=1e-14)
    assert tangent_angle(np.array([0.0, 1.0]), 0.0) == pytest.approx(0.0, abs=1e-15)


def test_tangent_angle_matches_legendre_series():
    # independent oracle: numpy's Legendre evaluation with odd-only coefficients
    from numpy.polynomial import legendre

    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        coeffs = rng.uniform(-math.pi, math.pi, k)
        full = np.zeros(2 * k)
        full[1::2] = coeffs
        s = rng.uniform(-1.0, 1.0, 11)
        expected = legendre.legval(s, full)
        got = np.array([tangent_angle(coeffs, v) for v in s])
        assert np.max(np.abs(got - expected)) < 1e-13


def test_tangent_angle_is_odd():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-2, 2, 5)
    for s in rng.uniform(0, 1, 20):
        assert tangent_angle(coeffs, s) == pytest.approx(
            -tangent_angle(coeffs, -s), abs=1e-14
        )


def test_cumulative_simpson_matches_scipy():
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(11)
    y = rng.standard_normal(201)
    ours = cumulative_simpson_uniform(y, 0.01)
    # scipy's variant uses a different odd-point correction; compare on the
    # even-index subgrid where both are pure composite Simpson
    ref = cumulative_simpson(y, dx=0.01, initial=0.0)
    assert np.max(np.abs(ours[::2] - ref[::2])) < 1e-12


def test_cumulative_simpson_polynomial_exactness():
    x = np.linspace(0.0, 2.0, 201)
    # the paired-interval Simpson values (even indices) are exact on cubics
    y = 3 * x**3 - x**2 + 2
    exact = 0.75 * x**4 - x**3 / 3 + 2 * x
    got = cumulative_simpson_uniform(y, x[1] - x[0])
    assert np.max(np.abs(got[::2] - exact[::2])) < 1e-12
    # the odd-index half-interval rule is exact on quadratics
    y = x**2 - 4 * x + 1
    exact = x**3 / 3 - 2 * x**2 + x
    got = cumulative_simpson_uniform(y, x[1] - x[0])
    assert np.max(np.abs(got - exact)) < 1e-12


def test_simpson_requires_odd_length():
    with pytest.raises(ValueError):
        simpson_uniform(np.zeros(10), 0.1)
    with pytest.raises(ValueError):
        cumulative_simpson_uniform(np.zeros(4), 0.1)


def test_sphere_profile_is_semicircle():
    profile = integrate_profile(SPHERE, n_samples=801)
    # phi = -pi*s/2 integrates to a unit-radius semicircular meridian of
    # radius 2/pi before scaling
    mid = (profile.s.size - 1) // 2
    assert profile.r[mid] == pytest.approx(2 / math.pi, abs=1e-9)
    assert profile.z[-1] - profile.z[0] == pytest.approx(4 / math.pi, abs=1e-9)
    center = profile.z[0] + 2 / math.pi
    radius_sq = profile.r**2 + (profile.z - center) ** 2
    assert np.max(np.abs(radius_sq - (2 / math.pi) ** 2)) < 1e-6


def test_degenerate_needle():
    profile = integrate_profile(np.array([0.0, 0.0]), n_samples=401)
    assert np.max(np.abs(profile.r)) == 0.0
    assert compute_volume(profile) == 0.0
    assert compute_area(profile) == 0.0


def test_closure_residual_random_coefficients():
    # odd tangent angles force the meridian back to the axis exactly
    rng = np.random.default_rng(19)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        coeffs = rng.uniform(-math.pi, math.pi, k)
        profile = integrate_profile(coeffs, n_samples=401)
        assert abs(profile.r[-1]) <= 1e-10


def test_profile_grid_and_shape_checks():
    with pytest.raises(ValueError):
        integrate_profile(SPHERE, n_samples=800)  # even
    with pytest.raises(ValueError):
        integrate_profile(SPHERE, n_samples=101)  # too coarse
    with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
        integrate_profile(SPHERE, n_samples=MAX_SAMPLES + 2)  # refused before any array
    profile = integrate_profile(SPHERE, n_samples=201)
    assert profile.s[0] == -1.0 and profile.s[-1] == 1.0
    assert profile.r[0] == 0.0


def test_sphere_volume_area_and_scale():
    profile = integrate_profile(SPHERE, n_samples=801)
    scaled = profile.with_scale(math.pi / 2)
    assert compute_volume(scaled) == pytest.approx(VOLUME_TARGET, rel=1e-9)
    assert compute_area(scaled) == pytest.approx(AREA_TARGET, rel=1e-9)


def test_scaling_laws_exact_in_quadrature():
    rng = np.random.default_rng(23)
    coeffs = rng.uniform(-1.5, 0.5, 3)
    profile = integrate_profile(coeffs, n_samples=401)
    v1, s1 = compute_volume(profile), compute_area(profile)
    doubled = profile.with_scale(2.0 * profile.lam)
    assert compute_volume(doubled) == pytest.approx(8.0 * v1, rel=1e-14)
    assert compute_area(doubled) == pytest.approx(4.0 * s1, rel=1e-14)


def test_rescale_sphere_lambda():
    profile = integrate_profile(SPHERE, n_samples=801)
    for constraint in (
        GeometricConstraint.fixed_volume(),
        GeometricConstraint.fixed_area(),
    ):
        scaled = rescale_to_constraint(profile, constraint)
        assert scaled.lam == pytest.approx(math.pi / 2, rel=1e-6)


def test_rescale_is_fixed_point():
    profile = integrate_profile(SPHERE, n_samples=801)
    constraint = GeometricConstraint.fixed_volume()
    once = rescale_to_constraint(profile, constraint)
    twice = rescale_to_constraint(once, constraint)
    assert twice.lam == pytest.approx(once.lam, rel=1e-12)


def test_rescale_rejects_degenerate():
    profile = integrate_profile(np.array([0.0]), n_samples=401)
    with pytest.raises(InvalidBodyError):
        rescale_to_constraint(profile, GeometricConstraint.fixed_volume())


def test_refinement_convergence_order():
    coeffs = np.array([-1.2, 0.3])
    errors = []
    fine = compute_volume(integrate_profile(coeffs, n_samples=3201))
    for n in (201, 401, 801):
        errors.append(abs(compute_volume(integrate_profile(coeffs, n)) - fine))
    # Simpson: each doubling should cut the error by roughly 2^4
    assert errors[0] / errors[1] > 8
    assert errors[1] / errors[2] > 8


def test_negative_radius_detection():
    profile = integrate_profile(np.array([1.0]), n_samples=401)  # inside-out body
    assert profile.min_interior_radius < -1e-3


def test_export_profile_csv(tmp_path):
    profile = integrate_profile(SPHERE, n_samples=201)
    path = tmp_path / "profile.csv"
    write_profile(path, profile)
    rows = path.read_text().splitlines()
    assert rows[0] == "s,r,z,phi"
    assert len(rows) == 202
    first = [float(tok) for tok in rows[1].split(",")]
    assert first[0] == -1.0 and first[1] == 0.0


def test_constraint_validation():
    with pytest.raises(ValueError):
        GeometricConstraint(kind="bogus")
    assert GeometricConstraint.fixed_volume().target == pytest.approx(VOLUME_TARGET)
    assert GeometricConstraint.fixed_area().target == pytest.approx(AREA_TARGET)
