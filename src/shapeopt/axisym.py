"""Axisymmetric meridian curves built from a tangent-angle series.

A body of revolution is described by the tangent angle ``phi(s)`` of its
meridian, expanded in odd-degree Legendre polynomials of the normalized
arclength ``s`` in ``[-1, 1]``.  Restricting the series to odd degrees
closes the meridian onto the axis of revolution at both ends and makes the
body fore-aft symmetric.  A uniform scale factor ``lam`` stretches the
curve until the revolved body meets a prescribed volume or surface area;
the targets below make the reference sphere come out with radius one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import legval

VOLUME_TARGET = 4.0 * np.pi / 3.0
AREA_TARGET = 4.0 * np.pi

FIXED_VOLUME = "fixed_volume"
FIXED_AREA = "fixed_area"

# Below this the constrained measure is treated as degenerate.
_MEASURE_FLOOR = 1e-12
# Fewest and most samples of a profile; Simpson's rule also needs an odd
# count.  The most keeps the four profile arrays of one evaluation at
# 3.2 MB, 125 times the default of 801 samples.
_MIN_SAMPLES = 201
MAX_SAMPLES = 100_001

__all__ = [
    "AREA_TARGET",
    "BodyProfile",
    "FIXED_AREA",
    "FIXED_VOLUME",
    "GeometricConstraint",
    "InvalidBodyError",
    "MAX_SAMPLES",
    "VOLUME_TARGET",
    "check_sample_count",
    "compute_area",
    "compute_volume",
    "cumulative_simpson_uniform",
    "integrate_profile",
    "rescale_to_constraint",
    "simpson_uniform",
    "tangent_angle",
]


class InvalidBodyError(ValueError):
    """The profile has no usable measure under its geometric constraint."""


@dataclass(frozen=True)
class GeometricConstraint:
    """Fixed-volume or fixed-area normalization to the unit sphere's measure."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (FIXED_VOLUME, FIXED_AREA):
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    @property
    def target(self) -> float:
        return VOLUME_TARGET if self.kind == FIXED_VOLUME else AREA_TARGET

    @classmethod
    def fixed_volume(cls) -> "GeometricConstraint":
        return cls(FIXED_VOLUME)

    @classmethod
    def fixed_area(cls) -> "GeometricConstraint":
        return cls(FIXED_AREA)


@dataclass
class BodyProfile:
    """Sampled meridian of a body of revolution.

    ``r`` and ``z`` carry the scale factor ``lam``, so the physical
    arclength along the meridian is ``lam * (s + 1)`` and the tangent of
    the sampled curve is ``lam * (sin(phi), cos(phi))``.
    """

    s: np.ndarray
    phi: np.ndarray
    r: np.ndarray
    z: np.ndarray
    lam: float = 1.0

    @property
    def min_interior_radius(self) -> float:
        return float(np.min(self.r[1:-1]))

    def with_scale(self, lam: float) -> "BodyProfile":
        """Same shape at a different uniform scale."""
        lam = float(lam)
        if not lam > 0.0:
            raise ValueError("scale factor must be positive")
        factor = lam / self.lam
        return replace(self, r=self.r * factor, z=self.z * factor, lam=lam)


def tangent_angle(coeffs, s):
    """Tangent angle ``phi(s) = sum_k A_k P_{2k-1}(s)``.

    The series is evaluated by ``numpy.polynomial.legendre.legval`` with
    the even-degree coefficients zero.  ``s`` may be a scalar or an array.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise ValueError("coefficients must be a non-empty 1-D vector")
    series = np.zeros(2 * coeffs.size)
    series[1::2] = coeffs
    s_arr = np.asarray(s, dtype=float)
    total = legval(s_arr, series)
    if s_arr.ndim == 0:
        return float(total)
    return total


def cumulative_simpson_uniform(y, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled ``y``.

    Composite Simpson at even sample indices; odd indices use the
    three-point one-sided rule so the result is defined at every sample.
    Requires an odd number of samples (an even number of intervals).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise ValueError("need a 1-D array with an odd number of samples (>= 3)")
    out = np.empty_like(y)
    out[0] = 0.0
    blocks = dx / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(blocks)
    out[1::2] = out[0:-2:2] + dx / 12.0 * (5.0 * y[0:-2:2] + 8.0 * y[1::2] - y[2::2])
    return out


def simpson_uniform(y, dx: float) -> float:
    """Composite Simpson integral of uniformly sampled ``y`` (odd length)."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3 or y.size % 2 == 0:
        raise ValueError("need a 1-D array with an odd number of samples (>= 3)")
    return float(dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def _sample_grid(n_samples: int) -> np.ndarray:
    # Constructed so s[i] == -s[n-1-i] exactly; parity of the integrands
    # then closes the meridian to round-off instead of quadrature error.
    half = (n_samples - 1) // 2
    return (np.arange(n_samples) - half) / half


def check_sample_count(n_samples: int) -> None:
    """Refuse a sample count ``integrate_profile`` cannot use."""
    if n_samples % 2 == 0 or not _MIN_SAMPLES <= n_samples <= MAX_SAMPLES:
        raise ValueError(
            f"n_samples must be odd and lie in [{_MIN_SAMPLES}, {MAX_SAMPLES}]"
        )


def integrate_profile(coeffs, n_samples: int = 801) -> BodyProfile:
    """Meridian ``(r, z)`` at unit scale by cumulative quadrature of ``phi``."""
    check_sample_count(n_samples)
    s = _sample_grid(n_samples)
    phi = tangent_angle(coeffs, s)
    ds = 2.0 / (n_samples - 1)
    r = cumulative_simpson_uniform(np.sin(phi), ds)
    z = cumulative_simpson_uniform(np.cos(phi), ds)
    return BodyProfile(s=s, phi=phi, r=r, z=z, lam=1.0)


def compute_volume(profile: BodyProfile) -> float:
    """Volume of the revolved body, |pi * integral of r^2 dz|."""
    ds = profile.s[1] - profile.s[0]
    integrand = profile.r ** 2 * np.cos(profile.phi)
    return abs(np.pi * profile.lam * simpson_uniform(integrand, ds))


def compute_area(profile: BodyProfile) -> float:
    """Lateral surface area of the revolved body, |2 pi * integral of r dl|."""
    ds = profile.s[1] - profile.s[0]
    return abs(2.0 * np.pi * profile.lam * simpson_uniform(profile.r, ds))


def rescale_to_constraint(
    profile: BodyProfile, constraint: GeometricConstraint
) -> BodyProfile:
    """Uniformly rescale so the revolved body meets the constraint target.

    Volume scales with the cube of the factor and area with its square, so
    the returned profile satisfies the target exactly up to round-off.  A
    profile whose measure is (numerically) zero cannot be rescaled and
    raises :class:`InvalidBodyError`.
    """
    if constraint.kind == FIXED_VOLUME:
        measure = compute_volume(profile)
        exponent = 1.0 / 3.0
    else:
        measure = compute_area(profile)
        exponent = 0.5
    if not measure > _MEASURE_FLOOR:
        raise InvalidBodyError(f"degenerate body: measure {measure:.3e}")
    factor = (constraint.target / measure) ** exponent
    return profile.with_scale(profile.lam * factor)

