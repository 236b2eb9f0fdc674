"""Drag of axisymmetric bodies in creeping flow by a boundary-element method.

The body surface is a meridian curve revolved about the z axis.  A ring of
point forces is integrated in closed form over the azimuth, which turns
the single-layer surface integral into a line integral along the meridian
with complete elliptic integrals in the kernel.  ``scipy.special`` supplies
them: K by ``ellipkm1`` from the exact ``1 - m``, which keeps the kernel's
log singularity down to round-off separations, and E by ``ellipe``.
The meridian between its samples is a piecewise-cubic Hermite
interpolant (``CubicHermite``).  ``profile_to_mesh`` gives it the exact
tangent of a tangent-angle profile; ``mesh_from_meridian`` takes the
knot slopes of the cubic spline through the samples, which makes the
interpolant that spline.
Piecewise-constant force densities are collocated at element midpoints.
One rule table integrates every element pair: the signed gap between
source and collocation element picks the Gauss panels and order, with
half the order ``_FAR_GAP`` or more elements apart, panels graded toward
the neighbours, and the self-element log singularity subtracted and
integrated analytically.  The dense system, in the one block layout
``[[rr, rz], [zr, zz]]``, is solved directly, and drag is reported both
raw (unit viscosity, unit stream speed) and normalized by the Stokes drag
of the unit sphere.

Meshes of the fore-aft symmetric profiles (``profile_to_mesh``) are
marked mirrored.  In an axial stream ``q_z`` is then even and ``q_r`` odd
under the mirror, so only the first half of the collocation rows is
assembled, mirror-image elements are folded into one unknown, and ``n``
unknowns are solved instead of ``2n``.  ``mesh_from_meridian`` meshes any
meridian and keeps the full system.

Conventions: the kernel ``ring_stokeslet`` excludes the ring-radius factor
of the surface measure, so ``u(x) = 1/(8 pi) * integral M(x, x0) q(x0)
r0 dl0`` with the meridian arclength ``l0``.  Solving ``u = e_z`` at the
collocation points makes ``q`` the surface traction of a body held fixed
in a unit stream, up to a constant-pressure gauge that carries no net
force; the unit sphere then integrates to a drag of exactly ``6 pi``.
That gauge traction, a multiple of the normal, has the opposite mirror
parity, so the folded system does not contain it: it stays well
conditioned, and its tractions carry no gauge component.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.polynomial.polynomial import polyvander
from scipy.special import binom, ellipe, ellipk, ellipkm1

from .axisym import BodyProfile

SPHERE_DRAG = 6.0 * np.pi

# Dense direct solves stay cheap and well behaved up to this element count.
MAX_ELEMENTS = 400

# Elliptic-integral evaluation of the azimuthal integrals loses digits to
# cancellation as the modulus m -> 0; below this threshold the integrals
# are summed as power series in m, truncated where m^k is below round-off.
_SMALL_M = 0.05
_SMALL_M_TERMS = 16

__all__ = [
    "BoundaryMesh",
    "CubicHermite",
    "DragResult",
    "MAX_ELEMENTS",
    "MeshError",
    "SPHERE_DRAG",
    "assemble_single_layer",
    "complete_elliptic_e",
    "complete_elliptic_k",
    "export_traction_csv",
    "mesh_from_meridian",
    "profile_to_mesh",
    "ring_stokeslet",
    "solve_drag",
    "solve_tractions",
]


class MeshError(ValueError):
    """The meridian cannot be meshed into usable boundary elements."""


def complete_elliptic_k(m):
    """K(m) with the squared-modulus convention; diverges as m -> 1."""
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0.0) or np.any(m_arr >= 1.0):
        raise ValueError("K(m) requires 0 <= m < 1")
    k = ellipk(m_arr)
    return float(k) if m_arr.ndim == 0 else k


def complete_elliptic_e(m):
    """E(m) with the squared-modulus convention; E(1) = 1 exactly."""
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0.0) or np.any(m_arr > 1.0):
        raise ValueError("E(m) requires 0 <= m <= 1")
    e = ellipe(m_arr)
    return float(e) if m_arr.ndim == 0 else e


# Series coefficients for the small-m branch, one column per reduced
# integral I10, I11, I30, I31.  Expanding (1 - m cos^2 u)^(-p/2) gives
# int_0^{pi/2} cos^(2j) u / (1 - m cos^2 u)^(p/2) du
#     = sum_k binom(k + p/2 - 1, k) W_{k+j} m^k,
# with the Wallis integrals W_n = int_0^{pi/2} cos^(2n) u du, and
# cos(phi) = 2 cos^2 u - 1 has the moments 2 W_{k+1} - W_k = k W_k / (k + 1).
_POWERS = np.arange(_SMALL_M_TERMS)
_WALLIS = 0.5 * np.pi * binom(_POWERS - 0.5, _POWERS)
_COS_MOMENTS = _WALLIS * _POWERS / (_POWERS + 1)
_SMALL_M_SERIES = np.stack(
    [
        binom(_POWERS - 0.5, _POWERS) * _WALLIS,
        binom(_POWERS - 0.5, _POWERS) * _COS_MOMENTS,
        binom(_POWERS + 0.5, _POWERS) * _WALLIS,
        binom(_POWERS + 0.5, _POWERS) * _COS_MOMENTS,
    ],
    axis=1,
)


def _ring_integrals(d_big, dsq, m):
    """Azimuthal integrals I_pq = int cos^q(phi) / R^p dphi, p in {1, 3}.

    With R^2 = D^2 (1 - m cos^2 u) the integrals reduce to complete
    elliptic integrals.  The reduced forms divide by m, so for small m
    they are summed as power series instead.
    """
    big = m > _SMALL_M
    i10 = np.empty_like(m)
    i11 = np.empty_like(m)
    i30 = np.empty_like(m)
    i31 = np.empty_like(m)

    if np.any(big):
        mb = m[big]
        db = d_big[big]
        dsqb = dsq[big]
        one_m = dsqb / (db * db)  # exact 1 - m, no cancellation
        k = ellipkm1(one_m)  # K from 1 - m keeps its digits as m -> 1
        e = ellipe(mb)
        e_om = e / one_m
        i10[big] = 4.0 * k / db
        i11[big] = 4.0 * (2.0 * (k - e) / mb - k) / db
        i30[big] = 4.0 * e / (db * dsqb)
        i31[big] = 4.0 * (2.0 * (e_om - k) / mb - e_om) / (db * db * db)

    small = ~big
    if np.any(small):
        ds = d_big[small]
        dcubed = ds * ds * ds
        series = polyvander(m[small], _SMALL_M_TERMS - 1) @ _SMALL_M_SERIES
        i10[small] = 4.0 * series[:, 0] / ds
        i11[small] = 4.0 * series[:, 1] / ds
        i30[small] = 4.0 * series[:, 2] / dcubed
        i31[small] = 4.0 * series[:, 3] / dcubed

    return i10, i11, i30, i31


def ring_stokeslet(r, z, r0, z0):
    """Azimuthally integrated free-space Stokeslet between meridian points.

    Returns ``(M_rr, M_rz, M_zr, M_zz)`` where the first index is the
    velocity component at the field point ``(r, z)`` and the second the
    force component on the source ring ``(r0, z0)``.  The ring-radius
    factor of the surface measure is *not* included.  The kernel obeys the
    exchange symmetry ``M(x, x0) = M(x0, x)^T`` and develops a log
    singularity as the points coalesce.
    """
    r, z, r0, z0 = np.broadcast_arrays(
        np.asarray(r, float), np.asarray(z, float),
        np.asarray(r0, float), np.asarray(z0, float),
    )
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    z = np.atleast_1d(z)
    r0 = np.atleast_1d(r0)
    z0 = np.atleast_1d(z0)
    if np.any(r <= 0.0) or np.any(r0 <= 0.0):
        raise ValueError("ring kernel requires strictly positive radii")
    dz = z - z0
    dsq = dz * dz + (r - r0) ** 2
    if np.any(dsq == 0.0):
        raise ValueError("field and source points coincide")
    big_dsq = dz * dz + (r + r0) ** 2
    d_big = np.sqrt(big_dsq)
    m = 4.0 * r * r0 / big_dsq

    i10, i11, i30, i31 = _ring_integrals(d_big, dsq, m)

    m_zz = i10 + dz * dz * i30
    m_zr = dz * (r * i31 - r0 * i30)
    m_rz = dz * (r * i30 - r0 * i31)
    # The rr integrand is [2 cos(phi) R^2 - dz^2 cos(phi) - r r0 sin^2(phi)]
    # / R^3, and by parts r r0 int sin^2(phi) / R^3 dphi = I11.  This form
    # has no terms that cancel as the points coalesce.
    m_rr = i11 - dz * dz * i31
    if scalar:
        return float(m_rr[0]), float(m_rz[0]), float(m_zr[0]), float(m_zz[0])
    return m_rr, m_rz, m_zr, m_zz


class CubicHermite:
    """Piecewise-cubic Hermite interpolant from values and slopes at knots.

    ``y`` and ``dydx`` end in the knot axis; leading axes are curves on
    the same knots, so one interval search serves them all.  Like
    ``scipy.interpolate.PPoly`` it holds per-interval coefficients:
    ``searchsorted`` finds the interval, and Horner's rule sums the cubic
    in the offset from its left knot.  Points beyond the end knots
    extrapolate the end cubics.
    """

    def __init__(self, x, y, dydx) -> None:
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dydx = np.asarray(dydx, dtype=float)
        h = np.diff(self.x)
        secant = np.diff(y) / h
        left = dydx[..., :-1]
        excess = (left + dydx[..., 1:] - 2.0 * secant) / h
        # Coefficients of 1, t, t^2 and t^3 in the offset t from the left knot.
        self.c = np.stack(
            [y[..., :-1], left, (secant - left) / h - excess, excess / h]
        )

    def __call__(self, x, nu: int = 0):
        """Values (``nu=0``) or first derivatives (``nu=1``) at ``x``.

        The result has the leading shape of ``y`` followed by that of ``x``.
        """
        if nu not in (0, 1):
            raise ValueError("only values (nu=0) and slopes (nu=1) are supported")
        x = np.asarray(x, dtype=float)
        # Clipping sends points beyond the end knots to the end intervals.
        i = np.searchsorted(self.x, x, side="right") - 1
        t = x - np.take(self.x[:-1], i, mode="clip")
        c0, c1, c2, c3 = np.take(self.c, i, axis=-1, mode="clip")
        if nu == 0:
            return c0 + t * (c1 + t * (c2 + t * c3))
        return c1 + t * (2.0 * c2 + t * (3.0 * c3))


@dataclass
class BoundaryMesh:
    """Equal-arclength boundary elements along a meridian curve."""

    element_bounds: np.ndarray  # arclength positions, shape (n + 1,)
    midpoint_r: np.ndarray
    midpoint_z: np.ndarray
    widths: np.ndarray
    meridian: CubicHermite  # (r, z) against arclength from the first pole
    # Element j mirrors element n-1-j across a plane z = const.
    mirrored: bool = False

    def r_of(self, arc, nu: int = 0):
        """Radius (``nu=0``) or dr/dl (``nu=1``) at arclength ``arc``."""
        return self.meridian(arc, nu)[0]

    def z_of(self, arc, nu: int = 0):
        """Axial position (``nu=0``) or dz/dl (``nu=1``) at arclength ``arc``."""
        return self.meridian(arc, nu)[1]

    @property
    def n_elements(self) -> int:
        return self.widths.size

    @property
    def midpoints_arc(self) -> np.ndarray:
        return 0.5 * (self.element_bounds[:-1] + self.element_bounds[1:])

    @property
    def total_arclength(self) -> float:
        return float(self.element_bounds[-1])


def mesh_from_meridian(
    r, z, arclength, n_elements: int, slopes=None
) -> BoundaryMesh:
    """Split a sampled meridian into equal-arclength boundary elements.

    The samples must run from pole to pole with strictly increasing
    arclength.  Element midpoints serve as collocation points and must
    stay off the axis.  ``slopes`` are ``(dr/dl, dz/dl)`` at the samples
    when they are known; otherwise they are the knot slopes of the cubic
    spline through the samples.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    arclength = np.asarray(arclength, dtype=float)
    if not (r.shape == z.shape == arclength.shape) or r.ndim != 1 or r.size < 8:
        raise MeshError("need matching 1-D meridian samples (>= 8 points)")
    if not (n_elements >= 1 and n_elements <= MAX_ELEMENTS):
        raise MeshError(f"n_elements must be in [1, {MAX_ELEMENTS}]")
    if np.any(np.diff(arclength) <= 0.0):
        raise MeshError("arclength must be strictly increasing")
    scale = max(1.0, float(arclength[-1] - arclength[0]))
    if np.min(r[1:-1]) < -1e-8 * scale:
        raise MeshError("meridian crosses the axis of revolution")

    arc = arclength - arclength[0]
    points = np.stack([r, z])
    if slopes is None:
        # Imported here: scipy.interpolate is slow to load, and the drag
        # path (profile_to_mesh) knows its slopes.
        from scipy.interpolate import CubicSpline

        slopes = CubicSpline(arc, points, axis=1)(arc, 1)
    meridian = CubicHermite(arc, points, slopes)
    bounds = np.linspace(0.0, arc[-1], n_elements + 1)
    mid_r, mid_z = meridian(0.5 * (bounds[:-1] + bounds[1:]))
    if np.any(mid_r <= 0.0):
        raise MeshError("collocation point on or below the axis")
    return BoundaryMesh(
        element_bounds=bounds,
        midpoint_r=mid_r,
        midpoint_z=mid_z,
        widths=np.diff(bounds),
        meridian=meridian,
    )


def profile_to_mesh(profile: BodyProfile, n_elements: int) -> BoundaryMesh:
    """Mesh a tangent-angle profile; its arclength is exactly lam*(s+1).

    The unit tangent at every sample is exactly ``(sin phi, cos phi)``,
    so the interpolant needs no spline.  Odd Legendre modes make the
    tangent angle odd in ``s`` on a grid with ``s[i] == -s[-1-i]``, so the
    body is fore-aft symmetric and the mesh is marked mirrored.
    """
    arc = profile.lam * (profile.s + 1.0)
    slopes = (np.sin(profile.phi), np.cos(profile.phi))
    mesh = mesh_from_meridian(profile.r, profile.z, arc, n_elements, slopes)
    return replace(mesh, mirrored=True)


# Pairs of elements at least this many elements apart are integrated with
# half the Gauss order of the nearer regular pairs.
_FAR_GAP = 8


@lru_cache(maxsize=8)
def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.flags.writeable = False
    return rule


def assemble_single_layer(
    mesh: BoundaryMesh, quad_order: int = 8, self_order: int = 12
) -> np.ndarray:
    """Collocation matrix of the single-layer velocity operator.

    The matrix is the block matrix ``[[rr, rz], [zr, zz]]``: radial
    velocity rows over axial velocity rows, radial traction unknowns
    before axial ones.  One rule table integrates every pair of
    collocation element ``i`` and source element ``j``; the signed gap
    ``d = j - i`` picks the rule, which splits element ``j`` into Gauss
    panels.  Pairs ``_FAR_GAP`` or more apart use half the Gauss order of
    the nearer regular pairs; the neighbours are subdivided with panels
    graded toward the collocation point; the self element splits at the
    collocation point and subtracts the logarithmic singularity, which is
    integrated in closed form.

    On a mirrored mesh only the rows of the first ``ceil(n/2)`` elements
    are assembled, and element ``j`` is folded with its mirror image
    ``n-1-j``: ``q_z`` is even and ``q_r`` odd under the mirror.  The
    ``n x n`` result then has ``n // 2`` radial and ``ceil(n/2)`` axial
    unknowns; for odd ``n`` the middle element has neither a radial
    unknown nor a radial row.
    """
    if quad_order < 2 or self_order < 2:
        raise ValueError("quadrature orders must be at least 2")
    n = mesh.n_elements
    rows = (n + 1) // 2 if mesh.mirrored else n
    rc = mesh.midpoint_r[:, None, None]
    zc = mesh.midpoint_z[:, None, None]
    d = np.arange(n)[None, :] - np.arange(rows)[:, None]
    gap = np.abs(d)
    # (pairs kept, panel edges as fractions of element j, Gauss order)
    rules = (
        (gap >= _FAR_GAP, (0.0, 1.0), max(2, quad_order // 2)),
        ((gap >= 2) & (gap < _FAR_GAP), (0.0, 1.0), quad_order),
        (d == 1, (0.0, 0.125, 0.25, 0.5, 1.0), quad_order),
        (d == -1, (0.0, 0.5, 0.75, 0.875, 1.0), quad_order),
        (d == 0, (0.0, 0.5, 1.0), self_order),
    )
    blocks = np.empty((4, rows, n))  # rr, rz, zr, zz over (row, element)
    for keep, fractions, order in rules:
        i_idx, j_idx = np.nonzero(keep)
        xi, wq = _gauss(order)
        # Gauss nodes on the panels of every source element up to the last kept.
        used = slice(j_idx.max(initial=0) + 1)
        edges = mesh.element_bounds[used, None] + mesh.widths[used, None] * fractions
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        nodes = 0.5 * (edges[:, :-1] + edges[:, 1:])[..., None] + half * xi
        weights = half * wq
        r_raw, z_k = mesh.meridian(nodes)
        # Interpolant overshoot can dip below the axis right at the poles;
        # those nodes carry (clipped) zero measure, so pad the kernel radius.
        measure = (np.clip(r_raw, 0.0, None) * weights)[j_idx]
        kernel = ring_stokeslet(
            rc[i_idx], zc[i_idx], np.maximum(r_raw, 1e-14)[j_idx], z_k[j_idx]
        )
        blocks[:, i_idx, j_idx] = [(m * measure).sum(axis=(1, 2)) for m in kernel]

    # The loop ends on the self rule.  The kernel times the ring radius
    # behaves as -2 log(distance) at the collocation point, for the rr and
    # zz components alike; swap that term's quadrature for its closed form.
    own = mesh.midpoints_arc[:rows, None, None]
    log_quad = 2.0 * (weights * np.log(np.abs(nodes - own))).sum(axis=(-2, -1))
    width = mesh.widths[:rows]
    log_exact = 2.0 * width * (np.log(0.5 * width) - 1.0)
    diag = np.arange(rows)
    blocks[0::3, diag, diag] += log_quad - log_exact
    blocks *= 1.0 / (8.0 * np.pi)

    k = n // 2 if mesh.mirrored else n  # radial unknowns
    radial = axial = blocks
    if mesh.mirrored:
        flip = blocks[..., ::-1][..., :k]
        radial = blocks[..., :k] - flip
        axial = blocks[..., :rows].copy()
        axial[..., :k] += flip
    return np.block([[radial[0, :k], axial[1, :k]], [radial[2], axial[3]]])


def solve_tractions(
    mesh: BoundaryMesh, quad_order: int = 8, self_order: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """Traction densities (q_r, q_z) for a body fixed in a unit stream.

    A mirrored mesh is solved folded and unfolded to full length here.
    """
    matrix = assemble_single_layer(mesh, quad_order, self_order)
    n = mesh.n_elements
    k = n // 2 if mesh.mirrored else n  # radial unknowns
    rhs = np.zeros(matrix.shape[0])
    rhs[k:] = 1.0
    solution = np.linalg.solve(matrix, rhs)
    q_r, q_z = solution[:k], solution[k:]
    if mesh.mirrored:
        q_r = np.concatenate([q_r, np.zeros(n - 2 * k), -q_r[::-1]])
        q_z = np.concatenate([q_z, q_z[:k][::-1]])
    return q_r, q_z


@dataclass(frozen=True)
class DragResult:
    """Axial drag force and its ratio to the unit-sphere Stokes drag."""

    drag: float
    normalized: float
    n_elements: int


def solve_drag(
    mesh: BoundaryMesh, quad_order: int = 8, self_order: int = 12
) -> DragResult:
    """Drag of the meshed body held fixed in a unit stream along z."""
    _, q_z = solve_tractions(mesh, quad_order, self_order)
    force = float(2.0 * np.pi * np.sum(mesh.midpoint_r * mesh.widths * q_z))
    return DragResult(
        drag=force, normalized=force / SPHERE_DRAG, n_elements=mesh.n_elements
    )


def export_traction_csv(mesh: BoundaryMesh, q_r, q_z, path) -> None:
    """Write midpoint tractions as CSV columns (s, f_r, f_z).

    ``s`` is the arclength position rescaled to [-1, 1] to mirror the
    profile parametrization.
    """
    length = mesh.total_arclength
    s_mid = 2.0 * mesh.midpoints_arc / length - 1.0
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["s", "f_r", "f_z"])
        for row in zip(s_mid, q_r, q_z):
            writer.writerow([f"{value:.12g}" for value in row])
