"""Drag of axisymmetric bodies in creeping flow by a boundary-element method.

The body surface is a meridian curve revolved about the z axis.  A ring of
point forces is integrated in closed form over the azimuth, which turns
the single-layer surface integral into a line integral along the meridian
with complete elliptic integrals in the kernel.  ``scipy.special`` supplies
them: K by ``ellipkm1`` from the exact ``1 - m``, which keeps the kernel's
log singularity down to round-off separations, and E by ``ellipe``.
Piecewise-constant force densities are collocated at element midpoints;
the self-element log singularity is subtracted and integrated
analytically.  The dense system is solved directly, and drag is reported
both raw (unit viscosity, unit stream speed) and normalized by the Stokes
drag of the unit sphere.

Conventions: the kernel ``ring_stokeslet`` excludes the ring-radius factor
of the surface measure, so ``u(x) = 1/(8 pi) * integral M(x, x0) q(x0)
r0 dl0`` with the meridian arclength ``l0``.  Solving ``u = e_z`` at the
collocation points makes ``q`` the surface traction of a body held fixed
in a unit stream, up to a constant-pressure gauge that carries no net
force; the unit sphere then integrates to a drag of exactly ``6 pi``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import ellipe, ellipk, ellipkm1

from .axisym import BodyProfile

SPHERE_DRAG = 6.0 * np.pi

# Dense direct solves stay cheap and well behaved up to this element count.
MAX_ELEMENTS = 400

# Elliptic-integral evaluation of the azimuthal integrals loses digits to
# cancellation as the modulus m -> 0; below this threshold the integrals
# are done by direct Gauss quadrature of the (then smooth) integrand.
_SMALL_M = 0.05
_SMALL_M_NODES = 24

__all__ = [
    "BoundaryMesh",
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


# Fixed Gauss rule on [0, pi/2] for the small-m fallback branch.
_u_nodes, _u_weights = np.polynomial.legendre.leggauss(_SMALL_M_NODES)
_U_NODES = 0.25 * np.pi * (_u_nodes + 1.0)
_U_WEIGHTS = 0.25 * np.pi * _u_weights
_COS2_U = np.cos(_U_NODES) ** 2
_COSPHI_U = 2.0 * _COS2_U - 1.0


def _ring_integrals(d_big, dsq, m):
    """Azimuthal integrals I_pq = int cos^q(phi) / R^p dphi, p in {1, 3}.

    With R^2 = D^2 (1 - m cos^2 u) the integrals reduce to complete
    elliptic integrals.  The reduced forms divide by m and m^2, so for
    small m they are evaluated by quadrature instead.
    """
    big = m > _SMALL_M
    i10 = np.empty_like(m)
    i11 = np.empty_like(m)
    i30 = np.empty_like(m)
    i31 = np.empty_like(m)
    i32 = np.empty_like(m)

    if np.any(big):
        mb = m[big]
        db = d_big[big]
        dsqb = dsq[big]
        dcubed = db * db * db
        one_m = dsqb / (db * db)  # exact 1 - m, no cancellation
        k = ellipkm1(one_m)  # K from 1 - m keeps its digits as m -> 1
        e = ellipe(mb)
        e_om = e / one_m
        i10[big] = 4.0 * k / db
        i11[big] = 4.0 * (2.0 * (k - e) / mb - k) / db
        i30[big] = 4.0 * e / (db * dsqb)
        i31[big] = 4.0 * (2.0 * (e_om - k) / mb - e_om) / dcubed
        i32[big] = (
            4.0
            * (
                4.0 * (e_om - 2.0 * k + e) / (mb * mb)
                - 4.0 * (e_om - k) / mb
                + e_om
            )
            / dcubed
        )

    small = ~big
    if np.any(small):
        ms = m[small][..., None]
        ds = d_big[small]
        dcubed = ds * ds * ds
        base = 1.0 - ms * _COS2_U
        inv1 = 1.0 / np.sqrt(base)
        inv3 = inv1 / base
        i10[small] = 4.0 * (inv1 @ _U_WEIGHTS) / ds
        i11[small] = 4.0 * ((inv1 * _COSPHI_U) @ _U_WEIGHTS) / ds
        i30[small] = 4.0 * (inv3 @ _U_WEIGHTS) / dcubed
        i31[small] = 4.0 * ((inv3 * _COSPHI_U) @ _U_WEIGHTS) / dcubed
        i32[small] = 4.0 * ((inv3 * _COSPHI_U ** 2) @ _U_WEIGHTS) / dcubed

    return i10, i11, i30, i31, i32


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

    i10, i11, i30, i31, i32 = _ring_integrals(d_big, dsq, m)

    m_zz = i10 + dz * dz * i30
    m_zr = dz * (r * i31 - r0 * i30)
    m_rz = dz * (r * i30 - r0 * i31)
    m_rr = i11 + (r * r + r0 * r0) * i31 - r * r0 * (i30 + i32)
    if scalar:
        return float(m_rr[0]), float(m_rz[0]), float(m_zr[0]), float(m_zz[0])
    return m_rr, m_rz, m_zr, m_zz


@dataclass
class BoundaryMesh:
    """Equal-arclength boundary elements along a meridian curve."""

    element_bounds: np.ndarray  # arclength positions, shape (n + 1,)
    midpoint_r: np.ndarray
    midpoint_z: np.ndarray
    widths: np.ndarray
    r_of: CubicSpline
    z_of: CubicSpline

    @property
    def n_elements(self) -> int:
        return self.widths.size

    @property
    def midpoints_arc(self) -> np.ndarray:
        return 0.5 * (self.element_bounds[:-1] + self.element_bounds[1:])

    @property
    def total_arclength(self) -> float:
        return float(self.element_bounds[-1])


def mesh_from_meridian(r, z, arclength, n_elements: int) -> BoundaryMesh:
    """Split a sampled meridian into equal-arclength boundary elements.

    The samples must run from pole to pole with strictly increasing
    arclength.  Element midpoints serve as collocation points and must
    stay off the axis.
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
    r_of = CubicSpline(arc, r)
    z_of = CubicSpline(arc, z)
    bounds = np.linspace(0.0, arc[-1], n_elements + 1)
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    mid_r = np.asarray(r_of(mids), dtype=float)
    mid_z = np.asarray(z_of(mids), dtype=float)
    if np.any(mid_r <= 0.0):
        raise MeshError("collocation point on or below the axis")
    return BoundaryMesh(
        element_bounds=bounds,
        midpoint_r=mid_r,
        midpoint_z=mid_z,
        widths=np.diff(bounds),
        r_of=r_of,
        z_of=z_of,
    )


def profile_to_mesh(profile: BodyProfile, n_elements: int) -> BoundaryMesh:
    """Mesh a tangent-angle profile; its arclength is exactly lam*(s+1)."""
    arc = profile.lam * (profile.s + 1.0)
    return mesh_from_meridian(profile.r, profile.z, arc, n_elements)


def _source_nodes(mesh: BoundaryMesh, centers, halfwidths, xi, wq):
    """Gauss nodes and weighted measures on intervals along the meridian."""
    nodes = centers[..., None] + halfwidths[..., None] * xi
    weights = halfwidths[..., None] * wq
    r_raw = np.asarray(mesh.r_of(nodes), dtype=float)
    z_nodes = np.asarray(mesh.z_of(nodes), dtype=float)
    # Spline overshoot can dip below the axis right at the poles; those
    # nodes carry (clipped) zero measure, so pad the kernel radius only.
    measure = np.clip(r_raw, 0.0, None) * weights
    r_kernel = np.maximum(r_raw, 1e-14)
    return nodes, r_kernel, z_nodes, measure


# Panel grading toward the shared endpoint for near-singular neighbours.
_NEIGHBOR_FRACTIONS = np.array([0.0, 0.125, 0.25, 0.5, 1.0])


def assemble_single_layer(
    mesh: BoundaryMesh, quad_order: int = 8, self_order: int = 12
) -> np.ndarray:
    """Collocation matrix of the single-layer velocity operator.

    Unknown ordering is ``(q_r, q_z)`` per element; row ``2i`` is the
    radial velocity at collocation point ``i`` and row ``2i + 1`` the
    axial one.  Off-diagonal blocks use Gauss-Legendre quadrature of the
    given order; the elements adjacent to the collocation point are
    subdivided with panels graded toward it; the self element splits at
    the collocation point and subtracts the logarithmic singularity,
    which is integrated in closed form.
    """
    if quad_order < 2 or self_order < 2:
        raise ValueError("quadrature orders must be at least 2")
    n = mesh.n_elements
    mids = mesh.midpoints_arc
    half = 0.5 * mesh.widths
    rc = mesh.midpoint_r
    zc = mesh.midpoint_z

    xi, wq = np.polynomial.legendre.leggauss(quad_order)

    # --- regular blocks: every (collocation, element) pair at once
    _, r_k, z_k, meas = _source_nodes(mesh, mids, half, xi, wq)
    m_rr, m_rz, m_zr, m_zz = ring_stokeslet(
        rc[:, None, None], zc[:, None, None], r_k[None, :, :], z_k[None, :, :]
    )
    b_rr = (m_rr * meas).sum(axis=-1)
    b_rz = (m_rz * meas).sum(axis=-1)
    b_zr = (m_zr * meas).sum(axis=-1)
    b_zz = (m_zz * meas).sum(axis=-1)

    # --- neighbour blocks: graded composite panels toward the shared end
    if n > 1:
        frac = _NEIGHBOR_FRACTIONS
        for offset in (1, -1):
            i_idx = np.arange(n - 1) if offset == 1 else np.arange(1, n)
            j_idx = i_idx + offset
            starts = mesh.element_bounds[j_idx]
            w_j = mesh.widths[j_idx]
            if offset == 1:
                edges = starts[:, None] + w_j[:, None] * frac[None, :]
            else:
                rev = (1.0 - frac)[::-1]
                edges = starts[:, None] + w_j[:, None] * rev[None, :]
            centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
            halfwidths = 0.5 * np.diff(edges, axis=1)
            _, r_kn, z_kn, meas_n = _source_nodes(mesh, centers, halfwidths, xi, wq)
            m_rr, m_rz, m_zr, m_zz = ring_stokeslet(
                rc[i_idx, None, None], zc[i_idx, None, None], r_kn, z_kn
            )
            b_rr[i_idx, j_idx] = (m_rr * meas_n).sum(axis=(-2, -1))
            b_rz[i_idx, j_idx] = (m_rz * meas_n).sum(axis=(-2, -1))
            b_zr[i_idx, j_idx] = (m_zr * meas_n).sum(axis=(-2, -1))
            b_zz[i_idx, j_idx] = (m_zz * meas_n).sum(axis=(-2, -1))

    # --- self blocks: split at the collocation point, subtract the log
    xi_s, wq_s = np.polynomial.legendre.leggauss(self_order)
    left_centers = 0.5 * (mesh.element_bounds[:-1] + mids)
    right_centers = 0.5 * (mids + mesh.element_bounds[1:])
    quarter = 0.25 * mesh.widths
    centers = np.stack([left_centers, right_centers], axis=1)
    halfwidths = np.stack([quarter, quarter], axis=1)
    nodes, r_ks, z_ks, meas_s = _source_nodes(mesh, centers, halfwidths, xi_s, wq_s)
    m_rr, m_rz, m_zr, m_zz = ring_stokeslet(
        rc[:, None, None], zc[:, None, None], r_ks, z_ks
    )
    weights_s = halfwidths[..., None] * wq_s  # plain dl weights for the log term
    log_term = np.log(np.abs(nodes - mids[:, None, None]))
    # The kernel times the ring radius behaves as -2 log(distance) at the
    # collocation point, for the rr and zz components alike.
    log_quad = 2.0 * (weights_s * log_term).sum(axis=(-2, -1))
    log_exact = 2.0 * mesh.widths * (np.log(0.5 * mesh.widths) - 1.0)
    diag = np.arange(n)
    b_rr[diag, diag] = (m_rr * meas_s).sum(axis=(-2, -1)) + log_quad - log_exact
    b_zz[diag, diag] = (m_zz * meas_s).sum(axis=(-2, -1)) + log_quad - log_exact
    b_rz[diag, diag] = (m_rz * meas_s).sum(axis=(-2, -1))
    b_zr[diag, diag] = (m_zr * meas_s).sum(axis=(-2, -1))

    matrix = np.empty((2 * n, 2 * n))
    matrix[0::2, 0::2] = b_rr
    matrix[0::2, 1::2] = b_rz
    matrix[1::2, 0::2] = b_zr
    matrix[1::2, 1::2] = b_zz
    matrix *= 1.0 / (8.0 * np.pi)
    return matrix


def solve_tractions(
    mesh: BoundaryMesh, quad_order: int = 8, self_order: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """Traction densities (q_r, q_z) for a body fixed in a unit stream."""
    matrix = assemble_single_layer(mesh, quad_order, self_order)
    rhs = np.zeros(2 * mesh.n_elements)
    rhs[1::2] = 1.0
    solution = np.linalg.solve(matrix, rhs)
    return solution[0::2], solution[1::2]


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
