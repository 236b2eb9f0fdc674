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
integrated analytically.  The table depends only on the element count,
the mirror and the Gauss orders, so it is built once and cached, with
its nodes as fractions of the source element.  Each solve then calls the
kernel twice: once on the far pairs, about 88% of them at n = 120, and
once on the flat node list of all nearer pairs.  The kernel writes its
four components into one new ``(4, *shape)`` array, which the caller
owns.  It computes them block by block, at most ``_BLOCK`` points at a
time, with every temporary written in place into a fixed set of
per-thread scratch rows: ``_SLOTS * _BLOCK * 8`` bytes (3 MiB) per
thread, whatever n is.  Those pages stay mapped between solves, so a
solve does not fault its temporaries in again.  Each block evaluates the
elliptic forms over all its points and overwrites the small-m entries
with their series.  The operations and their order do not depend on the
blocking, so the results are the same bits for any block size.
The dense system, in the one block layout ``[[rr, rz], [zr, zz]]``, is
solved directly, and drag is reported both raw (unit viscosity, unit
stream speed) and normalized by the Stokes drag of the unit sphere.

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

import threading
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import binom, ellipe, ellipkm1

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
    "mesh_from_meridian",
    "profile_to_mesh",
    "ring_stokeslet",
    "solve_drag",
    "solve_tractions",
]


class MeshError(ValueError):
    """The meridian cannot be meshed into usable boundary elements."""


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


def _ring_integrals(dsq, big_dsq, m, work, flag):
    """Azimuthal integrals I_pq = int cos^q(phi) / R^p dphi, p in {1, 3}.

    With R^2 = D^2 (1 - m cos^2 u) the integrals reduce to complete
    elliptic integrals, evaluated over the whole block.  The reduced forms
    divide by m, so where ``m <= _SMALL_M`` their values are overwritten
    by power series in m.  Every temporary is written into the seven
    scratch arrays of ``work`` and the boolean ``flag``, all of the
    arguments' shape; the four integrals come back in four of them.
    """
    one_m, k, e, two_m, scale, i10, i11 = work
    np.divide(dsq, big_dsq, out=one_m)  # exact 1 - m, no cancellation
    ellipkm1(one_m, out=k)  # K from 1 - m keeps its digits as m -> 1
    ellipe(m, out=e)
    e_om = np.divide(e, one_m, out=one_m)
    np.divide(2.0, m, out=two_m)
    np.sqrt(big_dsq, out=scale)
    np.divide(4.0, scale, out=scale)  # 4 / D
    np.multiply(k, scale, out=i10)
    np.subtract(k, e, out=i11)  # 4 (2 (K - E) / m - K) / D
    i11 *= two_m
    i11 -= k
    i11 *= scale
    i30 = np.multiply(e, scale, out=e)  # 4 E / (D dsq)
    i30 /= dsq
    i31 = np.subtract(e_om, k, out=k)  # 4 (2 (E_om - K) / m - E_om) / D^3
    i31 *= two_m
    i31 -= e_om
    i31 *= scale
    i31 /= big_dsq

    small = np.flatnonzero(np.less_equal(m, _SMALL_M, out=flag))
    if small.size:
        ms = np.take(m, small)
        # Horner's rule, elementwise so that a point gets the same bits
        # alone or in any array; one row per integral.
        series = _SMALL_M_SERIES[-1, :, None] * ms
        for coeffs in _SMALL_M_SERIES[-2:0:-1, :, None]:
            series += coeffs
            series *= ms
        series += _SMALL_M_SERIES[0, :, None]
        scale = np.take(scale, small)
        np.put(i10, small, series[0] * scale)
        np.put(i11, small, series[1] * scale)
        scale /= np.take(big_dsq, small)
        np.put(i30, small, series[2] * scale)
        np.put(i31, small, series[3] * scale)

    return i10, i11, i30, i31


# The kernel works through its points in blocks of at most this many, in
# per-thread scratch of _SLOTS such rows and one boolean row, so its
# working memory stays at about _SLOTS * _BLOCK * 8 bytes per thread and
# does not grow with the call.  Scratch that is kept is not handed back to
# the allocator between solves, so its pages are faulted in only once.
_BLOCK = 32768
_SLOTS = 12
_scratch = threading.local()


def _scratch_rows():
    """This thread's scratch: ``(_SLOTS, _BLOCK)`` floats and ``_BLOCK`` flags."""
    rows = getattr(_scratch, "rows", None)
    if rows is None or rows[1].size != _BLOCK:
        rows = _scratch.rows = np.empty((_SLOTS, _BLOCK)), np.empty(_BLOCK, bool)
    return rows


def _blocks(shape):
    """Consecutive C-order blocks of ``shape``, each of at most ``_BLOCK`` points.

    A block is an index tuple: a slice of the outermost axis whose trailing
    axes fit in a block, at one index of every axis before it.
    """
    axis, trailing = len(shape), 1
    while axis and trailing * shape[axis - 1] <= _BLOCK:
        axis -= 1
        trailing *= shape[axis]
    if not axis:
        yield ()
        return
    step = _BLOCK // trailing
    for lead in np.ndindex(shape[: axis - 1]):
        for start in range(0, shape[axis - 1], step):
            yield lead + (slice(start, start + step),)


def _ring_block(r, z, r0, z0, out, work, flag):
    """The kernel on one block: ``out`` takes ``(M_rr, M_rz, M_zr, M_zz)``."""
    dz, dz2, dsq, m, big_dsq, *spare = work
    np.subtract(z, z0, out=dz)
    np.multiply(dz, dz, out=dz2)
    np.subtract(r, r0, out=dsq)  # dr
    dsq *= dsq
    dsq += dz2
    if not dsq.all():
        raise ValueError("field and source points coincide")
    rr4 = np.multiply(4.0, r, out=m)
    rr4 *= r0
    np.add(dsq, rr4, out=big_dsq)  # dz^2 + (r + r0)^2
    np.divide(rr4, big_dsq, out=m)

    i10, i11, i30, i31 = _ring_integrals(dsq, big_dsq, m, spare, flag)

    m_rr, m_rz, m_zr, m_zz = out
    product = dsq  # free once the integrals are done
    np.multiply(dz2, i30, out=m_zz)
    m_zz += i10
    np.multiply(r, i31, out=m_zr)
    m_zr -= np.multiply(r0, i30, out=product)
    m_zr *= dz
    np.multiply(r, i30, out=m_rz)
    m_rz -= np.multiply(r0, i31, out=product)
    m_rz *= dz
    # The rr integrand is [2 cos(phi) R^2 - dz^2 cos(phi) - r r0 sin^2(phi)]
    # / R^3, and by parts r r0 int sin^2(phi) / R^3 dphi = I11.  This form
    # has no terms that cancel as the points coalesce.
    i31 *= dz2
    np.subtract(i11, i31, out=m_rr)


def ring_stokeslet(r, z, r0, z0):
    """Azimuthally integrated free-space Stokeslet between meridian points.

    Returns ``(M_rr, M_rz, M_zr, M_zz)`` where the first index is the
    velocity component at the field point ``(r, z)`` and the second the
    force component on the source ring ``(r0, z0)``.  The ring-radius
    factor of the surface measure is *not* included.  The kernel obeys the
    exchange symmetry ``M(x, x0) = M(x0, x)^T`` and develops a log
    singularity as the points coalesce.  The arguments broadcast against
    each other; the result is a new ``(4, *shape)`` array of their
    broadcast shape, or a tuple of floats when they are all scalars.  The
    work is done block by block in fixed per-thread scratch (``_BLOCK``).
    """
    r, z, r0, z0 = (np.asarray(a, dtype=float) for a in (r, z, r0, z0))
    if np.any(r <= 0.0) or np.any(r0 <= 0.0):
        raise ValueError("ring kernel requires strictly positive radii")
    shape = np.broadcast(r, z, r0, z0).shape
    scalar = not shape
    shape = shape or (1,)
    result = np.empty((4, *shape))
    args = [a if a.shape == shape else np.broadcast_to(a, shape) for a in (r, z, r0, z0)]
    slots, flags = _scratch_rows()
    for block in _blocks(shape):
        out = result[(slice(None), *block)]
        size = out.size // 4
        work = slots[:, :size].reshape(_SLOTS, *out.shape[1:])
        flag = flags[:size].reshape(out.shape[1:])
        _ring_block(*(a[block] for a in args), out, work, flag)
    if scalar:
        return tuple(float(m[0]) for m in result)
    return result


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


def _panel_rule(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on the panels between ``edges`` in [0, 1]."""
    xi, wq = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * xi
    return nodes.ravel(), (half * wq).ravel()


@dataclass(frozen=True)
class _RuleTable:
    """Quadrature of every element pair of one mesh size.

    Node and weight positions are fractions of the source element, from
    its start.  The far pairs share one rule, so they keep only their pair
    indices.  The near rules' nodes are listed once per source element;
    every near pair, in row-major order, takes its rule's run of them, and
    its first entry in the flat node list is at ``near_starts``.
    """

    far: np.ndarray  # (row, element) mask of the far pairs
    far_rows: np.ndarray  # row of every far pair, row-major
    far_elements: np.ndarray  # source element of every far pair
    far_nodes: np.ndarray
    far_weights: np.ndarray
    near: np.ndarray  # mask of the near pairs
    near_nodes: np.ndarray  # all near rules' nodes on one element
    near_weights: np.ndarray
    near_sources: int  # elements 0 .. near_sources - 1 hold near nodes
    near_rows: np.ndarray  # row of every flat node
    near_index: np.ndarray  # flat index into a (near_sources, nodes) array
    near_starts: np.ndarray
    # Per unit width, the quadrature minus the closed form of the self
    # element's -2 log(distance) term.
    self_log: float


@lru_cache(maxsize=8)
def _rule_table(
    n: int, mirrored: bool, quad_order: int, self_order: int
) -> _RuleTable:
    """The rule table of ``assemble_single_layer``; its arrays are read-only.

    The signed gap ``d = j - i`` picks the rule of pair ``(i, j)``: half
    the Gauss order ``_FAR_GAP`` or more apart, the full order nearer,
    panels graded toward the collocation point for the neighbours, and
    the self element split at its collocation point.
    """
    rows = (n + 1) // 2 if mirrored else n
    d = np.arange(n)[None, :] - np.arange(rows)[:, None]
    gap = np.abs(d)
    far = gap >= _FAR_GAP
    near = ~far
    near_rules = (  # (panel edges as fractions of element j, Gauss order)
        ((0.0, 0.5, 1.0), self_order),  # d = 0: split at the collocation point
        ((0.0, 0.125, 0.25, 0.5, 1.0), quad_order),  # d = +1
        ((0.0, 0.5, 0.75, 0.875, 1.0), quad_order),  # d = -1
        ((0.0, 1.0), quad_order),  # 2 <= |d| < _FAR_GAP
    )
    rules = [_panel_rule(edges, order) for edges, order in near_rules]
    sizes = np.array([nodes.size for nodes, _ in rules])
    i, j = np.nonzero(near)
    signed = d[i, j]
    rule = np.select([signed == 0, signed == 1, signed == -1], [0, 1, 2], 3)
    count = sizes[rule]
    starts = np.cumsum(count) - count
    pair = np.repeat(np.arange(i.size), count)
    step = np.arange(pair.size) - starts[pair]  # node within its pair's rule
    first = (np.cumsum(sizes) - sizes)[rule]  # the rule's run on one element
    self_nodes, self_weights = rules[0]
    # int_0^1 log|t - 1/2| dt = -log 2 - 1, so the difference is O(1) per
    # unit width and free of cancellation.
    log_quad = self_weights @ np.log(np.abs(self_nodes - 0.5))
    far_nodes, far_weights = _panel_rule((0.0, 1.0), max(2, quad_order // 2))
    far_rows, far_elements = np.nonzero(far)
    table = _RuleTable(
        far=far,
        far_rows=far_rows.astype(np.int32),
        far_elements=far_elements.astype(np.int32),
        far_nodes=far_nodes,
        far_weights=far_weights,
        near=near,
        near_nodes=np.concatenate([nodes for nodes, _ in rules]),
        near_weights=np.concatenate([weights for _, weights in rules]),
        near_sources=int(j.max()) + 1,
        near_rows=i[pair].astype(np.int32),
        near_index=(j[pair] * sizes.sum() + first[pair] + step).astype(np.int32),
        near_starts=starts,
        self_log=2.0 * float(log_quad + np.log(2.0) + 1.0),
    )
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return table


def _source_rings(mesh: BoundaryMesh, fractions, weights, elements):
    """Kernel radius, axial position and quadrature measure at Gauss nodes.

    ``fractions`` and ``weights`` place the nodes on the source
    ``elements`` they broadcast against, which sets the results' shape.
    """
    width = mesh.widths[elements]
    r, z = mesh.meridian(mesh.element_bounds[elements] + fractions * width)
    # Interpolant overshoot can dip below the axis right at the poles;
    # those nodes carry (clipped) zero measure, so pad the kernel radius.
    return np.maximum(r, 1e-14), z, np.clip(r, 0.0, None) * (weights * width)


def assemble_single_layer(
    mesh: BoundaryMesh, quad_order: int = 8, self_order: int = 12
) -> np.ndarray:
    """Collocation matrix of the single-layer velocity operator.

    The matrix is the block matrix ``[[rr, rz], [zr, zz]]``: radial
    velocity rows over axial velocity rows, radial traction unknowns
    before axial ones.  A rule table, built once per mesh size, integrates
    every pair of collocation element ``i`` and source element ``j``; the
    signed gap ``d = j - i`` picks the rule, which splits element ``j``
    into Gauss panels.  Pairs ``_FAR_GAP`` or more apart use half the
    Gauss order of the nearer regular pairs; the neighbours are subdivided
    with panels graded toward the collocation point; the self element
    splits at the collocation point and subtracts the logarithmic
    singularity, which is integrated in closed form.  The kernel is called
    twice: once on the far pairs' (node, pair) arrays, over which the
    collocation points broadcast, and once on the flat node list of all
    nearer pairs.

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
    table = _rule_table(n, mesh.mirrored, quad_order, self_order)
    rc, zc = mesh.midpoint_r, mesh.midpoint_z
    blocks = np.empty((4, rows, n))  # rr, rz, zr, zz over (row, element)

    # Far pairs: the nodes of every element once, taken pair by pair.
    r0, z0, measure = _source_rings(
        mesh, table.far_nodes[:, None], table.far_weights[:, None], np.arange(n)
    )
    i, j = table.far_rows, table.far_elements
    kernel = ring_stokeslet(
        rc.take(i), zc.take(i), r0.take(j, axis=1), z0.take(j, axis=1)
    )
    measure = measure.take(j, axis=1)
    for block, m in zip(blocks, kernel):
        block[table.far] = np.einsum("qp,qp->p", m, measure)
    # Free the far arrays (m is a view of kernel) before the near pairs
    # allocate theirs.  A solve's temporaries then peak low enough that
    # glibc does not trim them off the heap, to fault them in again on the
    # next solve: at n = 120 that was about 400 page faults per solve.
    del kernel, measure, m

    # Near pairs: one flat node list, summed pair by pair.
    sources = np.arange(table.near_sources)[:, None]
    r0, z0, measure = _source_rings(mesh, table.near_nodes, table.near_weights, sources)
    i, node = table.near_rows, table.near_index
    kernel = ring_stokeslet(rc.take(i), zc.take(i), r0.take(node), z0.take(node))
    measure = measure.take(node)
    for block, m in zip(blocks, kernel):
        m *= measure
        block[table.near] = np.add.reduceat(m, table.near_starts)

    # The kernel times the ring radius behaves as -2 log(distance) at the
    # collocation point, for the rr and zz components alike; swap that
    # term's quadrature for its closed form.
    diag = np.arange(rows)
    blocks[0::3, diag, diag] += table.self_log * mesh.widths[:rows]
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
    """Axial drag force, its ratio to the unit-sphere Stokes drag, and the
    mesh and midpoint tractions ``(q_r, q_z)`` it was integrated from."""

    drag: float
    normalized: float
    mesh: BoundaryMesh
    q_r: np.ndarray
    q_z: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements


def solve_drag(
    mesh: BoundaryMesh, quad_order: int = 8, self_order: int = 12
) -> DragResult:
    """Drag of the meshed body held fixed in a unit stream along z."""
    q_r, q_z = solve_tractions(mesh, quad_order, self_order)
    force = float(2.0 * np.pi * np.sum(mesh.midpoint_r * mesh.widths * q_z))
    return DragResult(
        drag=force, normalized=force / SPHERE_DRAG, mesh=mesh, q_r=q_r, q_z=q_z
    )
