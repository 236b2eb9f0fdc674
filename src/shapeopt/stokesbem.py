"""Drag of axisymmetric bodies in creeping flow by a boundary-element method.

The body surface is a meridian curve revolved about the z axis.  A ring of
point forces is integrated in closed form over the azimuth, which turns
the single-layer surface integral into a line integral along the meridian
with complete elliptic integrals K and E in the kernel.  Both come from
the polynomial approximations of Cephes ``ellpk`` and ``ellpe``, the ones
``scipy.special`` evaluates, taken in numpy from the exact ``1 - m``,
which keeps the kernel's log singularity down to round-off separations.
The meridian between its samples is a piecewise-cubic Hermite
interpolant (``CubicHermite``).  ``profile_to_mesh`` gives it the exact
tangent of a tangent-angle profile; ``mesh_from_meridian`` without
slopes takes second-order finite differences of the samples.
Piecewise-constant force densities are collocated at element midpoints.
One rule table integrates every element pair: the signed gap between
source and collocation element picks the Gauss panels and the fixed
order, ``QUAD_ORDER`` (8) but half that ``_FAR_GAP`` or more elements
apart and ``SELF_ORDER`` (12) on the self element, with panels graded
toward the neighbours, and the self-element log singularity subtracted
and integrated analytically.  The table depends only on the element
count and the mirror, so it is built once and cached.  It lists every
Gauss node once, as a fraction of its source element, so each solve
evaluates the meridian once and then calls the kernel twice: once on the
far pairs, about 88% of them at n = 120, and once on the flat node list
of all nearer pairs.  The kernel works block by block, at most ``_BLOCK``
points at a time.  Each block evaluates the elliptic forms over all its
points and overwrites the small-m entries with their series.  The
operations and their order do not depend on the blocking, so the results
are the same bits for any block size.  Importing the module pads the top
of glibc's heap (``_HEAP_TOP_PAD``), so that solves reuse pages.
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

import ctypes
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .axisym import BodyProfile

SPHERE_DRAG = 6.0 * np.pi

# Dense direct solves stay cheap and well behaved up to this element count.
MAX_ELEMENTS = 400

# glibc hands free memory at its heap top back to the kernel and maps blocks
# over 128 KiB afresh, so each solve would fault its temporaries in again.
# Free memory kept at the heap top ends that.  This pad holds the largest
# solve's, unfolded at MAX_ELEMENTS (about 42 MiB), and costs resident
# memory only up to the largest solve a process has run.
_HEAP_TOP_PAD = 64 << 20
try:  # glibc's mallopt; other C libraries may lack it
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-2, _HEAP_TOP_PAD)  # -2 is M_TOP_PAD in glibc's malloc.h
except (AttributeError, OSError, TypeError):  # no mallopt, or no C library
    pass

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


def _binomials(a):
    """``binom(k + a, k)`` for ``k < _SMALL_M_TERMS``, as ``prod_{i<=k} (i + a) / k!``."""
    i = np.arange(1.0, _SMALL_M_TERMS)
    return np.concatenate([[1.0], np.cumprod(i + a) / np.cumprod(i)])


def _series_table():
    """The small-m series, one column per reduced integral I10, I11, I30, I31.

    Expanding (1 - m cos^2 u)^(-p/2) gives
    int_0^{pi/2} cos^(2j) u / (1 - m cos^2 u)^(p/2) du
        = sum_k binom(k + p/2 - 1, k) W_{k+j} m^k,
    with the Wallis integrals W_n = int_0^{pi/2} cos^(2n) u du, and
    cos(phi) = 2 cos^2 u - 1 has the moments 2 W_{k+1} - W_k = k W_k / (k + 1).
    """
    powers = np.arange(_SMALL_M_TERMS)
    half, three_halves = _binomials(-0.5), _binomials(0.5)
    wallis = 0.5 * np.pi * half
    cos_moments = wallis * powers / (powers + 1)
    series = np.stack(
        [half * wallis, half * cos_moments, three_halves * wallis, three_halves * cos_moments],
        axis=1,
    )
    series.flags.writeable = False
    return series


_SERIES = _series_table()

# Complete elliptic integrals K and E as functions of x = 1 - m, by the
# polynomial approximations of Cephes ``ellpk`` and ``ellpe`` (Moshier,
# Methods and Programs for Mathematical Functions, 1989), highest power
# first: K = P_K(x) - log(x) Q_K(x) and E = P_E(x) - log(x) x Q_E(x).
# Cephes takes K = log(4) - log(x) / 2 where x <= 2^-53; in doubles the
# polynomials give the same bits there, since P_K and Q_K round to their
# constant terms log(4) and 1/2.
_K_P = (
    1.37982864606273237150e-4, 2.28025724005875567385e-3, 7.97404013220415179367e-3,
    9.85821379021226008714e-3, 6.87489687449949877925e-3, 6.18901033637687613229e-3,
    8.79078273952743772254e-3, 1.49380448916805252718e-2, 3.08851465246711995998e-2,
    9.65735902811690126535e-2, 1.38629436111989062502e0,
)
_K_Q = (
    2.94078955048598507511e-5, 9.14184723865917226571e-4, 5.94058303753167793257e-3,
    1.54850516649762399335e-2, 2.39089602715924892727e-2, 3.01204715227604046988e-2,
    3.73774314173823228969e-2, 4.88280347570998239232e-2, 7.03124996963957469739e-2,
    1.24999999999870820058e-1, 4.99999999999999999821e-1,
)
_E_P = (
    1.53552577301013293365e-4, 2.50888492163602060990e-3, 8.68786816565889628429e-3,
    1.07350949056076193403e-2, 7.77395492516787092951e-3, 7.58395289413514708519e-3,
    1.15688436810574127319e-2, 2.18317996015557253103e-2, 5.68051945617860553470e-2,
    4.43147180560990850618e-1, 1.00000000000000000299e0,
)
_E_Q = (
    3.27954898576485872656e-5, 1.00962792679356715133e-3, 6.50609489976927491433e-3,
    1.68862163993311317300e-2, 2.61769742454493659583e-2, 3.34833904888224918614e-2,
    4.27180926518931511717e-2, 5.85936634471101055642e-2, 9.37499997197644278445e-2,
    2.49999999999888314361e-1,
)
# The four polynomials side by side, one row per power, so that each step
# of one Horner pass updates all four: fewer numpy calls, which matters
# when solves run on several threads.  Q_E's leading zero changes no bit.
_POLYNOMIALS = np.array([_K_P, _E_P, _K_Q, (0.0, *_E_Q)]).T[:, :, None]
_POLYNOMIALS.flags.writeable = False


def _elliptic_k_e(x):
    """K and E of ``m = 1 - x``, from the contiguous array ``x``.

    ``x`` is the exact ``1 - m``, which keeps the log singularity of K down
    to round-off separations.  Horner's rule runs as Cephes ``polevl``
    does, one operation at a time, so a point gets the same bits alone or
    in any array.
    """
    flat = x.ravel()
    log_x = np.log(flat)
    polys = flat * _POLYNOMIALS[0]
    polys += _POLYNOMIALS[1]
    for c in _POLYNOMIALS[2:]:
        polys *= flat
        polys += c
    k, e, k_q, e_q = polys
    k_q *= log_x
    k -= k_q
    e_q *= flat
    e_q *= log_x
    e -= e_q
    return k.reshape(x.shape), e.reshape(x.shape)


def _ring_integrals(dsq, big_dsq, m):
    """Azimuthal integrals I_pq = int cos^q(phi) / R^p dphi, p in {1, 3}.

    With R^2 = D^2 (1 - m cos^2 u) the integrals reduce to complete
    elliptic integrals, evaluated over the whole block.  The reduced forms
    divide by m, so where ``m <= _SMALL_M`` their values are overwritten
    by power series in m.  The arguments are contiguous arrays of one
    shape, and so are the four integrals.
    """
    one_m = dsq / big_dsq  # exact 1 - m, no cancellation
    k, e = _elliptic_k_e(one_m)
    e_om = e / one_m
    two_m = 2.0 / m
    scale = 4.0 / np.sqrt(big_dsq)  # 4 / D
    i10 = k * scale
    i11 = k - e  # 4 (2 (K - E) / m - K) / D
    i11 *= two_m
    i11 -= k
    i11 *= scale
    i30 = e * scale  # 4 E / (D dsq)
    i30 /= dsq
    i31 = e_om - k  # 4 (2 (E_om - K) / m - E_om) / D^3
    i31 *= two_m
    i31 -= e_om
    i31 *= scale
    i31 /= big_dsq

    small = np.flatnonzero(m <= _SMALL_M)
    if small.size:
        ms = np.take(m, small)
        # Horner's rule, elementwise so that a point gets the same bits
        # alone or in any array; one row per integral.
        series = _SERIES[-1, :, None] * ms
        for coeffs in _SERIES[-2:0:-1, :, None]:
            series += coeffs
            series *= ms
        series += _SERIES[0, :, None]
        scale = np.take(scale, small)
        np.put(i10, small, series[0] * scale)
        np.put(i11, small, series[1] * scale)
        scale /= np.take(big_dsq, small)
        np.put(i30, small, series[2] * scale)
        np.put(i31, small, series[3] * scale)

    return i10, i11, i30, i31


# The kernel works through its points in blocks of at most this many, so
# that a block's dozen temporaries (256 KiB each) stay in cache.  Unblocked,
# an assembly took 11-13 ms against 9 ms at n = 240, 36-44 against 26 at 400.
_BLOCK = 32768


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


def _ring_block(r, z, r0, z0, out):
    """The kernel on one block: ``out`` takes ``(M_rr, M_rz, M_zr, M_zz)``."""
    dz = z - z0
    dz2 = dz * dz
    dsq = r - r0  # dr
    dsq *= dsq
    dsq += dz2
    if not dsq.all():
        raise ValueError("field and source points coincide")
    rr4 = 4.0 * r
    rr4 *= r0
    big_dsq = dsq + rr4  # dz^2 + (r + r0)^2
    m = rr4 / big_dsq

    i10, i11, i30, i31 = _ring_integrals(dsq, big_dsq, m)

    m_rr, m_rz, m_zr, m_zz = out
    np.multiply(dz2, i30, out=m_zz)
    m_zz += i10
    np.multiply(r, i31, out=m_zr)
    m_zr -= r0 * i30
    m_zr *= dz
    np.multiply(r, i30, out=m_rz)
    m_rz -= r0 * i31
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
    broadcast shape, or a tuple of floats when they are all scalars.
    """
    r, z, r0, z0 = (np.asarray(a, dtype=float) for a in (r, z, r0, z0))
    if np.any(r <= 0.0) or np.any(r0 <= 0.0):
        raise ValueError("ring kernel requires strictly positive radii")
    shape = np.broadcast(r, z, r0, z0).shape
    scalar = not shape
    shape = shape or (1,)
    result = np.empty((4, *shape))
    args = [a if a.shape == shape else np.broadcast_to(a, shape) for a in (r, z, r0, z0)]
    for block in _blocks(shape):
        _ring_block(*(a[block] for a in args), result[(slice(None), *block)])
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
    when they are known; otherwise they are second-order finite
    differences of the samples, so callers that know exact tangents
    should pass them.
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
        slopes = np.gradient(points, arc, axis=1, edge_order=2)
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
    so no finite differences are needed.  Odd Legendre modes make the
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
# Gauss orders of the regular pairs and of the self element's two panels.
QUAD_ORDER = 8
SELF_ORDER = 12


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

    Every Gauss node is listed once, with its position and weight as
    fractions of its source element: the far rule on every element, then
    all near rules on each element that near pairs use.  The far pairs
    take a ``(node, pair)`` array of indices into that list; each near
    pair, in row-major order, takes its rule's run of ``near_index``,
    which starts at ``near_starts``.
    """

    elements: np.ndarray  # source element of every node
    nodes: np.ndarray
    weights: np.ndarray
    far: np.ndarray  # (row, element) mask of the far pairs
    far_rows: np.ndarray  # row of every far pair, row-major
    far_index: np.ndarray  # (node, pair) index of the far pairs' nodes
    near: np.ndarray  # mask of the near pairs
    near_rows: np.ndarray  # row of every near pair's nodes
    near_index: np.ndarray  # index of every near pair's nodes
    near_starts: np.ndarray
    # Per unit width, the quadrature minus the closed form of the self
    # element's -2 log(distance) term.
    self_log: float


@lru_cache(maxsize=8)
def _rule_table(n: int, mirrored: bool, quad_order: int, self_order: int) -> _RuleTable:
    """The rule table of ``assemble_single_layer``; its arrays are read-only.

    The signed gap ``d = j - i`` picks the rule of pair ``(i, j)``: half
    the Gauss order ``_FAR_GAP`` or more apart, the full order nearer,
    panels graded toward the collocation point for the neighbours, and
    the self element split at its collocation point.  The orders are
    arguments, so they are part of the cache key.
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
    near_nodes, near_weights = (np.concatenate(column) for column in zip(*rules))
    sources = int(j.max()) + 1  # elements 0 .. sources - 1 hold near nodes
    # Far node q of element e is at q * n + e; the near nodes follow.
    offset = far_nodes.size * n
    table = _RuleTable(
        elements=np.concatenate([np.tile(np.arange(n), far_nodes.size),
                                 np.repeat(np.arange(sources), sizes.sum())]),
        nodes=np.concatenate([np.repeat(far_nodes, n), np.tile(near_nodes, sources)]),
        weights=np.concatenate([np.repeat(far_weights, n), np.tile(near_weights, sources)]),
        far=far,
        far_rows=far_rows.astype(np.int32),
        far_index=(np.arange(far_nodes.size)[:, None] * n + far_elements).astype(np.int32),
        near=near,
        near_rows=i[pair].astype(np.int32),
        near_index=(offset + j[pair] * sizes.sum() + first[pair] + step).astype(np.int32),
        near_starts=starts,
        self_log=2.0 * float(log_quad + np.log(2.0) + 1.0),
    )
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return table


def assemble_single_layer(mesh: BoundaryMesh) -> np.ndarray:
    """Collocation matrix of the single-layer velocity operator.

    The matrix is the block matrix ``[[rr, rz], [zr, zz]]``: radial
    velocity rows over axial velocity rows, radial traction unknowns
    before axial ones.  The cached rule table (``_rule_table``) integrates
    every pair of collocation element ``i`` and source element ``j``.  The
    meridian is evaluated once at all the table's nodes, and the kernel is
    called twice: once on the far pairs' (node, pair) arrays, over which
    the collocation points broadcast, and once on the flat node list of
    all nearer pairs.

    On a mirrored mesh only the rows of the first ``ceil(n/2)`` elements
    are assembled, and element ``j`` is folded with its mirror image
    ``n-1-j``: ``q_z`` is even and ``q_r`` odd under the mirror.  The
    ``n x n`` result then has ``n // 2`` radial and ``ceil(n/2)`` axial
    unknowns; for odd ``n`` the middle element has neither a radial
    unknown nor a radial row.
    """
    n = mesh.n_elements
    rows = (n + 1) // 2 if mesh.mirrored else n
    table = _rule_table(n, mesh.mirrored, QUAD_ORDER, SELF_ORDER)
    rc, zc = mesh.midpoint_r, mesh.midpoint_z
    blocks = np.empty((4, rows, n))  # rr, rz, zr, zz over (row, element)

    # Kernel radius, axial position and quadrature measure at every node.
    width = mesh.widths.take(table.elements)
    r, z0 = mesh.meridian(mesh.element_bounds.take(table.elements) + table.nodes * width)
    # Interpolant overshoot can dip below the axis right at the poles;
    # those nodes carry (clipped) zero measure, so pad the kernel radius.
    measure = np.clip(r, 0.0, None) * (table.weights * width)
    r0 = np.maximum(r, 1e-14)

    # Far pairs: one rule, summed over its nodes pair by pair.
    i, node = table.far_rows, table.far_index
    kernel = ring_stokeslet(rc.take(i), zc.take(i), r0.take(node), z0.take(node))
    pair_measure = measure.take(node)
    for block, m in zip(blocks, kernel):
        block[table.far] = np.einsum("qp,qp->p", m, pair_measure)

    # Near pairs: one flat node list, summed pair by pair.
    i, node = table.near_rows, table.near_index
    kernel = ring_stokeslet(rc.take(i), zc.take(i), r0.take(node), z0.take(node))
    pair_measure = measure.take(node)
    for block, m in zip(blocks, kernel):
        m *= pair_measure
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


def solve_tractions(mesh: BoundaryMesh) -> tuple[np.ndarray, np.ndarray]:
    """Traction densities (q_r, q_z) for a body fixed in a unit stream.

    A mirrored mesh is solved folded and unfolded to full length here.
    """
    matrix = assemble_single_layer(mesh)
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


def solve_drag(mesh: BoundaryMesh) -> DragResult:
    """Drag of the meshed body held fixed in a unit stream along z."""
    q_r, q_z = solve_tractions(mesh)
    force = float(2.0 * np.pi * np.sum(mesh.midpoint_r * mesh.widths * q_z))
    return DragResult(
        drag=force, normalized=force / SPHERE_DRAG, mesh=mesh, q_r=q_r, q_z=q_z
    )
