"""Boundary-element drag solver against analytic and quadrature oracles."""

import dataclasses
import math
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import shapeopt
from shapeopt import stokesbem
from shapeopt.axisym import GeometricConstraint, integrate_profile, rescale_to_constraint
from shapeopt.rundir import write_tractions
from shapeopt.stokesbem import (
    MAX_ELEMENTS,
    SPHERE_DRAG,
    CubicHermite,
    MeshError,
    assemble_single_layer,
    mesh_from_meridian,
    profile_to_mesh,
    ring_stokeslet,
    solve_drag,
    solve_tractions,
)

SPHERE = np.array([-math.pi / 2])


def sphere_mesh(n_elements, radius=1.0):
    theta = np.linspace(0.0, math.pi, 2001)
    r = radius * np.sin(theta)
    z = -radius * np.cos(theta)
    return mesh_from_meridian(r, z, radius * theta, n_elements)


# ------------------------------------------------------------------ kernel

def oracle_kernel(r, z, r0, z0):
    """Direct azimuthal quadrature of the free-space Stokeslet over the ring."""

    def component(f):
        val, _ = quad(f, 0.0, 2.0 * math.pi, limit=400, epsabs=1e-13, epsrel=1e-13)
        return val

    def parts(phi):
        dx = r - r0 * math.cos(phi)
        dy = -r0 * math.sin(phi)
        dz = z - z0
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        # project the source ring direction onto the field point's (r, z) frame
        return dx, dy, dz, dist

    def f_rr(phi):
        dx, dy, dz, dist = parts(phi)
        dr_field = dx  # radial component at the field azimuth 0
        dr_source = dx * math.cos(phi) + dy * math.sin(phi)
        return math.cos(phi) / dist + dr_field * dr_source / dist**3

    def f_rz(phi):
        dx, dy, dz, dist = parts(phi)
        return dx * dz / dist**3

    def f_zr(phi):
        dx, dy, dz, dist = parts(phi)
        dr_source = dx * math.cos(phi) + dy * math.sin(phi)
        return dz * dr_source / dist**3

    def f_zz(phi):
        dx, dy, dz, dist = parts(phi)
        return 1.0 / dist + dz * dz / dist**3

    return (
        component(f_rr),
        component(f_rz),
        component(f_zr),
        component(f_zz),
    )


def test_kernel_matches_azimuthal_quadrature():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(25):
        r, r0 = rng.uniform(0.2, 2.0, 2)
        z, z0 = rng.uniform(-1.5, 1.5, 2)
        if abs(z - z0) < 0.05 and abs(r - r0) < 0.05:
            z0 += 0.2
        got = ring_stokeslet(r, z, r0, z0)
        want = oracle_kernel(r, z, r0, z0)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    assert worst < 5e-9  # oracle quadrature accuracy bound


def test_kernel_small_m_branch_continuity():
    # same geometry evaluated just either side of the branch switch
    r0, z0 = 1.0, 0.0
    for m_target in (1e-4, 0.049, 0.051):
        # choose a field radius giving the target modulus at fixed dz
        dz = 2.0
        # m = 4 r r0 / ((r+r0)^2 + dz^2); solve for r by iteration
        r = 0.5
        for _ in range(60):
            r = m_target * ((r + r0) ** 2 + dz**2) / (4 * r0)
        got = ring_stokeslet(r, z0 + dz, r0, z0)
        want = oracle_kernel(r, z0 + dz, r0, z0)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-10


def elliptic_k_e(x):
    """The kernel's K and E of ``m = 1 - x``, in fresh arrays."""
    return stokesbem._elliptic_k_e(x)


def test_elliptic_integrals_match_scipy():
    from scipy.special import ellipe, ellipkm1

    # scipy's ellipkm1 takes Cephes's separate branch where x <= 2^-53
    x = np.logspace(-300.0, 0.0, 20001)
    assert np.count_nonzero(x <= 2.0**-53) > 1000
    k, _ = elliptic_k_e(x)
    assert np.max(np.abs(k / ellipkm1(x) - 1.0)) <= 4e-16
    # ellipe rounds 1 - m itself; give the kernel that same rounded x
    m = 1.0 - x
    m = m[m < 1.0]
    x = 1.0 - m
    assert np.count_nonzero(x <= 2.0**-53) > 0
    _, e = elliptic_k_e(x)
    assert np.max(np.abs(e / ellipe(m) - 1.0)) <= 4e-16


def closed_form_kernel(r, z, r0, z0):
    """The kernel's closed forms in 40-digit arithmetic, from exact float inputs."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        r, z, r0, z0 = (mp.mpf(float(v)) for v in (r, z, r0, z0))
        dz2 = (z - z0) ** 2
        dsq = (r - r0) ** 2 + dz2
        big_dsq = (r + r0) ** 2 + dz2
        m = 4 * r * r0 / big_dsq
        k, e = mp.ellipk(m), mp.ellipe(m)
        d = mp.sqrt(big_dsq)
        i10 = 4 * k / d
        i11 = 4 * (2 * (k - e) / m - k) / d
        i30 = 4 * e / (d * dsq)
        e_om = e / (1 - m)
        i31 = 4 * (2 * (e_om - k) / m - e_om) / (d * big_dsq)
        return [
            float(v)
            for v in (
                i11 - dz2 * i31,
                (z - z0) * (r * i30 - r0 * i31),
                (z - z0) * (r * i31 - r0 * i30),
                i10 + dz2 * i30,
            )
        ]


@pytest.mark.parametrize(
    "m", [1e-12, 1e-4, 0.049, 0.0501, 0.051, 0.06, 0.1, 0.3, 0.5, 0.9, 0.999, 1 - 1e-8]
)
def test_kernel_matches_its_closed_forms_in_high_precision(m):
    # unit rings m = 4 / (4 + dz^2) apart, and a field point off the source
    # ring (1.0, 0.3) at distance rho along a slanted direction, with rho
    # solving m rho^2 - 4 (1 - m) r0 c rho - 4 (1 - m) r0^2 = 0
    c, s = math.cos(0.6), math.sin(0.6)
    rho = 2.0 * ((1 - m) * c + math.sqrt((1 - m) ** 2 * c * c + m * (1 - m))) / m
    for args in [(1.0, 2.0 * math.sqrt(1.0 / m - 1.0), 1.0, 0.0),
                 (1.0 + rho * c, 0.3 + rho * s, 1.0, 0.3)]:
        got = np.array(ring_stokeslet(*args))
        want = np.array(closed_form_kernel(*args))
        assert np.max(np.abs(got - want)) <= 2e-13 * np.max(np.abs(want)), args


def test_kernel_exchange_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(50):
        r, r0 = rng.uniform(0.1, 2.5, 2)
        z, z0 = rng.uniform(-2.0, 2.0, 2)
        if abs(z - z0) + abs(r - r0) < 0.02:
            continue
        m_rr, m_rz, m_zr, m_zz = ring_stokeslet(r, z, r0, z0)
        s_rr, s_rz, s_zr, s_zz = ring_stokeslet(r0, z0, r, z)
        assert m_rr == pytest.approx(s_rr, rel=1e-12, abs=1e-12)
        assert m_zz == pytest.approx(s_zz, rel=1e-12, abs=1e-12)
        assert m_rz == pytest.approx(s_zr, rel=1e-12, abs=1e-12)
        assert m_zr == pytest.approx(s_rz, rel=1e-12, abs=1e-12)


def test_kernel_far_field_decay():
    # doubling an axial separation roughly halves the dominant components
    near = ring_stokeslet(1.0, 10.0, 1.0, 0.0)
    far = ring_stokeslet(1.0, 20.0, 1.0, 0.0)
    assert near[3] / far[3] == pytest.approx(2.0, rel=0.06)


def test_kernel_log_singularity_slope():
    # approach along the meridian: kernel ~ -2 ln(distance) + bounded
    r0, z0 = 1.0, 0.3
    eps = np.array([1e-3, 1e-4, 1e-5, 1e-7, 1e-8, 1e-9])
    kernel = np.array([ring_stokeslet(r0, z0 + e, r0, z0) for e in eps])
    slopes = np.diff(kernel[:, [0, 3]], axis=0) / np.diff(np.log(eps))[:, None]
    assert np.allclose(slopes, -2.0, rtol=0.01)  # M_rr and M_zz alike


def test_kernel_array_call_matches_scalar_calls():
    # both sides of the series switch at m = 0.05, in one array call; the
    # elliptic forms are evaluated everywhere and must stay quiet where the
    # series overwrites them
    m = np.array([1e-12, 0.049, 0.05, 0.051, 0.9])
    dz = 2.0 * np.sqrt(1.0 / m - 1.0)  # unit rings: m = 4 / (4 + dz^2)
    with np.errstate(all="raise"):
        together = np.array(ring_stokeslet(1.0, dz, 1.0, 0.0))
        alone = np.array([ring_stokeslet(1.0, h, 1.0, 0.0) for h in dz]).T
    assert np.all(np.isfinite(together))
    assert np.array_equal(together, alone)


def test_kernel_rejects_bad_points():
    with pytest.raises(ValueError):
        ring_stokeslet(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ring_stokeslet(1.0, 0.0, 1.0, 0.0)  # coincident


def kernel_layouts():
    """Named ``(r, z, r0, z0)`` calls in the layouts the solver and tests use,
    with field points far enough off for the small-m series."""
    rng = np.random.default_rng(13)
    field = rng.uniform(0.2, 2.0, 40), rng.uniform(-1.0, 1.0, 40)
    field[1][::5] += 30.0  # m well below 0.05
    source = rng.uniform(0.2, 2.0, (4, 40)), rng.uniform(-1.0, 1.0, (4, 40))
    return {
        "far": (*field, *source),  # (4, P) sources against (P,) rows
        "near": (*field, source[0][0], source[1][0]),
        "reference": (
            field[0][:, None, None], field[1][:, None, None],
            source[0].T.reshape(40, 2, 2), source[1].T.reshape(40, 2, 2),
        ),
        "empty": (field[0][:0], field[1][:0], source[0][:, :0], source[1][:, :0]),
        "scalar": (0.7, 31.0, 1.1, 0.2),
    }


def test_kernel_results_do_not_depend_on_block_size(monkeypatch):
    want = {name: ring_stokeslet(*args) for name, args in kernel_layouts().items()}
    monkeypatch.setattr(stokesbem, "_BLOCK", 7)
    for name, args in kernel_layouts().items():
        got = ring_stokeslet(*args)
        assert type(got) is type(want[name]), name
        assert np.array_equal(np.asarray(got), np.asarray(want[name])), name
    assert want["far"].shape == (4, 4, 40)
    assert want["reference"].shape == (4, 40, 2, 2)
    assert want["empty"].shape == (4, 4, 0)
    # a coincident pair in the last block of many is still found
    r, z, r0, z0 = (np.array(a, copy=True) for a in kernel_layouts()["near"])
    r0[-1], z0[-1] = r[-1], z[-1]
    with pytest.raises(ValueError, match="coincide"):
        ring_stokeslet(r, z, r0, z0)


def test_kernel_results_are_owned_by_the_caller():
    # every call returns a new array; no result may alias another
    args = kernel_layouts()["far"]
    first = ring_stokeslet(*args)
    kept = first.copy()
    second = ring_stokeslet(args[0], args[1] + 0.5, args[2], args[3])
    assert second is not first and not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(ring_stokeslet, *args) for _ in range(2)]
        results = [future.result(timeout=60) for future in futures]
    assert not np.shares_memory(*results)
    for result in results:
        assert np.array_equal(result, kept)


# -------------------------------------------------------------------- mesh

def test_sphere_mesh_arclength():
    mesh = sphere_mesh(100)
    assert mesh.total_arclength == pytest.approx(math.pi, rel=1e-6)
    assert mesh.widths.sum() == pytest.approx(math.pi, rel=1e-8)
    assert mesh.n_elements == 100
    assert np.all(mesh.midpoint_r > 0)


def test_single_element_mesh():
    mesh = sphere_mesh(1)
    assert mesh.n_elements == 1
    assert mesh.widths[0] == pytest.approx(math.pi, rel=1e-6)


def test_element_size_halves():
    coarse = sphere_mesh(50)
    fine = sphere_mesh(100)
    assert fine.widths.max() == pytest.approx(coarse.widths.max() / 2, rel=0.1)


def test_mesh_validation():
    theta = np.linspace(0.0, math.pi, 101)
    r, z, arc = np.sin(theta), -np.cos(theta), theta
    with pytest.raises(MeshError):
        mesh_from_meridian(r, z, arc, 0)
    with pytest.raises(MeshError):
        mesh_from_meridian(r, z, arc, MAX_ELEMENTS + 1)
    with pytest.raises(MeshError):
        mesh_from_meridian(-r, z, arc, 10)  # negative radius
    with pytest.raises(MeshError):
        mesh_from_meridian(r[:4], z[:4], arc[:4], 2)  # too few samples


def test_profile_to_mesh_arclength():
    profile = rescale_to_constraint(
        integrate_profile(SPHERE, 801), GeometricConstraint.fixed_volume()
    )
    mesh = profile_to_mesh(profile, 100)
    # meridian length of the unit sphere is pi
    assert mesh.total_arclength == pytest.approx(math.pi, rel=1e-6)


def test_profile_interpolant_takes_the_exact_tangent():
    profile = next(random_profiles(53, 1))
    mesh = profile_to_mesh(profile, 40)
    knots = mesh.meridian.x
    assert np.array_equal(knots, profile.lam * (profile.s + 1.0))
    # exact at every knot but the last, which the end cubic reaches with round-off
    inner = knots[:-1]
    assert np.array_equal(mesh.meridian(inner)[0], profile.r[:-1])
    assert np.array_equal(mesh.meridian(inner)[1], profile.z[:-1])
    assert np.array_equal(mesh.meridian(inner, 1)[0], np.sin(profile.phi[:-1]))
    assert np.array_equal(mesh.meridian(inner, 1)[1], np.cos(profile.phi[:-1]))
    end = knots[-1]
    assert mesh.meridian(end)[0] == pytest.approx(profile.r[-1], abs=1e-14)
    assert mesh.meridian(end)[1] == pytest.approx(profile.z[-1], abs=1e-14)
    r_end, z_end = mesh.meridian(end, 1)
    assert r_end == pytest.approx(math.sin(profile.phi[-1]), abs=1e-13)
    assert z_end == pytest.approx(math.cos(profile.phi[-1]), abs=1e-13)


def slope_free_deviation(n_samples):
    """Largest gap between the slope-free meridian of an egg and its cubic spline.

    The egg is sampled on a non-uniform arclength grid.  Returns the gaps
    in position and in tangent.
    """
    theta = np.linspace(0.0, math.pi, n_samples) ** 1.3 / math.pi**0.3
    r = np.sin(theta) * (1.0 - 0.25 * np.cos(theta))
    z = -np.cos(theta)
    arc = 0.5 + np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(r), np.diff(z)))])
    mesh = mesh_from_meridian(r, z, arc, 30)
    arc = arc - arc[0]  # the mesh measures arclength from the first pole
    points = np.random.default_rng(59).uniform(0.0, arc[-1], 2000)
    spline = CubicSpline(arc, np.stack([r, z]), axis=1)
    return [np.max(np.abs(mesh.meridian(points, nu) - spline(points, nu))) for nu in (0, 1)]


def test_slope_free_meridian_converges_to_the_cubic_spline():
    # Finite-difference slopes are second order, so the Hermite interpolant
    # meets the spline to third order in position and second in tangent.
    (position, tangent), (finer_position, finer_tangent) = map(
        slope_free_deviation, (301, 601)
    )
    assert position < 2e-7 and tangent < 1e-4
    assert position / finer_position > 6.0
    assert tangent / finer_tangent > 3.0


def test_cubic_hermite_reproduces_cubics():
    x = np.array([0.0, 0.3, 1.0, 1.1, 2.5])
    cubics = [
        np.polynomial.Polynomial([0.5, -1.0, 2.0, 0.7]),
        np.polynomial.Polynomial([-2.0, 0.0, 0.3, -1.1]),
    ]
    pair = CubicHermite(
        x, [p(x) for p in cubics], [p.deriv()(x) for p in cubics]
    )
    single = CubicHermite(x, cubics[0](x), cubics[0].deriv()(x))
    points = np.linspace(-0.5, 3.0, 70).reshape(7, 10)  # extrapolation included
    assert pair(points).shape == (2, 7, 10) and single(points).shape == (7, 10)
    assert np.array_equal(pair(points)[0], single(points))
    for nu in (0, 1):
        expected = [p.deriv(nu)(points) for p in cubics]
        assert np.allclose(pair(points, nu), expected, rtol=0, atol=1e-12)
    assert single(0.3) == cubics[0](0.3)
    with pytest.raises(ValueError):
        single(points, 2)


def test_drag_path_does_not_import_scipy_interpolate():
    script = """
import sys
import numpy as np
import shapeopt.cli
from shapeopt.axisym import integrate_profile
from shapeopt.stokesbem import mesh_from_meridian, profile_to_mesh, solve_drag
profile = integrate_profile(np.array([-1.4, 0.3]), 201)
assert solve_drag(profile_to_mesh(profile, 24)).drag > 0
assert "scipy.interpolate" not in sys.modules, "the drag path imported scipy.interpolate"
theta = np.linspace(0.0, np.pi, 101)
assert solve_drag(mesh_from_meridian(np.sin(theta), -np.cos(theta), theta, 24)).drag > 0
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, loaded
"""
    src = os.path.dirname(os.path.dirname(shapeopt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pad is glibc's")
def test_warm_campaign_solves_fault_in_no_pages():
    # Without the heap pad, glibc trims a solve's temporaries off the heap
    # and the next solve faults them in again: 45-180 pages per evaluate at
    # n = 120 in a mock campaign.  A bare loop of solves of one design
    # does not show it; the campaign's own allocations between solves do.
    # The heap's history decides, so the campaigns run in a fresh process.
    script = """
import contextlib, io, json, os, resource, tempfile
from shapeopt import cli, problems
faults = []
evaluate = problems.AxisymDragProblem.evaluate
def counted(self, x):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        return evaluate(self, x)
    finally:
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
problems.AxisymDragProblem.evaluate = counted
for n in (60, 120, 400):
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w") as handle:
            json.dump({"problem": "axisym_volume", "optimizer": "mock", "budget": 10,
                       "K": 2, "n_elements": n, "output_dir": out}, handle)
        faults.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", "--config", path]) == 0
        assert len(faults) == 80, len(faults)
        # five generations warm the heap up; count the last five
        print(n, sum(faults[40:]) / 40)
"""
    src = os.path.dirname(os.path.dirname(shapeopt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    per_evaluate = dict(line.split() for line in done.stdout.splitlines())
    assert list(per_evaluate) == ["60", "120", "400"]
    for n, faults in per_evaluate.items():
        assert float(faults) <= 1.0, (n, per_evaluate)


# ------------------------------------------------------------------- solve

def test_matrix_finite_and_reciprocal():
    # off-diagonal blocks inherit the kernel exchange symmetry once the
    # ring-radius-times-width measures are divided out; the residual is the
    # midpoint-vs-element quadrature error, which shrinks as O(w^2)
    def reciprocity_residual(n):
        mesh = sphere_mesh(n)
        matrix = assemble_single_layer(mesh)
        assert np.all(np.isfinite(matrix))
        i, j = n // 6, (2 * n) // 3
        block = matrix[np.ix_([i, n + i], [j, n + j])]
        swapped = matrix[np.ix_([j, n + j], [i, n + i])]
        mi = mesh.midpoint_r[i] * mesh.widths[i]
        mj = mesh.midpoint_r[j] * mesh.widths[j]
        return np.max(np.abs(block * mi - swapped.T * mj)) / np.max(
            np.abs(block * mi)
        )

    coarse = reciprocity_residual(48)
    fine = reciprocity_residual(192)
    assert coarse < 2e-2
    assert fine < coarse / 8  # second-order shrinkage


def test_matrix_shape():
    matrix = assemble_single_layer(sphere_mesh(16))
    assert matrix.shape == (32, 32)
    assert np.all(np.isfinite(matrix))


def test_sphere_drag_convergence():
    # frozen self-convergence table; Stokes law gives exactly 6 pi
    expected = {25: 1.00065828, 50: 1.00016451, 100: 1.00004112}
    drs = {}
    for n, value in expected.items():
        result = solve_drag(sphere_mesh(n))
        drs[n] = result.normalized
        assert result.normalized == pytest.approx(value, abs=2e-6)
        assert result.drag == pytest.approx(SPHERE_DRAG * result.normalized, rel=1e-12)
    errors = [abs(drs[n] - 1.0) for n in (25, 50, 100)]
    assert errors[0] > errors[1] > errors[2]


def test_sphere_traction_is_uniform():
    # the translating sphere carries the constant traction q_z = 3/2
    mesh = sphere_mesh(100)
    q_r, q_z = solve_tractions(mesh)
    assert np.max(np.abs(q_z - 1.5)) < 2e-3
    assert np.max(np.abs(q_r)) < 2e-3


def drag_at_order(monkeypatch, mesh, quad_order):
    monkeypatch.setattr(stokesbem, "QUAD_ORDER", quad_order)
    return solve_drag(mesh).normalized


def test_odd_quadrature_orders_solve(monkeypatch):
    # no regular Gauss node may land on a collocation point
    mesh = sphere_mesh(64)
    d3 = drag_at_order(monkeypatch, mesh, 3)
    d8 = drag_at_order(monkeypatch, mesh, 8)
    d9 = drag_at_order(monkeypatch, mesh, 9)
    assert np.isfinite(d3)
    assert d3 != d8  # the patched order took effect
    assert abs(d9 - d8) / d8 < 5e-4


def test_kernel_evaluations_per_solve(monkeypatch):
    # folded meshes: 4 nodes per pair 8 or more elements apart, 8 per pair
    # 2..7 apart, 32 per neighbour pair and 24 per self element, in two calls
    calls = []

    def counting(r, z, r0, z0):
        calls.append(np.broadcast(r, z, r0, z0).size)
        return ring_stokeslet(r, z, r0, z0)

    monkeypatch.setattr(stokesbem, "ring_stokeslet", counting)
    profile = next(random_profiles(61, 1))
    for n, expected in ((24, 2504), (32, 3896), (120, 36104), (240, 129944)):
        calls.clear()
        solve_drag(profile_to_mesh(profile, n))
        assert len(calls) == 2 and sum(calls) == expected


def test_rule_tables_are_read_only():
    table = stokesbem._rule_table(40, True, 8, 12)
    arrays = [
        getattr(table, field.name)
        for field in dataclasses.fields(table)
        if isinstance(getattr(table, field.name), np.ndarray)
    ]
    assert len(arrays) == 10
    for array in arrays:
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        table.near_index[0] = 0
    assert stokesbem._rule_table(40, True, 8, 12) is table


def test_assembly_from_threads_matches_serial():
    # more threads than cores and a short switch interval, so the threads
    # interleave while they build and read the shared rule table
    mesh = profile_to_mesh(next(random_profiles(67, 1)), 121)
    serial = assemble_single_layer(mesh)
    stokesbem._rule_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(assemble_single_layer, mesh) for _ in range(8)]
            matrices = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for matrix in matrices:
        assert np.array_equal(matrix, serial)


def reference_blocks(mesh, quad_order=8, self_order=12):
    """Unfolded ``[rr, rz, zr, zz]`` blocks, one kernel call per rule."""
    n = mesh.n_elements
    d = np.arange(n)[None, :] - np.arange(n)[:, None]
    rules = (  # (pairs kept, panel edges as fractions of element j, order)
        (np.abs(d) >= 8, (0.0, 1.0), max(2, quad_order // 2)),
        ((np.abs(d) >= 2) & (np.abs(d) < 8), (0.0, 1.0), quad_order),
        (d == 1, (0.0, 0.125, 0.25, 0.5, 1.0), quad_order),
        (d == -1, (0.0, 0.5, 0.75, 0.875, 1.0), quad_order),
        (d == 0, (0.0, 0.5, 1.0), self_order),
    )
    blocks = np.empty((4, n, n))
    for keep, fractions, order in rules:
        i, j = np.nonzero(keep)
        xi, wq = np.polynomial.legendre.leggauss(order)
        edges = mesh.element_bounds[:-1, None] + mesh.widths[:, None] * fractions
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        nodes = 0.5 * (edges[:, :-1] + edges[:, 1:])[..., None] + half * xi
        weights = half * wq
        r, z = mesh.meridian(nodes)
        measure = (np.clip(r, 0.0, None) * weights)[j]
        kernel = ring_stokeslet(
            mesh.midpoint_r[i, None, None], mesh.midpoint_z[i, None, None],
            np.maximum(r, 1e-14)[j], z[j],
        )
        blocks[:, i, j] = [(m * measure).sum(axis=(1, 2)) for m in kernel]
    # the self rule came last: swap its quadrature of -2 log(distance)
    distance = np.abs(nodes - mesh.midpoints_arc[:, None, None])
    log_quad = 2.0 * (weights * np.log(distance)).sum(axis=(1, 2))
    log_exact = 2.0 * mesh.widths * (np.log(0.5 * mesh.widths) - 1.0)
    diag = np.arange(n)
    blocks[0::3, diag, diag] += log_quad - log_exact
    return blocks / (8.0 * np.pi)


def test_assembly_matches_per_rule_reference(monkeypatch):
    # The reference places its panels on the absolute arclength, so an
    # eighth-element panel's width carries rounding of up to about 8 n eps
    # relative; the table's fractions of an element do not.
    def check(mesh, *orders):
        n = mesh.n_elements
        matrix = assemble_single_layer(mesh)
        got = np.stack([matrix[:n, :n], matrix[:n, n:], matrix[n:, :n], matrix[n:, n:]])
        want = reference_blocks(mesh, *orders)
        tolerance = 8 * n * np.finfo(float).eps
        assert np.max(np.abs(got - want)) < tolerance * np.max(np.abs(want))

    for profile, n in zip(random_profiles(71, 3), (9, 40, 121)):
        check(dataclasses.replace(profile_to_mesh(profile, n), mirrored=False))
    for quad_order in (3, 16):
        monkeypatch.setattr(stokesbem, "QUAD_ORDER", quad_order)
        monkeypatch.setattr(stokesbem, "SELF_ORDER", 7)
        check(sphere_mesh(30), quad_order, 7)


def random_profiles(seed, count):
    rng = np.random.default_rng(seed)
    while count:
        k = rng.integers(1, 6)
        coeffs = rng.uniform(-0.4, 0.4, k)
        coeffs[0] = rng.uniform(-2.2, -0.9)
        profile = integrate_profile(coeffs, 401)
        if profile.min_interior_radius < 1e-3:
            continue
        count -= 1
        yield rescale_to_constraint(profile, GeometricConstraint.fixed_volume())


def test_folded_and_full_drags_agree():
    for profile, n in zip(random_profiles(41, 8), (1, 2, 3, 9, 40, 41, 120, 121)):
        mesh = profile_to_mesh(profile, n)
        assert mesh.mirrored
        full = dataclasses.replace(mesh, mirrored=False)
        assert assemble_single_layer(mesh).shape == (n, n)
        assert assemble_single_layer(full).shape == (2 * n, 2 * n)
        folded = solve_drag(mesh).drag
        assert folded > 0
        assert folded == pytest.approx(solve_drag(full).drag, rel=1e-13)


def test_folded_tractions_have_mirror_parity():
    for profile, n in zip(random_profiles(43, 3), (1, 60, 61)):
        q_r, q_z = solve_tractions(profile_to_mesh(profile, n))
        assert q_r.shape == q_z.shape == (n,)
        scale = np.max(np.abs(q_z))
        assert np.max(np.abs(q_r + q_r[::-1])) < 1e-12 * scale  # odd
        assert np.max(np.abs(q_z - q_z[::-1])) < 1e-12 * scale  # even


def test_folded_and_full_tractions_differ_by_the_pressure_gauge():
    # the full system admits a constant pressure, a traction along the normal
    profile = next(random_profiles(47, 1))
    mesh = profile_to_mesh(profile, 60)
    q_r, q_z = solve_tractions(mesh)
    f_r, f_z = solve_tractions(dataclasses.replace(mesh, mirrored=False))
    s = mesh.midpoints_arc
    dr, dz = mesh.meridian(s, 1)
    normal = np.concatenate([dz, -dr])
    diff = np.concatenate([f_r - q_r, f_z - q_z])
    gauge = diff @ normal / (normal @ normal)
    assert np.max(np.abs(diff - gauge * normal)) < 1e-11 * np.max(np.abs(q_z))


def test_folded_sphere_traction_is_uniform():
    profile = rescale_to_constraint(
        integrate_profile(SPHERE, 801), GeometricConstraint.fixed_volume()
    )
    q_r, q_z = solve_tractions(profile_to_mesh(profile, 100))
    assert np.max(np.abs(q_z - 1.5)) < 2e-3
    assert np.max(np.abs(q_r)) < 2e-3


def test_asymmetric_meridian_solves_unfolded():
    # an egg, blunter at its front than at its back: no mirror plane
    theta = np.linspace(0.0, math.pi, 2001)
    r = np.sin(theta) * (1.0 - 0.25 * np.cos(theta))
    z = -np.cos(theta)
    arc = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(r), np.diff(z)))])
    mesh = mesh_from_meridian(r, z, arc, 80)
    assert not mesh.mirrored
    result = solve_drag(mesh)
    assert np.isfinite(result.drag) and result.drag > 0


def test_quadrature_order_self_convergence(monkeypatch):
    mesh = sphere_mesh(64)
    d8 = drag_at_order(monkeypatch, mesh, 8)
    d16 = drag_at_order(monkeypatch, mesh, 16)
    assert d16 != d8  # the patched order took effect
    assert abs(d8 - d16) / d16 < 5e-4


def test_drag_scale_linearity():
    d1 = solve_drag(sphere_mesh(64, radius=1.0)).drag
    d2 = solve_drag(sphere_mesh(64, radius=2.0)).drag
    d3 = solve_drag(sphere_mesh(64, radius=3.0)).drag
    assert d2 / d1 == pytest.approx(2.0, rel=1e-9)
    assert d3 / d1 == pytest.approx(3.0, rel=1e-9)


def test_drag_positive_for_random_valid_bodies():
    rng = np.random.default_rng(31)
    found = 0
    while found < 5:
        coeffs = rng.uniform([-2.5, -0.5], [-0.5, 0.5])
        profile = integrate_profile(coeffs, 401)
        if profile.min_interior_radius < -1e-8:
            continue
        scaled = rescale_to_constraint(profile, GeometricConstraint.fixed_volume())
        result = solve_drag(profile_to_mesh(scaled, 60))
        assert np.isfinite(result.normalized) and result.drag > 0
        found += 1


def test_mesh_convergence_is_monotone():
    errors = []
    for n in (50, 100, 200):
        errors.append(
            abs(
                solve_drag(sphere_mesh(n)).normalized
                - solve_drag(sphere_mesh(2 * n)).normalized
            )
        )
    assert errors[0] > errors[1] > errors[2]


def test_export_traction_csv(tmp_path):
    mesh = sphere_mesh(20)
    q_r, q_z = solve_tractions(mesh)
    path = tmp_path / "traction.csv"
    write_tractions(path, mesh, q_r, q_z)
    rows = path.read_text().splitlines()
    assert rows[0] == "s,f_r,f_z"
    assert len(rows) == 21
    s_values = np.array([float(row.split(",")[0]) for row in rows[1:]])
    assert -1.0 < s_values[0] < s_values[-1] < 1.0
