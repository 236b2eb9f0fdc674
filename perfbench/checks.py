"""Correctness checks the benchmark runs next to its timings.

Solver accuracy against the two closed forms of the acceptance gates,
drags on a fixed design panel against stored reference values, and the
integrity of every campaign's records.  Each check returns its figures
and a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_trapezoid

from shapeopt.axisym import GeometricConstraint
from shapeopt.evolution import Bounds, decode_design, encode_design
from shapeopt.problems import AxisymDragProblem
from shapeopt.stokesbem import mesh_from_meridian, solve_drag

PANEL_PATH = Path(__file__).with_name("panel.json")
PANEL_RTOL = 1e-6
SPHERE_TOL = 0.005
OBERBECK_TOL = 0.01
SPHEROID_ASPECT = 2.0
ACCURACY_ELEMENTS = 200


def spheroid_axes() -> tuple[float, float]:
    """Semi-axes of the prolate spheroid with the unit sphere's volume."""
    return SPHEROID_ASPECT ** (2.0 / 3.0), SPHEROID_ASPECT ** (-1.0 / 3.0)


def oberbeck_drag() -> float:
    """Closed-form axial drag of the prolate spheroid (Oberbeck)."""
    a, b = spheroid_axes()
    c = math.sqrt(a * a - b * b)
    xi0 = a / c
    return 16.0 * math.pi * c / (
        (1.0 + xi0 * xi0) * math.log((xi0 + 1.0) / (xi0 - 1.0)) - 2.0 * xi0
    )


def spheroid_drag() -> float:
    a, b = spheroid_axes()
    theta = np.linspace(0.0, math.pi, 4001)
    r = b * np.sin(theta)
    z = -a * np.cos(theta)
    speed = np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)
    arclength = cumulative_trapezoid(speed, theta, initial=0.0)
    return solve_drag(mesh_from_meridian(r, z, arclength, ACCURACY_ELEMENTS)).drag


def solver_accuracy() -> tuple[dict, list[str]]:
    """Sphere at n=200 against Stokes law, aspect-2 spheroid against Oberbeck."""
    sphere = AxisymDragProblem(n_modes=1, n_elements=ACCURACY_ELEMENTS)
    _, _, result = sphere.evaluate_detail(np.array([-math.pi / 2]))
    sphere_err = abs(result.normalized - 1.0)
    exact = oberbeck_drag()
    oberbeck_err = abs(spheroid_drag() - exact) / exact
    problems = []
    if not sphere_err <= SPHERE_TOL:
        problems.append(f"sphere drag off Stokes law by {sphere_err:.3e}")
    if not oberbeck_err <= OBERBECK_TOL:
        problems.append(f"spheroid drag off Oberbeck by {oberbeck_err:.3e}")
    return {"sphere_drag_relerr": sphere_err, "oberbeck_relerr": oberbeck_err}, problems


def panel_problem(entry: dict) -> AxisymDragProblem:
    constraint = (
        GeometricConstraint.fixed_volume()
        if entry["problem"] == "axisym_volume"
        else GeometricConstraint.fixed_area()
    )
    return AxisymDragProblem(
        n_modes=len(entry["design"]),
        constraint=constraint,
        n_elements=entry["n_elements"],
    )


def panel_drags(panel: list[dict]) -> list[float]:
    return [
        panel_problem(e).evaluate_detail(np.array(e["design"]))[2].normalized
        for e in panel
    ]


def panel_check() -> tuple[float, list[str]]:
    """Largest relative deviation of the panel drags from their references."""
    panel = json.loads(PANEL_PATH.read_text(encoding="utf-8"))
    worst = 0.0
    problems = []
    for entry, drag in zip(panel, panel_drags(panel)):
        err = abs(drag - entry["normalized_drag"]) / entry["normalized_drag"]
        worst = max(worst, err)
        if not err <= PANEL_RTOL:
            problems.append(
                f"panel design {entry['design']}: drag {drag!r} vs"
                f" reference {entry['normalized_drag']!r}"
            )
    return worst, problems


def read_records(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def records_check(records: list[dict], bounds: Bounds, expected: int) -> list[str]:
    """Count, and that each ``encoded`` value round-trips through its design."""
    problems = []
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    for n, rec in enumerate(records):
        encoded = np.array(rec["encoded"])
        if not (
            np.array_equal(encode_design(np.array(rec["design"]), bounds), encoded)
            and np.array_equal(encode_design(decode_design(encoded, bounds), bounds), encoded)
        ):
            problems.append(f"record {n}: encoded {rec['encoded']} does not round-trip")
            break
    return problems
