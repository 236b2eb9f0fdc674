"""Stand-in flow evaluator that speaks shapeopt's airfoil protocol.

    python3 flowstub.py <geometry.txt> --re <Re> --out <result.json>

reads the closed polyline (one ``x y`` pair per line) and writes
``{"lift", "drag", "ratio"}`` computed in closed form from the outline, so
the optimizer gets a smooth, deterministic signal without a flow solver:

- lift is the isoperimetric quotient 4 pi A / P^2 (1 for a circle);
- drag is the thickness-to-chord ratio plus a friction term 2 / sqrt(Re);
- ratio is lift / drag, which stays below sqrt(Re) / 2.

Only the standard library is imported, which keeps the per-call start-up short.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def read_polyline(path: str) -> list[tuple[float, float]]:
    points = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                x, y = line.split()
                points.append((float(x), float(y)))
    if len(points) < 4 or points[0] != points[-1]:
        raise ValueError("geometry must be a closed polyline of at least 4 points")
    return points


def performance(points: list[tuple[float, float]], reynolds: float) -> dict:
    area2 = 0.0
    perimeter = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        area2 += x0 * y1 - x1 * y0
        perimeter += math.hypot(x1 - x0, y1 - y0)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    chord = max(xs) - min(xs)
    thickness = max(ys) - min(ys)
    lift = 2.0 * math.pi * abs(area2) / (perimeter * perimeter)
    drag = thickness / chord + 2.0 / math.sqrt(reynolds)
    return {"lift": lift, "drag": drag, "ratio": lift / drag}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("geometry")
    parser.add_argument("--re", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = performance(read_polyline(args.geometry), args.re)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
