"""Per-layer figures from the spans and counts of traced campaigns.

Times are per unit of the layer's own work (per solve, per call, per
generation or per proposal) and counts are per campaign.  Every
``per_layer`` metric of ``BENCHMARK.json`` is reported on every workload,
so a layer that a workload does not run reads 0 there.
"""

from __future__ import annotations

from collections import defaultdict

from spans import layer_table

FAIL_REASONS = (
    "negative_radius", "degenerate", "mesh", "solver", "nonphysical",
    "entangled", "evaluator", "other",
)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pool_efficiency(spans: list, workers: int) -> tuple[float, float]:
    """Summed design time and ``workers`` x pool wall of one process."""
    pools = {s[0]: s[3] - s[2] for s in spans if s[1] == "evolution.evaluate_designs"}
    busy = sum(s[3] - s[2] for s in spans if s[1] == "problems.evaluate" and s[4] in pools)
    return busy, workers * sum(pools.values())


def per_layer(
    workload, runs: list, untraced_evals_per_s: float, units: dict[str, str]
) -> tuple[dict, list, list]:
    """Metrics named in ``units``, the self-time table rows, and check problems."""
    rows: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counts: dict[str, float] = defaultdict(float)
    busy = capacity = wall = finalize = generations = 0.0
    chat = defaultdict(float)
    audit_bytes = records_bytes = 0
    workers = min(workload.config.get("max_workers", 1), workload.population)
    for run in runs:
        for report in run.reports:
            for name, row in layer_table(report["spans"]).items():
                for key in row:
                    rows[name][key] += row[key]
            for key, value in report["counts"].items():
                counts[key] += value
            b, c = pool_efficiency(report["spans"], workers)
            busy += b
            capacity += c
            wall += report["t_exit"] - report["t_entry"]
            finalize += report["t_exit"] - report["t_loop_end"]
            generations += len(report["gen_starts"])
        for key, value in (run.chat or {}).items():
            chat[key] += value
        seed_dir = run.records_path.parent
        audit = seed_dir / "llm_audit.jsonl"
        audit_bytes += audit.stat().st_size if audit.exists() else 0
        records_bytes += run.records_path.stat().st_size

    def total_ms(name):
        return 1e3 * rows[name]["total_s"] if name in rows else 0.0

    def self_ms(name):
        return 1e3 * rows[name]["self_s"] if name in rows else 0.0

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    n = len(runs)
    solves = calls("stokesbem.solve")
    proposals = calls("llm.propose")
    evals = n * workload.budget * workload.population
    values = {
        "stokesbem.solve_ms": _per(total_ms("stokesbem.solve"), solves),
        "stokesbem.assemble_ms": _per(self_ms("stokesbem.assemble"), solves),
        "stokesbem.kernel_ms": _per(self_ms("stokesbem.kernel"), solves),
        "stokesbem.mesh_ms": _per(total_ms("stokesbem.mesh"), solves),
        "stokesbem.lu_ms": _per(self_ms("stokesbem.lu"), solves),
        "stokesbem.kernel_pairs": _per(counts["kernel_pairs"], solves),
        "stokesbem.solves": _per(solves, n),
        "axisym.integrate_ms": _per(total_ms("axisym.integrate"), calls("axisym.integrate")),
        "axisym.rescale_ms": _per(total_ms("axisym.rescale"), calls("axisym.rescale")),
        "problems.evaluate_ms": _per(total_ms("problems.evaluate"), calls("problems.evaluate")),
        **{
            f"problems.fail.{reason}": _per(counts["fail." + reason], n)
            for reason in FAIL_REASONS
        },
        "evolution.select_ms": _per(total_ms("evolution.select"), generations),
        "evolution.sample_ms": _per(total_ms("evolution.sample"), generations),
        "evolution.loop_self_ms": _per(self_ms("evolution.loop"), generations),
        "evolution.pool_efficiency": _per(busy, capacity),
        "llm.propose_ms": _per(total_ms("llm.propose"), proposals),
        "llm.prompt_ms": _per(total_ms("llm.prompt"), proposals),
        "llm.parse_ms": _per(total_ms("llm.parse"), proposals),
        "llm.endpoint_wait_ms": _per(total_ms("llm.endpoint"), proposals),
        "llm.endpoint_service_ms": _per(1e3 * chat["service_s"], proposals),
        "llm.attempts_per_proposal": _per(calls("llm.endpoint"), proposals),
        "llm.connections": _per(chat["connections"], n),
        "llm.audit_bytes": _per(audit_bytes, n),
        "llm.mock_propose_ms": _per(total_ms("llm.mock_propose"), calls("llm.mock_propose")),
        "ga.step_ms": _per(total_ms("ga.step"), calls("ga.step")),
        "airfoil.curve_ms": _per(total_ms("airfoil.curve"), calls("airfoil.curve")),
        "airfoil.is_simple_ms": _per(total_ms("airfoil.is_simple"), calls("airfoil.is_simple")),
        "airfoil.external_ms": _per(total_ms("airfoil.external"), calls("airfoil.external")),
        "airfoil.evaluator_calls": _per(calls("airfoil.external"), n),
        "airfoil.entangled_share": _per(counts["entangled"], calls("airfoil.is_simple")),
        "cli.write_records_ms": _per(total_ms("cli.write_records"), calls("cli.write_records")),
        "cli.load_records_ms": _per(total_ms("cli.load_records"), calls("cli.load_records")),
        "cli.records_bytes": _per(records_bytes, n),
        "cli.finalize_ms": _per(1e3 * finalize, n),
        "trace.overhead": _per(untraced_evals_per_s, _per(evals, wall)),
    }
    problems = []
    if workload.config["problem"] == "airfoil":
        attempted = calls("problems.evaluate")
        if calls("airfoil.external") != attempted - counts["entangled"]:
            problems.append(
                f"{calls('airfoil.external')} evaluator calls for {attempted} attempted"
                f" and {counts['entangled']:.0f} entangled designs"
            )
    table = [
        {
            "name": name,
            "calls": int(row["calls"]),
            "total_ms": 1e3 * row["total_s"],
            "self_ms": 1e3 * row["self_s"],
            "self_pct": 100.0 * _per(row["self_s"], wall),
        }
        for name, row in sorted(rows.items(), key=lambda item: -item[1]["self_s"])
    ]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, table, problems
