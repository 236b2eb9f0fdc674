"""One campaign process: ``shapeopt run`` with timing hooks, optionally traced.

    python3 campaign.py --config run.json --report report.json --t-spawn T
                        [--resume] [--probe] [--trace]

Always records a handful of timestamps on the shared monotonic clock:
entry into ``run_single_seed``, entry into the optimization loop, the start
of every generation, loop exit and ``run_single_seed`` exit.  ``--probe``
stops at loop entry, so the process measures set-up only.  ``--trace``
also wraps the public functions of every layer in spans and counts what
they do; the spans are kept in memory and written to the report at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import requests
from shapeopt import airfoil, axisym, cli, evolution, ga, llm, problems, stokesbem
from shapeopt.axisym import InvalidBodyError
from shapeopt.evolution import EvaluationFailed
from shapeopt.stokesbem import MeshError

from spans import Tracer, replace_everywhere

CLOCK = time.monotonic

MODULES = {
    "airfoil": airfoil, "axisym": axisym, "cli": cli, "evolution": evolution,
    "ga": ga, "llm": llm, "problems": problems, "stokesbem": stokesbem,
}

# (module, attribute, span name); a dotted attribute names a method.
TRACED = [
    ("stokesbem", "solve_drag", "stokesbem.solve"),
    ("stokesbem", "solve_tractions", "stokesbem.lu"),
    ("stokesbem", "assemble_single_layer", "stokesbem.assemble"),
    ("stokesbem", "ring_stokeslet", "stokesbem.kernel"),
    ("stokesbem", "profile_to_mesh", "stokesbem.mesh"),
    ("axisym", "integrate_profile", "axisym.integrate"),
    ("axisym", "rescale_to_constraint", "axisym.rescale"),
    ("problems", "AxisymDragProblem.evaluate", "problems.evaluate"),
    ("problems", "AirfoilProblem.evaluate", "problems.evaluate"),
    ("problems", "QuadraticProblem.evaluate", "problems.evaluate"),
    ("evolution", "select_records", "evolution.select"),
    ("evolution", "sample_generation", "evolution.sample"),
    ("evolution", "evaluate_designs", "evolution.evaluate_designs"),
    ("evolution", "run_optimization", "evolution.loop"),
    ("ga", "run_ga", "evolution.loop"),
    ("ga", "ga_step", "ga.step"),
    ("llm", "MockProposer.propose", "llm.mock_propose"),
    ("llm", "LlmProposer.propose", "llm.propose"),
    ("llm", "build_prompt", "llm.prompt"),
    ("llm", "parse_mean_response", "llm.parse"),
    ("airfoil", "build_airfoil_curve", "airfoil.curve"),
    ("airfoil", "is_simple", "airfoil.is_simple"),
    ("airfoil", "external_evaluate", "airfoil.external"),
    ("cli", "RecordWriter.__call__", "cli.write_records"),
    ("cli", "load_records", "cli.load_records"),
    ("cli", "run_single_seed", "cli.run_single_seed"),
]

def failure_reason(exc: BaseException) -> str:
    """Sort an ``EvaluationFailed`` into one of ``layers.FAIL_REASONS``."""
    cause = exc.__cause__
    if isinstance(cause, MeshError):
        return "mesh"
    if isinstance(cause, np.linalg.LinAlgError):
        return "solver"
    if isinstance(cause, InvalidBodyError):
        return "degenerate"
    text = str(exc)
    for key, reason in (
        ("negative radius", "negative_radius"),
        ("non-physical", "nonphysical"),
        ("entangled", "entangled"),
        ("flow evaluation failed", "evaluator"),
    ):
        if key in text:
            return reason
    return "other"


def patch(module_name: str, attribute: str, make_wrapper) -> None:
    """Replace a function or method everywhere shapeopt refers to it."""
    module = MODULES[module_name]
    owner_name, _, method = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        setattr(owner, method, make_wrapper(getattr(owner, method)))
    else:
        original = getattr(module, attribute)
        replace_everywhere("shapeopt", original, make_wrapper(original))


class Campaign:
    """Timestamps of one process plus, when traced, its spans and counts."""

    def __init__(self, report: Path, t_spawn: float, probe: bool, tracer: Tracer | None):
        self.report = report
        self.probe = probe
        self.tracer = tracer
        self.marks = {"t_spawn": t_spawn}
        self.gen_starts: list[float] = []

    def write(self, **extra) -> None:
        doc = {
            **self.marks,
            "gen_starts": self.gen_starts,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **extra,
        }
        if self.tracer is not None:
            doc["spans"] = self.tracer.spans
            doc["counts"] = dict(self.tracer.counts)
        self.report.write_text(json.dumps(doc), encoding="utf-8")

    def install_timing(self) -> None:
        def mark_seed(fn):
            def run_single_seed(*args, **kwargs):
                self.marks["t_entry"] = CLOCK()
                out = fn(*args, **kwargs)
                self.marks["t_exit"] = CLOCK()
                return out
            return run_single_seed

        def mark_loop(fn):
            def loop(*args, **kwargs):
                self.marks["t_loop"] = CLOCK()
                if self.probe:
                    self.write()
                    os._exit(0)
                out = fn(*args, **kwargs)
                self.marks["t_loop_end"] = CLOCK()
                return out
            return loop

        def mark_generation(fn):
            def generation_rng(seed, generation):
                self.gen_starts.append(CLOCK())
                if self.tracer is not None:
                    self.tracer.generation = int(generation)
                return fn(seed, generation)
            return generation_rng

        patch("cli", "run_single_seed", mark_seed)
        patch("evolution", "run_optimization", mark_loop)
        patch("ga", "run_ga", mark_loop)
        patch("evolution", "generation_rng", mark_generation)

    def install_tracing(self) -> None:
        tracer = self.tracer
        for module_name, attribute, span in TRACED:
            patch(module_name, attribute, lambda fn, s=span: tracer.wrap(s, fn))

        def count_pairs(fn):
            def ring_stokeslet(r, z, r0, z0):
                tracer.add("kernel_pairs", np.broadcast(r, z, r0, z0).size)
                return fn(r, z, r0, z0)
            return ring_stokeslet

        def count_failures(fn):
            def evaluate(problem_self, x):
                try:
                    return fn(problem_self, x)
                except EvaluationFailed as exc:
                    tracer.add("fail." + failure_reason(exc))
                    raise
            return evaluate

        def count_entangled(fn):
            def is_simple(curve):
                simple = fn(curve)
                tracer.add("entangled", not simple)
                return simple
            return is_simple

        patch("stokesbem", "ring_stokeslet", count_pairs)
        patch("airfoil", "is_simple", count_entangled)
        for cls in ("AxisymDragProblem", "AirfoilProblem", "QuadraticProblem"):
            patch("problems", cls + ".evaluate", count_failures)
        # The chat client's only network call; its span is the endpoint wait.
        requests.post = tracer.wrap("llm.endpoint", requests.post)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    campaign = Campaign(
        Path(args.report), args.t_spawn, args.probe,
        Tracer(clock=CLOCK) if args.trace else None,
    )
    if campaign.tracer is not None:
        campaign.install_tracing()
    campaign.install_timing()
    command = ["run", "--config", args.config] + (["--resume"] if args.resume else [])
    code = cli.main(command)
    campaign.write(exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main())
